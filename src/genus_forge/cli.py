"""Command-line surface: catalog inspection, genus and q-series computation,
Eisenstein fits, the numeric S-transformation check, analytic bound reports,
and covering-graph simulations.

Exit codes: 0 success, 1 usage, 2 invalid data (including the size caps),
3 numerical failure, 4 internal error (any other exception, reported as one
line).
"""

from __future__ import annotations

import sys

import click

from .errors import DataError, NumericalError, TooLarge

# Each command imports the modules it runs inside its body, so a process
# loads only what its command needs: `cover tower` never loads the genus
# engine, and `bound cb` never loads the catalog.

# The values of manifolds.GenusKind and elliptic.EllKind, in their order,
# spelled out so that declaring the options imports neither module.
GENUS_CHOICES = ("todd", "ahat", "lhat", "signature")
ELL_CHOICES = ("ell1", "ell2", "witten")

DEFAULT_ORDER = 24  # q-series commands keep coefficients through q^24
# Largest --order, and largest `indices --max` (W_k sits at q^k), that the
# q-series commands accept; beyond it they raise TooLarge (exit 2).
MAX_ORDER = 100


def _check_order(value: int, flag: str) -> None:
    if value > MAX_ORDER:
        raise TooLarge(f"{flag} {value} exceeds the cap of {MAX_ORDER}")


def _trunc(order: int) -> int:
    # order N covers half-exponents 0 .. 2N, i.e. q^0 .. q^N
    return 2 * order + 1


def _half_key(half_exp: int) -> str:
    return str(half_exp // 2) if half_exp % 2 == 0 else f"{half_exp}/2"


def _series_payload(series) -> dict:
    return {_half_key(n): str(c) for n, c in series.terms()}


def _emit(payload: dict) -> None:
    import json

    click.echo(json.dumps(payload, indent=2))


def _monomial_name(i: int, j: int) -> str:
    parts = []
    if i:
        parts.append("E4" if i == 1 else f"E4^{i}")
    if j:
        parts.append("E6" if j == 1 else f"E6^{j}")
    return "*".join(parts) or "1"


def _fit_combination(coefficients) -> str:
    if not coefficients:
        return "0"
    chunks = []
    for (i, j), c in sorted(coefficients.items(), reverse=True):
        mono = _monomial_name(i, j)
        if c == 1 and mono != "1":
            chunks.append(mono)
        elif mono == "1":
            chunks.append(str(c))
        else:
            chunks.append(f"{c}*{mono}")
    return " + ".join(chunks)


@click.group(name="genus-forge")
def cli():
    """Exact multiplicative genera, elliptic and Witten q-expansions, twisted
    Dirac indices, Eisenstein fits, analytic index bounds, and torus covering
    simulations over a manifold catalog."""


# -- catalog -------------------------------------------------------------------


@cli.group()
def catalog():
    """Inspect the manifold catalog."""


@catalog.command("list")
@click.option("--json", "as_json", is_flag=True, help="machine-readable output")
def catalog_list(as_json):
    """Names and basic data of every catalog entry."""
    from .catalog import entry_to_dict, load_default_catalog

    cat = load_default_catalog()
    if as_json:
        _emit({
            "schema_version": cat.schema_version,
            "entries": [entry_to_dict(entry) for entry in cat.entries],
        })
        return
    for entry in cat.entries:
        sources = []
        if entry.has_chern():
            sources.append("chern")
        if entry.has_pontryagin():
            sources.append("pont")
        if entry.asserted_genera:
            sources.append("asserted")
        flags = "".join((" spin" if entry.spin else "", " string" if entry.string else ""))
        click.echo(f"{entry.name:18s} dim={entry.real_dim:<3d} data={'+'.join(sources)}{flags}")


@catalog.command("show")
@click.argument("name")
@click.option("--json", "as_json", is_flag=True, help="machine-readable output")
def catalog_show(name, as_json):
    """Full stored data of one entry (builtins included)."""
    import json

    from .catalog import entry_to_dict, resolve

    entry = resolve(name)
    payload = entry_to_dict(entry)
    if as_json:
        _emit(payload)
        return
    for key, value in payload.items():
        click.echo(f"{key}: {json.dumps(value) if isinstance(value, dict) else value}")


# -- rational genera -------------------------------------------------------------


@cli.command()
@click.option("--manifold", required=True, help="catalog entry or builtin name")
@click.option("--genus", "kind", required=True,
              type=click.Choice(GENUS_CHOICES))
@click.option("--json", "as_json", is_flag=True, help="machine-readable output")
def compute(manifold, kind, as_json):
    """One rational genus of one manifold."""
    from .catalog import resolve
    from .genera import genus_source, genus_value
    from .manifolds import GenusKind

    entry = resolve(manifold)
    kind = GenusKind(kind)
    value = genus_value(entry, kind)
    if as_json:
        _emit({
            "manifold": entry.name,
            "genus": kind.value,
            "value": str(value),
            "source": genus_source(entry, kind),
        })
    else:
        click.echo(str(value))


@cli.command()
@click.option("--manifold", required=True, help="catalog entry or builtin name")
@click.option("--kind", required=True, type=click.Choice(ELL_CHOICES))
@click.option("--order", default=DEFAULT_ORDER, show_default=True,
              type=click.IntRange(min=0), help="keep coefficients through q^ORDER")
@click.option("--json", "as_json", is_flag=True, help="machine-readable output")
def elliptic(manifold, kind, order, as_json):
    """q-expansion of an elliptic or Witten genus."""
    from .catalog import resolve
    from .elliptic import EllKind, elliptic_genus

    _check_order(order, "--order")
    entry = resolve(manifold)
    result = elliptic_genus(entry, EllKind(kind), q_trunc=_trunc(order))
    if as_json:
        _emit({
            "manifold": entry.name,
            "kind": kind,
            "order": order,
            "coefficients": _series_payload(result.series),
        })
    else:
        click.echo(f"{kind}({entry.name}) = {result.series}")
        click.echo(f"(coefficients through q^{order})")


@cli.command()
@click.option("--manifold", required=True, help="catalog entry or builtin name")
@click.option("--family", required=True, type=click.Choice(["B", "W"]))
@click.option("--max", "max_k", default=8, show_default=True,
              type=click.IntRange(min=0), help="largest bundle step k")
@click.option("--json", "as_json", is_flag=True, help="machine-readable output")
def indices(manifold, family, max_k, as_json):
    """Twisted Dirac indices for bundle steps 0..max."""
    from .catalog import resolve
    from .elliptic import twisted_indices

    _check_order(max_k, "--max")
    entry = resolve(manifold)
    values = twisted_indices(entry, family, max_k)
    if as_json:
        _emit({
            "manifold": entry.name,
            "family": family,
            "max": max_k,
            "indices": {str(k): str(v) for k, v in enumerate(values)},
        })
        return
    for k, value in enumerate(values):
        exponent = _half_key(k if family == "B" else 2 * k)
        click.echo(f"k={k:<3d} q^{exponent:<5s} ind = {value}")


# -- modular forms ----------------------------------------------------------------


@cli.group()
def modular():
    """Eisenstein fits and the numeric transformation check."""


@modular.command("fit")
@click.option("--manifold", required=True, help="catalog entry or builtin name")
@click.option("--order", default=DEFAULT_ORDER, show_default=True,
              type=click.IntRange(min=1), help="compare coefficients through q^ORDER")
@click.option("--json", "as_json", is_flag=True, help="machine-readable output")
def modular_fit(manifold, order, as_json):
    """Fit the Witten series against weight-matched E4^i * E6^j monomials."""
    from .catalog import resolve
    from .modular import witten_fit

    _check_order(order, "--order")
    entry = resolve(manifold)
    fit = witten_fit(entry, q_trunc=_trunc(order))
    mismatch = None
    if fit.first_mismatch is not None:
        half_exp, coeff = fit.first_mismatch
        mismatch = {"exponent": _half_key(half_exp), "residual": str(coeff)}
    if as_json:
        _emit({
            "manifold": fit.manifold,
            "weight": fit.weight,
            "coefficients": {_monomial_name(i, j): str(c)
                             for (i, j), c in sorted(fit.coefficients.items(), reverse=True)},
            "residual_ok": fit.residual_ok,
            "checked_order": fit.checked_order,
            "first_mismatch": mismatch,
        })
        return
    click.echo(f"manifold: {fit.manifold}")
    click.echo(f"weight: {fit.weight}")
    click.echo(f"fit: {_fit_combination(fit.coefficients)}")
    click.echo(f"residual_ok: {str(fit.residual_ok).lower()}")
    if mismatch is not None:
        click.echo(f"first_mismatch: q^{mismatch['exponent']} residual {mismatch['residual']}")


@modular.command("check")
@click.option("--manifold", required=True, help="catalog entry or builtin name")
@click.option("--tau-im", "tau_im", default=1.5, show_default=True, type=float,
              help="imaginary part of tau (must exceed 1)")
@click.option("--order", default=DEFAULT_ORDER, show_default=True,
              type=click.IntRange(min=1))
@click.option("--tol", default=1e-8, show_default=True, type=float)
@click.option("--json", "as_json", is_flag=True, help="machine-readable output")
def modular_check(manifold, tau_im, order, tol, as_json):
    """Compare both sides of the inversion relation numerically."""
    from .catalog import resolve
    from .modular import modular_relation_check

    _check_order(order, "--order")
    entry = resolve(manifold)
    check = modular_relation_check(entry, tau_im=tau_im, q_trunc=_trunc(order), tol=tol)
    if as_json:
        _emit({
            "manifold": check.manifold,
            "tau_im": check.tau_im,
            "order": order,
            "tol": check.tol,
            "lhs": [check.lhs.real, check.lhs.imag],
            "rhs": [check.rhs.real, check.rhs.imag],
            "abs_error": check.abs_error,
            "passed": check.passed,
        })
        return
    click.echo(f"lhs = {check.lhs}")
    click.echo(f"rhs = {check.rhs}")
    verdict = "PASS" if check.passed else "FAIL"
    click.echo(f"|lhs - rhs| = {check.abs_error:.3e} (tol {check.tol:.1e}): {verdict}")


# -- analytic bounds ----------------------------------------------------------------


@cli.group()
def bound():
    """Analytic constants and index bounds."""


@bound.command("cb")
@click.option("--m", "m_dim", required=True, type=click.IntRange(min=2))
@click.option("--b", "b_param", required=True, type=float)
@click.option("--method", default="bisection", show_default=True,
              type=click.Choice(["bisection", "secant"]))
@click.option("--json", "as_json", is_flag=True, help="machine-readable output")
def bound_cb(m_dim, b_param, method, as_json):
    """The positive root c_of_b(m, b)."""
    from .bounds import c_of_b

    value = c_of_b(m_dim, b_param, method=method)
    if as_json:
        _emit({"m": m_dim, "b": b_param, "method": method, "c_of_b": value})
    else:
        click.echo(repr(value))


@bound.command("index")
@click.option("--m", "m_dim", required=True, type=click.IntRange(min=2))
@click.option("--p", "p_exp", required=True, type=float)
@click.option("--lambda", "lambda_", required=True, type=float)
@click.option("--diam", required=True, type=float)
@click.option("--b", "b_param", required=True, type=float)
@click.option("--cmp", "cmp_const", default=1.0, show_default=True, type=float)
@click.option("--v", "v_exp", default=None, type=float,
              help="auxiliary exponent; only free when m = 2")
@click.option("--l", "rank", default=1, show_default=True, type=click.IntRange(min=1),
              help="bundle rank for the dimension bound")
@click.option("--json", "as_json", is_flag=True, help="machine-readable output")
def bound_index(m_dim, p_exp, lambda_, diam, b_param, cmp_const, v_exp, rank, as_json):
    """Full index-bound report with every intermediate constant."""
    import dataclasses

    from .bounds import BoundParams, index_bound_report

    params = BoundParams(m=m_dim, p=p_exp, Lambda=lambda_, diam=diam,
                         b=b_param, cmp=cmp_const, v=v_exp, l=rank)
    payload = dataclasses.asdict(index_bound_report(params))
    if as_json:
        _emit(payload)
        return
    for key, value in payload.items():
        if isinstance(value, dict):
            click.echo(f"{key}: " + ", ".join(f"{k}={v}" for k, v in value.items()))
        else:
            click.echo(f"{key} = {value!r}")


# -- covering lab ---------------------------------------------------------------------


@cli.group()
def cover():
    """Torus-quotient covering simulations."""


def _parse_moduli(text: str):
    try:
        return tuple(int(piece) for piece in text.split(","))
    except ValueError:
        raise click.BadParameter(f"moduli must be comma-separated integers, got {text!r}")


@cover.command("diam")
@click.option("--k", "k_rank", required=True, type=click.IntRange(min=1))
@click.option("--base", "base_text", required=True, help="comma-separated moduli n1,..,nk")
@click.option("--factor", required=True, type=click.IntRange(min=1))
@click.option("--json", "as_json", is_flag=True, help="machine-readable output")
def cover_diam(k_rank, base_text, factor, as_json):
    """BFS diameters of a quotient and its cover, plus the index inequality."""
    from .covering import cover_diameter

    result = cover_diameter(k_rank, _parse_moduli(base_text), factor)
    if as_json:
        _emit({
            "k": k_rank,
            "base": base_text,
            "factor": factor,
            "base_diam": result.base_diam,
            "cover_diam": result.cover_diam,
            "index": result.index,
            "inequality_holds": result.inequality_holds,
        })
        return
    click.echo(f"base_diam = {result.base_diam}")
    click.echo(f"cover_diam = {result.cover_diam}")
    click.echo(f"index = {result.index}")
    relation = "<=" if result.inequality_holds else ">"
    click.echo(f"inequality: {result.cover_diam} {relation} {result.index} * {result.base_diam}"
               f" -> {'holds' if result.inequality_holds else 'VIOLATED'}")


@cover.command("tower")
@click.option("--k", "k_rank", required=True, type=click.IntRange(min=1))
@click.option("--depth", required=True, type=click.IntRange(min=1))
@click.option("--json", "as_json", is_flag=True, help="machine-readable output")
def cover_tower(k_rank, depth, as_json):
    """The doubling sublattice tower and its index sequence."""
    from .covering import tower

    result = tower(k_rank, depth)
    if as_json:
        _emit({
            "k": result.k,
            "levels": [{"j": lv.j, "scale": lv.scale, "index": lv.index}
                       for lv in result.levels],
        })
        return
    for lv in result.levels:
        click.echo(f"j={lv.j:<3d} scale=2^{lv.j - 1:<3d} index={lv.index}")


@cover.command("l2")
@click.option("--k", "k_rank", required=True, type=click.IntRange(min=1))
@click.option("--p", "p_deg", required=True, type=click.IntRange(min=0))
@click.option("--depth", required=True, type=click.IntRange(min=1))
@click.option("--json", "as_json", is_flag=True, help="machine-readable output")
def cover_l2(k_rank, p_deg, depth, as_json):
    """Normalized Betti ratios along the tower."""
    from .covering import l2_betti_ratio

    ratios = l2_betti_ratio(k_rank, p_deg, depth)
    if as_json:
        _emit({"k": k_rank, "p": p_deg, "depth": depth,
               "ratios": [str(r) for r in ratios]})
    else:
        click.echo(", ".join(str(r) for r in ratios))


def main(argv=None) -> int:
    """Console entry point; maps the error taxonomy onto exit codes, and any
    other exception onto exit code 4 with one `internal error: ...` line."""
    try:
        cli.main(args=argv, prog_name="genus-forge", standalone_mode=False)
    except click.exceptions.Exit as exc:
        return exc.exit_code
    except click.ClickException as exc:
        exc.show()
        return 1
    except click.Abort:
        click.echo("aborted", err=True)
        return 1
    except DataError as exc:
        click.echo(f"error: {exc}", err=True)
        return 2
    except NumericalError as exc:
        click.echo(f"error: {exc}", err=True)
        return 3
    except Exception as exc:  # a defect, not bad input: one line, no traceback
        click.echo(f"internal error: {exc!r}", err=True)
        return 4
    return 0


if __name__ == "__main__":
    sys.exit(main())
