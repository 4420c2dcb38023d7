"""Command-line surface: catalog inspection, genus and q-series computation,
Eisenstein fits, the numeric S-transformation check, analytic bound reports,
and covering-graph simulations, all parsed from one command table (COMMANDS).

A handler takes its converted options and returns a (payload, lines) pair:
the `--json` object and the text output lines.  No handler prints; `_run`
prints one of the two.

Exit codes: 0 success, 1 usage, 2 invalid data (including the size caps),
3 numerical failure, 4 internal error (any other exception, reported as one
line).  A warning prints as one `warning: ...` line on stderr; raised as an
error (`python -W error`), a NonIntegralIndexWarning exits 2, since it
signals corrupt data.
"""

import os
import sys
import warnings
from collections import namedtuple

from .errors import ELLIPTIC, FAMILIES, GENERA, DataError, NonIntegralIndexWarning, NumericalError, TooLarge

# Each command imports the modules it runs inside its body, so a process
# loads only what its command needs: `cover tower` never loads the genus
# engine, and `bound cb` never loads the catalog.

DEFAULT_ORDER = 24  # through q^24; _trunc(DEFAULT_ORDER) is elliptic.DEFAULT_Q_TRUNC
PROG = "genus-forge"  # the program name in usage lines and help pages


def _check_order(value: int, flag: str) -> None:
    # the q-series cap, q^100, bounds --order and `indices --max` (W_k sits at q^k)
    from .qseries import MAX_TRUNC

    if _trunc(value) > MAX_TRUNC:
        raise TooLarge(f"{flag} {value} exceeds the cap of {MAX_TRUNC // 2}")


def _trunc(order: int) -> int:
    # order N covers half-exponents 0 .. 2N, i.e. q^0 .. q^N
    return 2 * order + 1


def _half_key(half_exp: int) -> str:
    return str(half_exp // 2) if half_exp % 2 == 0 else f"{half_exp}/2"


def _monomial_name(i: int, j: int) -> str:
    parts = [name if power == 1 else f"{name}^{power}" for name, power in (("E4", i), ("E6", j))
             if power]
    return "*".join(parts) or "1"


def _fit_combination(coefficients) -> str:
    chunks = []
    for (i, j), c in sorted(coefficients.items(), reverse=True):
        mono = _monomial_name(i, j)
        chunks.append(str(c) if mono == "1" else mono if c == 1 else f"{c}*{mono}")
    return " + ".join(chunks) or "0"


class UsageError(Exception):
    """A bad command line: exit code 1, shown under the usage line of `path`."""

    def __init__(self, message: str, path: tuple):
        super().__init__(f"Usage: {_usage(path)}\nTry '{' '.join((PROG, *path))} --help' "
                         f"for help.\n\nError: {message}")


# One option: `--flag VALUE` becomes the handler's keyword `dest`, and a flag
# without dashes (NAME) is a positional argument.  `type` is str, int, float, a
# tuple of choices, or bool for a flag without a value; `minimum` bounds an int.
Opt = namedtuple("Opt", "flag dest type required default minimum help",
                 defaults=(str, False, None, None, ""))
HELP = Opt("--help", "help", bool, help="Show this message and exit.")
JSON = Opt("--json", "as_json", bool, help="machine-readable output")
MANIFOLD = Opt("--manifold", "manifold", required=True, help="catalog entry or builtin name")
_METAVAR = {str: " TEXT", int: " INTEGER", float: " FLOAT", bool: ""}

# group path -> help text; a group takes --help and the name of one of its children
GROUPS = {
    (): "Exact multiplicative genera, elliptic and Witten q-expansions, twisted Dirac\n"
        "indices, Eisenstein fits, analytic index bounds, and torus covering\n"
        "simulations over a manifold catalog.",
    ("catalog",): "Inspect the manifold catalog.",
    ("modular",): "Eisenstein fits and the numeric transformation check.",
    ("bound",): "Analytic constants and index bounds.",
    ("cover",): "Torus-quotient covering simulations.",
}
# command path -> (handler, options); the handler's docstring is its help text
COMMANDS: dict = {}


def _command(path: tuple, *options: Opt):
    def register(handler):
        COMMANDS[path] = (handler, (*options, JSON))  # every command takes --json
        return handler
    return register


def _usage(path: tuple) -> str:
    tail = (["[OPTIONS] COMMAND [ARGS]..."] if path in GROUPS else
            ["[OPTIONS]"] + [opt.flag for opt in COMMANDS[path][1] if opt.flag[0] != "-"])
    return " ".join((PROG, *path, *tail))


def _help(path: tuple) -> str:
    """The --help page of a group or a command, built from the table."""
    def columns(rows: list) -> list:
        width = max(len(left) for left, _ in rows)
        return [f"  {left:<{width}}  {right}".rstrip() for left, right in rows]

    docs = {**GROUPS, **{p: handler.__doc__ for p, (handler, _) in COMMANDS.items()}}
    rows = []
    for opt in (*COMMANDS.get(path, (None, ()))[1], HELP):
        if opt.flag[0] == "-":
            notes = [f"default: {opt.default}"] if opt.default is not None else []
            notes += [f"x>={opt.minimum}"] if opt.minimum is not None else []
            notes += ["required"] if opt.required else []
            metavar = _METAVAR[opt.type] if opt.type in _METAVAR else f" [{'|'.join(opt.type)}]"
            rows.append((opt.flag + metavar, f"{opt.help}  [{'; '.join(notes)}]".strip()
                         if notes else opt.help))
    children = [(p[-1], doc) for p, doc in sorted(docs.items()) if p and p[:-1] == path]
    page = [f"Usage: {_usage(path)}", "", *("  " + line for line in docs[path].splitlines()),
            "", "Options:", *columns(rows)]
    return "\n".join(page + (["", "Commands:", *columns(children)] if children else []))


def _scan(path: tuple, argv: list, options) -> tuple[dict, list]:
    """Raw option values by dest, and the positional tokens.  An option takes
    the next token as its value even when it starts with '-' (`--b -1e-3`);
    `--opt=value` works, the last of a repeated option wins, no option is
    abbreviated, and `--` or, in a group, the first positional ends options."""
    flags = {opt.flag: opt for opt in options}
    values, args = {}, []
    tokens = iter(argv)
    for token in tokens:
        if token == "--":
            args += tokens
        elif token[:1] != "-" or token == "-":
            args.append(token)
            if path in GROUPS:
                args += tokens
        else:
            flag, eq, value = token.partition("=")
            opt = flags.get(flag)
            if opt is None:
                raise UsageError(f"No such option '{flag}'.", path)
            if opt.type is bool and eq:
                raise UsageError(f"Option '{flag}' does not take a value.", path)
            if opt.type is not bool and not eq:
                value = next(tokens, None)
                if value is None:
                    raise UsageError(f"Option '{flag}' requires an argument.", path)
            values[opt.dest] = True if opt.type is bool else value
    return values, args


def _convert(path: tuple, opt: Opt, raw):
    """The typed value of one option, or its default when it was not given."""
    if raw is None:
        if opt.required:
            what = "option" if opt.flag[0] == "-" else "argument"
            raise UsageError(f"Missing {what} '{opt.flag}'.", path)
        return opt.default
    if isinstance(opt.type, tuple):
        if raw in opt.type:
            return raw
        problem = f"{raw!r} is not one of {', '.join(map(repr, opt.type))}."
    else:
        try:
            value = opt.type(raw)
        except ValueError:
            problem = f"{raw!r} is not a valid{_METAVAR[opt.type].lower()}."
        else:
            if opt.minimum is None or value >= opt.minimum:
                return value
            problem = f"{value} is not in the range x>={opt.minimum}."
    raise UsageError(f"Invalid value for '{opt.flag}': {problem}", path)


def _run(argv: list) -> int:
    path = ()
    while True:
        handler, options = COMMANDS.get(path, (None, ()))
        values, args = _scan(path, argv, (*options, HELP))
        if "help" in values or not (handler or args):  # --help, or a bare group
            print(_help(path), file=sys.stdout if "help" in values else sys.stderr)
            return 0 if "help" in values else 1
        if handler:
            break
        if path + (args[0],) not in GROUPS and path + (args[0],) not in COMMANDS:
            raise UsageError(f"No such command '{args[0]}'.", path)
        path, argv = path + (args[0],), args[1:]
    kwargs = {opt.dest: _convert(path, opt, values.get(opt.dest) if opt.flag[0] == "-"
                                 else args.pop(0) if args else None) for opt in options}
    if args:
        raise UsageError(f"Got unexpected extra argument ({' '.join(args)})", path)
    as_json = kwargs.pop("as_json")
    payload, lines = handler(**kwargs)
    if as_json:
        import json

        print(json.dumps(payload, indent=2))
    elif lines:  # an empty catalog prints nothing, not a blank line
        print("\n".join(lines))
    return 0


@_command(("catalog", "list"))
def catalog_list():
    """Names and basic data of every catalog entry."""
    from .catalog import document, load_default_catalog

    cat = load_default_catalog()
    lines = []
    for entry in cat.values():
        sources = [source for source, present in (("chern", entry.chern_numbers is not None),
                                                  ("pont", entry.pontryagin_numbers is not None),
                                                  ("asserted", entry.asserted_genera)) if present]
        flags = "".join((" spin" if entry.spin else "", " string" if entry.string else ""))
        lines.append(f"{entry.name:18s} dim={entry.real_dim:<3d} data={'+'.join(sources)}{flags}")
    return document(cat), lines


@_command(("catalog", "show"), Opt("NAME", "name", required=True))
def catalog_show(name):
    """Full stored data of one entry (builtins included)."""
    import json

    from .catalog import entry_to_dict, resolve

    payload = entry_to_dict(resolve(name))
    return payload, [f"{key}: {json.dumps(value) if isinstance(value, dict) else value}"
                     for key, value in payload.items()]


@_command(("compute",), MANIFOLD, Opt("--genus", "kind", GENERA, required=True))
def compute(manifold, kind):
    """One rational genus of one manifold."""
    from .catalog import resolve
    from .genera import genus_source, genus_value

    entry = resolve(manifold)
    value = genus_value(entry, kind)
    return ({"manifold": entry.name, "genus": kind, "value": str(value),
             "source": genus_source(entry, kind)}, [str(value)])


@_command(("elliptic",), MANIFOLD, Opt("--kind", "kind", ELLIPTIC, required=True),
          Opt("--order", "order", int, default=DEFAULT_ORDER, minimum=0,
              help="keep coefficients through q^ORDER"))
def elliptic(manifold, kind, order):
    """q-expansion of an elliptic or Witten genus."""
    from .catalog import resolve
    from .elliptic import elliptic_genus

    _check_order(order, "--order")
    entry = resolve(manifold)
    series = elliptic_genus(entry, kind, q_trunc=_trunc(order)).series
    return ({"manifold": entry.name, "kind": kind, "order": order, "coefficients":
             {_half_key(n): str(c) for n, c in series.terms()}},
            [f"{kind}({entry.name}) = {series}", f"(coefficients through q^{order})"])


@_command(("indices",), MANIFOLD, Opt("--family", "family", FAMILIES, required=True),
          Opt("--max", "max_k", int, default=8, minimum=0, help="largest bundle step k"))
def indices(manifold, family, max_k):
    """Twisted Dirac indices for bundle steps 0..max."""
    from .catalog import resolve
    from .elliptic import _FAMILIES, twisted_indices

    _check_order(max_k, "--max")
    entry = resolve(manifold)
    values = twisted_indices(entry, family, max_k)
    _, step = _FAMILIES[family]
    return ({"manifold": entry.name, "family": family, "max": max_k,
             "indices": {str(k): str(v) for k, v in enumerate(values)}},
            [f"k={k:<3d} q^{_half_key(step * k):<5s} ind = {value}"
             for k, value in enumerate(values)])


@_command(("modular", "fit"), MANIFOLD,
          Opt("--order", "order", int, default=DEFAULT_ORDER, minimum=1,
              help="compare coefficients through q^ORDER"))
def modular_fit(manifold, order):
    """Fit the Witten series against weight-matched E4^i * E6^j monomials."""
    from .catalog import resolve
    from .modular import witten_fit

    _check_order(order, "--order")
    fit = witten_fit(resolve(manifold), q_trunc=_trunc(order))
    lines = [f"manifold: {fit.manifold}", f"weight: {fit.weight}",
             f"fit: {_fit_combination(fit.coefficients)}",
             f"residual_ok: {str(fit.residual_ok).lower()}"]
    mismatch = None
    if fit.first_mismatch is not None:
        half_exp, coeff = fit.first_mismatch
        mismatch = {"exponent": _half_key(half_exp), "residual": str(coeff)}
        lines.append(f"first_mismatch: q^{mismatch['exponent']} residual {mismatch['residual']}")
    return ({"manifold": fit.manifold, "weight": fit.weight, "coefficients": {
        _monomial_name(i, j): str(c) for (i, j), c in sorted(fit.coefficients.items(), reverse=True)},
        "residual_ok": fit.residual_ok, "checked_order": fit.checked_order,
        "first_mismatch": mismatch}, lines)


@_command(("modular", "check"), MANIFOLD, Opt("--tau-im", "tau_im", float, default=1.5,
                                               help="imaginary part of tau (must exceed 1)"),
          Opt("--order", "order", int, default=DEFAULT_ORDER, minimum=1),
          Opt("--tol", "tol", float, default=1e-8))
def modular_check(manifold, tau_im, order, tol):
    """Compare both sides of the inversion relation numerically."""
    from .catalog import resolve
    from .modular import modular_relation_check

    _check_order(order, "--order")
    check = modular_relation_check(resolve(manifold), tau_im=tau_im, q_trunc=_trunc(order),
                                   tol=tol)
    verdict = "PASS" if check.passed else "FAIL"
    return ({"manifold": check.manifold, "tau_im": check.tau_im, "order": order,
             "tol": check.tol, "lhs": [check.lhs.real, check.lhs.imag],
             "rhs": [check.rhs.real, check.rhs.imag], "abs_error": check.abs_error,
             "passed": check.passed},
            [f"lhs = {check.lhs}", f"rhs = {check.rhs}",
             f"|lhs - rhs| = {check.abs_error:.3e} (tol {check.tol:.1e}): {verdict}"])


@_command(("bound", "cb"), Opt("--m", "m_dim", int, required=True, minimum=2),
          Opt("--b", "b_param", float, required=True),
          Opt("--method", "method", ("bisection", "secant"), default="bisection"))
def bound_cb(m_dim, b_param, method):
    """The positive root c_of_b(m, b)."""
    from .bounds import c_of_b

    value = c_of_b(m_dim, b_param, method=method)
    return {"m": m_dim, "b": b_param, "method": method, "c_of_b": value}, [repr(value)]


@_command(("bound", "index"), Opt("--m", "m_dim", int, required=True, minimum=2),
          Opt("--p", "p_exp", float, required=True),
          Opt("--lambda", "lambda_", float, required=True),
          Opt("--diam", "diam", float, required=True), Opt("--b", "b_param", float, required=True),
          Opt("--cmp", "cmp_const", float, default=1.0),
          Opt("--v", "v_exp", float, help="auxiliary exponent; only free when m = 2"),
          Opt("--l", "rank", int, default=1, minimum=1,
              help="bundle rank for the dimension bound"))
def bound_index(m_dim, p_exp, lambda_, diam, b_param, cmp_const, v_exp, rank):
    """Full index-bound report with every intermediate constant."""
    from .bounds import BoundParams, index_bound_report

    params = BoundParams(m=m_dim, p=p_exp, Lambda=lambda_, diam=diam,
                         b=b_param, cmp=cmp_const, v=v_exp, l=rank)
    payload = {**vars(index_bound_report(params)), "inputs": vars(params)}
    return payload, [f"{key}: " + ", ".join(f"{k}={v}" for k, v in value.items())
                     if isinstance(value, dict) else f"{key} = {value!r}"
                     for key, value in payload.items()]


def _parse_moduli(text: str):
    try:
        return tuple(int(piece) for piece in text.split(","))
    except ValueError:
        raise UsageError(f"Invalid value for '--base': moduli must be comma-separated"
                         f" integers, got {text!r}", ("cover", "diam")) from None


@_command(("cover", "diam"), Opt("--k", "k_rank", int, required=True, minimum=1),
          Opt("--base", "base_text", required=True, help="comma-separated moduli n1,..,nk"),
          Opt("--factor", "factor", int, required=True, minimum=1))
def cover_diam(k_rank, base_text, factor):
    """BFS diameters of a quotient and its cover, plus the index inequality."""
    from .covering import cover_diameter

    result = cover_diameter(k_rank, _parse_moduli(base_text), factor)
    relation = "<=" if result.inequality_holds else ">"
    return ({"k": k_rank, "base": base_text, "factor": factor, **vars(result)},
            [f"base_diam = {result.base_diam}", f"cover_diam = {result.cover_diam}",
             f"index = {result.index}",
             f"inequality: {result.cover_diam} {relation} {result.index} * {result.base_diam}"
             f" -> {'holds' if result.inequality_holds else 'VIOLATED'}"])


@_command(("cover", "tower"), Opt("--k", "k_rank", int, required=True, minimum=1),
          Opt("--depth", "depth", int, required=True, minimum=1))
def cover_tower(k_rank, depth):
    """The doubling sublattice tower and its index sequence."""
    from .covering import tower

    result = tower(k_rank, depth)
    return ({"k": result.k, "levels": [vars(lv) for lv in result.levels]},
            [f"j={lv.j:<3d} scale=2^{lv.j - 1:<3d} index={lv.index}" for lv in result.levels])


@_command(("cover", "l2"), Opt("--k", "k_rank", int, required=True, minimum=1),
          Opt("--p", "p_deg", int, required=True, minimum=0),
          Opt("--depth", "depth", int, required=True, minimum=1))
def cover_l2(k_rank, p_deg, depth):
    """Normalized Betti ratios along the tower."""
    from .covering import l2_betti_ratio

    ratios = [str(r) for r in l2_betti_ratio(k_rank, p_deg, depth)]
    return {"k": k_rank, "p": p_deg, "depth": depth, "ratios": ratios}, [", ".join(ratios)]


def main(argv=None) -> int:
    """Console entry point; maps the error taxonomy onto exit codes, and any
    other exception onto exit code 4 with one `internal error: ...` line."""
    try:
        with warnings.catch_warnings():  # restores showwarning for in-process callers
            warnings.showwarning = lambda message, *_: print(f"warning: {message}", file=sys.stderr)
            code = _run(sys.argv[1:] if argv is None else list(argv))
        sys.stdout.flush()  # a reader that left early (`| head -1`) shows up here, not at exit
        return code
    except (UsageError, KeyboardInterrupt) as exc:
        print(exc if isinstance(exc, UsageError) else "aborted", file=sys.stderr)
        return 1
    except BrokenPipeError:  # exit 1 quietly; what is left unwritten goes nowhere
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (DataError, NumericalError, NonIntegralIndexWarning) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3 if isinstance(exc, NumericalError) else 2
    except Exception as exc:  # a defect, not bad input: one line, no traceback
        print(f"internal error: {exc!r}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
