"""Eisenstein series, Witten-genus fits, and the numeric S-transformation check.

The fit expresses a Witten-genus q-expansion of a 4m-manifold in the n
weight-2m monomials E4^i E6^j (4i + 6j = 2m), n = dim M_2m.  By the
valence formula a weight-2m form is fixed by its coefficients of
q^0 .. q^(n-1), so those n coefficients give a square nonsingular system,
solved exactly; every remaining coefficient up to the truncation is then
checked.  A truncation that stops below q^n leaves no coefficient to
check, so it is refused with FitError.
A failed residual is a meaningful outcome (it is how non-string manifolds
announce themselves), so it is reported on the result rather than raised.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .elliptic import DEFAULT_Q_TRUNC, EllKind, divisor_sum, elliptic_genus
from .errors import ConvergenceRisk, DomainError, FitError, Record
from .manifolds import ManifoldData
from .qseries import QSeries


def eisenstein(kind: str, q_trunc: int) -> QSeries:
    """E4 = 1 + 240 sum sigma_3(n) q^n or E6 = 1 - 504 sum sigma_5(n) q^n, exact."""
    if kind == "E4":
        scale, power = 240, 3
    elif kind == "E6":
        scale, power = -504, 5
    else:
        raise ValueError(f"kind must be 'E4' or 'E6', got {kind!r}")
    return 1 + divisor_sum(2, 1, power, q_trunc) * scale


class ModularFit(Record):
    """Result of expressing a Witten genus in E4^i E6^j monomials.

    checked_order is the half-exponent truncation the residual was checked
    to; first_mismatch is (half-exponent, residual) of the first failure.
    """

    def __init__(self, manifold: str, weight: int,
                 coefficients: dict[tuple[int, int], Fraction], residual_ok: bool,
                 checked_order: int, first_mismatch: tuple[int, Fraction] | None = None):
        self._set(manifold=manifold, weight=weight, coefficients=coefficients,
                  residual_ok=residual_ok, checked_order=checked_order,
                  first_mismatch=first_mismatch)


def _solve_square(rows: list[list[Fraction]]) -> list[Fraction]:
    """Solve a nonsingular n x n system, given as augmented rows of length
    n+1, exactly by Gauss-Jordan elimination; the rows are reduced in place."""
    n = len(rows)
    for col in range(n):
        pivot = next(r for r in range(col, n) if rows[r][col])
        rows[col], rows[pivot] = rows[pivot], rows[col]
        for r in range(n):
            if r != col and rows[r][col]:
                factor = rows[r][col] / rows[col][col]
                rows[r] = [a - factor * b for a, b in zip(rows[r], rows[col])]
    return [rows[i][n] / rows[i][i] for i in range(n)]


def witten_fit(m: ManifoldData, q_trunc: int = DEFAULT_Q_TRUNC) -> ModularFit:
    """Fit the Witten genus of a 4m-manifold against E4^i E6^j, 4i+6j=2m."""
    weight = m.real_dim // 2
    monomials = [
        (i, j)
        for i in range(weight // 4 + 1)
        for j in range(weight // 6 + 1)
        if 4 * i + 6 * j == weight
    ]
    if not monomials:
        raise FitError(
            f"{m.name}: no E4^i E6^j monomials of weight {weight}"
        )
    witten = elliptic_genus(m, EllKind.WITTEN, q_trunc).series
    # the square system takes q^0 .. q^(n-1), and the residual starts at q^n
    n = len(monomials)
    if (q_trunc - 1) // 2 < n:
        raise FitError(
            f"{m.name}: q_trunc {q_trunc} stops below q^{n}, so no coefficient is left "
            f"to check the fit to monomials {monomials}"
        )
    e4, e6 = eisenstein("E4", q_trunc), eisenstein("E6", q_trunc)
    basis = [e4**i * e6**j for i, j in monomials]
    solution = _solve_square(
        [[b.coeff(2 * r) for b in basis] + [witten.coeff(2 * r)] for r in range(n)]
    )

    combo = QSeries.zero(q_trunc)
    for coeff, b in zip(solution, basis):
        if coeff:
            combo = combo + b * coeff
    residual = witten - combo
    first_mismatch = None
    if residual:
        exp = residual.valuation()
        first_mismatch = (exp, residual.coeff(exp))
    return ModularFit(
        manifold=m.name,
        weight=weight,
        coefficients={mono: c for mono, c in zip(monomials, solution)},
        residual_ok=not residual,
        checked_order=q_trunc,
        first_mismatch=first_mismatch,
    )


class ModularCheck(Record):
    """Numeric verification of Ell1(-1/tau) = (2 tau)^(2m) Ell2(tau)."""

    def __init__(self, manifold: str, tau_im: float, q_trunc: int, tol: float,
                 lhs: complex, rhs: complex, abs_error: float, passed: bool):
        self._set(manifold=manifold, tau_im=tau_im, q_trunc=q_trunc, tol=tol,
                  lhs=lhs, rhs=rhs, abs_error=abs_error, passed=passed)


# A verdict needs the estimated truncation error this many times below tol.
_TAIL_MARGIN = 10.0


def _tail(series: QSeries, q: float) -> float:
    """Estimated truncation error of series.eval_at(q): the stored terms of
    its last two powers of q, continued as a geometric series in q^(1/2)."""
    last = sum(abs(float(c)) * q ** (n / 2) for n, c in series.terms() if n >= series.trunc - 4)
    return last / (1.0 - math.sqrt(q))


def modular_relation_check(
    m: ManifoldData,
    tau_im: float = 1.5,
    q_trunc: int = DEFAULT_Q_TRUNC,
    tol: float = 1e-8,
) -> ModularCheck:
    """Evaluate both sides of the S-transformation at tau = i * tau_im.

    tau_im must exceed 1, and tol must be a finite positive real (a NaN or
    nonpositive tol is a check that can never pass).  The lhs is summed at
    q' = e^(-2 pi / tau_im), which nears 1 as tau_im grows, and the rhs at
    q = e^(-2 pi tau_im).  When the estimated truncation error of the two
    sides (`_tail`, the rhs scaled by |2 tau|^(2m)) is not at least
    _TAIL_MARGIN times below tol, a FAIL would say nothing about the
    relation, so ConvergenceRisk is raised instead.
    """
    if not math.isfinite(tau_im):
        raise DomainError(f"tau_im must be a finite real, got {tau_im!r}")
    if not (math.isfinite(tol) and tol > 0):
        raise DomainError(f"tol must be a finite positive real, got {tol!r}")
    if tau_im <= 1.0:
        raise ConvergenceRisk(
            f"tau_im = {tau_im} must exceed 1 for a trustworthy truncation"
        )
    mm = m.real_dim // 4
    ell1 = elliptic_genus(m, EllKind.ELL1, q_trunc).series
    ell2 = elliptic_genus(m, EllKind.ELL2, q_trunc).series
    q = math.exp(-2.0 * math.pi * tau_im)
    q_prime = math.exp(-2.0 * math.pi / tau_im)
    tau = complex(0.0, tau_im)
    scale = (2.0 * tau) ** (2 * mm)
    lhs = ell1.eval_at(q_prime)
    rhs = scale * ell2.eval_at(q)
    tail = _tail(ell1, q_prime) + abs(scale) * _tail(ell2, q)
    if not tail < tol / _TAIL_MARGIN:  # a NaN estimate is refused too
        raise ConvergenceRisk(
            f"{m.name}: estimated truncation error {tail:.1e} at tau_im = {tau_im} and "
            f"q_trunc = {q_trunc} is not well below tol = {tol:.1e}; keep more terms "
            "or bring tau_im nearer 1"
        )
    abs_error = abs(lhs - rhs)
    return ModularCheck(
        manifold=m.name,
        tau_im=tau_im,
        q_trunc=q_trunc,
        tol=tol,
        lhs=lhs,
        rhs=rhs,
        abs_error=abs_error,
        passed=abs_error < tol,
    )
