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

from .elliptic import DEFAULT_Q_TRUNC, EllKind, _divisor_sum, elliptic_genus
from .errors import ConvergenceRisk, FitError, FloatRangeError, Record, choice, real
from .manifolds import ManifoldData, _check_manifolds
from .qseries import QSeries


def eisenstein(kind: str, q_trunc: int) -> QSeries:
    """E4 = 1 + 240 sum sigma_3(n) q^n or E6 = 1 - 504 sum sigma_5(n) q^n, exact."""
    scale, power = choice("kind", kind, {"E4": (240, 3), "E6": (-504, 5)})
    return 1 + _divisor_sum(2, 1, power, q_trunc) * scale


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
    _check_manifolds(m)
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

    combo = QSeries({}, q_trunc)
    for coeff, b in zip(solution, basis):
        if coeff:
            combo = combo + b * coeff
    residual = witten - combo
    first_mismatch = next(residual.terms(), None)
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


_UNIT = 2.0 ** -53  # unit roundoff of binary64


def _gamma(k: int) -> float:
    """Higham's gamma_k = k u / (1 - k u), which bounds k roundings."""
    return k * _UNIT / (1.0 - k * _UNIT)


def _rounding(series: QSeries, q: float, scaled: int = 0) -> float:
    """Bound on the rounding error of series.eval_at(q) times a factor that
    carries `scaled` roundings of its own, where q = e^x is x = -2 pi tau_im
    or -2 pi / tau_im rounded, then exponentiated and rounded.

    Term n is float(c) times the n-th power of sqrt(q): the rounding of the
    root raised to the n-th power, at most n - 1 products for the power, the
    conversion and the product make 2n + 1 roundings, and the recursive sum
    of N terms adds N - 1 (Higham, Accuracy and Stability of Numerical
    Algorithms, 2002, sections 3.1 and 4.2), so with the factor's roundings
    gamma_(N + 2n + scaled) of its size.
    x is off by gamma_2 |x| (pi and one product or quotient) and e^x by one
    more rounding, so q^(n/2) is off by a factor of at most
    e^((n/2) (gamma_2 |x| + gamma_1)).
    """
    size, root = sum(1 for _ in series.terms()), math.sqrt(q)
    # q = 0 (tau_im past about 118): only the q^0 term is left, and q^0 is exact
    point = _gamma(2) * -math.log(q) + _gamma(1) if q else 0.0
    bound = 0.0
    for n, c in series.terms():
        term, off = _gamma(size + 2 * n + scaled), math.expm1(n / 2 * point)
        bound += (term + (1.0 + term) * off) * abs(float(c)) * root ** n
    return bound


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
    relation, so ConvergenceRisk is raised instead.  The same holds for the
    bound on the rounding error of the two sums (`_rounding`, with the error
    of |2 tau|^(2m)): large sides, as for CP16 at tau_im = 3, can differ by
    more than tol from rounding alone.
    """
    _check_manifolds(m)
    tau_im, tol = real("tau_im", tau_im, -math.inf), real("tol", tol)
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
    try:
        scale = (2.0 * tau) ** (2 * mm)
    except OverflowError:
        raise FloatRangeError(f"{m.name}: the scale (2 tau)^{2 * mm} overflows binary64 at "
                              f"tau_im = {tau_im}; bring tau_im nearer 1") from None
    lhs = ell1.eval_at(q_prime)
    rhs = scale * ell2.eval_at(q)
    tail = _tail(ell1, q_prime) + abs(scale) * _tail(ell2, q)
    if not tail < tol / _TAIL_MARGIN:  # a NaN estimate is refused too
        raise ConvergenceRisk(
            f"{m.name}: estimated truncation error {tail:.1e} at tau_im = {tau_im} and "
            f"q_trunc = {q_trunc} is not well below tol = {tol:.1e}; keep more terms "
            "or bring tau_im nearer 1"
        )
    # (2 tau)^(2m) multiplies 2m factors of the exact 2 tau, and scaling the
    # sum rounds once more: 2m roundings
    rounding = _rounding(ell1, q_prime) + abs(scale) * _rounding(ell2, q, 2 * mm)
    if not rounding < tol / _TAIL_MARGIN:
        raise ConvergenceRisk(
            f"{m.name}: the sums' rounding error may reach {rounding:.1e} at tau_im = "
            f"{tau_im} and q_trunc = {q_trunc}, not well below tol = {tol:.1e}; "
            "raise tol or bring tau_im nearer 1"
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
