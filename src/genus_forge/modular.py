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

import math
from fractions import Fraction

from .elliptic import DEFAULT_Q_TRUNC, _divisor_sum, elliptic_genus
from .errors import (ConvergenceRisk, DivergentEvaluation, FitError, FloatRangeError, Record,
                     choice, real)
from .manifolds import ManifoldData, _check_manifolds, _check_real_dim
from .qseries import QSeries


def eisenstein(kind: str, q_trunc: int) -> QSeries:
    """E4 = 1 + 240 sum sigma_3(n) q^n or E6 = 1 - 504 sum sigma_5(n) q^n, exact."""
    scale, power = choice("kind", kind, {"E4": (240, 3), "E6": (-504, 5)})
    return QSeries({0: 1}, q_trunc) + _divisor_sum(2, 1, power, q_trunc) * scale


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


def _powers(base: QSeries, top: int) -> list[QSeries]:
    """base^0 .. base^top, one product each."""
    out = [QSeries({0: 1}, base.trunc)]
    for _ in range(top):
        out.append(out[-1] * base)
    return out


def witten_fit(m: ManifoldData, q_trunc: int = DEFAULT_Q_TRUNC) -> ModularFit:
    """Fit the Witten genus of a 4m-manifold against E4^i E6^j, 4i+6j=2m."""
    _check_manifolds(m)
    _check_real_dim(m.real_dim, m.name)  # an asserted-only entry skips the cap
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
    witten = elliptic_genus(m, "witten", q_trunc).series
    # the square system takes q^0 .. q^(n-1), and the residual starts at q^n
    n = len(monomials)
    if (q_trunc - 1) // 2 < n:
        raise FitError(
            f"{m.name}: q_trunc {q_trunc} stops below q^{n}, so no coefficient is left "
            f"to check the fit to monomials {monomials}"
        )
    e4s = _powers(eisenstein("E4", q_trunc), weight // 4)
    e6s = _powers(eisenstein("E6", q_trunc), weight // 6)
    basis = [e4s[i] * e6s[j] for i, j in monomials]
    solution = _solve_square(
        [[b.coeff(2 * r) for b in basis] + [witten.coeff(2 * r)] for r in range(n)]
    )

    residual = witten
    for coeff, b in zip(solution, basis):
        if coeff:
            residual = residual + b * -coeff
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
_UNIT = 2.0 ** -53  # unit roundoff of binary64


def _gamma(k: int) -> float:
    """Higham's gamma_k = k u / (1 - k u), which bounds k roundings."""
    return k * _UNIT / (1.0 - k * _UNIT)


def _evaluate(series: QSeries, q: float, scaled: int = 0) -> tuple[complex, float, float]:
    """The truncated series summed at q in [0, 1), its estimated truncation
    error, and a bound on the rounding error of the sum times a factor that
    carries `scaled` roundings of its own, where q = e^x is x = -2 pi tau_im
    or -2 pi / tau_im rounded, then exponentiated and rounded.

    The sum runs from the top key down over c_n s^n, c_n = nums[n] / den
    rounded once and s the principal complex root of q; FloatRangeError
    refuses a c_n past binary64.  The truncation error is the stored terms
    of the last two powers of q, continued as a geometric series in q^(1/2).

    Term n is c_n times s^n: the rounding of the root raised to the n-th
    power, at most n - 1 products for the power, the conversion and the
    product make 2n + 1 roundings, and the recursive sum of the N nonzero
    terms adds N - 1 (Higham, Accuracy and Stability of Numerical
    Algorithms, 2002, sections 3.1 and 4.2), so with the factor's roundings
    gamma_(N + 2n + scaled) of its size.  CPython forms s^n by repeated
    products only up to n = 100; past it, for real s, s^n is the C
    library's pow of the root, one rounding, well inside the n - 1 counted.
    x is off by gamma_2 |x| (pi and one product or quotient) and e^x by one
    more rounding, so q^(n/2) is off by a factor of at most
    e^((n/2) (gamma_2 |x| + gamma_1)).
    """
    import cmath  # local: keeps cmath out of every process but `modular check`

    nums, den, trunc = series.nums, series.den, series.trunc
    s, value = cmath.sqrt(complex(q)), 0j
    try:
        for n in range(trunc - 1, -1, -1):
            if nums[n]:
                value += nums[n] / den * s**n
    except OverflowError:  # nums[n] / den alone can raise: |s| < 1
        raise FloatRangeError(f"the coefficient at half-exponent {n} lies past binary64; "
                              "the series cannot be evaluated in floats") from None
    keys = [n for n in range(trunc) if nums[n]]
    size, root = len(keys), math.sqrt(q)
    # the last two powers of q hold at most the last four keys
    tail = sum(abs(nums[n] / den) * q ** (n / 2) for n in keys[-4:] if n >= trunc - 4)
    # q = 0 (tau_im past about 118): only the q^0 term is left, and q^0 is exact
    point = _gamma(2) * -math.log(q) + _gamma(1) if q else 0.0
    rounding = 0.0
    for n in keys:
        term, off = _gamma(size + 2 * n + scaled), math.expm1(n / 2 * point)
        rounding += (term + (1.0 + term) * off) * abs(nums[n] / den) * root ** n
    return value, tail / (1.0 - root), rounding


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
    q = e^(-2 pi tau_im); a q' that rounds to 1 raises DivergentEvaluation.
    When the estimated truncation error of the two sides (`_evaluate`, the
    rhs scaled by |2 tau|^(2m)) is not at least _TAIL_MARGIN times below
    tol, a FAIL would say nothing about the relation, so ConvergenceRisk is
    raised instead.  The same holds for the bound on the rounding error of
    the two sums (with the error of |2 tau|^(2m)): large sides, as for CP16
    at tau_im = 3, can differ by more than tol from rounding alone.
    """
    _check_manifolds(m)
    tau_im, tol = real("tau_im", tau_im, -math.inf), real("tol", tol)
    if tau_im <= 1.0:
        raise ConvergenceRisk(
            f"tau_im = {tau_im} must exceed 1 for a trustworthy truncation"
        )
    mm = m.real_dim // 4
    ell1 = elliptic_genus(m, "ell1", q_trunc).series
    ell2 = elliptic_genus(m, "ell2", q_trunc).series
    q = math.exp(-2.0 * math.pi * tau_im)
    q_prime = math.exp(-2.0 * math.pi / tau_im)
    tau = complex(0.0, tau_im)
    try:
        scale = (2.0 * tau) ** (2 * mm)
    except OverflowError:
        raise FloatRangeError(f"{m.name}: the scale (2 tau)^{2 * mm} overflows binary64 at "
                              f"tau_im = {tau_im}; bring tau_im nearer 1") from None
    if q_prime == 1.0:
        raise DivergentEvaluation(f"{m.name}: q' = e^(-2 pi / tau_im) rounds to 1 at "
                                  f"tau_im = {tau_im}; bring tau_im nearer 1")
    # (2 tau)^(2m) multiplies 2m factors of the exact 2 tau, and scaling the
    # sum rounds once more: 2m roundings
    lhs, lhs_tail, lhs_rounding = _evaluate(ell1, q_prime)
    rhs, rhs_tail, rhs_rounding = _evaluate(ell2, q, 2 * mm)
    rhs, tail = scale * rhs, lhs_tail + abs(scale) * rhs_tail
    if not tail < tol / _TAIL_MARGIN:  # a NaN estimate is refused too
        raise ConvergenceRisk(
            f"{m.name}: estimated truncation error {tail:.1e} at tau_im = {tau_im} and "
            f"q_trunc = {q_trunc} is not well below tol = {tol:.1e}; keep more terms "
            "or bring tau_im nearer 1"
        )
    rounding = lhs_rounding + abs(scale) * rhs_rounding
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
