"""Eisenstein series, Witten-genus fits, and the numeric S-transformation check.

The fit expresses a Witten-genus q-expansion of a 4m-manifold in the
weight-2m monomials E4^i E6^j (4i + 6j = 2m), solving the leading
coefficients exactly and then checking every remaining coefficient up
to the truncation.  A failed residual is a meaningful outcome (it is
how non-string manifolds announce themselves), so it is reported on the
result rather than raised.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction

from .elliptic import EllKind, divisor_sum, elliptic_genus
from .errors import ConvergenceRisk, FitError
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


@dataclass(frozen=True)
class ModularFit:
    """Result of expressing a Witten genus in E4^i E6^j monomials."""

    manifold: str
    weight: int
    coefficients: dict[tuple[int, int], Fraction]
    residual_ok: bool
    checked_order: int  # half-exponent truncation the residual was checked to
    first_mismatch: tuple[int, Fraction] | None = None  # (half-exponent, residual)


def _solve_exact(rows: list[list[Fraction]], n: int) -> list[Fraction] | None:
    """Solve for n unknowns from rows of length n+1 (augmented), exactly.

    Returns None while the rows seen so far are rank-deficient; raises
    FitError if they are inconsistent (cannot happen for a true modular
    form, but the residual path feeds arbitrary series through here).
    """
    echelon: list[list[Fraction]] = []
    pivots: list[int] = []
    for row in rows:
        row = list(row)
        for prow, pcol in zip(echelon, pivots):
            if row[pcol]:
                factor = row[pcol] / prow[pcol]
                row = [a - factor * b for a, b in zip(row, prow)]
        pcol = next((i for i in range(n) if row[i]), None)
        if pcol is None:
            continue
        echelon.append(row)
        pivots.append(pcol)
        if len(pivots) == n:
            break
    if len(pivots) < n:
        return None
    solution = [Fraction(0)] * n
    for prow, pcol in sorted(zip(echelon, pivots), key=lambda t: -t[1]):
        acc = prow[n]
        for i in range(pcol + 1, n):
            acc -= prow[i] * solution[i]
        solution[pcol] = acc / prow[pcol]
    return solution


def witten_fit(m: ManifoldData, q_trunc: int = 49) -> ModularFit:
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
    e4 = eisenstein("E4", q_trunc)
    e6 = eisenstein("E6", q_trunc)
    basis = [e4**i * e6**j for i, j in monomials]

    n = len(monomials)
    max_power = (q_trunc - 1) // 2
    rows = [
        [b.coeff(2 * r) for b in basis] + [witten.coeff(2 * r)]
        for r in range(max_power + 1)
    ]
    solution = _solve_exact(rows, n)
    if solution is None:
        raise FitError(
            f"{m.name}: leading system is rank-deficient for monomials {monomials}"
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


@dataclass(frozen=True)
class ModularCheck:
    """Numeric verification of Ell1(-1/tau) = (2 tau)^(2m) Ell2(tau)."""

    manifold: str
    tau_im: float
    q_trunc: int
    tol: float
    lhs: complex
    rhs: complex
    abs_error: float
    passed: bool


def modular_relation_check(
    m: ManifoldData,
    tau_im: float = 1.5,
    q_trunc: int = 48,
    tol: float = 1e-8,
) -> ModularCheck:
    """Evaluate both sides of the S-transformation at tau = i * tau_im.

    tau_im must exceed 1 so that both q = e^(-2 pi tau_im) and
    q' = e^(-2 pi / tau_im) are small enough for the truncated series.
    """
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
    lhs = ell1.eval_at(q_prime)
    rhs = (2.0 * tau) ** (2 * mm) * ell2.eval_at(q)
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
