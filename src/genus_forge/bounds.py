"""Explicit analytic constants: the curvature-diameter root c_of_b, the Moser
iteration sup-bound constant, and rank-times-sup dimension bounds composed into
an index bound report.

Unlike the exact-arithmetic modules, everything here is binary64 floating
point; accuracy targets are stated per operation.

The two integrals behind c_of_b need only the standard library.  The right
side, int_0^pi sin^(m-1) t dt, is Wallis's product: an exact rational,
rounded once, times 2 or pi.  The left side,
x * int_0^b (cosh t + x sinh t)^(m-1) dt, is a polynomial in x with m
positive coefficients, so it sums without cancellation.  The coefficients
are integrals over [0, b] of cosh^(m-1) t times powers of tanh t; a 20-point
composite Gauss-Legendre rule, with panels short enough that e^((m-1) t)
grows at most e^6 across one, computes them.  Against high-precision mpmath
values, sampled over m up to 300 and b from 1e-20 to the overflow limit, the
polynomial's relative error stayed below 1e-13.  Each evaluation in the
root search is then one Horner sum, and both methods of c_of_b share one
Illinois search: bisection replays its halving on the final Illinois
bracket, and evaluates only the midpoints that fall inside it.  That search
depends on (m, b) alone, so each process runs it once per (m, b) and keeps
the last 128, about 1.3 MB at m = 300.
"""

from __future__ import annotations

import functools
import math
import sys

from .errors import (DomainError, ExponentDomainError, FloatRangeError, Record, RootNotBracketed,
                     shown, size_of)

# bracket width of the root search: absolute below x = 1, relative above.
# Below 1 the stop rule also asks for the promised 1e-10 relative width.
# The rule spells max(hi, 1) as a conditional: the builtin call cost more
# than the rest of a halving step.
_REL_TOL = 1e-12
# the lhs coefficients cost m work per quadrature node, and for m past about
# 350 the largest of them overflows binary64 for some b below the x = 1 limit
_MAX_M = 300
# root-search steps: bisection from [0, 1] takes about 1,060 to meet the stop
# rule at a root near the binary64 floor (m = 2, b = 709)
_MAX_STEPS = 1200
_SEARCHES = 128  # (m, b) root searches kept; each holds m lhs coefficients


def _is_real(value):
    # bool is an int subclass, but True is no length or exponent
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _as_float(name, value):
    # an int past binary64 would raise a bare OverflowError: refuse it by name
    try:
        return float(value)
    except OverflowError:
        raise DomainError(f"{name} must be finite in binary64, got {size_of(value)}") from None


def _require_positive(name, value):
    if not (_is_real(value) and math.isfinite(_as_float(name, value)) and value > 0):
        raise DomainError(f"{name} must be a finite positive real, got {value!r}")
    return float(value)


class BoundParams(Record):
    """Inputs for the Moser-constant pipeline.

    m       dimension, integer >= 2 (c_of_b caps it at 300)
    p       integral-curvature exponent, real > m/2
    Lambda  normalized curvature integral, real >= 0
    diam    diameter, real > 0
    b       curvature-diameter parameter, real > 0
    cmp     otherwise-unspecified structural constant, real > 0 (explicit
            input on purpose; never chosen silently)
    v       auxiliary exponent; forced to m/2 when m > 2, free in (1, p)
            when m = 2 with default (1+p)/2
    l       bundle rank for the dimension bound, positive integer
    """

    def __init__(self, m: int, p: float, Lambda: float, diam: float, b: float,
                 cmp: float = 1.0, v: float | None = None, l: int = 1):
        if not isinstance(m, int) or isinstance(m, bool) or m < 2:
            raise DomainError(f"m must be an integer >= 2, got {shown(m)}")
        p = _require_positive("p", p)
        half = _as_float("m", m) / 2
        if p <= half:
            raise DomainError(f"p must exceed m/2 = {half}, got {p}")
        if not (_is_real(Lambda) and math.isfinite(_as_float("Lambda", Lambda)) and Lambda >= 0):
            raise DomainError(f"Lambda must be a finite real >= 0, got {Lambda!r}")
        diam = _require_positive("diam", diam)
        b = _require_positive("b", b)
        cmp = _require_positive("cmp", cmp)
        if not isinstance(l, int) or isinstance(l, bool) or l < 1:
            raise DomainError(f"l must be a positive integer, got {shown(l)}")
        if m > 2:
            if v is not None and _as_float("v", v) != half:
                raise DomainError(f"v is forced to m/2 = {half} when m > 2, got {v!r}")
            v = half
        else:
            v = (1 + p) / 2 if v is None else _require_positive("v", v)
            if not (1 < v < p):
                raise DomainError(f"for m = 2, v must lie in (1, p), got {v}")
        self._set(m=m, p=p, Lambda=float(Lambda), diam=diam, b=b, cmp=cmp, v=v, l=l)


class BoundReport(Record):
    """The inputs and every intermediate of the Moser-constant composition,
    in print order."""

    def __init__(self, inputs: BoundParams, mu: float, K1: float, K2: float,
                 c_of_b: float, R: float, B: float, constant: float):
        self._set(inputs=inputs, mu=mu, K1=K1, K2=K2, c_of_b=c_of_b, R=R, B=B,
                  constant=constant)


class IndexBoundReport(BoundReport):
    """BoundReport extended with the rank-scaled dimension and index bounds."""

    def __init__(self, inputs: BoundParams, mu: float, K1: float, K2: float,
                 c_of_b: float, R: float, B: float, constant: float,
                 dim_bound: float = math.nan, index_bound: float = math.nan):
        super().__init__(inputs, mu, K1, K2, c_of_b, R, B, constant)
        self._set(dim_bound=dim_bound, index_bound=index_bound)


def _legendre(n, x):
    # P_n(x) and P_n'(x) by the three-term recurrence
    p0, p1 = 1.0, x
    for k in range(2, n + 1):
        p0, p1 = p1, ((2 * k - 1) * x * p1 - (k - 1) * p0) / k
    return p1, n * (x * p1 - p0) / (x * x - 1.0)


def _gauss_legendre(n):
    """(node, weight) pairs of the n-point Gauss-Legendre rule on [-1, 1]:
    Newton's method on P_n from the usual cosine guesses."""
    rule = []
    for i in range(1, n + 1):
        x = math.cos(math.pi * (i - 0.25) / (n + 0.5))
        for _ in range(50):
            p, dp = _legendre(n, x)
            step = p / dp
            x -= step
            if abs(step) <= 1e-15:
                break
        _, dp = _legendre(n, x)
        rule.append((x, 2.0 / ((1.0 - x * x) * dp * dp)))
    return tuple(rule)


_GAUSS = _gauss_legendre(20)
_PANEL_GROWTH = 6.0  # (m-1) * panel width: e^((m-1) t) grows at most e^6 per panel
_LOG_MAX = math.log(sys.float_info.max)


def _sin_power_integral(m):
    # Wallis: int_0^pi sin^n = (n-1)!!/n!! times 2 for odd n, pi for even n
    n = m - 1
    # int / int rounds the exact ratio correctly, however large the products
    ratio = math.prod(range(n - 1, 0, -2)) / math.prod(range(n, 0, -2))
    return ratio * (2.0 if n % 2 else math.pi)


def _lhs_polynomial(m, b):
    """x -> x * int_0^b (cosh t + x sinh t)^(m-1) dt, strictly increasing in x.

    Expanding the power gives x * sum_k a_k (x tanh b)^k with
    a_k = C(m-1, k) int_0^b cosh^(m-1) t (tanh t / tanh b)^k dt.  Every a_k is
    positive, and the tanh b scaling keeps them inside binary64 when b is
    small and the root large; each call is then one Horner evaluation.
    """
    n = m - 1
    if n * b > _LOG_MAX:
        # the first bracket probe, x = 1, integrates e^((m-1) t), which
        # overflows binary64 before t reaches b
        raise RootNotBracketed(f"integral not finite at x = 1.0 for c_of_b(m={m}, b={b})")
    panels = max(1, math.ceil(n * b / _PANEL_GROWTH))  # (m-1) b / 6 can underflow to 0
    half = 0.5 * b / panels
    scale = math.tanh(b)
    sums = [0.0] * m
    for j in range(panels):
        centre = (2 * j + 1) * half
        for node, weight in _GAUSS:
            t = centre + half * node
            term = weight * math.cosh(t) ** n
            ratio = math.tanh(t) / scale
            for k in range(m):
                sums[k] += term
                term *= ratio
    coeffs = [math.comb(n, k) * half * total for k, total in enumerate(sums)][::-1]

    def lhs(x):
        y = x * scale
        value = 0.0
        for a in coeffs:
            value = value * y + a
        value *= x
        if not math.isfinite(value):
            # (x tanh b)^(m-1) saturates binary64 while the bracket is still growing
            raise RootNotBracketed(f"integral not finite at x = {x} for c_of_b(m={m}, b={b})")
        return value

    return lhs


def c_of_b(m: int, b: float, method: str = "bisection") -> float:
    """Unique positive root x of  x * int_0^b (cosh t + x sinh t)^(m-1) dt
    = int_0^pi sin^(m-1) t dt, to relative accuracy 1e-10, for 2 <= m <= 300.

    Both methods shrink a bracket [lo, hi] around the root until
    hi - lo <= 1e-12 * max(hi, 1) and hi - lo <= 1e-10 * hi, then return its
    midpoint.  method: "secant" moves one end per step to the Illinois
    false-position point; "bisection" (default) halves the bracket.  Both
    run one Illinois search, and bisection then replays its halving from the
    same start: the left side is non-decreasing in binary64, so it is
    evaluated only at midpoints strictly inside the final Illinois bracket,
    and the result keeps the bits of plain halving.  The two methods agree
    to a relative 1e-10.  The search is kept per (m, float(b)), for the last
    128 pairs, so a repeated (m, b) with either method reuses it.
    """
    if not isinstance(m, int) or isinstance(m, bool) or not 2 <= m <= _MAX_M:
        raise DomainError(f"m must be an integer in [2, {_MAX_M}], got {shown(m)}")
    b = _require_positive("b", b)
    if method not in ("bisection", "secant"):
        raise DomainError(f"unknown root-finding method {method!r}")

    lhs, rhs, lo, hi, root, low, high = _search(m, b)
    if method == "secant":
        return root
    # lhs is non-decreasing in binary64 and lhs(low) < rhs <= lhs(high), so
    # a midpoint outside (low, high) goes the way an evaluation would send it
    for _ in range(_MAX_STEPS):
        if hi - lo <= _REL_TOL * (hi if hi > 1.0 else 1.0) and hi - lo <= 1e-10 * hi:
            break
        mid = 0.5 * (lo + hi)
        if mid <= low or (mid < high and lhs(mid) < rhs):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


@functools.lru_cache(maxsize=_SEARCHES)
def _search(m, b):
    """The Illinois search of c_of_b(m, b): the left side, the right side,
    the first bracket, the root and the final bracket.  A refusal raises
    and is not kept."""
    rhs = _sin_power_integral(m)
    try:
        lhs = _lhs_polynomial(m, b)
        # g = lhs - rhs at both ends; lhs(0) is exactly 0
        lo, hi, glo = 0.0, 1.0, -rhs
        for _ in range(80):
            ghi = lhs(hi) - rhs
            if ghi >= 0:
                break
            lo, hi, glo = hi, hi * 2.0, ghi
        else:
            raise RootNotBracketed(f"no bracket for c_of_b(m={m}, b={b}) below x = {hi}")
        return (lhs, rhs, lo, hi, *_illinois_root(lhs, rhs, lo, hi, glo, ghi))
    except OverflowError as exc:
        raise RootNotBracketed(f"overflow while bracketing c_of_b(m={m}, b={b})") from exc


def _illinois_root(lhs, rhs, lo, hi, glo, ghi):
    """Illinois false position for lhs(x) = rhs on [lo, hi], given
    g = lhs - rhs at both ends, glo < 0 <= ghi.

    Returns the root and the final bracket, with lhs(lo) < rhs <= lhs(hi).
    An end kept twice in a row has its g halved, so both ends move and the
    bracket closes.
    """
    kept = 0
    for _ in range(_MAX_STEPS):
        if hi - lo <= _REL_TOL * (hi if hi > 1.0 else 1.0) and hi - lo <= 1e-10 * hi:
            break
        x = lo + (hi - lo) * (glo / (glo - ghi))
        gx = lhs(x) - rhs
        if gx < 0:
            lo, glo = x, gx
            if kept < 0:
                ghi *= 0.5
            kept = -1
        elif gx > 0:
            hi, ghi = x, gx
            if kept > 0:
                glo *= 0.5
            kept = 1
        else:
            return x, lo, x
    return 0.5 * (lo + hi), lo, hi


def moser_constant(params: BoundParams) -> BoundReport:
    """Compose mu, K1, K2, R, B into the explicit sup-bound constant
    mu^(2*K1*p*(mu-1)/(mu*(p-1)-p)) * B^(2*K2)."""
    p, v = params.p, params.v
    mu = v / (v - 1)
    if mu == 1.0:  # v so large that v/(v-1) rounds to 1: K1 and K2 divide by mu - 1
        raise FloatRangeError(f"mu = v/(v-1) rounds to 1 in binary64 (v = {v})")
    K1 = mu / (mu - 1) ** 2
    K2 = 1 / (mu - 1)
    denom = mu * (p - 1) - p
    if denom <= 0:
        raise ExponentDomainError(f"mu*(p-1) - p = {denom} must be positive (mu = {mu}, p = {p})")
    cb = c_of_b(params.m, params.b)
    R = params.diam / (params.b * cb)
    try:
        # Lambda = 0 kills the first term (positive exponent), leaving B = 2
        B = params.cmp * params.Lambda ** (0.5 * (mu - 1) / denom) * R ** (p * (mu - 1) / denom) + 2.0
        constant = mu ** (2 * K1 * p * (mu - 1) / denom) * B ** (2 * K2)
    except OverflowError:
        raise FloatRangeError(f"a power in B or the constant overflows binary64 (mu = {mu}, "
                              f"R = {R})") from None
    # a product or quotient overflows to inf without raising, and 0 * inf is nan
    for name, value in (("R", R), ("B", B), ("the constant", constant)):
        if not math.isfinite(value):
            raise FloatRangeError(f"{name} overflows binary64 to {value} (mu = {mu}, R = {R})")
    return BoundReport(inputs=params, mu=mu, K1=K1, K2=K2, c_of_b=cb, R=R, B=B, constant=constant)


def berard_dim_bound(l: int, L_sup: float) -> float:
    """Dimension bound rank * sup-ratio; L_sup < 1 is impossible for genuine
    sup ratios and is rejected as bad input."""
    if not isinstance(l, int) or isinstance(l, bool) or l < 1:
        raise DomainError(f"rank l must be a positive integer, got {shown(l)}")
    if not (_is_real(L_sup) and math.isfinite(_as_float("L_sup", L_sup)) and L_sup >= 1):
        raise DomainError(f"L_sup must be a finite real >= 1, got {L_sup!r}")
    return _as_float("rank l", l) * float(L_sup)


def index_bound_report(params: BoundParams) -> IndexBoundReport:
    """Full pipeline: Moser constant, then the rank-l dimension bound, then
    |index| <= max(dim ker, dim coker).  Kernel and cokernel bounds coincide
    in this model (same rank, same sup constant), so the index bound is the
    dimension bound itself."""
    rep = moser_constant(params)
    dim_bound = berard_dim_bound(params.l, rep.constant)
    return IndexBoundReport(**vars(rep), dim_bound=dim_bound, index_bound=dim_bound)
