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
bracket, and evaluates only the midpoints that fall inside it.  It starts
at the deepest dyadic interval of the first bracket that holds the Illinois
bracket, or two halvings before its stop rule: no halving above evaluates
or stops, so the start keeps every bit.  Both roots depend on (m, b) alone,
so each process finds them once per (m, b) and keeps the last 128 pairs of
roots, about 31 kB at m = 300.  Each input of index_bound_report is checked
once: BoundParams checks every value, and the report then checks only
c_of_b's range on m before it reads the kept bisection root, and the rank
bound's range.
"""

import functools
import math
import sys

from .errors import (DomainError, ExponentDomainError, FloatRangeError, Record, RootNotBracketed,
                     choice, real, shown, whole)

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
_KEPT = 128  # (m, b) pairs whose two roots are kept
_NORMAL_DEPTH = 1022  # halving [0, 1] past this depth leaves widths below 2^-1022
_METHODS = {"bisection": 0, "secant": 1}  # method -> its root's index in _roots(m, b)


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
        m = whole("m", m, 2)
        p = real("p", p)
        half = real("m", m) / 2
        if p <= half:
            raise DomainError(f"p must exceed m/2 = {half}, got {p}")
        Lambda = real("Lambda", Lambda, 0)
        diam, b, cmp = real("diam", diam), real("b", b), real("cmp", cmp)
        l = whole("l", l)
        if m > 2:
            if v is not None and real("v", v) != half:
                raise DomainError(f"v is forced to m/2 = {half} when m > 2, got {v!r}")
            v = half
        else:
            v = (1 + p) / 2 if v is None else real("v", v)
            if not (1 < v < p):
                raise DomainError(f"for m = 2, v must lie in (1, p), got {v}")
        self._set(m=m, p=p, Lambda=Lambda, diam=diam, b=b, cmp=cmp, v=v, l=l)


class IndexBoundReport(Record):
    """The inputs, every intermediate of the Moser-constant composition and
    the rank-scaled dimension and index bounds, in print order."""

    def __init__(self, inputs: BoundParams, mu: float, K1: float, K2: float,
                 c_of_b: float, R: float, B: float, constant: float, dim_bound: float,
                 index_bound: float):
        self._set(inputs=inputs, mu=mu, K1=K1, K2=K2, c_of_b=c_of_b, R=R, B=B,
                  constant=constant, dim_bound=dim_bound, index_bound=index_bound)


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
    cosh, tanh = math.cosh, math.tanh
    scale = tanh(b)
    sums = [0.0] * m
    for j in range(panels):
        centre = (2 * j + 1) * half
        for node, weight in _GAUSS:
            t = centre + half * node
            term = weight * cosh(t) ** n
            ratio = tanh(t) / scale
            row = []  # sums plus this node's terms, built in one pass
            for total in sums:
                row.append(total + term)
                term *= ratio
            sums = row
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
    false-position point; "bisection" (default) halves the bracket.  One
    Illinois search, then bisection's halving of the first bracket replayed
    on it, give both roots: the left side is non-decreasing in binary64, so
    it is evaluated only at midpoints strictly inside the final Illinois
    bracket.  The replay starts at the first halving whose midpoint may fall
    inside, or two before the stop rule, which it checks there: no halving
    above evaluates or stops, so the result keeps the bits of plain halving.
    The two methods agree to a relative 1e-10.  Both roots are kept per
    (m, float(b)), for the last 128 pairs, so a repeated (m, b) with either
    method evaluates nothing.
    """
    whole("m", m, 2, _MAX_M)
    b = real("b", b)
    index = choice("method", method, _METHODS)  # checked before the search runs
    return _roots(m, b)[index]


@functools.lru_cache(maxsize=_KEPT)
def _roots(m, b):
    """The bisection and Illinois roots of c_of_b(m, b): the Illinois
    search, then the halving replayed on its bracket.  A refusal raises and
    is not kept."""
    rhs = _sin_power_integral(m)
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
    root, low, high = _illinois_root(lhs, rhs, lo, hi, glo, ghi)
    steps, lo, hi = _replay_start(lo, hi, low, high)
    # lhs is non-decreasing in binary64 and lhs(low) < rhs <= lhs(high), so
    # a midpoint outside (low, high) goes the way an evaluation would send it
    for _ in range(steps):
        if hi - lo <= _REL_TOL * (hi if hi > 1.0 else 1.0) and hi - lo <= 1e-10 * hi:
            break
        mid = 0.5 * (lo + hi)
        if mid <= low or (mid < high and lhs(mid) < rhs):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi), root


def _replay_start(lo, hi, low, high):
    """The steps left and the bracket at depth t of bisection's halving of
    the first bracket [lo, hi], where the replay of c_of_b starts.

    Above the deepest dyadic interval that holds [low, high] every midpoint
    lies outside (low, high) and is decided without an evaluation; t is
    that depth, or two halvings before the stop rule if less.  The rule
    holds at a depth only if it holds at every deeper one, so where it is
    false at t the halving from [lo, hi] reaches t with these very floats;
    where it holds, the replay starts at [lo, hi].
    """
    width = hi - lo  # a power of two: 1, or 2^(j-1) for [2^(j-1), 2^j]
    if lo:  # the floats of [2^(j-1), 2^j] are multiples of width * 2^-52
        s = 52
    else:  # those of [low, 1] multiples of 2^-s, capped where widths turn
        # subnormal, which also keeps high * 2^s finite
        s = min(53 - math.frexp(low or high)[1], _NORMAL_DEPTH)
    # low and high in units of width * 2^-s, rounded outwards: the dyadic
    # intervals down to depth s that hold [a, z] are those that hold [low, high]
    a = math.floor(math.ldexp((low - lo) / width, s))
    z = math.ceil(math.ldexp((high - lo) / width, s))
    # the stop rule's width at high; the rule first holds at about the
    # depth where the width reaches it, and t stays two halvings above that
    tol = min(_REL_TOL * (high if high > 1.0 else 1.0), 1e-10 * high)
    t = min(s - (a ^ (z - 1)).bit_length(), math.frexp(width)[1] - math.frexp(tol)[1] - 2)
    if t > 0:
        step = math.ldexp(width, -t)
        lo_t = lo + (a >> (s - t)) * step
        hi_t = lo_t + step
        if not (hi_t - lo_t <= _REL_TOL * (hi_t if hi_t > 1.0 else 1.0)
                and hi_t - lo_t <= 1e-10 * hi_t):
            return _MAX_STEPS - t, lo_t, hi_t
    return _MAX_STEPS, lo, hi


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


def index_bound_report(params: BoundParams) -> IndexBoundReport:
    """Full pipeline: Moser constant, then the rank-l dimension bound, then
    |index| <= max(dim ker, dim coker).  Kernel and cokernel bounds coincide
    in this model (same rank, same sup constant), so the index bound is the
    dimension bound itself.  BoundParams has checked every input; the
    composition adds c_of_b's m <= 300, with c_of_b's wording, after the
    exponent checks, and l and l * constant in binary64 at the end.

    Rounding.  Against the same formulas evaluated exactly on the same
    binary64 inputs and root c_of_b, each field's relative error is at most
    the following, to first order in u = 2^-53, with u for each +, -, *, /
    and 2u (one ulp) for each power.  Three condition numbers enter:
    mu - 1 magnifies the error of mu by mu/(mu - 1) = v, so it is off by
    (2v + 1)u, which K1 and K2 inherit; denom = mu*(p-1) - p magnifies the
    4u of its product by at most kappa = (mu*|p-1| + p)/denom, so it is off
    by (4 kappa + 1)u; and a power x^e magnifies the error of its exponent
    by |e ln x| and that of its base by |e|.  The exponents
    eL = (mu-1)/(2 denom), eR = p(mu-1)/denom and eC = 2 K1 p (mu-1)/denom
    are off by (2v + 4 kappa + k)u with k = 3, 4, and by (6v + 4 kappa + 8)u.

      mu 2u;  K1 (4v + 3)u;  K2 (2v + 2)u;  c_of_b 0;  R 2u;
      B  (P/B)(E_L + E_R + 2u) + u, with P = B - 2 and
         E_L = |eL ln Lambda| err(eL) + 2u, E_R = 2u eR + |eR ln R| err(eR) + 2u,
         and 0 when Lambda = 0, where B = 2 exactly;
      constant  E_C = 2u eC + |eC ln mu| err(eC) + 2u
                      + 2 K2 err(B) + |2 K2 ln B| (2v + 2)u + 2u + u;
      dim_bound and index_bound  E_C + 2u (u for float(l), exact to 2^53).

    As denom -> 0, kappa and every exponent grow like 1/denom, so B, the
    constant and the two bounds have no bound; mu, K1, K2 and R keep
    theirs.  c_of_b's documented relative error r <= 1e-10 against the true
    root adds, to first order, r to R, eR (P/B) r to B, and
    2 K2 eR (P/B) r to the constant and the two bounds."""
    if not isinstance(params, BoundParams):
        raise DomainError(f"params must be a BoundParams, got {shown(params)}")
    p, v = params.p, params.v
    mu = v / (v - 1)
    if mu == 1.0:  # v so large that v/(v-1) rounds to 1: K1 and K2 divide by mu - 1
        raise FloatRangeError(f"mu = v/(v-1) rounds to 1 in binary64 (v = {v})")
    K1 = mu / (mu - 1) ** 2
    K2 = 1 / (mu - 1)
    denom = mu * (p - 1) - p
    if denom <= 0:
        raise ExponentDomainError(f"mu*(p-1) - p = {denom} must be positive (mu = {mu}, p = {p})")
    # BoundParams made b a finite positive float, and the method is bisection:
    # of c_of_b's checks only its range on m is left
    cb = _roots(whole("m", params.m, 2, _MAX_M), params.b)[0]
    R = params.diam / (params.b * cb)
    try:
        # Lambda = 0 kills the first term (positive exponent), leaving B = 2
        B = params.cmp * params.Lambda ** (0.5 * (mu - 1) / denom) * R ** (p * (mu - 1) / denom) + 2.0
        constant = mu ** (2 * K1 * p * (mu - 1) / denom) * B ** (2 * K2)
    except OverflowError:
        raise FloatRangeError(f"a power in B or the constant overflows binary64 (mu = {mu}, "
                              f"R = {R})") from None
    # a product or quotient overflows to inf without raising, and 0 * inf is nan
    if not (math.isfinite(R) and math.isfinite(B) and math.isfinite(constant)):
        for name, value in (("R", R), ("B", B), ("the constant", constant)):
            if not math.isfinite(value):
                raise FloatRangeError(f"{name} overflows binary64 to {value} (mu = {mu}, R = {R})")
    # BoundParams made l a positive integer; the constant is at least 1, as
    # mu > 1 and B >= 2 carry positive exponents
    rank = real("rank l", params.l)
    dim_bound = rank * constant
    if dim_bound == math.inf:
        raise FloatRangeError(f"the dimension bound l * L_sup overflows binary64 to inf "
                              f"(l = {rank}, L_sup = {constant})")
    return IndexBoundReport(params, mu, K1, K2, cb, R, B, constant, dim_bound, dim_bound)
