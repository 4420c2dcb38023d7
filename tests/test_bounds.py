"""Floating-point constants: the curvature-diameter root, the Moser
sup-bound composition, and the rank-scaled index bound.

The m = 2 case has a quadratic closed form that pins the integrator and
root search independently, and mpmath roots pin every m up to 12; the
composition is re-derived inline from the c_of_b value so the report fields
are checked against plain arithmetic.
"""

import hashlib
import itertools
import math
import sys
import tracemalloc

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import genus_forge.bounds as bounds
from genus_forge.bounds import (
    BoundParams,
    IndexBoundReport,
    _lhs_polynomial,
    _sin_power_integral,
    c_of_b,
    index_bound_report,
)
from genus_forge.errors import (
    DomainError,
    ExponentDomainError,
    FloatRangeError,
    RootNotBracketed,
)

METHODS = ("bisection", "secant")


def _c_of_b_m2_exact(b: float) -> float:
    # x^2 (cosh b - 1) + x sinh b - 2 = 0, positive root
    # 4 / (sinh b + sqrt(sinh^2 b + 8 (cosh b - 1))), with cosh b - 1 =
    # 2 sinh^2(b/2) so that nothing cancels, for b from 1e-6 to 700
    sh = math.sinh(b)
    return 4.0 / (sh + math.hypot(sh, 4.0 * math.sinh(0.5 * b)))


def test_c_of_b_matches_m2_closed_form():
    for b in (0.5, 1.0, 2.0, 5.0):
        got = c_of_b(2, b)
        exact = _c_of_b_m2_exact(b)
        assert abs(got - exact) <= 1e-10 * exact


def test_c_of_b_goldens():
    assert abs(c_of_b(2, 1.0) - 1.1210593734163012) < 1e-10
    assert abs(c_of_b(4, 1.0) - 0.42196507263133753) < 1e-10


# bisection outputs of the scipy.integrate.quad implementation this module
# replaced; the quadrature and the stop rule changed, the bisection path's
# bits did not.  (8, 2.0) and (12, 2.0) were recorded under an absolute stop
# width that missed the 1e-10 contract for small roots; mpmath checks them
# in test_c_of_b_small_roots_match_mpmath instead (None here).
BISECTION_BITS = {
    2: ("24.715330210405227", "3.489657598337544", "1.1210593734163012", "0.4182274787594906"),
    3: ("15.744332993555872", "2.195707606734686", "0.6395053554037986", "0.1566686817363916"),
    5: ("9.413066212702688", "1.2803659748292375", "0.29735884997671747", "0.02020975310324502"),
    8: ("6.05145351959618", "0.7927267947320615", "0.12000896589552212", None),
    12: ("4.191936529214217", "0.5219670643286918", "0.03605082488093103", None),
}


@pytest.mark.parametrize("m", sorted(BISECTION_BITS))
def test_c_of_b_bisection_bits(m):
    for b, bits in zip((0.05, 0.35, 1.0, 2.0), BISECTION_BITS[m]):
        if bits is not None:
            assert repr(c_of_b(m, b)) == bits, b


def _halving_oracle(m, b):
    """c_of_b's bisection as plain halving, every midpoint evaluated: the
    reference that the replay on the Illinois bracket must match bit for bit."""
    rhs = _sin_power_integral(m)
    try:
        lhs = _lhs_polynomial(m, b)
        lo, hi = 0.0, 1.0
        for _ in range(80):
            if lhs(hi) >= rhs:
                break
            lo, hi = hi, hi * 2.0
        else:
            raise RootNotBracketed(f"no bracket below x = {hi}")
        for _ in range(1200):
            if hi - lo <= 1e-12 * max(hi, 1.0) and hi - lo <= 1e-10 * hi:
                break
            mid = 0.5 * (lo + hi)
            if lhs(mid) < rhs:
                lo = mid
            else:
                hi = mid
        return 0.5 * (lo + hi)
    except OverflowError as exc:
        raise RootNotBracketed("overflow while bracketing") from exc


def _outcome(f, m, b):
    try:
        return repr(f(m, b))
    except RootNotBracketed:
        return RootNotBracketed


# the b grids of the benchmark's float and float-wide workloads
FLOAT_B = tuple(round(0.05 * j, 2) for j in range(1, 21))
FLOAT_WIDE_B = tuple(round(0.05 + 0.55 * j, 2) for j in range(10))
# (m - 1) b past this overflows e^((m-1) b), and c_of_b refuses
LOG_MAX = math.log(sys.float_info.max)


# (m, b) that reach each branch of where the bisection replay starts
# (bounds._replay_start), with the property that puts them there: roots above
# 1, whose first bracket is [2^(j-1), 2^j]; Illinois brackets one ulp wide;
# roots below 2^-10, where [0, 1] needs more than 52 bits of position; and
# roots near 1e-300, where those bits reach the normal-float cap
START_POINTS = {
    "above 1": (((2, 1e-7), (2, 1e-16), (5, 1e-10), (300, 1e-6)),
                lambda root, low, high: low > 1.0),
    "one ulp": (((3, 1e-20), (12, 1e-3), (7, 1e-5), (300, 2.37)),
                lambda root, low, high: high == math.nextafter(low, math.inf)),
    "below 2^-10": (((2, 10.0), (4, 30.0), (12, 2.0), (2, 46.0)),
                    lambda root, low, high: root < 2.0**-10),
    "near 1e-300": (((2, 690.0), (2, 709.0), (16, 47.0), (9, 86.5)),
                    lambda root, low, high: 1e-310 < root < 1e-290),
}


def test_bisection_matches_halving_oracle_on_grids(replay_starts):
    points = [(m, b) for m in range(2, 13) for b in FLOAT_B + FLOAT_WIDE_B]
    points += [(m, b) for m in BISECTION_BITS for b in (0.05, 0.35, 1.0, 2.0)]
    for group, (start_points, holds) in START_POINTS.items():
        for m, b in start_points:
            del replay_starts[:]
            root = c_of_b(m, b, "secant")
            [((_, _, low, high), _, _)] = replay_starts
            assert holds(root, low, high), (group, m, b)
        points += start_points
    for m, b in points:
        assert _outcome(c_of_b, m, b) == _outcome(_halving_oracle, m, b), (m, b)


@settings(max_examples=80, deadline=None)
@given(m=st.integers(2, 300), u=st.floats(0.0, 1.0))
def test_bisection_matches_halving_oracle_at_every_scale(m, u):
    # b log-uniform from 1e-25 to just past the overflow limit: roots from
    # beyond the bracket's 2^80 down to about 1e-300, and both refusals
    b = math.exp(math.log(1e-25) + u * math.log(1.02 * LOG_MAX / (m - 1) / 1e-25))
    assert _outcome(c_of_b, m, b) == _outcome(_halving_oracle, m, b)


def _replay(lo, hi, low, high, root, steps=1200):
    """c_of_b's bisection loop on [lo, hi], with a left side that steps from
    below to above the right side at root, low < root <= high."""
    for _ in range(steps):
        if hi - lo <= 1e-12 * max(hi, 1.0) and hi - lo <= 1e-10 * hi:
            break
        mid = 0.5 * (lo + hi)
        if mid <= low or (mid < high and mid < root):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


@st.composite
def _brackets(draw):
    """A first bracket, [0, 1] or [2^(j-1), 2^j], and an Illinois bracket
    [low, high] inside it: anywhere, one ulp to 2^40 ulps wide, or at a
    relative width near the stop rule's."""
    j = draw(st.integers(0, 80))
    lo, hi = (0.0, 1.0) if j == 0 else (2.0 ** (j - 1), 2.0**j)
    if j:
        low = draw(st.floats(lo, hi, exclude_max=True))
    else:
        low = draw(st.just(0.0) | st.floats(0.0, 1.0, exclude_max=True)
                   | st.builds(math.ldexp, st.floats(0.5, 1.0), st.integers(-1074, 0)))
    base = low or math.ldexp(1.0, draw(st.integers(-1074, 0)))
    high = draw(st.builds(lambda k: base + k * math.ulp(base), st.integers(1, 2**40))
                | st.builds(lambda r: base * (1.0 + r), st.floats(1e-14, 1e-9))
                | st.just(hi))
    high = min(max(high, math.nextafter(low, math.inf)), hi)
    root = draw(st.sampled_from((math.nextafter(low, math.inf), high, 0.5 * (low + high))))
    return lo, hi, low, high, max(root, math.nextafter(low, math.inf))


@settings(max_examples=400, deadline=None)
@given(_brackets())
# a wide bracket from a tiny low: its position must stay finite
@example((0.0, 1.0, 1e-310, 1.0, 1.0))
def test_replay_start_keeps_every_bit(bracket):
    # starting at _replay_start's depth gives the bits of halving from the
    # first bracket, for any Illinois bracket inside it, not only c_of_b's
    lo, hi, low, high, root = bracket
    steps, lo_t, hi_t = bounds._replay_start(lo, hi, low, high)
    assert _replay(lo_t, hi_t, low, high, root, steps) == _replay(lo, hi, low, high, root)


@pytest.mark.parametrize("bracket, depth", [
    # the deepest dyadic interval that holds [low, high]
    ((0.0, 1.0, 0.25, 0.5), 2),
    ((4.0, 8.0, 5.0, 6.0), 2),
    ((0.0, 1.0, 0.375, 0.375 + 2.0**-30), 30),
    # one ulp wide: two halvings before the stop rule first holds, at 40
    ((1.0, 2.0, 1.5, math.nextafter(1.5, 2.0)), 38),
    # near 1e-300 the rule first holds near depth 1030: the start stops at
    # 1022, the last depth whose width is a normal float
    ((0.0, 1.0, 1e-300, 1e-300 * (1.0 + 1e-12)), 1022),
])
def test_replay_start_depth(bracket, depth):
    lo, hi, low, high = bracket
    steps, lo_t, hi_t = bounds._replay_start(*bracket)
    assert steps == bounds._MAX_STEPS - depth
    assert lo_t <= low < high <= hi_t and hi_t - lo_t == (hi - lo) * 2.0**-depth


def test_replay_skips_the_decided_halvings(replay_starts):
    # on the float grid the replay starts about 37 halvings deep, two or
    # three before its stop rule; every call walked all of them before
    for m in range(2, 13):
        for b in FLOAT_B:
            c_of_b(m, b)
    depths = [bounds._MAX_STEPS - steps for _, (steps, _, _), _ in replay_starts]
    assert len(depths) == 11 * len(FLOAT_B)
    assert sum(depths) / len(depths) >= 35


def _pinned_lines():
    """Every float the digest below pins: both methods of c_of_b over the
    benchmark's float and float-wide grids, and the left side itself at
    fixed x, up to m = 300."""
    for m in range(2, 13):
        for b in FLOAT_B + FLOAT_WIDE_B:
            for method in METHODS:
                value = _outcome(lambda m, b: c_of_b(m, b, method), m, b)
                yield f"c_of_b {m} {b!r} {method} {value}"
    for m in (*range(2, 13), 50, 100, 300):
        for b in (1e-6, 0.05, 0.35, 1.0, 2.0):
            lhs = _lhs_polynomial(m, b)
            for x in (1e-3, 0.3, 1.0, 3.0):
                yield f"lhs {m} {b!r} {x!r} {_lhs_or_inf(lhs, x)!r}"


# the SHA-256 of _pinned_lines() at the commit before the bisection replay
# started at its first undecided halving and the quadrature built rows in
# one pass: 940 values, every bit of each
PINNED_DIGEST = "3ec458e59239511bc2f4ab788ec0b5084be548b4493e3a376f09bfc18fc5e182"


def test_c_of_b_and_left_side_bits_are_pinned():
    digest = hashlib.sha256("\n".join(_pinned_lines()).encode()).hexdigest()
    assert digest == PINNED_DIGEST


def _forget_searches():
    # the kept pairs of bisection and Illinois roots
    bounds._roots.cache_clear()


@pytest.fixture()
def lhs_points(monkeypatch):
    """Every x at which c_of_b evaluates its left side.  Searches built on
    the recording left side leave the caches when the test ends."""
    points = []

    def recorded(m, b):
        lhs = _lhs_polynomial(m, b)

        def wrapped(x):
            points.append(x)
            return lhs(x)

        return wrapped

    monkeypatch.setattr(bounds, "_lhs_polynomial", recorded)
    _forget_searches()
    yield points
    _forget_searches()


@pytest.fixture()
def replay_starts(monkeypatch, lhs_points):
    """Every start of the halving replay, in call order: the first and the
    Illinois bracket (lo, hi, low, high) that _replay_start was given, the
    (steps, lo_t, hi_t) it returned, and the number of left-side
    evaluations made before it."""
    starts = []
    original = bounds._replay_start

    def spy(lo, hi, low, high):
        start = original(lo, hi, low, high)
        starts.append(((lo, hi, low, high), start, len(lhs_points)))
        return start

    monkeypatch.setattr(bounds, "_replay_start", spy)
    return starts


@pytest.mark.parametrize("method, mean_max, worst_max", [("bisection", 12.5, 21),
                                                          ("secant", 12.0, 17)])
def test_c_of_b_left_side_evaluations(lhs_points, replay_starts, method, mean_max, worst_max):
    # on the float grid, plain halving took 41.65 evaluations per call (46 at
    # most) and Illinois 13.55.  The Illinois search that gives the secant
    # root takes about 11.6 (17 at most); the halving replayed on its bracket
    # brings the bisection root to about 12.3 (21 at most).  A cold call
    # computes both roots, so it costs the same with either method
    points = lhs_points
    counts = []
    for m in range(2, 13):
        for b in FLOAT_B:
            cold = []
            for each in METHODS:
                del points[:], replay_starts[:]
                _forget_searches()  # a kept pair of roots would count 0
                c_of_b(m, b, each)
                [(_, _, searched)] = replay_starts
                cold.append((len(points), searched))
            assert cold[0] == cold[1], (m, b, cold)
            total, searched = cold[0]
            counts.append(total if method == "bisection" else searched)
    assert sum(counts) / len(counts) <= mean_max
    assert max(counts) <= worst_max


# b given once as an int and once as a float, where it is integral
REPEATS = ((2, (1, 1.0)), (5, (2, 2.0)), (12, (0.35, 0.35)), (300, (1, 1.0)), (300, (1e-3, 1e-3)))


@pytest.mark.parametrize("m, forms", REPEATS)
def test_c_of_b_repeat_reuses_the_search(lhs_points, replay_starts, m, forms):
    points = lhs_points
    cold = {}
    for method in METHODS:
        _forget_searches()
        cold[method] = repr(c_of_b(m, forms[0], method))
    for first, again in itertools.product(METHODS, repeat=2):
        for b_first, b_again in (forms, forms[::-1]):
            _forget_searches()
            del points[:], replay_starts[:]
            assert repr(c_of_b(m, b_first, first)) == cold[first]
            # the halving replay evaluates only midpoints inside the bracket
            [((_, _, low, high), _, searched)] = replay_starts
            assert all(low < x < high for x in points[searched:]), (low, high, points)
            # a repeated call evaluates nothing, with either method and form
            del points[:]
            assert repr(c_of_b(m, b_again, again)) == cold[again]
            assert repr(c_of_b(m, b_first, again)) == cold[again]
            assert points == [] and len(replay_starts) == 1
            assert bounds._roots.cache_info().currsize == 1


def test_c_of_b_refusals_are_not_kept():
    _forget_searches()
    for m, b in ((2, 710.0), (12, 70.0), (2, 5e-324)):
        messages = set()
        for method in METHODS * 2:
            with pytest.raises(RootNotBracketed) as info:
                c_of_b(m, b, method)
            messages.add(str(info.value))
        assert len(messages) == 1, messages
    with pytest.raises(DomainError):
        c_of_b(301, 1.0)
    assert bounds._roots.cache_info().currsize == 0


def test_c_of_b_search_cache_is_bounded():
    _forget_searches()
    assert bounds._roots.cache_info().maxsize == bounds._KEPT == 128
    # the memory bound of the bounds.py docstring: a kept pair of roots
    # holds no left side.  The first 4 at m = 300, with the cache's own
    # growth, take under 1 kB each, so 128 of them stay under 0.2 MB
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        for j in range(4):
            for method in METHODS:
                c_of_b(300, 1e-6 * (j + 1), method)
        held = (tracemalloc.get_traced_memory()[0] - base) / 4
    finally:
        tracemalloc.stop()
    assert held * bounds._KEPT < 2e5, held
    _forget_searches()
    for j in range(bounds._KEPT + 4):
        for method in METHODS:
            c_of_b(2, 0.01 * (j + 1), method)
    info = bounds._roots.cache_info()
    assert info.currsize == bounds._KEPT, info
    assert info.hits == bounds._KEPT + 4, info  # each secant call found its pair
    c_of_b(2, 0.01)  # the oldest pairs were dropped: a new search
    assert bounds._roots.cache_info().misses == info.misses + 1
    _forget_searches()


def test_huge_integers_are_refused_by_name():
    # float(10**400) overflows: each field is refused as bad input, by name
    huge = 10**400
    for b in (huge, -huge):
        with pytest.raises(DomainError, match="^b must be finite in binary64"):
            c_of_b(2, b)
    good = dict(p=5.0, Lambda=1.0, diam=1.0, b=1.0)
    for m in (2, 4):
        for name in ("p", "Lambda", "diam", "b", "cmp", "v"):
            with pytest.raises(DomainError, match=f"^{name} must be finite in binary64"):
                BoundParams(**{**good, "m": m, name: huge})
    with pytest.raises(DomainError, match="^m must be finite in binary64"):
        BoundParams(**{**good, "m": huge})
    with pytest.raises(DomainError, match="^rank l must be finite in binary64, got an integer "
                                          "of 1329 bits$"):
        index_bound_report(BoundParams(**{**good, "m": 4, "l": huge}))
    # past str()'s 4,300-digit limit a message that formats the value raises
    # ValueError itself, so the value is shown by its size
    vast = 10**5000
    with pytest.raises(DomainError, match=r"^m must be an integer in \[2, 300\], got an "
                                          "integer of 16610 bits$"):
        c_of_b(vast, 1.0)
    for name in ("m", "l"):
        with pytest.raises(DomainError, match=f"^{name} must be .*, got a negative integer of "
                                              "16610 bits$"):
            BoundParams(**{**good, "m": 4, name: -vast})


def _lhs_or_inf(lhs, x):
    try:
        return lhs(x)
    except RootNotBracketed:  # the sum left binary64
        return math.inf


@settings(max_examples=60, deadline=None)
@given(m=st.integers(2, 300), u=st.floats(0.0, 1.0),
       xs=st.lists(st.floats(0.0, 1e6), min_size=2, max_size=2))
def test_lhs_polynomial_non_decreasing(m, u, xs):
    # the premise of the bisection replay: Horner with positive coefficients
    # at x >= 0 never decreases in binary64
    b = math.exp(math.log(1e-20) + u * math.log(0.999 * LOG_MAX / (m - 1) / 1e-20))
    lhs = _lhs_polynomial(m, b)
    x1, x2 = sorted(xs)
    for lo, hi in ((x1, x2), (x1, math.nextafter(x1, math.inf))):
        assert _lhs_or_inf(lhs, lo) <= _lhs_or_inf(lhs, hi), (lo, hi)


# secant outputs before the bracketing loop handed its end values to the
# Illinois search, which then stopped evaluating them again
SECANT_BITS = {(2, 0.05): "24.71533021040227", (3, 0.35): "2.195707606735025",
               (5, 1.0): "0.2973588499770279", (12, 0.05): "4.191936529213304",
               (100, 0.1): "0.30340673713236554", (300, 2.3): "4.70619215504552e-209"}


def test_c_of_b_secant_bits():
    for (m, b), bits in SECANT_BITS.items():
        assert repr(c_of_b(m, b, "secant")) == bits, (m, b)


@settings(max_examples=60, deadline=None)
@given(log_b=st.floats(math.log(1e-6), math.log(700.0)), method=st.sampled_from(METHODS))
def test_c_of_b_m2_matches_closed_form_at_every_scale(log_b, method):
    # b log-uniform: the root runs from about 1e6 down to about 1e-304
    b = math.exp(log_b)
    exact = _c_of_b_m2_exact(b)
    assert abs(c_of_b(2, b, method) - exact) <= 1e-10 * exact


def test_sin_power_integral_wallis():
    assert _sin_power_integral(2) == 2.0
    assert _sin_power_integral(3) == math.pi / 2
    assert _sin_power_integral(4) == 4 / 3
    assert _sin_power_integral(5) == 3 * math.pi / 8


def _mpmath_g(mp, m, b):
    """x -> left side minus right side at mpmath's working precision."""
    rhs = mp.sqrt(mp.pi) * mp.gamma(mp.mpf(m) / 2) / mp.gamma(mp.mpf(m + 1) / 2)
    return lambda x: x * mp.quad(lambda t: (mp.cosh(t) + x * mp.sinh(t)) ** (m - 1), [0, b]) - rhs


def _mpmath_root(m, b):
    mp = pytest.importorskip("mpmath")
    with mp.workdps(25):
        g = _mpmath_g(mp, m, b)
        # bracket the root first, so that a root of 1e-20 is found as well as one of 10
        lo, hi = mp.mpf(1), mp.mpf(1)
        while g(lo) > 0:
            lo /= 16
        while g(hi) < 0:
            hi *= 2
        return float(mp.findroot(g, (lo, hi), solver="anderson", tol=mp.mpf(10) ** -50))


def test_c_of_b_secant_matches_mpmath():
    for m in range(2, 13):
        ref = _mpmath_root(m, 1.0)
        assert abs(c_of_b(m, 1.0, "secant") - ref) <= 1e-10 * ref, m


def test_c_of_b_large_m_matches_mpmath():
    # at m = 300, b = 1e-6 the top coefficient of the unscaled polynomial in x,
    # about b^300 / 300, is far below the binary64 range
    for m, b in ((50, 0.1), (300, 1e-6)):
        ref = _mpmath_root(m, b)
        assert abs(c_of_b(m, b) - ref) <= 1e-10 * ref, m


@pytest.mark.parametrize("m, b", [(8, 2.0), (12, 2.0), (8, 5.0), (12, 5.0)])
def test_c_of_b_small_roots_match_mpmath(m, b):
    # roots from 6e-4 down to 2e-20: below x = 1 a 1e-12 bracket width alone
    # is not a relative accuracy
    ref = _mpmath_root(m, b)
    for method in METHODS:
        assert abs(c_of_b(m, b, method) - ref) <= 1e-10 * ref, method


def test_c_of_b_root_far_below_1e100_is_bracketed():
    # m = 300, b = 2.3: the root is about 4.7e-209; the exact left side minus
    # the right changes sign within 1e-10 of the returned value
    mp = pytest.importorskip("mpmath")
    with mp.workdps(30):
        g = _mpmath_g(mp, 300, 2.3)
        for method in METHODS:
            x = mp.mpf(c_of_b(300, 2.3, method))
            assert g(x * (1 - mp.mpf("1e-10"))) < 0 < g(x * (1 + mp.mpf("1e-10"))), method


def test_secant_agrees_with_bisection():
    # at m = 100 the left side is strongly convex, and secant steps from the
    # bracket ends stall far below the root near 0.303 unless the bracket is kept
    for m, b in ((2, 1.0), (4, 1.0), (5, 2.5), (3, 0.7), (100, 0.1)):
        bisection = c_of_b(m, b, "bisection")
        assert abs(c_of_b(m, b, "secant") - bisection) <= 1e-10 * bisection, m


def test_c_of_b_monotone_decreasing_in_b():
    assert c_of_b(3, 20.0) < c_of_b(3, 1.0) < c_of_b(3, 0.05)


def test_c_of_b_validation():
    with pytest.raises(DomainError):
        c_of_b(1, 1.0)
    with pytest.raises(DomainError):
        c_of_b(2.5, 1.0)
    with pytest.raises(DomainError):
        c_of_b(True, 1.0)
    with pytest.raises(DomainError):
        c_of_b(2, 0.0)
    with pytest.raises(DomainError):
        c_of_b(2, True)
    with pytest.raises(DomainError):
        c_of_b(2, 1.0, method="newton")
    with pytest.raises(DomainError):
        c_of_b(301, 1e-3)


def test_c_of_b_overflow_reports_bracketing_failure():
    # e^((m-1) b) overflows binary64 past (m-1) b ~ 709.8
    for m, b in ((2, 710.0), (12, 70.0)):
        with pytest.raises(RootNotBracketed):
            c_of_b(m, b)


def test_c_of_b_subnormal_b_refuses():
    # (m-1) b / 6 underflows to 0 here: the rule still takes one panel, and
    # the root lies past the bracket's reach
    for b in (5e-324, 1e-323):
        for method in ("bisection", "secant"):
            with pytest.raises(RootNotBracketed):
                c_of_b(2, b, method=method)


def test_exponent_sums():
    # K1 = sum i mu^-i and K2 = sum mu^-i, both from i = 1
    for mu in (2.0, 3.0):
        k1 = sum(i * mu**-i for i in range(1, 60))
        k2 = sum(mu**-i for i in range(1, 60))
        assert abs(k1 - mu / (mu - 1.0) ** 2) < 1e-12
        assert abs(k2 - 1.0 / (mu - 1.0)) < 1e-12


def test_moser_composition_against_inline_arithmetic():
    params = BoundParams(m=4, p=5.0, Lambda=1.0, diam=1.0, b=1.0)
    rep = index_bound_report(params)
    assert rep.mu == 2.0 and rep.K1 == 2.0 and rep.K2 == 1.0  # v = m/2 = 2
    cb = c_of_b(4, 1.0)
    r = 1.0 / (1.0 * cb)
    denom = rep.mu * (5.0 - 1.0) - 5.0
    bb = 1.0 * 1.0 ** (0.5 * 1.0 / denom) * r ** (5.0 * 1.0 / denom) + 2.0
    const = rep.mu ** (2.0 * rep.K1 * 5.0 * 1.0 / denom) * bb ** (2.0 * rep.K2)
    assert abs(rep.R - r) < 1e-12 * r
    assert abs(rep.B - bb) < 1e-12 * bb
    assert abs(rep.constant - const) < 1e-10 * const
    # frozen regression anchors
    assert abs(rep.constant - 3921.0142231130576) < 1e-6
    assert rep.inputs is params


def test_moser_lambda_zero_closed_form():
    rep = index_bound_report(BoundParams(m=4, p=5.0, Lambda=0.0, diam=1.0, b=1.0))
    assert rep.B == 2.0  # the Lambda term vanishes outright
    denom = 2.0 * 4.0 - 5.0
    expected = 2.0 ** (2.0 * 2.0 * 5.0 * 1.0 / denom) * 2.0**2.0
    assert abs(rep.constant - expected) < 1e-12 * expected
    assert abs(rep.R - 2.36986439129686) < 1e-8


def test_moser_monotonicity():
    base = dict(m=4, p=5.0, Lambda=1.0, diam=1.0, b=1.0)
    ref = index_bound_report(BoundParams(**base)).constant
    assert index_bound_report(BoundParams(**{**base, "diam": 2.0})).constant > ref
    assert index_bound_report(BoundParams(**{**base, "Lambda": 4.0})).constant > ref
    assert index_bound_report(BoundParams(**{**base, "cmp": 3.0})).constant > ref


def test_index_bound_report_rank_bound_range():
    # the rank bound is float(l) * constant, refused when the product leaves
    # binary64 (l itself: test_huge_integers_are_refused_by_name); the
    # constant here is 4 * 2^(20/3), about 406
    params = dict(m=4, p=5.0, Lambda=0.0, diam=1.0, b=1.0)
    constant = index_bound_report(BoundParams(**params)).constant
    rep = index_bound_report(BoundParams(**params, l=10**305))
    assert rep.dim_bound == rep.index_bound == 1e305 * constant
    with pytest.raises(FloatRangeError) as info:
        index_bound_report(BoundParams(**params, l=10**308))
    assert str(info.value) == ("the dimension bound l * L_sup overflows binary64 to inf "
                               f"(l = 1e+308, L_sup = {constant})")


def test_index_bound_report_composition():
    params = BoundParams(m=4, p=5.0, Lambda=1.0, diam=1.0, b=1.0, l=3)
    rep = index_bound_report(params)
    assert isinstance(rep, IndexBoundReport)
    assert rep.dim_bound == 3.0 * rep.constant
    assert rep.index_bound == rep.dim_bound
    assert rep.inputs.l == 3
    # doubling the diameter strictly raises the bound when Lambda > 0
    bigger = index_bound_report(BoundParams(m=4, p=5.0, Lambda=1.0, diam=2.0, b=1.0, l=3))
    assert bigger.index_bound > rep.index_bound


# the index-bound jobs of the benchmark's float workload: (m, p, Lambda, diam, b)
IBR_GRID = [(m, m / 2 + dp, lam, diam, b) for m in (2, 3, 4, 6, 8) for dp in (0.5, 2.0)
            for lam in (0.0, 1.0) for diam in (1.0, 3.0) for b in (0.5, 1.0, 2.0)]


def test_index_bound_report_extends_the_moser_report():
    # cold or warm, the report's first eight fields are the Moser report's,
    # bit for bit and the same at every rank, and its bounds are the rank
    # times the constant
    assert len(IBR_GRID) == 120
    _forget_searches()
    for m, p, lam, diam, b in IBR_GRID:
        moser = set()
        for l in (1, 7):
            params = BoundParams(m=m, p=p, Lambda=lam, diam=diam, b=b, l=l)
            rep = index_bound_report(params)
            fields = list(map(repr, vars(rep).values()))
            moser.add(tuple(fields[1:8]))
            assert fields == list(map(repr, vars(index_bound_report(params)).values()))
            assert rep.dim_bound == rep.index_bound == l * rep.constant
            assert list(vars(rep)) == ["inputs", "mu", "K1", "K2", "c_of_b", "R", "B",
                                       "constant", "dim_bound", "index_bound"]
        assert len(moser) == 1


def _report_lines():
    """Every field of the report over the float workload's index-bound grid,
    each at rank 1 and 7: a "moser" line of its first eight fields, the
    Moser constant's report, then an "index" line of all ten."""
    for m, p, lam, diam, b in IBR_GRID:
        for l in (1, 7):
            params = BoundParams(m=m, p=p, Lambda=lam, diam=diam, b=b, l=l)
            items = list(vars(index_bound_report(params)).items())
            for name, fields in (("moser", items[:8]), ("index", items)):
                yield name + " " + " ".join(f"{k}={v!r}" for k, v in fields)


# the SHA-256 of _report_lines() at the commit before _compose read the kept
# bisection root directly: 480 reports, every bit of each field
REPORT_DIGEST = "46967dc4822785215d8a753d171c695d5be5bbb377cfb7dc086a1cf407c30f4a"


def test_bound_report_bits_are_pinned():
    digest = hashlib.sha256("\n".join(_report_lines()).encode()).hexdigest()
    assert digest == REPORT_DIGEST


def test_index_bound_report_refuses_m_past_300_as_c_of_b_does():
    # BoundParams takes any m >= 2; the composition owes c_of_b's cap
    params = BoundParams(m=301, p=151.0, Lambda=1.0, diam=1.0, b=1.0)
    with pytest.raises(DomainError) as direct:
        c_of_b(301, 1.0)
    with pytest.raises(DomainError) as composed:
        index_bound_report(params)
    assert str(composed.value) == str(direct.value) == \
        "m must be an integer in [2, 300], got 301"


def test_params_validation():
    good = dict(m=4, p=5.0, Lambda=1.0, diam=1.0, b=1.0)
    BoundParams(**good)
    for bad in (
        {**good, "m": 1},
        {**good, "m": 4.0},
        {**good, "m": True},
        {**good, "p": 2.0},       # p must exceed m/2
        {**good, "p": -1.0},
        {**good, "Lambda": -0.5},
        {**good, "Lambda": math.nan},
        {**good, "diam": 0.0},
        {**good, "b": -1.0},
        {**good, "b": True},
        {**good, "diam": True},
        {**good, "Lambda": False},
        {**good, "cmp": True},
        {**good, "cmp": 0.0},
        {**good, "l": 0},
        {**good, "l": True},
        {**good, "v": 3.0},       # m > 2 forces v = m/2 = 2
    ):
        with pytest.raises(DomainError):
            BoundParams(**bad)
    # explicit matching v is allowed for m > 2
    assert BoundParams(**{**good, "v": 2.0}).v == 2.0


def test_params_v_rules_m2():
    assert BoundParams(m=2, p=3.0, Lambda=0.0, diam=1.0, b=1.0).v == 2.0
    assert BoundParams(m=2, p=3.0, Lambda=0.0, diam=1.0, b=1.0, v=1.5).v == 1.5
    for v in (1.0, 3.0, 4.0, 0.5):
        with pytest.raises(DomainError):
            BoundParams(m=2, p=3.0, Lambda=0.0, diam=1.0, b=1.0, v=v)


def test_exponent_domain_guard():
    # unreachable through validated params; injected state exercises the guard
    bad = object.__new__(BoundParams)
    for key, value in dict(
        m=4, p=2.0, Lambda=1.0, diam=1.0, b=1.0, cmp=1.0, v=1000.0, l=1
    ).items():
        object.__setattr__(bad, key, value)
    with pytest.raises(ExponentDomainError):
        index_bound_report(bad)


# (m, p, Lambda, diam, b, cmp) at the limits of binary64: 648 points
EXTREMES = list(itertools.product((2, 4), (5.0, 151.0, 1e17, 1e308), (0.0, 1.0, 1e308),
                                  (1e-300, 1.0, 1e308), (1e-300, 1.0, 700.0),
                                  (1e-300, 1.0, 1e308)))


def test_index_bound_report_extremes_raise_only_typed_errors():
    # Binary64 limits raise FloatRangeError: m = 2 with p = 1e17 rounds
    # v/(v-1) to 1, b = 700 overflows R^(p(mu-1)/denom), diam = 1e308
    # overflows R, and 0 * inf makes B or the constant nan.  c_of_b refuses
    # b = 1e-300 and b = 700 with RootNotBracketed before any of that.
    out_of_range = 0
    for m, p, lam, diam, b, cmp in EXTREMES:
        params = BoundParams(m=m, p=p, Lambda=lam, diam=diam, b=b, cmp=cmp)
        try:
            rep = index_bound_report(params)
        except FloatRangeError:
            out_of_range += 1
            continue
        except RootNotBracketed:
            continue
        assert math.isfinite(rep.index_bound), params
    assert out_of_range == 293


def _stated_error(rep):
    """The relative error of each field that index_bound_report's docstring
    states, in units of u = 2^-53, with its condition numbers evaluated on
    the report."""
    p, v, lam = rep.inputs.p, rep.inputs.v, rep.inputs.Lambda
    mu, K1, K2, R, B = rep.mu, rep.K1, rep.K2, rep.R, rep.B
    denom = mu * (p - 1) - p
    kappa = (mu * abs(p - 1) + p) / denom
    e_L, e_R, e_C = 0.5 * (mu - 1) / denom, p * (mu - 1) / denom, 2 * K1 * p * (mu - 1) / denom
    err_L, err_R = 2 * v + 4 * kappa + 3, 2 * v + 4 * kappa + 4
    err_C = 6 * v + 4 * kappa + 8
    if lam:
        E_L = abs(e_L * math.log(lam)) * err_L + 2
        E_R = 2 * e_R + abs(e_R * math.log(R)) * err_R + 2
        err_B = (B - 2.0) / B * (E_L + E_R + 2) + 1
    else:
        err_B = 0.0
    E_C = (2 * e_C + abs(e_C * math.log(mu)) * err_C + 2
           + 2 * K2 * err_B + abs(2 * K2 * math.log(B)) * (2 * v + 2) + 2 + 1)
    return dict(mu=2, K1=4 * v + 3, K2=2 * v + 2, c_of_b=0, R=2, B=err_B, constant=E_C,
                dim_bound=E_C + 2, index_bound=E_C + 2)


def _observed_error(rep):
    """The relative error of each field against mpmath at 50 digits, from
    the same binary64 inputs and root."""
    mp = pytest.importorskip("mpmath")
    i = rep.inputs
    with mp.workdps(50):
        f = mp.mpf
        p, v = f(i.p), f(i.v)
        mu = v / (v - 1)
        K1, K2, denom = mu / (mu - 1) ** 2, 1 / (mu - 1), mu * (p - 1) - p
        R = f(i.diam) / (f(i.b) * f(rep.c_of_b))
        B = f(i.cmp) * f(i.Lambda) ** ((mu - 1) / (2 * denom)) * R ** (p * (mu - 1) / denom) + 2
        constant = mu ** (2 * K1 * p * (mu - 1) / denom) * B ** (2 * K2)
        exact = dict(mu=mu, K1=K1, K2=K2, c_of_b=f(rep.c_of_b), R=R, B=B, constant=constant,
                     dim_bound=i.l * constant, index_bound=i.l * constant)
        return {name: float(abs(f(getattr(rep, name)) - x) / x) for name, x in exact.items()}


def test_report_rounding_stays_within_its_stated_bound():
    # the float workload's grid at rank 1 and 7, and every finite report of
    # the extremes grid; the largest observed/stated ratio was 0.48 (R)
    reports = [index_bound_report(BoundParams(m=m, p=p, Lambda=lam, diam=diam, b=b, l=l))
               for m, p, lam, diam, b in IBR_GRID for l in (1, 7)]
    for m, p, lam, diam, b, cmp in EXTREMES:
        try:
            reports.append(index_bound_report(
                BoundParams(m=m, p=p, Lambda=lam, diam=diam, b=b, cmp=cmp)))
        except (FloatRangeError, RootNotBracketed):
            pass
    assert len(reports) == 240 + 85
    u = 2.0 ** -53
    for rep in reports:
        stated = _stated_error(rep)
        for name, observed in _observed_error(rep).items():
            assert observed <= stated[name] * u, (name, observed / u, stated[name], rep.inputs)
