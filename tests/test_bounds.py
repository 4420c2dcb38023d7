"""Floating-point constants: the curvature-diameter root, the Moser
sup-bound composition, and the rank-scaled index bound.

The m = 2 case has a quadratic closed form that pins the integrator and
root search independently, and mpmath roots pin every m up to 12; the
composition is re-derived inline from the c_of_b value so the report fields
are checked against plain arithmetic.
"""

import itertools
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import genus_forge
import genus_forge.bounds as bounds
from genus_forge.bounds import (
    BoundParams,
    IndexBoundReport,
    _lhs_polynomial,
    _sin_power_integral,
    berard_dim_bound,
    c_of_b,
    index_bound_report,
    moser_constant,
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


def test_bisection_matches_halving_oracle_on_grids():
    points = [(m, b) for m in range(2, 13) for b in FLOAT_B + FLOAT_WIDE_B]
    points += [(m, b) for m in BISECTION_BITS for b in (0.05, 0.35, 1.0, 2.0)]
    for m, b in points:
        assert _outcome(c_of_b, m, b) == _outcome(_halving_oracle, m, b), (m, b)


@settings(max_examples=80, deadline=None)
@given(m=st.integers(2, 300), u=st.floats(0.0, 1.0))
def test_bisection_matches_halving_oracle_at_every_scale(m, u):
    # b log-uniform from 1e-25 to just past the overflow limit: roots from
    # beyond the bracket's 2^80 down to about 1e-300, and both refusals
    b = math.exp(math.log(1e-25) + u * math.log(1.02 * LOG_MAX / (m - 1) / 1e-25))
    assert _outcome(c_of_b, m, b) == _outcome(_halving_oracle, m, b)


@pytest.fixture()
def lhs_points(monkeypatch):
    """Every x at which c_of_b evaluates its left side.  Searches built on
    the recording left side leave the cache when the test ends."""
    points = []

    def recorded(m, b):
        lhs = _lhs_polynomial(m, b)

        def wrapped(x):
            points.append(x)
            return lhs(x)

        return wrapped

    monkeypatch.setattr(bounds, "_lhs_polynomial", recorded)
    bounds._search.cache_clear()
    yield points
    bounds._search.cache_clear()


@pytest.mark.parametrize("method, mean_max, worst_max", [("bisection", 12.5, 21),
                                                          ("secant", 12.0, 17)])
def test_c_of_b_left_side_evaluations(lhs_points, method, mean_max, worst_max):
    # on the float grid, plain halving took 41.65 evaluations per call (46 at
    # most) and Illinois 13.55; sharing one search and the bracket ends cut
    # them to about 12.3 and 11.6
    points = lhs_points
    counts = []
    for m in range(2, 13):
        for b in FLOAT_B:
            del points[:]
            bounds._search.cache_clear()  # a kept search would count 0
            c_of_b(m, b, method)
            counts.append(len(points))
    assert sum(counts) / len(counts) <= mean_max
    assert max(counts) <= worst_max


# b given once as an int and once as a float, where it is integral
REPEATS = ((2, (1, 1.0)), (5, (2, 2.0)), (12, (0.35, 0.35)), (300, (1, 1.0)), (300, (1e-3, 1e-3)))


@pytest.mark.parametrize("m, forms", REPEATS)
def test_c_of_b_repeat_reuses_the_search(lhs_points, m, forms):
    points = lhs_points
    cold = {}
    for method in METHODS:
        bounds._search.cache_clear()
        cold[method] = repr(c_of_b(m, forms[0], method))
    for first, again in itertools.product(METHODS, repeat=2):
        for b_first, b_again in (forms, forms[::-1]):
            bounds._search.cache_clear()
            c_of_b(m, b_first, first)
            *_, low, high = bounds._search(m, float(b_again))
            del points[:]
            assert repr(c_of_b(m, b_again, again)) == cold[again]
            if again == "secant":
                assert points == []
            else:  # the halving replay: only midpoints inside the kept bracket
                assert all(low < x < high for x in points), (low, high, points)
    assert bounds._search.cache_info().currsize == 1


def test_c_of_b_refusals_are_not_kept():
    bounds._search.cache_clear()
    for m, b in ((2, 710.0), (12, 70.0), (2, 5e-324)):
        messages = set()
        for method in METHODS * 2:
            with pytest.raises(RootNotBracketed) as info:
                c_of_b(m, b, method)
            messages.add(str(info.value))
        assert len(messages) == 1, messages
    with pytest.raises(DomainError):
        c_of_b(301, 1.0)
    assert bounds._search.cache_info().currsize == 0


def test_c_of_b_search_cache_is_bounded():
    bounds._search.cache_clear()
    assert bounds._search.cache_info().maxsize == bounds._SEARCHES == 128
    # the memory bound of the bounds.py docstring: one search at m = 300
    # holds about 10 kB, so 128 of them about 1.3 MB
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        for j in range(4):
            c_of_b(300, 1e-6 * (j + 1), "secant")
        held = (tracemalloc.get_traced_memory()[0] - base) / 4
    finally:
        tracemalloc.stop()
    assert held * bounds._SEARCHES < 1.4e6, held
    for j in range(bounds._SEARCHES + 4):
        c_of_b(2, 0.01 * (j + 1), "secant")
    info = bounds._search.cache_info()
    assert info.currsize == bounds._SEARCHES, info
    c_of_b(2, 0.01, "secant")  # the oldest pairs were dropped: a new search
    assert bounds._search.cache_info().misses == info.misses + 1
    bounds._search.cache_clear()


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
    with pytest.raises(DomainError, match="^rank l must be finite in binary64"):
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
    with pytest.raises(DomainError, match="^rank l must be a positive integer, got a negative"):
        berard_dim_bound(-vast, 2.0)
    with pytest.raises(DomainError, match="^L_sup must be finite in binary64"):
        berard_dim_bound(1, -vast)


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


def test_cli_import_skips_scipy_and_numpy():
    probe = "import sys, genus_forge.cli; print(sorted({'scipy', 'numpy'} & set(sys.modules)))"
    src = str(Path(genus_forge.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": src}).stdout
    assert out.strip() == "[]"


def test_exponent_sums():
    # K1 = sum i mu^-i and K2 = sum mu^-i, both from i = 1
    for mu in (2.0, 3.0):
        k1 = sum(i * mu**-i for i in range(1, 60))
        k2 = sum(mu**-i for i in range(1, 60))
        assert abs(k1 - mu / (mu - 1.0) ** 2) < 1e-12
        assert abs(k2 - 1.0 / (mu - 1.0)) < 1e-12


def test_moser_composition_against_inline_arithmetic():
    params = BoundParams(m=4, p=5.0, Lambda=1.0, diam=1.0, b=1.0)
    rep = moser_constant(params)
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
    rep = moser_constant(BoundParams(m=4, p=5.0, Lambda=0.0, diam=1.0, b=1.0))
    assert rep.B == 2.0  # the Lambda term vanishes outright
    denom = 2.0 * 4.0 - 5.0
    expected = 2.0 ** (2.0 * 2.0 * 5.0 * 1.0 / denom) * 2.0**2.0
    assert abs(rep.constant - expected) < 1e-12 * expected
    assert abs(rep.R - 2.36986439129686) < 1e-8


def test_moser_monotonicity():
    base = dict(m=4, p=5.0, Lambda=1.0, diam=1.0, b=1.0)
    ref = moser_constant(BoundParams(**base)).constant
    assert moser_constant(BoundParams(**{**base, "diam": 2.0})).constant > ref
    assert moser_constant(BoundParams(**{**base, "Lambda": 4.0})).constant > ref
    assert moser_constant(BoundParams(**{**base, "cmp": 3.0})).constant > ref


def test_berard_dim_bound():
    assert berard_dim_bound(2, 3.5) == 7.0
    assert berard_dim_bound(1, 1.0) == 1.0
    with pytest.raises(DomainError):
        berard_dim_bound(0, 2.0)
    with pytest.raises(DomainError):
        berard_dim_bound(True, 2.0)
    with pytest.raises(DomainError):
        berard_dim_bound(1, 0.99)
    with pytest.raises(DomainError):
        berard_dim_bound(1, math.inf)
    with pytest.raises(DomainError):
        berard_dim_bound(1, True)


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
        moser_constant(bad)


def test_index_bound_report_extremes_raise_only_typed_errors():
    # Binary64 limits raise FloatRangeError: m = 2 with p = 1e17 rounds
    # v/(v-1) to 1, b = 700 overflows R^(p(mu-1)/denom), diam = 1e308
    # overflows R, and 0 * inf makes B or the constant nan.  c_of_b refuses
    # b = 1e-300 and b = 700 with RootNotBracketed before any of that.
    grid = itertools.product((2, 4), (5.0, 151.0, 1e17, 1e308), (0.0, 1.0, 1e308),
                             (1e-300, 1.0, 1e308), (1e-300, 1.0, 700.0), (1e-300, 1.0, 1e308))
    out_of_range = 0
    for m, p, lam, diam, b, cmp in grid:
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
