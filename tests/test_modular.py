"""Eisenstein expansions, exact Witten-genus fits, and the numeric check
of the S-transformation between the two level-2 genera, with the float sum
of a q-series that it makes."""

import math
import signal
from fractions import Fraction

import pytest

from genus_forge.catalog import resolve
from genus_forge.elliptic import elliptic_genus
from genus_forge.errors import (ConvergenceRisk, DataError, DivergentEvaluation, FitError,
                                FloatRangeError)
from genus_forge.manifolds import ManifoldData, cp, k3, hp2, product, torus
from genus_forge.modular import _evaluate, eisenstein, modular_relation_check, witten_fit
from genus_forge.qseries import QSeries


def test_eisenstein_goldens():
    e4 = eisenstein("E4", 9)
    # 1 + 240 sum sigma_3(n) q^n
    assert dict(e4.terms()) == {
        0: Fraction(1), 2: Fraction(240), 4: Fraction(2160),
        6: Fraction(6720), 8: Fraction(17520),
    }
    e6 = eisenstein("E6", 9)
    assert dict(e6.terms()) == {
        0: Fraction(1), 2: Fraction(-504), 4: Fraction(-16632),
        6: Fraction(-122976), 8: Fraction(-532728),
    }
    assert e4.integer_powers_only() and e6.integer_powers_only()


def test_eisenstein_validation():
    with pytest.raises(ValueError):
        eisenstein("E8", 9)
    with pytest.raises(ValueError):
        eisenstein("e4", 9)


def test_eisenstein_product():
    # weight-10 form E4 E6 opens with -264 q
    e10 = eisenstein("E4", 9) * eisenstein("E6", 9)
    assert e10.coeff(0) == 1 and e10.coeff(2) == -264


# manifold, q_trunc, weight, coefficients, first mismatch; the CP cases hold
# a monomial with both E4 and E6, powers above 2 and a basis of three
_NON_STRING_FITS = [
    (product(k3(), k3()), 17, 4, {(1, 0): Fraction(4)}, (2, Fraction(-1152))),
    (cp(10), 9, 10, {(1, 1): Fraction(-63, 262144)}, (2, Fraction(-847, 16384))),
    (cp(12), 13, 12, {(0, 2): Fraction(623, 25165824), (3, 0): Fraction(763, 25165824)},
     (4, Fraction(-708617, 65536))),
    (cp(24), 13, 24, {(0, 4): Fraction(1073621315, 1641562064176545792),
                      (3, 2): Fraction(5973644365, 820781032088272896),
                      (6, 0): Fraction(2749727747, 1641562064176545792)},
     (6, Fraction(-21075803125, 68719476736))),
]


def test_fit_detects_non_string_manifold():
    for m, q_trunc, weight, coefficients, first_mismatch in _NON_STRING_FITS:
        fit = witten_fit(m, q_trunc)
        assert fit.weight == weight, m.name
        assert fit.coefficients == coefficients, m.name
        assert not fit.residual_ok
        assert fit.first_mismatch == first_mismatch, m.name
        assert fit.checked_order == q_trunc


def test_fit_checks_at_least_one_coefficient():
    # one monomial (E4) is solved from q^0: q_trunc 3 holds q^1 and finds the
    # mismatch, while q_trunc 2 would check nothing and is refused
    k3k3 = product(k3(), k3())
    fit = witten_fit(k3k3, 3)
    assert not fit.residual_ok and fit.first_mismatch == (2, Fraction(-1152))
    with pytest.raises(FitError, match="no coefficient is left"):
        witten_fit(k3k3, 2)


def test_fit_exact_for_modular_input():
    # p2 pairing -1440 makes the Witten expansion exactly E4
    x8 = ManifoldData(name="X8", real_dim=8, spin=True, string=True,
                      pontryagin_numbers={(2,): -1440})
    fit = witten_fit(x8, 17)
    assert fit.coefficients == {(1, 0): Fraction(1)}
    assert fit.residual_ok and fit.first_mismatch is None


def test_fit_zero_series():
    fit = witten_fit(torus(8), 17)
    assert fit.coefficients == {(1, 0): Fraction(0)}
    assert fit.residual_ok


def test_fit_rejects_empty_monomial_basis():
    # weight 2 has no E4^i E6^j representation
    with pytest.raises(FitError):
        witten_fit(k3(), 17)


def test_fit_refuses_a_dimension_past_the_cap_at_once():
    # asserted genera alone skip ManifoldData's cap, and the E4^i E6^j search
    # over weight/4 x weight/6 pairs would never end at this dimension
    big = ManifoldData("BIG", 10**12, spin=True, asserted_genera={"ahat": "0"})

    def hung(signum, frame):
        raise TimeoutError("witten_fit ran past 1 s")

    old = signal.signal(signal.SIGALRM, hung)
    signal.setitimer(signal.ITIMER_REAL, 1.0)
    try:
        with pytest.raises(DataError, match="^BIG: real dimension 1000000000000 exceeds the cap"):
            witten_fit(big)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)


def _tail(series, q):
    return _evaluate(series, q)[1]


def _rounding(series, q, scaled=0):
    return _evaluate(series, q, scaled)[2]


def test_evaluate():
    geom = QSeries({2 * n: 1 for n in range(20)}, 40)
    val = _evaluate(geom, 0.1)[0]
    assert abs(val - 1 / 0.9) < 1e-15
    half = QSeries({1: 1}, 4)
    assert abs(_evaluate(half, 0.25)[0] - 0.5) < 1e-15


def test_evaluate_refuses_a_coefficient_past_binary64():
    for series, n in ((QSeries({0: 10**400}, 3), 0),
                      (QSeries({0: 1, 3: Fraction(-(10**400), 3)}, 5), 3)):
        with pytest.raises(FloatRangeError, match=rf"^the coefficient at half-exponent {n} "
                                                  "lies past binary64; the series cannot "
                                                  "be evaluated in floats$"):
            _evaluate(series, 0.1)
    # the largest coefficients that convert keep their bits
    assert _evaluate(QSeries({0: 10**308}, 3), 0.1)[0] == complex(1e308)
    assert _evaluate(QSeries({2: Fraction(-(10**308), 7)}, 3), 0.25)[0] == (
        -(10**308 / 7) * 0.25)


def test_tail_window_is_the_last_two_powers():
    # the tail reads the half-exponents trunc - 4 .. trunc - 1, the last two powers of q
    trunc, q = 21, 0.25
    window = {trunc - 4: Fraction(3), trunc - 1: Fraction(1)}
    assert _tail(QSeries({**window, trunc - 5: Fraction(7)}, trunc), q) == _tail(
        QSeries(window, trunc), q)
    assert _tail(QSeries({trunc - 1: Fraction(1)}, trunc), q) != _tail(
        QSeries(window, trunc), q)


def test_modular_relation_passes():
    for entry, tau_im in ((k3(), 1.5), (k3(), 2.0), (hp2(), 1.5)):
        chk = modular_relation_check(entry, tau_im=tau_im)
        assert chk.passed and chk.abs_error < 1e-10
        assert chk.manifold == entry.name and chk.tau_im == tau_im


def test_modular_relation_relative_sides():
    chk = modular_relation_check(hp2(), tau_im=2.0)
    # both sides are genuinely nonzero; the agreement is not 0 == 0
    assert abs(chk.lhs) > 1e-6
    assert chk.abs_error < 1e-10 * abs(chk.lhs) + 1e-12


def test_modular_relation_refuses_small_tau():
    with pytest.raises(ConvergenceRisk):
        modular_relation_check(k3(), tau_im=1.0)
    with pytest.raises(ConvergenceRisk):
        modular_relation_check(k3(), tau_im=0.5)


@pytest.mark.parametrize("name", ["HP2", "K3", "HP2xHP2", "K3xK3"])
def test_modular_relation_never_fails_from_truncation(name):
    # the relation holds for every manifold, so a FAIL could only come from
    # the truncated series: each check either passes or is refused
    entry = resolve(name)
    for order in (4, 12, 16, 24):
        for tau_im in (1.01, 1.5, 2.0, 3.0, 5.0, 6.0, 10.0):
            try:
                chk = modular_relation_check(entry, tau_im=tau_im, q_trunc=2 * order + 1)
            except ConvergenceRisk:
                # the CLI's sweep and its default order are not refused
                assert order < 16 or tau_im > 2.0, (order, tau_im)
            else:
                assert chk.passed, (order, tau_im, chk.abs_error)


def test_modular_relation_refuses_large_tau():
    for tau_im in (10.0, 50.0, 1e15):
        with pytest.raises(ConvergenceRisk, match="truncation error"):
            modular_relation_check(hp2(), tau_im=tau_im)
    # a looser tol leaves room for the same truncation
    assert modular_relation_check(hp2(), tau_im=10.0, tol=10.0).passed


@pytest.mark.parametrize("name, tau_im", [("HP2", 2.0), ("K3xK3", 1.5), ("CP12", 3.0),
                                          ("CP16", 1.5), ("CP16", 3.0)])
def test_rounding_bound_holds_against_exact_sums(name, tau_im):
    _check_rounding_bound(name, tau_im, 81)


@pytest.mark.parametrize("name, tau_im", [("HP2", 1.5), ("K3", 1.2)])
def test_rounding_bound_holds_past_key_100(name, tau_im):
    # past key 100, s**n is one pow of the root, not repeated products
    _check_rounding_bound(name, tau_im, 201)


def _check_rounding_bound(name, tau_im, trunc):
    # each computed side against its sum at the exact point, to 40 digits
    mp = pytest.importorskip("mpmath")
    entry = resolve(name)
    chk = modular_relation_check(entry, tau_im=tau_im, q_trunc=trunc, tol=1.0)
    ell1 = elliptic_genus(entry, "ell1", trunc).series
    ell2 = elliptic_genus(entry, "ell2", trunc).series
    mm = entry.real_dim // 4
    with mp.workdps(40):
        tau = mp.mpf(tau_im)
        exact_lhs = sum(mp.mpf(c.numerator) / c.denominator * mp.exp(-mp.pi * n / tau)
                        for n, c in ell1.terms())
        exact_rhs = (2 * tau) ** (2 * mm) * (-1) ** mm * sum(
            mp.mpf(c.numerator) / c.denominator * mp.exp(-mp.pi * n * tau)
            for n, c in ell2.terms())
        lhs_error = float(abs(mp.mpc(chk.lhs) - exact_lhs))
        rhs_error = float(abs(mp.mpc(chk.rhs) - exact_rhs))
    assert lhs_error <= _rounding(ell1, math.exp(-2.0 * math.pi / tau_im))
    assert rhs_error <= (2 * tau_im) ** (2 * mm) * _rounding(
        ell2, math.exp(-2.0 * math.pi * tau_im), 2 * mm)


def test_rounding_guard_refuses_a_verdict_it_cannot_give():
    # CP16's sides are about 8.5e6 at tau_im = 3: their rounding error may
    # reach 2e-7, so a gap of 2.4e-8 against tol 1e-8 would be a false FAIL
    with pytest.raises(ConvergenceRisk, match="rounding error may reach 2.0e-07"):
        modular_relation_check(resolve("CP16"), tau_im=3.0, q_trunc=81)
    # a verdict needs the bound ten times below tol
    with pytest.raises(ConvergenceRisk, match="rounding error"):
        modular_relation_check(resolve("CP16"), tau_im=3.0, q_trunc=81, tol=1e-6)
    assert modular_relation_check(resolve("CP16"), tau_im=3.0, q_trunc=81, tol=1e-5).passed
    # past tau_im = 118, q = e^(-2 pi tau_im) underflows to 0
    assert modular_relation_check(hp2(), tau_im=200.0, tol=1e300).passed


@pytest.mark.parametrize("name, tau_im, trunc, lhs, rhs, abs_error", [
    # keys past 100, where CPython forms s**n with its general complex power
    ("HP2", 1.5, 201, "(0.7816184075575963+0j)", "(0.7816184075575964+0j)",
     "1.1102230246251565e-16"),
    ("K3", 1.2, 201, "(-18.05458745824891+0j)", "(-18.054587458248914+0j)",
     "3.552713678800501e-15"),
    ("K3xK3", 1.5, 49, "(480.3504875283419+0j)", "(480.3504875283417+0j)",
     "1.7053025658242404e-13"),
    ("CP16", 1.5, 81, "(246.3439290717128+0j)", "(246.34392907171244+0j)",
     "3.694822225952521e-13"),
])
def test_relation_check_keeps_its_bits(name, tau_im, trunc, lhs, rhs, abs_error):
    chk = modular_relation_check(resolve(name), tau_im=tau_im, q_trunc=trunc)
    assert chk.passed
    assert (repr(chk.lhs), repr(chk.rhs), repr(chk.abs_error)) == (lhs, rhs, abs_error)


def test_relation_check_refuses_a_q_prime_of_1():
    # q' = e^(-2 pi / tau_im) rounds to 1 past tau_im about 1.1e17: no sum
    # converges there, and the user gave tau_im, not q'
    for tau_im in (1e18, 1e20, 1e70):
        with pytest.raises(DivergentEvaluation) as refusal:
            modular_relation_check(k3(), tau_im=tau_im)
        assert str(refusal.value) == (f"K3: q' = e^(-2 pi / tau_im) rounds to 1 at "
                                      f"tau_im = {tau_im}; bring tau_im nearer 1")


def test_relation_check_refuses_a_scale_past_binary64():
    # (2 tau)^4 passes binary64 at tau_im about 6e76: a typed refusal, not
    # the bare OverflowError of the complex power
    for tau_im in (1e77, 1e80, 1e150):
        with pytest.raises(FloatRangeError) as refusal:
            modular_relation_check(hp2(), tau_im=tau_im)
        assert str(refusal.value) == (f"HP2: the scale (2 tau)^4 overflows binary64 at "
                                      f"tau_im = {tau_im}; bring tau_im nearer 1")
