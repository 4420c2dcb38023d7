"""Elliptic/Witten log coefficients, genus q-expansions, and the twisted
Dirac index families.

The closed-form log coefficients are checked both ways: against the
logarithms of the theta-quotient products of the test oracle, and their
q^0 parts against the classical log coefficients.  The oracle's own
product pieces (CharSeries, the twist-bundle characters) are checked
here too.
"""

from fractions import Fraction
from math import factorial

import pytest

from genus_forge.elliptic import (
    EllKind,
    _divisor_sum,
    elliptic_genus,
    elliptic_logs,
    twisted_indices,
)
from genus_forge.errors import (
    DimensionError,
    InsufficientData,
    NonIntegralIndexWarning,
    TruncMismatch,
)
from genus_forge.genera import GenusKind, genus_value, log_coeffs
from genus_forge.manifolds import ManifoldData, hp2, k3, product, torus
from genus_forge.qseries import QSeries
from theta_oracle import (
    CharSeries,
    NonUnitDivisor,
    Series,
    ThetaKind,
    WittenBundle,
    _graded_log,
    agrees,
    theta_ratio,
    twisted_index_series,
    witten_bundle_ch,
)

Y_CAP = 8
TRUNC = 9


def _log_of(factor: CharSeries, weight: int) -> list[Series]:
    """u^k coefficients (u = y^2) of the log of a factor, halved to
    constant term 1 first."""
    factor = factor / factor.y_coeff(0).coeff(0)
    logs = _graded_log({n // 2: c for n, c in factor.terms() if n}, weight)
    return [logs.get(k, Series({}, factor.q_trunc)) for k in range(1, weight + 1)]


def test_factor_equals_theta_route():
    weight = Y_CAP // 2
    theta = theta_ratio(ThetaKind.THETA, Y_CAP, TRUNC)
    # Witten: the plain derivative quotient
    assert agrees(elliptic_logs(EllKind.WITTEN, weight, TRUNC), _log_of(theta, weight))
    # Ell2: derivative quotient times the half-step quotient
    assert agrees(elliptic_logs(EllKind.ELL2, weight, TRUNC), _log_of(
        theta * theta_ratio(ThetaKind.THETA2, Y_CAP, TRUNC), weight
    ))
    # Ell1: doubled product of the derivative and cosine quotients, a
    # factor in y/2 whose logs are rescaled to y by 4^k
    halved = _log_of(theta * theta_ratio(ThetaKind.THETA1, Y_CAP, TRUNC) * 2, weight)
    assert agrees(elliptic_logs(EllKind.ELL1, weight, TRUNC), [
        log * 4**k for k, log in enumerate(halved, start=1)])


def test_factor_q0_specializations():
    weight = Y_CAP // 2
    ahat = log_coeffs(GenusKind.AHAT, weight)
    for kind in (EllKind.WITTEN, EllKind.ELL2):
        logs = elliptic_logs(kind, weight, TRUNC)
        assert [c.coeff(0) for c in logs] == ahat
    lhat = log_coeffs(GenusKind.LHAT, weight)
    assert [c.coeff(0) for c in elliptic_logs(EllKind.ELL1, weight, TRUNC)] == lhat


def test_witten_logs_are_eisenstein():
    # l_k = 2 G_2k / (2k)!, G_2k = -B_2k/(4k) + sum sigma_(2k-1)(n) q^n
    for k, log in enumerate(elliptic_logs(EllKind.WITTEN, 4, 13), start=1):
        for n in range(1, 7):
            sigma = sum(d ** (2 * k - 1) for d in range(1, n + 1) if n % d == 0)
            assert log.coeff(2 * n) == Fraction(2 * sigma, factorial(2 * k))
    assert _divisor_sum(1, -1, 1, 7) == QSeries({1: -1, 2: 2, 3: -4, 4: 4, 5: -6, 6: 8}, 7)


def test_k3_series_goldens():
    ell1 = elliptic_genus(k3(), EllKind.ELL1, TRUNC).series
    assert dict(ell1.terms()) == {
        0: Fraction(-16), 2: Fraction(-384), 4: Fraction(-384),
        6: Fraction(-1536), 8: Fraction(-384),
    }
    ell2 = elliptic_genus(k3(), EllKind.ELL2, TRUNC).series
    assert dict(ell2.terms()) == {
        0: Fraction(2), 1: Fraction(48), 2: Fraction(48), 3: Fraction(192),
        4: Fraction(48), 5: Fraction(288), 6: Fraction(192), 7: Fraction(384),
        8: Fraction(48),
    }
    witten = elliptic_genus(k3(), EllKind.WITTEN, TRUNC).series
    assert dict(witten.terms()) == {
        0: Fraction(2), 2: Fraction(-48), 4: Fraction(-144),
        6: Fraction(-192), 8: Fraction(-336),
    }
    assert witten.integer_powers_only() and ell1.integer_powers_only()
    assert not ell2.integer_powers_only()


def test_hp2_series_goldens():
    ell1 = elliptic_genus(hp2(), EllKind.ELL1, 5).series
    assert dict(ell1.terms()) == {0: Fraction(1), 2: Fraction(-16), 4: Fraction(112)}
    witten = elliptic_genus(hp2(), EllKind.WITTEN, 5).series
    assert dict(witten.terms()) == {2: Fraction(-1), 4: Fraction(-6)}


def test_leading_terms_match_classical_genera():
    for entry in (k3(), hp2(), product(k3(), k3())):
        assert elliptic_genus(entry, EllKind.ELL1, 3).series.coeff(0) == genus_value(
            entry, GenusKind.SIGNATURE
        )
        for kind in (EllKind.ELL2, EllKind.WITTEN):
            assert elliptic_genus(entry, kind, 3).series.coeff(0) == genus_value(
                entry, GenusKind.AHAT
            )


def test_genus_metadata():
    g = elliptic_genus(k3(), "witten", 5)
    assert g.manifold == "K3" and g.kind == "witten" and g.q_trunc == 5


def test_formulation_equivalence():
    # Ell2 is the index series of the B family, Witten of the W family; the
    # right side is the oracle's bundle route, Ahat times the bundle characters.
    for entry in (k3(), hp2()):
        assert agrees(elliptic_genus(entry, EllKind.ELL2, TRUNC).series,
                      twisted_index_series(entry, "B", TRUNC))
        assert agrees(elliptic_genus(entry, EllKind.WITTEN, TRUNC).series,
                      twisted_index_series(entry, "W", TRUNC))


def test_bundle_ch_first_order_relation():
    # The half-step exterior family opens with minus the reduced tangent
    # class, the symmetric family with plus it.
    sym = witten_bundle_ch(WittenBundle.SYM, 3, TRUNC)
    b = sym * witten_bundle_ch(WittenBundle.EXT_HALF, 3, TRUNC)
    checked = 0
    for mono, coeff in sym.terms.items():
        if not any(mono):
            continue
        other = b.terms.get(mono)
        assert other is not None
        assert other.coeff(1) == -coeff.coeff(2)
        checked += 1
    assert checked > 0


def test_bundle_ch_q0_is_one():
    for kind in WittenBundle:
        poly = witten_bundle_ch(kind, 2, 5)
        zero_mono = (0, 0)
        const = poly.coeff(zero_mono)
        assert const == 1
        for mono, coeff in poly.terms.items():
            if any(mono):
                assert coeff.coeff(0) == 0


def test_twisted_index_goldens():
    assert twisted_indices(k3(), "B", 0) == [2]
    assert twisted_indices(k3(), "B", 1) == [2, 48]
    assert twisted_indices(k3(), "W", 1) == [2, -48]
    assert twisted_indices(k3(), "B", 3) == [2, 48, 48, 192]
    assert twisted_indices(k3(), "W", 2) == [2, -48, -144]


def test_twisted_index_validation():
    with pytest.raises(ValueError):
        twisted_indices(k3(), "X", 0)
    with pytest.raises(ValueError):
        twisted_indices(k3(), "B", -1)
    with pytest.raises(ValueError):
        twisted_indices(k3(), "B", -2)


def test_non_integral_index_warns():
    fake = ManifoldData(name="fake-spin", real_dim=4, spin=True,
                        pontryagin_numbers={(1,): -47})
    with pytest.warns(NonIntegralIndexWarning):
        values = twisted_indices(fake, "W", 0)
    assert values == [Fraction(47, 24)]
    with pytest.warns(NonIntegralIndexWarning):
        twisted_indices(fake, "B", 1)


def test_truncation_stability():
    long = elliptic_genus(k3(), EllKind.ELL2, 17).series
    short = elliptic_genus(k3(), EllKind.ELL2, 9).series
    assert [(n, c) for n, c in long.terms() if n < 9] == list(short.terms())
    # W_0 .. W_8 come from q_trunc 17, W_0 .. W_4 from q_trunc 9
    assert twisted_indices(k3(), "W", 8)[:5] == twisted_indices(k3(), "W", 4)


def test_torus_genera_vanish():
    t4 = torus(4)
    for kind in EllKind:
        assert not elliptic_genus(t4, kind, TRUNC).series
    assert twisted_indices(t4, "B", 3) == [0, 0, 0, 0]


def test_dimension_and_data_requirements():
    with pytest.raises(DimensionError):
        elliptic_genus(torus(2), EllKind.WITTEN, 5)
    asserted_only = ManifoldData(name="B8", real_dim=8, spin=True,
                                 asserted_genera={"ahat": Fraction(1)})
    with pytest.raises(InsufficientData):
        elliptic_genus(asserted_only, EllKind.WITTEN, 5)
    with pytest.raises(InsufficientData):
        twisted_indices(asserted_only, "B", 1)


def test_char_series_contracts():
    one = Series({0: 1}, TRUNC)
    with pytest.raises(ValueError):
        CharSeries({1: one}, 4, TRUNC)
    with pytest.raises(TruncMismatch):
        CharSeries({0: Series({0: 1}, 5)}, 4, TRUNC)
    a = CharSeries({0: one, 2: one * 3}, 4, TRUNC)
    b = CharSeries({0: one, 2: one * 3, 6: one}, 4, TRUNC)
    assert a == b  # y^6 exceeds the cap and is dropped
    with pytest.raises(TruncMismatch):
        a * CharSeries.one(4, 5)
    no_unit = CharSeries({0: Series({2: 1}, TRUNC)}, 4, TRUNC)
    with pytest.raises(NonUnitDivisor):
        1 / no_unit
    # division round trip
    f = theta_ratio(ThetaKind.THETA2, 4, TRUNC)
    assert (a * f) / f == a
