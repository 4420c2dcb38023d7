"""Structural properties on random characteristic data.

- Random Pontryagin data of dimension 4 to 12: multiplicativity under
  products, additivity under connected sums, and equality with the
  product-route test oracle.
- Random Chern data of complex dimension 1 to 4 per factor: Todd against
  the oracle's Todd class, products against the oracle's Kuenneth walk,
  and every genus of the squared roots read from Chern data alone against
  the same genus of the Pontryagin numbers from the oracle's
  class-polynomial conversion.
- Modularity: the Witten genus of random data of dimension 8 to 24 fits
  E4^i E6^j exactly once every number containing p_1 is zero, from the
  first truncation that holds q^n for n monomials (dimensions 24 and 48),
  and the S-transformation between Ell1 and Ell2 holds on random data.
- Spin integrality of the twisted indices on random products and
  connected sums of spin catalog entries up to dimension 24.
"""

import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import theta_oracle
from genus_forge.catalog import resolve
from genus_forge.elliptic import elliptic_genus, twisted_indices
from genus_forge.errors import ELLIPTIC, FitError, NonIntegralIndexWarning
from genus_forge.genera import genus_value
from genus_forge.manifolds import (
    ManifoldData,
    connected_sum,
    numbers_from_s,
    partitions_of,
    product,
    s_numbers,
)
from genus_forge.modular import modular_relation_check, witten_fit

RATIONAL = ("ahat", "signature", "lhat")
FAMILIES = {"B": "ell2", "W": "witten"}  # family -> the genus of its index series


@st.composite
def _manifold(draw, weight=None):
    """Random Pontryagin numbers of a 4*weight-manifold."""
    if weight is None:
        weight = draw(st.integers(1, 3))
    numbers = {lam: draw(st.integers(-60, 60)) for lam in partitions_of(weight)}
    return ManifoldData(name="M", real_dim=4 * weight, pontryagin_numbers=numbers)


def _series(m, q_trunc):
    """Every elliptic-type series of m, by name; the index series of the
    families B and W are the ell2 and witten series."""
    return {kind: elliptic_genus(m, kind, q_trunc).series for kind in ELLIPTIC}


@settings(deadline=None, max_examples=30)
@given(st.integers(1, 2), st.data(), st.integers(1, 17))
def test_product_is_multiplicative(weight_a, data, q_trunc):
    a = data.draw(_manifold(weight_a))
    b = data.draw(_manifold(data.draw(st.integers(1, 3 - weight_a))))
    ab = product(a, b)
    for kind in RATIONAL:
        assert genus_value(ab, kind) == genus_value(a, kind) * genus_value(b, kind)
    sa, sb = _series(a, q_trunc), _series(b, q_trunc)
    for name, series in _series(ab, q_trunc).items():
        assert series == sa[name] * sb[name], name


@settings(deadline=None, max_examples=30)
@given(st.integers(1, 3), st.data(), st.integers(1, 17))
def test_connected_sum_is_additive(weight, data, q_trunc):
    a, b = data.draw(_manifold(weight)), data.draw(_manifold(weight))
    ab = connected_sum(a, b)
    for kind in RATIONAL:
        assert genus_value(ab, kind) == genus_value(a, kind) + genus_value(b, kind)
    sa, sb = _series(a, q_trunc), _series(b, q_trunc)
    for name, series in _series(ab, q_trunc).items():
        assert series == sa[name] + sb[name], name


@settings(deadline=None, max_examples=25)
@given(_manifold(), st.integers(1, 17))
def test_engine_matches_product_oracle(m, q_trunc):
    for kind in ELLIPTIC:
        assert theta_oracle.agrees(elliptic_genus(m, kind, q_trunc).series,
                                   theta_oracle.elliptic_genus(m, kind, q_trunc)), kind
    for family, kind in FAMILIES.items():
        assert theta_oracle.agrees(elliptic_genus(m, kind, q_trunc).series,
                                   theta_oracle.twisted_index_series(m, family, q_trunc)), family
    for kind in RATIONAL:
        assert genus_value(m, kind) == theta_oracle.genus_value(m, kind), kind


@st.composite
def _chern_manifold(draw, n):
    """Random Chern numbers of a complex n-fold, carrying the Pontryagin
    numbers of the oracle's conversion as well."""
    numbers = {lam: draw(st.integers(-60, 60)) for lam in partitions_of(n)}
    return ManifoldData(name="C", real_dim=2 * n, chern_numbers=numbers,
                        pontryagin_numbers=theta_oracle.pontryagin_from_chern(numbers, n))


@settings(deadline=None, max_examples=40)
@given(st.integers(1, 4), st.data())
def test_chern_routes_match_oracle(n_a, data):
    n_b = data.draw(st.integers(1, min(4, 6 - n_a)))
    a, b = data.draw(_chern_manifold(n_a)), data.draw(_chern_manifold(n_b))
    for m in (a, b):
        n = m.complex_dim
        assert numbers_from_s(s_numbers(m.chern_numbers, partitions_of(n)), n) == m.chern_numbers
        assert genus_value(m, "todd") == theta_oracle.genus_value(m, "todd")
        if n % 2 == 0:
            # Chern data alone, read at doubled partitions, against the oracle's numbers
            chern_only = ManifoldData(name="C", real_dim=2 * n, chern_numbers=m.chern_numbers)
            for kind in RATIONAL:
                assert genus_value(chern_only, kind) == genus_value(m, kind), kind
            for kind in ELLIPTIC:
                assert elliptic_genus(chern_only, kind, 9).series == (
                    elliptic_genus(m, kind, 9).series), kind
    ab = product(a, b)
    assert ab.chern_numbers == theta_oracle.kuenneth_numbers(
        a.chern_numbers, b.chern_numbers, n_a, n_b
    )
    pont = {} if n_a % 2 or n_b % 2 else theta_oracle.kuenneth_numbers(
        a.pontryagin_numbers, b.pontryagin_numbers, n_a // 2, n_b // 2
    )
    assert ab.pontryagin_numbers == pont


def _without_p1(m):
    numbers = {lam: n for lam, n in m.pontryagin_numbers.items() if 1 not in lam}
    return ManifoldData(name="M", real_dim=m.real_dim, pontryagin_numbers=numbers)


@settings(deadline=None, max_examples=30)
@given(st.integers(2, 6), st.data())
def test_witten_genus_is_modular_without_p1(weight, data):
    m = data.draw(_manifold(weight))
    assert witten_fit(_without_p1(m), 41).residual_ok


@settings(deadline=None, max_examples=10)
@given(st.sampled_from([(6, 2), (12, 3)]), st.data())
def test_witten_fit_at_the_rank_boundary(weight_and_n, data):
    # n monomials of modular weight 2*weight; the fit is solved from q^0 ..
    # q^(n-1), so q_trunc = 2n + 1, the first truncation that holds q^n, is
    # the first that leaves a coefficient to check
    weight, n = weight_and_n
    m = _without_p1(data.draw(_manifold(weight)))
    with pytest.raises(FitError, match="no coefficient is left"):
        witten_fit(m, 2 * n)
    fit = witten_fit(m, 2 * n + 1)
    assert len(fit.coefficients) == n and fit.residual_ok
    assert fit.coefficients == witten_fit(m, 49).coefficients  # through q^24


@settings(deadline=None, max_examples=10)
@given(st.integers(2, 6), st.data(), st.integers(-60, 60).filter(bool))
def test_witten_genus_with_p1_is_not_modular(weight, data, p1_power):
    # the number of p_1^weight alone sets the E2^weight term of the Witten genus
    m = data.draw(_manifold(weight))
    numbers = {**m.pontryagin_numbers, (1,) * weight: p1_power}
    m = ManifoldData(name="M", real_dim=m.real_dim, pontryagin_numbers=numbers)
    assert not witten_fit(m, 41).residual_ok


@settings(deadline=None, max_examples=30)
@given(_manifold())
def test_s_transformation_holds(m):
    check = modular_relation_check(m)
    assert check.abs_error <= 1e-12 * max(1.0, abs(check.rhs))


# the spin catalog entries with Pontryagin data, of dimension 4, 8, 12 and 16
SPIN = tuple(resolve(name) for name in (
    "T4", "S4", "K3", "HP2", "K3xK3", "T4xK3", "K3xHP2", "HP2xHP2", "T2xS6",
    "T2xS6_sharp_HP2",
))


@st.composite
def _spin_product(draw, dim):
    """A product of spin entries of real dimension exactly `dim`."""
    m = None
    while dim:
        factor = draw(st.sampled_from([e for e in SPIN if e.real_dim <= dim]))
        m = factor if m is None else product(m, factor)
        dim -= factor.real_dim
    return m


@st.composite
def _spin_manifold(draw):
    dim = 4 * draw(st.integers(1, 6))
    m = draw(_spin_product(dim))
    for _ in range(draw(st.integers(0, 2))):
        m = connected_sum(m, draw(_spin_product(dim)))
    return m


@settings(deadline=None, max_examples=40)
@given(_spin_manifold())
def test_spin_indices_are_integral(m):
    assert m.spin
    with warnings.catch_warnings():
        warnings.simplefilter("error", NonIntegralIndexWarning)
        for family in FAMILIES:
            values = twisted_indices(m, family, 6)
            assert all(v.denominator == 1 for v in values), (m.name, family, values)
