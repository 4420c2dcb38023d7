"""Structural properties of the genus engine on random Pontryagin data of
dimension 4 to 12: multiplicativity under products, additivity under
connected sums, and equality with the product-route test oracle."""

from hypothesis import given, settings
from hypothesis import strategies as st

import theta_oracle
from genus_forge.elliptic import EllKind, elliptic_genus, twisted_index_series
from genus_forge.genera import genus_value
from genus_forge.manifolds import GenusKind, ManifoldData, connected_sum, partitions_of, product

RATIONAL = (GenusKind.AHAT, GenusKind.SIGNATURE, GenusKind.LHAT)
FAMILIES = ("B", "W")


@st.composite
def _manifold(draw, weight=None):
    """Random Pontryagin numbers of a 4*weight-manifold."""
    if weight is None:
        weight = draw(st.integers(1, 3))
    numbers = {lam: draw(st.integers(-60, 60)) for lam in partitions_of(weight)}
    return ManifoldData(name="M", real_dim=4 * weight, pontryagin_numbers=numbers)


def _series(m, q_trunc):
    """Every elliptic-type series of m, by name."""
    out = {kind.value: elliptic_genus(m, kind, q_trunc).series for kind in EllKind}
    out.update({f: twisted_index_series(m, f, q_trunc).series for f in FAMILIES})
    return out


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
    for kind in EllKind:
        assert elliptic_genus(m, kind, q_trunc).series == theta_oracle.elliptic_genus(
            m, kind, q_trunc
        ), kind
    for family in FAMILIES:
        assert twisted_index_series(m, family, q_trunc).series == (
            theta_oracle.twisted_index_series(m, family, q_trunc)
        ), family
    for kind in RATIONAL:
        assert genus_value(m, kind) == theta_oracle.genus_value(m, kind), kind
