"""Weight-truncated polynomials in characteristic class generators."""

from fractions import Fraction

import pytest

from genus_forge.charpoly import (
    CharClassPoly,
    monomial_to_partition,
    monomial_weight,
    partition_to_monomial,
)
from genus_forge.qseries import QSeries


def gen(i, cap=6, label="p"):
    return CharClassPoly.generator(label, cap, i, Fraction(1))


def test_partition_round_trip():
    assert monomial_to_partition((2, 1)) == (2, 1, 1)
    assert monomial_to_partition((0, 0, 1)) == (3,)
    assert partition_to_monomial((2, 1, 1), 4) == (2, 1, 0, 0)
    assert partition_to_monomial((3,), 3) == (0, 0, 1)
    for partition in [(1,), (2, 2), (4, 3, 1), (1, 1, 1, 1)]:
        cap = partition[0]
        assert monomial_to_partition(partition_to_monomial(partition, cap)) == partition


def test_monomial_weight():
    assert monomial_weight((2, 1)) == 4  # p1^2 * p2
    assert monomial_weight(()) == 0


def test_constant_and_zero():
    z = CharClassPoly.zero("p", 3)
    assert not z
    c = CharClassPoly.constant("p", 3, Fraction(5))
    assert c.coeff(()) == 5


def test_addition_and_scale():
    p1, p2 = gen(1), gen(2)
    s = p1 + p2
    assert s.coeff((1,)) == 1 and s.coeff((0, 1)) == 1
    assert (s - p2) == p1
    doubled = s.scale(Fraction(2))
    assert doubled.coeff((1,)) == 2
    assert 3 * p1 == p1.scale(3)


def test_product_expansion():
    cap = 6
    one = CharClassPoly.constant("p", cap, Fraction(1))
    p1, p2 = gen(1, cap), gen(2, cap)
    prod = (one + p1) * (one + p2)
    assert prod.coeff(()) == 1
    assert prod.coeff((1,)) == 1
    assert prod.coeff((0, 1)) == 1
    assert prod.coeff((1, 1)) == 1  # p1*p2, weight 3


def test_weight_cap_drops_heavy_terms():
    cap = 2
    p1, p2 = gen(1, cap), gen(2, cap)
    prod = (p1 + p2) * (p1 + p2)
    # p1^2 has weight 2 and survives; p1*p2 (3) and p2^2 (4) are dropped
    assert prod.coeff((2,)) == 1
    assert prod.coeff((1, 1)) == 0
    assert prod.coeff((0, 2)) == 0


def test_weight_part():
    cap = 4
    p1, p2 = gen(1, cap), gen(2, cap)
    mixed = p1 + p2 + p1 * p2
    w2 = mixed.weight_part(2)
    assert w2.coeff((0, 1)) == 1 and w2.coeff((1,)) == 0


def test_label_mismatch_rejected():
    with pytest.raises(ValueError):
        gen(1, label="p") + gen(1, label="c")


def test_qseries_coefficients_supported():
    cap = 3
    trunc = 5
    q = QSeries({2: 1}, trunc)
    poly = CharClassPoly.generator("p", cap, 1, q)
    square = poly * poly
    assert square.coeff((2,)) == QSeries({4: 1}, trunc)
    bumped = poly + poly
    assert bumped.coeff((1,)) == 2 * q
