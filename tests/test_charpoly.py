"""Weight-truncated polynomials in characteristic class generators, the
test oracle's class-polynomial ring."""

from fractions import Fraction

import pytest

from theta_oracle import CharClassPoly, Series, monomial_weight, partition_to_monomial


def gen(i, cap=6, label="p"):
    return CharClassPoly.generator(label, cap, i, Fraction(1))


def at(poly, *exps):
    """Coefficient of g_1^exps[0] * g_2^exps[1] * ..., trailing zeros omitted."""
    return poly.coeff(exps + (0,) * (poly.weight_cap - len(exps)))


def test_partition_to_monomial():
    assert partition_to_monomial((2, 1, 1), 4) == (2, 1, 0, 0)
    assert partition_to_monomial((3,), 3) == (0, 0, 1)
    assert partition_to_monomial((4, 3, 1), 4) == (1, 0, 1, 1)
    with pytest.raises(ValueError):
        partition_to_monomial((3,), 2)


def test_monomial_weight():
    assert monomial_weight((2, 1)) == 4  # p1^2 * p2
    assert monomial_weight(()) == 0


def test_constant_and_zero():
    z = CharClassPoly.zero("p", 3)
    assert not z
    c = CharClassPoly.constant("p", 3, Fraction(5))
    assert at(c) == 5


def test_addition_and_scale():
    p1, p2 = gen(1), gen(2)
    s = p1 + p2
    assert at(s, 1) == 1 and at(s, 0, 1) == 1
    assert (s + p2.scale(-1)) == p1
    doubled = s.scale(Fraction(2))
    assert at(doubled, 1) == 2
    assert 3 * p1 == p1.scale(3)


def test_product_expansion():
    cap = 6
    one = CharClassPoly.constant("p", cap, Fraction(1))
    p1, p2 = gen(1, cap), gen(2, cap)
    prod = (one + p1) * (one + p2)
    assert at(prod) == 1
    assert at(prod, 1) == 1
    assert at(prod, 0, 1) == 1
    assert at(prod, 1, 1) == 1  # p1*p2, weight 3


def test_weight_cap_drops_heavy_terms():
    cap = 2
    p1, p2 = gen(1, cap), gen(2, cap)
    prod = (p1 + p2) * (p1 + p2)
    # p1^2 has weight 2 and survives; p1*p2 (3) and p2^2 (4) are dropped
    assert at(prod, 2) == 1
    assert at(prod, 1, 1) == 0
    assert at(prod, 0, 2) == 0


def test_weight_part():
    cap = 4
    p1, p2 = gen(1, cap), gen(2, cap)
    mixed = p1 + p2 + p1 * p2
    w2 = mixed.weight_part(2)
    assert at(w2, 0, 1) == 1 and at(w2, 1) == 0


def test_label_mismatch_rejected():
    with pytest.raises(ValueError):
        gen(1, label="p") + gen(1, label="c")


def test_qseries_coefficients_supported():
    cap = 3
    trunc = 5
    q = Series({2: 1}, trunc)
    poly = CharClassPoly.generator("p", cap, 1, q)
    square = poly * poly
    assert at(square, 2) == Series({4: 1}, trunc)
    bumped = poly + poly
    assert at(bumped, 1) == 2 * q
