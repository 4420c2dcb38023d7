"""Ring axioms and canonical form for the truncated q-series, its operations
against the test oracle's own series, and the inverse pairs (division, log
and exp) that the oracle adds to its series."""

import math
import random
import re
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from genus_forge.errors import DomainError, TruncMismatch
from genus_forge.qseries import MAX_TRUNC, QSeries
from theta_oracle import (
    NonNilpotentExp,
    NonUnitDivisor,
    NonUnitLog,
    Series,
    agrees,
    div,
    exp,
    log,
    shift,
    truncate,
)

TRUNC = 12


def rand_series(rng, trunc=TRUNC, unit=False, nilpotent=False, kind=QSeries):
    coeffs = {}
    for n in range(trunc):
        if rng.random() < 0.6:
            coeffs[n] = Fraction(rng.randint(-9, 9), rng.randint(1, 7))
    if unit:
        coeffs[0] = Fraction(1)
    if nilpotent:
        coeffs.pop(0, None)
    return kind(coeffs, trunc)


def test_constructors():
    z = QSeries({}, 5)
    assert not z and list(z.terms()) == []
    one = QSeries({0: 1}, 5)
    assert one.coeff(0) == 1 and list(one.terms()) == [(0, 1)]
    c = QSeries({0: Fraction(3, 2)}, 5)
    assert list(c.terms()) == [(0, Fraction(3, 2))]
    q = QSeries({3: 1}, 8)
    assert q.coeff(3) == 1 and q.coeff(2) == 0
    assert next(q.terms()) == (3, 1)


def test_constructor_refusals():
    with pytest.raises(ValueError, match="exponent 4 not below truncation 4"):
        QSeries({4: 1}, 4)
    with pytest.raises(ValueError, match="trunc must be a positive integer"):
        QSeries({}, 0)


@pytest.mark.parametrize("call, error, message", [
    (lambda: QSeries({-1: 1}, 5), DomainError, "exponent key -1 not a nonnegative integer"),
    (lambda: QSeries({9: 1}, 5), DomainError, "exponent 9 not below truncation 5"),
    (lambda: QSeries({True: 1}, 5), DomainError, "exponent key True not a nonnegative integer"),
    (lambda: QSeries({0: 1.5}, 5), DomainError,
     "a coefficient must be an int or a Fraction, got 1.5"),
    (lambda: QSeries({0: 1}, 5).coeff(-3), DomainError,
     "coefficient at half-exponent -3 is not stored"),
    (lambda: QSeries({0: 1}, 5).coeff(7), DomainError, "coefficient at half-exponent 7 is not stored"),
], ids=["negative-key", "key-past-trunc", "bool-key", "float-coefficient", "negative-index",
        "index-past-trunc"])
def test_bad_arguments_are_refused_typed(call, error, message):
    # each raised a plain ValueError or TypeError, or was taken: a bool key
    # stored, a negative index read as 0
    start = time.perf_counter()
    with pytest.raises(error, match=f"^{re.escape(message)}"):
        call()
    assert time.perf_counter() - start < 0.5


def test_zero_coefficients_not_stored():
    s = QSeries({0: Fraction(1), 2: Fraction(0)}, 4)
    assert list(s.terms()) == [(0, 1)] and str(s) == "1"
    assert s == QSeries({0: Fraction(1)}, 4)


def test_coeff_access_contract():
    s = QSeries({1: Fraction(5)}, 4)
    assert s.coeff(1) == 5 and s.coeff(2) == 0
    with pytest.raises(ValueError):
        s.coeff(4)


def test_ring_axioms_random():
    rng = random.Random(20240814)
    for _ in range(25):
        a, b, c = (rand_series(rng) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + QSeries({}, TRUNC) == a
        assert a * QSeries({0: 1}, TRUNC) == a
        assert a + a * -1 == QSeries({}, TRUNC)
        assert (a * -1) * -1 == a


def test_scalar_coercion():
    a = QSeries({1: Fraction(2)}, 6)
    assert 2 * a == a + a


@pytest.mark.parametrize("other", ["x", 1.5, 1, Fraction(1, 2)],
                         ids=["str", "float", "int", "fraction"])
def test_foreign_operands_raise_type_error(other):
    # a series adds only to a series, a scalar only multiplies it, and there
    # is no difference, negation or power
    s = QSeries({0: 1, 2: 3}, 4)
    ops = [lambda: s + other, lambda: other + s, lambda: s - other, lambda: other - s,
           lambda: s ** other, lambda: -s, lambda: s - s, lambda: s ** 2]
    if not isinstance(other, (int, Fraction)):
        ops += [lambda: s * other, lambda: other * s]
    for op in ops:
        with pytest.raises(TypeError):
            op()
    assert (s == "x") is False and (s != "x") is True


def test_truncation_mismatch_rejected():
    a = QSeries({0: 1}, 4)
    b = QSeries({0: 1}, 5)
    with pytest.raises(TruncMismatch):
        a + b
    with pytest.raises(TruncMismatch):
        a * b


def test_division_round_trip():
    rng = random.Random(7)
    for _ in range(20):
        a = rand_series(rng, kind=Series)
        b = rand_series(rng, unit=True, kind=Series)
        assert div(a * b, b) == a
    geom = div(1, 1 - Series({2: 1}, 8))
    assert all(geom.coeff(2 * n) == 1 for n in range(4))
    assert div(Series({1: Fraction(2)}, 6), 2) == Series({1: Fraction(1)}, 6)


def test_division_by_non_unit():
    with pytest.raises(NonUnitDivisor):
        div(Series({0: 1}, 4), Series({1: 1}, 4))
    with pytest.raises(ZeroDivisionError):
        div(Series({0: 1}, 4), 0)
    with pytest.raises(TruncMismatch):
        div(Series({0: 1}, 4), Series({0: 1}, 5))


def test_powers():
    rng = random.Random(11)
    b = rand_series(rng, unit=True, kind=Series)
    assert div(1, b) ** 2 == div(Series({0: 1}, TRUNC), b * b)
    nil = Series({2: 1}, 6)
    with pytest.raises(NonUnitDivisor):
        div(1, nil)


def test_log_exp_inverses():
    rng = random.Random(13)
    for _ in range(15):
        u = rand_series(rng, unit=True, kind=Series)
        assert exp(log(u)) == u
        n = rand_series(rng, nilpotent=True, kind=Series)
        assert log(exp(n)) == n
    with pytest.raises(NonUnitLog):
        log(Series({0: 2}, 4))
    with pytest.raises(NonNilpotentExp):
        exp(Series({0: 1}, 4))


def test_log_of_product_is_sum():
    rng = random.Random(17)
    u = rand_series(rng, unit=True, kind=Series)
    v = rand_series(rng, unit=True, kind=Series)
    assert log(u * v) == log(u) + log(v)


def test_truncate_and_shift():
    s = Series({0: Fraction(1), 3: Fraction(2), 5: Fraction(7)}, 6)
    t = truncate(s, 4)
    assert t.trunc == 4 and t.coeff(3) == 2
    with pytest.raises(TruncMismatch):
        truncate(t, 6)
    shifted = shift(s, 2)
    assert shifted.coeff(2) == 1 and shifted.coeff(5) == 2
    assert shift(shifted, -2).coeff(0) == 1
    with pytest.raises(ValueError):
        shift(s, -1)


def test_integer_grid_detection():
    assert QSeries({0: Fraction(1), 4: Fraction(2)}, 6).integer_powers_only()
    assert not QSeries({1: Fraction(1)}, 4).integer_powers_only()


def test_structural_equality():
    a = QSeries({0: Fraction(1)}, 4)
    b = QSeries({0: Fraction(1)}, 5)
    assert a != b  # same coefficients, different truncation
    assert a == QSeries({0: 1}, 4) == QSeries({0: 2}, 4) * Fraction(1, 2)
    # a series equals only a series: any other operand gets NotImplemented,
    # and == falls back to identity, from either side
    for other in (1, True, Fraction(1), 1.0, 1 + 0j, math.nan, "1", None, [1], (1,)):
        assert a.__eq__(other) is NotImplemented and a != other and other != a, other


def test_str_rendering():
    s = QSeries({0: Fraction(1), 1: Fraction(-1, 2), 2: Fraction(3)}, 6)
    text = str(s)
    assert text.startswith("1")
    assert "q^(1/2)" in text and "3*q" in text
    assert str(QSeries({}, 3)) == "0"
    # a positive coefficient below 1 keeps its sign and its fraction
    assert str(QSeries({2: Fraction(1, 2), 4: Fraction(-1, 3)}, 6)) == "1/2*q - 1/3*q^2"
    assert repr(QSeries({1: -1}, 6)) == "QSeries(-q^(1/2); trunc=6)"


# numerators up to 2^80 over denominators up to 2^40, on a few keys: a dense
# draw at MAX_TRUNC would spend the test's time in the oracle's Fractions
_VALUE = st.builds(Fraction, st.integers(-(2**80), 2**80), st.integers(1, 2**40))
_TRUNC = st.one_of(st.sampled_from([1, 2, MAX_TRUNC]), st.integers(1, MAX_TRUNC))


def _pair(draw, trunc):
    """One drawn series, as the engine's QSeries and as the oracle's Series."""
    coeffs = draw(st.dictionaries(st.integers(0, trunc - 1), _VALUE, max_size=6))
    return QSeries(coeffs, trunc), Series(coeffs, trunc)


@settings(deadline=None, max_examples=60)
@given(st.data(), _TRUNC, _VALUE)
def test_operations_match_the_oracle(data, trunc, scalar):
    (a, oa), (b, ob) = _pair(data.draw, trunc), _pair(data.draw, trunc)
    assert agrees(a, oa) and agrees(b, ob)
    assert agrees(a + b, oa + ob)
    assert agrees(a * b, oa * ob)
    assert agrees(a * scalar, oa * scalar) and agrees(scalar * a, oa * scalar)
    zero = a + a * -1
    assert zero == QSeries({}, trunc) and str(zero) == "0"
