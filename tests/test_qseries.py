"""Ring axioms and evaluation for the truncated q-series, and the inverse
pairs (division, log and exp) that the test oracle adds to it."""

import random
import re
import time
from fractions import Fraction

import pytest

from genus_forge.errors import (DivergentEvaluation, DomainError, FloatRangeError, TooLarge,
                               TruncMismatch)
from genus_forge.qseries import MAX_TRUNC, QSeries
from theta_oracle import (
    NonNilpotentExp,
    NonUnitDivisor,
    NonUnitLog,
    div,
    exp,
    log,
    shift,
    truncate,
)

TRUNC = 12


def rand_series(rng, trunc=TRUNC, unit=False, nilpotent=False):
    coeffs = {}
    for n in range(trunc):
        if rng.random() < 0.6:
            coeffs[n] = Fraction(rng.randint(-9, 9), rng.randint(1, 7))
    if unit:
        coeffs[0] = Fraction(1)
    if nilpotent:
        coeffs.pop(0, None)
    return QSeries(coeffs, trunc)


def test_constructors():
    z = QSeries.zero(5)
    assert not z and z == 0
    one = QSeries.one(5)
    assert one.coeff(0) == 1 and one == 1
    c = QSeries.constant(Fraction(3, 2), 5)
    assert c == Fraction(3, 2)
    q = QSeries({3: 1}, 8)
    assert q.coeff(3) == 1 and q.coeff(2) == 0
    assert q.valuation() == 3


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
    (lambda: QSeries.one(5).coeff(-3), DomainError,
     "coefficient at half-exponent -3 is not stored"),
    (lambda: QSeries.one(5).coeff(7), DomainError, "coefficient at half-exponent 7 is not stored"),
    (lambda: QSeries.one(5) ** -1, DomainError, "negative power -1: QSeries has no division"),
    (lambda: QSeries({0: Fraction(1, 2), 1: 1}, 5) ** (MAX_TRUNC + 1), TooLarge,
     f"power {MAX_TRUNC + 1} exceeds the cap of {MAX_TRUNC}"),
    (lambda: QSeries({0: Fraction(1, 2), 1: 1}, 5) ** 10**400, TooLarge,
     f"power {10**400} exceeds the cap of {MAX_TRUNC}"),
], ids=["negative-key", "key-past-trunc", "bool-key", "float-coefficient", "negative-index",
        "index-past-trunc", "negative-power", "power-past-cap", "huge-power"])
def test_bad_arguments_are_refused_typed(call, error, message):
    # each raised a plain ValueError or TypeError, or was taken: a bool key
    # stored, a negative index read as 0, a huge power run without bound
    start = time.perf_counter()
    with pytest.raises(error, match=f"^{re.escape(message)}"):
        call()
    assert time.perf_counter() - start < 0.5


def test_zero_coefficients_not_stored():
    s = QSeries({0: Fraction(1), 2: Fraction(0)}, 4)
    assert 2 not in s.coeffs
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
        assert a + QSeries.zero(TRUNC) == a
        assert a * QSeries.one(TRUNC) == a
        assert a - a == QSeries.zero(TRUNC)
        assert -(-a) == a


def test_scalar_coercion():
    a = QSeries({1: Fraction(2)}, 6)
    assert 1 + a == QSeries({0: Fraction(1), 1: Fraction(2)}, 6)
    assert a - 1 == QSeries({0: Fraction(-1), 1: Fraction(2)}, 6)
    assert 2 * a == a + a
    assert div(a, 2) == QSeries({1: Fraction(1)}, 6)
    assert (1 - a) == 1 - a


@pytest.mark.parametrize("other", ["x", 1.5], ids=["str", "float"])
def test_foreign_operands_raise_type_error(other):
    s = QSeries({0: 1, 2: 3}, 4)
    for op in (lambda: s + other, lambda: other + s, lambda: s - other, lambda: other - s,
               lambda: s * other, lambda: other * s, lambda: s ** other):
        with pytest.raises(TypeError):
            op()
    assert (s == "x") is False and (s != "x") is True


def test_truncation_mismatch_rejected():
    a = QSeries.one(4)
    b = QSeries.one(5)
    with pytest.raises(TruncMismatch):
        a + b
    with pytest.raises(TruncMismatch):
        a * b


def test_division_round_trip():
    rng = random.Random(7)
    for _ in range(20):
        a = rand_series(rng)
        b = rand_series(rng, unit=True)
        assert div(a * b, b) == a
    geom = div(1, 1 - QSeries({2: 1}, 8))
    assert all(geom.coeff(2 * n) == 1 for n in range(4))


def test_division_by_non_unit():
    with pytest.raises(NonUnitDivisor):
        div(QSeries.one(4), QSeries({1: 1}, 4))
    with pytest.raises(ZeroDivisionError):
        div(QSeries.one(4), 0)
    with pytest.raises(TruncMismatch):
        div(QSeries.one(4), QSeries.one(5))


def test_powers():
    rng = random.Random(11)
    a = rand_series(rng, unit=True)
    assert a**0 == QSeries.one(TRUNC)
    assert a**3 == a * a * a
    assert div(1, a) ** 2 == div(QSeries.one(TRUNC), a * a)
    nil = QSeries({2: 1}, 6)
    with pytest.raises(NonUnitDivisor):
        div(1, nil)


def test_negative_power_refused():
    # QSeries is a ring: negative powers go through the oracle's division
    with pytest.raises(ValueError, match="negative power -1"):
        QSeries.one(TRUNC) ** -1


def test_log_exp_inverses():
    rng = random.Random(13)
    for _ in range(15):
        u = rand_series(rng, unit=True)
        assert exp(log(u)) == u
        n = rand_series(rng, nilpotent=True)
        assert log(exp(n)) == n
    with pytest.raises(NonUnitLog):
        log(QSeries.constant(2, 4))
    with pytest.raises(NonNilpotentExp):
        exp(QSeries.one(4))


def test_log_of_product_is_sum():
    rng = random.Random(17)
    u = rand_series(rng, unit=True)
    v = rand_series(rng, unit=True)
    assert log(u * v) == log(u) + log(v)


def test_truncate_and_shift():
    s = QSeries({0: Fraction(1), 3: Fraction(2), 5: Fraction(7)}, 6)
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
    assert a == 1 and b == 1  # scalar comparison ignores truncation


def test_eval_at():
    geom = div(1, 1 - QSeries({2: 1}, 40))
    val = geom.eval_at(0.1)
    assert abs(val - 1 / 0.9) < 1e-15
    half = QSeries({1: 1}, 4)
    assert abs(half.eval_at(0.25) - 0.5) < 1e-15
    with pytest.raises(DivergentEvaluation):
        geom.eval_at(1.0)
    with pytest.raises(DivergentEvaluation):
        geom.eval_at(-2.0)


def test_eval_at_refuses_a_coefficient_past_binary64():
    for series, n in ((QSeries({0: 10**400}, 3), 0),
                      (QSeries({0: 1, 3: Fraction(-(10**400), 3)}, 5), 3)):
        with pytest.raises(FloatRangeError, match=rf"^the coefficient at half-exponent {n} "
                                                  "lies past binary64; the series cannot "
                                                  "be evaluated in floats$"):
            series.eval_at(0.1)
    # the largest coefficients that convert keep their bits
    assert QSeries({0: 10**308}, 3).eval_at(0.1) == complex(1e308)
    assert QSeries({2: Fraction(-(10**308), 7)}, 3).eval_at(0.25) == -(10**308 / 7) * 0.25


def test_str_rendering():
    s = QSeries({0: Fraction(1), 1: Fraction(-1, 2), 2: Fraction(3)}, 6)
    text = str(s)
    assert text.startswith("1")
    assert "q^(1/2)" in text and "3*q" in text
    assert str(QSeries.zero(3)) == "0"
    # a positive coefficient below 1 keeps its sign and its fraction
    assert str(QSeries({2: Fraction(1, 2), 4: Fraction(-1, 3)}, 6)) == "1/2*q - 1/3*q^2"
