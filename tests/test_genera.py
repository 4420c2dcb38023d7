"""The Newton-route oracle against an explicit-root expansion, class
polynomial goldens read through genus_value, the closed-form log
coefficients, and rational genus values."""

import itertools
from fractions import Fraction

import pytest

from genus_forge.errors import DimensionError, InsufficientData
from genus_forge.genera import (
    genus_numbers,
    genus_source,
    genus_value,
    hypersurface_todd,
    log_coeffs,
    pair_logs,
    s_numbers,
)
from genus_forge.manifolds import MAX_REAL_DIM, GenusKind, ManifoldData, cp, hp2, k3, product
import theta_oracle
from theta_oracle import (
    NonUnitLog,
    ParityError,
    Series,
    _graded_log,
    ahat_factor,
    div,
    lhat_factor,
    multiplicative_class,
    signature_factor,
    todd_factor,
)

# -- explicit-root oracle -------------------------------------------------------
#
# Multivariate polynomials over Fraction as {exponent tuple: coefficient},
# truncated by total degree.  Completely independent of the package's
# log/exp/Newton machinery.


def _pmul(a, b, cap):
    out = {}
    for ea, ca in a.items():
        da = sum(ea)
        for eb, cb in b.items():
            if da + sum(eb) > cap:
                continue
            key = tuple(x + y for x, y in zip(ea, eb))
            out[key] = out.get(key, Fraction(0)) + ca * cb
    return {k: v for k, v in out.items() if v}


def _factor_in_var(coeffs, var, r, cap):
    out = {}
    for n, c in coeffs.items():
        if n > cap:
            continue
        exps = [0] * r
        exps[var] = n
        out[tuple(exps)] = Fraction(c)
    return out


def _elementary(i, r, squares, cap):
    out = {}
    step = 2 if squares else 1
    if i * step > cap:
        return out
    for combo in itertools.combinations(range(r), i):
        exps = [0] * r
        for j in combo:
            exps[j] = step
        out[tuple(exps)] = Fraction(1)
    return out


def _substitute(poly, r, squares, cap):
    total = {}
    for mono, coeff in poly.items():
        term = {(0,) * r: Fraction(1)}
        for index, power in enumerate(mono, start=1):
            e_i = _elementary(index, r, squares, cap)
            for _ in range(power):
                term = _pmul(term, e_i, cap)
        for key, value in term.items():
            acc = total.get(key, Fraction(0)) + Fraction(coeff) * value
            if acc:
                total[key] = acc
            else:
                total.pop(key, None)
    return total


def _root_product(coeffs, r, cap):
    prod = {(0,) * r: Fraction(1)}
    for var in range(r):
        prod = _pmul(prod, _factor_in_var(coeffs, var, r, cap), cap)
    return prod


def test_chern_class_matches_root_expansion():
    cap, r = 4, 4
    factor = Series(
        {0: Fraction(1), 1: Fraction(1, 2), 2: Fraction(-1, 3),
         3: Fraction(1, 5), 4: Fraction(-1, 7)},
        cap + 1,
    )
    poly = multiplicative_class(factor, "chern", cap, n_roots=r)
    direct = _root_product(dict(factor.terms()), r, cap)
    via_class = _substitute(poly, r, squares=False, cap=cap)
    assert direct == via_class


def test_pontryagin_class_matches_root_expansion():
    cap, r = 3, 3
    y_cap = 2 * cap
    factor = Series(
        {0: Fraction(1), 2: Fraction(3, 4), 4: Fraction(-2, 9), 6: Fraction(5, 11)},
        y_cap + 1,
    )
    poly = multiplicative_class(factor, "pontryagin", cap, n_roots=r)
    direct = _root_product(dict(factor.terms()), r, y_cap)
    via_class = _substitute(poly, r, squares=True, cap=y_cap)
    assert direct == via_class


def test_ahat_factor_matches_root_expansion():
    cap, r = 2, 4
    factor = ahat_factor(2 * cap)
    poly = multiplicative_class(factor, "pontryagin", cap, n_roots=r)
    direct = _root_product(dict(factor.terms()), r, 2 * cap)
    via_class = _substitute(poly, r, squares=True, cap=2 * cap)
    assert direct == via_class


def test_root_count_stability():
    cap = 3
    factor = signature_factor(2 * cap)
    base = multiplicative_class(factor, "pontryagin", cap)
    more = multiplicative_class(factor, "pontryagin", cap, n_roots=2 * cap + 3)
    assert base == more


def test_factor_validation():
    with pytest.raises(NonUnitLog):
        multiplicative_class(Series({0: 2}, 5), "chern", 2)
    odd = Series({0: Fraction(1), 1: Fraction(1)}, 5)
    with pytest.raises(ParityError):
        multiplicative_class(odd, "pontryagin", 2)
    with pytest.raises(ValueError):
        multiplicative_class(Series({0: 1}, 5), "unknown-kind", 2)


# -- class polynomial goldens ----------------------------------------------------
#
# The genus of numbers {lambda: 1} is the coefficient of p_lambda (or
# c_lambda) in the class of the genus.


def _pontryagin_coeff(kind, partition):
    weight = sum(partition)
    unit = ManifoldData(name="unit", real_dim=4 * weight, pontryagin_numbers={partition: 1})
    return genus_value(unit, kind)


def _chern_coeff(partition):
    n = sum(partition)
    unit = ManifoldData(name="unit", real_dim=2 * n, chern_numbers={partition: 1})
    return genus_value(unit, GenusKind.TODD)


def test_ahat_class_weight_two():
    assert _pontryagin_coeff(GenusKind.AHAT, (1,)) == Fraction(-1, 24)
    assert _pontryagin_coeff(GenusKind.AHAT, (1, 1)) == Fraction(7, 5760)
    assert _pontryagin_coeff(GenusKind.AHAT, (2,)) == Fraction(-4, 5760)


def test_signature_class_weight_two():
    assert _pontryagin_coeff(GenusKind.SIGNATURE, (1,)) == Fraction(1, 3)
    assert _pontryagin_coeff(GenusKind.SIGNATURE, (2,)) == Fraction(7, 45)
    assert _pontryagin_coeff(GenusKind.SIGNATURE, (1, 1)) == Fraction(-1, 45)


def test_todd_class_weights():
    assert _chern_coeff((1,)) == Fraction(1, 2)
    assert _chern_coeff((1, 1)) == Fraction(1, 12)
    assert _chern_coeff((2,)) == Fraction(1, 12)
    assert _chern_coeff((2, 1)) == Fraction(1, 24)
    assert _chern_coeff((1, 1, 1)) == 0


def test_lhat_factor_constant_two():
    assert lhat_factor(6).coeff(0) == 2
    # logs are written in y: 4^k times those of the halved factor, whose
    # y^2 coefficient is 1/12, so the 2 of each root is taken up
    assert log_coeffs(GenusKind.LHAT, 1) == [4 * Fraction(1, 12)]
    assert _pontryagin_coeff(GenusKind.LHAT, (1,)) == 4 * Fraction(1, 12)


def test_lhat_logs_are_signature_logs():
    for weight in range(MAX_REAL_DIM // 2 + 1):
        assert log_coeffs(GenusKind.LHAT, weight) == log_coeffs(GenusKind.SIGNATURE, weight)


def test_todd_factor_leading_terms():
    factor = todd_factor(4)
    assert factor.coeff(0) == 1
    assert factor.coeff(1) == Fraction(1, 2)
    assert factor.coeff(2) == Fraction(1, 12)
    assert factor.coeff(3) == 0
    assert log_coeffs(GenusKind.TODD, 4) == [
        Fraction(1, 2), Fraction(-1, 24), 0, Fraction(1, 2880)
    ]


@pytest.mark.parametrize("kind, factor", [
    (GenusKind.AHAT, ahat_factor),
    (GenusKind.SIGNATURE, signature_factor),
    (GenusKind.LHAT, lhat_factor),
])
def test_log_coeffs_match_factor_logs(kind, factor):
    # big-L's factor is twice a factor in y/2: halved to constant term 1,
    # its logs are rescaled from y/2 to y by 2^(2k) = 4^k
    weight = 8
    series = factor(2 * weight)
    root = series.coeff(0)
    series = div(series, root)
    logs = _graded_log({n // 2: c for n, c in series.terms() if n}, weight)
    assert log_coeffs(kind, weight) == [
        root ** (2 * k) * logs.get(k, 0) for k in range(1, weight + 1)]


def test_todd_log_coeffs_match_factor_log():
    weight = 9
    series = todd_factor(weight)
    logs = _graded_log({n: c for n, c in series.terms() if n}, weight)
    assert log_coeffs(GenusKind.TODD, weight) == [logs.get(k, 0) for k in range(1, weight + 1)]


# -- genus values ------------------------------------------------------------------


def test_todd_of_projective_spaces():
    for n in range(1, 7):
        assert genus_value(cp(n), GenusKind.TODD) == 1


def test_k3_values():
    entry = k3()
    assert genus_value(entry, GenusKind.AHAT) == 2
    assert genus_value(entry, GenusKind.SIGNATURE) == -16
    assert genus_value(entry, GenusKind.LHAT) == -16
    assert genus_value(entry, GenusKind.TODD) == 2


def test_lhat_equals_signature():
    for entry in (k3(), hp2()):
        assert genus_value(entry, GenusKind.LHAT) == genus_value(entry, GenusKind.SIGNATURE)
    assert genus_value(hp2(), GenusKind.SIGNATURE) == 1
    assert genus_value(hp2(), GenusKind.AHAT) == 0


def test_paired_value_spot_check():
    # s_(1) = p1; s_(2) = p1^2 - 2 p2 and s_(1,1) = p1^2 on HP2
    assert s_numbers({(1,): -48}, [(1,)]) == {(1,): -48}
    assert s_numbers(hp2().pontryagin_numbers, [(2,), (1, 1)]) == {(2,): -10, (1, 1): 4}
    ahat = log_coeffs(GenusKind.AHAT, 1)
    assert pair_logs({(1,): -48}, 1, ahat, 1) == 2


def test_genus_source_and_asserted_fallback():
    asserted = ManifoldData(
        name="X", real_dim=8, spin=True, asserted_genera={"ahat": Fraction(1)}
    )
    assert genus_value(asserted, GenusKind.AHAT) == 1
    assert genus_source(asserted, GenusKind.AHAT) == "asserted"
    assert genus_source(k3(), GenusKind.AHAT) == "computed"
    with pytest.raises(InsufficientData):
        genus_value(asserted, GenusKind.SIGNATURE)


def test_genus_source_refuses_where_genus_value_does():
    # one route decides both: a dimension-6 entry has no Ahat genus to source
    y6 = ManifoldData(name="Y6", real_dim=6, pontryagin_numbers={}, spin=True)
    for call in (genus_value, genus_source):
        with pytest.raises(DimensionError):
            call(y6, GenusKind.AHAT)
    assert genus_source(cp(3), GenusKind.TODD) == "computed"


def test_value_and_source_read_chern_data():
    # a Chern-only entry of dimension 8: Ahat pairs its Chern numbers at
    # doubled partitions, and its source reports the computed route
    entry = product(cp(1), cp(3))
    assert entry.pontryagin_numbers is None
    assert genus_numbers(entry, GenusKind.AHAT) == (entry.chern_numbers, 2, 2)
    assert genus_numbers(entry, GenusKind.TODD) == (entry.chern_numbers, 4, 1)
    assert genus_value(entry, GenusKind.AHAT) == 0
    assert genus_source(entry, GenusKind.AHAT) == "computed"


def test_dimension_contracts():
    s6 = ManifoldData(name="Y6", real_dim=6, pontryagin_numbers={}, spin=True)
    with pytest.raises(DimensionError):
        genus_value(s6, GenusKind.AHAT)
    with pytest.raises(InsufficientData):
        genus_value(k3().__class__(  # pontryagin-only entry cannot do Todd
            name="P", real_dim=4, pontryagin_numbers={(1,): -48}, spin=True
        ), GenusKind.TODD)


def test_hypersurface_todd_closed_form():
    # the closed form against the oracle's route through (1 - exp(-z))/z
    for n in range(1, 9):
        for degree in range(-100, 101):
            assert hypersurface_todd(n, degree) == theta_oracle.hypersurface_todd(n, degree)
    with pytest.raises(DimensionError):
        hypersurface_todd(0, 1)
