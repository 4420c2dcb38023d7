"""The record contracts every data and result class keeps: its fields are
its constructor's parameters, in order; assignment and deletion raise
AttributeError; records compare field by field, and a record hashes when
each of its fields does; the repr names every field."""

import math
from fractions import Fraction

import pytest

from genus_forge.bounds import BoundParams, BoundReport, IndexBoundReport
from genus_forge.covering import CoverDiameter, Tower, TowerLevel
from genus_forge.manifolds import ManifoldData
from genus_forge.modular import ModularCheck, ModularFit

PARAMS = dict(m=4, p=5.0, Lambda=1.0, diam=1.0, b=1.0, cmp=1.0, v=2.0, l=1)
REPORT = dict(inputs=BoundParams(**PARAMS), mu=2.0, K1=2.0, K2=1.0, c_of_b=0.5,
              R=1.0, B=3.0, constant=9.0)

# (class, every field in constructor order, one field changed)
CASES = [
    (ManifoldData, dict(name="Q", real_dim=8, pontryagin_numbers={(2,): 7, (1, 1): 4},
                        chern_numbers=None, complex_dim=None, spin=True, string=False,
                        asserted_genera={"ahat": Fraction(0)}), dict(spin=False)),
    (BoundParams, PARAMS, dict(diam=2.0)),
    (BoundReport, REPORT, dict(constant=10.0)),
    (IndexBoundReport, dict(REPORT, dim_bound=9.0, index_bound=9.0), dict(index_bound=8.0)),
    (TowerLevel, dict(j=2, scale=2, index=4), dict(index=8)),
    (Tower, dict(k=2, levels=[TowerLevel(j=1, scale=1, index=1)]), dict(k=3)),
    (CoverDiameter, dict(base_diam=2, cover_diam=6, index=4, inequality_holds=True),
     dict(inequality_holds=False)),
    (ModularFit, dict(manifold="K3", weight=2, coefficients={(1, 0): Fraction(2)},
                      residual_ok=True, checked_order=12, first_mismatch=None),
     dict(first_mismatch=(3, Fraction(1, 2)))),
    (ModularCheck, dict(manifold="HP2", tau_im=2.0, q_trunc=48, tol=1e-8, lhs=1j, rhs=1j,
                        abs_error=0.0, passed=True), dict(tol=1e-9)),
]


@pytest.mark.parametrize("cls, fields, change", CASES, ids=[c[0].__name__ for c in CASES])
def test_record_contracts(cls, fields, change):
    record = cls(**fields)
    assert cls(*fields.values()) == record  # positional order is the field order
    assert record != cls(**{**fields, **change})
    assert repr(record) == f"{cls.__name__}(" + ", ".join(
        f"{name}={getattr(record, name)!r}" for name in fields) + ")"
    for name in fields:
        with pytest.raises(AttributeError):
            setattr(record, name, None)
        with pytest.raises(AttributeError):
            delattr(record, name)
    with pytest.raises(AttributeError):
        record.extra = 1
    if all(_hashes(value) for value in fields.values()):
        assert hash(record) == hash(cls(*fields.values()))
    else:  # a mapping or list field: ManifoldData, Tower, ModularFit
        with pytest.raises(TypeError):
            hash(record)


def _hashes(value):
    try:
        hash(value)
    except TypeError:
        return False
    return True


def test_records_of_different_classes_differ():
    report = BoundReport(**REPORT)
    extended = IndexBoundReport(**REPORT)
    assert report != extended and math.isnan(extended.dim_bound)
    assert {TowerLevel(1, 1, 1), TowerLevel(1, 1, 1)} == {TowerLevel(j=1, scale=1, index=1)}

