"""Manifold data validation, the power-sum table, stored Pontryagin numbers
against the oracle's Chern -> Pontryagin conversion, and the product /
connected-sum closure operations."""

import time
from fractions import Fraction

import pytest

import theta_oracle
from genus_forge.errors import (
    DimensionError,
    InconsistentData,
    InsufficientData,
    TooLarge,
    UnknownManifold,
)
from genus_forge.genera import genus_value
from genus_forge.manifolds import (
    MAX_REAL_DIM,
    GenusKind,
    ManifoldData,
    builtin,
    connected_sum,
    cp,
    hp2,
    k3,
    numbers_from_s,
    partitions_of,
    product,
    sphere,
    torus,
)


def test_partitions_of():
    assert list(partitions_of(0)) == [()]
    assert set(partitions_of(4)) == {(4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)}


def test_cp3_chern_numbers():
    entry = cp(3)
    assert entry.chern_numbers == {(1, 1, 1): 64, (2, 1): 24, (3,): 4}
    assert entry.complex_dim == 3 and entry.real_dim == 6
    assert entry.spin  # odd n


def test_cp2_pontryagin_via_conversion():
    entry = cp(2)
    assert not entry.spin
    assert theta_oracle.pontryagin_from_chern(entry.chern_numbers, 2) == {(1,): 3}
    assert theta_oracle.pontryagin_from_chern(torus(4).chern_numbers, 2) == {}


def test_k3_stated_p1_matches_conversion():
    entry = k3()
    assert entry.pontryagin_numbers == {(1,): -48}
    assert entry.pontryagin_numbers == theta_oracle.pontryagin_from_chern(entry.chern_numbers, 2)
    # Chern data alone gives the genera of the stated p_1: Ahat 2, signature -16
    chern_only = ManifoldData(name="K3", real_dim=4, chern_numbers=entry.chern_numbers)
    for kind, value in ((GenusKind.AHAT, 2), (GenusKind.SIGNATURE, -16)):
        assert genus_value(chern_only, kind) == genus_value(entry, kind) == value


def test_cp_pontryagin_closed_form_matches_conversion():
    for n in range(2, 13, 2):
        entry = cp(n)
        assert entry.pontryagin_numbers == theta_oracle.pontryagin_from_chern(
            entry.chern_numbers, n
        ), n


def test_back_solve_refuses_non_integral_data():
    # s_(1,1) = e1^2 and s_(2) = e1^2 - 2 e2: s_(2) = 1 with s_(1,1) = 0 needs e2 = -1/2
    with pytest.raises(InconsistentData, match="non-integral number -1/2 for \\(2,\\)"):
        numbers_from_s({(2,): 1}, 2)
    assert numbers_from_s({(2,): -10, (1, 1): 4}, 2) == hp2().pontryagin_numbers


def test_k3_and_hp2_data():
    entry = k3()
    assert entry.chern_numbers == {(2,): 24}
    assert theta_oracle.pontryagin_from_chern(entry.chern_numbers, 2) == {(1,): -48}
    assert entry.spin and not entry.string
    quat = hp2()
    assert quat.pontryagin_numbers == {(1, 1): 4, (2,): 7}
    assert quat.spin and not quat.string


def test_spheres_and_tori():
    s6 = sphere(6)
    assert s6.pontryagin_numbers == {} and s6.spin and s6.string
    t4 = torus(4)
    assert t4.pontryagin_numbers == {} and t4.chern_numbers == {}
    assert t4.complex_dim == 2
    with pytest.raises(UnknownManifold):
        sphere(3)
    with pytest.raises(UnknownManifold):
        torus(5)
    with pytest.raises(DimensionError):
        cp(0)


def test_builtin_parser():
    assert builtin("CP4").name == "CP4"
    assert builtin("S8").real_dim == 8
    assert builtin("T6").real_dim == 6
    assert builtin("K3").chern_numbers == {(2,): 24}
    assert builtin("HP2").real_dim == 8
    with pytest.raises(UnknownManifold):
        builtin("Gr(2,5)")
    # leading zeros are read as a number's are, however many there are
    assert builtin("CP003").name == builtin("CP" + "0" * 5000 + "3").name == "CP3"


def test_real_dimension_cap():
    assert MAX_REAL_DIM == 48
    # at the cap: accepted
    assert cp(24).real_dim == torus(48).real_dim == sphere(48).real_dim == 48
    assert product(sphere(24), sphere(24)).real_dim == 48
    # two past the cap: refused before any partition is enumerated
    for build in (lambda: cp(25), lambda: torus(50), lambda: sphere(50),
                  lambda: product(cp(12), cp(13)), lambda: builtin("CP1000000"),
                  lambda: builtin("T1000000"),
                  # n past str()'s 4,300-digit limit is refused by its length
                  lambda: builtin("CP" + "9" * 5000), lambda: builtin("S" + "9" * 5000),
                  lambda: ManifoldData(name="big", real_dim=10**5000, pontryagin_numbers={}),
                  lambda: ManifoldData(name="big", real_dim=50, pontryagin_numbers={})):
        with pytest.raises(TooLarge, match="exceeds the cap of 48"):
            build()
    # asserted-only data is stored, not enumerated: no cap
    asserted = ManifoldData(name="big", real_dim=52, asserted_genera={"ahat": 3})
    assert genus_value(asserted, GenusKind.AHAT) == 3


def test_validation_rejections():
    with pytest.raises(DimensionError):
        ManifoldData(name="odd", real_dim=5, pontryagin_numbers={})
    with pytest.raises(DimensionError, match="^real_dim a negative integer of 16610 bits"):
        ManifoldData(name="neg", real_dim=-10**5000, pontryagin_numbers={})
    for key, shown in (((10**5000,), r"\(an integer of 16610 bits\) sums to an integer"),
                       ((1, -10**5000), r"\(1, a negative integer of 16610 bits\) is not")):
        with pytest.raises(InconsistentData, match=f"^Pontryagin partition {shown}"):
            ManifoldData(name="X", real_dim=4, pontryagin_numbers={key: 1})
    with pytest.raises(InconsistentData):
        ManifoldData(name="str-not-spin", real_dim=4, pontryagin_numbers={},
                     spin=False, string=True)
    with pytest.raises(InconsistentData):
        # partition sum exceeds the available weight
        ManifoldData(name="bad-part", real_dim=4, pontryagin_numbers={(2,): 1})
    with pytest.raises(DimensionError):
        # dimension 2 mod 4 cannot carry Pontryagin numbers
        ManifoldData(name="bad-dim", real_dim=6, pontryagin_numbers={(1,): 3})
    with pytest.raises(InsufficientData):
        ManifoldData(name="empty", real_dim=4)
    with pytest.raises(InconsistentData):
        ManifoldData(name="bad-genus", real_dim=4,
                     asserted_genera={"euler": Fraction(2)})
    with pytest.raises(DimensionError):
        # chern data requires the matching complex dimension
        ManifoldData(name="bad-cplx", real_dim=4, chern_numbers={(2,): 24},
                     complex_dim=3)
    # bool is an int subclass, but neither a part nor a number
    with pytest.raises(InconsistentData, match="is not a partition"):
        ManifoldData(name="X", real_dim=4, pontryagin_numbers={(True,): True})
    with pytest.raises(InconsistentData, match="must be an integer"):
        ManifoldData(name="X", real_dim=4, pontryagin_numbers={(1,): True})
    # every field is type-checked by the constructor, not only by the catalog
    for bad in (dict(real_dim=4.0), dict(real_dim=True), dict(spin="no"), dict(spin=1),
                dict(string=0), dict(name=7)):
        with pytest.raises(InconsistentData, match="has wrong type"):
            ManifoldData(**{"name": "X", "real_dim": 4, "pontryagin_numbers": {(1,): 3}, **bad})
    with pytest.raises(InconsistentData, match="'complex_dim' has wrong type bool"):
        ManifoldData(name="X", real_dim=2, chern_numbers={(1,): 2}, complex_dim=True)
    for text in ("two", "1/0", None, float("inf")):
        with pytest.raises(InconsistentData, match="bad rational"):
            ManifoldData(name="X", real_dim=4, asserted_genera={"ahat": text})


def test_badly_shaped_maps_raise_typed_errors():
    with pytest.raises(InconsistentData, match="'pontryagin_numbers' has wrong type list"):
        ManifoldData(name="X", real_dim=4, pontryagin_numbers=[1])
    with pytest.raises(InconsistentData, match="'chern_numbers' has wrong type list"):
        ManifoldData(name="X", real_dim=4, chern_numbers=[(2,), 24])
    with pytest.raises(InconsistentData, match="'asserted_genera' has wrong type list"):
        ManifoldData(name="X", real_dim=4, asserted_genera=["ahat"])
    # an int key in place of a partition tuple, and a tuple of non-integers
    with pytest.raises(InconsistentData, match="partition 1 is not a partition"):
        ManifoldData(name="X", real_dim=4, pontryagin_numbers={1: 3})
    with pytest.raises(InconsistentData, match="is not a partition"):
        ManifoldData(name="X", real_dim=4, pontryagin_numbers={(1, "a"): 3})


def test_asserted_values_must_be_exact():
    # 0.1 is not 1/10 in binary64, so a float is refused rather than converted
    with pytest.raises(InconsistentData, match="bad rational 0.1"):
        ManifoldData(name="X", real_dim=4, asserted_genera={"ahat": 0.1})
    with pytest.raises(InconsistentData, match="bad rational True"):
        ManifoldData(name="X", real_dim=4, asserted_genera={"ahat": True})
    exact = {"ahat": Fraction(1, 10), "todd": 2, "signature": "-3/4"}
    entry = ManifoldData(name="X", real_dim=4, asserted_genera=exact)
    assert entry.asserted_genera == {"ahat": Fraction(1, 10), "todd": 2,
                                     "signature": Fraction(-3, 4)}


def test_asserted_strings_take_only_the_written_form():
    # Fraction alone takes exponent notation, so these 12 characters would
    # build 10^1000000000; only sign, digits and /digits are parsed
    start = time.perf_counter()
    for text in ("1e1000000000", "1E5", "1.5", " 3", "1_000", "\u0663", "3/-4", "3 / 4",
                 "", "inf", "nan", "0x10"):
        with pytest.raises(InconsistentData, match="bad rational"):
            ManifoldData(name="X", real_dim=4, asserted_genera={"ahat": text})
    assert time.perf_counter() - start < 1.0
    entry = ManifoldData(name="X", real_dim=4,
                         asserted_genera={"ahat": "3/4", "todd": "-2", "signature": "+5"})
    assert entry.asserted_genera == {"ahat": Fraction(3, 4), "todd": -2, "signature": 5}


def test_product_kuenneth():
    prod = product(k3(), k3())
    assert prod.name == "K3xK3"
    assert prod.real_dim == 8
    assert prod.pontryagin_numbers == {(1, 1): 4608, (2,): 2304}
    # multiplicativity oracle
    assert genus_value(prod, GenusKind.AHAT) == 4


def test_product_with_two_mod_four_factor():
    prod = product(torus(2), sphere(6))
    assert prod.real_dim == 8
    assert prod.pontryagin_numbers == {}
    assert prod.spin and prod.string
    assert genus_value(prod, GenusKind.AHAT) == 0
    assert genus_value(prod, GenusKind.SIGNATURE) == 0


def test_product_chern_route():
    prod = product(cp(1), cp(2))
    assert prod.complex_dim == 3
    assert genus_value(prod, GenusKind.TODD) == 1
    both = product(cp(1), cp(1))
    assert genus_value(both, GenusKind.TODD) == 1


def test_product_at_the_frontier():
    # dimension 40: the power-sum split keeps this to about a second
    big = product(cp(10), cp(10))
    assert big.real_dim == 40
    assert genus_value(big, GenusKind.TODD) == 1
    assert genus_value(big, GenusKind.SIGNATURE) == 1


def test_product_requires_matching_data():
    asserted_only = ManifoldData(name="A8", real_dim=8, spin=True,
                                 asserted_genera={"ahat": Fraction(1)})
    with pytest.raises(InsufficientData):
        product(k3(), asserted_only)


def test_connected_sum_pontryagin_addition():
    total = connected_sum(k3(), k3())
    assert total.pontryagin_numbers == {(1,): -96}
    assert genus_value(total, GenusKind.AHAT) == 4
    assert genus_value(total, GenusKind.SIGNATURE) == -32


def test_connected_sum_dimension_mismatch():
    with pytest.raises(DimensionError):
        connected_sum(k3(), hp2())


def test_connected_sum_asserted_path():
    t2xs6 = product(torus(2), sphere(6))
    b8 = ManifoldData(name="B8", real_dim=8, spin=True,
                      asserted_genera={"ahat": Fraction(1)})
    total = connected_sum(t2xs6, b8)
    assert genus_value(total, GenusKind.AHAT) == 1
    with pytest.raises(InsufficientData):
        genus_value(total, GenusKind.SIGNATURE)

    with_hp2 = connected_sum(t2xs6, hp2())
    assert genus_value(with_hp2, GenusKind.SIGNATURE) == 1
    assert genus_value(with_hp2, GenusKind.AHAT) == 0


def test_normalization_of_numbers():
    entry = ManifoldData(name="N", real_dim=8,
                         pontryagin_numbers={(1, 1): 4, (2,): 7})
    same = ManifoldData(name="N", real_dim=8,
                        pontryagin_numbers={(1, 1): 4, (2,): 7, (1, 1): 4})
    assert entry.pontryagin_numbers == same.pontryagin_numbers
    dropped = ManifoldData(name="Z", real_dim=8,
                           pontryagin_numbers={(1, 1): 0, (2,): 7})
    assert dropped.pontryagin_numbers == {(2,): 7}
    # (2, 1) and (1, 2) name the same monomial c2*c1: equal values merge
    merged = ManifoldData("Q", 6, chern_numbers={(2, 1): 1, (1, 2): 1})
    assert merged.chern_numbers == {(2, 1): 1} and merged.complex_dim == 3
    with pytest.raises(InconsistentData, match=r"duplicate Chern partition \(2, 1\)"):
        ManifoldData("Q", 6, chern_numbers={(2, 1): 1, (1, 2): 2})
