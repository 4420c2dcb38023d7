"""Acceptance gate: twelve headline criteria, one test and one printed
PASS/FAIL line each.

Scope notes live next to the criteria they affect: entries enter a sweep
only where the quantity is defined (dimension divisible by 4, full
characteristic data), asserted-only entries must refuse loudly, and the
covering sweep runs where the graph model is metrically faithful.
"""

import random
import time
import warnings
from contextlib import contextmanager
from fractions import Fraction
from itertools import product as iproduct
from math import comb, factorial

import pytest

from genus_forge.bounds import BoundParams, c_of_b, index_bound_report
from genus_forge.catalog import load_default_catalog
from genus_forge.covering import TorusQuotientGraph, cover_diameter, l2_betti_ratio
from genus_forge.elliptic import EllKind, elliptic_genus, twisted_indices
from genus_forge.errors import (
    DimensionError,
    InsufficientData,
    NonIntegralIndexWarning,
)
from genus_forge.genera import GenusKind, genus_value, hypersurface_todd
from genus_forge.manifolds import cp
from genus_forge.modular import eisenstein, modular_relation_check, witten_fit

import theta_oracle

CATALOG = load_default_catalog()


@contextmanager
def criterion(num: int, description: str):
    try:
        yield
    except BaseException:
        print(f"\n[criterion {num:02d}] FAIL - {description}")
        raise
    print(f"\n[criterion {num:02d}] PASS - {description}")


def full_data_entries(lo: int = 4, hi: int = 16):
    """Entries with computable characteristic numbers in dimensions where
    the elliptic-type genera are defined (multiples of 4)."""
    return [
        e for e in CATALOG.values()
        if e.real_dim % 4 == 0
        and lo <= e.real_dim <= hi
        and (e.pontryagin_numbers is not None or e.chern_numbers is not None)
    ]


def test_criterion_01_todd_of_projective_spaces():
    with criterion(1, "Todd genus of CPn is 1 for n = 1..6, under 1 s"):
        t0 = time.monotonic()
        for n in range(1, 7):
            assert genus_value(cp(n), GenusKind.TODD) == 1
        assert time.monotonic() - t0 < 1.0


def test_criterion_02_connected_sum_examples():
    with criterion(2, "connected-sum values: Ahat=1, signature=1, Ahat=0, under 1 s"):
        t0 = time.monotonic()
        with_b8 = CATALOG.get("T2xS6_sharp_B8")
        with_hp2 = CATALOG.get("T2xS6_sharp_HP2")
        assert genus_value(with_b8, GenusKind.AHAT) == 1
        assert genus_value(with_hp2, GenusKind.SIGNATURE) == 1
        assert genus_value(with_hp2, GenusKind.AHAT) == 0
        assert time.monotonic() - t0 < 1.0


def test_criterion_03_hypersurface_todd_closed_form():
    with criterion(3, "hypersurface Todd equals (-1)^n D/(n+1)! for n <= 8, |D| <= 100"):
        for n in range(1, 9):
            for d in range(-100, 101):
                assert hypersurface_todd(n, d) == Fraction((-1) ** n * d, factorial(n + 1))


def test_criterion_04_formulation_equivalence():
    with criterion(4, "theta-product genera equal twisted-index series to q^12 "
                      "on all 12 full-data entries of dim 4..16, under 60 s"):
        t0 = time.monotonic()
        entries = full_data_entries()
        assert len(entries) == 12
        trunc = 25  # half-exponents through 24, i.e. every power through q^12
        # left: the theta-product route of the test oracle; middle: its
        # twisted-index series, Ahat times the bundle characters; right: the
        # package's genus, whose indices twisted_indices reads
        for e in entries:
            for kind, family in ((EllKind.ELL2, "B"), (EllKind.WITTEN, "W")):
                theta = theta_oracle.elliptic_genus(e, kind, trunc)
                assert theta == theta_oracle.twisted_index_series(e, family, trunc)
                assert theta_oracle.agrees(elliptic_genus(e, kind, trunc).series, theta)
        assert time.monotonic() - t0 < 60.0


def test_criterion_05_leading_terms():
    with criterion(5, "q^0 of Ell2/Witten is Ahat and q^0 of Ell1 is the "
                      "signature on all full-data entries"):
        # right: Ahat and the signature from the test oracle's Newton-route
        # classes, paired with the characteristic numbers
        for e in full_data_entries():
            ahat = theta_oracle.genus_value(e, GenusKind.AHAT)
            sig = theta_oracle.genus_value(e, GenusKind.SIGNATURE)
            assert elliptic_genus(e, EllKind.ELL2, 5).series.coeff(0) == ahat
            assert elliptic_genus(e, EllKind.WITTEN, 5).series.coeff(0) == ahat
            assert elliptic_genus(e, EllKind.ELL1, 5).series.coeff(0) == sig


def test_criterion_06_modular_relation():
    with criterion(6, "S-transformation error < 1e-8 at tau = 1.5i and 2i for "
                      "HP2, K3xK3 and two seeded random dim-8 entries, under 30 s"):
        t0 = time.monotonic()
        dim8 = sorted(e.name for e in full_data_entries(8, 8))
        rng = random.Random(6)
        names = {"HP2", "K3xK3"} | set(rng.sample(dim8, 2))
        for name in sorted(names):
            entry = CATALOG.get(name)
            for tau_im in (1.5, 2.0):
                chk = modular_relation_check(entry, tau_im=tau_im, q_trunc=49,
                                             tol=1e-8)
                assert chk.passed, (name, tau_im, chk.abs_error)
        assert time.monotonic() - t0 < 30.0


def test_criterion_07_eisenstein_goldens():
    with criterion(7, "E4 and E6 coefficients through q^3 match the classical values"):
        e4 = eisenstein("E4", 9)
        assert [e4.coeff(2 * n) for n in range(4)] == [1, 240, 2160, 6720]
        e6 = eisenstein("E6", 9)
        assert [e6.coeff(2 * n) for n in range(4)] == [1, -504, -16632, -122976]


def test_criterion_08_witten_fit_both_ways():
    with criterion(8, "weight-4 fit is exact for p1-zero dim-8 data and fails "
                      "with a reported residual for K3xK3"):
        from genus_forge.manifolds import ManifoldData
        x8 = ManifoldData(name="X8", real_dim=8, spin=True, string=True,
                          pontryagin_numbers={(2,): -1440})
        fit = witten_fit(x8, 49)
        assert fit.residual_ok and fit.coefficients == {(1, 0): Fraction(1)}
        bad = witten_fit(CATALOG.get("K3xK3"), 49)
        assert not bad.residual_ok
        assert bad.first_mismatch == (2, Fraction(-1152))


def test_criterion_09_spin_integrality():
    with criterion(9, "all twisted indices B_k (k <= 16) and W_j (j <= 8) are "
                      "integers on the 10 spin full-data entries; asserted-only "
                      "spin entries refuse"):
        spin_full = [e for e in full_data_entries(4, 24) if e.spin]
        assert len(spin_full) == 10
        with warnings.catch_warnings():
            warnings.simplefilter("error", NonIntegralIndexWarning)
            for e in spin_full:
                for value in twisted_indices(e, "B", 16):
                    assert value.denominator == 1, (e.name, value)
                for value in twisted_indices(e, "W", 8):
                    assert value.denominator == 1, (e.name, value)
        for name in ("B8", "W24", "T2xS6_sharp_B8"):
            entry = CATALOG.get(name)
            assert entry.spin
            with pytest.raises(InsufficientData):
                twisted_indices(entry, "B", 2)


def test_criterion_10_analytic_constants():
    with criterion(10, "c_of_b matches the m=2 closed form to 1e-10, the "
                       "Lambda=0 constant to 1e-12, K1/K2 to 1e-12"):
        import math
        for b in (0.5, 1.0, 2.0, 5.0):
            ch, sh = math.cosh(b) - 1.0, math.sinh(b)
            exact = (-sh + math.sqrt(sh * sh + 8.0 * ch)) / (2.0 * ch)
            assert abs(c_of_b(2, b) - exact) <= 1e-10 * exact
        rep = index_bound_report(BoundParams(m=4, p=5.0, Lambda=0.0, diam=1.0, b=1.0))
        assert rep.B == 2.0
        denom = rep.mu * 4.0 - 5.0
        expected = rep.mu ** (2.0 * rep.K1 * 5.0 * (rep.mu - 1.0) / denom) * 2.0 ** (2.0 * rep.K2)
        assert abs(rep.constant - expected) <= 1e-12 * expected
        for mu in (2.0, 3.0):
            assert abs(sum(i * mu**-i for i in range(1, 80)) - mu / (mu - 1) ** 2) < 1e-12
            assert abs(sum(mu**-i for i in range(1, 80)) - 1 / (mu - 1)) < 1e-12


def test_criterion_11_covering_lab():
    with criterion(11, "cover inequality holds on the faithful grid, BFS "
                       "diameters match the closed form up to 10^4 vertices, "
                       "l2 ratios strictly decrease to 0"):
        # inequality sweep: k = 1 over even moduli (floor(n/2) only equals the
        # circle diameter for even n and the index gives no slack at k = 1),
        # k = 2, 3 over all moduli >= 2
        for moduli in iproduct((2, 4, 6), repeat=1):
            for sf in range(1, 5):
                assert cover_diameter(1, moduli, sf).inequality_holds
        for k in (2, 3):
            for moduli in iproduct(range(2, 7), repeat=k):
                for sf in range(1, 5):
                    assert cover_diameter(k, moduli, sf).inequality_holds
        # BFS against the closed form, exhaustively small then spot-checked
        # at the 10^4-vertex scale
        for k in (1, 2, 3):
            for moduli in iproduct(range(1, 7), repeat=k):
                g = TorusQuotientGraph(moduli)
                assert g.diameter() == sum(n // 2 for n in moduli)
        for n in range(1, 201):
            g = TorusQuotientGraph((n,))
            assert g.diameter() == n // 2
        for moduli in ((9999,), (99, 101), (100, 100), (21, 21, 21), (4, 50, 50)):
            g = TorusQuotientGraph(moduli)
            assert g.vertex_count <= 10**4
            assert g.diameter() == sum(n // 2 for n in moduli)
        # l2 ratio decay
        for k, p, J in ((1, 0, 6), (2, 1, 5), (3, 2, 4), (4, 2, 3)):
            seq = l2_betti_ratio(k, p, J)
            assert seq[0] == comb(k, p)
            assert all(a > b for a, b in zip(seq, seq[1:]))
            assert seq[-1] == Fraction(comb(k, p), 2 ** ((J - 1) * k))
            assert seq[-1] < Fraction(seq[0], 2 ** ((J - 1) * k - 1))


def test_criterion_12_torus_factor_vanishing():
    with criterion(12, "all three genera vanish identically on every entry "
                       "with a torus factor; the dim-2 torus refuses"):
        torus_factor_names = ["T4", "T2xS6", "T4xK3"]
        for name in torus_factor_names:
            entry = CATALOG.get(name)
            assert entry is not None
            for kind in EllKind:
                series = elliptic_genus(entry, kind, 25).series
                assert not series, (name, kind)
        # T2 carries a torus factor too, but no genus of a dim-2 entry is
        # defined; the refusal is the documented behavior
        with pytest.raises(DimensionError):
            elliptic_genus(CATALOG.get("T2"), EllKind.WITTEN, 25)
