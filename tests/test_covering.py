"""Discrete covering-tower checks: BFS diameters of torus-quotient graphs
against the closed form and a BFS on the unfolded graph, index growth along
towers, and the l2 ratio decay."""

from collections import deque
from itertools import product as iproduct
from fractions import Fraction
from math import comb

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from genus_forge.covering import (
    DEFAULT_VERTEX_CAP,
    MAX_TOWER_DEPTH,
    MAX_TOWER_RANK,
    CoverDiameter,
    TorusQuotientGraph,
    Tower,
    cover_diameter,
    l2_betti_ratio,
    tower,
)
from genus_forge.errors import DomainError, TooLarge


def _closed_form_diameter(moduli) -> int:
    """sum of floor(n_i / 2): the diameter the BFS must reproduce."""
    return sum(n // 2 for n in moduli)


def _unfolded_eccentricity(moduli, source=None) -> int:
    """Plain BFS over Z/n_1 x ... x Z/n_k with +-e_i neighbours, one vertex
    tuple at a time: the graph the folded bitset kernel stands for."""
    source = source or (0,) * len(moduli)
    dist = {source: 0}
    queue = deque([source])
    while queue:
        v = queue.popleft()
        for i, n in enumerate(moduli):
            for step in (1, -1):
                w = v[:i] + ((v[i] + step) % n,) + v[i + 1:]
                if w not in dist:
                    dist[w] = dist[v] + 1
                    queue.append(w)
    return max(dist.values())


def test_bfs_matches_unfolded_oracle_exhaustive():
    shapes = [m for k in (1, 2, 3) for m in iproduct(range(1, 7), repeat=k)]
    shapes += iproduct(range(1, 5), repeat=4)
    for moduli in shapes:
        assert TorusQuotientGraph(moduli).diameter() == _unfolded_eccentricity(moduli), moduli


def test_unfolded_graph_is_vertex_transitive():
    # the premise of diameter(): every source has the eccentricity of 0
    shapes = [m for k in (1, 2) for m in iproduct(range(1, 6), repeat=k)]
    shapes += iproduct(range(1, 4), repeat=3)
    for moduli in shapes:
        eccentricities = {_unfolded_eccentricity(moduli, v)
                          for v in iproduct(*(range(n) for n in moduli))}
        assert eccentricities == {_unfolded_eccentricity(moduli)}, moduli


def test_bfs_matches_closed_form_exhaustive():
    for k in (1, 2, 3):
        for moduli in iproduct(range(1, 7), repeat=k):
            g = TorusQuotientGraph(moduli)
            assert g.diameter() == _closed_form_diameter(moduli)


def test_bfs_matches_closed_form_line():
    for n in range(1, 201):
        g = TorusQuotientGraph((n,))
        assert g.diameter() == n // 2


def test_bfs_matches_closed_form_spots():
    # (5000, 200) and (4096, 244) are vertex-cap graphs whose long outer axis
    # takes thousands of levels, each a frontier window of ~200 positions
    for moduli in ((9999,), (99, 101), (100, 100), (21, 21, 21), (4, 50, 50),
                   (5000, 200), (4096, 244)):
        g = TorusQuotientGraph(moduli)
        assert g.diameter() == _closed_form_diameter(moduli)


@st.composite
def _torus_moduli(draw, max_vertices=40_000):
    """k = 1..6 moduli in 1..40 with at most max_vertices vertices, in a
    drawn order so that small moduli land on every axis."""
    budget = max_vertices
    moduli = []
    for _ in range(draw(st.integers(1, 6))):
        n = draw(st.integers(1, min(40, budget)))
        budget //= n
        moduli.append(n)
    return tuple(draw(st.permutations(moduli)))


@settings(deadline=None)
@given(_torus_moduli())
@example((1,))
@example((2,))
@example((2, 1, 2))
@example((1, 40, 2, 1))
def test_bfs_matches_closed_form_property(moduli):
    g = TorusQuotientGraph(moduli)
    assert g.diameter() == _closed_form_diameter(moduli)


@settings(deadline=None)
@given(_torus_moduli(max_vertices=3_000))
@example((1,))
@example((2,))
@example((2, 1, 2))
@example((2,) * 11)
def test_bfs_matches_unfolded_oracle_property(moduli):
    assert TorusQuotientGraph(moduli).diameter() == _unfolded_eccentricity(moduli)


@st.composite
def _skewed_moduli(draw, max_vertices=200_000):
    """One long axis of up to 2e4 next to one to four short axes of 1..12,
    n = 2 included, in a drawn order: the frontier window then spans many
    outer positions, and the long axis need not come last."""
    long_axis = draw(st.integers(2, 20_000))
    budget = max_vertices // long_axis
    moduli = [long_axis]
    for _ in range(draw(st.integers(1, 4))):
        n = draw(st.just(2) | st.integers(1, 12))
        if n > budget:
            break
        budget //= n
        moduli.append(n)
    return tuple(draw(st.permutations(moduli)))


@settings(deadline=None, max_examples=60)
@given(_skewed_moduli())
@example((20_000, 2))
@example((2, 2, 9999))
@example((3, 19_999))
def test_bfs_matches_closed_form_skewed(moduli):
    assert TorusQuotientGraph(moduli).diameter() == _closed_form_diameter(moduli)


def test_bfs_former_threshold_shapes():
    # long cycles either side of modulus 4096, unit moduli and a 2^10 hypercube
    for moduli in ((4096,), (4097,), (2, 5000), (3, 3, 4000), (1,), (1, 1, 1), (2,) * 10):
        assert TorusQuotientGraph(moduli).diameter() == _closed_form_diameter(moduli), moduli


def test_vertex_count_and_cap():
    g = TorusQuotientGraph((4, 5, 6))
    assert g.vertex_count == 120 and len(g.moduli) == 3
    with pytest.raises(TooLarge):
        TorusQuotientGraph((101, 101, 101))
    # the cap bounds the graph itself: neither case runs a BFS
    with pytest.raises(TooLarge, match="1001000 vertices exceeds the cap of 1000000"):
        TorusQuotientGraph((1000, 1001))
    # a count past str()'s 4,300-digit limit is shown by its size
    vast = 10**2000 - 1
    with pytest.raises(TooLarge, match="^an integer of 19932 bits vertices exceeds the cap"):
        TorusQuotientGraph((vast, vast, vast))
    assert TorusQuotientGraph((1000, 1000)).vertex_count == DEFAULT_VERTEX_CAP


def test_moduli_validation():
    for bad in ((), (0,), (-3,), (2, 0), (True,), (2.5,)):
        with pytest.raises(DomainError):
            TorusQuotientGraph(bad)


def test_unit_moduli_edges():
    assert TorusQuotientGraph((1,)).diameter() == 0
    assert TorusQuotientGraph((1, 5)).diameter() == 2
    assert TorusQuotientGraph((1, 1, 1)).diameter() == 0


def test_tower_examples():
    t = tower(1, 4)
    assert [lv.index for lv in t.levels] == [1, 2, 4, 8]
    assert [lvl.scale for lvl in t.levels] == [1, 2, 4, 8]
    t3 = tower(3, 3)
    assert [lv.index for lv in t3.levels] == [1, 8, 64]
    assert [lv.index for lv in tower(2, 1).levels] == [1]
    assert isinstance(t3, Tower) and t3.k == 3
    assert [lvl.j for lvl in t3.levels] == [1, 2, 3]


def test_tower_validation():
    with pytest.raises(DomainError):
        tower(0, 3)
    with pytest.raises(DomainError):
        tower(2, 0)
    with pytest.raises(TooLarge):
        tower(1, MAX_TOWER_DEPTH + 1)
    with pytest.raises(TooLarge):
        tower(MAX_TOWER_RANK + 1, 1)
    # past str()'s 4,300-digit limit the value is shown by its size
    with pytest.raises(TooLarge, match="^rank an integer of 16610 bits exceeds the cap of 64$"):
        tower(10**5000, 1)
    with pytest.raises(DomainError, match="got a negative integer of 16610 bits$"):
        tower(-10**5000, 1)


def test_cover_diameter_goldens():
    rep = cover_diameter(1, (4,), 2)
    assert (rep.base_diam, rep.cover_diam, rep.index) == (2, 4, 2)
    assert rep.inequality_holds
    rep = cover_diameter(2, (3, 3), 2)
    assert (rep.base_diam, rep.cover_diam, rep.index) == (2, 6, 4)
    assert rep.inequality_holds
    ident = cover_diameter(2, (5, 7), 1)
    assert ident.base_diam == ident.cover_diam == 5 and ident.index == 1
    assert ident.inequality_holds


def test_cover_inequality_exhaustive():
    # Graph diameter floor(n/2) is the circle diameter n/2 only for even n.
    # At k = 1 the index gives no slack, so the sweep keeps even moduli
    # there; for k >= 2 the index growth absorbs the odd-floor deficit.
    for moduli in iproduct((2, 4, 6), repeat=1):
        for sf in range(1, 5):
            assert cover_diameter(1, moduli, sf).inequality_holds
    for k in (2, 3):
        for moduli in iproduct(range(2, 7), repeat=k):
            for sf in range(1, 5):
                rep = cover_diameter(k, moduli, sf)
                assert isinstance(rep, CoverDiameter)
                assert rep.index == sf**k
                assert rep.inequality_holds


def test_cover_inequality_artifacts_reported_honestly():
    # modulus-1 base: single vertex, diameter 0, cover cannot satisfy it
    rep = cover_diameter(1, (1,), 2)
    assert rep.base_diam == 0 and rep.cover_diam == 1
    assert not rep.inequality_holds
    # odd k=1 base: floor(3/2) = 1 undercounts the true diameter 3/2
    odd = cover_diameter(1, (3,), 2)
    assert (odd.base_diam, odd.cover_diam, odd.index) == (1, 3, 2)
    assert not odd.inequality_holds


def test_cover_diameter_validation():
    with pytest.raises(DomainError):
        cover_diameter(2, (3,), 2)  # moduli length must equal k
    with pytest.raises(DomainError):
        cover_diameter(1, (4,), 0)
    with pytest.raises(DomainError):
        cover_diameter(1, (4,), True)
    with pytest.raises(TooLarge):
        cover_diameter(3, (100, 100, 100), 2)


def test_l2_ratio_goldens():
    assert l2_betti_ratio(2, 1, 3) == [Fraction(2), Fraction(1, 2), Fraction(1, 8)]
    assert l2_betti_ratio(1, 0, 4) == [
        Fraction(1), Fraction(1, 2), Fraction(1, 4), Fraction(1, 8)
    ]
    assert l2_betti_ratio(3, 3, 2) == [Fraction(1), Fraction(1, 8)]


def test_l2_ratio_decay():
    for k, p, J in ((2, 1, 6), (3, 2, 5), (4, 0, 4)):
        seq = l2_betti_ratio(k, p, J)
        assert len(seq) == J
        assert seq[0] == comb(k, p)
        assert all(a > b for a, b in zip(seq, seq[1:]))  # strictly decreasing
        assert seq[-1] == Fraction(comb(k, p), 2 ** ((J - 1) * k))  # exact
        assert seq[-1] < Fraction(seq[0], 2 ** ((J - 1) * k - 1))


def test_l2_ratio_validation():
    with pytest.raises(DomainError):
        l2_betti_ratio(0, 0, 2)
    with pytest.raises(DomainError):
        l2_betti_ratio(2, 3, 2)  # p > k
    with pytest.raises(DomainError):
        l2_betti_ratio(2, -1, 2)
    with pytest.raises(DomainError):
        l2_betti_ratio(2, 1, 0)
    with pytest.raises(TooLarge):
        l2_betti_ratio(1, 0, MAX_TOWER_DEPTH + 1)
    with pytest.raises(TooLarge):
        l2_betti_ratio(MAX_TOWER_RANK + 1, 0, 1)


def test_default_cap_value():
    assert DEFAULT_VERTEX_CAP == 10**6
