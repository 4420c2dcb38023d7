"""Discrete covering-space lab: flat torus quotient graphs with BFS diameters,
the doubling subgroup tower of a rank-k lattice, and normalized Betti-number
ratio sequences along that tower.

The BFS comes in two kernels, chosen from the moduli alone.  The
frontier-bitset BFS expands one whole level per step, with the frontier and
the unvisited set stored as Python-int bitsets; it serves every graph whose
largest modulus is at most 4096.  The vertex-at-a-time deque BFS serves
longer cycles, where the bitset kernel's levels x V / word work grows as n^2.
"""

from __future__ import annotations

import math
from collections import deque

from .errors import DomainError, Record, TooLarge

__all__ = [
    "DEFAULT_VERTEX_CAP",
    "MAX_TOWER_DEPTH",
    "MAX_TOWER_RANK",
    "TorusQuotientGraph",
    "TowerLevel",
    "Tower",
    "tower",
    "CoverDiameter",
    "cover_diameter",
    "l2_betti_ratio",
]

DEFAULT_VERTEX_CAP = 10**6  # largest graph, in vertices, that TorusQuotientGraph builds
# Caps on the doubling tower and its Betti ratios: level j carries the index
# 2^((j-1)k), so depth and rank together set the size of every number built.
MAX_TOWER_DEPTH = 64
MAX_TOWER_RANK = 64
# Largest modulus served by the frontier-bitset BFS.  Its work is levels x
# V / word, so one long cycle costs O(n^2); measured against the deque BFS
# (bitset vs deque, Python 3.11): (4000,) 3.1 vs 4.3 ms, (8000,) 10.1 vs
# 8.7 ms.
_BITSET_MAX_MODULUS = 4096


def _check_moduli(moduli):
    moduli = tuple(moduli)
    if not moduli:
        raise DomainError("moduli must be non-empty")
    for n in moduli:
        if not isinstance(n, int) or isinstance(n, bool) or n < 1:
            raise DomainError(f"moduli must be positive integers, got {n!r}")
    return moduli


class TorusQuotientGraph:
    """Cayley graph of prod Z/n_i with unit-weight generator edges +-e_i."""

    __slots__ = ("moduli",)

    def __init__(self, moduli):
        self.moduli = _check_moduli(moduli)
        if self.vertex_count > DEFAULT_VERTEX_CAP:
            raise TooLarge(
                f"{self.vertex_count} vertices exceeds the cap of {DEFAULT_VERTEX_CAP}"
            )

    @property
    def k(self) -> int:
        return len(self.moduli)

    @property
    def vertex_count(self) -> int:
        return math.prod(self.moduli)

    def diameter(self) -> int:
        """Eccentricity of the origin by BFS; equals the graph diameter by
        vertex-transitivity.

        Graphs whose largest modulus is at most 4096 (_BITSET_MAX_MODULUS)
        take the frontier-bitset BFS, which expands a whole level per step
        with big-integer shifts and masks.  Longer cycles take the
        vertex-at-a-time deque BFS, because a level step costs O(V / word)
        and a cycle of length n has n // 2 levels."""
        if max(self.moduli) <= _BITSET_MAX_MODULUS:
            return _bitset_eccentricity(self.moduli)
        return _deque_eccentricity(self.moduli)


def _tile(pattern: int, period: int, copies: int) -> int:
    """`copies` copies of `pattern`, one every `period` bits, built by
    doubling in O(total bits * log copies); a repunit division would be
    quadratic in the bit length."""
    out = width = 0
    while copies:
        if copies & 1:
            out |= pattern << width
            width += period
        copies >>= 1
        if copies:
            pattern |= pattern << period
            period *= 2
    return out


def _bitset_eccentricity(moduli) -> int:
    """Level-synchronous BFS from vertex 0 with the frontier and the
    unvisited set held as Python-int bitsets, bit idx = sum coord_i * stride_i.
    A +-1 step along an axis is two masked shifts: interior vertices move by
    the stride, and the vertices with coordinate n - 1 (or 0) wrap around by
    (n - 1) strides."""
    count = math.prod(moduli)
    full = (1 << count) - 1
    # (up_mask, up, down_mask, down): one step maps F to
    # ((F & up_mask) << up) | ((F & down_mask) >> down)
    steps = []
    stride = 1
    for n in moduli:
        if n > 1:
            # vertices with coordinate 0: the low `stride` bits of every block
            first = _tile((1 << stride) - 1, n * stride, count // (n * stride))
            wrap = (n - 1) * stride
            last = first << wrap
            steps.append((full ^ last, stride, last, wrap))
            if n > 2:  # for n = 2 the -1 step is the +1 step
                steps.append((first, wrap, full ^ first, stride))
        stride *= n
    unvisited = full ^ 1
    frontier = 1
    depth = 0
    while True:
        reached = 0
        for up_mask, up, down_mask, down in steps:
            reached |= ((frontier & up_mask) << up) | ((frontier & down_mask) >> down)
        frontier = reached & unvisited
        if not frontier:
            return depth
        unvisited ^= frontier
        depth += 1


def _deque_eccentricity(moduli) -> int:
    """Vertex-at-a-time BFS from vertex 0 over a distance list."""
    strides = []
    acc = 1
    for n in moduli:
        strides.append(acc)
        acc *= n
    count = acc
    dist = [-1] * count
    dist[0] = 0
    queue = deque([0])
    farthest = 0
    while queue:
        idx = queue.popleft()
        d = dist[idx]
        farthest = d
        for axis in range(len(moduli)):
            n = moduli[axis]
            if n == 1:
                continue
            stride = strides[axis]
            coord = (idx // stride) % n
            for step in (1, n - 1):
                nxt = idx + ((coord + step) % n - coord) * stride
                if dist[nxt] < 0:
                    dist[nxt] = d + 1
                    queue.append(nxt)
    return farthest


def _check_tower_size(k, J):
    if not isinstance(k, int) or isinstance(k, bool) or k < 1:
        raise DomainError(f"rank k must be a positive integer, got {k!r}")
    if not isinstance(J, int) or isinstance(J, bool) or J < 1:
        raise DomainError(f"depth J must be a positive integer, got {J!r}")
    if k > MAX_TOWER_RANK:
        raise TooLarge(f"rank {k} exceeds the cap of {MAX_TOWER_RANK}")
    if J > MAX_TOWER_DEPTH:
        raise TooLarge(f"depth {J} exceeds the cap of {MAX_TOWER_DEPTH}")


class TowerLevel(Record):
    """Level j holds the sublattice (scale * Z)^k with scale = 2^(j-1)."""

    def __init__(self, j: int, scale: int, index: int):
        self._set(j=j, scale=scale, index=index)


class Tower(Record):
    def __init__(self, k: int, levels: list):
        self._set(k=k, levels=levels)

    def indices(self):
        return [level.index for level in self.levels]


def tower(k: int, J: int) -> Tower:
    """Doubling tower of sublattices of Z^k, depth J; level j has index
    2^((j-1)*k), so the indices strictly increase with j.

    Raises TooLarge when k > MAX_TOWER_RANK or J > MAX_TOWER_DEPTH (64 each)."""
    _check_tower_size(k, J)
    levels = [TowerLevel(j=j, scale=2 ** (j - 1), index=2 ** ((j - 1) * k)) for j in range(1, J + 1)]
    return Tower(k=k, levels=levels)


class CoverDiameter(Record):
    def __init__(self, base_diam: int, cover_diam: int, index: int, inequality_holds: bool):
        self._set(base_diam=base_diam, cover_diam=cover_diam, index=index,
                  inequality_holds=inequality_holds)


def cover_diameter(k, base_moduli, sub_factor: int) -> CoverDiameter:
    """BFS diameters of a torus quotient and its degree-(sub_factor^k) cover
    (moduli scaled componentwise), plus the cover-diameter inequality
    cover_diam <= index * base_diam."""
    base_moduli = _check_moduli(base_moduli)
    if len(base_moduli) != k:
        raise DomainError(f"expected {k} moduli, got {len(base_moduli)}")
    if not isinstance(sub_factor, int) or isinstance(sub_factor, bool) or sub_factor < 1:
        raise DomainError(f"sub_factor must be a positive integer, got {sub_factor!r}")
    base = TorusQuotientGraph(base_moduli)
    cover = TorusQuotientGraph(tuple(sub_factor * n for n in base_moduli))
    index = sub_factor**k
    base_diam = base.diameter()
    cover_diam = cover.diameter()
    return CoverDiameter(
        base_diam=base_diam,
        cover_diam=cover_diam,
        index=index,
        inequality_holds=cover_diam <= index * base_diam,
    )


def l2_betti_ratio(k: int, p: int, J: int) -> list:
    """Normalized degree-p Betti numbers binom(k, p) / 2^((j-1)*k) along the
    doubling tower, j = 1..J; strictly decreasing to 0 once J >= 2.

    Raises TooLarge when k > MAX_TOWER_RANK or J > MAX_TOWER_DEPTH (64 each)."""
    from fractions import Fraction  # local: keeps fractions out of diam/tower processes

    _check_tower_size(k, J)
    if not isinstance(p, int) or isinstance(p, bool) or not 0 <= p <= k:
        raise DomainError(f"degree p must satisfy 0 <= p <= k = {k}, got {p!r}")
    betti = math.comb(k, p)
    return [Fraction(betti, 2 ** ((j - 1) * k)) for j in range(1, J + 1)]
