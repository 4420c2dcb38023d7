"""Discrete covering-space lab: flat torus quotient graphs with BFS diameters,
the doubling subgroup tower of a rank-k lattice, and normalized Betti-number
ratio sequences along that tower.

One BFS kernel serves every graph: a level-synchronous bitset BFS on the
graph folded by the reflections x_i -> -x_i, a product of paths, whose levels
are Python ints holding only a window of outer positions, so a level costs
the width of the frontier rather than the vertex count.  Where the frontier
only moves one step up the outer path per level, the kernel skips those
levels at once, so a long outer path costs about as much as a short one.
"""

import math

from .errors import DomainError, Record, TooLarge, is_int, shown, whole

DEFAULT_VERTEX_CAP = 10**6  # largest graph, in vertices, that TorusQuotientGraph builds
# Caps on the doubling tower and its Betti ratios: level j carries the index
# 2^((j-1)k), so depth and rank together set the size of every number built.
MAX_TOWER_DEPTH = 64
MAX_TOWER_RANK = 64


def _check_moduli(moduli):
    try:
        moduli = tuple(moduli)
    except TypeError:
        raise DomainError(
            f"moduli must be a sequence of positive integers, got {shown(moduli)}"
        ) from None
    if not moduli:
        raise DomainError("moduli must be non-empty")
    for n in moduli:
        if not is_int(n) or n < 1:
            raise DomainError(f"moduli must be positive integers, got {shown(n)}")
    return moduli


class TorusQuotientGraph:
    """Cayley graph of prod Z/n_i with unit-weight generator edges +-e_i."""

    __slots__ = ("moduli",)

    def __init__(self, moduli):
        self.moduli = _check_moduli(moduli)
        count = 1
        for n in self.moduli:  # refuse before the full product, which many moduli make slow
            count *= n
            if count > DEFAULT_VERTEX_CAP:
                raise TooLarge(
                    f"at least {shown(count)} vertices exceeds the cap of {DEFAULT_VERTEX_CAP}"
                )

    @property
    def vertex_count(self) -> int:
        return math.prod(self.moduli)

    def diameter(self) -> int:
        """Eccentricity of the origin by BFS; equals the graph diameter by
        vertex-transitivity.

        The BFS runs on the product of paths 0 .. floor(n_i/2) that the
        reflections x_i -> -x_i fold the graph to; they fix the origin, so
        they keep its distances.  Its work per level follows the width of the
        frontier, not the vertex count (see `_eccentricity`)."""
        return _eccentricity(self.moduli)


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


def _eccentricity(moduli) -> int:
    """Level-synchronous BFS from vertex 0 on the quotient of the torus graph
    by the reflections x_i -> -x_i, with each level held as a Python-int
    bitset.

    The reflections fix 0, so they keep every distance from it: folding Z/n
    by x -> -x leaves the path on positions 0 .. floor(n/2), and the torus
    graph folds to the product of those paths.  A +-1 step along an axis is
    then one masked shift by its stride, which never wraps around.  The
    longest axis goes outermost, and the frontier is stored shifted down to
    its lowest occupied outer position, which rises by at most one per level:
    a level costs the width of that window, not the vertex count.  The graph
    is undirected, so the next level is N(F_d) minus F_d and F_(d-1); no set
    of visited vertices is kept.  Neighbours below the window are at outer
    positions no level reaches again, and are dropped with it.

    Away from the ends of the outer path, one level commutes with a move one
    outer position up: the inner-axis masks repeat every `size` bits, and the
    window drops what falls below it.  So when a window move leaves the pair
    (F_(d-1), F_d) equal, in window coordinates, to the pair before it, every
    later pair repeats it one position higher until the end mask applies,
    and the kernel adds those levels to the depth in one step.  That happens
    when the outer path is longer than the inner paths together, and leaves
    about twice their total length in plain levels, however long the outer
    path is."""
    axes = sorted(n // 2 + 1 for n in moduli if n > 1)
    if not axes:
        return 0
    n = axes.pop()  # positions on the outer path
    size = math.prod(axes)  # vertices per outer position: the outer stride
    count = n * size
    # (up, down, shift): a level maps F to ((F & up) << shift) | ((F & down) >> shift)
    steps = []
    stride = 1
    for m in axes:
        period = m * stride
        up = _tile((1 << (m - 1) * stride) - 1, period, count // period)
        steps.append((up, up << stride, stride))
        stride = period
    block = (1 << size) - 1
    end = count  # bit offset just past the last outer position, in the window
    frontier, prev = 1, 0
    depth = 0
    while depth < count:
        reached = (frontier << size) | (frontier >> size)
        if reached >> end:  # no step up from the last outer position
            reached &= (1 << end) - 1
        for up, down, shift in steps:
            reached |= ((frontier & up) << shift) | ((frontier & down) >> shift)
        reached ^= reached & (frontier | prev)
        if not reached:
            return depth
        depth += 1
        # Move the window up one position when its lowest one empties.  The
        # mask keeps every level below `end`, so a level in the last position
        # fills the lowest one, and the window never moves past it.
        if not reached & block:
            pair = prev, frontier
            frontier >>= size
            reached >>= size
            end -= size
            if (frontier, reached) == pair and reached.bit_length() + size <= end:
                # each later level repeats this pair one position higher
                # until the next one would meet the end: skip them all
                jump = (end - reached.bit_length() - size) // size + 1
                depth += jump
                end -= jump * size
        prev, frontier = frontier, reached
    raise RuntimeError(f"BFS on {moduli} did not settle within {count} levels")


def _check_tower_size(k, J):
    if whole("rank k", k) > MAX_TOWER_RANK:
        raise TooLarge(f"rank {shown(k)} exceeds the cap of {MAX_TOWER_RANK}")
    if whole("depth J", J) > MAX_TOWER_DEPTH:
        raise TooLarge(f"depth {shown(J)} exceeds the cap of {MAX_TOWER_DEPTH}")


class TowerLevel(Record):
    """Level j holds the sublattice (scale * Z)^k with scale = 2^(j-1)."""

    def __init__(self, j: int, scale: int, index: int):
        self._set(j=j, scale=scale, index=index)


class Tower(Record):
    def __init__(self, k: int, levels: list):
        self._set(k=k, levels=levels)


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
    if len(base_moduli) != whole("rank k", k):
        raise DomainError(f"expected {shown(k)} moduli, got {len(base_moduli)}")
    whole("sub_factor", sub_factor)
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
    if not is_int(p) or not 0 <= p <= k:
        raise DomainError(f"degree p must satisfy 0 <= p <= k = {k}, got {shown(p)}")
    betti = math.comb(k, p)
    return [Fraction(betti, 2 ** ((j - 1) * k)) for j in range(1, J + 1)]
