"""Manifold characteristic data and the operations that combine it.

A ManifoldData row stores the top characteristic numbers of a closed
manifold: Chern numbers indexed by partitions of the complex dimension,
Pontryagin numbers indexed by partitions of real_dim/4, or, for
manifolds whose numbers are not available, directly asserted genus
values.  Number mappings are sparse: a missing partition key means the
number is zero, while a missing mapping (None) means no data of that
kind.  They are stored read-only (`types.MappingProxyType`), so entries
shared through a catalog cannot be edited in place.

The partition key for a monomial like p1^2*p2 is the descending tuple
(2, 1, 1).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from math import comb
from types import MappingProxyType
from typing import Iterator, Mapping

from .charpoly import CharClassPoly, monomial_to_partition
from .errors import (
    DimensionError,
    InconsistentData,
    InsufficientData,
    UnknownManifold,
)

Partition = tuple[int, ...]


def partitions_of(n: int) -> Iterator[Partition]:
    """All partitions of n as descending tuples (n >= 0)."""

    def gen(remaining: int, largest: int, prefix: tuple[int, ...]):
        if remaining == 0:
            yield prefix
            return
        for part in range(min(largest, remaining), 0, -1):
            yield from gen(remaining - part, part, prefix + (part,))

    yield from gen(n, n, ())


class GenusKind(str, Enum):
    TODD = "todd"
    AHAT = "ahat"
    LHAT = "lhat"
    SIGNATURE = "signature"


def _normalize_numbers(numbers, total: int, what: str) -> dict[Partition, int]:
    out: dict[Partition, int] = {}
    for key, value in numbers.items():
        part = tuple(sorted(key, reverse=True))
        if not part or any(not isinstance(p, int) or p < 1 for p in part):
            raise InconsistentData(f"{what} partition {key!r} is not a partition")
        if sum(part) != total:
            raise InconsistentData(
                f"{what} partition {part} sums to {sum(part)}, expected {total}"
            )
        if not isinstance(value, int):
            raise InconsistentData(f"{what} number for {part} must be an integer")
        if part in out and out[part] != value:
            raise InconsistentData(f"duplicate {what} partition {part}")
        if value:
            out[part] = value
    return out


@dataclass(frozen=True)
class ManifoldData:
    """Characteristic data of one closed oriented manifold."""

    name: str
    real_dim: int
    pontryagin_numbers: Mapping[Partition, int] | None = None
    chern_numbers: Mapping[Partition, int] | None = None
    complex_dim: int | None = None
    spin: bool = False
    string: bool = False
    asserted_genera: Mapping[str, Fraction] | None = None

    def __post_init__(self):
        if self.real_dim <= 0 or self.real_dim % 2:
            raise DimensionError(f"real_dim {self.real_dim} must be positive and even")
        if self.string and not self.spin:
            raise InconsistentData(f"{self.name}: string requires spin")

        if self.chern_numbers is not None:
            n = self.real_dim // 2
            if self.complex_dim is None:
                object.__setattr__(self, "complex_dim", n)
            elif self.complex_dim != n:
                raise DimensionError(
                    f"{self.name}: complex_dim {self.complex_dim} != real_dim/2"
                )
            object.__setattr__(
                self,
                "chern_numbers",
                _normalize_numbers(self.chern_numbers, n, "Chern"),
            )
        elif self.complex_dim is not None:
            raise InconsistentData(f"{self.name}: complex_dim without Chern numbers")

        if self.pontryagin_numbers is not None:
            if self.real_dim % 4:
                if self.pontryagin_numbers:
                    raise DimensionError(
                        f"{self.name}: nonzero Pontryagin numbers in dimension "
                        f"{self.real_dim}"
                    )
                object.__setattr__(self, "pontryagin_numbers", {})
            else:
                object.__setattr__(
                    self,
                    "pontryagin_numbers",
                    _normalize_numbers(
                        self.pontryagin_numbers, self.real_dim // 4, "Pontryagin"
                    ),
                )

        if self.asserted_genera is not None:
            known = {k.value for k in GenusKind}
            clean: dict[str, Fraction] = {}
            for key, value in self.asserted_genera.items():
                if key not in known:
                    raise InconsistentData(f"{self.name}: unknown genus name {key!r}")
                clean[key] = Fraction(value)
            object.__setattr__(self, "asserted_genera", clean)

        if (
            self.pontryagin_numbers is None
            and self.chern_numbers is None
            and not self.asserted_genera
        ):
            raise InsufficientData(f"{self.name}: no characteristic data at all")

        for fld in ("pontryagin_numbers", "chern_numbers", "asserted_genera"):
            value = getattr(self, fld)
            if value is not None:
                object.__setattr__(self, fld, MappingProxyType(value))

    # -- data access -------------------------------------------------------

    def has_pontryagin(self) -> bool:
        return self.pontryagin_numbers is not None

    def has_chern(self) -> bool:
        return self.chern_numbers is not None

    def pontryagin_or_converted(self) -> Mapping[Partition, int]:
        """Pontryagin numbers, deriving them from Chern data if needed."""
        if self.pontryagin_numbers is not None:
            return self.pontryagin_numbers
        if self.chern_numbers is not None:
            return _pontryagin_from_chern(self)
        raise InsufficientData(f"{self.name}: no Pontryagin or Chern data")


# -- Chern -> Pontryagin conversion ------------------------------------------


def _pontryagin_class_polys(n: int) -> list[CharClassPoly]:
    """p_1, ..., p_{n//2} of a complex n-fold as polynomials in c_1..c_n.

    From c(E)c(E-bar): the degree-2i part of (sum c_a)(sum (-1)^b c_b)
    equals (-1)^i p_i.
    """
    one = Fraction(1)
    total = CharClassPoly.constant("c", n, one)
    conj = CharClassPoly.constant("c", n, one)
    for i in range(1, n + 1):
        gen = CharClassPoly.generator("c", n, i, one)
        total = total + gen
        conj = conj + gen.scale((-1) ** i)
    prod = total * conj
    return [prod.weight_part(2 * i) * Fraction((-1) ** i) for i in range(1, n // 2 + 1)]


def _pair_with_chern(poly: CharClassPoly, chern: Mapping[Partition, int], n: int) -> Fraction:
    total = Fraction(0)
    for mono, coeff in poly.weight_part(n).terms.items():
        num = chern.get(monomial_to_partition(mono))
        if num:
            total += coeff * num
    return total


def _pontryagin_from_chern(m: ManifoldData) -> dict[Partition, int]:
    n = m.complex_dim
    assert n is not None and m.chern_numbers is not None
    if n % 2:
        return {}
    p_polys = _pontryagin_class_polys(n)
    out: dict[Partition, int] = {}
    for lam in partitions_of(n // 2):
        poly = CharClassPoly.constant("c", n, Fraction(1))
        for part in lam:
            poly = poly * p_polys[part - 1]
        value = _pair_with_chern(poly, m.chern_numbers, n)
        if value.denominator != 1:
            raise InconsistentData(
                f"{m.name}: Pontryagin number for {lam} is non-integral ({value})"
            )
        if value:
            out[lam] = int(value)
    return out


def chern_to_pontryagin(m: ManifoldData) -> ManifoldData:
    """Populate Pontryagin numbers from full Chern data.

    Existing Pontryagin entries must agree with the computed ones.
    """
    if m.chern_numbers is None:
        raise InsufficientData(f"{m.name}: no Chern numbers to convert")
    computed = _pontryagin_from_chern(m)
    if m.pontryagin_numbers is not None and m.pontryagin_numbers != computed:
        raise InconsistentData(
            f"{m.name}: stored Pontryagin numbers {m.pontryagin_numbers} "
            f"disagree with conversion {computed}"
        )
    return ManifoldData(
        name=m.name,
        real_dim=m.real_dim,
        pontryagin_numbers=computed,
        chern_numbers=m.chern_numbers,
        complex_dim=m.complex_dim,
        spin=m.spin,
        string=m.string,
        asserted_genera=m.asserted_genera,
    )


# -- products and connected sums ------------------------------------------------


def _convolve_numbers(
    a_nums: Mapping[Partition, int],
    b_nums: Mapping[Partition, int],
    a_total: int,
    b_total: int,
) -> dict[Partition, int]:
    """Kuenneth rule: each class of the product splits as
    g_i(AxB) = sum_{r+s=i} g_r(A) g_s(B), so a top number of AxB is a sum
    over ways of splitting every part between the factors."""
    out: dict[Partition, int] = {}
    for lam in partitions_of(a_total + b_total):
        total = 0
        # assignments: per part, how much goes to factor A
        def walk(idx: int, left_a: int, a_parts: tuple[int, ...], b_parts: tuple[int, ...]):
            nonlocal total
            if left_a < 0:
                return
            if idx == len(lam):
                if left_a:
                    return
                av = a_nums.get(tuple(sorted(a_parts, reverse=True)), 0)
                bv = b_nums.get(tuple(sorted(b_parts, reverse=True)), 0)
                if av and bv:
                    total += av * bv
                return
            part = lam[idx]
            for to_a in range(part + 1):
                rest = part - to_a
                walk(
                    idx + 1,
                    left_a - to_a,
                    a_parts + ((to_a,) if to_a else ()),
                    b_parts + ((rest,) if rest else ()),
                )

        walk(0, a_total, (), ())
        if total:
            out[lam] = total
    return out


def product(a: ManifoldData, b: ManifoldData, name: str | None = None) -> ManifoldData:
    """Cartesian product; needs full data of the same kind on both sides."""
    both_chern = a.has_chern() and b.has_chern()
    both_pont = a.has_pontryagin() and b.has_pontryagin()
    if not (both_chern or both_pont):
        raise InsufficientData(
            f"product({a.name}, {b.name}) needs full Chern or full Pontryagin "
            "data on both factors"
        )
    real_dim = a.real_dim + b.real_dim

    chern = None
    if both_chern:
        chern = _convolve_numbers(
            a.chern_numbers, b.chern_numbers, a.complex_dim, b.complex_dim
        )

    pont = None
    if both_pont:
        if a.real_dim % 4 == 0 and b.real_dim % 4 == 0:
            pont = _convolve_numbers(
                a.pontryagin_numbers,
                b.pontryagin_numbers,
                a.real_dim // 4,
                b.real_dim // 4,
            )
        else:
            # a factor of dimension 2 mod 4 pairs no Pontryagin monomial,
            # so every top number of the product vanishes
            pont = {}

    return ManifoldData(
        name=name or f"{a.name}x{b.name}",
        real_dim=real_dim,
        pontryagin_numbers=pont,
        chern_numbers=chern,
        complex_dim=(a.complex_dim + b.complex_dim) if both_chern else None,
        spin=a.spin and b.spin,
        string=a.string and b.string,
    )


def _genus_if_available(m: ManifoldData, kind: GenusKind) -> Fraction | None:
    from .genera import genus_value  # local import to avoid a cycle

    try:
        return genus_value(m, kind)
    except (InsufficientData, DimensionError):
        return None


def connected_sum(a: ManifoldData, b: ManifoldData, name: str | None = None) -> ManifoldData:
    """Connected sum: Pontryagin numbers and genus values add."""
    if a.real_dim != b.real_dim:
        raise DimensionError(
            f"connected sum of dimensions {a.real_dim} and {b.real_dim}"
        )
    name = name or f"{a.name}_sharp_{b.name}"
    spin = a.spin and b.spin
    string = a.string and b.string

    if a.has_pontryagin() and b.has_pontryagin():
        summed: dict[Partition, int] = dict(a.pontryagin_numbers)
        for key, value in b.pontryagin_numbers.items():
            s = summed.get(key, 0) + value
            if s:
                summed[key] = s
            else:
                summed.pop(key, None)
        return ManifoldData(
            name=name,
            real_dim=a.real_dim,
            pontryagin_numbers=summed,
            spin=spin,
            string=string,
        )

    asserted: dict[str, Fraction] = {}
    for kind in (GenusKind.AHAT, GenusKind.LHAT, GenusKind.SIGNATURE):
        va = _genus_if_available(a, kind)
        vb = _genus_if_available(b, kind)
        if va is not None and vb is not None:
            asserted[kind.value] = va + vb
    if not asserted:
        raise InsufficientData(
            f"connected_sum({a.name}, {b.name}): no genus computable on both sides"
        )
    return ManifoldData(
        name=name,
        real_dim=a.real_dim,
        spin=spin,
        string=string,
        asserted_genera=asserted,
    )


# -- builtin manifolds -------------------------------------------------------------


def cp(n: int) -> ManifoldData:
    """Complex projective space; c(T) = (1+h)^(n+1), <h^n> = 1."""
    if n < 1:
        raise DimensionError(f"CP{n} is not available (need n >= 1)")
    chern = {}
    for lam in partitions_of(n):
        value = 1
        for part in lam:
            value *= comb(n + 1, part)
        chern[lam] = value
    m = ManifoldData(
        name=f"CP{n}",
        real_dim=2 * n,
        chern_numbers=chern,
        complex_dim=n,
        spin=(n % 2 == 1),
        string=False,
    )
    return chern_to_pontryagin(m) if n % 2 == 0 else m


def sphere(n: int) -> ManifoldData:
    """Even-dimensional sphere; stably parallelizable, all numbers vanish."""
    if n < 2 or n % 2:
        raise UnknownManifold(f"S{n} is not available (need even n >= 2)")
    return ManifoldData(
        name=f"S{n}", real_dim=n, pontryagin_numbers={}, spin=True, string=True
    )


def torus(k: int) -> ManifoldData:
    """Flat torus; parallelizable, so every characteristic number vanishes."""
    if k < 2 or k % 2:
        raise UnknownManifold(f"T{k} is not available (need even k >= 2)")
    return ManifoldData(
        name=f"T{k}",
        real_dim=k,
        pontryagin_numbers={},
        chern_numbers={},
        complex_dim=k // 2,
        spin=True,
        string=True,
    )


def k3() -> ManifoldData:
    """The K3 surface: c_1^2 = 0, c_2 = 24, spin."""
    m = ManifoldData(
        name="K3",
        real_dim=4,
        chern_numbers={(2,): 24},
        complex_dim=2,
        spin=True,
        string=False,
    )
    return chern_to_pontryagin(m)


def hp2() -> ManifoldData:
    """The quaternionic projective plane: p_1^2 = 4, p_2 = 7, spin."""
    return ManifoldData(
        name="HP2",
        real_dim=8,
        pontryagin_numbers={(1, 1): 4, (2,): 7},
        spin=True,
        string=False,
    )


def builtin(name: str) -> ManifoldData:
    """Resolve a builtin manifold by name (CPn, Sn, Tn, K3, HP2)."""
    if name == "K3":
        return k3()
    if name == "HP2":
        return hp2()
    for prefix, factory in (("CP", cp), ("S", sphere), ("T", torus)):
        if name.startswith(prefix) and name[len(prefix):].isdigit():
            try:
                return factory(int(name[len(prefix):]))
            except UnknownManifold:
                raise
    raise UnknownManifold(f"no builtin manifold named {name!r}")
