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

from dataclasses import dataclass, replace
from enum import Enum
from fractions import Fraction
from functools import cached_property, lru_cache
from math import comb, prod
from types import MappingProxyType
from typing import Iterator, Mapping

from .errors import (
    DimensionError,
    InconsistentData,
    InsufficientData,
    TooLarge,
    UnknownManifold,
)

Partition = tuple[int, ...]

# Largest real dimension accepted.  The genus engine enumerates partitions
# of real_dim/4 (and a CPn builds its Chern numbers over partitions of n),
# whose count grows like exp(pi sqrt(2n/3)): Todd of CP24 takes a few
# seconds, while CP28 takes about 17 s.
MAX_REAL_DIM = 48


def _check_real_dim(real_dim: int, name: str) -> None:
    if real_dim > MAX_REAL_DIM:
        raise TooLarge(
            f"{name}: real dimension {real_dim} exceeds the cap of {MAX_REAL_DIM}"
        )


def partitions_of(n: int) -> Iterator[Partition]:
    """All partitions of n as descending tuples (n >= 0)."""

    def gen(remaining: int, largest: int, prefix: tuple[int, ...]):
        if remaining == 0:
            yield prefix
            return
        for part in range(min(largest, remaining), 0, -1):
            yield from gen(remaining - part, part, prefix + (part,))

    yield from gen(n, n, ())


# -- power-sum numbers ------------------------------------------------------------
#
# A homogeneous integer polynomial in the elementary symmetric functions
# e_1, e_2, ... of a set of roots is a dict keyed by partitions, e_lambda =
# prod_i e_(lambda_i), and e_lambda e_nu = e_(lambda u nu).  Over the Chern
# roots the e_i are the Chern classes, over the squared roots the
# Pontryagin classes, so pairing e_lambda with [M] reads the stored number
# of lambda and one table serves both kinds of data.  The power-sum numbers
# s_mu[M] = <prod_i P_(mu_i), [M]> are where the genera, the Chern ->
# Pontryagin conversion and products meet (Milnor-Stasheff, Characteristic
# Classes, section 16).  The cached rows are shared between callers, who
# only read them; the dimension cap bounds their weight.


def _merge(lam: Partition, nu: Partition) -> Partition:
    return tuple(sorted(lam + nu, reverse=True))


@lru_cache(maxsize=None)
def _power_sum(k: int) -> dict[Partition, int]:
    """P_k by the Newton identities
    P_k = sum_(i<k) (-1)^(i-1) e_i P_(k-i) + (-1)^(k-1) k e_k."""
    out = {(k,): (-1) ** (k - 1) * k}
    for i in range(1, k):
        for lam, c in _power_sum(k - i).items():
            key = _merge((i,), lam)
            out[key] = out.get(key, 0) + (-1) ** (i - 1) * c
    return out


@lru_cache(maxsize=None)
def _row(mu: Partition) -> dict[Partition, int]:
    """prod_i P_(mu_i), built on the cached row of the tail of mu."""
    head = _power_sum(mu[0])
    if len(mu) == 1:
        return head
    out: dict[Partition, int] = {}
    for lam, x in head.items():
        for nu, y in _row(mu[1:]).items():
            key = _merge(lam, nu)
            out[key] = out.get(key, 0) + x * y
    return out


def s_numbers(numbers: Mapping[Partition, int], partitions) -> dict[Partition, int]:
    """Power-sum numbers s_mu[M] = <prod_i P_(mu_i), [M]> for each mu given.

    `numbers` are the Pontryagin or Chern numbers of M, keyed by
    partitions of the same weight as every mu.
    """
    out = {}
    for mu in partitions:
        row = _row(mu)
        out[mu] = sum(n * row.get(lam, 0) for lam, n in numbers.items())
    return out


def numbers_from_s(s: Mapping[Partition, int], weight: int) -> dict[Partition, int]:
    """The numbers over the partitions of `weight` whose power-sum numbers are s.

    Row mu has e_mu coefficient prod_i (-1)^(mu_i - 1) mu_i, and every other
    partition in it has more parts than mu, so the rows are solved from the
    longest partition down.
    """
    out: dict[Partition, int] = {}
    for mu in sorted(partitions_of(weight), key=len, reverse=True):
        row = _row(mu)
        rest = s.get(mu, 0) - sum(c * out.get(lam, 0) for lam, c in row.items())
        value, remainder = divmod(rest, row[mu])
        if remainder:
            raise InconsistentData(
                f"power-sum numbers give the non-integral number "
                f"{Fraction(rest, row[mu])} for {mu}"
            )
        if value:
            out[mu] = value
    return out


class GenusKind(str, Enum):
    TODD = "todd"
    AHAT = "ahat"
    LHAT = "lhat"
    SIGNATURE = "signature"


def _normalize_numbers(numbers, total: int, what: str) -> dict[Partition, int]:
    out: dict[Partition, int] = {}
    for key, value in numbers.items():
        part = tuple(sorted(key, reverse=True))
        if not part or any(
            isinstance(p, bool) or not isinstance(p, int) or p < 1 for p in part
        ):
            raise InconsistentData(f"{what} partition {key!r} is not a partition")
        if sum(part) != total:
            raise InconsistentData(
                f"{what} partition {part} sums to {sum(part)}, expected {total}"
            )
        if isinstance(value, bool) or not isinstance(value, int):
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
        if self.pontryagin_numbers is not None or self.chern_numbers is not None:
            # only numbers are paired over partitions; asserted genera cost nothing
            _check_real_dim(self.real_dim, self.name)
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
            return self._converted_pontryagin
        raise InsufficientData(f"{self.name}: no Pontryagin or Chern data")

    @cached_property
    def _converted_pontryagin(self) -> Mapping[Partition, int]:
        # once per instance: a genus value and its source each ask for the route
        return MappingProxyType(_pontryagin_from_chern(self))


# -- Chern -> Pontryagin conversion ------------------------------------------


def _pontryagin_from_chern(m: ManifoldData) -> dict[Partition, int]:
    n = m.complex_dim
    assert n is not None and m.chern_numbers is not None
    if n % 2:
        return {}
    # the Pontryagin roots are the squared Chern roots: s^pont_mu = s^chern_(2 mu)
    doubled = {mu: tuple(2 * part for part in mu) for mu in partitions_of(n // 2)}
    s = s_numbers(m.chern_numbers, doubled.values())
    return numbers_from_s({mu: s[d] for mu, d in doubled.items()}, n // 2)


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
    return replace(m, pontryagin_numbers=computed)


# -- products and connected sums ------------------------------------------------


def _product_numbers(
    a_nums: Mapping[Partition, int],
    b_nums: Mapping[Partition, int],
    a_weight: int,
    b_weight: int,
) -> dict[Partition, int]:
    """Top numbers of AxB.  Its roots are those of A together with those
    of B, so P_k(AxB) = P_k(A) + P_k(B) and s_mu[AxB] is the sum over
    nu in mu with |nu| = a_weight of prod_k C(a_k(mu), a_k(nu))
    s_nu[A] s_(mu - nu)[B], a_k counting the parts equal to k."""
    if not (a_nums and b_nums):
        return {}
    s_b = s_numbers(b_nums, partitions_of(b_weight))
    s: dict[Partition, int] = {}
    for nu, x in s_numbers(a_nums, partitions_of(a_weight)).items():
        for rho, y in s_b.items():
            if x and y:
                mu = _merge(nu, rho)
                ways = prod(comb(mu.count(k), nu.count(k)) for k in set(nu))
                s[mu] = s.get(mu, 0) + ways * x * y
    return numbers_from_s(s, a_weight + b_weight)


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
    name = name or f"{a.name}x{b.name}"
    _check_real_dim(real_dim, name)  # before the power-sum rows of its weight

    chern = None
    if both_chern:
        chern = _product_numbers(
            a.chern_numbers, b.chern_numbers, a.complex_dim, b.complex_dim
        )

    pont = None
    if both_pont:
        if a.real_dim % 4 == 0 and b.real_dim % 4 == 0:
            pont = _product_numbers(
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
        name=name,
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
            summed[key] = summed.get(key, 0) + value
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
    _check_real_dim(2 * n, f"CP{n}")

    def numbers(weight: int) -> dict[Partition, int]:
        # c = (1+h)^(n+1) and p = (1+h^2)^(n+1), so c_i and p_i are C(n+1, i) times a power of h
        return {lam: prod(comb(n + 1, part) for part in lam) for lam in partitions_of(weight)}

    return ManifoldData(
        name=f"CP{n}",
        real_dim=2 * n,
        pontryagin_numbers=numbers(n // 2) if n % 2 == 0 else None,
        chern_numbers=numbers(n),
        complex_dim=n,
        spin=(n % 2 == 1),
        string=False,
    )


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
            return factory(int(name[len(prefix):]))
    raise UnknownManifold(f"no builtin manifold named {name!r}")
