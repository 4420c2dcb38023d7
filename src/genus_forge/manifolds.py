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
(2, 1, 1); a key in any other order is refused, so each monomial has one
key.  complex_dim is worked out: real_dim/2 when Chern numbers are given,
else None.
"""

import re
from fractions import Fraction
from functools import lru_cache
from math import comb, prod
from collections.abc import Iterator, Mapping
from types import MappingProxyType

from .errors import (GENERA, DimensionError, DomainError, InconsistentData, InsufficientData,
                     Record, TooLarge, UnknownManifold, shown, whole)

Partition = tuple[int, ...]

# Largest real dimension accepted.  The genus engine enumerates partitions
# of real_dim/4 (and a CPn builds its Chern numbers over partitions of n),
# whose count grows like exp(pi sqrt(2n/3)): in one fresh process (Python
# 3.11, 2-core x86-64), Todd of CP24 takes 0.5-1.0 s of CPU (scripts/cli_sweep.py,
# which budgets 5 s), and of CP28, past the cap, 3.9 s.
MAX_REAL_DIM = 48


def _check_real_dim(real_dim: int, name: str) -> None:
    if real_dim > MAX_REAL_DIM:
        raise TooLarge(
            f"{name}: real dimension {shown(real_dim)} exceeds the cap of {MAX_REAL_DIM}"
        )


def partitions_of(n: int) -> Iterator[Partition]:
    """All partitions of n as descending tuples, for 0 <= n <= MAX_REAL_DIM / 2,
    the complex dimension at the cap."""
    whole("n", n, 0, MAX_REAL_DIM // 2)

    def gen(remaining: int, largest: int, prefix: tuple[int, ...]):
        if remaining == 0:
            yield prefix
            return
        for part in range(min(largest, remaining), 0, -1):
            yield from gen(remaining - part, part, prefix + (part,))

    return gen(n, n, ())


# -- power-sum numbers ------------------------------------------------------------
#
# A homogeneous integer polynomial in the elementary symmetric functions
# e_1, e_2, ... of a set of roots is a dict keyed by partitions, e_lambda =
# prod_i e_(lambda_i), and e_lambda e_nu = e_(lambda u nu).  Over the Chern
# roots the e_i are the Chern classes, over the squared roots the
# Pontryagin classes, so pairing e_lambda with [M] reads the stored number
# of lambda and one table serves both kinds of data.  The power-sum numbers
# s_mu[M] = <prod_i P_(mu_i), [M]> are where the genera and products meet;
# the Pontryagin roots are the squared Chern roots, so s^pont_mu =
# s^chern_(2 mu) (Milnor-Stasheff, Characteristic Classes, section 16).
# The cached rows are shared between callers, who only read them; the
# dimension cap bounds their weight.


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


def _read_only(numbers):
    return None if numbers is None else MappingProxyType(numbers)


def _normalize_numbers(numbers, total: int, what: str) -> dict[Partition, int]:
    out: dict[Partition, int] = {}
    for key, value in numbers.items():
        # positive int parts, descending (int.__lt__ compares in C, per key)
        if not isinstance(key, tuple) or not key or any(
            isinstance(p, bool) or not isinstance(p, int) or p < 1 for p in key
        ) or any(map(int.__lt__, key, key[1:])):
            raise InconsistentData(f"{what} partition {shown(key)} is not a partition")
        if sum(key) != total:
            raise InconsistentData(
                f"{what} partition {shown(key)} sums to {shown(sum(key))}, expected {total}"
            )
        if isinstance(value, bool) or not isinstance(value, int):
            raise InconsistentData(f"{what} number for {key} must be an integer")
        if value:
            out[key] = value
    return out


class ManifoldData(Record):
    """Characteristic data of one closed oriented manifold."""

    def __init__(
        self,
        name: str,
        real_dim: int,
        pontryagin_numbers: Mapping[Partition, int] | None = None,
        chern_numbers: Mapping[Partition, int] | None = None,
        spin: bool = False,
        string: bool = False,
        asserted_genera: Mapping[str, Fraction] | None = None,
    ):
        maybe_map = (Mapping, type(None))
        for field, value, kind in (("name", name, str), ("real_dim", real_dim, int),
                                   ("spin", spin, bool), ("string", string, bool),
                                   ("pontryagin_numbers", pontryagin_numbers, maybe_map),
                                   ("chern_numbers", chern_numbers, maybe_map),
                                   ("asserted_genera", asserted_genera, maybe_map)):
            # bool is an int subclass, so only the bool fields take it
            if not isinstance(value, kind) or (isinstance(value, bool) and kind is not bool):
                raise InconsistentData(
                    f"{name}: field {field!r} has wrong type {type(value).__name__}"
                )
        if real_dim <= 0 or real_dim % 2:
            raise DimensionError(f"real_dim {shown(real_dim)} must be positive and even")
        if pontryagin_numbers is not None or chern_numbers is not None:
            # only numbers are paired over partitions; asserted genera cost nothing
            _check_real_dim(real_dim, name)
        if string and not spin:
            raise InconsistentData(f"{name}: string requires spin")

        if chern_numbers is not None:
            chern_numbers = _normalize_numbers(chern_numbers, real_dim // 2, "Chern")

        if pontryagin_numbers is not None:
            if real_dim % 4:
                if pontryagin_numbers:
                    raise DimensionError(
                        f"{name}: nonzero Pontryagin numbers in dimension {real_dim}"
                    )
                pontryagin_numbers = {}
            else:
                pontryagin_numbers = _normalize_numbers(
                    pontryagin_numbers, real_dim // 4, "Pontryagin"
                )

        if asserted_genera is not None:
            clean: dict[str, Fraction] = {}
            for key, value in asserted_genera.items():
                if key not in GENERA:
                    raise InconsistentData(f"{name}: unknown asserted genus {key!r}")
                try:
                    # a float or a bool is no exact rational; a string is parsed
                    # exactly, and only in the 'num/den' form entry_to_dict writes:
                    # Fraction would also take '1e1000000000' and build that integer
                    if isinstance(value, bool) or not isinstance(value, (int, Fraction, str)):
                        raise ValueError(value)
                    if isinstance(value, str) and not re.fullmatch(r"[+-]?[0-9]+(/[0-9]+)?", value):
                        raise ValueError(value)
                    clean[GENERA[GENERA.index(key)]] = Fraction(value)  # the library's str
                except (ValueError, ZeroDivisionError):
                    raise InconsistentData(f"{name}: bad rational {value!r} for {key!r}") from None
            asserted_genera = clean

        if pontryagin_numbers is None and chern_numbers is None and not asserted_genera:
            raise InsufficientData(f"{name}: no characteristic data at all")

        self._set(
            name=name,
            real_dim=real_dim,
            pontryagin_numbers=_read_only(pontryagin_numbers),
            chern_numbers=_read_only(chern_numbers),
            spin=spin,
            string=string,
            asserted_genera=_read_only(asserted_genera or None),
        )

    @property
    def complex_dim(self) -> int | None:
        """real_dim/2 when Chern numbers are given, else None."""
        return None if self.chern_numbers is None else self.real_dim // 2


# -- products and connected sums ------------------------------------------------


def _check_manifolds(*factors) -> None:
    for m in factors:
        if not isinstance(m, ManifoldData):
            raise DomainError(f"expected ManifoldData, got {shown(m)}")


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
    _check_manifolds(a, b)
    both_chern = a.chern_numbers is not None and b.chern_numbers is not None
    both_pont = a.pontryagin_numbers is not None and b.pontryagin_numbers is not None
    if not (both_chern or both_pont):
        raise InsufficientData(
            f"product({a.name}, {b.name}) needs full Chern or full Pontryagin "
            "data on both factors"
        )
    real_dim = a.real_dim + b.real_dim
    name = name or f"{a.name}x{b.name}"
    _check_real_dim(real_dim, name)  # before the power-sum rows of its weight

    chern = pont = None
    if both_chern:
        chern = _product_numbers(a.chern_numbers, b.chern_numbers, a.real_dim // 2, b.real_dim // 2)
    if both_pont:  # a factor of dimension 2 mod 4 stores {}, so the product's numbers vanish
        pont = _product_numbers(a.pontryagin_numbers, b.pontryagin_numbers,
                                a.real_dim // 4, b.real_dim // 4)
    return ManifoldData(
        name=name,
        real_dim=real_dim,
        pontryagin_numbers=pont,
        chern_numbers=chern,
        spin=a.spin and b.spin,
        string=a.string and b.string,
    )


def connected_sum(a: ManifoldData, b: ManifoldData, name: str | None = None) -> ManifoldData:
    """Connected sum; needs Pontryagin numbers on both summands, of one dimension.
    M # N is oriented-cobordant to the disjoint union of M and N, so its numbers
    are the sums (Milnor-Stasheff, Characteristic Classes, 1974)."""
    _check_manifolds(a, b)
    if a.real_dim != b.real_dim:
        raise DimensionError(
            f"connected sum of dimensions {a.real_dim} and {b.real_dim}"
        )
    if a.pontryagin_numbers is None or b.pontryagin_numbers is None:
        raise InsufficientData(
            f"connected_sum({a.name}, {b.name}) needs Pontryagin numbers on both summands"
        )
    summed: dict[Partition, int] = dict(a.pontryagin_numbers)
    for key, value in b.pontryagin_numbers.items():
        summed[key] = summed.get(key, 0) + value
    return ManifoldData(
        name=name or f"{a.name}_sharp_{b.name}",
        real_dim=a.real_dim,
        pontryagin_numbers=summed,
        spin=a.spin and b.spin,
        string=a.string and b.string,
    )


# -- builtin manifolds -------------------------------------------------------------


def _builtin_name(prefix: str, n) -> str:
    # n by type and size before str() sees it (past 4,300 digits it raises)
    return f"{prefix}{whole(f'{prefix}n: n', n, 1 - 10**9, 10**9 - 1)}"


def cp(n: int) -> ManifoldData:
    """Complex projective space; c(T) = (1+h)^(n+1), <h^n> = 1."""
    name = _builtin_name("CP", n)
    if n < 1:
        raise DimensionError(f"{name} is not available (need n >= 1)")
    _check_real_dim(2 * n, name)

    def numbers(weight: int) -> dict[Partition, int]:
        # c = (1+h)^(n+1) and p = (1+h^2)^(n+1), so c_i and p_i are C(n+1, i) times a power of h
        return {lam: prod(comb(n + 1, part) for part in lam) for lam in partitions_of(weight)}

    return ManifoldData(
        name=name,
        real_dim=2 * n,
        pontryagin_numbers=numbers(n // 2) if n % 2 == 0 else None,
        chern_numbers=numbers(n),
        spin=(n % 2 == 1),
        string=False,
    )


def sphere(n: int) -> ManifoldData:
    """Even-dimensional sphere; stably parallelizable, all numbers vanish."""
    name = _builtin_name("S", n)
    if n < 2 or n % 2:
        raise UnknownManifold(f"{name} is not available (need even n >= 2)")
    return ManifoldData(
        name=name, real_dim=n, pontryagin_numbers={}, spin=True, string=True
    )


def torus(k: int) -> ManifoldData:
    """Flat torus; parallelizable, so every characteristic number vanishes."""
    name = _builtin_name("T", k)
    if k < 2 or k % 2:
        raise UnknownManifold(f"{name} is not available (need even k >= 2)")
    return ManifoldData(
        name=name,
        real_dim=k,
        pontryagin_numbers={},
        chern_numbers={},
        spin=True,
        string=True,
    )


def k3() -> ManifoldData:
    """The K3 surface: c_1^2 = 0, c_2 = 24, so p_1 = c_1^2 - 2 c_2 = -48; spin."""
    return ManifoldData(
        name="K3",
        real_dim=4,
        pontryagin_numbers={(1,): -48},
        chern_numbers={(2,): 24},
        spin=True,
        string=False,
    )


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
    """Resolve a builtin manifold by name (CPn, Sn, Tn, K3, HP2).  Each factory
    says why it refuses its n; `catalog.resolve` tries the builtins last, so
    an unknown name is refused as neither a catalog entry nor a builtin."""
    if not isinstance(name, str):
        raise DomainError(f"a manifold name must be a str, got {shown(name)}")
    if name == "K3":
        return k3()
    if name == "HP2":
        return hp2()
    for prefix, factory in (("CP", cp), ("S", sphere), ("T", torus)):
        suffix = name[len(prefix):]
        # ASCII digits only: str.isdigit also holds for '²' and '٤'
        if name.startswith(prefix) and suffix.isascii() and suffix.isdigit():
            digits = suffix.lstrip("0") or "0"
            # ten digits are far past every cap, and int() refuses past 4,300
            if len(digits) > 9:
                raise TooLarge(f"{prefix}n with n of {len(digits)} digits: real dimension "
                               f"exceeds the cap of {MAX_REAL_DIM}")
            return factory(int(digits))
    raise UnknownManifold(f"{name!r} is neither a catalog entry nor a builtin "
                          "(builtins: CPn, Sn, Tn, K3, HP2)")
