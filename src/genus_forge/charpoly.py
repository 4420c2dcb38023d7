"""Truncated polynomials in weighted characteristic-class generators.

A CharClassPoly is a polynomial in generators g_1, ..., g_cap where g_i
carries weight i (g_i stands for the i-th Pontryagin or Chern class,
the `label` records which).  Monomials of weight above `weight_cap` are
discarded by every operation, so the ring is the weight-truncated
polynomial ring the genus computations run in.

Coefficients live in whatever exact ring the caller supplies (Fraction
for the classical genera, QSeries for the elliptic ones); the class
only needs +, *, unary - and truthiness from them, and zero
coefficients are never stored.

No module of the package imports this one: the genus engine works on
power-sum numbers (manifolds.py).  The class-polynomial route is the
test oracle's (tests/theta_oracle.py); the module stays importable as
genus_forge.charpoly because perfbench/tracer.py imports it as a layer.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterator, Mapping

Monomial = tuple[int, ...]


def monomial_weight(mono: Monomial) -> int:
    return sum((i + 1) * e for i, e in enumerate(mono))


def monomial_to_partition(mono: Monomial) -> tuple[int, ...]:
    """g_1^2 * g_2 becomes the partition (2, 1, 1), parts descending."""
    parts: list[int] = []
    for i, e in enumerate(mono):
        parts.extend([i + 1] * e)
    parts.sort(reverse=True)
    return tuple(parts)


def partition_to_monomial(partition: tuple[int, ...], cap: int) -> Monomial:
    exps = [0] * cap
    for part in partition:
        if not 1 <= part <= cap:
            raise ValueError(f"part {part} outside generator range 1..{cap}")
        exps[part - 1] += 1
    return tuple(exps)


class CharClassPoly:
    """Weight-truncated polynomial over generators of weights 1..cap."""

    __slots__ = ("label", "weight_cap", "terms")

    def __init__(self, label: str, weight_cap: int, terms: Mapping[Monomial, object]):
        if weight_cap < 0:
            raise ValueError("weight_cap must be nonnegative")
        clean: dict[Monomial, object] = {}
        for mono, c in terms.items():
            mono = tuple(mono)
            if len(mono) != weight_cap:
                raise ValueError(
                    f"monomial {mono} has {len(mono)} slots, expected {weight_cap}"
                )
            if monomial_weight(mono) > weight_cap:
                continue
            if c:
                clean[mono] = c
        self.label = label
        self.weight_cap = weight_cap
        self.terms = clean

    # -- constructors -----------------------------------------------------

    @classmethod
    def zero(cls, label: str, weight_cap: int) -> "CharClassPoly":
        return cls(label, weight_cap, {})

    @classmethod
    def constant(cls, label: str, weight_cap: int, coeff) -> "CharClassPoly":
        return cls(label, weight_cap, {(0,) * weight_cap: coeff})

    @classmethod
    def generator(cls, label: str, weight_cap: int, index: int, coeff) -> "CharClassPoly":
        """coeff * g_index (1-based)."""
        if not 1 <= index <= weight_cap:
            raise ValueError(f"generator index {index} outside 1..{weight_cap}")
        exps = [0] * weight_cap
        exps[index - 1] = 1
        return cls(label, weight_cap, {tuple(exps): coeff})

    # -- inspection ---------------------------------------------------------

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        if not isinstance(other, CharClassPoly):
            return NotImplemented
        return (
            self.label == other.label
            and self.weight_cap == other.weight_cap
            and self.terms == other.terms
        )

    __hash__ = None  # type: ignore[assignment]

    def coeff(self, mono: Monomial):
        """Coefficient of the monomial, 0 if absent; the query may omit
        trailing zero exponents."""
        mono = tuple(mono)
        if len(mono) < self.weight_cap:
            mono = mono + (0,) * (self.weight_cap - len(mono))
        elif len(mono) > self.weight_cap:
            if any(mono[self.weight_cap:]):
                raise ValueError(
                    f"monomial {mono} uses generators beyond weight cap {self.weight_cap}"
                )
            mono = mono[: self.weight_cap]
        return self.terms.get(mono, 0)

    def items(self) -> Iterator[tuple[Monomial, object]]:
        return iter(sorted(self.terms.items()))

    def weight_part(self, weight: int) -> "CharClassPoly":
        return CharClassPoly(
            self.label,
            self.weight_cap,
            {m: c for m, c in self.terms.items() if monomial_weight(m) == weight},
        )

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for mono, c in self.items():
            factors = [
                f"{self.label}{i + 1}" + (f"^{e}" if e > 1 else "")
                for i, e in enumerate(mono)
                if e
            ]
            body = "*".join(factors) if factors else "1"
            parts.append(f"({c})*{body}")
        return " + ".join(parts)

    # -- ring operations --------------------------------------------------------

    def _check_compatible(self, other: "CharClassPoly") -> None:
        if self.label != other.label or self.weight_cap != other.weight_cap:
            raise ValueError("incompatible generator rings")

    def __add__(self, other: "CharClassPoly") -> "CharClassPoly":
        if not isinstance(other, CharClassPoly):
            return NotImplemented
        self._check_compatible(other)
        out = dict(self.terms)
        for mono, c in other.terms.items():
            prev = out.get(mono)
            s = c if prev is None else prev + c
            if s:
                out[mono] = s
            else:
                out.pop(mono, None)
        return CharClassPoly(self.label, self.weight_cap, out)

    def __sub__(self, other: "CharClassPoly") -> "CharClassPoly":
        if not isinstance(other, CharClassPoly):
            return NotImplemented
        return self + other.scale(-1)

    def scale(self, scalar) -> "CharClassPoly":
        """Multiply every coefficient by a scalar from the coefficient ring."""
        if not scalar:
            return CharClassPoly.zero(self.label, self.weight_cap)
        return CharClassPoly(
            self.label,
            self.weight_cap,
            {m: c * scalar for m, c in self.terms.items()},
        )

    def __mul__(self, other) -> "CharClassPoly":
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        if not isinstance(other, CharClassPoly):
            return NotImplemented
        self._check_compatible(other)
        cap = self.weight_cap
        a = [(m, monomial_weight(m), c) for m, c in self.terms.items()]
        b = [(m, monomial_weight(m), c) for m, c in other.terms.items()]
        out: dict[Monomial, object] = {}
        for ma, wa, ca in a:
            budget = cap - wa
            for mb, wb, cb in b:
                if wb > budget:
                    continue
                mono = tuple(x + y for x, y in zip(ma, mb))
                prod = ca * cb
                prev = out.get(mono)
                s = prod if prev is None else prev + prod
                if s:
                    out[mono] = s
                else:
                    out.pop(mono, None)
        return CharClassPoly(self.label, self.weight_cap, out)

    __rmul__ = __mul__
