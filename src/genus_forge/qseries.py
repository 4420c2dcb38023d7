"""Truncated q-series with exact rational coefficients.

A QSeries stores finitely many terms c_n * q^(n/2) with c_n exact
rationals.  Exponents are kept on a half-integer grid: the stored key n
means q^(n/2), so integer q-powers sit at even keys and the half powers
that theta products produce sit at odd keys.  `trunc`, at most MAX_TRUNC,
is the hard cutoff: only keys 0 <= n < trunc are representable, and no
operation ever fabricates a coefficient at or beyond it.

Coefficients equal to zero are never stored, so equality of the
coefficient dict is canonical equality of the series.

The class holds only the ring the genus engine works in: sums, products,
non-negative powers, coefficient access and numeric evaluation.  Series
division, log, exp and shifts serve only the product-route test oracle,
which keeps them as plain functions over QSeries (tests/theta_oracle.py).
"""

from __future__ import annotations

import cmath
from collections.abc import Iterator, Mapping
from fractions import Fraction

from .errors import DivergentEvaluation, DomainError, TooLarge, TruncMismatch, is_int, shown, whole

Scalar = int | Fraction
MAX_TRUNC = 201  # through q^100; a product's work grows at least quadratically in trunc

_ZERO = Fraction(0)


def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if type(x) is int or is_int(x):
        return Fraction(x)
    raise DomainError(f"a coefficient must be an int or a Fraction, got {shown(x)}")


class QSeries:
    """Truncated series in q^(1/2) over the exact rationals."""

    __slots__ = ("coeffs", "trunc")

    def __init__(self, coeffs: Mapping[int, Scalar], trunc: int):
        if whole("trunc", trunc) > MAX_TRUNC:
            raise TooLarge(f"trunc {shown(trunc)} exceeds the cap of {MAX_TRUNC}")
        clean: dict[int, Fraction] = {}
        for n, c in coeffs.items():
            if type(n) is not int or n < 0:
                raise DomainError(f"exponent key {shown(n)} not a nonnegative integer")
            if n >= trunc:
                raise DomainError(f"exponent {shown(n)} not below truncation {trunc}")
            c = _as_fraction(c)
            if c:
                clean[n] = c
        self.coeffs = clean
        self.trunc = trunc

    # -- constructors ----------------------------------------------------

    @classmethod
    def zero(cls, trunc: int) -> "QSeries":
        return cls({}, trunc)

    @classmethod
    def one(cls, trunc: int) -> "QSeries":
        return cls({0: 1}, trunc)

    @classmethod
    def constant(cls, c: Scalar, trunc: int) -> "QSeries":
        return cls({0: c}, trunc)

    # -- inspection --------------------------------------------------------

    def coeff(self, half_exponent: int) -> Fraction:
        """Coefficient of q^(half_exponent/2); DomainError outside [0, trunc)."""
        if type(half_exponent) is not int or not 0 <= half_exponent < self.trunc:
            raise DomainError(
                f"coefficient at half-exponent {shown(half_exponent)} is not stored "
                f"(truncation {self.trunc})"
            )
        return self.coeffs.get(half_exponent, _ZERO)

    def terms(self) -> Iterator[tuple[int, Fraction]]:
        return iter(sorted(self.coeffs.items()))

    def integer_powers_only(self) -> bool:
        return all(n % 2 == 0 for n in self.coeffs)

    def valuation(self) -> int | None:
        """Smallest stored half-exponent, or None for the zero series."""
        return min(self.coeffs) if self.coeffs else None

    # -- canonical form / comparison ----------------------------------------

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other) -> bool:
        if isinstance(other, QSeries):
            return self.trunc == other.trunc and self.coeffs == other.coeffs
        if isinstance(other, (int, Fraction)):
            other = Fraction(other)  # True == 1, as for an int
            if not other:
                return not self.coeffs
            return self.coeffs == {0: other}
        return NotImplemented

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return f"QSeries({self!s}; trunc={self.trunc})"

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for n, c in self.terms():
            mag = -c if c < 0 else c
            if n == 0:
                body = str(mag)
            else:
                if n % 2 == 0:
                    power = "q" if n == 2 else f"q^{n // 2}"
                else:
                    power = f"q^({Fraction(n, 2)})"
                body = power if mag == 1 else f"{mag}*{power}"
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(parts)

    # -- helpers --------------------------------------------------------------

    def _check_same_trunc(self, other: "QSeries") -> None:
        if self.trunc != other.trunc:
            raise TruncMismatch(
                f"truncation orders differ: {self.trunc} vs {other.trunc}"
            )

    # -- ring operations ---------------------------------------------------------

    def __neg__(self) -> "QSeries":
        return QSeries({n: -c for n, c in self.coeffs.items()}, self.trunc)

    def __add__(self, other) -> "QSeries":
        if isinstance(other, (int, Fraction)):
            other = QSeries.constant(other, self.trunc)
        if not isinstance(other, QSeries):
            return NotImplemented
        self._check_same_trunc(other)
        out = dict(self.coeffs)
        for n, c in other.coeffs.items():
            out[n] = out.get(n, _ZERO) + c
        return QSeries(out, self.trunc)

    __radd__ = __add__

    def __sub__(self, other) -> "QSeries":
        if isinstance(other, (int, Fraction)):
            other = QSeries.constant(other, self.trunc)
        if not isinstance(other, QSeries):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "QSeries":
        return (-self) + other

    def __mul__(self, other) -> "QSeries":
        if isinstance(other, (int, Fraction)):
            c = _as_fraction(other)
            if not c:
                return QSeries.zero(self.trunc)
            return QSeries({n: a * c for n, a in self.coeffs.items()}, self.trunc)
        if not isinstance(other, QSeries):
            return NotImplemented
        self._check_same_trunc(other)
        out: dict[int, Fraction] = {}
        bounds = sorted(other.coeffs.items())
        for n, a in sorted(self.coeffs.items()):
            limit = self.trunc - n
            for m, b in bounds:
                if m >= limit:
                    break
                k = n + m
                out[k] = out.get(k, _ZERO) + a * b
        return QSeries(out, self.trunc)

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "QSeries":
        if not isinstance(k, int):
            return NotImplemented
        if k < 0:
            raise DomainError(f"negative power {shown(k)}: QSeries has no division")
        if k > MAX_TRUNC:  # the work grows with k; the library's callers pass at most 6
            raise TooLarge(f"power {shown(k)} exceeds the cap of {MAX_TRUNC}")
        result = QSeries.one(self.trunc)
        base = self
        while k:
            if k & 1:
                result = result * base
            base_needed = k >> 1
            if base_needed:
                base = base * base
            k = base_needed
        return result

    # -- numeric evaluation ------------------------------------------------------

    def eval_at(self, q: complex) -> complex:
        """Evaluate the truncated series at a numeric q with |q| < 1.

        Half powers use the principal branch of the square root.
        """
        q = complex(q)
        if abs(q) >= 1.0:
            raise DivergentEvaluation(f"|q| = {abs(q)} is not below 1")
        s = cmath.sqrt(q)
        total = 0j
        for n, c in sorted(self.coeffs.items(), reverse=True):
            total += float(c) * s**n
        return total
