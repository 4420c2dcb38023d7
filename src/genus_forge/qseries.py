"""Truncated q-series with exact rational coefficients.

A QSeries stores finitely many terms c_n * q^(n/2) with c_n exact
rationals.  Exponents are kept on a half-integer grid: the stored key n
means q^(n/2), so integer q-powers sit at even keys and the half powers
that theta products produce sit at odd keys.  `trunc`, at most MAX_TRUNC,
is the hard cutoff: only keys 0 <= n < trunc are representable, and no
operation ever fabricates a coefficient at or beyond it.

A series is trunc int numerators over one positive denominator,
c_n = nums[n] / den, reduced by one gcd: zero is all 0 over 1, and equal
series store equal lists.

The class holds only the ring the genus engine works in: sums, products,
non-negative powers, coefficient access and numeric evaluation.  Series
division, log, exp and shifts serve only the product-route test oracle,
which keeps them on a series class of its own (tests/theta_oracle.py).
"""

from __future__ import annotations

import cmath
import math
from collections.abc import Iterator, Mapping
from fractions import Fraction

from .errors import (DivergentEvaluation, DomainError, FloatRangeError, TooLarge, TruncMismatch,
                     is_int, shown, whole)

Scalar = int | Fraction
MAX_TRUNC = 201  # through q^100; a product's work grows at least quadratically in trunc


def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if type(x) is int or is_int(x):
        return Fraction(x)
    raise DomainError(f"a coefficient must be an int or a Fraction, got {shown(x)}")


class QSeries:
    """Truncated series in q^(1/2) over the exact rationals."""

    __slots__ = ("nums", "den", "trunc")

    def __init__(self, coeffs: Mapping[int, Scalar], trunc: int):
        if whole("trunc", trunc) > MAX_TRUNC:
            raise TooLarge(f"trunc {shown(trunc)} exceeds the cap of {MAX_TRUNC}")
        clean: dict[int, Fraction] = {}
        for n, c in coeffs.items():
            if type(n) is not int or n < 0:
                raise DomainError(f"exponent key {shown(n)} not a nonnegative integer")
            if n >= trunc:
                raise DomainError(f"exponent {shown(n)} not below truncation {trunc}")
            clean[n] = _as_fraction(c)
        self.den = math.lcm(*(c.denominator for c in clean.values()))
        self.nums = [0] * trunc
        for n, c in clean.items():
            self.nums[n] = c.numerator * (self.den // c.denominator)
        self.trunc = trunc

    @classmethod
    def _of(cls, nums: list[int], den: int) -> "QSeries":
        """nums / den, den > 0, both divided by their gcd."""
        g = math.gcd(den, *nums)
        series = object.__new__(cls)
        series.nums = [x // g for x in nums] if g > 1 else nums
        series.den = den // g
        series.trunc = len(nums)
        return series

    # -- inspection --------------------------------------------------------

    def coeff(self, half_exponent: int) -> Fraction:
        """Coefficient of q^(half_exponent/2); DomainError outside [0, trunc)."""
        if type(half_exponent) is not int or not 0 <= half_exponent < self.trunc:
            raise DomainError(
                f"coefficient at half-exponent {shown(half_exponent)} is not stored "
                f"(truncation {self.trunc})"
            )
        return Fraction(self.nums[half_exponent], self.den)

    def terms(self) -> Iterator[tuple[int, Fraction]]:
        return ((n, Fraction(x, self.den)) for n, x in enumerate(self.nums) if x)

    def integer_powers_only(self) -> bool:
        return not any(self.nums[1::2])

    # -- canonical form / comparison ----------------------------------------

    def __bool__(self) -> bool:
        return any(self.nums)

    def __eq__(self, other) -> bool:
        if isinstance(other, QSeries):
            return self.den == other.den and self.nums == other.nums
        if isinstance(other, (int, Fraction)):
            other = Fraction(other)  # True == 1, as for an int
            return (self.nums[0] == other.numerator and self.den == other.denominator
                    and not any(self.nums[1:]))
        return NotImplemented

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return f"QSeries({self!s}; trunc={self.trunc})"

    def __str__(self) -> str:
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
        return " ".join(parts) or "0"

    # -- ring operations ---------------------------------------------------------

    def _check_same_trunc(self, other: "QSeries") -> None:
        if self.trunc != other.trunc:
            raise TruncMismatch(
                f"truncation orders differ: {self.trunc} vs {other.trunc}"
            )

    def __neg__(self) -> "QSeries":
        return QSeries._of([-x for x in self.nums], self.den)

    def __add__(self, other) -> "QSeries":
        if isinstance(other, (int, Fraction)):
            other = QSeries({0: other}, self.trunc)
        if not isinstance(other, QSeries):
            return NotImplemented
        self._check_same_trunc(other)
        den = math.lcm(self.den, other.den)
        a, b = den // self.den, den // other.den
        return QSeries._of([x * a + y * b for x, y in zip(self.nums, other.nums)], den)

    __radd__ = __add__

    def __sub__(self, other) -> "QSeries":
        if isinstance(other, (int, Fraction)):
            other = QSeries({0: other}, self.trunc)
        if not isinstance(other, QSeries):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "QSeries":
        return (-self) + other

    def __mul__(self, other) -> "QSeries":
        if isinstance(other, (int, Fraction)):
            c = _as_fraction(other)
            return QSeries._of([x * c.numerator for x in self.nums], self.den * c.denominator)
        if not isinstance(other, QSeries):
            return NotImplemented
        self._check_same_trunc(other)
        out = [0] * self.trunc
        bounds = [(m, b) for m, b in enumerate(other.nums) if b]
        for n, a in enumerate(self.nums):
            if not a:
                continue
            limit = self.trunc - n
            for m, b in bounds:
                if m >= limit:
                    break
                out[n + m] += a * b
        return QSeries._of(out, self.den * other.den)

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "QSeries":
        if not isinstance(k, int):
            return NotImplemented
        if k < 0:
            raise DomainError(f"negative power {shown(k)}: QSeries has no division")
        if k > MAX_TRUNC:  # the work grows with k; the library's callers pass at most 6
            raise TooLarge(f"power {shown(k)} exceeds the cap of {MAX_TRUNC}")
        result = QSeries({0: 1}, self.trunc)
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

        Half powers use the principal branch of the square root.  A
        coefficient past binary64 raises FloatRangeError.
        """
        q = complex(q)
        if abs(q) >= 1.0:
            raise DivergentEvaluation(f"|q| = {abs(q)} is not below 1")
        s = cmath.sqrt(q)
        total = 0j
        try:
            for n in range(self.trunc - 1, -1, -1):
                if self.nums[n]:
                    total += float(Fraction(self.nums[n], self.den)) * s**n
        except OverflowError:  # float(c) alone can raise: |s| < 1
            raise FloatRangeError(f"the coefficient at half-exponent {n} lies past binary64; "
                                  "the series cannot be evaluated in floats") from None
        return total
