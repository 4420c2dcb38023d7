"""The product route to every genus, kept as an independent test oracle.

Per-root factors are built as products: Jacobi theta quotients from
their triple products (`theta_ratio`), the q-graded twist bundles from
(1 -+ t e^y)(1 -+ t e^-y) pairs (`witten_bundle_ch`), and the classical
factors as quotients of cosh and sinh series.  A factor is expanded by
log, Newton power sums and a graded exponential into a class polynomial
(`multiplicative_class`), which is then paired with the characteristic
numbers.  None of this goes through the package's closed-form log
coefficients or power-sum numbers, nor through its series arithmetic: the
oracle runs on its own truncated series (`Series`, a dense list of
Fractions) and its own partitions, and imports from `genus_forge` only the
data types and error classes.  An engine series meets it only in `agrees`,
which reads the series through its public `terms()`.  The rest of the
series field (`div`, `log`, `exp`, `shift`, `truncate`) works on `Series`,
since the package never divides a series.  The oracle owns the
class-polynomial ring (`CharClassPoly`) that the factors are expanded in:
the package has none, since its genus engine pairs log coefficients with
power-sum numbers.  The Newton power sums in that ring are the oracle's
own too.

The top-level helpers (`hypersurface_todd`, `genus_value`,
`elliptic_genus`) mirror the package functions of the same names, and
`twisted_index_series` the series whose coefficients `twisted_indices`
reads; they return plain values: a Fraction, or a Series.
Chern data reaches them through the oracle's own conversion
(`pontryagin_from_chern`), and `kuenneth_numbers` is the per-part product
rule the package's power-sum split formula is checked against.
"""

from __future__ import annotations

from enum import Enum
from fractions import Fraction
from math import factorial
from typing import Iterator, Mapping

from genus_forge.errors import DataError, TruncMismatch
from genus_forge.manifolds import GenusKind, ManifoldData, Partition

Scalar = int | Fraction

DEFAULT_Q_TRUNC = 49


class ParityError(DataError):
    """Factor series for a Pontryagin-type class has odd-degree terms."""


class NonUnitDivisor(DataError):
    """Series division by a series with zero constant term."""


class NonUnitLog(DataError):
    """Series logarithm of a series whose constant term is not 1."""


class NonNilpotentExp(DataError):
    """Series exponential of a series with nonzero constant term."""


# -- the oracle's own truncated series, and the engine comparison ----------------
#
# A Series is a dense list of trunc Fractions, coefficient n at index n.  It
# shares no arithmetic with the package's QSeries, whose integer numerators
# over one denominator it checks; the two meet only in `agrees`.


class Series:
    """Truncated power series over the rationals, with +, -, * and powers."""

    __slots__ = ("c",)

    def __init__(self, coeffs: Mapping[int, Scalar], trunc: int):
        if trunc < 1:
            raise ValueError(f"truncation {trunc} is not positive")
        self.c = [Fraction(0)] * trunc
        for n, x in coeffs.items():
            if not 0 <= n < trunc:
                raise ValueError(f"exponent {n} outside 0..{trunc - 1}")
            self.c[n] = Fraction(x)

    @staticmethod
    def of(c: list[Fraction]) -> "Series":
        series = object.__new__(Series)
        series.c = c
        return series

    @property
    def trunc(self) -> int:
        return len(self.c)

    def coeff(self, n: int) -> Fraction:
        return self.c[n]

    def terms(self) -> Iterator[tuple[int, Fraction]]:
        return ((n, x) for n, x in enumerate(self.c) if x)

    def __bool__(self) -> bool:
        return any(self.c)

    def __eq__(self, other) -> bool:
        if isinstance(other, Series):
            return self.c == other.c
        if isinstance(other, (int, Fraction)):
            return self.c[0] == other and not any(self.c[1:])
        return NotImplemented

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return f"Series({dict(self.terms())}, {self.trunc})"

    def _lift(self, other) -> "Series | None":
        """other as a series of this truncation, a scalar as a constant; None
        for anything else."""
        if isinstance(other, (int, Fraction)):
            return Series({0: other}, self.trunc)
        if not isinstance(other, Series):
            return None
        if other.trunc != self.trunc:
            raise TruncMismatch(f"truncation orders differ: {self.trunc} vs {other.trunc}")
        return other

    def __add__(self, other) -> "Series":
        other = self._lift(other)
        if other is None:
            return NotImplemented
        out = list(self.c)
        for n, y in other.terms():
            out[n] += y
        return Series.of(out)

    __radd__ = __add__

    def __neg__(self) -> "Series":
        return Series.of([-x for x in self.c])

    def __sub__(self, other) -> "Series":
        other = self._lift(other)
        return NotImplemented if other is None else self + (-other)

    def __rsub__(self, other) -> "Series":
        return (-self) + other

    def __mul__(self, other) -> "Series":
        if isinstance(other, (int, Fraction)):
            return Series.of([x * other for x in self.c])
        other = self._lift(other)
        if other is None:
            return NotImplemented
        right = list(other.terms())
        out = [Fraction(0)] * self.trunc
        for n, x in self.terms():
            for m, y in right:
                if n + m >= self.trunc:
                    break
                out[n + m] += x * y
        return Series.of(out)

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "Series":
        if k < 0:
            raise ValueError(f"negative power {k}: use div")
        out = Series({0: 1}, self.trunc)
        for _ in range(k):
            out = out * self
        return out


def agrees(engine, oracle) -> bool:
    """Whether an engine result equals the oracle's: an engine series is read
    through its public terms(), and lists are compared item by item."""
    if isinstance(oracle, list):
        return len(engine) == len(oracle) and all(map(agrees, engine, oracle))
    if isinstance(oracle, Series):
        return engine.trunc == oracle.trunc and dict(engine.terms()) == dict(oracle.terms())
    return engine == oracle


def _partitions(n: int, largest: int | None = None) -> Iterator[Partition]:
    """The partitions of n into parts of at most `largest`, parts descending."""
    if n == 0:
        yield ()
        return
    for part in range(min(n, largest or n), 0, -1):
        for rest in _partitions(n - part, part):
            yield (part, *rest)


# -- the rest of the series field: division, log, exp, shifts -------------------
#
# The package's QSeries is only the ring its genus engine needs; the product
# route also divides, and takes logs and exponentials.


def div(a: Series | Scalar, b: Series | Scalar) -> Series:
    """a / b for a series b with nonzero constant term, or a nonzero scalar b;
    a scalar a is read as a constant series."""
    if not isinstance(b, Series):
        c = Fraction(b)
        if not c:
            raise ZeroDivisionError("division of series by zero scalar")
        return Series.of([x / c for x in a.c])
    if not isinstance(a, Series):
        a = Series({0: a}, b.trunc)
    if a.trunc != b.trunc:
        raise TruncMismatch(f"truncation orders differ: {a.trunc} vs {b.trunc}")
    b0 = b.c[0]
    if not b0:
        raise NonUnitDivisor("divisor has zero constant term")
    # back substitution: c_n = (a_n - sum_{k>=1} b_k c_{n-k}) / b_0
    later = [(m, y) for m, y in b.terms() if m]
    out: list[Fraction] = []
    for n, an in enumerate(a.c):
        out.append((an - sum(y * out[n - m] for m, y in later if m <= n)) / b0)
    return Series.of(out)


def log(a: Series) -> Series:
    """Series logarithm; requires constant term exactly 1."""
    if a.c[0] != 1:
        raise NonUnitLog("log needs constant term 1")
    out = [Fraction(0)] * a.trunc
    # l_n = a_n - (1/n) sum_{k=1}^{n-1} k l_k a_{n-k}
    for n in range(1, a.trunc):
        corr = sum(k * out[k] * a.c[n - k] for k in range(1, n) if out[k] and a.c[n - k])
        out[n] = a.c[n] - Fraction(corr, n)
    return Series.of(out)


def exp(a: Series) -> Series:
    """Series exponential; requires constant term 0."""
    if a.c[0]:
        raise NonNilpotentExp("exp needs zero constant term")
    out = [Fraction(1)] + [Fraction(0)] * (a.trunc - 1)
    # e_n = (1/n) sum_{k=1}^{n} k a_k e_{n-k}
    for n in range(1, a.trunc):
        out[n] = Fraction(sum(k * a.c[k] * out[n - k] for k in range(1, n + 1)
                              if a.c[k] and out[n - k]), n)
    return Series.of(out)


def shift(a: Series, half_exponents: int) -> Series:
    """Multiply by q^(half_exponents/2); negative shifts must not create
    negative exponents."""
    out = [Fraction(0)] * a.trunc
    for n, x in a.terms():
        m = n + half_exponents
        if m < 0:
            raise ValueError(f"shift by {half_exponents} makes exponent {m} negative")
        if m < a.trunc:
            out[m] = x
    return Series.of(out)


def truncate(a: Series, trunc: int) -> Series:
    """Restrict to a lower truncation order."""
    if trunc > a.trunc:
        raise TruncMismatch(f"cannot extend truncation {a.trunc} to {trunc}")
    return Series.of(a.c[:trunc])


# -- the class-polynomial ring ---------------------------------------------------------
#
# A CharClassPoly is a polynomial in generators g_1, ..., g_cap where g_i
# carries weight i (g_i stands for the i-th Pontryagin or Chern class, the
# `label` records which).  Monomials of weight above `weight_cap` are
# discarded by every operation, so the ring is the weight-truncated
# polynomial ring the product route runs in.  Coefficients live in whatever
# exact ring the caller supplies (Fraction for the classical genera, Series
# for the elliptic ones); the class only needs +, * and truthiness from them,
# and zero coefficients are never stored.

Monomial = tuple[int, ...]


def monomial_weight(mono: Monomial) -> int:
    return sum((i + 1) * e for i, e in enumerate(mono))


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
        """Coefficient of the monomial, one exponent per generator; 0 if absent."""
        return self.terms.get(tuple(mono), 0)

    def items(self) -> Iterator[tuple[Monomial, object]]:
        return iter(sorted(self.terms.items()))

    def weight_part(self, weight: int) -> "CharClassPoly":
        return CharClassPoly(
            self.label,
            self.weight_cap,
            {m: c for m, c in self.terms.items() if monomial_weight(m) == weight},
        )

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


_LABELS = {"pontryagin": "p", "chern": "c"}


class ThetaKind(str, Enum):
    THETA = "theta"
    THETA1 = "theta1"
    THETA2 = "theta2"


class WittenBundle(str, Enum):
    """The three q-graded tangent-twist bundles.

    SYM:      tensor over m >= 1 of S_{q^m} of the reduced tangent bundle
    EXT:      tensor over m >= 1 of Lambda_{q^m} of it
    EXT_HALF: tensor over m >= 1 of Lambda_{-q^(m-1/2)} of it
    """

    SYM = "sym"
    EXT = "ext"
    EXT_HALF = "ext_half"


class CharSeries:
    """Even truncated series in y with Series coefficients."""

    __slots__ = ("coeffs", "y_cap", "q_trunc")

    def __init__(self, coeffs: dict[int, Series], y_cap: int, q_trunc: int):
        if y_cap < 0:
            raise ValueError("y_cap must be nonnegative")
        clean: dict[int, Series] = {}
        for n, c in coeffs.items():
            if n % 2:
                raise ValueError(f"odd power y^{n} in an even series")
            if n > y_cap:
                continue
            if not isinstance(c, Series):
                raise TypeError("coefficients must be Series")
            if c.trunc != q_trunc:
                raise TruncMismatch(
                    f"coefficient truncation {c.trunc} != series q_trunc {q_trunc}"
                )
            if c:
                clean[n] = c
        self.coeffs = clean
        self.y_cap = y_cap
        self.q_trunc = q_trunc

    # -- constructors ------------------------------------------------------

    @classmethod
    def one(cls, y_cap: int, q_trunc: int) -> "CharSeries":
        return cls({0: Series({0: 1}, q_trunc)}, y_cap, q_trunc)

    @classmethod
    def const(cls, c: Series | Scalar, y_cap: int, q_trunc: int) -> "CharSeries":
        if not isinstance(c, Series):
            c = Series({0: c}, q_trunc)
        return cls({0: c}, y_cap, q_trunc)

    @classmethod
    def from_rational_even(
        cls, coeffs: dict[int, Fraction], y_cap: int, q_trunc: int
    ) -> "CharSeries":
        return cls(
            {n: Series({0: c}, q_trunc) for n, c in coeffs.items()},
            y_cap,
            q_trunc,
        )

    # -- inspection ----------------------------------------------------------

    def terms(self) -> Iterator[tuple[int, Series]]:
        return iter(sorted(self.coeffs.items()))

    def y_coeff(self, n: int) -> Series:
        return self.coeffs.get(n, Series({}, self.q_trunc))

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other) -> bool:
        if not isinstance(other, CharSeries):
            return NotImplemented
        return (
            self.y_cap == other.y_cap
            and self.q_trunc == other.q_trunc
            and self.coeffs == other.coeffs
        )

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        if not self.coeffs:
            return "0"
        return " + ".join(
            f"({c})*y^{n}" if n else f"({c})" for n, c in sorted(self.coeffs.items())
        )

    def _check(self, other: "CharSeries") -> None:
        if self.y_cap != other.y_cap or self.q_trunc != other.q_trunc:
            raise TruncMismatch("CharSeries truncation parameters differ")

    # -- arithmetic --------------------------------------------------------------

    def __add__(self, other) -> "CharSeries":
        if isinstance(other, (int, Fraction, Series)):
            other = CharSeries.const(other, self.y_cap, self.q_trunc)
        if not isinstance(other, CharSeries):
            return NotImplemented
        self._check(other)
        out = dict(self.coeffs)
        for n, c in other.coeffs.items():
            s = out.get(n)
            s = c if s is None else s + c
            if s:
                out[n] = s
            else:
                out.pop(n, None)
        return CharSeries(out, self.y_cap, self.q_trunc)

    __radd__ = __add__

    def __neg__(self) -> "CharSeries":
        return CharSeries({n: -c for n, c in self.coeffs.items()}, self.y_cap, self.q_trunc)

    def __sub__(self, other) -> "CharSeries":
        if isinstance(other, (int, Fraction, Series)):
            other = CharSeries.const(other, self.y_cap, self.q_trunc)
        if not isinstance(other, CharSeries):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "CharSeries":
        return (-self) + other

    def __mul__(self, other) -> "CharSeries":
        if isinstance(other, (int, Fraction, Series)):
            if not other:
                return CharSeries({}, self.y_cap, self.q_trunc)
            return CharSeries(
                {n: c * other for n, c in self.coeffs.items()}, self.y_cap, self.q_trunc
            )
        if not isinstance(other, CharSeries):
            return NotImplemented
        self._check(other)
        out: dict[int, Series] = {}
        for n, a in self.coeffs.items():
            for m, b in other.coeffs.items():
                k = n + m
                if k > self.y_cap:
                    continue
                prod = a * b
                prev = out.get(k)
                s = prod if prev is None else prev + prod
                if s:
                    out[k] = s
                else:
                    out.pop(k, None)
        return CharSeries(out, self.y_cap, self.q_trunc)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "CharSeries":
        if isinstance(other, (int, Fraction, Series)):
            return CharSeries(
                {n: div(c, other) for n, c in self.coeffs.items()}, self.y_cap, self.q_trunc
            )
        if not isinstance(other, CharSeries):
            return NotImplemented
        self._check(other)
        b0 = other.coeffs.get(0)
        if b0 is None or not b0.coeff(0):
            raise NonUnitDivisor("CharSeries divisor is not a unit at (y^0, q^0)")
        out: dict[int, Series] = {}
        for n in range(0, self.y_cap + 1, 2):
            acc = self.coeffs.get(n)
            for m in range(2, n + 1, 2):
                b = other.coeffs.get(m)
                c = out.get(n - m)
                if b is None or c is None:
                    continue
                term = b * c
                acc = -term if acc is None else acc - term
            if acc is not None and acc:
                out[n] = div(acc, b0)
        return CharSeries(out, self.y_cap, self.q_trunc)

    def __rtruediv__(self, other) -> "CharSeries":
        if isinstance(other, (int, Fraction, Series)):
            return CharSeries.const(other, self.y_cap, self.q_trunc) / self
        return NotImplemented


# -- per-root series pieces -----------------------------------------------------


def _cosh_char(y_cap: int, q_trunc: int, half: bool) -> CharSeries:
    scale = 4 if half else 1
    return CharSeries.from_rational_even(
        {
            2 * t: Fraction(1, scale**t * factorial(2 * t))
            for t in range(y_cap // 2 + 1)
        },
        y_cap,
        q_trunc,
    )


def _sinh_half_over_arg(y_cap: int, q_trunc: int) -> CharSeries:
    # sinh(y/2)/(y/2)
    return CharSeries.from_rational_even(
        {
            2 * t: Fraction(1, 4**t * factorial(2 * t + 1))
            for t in range(y_cap // 2 + 1)
        },
        y_cap,
        q_trunc,
    )


def _pair_product(t: Series, y_cap: int, plus: bool) -> CharSeries:
    """(1 -+ t e^y)(1 -+ t e^{-y}) = 1 -+ 2 t cosh(y) + t^2, which is even."""
    sign = 1 if plus else -1
    q_trunc = t.trunc
    two_t = t * 2
    coeffs: dict[int, Series] = {0: Series({0: 1}, q_trunc) + two_t * sign + t * t}
    for r in range(1, y_cap // 2 + 1):
        coeffs[2 * r] = two_t * Fraction(sign, factorial(2 * r))
    return CharSeries(coeffs, y_cap, q_trunc)


def _qpow(j2: int, q_trunc: int) -> Series | None:
    """q^(j2/2) as a Series, or None when it falls past the truncation."""
    if j2 >= q_trunc:
        return None
    return Series({j2: 1}, q_trunc)


def theta_ratio(kind: ThetaKind, y_cap: int, q_trunc: int) -> CharSeries:
    """One theta quotient as an even y-series with exact q-coefficients.

    theta:  y theta'(0, tau) / theta(x, tau)   (y-rescaled derivative)
    theta1: theta_1(x, tau) / theta_1(0, tau)
    theta2: theta_2(x, tau) / theta_2(0, tau)

    Each is computed from the triple-product form directly, truncating
    the product over j once q^j (or q^(j-1/2)) leaves the window.
    """
    kind = ThetaKind(kind)
    one_q = Series({0: 1}, q_trunc)

    if kind == ThetaKind.THETA:
        # y theta'(0)/theta(x): prefactors and the i from sin(pi x) cancel,
        # leaving prod (1-q^j)^3 over sinh(y/2)/(y/2) * prod (1-q^j)(1 - 2 q^j cosh y + q^{2j})
        num_q = one_q
        den = _sinh_half_over_arg(y_cap, q_trunc)
        j = 1
        while True:
            t = _qpow(2 * j, q_trunc)
            if t is None:
                break
            one_minus = one_q - t
            num_q = num_q * one_minus**3
            den = den * (CharSeries.const(one_minus, y_cap, q_trunc)
                         * _pair_product(t, y_cap, plus=False))
            j += 1
        return CharSeries.const(num_q, y_cap, q_trunc) / den

    if kind == ThetaKind.THETA1:
        num = _cosh_char(y_cap, q_trunc, half=True)
        den_q = one_q
        j = 1
        while True:
            t = _qpow(2 * j, q_trunc)
            if t is None:
                break
            one_minus = one_q - t
            num = num * (CharSeries.const(one_minus, y_cap, q_trunc)
                         * _pair_product(t, y_cap, plus=True))
            den_q = den_q * (one_minus * (one_q + t) ** 2)
            j += 1
        return num / CharSeries.const(den_q, y_cap, q_trunc)

    # theta2: half-integer steps
    num = CharSeries.one(y_cap, q_trunc)
    den_q = one_q
    j = 1
    while True:
        th = _qpow(2 * j - 1, q_trunc)  # q^(j - 1/2)
        if th is None:
            break
        t_int = _qpow(2 * j, q_trunc)
        one_minus_int = one_q - t_int if t_int is not None else one_q
        num = num * (CharSeries.const(one_minus_int, y_cap, q_trunc)
                     * _pair_product(th, y_cap, plus=False))
        den_q = den_q * (one_minus_int * (one_q - th) ** 2)
        j += 1
    return num / CharSeries.const(den_q, y_cap, q_trunc)

# -- Witten bundles -------------------------------------------------------------------


def _bundle_factor(kind: WittenBundle, y_cap: int, q_trunc: int) -> CharSeries:
    one_q = Series({0: 1}, q_trunc)
    kind = WittenBundle(kind)
    num = CharSeries.one(y_cap, q_trunc)
    den = CharSeries.one(y_cap, q_trunc)
    num_q = one_q
    den_q = one_q
    j = 1
    while True:
        if kind == WittenBundle.EXT_HALF:
            t = _qpow(2 * j - 1, q_trunc)
            if t is None:
                break
            t = -t
            num = num * _pair_product(t, y_cap, plus=True)
            den_q = den_q * (one_q + t) ** 2
        else:
            t = _qpow(2 * j, q_trunc)
            if t is None:
                break
            if kind == WittenBundle.SYM:
                num_q = num_q * (one_q - t) ** 2
                den = den * _pair_product(t, y_cap, plus=False)
            else:
                num = num * _pair_product(t, y_cap, plus=True)
                den_q = den_q * (one_q + t) ** 2
        j += 1
    return (num * num_q) / (den * den_q)


def witten_bundle_ch(
    kind: WittenBundle, weight_cap: int, q_trunc: int = DEFAULT_Q_TRUNC
) -> CharClassPoly:
    """Chern character of one q-graded twist bundle, in Pontryagin classes.

    The reduction by the trivial bundle of matching rank is folded in per
    root pair, so the q^0 term is 1 and every coefficient has weight-0
    part zero.
    """
    factor = _bundle_factor(kind, 2 * weight_cap, q_trunc)
    return multiplicative_class(factor, "pontryagin", weight_cap)


def _lift_to_qseries(poly: CharClassPoly, q_trunc: int) -> CharClassPoly:
    return CharClassPoly(
        poly.label,
        poly.weight_cap,
        {m: Series({0: c}, q_trunc) for m, c in poly.terms.items()},
    )


# -- Newton route: log, power sums, graded exponential -------------------------------


def _series_coeffs(factor) -> Mapping[int, object]:
    if isinstance(factor, (Series, CharSeries)):
        return dict(factor.terms())
    if not isinstance(factor, Mapping):
        raise TypeError("factor must be a series object or a power->coeff mapping")
    return factor


def _graded_log(coeffs: Mapping[int, object], cap: int) -> dict[int, object]:
    """log of 1 + sum a_n u^n through u^cap, over any exact coefficient ring.

    l_n = a_n - (1/n) sum_{k<n} k l_k a_{n-k}; only scalar rational
    multiplications are needed, so Series coefficients work unchanged.
    """
    out: dict[int, object] = {}
    for n in range(1, cap + 1):
        acc = coeffs.get(n)
        corr = None
        for k, lk in out.items():
            ank = coeffs.get(n - k)
            if ank is None or not ank:
                continue
            term = (lk * ank) * k
            corr = term if corr is None else corr + term
        if corr is not None:
            corr = corr * Fraction(1, n)
            acc = -corr if acc is None else acc - corr
        if acc is not None and acc:
            out[n] = acc
    return out


def _power_sums(label: str, cap: int, n_roots: int, one) -> list[CharClassPoly]:
    """Power sums P_1..P_cap in the generators via the Newton identities.

    e_i vanishes for i > n_roots; with n_roots >= cap every e_i through
    the cap survives and the result is root-count independent.
    """
    e = [None] * (cap + 1)
    for i in range(1, cap + 1):
        if i <= n_roots:
            e[i] = CharClassPoly.generator(label, cap, i, one)
    zero = CharClassPoly.zero(label, cap)
    p: list[CharClassPoly] = [zero]
    for k in range(1, cap + 1):
        acc = e[k].scale(Fraction((-1) ** (k - 1) * k)) if e[k] is not None else zero
        for i in range(1, k):
            if e[i] is None:
                continue
            term = e[i] * p[k - i]
            acc = acc + term.scale(Fraction((-1) ** (i - 1)))
        p.append(acc)
    return p


def multiplicative_class(
    factor,
    kind: str,
    weight_cap: int,
    n_roots: int | None = None,
) -> CharClassPoly:
    """prod over roots of Q(root), expanded in Pontryagin or Chern classes.

    `factor` is a one-variable series with constant term 1: a Series on
    the integer power grid, a CharSeries, or a plain power->coefficient
    mapping.  For the Pontryagin kind the factor must be even in its
    variable, and powers are halved so u = y^2 carries weight 1.
    """
    if kind not in _LABELS:
        raise ValueError(f"kind must be one of {sorted(_LABELS)}, got {kind!r}")
    coeffs = _series_coeffs(factor)
    c0 = coeffs.get(0)
    if c0 is None or c0 != 1:
        raise NonUnitLog("factor series must have constant term 1")
    if kind == "pontryagin":
        if any(n % 2 for n, c in coeffs.items() if c):
            raise ParityError("Pontryagin-type factor must be even in its variable")
        u_coeffs = {n // 2: c for n, c in coeffs.items() if n > 0 and c}
    else:
        u_coeffs = {n: c for n, c in coeffs.items() if n > 0 and c}

    if n_roots is None:
        n_roots = 2 * weight_cap
    if n_roots < 1:
        raise ValueError("n_roots must be positive")

    label = _LABELS[kind]
    if weight_cap == 0:
        return CharClassPoly.constant(label, 0, c0)

    logs = _graded_log(u_coeffs, weight_cap)
    psums = _power_sums(label, weight_cap, n_roots, c0)

    total = CharClassPoly.zero(label, weight_cap)
    for k, lk in logs.items():
        total = total + psums[k].scale(lk)

    result = CharClassPoly.constant(label, weight_cap, c0)
    term = result
    for j in range(1, weight_cap + 1):
        term = term * total
        if not term:
            break
        result = result + term.scale(Fraction(1, factorial(j)))
    return result


def paired_value(poly: CharClassPoly, numbers: Mapping, weight: int, zero):
    """Pair the weight-`weight` part of a class with characteristic numbers."""
    total = zero
    for lam in _partitions(weight):
        coeff = poly.coeff(partition_to_monomial(lam, poly.weight_cap))
        if not coeff:
            continue
        num = numbers.get(lam, 0)
        if num:
            total = total + coeff * num
    return total


# -- factor series of the classical genera ------------------------------------
#
# Builders return Series on the *integer* power grid (key = power of the
# root variable); the q^(1/2) reading of Series keys plays no role here,
# only the exact ring structure does.


def _cosh_series(y_cap: int, half: bool) -> Series:
    trunc = y_cap + 1
    scale = 4 if half else 1
    return Series(
        {2 * t: Fraction(1, scale**t * factorial(2 * t)) for t in range(0, trunc // 2 + 1) if 2 * t < trunc},
        trunc,
    )


def _sinh_over_arg(y_cap: int, half: bool) -> Series:
    # sinh(y)/y, or sinh(y/2)/(y/2) when half is set
    trunc = y_cap + 1
    scale = 4 if half else 1
    return Series(
        {2 * t: Fraction(1, scale**t * factorial(2 * t + 1)) for t in range(0, trunc // 2 + 1) if 2 * t < trunc},
        trunc,
    )


def ahat_factor(y_cap: int) -> Series:
    """(y/2)/sinh(y/2)."""
    return div(1, _sinh_over_arg(y_cap, half=True))


def signature_factor(y_cap: int) -> Series:
    """y/tanh(y)."""
    return div(_cosh_series(y_cap, half=False), _sinh_over_arg(y_cap, half=False))


def lhat_factor(y_cap: int) -> Series:
    """y/tanh(y/2); note the constant term 2."""
    return div(2 * _cosh_series(y_cap, half=True), _sinh_over_arg(y_cap, half=True))


def _one_minus_exp_over_arg(trunc: int) -> Series:
    """(1 - exp(-z))/z through z^(trunc - 2)."""
    return shift(1 - exp(Series({1: -1}, trunc)), -1)


def todd_factor(z_cap: int) -> Series:
    """z/(1 - exp(-z))."""
    trunc = z_cap + 2
    return truncate(div(1, _one_minus_exp_over_arg(trunc)), z_cap + 1)


def genus_class(kind: GenusKind, weight_cap: int) -> tuple[CharClassPoly, Fraction]:
    """The multiplicative class of a genus and its per-root constant.

    The genus of a 4m-manifold is const^(2m) times the pairing of the
    class with the Pontryagin numbers (const is 1 except for the big-L
    factor, whose constant term 2 is divided out before expanding).
    """
    if kind == GenusKind.TODD:
        return multiplicative_class(todd_factor(weight_cap), "chern", weight_cap), Fraction(1)
    builders = {
        GenusKind.AHAT: ahat_factor,
        GenusKind.LHAT: lhat_factor,
        GenusKind.SIGNATURE: signature_factor,
    }
    factor = builders[kind](2 * weight_cap)
    const = factor.coeff(0)
    if const != 1:
        factor = div(factor, const)
    return multiplicative_class(factor, "pontryagin", weight_cap), const


def hypersurface_todd(n: int, degree: int) -> Fraction:
    """The package's hypersurface Todd value by its series route: the
    z^n coefficient of (1 - exp(-z))/z, paired with the degree."""
    return _one_minus_exp_over_arg(n + 2).coeff(n) * degree


# -- characteristic numbers: Chern -> Pontryagin and products ------------------------


def pontryagin_from_chern(chern: Mapping[Partition, int], n: int) -> dict[Partition, int]:
    """Pontryagin numbers of a complex n-fold from its Chern numbers.

    From c(E)c(E-bar): the degree-2i part of (sum c_a)(sum (-1)^b c_b)
    equals (-1)^i p_i; each monomial in the p_i is expanded in the c_j
    and paired with the Chern numbers.
    """
    if n % 2:
        return {}
    one = Fraction(1)
    total = CharClassPoly.constant("c", n, one)
    conj = CharClassPoly.constant("c", n, one)
    for i in range(1, n + 1):
        gen = CharClassPoly.generator("c", n, i, one)
        total = total + gen
        conj = conj + gen.scale((-1) ** i)
    both = total * conj
    p_polys = [both.weight_part(2 * i) * Fraction((-1) ** i) for i in range(1, n // 2 + 1)]
    out: dict[Partition, int] = {}
    for lam in _partitions(n // 2):
        poly = CharClassPoly.constant("c", n, one)
        for part in lam:
            poly = poly * p_polys[part - 1]
        value = paired_value(poly, chern, n, Fraction(0))
        assert value.denominator == 1, (lam, value)
        if value:
            out[lam] = int(value)
    return out


def kuenneth_numbers(
    a_nums: Mapping[Partition, int],
    b_nums: Mapping[Partition, int],
    a_total: int,
    b_total: int,
) -> dict[Partition, int]:
    """Kuenneth rule: each class of the product splits as
    g_i(AxB) = sum_(r+s=i) g_r(A) g_s(B), so a top number of AxB is a sum
    over ways of splitting every part between the factors."""
    out: dict[Partition, int] = {}
    for lam in _partitions(a_total + b_total):
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


def _pontryagin_numbers(m: ManifoldData) -> Mapping[Partition, int]:
    if m.pontryagin_numbers is not None:
        return m.pontryagin_numbers
    return pontryagin_from_chern(m.chern_numbers, m.complex_dim)


# -- genera of manifolds -----------------------------------------------------------


def genus_value(m: ManifoldData, kind: GenusKind) -> Fraction:
    """A classical genus by the Newton-route class and its pairing."""
    kind = GenusKind(kind)
    if kind == GenusKind.TODD:
        poly, _ = genus_class(kind, m.complex_dim)
        return paired_value(poly, m.chern_numbers, m.complex_dim, Fraction(0))
    mm = m.real_dim // 4
    poly, const = genus_class(kind, mm)
    value = paired_value(poly, _pontryagin_numbers(m), mm, Fraction(0))
    return value * const ** (2 * mm)


def _pontryagin_series(m: ManifoldData, factor: CharSeries, q_trunc: int) -> Series:
    mm = m.real_dim // 4
    const = factor.y_coeff(0).coeff(0)
    poly = multiplicative_class(factor / const, "pontryagin", mm)
    series = paired_value(poly, _pontryagin_numbers(m), mm, Series({}, q_trunc))
    return series * const ** (2 * mm)


def elliptic_genus(m: ManifoldData, kind: str, q_trunc: int) -> Series:
    """Ell1, Ell2 or Witten from theta quotients: Witten is the derivative
    quotient, Ell2 that times the half-step quotient, Ell1 twice the
    derivative quotient times the cosine quotient."""
    y_cap = m.real_dim // 2
    factor = theta_ratio(ThetaKind.THETA, y_cap, q_trunc)
    if kind == "ell2":
        factor = factor * theta_ratio(ThetaKind.THETA2, y_cap, q_trunc)
    elif kind == "ell1":
        factor = factor * theta_ratio(ThetaKind.THETA1, y_cap, q_trunc) * 2
    elif kind != "witten":
        raise ValueError(f"unknown elliptic genus {kind!r}")
    return _pontryagin_series(m, factor, q_trunc)


def twisted_index_series(m: ManifoldData, family: str, q_trunc: int) -> Series:
    """Ahat * ch(SYM) for family W, Ahat * ch(SYM) * ch(EXT_HALF) for B,
    paired with the Pontryagin numbers."""
    mm = m.real_dim // 4
    ahat = _lift_to_qseries(
        multiplicative_class(ahat_factor(2 * mm), "pontryagin", mm), q_trunc
    )
    ch = witten_bundle_ch(WittenBundle.SYM, mm, q_trunc)
    if family == "B":
        ch = ch * witten_bundle_ch(WittenBundle.EXT_HALF, mm, q_trunc)
    elif family != "W":
        raise ValueError(f"family must be 'B' or 'W', got {family!r}")
    return paired_value(ahat * ch, _pontryagin_numbers(m), mm, Series({}, q_trunc))
