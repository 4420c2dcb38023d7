"""Multiplicative genera through one route: log coefficients times power-sum
numbers.

A multiplicative genus is fixed by the logarithm of its per-root factor
Q.  Write log Q = sum_k l_k u^k, with u = y^2 for the Pontryagin-type
genera (roots +-y_j) and u = x, the root itself, for Todd.  Summed over
the roots this is sum_k l_k P_k, where P_k are the Newton power sums of
the roots, and the weight-m part of its exponential is

    sum over mu |- m of  prod_i l_{mu_i} P_{mu_i} / prod_k a_k(mu)!

with a_k(mu) the number of parts of mu equal to k.  Pairing with the
fundamental class turns prod_i P_{mu_i} into the power-sum number
s_mu[M], an integer combination of the Pontryagin (or Chern) numbers;
`s_numbers` reads it off a p(m) x p(m) integer matrix whose rows are
built on demand and cached per weight.  `pair_logs` is the pairing loop.
Only the coefficients l_k change from one genus to the next; the
coefficient ring may be Fraction or QSeries, so the elliptic genera take
the same route (see elliptic.py).

All root variables are normalized so that the Ahat factor is
(y/2)/sinh(y/2); the signature factor is then y/tanh(y) and the big-L
factor y/tanh(y/2).  With S_k = 2^(2k) B_(2k) / (2k (2k)!), the y^(2k)
coefficient of log(sinh(y)/y), `log_coeffs` gives

    Ahat         l_k = -S_k / 4^k
    signature    l_k = (4^k - 2) S_k
    big-L / 2    l_k = S_k - 2 S_k / 4^k
    Todd         l_1 = 1/2, l_2k = -S_k / 4^k, other odd l_k = 0

The big-L factor has constant term 2.  Its logarithm is taken of the
factor halved, and `pair_logs` multiplies the genus of a 4m-manifold by
the per-root constant to the power 2m, the number of roots; the value
equals the signature, and that equality is kept under test rather than
normalized away.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb, factorial, prod
from typing import Mapping

from .charpoly import CharClassPoly, monomial_to_partition
from .errors import DimensionError, InsufficientData
from .manifolds import GenusKind, ManifoldData, Partition, partitions_of
from .qseries import QSeries

_BERNOULLI = [Fraction(1)]


def _bernoulli(n: int) -> Fraction:
    """B_n (B_1 = -1/2), extending the cached list on demand."""
    while len(_BERNOULLI) <= n:
        j = len(_BERNOULLI)
        acc = sum(comb(j + 1, i) * b for i, b in enumerate(_BERNOULLI))
        _BERNOULLI.append(-acc / (j + 1))
    return _BERNOULLI[n]


def _log_sinh(k: int) -> Fraction:
    """S_k, the y^(2k) coefficient of log(sinh(y)/y)."""
    return 4**k * _bernoulli(2 * k) / (2 * k * factorial(2 * k))


def log_coeffs(kind: GenusKind, weight: int) -> list[Fraction]:
    """l_1 .. l_weight of the classical factor, big-L halved."""
    kind = GenusKind(kind)
    if kind == GenusKind.TODD:
        # x/(1 - e^-x) = e^(x/2) (x/2)/sinh(x/2): l_1 = 1/2, then Ahat in x
        logs = [Fraction(0)] * weight
        logs[0] = Fraction(1, 2)
        for k, ahat in enumerate(log_coeffs(GenusKind.AHAT, weight // 2), start=1):
            logs[2 * k - 1] = ahat
        return logs
    closed = {
        GenusKind.AHAT: lambda s, k: -s / 4**k,
        GenusKind.SIGNATURE: lambda s, k: (4**k - 2) * s,
        GenusKind.LHAT: lambda s, k: s - 2 * s / 4**k,
    }[kind]
    return [closed(_log_sinh(k), k) for k in range(1, weight + 1)]


# -- power-sum numbers ------------------------------------------------------------


def _power_sums(cap: int) -> list[CharClassPoly]:
    """Power sums P_1..P_cap in the elementary symmetric functions e_i.

    The Newton identities P_k = sum_{i<k} (-1)^(i-1) e_i P_(k-i)
    + (-1)^(k-1) k e_k.  The e_i are the Pontryagin classes for the
    squared roots and the Chern classes for the roots themselves, so one
    set of integer polynomials serves both.
    """
    e = [None] + [CharClassPoly.generator("e", cap, i, 1) for i in range(1, cap + 1)]
    p = [CharClassPoly.zero("e", cap)]
    for k in range(1, cap + 1):
        acc = e[k].scale((-1) ** (k - 1) * k)
        for i in range(1, k):
            acc = acc + (e[i] * p[k - i]).scale((-1) ** (i - 1))
        p.append(acc)
    return p


class _SMatrix:
    """Rows mu -> {lambda: coefficient of e_lambda in prod_i P_(mu_i)} of
    one weight, each built on first use from products memoized on the
    tail of mu."""

    def __init__(self, weight: int):
        self.power_sums = _power_sums(weight)
        self.products: dict[Partition, CharClassPoly] = {}
        self.rows: dict[Partition, dict[Partition, int]] = {}

    def _product(self, mu: Partition) -> CharClassPoly:
        poly = self.products.get(mu)
        if poly is None:
            head = self.power_sums[mu[0]]
            poly = head if len(mu) == 1 else head * self._product(mu[1:])
            self.products[mu] = poly
        return poly

    def row(self, mu: Partition) -> dict[Partition, int]:
        row = self.rows.get(mu)
        if row is None:
            row = {monomial_to_partition(m): c for m, c in self._product(mu).terms.items()}
            self.rows[mu] = row
        return row


@lru_cache(maxsize=None)
def _s_matrix(weight: int) -> _SMatrix:
    return _SMatrix(weight)


def s_numbers(numbers: Mapping[Partition, int], partitions) -> dict[Partition, int]:
    """Power-sum numbers s_mu[M] = <prod_i P_(mu_i), [M]> for each mu given.

    `numbers` are the Pontryagin or Chern numbers of M, keyed by
    partitions of the same weight as every mu.
    """
    out = {}
    for mu in partitions:
        row = _s_matrix(sum(mu)).row(mu)
        out[mu] = sum(n * row.get(lam, 0) for lam, n in numbers.items())
    return out


def pair_logs(numbers: Mapping[Partition, int], weight: int, logs: list, zero, const: int = 1):
    """const^(2 weight) * sum over mu |- weight of s_mu[M] prod_i l_(mu_i) / prod_k a_k(mu)!.

    `logs[k - 1]` is l_k, a Fraction or a QSeries; `zero` is the zero of
    that ring.  Partitions with a vanishing l_(mu_i) are never formed.
    """
    needed = [mu for mu in partitions_of(weight) if all(logs[k - 1] for k in mu)]
    products: dict[Partition, object] = {}

    def log_product(mu):
        value = products.get(mu)
        if value is None:
            head = logs[mu[0] - 1]
            value = head if len(mu) == 1 else head * log_product(mu[1:])
            products[mu] = value
        return value

    total = zero
    for mu, s in s_numbers(numbers, needed).items():
        if s:
            multiplicities = prod(factorial(mu.count(k)) for k in set(mu))
            total = total + log_product(mu) * Fraction(s, multiplicities)
    return total * const ** (2 * weight)


# -- genus values --------------------------------------------------------------------


def genus_value(m: ManifoldData, kind: GenusKind) -> Fraction:
    """Evaluate a classical genus on a manifold, exactly.

    Falls back to an asserted value when no characteristic numbers are
    stored; `genus_source` reports which route was taken.
    """
    kind = GenusKind(kind)
    if kind == GenusKind.TODD:
        if m.chern_numbers is not None:
            n = m.complex_dim
            return pair_logs(m.chern_numbers, n, log_coeffs(kind, n), Fraction(0))
        return _asserted(m, kind)

    if m.real_dim % 4:
        raise DimensionError(
            f"{m.name}: {kind.value} genus needs dimension divisible by 4, "
            f"got {m.real_dim}"
        )
    try:
        numbers = m.pontryagin_or_converted()
    except InsufficientData:
        return _asserted(m, kind)
    mm = m.real_dim // 4
    const = 2 if kind == GenusKind.LHAT else 1
    return pair_logs(numbers, mm, log_coeffs(kind, mm), Fraction(0), const)


def genus_source(m: ManifoldData, kind: GenusKind) -> str:
    """'computed' when full data drives the genus, 'asserted' otherwise."""
    kind = GenusKind(kind)
    if kind == GenusKind.TODD:
        return "computed" if m.chern_numbers is not None else "asserted"
    return "computed" if (m.has_pontryagin() or m.has_chern()) else "asserted"


def _asserted(m: ManifoldData, kind: GenusKind) -> Fraction:
    if m.asserted_genera and kind.value in m.asserted_genera:
        return m.asserted_genera[kind.value]
    raise InsufficientData(
        f"{m.name}: no data to evaluate the {kind.value} genus"
    )


def hypersurface_todd(n: int, degree: int) -> Fraction:
    """Todd genus of a degree-D hypersurface pattern in dimension n.

    Expands (1 - exp(-d))/d with d nilpotent of order n+1 and pairs the
    top coefficient with D; the closed form (-1)^n D/(n+1)! is kept as a
    test oracle, not used here.
    """
    if n < 1:
        raise DimensionError(f"hypersurface dimension {n} must be >= 1")
    trunc = n + 2
    em = QSeries({1: -1}, trunc).exp()
    series = (1 - em).shift(-1)
    return series.coeff(n) * degree
