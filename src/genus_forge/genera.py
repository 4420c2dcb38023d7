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
`s_numbers` reads it off the power-sum table in manifolds.py.  The
Pontryagin roots are the squared Chern roots, so a genus of the squared
roots reads Chern data at doubled partitions, s^pont_mu = s^chern_(2 mu),
and no Pontryagin number is solved for.  `pair_logs` is the pairing loop.
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

The big-L factor has constant term 2, `root_constant`.  Its logarithm is
taken of the factor halved, and `pair_logs` multiplies the genus of a
4m-manifold by the per-root constant to the power 2m, the number of roots;
the value equals the signature, and that equality is kept under test
rather than normalized away.  `genus_numbers` decides which numbers a
genus pairs, for the classical genera here and the elliptic ones alike.
"""

from __future__ import annotations

from collections.abc import Mapping
from fractions import Fraction
from math import comb, factorial, prod

from .errors import DimensionError, InsufficientData
from .manifolds import GenusKind, ManifoldData, Partition, partitions_of, s_numbers

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


# -- pairing ------------------------------------------------------------------------


def pair_logs(numbers: Mapping[Partition, int], weight: int, logs: list, zero,
              const: int = 1, scale: int = 1):
    """const^(2 weight) * sum over mu |- weight of s_mu[M] prod_i l_(mu_i) / prod_k a_k(mu)!.

    `logs[k - 1]` is l_k, a Fraction or a QSeries; `zero` is the zero of
    that ring.  s_mu[M] is read from `numbers` at the partition scale * mu.
    Partitions with a vanishing l_(mu_i) are never formed.
    """
    needed = [mu for mu in partitions_of(weight) if all(logs[k - 1] for k in mu)]
    s = s_numbers(numbers, [tuple(scale * part for part in mu) for mu in needed])
    products: dict[Partition, object] = {}

    def log_product(mu):
        value = products.get(mu)
        if value is None:
            head = logs[mu[0] - 1]
            value = head if len(mu) == 1 else head * log_product(mu[1:])
            products[mu] = value
        return value

    total = zero
    for mu, s_mu in zip(needed, s.values()):
        if s_mu:
            multiplicities = prod(factorial(mu.count(k)) for k in set(mu))
            total = total + log_product(mu) * Fraction(s_mu, multiplicities)
    return total * const ** (2 * weight)


# -- genus values --------------------------------------------------------------------


def root_constant(kind: GenusKind) -> int:
    """The per-root constant that `log_coeffs` divides out: 2 for big-L."""
    return 2 if kind == GenusKind.LHAT else 1


def genus_numbers(m: ManifoldData,
                  kind: GenusKind) -> tuple[Mapping[Partition, int], int, int] | None:
    """The numbers a genus of this kind pairs on m, their weight, and the
    scale of the partitions `pair_logs` reads them at.

    Todd pairs the Chern numbers over partitions of the complex dimension,
    at scale 1.  The other genera, and the elliptic genera built on them,
    pair over partitions of real_dim/4 the Pontryagin numbers at scale 1,
    or else the Chern numbers at scale 2.  None when m carries no such
    numbers, so that only an asserted value can answer.
    """
    if GenusKind(kind) == GenusKind.TODD:
        return None if m.chern_numbers is None else (m.chern_numbers, m.complex_dim, 1)
    if m.real_dim % 4:
        raise DimensionError(
            f"{m.name}: Pontryagin-number genera need dimension divisible by 4, "
            f"got {m.real_dim}"
        )
    if m.pontryagin_numbers is not None:
        return m.pontryagin_numbers, m.real_dim // 4, 1
    return None if m.chern_numbers is None else (m.chern_numbers, m.real_dim // 4, 2)


def genus_value(m: ManifoldData, kind: GenusKind) -> Fraction:
    """Evaluate a classical genus on a manifold, exactly.

    Falls back to an asserted value when no characteristic numbers are
    stored; `genus_source` reports which route was taken.
    """
    kind = GenusKind(kind)
    route = genus_numbers(m, kind)
    if route is not None:
        numbers, weight, scale = route
        logs = log_coeffs(kind, weight)
        return pair_logs(numbers, weight, logs, Fraction(0), root_constant(kind), scale)
    if m.asserted_genera and kind.value in m.asserted_genera:
        return m.asserted_genera[kind.value]
    raise InsufficientData(f"{m.name}: no data to evaluate the {kind.value} genus")


def genus_source(m: ManifoldData, kind: GenusKind) -> str:
    """'computed' when characteristic numbers drive the genus, 'asserted' otherwise."""
    return "asserted" if genus_numbers(m, kind) is None else "computed"


def hypersurface_todd(n: int, degree: int) -> Fraction:
    """Todd genus of a degree-D hypersurface pattern in dimension n.

    The top coefficient of (1 - exp(-d))/d, with d nilpotent of order n+1,
    paired with D: (-1)^n D/(n+1)!.  The series route is the test oracle's.
    """
    if n < 1:
        raise DimensionError(f"hypersurface dimension {n} must be >= 1")
    return Fraction((-1) ** n * degree, factorial(n + 1))
