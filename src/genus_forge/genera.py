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
(y/2)/sinh(y/2) and the signature factor y/tanh(y).  With
S_k = 2^(2k) B_(2k) / (2k (2k)!), the y^(2k) coefficient of
log(sinh(y)/y), `log_coeffs` gives

    Ahat              l_k = -S_k / 4^k
    signature, big-L  l_k = (4^k - 2) S_k
    Todd              l_1 = 1/2, l_2k = -S_k / 4^k, other odd l_k = 0

The big-L factor y/tanh(y/2) is twice the signature factor taken at y/2.
Halved, its logs are S_k - 2 S_k / 4^k.  Writing them in y multiplies
l_k by 4^k, and so the weight-m part by 4^m = 2^(2m): the 2 of each of
the 2m roots of a 4m-manifold.  So big-L takes the signature's logs,
4^k (S_k - 2 S_k / 4^k) = (4^k - 2) S_k, and equals the signature; the
halved route is kept in the test oracle.
`genus_numbers` decides which numbers a genus pairs, for the classical
genera here and the elliptic ones alike.
"""

from collections.abc import Mapping
from fractions import Fraction
from math import comb, factorial, prod

from .errors import GENERA, DimensionError, DomainError, InsufficientData, choice, is_int, shown, whole
from .manifolds import (MAX_REAL_DIM, ManifoldData, Partition, _check_manifolds, _check_real_dim,
                        partitions_of, s_numbers)

_KINDS = dict(zip(GENERA, GENERA))
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


def log_coeffs(kind: str, weight: int) -> list[Fraction]:
    """l_1 .. l_weight of the classical factor; weight <= MAX_REAL_DIM / 2."""
    kind = choice("kind", kind, _KINDS)
    whole("weight", weight, 0, MAX_REAL_DIM // 2)
    if kind == "todd":
        # x/(1 - e^-x) = e^(x/2) (x/2)/sinh(x/2): l_1 = 1/2, then Ahat in x
        logs = [Fraction(1, 2)] + [Fraction(0)] * (weight - 1)
        for k, ahat in enumerate(log_coeffs("ahat", weight // 2), start=1):
            logs[2 * k - 1] = ahat
        return logs[:weight]
    if kind == "ahat":
        return [-_log_sinh(k) / 4**k for k in range(1, weight + 1)]
    return [(4**k - 2) * _log_sinh(k) for k in range(1, weight + 1)]  # signature, big-L


# -- pairing ------------------------------------------------------------------------


def pair_logs(numbers: Mapping[Partition, int], weight: int, logs: list, scale: int):
    """sum over mu |- weight of s_mu[M] prod_i l_(mu_i) / prod_k a_k(mu)!.

    `logs[k - 1]` is l_k, a Fraction or a QSeries, and weight >= 1.
    s_mu[M] is read from `numbers` at the partition scale * mu.  Partitions
    with a vanishing l_(mu_i) are never formed.
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

    total = logs[0] * 0  # the zero of the coefficient ring
    for mu, s_mu in zip(needed, s.values()):
        if s_mu:
            multiplicities = prod(factorial(mu.count(k)) for k in set(mu))
            total = total + log_product(mu) * Fraction(s_mu, multiplicities)
    return total


# -- genus values --------------------------------------------------------------------


def genus_numbers(m: ManifoldData, kind: str) -> tuple[Mapping[Partition, int], int, int] | None:
    """The numbers a genus of this kind pairs on m, their weight, and the
    scale of the partitions `pair_logs` reads them at.

    Todd pairs the Chern numbers over partitions of the complex dimension,
    at scale 1.  The other genera, and the elliptic genera built on them,
    pair over partitions of real_dim/4 the Pontryagin numbers at scale 1,
    or else the Chern numbers at scale 2.  None when m carries no such
    numbers, so that only an asserted value can answer.
    """
    _check_manifolds(m)
    if choice("kind", kind, _KINDS) == "todd":
        return None if m.chern_numbers is None else (m.chern_numbers, m.complex_dim, 1)
    if m.real_dim % 4:
        raise DimensionError(
            f"{m.name}: Pontryagin-number genera need dimension divisible by 4, "
            f"got {m.real_dim}"
        )
    if m.pontryagin_numbers is not None:
        return m.pontryagin_numbers, m.real_dim // 4, 1
    return None if m.chern_numbers is None else (m.chern_numbers, m.real_dim // 4, 2)


def genus_value(m: ManifoldData, kind: str) -> Fraction:
    """Evaluate a classical genus on a manifold, exactly.

    Falls back to an asserted value when no characteristic numbers are
    stored; `genus_source` reports which route was taken.
    """
    kind = choice("kind", kind, _KINDS)
    route = genus_numbers(m, kind)
    if route is not None:
        numbers, weight, scale = route
        return pair_logs(numbers, weight, log_coeffs(kind, weight), scale)
    if m.asserted_genera and kind in m.asserted_genera:
        return m.asserted_genera[kind]
    raise InsufficientData(f"{m.name}: no data to evaluate the {kind} genus")


def genus_source(m: ManifoldData, kind: str) -> str:
    """'computed' when characteristic numbers drive the genus, 'asserted' otherwise."""
    return "asserted" if genus_numbers(m, kind) is None else "computed"


def hypersurface_todd(n: int, degree: int) -> Fraction:
    """Todd genus of a degree-D hypersurface pattern in dimension n.

    The top coefficient of (1 - exp(-d))/d, with d nilpotent of order n+1,
    paired with D: (-1)^n D/(n+1)!.  The series route is the test oracle's.
    """
    if not (is_int(n) and is_int(degree)):
        raise DomainError(f"n and degree must be integers, got {shown(n)} and {shown(degree)}")
    if n < 1:
        raise DimensionError(f"hypersurface dimension {shown(n)} must be >= 1")
    _check_real_dim(2 * n, "hypersurface")
    return Fraction((-1) ** n * degree, factorial(n + 1))
