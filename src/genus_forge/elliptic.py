"""Elliptic genera, the Witten genus and twisted Dirac index series.

Every per-root factor here is a classical factor times a product of
terms (1 - t e^y)(1 - t e^-y) / (1 - t)^2, or their inverses, with
t = eps q^(h/2).  The y^(2k) coefficient of the logarithm of one such
term, summed over h in a set H, is the twisted divisor sum

    D_k(H, eps) = -(2/(2k)!) sum_(h in H) sum_(r >= 1) eps^r r^(2k-1) q^(rh/2)

(`_divisor_sum` is the double sum).  With H_even = {2, 4, ...} and
H_odd = {1, 3, ...} on the half-exponent keys of QSeries, the log
coefficients are

    Witten, family W:  Ahat - D(H_even, +1)          (= 2 G_2k / (2k)!)
    Ell2, family B:    Ahat - D(H_even, +1) + D(H_odd, +1)
    Ell1:              signature + 4^k (D(H_even, -1) - D(H_even, +1))

and `genera.pair_logs` turns them into the genus.  Each kind pairs the
numbers of its classical base (`genera.genus_numbers`).  The Ell1 factor
is twice a factor in y/2, like big-L: its logs are written in y, which
scales l_k by 4^k and takes up the 2 of each root, so its q^0 term is
the signature and it satisfies the (2 tau)^(2m) transformation.  The
theta products these logs replace are kept as an independent test oracle.
"""

import warnings
from dataclasses import dataclass
from fractions import Fraction
from math import factorial

from .errors import ELLIPTIC, FAMILIES, InsufficientData, NonIntegralIndexWarning, choice, whole
from .genera import genus_numbers, log_coeffs, pair_logs
from .manifolds import ManifoldData
from .qseries import QSeries


def _divisor_sum(h_first: int, eps: int, power: int, q_trunc: int) -> QSeries:
    """sum over h = h_first, h_first + 2, ... and r >= 1 of eps^r r^power q^(rh/2).
    Each caller has built a series of q_trunc first, which checked it."""
    coeffs: dict[int, int] = {}
    for h in range(h_first, q_trunc, 2):
        for r in range(1, (q_trunc - 1) // h + 1):
            coeffs[r * h] = coeffs.get(r * h, 0) + eps**r * r**power
    return QSeries(coeffs, q_trunc)


# (classical base, root scale c, twists (first h, eps, sign)):
# l_k = base l_k + c^(2k) * sum of sign * D_k(H, eps)
_FACTORS = {
    "witten": ("ahat", 1, ((2, 1, -1),)),
    "ell2": ("ahat", 1, ((2, 1, -1), (1, 1, 1))),
    "ell1": ("signature", 2, ((2, 1, -1), (2, -1, 1))),
}
_KINDS = dict(zip(ELLIPTIC, ELLIPTIC))


def elliptic_logs(kind: str, weight: int, q_trunc: int) -> list[QSeries]:
    """l_1 .. l_weight of the per-root factor."""
    base, scale, twists = _FACTORS[choice("kind", kind, _KINDS)]
    QSeries({}, q_trunc)  # refuses a q_trunc past the cap, at weight 0 too
    logs = []
    for k, classical in enumerate(log_coeffs(base, weight), start=1):
        series = QSeries({0: classical}, q_trunc)
        for h_first, eps, sign in twists:
            series = series + _divisor_sum(h_first, eps, 2 * k - 1, q_trunc) * Fraction(
                -2 * sign * scale ** (2 * k), factorial(2 * k)
            )
        logs.append(series)
    return logs


# -- genus series ------------------------------------------------------------------


@dataclass(frozen=True)
class GenusSeries:
    """A q-expansion of one elliptic-type genus of one manifold."""

    manifold: str
    kind: str
    series: QSeries
    q_trunc: int


DEFAULT_Q_TRUNC = 49  # keeps every coefficient through q^24


def elliptic_genus(m: ManifoldData, kind: str, q_trunc: int = DEFAULT_Q_TRUNC) -> GenusSeries:
    """Evaluate Ell1, Ell2 or the Witten genus as an exact q-series."""
    kind = choice("kind", kind, _KINDS)
    whole("q_trunc", q_trunc)
    route = genus_numbers(m, _FACTORS[kind][0])
    if route is None:
        raise InsufficientData(f"{m.name}: no Pontryagin or Chern data")
    numbers, weight, scale = route
    series = pair_logs(numbers, weight, elliptic_logs(kind, weight, q_trunc), scale)
    if kind in ("ell1", "witten") and not series.integer_powers_only():
        # a fault of this module, not of the data: the CLI reports it as exit 4
        raise RuntimeError(f"{kind} series left the integer power grid; this is a bug")
    return GenusSeries(m.name, kind, series, q_trunc)


# -- twisted indices ------------------------------------------------------------------


# family -> (the kind whose per-root factor its bundle has, half-exponents per step)
_FAMILIES = dict(zip(FAMILIES, (("ell2", 1), ("witten", 2))))


def twisted_indices(m: ManifoldData, family: str, k_max: int) -> list[Fraction]:
    """Indices of the Dirac operator twisted by the steps 0..k_max of one
    bundle family, from a single series evaluation truncated just past the
    last.

    family "W": Ahat * ch(tensor over n >= 1 of S_(q^n) of the reduced
    tangent bundle); its per-root factor is the Witten factor, and step k
    is the q^k coefficient.
    family "B": the W bundle tensored with the product over n >= 1 of
    Lambda_(-q^(n-1/2)) of it; its per-root factor is the Ell2 factor, and
    step k is the q^(k/2) coefficient.

    Spin manifolds must give integers; a non-integral value signals data
    corruption and raises a NonIntegralIndexWarning.
    """
    kind, step = choice("family", family, _FAMILIES)
    whole("k_max", k_max, 0)
    series = elliptic_genus(m, kind, step * k_max + 1).series
    out = []
    for k in range(k_max + 1):
        value = series.coeff(step * k)
        if m.spin and value.denominator != 1:
            warnings.warn(
                f"{m.name} is spin but index {family}_{k} = {value} is not integral",
                NonIntegralIndexWarning,
            )
        out.append(value)
    return out
