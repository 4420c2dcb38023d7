"""Hostile count and real arguments at the library's numeric entry points,
and unknown values of its choice arguments.

One argument of one entry point is replaced by a hostile value: a bool, a
string, None, a float where an int is expected, nan or an infinity, 0, -1, or
an integer past binary64 (10^400) or past str()'s 4,300-digit limit (10^5000);
every other argument keeps a valid value.  Each call returns, or raises a
GenusForgeError, within a per-call time bound, and a value of the wrong kind
(a bool, a string, None, or a float where an int is expected) is refused with
`DomainError`, the refusal of `errors.whole` and `errors.real`.  A choice
argument outside its set of names is refused with `DomainError` too.
"""

import math
import re
import time

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from genus_forge.bounds import BoundParams, berard_dim_bound, c_of_b, index_bound_report
from genus_forge.catalog import resolve
from genus_forge.covering import cover_diameter, l2_betti_ratio, tower
from genus_forge.elliptic import elliptic_genus, twisted_index_series, twisted_indices
from genus_forge.errors import DomainError, GenusForgeError, TooLarge
from genus_forge.genera import genus_value, hypersurface_todd
from genus_forge.manifolds import MAX_REAL_DIM, cp, hp2, k3, sphere, torus
from genus_forge.modular import eisenstein, modular_relation_check, witten_fit

TIME_BOUND_S = 5.0  # per call; every valid call below takes well under 0.1 s

WRONG_KIND = (True, False, "2", "abc", "", None)
NON_FINITE = (math.nan, math.inf, -math.inf)
HUGE = (10**400, -(10**400), 10**5000, -(10**5000))

# argument kind -> hostile values.  A count whose size sets the work (q_trunc,
# k_max) gets no huge positive value: its upper bound is not checked.
POOLS = {
    "count": (0, -1, *HUGE, 2.0, 0.5, 1e300, *NON_FINITE, *WRONG_KIND),
    "work": (0, -1, -(10**400), -(10**5000), 2.0, 0.5, *NON_FINITE, *WRONG_KIND),
    "real": (0, -1, 0.0, -0.5, *HUGE, *NON_FINITE, *WRONG_KIND),
    "name": (123, 10**5000, 2.5, True, None),
}
POOLS["optional real"] = POOLS["real"]  # None is the default: v of BoundParams


def _wrong_kind(kind, value):
    if kind == "name":
        return not isinstance(value, str)
    if value is None and kind == "optional real":
        return False
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return True
    return not kind.endswith("real") and isinstance(value, float)


K3, HP2 = k3(), hp2()


def _bounds(**kw):
    return index_bound_report(BoundParams(**kw))


# entry point -> (call, valid keyword arguments, kind of each argument)
ENTRIES = {
    "c_of_b": (c_of_b, dict(m=3, b=1.0), dict(m="count", b="real")),
    "bound m=4": (_bounds, dict(m=4, p=5.0, Lambda=1.0, diam=1.0, b=1.0, cmp=1.0, v=None, l=1),
                  dict(m="count", p="real", Lambda="real", diam="real", b="real", cmp="real",
                       v="optional real", l="count")),
    "bound m=2": (_bounds, dict(m=2, p=3.0, Lambda=0.0, diam=2.0, b=0.5, cmp=1.0, v=1.5, l=2),
                  dict(m="count", p="real", Lambda="real", diam="real", b="real", cmp="real",
                       v="optional real", l="count")),
    "berard_dim_bound": (berard_dim_bound, dict(l=2, L_sup=3.0), dict(l="count", L_sup="real")),
    "tower": (tower, dict(k=2, J=3), dict(k="count", J="count")),
    "l2_betti_ratio": (l2_betti_ratio, dict(k=3, p=1, J=3), dict(k="count", p="count",
                                                                  J="count")),
    "cover_diameter": (lambda k, n, sub_factor: cover_diameter(k, (n,), sub_factor),
                       dict(k=1, n=3, sub_factor=2),
                       dict(k="count", n="count", sub_factor="count")),
    "modular_relation_check": (lambda **kw: modular_relation_check(HP2, **kw),
                               dict(tau_im=1.5, q_trunc=49, tol=1e-6),
                               dict(tau_im="real", q_trunc="work", tol="real")),
    "witten_fit": (lambda q_trunc: witten_fit(HP2, q_trunc), dict(q_trunc=13),
                   dict(q_trunc="work")),
    "elliptic_genus": (lambda q_trunc: elliptic_genus(K3, "witten", q_trunc), dict(q_trunc=9),
                       dict(q_trunc="work")),
    "twisted_index_series": (lambda q_trunc: twisted_index_series(K3, "W", q_trunc),
                             dict(q_trunc=9), dict(q_trunc="work")),
    "twisted_indices": (lambda k_max: twisted_indices(K3, "B", k_max), dict(k_max=3),
                        dict(k_max="work")),
    "hypersurface_todd": (hypersurface_todd, dict(n=3, degree=2),
                          dict(n="count", degree="count")),
    "cp": (cp, dict(n=2), dict(n="count")),
    "sphere": (sphere, dict(n=4), dict(n="count")),
    "torus": (torus, dict(k=4), dict(k="count")),
    "resolve": (resolve, dict(name="K3"), dict(name="name")),
}


@st.composite
def _hostile_call(draw):
    entry = draw(st.sampled_from(sorted(ENTRIES)))
    arg = draw(st.sampled_from(sorted(ENTRIES[entry][2])))
    value = draw(st.sampled_from(POOLS[ENTRIES[entry][2][arg]]))
    return entry, arg, value


def test_valid_arguments_compute():
    for entry, (call, valid, _) in ENTRIES.items():
        call(**valid)


@settings(deadline=None, max_examples=300)
@given(_hostile_call())
# a bare OverflowError from float() or math.isfinite
@example(("modular_relation_check", "tau_im", 10**400))
@example(("modular_relation_check", "tol", 10**400))
# a bool taken as 1 (ConvergenceRisk), and a string that raised TypeError
@example(("modular_relation_check", "tau_im", True))
@example(("modular_relation_check", "tau_im", "2"))
# a bare ValueError, and a string taken for m/2
@example(("bound m=4", "v", "abc"))
@example(("bound m=4", "v", "2.0"))
# bools taken as counts
@example(("cover_diameter", "k", True))
@example(("twisted_indices", "k_max", True))
@example(("cp", "n", True))
@example(("torus", "k", True))
# n formatted into a name or message past str()'s 4,300-digit limit
@example(("cp", "n", 10**5000))
@example(("sphere", "n", 10**5000))
@example(("torus", "k", 10**5000))
@example(("hypersurface_todd", "n", -(10**5000)))
# a TypeError from the name lookup and from Fraction
@example(("resolve", "name", 123))
@example(("hypersurface_todd", "degree", 1.5))
def test_hostile_argument_is_refused_typed(case):
    entry, arg, value = case
    call, valid, kinds = ENTRIES[entry]
    start = time.perf_counter()
    try:
        call(**{**valid, arg: value})
    except GenusForgeError as exc:
        refused = exc
    else:
        refused = None
    elapsed = time.perf_counter() - start
    assert elapsed < TIME_BOUND_S, (case, elapsed)
    if _wrong_kind(kinds[arg], value):
        assert isinstance(refused, DomainError), (case, refused)


def test_domain_error_is_a_value_error():
    # a bad argument value is typed (exit 2) and still the ValueError of Python callers
    with pytest.raises(ValueError):
        twisted_indices(K3, "B", -1)
    with pytest.raises(DomainError, match="^tau_im must be a finite real, got True$"):
        modular_relation_check(HP2, tau_im=True)


def test_hypersurface_todd_size_cap():
    # 2n past the real-dimension cap is refused before (n + 1)! is built
    assert hypersurface_todd(MAX_REAL_DIM // 2, 1) != 0
    for n in (MAX_REAL_DIM // 2 + 1, 10**5, 10**5000):
        with pytest.raises(TooLarge, match="^hypersurface: real dimension"):
            hypersurface_todd(n, 1)


@pytest.mark.parametrize("call, message", [
    (lambda: genus_value(K3, "x"), "'x' is not a valid GenusKind"),
    (lambda: elliptic_genus(K3, "x", 9), "'x' is not a valid EllKind"),
    (lambda: twisted_index_series(K3, "X", 9), "family must be 'B' or 'W', got 'X'"),
    (lambda: eisenstein("E8", 9), "kind must be 'E4' or 'E6', got 'E8'"),
], ids=["genus_value", "elliptic_genus", "twisted_index_series", "eisenstein"])
def test_unknown_choice_is_refused_typed(call, message):
    # the wording of the plain ValueError these raised before, now typed (exit 2)
    with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
        call()
