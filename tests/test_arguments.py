"""Hostile arguments at the library's entry points, and the public surface
those entry points belong to.

One argument of one entry point is replaced by a hostile value: a bool, a
string, None, a float where an int is expected, nan or an infinity, 0, -1, or
an integer past binary64 (10^400) or past str()'s 4,300-digit limit (10^5000);
every other argument keeps a valid value.  Each call returns, or raises a
GenusForgeError, within a per-call time bound, and a value of the wrong kind
(a bool, a string, None, or a float where an int is expected) is refused with
`DomainError`, the refusal of `errors.whole` and `errors.real`, and so is
a real that is not finite.  A choice argument outside its set of names, and
a value that is not the record an argument takes, are refused with
`DomainError` too (`errors.choice` and the record checks).  A q-series
truncation or power past `qseries.MAX_TRUNC` is refused with `TooLarge`, and
catalog text or a catalog path that cannot be read with `CatalogError`.

Every public callable of every module is either an entry here or named in
`INTERNAL` with the reason it is not one.
"""

import enum
import importlib
import math
import pkgutil
import re
import time
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import genus_forge
from genus_forge.bounds import (BoundParams, berard_dim_bound, c_of_b, index_bound_report,
                                moser_constant)
from genus_forge.catalog import (_PACKAGED, dumps_catalog, entry_to_dict, load_catalog,
                                 loads_catalog, resolve)
from genus_forge.covering import TorusQuotientGraph, cover_diameter, l2_betti_ratio, tower
from genus_forge.elliptic import elliptic_genus, elliptic_logs, twisted_indices
from genus_forge.errors import (CatalogError, DomainError, GenusForgeError, TooLarge, is_int,
                                real, whole)
from genus_forge.genera import (genus_numbers, genus_source, genus_value, hypersurface_todd,
                                log_coeffs)
from genus_forge.manifolds import (MAX_REAL_DIM, builtin, connected_sum, cp, hp2, k3,
                                   partitions_of, product, sphere, torus)
from genus_forge.modular import eisenstein, modular_relation_check, witten_fit
from genus_forge.qseries import MAX_TRUNC, QSeries

TIME_BOUND_S = 5.0  # per call; every valid call below takes well under 0.1 s

WRONG_KIND = (True, False, "2", "abc", "", None)
NON_FINITE = (math.nan, math.inf, -math.inf)
HUGE = (10**400, -(10**400), 10**5000, -(10**5000))

# argument kind -> hostile values.  A count whose size sets the work of a
# q-series (q_trunc, k_max) gets 202 too: a positive int past the cap of 201
# must raise TooLarge.  A choice takes one of a few names, a record one
# ManifoldData or BoundParams, or the dict of a loaded catalog, and records a
# list of ManifoldData: every value in their pools is of the wrong kind, but
# for the None of an optional one.  Catalog text and catalog paths are
# refused with CatalogError, whether of the wrong type or unreadable.
POOLS = {
    "count": (0, -1, *HUGE, 2.0, 0.5, 1e300, *NON_FINITE, *WRONG_KIND),
    "work": (0, -1, MAX_TRUNC + 1, *HUGE, 2.0, 0.5, *NON_FINITE, *WRONG_KIND),
    "real": (0, -1, 0.0, -0.5, *HUGE, *NON_FINITE, *WRONG_KIND),
    "name": (123, 10**5000, 2.5, True, None),
    "choice": ("x", "", "TODD", 10**5000, 2.5, ["todd"], *WRONG_KIND[:2], None),
    "record": (None, 5, "K3", True, 2.5, 10**5000, ["K3"]),
    "records": (None, 5, "K3", True, 2.5, 10**5000, ["K3"], [None], (k3(),), {"K3": k3()}),
    "text": (None, 123, 10**5000, 2.5, True, ["{}"], "", "{", "[]"),
    "path": (None, 123, 10**5000, 2.5, True, ["catalog.json"], ""),
}
POOLS["optional real"] = POOLS["real"]  # None is the default: v of BoundParams
POOLS["optional record"] = POOLS["record"]  # None is the default: the catalog of resolve
POOLS["rational"] = POOLS["count"]  # a q-series coefficient: every int is one, no float
# a power of a q-series: a non-int exponent is Python's TypeError, as for any
# operator, and one past MAX_TRUNC is refused with TooLarge before any product
POOLS["exponent"] = (0, -1, MAX_TRUNC + 1, *HUGE)


class _Small(enum.IntEnum):  # an int subclass other than bool
    THREE = 3


class _Real(float):  # a float subclass
    pass


def _wrong_kind(kind, value):
    if value is None and kind.startswith("optional "):
        return False
    if kind.endswith(("choice", "record", "records")):
        return True
    if kind == "name":
        return not isinstance(value, str)
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return True
    return not kind.endswith("real") and isinstance(value, float)


K3, HP2 = k3(), hp2()


def _bounds(**kw):
    return index_bound_report(BoundParams(**kw))


# entry point -> (call, valid keyword arguments, kind of each argument).  The
# first word of a key is the name of the public callable that the entry tests.
ENTRIES = {
    "c_of_b": (c_of_b, dict(m=3, b=1.0, method="bisection"),
               dict(m="count", b="real", method="choice")),
    "moser_constant": (moser_constant,
                       dict(params=BoundParams(m=4, p=5.0, Lambda=1.0, diam=1.0, b=1.0)),
                       dict(params="record")),
    "index_bound_report m=4": (
        _bounds, dict(m=4, p=5.0, Lambda=1.0, diam=1.0, b=1.0, cmp=1.0, v=None, l=1),
        dict(m="count", p="real", Lambda="real", diam="real", b="real", cmp="real",
             v="optional real", l="count")),
    "index_bound_report m=2": (
        _bounds, dict(m=2, p=3.0, Lambda=0.0, diam=2.0, b=0.5, cmp=1.0, v=1.5, l=2),
        dict(m="count", p="real", Lambda="real", diam="real", b="real", cmp="real",
             v="optional real", l="count")),
    "berard_dim_bound": (berard_dim_bound, dict(l=2, L_sup=3.0), dict(l="count", L_sup="real")),
    "tower": (tower, dict(k=2, J=3), dict(k="count", J="count")),
    "l2_betti_ratio": (l2_betti_ratio, dict(k=3, p=1, J=3), dict(k="count", p="count",
                                                                  J="count")),
    "cover_diameter": (lambda k, n, sub_factor: cover_diameter(k, (n,), sub_factor),
                       dict(k=1, n=3, sub_factor=2),
                       dict(k="count", n="count", sub_factor="count")),
    "TorusQuotientGraph": (lambda n: TorusQuotientGraph((3, n)), dict(n=4), dict(n="count")),
    "modular_relation_check": (modular_relation_check,
                               dict(m=HP2, tau_im=1.5, q_trunc=49, tol=1e-6),
                               dict(m="record", tau_im="real", q_trunc="work", tol="real")),
    "witten_fit": (witten_fit, dict(m=HP2, q_trunc=13), dict(m="record", q_trunc="work")),
    "eisenstein": (eisenstein, dict(kind="E6", q_trunc=9), dict(kind="choice", q_trunc="work")),
    "elliptic_genus": (elliptic_genus, dict(m=K3, kind="witten", q_trunc=9),
                       dict(m="record", kind="choice", q_trunc="work")),
    "elliptic_logs": (elliptic_logs, dict(kind="ell1", weight=2, q_trunc=9),
                      dict(kind="choice", weight="count", q_trunc="work")),
    "twisted_indices": (twisted_indices, dict(m=K3, family="B", k_max=3),
                        dict(m="record", family="choice", k_max="work")),
    "QSeries": (lambda trunc: QSeries({0: 1}, trunc), dict(trunc=5), dict(trunc="work")),
    "QSeries key": (lambda n: QSeries({n: 1}, 5), dict(n=4), dict(n="count")),
    "QSeries coefficient": (lambda c: QSeries({0: c}, 5), dict(c=Fraction(3, 2)),
                            dict(c="rational")),
    "QSeries coeff": (lambda n: QSeries({0: 1}, 5).coeff(n), dict(n=4), dict(n="count")),
    # a constant term other than +-1: its powers' coefficients grow with k
    "QSeries power": (lambda k: QSeries({0: Fraction(1, 2), 1: 1}, 5) ** k, dict(k=3),
                      dict(k="exponent")),
    "genus_value": (genus_value, dict(m=K3, kind="signature"),
                    dict(m="record", kind="choice")),
    "genus_source": (genus_source, dict(m=K3, kind="ahat"), dict(m="record", kind="choice")),
    "genus_numbers": (genus_numbers, dict(m=K3, kind="todd"), dict(m="record", kind="choice")),
    "log_coeffs": (log_coeffs, dict(kind="todd", weight=4), dict(kind="choice", weight="count")),
    "hypersurface_todd": (hypersurface_todd, dict(n=3, degree=2),
                          dict(n="count", degree="count")),
    "partitions_of": (lambda n: list(partitions_of(n)), dict(n=4), dict(n="count")),
    "product": (product, dict(a=K3, b=HP2), dict(a="record", b="record")),
    "connected_sum": (connected_sum, dict(a=K3, b=K3), dict(a="record", b="record")),
    "cp": (cp, dict(n=2), dict(n="count")),
    "sphere": (sphere, dict(n=4), dict(n="count")),
    "torus": (torus, dict(k=4), dict(k="count")),
    "resolve": (resolve, dict(name="K3", catalog=None),
                dict(name="name", catalog="optional record")),
    "builtin": (builtin, dict(name="CP2"), dict(name="name")),
    "entry_to_dict": (entry_to_dict, dict(entry=K3), dict(entry="record")),
    "dumps_catalog": (dumps_catalog, dict(entries=[K3, HP2]), dict(entries="records")),
    "loads_catalog": (loads_catalog, dict(text=dumps_catalog([K3])), dict(text="text")),
    "load_catalog": (load_catalog, dict(path=_PACKAGED), dict(path="path")),
}

RESULT = "a result record the library builds; callers read it"
HANDLER = "a CLI handler: main parses and checks its options before calling it"
# public callable -> why it is not an entry above
INTERNAL = {
    "bounds.BoundParams": "checks its fields; the index_bound_report entries build it",
    "bounds.BoundReport": RESULT,
    "bounds.IndexBoundReport": RESULT,
    "catalog.entry_from_dict": "decodes JSON data: malformed data raises CatalogError "
                               "(tests/test_catalog.py)",
    "catalog.load_default_catalog": "takes no argument",
    "catalog.document": "the JSON object of a loaded catalog: dumps_catalog and catalog list "
                        "call it on the dict that _by_name returned",
    "covering.TowerLevel": RESULT,
    "covering.Tower": RESULT,
    "covering.CoverDiameter": RESULT,
    "elliptic.EllKind": "the names of elliptic_genus's kind choice",
    "elliptic.GenusSeries": RESULT,
    "errors.shown": "formats any value for a message",
    "errors.size_of": "formats an int for shown and real",
    "errors.is_int": "a predicate on any value",
    "errors.whole": "the count check itself: every count above goes through it",
    "errors.real": "the real check itself: every real above goes through it",
    "errors.choice": "the choice check itself: every choice above goes through it",
    "errors.Record": "the base class of the records",
    "genera.pair_logs": "the pairing loop of genus_value and elliptic_genus, on the numbers "
                        "of genus_numbers and the logs of log_coeffs or elliptic_logs",
    "manifolds.s_numbers": "the power-sum table of the pairing and of product, on numbers "
                           "that ManifoldData checked",
    "manifolds.numbers_from_s": "solves product's power-sum numbers back to numbers",
    "manifolds.GenusKind": "the names of genus_value's kind choice",
    "manifolds.ManifoldData": "checks every field itself, raising InconsistentData "
                              "(tests/test_manifolds.py)",
    "manifolds.k3": "takes no argument",
    "manifolds.hp2": "takes no argument",
    "modular.ModularFit": RESULT,
    "modular.ModularCheck": RESULT,
    "cli.UsageError": "the CLI's exit-1 error, raised by its option parser",
    "cli.Opt": "an option declaration of the CLI's command table",
    "cli.main": "takes argv: tests/test_cli.py and scripts/cli_sweep.py drive it",
    **{f"cli.{name}": HANDLER for name in (
        "catalog_list", "catalog_show", "compute", "elliptic", "indices", "modular_fit",
        "modular_check", "bound_cb", "bound_index", "cover_diam", "cover_tower", "cover_l2")},
    **{f"errors.{name}": "an exception type: it takes a message" for name in (
        "GenusForgeError", "DataError", "NumericalError", "TruncMismatch",
        "DivergentEvaluation", "InsufficientData", "DimensionError", "InconsistentData",
        "UnknownManifold", "FitError", "ConvergenceRisk", "RootNotBracketed",
        "ExponentDomainError", "DomainError", "FloatRangeError", "TooLarge", "CatalogError",
        "NonIntegralIndexWarning")},
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
@example(("index_bound_report m=4", "v", "abc"))
@example(("index_bound_report m=4", "v", "2.0"))
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
# IndexErrors and a TypeError from the list of log coefficients
@example(("log_coeffs", "weight", 0))
@example(("log_coeffs", "weight", -1))
@example(("log_coeffs", "weight", 2.5))
# a bool taken as 1, and a TypeError from range
@example(("partitions_of", "n", True))
@example(("partitions_of", "n", 2.0))
# AttributeErrors from a record's fields
@example(("product", "b", None))
@example(("connected_sum", "b", 5))
@example(("moser_constant", "params", None))
# plain ValueErrors from an enum lookup, and 1 from an unknown kind
@example(("genus_source", "kind", "x"))
@example(("log_coeffs", "kind", "x"))
@example(("elliptic_logs", "kind", "x"))
# plain ValueErrors and a TypeError from a q-series key or coefficient, a
# bool key stored, a negative index read as 0, and a plain ValueError from
# an index past the truncation and from a negative power
@example(("QSeries key", "n", -1))
@example(("QSeries key", "n", 9))
@example(("QSeries coefficient", "c", 1.5))
@example(("QSeries key", "n", True))
@example(("QSeries coeff", "n", -3))
@example(("QSeries coeff", "n", 7))
@example(("QSeries power", "k", -1))
# a huge power on a series whose constant term is not +-1: unbounded work
@example(("QSeries power", "k", 10**400))
# an unhashable choice, and one past str()'s 4,300-digit limit
@example(("c_of_b", "method", ["todd"]))
@example(("eisenstein", "kind", 10**5000))
# sums over q_trunc terms before any series saw the truncation, and the
# product of every modulus before the cap check
@example(("eisenstein", "q_trunc", 10**400))
@example(("TorusQuotientGraph", "n", 10**5000))
# AttributeErrors from a manifold's fields, and TypeErrors from json and open
@example(("genus_value", "m", None))
@example(("witten_fit", "m", "K3"))
@example(("modular_relation_check", "m", 5))
@example(("loads_catalog", "text", None))
@example(("load_catalog", "path", None))
@example(("entry_to_dict", "entry", None))
@example(("dumps_catalog", "entries", None))
# a TypeError from iterating the entries, AttributeErrors from an entry and
# from the catalog of resolve, and a list of entries in place of its dict
@example(("dumps_catalog", "entries", 5))
@example(("dumps_catalog", "entries", [None]))
@example(("resolve", "catalog", 5))
@example(("resolve", "catalog", [K3]))
# the edges of the exact-int and exact-float checks that come first in
# whole and real: a signed zero at low 0, -inf at low -inf, nan, a bool, an
# int and a float subclass, and an int past binary64
@example(("index_bound_report m=4", "Lambda", 0.0))
@example(("index_bound_report m=4", "Lambda", -0.0))
@example(("modular_relation_check", "tau_im", -math.inf))
@example(("c_of_b", "b", math.nan))
@example(("c_of_b", "m", True))
@example(("c_of_b", "m", _Small.THREE))
@example(("c_of_b", "m", _Real(3.0)))
@example(("c_of_b", "b", _Real(1.0)))
@example(("c_of_b", "b", 10**400))
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
    if kinds[arg] in ("text", "path"):
        assert isinstance(refused, CatalogError), (case, refused)
    elif _wrong_kind(kinds[arg], value):
        assert isinstance(refused, DomainError), (case, refused)
    if kinds[arg].endswith("real") and isinstance(value, float) and not math.isfinite(value):
        assert isinstance(refused, DomainError), (case, refused)
    if kinds[arg] in ("work", "exponent") and is_int(value) and value > MAX_TRUNC:
        assert isinstance(refused, TooLarge), (case, refused)


@pytest.mark.parametrize("value, low, expected", [
    (0.0, 0, "0.0"), (-0.0, 0, "-0.0"), (-0.0, None, DomainError),
    (-math.inf, -math.inf, DomainError), (math.inf, -math.inf, DomainError),
    (math.nan, -math.inf, DomainError), (-1e308, -math.inf, "-1e+308"),
    (True, 0, DomainError), (_Small.THREE, None, "3.0"), (_Real(2.5), 0, "2.5"),
    (10**400, None, DomainError), (3, 1, "3.0"), (1, 1, "1.0"), (0.5, 1, DomainError),
])
def test_real_at_the_edges(value, low, expected):
    # real returns an exact float, the value's own where it is one
    if expected is DomainError:
        with pytest.raises(DomainError):
            real("x", value, low)
    else:
        got = real("x", value, low)
        assert type(got) is float and repr(got) == expected


@pytest.mark.parametrize("value, low, high, expected", [
    (2, 2, 300, 2), (300, 2, 300, 300), (301, 2, 300, DomainError), (1, 2, None, DomainError),
    (True, 0, None, DomainError), (False, 0, None, DomainError), (_Small.THREE, 1, 3, 3),
    (3.0, 1, None, DomainError), (_Real(3.0), 1, None, DomainError),
    (10**400, 1, None, 10**400), (10**400, 1, 300, DomainError), (-(10**400), 1, None, DomainError),
])
def test_whole_at_the_edges(value, low, high, expected):
    if expected is DomainError:
        with pytest.raises(DomainError):
            whole("n", value, low, high)
    else:
        got = whole("n", value, low, high)
        assert got == expected and got is value


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


GENUS_KINDS = "'todd', 'ahat', 'lhat', 'signature'"
ELL_KINDS = "'ell1', 'ell2', 'witten'"


@pytest.mark.parametrize("call, message", [
    (lambda: genus_value(K3, "x"), f"kind must be one of {GENUS_KINDS}, got 'x'"),
    (lambda: genus_source(K3, "x"), f"kind must be one of {GENUS_KINDS}, got 'x'"),
    (lambda: genus_numbers(K3, "x"), f"kind must be one of {GENUS_KINDS}, got 'x'"),
    (lambda: log_coeffs("x", 3), f"kind must be one of {GENUS_KINDS}, got 'x'"),
    (lambda: elliptic_genus(K3, "x", 9), f"kind must be one of {ELL_KINDS}, got 'x'"),
    (lambda: elliptic_logs("x", 1, 5), f"kind must be one of {ELL_KINDS}, got 'x'"),
    (lambda: twisted_indices(K3, "X", 3), "family must be one of 'B', 'W', got 'X'"),
    (lambda: eisenstein("E8", 9), "kind must be one of 'E4', 'E6', got 'E8'"),
    (lambda: c_of_b(3, 1.0, "newton"), "method must be one of 'bisection', 'secant', "
                                       "got 'newton'"),
], ids=["genus_value", "genus_source", "genus_numbers", "log_coeffs",
        "elliptic_genus", "elliptic_logs", "twisted_indices", "eisenstein", "c_of_b"])
def test_unknown_choice_is_refused_typed(call, message):
    # one wording at every choice site, errors.choice's
    with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
        call()


def test_truncation_cap():
    # the cap itself computes, and one past it is refused
    assert QSeries({MAX_TRUNC - 1: 1}, MAX_TRUNC).coeff(MAX_TRUNC - 1) == 1
    with pytest.raises(TooLarge, match=f"^trunc {MAX_TRUNC + 1} exceeds the cap of {MAX_TRUNC}$"):
        QSeries({}, MAX_TRUNC + 1)
    # refused before the divisor sums, and before the product of every
    # modulus: each took seconds when the check came after them
    start = time.perf_counter()
    with pytest.raises(TooLarge, match=f"^trunc {10**6} exceeds the cap of {MAX_TRUNC}$"):
        eisenstein("E4", 10**6)
    with pytest.raises(TooLarge, match="^at least 1048576 vertices exceeds the cap"):
        TorusQuotientGraph((2,) * 400_000)
    assert time.perf_counter() - start < 1.0


def _public_callables():
    """'module.name' of every callable without a leading underscore that a
    genus_forge module defines."""
    for info in pkgutil.iter_modules(genus_forge.__path__):
        module = importlib.import_module(f"genus_forge.{info.name}")
        for name, value in vars(module).items():
            if (not name.startswith("_") and callable(value)
                    and getattr(value, "__module__", None) == module.__name__):
                yield f"{info.name}.{name}"


def test_public_surface_is_named():
    surface = set(_public_callables())
    entries = {key.split()[0] for key in ENTRIES}
    unnamed = sorted(q for q in surface if q.split(".")[1] not in entries and q not in INTERNAL)
    assert not unnamed, f"add to ENTRIES, or to INTERNAL with a reason: {unnamed}"
    assert not entries & {q.split(".")[1] for q in INTERNAL}
    # no stale names on either side
    assert entries <= {q.split(".")[1] for q in surface}, entries
    assert set(INTERNAL) <= surface, sorted(set(INTERNAL) - surface)
