"""Span recording and the wrapper installer for the traced benchmark run.

`install(tracer)` wraps, from outside the package, every public function
of each genus_forge module (the layers), the QSeries and CharClassPoly
ring operators, and a few methods the per-layer metrics name.  Names that
other modules imported (`elliptic.multiplicative_class`, `cli.resolve`,
the package re-exports) are patched too, so internal calls are counted.
`uninstall` puts the originals back.

Each call records a span (name, start, end, parent, job) in flat arrays;
spans stay in memory until `write_spans`.  Self time is a span's duration
minus the part of it covered by its child spans (`self_times`).
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time
from array import array

LAYERS = ("catalog", "manifolds", "genera", "charpoly", "qseries", "elliptic",
          "modular", "bounds", "covering", "cli")

# (module, class, method) -> span name
METHODS = {
    ("qseries", "QSeries", "__add__"): "qseries.add",
    ("qseries", "QSeries", "__radd__"): "qseries.add",
    ("qseries", "QSeries", "__sub__"): "qseries.sub",
    ("qseries", "QSeries", "__rsub__"): "qseries.sub",
    ("qseries", "QSeries", "__neg__"): "qseries.neg",
    ("qseries", "QSeries", "__mul__"): "qseries.mul",
    ("qseries", "QSeries", "__rmul__"): "qseries.mul",
    ("qseries", "QSeries", "__truediv__"): "qseries.div",
    ("qseries", "QSeries", "__rtruediv__"): "qseries.div",
    ("qseries", "QSeries", "__pow__"): "qseries.pow",
    ("qseries", "QSeries", "log"): "qseries.log",
    ("qseries", "QSeries", "exp"): "qseries.exp",
    ("charpoly", "CharClassPoly", "__add__"): "charpoly.add",
    ("charpoly", "CharClassPoly", "__sub__"): "charpoly.sub",
    ("charpoly", "CharClassPoly", "__mul__"): "charpoly.mul",
    ("charpoly", "CharClassPoly", "__rmul__"): "charpoly.mul",
    ("charpoly", "CharClassPoly", "scale"): "charpoly.scale",
    ("manifolds", "ManifoldData", "pontryagin_or_converted"):
        "manifolds.pontryagin_or_converted",
    ("covering", "TorusQuotientGraph", "diameter"): "covering.diameter",
}

# spans whose distinct argument tuples are counted
DISTINCT = ("genera.genus_class", "elliptic.elliptic_factor", "elliptic.witten_bundle_ch")


class Tracer:
    """Spans in flat arrays, plus counters kept by call hooks."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.job = array("i")
        self._stack = [-1]
        self.current_job = -1
        self.keys: dict[str, set] = {}
        self.maxima: dict[str, int] = {}
        self.totals: dict[str, float] = {}

    def intern(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, nid: int) -> int:
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1])
        self.job.append(self.current_job)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def note_max(self, name: str, value: int) -> None:
        if value > self.maxima.get(name, 0):
            self.maxima[name] = value

    def add_total(self, name: str, value) -> None:
        self.totals[name] = self.totals.get(name, 0) + value

    def spans(self):
        """(name, start, end, parent, job) tuples in opening order."""
        names = self.names
        return [(names[self.name_id[i]], self.start[i], self.end[i], self.parent[i], self.job[i])
                for i in range(len(self.start))]

    def to_dict(self) -> dict:
        return {
            "spans": self.spans(),
            "keys": {name: sorted(keys) for name, keys in self.keys.items()},
            "maxima": self.maxima,
            "totals": self.totals,
        }


def self_times(spans) -> list[float]:
    """Self time of each span: its duration minus the union of its
    children's intervals clipped to it.  `spans` holds (name, start, end,
    parent, ...) tuples; parent is an index into the same list or -1."""
    covered = [0.0] * len(spans)
    reach = [float("-inf")] * len(spans)
    for i in sorted(range(len(spans)), key=lambda j: spans[j][1]):
        parent = spans[i][3]
        if parent < 0:
            continue
        p_start, p_end = spans[parent][1], spans[parent][2]
        lo = max(spans[i][1], p_start, reach[parent])
        hi = min(spans[i][2], p_end)
        if hi > lo:
            covered[parent] += hi - lo
        reach[parent] = max(reach[parent], hi)
    return [s[2] - s[1] - c for s, c in zip(spans, covered)]


class Stats:
    """Per-name call counts and self times, distinct keys, maxima and totals,
    merged over one or more traced processes."""

    def __init__(self):
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self.keys: dict[str, set] = {}
        self.maxima: dict[str, int] = {}
        self.totals: dict[str, float] = {}

    def add(self, trace: dict) -> None:
        spans = trace["spans"]
        for span, own in zip(spans, self_times(spans)):
            name = span[0]
            self.calls[name] = self.calls.get(name, 0) + 1
            self.self_s[name] = self.self_s.get(name, 0.0) + own
        for name, keys in trace["keys"].items():
            self.keys.setdefault(name, set()).update(keys)
        for name, value in trace["maxima"].items():
            self.maxima[name] = max(self.maxima.get(name, 0), value)
        for name, value in trace["totals"].items():
            self.totals[name] = self.totals.get(name, 0) + value


# -- wrapper installer ---------------------------------------------------------


def _key_of(signature: inspect.Signature, args, kwargs) -> str:
    bound = signature.bind(*args, **kwargs)
    bound.apply_defaults()
    return repr(tuple(str(getattr(v, "value", v)) for v in bound.arguments.values()))


def _wrap(tracer: Tracer, name: str, fn):
    nid = tracer.intern(name)
    open_, close = tracer.open, tracer.close
    signature = inspect.signature(fn) if name in DISTINCT else None
    after = _AFTER.get(name)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        idx = open_(nid)
        try:
            result = fn(*args, **kwargs)
        finally:
            close(idx)
        if signature is not None:
            tracer.keys.setdefault(name, set()).add(_key_of(signature, args, kwargs))
        if after is not None:
            after(tracer, args, result)
        return result

    return traced


def _after_charpoly_mul(tracer, args, result):
    if result is not NotImplemented:
        tracer.note_max("charpoly.terms", len(result.terms))


def _after_diameter(tracer, args, result):
    tracer.add_total("covering.vertices", args[0].vertex_count)


def _after_series(tracer, args, result):
    tracer.note_max("qseries.coeff_bits", coeff_bits(result))


_AFTER = {"charpoly.mul": _after_charpoly_mul, "covering.diameter": _after_diameter,
          "elliptic.elliptic_genus": _after_series, "elliptic.twisted_indices": _after_series}


def _modules():
    package = importlib.import_module("genus_forge")
    return package, {name: importlib.import_module(f"genus_forge.{name}") for name in LAYERS}


def install(tracer: Tracer) -> list:
    """Wrap every layer entry point; returns the undo list for `uninstall`."""
    package, modules = _modules()
    undo = []
    wrapped = {}  # id(original) -> wrapper
    for layer, module in modules.items():
        for attr, value in list(vars(module).items()):
            if (inspect.isfunction(value) and not attr.startswith("_")
                    and value.__module__ == module.__name__):
                wrapped[id(value)] = _wrap(tracer, f"{layer}.{attr}", value)
    quad = getattr(modules["bounds"], "quad", None)
    if quad is not None:
        wrapped[id(quad)] = _wrap(tracer, "bounds.quad", quad)
    # patch the defining module and every module that imported the name
    for module in (package, *modules.values()):
        for attr, value in list(vars(module).items()):
            replacement = wrapped.get(id(value))
            if replacement is not None:
                undo.append((module, attr, value))
                setattr(module, attr, replacement)
    for (layer, cls_name, method), name in METHODS.items():
        cls = getattr(modules[layer], cls_name, None)
        original = getattr(cls, "__dict__", {}).get(method)
        if original is None:  # gone in this version of the program: counts stay 0
            continue
        undo.append((cls, method, original))
        setattr(cls, method, _wrap(tracer, name, original))
    return undo


def uninstall(undo: list) -> None:
    for owner, attr, original in reversed(undo):
        setattr(owner, attr, original)


# -- result inspection ---------------------------------------------------------


def coeff_bits(result) -> int:
    """Largest numerator or denominator bit length in a top-level result
    series: a GenusSeries, or the index list of twisted_indices."""
    values = [c for _, c in result.series.terms()] if hasattr(result, "series") else result
    bits = 0
    for c in values:
        bits = max(bits, abs(c.numerator).bit_length(), c.denominator.bit_length())
    return bits


def write_spans(path, spans) -> None:
    with open(path, "w") as fh:
        for span in spans:
            fh.write(json.dumps(span) + "\n")


# -- per-layer metrics -----------------------------------------------------------

_CALLS = (
    "catalog.load_default_catalog", "catalog.resolve",
    "manifolds.product", "manifolds.pontryagin_or_converted",
    "genera.genus_value", "genera.genus_class", "genera.multiplicative_class",
    "charpoly.mul", "qseries.mul", "qseries.div", "qseries.add",
    "elliptic.elliptic_genus", "elliptic.elliptic_factor", "elliptic.witten_bundle_ch",
    "modular.eisenstein", "bounds.c_of_b", "bounds.quad", "covering.diameter",
)
_SELF = tuple(name for name in _CALLS if name != "bounds.quad") + (
    "genera.paired_value", "elliptic.twisted_indices", "modular.witten_fit",
    "modular.modular_relation_check", "bounds.index_bound_report",
)


def layer_metrics(stats: Stats) -> dict:
    """Per-layer metric values by name (units are in BENCHMARK.json)."""
    out = {f"{name}.calls": stats.calls.get(name, 0) for name in _CALLS}
    for name in _SELF:
        out[f"{name}.self_s"] = stats.self_s.get(name, 0.0)
    for name in DISTINCT:
        calls = stats.calls.get(name, 0)
        out[f"{name}.distinct_ratio"] = len(stats.keys.get(name, ())) / calls if calls else 0.0
    out["charpoly.terms.max"] = stats.maxima.get("charpoly.terms", 0)
    out["qseries.coeff_bits.max"] = stats.maxima.get("qseries.coeff_bits", 0)
    quads, roots = stats.calls.get("bounds.quad", 0), stats.calls.get("bounds.c_of_b", 0)
    out["bounds.quad_per_root"] = quads / roots if roots else 0.0
    vertices = stats.totals.get("covering.vertices", 0)
    bfs_s = stats.self_s.get("covering.diameter", 0.0)
    out["covering.vertices"] = vertices
    out["covering.vertices_per_s"] = vertices / bfs_s if bfs_s else 0.0
    return out
