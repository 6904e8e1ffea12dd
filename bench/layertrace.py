"""Outside-in layer trace for the benchmark.

`install` rebinds, in the calling process, the public functions of every
module of the package to wrappers that record a span (name, start, end,
parent) per call.  It is meant for a forked job process: the rebinding and
the spans die with it.  The layers are the modules; `words` and `lincomb`
are leaf value types, and so is `partitions.SetPartition`, so their cost
counts in their callers' self time.

Two kinds of wrapper keep the volume down:

* a *boundary* wrapper records a span only when it is called from another
  layer, so calls inside one layer add no spans;
* a *metric* wrapper records a span on every call, for the functions whose
  own time or count is a metric (`partition_sum`, the weights, `triangle`,
  the conversions, ...).

`Form.eval` is the hottest call in the package: it records a boundary span
and counts calls, and every `_eval` only counts, which gives the memo hit
ratio.  The memoised coproduct maps are rebuilt as fresh `lru_cache`s of the
same size around a metric wrapper, so exactly the cache-missing calls
record spans, and the caches' `cache_info()` is read when the job ends.

Many call sites hold their own reference to a function (`forms._SPLITTERS`,
`partitions._FAMILIES`, `partitions.WEIGHTS`, the names `cli` imports, ...),
so every wrapper replaces the original in every module namespace of the
package and in every dict held by one.

`Tracer.dump` writes the spans out when the job ends; `job_metrics` turns
one dump into per-layer figures and `combine` adds the figures of a job
list together.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from array import array

LAYERS = ("cli", "tablefile", "transforms", "prelie", "forms", "coproducts", "partitions")

# Functions that record a span on every call, by layer.
ENUMERATORS = (
    "enumerate_nc",
    "enumerate_irreducible_nc",
    "enumerate_interval",
    "enumerate_monotone",
    "enumerate_all_partitions",
)
CONVERSIONS = (
    "convert_table",
    "convert",
    "cumulants_to_moments",
    "moments_to_cumulants",
    "moments_to_cumulants_via_forms",
)
METRIC_FUNCTIONS = {
    "cli": ("main",),
    "tablefile": ("parse_table", "render_table"),
    "transforms": CONVERSIONS + ("verify_suite",),
    "prelie": ("triangle", "w_map", "magnus"),
    "partitions": ENUMERATORS + ("partition_sum",),
}
# Classes whose instances are plain values, not work of their layer.
VALUE_CLASSES = {"SetPartition", "CheckResult"}
# Dunder methods that do a layer's work; other dunders are left alone.
WORK_DUNDERS = {"__init__", "__add__", "__sub__", "__neg__", "__rmul__", "__eq__"}


class Tracer:
    """Spans of one job, kept in flat arrays until `dump`."""

    def __init__(self, job: int):
        self.job = job
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.name = array("q")
        self.value = array("q")
        self.stack = [-1]
        self.layers = [""]
        self.counts = {"forms.eval": 0, "forms._eval": 0}
        self.caches: list = []
        self.originals: list = []  # every function a wrapper replaced
        self._t0 = time.perf_counter()

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, nid: int, layer: str) -> int:
        i = len(self.start)
        self.start.append(time.perf_counter() - self._t0)
        self.end.append(0.0)
        self.parent.append(self.stack[-1])
        self.name.append(nid)
        self.value.append(0)
        self.stack.append(i)
        self.layers.append(layer)
        return i

    def close(self, i: int) -> None:
        self.end[i] = time.perf_counter() - self._t0
        self.stack.pop()
        self.layers.pop()

    def dump(self, path) -> None:
        infos = [cache.cache_info() for cache in self.caches]
        doc = {
            "job": self.job,
            "names": self.names,
            "start": self.start.tolist(),
            "end": self.end.tolist(),
            "parent": self.parent.tolist(),
            "name": self.name.tolist(),
            "value": self.value.tolist(),
            "counts": self.counts,
            "cache_hits": sum(info.hits for info in infos),
            "cache_misses": sum(info.misses for info in infos),
            "cache_entries": sum(info.currsize for info in infos),
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)


# ---------------------------------------------------------------------------
# wrappers
# ---------------------------------------------------------------------------


def _len_result(args, result) -> int:
    return len(result)


def _bytes_in(args, result) -> int:
    return len(args[0].encode("utf-8"))


def _bytes_out(args, result) -> int:
    return len(result.encode("utf-8"))


def _words_of_result(args, result) -> int:
    return len(result.values)


# What a metric span records as its value, by function name.
_METRIC_VALUES = {
    "parse_table": _bytes_in,
    "render_table": _bytes_out,
    "moments_to_cumulants": _words_of_result,
    **{name: _len_result for name in ENUMERATORS},
}


def _spanned(tracer: Tracer, name: str, fn, *, boundary: bool, value=None):
    layer = name.split(".", 1)[0]
    nid = tracer.name_id(name)
    layers = tracer.layers

    def traced(*args, **kwargs):
        if boundary and layers[-1] == layer:
            return fn(*args, **kwargs)
        i = tracer.open(nid, layer)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(i)
        if value is not None:
            tracer.value[i] = value(args, result)
        return result

    return functools.update_wrapper(traced, fn)


def _form_eval(tracer: Tracer, fn):
    nid = tracer.name_id("forms.eval")
    layers = tracer.layers
    counts = tracer.counts

    def traced_eval(self, u):
        counts["forms.eval"] += 1
        if layers[-1] == "forms":
            return fn(self, u)
        i = tracer.open(nid, "forms")
        try:
            return fn(self, u)
        finally:
            tracer.close(i)

    return functools.update_wrapper(traced_eval, fn)


def _form_inner_eval(tracer: Tracer, fn):
    counts = tracer.counts

    def _eval(self, u):
        counts["forms._eval"] += 1
        return fn(self, u)

    return functools.update_wrapper(_eval, fn)


def _rebind(modules, old, new) -> None:
    """Replace `old` by `new` in every namespace and namespace-held dict."""
    for module in modules:
        space = vars(module)
        for key, obj in list(space.items()):
            if obj is old:
                space[key] = new
            elif type(obj) is dict:
                for k, v in list(obj.items()):
                    if v is old:
                        obj[k] = new


def _wrap_class(tracer: Tracer, layer: str, cls) -> None:
    for attr, obj in list(vars(cls).items()):
        if attr == "eval" and layer == "forms":
            setattr(cls, attr, _form_eval(tracer, obj))
        elif attr == "_eval" and layer == "forms":
            setattr(cls, attr, _form_inner_eval(tracer, obj))
        elif attr.startswith("_") and attr not in WORK_DUNDERS:
            continue
        elif inspect.isfunction(obj):
            name = f"{layer}.{cls.__name__}.{attr}"
            setattr(cls, attr, _spanned(tracer, name, obj, boundary=True))
        elif isinstance(obj, classmethod):
            name = f"{layer}.{cls.__name__}.{attr}"
            setattr(cls, attr, classmethod(_spanned(tracer, name, obj.__func__, boundary=True)))


def install(job: int, package: str = "cumulants") -> Tracer:
    """Wrap every layer of the already imported package; return the tracer."""
    tracer = Tracer(job)
    for layer in LAYERS:
        importlib.import_module(f"{package}.{layer}")
    modules = [
        m for name, m in list(sys.modules.items())
        if m is not None and (name == package or name.startswith(package + "."))
    ]
    for layer in LAYERS:
        module = importlib.import_module(f"{package}.{layer}")
        metric = METRIC_FUNCTIONS.get(layer, ())
        for key, obj in list(vars(module).items()):
            if getattr(obj, "__module__", None) != module.__name__:
                continue  # imported: wrapped with the layer that defines it
            if inspect.isclass(obj):
                if key not in VALUE_CLASSES:
                    _wrap_class(tracer, layer, obj)
                continue
            if hasattr(obj, "cache_info"):
                maxsize = obj.cache_parameters()["maxsize"]
                inner = _spanned(
                    tracer, f"{layer}.{key}", obj.__wrapped__, boundary=False, value=_len_result
                )
                new = functools.lru_cache(maxsize=maxsize)(inner)
                tracer.caches.append(new)
            elif not inspect.isfunction(obj):
                continue
            elif key in metric:
                new = _spanned(
                    tracer, f"{layer}.{key}", obj, boundary=False, value=_METRIC_VALUES.get(key)
                )
            elif key.startswith("_"):
                continue
            else:
                new = _spanned(tracer, f"{layer}.{key}", obj, boundary=True)
            _rebind(modules, obj, new)
            tracer.originals.append(obj)
    weights = sys.modules[f"{package}.partitions"].WEIGHTS
    for key, fn in list(weights.items()):
        _rebind(modules, fn, _spanned(tracer, "partitions.weight", fn, boundary=False))
        tracer.originals.append(fn)
    return tracer


# ---------------------------------------------------------------------------
# analysis
# ---------------------------------------------------------------------------


def self_times(start, end, parent) -> list[float]:
    """Each span's duration minus the part of it that its children cover."""
    children: list[list[int]] = [[] for _ in start]
    for i, p in enumerate(parent):
        if p >= 0:
            children[p].append(i)
    out = []
    for i, kids in enumerate(children):
        lo, hi = start[i], end[i]
        covered = 0.0
        reach = lo
        for c in sorted(kids, key=start.__getitem__):
            s = max(start[c], reach)
            e = min(end[c], hi)
            if e > s:
                covered += e - s
                reach = e  # e > s >= reach
        out.append(hi - lo - covered)
    return out


def _outermost(parent, matches) -> list[bool]:
    """Which spans match with no matching ancestor (parents come first)."""
    inside = [False] * len(parent)
    out = [False] * len(parent)
    for i, p in enumerate(parent):
        enclosed = p >= 0 and inside[p]
        inside[i] = enclosed or matches[i]
        out[i] = matches[i] and not enclosed
    return out


def crosscheck_words(names, parent, value) -> int:
    """Words whose partition-route reference ran inside a conversion that
    compares two routes word by word.

    `cumulants_to_moments` calls `partition_sum` once per word, and so does
    `convert` for the pairs with a direct lattice formula; each such call
    is one word.  `convert` checks the other pairs against
    `moments_to_cumulants(cumulants_to_moments(...))`, whose words count
    too (the `partition_sum` calls of the inner `cumulants_to_moments` are
    that conversion's own check).  A conversion that skips its reference
    route makes no such call, so the count falls.
    """
    checked = {"transforms.convert", "transforms.cumulants_to_moments"}
    markers = checked | {"transforms.moments_to_cumulants", "partitions.partition_sum"}
    nearest: list[str | None] = []  # nearest marker span at or above each span
    words = 0
    for i, p in enumerate(parent):
        above = nearest[p] if p >= 0 else None
        name = names[i]
        if name == "partitions.partition_sum" and above in checked:
            words += 1
        elif name == "transforms.moments_to_cumulants" and above == "transforms.convert":
            words += value[i]
        nearest.append(name if name in markers else above)
    return words


def job_metrics(dump: dict) -> dict:
    """Per-layer figures of one job from its dump."""
    names = [dump["names"][n] for n in dump["name"]]
    layers = [n.split(".", 1)[0] for n in names]
    start, end, parent, value = dump["start"], dump["end"], dump["parent"], dump["value"]
    own = self_times(start, end, parent)
    dur = [e - s for s, e in zip(start, end)]

    def total(select) -> float:
        return sum(d for d, hit in zip(dur, _outermost(parent, select)) if hit)

    def outer_value(select) -> int:
        return sum(v for v, hit in zip(value, _outermost(parent, select)) if hit)

    def is_(*full) -> list[bool]:
        return [n in full for n in names]

    enumerators = is_(*(f"partitions.{n}" for n in ENUMERATORS))
    weights = is_("partitions.weight")
    sums = is_("partitions.partition_sum")

    m = {f"{layer}.self_s": 0.0 for layer in LAYERS}
    for layer, t in zip(layers, own):
        m[f"{layer}.self_s"] += t
    m["tablefile.parse_s"] = total(is_("tablefile.parse_table"))
    m["tablefile.render_s"] = total(is_("tablefile.render_table"))
    m["tablefile.bytes_in"] = outer_value(is_("tablefile.parse_table"))
    m["tablefile.bytes_out"] = outer_value(is_("tablefile.render_table"))
    m["transforms.crosscheck_words"] = crosscheck_words(names, parent, value)
    m["prelie.magnus_s"] = total(is_("prelie.magnus"))
    m["prelie.w_map_s"] = total(is_("prelie.w_map"))
    m["prelie.triangle_calls"] = sum(is_("prelie.triangle"))
    m["forms.eval_calls"] = dump["counts"]["forms.eval"]
    m["forms._eval_calls"] = dump["counts"]["forms._eval"]
    m["coproducts.build_s"] = total([layer == "coproducts" for layer in layers])
    m["coproducts.terms_built"] = sum(
        v for v, layer in zip(value, layers) if layer == "coproducts"
    )
    m["coproducts.cache_hits"] = dump["cache_hits"]
    m["coproducts.cache_misses"] = dump["cache_misses"]
    m["coproducts.cache_entries"] = dump["cache_entries"]
    m["partitions.enumerate_s"] = total(enumerators)
    m["partitions.enumerated"] = outer_value(enumerators)
    m["partitions.weight_s"] = total(weights)
    m["partitions.weight_calls"] = sum(weights)
    m["partitions.sum_self_s"] = sum(t for t, s in zip(own, sums) if s)
    m["partitions.sum_calls"] = sum(sums)
    return m


def combine(per_job: list[dict]) -> dict:
    """Figures over a job list: times and counts add, ratios are recomputed."""
    out: dict = {}
    for m in per_job:
        for key, v in m.items():
            if key == "coproducts.cache_entries":
                out[key] = max(out.get(key, 0), v)
            else:
                out[key] = out.get(key, 0) + v
    evals = out.get("forms.eval_calls", 0)
    inner = out.pop("forms._eval_calls", 0)
    hits = out.pop("coproducts.cache_hits", 0)
    misses = out.pop("coproducts.cache_misses", 0)
    out["forms.memo_hit_ratio"] = 1 - inner / evals if evals else 0.0
    out["coproducts.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    return out
