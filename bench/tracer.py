"""Spans around coxkit's public functions, recorded from outside the package.

`Tracer.install` replaces each function of `LAYERS` by a wrapper in every
`coxkit.<module>` namespace that binds it (for example both
`coxkit.cosets.multiply` and `coxkit.rays.multiply`), so calls made inside
the package are traced too.  Spans live in flat arrays while the run lasts
and are written out once at the end.  A span records its name, start,
end, parent span, op id and the class of the exception it ended with.
"""

from __future__ import annotations

import importlib
import json
import math
import sys
import time
from array import array
from functools import wraps

LAYERS = {
    "words": ("reduce_word", "multiply", "inverse", "right_descents", "left_descents"),
    "finite_type": ("classify", "is_spherical", "spherical_subsets",
                    "maximal_spherical_subsets", "hypothesis_check"),
    "oracle": ("ball", "full_group", "coset_elements", "longest_in_coset_oracle"),
    "cosets": ("longest_in_coset", "coset_step", "in_WT_class", "lemma4_apply"),
    "rays": ("make_ray", "stabilize", "theorem_trace"),
    "suite": ("lemma_suite",),
}
# Functions that reach the reducer or the BFS, so a budget error can end them.
CAN_EXCEED_BUDGET = frozenset(
    f"{layer}.{fn}" for layer, fns in LAYERS.items() if layer != "finite_type" for fn in fns
)
NAMESPACES = ("coxkit", "coxkit.words", "coxkit.finite_type", "coxkit.oracle",
              "coxkit.cosets", "coxkit.rays", "coxkit.suite", "coxkit.cli")
SUITE_CHECKS = (
    "canonical_form", "deletion_property", "braid_invariance", "length_parity",
    "inverse_involution", "descent_spherical", "descent_agreement", "coset_longest",
    "coset_step", "descent_step_lemma", "descent_class_partition",
)
OP_SPAN = "op"
NO_PARENT = -1


def is_budget_error(error_class: str) -> bool:
    """Budget errors end an op as failed; any other exception aborts the run."""
    return error_class.endswith("BudgetExceeded")


class Tracer:
    """In-memory span store for one single-threaded run."""

    def __init__(self):
        self.names: list[str] = [OP_SPAN]
        self._name_ids = {OP_SPAN: 0}
        self.errors: list[str] = [""]
        self._error_ids = {"": 0}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op_id = array("i")
        self.error_id = array("i")
        self._stack: list[int] = []
        self._op = None
        self.counters: dict[str, float] = {}
        self.bindings: list[str] = []

    def _intern(self, table: list[str], ids: dict, key: str) -> int:
        if key not in ids:
            ids[key] = len(table)
            table.append(key)
        return ids[key]

    def span(self, name: str, fn, observe=None):
        """``fn`` wrapped to record a span per call made inside an op."""
        nid = self._intern(self.names, self._name_ids, name)

        @wraps(fn)
        def traced(*args, **kwargs):
            if self._op is None:
                return fn(*args, **kwargs)
            idx = len(self.start)
            self.name_id.append(nid)
            self.parent.append(self._stack[-1] if self._stack else NO_PARENT)
            self.op_id.append(self._op)
            self.end.append(math.nan)
            self.error_id.append(0)
            self._stack.append(idx)
            self.start.append(time.perf_counter())
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self.end[idx] = time.perf_counter()
                self.error_id[idx] = self._intern(self.errors, self._error_ids, type(exc).__name__)
                raise
            finally:
                self._stack.pop()
            self.end[idx] = time.perf_counter()
            if observe is not None:
                observe(self.counters, args, result)
            return result

        return traced

    def run_op(self, op_id: int, call):
        """Run one op as a root span; returns its result."""
        self._op = op_id
        try:
            return self.span(OP_SPAN, call)()
        finally:
            self._op = None

    def install(self) -> None:
        """Wrap every function of LAYERS in every namespace that binds it."""
        modules = [importlib.import_module(name) for name in NAMESPACES]
        for layer, fns in LAYERS.items():
            home = importlib.import_module(f"coxkit.{layer}")
            for fn_name in fns:
                original = getattr(home, fn_name, None)
                if original is None:
                    continue
                name = f"{layer}.{fn_name}"
                wrapped = self.span(name, original, OBSERVERS.get(name))
                for module in modules:
                    if getattr(module, fn_name, None) is original:
                        setattr(module, fn_name, wrapped)
                        self.bindings.append(f"{module.__name__}.{fn_name}")

    def write(self, path: str) -> None:
        """A JSON header line, then the span arrays in native binary form."""
        arrays = [getattr(self, field) for field in SPAN_FIELDS]
        header = {"fields": list(SPAN_FIELDS), "typecodes": [a.typecode for a in arrays],
                  "count": len(self.start), "names": self.names, "errors": self.errors}
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for a in arrays:
                a.tofile(fh)


SPAN_FIELDS = ("name_id", "start", "end", "parent", "op_id", "error_id")


def read_spans(path: str) -> list[tuple]:
    """Spans written by Tracer.write, as (name, start, end, parent, op, error) rows."""
    with open(path, "rb") as fh:
        header = json.loads(fh.readline())
        columns = []
        for code in header["typecodes"]:
            a = array(code)
            a.fromfile(fh, header["count"])
            columns.append(a)
    names, errors = header["names"], header["errors"]
    return [(names[n], s, e, p, o, errors[x]) for n, s, e, p, o, x in zip(*columns)]


def _count(counters: dict, key: str, amount: float) -> None:
    counters[key] = counters.get(key, 0) + amount


def _observe_reduce(counters, args, result):
    _count(counters, "words.reduce_word.letters_in", len(args[1]))
    _count(counters, "words.reduce_word.letters_out", result.length)


def _observe_size(key):
    return lambda counters, args, result: _count(counters, key, len(result))


def _observe_step(counters, args, result):
    _count(counters, "cosets.coset_step.changed", 0 if result.unchanged else 1)


def _observe_suite(counters, args, report):
    for check in report.checks:
        _count(counters, f"suite.{check.name}.ms", check.wall_ms)
        _count(counters, f"suite.{check.name}.instances", check.instances)


OBSERVERS = {
    "words.reduce_word": _observe_reduce,
    "oracle.ball": _observe_size("oracle.ball.elements"),
    "oracle.full_group": _observe_size("oracle.full_group.elements"),
    "cosets.coset_step": _observe_step,
    "suite.lemma_suite": _observe_suite,
}


def self_times(start, end, parent) -> list[float]:
    """Each span's duration minus the part of it that its children cover.

    Children may overlap each other or stick out of their parent; only the
    union of their intervals, clipped to the parent, is subtracted.
    """
    n = len(start)
    covered = [0.0] * n
    reach = [-math.inf] * n          # end of the covered prefix, per parent
    for i in sorted(range(n), key=start.__getitem__):
        p = parent[i]
        if p == NO_PARENT:
            continue
        lo = max(start[i], start[p], reach[p])
        hi = min(end[i], end[p])
        if hi > lo:
            covered[p] += hi - lo
        reach[p] = max(reach[p], hi)
    return [end[i] - start[i] - covered[i] for i in range(n)]


def layer_metrics(tracer: Tracer) -> tuple[dict, dict]:
    """Per-function calls, total_s, self_s and errors, plus per-op self sums.

    Returns (metrics, per_op) where per_op maps an op id to
    (wall time of its op span, sum of the self times of the spans below it).
    """
    selfs = self_times(tracer.start, tracer.end, tracer.parent)
    budget = [is_budget_error(e) for e in tracer.errors]
    n = len(tracer.names)
    calls, total, own, errors = [0] * n, [0.0] * n, [0.0] * n, [0] * n
    wall, below = {}, {}
    for nid, start, end, op, err, self_s in zip(tracer.name_id, tracer.start, tracer.end,
                                                 tracer.op_id, tracer.error_id, selfs):
        if nid == 0:   # the op span
            wall[op] = end - start
            continue
        below[op] = below.get(op, 0.0) + self_s
        calls[nid] += 1
        total[nid] += end - start
        own[nid] += self_s
        errors[nid] += budget[err]
    metrics = {}
    for layer, fns in LAYERS.items():
        for fn_name in fns:
            name = f"{layer}.{fn_name}"
            nid = tracer._name_ids.get(name)
            found = nid is not None
            metrics[f"{name}.calls"] = calls[nid] if found else 0
            metrics[f"{name}.total_s"] = total[nid] if found else 0.0
            metrics[f"{name}.self_s"] = own[nid] if found else 0.0
            if name in CAN_EXCEED_BUDGET:
                metrics[f"{name}.errors"] = errors[nid] if found else 0
    per_op = {op: (w, below.get(op, 0.0)) for op, w in wall.items()}
    return metrics, per_op


# Where coxkit keeps a functools cache, per layer.
CACHES = {
    "words": ("coxkit.words", "_reduce_bytes"),
    "finite_type": ("coxkit.finite_type", "_classify_cached"),
    "oracle": ("coxkit.oracle", "_parabolic_elements"),
}


def cache_stats() -> dict:
    """(hits, misses, entries) per layer cache; zeros for a cache coxkit no longer has."""
    out = {}
    for layer, (module, name) in CACHES.items():
        fn = getattr(sys.modules.get(module), name, None)
        info = fn.cache_info() if hasattr(fn, "cache_info") else None
        out[layer] = (info.hits, info.misses, info.currsize) if info else (0, 0, 0)
    return out


def add_cache_stats(total: dict, before: dict, after: dict) -> dict:
    """``total`` plus one op's cache_stats() delta: hits and misses summed,
    entries the most that any op left (an op may start with emptied caches)."""
    out = {}
    for layer, (hits, misses, entries) in after.items():
        t_hits, t_misses, t_entries = total.get(layer, (0, 0, 0))
        b_hits, b_misses, _ = before[layer]
        out[layer] = (t_hits + hits - b_hits, t_misses + misses - b_misses,
                      max(t_entries, entries))
    return out


def _hit_ratio(tally) -> float:
    hits, misses = tally[0], tally[1]
    return hits / (hits + misses) if hits + misses else 0.0


def round_metrics(tracer: Tracer, caches: dict) -> dict:
    """Every per-layer metric of a traced round, and the self-time check per op.

    ``caches`` holds the round's cache tallies (add_cache_stats).
    """
    layers, per_op = layer_metrics(tracer)
    c = tracer.counters
    steps = layers["cosets.coset_step.calls"]
    layers.update({
        "words.cache.hit_ratio": _hit_ratio(caches["words"]),
        "words.cache.entries": caches["words"][2],
        "words.reduce_word.letters_in": c.get("words.reduce_word.letters_in", 0),
        "words.reduce_word.letters_out": c.get("words.reduce_word.letters_out", 0),
        "finite_type.cache.hit_ratio": _hit_ratio(caches["finite_type"]),
        "oracle.cache.hit_ratio": _hit_ratio(caches["oracle"]),
        "oracle.ball.elements": c.get("oracle.ball.elements", 0),
        "oracle.full_group.elements": c.get("oracle.full_group.elements", 0),
        "cosets.coset_step.changed_ratio": c.get("cosets.coset_step.changed", 0) / steps if steps else 0.0,
    })
    for check in SUITE_CHECKS:
        layers[f"suite.{check}.ms"] = c.get(f"suite.{check}.ms", 0)
        layers[f"suite.{check}.instances"] = c.get(f"suite.{check}.instances", 0)
    return {
        "layers": layers,
        # Allow for float rounding in the subtraction of child time.
        "self_time_over_wall": [op for op, (wall, below) in per_op.items() if below > wall + 1e-9],
        "spans": len(tracer.start),
        "bindings": tracer.bindings,
    }
