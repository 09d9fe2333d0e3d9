"""Outside-in layer tracing: wrap the public functions of each `atsp`
module in spans, from the benchmark's own files.

A span is (name, start, end, parent). Spans are kept in memory; per-layer
counts, busy time and self time are derived from them afterwards, and the
raw spans can be written out when the run ends. A function imported by
name into other modules (`from .flows import max_flow`) is a separate
binding there, so every binding in every `atsp` module is replaced.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import defaultdict

LAYERS = ("instance", "simplex", "heldkarp", "flows", "rounding", "patchup", "cuts", "oracle")
ROOT = "bench"

# function-level metrics: (span name, metric prefix)
TIMED = (
    ("simplex.minimize", "simplex"),
    ("heldkarp.solve_lp", "heldkarp.solve_lp"),
    ("heldkarp.separate", "heldkarp.separate"),
    ("rounding.round_once", "rounding.round_once"),
    ("rounding.acceptance_certificate", "rounding.acceptance"),
    ("patchup.patch", "patchup.patch"),
    ("flows.min_cost_flow", "flows.min_cost_flow"),
    ("patchup.eulerian_tour", "patchup.eulerian_tour"),
    ("flows.euler_circuit", "flows.euler_circuit"),
    ("flows.is_weakly_connected", "flows.is_weakly_connected"),
    ("oracle.exact_atsp", "oracle.exact_atsp"),
    ("cuts.all_cut_values", "cuts.all_cut_values"),
    ("oracle.connectivity_sweep", "oracle.connectivity_sweep"),
    ("instance.generate", "instance.generate"),
    ("instance.validate", "instance.validate"),
)

PER_LAYER = (
    [(f"{layer}.{kind}", "s") for layer in LAYERS for kind in ("self_s", "busy_s")]
    + [
        ("simplex.calls", "count"),
        ("simplex.s", "s"),
        ("simplex.pivots", "count"),
        ("heldkarp.solve_lp.calls", "count"),
        ("heldkarp.solve_lp.s", "s"),
        ("heldkarp.rounds", "count"),
        ("heldkarp.separate.s", "s"),
        ("flows.max_flow.separation.calls", "count"),
        ("flows.max_flow.separation.s", "s"),
        ("flows.max_flow.acceptance.calls", "count"),
        ("flows.max_flow.acceptance.s", "s"),
        ("rounding.round_once.calls", "count"),
        ("rounding.round_once.s", "s"),
        ("rounding.attempts", "count"),
        ("rounding.accept_ratio", "ratio"),
        ("rounding.acceptance.s", "s"),
        ("patchup.patch.s", "s"),
        ("flows.min_cost_flow.s", "s"),
        ("patchup.eulerian_tour.s", "s"),
        ("flows.euler_circuit.s", "s"),
        ("flows.is_weakly_connected.s", "s"),
        ("patchup.multigraph_arcs", "count"),
        ("oracle.exact_atsp.s", "s"),
        ("cuts.all_cut_values.calls", "count"),
        ("cuts.all_cut_values.s", "s"),
        ("cuts.masks", "count"),
        ("oracle.connectivity_sweep.s", "s"),
        ("instance.generate.s", "s"),
        ("instance.validate.s", "s"),
        ("trace.wall_s", "s"),
        ("trace.untraced_wall_s", "s"),
        ("trace.overhead_s", "s"),
        ("trace.layer_self_sum_s", "s"),
        ("trace.unattributed_s", "s"),
        ("trace.spans", "count"),
        ("trace.span_cost_s", "s"),
    ]
)


@functools.lru_cache(maxsize=None)
def _signature(fn):
    return inspect.signature(fn)


def _arg(fn, args, kwargs, name):
    return _signature(fn).bind(*args, **kwargs).arguments[name]


# counters read from a finished call: span name -> (fn, args, kwargs, result) -> {counter: amount}
COUNTERS = {
    "simplex.minimize": lambda fn, a, k, r: {"simplex.pivots": r.iterations},
    "rounding.acceptance_certificate": lambda fn, a, k, r: {
        "rounding.attempts": 1, "rounding.accepted": int(r is None)},
    "cuts.all_cut_values": lambda fn, a, k, r: {"cuts.masks": len(r[0])},
    "patchup.eulerian_tour": lambda fn, a, k, r: {
        "patchup.multigraph_arcs": _arg(fn, a, k, "z").total_arcs() + _arg(fn, a, k, "w").total_arcs()},
}


class Tracer:
    """Records spans while installed; `install` patches, `uninstall` restores."""

    def __init__(self):
        self.spans: list[tuple[str, float, float, int]] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def span(self, name: str):
        return _Span(self, name)

    def _call(self, name, fn, args, kwargs):
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        self.spans.append((name, 0.0, 0.0, parent))
        self._stack.append(index)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[index] = (name, start, end, parent)
        counter = COUNTERS.get(name)
        if counter is not None:
            for key, amount in counter(fn, args, kwargs, result).items():
                self.counts[key] += amount
        return result

    def _wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self._call(name, fn, args, kwargs)

        return traced

    def install(self) -> None:
        wrapped = {}
        for layer in LAYERS:
            module = importlib.import_module(f"atsp.{layer}")
            for attr, value in vars(module).items():
                if (
                    not attr.startswith("_")
                    and inspect.isfunction(value)
                    and value.__module__ == module.__name__
                ):
                    wrapped[value] = self._wrap(f"{layer}.{attr}", value)
        for name, module in list(sys.modules.items()):
            if name != "atsp" and not name.startswith("atsp."):
                continue
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in wrapped:
                    setattr(module, attr, wrapped[value])
                    self._undo.append((module, attr, value))

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._undo):
            setattr(module, attr, value)
        self._undo.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def write(self, path) -> None:
        """Spans as tab-separated `index name start end parent` lines."""
        with open(path, "w") as fh:
            fh.write("index\tname\tstart\tend\tparent\n")
            for i, (name, start, end, parent) in enumerate(self.spans):
                fh.write(f"{i}\t{name}\t{start!r}\t{end!r}\t{parent}\n")


def _noop():
    return None


def span_cost(calls: int = 20000) -> float:
    """Seconds one traced call adds to its caller, timed on a no-op. The
    difference of traced and untraced pass times is too noisy on a shared
    machine to bound the tracing cost; spans per pass times this is not."""
    traced = Tracer()._wrap("cost.noop", _noop)
    start = time.perf_counter()
    for _ in range(calls):
        traced()
    middle = time.perf_counter()
    for _ in range(calls):
        _noop()
    end = time.perf_counter()
    return max(0.0, ((middle - start) - (end - middle)) / calls)


class _Span:
    """A span opened by the benchmark itself (a pass, the set-up)."""

    def __init__(self, tracer: Tracer, name: str):
        self.tracer, self.name = tracer, f"{ROOT}.{name}"

    def __enter__(self):
        t = self.tracer
        self.parent = t._stack[-1] if t._stack else -1
        self.index = len(t.spans)
        t.spans.append((self.name, 0.0, 0.0, self.parent))
        t._stack.append(self.index)
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        end = time.perf_counter()
        t = self.tracer
        t._stack.pop()
        t.spans[self.index] = (self.name, self.start, end, self.parent)


def summarize(spans, counts, roots: int) -> dict[str, float]:
    """Per-layer totals over `spans`, divided by `roots` (passes traced).

    Self time is a span's duration minus its children's durations. Busy
    time counts a span only when no ancestor belongs to the same layer (for
    layers) or has the same name (for functions), so nesting never counts
    twice.
    """
    child = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    stats: dict[str, float] = defaultdict(float)
    for i, (name, start, end, parent) in enumerate(spans):
        dur = end - start
        layer, func = name.split(".", 1)
        stats[f"{layer}.self_s"] += dur - child[i]
        layer_outer = name_outer = True
        p = parent
        while p >= 0 and (layer_outer or name_outer):
            pname = spans[p][0]
            layer_outer = layer_outer and not pname.startswith(layer + ".")
            name_outer = name_outer and pname != name
            p = spans[p][3]
        if layer_outer:
            stats[f"{layer}.busy_s"] += dur
        if name_outer:
            stats[f"{name}.s"] += dur
        stats[f"{name}.calls"] += 1
        if name == "flows.max_flow":
            via = "separation" if parent >= 0 and spans[parent][0] == "heldkarp.separate" else "acceptance"
            stats[f"flows.max_flow.{via}.calls"] += 1
            stats[f"flows.max_flow.{via}.s"] += dur
        if name == "simplex.minimize" and parent >= 0 and spans[parent][0].startswith("heldkarp."):
            stats["heldkarp.rounds"] += 1
    for key, value in counts.items():
        stats[key] += value

    out = {}
    for span_name, prefix in TIMED:
        out[f"{prefix}.s"] = stats[f"{span_name}.s"]
        out[f"{prefix}.calls"] = stats[f"{span_name}.calls"]
    for layer in LAYERS:
        out[f"{layer}.self_s"] = stats[f"{layer}.self_s"]
        out[f"{layer}.busy_s"] = stats[f"{layer}.busy_s"]
    for key in ("heldkarp.rounds", "simplex.pivots", "rounding.attempts", "cuts.masks",
                "patchup.multigraph_arcs"):
        out[key] = stats[key]
    for via in ("separation", "acceptance"):
        for unit in ("calls", "s"):
            key = f"flows.max_flow.{via}.{unit}"
            out[key] = stats[key]
    out = {key: value / roots for key, value in out.items()}
    attempts = stats["rounding.attempts"]
    out["rounding.accept_ratio"] = stats["rounding.accepted"] / attempts if attempts else 0.0
    out["trace.layer_self_sum_s"] = sum(out[f"{layer}.self_s"] for layer in LAYERS)
    out["trace.unattributed_s"] = stats[f"{ROOT}.self_s"] / roots
    out["trace.spans"] = len(spans) / roots
    return out
