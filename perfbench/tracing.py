"""In-memory spans around mm1game's layers, installed from outside the package.

Callers bind mm1game's functions at import, so each wrap replaces the name in
the namespace of the module that makes the call.  A span records its layer
name, start, end, parent span and op id; self time is its duration minus the
time its child spans cover.  Spans stay in memory until :meth:`Tracer.save`.
"""

from __future__ import annotations

import functools
import importlib
import os
from array import array
from collections import Counter, defaultdict
from time import perf_counter
from types import SimpleNamespace
from typing import Any, Callable

import numpy as np


def _count_rounds(tracer: "Tracer", trajectory, args, kwargs) -> None:
    tracer.counts["dynamics.run_dynamics.rounds"] += len(trajectory.iterates) - 1


def _count_sim(tracer: "Tracer", report, args, kwargs) -> None:
    tracer.counts["simulator.run.slots"] += report.slots
    tracer.counts["simulator.run.accepted_packets"] += sum(report.accepted)


def _count_bytes(tracer: "Tracer", result, args, kwargs) -> None:
    tracer.counts["cli.bytes_written"] += os.path.getsize(args[0])


def _count_cells(tracer: "Tracer", cells, args, kwargs) -> None:
    tracer.counts["simulator.sweep.cells"] += len(cells)
    tracer.counts["simulator.sweep.error_cells"] += sum(c.error is not None for c in cells)


# (module whose namespace makes the call, attribute, layer name, result hook)
LIBRARY_WRAPS = (
    ("mm1game.dynamics", "best_response", "dynamics.best_response", None),
    ("mm1game.dynamics", "keep_probability", "model.keep_probability", None),
    ("mm1game.analysis", "utility", "model.utility", None),
    ("mm1game.mechanism", "design_linear", "mechanism.design_linear", None),
    ("mm1game.mechanism", "validate_design", "mechanism.validate_design", None),
    ("mm1game.mechanism", "target_effective_rate", "mechanism.target_effective_rate", None),
    ("mm1game.mechanism", "run_dynamics", "dynamics.run_dynamics", _count_rounds),
    ("mm1game.mechanism", "poa_of_equilibrium", "analysis.poa_of_equilibrium", None),
    ("mm1game.simulator", "run", "simulator.run", _count_sim),
    ("mm1game.simulator", "design_linear", "mechanism.design_linear", None),
    ("mm1game.simulator", "empirical_poa", "simulator.empirical_poa", None),
    ("mm1game.simulator", "keep_probability", "model.keep_probability", None),
    ("mm1game.cli", "run_simulation", "simulator.run", _count_sim),
    ("mm1game.cli", "write_csv", "cli.write_csv", _count_bytes),
    ("mm1game.cli", "write_json", "cli.write_json", _count_bytes),
)

# The benchmark's own calls: (api name, module, attribute, layer name, result hook)
BENCHMARK_CALLS = (
    ("sweep", "mm1game.simulator", "sweep", "simulator.sweep", _count_cells),
    ("designed_with_diagnostics", "mm1game.mechanism", "designed_with_diagnostics",
     "mechanism.designed_with_diagnostics", None),
    ("run_dynamics", "mm1game.dynamics", "run_dynamics", "dynamics.run_dynamics", _count_rounds),
    ("verify_equilibrium", "mm1game.dynamics", "verify_equilibrium",
     "dynamics.verify_equilibrium", None),
    ("cli_main", "mm1game.cli", "main", "cli.main", None),
)


def plain_api() -> SimpleNamespace:
    """The benchmark's entry points into mm1game, untraced."""
    return SimpleNamespace(**{
        api: getattr(importlib.import_module(module), attr)
        for api, module, attr, _, _ in BENCHMARK_CALLS
    })


class Tracer:
    """Collects spans, per-layer call counts and self time, and work counters."""

    def __init__(self) -> None:
        self.layers: list[str] = []
        self._layer_ids: dict[str, int] = {}
        self.layer = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.op_id = -1
        self.calls: Counter[int] = Counter()
        self.self_s: defaultdict[int, float] = defaultdict(float)
        self.total_s: defaultdict[int, float] = defaultdict(float)
        self.counts: Counter[str] = Counter()
        self._stack: list[list] = []  # [span index, time covered by children]

    def wrap(self, layer: str, fn: Callable, hook=None) -> Callable:
        lid = self._layer_ids.setdefault(layer, len(self.layers))
        if lid == len(self.layers):
            self.layers.append(layer)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack
            idx = len(self.start)
            self.layer.append(lid)
            self.parent.append(stack[-1][0] if stack else -1)
            self.op.append(self.op_id)
            self.start.append(0.0)
            self.end.append(0.0)
            frame = [idx, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                self.start[idx] = t0
                self.end[idx] = t1
                self.calls[lid] += 1
                self.self_s[lid] += (t1 - t0) - frame[1]
                self.total_s[lid] += t1 - t0
                if stack:
                    stack[-1][1] += t1 - t0
            if hook is not None:
                hook(self, result, args, kwargs)
            return result

        return traced

    def install(self) -> tuple[SimpleNamespace, Callable[[], None]]:
        """Wrap the library's layers; return the traced api and an undo function."""
        saved = []
        for module_name, attr, layer, hook in LIBRARY_WRAPS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr, self.wrap(layer, original, hook))

        def restore() -> None:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

        api = SimpleNamespace(**{
            api: self.wrap(layer, getattr(importlib.import_module(module), attr), hook)
            for api, module, attr, layer, hook in BENCHMARK_CALLS
        })
        return api, restore

    def layer_calls(self, layer: str) -> int:
        lid = self._layer_ids.get(layer)
        return 0 if lid is None else self.calls[lid]

    def layer_self_s(self, layer: str) -> float:
        lid = self._layer_ids.get(layer)
        return 0.0 if lid is None else self.self_s[lid]

    def layer_total_s(self, layer: str) -> float:
        """Time inside the layer's spans, children included."""
        lid = self._layer_ids.get(layer)
        return 0.0 if lid is None else self.total_s[lid]

    def save(self, path: str) -> None:
        """Write every span: layer id, start, end, parent index and op id."""
        np.savez_compressed(
            path,
            layers=np.array(self.layers),
            layer=np.frombuffer(self.layer, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            op=np.frombuffer(self.op, dtype=np.int32),
        )


def layer_metrics(tracer: Tracer, untraced_s: float, traced_s: float) -> dict[str, tuple[Any, str]]:
    """Per-layer metrics of a traced pass, keyed by name, as (value, unit)."""
    out: dict[str, tuple[Any, str]] = {}
    for layer in (
        "model.keep_probability",
        "model.utility",
        "analysis.poa_of_equilibrium",
        "mechanism.design_linear",
        "mechanism.target_effective_rate",
        "mechanism.validate_design",
        "mechanism.designed_with_diagnostics",
        "dynamics.best_response",
        "dynamics.run_dynamics",
        "dynamics.verify_equilibrium",
        "simulator.sweep",
        "simulator.run",
        "simulator.empirical_poa",
        "cli.main",
        "cli.write_csv",
        "cli.write_json",
    ):
        out[f"{layer}.calls"] = (tracer.layer_calls(layer), "count")
        out[f"{layer}.self_s"] = (tracer.layer_self_s(layer), "s")
    for name in (
        "dynamics.run_dynamics.rounds",
        "simulator.run.slots",
        "simulator.run.accepted_packets",
        "simulator.sweep.cells",
        "simulator.sweep.error_cells",
        "cli.bytes_written",
    ):
        out[name] = (tracer.counts[name], "count" if name != "cli.bytes_written" else "B")
    # per-unit costs count the layer's children, as a caller sees them
    br_calls = tracer.layer_calls("dynamics.best_response")
    br_s = tracer.layer_total_s("dynamics.best_response")
    out["dynamics.best_response.us_per_call"] = (1e6 * br_s / br_calls if br_calls else 0.0, "us")
    slots = tracer.counts["simulator.run.slots"]
    run_s = tracer.layer_total_s("simulator.run")
    out["simulator.run.us_per_slot"] = (1e6 * run_s / slots if slots else 0.0, "us")
    out["trace.spans"] = (len(tracer.start), "count")
    out["trace.untraced_op_s"] = (untraced_s, "s")
    out["trace.overhead_s"] = (traced_s - untraced_s, "s")
    return out
