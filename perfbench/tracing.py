"""In-memory spans and kernel counters for the traced benchmark run.

The library is not changed. Instead the public functions of each layer
module of quasitur are replaced by timing wrappers at every module
attribute that refers to them, which catches calls between modules at
their call sites (``quasiprob`` calling ``heisenberg_propagator``,
``cli`` calling ``scaling_sweep``). The closure ``heisenberg_propagator``
returns is wrapped too. Kernels (``scipy.linalg.expm``,
``numpy.linalg.eigh``/``eigvalsh``, the integrator behind
``quasitur.lindblad.solve_ivp``) are counted, not spanned: their calls and
time go to the layer of the innermost open span, so a layer's self time
includes the kernels it calls.

A span records name, start, end, parent span and op id. Spans stay in an
in-memory buffer until the run ends; aggregates are kept as spans close.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
from array import array
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter_ns

import numpy.linalg
import scipy.linalg

LAYERS = ("lindblad", "operators", "quasiprob", "thermo", "degeneracy", "classical", "cli")
#: pseudo-layer of the benchmark's own work: the op body and the gates
HARNESS = "bench"
#: fields per span in the flat buffer
SPAN_FIELDS = ("name", "start_ns", "end_ns", "parent", "op")

#: groups of spans timed by their outermost call, so nested members
#: (apply_liouvillian calling apply_dissipator) are not counted twice;
#: keyed by the (count, time) metrics they feed
GROUPS = {
    ("lindblad.generator_applies", "lindblad.generator_apply_ms"): (
        "lindblad.apply_liouvillian", "lindblad.apply_adjoint_liouvillian",
        "lindblad.apply_dissipator", "lindblad.apply_adjoint_dissipator"),
    # propagate builds a propagator and applies it once, in one call
    ("lindblad.propagator_builds", "lindblad.propagator_build_ms"): (
        "lindblad.heisenberg_propagator", "lindblad.propagate", "lindblad.heisenberg_propagate"),
    ("lindblad.propagator_applies", "lindblad.propagator_apply_ms"): ("lindblad.propagator_apply",),
    (None, "thermo.epr_ms"): ("thermo.entropy_production_rate",),
    (None, "thermo.geometric_ms"): ("thermo.geometric_representation",),
    (None, "operators.kubo_ms"): ("operators.kubo_integral",),
    (None, "degeneracy.integrated_fluxes_ms"): ("degeneracy.integrated_fluxes",),
}
_GROUP_OF = {span: group for group, spans in GROUPS.items() for span in spans}


class Recorder:
    """Span buffer plus the aggregates the per-layer metrics are read from."""

    def __init__(self):
        self.spans = array("q")
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self._stack: list[list] = []
        self._group_depth = defaultdict(int)
        self.op = -1
        self.calls = defaultdict(int)
        self.self_ns = defaultdict(int)
        self.group_calls = defaultdict(int)
        self.group_ns = defaultdict(int)
        self.kernel_calls = defaultdict(int)
        self.kernel_ns = defaultdict(int)
        self.maxima = defaultdict(int)
        self.totals = defaultdict(int)

    def enter(self, name: str, layer: str) -> None:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        group = _GROUP_OF.get(name)
        if group is not None:
            self._group_depth[group] += 1
        parent = self._stack[-1][0] if self._stack else -1
        index = len(self.spans) // len(SPAN_FIELDS)
        start = perf_counter_ns()
        self.spans.extend((nid, start, 0, parent, self.op))
        self._stack.append([index, layer, group, start, 0])

    def exit(self) -> None:
        end = perf_counter_ns()
        index, layer, group, start, child_ns = self._stack.pop()
        self.spans[index * len(SPAN_FIELDS) + 2] = end
        duration = end - start
        self.calls[layer] += 1
        self.self_ns[layer] += duration - child_ns
        if self._stack:
            self._stack[-1][4] += duration
        if group is not None:
            self._group_depth[group] -= 1
            if self._group_depth[group] == 0:
                self.group_calls[group] += 1
                self.group_ns[group] += duration

    @contextmanager
    def span(self, name: str, layer: str = HARNESS):
        self.enter(name, layer)
        try:
            yield
        finally:
            self.exit()

    @property
    def layer(self) -> str:
        """Layer of the innermost open span."""
        return self._stack[-1][1] if self._stack else HARNESS

    def kernel(self, kind: str, elapsed_ns: int) -> str:
        layer = self.layer
        self.kernel_calls[layer, kind] += 1
        self.kernel_ns[layer, kind] += elapsed_ns
        return layer


def _span_wrapper(rec: Recorder, name: str, layer: str, fn, after=None):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        rec.enter(name, layer)
        try:
            out = fn(*args, **kwargs)
        finally:
            rec.exit()
        return out if after is None else after(out)
    return traced


def _kernel_wrapper(rec: Recorder, kind: str, fn, after=None):
    @functools.wraps(fn)
    def counted(*args, **kwargs):
        start = perf_counter_ns()
        out = fn(*args, **kwargs)
        layer = rec.kernel(kind, perf_counter_ns() - start)
        if after is not None:
            after(layer, out)
        return out
    return counted


class Tracer:
    """Installs and removes the wrappers around one recorder."""

    def __init__(self, rec: Recorder):
        self.rec = rec
        hooks = self._hooks()
        replacements = {}
        for layer in LAYERS:
            module = importlib.import_module(f"quasitur.{layer}")
            for attr, fn in vars(module).items():
                if attr.startswith("_") or not inspect.isfunction(fn) \
                        or fn.__module__ != module.__name__:
                    continue
                name = f"{layer}.{attr}"
                replacements[fn] = _span_wrapper(rec, name, layer, fn, hooks.get(name))
        self._patches = []
        for name, module in list(sys.modules.items()):
            if name != "quasitur" and not name.startswith("quasitur."):
                continue
            for attr, value in vars(module).items():
                if inspect.isfunction(value) and value in replacements:
                    self._patches.append((module, attr, value, replacements[value]))
        lindblad = sys.modules["quasitur.lindblad"]
        for owner, attr, kind, after in ((scipy.linalg, "expm", "expm", self._after_expm),
                                         (numpy.linalg, "eigh", "eigh", None),
                                         (numpy.linalg, "eigvalsh", "eigh", None),
                                         (lindblad, "solve_ivp", "ivp", None)):
            original = getattr(owner, attr)
            self._patches.append((owner, attr, original, _kernel_wrapper(rec, kind, original, after)))

    def _hooks(self):
        rec = self.rec

        def propagator(apply):
            return _span_wrapper(rec, "lindblad.propagator_apply", "lindblad", apply)

        def kubo(out):
            rec.maxima["kubo_dim"] = max(rec.maxima["kubo_dim"], out.shape[0])
            return out

        def fluxes(out):
            rec.totals["flux_columns"] += out.resolved.shape[1]
            return out

        return {"lindblad.heisenberg_propagator": propagator,
                "operators.kubo_integral": kubo,
                "degeneracy.integrated_fluxes": fluxes}

    def _after_expm(self, layer, out):
        rec = self.rec
        rec.maxima[layer, "expm_dim"] = max(rec.maxima[layer, "expm_dim"], out.shape[0])
        rec.totals[layer, "expm_bytes"] += out.nbytes

    def install(self) -> None:
        for owner, attr, _original, replacement in self._patches:
            setattr(owner, attr, replacement)

    def uninstall(self) -> None:
        for owner, attr, original, _replacement in self._patches:
            setattr(owner, attr, original)


def layer_metrics(rec: Recorder, ops: int, traced_ns: int, untraced_ns: int) -> dict:
    """Per-op layer metrics of ``ops`` traced ops; maxima are not per op.

    ``traced_ns`` and ``untraced_ns`` are the walls of the same ops run
    with and without the tracer installed.
    """
    def per_op(value):
        return value / ops

    def ms(ns):
        return per_op(ns) / 1e6

    out = {}
    for layer in LAYERS:
        out[f"{layer}.calls"] = per_op(rec.calls[layer])
        out[f"{layer}.self_ms"] = ms(rec.self_ns[layer])
    for group in GROUPS:
        count_name, time_name = group
        if count_name:
            out[count_name] = per_op(rec.group_calls[group])
        out[time_name] = ms(rec.group_ns[group])
    for layer, kind, with_time in (("lindblad", "expm", True), ("lindblad", "ivp", False),
                                   ("lindblad", "eigh", False), ("classical", "expm", True),
                                   ("operators", "eigh", True), ("thermo", "eigh", True),
                                   ("degeneracy", "eigh", True)):
        out[f"{layer}.{kind}_calls"] = per_op(rec.kernel_calls[layer, kind])
        if with_time:
            out[f"{layer}.{kind}_ms"] = ms(rec.kernel_ns[layer, kind])
    for kind in ("expm", "eigh", "ivp"):
        out[f"kernel.{kind}_calls"] = per_op(sum(
            count for (_layer, k), count in rec.kernel_calls.items() if k == kind))
    out["lindblad.expm_max_dim"] = rec.maxima["lindblad", "expm_dim"]
    out["lindblad.propagator_mb"] = per_op(rec.totals["lindblad", "expm_bytes"]) / 1e6
    out["operators.kubo_max_dim"] = rec.maxima["kubo_dim"]
    out["degeneracy.flux_columns"] = per_op(rec.totals["flux_columns"])
    out["bench.harness_ms"] = ms(rec.self_ns[HARNESS])
    out["trace.spans"] = per_op(len(rec.spans) // len(SPAN_FIELDS))
    out["trace.overhead"] = traced_ns / untraced_ns - 1.0
    out["trace.coverage"] = sum(rec.self_ns.values()) / traced_ns
    return out
