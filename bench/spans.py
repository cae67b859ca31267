"""Spans around the calls that `wavepacket.cli` makes into each layer.

`Tracer.install` replaces, in the `wavepacket.cli` namespace only, every
function that cli imported from a layer module with a wrapper that records
a span: (name, start, end, parent, config, counts).  Calls a layer makes
internally are not wrapped, so each layer is timed at its boundary with
cli.  `core` is reached only through `omega_at` once per integration step,
so it is not wrapped: its time lands in `evolution` and `oracle`.

Spans are kept in memory per pass until `write`; `pass_metrics` reduces
the spans of one pass to the per-layer metrics.
"""

import inspect
import math
import os
import time

LAYERS = ("cli", "evolution", "invariants", "packet", "kernels", "wigner", "oracle")
CLI_FUNCTIONS = ("load_config", "run_scenario", "emit_outputs")


def rk4_steps(t_grid, dt):
    """RK4 steps solve_lambda takes: each sample interval in ceil(span/dt) substeps."""
    t_grid = [float(t) for t in t_grid]
    return sum(max(1, math.ceil((b - a) / dt - 1e-12))
               for a, b in zip(t_grid, t_grid[1:]))


def _count_split_step(args, result):
    n = len(args["state"].grid.values)
    return {"steps": args["steps"], "point_steps": n * args["steps"]}


def _count_solve_lambda(args, result):
    return {"rk4_steps": rk4_steps(args["t_grid"], args["dt"])}


def _count_apply_kernel(args, result):
    return {"matrix_bytes": 16 * len(args["x_out"]) * len(args["psi_in"].values)}


def _count_wigner(args, result):
    return {"cells": len(args["psi"].values) * args["p_grid"][2]}


def _count_emit(args, result):
    return {"bytes": sum(os.path.getsize(p) for p in result)}


# computed work counts, keyed by the wrapped function's name; per pass they
# are summed, except the peak counts, of which the largest is kept
PEAK_COUNTS = {"kernels.apply_kernel.matrix_bytes"}
COUNTERS = {
    "oracle.split_step": _count_split_step,
    "evolution.solve_lambda": _count_solve_lambda,
    "kernels.apply_kernel": _count_apply_kernel,
    "wigner.wigner_numeric": _count_wigner,
    "cli.emit_outputs": _count_emit,
}


class Tracer:
    """Records spans; a span's parent is its index in the same pass."""

    def __init__(self):
        self.passes = []
        self.spans = None
        self.config = None
        self._stack = []

    def new_pass(self):
        """Start the span list of a new pass; returns it."""
        self.spans = []
        self.passes.append(self.spans)
        return self.spans

    def call(self, name, fn, *args, **kwargs):
        """Run fn inside a span called `name`."""
        spans, stack = self.spans, self._stack
        index = len(spans)
        spans.append(None)
        parent = stack[-1] if stack else None
        stack.append(index)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            spans[index] = (name, start, end, parent, self.config, None)
        counter = COUNTERS.get(name)
        if counter is not None:
            bound = inspect.signature(fn).bind(*args, **kwargs)
            bound.apply_defaults()
            spans[index] = spans[index][:5] + (counter(bound.arguments, result),)
        return result

    def _wrap(self, name, fn):
        def wrapper(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)
        wrapper.__wrapped__ = fn
        return wrapper

    def install(self, cli):
        """Wrap cli's own stages and every layer function cli imported."""
        layer_modules = {f"wavepacket.{layer}": layer for layer in LAYERS[1:]}
        for attr, obj in list(vars(cli).items()):
            if not inspect.isfunction(obj):
                continue
            if attr in CLI_FUNCTIONS:
                setattr(cli, attr, self._wrap(f"cli.{attr}", obj))
            elif obj.__module__ in layer_modules:
                layer = layer_modules[obj.__module__]
                setattr(cli, attr, self._wrap(f"{layer}.{attr}", obj))

    def write(self, path):
        """Write every span of every pass as one tab-separated line."""
        with open(path, "w") as fh:
            fh.write("pass\tname\tstart\tend\tparent\tconfig\tcounts\n")
            for k, spans in enumerate(self.passes):
                for name, start, end, parent, config, counts in spans:
                    fh.write(f"{k}\t{name}\t{start!r}\t{end!r}\t{parent}\t{config}\t"
                             f"{counts or ''}\n")


def self_times(spans):
    """Each span's duration minus the part of it that its child spans cover."""
    children = {}
    for i, span in enumerate(spans):
        if span[3] is not None:
            children.setdefault(span[3], []).append(i)
    result = []
    for i, (_, start, end, *_rest) in enumerate(spans):
        covered = 0.0
        cursor = start
        for c in sorted(children.get(i, ()), key=lambda k: spans[k][1]):
            lo, hi = max(spans[c][1], cursor), min(spans[c][2], end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        result.append((end - start) - covered)
    return result


def pass_metrics(spans, pass_s):
    """Per-layer metrics of one traced pass of wall time `pass_s`."""
    selfs = self_times(spans)
    busy, calls, counts = {}, {}, {}
    layer_self = dict.fromkeys(LAYERS, 0.0)
    layer_calls = dict.fromkeys(LAYERS, 0)
    roots = run_scenario_self = 0.0
    for span, self_s in zip(spans, selfs):
        name, start, end, parent = span[:4]
        busy[name] = busy.get(name, 0.0) + (end - start)
        calls[name] = calls.get(name, 0) + 1
        layer = name.split(".", 1)[0]
        layer_self[layer] += self_s
        layer_calls[layer] += 1
        if name == "cli.run_scenario":
            run_scenario_self += self_s
        if parent is None:
            roots += end - start
        for key, value in (span[5] or {}).items():
            key = f"{name}.{key}"
            if key in PEAK_COUNTS:
                counts[key] = max(counts.get(key, 0), value)
            else:
                counts[key] = counts.get(key, 0) + value

    m = {}
    for name in ("oracle.split_step", "oracle.compare_states", "evolution.solve_lambda",
                 "kernels.apply_kernel", "kernels.satisfies_kernel_odes",
                 "wigner.wigner_numeric", "cli.emit_outputs", "cli.load_config"):
        m[f"{name}.busy_s"] = busy.get(name, 0.0)
    m["cli.run_scenario.self_s"] = run_scenario_self
    m["evolution.solve_lambda.calls"] = calls.get("evolution.solve_lambda", 0)
    m["oracle.split_step.steps"] = counts.get("oracle.split_step.steps", 0)
    m["oracle.point_steps"] = counts.get("oracle.split_step.point_steps", 0)
    m["evolution.rk4_steps"] = counts.get("evolution.solve_lambda.rk4_steps", 0)
    m["kernels.apply_kernel.matrix_bytes"] = counts.get("kernels.apply_kernel.matrix_bytes", 0)
    m["wigner.wigner_numeric.cells"] = counts.get("wigner.wigner_numeric.cells", 0)
    m["cli.emit_outputs.bytes"] = counts.get("cli.emit_outputs.bytes", 0)
    m["oracle.ns_per_point_step"] = (
        1e9 * m["oracle.split_step.busy_s"] / m["oracle.point_steps"]
        if m["oracle.point_steps"] else 0.0)
    m["evolution.us_per_rk4_step"] = (
        1e6 * m["evolution.solve_lambda.busy_s"] / m["evolution.rk4_steps"]
        if m["evolution.rk4_steps"] else 0.0)
    for layer in LAYERS:
        key = "cli.self_s" if layer == "cli" else f"{layer}.busy_s"
        m[key] = layer_self[layer]
        m[f"{layer}.share"] = layer_self[layer] / pass_s
    m["invariants.calls"] = layer_calls["invariants"]
    m["packet.calls"] = layer_calls["packet"]
    m["trace.unattributed_s"] = pass_s - roots
    return m
