"""Scenario runner: JSON config in, plot-ready data files and an invariant
report out.

Commands:
    run <config>         config is a JSON file path or a built-in scenario name
    list-scenarios       names of the embedded scenarios
    describe <scenario>  print an embedded scenario config as JSON

Exit codes: 0 success, 2 config error, 3 numerical divergence,
4 capability error, 5 I/O error.  A report whose checks fail
its tolerances still exits 0; pass/fail lives in report.json.

Outputs (all LF line endings; repr, the shortest round-tripping form, for
every number except the .dat values):
    trajectory.csv   one row per sample, written by every run, header
                     t,eta,eta_dot,alpha,alpha_dot,phi,var_x,var_p,corr,det_M,I_L,p_phi,E_cl,E_tilde
    wigner_t<id>.dat matrix (rows = p index, columns = x index) preceded by
                     '#' metadata lines; each value as '%.17e' (18 significant
                     digits, exponent e+XX or e+XXX), one space between values;
                     written during the run, as soon as its window is computed
    report.json      invariant report with per-sample records, summaries and
                     checks, each with its value, its TOLERANCES entry and
                     pass/fail; each
                     wigner, kernel_check and oracle_compare section lists
                     the warnings of its numerics, and warned_sections
                     counts the sections whose list is not empty
"""

import argparse
import functools
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .core import (Constants, ConstantOmega, Free, InitialPacket, ModulatedOmega,
                   RampOmega, SystemSpec, TabulatedOmega)
from .errors import CapabilityError, ConfigError, DivergenceError, ValidationError
from .evolution import solve_lambda
from .invariants import matrix_from_state, record_columns
from .kernels import apply_kernel, kernel_td
from .oracle import GridState, compare_states, split_step
from .packet import evaluate_wavefunction, propagate_analytic
from .rowformat import write_records, write_report, write_rows
from .wigner import WIGNER_BLOCK_BYTES, wigner_numeric

# parse_config holds a run's working set to MEMORY_BUDGET: SAMPLE_BYTES per
# sample, SOLVE_BLOCK_BYTES for one solve_lambda block at a time, and as its
# tasks need GRID_POINT_BYTES per grid point and wigner_working_set, one
# Wigner window and its blocks (tracemalloc: 1229 to 2020, 0.46 MiB for a
# solve or the invariants' second one, 154 to 186, and 9.6 of 13.0 MiB at
# 1024 x 1025); its steps to STEP_BUDGET, oracle point-steps to
# POINT_STEP_BUDGET (0.5-0.7 us, 21-40 ns)
MEMORY_BUDGET = 1 << 30
SAMPLE_BYTES = 2560
SOLVE_BLOCK_BYTES = 2 << 20
GRID_POINT_BYTES = 256
STEP_BUDGET = 1 << 32
POINT_STEP_BUDGET = 1 << 36

# each check's tolerance is the entry of its name.  det_M_drift is the one
# check of the Wronskian W = det M: the other invariant columns are W through
# other formulas (see invariants)
TOLERANCES = {
    # where p_phi = (hbar/2)*W leaves hbar/2 by 1e-10 at hbar = 1
    "det_M_drift": 2e-10,
    # 1e3 times the rounding the built-ins read, 1e-1 of a wrong RK4 stage's
    "step_doubling_error": 1e-10,
    "kernel_roundtrip_l2": 1e-5,
    # the kernel's and the oracle's unaligned L2 from the same analytic
    # packet: each sees its global phase
    "kernel_vs_analytic_l2": 1e-5,
    "oracle_vs_analytic_l2": 1e-5,
    # the input tolerance of GridState, applied to the oracle's result
    "oracle_norm_defect": 1e-8,
}

def _builtin(name, system, t_end, tasks, alpha0=1.0):
    """A built-in scenario config: its own law, duration, tasks and width on
    the constants, packet, step, grid and phase-space grid all share."""
    return {
        "constants": {"hbar": 1.0, "mass": 1.0},
        "system": system,
        "packet": {"x0": 0.0, "p0": 1.0, "alpha0": alpha0},
        "time": {"t_end": t_end, "dt": 0.001, "sample_every": 100},
        "grid": {"x_min": -15.0, "x_max": 15.0, "n_points": 1024},
        "phase_space_grid": {"nx": 256, "np": 257, "span_sigmas": 8.0},
        "tasks": list(tasks),
        "output_dir": f"out/{name}",
    }


_EVERY_TASK = ("evolve", "invariants", "wigner", "kernel_check", "oracle_compare")

BUILTIN_SCENARIOS = {name: _builtin(name, *differences) for name, *differences in (
    ("free-spread", {"type": "free"}, 2.0, _EVERY_TASK),
    ("ho-constant-width", {"type": "constant", "omega": 1.0}, 10.0, _EVERY_TASK),
    ("ho-breathing", {"type": "constant", "omega": 1.0}, 10.0,
     ("evolve", "invariants", "wigner", "oracle_compare"), 1.5),
    ("omega-ramp", {"type": "ramp", "omega0": 1.0, "slope": 0.25}, 5.0,
     ("evolve", "invariants", "oracle_compare")),
    ("frozen-width-demo", {"type": "free"}, 2.0, ("evolve", "invariants")),
)}


@dataclass(frozen=True)
class ScenarioConfig:
    system: SystemSpec
    packet: InitialPacket
    t_end: float
    dt: float
    sample_every: int
    x_min: float
    x_max: float
    n_points: int
    ps_nx: int
    ps_np: int
    ps_span_sigmas: float
    tasks: tuple
    output_dir: str
    name: str = ""

    def sample_times(self):
        # k * step for each k, to the bit
        step = self.dt * self.sample_every
        return np.arange(round(self.t_end / step) + 1) * step

    def x_grid(self):
        return np.linspace(self.x_min, self.x_max, self.n_points)


def _get(data, path, expected, default=None):
    """The value at the dotted `path`, of type `expected`, or `default` if it
    is absent; ConfigError if it has none, or a parent is not an object."""
    node = data
    keys = path.split(".")
    for i, key in enumerate(keys):
        if not isinstance(node, dict):
            raise ConfigError(
                f"config field '{'.'.join(keys[:i])}' must be an object, got {node!r}")
        if key not in node:
            if default is None:
                raise ConfigError(f"missing config field '{'.'.join(keys[:i + 1])}'")
            return default
        node = node[key]
    return _typed(node, path, expected)


def _typed(node, path, expected):
    """node as `expected`, where an int is also a float; a bool is neither,
    and a number must be a finite double."""
    if isinstance(node, bool) or not isinstance(
            node, (int, float) if expected is float else expected):
        raise ConfigError(f"config field '{path}' must be {expected.__name__}, got {node!r}")
    if expected in (int, float) and not abs(node) <= sys.float_info.max:
        shown = f"an int of {node.bit_length()} bits" if isinstance(node, int) else repr(node)
        raise ConfigError(f"config field '{path}' must be finite, got {shown}")
    return float(node) if expected is float else node


def _parse_system(data, constants):
    kind = _get(data, "system.type", str)
    try:
        if kind == "free":
            law = Free()
        elif kind == "constant":
            law = ConstantOmega(_get(data, "system.omega", float))
        elif kind == "ramp":
            law = RampOmega(_get(data, "system.omega0", float),
                            _get(data, "system.slope", float))
        elif kind == "modulated":
            law = ModulatedOmega(_get(data, "system.omega0", float),
                                 _get(data, "system.epsilon", float),
                                 _get(data, "system.gamma", float))
        elif kind == "tabulated":
            points = _get(data, "system.points", list)
            for i, point in enumerate(points):
                if not (isinstance(point, list) and len(point) == 2):
                    raise ConfigError(f"config field 'system.points[{i}]' must be "
                                      f"a [t, omega] pair, got {point!r}")
            law = TabulatedOmega(*zip(*([_typed(v, f"system.points[{i}]", float) for v in p]
                                        for i, p in enumerate(points))))
        else:
            raise ConfigError(f"unknown system.type {kind!r}")
    except ValidationError as exc:
        raise ConfigError(f"invalid 'system': {exc}") from exc
    return SystemSpec(constants, law)


def _table_for_run(law, t_end, step):
    """The tabulated law a run to t_end reads.  ConfigError unless its
    points cover [0, t_end]; the last w is held for one sample step past
    t_end, up to where the run's time grid may round."""
    if law.times[0] > 0.0 or law.times[-1] < t_end:
        raise ConfigError(
            f"'system.points' must cover [0, t_end] = [0, {t_end!r}]; "
            f"they span [{law.times[0]!r}, {law.times[-1]!r}]")
    if law.times[-1] >= t_end + step:
        return law
    return TabulatedOmega(law.times + (t_end + step,), law.omegas + law.omegas[-1:])


# the least step of a grid or a Wigner window, in spacings of doubles at its
# centre: rounding its points to doubles then moves each by under 1e-6 of a step
WINDOW_STEP_ULPS = 1e6


def _require_resolvable(what, width, n, centre, error):
    """`error` naming `what` unless n points spread over `width` around
    `centre` are WINDOW_STEP_ULPS spacings of doubles apart, width finite."""
    ulp = float(np.spacing(abs(centre)))
    if not (math.isfinite(width) and width / (n - 1) >= WINDOW_STEP_ULPS * ulp):
        raise error(f"{what} is {width!r} wide around x={centre!r}, where doubles are "
                    f"{ulp!r} apart; its {n} points need a finite width of at least "
                    f"{WINDOW_STEP_ULPS * ulp * (n - 1)!r}")


def _require_within_budget(config):
    """ConfigError naming what of the run is over its step or memory budget."""
    steps, tasks, n = config.t_end / config.dt, config.tasks, config.n_points
    if steps > STEP_BUDGET:
        raise ConfigError(f"'time.t_end' / 'time.dt' = {steps!r} steps, over {STEP_BUDGET}")
    if "oracle_compare" in tasks and round(steps) * n > POINT_STEP_BUDGET:
        raise ConfigError(f"oracle_compare: {round(steps)} steps on {n} grid points, over "
                          f"{POINT_STEP_BUDGET} point-steps")
    samples = round(config.t_end / (config.dt * config.sample_every)) + 1
    nx, n_p = config.ps_nx, config.ps_np
    parts = {f"{samples} samples": SAMPLE_BYTES * samples, "solve_lambda": SOLVE_BLOCK_BYTES,
             f"'grid.n_points' = {n}": GRID_POINT_BYTES * n
             * ("kernel_check" in tasks or "oracle_compare" in tasks),
             f"'phase_space_grid' {nx} x {n_p}":
             wigner_working_set(nx, n_p) * ("wigner" in tasks)}
    if sum(parts.values()) > MEMORY_BUDGET:
        raise ConfigError(f"{sum(parts.values())} bytes, over the working-set budget of "
                          f"{MEMORY_BUDGET}: " + ", ".join(
                              f"{size} for {what}" for what, size in parts.items() if size))


def parse_config(data, name="") -> ScenarioConfig:
    """Validate a config dict; ConfigError messages name the offending field."""
    if not isinstance(data, dict):
        raise ConfigError("config root must be a JSON object")
    try:
        constants = Constants(_get(data, "constants.hbar", float, 1.0),
                              _get(data, "constants.mass", float, 1.0))
        packet = InitialPacket(_get(data, "packet.x0", float),
                               _get(data, "packet.p0", float),
                               _get(data, "packet.alpha0", float))
    except ValidationError as exc:
        raise ConfigError(str(exc)) from exc
    system = _parse_system(data, constants)

    t_end = _get(data, "time.t_end", float)
    dt = _get(data, "time.dt", float)
    sample_every = _get(data, "time.sample_every", int, 1)
    if t_end <= 0.0:
        raise ConfigError("'time.t_end' must be > 0")
    if dt <= 0.0:
        raise ConfigError("'time.dt' must be > 0")
    if sample_every < 1:
        raise ConfigError("'time.sample_every' must be >= 1")
    intervals = t_end / (dt * sample_every)
    if not 0.5 < intervals < math.inf or abs(intervals - round(intervals)) > 1e-9:
        raise ConfigError(
            "'time.t_end' must be a positive integer multiple of dt*sample_every")
    if isinstance(system.frequency_law, TabulatedOmega):
        system = SystemSpec(constants, _table_for_run(
            system.frequency_law, t_end, dt * sample_every))

    x_min = _get(data, "grid.x_min", float)
    x_max = _get(data, "grid.x_max", float)
    n_points = _get(data, "grid.n_points", int)
    if x_max <= x_min:
        raise ConfigError("'grid.x_max' must exceed 'grid.x_min'")
    if n_points < 64 or n_points & (n_points - 1):
        raise ConfigError("'grid.n_points' must be a power of two >= 64")
    _require_resolvable(f"'grid' from {x_min!r} to {x_max!r}", x_max - x_min, n_points,
                        0.5 * x_min + 0.5 * x_max, ConfigError)

    ps_nx = _get(data, "phase_space_grid.nx", int, 256)
    ps_np = _get(data, "phase_space_grid.np", int, 257)
    span = _get(data, "phase_space_grid.span_sigmas", float, 8.0)
    if ps_nx < 16 or ps_np < 16 or span <= 0.0:
        raise ConfigError("'phase_space_grid' must have nx, np >= 16 and span > 0")

    tasks = _get(data, "tasks", list)
    if not tasks:
        raise ConfigError("'tasks' must not be empty")
    for t in tasks:
        if t not in TASKS:
            raise ConfigError(f"unknown task {t!r}; valid tasks: {', '.join(TASKS)}")

    output_dir = _get(data, "output_dir", str, "out")
    config = ScenarioConfig(
        system=system, packet=packet,
        t_end=t_end, dt=dt, sample_every=sample_every,
        x_min=x_min, x_max=x_max, n_points=n_points,
        ps_nx=ps_nx, ps_np=ps_np, ps_span_sigmas=span,
        tasks=tuple(tasks), output_dir=output_dir, name=name,
    )
    _require_within_budget(config)
    return config


def load_config(source) -> ScenarioConfig:
    """Load a config from a built-in scenario name or a JSON file path."""
    if source in BUILTIN_SCENARIOS:
        return parse_config(BUILTIN_SCENARIOS[source], name=source)
    path = Path(source)
    if not path.exists():
        raise ConfigError(
            f"{source!r} is neither a built-in scenario nor an existing file; "
            f"built-ins: {', '.join(sorted(BUILTIN_SCENARIOS))}")
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:   # ValueError: not UTF-8, or not JSON
        raise ConfigError(f"{path}: {exc}") from exc
    return parse_config(data, name=path.stem)


# ---------------------------------------------------------------------------
# Pipelines
# ---------------------------------------------------------------------------

def _check(value, tolerance):
    """One report check entry; the key order is part of report.json."""
    return {"value": value, "tolerance": tolerance, "pass": bool(value <= tolerance)}


def _checks(values):
    """A check entry per value, against the TOLERANCES entry of its name."""
    return {name: _check(value, TOLERANCES[name]) for name, value in values.items()}


def _step_doubling_error(config, traj):
    """max|F_c - F_f| / (((n_f/n_c)^4 - 1) * max|F_f|), Richardson's estimate
    of RK4's error in the fundamental matrix F at the first sample reached
    in n_f >= 2 steps, from a second solve there in n_c = ceil(n_f/2) steps
    of 2*dt (README); 0.0 for one step; DivergenceError if not finite."""
    j = -(-2 // config.sample_every)
    if j >= len(traj):
        return 0.0
    n_f, t = j * config.sample_every, float(traj.times[j])
    try:
        coarse = solve_lambda(config.system, config.packet, (0.0, t), dt=2 * config.dt).states[-1]
    except DivergenceError:
        coarse = np.full(7, math.inf)
    a0 = config.packet.alpha0
    f_fine, f_coarse = ((u / a0, a0 * z, ud / a0, a0 * zd) for u, ud, z, zd, *_ in (
        traj.states[j].tolist(), coarse.tolist()))
    change = max(abs(c - f) for c, f in zip(f_coarse, f_fine))
    error = change / (((n_f / -(-n_f // 2)) ** 4 - 1.0) * max(map(abs, f_fine)))
    if not math.isfinite(error):
        raise DivergenceError(t, f"non-finite step_doubling_error at t={t!r}")
    return error


def _invariants_stage(config, traj, columns):
    """The drift of det M and the step-doubling error of the solve."""
    drift = float(np.abs(columns["det_M"] - 1.0).max())
    error = _step_doubling_error(config, traj)
    return {"checks": _checks({"det_M_drift": drift, "step_doubling_error": error})}


def _wide_points(nx):
    """Points of psi's grid for an nx-column Wigner window: 1.5x as many, so
    the offset integral is not truncated inside the window, and odd, so the
    mean is on the grid."""
    return 2 * math.ceil(0.75 * nx) + 1


def wigner_working_set(nx, n_p):
    """Bytes the Wigner stage holds at most: one entry's nx x n_p window, 8
    bytes per cell, since each is written before the next transform, and
    one transform's blocks or the .dat writer's."""
    return 8 * nx * n_p + WIGNER_BLOCK_BYTES * (_wide_points(nx) + n_p)


def wigner_window(traj, idx, constants, sx, sp, nx, n_p, span):
    """The Wigner transform's input at sample idx of spreads sx, sp: psi on
    a grid 1.5x as wide as the nx-column window of +-span sx, the p grid of
    n_p momenta over +-span sp, and the window's columns (start, nx) of
    psi's grid."""
    state = traj[idx]
    mean_x, mean_p = state.eta, constants.mass * state.eta_dot
    n_wide = _wide_points(nx)
    width = 3.0 * span * sx
    _require_resolvable(f"phase_space_grid: the Wigner window at t={state.t!r}",
                        width, n_wide, mean_x, CapabilityError)
    x_wide = np.linspace(mean_x - 0.5 * width, mean_x + 0.5 * width, n_wide)
    psi = evaluate_wavefunction(propagate_analytic(traj, idx), x_wide)
    p_grid = (mean_p - span * sp, 2.0 * span * sp / (n_p - 1), n_p)
    return psi, p_grid, ((n_wide - nx) // 2, nx)


def _wigner_entry(traj, idx, inputs, constants, write_window):
    """The entry of sample idx from its wigner_window inputs: its "grid"
    and "t" are handed to write_window with the rest, and only the rest is
    returned, so the grid is dropped with this call's locals."""
    psi, p_grid, window = inputs
    grid, marginal = wigner_numeric(psi, p_grid, constants, window)
    start, count = window
    marginal_err = float(np.max(np.abs(marginal - np.abs(psi.values[start:start + count]) ** 2)))
    entry = {
        "index": idx,
        "t": traj[idx].t,       # for the .dat header; samples[index].t in the report
        "grid": grid,
        "peak": float(grid.values.max()),
        "min": float(grid.values.min()),
        "integral": float(np.trapezoid(marginal, dx=psi.dx)),
        "marginal_x_max_err": marginal_err,
        "warnings": list(grid.warnings),
    }
    write_window(entry)
    return {k: v for k, v in entry.items() if k not in ("grid", "t")}


def _wigner_stage(config, traj, columns, write_window):
    """One entry per end sample; its integral and marginal error cover the
    written window.  Both entries' inputs are built first, so a window
    doubles cannot resolve refuses the run before any window is written;
    then each entry's window goes to write_window before the next
    transform, and one window is alive at a time."""
    c = config.system.constants
    ends = (0, len(traj) - 1)
    inputs = [wigner_window(traj, idx, c, math.sqrt(columns["var_x"][idx]),
                            math.sqrt(columns["var_p"][idx]),
                            config.ps_nx, config.ps_np, config.ps_span_sigmas)
              for idx in ends]
    return [_wigner_entry(traj, idx, entry_inputs, c, write_window)
            for idx, entry_inputs in zip(ends, inputs)]


def _kernel_check_stage(config, traj, columns):
    """The run's kernel at the last sample applied to the packet at t = 0 by
    quadrature, and its adjoint applied back."""
    c = config.system.constants
    matrix = matrix_from_state(traj[-1], config.packet.alpha0)
    x = config.x_grid()
    psi0 = evaluate_wavefunction(propagate_analytic(traj, 0), x)
    psi_t = evaluate_wavefunction(propagate_analytic(traj, len(traj) - 1), x)
    caustics = math.floor(traj[-1].phi / math.pi)
    forward = apply_kernel(kernel_td(matrix, c, caustics=caustics), psi0, x)
    back = apply_kernel(kernel_td(matrix, c, inverse=True, caustics=caustics), forward, x)

    def l2(a, b):
        return math.sqrt(float(np.trapezoid(np.abs(a.values - b.values) ** 2, dx=b.dx)))
    # the round trip is exact for any adjoint pair: only vs_analytic,
    # unaligned, sees a wrong formula, matrix_from_state or branch
    roundtrip, vs_analytic = l2(back, psi0), l2(forward, psi_t)
    return {
        "td_unitarity_defect": abs(forward.norm() - psi0.norm()),
        "warnings": list(back.warnings + psi_t.warnings),
        "checks": _checks({"kernel_roundtrip_l2": roundtrip,
                           "kernel_vs_analytic_l2": vs_analytic}),
    }


def _oracle_stage(config, traj, columns):
    c = config.system.constants
    x = config.x_grid()
    psi0 = evaluate_wavefunction(propagate_analytic(traj, 0), x)
    n_steps = round(config.t_end / config.dt)
    # the packet sampled on the configured grid, and the reference sampled
    # at t_end, are results too: on a grid that cuts their tails their norm
    # is off, which their coverage warnings and oracle_norm_defect report
    evolved = split_step(GridState(psi0, 0.0, check_norm=False),
                         config.system, config.dt, n_steps).grid
    analytic = evaluate_wavefunction(propagate_analytic(traj, len(traj) - 1), x)
    l2, aligned, moment_errors = compare_states(evolved, analytic, c.hbar)
    norm = evolved.norm()
    return {
        "phase_aligned_l2_error": aligned,
        "moment_errors": dict(zip(("mean_x", "mean_p", "var_x", "var_p", "corr"),
                                  moment_errors)),
        "norm": norm,
        "warnings": list(evolved.warnings + analytic.warnings),
        "checks": _checks({"oracle_vs_analytic_l2": l2,
                           "oracle_norm_defect": abs(norm - 1.0)}),
    }


# the stages a run may add, in report order: each returns its report section
STAGES = {
    "invariants": _invariants_stage,
    "wigner": _wigner_stage,
    "kernel_check": _kernel_check_stage,
    "oracle_compare": _oracle_stage,
}

# every run integrates and writes trajectory.csv, so "evolve" adds nothing;
# it stays a valid task so that configs which list it still parse
TASKS = ("evolve", *STAGES)


def run_scenario(config: ScenarioConfig, write_window=lambda entry: entry):
    """Execute the configured tasks; returns (report_dict, windows).

    report["samples"] maps each record field to its column over the sample
    times, in report order; emit_outputs writes it as one record per sample.
    Each configured stage adds its section.  `pass` is the AND of every
    check of every section, and `warned_sections` counts the sections with
    warnings, each wigner entry as one.  Each check reads its entry of
    TOLERANCES at call time.

    The wigner stage runs last, so that a refusal of another stage writes
    no window, and hands each entry, its "grid" (the window's
    PhaseSpaceGrid) and "index" and "t" included, to write_window as soon
    as it is complete; report["wigner"] keeps it without grid and t.
    windows lists write_window's return values: by default the entries.
    """
    traj = solve_lambda(config.system, config.packet, config.sample_times(), dt=config.dt)
    columns = record_columns(traj)
    windows = []
    stages = STAGES | {"wigner": functools.partial(
        STAGES["wigner"], write_window=lambda entry: windows.append(write_window(entry)))}
    # wigner runs last; the report keeps the order of STAGES
    done = {task: stages[task](config, traj, columns)
            for task in sorted(stages, key="wigner".__eq__) if task in config.tasks}

    report = {
        "scenario": config.name,
        "time": {"t_end": config.t_end, "dt": config.dt,
                 "sample_every": config.sample_every},
        "tasks": list(config.tasks),
        "samples": columns,
    }
    sections = []
    for task in stages:
        if task in done:
            report[task] = done[task]
            sections += report[task] if isinstance(report[task], list) else [report[task]]
    report["pass"] = all(entry["pass"] for section in sections
                         for entry in section.get("checks", {}).values())
    report["warned_sections"] = sum(1 for section in sections if section.get("warnings"))
    return report, windows


# ---------------------------------------------------------------------------
# Output files
# ---------------------------------------------------------------------------

CSV_FIELDS = ("t", "eta", "eta_dot", "alpha", "alpha_dot", "phi", "var_x",
              "var_p", "corr", "det_M", "I_L", "p_phi", "E_cl", "E_tilde")
CSV_HEADER = ",".join(CSV_FIELDS)


def write_dat(entry, output_dir):
    """Write the window of a wigner entry to wigner_t<index>.dat in
    output_dir, made if missing; returns its path."""
    out = Path(output_dir)
    out.mkdir(parents=True, exist_ok=True)
    grid = entry["grid"]
    path = out / f"wigner_t{entry['index']}.dat"
    with open(path, "wb") as fh:
        fh.write(f"# wavepacket Wigner function samples\n# t = {entry['t']!r}\n"
                 f"# x_min = {grid.x_min!r}  dx = {grid.dx!r}  nx = {grid.n_x}\n"
                 f"# p_min = {grid.p_min!r}  dp = {grid.dp!r}  np = {grid.n_p}\n"
                 "# rows: p index, columns: x index\n".encode())
        write_rows(fh, grid.values)
    return path


def emit_outputs(report, dat_paths, output_dir):
    """Write trajectory.csv and report.json; returns their paths with the
    already written dat_paths between them.

    Every sample value is turned into its repr once, for both files.
    """
    out = Path(output_dir)
    out.mkdir(parents=True, exist_ok=True)
    reprs = {name: list(map(float.__repr__, column.tolist()))
             for name, column in report["samples"].items()}

    csv_path = out / "trajectory.csv"
    with open(csv_path, "w", newline="\n") as fh:
        write_records(fh, CSV_HEADER, [reprs[name] for name in CSV_FIELDS])

    path = out / "report.json"
    with open(path, "w", newline="\n") as fh:
        write_report(fh, report, reprs)
    return [csv_path, *dat_paths, path]


def write_run(config, output_dir):
    """Run config as `wavepacket run` does: each Wigner window is written
    to output_dir as soon as it is computed, then trajectory.csv and
    report.json.  Returns (report, the written paths).  Nothing is
    written, nor output_dir made, before the first window, or before the
    end of a run without wigner."""
    report, dat_paths = run_scenario(config, functools.partial(write_dat, output_dir=output_dir))
    return report, emit_outputs(report, dat_paths, output_dir)


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

@functools.cache
def _build_parser():
    """The argument parser, built once per process: parse_args leaves it
    unchanged, so every main() call parses as a fresh one would."""
    parser = argparse.ArgumentParser(
        prog="wavepacket",
        description="Gaussian wave-packet dynamics scenario runner.",
        epilog="Exit codes: 0 success, 2 config error, 3 numerical divergence, "
               "4 capability error, 5 I/O error.",
    )
    sub = parser.add_subparsers(dest="command")
    sub.required = True

    run = sub.add_parser("run", help="run a scenario config (file or built-in name)")
    run.add_argument("config", help="path to a JSON config, or a built-in scenario name")
    run.add_argument("--output-dir", default=None,
                     help="override the config's output directory")

    sub.add_parser("list-scenarios", help="list built-in scenarios")

    describe = sub.add_parser("describe", help="print a built-in scenario config")
    describe.add_argument("scenario")
    return parser


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "list-scenarios":
            for name in sorted(BUILTIN_SCENARIOS):
                print(name)
            return 0
        if args.command == "describe":
            if args.scenario not in BUILTIN_SCENARIOS:
                raise ConfigError(
                    f"unknown scenario {args.scenario!r}; "
                    f"built-ins: {', '.join(sorted(BUILTIN_SCENARIOS))}")
            print(json.dumps(BUILTIN_SCENARIOS[args.scenario], indent=2))
            return 0

        config = load_config(args.config)
        out_dir = args.output_dir or config.output_dir
        try:
            report, written = write_run(config, out_dir)
        except OSError as exc:
            print(f"error: I/O failure at {getattr(exc, 'filename', out_dir)}: {exc}",
                  file=sys.stderr)
            return 5
        for path in written:
            print(path)
        print(f"pass: {report['pass']}")
        return 0
    except ConfigError as exc:
        print(f"error: config: {exc}", file=sys.stderr)
        return 2
    except DivergenceError as exc:
        print(f"error: numerical divergence: {exc}", file=sys.stderr)
        return 3
    except CapabilityError as exc:
        print(f"error: capability: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
