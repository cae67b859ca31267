"""Scenario runner: JSON config in, plot-ready data files and an invariant
report out.

Commands:
    run <config>         config is a JSON file path or a built-in scenario name
    list-scenarios       names of the embedded scenarios
    describe <scenario>  print an embedded scenario config as JSON

Exit codes: 0 success, 2 config error, 3 numerical divergence,
4 capability/delta-limit error, 5 I/O error.  A report whose checks fail
its tolerances still exits 0; pass/fail lives in report.json.

Outputs (all LF line endings; repr, the shortest round-tripping form, for
every number except the .dat values):
    trajectory.csv   one row per sample, written by every run, header
                     t,eta,eta_dot,alpha,alpha_dot,phi,var_x,var_p,corr,det_M,I_L,p_phi,E_cl,E_tilde
    wigner_t<id>.dat matrix (rows = p index, columns = x index) preceded by
                     '#' metadata lines; each value as '%.17e' (18 significant
                     digits, exponent e+XX or e+XXX), one space between values
    report.json      invariant report with per-sample records, summaries and
                     pass/fail against the configured tolerances; each
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
                   RampOmega, SystemSpec, TabulatedOmega, TransformMatrix,
                   is_free_motion)
from .errors import (CapabilityError, ConfigError, DivergenceError,
                     ResolutionError, ValidationError)
from .evolution import solve_lambda
from .invariants import (euler_lagrange_residuals, frozen_width_matrix,
                         matrix_from_state, record_columns, require_finite)
from .kernels import (apply_kernel, kernel_td, phase_aligned_l2,
                      satisfies_kernel_odes)
from .oracle import GridState, compare_states, split_step
from .packet import evaluate_wavefunction, moments_from_lambda, propagate_analytic
from .rowformat import write_records, write_report, write_rows
from .wigner import wigner_numeric

# every run integrates and writes trajectory.csv, so "evolve" adds nothing;
# it stays a valid task so that configs which list it still parse
TASKS = ("evolve", "wigner", "kernel_check", "invariants", "oracle_compare")

TOLERANCE_PROFILES = {
    "default": {
        "det_drift": 1e-9,
        "ermakov_rel_drift": 1e-8,
        "p_phi_abs_dev": 1e-10,
        "iup_abs_dev": 1e-10,
        "el_residual_factor": 10.0,  # times dt^2
        "oracle_aligned_l2": 1e-5,
        "kernel_ode_residual": 1e-5,
        "kernel_roundtrip_l2": 1e-5,
        "kernel_vs_analytic_l2": 1e-5,
    },
    "strict": {
        "det_drift": 1e-10,
        "ermakov_rel_drift": 1e-9,
        "p_phi_abs_dev": 1e-11,
        "iup_abs_dev": 1e-11,
        "el_residual_factor": 5.0,
        "oracle_aligned_l2": 1e-6,
        "kernel_ode_residual": 1e-6,
        "kernel_roundtrip_l2": 1e-6,
        "kernel_vs_analytic_l2": 1e-6,
    },
}

# fixed enumeration for the kernel defining-equation sweep: 20 symplectic
# parameter sets with |b| >= 0.2, c solved from the unit determinant
KERNEL_CHECK_LATTICE = tuple(
    TransformMatrix(a, b, (a * 0.8 - 1.0) / b, 0.8)
    for a in (-1.5, -0.5, 0.0, 0.5, 1.5)
    for b in (0.2, 0.7, 1.3, 2.5)
)


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
    constants: Constants
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

    @property
    def sample_step(self):
        return self.dt * self.sample_every

    def sample_times(self):
        # k * step for each k, to the bit
        return np.arange(round(self.t_end / self.sample_step) + 1) * self.sample_step

    def x_grid(self):
        return np.linspace(self.x_min, self.x_max, self.n_points)


def _get(data, path, expected, default=None, required=True):
    node = data
    seen = []
    for key in path.split("."):
        seen.append(key)
        if not isinstance(node, dict) or key not in node:
            if required and default is None:
                raise ConfigError(f"missing config field '{'.'.join(seen)}'")
            return default
        node = node[key]
    if expected is float and isinstance(node, int) and not isinstance(node, bool):
        node = float(node)
    if not isinstance(node, expected) or isinstance(node, bool):
        raise ConfigError(
            f"config field '{path}' must be {expected.__name__}, got {node!r}"
        )
    if expected is float and not math.isfinite(node):
        raise ConfigError(f"config field '{path}' must be finite, got {node!r}")
    return node


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
            law = TabulatedOmega(tuple(p[0] for p in points),
                                 tuple(p[1] for p in points))
        else:
            raise ConfigError(f"unknown system.type {kind!r}")
    except ValidationError as exc:
        raise ConfigError(f"invalid 'system': {exc}") from exc
    except (TypeError, IndexError) as exc:
        raise ConfigError(f"malformed 'system.points': {exc}") from exc
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


def parse_config(data, name="") -> ScenarioConfig:
    """Validate a config dict; ConfigError messages name the offending field."""
    if not isinstance(data, dict):
        raise ConfigError("config root must be a JSON object")
    try:
        constants = Constants(_get(data, "constants.hbar", float, 1.0, required=False),
                              _get(data, "constants.mass", float, 1.0, required=False))
        packet = InitialPacket(_get(data, "packet.x0", float),
                               _get(data, "packet.p0", float),
                               _get(data, "packet.alpha0", float))
    except ValidationError as exc:
        raise ConfigError(str(exc)) from exc
    system = _parse_system(data, constants)

    t_end = _get(data, "time.t_end", float)
    dt = _get(data, "time.dt", float)
    sample_every = _get(data, "time.sample_every", int, 1, required=False)
    if t_end <= 0.0:
        raise ConfigError("'time.t_end' must be > 0")
    if dt <= 0.0:
        raise ConfigError("'time.dt' must be > 0")
    if sample_every < 1:
        raise ConfigError("'time.sample_every' must be >= 1")
    n_samples = t_end / (dt * sample_every)
    if abs(n_samples - round(n_samples)) > 1e-9:
        raise ConfigError(
            "'time.t_end' must be an integer multiple of dt*sample_every")
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

    ps_nx = _get(data, "phase_space_grid.nx", int, 256, required=False)
    ps_np = _get(data, "phase_space_grid.np", int, 257, required=False)
    span = _get(data, "phase_space_grid.span_sigmas", float, 8.0, required=False)
    if ps_nx < 16 or ps_np < 16 or span <= 0.0:
        raise ConfigError("'phase_space_grid' must have nx, np >= 16 and span > 0")

    tasks = _get(data, "tasks", list)
    if not tasks:
        raise ConfigError("'tasks' must not be empty")
    for t in tasks:
        if t not in TASKS:
            raise ConfigError(f"unknown task {t!r}; valid tasks: {', '.join(TASKS)}")

    output_dir = _get(data, "output_dir", str, "out", required=False)
    return ScenarioConfig(
        constants=constants, system=system, packet=packet,
        t_end=t_end, dt=dt, sample_every=sample_every,
        x_min=x_min, x_max=x_max, n_points=n_points,
        ps_nx=ps_nx, ps_np=ps_np, ps_span_sigmas=span,
        tasks=tuple(tasks), output_dir=output_dir, name=name,
    )


def load_config(source) -> ScenarioConfig:
    """Load a config from a built-in scenario name or a JSON file path."""
    if source in BUILTIN_SCENARIOS:
        return parse_config(BUILTIN_SCENARIOS[source], name=source)
    path = Path(source)
    if not path.exists():
        raise ConfigError(
            f"{source!r} is neither a built-in scenario nor an existing file; "
            f"built-ins: {', '.join(sorted(BUILTIN_SCENARIOS))}"
        )
    try:
        data = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: line {exc.lineno}: {exc.msg}") from exc
    return parse_config(data, name=path.stem)


# ---------------------------------------------------------------------------
# Pipelines
# ---------------------------------------------------------------------------

def _check(value, tolerance):
    """One report check entry; the key order is part of report.json."""
    return {"value": value, "tolerance": tolerance, "pass": bool(value <= tolerance)}


def _invariant_summary(config, maxima, steps, tol):
    res_phi, res_alpha = euler_lagrange_residuals(steps)
    el_phi = float(res_phi.max(initial=0.0))
    el_alpha = float(res_alpha.max(initial=0.0))

    el_tol = tol["el_residual_factor"] * config.dt * config.dt
    checks = {
        "ermakov_residual_max": _check(maxima["ermakov_residual_max"], 1e-9),
        "det_M_drift": _check(maxima["det_M_drift"], tol["det_drift"]),
        "ermakov_rel_drift": _check(maxima["ermakov_rel_drift"], tol["ermakov_rel_drift"]),
        "p_phi_abs_dev": _check(maxima["p_phi_abs_dev"], tol["p_phi_abs_dev"]),
        "iup_abs_dev": _check(maxima["iup_abs_dev"], tol["iup_abs_dev"]),
        "euler_lagrange_phi": _check(el_phi, el_tol),
        "euler_lagrange_alpha": _check(el_alpha, el_tol),
        "uncertainty_hamiltonian_vs_energy": _check(
            maxima["uncertainty_hamiltonian_vs_energy"], 1e-10),
    }
    if "det_vs_ermakov_identity" in maxima:
        checks["det_vs_ermakov_identity"] = _check(maxima["det_vs_ermakov_identity"], 1e-9)
    return checks


def _frozen_width_block(config, times):
    alpha0 = config.packet.alpha0
    with np.errstate(all="ignore"):
        det = frozen_width_matrix(config.system, alpha0, times).det
        closed = 1.0 + np.float_power(times / alpha0 ** 2, 2)
        err = np.abs(det - closed)
    require_finite(times, {"frozen_width det": det, "frozen_width closed form": closed})
    return {
        "non_canonical": True,
        "note": "width frozen at alpha0; det = 1 + (t/alpha0^2)^2, not 1",
        "samples": [{"t": t, "det": d} for t, d in zip(times.tolist(), det.tolist())],
        "closed_form_max_abs_err": float(err.max()),
    }


# the least step of a Wigner window, in spacings of doubles at its centre:
# rounding its points to doubles then moves each by under 1e-6 of a step
WINDOW_STEP_ULPS = 1e6


def _require_resolvable_window(width, n, centre, t):
    """ResolutionError unless n points spread over `width` around `centre`
    are WINDOW_STEP_ULPS spacings of doubles apart."""
    ulp = float(np.spacing(abs(centre)))
    if not width / (n - 1) >= WINDOW_STEP_ULPS * ulp:   # also for width = inf
        raise ResolutionError(
            f"phase_space_grid: the Wigner window at t={t!r} is {width!r} wide "
            f"around x={centre!r}, where doubles are {ulp!r} apart; its {n} points "
            f"need a width of at least {WINDOW_STEP_ULPS * ulp * (n - 1)!r}")


def _wigner_task(config, traj, indices):
    c = config.constants
    outputs = []
    span = config.ps_span_sigmas
    for idx in indices:
        state = traj[idx]
        moments = moments_from_lambda(state, c)
        sx = math.sqrt(moments.var_x)
        sp = math.sqrt(moments.var_p)
        mean_x, mean_p = state.eta, c.mass * state.eta_dot

        # wavefunction sampled 1.5x wider than the requested window so the
        # offset integral is not truncated inside it; odd point count keeps
        # the mean on the grid
        n_wide = 2 * math.ceil(0.75 * config.ps_nx) + 1
        width = 3.0 * span * sx
        _require_resolvable_window(width, n_wide, mean_x, state.t)
        x_wide = np.linspace(mean_x - 0.5 * width, mean_x + 0.5 * width, n_wide)
        psi = evaluate_wavefunction(propagate_analytic(traj, idx), x_wide)

        n_p = config.ps_np
        p_lo = mean_p - span * sp
        dp = 2.0 * span * sp / (n_p - 1)
        full = wigner_numeric(psi, (p_lo, dp, n_p), c)
        start = (n_wide - config.ps_nx) // 2
        grid = full.column_window(start, config.ps_nx)

        marginal_err = float(np.max(np.abs(
            grid.marginal_x()
            - np.abs(psi.values[start:start + config.ps_nx]) ** 2)))
        outputs.append({
            "index": idx,
            "t": state.t,
            "grid": grid,
            "peak": float(grid.values.max()),
            "min": float(grid.values.min()),
            "integral": full.integral(),
            "marginal_x_max_err": marginal_err,
            "warnings": list(grid.warnings),
        })
    return outputs


def _kernel_check_task(config, traj, tol):
    c = config.constants
    worst = 0.0
    for matrix in KERNEL_CHECK_LATTICE:
        matrix.require_symplectic(1e-12)
        r1, r2 = satisfies_kernel_odes(matrix, c)
        worst = max(worst, r1, r2)

    state = traj[-1]
    x = config.x_grid()
    psi0 = evaluate_wavefunction(propagate_analytic(traj, 0), x)
    psi_t = evaluate_wavefunction(propagate_analytic(traj, len(traj) - 1), x)
    matrix = matrix_from_state(state, config.packet.alpha0)
    forward = apply_kernel(kernel_td(matrix, c), psi0, x)
    back = apply_kernel(kernel_td(matrix, c, inverse=True), forward, x)
    roundtrip = math.sqrt(float(np.trapezoid(
        np.abs(back.values - psi0.values) ** 2, dx=psi0.dx)))
    unitarity = abs(forward.norm() - psi0.norm())
    # the round trip is exact for any adjoint pair, so only this sees a
    # forward kernel that propagates to the wrong packet
    vs_analytic = phase_aligned_l2(forward, psi_t)

    return {
        "ti_lattice_size": len(KERNEL_CHECK_LATTICE),
        "ti_ode_max_residual": worst,
        "td_roundtrip_l2": roundtrip,
        "td_unitarity_defect": unitarity,
        "kernel_vs_analytic_l2": vs_analytic,
        "warnings": list(back.warnings + psi_t.warnings),
        "checks": {
            "kernel_ode_residual": _check(worst, tol["kernel_ode_residual"]),
            "kernel_roundtrip_l2": _check(roundtrip, tol["kernel_roundtrip_l2"]),
            "kernel_vs_analytic_l2": _check(vs_analytic, tol["kernel_vs_analytic_l2"]),
        },
    }


def _oracle_task(config, traj, tol):
    c = config.constants
    x = config.x_grid()
    psi0 = evaluate_wavefunction(propagate_analytic(traj, 0), x)
    steps = round(config.t_end / config.dt)
    # the packet sampled on the configured grid, and the reference sampled
    # at t_end, are results too: on a grid that cuts their tails their norm
    # is off, which their coverage warnings and oracle_norm_defect report
    evolved = split_step(GridState(psi0, 0.0, check_norm=False),
                         config.system, config.dt, steps)
    analytic = GridState(evaluate_wavefunction(
        propagate_analytic(traj, len(traj) - 1), x), config.t_end, check_norm=False)
    l2, aligned, moment_errors = compare_states(evolved, analytic, hbar=c.hbar)
    norm = evolved.grid.norm()
    return {
        "t": config.t_end,
        "steps": steps,
        "l2_error": l2,
        "phase_aligned_l2_error": aligned,
        "moment_errors": {
            "mean_x": moment_errors[0], "mean_p": moment_errors[1],
            "var_x": moment_errors[2], "var_p": moment_errors[3],
            "corr": moment_errors[4],
        },
        "norm": norm,
        "warnings": list(evolved.grid.warnings + analytic.grid.warnings),
        "checks": {
            "oracle_aligned_l2": _check(aligned, tol["oracle_aligned_l2"]),
            # the input tolerance of GridState, applied to the result
            "oracle_norm_defect": _check(abs(norm - 1.0), 1e-8),
        },
    }


def run_scenario(config: ScenarioConfig, output_dir=None,
                 tolerance_profile="default"):
    """Execute the configured tasks; returns (report_dict, wigner_grids).

    report["samples"] maps each record field to its column over the sample
    times, in report order; emit_outputs writes it as one record per sample.
    """
    if tolerance_profile not in TOLERANCE_PROFILES:
        raise ConfigError(f"unknown tolerance profile {tolerance_profile!r}")
    tol = TOLERANCE_PROFILES[tolerance_profile]

    invariants = "invariants" in config.tasks
    # the Euler-Lagrange residuals are O(h^2) finite-difference diagnostics,
    # so they read the integrator's own steps over the first min(t_end, 2)
    el_steps = round(min(config.t_end, 2.0) / config.dt) if invariants else 0
    traj, steps = solve_lambda(config.system, config.packet, config.sample_times(),
                               dt=config.dt, keep_steps=el_steps)
    columns, maxima = record_columns(traj, summary=invariants)

    report = {
        "scenario": config.name,
        "tolerance_profile": tolerance_profile,
        "time": {"t_end": config.t_end, "dt": config.dt,
                 "sample_every": config.sample_every},
        "tasks": list(config.tasks),
        "samples": columns,
    }
    wigner_grids = []

    if invariants:
        checks = _invariant_summary(config, maxima, steps, tol)
        report["invariants"] = {"checks": checks}
        if is_free_motion(config.system.frequency_law):
            report["invariants"]["frozen_width"] = _frozen_width_block(
                config, traj.times)

    if "wigner" in config.tasks:
        outputs = _wigner_task(config, traj, [0, len(traj) - 1])
        report["wigner"] = [
            {k: v for k, v in out.items() if k != "grid"} for out in outputs]
        wigner_grids = outputs

    if "kernel_check" in config.tasks:
        report["kernel_check"] = _kernel_check_task(config, traj, tol)

    if "oracle_compare" in config.tasks:
        report["oracle_compare"] = _oracle_task(config, traj, tol)

    all_checks = {}
    for section in ("invariants", "kernel_check", "oracle_compare"):
        if section in report and "checks" in report[section]:
            for name, entry in report[section]["checks"].items():
                all_checks[name] = entry["pass"]
    report["pass"] = bool(all(all_checks.values())) if all_checks else True
    sections = report.get("wigner", []) + [
        report[name] for name in ("kernel_check", "oracle_compare") if name in report]
    report["warned_sections"] = sum(1 for section in sections if section["warnings"])
    return report, wigner_grids


# ---------------------------------------------------------------------------
# Output files
# ---------------------------------------------------------------------------

CSV_HEADER = ("t,eta,eta_dot,alpha,alpha_dot,phi,var_x,var_p,corr,"
              "det_M,I_L,p_phi,E_cl,E_tilde")
CSV_FIELDS = ("t", "eta", "eta_dot", "alpha", "alpha_dot", "phi", "var_x",
              "var_p", "corr", "det_M", "I_L", "p_phi", "E_cl", "E_tilde")


def emit_outputs(report, wigner_grids, output_dir):
    """Write trajectory.csv, wigner_t<id>.dat and report.json; returns paths.

    Every sample value is turned into its repr once, for both files.
    """
    out = Path(output_dir)
    out.mkdir(parents=True, exist_ok=True)
    reprs = {name: list(map(float.__repr__, column.tolist()))
             for name, column in report["samples"].items()}

    path = out / "trajectory.csv"
    with open(path, "w", newline="\n") as fh:
        write_records(fh, CSV_HEADER, [reprs[name] for name in CSV_FIELDS])
    written = [path]

    for entry in wigner_grids:
        grid = entry["grid"]
        path = out / f"wigner_t{entry['index']}.dat"
        with open(path, "wb") as fh:
            fh.write(f"# wavepacket Wigner function samples\n# t = {entry['t']!r}\n"
                     f"# x_min = {grid.x_min!r}  dx = {grid.dx!r}  nx = {grid.n_x}\n"
                     f"# p_min = {grid.p_min!r}  dp = {grid.dp!r}  np = {grid.n_p}\n"
                     "# rows: p index, columns: x index\n".encode())
            write_rows(fh, grid.values)
        written.append(path)

    path = out / "report.json"
    with open(path, "w", newline="\n") as fh:
        write_report(fh, report, reprs)
    written.append(path)
    return written


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
               "4 capability/delta-limit error, 5 I/O error.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run a scenario config (file or built-in name)")
    run.add_argument("config", help="path to a JSON config, or a built-in scenario name")
    run.add_argument("--output-dir", default=None,
                     help="override the config's output directory")
    run.add_argument("--tolerance-profile", choices=sorted(TOLERANCE_PROFILES),
                     default="default", help="tolerance set for pass/fail checks")

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
                    f"built-ins: {', '.join(sorted(BUILTIN_SCENARIOS))}"
                )
            print(json.dumps(BUILTIN_SCENARIOS[args.scenario], indent=2))
            return 0

        config = load_config(args.config)
        report, wigner_grids = run_scenario(
            config, tolerance_profile=args.tolerance_profile)
        out_dir = args.output_dir or config.output_dir
        try:
            written = emit_outputs(report, wigner_grids, out_dir)
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
    except (CapabilityError, ResolutionError) as exc:
        print(f"error: capability: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
