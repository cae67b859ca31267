"""Seeded benchmark workloads.

Each workload is a list of (name, config) pairs.  `config` is None for a
shipped scenario, which is run by name exactly as a user would run it;
otherwise it is a config dict that the benchmark writes to a JSON file and
runs as a file.  The same seed always gives the same configs.
"""

import random

WORKLOADS = ("builtin-suite", "packet-sweep")

BUILTIN_SCENARIOS = ("free-spread", "ho-constant-width", "ho-breathing",
                     "omega-ramp", "frozen-width-demo")

SWEEP_LAWS = ("free", "constant", "ramp", "modulated", "tabulated")
SWEEP_SIZE = 24
SWEEP_T_END = 5.0         # a pass of about 3.5 s: some ten warm passes in a 48 s run
OMEGA_MAX = 2.0

_GRID = {"x_min": -15.0, "x_max": 15.0, "n_points": 1024}


def _packet(rng):
    return {"x0": rng.uniform(-1.0, 1.0), "p0": rng.uniform(0.5, 1.5),
            "alpha0": rng.uniform(0.8, 1.4)}


def _sweep_law(kind, rng):
    if kind == "free":
        return {"type": "free"}
    if kind == "constant":
        return {"type": "constant", "omega": rng.uniform(0.1, OMEGA_MAX)}
    if kind == "ramp":
        omega0 = rng.uniform(0.1, 1.0)
        slope = rng.uniform(0.0, (OMEGA_MAX - omega0) / SWEEP_T_END)
        return {"type": "ramp", "omega0": omega0, "slope": slope}
    if kind == "modulated":
        # gamma spans the 2*omega0 parametric resonance; peak omega <= OMEGA_MAX
        omega0 = rng.uniform(0.2, 1.6)
        epsilon = rng.uniform(0.05, min(0.25, OMEGA_MAX / omega0 - 1.0))
        gamma = 2.0 * omega0 * rng.uniform(0.8, 1.2)
        return {"type": "modulated", "omega0": omega0, "epsilon": epsilon,
                "gamma": gamma}
    if kind == "tabulated":
        times = [SWEEP_T_END * k / 4 for k in range(5)]
        return {"type": "tabulated",
                "points": [[t, rng.uniform(0.1, OMEGA_MAX)] for t in times]}
    raise ValueError(f"unknown law {kind!r}")


def packet_sweep(seed):
    rng = random.Random(seed)
    configs = []
    for i in range(SWEEP_SIZE):
        kind = SWEEP_LAWS[i % len(SWEEP_LAWS)]
        configs.append((f"sweep-{i:02d}-{kind}", {
            "system": _sweep_law(kind, rng),
            "packet": _packet(rng),
            "time": {"t_end": SWEEP_T_END, "dt": 0.001, "sample_every": 100},
            "grid": dict(_GRID),
            "tasks": ["evolve", "invariants"],
        }))
    return configs


def workload_configs(workload, seed):
    """The (name, config-or-None) list for a workload and seed."""
    if workload == "builtin-suite":
        return [(name, None) for name in BUILTIN_SCENARIOS]
    if workload == "packet-sweep":
        return packet_sweep(seed)
    raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
