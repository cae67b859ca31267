"""Tests for the benchmark's own arithmetic.

    python3 -m pytest -q bench
"""

import json
import statistics
import sys
from pathlib import Path

import pytest

import run
import spans
import worker
import workloads

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("n, q, rank", [
    (1, 50, 1), (2, 50, 2), (4, 50, 3),     # too few samples: the upper median
    (9, 50, 5), (19, 50, 10),
    (20, 50, 10), (40, 75, 30), (100, 90, 90), (1000, 99, 990), (1010, 99, 1000),
])
def test_tail_picks_highest_percentile_with_ten_beyond(n, q, rank):
    samples = [float(k) for k in range(n, 0, -1)]   # unsorted on purpose
    value, got_q, got_n = run.tail(samples)
    assert (got_q, got_n) == (q, n)
    assert value == float(rank)
    if n < 20:
        assert value >= statistics.median(samples)
    else:
        assert sum(s > value for s in samples) >= 10


@pytest.mark.parametrize("seconds, pass_s, count", [
    (0.0, 1.0, 0),      # no warm passes asked for
    (5.0, 6.0, 1),      # always at least one
    (5.0, 2.5, 2),      # the second ends exactly at the budget
    (5.0, 2.0, 2),      # a third would end at 6 s
])
def test_warm_passes_stop_before_overrunning(monkeypatch, seconds, pass_s, count):
    clock = [0.0]
    monkeypatch.setattr(worker.time, "perf_counter", lambda: clock[0])
    runner = worker.Runner(cli=None, jobs=[], out_dir=".")

    def fake_pass():
        clock[0] += pass_s
        return pass_s
    monkeypatch.setattr(runner, "run_pass", fake_pass)
    assert runner.passes_for(seconds) == [pass_s] * count


def span(name, start, end, parent=None):
    return (name, start, end, parent, 0, None)


def test_self_time_subtracts_children_not_grandchildren():
    trace = [
        span("cli.main", 0.0, 10.0),
        span("cli.run_scenario", 1.0, 8.0, parent=0),
        span("evolution.solve_lambda", 2.0, 5.0, parent=1),
        span("oracle.split_step", 5.5, 7.0, parent=1),
        span("cli.emit_outputs", 8.5, 9.5, parent=0),
    ]
    assert spans.self_times(trace) == pytest.approx([2.0, 2.5, 3.0, 1.5, 1.0])


def test_self_time_counts_overlapping_children_once():
    trace = [span("a", 0.0, 4.0), span("b", 1.0, 3.0, 0), span("c", 2.0, 5.0, 0)]
    assert spans.self_times(trace)[0] == pytest.approx(1.0)


def test_pass_metrics_layers_add_up_to_the_pass():
    trace = [
        span("cli.main", 0.0, 10.0),
        span("cli.run_scenario", 1.0, 8.0, parent=0),
        span("evolution.solve_lambda", 2.0, 5.0, parent=1)[:5]
        + ({"rk4_steps": 3000},),
        span("oracle.split_step", 5.5, 7.0, parent=1)[:5]
        + ({"steps": 100, "point_steps": 102400},),
        span("kernels.apply_kernel", 7.0, 7.5, parent=1)[:5] + ({"matrix_bytes": 64},),
        span("kernels.apply_kernel", 7.5, 7.6, parent=1)[:5] + ({"matrix_bytes": 32},),
    ]
    m = spans.pass_metrics(trace, pass_s=10.5)
    assert m["trace.unattributed_s"] == pytest.approx(0.5)
    shares = sum(m[f"{layer}.share"] for layer in spans.LAYERS)
    assert shares * 10.5 + m["trace.unattributed_s"] == pytest.approx(10.5)
    assert m["cli.run_scenario.self_s"] == pytest.approx(1.9)
    assert m["evolution.rk4_steps"] == 3000
    assert m["evolution.us_per_rk4_step"] == pytest.approx(1000.0)
    assert m["oracle.point_steps"] == 102400
    assert m["kernels.apply_kernel.matrix_bytes"] == 64      # the peak, not the sum
    assert m["kernels.apply_kernel.busy_s"] == pytest.approx(0.6)


@pytest.mark.parametrize("t_grid, dt", [
    ([k * 0.1 for k in range(201)], 1e-3),   # float spans: some intervals take 101 substeps
    ([0.0, 0.25, 0.3], 0.1),
    ([0.0, 1.0], 2.0),
])
def test_rk4_steps_match_solve_lambda_substeps(monkeypatch, t_grid, dt):
    sys.path.insert(0, str(ROOT / "src"))
    from wavepacket import core, evolution

    taken = []
    step = evolution._rk4_step
    monkeypatch.setattr(evolution, "_rk4_step", lambda *a: taken.append(1) or step(*a))
    evolution.solve_lambda(core.SystemSpec(), core.InitialPacket(), t_grid, dt=dt)
    assert spans.rk4_steps(t_grid, dt) == len(taken)


def test_computed_counts_from_real_calls():
    sys.path.insert(0, str(ROOT / "src"))
    import numpy as np
    from wavepacket import cli

    saved = dict(vars(cli))
    tracer = spans.Tracer()
    tracer.install(cli)
    tracer.new_pass()
    try:
        config = cli.load_config("free-spread")
        _, grids = cli.run_scenario(config)
    finally:
        vars(cli).update(saved)
    names = [s[0] for s in tracer.spans]
    assert "cli.load_config" in names and "evolution.solve_lambda" in names
    by_name = {s[0]: s[5] for s in tracer.spans if s[5]}
    n = config.n_points
    assert by_name["oracle.split_step"] == {"steps": 2000, "point_steps": 2000 * n}
    assert by_name["kernels.apply_kernel"] == {"matrix_bytes": 16 * n * n}
    assert by_name["wigner.wigner_numeric"]["cells"] == grids[0]["grid"].n_p * (
        2 * int(np.ceil(0.75 * config.ps_nx)) + 1)
    solves = [s[5]["rk4_steps"] for s in tracer.spans if s[0] == "evolution.solve_lambda"]
    assert solves == [2000, 2000]   # the trajectory and the Euler-Lagrange re-solve


def test_every_traced_pass_adds_up(tmp_path, capsys):
    sys.path.insert(0, str(ROOT / "src"))
    import time
    from wavepacket import cli

    saved = dict(vars(cli))
    tracer = spans.Tracer()
    tracer.install(cli)
    try:
        for _ in range(2):
            trace = tracer.new_pass()
            start = time.perf_counter()
            tracer.call("cli.main", cli.main, ["run", "frozen-width-demo",
                                                "--output-dir", str(tmp_path)])
            m = spans.pass_metrics(trace, time.perf_counter() - start)
            layers = sum(m[f"{layer}.share"] for layer in spans.LAYERS)
            assert 0.99 < layers <= 1.0
            assert m["evolution.solve_lambda.calls"] == 2
    finally:
        vars(cli).update(saved)


def test_import_times_attribute_self_time_by_package():
    lines = [
        "import time: self [us] | cumulative | imported package",
        "import time:      100 |        100 |   numpy.core",
        "import time:       50 |        150 | numpy",
        "import time:      300 |        300 |     scipy.linalg",
        "import time:       20 |        320 |   scipy",
        "import time:       10 |        480 | wavepacket",
        "unrelated stderr line",
    ]
    assert run.import_times(lines) == pytest.approx((480e-6, 150e-6, 320e-6))


def test_generation_is_seeded():
    assert workloads.workload_configs("packet-sweep", 7) == workloads.workload_configs("packet-sweep", 7)
    assert workloads.workload_configs("packet-sweep", 7) != workloads.workload_configs("packet-sweep", 8)


@pytest.mark.parametrize("seed", range(1, 11))
def test_every_generated_config_parses(seed):
    sys.path.insert(0, str(ROOT / "src"))
    from wavepacket import cli

    sweep = workloads.workload_configs("packet-sweep", seed)
    assert len(sweep) == workloads.SWEEP_SIZE
    assert {c["system"]["type"] for _, c in sweep} == set(workloads.SWEEP_LAWS)
    for name, config in sweep:
        parsed = cli.parse_config(json.loads(json.dumps(config)), name=name)
        assert parsed.t_end == workloads.SWEEP_T_END
        law = parsed.system.frequency_law
        assert all(0.0 <= law.omega(k * parsed.t_end / 8) <= workloads.OMEGA_MAX + 1e-12
                   for k in range(9))


def test_builtin_suite_is_the_five_shipped_scenarios():
    sys.path.insert(0, str(ROOT / "src"))
    from wavepacket import cli

    names = [name for name, config in workloads.workload_configs("builtin-suite", 1)]
    assert sorted(names) == sorted(cli.BUILTIN_SCENARIOS)


def test_benchmark_json_lists_the_metrics_run_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
