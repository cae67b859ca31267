"""A catalogue of plausible mistakes in the program, and the report checks
that catch each one.

A mutant is a source edit of one function: each (old, new) pair replaces
text that occurs exactly once in the function's source.  It is applied in
process, by compiling the edited source in the function's module and
binding the result to the function's name in every wavepacket module that
holds the original (cli imports the layer functions by name), where the
program looks it up at call time; the originals are bound again afterwards.

Each mutant runs on one of SCENARIOS, the cheapest that shows it, and
records the set of checks that fail in its report.  A mutant that no check
catches is recorded with an empty set and the reason.  tests/test_mutants.py
asserts every recorded set, in both directions, so a change that loses a
catch fails it and a change that adds one updates the record.

    python tests/mutants.py

prints the table: mutant, scenario, and each failing check with its value
and tolerance.
"""

import contextlib
import importlib
import inspect
import sys
import textwrap
from dataclasses import dataclass
from pathlib import Path

if __name__ == "__main__":      # as a script, read the package from this checkout
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from wavepacket import cli  # noqa: E402


def _scenario(builtin, **changes):
    """A built-in scenario's config with some of its sections replaced."""
    return cli.BUILTIN_SCENARIOS[builtin] | changes


# every check passes on each of these unmutated.  ho-breathing with the tasks
# the invariant checks need: 10 000 RK4 steps, with no kernel, Wigner or
# oracle work.  The kernel scenarios run at hbar, m != 1, where a wrong
# power of either shows: ho-constant-width to t = 7, past two caustics, where
# the kernel's branch is the principal one negated, and ho-breathing, whose
# alpha0 = 1.5 makes the matrix's a and d differ.  The same run past two
# caustics with the oracle instead sees the packet's global phase against
# an independent solution.  ho-breathing's Wigner grids are the cheapest
# that a built-in writes
_CAUSTICS = _scenario(
    "ho-constant-width", constants={"hbar": 0.7, "mass": 2.3},
    time=cli.BUILTIN_SCENARIOS["ho-constant-width"]["time"] | {"t_end": 7.0})
SCENARIOS = {
    "ho-breathing": _scenario("ho-breathing", tasks=["evolve", "invariants"]),
    "breathing-wigner": _scenario("ho-breathing", tasks=["evolve", "wigner"]),
    "caustics": _CAUSTICS | {"tasks": ["evolve", "invariants", "kernel_check"]},
    "caustics-oracle": _CAUSTICS | {"tasks": ["evolve", "oracle_compare"]},
    "breathing-kernel": _scenario(
        "ho-breathing", constants={"hbar": 0.7, "mass": 2.3},
        tasks=["evolve", "kernel_check"]),
}


@dataclass(frozen=True)
class Mutant:
    name: str
    module: str             # the module under wavepacket that holds `function`
    function: str
    edits: tuple            # (old, new) pairs of source text
    scenario: str           # the key of SCENARIOS it runs on
    caught: set             # the checks that fail
    why: str = ""           # for a mutant that no check catches


MUTANTS = (
    Mutant("dropped-rk4-stage", "evolution", "_step_propagators",
           (("p2 += p3", "p2 += p2"),),
           "ho-breathing", {"det_M_drift", "step_doubling_error"}),
    Mutant("stage2-omega-sign", "evolution", "_step_propagators",
           (("n2 * (q + half * p)", "-n2 * (q + half * p)"),),
           "ho-breathing", {"det_M_drift", "step_doubling_error"}),
    Mutant("polar-phi-dot-sign", "evolution", "_polar",
           (("(ud * -z + zd * u)", "(ud * -z - zd * u)"),),
           "ho-breathing", set(),
           why="no check reads phi', which only the p_phi and E_tilde columns use; "
               "tests/test_evolution.py::test_lambda_state_polar_invariants fails under it"),
    Mutant("phase-not-unwrapped", "evolution", "solve_lambda",
           (("phases = angles - math.tau", "phases = angles - 0.0"),),
           "caustics-oracle", {"oracle_vs_analytic_l2"}),
    Mutant("kernel-principal-branch", "kernels", "kernel_td",
           (("if caustics % 4 in (1, 2)", "if 0 % 4 in (1, 2)"),),
           "caustics", {"kernel_vs_analytic_l2"}),
    Mutant("matrix-a-d-swap", "invariants", "matrix_from_state",
           (("a=state.z_hat_dot", "a=state.u_hat"), ("d=state.u_hat,", "d=state.z_hat_dot,")),
           "breathing-kernel", {"kernel_vs_analytic_l2"}),
    Mutant("kernel-negated-d", "kernels", "kernel_td",
           (("d=matrix.d", "d=-matrix.d"),),
           "breathing-kernel", {"kernel_vs_analytic_l2"}),
    Mutant("kernel-negated-a", "kernels", "kernel_td",
           (("a=matrix.a", "a=-matrix.a"),),
           "breathing-kernel", {"kernel_vs_analytic_l2"}),
    Mutant("kernel-negated-coef", "kernels", "kernel_td",
           (("coef=m / (2.0 * hbar * z)", "coef=-m / (2.0 * hbar * z)"),),
           "breathing-kernel", {"kernel_vs_analytic_l2"}),
    Mutant("kernel-unscaled-y", "kernels", "kernel_td",
           (("scale=a0", "scale=1.0"),),
           "breathing-kernel", {"kernel_norm_defect", "kernel_vs_analytic_l2"}),
    Mutant("kernel-prefactor-without-alpha0", "kernels", "kernel_td",
           (("hbar * a0 * z))", "hbar * z))"),),
           "breathing-kernel", {"kernel_norm_defect", "kernel_vs_analytic_l2"}),
    Mutant("packet-without-action-phase", "packet", "wavefunction",
           (("cmath.exp(1j * classical_action(traj, index) / hbar)", "1.0"),),
           "caustics", {"kernel_vs_analytic_l2"}),
    Mutant("packet-momentum-without-mass", "packet", "wavefunction",
           (("m * state.eta_dot", "state.eta_dot"),),
           "caustics", {"kernel_vs_analytic_l2"}),
    Mutant("wigner-doubled-scale", "wigner", "wigner_numeric",
           (("scale = dx / (2.0 * math.pi * hbar)", "scale = dx / (math.pi * hbar)"),),
           "breathing-wigner", set(),
           why="no check reads the Wigner integral, which reads 2 under this mutant"),
)


@contextlib.contextmanager
def applied(mutant):
    """The mutant's function bound, for the duration, wherever the original is."""
    module = importlib.import_module(f"wavepacket.{mutant.module}")
    original = getattr(module, mutant.function)
    source = textwrap.dedent(inspect.getsource(original))
    for old, new in mutant.edits:
        if source.count(old) != 1:
            raise ValueError(f"{mutant.name}: {old!r} occurs {source.count(old)} times "
                             f"in {mutant.module}.{mutant.function}")
        source = source.replace(old, new)
    namespace = dict(vars(module))
    exec(compile(source, f"<mutant {mutant.name}>", "exec"), namespace)
    holders = [m for name, m in list(sys.modules.items()) if name.startswith("wavepacket")
               and getattr(m, mutant.function, None) is original]
    for holder in holders:
        setattr(holder, mutant.function, namespace[mutant.function])
    try:
        yield
    finally:
        for holder in holders:
            setattr(holder, mutant.function, original)


def failing_checks(report):
    """{name: (value, tolerance)} of every check of the report that fails."""
    sections = [section for task in cli.STAGES if task in report for section in (
        report[task] if isinstance(report[task], list) else [report[task]])]
    return {name: (check["value"], check["tolerance"]) for section in sections
            for name, check in section.get("checks", {}).items() if not check["pass"]}


def run(scenario):
    """failing_checks of the report of SCENARIOS[scenario]."""
    config = cli.parse_config(SCENARIOS[scenario], name=scenario)
    return failing_checks(cli.run_scenario(config)[0])


def caught(mutant):
    """run() of the mutant's scenario with the mutant applied."""
    with applied(mutant):
        return run(mutant.scenario)


def main():
    for mutant in MUTANTS:
        shown = ", ".join(f"{name} {value:.3g}/{tol:.0e}"
                          for name, (value, tol) in sorted(caught(mutant).items()))
        print(f"{mutant.name:<32s} {mutant.scenario:<17s} {shown or 'caught by nothing'}")
        if mutant.why:
            print(f"{'':<32s} {'':<17s} ({mutant.why})")


if __name__ == "__main__":
    main()
