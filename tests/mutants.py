"""A catalogue of plausible mistakes in the program, and the report checks
that catch each one.

A mutant is a source edit of one function: each (old, new) pair replaces
text that occurs exactly once in the function's source.  It is applied in
process, by compiling the edited source in the function's module and
binding the result to the function's name in every wavepacket module that
holds the original (cli imports the layer functions by name), where the
program looks it up at call time; the originals are bound again afterwards.

Each mutant runs on SCENARIO under every tolerance profile, and records
per profile the set of checks that fail in its report.  A mutant
that no check catches is recorded with empty sets and the reason.
tests/test_mutants.py asserts every recorded set, in both directions, so a
change that loses a catch fails it and a change that adds one updates the
record.

    python tests/mutants.py

prints the table: mutant, profile, and each failing check with its value
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

# ho-breathing with the tasks the invariant checks need: 10 000 RK4 steps,
# with no kernel, Wigner or oracle work, and every check passes unmutated
SCENARIO = cli.BUILTIN_SCENARIOS["ho-breathing"] | {"tasks": ["evolve", "invariants"]}


@dataclass(frozen=True)
class Mutant:
    name: str
    module: str             # the module under wavepacket that holds `function`
    function: str
    edits: tuple            # (old, new) pairs of source text
    caught: dict            # tolerance profile -> the set of checks that fail
    why: str = ""           # for a mutant that no check catches


MUTANTS = (
    Mutant("dropped-rk4-stage", "evolution", "_step_propagators",
           (("np.multiply(c, (p + 2.0 * (p2 + p3)) + p4, out=e[0])",
             "np.multiply(c, (p + 2.0 * (p2 + p2)) + p4, out=e[0])"),),
           {"default": {"det_M_drift"}, "strict": {"det_M_drift"}}),
    Mutant("stage2-omega-sign", "evolution", "_step_propagators",
           (("a2 = n2 * q2", "a2 = -n2 * q2"),),
           {"default": {"det_M_drift", "euler_lagrange_alpha"},
            "strict": {"det_M_drift", "euler_lagrange_alpha"}}),
    Mutant("phase-rate-1-over-alpha", "evolution", "solve_lambda",
           (("p1 = 1.0 / (u * u + z * z)", "p1 = 1.0 / np.sqrt(u * u + z * z)"),
            ("p2, p3, p4 = 1.0 / (us * us + zs * zs)",
             "p2, p3, p4 = 1.0 / np.sqrt(us * us + zs * zs)")),
           {"default": set(), "strict": set()},
           why="only the phase column phi moves; every check reads phi' from "
               "lambda, and only the oracle's unaligned l2_error sees phi"),
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


def run():
    """{profile: failing_checks} of SCENARIO's report under every profile."""
    config = cli.parse_config(SCENARIO, name="mutant")
    return {profile: failing_checks(cli.run_scenario(config, profile)[0])
            for profile in cli.TOLERANCE_PROFILES}


def caught(mutant):
    """run() with the mutant applied."""
    with applied(mutant):
        return run()


def main():
    for mutant in MUTANTS:
        for profile, failing in caught(mutant).items():
            shown = ", ".join(f"{name} {value:.3g}/{tol:.0e}"
                              for name, (value, tol) in sorted(failing.items()))
            print(f"{mutant.name:<24s} {profile:<8s} {shown or 'caught by nothing'}")
        if mutant.why:
            print(f"{'':<24s} {'':<8s} ({mutant.why})")


if __name__ == "__main__":
    main()
