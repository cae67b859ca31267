"""The report's checks catch the mutants of tests/mutants.py, each exactly
as its record says, and each unmutated scenario passes every check."""

import pytest

import mutants


def test_unmutated_scenario_passes_every_check():
    for scenario in mutants.SCENARIOS:
        assert mutants.run(scenario) == {}, scenario


@pytest.mark.parametrize("mutant", mutants.MUTANTS, ids=lambda m: m.name)
def test_checks_catch_each_mutant_as_recorded(mutant):
    """The failing set equals the record: a check lost fails this test, and
    so does one gained."""
    assert set(mutants.caught(mutant)) == mutant.caught
    assert bool(mutant.why) == (not mutant.caught)
