"""The report's checks catch the mutants of tests/mutants.py, each exactly
as its record says, and each unmutated scenario passes every check."""

import pytest

import mutants


def test_unmutated_scenario_passes_every_check():
    for scenario in mutants.SCENARIOS:
        assert mutants.run(scenario) == {"default": {}, "strict": {}}, scenario


@pytest.mark.parametrize("mutant", mutants.MUTANTS, ids=lambda m: m.name)
def test_checks_catch_each_mutant_as_recorded(mutant):
    """The failing set equals the record under every profile: a check lost
    fails this test, and so does one gained."""
    failing = {profile: set(checks) for profile, checks in mutants.caught(mutant).items()}
    assert failing == mutant.caught
    assert bool(mutant.why) == (not any(mutant.caught.values()))
