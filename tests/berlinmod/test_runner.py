"""Scenario preparation tests."""

import pytest

from repro.berlinmod import prepare_scenario


def test_unknown_scenario_rejected():
    with pytest.raises(ValueError, match="unknown scenario"):
        prepare_scenario("nope", None)
