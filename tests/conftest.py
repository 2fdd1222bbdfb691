"""Shared fixtures: bundled scenarios and their simulated cubes.

The three full-size benchmark cubes take a few seconds each to simulate, so
they are built once per session and shared by the unit and acceptance
tests.  Everything downstream of `simulate` is deterministic, which makes
cross-test sharing safe.
"""

import numpy as np
import pytest

from wavesaliency.config import bundled_config_path, load_scenario, simulate_scenario


def _run_scenario(name):
    scenario = load_scenario(bundled_config_path(name))
    return scenario, simulate_scenario(scenario)


@pytest.fixture(scope="session")
def bench1():
    """(scenario, cube) for the three-inclusion benchmark at full size."""
    return _run_scenario("bench1")


@pytest.fixture(scope="session")
def bench2():
    """(scenario, cube) for the line-defect benchmark at full size."""
    return _run_scenario("bench2")


@pytest.fixture(scope="session")
def pristine():
    """(scenario, cube) for the defect-free control at full size."""
    return _run_scenario("pristine")


@pytest.fixture(scope="session")
def ci_bench1():
    """(scenario, cube) for the small fast three-inclusion variant."""
    return _run_scenario("bench1_ci")


@pytest.fixture(scope="session")
def ci_pristine():
    """(scenario, cube) for the small fast defect-free variant."""
    return _run_scenario("pristine_ci")


@pytest.fixture()
def rng():
    return np.random.default_rng(20260823)
