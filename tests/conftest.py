"""Shared fixtures: bundled scenarios and their simulated cubes.

The three full-size benchmark cubes take a few seconds each to simulate, so
they are built once per session and shared by the unit and acceptance
tests.  Everything downstream of `simulate` is deterministic, which makes
cross-test sharing safe.  Three plain helpers sit beside them: the WVC1
bytes of a cube, a partition's region ids in column order, and a script of
``tools/`` loaded as a module.
"""

import importlib.util
import struct
from pathlib import Path

import numpy as np
import pytest

from wavesaliency.config import bundled_config_path, load_scenario, simulate_scenario


def wvc1_bytes(cube):
    """The WVC1 file of a cube, encoded from the format's layout alone."""
    header = struct.pack("<4sIIIIdd", b"WVC1", 1, cube.n1, cube.n2, cube.t_len,
                         cube.dx, cube.dt)
    return header + cube.values.astype("<f8").tobytes()


def region_ids(part):
    """Every (a, b) region of a partition in column order (a fastest)."""
    return [(a, b) for b in range(part.regions_y) for a in range(part.regions_x)]


def load_tool(name):
    """``tools/<name>.py``, a script rather than a package module, loaded from its path."""
    path = Path(__file__).resolve().parents[1] / "tools" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


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
