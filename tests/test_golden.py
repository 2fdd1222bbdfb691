"""Behaviour fingerprint: exact hashes of detection and sweep outputs.

For the two fast bundled plates, ``bench1_ci`` and ``pristine_ci``, the
golden files under ``tests/golden/`` hold the sha256 of the saliency CSV,
of the flagged set (one ``a b`` line per region, as in ``.flags.txt``),
and of sweep CSVs for shared random masks at 0.5, 0.2 and 0.07,
per-region masks at 0.2 and the double cross at strides 1 and 2, each
sweep over 3 trials from the scenario seed.  Beside the hashes they hold a
summary of the simulated cube itself: each sample's L2 norm, the
deflection histories at the scenario's two velocity probes and the
group velocity estimated from them.

Exact equality is a fair gate for rewrites that only reorder floating-point
work: on both plates the flags, the saliency fractions and the sweep CSV
did not move under 1e-10 relative noise on the cube, so a rewrite that
changes a hash changed behaviour, not rounding.  The cube summary is held
to 1e-12 of each series' peak and the velocity to 1e-9 relative, the
velocity having moved by about 5e-7 m/s under that noise.

To record a deliberate change of behaviour, rewrite the files with
``PYTHONPATH=src python tests/test_golden.py`` and say why in CHANGES.md.
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from wavesaliency.pipeline import run_detection
from wavesaliency.saliency import saliency_csv_text
from wavesaliency.sampling import GroundTruth, monte_carlo_sweep, sweep_csv_text
from wavesaliency.windowing import estimate_group_velocity

GOLDEN = Path(__file__).parent / "golden"
TRIALS = 3
SWEEPS = {
    "sweep_random": dict(ratios=[0.5, 0.2, 0.07]),
    "sweep_per_region": dict(ratios=[0.2], sharing="per_region"),
    "sweep_cross_1": dict(ratios=[], pattern="cross", stride=1),
    "sweep_cross_2": dict(ratios=[], pattern="cross", stride=2),
}


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def fingerprint(scenario, cube) -> dict[str, str]:
    part, config = scenario.partition(), scenario.detection_config()
    result = run_detection(cube, part, config)
    truth = GroundTruth.from_defects(list(scenario.defects), part)
    out = {
        "saliency_csv": _sha(saliency_csv_text(result.saliency)),
        "flagged": _sha("".join(f"{a} {b}\n" for a, b in sorted(result.flagged))),
    }
    for key, kw in SWEEPS.items():
        kw = dict(kw)
        rows = monte_carlo_sweep(cube, part, config, kw.pop("ratios"), TRIALS,
                                 scenario.seed, truth=truth, **kw)
        out[key] = _sha(sweep_csv_text(rows))
    return out


def cube_summary(scenario, cube) -> dict[str, list[float] | float]:
    pair = scenario.probe_pair()
    return {
        "sample_l2": np.linalg.norm(cube.values, axis=(1, 2)).tolist(),
        "probe_first": cube.history(pair.first).tolist(),
        "probe_second": cube.history(pair.second).tolist(),
        "group_velocity": estimate_group_velocity(cube, pair),
    }


@pytest.mark.parametrize("fixture, name", [("ci_bench1", "bench1_ci"),
                                           ("ci_pristine", "pristine_ci")])
def test_fingerprint_matches_golden(fixture, name, request):
    scenario, cube = request.getfixturevalue(fixture)
    want = json.loads((GOLDEN / f"{name}.json").read_text())
    summary = cube_summary(scenario, cube)
    hashes = {key: value for key, value in want.items() if key not in summary}
    assert fingerprint(scenario, cube) == hashes
    for key in ("sample_l2", "probe_first", "probe_second"):
        expect = np.array(want[key])
        np.testing.assert_allclose(summary[key], expect, rtol=0.0,
                                   atol=1e-12 * np.max(np.abs(expect)), err_msg=key)
    assert summary["group_velocity"] == pytest.approx(want["group_velocity"], rel=1e-9)


if __name__ == "__main__":
    from conftest import _run_scenario

    for name in ("bench1_ci", "pristine_ci"):
        run = _run_scenario(name)
        text = json.dumps({**fingerprint(*run), **cube_summary(*run)}, indent=2)
        (GOLDEN / f"{name}.json").write_text(text + "\n")
