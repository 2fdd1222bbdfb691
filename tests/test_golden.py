"""Behaviour fingerprint: exact hashes of detection and sweep outputs.

For the two fast bundled plates, ``bench1_ci`` and ``pristine_ci``, the
golden files under ``tests/golden/`` hold the sha256 of the saliency CSV,
of the flagged set (one ``a b`` line per region, as in ``.flags.txt``),
and of sweep CSVs for shared random masks at 0.5, 0.2 and 0.07,
per-region masks at 0.2 and the double cross at strides 1 and 2, each
sweep over 3 trials from the scenario seed.

Exact equality is a fair gate for rewrites that only reorder floating-point
work: on both plates the flags, the saliency fractions and the sweep CSV
did not move under 1e-10 relative noise on the cube, so a rewrite that
changes a hash changed behaviour, not rounding.

To record a deliberate change of behaviour, rewrite the files with
``PYTHONPATH=src python tests/test_golden.py`` and say why in CHANGES.md.
"""

import hashlib
import json
from pathlib import Path

import pytest

from wavesaliency.pipeline import run_detection
from wavesaliency.saliency import saliency_csv_text
from wavesaliency.sampling import GroundTruth, monte_carlo_sweep, sweep_csv_text

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


@pytest.mark.parametrize("fixture, name", [("ci_bench1", "bench1_ci"),
                                           ("ci_pristine", "pristine_ci")])
def test_fingerprint_matches_golden(fixture, name, request):
    scenario, cube = request.getfixturevalue(fixture)
    want = json.loads((GOLDEN / f"{name}.json").read_text())
    assert fingerprint(scenario, cube) == want


if __name__ == "__main__":
    from conftest import _run_scenario

    for name in ("bench1_ci", "pristine_ci"):
        text = json.dumps(fingerprint(*_run_scenario(name)), indent=2)
        (GOLDEN / f"{name}.json").write_text(text + "\n")
