"""Behaviour fingerprint: exact hashes of detection and sweep outputs.

For every bundled plate the golden files under ``tests/golden/`` hold
the sha256 of the saliency CSV, of the flagged set (its ``flags_text``,
the ``.flags.txt`` text) and of sweep CSVs, each sweep over 3 trials
from the scenario seed.  On the two fast plates, ``bench1_ci`` and
``pristine_ci``, the sweeps are shared random masks at 0.5, 0.2 and 0.07,
per-region masks at 0.2 and the double cross at strides 1 and 2, and for
the last snapshot the files also hold the sha256 of the spectrum CSV and
PGM texts and the occupied fraction at -20 dB.  On the 257-node plates,
``bench1``, ``bench2`` and ``pristine``, the sweeps are shared random
masks at 0.5, 0.33 and 0.2 and per-region masks at 0.5: their full
sampling takes the Gram-free tall fit, the shared 0.5 and 0.33 masks the
batched Lanczos fit and 0.2 ``eigh``, and the per-region masks go to
``eigh`` without trying the Lanczos fit.  Beside the hashes the
files hold a summary of the simulated cube itself: each sample's L2 norm,
the deflection histories at the scenario's two velocity probes and the
group velocity estimated from them.

Exact equality is a fair gate for rewrites that only reorder floating-point
work: on every plate the flags, the saliency CSV and the sweep CSVs did
not move under 1e-10 relative noise on the cube, so a rewrite that
changes one of those hashes changed behaviour, not rounding.  The CI
plates' spectrum CSV does move under that noise (its 7-digit magnitudes
can round the other way), so a change of that hash alone may be
rounding.  The cube summary is held to 1e-12 of each series' peak and
the velocity to 1e-9 relative, the velocity having moved by at most
3.2e-10 relative under that noise.

``PYTHONPATH=src python tests/test_golden.py [KEY ...]`` writes the keys a
file lacks and rewrites the keys named on its command line; every other
value stays as it is, so the cube summary's round-off drift never rides
along.  To record a deliberate change of behaviour, name the keys it moves
and say why in CHANGES.md.
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from wavesaliency.config import detect_scenario, sweep_scenario
from wavesaliency.saliency import flags_text, saliency_csv_text
from wavesaliency.sampling import sweep_csv_text
from wavesaliency.spectrum import (
    dft2_magnitude,
    occupied_fraction,
    spectrum_csv_text,
    spectrum_pgm_text,
)
from wavesaliency.windowing import estimate_group_velocity

GOLDEN = Path(__file__).parent / "golden"
TRIALS = 3
CI_SWEEPS = {
    "sweep_random": dict(ratios=[0.5, 0.2, 0.07]),
    "sweep_per_region": dict(ratios=[0.2], sharing="per_region"),
    "sweep_cross_1": dict(ratios=[], pattern="cross", stride=1),
    "sweep_cross_2": dict(ratios=[], pattern="cross", stride=2),
}
FULL_SWEEPS = {
    "sweep_random": dict(ratios=[0.5, 0.33, 0.2]),
    "sweep_per_region": dict(ratios=[0.5], sharing="per_region"),
}
# golden file: the session fixture of its plate, and whether it pins the
# CI sweeps and the spectrum (True) or the 257-node sweeps (False)
PLATES = {
    "bench1_ci": ("ci_bench1", True),
    "pristine_ci": ("ci_pristine", True),
    "bench1": ("bench1", False),
    "bench2": ("bench2", False),
    "pristine": ("pristine", False),
}


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def fingerprint(scenario, cube, ci: bool) -> dict[str, str | float]:
    result = detect_scenario(scenario, cube)
    out = {
        "saliency_csv": _sha(saliency_csv_text(result.saliency)),
        "flagged": _sha(flags_text(result.flagged)),
    }
    for key, kw in (CI_SWEEPS if ci else FULL_SWEEPS).items():
        kw = dict(kw)
        rows = sweep_scenario(scenario, cube, kw.pop("ratios"), TRIALS, **kw)
        out[key] = _sha(sweep_csv_text(rows))
    if not ci:
        return out
    spec = dft2_magnitude(cube.slice_at(cube.t_len - 1))
    out["spectrum_csv"] = _sha(spectrum_csv_text(spec))
    out["spectrum_pgm"] = _sha(spectrum_pgm_text(spec))
    out["spectrum_fraction_20db"] = occupied_fraction(spec, -20.0)
    return out


def cube_summary(scenario, cube) -> dict[str, list[float] | float]:
    pair = scenario.probes.pair
    return {
        "sample_l2": np.linalg.norm(cube.values, axis=(1, 2)).tolist(),
        "probe_first": cube.history(pair.first).tolist(),
        "probe_second": cube.history(pair.second).tolist(),
        "group_velocity": estimate_group_velocity(cube, pair),
    }


@pytest.mark.parametrize("fixture, name", [(fixture, name) for name, (fixture, _)
                                           in PLATES.items()])
def test_fingerprint_matches_golden(fixture, name, request):
    scenario, cube = request.getfixturevalue(fixture)
    want = json.loads((GOLDEN / f"{name}.json").read_text())
    summary = cube_summary(scenario, cube)
    hashes = {key: value for key, value in want.items() if key not in summary}
    assert fingerprint(scenario, cube, PLATES[name][1]) == hashes
    for key in ("sample_l2", "probe_first", "probe_second"):
        expect = np.array(want[key])
        np.testing.assert_allclose(summary[key], expect, rtol=0.0,
                                   atol=1e-12 * np.max(np.abs(expect)), err_msg=key)
    assert summary["group_velocity"] == pytest.approx(want["group_velocity"], rel=1e-9)


if __name__ == "__main__":
    import sys

    from conftest import _run_scenario

    named = set(sys.argv[1:])
    for name, (_, ci) in PLATES.items():
        path = GOLDEN / f"{name}.json"
        old = json.loads(path.read_text()) if path.exists() else {}
        run = _run_scenario(name)
        new = {**fingerprint(*run, ci), **cube_summary(*run)}
        if named - new.keys():
            sys.exit(f"not a golden key: {', '.join(sorted(named - new.keys()))}")
        kept = {key: old[key] if key in old and key not in named else value
                for key, value in new.items()}
        path.write_text(json.dumps(kept, indent=2) + "\n")
