"""Acceptance gate: one test per headline guarantee of the toolkit.

Run with ``pytest tests/test_acceptance.py -v`` for a one-line verdict per
guarantee.  Each test prints its supporting numbers, so a failure report
carries the measured values alongside the bound that tripped.

The full-size benchmark cubes come from the session fixtures in conftest;
the three tests that must finish inside a stated wall-clock budget measure
their own elapsed time and assert on it.
"""

import math
import re
import time

import numpy as np
import pytest
import scipy.linalg

from wavesaliency.cli import EXIT_OK, main
from wavesaliency.cube import DataCube, read_cube, write_cube
from wavesaliency.config import (
    bundled_config_path,
    detect_scenario,
    load_scenario,
    score_scenario,
    simulate_scenario,
    sweep_scenario,
)
from wavesaliency.errors import ConfigError
from wavesaliency.sampling import double_cross_mask, origin_block
from wavesaliency.sim import (
    analytic_group_velocity,
    analytic_phase_velocity,
    defect_cells,
)
from wavesaliency.spectrum import dft2_magnitude, occupied_fraction
from wavesaliency.windowing import Partition, estimate_group_velocity

from conftest import wvc1_bytes
from lowrank_oracle import outlier_energies, truncated_low_rank


def _chebyshev(p, q):
    return max(abs(p[0] - q[0]), abs(p[1] - q[1]))


# ---------------------------------------------------------------------------
# 1. the truncated split is the best rank-r approximation anyone can draw
# ---------------------------------------------------------------------------

def test_truncated_split_beats_random_rank_competitors(rng):
    # 100 matrices x 3 ranks x 1000 random subspaces, under 30 seconds
    start = time.perf_counter()
    worst_margin = math.inf
    worst_recon = 0.0
    for _ in range(100):
        m = rng.normal(size=(40, 25))
        scale = np.linalg.norm(m)
        for r in (1, 3, 7):
            split = truncated_low_rank(m, r)
            best = np.linalg.norm(split.outliers)
            recon = np.linalg.norm(split.low_rank + split.outliers - m) / scale
            worst_recon = max(worst_recon, recon)
            # competitors: project the rows of m onto 1000 random
            # r-dimensional subspaces, each a valid rank-r approximation
            q, _ = np.linalg.qr(rng.normal(size=(1000, 25, r)))
            proj = q @ (np.swapaxes(q, 1, 2) @ m.T)
            errs = np.linalg.norm(m.T[None] - proj, axis=(1, 2))
            worst_margin = min(worst_margin, float(errs.min() - best))
            assert (errs >= best - 1e-9).all()
    elapsed = time.perf_counter() - start
    print(f"closest competitor margin {worst_margin:.3e}, "
          f"worst reconstruction error {worst_recon:.3e}, {elapsed:.1f} s")
    assert worst_recon <= 1e-9
    assert elapsed < 30.0


# ---------------------------------------------------------------------------
# 2. outlier column energies are exactly the projection residuals
# ---------------------------------------------------------------------------

def test_outlier_energies_match_projector_residuals(rng):
    worst = 0.0
    for _ in range(50):
        rows = int(rng.integers(15, 61))
        cols = int(rng.integers(8, 31))
        rank = int(rng.integers(1, min(rows, cols)))
        m = rng.normal(size=(rows, cols))
        energies = outlier_energies(truncated_low_rank(m, rank))
        # independent route: residual against the projector onto the
        # leading left singular subspace, via scipy
        u = scipy.linalg.svd(m, full_matrices=False)[0][:, :rank]
        resid = u @ (u.T @ m) - m
        oracle = np.sum(resid * resid, axis=0)
        gap = float(np.max(np.abs(energies - oracle)) / np.max(oracle))
        worst = max(worst, gap)
        assert np.allclose(energies, oracle, rtol=1e-9,
                           atol=1e-9 * float(np.max(oracle)))
    print(f"worst relative gap over 50 instances: {worst:.3e}")


# ---------------------------------------------------------------------------
# 3. partition arithmetic on the benchmark grid
# ---------------------------------------------------------------------------

def test_partition_sizes_on_the_benchmark_grid():
    for regions, expected in ((8, 33), (16, 17), (32, 9)):
        part = Partition(257, 257, regions, regions)
        print(f"{regions}x{regions} regions -> {part.p1}x{part.p2} nodes")
        assert (part.p1, part.p2) == (expected, expected)
    with pytest.raises(ConfigError, match="^cannot split 257 nodes into 10 regions along x: "
                                          "256 intervals not divisible by 10$"):
        Partition(257, 257, 10, 10)
    with pytest.raises(ConfigError, match="^cannot split 257 nodes into 12 regions along y: "
                                          "256 intervals not divisible by 12$"):
        Partition(257, 257, 16, 12)


# ---------------------------------------------------------------------------
# 4. probe-estimated propagation speed tracks the dispersion relation
# ---------------------------------------------------------------------------

def test_probe_estimated_speed_tracks_dispersion(pristine):
    # envelope doubling is exact in the closed form
    scenario, cube = pristine
    for freq in (250e3, 500e3, scenario.excitation.carrier_frequency):
        assert (analytic_group_velocity(scenario.material, freq)
                == 2.0 * analytic_phase_velocity(scenario.material, freq))

    analytic = analytic_group_velocity(
        scenario.material, scenario.excitation.carrier_frequency
    )
    measured = estimate_group_velocity(cube, scenario.probes.pair)
    err = (measured - analytic) / analytic
    print(f"full grid: measured {measured:.1f} vs analytic {analytic:.1f} "
          f"m/s ({err:+.2%})")
    assert abs(err) < 0.05

    # the small variant must clear the same bar inside one minute,
    # simulation included
    start = time.perf_counter()
    small = load_scenario(bundled_config_path("pristine_ci"))
    small_cube = simulate_scenario(small)
    small_analytic = analytic_group_velocity(
        small.material, small.excitation.carrier_frequency
    )
    small_measured = estimate_group_velocity(small_cube, small.probes.pair)
    elapsed = time.perf_counter() - start
    small_err = (small_measured - small_analytic) / small_analytic
    print(f"small grid: measured {small_measured:.1f} vs analytic "
          f"{small_analytic:.1f} m/s ({small_err:+.2%}) in {elapsed:.1f} s")
    assert abs(small_err) < 0.05
    assert elapsed < 60.0


# ---------------------------------------------------------------------------
# 5. three stiff inclusions, fully sampled: all found, few false alarms
# ---------------------------------------------------------------------------

def test_three_inclusions_found_with_few_false_alarms(bench1):
    scenario, cube = bench1
    truth = scenario.truth()
    result = detect_scenario(scenario, cube)
    metrics = score_scenario(scenario, result.flagged)
    print(f"truth {sorted(truth.regions)}, flagged {sorted(result.flagged)}, "
          f"metrics {tuple(metrics)}")
    assert metrics.regional_correct == len(truth.regions) == 3
    # false alarms that are neither near a defect nor in the noisy block
    # around the excitation corner
    block = origin_block(scenario.partition(), (0, 0))
    stray = [
        f for f in result.flagged
        if all(_chebyshev(f, t) >= 2 for t in truth.regions)
        and f not in block
    ]
    print(f"stray flags: {sorted(stray)}")
    assert len(stray) <= 2


# ---------------------------------------------------------------------------
# 6. line defect: both tips plus most of the path
# ---------------------------------------------------------------------------

def test_line_defect_tips_and_path_flagged(bench2):
    scenario, cube = bench2
    part = scenario.partition()
    assert len(scenario.defects) == 1
    cells = sorted(defect_cells(scenario.defects[0], part.n1, part.n2))
    tips = {part.region_of_cell(*cells[0]), part.region_of_cell(*cells[-1])}
    path = {part.region_of_cell(*c) for c in cells}
    result = detect_scenario(scenario, cube)
    covered = path & result.flagged
    print(f"tips {sorted(tips)}, path {sorted(path)}, "
          f"flagged {sorted(result.flagged)}")
    assert tips <= result.flagged
    assert len(covered) >= 0.6 * len(path)


# ---------------------------------------------------------------------------
# 7. random subsampling degrades detection gracefully
# ---------------------------------------------------------------------------

def test_detection_survives_heavy_subsampling(ci_bench1):
    scenario, cube = ci_bench1
    full = score_scenario(scenario, detect_scenario(scenario, cube).flagged)
    start = time.perf_counter()
    rows = sweep_scenario(scenario, cube, [0.5, 0.33, 0.2, 0.1, 0.07], trials=50)
    elapsed = time.perf_counter() - start
    for row in rows:
        print(f"keep {row.nz:.0%}: regional correct "
              f"{row.regional_correct:.3f} +- {row.regional_correct_se:.3f}")
    print(f"full sampling: {full.regional_correct}, {elapsed:.1f} s")

    # non-increasing as the ratio drops, within twice the combined
    # standard error of each adjacent pair
    for hi, lo in zip(rows, rows[1:]):
        slack = 2.0 * math.hypot(hi.regional_correct_se,
                                 lo.regional_correct_se)
        assert lo.regional_correct <= hi.regional_correct + slack
    assert rows[0].regional_correct >= 0.9 * full.regional_correct
    assert elapsed < 900.0


# ---------------------------------------------------------------------------
# 8. deterministic double-cross retention counts
# ---------------------------------------------------------------------------

def test_double_cross_retention_counts():
    for stride, count, percent in ((1, 65, 0.225), (2, 33, 0.114), (4, 17, 0.059)):
        mask = double_cross_mask(17, 17, stride)
        print(f"stride {stride}: {mask.retained_count} of 289 nodes "
              f"({mask.achieved_ratio:.1%})")
        assert mask.retained_count == count
        assert len(mask.flat_indices()) == count
        assert round(mask.achieved_ratio, 3) == percent


# ---------------------------------------------------------------------------
# 9. the scattered field occupies a few percent of the wavenumber plane
# ---------------------------------------------------------------------------

def test_scattered_field_occupies_small_spectral_fraction(bench1, tmp_path, capsys):
    scenario, cube = bench1
    cube_path = tmp_path / "bench1.wvc"
    write_cube(cube, cube_path)
    assert main(["spectrum", str(cube_path), str(tmp_path / "spec")]) == EXIT_OK
    out = capsys.readouterr().out
    match = re.search(
        r"occupied fraction: ([0-9.]+) at floor (-?[0-9.]+) dB, snapshot (\d+)",
        out,
    )
    assert match, out
    fraction = float(match.group(1))
    print(f"reported triple: fraction {match.group(1)}, "
          f"floor {match.group(2)} dB, snapshot {match.group(3)}")
    assert 0.01 <= fraction <= 0.05
    assert float(match.group(2)) == -20.0
    assert int(match.group(3)) == cube.t_len - 1
    # the printed value is the library computation, 6-decimal rounded
    direct = occupied_fraction(dft2_magnitude(cube.slice_at(cube.t_len - 1)), -20.0)
    assert abs(direct - fraction) < 5e-7


# ---------------------------------------------------------------------------
# 10. storage format and command runs are bit-stable
# ---------------------------------------------------------------------------

def _tree_bytes(root):
    return {
        str(p.relative_to(root)): p.read_bytes()
        for p in sorted(root.rglob("*")) if p.is_file()
    }


def test_cube_roundtrip_and_command_determinism(rng, tmp_path, capsys):
    # 200 random cubes survive a write/read cycle bit-exactly
    for _ in range(200):
        n1 = int(rng.integers(2, 9))
        n2 = int(rng.integers(2, 9))
        t_len = int(rng.integers(2, 7))
        cube = DataCube(
            n1, n2, t_len,
            float(10.0 ** rng.uniform(-6, 1)),
            float(10.0 ** rng.uniform(-9, -3)),
            rng.normal(size=(t_len, n2, n1)) * 10.0 ** rng.uniform(-20, 20),
        )
        first, again = tmp_path / "cube.wvc", tmp_path / "again.wvc"
        write_cube(cube, first)
        back = read_cube(first)
        assert back == cube
        assert back.values.tobytes() == cube.values.tobytes()
        write_cube(back, again)
        assert again.read_bytes() == first.read_bytes() == wvc1_bytes(cube)

    # every command, run twice with the same seed, leaves identical bytes
    cfg = str(bundled_config_path("bench1_ci"))
    stdouts = []
    for tag in ("first", "second"):
        d = tmp_path / tag
        d.mkdir()
        cube_path = str(d / "run.wvc")
        assert main(["simulate", cfg, cube_path]) == EXIT_OK
        assert main(["detect", cube_path, cfg, str(d / "det")]) == EXIT_OK
        assert main([
            "sweep", cube_path, cfg, str(d / "sweep.csv"),
            "--ratios", "0.2,0.1", "--trials", "3",
        ]) == EXIT_OK
        assert main(["spectrum", cube_path, str(d / "spec")]) == EXIT_OK
        # commands echo their output paths; identical modulo the run dir
        stdouts.append(capsys.readouterr().out.replace(str(d), "<dir>"))
    first = _tree_bytes(tmp_path / "first")
    second = _tree_bytes(tmp_path / "second")
    print(f"compared {len(first)} artifact files")
    assert len(first) >= 9
    assert first == second
    assert stdouts[0] == stdouts[1]
