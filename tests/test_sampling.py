"""Masks, ground truth, detection scoring, and the Monte Carlo sweep.

The double-cross mask is checked against an independent set-union oracle;
sweep behavior is pinned through degenerate configurations (full sampling,
single trials) whose outcomes are forced by construction.
"""

import numpy as np
import pytest

from wavesaliency import saliency
from wavesaliency.config import (
    bundled_config_path,
    load_scenario,
    parse_scenario,
    score_scenario,
    simulate_scenario,
    sweep_scenario,
)
from wavesaliency.errors import ConfigError
from wavesaliency.pipeline import run_detection
from wavesaliency.sampling import (
    PER_REGION,
    SHARED,
    SWEEP_CSV_HEADER,
    DetectionMetrics,
    GroundTruth,
    Mask,
    MaskSettings,
    detection_metrics,
    double_cross_mask,
    monte_carlo_sweep,
    origin_block,
    random_mask,
    sweep_csv_text,
    sweep_recipes,
)
from wavesaliency.cube import GridPoint, write_text
from wavesaliency.sim import DefectSpec
from wavesaliency.windowing import Partition

from conftest import region_ids


# ---------------------------------------------------------------------------
# masks
# ---------------------------------------------------------------------------

def test_random_mask_reproducible():
    a = random_mask(17, 17, 0.3, seed=42)
    b = random_mask(17, 17, 0.3, seed=42)
    assert np.array_equal(a.grid, b.grid)
    c = random_mask(17, 17, 0.3, seed=43)
    assert not np.array_equal(a.grid, c.grid)
    assert a.kind == "random" and a.seed == 42


def test_random_mask_exact_counts():
    m = random_mask(17, 17, 0.20, seed=7)
    assert m.retained_count == 58  # round(0.20 * 289)
    assert m.achieved_ratio == pytest.approx(58 / 289)
    assert random_mask(17, 17, 1.0, seed=7).grid.all()
    for target in (0.07, 0.1, 0.33, 0.5):
        got = random_mask(17, 17, target, seed=1).retained_count
        assert got == int(round(target * 289))


def test_random_mask_errors():
    with pytest.raises(ConfigError, match=r"^target ratio must be in \(0, 1\], got 0\.0$"):
        random_mask(17, 17, 0.0, seed=1)
    with pytest.raises(ConfigError, match=r"^target ratio must be in \(0, 1\], got 1\.1$"):
        random_mask(17, 17, 1.1, seed=1)
    with pytest.raises(ConfigError, match="^target ratio 0.01 keeps only 3 of 289 nodes; "
                                          "at least 4 required$"):
        random_mask(17, 17, 0.01, seed=1)  # would keep 3 < 4 nodes


def _cross_oracle(p, stride):
    """Independent union-of-four-lines enumeration."""
    c = (p - 1) // 2
    kept = set()
    for i in range(p):
        if (i - c) % stride == 0:
            kept |= {(i, c), (c, i), (i, i), (i, p - 1 - i)}
    return kept


@pytest.mark.parametrize("stride,count", [(1, 65), (2, 33), (4, 17)])
def test_double_cross_counts(stride, count):
    m = double_cross_mask(17, 17, stride)
    assert m.retained_count == count
    assert m.achieved_ratio == pytest.approx(count / 289)
    got = {(int(l), int(mm)) for l, mm in np.argwhere(m.grid)}
    assert got == _cross_oracle(17, stride)
    assert m.grid[8, 8]  # the center always survives thinning
    assert m.kind == "double_cross" and m.stride == stride


def test_double_cross_also_on_small_regions():
    m = double_cross_mask(9, 9, 1)
    assert m.retained_count == 33
    assert {(int(l), int(mm)) for l, mm in np.argwhere(m.grid)} == _cross_oracle(9, 1)


def test_double_cross_errors():
    with pytest.raises(ConfigError, match="^double cross needs a square region, got 17x9$"):
        double_cross_mask(17, 9)
    with pytest.raises(ConfigError, match=r"^double cross needs an odd region side "
                                          r"\(a center node\), got 16$"):
        double_cross_mask(16, 16)
    with pytest.raises(ConfigError, match="^stride must be 1, 2 or 4, got 3$"):
        double_cross_mask(17, 17, stride=3)


def test_mask_constructor_validation():
    good = np.zeros((5, 5), dtype=bool)
    good[:2, :2] = True
    Mask(grid=good, kind="random", seed=0)
    with pytest.raises(ConfigError, match="^mask grid must be a 2-D boolean array$"):
        Mask(grid=good.astype(int), kind="random")
    sparse = np.zeros((5, 5), dtype=bool)
    sparse[0, :3] = True
    with pytest.raises(ConfigError, match=r"^mask keeps 3 node\(s\); at least 4 required$"):
        Mask(grid=sparse, kind="random")
    with pytest.raises(ConfigError, match="^unknown sharing mode 'broadcast'$"):
        Mask(grid=good, kind="random", sharing="broadcast")
    with pytest.raises(ConfigError, match="^per-region sharing needs a seed to derive patterns$"):
        Mask(grid=good, kind="random", sharing=PER_REGION)  # seed required
    # a nested list is checked as an array, and the array is what is kept
    listed = Mask(grid=[[True] * 5] * 5, kind="random", seed=1)
    assert isinstance(listed.grid, np.ndarray) and not listed.grid.flags.writeable
    assert np.array_equal(listed.row_indices(5, 5, 3), np.arange(25))


def test_row_indices_shared_flattening():
    grid = np.zeros((5, 4), dtype=bool)
    picks = [(0, 0), (3, 1), (2, 2), (4, 3)]
    for l, m in picks:
        grid[l, m] = True
    mask = Mask(grid=grid, kind="random", seed=0)
    rows = mask.row_indices(5, 4, region_count=6)
    assert rows.ndim == 1
    # x-fastest flattening: node (l, m) lands at row l + p1 * m
    assert rows.tolist() == sorted(l + 5 * m for l, m in picks)
    assert np.array_equal(rows, mask.flat_indices())


def test_row_indices_per_region():
    mask = random_mask(9, 9, 0.3, seed=11, sharing=PER_REGION)
    rows = mask.row_indices(9, 9, region_count=5)
    k = mask.retained_count
    assert rows.shape == (k, 5)
    # region 0's pattern is exactly the grid the mask records
    assert np.array_equal(rows[:, 0], mask.flat_indices())
    for j in range(5):
        col = rows[:, j]
        assert np.array_equal(col, np.sort(col))
        assert len(set(col.tolist())) == k
        assert col.min() >= 0 and col.max() < 81
    # patterns genuinely differ across regions
    assert any(
        not np.array_equal(rows[:, 0], rows[:, j]) for j in range(1, 5)
    )


def _per_region_rows_loop(seed, p1, p2, kept, region_count):
    """One ``rng.permutation`` per region, as the draws were first written."""
    rng = np.random.default_rng(seed)
    cols = [np.sort(rng.permutation(p1 * p2)[:kept]) for _ in range(region_count)]
    return np.stack(cols, axis=1)


@pytest.mark.parametrize("p1, p2, ratio, region_count", [
    (9, 9, 0.3, 5), (17, 17, 0.2, 205), (5, 7, 0.5, 1), (17, 9, 0.07, 12),
    (3, 3, 1.0, 4),
])
def test_row_indices_per_region_match_one_permutation_per_region(
    p1, p2, ratio, region_count
):
    for seed in range(20):
        mask = random_mask(p1, p2, ratio, seed=seed, sharing=PER_REGION)
        rows = mask.row_indices(p1, p2, region_count)
        want = _per_region_rows_loop(seed, p1, p2, mask.retained_count,
                                     region_count)
        assert rows.dtype == want.dtype and rows.shape == want.shape
        assert np.array_equal(rows, want), (seed, p1, p2, region_count)
        # the grid random_mask records is the first permutation's pattern
        assert np.array_equal(mask.flat_indices(), want[:, 0]), (seed, p1, p2)


def test_row_indices_shape_mismatch():
    mask = random_mask(17, 17, 0.3, seed=3)
    with pytest.raises(ConfigError, match="^mask built for 17x17 regions cannot be applied "
                                          "to 9x9 regions$"):
        mask.row_indices(9, 9, region_count=4)


# ---------------------------------------------------------------------------
# ground truth
# ---------------------------------------------------------------------------

def test_ground_truth_from_defects():
    part = Partition(129, 129, 8, 8)
    point = DefectSpec("point_inclusion", (0.2, 0.42), 100.0, 100.0)
    line = DefectSpec("line_segment", (0.2, 0.5, 0.4, 0.5), 1e-4, 1e-4)
    # cells: point -> (25, 53); line -> l in 25..51 at m = 64
    assert GroundTruth.from_defects([point], part).regions == {(1, 3)}
    assert GroundTruth.from_defects([line], part).regions == {
        (1, 4), (2, 4), (3, 4)
    }
    both = GroundTruth.from_defects([point, line], part)
    assert both.regions == {(1, 3), (1, 4), (2, 4), (3, 4)}


def test_ground_truth_validate():
    part = Partition(129, 129, 8, 8)
    GroundTruth(frozenset({(0, 0), (7, 7)})).validate(part)
    with pytest.raises(ValueError):
        GroundTruth(frozenset({(8, 0)})).validate(part)


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

PART8 = Partition(129, 129, 8, 8)
# source nodes that drive a node of region (0, 0) and of region (7, 7)
NEAR_ORIGIN = GridPoint(0, 0)
FAR_CORNER = GridPoint(128, 128)


def test_metrics_perfect_detection():
    truth = GroundTruth(frozenset({(1, 3), (4, 4), (5, 1)}))
    m = detection_metrics(truth.regions, truth, PART8, NEAR_ORIGIN)
    assert m == (3, 0, 3, 0, 0)


def test_metrics_diagonal_neighbor():
    truth = GroundTruth(frozenset({(5, 5)}))
    m = detection_metrics({(6, 6)}, truth, PART8, NEAR_ORIGIN)
    # missed exactly, but the anomaly counts as regionally discovered and
    # the flag is not a regional false alarm
    assert m == (0, 1, 1, 0, 0)


def test_metrics_origin_false_alarm():
    truth = GroundTruth(frozenset({(5, 5)}))
    m = detection_metrics({(1, 1)}, truth, PART8, NEAR_ORIGIN)
    assert m == (0, 1, 0, 1, 1)
    # same flag scored against a source at the opposite corner
    m2 = detection_metrics({(1, 1)}, truth, PART8, FAR_CORNER)
    assert m2.origin_false == 0
    m3 = detection_metrics({(6, 6)}, GroundTruth(frozenset({(0, 0)})),
                           PART8, FAR_CORNER)
    assert m3.origin_false == 1


def test_metrics_true_flag_never_origin_false():
    truth = GroundTruth(frozenset({(1, 1)}))
    m = detection_metrics({(1, 1)}, truth, PART8, NEAR_ORIGIN)
    assert m == (1, 0, 1, 0, 0)


def test_origin_block_geometry():
    assert origin_block(PART8, (0, 0)) == {(a, b) for a in range(3) for b in range(3)}
    assert origin_block(PART8, (7, 7)) == {
        (a, b) for a in range(5, 8) for b in range(5, 8)
    }
    # a 2x2 partition cannot hold a full 3x3 block: clamp to what exists
    small = Partition(129, 129, 2, 2)
    assert origin_block(small, (0, 0)) == {(0, 0), (0, 1), (1, 0), (1, 1)}
    with pytest.raises(ValueError):
        origin_block(PART8, (8, 0))


def test_metrics_count_identities(rng):
    all_regions = region_ids(PART8)
    for _ in range(30):
        n_truth = int(rng.integers(1, 6))
        n_flag = int(rng.integers(0, 8))
        truth_pick = rng.choice(len(all_regions), size=n_truth, replace=False)
        flag_pick = rng.choice(len(all_regions), size=n_flag, replace=False)
        truth = GroundTruth(frozenset(all_regions[i] for i in truth_pick))
        flagged = {all_regions[i] for i in flag_pick}
        m = detection_metrics(flagged, truth, PART8, NEAR_ORIGIN)
        assert m.correct + m.false == len(flagged)
        assert 0 <= m.regional_correct <= len(truth.regions)
        assert m.regional_false <= m.false
        assert m.origin_false <= m.false


def test_regional_discovery_monotone_in_flags(rng):
    truth = GroundTruth(frozenset({(2, 2), (6, 1), (4, 6)}))
    flagged = set()
    last = 0
    order = rng.permutation(len(region_ids(PART8)))
    for i in order[:20]:
        flagged.add(region_ids(PART8)[int(i)])
        m = detection_metrics(flagged, truth, PART8, NEAR_ORIGIN)
        assert m.regional_correct >= last
        last = m.regional_correct


def test_metrics_validation():
    truth = GroundTruth(frozenset({(1, 1)}))
    with pytest.raises(ValueError):
        detection_metrics({(9, 0)}, truth, PART8, NEAR_ORIGIN)
    with pytest.raises(ValueError):
        detection_metrics(set(), GroundTruth(frozenset({(0, 9)})), PART8, NEAR_ORIGIN)


# ---------------------------------------------------------------------------
# Monte Carlo sweep
# ---------------------------------------------------------------------------

def _sweep_inputs(ci_bench1):
    scenario, cube = ci_bench1
    part = scenario.partition()
    config = scenario.detection_config()
    truth = GroundTruth.from_defects(list(scenario.defects), part)
    return cube, part, config, truth


def test_sweep_full_ratio_matches_unmasked(ci_bench1):
    cube, part, config, truth = _sweep_inputs(ci_bench1)
    base = run_detection(cube, part, config)
    expect = detection_metrics(base.flagged, truth, part, config.excitation.source)
    rows = monte_carlo_sweep(
        cube, part, config, [1.0], trials=3, base_seed=5, truth=truth
    )
    assert len(rows) == 1
    row = rows[0]
    assert row.nz == 1.0 and row.trials == 3 and row.seed == 5
    assert (row.correct, row.false, row.regional_correct,
            row.regional_false, row.origin_false) == tuple(
        float(v) for v in expect
    )
    # full sampling leaves nothing to vary across trials
    assert row.regional_correct_se == 0.0


def test_sweep_is_deterministic(ci_bench1):
    cube, part, config, truth = _sweep_inputs(ci_bench1)
    kwargs = dict(ratios=[0.5, 0.2], trials=3, base_seed=17, truth=truth)
    a = monte_carlo_sweep(cube, part, config, **kwargs)
    b = monte_carlo_sweep(cube, part, config, **kwargs)
    assert sweep_csv_text(a) == sweep_csv_text(b)


def test_sweep_trial_seeds_are_base_plus_index(ci_bench1):
    cube, part, config, truth = _sweep_inputs(ci_bench1)

    def one(seed):
        return monte_carlo_sweep(
            cube, part, config, [0.33], trials=1, base_seed=seed, truth=truth
        )[0]

    merged = monte_carlo_sweep(
        cube, part, config, [0.33], trials=2, base_seed=9, truth=truth
    )[0]
    first, second = one(9), one(10)
    assert merged.correct == pytest.approx((first.correct + second.correct) / 2)
    assert merged.regional_correct == pytest.approx(
        (first.regional_correct + second.regional_correct) / 2
    )


def test_sweep_cross_pattern_row(ci_bench1):
    cube, part, config, truth = _sweep_inputs(ci_bench1)
    rows = monte_carlo_sweep(
        cube, part, config, [0.5, 0.2], trials=4, base_seed=0,
        truth=truth, pattern="cross", stride=2,
    )
    assert len(rows) == 1  # the ratio list is ignored for the fixed pattern
    assert rows[0].nz == pytest.approx(33 / 289)
    assert rows[0].regional_correct_se == 0.0  # deterministic mask


def test_sweep_validation(ci_bench1):
    cube, part, config, truth = _sweep_inputs(ci_bench1)
    with pytest.raises(ValueError):
        monte_carlo_sweep(cube, part, config, [0.5], trials=0,
                          base_seed=0, truth=truth)
    with pytest.raises(ValueError):
        monte_carlo_sweep(cube, part, config, [0.5], trials=1,
                          base_seed=0, truth=truth, pattern="fancy")
    # the double cross is one shared pattern, in a sweep as in a file
    with pytest.raises(ConfigError, match="double cross is one shared pattern"):
        monte_carlo_sweep(cube, part, config, [], trials=1, base_seed=0,
                          truth=truth, pattern="cross", stride=2,
                          sharing=PER_REGION)


def test_sweep_recipes_are_built_in_one_place():
    assert sweep_recipes([0.5, 1], "random", 4, PER_REGION) == [
        MaskSettings("random", ratio=0.5, sharing=PER_REGION),
        MaskSettings("random", ratio=1.0, sharing=PER_REGION),
    ]
    # the cross ignores the ratio list
    assert sweep_recipes([0.5, 0.2], "cross", 2, SHARED) == [MaskSettings("cross", stride=2)]


def test_mask_recipe_missing_its_argument_is_refused_where_made():
    # a random recipe needs a real ratio and a cross an integer stride;
    # a bool is neither
    for kind, arg in (("random", {}), ("random", {"ratio": True}),
                      ("random", {"ratio": "0.5"}), ("cross", {}),
                      ("cross", {"stride": False}), ("cross", {"stride": 2.0})):
        with pytest.raises(ValueError, match=f"mask '{kind}' needs"):
            MaskSettings(kind, **arg)
    assert MaskSettings("random", ratio=np.float64(0.5)).ratio == 0.5
    assert MaskSettings("cross", stride=np.int64(2)).stride == 2


def test_sweep_refuses_a_bad_recipe_before_scoring(ci_bench1, monkeypatch):
    # 0.01 keeps 3 of 289 nodes: refused before the 0.5 trials are scored,
    # and a per-region double cross before the window set is built
    import wavesaliency.sampling as sampling

    cube, part, config, truth = _sweep_inputs(ci_bench1)
    masks = _record_detections(monkeypatch)
    with pytest.raises(ConfigError, match="keeps only 3 of 289"):
        monte_carlo_sweep(cube, part, config, [0.5, 0.01], trials=50,
                          base_seed=0, truth=truth)
    assert masks == []
    built = []
    monkeypatch.setattr(sampling, "build_window_set",
                        lambda *args: built.append(args))
    with pytest.raises(ConfigError, match="double cross is one shared pattern"):
        monte_carlo_sweep(cube, part, config, [], trials=1, base_seed=0,
                          truth=truth, pattern="cross", sharing=PER_REGION)
    assert built == []


@pytest.fixture(scope="module")
def far_source_bench1():
    """bench1_ci driven from the far corner node (128, 128), and its cube."""
    text = bundled_config_path("bench1_ci").read_text()
    for key in ("source_l", "source_m"):
        text = text.replace(f"{key} = 0", f"{key} = 128")
    scenario = parse_scenario(text.replace("mode = pair", "mode = analytic"))
    assert scenario.excitation.source == FAR_CORNER
    return scenario, simulate_scenario(scenario)


def test_metrics_score_origin_false_around_a_moved_source(far_source_bench1):
    # false flags near region (7, 7) are origin false alarms of this plate;
    # those near region (0, 0) are not
    scenario, cube = far_source_bench1
    part = scenario.partition()
    truth = GroundTruth.from_defects(list(scenario.defects), part)
    detected = run_detection(cube, part, scenario.detection_config()).flagged
    near_source, near_origin = {(7, 7), (6, 5)}, {(0, 0), (1, 2)}
    flagged = detected | near_source | near_origin
    assert not (near_source | near_origin) & truth.regions
    block = {(a, b) for a in range(5, 8) for b in range(5, 8)}
    m = detection_metrics(flagged, truth, part, scenario.excitation.source)
    assert m.origin_false == len((flagged - truth.regions) & block)
    assert m.origin_false >= len(near_source)
    without_origin_flags = detection_metrics(
        flagged - near_origin, truth, part, scenario.excitation.source
    )
    assert without_origin_flags.origin_false == m.origin_false


def test_scenario_truth_is_the_regions_its_defects_alter():
    # on each bundled plate: three inclusions, the slot's four regions, and
    # no region on a pristine plate
    for name, count in (("bench1", 3), ("bench2", 4), ("pristine", 0),
                        ("bench1_ci", 3), ("pristine_ci", 0)):
        scenario = load_scenario(bundled_config_path(name))
        truth = scenario.truth()
        assert truth == GroundTruth.from_defects(scenario.defects, scenario.partition())
        assert len(truth.regions) == count, name


def test_score_scenario_is_detection_metrics_against_its_truth(ci_bench1):
    scenario, cube = ci_bench1
    part = scenario.partition()
    truth = GroundTruth.from_defects(scenario.defects, part)
    detected = run_detection(cube, part, scenario.detection_config()).flagged
    for flagged in (detected, detected | {(0, 0), (1, 1)}, set()):
        assert score_scenario(scenario, flagged) == detection_metrics(
            flagged, truth, part, scenario.excitation.source
        )


def test_score_scenario_counts_origin_false_around_the_source(far_source_bench1):
    # the far-corner plate's origin block surrounds region (7, 7), not (0, 0)
    scenario, _ = far_source_bench1
    near_source, near_origin = {(7, 7), (6, 5)}, {(0, 0), (1, 2)}
    assert not (near_source | near_origin) & scenario.truth().regions
    assert score_scenario(scenario, near_source | near_origin).origin_false == 2
    assert score_scenario(scenario, near_origin).origin_false == 0


def test_sweep_scores_origin_false_around_the_source(far_source_bench1):
    # the sweep scores every trial around region (7, 7), not region (0, 0)
    scenario, cube = far_source_bench1
    part, config = scenario.partition(), scenario.detection_config()
    truth = GroundTruth.from_defects(list(scenario.defects), part)
    trials = 6
    row = monte_carlo_sweep(cube, part, config, [0.5], trials=trials,
                            base_seed=2026, truth=truth)[0]
    near_source = [
        detection_metrics(
            run_detection(cube, part, config,
                          mask=random_mask(17, 17, 0.5, seed=2026 + t)).flagged,
            truth, part, FAR_CORNER,
        ).origin_false
        for t in range(trials)
    ]
    assert row.origin_false == pytest.approx(np.mean(near_source))


def _record_detections(monkeypatch):
    """The mask of every detection the sweep makes, in call order."""
    import wavesaliency.sampling as sampling

    masks = []
    original = sampling.run_detection

    def counted(*args, **kwargs):
        masks.append(kwargs.get("mask"))
        return original(*args, **kwargs)

    monkeypatch.setattr(sampling, "run_detection", counted)
    return masks


def test_random_sweep_makes_one_masked_detection_per_trial(ci_bench1, monkeypatch):
    cube, part, config, truth = _sweep_inputs(ci_bench1)
    masks = _record_detections(monkeypatch)
    monte_carlo_sweep(cube, part, config, [0.5, 0.2, 0.07], trials=2,
                      base_seed=0, truth=truth)
    assert len(masks) == 3 * 2
    assert all(mask is not None for mask in masks)


def test_cross_sweep_scores_its_mask_once(ci_bench1, monkeypatch):
    cube, part, config, truth = _sweep_inputs(ci_bench1)
    masks = _record_detections(monkeypatch)
    rows = monte_carlo_sweep(cube, part, config, [], trials=5, base_seed=0,
                             truth=truth, pattern="cross", stride=2)
    assert len(masks) == 1 and masks[0] is not None
    assert rows[0].trials == 5


def test_sweep_csv_format(tmp_path):
    rows = [
        # hand-built rows: the writer must not care where they came from
        _row(0.5, 3.0, 0.25, 3.0, 0.0, 0.25, 4, 123),
        _row(0.07, 2.5, 1.0, 2.75, 0.5, 0.5, 4, 123),
    ]
    text = sweep_csv_text(rows)
    lines = text.strip().split("\n")
    assert lines[0] == ",".join(SWEEP_CSV_HEADER)
    assert lines[0] == "nz,correct,false,regional_correct,regional_false,origin_false,trials,seed"
    assert lines[1] == "0.5,3.000000,0.250000,3.000000,0.000000,0.250000,4,123"
    assert lines[2] == "0.07,2.500000,1.000000,2.750000,0.500000,0.500000,4,123"
    path = tmp_path / "sweep.csv"
    write_text(path, text)
    assert path.read_text() == text


def _row(nz, c, f, rc, rf, of, trials, seed):
    from wavesaliency.sampling import SweepRow

    return SweepRow(nz=nz, correct=c, false=f, regional_correct=rc,
                    regional_false=rf, origin_false=of, trials=trials,
                    seed=seed)


def test_metrics_tuple_round_trip():
    m = DetectionMetrics(3, 1, 3, 0, 1)
    assert tuple(m) == (3, 1, 3, 0, 1)
    assert m._asdict() == dict(correct=3, false=1, regional_correct=3,
                               regional_false=0, origin_false=1)


def test_score_names_have_one_home():
    # the five scores are named once, by DetectionMetrics: the sweep row
    # carries them in its order, and the CSV header reads them from it
    from dataclasses import fields

    from wavesaliency.sampling import SweepRow

    assert SWEEP_CSV_HEADER == ["nz", *DetectionMetrics._fields, "trials", "seed"]
    names = [f.name for f in fields(SweepRow)]
    assert tuple(names[1:6]) == DetectionMetrics._fields
    assert names[0] == "nz" and names[6:] == ["trials", "seed", "regional_correct_se"]


def test_bench1_sweeps_match_the_eigh_reference(bench1, monkeypatch):
    # at 257 nodes full sampling and the 0.5 and 0.33 masks (Gram orders
    # 205, 144 and 95) take the batched Lanczos fit; with _KRYLOV_ORDER
    # above every order each sweep runs on eigh alone, and its CSV must be
    # byte-identical.  The golden plates have 129 nodes, where no Gram
    # reaches the Lanczos order.
    scenario, cube = bench1
    forms = (
        dict(ratios=[0.5, 0.33, 0.2, 0.1, 0.07]),
        dict(ratios=[0.2], sharing=PER_REGION),
        dict(ratios=[], pattern="cross", stride=1),
        dict(ratios=[], pattern="cross", stride=2),
    )

    def sweeps():
        return [sweep_csv_text(sweep_scenario(scenario, cube, trials=3, **form))
                for form in forms]

    fitted = sweeps()
    monkeypatch.setattr(saliency, "_KRYLOV_ORDER", scenario.partition().nodes_per_region + 1)
    assert sweeps() == fitted
