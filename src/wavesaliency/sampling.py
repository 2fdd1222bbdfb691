"""Spatial subsampling masks, detection scoring, and the Monte Carlo sweep.

A mask selects which of a region's p1 x p2 nodes feed the snapshot matrix.
Random masks draw a fixed-size node subset from a seeded generator; the
double-cross mask is deterministic: the middle row, middle column and both
diagonals, optionally thinned by a stride anchored at the center node.

By default one pattern is shared by every region (columns of the snapshot
matrix then live in a common coordinate system, which is what makes a
shared low-rank subspace meaningful).  Per-region patterns, behind the
``sharing`` flag, give each column different nodes, so the snapshot is not
low rank and the mode measures how detection degrades without that
premise: on the tau = 0 snapshot of ``bench1`` at ratio 0.5, lambda_14 /
lambda_0 is 0.20 per region against 0.0015 shared, and the mean regional
false flags over 20 trials are 92.8 of 205 regions against 1.15.  Such a
snapshot cannot pass the Lanczos certificate, so ``saliency.score_offsets``
sees the mask's two-dimensional rows and sends every offset to ``eigh``
without starting a pass (the fit rule is in the ``saliency`` docstring).
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .cube import DataCube, GridPoint, plain_number
from .errors import ConfigError
from .pipeline import DetectionConfig, build_window_set, run_detection
from .sim import DefectSpec, defect_cells, effective_source
from .windowing import Partition

SHARED = "shared"
PER_REGION = "per_region"

MIN_RETAINED = 4


@dataclass(frozen=True)
class Mask:
    """Retained node positions within one p1 x p2 region.

    ``grid[l, m]`` is True for a kept node.  ``kind`` records provenance
    ("random" with ``seed``, or "double_cross" with ``stride``).  With
    ``sharing == PER_REGION`` the grid shows the first region's pattern and
    ``row_indices`` derives an independent same-size pattern per region
    from the same seed stream.  A grid, sharing mode or seed that cannot be
    used raises ConfigError.
    """

    grid: np.ndarray = field(repr=False)
    kind: str
    sharing: str = SHARED
    seed: int | None = None
    stride: int | None = None

    def __post_init__(self):
        g = np.asarray(self.grid)
        if g.ndim != 2 or g.dtype != np.bool_:
            raise ConfigError("mask grid must be a 2-D boolean array")
        if self.sharing not in (SHARED, PER_REGION):
            raise ConfigError(f"unknown sharing mode {self.sharing!r}")
        if self.sharing == PER_REGION and self.seed is None:
            raise ConfigError("per-region sharing needs a seed to derive patterns")
        kept = int(np.count_nonzero(g))
        if kept < MIN_RETAINED:
            raise ConfigError(
                f"mask keeps {kept} node(s); at least {MIN_RETAINED} required"
            )
        g.flags.writeable = False
        object.__setattr__(self, "grid", g)

    @property
    def retained_count(self) -> int:
        return int(np.count_nonzero(self.grid))

    @property
    def achieved_ratio(self) -> float:
        return self.retained_count / self.grid.size

    def flat_indices(self) -> np.ndarray:
        """Sorted snapshot-row indices (x-fastest node flattening)."""
        return np.flatnonzero(self.grid.ravel(order="F"))

    def row_indices(self, p1: int, p2: int, region_count: int) -> np.ndarray:
        """Row selections for the snapshot assembler.

        Returns a sorted 1-D index vector when one pattern is shared, or a
        (retained, region_count) array giving every region its own column of
        row indices when ``sharing == PER_REGION``.
        """
        if self.grid.shape != (p1, p2):
            raise ConfigError(
                f"mask built for {self.grid.shape[0]}x{self.grid.shape[1]} "
                f"regions cannot be applied to {p1}x{p2} regions"
            )
        if self.sharing == SHARED:
            return self.flat_indices()
        return _draw_patterns(self.seed, p1 * p2, self.retained_count, region_count).T


def _draw_patterns(seed: int, total: int, kept: int, count: int) -> np.ndarray:
    """``count`` random patterns of ``kept`` of ``total`` nodes, one per row.

    Row j is the first ``kept`` entries of the j-th shuffle of
    ``arange(total)`` drawn from one generator seeded with ``seed``, sorted.
    Row 0 is the pattern ``random_mask`` records in its grid.
    """
    rng = np.random.default_rng(seed)
    nodes = np.tile(np.arange(total), (count, 1))
    return np.sort(rng.permuted(nodes, axis=1)[:, :kept], axis=1)


def random_mask(
    p1: int,
    p2: int,
    target_ratio: float,
    seed: int,
    sharing: str = SHARED,
) -> Mask:
    """Uniform node subset of exactly round(target_ratio * p1 * p2) positions.

    Pure function of its arguments: the same seed always yields the same
    mask.  The grid records the first pattern drawn from the seed, which in
    PER_REGION mode is exactly region 0's pattern.
    """
    if not 0.0 < target_ratio <= 1.0:
        raise ConfigError(f"target ratio must be in (0, 1], got {target_ratio}")
    total = p1 * p2
    kept = int(round(target_ratio * total))
    if kept < MIN_RETAINED:
        raise ConfigError(
            f"target ratio {target_ratio} keeps only {kept} of {total} "
            f"nodes; at least {MIN_RETAINED} required"
        )
    flat = _draw_patterns(seed, total, kept, 1)[0]
    grid = np.zeros((p1, p2), dtype=bool)
    grid[np.unravel_index(flat, (p1, p2), order="F")] = True
    return Mask(grid=grid, kind="random", sharing=sharing, seed=seed)


def double_cross_mask(p1: int, p2: int, stride: int = 1) -> Mask:
    """Middle row + middle column + both diagonals, thinned by ``stride``.

    Thinning keeps every stride-th index counted from the center, so the
    center node always survives and the pattern stays symmetric.  Requires
    a square region with odd side (the center must be a node).
    """
    if p1 != p2:
        raise ConfigError(
            f"double cross needs a square region, got {p1}x{p2}"
        )
    if p1 % 2 == 0:
        raise ConfigError(
            f"double cross needs an odd region side (a center node), got {p1}"
        )
    if stride not in (1, 2, 4):
        raise ConfigError(f"stride must be 1, 2 or 4, got {stride}")
    p = p1
    center = (p - 1) // 2
    idx = np.array([i for i in range(p) if (i - center) % stride == 0])
    grid = np.zeros((p, p), dtype=bool)
    grid[idx, center] = True          # middle column of each row => y-axis line
    grid[center, idx] = True          # middle row line
    grid[idx, idx] = True             # main diagonal
    grid[idx, p - 1 - idx] = True     # anti-diagonal
    return Mask(grid=grid, kind="double_cross", sharing=SHARED, stride=stride)


@dataclass(frozen=True)
class MaskSettings:
    """Subsampling request: full sampling, seeded random, or double cross."""

    kind: str = "full"           # full | random | cross
    ratio: float | None = None   # for random
    stride: int | None = None    # for cross
    sharing: str = SHARED

    def __post_init__(self):
        if self.kind not in ("full", "random", "cross"):
            raise ValueError(f"unknown mask kind {self.kind!r}")
        if self.sharing not in (SHARED, PER_REGION):
            raise ValueError(f"unknown sharing mode {self.sharing!r}")
        if self.kind != "full":
            name, kind, noun = (("ratio", "float", "a real ratio") if self.kind == "random"
                                else ("stride", "int", "an integer stride"))
            value = getattr(self, name)
            try:
                object.__setattr__(self, name, plain_number(name, value, kind))
            except ValueError:
                raise ValueError(f"mask {self.kind!r} needs {noun}, got {value!r}") from None

    def __str__(self) -> str:
        """The text form that manifests and ``.meta`` files echo."""
        if self.kind == "full":
            return "full"
        if self.kind == "random":
            return f"random {self.ratio} sharing={self.sharing}"
        return f"cross {self.stride} sharing={self.sharing}"

    def build(self, partition: Partition, seed: int) -> Mask | None:
        """The mask for ``partition``'s regions; None for full sampling.

        Only a random mask can be drawn per region.
        """
        if self.kind != "random" and self.sharing != SHARED:
            what = "full sampling" if self.kind == "full" else "the double cross"
            raise ConfigError(f"{what} is one shared pattern; "
                              f"sharing = {self.sharing} does not apply")
        if self.kind == "full":
            return None
        if self.kind == "random":
            return random_mask(
                partition.p1, partition.p2, self.ratio, seed, self.sharing
            )
        return double_cross_mask(partition.p1, partition.p2, self.stride)


# ---------------------------------------------------------------------------
# Ground truth and scoring
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GroundTruth:
    """Regions that genuinely contain an anomaly, for a given partition."""

    regions: frozenset[tuple[int, int]]

    @classmethod
    def from_defects(
        cls,
        defects: Sequence[DefectSpec],
        partition: Partition,
    ) -> "GroundTruth":
        hit = set()
        for defect in defects:
            for cl, cm in defect_cells(defect, partition.n1, partition.n2):
                hit.add(partition.region_of_cell(cl, cm))
        return cls(regions=frozenset(hit))

    def validate(self, partition: Partition) -> None:
        for a, b in self.regions:
            if not (0 <= a < partition.regions_x and 0 <= b < partition.regions_y):
                raise ValueError(f"truth region ({a}, {b}) outside partition")


class DetectionMetrics(NamedTuple):
    """Scorecard of one flagged set against the ground truth.

    correct/false partition the flagged set by exact membership;
    regional_correct counts true anomalies with a flag on themselves or
    an 8-neighbor; regional_false counts flags at Chebyshev distance >= 2
    from every truth region; origin_false counts false flags inside the 3x3
    region block around the region that holds the driven node.  The field
    names are the score columns of ``SweepRow`` and the sweep CSV.
    """

    correct: int
    false: int
    regional_correct: int
    regional_false: int
    origin_false: int


def _chebyshev(p: tuple[int, int], q: tuple[int, int]) -> int:
    return max(abs(p[0] - q[0]), abs(p[1] - q[1]))


def origin_block(partition: Partition, region: tuple[int, int]) -> set[tuple[int, int]]:
    """The 3x3 block of regions around ``region``, moved inside the partition."""

    def axis_range(index: int, count: int) -> range:
        if not 0 <= index < count:
            raise ValueError(f"region index {index} outside 0..{count - 1}")
        lo = min(max(index - 1, 0), max(count - 3, 0))
        return range(lo, min(lo + 3, count))

    xs = axis_range(region[0], partition.regions_x)
    ys = axis_range(region[1], partition.regions_y)
    return {(a, b) for a in xs for b in ys}


def detection_metrics(
    flagged,
    truth: GroundTruth,
    partition: Partition,
    source: GridPoint,
) -> DetectionMetrics:
    """Score a flagged-region set; see DetectionMetrics for the definitions.

    ``source`` is the excitation's source node.  The origin block surrounds
    the region that holds the node it drives (``sim.effective_source``).
    """
    source.validate(partition.n1, partition.n2)
    driven = effective_source(source, partition.n1, partition.n2)
    # The cell whose lowest corner is the driven node lies in its region.
    block = origin_block(partition, partition.region_of_cell(driven.l, driven.m))
    flagged = {(int(a), int(b)) for a, b in flagged}
    truth.validate(partition)
    for a, b in flagged:
        if not (0 <= a < partition.regions_x and 0 <= b < partition.regions_y):
            raise ValueError(f"flagged region ({a}, {b}) outside partition")

    truths = truth.regions
    correct = len(flagged & truths)
    false = len(flagged - truths)
    regional_correct = sum(
        1 for t in truths if any(_chebyshev(f, t) <= 1 for f in flagged)
    )
    regional_false = sum(
        1 for f in flagged if all(_chebyshev(f, t) >= 2 for t in truths)
    )
    origin_false = sum(1 for f in flagged - truths if f in block)
    return DetectionMetrics(
        correct, false, regional_correct, regional_false, origin_false
    )


# ---------------------------------------------------------------------------
# Monte Carlo sweep
# ---------------------------------------------------------------------------

def sweep_recipes(ratios, pattern: str, stride: int, sharing: str) -> list[MaskSettings]:
    """A sweep's random recipe at each of ``ratios``, or its one double cross."""
    if pattern == "cross":
        return [MaskSettings("cross", stride=stride, sharing=sharing)]
    if pattern != "random":
        raise ValueError(f"unknown mask pattern {pattern!r}")
    return [MaskSettings("random", ratio=r, sharing=sharing) for r in ratios]


@dataclass(frozen=True)
class SweepRow:
    """Averaged metrics for one subsampling ratio.

    The score fields, ``correct`` to ``origin_false``, are those of
    ``DetectionMetrics``, in its order.
    """

    nz: float
    correct: float
    false: float
    regional_correct: float
    regional_false: float
    origin_false: float
    trials: int
    seed: int
    # Standard error of the regionally-correct average; carried for trend
    # comparisons, not part of the CSV row format.
    regional_correct_se: float = 0.0


def monte_carlo_sweep(
    cube: DataCube,
    partition: Partition,
    config: DetectionConfig,
    ratios,
    trials: int,
    base_seed: int,
    *,
    truth: GroundTruth,
    pattern: str = "random",
    stride: int = 1,
    sharing: str = SHARED,
) -> list[SweepRow]:
    """Average detection metrics over the masks of ``sweep_recipes``, per recipe.

    The window set is built once and every trial is one masked detection
    on it.  Trial t of every random recipe uses seed ``base_seed + t``, so
    a parallel implementation partitioned over trials would reproduce the
    exact same table.  A cross recipe is one fixed mask: it is scored once
    and its score counts for all ``trials``, so its row reads as ``trials``
    identical trials with zero standard error, at the achieved ratio.
    Every mask comes from ``MaskSettings.build``, so a double cross with
    ``sharing=PER_REGION`` raises ConfigError as it does in a scenario file;
    each recipe's first mask is built before the window set, so a recipe
    that cannot be drawn fails before any trial is scored.
    Trials are scored by ``detection_metrics`` around the source of
    ``config.excitation``.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    recipes = sweep_recipes(ratios, pattern, stride, sharing)
    # each recipe's first mask, so one that cannot be drawn fails unscored
    firsts = [settings.build(partition, base_seed) for settings in recipes]
    window_set = build_window_set(cube, partition, config)

    def score(mask: Mask) -> DetectionMetrics:
        result = run_detection(
            cube, partition, config, mask=mask, window_set=window_set
        )
        return detection_metrics(
            result.flagged, truth, partition, config.excitation.source
        )

    rows: list[SweepRow] = []
    for settings, first in zip(recipes, firsts):
        if settings.kind == "cross":     # one fixed mask, counted for every trial
            nz, scores = first.achieved_ratio, [score(first)] * trials
        else:
            nz = settings.ratio
            scores = [score(first)] + [
                score(settings.build(partition, base_seed + t)) for t in range(1, trials)
            ]
        rows.append(_average_row(nz, scores, trials, base_seed))
    return rows


def _average_row(nz: float, scores, trials: int, seed: int) -> SweepRow:
    arr = np.asarray(scores, dtype=np.float64)
    means = dict(zip(DetectionMetrics._fields, map(float, arr.mean(axis=0))))
    regional = arr[:, DetectionMetrics._fields.index("regional_correct")]
    se = float(regional.std(ddof=1) / np.sqrt(trials)) if trials > 1 else 0.0
    return SweepRow(nz, **means, trials=trials, seed=seed, regional_correct_se=se)


SWEEP_CSV_HEADER = ["nz", *DetectionMetrics._fields, "trials", "seed"]


def sweep_csv_text(rows: list[SweepRow]) -> str:
    """One row per ratio, fixed column order, 6-decimal averages."""
    lines = [",".join(SWEEP_CSV_HEADER)]
    lines += [
        ",".join([f"{row.nz:g}",
                  *(f"{getattr(row, name):.6f}" for name in DetectionMetrics._fields),
                  str(row.trials), str(row.seed)])
        for row in rows
    ]
    return "\n".join(lines) + "\n"
