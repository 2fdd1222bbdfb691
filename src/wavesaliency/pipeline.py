"""One-call detection runs: cube in, flagged regions out.

Chains velocity estimation, transit-window extraction and low-rank saliency
scoring with a single configuration object, so the command-line tools, the
Monte Carlo sweep and tests all exercise the identical path.  A scenario
runs through ``config.detect_scenario`` and ``config.sweep_scenario``,
which wire in its partition, detection config, mask, seed and defects,
and a flagged set is scored against its defects by
``config.score_scenario``; ``run_detection`` samples every node unless
its caller passes a mask.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .cube import DataCube, hold_plain_numbers
from .saliency import SaliencyMap, saliency_map
from .sim import ExcitationSpec
from .windowing import (
    Partition,
    ProbePair,
    RegionalWindowSet,
    estimate_group_velocity,
    extract_windows,
)


@dataclass(frozen=True)
class DetectionConfig:
    """Everything the detection chain needs besides the cube itself.

    ``velocity`` is the group velocity in m/s (the "analytic" probe mode),
    or the probe pair it is estimated from.
    """

    excitation: ExcitationSpec
    velocity: ProbePair | float
    window_len: int
    rank: int
    ratio: float
    theta: float

    def __post_init__(self):
        hold_plain_numbers(self)
        if isinstance(self.velocity, bool):
            raise ValueError(f"velocity {self.velocity} is a bool, not a speed")
        if not isinstance(self.velocity, ProbePair) and not 0 < self.velocity < float("inf"):
            raise ValueError(f"velocity {self.velocity} is not positive and finite")


@dataclass(frozen=True)
class DetectionResult:
    """Outcome of one detection run."""

    group_velocity: float
    window_set: RegionalWindowSet = field(repr=False)
    saliency: SaliencyMap = field(repr=False)
    flagged: frozenset[tuple[int, int]]


def build_window_set(
    cube: DataCube, partition: Partition, config: DetectionConfig
) -> RegionalWindowSet:
    """Time every region's window with the configured or probe-estimated speed.

    The window set does not depend on the mask, so a Monte Carlo sweep
    builds it once and shares it across all of its masked detections.
    A cube whose grid is not the partition's raises ConfigError before
    any probe is read.
    """
    partition.check_grid(cube)
    speed = config.velocity
    if isinstance(speed, ProbePair):
        speed = estimate_group_velocity(cube, speed)
    return extract_windows(
        cube, partition, float(speed), config.excitation, config.window_len
    )


def run_detection(
    cube: DataCube,
    partition: Partition,
    config: DetectionConfig,
    mask=None,
    window_set: RegionalWindowSet | None = None,
) -> DetectionResult:
    """Run the full chain on one cube.

    A precomputed ``window_set`` (from ``build_window_set`` for the same
    cube, partition and config) skips the velocity and windowing stages.
    """
    if window_set is None:
        window_set = build_window_set(cube, partition, config)
    sal = saliency_map(
        window_set,
        rank=config.rank,
        ratio=config.ratio,
        mask=mask,
    )
    return DetectionResult(
        group_velocity=window_set.group_velocity,
        window_set=window_set,
        saliency=sal,
        flagged=sal.flagged_regions(config.theta),
    )
