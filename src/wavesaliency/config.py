"""Scenario files: a line-oriented ``[block]`` / ``key = value`` format.

One file describes a complete experiment — plate material, grid and time
stepping, excitation burst, any number of defects, the detection settings
and the velocity probes — so a benchmark is a single self-contained,
diff-friendly text fixture.  Python's configparser is not used because
defect blocks must be repeatable.  Every number must be finite; an integer
key also takes a float spelling of an exact integer (``65.0``).

Example::

    seed = 2026

    [material]
    youngs_modulus = 71e9
    poisson_ratio = 0.33
    density = 2700
    thickness = 0.005
    side_length = 0.25

    [grid]
    n1 = 257
    n2 = 257
    steps = 1701
    safety = 0.9
    record_every = 21

    [excitation]
    frequency = 500e3
    cycles = 5
    amplitude = 1.0

    [defect]
    kind = point_inclusion
    x = 0.20
    y = 0.42
    modulus_scale = 100
    density_scale = 100

    [detection]
    regions_x = 16
    regions_y = 16
    window_len = 11
    rank = 14
    ratio = 0.25
    theta = 0.5
    mask = full

    [probes]
    mode = pair
    first_l = 61
    first_m = 31
    second_l = 161
    second_m = 81
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

from . import sim
from .cube import DataCube, GridPoint
from .errors import ConfigError, GeometryError, MaskError, PartitionError
from .pipeline import DetectionConfig
from .sampling import PER_REGION, SHARED, Mask, double_cross_mask, random_mask
from .sim import (
    DEFAULT_SPACE_ORDER,
    DefectSpec,
    ExcitationSpec,
    MaterialSpec,
    analytic_group_velocity,
)
from .windowing import DEFAULT_WINDOW_LEN, Partition, ProbePair

_KNOWN_BLOCKS = ("material", "grid", "excitation", "defect", "detection", "probes")

# Fraction of the plate side at which the default velocity probes sit.  They
# ride the first interior node row (m = 1): the simply supported edge itself
# never moves.
DEFAULT_PROBE_FRACTIONS = (0.3, 0.7)


@dataclass(frozen=True)
class GridSettings:
    """Spatial grid and time stepping of one scenario."""

    n1: int
    n2: int
    steps: int
    safety: float = 0.9
    record_every: int = 1
    space_order: int = DEFAULT_SPACE_ORDER


@dataclass(frozen=True)
class MaskSettings:
    """Subsampling request: full sampling, seeded random, or double cross."""

    kind: str = "full"           # full | random | cross
    ratio: float | None = None   # for random
    stride: int | None = None    # for cross
    sharing: str = SHARED

    def build(self, partition: Partition, seed: int) -> Mask | None:
        if self.kind == "full":
            return None
        if self.kind == "random":
            return random_mask(
                partition.p1, partition.p2, self.ratio, seed, self.sharing
            )
        if self.sharing != SHARED:
            raise MaskError("the double cross is one shared pattern; "
                            f"sharing = {self.sharing} does not apply")
        return double_cross_mask(partition.p1, partition.p2, self.stride)


@dataclass(frozen=True)
class DetectionSettings:
    """Partitioning and decision parameters of one scenario."""

    regions_x: int
    regions_y: int
    window_len: int = DEFAULT_WINDOW_LEN
    rank: int | str = "auto"
    ratio: float = 0.25
    theta: float = 0.5
    mask: MaskSettings = field(default_factory=MaskSettings)


@dataclass(frozen=True)
class ProbeSettings:
    """Where the group velocity comes from: a probe pair or plate theory."""

    mode: str = "pair"            # pair | analytic
    pair: ProbePair | None = None  # None in pair mode = boundary defaults


@dataclass(frozen=True)
class ScenarioConfig:
    """Everything one experiment needs, parsed and cross-validated."""

    material: MaterialSpec
    grid: GridSettings
    excitation: ExcitationSpec
    defects: tuple[DefectSpec, ...]
    detection: DetectionSettings
    probes: ProbeSettings
    seed: int = 0

    def partition(self) -> Partition:
        return Partition(
            self.grid.n1, self.grid.n2,
            self.detection.regions_x, self.detection.regions_y,
        )

    def probe_pair(self) -> ProbePair:
        """The configured pair, or the boundary defaults at 0.3L / 0.7L."""
        if self.probes.pair is not None:
            return self.probes.pair
        lo, hi = DEFAULT_PROBE_FRACTIONS
        return ProbePair(
            GridPoint(round(lo * (self.grid.n1 - 1)), 1),
            GridPoint(round(hi * (self.grid.n1 - 1)), 1),
        )

    def detection_config(self) -> DetectionConfig:
        if self.probes.mode == "analytic":
            speed = analytic_group_velocity(
                self.material, self.excitation.carrier_frequency
            )
            probes, velocity = None, speed
        else:
            probes, velocity = self.probe_pair(), None
        return DetectionConfig(
            excitation=self.excitation,
            probes=probes,
            group_velocity=velocity,
            window_len=self.detection.window_len,
            rank=self.detection.rank,
            energy_ratio=self.detection.ratio,
            threshold=self.detection.theta,
        )

    def mask(self) -> Mask | None:
        return self.detection.mask.build(self.partition(), self.seed)


def simulate_scenario(scenario: ScenarioConfig) -> DataCube:
    """Run the scenario's plate through ``sim.simulate`` with every grid setting.

    Every argument has passed ``_cross_validate``, so a ValueError or an
    arithmetic error here comes from the scenario's numbers themselves (a
    bending stiffness or density out of float range, alone or through
    overlapping defects, or a burst too long for it) and is raised as a
    ConfigError.  They are checked here and not at parse time because
    building the coefficient map costs far more than parsing the file.
    """
    grid = scenario.grid
    try:
        return sim.simulate(
            scenario.material,
            list(scenario.defects),
            scenario.excitation,
            grid.n1,
            grid.n2,
            grid.steps,
            grid.safety,
            record_every=grid.record_every,
            space_order=grid.space_order,
        )
    except (ArithmeticError, ValueError) as exc:
        raise ConfigError(f"the plate cannot be simulated: {exc}") from None


def with_overrides(scenario: ScenarioConfig, **changes) -> ScenarioConfig:
    """The scenario with detection settings replaced, checked like a file.

    Keys are ``DetectionSettings`` fields; a None value keeps the file's
    setting.  A ``rank`` given as text is read as in a file ("auto" or an
    integer).  The result passes the same checks as a parsed scenario.
    """
    changes = {k: v for k, v in changes.items() if v is not None}
    if isinstance(changes.get("rank"), str):
        try:
            changes["rank"] = _parse_rank(changes["rank"])
        except ValueError:
            raise ConfigError(f"bad rank value {changes['rank']!r}") from None
    out = replace(scenario, detection=replace(scenario.detection, **changes))
    _cross_validate(out)
    return out


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------

def _raw_blocks(text: str):
    """Split config text into (block_name, {key: (value, line)}, line) tuples.

    Top-level keys (before any header) go into a block named ``""``.
    """
    blocks: list[tuple[str, dict, int]] = [("", {}, 0)]
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("["):
            if not line.endswith("]"):
                raise ConfigError("unterminated block header", line=lineno)
            name = line[1:-1].strip()
            if name not in _KNOWN_BLOCKS:
                raise ConfigError(f"unknown block [{name}]", line=lineno)
            blocks.append((name, {}, lineno))
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise ConfigError(
                f"expected 'key = value' or '[block]', got {line!r}", line=lineno
            )
        key, value = key.strip(), value.strip()
        if not key or not value:
            raise ConfigError("empty key or value", line=lineno)
        entries = blocks[-1][1]
        if key in entries:
            raise ConfigError(f"duplicate key {key!r} in block", line=lineno)
        entries[key] = (value, lineno)
    return blocks


class _BlockReader:
    """Typed access to one block's entries with line-accurate errors."""

    def __init__(self, name: str, entries: dict, lineno: int):
        self.name = name
        self.entries = dict(entries)
        self.lineno = lineno

    def _take(self, key: str, default):
        if key in self.entries:
            return self.entries.pop(key)
        if default is _REQUIRED:
            raise ConfigError(
                f"[{self.name}] is missing required key {key!r}", line=self.lineno
            )
        return (default, self.lineno)

    def _convert(self, key: str, caster, default):
        value, lineno = self._take(key, default)
        if isinstance(value, str):
            try:
                return caster(value)
            except ValueError as exc:
                raise ConfigError(
                    f"bad value for {key!r}: {exc}", line=lineno
                ) from None
        return value

    def get_int(self, key: str, default=None):
        return self._convert(key, _parse_int, _REQUIRED if default is None else default)

    def get_float(self, key: str, default=None):
        return self._convert(key, _parse_float, _REQUIRED if default is None else default)

    def get_str(self, key: str, default=None):
        return self._convert(key, str, _REQUIRED if default is None else default)

    def finish(self):
        if self.entries:
            key = next(iter(self.entries))
            _, lineno = self.entries[key]
            raise ConfigError(
                f"unknown key {key!r} in [{self.name}]", line=lineno
            )


_REQUIRED = object()


def _parse_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"{text!r} is not a finite number")
    return value


def _parse_int(text: str) -> int:
    value = _parse_float(text)
    if value != int(value):
        raise ValueError(f"{text!r} is not an integer")
    return int(value)


def _parse_rank(text: str):
    if text == "auto":
        return "auto"
    return _parse_int(text)


def _parse_mask(text: str, sharing: str, lineno: int) -> MaskSettings:
    parts = text.split()
    kind = parts[0]
    if kind == "full":
        if len(parts) != 1:
            raise ConfigError("mask 'full' takes no argument", line=lineno)
        return MaskSettings(kind="full", sharing=sharing)
    if kind == "random":
        if len(parts) != 2:
            raise ConfigError("mask 'random' needs a ratio", line=lineno)
        try:
            ratio = float(parts[1])
        except ValueError:
            raise ConfigError(f"bad mask ratio {parts[1]!r}", line=lineno) from None
        return MaskSettings(kind="random", ratio=ratio, sharing=sharing)
    if kind == "cross":
        if len(parts) != 2:
            raise ConfigError("mask 'cross' needs a stride", line=lineno)
        try:
            stride = int(parts[1])
        except ValueError:
            raise ConfigError(f"bad mask stride {parts[1]!r}", line=lineno) from None
        return MaskSettings(kind="cross", stride=stride, sharing=sharing)
    raise ConfigError(f"unknown mask kind {kind!r}", line=lineno)


def _parse_defect(reader: _BlockReader) -> DefectSpec:
    kind = reader.get_str("kind")
    if kind == "point_inclusion":
        geometry = (reader.get_float("x"), reader.get_float("y"))
    elif kind == "line_segment":
        geometry = (
            reader.get_float("x1"), reader.get_float("y1"),
            reader.get_float("x2"), reader.get_float("y2"),
        )
    else:
        raise ConfigError(
            f"unknown defect kind {kind!r}", line=reader.lineno
        )
    try:
        spec = DefectSpec(
            kind=kind,
            geometry=geometry,
            modulus_scale=reader.get_float("modulus_scale"),
            density_scale=reader.get_float("density_scale"),
        )
    except (ValueError, GeometryError) as exc:
        raise ConfigError(str(exc), line=reader.lineno) from None
    reader.finish()
    return spec


def parse_scenario(text: str) -> ScenarioConfig:
    """Parse and cross-validate a scenario; ConfigError carries the line."""
    seen: dict[str, _BlockReader] = {}
    defects: list[DefectSpec] = []
    seed = 0
    for name, entries, lineno in _raw_blocks(text):
        reader = _BlockReader(name, entries, lineno)
        if name == "":
            seed = reader.get_int("seed", 0)
            reader.finish()
        elif name == "defect":
            defects.append(_parse_defect(reader))
        else:
            if name in seen:
                raise ConfigError(f"duplicate block [{name}]", line=lineno)
            seen[name] = reader

    for required in ("material", "grid", "excitation", "detection"):
        if required not in seen:
            raise ConfigError(f"missing required block [{required}]")

    r = seen["material"]
    try:
        material = MaterialSpec(
            youngs_modulus=r.get_float("youngs_modulus"),
            poisson_ratio=r.get_float("poisson_ratio"),
            density=r.get_float("density"),
            thickness=r.get_float("thickness"),
            side_length=r.get_float("side_length"),
        )
    except ValueError as exc:
        raise ConfigError(str(exc), line=r.lineno) from None
    r.finish()

    r = seen["grid"]
    grid = GridSettings(
        n1=r.get_int("n1"),
        n2=r.get_int("n2"),
        steps=r.get_int("steps"),
        safety=r.get_float("safety", 0.9),
        record_every=r.get_int("record_every", 1),
        space_order=r.get_int("space_order", DEFAULT_SPACE_ORDER),
    )
    r.finish()

    r = seen["excitation"]
    try:
        excitation = ExcitationSpec(
            carrier_frequency=r.get_float("frequency"),
            cycle_count=r.get_int("cycles", 5),
            amplitude=r.get_float("amplitude", 1.0),
            source=GridPoint(r.get_int("source_l", 0), r.get_int("source_m", 0)),
        )
    except ValueError as exc:
        raise ConfigError(str(exc), line=r.lineno) from None
    r.finish()

    r = seen["detection"]
    sharing = r.get_str("sharing", SHARED)
    if sharing not in (SHARED, PER_REGION):
        raise ConfigError(f"unknown sharing mode {sharing!r}", line=r.lineno)
    mask_text, mask_line = r._take("mask", "full")
    detection = DetectionSettings(
        regions_x=r.get_int("regions_x"),
        regions_y=r.get_int("regions_y"),
        window_len=r.get_int("window_len", DEFAULT_WINDOW_LEN),
        rank=r._convert("rank", _parse_rank, "auto"),
        ratio=r.get_float("ratio", 0.25),
        theta=r.get_float("theta", 0.5),
        mask=_parse_mask(mask_text, sharing, mask_line),
    )
    r.finish()

    if "probes" in seen:
        r = seen["probes"]
        mode = r.get_str("mode", "pair")
        if mode not in ("pair", "analytic"):
            raise ConfigError(f"unknown probe mode {mode!r}", line=r.lineno)
        # Coordinates may stay in the file while mode = analytic; they are
        # parsed (so typos still surface) but not used.
        pair = None
        if any(k in r.entries for k in ("first_l", "first_m", "second_l", "second_m")):
            try:
                pair = ProbePair(
                    GridPoint(r.get_int("first_l"), r.get_int("first_m")),
                    GridPoint(r.get_int("second_l"), r.get_int("second_m")),
                )
            except ValueError as exc:
                raise ConfigError(str(exc), line=r.lineno) from None
        probes = ProbeSettings(mode=mode, pair=pair)
        r.finish()
    else:
        probes = ProbeSettings()

    scenario = ScenarioConfig(
        material=material,
        grid=grid,
        excitation=excitation,
        defects=tuple(defects),
        detection=detection,
        probes=probes,
        seed=seed,
    )
    _cross_validate(scenario)
    return scenario


def _cross_validate(scenario: ScenarioConfig) -> None:
    grid = scenario.grid
    if grid.n1 < 2 or grid.n2 < 2:
        raise ConfigError("grid must be at least 2x2 nodes")
    if grid.n1 != grid.n2:
        raise ConfigError(
            f"the plate is square; n1 and n2 must match, got {grid.n1} and {grid.n2}"
        )
    if grid.steps < 1:
        raise ConfigError("steps must be >= 1")
    if grid.safety <= 0:
        raise ConfigError("safety must be positive")
    if grid.record_every < 1:
        raise ConfigError("record_every must be >= 1")
    if grid.space_order not in (2, 4):
        raise ConfigError(f"space_order must be 2 or 4, got {grid.space_order}")
    src = scenario.excitation.source
    if not (0 <= src.l < grid.n1 and 0 <= src.m < grid.n2):
        raise ConfigError(f"excitation source {src} is off the grid")
    det = scenario.detection
    if det.window_len < 1:
        raise ConfigError(f"window_len must be >= 1, got {det.window_len}")
    if not 0.0 < det.ratio <= 1.0:
        raise ConfigError(f"ratio must be in (0, 1], got {det.ratio}")
    if not 0.0 < det.theta <= 1.0:
        raise ConfigError(f"theta must be in (0, 1], got {det.theta}")
    if det.rank != "auto" and (not isinstance(det.rank, int) or det.rank < 1):
        raise ConfigError(f"rank must be 'auto' or an integer >= 1, got {det.rank!r}")
    # Partition divisibility against the grid block, then the mask against
    # the partition; the library's errors are wrapped so the failure reads
    # as a config problem.
    try:
        scenario.mask()
    except (PartitionError, MaskError, GeometryError, ValueError) as exc:
        raise ConfigError(str(exc)) from None
    pair = scenario.probe_pair()
    for point in (pair.first, pair.second):
        if not (0 <= point.l < grid.n1 and 0 <= point.m < grid.n2):
            raise ConfigError(f"probe {point} is off the grid")


def load_scenario(path) -> ScenarioConfig:
    from pathlib import Path

    return parse_scenario(Path(path).read_text())


def bundled_config_path(name: str):
    """Path to a fixture shipped with the package, e.g. ``"bench1"``.

    Known names: bench1, bench2, pristine, bench1_ci, pristine_ci.
    """
    from importlib.resources import files

    resource = files(__package__) / "configs" / f"{name}.cfg"
    if not resource.is_file():
        raise FileNotFoundError(f"no bundled config named {name!r}")
    return resource


# ---------------------------------------------------------------------------
# Canonical echo (manifests, .meta sidecars)
# ---------------------------------------------------------------------------

def scenario_echo(scenario: ScenarioConfig) -> dict[str, str]:
    """Flatten a scenario into sorted-key text form with defaults resolved.

    Used for the cube ``.meta`` sidecar and detection manifests, so two runs
    are comparable (and byte-identical) even when one spelled fewer keys.
    """
    mat, grid, exc = scenario.material, scenario.grid, scenario.excitation
    det = scenario.detection
    out = {
        "material.youngs_modulus": repr(mat.youngs_modulus),
        "material.poisson_ratio": repr(mat.poisson_ratio),
        "material.density": repr(mat.density),
        "material.thickness": repr(mat.thickness),
        "material.side_length": repr(mat.side_length),
        "grid.n1": str(grid.n1),
        "grid.n2": str(grid.n2),
        "grid.steps": str(grid.steps),
        "grid.safety": repr(grid.safety),
        "grid.record_every": str(grid.record_every),
        "grid.space_order": str(grid.space_order),
        "excitation.frequency": repr(exc.carrier_frequency),
        "excitation.cycles": str(exc.cycle_count),
        "excitation.amplitude": repr(exc.amplitude),
        "excitation.source": f"{exc.source.l},{exc.source.m}",
        "detection.regions_x": str(det.regions_x),
        "detection.regions_y": str(det.regions_y),
        "detection.window_len": str(det.window_len),
        "detection.rank": str(det.rank),
        "detection.ratio": repr(det.ratio),
        "detection.theta": repr(det.theta),
        "detection.mask": _mask_echo(det.mask),
        "probes.mode": scenario.probes.mode,
        "seed": str(scenario.seed),
    }
    if scenario.probes.mode == "pair":
        pair = scenario.probe_pair()
        out["probes.pair"] = (
            f"{pair.first.l},{pair.first.m};{pair.second.l},{pair.second.m}"
        )
    for i, defect in enumerate(scenario.defects):
        geometry = ",".join(repr(g) for g in defect.geometry)
        out[f"defect.{i}"] = (
            f"{defect.kind} [{geometry}] "
            f"modulus_scale={defect.modulus_scale!r} "
            f"density_scale={defect.density_scale!r}"
        )
    return out


def _mask_echo(mask: MaskSettings) -> str:
    if mask.kind == "full":
        return "full"
    if mask.kind == "random":
        return f"random {mask.ratio!r} sharing={mask.sharing}"
    return f"cross {mask.stride} sharing={mask.sharing}"
