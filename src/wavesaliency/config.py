"""Scenario files: a line-oriented ``[block]`` / ``key = value`` format.

One file describes a complete experiment — plate material, grid and time
stepping, excitation burst, any number of defects, the detection settings
and the velocity probes — so a benchmark is a single self-contained,
diff-friendly text fixture.  Python's configparser is not used because
defect blocks must be repeatable.  Every number must be finite; an integer
key also takes a float spelling of an exact integer (``65.0``).  From Python,
every record, plate specs and grid points too, holds each number as a plain,
finite ``int`` or ``float``, made from any integral or real type but a bool.
A scenario is checked as it is built, block by block and then across blocks.

Every key, with its default; a key marked required shows an example::

    seed = 0                     # before any block: seeds the random masks; >= 0

    [material]                   # SI units; every key required
    youngs_modulus = 71e9
    poisson_ratio = 0.33
    density = 2700
    thickness = 0.005
    side_length = 0.25

    [grid]
    n1 = 257                     # required; the plate is square, n2 = n1
    n2 = 257                     # required
    steps = 1701                 # required
    safety = 0.9                 # fraction of the stable time step
    record_every = 1             # keep every k-th step
    space_order = 4              # 2 or 4

    [excitation]
    frequency = 500e3            # required
    cycles = 5
    amplitude = 1.0
    source_l = 0                 # the driven node
    source_m = 0

    [defect]                     # any number of blocks; every key required
    kind = point_inclusion
    x = 0.20                     # fractions of the side length
    y = 0.42
    modulus_scale = 100
    density_scale = 100

    [defect]
    kind = line_segment          # one cell thick, from (x1, y1) to (x2, y2)
    x1 = 0.2
    y1 = 0.5
    x2 = 0.4
    y2 = 0.5
    modulus_scale = 100
    density_scale = 100

    [detection]
    regions_x = 16               # required
    regions_y = 16               # required
    rank = 14                    # required; an integer >= 1
    window_len = 11
    ratio = 0.25
    theta = 0.5
    mask = full                  # or random <ratio>, or cross <stride 1|2|4>
    sharing = shared             # or per_region: one random mask per region

    [probes]                     # optional
    mode = pair                  # or analytic: the closed-form group velocity
    first_l = 77                 # all four or none; none puts the pair at
    first_m = 1                  # nodes (0.3 (n1 - 1), 1) and (0.7 (n1 - 1), 1),
    second_l = 179               # as here for n1 = 257; in either mode the pair
    second_m = 1                 # is two distinct nodes on the grid
"""

from __future__ import annotations

import math
from dataclasses import MISSING, dataclass, field, fields, replace
from pathlib import Path

from . import pipeline, sampling, sim
from .cube import DataCube, GridPoint, hold_plain_numbers, meta_text, plain_number
from .errors import ConfigError
from .pipeline import DetectionConfig, DetectionResult
from .saliency import DEFAULT_DECISION_THRESHOLD, DEFAULT_ENERGY_RATIO, snapshot_spectrum
from .sampling import SHARED, DetectionMetrics, GroundTruth, Mask, MaskSettings, SweepRow
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

# The most trials per ratio a sweep takes.  Sweeps run tens of trials; a
# count far past this one is a typo that would run until it is killed.
MAX_TRIALS = 10**6


@dataclass(frozen=True)
class GridSettings:
    """Spatial grid and time stepping of one scenario."""

    n1: int
    n2: int
    steps: int
    safety: float = 0.9
    record_every: int = 1
    space_order: int = DEFAULT_SPACE_ORDER

    def __post_init__(self):
        hold_plain_numbers(self)
        if self.n1 < 2 or self.n2 < 2:
            raise ValueError("grid must be at least 2x2 nodes")
        if self.n1 != self.n2:
            raise ValueError(
                f"the plate is square; n1 and n2 must match, got {self.n1} and {self.n2}"
            )
        for name in ("steps", "record_every"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if self.safety <= 0:
            raise ValueError("safety must be positive")
        sim.stage_symbol_peak(self.space_order)  # a supported stencil order


@dataclass(frozen=True)
class DetectionSettings:
    """Partitioning and decision parameters of one scenario."""

    regions_x: int
    regions_y: int
    rank: int
    window_len: int = DEFAULT_WINDOW_LEN
    ratio: float = DEFAULT_ENERGY_RATIO
    theta: float = DEFAULT_DECISION_THRESHOLD
    mask: MaskSettings = field(default_factory=MaskSettings)

    def __post_init__(self):
        hold_plain_numbers(self)
        if not isinstance(self.mask, MaskSettings):
            raise ValueError(f"mask must be a MaskSettings, got {self.mask!r}")
        if self.window_len < 1:
            raise ValueError(f"window_len must be >= 1, got {self.window_len}")
        for name in ("ratio", "theta"):
            if not 0.0 < getattr(self, name) <= 1.0:
                raise ValueError(f"{name} must be in (0, 1], got {getattr(self, name)}")
        if self.rank < 1:
            raise ValueError(f"rank must be an integer >= 1, got {self.rank!r}")


@dataclass(frozen=True)
class ProbeSettings:
    """Where the group velocity comes from: a probe pair or plate theory."""

    pair: ProbePair     # the file's pair or the defaults, in either mode
    mode: str = "pair"  # pair | analytic

    def __post_init__(self):
        if self.mode not in ("pair", "analytic"):
            raise ValueError(f"unknown probe mode {self.mode!r}")


@dataclass(frozen=True)
class ScenarioConfig:
    """Everything one experiment needs, checked on construction.

    Each settings block checks its own fields; ``__post_init__`` checks the
    seed and the rules that join blocks (the partition and mask against the
    grid, the velocity source, the source and probes on the grid, the rank
    against the nodes the mask keeps per region), so neither
    ``parse_scenario`` nor ``replace`` (behind ``with_overrides``) can
    return a scenario that breaks one.
    """

    material: MaterialSpec
    grid: GridSettings
    excitation: ExcitationSpec
    defects: tuple[DefectSpec, ...]
    detection: DetectionSettings
    probes: ProbeSettings
    seed: int = 0

    def __post_init__(self):
        # The seed, partition divisibility against the grid block, then the
        # mask against the partition; a partition or mask that does not fit
        # raises its own ConfigError.
        try:
            hold_plain_numbers(self)
            if self.seed < 0:
                raise ValueError(f"seed must be >= 0, got {self.seed}")
            mask = self.mask()
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        # A snapshot has one row per node the mask keeps in a region, and the
        # rank cannot exceed it; ``saliency_map`` bounds it by the active
        # region count too, once the cube is read.
        rows = self.partition().nodes_per_region if mask is None else mask.retained_count
        if self.detection.rank > rows:
            raise ConfigError(
                f"rank {self.detection.rank} exceeds the {rows} node(s) "
                f"the mask keeps per region"
            )
        # In analytic mode, a finite group velocity from the material and the
        # carrier frequency; in either mode, the probes on the grid.
        try:
            self.detection_config()
        except (ArithmeticError, ValueError) as exc:
            raise ConfigError(f"no usable velocity source: {exc}") from None
        pair = self.probes.pair
        for what, point in (("excitation source", self.excitation.source),
                            ("probe", pair.first), ("probe", pair.second)):
            if not (0 <= point.l < self.grid.n1 and 0 <= point.m < self.grid.n2):
                raise ConfigError(f"{what} {point} is off the grid")

    def partition(self) -> Partition:
        return Partition(
            self.grid.n1, self.grid.n2,
            self.detection.regions_x, self.detection.regions_y,
        )

    def detection_config(self) -> DetectionConfig:
        if self.probes.mode == "analytic":
            velocity = analytic_group_velocity(
                self.material, self.excitation.carrier_frequency
            )
        else:
            velocity = self.probes.pair
        d = self.detection
        return DetectionConfig(
            self.excitation, velocity, d.window_len, d.rank, d.ratio, d.theta
        )

    def mask(self) -> Mask | None:
        return self.detection.mask.build(self.partition(), self.seed)

    def truth(self) -> GroundTruth:
        return GroundTruth.from_defects(self.defects, self.partition())


def simulate_scenario(scenario: ScenarioConfig) -> DataCube:
    """Run the scenario's plate through ``sim.simulate`` with every grid setting.

    Every argument has passed the checks of ``ScenarioConfig``, so a
    ValueError or an arithmetic error here comes from the scenario's numbers
    themselves (a bending stiffness or density out of float range, alone or
    through overlapping defects) and is raised as a ConfigError.  They are
    checked here and not at parse time because building the coefficient map
    costs far more than parsing the file.
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


# The calls below look ``run_detection``, ``monte_carlo_sweep`` and
# ``detection_metrics`` up on their modules at each call, so a wrapper set on
# a module sees the call.

def detect_scenario(scenario: ScenarioConfig, cube: DataCube) -> DetectionResult:
    """Detect on ``cube`` with the scenario's partition, detection config and mask.

    This is ``run_detection``, which itself leaves the mask to its caller
    and samples every node without one.
    """
    return pipeline.run_detection(
        cube, scenario.partition(), scenario.detection_config(), scenario.mask()
    )


def sweep_masks(scenario: ScenarioConfig, ratios, trials: int, *, pattern: str = "random",
                stride: int = 1, sharing: str = SHARED) -> list[MaskSettings]:
    """The sweep's ``sampling.sweep_recipes``, each checked as the scenario's mask line.

    This is the one check of a sweep request; it reads no cube.  It raises
    ConfigError for:

    * a ``trials`` that is not a plain integer (``cube.plain_number``'s
      rule: no bool, no float) in [1, ``MAX_TRIALS``];
    * a pattern other than ``random`` or ``cross``, a sharing mode other
      than ``shared`` or ``per_region``, a ratio that is not a finite real,
      or a stride that is not an integer;
    * no recipe: a random sweep with an empty ratio list (the double cross
      takes no ratio);
    * a recipe that the scenario could not hold as its own ``mask`` and
      ``sharing`` keys (a ratio that keeps too few nodes, a rank above the
      nodes a mask keeps, a stride or sharing the double cross does not
      take), with the message that ``with_overrides`` gives for it.
    """
    try:
        trials = plain_number("trials", trials, "int")
        recipes = sampling.sweep_recipes(ratios, pattern, stride, sharing)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    if not 1 <= trials <= MAX_TRIALS:
        raise ConfigError(f"trials must be in [1, {MAX_TRIALS}], got {trials}")
    if not recipes:
        raise ConfigError("a random sweep needs at least one ratio")
    for recipe in recipes:
        with_overrides(scenario, mask=recipe)
    return recipes


def sweep_scenario(scenario: ScenarioConfig, cube: DataCube, ratios, trials: int, *,
                   pattern: str = "random", stride: int = 1,
                   sharing: str = SHARED) -> list[SweepRow]:
    """``monte_carlo_sweep`` of ``cube`` from the scenario's seed.

    Every trial is a detection with the scenario's partition and detection
    config, scored as ``score_scenario`` scores one.  The keywords pick the
    masks, as in ``sampling.sweep_recipes``, and ``sweep_masks`` checks
    the whole request before any window is cut: this is ``wavesaliency
    sweep``.
    """
    sweep_masks(scenario, ratios, trials, pattern=pattern, stride=stride, sharing=sharing)
    return sampling.monte_carlo_sweep(
        cube, scenario.partition(), scenario.detection_config(), ratios, trials,
        scenario.seed, truth=scenario.truth(),
        pattern=pattern, stride=stride, sharing=sharing,
    )


def score_scenario(scenario: ScenarioConfig, flagged) -> DetectionMetrics:
    """``detection_metrics`` of ``flagged`` against the scenario's ``truth()``.

    The origin block surrounds the scenario's excitation source.  This runs
    no detection: ``flagged`` is a set of regions, such as a result's.
    """
    return sampling.detection_metrics(
        flagged, scenario.truth(), scenario.partition(), scenario.excitation.source
    )


def with_overrides(scenario: ScenarioConfig, **changes) -> ScenarioConfig:
    """The scenario with detection settings replaced, checked like a file.

    Keys are ``DetectionSettings`` fields; a None value keeps the file's
    setting.  A value given as text is read as in a file, by its field's
    ``int`` or ``float`` annotation.  ``replace`` builds the result, so it
    passes the same checks as a parsed scenario.
    """
    changes = {k: v for k, v in changes.items() if v is not None}
    types = {f.name: f.type for f in fields(DetectionSettings)}
    for key, value in changes.items():
        if key not in types:
            raise ConfigError(f"unknown detection setting {key!r}")
        if isinstance(value, str) and types[key] in _PARSERS:
            try:
                changes[key] = _PARSERS[types[key]](value)
            except ValueError as exc:
                raise ConfigError(f"bad value for {key!r}: {exc}") from None
    try:
        detection = replace(scenario.detection, **changes)
    except ValueError as exc:
        raise ConfigError(f"bad detection setting: {exc}") from None
    return replace(scenario, detection=detection)


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------

_REQUIRED = object()


@dataclass
class _Block:
    """One ``[block]`` of a file: its unread ``key: (text, line)`` entries.

    ``get`` reads a key and ``make`` builds the block's settings, each
    turning a bad value into a ConfigError at the line it came from;
    ``read`` builds a settings dataclass whose fields are the block's keys.
    """

    name: str
    line: int | None = None
    entries: dict[str, tuple[str, int]] = field(default_factory=dict)

    def get(self, key: str, parse, default=_REQUIRED):
        """``parse`` of the key's text, or ``default`` when the key is absent."""
        if key not in self.entries:
            if default is _REQUIRED:
                raise ConfigError(
                    f"[{self.name}] is missing required key {key!r}", line=self.line
                )
            return default
        text, line = self.entries.pop(key)
        try:
            return parse(text)
        except ValueError as exc:
            raise ConfigError(f"bad value for {key!r}: {exc}", line=line) from None

    def make(self, cls, **values):
        """``cls(**values)``, which must use up every key of the block."""
        try:
            settings = cls(**values)
        except (ValueError, ConfigError) as exc:
            raise ConfigError(str(exc), line=self.line) from None
        for key, (_, line) in self.entries.items():
            raise ConfigError(f"unknown key {key!r} in [{self.name}]", line=line)
        return settings

    def read(self, cls, **given):
        """``make`` of ``cls``, reading each field not ``given`` under its name.

        A field's ``int`` or ``float`` annotation picks its parser, and its
        default, if it has one, stands in for an absent key.
        """
        for f in fields(cls):
            if f.name not in given:
                default = _REQUIRED if f.default is MISSING else f.default
                given[f.name] = self.get(f.name, _PARSERS[f.type], default)
        return self.make(cls, **given)


def _read_blocks(text: str) -> list[_Block]:
    """Split config text into blocks; keys before any header go in ``""``."""
    blocks = [_Block("")]
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
            if name != "defect" and any(b.name == name for b in blocks):
                raise ConfigError(f"duplicate block [{name}]", line=lineno)
            blocks.append(_Block(name, lineno))
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise ConfigError(
                f"expected 'key = value' or '[block]', got {line!r}", line=lineno
            )
        key, value = key.strip(), value.strip()
        if not key or not value:
            raise ConfigError("empty key or value", line=lineno)
        entries = blocks[-1].entries
        if key in entries:
            raise ConfigError(f"duplicate key {key!r} in block", line=lineno)
        entries[key] = (value, lineno)
    return blocks


def parse_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"{text!r} is not a finite number")
    return value


def parse_int(text: str) -> int:
    value = parse_float(text)
    if value != int(value):
        raise ValueError(f"{text!r} is not an integer")
    return int(value)


# The parser of a settings field's text, by its annotation.
_PARSERS = {"int": parse_int, "float": parse_float}


def _parse_mask(text: str) -> MaskSettings:
    """``full``, ``random <ratio>`` or ``cross <stride>``, with shared sharing."""
    kind, *args = text.split()
    if kind == "full" and args:
        raise ValueError("mask 'full' takes no argument")
    if kind == "random":
        if len(args) != 1:
            raise ValueError("mask 'random' needs a ratio")
        return MaskSettings(kind, ratio=parse_float(args[0]))
    if kind == "cross":
        if len(args) != 1:
            raise ValueError("mask 'cross' needs a stride")
        return MaskSettings(kind, stride=parse_int(args[0]))
    return MaskSettings(kind)


def _parse_defect(b: _Block) -> DefectSpec:
    kind = b.get("kind", str)
    # An unknown kind reads no geometry and fails DefectSpec's own check.
    geometry = [b.get(key, parse_float) for key in sim.DEFECT_GEOMETRY_KEYS.get(kind, ())]
    return b.make(
        DefectSpec,
        kind=kind,
        geometry=geometry,
        modulus_scale=b.get("modulus_scale", parse_float),
        density_scale=b.get("density_scale", parse_float),
    )


def parse_scenario(text: str) -> ScenarioConfig:
    """Parse and check a scenario; a ConfigError carries the line when known."""
    blocks = _read_blocks(text)
    named = {b.name: b for b in blocks if b.name != "defect"}
    for required in ("material", "grid", "excitation", "detection"):
        if required not in named:
            raise ConfigError(f"missing required block [{required}]")

    material = named["material"].read(MaterialSpec)
    grid = named["grid"].read(GridSettings)

    b = named["excitation"]
    excitation = b.make(
        ExcitationSpec,
        carrier_frequency=b.get("frequency", parse_float),
        cycle_count=b.get("cycles", parse_int, 5),
        amplitude=b.get("amplitude", parse_float, 1.0),
        source=GridPoint(
            b.get("source_l", parse_int, 0), b.get("source_m", parse_int, 0)
        ),
    )

    b = named["detection"]
    # The sharing key completes the mask line; MaskSettings checks both.
    mask = b.get("mask", _parse_mask, MaskSettings())
    mask = b.get("sharing", lambda sharing: replace(mask, sharing=sharing), mask)
    detection = b.read(DetectionSettings, mask=mask)

    b = named.get("probes", _Block("probes"))
    mode = b.get("mode", str, ProbeSettings.mode)
    # Coordinates may stay in the file while mode = analytic; they are parsed
    # and checked (so typos still surface) but not used.  Absent, they default.
    if any(k in b.entries for k in ("first_l", "first_m", "second_l", "second_m")):
        first = GridPoint(b.get("first_l", parse_int), b.get("first_m", parse_int))
        second = GridPoint(b.get("second_l", parse_int), b.get("second_m", parse_int))
    else:
        first, second = (GridPoint(round(f * (grid.n1 - 1)), 1)
                         for f in DEFAULT_PROBE_FRACTIONS)
    pair = b.make(ProbePair, first=first, second=second)
    probes = b.make(ProbeSettings, mode=mode, pair=pair)

    b = named[""]
    return b.make(
        ScenarioConfig,
        material=material,
        grid=grid,
        excitation=excitation,
        defects=tuple(_parse_defect(d) for d in blocks if d.name == "defect"),
        detection=detection,
        probes=probes,
        seed=b.get("seed", parse_int, ScenarioConfig.seed),
    )


def load_scenario(path) -> ScenarioConfig:
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

def cube_meta_text(scenario: ScenarioConfig, cube: DataCube) -> str:
    """The ``.meta`` sidecar of ``cube``, simulated from ``scenario``.

    It is the scenario's echo plus the cube's ``cube.dt``, ``cube.dx`` and
    ``cube.t_len``.
    """
    return meta_text({
        **scenario_echo(scenario),
        "cube.dt": repr(cube.dt),
        "cube.dx": repr(cube.dx),
        "cube.t_len": str(cube.t_len),
    })


def manifest_text(scenario: ScenarioConfig, result: DetectionResult) -> str:
    """The ``detect`` manifest: ``result``'s settings, findings and spectrum.

    ``result`` is ``detect_scenario(scenario, cube)``.  Each setting is
    written as ``scenario_echo`` writes it, and ``singular_values`` is the
    tau = 0 snapshot's ``snapshot_spectrum`` as ``singular_values_text``
    prints it, on a grid of 1e-10 s_0.  With ``group_velocity``, whose
    envelope magnitude is ``cube.magnitude``'s, no line of the manifest
    moves with the BLAS thread count or kernel or numpy's SIMD level.
    """
    d = scenario.detection
    return meta_text({
        "group_velocity": repr(result.group_velocity),
        "velocity_source": scenario.probes.mode,
        "rank": str(d.rank),
        "window_len": str(d.window_len),
        "energy_ratio": str(d.ratio),
        "theta": str(d.theta),
        "mask": str(d.mask),
        "seed": str(scenario.seed),
        "active_regions": str(int(result.saliency.active.sum())),
        "flagged": ";".join(f"{a},{b}" for a, b in sorted(result.flagged)),
        "singular_values": singular_values_text(
            snapshot_spectrum(result.window_set, result.saliency.scores)),
    })


def singular_values_text(values) -> str:
    """Singular values, largest first, on a grid of 1e-10 s_0: the manifest's line.

    s_0 is read back from its own ``.9e`` text, and every value is snapped
    to the nearest multiple of 1e-10 times it before it is printed in the
    same form.  The SVD moves a value by up to about 6e-17 s_0 with the
    BLAS thread count or kernel, far below the step, so the text moves only
    when a value lies that close to a half step: about 1.2e-6 odds per
    value.  The spectrum's tail reaches s/s_0 ~ 2e-9, where ten digits of
    the value itself would be round-off.
    """
    first, *rest = map(float, values)
    s0 = float(f"{first:.9e}")  # s_0 = 0 only for an all-zero spectrum, printed as zeros
    return " ".join(f"{round(v / s0, 10) * s0 if s0 else 0.0:.9e}" for v in (s0, *rest))


def scenario_echo(scenario: ScenarioConfig) -> dict[str, str]:
    """Flatten a scenario into sorted-key text form with defaults resolved.

    ``cube_meta_text`` writes it, and ``manifest_text`` spells each setting
    as it does, so two runs are comparable (and byte-identical) even when
    one spelled fewer keys.
    """
    exc = scenario.excitation
    out = {
        **_fields_echo("material", scenario.material),
        **_fields_echo("grid", scenario.grid),
        "excitation.frequency": str(exc.carrier_frequency),
        "excitation.cycles": str(exc.cycle_count),
        "excitation.amplitude": str(exc.amplitude),
        "excitation.source": f"{exc.source.l},{exc.source.m}",
        **_fields_echo("detection", scenario.detection),
        "probes.mode": scenario.probes.mode,
        "seed": str(scenario.seed),
    }
    if scenario.probes.mode == "pair":
        pair = scenario.probes.pair
        out["probes.pair"] = (
            f"{pair.first.l},{pair.first.m};{pair.second.l},{pair.second.m}"
        )
    for i, defect in enumerate(scenario.defects):
        out[f"defect.{i}"] = (
            f"{defect.kind} [{','.join(map(str, defect.geometry))}] "
            f"modulus_scale={defect.modulus_scale} density_scale={defect.density_scale}"
        )
    return out


def _fields_echo(block: str, settings) -> dict[str, str]:
    """``block.field`` for each field: the ``str`` of its value."""
    return {f"{block}.{f.name}": str(getattr(settings, f.name)) for f in fields(settings)}
