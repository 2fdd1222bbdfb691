"""Scenario-file parsing and the command-line front end.

CLI tests call ``main`` in-process and assert on exit codes and emitted
files; subprocess tests check the ``python -m`` entry point with the
thread-count environment override, and that no subcommand imports scipy.
"""

import math
import os
import random
import re
import stat
import struct
import subprocess
import sys
import textwrap
import warnings
from dataclasses import MISSING, fields, is_dataclass, replace
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import wavesaliency
import wavesaliency.config
import wavesaliency.errors
from wavesaliency.cli import (
    EXIT_CONFIG,
    EXIT_DIVERGENCE,
    EXIT_ERROR,
    EXIT_NO_SIGNAL,
    EXIT_OK,
    EXIT_WINDOWING,
    POOL_ENV_VARS,
    THREAD_ENV_VAR,
    _EXIT_CODES,
    _apply_thread_override,
    main,
)
from wavesaliency.config import (
    DetectionSettings,
    GridSettings,
    bundled_config_path,
    cube_meta_text,
    detect_scenario,
    load_scenario,
    manifest_text,
    parse_scenario,
    scenario_echo,
    singular_values_text,
    sweep_scenario,
    with_overrides,
)
from wavesaliency.cube import GridPoint, read_cube, write_cube
from wavesaliency.errors import ConfigError, DataError, WaveSaliencyError
from wavesaliency.pipeline import DetectionConfig
from wavesaliency.saliency import (
    flags_text,
    saliency_csv_text,
    saliency_pgm_texts,
    snapshot_spectrum,
)
from wavesaliency.sampling import Mask, MaskSettings, sweep_csv_text
from wavesaliency.sim import DefectSpec, ExcitationSpec, MaterialSpec, analytic_group_velocity
from wavesaliency.windowing import Partition, ProbePair

from conftest import load_tool

SMALL_CFG = """\
seed = 7

[material]
youngs_modulus = 71e9
poisson_ratio = 0.33
density = 2700
thickness = 0.005
side_length = 0.25

[grid]
n1 = 65
n2 = 65
steps = 160
safety = 0.9
record_every = 4

[excitation]
frequency = 250e3
cycles = 5
amplitude = 1.0

[defect]
kind = point_inclusion
x = 0.4
y = 0.3
modulus_scale = 100
density_scale = 100

[detection]
regions_x = 4
regions_y = 4
window_len = 11
rank = 3
ratio = 0.25
theta = 0.5

[probes]
mode = analytic
"""


def _edit(cfg: str, **overrides: str) -> str:
    """Replace whole ``key = value`` lines by key name."""
    lines = cfg.split("\n")
    for key, value in overrides.items():
        hits = [i for i, ln in enumerate(lines) if ln.startswith(f"{key} = ")]
        assert hits, f"no line for {key}"
        for i in hits:
            lines[i] = f"{key} = {value}"
    return "\n".join(lines)


def _drop(cfg: str, key: str) -> str:
    """Remove the ``key = value`` lines of a key."""
    return "\n".join(ln for ln in cfg.split("\n") if not ln.startswith(f"{key} = "))


def _inject(cfg: str, block: str, line: str) -> str:
    """Insert a key line at the top of the named block."""
    marker = f"[{block}]\n"
    assert marker in cfg
    return cfg.replace(marker, marker + line + "\n", 1)


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------

def test_parse_full_scenario():
    s = parse_scenario(SMALL_CFG)
    assert s.seed == 7
    assert s.material.youngs_modulus == 71e9
    assert s.material.side_length == 0.25
    assert (s.grid.n1, s.grid.n2, s.grid.steps) == (65, 65, 160)
    assert s.grid.record_every == 4
    assert s.excitation.carrier_frequency == 250e3
    assert s.excitation.source == GridPoint(0, 0)
    assert len(s.defects) == 1
    assert s.defects[0].kind == "point_inclusion"
    assert s.detection.rank == 3
    assert s.probes.mode == "analytic"
    assert s.partition().p1 == 17


def test_parse_defaults():
    minimal = """\
[material]
youngs_modulus = 71e9
poisson_ratio = 0.33
density = 2700
thickness = 0.005
side_length = 0.25

[grid]
n1 = 129
n2 = 129
steps = 100

[excitation]
frequency = 500e3

[detection]
regions_x = 8
regions_y = 8
rank = 14
"""
    s = parse_scenario(minimal)
    assert s.seed == 0
    assert s.grid.safety == 0.9
    assert s.grid.record_every == 1
    assert s.grid.space_order == 4
    assert s.excitation.cycle_count == 5
    assert s.excitation.amplitude == 1.0
    assert s.detection.window_len == 11
    assert s.detection.rank == 14
    assert s.detection.ratio == 0.25
    assert s.detection.theta == 0.5
    assert s.detection.mask.kind == "full"
    assert s.mask() is None
    assert s.defects == ()
    # default probes, stored as the file is read: first interior row at
    # 0.3L and 0.7L
    assert s.probes.mode == "pair"
    assert s.probes.pair == ProbePair(GridPoint(38, 1), GridPoint(90, 1))


def test_parse_errors_carry_line_numbers():
    bad = "[material]\nyoungs_modulus = 71e9\nthis line has no equals\n"
    with pytest.raises(ConfigError, match="line 3"):
        parse_scenario(bad)
    with pytest.raises(ConfigError, match="line 1"):
        parse_scenario("[material\n")
    with pytest.raises(ConfigError, match="unknown block"):
        parse_scenario("[materiel]\n")
    with pytest.raises(ConfigError, match="duplicate key"):
        parse_scenario("[grid]\nn1 = 3\nn1 = 5\n")
    with pytest.raises(ConfigError, match="empty key or value"):
        parse_scenario("[grid]\nn1 = \n")
    # a setting out of range names the line of its block's header
    lines = SMALL_CFG.split("\n")
    for block, key, value, message in (
        ("grid", "steps", "0", "steps must be >= 1"),
        ("grid", "n2", "33", "the plate is square"),
        ("detection", "theta", "1.5", "theta must be in"),
        ("detection", "window_len", "0", "window_len must be >= 1"),
    ):
        header = lines.index(f"[{block}]") + 1
        with pytest.raises(ConfigError, match=f"^line {header}: {message}"):
            parse_scenario(_edit(SMALL_CFG, **{key: value}))


def test_unknown_keys_rejected():
    with pytest.raises(ConfigError, match="n3"):
        parse_scenario(SMALL_CFG.replace("n2 = 65", "n2 = 65\nn3 = 65"))


def test_missing_required_block():
    no_material = SMALL_CFG.replace("[material]", "[grid2]", 1)
    with pytest.raises(ConfigError, match="unknown block"):
        parse_scenario(no_material)
    # a missing key names its block's header line
    for block, key in (("excitation", "frequency"), ("detection", "rank")):
        trimmed = _drop(SMALL_CFG, key)
        header = trimmed.split("\n").index(f"[{block}]") + 1
        with pytest.raises(ConfigError, match=(
            rf"^line {header}: \[{block}\] is missing required key '{key}'$"
        )):
            parse_scenario(trimmed)
    with pytest.raises(ConfigError, match=r"missing required block \[detection\]"):
        parse_scenario(SMALL_CFG.split("[detection]")[0])


def test_duplicate_block_rejected():
    with pytest.raises(ConfigError, match=r"duplicate block \[grid\]"):
        parse_scenario(SMALL_CFG + "\n[grid]\nn1 = 65\nn2 = 65\nsteps = 10\n")


def test_partition_divisibility_checked_at_parse():
    bad = _edit(SMALL_CFG, regions_x="10")
    with pytest.raises(ConfigError, match="not divisible"):
        parse_scenario(bad)


def test_repeated_defect_blocks():
    cfg = SMALL_CFG + """
[defect]
kind = line_segment
x1 = 0.2
y1 = 0.5
x2 = 0.4
y2 = 0.5
modulus_scale = 1e-4
density_scale = 1e-4
"""
    s = parse_scenario(cfg)
    assert len(s.defects) == 2
    assert s.defects[1].kind == "line_segment"


def test_mask_directives():
    s = parse_scenario(_inject(SMALL_CFG, "detection", "mask = random 0.2"))
    assert s.detection.mask.kind == "random"
    assert s.detection.mask.ratio == 0.2
    mask = s.mask()
    assert mask is not None and mask.retained_count == 58
    s2 = parse_scenario(_inject(SMALL_CFG, "detection", "mask = cross 2"))
    assert s2.detection.mask.stride == 2
    assert s2.mask().retained_count == 33
    # each error names the line of the bad key, just below the header
    key_line = SMALL_CFG.split("\n").index("[detection]") + 2
    for line, message in (("mask = random", "needs a ratio"),
                          ("mask = triangles", "unknown mask kind"),
                          ("mask = full 2", "'full' takes no argument"),
                          ("mask = random half", "'half'"),
                          ("mask = cross", "needs a stride"),
                          ("mask = cross 1.5", "'1.5' is not an integer"),
                          ("sharing = broadcast", "unknown sharing mode")):
        with pytest.raises(ConfigError, match=f"^line {key_line}: .*{message}"):
            parse_scenario(_inject(SMALL_CFG, "detection", line))


def test_integer_keys_reject_fractions():
    with pytest.raises(ConfigError, match="integer"):
        parse_scenario(_edit(SMALL_CFG, n1="65.5"))
    # a float spelling of an exact integer is accepted
    assert parse_scenario(_edit(SMALL_CFG, n1="65.0")).grid.n1 == 65


# A valid value other than SMALL_CFG's for each field of the settings blocks
# that are read field by field; n1 and n2 change together (the plate is
# square).
FIELD_EDITS = {
    "youngs_modulus": {"youngs_modulus": "70e9"},
    "poisson_ratio": {"poisson_ratio": "0.3"},
    "density": {"density": "2800"},
    "thickness": {"thickness": "0.004"},
    "side_length": {"side_length": "0.3"},
    "n1": {"n1": "129", "n2": "129"},
    "n2": {"n1": "129", "n2": "129"},
    "steps": {"steps": "200"},
    "safety": {"safety": "0.8"},
    "record_every": {"record_every": "2"},
    "space_order": {"space_order": "2"},
    "regions_x": {"regions_x": "2"},
    "regions_y": {"regions_y": "8"},
    "rank": {"rank": "5"},
    "window_len": {"window_len": "9"},
    "ratio": {"ratio": "0.3"},
    "theta": {"theta": "0.6"},
}

SETTINGS_BLOCKS = (("material", MaterialSpec), ("grid", GridSettings),
                   ("detection", DetectionSettings))


def test_settings_fields_are_the_block_keys():
    # every field is read under its own name, by its annotation's type, and
    # an absent key takes the dataclass default or is named as required
    base = EVERY_KEY_CFG
    read = {f.name for _, cls in SETTINGS_BLOCKS for f in fields(cls)} - {"mask"}
    assert read == set(FIELD_EDITS)
    for block, cls in SETTINGS_BLOCKS:
        for f in fields(cls):
            if f.name == "mask":
                continue
            edit = FIELD_EDITS[f.name]
            got = getattr(getattr(parse_scenario(_edit(base, **edit)), block), f.name)
            want = {"int": int, "float": float}[f.type](float(edit[f.name]))
            assert got == want and type(got) is type(want), f.name
            if f.default is MISSING:
                with pytest.raises(ConfigError, match=f"missing required key '{f.name}'"):
                    parse_scenario(_drop(base, f.name))
            else:
                dropped = getattr(parse_scenario(_drop(base, f.name)), block)
                assert getattr(dropped, f.name) == f.default, f.name


def test_int_fields_name_their_line():
    lines = EVERY_KEY_CFG.split("\n")
    int_fields = [f.name for _, cls in SETTINGS_BLOCKS for f in fields(cls)
                  if f.type == "int"]
    assert int_fields == ["n1", "n2", "steps", "record_every", "space_order",
                          "regions_x", "regions_y", "rank", "window_len"]
    for name in int_fields:
        line = next(i for i, ln in enumerate(lines, 1) if ln.startswith(f"{name} = "))
        with pytest.raises(
            ConfigError,
            match=f"^line {line}: bad value for '{name}': '2.5' is not an integer$",
        ):
            parse_scenario(_edit(EVERY_KEY_CFG, **{name: "2.5"}))
    # an override given as text is read by the same annotation
    s = with_overrides(parse_scenario(SMALL_CFG), rank="2", window_len="9.0",
                       ratio="0.3", theta="0.6")
    assert (s.detection.rank, s.detection.window_len) == (2, 9)
    assert (s.detection.ratio, s.detection.theta) == (0.3, 0.6)
    assert type(s.detection.window_len) is int
    with pytest.raises(ConfigError, match="^bad value for 'theta': 'nan' is not"):
        with_overrides(s, theta="nan")


def test_detection_config_holds_one_velocity():
    # a speed in m/s, positive and finite, or the probe pair it comes from
    base = parse_scenario(SMALL_CFG).detection_config()
    for speed in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match=f"^velocity {speed} is not positive"):
            replace(base, velocity=speed)
    pair = ProbePair(GridPoint(10, 1), GridPoint(50, 1))
    assert replace(base, velocity=pair).velocity == pair
    assert replace(base, velocity=5000.0).velocity == 5000.0


def test_detection_config_and_partition_hold_plain_numbers():
    # built in Python, not parsed: a number of the wrong kind is refused by
    # the field it was given for, and a numpy number is held as a plain one
    base = parse_scenario(SMALL_CFG).detection_config()
    for key, value, kind in (("window_len", 9.5, "an integer"),
                             ("rank", True, "an integer"),
                             ("theta", math.nan, "a number")):
        with pytest.raises(ValueError, match=re.escape(f"{key} must be {kind}, got {value!r}")):
            replace(base, **{key: value})
    with pytest.raises(ValueError, match=r"^n1 must be an integer, got 129\.0$"):
        Partition(129.0, 129.0, 8, 8)
    held = replace(base, window_len=np.int64(9), rank=np.int32(2), ratio=np.float32(0.5))
    assert [type(v) for v in (held.window_len, held.rank, held.ratio)] == [int, int, float]
    part = Partition(np.int64(129), np.uint16(129), np.int8(8), 8)
    assert part == Partition(129, 129, 8, 8)
    assert {type(v) for v in (part.n1, part.n2, part.regions_x, part.p1)} == {int}


def test_python_overrides_hold_their_field_types():
    # a value from Python is not parsed: an int field takes an integral
    # number, a float field a real one, and neither takes a bool
    s = parse_scenario(SMALL_CFG)
    for key, value, kind in (("window_len", 9.5, "an integer"),
                             ("rank", True, "an integer"),
                             ("ratio", True, "a number")):
        with pytest.raises(ConfigError, match=re.escape(
            f"bad detection setting: {key} must be {kind}, got {value!r}"
        )):
            with_overrides(s, **{key: value})
    with pytest.raises(ValueError, match="^velocity True is a bool, not a speed$"):
        replace(s.detection_config(), velocity=True)
    # an int stands for a float
    given = with_overrides(s, rank=2, window_len=9, ratio=1, theta=0.6)
    assert (given.detection.rank, given.detection.window_len) == (2, 9)
    assert (given.detection.ratio, given.detection.theta) == (1, 0.6)


def test_python_mask_override_must_be_mask_settings():
    # the mask has no text form outside a file: a string is refused where
    # the setting is made, before anything tries to build it
    s = load_scenario(bundled_config_path("bench1_ci"))
    with pytest.raises(ConfigError, match=re.escape(
        "bad detection setting: mask must be a MaskSettings, got 'random 0.5'"
    )):
        with_overrides(s, mask="random 0.5")
    masked = with_overrides(s, mask=MaskSettings("random", ratio=0.5))
    assert masked.detection.mask == MaskSettings("random", ratio=0.5)


def test_python_override_of_an_unknown_key_names_it():
    s = load_scenario(bundled_config_path("bench1_ci"))
    with pytest.raises(ConfigError, match="^unknown detection setting 'bogus'$"):
        with_overrides(s, bogus=3)


# Every key a scenario file can hold, once each (plus a line-segment defect).
EVERY_KEY_CFG = SMALL_CFG.replace(
    "record_every = 4\n", "record_every = 4\nspace_order = 4\n"
).replace(
    "amplitude = 1.0\n", "amplitude = 1.0\nsource_l = 0\nsource_m = 0\n"
).replace(
    "theta = 0.5\n", "theta = 0.5\nmask = full\nsharing = shared\n"
).replace(
    "mode = analytic\n",
    "mode = pair\nfirst_l = 20\nfirst_m = 1\nsecond_l = 44\nsecond_m = 1\n",
) + """
[defect]
kind = line_segment
x1 = 0.6
y1 = 0.6
x2 = 0.7
y2 = 0.8
modulus_scale = 0.5
density_scale = 2
"""


def test_docstring_lists_every_key():
    # the module docstring is the documented full key list
    doc = wavesaliency.config.__doc__
    keys = {ln.split(" = ")[0] for ln in EVERY_KEY_CFG.split("\n") if " = " in ln}
    assert len(keys) == 39
    for key in sorted(keys):
        assert re.search(rf"^    {key} = ", doc, re.MULTILINE), key


def test_docstring_shows_the_defaults():
    # the key list parses as a scenario, and leaving out any key that is not
    # required changes nothing: every default it shows is the default
    example = textwrap.dedent(wavesaliency.config.__doc__.split("::\n", 1)[1])
    full = parse_scenario(example)
    lines = example.split("\n")
    optional = []
    for i, line in enumerate(lines):
        if " = " not in line:
            continue
        try:
            shorter = parse_scenario("\n".join(lines[:i] + lines[i + 1:]))
        except ConfigError:
            continue  # a required key
        assert shorter == full, line
        optional.append(line.split(" = ")[0])
    assert len(optional) == 14, optional


# Values that some key lines read without a parse error, so a run can get
# past the parser with one of them: a number out of range or not an
# integer, or a word where a word is read.
PARSEABLE_BAD_VALUES = ("1e308", "1e-308", "2.5", "1234567890123456789012", "abc", "1e-5")


def _bad_value_table(
    values=("inf", "-inf", "nan", "1e309", "0x10", "", "0", "-0"),
) -> list[tuple[str, str, str]]:
    """(key, value, config text) with each bad value on each key line in turn."""
    lines = EVERY_KEY_CFG.split("\n")
    keyed = [i for i, ln in enumerate(lines) if " = " in ln]
    assert len(keyed) == 42
    table = []
    for i in keyed:
        key = lines[i].split(" = ")[0]
        for value in values:
            text = "\n".join(lines[:i] + [f"{key} = {value}".rstrip()] + lines[i + 1:])
            table.append((key, value, text))
    return table


def test_bad_values_on_every_key_raise_config_error():
    # a non-finite, overflowing, hex or empty value is an error on every
    # key, and zero either parses or is an error, but nothing else may
    # escape parse_scenario
    parse_scenario(EVERY_KEY_CFG)
    for key, value, text in _bad_value_table():
        try:
            parse_scenario(text)
        except ConfigError:
            continue
        assert value in ("0", "-0"), f"{key} = {value!r} was accepted"


def test_rank_values():
    assert parse_scenario(_edit(SMALL_CFG, rank="14")).detection.rank == 14
    rank_line = SMALL_CFG.split("\n").index("rank = 3") + 1
    for value in ("fast", "auto"):
        with pytest.raises(ConfigError, match=f"^line {rank_line}: bad value for 'rank'"):
            parse_scenario(_edit(SMALL_CFG, rank=value))
    with pytest.raises(ConfigError, match="^bad value for 'rank': .*'auto'"):
        with_overrides(parse_scenario(SMALL_CFG), rank="auto")
    # a snapshot has one row per node the mask keeps in a region (17 x 17
    # here), and a rank above that joins blocks, so it names no line
    assert parse_scenario(_edit(SMALL_CFG, rank="289")).detection.rank == 289
    with pytest.raises(ConfigError, match="^rank 290 exceeds the 289 node"):
        parse_scenario(_edit(SMALL_CFG, rank="290"))
    cross = parse_scenario(_inject(SMALL_CFG, "detection", "mask = cross 2"))
    assert with_overrides(cross, rank=33).detection.rank == 33
    with pytest.raises(ConfigError, match="^rank 34 exceeds the 33 node"):
        with_overrides(cross, rank=34)


def test_analytic_mode_supplies_velocity():
    s = parse_scenario(SMALL_CFG)
    cfg = s.detection_config()
    assert not isinstance(cfg.velocity, ProbePair)
    # the default pair is stored in analytic mode too (0.3 and 0.7 of 64)
    assert s.probes.pair == ProbePair(GridPoint(19, 1), GridPoint(45, 1))
    assert cfg.velocity == pytest.approx(
        analytic_group_velocity(s.material, 250e3)
    )
    paired = parse_scenario(
        SMALL_CFG + "first_l = 10\nfirst_m = 1\nsecond_l = 50\nsecond_m = 1\n"
    )
    # coordinates parsed even if unused
    assert paired.probes.pair == ProbePair(GridPoint(10, 1), GridPoint(50, 1))
    explicit = parse_scenario(
        _edit(
            SMALL_CFG + "first_l = 10\nfirst_m = 1\nsecond_l = 50\nsecond_m = 1\n",
            mode="pair",
        )
    )
    cfg2 = explicit.detection_config()
    assert isinstance(cfg2.velocity, ProbePair)
    assert cfg2.velocity.first == GridPoint(10, 1)


def test_off_grid_placements_rejected():
    with pytest.raises(ConfigError, match="off the grid"):
        parse_scenario(_inject(SMALL_CFG, "excitation", "source_l = 400"))
    with pytest.raises(ConfigError, match="off the grid"):
        parse_scenario(
            _edit(
                SMALL_CFG + "first_l = 10\nfirst_m = 1\nsecond_l = 99\nsecond_m = 1\n",
                mode="pair",
            )
        )


def test_analytic_mode_still_checks_its_probes(tmp_path, capsys):
    # mode = analytic leaves the pair unused, but off-grid or equal
    # coordinates are still a configuration error
    probes = "first_l = {}\nfirst_m = {}\nsecond_l = {}\nsecond_m = {}\n"
    for coords, message in (((10, 1, 99, 1), "off the grid"),
                            ((10, 1, 10, 1), "probes must be distinct nodes")):
        cfg = tmp_path / "probes.cfg"
        cfg.write_text(SMALL_CFG + probes.format(*coords))
        with pytest.raises(ConfigError, match=message):
            load_scenario(cfg)
        assert main(["simulate", str(cfg), str(tmp_path / "p.wvc")]) == EXIT_CONFIG
        assert message in capsys.readouterr().err
        assert not (tmp_path / "p.wvc").exists()


def test_bundled_configs_parse():
    expected_defects = {
        "bench1": 3,
        "bench2": 1,
        "pristine": 0,
        "bench1_ci": 3,
        "pristine_ci": 0,
    }
    for name, count in expected_defects.items():
        s = load_scenario(bundled_config_path(name))
        assert len(s.defects) == count, name
        assert s.seed == 2026
    main_cfg = load_scenario(bundled_config_path("bench1"))
    assert (main_cfg.grid.n1, main_cfg.detection.regions_x) == (257, 16)
    ci = load_scenario(bundled_config_path("bench1_ci"))
    assert (ci.grid.n1, ci.detection.regions_x) == (129, 8)
    with pytest.raises(FileNotFoundError):
        bundled_config_path("bench9")


def test_scenario_echo_is_stable():
    s = parse_scenario(SMALL_CFG)
    echo = scenario_echo(s)
    again = scenario_echo(parse_scenario(SMALL_CFG))
    assert echo == again
    assert list(echo) == list(again)  # key order is deterministic too
    assert echo["grid.n1"] == "65"
    assert echo["material.youngs_modulus"] == repr(71e9)
    assert "defect.0" in echo
    assert echo["detection.mask"] == "full"
    for lines, text in (("mask = random 0.2\nsharing = per_region",
                         "random 0.2 sharing=per_region"),
                        ("mask = cross 2", "cross 2 sharing=shared")):
        masked = parse_scenario(_inject(SMALL_CFG, "detection", lines))
        assert scenario_echo(masked)["detection.mask"] == text


BUNDLED = ("bench1", "bench2", "pristine", "bench1_ci", "pristine_ci")


def _retyped(value, as_int, as_float):
    """``value`` rebuilt with each int passed through ``as_int`` and each
    float through ``as_float``, every dataclass by ``replace``."""
    if is_dataclass(value):
        return replace(value, **{f.name: _retyped(getattr(value, f.name), as_int, as_float)
                                 for f in fields(value)})
    if isinstance(value, tuple):
        return tuple(_retyped(v, as_int, as_float) for v in value)
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return value
    return as_int(value) if isinstance(value, int) else as_float(value)


@pytest.mark.parametrize("name", BUNDLED)
def test_scenario_echo_is_the_file_text_from_any_number_type(name):
    # the same scenario from numpy scalars, or with its integral floats
    # given as ints, echoes what its file does
    s = load_scenario(bundled_config_path(name))
    masks = (s.detection.mask, MaskSettings("random", ratio=1.0),
             MaskSettings("random", ratio=0.33, sharing="per_region"),
             MaskSettings("cross", stride=2))
    for as_int, as_float in ((np.int64, np.float64),
                             (int, lambda v: int(v) if v.is_integer() else v)):
        rebuilt = _retyped(s, as_int, as_float)
        assert type(rebuilt.material.density) is float  # the plate holds plain numbers too
        assert scenario_echo(rebuilt) == scenario_echo(s)
        for mask in masks:
            assert str(_retyped(mask, as_int, as_float)) == str(mask)


# (name, build, kind, error): ``build(v)`` makes settings with the
# number v in one field and returns the value that field holds.
NUMBER_FIELDS = (
    ("GridSettings.n1", lambda v: GridSettings(v, v, 10).n1, int, ValueError),
    ("GridSettings.steps", lambda v: GridSettings(9, 9, v).steps, int, ValueError),
    ("GridSettings.safety", lambda v: GridSettings(9, 9, 10, safety=v).safety,
     float, ValueError),
    ("DetectionSettings.rank", lambda v: DetectionSettings(4, 4, v).rank, int, ValueError),
    ("DetectionSettings.ratio", lambda v: DetectionSettings(4, 4, 3, ratio=v).ratio,
     float, ValueError),
    ("seed", lambda v: replace(parse_scenario(SMALL_CFG), seed=v).seed, int, ConfigError),
    ("MaskSettings.ratio", lambda v: MaskSettings("random", ratio=v).ratio,
     float, ValueError),
    ("MaskSettings.stride", lambda v: MaskSettings("cross", stride=v).stride,
     int, ValueError),
    ("GridPoint.l", lambda v: GridPoint(v, 0).l, int, ValueError),
    ("MaterialSpec.density", lambda v: MaterialSpec(71e9, 0.33, v, 0.005, 0.25).density,
     float, ValueError),
    ("ExcitationSpec.cycle_count",
     lambda v: ExcitationSpec(5e5, v, 1.0, GridPoint(0, 0)).cycle_count, int, ValueError),
    ("ExcitationSpec.amplitude",
     lambda v: ExcitationSpec(5e5, 5, v, GridPoint(0, 0)).amplitude, float, ValueError),
    ("DefectSpec.modulus_scale",
     lambda v: DefectSpec("point_inclusion", (0.2, 0.4), v, 100.0).modulus_scale,
     float, ValueError),
    ("DefectSpec.geometry",
     lambda v: DefectSpec("point_inclusion", (v, 0.4), 100.0, 100.0).geometry[0],
     float, ValueError),
)


@pytest.mark.parametrize("name, build, kind, error", NUMBER_FIELDS,
                         ids=[row[0] for row in NUMBER_FIELDS])
def test_settings_numbers_hold_plain_python_numbers(name, build, kind, error):
    # an int field takes any integral number and a float field any real
    # one, numpy scalars included, and holds the plain number; a bool is
    # neither, an int field takes no float, and neither takes text
    if kind is int:
        given = (2, np.int64(2), np.int32(2), np.uint8(2))
        refused = (True, np.True_, 2.0, np.float64(2.0), Fraction(2, 1), "2", None)
    else:
        given = (1, np.int64(1), 0.5, np.float64(0.5), np.float32(0.5), Fraction(1, 2))
        refused = (True, np.True_, "0.5", None, 0.5j)
    for value in given:
        held = build(value)
        assert held == value and type(held) is kind, (name, value)
    for value in refused:
        with pytest.raises(error):
            build(value)


def test_every_float_field_refuses_nan_and_infinity():
    # a non-finite float, or a real number past float range, is refused with
    # a ValueError where its record is made: not as a divergence at step 1,
    # nor as an OverflowError
    s = parse_scenario(_inject(SMALL_CFG, "detection", "mask = random 0.5"))
    records = (s.material, s.grid, s.excitation, s.defects[0], s.detection)
    float_fields = [(r, f.name) for r in records for f in fields(r) if f.type == "float"]
    assert len(float_fields) == 12
    for bad in (math.nan, math.inf, -math.inf, np.float64("nan"), np.float32("inf"),
                10**400, Fraction(10**400, 3)):
        for record, name in float_fields:
            with pytest.raises(ValueError):
                replace(record, **{name: bad})
        with pytest.raises(ValueError):
            replace(s.defects[0], geometry=(bad, 0.5))
        with pytest.raises(ValueError, match="mask 'random' needs"):
            replace(s.detection.mask, ratio=bad)
        with pytest.raises(ConfigError, match="bad detection setting"):
            with_overrides(s, theta=bad)
    # finiteness is a float rule: an int field takes any Python int
    assert GridPoint(10**400, 0).l == 10**400


def test_defect_geometry_is_a_tuple_of_plain_floats():
    as_list = DefectSpec("point_inclusion", [0.2, np.float64(0.4)], 100, 100)
    as_tuple = DefectSpec("point_inclusion", (0.2, 0.4), 100.0, 100.0)
    assert as_list == as_tuple and hash(as_list) == hash(as_tuple)
    assert all(type(g) is float for g in as_list.geometry)
    assert type(as_list.geometry) is tuple
    with pytest.raises(ValueError, match="geometry must be a number"):
        DefectSpec("point_inclusion", ("0.2", 0.4), 100, 100)


def test_plate_material_refuses_text():
    with pytest.raises(ValueError, match="density must be a number, got '2700'"):
        MaterialSpec(71e9, 0.33, "2700", 0.005, 0.25)


# ---------------------------------------------------------------------------
# CLI commands (in-process)
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def small_run(tmp_path_factory):
    """Simulate the small scenario once; reuse cube + config for CLI tests."""
    root = tmp_path_factory.mktemp("cli_small")
    cfg = root / "small.cfg"
    cfg.write_text(SMALL_CFG)
    cube_path = root / "small.wvc"
    assert main(["simulate", str(cfg), str(cube_path)]) == EXIT_OK
    return cfg, cube_path


@pytest.fixture(scope="module")
def ci_cube_file(tmp_path_factory, ci_bench1):
    _, cube = ci_bench1
    path = tmp_path_factory.mktemp("cli_ci") / "ci.wvc"
    write_cube(cube, path)
    return path


def test_simulate_writes_cube_and_meta(small_run):
    cfg, cube_path = small_run
    assert cube_path.exists()
    meta = cube_path.with_suffix(".wvc.meta")
    assert meta.exists()
    text = meta.read_text()
    assert "grid.n1 = 65" in text
    assert "cube.dt = " in text
    cube = read_cube(cube_path)
    assert (cube.n1, cube.n2) == (65, 65)
    assert cube.t_len == 160 // 4 + 1


def test_simulate_is_byte_deterministic(small_run, tmp_path):
    cfg, cube_path = small_run
    again = tmp_path / "again.wvc"
    assert main(["simulate", str(cfg), str(again)]) == EXIT_OK
    assert again.read_bytes() == cube_path.read_bytes()
    assert (
        again.with_suffix(".wvc.meta").read_bytes()
        == cube_path.with_suffix(".wvc.meta").read_bytes()
    )


def test_detect_emits_all_artifacts(small_run, tmp_path):
    cfg, cube_path = small_run
    prefix = tmp_path / "out"
    assert main(["detect", str(cube_path), str(cfg), str(prefix)]) == EXIT_OK
    for suffix in (".csv", ".pgm", ".mask.pgm", ".flags.txt", ".manifest"):
        assert (tmp_path / f"out{suffix}").exists(), suffix
    manifest = (tmp_path / "out.manifest").read_text()
    assert "rank = 3" in manifest
    assert "velocity_source = analytic" in manifest
    assert "singular_values = " in manifest
    for line in (tmp_path / "out.flags.txt").read_text().splitlines():
        a, b = line.split()
        assert 0 <= int(a) < 4 and 0 <= int(b) < 4


def test_detect_takes_one_svd_for_its_manifest(small_run, tmp_path, monkeypatch):
    # scoring fits each offset from its Gram matrix, so with no closed Gram
    # gap the run's only full SVD is the manifest's tau = 0 spectrum
    cfg, cube_path = small_run
    calls = []
    original = np.linalg.svd

    def counted(*args, **kwargs):
        calls.append(kwargs.get("compute_uv", True))
        return original(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted)
    assert main(["detect", str(cube_path), str(cfg), str(tmp_path / "s")]) == EXIT_OK
    assert calls == [False]


# The [detection] lines of each masked bench1_ci, and the mask its manifest echoes.
MASKED_LINES = {
    "shared": ("mask = random 0.5", "random 0.5 sharing=shared"),
    "per_region": ("mask = random 0.5\nsharing = per_region", "random 0.5 sharing=per_region"),
    "cross": ("mask = cross 2", "cross 2 sharing=shared"),
}


@pytest.mark.parametrize("form", MASKED_LINES)
def test_masked_detect_draws_its_rows_once_and_is_detect_scenario(
    form, ci_bench1, ci_cube_file, tmp_path, monkeypatch
):
    # bench1_ci at mask = random 0.5, shared and per region, and at cross 2:
    # the CLI draws the mask's rows once, for scoring, and the manifest's
    # spectrum reuses them; its outputs are detect_scenario's and
    # snapshot_spectrum's, run here in process
    _, cube = ci_bench1
    lines, echo = MASKED_LINES[form]
    text = bundled_config_path("bench1_ci").read_text().replace("mask = full", lines)
    cfg = tmp_path / "masked.cfg"
    cfg.write_text(text)
    draw, drawn = Mask.row_indices, []

    def counted(self, *args):
        drawn.append(self.sharing)
        return draw(self, *args)

    with monkeypatch.context() as patch:
        patch.setattr(Mask, "row_indices", counted)
        assert main(["detect", str(ci_cube_file), str(cfg), str(tmp_path / "m")]) == EXIT_OK
    assert drawn == [parse_scenario(text).detection.mask.sharing]
    result = detect_scenario(parse_scenario(text), cube)
    heat_map, activity = saliency_pgm_texts(result.saliency)
    for suffix, text in ((".csv", saliency_csv_text(result.saliency)), (".pgm", heat_map),
                         (".mask.pgm", activity), (".flags.txt", flags_text(result.flagged))):
        assert (tmp_path / f"m{suffix}").read_text() == text, suffix
    spectrum = snapshot_spectrum(result.window_set, result.saliency.scores)
    manifest = (tmp_path / "m.manifest").read_text().splitlines()
    assert f"mask = {echo}" in manifest
    assert "singular_values = " + singular_values_text(spectrum) in manifest


def test_singular_values_are_printed_on_a_grid_of_1e_10_s0(ci_bench1):
    # each printed value is the multiple of 1e-10 s_0 nearest the value,
    # s_0 as its own .9e text prints, so round-off far below the step, the
    # BLAS thread count's or kernel's, moves no digit
    scenario, cube = ci_bench1
    result = detect_scenario(scenario, cube)
    values = snapshot_spectrum(result.window_set, result.saliency.scores)
    text = singular_values_text(values)
    printed = text.split()
    assert len(printed) == values.size and printed[0] == f"{values[0]:.9e}"
    s0 = float(printed[0])
    step = 1e-10 * s0
    for word, value in zip(printed, values):
        assert word == f"{round(float(word) / step) / 1e10 * s0:.9e}", word
        # within half a step, plus the half unit of the text's last digit
        assert abs(float(word) - value) <= 0.5 * step + 5e-10 * float(word), word
    for shift in (1e-6 * step, -1e-6 * step):
        moved = values.copy()
        moved[1:] += shift
        assert singular_values_text(moved) == text
    # an all-zero spectrum prints as zeros
    assert singular_values_text(np.zeros(2)) == "0.000000000e+00 0.000000000e+00"


@pytest.mark.parametrize("lines", ["mask = full", MASKED_LINES["per_region"][0]])
def test_manifest_and_meta_are_their_text_functions(lines, tmp_path):
    # the CLI's .meta and .manifest are cube_meta_text's and manifest_text's
    # bytes, on bench1_ci at full sampling and with per-region random masks
    text = bundled_config_path("bench1_ci").read_text().replace("mask = full", lines)
    cfg, cube_path = tmp_path / "s.cfg", tmp_path / "s.wvc"
    cfg.write_text(text)
    assert main(["simulate", str(cfg), str(cube_path)]) == EXIT_OK
    assert main(["detect", str(cube_path), str(cfg), str(tmp_path / "d")]) == EXIT_OK
    scenario, cube = parse_scenario(text), read_cube(cube_path)
    meta = (tmp_path / "s.wvc.meta").read_bytes()
    assert meta == cube_meta_text(scenario, cube).encode()
    manifest = (tmp_path / "d.manifest").read_bytes()
    assert manifest == manifest_text(scenario, detect_scenario(scenario, cube)).encode()
    assert f"detection.mask = {scenario.detection.mask}\n".encode() in meta
    assert f"mask = {scenario.detection.mask}\n".encode() in manifest


def test_detect_window_dump(small_run, tmp_path, capsys):
    cfg, cube_path = small_run
    dump = tmp_path / "wins"
    assert main([
        "detect", str(cube_path), str(cfg), str(tmp_path / "out"),
        "--dump-windows", str(dump),
    ]) == EXIT_OK
    files = sorted(dump.glob("region_*.wvc"))
    assert files
    assert f"dumped {len(files)} region window(s)" in capsys.readouterr().out
    big = read_cube(cube_path)
    mini = read_cube(files[0])
    # 4x4 regions on the 65-node grid, 11-sample windows
    assert (mini.n1, mini.n2, mini.t_len) == (17, 17, 11)
    assert (mini.dx, mini.dt) == (big.dx, big.dt)
    assert np.any(mini.values != 0.0)


def test_dumped_windows_are_the_cube_at_each_arrival(ci_bench1, ci_cube_file, tmp_path,
                                                    capsys):
    # on 17 x 33 regions, a swap of p1 and p2 or of the region order moves
    # every file: each region_AA_BB.wvc is the cube's node block of region
    # (a, b) over the window_len samples from its arrival index
    _, cube = ci_bench1
    text = _edit(bundled_config_path("bench1_ci").read_text(), regions_y="4", rank="8")
    scenario = parse_scenario(text)
    part, window_len = scenario.partition(), scenario.detection.window_len
    assert (part.p1, part.p2) == (17, 33)
    cfg, dump = tmp_path / "rect.cfg", tmp_path / "wins"
    cfg.write_text(text)
    assert main(["detect", str(ci_cube_file), str(cfg), str(tmp_path / "d"),
                 "--dump-windows", str(dump)]) == EXIT_OK
    window_set = detect_scenario(scenario, cube).window_set
    regions = window_set.active_region_ids()
    assert len(regions) == 28
    assert "dumped 28 region window(s)" in capsys.readouterr().out
    assert sorted(p.name for p in dump.iterdir()) == sorted(
        f"region_{a:02d}_{b:02d}.wvc" for a, b in regions)
    for a, b in regions:
        window = read_cube(dump / f"region_{a:02d}_{b:02d}.wvc")
        s, l0, m0 = window_set.arrival_index[a, b], a * (part.p1 - 1), b * (part.p2 - 1)
        assert (window.n1, window.n2, window.t_len) == (part.p1, part.p2, window_len)
        assert (window.dx, window.dt) == (cube.dx, cube.dt)
        assert np.array_equal(
            window.values, cube.values[s:s + window_len, m0:m0 + part.p2, l0:l0 + part.p1]
        ), (a, b)


def test_detect_is_byte_deterministic(small_run, tmp_path):
    cfg, cube_path = small_run
    outs = []
    for name in ("one", "two"):
        prefix = tmp_path / name
        assert main(["detect", str(cube_path), str(cfg), str(prefix)]) == EXIT_OK
        outs.append({
            s: (tmp_path / f"{name}{s}").read_bytes()
            for s in (".csv", ".pgm", ".mask.pgm", ".flags.txt", ".manifest")
        })
    assert outs[0] == outs[1]


def test_detect_overrides(small_run, tmp_path, capsys):
    cfg, cube_path = small_run
    prefix = tmp_path / "ovr"
    code = main([
        "detect", str(cube_path), str(cfg), str(prefix),
        "--rank", "2", "--tw", "9", "--ratio", "0.3", "--theta", "0.9",
    ])
    assert code == EXIT_OK
    manifest = (tmp_path / "ovr.manifest").read_text()
    assert "rank = 2" in manifest
    assert "window_len = 9" in manifest
    assert "energy_ratio = 0.3" in manifest
    assert "theta = 0.9" in manifest
    # out-of-range settings are configuration errors with one message line;
    # rank 500 is above the 289 nodes of a region
    for bad in (["--rank", "fast"], ["--rank", "auto"], ["--rank", "0"],
                ["--rank", "500"], ["--ratio", "2"], ["--ratio", "0"],
                ["--theta", "0"], ["--theta", "1.5"], ["--tw", "0"]):
        capsys.readouterr()
        assert main([
            "detect", str(cube_path), str(cfg), str(tmp_path / "bad"), *bad,
        ]) == EXIT_CONFIG, bad
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: "), (bad, err)


def test_tw_is_read_like_a_window_len_line(small_run, tmp_path, capsys):
    cfg, cube_path = small_run
    assert main([
        "detect", str(cube_path), str(cfg), str(tmp_path / "f"), "--tw", "9.0",
    ]) == EXIT_OK
    assert "window_len = 9" in (tmp_path / "f.manifest").read_text()
    capsys.readouterr()
    assert main([
        "detect", str(cube_path), str(cfg), str(tmp_path / "g"), "--tw", "9.5",
    ]) == EXIT_CONFIG
    assert capsys.readouterr().err == (
        "error: bad value for 'window_len': '9.5' is not an integer\n"
    )
    assert not (tmp_path / "g.manifest").exists()


def test_ratio_and_theta_are_read_like_their_file_lines(small_run, tmp_path, capsys):
    # like --rank and --tw, text that is no number is one error line
    cfg, cube_path = small_run
    for flag in ("ratio", "theta"):
        capsys.readouterr()
        assert main([
            "detect", str(cube_path), str(cfg), str(tmp_path / "r"), f"--{flag}", "abc",
        ]) == EXIT_CONFIG
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1, err
        assert err[0].startswith(f"error: bad value for '{flag}': "), err
    assert not list(tmp_path.iterdir())


def test_rank_above_a_masked_snapshot_fails_before_the_cube_is_read(
    ci_cube_file, tmp_path, capsys, monkeypatch
):
    # bench1_ci regions keep 20 of their 289 nodes at ratio 0.07, so rank 25
    # fits every mask of the sweep but the last
    import wavesaliency.cube
    import wavesaliency.pipeline

    calls = []
    for module, name in ((wavesaliency.cube, "read_cube"),
                         (wavesaliency.pipeline, "saliency_map")):
        original = getattr(module, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls.append(_name)
            return _original(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
    ci_cfg = bundled_config_path("bench1_ci")
    out = tmp_path / "s.csv"
    capsys.readouterr()
    assert main([
        "sweep", str(ci_cube_file), str(ci_cfg), str(out),
        "--ratios", "0.5,0.33,0.2,0.1,0.07", "--rank", "25",
    ]) == EXIT_CONFIG
    assert capsys.readouterr().err == (
        "error: rank 25 exceeds the 20 node(s) the mask keeps per region\n"
    )
    cfg = tmp_path / "masked.cfg"
    cfg.write_text(_edit(ci_cfg.read_text(), mask="random 0.07"))
    assert main([
        "detect", str(ci_cube_file), str(cfg), str(tmp_path / "d"), "--rank", "25",
    ]) == EXIT_CONFIG
    assert capsys.readouterr().err.startswith("error: rank 25 exceeds the 20 node")
    assert calls == [] and not out.exists()
    # a rank every mask can hold still sweeps
    assert main([
        "sweep", str(ci_cube_file), str(ci_cfg), str(out), "--trials", "1",
        "--ratios", "0.5,0.07", "--rank", "20",
    ]) == EXIT_OK
    assert calls[0] == "read_cube" and "saliency_map" in calls


def test_negative_seed_fails_before_the_cube_is_read(
    ci_cube_file, tmp_path, capsys, monkeypatch
):
    # with a random mask or full sampling, detect and sweep refuse a negative
    # seed with one line that names it, and never read the cube
    import wavesaliency.cube

    reads = []
    original = wavesaliency.cube.read_cube
    monkeypatch.setattr(wavesaliency.cube, "read_cube",
                        lambda *a, **k: reads.append(a) or original(*a, **k))
    text = bundled_config_path("bench1_ci").read_text()
    assert re.search(r"^seed = \d+$", text, re.MULTILINE)
    text = re.sub(r"^seed = \d+$", "seed = -3", text, flags=re.MULTILINE)
    with pytest.raises(ConfigError, match="^seed must be >= 0, got -3$"):
        parse_scenario(text)
    cfg = tmp_path / "seed.cfg"
    for mask in ("random 0.5", "full"):
        cfg.write_text(_edit(text, mask=mask))
        for argv in (["detect", str(ci_cube_file), str(cfg), str(tmp_path / "d")],
                     ["sweep", str(ci_cube_file), str(cfg), str(tmp_path / "s.csv"),
                      "--trials", "1"]):
            capsys.readouterr()
            assert main(argv) == EXIT_CONFIG, (mask, argv[0])
            assert capsys.readouterr().err == "error: seed must be >= 0, got -3\n"
    assert reads == [] and not list(tmp_path.glob("[ds].*"))


# bench1_ci has 56 active regions; by command: (rank, options, error line,
# the same run in process).
RANK_ERRORS = {
    "detect": (60, [], "error: rank 60 outside [1, 56] for a 289 x 56 snapshot",
               detect_scenario),
    "sweep": (57, ["--ratios", "0.5", "--trials", "1"],
              "error: rank 57 outside [1, 56] for a 144 x 56 snapshot",
              lambda scenario, cube: sweep_scenario(scenario, cube, [0.5], 1)),
}


@pytest.mark.parametrize("command", RANK_ERRORS)
def test_rank_above_the_active_regions_exits_config(command, ci_bench1, ci_cube_file,
                                                     tmp_path, capsys):
    # the scoring core's RankError exits 2 with one error line and writes
    # no output
    rank, options, message, run = RANK_ERRORS[command]
    scenario, cube = ci_bench1
    with pytest.raises(ConfigError, match=re.escape(message.removeprefix("error: "))):
        run(with_overrides(scenario, rank=rank), cube)
    out = tmp_path / "out"
    out.mkdir()
    cfg = str(bundled_config_path("bench1_ci"))
    argv = [command, str(ci_cube_file), cfg, str(out / "r"), "--rank", str(rank), *options]
    assert main(argv) == EXIT_CONFIG
    assert capsys.readouterr().err == message + "\n"
    assert list(out.iterdir()) == []


DEFAULT_RATIOS = [0.5, 0.33, 0.2, 0.1, 0.07]

# bench1_ci sweep requests that config.sweep_masks refuses: the sweep
# options (None for a request the CLI's flags cannot make), the same request
# to sweep_scenario (rank, ratios, trials and keywords) and the one message
# both give.
SWEEP_REFUSALS = {
    "rank": (["--rank", "25"], (25, DEFAULT_RATIOS, 2, {}),
             "rank 25 exceeds the 20 node(s) the mask keeps per region"),
    "stride": (["--pattern", "cross", "--stride", "3"],
               (None, DEFAULT_RATIOS, 2, {"pattern": "cross", "stride": 3}),
               "stride must be 1, 2 or 4, got 3"),
    "ratio": (["--ratios", "0.5,0.01"], (None, [0.5, 0.01], 2, {}),
              "target ratio 0.01 keeps only 3 of 289 nodes; at least 4 required"),
    "sharing": (["--pattern", "cross", "--sharing", "per_region"],
                (None, DEFAULT_RATIOS, 2, {"pattern": "cross", "sharing": "per_region"}),
                "the double cross is one shared pattern; sharing = per_region "
                "does not apply"),
    "no_ratio": (["--ratios", ","], (None, [], 2, {}),
                 "a random sweep needs at least one ratio"),
    "no_trial": (["--trials", "0"], (None, DEFAULT_RATIOS, 0, {}),
                 "trials must be in [1, 1000000], got 0"),
    "many_trials": (["--trials", "1000001"], (None, DEFAULT_RATIOS, 1000001, {}),
                    "trials must be in [1, 1000000], got 1000001"),
    "float_trials": (None, (None, DEFAULT_RATIOS, 2.5, {}),
                     "trials must be an integer, got 2.5"),
    "bool_trials": (None, (None, DEFAULT_RATIOS, True, {}),
                    "trials must be an integer, got True"),
    "pattern": (None, (None, DEFAULT_RATIOS, 2, {"pattern": "diagonal"}),
                "unknown mask pattern 'diagonal'"),
    "text_stride": (None, (None, DEFAULT_RATIOS, 2, {"pattern": "cross", "stride": "2"}),
                    "mask 'cross' needs an integer stride, got '2'"),
    "sharing_mode": (None, (None, DEFAULT_RATIOS, 2, {"sharing": "x"}),
                     "unknown sharing mode 'x'"),
}


@pytest.mark.parametrize("case", SWEEP_REFUSALS)
def test_library_and_cli_sweeps_refuse_alike_before_any_detection(
    case, ci_bench1, ci_cube_file, tmp_path, capsys, monkeypatch
):
    # config.sweep_masks is the one check of a sweep request: the CLI runs
    # it before reading the cube, sweep_scenario before any window is cut.
    # Reaching one of these calls fails the test at once, so a lost check
    # cannot start a sweep of a million trials.
    import wavesaliency.cube
    import wavesaliency.pipeline

    for module, name in ((wavesaliency.cube, "read_cube"),
                         (wavesaliency.pipeline, "extract_windows"),
                         (wavesaliency.pipeline, "saliency_map")):
        def reached(*args, _name=name, **kwargs):
            raise AssertionError(f"{_name} ran")

        monkeypatch.setattr(module, name, reached)
    options, (rank, ratios, trials, keywords), message = SWEEP_REFUSALS[case]
    scenario, cube = ci_bench1
    with pytest.raises(ConfigError) as refused:
        sweep_scenario(with_overrides(scenario, rank=rank), cube, ratios, trials, **keywords)
    assert str(refused.value) == message
    out = tmp_path / "s.csv"
    if options is not None:
        capsys.readouterr()
        assert main(["sweep", str(ci_cube_file), str(bundled_config_path("bench1_ci")),
                     str(out), "--trials", "2", *options]) == EXIT_CONFIG
        assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("options, keywords", [
    ([], {}),
    (["--sharing", "per_region", "--ratios", "0.5"], {"sharing": "per_region"}),
    (["--pattern", "cross", "--stride", "2"], {"pattern": "cross", "stride": 2}),
], ids=["random", "per_region", "cross"])
def test_sweep_csv_is_sweep_scenarios_text(options, keywords, ci_bench1, ci_cube_file,
                                           tmp_path):
    # the CLI's CSV is sweep_csv_text of the library sweep of the same request
    scenario, cube = ci_bench1
    ratios = [0.5] if "--ratios" in options else DEFAULT_RATIOS
    out = tmp_path / "s.csv"
    assert main(["sweep", str(ci_cube_file), str(bundled_config_path("bench1_ci")),
                 str(out), "--trials", "2", *options]) == EXIT_OK
    rows = sweep_scenario(scenario, cube, ratios, 2, **keywords)
    assert out.read_bytes() == sweep_csv_text(rows).encode()


def test_exit_code_config_errors(small_run, tmp_path, capsys):
    cfg, cube_path = small_run
    broken = tmp_path / "broken.cfg"
    broken.write_text("[material\n")
    assert main(["simulate", str(broken), str(tmp_path / "x.wvc")]) == EXIT_CONFIG
    undivisible = tmp_path / "regions.cfg"
    undivisible.write_text(_edit(SMALL_CFG, regions_x="10"))
    assert main(["simulate", str(undivisible), str(tmp_path / "y.wvc")]) == EXIT_CONFIG
    # cube/config grid mismatch is a configuration problem too, refused by
    # detect and sweep before the config's probes are looked up in the cube
    other = tmp_path / "other.cfg"
    other.write_text(_edit(SMALL_CFG, n1="129", n2="129", regions_x="8", regions_y="8"))
    for argv in (["detect", str(cube_path), str(other), str(tmp_path / "mm")],
                 ["sweep", str(cube_path), str(other), str(tmp_path / "mm.csv"),
                  "--trials", "1"]):
        capsys.readouterr()
        assert main(argv) == EXIT_CONFIG, argv[0]
        assert capsys.readouterr().err == (
            "error: partition is for 129 x 129 nodes, cube has 65 x 65\n")
    missing = tmp_path / "nope.cfg"
    assert main(["simulate", str(missing), str(tmp_path / "z.wvc")]) == 1
    # the simulator's plate is square
    oblong = tmp_path / "oblong.cfg"
    oblong.write_text(_edit(SMALL_CFG, n2="33"))
    assert main(["simulate", str(oblong), str(tmp_path / "o.wvc")]) == EXIT_CONFIG
    # on a 3-node side both default probes round to node (1, 1)
    tiny = tmp_path / "tiny.cfg"
    tiny.write_text(_edit(SMALL_CFG, n1="3", n2="3", regions_x="2", regions_y="2"))
    assert main(["simulate", str(tiny), str(tmp_path / "t.wvc")]) == EXIT_CONFIG
    # out-of-range detection settings in the file fail like flag values
    for text in (_edit(SMALL_CFG, ratio="2"), _edit(SMALL_CFG, theta="0"),
                 _edit(SMALL_CFG, rank="0"), _drop(SMALL_CFG, "rank"),
                 _edit(SMALL_CFG, window_len="0"),
                 _inject(SMALL_CFG, "detection", "mask = random 2"),
                 _inject(SMALL_CFG, "detection", "mask = cross 3")):
        bad = tmp_path / "range.cfg"
        bad.write_text(text)
        assert main([
            "detect", str(cube_path), str(bad), str(tmp_path / "r")
        ]) == EXIT_CONFIG, text


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def test_one_error_class_per_exit_code():
    # errors.py defines the base and one class per exit code, each with one
    # base; every class but DataError (exit 1, like any other error) has its
    # own row of the exit-code table
    defined = {name for name, value in vars(wavesaliency.errors).items()
               if isinstance(value, type)}
    assert defined == {"WaveSaliencyError", "ConfigError", "DataError", "DivergenceError",
                       "WindowingError", "NoSignalError"}
    classes = list(_subclasses(WaveSaliencyError))
    assert sorted(cls.__name__ for cls in classes) == sorted(defined - {"WaveSaliencyError"})
    assert WaveSaliencyError.__bases__ == (Exception,)
    for cls in classes:
        assert cls.__module__ == "wavesaliency.errors" and cls.__bases__ == (WaveSaliencyError,)
        rows = [row for row in _EXIT_CODES if issubclass(cls, row[0])]
        assert len(rows) == (0 if cls is DataError else 1), cls
    assert sorted(code for _, code in _EXIT_CODES) == [EXIT_CONFIG, EXIT_DIVERGENCE,
                                                     EXIT_WINDOWING, EXIT_NO_SIGNAL]


def test_overflowing_plate_coefficients_exit_config(tmp_path, capsys):
    # a second inclusion on the same cell: 1e200 each, 1e400 together
    overlapping = _edit(SMALL_CFG, modulus_scale="1e200").replace(
        "[detection]",
        "[defect]\nkind = point_inclusion\nx = 0.4\ny = 0.3\n"
        "modulus_scale = 1e200\ndensity_scale = 1\n\n[detection]",
    )
    for text in (_edit(SMALL_CFG, modulus_scale="1e307"),
                 _edit(SMALL_CFG, youngs_modulus="1e308", thickness="10"),
                 _edit(SMALL_CFG, thickness="1e120"),
                 overlapping):
        cfg = tmp_path / "huge.cfg"
        cfg.write_text(text)
        assert main(["simulate", str(cfg), str(tmp_path / "h.wvc")]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
    assert len(parse_scenario(overlapping).defects) == 2


def test_analytic_velocity_out_of_float_range_exits_config(
    small_run, tmp_path, capsys
):
    # the small scenario takes its velocity from plate theory: a plate whose
    # stiffness overflows gives no velocity, and an infinite one is no speed
    _, cube_path = small_run
    for text in (_edit(SMALL_CFG, thickness="1e120"),
                 _edit(SMALL_CFG, youngs_modulus="1e308", thickness="10")):
        cfg = tmp_path / "plate.cfg"
        cfg.write_text(text)
        capsys.readouterr()
        assert main([
            "detect", str(cube_path), str(cfg), str(tmp_path / "v"),
        ]) == EXIT_CONFIG
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: "), err
        assert "velocity" in err[0]
    assert not list(tmp_path.glob("v.*"))
    excitation = parse_scenario(SMALL_CFG).excitation
    for speed in (math.inf, math.nan, 0.0):
        with pytest.raises(ValueError, match="velocity"):
            DetectionConfig(excitation=excitation, velocity=speed,
                            window_len=11, rank=3, ratio=0.25, theta=0.5)


def test_overflowing_bending_stiffness_is_named(ci_cube_file, tmp_path, capsys):
    # h**3 overflows (raising), or E h**3 is inf (silently): simulate (probe
    # pair) and detect (analytic velocity) each print one error line naming
    # the stiffness and its E and h
    for plate, named in (({"thickness": "1e120"},
                          "E = 71000000000.0 Pa and h = 1e+120 m"),
                         ({"youngs_modulus": "1e308", "thickness": "10"},
                          "E = 1e+308 Pa and h = 10.0 m")):
        text = _edit(bundled_config_path("bench1_ci").read_text(), **plate)
        pair_cfg, analytic_cfg = tmp_path / "pair.cfg", tmp_path / "analytic.cfg"
        pair_cfg.write_text(text)
        analytic_cfg.write_text(_edit(text, mode="analytic"))
        for argv in (["simulate", str(pair_cfg), str(tmp_path / "h.wvc")],
                     ["detect", str(ci_cube_file), str(analytic_cfg), str(tmp_path / "h")]):
            capsys.readouterr()
            assert main(argv) == EXIT_CONFIG
            err = capsys.readouterr().err.splitlines()
            assert len(err) == 1 and err[0].startswith("error: "), err
            assert "bending stiffness" in err[0], err
            assert named in err[0], err
    assert not list(tmp_path.glob("h*"))


def test_side_length_out_of_float_range_exits_config(tmp_path, capsys):
    # at 1e100 dt^2 overflows, at 1e300 dx^2 does, and at 1e-170 and 1e-150
    # dx^2 or dt^2 flushes to zero: refused before any step, with no
    # floating-point warning on the way; 1e-50 still runs
    bench1_ci = bundled_config_path("bench1_ci").read_text()
    cfg = tmp_path / "plate.cfg"
    for side, code in (("1e100", EXIT_CONFIG), ("1e300", EXIT_CONFIG),
                       ("1e-170", EXIT_CONFIG), ("1e-150", EXIT_CONFIG),
                       ("1e-50", EXIT_OK)):
        cfg.write_text(_edit(bench1_ci, side_length=side, steps="14"))
        capsys.readouterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["simulate", str(cfg), str(tmp_path / "p.wvc")]) == code, side
        err = capsys.readouterr().err
        assert "Warning" not in err, (side, err)
        if code == EXIT_CONFIG:
            assert err.startswith("error: the plate cannot be simulated: "), err
            assert err.count("\n") == 1, err
    assert read_cube(tmp_path / "p.wvc").t_len == 3


def test_plate_values_out_of_float_range_exit_with_no_warning(
    ci_cube_file, tmp_path, capsys
):
    # one value of bench1_ci changed: a near-zero stiffness overflows the
    # node averages and dt, a huge force overflows inside the step loop,
    # and a burst N_c/nu whose square leaves float range is refused as the
    # file is read, by detect and sweep too, at the [excitation] header;
    # each prints one error line and no floating-point warning
    bench1_ci = bundled_config_path("bench1_ci").read_text()
    header = bench1_ci.split("\n").index("[excitation]") + 1
    burst = f"error: line {header}: the burst lasts N_c/nu = "
    cfg = tmp_path / "plate.cfg"
    simulate = ["simulate", str(cfg), str(tmp_path / "p.wvc")]
    every_command = (
        simulate,
        ["detect", str(ci_cube_file), str(cfg), str(tmp_path / "d")],
        ["sweep", str(ci_cube_file), str(cfg), str(tmp_path / "s.csv"), "--trials", "1"],
    )
    for change, code, named, commands in (
        ({"modulus_scale": "1e-320"}, EXIT_CONFIG, "step gain zero", [simulate]),
        ({"amplitude": "1e308"}, EXIT_DIVERGENCE, "diverged at step", [simulate]),
        ({"cycles": "1e308"}, EXIT_CONFIG, burst + "1e+308 / 250000 Hz", every_command),
        ({"frequency": "1e-300"}, EXIT_CONFIG, burst + "5 / 1e-300 Hz", every_command),
        ({"frequency": "1e300"}, EXIT_CONFIG, burst + "5 / 1e+300 Hz", every_command),
    ):
        cfg.write_text(_edit(bench1_ci, **change))
        for argv in commands:
            capsys.readouterr()
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                assert main(argv) == code, (change, argv)
            err = capsys.readouterr().err.splitlines()
            assert len(err) == 1 and err[0].startswith("error: "), (change, argv, err)
            assert named in err[0], (change, argv, err)
    assert not list(tmp_path.glob("[pds].*"))


def test_record_too_large_to_allocate_is_one_error_line(tmp_path, capsys):
    # 10**12 recorded 129^2 states are 118 PiB, beyond any user address
    # space, so the allocation fails before a step runs
    text = _edit(bundled_config_path("bench1_ci").read_text(),
                 steps=str(10**12), record_every="1")
    cfg = tmp_path / "long.cfg"
    cfg.write_text(text)
    assert main(["simulate", str(cfg), str(tmp_path / "l.wvc")]) == EXIT_ERROR
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: "), err
    assert "allocate" in err[0], err
    assert not list(tmp_path.glob("l.*"))


def test_cube_claiming_more_than_its_file_is_one_error_line(
    ci_cube_file, tmp_path, capsys
):
    # the header says 4000^3 samples, the file holds 5 of them
    blob = bytearray(ci_cube_file.read_bytes()[:76])
    blob[8:20] = np.array([4000, 4000, 4000], dtype="<u4").tobytes()
    huge = tmp_path / "huge.wvc"
    huge.write_bytes(bytes(blob))
    cfg = bundled_config_path("bench1_ci")
    for argv in (["detect", str(huge), str(cfg), str(tmp_path / "d")],
                 ["spectrum", str(huge), str(tmp_path / "s")]):
        capsys.readouterr()
        assert main(argv) == EXIT_ERROR, argv
        err = capsys.readouterr().err.splitlines()
        assert err == ["error: payload length mismatch: header implies "
                       "512000000000 bytes, got 40"], (argv, err)


def _assert_one_error_line(returncode: int, stderr: str) -> str:
    """The child exited 1 with a single ``error:`` line and no traceback."""
    assert returncode == EXIT_ERROR, stderr
    assert "Traceback" not in stderr and "MemoryError" not in stderr
    lines = stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), lines
    return lines[0]


@pytest.mark.skipif(not os.path.exists("/dev/stdin"), reason="no /dev/stdin")
def test_cube_on_a_pipe_is_one_error_line(ci_cube_file, tmp_path):
    # a pipe cannot be sized against the header before the payload is
    # allocated, so it is refused: the 4000^3 samples are never asked for
    blob = bytearray(ci_cube_file.read_bytes()[:76])
    blob[8:20] = np.array([4000, 4000, 4000], dtype="<u4").tobytes()
    proc = subprocess.run(
        [sys.executable, "-m", "wavesaliency.cli", "spectrum", "/dev/stdin",
         str(tmp_path / "s")],
        input=bytes(blob),
        capture_output=True,
        env=_child_env(),
    )
    line = _assert_one_error_line(proc.returncode, proc.stderr.decode())
    assert "/dev/stdin" in line and "cubes must be seekable files" in line, line
    assert not list(tmp_path.iterdir())


@pytest.mark.skipif(
    not (os.path.exists("/dev/full") and stat.S_ISCHR(os.stat("/dev/full").st_mode)),
    reason="no /dev/full character device",
)
def test_simulate_to_a_full_device_is_one_error_line(tmp_path):
    cfg = tmp_path / "small.cfg"
    cfg.write_text(SMALL_CFG)
    proc = subprocess.run(
        [sys.executable, "-m", "wavesaliency.cli", "simulate", str(cfg), "/dev/full"],
        capture_output=True,
        text=True,
        env=_child_env(),
    )
    line = _assert_one_error_line(proc.returncode, proc.stderr)
    assert "No space left on device" in line and "/dev/full" in line, line
    assert proc.stdout == ""


def test_double_cross_rejects_per_region_sharing(ci_cube_file, tmp_path):
    text = _inject(SMALL_CFG, "detection", "mask = cross 2\nsharing = per_region")
    with pytest.raises(ConfigError, match="double cross is one shared pattern"):
        parse_scenario(text)
    # only random masks are drawn per region: full sampling, spelled out or
    # by default, rejects per-region sharing too
    for lines in ("mask = full\nsharing = per_region", "sharing = per_region"):
        with pytest.raises(ConfigError, match="full sampling is one shared pattern"):
            parse_scenario(_inject(SMALL_CFG, "detection", lines))
    out = tmp_path / "x.csv"
    assert main([
        "sweep", str(ci_cube_file), str(bundled_config_path("bench1_ci")), str(out),
        "--trials", "1", "--pattern", "cross", "--sharing", "per_region",
    ]) == EXIT_CONFIG
    assert not out.exists()


def test_exit_code_divergence(tmp_path):
    cfg = tmp_path / "unstable.cfg"
    cfg.write_text(_edit(
        SMALL_CFG, n1="33", n2="33", steps="4000", safety="1.08",
        regions_x="4", regions_y="4",
    ))
    assert main(["simulate", str(cfg), str(tmp_path / "u.wvc")]) == EXIT_DIVERGENCE


def test_exit_code_windowing(ci_cube_file, tmp_path, capsys):
    # 3 stored samples cannot hold an 11-sample window anywhere
    cfg = tmp_path / "short.cfg"
    cfg.write_text(_edit(SMALL_CFG, steps="42", record_every="21"))
    cube_path = tmp_path / "short.wvc"
    assert main(["simulate", str(cfg), str(cube_path)]) == EXIT_OK
    assert main([
        "detect", str(cube_path), str(cfg), str(tmp_path / "w")
    ]) == EXIT_WINDOWING
    # bench1_ci's cube under a header whose dx sits at the top of float
    # range: every centroid leaves it, each start is past the record, and
    # no floating-point warning is raised on the way.  A subnormal dt (or
    # dx) is refused as the cube is read, so it exits 1
    for edit, code, line in (
        ({"dx": 1.7e308}, EXIT_WINDOWING,
         "error: no region has a usable window inside the recorded interval"),
        ({"dt": 5e-324}, EXIT_ERROR,
         "error: cube file rejected: dt must be positive, finite and normal, got 5e-324"),
    ):
        assert _edited_header_runs(ci_cube_file, tmp_path, capsys, edit) == [
            (code, [line])] * 2, edit


def _edited_header_runs(cube_file, tmp_path, capsys, edit):
    """(exit code, stderr lines) of detect and sweep on bench1_ci's cube with
    the header fields of ``edit`` replaced; no run may raise a warning."""
    offsets = {"dx": 20, "dt": 28}
    blob = bytearray(cube_file.read_bytes())
    for name, value in edit.items():
        blob[offsets[name]:offsets[name] + 8] = struct.pack("<d", value)
    edited = tmp_path / "edge.wvc"
    edited.write_bytes(blob)
    ci_cfg = str(bundled_config_path("bench1_ci"))
    runs = []
    for argv in (["detect", str(edited), ci_cfg, str(tmp_path / "e")],
                 ["sweep", str(edited), ci_cfg, str(tmp_path / "e.csv"),
                  "--trials", "1", "--ratios", "0.5"]):
        capsys.readouterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(argv)
        runs.append((code, capsys.readouterr().err.splitlines()))
    return runs


def test_subnormal_header_step_is_one_error_line(ci_cube_file, tmp_path, capsys):
    # a dx of 5e-324 keeps too few bits for the probe separation and the
    # centroid distances: it is refused as the cube is read.  1e-300 is a
    # normal float and finds the 13 regions of the true dx
    line = "error: cube file rejected: dx must be positive, finite and normal, got 5e-324"
    runs = _edited_header_runs(ci_cube_file, tmp_path, capsys, {"dx": 5e-324})
    assert runs == [(EXIT_ERROR, [line])] * 2
    assert not (tmp_path / "e.csv").exists()
    flags = []
    for dx in (read_cube(ci_cube_file).dx, 1e-300):
        runs = _edited_header_runs(ci_cube_file, tmp_path, capsys, {"dx": dx})
        assert [code for code, _ in runs] == [EXIT_OK] * 2, dx
        flags.append((tmp_path / "e.flags.txt").read_text())
    assert flags[0] == flags[1] and len(flags[0].splitlines()) == 13


def test_probe_speed_underflow_is_one_error_line(ci_cube_file, tmp_path, capsys):
    # dx = 1e-200 and dt = 1e200 are normal floats, but the probe speed,
    # separation * dx over a delay near 3e201 s, underflows to 0
    runs = _edited_header_runs(ci_cube_file, tmp_path, capsys,
                               {"dx": 1e-200, "dt": 1e200})
    assert runs == [(EXIT_ERROR, ["error: probe speed underflows to 0: dx = 1e-200 m "
                                  "over a 2.795e+201 s delay"])] * 2


def test_exit_code_no_signal(small_run, tmp_path):
    cfg, cube_path = small_run
    # snapshot 0 precedes the excitation: an all-zero field
    assert main([
        "spectrum", str(cube_path), str(tmp_path / "s"), "--snapshot", "0"
    ]) == EXIT_NO_SIGNAL
    assert main([
        "spectrum", str(cube_path), str(tmp_path / "s"), "--snapshot", "999"
    ]) == EXIT_CONFIG


def test_detect_on_sampled_bad_values_exits_with_a_documented_code(
    small_run, tmp_path, capsys
):
    # a seeded draw from the table of values the parser refuses, and every
    # value it may read on every key, each run through detect and sweep on
    # the small cube: a documented exit code, never 1 and never an
    # exception, one error line whenever the run fails, and no warning
    _, cube_path = small_run
    cfg = tmp_path / "mutated.cfg"
    cfg.write_text(EVERY_KEY_CFG)
    assert main(["detect", str(cube_path), str(cfg), str(tmp_path / "ok")]) == EXIT_OK
    documented = {EXIT_OK, EXIT_CONFIG, EXIT_DIVERGENCE, EXIT_WINDOWING,
                  EXIT_NO_SIGNAL}
    commands = (["detect", str(cube_path), str(cfg), str(tmp_path / "out")],
                ["sweep", str(cube_path), str(cfg), str(tmp_path / "out.csv"),
                 "--trials", "1", "--ratios", "0.5"])
    seen = set()
    for key, value, text in (random.Random(20261018).sample(_bad_value_table(), 60)
                             + _bad_value_table(PARSEABLE_BAD_VALUES)):
        cfg.write_text(text)
        for argv in commands:
            capsys.readouterr()
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                code = main(argv)
            assert code in documented, (key, value, argv[0], code)
            err = capsys.readouterr().err.splitlines()
            if code != EXIT_OK:
                assert len(err) == 1 and err[0].startswith("error: "), (key, value, err)
            seen.add(code)
    # the draw reaches detection, not only the parser
    assert {EXIT_OK, EXIT_CONFIG, EXIT_NO_SIGNAL} <= seen


def test_spectrum_floor_must_be_negative(small_run, tmp_path, capsys):
    _, cube_path = small_run
    for floor in ("5", "0", "nan"):
        capsys.readouterr()
        assert main([
            "spectrum", str(cube_path), str(tmp_path / "f"), "--floor-db", floor,
        ]) == EXIT_CONFIG, floor
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: "), (floor, err)
    assert not list(tmp_path.iterdir())


def test_spectrum_compare_ratio_range(small_run, tmp_path, capsys):
    _, cube_path = small_run
    missing = tmp_path / "absent.wvc"
    for ratio in ("2", "0", "-0.5", "nan", "inf"):
        for cube in (cube_path, missing):
            capsys.readouterr()
            # the missing cube would exit 1: the ratio is checked first
            assert main([
                "spectrum", str(cube), str(tmp_path / "c"), "--compare-ratio", ratio,
            ]) == EXIT_CONFIG, ratio
            err = capsys.readouterr().err.splitlines()
            assert len(err) == 1 and err[0].startswith("error: --compare-ratio"), (ratio, err)
    assert not list(tmp_path.iterdir())
    assert main([
        "spectrum", str(cube_path), str(tmp_path / "c"), "--compare-ratio", "1",
    ]) == EXIT_OK


def test_spectrum_outputs(small_run, tmp_path, capsys):
    cfg, cube_path = small_run
    prefix = tmp_path / "spec"
    code = main([
        "spectrum", str(cube_path), str(prefix), "--compare-ratio", "0.5",
    ])
    assert code == EXIT_OK
    out = capsys.readouterr().out
    assert "occupied fraction:" in out
    assert "floor -20 dB" in out
    assert "Landau estimate" in out
    assert (tmp_path / "spec.csv").exists()
    assert (tmp_path / "spec.pgm").exists()


def test_sweep_full_ratio_row(ci_cube_file, tmp_path, capsys):
    ci_cfg = bundled_config_path("bench1_ci")
    out = tmp_path / "sweep.csv"
    code = main([
        "sweep", str(ci_cube_file), str(ci_cfg), str(out),
        "--ratios", "1.0", "--trials", "1",
    ])
    assert code == EXIT_OK
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "nz,correct,false,regional_correct,regional_false,origin_false,trials,seed"
    assert len(lines) == 2
    fields = lines[1].split(",")
    # full sampling on the CI benchmark finds all three inclusions exactly
    assert fields[0] == "1"
    assert fields[1] == "3.000000"
    assert fields[3] == "3.000000"
    assert fields[6:] == ["1", "2026"]


def test_sweep_cross_pattern(ci_cube_file, tmp_path):
    ci_cfg = bundled_config_path("bench1_ci")
    out = tmp_path / "cross.csv"
    code = main([
        "sweep", str(ci_cube_file), str(ci_cfg), str(out),
        "--pattern", "cross", "--stride", "2", "--trials", "1",
    ])
    assert code == EXIT_OK
    line = out.read_text().strip().split("\n")[1]
    assert line.startswith("0.114187,")  # 33 of 289 nodes


def test_sweep_is_byte_deterministic(ci_cube_file, tmp_path):
    ci_cfg = bundled_config_path("bench1_ci")
    texts = []
    for name in ("a.csv", "b.csv"):
        out = tmp_path / name
        assert main([
            "sweep", str(ci_cube_file), str(ci_cfg), str(out),
            "--ratios", "0.5,0.2", "--trials", "2",
        ]) == EXIT_OK
        texts.append(out.read_bytes())
    assert texts[0] == texts[1]


def test_sweep_bad_arguments(ci_cube_file, tmp_path, capsys):
    ci_cfg = bundled_config_path("bench1_ci")
    out = tmp_path / "x.csv"
    assert main([
        "sweep", str(ci_cube_file), str(ci_cfg), str(out),
        "--ratios", "0.5,apple",
    ]) == EXIT_CONFIG
    for bad in (["--pattern", "cross", "--stride", "3"],
                ["--ratios", "0.5,2"], ["--ratios", ""],
                ["--rank", "0"], ["--rank", "500"], ["--rank", "auto"]):
        capsys.readouterr()
        assert main([
            "sweep", str(ci_cube_file), str(ci_cfg), str(out), "--trials", "1",
            *bad,
        ]) == EXIT_CONFIG, bad
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: "), (bad, err)
    assert not out.exists()
    # a trial count out of bounds and an empty ratio list are refused before
    # the cube is read: a missing cube would exit 1, and a lost check cannot
    # start a sweep
    for bad, message in (
        (["--trials", "0"], "trials must be in [1, 1000000], got 0"),
        (["--trials", "1000001"], "trials must be in [1, 1000000], got 1000001"),
        (["--trials", "1234567890123456789012"],
         "trials must be in [1, 1000000], got 1234567890123456789012"),
        (["--ratios", ","], "a random sweep needs at least one ratio"),
    ):
        capsys.readouterr()
        assert main(["sweep", str(tmp_path / "missing.wvc"), str(ci_cfg), str(out),
                     *bad]) == EXIT_CONFIG, bad
        assert capsys.readouterr().err == f"error: {message}\n"
    # a rank that is no integer is named as it is in a config file
    for command, dest in (("detect", tmp_path / "d"), ("sweep", out)):
        capsys.readouterr()
        assert main([
            command, str(ci_cube_file), str(ci_cfg), str(dest), "--rank", "auto",
        ]) == EXIT_CONFIG
        assert capsys.readouterr().err == (
            "error: bad value for 'rank': could not convert string to float: 'auto'\n"
        ), command
    # the cross pattern ignores the ratio list
    assert main([
        "sweep", str(ci_cube_file), str(ci_cfg), str(out), "--trials", "1",
        "--pattern", "cross", "--ratios", ",",
    ]) == EXIT_OK
    assert len(out.read_text().splitlines()) == 2


def test_sweep_ratios_that_are_not_finite_exit_2(ci_cube_file, tmp_path, capsys):
    # each --ratios entry is read like a scenario file's number
    ci_cfg = bundled_config_path("bench1_ci")
    out = tmp_path / "x.csv"
    for ratios in ("nan", "inf", "1e999", "0.5,nan"):
        capsys.readouterr()
        assert main([
            "sweep", str(ci_cube_file), str(ci_cfg), str(out), "--trials", "1",
            "--ratios", ratios,
        ]) == EXIT_CONFIG, ratios
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: bad --ratios list"), (ratios, err)
        assert "is not a finite number" in err[0], (ratios, err)
    assert not out.exists()


# ---------------------------------------------------------------------------
# thread override and module entry point
# ---------------------------------------------------------------------------

def test_thread_override(monkeypatch):
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
        monkeypatch.delenv(var, raising=False)
    monkeypatch.setenv(THREAD_ENV_VAR, "3")
    _apply_thread_override()
    assert os.environ["OMP_NUM_THREADS"] == "3"
    assert os.environ["OPENBLAS_NUM_THREADS"] == "3"
    # explicit settings win over the override
    monkeypatch.setenv("OMP_NUM_THREADS", "1")
    _apply_thread_override()
    assert os.environ["OMP_NUM_THREADS"] == "1"


def test_thread_override_rejects_garbage(monkeypatch, capsys):
    # a superscript two and an Arabic-Indic three pass str.isdigit; C's atoi
    # reads the three as 0.  Each is refused before the arguments are read.
    for var in POOL_ENV_VARS:
        monkeypatch.delenv(var, raising=False)
    for value in ("many", "0", "\u00b2", "\u0663"):
        monkeypatch.setenv(THREAD_ENV_VAR, value)
        assert main(["spectrum", "x", "y", "--no-such-flag"]) == EXIT_CONFIG, value
        assert capsys.readouterr().err == (
            f"error: {THREAD_ENV_VAR} must be a positive integer, got {value!r}\n")
        assert not any(var in os.environ for var in POOL_ENV_VARS)


def _child_env() -> dict[str, str]:
    """Environment whose PYTHONPATH finds the wavesaliency imported here.

    pytest's ``pythonpath`` setting reaches only its own ``sys.path``, so a
    child interpreter is told explicitly where the package lives.
    """
    root = str(Path(wavesaliency.__file__).resolve().parent.parent)
    inherited = os.environ.get("PYTHONPATH")
    path = root + os.pathsep + inherited if inherited else root
    return {**os.environ, "PYTHONPATH": path}


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "wavesaliency.cli", "--help"],
        capture_output=True,
        text=True,
        env={**_child_env(), THREAD_ENV_VAR: "2"},
    )
    assert proc.returncode == 0, proc.stderr
    for sub in ("simulate", "detect", "sweep", "spectrum"):
        assert sub in proc.stdout


def test_package_and_cli_imports_load_no_numpy():
    # WAVESALIENCY_THREADS is applied in main; numpy must not load before it
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, wavesaliency, wavesaliency.cli; print('numpy' in sys.modules)"],
        capture_output=True,
        text=True,
        env=_child_env(),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


# Runs the CLI as ``python -m`` would, then reports the scipy modules loaded.
_SCIPY_PROBE = """\
import runpy
import sys

sys.argv = ["wavesaliency", *sys.argv[1:]]
try:
    runpy.run_module("wavesaliency.cli", run_name="__main__")
except SystemExit as exc:
    code = exc.code
else:
    code = 0
loaded = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
print("scipy modules:", loaded)
sys.exit(code)
"""


def test_detect_loads_no_numpy_random(ci_cube_file, tmp_path):
    # the scoring core draws no random numbers (the Lanczos start block is
    # a fixed sine hash), so a detect child never loads numpy.random
    probe = (
        "import runpy, sys\n"
        "sys.argv = ['wavesaliency', *sys.argv[1:]]\n"
        "try:\n"
        "    runpy.run_module('wavesaliency.cli', run_name='__main__')\n"
        "finally:\n"
        "    print('numpy.random loaded:', 'numpy.random' in sys.modules)\n"
    )
    config = bundled_config_path("bench1_ci")
    proc = subprocess.run(
        [sys.executable, "-c", probe, "detect", str(ci_cube_file), str(config),
         str(tmp_path / "d")],
        capture_output=True,
        text=True,
        env=_child_env(),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "numpy.random loaded: False"


@pytest.mark.parametrize("command", ["simulate", "detect", "sweep", "spectrum"])
def test_runtime_imports_no_scipy(command, small_run, tmp_path):
    cfg, cube_path = small_run
    args = {
        "simulate": [str(cfg), str(tmp_path / "s.wvc")],
        "detect": [str(cube_path), str(cfg), str(tmp_path / "d")],
        "sweep": [str(cube_path), str(cfg), str(tmp_path / "w.csv"),
                  "--ratios", "0.5", "--trials", "1"],
        "spectrum": [str(cube_path), str(tmp_path / "p")],
    }[command]
    proc = subprocess.run(
        [sys.executable, "-c", _SCIPY_PROBE, command, *args],
        capture_output=True,
        text=True,
        env=_child_env(),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "scipy modules: []"


def test_outputs_do_not_depend_on_the_thread_count(ci_cube_file, tmp_path):
    # README's determinism claim on bench1_ci: python -m children under 1
    # and 2 BLAS threads write the same bytes, the manifest's singular
    # values too, and print the same lines; the runs are those of
    # tools/compare_outputs.py and its CI threads job
    compare_outputs = load_tool("compare_outputs")
    src = Path(wavesaliency.__file__).resolve().parents[1]
    config = str(bundled_config_path("bench1_ci"))
    commands = {
        "detect": ["detect", str(ci_cube_file), config, "d"],
        "sweep": ["sweep", str(ci_cube_file), config, "s.csv", "--trials", "2"],
        "per_region": ["sweep", str(ci_cube_file), config, "p.csv", "--trials", "2",
                       "--sharing", "per_region", "--ratios", "0.5"],
    }
    for threads in ("1", "2"):
        (tmp_path / threads).mkdir()
        compare_outputs.run_commands(src, tmp_path / threads, "ci", commands,
                                     {THREAD_ENV_VAR: threads})
    one, two = tmp_path / "1", tmp_path / "2"
    assert sorted(p.name for p in one.iterdir()) == [
        "ci.detect.log", "ci.per_region.log", "ci.sweep.log", "d.csv", "d.flags.txt",
        "d.manifest", "d.mask.pgm", "d.pgm", "p.csv", "s.csv"]
    for name in commands:
        assert (one / f"ci.{name}.log").read_text().startswith("exit 0\n"), name
    assert compare_outputs.differences(one, two) == (10, [])
