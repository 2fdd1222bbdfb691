"""Scenario-file parsing and the command-line front end.

CLI tests call ``main`` in-process and assert on exit codes and emitted
files; one subprocess test checks the ``python -m`` entry point and the
thread-count environment override.
"""

import subprocess
import sys

import numpy as np
import pytest

from wavesaliency.cli import (
    EXIT_CONFIG,
    EXIT_DIVERGENCE,
    EXIT_NO_SIGNAL,
    EXIT_OK,
    EXIT_WINDOWING,
    THREAD_ENV_VAR,
    _apply_thread_override,
    main,
)
from wavesaliency.config import (
    bundled_config_path,
    load_scenario,
    parse_scenario,
    scenario_echo,
)
from wavesaliency.cube import GridPoint, read_cube, write_cube
from wavesaliency.errors import ConfigError
from wavesaliency.sim import analytic_group_velocity

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
"""
    s = parse_scenario(minimal)
    assert s.seed == 0
    assert s.grid.safety == 0.9
    assert s.grid.record_every == 1
    assert s.grid.space_order == 4
    assert s.excitation.cycle_count == 5
    assert s.excitation.amplitude == 1.0
    assert s.detection.window_len == 11
    assert s.detection.rank == "auto"
    assert s.detection.ratio == 0.25
    assert s.detection.theta == 0.5
    assert s.detection.mask.kind == "full"
    assert s.mask() is None
    assert s.defects == ()
    # default probes: first interior row at 0.3L and 0.7L
    pair = s.probe_pair()
    assert pair.first == GridPoint(38, 1)
    assert pair.second == GridPoint(90, 1)


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


def test_unknown_keys_rejected():
    with pytest.raises(ConfigError, match="n3"):
        parse_scenario(SMALL_CFG.replace("n2 = 65", "n2 = 65\nn3 = 65"))


def test_missing_required_block():
    no_material = SMALL_CFG.replace("[material]", "[grid2]", 1)
    with pytest.raises(ConfigError, match="unknown block"):
        parse_scenario(no_material)
    trimmed = "\n".join(
        ln for ln in SMALL_CFG.split("\n") if not ln.startswith("frequency")
    )
    with pytest.raises(ConfigError, match="frequency"):
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
    with pytest.raises(ConfigError, match="needs a ratio"):
        parse_scenario(_inject(SMALL_CFG, "detection", "mask = random"))
    with pytest.raises(ConfigError, match="unknown mask kind"):
        parse_scenario(_inject(SMALL_CFG, "detection", "mask = triangles"))


def test_integer_keys_reject_fractions():
    with pytest.raises(ConfigError, match="integer"):
        parse_scenario(_edit(SMALL_CFG, n1="65.5"))
    # a float spelling of an exact integer is accepted
    assert parse_scenario(_edit(SMALL_CFG, n1="65.0")).grid.n1 == 65


def test_rank_values():
    assert parse_scenario(_edit(SMALL_CFG, rank="auto")).detection.rank == "auto"
    assert parse_scenario(_edit(SMALL_CFG, rank="14")).detection.rank == 14
    with pytest.raises(ConfigError):
        parse_scenario(_edit(SMALL_CFG, rank="fast"))


def test_analytic_mode_supplies_velocity():
    s = parse_scenario(SMALL_CFG)
    cfg = s.detection_config()
    assert cfg.probes is None
    assert cfg.group_velocity == pytest.approx(
        analytic_group_velocity(s.material, 250e3)
    )
    paired = parse_scenario(
        SMALL_CFG + "first_l = 10\nfirst_m = 1\nsecond_l = 50\nsecond_m = 1\n"
    )
    assert paired.probes.pair is not None  # coordinates parsed even if unused
    explicit = parse_scenario(
        _edit(
            SMALL_CFG + "first_l = 10\nfirst_m = 1\nsecond_l = 50\nsecond_m = 1\n",
            mode="pair",
        )
    )
    cfg2 = explicit.detection_config()
    assert cfg2.group_velocity is None
    assert cfg2.probes.first == GridPoint(10, 1)


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
    assert "rank_used = 3" in manifest
    assert "velocity_source = analytic" in manifest
    assert "singular_values = " in manifest
    for line in (tmp_path / "out.flags.txt").read_text().splitlines():
        a, b = line.split()
        assert 0 <= int(a) < 4 and 0 <= int(b) < 4


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
    assert "rank_requested = 2" in manifest
    assert "rank_used = 2" in manifest
    assert "window_len = 9" in manifest
    assert "energy_ratio = 0.3" in manifest
    assert "theta = 0.9" in manifest
    # out-of-range settings are configuration errors with one message line;
    # rank 500 only fails against the snapshot's size, at detection time
    for bad in (["--rank", "fast"], ["--rank", "0"], ["--rank", "500"],
                ["--ratio", "2"], ["--ratio", "0"], ["--theta", "0"],
                ["--theta", "1.5"], ["--tw", "0"]):
        capsys.readouterr()
        assert main([
            "detect", str(cube_path), str(cfg), str(tmp_path / "bad"), *bad,
        ]) == EXIT_CONFIG, bad
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: "), (bad, err)


def test_exit_code_config_errors(small_run, tmp_path):
    cfg, cube_path = small_run
    broken = tmp_path / "broken.cfg"
    broken.write_text("[material\n")
    assert main(["simulate", str(broken), str(tmp_path / "x.wvc")]) == EXIT_CONFIG
    undivisible = tmp_path / "regions.cfg"
    undivisible.write_text(_edit(SMALL_CFG, regions_x="10"))
    assert main(["simulate", str(undivisible), str(tmp_path / "y.wvc")]) == EXIT_CONFIG
    # cube/config grid mismatch is a configuration problem too
    other = tmp_path / "other.cfg"
    other.write_text(_edit(SMALL_CFG, n1="129", n2="129", regions_x="8", regions_y="8"))
    assert main([
        "detect", str(cube_path), str(other), str(tmp_path / "mm")
    ]) == EXIT_CONFIG
    missing = tmp_path / "nope.cfg"
    assert main(["simulate", str(missing), str(tmp_path / "z.wvc")]) == 1
    # the simulator's plate is square
    oblong = tmp_path / "oblong.cfg"
    oblong.write_text(_edit(SMALL_CFG, n2="33"))
    assert main(["simulate", str(oblong), str(tmp_path / "o.wvc")]) == EXIT_CONFIG
    # out-of-range detection settings in the file fail like flag values
    for text in (_edit(SMALL_CFG, ratio="2"), _edit(SMALL_CFG, theta="0"),
                 _edit(SMALL_CFG, rank="0"), _edit(SMALL_CFG, window_len="0"),
                 _inject(SMALL_CFG, "detection", "mask = random 2"),
                 _inject(SMALL_CFG, "detection", "mask = cross 3")):
        bad = tmp_path / "range.cfg"
        bad.write_text(text)
        assert main([
            "detect", str(cube_path), str(bad), str(tmp_path / "r")
        ]) == EXIT_CONFIG, text


def test_exit_code_divergence(tmp_path):
    cfg = tmp_path / "unstable.cfg"
    cfg.write_text(_edit(
        SMALL_CFG, n1="33", n2="33", steps="4000", safety="1.08",
        regions_x="4", regions_y="4",
    ))
    assert main(["simulate", str(cfg), str(tmp_path / "u.wvc")]) == EXIT_DIVERGENCE


def test_exit_code_windowing(tmp_path):
    # 3 stored samples cannot hold an 11-sample window anywhere
    cfg = tmp_path / "short.cfg"
    cfg.write_text(_edit(SMALL_CFG, steps="42", record_every="21"))
    cube_path = tmp_path / "short.wvc"
    assert main(["simulate", str(cfg), str(cube_path)]) == EXIT_OK
    assert main([
        "detect", str(cube_path), str(cfg), str(tmp_path / "w")
    ]) == EXIT_WINDOWING


def test_exit_code_no_signal(small_run, tmp_path):
    cfg, cube_path = small_run
    # snapshot 0 precedes the excitation: an all-zero field
    assert main([
        "spectrum", str(cube_path), str(tmp_path / "s"), "--snapshot", "0"
    ]) == EXIT_NO_SIGNAL
    assert main([
        "spectrum", str(cube_path), str(tmp_path / "s"), "--snapshot", "999"
    ]) == EXIT_CONFIG


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


def test_sweep_bad_arguments(ci_cube_file, tmp_path):
    ci_cfg = bundled_config_path("bench1_ci")
    out = tmp_path / "x.csv"
    assert main([
        "sweep", str(ci_cube_file), str(ci_cfg), str(out),
        "--ratios", "0.5,apple",
    ]) == EXIT_CONFIG
    for bad in (["--trials", "0"], ["--pattern", "cross", "--stride", "3"],
                ["--ratios", "0.5,2"], ["--rank", "0"], ["--rank", "500"]):
        assert main([
            "sweep", str(ci_cube_file), str(ci_cfg), str(out), "--trials", "1",
            *bad,
        ]) == EXIT_CONFIG, bad


# ---------------------------------------------------------------------------
# thread override and module entry point
# ---------------------------------------------------------------------------

def test_thread_override(monkeypatch):
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
        monkeypatch.delenv(var, raising=False)
    monkeypatch.setenv(THREAD_ENV_VAR, "3")
    _apply_thread_override()
    import os

    assert os.environ["OMP_NUM_THREADS"] == "3"
    assert os.environ["OPENBLAS_NUM_THREADS"] == "3"
    # explicit settings win over the override
    monkeypatch.setenv("OMP_NUM_THREADS", "1")
    _apply_thread_override()
    assert os.environ["OMP_NUM_THREADS"] == "1"


def test_thread_override_rejects_garbage(monkeypatch):
    monkeypatch.setenv(THREAD_ENV_VAR, "many")
    with pytest.raises(SystemExit):
        main(["spectrum", "x", "y"])


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "wavesaliency.cli", "--help"],
        capture_output=True,
        text=True,
        env={**__import__("os").environ, THREAD_ENV_VAR: "2"},
    )
    assert proc.returncode == 0
    for sub in ("simulate", "detect", "sweep", "spectrum"):
        assert sub in proc.stdout
