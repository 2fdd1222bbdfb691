"""The output comparison tool: its file diff and the runs it makes.

``tools/compare_outputs.py`` is a script, not a package module, so it is
loaded from its path.  Running it end to end simulates every bundled plate
twice and is left to the tool itself.
"""

import argparse
from pathlib import Path

import wavesaliency
from wavesaliency.cli import build_parser
from wavesaliency.config import bundled_config_path, parse_scenario
from wavesaliency.sampling import MaskSettings

from conftest import load_tool

SRC = Path(wavesaliency.__file__).resolve().parents[1]

compare_outputs = load_tool("compare_outputs")


def test_differences_names_one_sided_and_differing_files(tmp_path):
    old, new = tmp_path / "old", tmp_path / "new"
    for root in (old, new):
        (root / "sub").mkdir(parents=True)
        (root / "same.csv").write_bytes(b"1,2\n")
    (old / "sub" / "gone.pgm").write_bytes(b"P2\n")
    (new / "added.manifest").write_bytes(b"rank = 3\n")
    (old / "sub" / "changed.wvc").write_bytes(b"\x00\x01")
    (new / "sub" / "changed.wvc").write_bytes(b"\x00\x02")
    count, lines = compare_outputs.differences(old, new)
    assert count == 4
    assert lines == [
        "only in old: sub/gone.pgm",
        "only in new: added.manifest",
        "differs: sub/changed.wvc",
    ]
    assert compare_outputs.differences(old, old) == (3, [])


def test_commands_include_the_analytic_run():
    analytic = compare_outputs.ANALYTIC
    cfg, cube = f"{analytic}.cfg", f"{analytic}.wvc"
    assert compare_outputs.commands(analytic, 3) == {
        "simulate": ["simulate", cfg, cube],
        "detect": ["detect", cube, cfg, f"{analytic}.detect",
                   "--dump-windows", f"{analytic}.windows"],
    }
    for plate in compare_outputs.PLATES:
        runs = compare_outputs.commands(plate, 3)
        assert len(runs) == 8 and runs["sweep_random"][-2:] == ["--trials", "3"]
    # the analytic copy is the tree's own bench1_ci.cfg with one line changed
    text = compare_outputs.plate_config(SRC, analytic)
    original = bundled_config_path("bench1_ci").read_text()
    assert text.count("\n") == original.count("\n")
    changed = [(a, b) for a, b in zip(original.split("\n"), text.split("\n"))
               if a != b]
    assert changed == [("mode = pair", "mode = analytic")]
    assert parse_scenario(text).probes.mode == "analytic"
    assert compare_outputs.plate_config(SRC, "bench1_ci") == original


def test_commands_include_the_masked_detections_on_bench1s_cube():
    # three edited copies of bench1.cfg, detected on bench1's own cube with no
    # second simulate: a shared and a per-region random 0.5 mask, and cross 2
    original = bundled_config_path("bench1").read_text()
    before, after = original.split("\nmask = full\n")
    for plate, mask, lines in (
        ("bench1_random", MaskSettings("random", ratio=0.5), "mask = random 0.5"),
        ("bench1_per_region", MaskSettings("random", ratio=0.5, sharing="per_region"),
         "mask = random 0.5\nsharing = per_region"),
        ("bench1_cross", MaskSettings("cross", stride=2), "mask = cross 2"),
    ):
        assert compare_outputs.commands(plate, 3) == {
            "detect": ["detect", "bench1.wvc", f"{plate}.cfg", f"{plate}.detect"],
        }
        text = compare_outputs.plate_config(SRC, plate)
        assert text == f"{before}\n{lines}\n{after}"
        assert parse_scenario(text).detection.mask == mask


def test_help_of_the_cli_and_each_subcommand_is_recorded(tmp_path):
    # the CLI's own subcommands, each with its --help, plus the top-level one
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    assert compare_outputs.SUBCOMMANDS == tuple(sub.choices)
    assert compare_outputs.HELP == {
        "help": ["--help"],
        **{f"help_{cmd}": [cmd, "--help"] for cmd in sub.choices},
    }
    # run on this tree, each is one log with exit 0 and its usage line
    compare_outputs.run_commands(SRC, tmp_path, "cli", compare_outputs.HELP)
    logs = sorted(p.name for p in tmp_path.iterdir())
    assert logs == sorted(f"cli.{label}.log" for label in compare_outputs.HELP)
    for label, argv in compare_outputs.HELP.items():
        text = (tmp_path / f"cli.{label}.log").read_text()
        usage = " ".join(["usage: wavesaliency", *argv[:-1]])
        assert text.startswith(f"exit 0\n--- stdout\n{usage} "), text
        assert text.endswith("--- stderr\n"), text
