"""Run the CLI of two source trees on the bundled plates and diff the outputs.

Usage::

    python tools/compare_outputs.py OLD_SRC NEW_SRC [--trials N] [--work DIR]
                                    [--new-env NAME=VALUE ...]

OLD_SRC and NEW_SRC are directories that hold a ``wavesaliency`` package,
such as the ``src`` of two checkouts.  On each of the five bundled plates,
each tree runs, with its own copy of the plate's config:

* ``simulate`` (the cube and its ``.meta`` sidecar);
* ``detect`` (CSV, PGMs, flags, manifest and the ``--dump-windows`` cubes),
  and ``detect`` again with all four overrides given as text (``--rank
  6.0 --tw 9.0 --ratio 0.3 --theta 0.6``);
* ``spectrum`` (CSV and PGM);
* ``sweep`` with random shared masks, random per-region masks, and the
  double cross at strides 1 and 2, each over ``--trials`` trials.

Every bundled plate times its windows from a probe pair, so each tree also
runs ``simulate`` and ``detect --dump-windows`` on a copy of its own
``bench1_ci.cfg`` with ``mode = analytic`` (the plate ``bench1_ci_analytic``):
that is the one run whose ``.meta`` and manifest carry the analytic mode.
Every bundled plate detects at ``mask = full`` too, so each tree runs
``detect`` on ``bench1``'s cube with copies of its ``bench1.cfg`` that read
``mask = random 0.5`` (``bench1_random``), once more with ``sharing =
per_region`` (``bench1_per_region``), and with ``mask = cross 2``
(``bench1_cross``): the masked detections whose CSV, flags and manifest
spectrum are compared.

Once per tree, it also records ``wavesaliency --help`` and each
subcommand's ``--help``, so a changed command, option, default or help
line shows as a differing file.

Every command runs in its tree's own output directory with relative paths
and one BLAS thread (``WAVESALIENCY_THREADS=1``, with every inherited
``*_NUM_THREADS`` variable removed), and its exit code, stdout and stderr
are kept as a file beside its outputs.  The two directories are then
compared file by file, byte for byte.  The script lists every file that
differs or exists on one side only, and exits 1 if there is any; it exits
0 when all files are byte-identical.

``--new-env`` runs the new tree with an environment variable set or
replaced, so one tree can be compared with itself, byte for byte, under two
BLAS or SIMD settings::

    python tools/compare_outputs.py src src --new-env WAVESALIENCY_THREADS=2
    python tools/compare_outputs.py src src --new-env OPENBLAS_CORETYPE=Prescott

and numpy's SSE baseline loops against its default ones with ``--new-env
NPY_DISABLE_CPU_FEATURES="X86_V3 X86_V4 AVX512_ICL AVX512_SPR"``.
"""

from __future__ import annotations

import argparse
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

PLATES = ("bench1", "bench2", "pristine", "bench1_ci", "pristine_ci")

# bench1_ci with the group velocity from plate theory instead of its probes
ANALYTIC = "bench1_ci_analytic"

# Plates that are a bundled plate's config with one line replaced, as
# (bundled plate, line, replacement); the masked ones detect on its cube.
EDITED = {
    ANALYTIC: ("bench1_ci", "mode = pair", "mode = analytic"),
    "bench1_random": ("bench1", "mask = full", "mask = random 0.5"),
    "bench1_per_region": ("bench1", "mask = full",
                          "mask = random 0.5\nsharing = per_region"),
    "bench1_cross": ("bench1", "mask = full", "mask = cross 2"),
}


# The help texts each tree records once, by label.
SUBCOMMANDS = ("simulate", "detect", "sweep", "spectrum")
HELP = {"help": ["--help"], **{f"help_{cmd}": [cmd, "--help"] for cmd in SUBCOMMANDS}}


def plate_config(src: Path, plate: str) -> str:
    """The config text ``plate`` runs with in the tree at ``src``."""
    if plate not in EDITED:
        return (src / "wavesaliency" / "configs" / f"{plate}.cfg").read_text()
    base, line, replacement = EDITED[plate]
    text, count = re.subn(f"^{re.escape(line)}$", replacement, plate_config(src, base),
                          flags=re.MULTILINE)
    if count != 1:
        raise SystemExit(f"{src}: {base}.cfg has no single '{line}' line")
    return text


def commands(plate: str, trials: int) -> dict[str, list[str]]:
    """CLI argument lists by label, for one plate, in the order they run."""
    cfg, cube = f"{plate}.cfg", f"{plate}.wvc"

    def sweep(form: str, *extra: str) -> list[str]:
        return ["sweep", cube, cfg, f"{plate}.sweep_{form}.csv",
                "--trials", str(trials), *extra]

    runs = {
        "simulate": ["simulate", cfg, cube],
        "detect": ["detect", cube, cfg, f"{plate}.detect",
                   "--dump-windows", f"{plate}.windows"],
        "detect_overrides": ["detect", cube, cfg, f"{plate}.detect_overrides",
                             "--rank", "6.0", "--tw", "9.0",
                             "--ratio", "0.3", "--theta", "0.6"],
        "spectrum": ["spectrum", cube, f"{plate}.spectrum"],
        "sweep_random": sweep("random"),
        "sweep_per_region": sweep("per_region", "--sharing", "per_region"),
        "sweep_cross_1": sweep("cross_1", "--pattern", "cross", "--stride", "1"),
        "sweep_cross_2": sweep("cross_2", "--pattern", "cross", "--stride", "2"),
    }
    if plate == ANALYTIC:
        return {label: runs[label] for label in ("simulate", "detect")}
    if plate in EDITED:
        return {"detect": ["detect", f"{EDITED[plate][0]}.wvc", cfg, f"{plate}.detect"]}
    return runs


def run_commands(src: Path, out: Path, name: str, runs: dict[str, list[str]],
                 env: dict[str, str] | None = None) -> None:
    """Run the CLI of the tree at ``src`` in ``out`` on each argument list.

    The runs see one BLAS thread unless ``env`` says otherwise.  Each run's
    exit code, stdout and stderr go to ``<name>.<label>.log``.
    """
    inherited = {k: v for k, v in os.environ.items() if not k.endswith("_NUM_THREADS")}
    env = {**inherited, "PYTHONPATH": str(src), "WAVESALIENCY_THREADS": "1", **(env or {})}
    for label, argv in runs.items():
        proc = subprocess.run(
            [sys.executable, "-m", "wavesaliency.cli", *argv],
            cwd=out, env=env, capture_output=True, text=True,
        )
        (out / f"{name}.{label}.log").write_text(
            f"exit {proc.returncode}\n--- stdout\n{proc.stdout}"
            f"--- stderr\n{proc.stderr}"
        )
        print(f"{src}: {name} {label}: exit {proc.returncode}", flush=True)


def run_tree(src: Path, out: Path, trials: int, env: dict[str, str] | None = None) -> None:
    """Write the help texts and every plate's CLI outputs of the tree at ``src``."""
    out.mkdir(parents=True)
    run_commands(src, out, "cli", HELP, env)
    for plate in (*PLATES, *EDITED):
        (out / f"{plate}.cfg").write_text(plate_config(src, plate))
        run_commands(src, out, plate, commands(plate, trials), env)


def differences(old: Path, new: Path) -> tuple[int, list[str]]:
    """(files compared, one line per file that differs or is one-sided)."""
    def files(root: Path) -> set[Path]:
        return {p.relative_to(root) for p in root.rglob("*") if p.is_file()}

    old_files, new_files = files(old), files(new)
    lines = [f"only in old: {p}" for p in sorted(old_files - new_files)]
    lines += [f"only in new: {p}" for p in sorted(new_files - old_files)]
    lines += [f"differs: {p}" for p in sorted(old_files & new_files)
              if (old / p).read_bytes() != (new / p).read_bytes()]
    return len(old_files | new_files), lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("old_src", type=Path, help="directory holding the old package")
    parser.add_argument("new_src", type=Path, help="directory holding the new package")
    parser.add_argument("--trials", type=int, default=50,
                        help="trials per sweep (default %(default)s, the CLI's)")
    parser.add_argument("--work", type=Path,
                        help="keep the outputs under this new directory "
                             "(default: a temporary one, removed at exit)")
    parser.add_argument("--new-env", action="append", default=[], metavar="NAME=VALUE",
                        help="run the new tree with this environment variable "
                             "(repeatable)")
    args = parser.parse_args(argv)
    for src in (args.old_src, args.new_src):
        if not (src / "wavesaliency" / "cli.py").is_file():
            parser.error(f"{src} holds no wavesaliency package")
    new_env = {}
    for item in args.new_env:
        name, sep, value = item.partition("=")
        if not (name and sep):
            parser.error(f"--new-env takes NAME=VALUE, got {item!r}")
        new_env[name] = value
    with tempfile.TemporaryDirectory() as tmp:
        work = args.work or Path(tmp)
        old, new = work / "old", work / "new"
        run_tree(args.old_src.resolve(), old, args.trials)
        run_tree(args.new_src.resolve(), new, args.trials, new_env)
        count, lines = differences(old, new)
    for line in lines:
        print(line)
    print(f"{count} files compared, {len(lines)} differ or are one-sided")
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main())
