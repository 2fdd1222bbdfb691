"""Command-line front end: simulate / detect / sweep / spectrum.

Exit codes are stable, one ``errors`` class each: 0 success, 2 bad
configuration (``ConfigError``), 3 simulation divergence
(``DivergenceError``), 4 windowing produced no active region or a window
longer than the record (``WindowingError``), 5 silent input where a signal
is required (``NoSignalError``).  Any other toolkit error (``DataError``
among them), an I/O error or a record too large to allocate exits 1.
README's "Exit codes" lists what each code covers.

This is the only module that names output files: ``<cube>.meta``, the
``<prefix>`` files of ``detect`` and ``spectrum``, and the
``region_AA_BB.wvc`` cubes of ``detect --dump-windows``.  Each text file is
its module's pure ``*_text`` function written with ``write_text``, and each
window cube is ``RegionalWindowSet.region_cubes`` written with
``write_cube``.  A subcommand parses its flags, calls the library, and
names and writes its files; it holds no scenario or layout rule: a sweep
request (ratios, trials and masks) is checked by ``config.sweep_masks``, as
``sweep_scenario`` checks it.

Heavy imports happen inside ``main`` so that the ``WAVESALIENCY_THREADS``
environment variable can pin the BLAS/OpenMP thread pools before numpy is
first loaded; ``errors`` loads no numpy.
"""

from __future__ import annotations

import argparse
import os
import sys

from .errors import (
    ConfigError,
    DivergenceError,
    NoSignalError,
    WaveSaliencyError,
    WindowingError,
)

THREAD_ENV_VAR = "WAVESALIENCY_THREADS"
# The pool sizes that THREAD_ENV_VAR sets, unless one is set already.
POOL_ENV_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                 "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_CONFIG = 2
EXIT_DIVERGENCE = 3
EXIT_WINDOWING = 4
EXIT_NO_SIGNAL = 5

# Exit code of a caught error: the row of its class; any other toolkit or OS
# error exits EXIT_ERROR.
_EXIT_CODES = (
    (ConfigError, EXIT_CONFIG),
    (DivergenceError, EXIT_DIVERGENCE),
    (WindowingError, EXIT_WINDOWING),
    (NoSignalError, EXIT_NO_SIGNAL),
)


def _apply_thread_override() -> None:
    """Pin thread-pool sizes from WAVESALIENCY_THREADS (before numpy loads).

    Only ASCII digits are taken: ``str.isdigit`` also passes ``'²'``, which
    ``int`` refuses, and ``'٣'``, which C's ``atoi`` reads as 0.
    """
    threads = os.environ.get(THREAD_ENV_VAR)
    if not threads:
        return
    if not (threads.isascii() and threads.isdigit() and int(threads) >= 1):
        raise ConfigError(
            f"{THREAD_ENV_VAR} must be a positive integer, got {threads!r}"
        )
    for var in POOL_ENV_VARS:
        os.environ.setdefault(var, threads)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wavesaliency",
        description="Plate-wave simulation and low-rank saliency defect detection.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="run a scenario and write the WVC1 cube")
    p.set_defaults(run=_cmd_simulate)
    p.add_argument("config", help="scenario config file")
    p.add_argument("output", help="output cube path (a .meta sidecar is added)")

    p = sub.add_parser("detect", help="saliency detection on a recorded cube")
    p.set_defaults(run=_cmd_detect)
    p.add_argument("cube", help="WVC1 cube path")
    p.add_argument("config", help="scenario config file")
    p.add_argument("prefix", help="output prefix for csv/pgm/flags/manifest")
    p.add_argument("--rank", help="subspace rank override (an integer >= 1)")
    p.add_argument("--tw", help="window length override (samples, an integer >= 1)")
    p.add_argument("--ratio", help="outlier energy ratio override")
    p.add_argument("--theta", help="decision threshold override")
    p.add_argument("--dump-windows", metavar="DIR",
                   help="debug: also write every active region's aligned "
                        "window as a small WVC1 cube under DIR")

    p = sub.add_parser("sweep", help="Monte Carlo subsampling sweep")
    p.set_defaults(run=_cmd_sweep)
    p.add_argument("cube", help="WVC1 cube path")
    p.add_argument("config", help="scenario config file")
    p.add_argument("output", help="output CSV path")
    p.add_argument("--ratios", default="0.5,0.33,0.2,0.1,0.07",
                   help="comma-separated subsampling ratios (default %(default)s)")
    p.add_argument("--trials", type=int, default=50,
                   help="random trials per ratio (default %(default)s)")
    p.add_argument("--pattern", choices=("random", "cross"), default="random",
                   help="mask family (default %(default)s)")
    # The parser runs before numpy may load, so it cannot read the defaults
    # of sweep_scenario: --stride and --sharing repeat them here.
    p.add_argument("--stride", type=int, default=1,
                   help="double-cross stride for --pattern cross")
    p.add_argument("--sharing", choices=("shared", "per_region"), default="shared",
                   help="share one mask across regions or draw one per region")
    p.add_argument("--rank", help="subspace rank override (an integer >= 1)")

    p = sub.add_parser("spectrum", help="wavenumber spectrum of one snapshot")
    p.set_defaults(run=_cmd_spectrum)
    p.add_argument("cube", help="WVC1 cube path")
    p.add_argument("prefix", help="output prefix for csv/pgm")
    p.add_argument("--floor-db", type=float, default=-20.0,
                   help="occupancy floor in dB (default %(default)s)")
    p.add_argument("--snapshot", type=int, default=-1,
                   help="time index to transform (default: last)")
    p.add_argument("--compare-ratio", type=float,
                   help="sampling ratio to compare against the Landau estimate")
    return parser


def main(argv=None) -> int:
    try:
        _apply_thread_override()
        args = build_parser().parse_args(argv)
        return args.run(args)
    except (WaveSaliencyError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(
            (code for types, code in _EXIT_CODES if isinstance(exc, types)),
            EXIT_ERROR,
        )


def _cmd_simulate(args) -> int:
    from .config import cube_meta_text, load_scenario, simulate_scenario
    from .cube import write_cube, write_text

    scenario = load_scenario(args.config)
    cube = simulate_scenario(scenario)
    write_cube(cube, args.output)
    write_text(f"{args.output}.meta", cube_meta_text(scenario, cube))
    print(f"wrote {args.output}: {cube.n1}x{cube.n2} nodes, "
          f"{cube.t_len} samples at dt = {cube.dt:.6e} s")
    return EXIT_OK


def _cmd_detect(args) -> int:
    from pathlib import Path

    from .config import detect_scenario, load_scenario, manifest_text, with_overrides
    from .cube import read_cube, write_cube, write_text
    from .saliency import flags_text, saliency_csv_text, saliency_pgm_texts

    scenario = with_overrides(
        load_scenario(args.config),
        rank=args.rank, window_len=args.tw, ratio=args.ratio, theta=args.theta,
    )
    cube = read_cube(args.cube)
    result = detect_scenario(scenario, cube)

    write_text(f"{args.prefix}.csv", saliency_csv_text(result.saliency))
    heat_map, activity = saliency_pgm_texts(result.saliency)
    write_text(f"{args.prefix}.pgm", heat_map)
    write_text(f"{args.prefix}.mask.pgm", activity)
    flagged = sorted(result.flagged)
    write_text(f"{args.prefix}.flags.txt", flags_text(flagged))
    write_text(f"{args.prefix}.manifest", manifest_text(scenario, result))
    if args.dump_windows:
        out = Path(args.dump_windows)
        out.mkdir(parents=True, exist_ok=True)
        windows = result.window_set.region_cubes(cube.dx, cube.dt)
        for (a, b), window in windows.items():
            write_cube(window, out / f"region_{a:02d}_{b:02d}.wvc")
        print(f"dumped {len(windows)} region window(s)")
    print(f"group velocity: {result.group_velocity:.1f} m/s "
          f"({scenario.probes.mode}); rank {scenario.detection.rank}")
    print(f"flagged {len(flagged)} region(s): "
          + (" ".join(f"({a},{b})" for a, b in flagged) or "none"))
    return EXIT_OK


def _cmd_sweep(args) -> int:
    from .config import load_scenario, parse_float, sweep_masks, sweep_scenario, with_overrides
    from .cube import read_cube, write_text
    from .sampling import sweep_csv_text

    scenario = with_overrides(load_scenario(args.config), rank=args.rank)
    try:
        ratios = [parse_float(r) for r in args.ratios.split(",") if r.strip()]
    except ValueError as exc:
        raise ConfigError(f"bad --ratios list {args.ratios!r}: {exc}") from None
    sweep_masks(scenario, ratios, args.trials, pattern=args.pattern, stride=args.stride,
                sharing=args.sharing)
    rows = sweep_scenario(scenario, read_cube(args.cube), ratios, args.trials,
                          pattern=args.pattern, stride=args.stride, sharing=args.sharing)
    write_text(args.output, sweep_csv_text(rows))
    for row in rows:
        print(f"nz={row.nz:g}: regional_correct={row.regional_correct:.3f} "
              f"false={row.false:.3f} (over {row.trials} trial(s))")
    return EXIT_OK


def _cmd_spectrum(args) -> int:
    from .cube import read_cube, write_text
    from .spectrum import (
        dft2_magnitude,
        occupied_fraction,
        spectrum_csv_text,
        spectrum_pgm_text,
    )

    if not args.floor_db < 0:
        raise ConfigError(f"--floor-db must be negative, got {args.floor_db:g}")
    if args.compare_ratio is not None and not 0.0 < args.compare_ratio <= 1.0:
        raise ConfigError(
            f"--compare-ratio must be in (0, 1], got {args.compare_ratio:g}"
        )
    cube = read_cube(args.cube)
    index = args.snapshot if args.snapshot >= 0 else cube.t_len + args.snapshot
    if not 0 <= index < cube.t_len:
        raise ConfigError(
            f"snapshot {args.snapshot} outside record of {cube.t_len} samples"
        )
    spec = dft2_magnitude(cube.slice_at(index))
    fraction = occupied_fraction(spec, args.floor_db)
    write_text(f"{args.prefix}.csv", spectrum_csv_text(spec))
    write_text(f"{args.prefix}.pgm", spectrum_pgm_text(spec))
    print(f"occupied fraction: {fraction:.6f} at floor {args.floor_db:g} dB, "
          f"snapshot {index}")
    if args.compare_ratio is not None:
        verdict = "above" if args.compare_ratio > fraction else "at or below"
        print(f"sampling ratio {args.compare_ratio:g} is {verdict} "
              f"the Landau estimate {fraction:.6f}")
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
