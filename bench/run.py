"""Run one benchmark workload of wavesaliency and print its metrics.

    python3 bench/run.py --workload paper257 --seed 7 --seconds 12 --trace 0

Run from the root of a checkout: the program is imported from ``src/``
there, never from an installed copy.  The last line of standard output is
one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: every end-to-end metric of BENCHMARK.json with ``--trace 0``,
every per-layer metric with ``--trace 1``.  The full record of the run
(flagged sets, CSV digests, check results, raw samples) goes to
``.bench_out/``; temporary cubes live in ``.bench_work/`` and are removed.
The exit code is 0 only when every check held.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
WORK = ROOT / ".bench_work"
POOL_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS")
MODULES = ("cli", "config", "cube", "pipeline", "saliency", "sampling", "sim", "spectrum")
WORKLOAD_NAMES = ("paper257", "cli129")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def pin_threads() -> dict:
    """One BLAS/OpenMP thread here and in every child; returns the child env.

    Children get only the program's own WAVESALIENCY_THREADS, so the CLI's
    override is what pins them.  Must run before numpy is imported.
    """
    os.environ["WAVESALIENCY_THREADS"] = "1"
    env = {k: v for k, v in os.environ.items() if k not in POOL_VARS}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    for var in POOL_VARS:
        os.environ[var] = "1"
    return env


def import_program():
    sys.path.insert(0, str(SRC))
    ws = importlib.import_module("wavesaliency")
    for name in MODULES:
        importlib.import_module(f"wavesaliency.{name}")
    where = Path(ws.__file__).resolve().parent
    if where != (SRC / "wavesaliency").resolve():
        raise SystemExit(f"imported wavesaliency from {where}, not from {SRC}")
    return ws


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "wavesaliency" / "cli.py").is_file():
        print(f"no program source at {SRC / 'wavesaliency'}; run from a checkout",
              file=sys.stderr)
        return 2
    env = pin_threads()
    ws = import_program()

    import layers
    import spans
    import workloads

    tracer = spans.Tracer(args.trace == 1)
    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    run = workloads.Run(ROOT, args.workload, args.seed, args.seconds, tracer, work, env, ws)
    if tracer.enabled:
        spans.instrument(tracer, ws)
    try:
        workloads.WORKLOADS[args.workload](run)
        end_to_end = run.metrics()
        if tracer.enabled:
            cut = len(tracer.spans)
            layers.probe(run)
            metrics = layers.layer_metrics(run, cut)
        else:
            metrics = end_to_end
    finally:
        tracer.restore()
        shutil.rmtree(work, ignore_errors=True)

    correct = not run.checks.failures
    stem = f"{args.workload}-seed{args.seed}" + ("-trace" if tracer.enabled else "")
    OUT.mkdir(exist_ok=True)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: v for k, (v, _) in metrics.items()},
        "end_to_end": {k: v for k, (v, _) in end_to_end.items()},
        "end_to_end_wall": {k: v for k, (v, _) in run.metrics(rescale=False).items()},
        "checks": {
            "passed": run.checks.passed,
            "failures": run.checks.failures,
            "smallest_oracle_margin": run.checks.smallest_margin,
        },
        "samples": run.samples(),
        "samples_wall": run.samples(rescale=False),
        "reference_kernel_s": run.speed.samples,
        "importtime": run.importtime,
        **run.record,
        "machine": {
            "python": platform.python_version(),
            "numpy": ws.sim.np.__version__,
            "cpus": os.cpu_count(),
        },
    }
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if tracer.enabled:
        tracer.dump(OUT / f"{stem}-spans.json")

    for failure in run.checks.failures:
        print(f"CHECK FAILED: {failure}", file=sys.stderr)
    print(json.dumps({
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
