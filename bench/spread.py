"""Run the benchmark on several seeds and report the spread of each metric.

    python3 bench/spread.py --workload paper257 --seeds 1-10 [--trace 0]

For each end-to-end metric it prints the median, the first and third
quartiles (``statistics.quantiles(values, n=4)``) and the quartile distance
as a share of the median, next to the metric's bound from BENCHMARK.json.
Runs go one after another, never in parallel.  Raw results are appended to
``.bench_out/spread-<workload>.jsonl``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seed_list(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--trace", type=int, default=0)
    args = p.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    log = ROOT / ".bench_out" / f"spread-{args.workload}.jsonl"
    log.parent.mkdir(exist_ok=True)
    results = []
    for seed in seed_list(args.seeds):
        cmd = [*bench["command"], "--workload", args.workload, "--seed", str(seed),
               "--seconds", str(bench["run_seconds"]), "--trace", str(args.trace)]
        t = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        wall = time.perf_counter() - t
        if proc.returncode != 0:
            print(f"seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}", file=sys.stderr)
            return 1
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        result.update(seed=seed, wall_s=wall, at=time.time())
        results.append(result)
        with log.open("a") as fh:
            fh.write(json.dumps(result) + "\n")
        print(f"seed {seed}: {wall:.1f} s, attempted {result['attempted']}, "
              f"failed {result['failed']}", flush=True)

    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    print(f"{'metric':36} {'median':>11} {'q1':>11} {'q3':>11} {'spread':>7} {'bound':>6}")
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        q1, med, q3 = statistics.quantiles(values, n=4)
        bound = bounds.get(name)
        print(f"{name:36} {med:11.4f} {q1:11.4f} {q3:11.4f} {(q3 - q1) / med:7.3f} "
              f"{'' if bound is None else bound:>6}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
