"""Simulate the three-inclusion plate and show where the detector points.

Runs the small 129x129 variant by default (a couple of seconds); pass
--full for the 257x257 benchmark if you have a minute to spare.  The small
grid buys its speed with extra false flags — the full-size run localizes
the three inclusions exactly.  Prints an ASCII saliency map: '#' flagged,
'o' ground truth, 'X' both, '.' quiet.
"""

import argparse
import time

from wavesaliency.config import (
    bundled_config_path,
    detect_scenario,
    load_scenario,
    score_scenario,
    simulate_scenario,
)


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--full", action="store_true",
                    help="run the full-size 257x257 benchmark")
    args = ap.parse_args()

    name = "bench1" if args.full else "bench1_ci"
    scenario = load_scenario(bundled_config_path(name))
    print(f"scenario {name}: {scenario.grid.n1}x{scenario.grid.n2} nodes, "
          f"{len(scenario.defects)} inclusions")

    t0 = time.perf_counter()
    cube = simulate_scenario(scenario)
    print(f"simulated {cube.t_len} stored snapshots "
          f"in {time.perf_counter() - t0:.1f} s")

    result = detect_scenario(scenario, cube)
    truth = scenario.truth()
    metrics = score_scenario(scenario, result.flagged)

    print(f"estimated group velocity {result.group_velocity:.0f} m/s, "
          f"rank {scenario.detection.rank}")
    print()
    # b grows upward so the map matches the plate's orientation
    for b in reversed(range(scenario.detection.regions_y)):
        row = []
        for a in range(scenario.detection.regions_x):
            flagged = (a, b) in result.flagged
            true = (a, b) in truth.regions
            row.append("X" if flagged and true
                       else "#" if flagged
                       else "o" if true
                       else ".")
        print(" ".join(row))
    print()
    print(f"regionally discovered {metrics.regional_correct} of "
          f"{len(truth.regions)}; false flags {metrics.false} "
          f"({metrics.origin_false} near the source)")


if __name__ == "__main__":
    main()
