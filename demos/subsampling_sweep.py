# How many nodes can you drop before the detector loses the defects?
#
# Reruns the small three-inclusion scenario under random node masks at a
# handful of retention ratios and prints the averaged scores, plus the
# deterministic double-cross patterns for comparison.  Everything is seeded,
# so two runs print the same table.

import time

from wavesaliency.config import (
    bundled_config_path,
    detect_scenario,
    load_scenario,
    score_scenario,
    simulate_scenario,
    sweep_scenario,
)

RATIOS = [0.5, 0.33, 0.2, 0.1, 0.07]
TRIALS = 50

scenario = load_scenario(bundled_config_path("bench1_ci"))
cube = simulate_scenario(scenario)

full = score_scenario(scenario, detect_scenario(scenario, cube).flagged)
print(f"full sampling: {full.regional_correct} of "
      f"{len(scenario.truth().regions)} defects regionally discovered, "
      f"{full.false} false")

t0 = time.perf_counter()
rows = sweep_scenario(scenario, cube, RATIOS, TRIALS)
print(f"\n{TRIALS} random masks per ratio "
      f"({time.perf_counter() - t0:.1f} s):")
print("  keep   regional correct   false")
for row in rows:
    print(f"  {row.nz:4.0%}   {row.regional_correct:5.2f} "
          f"+- {row.regional_correct_se:4.2f}       {row.false:5.2f}")

print("\ndouble-cross patterns (deterministic, one run each):")
for stride in (1, 2, 4):
    [row] = sweep_scenario(scenario, cube, [], 1, pattern="cross", stride=stride)
    print(f"  stride {stride} (keep {row.nz:5.1%}):   "
          f"{row.regional_correct:.0f} regionally correct, "
          f"{row.false:.0f} false")
