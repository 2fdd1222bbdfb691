"""Per-layer numbers of a traced run, taken from its spans.

``probe`` runs after a workload in traced runs only: it times the CLI's
imports with ``-X importtime`` and each subcommand's ``main([...])`` in
process, so that a child's wall time splits into start-up and work.  Every
other number comes from spans the tracer recorded around the workload's
own calls.
"""

from __future__ import annotations

import contextlib
import io
import statistics
import subprocess
import sys

from spans import duration, median_duration

# n1 x n1 float64 array reads and writes one 4th-order integrator step
# makes in sim.simulate, counting every operand and result of every ufunc:
# 42 per Laplacian stage (the padded copy, 2 x 15 for the two 5-point
# sums, 10 to combine them), 3 for D * u, 5 for -v / rho_h, 10 for the
# leapfrog update and 3 for the divergence check.  Computed from the code,
# not measured.
STEP_ARRAY_PASSES = 2 * 42 + 3 + 5 + 10 + 3

MASK_LABELS = ("random_0.5", "random_0.33", "random_0.2", "random_0.1", "random_0.07",
               "per_region_0.2", "cross_1", "cross_2")
CLI_COMMANDS = ("simulate", "detect", "sweep", "spectrum")


def probe(run) -> None:
    """Each subcommand in process, and the import timings of one CLI child."""
    b1 = run.scenario_file("bench1_ci")
    main = run.ws.cli.main
    work = run.work
    argvs = {
        "simulate": ["simulate", str(b1), str(work / "inproc.wvc")],
        "detect": ["detect", str(work / "inproc.wvc"), str(b1), str(work / "inproc_det")],
        "sweep": ["sweep", str(work / "inproc.wvc"), str(b1), str(work / "inproc_sweep.csv"),
                  "--ratios", "0.5,0.2,0.07", "--trials", "3"],
        "spectrum": ["spectrum", str(work / "inproc.wvc"), str(work / "inproc_spec")],
    }
    for cmd in CLI_COMMANDS:
        with run.tracer.span(f"cli.{cmd}_inproc"), contextlib.redirect_stdout(io.StringIO()):
            code = main(argvs[cmd])
        run.checks.expect(code == 0, f"in-process cli {cmd} returned {code}")

    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "wavesaliency.cli",
         "detect", str(work / "inproc.wvc"), str(b1), str(work / "probe_det")],
        env=run.env, cwd=work, capture_output=True, text=True, timeout=150,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"importtime child failed: {proc.stderr[-400:]}")
    run.importtime = parse_importtime(proc.stderr)


def parse_importtime(text: str) -> dict[str, float]:
    """Total, numpy and scipy.signal import seconds from -X importtime."""
    total = 0.0
    found: dict[str, float] = {}
    for line in text.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        _, cumulative, name = line.split("|", 2)
        if not cumulative.strip().isdigit():
            continue                        # the header line
        seconds = int(cumulative) / 1e6
        if not name.startswith("  "):       # top level: one space of indent
            total += seconds
        found.setdefault(name.strip(), seconds)
    return {
        "total": total,
        "numpy": found.get("numpy", 0.0),
        "scipy.signal": found.get("scipy.signal", 0.0),
    }


def _median(values, default=0.0):
    values = list(values)
    return statistics.median(values) if values else default


def layer_metrics(run, cut: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics; spans from ``cut`` on belong to ``probe``."""
    tr = run.tracer

    def named(name, **match):
        return tr.named(name, before=cut, **match)

    sims = named("sim.simulate")
    main_n1 = max(s["n1"] for s in sims)
    sims = [s for s in sims if s["n1"] == main_n1]
    out: dict[str, tuple[float, str]] = {}

    out["sim.simulate_s"] = (median_duration(sims), "s")
    out["sim.step_ms"] = (_median(1e3 * duration(s) / s["steps"] for s in sims), "ms")
    out["sim.mb_moved_per_step"] = (STEP_ARRAY_PASSES * main_n1 * main_n1 * 8 / 1e6, "MB")

    # The cli129 workload writes its cubes from CLI children only; the
    # probe's in-process `simulate` writes one of the same size.
    writes = tr.named("cube.write")
    largest = max(s["bytes"] for s in writes)
    out["cube.write_s"] = (median_duration([s for s in writes if s["bytes"] == largest]), "s")
    reads = [s for s in tr.named("cube.read") if s["bytes"] == largest]
    out["cube.read_s"] = (median_duration(reads), "s")
    out["cube.mb"] = (largest / 1e6, "MB")
    out["config.load_scenario_s"] = (median_duration(named("config.load_scenario")), "s")

    out["cli.import_total_s"] = (run.importtime["total"], "s")
    out["cli.import_scipy_signal_s"] = (run.importtime["scipy.signal"], "s")
    out["cli.import_numpy_s"] = (run.importtime["numpy"], "s")
    for cmd in CLI_COMMANDS:
        out[f"cli.{cmd}_inproc_s"] = (median_duration(tr.named(f"cli.{cmd}_inproc")), "s")

    at_main = {"n1": main_n1}
    out["windowing.estimate_group_velocity_s"] = (
        median_duration(named("windowing.estimate_group_velocity", **at_main)), "s")
    windows = named("windowing.extract_windows", **at_main)
    out["windowing.extract_windows_s"] = (median_duration(windows), "s")
    out["windowing.active_regions"] = (_median(s["active"] for s in windows), "count")
    full = named("saliency.saliency_map", masked=False, **at_main)
    out["saliency.saliency_map_s"] = (median_duration(full), "s")
    out["saliency.snapshots"] = (sum(s["window_len"] for s in full), "count")

    for label in MASK_LABELS:
        spans = named("pipeline.masked_detection", mask=label, **at_main)
        out[f"pipeline.masked_detection_ms.{label}"] = (1e3 * median_duration(spans), "ms")

    sweeps = named("sampling.sweep", **at_main)
    for pattern in ("random", "per_region", "cross"):
        spans = [s for s in sweeps if s["pattern"] == pattern]
        out[f"sampling.sweep_s.{pattern}"] = (median_duration(spans), "s")

    total = sum(duration(s) for s in sweeps)
    overhead, throwaway, rescored, redraw, ratios = [], 0.0, 0.0, 0.0, []
    for sw in sweeps:
        dets = tr.under(sw, "pipeline.masked_detection")
        masked = [d for d in dets if d["mask"] is not None]
        overhead.append(duration(sw) - sum(duration(d) for d in masked))
        throwaway += sum(duration(d) for d in dets if d["mask"] is None)
        if sw["pattern"] == "cross":
            distinct = len({d["mask_key"] for d in masked})
            ratios.append(distinct / len(masked))
            rescored += sum(duration(d) for d in masked) * (1 - distinct / len(masked))
        for r in tr.under(sw, "sampling.row_indices"):
            if r["sharing"] != "shared":
                redraw += duration(r)
    window_len = full[0]["window_len"]
    out["sampling.sweep_overhead_s"] = (_median(overhead), "s")
    out["sampling.cross_distinct_mask_ratio"] = (_median(ratios), "ratio")
    out["sampling.mask_build_ms"] = (1e3 * median_duration(named("sampling.mask_build")), "ms")
    # Shares of sweep time spent on work a sweep repeats or throws away.
    out["sampling.share_full_detection"] = (throwaway / total, "ratio")
    out["sampling.share_cross_rescoring"] = (rescored / total, "ratio")
    out["sampling.share_row_redraw"] = (redraw * (1 - 1 / window_len) / total, "ratio")

    # The spectrum layer runs in process only under the probe's `spectrum`.
    out["spectrum.dft2_magnitude_s"] = (median_duration(tr.named("spectrum.dft2_magnitude")), "s")
    out["spectrum.occupied_fraction_s"] = (
        median_duration(tr.named("spectrum.occupied_fraction")), "s")
    return out
