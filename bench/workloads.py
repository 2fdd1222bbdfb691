"""The benchmark's workloads and the steps they share.

All load comes from one process in a closed loop: the benchmark itself, or
one CLI child at a time that it waits for.  Every run reports every
end-to-end metric.  A workload repeats the path it is named for and runs
the other paths between those repeats, so that each metric's samples are
spread over the whole run rather than taken in one burst.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import resource
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path
from types import SimpleNamespace

import numpy as np

import checks as ck

PLATES = ("bench1", "bench2", "pristine")
PAPER_RATIOS = (0.5, 0.33, 0.2, 0.1, 0.07)
PER_REGION_RATIO = 0.2
CROSS_STRIDES = (1, 2)
# The CLI's default trial count: sweeps in process run at the traffic a
# user's `wavesaliency sweep` makes.  The checks re-run each sweep with
# CHECK_TRIALS trials and re-score every one of them.
SWEEP_TRIALS = 50
CHECK_TRIALS = 2
ALL_SWEEPS = ("random", "per_region", "cross")
CLI_SWEEP = ("--ratios", "0.5,0.2,0.07", "--trials", "3")
SCALE = 3.7
NOISE = 1e-10
SETUP_REPEATS = 3
SPECTRUM_REPEATS = 2

# Cold set-up of a fresh interpreter: import the layers a run uses and
# load its scenarios.  Timed from spawn to exit.
SETUP_CHILD = (
    "import sys\n"
    "import wavesaliency.config as c, wavesaliency.pipeline, wavesaliency.sampling, "
    "wavesaliency.sim, wavesaliency.spectrum\n"
    "for p in sys.argv[1:]: c.load_scenario(p)\n"
)

# `python -m wavesaliency.cli ARGS`, plus a last stderr line with the
# child's own peak RSS.  ru_maxrss of a child also counts the parent's pages
# it held between fork and exec; VmHWM of the exec'd image does not.
CLI_CHILD = (
    "import atexit, runpy, sys\n"
    "def peak():\n"
    "    for line in open('/proc/self/status'):\n"
    "        if line.startswith('VmHWM:'):\n"
    "            sys.stderr.write('\\npeak_rss_kb ' + line.split()[1] + '\\n')\n"
    "atexit.register(peak)\n"
    "sys.argv[0] = 'wavesaliency'\n"
    "runpy.run_module('wavesaliency.cli', run_name='__main__', alter_sys=True)\n"
)

# Reference work that shares no code with the program.  The in-process
# kernel uses numpy and the interpreter as the program does (a small SVD,
# 257 x 257 elementwise passes, a bytecode loop); the reference child
# starts an interpreter and imports numpy and some of the standard library,
# as a CLI child does.
REFERENCE_CHILD = (
    "import numpy.linalg, numpy.fft, json, email.mime.text, xml.dom.minidom, "
    "unittest, decimal, asyncio, sqlite3"
)
# Their times on the machine the bounds were set on, in its median state.
REFERENCE_KERNEL_S = 0.033
REFERENCE_CHILD_S = 0.32
REFERENCE_EVERY_S = 0.5     # at most one in-process reference per half second
REFERENCE_WINDOW_S = 2.0    # references this close to an operation rescale it
REFERENCE_NEAREST = 2       # ... and at least this many of the nearest ones
REFERENCE_INSIDE = 3        # unless this many ran inside it: then those alone


class Speedometer:
    """The host's momentary speed, from reference work run between operations.

    On a shared host the same work can take 20% more or less wall time from
    one minute to the next, and the swings do not average out over a run of
    a minute.  Each timed operation's wall time is therefore multiplied by
    the nominal reference time over the median reference time measured
    around it: the in-process kernel for work done here, the reference child
    for child processes.  Inside a long operation made of many calls,
    ``ticking`` runs the kernel between those calls as well, so the speed
    is measured during the operation and not only at its ends; when at
    least REFERENCE_INSIDE references ran inside it, only those count.
    """

    def __init__(self, env: dict):
        gen = np.random.default_rng(0)
        self._a = gen.random((289, 205))
        self._b = gen.random((257, 257))
        self._env = env
        # (midpoint, seconds) per kind
        self.samples: dict[str, list[tuple[float, float]]] = {"kernel": [], "child": []}
        self._last = {"kernel": -np.inf, "child": -np.inf}
        self.inside_s = 0.0     # kernel time spent inside timed operations

    def _kernel(self) -> None:
        np.linalg.svd(self._a, full_matrices=False)
        c = self._b
        for _ in range(48):
            c = np.pad(c, 2)[2:-2, 2:-2] * 0.5 + 0.5 * c
        s = 0
        for i in range(100000):
            s += i * i % 7

    def _child(self) -> None:
        subprocess.run([sys.executable, "-c", REFERENCE_CHILD], env=self._env,
                       capture_output=True, check=True, timeout=60)

    def tick(self, kind: str) -> None:
        """Run the reference unless it ran within the last REFERENCE_EVERY_S."""
        if time.perf_counter() - self._last[kind] < REFERENCE_EVERY_S:
            return
        t = time.perf_counter()
        if kind == "kernel":
            self._kernel()
        else:
            self._child()
        self._last[kind] = time.perf_counter()
        self.samples[kind].append(((t + self._last[kind]) / 2.0, self._last[kind] - t))

    @contextlib.contextmanager
    def ticking(self, owner, attr: str):
        """Tick the kernel after each call of ``owner.attr`` in the block.

        The time the kernel takes is added to ``inside_s``, which the
        timed operation around the block subtracts from its wall time.
        """
        original = getattr(owner, attr)

        def call(*args, **kwargs):
            out = original(*args, **kwargs)
            t = time.perf_counter()
            self.tick("kernel")
            self.inside_s += time.perf_counter() - t
            return out

        setattr(owner, attr, call)
        try:
            yield
        finally:
            setattr(owner, attr, original)

    def factor(self, kind: str, start: float, end: float) -> float:
        samples = self.samples[kind]
        near = [d for m, d in samples if start <= m <= end]
        if len(near) < REFERENCE_INSIDE:
            near = [d for m, d in samples
                    if start - REFERENCE_WINDOW_S <= m <= end + REFERENCE_WINDOW_S]
        if len(near) < REFERENCE_NEAREST:
            mid = (start + end) / 2.0
            near = [d for _, d in sorted(samples, key=lambda s: abs(s[0] - mid))]
            near = near[:REFERENCE_NEAREST]
        nominal = REFERENCE_KERNEL_S if kind == "kernel" else REFERENCE_CHILD_S
        return nominal / statistics.median(near)


class Run:
    """One run: its inputs, timings, operation counts, checks and record."""

    def __init__(self, root: Path, workload: str, seed: int, seconds: float,
                 tracer, work: Path, env: dict, ws):
        self.root = root
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.tracer = tracer
        self.work = work
        self.env = env
        self.ws = ws
        self.rng = np.random.default_rng(seed)
        self.speed = Speedometer(env)
        self.checks = ck.Checks()
        self.attempted = 0
        self.failed = 0
        # key, kind, start, end, work, reference seconds inside
        self.ops: list[tuple[str, str, float, float, float | None, float]] = []
        self.importtime: dict[str, float] = {}
        self.child_peak_kb = 0
        self.record: dict = {"flagged": {}, "csv_sha256": {}, "reference": {},
                             "spectrum_stdout": {}, "sweep_rows_not_compared": []}
        self.scenarios: dict = {}
        self.first_rows: dict[str, dict] = {}   # the first sweep rows of each plate

    # -- inputs ----------------------------------------------------------

    def scenario_file(self, name: str, amplitude: float | None = None) -> Path:
        """A copy of a bundled scenario carrying the workload seed."""
        tag = name if amplitude is None else f"{name}_amp{amplitude:g}"
        path = self.work / f"{tag}.cfg"
        if path.exists():
            return path
        text = (self.root / "src" / "wavesaliency" / "configs" / f"{name}.cfg").read_text()
        lines = []
        for line in text.splitlines():
            key = line.split("=", 1)[0].strip()
            if key == "seed":
                line = f"seed = {self.seed}"
            elif key == "amplitude" and amplitude is not None:
                line = f"amplitude = {amplitude!r}"
            lines.append(line)
        path.write_text("\n".join(lines) + "\n")
        return path

    # -- timed operations ------------------------------------------------

    def timed(self, key: str | None, fn, *args, work: float | None = None,
              child: bool = False, **kwargs):
        """Call ``fn`` as one operation; ``key`` names the sample it gives.

        With ``work`` the sample is a rate, work per rescaled second;
        without, the rescaled seconds.  ``child`` marks an operation that
        runs in a child process.  Keys starting with ``setup`` are set-up,
        not operations.
        """
        if key is None or not key.startswith("setup"):
            self.attempted += 1
        kind = "child" if child else "kernel"
        self.speed.tick(kind)
        inside = self.speed.inside_s
        t = time.perf_counter()
        out = fn(*args, **kwargs)
        end = time.perf_counter()
        inside = self.speed.inside_s - inside
        self.speed.tick(kind)
        if key:
            self.ops.append((key, kind, t, end, work, inside))
        return out, end - t - inside

    def simulate(self, name: str):
        s = self.scenarios[name]
        g = s.grid
        return self.timed(
            "sim", self.ws.sim.simulate, s.material, list(s.defects), s.excitation,
            g.n1, g.n2, g.steps, g.safety, work=g.steps,
            record_every=g.record_every, space_order=g.space_order,
        )[0]

    def detect(self, s, cube):
        return self.timed("detect_s", self.ws.pipeline.run_detection,
                          cube, s.partition(), s.detection_config())[0]

    def cli(self, key: str, *argv) -> subprocess.CompletedProcess:
        """One CLI child, timed from spawn to exit."""
        with self.tracer.span(f"cli.{argv[0]}"):
            proc, _ = self.timed(
                key, subprocess.run,
                [sys.executable, "-c", CLI_CHILD, *map(str, argv)],
                env=self.env, cwd=self.work, capture_output=True, text=True,
                timeout=150, child=True,
            )
        tail = proc.stderr.rstrip().rsplit("\n", 1)[-1]
        if tail.startswith("peak_rss_kb "):
            self.child_peak_kb = max(self.child_peak_kb, int(tail.split()[1]))
        if proc.returncode != 0:
            self.ops.pop()
            self.failed += 1
            self.checks.expect(False, f"cli {' '.join(map(str, argv))} exited "
                                      f"{proc.returncode}: {proc.stderr[-400:]}")
        return proc

    def time_left(self, start: float) -> bool:
        return time.perf_counter() - start < self.seconds

    # -- set-up ----------------------------------------------------------

    def setup(self, names) -> None:
        """Time SETUP_REPEATS cold set-ups, then load the scenarios here."""
        paths = [str(self.scenario_file(n)) for n in names]
        subprocess.run([sys.executable, "-m", "compileall", "-q",
                        str(self.root / "src")], env=self.env,
                       capture_output=True, timeout=150)
        for _ in range(SETUP_REPEATS):
            proc, _ = self.timed("setup_child", subprocess.run,
                                 [sys.executable, "-c", SETUP_CHILD, *paths],
                                 env=self.env, capture_output=True, text=True,
                                 timeout=150, child=True)
            if proc.returncode != 0:
                raise RuntimeError(f"set-up child failed: {proc.stderr[-400:]}")
        for n, p in zip(names, paths):
            self.scenarios[n] = self.timed("setup_here", self.ws.config.load_scenario, p)[0]

    # -- record ----------------------------------------------------------

    def keep_flags(self, label: str, flagged) -> None:
        self.record["flagged"][label] = sorted([int(a), int(b)] for a, b in flagged)

    def keep_csv(self, label: str, data: bytes | str) -> None:
        if isinstance(data, str):
            data = data.encode()
        self.record["csv_sha256"][label] = hashlib.sha256(data).hexdigest()

    # -- results ---------------------------------------------------------

    def _seconds(self, kind: str, start: float, end: float, inside: float,
                 rescale: bool) -> float:
        factor = self.speed.factor(kind, start, end) if rescale else 1.0
        return (end - start - inside) * factor

    def samples(self, rescale: bool = True) -> dict[str, list[float]]:
        """Per key: rescaled seconds, or work per rescaled second."""
        out: dict[str, list[float]] = defaultdict(list)
        for key, kind, start, end, work, inside in self.ops:
            seconds = self._seconds(kind, start, end, inside, rescale)
            out[key].append(seconds if work is None else work / seconds)
        return out

    def metrics(self, rescale: bool = True) -> dict:
        samples = self.samples(rescale)
        med = {k: statistics.median(v) for k, v in samples.items()}
        sims = [(w, self._seconds(kind, s, e, inside, rescale))
                for k, kind, s, e, w, inside in self.ops if k == "sim"]
        if self.workload == "cli129":
            rss = self.child_peak_kb
        else:
            rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        return {
            "setup_s": (med["setup_child"] + sum(samples["setup_here"]), "s"),
            "peak_rss_mb": (rss / 1024.0, "MB"),
            "simulate_steps_per_s": (sum(w for w, _ in sims) / sum(t for _, t in sims), "1/s"),
            "detect_s": (med["detect_s"], "s"),
            "sweep_detections_per_s": (med["sweep_rate"], "1/s"),
            "sweep_per_region_detections_per_s": (med["sweep_per_region_rate"], "1/s"),
            "sweep_cross_s": (med["sweep_cross_s"], "s"),
            "cli_simulate_s": (med["cli_simulate_s"], "s"),
            "cli_detect_s": (med["cli_detect_s"], "s"),
            "cli_sweep_s": (med["cli_sweep_s"], "s"),
            "cli_spectrum_s": (med["cli_spectrum_s"], "s"),
        }


# ---------------------------------------------------------------------------
# In-process steps
# ---------------------------------------------------------------------------

def cube_digest(cube) -> tuple:
    """Grid, spacing and a sha256 of the samples, without copying them."""
    return (cube.n1, cube.n2, cube.t_len, cube.dx, cube.dt,
            hashlib.sha256(cube.values).hexdigest())


def plate_pass(run: Run, name: str, load, sweeps, repeats: int, localize: bool) -> None:
    """Timed detections (and sweeps) of one plate, each checked at once.

    ``load()`` gives the plate's cube.  The cube is detected ``repeats``
    times and swept with the ``sweeps`` patterns; those outputs are checked;
    then the cube is replaced by itself scaled by SCALE, and that by itself
    under NOISE relative noise, and each is detected ``repeats`` times and
    must flag the same regions.  Only this function holds the cube, and
    each replacement drops the one before, so at most two cubes are held
    at a time and nothing outlives the pass.
    """
    s = run.scenarios[name]
    cube = load()
    plain = [run.detect(s, cube) for _ in range(repeats)]
    rows = sweep_set(run, name, cube, sweeps)
    with run.tracer.paused():
        check_detection(run, name, cube, plain, localize)
        if rows:
            check_sweeps(run, name, cube, plain[0], rows)
    flagged = plain[0].flagged
    del plain

    def like(values):
        return run.ws.cube.DataCube(cube.n1, cube.n2, cube.t_len, cube.dx, cube.dt, values)

    cube = like(cube.values * SCALE)
    same_flags(run, f"{name} x{SCALE}", [run.detect(s, cube) for _ in range(repeats)], flagged)
    values = run.rng.standard_normal(cube.values.shape)
    values *= NOISE
    values += 1.0
    values *= cube.values
    cube = like(values)
    del values
    same_flags(run, f"{name} x{SCALE} noise", [run.detect(s, cube) for _ in range(repeats)],
               flagged)


def same_flags(run: Run, label: str, results, flagged) -> None:
    for res in results:
        run.checks.expect(res.flagged == flagged,
                          f"{label}: flagged {sorted(res.flagged)} != {sorted(flagged)}")


def check_detection(run: Run, name: str, cube, results, localize: bool) -> None:
    """Oracle, windows, velocity, repeat and localization checks."""
    s = run.scenarios[name]
    chk = run.checks
    plain = results[0]
    ck.check_cube(chk, name, cube)
    ck.check_velocity(chk, name, s, plain.group_velocity)
    ck.check_windows(chk, name, s, cube, plain)
    ck.check_saliency(chk, name, s, cube, plain)
    same_flags(run, f"{name} repeated", results[1:], plain.flagged)
    if localize:
        ck.check_localization(chk, name, s, plain.flagged)
    run.keep_flags(name, plain.flagged)
    run.keep_csv(f"{name}.saliency", run.ws.saliency.saliency_csv_text(plain.saliency))


def sweep_set(run: Run, name: str, cube, patterns):
    """Timed sweeps of SWEEP_TRIALS trials with the base seed the run seed.

    ``patterns`` names the ones to run: shared "random" masks at the
    paper's ratios, "per_region" masks at PER_REGION_RATIO, and the double
    "cross" at each stride.
    """
    trials = SWEEP_TRIALS
    s = run.scenarios[name]
    sampling = run.ws.sampling
    part, cfg = s.partition(), s.detection_config()
    truth = sampling.GroundTruth.from_defects(list(s.defects), part)
    rows = {}

    def sweep(*args, **kwargs):
        if run.tracer.enabled:          # spans time the program alone
            return sampling.monte_carlo_sweep(*args, **kwargs)
        with run.speed.ticking(sampling, "run_detection"):
            return sampling.monte_carlo_sweep(*args, **kwargs)

    if "random" in patterns:
        rows["random"], _ = run.timed("sweep_rate", sweep, cube, part, cfg, PAPER_RATIOS,
                                      trials, run.seed, truth=truth,
                                      work=len(PAPER_RATIOS) * trials)
    if "per_region" in patterns:
        rows["per_region"], _ = run.timed("sweep_per_region_rate", sweep, cube, part, cfg,
                                          [PER_REGION_RATIO], trials, run.seed, truth=truth,
                                          sharing="per_region", work=trials)

    def both_crosses():
        return [sweep(cube, part, cfg, [], trials, run.seed, truth=truth,
                      pattern="cross", stride=k) for k in CROSS_STRIDES]

    if "cross" in patterns:
        crosses, _ = run.timed("sweep_cross_s", both_crosses)
        rows.update((f"cross_{k}", r) for k, r in zip(CROSS_STRIDES, crosses))
    return rows


def check_sweeps(run: Run, name: str, cube, full, rows) -> None:
    """Row-order properties, and sweep rows against the oracle.

    The timed sweeps' rows average too many trials to re-score, so every
    ratio and pattern is swept again with CHECK_TRIALS trials from the run
    seed.  Each trial's mask is rebuilt (trial t draws from seed + t), its
    masked detection is checked by the oracle, and the oracle's flagged set
    is scored by the benchmark's own rules; the sweep's row must equal the
    mean of those scores.  A row is not compared when one of its oracle
    decisions lay within ``checks.AMBIGUOUS`` of the threshold.  A plate
    swept again with the same seed must give the rows it gave first.
    """
    first = run.first_rows.setdefault(name, rows)
    if first is not rows:
        run.checks.expect(all(first.get(k) == v for k, v in rows.items()),
                          f"{name}: sweep rows differ from its first sweep")
        return
    s = run.scenarios[name]
    sampling = run.ws.sampling
    part, cfg = s.partition(), s.detection_config()
    for label, table in rows.items():
        ck.check_sweep_rows(run.checks, f"{name} sweep {label}", s, table)
        run.keep_csv(f"{name}.sweep_{label}", sampling.sweep_csv_text(table))

    truth = sampling.GroundTruth.from_defects(list(s.defects), part)
    p1, p2, n = part.p1, part.p2, CHECK_TRIALS

    def sweep(ratios, **kw):
        return sampling.monte_carlo_sweep(cube, part, cfg, ratios, n, run.seed, truth=truth, **kw)

    def draws(ratio, sharing):
        return [sampling.random_mask(p1, p2, ratio, run.seed + t, sharing=sharing)
                for t in range(n)]

    cases = []
    if "random" in rows:
        cases += [(f"random {r:g}", row, draws(r, "shared"))
                  for r, row in zip(PAPER_RATIOS, sweep(PAPER_RATIOS))]
    if "per_region" in rows:
        cases += [(f"per_region {PER_REGION_RATIO:g}", row, draws(PER_REGION_RATIO, "per_region"))
                  for row in sweep([PER_REGION_RATIO], sharing="per_region")]
    for k in CROSS_STRIDES:
        if f"cross_{k}" in rows:
            cross = sampling.double_cross_mask(p1, p2, k)
            cases += [(f"cross {k}", row, [cross] * n)
                      for row in sweep([], pattern="cross", stride=k)]

    n_active = int(np.count_nonzero(full.window_set.active))
    scored: dict[int, tuple | None] = {}     # by mask; a cross row repeats one mask
    for label, row, masks in cases:
        scores = []
        for mask in masks:
            if id(mask) not in scored:
                res = run.ws.pipeline.run_detection(cube, part, cfg, mask=mask,
                                                    window_set=full.window_set)
                flags, unsure = ck.check_saliency(run.checks, f"{name} masked {label}", s,
                                                  cube, res, rows=mask_rows(mask, part, n_active))
                sure = flags is not None and not unsure
                scored[id(mask)] = ck.row_metrics(s, flags) if sure else None
            scores.append(scored[id(mask)])
        if any(sc is None for sc in scores):
            run.record["sweep_rows_not_compared"].append(f"{name} {label}")
            continue
        want = tuple(float(x) for x in np.asarray(scores, dtype=np.float64).mean(axis=0))
        got = (row.correct, row.false, row.regional_correct, row.regional_false,
               row.origin_false)
        run.checks.expect(got == want and row.trials == n,
                          f"{name} sweep {label}: row {got} over {row.trials} trials != "
                          f"oracle {want} over {n}")


def mask_rows(mask, part, n_active: int) -> np.ndarray:
    """Row indices of a mask, derived from its grid and seed.

    Shared masks keep the grid's nodes, x-fastest.  Per-region masks give
    each active region its own sorted draw of the same size from one
    generator seeded with the mask seed, region after region.
    """
    kept = np.flatnonzero(np.asarray(mask.grid).ravel(order="F"))
    if mask.sharing == "shared":
        return kept
    gen = np.random.default_rng(mask.seed)
    size = part.p1 * part.p2
    return np.stack([np.sort(gen.permutation(size)[:kept.size]) for _ in range(n_active)],
                    axis=1)


# ---------------------------------------------------------------------------
# CLI steps
# ---------------------------------------------------------------------------

def cli_quartet(run: Run, name: str, tag: str) -> None:
    """simulate, detect, sweep and spectrum children on one 129-node plate.

    Outputs are named ``<plate>_<tag>`` so repeated quartets can be compared
    byte for byte.
    """
    cfg = run.scenario_file(name)
    out = f"{name}_{tag}"
    run.cli("cli_simulate_s", "simulate", cfg, f"{out}.wvc")
    run.cli("cli_detect_s", "detect", f"{out}.wvc", cfg, f"{out}_det")
    run.cli("cli_sweep_s", "sweep", f"{out}.wvc", cfg, f"{out}_sweep.csv", *CLI_SWEEP)
    for i in range(SPECTRUM_REPEATS):
        proc = run.cli("cli_spectrum_s", "spectrum", f"{out}.wvc", f"{out}_spec{i}")
        run.record["spectrum_stdout"][f"{out}_spec{i}"] = proc.stdout


def check_cli(run: Run, name: str, tags):
    """The quartets' outputs against the library, the oracles and each other.

    Returns the cube the first quartet wrote.
    """
    ws, chk = run.ws, run.checks
    s = ws.config.load_scenario(run.scenario_file(name))
    suffixes = [".wvc", "_det.csv", "_det.pgm", "_det.mask.pgm", "_det.flags.txt",
                "_det.manifest", "_sweep.csv"]
    suffixes += [f"_spec{i}{x}" for i in range(SPECTRUM_REPEATS) for x in (".csv", ".pgm")]
    digests = {tag: {x: hashlib.sha256((run.work / f"{name}_{tag}{x}").read_bytes()).digest()
                     for x in suffixes}
               for tag in tags}
    for tag in tags[1:]:
        differ = sorted(x for x in suffixes if digests[tag][x] != digests[tags[0]][x])
        chk.expect(not differ, f"cli {name}: run {tag} differs from run {tags[0]} in {differ}")
    for i in range(1, SPECTRUM_REPEATS):
        chk.expect(digests[tags[0]][f"_spec{i}.csv"] == digests[tags[0]]["_spec0.csv"],
                   f"cli {name}: repeated spectrum CSVs differ")
    first = {x: (run.work / f"{name}_{tags[0]}{x}").read_bytes()
             for x in ("_det.flags.txt", "_det.csv", "_spec0.csv", "_sweep.csv")}

    cube = ws.cube.read_cube(run.work / f"{name}_{tags[0]}.wvc")
    ck.check_cube(chk, f"cli {name}", cube)
    res = ws.pipeline.run_detection(cube, s.partition(), s.detection_config())
    ck.check_saliency(chk, f"cli {name}", s, cube, res)
    ck.check_velocity(chk, f"cli {name}", s, res.group_velocity)
    flags = {tuple(map(int, line.split()))
             for line in first["_det.flags.txt"].decode().splitlines()}
    chk.expect(flags == set(res.flagged), f"cli {name}: flags file != library flags")
    chk.expect(first["_det.csv"] == ws.saliency.saliency_csv_text(res.saliency).encode(),
               f"cli {name}: saliency CSV != library CSV")
    run.keep_flags(f"cli.{name}", flags)
    run.keep_csv(f"cli.{name}.saliency", first["_det.csv"])
    run.keep_csv(f"cli.{name}.spectrum", first["_spec0.csv"])
    truth = ck.truth_regions(s)
    run.record["reference"][f"{name}.flagged"] = len(flags)
    run.record["reference"][f"{name}.false"] = len(flags - truth)
    for i in range(SPECTRUM_REPEATS):
        said = run.record["spectrum_stdout"][f"{name}_{tags[0]}_spec{i}"]
        chk.expect(said.startswith("occupied fraction: "), f"cli {name}: spectrum said {said!r}")
        if said.startswith("occupied fraction: "):
            ck.check_spectrum(chk, f"cli {name}", cube, float(said.split()[2]))
    table = list(csv.DictReader(first["_sweep.csv"].decode().splitlines()))
    rows = [SimpleNamespace(**{k: float(v) for k, v in r.items()}) for r in table]
    ck.check_sweep_rows(chk, f"cli {name} sweep", s, rows)
    ck.check_half_ratio(chk, f"cli {name} sweep", s, table, res.flagged)
    run.keep_csv(f"cli.{name}.sweep", first["_sweep.csv"])
    return cube


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

def paper257(run: Run) -> None:
    """The paper's three plates at 257 nodes, one after another.

    Each plate is simulated, written to a WVC1 file and read back, then
    passed through ``plate_pass``: detected plain, scaled and noisy, and for
    bench1 swept with every mask pattern at SWEEP_TRIALS trials.  A CLI
    quartet on bench1_ci follows each plate.
    """
    run.setup(PLATES)
    start = time.perf_counter()
    rounds = 0
    while True:
        for i, name in enumerate(PLATES):
            path = run.work / f"{name}.wvc"
            cube = run.simulate(name)
            run.timed(None, run.ws.cube.write_cube, cube, path)
            written = cube_digest(cube)
            del cube

            def load():
                back = run.timed(None, run.ws.cube.read_cube, path)[0]
                run.checks.expect(cube_digest(back) == written,
                                  f"{name}: WVC1 round trip changed the cube")
                path.unlink()
                return back

            plate_pass(run, name, load, ALL_SWEEPS if name == "bench1" else (),
                       repeats=1, localize=True)
            cli_quartet(run, "bench1_ci", f"{rounds}{i}")
        rounds += 1
        if not run.time_left(start):
            break
    check_cli(run, "bench1_ci", [f"{r}{i}" for r in range(rounds) for i in range(len(PLATES))])


def cli129(run: Run) -> None:
    """CLI cold starts on the 129-node plates, and the library beside them.

    Each round runs a CLI quartet on bench1_ci and on pristine_ci, and
    after each simulates the same plate in process, compares it with the
    CLI's cube and passes it through ``plate_pass``: each detection twice,
    and sweeps at SWEEP_TRIALS trials.  A per-region or cross sweep at 129
    nodes takes about a second, so they run on every plate and round, four
    samples a run; the 2-s random sweep runs in the first round only.
    After the rounds, the doubled-amplitude scenario is simulated through
    the CLI.
    """
    run.setup(["bench1_ci", "pristine_ci"])
    start = time.perf_counter()
    rounds = 0
    while rounds < 2 or run.time_left(start):
        for name in ("bench1_ci", "pristine_ci"):
            cli_quartet(run, name, str(rounds))

            def load():
                cube = run.simulate(name)
                written = run.timed(None, run.ws.cube.read_cube,
                                    run.work / f"{name}_{rounds}.wvc")[0]
                run.checks.expect(written == cube, f"{name}: CLI cube != library simulate")
                return cube

            sweeps = ALL_SWEEPS if rounds == 0 else ("per_region", "cross")
            plate_pass(run, name, load, sweeps, repeats=2, localize=False)
        rounds += 1
    tags = [str(r) for r in range(rounds)]
    b1 = check_cli(run, "bench1_ci", tags)
    check_cli(run, "pristine_ci", tags)
    run.cli("cli_simulate_s", "simulate", run.scenario_file("bench1_ci", 2.0), "x2.wvc")
    twice = run.ws.cube.read_cube(run.work / "x2.wvc")
    run.checks.expect(np.array_equal(twice.values, 2.0 * b1.values),
                      "cli: doubling amplitude does not give exactly twice the cube")


WORKLOADS = {"paper257": paper257, "cli129": cli129}
