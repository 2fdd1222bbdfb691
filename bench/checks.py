"""Checks made apart from the program, on the program's outputs.

Nothing here calls the program's scoring, windowing or metric code: each
check recomputes what it needs from the cube, the scenario's raw numbers
and the documented rules, with plain numpy, and compares.  A failed check
is recorded, not raised, so one run reports every check that broke.
"""

from __future__ import annotations

import math

import numpy as np

# An oracle energy this close (relative) to the strict ``> ratio * max``
# threshold may fall either way under a different order of floating-point
# operations; decisions there are not compared.
AMBIGUOUS = 1e-9
DUST = 1e-12            # documented dust guard: energies below (1e-12 s0)^2
SILENCE = 1e-12         # documented silence floor of a windowed region
VELOCITY_TOLERANCE = 0.05


class Checks:
    """Named pass/fail record of one run."""

    def __init__(self):
        self.failures: list[str] = []
        self.passed = 0
        self.smallest_margin = math.inf

    def expect(self, ok: bool, what: str) -> bool:
        if ok:
            self.passed += 1
        else:
            self.failures.append(what)
        return ok

    def margin(self, value: float) -> None:
        self.smallest_margin = min(self.smallest_margin, value)


# ---------------------------------------------------------------------------
# Geometry and physics from the scenario's raw numbers
# ---------------------------------------------------------------------------

def closed_form_group_velocity(scenario) -> float:
    """c_g = 2 (omega^2 D / rho h)^(1/4) from the material constants."""
    m = scenario.material
    d = m.youngs_modulus * m.thickness ** 3 / (12.0 * (1.0 - m.poisson_ratio ** 2))
    rho_h = m.density * m.thickness
    omega = 2.0 * math.pi * scenario.excitation.carrier_frequency
    return 2.0 * (omega * omega * d / rho_h) ** 0.25


def _region_layout(scenario):
    g, det = scenario.grid, scenario.detection
    p1 = (g.n1 - 1) // det.regions_x + 1
    p2 = (g.n2 - 1) // det.regions_y + 1
    return det.regions_x, det.regions_y, p1, p2


def window_starts(scenario, cube, group_velocity: float):
    """round((|centroid - source| / c_g + T_b / 2) / dt) for every region.

    The source is clamped one node inside the pinned rim, where the
    simulator applies the force.  Returns the start and the distance of
    (t / dt) from a rounding tie, both indexed [a, b].
    """
    r1, r2, p1, p2 = _region_layout(scenario)
    exc = scenario.excitation
    sl = min(max(exc.source.l, 1), cube.n1 - 2)
    sm = min(max(exc.source.m, 1), cube.n2 - 2)
    burst = exc.cycle_count / exc.carrier_frequency
    a = np.arange(r1)[:, None]
    b = np.arange(r2)[None, :]
    cx = (a * (p1 - 1) + (p1 - 1) / 2.0 - sl) * cube.dx
    cy = (b * (p2 - 1) + (p2 - 1) / 2.0 - sm) * cube.dx
    t = (np.sqrt(cx * cx + cy * cy) / group_velocity + burst / 2.0) / cube.dt
    return np.round(t).astype(np.int64), np.abs(np.abs(t - np.floor(t)) - 0.5)


def region_of_point(scenario, x: float, y: float) -> tuple[int, int]:
    """Region holding the material cell under plate-fraction point (x, y)."""
    r1, r2, p1, p2 = _region_layout(scenario)
    cells = scenario.grid.n1 - 1
    cl = min(int(x * cells), cells - 1)
    cm = min(int(y * cells), cells - 1)
    return cl // (p1 - 1), cm // (p2 - 1)


def truth_regions(scenario) -> set[tuple[int, int]]:
    """Regions a defect touches, walking line defects at 1/64 cell steps."""
    out = set()
    cells = scenario.grid.n1 - 1
    for d in scenario.defects:
        if d.kind == "point_inclusion":
            out.add(region_of_point(scenario, *d.geometry))
            continue
        xa, ya, xb, yb = d.geometry
        for t in np.linspace(0.0, 1.0, 64 * cells + 1):
            out.add(region_of_point(scenario, xa + t * (xb - xa), ya + t * (yb - ya)))
    return out


# The 3x3 block of regions at the excitation corner (0, 0), where every
# bundled scenario puts its source.
CORNER_BLOCK = frozenset((a, b) for a in range(3) for b in range(3))


def _chebyshev(p, q) -> int:
    return max(abs(p[0] - q[0]), abs(p[1] - q[1]))


# ---------------------------------------------------------------------------
# Cubes
# ---------------------------------------------------------------------------

def check_cube(checks: Checks, label: str, cube) -> None:
    v = cube.values
    checks.expect(bool(np.isfinite(v).all()), f"{label}: cube has non-finite values")
    edges = (v[:, 0, :], v[:, -1, :], v[:, :, 0], v[:, :, -1])
    checks.expect(all(not e.any() for e in edges),
                  f"{label}: pinned edges are not exactly zero")
    checks.expect(bool(np.abs(v).max() > 0.0), f"{label}: cube is all zero")


# ---------------------------------------------------------------------------
# Saliency oracle
# ---------------------------------------------------------------------------

def oracle_fractions(scenario, cube, group_velocity, rank, rows=None):
    """Saliency counts recomputed from the cube with an explicit projector.

    ``rows`` is None (full sampling), a 1-D index vector shared by every
    region, or a (kept, active_regions) array of per-region indices; node
    indices run x-fastest inside a region.  Returns (counts, unsure,
    active, margin): per active region the oracle's outlier count, the
    number of offsets whose decision lay within ``AMBIGUOUS`` of the
    threshold, the active-region mask and the smallest relative margin.
    """
    r1, r2, p1, p2 = _region_layout(scenario)
    det = scenario.detection
    tw = det.window_len
    starts, _ = window_starts(scenario, cube, group_velocity)
    peak = float(np.abs(cube.values).max())
    active = np.zeros((r1, r2), dtype=bool)
    blocks = []
    for b in range(r2):
        for a in range(r1):
            s = int(starts[a, b])
            if s < 0 or s + tw > cube.t_len:
                continue
            l0, m0 = a * (p1 - 1), b * (p2 - 1)
            blk = cube.values[s:s + tw, m0:m0 + p2, l0:l0 + p1].reshape(tw, p1 * p2)
            if math.sqrt(float(np.mean(blk * blk))) <= SILENCE * peak:
                continue
            active[a, b] = True
            blocks.append(blk)
    stack = np.stack(blocks, axis=2)          # (tw, p1*p2, active)
    if rows is not None:
        rows = np.asarray(rows)
        if rows.ndim == 1:
            stack = stack[:, rows, :]
        else:
            stack = np.take_along_axis(stack, rows[None, :, :], axis=1)

    n = stack.shape[2]
    counts = np.zeros(n, dtype=np.int64)
    unsure = np.zeros(n, dtype=np.int64)
    margin = math.inf
    s0 = np.linalg.svd(stack[0], compute_uv=False)[0]
    dust = (s0 * DUST) ** 2
    for tau in range(tw):
        x = stack[tau]
        u = np.linalg.svd(x, full_matrices=False)[0][:, :rank]
        resid = x - (u @ u.T) @ x
        energy = np.einsum("ij,ij->j", resid, resid)
        top = float(energy.max())
        if top <= dust:
            continue
        cut = scenario.detection.ratio * top
        rel = np.abs(energy - cut) / cut
        margin = min(margin, float(rel.min()))
        counts += energy > cut
        unsure += rel <= AMBIGUOUS
    return counts, unsure, active, margin


def check_saliency(checks: Checks, label: str, scenario, cube, result, rows=None):
    """Compare a DetectionResult with the oracle; fractions and flags exact.

    Returns the oracle's flagged set and the regions where one of its
    decisions lay within ``AMBIGUOUS`` of the threshold, or (None, None)
    when the active regions already differ.
    """
    sal = result.saliency
    rank = scenario.detection.rank
    rank = sal.rank_used if rank == "auto" else int(rank)
    counts, unsure, active, margin = oracle_fractions(
        scenario, cube, result.group_velocity, rank, rows
    )
    checks.margin(margin)
    ok = checks.expect(np.array_equal(active, np.asarray(sal.active)),
                       f"{label}: active regions differ from the oracle's")
    if not ok:
        return None, None
    tw = scenario.detection.window_len
    theta = scenario.detection.theta
    ids = [(a, b) for b in range(active.shape[1]) for a in range(active.shape[0])
           if active[a, b]]
    bad, oracle_flags, unsure_regions = [], set(), set()
    for j, (a, b) in enumerate(ids):
        got, want = float(sal.fractions[a, b]), counts[j] / tw
        # a count may differ only by decisions that sat on the threshold
        if got != want and abs(round(got * tw) - counts[j]) > unsure[j]:
            bad.append((a, b, got, want))
        if counts[j] / tw >= theta:
            oracle_flags.add((a, b))
        if unsure[j]:
            unsure_regions.add((a, b))
    checks.expect(not bad, f"{label}: saliency fractions differ from the oracle at {bad[:4]}")
    differ = oracle_flags ^ set(result.flagged)
    checks.expect(differ <= unsure_regions,
                  f"{label}: flagged set {sorted(result.flagged)} != oracle {sorted(oracle_flags)}")
    return oracle_flags, unsure_regions


def check_windows(checks: Checks, label: str, scenario, cube, result) -> None:
    starts, tie = window_starts(scenario, cube, result.group_velocity)
    got = np.asarray(result.window_set.arrival_index)
    differ = (starts != got) & (tie > 1e-9)
    checks.expect(not differ.any(),
                  f"{label}: {int(differ.sum())} window start(s) differ from the closed form")


def check_velocity(checks: Checks, label: str, scenario, velocity: float) -> None:
    ref = closed_form_group_velocity(scenario)
    err = abs(velocity - ref) / ref
    checks.expect(err <= VELOCITY_TOLERANCE,
                  f"{label}: group velocity {velocity:.1f} is {err:.1%} off {ref:.1f}")


# ---------------------------------------------------------------------------
# Localization and sweep properties
# ---------------------------------------------------------------------------

def check_localization(checks: Checks, label: str, scenario, flagged) -> None:
    flagged = set(flagged)
    truth = truth_regions(scenario)
    block = CORNER_BLOCK
    if not scenario.defects:
        stray = flagged - block
        checks.expect(not stray, f"{label}: pristine plate flags {sorted(stray)}")
        return
    if all(d.kind == "point_inclusion" for d in scenario.defects):
        for t in truth:
            checks.expect(any(_chebyshev(f, t) <= 1 for f in flagged),
                          f"{label}: inclusion region {t} not found")
        stray = [f for f in flagged
                 if all(_chebyshev(f, t) >= 2 for t in truth) and f not in block]
        checks.expect(len(stray) <= 2, f"{label}: {len(stray)} stray flags {sorted(stray)}")
        return
    for d in scenario.defects:
        xa, ya, xb, yb = d.geometry
        tips = {region_of_point(scenario, xa, ya), region_of_point(scenario, xb, yb)}
        checks.expect(tips <= flagged, f"{label}: slot tips {sorted(tips)} not both flagged")
    covered = truth & flagged
    checks.expect(len(covered) >= 0.6 * len(truth),
                  f"{label}: {len(covered)} of {len(truth)} slot regions flagged")


def row_metrics(scenario, flagged) -> tuple[int, int, int, int, int]:
    """A flagged set scored as a sweep row scores it.

    (correct, false, regional_correct, regional_false, origin_false): flags
    on a truth region, flags elsewhere, truth regions with a flag within
    Chebyshev distance 1, flags at distance 2 or more from every truth
    region, and false flags in the corner block.
    """
    flagged = set(flagged)
    truth = truth_regions(scenario)
    false = flagged - truth
    return (
        len(flagged & truth),
        len(false),
        sum(1 for t in truth if any(_chebyshev(f, t) <= 1 for f in flagged)),
        sum(1 for f in flagged if all(_chebyshev(f, t) >= 2 for t in truth)),
        len(false & CORNER_BLOCK),
    )


def check_sweep_rows(checks: Checks, label: str, scenario, rows) -> None:
    size = len(truth_regions(scenario))
    for r in rows:
        ok = (0.0 <= r.correct <= r.regional_correct <= size
              and r.regional_false <= r.false and r.origin_false <= r.false)
        checks.expect(ok, f"{label}: sweep row at nz={r.nz:g} breaks the metric order")


def check_half_ratio(checks: Checks, label: str, scenario, csv_rows, full_flagged):
    """At nz = 0.5 the regional hits keep 90% of the full-sampling value."""
    full = row_metrics(scenario, full_flagged)[2]
    half = [r for r in csv_rows if float(r["nz"]) == 0.5]
    checks.expect(len(half) == 1, f"{label}: no nz=0.5 row")
    if half:
        got = float(half[0]["regional_correct"])
        checks.expect(got >= 0.9 * full,
                      f"{label}: regional_correct {got} at nz=0.5 < 0.9 x {full}")


# ---------------------------------------------------------------------------
# Spectrum
# ---------------------------------------------------------------------------

def occupied_fraction_numpy(cube, floor_db: float = -20.0) -> float:
    """Share of 2-D DFT bins of the last snapshot above floor_db of the peak."""
    mag = np.abs(np.fft.fft2(cube.values[-1]))
    return float(np.count_nonzero(mag > mag.max() * 10.0 ** (floor_db / 20.0)) / mag.size)


def check_spectrum(checks: Checks, label: str, cube, printed: float) -> None:
    mine = occupied_fraction_numpy(cube)
    checks.expect(0.01 <= printed <= 0.05,
                  f"{label}: occupied fraction {printed} outside [0.01, 0.05]")
    checks.expect(abs(mine - printed) <= 5e-7,
                  f"{label}: occupied fraction {printed} != numpy count {mine:.6f}")
