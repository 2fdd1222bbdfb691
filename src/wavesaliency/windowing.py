"""Region partition and time-of-flight window extraction.

The node grid is partitioned into square regions that share their boundary
rows and columns, so a grid of n1 x n2 nodes splits into r1 x r2 regions of
p1 x p2 nodes each with p1 = (n1 - 1) / r1 + 1.  Each region is assigned a
short time window opening at the moment the excitation burst's envelope
center is expected to reach the region centroid, computed from an estimated
group velocity; this aligns the wave "state" seen by every region.  Regions
whose window overruns the recording, or whose windowed signal is numerically
silent, are flagged inactive and get no window at all: the window set holds
one column per active region.  The burst envelope used to time probe
arrivals is the magnitude of the FFT analytic signal (``_analytic_envelope``).

Region (a, b) covers nodes l in [a*(p1-1), a*(p1-1) + p1 - 1] and likewise
for m; only ``extract_windows`` computes origins and centroids.  Regions are
enumerated x-fastest, j = a + regions_x * b, and the active ones keep that
order; inside a region, node i = local_l + p1 * local_m (x-fastest too).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .cube import DataCube, GridPoint, hold_plain_numbers, magnitude
from .errors import ConfigError, DataError, NoSignalError, WindowingError
from .sim import ExcitationSpec, effective_source

DEFAULT_WINDOW_LEN = 11

# A windowed region whose RMS falls at or below this fraction of the cube's
# peak amplitude carries no usable signal.
SILENCE_FLOOR = 1e-12

# An envelope sample must reach this fraction of the history's peak envelope
# before it can be considered part of the first-arriving packet; late
# reverberation can rival the direct wave in amplitude but, by the triangle
# inequality, never precedes it.
FIRST_ARRIVAL_FRACTION = 0.2


@dataclass(frozen=True)
class Partition:
    """Split of an n1 x n2 node grid into regions with shared boundaries."""

    n1: int
    n2: int
    regions_x: int
    regions_y: int

    def __post_init__(self):
        hold_plain_numbers(self)
        for n, r, axis in ((self.n1, self.regions_x, "x"),
                           (self.n2, self.regions_y, "y")):
            if r < 1:
                raise ConfigError(f"region count along {axis} must be >= 1")
            if (n - 1) % r != 0:
                raise ConfigError(
                    f"cannot split {n} nodes into {r} regions along {axis}: "
                    f"{n - 1} intervals not divisible by {r}"
                )
            if (n - 1) // r < 1:
                raise ConfigError(
                    f"regions along {axis} would collapse to a single node"
                )

    @property
    def p1(self) -> int:
        """Nodes per region along x."""
        return (self.n1 - 1) // self.regions_x + 1

    @property
    def p2(self) -> int:
        """Nodes per region along y."""
        return (self.n2 - 1) // self.regions_y + 1

    @property
    def nodes_per_region(self) -> int:
        return self.p1 * self.p2

    def check_grid(self, cube: DataCube) -> None:
        """Raise ConfigError unless ``cube`` has this partition's grid."""
        if (self.n1, self.n2) != (cube.n1, cube.n2):
            raise ConfigError(
                f"partition is for {self.n1} x {self.n2} nodes, "
                f"cube has {cube.n1} x {cube.n2}"
            )

    def region_of_cell(self, cell_l: int, cell_m: int) -> tuple[int, int]:
        """Region containing a material cell (cells never straddle regions)."""
        if not (0 <= cell_l < self.n1 - 1 and 0 <= cell_m < self.n2 - 1):
            raise IndexError(f"cell ({cell_l}, {cell_m}) outside grid")
        return (cell_l // (self.p1 - 1), cell_m // (self.p2 - 1))


@dataclass(frozen=True)
class ProbePair:
    """Two recording nodes used to estimate the propagation speed.

    The pair is meant to sit on a common ray from the source so that the
    straight-line separation equals the extra distance the wave travels.
    """

    first: GridPoint
    second: GridPoint

    def __post_init__(self):
        if self.first == self.second:
            raise ValueError("probes must be distinct nodes")

    def separation(self, dx: float) -> float:
        """Straight-line distance between the probes in meters."""
        return float(
            np.hypot(self.second.l - self.first.l, self.second.m - self.first.m)
        ) * dx


def _analytic_envelope(signal: np.ndarray) -> np.ndarray:
    """Magnitude of the analytic signal of a real 1-D history.

    The one-sided FFT construction (Marple 1999, IEEE Trans. Signal Process.
    47(9)): keep the DC bin and, for an even length, the Nyquist bin, double
    the positive frequencies, zero the negative ones and transform back.
    The magnitude is ``cube.magnitude``'s, so the crest times, and the
    group velocity read from them, do not move with numpy's SIMD level.
    """
    n = len(signal)
    h = np.zeros(n)
    h[0] = 1.0
    h[1:(n + 1) // 2] = 2.0
    if n % 2 == 0:
        h[n // 2] = 1.0
    return magnitude(np.fft.ifft(np.fft.fft(signal) * h))


def first_envelope_peak_time(signal: np.ndarray, dt: float) -> float:
    """Arrival time of the first envelope crest, with parabolic refinement.

    The envelope is the magnitude of the analytic signal.  The global
    maximum is not trusted: in a closed plate the late reverberant field can
    out-peak the direct packet.  Instead the first sample exceeding
    ``FIRST_ARRIVAL_FRACTION`` of the envelope peak is located and the climb
    is followed to the first local crest, which belongs to the earliest
    arriving packet.
    """
    env = _analytic_envelope(np.asarray(signal, dtype=np.float64))
    peak = float(np.max(env))
    if peak <= 0.0:
        raise NoSignalError("cannot locate an envelope peak in a silent history")
    threshold = FIRST_ARRIVAL_FRACTION * peak
    n = len(env)
    idx = None
    # Endpoints are excluded: the analytic-signal envelope carries edge
    # artifacts there, and a crest cannot be confirmed one-sided anyway.
    for i in range(1, n - 1):
        if env[i] < threshold:
            continue
        if env[i] >= env[i - 1] and env[i] > env[i + 1]:
            idx = i
            break
    if idx is None:  # monotone rise to the last sample
        idx = n - 1
    t = float(idx)
    if 0 < idx < n - 1:
        a, b, c = env[idx - 1], env[idx], env[idx + 1]
        denom = a - 2.0 * b + c
        if denom != 0.0:
            t += float(0.5 * (a - c) / denom)
    return t * dt


def estimate_group_velocity(cube: DataCube, probes: ProbePair) -> float:
    """Packet speed from envelope-crest arrivals at two probes.

    Each probe history is reduced to the arrival time of its first envelope
    crest; the speed is the probe separation over the arrival-time
    difference (second minus first).

    Raises:
        NoSignalError: the cube or a probe history is numerically silent.
        DataError: the second probe's crest does not come later than the
            first's, the crest times are not numbers (a ``dt`` near the top
            of float range), or the speed underflows to 0 (a tiny ``dx``
            over a huge delay).
    """
    probes.first.validate(cube.n1, cube.n2)
    probes.second.validate(cube.n1, cube.n2)

    peak_all = cube.peak
    if peak_all == 0.0:
        raise NoSignalError("recorded field is identically zero")

    times = []
    for probe in (probes.first, probes.second):
        h = cube.history(probe)
        if float(np.max(np.abs(h))) <= SILENCE_FLOOR * peak_all:
            raise NoSignalError(
                f"probe at (l={probe.l}, m={probe.m}) recorded no signal"
            )
        times.append(first_envelope_peak_time(h, cube.dt))

    # the times are Python floats, so a delay or speed past float range is
    # inf or NaN with no warning; a NaN delay is refused like a negative one
    delta_t = times[1] - times[0]
    if not delta_t > 0.0:
        raise DataError(
            f"second probe's envelope crest ({times[1]:.3e} s) does not "
            f"trail the first's ({times[0]:.3e} s)"
        )
    speed = probes.separation(cube.dx) / delta_t
    if not speed > 0.0:
        raise DataError(
            f"probe speed underflows to 0: dx = {cube.dx!r} m over a "
            f"{delta_t:.3e} s delay"
        )
    return speed


def arrival_time(centroid_distance, group_velocity: float, excitation: ExcitationSpec):
    """Expected envelope-center arrival: transit time plus half the burst.

    t_c = d / c_g + N_c / (2 nu)

    ``centroid_distance`` is a distance or an array of them, and the result
    has its shape.
    """
    if group_velocity <= 0.0:
        raise ValueError("group velocity must be positive")
    if np.any(np.asarray(centroid_distance) < 0.0):
        raise ValueError("distance must be non-negative")
    return centroid_distance / group_velocity + excitation.burst_duration / 2.0


@dataclass(frozen=True)
class RegionalWindowSet:
    """Per-region time windows extracted from a cube.

    ``windows`` has shape (window_len, p1 * p2, active_count): column j
    holds the j-th active region in region order (a + regions_x * b), rows
    flattened x-fastest.  Inactive regions have no column.
    ``arrival_index`` holds each window's first stored sample index
    (recorded for inactive regions too, where it may lie outside the
    record).

    Raises:
        WindowingError: ``windows`` does not hold one window_len x p1 * p2
            block per active region.
    """

    partition: Partition
    window_len: int
    group_velocity: float
    arrival_index: np.ndarray = field(repr=False)
    active: np.ndarray = field(repr=False)
    windows: np.ndarray = field(repr=False)

    def __post_init__(self):
        expected = (self.window_len, self.partition.nodes_per_region,
                    self.active_count)
        if self.windows.shape != expected:
            raise WindowingError(
                f"windows have shape {self.windows.shape}, expected {expected}: "
                f"one column per active region"
            )
        for name in ("arrival_index", "active", "windows"):
            getattr(self, name).flags.writeable = False

    @property
    def active_count(self) -> int:
        return int(np.count_nonzero(self.active))

    def active_region_ids(self) -> list[tuple[int, int]]:
        """(a, b) of active regions in column order."""
        b, a = np.nonzero(self.active.T)
        return list(zip(a.tolist(), b.tolist()))

    def region_cubes(self, dx: float, dt: float) -> dict[tuple[int, int], DataCube]:
        """Each active region's window as a p1 x p2 cube, keyed (a, b) in column order.

        Window sample tau of region (a, b) is its node block at sample
        ``arrival_index[a, b] + tau``; ``dx`` and ``dt`` are the source
        cube's steps.
        """
        t, p1, p2 = self.window_len, self.partition.p1, self.partition.p2
        blocks = self.windows.reshape(t, p2, p1, self.active_count)
        return {region: DataCube(p1, p2, t, dx, dt, blocks[..., j])
                for j, region in enumerate(self.active_region_ids())}


def extract_windows(
    cube: DataCube,
    partition: Partition,
    group_velocity: float,
    excitation: ExcitationSpec,
    window_len: int = DEFAULT_WINDOW_LEN,
) -> RegionalWindowSet:
    """Cut one window per region, opening at its expected arrival.

    The window for region (a, b) starts at the stored sample nearest
    t_c = |centroid - source| / c_g + T_b / 2 (round to nearest) and runs
    ``window_len`` samples.  A region is active when that range lies fully
    inside the record and its windowed RMS exceeds ``SILENCE_FLOOR`` times
    the cube's peak amplitude; only active regions get a column.

    All regions are handled at once: every origin and centroid (the module
    docstring's layout) comes from one vectorized pass, the distances are
    timed by ``arrival_time``, and the starts are one array in column order
    (``np.rint`` rounds half to even, as ``round`` does).  The cube is read
    through one read-only strided view in which every region's node block
    is an indexable axis pair, so each window offset is one gather of the
    regions whose window fits the record; each of their RMS values is read
    from that stack and compared with ``cube.peak``, and silent columns, if
    any, are dropped.  A start that is not finite (a ``dx`` or ``dt`` near
    the ends of float range) overruns the record like one past 2**62.

    The cube header is the source of truth for ``dx`` and ``dt``: a
    measured cube's header is the only record of how it was sampled, and a
    scenario's grid block only drives ``simulate``.  A start is ``t_c /
    cube.dt`` samples, and the burst half-duration in ``t_c`` is in
    seconds, so a wrong header ``dt`` moves every window and raises
    nothing: on ``bench1_ci``, ``dt`` x 2 flags 16 regions instead of 13.  The ``.meta`` sidecar's ``cube.dt`` is the
    value to check a simulated cube's header against.

    When ``cube.peak`` lies outside [2**-400, 2**400], the windows are
    multiplied by the exact power of two that brings the peak into
    [0.5, 1), and the RMS check compares against that rescaled peak, so
    sums of squares stay in float range and every ratio, hence every
    decision, is that of a cube with a moderate peak.  For such cubes the
    windows, and what is read from them (``detect --dump-windows`` and the
    manifest's singular values), are in the rescaled units.

    Raises:
        ConfigError: partition grid does not match the cube.
        WindowingError: invalid window length, or no region ends up active.
        ValueError: a group velocity that is not positive.
    """
    partition.check_grid(cube)
    if window_len < 1:
        raise WindowingError(f"window length must be >= 1, got {window_len}")
    if window_len > cube.t_len:
        raise WindowingError(
            f"window length {window_len} exceeds the {cube.t_len}-sample record"
        )

    src = effective_source(excitation.source, cube.n1, cube.n2)
    sx, sy = src.position(cube.dx)
    r1, r2 = partition.regions_x, partition.regions_y
    p1, p2 = partition.p1, partition.p2

    # Region origins and centroids; rows are b, columns a, so ravel() is
    # column order j = a + r1 * b.  fmin caps a start past 2**62 samples or
    # one that is NaN, so the cast to int64 is defined and either overruns
    # any record.
    l0 = np.arange(r1) * (p1 - 1)
    m0 = np.arange(r2) * (p2 - 1)
    with np.errstate(over="ignore", invalid="ignore"):
        cx = (l0 + (p1 - 1) / 2.0) * cube.dx
        cy = (m0 + (p2 - 1) / 2.0) * cube.dx
        distance = np.hypot(cx[None, :] - sx, cy[:, None] - sy).ravel()
        t_c = arrival_time(distance, group_velocity, excitation)
        start = np.rint(np.fmin(t_c / cube.dt, 2.0**62)).astype(np.int64)
    fits = (start >= 0) & (start + window_len <= cube.t_len)

    # The cube as (t, b, local m, a, local l): neighbouring regions share
    # their boundary nodes, so region b starts p2 - 1 rows after region
    # b - 1 and region a starts p1 - 1 columns after region a - 1.  Region
    # (a, b) at sample t is view[t, b, :, a, :].
    st, sm, sl = cube.values.strides
    view = np.lib.stride_tricks.as_strided(
        cube.values,
        shape=(cube.t_len, r2, p2, r1, p1),
        strides=(st, (p2 - 1) * sm, sm, (p1 - 1) * sl, sl),
        writeable=False,
    )
    b, a = np.divmod(np.flatnonzero(fits), r1)
    first = start[fits]
    nodes = p1 * p2
    windows = np.empty((window_len, nodes, first.size))
    for tau in range(window_len):
        block = view[first + tau, b, :, a, :]  # (fitting regions, p2, p1)
        windows[tau] = block.reshape(first.size, nodes).T

    # the sums of squares of a peak outside [2**-400, 2**400], here and in
    # scoring, would leave float range
    peak = cube.peak
    if not 2.0**-400 <= peak <= 2.0**400:
        peak, exponent = math.frexp(peak)
        np.ldexp(windows, -exponent, out=windows)

    # per-region sum of squares, without a stack-sized temporary
    energy = np.einsum("tij,tij->j", windows, windows)
    loud = np.sqrt(energy / (window_len * nodes)) > SILENCE_FLOOR * peak
    if not loud.all():
        windows = np.compress(loud, windows, axis=2)
    active = fits.copy()
    active[fits] = loud

    if not active.any():
        raise WindowingError(
            "no region has a usable window inside the recorded interval"
        )
    return RegionalWindowSet(
        partition=partition,
        window_len=window_len,
        group_velocity=group_velocity,
        arrival_index=np.ascontiguousarray(start.reshape(r2, r1).T),
        active=np.ascontiguousarray(active.reshape(r2, r1).T),
        windows=windows,
    )
