"""Partitioning, velocity estimation, and arrival-shifted window extraction.

The velocity oracle is a synthetic cube carrying a pulse translated at an
exactly known speed; the window-placement oracle is a ramp cube whose sample
values equal their time index, so window contents reveal their start index.
The envelope's oracle is ``scipy.signal.hilbert``, which the package itself
does not import.  ``extract_windows``, which gathers all regions at once
through a strided view of the cube, is checked bit for bit against
``_reference_windows``, a per-region loop that slices one window at a time.
The package computes region origins and centroids only inside
``extract_windows``; these tests write the layout out themselves
(``_origin``, ``_centroid``).
"""

import dataclasses
import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.signal

from wavesaliency.config import bundled_config_path, detect_scenario, load_scenario
from wavesaliency.cube import DataCube, GridPoint
from wavesaliency.errors import ConfigError, DataError, NoSignalError, WindowingError
from wavesaliency.pipeline import build_window_set, run_detection
from wavesaliency.sim import ExcitationSpec, analytic_group_velocity
from wavesaliency.windowing import (
    SILENCE_FLOOR,
    Partition,
    ProbePair,
    _analytic_envelope,
    arrival_time,
    effective_source,
    estimate_group_velocity,
    extract_windows,
    first_envelope_peak_time,
)

from conftest import region_ids

L = 0.25


def _origin(part, a, b):
    """Lowest (l, m) node of region (a, b)."""
    return a * (part.p1 - 1), b * (part.p2 - 1)


def _centroid(part, a, b, dx):
    """Physical (x, y) center of region (a, b), in the window pass's float ops."""
    l0, m0 = _origin(part, a, b)
    return (l0 + (part.p1 - 1) / 2.0) * dx, (m0 + (part.p2 - 1) / 2.0) * dx


def test_partition_region_sizes():
    assert Partition(257, 257, 8, 8).p1 == 33
    assert Partition(257, 257, 8, 8).p2 == 33
    assert Partition(257, 257, 16, 16).p1 == 17
    assert Partition(257, 257, 32, 32).p1 == 9
    part = Partition(257, 129, 8, 4)
    assert (part.p1, part.p2) == (33, 33)
    assert part.regions_x * part.regions_y == 32
    assert part.nodes_per_region == 33 * 33


def test_partition_rejects_non_divisible():
    with pytest.raises(ConfigError, match="^cannot split 256 nodes into 10 regions along x: "
                                          "255 intervals not divisible by 10$"):
        Partition(256, 256, 10, 10)  # 255 intervals, no tenth
    with pytest.raises(ConfigError, match="^region count along x must be >= 1$"):
        Partition(257, 257, 0, 8)
    with pytest.raises(ConfigError, match="^cannot split 33 nodes into 5 regions along x: "
                                          "32 intervals not divisible by 5$"):
        Partition(33, 33, 5, 5)  # 32 intervals, no fifth
    # 8 regions of 8 intervals is the finest legal split of 9 nodes
    assert Partition(9, 9, 8, 8).p1 == 2


def test_partition_tiles_grid_with_shared_edges():
    part = Partition(33, 25, 4, 3)
    cover = np.zeros((part.n2, part.n1), dtype=int)
    for a, b in region_ids(part):
        l0, m0 = _origin(part, a, b)
        cover[m0:m0 + part.p2, l0:l0 + part.p1] += 1
    assert cover.min() >= 1  # no gaps
    # interior region-boundary lines belong to exactly two regions,
    # their crossings to four, everything else to one
    assert cover.sum() == len(region_ids(part)) * part.nodes_per_region
    interior_l = [a * (part.p1 - 1) for a in range(1, part.regions_x)]
    interior_m = [b * (part.p2 - 1) for b in range(1, part.regions_y)]
    assert all(cover[12, l] == 2 for l in interior_l)
    assert all(cover[m, 12] == 2 for m in interior_m if True)
    assert cover[interior_m[0], interior_l[0]] == 4
    assert cover[1, 1] == 1


def test_region_centroid_examples():
    # the window pass times region (0, 0) from its centroid (L/8, L/8) and
    # region (3, 3) from (L - L/8, L - L/8); the corner source is clamped to
    # node (1, 1), and dt = 1e-7 s resolves a tenth of a node's transit
    cube = _ramp_cube(t_len=700, dt=1e-7)
    part = Partition(33, 33, 4, 4)
    exc = ExcitationSpec(5e5, 5, 1.0, GridPoint(0, 0))
    ws = extract_windows(cube, part, 5000.0, exc, window_len=11)
    for (a, b), c in (((0, 0), L / 8), ((3, 3), L - L / 8)):
        d = np.hypot(c - cube.dx, c - cube.dx)
        assert ws.arrival_index[a, b] == round(arrival_time(d, 5000.0, exc) / cube.dt)
    # diagonal mirror symmetry: mirroring the source transposes the starts;
    # from source node (5, 20), region (0, 3)'s centroid (4, 28) lies
    # (-1, 8) nodes away
    starts = [
        extract_windows(cube, part, 5000.0,
                        ExcitationSpec(5e5, 5, 1.0, GridPoint(l, m)), 11).arrival_index
        for l, m in ((5, 20), (20, 5))
    ]
    assert not np.array_equal(starts[0], starts[0].T)
    assert np.array_equal(starts[1], starts[0].T)
    d = np.hypot(-cube.dx, 8 * cube.dx)
    assert starts[0][0, 3] == round(arrival_time(d, 5000.0, exc) / cube.dt)


def test_region_of_cell_respects_block_edges():
    part = Partition(257, 257, 8, 8)
    assert part.region_of_cell(0, 0) == (0, 0)
    assert part.region_of_cell(31, 31) == (0, 0)
    assert part.region_of_cell(32, 31) == (1, 0)
    assert part.region_of_cell(255, 255) == (7, 7)
    with pytest.raises(IndexError):
        part.region_of_cell(256, 0)


def test_arrival_time_examples():
    exc = ExcitationSpec(5e5, 5, 1.0, GridPoint(0, 0))
    assert arrival_time(0.0, 1e4, exc) == pytest.approx(5e-6, rel=1e-12)
    assert arrival_time(0.1, 1e4, exc) == pytest.approx(1.5e-5, rel=1e-12)
    # first term is linear in distance
    gap = arrival_time(0.2, 1e4, exc) - arrival_time(0.1, 1e4, exc)
    assert gap == pytest.approx(0.1 / 1e4, rel=1e-12)
    with pytest.raises(ValueError):
        arrival_time(0.1, 0.0, exc)
    with pytest.raises(ValueError):
        arrival_time(-0.1, 1e4, exc)


def test_probe_pair_validation():
    with pytest.raises(ValueError):
        ProbePair(GridPoint(3, 4), GridPoint(3, 4))
    pair = ProbePair(GridPoint(0, 0), GridPoint(3, 4))
    assert pair.separation(1e-3) == pytest.approx(5e-3, rel=1e-12)


def test_effective_source_clamps_to_interior():
    assert effective_source(GridPoint(0, 0), 33, 33) == GridPoint(1, 1)
    assert effective_source(GridPoint(32, 5), 33, 33) == GridPoint(31, 5)
    assert effective_source(GridPoint(10, 12), 33, 33) == GridPoint(10, 12)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 664, 665, 1701])
def test_envelope_matches_scipy_hilbert(n, rng):
    x = rng.standard_normal(n)
    expected = np.abs(scipy.signal.hilbert(x))
    got = _analytic_envelope(x)
    assert got.shape == (n,)
    assert np.max(np.abs(got - expected)) <= 1e-14 * np.max(expected)


def test_first_envelope_peak_refinement():
    dt = 1e-7
    t = np.arange(600) * dt
    t0 = 237.3 * dt
    sig = np.exp(-((t - t0) ** 2) / (2 * (30 * dt) ** 2)) * np.cos(
        2 * np.pi * 3e5 * (t - t0)
    )
    assert first_envelope_peak_time(sig, dt) == pytest.approx(t0, abs=dt)


def test_first_envelope_peak_skips_weak_precursor():
    dt = 1e-7
    t = np.arange(800) * dt
    main_t = 500 * dt
    weak_t = 150 * dt

    def packet(center, amp):
        return amp * np.exp(-((t - center) ** 2) / (2 * (25 * dt) ** 2)) * np.cos(
            2 * np.pi * 2e5 * (t - center)
        )

    sig = packet(weak_t, 0.1) + packet(main_t, 1.0)
    # the 10% precursor is below the 20% qualification floor
    assert first_envelope_peak_time(sig, dt) == pytest.approx(main_t, abs=2 * dt)
    # raise it above the floor and it becomes the answer
    sig2 = packet(weak_t, 0.45) + packet(main_t, 1.0)
    assert first_envelope_peak_time(sig2, dt) == pytest.approx(weak_t, abs=2 * dt)


def _translating_pulse_cube(speed, n1=200, n2=5, t_len=400, dx=1e-3, dt=1e-7):
    """Pulse moving in +x at ``speed``; same signal in every row."""
    x = np.arange(n1) * dx
    t = np.arange(t_len) * dt
    x0, sigma, freq = 0.03, 0.01, 1e5
    phase = t[:, None] - (x[None, :] - x0) / speed
    envelope = np.exp(-((x[None, :] - x0 - speed * t[:, None]) ** 2) / (2 * sigma**2))
    sheet = envelope * np.cos(2 * np.pi * freq * phase)  # (t, l)
    values = np.repeat(sheet[:, None, :], n2, axis=1)
    return DataCube(n1, n2, t_len, dx, dt, values)


def test_velocity_estimate_against_translating_pulse():
    cube = _translating_pulse_cube(5000.0)
    probes = ProbePair(GridPoint(50, 2), GridPoint(150, 2))
    est = estimate_group_velocity(cube, probes)
    assert est == pytest.approx(5000.0, rel=0.02)
    # insensitive to which row the probes sit on
    est_row0 = estimate_group_velocity(
        cube, ProbePair(GridPoint(50, 0), GridPoint(150, 4))
    )
    assert est_row0 == pytest.approx(est, rel=0.03)
    assert isinstance(est, float) and not isinstance(est, np.floating)


def test_velocity_estimate_errors():
    cube = _translating_pulse_cube(5000.0)
    with pytest.raises(DataError, match=r"^second probe's envelope crest \(4\.021e-06 s\) does "
                                        r"not trail the first's \(2\.400e-05 s\)$"):
        # reversed order: second crest leads instead of trailing
        estimate_group_velocity(cube, ProbePair(GridPoint(150, 2), GridPoint(50, 2)))
    silent = DataCube(8, 8, 50, 1e-3, 1e-7, np.zeros((50, 8, 8)))
    with pytest.raises(NoSignalError):
        estimate_group_velocity(silent, ProbePair(GridPoint(1, 1), GridPoint(5, 5)))


def _ramp_cube(n=33, t_len=120, dx=L / 32, dt=1e-6):
    """Every node's value at stored sample t equals t; offset 1 keeps RMS > 0."""
    vals = np.broadcast_to(
        np.arange(1, t_len + 1, dtype=float)[:, None, None], (t_len, n, n)
    ).copy()
    return DataCube(n, n, t_len, dx, dt, vals)


def test_window_starts_match_arrival_times():
    cube = _ramp_cube()
    part = Partition(33, 33, 4, 4)
    exc = ExcitationSpec(5e5, 5, 1.0, GridPoint(0, 0))
    cg = 5000.0
    ws = extract_windows(cube, part, cg, exc, window_len=11)
    src = effective_source(exc.source, 33, 33)
    sx, sy = src.l * cube.dx, src.m * cube.dx
    assert ws.active.all()
    for a, b in region_ids(part):
        cx, cy = _centroid(part, a, b, cube.dx)
        start = int(round(arrival_time(np.hypot(cx - sx, cy - sy), cg, exc) / cube.dt))
        assert ws.arrival_index[a, b] == start
        col = ws.windows[:, :, ws.active_region_ids().index((a, b))]
        # ramp values betray the samples the window was cut from
        assert np.array_equal(col[:, 0], np.arange(start + 1, start + 12, dtype=float))
        assert (col == col[:, :1]).all()  # spatially uniform input


def test_window_start_at_source_region():
    # source placed exactly on region (0,0)'s centroid node: distance 0
    cube = _ramp_cube()
    part = Partition(33, 33, 4, 4)
    exc = ExcitationSpec(5e5, 5, 1.0, GridPoint(4, 4))
    ws = extract_windows(cube, part, 5000.0, exc, window_len=11)
    assert ws.arrival_index[0, 0] == round(exc.burst_duration / 2.0 / cube.dt)


def test_far_regions_deactivate_when_record_ends():
    # 30 samples: near regions fit an 11-sample window, far corner does not
    cube = _ramp_cube(t_len=30)
    part = Partition(33, 33, 4, 4)
    exc = ExcitationSpec(5e5, 5, 1.0, GridPoint(0, 0))
    ws = extract_windows(cube, part, 5000.0, exc, window_len=11)
    assert ws.active[0, 0]
    assert not ws.active[3, 3]
    # arrival indices are recorded even for inactive regions
    assert ws.arrival_index[3, 3] + 11 > cube.t_len
    # an inactive region has no column: column j is the j-th active region
    ids = ws.active_region_ids()
    assert (3, 3) not in ids
    assert ws.windows.shape == (11, 81, len(ids)) and len(ids) < 16
    for j, (a, b) in enumerate(ids):
        start = ws.arrival_index[a, b]
        assert np.array_equal(ws.windows[:, 0, j],
                              np.arange(start + 1, start + 12, dtype=float))


def test_equidistant_regions_share_arrival_index():
    cube = _ramp_cube()
    part = Partition(33, 33, 4, 4)
    exc = ExcitationSpec(5e5, 5, 1.0, GridPoint(0, 0))
    ws = extract_windows(cube, part, 5000.0, exc, window_len=11)
    # clamped corner source sits on the grid diagonal: (a,b) vs (b,a) tie
    for a, b in region_ids(part):
        assert ws.arrival_index[a, b] == ws.arrival_index[b, a]


def test_corner_source_starts_are_mirror_symmetric(ci_pristine):
    # a corner source on a square plate of square regions: (a, b) and
    # (b, a) sit at one distance from it, and region (0, 0) opens at the
    # sample of its closed-form arrival, timed from the clamped node (1, 1)
    scenario, cube = ci_pristine
    part = scenario.partition()
    assert scenario.excitation.source == GridPoint(0, 0)
    assert (part.n1, part.regions_x) == (part.n2, part.regions_y)
    ws = build_window_set(cube, part, scenario.detection_config())
    assert 0 < ws.active_count < part.regions_x * part.regions_y
    for a, b in ws.active_region_ids():
        assert ws.arrival_index[a, b] == ws.arrival_index[b, a], (a, b)
    d = np.sqrt(2.0) * ((part.p1 - 1) / 2.0 - 1) * cube.dx
    t = d / ws.group_velocity + scenario.excitation.burst_duration / 2.0
    assert ws.arrival_index[0, 0] == round(t / cube.dt)


def test_arrivals_monotone_in_distance():
    cube = _ramp_cube()
    part = Partition(33, 33, 4, 4)
    exc = ExcitationSpec(5e5, 5, 1.0, GridPoint(0, 0))
    ws = extract_windows(cube, part, 5000.0, exc, window_len=11)
    arr = ws.arrival_index
    assert (np.diff(arr, axis=0) >= 0).all()
    assert (np.diff(arr, axis=1) >= 0).all()


def test_silent_region_marked_inactive():
    vals = np.ones((120, 33, 33))
    part = Partition(33, 33, 4, 4)
    l0, m0 = _origin(part, 2, 1)
    vals[:, m0:m0 + part.p2, l0:l0 + part.p1] = 0.0
    cube = DataCube(33, 33, 120, L / 32, 1e-6, vals)
    exc = ExcitationSpec(5e5, 5, 1.0, GridPoint(0, 0))
    ws = extract_windows(cube, part, 5000.0, exc, window_len=11)
    assert not ws.active[2, 1]
    # neighbors only lost a shared edge; they stay active
    assert ws.active[1, 1] and ws.active[3, 1] and ws.active[2, 0]
    assert (2, 1) not in ws.active_region_ids()
    assert ws.active_count == 15


def test_absurdly_slow_wave_overruns_every_region():
    # arrivals past the int64 range are overruns, not an invalid cast;
    # at the second speed they overflow to infinity
    cube = _ramp_cube()
    part = Partition(33, 33, 4, 4)
    exc = ExcitationSpec(5e5, 5, 1.0, GridPoint(0, 0))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for speed in (1e-200, 1e-320):
            with pytest.raises(WindowingError, match="no region has a usable window"):
                extract_windows(cube, part, speed, exc, window_len=11)


def test_all_zero_cube_has_no_active_regions():
    cube = DataCube(33, 33, 60, L / 32, 1e-6, np.zeros((60, 33, 33)))
    part = Partition(33, 33, 4, 4)
    exc = ExcitationSpec(5e5, 5, 1.0, GridPoint(0, 0))
    with pytest.raises(WindowingError):
        extract_windows(cube, part, 5000.0, exc, window_len=11)


def test_window_length_validation():
    cube = _ramp_cube(t_len=8)
    part = Partition(33, 33, 4, 4)
    exc = ExcitationSpec(5e5, 5, 1.0, GridPoint(0, 0))
    with pytest.raises(WindowingError):
        extract_windows(cube, part, 5000.0, exc, window_len=0)
    with pytest.raises(WindowingError):
        extract_windows(cube, part, 5000.0, exc, window_len=9)
    with pytest.raises(ConfigError, match="^partition is for 33 x 33 nodes, cube has 17 x 17$"):
        extract_windows(_ramp_cube(n=17), part, 5000.0, exc, window_len=3)


def test_cube_of_another_grid_fails_before_any_probe_is_read(ci_pristine):
    # the 257-node pristine plate's probes lie outside the 129-node cube;
    # the grid check comes first, in the window set and in a detection
    _, cube = ci_pristine
    scenario = load_scenario(bundled_config_path("pristine"))
    part, config = scenario.partition(), scenario.detection_config()
    assert isinstance(config.velocity, ProbePair)
    message = "^partition is for 257 x 257 nodes, cube has 129 x 129$"
    for run in (build_window_set, run_detection):
        with pytest.raises(ConfigError, match=message):
            run(cube, part, config)


def test_extraction_is_deterministic():
    cube = _ramp_cube()
    part = Partition(33, 33, 4, 4)
    exc = ExcitationSpec(5e5, 5, 1.0, GridPoint(0, 0))
    a = extract_windows(cube, part, 5000.0, exc, window_len=11)
    b = extract_windows(cube, part, 5000.0, exc, window_len=11)
    assert np.array_equal(a.windows, b.windows)
    assert np.array_equal(a.arrival_index, b.arrival_index)
    assert np.array_equal(a.active, b.active)


@pytest.mark.parametrize("power", [600, -600])
def test_detection_is_amplitude_scale_invariant_over_the_float_range(ci_bench1, power):
    # at a peak of 2**569 or 2**-631 the sums of squares leave float range;
    # the windows are brought to a peak in [0.5, 1) by an exact power of
    # two, so the map is the unscaled cube's, with no warning on the way
    scenario, cube = ci_bench1
    scaled = dataclasses.replace(cube, values=np.ldexp(cube.values, power))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = detect_scenario(scenario, scaled)
    reference = detect_scenario(scenario, cube)
    assert len(reference.flagged) == 13
    assert result.flagged == reference.flagged
    assert np.array_equal(result.saliency.fractions, reference.saliency.fractions,
                          equal_nan=True)


def test_windows_capture_the_wavefront(ci_pristine):
    # shifting is the point: the region's loudest moment must fall inside
    # its window for at least 90% of active regions
    scenario, cube = ci_pristine
    part = scenario.partition()
    cg = analytic_group_velocity(
        scenario.material, scenario.excitation.carrier_frequency
    )
    ws = extract_windows(cube, part, cg, scenario.excitation,
                         scenario.detection.window_len)
    hits = 0
    active_ids = ws.active_region_ids()
    for a, b in active_ids:
        l0, m0 = _origin(part, a, b)
        block = cube.values[:, m0:m0 + part.p2, l0:l0 + part.p1]
        rms = np.sqrt(np.mean(block.reshape(cube.t_len, -1) ** 2, axis=1))
        loudest = int(np.argmax(rms))
        start = int(ws.arrival_index[a, b])
        if start <= loudest < start + ws.window_len:
            hits += 1
    assert len(active_ids) > 0
    assert hits / len(active_ids) >= 0.9


def _reference_windows(cube, partition, group_velocity, excitation, window_len):
    """Per-region window cutting, one region at a time, by plain slicing.

    The loop ``extract_windows`` ran before it gathered every region at once;
    it returns (windows, arrival_index, active) in the same layout, one
    column per active region in region order.
    """
    src = effective_source(excitation.source, cube.n1, cube.n2)
    sx, sy = src.position(cube.dx)
    r1, r2 = partition.regions_x, partition.regions_y
    p1, p2 = partition.p1, partition.p2

    arrival = np.zeros((r1, r2), dtype=np.int64)
    active = np.zeros((r1, r2), dtype=bool)
    columns = []
    peak_all = float(np.max(np.abs(cube.values)))

    for b in range(r2):
        for a in range(r1):
            cx, cy = _centroid(partition, a, b, cube.dx)
            t_c = arrival_time(
                float(np.hypot(cx - sx, cy - sy)), group_velocity, excitation
            )
            start = int(round(t_c / cube.dt))
            arrival[a, b] = start
            if start < 0 or start + window_len > cube.t_len:
                continue
            l0, m0 = _origin(partition, a, b)
            block = cube.values[start:start + window_len,
                                m0:m0 + p2, l0:l0 + p1]
            flat = block.reshape(window_len, p1 * p2)
            rms = float(np.sqrt(np.mean(flat * flat)))
            if rms <= SILENCE_FLOOR * peak_all:
                continue
            active[a, b] = True
            columns.append(flat)
    windows = np.zeros((window_len, p1 * p2, len(columns)))
    for j, flat in enumerate(columns):
        windows[:, :, j] = flat
    return windows, arrival, active


def _assert_matches_reference(cube, partition, group_velocity, excitation,
                              window_len):
    ws = extract_windows(cube, partition, group_velocity, excitation, window_len)
    windows, arrival, active = _reference_windows(
        cube, partition, group_velocity, excitation, window_len
    )
    assert ws.arrival_index.dtype == arrival.dtype
    assert ws.arrival_index.shape == arrival.shape
    assert np.array_equal(ws.arrival_index, arrival)
    assert ws.active.dtype == active.dtype
    assert np.array_equal(ws.active, active)
    assert ws.windows.dtype == windows.dtype
    assert ws.windows.shape == windows.shape
    # bit for bit, signed zeros included
    assert ws.windows.tobytes() == windows.tobytes()
    assert ws.windows.flags.c_contiguous and not ws.windows.flags.writeable
    return ws


@pytest.mark.parametrize(
    "name", ["ci_pristine", "ci_bench1", "bench1", "bench2", "pristine"]
)
def test_gather_matches_reference_on_bundled_plates(name, request):
    scenario, cube = request.getfixturevalue(name)
    ws = build_window_set(cube, scenario.partition(), scenario.detection_config())
    _assert_matches_reference(cube, scenario.partition(), ws.group_velocity,
                              scenario.excitation, scenario.detection.window_len)


def _noise_cube(rng, n1=33, n2=33, t_len=60, dx=L / 32, dt=1e-6):
    return DataCube(n1, n2, t_len, dx, dt, rng.standard_normal((t_len, n2, n1)))


def test_gather_matches_reference_when_far_regions_overrun(rng):
    # a slow wave: the far regions' windows run past the 60-sample record
    cube = _noise_cube(rng)
    part = Partition(33, 33, 4, 4)
    exc = ExcitationSpec(5e5, 5, 1.0, GridPoint(0, 0))
    ws = _assert_matches_reference(cube, part, 5000.0, exc, 11)
    assert ws.active[0, 0] and not ws.active[3, 3]
    assert ws.arrival_index[3, 3] + 11 > cube.t_len


def test_gather_matches_reference_with_a_silent_quadrant(rng):
    vals = rng.standard_normal((60, 33, 33))
    vals[:, 16:, :17] = 0.0  # regions (0, 2), (1, 2), (0, 3), (1, 3)
    cube = DataCube(33, 33, 60, L / 32, 1e-6, vals)
    part = Partition(33, 33, 4, 4)
    exc = ExcitationSpec(5e5, 5, 1.0, GridPoint(16, 16))
    ws = _assert_matches_reference(cube, part, 20000.0, exc, 11)
    assert not ws.active[0, 3] and not ws.active[1, 2]
    assert ws.active_count == 12


def test_gather_matches_reference_when_the_window_is_the_record(rng):
    # an 11-sample record holds only windows that open at sample 0; region
    # (0, 0), centred on the source, arrives on a rounding tie (0.5 -> 0)
    # and every farther region rounds up and overruns
    exc = ExcitationSpec(5e5, 5, 1.0, GridPoint(4, 4))
    part = Partition(33, 33, 4, 4)
    tie = _noise_cube(rng, t_len=11, dt=exc.burst_duration)
    ws = _assert_matches_reference(tie, part, 5000.0, exc, 11)
    assert ws.active_region_ids() == [(0, 0)]
    assert ws.arrival_index[0, 0] == 0 and ws.arrival_index[1, 0] > 0
    coarse = _noise_cube(rng, t_len=11, dt=1e-3)
    ws = _assert_matches_reference(coarse, part, 5000.0, exc, 11)
    assert ws.active.all() and not ws.arrival_index.any()


def test_gather_matches_reference_on_an_oblong_partition(rng):
    cube = _noise_cube(rng, n1=33, n2=25, t_len=80)
    part = Partition(33, 25, 4, 2)
    exc = ExcitationSpec(5e5, 5, 1.0, GridPoint(30, 2))
    ws = _assert_matches_reference(cube, part, 5000.0, exc, 11)
    assert ws.windows.shape == (11, 9 * 13, 8)
    assert ws.active.shape == (4, 2)


def test_gather_matches_reference_with_one_region_across(rng):
    # regions_x = 1 on a 17 x 41 grid (17 x 9-node regions): region 2 is
    # silent and region 4 overruns the record, so the gathered stack loses
    # a column between two kept ones
    vals = rng.standard_normal((60, 41, 17))
    vals[:, 16:25, :] = 0.0
    cube = DataCube(17, 41, 60, L / 32, 1e-6, vals)
    part = Partition(17, 41, 1, 5)
    exc = ExcitationSpec(5e5, 5, 1.0, GridPoint(8, 4))
    ws = _assert_matches_reference(cube, part, 5000.0, exc, 11)
    assert ws.active_region_ids() == [(0, 0), (0, 1), (0, 3)]
    assert ws.arrival_index[0, 4] + 11 > cube.t_len
    assert ws.windows.shape == (11, 17 * 9, 3)


def test_window_set_holds_one_column_per_active_region(rng):
    cube = _noise_cube(rng)
    part = Partition(33, 33, 4, 4)
    exc = ExcitationSpec(5e5, 5, 1.0, GridPoint(0, 0))
    ws = extract_windows(cube, part, 5000.0, exc, 11)
    assert ws.active_count < part.regions_x * part.regions_y
    for columns in (part.regions_x * part.regions_y, ws.active_count - 1):
        with pytest.raises(WindowingError, match="one column per active region"):
            dataclasses.replace(ws, windows=np.zeros((11, 81, columns)))


def test_window_set_allocates_a_fraction_of_the_cube(ci_bench1):
    # the windows, their gather index and the RMS pass, but no temporary
    # the size of the cube: the peak |w| comes with the cube
    scenario, cube = ci_bench1
    part, config = scenario.partition(), scenario.detection_config()
    build_window_set(cube, part, config)  # warm any one-off allocations
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        build_window_set(cube, part, config)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak < 0.5 * cube.values.nbytes
