"""Plate simulator: physics sanity, stability, and defect plumbing.

The oracles here are closed-form: the Kirchhoff stiffness and dispersion
formulas recomputed inline, exact scaling laws of the stability bound,
symmetry/causality/linearity facts the PDE guarantees, and Navier's sine
modes of the simply supported plate (Timoshenko & Woinowsky-Krieger,
*Theory of Plates and Shells*, §28), which the odd-image ghosts make exact
eigenvectors of the discrete operator.  The in-place operator is also held
bit for bit to the padded-copy formula it replaces, kept here as
``_padded_laplacian``.
"""

import math
import tracemalloc

import numpy as np
import pytest

from wavesaliency.cube import GridPoint
from wavesaliency.errors import DivergenceError, GeometryError
from wavesaliency.sim import (
    DefectSpec,
    ExcitationSpec,
    MaterialSpec,
    analytic_group_velocity,
    analytic_phase_velocity,
    build_material_map,
    burst_force,
    defect_cells,
    PlateOperator,
    leapfrog,
    simulate,
    stable_timestep,
    total_energy_series,
)

ALUMINUM = MaterialSpec(
    youngs_modulus=71e9,
    poisson_ratio=0.33,
    density=2700.0,
    thickness=0.005,
    side_length=0.25,
)

BURST = ExcitationSpec(
    carrier_frequency=5e5, cycle_count=5, amplitude=1.0, source=GridPoint(0, 0)
)


def test_bending_stiffness_formula():
    # independent route: plug the constants into the plate formula directly
    expected = 71e9 * 0.005**3 / (12.0 * (1.0 - 0.33**2))
    assert ALUMINUM.bending_stiffness == pytest.approx(expected, rel=1e-12)
    assert 820.0 < ALUMINUM.bending_stiffness < 840.0
    assert ALUMINUM.areal_density == pytest.approx(2700.0 * 0.005, rel=1e-12)


def test_material_validation():
    with pytest.raises(ValueError):
        MaterialSpec(-1.0, 0.33, 2700.0, 0.005, 0.25)
    with pytest.raises(ValueError):
        MaterialSpec(71e9, 1.2, 2700.0, 0.005, 0.25)


def test_burst_force_shape():
    t_b = BURST.burst_duration
    assert t_b == pytest.approx(1e-5, rel=1e-12)
    assert burst_force(-1e-9, BURST) == 0.0
    assert burst_force(t_b + 1e-9, BURST) == 0.0
    # midpoint: envelope = 1, carrier = sin(2 pi nu t_b/2) with nu*t_b = 5 cycles
    mid = burst_force(t_b / 2, BURST)
    assert mid == pytest.approx(np.sin(np.pi * 5), abs=1e-9)
    # quarter point, recomputed from the closed form
    t = t_b / 4
    expected = np.sin(np.pi * t / t_b) ** 2 * np.sin(2 * np.pi * 5e5 * t)
    assert burst_force(t, BURST) == pytest.approx(expected, rel=1e-12)
    arr = burst_force(np.linspace(0, t_b, 64), BURST)
    assert arr.shape == (64,)
    assert np.max(np.abs(arr)) <= 1.0 + 1e-12


def test_dispersion_formulas():
    w = 2 * np.pi * 5e5
    cp_direct = (w * w * ALUMINUM.bending_stiffness / ALUMINUM.areal_density) ** 0.25
    cp = analytic_phase_velocity(ALUMINUM, 5e5)
    assert cp == pytest.approx(cp_direct, rel=1e-12)
    # doubling relation is exact, not approximate
    assert analytic_group_velocity(ALUMINUM, 5e5) == 2.0 * cp
    # quadrupling the frequency doubles the speeds (omega^1/2 scaling)
    assert analytic_phase_velocity(ALUMINUM, 2e6) == pytest.approx(2 * cp, rel=1e-12)
    # golden values for the bench constants
    assert cp == pytest.approx(4963.1415576, rel=1e-9)
    assert analytic_group_velocity(ALUMINUM, 5e5) == pytest.approx(9926.2831153, rel=1e-9)


def test_stable_timestep_scaling():
    pristine = build_material_map(ALUMINUM, [], 33, 33)
    dt = stable_timestep(pristine, 1e-3, 0.9)
    assert stable_timestep(pristine, 0.5e-3, 0.9) == pytest.approx(dt / 4, rel=1e-12)
    assert stable_timestep(pristine, 1e-3, 0.45) == pytest.approx(dt / 2, rel=1e-12)
    # stiffening every cell by 100x (density fixed) shrinks dt by 10x
    stiff = MaterialSpec(71e11, 0.33, 2700.0, 0.005, 0.25)
    stiff_map = build_material_map(stiff, [], 33, 33)
    assert stable_timestep(stiff_map, 1e-3, 0.9) == pytest.approx(dt / 10, rel=1e-12)
    # the bound follows the stiffest cell: one stiff inclusion dominates
    defect = DefectSpec("point_inclusion", (0.5, 0.5), 100.0, 1.0)
    mixed = build_material_map(ALUMINUM, [defect], 33, 33)
    assert stable_timestep(mixed, 1e-3, 0.9) == pytest.approx(dt / 10, rel=1e-12)
    # second-order stencil tolerates a larger step than fourth-order
    dt2 = stable_timestep(pristine, 1e-3, 0.9, space_order=2)
    assert dt2 > dt


def test_defect_cells_point_and_line():
    point = DefectSpec("point_inclusion", (0.20, 0.42), 100.0, 100.0)
    cells = defect_cells(point, 257, 257)
    assert cells == {(51, 107)}  # int(0.2*256), int(0.42*256)
    line = DefectSpec("line_segment", (0.20, 0.50, 0.40, 0.50), 1e-4, 1e-4)
    lcells = defect_cells(line, 257, 257)
    ms = {m for _, m in lcells}
    assert ms == {128}  # one cell thick
    ls = sorted(l for l, _ in lcells)
    assert ls[0] == 51 and ls[-1] == 102  # 0.2L .. 0.4L
    assert ls == list(range(51, 103))  # contiguous, no gaps


def test_defect_validation():
    with pytest.raises(GeometryError):
        DefectSpec("point_inclusion", (1.2, 0.5), 100.0, 100.0)
    with pytest.raises(ValueError):
        DefectSpec("blob", (0.5, 0.5), 100.0, 100.0)
    with pytest.raises(ValueError):
        DefectSpec("point_inclusion", (0.5, 0.5), 0.0, 1.0)


def test_build_material_map_scales_one_cell():
    defect = DefectSpec("point_inclusion", (0.20, 0.42), 100.0, 50.0)
    mm = build_material_map(ALUMINUM, [defect], 257, 257)
    base_d = ALUMINUM.bending_stiffness
    altered = np.argwhere(mm.bending_stiffness != base_d)
    assert altered.tolist() == [[51, 107]]
    assert mm.bending_stiffness[51, 107] == pytest.approx(100 * base_d, rel=1e-12)
    assert mm.areal_density[51, 107] == pytest.approx(50 * 13.5, rel=1e-12)


def test_zero_amplitude_gives_zero_cube():
    quiet = ExcitationSpec(5e5, 5, 0.0, GridPoint(0, 0))
    cube = simulate(ALUMINUM, [], quiet, 33, 33, 200, 0.9)
    assert np.all(cube.values == 0.0)


def test_linearity_in_amplitude():
    exc1 = ExcitationSpec(5e5, 5, 1.0, GridPoint(0, 0))
    exc2 = ExcitationSpec(5e5, 5, 2.0, GridPoint(0, 0))
    c1 = simulate(ALUMINUM, [], exc1, 33, 33, 400, 0.9)
    c2 = simulate(ALUMINUM, [], exc2, 33, 33, 400, 0.9)
    scale = np.max(np.abs(c2.values))
    assert scale > 0
    assert np.max(np.abs(c2.values - 2.0 * c1.values)) <= 1e-12 * scale


def test_center_source_symmetry():
    exc = ExcitationSpec(5e5, 5, 1.0, GridPoint(16, 16))
    cube = simulate(ALUMINUM, [], exc, 33, 33, 400, 0.9)
    # x <-> y reflection swaps the last two axes of (t, m, l)
    swapped = np.swapaxes(cube.values, 1, 2)
    assert np.max(np.abs(cube.values - swapped)) <= 1e-9 * np.max(np.abs(cube.values))


def test_boundary_stays_pinned():
    cube = simulate(ALUMINUM, [], BURST, 33, 33, 400, 0.9)
    assert np.all(cube.values[:, 0, :] == 0.0)
    assert np.all(cube.values[:, -1, :] == 0.0)
    assert np.all(cube.values[:, :, 0] == 0.0)
    assert np.all(cube.values[:, :, -1] == 0.0)


def test_causality_front_cannot_outrun_group_speed():
    # "Exactly zero" is unattainable for an explicit stencil (its numerical
    # domain of dependence widens by two cells per step, faster than c_g on a
    # coarse grid), but those precursors decay super-exponentially ahead of
    # the front; 1e-6 of peak is far above them and far below any real arrival.
    n = 65
    dx = 0.25 / (n - 1)
    cube = simulate(ALUMINUM, [], BURST, n, n, 600, 0.9)
    cg = analytic_group_velocity(ALUMINUM, 5e5)
    src = (1, 1)  # corner source is driven at the nearest interior node
    peak = np.max(np.abs(cube.values))
    times = np.arange(cube.t_len) * cube.dt
    for l, m in ((40, 9), (30, 30), (9, 50)):
        d = np.hypot(l - src[0], m - src[1]) * dx
        quiet = times < 0.8 * d / cg
        h = cube.history(GridPoint(l, m))
        assert np.max(np.abs(h[quiet]), initial=0.0) <= 1e-6 * peak


def test_energy_drift_after_burst():
    # lossless scheme: after the forcing ends, energy drifts < 1% / 1000 steps
    n = 65
    steps = 1600
    cube = simulate(ALUMINUM, [], BURST, n, n, steps, 0.9)
    mm = build_material_map(ALUMINUM, [], n, n)
    energy = total_energy_series(cube, mm)  # interior samples 1..t_len-2
    t_idx = np.arange(1, cube.t_len - 1) * cube.dt
    after = t_idx > BURST.burst_duration * 1.1
    tail = energy[after]
    assert tail.size > 10
    drift = abs(tail[-1] - tail[0]) / tail[0]
    steps_spanned = np.count_nonzero(after)
    assert drift <= 0.01 * max(1.0, steps_spanned / 1000.0)


def test_divergence_detection_beyond_stability_limit():
    with pytest.raises(DivergenceError) as info:
        simulate(ALUMINUM, [], BURST, 33, 33, 4000, 1.05)
    # the step the padded-copy stepper reported for this run
    assert info.value.step == 51
    assert "diverged at step 51 " in str(info.value)


def test_nan_initial_state_diverges_at_step_one():
    n = 17
    op, dt = _operator(n, 4)
    seeded = np.zeros((n, n))
    seeded[5, 7] = np.nan
    for blow_up in (math.inf, 1.0, 0.0):
        with pytest.raises(DivergenceError) as info:
            leapfrog(op, np.zeros((n, n)), seeded, dt, 10, blow_up=blow_up)
        assert info.value.step == 1
        assert "(|w| reached nan)" in str(info.value)


def test_inclusion_scatters_from_its_own_cell():
    # differential-field oracle: (defected - pristine) is born at the
    # inclusion, so the first snapshot where it reaches 5% of its eventual
    # maximum must peak within a couple of cells of the inclusion
    n = 129
    exc = ExcitationSpec(2.5e5, 5, 1.0, GridPoint(0, 0))
    defect = DefectSpec("point_inclusion", (0.4, 0.3), 100.0, 100.0)
    steps = 500
    clean = simulate(ALUMINUM, [], exc, n, n, steps, 0.9, record_every=5)
    dirty = simulate(ALUMINUM, [defect], exc, n, n, steps, 0.9, record_every=5)
    diff = np.abs(dirty.values - clean.values)
    cell_l, cell_m = int(0.4 * (n - 1)), int(0.3 * (n - 1))
    snap_max = diff.reshape(diff.shape[0], -1).max(axis=1)
    born = int(np.argmax(snap_max > 0.05 * snap_max.max()))
    assert born > 0  # silent until the front reaches the inclusion
    m_star, l_star = np.unravel_index(np.argmax(diff[born]), diff[born].shape)
    assert abs(l_star - cell_l) <= 2 and abs(m_star - cell_m) <= 2


def test_record_every_subsamples_the_history():
    full = simulate(ALUMINUM, [], BURST, 33, 33, 300, 0.9)
    thin = simulate(ALUMINUM, [], BURST, 33, 33, 300, 0.9, record_every=5)
    assert thin.dt == pytest.approx(5 * full.dt, rel=1e-12)
    assert thin.t_len == (full.t_len - 1) // 5 + 1
    assert np.array_equal(thin.values, full.values[::5])


# ---------------------------------------------------------------------------
# The plate operator against the padded-copy formula and closed forms
# ---------------------------------------------------------------------------

def _padded_laplacian(f, dx, order):
    """Discrete Laplacian with odd-image ghosts, built on an np.pad copy."""
    if order == 2:
        p = np.pad(f, 1, mode="reflect", reflect_type="odd")
        return (
            p[:-2, 1:-1] + p[2:, 1:-1] + p[1:-1, :-2] + p[1:-1, 2:] - 4.0 * f
        ) / (dx * dx)
    p = np.pad(f, 2, mode="reflect", reflect_type="odd")
    c = p[2:-2, 2:-2]
    along_y = -p[:-4, 2:-2] + 16.0 * p[1:-3, 2:-2] + 16.0 * p[3:-1, 2:-2] - p[4:, 2:-2]
    along_x = -p[2:-2, :-4] + 16.0 * p[2:-2, 1:-3] + 16.0 * p[2:-2, 3:-1] - p[2:-2, 4:]
    return (along_y + along_x - 60.0 * c) / (12.0 * dx * dx)


def _operator(n, order, defects=()):
    dx = ALUMINUM.side_length / (n - 1)
    mm = build_material_map(ALUMINUM, list(defects), n, n)
    return PlateOperator(mm, dx, order), stable_timestep(mm, dx, 0.9, order)


def _zero_edged(rng, n):
    f = rng.normal(size=(n, n))
    f[0, :] = f[-1, :] = f[:, 0] = f[:, -1] = 0.0
    return f


def _sine_mode(n, p, q):
    """sin(p pi x / L) sin(q pi y / L) on the [m, l] nodes, edges exactly 0."""
    j = np.arange(n) / (n - 1)
    phi = np.outer(np.sin(q * math.pi * j), np.sin(p * math.pi * j))
    phi[0, :] = phi[-1, :] = phi[:, 0] = phi[:, -1] = 0.0
    return phi


def _stage_symbol(theta, order):
    """-dx^2 times the Laplacian stage's eigenvalue along one axis."""
    if order == 2:
        return 2.0 - 2.0 * math.cos(theta)
    return (30.0 - 32.0 * math.cos(theta) + 2.0 * math.cos(2.0 * theta)) / 12.0


@pytest.mark.parametrize("n", [3, 5, 8])
def test_ghost_fill_equals_np_pad(n, rng):
    op, _ = _operator(n, 4)
    field = rng.normal(size=(n, n))  # edges left nonzero on purpose
    buf = op.w_curr
    buf.full[...] = rng.normal(size=buf.full.shape)
    buf.nodes[...] = field
    buf.fill_ghosts()
    want = np.pad(field, 2, mode="reflect", reflect_type="odd")
    assert buf.full.tobytes() == want.tobytes()


@pytest.mark.parametrize("order", [2, 4])
@pytest.mark.parametrize("n", [5, 6, 9, 33])
def test_laplacian_bit_identical_to_padded_copy(order, n, rng):
    op, _ = _operator(n, order)
    for _ in range(3):
        f = _zero_edged(rng, n)
        assert op.laplacian(f).tobytes() == _padded_laplacian(f, op.dx, order).tobytes()


@pytest.mark.parametrize("order", [2, 4])
def test_step_bit_identical_to_padded_copy(order, rng):
    # one step from (w, w) is w + dt^2 accel: both stages, with the stiffness
    # and density of inclusions, and the pinned edges
    n = 33
    defects = [DefectSpec("point_inclusion", (0.3, 0.6), 100.0, 50.0),
               DefectSpec("line_segment", (0.5, 0.2, 0.8, 0.4), 1e-3, 1e-2)]
    op, dt = _operator(n, order, defects)
    w = _zero_edged(rng, n)
    got = leapfrog(op, w, w, dt, 1)[1]
    u = _padded_laplacian(w, op.dx, order)
    accel = -_padded_laplacian(op.d_node * u, op.dx, order) / op.rho_node
    want = 2.0 * w - w + (dt * dt) * accel
    want[0, :] = want[-1, :] = want[:, 0] = want[:, -1] = 0.0
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("order", [2, 4])
@pytest.mark.parametrize("p, q", [(1, 2), (3, 5)])
def test_sine_mode_follows_discrete_cosine(order, p, q):
    # Navier's mode is an eigenvector of lap(D lap)/rho_h with eigenvalue
    # lambda = (D/rho_h) s^2, s the stage symbol; started at
    # (cos(w_d dt) phi, phi), leapfrog keeps it at cos(w_d t) phi, where
    # cos(w_d dt) = 1 - dt^2 lambda / 2.
    n, steps = 33, 400
    op, dt = _operator(n, order)
    phi = _sine_mode(n, p, q)
    s = (_stage_symbol(p * math.pi / (n - 1), order)
         + _stage_symbol(q * math.pi / (n - 1), order)) / op.dx**2
    lam = ALUMINUM.bending_stiffness / ALUMINUM.areal_density * s * s
    cos_step = 1.0 - dt * dt * lam / 2.0
    record = leapfrog(op, cos_step * phi, phi, dt, steps)
    omega_dt = math.acos(cos_step)
    assert steps * omega_dt > math.pi  # at least half a period
    want = np.cos(omega_dt * np.arange(steps + 1))[:, None, None] * phi
    assert np.max(np.abs(record - want)) <= 1e-9 * np.max(np.abs(phi))


@pytest.mark.parametrize("order", [2, 4])
def test_observed_spatial_order(order):
    # Refinement study (Roache 2002, J. Fluids Eng. 124(1)): the Rayleigh
    # quotient of the discrete Laplacian on a fixed sine mode against the
    # continuum eigenvalue (pi/L)^2 (p^2 + q^2), halving dx each time.
    p, q = 2, 3
    exact = (math.pi / ALUMINUM.side_length) ** 2 * (p * p + q * q)
    errors = []
    for n in (17, 33, 65, 129):
        op, _ = _operator(n, order)
        phi = _sine_mode(n, p, q)
        k2 = -np.sum(phi * op.laplacian(phi)) / np.sum(phi * phi)
        errors.append(abs(k2 - exact) / exact)
    observed = [math.log2(a / b) for a, b in zip(errors, errors[1:])]
    assert observed == pytest.approx([order] * 3, abs=0.05)


def _reference_record(op, dt, steps, excitation, source):
    """The padded-copy leapfrog from rest: two np.pad Laplacians per step."""
    n, dx = op.n, op.dx
    w_prev, w_curr = np.zeros((n, n)), np.zeros((n, n))
    out = [w_curr]
    for step in range(1, steps + 1):
        u = _padded_laplacian(w_curr, dx, op.space_order)
        accel = -_padded_laplacian(op.d_node * u, dx, op.space_order) / op.rho_node
        f_now = burst_force((step - 1) * dt, excitation)
        if f_now != 0.0:
            accel[source.m, source.l] += f_now / (op.rho_node[source.m, source.l] * dx * dx)
        w_next = 2.0 * w_curr - w_prev + (dt * dt) * accel
        w_next[0, :] = w_next[-1, :] = w_next[:, 0] = w_next[:, -1] = 0.0
        w_prev, w_curr = w_curr, w_next
        out.append(w_curr)
    return np.array(out)


@pytest.mark.parametrize("order", [2, 4])
def test_simulate_matches_padded_copy_stepper(order):
    n, steps = 33, 300
    exc = ExcitationSpec(5e5, 5, 1.0, GridPoint(9, 21))
    defect = DefectSpec("point_inclusion", (0.6, 0.3), 100.0, 100.0)
    cube = simulate(ALUMINUM, [defect], exc, n, n, steps, 0.9, space_order=order)
    op, dt = _operator(n, order, [defect])
    assert cube.dt == dt
    want = _reference_record(op, dt, steps, exc, exc.source)
    assert cube.values.tobytes() == want.tobytes()
    assert np.max(np.abs(cube.values)) > 0.0
    assert np.all(cube.values[:, [0, -1], :] == 0.0)
    assert np.all(cube.values[:, :, [0, -1]] == 0.0)


def test_space_order_2_front_is_slower():
    # the 2nd-order stages underestimate the group speed (module docstring):
    # the same burst reaches a distant node later than at 4th order
    n = 65
    exc = ExcitationSpec(5e5, 5, 1.0, GridPoint(8, 8))
    probe = GridPoint(48, 40)
    arrivals = {}
    for order in (2, 4):
        cube = simulate(ALUMINUM, [], exc, n, n, 900, 0.9, space_order=order)
        h = np.abs(cube.history(probe))
        arrivals[order] = np.argmax(h > 0.05 * h.max()) * cube.dt
    assert arrivals[2] > arrivals[4] > 0.0


def test_leapfrog_allocates_nothing_per_step():
    n = 129
    op, dt = _operator(n, 4)
    rest = np.zeros((n, n))
    source = GridPoint(20, 30)
    peaks = []
    tracemalloc.start()
    try:
        for steps in (20, 400):
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            leapfrog(op, rest, rest, dt, steps, lambda t: burst_force(t, BURST),
                     source, record_every=steps)
            peaks.append(tracemalloc.get_traced_memory()[1] - before)
    finally:
        tracemalloc.stop()
    # beyond the two recorded states, less than an eighth of one field
    field_bytes = n * n * 8
    assert peaks[1] - peaks[0] < 4096
    assert peaks[1] < 2 * field_bytes + field_bytes // 8
