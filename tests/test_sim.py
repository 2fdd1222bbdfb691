"""Plate simulator: physics sanity, stability, and defect plumbing.

The oracles here are closed-form: the Kirchhoff stiffness and dispersion
formulas recomputed inline, exact scaling laws of the stability bound,
symmetry/causality/linearity facts the PDE guarantees, and Navier's sine
modes of the simply supported plate (Timoshenko & Woinowsky-Krieger,
*Theory of Plates and Shells*, §28), which the odd-image ghosts make exact
eigenvectors of the discrete operator.  The in-place operator is also held
bit for bit to the same formula on an np.pad copy (``_padded_stencil_sum``),
and to within 1e-13 of the peak to the association that divides each stage
by its scale (``_divided_laplacian``).  Every reference takes its nodal D
and rho_h from the test's own cell-to-node loop (``_nodal``), never from
the operator.  The staggered energy checks the stepper to round-off
(Hairer, Lubich & Wanner, *Geometric Numerical Integration*, 2nd ed. 2006).
On a plate with inclusions, every step of the history is held to the
recurrence with the Laplacian applied in the sine basis; on the pristine
plate, the whole forced history is held to the discrete Duhamel sum over
those modes, which checks the stepper, its ghosts, the force gain, the
source clamp, the burst timing and the record cadence at once.  The same
plane-wave dispersion gives the scheme's own group velocity along the probe
ray, which the probe estimate of the CI plates must trail by a measured
margin.
"""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from wavesaliency.config import (
    GridSettings,
    bundled_config_path,
    load_scenario,
    simulate_scenario,
)
from wavesaliency.cube import DataCube, GridPoint
from wavesaliency.errors import ConfigError, DataError, DivergenceError, NoSignalError
from wavesaliency.sim import (
    DefectSpec,
    ExcitationSpec,
    MaterialSpec,
    analytic_group_velocity,
    analytic_phase_velocity,
    build_material_map,
    burst_force,
    defect_cells,
    effective_source,
    PaddedField,
    PlateOperator,
    leapfrog,
    simulate,
    stable_timestep,
)
from wavesaliency.windowing import Partition, estimate_group_velocity, first_envelope_peak_time

ALUMINUM = MaterialSpec(
    youngs_modulus=71e9,
    poisson_ratio=0.33,
    density=2700.0,
    thickness=0.005,
    side_length=0.25,
)

BUNDLED = ("bench1", "bench2", "pristine", "bench1_ci", "pristine_ci")

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


@pytest.mark.parametrize("name", BUNDLED)
def test_stable_timestep_is_the_closed_form(name):
    # dt = safety (2 / s) dx^2 sqrt(min rho_h / D), s the peak stage symbol
    s = load_scenario(bundled_config_path(name))
    g = s.grid
    dx = s.material.side_length / (g.n1 - 1)
    mmap = build_material_map(s.material, list(s.defects), g.n1, g.n2)
    root = math.sqrt(float(np.min(mmap.areal_density / mmap.bending_stiffness)))
    for order, peak in ((2, 8.0), (4, 32.0 / 3.0)):
        expected = g.safety * (2.0 / peak) * dx * dx * root
        assert stable_timestep(mmap, dx, g.safety, order) == expected


def test_stencil_orders_are_two_and_four():
    mmap = build_material_map(ALUMINUM, [], 9, 9)
    for order in (2, 4):
        GridSettings(9, 9, 10, space_order=order)
        stable_timestep(mmap, 1e-3, 0.9, order)
        PlateOperator(mmap, 1e-3, 1e-7, order)
    for build in (lambda: GridSettings(9, 9, 10, space_order=3),
                  lambda: stable_timestep(mmap, 1e-3, 0.9, 3),
                  lambda: PlateOperator(mmap, 1e-3, 1e-7, 3)):
        with pytest.raises(ValueError, match="space_order must be 2 or 4, got 3"):
            build()


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
    with pytest.raises(ValueError, match=r"^defect geometry \(1\.2, 0\.5\) outside the unit square$"):
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
    # every operation of a step is linear, and doubling is exact in binary
    # floating point, so twice the force gives exactly twice the cube
    defect = DefectSpec("point_inclusion", (0.6, 0.3), 100.0, 100.0)
    for order in (2, 4):
        exc1 = ExcitationSpec(5e5, 5, 1.0, GridPoint(9, 21))
        exc2 = ExcitationSpec(5e5, 5, 2.0, GridPoint(9, 21))
        c1 = simulate(ALUMINUM, [defect], exc1, 33, 33, 400, 0.9, space_order=order)
        c2 = simulate(ALUMINUM, [defect], exc2, 33, 33, 400, 0.9, space_order=order)
        assert np.max(np.abs(c2.values)) > 0
        assert np.array_equal(c2.values, 2.0 * c1.values)


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


def _nodal(material_map):
    """Nodal D and rho_h in [m, l] order, averaged from the cells here.

    Each node averages its 1, 2 or 4 adjacent cells: harmonically for D, so
    a soft cell limits the coupling through its nodes, and arithmetically
    for rho_h.  A node adds its cells in the operator's order, (m, l),
    (m, l - 1), (m - 1, l), (m - 1, l - 1), so the means are bit-identical
    to the operator's.
    """
    out = []
    for cells, harmonic in ((material_map.bending_stiffness.T, True),
                            (material_map.areal_density.T, False)):
        cm, cl = cells.shape
        nodes = np.empty((cm + 1, cl + 1))
        for m in range(cm + 1):
            for l in range(cl + 1):
                total, count = 0.0, 0
                for a, b in ((m, l), (m, l - 1), (m - 1, l), (m - 1, l - 1)):
                    if 0 <= a < cm and 0 <= b < cl:
                        total += 1.0 / cells[a, b] if harmonic else cells[a, b]
                        count += 1
                mean = total / count
                nodes[m, l] = 1.0 / mean if harmonic else mean
        out.append(nodes)
    return tuple(out)


def _staggered_energy(cube, material_map, order):
    """Staggered energy E^{n+1/2} between each pair of stored samples.

    E^{n+1/2} = 1/2 sum rho_h ((w^{n+1} - w^n) / dt)^2 dx^2
              + 1/2 sum (L w^{n+1}) D (L w^n) dx^2,

    with L the Laplacian under pinned odd-image ghosts, which is symmetric
    (the ghosts change only its diagonal).  Leapfrog therefore keeps E
    constant to round-off while no force acts, and while a force f acts at
    node s, E^{n+1/2} - E^{n-1/2} = f(t_n) (w_s^{n+1} - w_s^{n-1}) / 2
    (Hairer, Lubich & Wanner, *Geometric Numerical Integration*, 2006).
    Both hold only for runs recorded at every integrator step.  Returns
    ``t_len - 1`` values, E^{1/2} first.
    """
    d, rho = _nodal(material_map)
    dx2 = cube.dx * cube.dx
    out = np.empty(cube.t_len - 1)
    lap_next = _padded_laplacian(cube.values[0], cube.dx, order)
    for t in range(cube.t_len - 1):
        lap, lap_next = lap_next, _padded_laplacian(cube.values[t + 1], cube.dx, order)
        v = (cube.values[t + 1] - cube.values[t]) / cube.dt
        kinetic = 0.5 * float(np.sum(rho * v * v)) * dx2
        strain = 0.5 * float(np.sum(lap_next * d * lap)) * dx2
        out[t] = kinetic + strain
    return out


def test_energy_drift_after_burst():
    # lossless scheme: after the forcing ends, energy drifts < 1% / 1000 steps
    n = 65
    steps = 1600
    cube = simulate(ALUMINUM, [], BURST, n, n, steps, 0.9)
    mm = build_material_map(ALUMINUM, [], n, n)
    energy = _staggered_energy(cube, mm, 4)  # E at half steps 1/2..t_len-3/2
    t_idx = (np.arange(cube.t_len - 1) + 0.5) * cube.dt
    after = t_idx > BURST.burst_duration * 1.1
    tail = energy[after]
    assert tail.size > 10
    drift = abs(tail[-1] - tail[0]) / tail[0]
    steps_spanned = np.count_nonzero(after)
    assert drift <= 0.01 * max(1.0, steps_spanned / 1000.0)


def _staggered_run(order):
    """``bench1_ci`` (three inclusions) over 400 steps, every step recorded."""
    s = load_scenario(bundled_config_path("bench1_ci"))
    g = s.grid
    cube = simulate(s.material, list(s.defects), s.excitation, g.n1, g.n2, 400,
                    g.safety, space_order=order)
    mmap = build_material_map(s.material, list(s.defects), g.n1, g.n2)
    return s.excitation, cube, _staggered_energy(cube, mmap, order)


@pytest.mark.parametrize("order", [2, 4])
def test_staggered_energy_is_conserved_after_the_burst(order):
    # K = L D L is symmetric, so leapfrog conserves E^{n+1/2} exactly
    excitation, cube, energy = _staggered_run(order)
    quiet = (np.arange(energy.size) - 1) * cube.dt > excitation.burst_duration
    assert np.count_nonzero(quiet) > 100
    tail = energy[quiet]
    assert tail.max() - tail.min() <= 1e-12 * energy.max()


@pytest.mark.parametrize("order", [2, 4])
def test_staggered_energy_gains_the_work_of_the_force(order):
    # E^{n+1/2} - E^{n-1/2} = f(t_n) (w_s^{n+1} - w_s^{n-1}) / 2
    excitation, cube, energy = _staggered_run(order)
    w_s = cube.history(effective_source(excitation.source, cube.n1, cube.n2))
    n = np.arange(1, energy.size)
    work = burst_force(n * cube.dt, excitation) * (w_s[n + 1] - w_s[n - 1]) / 2.0
    assert np.count_nonzero(work) > 50
    assert np.max(np.abs(np.diff(energy) - work)) <= 1e-12 * energy.max()


def test_divergence_detection_beyond_stability_limit():
    with pytest.raises(DivergenceError) as info:
        simulate(ALUMINUM, [], BURST, 33, 33, 4000, 1.05)
    # the step the padded-copy stepper reported for this run
    assert "diverged at step 51 " in str(info.value)


def test_nan_initial_state_diverges_at_step_one():
    n = 17
    op, dt, _ = _operator(n, 4)
    seeded = np.zeros((n, n))
    seeded[5, 7] = np.nan
    for blow_up in (math.inf, 1.0):
        with pytest.raises(DivergenceError) as info:
            leapfrog(op, np.zeros((n, n)), seeded, 10, blow_up=blow_up)
        assert "diverged at step 1 " in str(info.value)
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

def _stencil_scale(dx, order):
    """The divisor that turns the integer-weight stencil sum into the Laplacian."""
    return dx * dx if order == 2 else 12.0 * dx * dx


def _padded_stencil_sum(f, order):
    """Integer-weight stencil sum under odd-image ghosts, on an np.pad copy."""
    if order == 2:
        p = np.pad(f, 1, mode="reflect", reflect_type="odd")
        return p[:-2, 1:-1] + p[2:, 1:-1] + p[1:-1, :-2] + p[1:-1, 2:] - 4.0 * f
    p = np.pad(f, 2, mode="reflect", reflect_type="odd")
    near = p[1:-3, 2:-2] + p[3:-1, 2:-2] + p[2:-2, 1:-3] + p[2:-2, 3:-1]
    return (16.0 * near - p[:-4, 2:-2] - p[4:, 2:-2] - p[2:-2, :-4] - p[2:-2, 4:]
            - 60.0 * f)


def _padded_laplacian(f, dx, order):
    return _padded_stencil_sum(f, order) / _stencil_scale(dx, order)


def _divided_laplacian(f, dx, order):
    """The textbook association: signed weights summed, then divided by the scale."""
    if order == 2:
        return _padded_laplacian(f, dx, order)
    p = np.pad(f, 2, mode="reflect", reflect_type="odd")
    c = p[2:-2, 2:-2]
    along_y = -p[:-4, 2:-2] + 16.0 * p[1:-3, 2:-2] + 16.0 * p[3:-1, 2:-2] - p[4:, 2:-2]
    along_x = -p[2:-2, :-4] + 16.0 * p[2:-2, 1:-3] + 16.0 * p[2:-2, 3:-1] - p[2:-2, 4:]
    return (along_y + along_x - 60.0 * c) / (12.0 * dx * dx)


def _operator(n, order, defects=()):
    """An aluminium plate's operator, its stable dt and its material map."""
    dx = ALUMINUM.side_length / (n - 1)
    mm = build_material_map(ALUMINUM, list(defects), n, n)
    dt = stable_timestep(mm, dx, 0.9, order)
    return PlateOperator(mm, dx, dt, order), dt, mm


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
        return 2.0 - 2.0 * np.cos(theta)
    return (30.0 - 32.0 * np.cos(theta) + 2.0 * np.cos(2.0 * theta)) / 12.0


@pytest.mark.parametrize("n", [3, 5, 8, 129, 257])
def test_ghost_fill_equals_np_pad(n, rng):
    op, _, _ = _operator(n, 4)
    field = rng.normal(size=(n, n))  # edges left nonzero on purpose
    buf = op.w_curr
    buf.full[...] = rng.normal(size=buf.full.shape)
    buf.nodes[...] = field
    buf.fill_ghosts()
    want = np.pad(field, 2, mode="reflect", reflect_type="odd")
    assert buf.full.tobytes() == want.tobytes()


@pytest.mark.parametrize("order", [2, 4])
@pytest.mark.parametrize("n", [3, 9, 33, 129, 257])
def test_stepper_buffers_start_on_cache_lines(order, n):
    # every span and scratch array a step writes, and the stiffness span it
    # reads beside them, starts on a 64-byte line, before and after a run
    op, _, _ = _operator(n, order)
    buffers = {"w_curr": op.w_curr.span, "w_prev": op.w_prev.span,
               "stage": op.stage.span, "d": op._d.span,
               "gain": op._gain, "tmp": op._tmp, "rise": op._rise}
    for field in (op.w_curr, op.w_prev, op.stage, op._d):
        assert field.width == n + 4
        assert np.shares_memory(field.span, field.full)
    rest = np.zeros((n, n))
    for _ in range(2):
        misaligned = {name: a.ctypes.data % 64 for name, a in buffers.items()
                      if a.ctypes.data % 64}
        assert misaligned == {}
        assert all(a.size == op.stage.span.size for a in buffers.values())
        leapfrog(op, rest, rest, 2, lambda t: burst_force(t, BURST),
                 effective_source(GridPoint(n // 3, n // 2), n, n))
    assert op.w_curr.span is buffers["w_curr"] and op._rise is buffers["rise"]


@pytest.mark.parametrize("order", [2, 4])
@pytest.mark.parametrize("n", [5, 6, 9, 33])
def test_laplacian_bit_identical_to_padded_copy(order, n, rng):
    # one in-place stage, stencil sum over the span divided by scale, is the
    # padded-copy Laplacian bit for bit
    op, _, _ = _operator(n, order)
    out = PaddedField(n)
    for _ in range(3):
        f = _zero_edged(rng, n)
        op.stage.nodes[...] = f
        op.stencil_sum(op.stage, out.span)
        got = out.nodes / op.scale
        assert got.tobytes() == _padded_laplacian(f, op.dx, order).tobytes()
        divided = _divided_laplacian(f, op.dx, order)
        assert np.max(np.abs(got - divided)) <= 1e-13 * np.max(np.abs(divided))


def _pinned(w):
    w[0, :] = w[-1, :] = w[:, 0] = w[:, -1] = 0.0
    return w


def _reference_step(nodes, dx, order, dt, w_prev, w_curr, f=0.0, source=None):
    """One padded-copy leapfrog step in the stepper's association.

    ``nodes`` is ``_nodal``'s (D, rho_h).  Stencil sums, D / s between them
    and the gain -dt^2 / (s rho_h) after them; a nonzero point force f adds
    f dt^2 / (rho_h dx^2) at ``source``.
    """
    d, rho = nodes
    scale = _stencil_scale(dx, order)
    u = _padded_stencil_sum(w_curr, order) * (d / scale)
    rise = _padded_stencil_sum(u, order) * (-(dt * dt) / (rho * scale))
    if f != 0.0:
        rise[source.m, source.l] += f * (dt * dt / (rho[source.m, source.l] * dx * dx))
    return _pinned((w_curr + w_curr) - w_prev + rise)


def _divided_step(nodes, dx, order, dt, w_prev, w_curr, f=0.0, source=None):
    """The same step in the textbook association: each stage divided by s."""
    d, rho = nodes
    u = _divided_laplacian(w_curr, dx, order)
    accel = -_divided_laplacian(d * u, dx, order) / rho
    if f != 0.0:
        accel[source.m, source.l] += f / (rho[source.m, source.l] * dx * dx)
    return _pinned(2.0 * w_curr - w_prev + (dt * dt) * accel)


@pytest.mark.parametrize("order", [2, 4])
def test_step_bit_identical_to_padded_copy(order, rng):
    # one step from (w, w): both stages, with the stiffness and density of
    # inclusions, and the pinned edges, on odd and even grids of 5 to 33
    # nodes
    defects = [DefectSpec("point_inclusion", (0.3, 0.6), 100.0, 50.0),
               DefectSpec("line_segment", (0.5, 0.2, 0.8, 0.4), 1e-3, 1e-2)]
    for n in (5, 6, 9, 33):
        op, dt, mm = _operator(n, order, defects)
        nodes, dx = _nodal(mm), op.dx
        for _ in range(3):
            w = _zero_edged(rng, n)
            got = leapfrog(op, w, w, 1)[1]
            want = _reference_step(nodes, dx, order, dt, w, w)
            assert got.tobytes() == want.tobytes(), n
            divided = _divided_step(nodes, dx, order, dt, w, w)
            assert np.max(np.abs(got - divided)) <= 1e-13 * np.max(np.abs(divided)), n


@pytest.mark.parametrize("order", [2, 4])
@pytest.mark.parametrize("p, q", [(1, 2), (3, 5)])
def test_sine_mode_follows_discrete_cosine(order, p, q):
    # Navier's mode is an eigenvector of lap(D lap)/rho_h with eigenvalue
    # lambda = (D/rho_h) s^2, s the stage symbol; started at
    # (cos(w_d dt) phi, phi), leapfrog keeps it at cos(w_d t) phi, where
    # cos(w_d dt) = 1 - dt^2 lambda / 2.
    n, steps = 33, 400
    op, dt, _ = _operator(n, order)
    phi = _sine_mode(n, p, q)
    s = (_stage_symbol(p * math.pi / (n - 1), order)
         + _stage_symbol(q * math.pi / (n - 1), order)) / op.dx**2
    lam = ALUMINUM.bending_stiffness / ALUMINUM.areal_density * s * s
    cos_step = 1.0 - dt * dt * lam / 2.0
    record = leapfrog(op, cos_step * phi, phi, steps)
    omega_dt = math.acos(cos_step)
    assert steps * omega_dt > math.pi  # at least half a period
    want = np.cos(omega_dt * np.arange(steps + 1))[:, None, None] * phi
    assert np.max(np.abs(record - want)) <= 1e-9 * np.max(np.abs(phi))


def _duhamel_record(scenario, cube):
    """The pristine plate's recorded history, summed mode by mode.

    On a homogeneous plate the odd-image ghosts make the stencil diagonal in
    the sine modes sin(pi k l / (n - 1)), k = 1 .. n - 2, with Laplacian
    eigenvalue -(s(theta_x) + s(theta_y)) / dx^2 (``_stage_symbol``).  A
    mode's amplitude then obeys q^{N+1} = 2 cos(phi) q^N - q^{N-1} + g f_N b,
    with cos(phi) = 1 - dt^2 (D / rho_h) lambda^2 / 2, g = dt^2 / (rho_h dx^2),
    f_N the force at (N - 1) dt and b the mode's share of the driven node,
    so from rest q^N = g b sum_{j <= N} f_j sin((N - j + 1) phi) / sin(phi),
    the discrete Duhamel sum.  The force, the source clamp, D and dt are
    recomputed here from the scenario and the cube, not taken from ``sim``.
    """
    grid, mat, exc = scenario.grid, scenario.material, scenario.excitation
    n = grid.n1
    dx = mat.side_length / (n - 1)
    dt = cube.dt / grid.record_every
    d = mat.youngs_modulus * mat.thickness**3 / (12.0 * (1.0 - mat.poisson_ratio**2))
    rho_h = mat.density * mat.thickness
    k = np.arange(1, n - 1)
    sym = _stage_symbol(math.pi * k / (n - 1), grid.space_order) / dx**2
    lam = (sym[:, None] + sym[None, :]).ravel()  # modes (k_y, k_x), flattened
    phi = np.arccos(1.0 - 0.5 * dt * dt * d / rho_h * lam * lam)
    basis = np.sin(math.pi * np.outer(np.arange(n), k) / (n - 1))  # [node, k]
    # a force on the pinned rim does no work: the nearest inner node is driven
    ls, ms = (min(max(i, 1), n - 2) for i in (exc.source.l, exc.source.m))
    gb = (dt * dt / (rho_h * dx * dx) * (2.0 / (n - 1)) ** 2
          * np.outer(basis[ms], basis[ls]).ravel())
    # the Hann-windowed burst, f_j at t = (j - 1) dt for j = 1 .. J
    t_b = exc.cycle_count / exc.carrier_frequency
    t = dt * np.arange(math.floor(t_b / dt) + 1)
    f = (exc.amplitude * np.sin(math.pi * t / t_b) ** 2
         * np.sin(2.0 * math.pi * exc.carrier_frequency * t))
    j = np.arange(1, f.size + 1)
    steps = grid.record_every * np.arange(cube.t_len)
    weights = np.where(j <= steps[:, None], f, 0.0)  # (record, j)
    # sin((N + 1 - j) phi) = sin((N + 1) phi) cos(j phi) - cos((N + 1) phi) sin(j phi)
    arg = np.outer(steps + 1, phi)
    q = gb * (np.sin(arg) * (weights @ np.cos(np.outer(j, phi)))
              - np.cos(arg) * (weights @ np.sin(np.outer(j, phi)))) / np.sin(phi)
    q = q.reshape(cube.t_len, n - 2, n - 2)
    return np.einsum("mk,rkq,lq->rml", basis, q, basis, optimize=True)


@pytest.mark.parametrize("order", [2, 4])
@pytest.mark.parametrize("source", [(0, 0), (40, 77)], ids=["corner", "inner"])
def test_pristine_plate_is_the_discrete_duhamel_sum(order, source):
    # the corner source is clamped to node (1, 1); (40, 77) drives itself
    base = load_scenario(bundled_config_path("pristine_ci"))
    assert not base.defects
    scenario = dataclasses.replace(
        base,
        grid=dataclasses.replace(base.grid, space_order=order),
        excitation=dataclasses.replace(base.excitation, source=GridPoint(*source)),
    )
    cube = simulate_scenario(scenario)
    want = _duhamel_record(scenario, cube)
    assert np.max(np.abs(cube.values - want)) <= 1e-12 * cube.peak


def _bisect(f, lo, hi):
    """The root of ``f`` on [lo, hi], where ``f`` changes sign once."""
    below = f(lo) < 0
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if (f(mid) < 0) == below else (lo, mid)
    return 0.5 * (lo + hi)


def _discrete_ray_velocity(scenario, cube):
    """The scheme's group speed along the ray from the first probe to the second.

    A plane wave exp(i (k . x - omega t)) solves the leapfrog + stencil
    scheme when cos(omega dt) = 1 - dt^2 (D / rho_h) Lambda(k)^2 / 2, with
    Lambda = (s(k_x dx) + s(k_y dx)) / dx^2 (``_stage_symbol``).  At the
    carrier frequency, the wavevector whose group velocity grad omega points
    along the probe ray is found by bisection on its angle, and its speed
    |grad omega| (central differences) is returned.
    """
    grid, mat, exc = scenario.grid, scenario.material, scenario.excitation
    dx = mat.side_length / (grid.n1 - 1)
    dt = cube.dt / grid.record_every
    stiffness = mat.youngs_modulus * mat.thickness**3 / (12.0 * (1.0 - mat.poisson_ratio**2))
    a = stiffness / (mat.density * mat.thickness)
    carrier = 2.0 * math.pi * exc.carrier_frequency
    pair = scenario.probes.pair
    ray = math.atan2(pair.second.m - pair.first.m, pair.second.l - pair.first.l)
    assert 0.0 <= ray <= math.pi / 4

    def omega(theta_x, theta_y):
        lam = (_stage_symbol(theta_x, grid.space_order)
               + _stage_symbol(theta_y, grid.space_order)) / dx**2
        return math.acos(1.0 - 0.5 * dt * dt * a * lam * lam) / dt

    def velocity(angle):
        c, s = math.cos(angle), math.sin(angle)
        r = _bisect(lambda r: omega(r * c, r * s) - carrier, 0.0, 2.0)
        h = 1e-6
        return (dx * (omega(r * c + h, r * s) - omega(r * c - h, r * s)) / (2.0 * h),
                dx * (omega(r * c, r * s + h) - omega(r * c, r * s - h)) / (2.0 * h))

    angle = 0.0 if ray == 0.0 else _bisect(
        lambda angle: math.atan2(*velocity(angle)[::-1]) - ray, 0.0, math.pi / 4)
    return math.hypot(*velocity(angle))


def test_probe_estimate_trails_the_schemes_own_group_velocity(ci_bench1, ci_pristine):
    # Measured below the discrete ray speed: 2.54 % on bench1_ci (probes on a
    # 26.6 degree ray) and 2.33 % on pristine_ci (the default pair, along
    # x), so the band is 3 %; the continuous speed 7018.9 m/s sits 0.62 % and
    # 1.32 % above the discrete ones
    for (scenario, cube), want in ((ci_bench1, 6975.19), (ci_pristine, 6926.10)):
        discrete = _discrete_ray_velocity(scenario, cube)
        assert discrete == pytest.approx(want, abs=0.01)
        assert discrete < analytic_group_velocity(scenario.material,
                                                  scenario.excitation.carrier_frequency)
        measured = estimate_group_velocity(cube, scenario.probes.pair)
        assert 0.0 < (discrete - measured) / discrete < 0.03


@pytest.mark.parametrize("order", [2, 4])
def test_stepper_is_the_sine_basis_recurrence(order):
    # Under pinned odd-image ghosts the stencil Laplacian of a field with
    # zero edges is L w = S^-1 (Lambda o (S w S)) S^-1 on the inner nodes,
    # with S the DST-I matrix (S S = (n - 1) / 2 I) and Lambda the sum of the
    # two axes' eigenvalues.  The stepper must then satisfy, at every step,
    # w^{n+1} - 2 w^n + w^{n-1} = -dt^2 / rho_h L(D L w^n)
    #                             + f(n dt) dt^2 / (rho_h dx^2) at the source,
    # with D and rho_h from the test's own cell-to-node loop.
    s = load_scenario(bundled_config_path("bench1_ci"))
    g, exc = s.grid, s.excitation
    n = g.n1
    cube = simulate(s.material, list(s.defects), exc, n, n, g.steps, g.safety,
                    space_order=order)
    assert cube.t_len == g.steps + 1
    d, rho = _nodal(build_material_map(s.material, list(s.defects), n, n))
    dx, dt = cube.dx, cube.dt
    k = np.arange(1, n - 1)
    sine = np.sin(math.pi * np.outer(k, k) / (n - 1))
    inverse = 2.0 / (n - 1) * sine
    sym = _stage_symbol(math.pi * k / (n - 1), order) / dx**2
    eigen = -(sym[:, None] + sym[None, :])  # [k_m, k_l]

    def lap(w):
        out = np.zeros_like(w)
        out[..., 1:-1, 1:-1] = inverse @ (eigen * (sine @ w[..., 1:-1, 1:-1] @ sine)) @ inverse
        return out

    w = np.concatenate([np.zeros((1, n, n)), cube.values])  # w^{-1} = 0
    ls, ms = (min(max(i, 1), n - 2) for i in (exc.source.l, exc.source.m))
    worst = largest = 0.0
    for start in range(0, g.steps, 64):  # steps n = start .. start + 63
        stop = min(start + 64, g.steps)
        second = w[start + 2:stop + 2] - 2.0 * w[start + 1:stop + 1] + w[start:stop]
        want = -(dt * dt) / rho * lap(d * lap(w[start + 1:stop + 1]))
        force = burst_force(np.arange(start, stop) * dt, exc)
        want[:, ms, ls] += force * (dt * dt / (rho[ms, ls] * dx * dx))
        want[:, [0, -1], :] = want[:, :, [0, -1]] = 0.0
        worst = max(worst, float(np.max(np.abs(second - want))))
        largest = max(largest, float(np.max(np.abs(second))))
    assert largest > 0.0
    assert worst <= 1e-12 * largest, worst / largest


@pytest.mark.parametrize("order", [2, 4])
def test_observed_spatial_order(order):
    # Refinement study (Roache 2002, J. Fluids Eng. 124(1)): the Rayleigh
    # quotient of the discrete Laplacian on a fixed sine mode against the
    # continuum eigenvalue (pi/L)^2 (p^2 + q^2), halving dx each time.
    p, q = 2, 3
    exact = (math.pi / ALUMINUM.side_length) ** 2 * (p * p + q * q)
    errors = []
    for n in (17, 33, 65, 129):
        phi = _sine_mode(n, p, q)
        lap = _padded_laplacian(phi, ALUMINUM.side_length / (n - 1), order)
        k2 = -np.sum(phi * lap) / np.sum(phi * phi)
        errors.append(abs(k2 - exact) / exact)
    observed = [math.log2(a / b) for a, b in zip(errors, errors[1:])]
    assert observed == pytest.approx([order] * 3, abs=0.05)


def _reference_record(nodes, dx, order, dt, steps, excitation, source,
                      step=_reference_step):
    """The padded-copy leapfrog from rest: two np.pad stencils per step."""
    w_prev = w_curr = np.zeros(nodes[0].shape)
    out = [w_curr]
    for k in range(1, steps + 1):
        f_now = burst_force((k - 1) * dt, excitation)
        w_prev, w_curr = w_curr, step(nodes, dx, order, dt, w_prev, w_curr,
                                      f_now, source)
        out.append(w_curr)
    return np.array(out)


@pytest.mark.parametrize("order", [2, 4])
def test_simulate_matches_padded_copy_stepper(order):
    n, steps = 33, 300
    exc = ExcitationSpec(5e5, 5, 1.0, GridPoint(9, 21))
    # heavy cells (8, 20) and (9, 21) are two of the driven node's four and
    # one of each neighbour's, so the force gain reads a density of its own
    defects = [DefectSpec("point_inclusion", (0.6, 0.3), 100.0, 100.0),
               DefectSpec("point_inclusion", (8.5 / 32, 20.5 / 32), 1.0, 50.0),
               DefectSpec("point_inclusion", (9.5 / 32, 21.5 / 32), 1.0, 50.0)]
    cube = simulate(ALUMINUM, defects, exc, n, n, steps, 0.9, space_order=order)
    _, dt, mm = _operator(n, order, defects)
    assert cube.dt == dt
    nodes = _nodal(mm)
    want = _reference_record(nodes, cube.dx, order, dt, steps, exc, exc.source)
    assert cube.values.tobytes() == want.tobytes()
    divided = _reference_record(nodes, cube.dx, order, dt, steps, exc, exc.source,
                                _divided_step)
    assert np.max(np.abs(cube.values - divided)) <= 1e-13 * np.max(np.abs(divided))
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
    op, dt, _ = _operator(n, 4)
    rest = np.zeros((n, n))
    source = GridPoint(20, 30)
    peaks = []
    tracemalloc.start()
    try:
        for steps in (20, 400):
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            leapfrog(op, rest, rest, steps, lambda t: burst_force(t, BURST),
                     source, record_every=steps)
            peaks.append(tracemalloc.get_traced_memory()[1] - before)
    finally:
        tracemalloc.stop()
    # beyond the two recorded states, less than an eighth of one field
    field_bytes = n * n * 8
    assert peaks[1] - peaks[0] < 4096
    assert peaks[1] < 2 * field_bytes + field_bytes // 8


def _cube(n1=2, t_len=1, dt=2e-8):
    return DataCube(n1, 2, t_len, 1e-3, dt, np.zeros(n1 * 2 * t_len))


# Library guards that no other test executes, by case: (call, error,
# message fragment).
GUARDS = {
    "cube_one_column": (lambda: _cube(n1=1), DataError, "at least 2 x 2"),
    "cube_no_samples": (lambda: _cube(t_len=0), DataError, "at least one time sample"),
    "cube_zero_dt": (lambda: _cube(dt=0.0), DataError, "dt must be positive"),
    "cube_subnormal_dt": (lambda: _cube(dt=5e-324), DataError,
                          "dt must be positive, finite and normal, got 5e-324"),
    "slice_past_record": (lambda: _cube(t_len=3).slice_at(3), IndexError, "out of range"),
    "segment_of_two_values": (lambda: DefectSpec("line_segment", (0.1, 0.2), 2, 2),
                              ValueError, "needs 4 geometry values"),
    "material_map_one_column": (lambda: build_material_map(ALUMINUM, [], 1, 5),
                                ValueError, "at least 2 x 2"),
    "zero_safety": (lambda: stable_timestep(build_material_map(ALUMINUM, [], 5, 5), 1e-3,
                                            safety=0), ValueError, "safety must be positive"),
    "zero_frequency": (lambda: analytic_phase_velocity(ALUMINUM, 0), ValueError,
                       "frequency must be positive"),
    "oblong_operator": (lambda: PlateOperator(build_material_map(ALUMINUM, [], 9, 7),
                                              1e-3, 1e-8), ValueError, "must match"),
    "no_steps": (lambda: simulate(ALUMINUM, [], BURST, 9, 9, 0, 0.5), ValueError,
                 "step_count must be at least 1"),
    "no_record_cadence": (lambda: simulate(ALUMINUM, [], BURST, 9, 9, 10, 0.5, record_every=0),
                          ValueError, "record_every must be at least 1"),
    "one_node_partition": (lambda: Partition(1, 5, 1, 1), ConfigError, "would collapse"),
    "cycle_count_past_float_range": (lambda: ExcitationSpec(5e5, 10**400, 1.0, GridPoint(0, 0)),
                                     ValueError, "^the burst lasts N_c/nu = 1000"),
    "silent_history": (lambda: first_envelope_peak_time(np.zeros(16), 1.0), NoSignalError,
                       "silent history"),
}


@pytest.mark.parametrize("case", GUARDS)
def test_library_guard_raises(case):
    call, error, message = GUARDS[case]
    with pytest.raises(error, match=message):
        call()
