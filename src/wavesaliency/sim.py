"""Explicit finite-difference simulator for flexural waves in a thin plate.

The model is the Kirchhoff thin-plate equation for the transverse deflection
w(x, y, t) with spatially varying coefficients,

    rho_h(x,y) * w_tt + lap( D(x,y) * lap(w) ) = f(t) * delta(source),

with bending stiffness D = E h^3 / (12 (1 - nu^2)) and areal density
rho_h = rho h.  Edges are simply supported (w = 0 and lap(w) = 0), which the
two-stage Laplacian discretization enforces exactly through odd-image ghost
nodes.  Defects are injected by scaling E and rho inside individual cells of
the (n1-1) x (n2-1) cell grid.

Time stepping is central-difference (leapfrog).  The spatial Laplacian stages
are available at second order (the classical 13-point biharmonic stencil) or
fourth order (default); at the default grid resolution the second-order
stencil underestimates the group velocity of a 500 kHz packet by ~6%, which
the fourth-order stages reduce to below 1%.

``simulate`` is two parts behind one call:

* ``PlateOperator`` builds the nodal D and rho_h once and owns three
  ``PaddedField`` buffers, w_curr, w_prev and the D lap(w) stage.  Each is
  ``(n + 4) x (n + 4)``: the nodes inside two ghost layers.  A Laplacian
  stage fills the odd-image ghosts in place (``2 * edge - mirror``, rows
  then columns, as ``np.pad(..., reflect_type="odd")`` does) and evaluates
  the stencil on one contiguous slice of the flattened buffer that runs
  through every interior row at full padded width, so each neighbour is a
  fixed offset.  Values landing in ghost columns are thrown away.
* ``leapfrog`` steps from any initial ``(w_prev, w_curr)`` with an optional
  point-force callback, writing each new state over w_prev; it allocates
  nothing per step.

Every element sees the same floating-point operations in the same order as
a padded-copy evaluation, so the history is bit-identical to one.

Plane-wave dispersion for the continuous model:

    omega = sqrt(D / rho_h) * k^2
    c_p   = omega / k = (omega^2 * D / rho_h)^(1/4)
    c_g   = d omega / d k = 2 * c_p
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from .cube import DataCube, GridPoint
from .errors import DivergenceError, GeometryError

DEFAULT_SPACE_ORDER = 4


# ---------------------------------------------------------------------------
# Specs
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MaterialSpec:
    """Homogeneous plate material and geometry.

    Attributes:
        youngs_modulus: E in Pa.
        poisson_ratio: nu, dimensionless, in (0, 0.5).
        density: rho in kg/m^3.
        thickness: h in m.
        side_length: L in m; the plate is square, Lx = Ly = L.
    """

    youngs_modulus: float
    poisson_ratio: float
    density: float
    thickness: float
    side_length: float

    def __post_init__(self):
        for name in ("youngs_modulus", "density", "thickness", "side_length"):
            if getattr(self, name) <= 0.0:
                raise ValueError(f"{name} must be strictly positive")
        if not 0.0 < self.poisson_ratio < 0.5:
            raise ValueError(
                f"poisson_ratio must be in (0, 0.5), got {self.poisson_ratio}"
            )

    @property
    def bending_stiffness(self) -> float:
        """Kirchhoff bending stiffness D = E h^3 / (12 (1 - nu^2)) in N*m."""
        e, h, nu = self.youngs_modulus, self.thickness, self.poisson_ratio
        return e * h**3 / (12.0 * (1.0 - nu * nu))

    @property
    def areal_density(self) -> float:
        """Mass per unit area rho * h in kg/m^2."""
        return self.density * self.thickness


@dataclass(frozen=True)
class ExcitationSpec:
    """Narrow-band out-of-plane point burst.

    Attributes:
        carrier_frequency: carrier in Hz.
        cycle_count: number of carrier cycles inside the burst envelope.
        amplitude: peak force scale in N.
        source: grid node receiving the force.
    """

    carrier_frequency: float
    cycle_count: float
    amplitude: float
    source: GridPoint

    def __post_init__(self):
        if self.carrier_frequency <= 0.0:
            raise ValueError("carrier_frequency must be positive")
        if self.cycle_count < 1:
            raise ValueError("cycle_count must be at least 1")

    @property
    def burst_duration(self) -> float:
        """Envelope support N_c / nu in seconds."""
        return self.cycle_count / self.carrier_frequency


@dataclass(frozen=True)
class DefectSpec:
    """A localized material alteration, in plate-fraction coordinates.

    ``geometry`` is ``(x, y)`` for a point inclusion or ``(xa, ya, xb, yb)``
    for a one-cell-thick line segment; all coordinates are fractions of the
    side length in [0, 1].  ``modulus_scale`` multiplies E and
    ``density_scale`` multiplies rho inside every affected cell.
    """

    kind: str
    geometry: tuple[float, ...]
    modulus_scale: float
    density_scale: float

    def __post_init__(self):
        if self.kind not in ("point_inclusion", "line_segment"):
            raise ValueError(f"unknown defect kind {self.kind!r}")
        want = 2 if self.kind == "point_inclusion" else 4
        if len(self.geometry) != want:
            raise ValueError(
                f"{self.kind} needs {want} geometry values, got {len(self.geometry)}"
            )
        if any(not 0.0 <= g <= 1.0 for g in self.geometry):
            raise GeometryError(
                f"defect geometry {self.geometry} outside the unit square"
            )
        if self.modulus_scale <= 0.0 or self.density_scale <= 0.0:
            raise ValueError("defect scale factors must be strictly positive")


@dataclass(frozen=True)
class MaterialMap:
    """Per-cell coefficients on the (n1-1) x (n2-1) cell grid.

    Arrays are indexed ``[cell_l, cell_m]`` (x index first) and hold the
    bending stiffness D in N*m and areal density rho*h in kg/m^2.
    """

    bending_stiffness: np.ndarray
    areal_density: np.ndarray = field(repr=False)

    def __post_init__(self):
        d = np.asarray(self.bending_stiffness, dtype=np.float64)
        r = np.asarray(self.areal_density, dtype=np.float64)
        if d.shape != r.shape or d.ndim != 2:
            raise ValueError("coefficient grids must be 2-D and congruent")
        for name, arr in (("bending_stiffness", d), ("areal_density", r)):
            if not np.isfinite(arr).all() or (arr <= 0.0).any():
                raise ValueError(f"{name} must be strictly positive and finite")
        d.flags.writeable = False
        r.flags.writeable = False
        object.__setattr__(self, "bending_stiffness", d)
        object.__setattr__(self, "areal_density", r)

    @property
    def cell_shape(self) -> tuple[int, int]:
        return self.bending_stiffness.shape


# ---------------------------------------------------------------------------
# Excitation
# ---------------------------------------------------------------------------

def burst_force(t, excitation: ExcitationSpec):
    """Force of the Hann-windowed burst at time t (scalar or array), in N.

    f(t) = A * sin^2(pi t / T_b) * sin(2 pi nu t) on [0, T_b], zero outside,
    with T_b = N_c / nu.
    """
    t = np.asarray(t, dtype=np.float64)
    t_b = excitation.burst_duration
    window = np.sin(np.pi * t / t_b) ** 2
    carrier = np.sin(2.0 * np.pi * excitation.carrier_frequency * t)
    out = np.where((t >= 0.0) & (t <= t_b),
                   excitation.amplitude * window * carrier, 0.0)
    return out if out.ndim else float(out)


# ---------------------------------------------------------------------------
# Material map construction
# ---------------------------------------------------------------------------

def defect_cells(defect: DefectSpec, n1: int, n2: int) -> set[tuple[int, int]]:
    """Cells ``(cell_l, cell_m)`` altered by one defect.

    A point inclusion alters the single cell containing its coordinate; a
    line segment alters every cell its ideal line passes through, one cell
    thick.  Coordinates landing exactly on a cell boundary are assigned to
    the higher-index cell (clamped at the plate edge).
    """
    cx, cy = n1 - 1, n2 - 1

    def cell_of(x: float, y: float) -> tuple[int, int]:
        return (min(int(x * cx), cx - 1), min(int(y * cy), cy - 1))

    if defect.kind == "point_inclusion":
        return {cell_of(*defect.geometry)}

    xa, ya, xb, yb = defect.geometry
    # Dense parametric walk; step well under half a cell so no crossed cell
    # is skipped.
    steps = 16 * max(cx, cy)
    ts = np.linspace(0.0, 1.0, steps + 1)
    cells = {
        cell_of(xa + t * (xb - xa), ya + t * (yb - ya)) for t in ts
    }
    return cells


def build_material_map(
    base: MaterialSpec,
    defects: list[DefectSpec],
    n1: int,
    n2: int,
) -> MaterialMap:
    """Rasterize defects onto the cell grid of a pristine plate."""
    if n1 < 2 or n2 < 2:
        raise ValueError("grid must be at least 2 x 2 nodes")
    d = np.full((n1 - 1, n2 - 1), base.bending_stiffness)
    rho_h = np.full((n1 - 1, n2 - 1), base.areal_density)
    for defect in defects:
        for cl, cm in defect_cells(defect, n1, n2):
            d[cl, cm] *= defect.modulus_scale
            rho_h[cl, cm] *= defect.density_scale
    return MaterialMap(bending_stiffness=d, areal_density=rho_h)


# ---------------------------------------------------------------------------
# Stability and dispersion
# ---------------------------------------------------------------------------

def _biharmonic_symbol_max(space_order: int) -> float:
    # Largest eigenvalue magnitude of the two-stage discrete biharmonic,
    # in units of 1/dx^4: the squared peak symbol of the Laplacian stage.
    if space_order == 2:
        return 8.0**2
    if space_order == 4:
        return (32.0 / 3.0) ** 2
    raise ValueError(f"space_order must be 2 or 4, got {space_order}")


def stable_timestep(
    material_map: MaterialMap,
    dx: float,
    safety: float,
    space_order: int = DEFAULT_SPACE_ORDER,
) -> float:
    """Largest stable leapfrog step, scaled by ``safety``.

    The central-difference scheme is stable for dt <= 2 / omega_max with
    omega_max = sqrt(D / rho_h) * s_max / dx^2, where s_max is the peak
    symbol of the Laplacian stage (8 at second order, 32/3 at fourth).
    Evaluated at the stiffest cell, i.e. the smallest rho_h / D ratio:

        dt = safety * (2 / s_max) * dx^2 * sqrt(min_cells rho_h / D)

    Safety factors above 1 deliberately exceed the limit; ``simulate`` then
    detects the blow-up and raises ``DivergenceError``.
    """
    if safety <= 0.0:
        raise ValueError(f"safety must be positive, got {safety}")
    ratio_min = float(
        np.min(material_map.areal_density / material_map.bending_stiffness)
    )
    s_max = math.sqrt(_biharmonic_symbol_max(space_order))
    return safety * (2.0 / s_max) * dx * dx * math.sqrt(ratio_min)


def analytic_phase_velocity(material: MaterialSpec, frequency: float) -> float:
    """Thin-plate flexural phase speed c_p = (omega^2 D / rho_h)^(1/4)."""
    if frequency <= 0.0:
        raise ValueError("frequency must be positive")
    omega = 2.0 * math.pi * frequency
    return (omega * omega * material.bending_stiffness / material.areal_density) ** 0.25


def analytic_group_velocity(material: MaterialSpec, frequency: float) -> float:
    """Thin-plate flexural group speed, exactly twice the phase speed."""
    return 2.0 * analytic_phase_velocity(material, frequency)


# ---------------------------------------------------------------------------
# Spatial operators
# ---------------------------------------------------------------------------

def _cells_to_nodes(cells: np.ndarray, harmonic: bool) -> np.ndarray:
    """Average per-cell values onto nodes (cells indexed [m, l] here).

    Each node averages its 1, 2, or 4 adjacent cells.  Harmonic averaging is
    used for the stiffness so that a soft cell limits the coupling through
    shared nodes; arithmetic averaging (mass lumping) for the density.
    """
    src = 1.0 / cells if harmonic else cells
    nm, nl = cells.shape[0] + 1, cells.shape[1] + 1
    acc = np.zeros((nm, nl))
    cnt = np.zeros((nm, nl))
    for da in (0, 1):
        for db in (0, 1):
            acc[da:da + cells.shape[0], db:db + cells.shape[1]] += src
            cnt[da:da + cells.shape[0], db:db + cells.shape[1]] += 1.0
    avg = acc / cnt
    return 1.0 / avg if harmonic else avg


class PaddedField:
    """One ``(n + 4) x (n + 4)`` buffer: n x n nodes inside two ghost layers.

    Padded index ``(m + 2, l + 2)`` holds node ``(l, m)``.  ``span`` is the
    contiguous 1-D slice of the flattened buffer from padded ``(2, 2)`` to
    ``(n + 1, n + 1)``: every node, plus the ghost columns between interior
    rows.  ``shift[k]`` is the same slice moved by k elements, so the
    stencil neighbours at +-1, +-2, +-W and +-2W (W = n + 4) are plain
    views.  All views are built once.
    """

    def __init__(self, n: int):
        width = n + 4
        self.full = np.zeros((width, width))
        self.nodes = self.full[2:-2, 2:-2]
        flat = self.full.reshape(-1)
        start, stop = 2 * width + 2, (n + 1) * width + n + 2
        self.shift = {
            k: flat[start + k:stop + k]
            for k in (0, -1, 1, -2, 2, -width, width, -2 * width, 2 * width)
        }
        self.span = self.shift[0]
        # Odd images 2 * edge - mirror, as np.pad(..., reflect_type="odd")
        # computes them: the ghost rows first, then the ghost columns over
        # every row, corners included.
        f, inner, last = self.full, slice(2, n + 2), n + 1
        self._ghost_lines = [
            (line(edge + out * k), line(edge), line(edge - out * k))
            for line in (lambda i: f[i, inner], lambda i: f[:, i])
            for edge, out in ((2, -1), (last, 1))
            for k in (1, 2)
        ]
        # Pinned edge rows and columns, together with the ghost columns the
        # span crosses (overwritten by the next ghost fill anyway).
        self._edge_bands = (f[2], f[last], f[inner, :3], f[inner, last:])

    def fill_ghosts(self) -> None:
        for ghost, edge, mirror in self._ghost_lines:
            np.multiply(edge, 2.0, out=ghost)
            np.subtract(ghost, mirror, out=ghost)

    def pin_edges(self) -> None:
        """Zero the edge nodes, and the ghost columns inside ``span``."""
        for band in self._edge_bands:
            band.fill(0.0)


class PlateOperator:
    """The discrete plate operator -lap(D lap w) / rho_h on one square grid.

    Builds the nodal stiffness and density once and owns the ghost-padded
    buffers the time loop steps in: ``w_curr``, ``w_prev`` and ``stage``
    (D lap w), plus span-length scratch.  Each Laplacian stage fills the
    odd-image ghosts of its input in place and then evaluates the stencil
    on the contiguous spans of ``PaddedField``.  Values computed in the
    ghost columns inside a span are thrown away: the next ghost fill
    overwrites them before anything reads them.  Every node sees the same
    operations, in the same order, as the padded-copy formula on
    ``np.pad(f, 2, mode="reflect", reflect_type="odd")``, so results are
    bit-identical to it for n >= 3.  Order 2 reads one ghost layer of the
    same buffers.
    """

    def __init__(
        self,
        material_map: MaterialMap,
        dx: float,
        space_order: int = DEFAULT_SPACE_ORDER,
    ):
        if space_order not in (2, 4):
            raise ValueError(f"space_order must be 2 or 4, got {space_order}")
        cl, cm = material_map.cell_shape
        if cl != cm:
            raise ValueError("the plate is square; n1 and n2 must match")
        n = cl + 1
        self.n, self.dx, self.space_order = n, dx, space_order
        # Layout is [m, l] (y index first) so that node views are already
        # in cube payload order.
        self.d_node = _cells_to_nodes(material_map.bending_stiffness.T, harmonic=True)
        self.rho_node = _cells_to_nodes(material_map.areal_density.T, harmonic=False)

        (self.w_curr, self.w_prev, self.stage,
         self._accel, self._d, self._rho) = (PaddedField(n) for _ in range(6))
        # Ghost-column entries of the coefficients only meet thrown-away
        # values; edge copies keep that arithmetic finite.
        self._d.full[...] = np.pad(self.d_node, 2, mode="edge")
        self._rho.full[...] = np.pad(self.rho_node, 2, mode="edge")
        self._acc, self._tmp = (np.empty_like(self.stage.span) for _ in range(2))

    def laplacian_stage(self, src: PaddedField, out: np.ndarray) -> None:
        """Fill ``src``'s ghosts and write its Laplacian over its span into ``out``."""
        src.fill_ghosts()
        at, acc, tmp, dx = src.shift, self._acc, self._tmp, self.dx
        w = self.n + 4
        if self.space_order == 2:
            np.add(at[-w], at[w], out=out)
            np.add(out, at[-1], out=out)
            np.add(out, at[1], out=out)
            np.multiply(at[0], 4.0, out=tmp)
            np.subtract(out, tmp, out=out)
            np.divide(out, dx * dx, out=out)
            return
        for total, near, far in ((out, w, 2 * w), (acc, 1, 2)):
            np.multiply(at[-near], 16.0, out=total)
            np.subtract(total, at[-far], out=total)
            np.multiply(at[near], 16.0, out=tmp)
            np.add(total, tmp, out=total)
            np.subtract(total, at[far], out=total)
        np.add(out, acc, out=out)
        np.multiply(at[0], 60.0, out=tmp)
        np.subtract(out, tmp, out=out)
        np.divide(out, 12.0 * dx * dx, out=out)

    def laplacian(self, field: np.ndarray) -> np.ndarray:
        """Laplacian of one ``(n, n)`` field under odd-image ghosts, as a new array."""
        self.stage.nodes[...] = field
        self.laplacian_stage(self.stage, self._accel.span)
        return self._accel.nodes.copy()

    def acceleration(self, w: PaddedField) -> np.ndarray:
        """-lap(D lap w) / rho_h over ``w``'s span, in a scratch span."""
        stage, accel = self.stage.span, self._accel.span
        self.laplacian_stage(w, stage)
        np.multiply(stage, self._d.span, out=stage)
        self.laplacian_stage(self.stage, accel)
        np.negative(accel, out=accel)
        np.divide(accel, self._rho.span, out=accel)
        return accel


# ---------------------------------------------------------------------------
# Time stepping
# ---------------------------------------------------------------------------

def leapfrog(
    operator: PlateOperator,
    w_prev: np.ndarray,
    w_curr: np.ndarray,
    dt: float,
    step_count: int,
    forcing: Callable[[float], float] | None = None,
    source: GridPoint | None = None,
    *,
    record_every: int = 1,
    blow_up: float = math.inf,
) -> np.ndarray:
    """Central-difference steps from ``(w_prev, w_curr)``; the recorded history.

    ``w_prev`` and ``w_curr`` are ``(n, n)`` states in ``[m, l]`` order at
    t = -dt and t = 0.  ``forcing(t)``, when given, is the point force in N
    at node ``source`` (required with it) over the step that starts at
    time t.  Edges are
    pinned to zero after every step.  Steps run in the operator's buffers
    and allocate nothing.  Returns ``step_count // record_every + 1``
    recorded states, ``w_curr`` first.

    Raises:
        DivergenceError: if any |w| is not finite or exceeds ``blow_up``
            (a ``blow_up`` of 0 checks finiteness only), naming the first
            bad step.
    """
    op = operator
    record = np.zeros((step_count // record_every + 1, op.n, op.n))
    record[0] = w_curr
    prev, curr = op.w_prev, op.w_curr
    for field, state in ((prev, w_prev), (curr, w_curr)):
        field.full.fill(0.0)
        field.nodes[...] = state
    if forcing is not None:
        source.validate(op.n, op.n)
        src_idx = source.m * (op.n + 4) + source.l  # node (l, m) in a span
        src_scale = op.rho_node[source.m, source.l] * op.dx * op.dx
    tmp = op._tmp
    dt2 = dt * dt
    for step in range(1, step_count + 1):
        accel = op.acceleration(curr)
        if forcing is not None:
            f_now = forcing((step - 1) * dt)
            if f_now != 0.0:
                accel[src_idx] += f_now / src_scale
        # w_next = (2 w - w_prev) + dt^2 accel, written over w_prev.
        nxt = prev.span
        np.multiply(curr.span, 2.0, out=tmp)
        np.subtract(tmp, nxt, out=nxt)
        np.multiply(accel, dt2, out=accel)
        np.add(nxt, accel, out=nxt)
        prev.pin_edges()
        # The span now holds nodes and zeros only; max/min need no
        # temporary, and a NaN still propagates to the peak.
        peak = max(float(nxt.max()), -float(nxt.min()))
        if not math.isfinite(peak) or (blow_up > 0.0 and peak > blow_up):
            raise DivergenceError(
                f"explicit scheme diverged at step {step} "
                f"(|w| reached {peak:.3e})",
                step=step,
            )
        prev, curr = curr, prev
        if step % record_every == 0:
            record[step // record_every] = curr.nodes
    return record


def simulate(
    material: MaterialSpec,
    defects: list[DefectSpec],
    excitation: ExcitationSpec,
    n1: int,
    n2: int,
    step_count: int,
    safety: float = 0.9,
    *,
    record_every: int = 1,
    space_order: int = DEFAULT_SPACE_ORDER,
) -> DataCube:
    """Run the explicit scheme from rest and return the recorded history.

    The returned cube stores the state every ``record_every`` integrator
    steps (the initial all-zero state included), so its dt equals
    ``record_every * stable_timestep(...)``.

    Raises:
        DivergenceError: if any |w| exceeds 1e6 times the forcing
            displacement scale, naming the first bad step.
    """
    if n1 != n2:
        raise ValueError("the plate is square; n1 and n2 must match")
    if step_count < 1:
        raise ValueError("step_count must be at least 1")
    if record_every < 1:
        raise ValueError("record_every must be at least 1")
    excitation.source.validate(n1, n2)

    dx = material.side_length / (n1 - 1)
    mmap = build_material_map(material, defects, n1, n2)
    dt = stable_timestep(mmap, dx, safety, space_order)
    operator = PlateOperator(mmap, dx, space_order)

    # A transverse force on a pinned edge node does no work; drive the
    # nearest interior node instead.
    source = GridPoint(min(max(excitation.source.l, 1), n1 - 2),
                       min(max(excitation.source.m, 1), n2 - 2))

    # Displacement scale of the driven lumped mass under the peak force held
    # for the whole burst; honest responses sit far below 1e6 times this.
    rho_min = float(np.min(mmap.areal_density))
    blow_up = (
        1e6 * abs(excitation.amplitude) * excitation.burst_duration**2
        / (rho_min * dx * dx)
    )

    rest = np.zeros((n2, n1))
    record = leapfrog(
        operator, rest, rest, dt, step_count,
        lambda t: burst_force(t, excitation), source,
        record_every=record_every, blow_up=blow_up,
    )
    return DataCube(
        n1=n1, n2=n2, t_len=record.shape[0],
        dx=dx, dt=dt * record_every,
        values=record,
    )


def total_energy_series(
    cube: DataCube,
    material_map: MaterialMap,
    space_order: int = DEFAULT_SPACE_ORDER,
) -> np.ndarray:
    """Kinetic plus strain energy at each interior stored sample.

    E(t) = 1/2 sum rho_h v^2 dx^2 + 1/2 sum D (lap w)^2 dx^2, with the
    velocity from centered differences of the stored slices.  Useful for
    drift checks on runs recorded at every integrator step.
    """
    op = PlateOperator(material_map, cube.dx, space_order)
    dx2 = cube.dx * cube.dx
    out = np.empty(cube.t_len - 2)
    for t in range(1, cube.t_len - 1):
        v = (cube.values[t + 1] - cube.values[t - 1]) / (2.0 * cube.dt)
        lap = op.laplacian(cube.values[t])
        kinetic = 0.5 * float(np.sum(op.rho_node * v * v)) * dx2
        strain = 0.5 * float(np.sum(op.d_node * lap * lap)) * dx2
        out[t - 1] = kinetic + strain
    return out
