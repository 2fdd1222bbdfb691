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
the fourth-order stages reduce to below 1%.  ``STENCILS`` is the one table
of supported orders: each one's centre weight and divisor, and the peak
symbol that sets its stable time step.

``simulate`` is two parts behind one call:

* ``PlateOperator`` averages D and rho_h onto the nodes once and owns
  three ``PaddedField`` buffers, w_curr, w_prev and the D lap(w) stage,
  beside every gain a step reads and span-length scratch.  Each buffer is
  ``(n + 4) x (n + 4)``: the nodes inside two ghost layers.  A stage fills
  the odd-image ghosts in place (``2 * edge - mirror``, rows then columns,
  as ``np.pad(..., reflect_type="odd")`` does) and evaluates the stencil on
  one contiguous slice of the flattened buffer that runs through every
  interior row at full padded width, so each neighbour is a fixed offset.
  Values landing in ghost columns are thrown away.
* ``leapfrog`` steps from any initial ``(w_prev, w_curr)`` with an optional
  point-force callback, writing each new state over w_prev; it allocates
  nothing per step.

A stage evaluates only the integer-weight stencil sum: 16 (near) - (far) -
60 c at order 4, (near) - 4 c at order 2, where "near" and "far" sum the
four neighbours one and two nodes away.  Its divisor s, 12 dx^2 at order 4
and dx^2 at order 2, is folded into per-node coefficients: D / s between
the stages and -dt^2 / (s rho_h) after the second, so a step divides
nothing.  The history is bit-identical to a padded-copy evaluation of the
same formula, and within ~1e-14 of its peak of the association that
divides each stage by s.

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

from .cube import DataCube, GridPoint, hold_plain_numbers, plain_number
from .errors import DivergenceError

DEFAULT_SPACE_ORDER = 4


# ---------------------------------------------------------------------------
# Specs
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MaterialSpec:
    """Homogeneous plate material and geometry, each a plain, finite float.

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
        hold_plain_numbers(self)
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
        try:
            d = e * h**3 / (12.0 * (1.0 - nu * nu))
        except OverflowError:
            d = math.inf
        if not math.isfinite(d):
            raise OverflowError(
                f"bending stiffness E h^3 / (12 (1 - nu^2)) is out of float "
                f"range for E = {e!r} Pa and h = {h!r} m"
            )
        return d

    @property
    def areal_density(self) -> float:
        """Mass per unit area rho * h in kg/m^2."""
        return self.density * self.thickness


@dataclass(frozen=True)
class ExcitationSpec:
    """Narrow-band out-of-plane point burst, its numbers plain and finite.

    Attributes:
        carrier_frequency: carrier in Hz.
        cycle_count: number of carrier cycles in the burst envelope, an int.
        amplitude: peak force scale in N.
        source: grid node receiving the force.
    """

    carrier_frequency: float
    cycle_count: int
    amplitude: float
    source: GridPoint

    def __post_init__(self):
        hold_plain_numbers(self)
        if self.carrier_frequency <= 0.0:
            raise ValueError("carrier_frequency must be positive")
        if self.cycle_count < 1:
            raise ValueError("cycle_count must be at least 1")
        # ``simulate`` scales its divergence bound by T_b^2 and window timing
        # waits T_b / 2, so T_b = N_c / nu and its square must be positive
        # floats; a cycle count past float range lasts longer than any.
        try:
            t_b, cycles = self.burst_duration, f"{self.cycle_count:g}"
        except OverflowError:
            t_b, cycles = math.inf, str(self.cycle_count)
        if not 0.0 < t_b * t_b < math.inf:
            raise ValueError(f"the burst lasts N_c/nu = {cycles} / {self.carrier_frequency:g} "
                             f"Hz = {t_b:.3e} s, out of float range once squared")

    @property
    def burst_duration(self) -> float:
        """Envelope support N_c / nu in seconds."""
        return self.cycle_count / self.carrier_frequency


# Geometry keys of each defect kind, in ``DefectSpec.geometry`` order: the
# keys of a scenario file's ``[defect]`` block.
DEFECT_GEOMETRY_KEYS = {
    "point_inclusion": ("x", "y"),
    "line_segment": ("x1", "y1", "x2", "y2"),
}


@dataclass(frozen=True)
class DefectSpec:
    """A localized material alteration, in plate-fraction coordinates.

    ``geometry`` is ``(x, y)`` for a point inclusion or ``(xa, ya, xb, yb)``
    for a one-cell-thick line segment, in [0, 1] of the side length and held
    as a tuple.  ``modulus_scale`` multiplies E and ``density_scale`` rho
    inside every affected cell.  Each number is a plain, finite float.
    """

    kind: str
    geometry: tuple[float, ...]
    modulus_scale: float
    density_scale: float

    def __post_init__(self):
        hold_plain_numbers(self)
        if self.kind not in DEFECT_GEOMETRY_KEYS:
            raise ValueError(f"unknown defect kind {self.kind!r}")
        want = len(DEFECT_GEOMETRY_KEYS[self.kind])
        if len(self.geometry) != want:
            raise ValueError(
                f"{self.kind} needs {want} geometry values, got {len(self.geometry)}"
            )
        geometry = tuple(plain_number("geometry", g, "float") for g in self.geometry)
        object.__setattr__(self, "geometry", geometry)
        if any(not 0.0 <= g <= 1.0 for g in self.geometry):
            raise ValueError(
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


def effective_source(source: GridPoint, n1: int, n2: int) -> GridPoint:
    """Node that actually radiates: the source clamped inside the pinned rim.

    A transverse force on a simply supported edge node does no work, so
    ``simulate`` drives the nearest interior node; distances to the source
    (window timing) and the origin block of ``sampling.detection_metrics``
    are measured from it.
    """
    return GridPoint(
        l=min(max(source.l, 1), n1 - 2),
        m=min(max(source.m, 1), n2 - 2),
    )


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
    # A product that overflows fails the finiteness check below instead.
    with np.errstate(over="ignore"):
        for defect in defects:
            for cl, cm in defect_cells(defect, n1, n2):
                d[cl, cm] *= defect.modulus_scale
                rho_h[cl, cm] *= defect.density_scale
    for name, arr in (("bending_stiffness", d), ("areal_density", rho_h)):
        if not np.isfinite(arr).all() or (arr <= 0.0).any():
            raise ValueError(f"{name} must be strictly positive and finite")
    return MaterialMap(bending_stiffness=d, areal_density=rho_h)


# ---------------------------------------------------------------------------
# Stability and dispersion
# ---------------------------------------------------------------------------

# The supported stencil orders.  Each Laplacian stage is an integer-weight
# stencil sum over a divisor; the entry holds the sum's centre weight, the
# divisor in units of dx^2, and the stage's peak symbol in units of 1/dx^2
# (its largest eigenvalue magnitude).
STENCILS = {2: (4.0, 1.0, 8.0), 4: (60.0, 12.0, 32.0 / 3.0)}


def stage_symbol_peak(space_order: int) -> float:
    """The order's peak symbol in ``STENCILS``; ValueError for any other order."""
    if space_order not in STENCILS:
        orders = " or ".join(map(str, STENCILS))
        raise ValueError(f"space_order must be {orders}, got {space_order}")
    return STENCILS[space_order][2]


def stable_timestep(
    material_map: MaterialMap,
    dx: float,
    safety: float,
    space_order: int = DEFAULT_SPACE_ORDER,
) -> float:
    """Largest stable leapfrog step, scaled by ``safety``.

    The central-difference scheme is stable for dt <= 2 / omega_max with
    omega_max = sqrt(D / rho_h) * s_max / dx^2, where s_max is the peak
    symbol of the Laplacian stage (``STENCILS``).
    Evaluated at the stiffest cell, i.e. the smallest rho_h / D ratio:

        dt = safety * (2 / s_max) * dx^2 * sqrt(min_cells rho_h / D)

    Safety factors above 1 deliberately exceed the limit; ``simulate`` then
    detects the blow-up and raises ``DivergenceError``.
    """
    if safety <= 0.0:
        raise ValueError(f"safety must be positive, got {safety}")
    # a cell whose D is near the bottom of float range overflows to inf,
    # which the minimum passes over; PlateOperator refuses its zero gain
    with np.errstate(over="ignore"):
        ratio_min = float(
            np.min(material_map.areal_density / material_map.bending_stiffness)
        )
    s_max = stage_symbol_peak(space_order)
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

def _cells_to_nodes(cells: np.ndarray) -> np.ndarray:
    """Average per-cell values onto nodes (cells indexed [m, l] here).

    Each node takes the arithmetic mean of its 1, 2, or 4 adjacent cells:
    mass lumping for the density.  The stiffness is averaged harmonically,
    as ``1 / _cells_to_nodes(1 / cells)``, so that a soft cell limits the
    coupling through shared nodes.
    """
    nm, nl = cells.shape[0] + 1, cells.shape[1] + 1
    acc = np.zeros((nm, nl))
    cnt = np.zeros((nm, nl))
    for da in (0, 1):
        for db in (0, 1):
            acc[da:da + cells.shape[0], db:db + cells.shape[1]] += cells
            cnt[da:da + cells.shape[0], db:db + cells.shape[1]] += 1.0
    return acc / cnt


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

    Holds only what ``leapfrog`` reads: the ghost-padded buffers the time
    loop steps in, ``w_curr``, ``w_prev`` and ``stage`` (D lap w), the
    gains below, and span-length scratch.  Each stage fills the odd-image
    ghosts of its input in place and then evaluates the integer-weight
    stencil sum on the contiguous spans of ``PaddedField``; ``scale`` is
    the divisor that turns that sum into the Laplacian, kept in ``_d``
    (D / scale, padded) and in ``_gain`` (-dt^2 / (scale rho_h) over a
    span); ``_force_gain`` is dt^2 / (rho_h dx^2) per node.  A plate that
    leaves any gain zero or out of float range raises ValueError.
    Values computed in the ghost columns inside a span are thrown
    away: the next ghost fill overwrites them before anything reads them.
    Every node sees the same operations, in the same order, as the same
    formula on ``np.pad(f, 2, mode="reflect", reflect_type="odd")``, so
    results are bit-identical to it for n >= 3.  Order 2 reads one ghost
    layer of the same buffers.
    """

    def __init__(
        self,
        material_map: MaterialMap,
        dx: float,
        dt: float,
        space_order: int = DEFAULT_SPACE_ORDER,
    ):
        stage_symbol_peak(space_order)
        self._centre, denominator, _ = STENCILS[space_order]
        cl, cm = material_map.bending_stiffness.shape
        if cl != cm:
            raise ValueError("the plate is square; n1 and n2 must match")
        n = cl + 1
        self.n, self.dx, self.dt, self.space_order = n, dx, dt, space_order
        self.scale = denominator * dx * dx
        self.w_curr, self.w_prev, self.stage, self._d, rho = (
            PaddedField(n) for _ in range(5))
        self._gain, self._tmp, self._rise = (
            np.empty_like(self.stage.span) for _ in range(3))
        dt2 = dt * dt
        with np.errstate(all="ignore"):
            # Layout is [m, l] (y index first) so that node views are already
            # in cube payload order.  A cell value that leaves float range
            # here becomes a zero or infinite gain, refused below.
            d = 1.0 / _cells_to_nodes(1.0 / material_map.bending_stiffness.T)
            rho_h = _cells_to_nodes(material_map.areal_density.T)
            # Ghost-column entries of the coefficients only meet thrown-away
            # values; edge copies keep that arithmetic finite.
            self._d.full[...] = np.pad(d, 2, mode="edge") / self.scale
            rho.full[...] = np.pad(rho_h, 2, mode="edge")
            np.multiply(rho.span, self.scale, out=self._gain)
            np.divide(-dt2, self._gain, out=self._gain)
            self._force_gain = dt2 / (rho_h * dx * dx)
        for gain in (self._d.full, self._gain, self._force_gain):
            if not (np.isfinite(gain).all() and gain.all()):
                raise ValueError(
                    f"dx = {dx:.3e} m and dt = {dt:.3e} s leave dx^2, dt^2 or "
                    f"a step gain zero or out of float range"
                )

    def stencil_sum(self, src: PaddedField, out: np.ndarray) -> None:
        """Fill ``src``'s ghosts; write ``scale`` times its Laplacian over its span to ``out``."""
        src.fill_ghosts()
        at, tmp, w = src.shift, self._tmp, self.n + 4
        np.add(at[-w], at[w], out=out)
        np.add(out, at[-1], out=out)
        np.add(out, at[1], out=out)
        if self.space_order == 4:
            np.multiply(out, 16.0, out=out)
            for far in (-2 * w, 2 * w, -2, 2):
                np.subtract(out, at[far], out=out)
        np.multiply(at[0], self._centre, out=tmp)
        np.subtract(out, tmp, out=out)


# ---------------------------------------------------------------------------
# Time stepping
# ---------------------------------------------------------------------------

def leapfrog(
    operator: PlateOperator,
    w_prev: np.ndarray,
    w_curr: np.ndarray,
    step_count: int,
    forcing: Callable[[float], float] | None = None,
    source: GridPoint | None = None,
    *,
    record_every: int = 1,
    blow_up: float = math.inf,
) -> np.ndarray:
    """Central-difference steps from ``(w_prev, w_curr)``; the recorded history.

    ``w_prev`` and ``w_curr`` are ``(n, n)`` states in ``[m, l]`` order at
    t = -dt and t = 0, dt being the operator's.  ``forcing(t)``, when
    given, is the point force in N at node ``source`` (required with it)
    over the step that starts at time t.  Each step is

        w_next = (w + w) - w_prev + g * S(d * S(w)),

    with S the operator's stencil sum, d = D / s, g = -dt^2 / (s rho_h)
    and s the operator's ``scale``; the force adds f * (dt^2 / (rho_h
    dx^2)) at the source, so the step stays exactly linear in f.  Edges
    are pinned to zero after every step.  Steps run in the operator's
    buffers and allocate nothing.  Returns
    ``step_count // record_every + 1`` recorded states, ``w_curr`` first.

    Raises:
        DivergenceError: if any |w| is not finite or exceeds ``blow_up``,
            naming the first bad step.
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
        src_gain = op._force_gain[source.m, source.l]
    gain, tmp, stage, rise = op._gain, op._tmp, op.stage.span, op._rise
    # an overflow or NaN in a step is the divergence the loop checks for
    # itself, so numpy's own warning is silenced once, outside the loop
    with np.errstate(over="ignore", invalid="ignore"):
        for step in range(1, step_count + 1):
            op.stencil_sum(curr, stage)
            np.multiply(stage, op._d.span, out=stage)
            op.stencil_sum(op.stage, rise)
            np.multiply(rise, gain, out=rise)
            if forcing is not None:
                f_now = forcing((step - 1) * op.dt)
                if f_now != 0.0:
                    rise[src_idx] += f_now * src_gain
            # w_next = (w + w) - w_prev + rise, written over w_prev.
            nxt = prev.span
            np.add(curr.span, curr.span, out=tmp)
            np.subtract(tmp, nxt, out=nxt)
            np.add(nxt, rise, out=nxt)
            prev.pin_edges()
            # The span now holds nodes and zeros only; max/min need no
            # temporary, and a NaN still propagates to the peak.
            peak = max(float(nxt.max()), -float(nxt.min()))
            if not math.isfinite(peak) or peak > blow_up:
                raise DivergenceError(
                    f"explicit scheme diverged at step {step} "
                    f"(|w| reached {peak:.3e})"
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
    safety: float,
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
        ValueError: a bad argument, such as an unsupported space order,
            a side length whose dx^2, dt^2 or step gains are zero or out of
            float range, or (from ``PlateOperator``) a plate that is not
            square.
    """
    if step_count < 1:
        raise ValueError("step_count must be at least 1")
    if record_every < 1:
        raise ValueError("record_every must be at least 1")
    excitation.source.validate(n1, n2)

    dx = material.side_length / (n1 - 1)
    mmap = build_material_map(material, defects, n1, n2)
    dt = stable_timestep(mmap, dx, safety, space_order)
    operator = PlateOperator(mmap, dx, dt, space_order)

    source = effective_source(excitation.source, n1, n2)

    # Displacement scale of the driven lumped mass under the peak force held
    # for the whole burst; honest responses sit far below 1e6 times this.
    rho_min = float(np.min(mmap.areal_density))
    blow_up = 1e6 * abs(excitation.amplitude) * excitation.burst_duration**2 / (rho_min * dx * dx)

    rest = np.zeros((n2, n1))
    record = leapfrog(
        operator, rest, rest, step_count,
        lambda t: burst_force(t, excitation), source,
        record_every=record_every, blow_up=blow_up,
    )
    return DataCube(
        n1=n1, n2=n2, t_len=record.shape[0],
        dx=dx, dt=dt * record_every,
        values=record,
    )
