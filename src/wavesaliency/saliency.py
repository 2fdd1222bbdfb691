"""Low-rank background removal and per-region saliency scoring.

At each window offset tau, the regional windows are stacked into a snapshot
matrix whose columns are regions and whose rows are (possibly subsampled)
in-region node samples.  Because every region sees nearly the same burst,
just shifted to its own transit window, the matrix is close to low rank;
regions whose response deviates from the shared pattern — i.e. defective
ones — stick out of the best rank-r subspace (the column-outlier model of
Xu, Caramanis & Sanghavi, arXiv:1010.4237).  A region's outlier energy is
the squared norm of its column of the residual left after subtracting the
rank-r part, and its saliency is the fraction of window offsets at which
that energy exceeds a fixed ratio of the snapshot's peak energy.

``saliency_map`` gathers the snapshots of every offset in one stack and
fits each with the rank-r basis of the smaller Gram matrix: the left basis
U of X Xᵀ when rows <= regions, else the right basis V of Xᵀ X.  The
residual is formed explicitly, X − U(UᵀX) or X − (XV)Vᵀ, never as
‖x‖² − ‖Uᵀx‖², whose cancellation error would rise above the dust floor.
The basis comes from one of three fits, chosen per offset:

- Gram matrices of order at least ``_KRYLOV_ORDER`` (at 257 nodes: full
  sampling and the 0.5 and 0.33 sweep masks, orders 205, 144 and 95), at a
  rank whose r + 1 eigenpairs fit in a third of the Krylov basis, are
  fitted by block Lanczos with Rayleigh–Ritz (``_lanczos_bases``), which
  reads only the top of the spectrum and never builds a tall snapshot's
  Gram.  The offsets share one pass per chunk, so numpy's per-call cost
  is paid once per chunk.  Each offset's fit is kept only when a
  Davis–Kahan bound certifies its basis at least as well placed as
  ``eigh``'s at the gap floor below; else that offset alone goes to ``eigh``.
- Every other offset builds its Gram matrix and takes its ``eigh``.  Squaring
  X halves its relative precision: eigh places the basis to about
  eps·λ₀/(λ_r − λ_{r+1}).
- An ``eigh`` offset whose Gram eigengap at the rank is at most 1e-8 λ₀ (a
  rank in the noise floor, or above the snapshot's exact rank) is refitted
  with a thin SVD instead (Halko, Martinsson & Tropp 2011,
  arXiv:0909.4061, §5).  Only ``eigh``'s eigenvalues take that decision:
  a Lanczos fit never certifies a gap that small.

The rank is an input of the model, never chosen from the data.  The dust
floor comes from λ₀ of the tau = 0 Gram matrix, so scoring takes no full
SVD outside that fallback; the full tau = 0 spectrum exists only for
``detect``'s manifest (``snapshot_spectrum``).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .cube import write_pgm
from .errors import RankError
from .windowing import RegionalWindowSet

DEFAULT_ENERGY_RATIO = 0.25
DEFAULT_DECISION_THRESHOLD = 0.5

# Residual energies at or below this fraction of the tau = 0 Gram's lambda_0
# (that is, below (1e-12 s_0)^2) are round-off: such a snapshot is exactly
# reconstructed.
_DUST = 1e-24

# An offset whose Gram eigengap at the rank, lambda_r - lambda_(r+1), is at
# most this fraction of lambda_0 is refitted by SVD.  eigh places the basis
# to about eps * lambda_0 / gap, so above the floor the residual energies
# agree with the SVD's to about 1e-8 of the peak; below it they drift apart.
_GRAM_GAP = 1e-8

# Block Lanczos replaces eigh for Gram matrices of at least this order.
# Scoring one bench1 offset at rank 14 (Gram, fit and residual; 11 offsets
# per detection, one BLAS thread, 2-core Xeon), masks keeping 70 / 80 / 90 /
# 95 / 110 / 144 nodes took 1.10 / 1.19 / 1.43 / 1.58 / 1.92 / 2.85 ms on
# eigh and 1.17 / 1.16 / 1.23 / 1.26 / 1.48 / 1.82 ms in the batched fit.
# They tie near order 80, but no sweep mask has an order from 80 to 89:
# 0.5 and 0.33 masks (144, 95) take the fit, 0.2 masks (58) stay on eigh.
_KRYLOV_ORDER = 90

# Bytes one Lanczos pass holds: per offset Q, GQ and the operand each step
# reads.  At budgets of 0.5 / 1 / 2 / 4 MiB, bench1 detection took 27.5 /
# 27.1 / 24.1 / 23.9 ms at full sampling (642 KiB per offset), 21.9 / 17.8 /
# 18.1 / 20.8 ms at the 0.5 mask (288 KiB) and 15.8 / 13.4 / 13.2 / 12.5 ms
# at 0.33 (154 KiB).  Offsets that go straight to eigh build each Gram just
# before its eigh instead: building them in such a pass made masked
# detection on the 129-node bench1_ci 3-14% slower.
_GRAM_CHUNK = 2 << 20

# Block width and block count of the Krylov basis (56 columns).  8 x 7
# certified every offset of bench1, bench2 and pristine at their ranks (14,
# 14, 8) at full sampling and on the 0.5 and 0.33 masks of seeds 0-49, in
# 1.92-2.11 ms per full-sampling offset (8 x 8: 2.46-2.58 ms); 8 x 6
# certified 3 of 11 bench1 and 0 of 11 bench2 offsets.  Ranks whose r + 1
# pairs do not fit in a third of the basis (18 and up) go to eigh.
_KRYLOV_BLOCK = 8
_KRYLOV_STEPS = 7

# A basis whose Gram QᵀQ departs from the identity by more than this (in
# any entry) is not trusted.  Two Gram–Schmidt passes keep it below 7e-14 on
# the bundled plates; a Gram matrix of lower rank than the basis breaks down
# to O(1).
_ORTH = 1e-12


def salient_columns(energies, ratio: float = DEFAULT_ENERGY_RATIO) -> np.ndarray:
    """Columns whose energy strictly exceeds ratio * max energy.

    The comparison is strict, so at ratio 1.0 even the maximum itself is
    not selected, and an all-zero energy vector selects nothing.
    """
    e = np.asarray(energies, dtype=np.float64)
    if e.size == 0:
        raise ValueError("empty energy list")
    if not 0.0 < ratio <= 1.0:
        raise ValueError(f"ratio must be in (0, 1], got {ratio}")
    peak = float(np.max(e))
    if peak <= 0.0:
        return np.zeros(e.shape, dtype=bool)
    return e > ratio * peak


@dataclass(frozen=True)
class SaliencyMap:
    """Fraction of window offsets at which each region was an outlier.

    ``fractions`` is (regions_x, regions_y) with NaN marking inactive
    regions; ``active`` is the scored window set's own read-only activity
    grid, and ``window_len`` the number of offsets each fraction counts.
    """

    fractions: np.ndarray = field(repr=False)
    active: np.ndarray = field(repr=False)
    window_len: int

    def __post_init__(self):
        for name in ("fractions", "active"):
            getattr(self, name).flags.writeable = False

    @property
    def shape(self) -> tuple[int, int]:
        return self.fractions.shape

    def flagged_regions(
        self, threshold: float = DEFAULT_DECISION_THRESHOLD
    ) -> frozenset[tuple[int, int]]:
        """Regions (a, b) whose saliency fraction is >= threshold.

        Inactive regions are never flagged.
        """
        if not 0.0 < threshold <= 1.0:
            raise ValueError(f"threshold must be in (0, 1], got {threshold}")
        with np.errstate(invalid="ignore"):
            hit = self.active & (self.fractions >= threshold)
        return frozenset((int(a), int(b)) for a, b in np.argwhere(hit))


def _gather_snapshots(window_set: RegionalWindowSet, mask,
                      offsets: int | None = None) -> np.ndarray:
    """C-contiguous (tau, rows, cols) stack of the first ``offsets`` snapshots.

    ``offsets`` None takes every offset.  Columns are the active regions in
    region order (a + regions_x * b), as the window set stores them; rows
    every node or the mask's retained nodes, flattened x-fastest; a
    per-region mask gives each column its own nodes.  Full sampling returns
    the window set's own read-only array, not a copy.  The mask's rows are
    resolved once, so a per-region mask draws its patterns once per call.
    """
    part = window_set.partition
    windows = window_set.windows[:offsets]
    if mask is None:
        return windows
    cols = windows.shape[2]
    rows = mask.row_indices(part.p1, part.p2, cols)
    if rows.ndim == 1:
        return np.take(windows, rows, axis=1)
    # One take on the (tau, node * column) view: entry (i, j) of every
    # offset's snapshot is node rows[i, j] of column j.
    flat = windows.reshape(windows.shape[0], -1)
    return np.take(flat, rows * cols + np.arange(cols), axis=1)


@functools.cache
def _krylov_start(order: int) -> np.ndarray:
    """The fixed orthonormal start block of the Lanczos fit, (order, block).

    Its entries are the fractional parts of a sine hash, so the fit is
    deterministic and scale-invariant without loading ``numpy.random``.
    It is built once per order and shared, so it is read-only.
    """
    i = np.arange(order * _KRYLOV_BLOCK, dtype=np.float64)
    h = np.sin(i * 12.9898 + 78.233) * 43758.5453
    start = np.linalg.qr((h - np.floor(h) - 0.5).reshape(order, _KRYLOV_BLOCK))[0]
    start.flags.writeable = False
    return start


def _gram(x: np.ndarray) -> np.ndarray:
    """The smaller Gram matrix of a snapshot, or of each one in a stack."""
    xt = np.swapaxes(x, -1, -2)
    return x @ xt if x.shape[-2] <= x.shape[-1] else xt @ x


def _lanczos_bases(stack: np.ndarray, rank: int, start: np.ndarray) -> list:
    """Certified top-``rank`` eigenvectors and λ₀ of each snapshot's Gram G.

    G is the smaller Gram matrix, with tr G = ‖X‖_F²: a wide snapshot's is
    built, a tall one's applied as Xᵀ(X·).  Returns one entry per snapshot,
    its (eigenvectors, λ₀), or None when the fit cannot certify itself.
    All snapshots share one pass: each block of their bases Q is G times
    the one before it, made orthogonal to all earlier blocks by two
    classical Gram–Schmidt passes and then orthonormalized by QR.
    Rayleigh–Ritz on Q (m columns) gives Ritz values θ₀ >= θ₁ >= ... and
    the Ritz vectors V of the top r.  Each fit is certified on its own,
    with λ₀ >= λ₁ >= ... >= 0 the eigenvalues of G:

    - A Q that departs from orthonormality by more than ``_ORTH`` is turned
      away before Rayleigh–Ritz.
    - Cauchy interlacing gives θ_i <= λ_i.  Since tr G sums every λ, the
      eigenvalue λ_r (the (r+1)-th) is at most θ_r + μ, where μ = tr G − Σθ
      is the Gram mass the basis misses; likewise λ₀ <= θ₀ + μ.  Q departs
      from orthonormality by at most m·``_ORTH`` in norm, which by
      Ostrowski's theorem moves each θ by that share of itself: μ takes
      4·m·``_ORTH``·tr G on top, for that and the rounding of QᵀGQ.
    - So δ = θ_{r−1} − θ_r − μ is at most the true gap λ_{r−1} − λ_r.  By
      the Davis–Kahan sin Θ theorem, the angle between V and the true top-r
      eigenspace is at most ‖GV − VΘ‖_F / δ.
    - eigh places its basis to about eps·λ₀/gap, that is to eps/1e-8 at its
      gap floor.  The fit is kept only when δ > 1e-8 (θ₀ + μ), so the true
      gap clears that floor and the SVD fallback could not apply, and when
      its angle bound is at most eps/1e-8.  Each residual energy then moves
      by at most twice that angle times λ₀, as far as eigh's may at the
      floor.

    Pair r's Ritz value enters only through the bound on λ_r, which the
    trace supplies, so its residual is not needed.  On the bundled 257-node
    plates the angle bound stays below 2e-9 at full sampling and below 4e-9
    on the 0.5 and 0.33 masks of seeds 0 to 49.
    """
    count, rows, cols = stack.shape
    xt = np.swapaxes(stack, 1, 2)
    grams = _gram(stack) if rows <= cols else None
    trace = np.einsum("tij,tij->t", stack, stack)
    order, width = start.shape
    m = width * _KRYLOV_STEPS
    q = np.empty((count, order, m))
    gq = np.empty((count, order, m))
    q[:, :, :width] = start
    for j in range(0, m, width):
        block = q[:, :, j:j + width]
        w = xt @ (stack @ block) if grams is None else grams @ block
        gq[:, :, j:j + width] = w
        if j + width < m:
            done = q[:, :, :j + width]
            for _ in range(2):
                w -= done @ (np.swapaxes(done, 1, 2) @ w)
            q[:, :, j + width:j + 2 * width] = np.linalg.qr(w)[0]
    drift = np.swapaxes(q, 1, 2) @ q - np.eye(m)
    keep = np.flatnonzero(np.max(np.abs(drift), axis=(1, 2)) <= _ORTH)
    if keep.size < count:
        q, gq, trace = q[keep], gq[keep], trace[keep]
    theta, y = np.linalg.eigh(np.swapaxes(q, 1, 2) @ gq)
    missing = trace - np.sum(theta, axis=1) + 4 * m * _ORTH * trace
    gap = theta[:, -rank] - theta[:, -rank - 1] - missing
    y = y[:, :, -rank:]
    vecs = q @ y
    resid = gq @ y - vecs * theta[:, None, -rank:]
    angle = np.sqrt(np.sum(resid * resid, axis=(1, 2)))
    certified = (gap > _GRAM_GAP * (theta[:, -1] + missing)) & (
        angle <= np.finfo(np.float64).eps / _GRAM_GAP * gap
    )
    fits = [None] * count
    for k in np.flatnonzero(certified):
        fits[keep[k]] = vecs[k], float(theta[k, -1])
    return fits


def _fitted_grams(stack: np.ndarray, rank: int):
    """Yield each offset's snapshot and its certified Lanczos fit, or None.

    Gram orders of at least ``_KRYLOV_ORDER``, at ranks whose r + 1 pairs
    fit in a third of the basis, are fitted by ``_lanczos_bases`` in passes
    of ``_GRAM_CHUNK`` bytes, counting per offset Q, GQ and the operand each
    step reads: a wide snapshot's Gram, a tall snapshot itself.
    """
    count, rows, cols = stack.shape
    order, m = min(rows, cols), _KRYLOV_BLOCK * _KRYLOV_STEPS
    if order < _KRYLOV_ORDER or rank >= m // 3:
        yield from ((x, None) for x in stack)
        return
    start = _krylov_start(order)
    held = 8 * order * (2 * m + (order if rows <= cols else rows))
    chunk = max(1, _GRAM_CHUNK // held)
    for lo in range(0, count, chunk):
        xs = stack[lo:lo + chunk]
        yield from zip(xs, _lanczos_bases(xs, rank, start))


def _residual_energies(x: np.ndarray, rank: int,
                       fit=None) -> tuple[np.ndarray, float]:
    """Column energies of x minus its best rank-r approximation, and λ₀.

    λ₀ (s₀²) is the largest eigenvalue of x's smaller Gram matrix.  ``fit``
    is a certified Lanczos (basis, λ₀) from ``_fitted_grams``; without one
    the Gram matrix is built here and the basis is its ``eigh``'s, or a thin
    SVD's where the ``eigh`` gap at the rank has closed.
    """
    rows, cols = x.shape
    if fit is None:
        lam, vecs = np.linalg.eigh(_gram(x))
        lam0 = float(lam[-1])
        below = lam[-rank - 1] if rank < lam.size else 0.0
        if lam[-rank] - below > _GRAM_GAP * lam0:
            fit = vecs[:, -rank:], lam0
        else:
            u, s, vt = np.linalg.svd(x, full_matrices=False)
            r = (u[:, :rank] * s[:rank]) @ vt[:rank]
    if fit is not None:
        basis, lam0 = fit
        r = basis @ (basis.T @ x) if rows <= cols else (x @ basis) @ basis.T
    # the rank-r part turns into the residual, then its square, in place
    np.subtract(x, r, out=r)
    r *= r
    return r.sum(axis=0), lam0


def saliency_map(
    window_set: RegionalWindowSet,
    rank: int,
    ratio: float = DEFAULT_ENERGY_RATIO,
    mask=None,
) -> SaliencyMap:
    """Score every region by how often it escapes the shared low-rank model.

    One rank is used for all window offsets.  At each offset, a region is an
    outlier when its residual energy strictly exceeds ``ratio`` times that
    offset's peak energy; its saliency is the count of such offsets over the
    window length.

    A snapshot whose residual energies are all at or below 1e-24 times λ₀ of
    the tau = 0 Gram matrix (the square of 1e-12 times the leading singular
    value) is exactly reconstructed and contributes no outliers: at the
    full-rank edge residuals are float dust.  ``mask`` is None (every node)
    or a ``sampling.Mask``.

    Raises:
        RankError: the rank is outside [1, min(snapshot shape)].
        MaskError: the mask was built for another region size.
    """
    part = window_set.partition
    stack = _gather_snapshots(window_set, mask)
    limit = min(stack.shape[1:])
    if not 1 <= rank <= limit:
        raise RankError(f"rank {rank} outside [1, {limit}] for a "
                        f"{stack.shape[1]} x {stack.shape[2]} snapshot")

    fits = [_residual_energies(x, rank, fit) for x, fit in _fitted_grams(stack, rank)]
    dust = fits[0][1] * _DUST
    counts = np.zeros(stack.shape[2])
    for energies, _ in fits:
        if float(np.max(energies)) > dust:
            counts += salient_columns(energies, ratio)

    fractions = np.full((part.regions_x, part.regions_y), np.nan)
    # the transposes walk (a, b) in column order a + regions_x * b
    fractions.T[window_set.active.T] = counts / window_set.window_len
    return SaliencyMap(fractions=fractions, active=window_set.active,
                       window_len=window_set.window_len)


def snapshot_spectrum(window_set: RegionalWindowSet, mask=None) -> np.ndarray:
    """Singular values of the tau = 0 snapshot that ``saliency_map`` scores.

    Scoring never needs them; ``detect`` writes them to its manifest.
    """
    first = _gather_snapshots(window_set, mask, offsets=1)[0]
    return np.linalg.svd(first, compute_uv=False)


# ---------------------------------------------------------------------------
# Exports
# ---------------------------------------------------------------------------

def saliency_csv_text(sal: SaliencyMap) -> str:
    """The fraction grid as CSV: row a (x region), column b (y region).

    Inactive regions are written as ``NA``.
    """
    r1, r2 = sal.shape
    return "".join(
        ",".join(
            f"{sal.fractions[a, b]:.6f}" if sal.active[a, b] else "NA"
            for b in range(r2)
        ) + "\n"
        for a in range(r1)
    )


def write_saliency_pgm(sal: SaliencyMap, path) -> None:
    """Write an ASCII PGM heat map plus an activity-mask sidecar.

    Pixel (row b, column a) is round(255 * fraction); inactive regions are
    forced to 255 and distinguished through ``<stem>.mask.pgm`` (255 =
    active, 0 = inactive).
    """
    shade = np.full(sal.shape, 255)
    shade[sal.active] = np.round(255.0 * sal.fractions[sal.active])
    write_pgm(path, shade)
    write_pgm(Path(path).with_suffix(".mask.pgm"), np.where(sal.active, 255, 0))
