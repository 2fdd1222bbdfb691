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
  reads only the top of the spectrum.  The offsets share one pass per
  chunk of Grams, so numpy's per-call cost is paid once per chunk, not
  once per offset.  Each offset's fit is kept only when a Davis–Kahan
  bound certifies its basis at least as well placed as ``eigh``'s at the
  gap floor below; otherwise that offset alone goes to ``eigh``.
- Every other offset takes the full ``eigh`` of its Gram matrix.  Squaring
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
# 95 / 110 / 144 nodes took 0.60 / 0.65 / 0.79 / 0.90 / 1.17 / 1.70 ms on
# eigh and 0.74 / 0.71 / 0.78 / 0.83 / 0.93 / 1.09 ms in the batched fit:
# the fit overtakes eigh near order 90.  A 257-node sweep's 0.5 and 0.33
# masks (orders 144 and 95) take the fit, its 0.2 masks (58) stay on eigh.
_KRYLOV_ORDER = 90

# Bytes of Gram matrices built and fitted in one Lanczos pass, so that a
# pass's Grams stay in L2 (2 MiB per core on that Xeon).  Full-sampling
# bench1 detection (11 Grams of order 205, 336 KiB each) took 25.8 / 23.1 /
# 25.1 / 26.8 ms at budgets of 0.5 / 1 / 2 / 4 MiB, the last one pass of
# all 11; at the 0.5 mask (order 144) 1 MiB took 19.1 ms and one pass of
# all 11, 22.0 ms.  Offsets that go straight to eigh build each Gram just
# before its eigh instead: building them in such a pass made masked
# detection on the 129-node bench1_ci 3-14% slower.
_GRAM_CHUNK = 1 << 20

# Block width and block count of the Krylov basis (64 columns).  On the 33
# full-sampling offsets of bench1, bench2 and pristine, 8 x 8 certified
# every rank up to 22 with Ritz residuals at most 2.2e-14 λ₀, at 1.97 ms per
# offset; 16 x 5 took 2.41 ms, and 16 x 4 or 12 x 5 left residuals of 4e-8
# and 5e-10 λ₀, too large to certify.  Ranks whose r + 1 pairs do not fit in
# a third of the basis go to eigh without trying: certification thins out
# above rank 22.
_KRYLOV_BLOCK = 8
_KRYLOV_STEPS = 8

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


def _gather_snapshots(
    window_set: RegionalWindowSet, mask, offsets: int | None = None
) -> np.ndarray:
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


def _krylov_start(order: int) -> np.ndarray:
    """The fixed orthonormal start block of the Lanczos fit, (order, block).

    Its entries are the fractional parts of a sine hash, so the fit is
    deterministic and scale-invariant without loading ``numpy.random``.
    """
    i = np.arange(order * _KRYLOV_BLOCK, dtype=np.float64)
    h = np.sin(i * 12.9898 + 78.233) * 43758.5453
    return np.linalg.qr((h - np.floor(h) - 0.5).reshape(order, _KRYLOV_BLOCK))[0]


def _lanczos_bases(grams: np.ndarray, rank: int, start: np.ndarray) -> list:
    """Certified top-``rank`` eigenvectors and λ₀ of each Gram in a stack.

    Returns one entry per Gram: its (eigenvectors, λ₀), or None when the
    fit cannot certify itself.  All Grams share one pass: each block of
    their bases Q is G times the one before it, made orthogonal to all
    earlier blocks by two classical Gram–Schmidt passes and then
    orthonormalized by QR.  Rayleigh–Ritz on Q (m columns) gives Ritz values
    θ₀ >= θ₁ >= ... and the Ritz vectors V of the top r.  Each Gram's fit is
    certified on its own, with λ₀ >= λ₁ >= ... >= 0 the eigenvalues of G:

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
    plates the angle bound stays below 2e-11 at full sampling and below
    5e-11 on the 0.5 and 0.33 masks of seeds 0 to 9.
    """
    count, order, _ = grams.shape
    width = start.shape[1]
    m = width * _KRYLOV_STEPS
    q = np.empty((count, order, m))
    gq = np.empty((count, order, m))
    q[:, :, :width] = start
    for j in range(0, m, width):
        gq[:, :, j:j + width] = w = grams @ q[:, :, j:j + width]
        if j + width < m:
            done = q[:, :, :j + width]
            for _ in range(2):
                w -= done @ (np.swapaxes(done, 1, 2) @ w)
            q[:, :, j + width:j + 2 * width] = np.linalg.qr(w)[0]
    drift = np.swapaxes(q, 1, 2) @ q - np.eye(m)
    keep = np.flatnonzero(np.max(np.abs(drift), axis=(1, 2)) <= _ORTH)
    q, gq = q[keep], gq[keep]
    theta, y = np.linalg.eigh(np.swapaxes(q, 1, 2) @ gq)
    trace = np.trace(grams, axis1=1, axis2=2)[keep]
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


def _fitted_grams(stack: np.ndarray, rank: int, start: np.ndarray | None):
    """Yield each offset's snapshot, Gram matrix and certified Lanczos fit.

    The fit is None where there is none.  Without a Lanczos ``start`` block
    (``_krylov_start`` of the Gram order) each Gram is built just before its
    offset is scored, while it is hot in cache.  With one, the Grams are
    built ``_GRAM_CHUNK`` bytes at a time by one batched product, and each
    chunk is fitted by ``_lanczos_bases`` in one pass.
    """
    wide = stack.shape[1] <= stack.shape[2]
    if start is None:
        for x in stack:
            yield x, x @ x.T if wide else x.T @ x, None
        return
    order = start.shape[0]
    chunk = max(1, _GRAM_CHUNK // (8 * order * order))
    for lo in range(0, len(stack), chunk):
        xs = stack[lo:lo + chunk]
        xt = np.swapaxes(xs, 1, 2)
        grams = xs @ xt if wide else xt @ xs
        yield from zip(xs, grams, _lanczos_bases(grams, rank, start))


def _residual_energies(
    x: np.ndarray, gram: np.ndarray, rank: int, fit=None
) -> tuple[np.ndarray, float]:
    """Column energies of x minus its best rank-r approximation, and λ₀.

    The basis comes from ``gram``, the smaller Gram matrix of x, whose
    largest eigenvalue λ₀ (s₀²) is returned too, and the residual is formed
    explicitly.  ``fit`` is a certified Lanczos (basis, λ₀) from
    ``_fitted_grams``; without one the basis is ``eigh``'s.  An ``eigh``
    spectrum whose gap at the rank has closed falls back to a thin SVD.
    """
    rows, cols = x.shape
    if fit is None:
        lam, vecs = np.linalg.eigh(gram)
        below = lam[-rank - 1] if rank < lam.size else 0.0
        if not lam[-rank] - below > _GRAM_GAP * lam[-1]:
            u, s, vt = np.linalg.svd(x, full_matrices=False)
            resid = x - (u[:, :rank] * s[:rank]) @ vt[:rank]
            return np.sum(resid * resid, axis=0), float(lam[-1])
        fit = vecs[:, -rank:], float(lam[-1])
    basis, lam0 = fit
    if rows <= cols:
        resid = x - basis @ (basis.T @ x)
    else:
        resid = x - (x @ basis) @ basis.T
    return np.sum(resid * resid, axis=0), lam0


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
    value) is treated as exactly reconstructed and contributes no outliers
    (guards the full-rank edge, where residuals are float dust).  No full
    SVD is taken except for offsets whose Gram gap at the rank has closed.

    ``mask`` is None (every node) or a ``sampling.Mask``.  The snapshots of
    every offset are gathered in one pass (``_gather_snapshots``).

    Raises:
        RankError: the rank is outside [1, min(snapshot shape)].
        MaskError: the mask was built for another region size.
    """
    part = window_set.partition
    stack = _gather_snapshots(window_set, mask)
    limit = min(stack.shape[1:])
    if not 1 <= rank <= limit:
        raise RankError(
            f"rank {rank} outside [1, {limit}] for a "
            f"{stack.shape[1]} x {stack.shape[2]} snapshot"
        )

    # every offset shares the Gram order, so one start block serves them all
    start = None
    if limit >= _KRYLOV_ORDER and rank < _KRYLOV_BLOCK * _KRYLOV_STEPS // 3:
        start = _krylov_start(limit)
    fits = [
        _residual_energies(x, gram, rank, fit)
        for x, gram, fit in _fitted_grams(stack, rank, start)
    ]
    dust = fits[0][1] * _DUST
    counts = np.zeros(stack.shape[2])
    for energies, _ in fits:
        if float(np.max(energies)) > dust:
            counts += salient_columns(energies, ratio)

    fractions = np.full((part.regions_x, part.regions_y), np.nan)
    # the transposes walk (a, b) in column order a + regions_x * b
    fractions.T[window_set.active.T] = counts / window_set.window_len
    return SaliencyMap(
        fractions=fractions,
        active=window_set.active,
        window_len=window_set.window_len,
    )


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
