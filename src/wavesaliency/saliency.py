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

``score_offsets`` gathers the snapshots of every offset in one stack and
fits each with a rank-r basis on its smaller side: the left basis U when
rows <= regions, else the right basis V.  One projection forms every
residual explicitly, X − U(UᵀX) or X − (XV)Vᵀ, never as ‖x‖² − ‖Uᵀx‖²,
whose cancellation error would rise above the dust floor.  This is the one
statement of the fit rule.  ``score_offsets`` picks each offset's fit from
the mask's rows, the Gram order and the rank before any fit, and the
certificate and the gap may then move an offset on:

- Under full sampling or a shared mask, a Gram matrix of order at least
  ``_KRYLOV_ORDER`` = 90 (at 257 nodes: full sampling and the 0.5 and
  0.33 sweep masks, orders 205, 144 and 95), at a rank whose r + 1
  eigenpairs fit in a third of the ``_KRYLOV_BLOCK`` × ``_KRYLOV_STEPS`` =
  56-column Krylov basis (r <= 17), is fitted by block Lanczos with
  Rayleigh–Ritz (``_lanczos_bases``).  The fit reads only the top of the
  spectrum and never builds a tall snapshot's Gram: it applies it as
  Xᵀ(X·).  The offsets share one pass per ``_GRAM_CHUNK`` = 2 MiB of what
  the pass holds (each offset's basis, its image under the Gram matrix,
  and a wide snapshot's Gram or a tall snapshot itself), so numpy's
  per-call cost is paid once per pass.  Each offset's fit is kept only
  when a Davis–Kahan bound certifies its basis at least as well placed as
  ``eigh``'s at the gap floor below; else that offset alone goes to
  ``eigh``, and the record marks it ``refused``.
- A per-region mask (two-dimensional rows, one node pattern per column)
  never tries the fit.  Its columns hold different nodes, so its snapshot
  is not low rank and no fit of it certifies: on ``bench1`` the pass
  certified 0 of 110 offsets at each of 0.5 and 0.33 (ten seeds).
- Every other offset builds its Gram matrix once and takes its ``eigh``.
  Squaring X halves its relative precision: eigh places the basis to
  about eps·λ₀/(λ_r − λ_{r+1}).
- An ``eigh`` offset whose Gram eigengap at the rank is at most
  ``_GRAM_GAP`` = 1e-8 λ₀ (a rank in the noise floor, or above the
  snapshot's exact rank) takes instead the leading singular vectors of a
  thin SVD on the same side (Halko, Martinsson & Tropp 2011,
  arXiv:0909.4061, §5); λ₀ stays ``eigh``'s.  Only ``eigh``'s eigenvalues
  take that decision: a Lanczos fit never certifies a gap that small.

The rank is an input of the model, never chosen from the data.  The dust
floor is ``_DUST`` = 1e-24 of λ₀ of the tau = 0 Gram matrix: an offset
whose peak energy is at or below it is exactly reconstructed and yields no
outlier.  So scoring takes no full SVD outside the gap fallback; the full
tau = 0 spectrum exists only for ``detect``'s manifest
(``snapshot_spectrum``).

``score_offsets`` resolves the mask to snapshot ``rows`` once and returns
one read-only ``OffsetScores`` (``energies``, ``live``, ``lam0``, fit
``paths``, ``refused`` Lanczos fits, ``rows``; no snapshot, Gram matrix or
basis); ``saliency_map`` decides from it and keeps it, read as
``run_detection(...).saliency.scores``, and ``snapshot_spectrum`` gathers
offset 0 again from its ``rows``.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .cube import pgm_text
from .errors import ConfigError
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
    """Entries whose energy strictly exceeds ratio * the peak p of their last-axis row.

    At ratio 1.0 even the maximum itself is not selected, and a row with
    p <= 0 selects nothing, since there every energy e <= p <= ratio * p.
    """
    e = np.asarray(energies, dtype=np.float64)
    if e.size == 0:
        raise ValueError("empty energy list")
    if not 0.0 < ratio <= 1.0:
        raise ValueError(f"ratio must be in (0, 1], got {ratio}")
    return e > ratio * np.max(e, axis=-1, keepdims=True)


@dataclass(frozen=True)
class OffsetScores:
    """What ``score_offsets`` found at each window offset; arrays read-only.

    ``energies`` is (offsets, active regions) in region order; ``live`` marks
    the offsets whose peak clears offset 0's dust floor; ``lam0`` is each
    offset's λ₀; ``paths`` names its fit, ``"lanczos"``, ``"eigh"`` or
    ``"svd"``; ``refused`` marks a Lanczos fit tried and turned away;
    ``rows`` are the mask's ``row_indices``, None under full sampling.
    """

    energies: np.ndarray = field(repr=False)
    live: np.ndarray = field(repr=False)
    lam0: np.ndarray = field(repr=False)
    paths: tuple[str, ...]
    refused: np.ndarray = field(repr=False)
    rows: np.ndarray | None = field(repr=False)

    def __post_init__(self):
        for name in ("energies", "live", "lam0", "refused", "rows"):
            if getattr(self, name) is not None:
                getattr(self, name).flags.writeable = False


@dataclass(frozen=True)
class SaliencyMap:
    """Fraction of window offsets at which each region was an outlier.

    ``fractions`` is (regions_x, regions_y) with NaN marking inactive
    regions; ``active`` is the scored window set's own read-only activity
    grid, ``window_len`` the offsets each fraction counts, ``scores`` their record.
    """

    fractions: np.ndarray = field(repr=False)
    active: np.ndarray = field(repr=False)
    window_len: int
    scores: OffsetScores = field(repr=False, compare=False)

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


def _gather_snapshots(windows: np.ndarray, rows: np.ndarray | None) -> np.ndarray:
    """C-contiguous (tau, rows, cols) stack of the snapshots of ``windows``.

    ``windows`` is a window set's (tau, nodes, active regions) array, or its
    leading offsets.  Columns are the active regions in region order
    (a + regions_x * b); rows every node (``rows`` None) or the nodes a
    mask's ``row_indices`` keep, flattened x-fastest: one index vector for
    every column, or one column of indices per column.  Full sampling
    returns ``windows`` itself, not a copy.
    """
    if rows is None:
        return windows
    cols = windows.shape[2]
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


def score_offsets(window_set: RegionalWindowSet, rank: int, mask=None) -> OffsetScores:
    """Fit every window offset's snapshot at ``rank`` and score its columns.

    The fit follows the rule of the module docstring, chosen from the mask's
    rows before any fit: a per-region mask's offsets go straight to
    ``eigh``, each building one Gram matrix, and never start a Lanczos pass.
    ``mask`` and the errors are ``saliency_map``'s; its rows are drawn once
    and kept as the record's ``rows``.
    """
    windows, part = window_set.windows, window_set.partition
    picked = None if mask is None else mask.row_indices(part.p1, part.p2, windows.shape[2])
    stack = _gather_snapshots(windows, picked)
    count, rows, cols = stack.shape
    order, m = min(rows, cols), _KRYLOV_BLOCK * _KRYLOV_STEPS
    if not 1 <= rank <= order:
        raise ConfigError(f"rank {rank} outside [1, {order}] for a "
                          f"{rows} x {cols} snapshot")
    wide = rows <= cols
    shared = picked is None or picked.ndim == 1
    tried = shared and order >= _KRYLOV_ORDER and rank < m // 3
    held = 8 * order * (2 * m + (order if wide else rows))
    chunk = max(1, _GRAM_CHUNK // held) if tried else count
    energies, lam0, paths = np.empty((count, cols)), np.empty(count), [""] * count
    for lo in range(0, count, chunk):
        xs = stack[lo:lo + chunk]
        fits = _lanczos_bases(xs, rank, _krylov_start(order)) if tried else [None] * len(xs)
        for k, (x, fit) in enumerate(zip(xs, fits), lo):
            if fit is not None:
                basis, lam0[k] = fit
                paths[k] = "lanczos"
            else:
                lam, vecs = np.linalg.eigh(_gram(x))
                lam0[k] = lam[-1]
                below = lam[-rank - 1] if rank < order else 0.0
                basis, paths[k] = vecs[:, -rank:], "eigh"
                if lam[-rank] - below <= _GRAM_GAP * lam[-1]:
                    u, _, vt = np.linalg.svd(x, full_matrices=False)
                    basis, paths[k] = u[:, :rank] if wide else vt[:rank].T, "svd"
            # the projection turns into the residual, then its square, in place
            r = basis @ (basis.T @ x) if wide else (x @ basis) @ basis.T
            np.subtract(x, r, out=r)
            r *= r
            energies[k] = r.sum(axis=0)
    live = np.max(energies, axis=1) > lam0[0] * _DUST
    refused = np.array([tried and path != "lanczos" for path in paths])
    return OffsetScores(energies, live, lam0, tuple(paths), refused, picked)


def saliency_map(
    window_set: RegionalWindowSet,
    rank: int,
    ratio: float = DEFAULT_ENERGY_RATIO,
    mask=None,
) -> SaliencyMap:
    """Score every region by how often it escapes the shared low-rank model.

    One rank is used for all window offsets.  Every decision is read from
    ``score_offsets``' record: an energy is an outlier when it strictly
    exceeds ``ratio`` times its offset's peak and that offset is ``live``
    (its peak is not float dust), and a region's saliency is its count of
    outliers over the window length.  ``mask`` is None (every node) or a
    ``sampling.Mask``.

    Raises:
        ConfigError: the rank is outside [1, min(snapshot shape)], or the
            mask was built for another region size.
    """
    part = window_set.partition
    scores = score_offsets(window_set, rank, mask)
    hits = salient_columns(scores.energies, ratio) & scores.live[:, None]
    fractions = np.full((part.regions_x, part.regions_y), np.nan)
    # the transposes walk (a, b) in column order a + regions_x * b
    fractions.T[window_set.active.T] = np.count_nonzero(hits, axis=0) / window_set.window_len
    return SaliencyMap(fractions=fractions, active=window_set.active,
                       window_len=window_set.window_len, scores=scores)


def snapshot_spectrum(window_set: RegionalWindowSet, scores: OffsetScores) -> np.ndarray:
    """Singular values of the tau = 0 snapshot that ``scores`` fitted.

    Scoring never needs them; ``detect`` writes them to its manifest.  The
    snapshot is gathered from ``scores.rows``, so no mask is drawn again.
    """
    first = _gather_snapshots(window_set.windows[:1], scores.rows)
    return np.linalg.svd(first[0], compute_uv=False)


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


def flags_text(flagged) -> str:
    """The flagged regions, sorted, as one ``a b`` line each: the ``.flags.txt`` text."""
    return "".join(f"{a} {b}\n" for a, b in sorted(flagged))


def saliency_pgm_texts(sal: SaliencyMap) -> tuple[str, str]:
    """ASCII PGM texts of the heat map and of its activity mask.

    Heat map pixel (row b, column a) is round(255 * fraction), with inactive
    regions forced to 255; the activity mask, the CLI's second PGM, tells
    them apart: 255 = active, 0 = inactive.
    """
    shade = np.full(sal.shape, 255)
    shade[sal.active] = np.round(255.0 * sal.fractions[sal.active])
    return pgm_text(shade), pgm_text(np.where(sal.active, 255, 0))
