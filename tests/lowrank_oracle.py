"""Per-snapshot truncated-SVD scoring: the reference the detector is held to.

``wavesaliency.saliency.saliency_map`` gathers every window offset in one
stack and fits each offset's rank-r model through the smaller Gram matrix.
This module keeps the plain route it replaced: assemble one snapshot matrix
at a time, split it with a full SVD, and take the column energies of the
remainder.  ``oracle_counts`` runs that route over a whole window set, so a
test can compare the detector's counts with it offset by offset.  It writes
out the salient-column rule itself (``_salient``), so a fault in the
package's ``salient_columns`` cannot pass a comparison with the oracle.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from wavesaliency.windowing import RegionalWindowSet

# Relative floor below which residual energies are float dust, as in the
# detector: (1e-12 * leading singular value) squared.
_TINY = 1e-12


@dataclass(frozen=True)
class SnapshotMatrix:
    """One tau-offset slice across all active regions.

    ``values`` is (row_dim, active_region_count); column j belongs to region
    ``column_labels[j]``.
    """

    values: np.ndarray = field(repr=False)
    column_labels: list[tuple[int, int]]
    tau: int

    def __post_init__(self):
        if self.values.ndim != 2:
            raise ValueError("snapshot matrix must be 2-D")
        if self.values.shape[1] != len(self.column_labels):
            raise ValueError("one region label required per column")
        if len(set(self.column_labels)) != len(self.column_labels):
            raise ValueError("column labels must be unique")
        self.values.flags.writeable = False

    @property
    def row_dim(self) -> int:
        return self.values.shape[0]


def _rows_from_mask(mask, window_set: RegionalWindowSet, n_active: int):
    if mask is None or isinstance(mask, np.ndarray):
        return mask
    part = window_set.partition
    return mask.row_indices(part.p1, part.p2, n_active)


def assemble_snapshot_matrix(
    window_set: RegionalWindowSet,
    tau: int,
    mask=None,
) -> SnapshotMatrix:
    """Stack the tau-th sample of every active region's window into columns.

    Columns are vectorized x-fastest and ordered by region index
    (a + regions_x * b); inactive regions are excluded entirely.  With a
    mask, only the masked node positions are kept, shrinking the row count;
    a 2-D index array (or a per-region sampling mask) gives each column its
    own positions.
    """
    if not 0 <= tau < window_set.window_len:
        raise IndexError(
            f"tau {tau} outside window of length {window_set.window_len}"
        )
    ids = window_set.active_region_ids()
    full = window_set.windows[tau]
    rows = _rows_from_mask(mask, window_set, len(ids))
    if rows is None:
        picked = full
    else:
        rows = np.asarray(rows)
        if rows.size == 0:
            raise ValueError("mask retains no node positions")
        if rows.min() < 0 or rows.max() >= full.shape[0]:
            raise ValueError(
                f"mask indexes node {int(rows.max())} outside the "
                f"{full.shape[0]}-node region"
            )
        if rows.ndim == 1:
            picked = full[rows, :]
        elif rows.ndim == 2:
            if rows.shape[1] != len(ids):
                raise ValueError(
                    f"per-region row sets cover {rows.shape[1]} regions, "
                    f"but {len(ids)} are active"
                )
            picked = np.take_along_axis(full, rows, axis=0)
        else:
            raise ValueError("row indices must be 1-D (shared) or 2-D (per-region)")
    return SnapshotMatrix(values=np.array(picked), column_labels=ids, tau=tau)


@dataclass(frozen=True)
class LowRankSplit:
    """Rank-r background plus outlier remainder of one snapshot matrix."""

    low_rank: np.ndarray = field(repr=False)
    outliers: np.ndarray = field(repr=False)
    rank_used: int
    singular_values: np.ndarray = field(repr=False)

    def __post_init__(self):
        for name in ("low_rank", "outliers", "singular_values"):
            getattr(self, name).flags.writeable = False


def truncated_low_rank(matrix, rank_used: int) -> LowRankSplit:
    """Best rank-r split of a matrix (Frobenius-optimal truncated SVD)."""
    m = np.asarray(matrix, dtype=np.float64)
    if m.ndim != 2:
        raise ValueError("matrix must be 2-D")
    if not np.isfinite(m).all():
        raise ValueError("matrix entries must be finite")
    limit = min(m.shape)
    if not 1 <= rank_used <= limit:
        raise ValueError(f"rank must be in [1, {limit}], got {rank_used}")
    u, s, vt = np.linalg.svd(m, full_matrices=False)
    low_rank = (u[:, :rank_used] * s[:rank_used]) @ vt[:rank_used]
    return LowRankSplit(
        low_rank=low_rank,
        outliers=m - low_rank,
        rank_used=rank_used,
        singular_values=s,
    )


def outlier_energies(split: LowRankSplit) -> np.ndarray:
    """Squared Euclidean norm of each column of the outlier remainder."""
    c = split.outliers
    return np.sum(c * c, axis=0)


def _salient(energies: np.ndarray, ratio: float) -> np.ndarray:
    """Columns whose energy strictly exceeds ratio * max; none if all are 0."""
    peak = float(np.max(energies))
    if peak <= 0.0:
        return np.zeros(energies.shape, dtype=bool)
    return energies > ratio * peak


def oracle_counts(window_set: RegionalWindowSet, rank: int, ratio: float, mask=None):
    """Salient-offset count per active region, one full SVD per offset.

    Returns the counts in column order and the tau = 0 spectrum.  A
    snapshot whose energies all sit below the dust floor adds nothing.
    """
    rows = _rows_from_mask(mask, window_set, window_set.active_count)
    first = assemble_snapshot_matrix(window_set, 0, rows)
    spectrum = np.linalg.svd(first.values, compute_uv=False)
    dust = (float(spectrum[0]) * _TINY) ** 2
    counts = np.zeros(len(first.column_labels))
    for tau in range(window_set.window_len):
        snap = assemble_snapshot_matrix(window_set, tau, rows)
        energies = outlier_energies(truncated_low_rank(snap.values, rank))
        if float(np.max(energies)) > dust:
            counts += _salient(energies, ratio)
    return counts, spectrum
