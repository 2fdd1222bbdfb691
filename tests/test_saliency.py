"""Low-rank splitting, outlier scoring, and the saliency map.

Independent oracles: random rank-r competitors for Frobenius optimality,
the projector route through scipy for the outlier energies, and the
per-snapshot SVD loop of ``lowrank_oracle`` for the Gram-eigh and block
Lanczos counts of ``saliency_map``.
"""

import dataclasses
import math
from collections import Counter

import numpy as np
import pytest
import scipy.linalg

from wavesaliency.cube import DataCube, GridPoint, write_text
from wavesaliency import saliency
from wavesaliency.errors import MaskError
from wavesaliency.pipeline import build_window_set
from wavesaliency.saliency import (
    _KRYLOV_BLOCK,
    _KRYLOV_ORDER,
    _KRYLOV_STEPS,
    SaliencyMap,
    _fitted_grams,
    _gather_snapshots,
    _krylov_start,
    _residual_energies,
    salient_columns,
    saliency_csv_text,
    saliency_map,
    snapshot_spectrum,
    write_saliency_pgm,
)
from wavesaliency.sampling import PER_REGION, Mask, double_cross_mask, random_mask
from wavesaliency.sim import ExcitationSpec
from wavesaliency.windowing import (
    Partition,
    RegionalWindowSet,
    extract_windows,
)

from conftest import region_ids
from lowrank_oracle import (
    assemble_snapshot_matrix,
    oracle_counts,
    outlier_energies,
    truncated_low_rank,
)


def _ramp_windows(n=129, regions=8, t_len=200, window_len=11):
    vals = np.broadcast_to(
        np.arange(1, t_len + 1, dtype=float)[:, None, None], (t_len, n, n)
    ).copy()
    cube = DataCube(n, n, t_len, 0.25 / (n - 1), 1e-6, vals)
    part = Partition(n, n, regions, regions)
    exc = ExcitationSpec(5e5, 5, 1.0, GridPoint(0, 0))
    return extract_windows(cube, part, 5000.0, exc, window_len=window_len)


# ---------------------------------------------------------------------------
# snapshot assembly
# ---------------------------------------------------------------------------

def test_snapshot_shape_main_grid():
    # 16 x 16 regions on a 257-node grid, record long enough for every
    # region: one 289-row column per region
    ws = _ramp_windows(n=257, regions=16, t_len=120)
    part = ws.partition
    assert part.p1 == 17 and part.region_count == 256
    assert ws.active_count == 256
    snap = assemble_snapshot_matrix(ws, 0)
    assert snap.values.shape == (289, 256)
    assert snap.column_labels == region_ids(part)


def test_snapshot_masked_row_count():
    ws = _ramp_windows()  # p1 = p2 = 17
    mask = double_cross_mask(17, 17, stride=1)
    snap = assemble_snapshot_matrix(ws, 0, mask)
    assert snap.values.shape == (65, ws.active_count)
    full = assemble_snapshot_matrix(ws, 0)
    assert np.array_equal(snap.values, full.values[mask.flat_indices(), :])


def test_snapshot_equal_blocks_equal_columns():
    ws = _ramp_windows(n=33, regions=4)
    snap = assemble_snapshot_matrix(ws, 3)
    j_ab = snap.column_labels.index((1, 2))
    j_ba = snap.column_labels.index((2, 1))
    # ramp cube: columns depend only on arrival index, equal for mirrored pair
    assert np.array_equal(snap.values[:, j_ab], snap.values[:, j_ba])


def test_snapshot_vectorization_is_x_fastest():
    ws = _ramp_windows(n=33, regions=4)
    # overwrite one region's window with a known pattern via a fresh set:
    # easier to check on the raw windows array directly
    snap = assemble_snapshot_matrix(ws, 0)
    a, b = 1, 1
    col = snap.values[:, snap.column_labels.index((a, b))]
    block = ws.windows[0, :, ws.active_region_ids().index((a, b))]
    assert np.array_equal(col, block)


def test_full_sampling_scores_the_window_array_in_place():
    ws = _ramp_windows(n=33, regions=4)
    stack = _gather_snapshots(ws, None)
    assert np.shares_memory(stack, ws.windows)
    assert stack.shape == ws.windows.shape and stack.flags.c_contiguous
    first = _gather_snapshots(ws, None, offsets=1)
    assert np.shares_memory(first, ws.windows) and first.shape[0] == 1


def test_snapshot_argument_validation():
    ws = _ramp_windows(n=33, regions=4)
    with pytest.raises(IndexError):
        assemble_snapshot_matrix(ws, 11)
    with pytest.raises(IndexError):
        assemble_snapshot_matrix(ws, -1)
    with pytest.raises(ValueError):
        assemble_snapshot_matrix(ws, 0, np.array([0, 7, 81]))  # 81 out of range
    with pytest.raises(ValueError):
        assemble_snapshot_matrix(ws, 0, np.array([], dtype=int))


# ---------------------------------------------------------------------------
# truncated SVD split
# ---------------------------------------------------------------------------

def test_rank_one_recovery(rng):
    u = rng.normal(size=40)
    v = rng.normal(size=25)
    m = np.outer(u, v)
    split = truncated_low_rank(m, 1)
    assert np.linalg.norm(split.outliers) <= 1e-10 * np.linalg.norm(m)
    assert split.rank_used == 1


def test_diagonal_truncation_pinned(rng):
    m = np.diag([3.0, 2.0, 1.0])
    split = truncated_low_rank(m, 2)
    assert np.allclose(split.low_rank, np.diag([3.0, 2.0, 0.0]), atol=1e-12)
    resid = np.linalg.norm(split.outliers)
    assert resid == pytest.approx(1.0, rel=1e-12)
    # random-search oracle: no random rank-2 competitor beats residual 1
    for _ in range(200):
        q, _ = np.linalg.qr(rng.normal(size=(3, 2)))
        competitor = q @ (q.T @ m)
        assert np.linalg.norm(m - competitor) >= resid - 1e-9


def test_full_rank_reproduces_input(rng):
    m = rng.normal(size=(6, 9))
    split = truncated_low_rank(m, 6)
    assert np.linalg.norm(split.outliers) <= 1e-10 * np.linalg.norm(m)


def test_reconstruction_identity(rng):
    for _ in range(20):
        m = rng.normal(size=(rng.integers(3, 30), rng.integers(3, 30)))
        r = int(rng.integers(1, min(m.shape) + 1))
        split = truncated_low_rank(m, r)
        err = np.linalg.norm(split.low_rank + split.outliers - m)
        assert err <= 1e-9 * np.linalg.norm(m)
        assert split.singular_values.shape == (min(m.shape),)


def test_split_validation(rng):
    m = rng.normal(size=(5, 4))
    with pytest.raises(ValueError):
        truncated_low_rank(m, 0)
    with pytest.raises(ValueError):
        truncated_low_rank(m, 5)
    bad = m.copy()
    bad[2, 2] = np.nan
    with pytest.raises(ValueError):
        truncated_low_rank(bad, 2)
    with pytest.raises(ValueError):
        truncated_low_rank(np.zeros(7), 1)


def test_frobenius_optimality_quick(rng):
    # small-scale routine check; the full-scale 100 x 1000 sweep runs in
    # the acceptance suite
    for _ in range(10):
        m = rng.normal(size=(40, 25))
        for r in (1, 3, 7):
            split = truncated_low_rank(m, r)
            best = np.linalg.norm(split.outliers)
            g = rng.normal(size=(200, 25, r))
            q, _ = np.linalg.qr(g)
            # batched competitors: project columns onto each random subspace
            proj = np.einsum("bir,bjr,kj->bki", q, q, m)
            errs = np.linalg.norm(m[None] - proj, axis=(1, 2))
            assert (errs >= best - 1e-9).all()


# ---------------------------------------------------------------------------
# outlier energies and selection
# ---------------------------------------------------------------------------

def test_energies_trivial_cases(rng):
    m = rng.normal(size=(6, 4))
    split = truncated_low_rank(m, 4)  # full rank: outliers ~ 0
    assert np.allclose(outlier_energies(split), 0.0, atol=1e-18)
    # craft a split-like check through a rank-1 matrix plus a unit column
    base = np.outer(np.ones(5), np.ones(3))
    assert outlier_energies(truncated_low_rank(base, 1)).shape == (3,)


def test_energies_match_projector_route(rng):
    # the dual route: P_U = U_r U_r^T from an independent SVD implementation
    for _ in range(8):
        rows = int(rng.integers(8, 40))
        cols = int(rng.integers(4, 30))
        m = rng.normal(size=(rows, cols))
        r = int(rng.integers(1, min(rows, cols)))
        split = truncated_low_rank(m, r)
        u, _, _ = scipy.linalg.svd(m, full_matrices=False)
        p_u = u[:, :r] @ u[:, :r].T
        expected = np.sum((p_u @ m - m) ** 2, axis=0)
        got = outlier_energies(split)
        scale = max(float(np.max(expected)), 1e-300)
        assert np.max(np.abs(got - expected)) <= 1e-9 * scale


def test_salient_columns_pinned():
    sel = salient_columns(np.array([10.0, 1.0, 1.0, 4.0]), 0.25)
    assert np.flatnonzero(sel).tolist() == [0, 3]
    assert not salient_columns(np.zeros(5), 0.25).any()
    # strict inequality: at ratio 1.0 even the max itself fails
    assert not salient_columns(np.array([3.0, 1.0]), 1.0).any()
    assert not salient_columns(np.array([3.0, 3.0]), 1.0).any()


def test_salient_columns_validation():
    with pytest.raises(ValueError):
        salient_columns(np.array([1.0]), 0.0)
    with pytest.raises(ValueError):
        salient_columns(np.array([1.0]), 1.5)
    with pytest.raises(ValueError):
        salient_columns(np.array([]), 0.25)


def test_scale_and_permutation_equivariance(rng):
    m = rng.normal(size=(20, 9))
    split = truncated_low_rank(m, 3)
    e = outlier_energies(split)
    scaled = outlier_energies(truncated_low_rank(4.0 * m, 3))
    assert np.allclose(scaled, 16.0 * e, rtol=1e-9)
    assert np.array_equal(
        salient_columns(scaled, 0.25), salient_columns(e, 0.25)
    )
    perm = rng.permutation(9)
    permuted = outlier_energies(truncated_low_rank(m[:, perm], 3))
    assert np.allclose(permuted, e[perm], rtol=1e-9, atol=1e-12)
    assert np.array_equal(
        salient_columns(permuted, 0.25), salient_columns(e, 0.25)[perm]
    )


# ---------------------------------------------------------------------------
# saliency map
# ---------------------------------------------------------------------------

def _synthetic_window_set(spiked_taus, spiked_region=(1, 1), window_len=11):
    """Four 5x5-node regions sharing one rank-1 background; one region gets
    a localized spike at the requested window offsets.

    The spike is kept moderate: a spike dwarfing the background would let
    the rank-1 fit latch onto the spiked column instead, and the clean
    columns would become the outliers.
    """
    part = Partition(9, 9, 2, 2)
    base = np.linspace(1.0, 2.0, 25)
    windows = np.zeros((window_len, 25, 4))
    windows[:] = base[None, :, None]
    spike = np.zeros(25)
    spike[7] = 2.0
    col = spiked_region[0] + 2 * spiked_region[1]
    for tau in spiked_taus:
        windows[tau, :, col] += spike
    return RegionalWindowSet(
        partition=part,
        window_len=window_len,
        group_velocity=5000.0,
        dt=1e-6,
        arrival_index=np.zeros((2, 2), dtype=np.int64),
        active=np.ones((2, 2), dtype=bool),
        windows=windows,
    )


def test_map_counts_salient_offsets():
    ws = _synthetic_window_set(spiked_taus=(0, 2, 3, 5, 7, 10))
    sal = saliency_map(ws, rank=1, ratio=0.25)
    assert sal.fractions[1, 1] == pytest.approx(6 / 11)
    for a, b in ((0, 0), (1, 0), (0, 1)):
        assert sal.fractions[a, b] == 0.0
    # the map holds the window set's own read-only activity grid, not a copy
    assert sal.active is ws.active and not sal.active.flags.writeable
    assert sal.window_len == ws.window_len
    # every value is a multiple of 1/window_len
    counts = sal.fractions * 11
    assert np.allclose(counts, np.round(counts), atol=1e-9)


def test_map_clean_background_flags_nothing():
    ws = _synthetic_window_set(spiked_taus=())
    sal = saliency_map(ws, rank=1, ratio=0.25)
    # residuals are float dust; the dust guard keeps every count at zero
    assert np.all(sal.fractions == 0.0)


def test_map_marks_inactive_with_nan():
    ws = _synthetic_window_set(spiked_taus=(0, 1, 2, 3, 4, 5))
    # deactivate one region by rebuilding the set with a hole
    active = np.ones((2, 2), dtype=bool)
    active[0, 1] = False
    ws2 = RegionalWindowSet(
        partition=ws.partition,
        window_len=ws.window_len,
        group_velocity=ws.group_velocity,
        dt=ws.dt,
        arrival_index=np.array(ws.arrival_index),
        active=active,
        windows=ws.windows[:, :, [0, 1, 3]],  # region (0, 1) is column 2
    )
    sal = saliency_map(ws2, rank=1, ratio=0.25)
    assert np.isnan(sal.fractions[0, 1])
    assert sal.fractions[1, 1] == pytest.approx(6 / 11)
    assert (0, 1) not in sal.flagged_regions(0.5)


def test_map_rank_validation():
    ws = _synthetic_window_set(spiked_taus=(0,))
    with pytest.raises(ValueError):
        saliency_map(ws, rank=0)
    with pytest.raises(ValueError):
        saliency_map(ws, rank=5)  # only 4 columns


def test_per_region_rows_drawn_once_per_map(monkeypatch):
    ws = _synthetic_window_set(spiked_taus=(0, 3))
    mask = random_mask(5, 5, 0.6, seed=1, sharing=PER_REGION)
    calls = []
    original = Mask.row_indices

    def counted(self, *args):
        calls.append(args)
        return original(self, *args)

    monkeypatch.setattr(Mask, "row_indices", counted)
    saliency_map(ws, rank=1, mask=mask)
    assert calls == [(5, 5, 4)]


def test_map_mask_validation():
    # a mask built for 5x5-node regions cannot subsample 7x7-node ones
    ws = _synthetic_window_set(spiked_taus=(0,))
    wide = dataclasses.replace(
        ws,
        partition=Partition(13, 13, 2, 2),
        windows=np.ones((ws.window_len, 49, 4)),
    )
    mask = random_mask(5, 5, 0.5, seed=3)
    assert saliency_map(ws, rank=1, mask=mask).shape == (2, 2)
    with pytest.raises(MaskError, match="built for 5x5 regions cannot be applied to 7x7"):
        saliency_map(wide, rank=1, mask=mask)


# ---------------------------------------------------------------------------
# the Gram-eigh scoring core against the per-snapshot SVD oracle
# ---------------------------------------------------------------------------

def _low_rank_plus_outlier_set(rng, n, regions, window_len=11, exact_taus=()):
    """Seeded windows: a rank-3 background shared by all regions plus noise,
    with two outlier columns per offset.

    At the offsets in ``exact_taus`` the noise is left out and the
    background has rank 1, so with its two outlier columns the snapshot has
    exact rank 3.
    """
    part = Partition(n, n, regions, regions)
    nodes, count = part.nodes_per_region, part.region_count
    windows = np.empty((window_len, nodes, count))
    for tau in range(window_len):
        exact = tau in exact_taus
        k = 1 if exact else 3
        snap = rng.normal(size=(nodes, k)) @ rng.normal(size=(k, count))
        if not exact:
            snap += 0.05 * rng.normal(size=(nodes, count))
        hit = rng.choice(count, size=2, replace=False)
        snap[:, hit] += 1.5 * rng.normal(size=(nodes, 2))
        windows[tau] = snap
    return RegionalWindowSet(
        partition=part,
        window_len=window_len,
        group_velocity=5000.0,
        dt=1e-6,
        arrival_index=np.zeros((regions, regions), dtype=np.int64),
        active=np.ones((regions, regions), dtype=bool),
        windows=windows,
    )


def _assert_matches_oracle(ws, rank, mask, sal=None):
    """Hold a map's counts, and the snapshot spectrum, to the SVD oracle.

    ``sal`` is the map to check; without one, it is computed here.
    """
    if sal is None:
        sal = saliency_map(ws, rank=rank, ratio=0.25, mask=mask)
    counts, spectrum = oracle_counts(ws, rank, 0.25, mask)
    got = np.array([sal.fractions[a, b] for a, b in ws.active_region_ids()])
    assert np.array_equal(got, counts / ws.window_len), (rank, mask)
    assert np.array_equal(snapshot_spectrum(ws, mask), spectrum)
    return int(counts.sum())


def test_core_counts_match_svd_oracle(rng):
    # (n, regions) -> p x p nodes per region, regions^2 columns:
    # 25 x 4 and 25 x 16 are tall, 16 x 64 is wide
    cases = ((9, 2), (17, 4), (25, 8))
    shapes = set()
    flagged = 0
    for (n, regions) in cases:
        ws = _low_rank_plus_outlier_set(rng, n, regions)
        p = ws.partition.p1
        masks = [
            None,
            random_mask(p, p, 0.64, seed=3),
            random_mask(p, p, 0.4, seed=4),
            random_mask(p, p, 0.4, seed=5, sharing=PER_REGION),
        ]
        if p % 2:
            masks += [double_cross_mask(p, p, stride) for stride in (1, 2)]
        for mask in masks:
            rows = (mask.retained_count if mask is not None
                    else ws.partition.nodes_per_region)
            cols = ws.active_count
            shapes.add("tall" if rows > cols else "wide" if rows < cols else "square")
            for rank in range(1, min(rows, cols) + 1):
                flagged += _assert_matches_oracle(ws, rank, mask)
    assert shapes == {"tall", "wide", "square"}
    assert flagged > 0


def _svd_calls(monkeypatch, ws, rank, mask):
    """Run saliency_map, recording compute_uv of every np.linalg.svd call."""
    calls = []
    original = np.linalg.svd

    def counted(*args, **kwargs):
        calls.append(kwargs.get("compute_uv", True))
        return original(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted)
    try:
        sal = saliency_map(ws, rank=rank, ratio=0.25, mask=mask)
    finally:
        monkeypatch.undo()
    return sal, calls


def test_core_falls_back_to_svd_below_the_rank(rng, monkeypatch):
    # offsets 2, 5 and 8 have exact rank 3, so a rank-4 fit finds no fourth
    # direction in the Gram spectrum and must refit those offsets by SVD
    ws = _low_rank_plus_outlier_set(rng, 17, 4, exact_taus=(2, 5, 8))
    for mask in (None, random_mask(5, 5, 0.4, seed=7)):
        sal, calls = _svd_calls(monkeypatch, ws, 4, mask)
        # one thin SVD per collapsed offset, and no other
        assert calls == [True, True, True]
        counts, _ = oracle_counts(ws, 4, 0.25, mask)
        got = np.array([sal.fractions[a, b] for a, b in ws.active_region_ids()])
        assert np.array_equal(got, counts / ws.window_len)


def test_core_falls_back_where_the_gap_at_the_rank_closes(rng, monkeypatch):
    # offset 6 has s_5/s_0 = 0.1, far above any small-eigenvalue floor, but
    # s_5 and s_6 agree to 1e-9: the Gram basis cannot tell them apart, so a
    # rank-5 fit of that offset goes to SVD, and a rank-4 fit does not
    ws = _low_rank_plus_outlier_set(rng, 17, 4)
    windows = np.array(ws.windows)
    u, _ = np.linalg.qr(rng.normal(size=(25, 16)))
    v, _ = np.linalg.qr(rng.normal(size=(16, 16)))
    s = np.array([1.0, 0.8, 0.5, 0.3, 0.1 * (1 + 1e-9), 0.1]
                 + list(0.05 * 0.8 ** np.arange(10)))
    windows[6] = (u * s) @ v.T
    ws = dataclasses.replace(ws, windows=windows)
    for rank, expected in ((5, [True]), (4, [])):
        sal, calls = _svd_calls(monkeypatch, ws, rank, None)
        assert calls == expected, rank
        counts, _ = oracle_counts(ws, rank, 0.25)
        got = np.array([sal.fractions[a, b] for a, b in ws.active_region_ids()])
        assert np.array_equal(got, counts / ws.window_len)


def test_core_takes_no_svd_when_no_gap_closes(rng, monkeypatch):
    # the noisy rank-3 background keeps every offset's Gram gap open at
    # ranks 1 to 3: the map comes from eigh alone, with no full SVD
    ws = _low_rank_plus_outlier_set(rng, 17, 4)
    for mask in (None, random_mask(5, 5, 0.4, seed=7),
                 random_mask(5, 5, 0.4, seed=7, sharing=PER_REGION)):
        for rank in (1, 2, 3):
            sal, calls = _svd_calls(monkeypatch, ws, rank, mask)
            assert calls == [], (rank, mask)
            counts, _ = oracle_counts(ws, rank, 0.25, mask)
            got = np.array([sal.fractions[a, b] for a, b in ws.active_region_ids()])
            assert np.array_equal(got, counts / ws.window_len)


def test_knee_rank_in_the_noise_floor_matches_oracle(bench1):
    # at rank 84 this masked bench1 snapshot's rank sits in the noise floor
    # (s_r/s_0 about 1e-6, gap 1e-12 of lambda_0) and one column's energy
    # lies 2e-6 of the peak from the 0.25 cut: the Gram basis would misplace
    # it, so the count must come from the SVD refit
    scenario, cube = bench1
    part = scenario.partition()
    ws = build_window_set(cube, part, scenario.detection_config())
    mask = random_mask(part.p1, part.p2, 0.33, seed=5)
    sal = saliency_map(ws, rank=84, ratio=0.25, mask=mask)
    counts, _ = oracle_counts(ws, 84, 0.25, mask)
    got = np.array([sal.fractions[a, b] for a, b in ws.active_region_ids()])
    assert np.array_equal(got, counts / ws.window_len)


# ---------------------------------------------------------------------------
# the block Lanczos fit of large Gram matrices
# ---------------------------------------------------------------------------

# (p, regions): p x p nodes per region and regions^2 columns, so the Gram
# order is 196 for the tall snapshot (289 x 196) and 169 for the wide one
# (169 x 256), both at least _KRYLOV_ORDER
_LANCZOS_SHAPES = {"tall": (17, 14), "wide": (13, 16)}


def _spectrum_set(rng, shape, spectrum, window_len=3):
    """Seeded windows whose every offset has the given singular values."""
    p, regions = _LANCZOS_SHAPES[shape]
    n = (p - 1) * regions + 1
    rows, cols = p * p, regions * regions
    assert min(rows, cols) >= _KRYLOV_ORDER
    windows = np.empty((window_len, rows, cols))
    for tau in range(window_len):
        u, _ = np.linalg.qr(rng.normal(size=(rows, len(spectrum))))
        v, _ = np.linalg.qr(rng.normal(size=(cols, len(spectrum))))
        windows[tau] = (u * spectrum) @ v.T
    return RegionalWindowSet(
        partition=Partition(n, n, regions, regions),
        window_len=window_len,
        group_velocity=5000.0,
        dt=1e-6,
        arrival_index=np.zeros((regions, regions), dtype=np.int64),
        active=np.ones((regions, regions), dtype=bool),
        windows=windows,
    )


def _decaying(order, rate=0.85):
    return rate ** np.arange(order) + 1e-6


def _fit_calls(monkeypatch, ws, rank, mask=None):
    """Run saliency_map, recording how each offset was fitted.

    Returns the map, ``fits``, ``calls`` and ``grams``.  ``fits`` holds
    (Gram order, certified) for every offset the Lanczos pass tries, in
    offset order.  ``calls`` holds the order of every matrix that eigh
    factors, a batched (T, n, n) call counting as T matrices, and "svd" for
    every thin SVD.  ``grams`` counts the Gram matrices built, a batched
    build of T counting as T.
    """
    fits, calls, grams = [], [], []
    lanczos, gram, eigh, svd = (saliency._lanczos_bases, saliency._gram,
                                np.linalg.eigh, np.linalg.svd)

    def spy(stack, rank, start):
        found = lanczos(stack, rank, start)
        fits.extend((min(stack.shape[1:]), fit is not None) for fit in found)
        return found

    def counted_gram(x):
        grams.append(math.prod(x.shape[:-2]))
        return gram(x)

    def counted_eigh(a, *args, **kwargs):
        calls.extend([a.shape[-1]] * math.prod(a.shape[:-2]))
        return eigh(a, *args, **kwargs)

    def counted_svd(*args, **kwargs):
        if kwargs.get("compute_uv", True):
            calls.append("svd")
        return svd(*args, **kwargs)

    monkeypatch.setattr(saliency, "_lanczos_bases", spy)
    monkeypatch.setattr(saliency, "_gram", counted_gram)
    monkeypatch.setattr(np.linalg, "eigh", counted_eigh)
    monkeypatch.setattr(np.linalg, "svd", counted_svd)
    try:
        sal = saliency_map(ws, rank=rank, ratio=0.25, mask=mask)
    finally:
        monkeypatch.undo()
    return sal, fits, calls, sum(grams)


def _stack_energies(stack, rank):
    """(energies, lambda_0) of every offset, as saliency_map computes them."""
    return [_residual_energies(x, rank, fit) for x, fit in _fitted_grams(stack, rank)]


def test_krylov_start_is_built_once_per_order():
    start = _krylov_start(95)
    assert _krylov_start(95) is start and not start.flags.writeable
    assert start.shape == (95, _KRYLOV_BLOCK)
    assert np.allclose(start.T @ start, np.eye(_KRYLOV_BLOCK), rtol=0, atol=1e-14)


def _two_pass_energies(x, low_rank):
    """Column energies of x − low_rank, each step in its own array."""
    resid = x - low_rank
    return np.sum(resid * resid, axis=0)


def test_residual_energies_are_bit_identical_to_the_two_pass_formula(rng, monkeypatch):
    # the residual formed in place in one buffer has the same bits as
    # x − (rank-r part), squared and summed, on the Lanczos and eigh bases
    # of tall and wide snapshots and on the SVD fallback at a closed gap
    svd, svds = np.linalg.svd, []

    def counted_svd(a, *args, **kwargs):
        svds.append(a.shape)
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted_svd)
    for shape in ("tall", "wide"):
        p, regions = _LANCZOS_SHAPES[shape]
        order = min(p * p, regions * regions)
        x = _spectrum_set(rng, shape, _decaying(order), window_len=1).windows[0]

        def low_rank(basis):
            return basis @ (basis.T @ x) if shape == "wide" else (x @ basis) @ basis.T

        [fit] = saliency._lanczos_bases(x[None], 6, _krylov_start(order))
        got, _ = _residual_energies(x, 6, fit)
        assert np.array_equal(got, _two_pass_energies(x, low_rank(fit[0])))
        lam, vecs = np.linalg.eigh(saliency._gram(x))
        got, lam0 = _residual_energies(x, 6)
        assert np.array_equal(got, _two_pass_energies(x, low_rank(vecs[:, -6:])))
        assert lam0 == lam[-1]
        closed = _decaying(order)
        closed[4] = closed[5] * (1 + 1e-9)
        y = _spectrum_set(rng, shape, closed, window_len=1).windows[0]
        u, s, vt = svd(y, full_matrices=False)
        got, _ = _residual_energies(y, 5)
        assert np.array_equal(got, _two_pass_energies(y, (u[:, :5] * s[:5]) @ vt[:5]))
    # one SVD fallback per shape, and no other
    assert svds == [(289, 196), (169, 256)]


def test_lanczos_fit_matches_svd_oracle(rng, monkeypatch):
    basis = _KRYLOV_BLOCK * _KRYLOV_STEPS
    for shape in ("tall", "wide"):
        p, regions = _LANCZOS_SHAPES[shape]
        order = min(p * p, regions * regions)
        ws = _spectrum_set(rng, shape, _decaying(order))
        for rank in (1, 6, 14, basis // 3 - 1):
            for x, (got, top) in zip(ws.windows, _stack_energies(ws.windows, rank)):
                want = outlier_energies(truncated_low_rank(x, rank))
                assert np.max(np.abs(got - want)) <= 1e-10 * np.max(want)
                assert np.array_equal(salient_columns(got), salient_columns(want))
                assert top == pytest.approx((1 + 1e-6) ** 2, rel=1e-12)
            sal, fits, calls, grams = _fit_calls(monkeypatch, ws, rank)
            assert fits == [(order, True)] * ws.window_len, (shape, rank)
            assert calls == [basis] * ws.window_len, (shape, rank)
            # a tall snapshot's pass applies its Gram without building it
            assert grams == ws.window_len * (shape == "wide"), (shape, rank)
            _assert_matches_oracle(ws, rank, None, sal)


def test_lanczos_defers_to_eigh_when_it_cannot_certify(rng, monkeypatch):
    # calls list each eigh by order: the Lanczos fit's own Rayleigh-Ritz is
    # the basis size, the full fit is the Gram order.  The cases are turned
    # away by the Gram mass the basis misses (slow_close, flat), by the Ritz
    # residual against the gap (sharp_close), by the basis' orthonormality
    # (rank 3 breaks the basis down, so no Rayleigh-Ritz runs) and by the
    # size guard before the fit (nothing is tried).  A batched pass orders
    # the calls by kind, not by offset, so they are compared as a multiset;
    # fits pins the outcome of each offset.
    basis = _KRYLOV_BLOCK * _KRYLOV_STEPS
    for shape in ("tall", "wide"):
        p, regions = _LANCZOS_SHAPES[shape]
        order = min(p * p, regions * regions)
        fast = _decaying(order)
        # at decay 0.89 the rank-12 Ritz residuals are about 2e-12 lambda_0
        # and the basis misses about 1e-4 lambda_0 of Gram mass: certified
        # across the spectrum's own gap (1.6e-2 lambda_0), not across a gap
        # of 1e-6 lambda_0 between lambda_12 and lambda_13 (1-based), which
        # the missing mass exceeds
        slow = _decaying(order, rate=0.89)
        slow_close = slow.copy()
        slow_close[12] = np.sqrt(slow[11] ** 2 - 1e-6 * slow[0] ** 2)
        # at decay 0.7 the basis misses under 1e-9 lambda_0 of mass and the
        # rank-6 residuals are about 3e-14 lambda_0: certified across the
        # spectrum's own gap, not across one of 3e-8 lambda_0, where they
        # bound the angle only to 3e-7 or worse
        sharp = _decaying(order, rate=0.7)
        sharp_close = sharp.copy()
        sharp_close[6] = np.sqrt(sharp[5] ** 2 - 3e-8 * sharp[0] ** 2)
        cases = (
            (fast, 14, [basis]),
            (slow, 12, [basis]),
            (slow_close, 12, [basis, order]),
            (sharp, 6, [basis]),
            (sharp_close, 6, [basis, order]),
            (np.linspace(1.0, 0.9, order), 6, [basis, order]),
            (np.array([1.0, 0.5, 0.25]), 2, [order]),
            (fast, basis // 3, [order]),
        )
        for spectrum, rank, per_offset in cases:
            ws = _spectrum_set(rng, shape, spectrum)
            sal, fits, calls, grams = _fit_calls(monkeypatch, ws, rank)
            tried = rank < basis // 3
            certified = per_offset == [basis]
            assert fits == [(order, certified)] * ws.window_len * tried, (shape, rank)
            assert Counter(calls) == Counter(per_offset * ws.window_len), (shape, rank)
            # a wide pass builds each Gram; every eigh builds its own
            built = (shape == "wide") * tried + (not certified)
            assert grams == ws.window_len * built, (shape, rank)
            _assert_matches_oracle(ws, rank, None, sal)


def test_lanczos_trace_catches_an_eigenvalue_the_basis_misses():
    # G = diag(A, 2): A's Krylov spaces from a start block with a zero last
    # row keep that row exactly zero, so no basis holds the top eigenvector
    # e_last.  The Ritz pairs of A converge and their gap is wide; only the
    # trace shows the missing eigenvalue 2.  The snapshot is diag(sqrt G)
    # with a zero row (tall, G = XᵀX) or a zero column (wide, G = XXᵀ) added.
    order = _KRYLOV_ORDER
    diag = np.append(0.7 ** np.arange(order - 1), 2.0)
    tall = np.zeros((order + 1, order))
    tall[:-1] = np.diag(np.sqrt(diag))
    start = _krylov_start(order)
    blind = start.copy()
    blind[-1] = 0.0
    blind = np.linalg.qr(blind)[0]
    assert not blind[-1].any()
    for x in (tall, np.ascontiguousarray(tall.T)):
        assert np.allclose(saliency._gram(x), np.diag(diag), rtol=1e-15, atol=0)
        assert saliency._lanczos_bases(x[None], 6, blind) == [None]
        [(vecs, lam0)] = saliency._lanczos_bases(x[None], 6, start)
        assert lam0 == pytest.approx(2.0, rel=1e-14)
        assert abs(vecs[-1, -1]) == pytest.approx(1.0, rel=1e-12)


def test_svd_fallback_where_the_gap_closes_above_the_lanczos_order(rng, monkeypatch):
    # s_5 and s_6 agree to 1e-9: the Lanczos fit cannot certify a rank-5
    # basis, and eigh's spectrum sends the offset on to the thin SVD
    basis = _KRYLOV_BLOCK * _KRYLOV_STEPS
    for shape in ("tall", "wide"):
        p, regions = _LANCZOS_SHAPES[shape]
        order = min(p * p, regions * regions)
        spectrum = _decaying(order)
        spectrum[4] = spectrum[5] * (1 + 1e-9)
        ws = _spectrum_set(rng, shape, spectrum)
        for rank, per_offset in ((5, [basis, order, "svd"]), (4, [basis])):
            sal, fits, calls, grams = _fit_calls(monkeypatch, ws, rank)
            assert fits == [(order, rank == 4)] * ws.window_len, (shape, rank)
            assert Counter(calls) == Counter(per_offset * ws.window_len), (shape, rank)
            built = (shape == "wide") + (rank == 5)
            assert grams == ws.window_len * built, (shape, rank)
            _assert_matches_oracle(ws, rank, None, sal)


def test_a_closed_gap_leaves_the_rest_of_its_pass_certified(rng, monkeypatch):
    # five tall offsets of order 196 fill two passes of the chunk budget
    # (3 + 2), at 8 (289 x 196 + 2 x 196 x 56) bytes each.  Offset 1's s_5
    # and s_6 agree to 1e-9: at rank 5 it alone goes to eigh and on to the
    # thin SVD, and every other offset keeps its certified Lanczos basis.
    # Only offset 1 builds a Gram matrix, for its eigh
    basis = _KRYLOV_BLOCK * _KRYLOV_STEPS
    p, regions = _LANCZOS_SHAPES["tall"]
    order = regions * regions
    assert saliency._GRAM_CHUNK // (8 * (p * p * order + 2 * order * basis)) == 3
    ws = _spectrum_set(rng, "tall", _decaying(order), window_len=5)
    closed = _decaying(order)
    closed[4] = closed[5] * (1 + 1e-9)
    windows = np.array(ws.windows)
    windows[1] = _spectrum_set(rng, "tall", closed, window_len=1).windows[0]
    ws = dataclasses.replace(ws, windows=windows)
    sal, fits, calls, grams = _fit_calls(monkeypatch, ws, 5)
    assert fits == [(order, tau != 1) for tau in range(5)]
    assert Counter(calls) == Counter({basis: 5, order: 1, "svd": 1})
    assert grams == 1
    _assert_matches_oracle(ws, 5, None, sal)


# Gram order at full sampling: the plate's active regions
_FULL_ORDER = {"bench1": 205, "bench2": 205, "pristine": 203}


@pytest.mark.parametrize("plate", ["bench1", "bench2", "pristine"])
def test_plates_fit_orders_from_90_by_lanczos_and_58_by_eigh(plate, request, monkeypatch):
    # at the plate's own rank, full sampling (tall) and the 0.5 mask (wide,
    # order 144) are certified at every offset, and on bench1 so is the 0.33
    # mask (order 95); a 0.2 mask keeps 58 nodes, below _KRYLOV_ORDER, and
    # runs on eigh without trying the fit.  A tall pass builds no Gram
    # matrix; a wide pass, or an eigh, builds one per offset
    scenario, cube = request.getfixturevalue(plate)
    part = scenario.partition()
    ws = build_window_set(cube, part, scenario.detection_config())
    rank = scenario.detection.rank
    basis = _KRYLOV_BLOCK * _KRYLOV_STEPS
    cases = [(None, _FULL_ORDER[plate], True), (0.5, 144, True)]
    if plate == "bench1":
        cases += [(0.33, 95, True), (0.2, 58, False)]
    for ratio, order, fitted in cases:
        for seed in (1, 2, 3) if ratio else (None,):
            mask = None if ratio is None else random_mask(part.p1, part.p2, ratio, seed=seed)
            _, fits, calls, grams = _fit_calls(monkeypatch, ws, rank, mask)
            if fitted:
                assert fits == [(order, True)] * ws.window_len, (ratio, seed)
                assert calls == [basis] * ws.window_len, (ratio, seed)
            else:
                assert fits == [] and calls == [order] * ws.window_len, (ratio, seed)
            assert grams == ws.window_len * (ratio is not None), (ratio, seed)


def test_lanczos_fit_is_deterministic_and_scale_invariant(bench1):
    scenario, cube = bench1
    part = scenario.partition()
    ws = build_window_set(cube, part, scenario.detection_config())
    scaled = dataclasses.replace(ws, windows=np.array(ws.windows) * 3.7)
    theta = scenario.detection.theta
    for mask in (None, random_mask(part.p1, part.p2, 0.5, seed=1)):
        stack = _gather_snapshots(ws, mask)
        order = min(stack.shape[1:])
        assert order >= _KRYLOV_ORDER
        for (first, lam0), (again, lam0_again) in zip(
            _stack_energies(stack, 14), _stack_energies(stack, 14)
        ):
            assert np.array_equal(first, again) and lam0 == lam0_again
        sal = saliency_map(ws, rank=14, mask=mask)
        assert np.array_equal(saliency_map(ws, rank=14, mask=mask).fractions,
                              sal.fractions, equal_nan=True)
        assert (saliency_map(scaled, rank=14, mask=mask).flagged_regions(theta)
                == sal.flagged_regions(theta))


def test_cross_at_full_rank_flags_nothing(ci_bench1):
    # rank = rows: every column lies in the fitted subspace, the residual is
    # round-off below the dust floor, and no region may be flagged
    scenario, cube = ci_bench1
    part = scenario.partition()
    ws = build_window_set(cube, part, scenario.detection_config())
    mask = double_cross_mask(part.p1, part.p2, stride=4)
    assert mask.retained_count == 17
    sal = saliency_map(ws, rank=17, mask=mask)
    assert np.all(sal.fractions[sal.active] == 0.0)
    assert sal.flagged_regions(scenario.detection.theta) == frozenset()


def test_classify_threshold_rules():
    ws = _synthetic_window_set(spiked_taus=(0, 2, 3, 5, 7, 10))
    sal = saliency_map(ws, rank=1, ratio=0.25)
    assert sal.flagged_regions(0.5) == frozenset({(1, 1)})
    assert sal.flagged_regions(6 / 11) == {(1, 1)}  # >= is inclusive
    assert sal.flagged_regions(0.99) == set()
    with pytest.raises(ValueError):
        sal.flagged_regions(0.0)
    with pytest.raises(ValueError):
        sal.flagged_regions(1.5)


def test_map_scale_invariance():
    ws = _synthetic_window_set(spiked_taus=(1, 4, 9))
    sal = saliency_map(ws, rank=1, ratio=0.25)
    scaled = RegionalWindowSet(
        partition=ws.partition,
        window_len=ws.window_len,
        group_velocity=ws.group_velocity,
        dt=ws.dt,
        arrival_index=np.array(ws.arrival_index),
        active=np.array(ws.active),
        windows=np.array(ws.windows) * 1e6,
    )
    sal2 = saliency_map(scaled, rank=1, ratio=0.25)
    assert np.array_equal(sal.fractions, sal2.fractions)


# ---------------------------------------------------------------------------
# export formats
# ---------------------------------------------------------------------------

def test_csv_layout():
    ws = _synthetic_window_set(spiked_taus=(0, 2, 3, 5, 7, 10))
    sal = saliency_map(ws, rank=1, ratio=0.25)
    lines = saliency_csv_text(sal).strip().split("\n")
    assert len(lines) == 2  # one line per x-region index a
    assert lines[0].split(",") == ["0.000000", "0.000000"]
    assert lines[1].split(",") == ["0.000000", f"{6 / 11:.6f}"]


def test_csv_marks_inactive_na():
    ws = _synthetic_window_set(spiked_taus=())
    active = np.ones((2, 2), dtype=bool)
    active[0, 1] = False
    ws = RegionalWindowSet(
        partition=ws.partition,
        window_len=ws.window_len,
        group_velocity=ws.group_velocity,
        dt=ws.dt,
        arrival_index=np.array(ws.arrival_index),
        active=active,
        windows=ws.windows[:, :, [0, 1, 3]],  # region (0, 1) is column 2
    )
    sal = saliency_map(ws, rank=1, ratio=0.25)
    lines = saliency_csv_text(sal).strip().split("\n")
    assert lines[0].split(",") == ["0.000000", "NA"]
    assert lines[1].split(",") == ["0.000000", "0.000000"]


def test_pgm_layout(tmp_path):
    ws = _synthetic_window_set(spiked_taus=tuple(range(11)))
    sal = saliency_map(ws, rank=1, ratio=0.25)
    out = tmp_path / "map.pgm"
    write_saliency_pgm(sal, out)
    body = out.read_text().split("\n")
    assert body[0] == "P2"
    assert body[1] == "2 2"
    assert body[2] == "255"
    rows = [line.split() for line in body[3:5]]
    # row index is b, column index is a; region (1,1) is fully salient
    assert rows[1][1] == "255"
    assert rows[0][0] == "0"
    mask_file = tmp_path / "map.mask.pgm"
    assert mask_file.exists()
    assert set(mask_file.read_text().split("\n")[3].split()) == {"255"}


def test_csv_file_and_stream_agree(tmp_path):
    ws = _synthetic_window_set(spiked_taus=(5,))
    sal = saliency_map(ws, rank=1, ratio=0.25)
    path = tmp_path / "sal.csv"
    write_text(path, saliency_csv_text(sal))
    assert path.read_text() == saliency_csv_text(sal)
