"""Wavenumber spectra and the occupied-fraction (Landau-rate) estimate."""

import numpy as np
import pytest

from wavesaliency.cube import pgm_text, write_text
from wavesaliency.errors import NoSignalError
from wavesaliency.spectrum import (
    PGM_FLOOR_DB,
    dft2_magnitude,
    occupied_fraction,
    spectrum_csv_text,
    spectrum_pgm_text,
)


def _spectrum_of(values):
    values = np.array(values, dtype=float)
    values.flags.writeable = False
    return values


def test_constant_snapshot_is_dc_only():
    spec = dft2_magnitude(np.full((16, 16), 3.7))
    center = (8, 8)
    assert spec[center] == 1.0
    rest = spec.copy()
    rest[center] = 0.0
    assert np.max(rest) < 1e-9


def test_pure_tone_gives_conjugate_pair():
    n = 32
    l = np.arange(n)
    snap = np.cos(2 * np.pi * 5 * l / n)[:, None] * np.ones((1, n))
    spec = dft2_magnitude(snap)
    hot = np.argwhere(spec > 0.5)
    assert {tuple(map(int, p)) for p in hot} == {(16 + 5, 16), (16 - 5, 16)}
    assert spec[16 + 5, 16] == pytest.approx(1.0)
    assert spec[16 - 5, 16] == pytest.approx(1.0)
    assert np.sort(spec.ravel())[-3] < 1e-9  # nothing else


def test_real_input_point_symmetry(rng):
    snap = rng.normal(size=(33, 33))
    spec = dft2_magnitude(snap)
    # odd grid: point reflection through the center is a pure flip
    assert np.max(np.abs(spec - spec[::-1, ::-1])) < 1e-9
    # even grid: drop the unpaired Nyquist row/column before flipping
    spec2 = dft2_magnitude(rng.normal(size=(16, 16)))
    core = spec2[1:, 1:]
    assert np.max(np.abs(core - core[::-1, ::-1])) < 1e-9
    occupied = core > 10 ** (-20 / 20)
    assert np.array_equal(occupied, occupied[::-1, ::-1])


def test_parseval_and_normalization(rng):
    snap = rng.normal(size=(24, 17))
    raw = np.fft.fft2(snap)
    lhs = np.sum(np.abs(raw) ** 2)
    rhs = snap.size * np.sum(snap**2)
    assert lhs == pytest.approx(rhs, rel=1e-6)
    spec = dft2_magnitude(snap)
    expected = np.abs(np.fft.fftshift(raw))
    assert np.allclose(spec, expected / expected.max(), atol=1e-12)
    assert spec.max() == 1.0
    assert spec.min() >= 0.0
    # the spectrum is the plain magnitude array, shaped like the snapshot
    assert type(spec) is np.ndarray and spec.shape == snap.shape
    assert not spec.flags.writeable
    with pytest.raises(ValueError):
        spec[0, 0] = 2.0


def test_dft_input_validation():
    with pytest.raises(ValueError):
        dft2_magnitude(np.ones(16))
    bad = np.ones((8, 8))
    bad[3, 3] = np.nan
    with pytest.raises(ValueError):
        dft2_magnitude(bad)
    with pytest.raises(NoSignalError):
        dft2_magnitude(np.zeros((8, 8)))


def test_one_bin_fraction_pinned():
    values = np.zeros((10, 10))
    values[4, 6] = 1.0
    spec = _spectrum_of(values)
    assert occupied_fraction(spec, -20.0) == pytest.approx(0.01)


def test_fraction_monotone_in_floor(rng):
    spec = _spectrum_of(np.abs(rng.normal(size=(20, 20))) / 3.0)
    floors = [-3.0, -6.0, -10.0, -20.0, -40.0, -80.0]
    fractions = [occupied_fraction(spec, f) for f in floors]
    assert all(a <= b for a, b in zip(fractions, fractions[1:]))
    assert all(0.0 <= f <= 1.0 for f in fractions)


def test_fraction_deep_floor_counts_positive_bins():
    values = np.zeros((10, 10))
    values[0, 0] = 1.0
    values[3, 3] = 1e-7
    spec = _spectrum_of(values)
    # far below every positive bin: exactly the strictly-positive count
    assert occupied_fraction(spec, -300.0) == pytest.approx(0.02)
    # a -20 dB floor keeps only the peak
    assert occupied_fraction(spec, -20.0) == pytest.approx(0.01)


def test_fraction_floor_validation():
    spec = _spectrum_of(np.ones((4, 4)))
    with pytest.raises(ValueError):
        occupied_fraction(spec, 0.0)
    with pytest.raises(ValueError):
        occupied_fraction(spec, 3.0)
    with pytest.raises(ValueError):
        occupied_fraction(spec, float("nan"))


def test_ci_snapshot_fraction_is_sparse(ci_bench1):
    # narrow-band flexural field occupies a thin annulus: a few percent of
    # the plane, nowhere near full occupancy
    _, cube = ci_bench1
    spec = dft2_magnitude(cube.slice_at(cube.t_len - 1))
    frac = occupied_fraction(spec, -20.0)
    assert 0.005 <= frac <= 0.2


def _per_value_csv(values) -> str:
    return "".join(",".join(f"{v:.6e}" for v in row) + "\n" for row in values)


def test_csv_round_trip(tmp_path, rng):
    values = np.linspace(0.0, 1.0, 12).reshape(3, 4)
    spec = _spectrum_of(values)
    text = spectrum_csv_text(spec)
    lines = text.strip().split("\n")
    assert len(lines) == 3
    parsed = np.array([[float(v) for v in line.split(",")] for line in lines])
    assert np.allclose(parsed, values, atol=1e-6)
    path = tmp_path / "spec.csv"
    write_text(path, text)
    assert path.read_text() == text
    # the row format writes each value as f"{v:.6e}" would, over many scales
    grid = rng.random((9, 7)) * 10.0 ** rng.integers(-300, 300, size=(9, 7))
    grid[0, :3] = (0.0, 1.0, 5e-324)
    for values in (grid, grid[:1, :1], grid[:, :1]):
        assert spectrum_csv_text(_spectrum_of(values)) == _per_value_csv(values)


def test_pgm_text_matches_the_per_value_formula(rng):
    # one text row per y, each pixel written as str(int(v))
    for pixels in (rng.integers(0, 256, size=(7, 5)),
                   rng.integers(0, 256, size=(1, 4)),
                   rng.random((3, 6)) * 255.0, rng.random((4, 2)) > 0.5):
        width, height = pixels.shape
        lines = ["P2", f"{width} {height}", "255"]
        lines += [" ".join(str(int(v)) for v in pixels[:, y])
                  for y in range(height)]
        assert pgm_text(pixels) == "\n".join(lines) + "\n"


def test_pgm_layout():
    values = np.zeros((5, 3))
    values[2, 1] = 1.0
    values[0, 0] = 10 ** (-30.0 / 20.0)  # below a -20 floor, above -60
    body = spectrum_pgm_text(_spectrum_of(values)).split("\n")
    assert body[:3] == ["P2", "5 3", "255"]
    rows = [line.split() for line in body[3:6]]
    assert len(rows) == 3 and all(len(r) == 5 for r in rows)
    assert rows[1][2] == "255"  # the peak, at row ky=1, column kx=2
    assert PGM_FLOOR_DB == -60.0
    assert rows[0][0] == "128"  # -30 dB on a -60 dB scale
    assert rows[2][4] == "0"  # exact zero clips to the floor
