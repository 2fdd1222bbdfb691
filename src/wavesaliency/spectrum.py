"""Wavenumber-plane view of wavefield snapshots.

The 2-D DFT magnitude of a deflection snapshot shows which wavenumbers the
field occupies.  For a narrow-band flexural wave the support is a thin
annulus, so the occupied fraction of the spectral plane — the Landau-rate
estimate — is far below 1: the data are heavily compressible, which is what
justifies aggressive spatial subsampling.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .cube import write_pgm
from .errors import NoSignalError


@dataclass(frozen=True)
class WavenumberSpectrum:
    """Centered, peak-normalized 2-D DFT magnitude of one snapshot.

    ``values[i, j]`` is the magnitude at wavenumber (kx[i], ky[j]); zero
    wavenumber sits at the grid center.  ``kx_L``/``ky_L`` are the
    dimensionless axes k * L (wavenumber scaled by the plate side).
    """

    values: np.ndarray = field(repr=False)
    kx_L: np.ndarray = field(repr=False)
    ky_L: np.ndarray = field(repr=False)

    def __post_init__(self):
        for name in ("values", "kx_L", "ky_L"):
            getattr(self, name).flags.writeable = False

    @property
    def shape(self) -> tuple[int, int]:
        return self.values.shape


def dft2_magnitude(snapshot: np.ndarray, dx: float, side_length: float | None = None) -> WavenumberSpectrum:
    """Centered magnitude spectrum of a 2-D snapshot, normalized to peak 1.

    ``snapshot`` is indexed [l, m] (x-index first).  The axes are reported
    as k*L with L = ``side_length`` (defaults to the snapshot's physical
    extent along x).
    """
    snap = np.asarray(snapshot, dtype=np.float64)
    if snap.ndim != 2:
        raise ValueError("snapshot must be 2-D")
    if not np.isfinite(snap).all():
        raise ValueError("snapshot must be finite")
    if dx <= 0:
        raise ValueError("dx must be positive")
    mag = np.abs(np.fft.fftshift(np.fft.fft2(snap)))
    peak = float(mag.max())
    if peak <= 0.0:
        raise NoSignalError("all-zero snapshot has no wavenumber content")
    if side_length is None:
        side_length = (snap.shape[0] - 1) * dx
    kx = 2.0 * np.pi * np.fft.fftshift(np.fft.fftfreq(snap.shape[0], d=dx))
    ky = 2.0 * np.pi * np.fft.fftshift(np.fft.fftfreq(snap.shape[1], d=dx))
    return WavenumberSpectrum(
        values=mag / peak,
        kx_L=kx * side_length,
        ky_L=ky * side_length,
    )


def occupied_fraction(spectrum: WavenumberSpectrum, floor_db: float) -> float:
    """Fraction of bins whose magnitude strictly exceeds the dB floor.

    With the peak normalized to 1, a bin counts as occupied when its
    magnitude > 10^(floor_db / 20).  This fraction estimates the Landau
    rate: the smallest average sampling rate from which a signal with this
    spectral support is reconstructable.
    """
    if not floor_db < 0:
        raise ValueError(f"floor_db must be negative, got {floor_db}")
    threshold = 10.0 ** (floor_db / 20.0)
    return float(np.count_nonzero(spectrum.values > threshold) / spectrum.values.size)


# ---------------------------------------------------------------------------
# Exports
# ---------------------------------------------------------------------------

def spectrum_csv_text(spectrum: WavenumberSpectrum) -> str:
    """Magnitude grid as CSV, one row per kx index, 6 significant digits."""
    values = spectrum.values
    row = ",".join(["%.6e"] * values.shape[1]) + "\n"
    return "".join(row % tuple(r) for r in values.tolist())


def write_spectrum_pgm(
    spectrum: WavenumberSpectrum,
    path,
    floor_db: float = -60.0,
) -> None:
    """ASCII PGM of the spectrum in dB, clipped to [floor_db, 0].

    Pixel row = ky index (so the image reads like a map with ky vertical),
    column = kx index; 255 = peak, 0 = at/below the floor.
    """
    if not floor_db < 0:
        raise ValueError(f"floor_db must be negative, got {floor_db}")
    with np.errstate(divide="ignore"):
        db = 20.0 * np.log10(spectrum.values)
    scaled = np.clip((db - floor_db) / (-floor_db), 0.0, 1.0)
    write_pgm(path, np.round(255.0 * scaled).astype(int))
