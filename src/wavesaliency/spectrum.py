"""Wavenumber-plane view of wavefield snapshots.

The 2-D DFT magnitude of a deflection snapshot shows which wavenumbers the
field occupies.  For a narrow-band flexural wave the support is a thin
annulus, so the occupied fraction of the spectral plane — the Landau-rate
estimate — is far below 1: the data are heavily compressible, which is what
justifies aggressive spatial subsampling.

A spectrum is a plain read-only array: ``dft2_magnitude`` returns the
centred magnitudes, ``values[i, j]`` at the i-th kx and j-th ky bin, with
zero wavenumber at index (n1 // 2, n2 // 2) and the peak scaled to 1.
"""

from __future__ import annotations

import numpy as np

from .cube import magnitude, pgm_text
from .errors import NoSignalError

# Bottom of the PGM chart's dB scale: bins at or below it are black.
PGM_FLOOR_DB = -60.0


def dft2_magnitude(snapshot: np.ndarray) -> np.ndarray:
    """Centred magnitude spectrum of a 2-D snapshot, normalised to peak 1.

    ``snapshot`` is indexed [l, m] (x-index first); the result has the same
    shape and is read-only.  The magnitudes are ``cube.magnitude``'s, so
    they do not move with numpy's SIMD level.
    """
    snap = np.asarray(snapshot, dtype=np.float64)
    if snap.ndim != 2:
        raise ValueError("snapshot must be 2-D")
    if not np.isfinite(snap).all():
        raise ValueError("snapshot must be finite")
    mag = magnitude(np.fft.fftshift(np.fft.fft2(snap)))
    peak = float(mag.max())
    if peak <= 0.0:
        raise NoSignalError("all-zero snapshot has no wavenumber content")
    values = mag / peak
    values.flags.writeable = False
    return values


def occupied_fraction(spectrum: np.ndarray, floor_db: float) -> float:
    """Fraction of bins whose magnitude strictly exceeds the dB floor.

    With the peak normalized to 1, a bin counts as occupied when its
    magnitude > 10^(floor_db / 20).  This fraction estimates the Landau
    rate: the smallest average sampling rate from which a signal with this
    spectral support is reconstructable.
    """
    if not floor_db < 0:
        raise ValueError(f"floor_db must be negative, got {floor_db}")
    threshold = 10.0 ** (floor_db / 20.0)
    return float(np.count_nonzero(spectrum > threshold) / spectrum.size)


# ---------------------------------------------------------------------------
# Exports
# ---------------------------------------------------------------------------

def spectrum_csv_text(spectrum: np.ndarray) -> str:
    """Magnitude grid as CSV, one row per kx index, 6 significant digits."""
    row = ",".join(["%.6e"] * spectrum.shape[1]) + "\n"
    return "".join(row % tuple(r) for r in spectrum.tolist())


def spectrum_pgm_text(spectrum: np.ndarray) -> str:
    """ASCII PGM text of the spectrum in dB, clipped to [PGM_FLOOR_DB, 0].

    Pixel row = ky index (so the image reads like a map with ky vertical),
    column = kx index; 255 = peak, 0 = at/below the floor.
    """
    with np.errstate(divide="ignore"):
        db = 20.0 * np.log10(spectrum)
    scaled = np.clip((db - PGM_FLOOR_DB) / (-PGM_FLOOR_DB), 0.0, 1.0)
    return pgm_text(np.round(255.0 * scaled).astype(int))
