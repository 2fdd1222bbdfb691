"""Wavefield data cube: in-memory model and the WVC1 on-disk format.

A cube holds the out-of-plane deflection w sampled on an n1 x n2 node grid
at t_len equally spaced times.  The payload order is time-major, and within
one time slice the x index runs fastest, i.e. element ``tau*n1*n2 + m*n1 + l``
is the deflection at node ``(l, m)`` and time sample ``tau``.  Internally the
samples live in a read-only float64 array of shape ``(t_len, n2, n1)`` whose
C-order flattening is exactly that payload.  The cube's peak |w| is found
once, by the same max/min pass that rejects non-finite samples, and kept
as ``DataCube.peak`` so no later stage has to reduce the whole cube again.

WVC1 layout (all integers and floats little-endian):

    bytes 0-3    magic b"WVC1"
    bytes 4-7    format version, uint32, currently 1
    bytes 8-19   n1, n2, t_len as uint32
    bytes 20-35  dx, dt as float64
    bytes 36-    payload, n1*n2*t_len float64

Cubes are read from and written to file paths that can seek.  ``read_cube``
checks the header, then compares the payload it implies with the bytes left
in the file before allocating anything, so a header cannot claim more memory
than its file holds and a path that cannot seek (a pipe) fails with an
OSError that names it.
It rejects trailing bytes and reads the samples straight into their final
array.

Sidecar metadata (material constants, excitation, run parameters) goes in a
plain ``key = value`` text file next to the binary, never in the binary:
the CLI writes ``<cube>.meta`` from ``config.cube_meta_text``, which lays
its lines out with ``meta_text``.  Every text output is a pure ``*_text``
function of its data; only the CLI names files and writes them with
``write_text``.  ``magnitude`` is the package's one complex magnitude,
shared by the window-timing envelope and the wavenumber spectrum.
"""

from __future__ import annotations

import contextlib
import math
import os
import struct
import sys
from dataclasses import dataclass, field, fields
from numbers import Integral, Real
from pathlib import Path

import numpy as np

from .errors import DataError

MAGIC = b"WVC1"
FORMAT_VERSION = 1
_HEADER = struct.Struct("<4sIIIIdd")  # magic, version, n1, n2, t_len, dx, dt


def plain_number(name: str, value, kind: str):
    """``value`` as a plain ``int`` from an Integral or a finite ``float`` from a Real; no bool."""
    if isinstance(value, Integral if kind == "int" else Real) and not isinstance(value, bool):
        if kind == "int":
            return int(value)
        with contextlib.suppress(OverflowError):  # a Real past float range
            if math.isfinite(number := float(value)):
                return number
    noun = "an integer" if kind == "int" else "a number"
    raise ValueError(f"{name} must be {noun}, got {value!r}")


def hold_plain_numbers(self) -> None:
    """Hold each ``int`` or ``float`` field of a frozen record as its ``plain_number``."""
    for f in fields(self):
        if f.type in ("int", "float"):
            object.__setattr__(self, f.name, plain_number(f.name, getattr(self, f.name), f.type))


@dataclass(frozen=True)
class GridPoint:
    """A node of the measurement grid, x index ``l`` and y index ``m``, plain ints."""

    l: int
    m: int
    __post_init__ = hold_plain_numbers

    def validate(self, n1: int, n2: int) -> None:
        if not (0 <= self.l < n1 and 0 <= self.m < n2):
            raise IndexError(
                f"grid point ({self.l}, {self.m}) outside {n1} x {n2} grid"
            )

    def position(self, dx: float) -> tuple[float, float]:
        """Physical (x, y) coordinates in meters for node spacing dx."""
        return (self.l * dx, self.m * dx)


@dataclass(frozen=True)
class DataCube:
    """Deflection history w(l, m, tau) on a regular grid.

    Attributes:
        n1, n2: node counts along x and y.
        t_len: number of stored time samples.
        dx: node spacing in meters.
        dt: interval between stored samples in seconds.  Both must be
            positive, finite and normal floats.
        values: read-only float64 array of shape (t_len, n2, n1).
        peak: max |w| over the whole cube, computed on construction; not a
            constructor argument, and not part of ``==`` or ``repr``.
    """

    n1: int
    n2: int
    t_len: int
    dx: float
    dt: float
    values: np.ndarray = field(repr=False)
    peak: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.n1 < 2 or self.n2 < 2:
            raise DataError(f"grid must be at least 2 x 2, got {self.n1} x {self.n2}")
        if self.t_len < 1:
            raise DataError(f"need at least one time sample, got {self.t_len}")
        # a subnormal step keeps too few bits for distances and times, and
        # the map goes wrong with no error (dx = 5e-324 on bench1_ci flags
        # 11 regions, not 13)
        for name in ("dx", "dt"):
            value = getattr(self, name)
            if not sys.float_info.min <= value <= sys.float_info.max:
                raise DataError(
                    f"{name} must be positive, finite and normal, got {value}")
        arr = np.ascontiguousarray(self.values, dtype=np.float64)
        if arr.size != self.n1 * self.n2 * self.t_len:
            raise DataError(
                f"payload has {arr.size} samples, header implies "
                f"{self.n1 * self.n2 * self.t_len}"
            )
        # NaN propagates through max and min and an infinity reaches one of
        # them, so this one reduction is also the finiteness check.
        peak = max(float(arr.max()), -float(arr.min()))
        if not np.isfinite(peak):
            raise DataError("payload contains non-finite values")
        arr = arr.reshape(self.t_len, self.n2, self.n1)
        arr.flags.writeable = False
        object.__setattr__(self, "values", arr)
        object.__setattr__(self, "peak", peak)

    def slice_at(self, t_index: int) -> np.ndarray:
        """One time slice as a read-only (n1, n2) array indexed ``[l, m]``."""
        if not 0 <= t_index < self.t_len:
            raise IndexError(
                f"time index {t_index} out of range [0, {self.t_len})"
            )
        return self.values[t_index].T

    def history(self, point: GridPoint) -> np.ndarray:
        """Deflection time history at one grid node, shape (t_len,)."""
        point.validate(self.n1, self.n2)
        return self.values[:, point.m, point.l]

    def __eq__(self, other) -> bool:
        if not isinstance(other, DataCube):
            return NotImplemented
        return (
            (self.n1, self.n2, self.t_len) == (other.n1, other.n2, other.t_len)
            and self.dx == other.dx
            and self.dt == other.dt
            and np.array_equal(self.values, other.values)
        )


def write_cube(cube: DataCube, path: str | Path) -> int:
    """Write a cube to a WVC1 file; returns the number of bytes written.

    The cube constructor already guarantees the invariants, so the payload is
    written as-is, straight from the sample array.  A failed write raises the
    OSError of the file operation that failed, which may be the close, with
    the path as its filename.
    """
    header = _HEADER.pack(
        MAGIC, FORMAT_VERSION, cube.n1, cube.n2, cube.t_len, cube.dx, cube.dt
    )
    # C-order == WVC1 payload order; a byte view, not a copy
    payload = memoryview(cube.values).cast("B")
    try:
        with open(path, "wb") as fh:
            fh.write(header)
            fh.write(payload)
    except OSError as exc:
        # only a failed open names its file
        if exc.filename is None:
            exc.filename = os.fspath(path)
        raise
    return len(header) + len(payload)


def read_cube(path: str | Path) -> DataCube:
    """Read a WVC1 file, validating magic, version, length, and finiteness.

    A file or header that cannot be used raises DataError; one that the
    cube constructor refuses has "cube file rejected: " before its message.
    """
    with open(path, "rb") as fh:
        head = fh.read(_HEADER.size)
        if len(head) < _HEADER.size:
            raise DataError(
                f"file too short for WVC1 header ({len(head)} < {_HEADER.size} bytes)"
            )
        magic, version, n1, n2, t_len, dx, dt = _HEADER.unpack(head)
        if magic != MAGIC:
            raise DataError(f"bad magic {magic!r}, expected {MAGIC!r}")
        if version != FORMAT_VERSION:
            raise DataError(f"unsupported format version {version}")
        size = 8 * n1 * n2 * t_len
        # sized before the payload is allocated; a pipe fails this seek
        try:
            here = fh.tell()
            left = fh.seek(0, os.SEEK_END) - here
        except OSError as exc:
            raise OSError(exc.errno, f"cubes must be seekable files ({exc.strerror})",
                          os.fspath(path)) from exc
        if left < size:
            raise _payload_mismatch(size, left)
        if left > size:
            raise DataError("trailing bytes after payload")
        fh.seek(here)
        values = np.empty(size // 8, dtype="<f8")
        got = fh.readinto(memoryview(values).cast("B"))
        if got != size:
            raise _payload_mismatch(size, got)
    try:
        return DataCube(n1=n1, n2=n2, t_len=t_len, dx=dx, dt=dt, values=values)
    except DataError as exc:
        raise DataError(f"cube file rejected: {exc}") from exc


def _payload_mismatch(size: int, got: int) -> DataError:
    return DataError(
        f"payload length mismatch: header implies {size} bytes, got {got}"
    )


def magnitude(z: np.ndarray) -> np.ndarray:
    """``|z|`` of a complex array, to the same bits under every numpy SIMD level.

    The complex ``np.abs`` is a hypot, and numpy's SSE loop for it rounds
    differently from its AVX2 and AVX-512 loops.  Multiply, add and sqrt
    are correctly rounded in every loop, so ``sqrt(re*re + im*im)`` gives
    the same bits in each.  The parts are first scaled by the exact power
    of two of their peak, as ``windowing.extract_windows`` scales a loud
    cube: no square then leaves float range, and the result scales
    exactly with ``z``.
    """
    parts = np.stack([z.real, z.imag])
    _, exponent = math.frexp(float(np.abs(parts).max(initial=0.0)))
    re, im = np.ldexp(parts, -exponent)
    return np.ldexp(np.sqrt(re * re + im * im), exponent)


def meta_text(entries: dict) -> str:
    """Metadata as sorted ``key = value`` lines: the cube sidecar and manifest text."""
    return "\n".join(f"{key} = {entries[key]}" for key in sorted(entries)) + "\n"


def pgm_text(pixels: np.ndarray) -> str:
    """ASCII P2 grayscale image of ``pixels[x, y]`` (0-255), one text row per y."""
    width, height = pixels.shape
    lines = ["P2", f"{width} {height}", "255"]
    lines += [" ".join(map(str, row))
              for row in pixels.T.astype(int, copy=False).tolist()]
    return "\n".join(lines) + "\n"


def write_text(path: str | Path, text: str) -> None:
    """Write text to a file, created or truncated, with no newline translation."""
    with open(path, "w", newline="") as fh:
        fh.write(text)
