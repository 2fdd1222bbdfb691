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

Sidecar metadata (material constants, excitation, run parameters) goes in a
plain ``key = value`` text file next to the binary, never in the binary.
"""

from __future__ import annotations

import io
import struct
from dataclasses import dataclass, field
from pathlib import Path
from typing import BinaryIO, Union

import numpy as np

from .errors import CubeDataError, CubeFormatError

MAGIC = b"WVC1"
FORMAT_VERSION = 1
_HEADER = struct.Struct("<4sIIIIdd")  # magic, version, n1, n2, t_len, dx, dt
_CHUNK = 1 << 20  # largest single read from a stream that cannot seek


@dataclass(frozen=True)
class GridPoint:
    """A node of the measurement grid, x index ``l`` and y index ``m``."""

    l: int
    m: int

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
        dt: interval between stored samples in seconds.
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
            raise CubeDataError(f"grid must be at least 2 x 2, got {self.n1} x {self.n2}")
        if self.t_len < 1:
            raise CubeDataError(f"need at least one time sample, got {self.t_len}")
        if not (self.dx > 0.0 and np.isfinite(self.dx)):
            raise CubeDataError(f"dx must be positive and finite, got {self.dx}")
        if not (self.dt > 0.0 and np.isfinite(self.dt)):
            raise CubeDataError(f"dt must be positive and finite, got {self.dt}")
        arr = np.ascontiguousarray(self.values, dtype=np.float64)
        if arr.size != self.n1 * self.n2 * self.t_len:
            raise CubeDataError(
                f"payload has {arr.size} samples, header implies "
                f"{self.n1 * self.n2 * self.t_len}"
            )
        # NaN propagates through max and min and an infinity reaches one of
        # them, so this one reduction is also the finiteness check.
        peak = max(float(arr.max()), -float(arr.min()))
        if not np.isfinite(peak):
            raise CubeDataError("payload contains non-finite values")
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


_Sink = Union[str, Path, BinaryIO]


def write_cube(cube: DataCube, destination: _Sink) -> int:
    """Write a cube in WVC1 format; returns the number of bytes written.

    The cube constructor already guarantees the invariants, so the payload is
    emitted as-is; any sink failure surfaces as an OSError carrying the byte
    offset reached.
    """
    header = _HEADER.pack(
        MAGIC, FORMAT_VERSION, cube.n1, cube.n2, cube.t_len, cube.dx, cube.dt
    )
    # C-order == WVC1 payload order; a byte view, not a copy
    payload = memoryview(cube.values).cast("B")
    if isinstance(destination, (str, Path)):
        with open(destination, "wb") as fh:
            return _write_all(fh, header, payload)
    return _write_all(destination, header, payload)


def _write_all(fh: BinaryIO, header: bytes, payload: memoryview) -> int:
    written = 0
    try:
        fh.write(header)
        written += len(header)
        fh.write(payload)
        written += len(payload)
    except OSError as exc:
        raise OSError(f"cube write failed at byte offset {written}: {exc}") from exc
    return written


def read_cube(source: _Sink) -> DataCube:
    """Read a WVC1 cube, validating magic, version, length, and finiteness."""
    if isinstance(source, (str, Path)):
        with open(source, "rb") as fh:
            return _read_stream(fh)
    return _read_stream(source)


def _read_stream(fh: BinaryIO) -> DataCube:
    head = _read_upto(fh, _HEADER.size)
    if len(head) < _HEADER.size:
        raise CubeFormatError(
            f"file too short for WVC1 header ({len(head)} < {_HEADER.size} bytes)"
        )
    magic, version, n1, n2, t_len, dx, dt = _HEADER.unpack(head)
    if magic != MAGIC:
        raise CubeFormatError(f"bad magic {magic!r}, expected {MAGIC!r}")
    if version != FORMAT_VERSION:
        raise CubeFormatError(f"unsupported format version {version}")
    size = 8 * n1 * n2 * t_len
    if fh.seekable():
        # a header that claims more than the stream holds is rejected
        # before the payload is allocated
        here = fh.tell()
        left = fh.seek(0, io.SEEK_END) - here
        fh.seek(here)
        if left < size:
            raise _payload_mismatch(size, left)
        values = np.empty(size // 8, dtype="<f8")
        buf = memoryview(values).cast("B")
        got = 0
        while got < size:
            n = fh.readinto(buf[got:])
            if not n:
                raise _payload_mismatch(size, got)
            got += n
    else:
        # a stream that cannot seek is not sized up front: it is read in
        # bounded chunks, so a header's claim is never allocated unread
        data = _read_upto(fh, size)
        if len(data) < size:
            raise _payload_mismatch(size, len(data))
        values = np.frombuffer(data, dtype="<f8")
    if fh.read(1):
        raise CubeFormatError("trailing bytes after payload")
    try:
        return DataCube(n1=n1, n2=n2, t_len=t_len, dx=dx, dt=dt, values=values)
    except CubeDataError as exc:
        raise CubeDataError(f"cube file rejected: {exc}") from exc


def _read_upto(fh: BinaryIO, size: int) -> bytes:
    """``size`` bytes of the stream, fewer only where it ends.

    Short reads are repeated, and no single read asks for more than
    ``_CHUNK`` bytes, so what is allocated never exceeds what arrived by
    more than one chunk.
    """
    parts = []
    while size:
        part = fh.read(min(size, _CHUNK))
        if not part:
            break
        parts.append(part)
        size -= len(part)
    return b"".join(parts)


def _payload_mismatch(size: int, got: int) -> CubeFormatError:
    return CubeFormatError(
        f"payload length mismatch: header implies {size} bytes, got {got}"
    )


def roundtrip_bytes(cube: DataCube) -> bytes:
    """Serialize to an in-memory WVC1 blob (convenience for tests and tools)."""
    buf = io.BytesIO()
    write_cube(cube, buf)
    return buf.getvalue()


def write_meta(path: str | Path, entries: dict) -> None:
    """Write sidecar metadata as sorted ``key = value`` lines."""
    lines = [f"{key} = {entries[key]}" for key in sorted(entries)]
    write_text(path, "\n".join(lines) + "\n")


def write_text(path: str | Path, text: str) -> None:
    """Write text to a file, created or truncated, with no newline translation."""
    with open(path, "w", newline="") as fh:
        fh.write(text)


def write_pgm(path: str | Path, pixels: np.ndarray) -> None:
    """ASCII P2 grayscale image of ``pixels[x, y]`` (0-255), one text row per y."""
    width, height = pixels.shape
    lines = ["P2", f"{width} {height}", "255"]
    lines += [" ".join(map(str, row))
              for row in pixels.T.astype(int, copy=False).tolist()]
    write_text(path, "\n".join(lines) + "\n")


def read_meta(path: str | Path) -> dict[str, str]:
    """Parse a sidecar metadata file back into a string-valued dict."""
    out: dict[str, str] = {}
    for raw in Path(path).read_text().splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, _, value = line.partition("=")
        out[key.strip()] = value.strip()
    return out


def meta_path(cube_path: str | Path) -> Path:
    """Sidecar path convention: the cube path with ``.meta`` appended."""
    p = Path(cube_path)
    return p.with_name(p.name + ".meta")
