"""Cube container and WVC1 serialization."""

import dataclasses
import os
import struct
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import wavesaliency
from wavesaliency.cube import (
    DataCube,
    GridPoint,
    magnitude,
    meta_text,
    read_cube,
    write_cube,
)
from wavesaliency.errors import DataError

from conftest import wvc1_bytes


def make_cube(rng, n1=None, n2=None, t_len=None):
    n1 = n1 or int(rng.integers(2, 9))
    n2 = n2 or int(rng.integers(2, 9))
    t_len = t_len or int(rng.integers(1, 7))
    values = rng.normal(size=(t_len, n2, n1))
    return DataCube(n1, n2, t_len, 1e-3, 2e-8, values)


def test_grid_point_validation():
    p = GridPoint(3, 4)
    p.validate(5, 5)
    with pytest.raises(IndexError):
        GridPoint(5, 0).validate(5, 5)
    with pytest.raises(IndexError):
        GridPoint(-1, 0).validate(5, 5)
    assert GridPoint(2, 3).position(0.5) == (1.0, 1.5)


def test_cube_shape_and_views(rng):
    cube = make_cube(rng, n1=4, n2=3, t_len=5)
    assert cube.values.shape == (5, 3, 4)
    snap = cube.slice_at(2)
    assert snap.shape == (4, 3)  # (n1, n2), x index first
    assert snap[1, 2] == cube.values[2, 2, 1]
    h = cube.history(GridPoint(1, 2))
    assert h.shape == (5,)
    assert np.array_equal(h, cube.values[:, 2, 1])
    with pytest.raises(ValueError):
        cube.values[0, 0, 0] = 1.0  # read-only


def test_cube_rejects_bad_payload(rng):
    vals = rng.normal(size=(2, 3, 4))
    with pytest.raises(DataError, match="^payload has 24 samples, header implies 30$"):
        DataCube(5, 3, 2, 1e-3, 1e-8, vals)  # header/payload size mismatch
    bad = vals.copy()
    bad[0, 0, 0] = np.nan
    with pytest.raises(DataError, match="^payload contains non-finite values$"):
        DataCube(4, 3, 2, 1e-3, 1e-8, bad)
    with pytest.raises(DataError, match="^dx must be positive, finite and normal, got -0.001$"):
        DataCube(4, 3, 2, -1e-3, 1e-8, vals)


def _file(tmp_path, blob: bytes):
    path = tmp_path / "cube.wvc"
    path.write_bytes(blob)
    return path


def test_roundtrip_200_random_cubes(tmp_path, rng):
    # format/determinism gate: serialization must be bit-exact
    target = tmp_path / "cube.wvc"
    for _ in range(200):
        cube = make_cube(rng)
        assert write_cube(cube, target) == 36 + cube.values.nbytes
        assert target.read_bytes() == wvc1_bytes(cube)
        back = read_cube(target)
        assert back == cube  # float64 payload survives exactly
        assert back.values.dtype == np.float64


def test_roundtrip_on_disk(tmp_path, rng):
    cube = make_cube(rng, n1=6, n2=5, t_len=4)
    target = tmp_path / "cube.wvc"
    n = write_cube(cube, str(target))
    assert target.stat().st_size == n
    assert read_cube(target) == cube
    assert read_cube(str(target)) == cube
    # byte determinism of the writer itself
    assert target.read_bytes() == wvc1_bytes(cube)


def test_read_rejects_bad_magic(rng, tmp_path):
    blob = bytearray(wvc1_bytes(make_cube(rng)))
    blob[:4] = b"XXXX"
    with pytest.raises(DataError, match=r"^bad magic b'XXXX', expected b'WVC1'$"):
        read_cube(_file(tmp_path, bytes(blob)))


def test_read_rejects_other_versions(rng, tmp_path):
    blob = bytearray(wvc1_bytes(make_cube(rng)))
    struct.pack_into("<I", blob, 4, 2)
    with pytest.raises(DataError, match="^unsupported format version 2$"):
        read_cube(_file(tmp_path, bytes(blob)))


def test_read_rejects_truncated_payload(rng, tmp_path):
    blob = wvc1_bytes(make_cube(rng, n1=6, n2=5, t_len=4))
    with pytest.raises(DataError,
                       match="^payload length mismatch: header implies 960 bytes, got 952$"):
        read_cube(_file(tmp_path, blob[:-8]))
    with pytest.raises(DataError,
                       match=r"^file too short for WVC1 header \(35 < 36 bytes\)$"):
        read_cube(_file(tmp_path, blob[:35]))


def test_read_rejects_trailing_bytes(rng, tmp_path):
    blob = wvc1_bytes(make_cube(rng, n1=6, n2=5, t_len=4))
    with pytest.raises(DataError, match="^trailing bytes after payload$"):
        read_cube(_file(tmp_path, blob + b"\0"))


def test_read_rejects_a_payload_the_stream_cannot_hold(rng, tmp_path):
    # checked before the payload is allocated: 512 GB is never asked for
    blob = bytearray(wvc1_bytes(make_cube(rng, n1=5, n2=2, t_len=1))[:76])
    struct.pack_into("<III", blob, 8, 4000, 4000, 4000)
    assert len(blob) == 76
    target = _file(tmp_path, bytes(blob))
    message = "payload length mismatch: header implies 512000000000 bytes, got 40"
    for source in (target, str(target)):
        with pytest.raises(DataError, match=message):
            read_cube(source)


def test_read_allocates_the_payload_once(rng, tmp_path):
    # the samples land in their final array: no bytes object, no copy
    cube = make_cube(rng, n1=64, n2=64, t_len=100)
    target = tmp_path / "cube.wvc"
    write_cube(cube, target)
    payload = cube.values.nbytes
    tracemalloc.start()
    try:
        back = read_cube(target)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert back == cube
    assert peak <= 1.1 * payload, (peak, payload)


def test_read_rejects_nonfinite_payload(rng, tmp_path):
    cube = make_cube(rng, n1=3, n2=3, t_len=2)
    blob = bytearray(wvc1_bytes(cube))
    header = struct.calcsize("<4sIIIIdd")
    blob[header:header + 8] = struct.pack("<d", np.inf)
    with pytest.raises(DataError, match="^cube file rejected: payload contains non-finite values$"):
        read_cube(_file(tmp_path, bytes(blob)))


def test_peak_is_max_abs(rng):
    for _ in range(50):
        cube = make_cube(rng)
        assert cube.peak == float(np.max(np.abs(cube.values)))
        assert type(cube.peak) is float
        negative = -np.abs(cube.values) - 1e-3
        neg = DataCube(cube.n1, cube.n2, cube.t_len, cube.dx, cube.dt, negative)
        assert neg.peak == float(np.max(np.abs(negative)))
        assert neg.peak == -float(negative.min())
    zero = DataCube(3, 4, 2, 1e-3, 1e-8, np.zeros((2, 4, 3)))
    assert zero.peak == 0.0


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("where", [0, 11, 23])
def test_nonfinite_sample_rejected_anywhere(bad, where, rng, tmp_path):
    # first, a middle and the last of 2 x 3 x 4 samples
    vals = rng.normal(size=(2, 3, 4))
    vals.flat[where] = bad
    with pytest.raises(DataError, match="^payload contains non-finite values$"):
        DataCube(4, 3, 2, 1e-3, 1e-8, vals)
    blob = bytearray(wvc1_bytes(DataCube(4, 3, 2, 1e-3, 1e-8, np.zeros((2, 3, 4)))))
    header = struct.calcsize("<4sIIIIdd")
    blob[header + 8 * where:header + 8 * where + 8] = struct.pack("<d", bad)
    with pytest.raises(
        DataError, match="^cube file rejected: payload contains non-finite values$"
    ):
        read_cube(_file(tmp_path, bytes(blob)))


def test_peak_is_derived_not_compared(rng):
    cube = make_cube(rng, n1=3, n2=4, t_len=2)
    with pytest.raises(TypeError):
        DataCube(3, 4, 2, cube.dx, cube.dt, cube.values, peak=1.0)
    with pytest.raises(AttributeError):
        cube.peak = 2.0
    assert "peak" not in repr(cube)
    twin = DataCube(3, 4, 2, cube.dx, cube.dt, cube.values.copy())
    object.__setattr__(twin, "peak", cube.peak + 1.0)
    assert twin == cube
    peak = {f.name: f for f in dataclasses.fields(DataCube)}["peak"]
    assert not (peak.init or peak.repr or peak.compare)


def test_equality_is_exact(rng):
    cube = make_cube(rng, n1=3, n2=4, t_len=2)
    same = DataCube(3, 4, 2, cube.dx, cube.dt, cube.values.copy())
    assert cube == same
    nudged = cube.values.copy()
    nudged[0, 0, 0] = np.nextafter(nudged[0, 0, 0], np.inf)
    assert cube != DataCube(3, 4, 2, cube.dx, cube.dt, nudged)


def test_meta_sidecar():
    # sorted output => deterministic bytes regardless of insertion order
    for entries in ({"b": "2", "a": "1"}, {"a": "1", "b": "2"}):
        assert meta_text(entries).encode() == b"a = 1\nb = 2\n"


def test_magnitude_matches_abs_and_scales_exactly(rng):
    z = rng.normal(size=(5, 7)) + 1j * rng.normal(size=(5, 7))
    np.testing.assert_allclose(magnitude(z), np.abs(z), rtol=3 * np.finfo(float).eps, atol=0)
    # the power-of-two scale keeps every square in float range
    for power in (-600, 600):
        assert np.array_equal(magnitude(z * 2.0**power), magnitude(z) * 2.0**power)
    assert np.array_equal(magnitude(np.zeros(3, complex)), np.zeros(3))


# Prints the sha256 of an analytic-signal envelope and of a wavenumber
# spectrum, each of seeded noise.
_SIMD_PROBE = """
import hashlib
import numpy as np
from wavesaliency.spectrum import dft2_magnitude
from wavesaliency.windowing import _analytic_envelope
rng = np.random.default_rng(1701)
for values in (_analytic_envelope(rng.normal(size=1701)),
               dft2_magnitude(rng.normal(size=(64, 48)))):
    print(hashlib.sha256(values.tobytes()).hexdigest())
"""


def test_magnitudes_do_not_depend_on_the_simd_level():
    # python children with numpy's defaults and with every dispatched SIMD
    # feature this host has switched off (numpy's baseline loops) print the
    # same hashes; the complex np.abs rounds differently in numpy's SSE loop
    # than in its AVX2 and AVX-512 loops
    try:
        from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
    except ImportError:  # numpy < 2
        from numpy.core._multiarray_umath import __cpu_dispatch__, __cpu_features__
    disabled = " ".join(f for f in __cpu_dispatch__ if __cpu_features__.get(f))
    src = str(Path(wavesaliency.__file__).resolve().parents[1])
    env = {k: v for k, v in os.environ.items() if k != "NPY_DISABLE_CPU_FEATURES"}
    hashes = []
    for extra in ({}, {"NPY_DISABLE_CPU_FEATURES": disabled}):
        proc = subprocess.run([sys.executable, "-c", _SIMD_PROBE], capture_output=True,
                              text=True, env={**env, "PYTHONPATH": src, **extra})
        assert proc.returncode == 0, proc.stderr
        hashes.append(proc.stdout.split())
    assert len(hashes[0]) == 2 and hashes[0] == hashes[1]
