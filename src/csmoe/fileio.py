"""On-disk formats: TNSR1 tensors, block files and atomic writes.

A .tnsr file is one TNSR1 block; a block file (a checkpoint or its ``.opt``
sidecar) is one JSON header line, then TNSR1 blocks. The GRID1 rasters of
``sampler`` share the header line and ``read_array``. No reader allocates
before it has checked that the bytes remain, and a FormatError starts with
the file (and block) its caller names.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import struct

import numpy as np

from .errors import FormatError

_TNSR_MAGIC = b"TNSR"
_TNSR_VERSION = 1


def _error(where, message: str) -> FormatError:
    return FormatError(message if where is None else f"{where}: {message}")


def write_tnsr(fh, array: np.ndarray):
    """magic 'TNSR', version u8, rank u8, rank x u32 LE dims, f64 LE payload."""
    arr = np.asarray(array, dtype=np.float64)
    if arr.ndim > 255:
        raise FormatError(f"TNSR1 rank limit is 255, got {arr.ndim}")
    fh.write(_TNSR_MAGIC)
    fh.write(struct.pack("<BB", _TNSR_VERSION, arr.ndim))
    for dim in arr.shape:
        fh.write(struct.pack("<I", dim))
    fh.write(np.ascontiguousarray(arr, dtype="<f8").reshape(-1))  # the array's own buffer if it is one


def read_tnsr(fh, where=None) -> np.ndarray:
    """The next TNSR1 block of ``fh``; a FormatError starts with ``where``."""
    head = fh.read(6)
    if len(head) < 6 or head[:4] != _TNSR_MAGIC:
        raise _error(where, "not a TNSR1 block (bad magic)")
    version, rank = head[4], head[5]
    if version != _TNSR_VERSION:
        raise _error(where, f"unsupported TNSR version {version}")
    dims = tuple(read_array(fh, (rank,), "<u4", "TNSR1 header", where).tolist())  # ints: math.prod cannot wrap
    return read_array(fh, dims, "<f8", "TNSR1 payload", where).astype(np.float64, copy=False)


def read_array(fh, shape, dtype, what: str, where=None) -> np.ndarray:
    """The next array of ``shape`` and ``dtype`` in the seekable ``fh``,
    read straight into the array returned. FormatError ("truncated
    ``what``", after ``where``) unless its bytes remain, checked before
    anything is allocated, so a header that claims any size never allocates
    it."""
    itemsize = np.dtype(dtype).itemsize
    here = fh.tell()
    if itemsize * math.prod(shape) > fh.seek(0, os.SEEK_END) - here:
        raise _error(where, f"truncated {what}")
    fh.seek(here)
    if itemsize * math.prod(max(d, 1) for d in shape) > np.iinfo(np.intp).max:  # empty, yet too large to shape
        raise _error(where, f"{what} shape {tuple(shape)} is too large")
    out = np.empty(shape, dtype=dtype)
    if fh.readinto(out.reshape(-1).view(np.uint8)) != out.nbytes:
        raise _error(where, f"truncated {what}")
    return out


def save_tnsr(path, array: np.ndarray):
    with atomic_write(path) as fh:
        write_tnsr(fh, array)


def load_tnsr(path) -> np.ndarray:
    with open(path, "rb") as fh:
        return read_tnsr(fh, path)


# ---------------------------------------------------------------------------
# Block files: one JSON header line, then TNSR1 blocks (checkpoints, .opt)
# ---------------------------------------------------------------------------


def read_header(fh, path, kind: str) -> dict:
    """The JSON object on the first line of ``fh``; FormatError names ``path``."""
    line = fh.readline()
    if not line.endswith(b"\n"):
        raise FormatError(f"{path}: missing {kind} header line")
    try:
        header = json.loads(line.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise FormatError(f"{path}: unreadable {kind} header: {exc}") from exc
    if not isinstance(header, dict):
        raise FormatError(f"{path}: {kind} header is not a JSON object")
    return header


@contextlib.contextmanager
def atomic_write(path, mode: str = "wb", **open_kwargs):
    """Open ``<path>.tmp`` for writing and rename it over ``path`` when the
    block ends: a killed writer never leaves a torn file, only the previous
    one (there is no fsync, so this does not guard against power loss)."""
    tmp = f"{path}.tmp"
    try:
        fh = open(tmp, mode, **open_kwargs)
    except OSError as exc:  # name the file the caller asked for, not its temp twin
        raise OSError(exc.errno, exc.strerror, os.fspath(path)) from exc
    try:
        with fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise


def write_blocks(path, header: dict, arrays):
    """Write the header line and one TNSR1 block per array, atomically."""
    with atomic_write(path) as fh:
        fh.write(json.dumps(header, sort_keys=True).encode("utf-8") + b"\n")
        for array in arrays:
            write_tnsr(fh, array)


def read_blocks(path, fmt: str, versions, expect):
    """Read a file written by ``write_blocks``; returns (header, arrays).

    The header must be a JSON object with ``format`` ``fmt`` and an int
    ``version`` in ``versions``; ``expect(header)`` then returns the
    (label, shape) of every block in order. Each block must have its shape
    and nothing may follow the last; every FormatError names the file and
    the block's label.
    """
    with open(path, "rb") as fh:
        header = read_header(fh, path, fmt)
        if header.get("format") != fmt:
            raise FormatError(f"{path}: not a {fmt} file")
        version = header.get("version")
        if type(version) is not int or version not in versions:
            raise FormatError(f"{path}: unsupported {fmt} version {version!r}")
        arrays, label = [], "the header"
        for label, shape in expect(header):
            arr = read_tnsr(fh, f"{path}: block {label}")
            if arr.shape != tuple(shape):
                raise FormatError(f"{path}: block {label} has shape {arr.shape}, expected {tuple(shape)}")
            arrays.append(arr)
        if fh.read(1):
            raise FormatError(f"{path}: trailing bytes after {label}")
    return header, arrays
