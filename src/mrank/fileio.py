"""File formats: MTEN binary tensors, PPM frame stacks, report tables.

MTEN layout (version 1): ASCII magic "MTEN", one version byte 0x01, one
unsigned byte for the order D, D little-endian uint64 dimensions, then the
entries as little-endian complex128 in Fortran order (first index fastest).
Read and write round-trip bitwise.

PPM support covers binary P6 with maxval 255. The header is four fields
(magic, width, height, maxval) separated by whitespace and "#" comments,
each comment running to the end of its line, and one whitespace byte after
maxval ends it; the pixel bytes follow. A list of frames becomes a
(height, width, 3, n_frames) complex tensor with values in [0, 1].

Every JSON file and stream is written by _write_json in one form: indent
2, a trailing newline, numpy scalars as the Python numbers they hold, and
LF line endings on every platform.
"""

import contextlib
import csv
import json
import math
import os
import re
import struct
import warnings

import numpy as np

from .tensor import _require_finite, as_tensor

__all__ = [
    "read_tensor",
    "write_tensor",
    "read_frames",
    "write_frames",
    "write_report",
]

MAGIC = b"MTEN"
VERSION = 1


def write_tensor(path, t) -> None:
    """Write a tensor to an MTEN file."""
    t = as_tensor(t)
    if t.ndim == 0 or t.ndim > 255:
        raise ValueError(f"order must be in 1..255, got {t.ndim}")
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(bytes([VERSION, t.ndim]))
        fh.write(struct.pack(f"<{t.ndim}Q", *t.shape))
        fh.write(np.ascontiguousarray(t.reshape(-1, order="F"), dtype="<c16").tobytes())


def read_tensor(path) -> np.ndarray:
    """Read an MTEN file; validates magic, version, order, payload size, and
    that every entry is finite. The payload size is checked against the
    file's size before anything of the tensor's size is allocated, and the
    entries are read straight into the returned array, so the tensor is
    held once."""
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        raw = fh.read(6)
        if len(raw) < 6 or raw[:4] != MAGIC:
            raise ValueError(f"{path}: not an MTEN file (bad magic)")
        if raw[4] != VERSION:
            raise ValueError(f"{path}: unsupported MTEN version {raw[4]}")
        order = raw[5]
        if order == 0:
            raise ValueError(f"{path}: order must be positive")
        head = 6 + 8 * order
        raw = fh.read(8 * order)
        if len(raw) < 8 * order:
            raise ValueError(f"{path}: truncated header")
        dims = struct.unpack(f"<{order}Q", raw)
        if any(d == 0 for d in dims):
            raise ValueError(f"{path}: zero dimension in {dims}")
        count = math.prod(dims)  # Python ints: a fixed-width product can wrap
        if size != head + 16 * count:
            raise ValueError(f"{path}: payload is {size - head} bytes, expected {16 * count}")
        flat = np.empty(count, dtype="<c16")
        got = fh.readinto(flat)
        if got != 16 * count:  # the file changed since its size was read
            raise ValueError(f"{path}: payload is {got} bytes, expected {16 * count}")
    _require_finite(flat, path)
    # no copy on a little-endian machine, where <c16 is complex128
    return flat.astype(np.complex128, copy=False).reshape(dims, order="F")


# One PPM header field: the whitespace and "#" comments before it, then the
# field itself, which ends at whitespace or "#". A comment is matched to the
# end of its line (or of the file), so no field is ever read out of one.
_PPM_FIELD = re.compile(rb"(?:\s|#[^\r\n]*(?:[\r\n]|\Z))*([^\s#]+)")


def _read_ppm(path):
    with open(path, "rb") as fh:
        raw = fh.read()
    fields, end = [], 0
    for k in range(4):  # magic, width, height, maxval
        m = _PPM_FIELD.match(raw, end)
        if m is None:
            raise ValueError(f"{path}: truncated PPM header")
        if k == 0 and m[1] != b"P6":
            raise ValueError(f"{path}: not a binary PPM (magic {m[1]!r})")
        fields.append(m[1])
        end = m.end()
    w, h, maxval = map(int, fields[1:])
    if maxval != 255:
        raise ValueError(f"{path}: only maxval 255 is supported, got {maxval}")
    need = 3 * w * h
    data = raw[end + 1 : end + 1 + need]  # one whitespace byte ends the header
    if len(data) != need:
        raise ValueError(f"{path}: expected {need} pixel bytes, got {len(data)}")
    return np.frombuffer(data, dtype=np.uint8).reshape(h, w, 3)


def read_frames(paths) -> np.ndarray:
    """Stack PPM frames into a (height, width, 3, n_frames) complex tensor
    with values scaled to [0, 1]. Frames must share one size."""
    paths = list(paths)
    if not paths:
        raise ValueError("no frames given")
    frames = [_read_ppm(p) for p in paths]
    shape = frames[0].shape
    for p, f in zip(paths, frames):
        if f.shape != shape:
            raise ValueError(f"{p}: frame shape {f.shape} != first frame {shape}")
    stack = np.stack(frames, axis=-1).astype(np.float64) / 255.0
    return stack.astype(np.complex128)


def write_frames(paths, t) -> None:
    """Write a (height, width, 3, n_frames) tensor as PPM files.

    Values are taken as real in [0, 1]; a warning is issued if any imaginary
    part exceeds 1e-6, and real parts are clamped before quantizing."""
    t = as_tensor(t)
    if t.ndim != 4 or t.shape[2] != 3:
        raise ValueError(f"expected shape (h, w, 3, frames), got {t.shape}")
    paths = list(paths)
    if len(paths) != t.shape[3]:
        raise ValueError(f"{len(paths)} paths for {t.shape[3]} frames")
    if np.abs(t.imag).max(initial=0.0) > 1e-6:
        warnings.warn("discarding imaginary parts above 1e-6 when writing frames")
    pix = np.clip(t.real, 0.0, 1.0)
    pix = np.rint(pix * 255.0).astype(np.uint8)
    h, w = t.shape[:2]
    for k, path in enumerate(paths):
        with open(path, "wb") as fh:
            fh.write(f"P6\n{w} {h}\n255\n".encode())
            fh.write(pix[:, :, :, k].tobytes())


def _cell(v):
    """A CSV cell: None is empty, a float is written at %.6g, a list or
    tuple as its cells joined by commas and a dict as k=v items joined by
    semicolons."""
    if v is None:
        return ""
    if isinstance(v, (list, tuple)):
        return ",".join(map(_cell, v))
    if isinstance(v, dict):
        return ";".join(f"{k}={_cell(x)}" for k, x in v.items())
    if isinstance(v, (bool, np.bool_)):
        return str(bool(v))
    if isinstance(v, (float, np.floating)):
        return f"{float(v):.6g}"
    return str(v)


@contextlib.contextmanager
def _opened(target):
    """A text file object for `target`: a path is opened for writing with
    newline="" (so lines end in LF everywhere) and closed on exit; a file
    object is passed through."""
    if hasattr(target, "write"):
        yield target
    else:
        with open(target, "w", newline="") as fh:
            yield fh


def _write_json(target, obj) -> None:
    """Write obj to a path or a text file as indent-2 JSON plus a newline;
    numpy scalars are written as the Python numbers they hold."""
    with _opened(target) as fh:
        json.dump(obj, fh, indent=2, default=lambda v: v.item())
        fh.write("\n")


def write_report(target, rows, fmt: str = "csv") -> None:
    """Write a list of row dicts as CSV (cells as _cell writes them) or
    JSON (lossless, as _write_json writes it).

    Columns follow first-appearance order across rows; missing cells are
    left empty. `target` is a path or a text file object. An unknown fmt
    raises ValueError before target is opened, so an existing file keeps
    its bytes."""
    if fmt not in ("csv", "json"):
        raise ValueError(f"unknown report format {fmt!r} (csv or json)")
    rows = list(rows)
    if fmt == "json":
        _write_json(target, rows)
        return
    cols = []
    for row in rows:
        for k in row:
            if k not in cols:
                cols.append(k)
    with _opened(target) as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(cols)
        for row in rows:
            writer.writerow([_cell(row.get(c)) for c in cols])
