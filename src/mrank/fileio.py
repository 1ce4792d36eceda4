"""File formats: MTEN binary tensors, PPM frame stacks, report tables.

MTEN layout (version 1): ASCII magic "MTEN", one version byte 0x01, one
unsigned byte for the order D, D little-endian uint64 dimensions, then the
entries as little-endian complex128 in Fortran order (first index fastest).
Read and write round-trip bitwise.

PPM support covers binary P6 with maxval 255. A list of frames becomes a
(height, width, 3, n_frames) complex tensor with values in [0, 1].
"""

import csv
import json
import math
import struct
import warnings

import numpy as np

from .tensor import as_tensor

__all__ = [
    "MAGIC",
    "VERSION",
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
    that every entry is finite."""
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < 6 or raw[:4] != MAGIC:
        raise ValueError(f"{path}: not an MTEN file (bad magic)")
    if raw[4] != VERSION:
        raise ValueError(f"{path}: unsupported MTEN version {raw[4]}")
    order = raw[5]
    if order == 0:
        raise ValueError(f"{path}: order must be positive")
    head = 6 + 8 * order
    if len(raw) < head:
        raise ValueError(f"{path}: truncated header")
    dims = struct.unpack(f"<{order}Q", raw[6:head])
    if any(d == 0 for d in dims):
        raise ValueError(f"{path}: zero dimension in {dims}")
    count = math.prod(dims)  # Python ints: a fixed-width product can wrap
    if len(raw) != head + 16 * count:
        raise ValueError(
            f"{path}: payload is {len(raw) - head} bytes, expected {16 * count}"
        )
    flat = np.frombuffer(raw, dtype="<c16", count=count, offset=head)
    bad = count - int(np.count_nonzero(np.isfinite(flat)))
    if bad:
        raise ValueError(f"{path}: {bad} non-finite entries (NaN or Inf)")
    return flat.astype(np.complex128).reshape(dims, order="F")


def _ppm_tokens(raw: bytes):
    """Header tokens of a PPM file: whitespace separated, # to EOL is comment.
    Yields (token, offset just past the single whitespace that ends it)."""
    i = 0
    n = len(raw)
    while i < n:
        while i < n and raw[i : i + 1].isspace():
            i += 1
        if i < n and raw[i] == ord("#"):
            while i < n and raw[i] not in (10, 13):
                i += 1
            continue
        j = i
        while j < n and not raw[j : j + 1].isspace() and raw[j] != ord("#"):
            j += 1
        if j > i:
            yield raw[i:j], j + 1
        i = j


def _read_ppm(path):
    with open(path, "rb") as fh:
        raw = fh.read()
    toks = _ppm_tokens(raw)
    try:
        magic, _ = next(toks)
        if magic != b"P6":
            raise ValueError(f"{path}: not a binary PPM (magic {magic!r})")
        (w, _), (h, _), (maxval, data_off) = next(toks), next(toks), next(toks)
    except StopIteration:
        raise ValueError(f"{path}: truncated PPM header") from None
    w, h, maxval = int(w), int(h), int(maxval)
    if maxval != 255:
        raise ValueError(f"{path}: only maxval 255 is supported, got {maxval}")
    need = 3 * w * h
    data = raw[data_off : data_off + need]
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
    if v is None:
        return ""
    if isinstance(v, (bool, np.bool_)):
        return str(bool(v))
    if isinstance(v, (float, np.floating)):
        return f"{float(v):.6g}"
    return str(v)


def _plain(v):
    if isinstance(v, (bool, np.bool_)):
        return bool(v)
    if isinstance(v, (np.integer,)):
        return int(v)
    if isinstance(v, (np.floating,)):
        return float(v)
    return v


def write_report(target, rows, fmt: str = "csv") -> None:
    """Write a list of row dicts as CSV (floats at %.6g) or JSON (lossless).

    Columns follow first-appearance order across rows; missing cells are
    left empty. `target` is a path or a text file object."""
    rows = list(rows)
    cols = []
    for row in rows:
        for k in row:
            if k not in cols:
                cols.append(k)

    own = not hasattr(target, "write")
    fh = open(target, "w", newline="") if own else target
    try:
        if fmt == "csv":
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(cols)
            for row in rows:
                writer.writerow([_cell(row.get(c)) for c in cols])
        elif fmt == "json":
            json.dump(
                [{k: _plain(v) for k, v in row.items()} for row in rows],
                fh,
                indent=2,
            )
            fh.write("\n")
        else:
            raise ValueError(f"unknown report format {fmt!r} (csv or json)")
    finally:
        if own:
            fh.close()
