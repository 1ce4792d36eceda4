"""Tensor files, PPM frame stacks, and report tables."""

import io
import json
import random
import struct
import tracemalloc

import numpy as np
import pytest

from mrank import fileio
from mrank.cli import main
from mrank.fileio import (
    MAGIC,
    VERSION,
    read_frames,
    read_tensor,
    write_frames,
    write_report,
    write_tensor,
)


def crandn(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


# ------------------------------------------------------------------- tensor


def test_tensor_round_trip_bitwise(tmp_path):
    rng = np.random.default_rng(0)
    for dims in [(1,), (7,), (3, 4), (2, 3, 4, 5), (2, 2, 2, 2, 2, 2)]:
        t = crandn(rng, dims)
        path = tmp_path / "t.mten"
        write_tensor(path, t)
        back = read_tensor(path)
        assert back.shape == t.shape
        assert np.array_equal(back, t)
        # bitwise: same bytes after a rewrite
        path2 = tmp_path / "t2.mten"
        write_tensor(path2, back)
        assert path.read_bytes() == path2.read_bytes()


def test_tensor_header_layout(tmp_path):
    t = np.arange(6, dtype=np.complex128).reshape(2, 3, order="F")
    path = tmp_path / "t.mten"
    write_tensor(path, t)
    raw = path.read_bytes()
    assert raw[:4] == MAGIC == b"MTEN"
    assert raw[4] == VERSION == 1
    assert raw[5] == 2  # order
    assert struct.unpack("<2Q", raw[6:22]) == (2, 3)
    assert len(raw) == 22 + 16 * 6
    # payload is little-endian complex128, first index fastest
    first = np.frombuffer(raw, dtype="<c16", count=6, offset=22)
    assert np.array_equal(first, np.arange(6))


def test_tensor_storage_is_first_index_fastest(tmp_path):
    t = np.zeros((2, 2), dtype=np.complex128)
    t[1, 0] = 5.0  # flat position 1 under column-major layout
    path = tmp_path / "t.mten"
    write_tensor(path, t)
    raw = path.read_bytes()
    vals = np.frombuffer(raw, dtype="<c16", count=4, offset=6 + 16)
    assert vals[1] == 5.0


def test_read_tensor_validation(tmp_path):
    t = crandn(np.random.default_rng(1), (3, 3))
    good = tmp_path / "good.mten"
    write_tensor(good, t)
    raw = good.read_bytes()

    def expect_fail(data, name, message):
        p = tmp_path / name
        p.write_bytes(data)
        with pytest.raises(ValueError) as err:
            read_tensor(p)
        assert str(err.value) == f"{p}: {message}"

    expect_fail(b"NOPE" + raw[4:], "magic.mten", "not an MTEN file (bad magic)")
    expect_fail(raw[:3], "tiny.mten", "not an MTEN file (bad magic)")
    expect_fail(raw[:4] + bytes([9]) + raw[5:], "version.mten", "unsupported MTEN version 9")
    expect_fail(raw[:5] + bytes([0]) + raw[6:], "order.mten", "order must be positive")
    expect_fail(raw[:-8], "short.mten", "payload is 136 bytes, expected 144")
    expect_fail(raw + b"\x00" * 8, "long.mten", "payload is 152 bytes, expected 144")
    expect_fail(raw[:10], "header.mten", "truncated header")
    zero_dim = raw[:6] + struct.pack("<2Q", 0, 3) + raw[22:]
    expect_fail(zero_dim, "zerodim.mten", "zero dimension in (0, 3)")


def test_read_tensor_holds_the_tensor_once(tmp_path):
    # the whole file's bytes plus a converted copy made the peak twice the
    # tensor; the entries are now read straight into the returned array
    t = crandn(np.random.default_rng(2), (30, 30, 30, 30))
    path = tmp_path / "t.mten"
    write_tensor(path, t)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        back = read_tensor(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(back, t)
    assert (peak - base) / t.nbytes <= 1.1


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("dims", [(2**62 + 1, 4), (2**63, 2)])
def test_read_tensor_entry_count_does_not_wrap(tmp_path, dims):
    # in int64 the first product wraps to 4, which 64 payload bytes match,
    # and the second overflows with a RuntimeWarning; both headers must
    # fail the payload-size check, in the reader and through `mrank rank`
    path = tmp_path / "huge.mten"
    path.write_bytes(MAGIC + bytes([VERSION, 2]) + struct.pack("<2Q", *dims)
                     + bytes(64))
    with pytest.raises(ValueError, match="payload is 64 bytes, expected"):
        read_tensor(path)
    assert main(["rank", str(path)]) == 3


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(1.0, -np.inf)])
def test_read_tensor_rejects_non_finite(tmp_path, bad):
    t = crandn(np.random.default_rng(3), (2, 3, 2))
    t[1, 2, 0] = bad
    path = tmp_path / "bad.mten"
    write_tensor(path, t)
    with pytest.raises(ValueError, match="1 non-finite entries"):
        read_tensor(path)


def test_write_tensor_rejects_scalar(tmp_path):
    with pytest.raises(ValueError):
        write_tensor(tmp_path / "s.mten", np.complex128(3.0))


# ------------------------------------------------------------------- frames


def test_single_white_frame(tmp_path):
    p = tmp_path / "w.ppm"
    p.write_bytes(b"P6\n2 2\n255\n" + b"\xff" * 12)
    t = read_frames([p])
    assert t.shape == (2, 2, 3, 1)
    assert np.array_equal(t, np.ones((2, 2, 3, 1)))


def test_frames_round_trip_8bit(tmp_path):
    rng = np.random.default_rng(2)
    pix = rng.integers(0, 256, size=(5, 4, 3, 3), dtype=np.uint8)
    t = (pix / 255.0).astype(np.complex128)
    paths = [tmp_path / f"f{k}.ppm" for k in range(3)]
    write_frames(paths, t)
    back = read_frames(paths)
    assert back.shape == (5, 4, 3, 3)
    assert np.array_equal(back, t)  # 8-bit data survives exactly


def test_frames_header_comments_and_whitespace(tmp_path):
    p = tmp_path / "c.ppm"
    p.write_bytes(b"P6 # comment\n# another line\n 2\t1 # w h\n255\n" + bytes(6))
    t = read_frames([p])
    assert t.shape == (1, 2, 3, 1)
    assert np.array_equal(t, np.zeros((1, 2, 3, 1)))


def test_frames_validation(tmp_path):
    good = tmp_path / "a.ppm"
    good.write_bytes(b"P6\n2 2\n255\n" + bytes(12))
    other = tmp_path / "b.ppm"
    other.write_bytes(b"P6\n2 3\n255\n" + bytes(18))
    with pytest.raises(ValueError, match="shape"):
        read_frames([good, other])  # mixed sizes
    bad_magic = tmp_path / "c.ppm"
    bad_magic.write_bytes(b"P5\n2 2\n255\n" + bytes(12))
    with pytest.raises(ValueError, match="P"):
        read_frames([bad_magic])
    deep = tmp_path / "d.ppm"
    deep.write_bytes(b"P6\n2 2\n65535\n" + bytes(24))
    with pytest.raises(ValueError, match="maxval"):
        read_frames([deep])
    short = tmp_path / "e.ppm"
    short.write_bytes(b"P6\n2 2\n255\n" + bytes(5))
    with pytest.raises(ValueError, match="pixel"):
        read_frames([short])
    for head in (b"", b"P6", b"P6\n2 2 # no maxval\n", b"# P6 2 2 255\n"):
        cut = tmp_path / "f.ppm"
        cut.write_bytes(head)
        with pytest.raises(ValueError, match="truncated PPM header"):
            read_frames([cut])
    with pytest.raises(ValueError):
        read_frames([])


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


def _read_ppm_by_hand(path):
    # the byte-by-byte lexer that fileio's one regular expression replaced,
    # kept as the reference its reader must agree with
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


def _random_ppm(rng):
    """A PPM file's bytes drawn from random.Random rng to reach every branch
    of the header reader: whitespace runs (CR, LF, tab and the rest),
    comments before, between and right after fields, at the end of the file
    and in place of a separator, headers cut at every field, a wrong magic,
    a width that is no integer or negative, maxval 65535 or "25x", and
    pixel data of the right length, short or long."""
    def comment():
        body = bytes(rng.choices(b"P6 255#x1\t\x0b", k=rng.randrange(6)))
        return b"#" + body + rng.choice([b"\n", b"\r", b"\r\n", b""])

    def gap():
        return b"".join(
            rng.choice([b" ", b"\t", b"\n", b"\r", b"\r\n", b"\x0b", b"\x0c", b"  "])
            if rng.random() < 0.7 else comment() for _ in range(rng.randrange(4)))

    w, h = rng.randrange(4), rng.randrange(1, 4)
    fields = [rng.choice([b"P6"] * 6 + [b"P5", b"P3", b"p6"]),
              rng.choice([str(w).encode()] * 8 + [b"-1", b"x"]), str(h).encode(),
              rng.choice([b"255"] * 8 + [b"65535", b"25x", b"0255"])]
    fields = fields[:rng.choice([4] * 6 + [0, 1, 2, 3])]
    head = gap() + b"".join(f + gap() for f in fields)
    pixels = rng.randbytes(max(0, 3 * w * h + rng.choice([0] * 6 + [-1, 1, -3])))
    return head + rng.choice([b"\n", b" ", b"#", b"\t", b"5"]) + pixels


PPM_ERRORS = ("truncated PPM header", "not a binary PPM", "only maxval 255", "pixel bytes",
              "invalid literal for int()")


def test_ppm_reader_matches_the_lexer_it_replaced(tmp_path):
    # 10,000 seeded files: the same frame, or the same error text
    rng = random.Random(2024)
    path = tmp_path / "f.ppm"
    seen = set()

    def outcome(read):
        try:
            frame = read(path)
            return "ok", frame.shape, frame.tobytes()
        except ValueError as exc:
            return "error", str(exc)

    for _ in range(10_000):
        raw = _random_ppm(rng)
        path.write_bytes(raw)
        want = outcome(_read_ppm_by_hand)
        assert outcome(fileio._read_ppm) == want, raw
        seen |= {"ok"} if want[0] == "ok" else {e for e in PPM_ERRORS if e in want[1]}
    assert seen == {"ok", *PPM_ERRORS}  # every branch of the reader was reached


def test_write_frames_warns_on_imaginary_and_clamps(tmp_path):
    t = np.zeros((1, 1, 3, 1), dtype=np.complex128)
    t[0, 0, 0, 0] = 2.0 + 1e-3j  # above 1, complex
    t[0, 0, 1, 0] = -0.5
    paths = [tmp_path / "f.ppm"]
    with pytest.warns(UserWarning, match="imaginary"):
        write_frames(paths, t)
    back = read_frames(paths)
    assert back[0, 0, 0, 0] == 1.0  # clamped high
    assert back[0, 0, 1, 0] == 0.0  # clamped low


def test_write_frames_shape_checks(tmp_path):
    with pytest.raises(ValueError):
        write_frames([tmp_path / "f.ppm"], np.zeros((2, 2, 4, 1)))
    with pytest.raises(ValueError):
        write_frames([tmp_path / "f.ppm"], np.zeros((2, 2, 3, 2)))  # 2 frames


# ------------------------------------------------------------------ reports


def test_report_empty_csv(tmp_path):
    p = tmp_path / "r.csv"
    write_report(p, [], "csv")
    assert p.read_text() == "\n"  # header-only


def test_report_csv_columns_and_floats(tmp_path):
    rows = [
        {"name": "a", "err": 1.0 / 3.0, "rank": 4},
        {"name": "b", "err": 1.23456789e-5, "extra": True},
    ]
    p = tmp_path / "r.csv"
    write_report(p, rows, "csv")
    lines = p.read_text().splitlines()
    assert lines[0] == "name,err,rank,extra"  # first-appearance order
    assert lines[1] == "a,0.333333,4,"
    assert lines[2] == "b,1.23457e-05,,True"


def test_report_json_round_trip(tmp_path):
    rows = [{"x": 1.0 / 3.0, "n": np.int64(3), "ok": np.bool_(True), "s": "hi"}]
    p = tmp_path / "r.json"
    write_report(p, rows, "json")
    back = json.loads(p.read_text())
    assert back == [{"x": 1.0 / 3.0, "n": 3, "ok": True, "s": "hi"}]  # lossless


# numpy scalars and the Python values json.dumps writes for them
NUMPY_SCALARS = [
    (np.int64(-7), -7),
    (np.float64(1.0 / 3.0), 1.0 / 3.0),
    (np.float32(0.1), float(np.float32(0.1))),
    (np.bool_(False), False),
    ([np.int64(2), {"x": np.float32(0.25), "ok": np.bool_(True)}, [np.float64(1e-300)]],
     [2, {"x": 0.25, "ok": True}, [1e-300]]),
    ({"n": np.int64(3), "rows": [{"err": np.float64(2.5e-7), "conv": np.bool_(True)}]},
     {"n": 3, "rows": [{"err": 2.5e-7, "conv": True}]}),
]


@pytest.mark.parametrize("to_path", [True, False], ids=["path", "stringio"])
@pytest.mark.parametrize("obj, plain", NUMPY_SCALARS,
                         ids=["int64", "float64", "float32", "bool_", "in-list", "in-dict"])
def test_write_json_writes_numpy_scalars_as_python_numbers(tmp_path, to_path, obj, plain):
    # the one JSON form: indent 2, a trailing newline, LF line endings, and
    # numpy scalars written as the Python numbers they hold, at the top
    # level and nested in lists and dicts
    expect = json.dumps(plain, indent=2) + "\n"
    if to_path:
        path = tmp_path / "o.json"
        fileio._write_json(path, obj)
        assert path.read_bytes() == expect.encode()
    else:
        buf = io.StringIO()
        fileio._write_json(buf, obj)
        assert buf.getvalue() == expect


def test_report_unknown_format(tmp_path):
    # the format is checked before the target is opened, so an existing
    # report keeps its bytes
    p = tmp_path / "r.csv"
    write_report(p, [{"a": 1}], "csv")
    before = p.read_bytes()
    with pytest.raises(ValueError):
        write_report(p, [{"a": 2}], "xml")
    assert p.read_bytes() == before


def test_report_byte_stable(tmp_path):
    rows = [{"a": 0.1, "b": 2}]
    p1, p2 = tmp_path / "1.csv", tmp_path / "2.csv"
    write_report(p1, rows, "csv")
    write_report(p2, rows, "csv")
    assert p1.read_bytes() == p2.read_bytes()
