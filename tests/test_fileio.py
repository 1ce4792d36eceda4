"""Tensor files, PPM frame stacks, and report tables."""

import json
import struct

import numpy as np
import pytest

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

    def expect_fail(data, name):
        p = tmp_path / name
        p.write_bytes(data)
        with pytest.raises(ValueError):
            read_tensor(p)

    expect_fail(b"NOPE" + raw[4:], "magic.mten")
    expect_fail(raw[:4] + bytes([9]) + raw[5:], "version.mten")
    expect_fail(raw[:5] + bytes([0]) + raw[6:], "order.mten")
    expect_fail(raw[:-8], "short.mten")
    expect_fail(raw + b"\x00" * 8, "long.mten")
    expect_fail(raw[:10], "header.mten")
    zero_dim = raw[:6] + struct.pack("<2Q", 0, 3) + raw[22:]
    expect_fail(zero_dim, "zerodim.mten")


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
    with pytest.raises(ValueError):
        read_frames([])


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


def test_report_unknown_format(tmp_path):
    with pytest.raises(ValueError):
        write_report(tmp_path / "r.xml", [], "xml")


def test_report_byte_stable(tmp_path):
    rows = [{"a": 0.1, "b": 2}]
    p1, p2 = tmp_path / "1.csv", tmp_path / "2.csv"
    write_report(p1, rows, "csv")
    write_report(p2, rows, "csv")
    assert p1.read_bytes() == p2.read_bytes()
