"""Binary tensor container: round trips and malformed-input handling."""

import errno
import math
import os
import struct
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seldkit import (
    manifest_path_for,
    read_manifest,
    read_tensor,
    write_manifest,
    write_tensor,
)
from seldkit.stft import FeatureTensor
from seldkit.tensorfile import (
    FEATURE_META,
    MAGIC,
    FeatureReader,
    atomic_write_text,
    read_feature,
    tensor_info,
    tensor_writer,
    write_feature,
    write_feature_manifest,
)


@pytest.mark.parametrize("dtype", [np.float32, np.float64, np.complex64])
@pytest.mark.parametrize("shape", [(5,), (3, 4), (2, 3, 4)])
def test_round_trip_bit_identical(tmp_path, dtype, shape):
    rng = np.random.default_rng(0)
    arr = rng.standard_normal(shape)
    if np.issubdtype(dtype, np.complexfloating):
        arr = arr + 1j * rng.standard_normal(shape)
    arr = arr.astype(dtype)
    path = tmp_path / "t.ftb"
    write_tensor(path, arr)
    back = read_tensor(path)
    assert back.dtype == arr.dtype
    assert back.shape == arr.shape
    assert back.tobytes() == arr.tobytes()
    assert back.flags.writeable


@settings(max_examples=25, deadline=None)
@given(
    st.lists(st.integers(1, 6), min_size=1, max_size=4),
    st.sampled_from(["float32", "float64", "complex64"]),
)
def test_round_trip_any_small_shape(dims, dtype):
    arr = np.zeros(dims, dtype=dtype)
    arr.flat[0] = 1.5
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "h.ftb"
        write_tensor(path, arr)
        assert np.array_equal(read_tensor(path), arr)


def test_header_layout_is_fixed(tmp_path):
    arr = np.arange(6, dtype=np.float32).reshape(2, 3)
    path = tmp_path / "t.ftb"
    write_tensor(path, arr)
    blob = path.read_bytes()
    assert blob[:4] == b"FTB1"
    assert blob[4] == 0  # f32
    assert blob[5] == 2  # rank
    assert struct.unpack_from("<2Q", blob, 6) == (2, 3)
    assert blob[22:] == arr.tobytes()


def test_unsupported_dtype_rejected(tmp_path):
    with pytest.raises(ValueError, match="dtype"):
        write_tensor(tmp_path / "t.ftb", np.zeros(3, dtype=np.int32))
    with pytest.raises(ValueError, match="rank"):
        write_tensor(tmp_path / "t.ftb", np.float32(1.0))


def test_malformed_files_rejected(tmp_path):
    arr = np.arange(6, dtype=np.float32).reshape(2, 3)
    good = tmp_path / "good.ftb"
    write_tensor(good, arr)
    blob = good.read_bytes()

    bad = tmp_path / "bad.ftb"
    bad.write_bytes(b"NOPE" + blob[4:])
    with pytest.raises(ValueError, match="magic"):
        read_tensor(bad)

    bad.write_bytes(blob[:4] + bytes([9]) + blob[5:])
    with pytest.raises(ValueError, match="dtype code"):
        read_tensor(bad)

    bad.write_bytes(blob[:5] + bytes([0]) + blob[6:])
    with pytest.raises(ValueError, match="rank"):
        read_tensor(bad)

    bad.write_bytes(blob[:-4])
    with pytest.raises(ValueError, match="payload"):
        read_tensor(bad)

    bad.write_bytes(blob[:8])
    with pytest.raises(ValueError, match="truncated"):
        read_tensor(bad)


def _complex_tensor(shape):
    rng = np.random.default_rng(1)
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)).astype(np.complex64)


@pytest.mark.parametrize("step", [1, 3, 7])
def test_tensor_writer_row_pieces_give_the_write_tensor_bytes(tmp_path, step):
    arr = _complex_tensor((3, 7, 5))
    write_tensor(tmp_path / "want.ftb", arr)
    # Row by row in file order, and rows in reverse, both in ragged pieces
    # of complex128 that are cast as they are written.
    for order in ([0, 1, 2], [2, 0, 1]):
        with tensor_writer(tmp_path / "got.ftb", arr.shape, np.complex64) as append:
            for r in order:
                for start in range(0, 7, step):
                    append(arr[r, start : start + step].astype(np.complex128), row=r)
        assert (tmp_path / "got.ftb").read_bytes() == (tmp_path / "want.ftb").read_bytes()
    with tensor_writer(tmp_path / "got.ftb", arr.shape, np.complex64) as append:
        append(arr[:, :2])
        append(arr[1, 2:], row=1)
        append(arr[0, 2:], row=0)
        append(arr[2, 2:], row=2)
    assert (tmp_path / "got.ftb").read_bytes() == (tmp_path / "want.ftb").read_bytes()


def test_tensor_writer_parts_give_the_write_tensor_bytes(tmp_path):
    arr = _complex_tensor((3, 7, 5))
    write_tensor(tmp_path / "want.ftb", arr)
    ranges = [(0, 2), (2, 3), (3, 7)]
    with tensor_writer(tmp_path / "got.ftb", arr.shape, np.complex64) as append:
        parts = [append.part(slice(lo, hi)) for lo, hi in ranges]
        # Last range first.
        for part, (lo, hi) in reversed(list(zip(parts, ranges))):
            part(arr[:, lo:hi])
    assert (tmp_path / "got.ftb").read_bytes() == (tmp_path / "want.ftb").read_bytes()
    (tmp_path / "got.ftb").unlink()
    with pytest.raises(ValueError, match="got 6 of its 7"):
        with tensor_writer(tmp_path / "got.ftb", arr.shape, np.complex64) as append:
            head, tail = append.part(slice(0, 3)), append.part(slice(3, 7))
            head(arr[:, :3])
            tail(arr[:, 3:6])
    with pytest.raises(ValueError, match="continue row 0"):
        with tensor_writer(tmp_path / "got.ftb", arr.shape, np.complex64) as append:
            append.part(slice(3, 7))(arr)  # the whole tensor into a part
    assert sorted(p.name for p in tmp_path.iterdir()) == ["want.ftb"]


@pytest.mark.parametrize(
    "pieces, message",
    [
        ([(np.zeros((7, 5)), 0), (np.zeros((7, 5)), 1)], "got"),  # row 2 never written
        ([(np.zeros((6, 5)), r) for r in range(3)], "got"),  # one slice short per row
        ([(np.zeros((8, 5)), 0)], "continue row 0"),
        ([(np.zeros((7, 4)), 0)], "continue row 0"),
        ([(np.zeros((7, 5)), 3)], "row 3"),
        ([(np.zeros((2, 7, 5)), None)], "does not fit"),
    ],
    ids=["row-missing", "rows-short", "row-too-long", "wrong-tail", "no-such-row", "rows-missing"],
)
def test_tensor_writer_short_or_wrong_writes_raise_and_leave_no_file(tmp_path, pieces, message):
    with pytest.raises(ValueError, match=message):
        with tensor_writer(tmp_path / "t.ftb", (3, 7, 5), np.complex64) as append:
            for block, row in pieces:
                append(block, row=row)
    assert list(tmp_path.iterdir()) == []


@pytest.mark.skipif(not hasattr(os, "posix_fallocate"), reason="needs os.posix_fallocate")
def test_tensor_writer_preallocates_the_whole_file_before_the_first_append(tmp_path):
    shape = (3, 1000, 64)
    size = 6 + 8 * len(shape) + math.prod(shape) * 4
    with tensor_writer(tmp_path / "t.ftb", shape, np.float32) as append:
        (tmp,) = tmp_path.iterdir()
        st = tmp.stat()
        assert st.st_size == size
        assert st.st_blocks * 512 >= size
        append(np.ones(shape, np.float32))
    assert read_tensor(tmp_path / "t.ftb").tobytes() == np.ones(shape, np.float32).tobytes()


def test_read_one_slice_of_axis_0(tmp_path):
    arr = _complex_tensor((3, 4, 5))
    write_tensor(tmp_path / "t.ftb", arr)
    assert tensor_info(tmp_path / "t.ftb") == ((3, 4, 5), np.dtype("<c8"))
    for i in range(3):
        assert read_tensor(tmp_path / "t.ftb", i).tobytes() == arr[i].tobytes()
    with pytest.raises(ValueError, match="index 3"):
        read_tensor(tmp_path / "t.ftb", 3)


def test_no_temp_files_left_behind(tmp_path):
    write_tensor(tmp_path / "a.ftb", np.zeros(4, dtype=np.float32))
    write_manifest(tmp_path / "a.manifest.txt", {"k": 1})
    names = {p.name for p in tmp_path.iterdir()}
    assert names == {"a.ftb", "a.manifest.txt"}


@pytest.mark.parametrize("writer", ["tensor_writer", "atomic_write_text"])
def test_a_failed_write_removes_only_the_empty_directories_it_made(tmp_path, monkeypatch, writer):
    def fail(path, during=lambda: None):
        """Write path with writer, run during() once the temp file exists, then fail."""
        if writer == "tensor_writer":
            with pytest.raises(ValueError, match="got 0 of its 3 slices"):
                with tensor_writer(path, (2, 3), np.float32):
                    during()
            return

        def replace(src, dst):
            during()
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        with monkeypatch.context() as m:
            m.setattr(os, "replace", replace)
            with pytest.raises(OSError, match="No space left"):
                atomic_write_text(path, "k=1\n")

    def tree():
        return sorted(p.relative_to(tmp_path).as_posix() for p in tmp_path.rglob("*"))

    fail(tmp_path / "a" / "b" / "f")
    assert tree() == []
    (tmp_path / "empty").mkdir()
    (tmp_path / "full").mkdir()
    (tmp_path / "full" / "g").write_text("kept")
    fail(tmp_path / "empty" / "b" / "f")
    fail(tmp_path / "full" / "b" / "f")
    assert tree() == ["empty", "full", "full/g"]
    # A directory this call made stays once it holds anything besides the temp file.
    sibling = tmp_path / "a" / "b" / "g"
    fail(tmp_path / "a" / "b" / "f", lambda: sibling.write_text("kept"))
    assert tree() == ["a", "a/b", "a/b/g", "empty", "full", "full/g"]
    write_tensor(tmp_path / "n" / "m" / "t.ftb", np.zeros(3, np.float32))
    assert (tmp_path / "n" / "m" / "t.ftb").is_file()


def test_manifest_round_trip(tmp_path):
    path = tmp_path / "m.txt"
    write_manifest(
        path,
        {"feature": "salsa", "bin_hz": 46.875, "channels": 7, "roles": ["a", "b"]},
    )
    back = read_manifest(path)
    assert back["feature"] == "salsa"
    assert float(back["bin_hz"]) == 46.875
    assert int(back["channels"]) == 7
    assert back["roles"] == "a,b"


def test_manifest_comments_and_blanks_skipped(tmp_path):
    path = tmp_path / "m.txt"
    path.write_text("# header\n\nkey = value \n")
    assert read_manifest(path) == {"key": "value"}
    path.write_text("just a line\n")
    with pytest.raises(ValueError, match="key=value"):
        read_manifest(path)


def test_manifest_path_naming():
    assert manifest_path_for("dir/x.ftb").name == "x.manifest.txt"
    assert manifest_path_for("dir/noext").name == "noext.manifest.txt"
    assert str(manifest_path_for("dir/x.ftb").parent) == "dir"


def test_float_values_survive_exactly(tmp_path):
    # repr round-trip keeps full double precision in manifests
    path = tmp_path / "m.txt"
    value = 0.1 + 0.2
    write_manifest(path, {"x": value})
    assert float(read_manifest(path)["x"]) == value


def test_feature_round_trip_over_every_manifest_key(tmp_path):
    # One value of each key's type, with a few that a careless parser would
    # turn into another type (an int-looking float, a False bool).
    samples = {str: "salsa", int: 7, float: 2.0, bool: False}
    meta = {key: samples[kind] for key, kind in FEATURE_META.items()}
    meta["augmented"] = True
    meta["bin_hz"] = 0.1 + 0.2
    data = np.random.default_rng(0).standard_normal((3, 5, 4)).astype(np.float32)
    path = tmp_path / "f.ftb"
    write_feature(path, FeatureTensor(data, ["spec", "spatial", "gcc"], "mel", meta))
    lines = manifest_path_for(path).read_text().splitlines()
    assert [line.split("=", 1)[0] for line in lines] == [
        "kind", "scale", "channel_roles", "channels", "frames", "bands", *FEATURE_META
    ]
    back = read_feature(path)
    np.testing.assert_array_equal(back.data, data)
    assert back.data.dtype == np.float32
    assert back.channel_roles == ["spec", "spatial", "gcc"]
    assert back.scale == "mel"
    assert back.meta == meta
    for key, kind in FEATURE_META.items():
        assert type(back.meta[key]) is kind, key


def test_feature_manifest_skips_unknown_and_missing_keys(tmp_path):
    path = tmp_path / "f.ftb"
    data = np.zeros((1, 2, 3), dtype=np.float32)
    write_feature(path, FeatureTensor(data, ["spec"], "linear", {"seed": 4, "other": 1}))
    assert read_feature(path).meta == {"seed": 4}
    write_manifest(manifest_path_for(path), {"kind": "stats"})
    with pytest.raises(ValueError, match="feature tensor"):
        read_feature(path)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_feature_reader_channels_are_read_features_channels(tmp_path, dtype):
    data = np.random.default_rng(3).standard_normal((3, 5, 4)).astype(dtype)
    path = tmp_path / "f.ftb"
    write_tensor(path, data)
    write_feature_manifest(path, data.shape, ["spec", "spec", "gcc"], "mel",
                           {"feature": "melspecgcc", "n_lags": 4})
    want = read_feature(path)
    with FeatureReader(path) as reader:
        assert reader.shape == data.shape
        assert (reader.channel_roles, reader.scale, reader.meta) == (
            want.channel_roles, want.scale, want.meta)
        got = [channel.copy() for channel in reader.channels()]
    assert [g.dtype for g in got] == [np.dtype(np.float32)] * 3
    assert [g.tobytes() for g in got] == [w.tobytes() for w in want.data]


def test_feature_reader_makes_read_features_checks(tmp_path):
    path = tmp_path / "f.ftb"
    write_tensor(path, np.zeros((2, 3), np.float32))
    with pytest.raises(FileNotFoundError):
        FeatureReader(path)
    write_manifest(manifest_path_for(path), {"kind": "stats", "channel_roles": "spec,spec"})
    with pytest.raises(ValueError, match="does not describe a feature tensor"):
        FeatureReader(path)
    write_feature_manifest(path, (2, 3, 1), ["spec", "spec"], "linear", {})
    with pytest.raises(ValueError, match="3-D"):
        FeatureReader(path)
