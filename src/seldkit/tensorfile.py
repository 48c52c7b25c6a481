"""Binary tensor container, text manifests and feature-tensor files.

Layout: 4 magic bytes "FTB1", one u8 dtype code (0=f32, 1=f64, 2=c64), one u8
rank, rank u64 little-endian dimensions, then the row-major little-endian
payload. Manifests are plain "key=value" text files next to the tensor.
All writes are atomic (temp file + rename) and make missing parent
directories, which a failed write removes again.

A feature tensor is a float32 tensor file whose manifest starts with
kind=feature, scale, channel_roles, channels, frames and bands, followed by
the keys of FEATURE_META that its meta holds, in the table's order;
read_feature parses each back to the table's type.
"""

from __future__ import annotations

import itertools
import math
import os
import struct
from contextlib import contextmanager, suppress
from pathlib import Path

import numpy as np

from .stft import FeatureTensor, check_feature_layout

MAGIC = b"FTB1"

_DTYPES = (np.dtype("<f4"), np.dtype("<f8"), np.dtype("<c8"))  # indexed by header code
_MAX_RANK = 8


@contextmanager
def _atomic_file(path: str | Path):
    """Binary file handle whose contents replace `path` only if the block succeeds.

    The missing parent directories of `path` are made first. The data goes
    to a new temp file under a random name in the same directory, which is
    renamed over `path` on success. On any error the temp file is removed,
    and then each directory this call made that is still empty, deepest
    first; a directory that existed before, or that holds anything, stays.
    The temp file is created with mode 0o666, so it gets the mode open()
    gives a new file: the kernel applies the umask.
    """
    path = Path(path)
    made = list(itertools.takewhile(lambda d: not d.exists(), path.parents))
    tmp = None
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        while tmp is None:
            name = path.with_name(f"{path.name}.{os.urandom(6).hex()}")
            with suppress(FileExistsError):
                fd = os.open(name, os.O_CREAT | os.O_EXCL | os.O_RDWR, 0o666)
                tmp = name
        with os.fdopen(fd, "wb") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        if tmp is not None and os.path.exists(tmp):
            os.unlink(tmp)
        for d in made:
            with suppress(OSError):
                d.rmdir()
        raise


def atomic_write_bytes(path: str | Path, payload: bytes) -> None:
    """Write a file atomically: temp file in the same directory, then rename."""
    with _atomic_file(path) as fh:
        fh.write(payload)


def atomic_write_text(path: str | Path, text: str) -> None:
    atomic_write_bytes(path, text.encode("utf-8"))


def write_tensor(path: str | Path, array: np.ndarray) -> None:
    """Serialize an array; dtype must be float32, float64 or complex64.

    tensor_writer with the whole array as its one block: the header and then
    each row of the array's own buffer go to the file; a little-endian
    C-contiguous array is not copied.
    """
    array = np.asarray(array)
    with tensor_writer(path, array.shape, array.dtype) as append:
        append(array)


class _Appender:
    """The append of tensor_writer, for the slices lo..hi-1 of every row."""

    def __init__(self, fd: int, offset: int, shape: tuple[int, ...], dtype, frames: slice):
        self._fd, self._offset, self.shape, self.dtype = fd, offset, shape, dtype
        self.rows, self.length = (shape[0], shape[1]) if len(shape) > 1 else (1, shape[0])
        self.lo, self.hi, _ = frames.indices(self.length)
        self._tail = shape[2:]
        self._slice_bytes = math.prod(self._tail) * dtype.itemsize
        self.written = [0] * self.rows  # slices appended to each row
        self.parts: list[_Appender] = []

    def part(self, frames: slice) -> "_Appender":
        """An append of the slices `frames` of every row of the same file."""
        piece = _Appender(self._fd, self._offset, self.shape, self.dtype, frames)
        self.parts.append(piece)
        return piece

    def _put(self, r: int, piece: np.ndarray) -> None:
        at = self.lo + self.written[r]
        if piece.shape[1:] != self._tail or at + len(piece) > self.hi:
            raise ValueError(
                f"block of shape {piece.shape} does not continue row {r} of a "
                f"{self.shape} tensor at {at}"
            )
        _pwrite_all(self._fd, piece, self._offset + (r * self.length + at) * self._slice_bytes)
        self.written[r] += len(piece)

    def __call__(self, block, row: int | None = None) -> None:
        block = np.ascontiguousarray(block, dtype=self.dtype)
        if len(self.shape) == 1 or row is not None:
            if row is not None and not (len(self.shape) > 1 and 0 <= row < self.rows):
                raise ValueError(f"row {row} is not a row of a {self.shape} tensor")
            self._put(row or 0, block)
        elif block.ndim != len(self.shape) or len(block) != self.rows:
            raise ValueError(f"block of shape {block.shape} does not fit a {self.shape} tensor")
        else:
            for r, piece in enumerate(block):
                self._put(r, piece)


def _pwrite_all(fd: int, array: np.ndarray, offset: int) -> None:
    """Write a C-contiguous array's bytes at `offset`, however many calls it takes."""
    view = memoryview(array.reshape(-1).view(np.uint8))
    while view:
        n = os.pwrite(fd, view, offset)
        view, offset = view[n:], offset + n


def _pread_all(fd: int, array: np.ndarray, offset: int) -> None:
    """Fill a C-contiguous array with the file's bytes from `offset` on."""
    view = memoryview(array.reshape(-1).view(np.uint8))
    while view:
        n = os.preadv(fd, [view], offset)
        if n == 0:
            raise ValueError(f"tensor file ends at byte {offset}, before its payload does")
        view, offset = view[n:], offset + n


@contextmanager
def tensor_writer(path: str | Path, shape: tuple[int, ...], dtype):
    """Write a tensor file block by block; yields append(block, row=None).

    Blocks are consecutive slices along axis 1 (axis 0 of a rank-1 tensor),
    cast to dtype (float32, float64 or complex64) as they are written. A
    block holds every row of axis 0, or with `row` only that row: then it
    is the next slices of shape[1:] of row `row`, so a writer that goes row
    by row writes the payload in file order. Each row keeps its own count of
    slices and is written at its own offset (os.pwrite).

    append.part(frames) returns an append of the same form for the slices
    `frames` of each row only. Writes are positional, so a part may be
    used by a forked process sharing the file; its `written` (slices per
    row) then has to be set in this process to the counts that process
    reports. No two parts, or a part and the direct appends, may write the
    same slices of one row.

    The temp file is preallocated to its full length (os.posix_fallocate,
    where the platform has it) before anything is written, so a full disk
    raises OSError before any block is made, and a rename over an existing
    file does not have to allocate, as ext4 does for a delayed-allocation
    file, inside the rename.

    The file appears at `path` only if every slice of every row was appended
    (directly or through a part) and the block raised nothing; otherwise no
    file is left behind.
    """
    dtype = np.dtype(dtype)
    if dtype.newbyteorder("<") not in _DTYPES:
        raise ValueError(f"unsupported dtype {dtype}; use float32, float64 or complex64")
    shape = tuple(int(n) for n in shape)
    if len(shape) == 0 or len(shape) > _MAX_RANK:
        raise ValueError(f"rank must be 1..{_MAX_RANK}, got {len(shape)}")
    dtype = dtype.newbyteorder("<")
    header = MAGIC + struct.pack("<BB", _DTYPES.index(dtype), len(shape))
    header += struct.pack(f"<{len(shape)}Q", *shape)
    with _atomic_file(path) as fh:
        if hasattr(os, "posix_fallocate"):
            os.posix_fallocate(fh.fileno(), 0, len(header) + math.prod(shape) * dtype.itemsize)
        _pwrite_all(fh.fileno(), np.frombuffer(header, dtype=np.uint8), 0)
        append = _Appender(fh.fileno(), len(header), shape, dtype, slice(None))
        yield append
        got = [sum(n) for n in zip(append.written, *(p.written for p in append.parts))]
        if any(n != append.length for n in got):
            raise ValueError(f"tensor {shape} got {min(got)} of its {append.length} slices")


def _read_header(fh, path) -> tuple[tuple[int, ...], np.dtype]:
    """Check a tensor file's header and size; leaves fh at the payload."""
    size = os.fstat(fh.fileno()).st_size
    fixed = fh.read(6)
    if len(fixed) < 6 or fixed[:4] != MAGIC:
        raise ValueError(f"{path}: not a tensor container (bad magic)")
    code, ndim = struct.unpack_from("<BB", fixed, 4)
    if code >= len(_DTYPES):
        raise ValueError(f"{path}: unknown dtype code {code}")
    if not (1 <= ndim <= _MAX_RANK):
        raise ValueError(f"{path}: bad rank {ndim}")
    head = 6 + 8 * ndim
    if size < head:
        raise ValueError(f"{path}: truncated header")
    dims = struct.unpack(f"<{ndim}Q", fh.read(8 * ndim))
    dtype = _DTYPES[code]
    expected = math.prod(dims) * dtype.itemsize
    if size - head != expected:
        raise ValueError(f"{path}: payload is {size - head} bytes, expected {expected}")
    return dims, dtype


def tensor_info(path: str | Path) -> tuple[tuple[int, ...], np.dtype]:
    """Shape and dtype of a tensor file, checked as read_tensor checks them."""
    with open(path, "rb") as fh:
        return _read_header(fh, path)


def read_tensor(path: str | Path, index: int | None = None) -> np.ndarray:
    """Read a tensor; raises ValueError on malformed or truncated files.

    The header and the file size are checked before the payload is read, in
    one read, into a new writeable array. With `index`, only the slice
    tensor[index] of axis 0 is read, from its own offset.
    """
    with open(path, "rb") as fh:
        dims, dtype = _read_header(fh, path)
        if index is not None:
            if not 0 <= index < dims[0]:
                raise ValueError(f"{path}: index {index} out of range 0..{dims[0] - 1}")
            dims = dims[1:]
            fh.seek(index * math.prod(dims) * dtype.itemsize, os.SEEK_CUR)
        return np.fromfile(fh, dtype=dtype, count=math.prod(dims)).reshape(dims)


def format_value(value) -> str:
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, (list, tuple)):
        return ",".join(format_value(v) for v in value)
    return str(value)


def write_manifest(path: str | Path, entries: dict) -> None:
    """Write key=value lines in the given order; values are canonicalized."""
    lines = [f"{k}={format_value(v)}" for k, v in entries.items()]
    atomic_write_text(path, "\n".join(lines) + "\n")


def read_manifest(path: str | Path) -> dict[str, str]:
    out: dict[str, str] = {}
    for ln, raw in enumerate(Path(path).read_text().splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{ln}: expected key=value")
        key, value = line.split("=", 1)
        out[key.strip()] = value.strip()
    return out


def manifest_path_for(tensor_path: str | Path) -> Path:
    """Sidecar manifest path: foo.ftb -> foo.manifest.txt."""
    p = Path(tensor_path)
    stem = p.name[: -len(".ftb")] if p.name.endswith(".ftb") else p.name
    return p.with_name(stem + ".manifest.txt")


# Feature metadata a manifest carries, in the order it is written, and the
# type each value is read back as.
FEATURE_META: dict[str, type] = {
    "feature": str, "format": str, "config": str,
    "sample_rate": int, "n_mels": int, "n_lags": int, "compress_start_bin": int,
    "compress_factor": int, "seed": int, "in_band_bins": int, "candidates": int,
    "selected": int,
    "bin_hz": float, "frame_rate": float, "f_low": float, "f_high": float,
    "speed_of_sound": float,
    "normalized": bool, "augmented": bool,
}


def write_feature_manifest(path: str | Path, shape, roles, scale: str, meta: dict) -> None:
    """Write the manifest of the feature tensor file at `path`."""
    entries = {
        "kind": "feature",
        "scale": scale,
        "channel_roles": roles,
        "channels": shape[0],
        "frames": shape[1],
        "bands": shape[2],
    }
    entries.update((key, meta[key]) for key in FEATURE_META if key in meta)
    write_manifest(manifest_path_for(path), entries)


def write_feature(path: str | Path, feat: FeatureTensor) -> None:
    """Store a feature tensor as float32 with its sidecar manifest."""
    write_tensor(path, feat.data.astype(np.float32, copy=False))
    write_feature_manifest(path, feat.data.shape, feat.channel_roles, feat.scale, feat.meta)


class FeatureReader:
    """A feature tensor file opened for reads one channel at a time.

    Opening it makes every check read_feature makes: the tensor file's
    header, size and real dtype, then kind=feature in its manifest, whose
    channel roles (each spec, spatial or gcc), scale and metadata it parses
    back, and whose channels, frames and bands must be the header's shape.
    It holds the file open until closed; use it as a context manager.
    """

    def __init__(self, path: str | Path):
        self._fh = open(path, "rb")
        try:
            self.shape, self._dtype = _read_header(self._fh, path)
            if self._dtype.kind == "c":
                raise ValueError(f"{path}: a feature tensor is real, not {self._dtype}")
            self._payload = self._fh.tell()
            manifest = read_manifest(manifest_path_for(path))
            if manifest.get("kind") != "feature":
                raise ValueError(f"{path}: manifest does not describe a feature tensor")
            self.meta = {}
            for key, value in manifest.items():
                kind = FEATURE_META.get(key)
                if kind is bool:
                    self.meta[key] = value == "True"
                elif kind is not None:
                    self.meta[key] = kind(value)
            for key in ("scale", "channel_roles"):
                if key not in manifest:
                    raise ValueError(f"{path}: manifest has no {key}")
            self.channel_roles = manifest["channel_roles"].split(",")
            self.scale = manifest["scale"]
            check_feature_layout(self.shape, self.channel_roles, self.scale)
            for key, n in zip(("channels", "frames", "bands"), self.shape):
                if (value := manifest.get(key)) != str(n):
                    raise ValueError(f"{path}: manifest {key} {value!r} is not the header's {n}")
        except BaseException:
            self._fh.close()
            raise

    def __enter__(self) -> "FeatureReader":
        return self

    def __exit__(self, *exc) -> None:
        self._fh.close()

    def channels(self):
        """Yield each channel in turn as float32, read with positional reads.

        A float32 file's channels are read into one shared array, so each is
        valid only until the next one is yielded.
        """
        plane = np.empty(self.shape[1:], self._dtype)
        for ch in range(self.shape[0]):
            _pread_all(self._fh.fileno(), plane, self._payload + ch * plane.nbytes)
            yield plane.astype(np.float32, copy=False)

    def read(self) -> FeatureTensor:
        """The whole tensor as float32, in one positional read."""
        data = np.empty(self.shape, self._dtype)
        _pread_all(self._fh.fileno(), data, self._payload)
        return FeatureTensor(
            data.astype(np.float32, copy=False), self.channel_roles, self.scale, self.meta
        )


def read_feature(path: str | Path) -> FeatureTensor:
    """Load a feature tensor as float32 and rebuild roles and metadata from its manifest."""
    with FeatureReader(path) as reader:
        return reader.read()
