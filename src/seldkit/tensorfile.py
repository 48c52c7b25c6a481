"""Binary tensor container and text manifests.

Layout: 4 magic bytes "FTB1", one u8 dtype code (0=f32, 1=f64, 2=c64), one u8
rank, rank u64 little-endian dimensions, then the row-major little-endian
payload. Manifests are plain "key=value" text files next to the tensor.
All writes are atomic (temp file + rename).
"""

from __future__ import annotations

import math
import os
import struct
import tempfile
from contextlib import contextmanager
from pathlib import Path

import numpy as np

MAGIC = b"FTB1"

_DTYPE_CODES = {0: np.dtype("<f4"), 1: np.dtype("<f8"), 2: np.dtype("<c8")}
_CODE_FOR_KIND = {"f4": 0, "f8": 1, "c8": 2}
_MAX_RANK = 8


@contextmanager
def _atomic_file(path: str | Path):
    """Binary file handle whose contents replace `path` only if the block succeeds.

    The data goes to a temp file in the same directory, which is renamed over
    `path` on success and removed on any error.
    """
    path = Path(path)
    fd, tmp = tempfile.mkstemp(dir=path.parent or Path("."), prefix=path.name + ".")
    try:
        with os.fdopen(fd, "wb") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
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
    the array's own buffer go to the file; a little-endian C-contiguous array
    is not copied.
    """
    array = np.asarray(array)
    with tensor_writer(path, array.shape, array.dtype) as append:
        append(array)


@contextmanager
def tensor_writer(path: str | Path, shape: tuple[int, ...], dtype):
    """Write a tensor file block by block; yields append(block).

    Blocks are consecutive slices along axis 1 (axis 0 of a rank-1 tensor),
    cast to dtype (float32, float64 or complex64) as they are written. The
    payload is row-major, so each row of axis 0 of a block is written at its
    own offset; a block holding all of axis 1 is written in one piece. The
    file appears at `path` only if every slice was appended and the block
    raised nothing; otherwise no file is left behind.
    """
    dtype = np.dtype(dtype)
    key = dtype.str.lstrip("<>|=")
    if key not in _CODE_FOR_KIND:
        raise ValueError(f"unsupported dtype {dtype}; use float32, float64 or complex64")
    shape = tuple(int(n) for n in shape)
    if len(shape) == 0 or len(shape) > _MAX_RANK:
        raise ValueError(f"rank must be 1..{_MAX_RANK}, got {len(shape)}")
    code = _CODE_FOR_KIND[key]
    dtype = _DTYPE_CODES[code]
    header = MAGIC + struct.pack("<BB", code, len(shape))
    header += struct.pack(f"<{len(shape)}Q", *shape)
    rows, length = (shape[0], shape[1]) if len(shape) > 1 else (1, shape[0])
    slice_bytes = math.prod(shape[2:]) * dtype.itemsize
    written = 0

    def append(block) -> None:
        nonlocal written
        block = np.ascontiguousarray(block, dtype=dtype)
        n = block.shape[1] if len(shape) > 1 else len(block)
        want = shape[:1] + (n,) + shape[2:] if len(shape) > 1 else (n,)
        if block.shape != want or written + n > length:
            raise ValueError(
                f"block of shape {block.shape} does not continue a {shape} tensor at {written}"
            )
        if n == length:
            fh.write(block)
        elif n:
            for r, row in enumerate(block.reshape(rows, -1)):
                fh.seek(len(header) + (r * length + written) * slice_bytes)
                fh.write(row)
        written += n

    with _atomic_file(path) as fh:
        fh.write(header)
        yield append
        if written != length:
            raise ValueError(f"tensor {shape} got {written} of its {length} slices")


def read_tensor(path: str | Path) -> np.ndarray:
    """Read a tensor; raises ValueError on malformed or truncated files.

    The header and the file size are checked before the payload is read, in
    one read, into a new writeable array.
    """
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        fixed = fh.read(6)
        if len(fixed) < 6 or fixed[:4] != MAGIC:
            raise ValueError(f"{path}: not a tensor container (bad magic)")
        code, ndim = struct.unpack_from("<BB", fixed, 4)
        if code not in _DTYPE_CODES:
            raise ValueError(f"{path}: unknown dtype code {code}")
        if not (1 <= ndim <= _MAX_RANK):
            raise ValueError(f"{path}: bad rank {ndim}")
        head = 6 + 8 * ndim
        if size < head:
            raise ValueError(f"{path}: truncated header")
        dims = struct.unpack(f"<{ndim}Q", fh.read(8 * ndim))
        dtype = _DTYPE_CODES[code]
        count = math.prod(dims)
        expected = count * dtype.itemsize
        if size - head != expected:
            raise ValueError(
                f"{path}: payload is {size - head} bytes, expected {expected}"
            )
        return np.fromfile(fh, dtype=dtype, count=count).reshape(dims)


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
