"""WAV input read block by block with plain file reads.

`WavReader` parses the RIFF header (RIFF, RIFX and RF64 containers, PCM and
IEEE-float data, WAVE_FORMAT_EXTENSIBLE included) and then returns the
samples of any range of sample frames as (channels, samples) float64 in
[-1, 1]: 8-bit PCM is unsigned around 128, 16-, 24- and 32-bit PCM are
scaled by their full range, float samples pass through unscaled. The file
is never mapped, so only the samples of one read are held in memory. Every
read names its first sample frame and is positional (os.pread); a reader
keeps no position, so copies of it in forked processes read independently
of each other.
"""

from __future__ import annotations

import os
import struct
from pathlib import Path

import numpy as np

_PCM = 0x0001
_IEEE_FLOAT = 0x0003
_EXTENSIBLE = 0xFFFE
# Sub-format GUID tail {XXXXXXXX-0000-0010-8000-00AA00389B71} (RFC 2361).
_GUID_TAIL = {
    False: b"\x00\x00\x10\x00\x80\x00\x00\xaa\x00\x38\x9b\x71",
    True: b"\x00\x00\x00\x10\x80\x00\x00\xaa\x00\x38\x9b\x71",
}


class WavReader:
    """Positional sample reader over one WAV file.

    Attributes:
        n_channels, sample_rate: from the fmt chunk.
        n_samples: whole sample frames in the data chunk; a data chunk that
            runs past the end of the file counts only the frames present.

    Raises ValueError on a malformed header or an unsupported sample format.
    """

    def __init__(self, path: str | Path):
        self.path = Path(path)
        self._fh = open(self.path, "rb")
        try:
            self._parse_header()
        except BaseException:
            self._fh.close()
            raise

    def __enter__(self) -> "WavReader":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def close(self) -> None:
        self._fh.close()

    def _unpack(self, fmt: str, size: int) -> tuple:
        raw = self._fh.read(size)
        if len(raw) < size:
            raise ValueError("unexpected end of file in header")
        return struct.unpack(self._endian + fmt, raw)

    def _parse_header(self) -> None:
        fh = self._fh
        file_size = os.fstat(fh.fileno()).st_size
        riff = fh.read(4)
        if riff not in (b"RIFF", b"RIFX", b"RF64"):
            raise ValueError(f"not a RIFF/RIFX/RF64 file (signature {riff!r})")
        big = riff == b"RIFX"
        self._endian = ">" if big else "<"
        self._unpack("I", 4)
        if fh.read(4) != b"WAVE":
            raise ValueError("RIFF form type is not WAVE")
        rf64_data_size = None
        if riff == b"RF64":
            if fh.read(4) != b"ds64":
                raise ValueError("RF64 file without a ds64 chunk")
            (ds64_size,) = self._unpack("I", 4)
            _, rf64_data_size = self._unpack("QQ", 16)
            fh.seek(ds64_size - 16, os.SEEK_CUR)
        fmt = None
        while True:
            chunk_id = fh.read(4)
            if len(chunk_id) < 4:
                raise ValueError("no data chunk" if fmt else "no fmt chunk")
            (size,) = self._unpack("I", 4)
            if chunk_id == b"fmt ":
                fmt = self._parse_fmt(size, big)
            elif chunk_id == b"data":
                if fmt is None:
                    raise ValueError("no fmt chunk before the data chunk")
                if rf64_data_size is not None:
                    size = rf64_data_size
                break
            else:
                fh.seek(size + size % 2, os.SEEK_CUR)
        tag, channels, rate, block_align, bits = fmt
        if channels < 1 or block_align < channels or block_align % channels:
            raise ValueError(f"bad block alignment {block_align} for {channels} channels")
        width = block_align // channels
        # (stored dtype, full-scale divisor); 24-bit samples are widened to
        # left-aligned 32-bit integers first.
        if tag == _PCM and bits <= 8 and width == 1:
            self._raw, self._scale = np.dtype("u1"), 128.0
        elif tag == _PCM and width in (2, 3, 4):
            self._raw = np.dtype(f"{self._endian}i{width}" if width != 3 else "V3")
            self._scale = 2.0**15 if width == 2 else 2.0**31
        elif tag == _IEEE_FLOAT and bits == 8 * width and width in (4, 8):
            self._raw, self._scale = np.dtype(f"{self._endian}f{width}"), None
        else:
            kind = "float" if tag == _IEEE_FLOAT else "integer"
            raise ValueError(f"unsupported sample format: {bits}-bit {kind} in {width}-byte containers")
        present = max(file_size - fh.tell(), 0)
        self.n_channels = channels
        self.sample_rate = rate
        self.n_samples = min(size, present) // block_align
        self._block_align = block_align
        self._data_start = fh.tell()

    def _parse_fmt(self, size: int, big: bool) -> tuple[int, int, int, int, int]:
        if size < 16:
            raise ValueError("fmt chunk shorter than 16 bytes")
        tag, channels, rate, byte_rate, block_align, bits = self._unpack("HHIIHH", 16)
        read = 16
        if tag == _EXTENSIBLE:
            if size < 40:
                raise ValueError("extensible fmt chunk shorter than 40 bytes")
            ext = self._fh.read(24)
            read += 24
            guid = ext[8:24]
            if not guid.endswith(_GUID_TAIL[big]):
                raise ValueError("unknown extensible sub-format")
            tag = struct.unpack(self._endian + "I", guid[:4])[0]
        if tag not in (_PCM, _IEEE_FLOAT):
            raise ValueError(f"unsupported wave format tag {tag:#06x}")
        if tag == _PCM and byte_rate != rate * block_align:
            raise ValueError("byte rate does not equal sample rate x block alignment")
        self._fh.seek(size - read + size % 2, os.SEEK_CUR)
        return tag, channels, rate, block_align, bits

    def read(self, start: int, count: int) -> np.ndarray:
        """Sample frames start..start+count-1 (fewer at the end) as (channels, n) float64.

        Raises ValueError if start is outside 0..n_samples, and OSError if
        the file ends before the frames its header counted.
        """
        if not 0 <= start <= self.n_samples:
            raise ValueError(f"sample frame {start} outside 0..{self.n_samples}")
        count = max(0, min(count, self.n_samples - start))
        nbytes = count * self._block_align
        offset = self._data_start + start * self._block_align
        raw = os.pread(self._fh.fileno(), nbytes, offset)
        if len(raw) < nbytes:
            raise OSError(f"{self.path}: file ended inside the data chunk")
        if self._raw.kind == "V":
            # 24-bit samples, left-aligned in 32-bit integers.
            wide = np.zeros((count * self.n_channels, 4), dtype=np.uint8)
            cols = slice(0, 3) if self._endian == ">" else slice(1, 4)
            wide[:, cols] = np.frombuffer(raw, dtype=np.uint8).reshape(-1, 3)
            data = wide.view(f"{self._endian}i4").reshape(count, self.n_channels)
        else:
            data = np.frombuffer(raw, dtype=self._raw).reshape(count, self.n_channels)
        samples = data.T.astype(np.float64)
        if self._raw.kind == "u":
            samples -= 128.0
        if self._scale is not None:
            samples /= self._scale
        return samples
