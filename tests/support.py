"""Scene and clip builders shared by the unit and acceptance tests."""

from __future__ import annotations

import struct

import numpy as np

from seldkit import ArrayFormat, AudioClip, SceneDescription, SourceSpec


def single_source_scene(
    kind: str,
    az: float,
    el: float,
    seed: int,
    duration: float = 1.2,
    onset: float = 0.2,
    noise_power: float = 0.0,
    signal: str = "noise",
    params: dict | None = None,
    gain: float = 1.0,
    class_id: int = 0,
) -> SceneDescription:
    """One static source, optionally over ambient noise.

    The leading [0, onset) stretch is source-free so the adaptive noise floor
    can settle on the background before the event starts.
    """
    src = SourceSpec(
        class_id=class_id,
        onset=onset,
        offset=duration,
        signal=signal,
        gain=gain,
        params=params if params is not None else {"f_low": 300.0, "f_high": 8500.0},
        trajectory=[(0.0, az, el)],
    )
    return SceneDescription(
        fmt=ArrayFormat(kind),
        duration=duration,
        sources=[src],
        noise_power=noise_power,
        seed=seed,
    )


def random_scene(
    rng: np.random.Generator,
    kind: str,
    duration: float = 1.0,
    max_sources: int = 3,
    noise_power: float = 1e-3,
) -> SceneDescription:
    """Random mixed-signal scene with moving sources, for round-trip tests."""
    n = int(rng.integers(1, max_sources + 1))
    classes = rng.choice(12, size=n, replace=False)
    sources = []
    for cls in classes:
        onset = float(rng.uniform(0.0, duration * 0.3))
        offset = float(rng.uniform(onset + 0.4, duration))
        signal = ("noise", "tone", "chirp")[int(rng.integers(3))]
        if signal == "noise":
            params = {"f_low": 200.0, "f_high": 8000.0}
        elif signal == "tone":
            params = {"f0": float(rng.uniform(150.0, 900.0)), "harmonics": 5}
        else:
            params = {
                "f_start": float(rng.uniform(200.0, 1500.0)),
                "f_end": float(rng.uniform(2000.0, 8000.0)),
            }
        start = (0.0, float(rng.uniform(-180.0, 180.0)), float(rng.uniform(-60.0, 60.0)))
        end = (
            duration,
            start[1] + float(rng.uniform(-40.0, 40.0)),
            float(np.clip(start[2] + rng.uniform(-20.0, 20.0), -90.0, 90.0)),
        )
        sources.append(
            SourceSpec(
                class_id=int(cls),
                onset=onset,
                offset=offset,
                signal=signal,
                gain=float(rng.uniform(0.5, 1.2)),
                params=params,
                trajectory=[start, end],
            )
        )
    return SceneDescription(
        fmt=ArrayFormat(kind),
        duration=duration,
        sources=sources,
        noise_power=noise_power,
        seed=int(rng.integers(2**31)),
    )


def noise_clip(
    rng: np.random.Generator,
    n_channels: int = 4,
    seconds: float = 2.0,
    sample_rate: int = 24000,
    level: float = 0.05,
) -> AudioClip:
    """Independent white noise per channel, for shape and throughput tests."""
    samples = level * rng.standard_normal((n_channels, int(seconds * sample_rate)))
    return AudioClip(samples, sample_rate)


# Sample encodings: (format tag, bytes per sample, encoder of float samples).
def _pcm(bits: int, dtype: str):
    full = 2.0 ** (bits - 1)

    def encode(x):
        return np.clip(np.round(x * full), -full, full - 1).astype(dtype)

    return encode


WAV_SAMPLE_FORMATS = {
    "uint8": (1, 1, lambda x: (np.clip(np.round(x * 128.0), -128, 127) + 128).astype("u1")),
    "int16": (1, 2, _pcm(16, "<i2")),
    "int24": (1, 3, lambda x: _pcm(24, "<i4")(x).view("u1").reshape(-1, 4)[:, :3]),
    "int32": (1, 4, _pcm(32, "<i4")),
    "float32": (3, 4, lambda x: x.astype("<f4")),
    "float64": (3, 8, lambda x: x.astype("<f8")),
}


def write_wav_blocks(path, sample_rate: int, n_channels: int, blocks, sample_format="float32",
                     extensible=False):
    """Write a WAV file from (channels, n) float blocks in [-1, 1], one block at a time.

    The data size goes into the header once the last block is written, so
    the clip is never held whole. sample_format is a key of
    WAV_SAMPLE_FORMATS; integer formats are rounded and clipped to full scale.
    extensible writes a WAVE_FORMAT_EXTENSIBLE fmt chunk with a LIST chunk
    before the data.
    """
    tag, width, encode = WAV_SAMPLE_FORMATS[sample_format]
    align = width * n_channels
    fmt = struct.pack("<HHIIHH", 0xFFFE if extensible else tag, n_channels, sample_rate,
                      sample_rate * align, align, 8 * width)
    if extensible:
        guid = struct.pack("<I", tag) + b"\x00\x00\x10\x00\x80\x00\x00\xaa\x00\x38\x9b\x71"
        fmt += struct.pack("<HHI", 22, 8 * width, 0) + guid
    extra = b"LIST" + struct.pack("<I", 5) + b"INFOx\0" if extensible else b""
    head = 12 + 8 + len(fmt) + len(extra) + 8
    with open(path, "wb") as fh:
        fh.write(b"\0" * head)
        size = 0
        for block in blocks:
            raw = np.ascontiguousarray(encode(np.asarray(block, dtype=np.float64).T.reshape(-1)))
            fh.write(raw.tobytes())
            size += raw.nbytes
        fh.seek(0)
        fh.write(b"RIFF" + struct.pack("<I", head - 8 + size) + b"WAVE")
        fh.write(b"fmt " + struct.pack("<I", len(fmt)) + fmt + extra)
        fh.write(b"data" + struct.pack("<I", size))


def noise_blocks(rng: np.random.Generator, n_channels: int, n_samples: int,
                 level: float = 0.05, block: int = 240_000):
    """Independent white noise per channel, generated block by block."""
    for start in range(0, n_samples, block):
        yield level * rng.standard_normal((n_channels, min(block, n_samples - start)))
