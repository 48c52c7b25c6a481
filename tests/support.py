"""Scene and clip builders shared by the unit and acceptance tests."""

from __future__ import annotations

import os
import struct
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np

import seldkit
from seldkit import ArrayFormat, AudioClip, SceneDescription, SourceSpec, rows_to_csv, unit_vector


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


def row_bits(rows) -> list[tuple]:
    """Label rows with both angles as their float64 bytes, so that == compares
    them bit for bit."""
    return [(*r[:3], struct.pack("<dd", r[3], r[4])) for r in rows]


def assert_rows_turn_alike(got, want, tol_deg: float = 1e-12) -> None:
    """Label rows turned by a channel swap against the rows of the scene
    rendered turned.

    Turned rows go through degrees, so their angles may differ from the
    rendered ones in the last bits. The (frame, class, track) columns must be
    equal, the label CSV text too, and every direction within tol_deg degrees.
    """
    assert [r[:3] for r in got] == [r[:3] for r in want]
    assert rows_to_csv(got) == rows_to_csv(want)
    u, v = (unit_vector([r[3] for r in rows], [r[4] for r in rows]).reshape(-1, 3)
            for rows in (got, want))
    gap = np.degrees(np.arctan2(np.linalg.norm(np.cross(u, v), axis=1), (u * v).sum(1)))
    assert gap.max(initial=0.0) <= tol_deg, gap.max()


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
                     extensible=False, container="RIFF"):
    """Write a WAV file from (channels, n) float blocks in [-1, 1], one block at a time.

    The data size goes into the header once the last block is written, so
    the clip is never held whole. sample_format is a key of
    WAV_SAMPLE_FORMATS; integer formats are rounded and clipped to full scale.
    extensible writes a WAVE_FORMAT_EXTENSIBLE fmt chunk with a LIST chunk
    before the data. container is "RIFF", "RIFX" (every header field and
    sample big-endian) or "RF64" (the sizes in a ds64 chunk, 0xFFFFFFFF in
    the RIFF and data size fields).
    """
    tag, width, encode = WAV_SAMPLE_FORMATS[sample_format]
    end = ">" if container == "RIFX" else "<"
    align = width * n_channels
    fmt = struct.pack(end + "HHIIHH", 0xFFFE if extensible else tag, n_channels, sample_rate,
                      sample_rate * align, align, 8 * width)
    if extensible:
        guid = struct.pack(end + "IHH", tag, 0, 0x10) + b"\x80\x00\x00\xaa\x00\x38\x9b\x71"
        fmt += struct.pack(end + "HHI", 22, 8 * width, 0) + guid
    extra = b"LIST" + struct.pack(end + "I", 5) + b"INFOx\0" if extensible else b""
    ds64 = 8 + 28 if container == "RF64" else 0
    head = 12 + ds64 + 8 + len(fmt) + len(extra) + 8
    with open(path, "wb") as fh:
        fh.write(b"\0" * head)
        size = 0
        for block in blocks:
            raw = np.ascontiguousarray(encode(np.asarray(block, dtype=np.float64).T.reshape(-1)))
            if end == ">":
                raw = np.ascontiguousarray(raw.view(np.uint8).reshape(-1, width)[:, ::-1])
            fh.write(raw.tobytes())
            size += raw.nbytes
        fh.seek(0)
        if container == "RF64":
            fh.write(b"RF64" + struct.pack("<I", 0xFFFFFFFF) + b"WAVE")
            fh.write(b"ds64" + struct.pack("<IQQQI", 28, head - 8 + size, size, size // align, 0))
        else:
            fh.write(container.encode() + struct.pack(end + "I", head - 8 + size) + b"WAVE")
        fh.write(b"fmt " + struct.pack(end + "I", len(fmt)) + fmt + extra)
        fh.write(b"data" + struct.pack(end + "I", 0xFFFFFFFF if container == "RF64" else size))


def noise_blocks(rng: np.random.Generator, n_channels: int, n_samples: int,
                 level: float = 0.05, block: int = 240_000):
    """Independent white noise per channel, generated block by block."""
    for start in range(0, n_samples, block):
        yield level * rng.standard_normal((n_channels, min(block, n_samples - start)))


# ---------------------------------------------------------------------------
# peak memory of one CLI call

# VmHWM is this process's own peak RSS; ru_maxrss of a process started by
# exec keeps the peak of the process that started it (here pytest's).
HAS_VMHWM = Path("/proc/self/status").exists()

# Allowance for allocator and interpreter noise between two calls that hold
# the same working set.
FLAT_MARGIN_BYTES = 16 * 2**20

_PEAK_CHILD = textwrap.dedent(
    """
    import sys
    from seldkit.cli import main

    def high_water_kb():
        with open("/proc/self/status") as fh:
            return next(int(l.split()[1]) for l in fh if l.startswith("VmHWM:"))

    before = high_water_kb()
    code = main(sys.argv[1:])
    print(code, (high_water_kb() - before) * 1024)
    """
)


def no_children_left() -> bool:
    """True when this process has no child process, running or unreaped."""
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return True
    return False


def child_peak_growth(argv):
    """Exit code and VmHWM growth in bytes of one CLI call in a fresh process.

    The growth is measured from after `import seldkit.cli`, so the
    interpreter and the imports do not count.
    """
    src = str(Path(seldkit.__file__).resolve().parents[1])
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    res = subprocess.run(
        [sys.executable, "-c", _PEAK_CHILD, *map(str, argv)],
        capture_output=True, text=True, env=env, timeout=600,
    )
    assert res.returncode == 0, res.stderr
    code, growth = res.stdout.split()[-2:]
    return int(code), int(growth)
