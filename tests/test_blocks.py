"""Frame-block feature assembly and streaming extract: block-size invariance
and bounded memory."""

import importlib
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

import seldkit
from seldkit import (
    FEATURE_KINDS,
    ArrayFormat,
    AudioClip,
    StftConfig,
    assemble,
    compress_high_bands,
    render_scene,
    stft,
)
from seldkit.cli import main, read_wav, write_wav

import oracles
import support

# The package re-exports the function `stft`, which hides the module.
stft_module = importlib.import_module("seldkit.stft")

# One frame, a size that leaves a ragged last block, and more than T.
BLOCKS = (1, 7, 10_000)


@pytest.fixture(scope="module")
def foa_clip():
    """4 s FOA clip: ambient noise, then one directional noise source from 1 s."""
    rng = np.random.default_rng(11)
    n = 4 * 24000
    source = 0.1 * rng.standard_normal(n) * (np.arange(n) >= 24000)
    u = np.array([0.5, -0.6, 0.3]) / np.linalg.norm([0.5, -0.6, 0.3])
    samples = 1e-3 * rng.standard_normal((4, n))
    samples += np.vstack([source, u[:, None] * source])
    return AudioClip(samples, 24000)


@pytest.fixture(scope="module")
def spectrograms(foa_clip):
    scene = support.random_scene(np.random.default_rng(5), "mic", duration=4.0)
    mic_spec, _ = render_scene(scene, StftConfig())
    return {"foa": stft(foa_clip, StftConfig()), "mic": mic_spec}


@pytest.mark.parametrize("block", BLOCKS)
def test_stft_is_block_invariant(monkeypatch, foa_clip, block):
    ref = stft(foa_clip, StftConfig()).data
    assert ref.shape[1] > stft_module._BLOCK_FRAMES  # the default splits too
    monkeypatch.setattr(stft_module, "_BLOCK_FRAMES", block)
    assert stft(foa_clip, StftConfig()).data.tobytes() == ref.tobytes()


@pytest.mark.parametrize(
    "fmt_kind, kind",
    [("foa", kind) for kind in FEATURE_KINDS]
    + [("mic", "salsa"), ("mic", "melspecgcc"), ("mic", "linspecgcc")],
)
def test_assemble_is_block_invariant(monkeypatch, spectrograms, fmt_kind, kind):
    spec = spectrograms[fmt_kind]
    fmt = ArrayFormat(fmt_kind)
    ref = assemble(spec, kind, fmt)
    if kind == "salsa":
        # Cue cells must exist, or block placement of cues goes unchecked.
        assert np.count_nonzero(ref.data[spec.n_channels :]) > 1000
    for block in BLOCKS:
        monkeypatch.setattr(stft_module, "_BLOCK_FRAMES", block)
        feat = assemble(spec, kind, fmt)
        assert feat.data.shape == ref.data.shape
        assert feat.data.tobytes() == ref.data.tobytes(), f"block of {block} frames"


def test_compress_high_bands_ignores_layout():
    rng = np.random.default_rng(2)
    # Bands are not the fastest axis here, as in an rfft output's layout.
    view = rng.random((300, 257, 7)).transpose(2, 0, 1)
    assert not view.flags.c_contiguous
    out = compress_high_bands(view, 192, 8)
    assert out.tobytes() == compress_high_bands(np.ascontiguousarray(view), 192, 8).tobytes()
    halves = [compress_high_bands(view[:, :50], 192, 8), compress_high_bands(view[:, 50:], 192, 8)]
    assert out.tobytes() == np.concatenate(halves, axis=1).tobytes()
    mean = view[..., 192:256].reshape(7, 300, 8, 8).mean(axis=-1)
    np.testing.assert_array_equal(out[..., :192], view[..., :192])
    np.testing.assert_allclose(out[..., 192:], mean, rtol=0, atol=1e-15)


EXTRACT_CASES = [("foa", kind) for kind in FEATURE_KINDS] + [
    ("mic", "salsa"), ("mic", "melspecgcc"), ("mic", "linspecgcc")
]


def _directional_clip(fmt_kind, seconds=2.0, seed=3):
    """Ambient noise plus one directional noise source from 0.5 s, in [-1, 1].

    foa: a plane wave's W/X/Y/Z gains; mic: integer-sample delays per capsule.
    Loud enough that 8-bit samples still resolve the ambient noise.
    """
    rng = np.random.default_rng(seed)
    n = int(seconds * 24000)
    source = 0.3 * rng.standard_normal(n + 8) * (np.arange(n + 8) >= 12000)
    samples = 0.02 * rng.standard_normal((4, n))
    if fmt_kind == "foa":
        u = np.array([0.5, -0.6, 0.3]) / np.linalg.norm([0.5, -0.6, 0.3])
        samples += np.vstack([source[:n], u[:, None] * source[:n]])
    else:
        for m, delay in enumerate((0, 2, 5, 3)):
            samples[m] += source[8 - delay : 8 - delay + n]
    return np.clip(samples, -0.999, 0.999)


def _whole_clip_tensor(monkeypatch, wav, fmt_kind, kind):
    """Tensor file bytes of the whole-clip path: scipy's reader, one block."""
    monkeypatch.setattr(stft_module, "_BLOCK_FRAMES", 10_000)
    rate, samples = oracles.whole_wav_samples(wav)
    spec = stft(AudioClip(samples, rate), StftConfig())
    feat = assemble(spec, kind, ArrayFormat(fmt_kind))
    if kind == "salsa":
        assert np.count_nonzero(feat.data[spec.n_channels :]) > 500
    return oracles.tensor_file_bytes(feat.data)


def _extract(tmp_path, wav, fmt_kind, kind):
    out = tmp_path / "out"
    argv = ["extract", str(wav), "--format", fmt_kind, "--feature", kind, "--out", str(out)]
    return main(argv), out


@pytest.mark.parametrize("fmt_kind, kind", EXTRACT_CASES)
def test_streaming_extract_matches_whole_clip_path(monkeypatch, tmp_path, fmt_kind, kind):
    wav = tmp_path / "clip.wav"
    support.write_wav_blocks(wav, 24000, 4, [_directional_clip(fmt_kind)])
    want = _whole_clip_tensor(monkeypatch, wav, fmt_kind, kind)
    for block in BLOCKS:
        monkeypatch.setattr(stft_module, "_BLOCK_FRAMES", block)
        code, out = _extract(tmp_path, wav, fmt_kind, kind)
        assert code == 0
        assert (out / "clip.ftb").read_bytes() == want, f"block of {block} frames"


@pytest.mark.parametrize("sample_format", sorted(support.WAV_SAMPLE_FORMATS))
def test_streaming_extract_reads_every_sample_format(monkeypatch, tmp_path, sample_format):
    wav = tmp_path / "clip.wav"
    clip = _directional_clip("foa")
    # Written in uneven pieces, so no read lines up with a written block.
    support.write_wav_blocks(wav, 24000, 4, np.array_split(clip, 5, axis=1), sample_format)
    rate, samples = oracles.whole_wav_samples(wav)
    back = read_wav(wav)
    assert back.sample_rate == rate
    assert back.samples.tobytes() == np.ascontiguousarray(samples).tobytes()
    want = _whole_clip_tensor(monkeypatch, wav, "foa", "salsa")
    for block in BLOCKS:
        monkeypatch.setattr(stft_module, "_BLOCK_FRAMES", block)
        code, out = _extract(tmp_path, wav, "foa", "salsa")
        assert code == 0
        assert (out / "clip.ftb").read_bytes() == want, f"block of {block} frames"


@pytest.mark.parametrize("kind", ["salsa", "linspecgcc"])
def test_streaming_extract_nan_in_last_block_leaves_nothing(monkeypatch, tmp_path, kind):
    clip = _directional_clip("mic")
    clip[2, -400] = np.nan
    wav = tmp_path / "clip.wav"
    support.write_wav_blocks(wav, 24000, 4, [clip])
    monkeypatch.setattr(stft_module, "_BLOCK_FRAMES", 7)
    code, out = _extract(tmp_path, wav, "mic", kind)
    assert code == 4
    assert list(out.iterdir()) == []


_CHILD = textwrap.dedent(
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


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="needs /proc/self/status")
def test_extract_peak_memory_is_bounded(tmp_path):
    # VmHWM is this process's own peak RSS; ru_maxrss of a process started
    # by exec keeps the peak of the process that started it (here pytest's).
    rng = np.random.default_rng(4)
    seconds, channels = 60, 4
    wav = tmp_path / "long.wav"
    write_wav(wav, AudioClip(0.05 * rng.standard_normal((channels, seconds * 24000)), 24000))
    src = str(Path(seldkit.__file__).resolve().parents[1])
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    argv = ["extract", str(wav), "--format", "foa", "--feature", "salsa", "--out", str(tmp_path)]
    res = subprocess.run(
        [sys.executable, "-c", _CHILD, *argv], capture_output=True, text=True, env=env, timeout=300
    )
    assert res.returncode == 0, res.stderr
    code, growth = res.stdout.split()[-2:]
    assert code == "0"
    cfg = StftConfig()
    spec_bytes = channels * cfg.n_frames(seconds * 24000) * cfg.n_bins * 16
    assert int(growth) < 3 * spec_bytes


def _child_peak_growth(argv):
    """Exit code and VmHWM growth in bytes of one CLI call in a fresh process."""
    src = str(Path(seldkit.__file__).resolve().parents[1])
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    res = subprocess.run(
        [sys.executable, "-c", _CHILD, *map(str, argv)],
        capture_output=True, text=True, env=env, timeout=600,
    )
    assert res.returncode == 0, res.stderr
    code, growth = res.stdout.split()[-2:]
    return int(code), int(growth)


# Allowance for allocator and interpreter noise between two calls that hold
# the same working set.
FLAT_MARGIN_BYTES = 16 * 2**20


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="needs /proc/self/status")
def test_streaming_extract_peak_memory_is_flat_in_clip_length(tmp_path):
    growth = {}
    for seconds in (60, 600):
        wav = tmp_path / f"noise{seconds}.wav"
        blocks = support.noise_blocks(np.random.default_rng(seconds), 4, seconds * 24000)
        support.write_wav_blocks(wav, 24000, 4, blocks, "int16")
        code, growth[seconds] = _child_peak_growth(
            ["extract", wav, "--format", "foa", "--feature", "salsa", "--out", tmp_path / "out"]
        )
        assert code == 0
        (tmp_path / "out" / f"noise{seconds}.ftb").unlink()
        wav.unlink()
    assert growth[600] < growth[60] + FLAT_MARGIN_BYTES, growth


# stats --apply and augment hold one float32 tensor plus per-channel and
# per-block temporaries.
TENSOR_PEAK_MULTIPLE = 2


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="needs /proc/self/status")
@pytest.mark.parametrize("kind", ["salsa", "melspecgcc"])
def test_stats_and_augment_peak_memory_is_bounded_by_the_tensor(tmp_path, kind):
    wav_dir, feat = tmp_path / "wav", tmp_path / "feat"
    wav_dir.mkdir()
    blocks = support.noise_blocks(np.random.default_rng(8), 4, 120 * 24000)
    support.write_wav_blocks(wav_dir / "long.wav", 24000, 4, blocks, "int16")
    assert main(["extract", str(wav_dir), "--format", "mic", "--feature", kind,
                 "--out", str(feat)]) == 0
    size = (feat / "long.ftb").stat().st_size
    for argv in (
        ["stats", feat, "--out", tmp_path / "stats.ftb", "--apply", tmp_path / "normed"],
        ["augment", feat, "--out", tmp_path / "aug", "--seed", "1", "--set", "p_apply=1"],
    ):
        code, growth = _child_peak_growth(argv)
        assert code == 0
        assert growth < TENSOR_PEAK_MULTIPLE * size, (argv[0], growth / size)
