"""Frame-block feature assembly: block-size invariance and bounded memory."""

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
from seldkit.cli import write_wav

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
