"""Frame-block feature assembly and streaming extract: block-size and
frame-range invariance, helper processes, and bounded memory."""

import importlib
import os
import time
from dataclasses import replace

import numpy as np
import pytest

from seldkit import (
    FEATURE_KINDS,
    ArrayFormat,
    AudioClip,
    BinSelectionConfig,
    ComplexSpectrogram,
    StftConfig,
    assemble,
    compress_high_bands,
    render_scene,
    stft,
)
from seldkit import cli
from seldkit.baseline import FORMAT_KINDS, assemble_stream
from seldkit.cli import main, read_wav

import oracles
import support

# The package re-exports the function `stft`, which hides the module.
stft_module = importlib.import_module("seldkit.stft")

# One frame, a size that leaves a ragged last block, and more than T.
BLOCKS = (1, 7, 10_000)
# Every (format, kind) pair that extract writes.
FORMAT_KIND_PAIRS = [(fmt, kind) for fmt, kinds in FORMAT_KINDS.items() for kind in kinds]


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


@pytest.mark.parametrize("fmt_kind, kind", FORMAT_KIND_PAIRS)
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


# Arguments that assemble_stream must refuse: (kind, format, input channels,
# selection config changes).
BAD_ARGUMENTS = (
    [("mfcc", "foa", 4, {})]
    + [(kind, "foa", 3, {}) for kind in FEATURE_KINDS]
    + [(kind, "mic", 3, {}) for kind in ("melspecgcc", "linspecgcc", "salsa")]
    + [(kind, "mic", 4, {}) for kind in ("melspeciv", "linspeciv")]
    + [
        (kind, "foa", 4, {"compress_start_bin": start})
        for kind in ("linspeciv", "linspecgcc", "salsa")
        for start in (-1, 257)
    ]
    # foa takes no gcc kind; mic's linspecgcc checks its compress_start_bin.
    + [(kind, "foa", 4, {}) for kind in ("melspecgcc", "linspecgcc")]
    + [("linspecgcc", "mic", 4, {"compress_start_bin": start}) for start in (-1, 257)]
)


@pytest.mark.parametrize("kind, fmt_kind, channels, changes", BAD_ARGUMENTS)
def test_assemble_stream_checks_arguments_before_reading(kind, fmt_kind, channels, changes):
    calls = []

    def source(start, stop, n):
        calls.append((start, stop, n))
        raise AssertionError("the spectrogram was read")

    spec = stft_module.SpectrogramStream(channels, 100, 257, 46.875, 50.0, source)
    cfg = replace(BinSelectionConfig.for_format(fmt_kind), **changes)
    with pytest.raises(ValueError):
        assemble_stream(spec, kind, ArrayFormat(fmt_kind), cfg)
    assert calls == []


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


@pytest.mark.parametrize("fmt_kind, kind", FORMAT_KIND_PAIRS)
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
    assert not out.exists()


RANGE_CASES = [("foa", "salsa"), ("mic", "salsa"), ("mic", "melspecgcc")]


@pytest.mark.parametrize("fmt_kind, kind", RANGE_CASES)
def test_extract_in_frame_ranges_is_byte_identical(monkeypatch, tmp_path, fmt_kind, kind):
    wav = tmp_path / "clip.wav"
    support.write_wav_blocks(wav, 24000, 4, [_directional_clip(fmt_kind)])
    want = None
    for n_ranges in (1, 2, 3, 5):
        # Whatever the CPU count, the process count comes from _cpus.
        monkeypatch.setattr(cli, "_cpus", lambda: n_ranges)
        for block in (1, 7, 64):
            monkeypatch.setattr(stft_module, "_BLOCK_FRAMES", block)
            code, out = _extract(tmp_path, wav, fmt_kind, kind)
            assert code == 0
            got = [(out / name).read_bytes() for name in ("clip.ftb", "clip.manifest.txt")]
            if want is None:
                want = got
                if kind == "salsa":
                    assert b"selected=" in got[1]
            assert got == want, f"{n_ranges} ranges, blocks of {block} frames"
    assert support.no_children_left()


@pytest.mark.parametrize("fmt_kind, kind", RANGE_CASES)
def test_frame_ranges_give_the_whole_tensors_rows(monkeypatch, spectrograms, fmt_kind, kind):
    # Splits inside the five noise-floor init frames, where a range's ±3
    # covariance halo reaches back into them, one frame apart, and late.
    spec = spectrograms[fmt_kind]
    fmt = ArrayFormat(fmt_kind)
    cases = [(spec, None)]
    if kind == "salsa":
        # With 12 init frames the ranges [0, 2) and [2, 4) and their 3-frame
        # reach end before the frames that seed the floor; the 10-frame clip
        # ends before them too.
        long_seed = replace(BinSelectionConfig.for_format(fmt_kind), noise_init_frames=12)
        short = ComplexSpectrogram(spec.data[:, :10], spec.bin_hz, spec.frame_rate)
        cases += [(spec, long_seed), (short, long_seed)]
    for clip, cfg in cases:
        whole = assemble_stream(clip.stream(), kind, fmt, cfg).collect()
        edges = [e for e in (0, 2, 4, 7, 9, 40, 41, 250) if e < clip.n_frames] + [clip.n_frames]
        for block in (1, 7, 64):
            monkeypatch.setattr(stft_module, "_BLOCK_FRAMES", block)
            rows, counts = [], {}
            for lo, hi in zip(edges, edges[1:]):
                part = assemble_stream(clip.stream(), kind, fmt, cfg, frames=slice(lo, hi))
                rows.extend(part.blocks)
                for key, n in part.counts.items():
                    counts[key] = counts.get(key, 0) + n
            assert np.concatenate(rows, axis=1).tobytes() == whole.data.tobytes(), (block, cfg)
            assert counts == {k: whole.meta[k] for k in counts}
        if kind == "salsa":
            # Cue cells must exist, or their placement goes unchecked.
            assert whole.meta["selected"] > (1000 if clip is spec else 0)


@pytest.mark.parametrize("channels", [1, 4])
def test_stream_reads_are_the_whole_stfts_frames(foa_clip, channels):
    cfg = StftConfig()
    whole = stft(foa_clip, cfg)
    T = whole.n_frames
    pulled = []

    def samples(start, count):
        pulled.append((start, count))
        return foa_clip.samples[:, start : start + count]

    streams = [
        stft_module.stft_stream(samples, foa_clip.n_channels, foa_clip.n_samples, cfg),
        whole.stream(),
    ]
    for a, b in [(0, 1), (63, 65), (T - 1, T), (5, 135), (0, T)]:
        want = whole.data[:channels, a:b]
        for stream in streams:
            got = stream.read(a, b, channels)
            assert got.shape == want.shape and got.tobytes() == want.tobytes(), (a, b)
        # Exactly the samples frames a..b-1 cover, pulled in one call.
        width = (b - a - 1) * cfg.hop_length + cfg.window_length
        assert pulled == [(a * cfg.hop_length, width)]
        pulled.clear()


@pytest.mark.parametrize("frames", [slice(70, 200), slice(None)])
def test_salsa_reads_each_block_with_its_halo(spectrograms, frames):
    # The full spectrogram is read a frame block at a time, widened by the
    # windows' reach and cut at the clip's ends; channel 0 alone is read
    # for the floor's seed and the frames before the range.
    spec = spectrograms["mic"]
    M, T = spec.n_channels, spec.n_frames
    stream = spec.stream()
    calls = []
    read = stream.read

    def recording(start, stop, channels):
        calls.append((start, stop, channels))
        return read(start, stop, channels)

    stream.read = recording
    cfg = BinSelectionConfig.for_format("mic")
    reach = max(cfg.cov_half_window, cfg.rms_half_window)
    feat = assemble_stream(stream, "salsa", ArrayFormat("mic"), cfg, frames=frames)
    for _ in feat.blocks:
        pass
    lo, hi, _ = frames.indices(T)
    assert hi - lo > 2 * stft_module._BLOCK_FRAMES
    blocks = stft_module.frame_blocks
    wide = [(max(b.start - reach, 0), min(b.stop + reach, T)) for b in blocks(hi, lo)]
    assert [c[:2] for c in calls if c[2] == M] == wide
    narrow = [(0, cfg.noise_init_frames)] + [(b.start, b.stop) for b in blocks(lo)]
    assert [c[:2] for c in calls if c[2] == 1] == narrow
    assert len(calls) == len(wide) + len(narrow)


def _truncate_after_open(monkeypatch, keep_samples):
    """open_wav that cuts the file to its first keep_samples sample frames
    right after parsing the header, which still counts them all."""
    real = cli.open_wav

    def open_then_truncate(path):
        wav = real(path)
        os.truncate(path, wav._data_start + keep_samples * wav._block_align)
        return wav

    monkeypatch.setattr(cli, "open_wav", open_then_truncate)


@pytest.mark.parametrize("fault", ["nan", "truncated"])
def test_extract_helper_failure_matches_the_serial_run(monkeypatch, tmp_path, capfd, fault):
    clip = _directional_clip("mic")
    n = clip.shape[1]
    if fault == "nan":
        clip[2, n - 300] = np.nan  # read by the last of up to five ranges only
    wav = tmp_path / "clip.wav"
    results = {}
    for n_ranges in (1, 2, 3, 5):
        support.write_wav_blocks(wav, 24000, 4, [clip])
        if fault == "truncated":
            _truncate_after_open(monkeypatch, n - 1000)
        monkeypatch.setattr(cli, "_cpus", lambda: n_ranges)
        code, out = _extract(tmp_path, wav, "mic", "salsa")
        captured = capfd.readouterr()
        results[n_ranges] = (code, captured.out, captured.err)
        assert not out.exists()
        assert support.no_children_left()
    assert results[1][0] == (4 if fault == "nan" else 2)
    assert ("non-finite" if fault == "nan" else "ended inside") in results[1][2]
    assert all(r == results[1] for r in results.values()), results


def test_in_ranges_results_errors_and_reaping():
    assert cli._in_ranges(lambda k: k * k, 4) == [0, 1, 4, 9]

    def fail_from(k_bad, exc_type):
        def work(k):
            if k >= k_bad:
                # The last range fails first; range order decides.
                time.sleep(0.2 * (k_bad + 3 - k))
                raise exc_type(f"range {k}")
            return k
        return work

    with pytest.raises(cli.NumericalError, match="^range 2$"):
        cli._in_ranges(fail_from(2, cli.NumericalError), 4)
    with pytest.raises(OSError, match="^range 1$"):
        cli._in_ranges(fail_from(1, FileNotFoundError), 3)
    with pytest.raises(RuntimeError, match="^ZeroDivisionError: range 1$"):
        cli._in_ranges(fail_from(1, ZeroDivisionError), 2)
    with pytest.raises(RuntimeError, match="wait status"):
        cli._in_ranges(lambda k: os._exit(3) if k else 0, 2)
    assert support.no_children_left()

    # An interrupt in this process kills and reaps helpers that still run.
    t0 = time.perf_counter()

    def interrupted(k):
        if k == 0:
            raise KeyboardInterrupt
        time.sleep(60)

    with pytest.raises(KeyboardInterrupt):
        cli._in_ranges(interrupted, 3)
    assert time.perf_counter() - t0 < 30
    assert support.no_children_left()


@pytest.mark.skipif(not support.HAS_VMHWM, reason="needs /proc/self/status")
def test_extract_peak_memory_is_bounded(tmp_path):
    rng = np.random.default_rng(4)
    seconds, channels = 60, 4
    wav = tmp_path / "long.wav"
    samples = 0.05 * rng.standard_normal((channels, seconds * 24000))
    support.write_wav_blocks(wav, 24000, channels, [samples])
    code, growth = support.child_peak_growth(
        ["extract", wav, "--format", "foa", "--feature", "salsa", "--out", tmp_path]
    )
    assert code == 0
    cfg = StftConfig()
    spec_bytes = channels * cfg.n_frames(seconds * 24000) * cfg.n_bins * 16
    assert growth < 3 * spec_bytes


@pytest.mark.skipif(not support.HAS_VMHWM, reason="needs /proc/self/status")
def test_streaming_extract_peak_memory_is_flat_in_clip_length(tmp_path):
    growth = {}
    for seconds in (60, 600):
        wav = tmp_path / f"noise{seconds}.wav"
        blocks = support.noise_blocks(np.random.default_rng(seconds), 4, seconds * 24000)
        support.write_wav_blocks(wav, 24000, 4, blocks, "int16")
        code, growth[seconds] = support.child_peak_growth(
            ["extract", wav, "--format", "foa", "--feature", "salsa", "--out", tmp_path / "out"]
        )
        assert code == 0
        (tmp_path / "out" / f"noise{seconds}.ftb").unlink()
        wav.unlink()
    assert growth[600] < growth[60] + support.FLAT_MARGIN_BYTES, growth


# augment holds one float32 tensor plus per-channel and per-block
# temporaries.
TENSOR_PEAK_MULTIPLE = 2
# stats and stats --apply hold one float32 channel as read and one float64
# copy of it, 3/7 of a 7-channel salsa tensor file: a 120 s clip measured
# 0.43x (salsa) and 0.30x (melspecgcc) of its file; 0.6x leaves 0.17x
# (9 MB) for the allocator.
STATS_PEAK_MULTIPLE = 0.6


@pytest.mark.skipif(not support.HAS_VMHWM, reason="needs /proc/self/status")
@pytest.mark.parametrize("kind", ["salsa", "melspecgcc"])
def test_stats_and_augment_peak_memory_is_bounded_by_the_tensor(tmp_path, kind):
    wav_dir, feat = tmp_path / "wav", tmp_path / "feat"
    wav_dir.mkdir()
    blocks = support.noise_blocks(np.random.default_rng(8), 4, 120 * 24000)
    support.write_wav_blocks(wav_dir / "long.wav", 24000, 4, blocks, "int16")
    assert main(["extract", str(wav_dir), "--format", "mic", "--feature", kind,
                 "--out", str(feat)]) == 0
    size = (feat / "long.ftb").stat().st_size
    for argv, multiple in (
        (["stats", feat, "--out", tmp_path / "stats.ftb", "--apply", tmp_path / "normed"],
         STATS_PEAK_MULTIPLE),
        (["augment", feat, "--out", tmp_path / "aug", "--seed", "1", "--set", "p_apply=1"],
         TENSOR_PEAK_MULTIPLE),
    ):
        code, growth = support.child_peak_growth(argv)
        assert code == 0
        assert growth < multiple * size, (argv[0], growth / size)
