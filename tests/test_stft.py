"""STFT front end: transform correctness, mel projection, band compression."""

import numpy as np
import pytest

from seldkit import (
    AudioClip,
    ComplexSpectrogram,
    FeatureTensor,
    StftConfig,
    compress_high_bands,
    log_linear_spectrogram,
    log_mel_spectrogram,
    mel_filterbank,
    stft,
)

import oracles


def test_config_defaults_give_80_fps():
    cfg = StftConfig()
    assert cfg.n_bins == 257
    assert cfg.bin_hz == pytest.approx(46.875)
    assert cfg.frame_rate == pytest.approx(80.0)


def test_frame_count_matches_direct_arithmetic():
    cfg = StftConfig()
    for n in (512, 513, 811, 24000, 60 * 24000):
        assert cfg.n_frames(n) == 1 + (n - cfg.window_length) // cfg.hop_length
    assert cfg.n_frames(60 * 24000) == 4799


def test_clip_shorter_than_window_rejected():
    cfg = StftConfig()
    with pytest.raises(ValueError):
        cfg.n_frames(511)


@pytest.mark.parametrize(
    "hop,win,fft", [(0, 512, 512), (513, 512, 512), (300, 513, 512)]
)
def test_config_ordering_validated(hop, win, fft):
    with pytest.raises(ValueError):
        StftConfig(hop_length=hop, window_length=win, fft_size=fft)


def test_stft_matches_reference_loop():
    rng = np.random.default_rng(11)
    clip = AudioClip(rng.standard_normal((2, 4000)), 24000)
    spec = stft(clip, StftConfig())
    ref = oracles.naive_stft(clip.samples, 24000)
    assert spec.data.shape == ref.shape
    np.testing.assert_allclose(spec.data, ref, atol=1e-10)


def test_stft_sinusoid_lands_in_its_bin():
    cfg = StftConfig()
    # 937.5 Hz is exactly 20 * bin_hz, so the peak must sit in bin 20
    t = np.arange(24000) / cfg.sample_rate
    clip = AudioClip(np.sin(2 * np.pi * 937.5 * t), cfg.sample_rate)
    spec = stft(clip, cfg)
    peak = np.abs(spec.data[0]).mean(axis=0).argmax()
    assert peak == 20


def test_stft_rejects_rate_mismatch():
    clip = AudioClip(np.zeros((1, 1000)), 16000)
    with pytest.raises(ValueError, match="rate"):
        stft(clip, StftConfig(sample_rate=24000))


def test_rect_window_is_plain_dft_of_frames():
    rng = np.random.default_rng(3)
    clip = AudioClip(rng.standard_normal((1, 1112)), 24000)
    cfg = StftConfig(window="rect")
    spec = stft(clip, cfg)
    first = np.fft.rfft(clip.samples[0, :512], n=512)
    np.testing.assert_allclose(spec.data[0, 0], first, atol=1e-12)
    with pytest.raises(ValueError, match="window"):
        stft(clip, StftConfig(window="blackman"))


def test_log_linear_floor_keeps_silence_finite():
    spec = ComplexSpectrogram(np.zeros((1, 4, 257), dtype=complex), 46.875, 80.0)
    feat = log_linear_spectrogram(spec, floor=1e-12)
    assert np.all(feat.data == np.log(1e-12))
    assert feat.channel_roles == ["spec"]


def test_mel_filterbank_covers_every_filter():
    fb = mel_filterbank(24000, 512, 128)
    assert fb.shape == (257, 128)
    assert np.all(fb >= 0.0)
    # No filter may collapse to zero even where triangles are narrower than
    # one bin; bin-width averaging guarantees this.
    assert np.all(fb.sum(axis=0) > 0.0)


def test_mel_filterbank_unit_area():
    # Each triangle is normalized to unit integral, so the bin sums times the
    # bin width must all be 1 regardless of the triangle width.
    fb = mel_filterbank(24000, 512, 128)
    np.testing.assert_allclose(fb.sum(axis=0) * (24000 / 512), 1.0, rtol=1e-9)


def test_mel_filterbank_centers_increase():
    fb = mel_filterbank(24000, 512, 64)
    centers = np.array([np.argmax(fb[:, k]) for k in range(64)])
    assert np.all(np.diff(centers) >= 0)


def test_mel_filterbank_validation():
    with pytest.raises(ValueError):
        mel_filterbank(24000, 512, 0)


def test_log_mel_spectrogram_projects_power():
    rng = np.random.default_rng(5)
    data = rng.standard_normal((2, 3, 257)) + 1j * rng.standard_normal((2, 3, 257))
    spec = ComplexSpectrogram(data, 46.875, 80.0)
    fb = mel_filterbank(24000, 512, 128)
    feat = log_mel_spectrogram(spec, fb)
    assert feat.data.shape == (2, 3, 128)
    assert feat.scale == "mel"
    expected = np.log(np.abs(data) ** 2 @ fb + 1e-12)
    np.testing.assert_allclose(feat.data, expected)


def test_compress_high_bands_values():
    data = np.arange(257.0)[None, :]
    out = compress_high_bands(data, start_bin=192, factor=8)
    assert out.shape == (1, 200)
    np.testing.assert_array_equal(out[0, :192], np.arange(192.0))
    # first group is the mean of bins 192..199; the lone Nyquist bin is dropped
    assert out[0, 192] == pytest.approx(np.mean(np.arange(192, 200)))
    assert out[0, 199] == pytest.approx(np.mean(np.arange(248, 256)))


def test_compress_high_bands_validation():
    with pytest.raises(ValueError):
        compress_high_bands(np.zeros((1, 10)), start_bin=10)
    with pytest.raises(ValueError):
        compress_high_bands(np.zeros((1, 10)), start_bin=2, factor=0)


def test_feature_tensor_checks_roles_and_rank():
    with pytest.raises(ValueError):
        FeatureTensor(np.zeros((2, 3)), ["spec", "spec"], "linear")
    with pytest.raises(ValueError):
        FeatureTensor(np.zeros((2, 3, 4)), ["spec"], "linear")
    with pytest.raises(ValueError):
        FeatureTensor(np.zeros((1, 3, 4)), ["spec"], "log")
