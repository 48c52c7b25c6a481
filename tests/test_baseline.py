"""Intensity vectors, GCC-PHAT and the feature assembler."""

import numpy as np
import pytest

from seldkit import (
    ArrayFormat,
    AudioClip,
    StftConfig,
    assemble,
    channel_pairs,
    gcc_phat,
    intensity_vector,
    mel_filterbank,
    mel_intensity_vector,
    render_scene,
    stft,
    unit_vector,
)
from seldkit.baseline import FEATURE_KINDS, assemble_stream
from seldkit.stft import ComplexSpectrogram, FeatureStream, SpectrogramStream

import oracles
from support import single_source_scene


def _steered_spec(rng, az, el, frames=6, bins=40):
    s = rng.standard_normal((frames, bins)) + 1j * rng.standard_normal((frames, bins))
    h = ArrayFormat("foa").steering(unit_vector(az, el)[None], None)[:, 0, 0]
    data = h[:, None, None] * s[None]
    return ComplexSpectrogram(data, bin_hz=46.875, frame_rate=80.0)


def test_intensity_vector_points_at_the_source():
    rng = np.random.default_rng(0)
    for az, el in ((0.0, 0.0), (90.0, 0.0), (-45.0, 30.0), (170.0, -60.0)):
        spec = _steered_spec(rng, az, el)
        iv = intensity_vector(spec)
        expected = unit_vector(az, el)
        np.testing.assert_allclose(
            iv, np.broadcast_to(expected[:, None, None], iv.shape), atol=1e-9
        )


def test_intensity_vector_zero_on_silence_and_checks_channels():
    silent = ComplexSpectrogram(np.zeros((4, 2, 5), dtype=complex), 46.875, 80.0)
    assert np.all(intensity_vector(silent) == 0.0)
    three = ComplexSpectrogram(np.zeros((3, 2, 5), dtype=complex), 46.875, 80.0)
    with pytest.raises(ValueError):
        intensity_vector(three)


def test_mel_intensity_vector_is_unit_or_zero():
    rng = np.random.default_rng(1)
    spec = _steered_spec(rng, 25.0, 10.0, bins=257)
    iv = intensity_vector(spec)
    fb = mel_filterbank(24000, 512, 64)
    proj = mel_intensity_vector(iv, fb)
    assert proj.shape == (3, 6, 64)
    norms = np.linalg.norm(proj, axis=0)
    nonzero = norms > 0
    np.testing.assert_allclose(norms[nonzero], 1.0, atol=1e-9)


def test_gcc_phat_peaks_at_integer_delay():
    rng = np.random.default_rng(2)
    base = rng.standard_normal(9000)
    for delay in (-7, -1, 0, 3, 5):
        pair = np.zeros((2, 9000))
        pair[0] = base
        pair[1] = np.roll(base, delay)  # channel 1 delayed by `delay` samples
        spec = stft(AudioClip(pair, 24000), StftConfig())
        gcc = gcc_phat(spec, 0, 1, n_lags=200)
        lags = np.arange(-99, 101)
        assert lags[gcc.mean(axis=0).argmax()] == delay


def test_gcc_phat_agrees_with_time_domain_correlation():
    rng = np.random.default_rng(3)
    base = rng.standard_normal(4096)
    shifted = np.roll(base, 4)
    # both routes must report the same signed lag for the same channel pair
    assert oracles.time_domain_delay(base, shifted, max_lag=20) == 4
    spec = stft(AudioClip(np.stack([base, shifted]), 24000), StftConfig())
    gcc = gcc_phat(spec, 0, 1, n_lags=64)
    lags = np.arange(-31, 33)
    assert lags[gcc.mean(axis=0).argmax()] == 4


def test_gcc_phat_bounded_and_validated():
    rng = np.random.default_rng(4)
    spec = stft(AudioClip(rng.standard_normal((2, 3000)), 24000), StftConfig())
    gcc = gcc_phat(spec, 0, 1, n_lags=128)
    assert gcc.shape == (spec.n_frames, 128)
    assert np.all(np.abs(gcc) <= 1.0 + 1e-9)
    with pytest.raises(ValueError):
        gcc_phat(spec, 0, 2, 128)
    with pytest.raises(ValueError):
        gcc_phat(spec, 0, 1, 513)


def test_channel_pairs_upper_triangle():
    assert channel_pairs(4) == [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
    assert channel_pairs(2) == [(0, 1)]


@pytest.mark.parametrize(
    "kind,fmt,channels,bands",
    [
        ("melspeciv", "foa", 7, 128),
        ("linspeciv", "foa", 7, 200),
        ("melspecgcc", "mic", 10, 128),
        ("linspecgcc", "mic", 10, 200),
        ("salsa", "foa", 7, 200),
        ("salsa", "mic", 7, 200),
    ],
)
def test_assemble_channel_and_band_contract(kind, fmt, channels, bands):
    scene = single_source_scene(fmt, az=30.0, el=5.0, seed=9, noise_power=1e-4)
    spec, _ = render_scene(scene, StftConfig())
    feat = assemble(spec, kind, ArrayFormat(fmt))
    assert feat.data.shape == (channels, spec.n_frames, bands)
    assert feat.meta["feature"] == kind
    assert feat.meta["format"] == fmt
    assert len(feat.channel_roles) == channels


def test_assemble_rejects_bad_combinations():
    scene = single_source_scene("mic", az=0.0, el=0.0, seed=1)
    spec, _ = render_scene(scene, StftConfig())
    with pytest.raises(ValueError, match="foa"):
        assemble(spec, "linspeciv", ArrayFormat("mic"))
    with pytest.raises(ValueError, match="unknown feature"):
        assemble(spec, "spectrogram", ArrayFormat("mic"))


@pytest.mark.parametrize("kind", ["melspeciv", "linspeciv", "melspecgcc", "linspecgcc", "salsa"])
def test_assemble_rejects_a_channel_count_the_format_does_not_have(kind):
    rng = np.random.default_rng(4)
    data = rng.standard_normal((6, 8, 257)) + 1j * rng.standard_normal((6, 8, 257))
    spec = ComplexSpectrogram(data, bin_hz=46.875, frame_rate=80.0)
    with pytest.raises(ValueError, match="foa input must have 4 channels, got 6"):
        assemble(spec, kind, ArrayFormat("foa"))
    if not kind.endswith("iv"):
        with pytest.raises(ValueError, match="mic input must have 4 channels, got 6"):
            assemble(spec, kind, ArrayFormat("mic"))


def test_assemble_roles_by_kind():
    scene = single_source_scene("foa", az=10.0, el=0.0, seed=2)
    spec, _ = render_scene(scene, StftConfig())
    iv = assemble(spec, "linspeciv", ArrayFormat("foa"))
    assert iv.channel_roles == ["spec"] * 4 + ["spatial"] * 3
    mic_spec, _ = render_scene(single_source_scene("mic", az=10.0, el=0.0, seed=2), StftConfig())
    gcc = assemble(mic_spec, "linspecgcc", ArrayFormat("mic"))
    assert gcc.channel_roles == ["spec"] * 4 + ["gcc"] * 6
    assert gcc.meta["n_lags"] == 200


# The (format, kind) pairs assemble_stream takes: intensity vectors need
# ambisonic channels, and GCC pairs turn only by a channel map without signs.
VALID_PAIRS = {
    ("foa", "melspeciv"), ("foa", "linspeciv"), ("foa", "salsa"),
    ("mic", "melspecgcc"), ("mic", "linspecgcc"), ("mic", "salsa"),
}


@pytest.mark.parametrize("fmt_kind", ["foa", "mic"])
@pytest.mark.parametrize("kind", FEATURE_KINDS)
def test_assemble_stream_takes_exactly_the_six_valid_pairs(fmt_kind, kind):
    def source(start, stop, n):  # a generator: nothing runs until a block is read
        raise AssertionError("the spectrogram was read")
        yield

    spec = SpectrogramStream(4, 100, 257, 46.875, 50.0, source)
    if (fmt_kind, kind) in VALID_PAIRS:
        assert isinstance(assemble_stream(spec, kind, ArrayFormat(fmt_kind)), FeatureStream)
    else:
        other = "mic" if fmt_kind == "foa" else "foa"
        with pytest.raises(ValueError, match=f"^{kind} requires the {other} format$"):
            assemble_stream(spec, kind, ArrayFormat(fmt_kind))
