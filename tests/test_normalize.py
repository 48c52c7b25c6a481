"""Corpus statistics and per-channel standardization."""

import numpy as np
import pytest

from seldkit import (
    STD_FLOOR,
    ArrayFormat,
    ChannelStats,
    StatsAccumulator,
    StftConfig,
    apply_stats,
    assemble,
    render_scene,
    salsa,
)

from support import single_source_scene


def _features(kind, n=3, feature="salsa"):
    out = []
    for seed in range(n):
        scene = single_source_scene(
            kind, az=20.0 * seed - 10.0, el=5.0 * seed, seed=seed, noise_power=1e-3
        )
        spec, _ = render_scene(scene, StftConfig())
        if feature == "salsa":
            out.append(salsa(spec, ArrayFormat(kind)))
        else:
            out.append(assemble(spec, feature, ArrayFormat(kind)))
    return out


def _stats(tensors):
    """One StatsAccumulator's statistics over the tensors, added in order."""
    acc = StatsAccumulator()
    for feat in tensors:
        acc.add(feat)
    return acc.finish()


def test_stats_match_direct_concatenation():
    feats = _features("foa", n=3)
    stats = _stats(feats)
    stacked = np.concatenate([f.data.reshape(7, -1) for f in feats], axis=1)
    np.testing.assert_allclose(stats.mean, stacked.mean(axis=1), rtol=1e-12)
    np.testing.assert_allclose(stats.std, stacked.std(axis=1), rtol=1e-9)


def test_apply_stats_standardizes_spectrograms():
    feats = _features("foa", n=2)
    stats = _stats(feats)
    normed = apply_stats(feats[0], stats)
    for ch in range(4):
        expect = (feats[0].data[ch] - stats.mean[ch]) / max(stats.std[ch], STD_FLOOR)
        np.testing.assert_allclose(normed.data[ch], expect, rtol=1e-12)
    assert normed.meta["normalized"] is True
    # input untouched
    assert "normalized" not in feats[0].meta


def test_direction_channels_stay_physical():
    feats = _features("foa", n=2)
    stats = _stats(feats)
    normed = apply_stats(feats[0], stats)
    np.testing.assert_array_equal(normed.data[4:], feats[0].data[4:])


def test_classical_kinds_normalize_every_channel():
    feats = _features("foa", n=2, feature="linspeciv")
    stats = _stats(feats)
    normed = apply_stats(feats[0], stats)
    for ch in range(7):
        expect = (feats[0].data[ch] - stats.mean[ch]) / max(stats.std[ch], STD_FLOOR)
        np.testing.assert_allclose(normed.data[ch], expect, rtol=1e-12)


def test_constant_channel_hits_std_floor():
    from seldkit import FeatureTensor

    data = np.full((2, 4, 5), 3.25)
    feat = FeatureTensor(data, ["spec", "spec"], "linear", {"feature": "linspecgcc"})
    stats = _stats([feat])
    assert np.all(stats.std == 0.0)
    normed = apply_stats(feat, stats)
    # (x - mean) / floor = 0, not inf/nan
    assert np.all(normed.data == 0.0)
    assert np.all(np.isfinite(normed.data))


def test_role_mismatch_rejected():
    from seldkit import FeatureTensor

    a = FeatureTensor(np.zeros((2, 3, 4)), ["spec", "spec"], "linear", {})
    b = FeatureTensor(np.ones((2, 3, 4)), ["spec", "gcc"], "linear", {})
    acc = StatsAccumulator()
    acc.add(a)
    with pytest.raises(ValueError, match="mix"):
        acc.add(b)
    stats = _stats([a])
    with pytest.raises(ValueError, match="roles"):
        apply_stats(b, stats)


def test_non_finite_tensor_is_rejected_and_adds_nothing():
    from seldkit import FeatureTensor

    good = FeatureTensor(np.arange(24.0).reshape(2, 3, 4), ["spec", "spec"], "linear", {})
    acc = StatsAccumulator()
    for bad in (np.nan, np.inf):
        data = good.data.copy()
        data[1, 2, 3] = bad
        with pytest.raises(FloatingPointError, match="channel 1"):
            acc.add(FeatureTensor(data, good.channel_roles, "linear", {}))
    with pytest.raises(ValueError, match="no tensors"):
        acc.finish()
    acc.add(good)
    want = _stats([good])
    got = acc.finish()
    assert got.mean.tolist() == want.mean.tolist() and got.std.tolist() == want.std.tolist()


def test_channel_count_mismatch_rejected():
    feats = _features("foa", n=1)
    stats = _stats(feats)
    short = ChannelStats(stats.mean[:3], stats.std[:3], stats.channel_roles[:3])
    with pytest.raises(ValueError, match="channels"):
        apply_stats(feats[0], short)


def test_empty_accumulator_rejected():
    with pytest.raises(ValueError, match="no tensors"):
        StatsAccumulator().finish()


def test_channel_stats_validation():
    with pytest.raises(ValueError):
        ChannelStats(np.zeros(3), np.ones(2), ["spec", "spec", "spec"])
