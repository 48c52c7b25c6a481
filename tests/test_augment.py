"""Channel swaps, frequency shift, cutout and the augmentation pipeline."""

import numpy as np
import pytest

from seldkit import (
    ArrayFormat,
    AugmentConfig,
    LabelRows,
    SeldLabels,
    StftConfig,
    assemble,
    augment_pipeline,
    channel_swap,
    foa_transforms,
    frequency_shift,
    mic_transforms,
    random_cutout,
    render_scene,
    rows_from_csv,
    rows_to_csv,
    salsa,
    tetra_positions,
    transforms_for,
    unit_vector,
)

from support import random_scene, single_source_scene


def test_foa_transform_group():
    txs = foa_transforms()
    assert len(txs) == 16
    mats = {tuple(t.matrix.flatten()) for t in txs}
    assert len(mats) == 16
    for t in txs:
        assert abs(round(np.linalg.det(t.matrix))) == 1
        # signed permutation: one entry per row and column
        assert np.all(np.abs(t.matrix).sum(axis=0) == 1)
        assert np.all(np.abs(t.matrix).sum(axis=1) == 1)
    # closed under composition
    for a in txs:
        for b in txs:
            assert tuple((a.matrix @ b.matrix).flatten()) in mats


def test_mic_transform_table():
    txs = mic_transforms()
    assert len(txs) == 8
    perms = {t.mic_perm for t in txs}
    assert len(perms) == 8
    assert (0, 1, 2, 3) in perms
    # augment_pipeline draws an index into this list, so the order is pinned.
    assert [t.name for t in txs] == [
        "rot000", "rot000_mirror_zflip", "rot180", "rot180_mirror_zflip",
        "rot090_zflip", "rot090_mirror", "rot270_zflip", "rot270_mirror",
    ]
    corners = tetra_positions()
    for t in txs:
        assert sorted(t.mic_perm) == [0, 1, 2, 3]
        assert abs(round(np.linalg.det(t.matrix))) == 1
        # Capsule m takes the channel of the corner that A maps onto its own.
        np.testing.assert_array_equal(corners[list(t.mic_perm)] @ t.matrix.T, corners)


def test_transforms_for_dispatch():
    assert len(transforms_for("foa")) == 16
    assert len(transforms_for("mic")) == 8
    with pytest.raises(ValueError):
        transforms_for("quad")


def _identity_transform(kind):
    for tx in transforms_for(kind):
        if np.array_equal(tx.matrix, np.eye(3)):
            return tx
    raise AssertionError("no identity transform found")


def test_identity_swap_is_a_no_op():
    scene = single_source_scene("foa", az=30.0, el=20.0, seed=0, noise_power=1e-4)
    spec, labels = render_scene(scene, StftConfig())
    feat = salsa(spec, ArrayFormat("foa"))
    out, out_labels = channel_swap(feat, labels, _identity_transform("foa"))
    np.testing.assert_array_equal(out.data, feat.data)
    np.testing.assert_array_equal(out_labels.doa, labels.doa)


def test_channel_swap_commutes_with_rendering_foa():
    # Swapping feature channels must equal re-rendering the rotated scene.
    # FOA steering is linear in the rotation, so multiple sources plus
    # (orientation-covariant) ambient noise still commute.
    rng = np.random.default_rng(11)
    scene = random_scene(rng, "foa", duration=0.8, noise_power=1e-4)
    cfg = StftConfig()
    spec, labels = render_scene(scene, cfg)
    feat = salsa(spec, ArrayFormat("foa"))
    for tx in transforms_for("foa")[:4]:
        swapped, swapped_labels = channel_swap(feat, labels, tx)
        spec2, labels2 = render_scene(scene.transformed(tx.matrix), cfg)
        direct = salsa(spec2, ArrayFormat("foa"))
        assert np.abs(swapped.data - direct.data).max() < 1e-6
        np.testing.assert_array_equal(swapped_labels.doa, labels2.doa)
        np.testing.assert_array_equal(swapped_labels.activity, labels2.activity)


def test_channel_swap_commutes_with_rendering_mic():
    # The mic steering is referenced to channel 0, so a rotated scene picks up
    # a per-source common phase that only cancels out of the features when one
    # source owns each bin: the guarantee covers single-source scenes.
    cfg = StftConfig()
    scene = single_source_scene(
        "mic", az=40.0, el=-15.0, seed=21, noise_power=0.0, signal="noise"
    )
    spec, labels = render_scene(scene, cfg)
    feat = salsa(spec, ArrayFormat("mic"))
    for tx in transforms_for("mic"):
        swapped, swapped_labels = channel_swap(feat, labels, tx)
        spec2, labels2 = render_scene(scene.transformed(tx.matrix), cfg)
        direct = salsa(spec2, ArrayFormat("mic"))
        assert np.abs(swapped.data - direct.data).max() < 1e-6, tx.name
        np.testing.assert_array_equal(swapped_labels.doa, labels2.doa)
        np.testing.assert_array_equal(swapped_labels.activity, labels2.activity)


def test_intensity_vector_swap_commutes_exactly():
    rng = np.random.default_rng(12)
    scene = random_scene(rng, "foa", duration=0.8, noise_power=1e-4)
    cfg = StftConfig()
    spec, labels = render_scene(scene, cfg)
    feat = assemble(spec, "linspeciv", ArrayFormat("foa"))
    for tx in transforms_for("foa")[:6]:
        swapped, _ = channel_swap(feat, labels, tx)
        spec2, _ = render_scene(scene.transformed(tx.matrix), cfg)
        direct = assemble(spec2, "linspeciv", ArrayFormat("foa"))
        assert np.abs(swapped.data - direct.data).max() < 1e-9


def test_channel_swap_checks_format():
    scene = single_source_scene("foa", az=0.0, el=0.0, seed=1)
    spec, labels = render_scene(scene, StftConfig())
    feat = salsa(spec, ArrayFormat("foa"))
    with pytest.raises(ValueError, match="mic"):
        channel_swap(feat, labels, transforms_for("mic")[0])


def test_frequency_shift_moves_bands():
    scene = single_source_scene("foa", az=10.0, el=5.0, seed=2, noise_power=1e-4)
    spec, _ = render_scene(scene, StftConfig())
    feat = salsa(spec, ArrayFormat("foa"))
    up = frequency_shift(feat, 3)
    np.testing.assert_array_equal(up.data[:, :, 3:], feat.data[:, :, :-3])
    # vacated spectrogram bands take the channel minimum, directions zero
    for ch in range(4):
        assert np.all(up.data[ch, :, :3] == feat.data[ch].min())
    assert np.all(up.data[4:, :, :3] == 0.0)
    down = frequency_shift(feat, -3)
    np.testing.assert_array_equal(down.data[:, :, :-3], feat.data[:, :, 3:])
    with pytest.raises(ValueError):
        frequency_shift(feat, 11)


def test_frequency_shift_leaves_gcc_untouched():
    scene = single_source_scene("mic", az=10.0, el=5.0, seed=3, noise_power=1e-4)
    spec, _ = render_scene(scene, StftConfig())
    feat = assemble(spec, "linspecgcc", ArrayFormat("mic"))
    out = frequency_shift(feat, 5)
    np.testing.assert_array_equal(out.data[4:], feat.data[4:])
    assert np.any(out.data[0] != feat.data[0])


def test_random_cutout_masks_all_channels_alike():
    scene = single_source_scene("foa", az=10.0, el=5.0, seed=4, noise_power=1e-3)
    spec, _ = render_scene(scene, StftConfig())
    feat = salsa(spec, ArrayFormat("foa"))
    out = random_cutout(feat, np.random.default_rng(0))
    changed = out.data != feat.data
    masks = [changed[ch] for ch in range(7) if changed[ch].any()]
    assert masks, "cutout changed nothing"
    # spectrogram channels share one region; spatial channels are zero there
    region = changed[:4].any(axis=0)
    for ch in range(4, 7):
        assert np.all(out.data[ch][region] == 0.0)
    for ch in range(4):
        lo, hi = feat.data[ch].min(), feat.data[ch].max()
        filled = out.data[ch][region]
        assert np.all((filled >= lo) & (filled <= hi))


def test_augment_pipeline_reproducible_and_gated():
    scene = single_source_scene("foa", az=25.0, el=0.0, seed=5, noise_power=1e-3)
    spec, labels = render_scene(scene, StftConfig())
    feat = salsa(spec, ArrayFormat("foa"))
    off = AugmentConfig(p_apply=0.0)
    same, same_labels = augment_pipeline(feat, labels, np.random.default_rng(1), off)
    np.testing.assert_array_equal(same.data, feat.data)
    np.testing.assert_array_equal(same_labels.doa, labels.doa)
    on = AugmentConfig(p_apply=1.0)
    a, _ = augment_pipeline(feat, labels, np.random.default_rng(7), on)
    b, _ = augment_pipeline(feat, labels, np.random.default_rng(7), on)
    np.testing.assert_array_equal(a.data, b.data)
    assert np.any(a.data != feat.data)


def _single_instance_rows(rng, n_frames=20, n_classes=12, n_rows=150):
    """Label rows as read from a CSV, at most one per (frame, class) cell,
    with the axis and seam angles among them."""
    cells = rng.choice(n_frames * n_classes, n_rows, replace=False)
    az = rng.uniform(-180.0, 180.0, n_rows)
    el = rng.uniform(-90.0, 90.0, n_rows)
    edges = [(180.0, 0.0), (-180.0, 0.0), (90.0, 0.0), (0.0, 90.0), (40.0, -90.0), (0.0, 0.0)]
    az[: len(edges)], el[: len(edges)] = zip(*edges)
    rows = [(int(c // n_classes), int(c % n_classes), int(rng.integers(5)), a, e)
            for c, a, e in zip(cells, az, el)]
    return rows_from_csv(rows_to_csv(rows))


def _as_seld_labels(rows, n_frames=20, n_classes=12):
    activity = np.zeros((n_frames, n_classes), dtype=np.uint8)
    doa = np.zeros((n_frames, n_classes, 3))
    track = np.zeros((n_frames, n_classes), dtype=np.int16)
    for frame, cls, trk, az, el in rows:
        activity[frame, cls] = 1
        doa[frame, cls] = unit_vector(az, el)
        track[frame, cls] = trk
    return SeldLabels(activity, doa, track)


def test_label_rows_turn_as_the_label_grid_does():
    # Rows turned one array at a time give the CSV of the frame x class grid
    # turned cell by cell, for every swap of both formats.
    rng = np.random.default_rng(12)
    for tx in foa_transforms() + mic_transforms():
        rows = _single_instance_rows(rng)
        want = rows_to_csv(_as_seld_labels(rows).transformed(tx.matrix).to_rows())
        got = LabelRows(rows).transformed(tx.matrix)
        assert isinstance(got, LabelRows)
        assert rows_to_csv(got) == want, tx.name
    rows = _single_instance_rows(rng)
    assert rows_to_csv(LabelRows(rows)) == rows_to_csv(_as_seld_labels(rows).to_rows())
    assert LabelRows().transformed(np.eye(3)) == []


def test_augment_config_validation():
    with pytest.raises(ValueError):
        AugmentConfig(p_apply=1.5)
    with pytest.raises(ValueError):
        AugmentConfig(max_shift=-1)
