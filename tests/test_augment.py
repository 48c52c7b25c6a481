"""Channel swaps, frequency shift, cutout and the augmentation pipeline."""

import numpy as np
import pytest

from seldkit import (
    ArrayFormat,
    AugmentConfig,
    LabelRows,
    StftConfig,
    assemble,
    augment_pipeline,
    channel_swap,
    frequency_shift,
    random_cutout,
    render_scene,
    rows_from_csv,
    rows_to_csv,
    salsa,
    tetra_positions,
    transforms_for,
)

import oracles
from support import assert_rows_turn_alike, random_scene, row_bits, single_source_scene


def test_foa_transform_group():
    txs = transforms_for("foa")
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
    txs = transforms_for("mic")
    assert len(txs) == 8
    perms = [tuple(ArrayFormat("mic").channel_map(t.matrix)[0]) for t in txs]
    assert len(set(perms)) == 8
    assert (0, 1, 2, 3) in perms
    # augment_pipeline draws an index into this list, so the order is pinned.
    assert [t.name for t in txs] == [
        "rot000", "rot000_mirror_zflip", "rot180", "rot180_mirror_zflip",
        "rot090_zflip", "rot090_mirror", "rot270_zflip", "rot270_mirror",
    ]
    for t, perm in zip(txs, perms):
        assert sorted(perm) == [0, 1, 2, 3]
        assert abs(round(np.linalg.det(t.matrix))) == 1


def test_channel_map_foa_turns_the_steering_exactly():
    fmt = ArrayFormat("foa")
    rng = np.random.default_rng(0)
    u = rng.standard_normal((50, 3))
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    f = np.zeros((50, 1))
    for t in transforms_for("foa"):
        perm, sign = fmt.channel_map(t.matrix)
        turned = sign[:, None, None] * fmt.steering(u, f)[perm]
        np.testing.assert_array_equal(turned, fmt.steering(u @ t.matrix.T, f))


def test_channel_map_mic_maps_the_array_onto_itself():
    fmt = ArrayFormat("mic")
    positions = tetra_positions()
    for t in transforms_for("mic"):
        perm, sign = fmt.channel_map(t.matrix)
        assert sign.tolist() == [1, 1, 1, 1]
        # Capsule m takes the channel of the capsule that A maps onto its own.
        np.testing.assert_array_equal(positions[perm] @ t.matrix.T, positions)


def test_channel_map_rejects_a_turn_the_array_does_not_have():
    by_name = {t.name: t.matrix for t in transforms_for("foa")}
    with pytest.raises(ValueError, match="onto itself"):
        ArrayFormat("mic").channel_map(by_name["rot090"])
    triangle = [[0.05, 0.0, 0.0], [0.0, 0.05, 0.0], [-0.03, -0.03, 0.01]]
    with pytest.raises(ValueError, match="onto itself"):
        ArrayFormat("mic", triangle).channel_map(by_name["rot180"])
    c, s = np.cos(np.pi / 4), np.sin(np.pi / 4)
    with pytest.raises(ValueError, match="signed permutation"):
        ArrayFormat("foa").channel_map([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


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
    assert row_bits(out_labels) == row_bits(labels)


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
        assert_rows_turn_alike(swapped_labels, labels2)


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
        assert_rows_turn_alike(swapped_labels, labels2)


def test_mic_turn_matches_the_per_channel_rewrap_exactly():
    # Reference: one output channel at a time, the delay of capsule perm[m]
    # less that of perm[0] (capsule 0's own is 0.0), re-wrapped where non-zero.
    scene = random_scene(np.random.default_rng(13), "mic", duration=0.8, noise_power=1e-4)
    feat = salsa(render_scene(scene, StftConfig())[0], ArrayFormat("mic", speed_of_sound=300.0))
    fmt, cues = ArrayFormat("mic", speed_of_sound=300.0), feat.data[4:].astype(np.float64)
    f_hz = np.arange(feat.meta["compress_start_bin"]) * feat.meta["bin_hz"]
    assert np.count_nonzero(cues) > 1000
    for tx in transforms_for("mic"):
        perm, sign = fmt.channel_map(tx.matrix)
        want = []
        for m in range(1, 4):
            d = (cues[perm[m] - 1] if perm[m] else 0.0) - (
                cues[perm[0] - 1] if perm[0] else 0.0)
            head = d[:, : len(f_hz)]
            cells = np.nonzero((head != 0) & (f_hz > 0))
            f = f_hz[cells[1]]
            phase = -2.0 * np.pi * f * head[cells] / 300.0
            wrapped = np.arctan2(np.sin(phase), np.cos(phase))
            head[cells] = -300.0 * wrapped / (2.0 * np.pi * f)
            want.append(d)
        got = fmt.turn_cues(cues, perm, sign, f_hz)
        assert got.tobytes() == np.array(want).tobytes(), tx.name


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


def test_gcc_swap_commutes_with_rendering_mic():
    # One source and no noise: a turn adds one phase to every capsule, which
    # GCC-PHAT cancels, so the pairs match re-rendering on every lag but the
    # +L/2 edge (_reverse_lags' borrow).
    cfg, fmt = StftConfig(), ArrayFormat("mic")
    scene = single_source_scene(
        "mic", az=40.0, el=-15.0, seed=21, noise_power=0.0, signal="noise"
    )
    spec, labels = render_scene(scene, cfg)
    feat = assemble(spec, "linspecgcc", fmt)
    for tx in transforms_for("mic"):
        swapped, _ = channel_swap(feat, labels, tx)
        direct = assemble(render_scene(scene.transformed(tx.matrix), cfg)[0], "linspecgcc", fmt)
        gap = swapped.data[:, :, :-1] - direct.data[:, :, :-1]
        assert np.abs(gap).max() < 1e-9, tx.name


def test_swap_refuses_a_foa_gcc_tensor():
    # GCC-PHAT gives a cell without phase zero phase whatever the channels'
    # signs, so no foa turn with a sign change has a GCC rearrangement:
    # extract writes no foa gcc tensor, and a swap refuses one from elsewhere.
    scene = single_source_scene("mic", az=30.0, el=0.0, seed=1)
    feat = assemble(render_scene(scene, StftConfig())[0], "linspecgcc", ArrayFormat("mic"))
    feat.meta["format"] = "foa"
    for tx in transforms_for("foa"):
        with pytest.raises(ValueError, match="linspecgcc requires the mic format"):
            channel_swap(feat, None, tx)
    with pytest.raises(ValueError, match="requires the mic format"):
        augment_pipeline(feat, None, np.random.default_rng(0), AugmentConfig(p_apply=1.0))


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
    same, same_labels = augment_pipeline(feat.copy(), labels, np.random.default_rng(1), off)
    np.testing.assert_array_equal(same.data, feat.data)
    assert row_bits(same_labels) == row_bits(labels)
    on = AugmentConfig(p_apply=1.0)
    a, _ = augment_pipeline(feat.copy(), labels, np.random.default_rng(7), on)
    b, _ = augment_pipeline(feat.copy(), labels, np.random.default_rng(7), on)
    np.testing.assert_array_equal(a.data, b.data)
    assert np.any(a.data != feat.data)


def _label_rows(rng, n_frames=20, n_classes=12, n_rows=150):
    """Label rows as read from a CSV, many of one class in a frame among
    them, with the axis and seam angles."""
    az = rng.uniform(-180.0, 180.0, n_rows)
    el = rng.uniform(-90.0, 90.0, n_rows)
    edges = [(180.0, 0.0), (-180.0, 0.0), (90.0, 0.0), (0.0, 90.0), (40.0, -90.0), (0.0, 0.0)]
    az[: len(edges)], el[: len(edges)] = zip(*edges)
    rows = [(int(rng.integers(n_frames)), int(rng.integers(n_classes)), k, a, e)
            for k, (a, e) in enumerate(zip(az, el))]
    return rows_from_csv(rows_to_csv(rows))


def test_label_rows_turn_as_each_row_does():
    # Rows turned one array at a time give the CSV of the rows turned one by
    # one, for every swap of both formats.
    rng = np.random.default_rng(12)
    for tx in transforms_for("foa") + transforms_for("mic"):
        rows = _label_rows(rng)
        want = rows_to_csv(oracles.turned_rows(rows, tx.matrix))
        got = LabelRows(rows).transformed(tx.matrix)
        assert isinstance(got, LabelRows)
        assert rows_to_csv(got) == want, tx.name
    assert LabelRows().transformed(np.eye(3)) == []


def test_augment_config_validation():
    with pytest.raises(ValueError):
        AugmentConfig(p_apply=1.5)
    with pytest.raises(ValueError):
        AugmentConfig(max_shift=-1)
