"""Scene rendering, trajectories, label sampling and the text formats."""

import numpy as np
import pytest

from seldkit import (
    ArrayFormat,
    SceneDescription,
    SourceSpec,
    StftConfig,
    angles_from_unit,
    foa_steering,
    format_scene,
    mic_steering,
    parse_scene,
    render_scene,
    rows_from_csv,
    rows_to_csv,
    tetra_positions,
    unit_vector,
)

from oracles import dense_render_scene
from support import random_scene, single_source_scene


def test_unit_vector_round_trip():
    rng = np.random.default_rng(0)
    az = rng.uniform(-179.9, 179.9, 50)
    el = rng.uniform(-89.9, 89.9, 50)
    back_az, back_el = angles_from_unit(unit_vector(az, el))
    np.testing.assert_allclose(back_az, az, atol=1e-9)
    np.testing.assert_allclose(back_el, el, atol=1e-9)


def test_unit_vector_axes():
    np.testing.assert_allclose(unit_vector(0.0, 0.0), [1, 0, 0], atol=1e-15)
    np.testing.assert_allclose(unit_vector(90.0, 0.0), [0, 1, 0], atol=1e-15)
    np.testing.assert_allclose(unit_vector(0.0, 90.0), [0, 0, 1], atol=1e-15)


def test_foa_steering_components():
    az, el = 40.0, -25.0
    h = foa_steering(az, el)
    a, e = np.radians(az), np.radians(el)
    np.testing.assert_allclose(
        h, [1.0, np.cos(a) * np.cos(e), np.sin(a) * np.cos(e), np.sin(e)], atol=1e-12
    )


def test_mic_steering_reference_channel_and_modulus():
    h = mic_steering(2000.0, 33.0, 12.0, tetra_positions())
    assert h[0] == 1.0 + 0.0j
    np.testing.assert_allclose(np.abs(h), 1.0, atol=1e-12)


def test_trajectory_interpolation_and_wrap():
    src = SourceSpec(
        class_id=0,
        onset=0.0,
        offset=2.0,
        trajectory=[(0.0, 170.0, 0.0), (2.0, -170.0, 20.0)],
    )
    mid = src.direction_at(np.array([1.0]))[0]
    az, el = angles_from_unit(mid)
    # the short way around 180 degrees, not back through 0
    assert az == pytest.approx(180.0, abs=1e-9) or az == pytest.approx(-180.0, abs=1e-9)
    assert el == pytest.approx(10.0, abs=1e-9)


def test_static_trajectory_is_constant():
    src = SourceSpec(class_id=1, onset=0.0, offset=1.0, trajectory=[(0.0, 12.0, 34.0)])
    dirs = src.direction_at(np.linspace(0, 1, 7))
    np.testing.assert_allclose(dirs, np.tile(unit_vector(12.0, 34.0), (7, 1)))


def test_source_validation():
    with pytest.raises(ValueError):
        SourceSpec(class_id=0, onset=1.0, offset=0.5)
    with pytest.raises(ValueError):
        SourceSpec(class_id=0, onset=0.0, offset=1.0, signal="square")
    with pytest.raises(ValueError):
        SceneDescription(ArrayFormat("foa"), duration=0.0, sources=[])
    with pytest.raises(ValueError, match="gain"):
        SourceSpec(class_id=0, onset=0.0, offset=1.0, gain=float("inf"))
    with pytest.raises(ValueError, match="harmonics"):
        SourceSpec(class_id=0, onset=0.0, offset=1.0, signal="tone",
                   params={"harmonics": 2.5})
    with pytest.raises(ValueError, match="distinct times"):
        SourceSpec(class_id=0, onset=0.0, offset=1.0,
                   trajectory=[(0.5, 10.0, 0.0), (0.5, 20.0, 0.0)])
    SourceSpec(class_id=0, onset=0.0, offset=1.0, signal="tone", params={"harmonics": 4})


def test_scene_rejects_duplicate_classes():
    a = SourceSpec(class_id=2, onset=0.0, offset=1.0)
    b = SourceSpec(class_id=2, onset=0.2, offset=0.8)
    with pytest.raises(ValueError, match="per class"):
        SceneDescription(ArrayFormat("foa"), duration=1.0, sources=[a, b])


def test_render_foa_channels_follow_steering():
    scene = single_source_scene("foa", az=57.0, el=-18.0, seed=5, noise_power=0.0)
    spec, _ = render_scene(scene, StftConfig())
    h = foa_steering(57.0, -18.0)
    w = spec.data[0]
    active = np.abs(w) > 1e-9
    assert active.any()
    for m in range(1, 4):
        np.testing.assert_allclose(
            spec.data[m][active], (h[m] * w)[active], atol=1e-12
        )


def test_render_mic_channels_follow_steering():
    scene = single_source_scene("mic", az=-100.0, el=35.0, seed=6, noise_power=0.0)
    spec, _ = render_scene(scene, StftConfig())
    freqs = np.arange(spec.n_bins) * spec.bin_hz
    h = mic_steering(freqs, -100.0, 35.0, tetra_positions())  # (4, F)
    w = spec.data[0]
    active = np.abs(w) > 1e-9
    for m in range(1, 4):
        np.testing.assert_allclose(
            spec.data[m][active], (h[m][None, :] * w)[active], atol=1e-12
        )


def test_render_is_deterministic_per_seed():
    scene = single_source_scene("foa", az=10.0, el=0.0, seed=42, noise_power=1e-3)
    a, labels_a = render_scene(scene, StftConfig())
    b, labels_b = render_scene(scene, StftConfig())
    np.testing.assert_array_equal(a.data, b.data)
    np.testing.assert_array_equal(labels_a.doa, labels_b.doa)
    other = single_source_scene("foa", az=10.0, el=0.0, seed=43, noise_power=1e-3)
    c, _ = render_scene(other, StftConfig())
    assert np.abs(a.data - c.data).max() > 0.0


def test_render_noise_matches_complex_expression():
    # The noise is read in place from the (real, imaginary) draws; it must be
    # bit-identical, sign bits included, to sqrt(p/2) * (d0 + 1j * d1).
    for kind in ("foa", "mic"):
        scene = SceneDescription(fmt=ArrayFormat(kind), duration=0.5, sources=[],
                                 noise_power=1e-3, seed=42)
        spec, _ = render_scene(scene, StftConfig())
        draws = np.random.default_rng([42, 0]).standard_normal((*spec.data.shape, 2))
        want = np.sqrt(1e-3 / 2.0) * (draws[..., 0] + 1j * draws[..., 1])
        np.testing.assert_array_equal(spec.data.view(np.uint64), want.view(np.uint64))


def _scene(kind, sources, noise_power=1e-3, seed=11):
    return SceneDescription(ArrayFormat(kind), duration=1.0, sources=sources,
                            noise_power=noise_power, seed=seed)


def _src(class_id, signal, params, trajectory=((0.0, 30.0, 10.0),), onset=0.1,
         offset=0.9, gain=0.7):
    return SourceSpec(class_id=class_id, onset=onset, offset=offset, signal=signal,
                      gain=gain, params=params, trajectory=list(trajectory))


_ROT = np.array([[0, -1, 0], [1, 0, 0], [0, 0, 1]], dtype=float)
RENDER_CASES = {
    # 30 Hz harmonics on 46.875 Hz bins: 30 and 60 Hz both round to bin 1,
    # 120 and 150 Hz to bin 3.
    "tone-harmonics-share-bins": lambda kind: _scene(
        kind, [_src(0, "tone", {"f0": 30.0, "harmonics": 8})]),
    "chirp-past-nyquist": lambda kind: _scene(
        kind, [_src(1, "chirp", {"f_start": 9000.0, "f_end": 20000.0})]),
    "one-bin-noise-band": lambda kind: _scene(
        kind, [_src(2, "noise", {"f_low": 1500.0, "f_high": 1500.0})]),
    "overlapping-sources": lambda kind: _scene(kind, [
        _src(0, "noise", {"f_low": 300.0, "f_high": 6000.0}),
        _src(1, "tone", {"f0": 440.0, "harmonics": 5}, [(0.0, -60.0, 20.0)], 0.3, 1.0),
        _src(2, "chirp", {"f_start": 500.0, "f_end": 3000.0}, [(0.0, 90.0, -30.0)],
             0.0, 0.6, 1.1),
    ]),
    "crosses-180": lambda kind: _scene(kind, [
        _src(3, "noise", {"f_low": 200.0, "f_high": 8000.0},
             [(0.0, 170.0, 0.0), (1.0, -170.0, 20.0)]),
    ]),
    "re-oriented": lambda kind: random_scene(
        np.random.default_rng(4), kind, duration=1.0).transformed(_ROT),
    "no-ambient-noise": lambda kind: _scene(kind, [
        _src(0, "noise", {"f_low": 300.0, "f_high": 6000.0}),
        _src(1, "tone", {"f0": 30.0, "harmonics": 8}),
        _src(2, "chirp", {"f_start": 9000.0, "f_end": 20000.0}),
    ], noise_power=0.0),
}


@pytest.mark.parametrize("kind", ["foa", "mic"])
@pytest.mark.parametrize("case", sorted(RENDER_CASES))
def test_render_matches_dense_oracle_bit_for_bit(case, kind):
    scene = RENDER_CASES[case](kind)
    cfg = StftConfig()
    spec, _ = render_scene(scene, cfg)
    want = dense_render_scene(scene, cfg)
    assert np.count_nonzero(want) > 0
    np.testing.assert_array_equal(spec.data.view(np.uint64), want.view(np.uint64))


def test_labels_sample_trajectory_at_frame_centers():
    scene = single_source_scene("foa", az=20.0, el=10.0, seed=1, duration=1.0, onset=0.35)
    _, labels = render_scene(scene, StftConfig())
    assert labels.activity.shape == (10, 12)
    # frame centers at 0.05, 0.15, ...; active while center in [onset, offset)
    expected_active = ((np.arange(10) + 0.5) / 10.0 >= 0.35).astype(np.uint8)
    np.testing.assert_array_equal(labels.activity[:, 0], expected_active)
    active_doa = labels.doa[labels.activity[:, 0] == 1, 0]
    np.testing.assert_allclose(
        active_doa, np.tile(unit_vector(20.0, 10.0), (len(active_doa), 1))
    )


def test_labels_transform_matches_scene_orientation():
    rng = np.random.default_rng(7)
    scene = random_scene(rng, "foa", duration=1.0)
    rot = np.array([[0, -1, 0], [1, 0, 0], [0, 0, 1]], dtype=float)
    _, base = render_scene(scene, StftConfig())
    _, turned = render_scene(scene.transformed(rot), StftConfig())
    np.testing.assert_array_equal(turned.activity, base.activity)
    np.testing.assert_array_equal(turned.doa, base.transformed(rot).doa)


def test_scene_file_round_trip_foa():
    rng = np.random.default_rng(8)
    scene = random_scene(rng, "foa", duration=1.5)
    text = format_scene(scene)
    back = parse_scene(text)
    assert back.fmt.kind == "foa"
    assert back.duration == pytest.approx(scene.duration, rel=1e-5)
    assert back.seed == scene.seed
    assert len(back.sources) == len(scene.sources)
    for a, b in zip(scene.sources, back.sources):
        assert (a.class_id, a.signal) == (b.class_id, b.signal)
        assert b.onset == pytest.approx(a.onset, rel=1e-5)
        assert b.gain == pytest.approx(a.gain, rel=1e-5)


def test_scene_file_round_trip_keeps_mic_radius():
    fmt = ArrayFormat("mic", tetra_positions(0.05))
    scene = SceneDescription(
        fmt, 1.0, [SourceSpec(class_id=0, onset=0.0, offset=1.0)], seed=3
    )
    back = parse_scene(format_scene(scene))
    np.testing.assert_allclose(back.fmt.mic_positions, fmt.mic_positions, atol=1e-7)


@pytest.mark.parametrize(
    "text",
    [
        "version=2\nformat=foa\nduration=1\n",
        "version=1\nformat=quad\nduration=1\n",
        "version=1\nformat=foa\n",
        "version=1\nformat=foa\nduration=1\nbogus_key=3\n",
        "version=1\nformat=foa\nduration=1\n[source]\nclass=0\nonset=0\n",
        "version=1\nformat=foa\nduration=1\n[source]\nclass=0\nonset=0\noffset=1\ntrajectory=1:2\n",
    ],
)
def test_malformed_scene_files_rejected(text):
    with pytest.raises(ValueError):
        parse_scene(text)


def test_label_csv_round_trip():
    rows = [(3, 1, 0, -12.5, 4.0), (0, 5, 2, 170.0, -30.0), (3, 0, 1, 0.0, 0.0)]
    text = rows_to_csv(rows)
    assert text.splitlines()[0].startswith("0,5,2")  # sorted by frame, class
    back = rows_from_csv(text)
    assert sorted(back) == sorted(rows)
    with pytest.raises(ValueError):
        rows_from_csv("1,2,3\n")
    for bad in ("-1,0,0,0,0", "0,-3,0,0,0", "0,0,-1,0,0", "0,0,0,nan,0", "0,0,0,0,inf"):
        with pytest.raises(ValueError, match="label line 2"):
            rows_from_csv("0,1,0,10,0\n" + bad + "\n")


def test_label_rows_cover_active_cells_only():
    scene = single_source_scene("foa", az=45.0, el=0.0, seed=2, duration=1.0, onset=0.5)
    _, labels = render_scene(scene, StftConfig())
    rows = labels.to_rows()
    assert len(rows) == int(labels.activity.sum())
    for frame, cls, track, az, el in rows:
        assert labels.activity[frame, cls] == 1
        assert cls == 0 and track == 0
        assert az == pytest.approx(45.0, abs=1e-9)
