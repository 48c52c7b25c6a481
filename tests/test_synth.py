"""Scene rendering, trajectories, label sampling and the text formats."""

import errno
import importlib
import json
import os

import numpy as np
import pytest

import seldkit.cli
from seldkit import tensorfile

from seldkit import (
    ArrayFormat,
    SceneDescription,
    SourceSpec,
    StftConfig,
    angles_from_unit,
    format_scene,
    parse_scene,
    render_scene,
    rows_from_csv,
    rows_to_csv,
    tetra_positions,
    unit_vector,
)

import oracles
import support
from oracles import dense_render_scene
from support import assert_rows_turn_alike, random_scene, row_bits, single_source_scene

# The package re-exports the function `stft`, which hides the module.
stft_module = importlib.import_module("seldkit.stft")


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
    h = ArrayFormat("foa").steering(unit_vector(az, el)[None], None)[:, 0, 0]
    a, e = np.radians(az), np.radians(el)
    np.testing.assert_allclose(
        h, [1.0, np.cos(a) * np.cos(e), np.sin(a) * np.cos(e), np.sin(e)], atol=1e-12
    )


def test_mic_steering_reference_channel_and_modulus():
    fmt = ArrayFormat("mic", tetra_positions())
    h = fmt.steering(unit_vector(33.0, 12.0)[None], np.array([[2000.0]]))[:, 0, 0]
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


def test_render_foa_channels_follow_steering():
    scene = single_source_scene("foa", az=57.0, el=-18.0, seed=5, noise_power=0.0)
    spec, _ = render_scene(scene, StftConfig())
    h = ArrayFormat("foa").steering(unit_vector(57.0, -18.0)[None], None)[:, 0, 0]
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
    u = unit_vector(-100.0, 35.0)[None]
    h = ArrayFormat("mic", tetra_positions()).steering(u, freqs[None])[:, 0]  # (4, F)
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
    assert row_bits(labels_a) == row_bits(labels_b)
    other = single_source_scene("foa", az=10.0, el=0.0, seed=43, noise_power=1e-3)
    c, _ = render_scene(other, StftConfig())
    assert np.abs(a.data - c.data).max() > 0.0


def test_render_noise_matches_complex_expression():
    # The noise is read in place from the (real, imaginary) draws; channel j
    # must be bit-identical, sign bits included, to sqrt(p/2) * (d0 + 1j * d1)
    # of its own stream.
    for kind in ("foa", "mic"):
        scene = SceneDescription(fmt=ArrayFormat(kind), duration=0.5, sources=[],
                                 noise_power=1e-3, seed=42)
        spec, _ = render_scene(scene, StftConfig())
        for j, channel in enumerate(spec.data):
            draws = oracles.noise_stream(42, j).standard_normal((*channel.shape, 2))
            want = np.sqrt(1e-3 / 2.0) * (draws[..., 0] + 1j * draws[..., 1])
            np.testing.assert_array_equal(channel.view(np.uint64), want.view(np.uint64))


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
    # Three events of class 4, the first two overlapping in time.
    "same-class-events": lambda kind: _scene(kind, [
        _src(4, "noise", {"f_low": 300.0, "f_high": 6000.0}, onset=0.05, offset=0.55),
        _src(4, "tone", {"f0": 440.0, "harmonics": 3},
             [(0.0, -120.0, 0.0), (1.0, -60.0, 20.0)], 0.3, 0.65),
        _src(4, "chirp", {"f_start": 500.0, "f_end": 3000.0}, [(0.0, 150.0, -30.0)],
             0.75, 1.0),
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


@pytest.mark.parametrize("kind", ["foa", "mic"])
def test_omitted_signal_parameters_render_as_their_defaults_written_out(kind):
    # f_high and f_end default to Nyquist, 12 kHz at the default StftConfig.
    written = {
        "noise": {"f_low": 200.0, "f_high": 12000.0},
        "tone": {"f0": 440.0, "harmonics": 3},
        "chirp": {"f_start": 200.0, "f_end": 12000.0},
    }
    for signal, params in written.items():
        bare, full = (render_scene(_scene(kind, [_src(0, signal, p)]), StftConfig())[0].data
                      for p in ({}, params))
        assert np.count_nonzero(full) > 0
        assert bare.tobytes() == full.tobytes(), signal


# One frame, a size that leaves a ragged last block, and more than T.
BLOCKS = (1, 7, 10_000)
SYNTH_CASES = [
    ("foa", "overlapping-sources"),
    ("mic", "overlapping-sources"),
    ("foa", "re-oriented"),
    ("foa", "no-ambient-noise"),
    ("mic", "no-ambient-noise"),
    ("mic", "chirp-past-nyquist"),
]


def _synth(tmp_path, scene_path):
    out = tmp_path / "out"
    code = seldkit.cli.main(["synth", str(scene_path), "--out", str(out)])
    return code, out


def _scene_file(monkeypatch, tmp_path, scene):
    """scene written to a file, and the scene the CLI reads back from it."""
    path = tmp_path / "scene.txt"
    path.write_text(format_scene(scene))
    # Scene files carry no orientation: the CLI gets it back through its parser.
    read = parse_scene(path.read_text()).transformed(scene.orientation)
    monkeypatch.setattr(seldkit.cli, "parse_scene", lambda text: read)
    return path, read


@pytest.mark.parametrize("kind, case", SYNTH_CASES)
def test_synth_file_matches_dense_oracle_at_every_block_size(monkeypatch, tmp_path, kind, case):
    path, read = _scene_file(monkeypatch, tmp_path, RENDER_CASES[case](kind))
    dense = dense_render_scene(read, StftConfig())
    assert dense.shape[1] > stft_module._BLOCK_FRAMES  # the default splits too
    assert np.count_nonzero(dense) > 0
    want = oracles.tensor_file_bytes(dense.astype(np.complex64))
    for block in BLOCKS:
        monkeypatch.setattr(stft_module, "_BLOCK_FRAMES", block)
        code, out = _synth(tmp_path, path)
        assert code == 0
        assert (out / "scene.ftb").read_bytes() == want, f"block of {block} frames"


SYNTH_OUTPUTS = ("scene.ftb", "scene.manifest.txt", "scene.csv")


@pytest.mark.parametrize("kind, case", [("foa", "re-oriented"), ("mic", "overlapping-sources")])
def test_synth_in_channel_ranges_is_byte_identical(monkeypatch, tmp_path, kind, case):
    path, _ = _scene_file(monkeypatch, tmp_path, RENDER_CASES[case](kind))
    want = None
    for n_ranges in (1, 2, 3, 5):
        # Whatever the CPU count, the process count comes from _cpus.
        monkeypatch.setattr(seldkit.cli, "_cpus", lambda: n_ranges)
        for block in (1, 7, 64):
            monkeypatch.setattr(stft_module, "_BLOCK_FRAMES", block)
            code, out = _synth(tmp_path, path)
            assert code == 0
            got = [(out / name).read_bytes() for name in SYNTH_OUTPUTS]
            if want is None:
                want = got
            assert got == want, f"{n_ranges} processes, blocks of {block} frames"
    assert support.no_children_left()


@pytest.mark.parametrize("bad_channel", [0, 2])
def test_synth_helper_failure_matches_the_serial_run(monkeypatch, tmp_path, capfd, bad_channel):
    # A full disk while one channel's row is written: in this process for
    # channel 0, in a helper for channel 2 whenever there is more than one.
    path, _ = _scene_file(monkeypatch, tmp_path, RENDER_CASES["overlapping-sources"]("mic"))
    put = tensorfile._Appender._put

    def put_or_fail(self, row, piece):
        if row == bad_channel:
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        put(self, row, piece)

    monkeypatch.setattr(tensorfile._Appender, "_put", put_or_fail)
    results = {}
    for n_ranges in (1, 2, 3, 5):
        monkeypatch.setattr(seldkit.cli, "_cpus", lambda: n_ranges)
        code, out = _synth(tmp_path, path)
        captured = capfd.readouterr()
        results[n_ranges] = (code, captured.out, captured.err)
        assert not out.exists()
        assert support.no_children_left()
    assert results[1][0] == 2
    assert "No space left on device" in results[1][2]
    assert all(r == results[1] for r in results.values()), results


def _noise_statistics(data, power):
    """Assert each channel's mean cell power is within 3 % of power and every
    cross-channel correlation is below 0.01 in magnitude."""
    cells = data.reshape(len(data), -1)
    assert cells.shape[1] >= 100_000
    mean_power = np.mean(np.abs(cells) ** 2, axis=1)
    np.testing.assert_allclose(mean_power, power, rtol=0.03)
    corr = cells @ cells.conj().T / cells.shape[1] / np.sqrt(np.outer(mean_power, mean_power))
    worst = np.abs(corr[~np.eye(len(cells), dtype=bool)]).max()
    assert worst < 0.01, f"cross-channel correlation {worst:.3g}"


def _noise_scene(kind):
    return SceneDescription(ArrayFormat(kind), duration=10.0, sources=[], noise_power=1e-3, seed=7)


@pytest.mark.parametrize("kind", ["foa", "foa-re-oriented", "mic"])
def test_render_noise_is_white_and_independent_across_channels(kind):
    scene = _noise_scene(kind[:3])
    if kind == "foa-re-oriented":
        scene = scene.transformed(_ROT)
    spec, _ = render_scene(scene, StftConfig())
    _noise_statistics(spec.data, 1e-3)


def test_noise_statistics_reject_one_stream_for_every_channel(monkeypatch):
    # Every output channel reads noise channel 0's stream.
    monkeypatch.setattr(ArrayFormat, "channel_map",
                        lambda self, matrix: (np.zeros(4, int), np.ones(4, int)))
    spec, _ = render_scene(_noise_scene("foa"), StftConfig())
    with pytest.raises(AssertionError, match="cross-channel correlation"):
        _noise_statistics(spec.data, 1e-3)


@pytest.mark.parametrize(
    "params", [{"f0": 13000.0}, {"f_low": 1000.0, "f_high": 1010.0}], ids=["tone", "noise"]
)
def test_synth_scene_failing_validation_leaves_no_file(tmp_path, capsys, params):
    signal = "tone" if "f0" in params else "noise"
    scene = _scene("foa", [_src(0, signal, params)])
    path = tmp_path / "scene.txt"
    path.write_text(format_scene(scene))
    (tmp_path / "out").mkdir()
    code, out = _synth(tmp_path, path)
    assert code == 3
    assert "source 0" in capsys.readouterr().err
    assert list(out.iterdir()) == []


@pytest.mark.skipif(not support.HAS_VMHWM, reason="needs /proc/self/status")
def test_synth_peak_memory_is_flat_in_scene_length(tmp_path):
    sources = [
        _src(0, "noise", {"f_low": 300.0, "f_high": 6000.0}, onset=1.0, offset=9.0),
        _src(1, "tone", {"f0": 440.0, "harmonics": 5}, onset=5.0, offset=15.0),
        _src(2, "chirp", {"f_start": 500.0, "f_end": 3000.0}, onset=20.0, offset=30.0),
    ]
    growth = {}
    for seconds in (60, 300):
        scene = SceneDescription(ArrayFormat("foa"), duration=float(seconds),
                                 sources=sources, noise_power=1e-3, seed=5)
        path = tmp_path / f"scene{seconds}.txt"
        path.write_text(format_scene(scene))
        code, growth[seconds] = support.child_peak_growth(
            ["synth", path, "--out", tmp_path / "out"]
        )
        assert code == 0
        (tmp_path / "out" / f"scene{seconds}.ftb").unlink()
    assert growth[300] < growth[60] + support.FLAT_MARGIN_BYTES, growth


@pytest.mark.skipif(not support.HAS_VMHWM, reason="needs /proc/self/status")
def test_render_image_peak_memory_is_below_the_tensor(tmp_path):
    scene = SceneDescription(ArrayFormat("foa"), duration=60.0, sources=[
        _src(0, "noise", {"f_low": 300.0, "f_high": 6000.0}, onset=1.0, offset=30.0),
    ], noise_power=1e-3, seed=5)
    path = tmp_path / "scene.txt"
    path.write_text(format_scene(scene))
    code, out = _synth(tmp_path, path)
    assert code == 0
    tensor = out / "scene.ftb"
    code, growth = support.child_peak_growth(["render-image", tensor, "--channel", "2"])
    assert code == 0
    assert (out / "scene.ch2.ppm").exists()
    assert growth < tensor.stat().st_size, growth / tensor.stat().st_size


def test_labels_sample_trajectory_at_frame_centers():
    scene = single_source_scene("foa", az=20.0, el=10.0, seed=1, duration=1.0, onset=0.35)
    _, rows = render_scene(scene, StftConfig())
    # frame centers at 0.05, 0.15, ...; active while center in [onset, offset)
    assert [r[:3] for r in rows] == [(t, 0, 0) for t in range(3, 10)]
    doa = unit_vector([r[3] for r in rows], [r[4] for r in rows])
    np.testing.assert_allclose(doa, np.tile(unit_vector(20.0, 10.0), (len(rows), 1)))


def test_labels_transform_matches_scene_orientation():
    rng = np.random.default_rng(7)
    scene = random_scene(rng, "foa", duration=1.0)
    rot = np.array([[0, -1, 0], [1, 0, 0], [0, 0, 1]], dtype=float)
    _, base = render_scene(scene, StftConfig())
    _, turned = render_scene(scene.transformed(rot), StftConfig())
    assert_rows_turn_alike(base.transformed(rot), turned)


@pytest.mark.parametrize("kind", ["foa", "mic"])
@pytest.mark.parametrize("case", ["random", "re-oriented", "same-class-events", "crosses-180"])
def test_label_rows_match_oracle_bit_for_bit(case, kind):
    if case == "random":
        scene = random_scene(np.random.default_rng(9), kind, max_sources=5)
    else:
        scene = RENDER_CASES[case](kind)
    _, rows = render_scene(scene, StftConfig())
    want = oracles.label_rows(scene)
    assert len(want) > 0
    assert row_bits(rows) == row_bits(want)


@pytest.mark.parametrize("kind", ["foa", "mic"])
def test_scene_holds_many_events_of_one_class(tmp_path, capsys, kind):
    scene = RENDER_CASES["same-class-events"](kind)
    back = parse_scene(format_scene(scene))
    assert back.sources == scene.sources
    assert (back.fmt.kind, back.duration, back.noise_power, back.seed) == (
        kind, scene.duration, scene.noise_power, scene.seed)
    path = tmp_path / "scene.txt"
    path.write_text(format_scene(scene))
    code, out = _synth(tmp_path, path)
    assert code == 0
    want = oracles.tensor_file_bytes(dense_render_scene(back, StftConfig()).astype(np.complex64))
    assert (out / "scene.ftb").read_bytes() == want
    rows = rows_from_csv((out / "scene.csv").read_text())
    # Label frames 3 and 4 hold both overlapping events, as tracks 0 and 1.
    assert [r[:3] for r in rows if r[0] == 4] == [(4, 4, 0), (4, 4, 1)]
    assert {r[2] for r in rows} == {0, 1, 2}
    capsys.readouterr()
    csv = str(out / "scene.csv")
    assert seldkit.cli.main(["eval", "--pred", csv, "--ref", csv]) == 0
    report = json.loads(capsys.readouterr().out.splitlines()[0])
    assert (report["error_rate"], report["f_score"]) == (0.0, 1.0)
    assert (report["localization_error_deg"], report["localization_recall"]) == (0.0, 1.0)


def test_scene_rejects_orientation_that_is_not_a_signed_permutation():
    # Ambient noise is re-oriented by moving whole channels, which only a
    # signed permutation of the axes can do.
    c = np.sqrt(0.5)
    turn45 = np.array([[c, -c, 0.0], [c, c, 0.0], [0.0, 0.0, 1.0]])
    scene = random_scene(np.random.default_rng(7), "foa", duration=1.0)
    with pytest.raises(ValueError, match="signed permutation"):
        SceneDescription(scene.fmt, scene.duration, scene.sources, orientation=turn45)
    with pytest.raises(ValueError, match="signed permutation"):
        scene.transformed(turn45)
    with pytest.raises(ValueError, match="signed permutation"):
        scene.transformed(2 * np.eye(3))
    flip = np.diag([1.0, -1.0, -1.0])
    assert np.array_equal(scene.transformed(flip).orientation, flip)


def test_scene_file_round_trip_foa():
    # Every number, and the capsules of a mic array, read back exactly,
    # however many digits they have.
    rng = np.random.default_rng(8)
    scene = random_scene(rng, "foa", duration=1.23456789, noise_power=0.00123456789)
    back = parse_scene(format_scene(scene))
    assert back.fmt.kind == "foa"
    assert (back.duration, back.noise_power, back.seed) == (
        scene.duration, scene.noise_power, scene.seed
    )
    assert len(back.sources) == len(scene.sources)
    for a, b in zip(scene.sources, back.sources):
        assert (a.class_id, a.signal) == (b.class_id, b.signal)
        assert (b.onset, b.offset, b.gain) == (a.onset, a.offset, a.gain)
        assert b.params == a.params
        assert b.trajectory == a.trajectory
    scene.fmt = ArrayFormat("mic", tetra_positions(0.0421234567))
    back = parse_scene(format_scene(scene))
    np.testing.assert_array_equal(back.fmt.mic_positions, scene.fmt.mic_positions)


def test_scene_file_round_trip_keeps_mic_radius():
    fmt = ArrayFormat("mic", tetra_positions(0.05))
    scene = SceneDescription(
        fmt, 1.0, [SourceSpec(class_id=0, onset=0.0, offset=1.0)], seed=3
    )
    back = parse_scene(format_scene(scene))
    np.testing.assert_allclose(back.fmt.mic_positions, fmt.mic_positions, atol=1e-7)


def test_scene_file_refuses_a_mic_array_it_cannot_hold():
    # mic_radius is all a scene file says of the array, so a 4-capsule cross
    # of radius 5 cm would come back as a tetrahedron.
    cross = 0.05 * np.array([[1.0, 0, 0], [0, 1, 0], [-1, 0, 0], [0, -1, 0]])
    six = 0.05 * np.vstack([np.eye(3), -np.eye(3)])
    for positions in (cross, six, tetra_positions(0.05) * [1, 1, 1.001]):
        scene = SceneDescription(ArrayFormat("mic", positions), 1.0,
                                 [SourceSpec(class_id=0, onset=0.0, offset=1.0)])
        with pytest.raises(ValueError, match="tetrahedral"):
            format_scene(scene)


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
    assert rows_from_csv(f"{2**63 - 1},0,0,0,0\n") == [(2**63 - 1, 0, 0, 0.0, 0.0)]
    with pytest.raises(ValueError):
        rows_from_csv("1,2,3\n")
    # Indices that are not integers or do not fit in int64 are refused too:
    # 2**63 once scored as a garbage cell, and a header line was refused
    # without its line number.
    for bad in ("-1,0,0,0,0", "0,-3,0,0,0", "0,0,-1,0,0", "0,0,0,nan,0", "0,0,0,0,inf",
                "frame,class,track,azimuth,elevation", "1.5,0,0,0,0", "0,1e3,0,0,0",
                "0,0,0,x,0", f"{2**63},0,0,0,0", f"0,0,{2**64 + 1},0,0"):
        with pytest.raises(ValueError, match="label line 2"):
            rows_from_csv("0,1,0,10,0\n" + bad + "\n")


def test_label_rows_cover_active_cells_only():
    scene = single_source_scene("foa", az=45.0, el=0.0, seed=2, duration=1.0, onset=0.5)
    _, rows = render_scene(scene, StftConfig())
    # One row for each label frame whose center lies in [0.5, 1.0).
    assert [r[0] for r in rows] == [5, 6, 7, 8, 9]
    for frame, cls, track, az, el in rows:
        assert cls == 0 and track == 0
        assert az == pytest.approx(45.0, abs=1e-9)
