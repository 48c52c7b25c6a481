"""Command-line driver: happy paths, exit codes and file outputs."""

import errno
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import seldkit
from seldkit import (
    STD_FLOOR,
    ArrayFormat,
    AudioClip,
    ChannelStats,
    FeatureTensor,
    PipelineConfig,
    StatsAccumulator,
    StftConfig,
    apply_stats,
    channel_swap,
    parse_scene,
    random_cutout,
    read_manifest,
    read_tensor,
    render_scene,
    rows_from_csv,
    rows_to_csv,
    transforms_for,
    unit_vector,
)
from seldkit.cli import main, read_wav
from seldkit.tensorfile import read_feature, write_feature, write_feature_manifest, write_tensor
from seldkit.wavio import WavReader

import support

SCENE = """\
version=1
format=foa
duration=1.2
seed=5
noise_power=0.0001
[source]
class=2
onset=0.2
offset=1.0
gain=1.0
signal=noise
f_low=300
f_high=7000
trajectory=0:40:10, 1.2:60:10
"""


def _wav(path, seed=0, channels=4, seconds=0.5, rate=24000):
    rng = np.random.default_rng(seed)
    samples = 0.1 * rng.standard_normal((channels, int(seconds * rate)))
    support.write_wav_blocks(path, rate, channels, [samples])
    return path


@pytest.fixture()
def corpus(tmp_path):
    d = tmp_path / "wavs"
    d.mkdir()
    _wav(d / "a.wav", seed=1)
    _wav(d / "b.wav", seed=2)
    return d


def test_extract_writes_tensor_and_manifest(corpus, tmp_path, capsys):
    out = tmp_path / "feat"
    code = main(["extract", str(corpus), "--format", "foa", "--feature", "salsa",
                 "--out", str(out)])
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 2
    tensor = read_tensor(out / "a.ftb")
    assert tensor.dtype == np.float32
    assert tensor.shape[0] == 7
    assert tensor.shape[2] == 200
    manifest = read_manifest(out / "a.manifest.txt")
    assert manifest["kind"] == "feature"
    assert manifest["feature"] == "salsa"
    assert manifest["format"] == "foa"
    assert manifest["channel_roles"] == "spec,spec,spec,spec,spatial,spatial,spatial"
    assert int(manifest["sample_rate"]) == 24000
    assert len(manifest["config"]) == 16


def test_extract_exit_codes(tmp_path, corpus):
    empty = tmp_path / "empty"
    empty.mkdir()
    out = str(tmp_path / "o")
    base = ["--format", "foa", "--feature", "salsa", "--out", out]
    assert main(["extract", str(empty)] + base) == 2
    assert main(["extract", str(tmp_path / "nope.wav")] + base) == 2
    assert main(["extract", str(corpus), "--format", "mic", "--feature",
                 "linspeciv", "--out", out]) == 3
    bad = tmp_path / "three.wav"
    _wav(bad, channels=3)
    assert main(["extract", str(bad)] + base) == 3


def test_extract_mic_salsa_rejects_channel_count_mismatch(tmp_path, capsys):
    # The default mic array has 4 capsules, as foa has 4 channels.
    wav = _wav(tmp_path / "six.wav", channels=6)
    out = tmp_path / "o"
    for fmt in ("mic", "foa"):
        assert main(["extract", str(wav), "--format", fmt, "--feature", "salsa",
                     "--out", str(out)]) == 3
        assert f"{fmt} input must have 4 channels, got 6" in capsys.readouterr().err
    assert not list(out.glob("*.ftb"))


@pytest.mark.parametrize("feature", ["melspecgcc", "linspecgcc"])
def test_extract_mic_gcc_rejects_channel_count_mismatch(tmp_path, capsys, feature):
    wav = _wav(tmp_path / "six.wav", channels=6)
    out = tmp_path / "o"
    assert main(["extract", str(wav), "--format", "mic", "--feature", feature,
                 "--out", str(out)]) == 3
    assert "mic input must have 4 channels, got 6" in capsys.readouterr().err
    assert not list(out.glob("*.ftb"))


@pytest.mark.parametrize("feature", ["melspecgcc", "linspecgcc"])
def test_extract_refuses_foa_gcc_kinds(tmp_path, capsys, feature):
    # A foa turn that negates a channel has no GCC rearrangement, so augment
    # could not swap such a tensor; extract writes none.
    wav = _wav(tmp_path / "four.wav")
    out = tmp_path / "o"
    assert main(["extract", str(wav), "--format", "foa", "--feature", feature,
                 "--out", str(out)]) == 3
    assert capsys.readouterr().err == f"seldkit: {feature} requires the mic format\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "setting",
    ["cov_half_window=-1", "rms_half_window=-1", "rms_half_window=-2",
     "noise_delta_up=-0.01", "noise_delta_up=nan", "noise_delta_up=inf",
     "noise_delta_down=2", "noise_delta_down=1", "noise_delta_down=-0.01",
     "noise_delta_down=nan", "alpha_mag=nan", "beta_ratio=nan", "f_low=nan",
     "f_high_foa=nan", "alpha_mag=inf", "noise_init_frames=0",
     "noise_init_frames=-4", "speed_of_sound=0", "speed_of_sound=-343",
     "speed_of_sound=nan", "speed_of_sound=inf"],
)
def test_extract_rejects_selection_settings_out_of_range(tmp_path, capsys, setting):
    # Each one once gave features without error (no cues, a floor that
    # turns negative, or a floor seeded by one frame) or a traceback.
    wav = _wav(tmp_path / "noise.wav", seconds=1.0)
    # speed_of_sound is the array format's, which both formats check.
    for fmt in ("foa", "mic") if setting.startswith("speed_of_sound") else ("foa",):
        out = tmp_path / fmt
        assert main(["extract", str(wav), "--format", fmt, "--feature", "salsa",
                     "--out", str(out), "--set", setting]) == 3
        err = capsys.readouterr().err
        # f_high_foa reaches the selection config as the foa format's f_high.
        assert setting.split("=")[0].removesuffix("_foa") in err and "Traceback" not in err
        assert not out.exists()


@pytest.mark.parametrize(
    "setting, feature",
    [(f"{key}={value}", "salsa")
     for key in ("hop_length", "window_length", "fft_size", "compress_factor")
     for value in (0, -1)]
    + [(f"n_mels={value}", feature) for value in (0, -1) for feature in ("melspeciv", "melspecgcc")]
    + [("compress_start_bin=-1", "salsa"), ("log_floor=-1", "salsa"),
       ("log_floor=nan", "linspeciv"), ("log_floor=inf", "salsa")],
)
def test_extract_writes_no_out_directory_on_a_bad_setting(tmp_path, capsys, setting, feature):
    # Each one once left an empty --out directory; log_floor=nan and inf
    # exited 4 ("non-finite values") for what is a bad setting.
    fmt = "mic" if feature.endswith("gcc") else "foa"
    wav = _wav(tmp_path / "noise.wav")
    out = tmp_path / "out"
    assert main(["extract", str(wav), "--format", fmt, "--feature", feature,
                 "--out", str(out), "--set", setting]) == 3
    assert "Traceback" not in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("case", ["short", "channels", "header", "rate", "nan", "inf"])
def test_extract_writes_no_out_directory_on_a_bad_input(monkeypatch, tmp_path, capsys, case):
    # A non-finite sample is found while blocks are written, once the --out
    # directory exists; it once left that directory behind, empty.
    wav = tmp_path / "in.wav"
    if case == "short":  # shorter than one window
        _wav(wav, seconds=0.01)
    elif case == "channels":
        _wav(wav, channels=3)
    elif case == "header":
        wav.write_bytes(b"RIFF\x00\x00\x00\x00WAVEjunk")
    elif case == "rate":
        _wav(wav, rate=16000)
    else:  # a float WAV, one sample late enough for the second range to read
        samples = 0.1 * np.ones((4, 12000))
        samples[1, -100] = float(case)
        support.write_wav_blocks(wav, 24000, 4, [samples])
    made = tmp_path / "made"
    for n_ranges in (1, 2):
        monkeypatch.setattr(seldkit.cli, "_cpus", lambda: n_ranges)
        code = main(["extract", str(wav), "--format", "foa", "--feature", "salsa",
                     "--out", str(made / "out")])
        assert code == {"header": 2, "nan": 4, "inf": 4}.get(case, 3)
        assert "Traceback" not in capsys.readouterr().err
        assert not made.exists()
    assert support.no_children_left()


def test_extract_keeps_earlier_outputs_when_a_later_input_fails(tmp_path):
    good, bad = _wav(tmp_path / "a.wav"), tmp_path / "b.wav"
    samples = 0.1 * np.ones((4, 12000))
    samples[0, 100] = np.nan
    support.write_wav_blocks(bad, 24000, 4, [samples])
    out = tmp_path / "out"
    assert main(["extract", str(good), str(bad), "--format", "foa", "--feature", "salsa",
                 "--out", str(out)]) == 4
    assert sorted(p.name for p in out.iterdir()) == ["a.ftb", "a.manifest.txt"]


@pytest.mark.parametrize("command", ["synth", "augment"])
def test_synth_and_augment_reject_a_speed_of_sound_out_of_range(tmp_path, capsys, command):
    # A mic salsa manifest edited to speed_of_sound=0.0 once made augment
    # exit 0 with NaN cells wherever a swap re-wrapped a delay cue.
    out = tmp_path / "out"
    if command == "synth":
        scene = tmp_path / "scene.txt"
        scene.write_text(SCENE.replace("format=foa", "format=mic"))
        argv = ["synth", str(scene), "--out", str(out), "--set", "speed_of_sound=0"]
    else:
        feat_dir = tmp_path / "feat"
        assert main(["extract", str(_wav(tmp_path / "m.wav")), "--format", "mic",
                     "--feature", "salsa", "--out", str(feat_dir)]) == 0
        manifest = feat_dir / "m.manifest.txt"
        text = manifest.read_text()
        assert "speed_of_sound=343.0\n" in text
        manifest.write_text(text.replace("speed_of_sound=343.0\n", "speed_of_sound=0.0\n"))
        argv = ["augment", str(feat_dir), "--out", str(out), "--set", "p_apply=1"]
    capsys.readouterr()
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert "speed_of_sound must be finite and > 0" in err and "Traceback" not in err
    assert not out.exists()


def test_extract_sample_rate_gate(tmp_path):
    wav = _wav(tmp_path / "hi.wav", rate=32000)
    out = str(tmp_path / "o")
    base = ["--format", "foa", "--feature", "salsa", "--out", out]
    assert main(["extract", str(wav)] + base) == 3
    assert main(["extract", str(wav), "--allow-any-rate"] + base) == 0
    manifest = read_manifest(tmp_path / "o" / "hi.manifest.txt")
    assert int(manifest["sample_rate"]) == 32000


def test_extract_rejects_non_finite_audio(tmp_path):
    samples = 0.1 * np.ones((4, 12000))
    samples[0, 100] = np.nan
    support.write_wav_blocks(tmp_path / "nan.wav", 24000, 4, [samples])
    code = main(["extract", str(tmp_path / "nan.wav"), "--format", "foa",
                 "--feature", "salsa", "--out", str(tmp_path / "o")])
    assert code == 4


def test_wav_round_trip(tmp_path):
    clip = AudioClip(np.linspace(-0.5, 0.5, 64).reshape(2, 32), 24000)
    support.write_wav_blocks(tmp_path / "w.wav", 24000, 2, [clip.samples])
    back = read_wav(tmp_path / "w.wav")
    assert back.sample_rate == 24000
    np.testing.assert_allclose(back.samples, clip.samples, atol=1e-7)


def test_read_wav_extensible_and_truncated_files(tmp_path):
    samples = np.linspace(-0.9, 0.9, 4 * 300).reshape(4, 300)
    wav = tmp_path / "ext.wav"
    support.write_wav_blocks(wav, 16000, 4, [samples], "int24", extensible=True)
    clip = read_wav(wav)
    assert clip.sample_rate == 16000
    np.testing.assert_allclose(clip.samples, samples, atol=2.0**-23)
    with WavReader(wav) as reader:
        for start in (-1, 301):
            with pytest.raises(ValueError, match="outside 0..300"):
                reader.read(start, 1)
        # Each read names its first frame, so reads out of order give the same samples.
        later, earlier = reader.read(200, 150), reader.read(0, 200)
        assert np.concatenate([earlier, later], axis=1).tobytes() == clip.samples.tobytes()
        assert reader.read(300, 5).shape == (4, 0)
    # A data chunk cut short keeps the whole sample frames present.
    cut = tmp_path / "cut.wav"
    cut.write_bytes(wav.read_bytes()[: -(3 * 4 * 10 + 5)])
    assert read_wav(cut).samples.tobytes() == clip.samples[:, :289].tobytes()


def test_extract_rejects_unreadable_wav_headers(tmp_path):
    out = tmp_path / "o"
    base = ["--format", "foa", "--feature", "salsa", "--out", str(out)]
    bad = tmp_path / "bad.wav"
    for payload in (b"", b"RIFF\0\0\0\0WAVEfmt ", b"not a wav file at all"):
        bad.write_bytes(payload)
        assert main(["extract", str(bad)] + base) == 2
    wav = _wav(tmp_path / "w.wav")
    data = bytearray(wav.read_bytes())
    data[20:22] = (0x55).to_bytes(2, "little")  # MPEG format tag
    bad.write_bytes(bytes(data))
    assert main(["extract", str(bad)] + base) == 2
    assert not list(out.glob("*"))


def test_synth_outputs_and_determinism(tmp_path, capsys):
    scene = tmp_path / "scene.txt"
    scene.write_text(SCENE)
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["synth", str(scene), "--out", str(a)]) == 0
    assert main(["synth", str(scene), "--out", str(b)]) == 0
    capsys.readouterr()
    assert (a / "scene.ftb").read_bytes() == (b / "scene.ftb").read_bytes()
    assert (a / "scene.csv").read_bytes() == (b / "scene.csv").read_bytes()
    spec = read_tensor(a / "scene.ftb")
    assert spec.dtype == np.complex64
    assert spec.shape == (4, 95, 257)
    manifest = read_manifest(a / "scene.manifest.txt")
    assert manifest["kind"] == "stft"
    assert (a / "scene.csv").read_text().count("\n") == 8  # frames 2..9, class 2


def test_synth_error_codes(tmp_path):
    assert main(["synth", str(tmp_path / "missing.txt"), "--out", str(tmp_path)]) == 2
    bad = tmp_path / "bad.txt"
    bad.write_text(SCENE.replace("duration=1.2", "duration=0"))
    assert main(["synth", str(bad), "--out", str(tmp_path)]) == 3


TONE_SCENE = SCENE.replace("signal=noise\nf_low=300\nf_high=7000",
                           "signal=tone\nf0=440\nharmonics=3")
CHIRP_SCENE = SCENE.replace("signal=noise\nf_low=300\nf_high=7000",
                            "signal=chirp\nf_start=500\nf_end=3000")


@pytest.mark.parametrize(
    "text, message",
    [
        (SCENE.replace("gain=1.0", "gain=nan"), "source 0: gain"),
        (CHIRP_SCENE.replace("f_start=500", "f_start=nan"), "source 0: f_start"),
        (SCENE.replace("0:40:10", "0:nan:10"), "source 0: trajectory"),
        (SCENE.replace("onset=0.2", "onset=nan"), "source 0: onset"),
        (SCENE.replace("noise_power=0.0001", "noise_power=nan"), "noise_power"),
        (SCENE.replace("duration=1.2", "duration=inf"), "duration"),
        (SCENE.replace("format=foa", "format=mic\nmic_radius=nan"), "mic_radius"),
        (TONE_SCENE.replace("harmonics=3", "harmonics=0"), "source 0: harmonics"),
        (TONE_SCENE.replace("harmonics=3", "harmonics=2.7"), "source 0: harmonics"),
        (TONE_SCENE.replace("f0=440", "f0=13000"), "source 0: tone f0"),
        (SCENE.replace("1.2:60:10", "0:60:10"), "source 0: trajectory"),
        (SCENE.replace("f_low=300\nf_high=7000", "f_low=1000\nf_high=1010"),
         "source 0: noise band"),
    ],
    ids=["gain-nan", "chirp-f_start-nan", "azimuth-nan", "onset-nan",
         "noise_power-nan", "duration-inf", "mic_radius-nan", "harmonics-0",
         "harmonics-fraction", "f0-above-nyquist", "knots-same-time", "noise-band-no-bin"],
)
def test_synth_rejects_unrenderable_scene_values(tmp_path, capsys, text, message):
    scene = tmp_path / "scene.txt"
    scene.write_text(text)
    out = tmp_path / "o"
    assert main(["synth", str(scene), "--out", str(out)]) == 3
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)])
def test_outputs_get_the_mode_open_gives_under_the_umask(tmp_path, umask, mode):
    scene = tmp_path / "scene.txt"
    scene.write_text(SCENE)
    old = os.umask(umask)
    try:
        assert main(["synth", str(scene), "--out", str(tmp_path / "o")]) == 0
    finally:
        os.umask(old)
    names = sorted(p.name for p in (tmp_path / "o").iterdir())
    assert names == ["scene.csv", "scene.ftb", "scene.manifest.txt"]
    for name in names:
        assert (tmp_path / "o" / name).stat().st_mode & 0o777 == mode, name


def test_outputs_get_their_mode_without_asking_for_the_umask(tmp_path, monkeypatch):
    # Reading the umask means setting it: a file another thread creates
    # meanwhile would get no umask at all.
    def no_umask(mask):
        raise AssertionError("os.umask was called")

    scene = tmp_path / "scene.txt"
    scene.write_text(SCENE)
    old = os.umask(0o027)
    try:
        monkeypatch.setattr(os, "umask", no_umask)
        assert main(["synth", str(scene), "--out", str(tmp_path / "o")]) == 0
    finally:
        monkeypatch.undo()
        os.umask(old)
    names = sorted(p.name for p in (tmp_path / "o").iterdir())
    assert names == ["scene.csv", "scene.ftb", "scene.manifest.txt"]
    for name in names:
        assert (tmp_path / "o" / name).stat().st_mode & 0o777 == 0o640, name


def test_synth_name_override(tmp_path):
    scene = tmp_path / "scene.txt"
    scene.write_text(SCENE)
    assert main(["synth", str(scene), "--out", str(tmp_path / "o"),
                 "--name", "clip7"]) == 0
    assert (tmp_path / "o" / "clip7.ftb").exists()


def test_eval_aggregate_only(capsys):
    assert main(["eval", "--aggregate-only", "0.404", "0.724", "12.5", "0.727"]) == 0
    assert capsys.readouterr().out.strip() == "0.255611"


NEGATIVE_VALUES = ["-1e3", "-1.5e-2", "-inf"]


@pytest.mark.parametrize("position", range(4))
@pytest.mark.parametrize("value", NEGATIVE_VALUES + ["nan", "inf"])
def test_eval_aggregate_only_takes_negative_exponents_and_infinity(capsys, position, value):
    numbers = ["0.4", "0.7", "10", "0.7"]
    numbers[position] = value
    assert main(["eval", "--aggregate-only", *numbers]) == 3
    err = capsys.readouterr().err
    # Parsed as a number, then refused by the range check, not by argparse.
    assert "usage error" not in err and "must be" in err, err


def test_eval_perfect_prediction(tmp_path, capsys):
    rows = rows_to_csv([(0, 1, 0, 30.0, 10.0), (1, 1, 0, 35.0, 10.0)])
    pred = tmp_path / "pred"
    ref = tmp_path / "ref"
    pred.mkdir()
    ref.mkdir()
    (pred / "clip.csv").write_text(rows)
    (ref / "clip.csv").write_text(rows)
    assert main(["eval", "--pred", str(pred), "--ref", str(ref)]) == 0
    out = capsys.readouterr().out
    assert '"aggregate": 0.0' in out
    assert out.strip().splitlines()[-1].split() == ["aggregate", "0"]


def test_eval_nine_same_class_instances(tmp_path, capsys):
    # More instances in one cell than the exhaustive matcher enumerates.
    ref_rows = [(0, 3, k, -160.0 + 40.0 * k, 0.0) for k in range(9)]
    pred_rows = [(f, c, k, az + 5.0, el) for f, c, k, az, el in ref_rows]
    (tmp_path / "pred.csv").write_text(rows_to_csv(pred_rows))
    (tmp_path / "ref.csv").write_text(rows_to_csv(ref_rows))
    assert main(["eval", "--pred", str(tmp_path / "pred.csv"),
                 "--ref", str(tmp_path / "ref.csv")]) == 0
    report = json.loads(capsys.readouterr().out.splitlines()[0])
    assert report["localization_error_deg"] == pytest.approx(5.0, abs=1e-9)
    assert report["localization_recall"] == 1.0


def test_eval_error_codes(tmp_path):
    pred = tmp_path / "pred"
    pred.mkdir()
    (pred / "clip.csv").write_text(rows_to_csv([(0, 1, 0, 0.0, 0.0)]))
    assert main(["eval", "--pred", str(pred), "--ref", str(tmp_path / "ref")]) == 2
    assert main(["eval", "--pred", str(pred)]) == 3


@pytest.mark.parametrize(
    "setting",
    ["doa_threshold_deg=nan", "doa_threshold_deg=inf", "segment_seconds=inf",
     "segment_seconds=nan", "segment_seconds=0.01"],
)
def test_eval_rejects_metrics_settings_out_of_range(tmp_path, capsys, setting):
    # doa_threshold_deg=nan once scored a perfect prediction as F = 0 with
    # exit 0, and segment_seconds=inf died with an OverflowError traceback.
    csv = tmp_path / "clip.csv"
    csv.write_text(rows_to_csv([(0, 1, 0, 30.0, 10.0)]))
    assert main(["eval", "--pred", str(csv), "--ref", str(csv), "--set", setting]) == 3
    captured = capsys.readouterr()
    assert setting.split("=")[0] in captured.err and "Traceback" not in captured.err
    assert captured.out == ""


@pytest.mark.parametrize(
    "pred_rows",
    [
        [(0, 1, 0, float("nan"), 10.0)],  # shares a cell with the reference
        [(0, 1, 0, 30.0, 10.0), (4, 7, 0, 30.0, float("nan"))],  # a cell of its own
    ],
)
def test_eval_rejects_non_finite_angles(tmp_path, capsys, pred_rows):
    (tmp_path / "pred.csv").write_text(
        "\n".join(",".join(str(v) for v in row) for row in pred_rows) + "\n"
    )
    (tmp_path / "ref.csv").write_text(rows_to_csv([(0, 1, 0, 30.0, 10.0)]))
    code = main(["eval", "--pred", str(tmp_path / "pred.csv"),
                 "--ref", str(tmp_path / "ref.csv")])
    assert code == 3
    err = capsys.readouterr().err
    assert "label line" in err and "finite" in err


def test_render_image(tmp_path, capsys):
    scene = tmp_path / "scene.txt"
    scene.write_text(SCENE)
    main(["synth", str(scene), "--out", str(tmp_path / "o")])
    tensor = tmp_path / "o" / "scene.ftb"
    assert main(["render-image", str(tensor), "--channel", "0"]) == 0
    image = tmp_path / "o" / "scene.ch0.ppm"
    assert image.read_bytes().startswith(b"P6\n95 257\n255\n")
    sidecar = read_manifest(image.with_suffix(".txt"))
    assert sidecar["source"] == "scene.ftb"
    assert float(sidecar["min"]) < float(sidecar["max"])
    assert main(["render-image", str(tensor), "--channel", "9"]) == 3
    assert main(["render-image", str(tmp_path / "no.ftb"), "--channel", "0"]) == 2


@pytest.mark.parametrize("case", ["input", "input-respelled", "image-is-manifest",
                                  "manifest-is-input"])
def test_render_image_refuses_an_out_that_destroys_data(tmp_path, capsys, case):
    # The first three once exited 0: --out naming the input replaced the
    # tensor with a PPM, and an image named *.txt was overwritten by its
    # own manifest.
    scene = tmp_path / "scene.txt"
    scene.write_text(SCENE)
    main(["synth", str(scene), "--out", str(tmp_path / "o")])
    tensor = tmp_path / "o" / "scene.ftb"
    if case == "manifest-is-input":
        tensor = tensor.rename(tmp_path / "o" / "t.txt")
    out = {"input": tensor, "input-respelled": tmp_path / "o" / ".." / "o" / "scene.ftb",
           "image-is-manifest": tmp_path / "img.txt",
           "manifest-is-input": tmp_path / "o" / "t.ppm"}
    before = {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()}
    capsys.readouterr()
    assert main(["render-image", str(tensor), "--channel", "0", "--out", str(out[case])]) == 3
    assert "must be three different files" in capsys.readouterr().err
    assert {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()} == before


@pytest.mark.parametrize("flag", ["--vmin", "--vmax"])
@pytest.mark.parametrize("value", ["nan", "inf"])
def test_render_image_rejects_non_finite_bounds(tmp_path, capsys, flag, value):
    scene = tmp_path / "scene.txt"
    scene.write_text(SCENE)
    main(["synth", str(scene), "--out", str(tmp_path / "o")])
    capsys.readouterr()
    tensor = tmp_path / "o" / "scene.ftb"
    assert main(["render-image", str(tensor), "--channel", "0", flag, value]) == 3
    assert "finite" in capsys.readouterr().err
    assert not list((tmp_path / "o").glob("*.ppm"))


@pytest.mark.parametrize("flag", ["--vmin", "--vmax"])
@pytest.mark.parametrize("value", NEGATIVE_VALUES)
def test_render_image_takes_negative_exponents_and_infinity(tmp_path, capsys, flag, value):
    scene = tmp_path / "scene.txt"
    scene.write_text(SCENE)
    main(["synth", str(scene), "--out", str(tmp_path / "o")])
    capsys.readouterr()
    tensor = tmp_path / "o" / "scene.ftb"
    code = main(["render-image", str(tensor), "--channel", "0", flag, value])
    err = capsys.readouterr().err
    if value == "-inf":
        assert code == 3 and "finite" in err, err
    else:
        assert code == 0, err
        sidecar = read_manifest(tensor.with_name("scene.ch0.txt"))
        assert float(sidecar[flag[2:].replace("v", "")]) == float(value)


def test_stats_and_apply(corpus, tmp_path):
    feat = tmp_path / "feat"
    main(["extract", str(corpus), "--format", "foa", "--feature", "linspeciv",
          "--out", str(feat)])
    stats_path = tmp_path / "stats.ftb"
    normed = tmp_path / "normed"
    code = main(["stats", str(feat), "--out", str(stats_path),
                 "--apply", str(normed)])
    assert code == 0
    stats = read_tensor(stats_path)
    assert stats.shape == (2, 7)
    assert np.all(stats[1] >= 1e-8)
    manifest = read_manifest(tmp_path / "stats.manifest.txt")
    assert manifest["kind"] == "stats"
    assert int(manifest["files"]) == 2
    out = read_tensor(normed / "a.ftb")
    # spectrogram channel standardized over the corpus: roughly centered
    assert abs(float(out[0].mean())) < 1.0
    assert read_manifest(normed / "a.manifest.txt")["normalized"] == "True"


def _feature_bytes(path, feat):
    write_feature(path, feat)
    return path.read_bytes()


@pytest.mark.parametrize("kind", ["salsa", "linspeciv"])
def test_stats_cli_gives_the_library_calls_bytes(corpus, tmp_path, kind):
    feat, normed = tmp_path / "feat", tmp_path / "normed"
    main(["extract", str(corpus), "--format", "foa", "--feature", kind, "--out", str(feat)])
    assert main(["stats", str(feat), "--out", str(tmp_path / "s.ftb"),
                 "--apply", str(normed)]) == 0
    feats = [read_feature(feat / f"{stem}.ftb") for stem in ("a", "b")]
    acc = StatsAccumulator()
    for f in feats:
        acc.add(f)
    raw = acc.finish()
    stats = ChannelStats(raw.mean, np.maximum(raw.std, STD_FLOOR), raw.channel_roles)
    assert read_tensor(tmp_path / "s.ftb").tobytes() == np.stack([stats.mean, stats.std]).tobytes()
    for stem, f in zip(("a", "b"), feats):
        assert (normed / f"{stem}.ftb").read_bytes() == _feature_bytes(
            tmp_path / "lib", apply_stats(f, stats))


def test_stats_applied_over_its_own_inputs_matches_a_fresh_directory(corpus, tmp_path):
    feat = tmp_path / "feat"
    main(["extract", str(corpus), "--format", "foa", "--feature", "salsa", "--out", str(feat)])
    assert main(["stats", str(feat), "--out", str(tmp_path / "s1.ftb"),
                 "--apply", str(tmp_path / "fresh")]) == 0
    # The normalized tensors replace the ones being read.
    assert main(["stats", str(feat), "--out", str(tmp_path / "s2.ftb"), "--apply", str(feat)]) == 0
    assert (tmp_path / "s1.ftb").read_bytes() == (tmp_path / "s2.ftb").read_bytes()
    names = sorted(p.name for p in feat.iterdir())
    assert names == sorted(p.name for p in (tmp_path / "fresh").iterdir())
    assert len(names) == 4
    for name in names:
        assert (feat / name).read_bytes() == (tmp_path / "fresh" / name).read_bytes(), name


def test_every_command_run_twice_into_one_tree_gives_the_same_bytes(corpus, tmp_path):
    # The second run renames each new file over the first run's.
    scene = tmp_path / "scene.txt"
    scene.write_text(SCENE)
    out = tmp_path / "out"
    calls = [
        ["extract", corpus, "--format", "foa", "--feature", "salsa", "--out", out / "feat"],
        ["synth", scene, "--out", out / "synth"],
        ["stats", out / "feat", "--out", out / "stats" / "s.ftb", "--apply", out / "normed"],
        ["augment", out / "feat", "--out", out / "aug", "--seed", "3", "--set", "p_apply=1"],
    ]
    trees = []
    for _ in range(2):
        for argv in calls:
            assert main([str(a) for a in argv]) == 0
        trees.append({p.relative_to(out): p.read_bytes() for p in out.rglob("*") if p.is_file()})
    assert len(trees[0]) == 17
    assert trees[0] == trees[1]


def _listing(directory):
    """Sorted names in directory, or None if it does not exist."""
    return sorted(p.name for p in directory.iterdir()) if directory.exists() else None


@pytest.mark.skipif(not hasattr(os, "posix_fallocate"), reason="needs os.posix_fallocate")
@pytest.mark.parametrize("granted", [0, 1, 2])
def test_a_full_disk_exits_2_before_any_output(corpus, tmp_path, monkeypatch, capsys, granted):
    # The first `granted` tensor files of each command get their space;
    # every later one fails as on a full disk. A failed command leaves no
    # directory it made, and keeps the complete outputs written before.
    feat, out = tmp_path / "feat", tmp_path / "out"
    main(["extract", str(corpus), "--format", "foa", "--feature", "salsa", "--out", str(feat)])
    scene = tmp_path / "scene.txt"
    scene.write_text(SCENE)
    calls = []
    real = os.posix_fallocate

    def fallocate(fd, offset, length):
        calls.append(length)
        if len(calls) > granted:
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        real(fd, offset, length)

    def run(argv):
        calls.clear()
        code = main([str(a) for a in argv])
        assert ("No space left" in capsys.readouterr().err) == (code != 0)
        return code

    monkeypatch.setattr(os, "posix_fallocate", fallocate)
    if granted < 2:
        assert run(["extract", corpus, "--format", "foa", "--feature", "salsa",
                    "--out", out / "x"]) == 2
        assert _listing(out / "x") == (["a.ftb", "a.manifest.txt"] if granted else None)
    assert run(["stats", feat, "--out", out / "s" / "s.ftb", "--apply", out / "normed"]) == 2
    assert _listing(out / "s") == (["s.ftb", "s.manifest.txt"] if granted else None)
    assert _listing(out / "normed") == (["a.ftb", "a.manifest.txt"] if granted == 2 else None)
    assert run(["synth", scene, "--out", out / "synth" / "x"]) == (0 if granted else 2)
    assert _listing(out / "synth" / "x") == (
        ["scene.csv", "scene.ftb", "scene.manifest.txt"] if granted else None)
    assert run(["augment", feat, "--out", out / "aug" / "x", "--seed", "3"]) == (
        0 if granted == 2 else 2)
    assert _listing(out / "aug" / "x") == (
        ["a.ftb", "a.manifest.txt", "b.ftb", "b.manifest.txt"][: 2 * granted] or None)
    assert granted or not out.exists()


def test_augment_copy_when_disabled(corpus, tmp_path, capsys):
    feat = tmp_path / "feat"
    main(["extract", str(corpus), "--format", "foa", "--feature", "salsa",
          "--out", str(feat)])
    out = tmp_path / "aug"
    # No stage is drawn: each tensor is read, checked and written back with
    # the same bytes, and its manifest records the augment run.
    code = main(["augment", str(feat), "--out", str(out), "--seed", "5", "--set", "p_apply=0"])
    assert code == 0
    assert "augmented" in capsys.readouterr().out
    for stem in ("a", "b"):
        assert (out / f"{stem}.ftb").read_bytes() == (feat / f"{stem}.ftb").read_bytes()
        want = {**read_manifest(feat / f"{stem}.manifest.txt"), "augmented": "True", "seed": "5"}
        assert read_manifest(out / f"{stem}.manifest.txt") == want


@pytest.mark.parametrize("first, second", [
    pytest.param("foa salsa", "foa linspeciv", id="salsa"),
    pytest.param("foa linspeciv", "foa salsa", id="linspeciv"),
    pytest.param("foa salsa", "mic salsa", id="mic"),
])
def test_stats_refuses_a_corpus_of_mixed_feature_kinds(corpus, tmp_path, capsys, first, second):
    # foa salsa and linspeciv tensors have equal channel roles, and so do foa
    # and mic salsa; pooled, the eigenvector cues' statistics once
    # standardized the intensity vectors, and W/X/Y/Z pooled with capsules.
    feat = tmp_path / "feat"
    for kind, stem in ((first, "a"), (second, "b")):
        fmt, feature = kind.split()
        wav = corpus / f"{stem}.wav"
        if fmt == "mic":
            wav = tmp_path / "b.wav"
            _mic_source_wav(wav)
        main(["extract", str(wav), "--format", fmt, "--feature", feature, "--out", str(feat)])
    capsys.readouterr()
    out = tmp_path / "out"
    assert main(["stats", str(feat), "--out", str(out / "s.ftb"), "--apply", str(out)]) == 3
    want = f"b.ftb: cannot mix feature kinds in one statistics pass ({second} after {first})"
    assert want in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("bad", [[np.nan], [np.inf], [np.inf, -np.inf]])
def test_stats_and_augment_refuse_non_finite_tensors(tmp_path, capsys, bad):
    # Unchecked, one NaN gives channel 0 a NaN mean and std and a NaN
    # normalized copy, and an augmented copy keeps NaN cells; an inf also
    # printed a RuntimeWarning. Both exit 4 and write nothing.
    data = np.random.default_rng(0).standard_normal((7, 50, 20)).astype(np.float32)
    data[0, 10, : len(bad)] = bad
    feat = FeatureTensor(data, ["spec"] * 4 + ["spatial"] * 3, "linear",
                         {"feature": "salsa", "format": "foa"})
    feat_dir, normed, aug = tmp_path / "feat", tmp_path / "normed", tmp_path / "aug"
    feat_dir.mkdir()
    write_feature(feat_dir / "a.ftb", feat)
    stats = tmp_path / "stats" / "s.ftb"
    assert main(["stats", str(feat_dir), "--out", str(stats), "--apply", str(normed)]) == 4
    assert "a.ftb: feature tensor channel 0 has non-finite values" in capsys.readouterr().err
    assert not stats.parent.exists() and not normed.exists()
    for p_apply in ("1", "0"):
        assert main(["augment", str(feat_dir), "--out", str(aug), "--seed", "3",
                     "--set", f"p_apply={p_apply}"]) == 4
        assert "a.ftb: feature tensor has non-finite values" in capsys.readouterr().err
        assert not aug.exists()


@pytest.mark.parametrize("bad", ["role", "complex"])
def test_stats_and_augment_refuse_unknown_roles_and_complex_tensors(tmp_path, capsys, bad):
    # An unknown role once passed stats --apply and, at some augment seeds,
    # augment; a complex tensor passed both with its imaginary parts dropped.
    data = np.random.default_rng(0).standard_normal((3, 50, 20))
    feat_dir, normed, aug = tmp_path / "feat", tmp_path / "normed", tmp_path / "aug"
    roles = ["spec", "spec", "foo" if bad == "role" else "spatial"]
    write_tensor(feat_dir / "a.ftb", data.astype(np.complex64 if bad == "complex" else np.float32))
    write_feature_manifest(feat_dir / "a.ftb", data.shape, roles, "linear",
                           {"feature": "linspecgcc", "format": "mic"})
    want = "unknown channel role 'foo'" if bad == "role" else "a.ftb: a feature tensor is real"
    stats = tmp_path / "stats" / "s.ftb"
    for apply in ([], ["--apply", str(normed)]):
        assert main(["stats", str(feat_dir), "--out", str(stats), *apply]) == 3
        assert want in capsys.readouterr().err
        assert not stats.parent.exists() and not normed.exists()
    for seed in range(6):
        assert main(["augment", str(feat_dir), "--out", str(aug), "--seed", str(seed)]) == 3
        assert want in capsys.readouterr().err
        assert not aug.exists()


@pytest.mark.parametrize("key", ["kind", "scale", "channel_roles", "channels", "frames", "bands"])
def test_stats_and_augment_take_a_manifest_missing_any_header_key_cleanly(tmp_path, capsys, key):
    # Without channel_roles both once died with a KeyError traceback.
    data = np.random.default_rng(0).standard_normal((7, 50, 20)).astype(np.float32)
    feat = FeatureTensor(data, ["spec"] * 4 + ["spatial"] * 3, "linear",
                         {"feature": "salsa", "format": "foa"})
    feat_dir, normed, aug = tmp_path / "feat", tmp_path / "normed", tmp_path / "aug"
    feat_dir.mkdir()
    write_feature(feat_dir / "a.ftb", feat)
    manifest = feat_dir / "a.manifest.txt"
    lines = manifest.read_text().splitlines(keepends=True)
    manifest.write_text("".join(ln for ln in lines if not ln.startswith(f"{key}=")))
    stats = tmp_path / "stats" / "s.ftb"
    code = main(["stats", str(feat_dir), "--out", str(stats), "--apply", str(normed)])
    err = capsys.readouterr().err
    assert code in (0, 2, 3, 4) and "Traceback" not in err
    # A tensor's scale and channel roles are never guessed.
    assert code == 3 or key not in ("scale", "channel_roles")
    if code:
        assert not stats.parent.exists() and not normed.exists()
    code = main(["augment", str(feat_dir), "--out", str(aug), "--seed", "3"])
    err = capsys.readouterr().err
    assert code in (0, 2, 3, 4) and "Traceback" not in err
    assert code == 3 or key not in ("scale", "channel_roles")
    if code:
        assert not aug.exists()


def test_augment_seeded_reproducible(corpus, tmp_path):
    feat = tmp_path / "feat"
    main(["extract", str(corpus), "--format", "foa", "--feature", "salsa",
          "--out", str(feat)])
    labels = tmp_path / "labels"
    labels.mkdir()
    for stem in ("a", "b"):
        (labels / f"{stem}.csv").write_text(
            rows_to_csv([(0, 3, 0, 20.0, 0.0), (1, 3, 0, 25.0, 0.0)])
        )
    runs = {}
    for name, seed in (("x", 3), ("y", 3), ("z", 4)):
        out = tmp_path / name
        code = main(["augment", str(feat), "--out", str(out), "--seed", str(seed),
                     "--labels", str(labels), "--set", "p_apply=1"])
        assert code == 0
        runs[name] = (out / "a.ftb").read_bytes()
        assert (out / "a.csv").exists()
    assert runs["x"] == runs["y"]
    assert runs["x"] != runs["z"]
    manifest = read_manifest(tmp_path / "x" / "a.manifest.txt")
    assert manifest["augmented"] == "True"
    assert int(manifest["seed"]) == 3


def _mic_source_wav(path, seconds=1.0, rate=24000):
    """A noise source at (60, 20) degrees on the default tetrahedral array:
    one white noise delayed per capsule (in the frequency domain), plus a
    little independent noise per capsule."""
    rng = np.random.default_rng(11)
    n = int(seconds * rate)
    spectrum = np.fft.rfft(rng.standard_normal(n))
    freqs = np.fft.rfftfreq(n, 1.0 / rate)
    delays = (ArrayFormat("mic").mic_positions @ unit_vector(60.0, 20.0)) / 343.0
    capsules = [np.fft.irfft(spectrum * np.exp(2j * np.pi * freqs * d), n) for d in delays]
    samples = 0.1 * np.array(capsules) + 1e-3 * rng.standard_normal((4, n))
    support.write_wav_blocks(path, rate, 4, [samples])


def test_augment_rewraps_mic_cues_with_the_tensors_speed_of_sound(tmp_path):
    wavs = tmp_path / "wavs"
    wavs.mkdir()
    _mic_source_wav(wavs / "m.wav")
    feat_dir, out = tmp_path / "feat", tmp_path / "aug"
    assert main(["extract", str(wavs), "--format", "mic", "--feature", "salsa",
                 "--out", str(feat_dir), "--set", "speed_of_sound=300"]) == 0
    feat = read_feature(feat_dir / "m.ftb")
    assert feat.meta["speed_of_sound"] == 300.0
    # Seed 1 draws rot270_zflip, a swap that re-references the delays.
    assert main(["augment", str(feat_dir), "--out", str(out), "--seed", "1",
                 "--set", "p_apply=1", "--set", "max_shift=0"]) == 0
    # The pipeline's draws (augment_pipeline: swap, shift, cutout), with the
    # swap at the tensor's 300 m/s.
    rng = np.random.default_rng([1, 0])
    rng.random()
    options = transforms_for("mic")
    tx = options[int(rng.integers(len(options)))]
    want, _ = channel_swap(feat, None, tx)
    rng.random()
    assert int(rng.integers(0, 1)) == 0  # max_shift=0: the shift is a no-op
    rng.random()
    want = random_cutout(want, rng)
    got = read_tensor(out / "m.ftb")
    np.testing.assert_array_equal(got, want.data)
    # At 343 m/s the re-wrapped cues differ, so the test tells the two apart.
    at_343 = feat.copy()
    at_343.meta["speed_of_sound"] = 343.0
    at_343, _ = channel_swap(at_343, None, tx)
    keep = want.data[4:] != 0
    assert np.any(at_343.data[4:][keep] != want.data[4:][keep])


def test_synth_renders_with_the_configured_speed_of_sound(tmp_path):
    scene = tmp_path / "scene.txt"
    scene.write_text(SCENE.replace("format=foa", "format=mic"))
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["synth", str(scene), "--out", str(a)]) == 0
    assert main(["synth", str(scene), "--out", str(b), "--set", "speed_of_sound=300"]) == 0
    parsed = parse_scene(scene.read_text())
    parsed.fmt.speed_of_sound = 300.0
    want = render_scene(parsed, StftConfig())[0].data.astype(np.complex64)
    np.testing.assert_array_equal(read_tensor(b / "scene.ftb"), want)
    assert not np.array_equal(read_tensor(a / "scene.ftb"), want)
    digests = {read_manifest(d / "scene.manifest.txt")["config"] for d in (a, b)}
    assert digests == {PipelineConfig().digest(),
                       PipelineConfig().with_overrides(["speed_of_sound=300"]).digest()}


def test_augment_turns_every_label_row_with_the_drawn_swap(corpus, tmp_path):
    # Two instances of one class in a frame, and a track index past int16.
    feat = tmp_path / "feat"
    assert main(["extract", str(corpus / "a.wav"), "--format", "foa", "--feature",
                 "salsa", "--out", str(feat)]) == 0
    labels = tmp_path / "labels"
    labels.mkdir()
    rows = [(0, 3, 0, 20.0, 10.0), (0, 3, 1, -150.0, -40.0), (2, 3, 40000, 95.0, 0.0),
            (7, 11, 2, 180.0, 85.0)]
    (labels / "a.csv").write_text(rows_to_csv(rows))
    out = tmp_path / "aug"
    assert main(["augment", str(feat), "--out", str(out), "--seed", "2",
                 "--labels", str(labels), "--set", "p_apply=1"]) == 0
    rng = np.random.default_rng([2, 0])  # augment_pipeline's first two draws
    rng.random()
    tx = transforms_for("foa")[int(rng.integers(16))]
    assert not np.array_equal(tx.matrix, np.eye(3))
    got = rows_from_csv((out / "a.csv").read_text())
    assert [r[:3] for r in got] == [r[:3] for r in rows]
    for (*_, az, el), (*_, got_az, got_el) in zip(rows, got):
        want = tx.matrix @ unit_vector(az, el)
        np.testing.assert_allclose(unit_vector(got_az, got_el), want, atol=1e-5)


def test_augment_missing_labels(corpus, tmp_path):
    feat = tmp_path / "feat"
    main(["extract", str(corpus), "--format", "foa", "--feature", "salsa",
          "--out", str(feat)])
    empty = tmp_path / "nolabels"
    empty.mkdir()
    code = main(["augment", str(feat), "--out", str(tmp_path / "aug"),
                 "--labels", str(empty)])
    assert code == 2


@pytest.mark.parametrize("p_apply", ["1", "0"])
def test_augment_rejects_negative_label_frame(corpus, tmp_path, capsys, p_apply):
    feat = tmp_path / "feat"
    main(["extract", str(corpus / "a.wav"), "--format", "foa", "--feature", "salsa",
          "--out", str(feat)])
    labels = tmp_path / "labels"
    labels.mkdir()
    (labels / "a.csv").write_text("0,3,0,20,0\n-1,3,0,25,0\n")
    out = tmp_path / "aug"
    code = main(["augment", str(feat), "--out", str(out), "--labels", str(labels),
                 "--set", f"p_apply={p_apply}"])
    assert code == 3
    assert "label line 2" in capsys.readouterr().err
    assert not out.exists()


def test_cli_import_does_not_load_scipy_optimize():
    # No scipy module is imported with the CLI or its argument parser, the
    # start-up path every command pays: scipy.optimize only for scoring cells
    # above 8 instances (at module level it would add about a third of a
    # second to every start), scipy.io only by the WAV writer. extract's
    # helpers are plain os.fork children, so no process-pool or subprocess
    # machinery is imported either.
    src = str(Path(seldkit.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    slow = ["scipy", "multiprocessing", "concurrent.futures", "subprocess"]
    code = (
        "import sys, seldkit.cli; seldkit.cli.build_parser(); "
        f"print([m for m in sys.modules if m in {slow!r} or m.startswith('scipy.')])"
    )
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, timeout=120)
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == "[]"


def test_usage_errors():
    assert main([]) == 3
    assert main(["extract", "x.wav", "--format", "dsp", "--feature", "salsa",
                 "--out", "o"]) == 3
