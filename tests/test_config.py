"""Pipeline configuration files, overrides and hashing."""

from dataclasses import replace

import pytest

from seldkit import (
    AugmentConfig,
    BinSelectionConfig,
    MetricsConfig,
    PipelineConfig,
    StftConfig,
)
from seldkit.baseline import N_MELS


def test_defaults_match_library_constants():
    # Each default is its component's: the *_config methods of a default
    # config give the components' own defaults, field for field.
    cfg = PipelineConfig()
    assert cfg.stft_config() == StftConfig()
    for kind in ("foa", "mic"):
        assert cfg.selection_config(kind) == BinSelectionConfig.for_format(kind)
    assert cfg.augment_config() == AugmentConfig()
    assert cfg.metrics_config() == MetricsConfig()
    assert cfg.metrics_config("2020") == MetricsConfig(convention="2020")
    assert cfg.n_mels == N_MELS


def test_default_digest_is_pinned():
    # Every manifest written at the default configuration records this.
    assert PipelineConfig().digest() == "fdc65fc9b7df368b"


def test_fields_and_types_are_pinned():
    import dataclasses

    got = {f.name: f.type for f in dataclasses.fields(PipelineConfig)}
    assert got == {
        "sample_rate": "int", "window_length": "int", "hop_length": "int",
        "fft_size": "int", "window": "str", "n_mels": "int", "log_floor": "float",
        "f_low": "float", "f_high_foa": "float", "f_high_mic": "float",
        "alpha_mag": "float", "beta_ratio": "float", "cov_half_window": "int",
        "rms_half_window": "int", "noise_init_frames": "int",
        "noise_delta_up": "float", "noise_delta_down": "float",
        "compress_start_bin": "int", "compress_factor": "int",
        "speed_of_sound": "float", "p_apply": "float", "max_shift": "int",
        "doa_threshold_deg": "float", "segment_seconds": "float",
    }
    cfg = PipelineConfig()
    for name, kind in got.items():
        assert type(getattr(cfg, name)).__name__ == kind, name


def test_load_file_with_comments(tmp_path):
    path = tmp_path / "pipe.cfg"
    path.write_text(
        "# tuning for the small array\n"
        "sample_rate = 48000  # hertz\n"
        "\n"
        "f_high_mic=3500\n"
    )
    cfg = PipelineConfig.load(path)
    assert cfg.sample_rate == 48000
    assert cfg.f_high_mic == 3500.0
    # untouched keys keep defaults
    assert cfg.hop_length == 300


def test_load_rejects_bad_lines(tmp_path):
    path = tmp_path / "pipe.cfg"
    path.write_text("sample_rate 48000\n")
    with pytest.raises(ValueError, match="key=value"):
        PipelineConfig.load(path)


def test_file_lines_and_set_pairs_are_one_format(tmp_path):
    pairs = ["hop_length=150", "f_high_mic = 3500", "window=hann"]
    path = tmp_path / "pipe.cfg"
    path.write_text("\n".join(f"{pair}  # comment" for pair in pairs) + "\n")
    from_file = PipelineConfig.load(path)
    from_set = PipelineConfig().with_overrides(pairs)
    assert from_file == from_set
    assert from_file.digest() == from_set.digest() != PipelineConfig().digest()


def test_the_later_value_wins(tmp_path):
    path = tmp_path / "pipe.cfg"
    path.write_text("hop_length=150\np_apply=0.25\nhop_length=200\n")
    cfg = PipelineConfig.load(path)
    assert (cfg.hop_length, cfg.p_apply) == (200, 0.25)
    # --set pairs apply after the file's lines, in order
    assert cfg.with_overrides(["hop_length=100", "hop_length=120"]).hop_length == 120


@pytest.mark.parametrize("line, message", [
    ("sample_rate 48000", "expected key=value"),
    ("hop=150", "unknown config key 'hop'"),
    ("hop_length=tiny", "config key 'hop_length': bad value 'tiny'"),
])
def test_errors_name_the_file_line_or_the_override(tmp_path, line, message):
    path = tmp_path / "pipe.cfg"
    path.write_text(f"# header\nhop_length=150\n\n{line}\n")
    with pytest.raises(ValueError) as info:
        PipelineConfig.load(path)
    assert str(info.value) == f"{path}:4: {message}"
    with pytest.raises(ValueError) as info:
        PipelineConfig().with_overrides(["hop_length=150", line])
    assert str(info.value) == f"override {line!r}: {message}"


def test_overrides_coerce_types():
    cfg = PipelineConfig().with_overrides(["hop_length=150", "p_apply=0.25"])
    assert cfg.hop_length == 150
    assert isinstance(cfg.hop_length, int)
    assert cfg.p_apply == 0.25


def test_unknown_key_and_bad_value_rejected():
    with pytest.raises(ValueError, match="unknown config key"):
        PipelineConfig().with_overrides(["hop=150"])
    with pytest.raises(ValueError, match="bad value"):
        PipelineConfig().with_overrides(["hop_length=tiny"])
    with pytest.raises(ValueError, match="key=value"):
        PipelineConfig().with_overrides(["hop_length"])


def test_digest_changes_iff_parameters_change():
    base = PipelineConfig().digest()
    assert PipelineConfig().digest() == base
    # an override that restores the default restores the digest too
    same = PipelineConfig().with_overrides(["hop_length=300"]).digest()
    assert same == base
    changed = PipelineConfig().with_overrides(["hop_length=299"]).digest()
    assert changed != base
    assert len(base) == 16


def test_every_field_feeds_the_digest():
    import dataclasses

    base = PipelineConfig()
    for field in dataclasses.fields(base):
        value = getattr(base, field.name)
        if isinstance(value, bool):
            bumped = "false" if value else "true"
        elif isinstance(value, (int, float)):
            bumped = str(value + 1)
        else:
            bumped = value + "x"
        other = PipelineConfig().with_overrides([f"{field.name}={bumped}"])
        assert other.digest() != base.digest(), field.name


def test_builders_propagate_values():
    cfg = PipelineConfig().with_overrides(
        ["window_length=256", "hop_length=128", "fft_size=256",
         "f_high_mic=3000", "p_apply=0.1", "max_shift=4"]
    )
    stft = cfg.stft_config()
    assert stft.window_length == 256
    assert stft.hop_length == 128
    assert stft.sample_rate == 24000
    assert replace(cfg, sample_rate=16000).stft_config().sample_rate == 16000
    assert cfg.selection_config("mic").f_high == 3000.0
    assert cfg.selection_config("foa").f_high == 9000.0
    aug = cfg.augment_config()
    assert (aug.p_apply, aug.max_shift) == (0.1, 4)
    scoring = PipelineConfig().with_overrides(
        ["doa_threshold_deg=15", "segment_seconds=0.5"]
    ).metrics_config("2020")
    assert scoring == MetricsConfig(
        doa_threshold_deg=15.0, segment_seconds=0.5, convention="2020"
    )
    sel = PipelineConfig().with_overrides(
        ["alpha_mag=2", "log_floor=1e-9"]
    ).selection_config("foa")
    assert (sel.alpha_mag, sel.log_floor) == (2.0, 1e-9)
    with pytest.raises(ValueError, match="format"):
        cfg.selection_config("stereo")
