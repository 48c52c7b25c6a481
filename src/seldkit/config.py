"""Flat key=value pipeline configuration with override and hashing support.

PipelineConfig defines no default of its own: each key's default is read
from the component that owns it (StftConfig, BinSelectionConfig.for_format,
ArrayFormat, AugmentConfig, MetricsConfig, baseline.N_MELS), and each
*_config method hands a component every key it shares with it by name. A
default changes only in its component; the configuration, those methods and
the digest follow.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, fields, replace
from pathlib import Path

from .augment import AugmentConfig
from .baseline import N_MELS
from .metrics import MetricsConfig
from .spatial import ArrayFormat, BinSelectionConfig
from .stft import StftConfig
from .tensorfile import format_value

_ARRAY = ArrayFormat("foa")
_STFT = StftConfig()
_FOA = BinSelectionConfig.for_format("foa")
_MIC = BinSelectionConfig.for_format("mic")
_AUGMENT = AugmentConfig()
_METRICS = MetricsConfig()


@dataclass
class PipelineConfig:
    """Every tunable of the extraction, augmentation and scoring pipeline.

    Files hold one key=value per line with '#' comments, and command lines
    may override single keys via --set; file lines apply in order, then the
    --set pairs, so the later value wins. The bin-selection keys shared by
    both formats take the foa defaults; f_high_foa and f_high_mic are the
    two formats' upper cutoffs. speed_of_sound is the ArrayFormat's.
    """

    sample_rate: int = _STFT.sample_rate
    window_length: int = _STFT.window_length
    hop_length: int = _STFT.hop_length
    fft_size: int = _STFT.fft_size
    window: str = _STFT.window
    n_mels: int = N_MELS
    log_floor: float = _FOA.log_floor
    f_low: float = _FOA.f_low
    f_high_foa: float = _FOA.f_high
    f_high_mic: float = _MIC.f_high
    alpha_mag: float = _FOA.alpha_mag
    beta_ratio: float = _FOA.beta_ratio
    cov_half_window: int = _FOA.cov_half_window
    rms_half_window: int = _FOA.rms_half_window
    noise_init_frames: int = _FOA.noise_init_frames
    noise_delta_up: float = _FOA.noise_delta_up
    noise_delta_down: float = _FOA.noise_delta_down
    compress_start_bin: int = _FOA.compress_start_bin
    compress_factor: int = _FOA.compress_factor
    speed_of_sound: float = _ARRAY.speed_of_sound
    p_apply: float = _AUGMENT.p_apply
    max_shift: int = _AUGMENT.max_shift
    doa_threshold_deg: float = _METRICS.doa_threshold_deg
    segment_seconds: float = _METRICS.segment_seconds

    @classmethod
    def load(cls, path: str | Path) -> "PipelineConfig":
        """A config with the file's key=value lines applied in order ('#' comments)."""
        cfg = cls()
        for ln, raw in enumerate(Path(path).read_text().splitlines(), 1):
            line = raw.split("#", 1)[0].strip()
            if line:
                cfg._set(line, f"{path}:{ln}")
        return cfg

    def with_overrides(self, pairs: list[str]) -> "PipelineConfig":
        """Apply --set style 'key=value' overrides in order, returning self."""
        for pair in pairs:
            self._set(pair, f"override {pair!r}")
        return self

    def _set(self, item: str, source: str) -> None:
        """Set the field of one 'key=value' string; errors start with source."""
        key, sep, raw = (part.strip() for part in item.partition("="))
        if not sep:
            raise ValueError(f"{source}: expected key=value")
        if key not in {f.name for f in fields(self)}:
            raise ValueError(f"{source}: unknown config key {key!r}")
        try:
            setattr(self, key, type(getattr(self, key))(raw))  # int, float or str
        except ValueError:
            raise ValueError(f"{source}: config key {key!r}: bad value {raw!r}") from None

    def canonical_text(self) -> str:
        """Sorted key=value lines, each value written as manifests write it."""
        names = sorted(f.name for f in fields(self))
        return "".join(f"{name}={format_value(getattr(self, name))}\n" for name in names)

    def digest(self) -> str:
        """Short stable hash of the effective configuration."""
        return hashlib.sha256(self.canonical_text().encode()).hexdigest()[:16]

    # builders for the per-module configs

    def _onto(self, component, **extra):
        """`component` with every field it shares by name with this config
        taken from here, then the fields in `extra`."""
        names = {f.name for f in fields(component)}
        shared = {f.name: getattr(self, f.name) for f in fields(self) if f.name in names}
        return replace(component, **{**shared, **extra})

    def stft_config(self) -> StftConfig:
        return self._onto(_STFT)

    def selection_config(self, kind: str) -> BinSelectionConfig:
        f_high = self.f_high_foa if kind == "foa" else self.f_high_mic
        return self._onto(BinSelectionConfig.for_format(kind), f_high=f_high)

    def augment_config(self) -> AugmentConfig:
        return self._onto(_AUGMENT)

    def metrics_config(self, convention: str = _METRICS.convention) -> MetricsConfig:
        return self._onto(_METRICS, convention=convention)
