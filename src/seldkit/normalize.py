"""Per-channel corpus statistics and normalization.

Spectrogram channels are standardized to zero mean and unit variance over a
corpus; direction-valued channels of the combined eigenvector feature stay in
their physical range and are never normalized. The classical feature kinds
normalize every channel.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .stft import FeatureTensor

STD_FLOOR = 1e-8


@dataclass
class ChannelStats:
    """Per-channel mean and standard deviation with their channel roles."""

    mean: np.ndarray  # (channels,)
    std: np.ndarray  # (channels,)
    channel_roles: list[str]

    def __post_init__(self):
        if not (len(self.mean) == len(self.std) == len(self.channel_roles)):
            raise ValueError("mean, std and roles must have equal length")


class StatsAccumulator:
    """Streaming single-pass per-channel mean/variance over feature tensors."""

    def __init__(self):
        self._count = None
        self._sum = None
        self._sumsq = None
        self._roles = None

    def add(self, feat: FeatureTensor) -> None:
        flat = feat.data.reshape(feat.n_channels, -1).astype(np.float64, copy=False)
        if self._roles is None:
            self._roles = list(feat.channel_roles)
            self._count = np.zeros(feat.n_channels)
            self._sum = np.zeros(feat.n_channels)
            self._sumsq = np.zeros(feat.n_channels)
        elif self._roles != list(feat.channel_roles):
            raise ValueError("cannot mix feature kinds in one statistics pass")
        self._count += flat.shape[1]
        self._sum += flat.sum(axis=1)
        self._sumsq += (flat * flat).sum(axis=1)

    def finish(self) -> ChannelStats:
        if self._roles is None:
            raise ValueError("no tensors were accumulated")
        mean = self._sum / self._count
        var = np.maximum(self._sumsq / self._count - mean * mean, 0.0)
        return ChannelStats(mean=mean, std=np.sqrt(var), channel_roles=self._roles)


def compute_stats(tensors) -> ChannelStats:
    """Single-pass statistics over an iterable of feature tensors."""
    acc = StatsAccumulator()
    for feat in tensors:
        acc.add(feat)
    return acc.finish()


def apply_stats(feat: FeatureTensor, stats: ChannelStats) -> FeatureTensor:
    """Standardize channels in place of a copy: (x - mean) / max(std, floor).

    Spectrogram channels are always normalized. Non-spectrogram channels are
    normalized only for the classical feature kinds; the combined eigenvector
    feature keeps its direction channels untouched.
    """
    if len(stats.mean) != feat.n_channels:
        raise ValueError(
            f"stats cover {len(stats.mean)} channels, tensor has {feat.n_channels}"
        )
    if stats.channel_roles != list(feat.channel_roles):
        raise ValueError("channel roles of stats and tensor do not match")
    is_salsa = feat.meta.get("feature") == "salsa"
    out = feat.copy()
    denom = np.maximum(stats.std, STD_FLOOR)
    for ch, role in enumerate(feat.channel_roles):
        if is_salsa and role != "spec":
            continue
        out.data[ch] = (feat.data[ch] - stats.mean[ch]) / denom[ch]
    out.meta["normalized"] = True
    return out
