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
        """Add one tensor; each channel is summed in float64, one at a time."""
        if self._roles is None:
            self._roles = list(feat.channel_roles)
            self._count = np.zeros(feat.n_channels)
            self._sum = np.zeros(feat.n_channels)
            self._sumsq = np.zeros(feat.n_channels)
        elif self._roles != list(feat.channel_roles):
            raise ValueError("cannot mix feature kinds in one statistics pass")
        sums = np.empty(feat.n_channels)
        sumsq = np.empty(feat.n_channels)
        row = np.empty(feat.data.shape[1:])  # one float64 channel, reused
        flat = row.reshape(-1)
        for ch in range(feat.n_channels):
            np.copyto(row, feat.data[ch])
            sums[ch] = flat.sum()
            np.multiply(flat, flat, out=flat)
            sumsq[ch] = flat.sum()
        self._count += feat.n_frames * feat.n_bands
        self._sum += sums
        self._sumsq += sumsq

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


def apply_stats(
    feat: FeatureTensor, stats: ChannelStats, *, in_place: bool = False
) -> FeatureTensor:
    """Standardize channels: (x - mean) / max(std, floor).

    Spectrogram channels are always normalized. Non-spectrogram channels are
    normalized only for the classical feature kinds; the combined eigenvector
    feature keeps its direction channels untouched. Each channel is computed
    in float64 and stored in the tensor's own dtype, in a copy of feat or,
    with in_place, in feat itself.
    """
    if len(stats.mean) != feat.n_channels:
        raise ValueError(
            f"stats cover {len(stats.mean)} channels, tensor has {feat.n_channels}"
        )
    if stats.channel_roles != list(feat.channel_roles):
        raise ValueError("channel roles of stats and tensor do not match")
    is_salsa = feat.meta.get("feature") == "salsa"
    out = feat if in_place else feat.copy()
    denom = np.maximum(stats.std, STD_FLOOR)
    x = np.empty(feat.data.shape[1:])  # one float64 channel, reused
    for ch, role in enumerate(feat.channel_roles):
        if is_salsa and role != "spec":
            continue
        np.copyto(x, out.data[ch])
        x -= stats.mean[ch]
        x /= denom[ch]
        out.data[ch] = x
    out.meta["normalized"] = True
    return out
