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
        """Add one tensor; see add_channels."""
        self.add_channels(feat.channel_roles, feat.data)

    def add_channels(self, roles, channels) -> None:
        """Add one tensor given as its channel roles and its channels in order.

        `channels` may be any iterable of equal-shaped arrays, such as a
        file's channels read one at a time; each is summed in float64 before
        the next is taken. Raises FloatingPointError, adding nothing, if a
        value is not finite: the sum of squares of float32 values is finite
        exactly when they are.
        """
        roles = list(roles)
        if self._roles not in (None, roles):
            raise ValueError("cannot mix feature kinds in one statistics pass")
        sums = np.zeros(len(roles))
        sumsq = np.zeros(len(roles))
        row = np.empty(0)  # one float64 channel, reused
        with np.errstate(invalid="ignore"):  # +inf and -inf in one channel sum to NaN
            for ch, channel in enumerate(channels):
                if row.shape != channel.shape:
                    row = np.empty(channel.shape)
                np.copyto(row, channel)
                flat = row.reshape(-1)
                sums[ch] = flat.sum()
                np.multiply(flat, flat, out=flat)
                sumsq[ch] = flat.sum()
                if not np.isfinite(sumsq[ch]):
                    raise FloatingPointError(f"channel {ch} has non-finite values")
        if self._roles is None:
            self._roles = roles
            self._count = np.zeros(len(roles))
            self._sum = np.zeros(len(roles))
            self._sumsq = np.zeros(len(roles))
        self._count += row.size
        self._sum += sums
        self._sumsq += sumsq

    def finish(self) -> ChannelStats:
        if self._roles is None:
            raise ValueError("no tensors were accumulated")
        mean = self._sum / self._count
        var = np.maximum(self._sumsq / self._count - mean * mean, 0.0)
        return ChannelStats(mean=mean, std=np.sqrt(var), channel_roles=self._roles)


def standardize_channels(stats: ChannelStats, roles, feature, channels):
    """Standardize each of a tensor's channels in place and yield it.

    `channels` are the tensor's channels in order, with their roles and its
    feature kind. Each spectrogram channel, and for the classical feature
    kinds every channel, becomes (x - mean) / max(std, floor), computed in
    float64 and stored back in the channel's own array and dtype; the
    combined eigenvector feature (salsa) keeps its direction channels
    untouched.
    """
    if len(stats.mean) != len(roles):
        raise ValueError(f"stats cover {len(stats.mean)} channels, tensor has {len(roles)}")
    if stats.channel_roles != list(roles):
        raise ValueError("channel roles of stats and tensor do not match")
    denom = np.maximum(stats.std, STD_FLOOR)
    x = np.empty(0)  # one float64 channel, reused
    for ch, channel in enumerate(channels):
        if feature != "salsa" or roles[ch] == "spec":
            if x.shape != channel.shape:
                x = np.empty(channel.shape)
            np.copyto(x, channel)
            x -= stats.mean[ch]
            x /= denom[ch]
            channel[...] = x
        yield channel


def apply_stats(feat: FeatureTensor, stats: ChannelStats) -> FeatureTensor:
    """A copy of feat with its channels standardized (see standardize_channels)."""
    out = feat.copy()
    for _ in standardize_channels(stats, out.channel_roles, out.meta.get("feature"), out.data):
        pass
    out.meta["normalized"] = True
    return out
