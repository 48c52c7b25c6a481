"""Multichannel STFT front end: spectrograms, mel projection, band compression."""

from __future__ import annotations

from collections.abc import Callable, Iterator
from dataclasses import dataclass, field

import numpy as np


@dataclass
class StftConfig:
    """Analysis parameters shared by every feature kind.

    hop <= window <= fft_size is required; frames are taken without padding,
    so a clip shorter than one window cannot be transformed.
    """

    sample_rate: int = 24000
    window_length: int = 512
    hop_length: int = 300
    fft_size: int = 512
    window: str = "hann"

    def __post_init__(self):
        if not (0 < self.hop_length <= self.window_length <= self.fft_size):
            raise ValueError(
                f"need 0 < hop ({self.hop_length}) <= window "
                f"({self.window_length}) <= fft ({self.fft_size})"
            )
        if self.sample_rate <= 0:
            raise ValueError("sample_rate must be positive")

    @property
    def n_bins(self) -> int:
        return self.fft_size // 2 + 1

    @property
    def bin_hz(self) -> float:
        return self.sample_rate / self.fft_size

    @property
    def frame_rate(self) -> float:
        return self.sample_rate / self.hop_length

    def n_frames(self, n_samples: int) -> int:
        if n_samples < self.window_length:
            raise ValueError(
                f"clip of {n_samples} samples is shorter than one window "
                f"({self.window_length})"
            )
        return 1 + (n_samples - self.window_length) // self.hop_length


@dataclass
class AudioClip:
    """Multichannel time-domain audio, channels x samples, float in [-1, 1]."""

    samples: np.ndarray
    sample_rate: int

    def __post_init__(self):
        self.samples = np.atleast_2d(np.asarray(self.samples, dtype=np.float64))
        if self.samples.ndim != 2:
            raise ValueError("samples must be a (channels, samples) array")
        if self.sample_rate <= 0:
            raise ValueError("sample_rate must be positive")

    @property
    def n_channels(self) -> int:
        return self.samples.shape[0]

    @property
    def n_samples(self) -> int:
        return self.samples.shape[1]

    @property
    def duration(self) -> float:
        return self.n_samples / self.sample_rate


@dataclass
class SpectrogramStream:
    """A complex spectrogram of n_frames frames, read by frame range.

    read(start, stop, channels) returns the first `channels` channels of
    frames start..stop-1 (0 <= start < stop <= n_frames) as one
    (channels, stop - start, bins) complex array. Every call stands alone,
    so a consumer may read any range, in any order, as often as it needs;
    blocks() reads a range block by block.
    """

    n_channels: int
    n_frames: int
    n_bins: int
    bin_hz: float
    frame_rate: float
    read: Callable[[int, int, int], np.ndarray]

    def blocks(self, frames: slice = slice(None)) -> Iterator[np.ndarray]:
        """Every channel of the frames in `frames` (default all), a frame block at a time."""
        start, stop, _ = frames.indices(self.n_frames)
        for block in frame_blocks(stop, start):
            yield self.read(block.start, block.stop, self.n_channels)


class ComplexSpectrogram(SpectrogramStream):
    """Complex STFT stack, channels x frames x bins: a stream whose reads are views of data.

    Its shape fields are data's; read is a method, so no spectrogram is a reference cycle.
    """

    def __init__(self, data: np.ndarray, bin_hz: float, frame_rate: float):
        self.n_channels, self.n_frames, self.n_bins = data.shape
        self.data, self.bin_hz, self.frame_rate = data, bin_hz, frame_rate

    def read(self, start: int, stop: int, channels: int) -> np.ndarray:
        return self.data[:channels, start:stop]


def check_feature_layout(shape, channel_roles, scale: str) -> None:
    """Raise ValueError unless these describe a feature tensor: 3-D, one known role per channel."""
    if len(shape) != 3:
        raise ValueError("feature tensor must be 3-D (channels, frames, bands)")
    if len(channel_roles) != shape[0]:
        raise ValueError("one role per channel required")
    for role in channel_roles:
        if role not in ("spec", "spatial", "gcc"):
            raise ValueError(f"unknown channel role {role!r}")
    if scale not in ("linear", "mel"):
        raise ValueError(f"unknown scale {scale!r}")


@dataclass
class FeatureTensor:
    """Real-valued feature stack, channels x frames x bands.

    channel_roles labels each channel "spec", "spatial" or "gcc"; the
    normalization and augmentation stages dispatch on it.
    """

    data: np.ndarray
    channel_roles: list[str]
    scale: str  # "linear" or "mel"
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        check_feature_layout(self.data.shape, self.channel_roles, self.scale)

    @property
    def n_channels(self) -> int:
        return self.data.shape[0]

    @property
    def n_frames(self) -> int:
        return self.data.shape[1]

    @property
    def n_bands(self) -> int:
        return self.data.shape[2]

    def copy(self) -> "FeatureTensor":
        return FeatureTensor(
            self.data.copy(), list(self.channel_roles), self.scale, dict(self.meta)
        )


@dataclass
class FeatureStream:
    """A feature tensor delivered as consecutive frame blocks.

    shape, channel_roles, scale and meta describe the whole tensor as in
    FeatureTensor; blocks yields (channels, n, bands) float64 arrays in frame
    order, covering the frames the stream was built for (all, unless it was
    built for a range of them). counts holds figures known only at the end
    (the salsa gate counts): it is filled once blocks is exhausted, and the
    counts of consecutive frame ranges add up to those of the whole tensor.
    """

    shape: tuple[int, int, int]
    channel_roles: list[str]
    scale: str
    meta: dict
    blocks: Iterator[np.ndarray]
    counts: dict = field(default_factory=dict)

    def collect(self) -> FeatureTensor:
        """Read every block of a whole-tensor stream into one FeatureTensor; meta gains the counts."""
        out = np.empty(self.shape)
        start = 0
        for part in self.blocks:
            out[:, start : start + part.shape[1]] = part
            start += part.shape[1]
        return FeatureTensor(out, self.channel_roles, self.scale, {**self.meta, **self.counts})


# Frames per block of the STFT and of every feature stack built from it.
# Outputs do not depend on it. At 64 frames a 4-channel block's temporaries
# (the 6-pair GCC stack is 1.6 MB) stay in cache; 256 made mic melspecgcc
# extraction about 30 % slower on a 2-core x86 host. It also sets salsa's
# extra STFT work: each salsa block is read with the 3 frames either side
# that its windows reach, so 6 of every 64 frames are transformed twice.
_BLOCK_FRAMES = 64

# Log spectrogram floor and high-band compression; BinSelectionConfig's defaults.
LOG_FLOOR = 1e-12
COMPRESS_START_BIN = 192
COMPRESS_FACTOR = 8


def frame_blocks(n_frames: int, start: int = 0):
    """Yield consecutive frame slices of at most _BLOCK_FRAMES covering [start, n_frames)."""
    for first in range(start, n_frames, _BLOCK_FRAMES):
        yield slice(first, min(first + _BLOCK_FRAMES, n_frames))


def _analysis_window(name: str, length: int) -> np.ndarray:
    # Periodic windows, as appropriate for STFT analysis.
    if name == "hann":
        return 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(length) / length)
    if name == "rect":
        return np.ones(length)
    raise ValueError(f"unknown window {name!r}")


def stft_stream(
    read: Callable[[int, int], np.ndarray], n_channels: int, n_samples: int, cfg: StftConfig
) -> SpectrogramStream:
    """Short-time Fourier transform of samples read by position.

    No padding or centering is applied: frame t covers samples
    [t*hop, t*hop + window). The transform is an unnormalized rfft of the
    windowed frame, zero-padded to fft_size. A read of frames start..stop-1
    (SpectrogramStream.read) pulls exactly the samples they cover with
    read(start*hop, count), which returns samples start*hop..start*hop+count-1
    as (channels, count) float64, and keeps nothing once it returns. rfft
    treats every frame and channel on its own, so neither the range nor the
    channel count changes any output bit.

    Args:
        read: source of the clip's samples by position.
        n_channels, n_samples: size of the whole clip.
        cfg: analysis parameters; the samples are taken to be at its rate.

    Returns:
        SpectrogramStream whose reads are (channels, n, fft_size//2 + 1) complex.
    """
    n_frames = cfg.n_frames(n_samples)
    win = _analysis_window(cfg.window, cfg.window_length)
    hop, width = cfg.hop_length, cfg.window_length

    def frames(start, stop, channels):
        samples = read(start * hop, (stop - start - 1) * hop + width)[:channels]
        windows = np.lib.stride_tricks.sliding_window_view(samples, width, axis=-1)[:, ::hop]
        return np.fft.rfft(windows * win, n=cfg.fft_size, axis=-1)

    return SpectrogramStream(n_channels, n_frames, cfg.n_bins, cfg.bin_hz, cfg.frame_rate, frames)


def stft(clip: AudioClip, cfg: StftConfig) -> ComplexSpectrogram:
    """Whole-clip STFT of every channel: stft_stream over the clip's samples.

    Args:
        clip: audio to transform; clip.sample_rate must match cfg.
        cfg: analysis parameters.

    Returns:
        ComplexSpectrogram of shape (channels, frames, fft_size//2 + 1).
    """
    if clip.sample_rate != cfg.sample_rate:
        raise ValueError(
            f"clip rate {clip.sample_rate} != configured rate {cfg.sample_rate}"
        )
    stream = stft_stream(
        lambda start, count: clip.samples[:, start : start + count],
        clip.n_channels, clip.n_samples, cfg,
    )
    data = np.empty((clip.n_channels, stream.n_frames, cfg.n_bins), dtype=np.complex128)
    for block, part in zip(frame_blocks(stream.n_frames), stream.blocks()):
        data[:, block] = part
    return ComplexSpectrogram(data, bin_hz=cfg.bin_hz, frame_rate=cfg.frame_rate)


def log_linear_spectrogram(spec: ComplexSpectrogram, floor: float = LOG_FLOOR) -> FeatureTensor:
    """log(|X|^2 + floor) per channel; floor keeps silence finite."""
    if floor < 0:
        raise ValueError("floor must be >= 0")
    power = np.abs(spec.data) ** 2
    data = np.log(power + floor)
    return FeatureTensor(
        data,
        channel_roles=["spec"] * spec.n_channels,
        scale="linear",
        meta={"bin_hz": spec.bin_hz, "frame_rate": spec.frame_rate},
    )


def mel_filterbank(sample_rate: int, fft_size: int, n_mels: int) -> np.ndarray:
    """Triangular mel filterbank, 0 Hz to Nyquist, (fft_size//2 + 1, n_mels), weights >= 0.

    Uses the 2595*log10(1 + f/700) mel scale. Each triangle is averaged over
    the width of every FFT bin rather than point-sampled at bin centers;
    point sampling leaves the narrow low filters empty at this resolution,
    and every filter is required to carry positive weight. Filters are
    area-normalized by 2/(f_hi - f_lo).
    """
    if n_mels < 1:
        raise ValueError("n_mels must be >= 1")

    def to_mel(f):
        return 2595.0 * np.log10(1.0 + np.asarray(f, dtype=np.float64) / 700.0)

    def from_mel(m):
        return 700.0 * (10.0 ** (np.asarray(m, dtype=np.float64) / 2595.0) - 1.0)

    edges = from_mel(np.linspace(to_mel(0.0), to_mel(sample_rate / 2.0), n_mels + 2))
    n_bins = fft_size // 2 + 1
    bin_hz = sample_rate / fft_size
    centers = np.arange(n_bins) * bin_hz
    lo = centers - bin_hz / 2.0
    hi = centers + bin_hz / 2.0

    def ramp_integral(a, b, f0, f1, rising):
        # Integral of the (0..1) ramp between f0 and f1 over [a, b] overlap.
        a = np.maximum(a, f0)
        b = np.minimum(b, f1)
        w = np.maximum(b - a, 0.0)
        mid = 0.5 * (a + b)
        if f1 == f0:
            return np.zeros_like(w)
        frac = (mid - f0) / (f1 - f0)
        if not rising:
            frac = 1.0 - frac
        return w * np.clip(frac, 0.0, 1.0)

    weights = np.zeros((n_bins, n_mels))
    for k in range(n_mels):
        left, center, right = edges[k], edges[k + 1], edges[k + 2]
        area = ramp_integral(lo, hi, left, center, rising=True) + ramp_integral(
            lo, hi, center, right, rising=False
        )
        weights[:, k] = area / bin_hz * (2.0 / (right - left))

    if np.any(weights.sum(axis=0) <= 0):
        raise ValueError("mel filterbank produced an all-zero filter")
    return weights


def apply_filterbank(x: np.ndarray, filterbank: np.ndarray) -> np.ndarray:
    """x (..., bins) @ filterbank (bins, bands) as one 2-D matrix product.

    A product with a single row goes to a matrix-vector routine whose sums
    can differ in the last bit from the matrix-matrix routine's, so a stack
    of one-frame blocks is multiplied as one matrix, never row by row.
    """
    flat = x.reshape(-1, x.shape[-1]) @ filterbank
    return flat.reshape(*x.shape[:-1], filterbank.shape[1])


def log_mel_spectrogram(
    spec: ComplexSpectrogram, filterbank: np.ndarray, floor: float = LOG_FLOOR
) -> FeatureTensor:
    """log(|X|^2 @ W + floor): mel-projected log power per channel."""
    if floor < 0:
        raise ValueError("floor must be >= 0")
    if filterbank.shape[0] != spec.n_bins:
        raise ValueError(
            f"filterbank rows {filterbank.shape[0]} != spectrogram bins {spec.n_bins}"
        )
    data = np.log(apply_filterbank(np.abs(spec.data) ** 2, filterbank) + floor)
    return FeatureTensor(
        data,
        channel_roles=["spec"] * spec.n_channels,
        scale="mel",
        meta={"frame_rate": spec.frame_rate, "n_mels": filterbank.shape[1]},
    )


def compressed_bands(n_bins: int, start_bin: int, factor: int) -> int:
    """Band count that compress_high_bands leaves of n_bins; validates its arguments."""
    if not (0 <= start_bin < n_bins):
        raise ValueError(f"start_bin {start_bin} out of range for {n_bins} bins")
    if factor < 1:
        raise ValueError("factor must be >= 1")
    return start_bin + (n_bins - start_bin) // factor


def compress_high_bands(
    data: np.ndarray, start_bin: int = COMPRESS_START_BIN, factor: int = COMPRESS_FACTOR
) -> np.ndarray:
    """Shrink the upper frequency range by group-averaging.

    Bins [0, start_bin) are copied through; from start_bin upward, complete
    groups of `factor` bins are averaged; leftover bins that do not fill a
    group (the Nyquist bin at the defaults) are discarded. Each group is
    summed in bin order and then divided by `factor`, so a value does not
    depend on the array's layout or on how many frames are passed at once
    (np.mean picks its summation order from both).

    Args:
        data: (..., bins) array.
        start_bin: first compressed bin; must be < number of bins.
        factor: group size, >= 1.

    Returns:
        (..., start_bin + (bins - start_bin)//factor) array.
    """
    n_groups = compressed_bands(data.shape[-1], start_bin, factor) - start_bin
    stop = start_bin + n_groups * factor
    total = data[..., start_bin:stop:factor]
    for k in range(1, factor):
        total = total + data[..., start_bin + k : stop : factor]
    return np.concatenate([data[..., :start_bin], total / factor], axis=-1)
