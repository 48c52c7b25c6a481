"""Spatial analysis: local covariance, principal eigenvectors, bin selection,
and the combined spectrogram + eigenvector-direction feature stack.

One batched core computes covariances by gathering each bin's frames
(`_covariances_at`), Hermitian eigendecompositions (`_principal`), coherence
ratios (`_dominance`) and direction cues (`_directions`). `salsa_stream`
runs it on the candidate bins of each run of frames as spectrogram blocks
arrive, `salsa` is its whole-clip form, and the per-bin functions below run
it on one bin.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .stft import (
    ComplexSpectrogram,
    FeatureStream,
    FeatureTensor,
    SpectrogramStream,
    compress_high_bands,
    compressed_bands,
    log_linear_spectrogram,
)

SPEED_OF_SOUND = 343.0

# Unit directions of a regular tetrahedron; scaled by the array radius these
# are the default 4-mic positions (matches a 4.2 cm spherical array subset).
_TETRA_UNIT = np.array(
    [
        [1.0, 1.0, 1.0],
        [1.0, -1.0, -1.0],
        [-1.0, 1.0, -1.0],
        [-1.0, -1.0, 1.0],
    ]
) / np.sqrt(3.0)


@dataclass
class ArrayFormat:
    """Input format: first-order ambisonics or a far-field mic array."""

    kind: str  # "foa" or "mic"
    mic_positions: np.ndarray | None = None  # (M, 3) metres, mic format only
    speed_of_sound: float = SPEED_OF_SOUND

    def __post_init__(self):
        if self.kind not in ("foa", "mic"):
            raise ValueError(f"unknown format kind {self.kind!r}")
        if self.kind == "mic":
            if self.mic_positions is None:
                self.mic_positions = tetra_positions()
            self.mic_positions = np.asarray(self.mic_positions, dtype=np.float64)
            if self.mic_positions.ndim != 2 or self.mic_positions.shape[1] != 3:
                raise ValueError("mic_positions must be (M, 3)")
            if self.mic_positions.shape[0] < 2:
                raise ValueError("mic format needs at least 2 capsules")

    @property
    def n_channels(self) -> int:
        return 4 if self.kind == "foa" else self.mic_positions.shape[0]

    def aliasing_frequency(self) -> float:
        """c / (2 r) with r the largest capsule distance from the centroid."""
        if self.kind == "foa":
            return float("inf")
        center = self.mic_positions.mean(axis=0)
        radius = np.linalg.norm(self.mic_positions - center, axis=1).max()
        return self.speed_of_sound / (2.0 * radius)


def tetra_positions(radius: float = 0.042) -> np.ndarray:
    """Tetrahedral 4-mic layout at the given radius, (4, 3) metres."""
    return _TETRA_UNIT * radius


@dataclass
class BinSelectionConfig:
    """Passband limits, test thresholds and tracker constants for bin selection."""

    f_low: float = 50.0
    f_high: float = 9000.0
    alpha_mag: float = 1.5
    beta_ratio: float = 5.0
    cov_half_window: int = 3
    rms_half_window: int = 1
    noise_init_frames: int = 5
    noise_delta_up: float = 0.05
    noise_delta_down: float = 0.002
    ratio_eps: float = 1e-12
    component_eps: float = 1e-12
    log_floor: float = 1e-12
    compress_start_bin: int = 192
    compress_factor: int = 8
    speed_of_sound: float = SPEED_OF_SOUND

    @classmethod
    def for_format(cls, kind: str) -> "BinSelectionConfig":
        # Upper cutoff: directional response validity for foa, spatial
        # aliasing for the default mic array.
        if kind == "foa":
            return cls(f_high=9000.0)
        if kind == "mic":
            return cls(f_high=4000.0)
        raise ValueError(f"unknown format kind {kind!r}")


@dataclass
class CovarianceEstimate:
    """Local spatial covariance at one TF bin."""

    matrix: np.ndarray  # (M, M) complex, Hermitian PSD
    frames_used: int


@dataclass
class EigenSummary:
    """Principal eigenvector and the eigenvalue spectrum of a Hermitian covariance."""

    vector: np.ndarray  # (M,) complex, unit norm
    values: np.ndarray  # absolute eigenvalues, descending, >= 0


def local_covariance(
    spec: ComplexSpectrogram, t: int, f: int, half_window: int = 3
) -> CovarianceEstimate:
    """Average outer product over frames [t-half, t+half], truncated at edges.

    Args:
        spec: complex spectrogram stack.
        t, f: frame and bin index.
        half_window: frames averaged on each side of t.

    Returns:
        CovarianceEstimate with the actual frame count used.
    """
    T = spec.n_frames
    if not (0 <= t < T) or not (0 <= f < spec.n_bins):
        raise ValueError(f"bin (t={t}, f={f}) out of range")
    if half_window < 0:
        raise ValueError("half_window must be >= 0")
    cov, used = _covariances_at(spec.data, np.array([t]), np.array([f]), half_window)
    return CovarianceEstimate(matrix=cov[0], frames_used=int(used[0]))


def eigen_summary(matrix: np.ndarray, check: bool = True) -> EigenSummary:
    """Hermitian eigendecomposition of a PSD matrix.

    The principal vector belongs to the largest eigenvalue. Its phase is fixed
    by making its first component of magnitude >= 1e-12 real and non-negative,
    so repeated calls are deterministic. The values are the absolute
    eigenvalues in descending order, which for a Hermitian matrix equal its
    singular values.

    Args:
        matrix: (M, M) Hermitian positive semi-definite.
        check: validate Hermitian symmetry (small tolerance).

    Returns:
        EigenSummary with unit-norm principal vector and descending values.
    """
    matrix = np.asarray(matrix)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise ValueError("matrix must be square")
    if check and not np.allclose(matrix, matrix.conj().T, atol=1e-10 * (1 + np.abs(matrix).max())):
        raise ValueError("matrix is not Hermitian")
    vectors, values = _principal(matrix[None])
    return EigenSummary(vector=_fix_phase(vectors)[0], values=values[0])


def _fix_phase(vectors: np.ndarray, eps: float = 1e-12) -> np.ndarray:
    """Rotate each row so its first component with |.| >= eps is real >= 0."""
    out = vectors.copy()
    fixed = np.zeros(len(out), dtype=bool)
    for k in range(out.shape[1]):
        comp = out[:, k]
        use = (~fixed) & (np.abs(comp) >= eps)
        if np.any(use):
            phase = comp[use] / np.abs(comp[use])
            out[use] *= np.conj(phase)[:, None]
            fixed |= use
        if fixed.all():
            break
    return out


def dominance_ratio(summary: EigenSummary, eps: float = 1e-12) -> float:
    """Ratio of the two largest absolute eigenvalues, lambda1 / (lambda2 + eps).

    Large ratios indicate a single dominant propagation direction at the bin;
    the selection threshold compares against BinSelectionConfig.beta_ratio.
    """
    if len(summary.values) < 2:
        raise ValueError("need at least a 2x2 covariance")
    return float(_dominance(summary.values, eps))


def track_noise_floor(mag: np.ndarray, cfg: BinSelectionConfig) -> np.ndarray:
    """Adaptive per-bin noise floor of a magnitude sequence.

    The first init_frames frames are assumed noise-only and their mean seeds
    the floor; afterwards the floor rises by delta_up when the current
    magnitude exceeds it and decays by delta_down otherwise.

    Args:
        mag: (T,) or (T, F) non-negative magnitudes of the reference channel.
        cfg: tracker constants.

    Returns:
        Floor estimate with the same shape as mag.
    """
    mag = np.asarray(mag, dtype=np.float64)
    squeeze = mag.ndim == 1
    if squeeze:
        mag = mag[:, None]
    if mag.shape[0] == 0:
        raise ValueError("empty magnitude sequence")
    tracker = _NoiseFloor(cfg, mag.shape[0])
    eta = tracker.rows(mag, 0, mag[: tracker.init])
    return eta[:, 0] if squeeze else eta


class _NoiseFloor:
    """track_noise_floor over consecutive runs of frames.

    The state between runs is the floor row of the last frame given, plus the
    first init frames' mean (the floor of each of them).
    """

    def __init__(self, cfg: BinSelectionConfig, n_frames: int):
        self.init = min(max(cfg.noise_init_frames, 1), n_frames)
        self.up = 1.0 + cfg.noise_delta_up
        self.down = 1.0 - cfg.noise_delta_down
        self.init_row = None
        self.prev = None

    def rows(self, mag: np.ndarray, start: int, head: np.ndarray) -> np.ndarray:
        """Floor of frames start, start+1, ... given their magnitudes mag (n, F).

        head holds the magnitudes of the first init frames; it is read only
        on the first call, which must start at frame 0.
        """
        if self.init_row is None:
            self.init_row = head.mean(axis=0)
        eta = np.empty_like(mag)
        for k in range(len(mag)):
            if start + k < self.init:
                eta[k] = self.init_row
            else:
                prev = self.prev
                eta[k] = np.where(mag[k] > prev, prev * self.up, prev * self.down)
            self.prev = eta[k]
        return eta


def _cumulative_squares(mag: np.ndarray, carry: np.ndarray) -> np.ndarray:
    """carry followed by carry plus the running sum of mag**2 along axis 0.

    np.cumsum adds frame after frame, so a run continued from the carried
    last row has the same bits as one sum over the whole clip.
    """
    return np.cumsum(np.concatenate([carry[None], mag * mag]), axis=0)


def _windowed_rms(
    cs: np.ndarray, t: np.ndarray, half: int, n_frames: int, first: int = 0
) -> np.ndarray:
    """RMS over frames t-half..t+half (truncated to the clip) of each frame t.

    cs[k - first] is the sum of squares over frames before k.
    """
    lo = np.maximum(t - half, 0)
    hi = np.minimum(t + half, n_frames - 1)
    counts = (hi - lo + 1).reshape((len(t),) + (1,) * (cs.ndim - 1))
    return np.sqrt((cs[hi + 1 - first] - cs[lo - first]) / counts)


class _Gate:
    """The magnitude test of salsa_stream, on channel 0's passband bins.

    It is given the channel-0 spectrogram of every frame in order from frame
    0 and keeps, from frame `first` on, |X_0| on the `bins` slice, its noise
    floor (_NoiseFloor, advanced as frames arrive once the first init frames
    have) and its cumulative squares: cs[k - first] sums |X_0|^2 over the
    frames before k. Outside the passband the test's result is never used.
    """

    def __init__(self, cfg: BinSelectionConfig, n_frames: int, bins: slice):
        self.cfg, self.n_frames, self.bins = cfg, n_frames, bins
        width = bins.stop - bins.start
        self.floor = _NoiseFloor(cfg, n_frames)
        self.first = 0
        self.mag = np.empty((0, width))
        self.eta = np.empty((0, width))  # floor of frames first..first+len(eta)-1
        self.cs = np.zeros((1, width))

    @property
    def end(self) -> int:
        """One past the last frame given."""
        return self.first + len(self.mag)

    def add(self, spec0: np.ndarray) -> None:
        """Take channel 0's spectrogram (n, F) of the next n frames."""
        new = np.abs(spec0[:, self.bins])
        self.mag = np.concatenate([self.mag, new])
        self.cs = np.concatenate([self.cs, _cumulative_squares(new, self.cs[-1])[1:]])
        if self.end >= self.floor.init:
            known = len(self.eta)
            rows = self.floor.rows(self.mag[known:], self.first + known, self.mag[: self.floor.init])
            self.eta = np.concatenate([self.eta, rows])

    def passes(self, lo: int, hi: int) -> np.ndarray:
        """Test of frames lo..hi-1, (hi - lo, bins): smoothed |X_0| above alpha_mag times the floor.

        Needs the frames within rms_half_window after hi - 1 (or the clip's end).
        """
        rows = np.arange(lo, hi)
        rms = _windowed_rms(self.cs, rows, self.cfg.rms_half_window, self.n_frames, self.first)
        return rms > self.cfg.alpha_mag * self.eta[lo - self.first : hi - self.first]

    def drop(self, frame: int) -> None:
        """Forget the frames before `frame` that the floor has passed."""
        k = min(frame - self.first, len(self.eta))
        if k > 0:
            self.mag, self.eta, self.cs = self.mag[k:], self.eta[k:], self.cs[k:]
            self.first += k


def running_rms(mag: np.ndarray, half_window: int = 1) -> np.ndarray:
    """Centered running RMS along the first axis, window truncated at edges."""
    mag = np.asarray(mag, dtype=np.float64)
    T = mag.shape[0]
    cs = _cumulative_squares(mag, np.zeros(mag.shape[1:]))
    return _windowed_rms(cs, np.arange(T), half_window, T)


def magnitude_test(
    mag: np.ndarray, floor: np.ndarray, cfg: BinSelectionConfig
) -> np.ndarray:
    """True where the smoothed magnitude clears alpha_mag times the floor."""
    rms = running_rms(mag, cfg.rms_half_window)
    return rms > cfg.alpha_mag * floor


def eigenvector_intensity_vector(
    summary: EigenSummary, eps: float = 1e-12
) -> np.ndarray:
    """Direction estimate from a principal eigenvector of ambisonic channels.

    Normalizes the eigenvector by its omnidirectional (first) component, takes
    the real part of the remaining components and scales to unit norm. Returns
    the zero vector when the first component or the real part is degenerate.
    """
    return _directions(summary.vector[None], "foa", eps)[0]


def eigenvector_phase_vector(
    summary: EigenSummary,
    f_hz: float,
    speed_of_sound: float = SPEED_OF_SOUND,
    eps: float = 1e-12,
) -> np.ndarray:
    """Inter-channel delay estimate (metres) from a principal eigenvector.

    Normalizes the eigenvector by its first (reference channel) component and
    converts the residual phases to path-length differences at f_hz. For a
    far-field source this approximates the relative distances on the wavefront.
    Returns zeros for non-positive frequencies or a degenerate reference
    component.
    """
    return _directions(summary.vector[None], "mic", eps, np.array([f_hz]), speed_of_sound)[0]


def passband_bins(n_bins: int, bin_hz: float, cfg: BinSelectionConfig) -> np.ndarray:
    """Boolean mask of bins whose center frequency lies in [f_low, f_high]."""
    freqs = np.arange(n_bins) * bin_hz
    return (freqs >= cfg.f_low) & (freqs <= cfg.f_high)


# Bins per gather in _covariances_at: the products of 256 bins' 7-frame
# windows of 4 channels take 0.5 MB, while a whole block's bins can take
# tens of MB at a loud onset.
_COV_BINS = 256


def _covariances_at(
    data: np.ndarray,
    t_idx: np.ndarray,
    f_idx: np.ndarray,
    half: int,
    first: int = 0,
    n_frames: int | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Local covariances (N, M, M) and frame counts (N,) at the (t, f) bins.

    data is (M, n, F) and holds frames first..first+n-1 of a clip of n_frames
    frames (default: the whole clip, first = 0); it must cover every frame
    within half of each t inside the clip. Each bin averages x x^H over
    frames t-half..t+half, with frames past either end of the clip masked
    out. The 2*half+1 frames of up to _COV_BINS bins are gathered at once,
    and their products are added to zero in offset order (the offset axis
    is the outermost, so the reduction adds one whole offset at a time),
    which gives the same bits for any number of bins.
    """
    M = data.shape[0]
    T = data.shape[1] if n_frames is None else n_frames
    offsets = np.arange(-half, half + 1)[:, None]
    cov = np.empty((len(t_idx), M, M), dtype=np.complex128)
    for lo in range(0, len(t_idx), _COV_BINS):
        part = slice(lo, lo + _COV_BINS)
        frames = t_idx[part] + offsets  # (2*half+1, n)
        x = data[:, np.clip(frames, 0, T - 1) - first, f_idx[part]]
        x = np.moveaxis(x * ((frames >= 0) & (frames < T)), 0, -1)  # (2*half+1, n, M)
        cov[part] = np.add.reduce(x[..., :, None] * x[..., None, :].conj(), axis=0, initial=0)
    used = np.minimum(t_idx + half, T - 1) - np.maximum(t_idx - half, 0) + 1
    return cov / used[:, None, None], used


def _principal(cov: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Principal eigenvectors (N, M) and descending absolute eigenvalues (N, M).

    cov is (N, M, M) Hermitian; the vector belongs to the largest eigenvalue.
    """
    w, v = np.linalg.eigh(cov)
    return v[:, :, -1], np.sort(np.abs(w), axis=1)[:, ::-1]


def _dominance(values: np.ndarray, eps: float) -> np.ndarray:
    """lambda1 / (lambda2 + eps) of descending eigenvalues (..., M)."""
    return values[..., 0] / (values[..., 1] + eps)


def _directions(
    vectors: np.ndarray,
    kind: str,
    eps: float,
    f_hz: np.ndarray | None = None,
    speed_of_sound: float = SPEED_OF_SOUND,
) -> np.ndarray:
    """Direction cues (N, M-1) from principal eigenvectors (N, M).

    Each vector is divided by its first (reference) component. foa keeps the
    real part scaled to unit norm; mic converts the phases to path-length
    differences in metres at f_hz (N,). Rows with a reference component below
    eps, a foa real part of norm below eps or a non-positive mic frequency are
    zero.
    """
    u0 = vectors[:, 0]
    ok = np.abs(u0) >= eps
    if kind == "mic":
        ok &= f_hz > 0
    ubar = vectors[ok, 1:] / u0[ok, None]
    out = np.zeros((len(vectors), vectors.shape[1] - 1))
    if kind == "foa":
        v = np.real(ubar)
        norms = np.linalg.norm(v, axis=1, keepdims=True)
        v = np.divide(v, norms, out=np.zeros_like(v), where=norms >= eps)
    else:
        v = -speed_of_sound * np.angle(ubar) / (2.0 * np.pi * f_hz[ok, None])
    out[ok] = v
    return out


def salsa(
    spec: ComplexSpectrogram,
    fmt: ArrayFormat,
    cfg: BinSelectionConfig | None = None,
) -> FeatureTensor:
    """Whole-clip salsa_stream: the feature stack of a complex spectrogram.

    Args:
        spec: complex spectrogram, channels x frames x bins.
        fmt: input format; its channel count must match the spectrogram's.
        cfg: selection config; defaults to the format's standard cutoffs.

    Returns:
        FeatureTensor with M "spec" channels and M-1 "spatial" channels; its
        meta holds the gate counts (see salsa_stream).
    """
    return salsa_stream(spec.stream(), fmt, cfg).collect()


def salsa_stream(
    spec: SpectrogramStream,
    fmt: ArrayFormat,
    cfg: BinSelectionConfig | None = None,
    frames: slice = slice(None),
) -> FeatureStream:
    """Log spectrograms stacked with per-bin principal-eigenvector directions.

    Pipeline per TF bin: adaptive noise floor and running-RMS magnitude test
    on the first channel; inside the passband, the local covariance's Hermitian
    eigendecomposition and the dominance-ratio test on its two largest absolute
    eigenvalues; then a direction feature from the principal eigenvector
    (real-part intensity style for foa, phase/delay style for mic). Spatial
    channels are zero wherever any test fails or outside [f_low, f_high].
    All channels pass through high-band compression at the end.

    Every test is local in time, so the features are built as the spectrogram
    blocks arrive. A frame is finished once the frames its running RMS and
    covariance window reach have arrived (and the first init frames that
    seed the noise floor); between blocks only those halo frames, the last
    noise-floor row and the last row of the cumulative squares are kept,
    the last two on passband bins only. The output has the same bits
    whatever the block sizes.

    With `frames`, only those frames are built: the noise floor and the
    cumulative squares at the range's halo come from a pass over channel 0
    alone up to there, and the full spectrogram is read from the halo on.
    The blocks hold the same bits as the whole tensor's rows.

    The counts of the result are three gate counts over the frames built,
    filled once every block has been read: in_band_bins (frames x passband
    bins), candidates (in-band cells that pass the magnitude test) and
    selected (candidates that also pass the coherence test and so carry a
    cue).

    Args:
        spec: complex spectrogram stream, channels x frames x bins.
        fmt: input format; its channel count must match the spectrogram's.
        cfg: selection config; defaults to the format's standard cutoffs.
        frames: the frames to build (default all).

    Returns:
        FeatureStream with M "spec" channels and M-1 "spatial" channels.
    """
    if cfg is None:
        cfg = BinSelectionConfig.for_format(fmt.kind)
    M, T, F = spec.n_channels, spec.n_frames, spec.n_bins
    if M != fmt.n_channels:
        raise ValueError(f"{fmt.kind} input must have {fmt.n_channels} channels, got {M}")
    n_bands = compressed_bands(F, cfg.compress_start_bin, cfg.compress_factor)
    meta = {
        "feature": "salsa",
        "format": fmt.kind,
        "bin_hz": spec.bin_hz,
        "frame_rate": spec.frame_rate,
        "f_low": cfg.f_low,
        "f_high": cfg.f_high,
        "compress_start_bin": cfg.compress_start_bin,
        "compress_factor": cfg.compress_factor,
        "speed_of_sound": cfg.speed_of_sound,
    }
    counts = {"in_band_bins": 0, "candidates": 0, "selected": 0}
    return FeatureStream(
        (2 * M - 1, T, n_bands),
        ["spec"] * M + ["spatial"] * (M - 1),
        "linear",
        meta,
        _salsa_blocks(spec, fmt, cfg, frames, counts),
        counts,
    )


def _salsa_blocks(
    spec: SpectrogramStream,
    fmt: ArrayFormat,
    cfg: BinSelectionConfig,
    frames: slice,
    counts: dict,
):
    """Output blocks of salsa_stream for `frames`; adds the gate counts to counts."""
    M, T, F = spec.n_channels, spec.n_frames, spec.n_bins
    lo, hi, _ = frames.indices(T)
    n_bands = compressed_bands(F, cfg.compress_start_bin, cfg.compress_factor)
    half = cfg.cov_half_window
    reach = max(half, cfg.rms_half_window)  # frames a cell's tests read on each side
    band = np.flatnonzero(passband_bins(F, spec.bin_hz, cfg))
    bins = slice(band[0], band[-1] + 1) if len(band) else slice(0, 0)
    gate = _Gate(cfg, T, bins)
    # The full spectrogram is read from the range's halo, frame `first`, on;
    # a pass over channel 0 alone gives the gate every frame before it.
    first = max(lo - reach, 0)
    for part in spec.blocks(slice(0, first), channels=1):
        gate.add(part[0])
        gate.drop(gate.end)

    def compress(x):
        return compress_high_bands(x, cfg.compress_start_bin, cfg.compress_factor)

    data = np.empty((M, 0, F), dtype=np.complex128)
    done = lo
    for part in spec.blocks(slice(first, max(hi + reach, gate.floor.init))):
        data = np.concatenate([data, part], axis=1)
        gate.add(part[0])
        # Frames done..ready-1 can be finished: their windows end before
        # the last frame received (or at the clip's end), and the frames
        # that seed the noise floor have arrived.
        end = first + data.shape[1]
        if end == T:
            ready = T
        elif end >= gate.floor.init:
            ready = max(end - reach, done)
        else:
            ready = done
        ready = min(ready, hi)
        if ready == done:
            continue

        t_idx, f_idx = np.nonzero(gate.passes(done, ready))
        t_idx += done
        f_idx += bins.start
        cov, _ = _covariances_at(data, t_idx, f_idx, half, first, T)
        vectors, values = _principal(cov)
        coherent = _dominance(values, cfg.ratio_eps) > cfg.beta_ratio
        cues = _directions(
            vectors[coherent], fmt.kind, cfg.component_eps,
            f_idx[coherent] * spec.bin_hz, cfg.speed_of_sound,
        ).T
        counts["in_band_bins"] += (ready - done) * len(band)
        counts["candidates"] += len(t_idx)
        counts["selected"] += int(coherent.sum())

        rows = slice(done - first, ready - first)
        block = ComplexSpectrogram(data[:, rows], spec.bin_hz, spec.frame_rate)
        out = np.empty((2 * M - 1, ready - done, n_bands))
        out[:M] = compress(log_linear_spectrogram(block, cfg.log_floor).data)
        spatial = np.zeros((M - 1, ready - done, F))
        spatial[:, t_idx[coherent] - done, f_idx[coherent]] = cues
        out[M:] = compress(spatial)
        yield out

        done = ready  # keep the halo the next frames' windows reach back into
        drop = max(done - reach, 0) - first
        data = data[:, drop:]
        first += drop
        gate.drop(first)
