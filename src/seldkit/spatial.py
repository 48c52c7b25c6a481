"""Spatial analysis: local covariance, principal eigenvectors, bin selection,
and the combined spectrogram + eigenvector-direction feature stack.

One batched core computes covariances by gathering each bin's frames
(`_covariances_at`), Hermitian eigendecompositions (`_principal`), coherence
ratios (`_dominance`) and direction cues (`_directions`). `salsa` runs it on
every candidate bin; the per-bin functions below run it on one.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .stft import (
    ComplexSpectrogram,
    FeatureTensor,
    compress_high_bands,
    compressed_bands,
    frame_blocks,
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
    T = mag.shape[0]
    if T == 0:
        raise ValueError("empty magnitude sequence")
    init = min(max(cfg.noise_init_frames, 1), T)
    eta = np.empty_like(mag)
    eta[:init] = mag[:init].mean(axis=0)[None, :]
    up = 1.0 + cfg.noise_delta_up
    down = 1.0 - cfg.noise_delta_down
    for t in range(init, T):
        prev = eta[t - 1]
        eta[t] = np.where(mag[t] > prev, prev * up, prev * down)
    return eta[:, 0] if squeeze else eta


def running_rms(mag: np.ndarray, half_window: int = 1) -> np.ndarray:
    """Centered running RMS along the first axis, window truncated at edges."""
    mag = np.asarray(mag, dtype=np.float64)
    sq = mag * mag
    T = sq.shape[0]
    cs = np.concatenate([np.zeros((1,) + sq.shape[1:]), np.cumsum(sq, axis=0)], axis=0)
    lo = np.maximum(np.arange(T) - half_window, 0)
    hi = np.minimum(np.arange(T) + half_window, T - 1)
    counts = (hi - lo + 1).reshape((T,) + (1,) * (sq.ndim - 1))
    return np.sqrt((cs[hi + 1] - cs[lo]) / counts)


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


def _covariances_at(
    data: np.ndarray, t_idx: np.ndarray, f_idx: np.ndarray, half: int
) -> tuple[np.ndarray, np.ndarray]:
    """Local covariances (N, M, M) and frame counts (N,) at the (t, f) bins.

    data is (M, T, F). Each bin averages x x^H over frames t-half..t+half,
    summed one offset at a time (so the only temporary is one (N, M, M)
    product), with frames past either end of the clip masked out.
    """
    M, T, _ = data.shape
    cov = np.zeros((len(t_idx), M, M), dtype=np.complex128)
    for d in range(-half, half + 1):
        frames = t_idx + d
        inside = (frames >= 0) & (frames < T)
        x = data[:, np.clip(frames, 0, T - 1), f_idx].T * inside[:, None]  # (N, M)
        cov += x[:, :, None] * x[:, None, :].conj()
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
    """Log spectrograms stacked with per-bin principal-eigenvector directions.

    Pipeline per TF bin: adaptive noise floor and running-RMS magnitude test
    on the first channel; inside the passband, the local covariance's Hermitian
    eigendecomposition and the dominance-ratio test on its two largest absolute
    eigenvalues; then a direction feature from the principal eigenvector
    (real-part intensity style for foa, phase/delay style for mic). Spatial
    channels are zero wherever any test fails or outside [f_low, f_high].
    All channels pass through high-band compression at the end.

    Gating, covariances and eigenvectors are computed over the whole clip.
    The log-power and direction channels are then built one block of frames
    at a time and written, compressed, into one preallocated output, so no
    whole-clip uncompressed stack exists.

    Args:
        spec: complex spectrogram, channels x frames x bins.
        fmt: input format; its channel count must match the spectrogram's.
        cfg: selection config; defaults to the format's standard cutoffs.

    Returns:
        FeatureTensor with M "spec" channels and M-1 "spatial" channels.
    """
    if cfg is None:
        cfg = BinSelectionConfig.for_format(fmt.kind)
    M, T, F = spec.data.shape
    if M != fmt.n_channels:
        raise ValueError(f"{fmt.kind} input must have {fmt.n_channels} channels, got {M}")

    mag = np.abs(spec.data[0])
    floor = track_noise_floor(mag, cfg)
    mag_mask = magnitude_test(mag, floor, cfg)
    band = passband_bins(F, spec.bin_hz, cfg)
    t_idx, f_idx = np.nonzero(mag_mask & band[None, :])
    del mag, floor, mag_mask

    cov, _ = _covariances_at(spec.data, t_idx, f_idx, cfg.cov_half_window)
    vectors, values = _principal(cov)
    coherent = _dominance(values, cfg.ratio_eps) > cfg.beta_ratio
    t_idx, f_idx = t_idx[coherent], f_idx[coherent]
    cues = _directions(
        vectors[coherent], fmt.kind, cfg.component_eps, f_idx * spec.bin_hz, cfg.speed_of_sound
    ).T

    def compress(x):
        return compress_high_bands(x, cfg.compress_start_bin, cfg.compress_factor)

    n_bands = compressed_bands(F, cfg.compress_start_bin, cfg.compress_factor)
    out = np.empty((2 * M - 1, T, n_bands))
    for block in frame_blocks(T):
        out[:M, block] = compress(log_linear_spectrogram(spec.block(block), cfg.log_floor).data)
        # np.nonzero lists cells frame by frame, so a block's cells are one run.
        lo, hi = np.searchsorted(t_idx, [block.start, block.stop])
        spatial = np.zeros((M - 1, block.stop - block.start, F))
        spatial[:, t_idx[lo:hi] - block.start, f_idx[lo:hi]] = cues[:, lo:hi]
        out[M:, block] = compress(spatial)
    return FeatureTensor(
        out,
        channel_roles=["spec"] * M + ["spatial"] * (M - 1),
        scale="linear",
        meta={
            "feature": "salsa",
            "format": fmt.kind,
            "bin_hz": spec.bin_hz,
            "frame_rate": spec.frame_rate,
            "f_low": cfg.f_low,
            "f_high": cfg.f_high,
            "compress_start_bin": cfg.compress_start_bin,
            "compress_factor": cfg.compress_factor,
            "speed_of_sound": cfg.speed_of_sound,
        },
    )
