"""Classical spatial feature stacks: intensity vectors and GCC-PHAT,
plus the assembler that builds every supported feature kind."""

from __future__ import annotations

import numpy as np

from . import spatial
from .stft import (
    ComplexSpectrogram,
    FeatureStream,
    FeatureTensor,
    SpectrogramStream,
    apply_filterbank,
    compress_high_bands,
    compressed_bands,
    log_linear_spectrogram,
    log_mel_spectrogram,
    mel_filterbank,
)

FEATURE_KINDS = ("melspeciv", "linspeciv", "melspecgcc", "linspecgcc", "salsa")
# Mel bands of the mel kinds (and lags of melspecgcc) unless the caller sets n_mels.
N_MELS = 128


def intensity_vector(spec: ComplexSpectrogram, eps: float = 1e-12) -> np.ndarray:
    """Active acoustic intensity direction from ambisonic channels.

    Computes Re[conj(W) * (X, Y, Z)] per TF bin and scales each bin to unit
    norm; the physical scaling constant is dropped. A source at azimuth 0,
    elevation 0 yields (+1, 0, 0). Bins with degenerate norm are zero.

    Args:
        spec: 4-channel ambisonic spectrogram (W, X, Y, Z order).
        eps: norm floor below which the bin is zeroed.

    Returns:
        (3, frames, bins) array of unit vectors or zeros.
    """
    if spec.n_channels != 4:
        raise ValueError("intensity vector needs 4 ambisonic channels")
    iv = np.real(np.conj(spec.data[0])[None, :, :] * spec.data[1:4])
    norms = np.linalg.norm(iv, axis=0)
    good = norms >= eps
    out = np.zeros_like(iv)
    np.divide(iv, norms[None, :, :], out=out, where=good[None, :, :])
    return out


def mel_intensity_vector(
    iv: np.ndarray, filterbank: np.ndarray, eps: float = 1e-12
) -> np.ndarray:
    """Project an intensity-vector field through a mel filterbank.

    Each Cartesian component is filtered independently, then each mel bin is
    re-normalized to unit norm (zero-safe). Overlapping sources merged by one
    filter come out as the normalized convex mix of their directions.
    """
    if filterbank.shape[0] != iv.shape[-1]:
        raise ValueError("filterbank rows must match intensity vector bins")
    proj = apply_filterbank(iv, filterbank)
    norms = np.linalg.norm(proj, axis=0)
    good = norms >= eps
    out = np.zeros_like(proj)
    np.divide(proj, norms[None, :, :], out=out, where=good[None, :, :])
    return out


def gcc_phat(
    spec: ComplexSpectrogram, i: int, j: int, n_lags: int, eps: float = 1e-12
) -> np.ndarray:
    """Phase-transform cross-correlation between two channels, per frame.

    Whitens the cross spectrum conj(X_i) * X_j to unit modulus and inverse
    transforms; when channel j is channel i delayed by d samples the peak sits
    at lag +d. Cross-spectrum entries below eps in magnitude are treated as
    zero phase. Values are bounded by 1 in magnitude.

    Args:
        spec: complex spectrogram stack.
        i, j: channel indices.
        n_lags: output window length; lags run (-n_lags/2, n_lags/2].

    Returns:
        (frames, n_lags) array centered on lag 0.
    """
    M = spec.n_channels
    if not (0 <= i < M and 0 <= j < M):
        raise ValueError(f"channel pair ({i}, {j}) out of range for {M} channels")
    fft_size = 2 * (spec.n_bins - 1)
    if not (0 < n_lags <= fft_size):
        raise ValueError(f"n_lags must be in (0, {fft_size}]")
    return _gcc_pairs(spec.data, [(i, j)], n_lags, eps)[0]


def _gcc_pairs(
    data: np.ndarray, pairs: list[tuple[int, int]], n_lags: int, eps: float = 1e-12
) -> np.ndarray:
    """gcc_phat of every (i, j) pair of data (M, T, F) at once, (pairs, T, n_lags).

    One cross-spectrum, one whitening and one inverse rfft cover the whole
    (pairs, T, F) stack, each done in place on one complex and one real
    array; every value is computed as for a single pair. The whitening
    multiplies by the reciprocal magnitude, which is what numpy's division
    of a complex by a real number computes, at half the cost.
    """
    fft_size = 2 * (data.shape[-1] - 1)
    i, j = np.array(pairs).T
    cross = np.conj(data[i])
    cross *= data[j]
    mag = np.abs(cross)
    degenerate = mag < eps
    np.reciprocal(np.maximum(mag, eps, out=mag), out=mag)
    cross *= mag
    cross[degenerate] = 1.0  # zero phase
    full = np.fft.irfft(cross, n=fft_size, axis=-1)
    lags = np.arange(-(n_lags // 2) + 1, n_lags // 2 + 1)
    return full[..., lags % fft_size]


def channel_pairs(n_channels: int) -> list[tuple[int, int]]:
    """Ordered upper-triangle channel pairs for GCC stacks."""
    return [(i, j) for i in range(n_channels) for j in range(i + 1, n_channels)]


def assemble(
    spec: ComplexSpectrogram,
    kind: str,
    fmt: spatial.ArrayFormat,
    cfg: spatial.BinSelectionConfig | None = None,
    n_mels: int = N_MELS,
) -> FeatureTensor:
    """Whole-clip assemble_stream: a named feature stack of a complex spectrogram."""
    return assemble_stream(spec.stream(), kind, fmt, cfg, n_mels).collect()


def assemble_stream(
    spec: SpectrogramStream,
    kind: str,
    fmt: spatial.ArrayFormat,
    cfg: spatial.BinSelectionConfig | None = None,
    n_mels: int = N_MELS,
    frames: slice = slice(None),
) -> FeatureStream:
    """Build a named feature stack, or the frames `frames` of it, from a spectrogram stream.

    Kinds and layouts for a 4-channel input:
      melspeciv   4 log-mel + 3 mel intensity vector     -> 7 x T x n_mels
      linspeciv   4 log-linear + 3 intensity vector      -> 7 x T x F'
      melspecgcc  4 log-mel + 6 GCC-PHAT (n_mels lags)   -> 10 x T x n_mels
      linspecgcc  4 log-linear + 6 GCC-PHAT (F' lags)    -> 10 x T x F'
      salsa       4 log-linear + 3 eigenvector direction -> 7 x T x F'
    where F' is the band count after high-band compression. Intensity-vector
    kinds require the foa format; mic inputs must have one channel per capsule.
    Every channel of the four classical kinds depends on its own frame only,
    so each spectrogram block of `frames` gives one output block; salsa is
    spatial.salsa_stream. The stream's shape is the whole tensor's either
    way, and its blocks hold the same bits as the whole tensor's rows.
    Arguments are checked before any block is read.
    """
    if kind not in FEATURE_KINDS:
        raise ValueError(f"unknown feature kind {kind!r}; expected one of {FEATURE_KINDS}")
    if kind == "salsa":
        return spatial.salsa_stream(spec, fmt, cfg, frames)
    if cfg is None:
        cfg = spatial.BinSelectionConfig.for_format(fmt.kind)
    if kind in ("melspeciv", "linspeciv") and fmt.kind != "foa":
        raise ValueError(f"{kind} requires the foa format")

    M = spec.n_channels
    if fmt.kind == "mic" and M != fmt.n_channels:
        raise ValueError(f"mic input must have {fmt.n_channels} channels, got {M}")
    fft_size = 2 * (spec.n_bins - 1)
    sample_rate = spec.bin_hz * fft_size
    meta = {
        "feature": kind,
        "format": fmt.kind,
        "bin_hz": spec.bin_hz,
        "frame_rate": spec.frame_rate,
    }

    def compress(x):
        return compress_high_bands(x, cfg.compress_start_bin, cfg.compress_factor)

    if kind.startswith("mel"):
        fb = mel_filterbank(int(round(sample_rate)), fft_size, n_mels)
        n_out = n_mels
        scale = "mel"
        meta["n_mels"] = n_mels
    else:
        n_out = compressed_bands(spec.n_bins, cfg.compress_start_bin, cfg.compress_factor)
        scale = "linear"
        meta["compress_start_bin"] = cfg.compress_start_bin
        meta["compress_factor"] = cfg.compress_factor
    if kind.endswith("iv"):
        roles = ["spec"] * M + ["spatial"] * 3
    else:
        pairs = channel_pairs(M)
        roles = ["spec"] * M + ["gcc"] * len(pairs)
        meta["n_lags"] = n_out

    def blocks():
        for data in spec.blocks(frames):
            part = ComplexSpectrogram(data, spec.bin_hz, spec.frame_rate)
            out = np.empty((len(roles), part.n_frames, n_out))
            if scale == "mel":
                out[:M] = log_mel_spectrogram(part, fb, floor=cfg.log_floor).data
            else:
                out[:M] = compress(log_linear_spectrogram(part, floor=cfg.log_floor).data)
            if kind == "melspeciv":
                out[M:] = mel_intensity_vector(intensity_vector(part), fb)
            elif kind == "linspeciv":
                out[M:] = compress(intensity_vector(part))
            elif pairs:
                out[M:] = _gcc_pairs(data, pairs, n_out)
            yield out

    return FeatureStream((len(roles), spec.n_frames, n_out), roles, scale, meta, blocks())
