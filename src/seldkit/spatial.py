"""Spatial analysis: array formats, local covariance, principal eigenvectors,
bin selection and the eigenvector direction cues of the salsa feature.

ArrayFormat owns the cue model: a format's channel gains (steering), the cue
of a principal eigenvector (cues) and how a turn of the scene moves channels
and cues (channel_map, turn_cues). Three functions take a batch of TF bins:
`local_covariance` gathers each bin's frames into its covariance,
`eigen_summary` gives Hermitian eigendecompositions and `dominance_ratio`
their coherence ratios. `salsa_cues` runs them on the candidate bins of
each frame block, read with the frames its windows reach. Its magnitude
gate carries one state across blocks, the noise floor. The salsa stack,
log spectrograms over these cues, is built by baseline.assemble_stream
like every other kind.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .stft import COMPRESS_FACTOR, COMPRESS_START_BIN, LOG_FLOOR, SpectrogramStream, frame_blocks

SPEED_OF_SOUND = 343.0
# Magnitude below which a norm, a reference component or an eigenvalue
# denominator counts as zero, here and in the baseline stacks.
_EPS = 1e-12

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
        if not (0 < self.speed_of_sound < np.inf):
            raise ValueError(f"speed_of_sound must be finite and > 0, not {self.speed_of_sound}")
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

    def check_channels(self, n: int) -> None:
        """Raise ValueError unless an input of n channels fits this format."""
        if n != self.n_channels:
            raise ValueError(f"{self.kind} input must have {self.n_channels} channels, got {n}")

    def steering(self, u: np.ndarray, f_hz: np.ndarray) -> np.ndarray:
        """Channel gains of far-field sources at directions u (n, 3) and
        frequencies f_hz (n, K): (1, x, y, z) for foa, as (4, n, 1); for mic,
        (M, n, K) phases exp(-j 2 pi f d_m / c), d_m = (p_0 - p_m) . u."""
        if self.kind == "foa":
            return np.concatenate([np.ones((len(u), 1)), u], axis=1).T[:, :, None]
        d = (self.mic_positions[0] - self.mic_positions) @ u.T  # (M, n)
        # One expression, so the phase array is freed before the exponential.
        return np.exp(1j * self._phase(d[:, :, None], f_hz))

    def _phase(self, a, b):
        """-2 pi a b / c, the phase of a path length at a frequency or the
        reverse; the products round in the order given, which callers fix."""
        return -2.0 * np.pi * a * b / self.speed_of_sound

    def _path_length(self, phase, f_hz):
        """-c phase / (2 pi f_hz), the inverse of _phase."""
        return -self.speed_of_sound * phase / (2.0 * np.pi * f_hz)

    def cues(self, vectors: np.ndarray, f_hz: np.ndarray | None = None) -> np.ndarray:
        """Direction cues (N, M-1) of principal eigenvectors (N, M).

        Each vector is divided by its first (reference) component. foa keeps
        the real part scaled to unit norm; mic turns the phases into
        path-length differences in metres at f_hz (N,). Rows with a reference
        component below _EPS, a foa real part of norm below _EPS or a
        non-positive mic frequency are zero.
        """
        u0 = vectors[:, 0]
        ok = np.abs(u0) >= _EPS
        if self.kind == "mic":
            ok &= f_hz > 0
        ubar = vectors[ok, 1:] / u0[ok, None]
        out = np.zeros((len(vectors), vectors.shape[1] - 1))
        if self.kind == "foa":
            out[ok] = _unit(np.real(ubar), axis=1)
        else:
            out[ok] = self._path_length(np.angle(ubar), f_hz[ok, None])
        return out

    def turn_cues(self, cues, perm, sign, f_hz: np.ndarray) -> np.ndarray:
        """Cues (M-1, frames, bands) of the scene turned by channel_map's (perm,
        sign); cue m-1 is channel m's. foa: sign[m] times cue perm[m]-1, + 0.0
        so a cell without a cue stays +0.0 as in the turned scene. mic: capsule
        m's path length to capsule 0 is re-referenced to the new capsule 0 and
        re-wrapped at the frequencies f_hz of the first bands; averaged high
        bands past them have no single frequency. Cells without a cue hold
        +-0.0, which the re-wrap keeps, so only non-zero cells above 0 Hz are
        re-wrapped."""
        perm, sign = np.asarray(perm), np.asarray(sign)
        if self.kind == "foa":
            return sign[1:, None, None] * cues[perm[1:] - 1] + 0.0
        d = np.concatenate([np.zeros_like(cues[:1]), cues])
        out = d[perm[1:]] - d[perm[0]]
        head = out[..., : len(f_hz)]
        cells = np.nonzero((head != 0) & (f_hz > 0))
        f = f_hz[cells[-1]]
        phase = self._phase(f, head[cells])
        head[cells] = self._path_length(np.arctan2(np.sin(phase), np.cos(phase)), f)
        return out

    def aliasing_frequency(self) -> float:
        """c / (2 r) with r the largest capsule distance from the centroid."""
        if self.kind == "foa":
            return float("inf")
        center = self.mic_positions.mean(axis=0)
        radius = np.linalg.norm(self.mic_positions - center, axis=1).max()
        return self.speed_of_sound / (2.0 * radius)

    def channel_map(self, matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(perm, sign) of a scene turned by a direction matrix: output channel
        m is sign[m] times input channel perm[m]. foa: W stays, X, Y, Z follow
        the rows of a 3x3 signed permutation. mic: capsule m takes the capsule
        at matrix^T . p_m, sign +1. ValueError unless the array maps onto itself."""
        A = np.asarray(matrix)
        if self.kind == "foa":
            check_signed_permutation(A, "a foa channel map's matrix")
            rows, cols = np.nonzero(A)  # row i's one entry, in row order
            return np.r_[0, 1 + cols], np.r_[1, A[rows, cols]].astype(np.int64)
        p = self.mic_positions
        hits = ((p @ A)[:, None] == p).all(axis=2)  # [m, k]
        if not (hits.sum(axis=0) == 1).all() or not (hits.sum(axis=1) == 1).all():
            raise ValueError("the matrix does not map the mic array onto itself")
        return np.nonzero(hits)[1], np.ones(len(p), dtype=np.int64)


def check_signed_permutation(matrix: np.ndarray, name: str) -> None:
    """Raise ValueError unless matrix is a 3x3 signed permutation: one +-1 per row and column."""
    A = np.asarray(matrix)
    signed = A.shape == (3, 3) and np.isin(A, (-1, 0, 1)).all()
    if not (signed and np.array_equal(A @ A.T, np.eye(3))):
        raise ValueError(f"{name} must be a 3x3 signed permutation matrix")


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
    log_floor: float = LOG_FLOOR
    compress_start_bin: int = COMPRESS_START_BIN
    compress_factor: int = COMPRESS_FACTOR

    def __post_init__(self):
        for name in ("f_low", "f_high", "alpha_mag", "beta_ratio"):
            if not np.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if self.noise_init_frames < 1:
            raise ValueError("noise_init_frames must be >= 1")
        if self.cov_half_window < 0 or self.rms_half_window < 0:
            raise ValueError("cov_half_window and rms_half_window must be >= 0")
        if not (0 <= self.noise_delta_up < np.inf):
            raise ValueError("noise_delta_up must be finite and >= 0")
        if not (0 <= self.noise_delta_down < 1):
            raise ValueError("noise_delta_down must be in [0, 1)")
        if not (0 <= self.log_floor < np.inf):
            raise ValueError("log_floor must be finite and >= 0")

    @classmethod
    def for_format(cls, kind: str) -> "BinSelectionConfig":
        # Upper cutoff: the default, directional response validity, for foa;
        # spatial aliasing of the default array for mic.
        if kind not in ("foa", "mic"):
            raise ValueError(f"unknown format kind {kind!r}")
        return cls() if kind == "foa" else cls(f_high=4000.0)


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
    eta = _floor_rows(mag, 0, mag[: cfg.noise_init_frames].mean(axis=0), cfg)
    return eta[:, 0] if squeeze else eta


def _floor_rows(
    mag: np.ndarray, start: int, prev: np.ndarray, cfg: BinSelectionConfig
) -> np.ndarray:
    """track_noise_floor of frames start, start+1, ... given their magnitudes mag (n, F).

    prev is the floor of frame start-1, or at frame 0 the first init frames'
    mean, which is the floor of each of them.
    """
    up, down = 1.0 + cfg.noise_delta_up, 1.0 - cfg.noise_delta_down
    eta = np.empty_like(mag)
    seeded = min(max(cfg.noise_init_frames - start, 0), len(mag))
    eta[:seeded] = prev
    for k in range(seeded, len(mag)):
        prev = np.multiply(prev, np.where(mag[k] > prev, up, down), out=eta[k])
    return eta


def _floor_before(
    spec: SpectrogramStream, cfg: BinSelectionConfig, bins: slice, first: int
) -> np.ndarray:
    """Noise floor of |X_0| on the `bins` slice at frame first - 1.

    Reads channel 0's first noise_init_frames frames, whose mean seeds the
    floor (and is the floor at frame -1), and then channel 0 alone over the
    frames before `first`, a frame block at a time.
    """
    seed = spec.read(0, min(cfg.noise_init_frames, spec.n_frames), 1)
    prev = np.abs(seed[0][:, bins]).mean(axis=0)
    for block in frame_blocks(first):
        part = spec.read(block.start, block.stop, 1)
        prev = _floor_rows(np.abs(part[0][:, bins]), block.start, prev, cfg)[-1]
    return prev


def _windowed_rms(
    sq: np.ndarray, lo: int, hi: int, half: int, n_frames: int, first: int = 0
) -> np.ndarray:
    """RMS over frames t-half..t+half (truncated to the clip) of frames t = lo..hi-1.

    sq holds the squared magnitudes of frames first, first+1, ... along axis
    0 and must cover every window. Each window's squares are added to zero
    in frame order, so a frame's RMS has the same bits whatever `first`.
    """
    total = np.zeros((hi - lo,) + sq.shape[1:])
    for off in range(-half, half + 1):
        a, b = max(lo + off, 0), min(hi + off, n_frames)  # frames read at this offset
        if a < b:
            total[a - off - lo : b - off - lo] += sq[a - first : b - first]
    t = np.arange(lo, hi)
    counts = np.minimum(t + half, n_frames - 1) - np.maximum(t - half, 0) + 1
    return np.sqrt(total / counts.reshape((-1,) + (1,) * (sq.ndim - 1)))


def magnitude_test(
    mag: np.ndarray, floor: np.ndarray, cfg: BinSelectionConfig
) -> np.ndarray:
    """True where the smoothed magnitude clears alpha_mag times the floor."""
    mag = np.asarray(mag, dtype=np.float64)
    rms = _windowed_rms(mag * mag, 0, len(mag), cfg.rms_half_window, len(mag))
    return rms > cfg.alpha_mag * floor


def passband_bins(n_bins: int, bin_hz: float, cfg: BinSelectionConfig) -> np.ndarray:
    """Boolean mask of bins whose center frequency lies in [f_low, f_high]."""
    freqs = np.arange(n_bins) * bin_hz
    return (freqs >= cfg.f_low) & (freqs <= cfg.f_high)


# Bins per gather in local_covariance: the products of 256 bins' 7-frame
# windows of 4 channels take 0.5 MB, while a whole block's bins can take
# tens of MB at a loud onset.
_COV_BINS = 256


def local_covariance(
    data: np.ndarray,
    t_idx: np.ndarray,
    f_idx: np.ndarray,
    half_window: int,
    first: int = 0,
    n_frames: int | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Local covariances (N, M, M) and frame counts (N,) at the (t, f) bins.

    data is (M, n, F) and holds frames first..first+n-1 of a clip of n_frames
    frames (default: the whole clip, first = 0); it must cover every frame
    within half_window of each t. Each bin averages x x^H over frames
    t-half_window..t+half_window, with frames past either end of the clip
    masked out. The windows of up to _COV_BINS bins are gathered at once,
    and their products are added to zero in offset order (the offset axis
    is the outermost, so the reduction adds one whole offset at a time),
    which gives the same bits for any number of bins. Raises ValueError for
    a bin outside the clip or a negative half_window.
    """
    M, F = data.shape[0], data.shape[2]
    T = data.shape[1] if n_frames is None else n_frames
    bad = (t_idx < 0) | (t_idx >= T) | (f_idx < 0) | (f_idx >= F)
    if bad.any():
        k = np.argmax(bad)
        raise ValueError(f"bin (t={t_idx[k]}, f={f_idx[k]}) out of range")
    if half_window < 0:
        raise ValueError("half_window must be >= 0")
    offsets = np.arange(-half_window, half_window + 1)[:, None]
    cov = np.empty((len(t_idx), M, M), dtype=np.complex128)
    for lo in range(0, len(t_idx), _COV_BINS):
        part = slice(lo, lo + _COV_BINS)
        frames = t_idx[part] + offsets  # (offsets, n)
        x = data[:, np.clip(frames, 0, T - 1) - first, f_idx[part]]
        x = np.moveaxis(x * ((frames >= 0) & (frames < T)), 0, -1)  # (offsets, n, M)
        cov[part] = np.add.reduce(x[..., :, None] * x[..., None, :].conj(), axis=0, initial=0)
    used = np.minimum(t_idx + half_window, T - 1) - np.maximum(t_idx - half_window, 0) + 1
    return cov / used[:, None, None], used


def eigen_summary(cov: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Principal eigenvectors (N, M) and descending absolute eigenvalues (N, M).

    cov is (N, M, M); each vector belongs to its matrix's largest eigenvalue,
    in whatever phase eigh gives (ArrayFormat.cues does not depend on it).
    The absolute eigenvalues of a Hermitian matrix are its singular values.
    Raises ValueError unless each matrix is within 1e-10 * (1 + its largest
    |entry|) of its conjugate transpose, which a NaN never is.
    """
    if cov.ndim != 3 or cov.shape[1] != cov.shape[2]:
        raise ValueError("cov must be a stack of square matrices")
    skew = np.abs(cov - cov.conj().transpose(0, 2, 1)).max(axis=(1, 2), initial=0)
    if not np.all(skew <= 1e-10 * (1 + np.abs(cov).max(axis=(1, 2), initial=0))):
        raise ValueError("matrix is not Hermitian")
    w, v = np.linalg.eigh(cov)
    return v[:, :, -1], np.sort(np.abs(w), axis=1)[:, ::-1]


def dominance_ratio(values: np.ndarray) -> np.ndarray:
    """lambda1 / (lambda2 + _EPS) of descending eigenvalues (..., M).

    Large ratios mean one propagation direction dominates the bin; salsa_cues
    compares them with BinSelectionConfig.beta_ratio.
    """
    return values[..., 0] / (values[..., 1] + _EPS)


def _unit(v: np.ndarray, axis: int) -> np.ndarray:
    """v scaled to unit norm along `axis`; vectors of norm below _EPS become zero."""
    norms = np.linalg.norm(v, axis=axis, keepdims=True)
    return np.divide(v, norms, out=np.zeros_like(v), where=norms >= _EPS)


def salsa_cues(
    spec: SpectrogramStream,
    fmt: ArrayFormat,
    cfg: BinSelectionConfig,
    frames: slice,
    counts: dict,
):
    """Principal-eigenvector direction cues of the frames `frames`, block by block.

    Yields (spectrogram rows (M, n, F), cues (M-1, n, F)) for each frame
    block (frame_blocks) of the range, in frame order; the rows are the
    complex spectrogram of the same frames. Pipeline per TF bin: adaptive
    noise floor and running-RMS magnitude test on channel 0; inside the
    passband, the local covariance's Hermitian eigendecomposition and the
    dominance-ratio test on its two largest absolute eigenvalues; then a
    direction from the principal eigenvector (fmt.cues). Cues are zero
    wherever a test fails or outside [f_low, f_high].

    The noise floor is the only state carried from frame to frame: it is
    seeded by the mean of the first noise_init_frames frames, and the floor
    before the range comes from a pass over channel 0 alone up to there
    (`_floor_before`). Every other test is local in time, so each block is
    read on its own together with the frames its running RMS and covariance
    windows reach on either side (cut at the clip's ends); between blocks
    only the floor row of the block's last frame is kept. The cues have the
    same bits whatever the block sizes or the range.

    Adds three gate counts over the frames built to `counts` once every
    block has been read: in_band_bins (frames x passband bins), candidates
    (in-band cells that pass the magnitude test) and selected (candidates
    that also pass the coherence test and so carry a cue).
    """
    M, T, F = spec.n_channels, spec.n_frames, spec.n_bins
    lo, hi, _ = frames.indices(T)
    half = cfg.cov_half_window
    reach = max(half, cfg.rms_half_window)  # frames a cell's tests read on each side
    band = np.flatnonzero(passband_bins(F, spec.bin_hz, cfg))
    bins = slice(band[0], band[-1] + 1) if len(band) else slice(0, 0)
    if lo >= hi:  # nothing to build; a 0-frame clip has no frame to seed the floor
        return
    prev = _floor_before(spec, cfg, bins, lo)  # floor of the frame before the block
    for block in frame_blocks(hi, lo):
        a, b = block.start, block.stop
        first = max(a - reach, 0)  # data holds frames first.. of the clip
        data = spec.read(first, min(b + reach, T), M)
        mag = np.abs(data[0, :, bins])
        eta = _floor_rows(mag[a - first : b - first], a, prev, cfg)
        prev = eta[-1]
        rms = _windowed_rms(mag * mag, a, b, cfg.rms_half_window, T, first)
        t_idx, f_idx = np.nonzero(rms > cfg.alpha_mag * eta)
        t_idx += a
        f_idx += bins.start
        cov, _ = local_covariance(data, t_idx, f_idx, half, first, T)
        vectors, values = eigen_summary(cov)
        coherent = dominance_ratio(values) > cfg.beta_ratio
        counts["in_band_bins"] += (b - a) * len(band)
        counts["candidates"] += len(t_idx)
        counts["selected"] += int(coherent.sum())

        cues = np.zeros((M - 1, b - a, F))
        cues[:, t_idx[coherent] - a, f_idx[coherent]] = fmt.cues(
            vectors[coherent], f_idx[coherent] * spec.bin_hz
        ).T
        yield data[:, a - first : b - first], cues
