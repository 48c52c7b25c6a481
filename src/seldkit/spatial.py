"""Spatial analysis: local covariance, principal eigenvectors, bin selection
and the eigenvector direction cues of the salsa feature.

One batched core computes covariances by gathering each bin's frames
(`_covariances_at`), Hermitian eigendecompositions (`_principal`), coherence
ratios (`_dominance`) and direction cues (`_directions`). `salsa_cues` runs
it on the candidate bins of each run of frames as spectrogram blocks arrive,
and the per-bin functions below run it on one bin. The salsa stack itself,
log spectrograms over these cues, is built by baseline.assemble_stream like
every other feature kind.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .stft import ComplexSpectrogram, SpectrogramStream

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
        return np.exp(1j * (-2.0 * np.pi * d[:, :, None] * f_hz / self.speed_of_sound))

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
    log_floor: float = 1e-12
    compress_start_bin: int = 192
    compress_factor: int = 8

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


def eigen_summary(matrix: np.ndarray) -> EigenSummary:
    """Hermitian eigendecomposition of a PSD matrix.

    The principal vector belongs to the largest eigenvalue. Its phase is fixed
    by making its first component of magnitude >= 1e-12 real and non-negative,
    so repeated calls are deterministic. The values are the absolute
    eigenvalues in descending order, which for a Hermitian matrix equal its
    singular values.

    Args:
        matrix: (M, M) Hermitian positive semi-definite; raises ValueError
            if it differs from its conjugate transpose by more than
            1e-10 * (1 + max |entry|) anywhere (or holds a NaN).

    Returns:
        EigenSummary with unit-norm principal vector and descending values.
    """
    matrix = np.asarray(matrix)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise ValueError("matrix must be square")
    if not np.abs(matrix - matrix.conj().T).max() <= 1e-10 * (1 + np.abs(matrix).max()):
        raise ValueError("matrix is not Hermitian")
    vectors, values = _principal(matrix[None])
    return EigenSummary(vector=_fix_phase(vectors)[0], values=values[0])


def _fix_phase(vectors: np.ndarray) -> np.ndarray:
    """Rotate each row so its first component with |.| >= _EPS is real >= 0."""
    out = vectors.copy()
    fixed = np.zeros(len(out), dtype=bool)
    for k in range(out.shape[1]):
        comp = out[:, k]
        use = (~fixed) & (np.abs(comp) >= _EPS)
        if np.any(use):
            phase = comp[use] / np.abs(comp[use])
            out[use] *= np.conj(phase)[:, None]
            fixed |= use
        if fixed.all():
            break
    return out


def dominance_ratio(summary: EigenSummary) -> float:
    """Ratio of the two largest absolute eigenvalues, lambda1 / (lambda2 + 1e-12).

    Large ratios indicate a single dominant propagation direction at the bin;
    the selection threshold compares against BinSelectionConfig.beta_ratio.
    """
    if len(summary.values) < 2:
        raise ValueError("need at least a 2x2 covariance")
    return float(_dominance(summary.values))


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
    """The magnitude test of salsa_cues, on channel 0's passband bins.

    Built for frame `first`, it reads channel 0's first noise_init_frames
    frames, whose mean |X_0| seeds the noise floor, and then channel 0 alone
    over the frames before `first`. From then on it is given the channel-0
    spectrogram of each next run of frames and keeps, from frame `first` on,
    the floor of |X_0| on the `bins` slice and its cumulative squares:
    cs[k - first] sums |X_0|^2 over the frames before k. Outside the
    passband the test's result is never used.
    """

    def __init__(self, spec: SpectrogramStream, cfg: BinSelectionConfig, bins: slice, first: int):
        self.cfg, self.n_frames, self.bins = cfg, spec.n_frames, bins
        seed = spec.blocks(slice(0, cfg.noise_init_frames), channels=1)
        head = [np.abs(part[0][:, bins]) for part in seed]
        self.prev = np.concatenate(head).mean(axis=0)  # floor of frame end - 1
        self.first = 0
        self.eta = np.empty((0, len(self.prev)))  # floor of frames first..end-1
        self.cs = np.zeros((1, len(self.prev)))
        for part in spec.blocks(slice(0, first), channels=1):
            self.add(part[0])
            self.drop(self.end)

    @property
    def end(self) -> int:
        """One past the last frame given."""
        return self.first + len(self.eta)

    def add(self, spec0: np.ndarray) -> None:
        """Take channel 0's spectrogram (n, F) of the next n frames."""
        new = np.abs(spec0[:, self.bins])
        self.cs = np.concatenate([self.cs, _cumulative_squares(new, self.cs[-1])[1:]])
        rows = _floor_rows(new, self.end, self.prev, self.cfg)
        self.eta = np.concatenate([self.eta, rows])
        self.prev = self.eta[-1]

    def passes(self, lo: int, hi: int) -> np.ndarray:
        """Test of frames lo..hi-1, (hi - lo, bins): smoothed |X_0| above alpha_mag times the floor.

        Needs the frames within rms_half_window after hi - 1 (or the clip's end).
        """
        rows = np.arange(lo, hi)
        rms = _windowed_rms(self.cs, rows, self.cfg.rms_half_window, self.n_frames, self.first)
        return rms > self.cfg.alpha_mag * self.eta[lo - self.first : hi - self.first]

    def drop(self, frame: int) -> None:
        """Forget the frames before `frame`."""
        k = frame - self.first
        self.eta, self.cs = self.eta[k:], self.cs[k:]
        self.first = frame


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


def eigenvector_intensity_vector(summary: EigenSummary) -> np.ndarray:
    """Direction estimate from a principal eigenvector of ambisonic channels.

    Normalizes the eigenvector by its omnidirectional (first) component, takes
    the real part of the remaining components and scales to unit norm. Returns
    the zero vector when the first component or the real part is degenerate.
    """
    return _directions(summary.vector[None], "foa")[0]


def eigenvector_phase_vector(
    summary: EigenSummary,
    f_hz: float,
    speed_of_sound: float = SPEED_OF_SOUND,
) -> np.ndarray:
    """Inter-channel delay estimate (metres) from a principal eigenvector.

    Normalizes the eigenvector by its first (reference channel) component and
    converts the residual phases to path-length differences at f_hz. For a
    far-field source this approximates the relative distances on the wavefront.
    Returns zeros for non-positive frequencies or a degenerate reference
    component.
    """
    return _directions(summary.vector[None], "mic", np.array([f_hz]), speed_of_sound)[0]


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


def _dominance(values: np.ndarray) -> np.ndarray:
    """lambda1 / (lambda2 + _EPS) of descending eigenvalues (..., M)."""
    return values[..., 0] / (values[..., 1] + _EPS)


def _unit(v: np.ndarray, axis: int) -> np.ndarray:
    """v scaled to unit norm along `axis`; vectors of norm below _EPS become zero."""
    norms = np.linalg.norm(v, axis=axis, keepdims=True)
    return np.divide(v, norms, out=np.zeros_like(v), where=norms >= _EPS)


def _directions(
    vectors: np.ndarray,
    kind: str,
    f_hz: np.ndarray | None = None,
    speed_of_sound: float = SPEED_OF_SOUND,
) -> np.ndarray:
    """Direction cues (N, M-1) from principal eigenvectors (N, M).

    Each vector is divided by its first (reference) component. foa keeps the
    real part scaled to unit norm; mic converts the phases to path-length
    differences in metres at f_hz (N,). Rows with a reference component below
    _EPS, a foa real part of norm below _EPS or a non-positive mic frequency
    are zero.
    """
    u0 = vectors[:, 0]
    ok = np.abs(u0) >= _EPS
    if kind == "mic":
        ok &= f_hz > 0
    ubar = vectors[ok, 1:] / u0[ok, None]
    out = np.zeros((len(vectors), vectors.shape[1] - 1))
    if kind == "foa":
        v = _unit(np.real(ubar), axis=1)
    else:
        v = -speed_of_sound * np.angle(ubar) / (2.0 * np.pi * f_hz[ok, None])
    out[ok] = v
    return out


def salsa_cues(
    spec: SpectrogramStream,
    fmt: ArrayFormat,
    cfg: BinSelectionConfig,
    frames: slice,
    counts: dict,
):
    """Principal-eigenvector direction cues of the frames `frames`, run by run.

    Yields (spectrogram rows (M, n, F), cues (M-1, n, F)) for each run of
    finished frames, in frame order; the rows are the complex spectrogram
    of the same frames. Pipeline per TF bin: adaptive noise floor and
    running-RMS magnitude test on channel 0 (`_Gate`); inside the passband,
    the local covariance's Hermitian eigendecomposition and the
    dominance-ratio test on its two largest absolute eigenvalues; then a
    direction from the principal eigenvector (`_directions`: real-part
    intensity style for foa, phase/delay style at fmt.speed_of_sound for
    mic). Cues are zero wherever a test fails or outside [f_low, f_high].

    The noise floor is seeded by the mean of the first noise_init_frames
    frames, which are read from channel 0 before anything else. After that
    every test is local in time, so cues are built as the spectrogram blocks
    arrive. A frame is finished once the frames its running RMS and
    covariance window reach have arrived; between blocks only those halo
    frames, the last noise-floor row and the last row of the cumulative
    squares are kept, the last two on passband bins only. For a range that
    starts later, the floor and the cumulative squares at its halo come from
    a pass over channel 0 alone up to there, and the full spectrogram is
    read from the halo on. The cues have the same bits whatever the block
    sizes or the range.

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
    # The full spectrogram is read from the range's halo, frame `first`, on.
    first = max(lo - reach, 0)
    gate = _Gate(spec, cfg, bins, first)
    data = np.empty((M, 0, F), dtype=np.complex128)
    done = lo
    for part in spec.blocks(slice(first, hi + reach)):
        data = np.concatenate([data, part], axis=1)
        gate.add(part[0])
        # Frames done..ready-1 can be finished: their windows end before
        # the last frame received (or at the clip's end).
        ready = min(T if gate.end == T else gate.end - reach, hi)
        if ready <= done:
            continue

        t_idx, f_idx = np.nonzero(gate.passes(done, ready))
        t_idx += done
        f_idx += bins.start
        cov, _ = _covariances_at(data, t_idx, f_idx, half, first, T)
        vectors, values = _principal(cov)
        coherent = _dominance(values) > cfg.beta_ratio
        counts["in_band_bins"] += (ready - done) * len(band)
        counts["candidates"] += len(t_idx)
        counts["selected"] += int(coherent.sum())

        cues = np.zeros((M - 1, ready - done, F))
        cues[:, t_idx[coherent] - done, f_idx[coherent]] = _directions(
            vectors[coherent], fmt.kind, f_idx[coherent] * spec.bin_hz, fmt.speed_of_sound
        ).T
        yield data[:, done - first : ready - first], cues

        done = ready  # keep the halo the next frames' windows reach back into
        drop = max(done - reach, 0) - first
        data = data[:, drop:]
        first += drop
        gate.drop(first)
