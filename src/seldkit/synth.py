"""Synthetic scene rendering in the STFT domain, with frame-rate labels.

Scene files are versioned structured text: global key=value lines followed by
one or more [source] blocks. Example:

    version=1
    format=foa
    duration=2.0
    seed=123
    noise_power=1e-4
    [source]
    class=3
    onset=0.25
    offset=1.75
    gain=1.0
    signal=noise
    f_low=500
    f_high=8000
    trajectory=0.0:30:10, 2.0:50:10

Trajectories are piecewise-linear in (azimuth, elevation) degrees with
azimuth unwrapped across the +-180 seam; a single knot means a static source.
Signal kinds: noise (band-limited complex Gaussian, keys f_low/f_high),
tone (keys f0/harmonics), chirp (keys f_start/f_end).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .spatial import SPEED_OF_SOUND, ArrayFormat
from .stft import ComplexSpectrogram, StftConfig

LABEL_FPS = 10.0
N_CLASSES = 12


def unit_vector(az_deg, el_deg) -> np.ndarray:
    """Cartesian unit vector(s) from azimuth/elevation in degrees, (..., 3)."""
    az = np.radians(np.asarray(az_deg, dtype=np.float64))
    el = np.radians(np.asarray(el_deg, dtype=np.float64))
    return np.stack(
        [np.cos(az) * np.cos(el), np.sin(az) * np.cos(el), np.sin(el)], axis=-1
    )


def angles_from_unit(vec: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Azimuth/elevation in degrees from Cartesian vectors (..., 3)."""
    vec = np.asarray(vec, dtype=np.float64)
    az = np.degrees(np.arctan2(vec[..., 1], vec[..., 0]))
    el = np.degrees(
        np.arctan2(vec[..., 2], np.hypot(vec[..., 0], vec[..., 1]))
    )
    return az, el


def foa_steering(az_deg: float, el_deg: float) -> np.ndarray:
    """First-order ambisonic steering (1, cos az cos el, sin az cos el, sin el)."""
    u = unit_vector(az_deg, el_deg)
    return np.concatenate([[1.0], u])


def mic_steering(
    f_hz,
    az_deg: float,
    el_deg: float,
    positions: np.ndarray,
    speed_of_sound: float = SPEED_OF_SOUND,
) -> np.ndarray:
    """Far-field steering phases relative to the first capsule.

    Element m is exp(-j 2 pi f d_m / c) with d_m the path-length difference
    (positions[0] - positions[m]) . u; the first element is always 1 + 0j.

    Args:
        f_hz: scalar or (F,) frequencies.
        az_deg, el_deg: source direction.
        positions: (M, 3) capsule coordinates in metres.

    Returns:
        (M,) or (M, F) complex array.
    """
    u = unit_vector(az_deg, el_deg)
    d = (positions[0] - positions) @ u  # (M,)
    f = np.asarray(f_hz, dtype=np.float64)
    phase = -2.0 * np.pi * np.multiply.outer(d, f) / speed_of_sound
    return np.exp(1j * phase)


@dataclass
class SourceSpec:
    """One sound event: class, activity span, signal generator, trajectory."""

    class_id: int
    onset: float
    offset: float
    signal: str = "noise"  # "noise" | "tone" | "chirp"
    gain: float = 1.0
    params: dict = field(default_factory=dict)
    # knots of (time_s, azimuth_deg, elevation_deg)
    trajectory: list[tuple[float, float, float]] = field(
        default_factory=lambda: [(0.0, 0.0, 0.0)]
    )

    def __post_init__(self):
        if not (0 <= self.class_id):
            raise ValueError("class_id must be >= 0")
        if self.offset <= self.onset:
            raise ValueError("offset must be greater than onset")
        if self.signal not in ("noise", "tone", "chirp"):
            raise ValueError(f"unknown signal kind {self.signal!r}")
        if not self.trajectory:
            raise ValueError("trajectory needs at least one knot")

    def direction_at(self, times: np.ndarray) -> np.ndarray:
        """Piecewise-linear trajectory sample, (len(times), 3) unit vectors."""
        knots = sorted(self.trajectory)
        kt = np.array([k[0] for k in knots])
        az = np.array([k[1] for k in knots], dtype=np.float64)
        el = np.array([k[2] for k in knots], dtype=np.float64)
        if len(knots) == 1:
            az_i = np.full(len(times), az[0])
            el_i = np.full(len(times), el[0])
        else:
            az_unwrapped = np.degrees(np.unwrap(np.radians(az)))
            az_i = np.interp(times, kt, az_unwrapped)
            el_i = np.interp(times, kt, el)
        return unit_vector(az_i, el_i)


@dataclass
class SceneDescription:
    """Everything needed to deterministically render one synthetic clip."""

    fmt: ArrayFormat
    duration: float
    sources: list[SourceSpec]
    noise_power: float = 0.0
    seed: int = 0
    n_classes: int = N_CLASSES
    # Signed-permutation orientation applied to every direction; transformed
    # scenes compose into this matrix so labels stay bit-exact under swaps.
    orientation: np.ndarray = field(default_factory=lambda: np.eye(3))

    def __post_init__(self):
        if self.duration <= 0:
            raise ValueError("duration must be positive")
        if self.noise_power < 0:
            raise ValueError("noise_power must be >= 0")
        classes = [s.class_id for s in self.sources]
        if len(set(classes)) != len(classes):
            raise ValueError("one active source per class is supported")
        if any(c >= self.n_classes for c in classes):
            raise ValueError("class_id out of range")

    def transformed(self, matrix: np.ndarray) -> "SceneDescription":
        """Same scene viewed through an extra direction transform."""
        return SceneDescription(
            fmt=self.fmt,
            duration=self.duration,
            sources=self.sources,
            noise_power=self.noise_power,
            seed=self.seed,
            n_classes=self.n_classes,
            orientation=np.asarray(matrix, dtype=np.float64) @ self.orientation,
        )


@dataclass
class SeldLabels:
    """Frame-rate activity and direction targets.

    activity is (frames, classes) in {0, 1}; doa holds unit vectors for active
    cells and zeros elsewhere; track carries the instance id the CSV format
    requires.
    """

    activity: np.ndarray
    doa: np.ndarray
    track: np.ndarray
    frame_rate: float = LABEL_FPS

    @property
    def n_frames(self) -> int:
        return self.activity.shape[0]

    @property
    def n_classes(self) -> int:
        return self.activity.shape[1]

    def transformed(self, matrix: np.ndarray) -> "SeldLabels":
        doa = self.doa @ np.asarray(matrix, dtype=np.float64).T
        return SeldLabels(self.activity.copy(), doa, self.track.copy(), self.frame_rate)

    def to_rows(self) -> list[tuple[int, int, int, float, float]]:
        """Active cells as (frame, class, track, azimuth_deg, elevation_deg)."""
        rows = []
        for t, c in zip(*np.nonzero(self.activity)):
            az, el = angles_from_unit(self.doa[t, c])
            rows.append((int(t), int(c), int(self.track[t, c]), float(az), float(el)))
        return rows


def _frame_spectra(
    src: SourceSpec, times: np.ndarray, freqs: np.ndarray, rng: np.random.Generator
) -> np.ndarray:
    """Source STFT magnitudes/phases per active frame, (len(times), F)."""
    F = len(freqs)
    S = np.zeros((len(times), F), dtype=np.complex128)
    if src.signal == "noise":
        f_lo = float(src.params.get("f_low", 200.0))
        f_hi = float(src.params.get("f_high", freqs[-1]))
        band = (freqs >= f_lo) & (freqs <= f_hi)
        n = int(band.sum())
        if n == 0:
            raise ValueError("noise band contains no bins")
        draws = rng.standard_normal((len(times), n, 2))
        S[:, band] = (draws[..., 0] + 1j * draws[..., 1]) / np.sqrt(2.0)
    elif src.signal == "tone":
        f0 = float(src.params.get("f0", 440.0))
        harmonics = int(src.params.get("harmonics", 3))
        if f0 <= 0:
            raise ValueError("tone f0 must be positive")
        bin_hz = freqs[1] - freqs[0]
        for h in range(1, harmonics + 1):
            fh = h * f0
            if fh > freqs[-1]:
                break
            b = int(round(fh / bin_hz))
            phase0 = rng.uniform(0, 2 * np.pi)
            S[:, b] += np.exp(1j * (2 * np.pi * fh * times + phase0))
    else:  # chirp
        f_start = float(src.params.get("f_start", 200.0))
        f_end = float(src.params.get("f_end", freqs[-1]))
        bin_hz = freqs[1] - freqs[0]
        frac = (times - src.onset) / (src.offset - src.onset)
        inst = f_start + (f_end - f_start) * np.clip(frac, 0.0, 1.0)
        bins = np.clip(np.round(inst / bin_hz).astype(int), 0, F - 1)
        S[np.arange(len(times)), bins] = np.exp(1j * 2 * np.pi * inst * times)
    return S * src.gain


def render_scene(
    scene: SceneDescription, cfg: StftConfig | None = None
) -> tuple[ComplexSpectrogram, SeldLabels]:
    """Render a scene directly in the STFT domain.

    Each source contributes S(t, f) * H(f, direction(t)) at its active frames;
    independent complex Gaussian noise of the configured power is added to
    every channel. Labels are sampled at the label frame centers (10 fps).

    Args:
        scene: scene description.
        cfg: analysis parameters; defaults to StftConfig().

    Returns:
        (ComplexSpectrogram, SeldLabels) pair.
    """
    if cfg is None:
        cfg = StftConfig()
    n_samples = int(round(scene.duration * cfg.sample_rate))
    T = cfg.n_frames(n_samples)
    F = cfg.n_bins
    M = scene.fmt.n_channels
    freqs = np.arange(F) * cfg.bin_hz
    centers = (np.arange(T) * cfg.hop_length + cfg.window_length / 2) / cfg.sample_rate

    if scene.noise_power > 0:
        # Each (real, imaginary) pair of draws is read in place as one
        # complex sample, so the noise needs no complex temporaries.
        rng = np.random.default_rng([scene.seed, 0])
        X = rng.standard_normal((M, T, F, 2)).view(np.complex128)[..., 0]
        X *= np.sqrt(scene.noise_power / 2.0)
        if scene.fmt.kind == "foa" and not np.array_equal(
            scene.orientation, np.eye(3)
        ):
            # The ambient field belongs to the scene, so a re-oriented scene
            # sees re-oriented noise; keeps swap-vs-rerender equivalence exact.
            A = np.zeros((4, 4))
            A[0, 0] = 1.0
            A[1:, 1:] = scene.orientation
            X = np.einsum("ij,jtf->itf", A, X)
    else:
        X = np.zeros((M, T, F), dtype=np.complex128)

    for si, src in enumerate(scene.sources):
        active = (centers >= src.onset) & (centers < src.offset)
        if not np.any(active):
            continue
        t_act = centers[active]
        rng = np.random.default_rng([scene.seed, 1 + si])
        S = _frame_spectra(src, t_act, freqs, rng)
        u = src.direction_at(t_act) @ scene.orientation.T  # (n_act, 3)
        if scene.fmt.kind == "foa":
            H = np.concatenate([np.ones((len(t_act), 1)), u], axis=1).T  # (4, n_act)
            X[:, active, :] += H[:, :, None] * S[None, :, :]
        else:
            pos = scene.fmt.mic_positions
            d = (pos[0][None, :] - pos) @ u.T  # (M, n_act)
            phase = (
                -2.0
                * np.pi
                * d[:, :, None]
                * freqs[None, None, :]
                / scene.fmt.speed_of_sound
            )
            X[:, active, :] += np.exp(1j * phase) * S[None, :, :]

    labels = _labels_for(scene)
    return ComplexSpectrogram(X, bin_hz=cfg.bin_hz, frame_rate=cfg.frame_rate), labels


def _labels_for(scene: SceneDescription) -> SeldLabels:
    L = int(round(scene.duration * LABEL_FPS))
    centers = (np.arange(L) + 0.5) / LABEL_FPS
    activity = np.zeros((L, scene.n_classes), dtype=np.uint8)
    doa = np.zeros((L, scene.n_classes, 3))
    track = np.zeros((L, scene.n_classes), dtype=np.int16)
    for si, src in enumerate(scene.sources):
        active = (centers >= src.onset) & (centers < src.offset)
        if not np.any(active):
            continue
        u = src.direction_at(centers[active]) @ scene.orientation.T
        activity[active, src.class_id] = 1
        doa[active, src.class_id] = u
        track[active, src.class_id] = si
    return SeldLabels(activity, doa, track)


# ---------------------------------------------------------------------------
# scene files


def format_scene(scene: SceneDescription) -> str:
    """Serialize a scene to the versioned text format (orientation excluded)."""
    lines = [
        "version=1",
        f"format={scene.fmt.kind}",
        f"duration={scene.duration:.6g}",
        f"seed={scene.seed}",
        f"noise_power={scene.noise_power:.6g}",
    ]
    if scene.fmt.kind == "mic":
        radius = float(np.linalg.norm(scene.fmt.mic_positions[0]))
        lines.append(f"mic_radius={radius:.6g}")
    for src in scene.sources:
        lines.append("[source]")
        lines.append(f"class={src.class_id}")
        lines.append(f"onset={src.onset:.6g}")
        lines.append(f"offset={src.offset:.6g}")
        lines.append(f"gain={src.gain:.6g}")
        lines.append(f"signal={src.signal}")
        for k, v in sorted(src.params.items()):
            lines.append(f"{k}={v:.6g}")
        knots = ", ".join(f"{t:.6g}:{a:.6g}:{e:.6g}" for t, a, e in src.trajectory)
        lines.append(f"trajectory={knots}")
    return "\n".join(lines) + "\n"


_GLOBAL_KEYS = {"version", "format", "duration", "seed", "noise_power", "mic_radius"}
_SOURCE_KEYS = {"class", "onset", "offset", "gain", "signal", "trajectory"}
_PARAM_KEYS = {"f_low", "f_high", "f0", "harmonics", "f_start", "f_end"}


def parse_scene(text: str) -> SceneDescription:
    """Parse the text scene format; raises ValueError on malformed input."""
    globals_: dict[str, str] = {}
    blocks: list[dict[str, str]] = []
    current: dict[str, str] | None = None
    for ln, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line == "[source]":
            current = {}
            blocks.append(current)
            continue
        if "=" not in line:
            raise ValueError(f"scene line {ln}: expected key=value, got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if current is None:
            if key not in _GLOBAL_KEYS:
                raise ValueError(f"scene line {ln}: unknown global key {key!r}")
            globals_[key] = value
        else:
            if key not in _SOURCE_KEYS | _PARAM_KEYS:
                raise ValueError(f"scene line {ln}: unknown source key {key!r}")
            current[key] = value

    if globals_.get("version") != "1":
        raise ValueError(f"unsupported scene version {globals_.get('version')!r}")
    kind = globals_.get("format")
    if kind not in ("foa", "mic"):
        raise ValueError(f"scene format must be foa or mic, got {kind!r}")
    if "duration" not in globals_:
        raise ValueError("scene is missing duration")
    if kind == "mic" and "mic_radius" in globals_:
        from .spatial import tetra_positions

        fmt = ArrayFormat("mic", tetra_positions(float(globals_["mic_radius"])))
    else:
        fmt = ArrayFormat(kind)

    sources = []
    for bi, block in enumerate(blocks):
        for req in ("class", "onset", "offset"):
            if req not in block:
                raise ValueError(f"source {bi}: missing {req}")
        knots = []
        for part in block.get("trajectory", "0:0:0").split(","):
            fields = part.strip().split(":")
            if len(fields) != 3:
                raise ValueError(f"source {bi}: bad trajectory knot {part!r}")
            knots.append(tuple(float(x) for x in fields))
        params = {k: float(v) for k, v in block.items() if k in _PARAM_KEYS}
        sources.append(
            SourceSpec(
                class_id=int(block["class"]),
                onset=float(block["onset"]),
                offset=float(block["offset"]),
                gain=float(block.get("gain", 1.0)),
                signal=block.get("signal", "noise"),
                params=params,
                trajectory=knots,
            )
        )
    return SceneDescription(
        fmt=fmt,
        duration=float(globals_["duration"]),
        sources=sources,
        noise_power=float(globals_.get("noise_power", 0.0)),
        seed=int(globals_.get("seed", 0)),
    )


# ---------------------------------------------------------------------------
# label CSV ("frame_index,class_index,track_index,azimuth_deg,elevation_deg")


def rows_to_csv(rows: list[tuple[int, int, int, float, float]]) -> str:
    """Serialize label rows, sorted by (frame, class, track), no header."""
    out = []
    for frame, cls, track, az, el in sorted(rows):
        out.append(f"{frame},{cls},{track},{az:.6g},{el:.6g}")
    return "\n".join(out) + ("\n" if out else "")


def rows_from_csv(text: str) -> list[tuple[int, int, int, float, float]]:
    """Parse label rows; raises ValueError on malformed lines.

    Frame, class and track indices must be >= 0 and both angles finite.
    """
    rows = []
    for ln, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line:
            continue
        parts = line.split(",")
        if len(parts) != 5:
            raise ValueError(f"label line {ln}: expected 5 fields, got {len(parts)}")
        row = (int(parts[0]), int(parts[1]), int(parts[2]), float(parts[3]), float(parts[4]))
        if min(row[:3]) < 0:
            raise ValueError(f"label line {ln}: negative frame, class or track index")
        if not (math.isfinite(row[3]) and math.isfinite(row[4])):
            raise ValueError(f"label line {ln}: azimuth and elevation must be finite")
        rows.append(row)
    return rows
