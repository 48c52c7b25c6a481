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
azimuth unwrapped across the +-180 seam; a single knot means a static source,
and knots must have distinct times. Signal kinds: noise (band-limited complex
Gaussian, keys f_low/f_high), tone (keys f0/harmonics), chirp (keys
f_start/f_end).

Every numeric value must be finite: a NaN or infinite duration, noise_power,
mic_radius, onset, offset, gain, signal parameter or trajectory value raises
ValueError naming the key (and the source), as does a tone whose `harmonics`
is not an integer >= 1 or whose f0 is above Nyquist, so no scene renders
NaN cells or labels frames that carry no signal.

Each source is rendered only on its support bins: its band for noise, the
bins of its harmonics for a tone, one bin per frame for a chirp.

render_stream renders the (channels, frames, bins) spectrogram channel by
channel, one frame block (stft.frame_blocks) at a time, so a writer can
stream it to a tensor file without a whole-scene array. It holds one block
buffer and each source's support-bin contribution; the ambient noise is
drawn per block into that buffer, also in a re-oriented scene.
render_scene collects the same pieces into one array, so both give the
same bits.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass, field, replace

import numpy as np

from .spatial import SPEED_OF_SOUND, ArrayFormat, check_signed_permutation, tetra_positions
from .stft import ComplexSpectrogram, StftConfig, frame_blocks

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
    return ArrayFormat("foa").steering(unit_vector(az_deg, el_deg)[None], None)[:, 0, 0]


def mic_steering(
    f_hz,
    az_deg: float,
    el_deg: float,
    positions: np.ndarray,
    speed_of_sound: float = SPEED_OF_SOUND,
) -> np.ndarray:
    """ArrayFormat.steering of one direction for the mic array at positions.

    The first element is always 1 + 0j.

    Args:
        f_hz: scalar or (F,) frequencies.
        az_deg, el_deg: source direction.
        positions: (M, 3) capsule coordinates in metres.

    Returns:
        (M,) or (M, F) complex array.
    """
    fmt = ArrayFormat("mic", positions, speed_of_sound)
    f = np.asarray(f_hz, dtype=np.float64)
    H = fmt.steering(unit_vector(az_deg, el_deg)[None], f.reshape(1, -1))
    return H.reshape((fmt.n_channels,) + f.shape)


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
        numbers = {"onset": self.onset, "offset": self.offset, "gain": self.gain}
        for key, value in {**numbers, **self.params}.items():
            if not math.isfinite(value):
                raise ValueError(f"{key} must be finite, got {value!r}")
        if self.offset <= self.onset:
            raise ValueError("offset must be greater than onset")
        if self.signal not in ("noise", "tone", "chirp"):
            raise ValueError(f"unknown signal kind {self.signal!r}")
        harmonics = self.params.get("harmonics", 3)
        if harmonics < 1 or harmonics != int(harmonics):
            raise ValueError(f"harmonics must be an integer >= 1, got {harmonics!r}")
        if self.params.get("f0", 440.0) <= 0:
            raise ValueError("f0 must be positive")
        if not self.trajectory:
            raise ValueError("trajectory needs at least one knot")
        for knot in self.trajectory:
            if not all(math.isfinite(x) for x in knot):
                raise ValueError(f"trajectory knot {knot!r} must be finite")
        times = [knot[0] for knot in self.trajectory]
        if len(set(times)) != len(times):
            raise ValueError("trajectory knots must have distinct times")

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
    # Signed-permutation orientation applied to every direction; transformed
    # scenes compose into this matrix so labels stay bit-exact under swaps.
    orientation: np.ndarray = field(default_factory=lambda: np.eye(3))

    def __post_init__(self):
        check_signed_permutation(self.orientation, "orientation")
        if not (math.isfinite(self.duration) and self.duration > 0):
            raise ValueError(
                f"duration must be finite and positive, got {self.duration!r}"
            )
        if not (math.isfinite(self.noise_power) and self.noise_power >= 0):
            raise ValueError(
                f"noise_power must be finite and >= 0, got {self.noise_power!r}"
            )
        classes = [s.class_id for s in self.sources]
        if len(set(classes)) != len(classes):
            raise ValueError("one active source per class is supported")
        if any(c >= N_CLASSES for c in classes):
            raise ValueError("class_id out of range")

    def transformed(self, matrix: np.ndarray) -> "SceneDescription":
        """Same scene viewed through an extra direction transform."""
        return replace(self, orientation=np.asarray(matrix, dtype=np.float64) @ self.orientation)


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

    def transformed(self, matrix: np.ndarray) -> "SeldLabels":
        doa = self.doa @ np.asarray(matrix, dtype=np.float64).T
        return SeldLabels(self.activity.copy(), doa, self.track.copy())

    def to_rows(self) -> list[tuple[int, int, int, float, float]]:
        """Active cells as (frame, class, track, azimuth_deg, elevation_deg)."""
        t, c = np.nonzero(self.activity)
        az, el = angles_from_unit(self.doa[t, c])
        columns = (t, c, self.track[t, c], az, el)
        return list(zip(*(col.tolist() for col in columns)))


class LabelRows(list):
    """Label rows (frame, class, track, azimuth_deg, elevation_deg), as in the
    label CSV format; a frame may hold any number of rows of one class."""

    def transformed(self, matrix: np.ndarray) -> "LabelRows":
        """The rows with every direction mapped through the same matrix."""
        u = unit_vector([r[3] for r in self], [r[4] for r in self])
        az, el = angles_from_unit(u @ np.asarray(matrix, dtype=np.float64).T)
        return LabelRows((*r[:3], a, e) for r, a, e in zip(self, az.tolist(), el.tolist()))


def _noise_band(src: SourceSpec, freqs: np.ndarray) -> np.ndarray:
    """Bins of a noise source's [f_low, f_high] band."""
    f_lo = float(src.params.get("f_low", 200.0))
    f_hi = float(src.params.get("f_high", freqs[-1]))
    return np.flatnonzero((freqs >= f_lo) & (freqs <= f_hi))


def _frame_spectra(
    src: SourceSpec, times: np.ndarray, freqs: np.ndarray, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Source STFT support per active frame, as (bins, values).

    Both arrays are (len(times), K): the K bins the source covers in each
    frame, distinct within a frame, and its complex values there with the
    gain applied. Every other bin of the frame is zero. Noise covers its band
    bins, a tone the bins of its harmonics at or below the top bin (harmonics
    that round to one bin add up in harmonic order), a chirp one bin per frame.
    """
    if src.signal == "noise":
        band = _noise_band(src, freqs)
        draws = rng.standard_normal((len(times), len(band), 2))
        values = (draws[..., 0] + 1j * draws[..., 1]) / np.sqrt(2.0)
        bins = np.broadcast_to(band, values.shape)
    elif src.signal == "tone":
        f0 = float(src.params.get("f0", 440.0))
        harmonics = int(src.params.get("harmonics", 3))
        bin_hz = freqs[1] - freqs[0]
        fh = [h * f0 for h in range(1, harmonics + 1) if h * f0 <= freqs[-1]]
        band, column = np.unique(
            [int(round(f / bin_hz)) for f in fh], return_inverse=True
        )
        values = np.zeros((len(times), len(band)), dtype=np.complex128)
        for f, col in zip(fh, column):
            phase0 = rng.uniform(0, 2 * np.pi)
            values[:, col] += np.exp(1j * (2 * np.pi * f * times + phase0))
        bins = np.broadcast_to(band, values.shape)
    else:  # chirp
        f_start = float(src.params.get("f_start", 200.0))
        f_end = float(src.params.get("f_end", freqs[-1]))
        bin_hz = freqs[1] - freqs[0]
        frac = (times - src.onset) / (src.offset - src.onset)
        inst = f_start + (f_end - f_start) * np.clip(frac, 0.0, 1.0)
        bins = np.clip(np.round(inst / bin_hz).astype(int), 0, len(freqs) - 1)[:, None]
        values = np.exp(1j * 2 * np.pi * inst * times)[:, None]
    return bins, values * src.gain


@dataclass
class SceneStream:
    """A rendered scene delivered channel by channel, one frame block at a time.

    shape is (channels, frames, bins). pieces yields (channel, frames, block)
    channel by channel: every frame block (frame_blocks) of one channel, then
    of the next. The channels come in order, 0 first, except in a re-oriented
    foa scene, where they come in the order their noise is drawn (see
    render_stream). block is the (n, bins)
    complex128 spectrogram of that channel and block; its buffer may be
    reused by the next piece.
    """

    shape: tuple[int, int, int]
    bin_hz: float
    frame_rate: float
    labels: SeldLabels
    pieces: Iterator[tuple[int, slice, np.ndarray]]


def render_stream(scene: SceneDescription, cfg: StftConfig | None = None) -> SceneStream:
    """Render a scene directly in the STFT domain, channel by channel.

    Each source contributes S(t, f) * H(f, direction(t)) at its active frames,
    added only on its support bins (where S is non-zero): H is the scene
    format's ArrayFormat.steering, the 4-gain vector for foa and the
    steering phase at those bins' frequencies for mic.
    The result is bit-identical to multiplying over every bin. Each source's
    contribution is computed once, here; a block adds the frames of it that
    fall inside the block. Independent complex Gaussian noise of the
    configured power is added to every channel: it is drawn block by block,
    channel-major, into one reused buffer, which gives the same numbers as
    one (channels, frames, bins) draw. A re-oriented foa scene sees its
    ambient noise re-oriented too: noise channel j, drawn j-th, lands
    (negated where the signed permutation says) on the channel the
    orientation maps it to, so the pieces then come in that channel order.
    Labels are sampled at the label frame centers (10 fps).

    The scene is checked before anything is drawn.

    Raises:
        ValueError: a tone's f0 is above Nyquist, or a noise band holds no bin.

    Args:
        scene: scene description.
        cfg: analysis parameters; defaults to StftConfig().

    Returns:
        SceneStream of the scene's (channels, frames, bins) spectrogram.
    """
    if cfg is None:
        cfg = StftConfig()
    n_samples = int(round(scene.duration * cfg.sample_rate))
    T = cfg.n_frames(n_samples)
    F = cfg.n_bins
    M = scene.fmt.n_channels
    freqs = np.arange(F) * cfg.bin_hz
    centers = (np.arange(T) * cfg.hop_length + cfg.window_length / 2) / cfg.sample_rate
    for si, src in enumerate(scene.sources):
        if src.signal == "tone" and src.params.get("f0", 440.0) > freqs[-1]:
            raise ValueError(
                f"source {si}: tone f0 is above Nyquist ({freqs[-1]:g} Hz)"
            )
        if src.signal == "noise" and len(_noise_band(src, freqs)) == 0:
            raise ValueError(
                f"source {si}: noise band holds no STFT bin ({cfg.bin_hz:g} Hz spacing)"
            )

    # (active frames, bins, H * values) per source; frames are sorted.
    sources = []
    for si, src in enumerate(scene.sources):
        t_idx = np.flatnonzero((centers >= src.onset) & (centers < src.offset))
        if len(t_idx) == 0:
            continue
        t_act = centers[t_idx]
        rng = np.random.default_rng([scene.seed, 1 + si])
        bins, values = _frame_spectra(src, t_act, freqs, rng)
        u = src.direction_at(t_act) @ scene.orientation.T  # (n_act, 3)
        sources.append((t_idx, bins, scene.fmt.steering(u, freqs[bins]) * values))

    rng = np.random.default_rng([scene.seed, 0])
    scale = np.sqrt(scene.noise_power / 2.0)
    # The ambient field belongs to the scene, so a re-oriented foa scene sees
    # re-oriented noise; keeps swap-vs-rerender equivalence exact. Noise
    # channel j lands, times sign[j], on the channel dest[j] channel_map reads it into.
    dest, sign = np.arange(M), np.ones(M)
    if scene.fmt.kind == "foa":
        perm, turn = scene.fmt.channel_map(scene.orientation)
        dest = np.argsort(perm)
        sign = turn[dest]

    def pieces():
        spans = list(frame_blocks(T))
        # The first block is the longest; every block's noise is drawn here.
        # Each (real, imaginary) pair of draws is read in place as one
        # complex sample, so the noise needs no complex temporaries.
        buf = np.empty((spans[0].stop if spans else 0, F, 2))
        for j in range(M):
            m = int(dest[j])
            for frames in spans:
                n = frames.stop - frames.start
                block = buf[:n].view(np.complex128)[..., 0]
                if scene.noise_power > 0:
                    rng.standard_normal(out=buf[:n])
                    block *= sign[j] * scale
                else:
                    block.fill(0.0)
                for t_idx, bins, contrib in sources:
                    lo, hi = np.searchsorted(t_idx, (frames.start, frames.stop))
                    # Bins are distinct within a frame, so the fancy-index add is exact.
                    block[t_idx[lo:hi, None] - frames.start, bins[lo:hi]] += contrib[m, lo:hi]
                yield m, frames, block

    return SceneStream((M, T, F), cfg.bin_hz, cfg.frame_rate, _labels_for(scene), pieces())


def render_scene(
    scene: SceneDescription, cfg: StftConfig | None = None
) -> tuple[ComplexSpectrogram, SeldLabels]:
    """Render a whole scene directly in the STFT domain.

    Collects the pieces of render_stream into one array: they come channel
    by channel, one frame block at a time, with the ambient noise drawn per
    block. See render_stream for the model and the errors raised.

    Returns:
        (ComplexSpectrogram, SeldLabels) pair; the spectrogram is
        (channels, frames, bins) complex128.
    """
    stream = render_stream(scene, cfg)
    X = np.empty(stream.shape, dtype=np.complex128)
    for m, frames, block in stream.pieces:
        X[m, frames] = block
    spec = ComplexSpectrogram(X, bin_hz=stream.bin_hz, frame_rate=stream.frame_rate)
    return spec, stream.labels


def _labels_for(scene: SceneDescription) -> SeldLabels:
    L = int(round(scene.duration * LABEL_FPS))
    centers = (np.arange(L) + 0.5) / LABEL_FPS
    activity = np.zeros((L, N_CLASSES), dtype=np.uint8)
    doa = np.zeros((L, N_CLASSES, 3))
    track = np.zeros((L, N_CLASSES), dtype=np.int16)
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


def _num(v: float) -> str:
    """v as %.6g where that reads back as v exactly, else as repr(float(v))."""
    text = f"{v:.6g}"
    return text if float(text) == v else repr(float(v))


def format_scene(scene: SceneDescription) -> str:
    """Serialize a scene to the versioned text format (orientation excluded).

    A mic array is written as its radius alone, so it must be the
    tetrahedron tetra_positions(radius); any other array raises ValueError.
    """
    lines = [
        "version=1",
        f"format={scene.fmt.kind}",
        f"duration={_num(scene.duration)}",
        f"seed={scene.seed}",
        f"noise_power={_num(scene.noise_power)}",
    ]
    if scene.fmt.kind == "mic":
        pos = scene.fmt.mic_positions
        norm = float(np.linalg.norm(pos[0]))
        # The radius whose tetrahedron is pos exactly lies a few ulps from norm.
        near = norm + np.spacing(norm) * np.array([0, -1, 1, -2, 2, -3, 3, -4, 4])
        radius = next((r for r in near.tolist() if np.array_equal(tetra_positions(r), pos)), norm)
        if pos.shape != (4, 3) or np.abs(pos - tetra_positions(radius)).max() > 1e-9 * radius:
            raise ValueError("a scene file can only hold the tetrahedral mic array")
        lines.append(f"mic_radius={_num(radius)}")
    for src in scene.sources:
        lines.append("[source]")
        lines.append(f"class={src.class_id}")
        lines.append(f"onset={_num(src.onset)}")
        lines.append(f"offset={_num(src.offset)}")
        lines.append(f"gain={_num(src.gain)}")
        lines.append(f"signal={src.signal}")
        for k, v in sorted(src.params.items()):
            lines.append(f"{k}={_num(v)}")
        knots = ", ".join(":".join(map(_num, knot)) for knot in src.trajectory)
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
        radius = float(globals_["mic_radius"])
        if not (math.isfinite(radius) and radius > 0):
            raise ValueError(f"mic_radius must be finite and positive, got {radius!r}")
        fmt = ArrayFormat("mic", tetra_positions(radius))
    else:
        fmt = ArrayFormat(kind)

    sources = []
    for bi, block in enumerate(blocks):
        try:
            for req in ("class", "onset", "offset"):
                if req not in block:
                    raise ValueError(f"missing {req}")
            knots = []
            for part in block.get("trajectory", "0:0:0").split(","):
                fields = part.strip().split(":")
                if len(fields) != 3:
                    raise ValueError(f"bad trajectory knot {part!r}")
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
        except ValueError as exc:
            raise ValueError(f"source {bi}: {exc}") from None
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
