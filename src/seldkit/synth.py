"""Synthetic scene rendering in the STFT domain, with frame-rate label rows.

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
f_start/f_end); a key left out takes its SIGNAL_DEFAULTS value, or Nyquist
for f_high and f_end.

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
drawn per block into that buffer. Each noise channel has its own random
stream, so any subset of channels renders by itself with the same bits:
`synth` splits the channels between processes. render_scene collects the
pieces of every channel into one array, so both give the same bits.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass, field, replace

import numpy as np

from .spatial import ArrayFormat, check_signed_permutation, tetra_positions
from .stft import ComplexSpectrogram, StftConfig, frame_blocks

LABEL_FPS = 10.0
N_CLASSES = 12
# Each signal parameter's default; f_high and f_end default to Nyquist.
SIGNAL_DEFAULTS = {"f_low": 200.0, "f0": 440.0, "harmonics": 3, "f_start": 200.0}


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
        harmonics = self.param("harmonics")
        if harmonics < 1 or harmonics != int(harmonics):
            raise ValueError(f"harmonics must be an integer >= 1, got {harmonics!r}")
        if self.param("f0") <= 0:
            raise ValueError("f0 must be positive")
        if not self.trajectory:
            raise ValueError("trajectory needs at least one knot")
        for knot in self.trajectory:
            if not all(math.isfinite(x) for x in knot):
                raise ValueError(f"trajectory knot {knot!r} must be finite")
        times = [knot[0] for knot in self.trajectory]
        if len(set(times)) != len(times):
            raise ValueError("trajectory knots must have distinct times")

    def param(self, key: str, nyquist: float | None = None):
        """Signal parameter key as given, else its default (SIGNAL_DEFAULTS,
        or nyquist for f_high and f_end)."""
        return self.params.get(key, SIGNAL_DEFAULTS.get(key, nyquist))

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
    # scenes compose into this matrix.
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
        if any(s.class_id >= N_CLASSES for s in self.sources):
            raise ValueError("class_id out of range")

    def transformed(self, matrix: np.ndarray) -> "SceneDescription":
        """Same scene viewed through an extra direction transform."""
        return replace(self, orientation=np.asarray(matrix, dtype=np.float64) @ self.orientation)


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
    f_lo = float(src.param("f_low"))
    f_hi = float(src.param("f_high", freqs[-1]))
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
        f0 = float(src.param("f0"))
        harmonics = int(src.param("harmonics"))
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
        f_start = float(src.param("f_start"))
        f_end = float(src.param("f_end", freqs[-1]))
        bin_hz = freqs[1] - freqs[0]
        frac = (times - src.onset) / (src.offset - src.onset)
        inst = f_start + (f_end - f_start) * np.clip(frac, 0.0, 1.0)
        bins = np.clip(np.round(inst / bin_hz).astype(int), 0, len(freqs) - 1)[:, None]
        values = np.exp(1j * 2 * np.pi * inst * times)[:, None]
    return bins, values * src.gain


@dataclass
class SceneStream:
    """A rendered scene delivered channel by channel, one frame block at a time.

    shape is (channels, frames, bins) of the whole scene. pieces yields
    (channel, frames, block) for the channels render_stream was asked for,
    in channel order: every frame block (frame_blocks) of one channel, then
    of the next. block is the (n, bins) complex128 spectrogram of that
    channel and block; its buffer may be reused by the next piece.
    """

    shape: tuple[int, int, int]
    bin_hz: float
    frame_rate: float
    labels: LabelRows
    pieces: Iterator[tuple[int, slice, np.ndarray]]


def render_stream(
    scene: SceneDescription, cfg: StftConfig | None = None, channels: slice = slice(None)
) -> SceneStream:
    """Render a scene directly in the STFT domain, channel by channel.

    Each source contributes S(t, f) * H(f, direction(t)) at its active frames,
    added only on its support bins (where S is non-zero): H is the scene
    format's ArrayFormat.steering, the 4-gain vector for foa and the
    steering phase at those bins' frequencies for mic.
    The result is bit-identical to multiplying over every bin.

    Ambient noise is i.i.d. complex Gaussian of power noise_power per cell
    and channel: noise channel j is sqrt(p / 2) * (d0 + 1j d1) from its own
    stream, the j-th child of SeedSequence([seed, 0]), drawn block by block
    into one reused buffer. The ambient field belongs to the scene, so a
    re-oriented foa scene sees it re-oriented too: output channel m takes
    noise channel perm[m] times sign[m], where (perm, sign) is
    ArrayFormat.channel_map of the orientation. So any subset of channels
    renders by itself with the same bits.
    Labels are sampled at the label frame centers (10 fps): one row per
    (label frame, active source), whose track is the source's index in the
    scene, so a scene may hold any number of events of one class.

    The scene is checked here, before anything is drawn; the channels'
    source contributions are built when pieces is first read.

    Raises:
        ValueError: a tone's f0 is above Nyquist, or a noise band holds no bin.

    Args:
        scene: scene description.
        cfg: analysis parameters; defaults to StftConfig().
        channels: the output channels that pieces yields; default all.

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
        if src.signal == "tone" and src.param("f0") > freqs[-1]:
            raise ValueError(
                f"source {si}: tone f0 is above Nyquist ({freqs[-1]:g} Hz)"
            )
        if src.signal == "noise" and len(_noise_band(src, freqs)) == 0:
            raise ValueError(
                f"source {si}: noise band holds no STFT bin ({cfg.bin_hz:g} Hz spacing)"
            )
    perm, sign = np.arange(M), np.ones(M)
    if scene.fmt.kind == "foa":
        perm, sign = scene.fmt.channel_map(scene.orientation)
    scale = np.sqrt(scene.noise_power / 2.0)

    def pieces():
        # (active frames, bins, H * values of the channels) per source; frames are sorted.
        sources = []
        for si, src in enumerate(scene.sources):
            t_idx = np.flatnonzero((centers >= src.onset) & (centers < src.offset))
            if len(t_idx) == 0:
                continue
            t_act = centers[t_idx]
            rng = np.random.default_rng([scene.seed, 1 + si])
            bins, values = _frame_spectra(src, t_act, freqs, rng)
            u = src.direction_at(t_act) @ scene.orientation.T  # (n_act, 3)
            H = scene.fmt.steering(u, freqs[bins])[channels]
            sources.append((t_idx, bins, H * values))
        spans = list(frame_blocks(T))
        # The first block is the longest; every block's noise is drawn here.
        # Each (real, imaginary) pair of draws is read in place as one
        # complex sample, so the noise needs no complex temporaries.
        buf = np.empty((spans[0].stop if spans else 0, F, 2))
        for i, m in enumerate(range(M)[channels]):
            key = (int(perm[m]),)
            rng = np.random.default_rng(np.random.SeedSequence([scene.seed, 0], spawn_key=key))
            for frames in spans:
                n = frames.stop - frames.start
                block = buf[:n].view(np.complex128)[..., 0]
                if scene.noise_power > 0:
                    rng.standard_normal(out=buf[:n])
                    block *= sign[m] * scale
                else:
                    block.fill(0.0)
                for t_idx, bins, contrib in sources:
                    lo, hi = np.searchsorted(t_idx, (frames.start, frames.stop))
                    # Bins are distinct within a frame, so the fancy-index add is exact.
                    block[t_idx[lo:hi, None] - frames.start, bins[lo:hi]] += contrib[i, lo:hi]
                yield m, frames, block

    return SceneStream((M, T, F), cfg.bin_hz, cfg.frame_rate, _labels_for(scene), pieces())


def render_scene(
    scene: SceneDescription, cfg: StftConfig | None = None
) -> tuple[ComplexSpectrogram, LabelRows]:
    """Render a whole scene directly in the STFT domain.

    Collects the pieces of render_stream into one array: they come channel
    by channel, one frame block at a time, with the ambient noise drawn per
    block. See render_stream for the model and the errors raised.

    Returns:
        (ComplexSpectrogram, LabelRows) pair; the spectrogram is
        (channels, frames, bins) complex128.
    """
    stream = render_stream(scene, cfg)
    X = np.empty(stream.shape, dtype=np.complex128)
    for m, frames, block in stream.pieces:
        X[m, frames] = block
    spec = ComplexSpectrogram(X, bin_hz=stream.bin_hz, frame_rate=stream.frame_rate)
    return spec, stream.labels


def _labels_for(scene: SceneDescription) -> LabelRows:
    """Rows (frame, class, source index, az, el), sorted by (frame, class, track)."""
    L = int(round(scene.duration * LABEL_FPS))
    centers = (np.arange(L) + 0.5) / LABEL_FPS
    rows = []
    for si, src in enumerate(scene.sources):
        frames = np.flatnonzero((centers >= src.onset) & (centers < src.offset))
        az, el = angles_from_unit(src.direction_at(centers[frames]) @ scene.orientation.T)
        rows += [(t, src.class_id, si, a, e)
                 for t, a, e in zip(frames.tolist(), az.tolist(), el.tolist())]
    return LabelRows(sorted(rows))


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
_PARAM_KEYS = {*SIGNAL_DEFAULTS, "f_high", "f_end"}


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
    """Parse label rows; raises ValueError naming the first malformed line."""
    return csv_label_table(text).tolist()


def csv_label_table(text: str) -> np.ndarray:
    """label_table of label CSV text, whose ValueError names the first malformed line."""
    rows, lines = [], []
    for ln, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line:
            continue
        parts = line.split(",")
        if len(parts) != 5:
            raise ValueError(f"label line {ln}: expected 5 fields, got {len(parts)}")
        try:
            rows.append((int(parts[0]), int(parts[1]), int(parts[2]),
                         float(parts[3]), float(parts[4])))
        except ValueError:
            raise ValueError(
                f"label line {ln}: expected integer frame, class and track and numeric angles"
            ) from None
        lines.append(ln)
    return label_table(rows, lines)


# One label row; the indices are int64 as given, never through a float.
_LABEL_ROW = np.dtype([("frame", "i8"), ("cls", "i8"), ("track", "i8"), ("az", "f8"), ("el", "f8")])


def label_table(rows, lines: list[int] | None = None) -> np.ndarray:
    """Label rows as one structured array, checked a column at a time.

    Frame, class and track must be integers in [0, 2**63), the int64 range
    the scorer keeps them in, and both angles finite. ValueError names the
    first row that is not: "label line {lines[i]}" if lines are given, else
    "label row {i}". A table this built is returned as it is.
    """
    if isinstance(rows, np.ndarray) and rows.dtype == _LABEL_ROW:
        return rows
    rows = list(rows)
    if set(map(len, rows)) - {5}:
        raise ValueError("label rows must have 5 fields")
    table = np.empty(len(rows), _LABEL_ROW)
    ok = np.ones(len(rows), dtype=bool)
    for name, col in zip(_LABEL_ROW.names, list(zip(*rows)) or [()] * 5):
        if name in ("az", "el"):
            table[name] = col
            ok &= np.isfinite(table[name])
            continue
        a = np.asarray(col)
        if a.dtype.kind not in "iu":  # non-integers, or integers numpy could not fit in int64
            a = np.array([x if isinstance(x, (int, np.integer)) else -1 for x in col], object)
        ok &= (a >= 0) & (a < 2**63)
        table[name] = np.where(ok, a, 0)
    if not ok.all():
        i = int(np.argmin(ok))
        raise ValueError(f"label {f'line {lines[i]}' if lines else f'row {i}'}: frame, class "
                         "and track must be integers in [0, 2**63) and the angles finite")
    return table
