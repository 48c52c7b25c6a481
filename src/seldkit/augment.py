"""Spatial and spectro-temporal augmentation of feature tensors.

Channel swaps are exact direction transforms: permuting (and sign-flipping)
input channels is equivalent to rotating/mirroring the acoustic scene, so the
feature tensor and its labels transform together. Frequency shifting and
random cutout perturb the time-frequency content only.
"""

from __future__ import annotations

from dataclasses import dataclass
from importlib import resources

import numpy as np

from .baseline import channel_pairs
from .spatial import SPEED_OF_SOUND
from .stft import FeatureTensor, frame_blocks
from .synth import SeldLabels


@dataclass
class AugmentConfig:
    """Probabilities and size limits for the augmentation pipeline."""

    p_apply: float = 0.5
    max_shift: int = 10
    rect_max_time_frac: float = 0.25
    rect_max_band_frac: float = 0.25
    cross_max_freq_bands: int = 2
    cross_max_freq_width: int = 20
    cross_max_time_bands: int = 2
    cross_max_time_width: int = 64

    def __post_init__(self):
        if not (0.0 <= self.p_apply <= 1.0):
            raise ValueError("p_apply must be in [0, 1]")
        if self.max_shift < 0:
            raise ValueError("max_shift must be >= 0")


@dataclass(frozen=True)
class SpatialTransform:
    """One direction transform and its channel realization.

    matrix is the signed permutation applied to Cartesian directions;
    mic_perm (mic format only) gives the source channel for each output
    channel.
    """

    name: str
    kind: str  # "foa" or "mic"
    matrix: np.ndarray  # (3, 3) integer signed permutation
    mic_perm: tuple[int, ...] | None = None


_ROT90 = np.array([[0, -1, 0], [1, 0, 0], [0, 0, 1]])


def _direction_matrix(dphi: int, mirror: bool, zflip: bool) -> np.ndarray:
    rot = np.linalg.matrix_power(_ROT90, (dphi // 90) % 4)
    flip = np.diag([1, -1 if mirror else 1, -1 if zflip else 1])
    return (rot @ flip).astype(np.int64)


def foa_transforms() -> list[SpatialTransform]:
    """All 16 ambisonic channel swaps: azimuth rotations by multiples of 90
    degrees, azimuth mirroring, and elevation flip."""
    out = []
    for dphi in (0, 90, 180, 270):
        for mirror in (False, True):
            for zflip in (False, True):
                name = f"rot{dphi:03d}" + ("_mirror" if mirror else "") + (
                    "_zflip" if zflip else ""
                )
                out.append(
                    SpatialTransform(
                        name=name,
                        kind="foa",
                        matrix=_direction_matrix(dphi, mirror, zflip),
                    )
                )
    return out


def mic_transforms() -> list[SpatialTransform]:
    """The 8 channel swaps of the tetrahedral array, loaded from the shipped
    table and validated against the direction group."""
    text = resources.files("seldkit").joinpath("data/mic_swap_table.txt").read_text()
    out = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = dict(
            part.strip().split("=", 1) for part in line.split(";") if part.strip()
        )
        perm = tuple(int(x) for x in fields["perm"].split())
        if sorted(perm) != [0, 1, 2, 3]:
            raise ValueError(f"bad permutation in swap table: {perm}")
        dphi = int(fields["dphi"])
        mirror = fields["mirror"] == "1"
        zflip = fields["zflip"] == "1"
        name = f"rot{dphi:03d}" + ("_mirror" if mirror else "") + (
            "_zflip" if zflip else ""
        )
        out.append(
            SpatialTransform(
                name=name,
                kind="mic",
                matrix=_direction_matrix(dphi, mirror, zflip),
                mic_perm=perm,
            )
        )
    if len(out) != 8:
        raise ValueError(f"swap table must define 8 transforms, found {len(out)}")
    return out


def transforms_for(kind: str) -> list[SpatialTransform]:
    if kind == "foa":
        return foa_transforms()
    if kind == "mic":
        return mic_transforms()
    raise ValueError(f"unknown format kind {kind!r}")


def _role_slices(feat: FeatureTensor) -> dict[str, list[int]]:
    groups: dict[str, list[int]] = {"spec": [], "spatial": [], "gcc": []}
    for i, role in enumerate(feat.channel_roles):
        if role not in groups:
            raise ValueError(f"unknown channel role {role!r}")
        groups[role].append(i)
    return groups


def _reverse_lags(block: np.ndarray) -> np.ndarray:
    # Lag window (-L/2, L/2] reversed; lag +L/2 maps to -L/2 which is outside
    # the stored window, so it borrows the nearest stored lag (-L/2 + 1).
    return np.concatenate([block[..., -2::-1], block[..., :1]], axis=-1)


def _swap_foa(
    data: np.ndarray, groups: dict[str, list[int]], tx: SpatialTransform
) -> np.ndarray:
    out = data.copy()
    A = tx.matrix
    spec_idx = groups["spec"]
    if len(spec_idx) != 4:
        raise ValueError("foa swap expects 4 spectrogram channels (W, X, Y, Z)")
    # Log-power channels permute without sign; W is invariant.
    for i in range(3):
        j = int(np.nonzero(A[i])[0][0])
        out[spec_idx[1 + i]] = data[spec_idx[1 + j]]
    if groups["spatial"]:
        if len(groups["spatial"]) != 3:
            raise ValueError("foa spatial block must have 3 channels")
        block = data[groups["spatial"]]
        out[groups["spatial"]] = np.einsum("ij,jtb->itb", A.astype(np.float64), block)
    if groups["gcc"]:
        raise ValueError("gcc channels are not defined for the foa format")
    return out


def _swap_mic(
    data: np.ndarray,
    groups: dict[str, list[int]],
    tx: SpatialTransform,
    meta: dict,
    speed_of_sound: float,
) -> np.ndarray:
    out = data.copy()
    perm = tx.mic_perm
    spec_idx = groups["spec"]
    if len(spec_idx) != len(perm):
        raise ValueError(
            f"swap permutes {len(perm)} channels but tensor has {len(spec_idx)}"
        )
    for m, src in enumerate(perm):
        out[spec_idx[m]] = data[spec_idx[src]]

    if groups["spatial"]:
        # Relative-delay channels: re-reference to the new first channel and
        # re-wrap each bin's phase, matching what a re-rendered scene yields.
        # Channel m holds capsule m's delay relative to capsule 0, whose own
        # delay is zero; one output channel is rebuilt at a time.
        sp = groups["spatial"]
        M = len(perm)
        if len(sp) != M - 1:
            raise ValueError("mic spatial block must have M - 1 channels")
        B = data.shape[2]

        def delay(capsule):
            return data[sp[capsule - 1]] if capsule else 0.0

        bin_hz = float(meta.get("bin_hz", 0.0))
        start = int(meta.get("compress_start_bin", B))
        # Only the uncompressed low bands carry per-bin phase; averaged
        # high bands have no single frequency to wrap against.
        freqs = np.arange(min(start, B) if bin_hz > 0 else 0) * bin_hz
        pos = freqs > 0
        for m in range(1, M):
            new_d = delay(perm[m]) - delay(perm[0])
            head = new_d[..., : len(freqs)]
            phase = -2.0 * np.pi * freqs[pos] * head[..., pos] / speed_of_sound
            wrapped = np.arctan2(np.sin(phase), np.cos(phase))
            head[..., pos] = -speed_of_sound * wrapped / (2.0 * np.pi * freqs[pos])
            out[sp[m - 1]] = new_d

    gcc = groups["gcc"]
    if gcc:
        pairs = channel_pairs(len(perm))
        index = {p: k for k, p in enumerate(pairs)}
        if len(gcc) != len(pairs):
            raise ValueError("gcc block size does not match the channel count")
        for k, (i, j) in enumerate(pairs):
            a, b = perm[i], perm[j]
            if a < b:
                out[gcc[k]] = data[gcc[index[(a, b)]]]
            else:
                out[gcc[k]] = _reverse_lags(data[gcc[index[(b, a)]]])
    return out


def _swap_channels(
    feat: FeatureTensor,
    labels: SeldLabels | None,
    tx: SpatialTransform,
    speed_of_sound: float,
) -> SeldLabels | None:
    """channel_swap of feat.data in place, one block of frames at a time.

    Every swap step maps each frame on its own, so each block is widened to
    float64, swapped, and stored back in the tensor's dtype; the only
    temporaries are a few blocks. Returns the transformed labels.
    """
    groups = _role_slices(feat)
    for block in frame_blocks(feat.n_frames):
        part = feat.data[:, block].astype(np.float64)
        if tx.kind == "foa":
            feat.data[:, block] = _swap_foa(part, groups, tx)
        else:
            feat.data[:, block] = _swap_mic(part, groups, tx, feat.meta, speed_of_sound)
    return labels.transformed(tx.matrix) if labels is not None else None


def channel_swap(
    feat: FeatureTensor,
    labels: SeldLabels | None,
    tx: SpatialTransform,
    speed_of_sound: float = SPEED_OF_SOUND,
) -> tuple[FeatureTensor, SeldLabels | None]:
    """Apply a direction transform by rearranging feature channels.

    Equivalent to rendering the transformed scene: spectrogram channels are
    permuted, direction-valued channels are rotated/re-referenced, GCC pair
    channels are permuted with lag reversal where the pair order flips, and
    label directions are mapped through the same matrix.

    Args:
        feat: feature tensor to transform (any supported kind).
        labels: matching labels, or None.
        tx: transform whose kind matches feat.meta["format"].

    Returns:
        (transformed features, transformed labels).
    """
    fmt = feat.meta.get("format")
    if fmt != tx.kind:
        raise ValueError(f"transform is for {tx.kind!r} but features are {fmt!r}")
    out = feat.copy()
    return out, _swap_channels(out, labels, tx, speed_of_sound)


def _shift_bands(feat: FeatureTensor, shift: int) -> None:
    """frequency_shift of feat.data in place."""
    for ch, role in enumerate(feat.channel_roles):
        if role == "gcc" or shift == 0:
            continue
        x = feat.data[ch]
        fill = x.min() if role == "spec" else 0.0
        if shift > 0:
            x[:, shift:] = x[:, :-shift]
            x[:, :shift] = fill
        else:
            x[:, :shift] = x[:, -shift:]
            x[:, shift:] = fill


def frequency_shift(
    feat: FeatureTensor, shift: int, max_shift: int = 10
) -> FeatureTensor:
    """Shift spectrogram and direction channels along the band axis.

    Vacated bands are filled with the channel's minimum for spectrogram
    channels and with zero for direction channels; GCC channels have no
    frequency axis and pass through untouched.

    Args:
        feat: feature tensor.
        shift: bands to shift by, positive moves content upward.
        max_shift: validation bound on |shift|.
    """
    if abs(shift) > max_shift:
        raise ValueError(f"|shift| must be <= {max_shift}, got {shift}")
    out = feat.copy()
    _shift_bands(out, shift)
    return out


def _cut_out(feat: FeatureTensor, rng: np.random.Generator, cfg: AugmentConfig) -> None:
    """random_cutout of feat.data in place."""
    T, B = feat.n_frames, feat.n_bands
    mask = np.zeros((T, B), dtype=bool)
    if rng.random() < 0.5:
        ht = int(rng.integers(1, max(1, int(cfg.rect_max_time_frac * T)) + 1))
        wb = int(rng.integers(1, max(1, int(cfg.rect_max_band_frac * B)) + 1))
        t0 = int(rng.integers(0, T - ht + 1))
        b0 = int(rng.integers(0, B - wb + 1))
        mask[t0 : t0 + ht, b0 : b0 + wb] = True
    else:
        for _ in range(int(rng.integers(1, cfg.cross_max_freq_bands + 1))):
            w = int(rng.integers(1, min(cfg.cross_max_freq_width, B) + 1))
            b0 = int(rng.integers(0, B - w + 1))
            mask[:, b0 : b0 + w] = True
        for _ in range(int(rng.integers(1, cfg.cross_max_time_bands + 1))):
            w = int(rng.integers(1, min(cfg.cross_max_time_width, T) + 1))
            t0 = int(rng.integers(0, T - w + 1))
            mask[t0 : t0 + w, :] = True

    for ch, role in enumerate(feat.channel_roles):
        if role == "spec":
            lo, hi = float(feat.data[ch].min()), float(feat.data[ch].max())
            value = float(rng.uniform(lo, hi)) if hi > lo else lo
        else:
            value = 0.0
        feat.data[ch][mask] = value


def random_cutout(
    feat: FeatureTensor, rng: np.random.Generator, cfg: AugmentConfig | None = None
) -> FeatureTensor:
    """Mask one random region, identical across channels.

    With equal probability the region is a single rectangle (up to a quarter
    of each axis) or a cross of up to cross_max_freq_bands frequency stripes
    and cross_max_time_bands time stripes. Spectrogram channels are filled
    with a per-channel uniform draw from their observed value range; other
    channels are zeroed.
    """
    out = feat.copy()
    _cut_out(out, rng, cfg if cfg is not None else AugmentConfig())
    return out


def augment_pipeline(
    feat: FeatureTensor,
    labels: SeldLabels | None,
    rng: np.random.Generator,
    cfg: AugmentConfig | None = None,
    *,
    in_place: bool = False,
) -> tuple[FeatureTensor, SeldLabels | None]:
    """Channel swap, frequency shift, and random cutout, each applied
    independently with probability cfg.p_apply, in that order.

    The stages work on one tensor in its own dtype: a copy of feat or, with
    in_place, feat itself.
    """
    if cfg is None:
        cfg = AugmentConfig()
    if not in_place:
        feat = feat.copy()
    if rng.random() < cfg.p_apply:
        options = transforms_for(feat.meta.get("format"))
        tx = options[int(rng.integers(len(options)))]
        labels = _swap_channels(feat, labels, tx, SPEED_OF_SOUND)
    if rng.random() < cfg.p_apply:
        shift = int(rng.integers(-cfg.max_shift, cfg.max_shift + 1))
        _shift_bands(feat, shift)
    if rng.random() < cfg.p_apply:
        _cut_out(feat, rng, cfg)
    return feat, labels
