"""Spatial and spectro-temporal augmentation of feature tensors.

Channel swaps are exact direction transforms: permuting (and sign-flipping)
input channels is equivalent to rotating/mirroring the acoustic scene, so the
feature tensor and its labels transform together. The foa swaps are the 16
signed permutations made of quarter turns in azimuth, azimuth mirroring and
elevation flip. The mic swaps are the 8 of them that map the tetrahedral
array (spatial.tetra_positions) onto itself. ArrayFormat.channel_map gives a
swap's signed channel permutation where the swap is applied. Frequency
shifting and random cutout perturb the time-frequency content only.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .baseline import channel_pairs, check_kind
from .spatial import SPEED_OF_SOUND, ArrayFormat
from .stft import FeatureTensor, frame_blocks
from .synth import LabelRows

# random_cutout's size limits (see its docstring).
_RECT_MAX_FRAC = 0.25
_CROSS_STRIPES = 2
_CROSS_MAX_BANDS = 20
_CROSS_MAX_FRAMES = 64


@dataclass
class AugmentConfig:
    """Application probability and shift limit of the augmentation pipeline."""

    p_apply: float = 0.5
    max_shift: int = 10

    def __post_init__(self):
        if not (0.0 <= self.p_apply <= 1.0):
            raise ValueError("p_apply must be in [0, 1]")
        if self.max_shift < 0:
            raise ValueError("max_shift must be >= 0")


@dataclass(frozen=True)
class SpatialTransform:
    """A direction transform; ArrayFormat(kind).channel_map(matrix) gives its channels."""

    name: str
    kind: str  # "foa" or "mic"
    matrix: np.ndarray  # (3, 3) integer signed permutation


_ROT90 = np.array([[0, -1, 0], [1, 0, 0], [0, 0, 1]])


def _transform(kind: str, dphi: int, mirror: bool, zflip: bool) -> SpatialTransform:
    name = f"rot{dphi:03d}" + ("_mirror" if mirror else "") + ("_zflip" if zflip else "")
    rot = np.linalg.matrix_power(_ROT90, (dphi // 90) % 4)
    flip = np.diag([1, -1 if mirror else 1, -1 if zflip else 1])
    return SpatialTransform(name, kind, (rot @ flip).astype(np.int64))


def transforms_for(kind: str) -> list[SpatialTransform]:
    """A format's channel swaps, in the order augment_pipeline's seeded draw
    indexes them. The mic swaps are those with an even number of axis sign
    flips: a quarter turn comes with an elevation flip unless it is mirrored.
    """
    if kind == "foa":
        return [
            _transform(kind, dphi, mirror, zflip)
            for dphi in (0, 90, 180, 270)
            for mirror in (False, True)
            for zflip in (False, True)
        ]
    if kind == "mic":
        return [
            _transform(kind, dphi, mirror, mirror != (dphi % 180 == 90))
            for dphi in (0, 180, 90, 270)
            for mirror in (False, True)
        ]
    raise ValueError(f"unknown format kind {kind!r}")


def _role_slices(feat: FeatureTensor) -> dict[str, list[int]]:
    groups: dict[str, list[int]] = {"spec": [], "spatial": [], "gcc": []}
    for i, role in enumerate(feat.channel_roles):
        groups[role].append(i)
    return groups


def _reverse_lags(block: np.ndarray) -> np.ndarray:
    # Lag window (-L/2, L/2] reversed; lag +L/2 maps to -L/2 which is outside
    # the stored window, so it borrows the nearest stored lag (-L/2 + 1).
    return np.concatenate([block[..., -2::-1], block[..., :1]], axis=-1)


def _swap(
    data: np.ndarray,
    groups: dict[str, list[int]],
    perm: np.ndarray,
    sign: np.ndarray,
    fmt: ArrayFormat,
    f_hz: np.ndarray,
) -> np.ndarray:
    out = data.copy()
    spec_idx, sp = groups["spec"], groups["spatial"]
    if len(spec_idx) != len(perm):
        raise ValueError(f"swap permutes {len(perm)} channels but tensor has {len(spec_idx)}")
    if sp and len(sp) != len(perm) - 1:
        raise ValueError(f"{fmt.kind} spatial block must have {len(perm) - 1} channels")
    out[spec_idx] = data[[spec_idx[src] for src in perm]]  # log power moves without sign
    if sp:
        out[sp] = fmt.turn_cues(data[sp], perm, sign, f_hz)

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
    labels: LabelRows | None,
    tx: SpatialTransform,
) -> LabelRows | None:
    """channel_swap of feat.data in place, one block of frames at a time.

    A mic swap re-wraps the delay cues with the speed of sound they were
    extracted with, feat.meta["speed_of_sound"] (SPEED_OF_SOUND when the
    tensor does not record one). Every swap step maps each frame on its own,
    so each block is widened to float64, swapped, and stored back in the
    tensor's dtype; the only temporaries are a few blocks. Returns the
    transformed labels.
    """
    fmt = ArrayFormat(tx.kind, speed_of_sound=feat.meta.get("speed_of_sound", SPEED_OF_SOUND))
    check_kind(feat.meta.get("feature"), tx.kind)
    perm, sign = fmt.channel_map(tx.matrix)
    groups = _role_slices(feat)
    # Only the uncompressed low bands carry per-bin phase (ArrayFormat.turn_cues).
    B, bin_hz = feat.n_bands, float(feat.meta.get("bin_hz", 0.0))
    start = int(feat.meta.get("compress_start_bin", B))
    f_hz = np.arange(min(start, B) if bin_hz > 0 else 0) * bin_hz
    for block in frame_blocks(feat.n_frames):
        part = feat.data[:, block].astype(np.float64)
        feat.data[:, block] = _swap(part, groups, perm, sign, fmt, f_hz)
    return labels.transformed(tx.matrix) if labels is not None else None


def channel_swap(
    feat: FeatureTensor,
    labels: LabelRows | None,
    tx: SpatialTransform,
) -> tuple[FeatureTensor, LabelRows | None]:
    """Apply a direction transform by rearranging feature channels.

    Equivalent to rendering the transformed scene: spectrogram channels are
    permuted, direction-valued channels turn by ArrayFormat.turn_cues (mic
    delays at feat.meta["speed_of_sound"]), GCC pair channels are permuted
    with lag reversal where the pair order flips, and label directions are
    mapped through the same matrix.

    Args:
        feat: feature tensor to transform (any supported kind).
        labels: matching LabelRows, or None.
        tx: transform whose kind matches feat.meta["format"].

    Returns:
        (transformed features, transformed labels).
    """
    fmt = feat.meta.get("format")
    if fmt != tx.kind:
        raise ValueError(f"transform is for {tx.kind!r} but features are {fmt!r}")
    out = feat.copy()
    return out, _swap_channels(out, labels, tx)


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
    feat: FeatureTensor, shift: int, max_shift: int = AugmentConfig.max_shift
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


def _cut_out(feat: FeatureTensor, rng: np.random.Generator) -> None:
    """random_cutout of feat.data in place."""
    T, B = feat.n_frames, feat.n_bands
    mask = np.zeros((T, B), dtype=bool)
    if rng.random() < 0.5:
        ht = int(rng.integers(1, max(1, int(_RECT_MAX_FRAC * T)) + 1))
        wb = int(rng.integers(1, max(1, int(_RECT_MAX_FRAC * B)) + 1))
        t0 = int(rng.integers(0, T - ht + 1))
        b0 = int(rng.integers(0, B - wb + 1))
        mask[t0 : t0 + ht, b0 : b0 + wb] = True
    else:
        for _ in range(int(rng.integers(1, _CROSS_STRIPES + 1))):
            w = int(rng.integers(1, min(_CROSS_MAX_BANDS, B) + 1))
            b0 = int(rng.integers(0, B - w + 1))
            mask[:, b0 : b0 + w] = True
        for _ in range(int(rng.integers(1, _CROSS_STRIPES + 1))):
            w = int(rng.integers(1, min(_CROSS_MAX_FRAMES, T) + 1))
            t0 = int(rng.integers(0, T - w + 1))
            mask[t0 : t0 + w, :] = True

    for ch, role in enumerate(feat.channel_roles):
        if role == "spec":
            lo, hi = float(feat.data[ch].min()), float(feat.data[ch].max())
            value = float(rng.uniform(lo, hi)) if hi > lo else lo
        else:
            value = 0.0
        feat.data[ch][mask] = value


def random_cutout(feat: FeatureTensor, rng: np.random.Generator) -> FeatureTensor:
    """Mask one random region, identical across channels.

    With equal probability the region is a single rectangle (up to a quarter
    of each axis) or a cross of one or two frequency stripes (up to 20 bands
    wide each) and one or two time stripes (up to 64 frames wide each).
    Spectrogram channels are filled with a per-channel uniform draw from
    their observed value range; other channels are zeroed.
    """
    out = feat.copy()
    _cut_out(out, rng)
    return out


def augment_pipeline(
    feat: FeatureTensor,
    labels: LabelRows | None,
    rng: np.random.Generator,
    cfg: AugmentConfig | None = None,
) -> tuple[FeatureTensor, LabelRows | None]:
    """Channel swap, frequency shift, and random cutout, each applied
    independently with probability cfg.p_apply, in that order.

    The stages change feat itself, in its own dtype, and return it. labels
    (LabelRows or None) turn with the swap, if one is drawn.
    """
    if cfg is None:
        cfg = AugmentConfig()
    if rng.random() < cfg.p_apply:
        options = transforms_for(feat.meta.get("format"))
        tx = options[int(rng.integers(len(options)))]
        labels = _swap_channels(feat, labels, tx)
    if rng.random() < cfg.p_apply:
        shift = int(rng.integers(-cfg.max_shift, cfg.max_shift + 1))
        _shift_bands(feat, shift)
    if rng.random() < cfg.p_apply:
        _cut_out(feat, rng)
    return feat, labels
