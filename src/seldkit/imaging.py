"""Heatmap rendering of feature channels to binary PPM images."""

from __future__ import annotations

import math

import numpy as np

from .tensorfile import atomic_write_bytes

# Perceptually uniform dark-to-bright ramp (viridis-like anchor points).
_RAMP_ANCHORS = np.array(
    [
        [68, 1, 84],
        [72, 40, 120],
        [62, 74, 137],
        [49, 104, 142],
        [38, 130, 142],
        [31, 158, 137],
        [53, 183, 121],
        [109, 205, 89],
        [180, 222, 44],
        [253, 231, 37],
    ],
    dtype=np.float64,
)
# Values colored per color_ramp call in render_heatmap.
_RAMP_CHUNK = 1 << 14


def color_ramp(values: np.ndarray) -> np.ndarray:
    """Map values in [0, 1] to RGB bytes along the ramp."""
    v = np.clip(np.asarray(values, dtype=np.float64), 0.0, 1.0)
    pos = v * (len(_RAMP_ANCHORS) - 1)
    idx = np.minimum(pos.astype(int), len(_RAMP_ANCHORS) - 2)
    frac = pos - idx
    lo = _RAMP_ANCHORS[idx]
    hi = _RAMP_ANCHORS[idx + 1]
    rgb = lo + (hi - lo) * frac[..., None]
    return np.round(rgb).astype(np.uint8)


def render_heatmap(
    values: np.ndarray, vmin: float | None = None, vmax: float | None = None
) -> np.ndarray:
    """RGB image of a (frames, bands) plane; bands increase upward.

    Returns (bands, frames, 3) uint8. A constant plane renders at the ramp
    bottom. Raises ValueError if a bound (given, or the plane's min or max)
    is not finite.
    """
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != 2:
        raise ValueError("heatmap input must be 2-D (frames, bands)")
    lo = float(arr.min()) if vmin is None else float(vmin)
    hi = float(arr.max()) if vmax is None else float(vmax)
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError(f"color scale bounds must be finite, got {lo!r}..{hi!r}")
    if hi <= lo:
        norm = np.zeros_like(arr)
    else:
        norm = arr - lo
        norm /= hi - lo
    # transpose to (bands, frames), flip so low bands sit at the image bottom
    norm = norm.T[::-1]
    # A few rows at a time, so color_ramp's (n, 3) float64 temporaries stay
    # small next to the plane; the ramp works on each value on its own.
    image = np.empty(norm.shape + (3,), dtype=np.uint8)
    step = max(1, _RAMP_CHUNK // max(1, norm.shape[1]))
    for start in range(0, len(norm), step):
        image[start : start + step] = color_ramp(norm[start : start + step])
    return image


def write_ppm(path, image: np.ndarray) -> None:
    """Write an (H, W, 3) uint8 image as binary PPM (P6)."""
    image = np.asarray(image)
    if image.ndim != 3 or image.shape[2] != 3 or image.dtype != np.uint8:
        raise ValueError("image must be (H, W, 3) uint8")
    header = f"P6\n{image.shape[1]} {image.shape[0]}\n255\n".encode()
    atomic_write_bytes(path, header + image.tobytes())
