"""Heatmap rendering and portable pixmap output."""

import numpy as np
import pytest

from seldkit.imaging import color_ramp, render_heatmap, write_ppm


def test_ramp_endpoints():
    img = color_ramp(np.array([0.0, 1.0]))
    assert img.dtype == np.uint8
    assert tuple(img[0]) == (68, 1, 84)  # dark purple bottom
    assert tuple(img[1]) == (253, 231, 37)  # bright yellow top


def test_ramp_clips_out_of_range():
    img = color_ramp(np.array([-0.5, 1.5]))
    assert tuple(img[0]) == (68, 1, 84)
    assert tuple(img[1]) == (253, 231, 37)


def test_ramp_is_monotone_in_green():
    values = np.linspace(0.0, 1.0, 64)
    img = color_ramp(values)
    green = img[:, 1].astype(int)
    assert np.all(np.diff(green) >= 0)


def test_constant_plane_renders_uniform():
    plane = np.full((10, 6), 3.0)
    img = render_heatmap(plane)
    assert img.shape == (6, 10, 3)
    assert len(np.unique(img.reshape(-1, 3), axis=0)) == 1
    # a constant plane sits at the bottom of the ramp
    assert tuple(img[0, 0]) == (68, 1, 84)


def test_orientation_low_bands_at_image_bottom():
    # single hot cell at (frame 0, band 0) must land in the last pixel row
    plane = np.zeros((4, 5))
    plane[0, 0] = 1.0
    img = render_heatmap(plane)
    assert img.shape == (5, 4, 3)
    assert tuple(img[-1, 0]) == (253, 231, 37)
    assert tuple(img[0, 0]) == (68, 1, 84)


def test_explicit_range_overrides_data_range():
    plane = np.array([[0.5, 0.5]])
    img = render_heatmap(plane, vmin=0.0, vmax=1.0)
    mid = color_ramp(np.array([0.5]))[0]
    assert np.array_equal(img.reshape(-1, 3)[0], mid)


def test_render_rejects_non_planes():
    with pytest.raises(ValueError):
        render_heatmap(np.zeros(5))
    with pytest.raises(ValueError):
        render_heatmap(np.zeros((2, 2, 2)))


def test_degenerate_range_renders_bottom_color():
    img = render_heatmap(np.zeros((2, 2)), vmin=1.0, vmax=1.0)
    assert np.all(img.reshape(-1, 3) == (68, 1, 84))


def test_write_ppm(tmp_path):
    img = render_heatmap(np.arange(12.0).reshape(3, 4))
    path = tmp_path / "x.ppm"
    write_ppm(path, img)
    blob = path.read_bytes()
    assert blob.startswith(b"P6\n3 4\n255\n")
    assert len(blob) == len(b"P6\n3 4\n255\n") + 3 * 4 * 3
    with pytest.raises(ValueError):
        write_ppm(path, img.astype(np.float32))


@pytest.mark.parametrize("bounds", [
    {"vmin": float("nan")}, {"vmax": float("nan")},
    {"vmin": float("-inf")}, {"vmax": float("inf")},
])
def test_non_finite_bounds_are_rejected(bounds):
    plane = np.arange(12.0).reshape(4, 3)
    with pytest.raises(ValueError, match="finite"):
        render_heatmap(plane, **bounds)
