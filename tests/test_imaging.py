"""Tests for the imaging substrate."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.imaging import (
    Image,
    add_gaussian_noise,
    add_poisson_noise,
    box_blur,
    draw_ellipse,
    draw_rectangle,
    ensure_uint8,
    fill_polygon,
    gaussian_blur,
    gaussian_kernel_1d,
    normalize_to_unit,
    pad_to,
    read_pgm,
    rescale_intensity,
    resize_nearest,
    to_float,
    to_grayscale,
    to_rgb,
    write_pgm,
    write_png,
)


class TestImageContainer:
    def test_uint8_conversion_and_clipping(self):
        image = Image(np.array([[300.0, -5.0], [10.0, 128.0]]))
        assert image.pixels.dtype == np.uint8
        assert image.pixels[0, 0] == 255
        assert image.pixels[0, 1] == 0

    def test_properties(self):
        image = Image(np.zeros((4, 6, 3)), name="x")
        assert (image.height, image.width, image.channels) == (4, 6, 3)
        assert image.num_pixels == 24

    def test_grayscale_of_rgb(self):
        rgb = np.zeros((2, 2, 3))
        rgb[..., 1] = 255  # pure green
        gray = Image(rgb).grayscale()
        assert gray.shape == (2, 2)
        assert abs(int(gray[0, 0]) - 150) <= 1  # 0.587 * 255

    def test_rgb_of_grayscale(self):
        image = Image(np.full((2, 3), 17))
        rgb = image.rgb()
        assert rgb.shape == (2, 3, 3)
        assert np.all(rgb == 17)

    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            Image(np.zeros((2, 2, 5)))
        with pytest.raises(ValueError):
            Image(np.zeros(4))

    def test_copy_is_independent(self):
        image = Image(np.zeros((2, 2)))
        clone = image.copy()
        clone.pixels[0, 0] = 9
        assert image.pixels[0, 0] == 0


class TestColorConversions:
    def test_to_float_scales_uint8(self):
        assert to_float(np.array([0, 255], dtype=np.uint8)).max() == pytest.approx(1.0)

    def test_to_grayscale_passthrough_for_2d(self):
        arr = np.arange(6).reshape(2, 3)
        assert np.array_equal(to_grayscale(arr), arr)

    def test_to_rgb_rejects_bad_shape(self):
        with pytest.raises(ValueError):
            to_rgb(np.zeros((2, 2, 2)))

    def test_ensure_uint8_rounds(self):
        assert ensure_uint8(np.array([1.6]))[0] == 2

    @pytest.mark.parametrize("shape", [(5, 7), (5, 7, 1)])
    @pytest.mark.parametrize("convert", [ensure_uint8, to_grayscale])
    def test_uint8_input_is_copied_not_aliased(self, shape, convert):
        """uint8 input skips the float round trip but still comes back as
        a new array with the same values."""
        arr = np.arange(35, dtype=np.uint8).reshape(shape) * 7
        out = convert(arr)
        expected = arr if convert is ensure_uint8 else arr.reshape(5, 7)
        assert out.dtype == np.uint8
        assert np.array_equal(out, expected)
        assert not np.shares_memory(out, arr)

    @pytest.mark.parametrize("convert", [ensure_uint8, to_grayscale])
    def test_float_input_still_rounds_and_clips(self, convert):
        arr = np.array([[-3.0, 0.4, 0.5, 1.5], [2.5, 254.6, 255.4, 300.0]])
        expected = [[0, 0, 0, 2], [2, 255, 255, 255]]  # rint: halves to even
        assert np.array_equal(convert(arr), expected)
        assert np.array_equal(convert(arr[:, :, None]).reshape(2, 4), expected)


class TestDrawing:
    def test_ellipse_mask_and_canvas(self):
        canvas = np.zeros((32, 32))
        mask = draw_ellipse(canvas, (16, 16), (6, 9), 1.0)
        assert mask[16, 16]
        assert not mask[0, 0]
        assert canvas[16, 16] == 1.0
        # Mask extent matches the requested semi-axes.
        rows = np.where(mask.any(axis=1))[0]
        assert rows.min() >= 9 and rows.max() <= 23

    def test_ellipse_soft_edge_extends_intensity_but_not_mask(self):
        canvas = np.zeros((32, 32))
        mask = draw_ellipse(canvas, (16, 16), (5, 5), 1.0, soft_edge=3.0)
        outside_ring = (canvas > 0) & ~mask
        assert outside_ring.any()

    def test_ellipse_rejects_bad_axes(self):
        with pytest.raises(ValueError):
            draw_ellipse(np.zeros((8, 8)), (4, 4), (0, 3), 1.0)

    def test_rectangle_clipping(self):
        canvas = np.zeros((10, 10))
        mask = draw_rectangle(canvas, (-5, -5), (3, 3), 2.0)
        assert mask[:3, :3].all()
        assert canvas[0, 0] == 2.0

    def test_polygon_fills_triangle(self):
        canvas = np.zeros((20, 20))
        mask = fill_polygon(canvas, np.array([[2, 2], [2, 16], [16, 9]]), 1.0)
        assert mask[5, 8]
        assert not mask[18, 1]

    def test_polygon_rejects_degenerate_input(self):
        with pytest.raises(ValueError):
            fill_polygon(np.zeros((5, 5)), np.array([[0, 0], [1, 1]]), 1.0)


class TestFilters:
    def test_gaussian_kernel_normalised(self):
        kernel = gaussian_kernel_1d(2.0)
        assert kernel.sum() == pytest.approx(1.0)
        assert kernel[len(kernel) // 2] == kernel.max()

    def test_gaussian_blur_preserves_mean(self, rng):
        image = rng.uniform(0, 255, size=(32, 32))
        blurred = gaussian_blur(image, 2.0)
        assert blurred.mean() == pytest.approx(image.mean(), rel=0.02)
        assert blurred.std() < image.std()

    def test_gaussian_blur_multichannel(self, rng):
        image = rng.uniform(0, 255, size=(16, 16, 3))
        assert gaussian_blur(image, 1.0).shape == image.shape

    def test_gaussian_blur_zero_sigma_is_copy(self, rng):
        image = rng.uniform(0, 1, size=(8, 8))
        assert np.array_equal(gaussian_blur(image, 0.0), image)

    def test_box_blur_requires_odd_size(self, rng):
        with pytest.raises(ValueError):
            box_blur(rng.uniform(size=(8, 8)), 4)

    def test_gaussian_noise_statistics(self, rng):
        image = np.full((100, 100), 100.0)
        noisy = add_gaussian_noise(image, 5.0, rng)
        assert noisy.std() == pytest.approx(5.0, rel=0.1)

    def test_gaussian_noise_zero_sigma(self, rng):
        image = np.full((4, 4), 7.0)
        assert np.array_equal(add_gaussian_noise(image, 0.0, rng), image)

    def test_poisson_noise_mean(self, rng):
        image = np.full((64, 64), 50.0)
        noisy = add_poisson_noise(image, rng)
        assert noisy.mean() == pytest.approx(50.0, rel=0.05)

    def test_poisson_noise_rejects_bad_scale(self, rng):
        with pytest.raises(ValueError):
            add_poisson_noise(np.ones((2, 2)), rng, scale=0.0)


class TestTransforms:
    def test_resize_nearest_shapes(self):
        image = np.arange(12).reshape(3, 4)
        assert resize_nearest(image, (6, 8)).shape == (6, 8)
        assert resize_nearest(image, (2, 2)).shape == (2, 2)

    def test_resize_preserves_label_values(self):
        mask = np.array([[0, 1], [2, 3]])
        resized = resize_nearest(mask, (4, 4))
        assert set(np.unique(resized)) == {0, 1, 2, 3}

    def test_pad_to(self):
        padded = pad_to(np.ones((2, 3)), (4, 5), value=7)
        assert padded.shape == (4, 5)
        assert padded[3, 4] == 7

    def test_pad_to_rejects_shrinking(self):
        with pytest.raises(ValueError):
            pad_to(np.ones((4, 4)), (2, 2))

    def test_rescale_intensity(self):
        out = rescale_intensity(np.array([2.0, 4.0, 6.0]))
        assert out.min() == 0.0
        assert out.max() == 255.0

    def test_rescale_constant_image(self):
        assert np.all(rescale_intensity(np.full((3, 3), 9.0)) == 0.0)

    def test_normalize_to_unit(self):
        out = normalize_to_unit(np.array([5.0, 10.0]))
        assert out.min() == 0.0 and out.max() == 1.0


class TestFileIO:
    def test_pgm_roundtrip(self, tmp_path, rng):
        image = rng.integers(0, 256, size=(17, 23)).astype(np.uint8)
        path = write_pgm(tmp_path / "test.pgm", image)
        assert np.array_equal(read_pgm(path), image)

    def test_pgm_rejects_rgb(self, tmp_path):
        with pytest.raises(ValueError):
            write_pgm(tmp_path / "x.pgm", np.zeros((4, 4, 3)))

    def test_read_pgm_rejects_other_formats(self, tmp_path):
        path = tmp_path / "fake.pgm"
        path.write_bytes(b"P6\n1 1\n255\n\x00\x00\x00")
        with pytest.raises(ValueError):
            read_pgm(path)

    def test_png_grayscale_signature_and_size(self, tmp_path, rng):
        image = rng.integers(0, 256, size=(9, 11)).astype(np.uint8)
        path = write_png(tmp_path / "gray.png", image)
        data = path.read_bytes()
        assert data.startswith(b"\x89PNG\r\n\x1a\n")
        assert b"IHDR" in data and b"IDAT" in data and b"IEND" in data

    def test_png_rgb(self, tmp_path, rng):
        image = rng.integers(0, 256, size=(5, 7, 3)).astype(np.uint8)
        path = write_png(tmp_path / "rgb.png", image)
        assert path.exists() and path.stat().st_size > 0

    def test_png_rejects_bad_channels(self, tmp_path):
        with pytest.raises(ValueError):
            write_png(tmp_path / "bad.png", np.zeros((4, 4, 2)))


@given(
    height=st.integers(min_value=1, max_value=32),
    width=st.integers(min_value=1, max_value=32),
    new_height=st.integers(min_value=1, max_value=48),
    new_width=st.integers(min_value=1, max_value=48),
)
@settings(max_examples=40, deadline=None)
def test_property_resize_output_values_come_from_input(height, width, new_height, new_width):
    rng = np.random.default_rng(height * 100 + width)
    image = rng.integers(0, 255, size=(height, width))
    resized = resize_nearest(image, (new_height, new_width))
    assert resized.shape == (new_height, new_width)
    assert set(np.unique(resized)).issubset(set(np.unique(image)))
