"""Raster transforms and the PPM/PGM/PNG codecs."""

import struct
import tracemalloc
import zlib

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from chrono_shield.codecs import (
    MAX_PNG_PIXELS,
    PNG_SIGNATURE,
    MalformedFile,
    UnsupportedVariant,
    _png_chunk,
    decode_image,
    encode_image,
    load_image,
    save_image,
    sniff_format,
)
from chrono_shield.raster import (
    InvalidSigma,
    RasterImage,
    blur_plane,
    gaussian_blur,
    gaussian_kernel,
    resize_bilinear,
    to_grayscale,
)

from _oracles import dense_gaussian_blur, direct_bilinear, png_forward_filter, reference_encode_png
from conftest import flat_image, random_image


# ---------------------------------------------------------------------------
# RasterImage


class TestRasterImage:
    def test_2d_array_promotes_to_one_channel(self):
        img = RasterImage(np.zeros((4, 5), dtype=np.uint8))
        assert (img.height, img.width, img.channels) == (4, 5, 1)

    def test_rejects_bad_channel_count(self):
        with pytest.raises(ValueError):
            RasterImage(np.zeros((4, 4, 2), dtype=np.uint8))

    def test_rejects_empty_dims(self):
        with pytest.raises(ValueError):
            RasterImage(np.zeros((0, 4, 3), dtype=np.uint8))

    def test_pixels_are_immutable(self):
        img = flat_image(7)
        with pytest.raises(ValueError):
            img.pixels[0, 0, 0] = 1

    def test_does_not_alias_caller_array(self):
        arr = np.zeros((3, 3, 3), dtype=np.uint8)
        img = RasterImage(arr)
        arr[0, 0, 0] = 99
        assert img.pixels[0, 0, 0] == 0

    def test_equality_is_by_content(self):
        a = flat_image(5)
        b = flat_image(5)
        c = flat_image(6)
        assert a == b and a != c
        assert a != "not an image"

    def test_data_bytes(self):
        img = flat_image(3, width=2, height=2)
        assert img.data == bytes([3] * 12)


class TestGrayscale:
    # 601 luma of the pure primaries, rounded to nearest: frozen by hand.
    @pytest.mark.parametrize(
        "rgb,luma",
        [
            ((255, 0, 0), 76),  # rint(255*0.299)
            ((0, 255, 0), 150),  # rint(255*0.587)
            ((0, 0, 255), 29),  # rint(255*0.114)
            ((255, 255, 255), 255),
            ((0, 0, 0), 0),
        ],
    )
    def test_primary_colors(self, rgb, luma):
        px = np.zeros((1, 1, 3), dtype=np.uint8)
        px[0, 0] = rgb
        assert to_grayscale(RasterImage(px)).pixels[0, 0, 0] == luma

    def test_grayscale_passthrough(self):
        img = RasterImage(np.zeros((2, 2, 1), dtype=np.uint8))
        assert to_grayscale(img) is img

    def test_output_is_single_channel(self, rng):
        assert to_grayscale(random_image(rng, 5, 4)).channels == 1


class TestBlur:
    def test_kernel_normalized_symmetric_peaked(self):
        taps = gaussian_kernel(1.4, 2)
        assert taps.shape == (5,)
        assert abs(taps.sum() - 1.0) < 1e-12
        assert np.allclose(taps, taps[::-1])
        assert taps.argmax() == 2

    def test_kernel_rejects_bad_args(self):
        with pytest.raises(InvalidSigma):
            gaussian_kernel(0.0, 2)
        with pytest.raises(InvalidSigma):
            gaussian_kernel(-1.0, 2)
        with pytest.raises(ValueError):
            gaussian_kernel(1.0, 0)

    def test_matches_dense_convolution_oracle(self, rng):
        plane = rng.uniform(0, 255, size=(8, 9))
        got = blur_plane(plane, 1.4, 2)
        want = dense_gaussian_blur(plane, 1.4, 2)
        assert np.allclose(got, want, atol=1e-9)

    def test_constant_plane_is_fixed_point(self):
        plane = np.full((6, 6), 123.0)
        assert np.allclose(blur_plane(plane, 2.0, 2), plane)

    def test_gaussian_blur_requires_one_channel(self, rng):
        with pytest.raises(ValueError):
            gaussian_blur(random_image(rng, 4, 4, channels=3))

    def test_gaussian_blur_shape_and_dtype(self, rng):
        img = random_image(rng, 7, 5, channels=1)
        out = gaussian_blur(img)
        assert (out.height, out.width, out.channels) == (5, 7, 1)
        assert out.pixels.dtype == np.uint8


class TestResize:
    def test_identity_at_same_size(self, rng):
        img = random_image(rng, 6, 4)
        assert resize_bilinear(img, 6, 4) is img

    def test_matches_scalar_reference(self, rng):
        img = random_image(rng, 5, 7)
        got = resize_bilinear(img, 11, 4)
        want = direct_bilinear(img.pixels, 11, 4)
        assert np.array_equal(got.pixels, want)

    def test_downscale_matches_scalar_reference(self, rng):
        img = random_image(rng, 16, 16)
        got = resize_bilinear(img, 8, 8)
        want = direct_bilinear(img.pixels, 8, 8)
        assert np.array_equal(got.pixels, want)

    def test_constant_image_stays_constant(self):
        img = flat_image(99, 4, 4)
        out = resize_bilinear(img, 13, 9)
        assert np.all(out.pixels == 99)

    def test_rejects_bad_dims(self, rng):
        with pytest.raises(ValueError):
            resize_bilinear(random_image(rng, 4, 4), 0, 4)

    def test_stack_identity_at_same_size(self, rng):
        stack = rng.integers(0, 256, size=(2, 4, 6, 3), dtype=np.uint8)
        assert resize_bilinear(stack, 6, 4) is stack

    def test_stack_rejects_non_uint8(self):
        with pytest.raises(ValueError):
            resize_bilinear(np.zeros((2, 4, 4, 3)), 8, 8)

    @pytest.mark.parametrize("channels", [1, 3])
    def test_two_to_one_matches_reference_for_every_block_sum(self, rng, channels):
        # 2x2 block i of each channel sums to a distinct value of 0..1020,
        # split at random over its four pixels.
        sums = np.stack([rng.permutation(1021) for _ in range(channels)], axis=-1)
        blocks = np.empty((1021, 4, channels), dtype=np.uint8)
        for i, ch in np.ndindex(*sums.shape):
            left = int(sums[i, ch])
            for j in range(4):
                lo, hi = max(0, left - 255 * (3 - j)), min(255, left)
                blocks[i, j, ch] = v = rng.integers(lo, hi + 1)
                left -= int(v)
        px = blocks.reshape(1021, 2, 2, channels).transpose(1, 0, 2, 3).reshape(2, 2042, channels)
        got = resize_bilinear(RasterImage(px), 1021, 1).pixels
        assert np.array_equal(got, direct_bilinear(px, 1021, 1))
        assert np.array_equal(got[0], np.rint(sums / 4))  # rint rounds half to even

    @pytest.mark.parametrize("lead", [(), (1,), (4,), (2, 3)])
    @pytest.mark.parametrize("channels", [1, 3])
    def test_two_to_one_stack_matches_reference(self, rng, lead, channels):
        stack = rng.integers(0, 256, size=(*lead, 12, 18, channels), dtype=np.uint8)
        got = resize_bilinear(stack, 9, 6)
        assert got.shape == (*lead, 6, 9, channels) and got.dtype == np.uint8
        for idx in np.ndindex(*lead):
            assert np.array_equal(got[idx], direct_bilinear(stack[idx], 9, 6))

    @given(
        n=st.integers(1, 5),
        h=st.integers(1, 70),
        w=st.integers(1, 70),
        out_h=st.integers(1, 70),
        out_w=st.integers(1, 70),
        c=st.sampled_from([1, 3]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_stack_matches_per_frame_and_reference(self, n, h, w, out_h, out_w, c, seed):
        stack = np.random.default_rng(seed).integers(0, 256, size=(n, h, w, c), dtype=np.uint8)
        got = resize_bilinear(stack, out_w, out_h)
        assert got.shape == (n, out_h, out_w, c) and got.dtype == np.uint8
        for frame, row in zip(stack, got):
            assert np.array_equal(row, resize_bilinear(RasterImage(frame), out_w, out_h).pixels)
            assert np.array_equal(row, direct_bilinear(frame, out_w, out_h))


# ---------------------------------------------------------------------------
# PPM / PGM


class TestPnm:
    def test_canonical_p6_header(self):
        img = flat_image(8, width=3, height=2)
        data = encode_image(img, "ppm")
        assert data == b"P6\n3 2\n255\n" + bytes([8] * 18)

    def test_p6_round_trip(self, rng):
        img = random_image(rng, 9, 5)
        assert decode_image(encode_image(img, "ppm"), "ppm") == img

    def test_gray_as_ppm_replicates_channels(self):
        img = RasterImage(np.arange(6, dtype=np.uint8).reshape(2, 3, 1))
        out = decode_image(encode_image(img, "ppm"), "ppm")
        assert out.channels == 3
        assert np.array_equal(out.pixels[:, :, 0], img.pixels[:, :, 0])
        assert np.array_equal(out.pixels[:, :, 1], img.pixels[:, :, 0])

    def test_pgm_round_trip(self, rng):
        img = random_image(rng, 4, 6, channels=1)
        assert decode_image(encode_image(img, "pgm"), "pgm") == img

    def test_pgm_rejects_rgb(self, rng):
        with pytest.raises(ValueError):
            encode_image(random_image(rng, 2, 2), "pgm")

    def test_header_comments_and_whitespace(self):
        data = b"P6 # a comment\n# another\n 2\t1 \n255\n" + bytes(6)
        img = decode_image(data, "ppm")
        assert (img.width, img.height) == (2, 1)

    def test_bad_magic(self):
        with pytest.raises(MalformedFile):
            decode_image(b"P3\n1 1\n255\n000", "ppm")

    def test_non_numeric_header(self):
        with pytest.raises(MalformedFile):
            decode_image(b"P6\nx 1\n255\n" + bytes(3), "ppm")

    def test_wide_maxval_unsupported(self):
        with pytest.raises(UnsupportedVariant):
            decode_image(b"P6\n1 1\n65535\n" + bytes(6), "ppm")

    def test_truncated_payload(self):
        with pytest.raises(MalformedFile):
            decode_image(b"P6\n2 2\n255\n" + bytes(5), "ppm")

    def test_truncated_header(self):
        with pytest.raises(MalformedFile):
            decode_image(b"P6\n2", "ppm")

    def test_zero_dimension_rejected(self):
        with pytest.raises(MalformedFile):
            decode_image(b"P6\n0 1\n255\n", "ppm")


# ---------------------------------------------------------------------------
# PNG


def _png_from_scanlines(width, height, color_type, lines: bytes) -> bytes:
    ihdr = struct.pack(">IIBBBBB", width, height, 8, color_type, 0, 0, 0)
    return (
        PNG_SIGNATURE
        + _png_chunk(b"IHDR", ihdr)
        + _png_chunk(b"IDAT", zlib.compress(lines))
        + _png_chunk(b"IEND", b"")
    )


def _filtered_png(px: np.ndarray, ftypes) -> bytes:
    """px as a PNG whose row y carries filter ftypes[y], filtered by the
    independent forward-filter oracle."""
    height, width, channels = px.shape
    lines = bytearray()
    prev = np.zeros(width * channels, dtype=np.uint8)
    for ftype, row in zip(ftypes, px):
        cur = row.reshape(-1)
        lines.append(ftype)
        lines += png_forward_filter(ftype, cur, prev, channels).tobytes()
        prev = cur
    return _png_from_scanlines(width, height, 0 if channels == 1 else 2, bytes(lines))


class TestPng:
    def test_rgb_round_trip(self, rng):
        img = random_image(rng, 7, 3)
        assert decode_image(encode_image(img, "png"), "png") == img

    def test_gray_round_trip(self, rng):
        img = random_image(rng, 3, 8, channels=1)
        assert decode_image(encode_image(img, "png"), "png") == img

    @pytest.mark.parametrize("channels", [1, 3])
    @pytest.mark.parametrize("w, h", [(1, 1), (7, 5), (13, 2), (64, 64)])
    def test_encoder_bytes_match_the_reference(self, rng, w, h, channels):
        # The archive, the fixture server and the remote cache all store these bytes.
        img = random_image(rng, w, h, channels=channels)
        assert encode_image(img, "png") == reference_encode_png(img)

    def test_all_filter_types_against_forward_reference(self, rng):
        # Encode each scanline with a different filter using the
        # independent forward-filter oracle; the decoder must invert all.
        px = rng.integers(0, 256, size=(5, 4, 3), dtype=np.uint8)
        img = decode_image(_filtered_png(px, [y % 5 for y in range(5)]), "png")
        assert np.array_equal(img.pixels, px)

    def test_gray_filters_against_forward_reference(self, rng):
        px = rng.integers(0, 256, size=(6, 5, 1), dtype=np.uint8)
        img = decode_image(_filtered_png(px, [(y + 3) % 5 for y in range(6)]), "png")
        assert np.array_equal(img.pixels, px)

    @pytest.mark.parametrize("channels", [1, 3])
    @pytest.mark.parametrize("row", [None, 0, 3, 6])
    @pytest.mark.parametrize("ftype", [1, 2, 3, 4])
    def test_filter_zero_rows_against_forward_reference(self, rng, channels, row, ftype):
        # Every row filter 0 (the one-reshape path), or all but one row,
        # which sends the whole frame down the per-row path.
        px = rng.integers(0, 256, size=(7, 5, channels), dtype=np.uint8)
        ftypes = [ftype if y == row else 0 for y in range(7)]
        assert decode_image(_filtered_png(px, ftypes), "png") == RasterImage(px)

    def test_filter_five_in_the_last_row_is_malformed(self, rng):
        # The rows above it take filter 0: only the last byte is out of range.
        px = rng.integers(0, 256, size=(4, 3, 3), dtype=np.uint8)
        lines = b"".join(bytes([ftype]) + row.tobytes() for ftype, row in zip([0, 0, 0, 5], px))
        with pytest.raises(MalformedFile, match="filter type 5"):
            decode_image(_png_from_scanlines(3, 4, 2, lines), "png")

    def test_bad_signature(self):
        with pytest.raises(MalformedFile):
            decode_image(b"NOTAPNG" + bytes(20), "png")

    def test_crc_corruption_detected(self, rng):
        data = bytearray(encode_image(random_image(rng, 3, 3), "png"))
        data[20] ^= 0xFF  # inside IHDR payload
        with pytest.raises(MalformedFile, match="CRC"):
            decode_image(bytes(data), "png")

    def test_sixteen_bit_unsupported(self):
        ihdr = struct.pack(">IIBBBBB", 1, 1, 16, 0, 0, 0, 0)
        data = PNG_SIGNATURE + _png_chunk(b"IHDR", ihdr) + _png_chunk(b"IEND", b"")
        with pytest.raises(UnsupportedVariant):
            decode_image(data, "png")

    def test_rgba_unsupported(self):
        ihdr = struct.pack(">IIBBBBB", 1, 1, 8, 6, 0, 0, 0)
        data = PNG_SIGNATURE + _png_chunk(b"IHDR", ihdr) + _png_chunk(b"IEND", b"")
        with pytest.raises(UnsupportedVariant):
            decode_image(data, "png")

    def test_interlace_unsupported(self):
        ihdr = struct.pack(">IIBBBBB", 1, 1, 8, 2, 0, 0, 1)
        data = PNG_SIGNATURE + _png_chunk(b"IHDR", ihdr) + _png_chunk(b"IEND", b"")
        with pytest.raises(UnsupportedVariant):
            decode_image(data, "png")

    def test_truncated_chunk(self, rng):
        data = encode_image(random_image(rng, 3, 3), "png")
        with pytest.raises(MalformedFile):
            decode_image(data[:-6], "png")

    def test_wrong_pixel_data_length(self):
        # One scanline short for the declared height.
        lines = bytes([0]) + bytes(6)
        with pytest.raises(MalformedFile):
            decode_image(_png_from_scanlines(2, 2, 2, lines), "png")

    def test_unknown_filter_type(self):
        lines = bytes([9]) + bytes(6)
        with pytest.raises(MalformedFile):
            decode_image(_png_from_scanlines(2, 1, 2, lines), "png")

    def test_missing_iend(self, rng):
        img = random_image(rng, 2, 2)
        full = encode_image(img, "png")
        # Strip the IEND chunk (12 bytes: length + tag + crc).
        with pytest.raises(MalformedFile):
            decode_image(full[:-12], "png")

    def test_inflate_bounded_by_ihdr(self):
        # An 8x8 RGB IHDR declares 200 bytes of scanlines; the IDAT inflates
        # to 64 MiB of zeros. Decoding must stop one byte past the 200.
        deflate = zlib.compressobj(9)
        block = bytes(1 << 20)
        idat = b"".join(deflate.compress(block) for _ in range(64)) + deflate.flush()
        ihdr = struct.pack(">IIBBBBB", 8, 8, 8, 2, 0, 0, 0)
        data = PNG_SIGNATURE + _png_chunk(b"IHDR", ihdr) + _png_chunk(b"IDAT", idat) + _png_chunk(b"IEND", b"")
        tracemalloc.start()
        try:
            with pytest.raises(MalformedFile):
                decode_image(data, "png")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_declared_size_capped_before_inflate(self):
        side = int(MAX_PNG_PIXELS**0.5) + 1
        ihdr = struct.pack(">IIBBBBB", side, side, 8, 0, 0, 0, 0)
        data = PNG_SIGNATURE + _png_chunk(b"IHDR", ihdr) + _png_chunk(b"IDAT", b"") + _png_chunk(b"IEND", b"")
        with pytest.raises(UnsupportedVariant, match="limit"):
            decode_image(data, "png")

    def test_truncated_deflate_stream(self):
        # Every scanline byte is present but the stream's checksum is not.
        lines = bytes([0]) + bytes(6)
        ihdr = struct.pack(">IIBBBBB", 2, 1, 8, 2, 0, 0, 0)
        idat = zlib.compress(lines)[:-4]
        data = PNG_SIGNATURE + _png_chunk(b"IHDR", ihdr) + _png_chunk(b"IDAT", idat) + _png_chunk(b"IEND", b"")
        with pytest.raises(MalformedFile):
            decode_image(data, "png")


# ---------------------------------------------------------------------------
# Dispatch and files


class TestDispatch:
    def test_sniff(self, rng):
        img = random_image(rng, 2, 2)
        assert sniff_format(encode_image(img, "png")) == "png"
        assert sniff_format(encode_image(img, "ppm")) == "ppm"
        with pytest.raises(MalformedFile):
            sniff_format(b"garbage")

    def test_unknown_format_names(self, rng):
        img = random_image(rng, 2, 2)
        with pytest.raises(ValueError):
            encode_image(img, "webp")
        with pytest.raises(ValueError):
            decode_image(b"", "webp")

    @pytest.mark.parametrize("ext", ["png", "ppm", "pgm"])
    def test_file_round_trip(self, tmp_path, rng, ext):
        channels = 1 if ext == "pgm" else 3
        img = random_image(rng, 5, 4, channels=channels)
        path = tmp_path / f"img.{ext}"
        save_image(img, path)
        back = load_image(path)
        if ext == "ppm" and channels == 3:
            assert back == img
        else:
            assert np.array_equal(back.pixels[:, :, 0], img.pixels[:, :, 0])

    def test_save_unknown_extension(self, tmp_path, rng):
        with pytest.raises(ValueError):
            save_image(random_image(rng, 2, 2), tmp_path / "img.bmp")

    # Each file name and the magic save_image writes under it, or None where
    # it refuses: the extension after the last dot picks the format, in any case.
    SAVE_NAMES = {
        "a.png": b"\x89PNG",
        "a.PNG": b"\x89PNG",
        ".png": b"\x89PNG",
        "a.ppm.png": b"\x89PNG",
        "a.ppm": b"P6",
        "a.Pgm": b"P5",
        "a.PGM": b"P5",
        "png": None,
        "apng": None,
        "a.png.bak": None,
        "a.jpg": None,
        "a.": None,
        "a_png": None,
    }

    @pytest.mark.parametrize("name", list(SAVE_NAMES))
    def test_save_image_picks_the_format_from_the_extension(self, tmp_path, rng, name):
        img = random_image(rng, 3, 2, channels=1)
        magic = self.SAVE_NAMES[name]
        if magic is None:
            with pytest.raises(ValueError, match="cannot infer image format"):
                save_image(img, tmp_path / name)
            assert not (tmp_path / name).exists()
        else:
            save_image(img, tmp_path / name)
            assert (tmp_path / name).read_bytes().startswith(magic)


# ---------------------------------------------------------------------------
# Properties


@given(st.integers(0, 255), st.integers(1, 16), st.integers(1, 16))
def test_ppm_round_trip_constant_images(value, w, h):
    img = RasterImage(np.full((h, w, 3), value, dtype=np.uint8))
    assert decode_image(encode_image(img, "ppm"), "ppm") == img


@given(st.data())
def test_png_round_trip_random_images(data):
    w = data.draw(st.integers(1, 12))
    h = data.draw(st.integers(1, 12))
    c = data.draw(st.sampled_from([1, 3]))
    seed = data.draw(st.integers(0, 2**31))
    px = np.random.default_rng(seed).integers(0, 256, size=(h, w, c), dtype=np.uint8)
    img = RasterImage(px)
    assert decode_image(encode_image(img, "png"), "png") == img
