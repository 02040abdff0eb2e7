"""8-bit raster images and the shared pixel transforms.

Images are row-major, interleaved, 1 (gray) or 3 (RGB) channels. Every
transform is pure: inputs are never mutated, intermediate math runs in
float64, and results are quantized back to uint8 only at the boundary.
The one exception is resize_bilinear's exact 2:1 case (every 64 -> 32 px
resize the classifier makes): there the float64 formula has no rounding
error, and integer math gives the same bytes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Intermediate scalar field, shape (h, w), float64.
FloatPlane = np.ndarray

# ITU-R 601 luma weights.
GRAY_WEIGHTS = (0.299, 0.587, 0.114)


class InvalidSigma(ValueError):
    """Blur requested with sigma <= 0."""


class InvalidRadius(ValueError):
    """A kernel radius under 1: blur taps or a structuring element's half-width."""


@dataclass(frozen=True, eq=False)
class RasterImage:
    """Immutable uint8 image, pixels shaped (h, w, c) with c in {1, 3}."""

    pixels: np.ndarray

    def __post_init__(self):
        px = np.asarray(self.pixels)
        if px.ndim == 2:
            px = px[:, :, None]
        if px.ndim != 3 or px.shape[2] not in (1, 3):
            raise ValueError(f"expected (h, w, 1|3) pixel array, got shape {px.shape}")
        if px.shape[0] < 1 or px.shape[1] < 1:
            raise ValueError("image dimensions must be positive")
        px = np.array(px, dtype=np.uint8, order="C")
        px.flags.writeable = False
        object.__setattr__(self, "pixels", px)

    @property
    def width(self) -> int:
        return self.pixels.shape[1]

    @property
    def height(self) -> int:
        return self.pixels.shape[0]

    @property
    def channels(self) -> int:
        return self.pixels.shape[2]

    @property
    def data(self) -> bytes:
        """Raw interleaved samples, length width*height*channels."""
        return self.pixels.tobytes()

    def __eq__(self, other) -> bool:
        if not isinstance(other, RasterImage):
            return NotImplemented
        return self.pixels.shape == other.pixels.shape and bool(
            np.array_equal(self.pixels, other.pixels)
        )

    def __repr__(self) -> str:
        return f"RasterImage({self.width}x{self.height}x{self.channels})"


def to_grayscale(img: RasterImage) -> RasterImage:
    """601-weighted luma. Grayscale input passes through unchanged."""
    if img.channels == 1:
        return img
    rgb = img.pixels.astype(np.float64)
    luma = GRAY_WEIGHTS[0] * rgb[:, :, 0] + GRAY_WEIGHTS[1] * rgb[:, :, 1] + GRAY_WEIGHTS[2] * rgb[:, :, 2]
    return RasterImage(np.clip(np.rint(luma), 0, 255).astype(np.uint8))


def gaussian_kernel(sigma: float, radius: int) -> np.ndarray:
    """1-D Gaussian taps at integer offsets -radius..radius, normalized to sum 1."""
    if sigma <= 0:
        raise InvalidSigma(f"sigma must be positive, got {sigma}")
    if radius < 1:
        raise InvalidRadius(f"blur radius must be >= 1, got {radius}")
    offsets = np.arange(-radius, radius + 1, dtype=np.float64)
    taps = np.exp(-(offsets**2) / (2.0 * sigma * sigma))
    return taps / taps.sum()


def blur_plane(plane: FloatPlane, sigma: float, radius: int) -> FloatPlane:
    """Separable Gaussian blur of a float plane, clamp-to-edge borders."""
    taps = gaussian_kernel(sigma, radius)
    padded = np.pad(plane, ((radius, radius), (0, 0)), mode="edge")
    h = plane.shape[0]
    out = np.zeros_like(plane, dtype=np.float64)
    for k, t in enumerate(taps):
        out += t * padded[k : k + h, :]
    padded = np.pad(out, ((0, 0), (radius, radius)), mode="edge")
    w = plane.shape[1]
    out2 = np.zeros_like(plane, dtype=np.float64)
    for k, t in enumerate(taps):
        out2 += t * padded[:, k : k + w]
    return out2


def gaussian_blur(img: RasterImage, sigma: float = 1.4, radius: int = 2) -> RasterImage:
    """Gaussian-blur a 1-channel image; output same dims, quantized to uint8."""
    if img.channels != 1:
        raise ValueError("gaussian_blur expects a 1-channel image")
    out = blur_plane(img.pixels[:, :, 0].astype(np.float64), sigma, radius)
    return RasterImage(np.clip(np.rint(out), 0, 255).astype(np.uint8))


def resize_bilinear(img: RasterImage | np.ndarray, out_w: int, out_h: int) -> RasterImage | np.ndarray:
    """Bilinear resample with half-pixel-center mapping. Identity at same size.

    img is a RasterImage, or a uint8 stack of frames shaped (..., h, w, c)
    that share one size; the result has the same type as img.
    """
    if out_w < 1 or out_h < 1:
        raise ValueError("output dimensions must be positive")
    px = img.pixels if isinstance(img, RasterImage) else img
    if px.dtype != np.uint8 or px.ndim < 3:
        raise ValueError(f"expected uint8 (..., h, w, c) pixels, got {px.dtype} {px.shape}")
    h, w = px.shape[-3], px.shape[-2]
    if out_w == w and out_h == h:
        return img
    if w == 2 * out_w and h == 2 * out_h:
        out = _halve(px)
        return RasterImage(out) if isinstance(img, RasterImage) else out
    # Plain numpy: this path is cold, since every resize the sweep makes is 2:1.
    # Half-pixel centers: dst center (i+0.5) maps to src coordinate space.
    sx = (np.arange(out_w, dtype=np.float64) + 0.5) * (w / out_w) - 0.5
    sy = (np.arange(out_h, dtype=np.float64) + 0.5) * (h / out_h) - 0.5
    sx = np.clip(sx, 0.0, w - 1.0)
    sy = np.clip(sy, 0.0, h - 1.0)
    x0 = np.floor(sx).astype(np.int64)
    y0 = np.floor(sy).astype(np.int64)
    x1 = np.minimum(x0 + 1, w - 1)
    y1 = np.minimum(y0 + 1, h - 1)
    fx = (sx - x0)[:, None]
    fy = (sy - y0)[:, None, None]

    def blend(ys):
        rows = px.take(ys, axis=-3)
        return rows.take(x0, axis=-2) * (1 - fx) + rows.take(x1, axis=-2) * fx

    out = blend(y0) * (1 - fy) + blend(y1) * fy
    out = np.clip(np.rint(out), 0, 255).astype(np.uint8)
    return RasterImage(out) if isinstance(img, RasterImage) else out


def _halve(px: np.ndarray) -> np.ndarray:
    """resize_bilinear's exact 2:1 case, in integers.

    Each output samples its 2x2 block at fx = fy = 0.5, where every float64
    product and sum of the general formula is exact, so the output is
    rint(s / 4) for the block sum s. Half to even, that is
    (s + 1 + ((s >> 2) & 1)) >> 2, computed in uint16 (s <= 1020).
    """
    *lead, h, w, c = px.shape
    pairs = px.reshape(*lead, h // 2, 2, w * c)
    rows = pairs[..., 0, :].astype(np.uint16)
    rows += pairs[..., 1, :]
    # Column pairs one channel at a time, so each inner loop runs w/2 long.
    cols = rows.reshape(*lead, h // 2, w // 2, 2, c)
    s = np.empty((*lead, h // 2, w // 2, c), dtype=np.uint16)
    for ch in range(c):
        np.add(cols[..., 0, ch], cols[..., 1, ch], out=s[..., ch])
    odd = s >> 2
    odd &= 1
    odd += 1
    s += odd
    s >>= 2
    return s.astype(np.uint8)
