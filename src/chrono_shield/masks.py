"""Sign-face mask extraction.

Pipeline: grayscale -> Gaussian blur -> Canny edges -> dilation ->
morphological closing -> outer-contour tracing -> largest contour ->
even-odd scanline fill. The filled region is where shadows are allowed
to land; featureless frames raise NoContourFound.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .raster import InvalidRadius, RasterImage, gaussian_blur, gaussian_kernel, to_grayscale


class InvalidThresholds(ValueError):
    """Canny thresholds must satisfy 0 < low < high."""


class NoContourFound(ValueError):
    """No contour above the area floor; the frame has no usable sign face."""


@dataclass(frozen=True, eq=False)
class BinaryMask:
    """Boolean pixel set, bits shaped (h, w)."""

    bits: np.ndarray

    def __post_init__(self):
        b = np.asarray(self.bits)
        if b.ndim != 2:
            raise ValueError(f"mask bits must be 2-D, got shape {b.shape}")
        b = np.array(b, dtype=bool, order="C")
        b.flags.writeable = False
        object.__setattr__(self, "bits", b)

    @property
    def width(self) -> int:
        return self.bits.shape[1]

    @property
    def height(self) -> int:
        return self.bits.shape[0]

    @property
    def count(self) -> int:
        return int(self.bits.sum())

    def __eq__(self, other) -> bool:
        if not isinstance(other, BinaryMask):
            return NotImplemented
        return self.bits.shape == other.bits.shape and bool(np.array_equal(self.bits, other.bits))

    def to_image(self) -> RasterImage:
        return RasterImage(np.where(self.bits, 255, 0).astype(np.uint8))

    @classmethod
    def from_image(cls, img: RasterImage) -> "BinaryMask":
        return cls(img.pixels[:, :, 0] >= 128)

    @classmethod
    def full(cls, width: int, height: int) -> "BinaryMask":
        return cls(np.ones((height, width), dtype=bool))


def shoelace_area(points: list[tuple[int, int]]) -> float:
    """Absolute shoelace area of a closed polygon given as (x, y) points."""
    if len(points) < 3:
        return 0.0
    pts = np.asarray(points, dtype=np.float64)
    x, y = pts[:, 0], pts[:, 1]
    return float(abs(np.dot(x, np.roll(y, -1)) - np.dot(y, np.roll(x, -1))) / 2.0)


@dataclass(frozen=True)
class Contour:
    """Closed 8-connected outer boundary, points as (x, y) pixel coords."""

    points: list[tuple[int, int]]
    area: float = field(default=None)  # type: ignore[assignment]

    def __post_init__(self):
        if len(self.points) < 3:
            raise ValueError("a contour needs at least 3 points")
        if self.area is None:
            object.__setattr__(self, "area", shoelace_area(self.points))

    def top_left(self) -> tuple[int, int]:
        # Lexicographically smallest (y, x) over boundary points.
        return min((y, x) for x, y in self.points)


@dataclass(frozen=True)
class MaskParams:
    sigma: float = 1.4
    blur_radius: int = 2
    low: float = 50.0
    high: float = 150.0
    dilate_k: int = 1
    close_k: int = 2
    min_area_frac: float = 0.01

    def __post_init__(self):
        # The checks generate_mask's steps make, so a bad value fails here.
        gaussian_kernel(self.sigma, self.blur_radius)
        _check_thresholds(self.low, self.high)
        _check_k(self.dilate_k)
        _check_k(self.close_k)


# ---------------------------------------------------------------------------
# Edges

# Orientation bins quantize the gradient to 4 directions; NMS compares
# each pixel against its two neighbors along that direction.


def _sobel(plane: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    p = np.pad(plane, 1, mode="edge")
    h, w = plane.shape

    def s(dy, dx):
        return p[1 + dy : 1 + dy + h, 1 + dx : 1 + dx + w]

    gx = (s(-1, 1) + 2 * s(0, 1) + s(1, 1)) - (s(-1, -1) + 2 * s(0, -1) + s(1, -1))
    gy = (s(1, -1) + 2 * s(1, 0) + s(1, 1)) - (s(-1, -1) + 2 * s(-1, 0) + s(-1, 1))
    return gx, gy


def _check_thresholds(low: float, high: float) -> None:
    if not (0 < low < high):
        raise InvalidThresholds(f"need 0 < low < high, got low={low} high={high}")


def canny_edges(img: RasterImage, low: float = 50.0, high: float = 150.0) -> BinaryMask:
    """Canny edge map of an (already blurred) 1-channel image.

    Sobel gradients, 4-bin non-maximum suppression, double threshold,
    hysteresis flood through 8-neighbors. The 1-px image border never
    carries edges.
    """
    _check_thresholds(low, high)
    if img.channels != 1:
        raise ValueError("canny_edges expects a 1-channel image")
    plane = img.pixels[:, :, 0].astype(np.float64)
    h, w = plane.shape
    gx, gy = _sobel(plane)
    mag = np.hypot(gx, gy)
    angle = np.degrees(np.arctan2(gy, gx)) % 180.0

    diagonal = ((angle >= 22.5) & (angle < 67.5)) | ((angle >= 112.5) & (angle < 157.5))
    horizontal_bin = (angle < 22.5) | (angle >= 157.5)

    # Quantized along-gradient offset, pointing toward the brighter side.
    dx_up = np.sign(gx).astype(np.int64)
    dy_up = np.sign(gy).astype(np.int64)
    dy_up[horizontal_bin] = 0
    dx_up[~(diagonal | horizontal_bin)] = 0  # vertical-gradient bin

    # Suppress non-maxima: strictly above the uphill (brighter-side)
    # neighbor, >= the downhill one, so a symmetric step edge keeps
    # exactly one of the tied pair - the one on the bright side.
    padded = np.pad(mag, 1, mode="constant")
    yy, xx = np.mgrid[0:h, 0:w]
    uphill = padded[1 + yy + dy_up, 1 + xx + dx_up]
    downhill = padded[1 + yy - dy_up, 1 + xx - dx_up]
    keep = (mag > uphill) & (mag >= downhill)
    keep[0, :] = keep[-1, :] = False
    keep[:, 0] = keep[:, -1] = False

    strong = keep & (mag >= high)
    weak = keep & (mag >= low) & ~strong

    # Hysteresis: grow from strong pixels through weak 8-neighbors.
    edges = strong.copy()
    frontier = strong
    while frontier.any():
        grown = _dilate_bits(frontier, 1) & weak & ~edges
        edges |= grown
        frontier = grown
    return BinaryMask(edges)


# ---------------------------------------------------------------------------
# Morphology


def _dilate_bits(bits: np.ndarray, k: int) -> np.ndarray:
    h, w = bits.shape
    padded = np.pad(bits, k, mode="constant", constant_values=False)
    out = np.zeros_like(bits)
    for dy in range(2 * k + 1):
        for dx in range(2 * k + 1):
            out |= padded[dy : dy + h, dx : dx + w]
    return out


def _erode_bits(bits: np.ndarray, k: int) -> np.ndarray:
    # The dual of dilation: outside the frame counts as true, so closing is
    # a no-op on full masks.
    return ~_dilate_bits(~bits, k)


def _check_k(k: int) -> None:
    if k < 1:
        raise InvalidRadius(f"structuring-element half-width must be >= 1, got {k}")


def morph_dilate(mask: BinaryMask, k: int = 1) -> BinaryMask:
    """Dilate by a square (2k+1)^2 structuring element."""
    _check_k(k)
    return BinaryMask(_dilate_bits(mask.bits, k))


def morph_erode(mask: BinaryMask, k: int = 1) -> BinaryMask:
    """Erode by a square (2k+1)^2 structuring element."""
    _check_k(k)
    return BinaryMask(_erode_bits(mask.bits, k))


def morph_close(mask: BinaryMask, k: int = 2) -> BinaryMask:
    """Dilate then erode; fills gaps up to ~2k px, idempotent."""
    _check_k(k)
    return BinaryMask(_erode_bits(_dilate_bits(mask.bits, k), k))


# ---------------------------------------------------------------------------
# Contours

# 8 directions clockwise, y grows downward: E SE S SW W NW N NE.
_DIRS = ((0, 1), (1, 1), (1, 0), (1, -1), (0, -1), (-1, -1), (-1, 0), (-1, 1))


def _trace_boundary(bits: np.ndarray, start: tuple[int, int]) -> list[tuple[int, int]]:
    """Moore-neighbor boundary trace from the component's topmost-leftmost
    pixel, clockwise, stopping when the first move repeats."""
    h, w = bits.shape

    def inside(y, x):
        return 0 <= y < h and 0 <= x < w and bits[y, x]

    points = [(start[1], start[0])]
    backtrack = 4  # pretend we arrived from the west
    cur = start
    first_move = None
    limit = 4 * (h * w + 1)
    for _ in range(limit):
        found = None
        for i in range(1, 9):
            d = (backtrack + i) % 8
            ny, nx = cur[0] + _DIRS[d][0], cur[1] + _DIRS[d][1]
            if inside(ny, nx):
                found = (d, (ny, nx))
                break
        if found is None:
            return points  # isolated pixel
        d, nxt = found
        if first_move is None:
            first_move = (cur, d)
        elif (cur, d) == first_move:
            return points
        points.append((nxt[1], nxt[0]))
        cur = nxt
        backtrack = (d + 4) % 8
    return points


def find_contours(edges: BinaryMask, min_area: float | None = None) -> list[Contour]:
    """Outer boundary of every 8-connected component, largest first.

    Components whose shoelace area falls below min_area are dropped
    (default floor: 1% of the image area). Ordering is deterministic:
    by descending area, then by topmost-leftmost boundary point.
    """
    bits = edges.bits
    h, w = bits.shape
    if min_area is None:
        min_area = 0.01 * h * w
    visited = np.zeros_like(bits)
    contours = []
    ys, xs = np.nonzero(bits)
    for y0, x0 in zip(ys.tolist(), xs.tolist()):
        if visited[y0, x0]:
            continue
        # Flood the component; scan order guarantees (y0, x0) is its
        # topmost-leftmost pixel, the canonical trace start.
        queue = deque([(y0, x0)])
        visited[y0, x0] = True
        while queue:
            cy, cx = queue.popleft()
            for dy, dx in _DIRS:
                ny, nx = cy + dy, cx + dx
                if 0 <= ny < h and 0 <= nx < w and bits[ny, nx] and not visited[ny, nx]:
                    visited[ny, nx] = True
                    queue.append((ny, nx))
        points = _trace_boundary(bits, (y0, x0))
        if len(points) < 3:
            continue
        area = shoelace_area(points)
        if area < min_area:
            continue
        contours.append(Contour(points=points, area=area))
    contours.sort(key=lambda c: (-c.area, c.top_left()))
    return contours


def fill_polygon(points: list[tuple[int, int]], width: int, height: int) -> np.ndarray:
    """Even-odd scanline fill of the strict interior of a closed polygon.

    Pixels are sample points at their integer coordinates: a crossing
    pair (a, b) fills a < x < b, edges count toward the scanline of
    their lower endpoint only, and pixels lying on the traced boundary
    itself are never part of the fill. Keeping the boundary out means a
    contour traced around a dilated edge band lands the fill back on
    the underlying region instead of fattening it by the band.
    """
    bits = np.zeros((height, width), dtype=bool)
    pts = np.asarray(points, dtype=np.float64)
    n = len(pts)
    if n < 3:
        return bits
    x1 = pts[:, 0]
    y1 = pts[:, 1]
    x2 = np.roll(x1, -1)
    y2 = np.roll(y1, -1)
    keep = y1 != y2
    if not keep.any():
        return bits
    x1, y1, x2, y2 = x1[keep], y1[keep], x2[keep], y2[keep]
    ymin = max(0, int(np.ceil(min(y1.min(), y2.min()))))
    ymax = min(height - 1, int(np.floor(max(y1.max(), y2.max()))))
    for y in range(ymin, ymax + 1):
        crossing = ((y1 <= y) & (y < y2)) | ((y2 <= y) & (y < y1))
        if not crossing.any():
            continue
        t = (y - y1[crossing]) / (y2[crossing] - y1[crossing])
        xs = np.sort(x1[crossing] + t * (x2[crossing] - x1[crossing]))
        for a, b in zip(xs[0::2], xs[1::2]):
            lo = max(0, int(np.floor(a)) + 1)
            hi = min(width - 1, int(np.ceil(b)) - 1)
            if hi >= lo:
                bits[y, lo : hi + 1] = True
    # Consecutive traced points are 8-adjacent, so the boundary pixels
    # are exactly the points themselves.
    for x, y in points:
        if 0 <= y < height and 0 <= x < width:
            bits[y, x] = False
    return bits


# ---------------------------------------------------------------------------
# Full pipeline


def generate_mask(img: RasterImage, params: MaskParams = MaskParams()) -> BinaryMask:
    """Extract the sign-face region of an RGB frame as a filled mask."""
    gray = to_grayscale(img)
    edges = canny_edges(gaussian_blur(gray, params.sigma, params.blur_radius), params.low, params.high)
    grown = morph_dilate(edges, params.dilate_k)
    closed = morph_close(grown, params.close_k)
    min_area = params.min_area_frac * img.width * img.height
    contours = find_contours(closed, min_area=min_area)
    if not contours:
        raise NoContourFound("no contour above the area floor")
    best = contours[0]
    bits = fill_polygon(best.points, img.width, img.height)
    if not bits.any():
        raise NoContourFound("largest contour fills no pixels")
    return BinaryMask(bits)
