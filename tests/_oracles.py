"""Independent reference implementations used as test oracles.

Everything here is written from first principles, separately from the
package code, so a test that compares the two exercises genuinely
different routes to the same answer.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from chrono_shield.cnn import Prediction
from chrono_shield.raster import RasterImage
from chrono_shield.synth import _ARCHETYPES, _COLORS, _INRADIUS_FRAC, _SHAPES, CLASS_NAMES, PROBE_SHAPES


def dense_gaussian_blur(plane: np.ndarray, sigma: float, radius: int) -> np.ndarray:
    """Direct 2-D convolution with an explicit (2r+1)^2 Gaussian kernel,
    clamp-to-edge borders. O(n^2 k^2), used only on tiny planes."""
    offsets = np.arange(-radius, radius + 1, dtype=np.float64)
    taps = np.exp(-(offsets**2) / (2.0 * sigma * sigma))
    taps /= taps.sum()
    kernel = np.outer(taps, taps)
    h, w = plane.shape
    out = np.zeros_like(plane, dtype=np.float64)
    for y in range(h):
        for x in range(w):
            acc = 0.0
            for dy in range(-radius, radius + 1):
                for dx in range(-radius, radius + 1):
                    sy = min(max(y + dy, 0), h - 1)
                    sx = min(max(x + dx, 0), w - 1)
                    acc += kernel[dy + radius, dx + radius] * plane[sy, sx]
            out[y, x] = acc
    return out


def direct_bilinear(px: np.ndarray, out_w: int, out_h: int) -> np.ndarray:
    """Bilinear resample one pixel and channel at a time in Python floats.

    Source coordinate of output index i is (i + 0.5) * (size / out_size)
    - 0.5, the scale factor rounded once as the package rounds it, clamped
    to the frame; the four corners blend along x, then y, and the result
    rounds half to even. Scaling as (i + 0.5) * size / out_size instead
    can land an ulp away and flip a .5 rounding (h 16 -> 5, row 3).
    """
    h, w, c = px.shape
    out = np.zeros((out_h, out_w, c), dtype=np.uint8)
    for oy in range(out_h):
        sy = min(max((oy + 0.5) * (h / out_h) - 0.5, 0.0), h - 1.0)
        y0 = math.floor(sy)
        y1 = min(y0 + 1, h - 1)
        fy = sy - y0
        for ox in range(out_w):
            sx = min(max((ox + 0.5) * (w / out_w) - 0.5, 0.0), w - 1.0)
            x0 = math.floor(sx)
            x1 = min(x0 + 1, w - 1)
            fx = sx - x0
            for ch in range(c):
                a, b = float(px[y0, x0, ch]), float(px[y0, x1, ch])
                d, e = float(px[y1, x0, ch]), float(px[y1, x1, ch])
                top = a * (1 - fx) + b * fx
                bot = d * (1 - fx) + e * fx
                out[oy, ox, ch] = min(max(round(top * (1 - fy) + bot * fy), 0), 255)
    return out


def polygon_membership(verts: np.ndarray, width: int, height: int) -> np.ndarray:
    """Even-odd point-in-polygon at pixel centers (x+0.5, y+0.5), scalar
    ray-casting loop. verts are (k, 2) absolute (x, y) coordinates."""
    bits = np.zeros((height, width), dtype=bool)
    k = len(verts)
    for y in range(height):
        py = y + 0.5
        for x in range(width):
            px = x + 0.5
            inside = False
            for i in range(k):
                x1, y1 = verts[i]
                x2, y2 = verts[(i + 1) % k]
                if (y1 <= py) != (y2 <= py):
                    xint = x1 + (py - y1) / (y2 - y1) * (x2 - x1)
                    if px < xint:
                        inside = not inside
            bits[y, x] = inside
    return bits


def direct_shadow(pixels: np.ndarray, bits: np.ndarray, vertices: np.ndarray, darkening: float) -> np.ndarray:
    """pixels (h, w, c) with one shadow drawn. vertices (k, 2) in [0, 1]
    map onto the bounding box of the mask bits; pixels inside the polygon
    (polygon_membership) and the mask become rint(value * darkening). A
    polygon whose doubled shoelace area, summed edge by edge, is under
    1e-12 draws nothing."""
    if not bits.any():
        return pixels.copy()
    ys, xs = np.nonzero(bits)
    by0, bx0, by1, bx1 = ys.min(), xs.min(), ys.max(), xs.max()
    verts = np.empty_like(vertices, dtype=np.float64)
    verts[:, 0] = bx0 + vertices[:, 0] * (bx1 - bx0 + 1)
    verts[:, 1] = by0 + vertices[:, 1] * (by1 - by0 + 1)
    k = len(verts)
    area2 = sum(verts[i, 0] * verts[(i + 1) % k, 1] - verts[(i + 1) % k, 0] * verts[i, 1] for i in range(k))
    if abs(area2) < 1e-12:
        return pixels.copy()
    h, w = bits.shape
    allowed = bits & polygon_membership(verts, w, h)
    out = pixels.astype(np.float64)
    out[allowed] = np.clip(np.rint(out[allowed] * darkening), 0, 255)
    return out.astype(np.uint8)


def dense_dilate(bits: np.ndarray, k: int) -> np.ndarray:
    """Any true pixel within the (2k+1)^2 window; outside the frame false."""
    h, w = bits.shape
    out = np.zeros_like(bits)
    for y in range(h):
        for x in range(w):
            for dy in range(-k, k + 1):
                for dx in range(-k, k + 1):
                    sy, sx = y + dy, x + dx
                    if 0 <= sy < h and 0 <= sx < w and bits[sy, sx]:
                        out[y, x] = True
    return out


def dense_erode(bits: np.ndarray, k: int) -> np.ndarray:
    """All pixels in the window true; outside the frame counts as true."""
    h, w = bits.shape
    out = np.ones_like(bits)
    for y in range(h):
        for x in range(w):
            for dy in range(-k, k + 1):
                for dx in range(-k, k + 1):
                    sy, sx = y + dy, x + dx
                    if 0 <= sy < h and 0 <= sx < w and not bits[sy, sx]:
                        out[y, x] = False
    return out


def haversine_law_of_cosines(a: tuple[float, float], b: tuple[float, float]) -> float:
    """Great-circle distance via the spherical law of cosines (a different
    formula from the half-angle haversine), R = 6371 km."""
    lat1, lon1 = map(math.radians, a)
    lat2, lon2 = map(math.radians, b)
    cosc = math.sin(lat1) * math.sin(lat2) + math.cos(lat1) * math.cos(lat2) * math.cos(lon2 - lon1)
    return 6371_000.0 * math.acos(min(1.0, max(-1.0, cosc)))


def haversine_filter(entries, location, heading, max_records, before, radius_m, heading_tol_deg) -> list:
    """History match by brute force: the half-angle haversine distance of
    every row, with no shortcut, written with the same float operations as
    the package so a row at exactly radius_m compares bit for bit; then the
    wrapped heading difference, the strict date bound, newest first (path
    breaking ties, descending) and the cap."""
    lat1, lon1 = math.radians(location[0]), math.radians(location[1])
    kept = []
    for e in entries:
        lat2, lon2 = math.radians(e.lat), math.radians(e.lon)
        h = math.sin((lat2 - lat1) / 2) ** 2 + math.cos(lat1) * math.cos(lat2) * math.sin((lon2 - lon1) / 2) ** 2
        if 2 * 6371_000.0 * math.asin(math.sqrt(h)) > radius_m:
            continue
        turn = abs(e.heading - heading) % 360.0
        if min(turn, 360.0 - turn) > heading_tol_deg:
            continue
        if before is not None and not e.capture_date < before:
            continue
        kept.append(e)
    kept.sort(key=lambda e: (e.capture_date, e.path), reverse=True)
    return kept[:max_records]


def png_forward_filter(ftype: int, cur: np.ndarray, prev: np.ndarray, bpp: int) -> np.ndarray:
    """Apply a PNG scanline filter in the forward (encoding) direction."""
    out = np.zeros_like(cur)
    for i in range(len(cur)):
        a = int(cur[i - bpp]) if i >= bpp else 0
        b = int(prev[i])
        c = int(prev[i - bpp]) if i >= bpp else 0
        if ftype == 0:
            pred = 0
        elif ftype == 1:
            pred = a
        elif ftype == 2:
            pred = b
        elif ftype == 3:
            pred = (a + b) // 2
        elif ftype == 4:
            p = a + b - c
            pa, pb, pc = abs(p - a), abs(p - b), abs(p - c)
            pred = a if (pa <= pb and pa <= pc) else (b if pb <= pc else c)
        else:
            raise ValueError(ftype)
        out[i] = (int(cur[i]) - pred) % 256
    return out


def mk_pred(label: int, confidence: float, num_classes: int = 16) -> Prediction:
    """A Prediction with the stated top confidence and a flat remainder."""
    dist = np.full(num_classes, (1.0 - confidence) / max(num_classes - 1, 1))
    dist[label] = confidence
    return Prediction(label=label, confidence=confidence, distribution=dist)


def direct_conv3x3(x: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    """3x3 convolution, stride 1, zero padding 1, as explicit loops:
    out[n,f,y,x] = b[f] + sum_{c,i,j} w[f,c,i,j] * x[n,c,y+i-1,x+j-1]."""
    n, c, h, wd = x.shape
    f = w.shape[0]
    out = np.zeros((n, f, h, wd))
    for ni in range(n):
        for fi in range(f):
            for y in range(h):
                for xx in range(wd):
                    acc = float(b[fi])
                    for ci in range(c):
                        for i in range(3):
                            for j in range(3):
                                sy, sx = y + i - 1, xx + j - 1
                                if 0 <= sy < h and 0 <= sx < wd:
                                    acc += float(w[fi, ci, i, j]) * float(x[ni, ci, sy, sx])
                    out[ni, fi, y, xx] = acc
    return out


def padded_im2col(x: np.ndarray) -> np.ndarray:
    """(N, C, H, W) -> (N, C*9, H*W) for a 3x3 kernel, stride 1, pad 1, by
    zero-padding the frame and copying every 3x3 window out of it: row
    (c, 3*dy + dx) holds padded[c, y + dy, x + dx] at column y*W + x."""
    n, c, h, w = x.shape
    xp = np.pad(x, ((0, 0), (0, 0), (1, 1), (1, 1)))
    windows = sliding_window_view(xp, (3, 3), axis=(2, 3))  # (n, c, y, x, dy, dx)
    return np.ascontiguousarray(windows.transpose(0, 1, 4, 5, 2, 3)).reshape(n, c * 9, h * w)


def direct_conv3x3_backward(x: np.ndarray, w: np.ndarray, dout: np.ndarray):
    """(dx, dw, db) of direct_conv3x3 for upstream gradient dout, each
    product scattered to the input pixel and weight that formed it."""
    n, c, h, wd = x.shape
    f = w.shape[0]
    dx = np.zeros(x.shape)
    dw = np.zeros(w.shape)
    db = np.zeros(f)
    for ni in range(n):
        for fi in range(f):
            for y in range(h):
                for xx in range(wd):
                    g = float(dout[ni, fi, y, xx])
                    db[fi] += g
                    for ci in range(c):
                        for i in range(3):
                            for j in range(3):
                                sy, sx = y + i - 1, xx + j - 1
                                if 0 <= sy < h and 0 <= sx < wd:
                                    dw[fi, ci, i, j] += g * float(x[ni, ci, sy, sx])
                                    dx[ni, ci, sy, sx] += g * float(w[fi, ci, i, j])
    return dx, dw, db


def first_max_pool2x2(x: np.ndarray, dout: np.ndarray):
    """(out, dx) of a 2x2 stride-2 max-pool. Each window is scanned in
    row-major order and only a strictly larger value replaces the running
    max, so on ties the first maximum gets the whole gradient."""
    n, c, h, wd = x.shape
    out = np.zeros((n, c, h // 2, wd // 2))
    dx = np.zeros(x.shape)
    for ni in range(n):
        for ci in range(c):
            for oy in range(h // 2):
                for ox in range(wd // 2):
                    best = (2 * oy, 2 * ox)
                    for dy in range(2):
                        for ddx in range(2):
                            y, xx = 2 * oy + dy, 2 * ox + ddx
                            if x[ni, ci, y, xx] > x[ni, ci, best[0], best[1]]:
                                best = (y, xx)
                    out[ni, ci, oy, ox] = x[ni, ci, best[0], best[1]]
                    dx[ni, ci, best[0], best[1]] = dout[ni, ci, oy, ox]
    return out, dx


# ---------------------------------------------------------------------------
# The sign renderer as first written, one full plane per term. The package's
# renderer must give the same bytes for every seed and side.


def _in_convex(px: np.ndarray, py: np.ndarray, verts: np.ndarray, scale: float = 1.0) -> np.ndarray:
    v = verts * scale
    n = len(v)
    # Winding sign so vertex order does not matter.
    area2 = 0.0
    for i in range(n):
        x1, y1 = v[i]
        x2, y2 = v[(i + 1) % n]
        area2 += x1 * y2 - x2 * y1
    sign = 1.0 if area2 >= 0 else -1.0
    inside = np.ones(px.shape, dtype=bool)
    for i in range(n):
        x1, y1 = v[i]
        x2, y2 = v[(i + 1) % n]
        inside &= sign * ((x2 - x1) * (py - y1) - (y2 - y1) * (px - x1)) >= 0
    return inside


def _in_shape(px: np.ndarray, py: np.ndarray, shape: str, scale: float = 1.0) -> np.ndarray:
    if shape == "circle":
        return px * px + py * py <= scale * scale
    return _in_convex(px, py, _SHAPES[shape], scale)


def _in_bar(px, py, cx, cy, angle_deg, halflen, halfwidth):
    a = np.radians(angle_deg)
    dx = px - cx
    dy = py - cy
    along = dx * np.cos(a) + dy * np.sin(a)
    across = -dx * np.sin(a) + dy * np.cos(a)
    return (np.abs(along) <= halflen) & (np.abs(across) <= halfwidth)


def _in_dot(px, py, cx, cy, r):
    return (px - cx) ** 2 + (py - cy) ** 2 <= r * r


def _jitter_color(color: tuple[int, int, int], rng: np.random.Generator) -> np.ndarray:
    c = np.asarray(color, dtype=np.float64) + rng.uniform(-8, 8, size=3)
    return np.clip(c, 0, 255)


def _background(side: int, rng: np.random.Generator) -> np.ndarray:
    base = rng.uniform(60, 110)
    sx = rng.uniform(-0.25, 0.25)
    sy = rng.uniform(-0.25, 0.25)
    yy, xx = np.mgrid[0:side, 0:side].astype(np.float64)
    plane = base + sx * (xx - side / 2) + sy * (yy - side / 2)
    plane = plane[:, :, None] + rng.uniform(-6, 6, size=(side, side, 3))
    tint = rng.uniform(-10, 10, size=3)
    return np.clip(plane + tint, 0, 255)


def reference_render_sign(label: int, side: int, rng: np.random.Generator) -> RasterImage:
    """One randomized frame of the given class: synth.render_sign as first
    written, a fresh array for every term and a boolean-mask store per layer."""
    name = CLASS_NAMES[label]
    shape, fill, ring, ring_inner, glyphs = _ARCHETYPES[name]

    canvas = _background(side, rng)

    # Nuisance parameters.
    scale_frac = rng.uniform(0.6, 0.9)
    radius = scale_frac * side / 2.0
    cx = side / 2.0 + rng.uniform(-0.15, 0.15) * side
    cy = side / 2.0 + rng.uniform(-0.15, 0.15) * side
    theta = np.radians(rng.uniform(-10.0, 10.0))
    brightness = rng.uniform(0.8, 1.2)

    yy, xx = np.mgrid[0:side, 0:side]
    # Pixel centers into canonical sign coordinates.
    dx = (xx + 0.5 - cx) / radius
    dy = (yy + 0.5 - cy) / radius
    px = np.cos(theta) * dx + np.sin(theta) * dy
    py = -np.sin(theta) * dx + np.cos(theta) * dy

    outer = _in_shape(px, py, shape, 1.0)
    fill_color = _jitter_color(_COLORS[fill], rng)
    if ring is not None:
        inner = _in_shape(px, py, shape, ring_inner)
        ring_color = _jitter_color(_COLORS[ring], rng)
        canvas[outer & ~inner] = ring_color
        canvas[inner] = fill_color
    else:
        canvas[outer] = fill_color

    for glyph in glyphs:
        kind, color = glyph[0], glyph[1]
        gcol = _jitter_color(_COLORS[color], rng)
        if kind == "bar":
            _, _, gx, gy, ang, hl, hw = glyph
            sel = _in_bar(px, py, gx, gy, ang, hl, hw)
        elif kind == "dot":
            _, _, gx, gy, r = glyph
            sel = _in_dot(px, py, gx, gy, r)
        elif kind == "mini":
            _, _, mini_shape, mini_scale = glyph
            sel = _in_shape(px, py, mini_shape, mini_scale)
        elif kind == "tri":
            sel = _in_convex(px, py, np.asarray(glyph[2], dtype=np.float64))
        else:
            raise ValueError(f"unknown glyph kind {kind!r}")
        canvas[sel] = gcol

    out = np.clip(np.rint(canvas * brightness), 0, 255).astype(np.uint8)
    return RasterImage(out)


def reference_shape_probe(
    shape: str,
    rng: np.random.Generator,
    min_inradius: float = 24.0,
    max_inradius: float = 40.0,
) -> tuple[RasterImage, np.ndarray]:
    """synth.render_shape_probe as first written: (image, ground-truth bits)."""
    if shape not in PROBE_SHAPES:
        raise ValueError(f"unknown probe shape {shape!r}")
    inradius = rng.uniform(min_inradius, max_inradius)
    circum = inradius / _INRADIUS_FRAC[shape]
    side = int(np.ceil(rng.uniform(2.6, 3.4) * circum))
    side = max(side, int(2 * circum) + 16)

    base = rng.uniform(40, 90)
    sx = rng.uniform(-0.2, 0.2)
    sy = rng.uniform(-0.2, 0.2)
    yy, xx = np.mgrid[0:side, 0:side].astype(np.float64)
    bg = base + sx * (xx - side / 2) + sy * (yy - side / 2) + rng.uniform(-5, 5, size=(side, side))
    bg_max = float(bg.max())
    fill = rng.uniform(min(bg_max + 80.0, 245.0), 250.0)

    slack = side / 2.0 - circum - 4.0
    cx = side / 2.0 + rng.uniform(-slack, slack)
    cy = side / 2.0 + rng.uniform(-slack, slack)
    theta = np.radians(rng.uniform(-10.0, 10.0))
    dx = (xx + 0.5 - cx) / circum
    dy = (yy + 0.5 - cy) / circum
    px = np.cos(theta) * dx + np.sin(theta) * dy
    py = -np.sin(theta) * dx + np.cos(theta) * dy
    truth = _in_shape(px, py, shape, 1.0)

    canvas = np.repeat(bg[:, :, None], 3, axis=2)
    canvas[truth] = fill
    img = RasterImage(np.clip(np.rint(canvas), 0, 255).astype(np.uint8))
    return img, truth
