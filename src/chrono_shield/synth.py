"""Procedural sign imagery at desk scale.

Sixteen sign archetypes (shape + palette + glyph) rendered over randomized
backgrounds with nuisance jitter: position +-15% of the frame, scale
0.6-0.9 of the frame, rotation +-10 degrees, brightness +-20%. Rendering
is analytic (membership tests at pixel centers), so the same geometry also
yields exact ground-truth region masks for the mask-fidelity probes.
Everything is deterministic under the config seed.

The renderer's rule: every rng draw, and every float operation that
decides a pixel, runs with the operands and in the order of the reference
renderer in tests/_oracles.py, and tests/test_synth.py pins the bytes
against it. The one changed operation is the half-plane test, which
compares its two products instead of the sign of their difference: the
same answer for any finite pair. The saving comes from doing less work:
each class's edge tables are worked out once, at import; pixel
coordinates come from side-long vectors, since x and y enter separably;
each layer is tested only in a window around it that holds all its
pixels; and the paint runs in place (the region tests are plain
expressions: scratch planes measured no faster). There is no per-side
grid cache: the side-long vectors cost less to build than a cached grid
costs to combine, so a large synth.side pins no memory.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from datetime import date
from typing import NamedTuple

import numpy as np

from .codecs import save_image
from .configfile import InvalidConfig
from .dataset import LabeledImageSet
from .history import ManifestEntry, dump_manifest
from .raster import RasterImage

CLASS_NAMES = [
    "stop",
    "yield",
    "pedestrian_crossing",
    "merge",
    "signal_ahead",
    "curve_left",
    "curve_right",
    "lane_ends",
    "stop_ahead",
    "yield_ahead",
    "school",
    "speed_limit_25",
    "speed_limit_35",
    "keep_right",
    "turn_right",
    "railroad",
]

_COLORS = {
    "red": (178, 24, 43),
    "yellow": (240, 200, 60),
    "orange": (230, 120, 30),
    "white": (235, 235, 235),
    "black": (25, 25, 25),
}


@dataclass(frozen=True)
class SynthConfig:
    per_class: int = 100
    test_per_class: int = 4
    side: int = 64
    seed: int = 0

    def __post_init__(self):
        if self.per_class < 1:
            raise InvalidConfig(f"per_class must be >= 1, got {self.per_class}")
        if self.test_per_class < 0:
            raise InvalidConfig(f"test_per_class must be >= 0, got {self.test_per_class}")
        if self.side < 16:
            raise InvalidConfig(f"side must be >= 16, got {self.side}")
        if self.seed < 0:
            raise InvalidConfig(f"seed must be >= 0, got {self.seed}")


# ---------------------------------------------------------------------------
# Canonical geometry (unit circumradius, y grows downward)


def _regular_ngon(n: int, phase_deg: float) -> np.ndarray:
    ang = np.radians(phase_deg + 360.0 * np.arange(n) / n)
    return np.stack([np.cos(ang), np.sin(ang)], axis=1)


_SHAPES: dict[str, np.ndarray | None] = {
    "octagon": _regular_ngon(8, 22.5),  # flat top
    "diamond": _regular_ngon(4, 0.0),  # vertices on axes
    "square": _regular_ngon(4, 45.0),
    "inv_triangle": _regular_ngon(3, 90.0),  # apex points down
    "tall_rect": np.array([(0.62, -0.95), (0.62, 0.95), (-0.62, 0.95), (-0.62, -0.95)]),
    "pentagon": np.array([(0.0, -1.0), (0.95, -0.15), (0.75, 1.0), (-0.75, 1.0), (-0.95, -0.15)]),
    "circle": None,
}

# Inradius / circumradius, used to pick frame sizes for the probes.
_INRADIUS_FRAC = {
    "octagon": float(np.cos(np.pi / 8)),
    "diamond": float(np.cos(np.pi / 4)),
    "inv_triangle": 0.5,
    "circle": 1.0,
}


class _Region(NamedTuple):
    """A membership test in canonical sign coordinates.

    terms are the test's constants, worked out once; every point of the
    region lies within reach of center.
    """

    kind: str
    terms: tuple
    center: tuple[float, float]
    reach: float


def _convex_region(verts: np.ndarray, scale: float = 1.0) -> _Region:
    """Winding and each edge's (x1, y1, x2 - x1, y2 - y1) of verts * scale."""
    v = verts * scale
    n = len(v)
    # Winding sign so vertex order does not matter.
    area2 = 0.0
    edges = []
    for i in range(n):
        x1, y1 = v[i]
        x2, y2 = v[(i + 1) % n]
        area2 += x1 * y2 - x2 * y1
        edges.append((x1, y1, x2 - x1, y2 - y1))
    center = v.mean(axis=0)
    reach = float(np.hypot(*(v - center).T).max())
    return _Region("convex", (area2 >= 0, tuple(edges)), tuple(center), reach)


def _shape_region(shape: str, scale: float = 1.0) -> _Region:
    if shape == "circle":
        return _Region("circle", (scale * scale,), (0.0, 0.0), scale)
    return _convex_region(_SHAPES[shape], scale)


def _inside(region: _Region, px: np.ndarray, py: np.ndarray) -> np.ndarray:
    """Whether each point (px, py) lies in region; each term is the reference's."""
    if region.kind == "convex":
        ccw, edges = region.terms
        # The reference tests sign * (a - b) >= 0 with sign = +1 or -1. For
        # finite a and b, a - b rounds to zero only when a == b and keeps
        # the sign of the exact difference, so a >= b (or a <= b) is the
        # same test without the subtraction.
        test = np.greater_equal if ccw else np.less_equal
        out = np.ones(px.shape, dtype=bool)
        for x1, y1, ex, ey in edges:
            out &= test((py - y1) * ex, (px - x1) * ey)
        return out
    if region.kind == "circle":
        return px * px + py * py <= region.terms[0]
    if region.kind == "bar":
        gx, gy, cos_a, sin_a, halflen, halfwidth = region.terms
        dx = px - gx
        dy = py - gy
        # -dx * sin_a rounds to -(dx * sin_a), and x + -y is x - y.
        return (np.abs(dx * cos_a + dy * sin_a) <= halflen) & (np.abs(dy * cos_a - dx * sin_a) <= halfwidth)
    if region.kind == "dot":
        gx, gy, r2 = region.terms
        return (px - gx) ** 2 + (py - gy) ** 2 <= r2
    raise ValueError(f"unknown region kind {region.kind!r}")


# (shape, fill, ring color or None, ring inner scale, glyph list)
# Glyphs are (kind, color, args...) evaluated in canonical sign coords.
_ARCHETYPES: dict[str, tuple] = {
    "stop": ("octagon", "red", "white", 0.86, [("bar", "white", 0.0, 0.0, 0.0, 0.62, 0.17)]),
    "yield": ("inv_triangle", "white", "red", 0.55, []),
    "pedestrian_crossing": (
        "diamond",
        "yellow",
        "black",
        0.85,
        [("dot", "black", 0.0, -0.33, 0.14), ("bar", "black", 0.0, 0.12, 90.0, 0.27, 0.10)],
    ),
    "merge": (
        "diamond",
        "yellow",
        "black",
        0.85,
        [("bar", "black", -0.17, -0.05, 62.0, 0.38, 0.09), ("bar", "black", 0.17, -0.05, 118.0, 0.38, 0.09)],
    ),
    "signal_ahead": (
        "diamond",
        "yellow",
        "black",
        0.85,
        [("dot", "black", 0.0, -0.34, 0.13), ("dot", "black", 0.0, 0.0, 0.13), ("dot", "black", 0.0, 0.34, 0.13)],
    ),
    "curve_left": ("diamond", "yellow", "black", 0.85, [("bar", "black", 0.0, 0.0, 130.0, 0.42, 0.11)]),
    "curve_right": ("diamond", "yellow", "black", 0.85, [("bar", "black", 0.0, 0.0, 50.0, 0.42, 0.11)]),
    "lane_ends": ("diamond", "orange", "black", 0.85, [("bar", "black", 0.0, 0.0, 90.0, 0.45, 0.11)]),
    "stop_ahead": ("diamond", "yellow", "black", 0.85, [("mini", "red", "octagon", 0.42)]),
    "yield_ahead": ("diamond", "yellow", "black", 0.85, [("mini", "red", "inv_triangle", 0.48)]),
    "school": ("pentagon", "yellow", "black", 0.86, [("bar", "black", 0.0, 0.45, 0.0, 0.55, 0.13)]),
    "speed_limit_25": (
        "tall_rect",
        "white",
        "black",
        0.82,
        [("bar", "black", 0.0, -0.33, 0.0, 0.38, 0.12), ("bar", "black", 0.0, 0.18, 0.0, 0.38, 0.12)],
    ),
    "speed_limit_35": (
        "tall_rect",
        "white",
        "black",
        0.82,
        [
            ("bar", "black", 0.0, -0.45, 0.0, 0.38, 0.09),
            ("bar", "black", 0.0, 0.0, 0.0, 0.38, 0.09),
            ("bar", "black", 0.0, 0.45, 0.0, 0.38, 0.09),
        ],
    ),
    "keep_right": (
        "square",
        "white",
        "black",
        0.85,
        [("tri", "black", ((-0.18, -0.42), (-0.18, 0.42), (0.5, 0.0)))],
    ),
    "turn_right": (
        "square",
        "white",
        "black",
        0.85,
        [("bar", "black", -0.05, 0.18, 0.0, 0.38, 0.10), ("bar", "black", 0.28, -0.1, 90.0, 0.38, 0.10)],
    ),
    "railroad": ("circle", "yellow", "black", 0.87, [("bar", "black", 0.0, 0.0, 45.0, 0.52, 0.11), ("bar", "black", 0.0, 0.0, 135.0, 0.52, 0.11)]),
}


def _glyph_region(glyph: tuple) -> _Region:
    kind = glyph[0]
    if kind == "bar":
        _, _, gx, gy, ang, hl, hw = glyph
        a = np.radians(ang)
        return _Region("bar", (gx, gy, np.cos(a), np.sin(a), hl, hw), (gx, gy), float(np.hypot(hl, hw)))
    if kind == "dot":
        _, _, gx, gy, r = glyph
        return _Region("dot", (gx, gy, r * r), (gx, gy), r)
    if kind == "mini":
        _, _, mini_shape, mini_scale = glyph
        return _shape_region(mini_shape, mini_scale)
    if kind == "tri":
        return _convex_region(np.asarray(glyph[2], dtype=np.float64))
    raise ValueError(f"unknown glyph kind {kind!r}")


# Per class: fill color, ring color or None, outer region, ring-inner
# region or None, and (color, region) per glyph, worked out once from
# _ARCHETYPES.
_LAYERS = {
    name: (
        fill,
        ring,
        _shape_region(shape, 1.0),
        None if ring is None else _shape_region(shape, ring_inner),
        [(glyph[1], _glyph_region(glyph)) for glyph in glyphs],
    )
    for name, (shape, fill, ring, ring_inner, glyphs) in _ARCHETYPES.items()
}


def _jitter_color(color: tuple[int, int, int], rng: np.random.Generator) -> np.ndarray:
    c = np.asarray(color, dtype=np.float64) + rng.uniform(-8, 8, size=3)
    return np.minimum(np.maximum(c, 0, out=c), 255, out=c)


def _ramp(side: int, base: float, sx: float, sy: float) -> np.ndarray:
    """base + sx * (x - side / 2) + sy * (y - side / 2) at each pixel (y, x)."""
    r = np.arange(side, dtype=np.float64) - side / 2
    return (base + sx * r) + (sy * r)[:, None]


class _Placement:
    """Where a sign sits in a side x side frame: pixel centers about
    (cx, cy), divided by radius and rotated by theta, are its canonical
    coordinates (px, py)."""

    def __init__(self, side: int, cx: float, cy: float, radius: float, theta: float):
        self.side, self.cx, self.cy, self.radius = side, cx, cy, radius
        self.cos_t, self.sin_t = np.cos(theta), np.sin(theta)
        centers = np.arange(side) + 0.5
        dx = (centers - cx) / radius
        dy = ((centers - cy) / radius)[:, None]
        # x and y enter separably: px = cos * dx + sin * dy and
        # py = -sin * dx + cos * dy need full planes only for the sums.
        self._terms = (self.cos_t * dx, self.sin_t * dy, -self.sin_t * dx, self.cos_t * dy)

    def window(self, region: _Region) -> tuple[slice, slice]:
        """Rows and columns holding every pixel of region, and a margin.

        A pixel left out lies at least reach + 1.5 / radius from the
        region's center in sign coordinates, so its test reads False by a
        margin no rounding closes.
        """
        gx, gy = region.center
        half = self.radius * region.reach + 1.0
        ox = self.cx + self.radius * (self.cos_t * gx - self.sin_t * gy)
        oy = self.cy + self.radius * (self.sin_t * gx + self.cos_t * gy)
        return (
            slice(max(0, math.floor(oy - half)), min(self.side, math.ceil(oy + half))),
            slice(max(0, math.floor(ox - half)), min(self.side, math.ceil(ox + half))),
        )

    def inside(self, region: _Region) -> tuple[tuple[slice, slice], np.ndarray]:
        """(window, whether each pixel center in the window lies in region)."""
        rows, cols = win = self.window(region)
        cos_dx, sin_dy, neg_sin_dx, cos_dy = self._terms
        return win, _inside(region, cos_dx[cols] + sin_dy[rows], neg_sin_dx[cols] + cos_dy[rows])


def _background(side: int, rng: np.random.Generator) -> np.ndarray:
    base = rng.uniform(60, 110)
    sx = rng.uniform(-0.25, 0.25)
    sy = rng.uniform(-0.25, 0.25)
    plane = _ramp(side, base, sx, sy)
    canvas = rng.uniform(-6, 6, size=(side, side, 3))
    tint = rng.uniform(-10, 10, size=3)
    # One channel at a time: numpy runs a stride-3 plane far faster than a
    # broadcast over the size-3 axis.
    for k in range(3):
        channel = canvas[:, :, k]
        channel += plane
        channel += tint[k]
    return np.clip(canvas, 0, 255, out=canvas)


def render_sign(label: int, side: int, rng: np.random.Generator) -> RasterImage:
    """One randomized frame of the given class."""
    fill, ring, outer, inner, glyph_regions = _LAYERS[CLASS_NAMES[label]]

    canvas = _background(side, rng)

    # Nuisance parameters.
    scale_frac = rng.uniform(0.6, 0.9)
    radius = scale_frac * side / 2.0
    cx = side / 2.0 + rng.uniform(-0.15, 0.15) * side
    cy = side / 2.0 + rng.uniform(-0.15, 0.15) * side
    theta = np.radians(rng.uniform(-10.0, 10.0))
    brightness = rng.uniform(0.8, 1.2)

    # Layers in paint order, each over the ones before it. Ring everywhere
    # in the outline, then fill over the inner shape, gives the pixels of
    # ring on outline-minus-inner, then fill on inner.
    fill_color = _jitter_color(_COLORS[fill], rng)
    if ring is None:
        layers = [(fill_color, outer)]
    else:
        layers = [(_jitter_color(_COLORS[ring], rng), outer), (fill_color, inner)]
    layers += [(_jitter_color(_COLORS[color], rng), region) for color, region in glyph_regions]

    placement = _Placement(side, cx, cy, radius, theta)
    for color, region in layers:
        win, sel = placement.inside(region)
        patch = canvas[win]
        for k in range(3):  # a stride-3 plane per channel: faster than a (h, w, 3) masked store
            np.copyto(patch[:, :, k], color[k], where=sel)

    np.multiply(canvas, brightness, out=canvas)
    out = np.clip(np.rint(canvas, out=canvas), 0, 255, out=canvas).astype(np.uint8)
    return RasterImage(out)


def synth_dataset(config: SynthConfig = SynthConfig()) -> LabeledImageSet:
    """Train/test corpus over all 16 classes, deterministic under the seed."""
    rng = np.random.default_rng(config.seed)
    ds = LabeledImageSet(class_names=list(CLASS_NAMES))
    for label in range(len(CLASS_NAMES)):
        for _ in range(config.per_class):
            ds.items.append((render_sign(label, config.side, rng), label, "train"))
    for label in range(len(CLASS_NAMES)):
        for _ in range(config.test_per_class):
            ds.items.append((render_sign(label, config.side, rng), label, "test"))
    ds.validate()
    return ds


# ---------------------------------------------------------------------------
# History archives for the defense protocol

_ARCHIVE_DATES = (date(2016, 10, 12), date(2019, 7, 3), date(2020, 11, 21))


def make_history_archive(
    labels: list[int],
    root,
    side: int = 64,
    renders_per_sign: int = 3,
    seed: int = 0,
) -> list[tuple[float, float, float]]:
    """Write an archive of clean re-renders for a row of physical signs.

    labels[i] is the class of sign i. Each sign gets renders_per_sign past
    frames (distinct nuisance draws, fixed past dates) at a fabricated
    location spaced ~111 m apart so the 25 m radius matching is unambiguous.
    Returns the (lat, lon, heading) per sign for later queries.
    """
    os.makedirs(root, exist_ok=True)
    entries = []
    coords = []
    for i, label in enumerate(labels):
        lat = 40.0 + 0.001 * i
        lon = -74.0
        heading = 90.0
        coords.append((lat, lon, heading))
        for j in range(renders_per_sign):
            if j < len(_ARCHIVE_DATES):
                when = _ARCHIVE_DATES[j]
            else:
                base = _ARCHIVE_DATES[-1]
                when = date(base.year - (j - len(_ARCHIVE_DATES) + 1) * 2, base.month, base.day)
            rng = np.random.default_rng([seed, i, j])
            img = render_sign(label, side, rng)
            rel = f"sign{i:04d}_{when.isoformat()}.png"
            save_image(img, os.path.join(root, rel))
            entries.append(ManifestEntry(rel, when, lat, lon, heading))
    with open(os.path.join(root, "manifest.json"), "wb") as fh:
        fh.write(dump_manifest(entries))
    return coords


# ---------------------------------------------------------------------------
# Mask-fidelity probes

PROBE_SHAPES = ("octagon", "inv_triangle", "diamond", "circle")


def render_shape_probe(
    shape: str,
    rng: np.random.Generator,
    min_inradius: float = 24.0,
    max_inradius: float = 40.0,
) -> tuple[RasterImage, np.ndarray]:
    """A single bright convex shape over a non-uniform background.

    Contrast between the shape fill and the brightest background pixel is
    at least 80 gray levels. Returns (image, ground-truth bits).
    """
    if shape not in PROBE_SHAPES:
        raise ValueError(f"unknown probe shape {shape!r}")
    inradius = rng.uniform(min_inradius, max_inradius)
    circum = inradius / _INRADIUS_FRAC[shape]
    side = int(np.ceil(rng.uniform(2.6, 3.4) * circum))
    side = max(side, int(2 * circum) + 16)

    base = rng.uniform(40, 90)
    sx = rng.uniform(-0.2, 0.2)
    sy = rng.uniform(-0.2, 0.2)
    bg = _ramp(side, base, sx, sy)
    bg += rng.uniform(-5, 5, size=(side, side))
    bg_max = float(bg.max())
    fill = rng.uniform(min(bg_max + 80.0, 245.0), 250.0)

    slack = side / 2.0 - circum - 4.0
    cx = side / 2.0 + rng.uniform(-slack, slack)
    cy = side / 2.0 + rng.uniform(-slack, slack)
    theta = np.radians(rng.uniform(-10.0, 10.0))
    win, sel = _Placement(side, cx, cy, circum, theta).inside(_shape_region(shape))
    truth = np.zeros((side, side), dtype=bool)
    truth[win] = sel

    canvas = np.repeat(bg[:, :, None], 3, axis=2)
    canvas[truth] = fill
    img = RasterImage(np.clip(np.rint(canvas, out=canvas), 0, 255, out=canvas).astype(np.uint8))
    return img, truth
