"""Polygonal shadow perturbations and the swarm search that places them.

A shadow is a k-gon in normalized [0,1]^2 coordinates, mapped into the
bounding box of the allowed mask; pixels inside both the polygon and the
mask get their channels multiplied by a darkening coefficient. Placement
is optimized with canonical global-best PSO over the 2k vertex coords,
minimizing the victim's probability for the true class.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .cnn import Prediction
from .masks import BinaryMask
from .raster import RasterImage


class InvalidConfig(ValueError):
    pass


class DegenerateMask(ValueError):
    """Attack requested with an all-false mask: nowhere to place a shadow."""


@dataclass(frozen=True)
class ShadowSpec:
    """k-gon vertices in normalized [0,1]^2 plus a darkening coefficient."""

    vertices: np.ndarray  # (k, 2), columns (u, v)
    darkening: float = 0.43

    def __post_init__(self):
        v = np.asarray(self.vertices, dtype=np.float64)
        if v.ndim != 2 or v.shape[1] != 2 or v.shape[0] < 3:
            raise ValueError(f"vertices must be (k>=3, 2), got shape {v.shape}")
        if not (0.0 < self.darkening <= 1.0):
            raise ValueError(f"darkening must be in (0, 1], got {self.darkening}")
        v = np.clip(v, 0.0, 1.0)
        v.flags.writeable = False
        object.__setattr__(self, "vertices", v)


@dataclass(frozen=True)
class PsoConfig:
    swarm: int = 50
    iterations: int = 100
    inertia: float = 0.73
    cognitive: float = 1.49
    social: float = 1.49
    seed: int = 0


@dataclass(frozen=True)
class AttackConfig(PsoConfig):
    """The swarm's PsoConfig plus the shadow's shape and the fitness."""

    vertices: int = 3
    darkening: float = 0.43
    fitness: str = "true_prob"  # or "margin"
    early_stop: bool = True


@dataclass(frozen=True)
class AttackResult:
    adversarial_image: RasterImage
    shadow: ShadowSpec
    original_prediction: Prediction
    adversarial_prediction: Prediction
    success: bool
    iterations_used: int
    fitness_trace: list[float] = field(default_factory=list)


# ---------------------------------------------------------------------------
# Shadow application


def _polygon_pixels(verts: np.ndarray, x0: int, y0: int, x1: int, y1: int) -> np.ndarray:
    """Even-odd membership of pixel centers (x+0.5, y+0.5) in the polygon,
    over the integer pixel window [x0..x1] x [y0..y1]."""
    xs = np.arange(x0, x1 + 1, dtype=np.float64) + 0.5
    ys = np.arange(y0, y1 + 1, dtype=np.float64) + 0.5
    px = xs[None, :]
    py = ys[:, None]
    inside = np.zeros((ys.size, xs.size), dtype=bool)
    vx = verts[:, 0]
    vy = verts[:, 1]
    wx = np.roll(vx, -1)
    wy = np.roll(vy, -1)
    for i in range(len(verts)):
        if vy[i] == wy[i]:
            continue
        crosses = (vy[i] <= py) != (wy[i] <= py)
        t = (py - vy[i]) / (wy[i] - vy[i])
        xint = vx[i] + t * (wx[i] - vx[i])
        inside ^= crosses & (px < xint)
    return inside


def _twice_area(vx: np.ndarray, vy: np.ndarray, wx: np.ndarray, wy: np.ndarray) -> float:
    """Twice the shoelace area of polygon (vx, vy); (wx, wy) is it rolled by one vertex."""
    return abs(np.dot(vx, wy) - np.dot(vy, wx))


def _mask_bbox(bits: np.ndarray) -> tuple[int, int, int, int]:
    ys, xs = np.nonzero(bits)
    return int(xs.min()), int(ys.min()), int(xs.max()), int(ys.max())


def apply_shadow(img: RasterImage, mask: BinaryMask, shadow: ShadowSpec) -> RasterImage:
    """Darken (polygon intersect mask) pixels; everything else is untouched.

    Vertices are normalized and mapped onto the mask's bounding box. A
    zero-area polygon is a no-op and returns the input unchanged.
    """
    if (mask.height, mask.width) != (img.height, img.width):
        raise ValueError("mask and image dimensions differ")
    bits = mask.bits
    if not bits.any():
        return img
    bx0, by0, bx1, by1 = _mask_bbox(bits)
    bw = bx1 - bx0 + 1
    bh = by1 - by0 + 1
    verts = np.empty_like(shadow.vertices)
    verts[:, 0] = bx0 + shadow.vertices[:, 0] * bw
    verts[:, 1] = by0 + shadow.vertices[:, 1] * bh
    vx, vy = verts[:, 0], verts[:, 1]
    if _twice_area(vx, vy, np.roll(vx, -1), np.roll(vy, -1)) < 1e-12:
        return img  # degenerate polygon: no-op
    # Work only inside the polygon's own bbox clipped to the mask bbox.
    wx0 = max(bx0, int(np.floor(vx.min())))
    wx1 = min(bx1, int(np.ceil(vx.max())))
    wy0 = max(by0, int(np.floor(vy.min())))
    wy1 = min(by1, int(np.ceil(vy.max())))
    if wx0 > wx1 or wy0 > wy1:
        return img
    sel = _polygon_pixels(verts, wx0, wy0, wx1, wy1)
    sel &= bits[wy0 : wy1 + 1, wx0 : wx1 + 1]
    if not sel.any():
        return img
    out = np.array(img.pixels)
    window = out[wy0 : wy1 + 1, wx0 : wx1 + 1]
    shaded = np.rint(window[sel].astype(np.float64) * shadow.darkening)
    window[sel] = np.clip(shaded, 0, 255).astype(np.uint8)
    return RasterImage(out)


def _shadow_batch(img: RasterImage, mask: BinaryMask, vertices: np.ndarray, darkening: float) -> np.ndarray:
    """apply_shadow's pixels for n polygons at once, as uint8 (n, h, w, c).

    vertices is (n, k, 2) in [0, 1]. Row i is byte-identical to
    apply_shadow(img, mask, ShadowSpec(vertices[i], darkening)).pixels:
    the membership test is evaluated over the whole mask bbox, where it is
    false outside each polygon's own bbox, so the result is the same.
    """
    n = vertices.shape[0]
    out = np.broadcast_to(img.pixels, (n, *img.pixels.shape)).copy()
    bits = mask.bits
    if not bits.any():
        return out
    bx0, by0, bx1, by1 = _mask_bbox(bits)
    verts = np.empty_like(vertices, dtype=np.float64)
    verts[..., 0] = bx0 + vertices[..., 0] * (bx1 - bx0 + 1)
    verts[..., 1] = by0 + vertices[..., 1] * (by1 - by0 + 1)
    vx, vy = verts[..., 0], verts[..., 1]  # (n, k), strided as in apply_shadow
    wx = np.roll(vx, -1, axis=1)
    wy = np.roll(vy, -1, axis=1)
    px = np.arange(bx0, bx1 + 1, dtype=np.float64) + 0.5
    py = (np.arange(by0, by1 + 1, dtype=np.float64) + 0.5)[None, :, None]
    dy = np.where(vy == wy, 1.0, wy - vy)  # a horizontal edge never crosses; 1 avoids 0/0
    sel = np.zeros((n, py.shape[1], px.size), dtype=bool)
    for i in range(vx.shape[1]):
        a, b = vy[:, i, None, None], wy[:, i, None, None]
        crosses = (a <= py) != (b <= py)
        t = (py - a) / dy[:, i, None, None]
        xint = vx[:, i, None, None] + t * (wx[:, i, None, None] - vx[:, i, None, None])
        sel ^= crosses & (px < xint)
    area2 = np.array([_twice_area(vx[j], vy[j], wx[j], wy[j]) for j in range(n)])
    sel[area2 < 1e-12] = False  # degenerate polygon: no-op
    sel &= bits[by0 : by1 + 1, bx0 : bx1 + 1]
    window = img.pixels[by0 : by1 + 1, bx0 : bx1 + 1]
    shaded = np.clip(np.rint(window.astype(np.float64) * darkening), 0, 255).astype(np.uint8)
    np.copyto(out[:, by0 : by1 + 1, bx0 : bx1 + 1], shaded, where=sel[..., None])
    return out


# ---------------------------------------------------------------------------
# PSO


def pso_minimize(
    objective,
    dim: int,
    config: PsoConfig = PsoConfig(),
    vector_objective=None,
    should_stop=None,
) -> tuple[np.ndarray, float, list[float]]:
    """Canonical global-best PSO over the [0,1]^dim box.

    objective maps a (dim,) position to a scalar; vector_objective, when
    given, evaluates a whole (n, dim) batch per iteration and takes
    precedence. Returns (best position, best fitness, per-iteration trace
    of the best fitness, which is non-increasing). should_stop() is polled
    after every evaluation round for early exit.
    """
    if config.swarm < 1 or config.iterations < 1 or dim < 1:
        raise InvalidConfig(
            f"swarm, iterations and dim must be positive, got {config.swarm}, {config.iterations}, {dim}"
        )
    rng = np.random.default_rng(config.seed)

    def evaluate(x):
        if vector_objective is not None:
            return np.asarray(vector_objective(x), dtype=np.float64)
        return np.array([float(objective(row)) for row in x], dtype=np.float64)

    x = rng.random((config.swarm, dim))
    v = np.zeros_like(x)  # particles start at rest
    fit = evaluate(x)
    pbest = x.copy()
    pfit = fit.copy()
    g = int(pfit.argmin())
    gbest = pbest[g].copy()
    gfit = float(pfit[g])

    trace: list[float] = []
    if should_stop is not None and should_stop():
        return gbest, gfit, trace
    for _ in range(config.iterations):
        r1 = rng.random((config.swarm, dim))
        r2 = rng.random((config.swarm, dim))
        v = config.inertia * v + config.cognitive * r1 * (pbest - x) + config.social * r2 * (gbest - x)
        x = np.clip(x + v, 0.0, 1.0)
        fit = evaluate(x)
        improved = fit < pfit
        pbest[improved] = x[improved]
        pfit[improved] = fit[improved]
        g = int(pfit.argmin())
        if pfit[g] < gfit:
            gfit = float(pfit[g])
            gbest = pbest[g].copy()
        trace.append(gfit)
        if should_stop is not None and should_stop():
            break
    return gbest, gfit, trace


# ---------------------------------------------------------------------------
# End-to-end attack


def run_attack(
    img: RasterImage,
    mask: BinaryMask,
    victim,
    true_label: int,
    config: AttackConfig = AttackConfig(),
) -> AttackResult:
    """Search for a shadow that flips the victim's label on img.

    victim is any callable list[RasterImage] -> list[Prediction], one
    Prediction per frame; each swarm round is one call. Fitness is the
    victim's true-class probability, or (margin) true-class minus best-other.
    """
    if not mask.bits.any():
        raise DegenerateMask("mask has no true bits")
    if config.fitness not in ("true_prob", "margin"):
        raise InvalidConfig(f"unknown fitness {config.fitness!r}")
    k = config.vertices
    if k < 3:
        raise InvalidConfig(f"polygon needs >= 3 vertices, got {k}")
    if not 0.0 < config.darkening <= 1.0:
        raise InvalidConfig(f"darkening must be in (0, 1], got {config.darkening}")
    original = victim([img])[0]

    best_flip: dict | None = None

    def score(pred: Prediction) -> float:
        p_true = float(pred.distribution[true_label])
        if config.fitness == "margin":
            others = np.delete(pred.distribution, true_label)
            return p_true - float(others.max())
        return p_true

    def batch_objective(positions: np.ndarray) -> np.ndarray:
        nonlocal best_flip
        shaded = _shadow_batch(img, mask, positions.reshape(-1, k, 2), config.darkening)
        images = [RasterImage(px) for px in shaded]
        preds = victim(images)
        fits = np.empty(len(preds), dtype=np.float64)
        for i, pred in enumerate(preds):
            fits[i] = score(pred)
            if pred.label != true_label and (best_flip is None or fits[i] < best_flip["fitness"]):
                best_flip = {
                    "fitness": fits[i],
                    "image": images[i],
                    "shadow": ShadowSpec(vertices=positions[i].reshape(k, 2), darkening=config.darkening),
                }
        return fits

    def should_stop() -> bool:
        return config.early_stop and best_flip is not None

    gbest, _, trace = pso_minimize(
        objective=None,
        dim=2 * k,
        config=config,
        vector_objective=batch_objective,
        should_stop=should_stop,
    )

    if best_flip is not None:
        shadow = best_flip["shadow"]
        adv_img = best_flip["image"]
    else:
        shadow = ShadowSpec(vertices=gbest.reshape(k, 2), darkening=config.darkening)
        adv_img = apply_shadow(img, mask, shadow)
    adv_pred = victim([adv_img])[0]
    return AttackResult(
        adversarial_image=adv_img,
        shadow=shadow,
        original_prediction=original,
        adversarial_prediction=adv_pred,
        success=adv_pred.label != original.label,
        iterations_used=len(trace),
        fitness_trace=trace,
    )
