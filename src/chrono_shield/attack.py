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
from .configfile import InvalidConfig
from .masks import BinaryMask
from .raster import RasterImage


class DegenerateMask(ValueError):
    """A mask the attack cannot use: all false, or not the image's size."""


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

    def __post_init__(self):
        if self.swarm < 1 or self.iterations < 1:
            raise InvalidConfig(f"swarm and iterations must be positive, got {self.swarm}, {self.iterations}")
        if self.seed < 0:
            raise InvalidConfig(f"seed must be >= 0, got {self.seed}")


@dataclass(frozen=True)
class AttackConfig(PsoConfig):
    """The swarm's PsoConfig plus the shadow's shape and the fitness."""

    vertices: int = 3
    darkening: float = 0.43
    fitness: str = "true_prob"  # or "margin"
    early_stop: bool = True

    def __post_init__(self):
        super().__post_init__()
        if self.fitness not in ("true_prob", "margin"):
            raise InvalidConfig(f"unknown fitness {self.fitness!r}")
        if self.vertices < 3:
            raise InvalidConfig(f"polygon needs >= 3 vertices, got {self.vertices}")
        if not 0.0 < self.darkening <= 1.0:
            raise InvalidConfig(f"darkening must be in (0, 1], got {self.darkening}")


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


def apply_shadow(img: RasterImage, mask: BinaryMask, shadow: ShadowSpec) -> RasterImage:
    """Darken (polygon intersect mask) pixels; everything else is untouched.

    The one-polygon case of _shadow_batch. When no pixel changes (an empty
    mask, a zero-area polygon, darkening 1) the input itself is returned.
    """
    if (mask.height, mask.width) != (img.height, img.width):
        raise ValueError("mask and image dimensions differ")
    out = _shadow_batch(img, mask, shadow.vertices[None], shadow.darkening)[0]
    return img if np.array_equal(out, img.pixels) else RasterImage(out)


def _shadow_batch(img: RasterImage, mask: BinaryMask, vertices: np.ndarray, darkening: float) -> np.ndarray:
    """img with each of n shadows applied, as uint8 (n, h, w, c).

    vertices is (n, k, 2) in [0, 1], mapped onto the mask's bounding box.
    A pixel is darkened when its centre (x+0.5, y+0.5) is inside the
    polygon by the even-odd rule and its mask bit is set; the new value is
    rint(value * darkening). A polygon whose doubled shoelace area is
    under 1e-12 is degenerate and darkens nothing.
    """
    n = vertices.shape[0]
    out = np.broadcast_to(img.pixels, (n, *img.pixels.shape)).copy()
    bits = mask.bits
    if not bits.any():
        return out
    ys, xs = np.nonzero(bits)
    bx0, by0, bx1, by1 = int(xs.min()), int(ys.min()), int(xs.max()), int(ys.max())
    verts = np.empty_like(vertices, dtype=np.float64)
    verts[..., 0] = bx0 + vertices[..., 0] * (bx1 - bx0 + 1)
    verts[..., 1] = by0 + vertices[..., 1] * (by1 - by0 + 1)
    vx, vy = verts[..., 0], verts[..., 1]  # (n, k)
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
    area2 = np.array([abs(np.dot(vx[j], wy[j]) - np.dot(vy[j], wx[j])) for j in range(n)])
    sel[area2 < 1e-12] = False  # degenerate polygon: no-op
    sel &= bits[by0 : by1 + 1, bx0 : bx1 + 1]
    # The composite window + sel * (shaded - window) in uint8, which wraps
    # mod 256 and so gives shaded exactly where sel is 1. sel is copied
    # into each channel so the arithmetic runs over whole bw*c rows.
    window = img.pixels[by0 : by1 + 1, bx0 : bx1 + 1]
    shaded = np.clip(np.rint(window.astype(np.float64) * darkening), 0, 255).astype(np.uint8)
    step = np.empty((*sel.shape, img.channels), dtype=np.uint8)
    for ch in range(img.channels):
        step[..., ch] = sel.view(np.uint8)
    step *= shaded - window
    out[:, by0 : by1 + 1, bx0 : bx1 + 1] += step
    return out


# ---------------------------------------------------------------------------
# PSO


def pso_minimize(
    objective,
    dim: int,
    config: PsoConfig = PsoConfig(),
    should_stop=None,
) -> tuple[np.ndarray, float, list[float]]:
    """Canonical global-best PSO over the [0,1]^dim box.

    objective maps the swarm's (n, dim) positions to their (n,) fitnesses,
    one call per round. Returns (best position, best fitness, per-iteration
    trace of the best fitness, which is non-increasing). should_stop() is
    polled after every evaluation round for early exit.
    """
    if dim < 1:
        raise InvalidConfig(f"dim must be positive, got {dim}")
    rng = np.random.default_rng(config.seed)

    x = rng.random((config.swarm, dim))
    v = np.zeros_like(x)  # particles start at rest
    fit = np.asarray(objective(x), dtype=np.float64)
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
        fit = np.asarray(objective(x), dtype=np.float64)
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
    if (mask.height, mask.width) != (img.height, img.width):
        raise DegenerateMask("mask and image dimensions differ")
    if not mask.bits.any():
        raise DegenerateMask("mask has no true bits")
    k = config.vertices
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

    gbest, _, trace = pso_minimize(batch_objective, 2 * k, config, should_stop=should_stop)

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
