"""Shadow application and PSO-driven placement."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chrono_shield.attack import (
    AttackConfig,
    DegenerateMask,
    InvalidConfig,
    PsoConfig,
    ShadowSpec,
    _shadow_batch,
    apply_shadow,
    pso_minimize,
    run_attack,
)
from chrono_shield.cnn import Prediction
from chrono_shield.masks import BinaryMask
from chrono_shield.raster import RasterImage

from _oracles import direct_shadow, polygon_membership
from conftest import flat_image, random_image


class MeanVictim:
    """Black-box stand-in: class 1 when the frame is bright, smoothly."""

    def __call__(self, images: list[RasterImage]) -> list[Prediction]:
        preds = []
        for img in images:
            m = img.pixels.mean()
            p1 = 1.0 / (1.0 + np.exp(-(m - 127.0) / 12.0))
            dist = np.array([1.0 - p1, p1])
            label = int(dist.argmax())
            preds.append(Prediction(label=label, confidence=float(dist[label]), distribution=dist))
        return preds


class ConstVictim:
    """Ignores its input entirely; no shadow can ever flip it."""

    def __call__(self, images: list[RasterImage]) -> list[Prediction]:
        return [Prediction(label=0, confidence=0.9, distribution=np.array([0.9, 0.1])) for _ in images]


class CountingVictim:
    """Passes frames through to another victim, recording each batch size."""

    def __init__(self, inner):
        self.inner = inner
        self.batches: list[int] = []

    def __call__(self, images: list[RasterImage]) -> list[Prediction]:
        self.batches.append(len(images))
        return self.inner(images)


def triangle(*pts) -> ShadowSpec:
    return ShadowSpec(vertices=np.array(pts, dtype=np.float64))


# ---------------------------------------------------------------------------
# ShadowSpec


class TestShadowSpec:
    def test_requires_three_vertices(self):
        with pytest.raises(ValueError):
            ShadowSpec(vertices=np.array([[0.1, 0.1], [0.9, 0.9]]))

    def test_requires_two_columns(self):
        with pytest.raises(ValueError):
            ShadowSpec(vertices=np.zeros((3, 3)))

    @pytest.mark.parametrize("darkening", [0.0, -0.2, 1.5])
    def test_darkening_bounds(self, darkening):
        with pytest.raises(ValueError):
            ShadowSpec(
                vertices=np.array([(0, 0), (1, 0), (0, 1)], dtype=float), darkening=darkening
            )

    def test_vertices_clipped_and_frozen(self):
        spec = ShadowSpec(vertices=np.array([(-0.5, 0.2), (1.7, 0.8), (0.5, 2.0)]))
        assert spec.vertices.min() >= 0.0 and spec.vertices.max() <= 1.0
        with pytest.raises(ValueError):
            spec.vertices[0, 0] = 0.3


# ---------------------------------------------------------------------------
# apply_shadow


class TestApplyShadow:
    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            apply_shadow(flat_image(100, 8, 8), BinaryMask.full(4, 4), triangle((0, 0), (1, 0), (0, 1)))

    def test_empty_mask_is_noop(self):
        img = flat_image(100, 8, 8)
        mask = BinaryMask(np.zeros((8, 8), dtype=bool))
        assert apply_shadow(img, mask, triangle((0, 0), (1, 0), (0, 1))) is img

    def test_zero_area_polygon_is_noop(self):
        img = flat_image(100, 8, 8)
        spec = triangle((0.5, 0.5), (0.5, 0.5), (0.5, 0.5))
        assert apply_shadow(img, BinaryMask.full(8, 8), spec) is img

    def test_darkening_one_changes_nothing(self):
        img = flat_image(173, 16, 16)
        spec = ShadowSpec(vertices=np.array([(0.0, 0.0), (1.0, 0.0), (0.5, 1.0)]), darkening=1.0)
        out = apply_shadow(img, BinaryMask.full(16, 16), spec)
        assert out == img

    def test_constant_200_half_darkening_gives_100(self):
        # rint(200 * 0.5) = 100 inside the polygon, 200 outside.
        img = flat_image(200, 32, 32)
        spec = ShadowSpec(
            vertices=np.array([(0.1, 0.1), (0.9, 0.1), (0.9, 0.9), (0.1, 0.9)]), darkening=0.5
        )
        out = apply_shadow(img, BinaryMask.full(32, 32), spec)
        values = set(np.unique(out.pixels).tolist())
        assert values == {100, 200}
        # Interior pixel well inside the rectangle:
        assert out.pixels[16, 16, 0] == 100
        assert out.pixels[0, 0, 0] == 200

    def test_masked_region_confines_the_shadow(self):
        img = flat_image(200, 20, 20)
        bits = np.zeros((20, 20), dtype=bool)
        bits[:10, :] = True  # top half only
        big = ShadowSpec(vertices=np.array([(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)]))
        out = apply_shadow(img, BinaryMask(bits), big)
        assert (out.pixels[10:] == 200).all()
        assert (out.pixels[:10] != 200).any()

    def test_diff_equals_reference_membership(self, rng):
        # Oracle: an independent even-odd rasterizer decides exactly
        # which pixels may change; the diff set must match mask AND
        # polygon AND (value actually changes under rint).
        for _ in range(25):
            w, h = int(rng.integers(6, 24)), int(rng.integers(6, 24))
            img = random_image(rng, w, h)
            bits = rng.random((h, w)) > 0.3
            if not bits.any():
                continue
            k = int(rng.integers(3, 6))
            spec = ShadowSpec(vertices=rng.random((k, 2)), darkening=float(rng.uniform(0.2, 0.9)))
            out = apply_shadow(img, BinaryMask(bits), spec)
            want = direct_shadow(img.pixels, bits, spec.vertices, spec.darkening)
            assert np.array_equal(out.pixels, want)

    def test_never_mutates_input(self):
        img = flat_image(200, 8, 8)
        before = img.pixels.copy()
        apply_shadow(img, BinaryMask.full(8, 8), triangle((0, 0), (1, 0), (0.5, 1)))
        assert np.array_equal(img.pixels, before)


# ---------------------------------------------------------------------------
# _shadow_batch against the direct_shadow oracle, row by row

# Coordinates on the bbox edges and on a coarse grid give horizontal edges,
# vertices on 0 and 1, and exactly collinear or coincident vertices.
coords = st.one_of(st.sampled_from([0.0, 0.25, 0.5, 1.0]), st.floats(0.0, 1.0))


@st.composite
def polygons(draw, k):
    shape = draw(st.sampled_from(["free", "collinear", "point"]))
    if shape == "free":
        return [(draw(coords), draw(coords)) for _ in range(k)]
    a = np.array([draw(coords), draw(coords)])
    if shape == "point":
        return [tuple(a)] * k
    b = np.array([draw(coords), draw(coords)])
    return [tuple(np.clip(a + draw(coords) * (b - a), 0.0, 1.0)) for _ in range(k)]


@st.composite
def shadow_batches(draw):
    w, h = draw(st.integers(1, 12)), draw(st.integers(1, 12))
    if draw(st.booleans()):
        bits = np.zeros((h, w), dtype=bool)
        bits[draw(st.integers(0, h - 1)), draw(st.integers(0, w - 1))] = True
    else:
        bits = np.array(draw(st.lists(st.booleans(), min_size=w * h, max_size=w * h))).reshape(h, w)
    k = draw(st.integers(3, 6))
    verts = np.array(draw(st.lists(polygons(k), min_size=1, max_size=5)), dtype=np.float64)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    img = random_image(rng, w, h, channels=draw(st.sampled_from([1, 3])))
    darkening = draw(st.floats(0.0, 1.0, exclude_min=True))
    return img, BinaryMask(bits), verts, darkening


@given(shadow_batches())
@settings(max_examples=300, deadline=None)
def test_shadow_batch_rows_match_direct_shadow(case):
    img, mask, verts, darkening = case
    # Subnormal coordinates overflow the edge intersection to inf in both routes alike.
    with np.errstate(over="ignore", invalid="ignore"):
        out = _shadow_batch(img, mask, verts, darkening)
        wants = [direct_shadow(img.pixels, mask.bits, v, darkening) for v in verts]
    assert out.shape == (len(verts), *img.pixels.shape) and out.dtype == np.uint8
    for row, want in zip(out, wants):
        assert np.array_equal(row, want)


@pytest.mark.parametrize("channels", [1, 3])
@pytest.mark.parametrize("edge", ["full", "top-left", "bottom-right", "left-column", "bottom-row"])
def test_shadow_batch_matches_direct_shadow_at_the_frame_edge(rng, channels, edge):
    # Mask bounding boxes that touch the frame's border, on gray and RGB
    # frames, with dark and saturated pixels where uint8 arithmetic wraps.
    h, w = 24, 20
    bits = np.zeros((h, w), dtype=bool)
    region = {
        "full": np.s_[:, :],
        "top-left": np.s_[:9, :7],
        "bottom-right": np.s_[11:, 8:],
        "left-column": np.s_[3:20, :1],
        "bottom-row": np.s_[h - 1 :, 2:17],
    }[edge]
    bits[region] = rng.random(bits[region].shape) < 0.8
    bits[region][0, 0] = bits[region][-1, -1] = True  # the bbox is the whole region
    img = random_image(rng, w, h, channels=channels)
    px = img.pixels.copy()
    px[::3, ::2] = 0
    px[1::3, ::2] = 255
    img = RasterImage(px)
    verts = rng.random((12, 4, 2))
    verts[0] = [(0, 0), (1, 0), (1, 1), (0, 1)]
    mask = BinaryMask(bits)
    for darkening in (0.43, 1.0, 1e-3):
        out = _shadow_batch(img, mask, verts, darkening)
        for row, v in zip(out, verts):
            assert np.array_equal(row, direct_shadow(img.pixels, bits, v, darkening))


def test_shadow_batch_keeps_the_degenerate_area_rule():
    # A sliver with doubled area ~3e-13, under the 1e-12 cutoff, still holds
    # the pixel centres of row 6; the renderer and its wrapper leave it undrawn.
    img = flat_image(200, 12, 12)
    mask = BinaryMask.full(12, 12)
    c, e = 6.5 / 12, 1e-15
    verts = np.array([[(0.0, c), (1.0, c + e), (1.0, c - e)]])
    assert polygon_membership(verts[0] * 12, 12, 12)[6].all()
    assert apply_shadow(img, mask, ShadowSpec(vertices=verts[0], darkening=0.5)) is img
    assert np.array_equal(_shadow_batch(img, mask, verts, 0.5)[0], img.pixels)
    assert np.array_equal(direct_shadow(img.pixels, mask.bits, verts[0], 0.5), img.pixels)


# ---------------------------------------------------------------------------
# PSO


def sphere(x: np.ndarray) -> np.ndarray:
    return ((x - 0.5) ** 2).sum(axis=-1)


class TestPso:
    def test_sphere_reaches_small_fitness(self):
        _, fit, trace = pso_minimize(sphere, 4, PsoConfig(seed=0))
        assert fit <= 1e-3
        assert len(trace) == 100

    def test_trace_non_increasing(self):
        _, _, trace = pso_minimize(sphere, 6, PsoConfig(swarm=8, iterations=40, seed=2))
        assert all(a >= b for a, b in zip(trace, trace[1:]))

    def test_single_particle_single_iteration_stays_put(self):
        # One particle at rest: pbest == gbest == x, so the velocity
        # update is exactly zero and the initial position is returned.
        cfg = PsoConfig(swarm=1, iterations=1, seed=5)
        best, fit, trace = pso_minimize(sphere, 3, cfg)
        expected = np.random.default_rng(5).random((1, 3))[0]
        assert np.array_equal(best, expected)
        assert fit == sphere(expected)
        assert len(trace) == 1

    def test_deterministic_under_seed(self):
        a = pso_minimize(sphere, 4, PsoConfig(swarm=10, iterations=20, seed=9))
        b = pso_minimize(sphere, 4, PsoConfig(swarm=10, iterations=20, seed=9))
        c = pso_minimize(sphere, 4, PsoConfig(swarm=10, iterations=20, seed=10))
        assert np.array_equal(a[0], b[0]) and a[1] == b[1]
        assert a[1] != c[1]

    def test_positions_stay_in_unit_box(self):
        calls = []

        def spy(x):
            calls.append(x.copy())
            return (x**2).sum(axis=1)

        pso_minimize(spy, 5, PsoConfig(swarm=6, iterations=30, seed=1))
        stacked = np.stack(calls)
        assert stacked.min() >= 0.0 and stacked.max() <= 1.0

    def test_invalid_config(self):
        for kwargs in [dict(swarm=0), dict(iterations=0)]:
            with pytest.raises(InvalidConfig):
                pso_minimize(sphere, 2, PsoConfig(seed=0, **kwargs))
        with pytest.raises(InvalidConfig):
            pso_minimize(sphere, 0, PsoConfig(seed=0))

    def test_immediate_stop_returns_empty_trace(self):
        best, fit, trace = pso_minimize(sphere, 2, PsoConfig(seed=0), should_stop=lambda: True)
        assert trace == []
        assert fit >= 0.0

    @given(st.integers(0, 2**31))
    @settings(max_examples=25)
    def test_trace_non_increasing_property(self, seed):
        rng = np.random.default_rng(seed)
        shift = rng.random(3)

        def f(x):
            return np.abs(x - shift).sum(axis=1)

        _, _, trace = pso_minimize(f, 3, PsoConfig(swarm=5, iterations=15, seed=seed))
        assert all(a >= b for a, b in zip(trace, trace[1:]))


# ---------------------------------------------------------------------------
# run_attack


class TestRunAttack:
    def test_degenerate_mask(self):
        img = flat_image(200, 16, 16)
        with pytest.raises(DegenerateMask):
            run_attack(img, BinaryMask(np.zeros((16, 16), dtype=bool)), MeanVictim(), 1)

    def test_invalid_fitness_and_vertices(self):
        img = flat_image(200, 16, 16)
        mask = BinaryMask.full(16, 16)
        for kwargs in (
            dict(fitness="nope"),
            dict(vertices=2),
            dict(darkening=0.0),
            dict(darkening=1.5),
        ):
            counter = CountingVictim(MeanVictim())
            with pytest.raises(InvalidConfig):
                run_attack(img, mask, counter, 1, AttackConfig(**kwargs))
            assert counter.batches == []  # rejected before any victim query

    @pytest.mark.parametrize("size", [32, 80])
    def test_mask_size_mismatch(self, size):
        counter = CountingVictim(MeanVictim())
        with pytest.raises(ValueError, match="dimensions differ"):
            run_attack(flat_image(200, 64, 64), BinaryMask.full(size, size), counter, 1)
        assert counter.batches == []  # rejected before any victim query

    def test_constant_victim_never_flips(self):
        img = flat_image(200, 16, 16)
        cfg = AttackConfig(swarm=4, iterations=5, seed=1)
        res = run_attack(img, BinaryMask.full(16, 16), ConstVictim(), 0, cfg)
        assert not res.success
        assert res.iterations_used == 5  # early stop never triggers
        assert res.adversarial_prediction.label == 0

    def test_threshold_victim_flips_bright_frame(self):
        # Bright constant frame classified 1; a dark-enough shadow drives
        # the mean below threshold and flips it to 0.
        img = flat_image(200, 32, 32)
        cfg = AttackConfig(vertices=3, darkening=0.2, swarm=20, iterations=30, seed=0)
        res = run_attack(img, BinaryMask.full(32, 32), MeanVictim(), 1, cfg)
        assert res.original_prediction.label == 1
        assert res.success
        assert res.adversarial_prediction.label == 0
        # Early stop: found well before the iteration budget.
        assert res.iterations_used < 30

    def test_shadow_reproduces_adversarial_image(self):
        img = flat_image(200, 32, 32)
        mask = BinaryMask.full(32, 32)
        cfg = AttackConfig(vertices=3, darkening=0.2, swarm=20, iterations=30, seed=0)
        res = run_attack(img, mask, MeanVictim(), 1, cfg)
        assert apply_shadow(img, mask, res.shadow) == res.adversarial_image
        again = MeanVictim()([res.adversarial_image])[0]
        assert again.label == res.adversarial_prediction.label

    def test_early_stop_disabled_runs_full_budget(self):
        img = flat_image(200, 32, 32)
        cfg = AttackConfig(vertices=3, darkening=0.2, swarm=20, iterations=12, seed=0, early_stop=False)
        res = run_attack(img, BinaryMask.full(32, 32), MeanVictim(), 1, cfg)
        assert res.iterations_used == 12
        assert res.success

    def test_margin_fitness_mode(self):
        img = flat_image(200, 32, 32)
        cfg = AttackConfig(vertices=3, darkening=0.2, swarm=20, iterations=30, seed=0, fitness="margin")
        res = run_attack(img, BinaryMask.full(32, 32), MeanVictim(), 1, cfg)
        assert res.success

    def test_fitness_trace_non_increasing(self):
        img = flat_image(200, 32, 32)
        cfg = AttackConfig(vertices=3, darkening=0.6, swarm=10, iterations=15, seed=3, early_stop=False)
        res = run_attack(img, BinaryMask.full(32, 32), MeanVictim(), 1, cfg)
        t = res.fitness_trace
        assert all(a >= b for a, b in zip(t, t[1:]))

    def test_deterministic_under_seed(self):
        img = flat_image(200, 32, 32)
        mask = BinaryMask.full(32, 32)
        cfg = AttackConfig(vertices=3, darkening=0.4, swarm=8, iterations=10, seed=7, early_stop=False)
        a = run_attack(img, mask, MeanVictim(), 1, cfg)
        b = run_attack(img, mask, MeanVictim(), 1, cfg)
        assert a.adversarial_image == b.adversarial_image
        assert np.array_equal(a.shadow.vertices, b.shadow.vertices)

    @pytest.mark.parametrize(
        "victim, label, cfg, images",
        [
            (MeanVictim(), 1, AttackConfig(darkening=0.2, swarm=20, iterations=30, seed=0), 62),
            (MeanVictim(), 1, AttackConfig(darkening=0.2, swarm=20, iterations=12, seed=0, early_stop=False), 262),
            (ConstVictim(), 0, AttackConfig(swarm=6, iterations=5, seed=1), 38),
        ],
        ids=["early_stop", "full_budget", "never_flips"],
    )
    def test_victim_query_budget(self, victim, label, cfg, images):
        # The clean frame, one batch per swarm round (the initial one plus
        # one per iteration), then the winner: 2 + swarm * (iterations + 1).
        counter = CountingVictim(victim)
        res = run_attack(flat_image(200, 32, 32), BinaryMask.full(32, 32), counter, label, cfg)
        assert counter.batches == [1] + [cfg.swarm] * (res.iterations_used + 1) + [1]
        assert sum(counter.batches) == images
