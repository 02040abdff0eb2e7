"""The sign renderer against the reference renderer in _oracles.py: the
same rng draws and float operations must give the same bytes."""

import hashlib

import numpy as np
import pytest

from chrono_shield import synth
from chrono_shield.synth import CLASS_NAMES, PROBE_SHAPES, SynthConfig, render_shape_probe, render_sign, synth_dataset

from _oracles import _in_bar, _in_convex, _in_dot, _in_shape, reference_render_sign, reference_shape_probe

# SHA-256 over every item's pixel bytes, in corpus order, of the seed-0 corpus.
SEED0_CORPUS_SHA256 = "820f9ceb106cb0dd455690347c3775d938413587fb32bdaf132409a9a8d5bacb"


@pytest.mark.parametrize("side", [16, 32, 57, 64, 128])
def test_every_class_matches_the_reference(side):
    for seed in range(3):
        for label in range(len(CLASS_NAMES)):
            got = render_sign(label, side, np.random.default_rng([seed, label]))
            want = reference_render_sign(label, side, np.random.default_rng([seed, label]))
            assert got.pixels.tobytes() == want.pixels.tobytes(), (seed, CLASS_NAMES[label])


def test_one_rng_stream_matches_the_reference():
    # Renders that share one stream also agree on how many draws each takes.
    got, want = np.random.default_rng(5), np.random.default_rng(5)
    for label in list(range(len(CLASS_NAMES))) * 2:
        assert render_sign(label, 32, got) == reference_render_sign(label, 32, want)
    assert got.random() == want.random()


@pytest.mark.parametrize("shape", PROBE_SHAPES)
def test_shape_probe_matches_the_reference(shape):
    for seed in range(4):
        img, truth = render_shape_probe(shape, np.random.default_rng(seed))
        want_img, want_truth = reference_shape_probe(shape, np.random.default_rng(seed))
        assert img.pixels.tobytes() == want_img.pixels.tobytes()
        assert truth.dtype == want_truth.dtype and np.array_equal(truth, want_truth)


def test_a_side_change_leaves_no_trace():
    # Renders at 16, then 64, then 16 again equal fresh ones at each side.
    for i, side in enumerate((16, 64, 16)):
        got = render_sign(3, side, np.random.default_rng(i))
        assert got == reference_render_sign(3, side, np.random.default_rng(i))


def test_window_holds_every_pixel_of_its_region():
    # Each layer is tested only inside its window: over the whole frame the
    # region has the same pixels, and none outside the window.
    rng = np.random.default_rng(11)
    regions = [r for _, _, outer, inner, glyphs in synth._LAYERS.values() for r in (outer, inner, *(g for _, g in glyphs)) if r]
    for _ in range(60):
        side = int(rng.integers(16, 97))
        radius = rng.uniform(0.6, 0.9) * side / 2.0
        cx, cy = side / 2.0 + rng.uniform(-0.15, 0.15, size=2) * side
        placement = synth._Placement(side, cx, cy, radius, np.radians(rng.uniform(-10.0, 10.0)))
        cos_dx, sin_dy, neg_sin_dx, cos_dy = placement._terms
        px, py = cos_dx + sin_dy, neg_sin_dx + cos_dy
        for region in regions:
            (rows, cols), sel = placement.inside(region)
            whole = np.zeros((side, side), dtype=bool)
            whole[rows, cols] = sel
            assert np.array_equal(whole, synth._inside(region, px, py))


@pytest.mark.parametrize("reverse", [False, True], ids=["as_listed", "reversed"])
def test_region_tests_match_the_reference_on_their_edges(reverse):
    # A lattice of quarter steps puts many points exactly on an edge or a
    # circle, where >= against > and the winding sign decide.
    px, py = np.meshgrid(np.arange(-6, 7) / 4.0, np.arange(-6, 7) / 4.0)
    for shape, verts in synth._SHAPES.items():
        if verts is not None:
            verts = verts[::-1] if reverse else verts
            assert np.array_equal(synth._inside(synth._convex_region(verts, 0.5), px, py), _in_convex(px, py, verts, 0.5))
    square = np.array([(1.0, 1.0), (-1.0, 1.0), (-1.0, -1.0), (1.0, -1.0)])[:: -1 if reverse else 1]
    assert np.array_equal(synth._inside(synth._convex_region(square), px, py), _in_convex(px, py, square))
    assert np.array_equal(synth._inside(synth._shape_region("circle", 1.0), px, py), _in_shape(px, py, "circle", 1.0))
    bar = ("bar", "black", 0.25, 0.0, 90.0 if reverse else 0.0, 0.5, 0.25)
    assert np.array_equal(synth._inside(synth._glyph_region(bar), px, py), _in_bar(px, py, *bar[2:]))
    dot = ("dot", "black", 0.25, -0.5, 0.5)
    assert np.array_equal(synth._inside(synth._glyph_region(dot), px, py), _in_dot(px, py, *dot[2:]))


def test_seed0_corpus_is_pinned():
    h = hashlib.sha256()
    for img, _, _ in synth_dataset(SynthConfig(seed=0)).items:
        h.update(img.pixels.tobytes())
    assert h.hexdigest() == SEED0_CORPUS_SHA256
