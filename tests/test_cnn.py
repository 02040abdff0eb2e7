"""Classifier forward/backward, training, gradient check, serialization."""

import math
import struct
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import chrono_shield.cnn as cnn_module
from chrono_shield import parallel
from chrono_shield.cnn import (
    BadMagic,
    ChecksumMismatch,
    Classifier,
    EmptyDataset,
    LabelOutOfRange,
    ModelConfig,
    ModelWeights,
    ShapeMismatch,
    TrainConfig,
    VersionUnsupported,
    _softmax,
    evaluate,
    grad_check,
    init_weights,
    load_weights,
    predict_batch,
    save_weights,
    train,
)
from chrono_shield.dataset import LabeledImageSet
from chrono_shield.raster import RasterImage

from _oracles import direct_bilinear, direct_conv3x3, direct_conv3x3_backward, first_max_pool2x2, padded_im2col
from conftest import csw1_container, flat_image, random_image

TINY = ModelConfig(input_side=8, channels=(4, 8, 8), num_classes=2)


def zero_weights(cfg: ModelConfig = ModelConfig()) -> ModelWeights:
    w = init_weights(cfg, seed=0)
    for name in ("conv1_w", "conv1_b", "conv2_w", "conv2_b", "conv3_w", "conv3_b", "fc_w", "fc_b"):
        setattr(w, name, np.zeros_like(getattr(w, name)))
    return w


def toy_brightness_dataset(n_train=40, n_test=10, seed=0) -> LabeledImageSet:
    """Linearly separable two-class set: dark frames vs bright frames."""
    rng = np.random.default_rng(seed)
    ds = LabeledImageSet(class_names=["dark", "bright"])
    for i in range(n_train + n_test):
        value = rng.integers(10, 70) if i % 2 == 0 else rng.integers(180, 245)
        px = np.clip(rng.normal(value, 8, size=(8, 8, 3)), 0, 255).astype(np.uint8)
        split = "train" if i < n_train else "test"
        ds.items.append((RasterImage(px), i % 2, split))
    return ds


# ---------------------------------------------------------------------------
# Configuration and initialization


class TestInit:
    def test_shapes_and_zero_biases(self):
        w = init_weights(ModelConfig(), seed=0)
        assert w.conv1_w.shape == (16, 3, 3, 3)
        assert w.conv2_w.shape == (32, 16, 3, 3)
        assert w.conv3_w.shape == (64, 32, 3, 3)
        assert w.fc_w.shape == (16, 16 * 64)  # (32/8)^2 * 64
        assert not w.conv1_b.any() and not w.fc_b.any()

    def test_he_uniform_bounds(self):
        w = init_weights(ModelConfig(), seed=1)
        limit = math.sqrt(6.0 / (3 * 9))
        assert np.abs(w.conv1_w).max() <= limit

    def test_deterministic_under_seed(self):
        a = init_weights(TINY, seed=7)
        b = init_weights(TINY, seed=7)
        c = init_weights(TINY, seed=8)
        assert np.array_equal(a.conv1_w, b.conv1_w)
        assert not np.array_equal(a.conv1_w, c.conv1_w)

    def test_shape_validation(self):
        w = init_weights(TINY, seed=0)
        with pytest.raises(ShapeMismatch):
            ModelWeights(
                conv1_w=w.conv1_w,
                conv1_b=np.zeros(5, dtype=np.float32),  # wrong width
                conv2_w=w.conv2_w,
                conv2_b=w.conv2_b,
                conv3_w=w.conv3_w,
                conv3_b=w.conv3_b,
                fc_w=w.fc_w,
                fc_b=w.fc_b,
            )

    def test_input_side_must_be_multiple_of_eight(self):
        # The side is read from fc_w: a square grid of 8-pixel cells per channel.
        w = init_weights(TINY, seed=0)
        kw = {n: getattr(w, n) for n in ("conv1_w", "conv1_b", "conv2_w", "conv2_b", "conv3_w", "conv3_b", "fc_b")}
        for cells in (0, 2, 3):
            fc_w = np.zeros((w.num_classes, cells * w.conv3_w.shape[0]), dtype=np.float32)
            with pytest.raises(ShapeMismatch):
                ModelWeights(fc_w=fc_w, **kw)


# ---------------------------------------------------------------------------
# Forward pass


class TestForward:
    def test_uniform_distribution_from_zero_weights(self):
        # All-zero tensors produce all-zero logits: every class gets
        # exactly 1/16 = 0.0625 and the tie resolves to label 0.
        pred = predict_batch(zero_weights(), [flat_image(128, 32, 32)])[0]
        assert pred.label == 0
        assert np.allclose(pred.distribution, 1.0 / 16.0)
        assert pred.confidence == 0.0625

    def test_single_unit_bias_gives_e_over_e_plus_15(self):
        # fc bias of 1.0 on one class, zero weights elsewhere:
        # softmax = e / (e + 15) ~ 0.1534 for that class.
        w = zero_weights()
        b = np.zeros_like(w.fc_b)
        b[3] = 1.0
        w.fc_b = b
        pred = predict_batch(w, [flat_image(128, 32, 32)])[0]
        want = math.e / (math.e + 15.0)
        assert pred.label == 3
        # float32 forward pass: agree with the exact value to ~1e-7.
        assert abs(pred.confidence - want) < 1e-6
        assert round(pred.confidence, 4) == 0.1534

    def test_resizes_input_internally(self, rng):
        pred = predict_batch(init_weights(ModelConfig(), seed=0), [random_image(rng, 64, 48)])[0]
        assert pred.distribution.shape == (16,)

    def test_grayscale_input_replicated(self, rng):
        w = init_weights(TINY, seed=0)
        gray = random_image(rng, 8, 8, channels=1)
        rgb = RasterImage(np.repeat(gray.pixels, 3, axis=2))
        assert predict_batch(w, [gray])[0] == predict_batch(w, [rgb])[0]

    def test_batch_matches_single(self, rng):
        w = init_weights(TINY, seed=2)
        imgs = [random_image(rng, 8, 8) for _ in range(4)]
        batch = predict_batch(w, imgs)
        for img, pred in zip(imgs, batch):
            single = predict_batch(w, [img])[0]
            assert single.label == pred.label
            assert np.allclose(single.distribution, pred.distribution, atol=1e-6)

    def test_classifier_wrapper(self, rng):
        w = init_weights(TINY, seed=0)
        a, b = random_image(rng, 8, 8), random_image(rng, 8, 8)
        assert Classifier(w)([a, b]) == predict_batch(w, [a, b])

    def test_empty_batch(self):
        assert predict_batch(init_weights(TINY, seed=0), []) == []

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_prep_mixed_shapes_keeps_input_order(self, rng, dtype):
        # 64 px RGB frames are resized as one stack, 32 px pass through,
        # gray and odd-sized frames form their own groups.
        shapes = [(64, 64, 3), (32, 32, 3), (64, 64, 3), (64, 64, 1), (37, 53, 3), (64, 64, 3), (32, 32, 3)]
        imgs = [random_image(rng, w, h, channels=c) for h, w, c in shapes]
        batch = cnn_module._prep_images(imgs, 32, dtype=dtype)
        assert batch.shape == (len(imgs), 3, 32, 32) and batch.dtype == dtype
        for img, row in zip(imgs, batch):
            px = direct_bilinear(img.pixels, 32, 32)
            want = np.broadcast_to(px.transpose(2, 0, 1), (3, 32, 32)).astype(dtype) / 255.0
            assert np.array_equal(row, want)
            assert np.array_equal(row, cnn_module._prep_images([img], 32, dtype=dtype)[0])


# ---------------------------------------------------------------------------
# Kernels against direct loops. Small integer inputs keep every sum exact,
# so the comparisons are equality, and values drawn from {0, 1, 2} force
# ties inside most pooling windows.


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
class TestKernels:
    def test_conv_forward(self, rng, dtype):
        x = rng.integers(-2, 3, size=(2, 3, 4, 6)).astype(dtype)
        w = rng.integers(-2, 3, size=(4, 3, 3, 3)).astype(dtype)
        b = rng.integers(-2, 3, size=4).astype(dtype)
        z, _ = cnn_module._conv_forward(x, w, b)
        assert np.array_equal(z, direct_conv3x3(x, w, b))

    def test_conv_backward(self, rng, dtype):
        x = rng.integers(-2, 3, size=(2, 3, 4, 6)).astype(dtype)
        w = rng.integers(-2, 3, size=(4, 3, 3, 3)).astype(dtype)
        dout = rng.integers(-3, 4, size=(2, 4, 4, 6)).astype(dtype)
        _, cols = cnn_module._conv_forward(x, w, np.zeros(4, dtype=dtype))
        want_dx, want_dw, want_db = direct_conv3x3_backward(x, w, dout)
        assert np.array_equal(cnn_module._conv_input_grad(dout, w), want_dx)
        # The weight gradient written one slice of filters at a time is the whole layer's.
        dw = np.empty((4, 27), dtype=dtype)
        for filters in (slice(0, 1), slice(1, 4)):
            cnn_module._conv_weight_grad(dout[:, filters], cols, out=dw[filters])
        assert np.array_equal(dw.reshape(w.shape), want_dw)
        assert np.array_equal(dout.sum(axis=(0, 2, 3)), want_db)  # db as _net_backward takes it

    def test_pool_first_max_wins(self, rng, dtype):
        x = rng.integers(0, 3, size=(2, 3, 6, 8)).astype(dtype)
        dout = rng.integers(1, 10, size=(2, 3, 3, 4)).astype(dtype)
        want_out, want_dx = first_max_pool2x2(x, dout)
        out = cnn_module._pool_forward(x)
        assert out.dtype == dtype and np.array_equal(out, want_out)
        assert np.array_equal(cnn_module._pool_backward(dout, x, out), want_dx)

    def test_pool_relu_mask_at_pooled_size(self, rng, dtype):
        # _net_backward masks the pooled gradient by p > 0 rather than the
        # routed one by r > 0: same bytes, under ties, negative gradients and signed zeros.
        r = np.maximum(rng.integers(-3, 3, size=(3, 4, 8, 10)), 0).astype(dtype)
        p = cnn_module._pool_forward(r)
        dout = rng.normal(size=p.shape).astype(dtype)
        dout.flat[::5] = -0.0
        dout.flat[1::5] = 0.0
        windows = r.reshape(3, 4, 4, 2, 5, 2)
        tied = ((windows == p[:, :, :, None, :, None]).sum(axis=(3, 5)) > 1).mean()
        assert tied > 0.3 and (dout < 0).any() and (np.signbit(dout) & (dout == 0)).any()
        masked = cnn_module._pool_backward(dout * (p > 0), r, p)
        assert masked.tobytes() == (cnn_module._pool_backward(dout, r, p) * (r > 0)).tobytes()
        assert np.array_equal(masked, first_max_pool2x2(r, dout)[1] * (r > 0))

    def test_pool_all_tied_window_routes_to_top_left(self, dtype):
        x = np.ones((1, 1, 2, 2), dtype=dtype)
        dx = cnn_module._pool_backward(np.full((1, 1, 1, 1), 5, dtype=dtype), x, cnn_module._pool_forward(x))
        assert dx[0, 0].tolist() == [[5, 0], [0, 0]]

    # Every batch and side the classifier runs, then frames so thin that
    # a tap's shift passes the whole plane.
    @pytest.mark.parametrize(
        "shape",
        [(n, 3, side, side) for n in (1, 4, 50) for side in (2, 8, 16, 32)]
        + [(2, 2, h, w) for h, w in ((1, 1), (1, 5), (5, 1), (3, 7))],
    )
    def test_im2col_matches_padded_windows(self, rng, dtype, shape):
        x = rng.normal(size=shape).astype(dtype)
        cols = cnn_module._im2col(x)
        assert cols.flags.c_contiguous and cols.dtype == dtype
        assert cols.tobytes() == padded_im2col(x).tobytes()


class TestSoftmax:
    def test_uniform_on_equal_logits(self):
        probs = _softmax(np.zeros((1, 16)))
        assert np.allclose(probs, 1.0 / 16.0)

    @given(st.integers(0, 2**31), st.integers(2, 12))
    @settings(max_examples=50)
    def test_normalized_and_shift_invariant(self, seed, k):
        logits = np.random.default_rng(seed).normal(0, 5, size=(3, k))
        probs = _softmax(logits)
        assert np.all(probs > 0) and np.all(probs < 1)
        assert np.allclose(probs.sum(axis=1), 1.0)
        assert np.allclose(_softmax(logits + 100.0), probs)


# ---------------------------------------------------------------------------
# Training


class TestTraining:
    def test_toy_set_trains_to_high_accuracy(self):
        ds = toy_brightness_dataset()
        w = train(ds, TrainConfig(epochs=8, batch_size=8, seed=0), TINY)
        accuracy, loss = evaluate(w, ds.split("test"))
        assert accuracy >= 0.99
        assert loss < 0.5

    def test_loss_descends_from_init(self):
        ds = toy_brightness_dataset()
        w0 = init_weights(TINY, seed=0)
        w1 = train(ds, TrainConfig(epochs=3, batch_size=8, seed=0), TINY)
        _, loss0 = evaluate(w0, ds.split("train"))
        _, loss1 = evaluate(w1, ds.split("train"))
        assert loss1 < loss0

    def test_zero_learning_rate_keeps_init(self):
        ds = toy_brightness_dataset()
        w = train(ds, TrainConfig(epochs=2, learning_rate=0.0, batch_size=8, seed=3), TINY)
        w0 = init_weights(TINY, seed=3)
        for name in ("conv1_w", "conv2_w", "conv3_w", "fc_w", "fc_b"):
            assert np.array_equal(getattr(w, name), getattr(w0, name))

    def test_deterministic_under_seed(self):
        ds = toy_brightness_dataset()
        a = train(ds, TrainConfig(epochs=2, batch_size=8, seed=5), TINY)
        b = train(ds, TrainConfig(epochs=2, batch_size=8, seed=5), TINY)
        assert np.array_equal(a.fc_w, b.fc_w)

    def test_empty_dataset(self):
        with pytest.raises(EmptyDataset):
            train(LabeledImageSet(class_names=["a"]), TrainConfig(epochs=1), TINY)
        with pytest.raises(EmptyDataset):
            evaluate(init_weights(TINY, seed=0), [])

    def test_label_out_of_range(self):
        ds = LabeledImageSet(class_names=["a", "b", "c"])
        ds.items.append((flat_image(1), 2, "train"))
        with pytest.raises(LabelOutOfRange):
            train(ds, TrainConfig(epochs=1), TINY)  # TINY has 2 classes


# ---------------------------------------------------------------------------
# Both cores in one training step


def blocky_batch(rng, n: int, side: int) -> np.ndarray:
    """Frames of constant 4x4 blocks: interior conv outputs of a block are
    equal, so many pooling windows hold tied maxima."""
    return np.kron(rng.random((n, 3, side // 4, side // 4)), np.ones((4, 4))).astype(np.float32)


class TestBothCores:
    MODEL = ModelConfig(input_side=16, channels=(4, 6, 8), num_classes=3)

    @pytest.mark.parametrize("n", [1, 2, 3, 31, 32])
    def test_net_backward_bytes_match_across_chunk_counts(self, cpus, monkeypatch, rng, n):
        cpus(2)
        w = init_weights(self.MODEL, seed=1)
        logits, cache = cnn_module._net_forward(w, blocky_batch(rng, n, 16), want_cache=True)
        _, r, p = cache[0][0]
        assert (r[..., 0::2, 0::2] == r[..., 1::2, 1::2]).mean() > 0.1  # tied windows
        dlogits = rng.normal(size=logits.shape).astype(np.float32) / n
        grads = {}
        for workers in (1, 2):
            monkeypatch.setattr(parallel, "MAX_WORKERS", workers)
            assert len(cnn_module._chunks(n)) == min(workers, n)
            grads[workers] = cnn_module._net_backward(w, dlogits, cache)
        assert grads[1].keys() == grads[2].keys()
        for name, g in grads[1].items():
            assert g.dtype == np.float32 and g.tobytes() == grads[2][name].tobytes(), name

    def test_train_bytes_match_across_worker_counts(self, cpus, monkeypatch):
        cpus(2)
        ds = toy_brightness_dataset(n_train=45)  # batches of 8 leave a last batch of 5
        config = TrainConfig(epochs=2, batch_size=8, seed=2)
        saved = {}
        for workers in (1, 2):
            monkeypatch.setattr(parallel, "MAX_WORKERS", workers)
            saved[workers] = save_weights(train(ds, config, TINY))
        assert saved[1] == saved[2]

    @pytest.mark.skipif(parallel._openblas() is None, reason="no handle on numpy's bundled OpenBLAS")
    @pytest.mark.parametrize("diverge", [False, True])
    def test_openblas_one_thread_inside_train_and_restored(self, cpus, monkeypatch, diverge):
        cpus(2)
        get, set_ = parallel._openblas()
        before = get()
        set_(2)
        seen = []
        real_backward = cnn_module._net_backward

        def spy(*args):
            seen.append(get())
            grads = real_backward(*args)
            # NaN gradients make the next step's loss NaN, and train raises.
            return {name: g * np.nan for name, g in grads.items()} if diverge else grads

        monkeypatch.setattr(cnn_module, "_net_backward", spy)
        config = TrainConfig(epochs=1, batch_size=8, seed=0)
        try:
            if diverge:
                with np.errstate(invalid="ignore"), pytest.raises(FloatingPointError, match="diverged"):
                    train(toy_brightness_dataset(), config, TINY)
            else:
                train(toy_brightness_dataset(), config, TINY)
            assert seen and set(seen) == {1}
            assert get() == 2
        finally:
            set_(before)


# ---------------------------------------------------------------------------
# Gradient check


class TestGradCheck:
    def test_analytic_matches_finite_differences(self, rng):
        w = init_weights(TINY, seed=0)
        sample = (random_image(rng, 8, 8), 1)
        assert grad_check(w, sample, epsilon=1e-4, max_params=300, seed=0) <= 1e-3

    def test_detects_a_scaled_gradient(self, rng, monkeypatch):
        # Dual-route guard: corrupt the analytic route by 1% on one
        # tensor and the finite-difference route must flag it.
        real_backward = cnn_module._net_backward

        def corrupted(weights, dlogits, cache):
            grads = real_backward(weights, dlogits, cache)
            grads["conv2_w"] = grads["conv2_w"] * 1.01
            return grads

        monkeypatch.setattr(cnn_module, "_net_backward", corrupted)
        w = init_weights(TINY, seed=0)
        sample = (random_image(rng, 8, 8), 0)
        err = grad_check(w, sample, epsilon=1e-4, max_params=400, seed=0)
        assert err > 1e-3

    def test_confident_correct_sample_has_tiny_gradients(self):
        # Drive the true-class probability to ~1: the loss plateau makes
        # every finite difference (and the analytic gradient) vanish.
        w = zero_weights(TINY)
        b = np.zeros_like(w.fc_b)
        b[1] = 50.0
        w.fc_b = b
        err_scale = grad_check(w, (flat_image(128, 8, 8), 1), epsilon=1e-4, max_params=100, seed=0)
        assert err_scale <= 1e-3


# ---------------------------------------------------------------------------
# Serialization


class TestWeightFormat:
    def test_round_trip_exact(self):
        w = init_weights(TINY, seed=4)
        back = load_weights(save_weights(w))
        assert back.input_side == 8
        for name in ("conv1_w", "conv1_b", "conv2_w", "conv2_b", "conv3_w", "conv3_b", "fc_w", "fc_b"):
            assert np.array_equal(getattr(back, name), getattr(w, name)), name

    def test_header_layout(self):
        data = save_weights(init_weights(TINY, seed=0))
        assert data[:4] == b"CSW1"
        assert struct.unpack("<I", data[4:8])[0] == 1  # version
        assert struct.unpack("<I", data[8:12])[0] == 8  # tensor count
        stored = struct.unpack("<I", data[-4:])[0]
        assert stored == zlib.crc32(data[:-4])
        tensors = init_weights(TINY, seed=0).tensors()
        assert data == csw1_container([t.shape for t in tensors], [t.astype("<f4").tobytes() for t in tensors])

    def test_bad_magic(self):
        data = bytearray(save_weights(init_weights(TINY, seed=0)))
        data[:4] = b"XXXX"
        with pytest.raises(BadMagic):
            load_weights(bytes(data))

    def test_unsupported_version(self):
        data = bytearray(save_weights(init_weights(TINY, seed=0)))
        data[4:8] = struct.pack("<I", 2)
        data[-4:] = struct.pack("<I", zlib.crc32(bytes(data[:-4])))
        with pytest.raises(VersionUnsupported):
            load_weights(bytes(data))

    def test_truncation_detected(self):
        data = save_weights(init_weights(TINY, seed=0))
        with pytest.raises(ChecksumMismatch):
            load_weights(data[:-9])

    def test_bit_flip_detected(self):
        data = bytearray(save_weights(init_weights(TINY, seed=0)))
        data[100] ^= 0x01
        with pytest.raises(ChecksumMismatch):
            load_weights(bytes(data))

    def test_trailing_bytes_detected(self):
        data = bytearray(save_weights(init_weights(TINY, seed=0)))
        body = data[:-4] + b"\x00\x00\x00\x00"
        body += struct.pack("<I", zlib.crc32(bytes(body)))
        with pytest.raises(ShapeMismatch):
            load_weights(bytes(body))

    def test_rank_0_tensors_are_shape_mismatch(self):
        # Checked before load_weights reads conv3's and fc's extents.
        with pytest.raises(ShapeMismatch, match="expected rank 4, got 0"):
            load_weights(csw1_container([()] * 8))

    def test_extents_whose_product_wraps_int64_are_shape_mismatch(self):
        # 65536**4 == 2**64 is 0 in int64 arithmetic; its data would overrun.
        shapes = [(65536,) * 4, (1,), (1, 1, 3, 3), (1,), (1, 1, 3, 3), (1,), (1, 1), (1,)]
        with pytest.raises(ShapeMismatch, match="tensor data overruns payload"):
            load_weights(csw1_container(shapes, [b""] * 8))

    @pytest.mark.parametrize(
        "conv3, classes", [(0, 2), (8, 0)], ids=["no-conv3-channels", "no-classes"]
    )
    def test_zero_extent_is_shape_mismatch(self, conv3, classes):
        shapes = [(4, 3, 3, 3), (4,), (8, 4, 3, 3), (8,), (conv3, 8, 3, 3), (conv3,), (classes, conv3), (classes,)]
        with pytest.raises(ShapeMismatch, match="zero extent"):
            load_weights(csw1_container(shapes))

    def test_predictions_survive_round_trip(self, rng):
        w = init_weights(TINY, seed=6)
        img = random_image(rng, 8, 8)
        assert predict_batch(w, [img])[0] == predict_batch(load_weights(save_weights(w)), [img])[0]
