"""Classifier forward/backward, training, gradient check, serialization."""

import math
import struct
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import chrono_shield.cnn as cnn_module
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

from conftest import flat_image, random_image

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
                input_side=8,
            )

    def test_input_side_must_be_multiple_of_eight(self):
        w = init_weights(TINY, seed=0)
        kw = {n: getattr(w, n) for n in ("conv1_w", "conv1_b", "conv2_w", "conv2_b", "conv3_w", "conv3_b", "fc_w", "fc_b")}
        with pytest.raises(ShapeMismatch):
            ModelWeights(input_side=12, **kw)


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

    def test_predictions_survive_round_trip(self, rng):
        w = init_weights(TINY, seed=6)
        img = random_image(rng, 8, 8)
        assert predict_batch(w, [img])[0] == predict_batch(load_weights(save_weights(w)), [img])[0]
