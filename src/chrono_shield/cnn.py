"""Small convolutional sign classifier, written directly on numpy.

Three conv(3x3, stride 1, pad 1) -> ReLU -> maxpool(2) stages, then a fully
connected layer and softmax. Backprop is hand-derived and checked against
central finite differences; training is plain minibatch SGD with momentum.
Everything is deterministic under the config seed.
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass, field

import numpy as np

from .dataset import LabeledImageSet
from .raster import RasterImage, resize_bilinear


class ShapeMismatch(ValueError):
    """Tensor shapes do not chain into a valid network."""


class EmptyDataset(ValueError):
    pass


class LabelOutOfRange(ValueError):
    pass


class BadMagic(ValueError):
    pass


class VersionUnsupported(ValueError):
    pass


class ChecksumMismatch(ValueError):
    pass


@dataclass(frozen=True)
class ModelConfig:
    input_side: int = 32
    channels: tuple[int, int, int] = (16, 32, 64)
    num_classes: int = 16


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 30
    learning_rate: float = 0.01
    momentum: float = 0.9
    batch_size: int = 32
    seed: int = 0


@dataclass(frozen=True, eq=False)
class Prediction:
    label: int
    confidence: float
    distribution: np.ndarray

    def __eq__(self, other) -> bool:
        if not isinstance(other, Prediction):
            return NotImplemented
        return (
            self.label == other.label
            and self.confidence == other.confidence
            and bool(np.array_equal(self.distribution, other.distribution))
        )


_TENSOR_ORDER = ("conv1_w", "conv1_b", "conv2_w", "conv2_b", "conv3_w", "conv3_b", "fc_w", "fc_b")


@dataclass
class ModelWeights:
    conv1_w: np.ndarray
    conv1_b: np.ndarray
    conv2_w: np.ndarray
    conv2_b: np.ndarray
    conv3_w: np.ndarray
    conv3_b: np.ndarray
    fc_w: np.ndarray
    fc_b: np.ndarray
    input_side: int = 32

    def __post_init__(self):
        c1, c2, c3 = self.conv1_w.shape[0], self.conv2_w.shape[0], self.conv3_w.shape[0]
        side = self.input_side
        if side % 8 != 0 or side < 8:
            raise ShapeMismatch(f"input side must be a positive multiple of 8, got {side}")
        expect = {
            "conv1_w": (c1, 3, 3, 3),
            "conv1_b": (c1,),
            "conv2_w": (c2, c1, 3, 3),
            "conv2_b": (c2,),
            "conv3_w": (c3, c2, 3, 3),
            "conv3_b": (c3,),
            "fc_w": (self.fc_w.shape[0], (side // 8) ** 2 * c3),
            "fc_b": (self.fc_w.shape[0],),
        }
        for name, shape in expect.items():
            got = getattr(self, name).shape
            if got != shape:
                raise ShapeMismatch(f"{name}: expected shape {shape}, got {got}")

    @property
    def num_classes(self) -> int:
        return self.fc_b.shape[0]

    def tensors(self) -> list[np.ndarray]:
        return [getattr(self, name) for name in _TENSOR_ORDER]

    def astype(self, dtype) -> "ModelWeights":
        kw = {name: getattr(self, name).astype(dtype) for name in _TENSOR_ORDER}
        return ModelWeights(input_side=self.input_side, **kw)


def init_weights(cfg: ModelConfig = ModelConfig(), seed: int = 0) -> ModelWeights:
    """He-style uniform init (limit sqrt(6/fan_in)), zero biases, seeded."""
    rng = np.random.default_rng(seed)
    c1, c2, c3 = cfg.channels

    def he(shape, fan_in):
        limit = np.sqrt(6.0 / fan_in)
        return rng.uniform(-limit, limit, size=shape).astype(np.float32)

    flat = (cfg.input_side // 8) ** 2 * c3
    return ModelWeights(
        conv1_w=he((c1, 3, 3, 3), 3 * 9),
        conv1_b=np.zeros(c1, dtype=np.float32),
        conv2_w=he((c2, c1, 3, 3), c1 * 9),
        conv2_b=np.zeros(c2, dtype=np.float32),
        conv3_w=he((c3, c2, 3, 3), c2 * 9),
        conv3_b=np.zeros(c3, dtype=np.float32),
        fc_w=he((cfg.num_classes, flat), flat),
        fc_b=np.zeros(cfg.num_classes, dtype=np.float32),
        input_side=cfg.input_side,
    )


# ---------------------------------------------------------------------------
# Forward / backward


def _im2col(x: np.ndarray) -> np.ndarray:
    # x (N, C, H, W) -> (N, C*9, H*W) for a 3x3 kernel, stride 1, pad 1.
    n, c, h, w = x.shape
    xp = np.pad(x, ((0, 0), (0, 0), (1, 1), (1, 1)))
    cols = np.empty((n, c, 9, h, w), dtype=x.dtype)
    for k in range(9):
        dy, dx = divmod(k, 3)
        cols[:, :, k] = xp[:, :, dy : dy + h, dx : dx + w]
    return cols.reshape(n, c * 9, h * w)


def _col2im(dcols: np.ndarray, shape: tuple[int, int, int, int]) -> np.ndarray:
    n, c, h, w = shape
    dc = dcols.reshape(n, c, 9, h, w)
    dxp = np.zeros((n, c, h + 2, w + 2), dtype=dcols.dtype)
    for k in range(9):
        dy, dx = divmod(k, 3)
        dxp[:, :, dy : dy + h, dx : dx + w] += dc[:, :, k]
    return dxp[:, :, 1 : 1 + h, 1 : 1 + w]


def _conv_forward(x, w, b):
    n, c, h, width = x.shape
    f = w.shape[0]
    cols = _im2col(x)
    w2 = w.reshape(f, c * 9)
    out = (w2 @ cols).reshape(n, f, h, width) + b[None, :, None, None]
    return out, cols


def _conv_backward(dout, cols, w, x_shape):
    n, c, h, width = x_shape
    f = w.shape[0]
    dflat = dout.reshape(n, f, h * width)
    dw = np.einsum("nfp,ncp->fc", dflat, cols).reshape(w.shape)
    db = dout.sum(axis=(0, 2, 3))
    dcols = w.reshape(f, c * 9).T @ dflat
    return _col2im(dcols, x_shape), dw, db


def _pool_forward(x):
    n, c, h, w = x.shape
    xr = x.reshape(n, c, h // 2, 2, w // 2, 2)
    windows = xr.transpose(0, 1, 2, 4, 3, 5).reshape(n, c, h // 2, w // 2, 4)
    idx = windows.argmax(axis=-1)  # first max wins on ties
    out = np.take_along_axis(windows, idx[..., None], axis=-1)[..., 0]
    return out, idx


def _pool_backward(dout, idx, x_shape):
    n, c, h, w = x_shape
    dwin = np.zeros((n, c, h // 2, w // 2, 4), dtype=dout.dtype)
    np.put_along_axis(dwin, idx[..., None], dout[..., None], axis=-1)
    return dwin.reshape(n, c, h // 2, w // 2, 2, 2).transpose(0, 1, 2, 4, 3, 5).reshape(n, c, h, w)


def _net_forward(weights: ModelWeights, x: np.ndarray, want_cache: bool = False):
    caches = []
    a = x
    for wname, bname in (("conv1_w", "conv1_b"), ("conv2_w", "conv2_b"), ("conv3_w", "conv3_b")):
        w, b = getattr(weights, wname), getattr(weights, bname)
        z, cols = _conv_forward(a, w, b)
        r = np.maximum(z, 0)
        p, idx = _pool_forward(r)
        if want_cache:
            caches.append((a.shape, cols, z, r.shape, idx))
        a = p
    n = a.shape[0]
    flat = a.reshape(n, -1)
    logits = flat @ weights.fc_w.T + weights.fc_b
    if want_cache:
        return logits, (caches, flat, a.shape)
    return logits


def _softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def _net_backward(weights: ModelWeights, dlogits: np.ndarray, cache):
    caches, flat, pooled_shape = cache
    grads = {}
    grads["fc_w"] = dlogits.T @ flat
    grads["fc_b"] = dlogits.sum(axis=0)
    da = (dlogits @ weights.fc_w).reshape(pooled_shape)
    for layer in (3, 2, 1):
        x_shape, cols, z, r_shape, idx = caches[layer - 1]
        dr = _pool_backward(da, idx, r_shape)
        dz = dr * (z > 0)
        w = getattr(weights, f"conv{layer}_w")
        da, dw, db = _conv_backward(dz, cols, w, x_shape)
        grads[f"conv{layer}_w"] = dw
        grads[f"conv{layer}_b"] = db
    return grads


def _prep_images(images, side: int, dtype=np.float32) -> np.ndarray:
    """Stack RasterImages into (N, 3, side, side) scaled to [0, 1]."""
    batch = np.empty((len(images), 3, side, side), dtype=dtype)
    for i, img in enumerate(images):
        if img.width != side or img.height != side:
            img = resize_bilinear(img, side, side)
        px = img.pixels
        if px.shape[2] == 1:
            px = np.repeat(px, 3, axis=2)
        batch[i] = px.transpose(2, 0, 1).astype(dtype) / 255.0
    return batch


def predict_batch(weights: ModelWeights, images: list[RasterImage]) -> list[Prediction]:
    """Classify RGB or gray frames (resized internally to the model's input side)."""
    x = _prep_images(images, weights.input_side, dtype=weights.conv1_w.dtype)
    probs = _softmax(_net_forward(weights, x))
    if not np.isfinite(probs).all():
        raise FloatingPointError("non-finite values in class distribution")
    out = []
    for row in probs:
        label = int(row.argmax())  # lowest index wins ties
        out.append(Prediction(label=label, confidence=float(row[label]), distribution=row.astype(np.float64)))
    return out


class Classifier:
    """The model as a black-box victim: frames in, one Prediction per frame."""

    def __init__(self, weights: ModelWeights):
        self.weights = weights

    def __call__(self, images: list[RasterImage]) -> list[Prediction]:
        # Resolved at call time, so a tracer that rebinds cnn.predict_batch sees every query.
        return predict_batch(self.weights, images)


# ---------------------------------------------------------------------------
# Training


def _xent_loss_and_grad(logits: np.ndarray, labels: np.ndarray):
    probs = _softmax(logits)
    n = logits.shape[0]
    eps = np.finfo(logits.dtype).tiny
    loss = float(-np.log(probs[np.arange(n), labels] + eps).mean())
    dlogits = probs
    dlogits[np.arange(n), labels] -= 1.0
    return loss, dlogits / n


def train(
    dataset: LabeledImageSet,
    config: TrainConfig = TrainConfig(),
    model: ModelConfig = ModelConfig(),
) -> ModelWeights:
    """Minibatch SGD with momentum over the dataset's train split."""
    items = dataset.split("train")
    if not items:
        raise EmptyDataset("no training items")
    for _, label in items:
        if not 0 <= label < model.num_classes:
            raise LabelOutOfRange(f"label {label} outside [0, {model.num_classes})")
    x = _prep_images([img for img, _ in items], model.input_side)
    y = np.array([label for _, label in items], dtype=np.int64)

    weights = init_weights(model, seed=config.seed)
    velocity = {name: np.zeros_like(getattr(weights, name)) for name in _TENSOR_ORDER}
    rng = np.random.default_rng(config.seed)
    n = len(items)
    for _ in range(config.epochs):
        order = rng.permutation(n)
        for start in range(0, n, config.batch_size):
            sel = order[start : start + config.batch_size]
            logits, cache = _net_forward(weights, x[sel], want_cache=True)
            loss, dlogits = _xent_loss_and_grad(logits, y[sel])
            if not np.isfinite(loss):
                raise FloatingPointError("training loss diverged")
            grads = _net_backward(weights, dlogits.astype(np.float32), cache)
            for name in _TENSOR_ORDER:
                v = velocity[name]
                v *= config.momentum
                v -= config.learning_rate * grads[name]
                setattr(weights, name, getattr(weights, name) + v)
    return weights


def evaluate(weights: ModelWeights, items: list[tuple[RasterImage, int]], batch_size: int = 64):
    """(accuracy, mean cross-entropy loss) over labeled items."""
    if not items:
        raise EmptyDataset("nothing to evaluate")
    correct = 0
    losses = []
    for start in range(0, len(items), batch_size):
        chunk = items[start : start + batch_size]
        x = _prep_images([img for img, _ in chunk], weights.input_side, dtype=weights.conv1_w.dtype)
        y = np.array([label for _, label in chunk], dtype=np.int64)
        logits = _net_forward(weights, x)
        probs = _softmax(logits)
        eps = np.finfo(logits.dtype).tiny
        losses.extend((-np.log(probs[np.arange(len(chunk)), y] + eps)).tolist())
        correct += int((logits.argmax(axis=1) == y).sum())
    return correct / len(items), float(np.mean(losses))


# ---------------------------------------------------------------------------
# Gradient check


def grad_check(
    weights: ModelWeights,
    sample: tuple[RasterImage, int],
    epsilon: float = 1e-4,
    max_params: int = 500,
    seed: int = 0,
) -> float:
    """Max relative error between analytic and central-difference gradients.

    Runs in float64 over a random subsample of at least min(max_params,
    total) parameters spread across every tensor.
    """
    img, label = sample
    w64 = weights.astype(np.float64)
    x = _prep_images([img], w64.input_side, dtype=np.float64)
    y = np.array([label], dtype=np.int64)

    logits, cache = _net_forward(w64, x, want_cache=True)
    _, dlogits = _xent_loss_and_grad(logits, y)
    grads = _net_backward(w64, dlogits, cache)

    def loss_at(w):
        lg = _net_forward(w, x)
        probs = _softmax(lg)
        return float(-np.log(probs[0, label] + np.finfo(np.float64).tiny))

    rng = np.random.default_rng(seed)
    sizes = [getattr(w64, name).size for name in _TENSOR_ORDER]
    total = sum(sizes)
    n_check = min(max_params, total)
    flat_idx = rng.choice(total, size=n_check, replace=False)

    worst = 0.0
    bounds = np.cumsum([0] + sizes)
    for fi in sorted(flat_idx.tolist()):
        t = int(np.searchsorted(bounds, fi, side="right") - 1)
        name = _TENSOR_ORDER[t]
        local = fi - bounds[t]
        tensor = getattr(w64, name)
        orig = tensor.flat[local]
        tensor.flat[local] = orig + epsilon
        hi = loss_at(w64)
        tensor.flat[local] = orig - epsilon
        lo = loss_at(w64)
        tensor.flat[local] = orig
        numeric = (hi - lo) / (2 * epsilon)
        analytic = grads[name].flat[local]
        denom = max(abs(numeric), abs(analytic), 1e-8)
        worst = max(worst, abs(numeric - analytic) / denom)
    return worst


# ---------------------------------------------------------------------------
# Weight serialization

WEIGHT_MAGIC = b"CSW1"
WEIGHT_VERSION = 1


def save_weights(weights: ModelWeights) -> bytes:
    """Pack tensors into the CSW1 container (little-endian, CRC32 trailer)."""
    out = bytearray()
    out += WEIGHT_MAGIC
    out += struct.pack("<I", WEIGHT_VERSION)
    tensors = weights.tensors()
    out += struct.pack("<I", len(tensors))
    for t in tensors:
        out += struct.pack("<B", t.ndim)
        out += struct.pack(f"<{t.ndim}I", *t.shape)
        out += t.astype("<f4").tobytes()
    out += struct.pack("<I", zlib.crc32(bytes(out)))
    return bytes(out)


def load_weights(data: bytes) -> ModelWeights:
    if data[:4] != WEIGHT_MAGIC:
        raise BadMagic(f"expected {WEIGHT_MAGIC!r}, got {data[:4]!r}")
    if len(data) < 16:
        raise ChecksumMismatch("weight payload truncated")
    (version,) = struct.unpack("<I", data[4:8])
    if version != WEIGHT_VERSION:
        raise VersionUnsupported(f"unsupported weight format version {version}")
    stored_crc = struct.unpack("<I", data[-4:])[0]
    if zlib.crc32(data[:-4]) != stored_crc:
        raise ChecksumMismatch("weight payload fails CRC32")
    (count,) = struct.unpack("<I", data[8:12])
    if count != len(_TENSOR_ORDER):
        raise ShapeMismatch(f"expected {len(_TENSOR_ORDER)} tensors, got {count}")
    pos = 12
    end = len(data) - 4
    tensors = []
    for _ in range(count):
        if pos + 1 > end:
            raise ShapeMismatch("tensor table overruns payload")
        (rank,) = struct.unpack("<B", data[pos : pos + 1])
        pos += 1
        if pos + 4 * rank > end:
            raise ShapeMismatch("tensor shape overruns payload")
        shape = struct.unpack(f"<{rank}I", data[pos : pos + 4 * rank])
        pos += 4 * rank
        size = int(np.prod(shape, dtype=np.int64)) if rank else 1
        if pos + 4 * size > end:
            raise ShapeMismatch("tensor data overruns payload")
        arr = np.frombuffer(data[pos : pos + 4 * size], dtype="<f4").reshape(shape)
        pos += 4 * size
        tensors.append(arr.astype(np.float32))
    if pos != end:
        raise ShapeMismatch("trailing bytes after tensor table")
    c3 = tensors[4].shape[0]
    fc_in = tensors[6].shape[1]
    if fc_in % c3 != 0:
        raise ShapeMismatch("fc input dim is not a multiple of conv3 channels")
    cells = fc_in // c3
    side = 8 * int(round(np.sqrt(cells)))
    kw = dict(zip(_TENSOR_ORDER, tensors))
    return ModelWeights(input_side=side, **kw)
