"""Small convolutional sign classifier, written directly on numpy.

Three conv(3x3, stride 1, pad 1) -> ReLU -> maxpool(2) stages, then a fully
connected layer and softmax. Backprop is hand-derived and checked against
central finite differences; training is plain minibatch SGD with momentum.
Everything is deterministic under the config seed.
"""

from __future__ import annotations

import math
import struct
import zlib
from dataclasses import dataclass

import numpy as np

from .configfile import InvalidConfig
from .dataset import LabeledImageSet
from .parallel import map_in_order, one_blas_thread, worker_count
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

    def __post_init__(self):
        if self.input_side % 8 != 0 or self.input_side < 8:
            raise InvalidConfig(f"input_side must be a positive multiple of 8, got {self.input_side}")
        if len(self.channels) != 3 or min(self.channels) < 1:
            raise InvalidConfig(f"channels must be three positive counts, got {self.channels}")
        if self.num_classes < 1:
            raise InvalidConfig(f"num_classes must be >= 1, got {self.num_classes}")


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 30
    learning_rate: float = 0.01
    momentum: float = 0.9
    batch_size: int = 32
    seed: int = 0

    def __post_init__(self):
        if self.batch_size < 1:
            raise InvalidConfig(f"batch_size must be >= 1, got {self.batch_size}")
        if self.epochs < 0 or self.seed < 0:
            raise InvalidConfig(f"epochs and seed must be >= 0, got {self.epochs}, {self.seed}")


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
_TENSOR_RANKS = (4, 1, 4, 1, 4, 1, 2, 1)


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

    def __post_init__(self):
        c1, c2, c3 = self.conv1_w.shape[0], self.conv2_w.shape[0], self.conv3_w.shape[0]
        cells, rest = divmod(self.fc_w.shape[-1], c3)
        if rest or cells < 1 or math.isqrt(cells) ** 2 != cells:
            raise ShapeMismatch(f"fc_w reads {self.fc_w.shape[-1]} inputs, not a square grid of {c3}-channel cells")
        expect = {
            "conv1_w": (c1, 3, 3, 3),
            "conv1_b": (c1,),
            "conv2_w": (c2, c1, 3, 3),
            "conv2_b": (c2,),
            "conv3_w": (c3, c2, 3, 3),
            "conv3_b": (c3,),
            "fc_w": (self.fc_w.shape[0], cells * c3),
            "fc_b": (self.fc_w.shape[0],),
        }
        for name, shape in expect.items():
            got = getattr(self, name).shape
            if got != shape:
                raise ShapeMismatch(f"{name}: expected shape {shape}, got {got}")

    @property
    def input_side(self) -> int:
        """The frame side the fc layer reads: 8 pixels a cell, cells a square grid."""
        return 8 * math.isqrt(self.fc_w.shape[1] // self.conv3_w.shape[0])

    @property
    def num_classes(self) -> int:
        return self.fc_b.shape[0]

    def tensors(self) -> list[np.ndarray]:
        return [getattr(self, name) for name in _TENSOR_ORDER]

    def astype(self, dtype) -> "ModelWeights":
        return ModelWeights(**{name: getattr(self, name).astype(dtype) for name in _TENSOR_ORDER})


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
    )


# ---------------------------------------------------------------------------
# Forward / backward


def _im2col(x: np.ndarray) -> np.ndarray:
    """x (N, C, H, W) -> (N, C*9, H*W) for a 3x3 kernel, stride 1, pad 1.

    Row (c, k) holds tap k = 3*dy + dx, the plane read at (y+dy-1, x+dx-1),
    zero where that falls outside the frame. Each tap is one flat copy of
    the (N, C, H*W) planes shifted by (dy-1)*W + dx-1; the shift leaves
    the rows shifted in, and wraps one column for a side tap, so those
    are zeroed.
    """
    n, c, h, w = x.shape
    hw = h * w
    planes = x.reshape(n, c, hw)
    cols = np.empty((n, c, 9, hw), dtype=x.dtype)
    for k in range(9):
        sx = k % 3 - 1
        s = (k // 3 - 1) * w + sx
        tap = cols[:, :, k]
        m = max(hw - abs(s), 0)  # pixels whose shifted read stays in the planes
        if s >= 0:
            tap[..., :m] = planes[..., hw - m :]
            tap[..., m:] = 0
        else:
            tap[..., hw - m :] = planes[..., :m]
            tap[..., : hw - m] = 0
        if sx:
            tap.reshape(n, c, h, w)[..., 0 if sx < 0 else w - 1] = 0
    return cols.reshape(n, c * 9, hw)


def _tap_slices(d: int, size: int) -> tuple[slice, slice]:
    # Positions i with i + d in [0, size): (slice of i + d, slice of i).
    return slice(max(d, 0), size + min(d, 0)), slice(max(-d, 0), size - max(d, 0))


def _col2im(dcols: np.ndarray, shape: tuple[int, int, int, int]) -> np.ndarray:
    # Adjoint of _im2col: tap (dy, dx) read x[y+dy-1, x+dx-1]; taps that
    # read the zero padding get no gradient.
    n, c, h, w = shape
    dc = dcols.reshape(n, c, 9, h, w)
    dx = np.zeros(shape, dtype=dcols.dtype)
    for k in range(9):
        (oy, iy), (ox, ix) = _tap_slices(k // 3 - 1, h), _tap_slices(k % 3 - 1, w)
        dx[:, :, oy, ox] += dc[:, :, k, iy, ix]
    return dx


def _conv_forward(x, w, b):
    n, c, h, width = x.shape
    f = w.shape[0]
    cols = _im2col(x)
    w2 = w.reshape(f, c * 9)
    out = w2 @ cols
    out += b[:, None]
    return out.reshape(n, f, h, width), cols


def _conv_input_grad(dz, w):
    """Gradient of a conv layer's input: the adjoint GEMM, then _col2im."""
    n, f, h, width = dz.shape
    dcols = w.reshape(f, -1).T @ dz.reshape(n, f, h * width)
    return _col2im(dcols, (n, w.shape[1], h, width))


def _conv_weight_grad(dz, cols, out):
    """Gradient of a conv layer's weights as (f, c*9), written to out; dz
    may hold any slice of the filter axis, and out is that slice's rows."""
    n, f, h, width = dz.shape
    return np.einsum("nfp,ncp->fc", dz.reshape(n, f, h * width), cols, out=out)


def _pool_forward(x):
    """2x2 max-pool, stride 2: the max of row pairs, then of column pairs."""
    rows = np.maximum(x[..., 0::2, :], x[..., 1::2, :])
    return np.maximum(rows[..., 0::2], rows[..., 1::2])


def _pool_backward(dout, r, p, out=None):
    """Route each pooled gradient to its window's max in r; on ties the
    first phase in row-major window order wins, so exactly one input does."""
    dr = np.empty(r.shape, dtype=dout.dtype) if out is None else out
    dr.fill(0)
    taken = np.zeros(p.shape, dtype=bool)
    for dy, dx in ((0, 0), (0, 1), (1, 0), (1, 1)):
        hit = (r[..., dy::2, dx::2] == p) & ~taken
        np.copyto(dr[..., dy::2, dx::2], dout, where=hit)
        taken |= hit
    return dr


def _net_forward(weights: ModelWeights, x: np.ndarray, want_cache: bool = False):
    caches = []
    a = x
    for wname, bname in (("conv1_w", "conv1_b"), ("conv2_w", "conv2_b"), ("conv3_w", "conv3_b")):
        w, b = getattr(weights, wname), getattr(weights, bname)
        z, cols = _conv_forward(a, w, b)
        r = np.maximum(z, 0, out=z)
        p = _pool_forward(r)
        if want_cache:
            caches.append((cols, r, p))
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


def _chunks(size: int) -> list[slice]:
    """worker_count(size) contiguous slices that cover range(size)."""
    k = worker_count(size)
    bounds = [size * i // k for i in range(k + 1)]
    return [slice(lo, hi) for lo, hi in zip(bounds, bounds[1:])]


def _net_backward(weights: ModelWeights, dlogits: np.ndarray, cache):
    """Parameter gradients of one batch, on one chunk per worker.

    The per-sample chain (pool backward, input gradient) runs on batch
    chunks, and each layer's weight gradient on chunks of its filter axis.
    No sum crosses a chunk, so the bytes do not depend on the chunk count.
    """
    caches, flat, pooled_shape = cache
    grads = {}
    grads["fc_w"] = dlogits.T @ flat
    grads["fc_b"] = dlogits.sum(axis=0)
    da = (dlogits @ weights.fc_w).reshape(pooled_shape)
    conv_w = [weights.conv1_w, weights.conv2_w, weights.conv3_w]
    dz = [np.empty(r.shape, dtype=da.dtype) for _, r, _ in caches]
    dw = [np.empty((len(w), w[0].size), dtype=da.dtype) for w in conv_w]

    def chain(rows):
        d = da[rows]
        for i in (2, 1, 0):
            _, r, p = caches[i]
            # The ReLU mask at pooled size: r = max(z, 0), so a window's max
            # is positive exactly where the z it routes to is.
            _pool_backward(d * (p[rows] > 0), r[rows], p[rows], out=dz[i][rows])
            if i:  # nothing reads the gradient of the input image, so conv1 skips it
                d = _conv_input_grad(dz[i][rows], conv_w[i])

    def weight_grad(job):
        i, filters = job
        cols = caches[i][0]
        _conv_weight_grad(dz[i][:, filters], cols, out=dw[i][filters])

    map_in_order(chain, _chunks(len(da)))
    # The largest layer first, so the workers finish together.
    map_in_order(weight_grad, [(i, filters) for i in (2, 1, 0) for filters in _chunks(len(conv_w[i]))])
    for i, w in enumerate(conv_w, 1):
        grads[f"conv{i}_w"] = dw[i - 1].reshape(w.shape)
        grads[f"conv{i}_b"] = dz[i - 1].sum(axis=(0, 2, 3))
    return grads


def _prep_images(images, side: int, dtype=np.float32) -> np.ndarray:
    """Stack RasterImages into (N, 3, side, side) scaled to [0, 1].

    Frames of one pixel shape are resized as one stack; gray frames fill
    all three channels.
    """
    groups: dict[tuple[int, int, int], list[int]] = {}
    for i, img in enumerate(images):
        groups.setdefault(img.pixels.shape, []).append(i)
    batch = np.empty((len(images), 3, side, side), dtype=dtype)
    for (h, w, _), rows in groups.items():
        px = np.stack([images[i].pixels for i in rows])
        if (h, w) != (side, side):
            px = resize_bilinear(px, side, side)
        batch[rows] = px.transpose(0, 3, 1, 2).astype(dtype) / 255.0
    return batch


def predict_batch(weights: ModelWeights, images: list[RasterImage]) -> list[Prediction]:
    """Classify RGB or gray frames (resized internally to the model's input side)."""
    if not images:
        return []
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


@one_blas_thread()
def train(
    dataset: LabeledImageSet,
    config: TrainConfig = TrainConfig(),
    model: ModelConfig = ModelConfig(),
) -> ModelWeights:
    """Minibatch SGD with momentum over the dataset's train split.

    OpenBLAS runs one thread for the whole call: each backward pass splits
    its work over both cores itself (_net_backward).
    """
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
        return _xent_loss_and_grad(_net_forward(w, x), y)[0]

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
    for name, want in zip(_TENSOR_ORDER, _TENSOR_RANKS):
        if pos + 1 > end:
            raise ShapeMismatch("tensor table overruns payload")
        (rank,) = struct.unpack("<B", data[pos : pos + 1])
        pos += 1
        if rank != want:
            raise ShapeMismatch(f"{name}: expected rank {want}, got {rank}")
        if pos + 4 * rank > end:
            raise ShapeMismatch("tensor shape overruns payload")
        shape = struct.unpack(f"<{rank}I", data[pos : pos + 4 * rank])
        pos += 4 * rank
        if 0 in shape:
            raise ShapeMismatch(f"{name}: zero extent in {shape}")
        size = math.prod(shape)
        if pos + 4 * size > end:
            raise ShapeMismatch("tensor data overruns payload")
        arr = np.frombuffer(data[pos : pos + 4 * size], dtype="<f4").reshape(shape)
        pos += 4 * size
        tensors.append(arr.astype(np.float32))
    if pos != end:
        raise ShapeMismatch("trailing bytes after tensor table")
    return ModelWeights(**dict(zip(_TENSOR_ORDER, tensors)))
