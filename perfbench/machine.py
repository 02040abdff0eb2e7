"""Machine record, GEMM calibration and computed model operation counts.

The calibration times a plain numpy matmul at the shape of the conv2
forward GEMM in training (batch 32), so a later run can tell machine drift
from a code change. Operation counts are computed from ModelConfig, not
measured: they count the multiply-adds of the convolution and fully
connected GEMMs and ignore ReLU, pooling, bias and softmax.
"""

from __future__ import annotations

import ctypes
import os
import platform
import statistics
import time
from pathlib import Path

import numpy as np

# conv2 in training: (32 filters, 16*9 taps) @ (batch 32, 16*9, 16*16 pixels)
_GEMM_FILTERS, _GEMM_TAPS, _GEMM_BATCH, _GEMM_PIXELS = 32, 16 * 9, 32, 16 * 16


def _blas_threads() -> int | None:
    """Thread count reported by the OpenBLAS bundled with numpy, if any."""
    bundled = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(bundled.glob("*openblas*.so*")):
        lib = ctypes.CDLL(str(path))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def machine_record() -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version"), "threads": _blas_threads()},
    }


def gemm_gflops(calls: int = 50) -> float:
    """Median GFLOP/s of float32 matmul at the conv2 training shape."""
    rng = np.random.default_rng(0)
    w = rng.random((_GEMM_FILTERS, _GEMM_TAPS), dtype=np.float32)
    cols = rng.random((_GEMM_BATCH, _GEMM_TAPS, _GEMM_PIXELS), dtype=np.float32)
    flops = 2 * _GEMM_FILTERS * _GEMM_TAPS * _GEMM_BATCH * _GEMM_PIXELS
    np.matmul(w, cols)
    times = []
    for _ in range(calls):
        start = time.perf_counter()
        np.matmul(w, cols)
        times.append(time.perf_counter() - start)
    return flops / statistics.median(times) / 1e9


def forward_flops(cfg) -> int:
    """Computed FLOPs of one image's forward pass through the CNN."""
    side, cin, total = cfg.input_side, 3, 0
    for cout in cfg.channels:
        total += 2 * cin * 9 * cout * side * side
        cin, side = cout, side // 2
    return total + 2 * side * side * cin * cfg.num_classes


def train_flops_per_sample(cfg) -> int:
    """Forward plus backward; each conv and fc layer's weight-gradient GEMM
    and input-gradient GEMM match its forward GEMM in size."""
    return 3 * forward_flops(cfg)
