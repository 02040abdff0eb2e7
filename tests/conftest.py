import math
import os
import struct
import threading
import zlib

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from chrono_shield.fixture_server import THREAD_NAME
from chrono_shield.raster import RasterImage

settings.register_profile(
    "default",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
settings.load_profile("default")


@pytest.fixture
def rng():
    return np.random.default_rng(0)


@pytest.fixture(autouse=True)
def no_fixture_server_thread_left():
    """Fail a test that leaves a HistoryFixtureServer thread alive: stop()
    must end every connection handler, idle kept-alive ones included."""
    before = set(threading.enumerate())
    yield
    left = [t.name for t in threading.enumerate() if t.name.startswith(THREAD_NAME) and t not in before]
    assert not left, f"fixture-server threads still alive after the test: {left}"


@pytest.fixture
def cpus(monkeypatch):
    """cpus(n) makes this process see n CPUs, which sets parallel.map_in_order's worker count."""

    def set_cpus(n: int) -> None:
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))

    return set_cpus


def csw1_container(shapes, payloads=None) -> bytes:
    """A CRC-valid CSW1 weight file written field by field: one tensor per
    extents tuple, its data zeros unless payloads gives the bytes."""
    if payloads is None:
        payloads = [bytes(4 * math.prod(shape)) for shape in shapes]
    body = b"CSW1" + struct.pack("<II", 1, len(shapes))
    for shape, payload in zip(shapes, payloads):
        body += struct.pack(f"<B{len(shape)}I", len(shape), *shape) + payload
    return body + struct.pack("<I", zlib.crc32(body))


def flat_image(value: int, width: int = 8, height: int = 8, channels: int = 3) -> RasterImage:
    return RasterImage(np.full((height, width, channels), value, dtype=np.uint8))


def random_image(rng: np.random.Generator, width: int, height: int, channels: int = 3) -> RasterImage:
    return RasterImage(rng.integers(0, 256, size=(height, width, channels), dtype=np.uint8))
