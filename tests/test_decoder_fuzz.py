"""Byte-mutation fuzzing of the three untrusted binary formats.

Each mutant of a valid PNG, PPM or CSW1 file must either decode or raise
its module's typed ValueError subclasses, and decoding must stay within a
memory bound set by MAX_PNG_PIXELS whatever sizes the mutant declares.
Checksums are re-sealed after mutating, so the mutants reach the parsers
behind the CRC checks instead of stopping at them.
"""

import struct
import tracemalloc
import zlib

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from chrono_shield import cnn
from chrono_shield.codecs import (
    MAX_PNG_PIXELS,
    PNG_SIGNATURE,
    MalformedFile,
    UnsupportedVariant,
    _png_chunk,
    decode_image,
    encode_image,
)
from chrono_shield.raster import RasterImage

from conftest import random_image

# The largest buffer a valid decode needs: an RGB frame of MAX_PNG_PIXELS
# plus its filter bytes.
MEMORY_BOUND = 4 * MAX_PNG_PIXELS

CODEC_ERRORS = (MalformedFile, UnsupportedVariant)
WEIGHT_ERRORS = (cnn.BadMagic, cnn.VersionUnsupported, cnn.ChecksumMismatch, cnn.ShapeMismatch)


def _seed_image(channels: int) -> RasterImage:
    return random_image(np.random.default_rng(channels), 5, 4, channels=channels)


SEEDS = {
    "png-rgb": encode_image(_seed_image(3), "png"),
    "png-gray": encode_image(_seed_image(1), "png"),
    "ppm": encode_image(_seed_image(3), "ppm"),
    "pgm": encode_image(_seed_image(1), "pgm"),
    "csw1": cnn.save_weights(cnn.init_weights(cnn.ModelConfig(input_side=8, channels=(2, 2, 2), num_classes=3))),
}

# One edit: (kind, position, byte value). A position is a fraction of the
# length, or an offset into the first 32 bytes, where every format keeps
# the sizes it declares. "digits" inserts a run of nines, which in a PNM
# header makes a number large.
edits = st.tuples(
    st.sampled_from(["set", "xor", "insert", "delete", "truncate", "digits"]),
    st.one_of(st.floats(0.0, 1.0, exclude_max=True), st.integers(0, 31)),
    st.integers(0, 255),
)


def mutate(data: bytes, ops) -> bytes:
    out = bytearray(data)
    for kind, where, value in ops:
        if not out:
            break
        i = min(where, len(out) - 1) if isinstance(where, int) else int(where * len(out))
        if kind == "set":
            out[i] = value
        elif kind == "xor":
            out[i] ^= value or 1
        elif kind == "insert":
            out[i:i] = bytes([value])
        elif kind == "delete":
            del out[i]
        elif kind == "digits":
            out[i:i] = b"9" * (1 + value % 9)
        else:
            del out[i:]
    return bytes(out)


def reseal_png(data: bytes) -> bytes:
    """Recompute each chunk's CRC as far as the chunk lengths still parse."""
    out = bytearray(data)
    pos = len(PNG_SIGNATURE)
    while pos + 8 <= len(out):
        (length,) = struct.unpack(">I", out[pos : pos + 4])
        end = pos + 8 + length
        if end + 4 > len(out):
            break
        out[end : end + 4] = struct.pack(">I", zlib.crc32(bytes(out[pos + 4 : end])))
        pos = end + 4
    return bytes(out)


def mutate_scanlines(data: bytes, ops) -> bytes:
    """The PNG with ops applied to its inflated IDAT (filter bytes and
    samples), deflated again into one resealed IDAT chunk."""
    ihdr = data[16:29]
    idat_len = struct.unpack(">I", data[33:37])[0]
    lines = zlib.decompress(data[41 : 41 + idat_len])
    body = _png_chunk(b"IHDR", ihdr) + _png_chunk(b"IDAT", zlib.compress(mutate(lines, ops)))
    return PNG_SIGNATURE + body + _png_chunk(b"IEND", b"")


def reseal_csw1(data: bytes) -> bytes:
    if len(data) < 8:
        return data
    return data[:-4] + struct.pack("<I", zlib.crc32(data[:-4]))


def decode_within_bound(decode, data: bytes, errors) -> None:
    tracemalloc.start()
    try:
        decode(data)
    except errors:
        pass
    finally:
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
    assert peak <= MEMORY_BOUND


@given(
    fmt=st.sampled_from(["png-rgb", "png-gray"]),
    ops=st.lists(edits, min_size=1, max_size=4),
    where=st.sampled_from(["file", "resealed file", "scanlines"]),
)
@settings(max_examples=300, deadline=None)
def test_png_mutants_decode_or_raise_codec_errors(fmt, ops, where):
    if where == "scanlines":
        data = mutate_scanlines(SEEDS[fmt], ops)
    else:
        data = mutate(SEEDS[fmt], ops)
        if where == "resealed file":
            data = reseal_png(data)
    decode_within_bound(lambda d: decode_image(d, "png"), data, CODEC_ERRORS)


@given(fmt=st.sampled_from(["ppm", "pgm"]), ops=st.lists(edits, min_size=1, max_size=4))
@settings(max_examples=300, deadline=None)
def test_pnm_mutants_decode_or_raise_codec_errors(fmt, ops):
    decode_within_bound(lambda d: decode_image(d, "ppm"), mutate(SEEDS[fmt], ops), CODEC_ERRORS)


@given(ops=st.lists(edits, min_size=1, max_size=4))
@settings(max_examples=300, deadline=None)
def test_csw1_mutants_load_or_raise_weight_errors(ops):
    data = reseal_csw1(mutate(SEEDS["csw1"], ops))
    decode_within_bound(cnn.load_weights, data, WEIGHT_ERRORS)


def test_seeds_decode_unmutated():
    for fmt in ("png-rgb", "png-gray", "ppm", "pgm"):
        assert decode_image(SEEDS[fmt], fmt[:3]).pixels.shape[:2] == (4, 5)
        if fmt.startswith("png"):
            assert mutate_scanlines(SEEDS[fmt], []) == SEEDS[fmt]
    assert cnn.load_weights(SEEDS["csw1"]).input_side == 8
