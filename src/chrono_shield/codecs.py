"""Image file codecs: binary PPM/PGM and baseline PNG.

PPM output is canonical (single-space separators, one newline after the
maxval) so encoded files are byte-stable and usable as golden artifacts.
The PNG profile is 8-bit grayscale or RGB, non-interlaced; everything else
raises UnsupportedVariant.
"""

from __future__ import annotations

import struct
import zlib

import numpy as np

from .raster import RasterImage

PNG_SIGNATURE = b"\x89PNG\r\n\x1a\n"

# Largest width*height a PNG may declare; bounds the memory one decode inflates into.
MAX_PNG_PIXELS = 4096 * 4096


class MalformedFile(ValueError):
    """Byte stream does not parse as the declared format."""


class UnsupportedVariant(ValueError):
    """Parses, but uses a feature outside the supported profile."""


# ---------------------------------------------------------------------------
# PPM / PGM


def _read_pnm_token(data: bytes, pos: int) -> tuple[bytes, int]:
    # Skip whitespace and '#' comments, then return one token.
    n = len(data)
    while pos < n:
        c = data[pos : pos + 1]
        if c.isspace():
            pos += 1
        elif c == b"#":
            while pos < n and data[pos : pos + 1] not in (b"\n", b"\r"):
                pos += 1
        else:
            break
    if pos >= n:
        raise MalformedFile("unexpected end of PNM header")
    start = pos
    while pos < n and not data[pos : pos + 1].isspace():
        pos += 1
    return data[start:pos], pos


def _decode_pnm(data: bytes) -> RasterImage:
    magic = data[:2]
    if magic == b"P6":
        channels = 3
    elif magic == b"P5":
        channels = 1
    else:
        raise MalformedFile(f"bad PNM magic {magic!r}")
    pos = 2
    fields = []
    for _ in range(3):
        token, pos = _read_pnm_token(data, pos)
        if not token.isdigit():
            raise MalformedFile(f"non-numeric PNM header token {token!r}")
        fields.append(int(token))
    width, height, maxval = fields
    if width < 1 or height < 1:
        raise MalformedFile("PNM dimensions must be positive")
    if maxval != 255:
        raise UnsupportedVariant(f"only maxval 255 is supported, got {maxval}")
    # Exactly one whitespace byte separates the header from the payload.
    if pos >= len(data) or not data[pos : pos + 1].isspace():
        raise MalformedFile("missing whitespace after PNM maxval")
    pos += 1
    need = width * height * channels
    payload = data[pos : pos + need]
    if len(payload) < need:
        raise MalformedFile(f"PNM payload truncated: need {need} bytes, have {len(payload)}")
    px = np.frombuffer(payload, dtype=np.uint8).reshape(height, width, channels)
    return RasterImage(px)


def _encode_ppm(img: RasterImage) -> bytes:
    header = f"P6\n{img.width} {img.height}\n255\n".encode("ascii")
    px = img.pixels
    if img.channels == 1:
        px = np.repeat(px, 3, axis=2)
    return header + px.tobytes()


def _encode_pgm(img: RasterImage) -> bytes:
    if img.channels != 1:
        raise ValueError("PGM output requires a 1-channel image")
    header = f"P5\n{img.width} {img.height}\n255\n".encode("ascii")
    return header + img.pixels.tobytes()


# ---------------------------------------------------------------------------
# PNG


def _png_chunk(tag: bytes, payload: bytes) -> bytes:
    raw = tag + payload
    return struct.pack(">I", len(payload)) + raw + struct.pack(">I", zlib.crc32(raw))


def _encode_png(img: RasterImage) -> bytes:
    color_type = 0 if img.channels == 1 else 2
    ihdr = struct.pack(">IIBBBBB", img.width, img.height, 8, color_type, 0, 0, 0)
    # Filter type 0 on every scanline: a zero byte, then the row's samples.
    lines = np.zeros((img.height, 1 + img.width * img.channels), dtype=np.uint8)
    lines[:, 1:] = img.pixels.reshape(img.height, -1)
    return (
        PNG_SIGNATURE
        + _png_chunk(b"IHDR", ihdr)
        + _png_chunk(b"IDAT", zlib.compress(lines))
        + _png_chunk(b"IEND", b"")
    )


def _unfilter_scanline(ftype: int, raw: np.ndarray, prev: np.ndarray, bpp: int) -> np.ndarray:
    if ftype == 0:
        return raw.copy()
    if ftype == 2:
        return raw + prev  # uint8 wraps mod 256
    if ftype == 1:
        out = raw.astype(np.int64)
        for k in range(bpp):
            out[k::bpp] = np.cumsum(out[k::bpp]) % 256
        return out.astype(np.uint8)
    out = np.zeros_like(raw)
    if ftype == 3:
        for i in range(len(raw)):
            left = int(out[i - bpp]) if i >= bpp else 0
            out[i] = (int(raw[i]) + (left + int(prev[i])) // 2) % 256
        return out
    if ftype == 4:
        for i in range(len(raw)):
            a = int(out[i - bpp]) if i >= bpp else 0
            b = int(prev[i])
            c = int(prev[i - bpp]) if i >= bpp else 0
            p = a + b - c
            pa, pb, pc = abs(p - a), abs(p - b), abs(p - c)
            if pa <= pb and pa <= pc:
                pred = a
            elif pb <= pc:
                pred = b
            else:
                pred = c
            out[i] = (int(raw[i]) + pred) % 256
        return out
    raise MalformedFile(f"unknown PNG filter type {ftype}")


def _decode_png(data: bytes) -> RasterImage:
    if data[:8] != PNG_SIGNATURE:
        raise MalformedFile("bad PNG signature")
    pos = 8
    ihdr = None
    idat = bytearray()
    seen_iend = False
    while pos < len(data):
        if pos + 8 > len(data):
            raise MalformedFile("truncated PNG chunk header")
        (length,) = struct.unpack(">I", data[pos : pos + 4])
        tag = data[pos + 4 : pos + 8]
        body_end = pos + 8 + length
        if body_end + 4 > len(data):
            raise MalformedFile("truncated PNG chunk")
        payload = data[pos + 8 : body_end]
        (crc,) = struct.unpack(">I", data[body_end : body_end + 4])
        if zlib.crc32(tag + payload) != crc:
            raise MalformedFile(f"PNG chunk {tag!r} fails CRC")
        pos = body_end + 4
        if tag == b"IHDR":
            ihdr = payload
        elif tag == b"IDAT":
            idat += payload
        elif tag == b"IEND":
            seen_iend = True
            break
    if ihdr is None or len(ihdr) != 13:
        raise MalformedFile("PNG missing IHDR")
    if not seen_iend:
        raise MalformedFile("PNG missing IEND")
    width, height, depth, color_type, compression, filt, interlace = struct.unpack(">IIBBBBB", ihdr)
    if depth != 8:
        raise UnsupportedVariant(f"only 8-bit PNG supported, got depth {depth}")
    if color_type == 0:
        channels = 1
    elif color_type == 2:
        channels = 3
    else:
        raise UnsupportedVariant(f"unsupported PNG color type {color_type}")
    if interlace != 0:
        raise UnsupportedVariant("interlaced PNG not supported")
    if compression != 0 or filt != 0:
        raise UnsupportedVariant("nonstandard PNG compression/filter method")
    if width < 1 or height < 1:
        raise MalformedFile("PNG dimensions must be positive")
    if width * height > MAX_PNG_PIXELS:
        raise UnsupportedVariant(f"PNG declares {width}x{height} pixels, over the {MAX_PNG_PIXELS} limit")
    stride = width * channels
    need = height * (stride + 1)
    inflater = zlib.decompressobj()
    try:
        # One byte past what IHDR declares is enough to tell a surplus apart.
        raw = inflater.decompress(bytes(idat), need + 1)
    except zlib.error as exc:
        raise MalformedFile(f"PNG IDAT does not inflate: {exc}") from exc
    if len(raw) != need:
        raise MalformedFile("PNG pixel data has wrong length")
    if not inflater.eof:
        raise MalformedFile("PNG IDAT does not inflate: incomplete or truncated stream")
    rows = np.frombuffer(raw, dtype=np.uint8).reshape(height, stride + 1)
    if not rows[:, 0].any():
        # Filter type 0 on every scanline (what _encode_png writes): the
        # scanlines are the pixels.
        return RasterImage(rows[:, 1:].reshape(height, width, channels))
    out = np.zeros((height, stride), dtype=np.uint8)
    prev = np.zeros(stride, dtype=np.uint8)
    for y in range(height):
        ftype = int(rows[y, 0])
        if ftype > 4:
            raise MalformedFile(f"unknown PNG filter type {ftype}")
        prev = _unfilter_scanline(ftype, rows[y, 1:], prev, channels)
        out[y] = prev
    return RasterImage(out.reshape(height, width, channels))


# ---------------------------------------------------------------------------
# Dispatch


def decode_image(data: bytes, fmt: str) -> RasterImage:
    """Decode bytes in the named format ('ppm' covers P6 and P5, 'png')."""
    fmt = fmt.lower()
    if fmt in ("ppm", "pgm"):
        return _decode_pnm(data)
    if fmt == "png":
        return _decode_png(data)
    raise ValueError(f"unknown image format {fmt!r}")


def encode_image(img: RasterImage, fmt: str) -> bytes:
    """Encode to bytes. 1-channel 'ppm' output replicates the gray channel."""
    fmt = fmt.lower()
    if fmt == "ppm":
        return _encode_ppm(img)
    if fmt == "pgm":
        return _encode_pgm(img)
    if fmt == "png":
        return _encode_png(img)
    raise ValueError(f"unknown image format {fmt!r}")


def sniff_format(data: bytes) -> str:
    if data[:8] == PNG_SIGNATURE:
        return "png"
    if data[:2] in (b"P6", b"P5"):
        return "ppm"
    raise MalformedFile("unrecognized image magic")


def load_image(path) -> RasterImage:
    """Read a PPM/PGM/PNG file, detecting the format from its magic bytes."""
    with open(path, "rb") as fh:
        data = fh.read()
    return decode_image(data, sniff_format(data))


def save_image(img: RasterImage, path) -> None:
    """Write an image, choosing the format from the file extension."""
    name = str(path).lower()
    if name.endswith(".png"):
        fmt = "png"
    elif name.endswith(".pgm"):
        fmt = "pgm"
    elif name.endswith(".ppm"):
        fmt = "ppm"
    else:
        raise ValueError(f"cannot infer image format from {path!r}")
    with open(path, "wb") as fh:
        fh.write(encode_image(img, fmt))
