"""Patch-grid test charts with a machine-readable sidecar.

Charts are written as 16-bit-per-channel RGB PNG.  Linear patch values are
encoded with the Rec. BT.709 OETF by default (a ``linear`` escape hatch
stores them unencoded) and quantized as q = round(65535 * encoded), the only
lossy step in the pipeline.  No color-management chunks are embedded: the
chart is signal-referred.

The sidecar is JSON with a fixed key order, so rendering the same chart
twice produces byte-identical image and metadata files.

``render_chart`` fills the frame straight into the PNG scanline buffer, then
deflates it on one worker thread while the calling thread serializes the
sidecar: zlib releases the GIL, so the two overlap.  The worker is joined
before ``render_chart`` returns or raises.
"""
from __future__ import annotations

import json
import struct
import zlib
from concurrent import futures  # its thread module is imported at first use
from dataclasses import dataclass

import numpy as np

from .atlas import DisplayGamut
from .spectral import _read_text

BT709_TRANSFER = "bt709"
LINEAR_TRANSFER = "linear"

_PNG_SIGNATURE = b"\x89PNG\r\n\x1a\n"

# the largest chart, a DCI 4K frame: rendering takes about 7 bytes a pixel
MAX_CHART_PIXELS = 4096 * 2160
_BACKGROUND_RGB = (0.2, 0.2, 0.2)  # linear RGB of the gaps between patches


def oetf_bt709(linear):
    """Rec. BT.709 opto-electronic transfer function."""
    v = np.asarray(linear, dtype=float)
    if not ((v >= 0) & (v <= 1)).all():
        raise ValueError("linear values must lie in [0, 1]")
    return np.where(v < 0.018, 4.5 * v, 1.099 * np.power(v, 0.45) - 0.099)


@dataclass(frozen=True)
class ChartLayout:
    rows: int
    cols: int
    patch_px: int = 64
    gap_px: int = 8

    def __post_init__(self):
        if self.rows < 1 or self.cols < 1:
            raise ValueError("layout needs at least one row and one column")
        if self.patch_px < 1 or self.gap_px < 0:
            raise ValueError("pixel dimensions must be positive")
        w, h = self.image_size
        if w * h > MAX_CHART_PIXELS:
            raise ValueError(f"a {w}x{h} px chart exceeds {MAX_CHART_PIXELS} pixels")

    @property
    def image_size(self) -> tuple[int, int]:
        w = self.cols * self.patch_px + (self.cols + 1) * self.gap_px
        h = self.rows * self.patch_px + (self.rows + 1) * self.gap_px
        return w, h


def _png_chunk(kind: bytes, data: bytes) -> bytes:
    return (
        struct.pack(">I", len(data))
        + kind
        + data
        + struct.pack(">I", zlib.crc32(kind + data) & 0xFFFFFFFF)
    )


def encode_png_rgb16(image: np.ndarray, chrm: tuple | None = None) -> bytes:
    """Encode an (H, W, 3) uint16 array as a 16-bit truecolor PNG.

    ``chrm``, when given, is (white, red, green, blue) xy pairs written as a
    cHRM chunk; by default no color-management chunks are embedded (the
    image is signal-referred).
    """
    if image.ndim != 3 or image.shape[2] != 3 or image.dtype != np.uint16 or not image.size:
        raise ValueError("expected a non-empty (H, W, 3) uint16 image")
    h, w = image.shape[:2]
    scanlines = np.zeros((h, 1 + 6 * w), dtype=np.uint8)
    scanlines[:, 1:].view(">u2")[:] = image.reshape(h, 3 * w)
    return _png_rgb16(scanlines, chrm)


def _png_rgb16(scanlines: np.ndarray, chrm: tuple | None) -> bytes:
    """The PNG of (H, 1 + 6W) uint8 scanlines: each a filter-type byte of 0,
    then the row's big-endian 16-bit RGB samples."""
    h, stride = scanlines.shape
    ihdr = struct.pack(">IIBBBBB", (stride - 1) // 6, h, 16, 2, 0, 0, 0)
    chunks = _PNG_SIGNATURE + _png_chunk(b"IHDR", ihdr)
    if chrm is not None:
        values = [int(round(coord * 100000)) for point in chrm for coord in point]
        chunks += _png_chunk(b"cHRM", struct.pack(">8I", *values))
    return chunks + _png_chunk(b"IDAT", zlib.compress(scanlines, 9)) + _png_chunk(b"IEND", b"")


def decode_png_rgb16(data: bytes) -> np.ndarray:
    """Decode PNGs produced by :func:`encode_png_rgb16` (filter 0 only).

    Every chunk CRC is checked; IHDR must come first and only once, with the
    methods the encoder writes, and the stream must end with an IEND chunk.
    """
    if not data.startswith(_PNG_SIGNATURE):
        raise ValueError("not a PNG stream")
    pos = len(_PNG_SIGNATURE)
    width = height = None
    idat = b""
    while True:
        if pos + 12 > len(data):
            raise ValueError("truncated PNG stream: no IEND chunk")
        length, kind = struct.unpack(">I4s", data[pos : pos + 8])
        end = pos + 12 + length
        if end > len(data):
            raise ValueError(f"truncated PNG chunk {kind!r}")
        chunk = data[pos + 8 : end - 4]
        if zlib.crc32(kind + chunk) != struct.unpack(">I", data[end - 4 : end])[0]:
            raise ValueError(f"PNG chunk {kind!r} fails its CRC check")
        if (kind == b"IHDR") != (width is None):
            raise ValueError("PNG stream needs exactly one IHDR chunk, first")
        pos = end
        if kind == b"IHDR":
            if length != 13:
                raise ValueError("PNG IHDR chunk must hold 13 bytes")
            width, height, depth, color_type, *methods = struct.unpack(">IIBBBBB", chunk)
            if depth != 16 or color_type != 2:
                raise ValueError("only 16-bit truecolor PNGs are supported")
            if any(methods) or width < 1 or height < 1:
                raise ValueError("PNG IHDR needs a size of at least 1x1 and methods 0, 0, 0")
        elif kind == b"IDAT":
            idat += chunk
        elif kind == b"IEND":
            break
    stride = 1 + width * 6
    try:
        raw = zlib.decompress(idat)
    except zlib.error as exc:
        raise ValueError(f"PNG image data: {exc}") from None
    if len(raw) != height * stride:
        raise ValueError("PNG image data does not match the IHDR size")
    scanlines = np.frombuffer(raw, dtype=np.uint8).reshape(height, stride)
    if scanlines[:, 0].any():
        raise ValueError("unsupported PNG filter type")
    return scanlines[:, 1:].view(">u2").reshape(height, width, 3).astype(np.uint16)


def render_chart(
    names,
    rgb,
    layout: ChartLayout,
    transfer: str = BT709_TRANSFER,
    gamut: DisplayGamut | None = None,
    source: str = "targets",
    embed_primaries: bool = False,
    settings: dict | None = None,
) -> tuple[bytes, str]:
    """Render named linear-RGB patches into a PNG chart plus its sidecar.

    ``rgb`` is an ``(n, 3)`` array of linear components in [0, 1], one row
    per name in ``names``; patches fill the grid row-major in input order.
    ``source`` labels where the colors came from (targets, optimal, matched,
    atlas).  Returns ``(png_bytes, sidecar_text)``: the sidecar is
    ``{"parameters": {...}, "patches": [...]}`` as JSON with sorted keys, so
    equal sidecars give equal text.  ``settings`` (the session's illuminant,
    observer and viewing conditions) is recorded among the parameters.
    """
    rgb = np.asarray(rgb, dtype=float)
    if rgb.ndim != 2 or rgb.shape[1] != 3:
        raise ValueError(f"linear RGB must be an (n, 3) array, got shape {rgb.shape}")
    if len(names) != len(rgb):
        raise ValueError(f"{len(names)} patch names for {len(rgb)} colors")
    if not len(rgb):
        raise ValueError("no colors to render")
    if layout.rows * layout.cols < len(rgb):
        raise ValueError(
            f"layout {layout.rows}x{layout.cols} too small for {len(rgb)} colors"
        )
    if transfer not in (BT709_TRANSFER, LINEAR_TRANSFER):
        raise ValueError(f"unknown transfer function {transfer!r}")
    gamut = gamut if gamut is not None else DisplayGamut()
    bad = ~((rgb >= 0) & (rgb <= 1)).all(axis=1)
    if bad.any():  # name the first bad patch
        raise ValueError(
            f"patch {names[int(np.argmax(bad))]!r}: linear RGB must be three values in [0, 1]"
        )

    encode = oetf_bt709 if transfer == BT709_TRANSFER else lambda v: np.asarray(v, float)
    # one quantize call over all patch colors: one rounding per color is
    # bit-equal to rounding every pixel
    quantize = lambda rgb: np.round(encode(rgb) * 65535.0).astype(np.uint16)
    w, h = layout.image_size
    # the frame is a view of the PNG scanlines, behind each row's filter-type
    # byte of 0: drawing it fills them
    scanlines = np.zeros((h, 1 + 6 * w), np.uint8)
    image = scanlines[:, 1:].view(">u2").reshape(h, w, 3)
    image[:] = quantize(_BACKGROUND_RGB)
    # the stacked product: bit-equal, patch by patch, to ``rgb_to_xyz @ rgb``
    xyz = (gamut.rgb_to_xyz @ rgb[..., None])[..., 0]
    # a primary whose z rounds just below 0 (the DCI-P3 red's is -5.6e-17)
    # leaves a rounding-size negative component, which reads as 0
    xyz[(xyz < 0) & (xyz >= -1e-12 * gamut.white_luminance)] = 0.0
    total = xyz[:, 0] + xyz[:, 1] + xyz[:, 2]
    if not ((xyz >= 0).all() and np.isfinite(total).all()):
        raise ValueError("patch tristimulus components must be finite and non-negative")
    # a black patch has no chromaticity of its own: it takes the white's
    lit = (total > 0)[:, None]
    white = (gamut.white.x, gamut.white.y)
    xy = np.where(lit, xyz[:, :2] / np.where(lit, total[:, None], 1.0), white)
    luminance = xyz[:, 1] / gamut.white_luminance

    for idx, code in enumerate(quantize(rgb)):
        x0, y0 = patch_pixel_origin(layout, *divmod(idx, layout.cols))
        image[y0 : y0 + layout.patch_px, x0 : x0 + layout.patch_px] = code
    chrm = None
    if embed_primaries:
        chrm = ((gamut.white.x, gamut.white.y),) + tuple(
            (p.x, p.y) for p in gamut.primaries
        )

    # the calling thread calls no public function of the package while the
    # worker deflates: bench/tracer.py keeps one span stack for all threads
    with futures.ThreadPoolExecutor(max_workers=1) as worker:
        deflated = worker.submit(_png_rgb16, scanlines, chrm)
        columns = (rgb.tolist(), *xy.T.tolist(), luminance.tolist())
        patches = [
            {"name": name, "row": idx // layout.cols, "col": idx % layout.cols, "x": x, "y": y,
             "L_C": l_c, "rgb_linear": rgb_linear, "source": source}
            for idx, (name, rgb_linear, x, y, l_c) in enumerate(zip(names, *columns))
        ]
        params = {
            **(settings or {}),
            "transfer": transfer,
            "bit_depth": 16,
            "rows": layout.rows,
            "cols": layout.cols,
            "patch_px": layout.patch_px,
            "gap_px": layout.gap_px,
            "background_rgb": list(_BACKGROUND_RGB),
            "gamut_white": [gamut.white.x, gamut.white.y],
            "white_luminance": gamut.white_luminance,
        }
        meta = {"parameters": params, "patches": patches}
        text = json.dumps(meta, indent=2, sort_keys=True, ensure_ascii=False) + "\n"
        return deflated.result(), text


def patch_pixel_origin(layout: ChartLayout, row: int, col: int) -> tuple[int, int]:
    """Top-left pixel (x, y) of a patch."""
    return (
        layout.gap_px + col * (layout.patch_px + layout.gap_px),
        layout.gap_px + row * (layout.patch_px + layout.gap_px),
    )


def load_metadata(path) -> dict:
    return json.loads(_read_text(path))
