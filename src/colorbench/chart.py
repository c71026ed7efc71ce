"""Patch-grid test charts with a machine-readable sidecar.

Charts are written as 16-bit-per-channel RGB PNG.  Linear patch values are
encoded with the Rec. BT.709 OETF by default (a ``linear`` escape hatch
stores them unencoded) and quantized as q = round(65535 * encoded), the only
lossy step in the pipeline.  The chart is signal-referred: its one
color-management chunk, cHRM, is embedded only with ``embed_primaries``.

The sidecar is JSON with a fixed key order, so rendering the same chart
twice produces byte-identical image and metadata files.

Every image row of a chart is one of ``rows + 1`` distinct PNG scanlines:
one per grid row of patches, and the background line of the gaps.
``render_chart`` draws only those lines, and one worker thread feeds the
image to a single compressor in blocks of whole rows copied from them, so
the frame is never held at once; DEFLATE's output does not depend on how its
input is split, so the bytes are those of one ``zlib.compress`` of the frame.
Meanwhile the calling thread formats the sidecar, one text piece per patch
from a fixed-schema template: zlib releases the GIL, so the two overlap.  The
worker is joined before ``render_chart`` returns or raises.
"""
from __future__ import annotations

import json
import struct
import zlib
from concurrent import futures  # its thread module is imported at first use
from dataclasses import asdict, dataclass
from json.encoder import encode_basestring

import numpy as np

from .atlas import DisplayGamut
from .spectral import _read_text

BT709_TRANSFER = "bt709"
LINEAR_TRANSFER = "linear"

_PNG_SIGNATURE = b"\x89PNG\r\n\x1a\n"

# the largest chart, a DCI 4K frame (53 MB of scanlines).  Rendering holds no
# frame but one 6-byte-a-pixel line per grid row (as large as the frame only
# for 1 px patches with no gaps) and one deflate block.  The sidecar grows with
# the patches instead: its piece of a patch is about 310 characters (360 B as
# an ASCII str, 8 B more in the list), and while the pieces are built each
# patch's numpy columns (about 80 B) are alive too; its six Python floats and
# their lists (about 260 B) are, for one block of _PIECE_BLOCK_PATCHES patches.
# That is about 450-500 B a patch, measured at 3,721 to 60,025 patches; a test
# holds it to 600 B
MAX_CHART_PIXELS = 4096 * 2160
# the deflate reads the image in blocks of whole rows of at most this many
# bytes (at least one row).  Each block is one compress call, after which the
# worker needs the GIL back, and while the calling thread formats the
# sidecar that can take up to the 5 ms switch interval: so the calls must be
# few.  2 MiB makes about 6 of a 2 Mpx chart's 12 MB and 26 of a
# MAX_CHART_PIXELS chart's, while the block stays a sixth of a 2 Mpx frame
_DEFLATE_BLOCK_BYTES = 2 * 1024 * 1024
# the sidecar's pieces are formatted from Python floats, converted from the
# patches' columns this many patches at a time
_PIECE_BLOCK_PATCHES = 1024
_BACKGROUND_RGB = (0.2, 0.2, 0.2)  # linear RGB of the gaps between patches
# one patch as ``json.dumps(..., indent=2, sort_keys=True, ensure_ascii=False)``
# writes it at the depth of the sidecar's patch list, comma included: keys in
# sorted order, floats by repr as json writes them (render_chart checks that
# they are finite) and strings from _json_str
_PATCH = (
    '    {\n      "L_C": %r,\n      "col": %d,\n      "name": %s,\n'
    '      "rgb_linear": [\n        %r,\n        %r,\n        %r\n      ],\n'
    '      "row": %d,\n      "source": %s,\n      "x": %r,\n      "y": %r\n    },\n'
)


def _json_str(value) -> str:
    """``value`` as a JSON string literal, with json's error for a non-string."""
    if not isinstance(value, str):
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")
    return encode_basestring(value)


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
    return _png_rgb16(w, h, (scanlines,), chrm)


def _png_rgb16(width: int, height: int, blocks, chrm: tuple | None) -> bytes:
    """The PNG of ``height`` rows of ``width`` pixels whose scanlines
    ``blocks`` yields in order, as uint8 arrays: each scanline is a
    filter-type byte of 0, then the row's big-endian 16-bit RGB samples.

    One compressor reads every block; it has ``zlib.compress``'s level, window
    and memLevel, so the image data are those of one ``zlib.compress(scanlines,
    9)`` however the blocks split the scanlines."""
    ihdr = struct.pack(">IIBBBBB", width, height, 16, 2, 0, 0, 0)
    chunks = _PNG_SIGNATURE + _png_chunk(b"IHDR", ihdr)
    if chrm is not None:
        values = [int(round(coord * 100000)) for point in chrm for coord in point]
        chunks += _png_chunk(b"cHRM", struct.pack(">8I", *values))
    deflate = zlib.compressobj(9)
    idat = b"".join([*map(deflate.compress, blocks), deflate.flush()])
    return chunks + _png_chunk(b"IDAT", idat) + _png_chunk(b"IEND", b"")



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
) -> tuple[bytes, list[str]]:
    """Render named linear-RGB patches into a PNG chart plus its sidecar.

    ``rgb`` is an ``(n, 3)`` array of linear components in [0, 1], one row
    per name in ``names``; patches fill the grid row-major in input order.
    ``source`` labels where the colors came from (targets, matched, atlas).
    Returns ``(png_bytes, pieces)``: ``pieces`` is a list of strings, one per
    patch between a head and a tail, whose concatenation is the sidecar
    ``{"parameters": {...}, "patches": [...]}`` as ``json.dumps(..., indent=2,
    sort_keys=True, ensure_ascii=False)`` writes it, plus a final newline, so
    equal sidecars give equal text.  Names and ``source`` must be strings.
    ``settings`` (the session's illuminant, observer and viewing conditions)
    is recorded among the parameters.
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
    # the distinct PNG scanlines: one per grid row, then the background line.
    # Their pixels are a view behind each line's filter-type byte of 0, and
    # every image row maps to one line
    lines = np.zeros((layout.rows + 1, 1 + 6 * w), np.uint8)
    pixels = lines[:, 1:].view(">u2").reshape(layout.rows + 1, w, 3)
    pixels[:] = quantize(_BACKGROUND_RGB)
    line_of_row = np.full(h, layout.rows)
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
        row, col = divmod(idx, layout.cols)
        x0, y0 = patch_pixel_origin(layout, row, col)
        pixels[row, x0 : x0 + layout.patch_px] = code
        if not col:  # a grid row's first patch maps its band of image rows
            line_of_row[y0 : y0 + layout.patch_px] = row
    chrm = None
    if embed_primaries:
        chrm = ((gamut.white.x, gamut.white.y),) + tuple(
            (p.x, p.y) for p in gamut.primaries
        )

    # the calling thread calls no public function of the package while the
    # worker deflates: bench/tracer.py keeps one span stack for all threads
    with futures.ThreadPoolExecutor(max_workers=1) as worker:
        # the worker copies each block of whole rows from the lines
        step = max(1, _DEFLATE_BLOCK_BYTES // lines.shape[1])
        blocks = (lines[line_of_row[k : k + step]] for k in range(0, h, step))
        deflated = worker.submit(_png_rgb16, w, h, blocks, chrm)
        params = {
            **(settings or {}),
            **asdict(layout),
            "transfer": transfer,
            "bit_depth": 16,
            "background_rgb": list(_BACKGROUND_RGB),
            "gamut_white": [gamut.white.x, gamut.white.y],
            "white_luminance": gamut.white_luminance,
        }
        # the parameters' text indented two more spaces: json escapes every
        # newline inside a string, so each "\n" starts a line
        params_text = json.dumps(params, indent=2, sort_keys=True, ensure_ascii=False)
        pieces = ['{\n  "parameters": %s,\n  "patches": [\n' % params_text.replace("\n", "\n  ")]
        label, cols, name_of = _json_str(source), layout.cols, iter(names)
        for a in range(0, len(rgb), _PIECE_BLOCK_PATCHES):
            b = a + _PIECE_BLOCK_PATCHES
            columns = (rgb[a:b].tolist(), *xy[a:b].T.tolist(), luminance[a:b].tolist())
            # the names come last: zip ends with the block's floats, before it takes a name
            pieces += [
                _PATCH % (l_c, idx % cols, _json_str(name), *rgb_linear, idx // cols, label, x, y)
                for idx, (rgb_linear, x, y, l_c, name) in enumerate(zip(*columns, name_of), a)
            ]
        pieces[-1] = pieces[-1][:-2] + "\n"  # no comma after the last patch
        pieces.append("  ]\n}\n")
        return deflated.result(), pieces


def patch_pixel_origin(layout: ChartLayout, row: int, col: int) -> tuple[int, int]:
    """Top-left pixel (x, y) of a patch."""
    return (
        layout.gap_px + col * (layout.patch_px + layout.gap_px),
        layout.gap_px + row * (layout.patch_px + layout.gap_px),
    )


def load_metadata(path) -> dict:
    return json.loads(_read_text(path))
