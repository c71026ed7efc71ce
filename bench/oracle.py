"""Independent reference computations for the benchmark's output checks.

Nothing here imports colorbench.  The CIE tables are read straight from the
bundled CSV files and integrated with plain numpy, and PNG files are decoded
with this module's own zlib-based reader, so a defect in the program cannot
hide behind a shared helper.
"""
from __future__ import annotations

import json
import struct
import zlib
from pathlib import Path

import numpy as np

GRID = np.arange(360, 721, dtype=float)
PRIMARIES_XY = ((0.64, 0.33), (0.30, 0.60), (0.15, 0.06))


def _read_table(path: Path) -> np.ndarray:
    rows = [
        [float(tok) for tok in line.split(",")]
        for line in path.read_text(encoding="utf-8").splitlines()
        if line and line[0].isdigit()
    ]
    table = np.asarray(rows)
    if not np.array_equal(table[:, 0], GRID):
        raise ValueError(f"{path}: not on the 360-720 nm / 1 nm grid")
    return table[:, 1:]


class Colorimetry:
    """D65 / CIE 1931 2-degree colorimetry on the 1 nm working grid."""

    def __init__(self, data_dir: Path):
        self.cmf = _read_table(data_dir / "cie_1931_2deg_1nm.csv")
        self.d65 = _read_table(data_dir / "illuminant_d65_1nm.csv")[:, 0]
        self.weights = self.d65[:, None] * self.cmf
        self.white = self.chromaticity(np.ones(GRID.size))[0]
        cols = np.array([[x / y, 1.0, (1.0 - x - y) / y] for x, y in PRIMARIES_XY]).T
        w = self.white
        scale = np.linalg.solve(cols, np.array([w[0] / w[1], 1.0, w[2] / w[1]]))
        self.rgb_to_xyz = cols * scale  # Y of white = 1

    def raw_xyz(self, spectra) -> np.ndarray:
        """Unnormalized sums of S * P * cmf, shape (N, 3)."""
        return np.atleast_2d(spectra) @ self.weights

    def xyz(self, spectra) -> np.ndarray:
        """XYZ with a perfect reflector at Y = 100."""
        return np.maximum(self.raw_xyz(spectra) * (100.0 / self.weights[:, 1].sum()), 0.0)

    def chromaticity(self, spectra) -> np.ndarray:
        xyz = self.xyz(spectra)
        return xyz / xyz.sum(axis=1, keepdims=True)

    def target(self, rgb_weights) -> tuple[float, float, float]:
        """(x, y, L_C) of linear BT.709 weights."""
        xyz = self.rgb_to_xyz @ np.asarray(rgb_weights, dtype=float)
        return float(xyz[0] / xyz.sum()), float(xyz[1] / xyz.sum()), float(xyz[1])

    def linear_rgb(self, xyz100) -> np.ndarray:
        """Display drive levels of XYZ (Y on 0-100) for a 100 cd/m2 white."""
        return np.linalg.solve(self.rgb_to_xyz * 100.0, np.asarray(xyz100, dtype=float).T).T


def _coverage(a: float, b: float) -> np.ndarray:
    """Share of each 1 nm bin [w, w + 1) covered by [a, b]; the last bin
    ramps to full coverage as b reaches the end of the grid."""
    cov = np.clip(np.minimum(b, GRID + 1.0) - np.maximum(a, GRID), 0.0, 1.0)
    cov[-1] = np.clip(min(b + 1.0, GRID[-1] + 2.0) - max(a, GRID[-1]), 0.0, 1.0)
    return cov


def rectangle(genus: str, l1: float, l2: float) -> np.ndarray:
    """Unit-amplitude rectangle spectrum of the given genus."""
    if genus == "band_pass":
        return _coverage(l1, l2)
    if genus == "band_stop":
        return np.clip(_coverage(360.0, l1) + _coverage(l2, 720.0), 0.0, 1.0)
    raise ValueError(f"unknown genus {genus!r}")


def oetf_code(linear) -> np.ndarray:
    """round(65535 * BT.709 OETF(linear))."""
    v = np.asarray(linear, dtype=float)
    enc = np.where(v < 0.018, 4.5 * v, 1.099 * np.power(v, 0.45) - 0.099)
    return np.round(enc * 65535.0)


def _unfilter(raw: bytes, width: int, height: int, bpp: int) -> np.ndarray:
    """Undo PNG scanline filters (RFC 2083, section 6)."""
    stride = width * bpp
    out = np.zeros((height, stride), dtype=np.uint8)
    prev = np.zeros(stride, dtype=np.int64)
    for r in range(height):
        start = r * (stride + 1)
        kind = raw[start]
        line = np.frombuffer(raw, np.uint8, stride, start + 1).astype(np.int64)
        if kind == 0:
            cur = line
        elif kind == 1:
            cur = np.cumsum(line.reshape(width, bpp), axis=0).reshape(-1) % 256
        elif kind == 2:
            cur = (line + prev) % 256
        elif kind in (3, 4):
            cur = np.zeros(stride, dtype=np.int64)
            for i in range(stride):
                a = int(cur[i - bpp]) if i >= bpp else 0
                b = int(prev[i])
                c = int(prev[i - bpp]) if i >= bpp else 0
                if kind == 3:
                    pred = (a + b) // 2
                else:
                    p = a + b - c
                    pa, pb, pc = abs(p - a), abs(p - b), abs(p - c)
                    pred = a if pa <= pb and pa <= pc else (b if pb <= pc else c)
                cur[i] = (int(line[i]) + pred) % 256
        else:
            raise ValueError(f"row {r}: unknown PNG filter type {kind}")
        out[r] = cur
        prev = cur
    return out


def read_png_rgb16(data: bytes) -> np.ndarray:
    """Decode a non-interlaced 16-bit truecolor PNG to an (H, W, 3) array,
    checking the signature, chunk CRCs and chunk order."""
    if data[:8] != b"\x89PNG\r\n\x1a\n":
        raise ValueError("bad PNG signature")
    pos, idat, header, seen_end = 8, [], None, False
    while pos < len(data):
        length, kind = struct.unpack(">I4s", data[pos : pos + 8])
        body = data[pos + 8 : pos + 8 + length]
        (crc,) = struct.unpack(">I", data[pos + 8 + length : pos + 12 + length])
        if zlib.crc32(kind + body) & 0xFFFFFFFF != crc:
            raise ValueError(f"CRC mismatch in {kind!r} chunk")
        if header is None and kind != b"IHDR":
            raise ValueError("first chunk is not IHDR")
        if kind == b"IHDR":
            header = struct.unpack(">IIBBBBB", body)
        elif kind == b"IDAT":
            idat.append(body)
        elif kind == b"IEND":
            seen_end = True
            break
        pos += 12 + length
    if not seen_end:
        raise ValueError("missing IEND chunk")
    width, height, depth, color_type, _, _, interlace = header
    if (depth, color_type, interlace) != (16, 2, 0):
        raise ValueError("expected a non-interlaced 16-bit truecolor PNG")
    raw = zlib.decompress(b"".join(idat))
    if len(raw) != height * (1 + width * 6):
        raise ValueError("decompressed image data has the wrong size")
    rows = _unfilter(raw, width, height, 6)
    return rows.view(">u2").reshape(height, width, 3).astype(np.int64)


def check_patch_centres(png: np.ndarray, linear_rgb, cols: int, patch_px: int, gap_px: int) -> list[str]:
    """Every patch centre equals round(65535 * OETF(rgb)) within one code."""
    rgb = np.asarray(linear_rgb, dtype=float).reshape(-1, 3)
    idx = np.arange(len(rgb))
    pitch = patch_px + gap_px
    ys = gap_px + (idx // cols) * pitch + patch_px // 2
    xs = gap_px + (idx % cols) * pitch + patch_px // 2
    if len(rgb) and (ys.max() >= png.shape[0] or xs.max() >= png.shape[1]):
        return [f"image {png.shape[1]}x{png.shape[0]} too small for {len(rgb)} patches"]
    err = np.abs(png[ys, xs] - oetf_code(rgb)).max(axis=1) if len(rgb) else np.zeros(0)
    bad = np.flatnonzero(err > 1)
    return [f"patch {i}: centre off by {int(err[i])} codes" for i in bad[:3]]


def read_sidecar(png_path: Path) -> dict:
    return json.loads(png_path.with_suffix(png_path.suffix + ".meta.json").read_text(encoding="utf-8"))


def read_database(path: Path, fmt: str) -> tuple[list[str], np.ndarray]:
    """Parse a wide or long reflectance CSV and resample every record onto
    the working grid (linear inside the source support, zero outside)."""
    header, *lines = path.read_text(encoding="utf-8").splitlines()
    if fmt == "wide_csv":
        wl = np.array([float(h) for h in header.split(",")[1:]])
        ids = [line.split(",", 1)[0] for line in lines]
        vals = np.array([[float(v) for v in line.split(",")[1:]] for line in lines])
        return ids, np.array([np.interp(GRID, wl, row, left=0.0, right=0.0) for row in vals])
    groups: dict[str, list[tuple[float, float]]] = {}
    for line in lines:
        rid, w, v = line.split(",")
        groups.setdefault(rid, []).append((float(w), float(v)))
    spectra = []
    for pts in groups.values():
        pts = np.array(pts)
        spectra.append(np.interp(GRID, pts[:, 0], pts[:, 1], left=0.0, right=0.0))
    return list(groups), np.array(spectra)
