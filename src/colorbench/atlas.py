"""In-gamut color atlases on a uniform CAM16-UCS grid.

An atlas is a square lattice in the (a'_M, b'_M) plane at a fixed CAM16
lightness J, anchored at the achromatic origin, with a configurable spacing
in UCS units.  The lattice is scanned first, one CAM16 inversion per
candidate; the gamut test then runs once over the scan.  Each candidate is
counted once, as kept, an inversion failure or out of gamut, so gamut holes
are never confused with solver failures.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .cam16 import Cam16ViewingConditions, cam16_forward, cam16_inverse, ucs_colorfulness_to_m
from .spectral import (
    Chromaticity,
    illuminant_white,
    line_error,
    read_csv,
)
from .targets import REC709_PRIMARIES, rgb_to_xyz_matrix

ATLAS_CSV_HEADER = "J,a_m_prime,b_m_prime,X,Y,Z,x,y,R_lin,G_lin,B_lin"
_CSV_BLOCK_ROWS = 1024  # rows a piece of the CSV text holds

_GAMUT_TOL = 1e-9

# one slice's budget: at J = 50, about 10 µs and 60 bytes a candidate (2.5 s, 15 MB):
# the XYZ scan and the gamut test's levels take 24 bytes each, a kept point's row 88
MAX_ATLAS_CANDIDATES = 250_000

# scatter plots are square; the margin is a fraction of the data span
_SVG_SIZE_PX = 640
_SVG_MARGIN = 0.08


@dataclass(frozen=True, eq=False)
class DisplayGamut:
    """An additive three-primary display."""

    primaries: tuple[Chromaticity, Chromaticity, Chromaticity] = REC709_PRIMARIES
    white: Chromaticity = field(default_factory=lambda: illuminant_white("D65"))
    white_luminance: float = 100.0

    def __post_init__(self):
        if not 0.0 < self.white_luminance < math.inf:
            raise ValueError("white luminance must be finite and positive")
        with np.errstate(over="ignore"):
            m = rgb_to_xyz_matrix(self.primaries, self.white) * self.white_luminance
        inverse = np.linalg.inv(m) if np.isfinite(m).all() else m
        # a subnormal or near-overflow luminance leaves a matrix with inf or NaN
        if not np.isfinite(inverse).all():
            raise ValueError(
                f"white luminance {self.white_luminance!r} is out of range for these primaries"
            )
        object.__setattr__(self, "rgb_to_xyz", m)
        object.__setattr__(self, "xyz_to_rgb", inverse)

    def linear_rgb(self, xyz) -> np.ndarray:
        """Linear channel drive levels reproducing the rows of a ``(..., 3)`` XYZ array
        (unclamped)."""
        v = np.asarray(xyz, dtype=float)
        # the stacked product: bit-equal, row by row, to ``xyz_to_rgb @ row``
        return (self.xyz_to_rgb @ v[..., None])[..., 0]


def gamut_contains(xyz, gamut: DisplayGamut) -> np.ndarray:
    """Per row of a ``(..., 3)`` XYZ array, whether it is reproducible with channel
    levels in [0, 1] (NaN: outside)."""
    # a level beyond the float range is outside: inf, or NaN from inf - inf
    with np.errstate(over="ignore", invalid="ignore"):
        rgb = gamut.linear_rgb(xyz)
    return ((rgb >= -_GAMUT_TOL) & (rgb <= 1.0 + _GAMUT_TOL)).all(axis=-1)


@dataclass(frozen=True)
class AtlasSpec:
    """Parameters of one atlas slice."""

    vc: Cam16ViewingConditions
    J: float
    spacing: float = 2.0
    gamut: DisplayGamut = field(default_factory=DisplayGamut)
    chroma_bound: float = 60.0

    def __post_init__(self):
        if not 0.0 < self.J < 100.0:
            raise ValueError("lightness J must lie in (0, 100)")
        if not 0.0 < self.spacing < math.inf:
            raise ValueError("spacing must be finite and positive")
        if not 0.0 < self.chroma_bound < math.inf:
            raise ValueError("chroma bound must be finite and positive")
        # clamped before the floor, which overflows on a huge ratio
        steps = math.floor(min(self.chroma_bound / self.spacing, MAX_ATLAS_CANDIDATES))
        if (2 * steps + 1) ** 2 > MAX_ATLAS_CANDIDATES:
            raise ValueError(
                f"the lattice has more than {MAX_ATLAS_CANDIDATES} candidates: "
                "raise the spacing or lower the chroma bound"
            )


@dataclass(frozen=True)
class AtlasResult:
    """The kept lattice points as one read-only ``(n, 11)`` float64 table, with
    columns in ``ATLAS_CSV_HEADER`` order, plus generation diagnostics."""

    points: np.ndarray
    inversion_failures: int
    candidates: int
    out_of_gamut: int


def generate_atlas(spec: AtlasSpec) -> AtlasResult:
    """Generate the in-gamut UCS lattice for one lightness level, rows in (b'_M, a'_M) order.

    One ``cam16_inverse`` per candidate, scanned in that order, fills a ``(candidates, 3)``
    XYZ array (a failure stays NaN); one gamut test, black check and clip then run over
    it, and one ``cam16_forward`` per kept point gives its J column.  Each candidate is
    kept, failed or out of gamut.
    """
    steps = int(math.floor(spec.chroma_bound / spec.spacing))
    side = [k * spec.spacing for k in range(-steps, steps + 1)]
    candidates = len(side) ** 2
    xyz = np.full((candidates, 3), np.nan)
    failures = 0
    for row, (b_m, a_m) in enumerate(itertools.product(side, side)):
        h = math.degrees(math.atan2(b_m, a_m)) % 360.0
        m = ucs_colorfulness_to_m(math.hypot(a_m, b_m))
        try:
            xyz[row] = cam16_inverse(spec.J, h, spec.vc, M=m)
        except ValueError:
            failures += 1
    kept = np.flatnonzero(gamut_contains(xyz, spec.gamut))
    xyz = xyz[kept]
    total = xyz[:, 0] + xyz[:, 1] + xyz[:, 2]
    if (total <= 0.0).any():
        raise ValueError(
            f"lightness J = {spec.J!r} is too small: a candidate inverts to black, "
            "which has no chromaticity"
        )
    lightness = [cam16_forward(v, spec.vc).J for v in xyz.tolist()]
    grid = np.array(side)
    points = np.column_stack((
        lightness,
        grid[kept % len(side)],
        grid[kept // len(side)],
        xyz,
        xyz[:, :2] / total[:, None],
        np.clip(spec.gamut.linear_rgb(xyz), 0.0, 1.0),
    ))
    points.flags.writeable = False
    return AtlasResult(points, failures, candidates, candidates - failures - len(points))


def _csv_blocks(points):
    """``atlas_csv``'s text as the header line, then one piece per ``_CSV_BLOCK_ROWS`` rows."""
    yield ATLAS_CSV_HEADER + "\n"
    for start in range(0, len(points), _CSV_BLOCK_ROWS):
        rows = points[start : start + _CSV_BLOCK_ROWS].tolist()
        yield "".join(",".join(map(repr, row)) + "\n" for row in rows)


def atlas_csv(points) -> str:
    """Serialize an atlas table under ``ATLAS_CSV_HEADER``, every value as its ``repr``."""
    return "".join(_csv_blocks(points))


def write_atlas_csv(points, path) -> None:
    """Write ``atlas_csv(points)`` a piece at a time, never holding the whole text."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.writelines(_csv_blocks(points))


def read_atlas_rgb(path) -> np.ndarray:
    """The ``(n, 3)`` linear RGB (R_lin, G_lin, B_lin) of an atlas CSV (see
    ``spectral.read_csv``); each value must lie in [0, 1]."""
    table = read_csv(path, ATLAS_CSV_HEADER)
    rgb = table.values[:, -3:]
    outside = ((rgb < 0) | (rgb > 1)).any(axis=1)
    if outside.any():
        line = table.lines[int(np.argmax(outside))]
        raise line_error(table.path, line, "R_lin, G_lin and B_lin must lie in [0, 1]")
    return rgb


def scatter_svg(xy_pairs, labels: tuple[str, str] = ("a'_M", "b'_M")) -> str:
    """Minimal deterministic scatter plot of ``(x, y)`` pairs (an ``(n, 2)`` array
    or a sequence of pairs) as an SVG document."""
    width = height = _SVG_SIZE_PX
    pairs = np.asarray(xy_pairs, dtype=float)
    if not pairs.size:
        raise ValueError("nothing to plot")
    xs, ys = pairs[:, 0].tolist(), pairs[:, 1].tolist()
    x0, x1 = min(xs), max(xs)
    y0, y1 = min(ys), max(ys)
    span_x = (x1 - x0) or 1.0
    span_y = (y1 - y0) or 1.0
    pad_x, pad_y = span_x * _SVG_MARGIN, span_y * _SVG_MARGIN
    x0, x1 = x0 - pad_x, x1 + pad_x
    y0, y1 = y0 - pad_y, y1 + pad_y

    def px(x):
        return (x - x0) / (x1 - x0) * width

    def py(y):
        return height - (y - y0) / (y1 - y0) * height

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="8" y="16" font-size="12" font-family="monospace">{labels[0]} vs {labels[1]}</text>',
    ]
    for x, y in zip(xs, ys):
        parts.append(f'<circle cx="{px(x):.2f}" cy="{py(y):.2f}" r="2.5" fill="black"/>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
