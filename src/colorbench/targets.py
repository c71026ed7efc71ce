"""HDTV (Rec. ITU-R BT.709) reference color arithmetic and the sixteen-color
assessment set built from it.

The RGB-to-XYZ matrix is derived from the BT.709 primaries, balanced so
that unit weights reproduce the white of the session illuminant at Y = 1.
With the bundled D65 tables the luminance row comes out at the familiar
0.2126 / 0.7152 / 0.0722 coefficients.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .spectral import OBSERVER_2DEG, Chromaticity, illuminant_white, xyz_to_chromaticity

REC709_RED = Chromaticity.from_xy(0.64, 0.33)
REC709_GREEN = Chromaticity.from_xy(0.30, 0.60)
REC709_BLUE = Chromaticity.from_xy(0.15, 0.06)
REC709_PRIMARIES = (REC709_RED, REC709_GREEN, REC709_BLUE)

# BT.709 luma coefficients, used for the TargetColor consistency check
LUMA_COEFFS = (0.2126, 0.7152, 0.0722)


def rgb_to_xyz_matrix(
    primaries: tuple[Chromaticity, Chromaticity, Chromaticity] = REC709_PRIMARIES,
    white: Chromaticity | None = None,
) -> np.ndarray:
    """3x3 matrix taking linear RGB weights to XYZ (Y of white = 1)."""
    white = white if white is not None else illuminant_white("D65", OBSERVER_2DEG)
    cols = np.empty((3, 3))
    for i, p in enumerate(primaries):
        if p.y <= 0:
            raise ValueError("primary with zero y is degenerate")
        cols[:, i] = (p.x / p.y, 1.0, p.z / p.y)
    if abs(np.linalg.det(cols)) < 1e-12:
        raise ValueError("primaries form a degenerate triangle")
    white_xyz = np.array([white.x / white.y, 1.0, white.z / white.y])
    scale = np.linalg.solve(cols, white_xyz)
    if np.any(scale <= 0):
        raise ValueError("white point lies outside the primary triangle")
    return cols * scale


@lru_cache(maxsize=None)
def _default_matrix() -> np.ndarray:
    return rgb_to_xyz_matrix()


def point_in_triangle(p: Chromaticity, triangle, tol: float = 1e-6) -> bool:
    """Barycentric inside-or-on-boundary test in the xy plane."""
    (ax, ay), (bx, by), (cx, cy) = [(t.x, t.y) for t in triangle]
    det = (by - cy) * (ax - cx) + (cx - bx) * (ay - cy)
    if abs(det) < 1e-15:
        return False
    l1 = ((by - cy) * (p.x - cx) + (cx - bx) * (p.y - cy)) / det
    l2 = ((cy - ay) * (p.x - cx) + (ax - cx) * (p.y - cy)) / det
    l3 = 1.0 - l1 - l2
    return min(l1, l2, l3) >= -tol


@dataclass(frozen=True)
class TargetColor:
    """A named HDTV reference color.

    ``rgb_weights`` are linear-light channel weights, ``L_C`` the TV-scale
    relative luminance on 0-1.
    """

    name: str
    rgb_weights: tuple[float, float, float]
    x: float
    y: float
    L_C: float

    def __post_init__(self):
        w = tuple(float(v) for v in self.rgb_weights)
        # frozen: the fields are set past its __setattr__
        self.__dict__.update(rgb_weights=w, x=float(self.x), y=float(self.y), L_C=float(self.L_C))
        if any(v < 0 or not np.isfinite(v) for v in w):
            raise ValueError("rgb weights must be non-negative and finite")
        if not any(w):
            raise ValueError("rgb weights must not all be zero")
        luma = sum(c * v for c, v in zip(LUMA_COEFFS, w))
        if abs(luma - self.L_C) > 1e-3:
            raise ValueError(
                f"L_C={self.L_C:.4f} inconsistent with luma-weighted sum {luma:.4f}"
            )
        if not point_in_triangle(self.chromaticity, REC709_PRIMARIES):
            raise ValueError(f"({self.x}, {self.y}) lies outside the HDTV primary triangle")

    @property
    def chromaticity(self) -> Chromaticity:
        return Chromaticity.from_xy(self.x, self.y)


def target_from_weights(rgb_weights, name: str = "") -> TargetColor:
    """Build a TargetColor from linear RGB weights via the BT.709 matrix."""
    w = np.asarray(rgb_weights, dtype=float)
    if w.shape != (3,):
        raise ValueError("expected exactly three rgb weights")
    if np.any(w < 0):
        raise ValueError("rgb weights must be non-negative")
    if not np.any(w):
        raise ValueError("rgb weights must not all be zero")
    xyz = _default_matrix() @ w
    chroma = xyz_to_chromaticity(xyz.tolist())
    return TargetColor(name, tuple(w), chroma.x, chroma.y, float(xyz[1]))


# unit weight patterns of the six fully saturated colors
_PRIMARY_WEIGHTS = {
    "R": (1.0, 0.0, 0.0),
    "G": (0.0, 1.0, 0.0),
    "B": (0.0, 0.0, 1.0),
    "C": (0.0, 1.0, 1.0),
    "M": (1.0, 0.0, 1.0),
    "Ye": (1.0, 1.0, 0.0),
}
# the saturated colors of the set, in its order: (saturation, name suffix, colors)
_SATURATED_SET = (
    (1.0, "", tuple(_PRIMARY_WEIGHTS)),
    (0.9, "_0.9", tuple(_PRIMARY_WEIGHTS)),
    (0.5, "_0.5", ("R", "G", "B")),
)


def saturated_weights(base: tuple[float, float, float], s: float) -> tuple[float, float, float]:
    """Mix toward equal weights: s * base + (1 - s) * (1/3, 1/3, 1/3)."""
    if not 0.0 <= s <= 1.0:
        raise ValueError("saturation must lie in [0, 1]")
    return tuple(s * w + (1.0 - s) / 3.0 for w in base)


def build_target_set() -> list[TargetColor]:
    """The sixteen-color assessment set.

    R, G, B, C, M, Ye at full saturation, the same six at 90% saturation,
    R, G, B at 50% saturation, plus white.
    """
    targets = [
        target_from_weights(saturated_weights(_PRIMARY_WEIGHTS[name], s), name=name + suffix)
        for s, suffix, names in _SATURATED_SET
        for name in names
    ]
    return targets + [target_from_weights((1.0, 1.0, 1.0), name="W")]
