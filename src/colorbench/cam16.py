"""CAM16 color appearance model.

Implements the forward model (XYZ plus viewing conditions to the appearance
correlates J, C, h, M, s, Q), the analytic inverse, and the inverse of the
CAM16-UCS colorfulness compression, M' to M, for the atlas's UCS lattice.

Viewing conditions:

``white``     reference white (X, Y, Z), scaled to Y_w = 100.
``Y_b``       relative luminance of the background region, in (0, 100]; 20 is the
              usual gray-world value.
``L_A``       luminance of the adapting field in cd/m2.
``surround``  'average', 'dim' or 'dark', selecting the (F, c, N_c) triple.
``D``         degree of adaptation; None selects the surround-derived
              formula clamped to [0, 1].

A constructed ``Cam16ViewingConditions`` precomputes every derived constant
and is immutable, so one instance can be shared freely between threads.  The
inverse's terms fixed by J and one instance are cached (``_slice_terms``).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .spectral import OBSERVER_2DEG, _finite_xyz, illuminant_white

# CAT16 chromatic adaptation matrix and its inverse
M16 = np.array([
    [0.401288, 0.650173, -0.051461],
    [-0.250268, 1.204414, 0.045854],
    [-0.002079, 0.048952, 0.953127],
])
M16_INV = np.linalg.inv(M16)

# opponent decomposition used by the inverse, scaled by 1/1403
_M_AB = np.array([
    [460.0, 451.0, 288.0],
    [460.0, -891.0, -261.0],
    [460.0, -220.0, -6300.0],
])

SURROUNDS = {
    "average": (1.0, 0.69, 1.0),
    "dim": (0.9, 0.59, 0.9),
    "dark": (0.8, 0.525, 0.8),
}


def d65_white_tristimulus(observer_id: str = OBSERVER_2DEG) -> tuple[float, float, float]:
    """Bundled-table D65 white (X, Y, Z) with Y scaled to 100."""
    w = illuminant_white("D65", observer_id)
    return 100.0 * w.x / w.y, 100.0, 100.0 * w.z / w.y


@dataclass(frozen=True, eq=False)
class Cam16ViewingConditions:
    white: tuple[float, float, float] = field(default_factory=d65_white_tristimulus)
    Y_b: float = 20.0
    L_A: float = 50.0
    surround: str = "average"
    D: float | None = None

    def __post_init__(self):
        if self.surround not in SURROUNDS:
            raise ValueError(f"surround must be one of {tuple(SURROUNDS)}, got {self.surround!r}")
        if not 0.0 < self.L_A < math.inf:
            raise ValueError("adapting luminance L_A must be finite and positive")
        white = tuple(map(float, self.white))
        if len(white) != 3 or not all(0.0 <= v < math.inf for v in white):
            raise ValueError("reference white must be three finite, non-negative numbers")
        if abs(white[1] - 100.0) > 1e-6:
            raise ValueError("reference white must be scaled to Y_w = 100")
        # N_bb raises n = Y_b / Y_w to a negative power, so n must not round to 0
        if not (0.0 < self.Y_b / white[1] and self.Y_b <= 100.0):
            raise ValueError("background luminance Y_b must lie in (0, 100]")
        if self.D is not None and not 0.0 <= self.D <= 1.0:
            raise ValueError("explicit degree of adaptation D must lie in [0, 1]")

        F, c, N_c = SURROUNDS[self.surround]
        d = self.D
        if d is None:
            d = F * (1.0 - (1.0 / 3.6) * math.exp((-self.L_A - 42.0) / 92.0))
            d = min(max(d, 0.0), 1.0)

        k = 1.0 / (5.0 * self.L_A + 1.0)
        k4 = k**4
        F_L = 0.2 * k4 * 5.0 * self.L_A + 0.1 * (1.0 - k4) ** 2 * (5.0 * self.L_A) ** (1.0 / 3.0)
        # the inverse scales by 100 / F_L, so that must be finite as well; then
        # F_L**0.25 and A_w are finite and positive too
        if not (0.0 < F_L < math.inf and 100.0 / F_L < math.inf):
            raise ValueError(
                f"adapting luminance L_A = {self.L_A!r} is outside the range CAM16 can evaluate"
            )

        n = self.Y_b / white[1]
        z = 1.48 + math.sqrt(n)
        N_bb = 0.725 * n**-0.2

        rgb_w = M16 @ np.array(white)
        d_rgb = d * white[1] / rgb_w + 1.0 - d
        rgb_aw = _adapt(d_rgb * rgb_w, F_L)
        A_w = float(N_bb * (2.0 * rgb_aw[0] + rgb_aw[1] + 0.05 * rgb_aw[2]))

        # frozen: the fields and derived constants are set past its __setattr__
        self.__dict__.update(
            white=white, c=c, N_c=N_c, D_eff=d, F_L=F_L, F_L_root=F_L**0.25, n=n, z=z,
            N_bb=N_bb, N_cb=N_bb, alpha_factor=(1.64 - 0.29**n) ** 0.73,
            d_rgb=tuple(d_rgb.tolist()), A_w=A_w,
        )


class Cam16Appearance(NamedTuple):
    """CAM16 correlates: lightness J, chroma C, hue angle h (degrees, in
    [0, 360)), colorfulness M, saturation s, brightness Q."""

    J: float
    C: float
    h: float
    M: float
    s: float
    Q: float


def _adapt(rgb, F_L: float) -> list[float]:
    """Post-adaptation cone compression; sign-preserving."""
    t = (np.array([F_L * abs(v) / 100.0 for v in rgb]) ** 0.42).tolist()
    return [math.copysign(400.0 * u / (u + 27.13), v) for u, v in zip(t, rgb)]


def cam16_forward(xyz, vc: Cam16ViewingConditions) -> Cam16Appearance:
    """An (X, Y, Z) sequence (Y on 0-100) to CAM16 appearance correlates;
    ValueError for a non-physical stimulus that has no real chroma."""
    rgb_a = _adapt([d * v for d, v in zip(vc.d_rgb, M16.dot(xyz).tolist())], vc.F_L)

    a = rgb_a[0] - 12.0 * rgb_a[1] / 11.0 + rgb_a[2] / 11.0
    b = (rgb_a[0] + rgb_a[1] - 2.0 * rgb_a[2]) / 9.0
    h_rad = math.atan2(b, a)
    h = math.degrees(h_rad) % 360.0 % 360.0  # once leaves 360.0 for a hue just below 0

    A = vc.N_bb * (2.0 * rgb_a[0] + rgb_a[1] + 0.05 * rgb_a[2])
    if A <= 0.0:
        return Cam16Appearance(0.0, 0.0, h, 0.0, 0.0, 0.0)

    J = 100.0 * (A / vc.A_w) ** (vc.c * vc.z)
    Q = (4.0 / vc.c) * math.sqrt(J / 100.0) * (vc.A_w + 4.0) * vc.F_L_root

    e_t = 0.25 * (math.cos(h_rad + 2.0) + 3.8)
    chroma_base = rgb_a[0] + rgb_a[1] + 1.05 * rgb_a[2] + 0.305
    if chroma_base <= 0:  # t would be negative and t ** 0.9 complex, or divided by 0
        raise ValueError(
            "non-physical stimulus: R'_a + G'_a + 1.05 B'_a + 0.305 <= 0 leaves no real chroma"
        )
    t = (50000.0 / 13.0) * vc.N_c * vc.N_cb * e_t * math.hypot(a, b) / chroma_base
    alpha = t**0.9 * vc.alpha_factor
    C = alpha * math.sqrt(J / 100.0)
    M = C * vc.F_L_root
    s = 100.0 * math.sqrt(M / Q) if Q > 0 else 0.0
    return Cam16Appearance(J, C, h, M, s, Q)


@lru_cache(maxsize=8)
def _slice_terms(J: float, vc: Cam16ViewingConditions) -> tuple[float, float, float, float]:
    """``cam16_inverse``'s terms fixed by J and ``vc`` (one atlas slice): A / N_bb,
    sqrt(J / 100), p1's (50000 / 13) N_c N_cb prefix and 100 / F_L."""
    A = vc.A_w * (J / 100.0) ** (1.0 / (vc.c * vc.z))
    return A / vc.N_bb, math.sqrt(J / 100.0), (50000.0 / 13.0) * vc.N_c * vc.N_cb, 100.0 / vc.F_L


def cam16_inverse(
    J: float,
    h: float,
    vc: Cam16ViewingConditions,
    M: float,
) -> tuple[float, float, float]:
    """CAM16 lightness J, hue angle h (degrees) and colorfulness M back to (X, Y, Z)."""
    if J < 0 or M < 0:
        raise ValueError("J and M must be non-negative")
    C = M / vc.F_L_root
    if J / 100.0 == 0.0:  # J is 0, or so small that J / 100 rounds to 0
        if C > 0:
            raise ValueError("chromatic appearance with zero lightness is not invertible")
        return 0.0, 0.0, 0.0
    p2, root_j, p1_prefix, scale = _slice_terms(J, vc)

    h_rad = math.radians(h % 360.0)
    cos_h, sin_h = math.cos(h_rad), math.sin(h_rad)

    alpha = C / root_j
    t = (alpha / vc.alpha_factor) ** (10.0 / 9.0)
    p1 = p1_prefix * (0.25 * (math.cos(h_rad + 2.0) + 3.8))

    if t > 0.0:
        gamma = 23.0 * (p2 + 0.305) * t / (23.0 * p1 + t * (11.0 * cos_h + 108.0 * sin_h))
    else:
        gamma = 0.0
    a, b = gamma * cos_h, gamma * sin_h

    ra, ga, ba = _M_AB.dot([p2, a, b]).tolist()
    ra, ga, ba = ra / 1403.0, ga / 1403.0, ba / 1403.0
    ar, ag, ab = abs(ra), abs(ga), abs(ba)
    if ar >= 400.0 or ag >= 400.0 or ab >= 400.0:
        raise ValueError("appearance outside the invertible range (|response| >= 400)")
    # numpy's array ** as in _adapt: Python's float ** differs in the last bit for ~5 % of inputs
    core = [27.13 * ar / (400.0 - ar), 27.13 * ag / (400.0 - ag), 27.13 * ab / (400.0 - ab)]
    u, v, w = (np.array(core) ** (1.0 / 0.42)).tolist()
    dr, dg, db = vc.d_rgb
    cone = [math.copysign(scale * u, ra) / dr, math.copysign(scale * v, ga) / dg,
            math.copysign(scale * w, ba) / db]
    # |M16_INV|'s rows add up to 3.03 at most: only responses past 1e307 can overflow the dot
    if abs(cone[0]) + abs(cone[1]) + abs(cone[2]) < 1e307:
        X, Y, Z = M16_INV.dot(cone).tolist()
    else:
        with np.errstate(over="ignore", invalid="ignore"):
            X, Y, Z = _finite_xyz(*M16_INV.dot(cone).tolist())
    if X < -1e-6 or Y < -1e-6 or Z < -1e-6:
        raise ValueError("appearance inverts to a non-physical (negative) stimulus")
    # -0.0 becomes 0.0, as np.clip; both paths above leave X, Y and Z finite
    return 0.0 if X <= 0.0 else X, 0.0 if Y <= 0.0 else Y, 0.0 if Z <= 0.0 else Z


def ucs_colorfulness_to_m(M_prime: float) -> float:
    """Invert the UCS colorfulness compression."""
    return math.expm1(0.0228 * M_prime) / 0.0228
