"""Seeded inputs for the benchmark workloads.

The same seed always gives the same inputs.  Each generator stratifies its
draws, so every seed covers the same mix of input kinds (saturation classes,
spacings, source grids and layouts) and only the values inside each stratum
move; this keeps run-to-run spread down without fixing the data.
"""
from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

# The ten-color reference suite: weights and the genus the paper assigns.
TABLE1_COLUMNS = (
    ("R", (1.0, 0.0, 0.0), "band_stop"),
    ("G", (0.0, 1.0, 0.0), "band_pass"),
    ("B", (0.0, 0.0, 1.0), "band_stop"),
    ("Ye", (0.5, 0.5, 0.0), "band_pass"),
    ("C", (0.0, 0.5, 0.5), "band_pass"),
    ("M", (0.5, 0.0, 0.5), "band_stop"),
    ("R05", (2 / 3, 1 / 6, 1 / 6), "band_stop"),
    ("G05", (1 / 6, 2 / 3, 1 / 6), "band_pass"),
    ("B05", (1 / 6, 1 / 6, 2 / 3), "band_stop"),
    ("WW", (1.0, 1.0, 1.0), "band_pass"),
)
# Printed cut wavelengths of the eight columns the solver reproduces; Ye and
# C are unreachable for their assigned genus at the seed commit.
PRINTED_CUTS = {
    "R": (412.0, 584.0),
    "G": (481.0, 592.0),
    "B": (497.0, 660.0),
    "M": (496.0, 585.0),
    "R05": (445.0, 545.0),
    "G05": (460.0, 608.0),
    "B05": (526.0, 612.0),
    "WW": (360.0, 720.0),
}

# saturation ranges of the random solve targets: saturated, mid, near-white
SATURATION_CLASSES = ((0.95, 1.0), (0.4, 0.8), (0.01, 0.08))
SOLVE_PER_CLASS = 45

ATLAS_SPACINGS = (1.0, 1.5, 2.0)
ATLAS_J_STRATA = 5
ATLAS_J_RANGE = (20.0, 80.0)
ATLAS_BOUND = 60.0
CHART_SIDE_PX = 1450
CHART_GAP_PX = 2

DB_GRIDS = {"5nm": (380, 780, 5), "10nm": (400, 700, 10), "1nm": (360, 720, 1)}
# Records per database kind, before a seeded jitter of up to 6 %.  They are
# scaled so every kind costs about the same per op at the seed commit (about
# 80 ms); with equal counts the kinds form clusters up to 5x apart, and the
# median op time would jump between clusters from run to run.
DB_RECORDS = {
    ("5nm", "wide_csv"): 420,
    ("5nm", "long_csv"): 220,
    ("10nm", "wide_csv"): 440,
    ("10nm", "long_csv"): 310,
    ("1nm", "wide_csv"): 220,
    ("1nm", "long_csv"): 70,
}
DB_JITTER = 0.06


@dataclass(frozen=True)
class SolveTarget:
    name: str
    x: float
    y: float
    L_C: float
    genus: str  # "auto" for the random targets


def _hue_rgb(h: float) -> np.ndarray:
    """Fully saturated RGB weights (max 1, min 0) at hue angle h degrees."""
    k = (np.array([5.0, 3.0, 1.0]) + h / 60.0) % 6.0
    return 1.0 - np.clip(np.minimum(np.minimum(k, 4.0 - k), 1.0), 0.0, 1.0)


def solve_targets(seed: int, colorimetry) -> list[SolveTarget]:
    """One pass: the ten reference columns, then random BT.709 targets.

    Random targets are stratified by hue and saturation within each
    saturation class, and the classes are interleaved so any prefix of the
    pass holds all three.
    """
    targets = []
    for name, weights, genus in TABLE1_COLUMNS:
        x, y, lc = colorimetry.target(weights)
        targets.append(SolveTarget(name, x, y, min(lc, 1.0), genus))
    rng = np.random.default_rng([seed, 1])
    classes = []
    strata = lambda: (rng.permutation(SOLVE_PER_CLASS) + rng.random(SOLVE_PER_CLASS)) / SOLVE_PER_CLASS  # noqa: E731
    for lo, hi in SATURATION_CLASSES:
        # a Latin hypercube over hue and saturation within the class
        hues, sats = 360.0 * strata(), lo + (hi - lo) * strata()
        classes.append([(h, s, rng.uniform(0.4, 1.0)) for h, s in zip(hues, sats)])
    for i, group in enumerate(zip(*classes)):
        for c, (h, s, v) in enumerate(group):
            weights = v * ((1.0 - s) + s * _hue_rgb(h))
            x, y, lc = colorimetry.target(weights)
            targets.append(SolveTarget(f"rand{c}_{i}", x, y, min(lc, 1.0), "auto"))
    return targets


@dataclass(frozen=True)
class AtlasDraw:
    J: float
    spacing: float

    @property
    def lattice_side(self) -> int:
        return 2 * int(ATLAS_BOUND // self.spacing) + 1

    @property
    def max_candidates(self) -> int:
        return self.lattice_side**2

    def layout(self) -> tuple[int, int, int]:
        """Square (cols, patch_px, gap_px) with one cell per lattice
        candidate, about CHART_SIDE_PX wide."""
        cols = self.lattice_side
        return cols, (CHART_SIDE_PX - CHART_GAP_PX) // cols - CHART_GAP_PX, CHART_GAP_PX


def atlas_draws(seed: int) -> list[AtlasDraw]:
    """One pass of distinct (J, spacing) draws: every spacing at every J
    stratum, ordered so consecutive draws cycle through the spacings."""
    rng = np.random.default_rng([seed, 2])
    lo, hi = ATLAS_J_RANGE
    width = (hi - lo) / ATLAS_J_STRATA
    draws = []
    for k in rng.permutation(ATLAS_J_STRATA):
        for s in rng.permutation(ATLAS_SPACINGS):
            draws.append(AtlasDraw(round(float(lo + width * (k + rng.random())), 2), float(s)))
    return draws


@dataclass(frozen=True)
class Database:
    path: Path
    fmt: str


def _reflectances(rng, wl: np.ndarray, n: int) -> np.ndarray:
    """Smooth synthetic reflectances in [0, 1]: a base level plus a few
    Gaussian bands, so chromaticities spread over the gamut."""
    out = np.full((n, wl.size), 0.0)
    out += rng.uniform(0.02, 0.3, (n, 1))
    for _ in range(3):
        centre = rng.uniform(380, 720, (n, 1))
        width = rng.uniform(15, 80, (n, 1))
        out += rng.uniform(0.0, 0.8, (n, 1)) * np.exp(-0.5 * ((wl - centre) / width) ** 2)
    return np.clip(out, 0.0, 1.0)


def write_databases(seed: int, directory: Path) -> list[Database]:
    """One database per (source grid, layout); the seed sets each record
    count, the spectra and the order."""
    rng = np.random.default_rng([seed, 3])
    kinds = list(DB_RECORDS)
    out = []
    for i in rng.permutation(len(kinds)):
        grid, fmt = kinds[i]
        start, stop, step = DB_GRIDS[grid]
        wl = np.arange(start, stop + 1, step)
        n = int(round(DB_RECORDS[grid, fmt] * (1.0 + DB_JITTER * rng.uniform(-1.0, 1.0))))
        values = _reflectances(rng, wl.astype(float), n)
        ids = [f"s{seed}_{grid}_{j:05d}" for j in rng.permutation(n)]
        path = directory / f"db_{grid}_{fmt}.csv"
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            if fmt == "wide_csv":
                fh.write("id," + ",".join(str(w) for w in wl) + "\n")
                for rid, row in zip(ids, values):
                    fh.write(rid + "," + ",".join(f"{v:.6f}" for v in row) + "\n")
            else:
                fh.write("id,wavelength_nm,value\n")
                for rid, row in zip(ids, values):
                    fh.writelines(f"{rid},{w},{v:.6f}\n" for w, v in zip(wl, row))
        out.append(Database(path, fmt))
    return out
