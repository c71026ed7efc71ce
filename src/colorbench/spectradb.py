"""Reflectance database ingestion and nearest-spectrum matching.

Two text layouts are accepted, both read by ``spectral.read_csv``.  Wide
CSV has one record per row: an ``id`` column followed by wavelength
headers.  Long CSV has columns ``id,wavelength_nm,value``; a record is a
run of rows with one id.  Each record's wavelengths strictly increase.
Every record is resampled to the working grid at load time and its
tristimulus and chromaticity under the session illuminant/observer are
cached.

Matching is an exhaustive scan for the record minimizing the xyz
chromaticity distance; ties break on the lexicographically smallest id.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import compress, count, repeat
from operator import ne
from pathlib import Path

import numpy as np

from .spectral import (
    Chromaticity,
    ObserverTables,
    SpectralDistribution,
    Tristimulus,
    check_samples,
    delta_e_xyz,
    line_error,
    read_csv,
    spd_to_xyz,
    to_working_grid,
    xyz_to_chromaticity,
)
from .targets import TargetColor, target_from_weights

WIDE_CSV = "wide_csv"
LONG_CSV = "long_csv"

MATCH_CSV_HEADER = "target,x_spectral,y_spectral,color_id,delta_e"


@dataclass(frozen=True, eq=False)
class SpectraRecord:
    """One database spectrum, resampled to the working grid, with its
    tristimulus and chromaticity under the session illuminant and observer
    (``xyz`` is None on a record built without one)."""

    id: str
    spectrum: SpectralDistribution
    cached_xy: Chromaticity
    xyz: Tristimulus | None = None


@dataclass(frozen=True)
class MatchResult:
    target_name: str
    record_id: str
    x_spectral: float
    y_spectral: float
    delta_e: float


def load_database(
    path,
    fmt: str = WIDE_CSV,
    illuminant: SpectralDistribution | None = None,
    obs: ObserverTables | None = None,
) -> list[SpectraRecord]:
    """Load a reflectance database file (see ``spectral.read_csv``) and cache
    per-record tristimulus values and chromaticities."""
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"database not found: {path}")
    if fmt == WIDE_CSV:
        table = read_csv(path, "id", numeric_columns=True)
        check_samples(table)
        starts = range(len(table.ids))
        spds = (to_working_grid(table.columns, row) for row in table.values)
    elif fmt == LONG_CSV:
        table = read_csv(path, "id,wavelength_nm,value")
        # a long record is a run of rows with one id
        ids = table.ids
        starts = [0, *compress(range(1, len(ids)), map(ne, ids[1:], ids))]
        check_samples(table, starts)
        ends = [*starts[1:], len(ids)]
        spds = (to_working_grid(*table.values[a:b].T) for a, b in zip(starts, ends))
    else:
        raise ValueError(f"unknown database format {fmt!r}")
    records, seen = [], set()
    # a record whose weighted sums overflow fails the Tristimulus check below
    with np.errstate(over="ignore"):
        for k, spd in zip(starts, spds):
            rid, line = table.ids[k], table.lines[k]
            if rid in seen:
                raise line_error(path, line, f"duplicate record id {rid!r}")
            seen.add(rid)
            try:
                xyz = spd_to_xyz(spd, illuminant, obs)
                xy = xyz_to_chromaticity(xyz)
            except ValueError as exc:
                raise line_error(path, line, f"record {rid!r}: {exc}") from None
            records.append(SpectraRecord(rid, spd, xy, xyz))
    return records


def match_nearest(targets, db: list[SpectraRecord]) -> list[MatchResult]:
    """For each target, the database record with minimal chromaticity error.

    Exhaustive scan; deterministic tie-break on the record id.
    """
    if not db:
        raise ValueError("cannot match against an empty database")
    xys, ids = [r.cached_xy for r in db], [r.id for r in db]
    results = []
    for target in targets:
        # min over (delta_e, id, index): the index keeps the first of equal keys
        delta_e, rid, k = min(zip(map(delta_e_xyz, repeat(target.chromaticity), xys), ids, count()))
        results.append(MatchResult(target.name, rid, xys[k].x, xys[k].y, delta_e))
    return results


def match_csv(results) -> str:
    lines = [MATCH_CSV_HEADER]
    for r in results:
        lines.append(
            f"{r.target_name},{r.x_spectral!r},{r.y_spectral!r},{r.record_id},{r.delta_e!r}"
        )
    return "\n".join(lines) + "\n"


# unit weight patterns of the six fully saturated colors
_PRIMARY_WEIGHTS = {
    "R": (1.0, 0.0, 0.0),
    "G": (0.0, 1.0, 0.0),
    "B": (0.0, 0.0, 1.0),
    "C": (0.0, 1.0, 1.0),
    "M": (1.0, 0.0, 1.0),
    "Ye": (1.0, 1.0, 0.0),
}


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
    names = ("R", "G", "B", "C", "M", "Ye")
    targets = []
    for s, suffix in ((1.0, ""), (0.9, "_0.9")):
        for name in names:
            targets.append(
                target_from_weights(
                    saturated_weights(_PRIMARY_WEIGHTS[name], s), name=f"{name}{suffix}"
                )
            )
    for name in ("R", "G", "B"):
        targets.append(
            target_from_weights(
                saturated_weights(_PRIMARY_WEIGHTS[name], 0.5), name=f"{name}_0.5"
            )
        )
    targets.append(target_from_weights((1.0, 1.0, 1.0), name="W"))
    return targets
