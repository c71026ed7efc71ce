"""Reflectance database ingestion and nearest-spectrum matching.

Two text layouts are accepted, both read by ``spectral.read_csv``.  Wide
CSV has one record per row: an ``id`` column followed by wavelength
headers.  Long CSV has columns ``id,wavelength_nm,value``; a record is a
run of rows with one id.  Each record's wavelengths strictly increase.
Each record is resampled to the working grid and integrated once at load
time; a loaded database is one table of the ids and, row for row, their
tristimulus and chromaticity.  Spectra are not kept.

Matching is an exhaustive search for the record minimizing the xyz
chromaticity distance; ties break on the lexicographically smallest id.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import compress
from operator import ne
from pathlib import Path

import numpy as np

from .spectral import (
    ObserverTables,
    SpectralDistribution,
    check_samples,
    line_error,
    read_csv,
    spd_to_xyz,
    to_working_grid,
    xyz_to_chromaticity,
)

WIDE_CSV = "wide_csv"
LONG_CSV = "long_csv"

MATCH_CSV_HEADER = "target,x_spectral,y_spectral,color_id,delta_e"


@dataclass(frozen=True, eq=False)
class SpectraTable:
    """A loaded database: the record ids in file order and, row for row,
    read-only ``(n, 3)`` float64 arrays of X, Y, Z and of chromaticity x, y, z."""

    ids: tuple[str, ...]
    xyz: np.ndarray
    chromaticity: np.ndarray

    def __len__(self) -> int:
        return len(self.ids)


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
) -> SpectraTable:
    """Load a reflectance database file (see ``spectral.read_csv``) into a
    ``SpectraTable`` under the given illuminant and observer."""
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"database not found: {path}")
    if fmt == WIDE_CSV:
        table = read_csv(path, "id", numeric_columns=True)
        check_samples(table)
        starts = range(len(table.ids))
        records = ((table.columns, row) for row in table.values)
    elif fmt == LONG_CSV:
        table = read_csv(path, "id,wavelength_nm,value")
        # a long record is a run of rows with one id
        ids = table.ids
        starts = [0, *compress(range(1, len(ids)), map(ne, ids[1:], ids))]
        check_samples(table, starts)
        ends = [*starts[1:], len(ids)]
        records = (table.values[a:b].T for a, b in zip(starts, ends))
    else:
        raise ValueError(f"unknown database format {fmt!r}")
    seen, rows = set(), []
    # a record whose resampled samples or weighted sums overflow fails a finite check below
    with np.errstate(over="ignore"):
        for k, (wavelengths, samples) in zip(starts, records):
            rid, line = table.ids[k], table.lines[k]
            if rid in seen:
                raise line_error(path, line, f"duplicate record id {rid!r}")
            seen.add(rid)
            try:
                xyz = spd_to_xyz(to_working_grid(wavelengths, samples), illuminant, obs)
                xy = xyz_to_chromaticity(xyz)
            except ValueError as exc:
                raise line_error(path, line, f"record {rid!r}: {exc}") from None
            rows.append((*xyz, xy.x, xy.y, xy.z))
    rows = np.array(rows)
    rows.flags.writeable = False  # and so are its views
    return SpectraTable(tuple(table.ids[k] for k in starts), rows[:, :3], rows[:, 3:])


def match_nearest(targets, table: SpectraTable) -> list[MatchResult]:
    """For each target, the database record with minimal chromaticity error.

    Exhaustive search over one (targets, records) distance array;
    deterministic tie-break on the record id.
    """
    if not len(table):
        raise ValueError("cannot match against an empty database")
    targets = list(targets)
    # records in id order (then file order): the first minimum of a row is
    # then the smallest id among equal distances
    order = sorted(range(len(table)), key=table.ids.__getitem__)
    xyz = table.chromaticity[order]
    tc = np.array([(t.chromaticity.x, t.chromaticity.y, t.chromaticity.z) for t in targets], float)
    tc = tc.reshape(-1, 3)  # no targets: (0, 3)
    # (dx**2 + dy**2) + dz**2, as _xyz_distance adds it, one component at a
    # time.  float_power calls the C library's pow, as Python's ** does; d * d
    # differs from it in the last bit for about 1 value in 1,000
    sq = np.zeros((len(targets), len(table)))
    for c in range(3):
        sq += np.float_power(tc[:, c, None] - xyz[:, c], 2.0)
    dist = np.sqrt(sq)
    best = dist.argmin(axis=1)
    delta_e = dist.min(axis=1).tolist()
    return [
        MatchResult(target.name, table.ids[order[j]], *xyz[j, :2].tolist(), de)
        for target, j, de in zip(targets, best.tolist(), delta_e)
    ]


def match_csv(results) -> str:
    lines = [MATCH_CSV_HEADER]
    for r in results:
        lines.append(
            f"{r.target_name},{r.x_spectral!r},{r.y_spectral!r},{r.record_id},{r.delta_e!r}"
        )
    return "\n".join(lines) + "\n"

