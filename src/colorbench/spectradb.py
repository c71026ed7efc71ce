"""Reflectance database ingestion and nearest-spectrum matching.

Two text layouts are accepted, both read by ``spectral.read_csv``.  Wide
CSV has one record per row: an ``id`` column followed by wavelength
headers.  Long CSV has columns ``id,wavelength_nm,value``; a record is a
run of rows with one id.  Each record's wavelengths strictly increase.
A load runs in blocks of records: their resampled spectra are checked as
one stack, each is integrated once, and one pass projects the block onto
chromaticity; the first bad record in file order is reported at its line.
A loaded database is one table of the ids and, row for row, their
tristimulus and chromaticity.  Spectra are not kept.

Matching is an exhaustive search for the record minimizing the xyz
chromaticity distance; ties break on the lexicographically smallest id.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import compress, islice
from operator import ne
from pathlib import Path

import numpy as np

from .spectral import (
    GRID_COUNT,
    ObserverTables,
    SpectralDistribution,
    _built_spectrum,
    _chromaticities,
    _first_failure,
    _resample,
    _SAMPLE_RULE,
    _sample_tests,
    check_samples,
    line_error,
    read_csv,
    spd_to_xyz,
)

WIDE_CSV = "wide_csv"
LONG_CSV = "long_csv"

MATCH_CSV_HEADER = "target,x_spectral,y_spectral,color_id,delta_e"

_BLOCK_RECORDS = 64  # a block's resampled spectra take 64 x GRID_COUNT x 8 B, 185 KB


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
    ids = [table.ids[k] for k in starts]
    seen = set()  # the records before the first duplicate id load, then its error is raised
    count = next((k for k, rid in enumerate(ids) if rid in seen or seen.add(rid)), len(ids))
    rows = np.empty((count, 6))
    # a record whose resampled samples or weighted sums overflow fails a finite check
    with np.errstate(over="ignore"):
        for a in range(0, count, _BLOCK_RECORDS):
            bad, message = _load_block(rows[a : a + _BLOCK_RECORDS], records, illuminant, obs)
            if message:
                line = table.lines[starts[a + bad]]
                raise line_error(path, line, f"record {ids[a + bad]!r}: {message}")
    if count < len(ids):
        line = table.lines[starts[count]]
        raise line_error(path, line, f"duplicate record id {ids[count]!r}")
    rows.flags.writeable = False  # and so are its views
    return SpectraTable(tuple(ids), rows[:, :3], rows[:, 3:])


def _load_block(rows: np.ndarray, records, illuminant, obs) -> tuple[int, str]:
    """Fill the ``(n, 6)`` ``rows`` with X, Y, Z, x, y, z of the next ``n``
    ``records``.  Returns the first record that fails a check (samples,
    tristimulus, chromaticity) and the message of the first it fails, or ``(n, "")``."""
    spectra = np.empty((len(rows), GRID_COUNT))
    for k, (wavelengths, samples) in enumerate(islice(records, len(rows))):
        spectra[k] = _resample(wavelengths, samples)
    bad, message = _first_failure(_sample_tests(spectra), _SAMPLE_RULE)
    xyz = []
    for values in spectra[:bad]:  # checked by the block's sample test
        try:
            xyz.append(spd_to_xyz(_built_spectrum(values), illuminant, obs))
        except ValueError as exc:
            bad, message = len(xyz), str(exc)
            break
    done = rows[: len(xyz)]
    done[:, :3] = np.reshape(xyz, (-1, 3))
    done[:, 3:], row, fault = _chromaticities(done[:, :3])
    return (row, fault) if fault else (bad, message)


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
    rows = [f"{r.target_name},{r.x_spectral!r},{r.y_spectral!r},{r.record_id},{r.delta_e!r}\n"
            for r in results]
    return MATCH_CSV_HEADER + "\n" + "".join(rows)

