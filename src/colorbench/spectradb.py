"""Reflectance database ingestion and nearest-spectrum matching.

Two text layouts are accepted.  Wide CSV has one record per row: an ``id``
column followed by integer wavelength headers.  Long CSV has columns
``id,wavelength_nm,value`` with each record's wavelengths strictly
increasing.  Every record is resampled to the working grid at load time and
its chromaticity under the session illuminant/observer is cached.

Matching is an exhaustive scan for the record minimizing the xyz
chromaticity distance; ties break on the lexicographically smallest id.
"""
from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .spectral import (
    Chromaticity,
    ObserverTables,
    SpectralDistribution,
    delta_e_xyz,
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
    """One database spectrum, resampled to the working grid."""

    id: str
    spectrum: SpectralDistribution
    cached_xy: Chromaticity


@dataclass(frozen=True)
class MatchResult:
    target_name: str
    record_id: str
    x_spectral: float
    y_spectral: float
    delta_e: float


def _record(rid, wavelengths, values, illuminant, obs, line_no) -> SpectraRecord:
    if np.any(np.asarray(values) < 0):
        raise ValueError(f"line {line_no}: record {rid!r} has a negative reflectance value")
    spd = to_working_grid(wavelengths, values)
    xy = xyz_to_chromaticity(spd_to_xyz(spd, illuminant, obs))
    return SpectraRecord(str(rid), spd, xy)


def _load_wide(lines, illuminant, obs):
    header = lines[0].split(",")
    if header[0].strip() != "id" or len(header) < 2:
        raise ValueError("line 1: wide CSV header must be 'id' followed by wavelengths")
    try:
        wavelengths = [float(h) for h in header[1:]]
    except ValueError:
        raise ValueError("line 1: wide CSV header wavelengths must be numeric") from None
    if any(b <= a for a, b in zip(wavelengths, wavelengths[1:])):
        raise ValueError("line 1: wide CSV wavelengths must be strictly increasing")
    records = []
    for i, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        parts = line.split(",")
        if len(parts) != len(header):
            raise ValueError(f"line {i}: expected {len(header)} fields, got {len(parts)}")
        try:
            values = [float(v) for v in parts[1:]]
        except ValueError as exc:
            raise ValueError(f"line {i}: {exc}") from None
        records.append(_record(parts[0].strip(), wavelengths, values, illuminant, obs, i))
    return records


def _load_long(lines, illuminant, obs):
    if lines[0].strip() != "id,wavelength_nm,value":
        raise ValueError("line 1: long CSV header must be 'id,wavelength_nm,value'")
    groups: dict[str, list[tuple[float, float]]] = {}
    order: list[str] = []
    first_line: dict[str, int] = {}
    for i, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        parts = line.split(",")
        if len(parts) != 3:
            raise ValueError(f"line {i}: expected three comma-separated fields")
        rid = parts[0].strip()
        try:
            w, v = float(parts[1]), float(parts[2])
        except ValueError as exc:
            raise ValueError(f"line {i}: {exc}") from None
        if rid not in groups:
            # records must be contiguous; a reappearing id is a duplicate
            if rid in first_line:
                raise ValueError(f"line {i}: duplicate record id {rid!r}")
            groups[rid] = []
            order.append(rid)
            first_line[rid] = i
        elif order[-1] != rid:
            raise ValueError(f"line {i}: duplicate record id {rid!r}")
        if groups[rid] and w <= groups[rid][-1][0]:
            raise ValueError(f"line {i}: wavelengths must be strictly increasing within a record")
        if v < 0:
            raise ValueError(f"line {i}: record {rid!r} has a negative reflectance value")
        groups[rid].append((w, v))
    records = []
    for rid in order:
        wl = [p[0] for p in groups[rid]]
        vals = [p[1] for p in groups[rid]]
        records.append(_record(rid, wl, vals, illuminant, obs, first_line[rid]))
    return records


def load_database(
    path,
    fmt: str = WIDE_CSV,
    illuminant: SpectralDistribution | None = None,
    obs: ObserverTables | None = None,
) -> list[SpectraRecord]:
    """Load a reflectance database file and cache per-record chromaticities."""
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"database not found: {path}")
    text = path.read_text(encoding="utf-8")
    lines = text.splitlines()
    if not lines or not any(l.strip() for l in lines):
        raise ValueError(f"{path}: empty database file")
    try:
        if fmt == WIDE_CSV:
            records = _load_wide(lines, illuminant, obs)
        elif fmt == LONG_CSV:
            records = _load_long(lines, illuminant, obs)
        else:
            raise ValueError(f"unknown database format {fmt!r}")
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    if not records:
        raise ValueError(f"{path}: database contains no records")
    seen = set()
    for r in records:
        if r.id in seen:
            raise ValueError(f"{path}: duplicate record id {r.id!r}")
        seen.add(r.id)
    return records


def match_nearest(targets, db: list[SpectraRecord]) -> list[MatchResult]:
    """For each target, the database record with minimal chromaticity error.

    Exhaustive scan; deterministic tie-break on the record id.
    """
    if not db:
        raise ValueError("cannot match against an empty database")
    results = []
    for target in targets:
        tc = target.chromaticity
        best = min(db, key=lambda r: (delta_e_xyz(tc, r.cached_xy), r.id))
        results.append(
            MatchResult(
                target_name=target.name,
                record_id=best.id,
                x_spectral=best.cached_xy.x,
                y_spectral=best.cached_xy.y,
                delta_e=delta_e_xyz(tc, best.cached_xy),
            )
        )
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
