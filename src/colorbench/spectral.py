"""CIE colorimetry on a fixed 1 nm working grid spanning 360-720 nm.

Tristimulus integration follows CIE 15: weighted sums of a sample spectrum
against an illuminant and a standard observer, normalized so that a perfect
reflector scores Y = 100 under the chosen illuminant.

Two luminance scales coexist in this package: the colorimetric Y on 0-100
and the TV-side relative luminance on 0-1.  ``y100_to_lc`` / ``lc_to_y100``
are the only sanctioned bridge between them.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import compress, repeat
from pathlib import Path
from typing import NamedTuple

import numpy as np

GRID_START_NM = 360
GRID_STOP_NM = 720
GRID_STEP_NM = 1
GRID_COUNT = (GRID_STOP_NM - GRID_START_NM) // GRID_STEP_NM + 1

_DATA_DIR = Path(__file__).parent / "data"

OBSERVER_2DEG = "degree2"
OBSERVER_10DEG = "degree10"

_OBSERVER_FILES = {
    OBSERVER_2DEG: "cie_1931_2deg_1nm.csv",
    OBSERVER_10DEG: "cie_1964_10deg_1nm.csv",
}


_GRID = np.arange(GRID_START_NM, GRID_STOP_NM + 1, GRID_STEP_NM, dtype=float)
_GRID.flags.writeable = False
_FLOAT64 = np.dtype(float)


def grid_wavelengths() -> np.ndarray:
    """Wavelengths of the working grid, in nm (one read-only array)."""
    return _GRID


@dataclass(frozen=True, eq=False)
class SpectralDistribution:
    """Non-negative spectral samples on the working grid, one per grid
    wavelength (see ``grid_wavelengths``)."""

    values: np.ndarray

    def __post_init__(self):
        vals = self.values
        if type(vals) is not np.ndarray or vals.dtype != _FLOAT64:
            vals = np.asarray(vals, dtype=float)
            object.__setattr__(self, "values", vals)
        if vals.shape != (GRID_COUNT,):
            raise ValueError(
                f"a spectral distribution holds the {GRID_COUNT} samples of the "
                f"{GRID_START_NM}-{GRID_STOP_NM} nm / {GRID_STEP_NM} nm working grid, "
                f"got shape {vals.shape}"
            )
        # a NaN anywhere makes the minimum NaN
        lo, hi = np.minimum.reduce(vals), np.maximum.reduce(vals)
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise ValueError("spectral samples must be finite")
        if lo < 0:
            raise ValueError("spectral samples must be non-negative")


def to_working_grid(wavelengths, values) -> SpectralDistribution:
    """Interpolate samples taken at increasing ``wavelengths`` (nm) onto the
    working grid: linear inside the source support, zero outside it."""
    vals = np.interp(
        _GRID, np.asarray(wavelengths, float), np.asarray(values, float), left=0.0, right=0.0
    )
    return SpectralDistribution(vals)


@dataclass(frozen=True, eq=False)
class ObserverTables:
    """Read-only (GRID_COUNT, 3) table of the color matching functions
    x_bar, y_bar, z_bar on the working grid, one column each."""

    cmf: np.ndarray
    observer_id: str

    def __post_init__(self):
        if self.observer_id not in _OBSERVER_FILES:
            raise ValueError(f"unknown observer id: {self.observer_id!r}")
        cmf = np.array(self.cmf, dtype=float)
        if cmf.shape != (GRID_COUNT, 3) or not (np.isfinite(cmf).all() and cmf.min() >= 0):
            raise ValueError(
                f"observer tables must be {GRID_COUNT}x3 finite, non-negative samples "
                "on the working grid"
            )
        cmf.flags.writeable = False
        object.__setattr__(self, "cmf", cmf)
        peak = _GRID[int(np.argmax(cmf[:, 1]))]
        if not 550.0 <= peak <= 560.0:
            raise ValueError(f"y_bar peak at {peak} nm is outside [550, 560]")


@dataclass(frozen=True)
class Tristimulus:
    """CIE XYZ; Y on the 0-100 scale unless stated otherwise."""

    X: float
    Y: float
    Z: float

    def __post_init__(self):
        X, Y, Z = self.X, self.Y, self.Z
        if not (type(X) is type(Y) is type(Z) is float):
            X, Y, Z = float(X), float(Y), float(Z)
            object.__setattr__(self, "X", X)
            object.__setattr__(self, "Y", Y)
            object.__setattr__(self, "Z", Z)
        if not (math.isfinite(X) and math.isfinite(Y) and math.isfinite(Z)):
            raise ValueError("tristimulus components must be finite")
        if X < 0 or Y < 0 or Z < 0:
            raise ValueError("tristimulus components must be non-negative")

    def as_array(self) -> np.ndarray:
        return np.array([self.X, self.Y, self.Z], dtype=float)


@dataclass(frozen=True)
class Chromaticity:
    """Normalized color coordinates x + y + z = 1."""

    x: float
    y: float
    z: float

    def __post_init__(self):
        x, y, z = self.x, self.y, self.z
        if not (type(x) is type(y) is type(z) is float):
            x, y, z = float(x), float(y), float(z)
            object.__setattr__(self, "x", x)
            object.__setattr__(self, "y", y)
            object.__setattr__(self, "z", z)
        if not (math.isfinite(x) and math.isfinite(y) and math.isfinite(z)):
            raise ValueError("chromaticity components must be finite")
        lo, hi = -1e-12, 1 + 1e-12
        if not (lo <= x <= hi and lo <= y <= hi and lo <= z <= hi):
            raise ValueError("chromaticity components must lie in [0, 1]")
        if abs(x + y + z - 1.0) > 1e-12:
            raise ValueError("chromaticity components must sum to 1")

    @classmethod
    def from_xy(cls, x: float, y: float) -> "Chromaticity":
        return cls(x, y, 1.0 - x - y)

    def as_array(self) -> np.ndarray:
        return np.array([self.x, self.y, self.z], dtype=float)


def line_error(path, line: int, message) -> ValueError:
    """The one form of an input-file error: ``<path>: line <n>: <message>``."""
    return ValueError(f"{path}: line {line}: {message}")


class CsvTable(NamedTuple):
    """Rows read by ``read_csv``, with the file line and id (if any) of each."""

    path: Path
    header_line: int
    lines: list[int]
    ids: list[str]
    values: np.ndarray
    columns: np.ndarray | None  # the numbers that end a numeric-columns header


def read_csv(path, header: str, numeric_columns: bool = False) -> CsvTable:
    """Read a comma-separated table of finite numbers.

    ``#`` lines before the header are comments.  The header is ``header``;
    if that starts with ``id``, so does every row.  With ``numeric_columns``
    the header is ``id`` followed by one or more numbers (a wide database's
    wavelengths).  Blank lines after the header are skipped, every other
    line has the header's field count, at least one row follows the header,
    and every error names its line.
    """
    path = Path(path)
    lines = path.read_text(encoding="utf-8").splitlines()
    first = next((n for n, line in enumerate(lines) if not line.startswith("#")), len(lines))
    expected = header + ",<wavelength>,..." * numeric_columns
    if first == len(lines):
        raise line_error(path, first + 1, f"empty file, expected header {expected!r}")
    names, fields = header.split(","), [f.strip() for f in lines[first].split(",")]
    if fields[: len(names)] != names or (len(fields) > len(names)) != numeric_columns:
        raise line_error(path, first + 1, f"expected header {expected!r}")
    width, skip = len(fields), int(names[0] == "id")
    # the numbers of a numeric-columns header parse as a first row
    start = first + 1 - numeric_columns
    rows, body = list(range(start + 1, len(lines) + 1)), lines[start:]
    if not all(map(str.strip, body)):  # blank lines are skipped
        keep = list(map(str.strip, body))
        rows, body = list(compress(rows, keep)), list(compress(body, keep))
    try:
        ids, values = _parse_body(body, width, skip)
    except ValueError:
        _raise_first_bad_line(path, rows, body, width, skip)
        raise
    finite = np.isfinite(values).all(axis=1)
    if not finite.all():
        raise line_error(path, rows[int(np.argmin(finite))], "numbers must be finite")
    if len(rows) == numeric_columns:
        raise line_error(path, len(lines) + 1, "expected at least one row after the header")
    k = int(numeric_columns)
    return CsvTable(path, first + 1, rows[k:], ids[k:], values[k:], values[0] if k else None)


def _parse_body(body: list[str], width: int, skip: int) -> tuple[list[str], np.ndarray]:
    """The ids (the first field of each line, if ``skip``) and the numbers
    of ``body``'s lines, all at once.  Raises ValueError, naming no line,
    if any line is malformed."""
    if list(map(str.count, body, repeat(","))).count(width - 1) != len(body):
        raise ValueError("a line has the wrong field count")
    fields = ",".join(body).split(",") if body else []
    ids = []
    if skip:
        ids = list(map(str.strip, fields[::width]))
        del fields[::width]
    # float() would also read '0_5' as 5.0 and non-ASCII digits
    numeric = ",".join(fields)
    if "_" in numeric or not numeric.isascii():
        raise ValueError("a number is not ASCII or holds '_'")
    values = np.fromiter(map(float, fields), float, len(fields))
    return ids, values.reshape(len(body), width - skip)


def _raise_first_bad_line(path, rows, body, width: int, skip: int) -> None:
    """Raise the line-numbered error of the first malformed line of
    ``body`` (see ``_parse_body``); return if there is none."""
    for n, line in zip(rows, body):
        parts = line.split(",")
        if len(parts) != width:
            raise line_error(path, n, f"expected {width} fields, got {len(parts)}")
        numeric = line[len(parts[0]) + 1 :] if skip else line
        if "_" in numeric or not numeric.isascii():
            raise line_error(path, n, "numbers must be ASCII, without '_'")
        try:
            list(map(float, parts[skip:]))
        except ValueError as exc:
            raise line_error(path, n, exc) from None


def check_samples(table: CsvTable, record_starts=()) -> None:
    """Require a spectral table's wavelengths to increase strictly within
    each record (``record_starts`` holds the index of each record's first
    row, in order) and its samples to be non-negative.  The wavelengths are
    the header's numeric columns if it has them, else the first number of
    each row; the samples are the other numbers."""
    wide = table.columns is not None
    rising = np.diff(table.columns if wide else table.values[:, 0]) > 0
    rising[np.asarray(record_starts[1:], dtype=int) - 1] = True
    if not rising.all():
        line = table.header_line if wide else table.lines[int(np.argmin(rising)) + 1]
        raise line_error(table.path, line, "wavelengths must be strictly increasing")
    negative = (table.values[:, int(not wide):] < 0).any(axis=1)
    if negative.any():
        line = table.lines[int(np.argmax(negative))]
        raise line_error(table.path, line, "samples must be non-negative")


@lru_cache(maxsize=None)
def load_observer(observer_id: str = OBSERVER_2DEG) -> ObserverTables:
    """Bundled CIE standard observer, resampled to the working grid."""
    if observer_id not in _OBSERVER_FILES:
        raise ValueError(f"unknown observer id: {observer_id!r}")
    path = _DATA_DIR / _OBSERVER_FILES[observer_id]
    table = read_csv(path, "wavelength_nm,x_bar,y_bar,z_bar").values
    cmf = [to_working_grid(table[:, 0], table[:, k]).values for k in (1, 2, 3)]
    return ObserverTables(np.stack(cmf, axis=1), observer_id)


@lru_cache(maxsize=None)
def load_illuminant(name: str = "D65") -> SpectralDistribution:
    """Bundled illuminant SPD on the working grid.

    ``D65`` is the CIE daylight table; ``E`` is the equal-energy spectrum.
    """
    key = name.upper()
    if key == "D65":
        return read_spectrum_csv(_DATA_DIR / "illuminant_d65_1nm.csv")
    if key == "E":
        return SpectralDistribution(np.full(GRID_COUNT, 100.0))
    raise ValueError(f"unknown illuminant {name!r} (expected 'D65' or 'E')")


def read_spectrum_csv(path) -> SpectralDistribution:
    """Read a ``wavelength_nm,value`` CSV (see ``read_csv``) with strictly
    increasing wavelengths and resample it to the working grid."""
    table = read_csv(path, "wavelength_nm,value")
    check_samples(table)
    return to_working_grid(*table.values.T)


@lru_cache(maxsize=8)
def tristimulus_weights(illuminant: SpectralDistribution, obs: ObserverTables) -> np.ndarray:
    """Read-only (GRID_COUNT, 3) table of S * {x_bar, y_bar, z_bar}.

    ``raw_tristimulus(spd)`` is ``spd.values @ table``.  Cached per
    (illuminant, observer) pair of objects.
    """
    with np.errstate(over="ignore"):
        table = illuminant.values[:, None] * obs.cmf
        sums = table.sum(axis=0)
        # the rectangle lattice adds X + Y + Z of the whole band
        total = sums.sum()
    if not np.isfinite(total):
        raise ValueError("the illuminant's weighted sums overflow the float range")
    if not sums[1] > 0:
        raise ValueError("the illuminant has no power where y_bar is positive")
    table.flags.writeable = False
    return table


@lru_cache(maxsize=8)
def _perfect_reflector_scale(illuminant: SpectralDistribution, obs: ObserverTables) -> float:
    """The factor that gives a perfect reflector Y = 100, keyed like
    ``tristimulus_weights``."""
    return 100.0 / float(np.sum(tristimulus_weights(illuminant, obs)[:, 1]))


def raw_tristimulus(
    spd: SpectralDistribution,
    illuminant: SpectralDistribution,
    obs: ObserverTables,
) -> tuple[float, float, float]:
    """Unnormalized weighted sums of S * P * {x_bar, y_bar, z_bar}."""
    # bit-equal to spd.values @ table, with less call overhead
    return tuple(spd.values.dot(tristimulus_weights(illuminant, obs)).tolist())


def spd_to_xyz(
    spd: SpectralDistribution,
    illuminant: SpectralDistribution | None = None,
    obs: ObserverTables | None = None,
) -> Tristimulus:
    """Integrate a spectrum to XYZ, normalized so a perfect reflector has Y=100."""
    illuminant = illuminant if illuminant is not None else load_illuminant("D65")
    obs = obs if obs is not None else load_observer(OBSERVER_2DEG)
    X, Y, Z = raw_tristimulus(spd, illuminant, obs)
    k = _perfect_reflector_scale(illuminant, obs)
    return Tristimulus(max(k * X, 0.0), max(k * Y, 0.0), max(k * Z, 0.0))


def xyz_to_chromaticity(t: Tristimulus) -> Chromaticity:
    """Project XYZ onto the chromaticity plane."""
    s = t.X + t.Y + t.Z
    if s <= 0:
        raise ValueError("cannot normalize a zero-sum tristimulus")
    z = 1.0 - t.X / s - t.Y / s
    return Chromaticity(t.X / s, t.Y / s, z)


def delta_e_xyz(a: Chromaticity, b: Chromaticity) -> float:
    """Euclidean distance between two chromaticities over (x, y, z)."""
    return math.sqrt((a.x - b.x) ** 2 + (a.y - b.y) ** 2 + (a.z - b.z) ** 2)


def y100_to_lc(y100: float) -> float:
    """Colorimetric Y (0-100) to TV relative luminance (0-1)."""
    return y100 / 100.0


def lc_to_y100(lc: float) -> float:
    """TV relative luminance (0-1) to colorimetric Y (0-100)."""
    return lc * 100.0


@lru_cache(maxsize=None)
def illuminant_white(name: str = "D65", observer_id: str = OBSERVER_2DEG) -> Chromaticity:
    """Chromaticity of a perfect reflector under the named bundled illuminant."""
    flat = SpectralDistribution(np.ones(GRID_COUNT))
    return xyz_to_chromaticity(
        spd_to_xyz(flat, load_illuminant(name), load_observer(observer_id))
    )


def _spectral_locus_xy(obs: ObserverTables) -> np.ndarray:
    return obs.cmf[:, :2] / obs.cmf.sum(axis=1)[:, None]


def dominant_wavelength(
    c: Chromaticity,
    white: Chromaticity,
    obs: ObserverTables | None = None,
) -> float | None:
    """Wavelength where the ray from the white point through ``c`` meets the
    spectral locus.

    Returns ``None`` when the ray exits through the purple line, i.e. the
    color only has a complementary wavelength.
    """
    obs = obs if obs is not None else load_observer(OBSERVER_2DEG)
    d = np.array([c.x - white.x, c.y - white.y])
    if float(np.hypot(*d)) < 1e-6:
        raise ValueError("color coincides with the white point")
    # segment i runs from locus[i] to locus[i + 1]; the last one, the purple
    # line, closes the locus back to locus[0]
    locus = _spectral_locus_xy(obs)
    e = np.roll(locus, -1, axis=0) - locus
    rhs = locus - np.array([white.x, white.y])
    # solve white + t*d == locus[i] + u*e[i] with t > 0, u in [0, 1] for every i
    det = e[:, 0] * d[1] - d[0] * e[:, 1]
    with np.errstate(divide="ignore", invalid="ignore"):
        t = (e[:, 0] * rhs[:, 1] - rhs[:, 0] * e[:, 1]) / det
        u = (d[0] * rhs[:, 1] - d[1] * rhs[:, 0]) / det
    hit = (np.abs(det) >= 1e-15) & (t > 1e-9) & (u >= -1e-9) & (u <= 1 + 1e-9)
    if hit[:-1].any():
        i = int(np.argmin(np.where(hit[:-1], t[:-1], np.inf)))
        return float(GRID_START_NM + (i + u[i]) * GRID_STEP_NM)
    if hit[-1]:  # the ray leaves through the purple line
        return None
    raise ValueError("ray from white through color intersects neither locus nor purple line")
