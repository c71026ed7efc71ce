"""CIE colorimetry on a fixed 1 nm working grid spanning 360-720 nm.

XYZ integration follows CIE 15: weighted sums of a sample spectrum against
an illuminant and a standard observer, normalized so that a perfect
reflector scores Y = 100 under the chosen illuminant.  One stimulus is an
``(X, Y, Z)`` tuple of floats, many are an ``(n, 3)`` array.
"""
from __future__ import annotations

import math
import re
import stat
from dataclasses import dataclass
from functools import lru_cache, partial
from itertools import chain, compress, starmap
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

# the largest file written and read back: an atlas CSV of MAX_ATLAS_CANDIDATES rows of 182 B, 46 MB.
# A load of a 64 MiB database peaks at 128 MiB (tracemalloc), the file's bytes and its text,
# in either layout; read_csv's parse after that holds about 1.9x the file size
MAX_INPUT_BYTES = 64 * 2**20


@dataclass(frozen=True, eq=False)
class SpectralDistribution:
    """Non-negative spectral samples on the working grid, one per grid
    wavelength from ``GRID_START_NM`` to ``GRID_STOP_NM``.

    The constructor checks every sample; the one unchecked wrap is
    ``_built_spectrum``, for samples built finite and non-negative by construction."""

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


def _built_spectrum(values: np.ndarray) -> SpectralDistribution:
    """``values`` as a SpectralDistribution without the constructor's checks.

    The caller guarantees what the constructor would check: a float64 array of
    shape ``(GRID_COUNT,)``, every sample finite and non-negative."""
    spd = object.__new__(SpectralDistribution)
    object.__setattr__(spd, "values", values)
    return spd


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


def line_error(path, line: int, message) -> ValueError:
    """The one form of an input-file error: ``<path>: line <n>: <message>``."""
    return ValueError(f"{path}: line {line}: {message}")


def _read_text(path) -> str:
    """The UTF-8 text of a regular file of at most ``MAX_INPUT_BYTES``, both checked
    before it is opened; a ValueError names ``path``, an OSError passes through."""
    info = Path(path).stat()
    if not stat.S_ISREG(info.st_mode):
        raise ValueError(f"{path}: not a regular file")
    if info.st_size <= MAX_INPUT_BYTES:
        with open(path, "rb") as fh:  # one byte more finds a file that grew since the stat
            data = fh.read(info.st_size + 1)
            if len(data) > info.st_size:  # read on to one byte past the bound
                data += fh.read(MAX_INPUT_BYTES + 1 - len(data))
    if info.st_size > MAX_INPUT_BYTES or len(data) > MAX_INPUT_BYTES:
        raise ValueError(f"{path}: larger than {MAX_INPUT_BYTES} bytes")
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: {exc}") from None


class CsvTable(NamedTuple):
    """Rows read by ``read_csv``, with the file line and id (if any) of each.
    ``lines`` is a ``range`` if no blank line was skipped, else a list."""

    path: Path
    header_line: int
    lines: range | list[int]
    ids: list[str]
    values: np.ndarray
    columns: np.ndarray | None  # the numbers that end a numeric-columns header


# the line ends of str.splitlines, "\r\n" first so that it is never split
_LINE_END = re.compile("\r\n|[\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029]")
# a body is parsed in blocks of whole lines of about this many characters:
# numpy's reader runs on a few large blocks, and a load holds the per-line
# strings of one block, not of the whole file
_BLOCK_CHARS = 128 * 1024


def _line_blocks(text: str):
    """``(n, lines)`` for each block of ``text``: its lines as ``str.splitlines``
    cuts them, and the number of lines before it.  Each block ends at the first
    line end at or past ``size`` characters."""
    # the fewest blocks of _BLOCK_CHARS, all of one size: a text a little over
    # one block makes two halves, not a block and a scrap
    count = max(1, -(-len(text) // _BLOCK_CHARS))
    size = -(-len(text) // count)
    n = pos = 0
    while pos < len(text):
        end = _LINE_END.search(text, pos + size - 1)
        end = end.end() if end else len(text)
        lines = text[pos:end].splitlines()
        if end == len(text):  # the last block: the text is no longer needed
            text = ""
        yield n, lines
        n, pos = n + len(lines), end
        del lines  # before the next block is cut


def read_csv(path, header: str, numeric_columns: bool = False) -> CsvTable:
    """Read a comma-separated table of finite numbers.

    ``#`` lines before the header are comments.  The header is ``header``; if
    that starts with ``id``, so does every row.  With ``numeric_columns`` the
    header is ``id`` followed by one or more numbers (a wide database's
    wavelengths).  Blank lines after the header are skipped, every other line
    has the header's field count, at least one row follows the header, and every
    error names its line.  numpy's C parser reads the numbers: what ``float``
    reads of ASCII text without '_'.

    The lines are parsed in blocks of about ``_BLOCK_CHARS`` characters, so a
    load holds the text, the numbers, the ids (one string per distinct id in a
    block) and the lines of one block.  The table's ``lines`` is a ``range``,
    or a list if a blank line was skipped.
    """
    path = Path(path)
    blocks = _line_blocks(_read_text(path))
    n, lines, first = 0, [], 0
    for n, lines in blocks:
        first = next((k for k, line in enumerate(lines) if not line.startswith("#")), len(lines))
        if first < len(lines):
            break
    header_line = n + first + 1
    expected = header + ",<wavelength>,..." * numeric_columns
    if first == len(lines):
        raise line_error(path, header_line, f"empty file, expected header {expected!r}")
    names, fields = header.split(","), [f.strip() for f in lines[first].split(",")]
    if fields[: len(names)] != names or (len(fields) > len(names)) != numeric_columns:
        raise line_error(path, header_line, f"expected header {expected!r}")
    width, skip = len(fields), int(names[0] == "id")
    # the numbers of a numeric-columns header parse as a first row
    start = first + 1 - numeric_columns
    # the header's block, then the others.  Through iter() the chain lets go of
    # the header's block once it is parsed, as the loop does of every other
    body = chain(iter([(n + start, lines[start:])]), blocks)
    del lines
    parsed = starmap(partial(_parse_lines, path, width, skip), body)
    ends, rows, ids, values = zip(*parsed)  # one tuple of each, with an item per block
    values = values[0] if len(values) == 1 else np.concatenate(values)
    ids = list(chain.from_iterable(ids))
    if all(type(block) is range for block in rows):
        rows = range(rows[0].start, rows[-1].stop)
    else:
        rows = list(chain.from_iterable(rows))
    finite = np.isfinite(values).all(axis=1)
    if not finite.all():
        raise line_error(path, rows[int(np.argmin(finite))], "numbers must be finite")
    if len(rows) == numeric_columns:
        raise line_error(path, ends[-1] + 1, "expected at least one row after the header")
    k = int(numeric_columns)
    return CsvTable(path, header_line, rows[k:], ids[k:], values[k:], values[0] if k else None)


def _parse_lines(path, width: int, skip: int, n: int, lines: list[str]):
    """``(end, rows, ids, values)`` of ``lines``, the file's lines ``n + 1`` to
    ``end``: the line of each row that is not blank, and its id and numbers
    (see ``_parse_body``)."""
    end = n + len(lines)
    rows = range(n + 1, end + 1)
    if not all(map(str.strip, lines)):  # blank lines are skipped
        keep = list(map(str.strip, lines))
        rows, lines = list(compress(rows, keep)), list(compress(lines, keep))
    try:
        heads, values = _parse_body(lines, width, skip)
    except ValueError:
        _raise_first_bad_line(path, rows, lines, width, skip)
        raise
    return end, rows, heads, values


def _parse_body(body: list[str], width: int, skip: int) -> tuple[list[str], np.ndarray]:
    """The ids (the first field of each line, if ``skip``) and numbers of
    ``body``'s lines, with no string or float() call per number.  Raises
    ValueError, naming no line, if any line is malformed."""
    if not body:
        return [], np.empty((0, width - skip))
    heads = [line.partition(",")[0] for line in body] if skip else []
    heads = list(map({}.setdefault, heads, heads))  # one string per distinct id
    text, id_text = "\n".join(body), "".join(heads)
    # no number may hold '_' (float() reads '0_5'), non-ASCII (an extra UTF-8 byte) or '\x1f'
    # (numpy strips it, float() does not); ids may, so the counts in ids and text must match
    strays = [
        t.count("_") + t.count("\x1f") + (0 if t.isascii() else len(t.encode()) - len(t))
        for t in (id_text, text)
    ]
    # loadtxt raises on too few fields, so the comma total rules out more (usecols drops them)
    if strays[0] != strays[1] or text.count(",") != len(body) * (width - 1):
        raise ValueError("a number holds '_', '\\x1f' or non-ASCII, or a field count is wrong")
    kw = dict(delimiter=",", comments=None, quotechar=None, usecols=range(skip, width), ndmin=2)
    return list(map(str.strip, heads)), np.loadtxt(body, float, **kw)


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
    try:  # samples less than 1 nm apart may resample to an infinity
        return to_working_grid(*table.values.T)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


@lru_cache(maxsize=8)
def tristimulus_weights(
    illuminant: SpectralDistribution, obs: ObserverTables
) -> tuple[np.ndarray, float]:
    """``(table, k)``, the weights and scale of ``_integrate``: the read-only
    (GRID_COUNT, 3) table of S * {x_bar, y_bar, z_bar} and the factor that gives
    a perfect reflector Y = 100.  Cached per (illuminant, observer) pair of objects."""
    with np.errstate(over="ignore"):
        table = illuminant.values[:, None] * obs.cmf
        sums = table.sum(axis=0)
        # the rectangle lattice adds X + Y + Z of the whole band
        total = sums.sum()
    if not np.isfinite(total):
        raise ValueError("the illuminant's weighted sums overflow the float range")
    if not sums[1] > 0:
        raise ValueError("the illuminant has no power where y_bar is positive")
    k = 100.0 / float(np.sum(table[:, 1]))
    if k == math.inf:
        raise ValueError("the illuminant's power is too small to scale to Y = 100")
    table.flags.writeable = False
    return table, k


def spd_to_xyz(
    spd: SpectralDistribution,
    illuminant: SpectralDistribution | None = None,
    obs: ObserverTables | None = None,
) -> tuple[float, float, float]:
    """Integrate a spectrum to (X, Y, Z), normalized so a perfect reflector has Y=100."""
    illuminant = illuminant if illuminant is not None else load_illuminant("D65")
    obs = obs if obs is not None else load_observer(OBSERVER_2DEG)
    return _integrate(spd.values, *tristimulus_weights(illuminant, obs))


def _integrate(values: np.ndarray, weights: np.ndarray, k: float) -> tuple[float, float, float]:
    """(X, Y, Z) of the grid samples ``values``: the sums weighted by ``weights``
    times ``k``, clamped at 0; ValueError if a component is not finite."""
    X, Y, Z = values.dot(weights).tolist()
    return _finite_xyz(max(k * X, 0.0), max(k * Y, 0.0), max(k * Z, 0.0))


def _finite_xyz(X: float, Y: float, Z: float) -> tuple[float, float, float]:
    """``(X, Y, Z)``, or ValueError if a component is not finite."""
    if not (math.isfinite(X) and math.isfinite(Y) and math.isfinite(Z)):
        raise ValueError("tristimulus components must be finite")
    return X, Y, Z


def xyz_to_chromaticity(xyz) -> Chromaticity:
    """Project an (X, Y, Z) sequence onto the chromaticity plane."""
    X, Y, Z = xyz
    s = X + Y + Z
    if s <= 0:
        raise ValueError("cannot normalize a zero-sum tristimulus")
    return Chromaticity(X / s, Y / s, 1.0 - X / s - Y / s)


def delta_e_xyz(a: Chromaticity, b: Chromaticity) -> float:
    """Euclidean distance between two chromaticities over (x, y, z)."""
    return _xyz_distance((a.x, a.y, a.z), (b.x, b.y, b.z))


def _xyz_distance(a, b) -> float:
    """``delta_e_xyz`` on two (x, y, z) sequences of floats."""
    return math.sqrt((a[0] - b[0]) ** 2 + (a[1] - b[1]) ** 2 + (a[2] - b[2]) ** 2)


@lru_cache(maxsize=None)
def illuminant_white(name: str = "D65", observer_id: str = OBSERVER_2DEG) -> Chromaticity:
    """Chromaticity of a perfect reflector under the named bundled illuminant."""
    flat = SpectralDistribution(np.ones(GRID_COUNT))
    return xyz_to_chromaticity(spd_to_xyz(flat, load_illuminant(name), load_observer(observer_id)))


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
    locus = obs.cmf[:, :2] / obs.cmf.sum(axis=1)[:, None]
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
