"""Rectangular test spectra: synthesis and cut-wavelength solving.

A rectangular spectrum takes the value K inside its pass region and zero
elsewhere.  ``band_pass`` passes a single interval [lambda1, lambda2];
``band_stop`` passes the two flanks [360, lambda1] and [lambda2, 720].
Cut wavelengths are continuous: a cut that falls inside a 1 nm bin fills
that bin with the fractional coverage of the pass side, which keeps the
solver objective continuous.

The cut solver is a Nelder-Mead simplex search over (lambda1, lambda2)
minimizing the xyz chromaticity distance to a target; amplitude K does not
affect chromaticity and is held at 1 during the search.  The search starts
at the nearest rectangle with whole-nanometre cuts, found by one scan of a
lattice that holds every such rectangle.  The lattice comes from prefix
sums F of the tristimulus weight table: a band pass integrates to
F(lambda2) - F(lambda1) and a band stop to the total minus that.  The
rectangles include MacAdam's (1935) optimal colors, one of which has each
chromaticity inside the spectral locus, so the scan gives a global start.
``minimize`` is a two-variable Nelder-Mead that repeats scipy's
``minimize(method="Nelder-Mead")`` step for step on Python floats, so it
returns the same vertices, values and counts to the bit without importing
scipy.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .spectral import (
    GRID_COUNT,
    GRID_START_NM,
    GRID_STOP_NM,
    OBSERVER_2DEG,
    Chromaticity,
    ObserverTables,
    SpectralDistribution,
    _built_spectrum,
    _integrate,
    _xyz_distance,
    delta_e_xyz,
    load_illuminant,
    load_observer,
    spd_to_xyz,
    tristimulus_weights,
    xyz_to_chromaticity,
)
from .targets import target_from_weights

BAND_PASS = "band_pass"
BAND_STOP = "band_stop"
AUTO_GENUS = "auto"
_GENERA = (BAND_PASS, BAND_STOP)

DEFAULT_TOLERANCE = 1e-5
MAX_ITERATIONS = 500

# keeps the simplex from flattening out in the clamped region beyond the
# spectrum boundaries; zero on [360, 720] so in-range results are unbiased
_OUT_OF_RANGE_SLOPE = 1e-4

# The lattice lists the rectangles with cuts at 360 + p <= 360 + q nm row
# by row: row p holds q = p .. GRID_COUNT - 1 and starts at _ROW_STARTS[p].
_ROW_STARTS = np.concatenate(([0], np.cumsum(np.arange(GRID_COUNT, 0, -1))))
_SCAN_CHUNK = 16384  # float32 temporaries of 64 KiB, under glibc's 128 KiB mmap threshold


@dataclass(frozen=True)
class OptimalSpectrumParams:
    """Genus, cut wavelengths and amplitude of a rectangular spectrum."""

    genus: str
    lambda1_nm: float
    lambda2_nm: float
    K: float = 1.0

    def __post_init__(self):
        if self.genus not in _GENERA:
            raise ValueError(f"genus must be one of {_GENERA}, got {self.genus!r}")
        if not (GRID_START_NM <= self.lambda1_nm <= self.lambda2_nm <= GRID_STOP_NM):
            raise ValueError(
                f"cuts must satisfy {GRID_START_NM} <= lambda1 <= lambda2 <= {GRID_STOP_NM}"
            )
        if self.K < 0 or not math.isfinite(self.K):
            raise ValueError("K must be non-negative and finite")


@dataclass(frozen=True)
class SolveReport:
    """Outcome of a cut-wavelength solve.

    ``iterations`` and ``evaluations`` (objective calls) sum over every
    Nelder-Mead run of the solve, for both genera when an automatic genus
    choice fell back to the second one; ``restarts`` counts the runs after
    the first of each genus solved.  ``lattice_delta_e`` is the
    smallest distance to the target over the whole-nanometre rectangles of
    the reported genus: a value well above the tolerance shows the target
    is out of that genus's reach.
    """

    params: OptimalSpectrumParams
    achieved_delta_e: float
    iterations: int
    converged: bool
    evaluations: int
    restarts: int
    lattice_delta_e: float


class _Seed(NamedTuple):
    """The whole-nanometre rectangle of a genus nearest to a target."""

    delta_e: float
    lambda1_nm: float
    lambda2_nm: float


def synthesize(params: OptimalSpectrumParams) -> SpectralDistribution:
    """Sample a rectangular spectrum onto the working grid.

    Bin i spans [360 + i, 361 + i).  A bin inside the pass region holds K,
    and a bin holding a cut holds K times the part of it on the pass side;
    where both cuts of a band stop share a bin, the two flank parts add up
    (clamped to 1).  The last bin, 720 nm, is full in a band stop and in a
    band pass reaching 720 nm; a band pass that ends in [719, 720] fills it
    by lambda2 - 719, so a cut at the end of the spectrum covers the last
    sample completely.  The spectrum is not checked again: ``params`` has
    checked the cuts and K, so every sample is a coverage in [0, 1] times a
    finite K >= 0.
    """
    l1, l2 = params.lambda1_nm, params.lambda2_nm
    s1, s2 = math.floor(l1), math.floor(l2)
    i1, i2 = s1 - GRID_START_NM, s2 - GRID_START_NM
    values = np.zeros(GRID_COUNT)
    if params.genus == BAND_PASS:
        values[i1 + 1 : i2] = 1.0
        if i1 == i2:
            values[i1] = l2 - l1
        else:
            values[i1] = (s1 + 1) - l1
            values[i2] = l2 - s2
        if l2 >= GRID_STOP_NM - 1:
            values[-1] = (l2 + 1) - GRID_STOP_NM
    else:
        values[:i1] = 1.0
        values[i2 + 1 :] = 1.0
        if i1 == i2:
            values[i1] = min(max((l1 - s1) + ((s2 + 1) - l2), 0.0), 1.0)
        else:
            values[i1] = l1 - s1
            values[i2] = (s2 + 1) - l2
    if params.K != 1.0:
        values *= params.K
    return _built_spectrum(values)


def rectangle_chromaticity(
    params: OptimalSpectrumParams,
    illuminant: SpectralDistribution | None = None,
    obs: ObserverTables | None = None,
) -> Chromaticity:
    """Chromaticity of a rectangular spectrum (independent of K)."""
    spd = synthesize(replace(params, K=1.0))
    return xyz_to_chromaticity(spd_to_xyz(spd, illuminant, obs))


def _lattice_xyz(genus: str, p, q, prefix: np.ndarray) -> np.ndarray:
    """Raw XYZ of the rectangles with cuts at 360 + p and 360 + q nm, p <= q.

    Equals the weighted sums of ``synthesize(...)`` up to rounding.  A band that
    reaches 720 nm also fills the last bin (see ``synthesize``); the
    right flank of a band stop always does.
    """
    if genus == BAND_PASS:
        return prefix[q + (q == GRID_COUNT - 1)] - prefix[p]
    return prefix[-1] - (prefix[q] - prefix[p])


@lru_cache(maxsize=8)
def _rectangle_lattice(
    genus: str, illuminant: SpectralDistribution, obs: ObserverTables
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Read-only chromaticity x and y (float32, in ``_ROW_STARTS`` order) of
    every rectangle of a genus with whole-nanometre cuts, inf for black ones,
    and their prefix sums F: F[k] adds the first k rows of the weight table.

    Built a row at a time so the float64 temporaries stay small.
    """
    prefix = np.zeros((GRID_COUNT + 1, 3))
    np.cumsum(tristimulus_weights(illuminant, obs)[0], axis=0, out=prefix[1:])
    x = np.empty(_ROW_STARTS[-1], dtype=np.float32)
    y = np.empty_like(x)
    for p in range(GRID_COUNT):
        xyz = _lattice_xyz(genus, p, np.arange(p, GRID_COUNT), prefix)
        total = xyz.sum(axis=1)
        black = total <= 0.0
        total[black] = 1.0
        row = slice(_ROW_STARTS[p], _ROW_STARTS[p + 1])
        x[row] = np.where(black, np.inf, xyz[:, 0] / total)
        y[row] = np.where(black, np.inf, xyz[:, 1] / total)
    x.flags.writeable = y.flags.writeable = prefix.flags.writeable = False
    return x, y, prefix


def _lattice_seed(
    genus: str,
    target: Chromaticity,
    illuminant: SpectralDistribution,
    obs: ObserverTables,
) -> _Seed:
    """Scan the lattice of a genus for the rectangle nearest to ``target``."""
    x, y, prefix = _rectangle_lattice(genus, illuminant, obs)
    tx, ty = np.float32(target.x), np.float32(target.y)
    best, k = np.inf, 0
    for start in range(0, x.size, _SCAN_CHUNK):  # faster than 8192, 32768 or one pass
        dx = x[start : start + _SCAN_CHUNK] - tx
        dy = y[start : start + _SCAN_CHUNK] - ty
        dz = dx + dy  # z = 1 - x - y, so the z offset is -(dx + dy)
        dx *= dx
        dy *= dy
        dz *= dz
        dx += dy
        dx += dz
        i = int(np.argmin(dx))
        if dx[i] < best:
            best, k = dx[i], start + i
    p = int(np.searchsorted(_ROW_STARTS, k, side="right")) - 1
    q = p + k - int(_ROW_STARTS[p])
    X, Y, Z = _lattice_xyz(genus, p, q, prefix)
    s = X + Y + Z
    return _Seed(
        _xyz_distance((X / s, Y / s, Z / s), (target.x, target.y, target.z)),
        float(GRID_START_NM + p),
        float(GRID_START_NM + q),
    )


def _seed_simplex(l1: float, l2: float) -> list[tuple[float, float]]:
    """A 1 nm simplex at the seed that widens the band where the grid allows."""
    d1 = -1.0 if l1 > GRID_START_NM else 1.0
    d2 = 1.0 if l2 < GRID_STOP_NM else -1.0
    return [(l1, l2), (l1 + d1, l2), (l1, l2 + d2)]


class _NelderMeadResult(NamedTuple):
    x: tuple[float, float]
    fun: float
    nit: int
    nfev: int


def _ranked(sim: list, f: list) -> tuple[list, list]:
    """Vertices and values in ``np.argsort``'s order of the values (scipy's, which
    matters for tied inf vertices).  Three strictly ordered values have one order,
    so argsort runs only on a tie or a NaN."""
    order = i, j, k = sorted(range(3), key=f.__getitem__)
    if not f[i] < f[j] < f[k]:
        order = np.array(f).argsort().tolist()
    return [sim[i] for i in order], [f[i] for i in order]


def _affine(p: float, xbar: tuple, q: float, w: tuple) -> tuple[float, float]:
    """p * xbar + q * w, each coordinate rounded as scipy's ``(1 + rho) * xbar
    - rho * w`` and its kin round it (a - b is a + (-b) exactly)."""
    return (p * xbar[0] + q * w[0], p * xbar[1] + q * w[1])


def minimize(
    fun, x0, initial_simplex=None, *, maxiter: int, xatol: float, fatol: float
) -> _NelderMeadResult:
    """Minimize ``fun((v1, v2))`` by Nelder-Mead, with scipy's
    ``_minimize_neldermead`` steps (``adaptive=False``, no bounds) in its
    operation order, so every vertex, value and count matches it to the bit.

    Without ``initial_simplex`` the simplex is scipy's default: x0, then x0
    with one coordinate at a time scaled by 1.05 (neither may be zero); with
    it, x0 is ignored.  The search stops when every vertex lies within
    ``xatol`` of the best in each coordinate and every value within
    ``fatol`` of its value, or after ``maxiter`` iterations; ``nit`` starts
    at 1 and ``nfev`` counts the calls of ``fun``.
    """
    if initial_simplex is None:
        a, b = map(float, x0)
        sim = [(a, b), (1.05 * a, b), (a, 1.05 * b)]
    else:
        sim = [(float(a), float(b)) for a, b in initial_simplex]
    f = [fun(v) for v in sim]
    nfev = 3
    sim, f = _ranked(*_ranked(sim, f))  # scipy sorts twice: ties may move again
    nit = 1
    while nit < maxiter:
        (s0, s1, w), (f0, f1, fw) = sim, f
        if (
            abs(s1[0] - s0[0]) <= xatol and abs(s1[1] - s0[1]) <= xatol
            and abs(w[0] - s0[0]) <= xatol and abs(w[1] - s0[1]) <= xatol
            and abs(f0 - f1) <= fatol and abs(f0 - fw) <= fatol
        ):
            break
        xbar = ((s0[0] + s1[0]) / 2, (s0[1] + s1[1]) / 2)
        xr = _affine(2, xbar, -1, w)
        fr = fun(xr)
        nfev += 1
        if fr < f0:
            xe = _affine(3, xbar, -2, w)
            fe = fun(xe)
            nfev += 1
            sim[2], f[2] = (xe, fe) if fe < fr else (xr, fr)
        elif fr < f1:
            sim[2], f[2] = xr, fr
        else:
            if fr < fw:  # outside contraction
                xc = _affine(1.5, xbar, -0.5, w)
                fc = fun(xc)
                keep = fc <= fr
            else:  # inside contraction
                xc = _affine(0.5, xbar, 0.5, w)
                fc = fun(xc)
                keep = fc < fw
            nfev += 1
            if keep:
                sim[2], f[2] = xc, fc
            else:  # shrink towards the best vertex
                for j in (1, 2):
                    sj = sim[j]
                    sim[j] = (s0[0] + 0.5 * (sj[0] - s0[0]), s0[1] + 0.5 * (sj[1] - s0[1]))
                    f[j] = fun(sim[j])
                nfev += 2
        nit += 1
        sim, f = _ranked(sim, f)
    return _NelderMeadResult(sim[0], f[0], nit, nfev)


def _solve_genus(
    genus: str,
    seed: _Seed,
    target: Chromaticity,
    tolerance: float,
    illuminant: SpectralDistribution,
    obs: ObserverTables,
) -> list[tuple[_NelderMeadResult, OptimalSpectrumParams, float]]:
    """The Nelder-Mead runs of one genus as ``(result, params, delta_e)``:
    the polish from ``seed``, then, if it misses ``tolerance``, a restart
    from its best point."""
    tgt = (target.x, target.y, target.z)
    weights, k = tristimulus_weights(illuminant, obs)

    def objective(lam: tuple[float, float]) -> float:
        l1, l2 = a, b = lam
        penalty = 0.0
        if not GRID_START_NM <= a <= b <= GRID_STOP_NM:
            l1 = min(max(a, GRID_START_NM), GRID_STOP_NM)
            l2 = min(max(b, GRID_START_NM), GRID_STOP_NM)
            if l1 > l2:
                return np.inf
            penalty = _OUT_OF_RANGE_SLOPE * (abs(a - l1) + abs(b - l2))
        X, Y, Z = _integrate(synthesize(OptimalSpectrumParams(genus, l1, l2)).values, weights, k)
        s = X + Y + Z
        if s <= 0:
            return np.inf
        return _xyz_distance((X / s, Y / s, Z / s), tgt) + penalty

    def polish(x0, simplex=None):
        res = minimize(objective, x0, simplex, maxiter=MAX_ITERATIONS, xatol=1e-6, fatol=1e-14)
        l1, l2 = sorted(float(v) for v in np.clip(res.x, GRID_START_NM, GRID_STOP_NM))
        params = OptimalSpectrumParams(genus, l1, l2, 1.0)
        return res, params, delta_e_xyz(rectangle_chromaticity(params, illuminant, obs), target)

    cuts = (seed.lambda1_nm, seed.lambda2_nm)
    runs = [polish(cuts, _seed_simplex(*cuts))]
    first, _, first_delta_e = runs[0]
    if first_delta_e > tolerance:
        runs.append(polish(np.clip(first.x, GRID_START_NM, GRID_STOP_NM)))
    return runs


def solve_optimal(
    target: Chromaticity,
    genus: str = BAND_PASS,
    tolerance: float = DEFAULT_TOLERANCE,
    illuminant: SpectralDistribution | None = None,
    obs: ObserverTables | None = None,
) -> SolveReport:
    """Search cut wavelengths whose rectangular spectrum matches ``target``.

    The bounded Nelder-Mead search starts from the whole-nanometre
    rectangle nearest to the target, with a 1 nm initial simplex.  If the
    result misses ``tolerance`` the search restarts once from its best
    point, with the default simplex of ``minimize`` (5 % steps).  Convergence
    means the achieved chromaticity distance does not exceed ``tolerance``.

    ``genus="auto"`` solves the genus with the lower lattice minimum first
    (band_pass on a tie); if that misses the tolerance it solves the other
    genus too.  The report gives the first run with the smallest distance
    over every run made.
    """
    if genus not in (*_GENERA, AUTO_GENUS):
        raise ValueError(f"genus must be one of {(*_GENERA, AUTO_GENUS)}, got {genus!r}")
    if not 0.0 < tolerance < math.inf:
        raise ValueError("tolerance must be finite and positive")
    illuminant = illuminant if illuminant is not None else load_illuminant("D65")
    obs = obs if obs is not None else load_observer(OBSERVER_2DEG)
    genera = _GENERA if genus == AUTO_GENUS else (genus,)
    seeds = {g: _lattice_seed(g, target, illuminant, obs) for g in genera}
    runs = []
    for solved, g in enumerate(sorted(seeds, key=lambda k: seeds[k].delta_e), 1):
        runs += _solve_genus(g, seeds[g], target, tolerance, illuminant, obs)
        _, params, achieved = min(runs, key=lambda run: run[2])
        if achieved <= tolerance:
            break
    return SolveReport(
        params,
        achieved,
        iterations=sum(int(r.nit) for r, _, _ in runs),
        converged=achieved <= tolerance,
        evaluations=sum(int(r.nfev) for r, _, _ in runs),
        restarts=len(runs) - solved,
        lattice_delta_e=seeds[params.genus].delta_e,
    )


def scale_to_luminance(
    params: OptimalSpectrumParams,
    target_L_C: float,
    illuminant: SpectralDistribution | None = None,
    obs: ObserverTables | None = None,
) -> OptimalSpectrumParams:
    """Choose K so the spectrum reaches a TV-scale relative luminance.

    K = L_C * 100 / Y(K=1) with Y taken as the plain weighted sum of
    S * P * y_bar over the working grid (the illuminant table keeps its
    conventional 100-at-560-nm scale).  Chromaticity is unaffected.
    """
    if not 0.0 <= target_L_C <= 1.0:
        raise ValueError("target_L_C must lie in [0, 1]")
    illuminant = illuminant if illuminant is not None else load_illuminant("D65")
    obs = obs if obs is not None else load_observer(OBSERVER_2DEG)
    weights = tristimulus_weights(illuminant, obs)[0]  # y_raw is Y of spd_to_xyz before its scale
    y_raw = float(synthesize(replace(params, K=1.0)).values.dot(weights)[1])
    if y_raw <= 0:
        raise ValueError("spectrum has zero luminance; cannot scale")
    return replace(params, K=target_L_C * 100.0 / y_raw)


# Reference color suite: weights and genus per column.  Genus follows the
# band_pass list {Ye, C, G, G05, WW} / band_stop list {R, R05, B, B05, M}.
TABLE1_COLUMNS = (
    ("R", (1.0, 0.0, 0.0), BAND_STOP),
    ("G", (0.0, 1.0, 0.0), BAND_PASS),
    ("B", (0.0, 0.0, 1.0), BAND_STOP),
    ("Ye", (0.5, 0.5, 0.0), BAND_PASS),
    ("C", (0.0, 0.5, 0.5), BAND_PASS),
    ("M", (0.5, 0.0, 0.5), BAND_STOP),
    ("R05", (2 / 3, 1 / 6, 1 / 6), BAND_STOP),
    ("G05", (1 / 6, 2 / 3, 1 / 6), BAND_PASS),
    ("B05", (1 / 6, 1 / 6, 2 / 3), BAND_STOP),
    ("WW", (1.0, 1.0, 1.0), BAND_PASS),
)


def table1_suite(
    tolerance: float = DEFAULT_TOLERANCE,
    illuminant: SpectralDistribution | None = None,
    obs: ObserverTables | None = None,
) -> list[SolveReport]:
    """Solve and luminance-scale the full ten-color reference suite.

    Reports are ordered as ``TABLE1_COLUMNS``.
    """
    reports = []
    for _, weights, genus in TABLE1_COLUMNS:
        target = target_from_weights(weights)
        report = solve_optimal(
            target.chromaticity, genus, tolerance=tolerance, illuminant=illuminant, obs=obs
        )
        scaled = scale_to_luminance(report.params, target.L_C, illuminant, obs)
        reports.append(replace(report, params=scaled))
    return reports
