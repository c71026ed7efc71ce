import contextlib
import dataclasses
import functools
import itertools
import math
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from colorbench import (
    BAND_PASS,
    BAND_STOP,
    Chromaticity,
    OptimalSpectrumParams,
    illuminant_white,
    rectangle_chromaticity,
    scale_to_luminance,
    solve_optimal,
    spd_to_xyz,
    synthesize,
    table1_suite,
    target_from_weights,
)
import colorbench.optimal as optimal
from colorbench.optimal import TABLE1_COLUMNS, _lattice_xyz, _rectangle_lattice
from colorbench.spectral import (
    GRID_COUNT,
    GRID_START_NM,
    GRID_STOP_NM,
    SpectralDistribution,
    _xyz_distance,
    load_illuminant,
    load_observer,
    tristimulus_weights,
)

# printed reference values: lambda1, lambda2, K (displayed row divided by 100,
# except the white column whose printed entry is already on the K scale)
PRINTED = {
    "R": (412.0, 584.0, 0.00823),
    "G": (481.0, 592.0, 0.00869),
    "B": (497.0, 660.0, 0.00858),
    "Ye": (480.0, 609.0, 0.00908),
    "C": (378.0, 591.0, 0.00929),
    "M": (496.0, 585.0, 0.00875),
    "R05": (445.0, 545.0, 0.00439),
    "G05": (460.0, 608.0, 0.00560),
    "B05": (526.0, 612.0, 0.00574),
    "WW": (360.0, 720.0, 0.00946),
}

# columns whose printed row is reproducible under the stated conventions;
# Ye and C targets fall outside the single-band rectangle family, and the
# printed Ye/C/M amplitudes correspond to doubled (full-mix) luminances
REPRODUCIBLE = ("R", "G", "B", "M", "R05", "G05", "B05", "WW")


def bin_index(nm):
    return int(nm - GRID_START_NM)


def _interval_coverage(starts, step, a, b):
    """Reference per-bin coverage of the closed interval [a, b]; bin i spans
    [start_i, start_i + step), and the final bin additionally ramps to full
    coverage as b approaches the grid end so that a cut at the end of the
    spectrum covers the last sample completely."""
    lo = np.maximum(a, starts)
    hi = np.minimum(b, starts + step)
    cov = np.clip((hi - lo) / step, 0.0, 1.0)
    last = starts[-1]
    cov[-1] = np.clip((min(b + step, last + 2 * step) - max(a, last)) / step, 0.0, 1.0)
    return cov


def reference_synthesize(genus, l1, l2, k):
    starts = GRID_START_NM + np.arange(GRID_COUNT, dtype=float)
    if genus == BAND_PASS:
        cov = _interval_coverage(starts, 1, l1, l2)
    else:
        cov = _interval_coverage(starts, 1, GRID_START_NM, l1) + _interval_coverage(
            starts, 1, l2, GRID_STOP_NM
        )
    return k * np.clip(cov, 0.0, 1.0)


# cut wavelengths that hit the grid ends and bin edges as well as bin interiors
cut_nm = st.one_of(
    st.floats(360.0, 720.0),
    st.integers(360, 720).map(float),
    st.sampled_from([360.0, 360.5, 719.0, 719.5, 720.0]),
)


def _one_bin(t):
    n, f1, f2 = t
    return n + f1, n + f2


# cut pairs that share a bin, lie less than 2 nm apart, or end the grid
close_cuts = st.one_of(
    st.tuples(st.integers(360, 720), st.floats(0.0, 1.0), st.floats(0.0, 1.0))
    .map(_one_bin)
    .filter(lambda c: max(c) <= 720.0),
    st.tuples(cut_nm, st.floats(0.0, 2.0)).map(lambda t: (t[0], min(t[0] + t[1], 720.0))),
    st.tuples(st.floats(719.0, 720.0), st.floats(719.0, 720.0)),
)
amplitude = st.one_of(st.sampled_from([0.0, -0.0, 1.0]), st.floats(0.0, 3.0))
# amplitudes up to the largest float, for tests that integrate nothing
huge_amplitude = st.one_of(amplitude, st.sampled_from([1e300, sys.float_info.max]))


class TestParams:
    def test_ordering_enforced(self):
        with pytest.raises(ValueError):
            OptimalSpectrumParams(BAND_PASS, 600.0, 500.0)

    def test_bounds_enforced(self):
        with pytest.raises(ValueError):
            OptimalSpectrumParams(BAND_PASS, 350.0, 600.0)

    def test_negative_amplitude_rejected(self):
        with pytest.raises(ValueError):
            OptimalSpectrumParams(BAND_PASS, 400.0, 600.0, -1.0)

    def test_unknown_genus_rejected(self):
        with pytest.raises(ValueError):
            OptimalSpectrumParams("notch", 400.0, 600.0)


class TestSynthesize:
    def test_full_band_pass_is_flat(self):
        spd = synthesize(OptimalSpectrumParams(BAND_PASS, 360.0, 720.0, 1.0))
        assert np.all(spd.values == 1.0)

    def test_full_band_stop_zero_except_boundary_bins(self):
        spd = synthesize(OptimalSpectrumParams(BAND_STOP, 360.0, 720.0, 1.0))
        assert np.all(spd.values[1:-1] == 0.0)

    def test_membership(self):
        spd = synthesize(OptimalSpectrumParams(BAND_PASS, 480.0, 609.0, 1.0))
        assert spd.values[bin_index(500)] == 1.0
        assert spd.values[bin_index(450)] == 0.0

    def test_fractional_boundary_bin(self):
        spd = synthesize(OptimalSpectrumParams(BAND_PASS, 480.4, 609.0, 1.0))
        assert spd.values[bin_index(480)] == pytest.approx(0.6)
        assert spd.values[bin_index(481)] == 1.0
        assert spd.values[bin_index(479)] == 0.0

    def test_amplitude_scales_samples(self):
        spd = synthesize(OptimalSpectrumParams(BAND_PASS, 480.0, 609.0, 0.25))
        assert spd.values[bin_index(500)] == 0.25

    def test_band_stop_passes_flanks(self):
        spd = synthesize(OptimalSpectrumParams(BAND_STOP, 496.0, 585.0, 1.0))
        assert spd.values[bin_index(400)] == 1.0
        assert spd.values[bin_index(540)] == 0.0
        assert spd.values[bin_index(600)] == 1.0
        assert spd.values[-1] == 1.0

    @given(
        st.floats(361.0, 719.0),
        st.floats(361.0, 719.0),
        st.floats(0.1, 3.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_pass_and_stop_are_complementary(self, a, b, k):
        l1, l2 = sorted((a, b))
        p = synthesize(OptimalSpectrumParams(BAND_PASS, l1, l2, k))
        s = synthesize(OptimalSpectrumParams(BAND_STOP, l1, l2, k))
        flat = spd_to_xyz(synthesize(OptimalSpectrumParams(BAND_PASS, 360.0, 720.0, k)))
        total = np.add(spd_to_xyz(p), spd_to_xyz(s))
        np.testing.assert_allclose(total, flat, rtol=1e-6)

    @given(
        st.sampled_from([BAND_PASS, BAND_STOP]),
        st.one_of(st.tuples(cut_nm, cut_nm), close_cuts),
        huge_amplitude,
    )
    @settings(max_examples=600, deadline=None)
    def test_matches_reference_coverage_bit_for_bit(self, genus, cuts, k):
        l1, l2 = sorted(cuts)
        got = synthesize(OptimalSpectrumParams(genus, l1, l2, k)).values
        assert got.tobytes() == reference_synthesize(genus, l1, l2, k).tobytes()
        # synthesize skips the constructor's checks, so its samples must pass them
        assert got.dtype == np.float64 and got.shape == (GRID_COUNT,)
        assert np.isfinite(got).all() and got.min() >= 0.0
        SpectralDistribution(got)

    @given(st.floats(400.0, 500.0), st.floats(550.0, 650.0), st.floats(0.01, 4.0))
    @settings(max_examples=40, deadline=None)
    def test_chromaticity_is_k_invariant(self, l1, l2, k):
        base = rectangle_chromaticity(OptimalSpectrumParams(BAND_PASS, l1, l2, 1.0))
        scaled = rectangle_chromaticity(OptimalSpectrumParams(BAND_PASS, l1, l2, k))
        assert (base.x, base.y, base.z) == pytest.approx((scaled.x, scaled.y, scaled.z), abs=1e-14)


class TestLattice:
    @given(
        st.sampled_from([BAND_PASS, BAND_STOP]),
        st.sampled_from(["D65", "E"]),
        st.sampled_from(["degree2", "degree10"]),
        st.one_of(st.integers(0, GRID_COUNT - 1), st.sampled_from([0, GRID_COUNT - 1])),
        st.one_of(st.integers(0, GRID_COUNT - 1), st.sampled_from([0, GRID_COUNT - 1])),
    )
    @settings(max_examples=300, deadline=None)
    def test_prefix_sums_match_synthesized_spectra(self, genus, ill_name, obs_id, i, j):
        p, q = sorted((i, j))
        ill, obs = load_illuminant(ill_name), load_observer(obs_id)
        params = OptimalSpectrumParams(genus, float(GRID_START_NM + p), float(GRID_START_NM + q))
        ref = synthesize(params).values.dot(tristimulus_weights(ill, obs)[0])
        got = _lattice_xyz(genus, p, q, _rectangle_lattice(genus, ill, obs)[2])
        assert np.linalg.norm(got - ref) <= 1e-11 * np.linalg.norm(ref)

    def test_both_grid_ends(self, d65, obs2):
        last = GRID_COUNT - 1
        for genus in (BAND_PASS, BAND_STOP):
            prefix = _rectangle_lattice(genus, d65, obs2)[2]
            assert prefix.shape == (GRID_COUNT + 1, 3) and not prefix.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                prefix[0, 0] = 1.0
            for p, q in ((0, 0), (0, last), (last, last), (5, last), (0, 5)):
                params = OptimalSpectrumParams(genus, float(GRID_START_NM + p), float(GRID_START_NM + q))
                ref = synthesize(params).values.dot(tristimulus_weights(d65, obs2)[0])
                np.testing.assert_allclose(
                    _lattice_xyz(genus, p, q, prefix), ref, rtol=1e-11, atol=0.0
                )


def reference_lattice_seed(genus, target, illuminant, obs):
    """The cuts of the first nearest rectangle in the lattice, by one argmin
    over the whole lattice: the squares of the scan's float32 offsets added
    in its order."""
    x, y, _ = optimal._rectangle_lattice(genus, illuminant, obs)
    dx, dy = x - np.float32(target.x), y - np.float32(target.y)
    dz = dx + dy
    k = int(np.argmin(dx * dx + dy * dy + dz * dz))
    p = int(np.searchsorted(optimal._ROW_STARTS, k, side="right")) - 1
    return float(GRID_START_NM + p), float(GRID_START_NM + p + k - int(optimal._ROW_STARTS[p]))


class TestLatticeSeed:
    @given(
        st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)).filter(lambda xy: sum(xy) <= 1.0),
        st.sampled_from([BAND_PASS, BAND_STOP]),
        st.sampled_from(["D65", "E"]),
        st.sampled_from(["degree2", "degree10"]),
    )
    @settings(max_examples=200, deadline=None)
    def test_chunks_find_the_first_whole_lattice_minimum(self, xy, genus, ill_name, obs_id):
        target = Chromaticity.from_xy(*xy)
        ill, obs = load_illuminant(ill_name), load_observer(obs_id)
        expected = reference_lattice_seed(genus, target, ill, obs)
        # the chunk size, however it divides the lattice, moves no seed
        for chunk in (optimal._SCAN_CHUNK, 1000, 8192, 2**20):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(optimal, "_SCAN_CHUNK", chunk)
                seed = optimal._lattice_seed(genus, target, ill, obs)
            assert (seed.lambda1_nm, seed.lambda2_nm) == expected

    @pytest.mark.parametrize("ill_name, obs_id", [("D65", "degree2"), ("E", "degree10")])
    def test_a_tie_across_chunks_keeps_the_first(self, ill_name, obs_id):
        # a band stop with lambda1 == lambda2 passes the whole spectrum: every
        # row of the lattice starts with one, so the white point ties in every chunk
        white = illuminant_white(ill_name, obs_id)
        ill, obs = load_illuminant(ill_name), load_observer(obs_id)
        for chunk in (optimal._SCAN_CHUNK, 1000, 8192, 2**20):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(optimal, "_SCAN_CHUNK", chunk)
                seed = optimal._lattice_seed(BAND_STOP, white, ill, obs)
            assert (seed.lambda1_nm, seed.lambda2_nm) == (360.0, 360.0)
        assert reference_lattice_seed(BAND_STOP, white, ill, obs) == (360.0, 360.0)


class TestSolve:
    def test_white_full_band(self):
        report = solve_optimal(Chromaticity.from_xy(0.3127, 0.3290), BAND_PASS)
        assert report.params.lambda1_nm == pytest.approx(360.0, abs=3.0)
        assert report.params.lambda2_nm == pytest.approx(720.0, abs=3.0)

    def test_red_band_stop(self):
        report = solve_optimal(Chromaticity.from_xy(0.64, 0.33), BAND_STOP)
        assert report.converged
        assert report.achieved_delta_e <= 1e-5
        assert report.params.lambda1_nm == pytest.approx(412.0, abs=3.0)
        assert report.params.lambda2_nm == pytest.approx(584.0, abs=3.0)

    @pytest.mark.xfail(
        strict=True,
        reason="printed reference data anomaly: the yellow half-mix chromaticity lies "
        "between the high-pass boundary curve and white, outside the image of the "
        "single-band rectangle family (a two-flank spectrum reaches it exactly)",
    )
    def test_yellow_band_pass_printed_row(self):
        report = solve_optimal(Chromaticity.from_xy(0.4193, 0.5053), BAND_PASS)
        assert report.achieved_delta_e <= 1e-5
        assert report.params.lambda1_nm == pytest.approx(480.0, abs=3.0)
        assert report.params.lambda2_nm == pytest.approx(609.0, abs=3.0)

    def test_yellow_reachable_as_band_stop(self):
        target = target_from_weights((0.5, 0.5, 0)).chromaticity
        report = solve_optimal(target, BAND_STOP)
        assert report.converged

    def test_unreachable_target_reports_not_converged(self):
        # deep cyan mix: marginally outside the band-pass family
        target = target_from_weights((0, 0.5, 0.5)).chromaticity
        report = solve_optimal(target, BAND_PASS)
        assert not report.converged
        assert report.achieved_delta_e > 1e-5

    def test_repeated_solve_is_identical(self):
        first = solve_optimal(Chromaticity.from_xy(0.64, 0.33), BAND_STOP)
        again = solve_optimal(Chromaticity.from_xy(0.64, 0.33), BAND_STOP)
        assert first.converged
        assert again == first

    @pytest.mark.parametrize("name, lattice_delta_e", [("Ye", 1.0e-2), ("C", 9.5e-4)])
    def test_unreachable_columns_report_their_lattice_minimum(self, name, lattice_delta_e):
        weights = {n: w for n, w, _ in TABLE1_COLUMNS}[name]
        report = solve_optimal(target_from_weights(weights).chromaticity, BAND_PASS)
        assert report.lattice_delta_e == pytest.approx(lattice_delta_e, rel=0.05)
        assert not report.converged
        assert report.restarts == 1
        assert report.evaluations >= report.iterations > 0

    def test_reachable_target_needs_no_restart(self):
        report = solve_optimal(Chromaticity.from_xy(0.64, 0.33), BAND_STOP)
        assert report.converged and report.restarts == 0
        # the polish refines the best whole-nanometre rectangle
        assert report.achieved_delta_e < report.lattice_delta_e < 2e-3

    def test_auto_genus_falls_back_to_the_other_genus(self):
        # near white: the band-stop lattice comes closer, but only a band
        # pass reaches the target
        target = Chromaticity.from_xy(0.31562650669408016, 0.3362552415462823)
        stop = solve_optimal(target, BAND_STOP)
        assert stop.lattice_delta_e < solve_optimal(target, BAND_PASS).lattice_delta_e
        assert not stop.converged
        report = solve_optimal(target, "auto")
        assert report.converged and report.params.genus == BAND_PASS
        assert report.iterations > stop.iterations

    def test_auto_genus_keeps_the_first_genus_when_it_converges(self):
        report = solve_optimal(Chromaticity.from_xy(0.30, 0.60), "auto")
        assert report.converged and report.params.genus == BAND_PASS
        assert report == solve_optimal(Chromaticity.from_xy(0.30, 0.60), BAND_PASS)

    def test_unknown_genus_rejected(self):
        with pytest.raises(ValueError, match="genus"):
            solve_optimal(Chromaticity.from_xy(0.30, 0.60), "notch")

    @pytest.mark.parametrize("tolerance", [0.0, -1.0, float("nan"), float("inf")])
    def test_tolerance_must_be_finite_and_positive(self, tolerance):
        with pytest.raises(ValueError, match="tolerance must be finite and positive"):
            solve_optimal(Chromaticity.from_xy(0.30, 0.60), tolerance=tolerance)

    def test_repeated_solves_are_identical(self):
        target = Chromaticity.from_xy(0.35, 0.2)
        assert solve_optimal(target, "auto") == solve_optimal(target, "auto")

    def test_result_is_clamped_and_ordered(self):
        report = solve_optimal(Chromaticity.from_xy(0.3127, 0.3290), BAND_PASS)
        p = report.params
        assert 360.0 <= p.lambda1_nm <= p.lambda2_nm <= 720.0


def lattice_minima(target: Chromaticity) -> tuple[float, float]:
    """The whole-nanometre lattice minimum of (band_pass, band_stop) for ``target``."""
    return tuple(solve_optimal(target, g).lattice_delta_e for g in (BAND_PASS, BAND_STOP))


class TestAutoGenusChoice:
    """``genus="auto"`` solves the genus with the lower lattice minimum first."""

    @pytest.mark.parametrize("xy", [(0.3209, 0.1542), (0.64, 0.33), (0.15, 0.06)])
    def test_band_stop_for_purples_and_red(self, xy):
        target = Chromaticity.from_xy(*xy)
        band_pass, band_stop = lattice_minima(target)
        assert band_stop < band_pass
        assert solve_optimal(target, "auto") == solve_optimal(target, BAND_STOP)

    def test_band_pass_for_green(self):
        target = Chromaticity.from_xy(0.30, 0.60)
        band_pass, band_stop = lattice_minima(target)
        assert band_pass < band_stop
        assert solve_optimal(target, "auto") == solve_optimal(target, BAND_PASS)

    def test_white_tie_goes_to_band_pass(self):
        # both genera hold the full spectrum, so both lattice minima are one rounding error
        white = illuminant_white("D65")
        band_pass, band_stop = lattice_minima(white)
        assert band_pass == band_stop < 1e-15
        assert solve_optimal(white, "auto").params.genus == BAND_PASS

    @given(
        st.tuples(st.floats(0.05, 0.75), st.floats(0.02, 0.85)).filter(lambda xy: sum(xy) < 0.98)
    )
    @example((0.31562650669408016, 0.3362552415462823))  # the band pass converges second
    @example((0.1, 0.1))  # both genera miss
    @example((0.30, 0.60))  # the first genus converges
    @settings(max_examples=30, deadline=None)
    def test_auto_combines_the_two_genus_solves(self, xy):
        target = Chromaticity.from_xy(*xy)
        first, second = sorted(
            (solve_optimal(target, g) for g in (BAND_PASS, BAND_STOP)),
            key=lambda report: report.lattice_delta_e,
        )
        if first.converged:
            expected = first
        else:
            closer = second if second.achieved_delta_e < first.achieved_delta_e else first
            expected = dataclasses.replace(
                closer,
                iterations=first.iterations + second.iterations,
                evaluations=first.evaluations + second.evaluations,
                restarts=first.restarts + second.restarts,
            )
        assert solve_optimal(target, "auto") == expected

    # exact targets: at 5 decimals the second one converges
    @pytest.mark.xfail(
        strict=True,
        reason="narrow band-stop miss: the 1 nm lattice holds no stop band under 1 nm wide, "
        "so the seed lands about 10 nm off and Nelder-Mead stalls at a delta E of 5.6e-5 "
        "and 1.5e-5, although band stops within 7.2e-6 exist",
    )
    @pytest.mark.parametrize(
        "xy",
        [(0.3135151902321221, 0.33071829745656656), (0.31366084833403796, 0.3310044455038143)],
    )
    def test_near_white_narrow_band_stop_converges(self, xy):
        assert solve_optimal(Chromaticity.from_xy(*xy), "auto").converged


class TestSynthesizeCalls:
    """The benchmark's trace check needs at least one ``synthesize`` call per
    Nelder-Mead iteration of a solve."""

    @pytest.mark.parametrize(
        "target, genus",
        [
            (target_from_weights((0.0, 1.0, 0.0)).chromaticity, BAND_PASS),  # G: converges
            (target_from_weights((0.5, 0.5, 0.0)).chromaticity, BAND_PASS),  # Ye: restarts
            (Chromaticity.from_xy(0.31562650669408016, 0.3362552415462823), "auto"),  # fallback
        ],
    )
    def test_at_least_one_call_per_iteration(self, monkeypatch, target, genus):
        calls = 0
        real_synthesize = optimal.synthesize

        def counting(params):
            nonlocal calls
            calls += 1
            return real_synthesize(params)

        monkeypatch.setattr(optimal, "synthesize", counting)
        report = solve_optimal(target, genus)
        # one call per evaluation, except those clamped out of order (inf without a
        # spectrum), plus one per Nelder-Mead run for the reported delta E
        assert report.iterations <= calls <= report.evaluations + report.restarts + 2


def reference_objective(genus, target, illuminant, obs, lam):
    """The solver objective on the spectrum path: ``_xyz_distance`` of
    ``spd_to_xyz(synthesize(...))`` at the clamped cuts, plus the penalty."""
    l1, l2 = a, b = lam
    penalty = 0.0
    if not GRID_START_NM <= a <= b <= GRID_STOP_NM:
        l1 = min(max(a, GRID_START_NM), GRID_STOP_NM)
        l2 = min(max(b, GRID_START_NM), GRID_STOP_NM)
        if l1 > l2:
            return math.inf
        penalty = optimal._OUT_OF_RANGE_SLOPE * (abs(a - l1) + abs(b - l2))
    X, Y, Z = spd_to_xyz(synthesize(OptimalSpectrumParams(genus, l1, l2, 1.0)), illuminant, obs)
    s = X + Y + Z
    if s <= 0:
        return math.inf
    return _xyz_distance((X / s, Y / s, Z / s), (target.x, target.y, target.z)) + penalty


OBJECTIVE_TARGET = Chromaticity.from_xy(0.3, 0.45)


@functools.lru_cache(maxsize=None)
def solver_objective(genus, illuminant_name):
    """The objective the solver hands to ``minimize`` for ``OBJECTIVE_TARGET``."""
    with solver_calls() as calls:
        solve_optimal(OBJECTIVE_TARGET, genus, illuminant=load_illuminant(illuminant_name))
    return calls[0][0]


class TestObjectiveMatchesTheSpectrumPath:
    @given(
        st.sampled_from([BAND_PASS, BAND_STOP]),
        st.sampled_from(["D65", "E"]),
        st.tuples(
            st.one_of(st.floats(360.0, 720.0), st.floats(300.0, 780.0)),
            st.one_of(st.floats(360.0, 720.0), st.floats(300.0, 780.0)),
        ),
    )
    @settings(max_examples=500, deadline=None)
    def test_same_value_to_the_bit(self, genus, illuminant_name, lam):
        expected = reference_objective(
            genus, OBJECTIVE_TARGET, load_illuminant(illuminant_name), load_observer(), lam
        )
        assert solver_objective(genus, illuminant_name)(lam).hex() == expected.hex()

    @given(
        st.sampled_from([BAND_PASS, BAND_STOP]),
        st.sampled_from(["D65", "E"]),
        st.tuples(
            st.one_of(st.floats(360.0, 720.0), st.floats(300.0, 780.0)),
            st.one_of(st.floats(360.0, 720.0), st.floats(300.0, 780.0)),
        ),
    )
    @example(BAND_PASS, "D65", (400.0, 500.0))  # in range
    @example(BAND_STOP, "E", (360.0, 720.0))  # the range's ends
    @example(BAND_STOP, "D65", (350.0, 730.0))  # out of range: clamped
    @example(BAND_PASS, "E", (600.0, 500.0))  # reversed: inf, no spectrum
    @settings(max_examples=300, deadline=None)
    def test_cuts_as_the_constructor_makes_them(self, genus, illuminant_name, lam):
        objective, seen = solver_objective(genus, illuminant_name), []
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(optimal, "synthesize", lambda params: seen.append(params) or synthesize(params))
            value = objective(lam)
        assert len(seen) == 1 or (not seen and value == math.inf)
        for p in seen:
            assert p == OptimalSpectrumParams(p.genus, p.lambda1_nm, p.lambda2_nm, p.K)
            assert (p.genus, p.K) == (genus, 1.0)
            assert (p.lambda1_nm, p.lambda2_nm) == tuple(
                min(max(v, GRID_START_NM), GRID_STOP_NM) for v in lam
            )

    @pytest.mark.parametrize("genus", [BAND_PASS, BAND_STOP])
    @pytest.mark.parametrize("lam", [(math.nan, 500.0), (500.0, math.nan), (math.nan, math.nan)])
    def test_nan_cut_raises_the_constructors_error(self, genus, lam):
        with pytest.raises(ValueError, match="^cuts must satisfy 360 <= lambda1 <= lambda2 <= 720$"):
            solver_objective(genus, "D65")(lam)


class TestScaleToLuminance:
    def test_white_amplitude(self):
        params = OptimalSpectrumParams(BAND_PASS, 360.0, 720.0, 1.0)
        scaled = scale_to_luminance(params, 1.0)
        assert scaled.K == pytest.approx(0.00946, rel=0.10)
        assert scaled.K == pytest.approx(0.01, rel=0.06)

    @pytest.mark.xfail(
        strict=True,
        reason="printed reference data anomaly: the printed yellow amplitude matches a "
        "doubled (full-mix) luminance, not the tabulated half-mix L_C",
    )
    def test_yellow_amplitude_printed_value(self):
        params = OptimalSpectrumParams(BAND_PASS, 480.0, 609.0, 1.0)
        scaled = scale_to_luminance(params, 0.464)
        assert scaled.K == pytest.approx(0.00908, rel=0.10)

    def test_zero_luminance_target(self):
        params = OptimalSpectrumParams(BAND_PASS, 480.0, 609.0, 1.0)
        assert scale_to_luminance(params, 0.0).K == 0.0

    def test_zero_luminance_spectrum_is_an_error(self):
        # a degenerate band of zero width synthesizes to an all-dark spectrum
        params = OptimalSpectrumParams(BAND_PASS, 360.0, 360.0, 1.0)
        assert np.all(synthesize(params).values == 0.0)
        with pytest.raises(ValueError, match="zero luminance"):
            scale_to_luminance(params, 0.5)

    def test_chromaticity_unchanged_by_scaling(self):
        params = OptimalSpectrumParams(BAND_STOP, 412.0, 584.0, 1.0)
        scaled = scale_to_luminance(params, 0.213)
        a = rectangle_chromaticity(params)
        b = rectangle_chromaticity(scaled)
        assert (a.x, a.y, a.z) == pytest.approx((b.x, b.y, b.z), abs=1e-14)

    def test_out_of_range_lc_rejected(self):
        params = OptimalSpectrumParams(BAND_PASS, 400.0, 600.0, 1.0)
        with pytest.raises(ValueError):
            scale_to_luminance(params, 1.2)


@pytest.fixture(scope="module")
def suite():
    return {name: r for (name, _, _), r in zip(TABLE1_COLUMNS, table1_suite())}


class TestTable1Suite:

    @pytest.mark.parametrize("name", REPRODUCIBLE)
    def test_reproducible_columns_converge_near_printed_cuts(self, suite, name):
        report = suite[name]
        l1, l2, k = PRINTED[name]
        assert report.converged, f"{name} did not converge"
        assert report.achieved_delta_e <= 1e-5
        assert report.params.lambda1_nm == pytest.approx(l1, abs=3.0)
        assert report.params.lambda2_nm == pytest.approx(l2, abs=3.0)

    @pytest.mark.parametrize("name", ["R", "G", "B", "R05", "G05", "B05", "WW"])
    def test_amplitudes_within_ten_percent(self, suite, name):
        assert suite[name].params.K == pytest.approx(PRINTED[name][2], rel=0.10)

    @pytest.mark.parametrize("name", ["Ye", "C"])
    @pytest.mark.xfail(
        strict=True,
        reason="printed reference data anomaly: yellow and cyan half-mix targets lie "
        "outside the image of their assigned single-band genus under the bundled "
        "tables (cyan misses by ~6e-4, yellow by ~1e-2)",
    )
    def test_anomalous_columns_convergence(self, suite, name):
        assert suite[name].converged

    @pytest.mark.parametrize("name", ["Ye", "C", "M"])
    @pytest.mark.xfail(
        strict=True,
        reason="printed reference data anomaly: the printed Ye/C/M amplitudes match "
        "doubled (full-mix) luminances, about twice the tabulated L_C row",
    )
    def test_anomalous_amplitudes(self, suite, name):
        assert suite[name].params.K == pytest.approx(PRINTED[name][2], rel=0.10)

    def test_genus_assignment(self, suite):
        assert suite["M"].params.genus == BAND_STOP
        assert suite["G"].params.genus == BAND_PASS
        assert suite["B05"].params.genus == BAND_STOP


def scipy_nelder_mead(fun, x0, initial_simplex=None, **options):
    """scipy's Nelder-Mead, the reference for ``optimal.minimize``, on the
    same objective (which takes a pair of floats) and options."""
    scipy_optimize = pytest.importorskip("scipy.optimize")
    return scipy_optimize.minimize(
        lambda v: fun(tuple(v.tolist())),
        np.asarray(x0, dtype=float),
        method="Nelder-Mead",
        options=dict(options, initial_simplex=initial_simplex),
    )


def assert_same_run(ours, theirs):
    assert np.asarray(ours.x, dtype=float).tobytes() == theirs.x.tobytes()
    assert np.float64(ours.fun).tobytes() == np.float64(theirs.fun).tobytes()
    assert (ours.nit, ours.nfev) == (theirs.nit, theirs.nfev)


@contextlib.contextmanager
def solver_calls():
    """Record ``(fun, x0, initial_simplex, options, result)`` for every call
    the solver makes of ``optimal.minimize``."""
    calls, minimize = [], optimal.minimize

    def recording(fun, x0, initial_simplex=None, **options):
        calls.append((fun, x0, initial_simplex, options, minimize(fun, x0, initial_simplex, **options)))
        return calls[-1][-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(optimal, "minimize", recording)
        yield calls


def assert_solver_matches_scipy(calls):
    for fun, x0, initial_simplex, options, ours in calls:
        assert_same_run(ours, scipy_nelder_mead(fun, x0, initial_simplex, **options))


quadratic = lambda v: v[0] ** 2 + v[1] ** 2  # noqa: E731
concave = lambda v: -(v[0] ** 2) - v[1] ** 2  # noqa: E731
linear = lambda v: -v[0] - 2 * v[1]  # noqa: E731

# objective, simplex (no tied values), and the points the first pass
# evaluates after the three vertices; the shrink's are rounded, so the
# comparison with scipy pins its operation order
FIRST_PASS = {
    "reflection": (quadratic, [(0, 0.5), (1, 0.2), (0.5, 1.2)], [(0.5, -0.5)]),
    "expansion": (linear, [(0, 0), (1, 0), (0, 1)], [(1, 1), (1.5, 1.5)]),
    "outside contraction": (quadratic, [(0, 0), (2, 0), (1.5, 3)], [(0.5, -3), (0.75, -1.5)]),
    "inside contraction": (quadratic, [(0, 0), (1, 0), (0, 1.2)], [(1, -1.2), (0.25, 0.6)]),
    "shrink": (
        concave,
        [(-2.9, 0.4), (-3.2, -3.7), (-3.4, 2.9)],
        [(-3.7, -1.2), (-3.5, -0.8), (-3.3, -0.4), (-3.05, -1.65)],
    ),
}


# values the objective returns, ties among them, and Python and numpy floats
RANKED_POOL = [-math.inf, -1.0, -0.0, 0.0, 5e-324, 0.25, 0.25 + 2**-54, 1.0, math.inf,
               np.float64(math.inf), math.nan, np.float64(0.25)]


# every pattern of three values drawn from 1 < 2 < 3 and NaN: the six strict
# orders, each tie and each NaN placement; then ties of signed zeros and infinities
RANKED_CASES = [
    *itertools.product([1.0, 2.0, 3.0, math.nan], repeat=3),
    (0.0, -0.0, 1.0), (1.0, -0.0, 0.0), (math.inf, 1.0, math.inf),
    (2.0, math.inf, np.float64(math.inf)),
]


class TestRanked:
    @pytest.mark.parametrize("values", RANKED_CASES, ids=repr)
    def test_each_pattern(self, values):
        f = [v * 1.0 for v in values]  # new objects, so ``is`` tells tied values apart
        sim = [(float(i), -float(i)) for i in range(3)]
        order = np.array(f).argsort().tolist()
        got_sim, got_f = optimal._ranked(list(sim), list(f))
        assert got_sim == [sim[i] for i in order]
        assert all(a is b for a, b in zip(got_f, [f[i] for i in order], strict=True))

    @given(st.lists(st.one_of(st.sampled_from(RANKED_POOL), st.floats()), min_size=3, max_size=3))
    @settings(max_examples=500, deadline=None)
    def test_argsorts_order(self, f):
        sim = [(float(i), -float(i)) for i in range(3)]
        order = np.array(f).argsort().tolist()
        got_sim, got_f = optimal._ranked(sim, f)
        assert got_sim == [sim[i] for i in order]
        assert all(a is b for a, b in zip(got_f, [f[i] for i in order]))


class TestNelderMeadMatchesScipy:
    """``optimal.minimize`` repeats scipy's Nelder-Mead: the same x, fun, nit
    and nfev, bit for bit."""

    @pytest.mark.parametrize("step", FIRST_PASS)
    def test_each_step(self, step):
        fun, simplex, expected = FIRST_PASS[step]
        points = []

        def recorded(v):
            points.append(v)
            return fun(v)

        one_pass = optimal.minimize(recorded, None, simplex, maxiter=2, xatol=0.0, fatol=0.0)
        assert one_pass.nfev == len(points)
        np.testing.assert_allclose(points[3:], expected, rtol=1e-15)
        for maxiter in range(2, 13):  # every pass: a later one may hide a rounding
            options = dict(maxiter=maxiter, xatol=1e-8, fatol=1e-12)
            assert_same_run(
                optimal.minimize(fun, simplex[0], simplex, **options),
                scipy_nelder_mead(fun, simplex[0], simplex, **options),
            )

    @given(
        st.tuples(st.floats(0.1, 0.6), st.floats(0.05, 0.8)).filter(lambda xy: sum(xy) < 0.95),
        st.sampled_from([BAND_PASS, BAND_STOP]),
    )
    @settings(max_examples=40, deadline=None)
    def test_solver_runs(self, xy, genus):
        with solver_calls() as calls:
            report = solve_optimal(Chromaticity.from_xy(*xy), genus)
        assert len(calls) == report.restarts + 1
        assert_solver_matches_scipy(calls)

    def test_restart_from_the_default_simplex(self):
        # the yellow half mix misses the tolerance as a band pass: one restart
        with solver_calls() as calls:
            report = solve_optimal(target_from_weights((0.5, 0.5, 0.0)).chromaticity, BAND_PASS)
        assert report.restarts == 1 and [c[2] is None for c in calls] == [False, True]
        assert_solver_matches_scipy(calls)

    @pytest.mark.parametrize("x0", [(0.0, 1.0), (1.0, 0.0), (0.0, 0.0), (-0.0, 2.0)])
    def test_default_simplex_steps_a_zero_coordinate(self, x0):
        # scipy sets a zero coordinate to 0.00025 (1.05 * 0 would flatten the simplex)
        fun = lambda v: (v[0] - 0.24) ** 2 + 2 * (v[1] - 1.2) ** 2 + v[0] * v[1]  # noqa: E731
        options = dict(maxiter=200, xatol=1e-8, fatol=1e-12)
        ours = optimal.minimize(fun, x0, **options)
        assert_same_run(ours, scipy_nelder_mead(fun, x0, **options))
        assert ours.nit > 10

    def test_tied_inf_vertices(self):
        # a vertex with lambda1 > lambda2 is no rectangle: its value is inf,
        # and the order of two such vertices decides the next steps
        with solver_calls() as calls:
            solve_optimal(Chromaticity.from_xy(0.64, 0.33), BAND_STOP)
        fun, _, _, options, _ = calls[0]
        simplex = [(600.0, 500.0), (650.0, 450.0), (500.0, 600.0)]
        assert fun(simplex[0]) == fun(simplex[1]) == math.inf > fun(simplex[2])
        assert_same_run(
            optimal.minimize(fun, simplex[0], simplex, **options),
            scipy_nelder_mead(fun, simplex[0], simplex, **options),
        )
