import importlib.util
import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from colorbench import (
    ATLAS_CSV_HEADER,
    Chromaticity,
    SpectralDistribution,
    Tristimulus,
    delta_e_xyz,
    dominant_wavelength,
    illuminant_white,
    lc_to_y100,
    load_illuminant,
    load_observer,
    read_spectrum_csv,
    spd_to_xyz,
    to_working_grid,
    xyz_to_chromaticity,
    y100_to_lc,
)
from colorbench.spectral import (
    GRID_COUNT,
    GRID_START_NM,
    CsvTable,
    ObserverTables,
    check_samples,
    grid_wavelengths,
    line_error,
    raw_tristimulus,
    read_csv,
    tristimulus_weights,
)

ROOT = Path(__file__).resolve().parent.parent


def on_grid(head):
    """``head`` followed by ones up to the working grid's sample count."""
    return np.concatenate([np.asarray(head, dtype=float), np.ones(GRID_COUNT - len(head))])


OFF_GRID = "361 samples of the 360-720 nm / 1 nm working grid"


class TestSpectralDistribution:
    def test_rejects_negative_values(self):
        with pytest.raises(ValueError, match="non-negative"):
            SpectralDistribution(on_grid([0.2, -0.1]))

    def test_rejects_nan(self):
        with pytest.raises(ValueError, match="finite"):
            SpectralDistribution(on_grid([0.2, np.nan]))

    def test_rejects_empty(self):
        with pytest.raises(ValueError, match=OFF_GRID):
            SpectralDistribution([])

    def test_rejects_other_grids(self):
        for values in (np.ones(73), np.ones(GRID_COUNT - 1), np.ones(GRID_COUNT + 1),
                       np.ones((1, GRID_COUNT)), 1.0):
            with pytest.raises(ValueError, match=OFF_GRID):
                SpectralDistribution(values)


def _former_spd_error(values):
    """The message the former numpy checks of ``SpectralDistribution`` gave."""
    vals = np.atleast_1d(np.asarray(values, dtype=float))
    if not np.all(np.isfinite(vals)):
        return "spectral samples must be finite"
    if np.any(vals < 0):
        return "spectral samples must be non-negative"
    return None


def _former_tristimulus_error(comps):
    if not all(np.isfinite(comps)):
        return "tristimulus components must be finite"
    if any(c < 0 for c in comps):
        return "tristimulus components must be non-negative"
    return None


def _former_chromaticity_error(comps):
    if not all(np.isfinite(comps)):
        return "chromaticity components must be finite"
    if any(c < -1e-12 or c > 1 + 1e-12 for c in comps):
        return "chromaticity components must lie in [0, 1]"
    if abs(sum(comps) - 1.0) > 1e-12:
        return "chromaticity components must sum to 1"
    return None


def _error(make, *args):
    try:
        make(*args)
    except ValueError as exc:
        return str(exc)
    return None


# non-finite, negative and signed-zero values among ordinary ones
edge_value = st.one_of(
    st.sampled_from([np.nan, np.inf, -np.inf, -0.0, 0.0, -1.0, -1e-300, -1e-12, -2e-12,
                     1.0 + 1e-12, 1.0 + 2e-12, 1.0, 0.5, 0.25, 1e308]),
    st.floats(0.0, 1.0),
    st.floats(allow_nan=True, allow_infinity=True),
)


class TestValueTypeChecks:
    @given(st.lists(edge_value, min_size=1, max_size=6))
    def test_spectral_distribution_messages(self, values):
        got = _error(SpectralDistribution, on_grid(values))
        assert got == _former_spd_error(values)

    @given(st.tuples(edge_value, edge_value, edge_value))
    def test_tristimulus_messages(self, comps):
        assert _error(Tristimulus, *comps) == _former_tristimulus_error(comps)

    @given(st.tuples(edge_value, edge_value, edge_value))
    def test_chromaticity_messages(self, comps):
        assert _error(Chromaticity, *comps) == _former_chromaticity_error(comps)


def _checked_spd_values(values):
    """The ``SpectralDistribution.__post_init__`` body that converted every
    input: the values it stored."""
    vals = np.asarray(values, dtype=float)
    if vals.shape != (GRID_COUNT,):
        raise ValueError(
            f"a spectral distribution holds the {GRID_COUNT} samples of the "
            f"360-720 nm / 1 nm working grid, got shape {vals.shape}"
        )
    lo, hi = vals.min(), vals.max()
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError("spectral samples must be finite")
    if lo < 0:
        raise ValueError("spectral samples must be non-negative")
    return vals


def _checked_tristimulus(X, Y, Z):
    """The ``Tristimulus.__post_init__`` body that converted every component."""
    X, Y, Z = float(X), float(Y), float(Z)
    if not (math.isfinite(X) and math.isfinite(Y) and math.isfinite(Z)):
        raise ValueError("tristimulus components must be finite")
    if X < 0 or Y < 0 or Z < 0:
        raise ValueError("tristimulus components must be non-negative")
    return X, Y, Z


def _checked_chromaticity(x, y, z):
    """The ``Chromaticity.__post_init__`` body that converted every component."""
    x, y, z = float(x), float(y), float(z)
    if not (math.isfinite(x) and math.isfinite(y) and math.isfinite(z)):
        raise ValueError("chromaticity components must be finite")
    lo, hi = -1e-12, 1 + 1e-12
    if not (lo <= x <= hi and lo <= y <= hi and lo <= z <= hi):
        raise ValueError("chromaticity components must lie in [0, 1]")
    if abs(x + y + z - 1.0) > 1e-12:
        raise ValueError("chromaticity components must sum to 1")
    return x, y, z


def _made(make, *args):
    """What ``make(*args)`` returned, or the type and message it raised."""
    try:
        return make(*args)
    except (TypeError, ValueError) as exc:
        return type(exc), str(exc)


SPECIAL = [np.nan, np.inf, -np.inf, -0.0, 0.0, -1.0, -1e-300, 5e-324, 1.0, 1e308, -1e308]
grid_floats = hnp.arrays(np.float64, GRID_COUNT, elements=st.floats(0.0, 1e308))


@st.composite
def spd_inputs(draw):
    """Spectral input of every kind a caller may pass, mostly on the grid."""
    vals = draw(grid_floats)
    if draw(st.booleans()):
        vals[draw(st.integers(0, GRID_COUNT - 1))] = draw(st.sampled_from(SPECIAL))
    kind = draw(st.sampled_from(
        ["float64", "list", "big_endian", "strided", "float32", "int64", "bool", "shape", "other"]
    ))
    if kind == "list":
        return vals.tolist()
    if kind == "big_endian":  # float64, but not in native byte order
        return vals.astype(">f8")
    if kind == "strided":  # a float64 view that is not contiguous
        return np.repeat(vals, 2)[::2]
    if kind == "float32":
        return draw(hnp.arrays(np.float32, GRID_COUNT, elements=st.floats(width=32)))
    if kind in ("int64", "bool"):
        return draw(hnp.arrays(np.dtype(kind), GRID_COUNT))
    if kind == "shape":
        return draw(hnp.arrays(np.float64, hnp.array_shapes(min_dims=0, max_dims=2, max_side=400)))
    if kind == "other":
        return draw(st.sampled_from([[], 1.0, 3, True, np.float64(2.0), None, "abc"]))
    return vals


def _holders(v: float):
    """``v`` as a Python float, and as the other types that hold it."""
    same = [v, np.float64(v), repr(v)]
    return st.sampled_from(same + [np.float32(v)] if abs(v) < 3e38 or v != v else same)


# one component as a Python float, or as another type that holds it
component = st.one_of(st.sampled_from(SPECIAL), st.floats(0.0, 1.0), st.floats()).flatmap(
    _holders
) | st.sampled_from([0, 1, 7, True, False, np.int64(3), np.bool_(True), None, "abc"])


@st.composite
def chromaticity_inputs(draw):
    """Components that mostly sum to 1, with some replaced by other types."""
    x, y = draw(st.floats(0.0, 1.0)), draw(st.floats(0.0, 1.0))
    comps = [x, y, 1.0 - x - y]
    for i in draw(st.lists(st.integers(0, 2), max_size=3)):
        comps[i] = draw(component)
    return comps


def _same_floats(got, expected):
    """``got`` holds Python floats bit-equal to those ``expected`` holds."""
    assert all(type(v) is float for v in (*got, *expected))
    assert np.array(got).tobytes() == np.array(expected).tobytes()


class TestConstructorsAsBefore:
    """The constructors accept, reject and store exactly as the bodies that
    converted every input did."""

    @given(spd_inputs())
    @settings(max_examples=300, deadline=None)
    def test_spectral_distribution(self, values):
        expected = _made(_checked_spd_values, values)
        got = _made(SpectralDistribution, values)
        if isinstance(expected, tuple):
            assert got == expected
            return
        assert type(got.values) is np.ndarray and got.values.dtype == np.float64
        assert got.values.tobytes() == expected.tobytes()
        assert (got.values is values) == (expected is values)

    @given(st.tuples(component, component, component))
    @settings(max_examples=300, deadline=None)
    def test_tristimulus(self, comps):
        expected = _made(_checked_tristimulus, *comps)
        got = _made(Tristimulus, *comps)
        if isinstance(got, tuple):
            assert got == expected
        else:
            _same_floats((got.X, got.Y, got.Z), expected)

    @given(chromaticity_inputs())
    @settings(max_examples=300, deadline=None)
    def test_chromaticity(self, comps):
        expected = _made(_checked_chromaticity, *comps)
        got = _made(Chromaticity, *comps)
        if isinstance(got, tuple):
            assert got == expected
        else:
            _same_floats((got.x, got.y, got.z), expected)

    @given(
        hnp.arrays(np.float64, GRID_COUNT, elements=st.floats(0.0, 1e300)),
        st.sampled_from(["D65", "E"]),
        st.sampled_from(["degree2", "degree10"]),
    )
    @settings(max_examples=200, deadline=None)
    def test_raw_tristimulus_is_the_matrix_product(self, values, ill_name, obs_id):
        spd = SpectralDistribution(values)
        ill, obs = load_illuminant(ill_name), load_observer(obs_id)
        got = raw_tristimulus(spd, ill, obs)
        expected = tuple(float(v) for v in spd.values @ tristimulus_weights(ill, obs))
        _same_floats(got, expected)


class TestResample:
    def test_flat_function_survives(self):
        out = to_working_grid(360 + 5 * np.arange(73), np.ones(73))
        assert out.values.shape == (GRID_COUNT,)
        assert np.all(out.values == 1.0)

    def test_zero_outside_support(self):
        out = to_working_grid(400 + 10 * np.arange(31), np.ones(31))  # 400-700
        assert out.values[0] == 0.0  # 360 nm
        assert out.values[-1] == 0.0  # 720 nm
        assert out.values[100] == 1.0  # 460 nm

    def test_linear_midpoint(self):
        out = to_working_grid([500, 510], [0.0, 1.0])
        assert out.values[505 - GRID_START_NM] == pytest.approx(0.5)

    def test_grid_is_one_read_only_array(self):
        grid = grid_wavelengths()
        assert grid is grid_wavelengths()
        assert grid.shape == (GRID_COUNT,) and (grid[0], grid[-1]) == (360.0, 720.0)
        with pytest.raises(ValueError):
            grid[0] = 0.0


class TestSpdToXyz:
    def test_perfect_reflector_is_d65_white(self, flat_spd, d65, obs2):
        xy = xyz_to_chromaticity(spd_to_xyz(flat_spd, d65, obs2))
        assert xy.x == pytest.approx(0.3127, abs=5e-4)
        assert xy.y == pytest.approx(0.3290, abs=5e-4)

    def test_perfect_reflector_y_is_100(self, flat_spd, obs2):
        for name in ("D65", "E"):
            t = spd_to_xyz(flat_spd, load_illuminant(name), obs2)
            assert t.Y == pytest.approx(100.0, abs=1e-12)

    def test_zero_spectrum(self, d65, obs2):
        t = spd_to_xyz(SpectralDistribution(np.zeros(GRID_COUNT)), d65, obs2)
        assert (t.X, t.Y, t.Z) == (0.0, 0.0, 0.0)

    @pytest.mark.xfail(
        strict=True,
        reason="printed reference data anomaly: the published (480, 609) cuts do not "
        "reproduce the published yellow chromaticity under any CIE tabulation; "
        "the pass band 480-609 integrates to a yellowish green near (0.34, 0.56)",
    )
    def test_yellow_band_pass_printed_cuts(self, d65, obs2):
        from colorbench import BAND_PASS, OptimalSpectrumParams, synthesize

        spd = synthesize(OptimalSpectrumParams(BAND_PASS, 480.0, 609.0, 1.0))
        xy = xyz_to_chromaticity(spd_to_xyz(spd, d65, obs2))
        assert xy.x == pytest.approx(0.4193, abs=2e-3)
        assert xy.y == pytest.approx(0.5053, abs=2e-3)

    def test_grid_mismatch_rejected(self):
        # A 5 nm spectrum cannot be built, so it never reaches spd_to_xyz.
        # Same input as TestSpectralDistribution.test_rejects_other_grids;
        # kept under this name until the two are folded together.
        with pytest.raises(ValueError, match=OFF_GRID):
            SpectralDistribution(np.ones(73))

    def test_homogeneity(self, d65, obs2):
        rng = np.random.RandomState(7)
        s = rng.rand(GRID_COUNT)
        for alpha in (0.0, 0.25, 2.0, 17.5):
            a = spd_to_xyz(SpectralDistribution(alpha * s), d65, obs2).as_array()
            b = alpha * spd_to_xyz(SpectralDistribution(s), d65, obs2).as_array()
            np.testing.assert_allclose(a, b, rtol=1e-12, atol=1e-12)

    def test_additivity(self, d65, obs2):
        rng = np.random.RandomState(8)
        s1, s2 = rng.rand(GRID_COUNT), rng.rand(GRID_COUNT)
        lhs = spd_to_xyz(SpectralDistribution(s1 + s2), d65, obs2).as_array()
        rhs = (
            spd_to_xyz(SpectralDistribution(s1), d65, obs2).as_array()
            + spd_to_xyz(SpectralDistribution(s2), d65, obs2).as_array()
        )
        np.testing.assert_allclose(lhs, rhs, rtol=1e-12, atol=1e-12)


class TestTristimulusWeights:
    def test_cached_per_table_pair_and_read_only(self, d65, obs2, obs10):
        table = tristimulus_weights(d65, obs2)
        assert table.shape == (GRID_COUNT, 3)
        assert tristimulus_weights(d65, obs2) is table
        assert tristimulus_weights(d65, obs10) is not table
        with pytest.raises(ValueError):
            table[0, 0] = 1.0

    @pytest.mark.parametrize("value", [1e307, 1e306], ids=["columns", "total"])
    def test_overflowing_sums_rejected(self, obs2, value):
        # every product is finite; at 1e307 each column's sum exceeds the float
        # range, at 1e306 only X + Y + Z does
        huge = SpectralDistribution(np.full(GRID_COUNT, value))
        with pytest.raises(ValueError, match="weighted sums overflow"):
            tristimulus_weights(huge, obs2)

    def test_off_grid_illuminant_rejected(self):
        # Neither can be built, so neither reaches tristimulus_weights.
        # Same inputs as test_rejects_other_grids and test_rejects_empty;
        # kept under this name until they are folded together.
        for values in (np.ones(73), []):
            with pytest.raises(ValueError, match=OFF_GRID):
                SpectralDistribution(values)

    @given(
        st.integers(0, 2**32 - 1),
        st.floats(-300.0, 300.0),
        st.floats(0.0, 1.0),
        st.sampled_from(["D65", "E"]),
        st.sampled_from(["degree2", "degree10"]),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_per_channel_sums(self, seed, exponent, zero_share, ill_name, obs_id):
        rng = np.random.default_rng(seed)
        values = rng.random(GRID_COUNT) * 10.0**exponent
        values[rng.random(GRID_COUNT) < zero_share] = 0.0
        spd = SpectralDistribution(values)
        ill, obs = load_illuminant(ill_name), load_observer(obs_id)
        sp = spd.values * ill.values
        raw = np.array([np.sum(sp * obs.cmf[:, j]) for j in range(3)])
        k = 100.0 / np.sum(ill.values * obs.cmf[:, 1])
        # the largest component sets the scale: a norm would underflow
        scale = np.abs(raw).max()
        np.testing.assert_allclose(raw_tristimulus(spd, ill, obs), raw, rtol=0, atol=1e-12 * scale)
        np.testing.assert_allclose(
            spd_to_xyz(spd, ill, obs).as_array(), k * raw, rtol=0, atol=1e-12 * k * scale
        )


class TestChromaticity:
    def test_equal_components(self):
        c = xyz_to_chromaticity(Tristimulus(1.0, 1.0, 1.0))
        assert (c.x, c.y, c.z) == pytest.approx((1 / 3, 1 / 3, 1 / 3))

    def test_scale_invariance(self):
        a = xyz_to_chromaticity(Tristimulus(12.0, 34.0, 5.0))
        b = xyz_to_chromaticity(Tristimulus(24.0, 68.0, 10.0))
        assert a.as_array() == pytest.approx(b.as_array(), rel=1e-14)

    def test_components_sum_to_one(self):
        rng = np.random.RandomState(5)
        for _ in range(200):
            xyz = Tristimulus(*rng.uniform(0.01, 100.0, 3))
            c = xyz_to_chromaticity(xyz)
            assert abs(c.x + c.y + c.z - 1.0) <= 1e-12

    def test_zero_sum_is_an_error(self):
        with pytest.raises(ValueError, match="zero-sum"):
            xyz_to_chromaticity(Tristimulus(0.0, 0.0, 0.0))

    def test_d65_white_tristimulus_projection(self, flat_spd, d65, obs2):
        c = xyz_to_chromaticity(spd_to_xyz(flat_spd, d65, obs2))
        assert c.x == pytest.approx(0.3127, abs=5e-4)
        assert c.y == pytest.approx(0.3290, abs=5e-4)
        assert c.z == pytest.approx(0.3583, abs=5e-4)

    def test_from_xy(self):
        c = Chromaticity.from_xy(0.64, 0.33)
        assert c.z == pytest.approx(0.03)

    def test_rejects_non_normalized(self):
        with pytest.raises(ValueError, match="sum to 1"):
            Chromaticity(0.5, 0.5, 0.5)


chroma_components = st.tuples(
    st.floats(0.01, 0.98), st.floats(0.01, 0.98)
).filter(lambda t: t[0] + t[1] < 0.99)


class TestDeltaE:
    def test_identical_inputs(self):
        c = Chromaticity.from_xy(0.3, 0.4)
        assert delta_e_xyz(c, c) == 0.0

    def test_hand_computed_value(self):
        # sqrt(0.0041^2 + 0.0001^2 + 0.0042^2), checked by hand
        a = Chromaticity(0.64, 0.33, 0.03)
        b = Chromaticity(0.6359, 0.3299, 0.0342)
        assert delta_e_xyz(a, b) == pytest.approx(0.0058703, abs=1e-6)

    @given(chroma_components, chroma_components)
    def test_equals_numpy_sqrt(self, p, q):
        a, b = Chromaticity.from_xy(*p), Chromaticity.from_xy(*q)
        d2 = (a.x - b.x) ** 2 + (a.y - b.y) ** 2 + (a.z - b.z) ** 2
        assert delta_e_xyz(a, b) == float(np.sqrt(d2))

    @given(chroma_components, chroma_components)
    def test_symmetry(self, p, q):
        a, b = Chromaticity.from_xy(*p), Chromaticity.from_xy(*q)
        assert delta_e_xyz(a, b) == delta_e_xyz(b, a)

    @given(chroma_components, chroma_components, chroma_components)
    def test_metric_axioms(self, p, q, r):
        a, b, c = (Chromaticity.from_xy(*t) for t in (p, q, r))
        ab, bc, ac = delta_e_xyz(a, b), delta_e_xyz(b, c), delta_e_xyz(a, c)
        assert ab >= 0.0
        assert ac <= ab + bc + 1e-12
        if p == q:
            assert ab == 0.0


class TestLuminanceScales:
    def test_round_trip(self):
        assert lc_to_y100(y100_to_lc(73.2)) == pytest.approx(73.2)
        assert y100_to_lc(100.0) == 1.0
        assert lc_to_y100(0.464) == pytest.approx(46.4)


class TestDominantWavelength:
    def test_red_primary_under_d65(self, obs2):
        wl = dominant_wavelength(Chromaticity.from_xy(0.64, 0.33), illuminant_white("D65"), obs2)
        assert wl == pytest.approx(611.0, abs=1.0)

    def test_blue_primary_under_d65(self, obs2):
        wl = dominant_wavelength(Chromaticity.from_xy(0.15, 0.06), illuminant_white("D65"), obs2)
        assert wl == pytest.approx(464.0, abs=1.0)

    def test_magenta_is_complementary(self, obs2):
        wl = dominant_wavelength(
            Chromaticity.from_xy(0.3209, 0.1542), illuminant_white("D65"), obs2
        )
        assert wl is None

    def test_white_coincident_is_an_error(self, obs2):
        w = illuminant_white("D65")
        with pytest.raises(ValueError, match="white"):
            dominant_wavelength(Chromaticity.from_xy(w.x, w.y), w, obs2)

    def test_half_saturated_red_shares_dominant_wavelength(self, obs2):
        w = illuminant_white("D65")
        full = dominant_wavelength(Chromaticity.from_xy(0.64, 0.33), w, obs2)
        from colorbench import target_from_weights

        half = target_from_weights((2 / 3, 1 / 6, 1 / 6)).chromaticity
        assert dominant_wavelength(half, w, obs2) == pytest.approx(full, abs=0.2)


def loop_dominant_wavelength(c, white, obs):
    """``dominant_wavelength`` as one loop over the locus segments, then the
    purple line: the reference for the array form."""
    d = np.array([c.x - white.x, c.y - white.y])
    if float(np.hypot(*d)) < 1e-6:
        raise ValueError("color coincides with the white point")
    locus = obs.cmf[:, :2] / obs.cmf.sum(axis=1)[:, None]
    w = np.array([white.x, white.y])

    def ray_hit(p, q):
        # solve w + t*d == p + u*(q - p) with t > 0, u in [0, 1]
        e = q - p
        det = d[0] * (-e[1]) - (-e[0]) * d[1]
        if abs(det) < 1e-15:
            return None
        rhs = p - w
        t = (rhs[0] * (-e[1]) - (-e[0]) * rhs[1]) / det
        u = (d[0] * rhs[1] - d[1] * rhs[0]) / det
        if t > 1e-9 and -1e-9 <= u <= 1 + 1e-9:
            return t, u
        return None

    best = None
    for i in range(len(locus) - 1):
        hit = ray_hit(locus[i], locus[i + 1])
        if hit and (best is None or hit[0] < best[0]):
            best = (hit[0], GRID_START_NM + (i + hit[1]) * 1)
    if best is not None:
        return float(best[1])
    if ray_hit(locus[-1], locus[0]) is not None:
        return None
    raise ValueError("ray from white through color intersects neither locus nor purple line")


class TestDominantWavelengthMatchesLoop:
    @given(
        st.floats(0.0, 1.0),
        st.floats(0.0, 1.0),
        st.sampled_from(["D65", "E"]),
        st.sampled_from(["degree2", "degree10"]),
    )
    @settings(max_examples=300, deadline=None)
    def test_bit_equal_to_the_loop(self, x, y, ill_name, obs_id):
        # the whole chromaticity triangle, inside and outside the locus
        c = Chromaticity.from_xy(x, y * (1.0 - x))
        white, obs = illuminant_white(ill_name, obs_id), load_observer(obs_id)
        got = _wavelength_or_error(dominant_wavelength, c, white, obs)
        assert got == _wavelength_or_error(loop_dominant_wavelength, c, white, obs)

    def test_locus_points_and_white(self):
        white = illuminant_white("D65")
        for obs_id in ("degree2", "degree10"):
            obs = load_observer(obs_id)
            locus = obs.cmf[:, :2] / obs.cmf.sum(axis=1)[:, None]
            for x, y in [*locus[::7], *(0.5 * (locus[::11] + locus[-1])), (white.x, white.y)]:
                c = Chromaticity.from_xy(float(x), float(y))
                got = _wavelength_or_error(dominant_wavelength, c, white, obs)
                assert got == _wavelength_or_error(loop_dominant_wavelength, c, white, obs)


def _wavelength_or_error(fn, *args):
    """``fn``'s result, or the text of the ValueError it raised."""
    try:
        return fn(*args)
    except ValueError as exc:
        return str(exc)


class TestObserverTables:
    def test_y_bar_peaks_in_green(self, obs2, obs10):
        for obs in (obs2, obs10):
            peak_idx = int(np.argmax(obs.cmf[:, 1]))
            peak_nm = grid_wavelengths()[peak_idx]
            assert 550.0 <= peak_nm <= 560.0

    def test_tables_share_working_grid(self, obs2):
        assert obs2.cmf.shape == (GRID_COUNT, 3)
        with pytest.raises(ValueError):
            obs2.cmf[0, 0] = 1.0
        for cmf in (obs2.cmf[:-1], obs2.cmf[:, :2], -obs2.cmf, obs2.cmf * np.nan):
            with pytest.raises(ValueError, match="working grid"):
                ObserverTables(cmf, "degree2")

    def test_unknown_observer_rejected(self):
        with pytest.raises(ValueError):
            load_observer("degree4")


class TestBundledTables:
    def test_generator_reproduces_the_bundled_csvs(self, tmp_path, monkeypatch, capsys):
        path = ROOT / "tools" / "generate_cie_tables.py"
        spec = importlib.util.spec_from_file_location("generate_cie_tables", path)
        generator = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(generator)
        monkeypatch.setattr(generator, "OUT_DIR", tmp_path)
        generator.main()
        bundled = ROOT / "src" / "colorbench" / "data"
        names = sorted(f.name for f in bundled.glob("*.csv"))
        assert sorted(f.name for f in tmp_path.iterdir()) == names
        for name in names:
            assert (tmp_path / name).read_bytes() == (bundled / name).read_bytes(), name


class TestSpectrumCsv:
    def test_round_trip(self, tmp_path):
        p = tmp_path / "s.csv"
        p.write_text("wavelength_nm,value\n400,0.5\n500,0.5\n600,0.5\n")
        spd = read_spectrum_csv(p)
        assert spd.values.shape == (GRID_COUNT,)
        assert spd.values[140] == 0.5  # 500 nm
        assert spd.values[0] == 0.0  # outside support

    def test_bad_header(self, tmp_path):
        p = tmp_path / "s.csv"
        p.write_text("lambda,value\n400,0.5\n")
        with pytest.raises(ValueError, match="line 1"):
            read_spectrum_csv(p)

    def test_non_increasing_wavelengths(self, tmp_path):
        p = tmp_path / "s.csv"
        p.write_text("wavelength_nm,value\n500,0.5\n400,0.5\n")
        with pytest.raises(ValueError, match="line 3"):
            read_spectrum_csv(p)

    def test_negative_value(self, tmp_path):
        p = tmp_path / "s.csv"
        p.write_text("wavelength_nm,value\n400,0.5\n500,-0.5\n")
        with pytest.raises(ValueError, match="line 3"):
            read_spectrum_csv(p)

    def test_no_luminous_power_rejected(self, tmp_path, flat_spd):
        p = tmp_path / "s.csv"
        p.write_text("wavelength_nm,value\n800,1\n900,1\n")
        with pytest.raises(ValueError, match="no power"):
            spd_to_xyz(flat_spd, read_spectrum_csv(p))


def reference_read_csv(path, header, numeric_columns=False):
    """``read_csv`` as one loop over the lines, each parsed and checked on
    its own: the reference for the bulk parse."""
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
    ids, rows, numbers = [], [], []
    start = first + 1 - numeric_columns
    for n, line in enumerate(lines[start:], start + 1):
        if not line.strip():
            continue
        parts = line.split(",")
        if len(parts) != width:
            raise line_error(path, n, f"expected {width} fields, got {len(parts)}")
        numeric = line[len(parts[0]) + 1 :] if skip else line
        if "_" in numeric or not numeric.isascii():
            raise line_error(path, n, "numbers must be ASCII, without '_'")
        try:
            numbers.extend(map(float, parts[skip:]))
        except ValueError as exc:
            raise line_error(path, n, exc) from None
        if skip:
            ids.append(parts[0].strip())
        rows.append(n)
    values = np.array(numbers).reshape(len(rows), width - skip)
    finite = np.isfinite(values).all(axis=1)
    if not finite.all():
        raise line_error(path, rows[int(np.argmin(finite))], "numbers must be finite")
    if len(rows) == numeric_columns:
        raise line_error(path, len(lines) + 1, "expected at least one row after the header")
    k = int(numeric_columns)
    return CsvTable(path, first + 1, rows[k:], ids[k:], values[k:], values[0] if k else None)


# the layouts read_csv reads: (header, numeric_columns, number of numbers a row)
CSV_LAYOUTS = {
    "wide": ("id", True, 5),
    "long": ("id,wavelength_nm,value", False, 2),
    "spectrum": ("wavelength_nm,value", False, 2),
    "atlas": (ATLAS_CSV_HEADER, False, 11),
}
# valid spellings: exponents, signs, signed zeros, padding, repeats
valid_number = st.tuples(
    st.sampled_from(["", " ", "\t"]),
    st.one_of(
        st.floats(allow_nan=False, allow_infinity=False).map(repr),
        st.integers(-(10**20), 10**20).map(str),
        st.sampled_from(["-0.0", "0", "+1.5", ".5", "5.", "1e3", "2.5E-3", "1e-320", "0.25"]),
    ),
    st.sampled_from(["", " "]),
).map("".join)
# spellings the reader must reject, for the error path
bad_number = st.sampled_from(["", "abc", "0_5", "\u0661", "nan", "inf", "-inf", "1,2", "# x"])
row_id = st.sampled_from(["a", "b", " a ", "s1_fine_00001", "\u00e9t\u00e9", "a b"])
gap_line = st.sampled_from(["", "  ", "\t"])


@st.composite
def csv_texts(draw, number):
    """A file of one of the ``CSV_LAYOUTS`` (leading comments, the header,
    rows of ``number`` spellings and blank lines among them), its layout and
    its number of rows."""
    kind = draw(st.sampled_from(sorted(CSV_LAYOUTS)))
    header, numeric_columns, width = CSV_LAYOUTS[kind]
    lines = draw(st.lists(st.just("# comment, with a comma"), max_size=2))
    head = header.replace(",", draw(st.sampled_from([",", " , "])))
    if numeric_columns:
        head = ",".join([head, *(draw(number) for _ in range(width))])
    lines.append(head)
    rows = draw(st.integers(0, 6))
    for _ in range(rows):
        fields = [draw(number) for _ in range(width)]
        if header.startswith("id"):
            fields.insert(0, draw(row_id))
        lines.append(",".join(fields))
        lines.extend(draw(st.lists(gap_line, max_size=1)))
    return kind, "\n".join(lines) + draw(st.sampled_from(["", "\n", "\r\n"])), rows


def _outcome(read, path, kind):
    header, numeric_columns, _ = CSV_LAYOUTS[kind]
    try:
        table = read(path, header, numeric_columns)
    except ValueError as exc:
        return str(exc)
    values = table.values.tobytes(), table.values.shape
    columns = None if table.columns is None else table.columns.tobytes()
    return table.header_line, table.lines, table.ids, values, columns


class TestReadCsv:
    def write(self, tmp_path, text):
        p = tmp_path / "t.csv"
        p.write_text(text, encoding="utf-8")
        return p

    def test_fields_lines_and_ids(self, tmp_path):
        p = self.write(tmp_path, "# c\nid,a,b\nr1,1,2\n\nr2, 3 ,4\n")
        table = read_csv(p, "id,a,b")
        assert table.header_line == 2
        assert table.lines == [3, 5]
        assert table.ids == ["r1", "r2"]
        assert table.values.tolist() == [[1.0, 2.0], [3.0, 4.0]]
        assert table.columns is None

    def test_numeric_columns(self, tmp_path):
        p = self.write(tmp_path, "id,400,500\nr1,0.1,0.2\n")
        table = read_csv(p, "id", numeric_columns=True)
        assert table.columns.tolist() == [400.0, 500.0]
        assert table.lines == [2] and table.ids == ["r1"]
        assert table.values.tolist() == [[0.1, 0.2]]

    @pytest.mark.parametrize(
        "text, numeric_columns, line, message",
        [
            ("", False, 1, "empty file, expected header 'x,y'"),
            ("# only a comment\n", False, 2, "empty file"),
            ("x,z\n1,2\n", False, 1, "expected header 'x,y'"),
            ("x,y,400\n1,2,3\n", False, 1, "expected header 'x,y'"),
            ("x,y\n", True, 1, "expected header 'id,<wavelength>,...'"),
            ("x,y\n", False, 2, "expected at least one row after the header"),
            ("x,y\n\n\n", False, 4, "expected at least one row"),
            ("x,y\n1,2\n1,2,3\n", False, 3, "expected 2 fields, got 3"),
            ("x,y\n1\n", False, 2, "expected 2 fields, got 1"),
            ("x,y\n1,two\n", False, 2, "could not convert"),
            ("x,y\n1,2\n# late, comment\n", False, 3, "could not convert"),
            ("x,y\n1,2\n1,inf\n", False, 3, "numbers must be finite"),
            ("id,400,nan\na,2,3\n", True, 1, "numbers must be finite"),
            ("# c\nid,400,abc\na,2,3\n", True, 2, "could not convert"),
            # float() alone would read these as 5.0, 12.0, 500.0 and 3.0
            ("x,y\n1,2\n1,0_5\n", False, 3, "numbers must be ASCII, without '_'"),
            ("x,y\n1,\u0661\u0662\n", False, 2, "numbers must be ASCII"),
            ("id,400,5_00\na,2,3\n", True, 1, "without '_'"),
            ("id,400,500\na_1,2,\uff13\n", True, 2, "numbers must be ASCII"),
        ],
    )
    def test_errors_name_the_line(self, tmp_path, text, numeric_columns, line, message):
        p = self.write(tmp_path, text)
        with pytest.raises(ValueError, match=f"^{re.escape(str(p))}: line {line}: ") as exc:
            read_csv(p, "id" if numeric_columns else "x,y", numeric_columns)
        assert message in str(exc.value)

    @settings(deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(csv_texts(valid_number))
    def test_bulk_parse_equals_reference_on_valid_files(self, tmp_path, drawn):
        kind, text, rows = drawn
        p = self.write(tmp_path, text)
        got = _outcome(read_csv, p, kind)
        assert got == _outcome(reference_read_csv, p, kind)
        assert isinstance(got, tuple) == (rows > 0)

    @settings(deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(csv_texts(st.one_of(valid_number, valid_number, bad_number)))
    def test_bulk_parse_raises_the_reference_error(self, tmp_path, drawn):
        kind, text, _ = drawn
        p = self.write(tmp_path, text)
        assert _outcome(read_csv, p, kind) == _outcome(reference_read_csv, p, kind)

    def test_ids_may_hold_underscores_and_non_ascii(self, tmp_path):
        p = self.write(tmp_path, "id,400,500\ns1_fine_00001,0.5,0.25\n\u00e9t\u00e9,1,2\n")
        table = read_csv(p, "id", numeric_columns=True)
        assert table.ids == ["s1_fine_00001", "\u00e9t\u00e9"]
        assert table.values.tolist() == [[0.5, 0.25], [1.0, 2.0]]

    def test_check_samples_restarts_at_record_starts(self, tmp_path):
        p = self.write(tmp_path, "id,w,v\na,400,1\na,500,1\nb,400,1\nb,400,1\n")
        table = read_csv(p, "id,w,v")
        with pytest.raises(ValueError, match="line 5: wavelengths must be strictly increasing"):
            check_samples(table, [0, 2])
        with pytest.raises(ValueError, match="line 4: wavelengths"):
            check_samples(table)

    def test_check_samples_header_wavelengths(self, tmp_path):
        p = self.write(tmp_path, "# c\nid,500,400\na,1,1\n")
        with pytest.raises(ValueError, match="line 2: wavelengths must be strictly increasing"):
            check_samples(read_csv(p, "id", numeric_columns=True))
        p.write_text("id,400,500\na,1,1\nb,1,-1\n")
        with pytest.raises(ValueError, match="line 3: samples must be non-negative"):
            check_samples(read_csv(p, "id", numeric_columns=True))
