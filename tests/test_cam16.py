import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from colorbench import (
    Cam16ViewingConditions,
    DisplayGamut,
    cam16_forward,
    cam16_inverse,
    d65_white_tristimulus,
    ucs_colorfulness_to_m,
)
from colorbench.cam16 import M16_INV, _M_AB
from colorbench.spectral import _finite_xyz

# worked example from the defining publication: sample XYZ (19.01, 20, 21.78)
# under white (95.05, 100, 108.88), L_A = 318.31, Y_b = 20, average surround
WORKED_EXAMPLE_EXPECTED = {
    "J": 41.731,
    "C": 0.1033,
    "h": 217.068,
    "M": 0.1074,
    "s": 2.345,
    "Q": 195.372,
}


class TestViewingConditions:
    def test_rejects_bad_surround(self):
        with pytest.raises(ValueError):
            Cam16ViewingConditions(L_A=50.0, surround="office")

    def test_rejects_nonpositive_la(self):
        with pytest.raises(ValueError):
            Cam16ViewingConditions(L_A=0.0)

    @pytest.mark.parametrize("la", [math.nan, math.inf])
    def test_rejects_non_finite_la(self, la):
        with pytest.raises(ValueError, match="finite and positive"):
            Cam16ViewingConditions(L_A=la)

    @pytest.mark.parametrize("la", [1e308, 3.7e307, 5e-324, 1e-310, 5e-307])
    def test_rejects_la_whose_f_l_overflows(self, la):
        with pytest.raises(ValueError, match=re.escape(f"L_A = {la!r} is outside the range")):
            Cam16ViewingConditions(L_A=la)

    @settings(max_examples=200)
    @given(st.floats(min_value=5e-324, max_value=1.7e308))
    def test_accepted_la_gives_usable_constants(self, la):
        try:
            vc = Cam16ViewingConditions(L_A=la)
        except ValueError as exc:
            assert "L_A = " in str(exc)
            return
        for value in (vc.F_L, vc.F_L_root, 100.0 / vc.F_L, vc.A_w):
            assert 0.0 < value < math.inf

    @pytest.mark.parametrize("yb", [0.0, -0.0, -1.0, 5e-324, 100.5, math.nan, math.inf])
    def test_rejects_background_outside_0_100(self, yb):
        with pytest.raises(ValueError, match=re.escape("Y_b must lie in (0, 100]")):
            Cam16ViewingConditions(Y_b=yb)

    def test_accepts_background_edges(self):
        assert Cam16ViewingConditions(Y_b=100.0).n == 1.0
        assert math.isfinite(Cam16ViewingConditions(Y_b=1e-300).N_bb)

    def test_rejects_unnormalized_white(self):
        with pytest.raises(ValueError, match="Y_w"):
            Cam16ViewingConditions(white=(95.0, 90.0, 108.0), L_A=50.0)

    @pytest.mark.parametrize(
        "white",
        [(95.05, 100.0), (95.05, 100.0, 108.88, 1.0), (math.nan, 100.0, 108.88),
         (95.05, 100.0, math.inf), (-1.0, 100.0, 108.88), (95.05, 100.0, -1e-300)],
    )
    def test_rejects_white_not_three_finite_non_negative_numbers(self, white):
        with pytest.raises(ValueError, match="three finite, non-negative numbers"):
            Cam16ViewingConditions(white=white)

    def test_white_is_a_tuple_of_floats(self):
        vc = Cam16ViewingConditions(white=np.array([95.05, 100.0, 108.88]))
        assert type(vc.white) is tuple and all(type(v) is float for v in vc.white)
        assert vc.white == (95.05, 100.0, 108.88)
        assert Cam16ViewingConditions().white == d65_white_tristimulus()

    def test_rejects_out_of_range_d(self):
        with pytest.raises(ValueError):
            Cam16ViewingConditions(L_A=50.0, D=1.5)

    def test_auto_d_is_clamped(self):
        vc = Cam16ViewingConditions(L_A=0.001, surround="dark")
        assert 0.0 <= vc.D_eff <= 1.0

    def test_explicit_d_is_used(self):
        vc = Cam16ViewingConditions(L_A=50.0, D=1.0)
        assert vc.D_eff == 1.0


class TestForward:
    def test_worked_example(self, worked_example_vc):
        app = cam16_forward((19.01, 20.0, 21.78), worked_example_vc)
        for name, expected in WORKED_EXAMPLE_EXPECTED.items():
            assert getattr(app, name) == pytest.approx(expected, abs=1e-3), name

    def test_white_has_j_100(self, worked_example_vc):
        app = cam16_forward(worked_example_vc.white, worked_example_vc)
        assert app.J == pytest.approx(100.0, abs=1e-6)

    def test_gray_is_achromatic(self):
        # under full adaptation the white-point ray is the achromatic axis
        vc = Cam16ViewingConditions(L_A=318.31, D=1.0)
        app = cam16_forward(0.2 * np.array(vc.white), vc)
        assert app.C == pytest.approx(0.0, abs=1e-6)
        assert app.M == pytest.approx(0.0, abs=1e-6)

    def test_black_maps_to_zero(self, worked_example_vc):
        app = cam16_forward((0.0, 0.0, 0.0), worked_example_vc)
        assert app.J == 0.0 and app.Q == 0.0 and app.C == 0.0

    def test_lightness_monotonic_in_luminance(self):
        vc = Cam16ViewingConditions(L_A=50.0)
        w = np.array(vc.white)
        js = [cam16_forward(f * w, vc).J for f in np.linspace(0.05, 1.0, 12)]
        assert all(a < b for a, b in zip(js, js[1:]))

    def test_hue_continuity_across_wrap(self):
        vc = Cam16ViewingConditions(L_A=50.0)
        gamut = DisplayGamut()
        # walk a tight loop of stimuli whose hue crosses 360 -> 0
        base = np.array([0.8, 0.2, 0.3])
        hues = []
        for eps in np.linspace(-0.01, 0.01, 21):
            rgb = base + np.array([0.0, eps, -eps])
            xyz = gamut.rgb_to_xyz @ rgb
            hues.append(cam16_forward(xyz, vc).h)
        # its hue angle is -1.5e-15 degrees, which one reduction mod 360 makes 360.0
        assert cam16_forward((99.97878110872068, 20.0, 6.758793969849246), vc).h == 0.0
        assert all(type(h) is float and 0.0 <= h < 360.0 for h in hues)
        diffs = np.diff([(h + 180.0) % 360.0 - 180.0 for h in hues])
        assert np.max(np.abs(diffs)) < 5.0  # no jumps beyond smooth drift


class TestInverse:
    def test_round_trip_forward_then_inverse(self, worked_example_vc):
        app = cam16_forward((19.01, 20.0, 21.78), worked_example_vc)
        xyz = cam16_inverse(app.J, app.h, worked_example_vc, M=app.M)
        np.testing.assert_allclose(xyz, [19.01, 20.0, 21.78], rtol=1e-6, atol=1e-9)

    def test_reverse_round_trip(self):
        vc = Cam16ViewingConditions(L_A=50.0)
        xyz = cam16_inverse(40.0, 120.0, vc, M=30.0 * vc.F_L_root)
        app = cam16_forward(xyz, vc)
        assert app.J == pytest.approx(40.0, abs=1e-6)
        assert app.C == pytest.approx(30.0, abs=1e-6)
        assert app.h == pytest.approx(120.0, abs=1e-6)

    def test_achromatic_inverse_tracks_adapted_gray_axis(self):
        # under full adaptation the achromatic axis is the white-point ray
        vc = Cam16ViewingConditions(L_A=50.0, D=1.0)
        xyz = np.array(cam16_inverse(40.0, 0.0, vc, M=0.0))
        w = np.array(vc.white)
        ratios = xyz / w
        assert ratios == pytest.approx([ratios[1]] * 3, rel=1e-9)

    @pytest.mark.parametrize("J, M", [(-1.0, 10.0), (40.0, -1.0), (-1e-300, 0.0)])
    def test_negative_lightness_or_colorfulness_rejected(self, worked_example_vc, J, M):
        with pytest.raises(ValueError, match="J and M must be non-negative"):
            cam16_inverse(J, 10.0, worked_example_vc, M=M)

    def test_black_inverse(self, worked_example_vc):
        assert cam16_inverse(0.0, 0.0, worked_example_vc, M=0.0) == (0.0, 0.0, 0.0)

    def test_lightness_that_underflows_is_black(self, worked_example_vc):
        # J / 100 rounds to 0, as for J = 0
        assert cam16_inverse(5e-324, 0.0, worked_example_vc, M=0.0) == (0.0, 0.0, 0.0)
        with pytest.raises(ValueError, match="zero lightness"):
            cam16_inverse(5e-324, 0.0, worked_example_vc, M=1.0)

    def test_out_of_range_appearance_is_an_error(self):
        vc = Cam16ViewingConditions(L_A=50.0)
        with pytest.raises(ValueError):
            cam16_inverse(95.0, 200.0, vc, M=500.0 * vc.F_L_root)

    def test_non_finite_stimulus_is_an_error(self):
        # L_A near its lower limit makes 100 / F_L about 1e305, and a hue just past the
        # pole of gamma's denominator (11 cos h + 108 sin h = 0, near 354.18 degrees)
        # gives responses near 400: the cone responses overflow and the XYZ is NaN
        vc = Cam16ViewingConditions(L_A=1e-303)
        with pytest.raises(ValueError, match="^tristimulus components must be finite$"):
            cam16_inverse(1.0, 354.1901, vc, M=1.0)

    def test_overflowing_cone_responses_raise_no_warning(self):
        # every hue of the window past the pole, in 1e-5 degree steps; at some of them
        # the dot overflows or meets inf - inf, which must be the error, not a warning
        vc = Cam16ViewingConditions(L_A=1e-303)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for k in range(710):
                with pytest.raises(ValueError, match="^tristimulus components must be finite$"):
                    cam16_inverse(1.0, 354.19005 + k * 1e-5, vc, M=1.0)

    def test_returns_a_tuple_of_floats(self, worked_example_vc):
        xyz = cam16_inverse(40.0, 120.0, worked_example_vc, M=20.0)
        assert type(xyz) is tuple and all(type(v) is float for v in xyz)


@pytest.mark.parametrize("surround", ["average", "dim", "dark"])
def test_round_trips_over_random_in_gamut_stimuli(surround):
    vc = Cam16ViewingConditions(L_A=50.0, surround=surround)
    gamut = DisplayGamut()
    rng = np.random.RandomState(42)
    rgb = rng.uniform(0.001, 1.0, size=(1000, 3))
    worst = 0.0
    for row in rgb:
        xyz = gamut.rgb_to_xyz @ row
        app = cam16_forward(xyz, vc)
        back = cam16_inverse(app.J, app.h, vc, M=app.M)
        rel = np.max(np.abs(back - xyz) / np.maximum(xyz, 1e-9))
        worst = max(worst, rel)
    assert worst <= 1e-6


def reference_cam16_inverse(J, h, vc, M):
    """The published inverse, one step at a time, with every slice term
    computed again on each call: the oracle for ``cam16_inverse``."""
    if J < 0 or M < 0:
        raise ValueError("J and M must be non-negative")
    C = M / vc.F_L_root
    if J / 100.0 == 0.0:  # J is 0, or so small that J / 100 rounds to 0
        if C > 0:
            raise ValueError("chromatic appearance with zero lightness is not invertible")
        return 0.0, 0.0, 0.0

    h_rad = math.radians(h % 360.0)
    cos_h, sin_h = math.cos(h_rad), math.sin(h_rad)

    alpha = C / math.sqrt(J / 100.0)
    t = (alpha / vc.alpha_factor) ** (10.0 / 9.0)
    e_t = 0.25 * (math.cos(h_rad + 2.0) + 3.8)

    A = vc.A_w * (J / 100.0) ** (1.0 / (vc.c * vc.z))
    p1 = (50000.0 / 13.0) * vc.N_c * vc.N_cb * e_t
    p2 = A / vc.N_bb

    if t > 0.0:
        gamma = 23.0 * (p2 + 0.305) * t / (23.0 * p1 + t * (11.0 * cos_h + 108.0 * sin_h))
    else:
        gamma = 0.0
    a, b = gamma * cos_h, gamma * sin_h

    rgb_a = [v / 1403.0 for v in _M_AB.dot([p2, a, b]).tolist()]
    if any(abs(v) >= 400.0 for v in rgb_a):
        raise ValueError("appearance outside the invertible range (|response| >= 400)")
    core = (np.array([27.13 * abs(v) / (400.0 - abs(v)) for v in rgb_a]) ** (1.0 / 0.42)).tolist()
    cone = [math.copysign(100.0 / vc.F_L * u, v) / d for u, v, d in zip(core, rgb_a, vc.d_rgb)]
    if abs(cone[0]) + abs(cone[1]) + abs(cone[2]) < 1e307:
        rgb = M16_INV.dot(cone).tolist()
    else:
        with np.errstate(over="ignore", invalid="ignore"):
            rgb = _finite_xyz(*M16_INV.dot(cone).tolist())
    if any(v < -1e-6 for v in rgb):
        raise ValueError("appearance inverts to a non-physical (negative) stimulus")
    return _finite_xyz(*(0.0 if v <= 0.0 else v for v in rgb))


def inverse_outcome(inverse, *args):
    """The result as ``float.hex`` strings, or the ValueError's message."""
    try:
        return tuple(v.hex() for v in inverse(*args))
    except ValueError as exc:
        return str(exc)


ORACLE_CONDITIONS = {
    (la, surround): Cam16ViewingConditions(L_A=la, surround=surround)
    for la in (4.0, 50.0, 318.31)
    for surround in ("average", "dim", "dark")
}


class TestInverseMatchesTheReference:
    @given(
        st.one_of(st.floats(0.0, 100.0), st.sampled_from([0.0, 5e-324, 1e-300, 100.0])),
        st.floats(0.0, 360.0, exclude_max=True),
        st.one_of(st.floats(0.0, 600.0), st.sampled_from([0.0, 5e-324])),
        st.sampled_from(sorted(ORACLE_CONDITIONS)),
    )
    @settings(max_examples=2000, deadline=None)
    def test_same_floats_or_same_error(self, J, h, M, key):
        vc = ORACLE_CONDITIONS[key]
        expected = inverse_outcome(reference_cam16_inverse, J, h, vc, M)
        assert inverse_outcome(cam16_inverse, J, h, vc, M) == expected

    @given(st.floats(0.5, 99.5), st.floats(0.0, 360.0, exclude_max=True), st.floats(0.0, 80.0))
    @settings(max_examples=200, deadline=None)
    def test_two_conditions_at_one_lightness(self, J, h, M):
        # calls that alternate between two viewing conditions at one J must
        # each see their own cached terms
        first, second = ORACLE_CONDITIONS[4.0, "dark"], ORACLE_CONDITIONS[318.31, "average"]
        assert reference_cam16_inverse(50.0, 120.0, first, 20.0) != reference_cam16_inverse(
            50.0, 120.0, second, 20.0
        )
        for vc in (first, second, first, second):
            expected = inverse_outcome(reference_cam16_inverse, J, h, vc, M)
            assert inverse_outcome(cam16_inverse, J, h, vc, M) == expected


class TestUcs:
    def test_compression_inverses(self):
        for m in (0.0, 0.5, 30.0, 90.0):
            m_prime = math.log1p(0.0228 * m) / 0.0228
            assert ucs_colorfulness_to_m(m_prime) == pytest.approx(m, rel=1e-12, abs=1e-12)
