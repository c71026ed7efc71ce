import numpy as np
import pytest
from hypothesis import given, strategies as st

from colorbench import (
    LUMA_COEFFS,
    TargetColor,
    illuminant_white,
    rgb_to_xyz_matrix,
    target_from_weights,
)


class TestMatrix:
    def test_luma_row_matches_bt709(self):
        m = rgb_to_xyz_matrix()
        np.testing.assert_allclose(m[1, :], LUMA_COEFFS, atol=1e-3)

    def test_unit_weights_reach_white(self):
        m = rgb_to_xyz_matrix()
        xyz = m @ np.ones(3)
        w = illuminant_white("D65")
        s = xyz.sum()
        assert xyz[0] / s == pytest.approx(w.x, abs=1e-12)
        assert xyz[1] == pytest.approx(1.0, abs=1e-12)


class TestTargetFromWeights:
    def test_red_primary(self):
        t = target_from_weights((1, 0, 0), "R")
        assert t.x == pytest.approx(0.64, abs=1e-12)
        assert t.y == pytest.approx(0.33, abs=1e-12)
        assert t.L_C == pytest.approx(0.213, abs=1e-3)

    def test_white(self):
        t = target_from_weights((1, 1, 1), "WW")
        assert t.x == pytest.approx(0.3127, abs=5e-4)
        assert t.y == pytest.approx(0.3290, abs=5e-4)
        assert t.L_C == pytest.approx(1.0, abs=1e-9)

    def test_yellow_mix(self):
        t = target_from_weights((0.5, 0.5, 0), "Ye")
        assert t.x == pytest.approx(0.4193, abs=1e-3)
        assert t.y == pytest.approx(0.5053, abs=1e-3)
        assert t.L_C == pytest.approx(0.464, abs=1e-3)

    def test_all_zero_rejected(self):
        with pytest.raises(ValueError):
            target_from_weights((0, 0, 0))

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            target_from_weights((1, -0.1, 0))

    @given(
        st.tuples(st.floats(0.01, 1.0), st.floats(0.01, 1.0), st.floats(0.01, 1.0)),
        st.floats(0.1, 5.0),
    )
    def test_chromaticity_scale_invariant_luminance_scales(self, weights, alpha):
        base = target_from_weights(weights)
        scaled = target_from_weights(tuple(alpha * w for w in weights))
        assert scaled.x == pytest.approx(base.x, abs=1e-12)
        assert scaled.y == pytest.approx(base.y, abs=1e-12)
        assert scaled.L_C == pytest.approx(alpha * base.L_C, rel=1e-12)


class TestTargetColorInvariants:
    def test_luma_consistency_enforced(self):
        with pytest.raises(ValueError, match="inconsistent"):
            TargetColor("bad", (1, 0, 0), 0.64, 0.33, 0.5)

    def test_outside_gamut_rejected(self):
        # spectral green lies outside the BT.709 triangle
        with pytest.raises(ValueError, match="outside"):
            TargetColor("bad", (0, 1, 0), 0.17, 0.80, 0.7152)
