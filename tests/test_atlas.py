import math
import re

import numpy as np
import pytest

from colorbench import (
    ATLAS_CSV_HEADER,
    AtlasSpec,
    Cam16ViewingConditions,
    Chromaticity,
    DisplayGamut,
    Tristimulus,
    atlas_csv,
    atlas_to_xy,
    delta_e_ucs,
    gamut_contains,
    generate_atlas,
    illuminant_white,
    scatter_svg,
    to_ucs,
)
from colorbench.atlas import MAX_ATLAS_CANDIDATES
from colorbench.targets import REC709_PRIMARIES, point_in_triangle, rgb_to_xyz_matrix


@pytest.fixture(scope="module")
def vc_avg():
    return Cam16ViewingConditions(L_A=50.0, surround="average")


@pytest.fixture(scope="module")
def atlas_j50(vc_avg):
    return generate_atlas(AtlasSpec(vc=vc_avg, J=50.0, spacing=2.0))


class TestGamut:
    def test_white_at_full_luminance(self):
        g = DisplayGamut()
        w = illuminant_white("D65")
        xyz = Tristimulus(100.0 * w.x / w.y, 100.0, 100.0 * w.z / w.y)
        assert gamut_contains(xyz, g)

    def test_full_scale_primary_on_boundary(self):
        g = DisplayGamut()
        xyz = Tristimulus(*(g.rgb_to_xyz @ np.array([1.0, 0.0, 0.0])))
        assert gamut_contains(xyz, g)

    def test_overdriven_primary_outside(self):
        g = DisplayGamut()
        xyz = Tristimulus(*(g.rgb_to_xyz @ np.array([1.2, 0.0, 0.0])))
        assert not gamut_contains(xyz, g)

    def test_degenerate_primaries_rejected(self):
        p = Chromaticity.from_xy(0.3, 0.3)
        cases = [(p, p, p), (Chromaticity.from_xy(0.7, 0.0), *REC709_PRIMARIES[1:])]
        builders = [rgb_to_xyz_matrix, lambda prim: DisplayGamut(primaries=prim)]
        for build in builders:
            for primaries in cases:
                with pytest.raises(ValueError, match="degenerate"):
                    build(primaries)


class TestAtlasSpec:
    def test_validation(self, vc_avg):
        with pytest.raises(ValueError):
            AtlasSpec(vc=vc_avg, J=0.0)
        with pytest.raises(ValueError):
            AtlasSpec(vc=vc_avg, J=50.0, spacing=0.0)

    @pytest.mark.parametrize("field", ["spacing", "chroma_bound"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -1.0])
    def test_spacing_and_bound_finite_positive(self, vc_avg, field, value):
        with pytest.raises(ValueError, match="finite and positive"):
            AtlasSpec(vc=vc_avg, J=50.0, **{field: value})

    def test_candidate_budget(self, vc_avg):
        side = 2 * int(60.0 // 0.25) + 1
        assert side**2 <= MAX_ATLAS_CANDIDATES
        AtlasSpec(vc=vc_avg, J=50.0, spacing=0.25)
        for spacing, bound in ((1e-4, 60.0), (0.24, 60.0), (1e-300, 1e300)):
            with pytest.raises(ValueError, match=f"more than {MAX_ATLAS_CANDIDATES} candidates"):
                AtlasSpec(vc=vc_avg, J=50.0, spacing=spacing, chroma_bound=bound)

    @pytest.mark.parametrize("value", [0.0, math.nan, math.inf])
    def test_white_luminance_finite_positive(self, value):
        with pytest.raises(ValueError, match="finite and positive"):
            DisplayGamut(white_luminance=value)


class TestGenerateAtlas:
    @pytest.mark.parametrize("J", [1e-310, 5e-324, 1e-190])
    def test_lightness_that_inverts_to_black_is_an_error(self, vc_avg, J):
        spec = AtlasSpec(vc=vc_avg, J=J, chroma_bound=4.0)
        with pytest.raises(ValueError, match=re.escape(f"lightness J = {J!r} is too small")):
            generate_atlas(spec)

    def test_contains_achromatic_origin(self, atlas_j50):
        assert any(p.ucs.a_M == 0.0 and p.ucs.b_M == 0.0 for p in atlas_j50)

    def test_every_point_in_gamut(self, atlas_j50):
        g = DisplayGamut()
        for p in atlas_j50:
            assert gamut_contains(p.xyz, g)
            assert all(-1e-9 <= v <= 1.0 + 1e-9 for v in p.rgb_linear)

    def test_rejected_candidates_outside_gamut(self, vc_avg):
        # regenerate the grid and verify every in-bound candidate missing from
        # the atlas genuinely fails inversion or the gamut test
        from colorbench.cam16 import cam16_inverse, ucs_colorfulness_to_m

        spec = AtlasSpec(vc=vc_avg, J=50.0, spacing=4.0, chroma_bound=24.0)
        result = generate_atlas(spec)
        kept = {(p.ucs.a_M, p.ucs.b_M) for p in result}
        g = spec.gamut
        steps = int(spec.chroma_bound / spec.spacing)
        for i in range(-steps, steps + 1):
            for j in range(-steps, steps + 1):
                a, b = i * spec.spacing, j * spec.spacing
                if (a, b) in kept:
                    continue
                h = math.degrees(math.atan2(b, a)) % 360.0
                m = ucs_colorfulness_to_m(math.hypot(a, b))
                try:
                    xyz = cam16_inverse(spec.J, h, spec.vc, M=m)
                except ValueError:
                    continue  # counted as inversion failure
                assert not gamut_contains(xyz, g)

    def test_grid_neighbors_exactly_spacing_apart(self, atlas_j50):
        index = {(p.ucs.a_M, p.ucs.b_M): p for p in atlas_j50}
        checked = 0
        for (a, b), p in index.items():
            n = index.get((a + 2.0, b))
            if n is not None:
                assert delta_e_ucs(p.ucs, n.ucs) == 2.0
                checked += 1
        assert checked > 50

    def test_appearance_consistent_with_ucs(self, atlas_j50):
        for p in list(atlas_j50)[::37]:
            u = to_ucs(p.appearance)
            assert u.J_prime == pytest.approx(p.ucs.J_prime, abs=1e-9)
            assert u.a_M == pytest.approx(p.ucs.a_M, abs=1e-9)
            assert u.b_M == pytest.approx(p.ucs.b_M, abs=1e-9)

    def test_fixed_lightness(self, atlas_j50):
        for p in atlas_j50:
            assert p.appearance.J == pytest.approx(50.0, abs=1e-9)

    def test_sorted_by_b_then_a(self, atlas_j50):
        keys = [(p.ucs.b_M, p.ucs.a_M) for p in atlas_j50]
        assert keys == sorted(keys)

    def test_deterministic_regeneration(self, vc_avg, atlas_j50):
        again = generate_atlas(AtlasSpec(vc=vc_avg, J=50.0, spacing=2.0))
        assert atlas_csv(again.points) == atlas_csv(atlas_j50.points)

    def test_inversion_failures_are_counted(self, atlas_j50):
        total_grid = atlas_j50.candidates
        assert total_grid == 61 * 61
        assert atlas_j50.inversion_failures > 0
        assert len(atlas_j50) + atlas_j50.inversion_failures < total_grid

    def test_count_ordering_dim_vs_bright(self, vc_avg):
        dark_vc = Cam16ViewingConditions(L_A=50.0, surround="dark")
        n_j10 = len(generate_atlas(AtlasSpec(vc=vc_avg, J=10.0, spacing=2.0)))
        n_j50_dark = len(generate_atlas(AtlasSpec(vc=dark_vc, J=50.0, spacing=2.0)))
        assert n_j10 < n_j50_dark

    def test_wider_spacing_fewer_points(self, vc_avg, atlas_j50):
        n4 = len(generate_atlas(AtlasSpec(vc=vc_avg, J=50.0, spacing=4.0)))
        assert n4 < len(atlas_j50)

    def test_chromatic_extent_shrinks_toward_white(self, vc_avg, atlas_j50):
        a90 = generate_atlas(AtlasSpec(vc=vc_avg, J=90.0, spacing=2.0))
        radius = lambda res: max(math.hypot(p.ucs.a_M, p.ucs.b_M) for p in res)
        assert radius(a90) < radius(atlas_j50)


class TestAtlasProjection:
    def test_origin_projects_to_gamut_white(self):
        # full adaptation makes the achromatic axis hit the white point
        vc = Cam16ViewingConditions(L_A=50.0, D=1.0)
        res = generate_atlas(AtlasSpec(vc=vc, J=50.0, spacing=2.0))
        origin = next(p for p in res if p.ucs.a_M == 0.0 and p.ucs.b_M == 0.0)
        assert origin.xy.x == pytest.approx(0.3127, abs=1e-3)
        assert origin.xy.y == pytest.approx(0.3290, abs=1e-3)

    def test_all_points_inside_bt709_triangle(self, atlas_j50):
        for x, y in atlas_to_xy(atlas_j50):
            assert point_in_triangle(Chromaticity.from_xy(x, y), REC709_PRIMARIES, tol=1e-9)

    def test_empty_atlas_rejected(self):
        with pytest.raises(ValueError):
            atlas_to_xy([])


class TestSerialization:
    def test_csv_header(self, atlas_j50):
        text = atlas_csv(atlas_j50.points)
        assert text.splitlines()[0] == ATLAS_CSV_HEADER
        assert text.splitlines()[0] == "J,a_m_prime,b_m_prime,X,Y,Z,x,y,R_lin,G_lin,B_lin"
        assert len(text.splitlines()) == len(atlas_j50) + 1

    def test_csv_round_trip_precision(self, atlas_j50):
        line = atlas_csv(atlas_j50.points).splitlines()[1]
        values = [float(v) for v in line.split(",")]
        p = atlas_j50.points[0]
        assert values[1] == p.ucs.a_M
        assert values[3] == p.xyz.X

    def test_svg_scatter(self, atlas_j50):
        svg = scatter_svg([(p.ucs.a_M, p.ucs.b_M) for p in atlas_j50])
        assert svg.startswith("<svg ")
        assert svg.count("<circle") == len(atlas_j50)
        assert scatter_svg([(0.0, 0.0)]).count("<circle") == 1
        with pytest.raises(ValueError):
            scatter_svg([])
