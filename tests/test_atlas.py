import itertools
import math
import re
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from colorbench import (
    ATLAS_CSV_HEADER,
    AtlasSpec,
    Cam16ViewingConditions,
    Chromaticity,
    DisplayGamut,
    atlas_csv,
    cam16_forward,
    gamut_contains,
    generate_atlas,
    illuminant_white,
    scatter_svg,
    write_atlas_csv,
)
from colorbench.atlas import MAX_ATLAS_CANDIDATES
from colorbench.cam16 import cam16_inverse, ucs_colorfulness_to_m
from colorbench.spectral import read_csv
from colorbench.targets import REC709_PRIMARIES, point_in_triangle, rgb_to_xyz_matrix


def ucs(J, M, h):
    """The CAM16-UCS point (J', a'_M, b'_M) of lightness J, colorfulness M
    and hue angle h (degrees)."""
    m_prime = math.log1p(0.0228 * M) / 0.0228
    h_rad = math.radians(h)
    return 1.7 * J / (1.0 + 0.007 * J), m_prime * math.cos(h_rad), m_prime * math.sin(h_rad)


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
        xyz = np.array([100.0 * w.x / w.y, 100.0, 100.0 * w.z / w.y])
        assert gamut_contains(xyz, g)

    def test_full_scale_primary_on_boundary(self):
        g = DisplayGamut()
        xyz = g.rgb_to_xyz @ np.array([1.0, 0.0, 0.0])
        assert gamut_contains(xyz, g)

    def test_overdriven_primary_outside(self):
        g = DisplayGamut()
        xyz = g.rgb_to_xyz @ np.array([1.2, 0.0, 0.0])
        assert not gamut_contains(xyz, g)

    def test_degenerate_primaries_rejected(self):
        p = Chromaticity.from_xy(0.3, 0.3)
        cases = [(p, p, p), (Chromaticity.from_xy(0.7, 0.0), *REC709_PRIMARIES[1:])]
        builders = [rgb_to_xyz_matrix, lambda prim: DisplayGamut(primaries=prim)]
        for build in builders:
            for primaries in cases:
                with pytest.raises(ValueError, match="degenerate"):
                    build(primaries)


P3_PRIMARIES = tuple(Chromaticity.from_xy(x, y) for x, y in ((0.68, 0.32), (0.265, 0.69), (0.15, 0.06)))
GAMUTS = (DisplayGamut(), DisplayGamut(white_luminance=80.0), DisplayGamut(primaries=P3_PRIMARIES))
# a channel level on, just inside or just outside a face of the unit cube
# (the gamut test allows 1e-9), or anywhere within it
near_face = st.builds(
    lambda face, offset: face + offset,
    st.sampled_from([0.0, 1.0]),
    st.sampled_from([-2e-9, -1e-9, -5e-10, 0.0, 5e-10, 1e-9, 2e-9]),
)
channel = st.one_of(near_face, st.floats(0.0, 1.0))


class TestGamutStack:
    @settings(max_examples=150, deadline=None)
    @given(st.lists(st.tuples(channel, channel, channel), min_size=1, max_size=40),
           st.sampled_from(GAMUTS))
    def test_stack_answers_equal_the_scalar_answers(self, rgbs, gamut):
        xyz = np.array([gamut.rgb_to_xyz @ np.array(rgb) for rgb in rgbs])
        inside = gamut_contains(xyz, gamut)
        assert inside.shape == (len(rgbs),) and inside.dtype == bool
        for row, answer in zip(xyz, inside.tolist()):
            levels = gamut.xyz_to_rgb @ row  # the test's definition, one row at a time
            assert answer == all(-1e-9 <= v <= 1.0 + 1e-9 for v in levels)
            single = gamut_contains(row, gamut)  # one (3,) row gives a 0-d answer
            assert single.shape == () and single == answer

    def test_leading_axes_and_nan_rows(self):
        g = DisplayGamut()
        rgb = np.random.default_rng(3).uniform(-0.2, 1.2, (4, 5, 3))
        xyz = (g.rgb_to_xyz @ rgb[..., None])[..., 0]
        xyz[1, 2] = np.nan
        inside = gamut_contains(xyz, g)
        assert inside.shape == (4, 5) and not inside[1, 2]
        assert (inside.reshape(-1) == gamut_contains(xyz.reshape(-1, 3), g)).all()


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

    def test_subnormal_white_luminance_is_out_of_range(self):
        # the inverse matrix of a 1e-310 white overflows to inf and NaN
        with pytest.raises(ValueError, match="^white luminance 1e-310 is out of range"):
            DisplayGamut(white_luminance=1e-310)

    def test_overflowing_levels_are_outside(self, vc_avg):
        # an inverse near 3e306 takes XYZ of tens past the float range
        spec = AtlasSpec(vc=vc_avg, J=50.0, gamut=DisplayGamut(white_luminance=1e-306))
        assert len(generate_atlas(spec).points) == 0
        xyz = [[np.inf, 0.0, 0.0], [50.0, 50.0, 50.0]]
        assert not gamut_contains(xyz, DisplayGamut(white_luminance=1e-306)).any()


class TestGenerateAtlas:
    @pytest.mark.parametrize("J", [1e-310, 5e-324, 1e-190])
    def test_lightness_that_inverts_to_black_is_an_error(self, vc_avg, J):
        spec = AtlasSpec(vc=vc_avg, J=J, chroma_bound=4.0)
        with pytest.raises(ValueError, match=re.escape(f"lightness J = {J!r} is too small")):
            generate_atlas(spec)

    def test_contains_achromatic_origin(self, atlas_j50):
        pts = atlas_j50.points
        assert ((pts[:, 1] == 0.0) & (pts[:, 2] == 0.0)).any()

    def test_every_point_in_gamut(self, atlas_j50):
        g = DisplayGamut()
        for row in atlas_j50.points:
            assert gamut_contains(row[3:6], g)
            assert all(-1e-9 <= v <= 1.0 + 1e-9 for v in row[8:11])

    def test_rejected_candidates_outside_gamut(self, vc_avg):
        # regenerate the grid and verify every in-bound candidate missing from
        # the atlas genuinely fails inversion or the gamut test
        spec = AtlasSpec(vc=vc_avg, J=50.0, spacing=4.0, chroma_bound=24.0)
        result = generate_atlas(spec)
        kept = set(map(tuple, result.points[:, 1:3].tolist()))
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
        j_prime = ucs(50.0, 0.0, 0.0)[0]
        index = {(a, b): (j_prime, a, b) for a, b in atlas_j50.points[:, 1:3].tolist()}
        checked = 0
        for (a, b), p in index.items():
            n = index.get((a + 2.0, b))
            if n is not None:
                assert math.dist(p, n) == 2.0
                checked += 1
        assert checked > 50

    def test_appearance_consistent_with_ucs(self, vc_avg, atlas_j50):
        for row in atlas_j50.points[::37]:
            app = cam16_forward(row[3:6], vc_avg)
            j_prime, a_m, b_m = ucs(app.J, app.M, app.h)
            assert j_prime == pytest.approx(ucs(50.0, 0.0, 0.0)[0], abs=1e-9)
            assert a_m == pytest.approx(row[1], abs=1e-9)
            assert b_m == pytest.approx(row[2], abs=1e-9)

    def test_fixed_lightness(self, atlas_j50):
        for J in atlas_j50.points[:, 0]:
            assert J == pytest.approx(50.0, abs=1e-9)

    def test_sorted_by_b_then_a(self, atlas_j50):
        keys = list(zip(atlas_j50.points[:, 2].tolist(), atlas_j50.points[:, 1].tolist()))
        assert keys == sorted(keys)

    def test_deterministic_regeneration(self, vc_avg, atlas_j50):
        again = generate_atlas(AtlasSpec(vc=vc_avg, J=50.0, spacing=2.0))
        assert atlas_csv(again.points) == atlas_csv(atlas_j50.points)

    def test_inversion_failures_are_counted(self, atlas_j50):
        total_grid = atlas_j50.candidates
        assert total_grid == 61 * 61
        assert atlas_j50.inversion_failures > 0
        assert len(atlas_j50.points) + atlas_j50.inversion_failures < total_grid

    @pytest.mark.parametrize(
        "J, surround, la, spacing",
        [(50.0, "dark", 50.0, 1.0), (20.0, "average", 50.0, 2.0), (80.0, "dim", 4.0, 1.5),
         (35.0, "average", 318.3, 3.0), (95.0, "dark", 4.0, 2.5)],
    )
    def test_every_candidate_counted_once(self, J, surround, la, spacing):
        vc = Cam16ViewingConditions(L_A=la, surround=surround)
        res = generate_atlas(AtlasSpec(vc=vc, J=J, spacing=spacing))
        assert res.candidates == len(res.points) + res.inversion_failures + res.out_of_gamut
        assert res.candidates == (2 * math.floor(60.0 / spacing) + 1) ** 2
        assert len(res.points) > 0 and res.out_of_gamut > 0

    def test_counts_match_a_scalar_scan(self, vc_avg):
        spec = AtlasSpec(vc=vc_avg, J=50.0, spacing=4.0, chroma_bound=48.0)
        side = [k * spec.spacing for k in range(-12, 13)]
        failures = outside = 0
        for b, a in itertools.product(side, side):
            h = math.degrees(math.atan2(b, a)) % 360.0
            try:
                xyz = cam16_inverse(spec.J, h, spec.vc, M=ucs_colorfulness_to_m(math.hypot(a, b)))
            except ValueError:
                failures += 1
                continue
            outside += not gamut_contains(xyz, spec.gamut)
        res = generate_atlas(spec)
        assert (res.inversion_failures, res.out_of_gamut) == (failures, outside)
        assert failures > 0 and outside > 0

    def test_peak_memory_per_candidate(self):
        # 58,081 candidates, about a quarter kept: the XYZ array takes 24
        # bytes a candidate and each kept point's row of the table 88 bytes
        spec = AtlasSpec(vc=Cam16ViewingConditions(surround="dark"), J=50.0, spacing=0.5)
        tracemalloc.start()
        try:
            res = generate_atlas(spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert res.candidates == 58_081
        assert peak <= 120 * res.candidates

    def test_count_ordering_dim_vs_bright(self, vc_avg):
        dark_vc = Cam16ViewingConditions(L_A=50.0, surround="dark")
        n_j10 = len(generate_atlas(AtlasSpec(vc=vc_avg, J=10.0, spacing=2.0)).points)
        n_j50_dark = len(generate_atlas(AtlasSpec(vc=dark_vc, J=50.0, spacing=2.0)).points)
        assert n_j10 < n_j50_dark

    def test_wider_spacing_fewer_points(self, vc_avg, atlas_j50):
        n4 = len(generate_atlas(AtlasSpec(vc=vc_avg, J=50.0, spacing=4.0)).points)
        assert n4 < len(atlas_j50.points)

    def test_chromatic_extent_shrinks_toward_white(self, vc_avg, atlas_j50):
        a90 = generate_atlas(AtlasSpec(vc=vc_avg, J=90.0, spacing=2.0))
        radius = lambda res: max(map(math.hypot, res.points[:, 1], res.points[:, 2]))
        assert radius(a90) < radius(atlas_j50)


class TestAtlasProjection:
    def test_origin_projects_to_gamut_white(self):
        # full adaptation makes the achromatic axis hit the white point
        vc = Cam16ViewingConditions(L_A=50.0, D=1.0)
        res = generate_atlas(AtlasSpec(vc=vc, J=50.0, spacing=2.0))
        origin = next(row for row in res.points if row[1] == 0.0 and row[2] == 0.0)
        assert origin[6] == pytest.approx(0.3127, abs=1e-3)
        assert origin[7] == pytest.approx(0.3290, abs=1e-3)

    def test_all_points_inside_bt709_triangle(self, atlas_j50):
        for x, y in atlas_j50.points[:, 6:8].tolist():
            assert point_in_triangle(Chromaticity.from_xy(x, y), REC709_PRIMARIES, tol=1e-9)

    def test_empty_atlas_rejected(self):
        empty = np.empty((0, 11))
        assert atlas_csv(empty) == ATLAS_CSV_HEADER + "\n"
        with pytest.raises(ValueError, match="nothing to plot"):
            scatter_svg(empty[:, 6:8])


class TestSerialization:
    def test_csv_header(self, atlas_j50):
        text = atlas_csv(atlas_j50.points)
        assert text.splitlines()[0] == ATLAS_CSV_HEADER
        assert text.splitlines()[0] == "J,a_m_prime,b_m_prime,X,Y,Z,x,y,R_lin,G_lin,B_lin"
        assert len(text.splitlines()) == len(atlas_j50.points) + 1

    def test_csv_written_in_blocks(self, tmp_path):
        # 60,000 rows of about 200 characters: the whole text would take
        # several hundred bytes a row
        rows = 60_000
        pts = np.random.default_rng(3).random((rows, 11))
        path = tmp_path / "atlas.csv"
        tracemalloc.start()
        try:
            write_atlas_csv(pts, path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 150 * rows
        assert path.read_text(encoding="utf-8") == atlas_csv(pts)

    def test_csv_round_trip_precision(self, atlas_j50):
        line = atlas_csv(atlas_j50.points).splitlines()[1]
        values = [float(v) for v in line.split(",")]
        assert values == atlas_j50.points[0].tolist()

    def test_svg_scatter(self, atlas_j50):
        svg = scatter_svg(atlas_j50.points[:, 1:3])
        assert svg.startswith("<svg ")
        assert svg.count("<circle") == len(atlas_j50.points)
        assert svg == scatter_svg([tuple(p) for p in atlas_j50.points[:, 1:3].tolist()])
        assert scatter_svg([(0.0, 0.0)]).count("<circle") == 1
        with pytest.raises(ValueError):
            scatter_svg([])


VC_BY_SURROUND = {s: Cam16ViewingConditions(surround=s) for s in ("average", "dim", "dark")}


class TestAtlasTable:
    @settings(max_examples=30, deadline=None)
    @given(st.floats(5.0, 95.0, exclude_min=True, exclude_max=True), st.floats(3.0, 10.0),
           st.sampled_from(sorted(VC_BY_SURROUND)))
    def test_table_is_the_csv(self, J, spacing, surround):
        res = generate_atlas(AtlasSpec(vc=VC_BY_SURROUND[surround], J=J, spacing=spacing))
        pts = res.points
        assert pts.dtype == np.float64 and pts.ndim == 2 and pts.shape[1] == 11
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "atlas.csv"
            write_atlas_csv(pts, path)
            back = read_csv(path, ATLAS_CSV_HEADER).values
        assert back.shape == pts.shape
        assert np.ascontiguousarray(back).tobytes() == np.ascontiguousarray(pts).tobytes()
        keys = list(zip(pts[:, 2].tolist(), pts[:, 1].tolist()))
        assert all(k < n for k, n in zip(keys, keys[1:]))
        assert not pts.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            pts[0, 0] = 0.0
        assert res.candidates == len(pts) + res.inversion_failures + res.out_of_gamut
