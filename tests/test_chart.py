import copy
import json
import math
import os
import re
import struct
import threading
import time
import tracemalloc
import types
import warnings
import zlib

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from colorbench import (
    BT709_TRANSFER,
    ChartLayout,
    Chromaticity,
    LINEAR_TRANSFER,
    build_target_set,
    decode_png_rgb16,
    delta_e_xyz,
    encode_png_rgb16,
    load_metadata,
    oetf_bt709,
    render_chart,
    xyz_to_chromaticity,
)
from colorbench import chart
from colorbench.atlas import DisplayGamut
from colorbench.chart import MAX_CHART_PIXELS, _png_chunk, patch_pixel_origin


@pytest.fixture(scope="module")
def target_colors():
    """The target set's names and its ``(16, 3)`` linear RGB."""
    targets = build_target_set()
    return [t.name for t in targets], np.array([t.rgb_weights for t in targets])


@pytest.fixture(scope="module")
def layout():
    return ChartLayout(rows=4, cols=4, patch_px=24, gap_px=4)


@pytest.fixture(scope="module")
def rendered(target_colors, layout):
    """The target chart's PNG bytes and its sidecar pieces joined."""
    png, pieces = render_chart(*target_colors, layout)
    return png, "".join(pieces)


class TestTransferFunction:
    def test_identity_endpoints(self):
        assert oetf_bt709(0.0) == 0.0
        assert oetf_bt709(1.0) == pytest.approx(1.0, abs=1e-12)

    def test_round_trip(self, oetf_bt709_inverse):
        lin = np.linspace(0.0, 1.0, 1001)
        back = oetf_bt709_inverse(oetf_bt709(lin))
        np.testing.assert_allclose(back, lin, atol=1e-12)

    def test_out_of_range_rejected(self):
        for value in (1.5, -0.5, float("nan")):
            with pytest.raises(ValueError, match=r"\[0, 1\]"):
                oetf_bt709(value)


class TestPngCodec:
    def test_round_trip_random_image(self):
        rng = np.random.RandomState(3)
        img = rng.randint(0, 65536, size=(17, 23, 3)).astype(np.uint16)
        assert np.array_equal(decode_png_rgb16(encode_png_rgb16(img)), img)

    @pytest.fixture
    def png(self):
        img = np.arange(2 * 3 * 3, dtype=np.uint16).reshape(2, 3, 3) * 1000
        return encode_png_rgb16(img)

    def test_flipped_idat_byte_fails_crc(self, png):
        pos = png.index(b"IDAT") + 6
        bad = png[:pos] + bytes([png[pos] ^ 0x01]) + png[pos + 1 :]
        with pytest.raises(ValueError, match="CRC"):
            decode_png_rgb16(bad)

    def test_missing_ihdr_rejected(self, png):
        with pytest.raises(ValueError, match="IHDR"):
            decode_png_rgb16(png[:8] + png[8 + 25 :])

    def test_repeated_ihdr_rejected(self, png):
        with pytest.raises(ValueError, match="IHDR"):
            decode_png_rgb16(png[: 8 + 25] + png[8 : 8 + 25] + png[8 + 25 :])

    @pytest.mark.parametrize("cut", [1, 12, 13, 20])
    def test_truncated_stream_rejected(self, png, cut):
        with pytest.raises(ValueError, match="truncated"):
            decode_png_rgb16(png[:-cut])

    @staticmethod
    def with_ihdr_byte(png, offset, value):
        """``png`` with one IHDR data byte replaced and the CRC recomputed."""
        ihdr = bytearray(png[16:29])
        ihdr[offset] = value
        return png[:8] + _png_chunk(b"IHDR", bytes(ihdr)) + png[33:]

    @pytest.mark.parametrize("offset", [10, 11, 12], ids=["compression", "filter", "interlace"])
    def test_nonzero_ihdr_method_rejected(self, png, offset):
        assert np.array_equal(decode_png_rgb16(self.with_ihdr_byte(png, offset, 0)),
                              decode_png_rgb16(png))
        with pytest.raises(ValueError, match="IHDR"):
            decode_png_rgb16(self.with_ihdr_byte(png, offset, 1))

    @pytest.mark.parametrize("offset", [3, 7], ids=["width", "height"])
    def test_zero_size_rejected(self, png, offset):
        with pytest.raises(ValueError, match="at least 1x1"):
            decode_png_rgb16(self.with_ihdr_byte(png, offset, 0))

    def test_scanline_filter_byte_checked(self):
        png = encode_png_rgb16(np.zeros((3, 2, 3), dtype=np.uint16))
        raw = bytearray(zlib.decompress(png[41:-16]))
        raw[2 * 13] = 1  # the third scanline's filter type
        bad = png[:33] + _png_chunk(b"IDAT", zlib.compress(bytes(raw))) + png[-12:]
        with pytest.raises(ValueError, match="filter"):
            decode_png_rgb16(bad)

    def test_missing_signature_rejected(self, png):
        with pytest.raises(ValueError, match="not a PNG stream"):
            decode_png_rgb16(b"\x89PNG\r\n\x1a\x00" + png[8:])

    def test_ihdr_of_wrong_length_rejected(self, png):
        bad = png[:8] + _png_chunk(b"IHDR", png[16:29] + b"\x00") + png[33:]
        with pytest.raises(ValueError, match="IHDR chunk must hold 13 bytes"):
            decode_png_rgb16(bad)

    @pytest.mark.parametrize("offset, value", [(8, 8), (9, 6)], ids=["8_bit", "rgba"])
    def test_other_than_16_bit_truecolor_rejected(self, png, offset, value):
        with pytest.raises(ValueError, match="only 16-bit truecolor"):
            decode_png_rgb16(self.with_ihdr_byte(png, offset, value))

    @staticmethod
    def with_image_data(png, data):
        """``png`` (one IDAT chunk, no cHRM) with its image data replaced under a valid CRC."""
        return png[:33] + _png_chunk(b"IDAT", data) + png[-12:]

    def test_corrupt_deflate_stream_rejected(self, png):
        with pytest.raises(ValueError, match="PNG image data: "):
            decode_png_rgb16(self.with_image_data(png, b"not a zlib stream"))

    @pytest.mark.parametrize("delta", [-1, 1], ids=["short", "long"])
    def test_image_data_of_wrong_size_rejected(self, png, delta):
        raw = zlib.decompress(png[41:-16])
        raw = raw[:delta] if delta < 0 else raw + b"\x00"
        with pytest.raises(ValueError, match="does not match the IHDR size"):
            decode_png_rgb16(self.with_image_data(png, zlib.compress(raw)))

    def test_empty_image_rejected(self):
        with pytest.raises(ValueError):
            encode_png_rgb16(np.zeros((0, 4, 3), dtype=np.uint16))

    def test_opencv_reads_our_png(self):
        cv2 = pytest.importorskip("cv2")
        rng = np.random.RandomState(4)
        img = rng.randint(0, 65536, size=(9, 11, 3)).astype(np.uint16)
        data = encode_png_rgb16(img)
        decoded = cv2.imdecode(np.frombuffer(data, np.uint8), cv2.IMREAD_UNCHANGED)
        assert decoded.dtype == np.uint16
        assert np.array_equal(decoded[:, :, ::-1], img)

    def test_rejects_wrong_dtype(self):
        with pytest.raises(ValueError):
            encode_png_rgb16(np.zeros((4, 4, 3), dtype=np.uint8))


class TestRenderChart:
    def test_sixteen_patches(self, rendered, layout):
        png, text = rendered
        assert len(json.loads(text)["patches"]) == 16
        img = decode_png_rgb16(png)
        w, h = layout.image_size
        assert img.shape == (h, w, 3)

    def test_first_patch_is_red_target(self, rendered, layout):
        png, _ = rendered
        img = decode_png_rgb16(png)
        x0, y0 = patch_pixel_origin(layout, 0, 0)
        expected = np.round(oetf_bt709(np.array([1.0, 0.0, 0.0])) * 65535).astype(np.uint16)
        assert np.array_equal(img[y0 + 2, x0 + 2], expected)

    def test_quantization_rule(self, rendered, layout):
        png, text = rendered
        img = decode_png_rgb16(png)
        for p in json.loads(text)["patches"]:
            x0, y0 = patch_pixel_origin(layout, p["row"], p["col"])
            q = img[y0, x0].astype(float)
            expected = np.round(oetf_bt709(np.array(p["rgb_linear"])) * 65535)
            assert np.array_equal(q, expected)

    def test_linear_recovery_within_one_code(self, rendered, layout, oetf_bt709_inverse):
        png, text = rendered
        img = decode_png_rgb16(png)
        for p in json.loads(text)["patches"]:
            x0, y0 = patch_pixel_origin(layout, p["row"], p["col"])
            code = img[y0 + 1, x0 + 1].astype(float) / 65535.0
            lin = oetf_bt709_inverse(code)
            err = np.abs(lin - np.array(p["rgb_linear"]))
            assert np.max(err) <= 1.0 / 65535.0

    def test_deterministic_bytes(self, target_colors, layout, rendered):
        png2, _ = render_chart(*target_colors, layout)
        assert png2 == rendered[0]

    def test_empty_color_list_rejected(self, layout):
        with pytest.raises(ValueError, match="no colors"):
            render_chart([], np.empty((0, 3)), layout)

    def test_layout_too_small(self, target_colors):
        with pytest.raises(ValueError, match="too small"):
            render_chart(*target_colors, ChartLayout(rows=2, cols=2))

    def test_pixel_budget(self):
        w, h = ChartLayout(rows=40, cols=40, patch_px=34, gap_px=2).image_size
        assert w * h <= MAX_CHART_PIXELS
        with pytest.raises(ValueError, match=f"exceeds {MAX_CHART_PIXELS} pixels"):
            ChartLayout(rows=1000, cols=4)

    def test_black_patch_takes_the_white_chromaticity(self, layout):
        gamut = DisplayGamut()
        png, pieces = render_chart(["k", "w"], [(0.0, 0.0, 0.0), (1.0, 1.0, 1.0)], layout)
        black, white = json.loads("".join(pieces))["patches"]
        assert (black["x"], black["y"], black["L_C"]) == (gamut.white.x, gamut.white.y, 0.0)
        assert delta_e_xyz(Chromaticity.from_xy(white["x"], white["y"]), gamut.white) < 1e-12
        x0, y0 = patch_pixel_origin(layout, 0, 0)
        assert not decode_png_rgb16(png)[y0, x0].any()

    def test_render_peak_memory_per_pixel(self):
        # a 1.9 Mpx chart, whose frame is never held: 31 grid row lines, one
        # 2 MiB deflate block (1.1 B/px) and the 900-patch sidecar's pieces
        # measured 1.75-1.82 B/px in all (2.25-2.63 with one dict a patch and
        # one json.dumps text), against 7.25 for the whole frame it replaced
        layout = ChartLayout(rows=30, cols=30, patch_px=44, gap_px=2)
        rng = np.random.default_rng(5)
        rgb = rng.random((900, 3))
        names = [f"p{i}" for i in range(900)]
        w, h = layout.image_size
        tracemalloc.start()
        try:
            render_chart(names, rgb, layout)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert w * h >= 1_000_000
        assert peak <= 3 * w * h

    def test_render_peak_memory_per_patch(self):
        # 14,641 patches of one pixel, so the sidecar's pieces outweigh the
        # image: about 460 B a patch (see MAX_CHART_PIXELS).  Holding every
        # patch's Python floats at once takes about 710, and one dict a patch
        # and one json.dumps text about 2,600
        n = 121 * 121
        layout = ChartLayout(rows=121, cols=121, patch_px=1, gap_px=0)
        rgb = np.random.default_rng(7).random((n, 3))
        names = [f"atlas_{i}" for i in range(n)]
        tracemalloc.start()
        try:
            render_chart(names, rgb, layout)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 600 * n

    def test_out_of_range_patch_rejected(self, layout):
        for name, rgb in (("hot", (1.2, 0.0, 0.0)), ("undefined", (0.5, float("nan"), 0.5))):
            # the range check names the patch before any cast can warn
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(ValueError, match=f"patch '{name}'"):
                    render_chart([name], [rgb], layout)

    def test_linear_escape_hatch(self, layout):
        png, pieces = render_chart(["gray"], [(0.25, 0.25, 0.25)], layout, transfer=LINEAR_TRANSFER)
        img = decode_png_rgb16(png)
        x0, y0 = patch_pixel_origin(layout, 0, 0)
        assert img[y0, x0, 0] == round(0.25 * 65535)
        assert json.loads("".join(pieces))["parameters"]["transfer"] == LINEAR_TRANSFER

    def test_metadata_chromaticity_consistent_with_gamut(self, rendered):
        gamut = DisplayGamut()
        for p in json.loads(rendered[1])["patches"]:
            xy = xyz_to_chromaticity(gamut.rgb_to_xyz @ np.array(p["rgb_linear"]))
            stored = Chromaticity.from_xy(p["x"], p["y"])
            assert delta_e_xyz(stored, xy) < 1e-6


P3_PRIMARIES = tuple(Chromaticity.from_xy(x, y) for x, y in ((0.68, 0.32), (0.265, 0.69), (0.15, 0.06)))
GAMUTS = (DisplayGamut(), DisplayGamut(white_luminance=80.0), DisplayGamut(primaries=P3_PRIMARIES))
channel = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))
good_patch = st.tuples(channel, channel, channel)
bad_patch = st.sampled_from([(1.2, 0.0, 0.0), (0.5, -0.1, 0.5), (0.5, math.nan, 0.5)])


def _grid(n: int) -> ChartLayout:
    return ChartLayout(rows=math.ceil(n / 8), cols=8, patch_px=2, gap_px=1)


class TestRenderChartPatches:
    @settings(max_examples=80, deadline=None)
    @given(st.lists(good_patch, min_size=1, max_size=40), st.sampled_from(GAMUTS),
           st.sampled_from([BT709_TRANSFER, LINEAR_TRANSFER]))
    def test_sidecar_and_codes_match_each_patch(self, rgbs, gamut, transfer):
        rgbs = rgbs + [(0.0, 0.0, 0.0)]
        names = [f"p{i}" for i in range(len(rgbs))]
        layout = _grid(len(rgbs))
        rows = [gamut.rgb_to_xyz @ np.array(rgb) for rgb in rgbs]
        # the P3 red primary's z is -5.6e-17, so a red-only patch has a
        # slightly negative Z: the chart reads that rounding residue as 0
        assert min(v.min() for v in rows) >= -1e-12 * gamut.white_luminance
        stimuli = [np.where(v < 0, 0.0, v).tolist() for v in rows]
        png, pieces = render_chart(names, np.array(rgbs), layout, transfer=transfer, gamut=gamut)
        img = decode_png_rgb16(png)
        encode = oetf_bt709 if transfer == BT709_TRANSFER else np.asarray
        patches = json.loads("".join(pieces))["patches"]
        for name, rgb, xyz, p in zip(names, rgbs, stimuli, patches, strict=True):
            # a black patch takes the white's chromaticity
            xy = xyz_to_chromaticity(xyz) if sum(xyz) > 0 else gamut.white
            assert (p["name"], p["x"], p["y"]) == (name, xy.x, xy.y)
            assert p["L_C"] == xyz[1] / gamut.white_luminance
            assert p["rgb_linear"] == list(rgb)
            x0, y0 = patch_pixel_origin(layout, p["row"], p["col"])
            code = np.round(encode(np.array(rgb)) * 65535.0).astype(np.uint16)
            assert (img[y0 : y0 + 2, x0 : x0 + 2] == code).all()

    @pytest.mark.parametrize("scale, ok", [(-0.5e-12, True), (-1e-12, True), (-2e-12, False), (-1e-3, False)])
    def test_only_rounding_size_negative_tristimulus_reads_as_zero(self, scale, ok):
        gamut = copy.copy(DisplayGamut(white_luminance=80.0))
        m = gamut.rgb_to_xyz.copy()
        m[2, 0] = scale * gamut.white_luminance  # the red primary's Z
        object.__setattr__(gamut, "rgb_to_xyz", m)
        red = (["red"], [(1.0, 0.0, 0.0)])
        if ok:
            _, pieces = render_chart(*red, _grid(1), gamut=gamut)
            assert json.loads("".join(pieces))["patches"][0]["x"] == m[0, 0] / (m[0, 0] + m[1, 0])
        else:
            with pytest.raises(ValueError, match="tristimulus components must be"):
                render_chart(*red, _grid(1), gamut=gamut)

    @settings(max_examples=80, deadline=None)
    @given(st.lists(st.one_of(good_patch.map(lambda p: (True, p)), bad_patch.map(lambda p: (False, p))),
                    min_size=1, max_size=30))
    def test_error_names_the_first_bad_patch(self, entries):
        assume(not all(ok for ok, _ in entries))
        first = next(i for i, (ok, _) in enumerate(entries) if not ok)
        names = [f"p{i}" for i in range(len(entries))]
        rgb = np.array([rgb for _, rgb in entries])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=re.escape(f"patch 'p{first}':")):
                render_chart(names, rgb, _grid(len(entries)))

    @pytest.mark.parametrize(
        "rgb",
        [[(0.5, 0.5)], [(0.1, 0.2, 0.3, 0.4)], [[(0.1, 0.2, 0.3)]], [0.1, 0.2, 0.3], 0.5],
        ids=["two_channels", "four_channels", "nested", "flat", "scalar"],
    )
    def test_wrong_shape_is_a_shape_error(self, rgb):
        with pytest.raises(ValueError, match=r"must be an \(n, 3\) array"):
            render_chart(["p0"], rgb, _grid(1))

    def test_ragged_input_is_rejected(self):
        with pytest.raises(ValueError):
            render_chart(["p0", "p1"], [(0.1, 0.2, 0.3), (0.1, 0.2)], _grid(2))

    def test_name_count_must_match_the_rows(self):
        with pytest.raises(ValueError, match="2 patch names for 1 colors"):
            render_chart(["p0", "p1"], [(0.1, 0.2, 0.3)], _grid(2))

    def test_unknown_transfer_rejected(self):
        with pytest.raises(ValueError, match="unknown transfer function 'srgb'"):
            render_chart(["p0"], [(0.1, 0.2, 0.3)], _grid(1), transfer="srgb")


class TestMetadata:
    def test_json_round_trip(self, rendered, tmp_path):
        _, text = rendered
        path = tmp_path / "chart.meta.json"
        path.write_text(text, encoding="utf-8")
        again = json.dumps(load_metadata(path), indent=2, sort_keys=True, ensure_ascii=False) + "\n"
        assert again == text
        assert len(json.loads(again)["patches"]) == 16

    def test_load_reads_the_written_text(self, rendered, tmp_path):
        _, text = rendered
        path = tmp_path / "chart.meta.json"
        path.write_text(text, encoding="utf-8")
        assert load_metadata(path) == json.loads(text)

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs FIFOs")
    def test_load_rejects_a_fifo_unopened(self, tmp_path, no_hang):
        fifo = tmp_path / "chart.meta.json"
        os.mkfifo(fifo)
        with pytest.raises(ValueError, match=f"^{re.escape(str(fifo))}: not a regular file$"):
            load_metadata(fifo)

    def test_file_bytes_stable(self, target_colors, layout, rendered, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        a.write_text(rendered[1], encoding="utf-8")
        b.write_text("".join(render_chart(*target_colors, layout)[1]), encoding="utf-8")
        assert a.read_bytes() == b.read_bytes()

    def test_json_is_sorted_and_parseable(self, rendered):
        _, text = rendered
        payload = json.loads(text)
        assert set(payload) == {"parameters", "patches"}
        assert payload["parameters"]["bit_depth"] == 16
        assert text == json.dumps(payload, indent=2, sort_keys=True) + "\n"

    def test_settings_are_recorded_among_the_parameters(self, target_colors, layout):
        settings = {"illuminant": "e", "observer": "degree10", "la": 80.0, "yb": 30.0, "surround": "dark"}
        _, pieces = render_chart(*target_colors, layout, settings=settings)
        assert json.loads("".join(pieces))["parameters"].items() >= settings.items()


# names that JSON must escape or, with ensure_ascii=False, pass through
awkward_name = st.text(
    st.one_of(st.sampled_from('"\\/\x00\x1f\x7f\u2028é☃𝄞\U0001F600\U0010FFFF'), st.characters()), max_size=6
)
# channel values whose repr is unusual: a negative zero, the least subnormal
edge_channel = st.one_of(st.sampled_from([-0.0, 5e-324, 1.0]), channel)
chart_settings = st.one_of(
    st.none(), st.just({}),
    st.dictionaries(awkward_name, st.one_of(awkward_name, st.floats(allow_nan=False), st.integers()),
                    min_size=1, max_size=3),
)


def json_dumps_sidecar(names, rgb, layout, transfer, gamut, source, settings) -> str:
    """The sidecar as the dict serializer wrote it: one dict per patch, then
    one ``json.dumps`` of the whole (the colorimetry is render_chart's)."""
    rgb = np.asarray(rgb, dtype=float)
    xyz = (gamut.rgb_to_xyz @ rgb[..., None])[..., 0]
    xyz[(xyz < 0) & (xyz >= -1e-12 * gamut.white_luminance)] = 0.0
    total = xyz[:, 0] + xyz[:, 1] + xyz[:, 2]
    lit = (total > 0)[:, None]
    white = (gamut.white.x, gamut.white.y)
    xy = np.where(lit, xyz[:, :2] / np.where(lit, total[:, None], 1.0), white)
    luminance = xyz[:, 1] / gamut.white_luminance
    columns = (rgb.tolist(), *xy.T.tolist(), luminance.tolist())
    patches = [
        {"name": name, "row": idx // layout.cols, "col": idx % layout.cols, "x": x, "y": y,
         "L_C": l_c, "rgb_linear": rgb_linear, "source": source}
        for idx, (name, rgb_linear, x, y, l_c) in enumerate(zip(names, *columns))
    ]
    params = {
        **(settings or {}),
        "transfer": transfer,
        "bit_depth": 16,
        "rows": layout.rows,
        "cols": layout.cols,
        "patch_px": layout.patch_px,
        "gap_px": layout.gap_px,
        "background_rgb": [0.2, 0.2, 0.2],
        "gamut_white": [gamut.white.x, gamut.white.y],
        "white_luminance": gamut.white_luminance,
    }
    meta = {"parameters": params, "patches": patches}
    return json.dumps(meta, indent=2, sort_keys=True, ensure_ascii=False) + "\n"


class TestOverlappedEncoding:
    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(st.tuples(awkward_name, st.tuples(edge_channel, edge_channel, edge_channel)),
                 min_size=1, max_size=9),
        st.integers(1, 3), st.integers(0, 1), st.integers(1, 4), st.integers(0, 3),
        st.sampled_from(GAMUTS), st.sampled_from([BT709_TRANSFER, LINEAR_TRANSFER]), st.booleans(),
        st.one_of(st.just("targets"), awkward_name), chart_settings,
    )
    def test_png_and_sidecar_equal_the_public_encoders(
        self, entries, cols, spare_rows, patch_px, gap_px, gamut, transfer, embed_primaries,
        source, chart_settings,
    ):
        names, rgb = [name for name, _ in entries], np.array([rgb for _, rgb in entries])
        rows = math.ceil(len(entries) / cols) + spare_rows
        layout = ChartLayout(rows=rows, cols=cols, patch_px=patch_px, gap_px=gap_px)
        png, pieces = render_chart(
            names, rgb, layout, transfer=transfer, gamut=gamut, embed_primaries=embed_primaries,
            source=source, settings=chart_settings,
        )
        # a head, one piece per patch and a tail, equal to the dict serializer
        assert len(pieces) == len(names) + 2 and all(type(piece) is str for piece in pieces)
        text = "".join(pieces)
        assert text == json_dumps_sidecar(names, rgb, layout, transfer, gamut, source, chart_settings)
        chrm = None
        if embed_primaries:
            chrm = ((gamut.white.x, gamut.white.y), *((p.x, p.y) for p in gamut.primaries))
        # the frame drawn straight into the scanlines encodes as the public
        # encoder encodes it
        assert png == encode_png_rgb16(decode_png_rgb16(png), chrm)
        payload = json.loads(text)
        assert text == json.dumps(payload, indent=2, sort_keys=True, ensure_ascii=False) + "\n"
        assert [p["name"] for p in payload["patches"]] == names

    @pytest.mark.parametrize("block", [1, 2, 4, 9])
    def test_sidecar_in_blocks_of_patches_equals_the_dict_serializer(self, monkeypatch, block):
        # nine patches in blocks of floats that divide them or leave a short last block
        monkeypatch.setattr(chart, "_PIECE_BLOCK_PATCHES", block)
        names = tuple(f"p{k}" for k in range(9))
        rgb = np.random.default_rng(block).random((9, 3))
        layout = ChartLayout(rows=3, cols=4, patch_px=2, gap_px=1)
        _, pieces = render_chart(names, rgb, layout, source="atlas")
        assert len(pieces) == len(names) + 2
        expected = json_dumps_sidecar(names, rgb, layout, BT709_TRANSFER, DisplayGamut(), "atlas", None)
        assert "".join(pieces) == expected

    @pytest.mark.parametrize(
        "name, source, kind",
        [(5, "targets", "int"), (None, "targets", "NoneType"), ("p0", b"atlas", "bytes")],
        ids=["int_name", "none_name", "bytes_source"],
    )
    def test_non_string_name_or_source_is_json_type_error(self, layout, name, source, kind):
        with pytest.raises(TypeError, match=f"^Object of type {kind} is not JSON serializable$"):
            render_chart([name], [(0.1, 0.2, 0.3)], layout, source=source)

    def test_deflate_failure_raises_and_joins_the_worker(self, monkeypatch, target_colors, layout):
        class Compressor:
            def __init__(self, level):
                pass

            def compress(self, data):
                raise MemoryError

        monkeypatch.setattr(chart, "zlib", types.SimpleNamespace(crc32=zlib.crc32, compressobj=Compressor))
        before = threading.active_count()
        with pytest.raises(MemoryError):
            render_chart(*target_colors, layout)
        assert threading.active_count() == before

    def test_unencodable_name_raises_after_the_worker_is_joined(self, monkeypatch, layout):
        deflated = []

        class Compressor:
            def __init__(self, level):
                self.level, self.inner = level, zlib.compressobj(level)

            def compress(self, data):
                time.sleep(0.2)  # still deflating when the sidecar fails
                return self.inner.compress(data)

            def flush(self):
                deflated.append(self.level)
                return self.inner.flush()

        monkeypatch.setattr(chart, "zlib", types.SimpleNamespace(crc32=zlib.crc32, compressobj=Compressor))
        before = threading.active_count()
        with pytest.raises(TypeError, match="not JSON serializable"):
            render_chart([object()], [(0.1, 0.2, 0.3)], layout)
        assert deflated == [9]
        assert threading.active_count() == before


def idat_of(png: bytes) -> bytes:
    """The concatenated IDAT chunk data of a PNG stream."""
    pos, idat = 8, b""
    while pos < len(png):
        (length,) = struct.unpack(">I", png[pos : pos + 4])
        if png[pos + 4 : pos + 8] == b"IDAT":
            idat += png[pos + 8 : pos + 8 + length]
        pos += 12 + length
    return idat


class TestStreamedScanlines:
    @settings(max_examples=80, deadline=None)
    @example(n=3, cols=1, spare_rows=2, patch_px=3, gap_px=0, block_rows=1, extra=0)
    @example(n=4, cols=4, spare_rows=0, patch_px=5, gap_px=2, block_rows=3, extra=5)
    @example(n=5, cols=2, spare_rows=1, patch_px=4, gap_px=0, block_rows=0, extra=7)
    @given(
        n=st.integers(1, 12), cols=st.integers(1, 4), spare_rows=st.integers(0, 2),
        patch_px=st.integers(1, 6), gap_px=st.integers(0, 3),
        block_rows=st.integers(0, 9), extra=st.integers(0, 10**6),
    )
    def test_image_data_are_one_compress_of_the_frame(
        self, n, cols, spare_rows, patch_px, gap_px, block_rows, extra
    ):
        layout = ChartLayout(rows=math.ceil(n / cols) + spare_rows, cols=cols, patch_px=patch_px, gap_px=gap_px)
        w, h = layout.image_size
        stride = 1 + 6 * w
        # blocks of one scanline (under one row's bytes) up to nine, and
        # sizes that split the patch bands mid-band
        block = block_rows * stride + extra % stride
        calls = []

        def compressobj(level):
            inner = zlib.compressobj(level)
            return types.SimpleNamespace(
                compress=lambda data: calls.append(memoryview(data).nbytes) or inner.compress(data),
                flush=inner.flush,
            )

        rgb = np.random.default_rng(n).random((n, 3))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(chart, "_DEFLATE_BLOCK_BYTES", block)
            mp.setattr(chart, "zlib", types.SimpleNamespace(crc32=zlib.crc32, compressobj=compressobj))
            png, _ = render_chart([f"p{i}" for i in range(n)], rgb, layout)
        frame = decode_png_rgb16(png)
        # an independent one-shot oracle: every row's filter byte of 0, then
        # its big-endian samples, compressed in one call
        scanlines = np.zeros((h, stride), np.uint8)
        scanlines[:, 1:] = frame.astype(">u2").view(np.uint8).reshape(h, 6 * w)
        assert idat_of(png) == zlib.compress(scanlines.tobytes(), 9)
        rows = max(1, block // stride)
        assert calls == [min(rows, h - k) * stride for k in range(0, h, rows)]


class TestLayout:
    def test_validation(self):
        with pytest.raises(ValueError):
            ChartLayout(rows=0, cols=4)
        with pytest.raises(ValueError):
            ChartLayout(rows=1, cols=1, patch_px=0)
