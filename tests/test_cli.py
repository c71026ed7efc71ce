import json
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import colorbench
from colorbench import (
    ATLAS_CSV_HEADER,
    AtlasSpec,
    Cam16ViewingConditions,
    ChartLayout,
    DisplayGamut,
    TABLE1_COLUMNS,
    atlas_csv,
    build_target_set,
    generate_atlas,
    load_database,
    load_metadata,
    match_csv,
    match_nearest,
    render_chart,
    scatter_svg,
    spd_to_xyz,
    to_working_grid,
)
from colorbench.cli import run
from colorbench.spectral import MAX_INPUT_BYTES

DATA = Path(__file__).parent / "data"


def test_unknown_flag_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        run(["--definitely-not-a-flag"])
    assert exc.value.code == 2


def test_missing_subcommand_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        run([])
    assert exc.value.code == 2


def test_targets_matches_library(capsys):
    assert run(["targets"]) == 0
    out = capsys.readouterr().out
    lines = out.splitlines()
    assert lines[0] == "name,R,G,B,x,y,L_C"
    targets = build_target_set()
    assert len(lines) == len(targets) + 1
    for line, t in zip(lines[1:], targets):
        fields = line.split(",")
        assert fields[0] == t.name
        assert float(fields[4]) == t.x
        assert float(fields[6]) == t.L_C


def test_targets_json(capsys):
    assert run(["targets", "--json"]) == 0
    rows = json.loads(capsys.readouterr().out)
    assert len(rows) == 16
    assert rows[0]["name"] == "R"


def test_solve_optimal_json_matches_library(capsys):
    from colorbench import BAND_STOP, Chromaticity, solve_optimal

    code = run(["solve-optimal", "--target", "0.64,0.33", "--genus", "band_stop", "--json"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    report = solve_optimal(Chromaticity.from_xy(0.64, 0.33), BAND_STOP)
    assert payload["lambda1_nm"] == report.params.lambda1_nm
    assert payload["lambda2_nm"] == report.params.lambda2_nm
    assert payload["converged"] is True


def test_solve_optimal_auto_genus(capsys):
    code = run(["solve-optimal", "--target", "0.64,0.33", "--json"])
    assert code == 0
    assert json.loads(capsys.readouterr().out)["genus"] == "band_stop"


def test_solve_optimal_json_keys_unchanged(capsys):
    # the solver's observability fields stay out of the CLI output
    assert run(["solve-optimal", "--target", "0.30,0.60", "--json"]) == 0
    assert set(json.loads(capsys.readouterr().out)) == {
        "name", "genus", "lambda1_nm", "lambda2_nm", "K", "delta_e", "iterations", "converged"
    }


def test_solve_optimal_auto_genus_falls_back(capsys):
    # the band-stop lattice comes closer to this near-white target, but only
    # a band pass reaches it
    code = run(["solve-optimal", "--target", "0.31562650669408016,0.3362552415462823", "--json"])
    assert code == 0
    assert json.loads(capsys.readouterr().out)["genus"] == "band_pass"


def test_solve_optimal_init_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        run(["solve-optimal", "--target", "0.64,0.33", "--init", "1,2"])
    assert exc.value.code == 2


def test_flags_do_not_carry_over_between_runs(tmp_path, capsys):
    out = tmp_path / "t.json"
    assert run(["targets", "--json", "--out", str(out)]) == 0
    assert run(["targets"]) == 0
    assert capsys.readouterr().out.startswith("name,R,G,B,x,y,L_C\n")
    assert json.loads(out.read_text())[0]["name"] == "R"


def test_solve_optimal_bad_target_is_domain_error(capsys):
    assert run(["solve-optimal", "--target", "0.64"]) == 1
    assert "error:" in capsys.readouterr().err


def test_table1_json_has_ten_reports(capsys, tmp_path):
    out = tmp_path / "t1.json"
    code = run(["table1", "--json", "--out", str(out)])
    rows = json.loads(out.read_text())
    assert [r["name"] for r in rows] == [
        "R", "G", "B", "Ye", "C", "M", "R05", "G05", "B05", "WW",
    ]
    converged = {r["name"]: r["converged"] for r in rows}
    assert all(converged[n] for n in ("R", "G", "B", "M", "R05", "G05", "B05", "WW"))
    # exit code reports the two documented non-convergent columns
    assert code == (0 if all(converged.values()) else 1)


def test_table1_text_rows(capsys):
    assert run(["table1"]) == 1  # the Ye and C columns do not converge
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in lines] == [name for name, _, _ in TABLE1_COLUMNS]
    for line in lines:
        unconverged = line.split()[0] in ("Ye", "C")
        assert line.endswith(f" converged={not unconverged}")


def test_match_missing_database(capsys):
    assert run(["match", "--db", "definitely_missing.csv"]) == 1
    assert "database not found" in capsys.readouterr().err


def test_match_matches_library(capsys, tmp_path):
    out = tmp_path / "report.csv"
    code = run(["match", "--db", str(DATA / "fixture_wide.csv"), "--out", str(out)])
    assert code == 0
    db = load_database(DATA / "fixture_wide.csv", "wide_csv")
    expected = match_csv(match_nearest(build_target_set(), db))
    assert out.read_text() == expected


def test_atlas_csv_matches_library(tmp_path, capsys):
    out = tmp_path / "a.csv"
    code = run(
        ["atlas", "--j", "50", "--surround", "dark", "--la", "50", "--spacing", "2",
         "--out", str(out)]
    )
    assert code == 0
    header = out.read_text().splitlines()[0]
    assert header == "J,a_m_prime,b_m_prime,X,Y,Z,x,y,R_lin,G_lin,B_lin"
    vc = Cam16ViewingConditions(L_A=50.0, surround="dark")
    result = generate_atlas(AtlasSpec(vc=vc, J=50.0, spacing=2.0))
    assert out.read_text() == atlas_csv(result.points)


def test_atlas_stderr_line(tmp_path, capsys):
    # the one stderr line of an atlas run, parsed by the benchmark: it names
    # kept points and inversion failures, not the out-of-gamut count
    assert run(["atlas", "--j", "50", "--out", str(tmp_path / "a.csv")]) == 0
    assert capsys.readouterr().err == "atlas J=50 spacing=2: 1109 points, 819 inversion failures\n"


def test_atlas_svg_outputs(tmp_path):
    out = tmp_path / "a.csv"
    svg = tmp_path / "a.svg"
    xy_svg = tmp_path / "xy.svg"
    code = run(
        ["atlas", "--j", "50", "--la", "50", "--out", str(out),
         "--svg", str(svg), "--xy-svg", str(xy_svg)]
    )
    assert code == 0
    assert svg.read_text().startswith("<svg ")
    assert xy_svg.read_text().startswith("<svg ")
    # the SVGs plot the (a'_M, b'_M) and (x, y) columns of the table
    points = generate_atlas(AtlasSpec(vc=Cam16ViewingConditions(L_A=50.0), J=50.0)).points
    assert svg.read_text() == scatter_svg(points[:, 1:3])
    assert xy_svg.read_text() == scatter_svg(points[:, 6:8], labels=("x", "y"))


def test_empty_atlas_svg_is_domain_error(tmp_path, capsys):
    # at J = 50 every candidate is brighter than a 10 cd/m2 display white
    out = tmp_path / "a.csv"
    argv = ["atlas", "--j", "50", "--white-luminance", "10", "--out", str(out)]
    assert run(argv) == 0
    assert out.read_text() == ATLAS_CSV_HEADER + "\n"
    assert run([*argv, "--xy-svg", str(tmp_path / "xy.svg")]) == 1
    assert "error: nothing to plot" in capsys.readouterr().err


def test_chart_writes_png_and_sidecar(tmp_path):
    out = tmp_path / "chart.png"
    assert run(["chart", "--out", str(out), "--patch-px", "16", "--gap-px", "2"]) == 0
    sidecar = tmp_path / "chart.png.meta.json"
    assert out.exists() and sidecar.exists()
    targets = build_target_set()
    names, rgb = [t.name for t in targets], [t.rgb_weights for t in targets]
    # the CLI's default session settings
    settings = {"illuminant": "d65", "observer": "degree2", "la": 50.0, "yb": 20.0, "surround": "average"}
    png, text = render_chart(
        names, rgb, ChartLayout(rows=4, cols=4, patch_px=16, gap_px=2), settings=settings
    )
    assert out.read_bytes() == png
    assert sidecar.read_bytes() == text.encode("utf-8")


def test_chart_from_matched_set(tmp_path):
    out = tmp_path / "matched.png"
    code = run(
        ["chart", "--db", str(DATA / "fixture_wide.csv"), "--patch-px", "8", "--out", str(out)]
    )
    assert code == 0
    patches = load_metadata(tmp_path / "matched.png.meta.json")["patches"]
    assert len(patches) == 16
    assert all(p["source"] == "matched" for p in patches)
    assert patches[0]["name"].startswith("R:")
    # each patch is the clipped drive of its record's integrated spectrum,
    # integrated here from the file
    header, *rows = [line.split(",") for line in (DATA / "fixture_wide.csv").read_text().splitlines()]
    wavelengths = [float(w) for w in header[1:]]
    spectra = {row[0]: [float(v) for v in row[1:]] for row in rows}
    for p in patches:
        spd = to_working_grid(wavelengths, spectra[p["name"].split(":")[1]])
        xyz = spd_to_xyz(spd)
        assert p["rgb_linear"] == np.clip(DisplayGamut().linear_rgb(xyz), 0.0, 1.0).tolist()


def test_chart_with_p3_primaries(tmp_path):
    # the DCI-P3 red's z rounds to -5.6e-17, so its patch's Z is about -4e-15
    out = tmp_path / "c.png"
    argv = ["chart", "--primaries", "0.68,0.32,0.265,0.69,0.15,0.06", "--out", str(out)]
    assert run(argv) == 0
    patches = load_metadata(tmp_path / "c.png.meta.json")["patches"]
    assert len(patches) == 16
    red = next(p for p in patches if p["name"] == "R")
    assert red["x"] == pytest.approx(0.68, abs=1e-12) and red["y"] == pytest.approx(0.32, abs=1e-12)


# a non-default value for each session flag
SESSION_VALUES = {
    "--illuminant": "e",
    "--observer": "degree10",
    "--la": "80",
    "--yb": "30",
    "--surround": "dark",
    "--d": "0.5",
    "--primaries": "0.68,0.32,0.265,0.69,0.15,0.06",
}
# each subcommand's own arguments; every run also writes --out
SESSION_BASE = {
    "solve-optimal": ["--target", "0.3,0.5", "--json"],
    "table1": ["--json"],
    "targets": [],
    "match": ["--db", str(DATA / "fixture_wide.csv")],
    "atlas": ["--j", "50", "--spacing", "8"],
    "chart": ["--patch-px", "8"],
}
# the 24 (subcommand, flag) pairs whose setting the subcommand does not read
UNREAD = {
    *((command, flag)
      for command in ("solve-optimal", "table1", "match")
      for flag in ("--la", "--yb", "--surround", "--d", "--primaries")),
    *(("targets", flag) for flag in SESSION_VALUES),
    ("atlas", "--illuminant"),
    ("chart", "--d"),
}
assert len(UNREAD) == 24


def _outputs(work: Path, argv):
    """The exit code and every file a run writes into an empty directory."""
    work.mkdir()
    try:
        code = run([*argv, "--out", str(work / "out")])
    except SystemExit as exc:
        code = exc.code
    return code, {p.name: p.read_bytes() for p in work.iterdir()}


@pytest.fixture(scope="module")
def session_base(tmp_path_factory):
    root = tmp_path_factory.mktemp("session_base")
    return {c: _outputs(root / c, [c, *argv]) for c, argv in SESSION_BASE.items()}


@pytest.mark.parametrize("flag", list(SESSION_VALUES))
@pytest.mark.parametrize("command", list(SESSION_BASE))
def test_session_flag_takes_effect_or_is_usage_error(
    tmp_path, capsys, session_base, command, flag
):
    value = SESSION_VALUES[flag]
    code, files = _outputs(tmp_path / "run", [command, *SESSION_BASE[command], flag, value])
    err = capsys.readouterr().err
    if (command, flag) in UNREAD:
        assert code == 2
        assert f"error: unrecognized arguments: {flag} {value}\n" in err
        assert not files
    else:
        assert code != 2
        assert (code, files) != session_base[command]


@pytest.mark.parametrize(
    "argv, named",
    [
        (["match", "--db", str(DATA / "fixture_wide.csv"), "--d", "0.5"], "--d 0.5"),
        (["atlas", "--j", "50", "--white", "80"], "--white 80"),
        (["atlas", "--j", "50", "--spac", "4"], "--spac 4"),
        (["chart", "--patch", "8"], "--patch 8"),
        (["solve-optimal", "--target", "0.3,0.5", "--gen", "band_pass"], "--gen band_pass"),
        (["targets", "--js"], "--js"),
        (["table1", "--conf", "c.json"], "--conf c.json"),
    ],
    ids=["match_d", "atlas_white", "atlas_spac", "chart_patch", "solve_gen", "targets_js",
         "table1_conf"],
)
def test_flag_prefix_is_usage_error(tmp_path, capsys, argv, named):
    with pytest.raises(SystemExit) as exc:
        run([*argv, "--out", str(tmp_path / "out")])
    assert exc.value.code == 2
    assert f"error: unrecognized arguments: {named}\n" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize(
    "argv, message",
    [
        (["solve-optimal", "--tar", "0.3,0.5"], "unrecognized arguments: --tar 0.3,0.5"),
        (["atlas", "--jay", "50", "--out", "a.csv"], "unrecognized arguments: --jay 50"),
        (["--vers"], "unrecognized arguments: --vers"),
        # after the cases above, the parser still requires what it did
        (["solve-optimal", "--lc", "0.2"], "the following arguments are required: --target"),
        (["atlas", "--out", "a.csv"], "the following arguments are required: --j"),
        (["match"], "the following arguments are required: --db"),
        ([], "the following arguments are required: command"),
    ],
    ids=["solve_tar", "atlas_jay", "vers", "solve_target", "atlas_j", "match_db", "command"],
)
def test_unrecognized_flag_named_before_missing_required_one(
    tmp_path, monkeypatch, capsys, argv, message
):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        run(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"error: {message}\n" in err
    assert "[--target" not in err and "[--j " not in err
    assert not list(tmp_path.iterdir())


def test_targets_help_lists_only_its_flags(capsys):
    with pytest.raises(SystemExit) as exc:
        run(["targets", "--help"])
    assert exc.value.code == 0
    flags = set(re.findall(r"--[a-z][a-z-]*", capsys.readouterr().out))
    assert flags == {"--help", "--config", "--out-dir", "--json", "--out"}


@pytest.mark.parametrize(
    "argv",
    [["targets"], ["solve-optimal", "--target", "0.3,0.5"], ["table1"], ["match", "--db", "x.csv"]],
    ids=["targets", "solve", "table1", "match"],
)
def test_out_dir_needs_out(tmp_path, capsys, argv):
    with pytest.raises(SystemExit) as exc:
        run([*argv, "--out-dir", str(tmp_path)])
    assert exc.value.code == 2
    assert "argument --out-dir: only allowed with --out" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_chart_takes_one_source(tmp_path, capsys):
    argv = ["chart", "--from-atlas", "a.csv", "--db", str(DATA / "fixture_wide.csv")]
    with pytest.raises(SystemExit) as exc:
        run([*argv, "--out", str(tmp_path / "c.png")])
    assert exc.value.code == 2
    assert "not allowed with argument" in capsys.readouterr().err
    assert not (tmp_path / "c.png").exists()


@pytest.mark.parametrize("source", [[], ["--from-atlas", "a.csv"]], ids=["targets", "atlas"])
def test_chart_format_needs_db(tmp_path, capsys, source):
    with pytest.raises(SystemExit) as exc:
        run(["chart", *source, "--format", "long_csv", "--out", str(tmp_path / "c.png")])
    assert exc.value.code == 2
    assert "argument --format: only allowed with --db" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("rows", ["0", "-1"])
def test_chart_rows_must_be_positive(tmp_path, capsys, rows):
    assert run(["chart", "--rows", rows, "--out", str(tmp_path / "c.png")]) == 1
    assert capsys.readouterr().err == "error: --rows must be at least 1\n"
    assert not list(tmp_path.iterdir())


def test_chart_from_atlas(tmp_path):
    acsv = tmp_path / "a.csv"
    assert run(["atlas", "--j", "50", "--la", "50", "--spacing", "8", "--out", str(acsv)]) == 0
    out = tmp_path / "chart.png"
    assert run(
        ["chart", "--from-atlas", str(acsv), "--cols", "8", "--patch-px", "8", "--out", str(out)]
    ) == 0
    assert out.exists()


_ATLAS_ROW = ",".join(["0.5"] * 11)
_BLACK_ATLAS_ROW = ",".join(["0.5"] * 8 + ["0"] * 3)


@pytest.mark.parametrize(
    "text, line",
    [
        ("", 1),
        ("J,a_m_prime,b_m_prime,X,Y,Z,x,y,R,G,B\n" + _ATLAS_ROW + "\n", 1),
        (ATLAS_CSV_HEADER + "\n", 2),
        (ATLAS_CSV_HEADER + "\n" + _ATLAS_ROW + ",0.5\n", 2),
        (ATLAS_CSV_HEADER + "\n" + _ATLAS_ROW + "\n0.5,0.5\n", 3),
        (ATLAS_CSV_HEADER + "\n" + _ATLAS_ROW[:-3] + "abc\n", 2),
        (ATLAS_CSV_HEADER + "\n" + _ATLAS_ROW[:-3] + "nan\n", 2),
        (ATLAS_CSV_HEADER + "\n" + _ATLAS_ROW + "\n" + _ATLAS_ROW[:-3] + "1.5\n", 3),
    ],
    ids=[
        "empty", "no_R_lin", "header_only", "extra_field", "short_row", "text", "nan",
        "rgb_above_1",
    ],
)
def test_chart_from_malformed_atlas_is_domain_error(tmp_path, capsys, text, line):
    acsv = tmp_path / "a.csv"
    acsv.write_text(text)
    assert run(["chart", "--from-atlas", str(acsv), "--out", str(tmp_path / "c.png")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {acsv}: line {line}: ")
    assert err.count("\n") == 1
    assert not (tmp_path / "c.png").exists()


def test_chart_from_atlas_renders_black_row(tmp_path):
    acsv = tmp_path / "a.csv"
    acsv.write_text(f"{ATLAS_CSV_HEADER}\n{_ATLAS_ROW}\n{_BLACK_ATLAS_ROW}\n")
    out = tmp_path / "c.png"
    assert run(["chart", "--from-atlas", str(acsv), "--out", str(out)]) == 0
    black = json.loads((tmp_path / "c.png.meta.json").read_text())["patches"][1]
    assert black["rgb_linear"] == [0.0, 0.0, 0.0] and black["L_C"] == 0.0


def test_chart_from_atlas_skips_comments_and_blank_lines(tmp_path):
    acsv = tmp_path / "a.csv"
    acsv.write_text(f"# atlas\n{ATLAS_CSV_HEADER}\n\n{_ATLAS_ROW}\n\n")
    assert run(["chart", "--from-atlas", str(acsv), "--out", str(tmp_path / "c.png")]) == 0


@pytest.mark.parametrize(
    "argv",
    [
        ["atlas", "--j", "50", "--la", "nan"],
        ["atlas", "--j", "50", "--la", "inf"],
        ["atlas", "--j", "50", "--white-luminance", "nan"],
        ["atlas", "--j", "50", "--spacing", "inf"],
        ["atlas", "--j", "50", "--bound", "inf"],
        ["atlas", "--j", "50", "--spacing", "1e-4"],
        ["chart", "--cols", "0"],
        ["chart", "--patch-px", "5000"],
        ["solve-optimal", "--target", "0.3,0.5", "--tolerance", "-1"],
        ["solve-optimal", "--target", "0.3,0.5", "--tolerance", "nan"],
        ["atlas", "--j", "nan"],
        ["atlas", "--j", "50", "--yb", "nan"],
        ["atlas", "--j", "50", "--d", "nan"],
        ["solve-optimal", "--target", "0.3,0.5", "--lc", "nan"],
        ["solve-optimal", "--target", "nan,0.5"],
        ["atlas", "--j", "50", "--yb", "0"],
        ["atlas", "--j", "50", "--bound", "20", "--la", "1e308"],
        ["atlas", "--j", "50", "--bound", "20", "--la", "5e-324"],
        ["atlas", "--j", "1e-310"],
        ["chart", "--la", "nan", "--yb", "-5"],
    ],
    ids=[
        "la_nan", "la_inf", "white_luminance_nan", "spacing_inf", "bound_inf",
        "spacing_budget", "cols_0", "pixel_budget", "tolerance_negative", "tolerance_nan",
        "j_nan", "yb_nan", "d_nan", "lc_nan", "target_nan", "yb_zero",
        "la_huge", "la_subnormal", "j_subnormal", "chart_viewing",
    ],
)
def test_bad_numeric_setting_is_domain_error(tmp_path, capsys, argv):
    out = str(tmp_path / ("x.png" if argv[0] == "chart" else "x.csv"))
    assert run([*argv, "--out", out]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize(
    "args, text, line",
    [
        (["match", "--db"], "id,400,nan,600\na,0.1,0.2,0.3\n", 1),
        (
            ["match", "--format", "long_csv", "--db"],
            "id,wavelength_nm,value\na,400,1\na,nan,1\n",
            3,
        ),
        (
            ["solve-optimal", "--target", "0.3,0.5", "--illuminant"],
            "# flat\nwavelength_nm,value\n360,100\nnan,100\n720,100\n",
            4,
        ),
    ],
    ids=["wide_header", "long_row", "illuminant"],
)
def test_nan_wavelength_is_line_error(tmp_path, capsys, args, text, line):
    path = tmp_path / "in.csv"
    path.write_text(text)
    assert run([*args, str(path)]) == 1
    assert capsys.readouterr().err == f"error: {path}: line {line}: numbers must be finite\n"


def test_overflowing_database_record_is_line_error(tmp_path, capsys):
    path = tmp_path / "db.csv"
    path.write_text("id,400,550,700\na,0.1,0.2,0.3\nb,1e308,1e308,1e308\n")
    assert run(["match", "--db", str(path)]) == 1
    assert capsys.readouterr().err == (
        f"error: {path}: line 3: record 'b': tristimulus components must be finite\n"
    )


@pytest.mark.parametrize(
    "args",
    [["solve-optimal", "--target", "0.3,0.5"], ["match", "--db", str(DATA / "fixture_wide.csv")]],
    ids=["solve", "match"],
)
def test_overflowing_illuminant_is_domain_error(tmp_path, capsys, args):
    path = tmp_path / "ill.csv"
    path.write_text("wavelength_nm,value\n360,1e308\n720,1e308\n")
    assert run([*args, "--illuminant", str(path)]) == 1
    assert capsys.readouterr().err == (
        f"error: {path}: the illuminant's weighted sums overflow the float range\n"
    )


@pytest.mark.parametrize(
    "args",
    [["solve-optimal", "--target", "0.3,0.5"], ["match", "--db", str(DATA / "fixture_wide.csv")]],
    ids=["solve", "match"],
)
def test_subnormal_illuminant_is_domain_error(tmp_path, capsys, args):
    # 100 / Y-sum overflows; neither a record nor the solver is to blame
    path = tmp_path / "ill.csv"
    path.write_text("wavelength_nm,value\n360,5e-324\n720,5e-324\n")
    assert run([*args, "--illuminant", str(path)]) == 1
    assert capsys.readouterr().err == (
        f"error: {path}: the illuminant's power is too small to scale to Y = 100\n"
    )


def test_bad_config_observer_does_not_blame_the_illuminant(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"observer": "x"}))
    path = tmp_path / "ill.csv"
    path.write_text("wavelength_nm,value\n360,100\n720,100\n")
    argv = ["solve-optimal", "--target", "0.3,0.5", "--config", str(cfg), "--illuminant", str(path)]
    assert run(argv) == 1
    assert capsys.readouterr().err == "error: unknown observer id: 'x'\n"


def test_flat_illuminant_csv_matches_e(tmp_path, capsys):
    flat = tmp_path / "flat.csv"
    flat.write_text("# equal energy\nwavelength_nm,value\n360,100\n720,100\n")
    for args in (
        ["solve-optimal", "--target", "0.3,0.5", "--json"],
        ["match", "--db", str(DATA / "fixture_wide.csv")],
    ):
        assert run([*args, "--illuminant", "e"]) == 0
        expected = capsys.readouterr().out
        assert run([*args, "--illuminant", str(flat)]) == 0
        assert capsys.readouterr().out == expected


def test_config_file_with_flag_override(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"surround": "dark", "la": 80.0}))
    out_cfg = tmp_path / "cfg_atlas.csv"
    code = run(["atlas", "--config", str(cfg), "--j", "50", "--out", str(out_cfg)])
    assert code == 0
    vc = Cam16ViewingConditions(L_A=80.0, surround="dark")
    expected = atlas_csv(generate_atlas(AtlasSpec(vc=vc, J=50.0, spacing=2.0)).points)
    assert out_cfg.read_text() == expected

    out_flag = tmp_path / "flag_atlas.csv"
    code = run(
        ["atlas", "--config", str(cfg), "--la", "50", "--j", "50", "--out", str(out_flag)]
    )
    assert code == 0
    vc2 = Cam16ViewingConditions(L_A=50.0, surround="dark")
    expected2 = atlas_csv(generate_atlas(AtlasSpec(vc=vc2, J=50.0, spacing=2.0)).points)
    assert out_flag.read_text() == expected2


def test_chart_checks_config_d(tmp_path, capsys):
    # chart takes no --d flag, but it rejects the config's d as atlas would
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"d": 7}))
    out = tmp_path / "c.png"
    assert run(["chart", "--config", str(cfg), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not out.exists()


def test_missing_config_is_domain_error(capsys):
    assert run(["targets", "--config", "nope.json"]) == 1
    assert "config file not found" in capsys.readouterr().err


@pytest.mark.parametrize(
    "text, message",
    [
        ('{"la": 1' + "0" * 400 + "}", "'la' must be a finite number, got 1000"),
        ('{"yb": -1' + "0" * 400 + "}", "'yb' must be a finite number, got -1000"),
        ("[" * 100_000, "maximum recursion depth exceeded"),
        ('{"la": 80,}', "Expecting property name enclosed in double quotes"),
        (b'{"illuminant": "\xff"}', "'utf-8' codec can't decode byte 0xff"),
    ],
    ids=["huge_int", "huge_negative_int", "nested", "syntax", "utf8"],
)
def test_unreadable_config_names_the_file(tmp_path, capsys, text, message):
    path = tmp_path / "cfg.json"
    if isinstance(text, bytes):
        path.write_bytes(text)
    else:
        path.write_text(text)
    out = tmp_path / "a.csv"
    assert run(["atlas", "--j", "50", "--config", str(path), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: ") and err.count("\n") == 1
    assert message in err
    assert not out.exists()


# every option that names an input file, with a command that reads it first
INPUT_OPTIONS = {
    "db": ["match", "--db"],
    "config": ["targets", "--config"],
    "illuminant": ["solve-optimal", "--target", "0.3,0.5", "--illuminant"],
    "from_atlas": ["chart", "--from-atlas"],
}


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs FIFOs")
@pytest.mark.parametrize("option", list(INPUT_OPTIONS))
def test_fifo_input_is_rejected_unopened(tmp_path, capsys, no_hang, option):
    fifo = tmp_path / "input.fifo"
    os.mkfifo(fifo)  # no process writes it, so an open() would block
    out = tmp_path / "out"
    assert run([*INPUT_OPTIONS[option], str(fifo), "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {fifo}: not a regular file\n"
    assert not out.exists()


@pytest.mark.parametrize("option", list(INPUT_OPTIONS))
def test_input_over_the_size_bound_is_rejected_unread(tmp_path, capsys, option):
    big = tmp_path / "big.csv"
    big.touch()
    os.truncate(big, MAX_INPUT_BYTES + 1)  # sparse: it takes no disk
    out = tmp_path / "out"
    tracemalloc.start()
    try:
        assert run([*INPUT_OPTIONS[option], str(big), "--out", str(out)]) == 1
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert capsys.readouterr().err == f"error: {big}: larger than {MAX_INPUT_BYTES} bytes\n"
    assert peak < 2**20  # nothing of the file was read
    assert not out.exists()


def _limit_address_space():
    import resource  # Unix only, as /dev/zero is

    resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))


@pytest.mark.skipif(not os.path.exists("/dev/zero"), reason="no /dev/zero")
@pytest.mark.parametrize("option", ["db", "config"])
def test_dev_zero_is_rejected_unread(tmp_path, option):
    # a run that read the endless device would fill memory, so it runs in a
    # child process with 1 GiB of address space and a time limit
    src = Path(colorbench.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src), "OPENBLAS_NUM_THREADS": "1"}
    argv = [sys.executable, "-m", "colorbench.cli", *INPUT_OPTIONS[option], "/dev/zero",
            "--out", str(tmp_path / "out")]
    done = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=60,
                          preexec_fn=_limit_address_space)
    assert (done.returncode, done.stderr) == (1, "error: /dev/zero: not a regular file\n")


@pytest.mark.parametrize(
    "config, message",
    [
        ({"la": "abc"}, "'la' must be a finite number, got \"abc\""),
        ({"illuminant": 5}, "'illuminant' must be a string, got 5"),
        ({"la": True}, "'la' must be a finite number, got true"),
        ({"la": None}, "'la' must be a finite number, got null"),
        ({"d": "0.5"}, "'d' must be a finite number or null"),
        ({"primaries": ["0.64"]}, "'primaries' must be a string or null"),
        ({"luminance": 80}, "unknown config key 'luminance'"),
        ([1, 2], "config must be a JSON object"),
    ],
)
def test_malformed_config_is_domain_error(tmp_path, capsys, config, message):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    assert run(["targets", "--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert message in err


def test_non_finite_config_number_is_domain_error(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text('{"yb": NaN}')
    assert run(["targets", "--config", str(path)]) == 1
    assert "'yb' must be a finite number, got NaN" in capsys.readouterr().err


def test_config_accepts_null_for_settings_without_default(tmp_path):
    path = tmp_path / "cfg.json"
    # a config key is a shared default: targets takes no viewing flag, but its config may set one
    config = {"d": None, "primaries": None, "la": 80, "yb": 30, "surround": "dark"}
    path.write_text(json.dumps(config))
    assert run(["targets", "--config", str(path), "--out-dir", str(tmp_path), "--out", "t.csv"]) == 0


def test_out_dir_prefixes_relative_outputs(tmp_path):
    base = tmp_path / "results"
    base.mkdir()
    code = run(["targets", "--out-dir", str(base), "--out", "t.csv"])
    assert code == 0
    assert (base / "t.csv").exists()


def test_custom_primaries_change_the_atlas(tmp_path):
    out_709 = tmp_path / "a709.csv"
    out_wide = tmp_path / "awide.csv"
    assert run(["atlas", "--j", "50", "--la", "50", "--out", str(out_709)]) == 0
    code = run(
        ["atlas", "--j", "50", "--la", "50",
         "--primaries", "0.708,0.292,0.170,0.797,0.131,0.046",
         "--out", str(out_wide)]
    )
    assert code == 0
    wide = out_wide.read_text().splitlines()
    narrow = out_709.read_text().splitlines()
    assert len(wide) > len(narrow)  # wider primaries keep more lattice points


def test_bad_primaries_is_domain_error(capsys):
    assert run(["atlas", "--j", "50", "--primaries", "0.7,0.3", "--out", "x.csv"]) == 1
    assert "six numbers" in capsys.readouterr().err


def test_chart_embed_primaries_chunk(tmp_path):
    plain = tmp_path / "plain.png"
    tagged = tmp_path / "tagged.png"
    assert run(["chart", "--patch-px", "8", "--out", str(plain)]) == 0
    assert run(["chart", "--patch-px", "8", "--embed-primaries", "--out", str(tagged)]) == 0
    assert b"cHRM" not in plain.read_bytes()
    assert b"cHRM" in tagged.read_bytes()
    from colorbench import decode_png_rgb16

    assert (
        decode_png_rgb16(tagged.read_bytes()) == decode_png_rgb16(plain.read_bytes())
    ).all()
