"""Mutated input files, flags and config values through ``cli.run``: every
outcome is a result, one ``error:`` line or a usage error, never a
traceback."""
import json
import re
import shutil
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from colorbench import ATLAS_CSV_HEADER, spectral
from colorbench.cli import run

VALID = {
    "wide": "id,400,450,500,550,600,650,700\n"
    "a,0.1,0.2,0.3,0.4,0.5,0.6,0.7\n"
    "b,0.7,0.6,0.5,0.4,0.3,0.2,0.1\n"
    "c,0.2,0.4,0.6,0.4,0.2,0.2,0.2\n",
    "long": "id,wavelength_nm,value\n"
    "a,400,0.2\na,550,0.2\na,700,0.2\n"
    "b,400,0.5\nb,550,0.5\nb,700,0.5\n"
    "c,380,0.1\nc,560,0.9\nc,700,0.3\n",
    "spectrum": "# a daylight-like illuminant\nwavelength_nm,value\n"
    "360,50\n420,90\n480,110\n540,105\n600,95\n660,90\n720,80\n",
    "atlas": ATLAS_CSV_HEADER + "\n"
    "50.0,0.0,0.0,18.0,18.4,20.0,0.31,0.33,0.2,0.2,0.15\n"
    "50.0,2.0,0.0,18.0,18.4,20.0,0.31,0.33,0.4,0.2,0.15\n"
    "50.0,0.0,2.0,18.0,18.4,20.0,0.31,0.33,0.1,0.2,0.15\n",
}

COMMANDS = {
    "wide": ["match", "--db"],
    "long": ["match", "--format", "long_csv", "--db"],
    "spectrum": ["solve-optimal", "--target", "0.3,0.45", "--illuminant"],
    "atlas": ["chart", "--from-atlas"],
}

MUTATIONS = ("drop_field", "add_field", "text", "nan", "inf", "huge", "negative",
             "underscore", "swap", "repeat_id", "blank", "comment", "sub_nm")


def mutate(text: str, draw) -> str:
    lines = text.splitlines()
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(MUTATIONS))
        i = draw(st.integers(0, len(lines) - 1))
        fields = lines[i].split(",")
        k = draw(st.integers(0, len(fields) - 1))
        if kind == "drop_field" and len(fields) > 1:
            del fields[k]
        elif kind == "add_field":
            fields.insert(k, "0.5")
        elif kind in ("text", "nan", "inf", "huge", "negative", "underscore"):
            fields[k] = {"text": "abc", "nan": "nan", "inf": "inf", "huge": "1e308",
                         "negative": "-0.5", "underscore": "0_5"}[kind]
        elif kind == "swap":
            j = draw(st.integers(0, len(lines) - 1))
            lines[i], lines[j] = lines[j], lines[i]
            continue
        elif kind == "repeat_id":
            fields[0] = lines[draw(st.integers(0, len(lines) - 1))].split(",")[0]
        elif kind == "sub_nm":
            # a huge sample at 399.9 nm and the next at 400.1 nm: finite numbers,
            # but the 400 nm sample of the resampled spectrum overflows
            if lines[0].startswith("id,400,450,"):  # wide: the header holds the wavelengths
                if i > 0 and len(fields) > 1:  # a data row, not the header or an inserted line
                    lines[0] = lines[0].replace("id,400,450,", "id,399.9,400.1,")
                    fields[1] = "1e308"
            elif i + 1 < len(lines) and len(fields) > 1:  # a wavelength, then a sample
                fields[-2:] = "399.9", "1e308"
                after = lines[i + 1].split(",")
                lines[i + 1] = ",".join([*after[:-2], "400.1", *after[-1:]])
        else:
            lines.insert(i, "" if kind == "blank" else "# inserted")
            continue
        lines[i] = ",".join(fields)
    return "\n".join(lines) + "\n"


def test_sub_nm_leaves_a_wide_line_without_samples_alone():
    # draws that once raised IndexError: a blank line inserted at line 1,
    # then sub_nm on that line
    draws = iter([2, "blank", 1, 0, "sub_nm", 1, 0])
    text = mutate(VALID["wide"], lambda strategy: next(draws))
    assert next(draws, None) is None
    header, *rows = VALID["wide"].splitlines()
    assert text.splitlines() == [header, "", *rows]


@pytest.mark.parametrize("kind", list(VALID))
def test_valid_files_run(tmp_path, capsys, kind):
    path = tmp_path / f"{kind}.csv"
    path.write_text(VALID[kind])
    out = tmp_path / "out"
    assert run([*COMMANDS[kind], str(path), "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("kind", list(VALID))
@settings(
    max_examples=40, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(data=st.data())
def test_mutated_files_fail_cleanly(tmp_path, capsys, kind, data):
    path = tmp_path / f"{kind}.csv"
    path.write_text(mutate(VALID[kind], data.draw))
    out = tmp_path / "out"
    code = run([*COMMANDS[kind], str(path), "--out", str(out)])
    err = capsys.readouterr().err
    assert code in (0, 1)
    # a huge illuminant fails as a whole file: its weighted sums overflow
    line = r"(line \d+: )?" if kind == "spectrum" else r"line \d+: "
    file_error = rf"error: {re.escape(str(path))}: {line}[^\n]+\n"
    assert err == "" or re.fullmatch(file_error, err), err


@pytest.mark.parametrize("block_chars", [1, 7, 64])
@pytest.mark.parametrize("kind", list(VALID))
@settings(
    max_examples=40, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(data=st.data())
def test_mutated_files_read_alike_in_small_blocks(tmp_path, capsys, kind, block_chars, data):
    # read in blocks of a few characters, every file gives the same exit code,
    # output text and output files as in blocks of the default size
    path = tmp_path / f"{kind}.csv"
    path.write_text(mutate(VALID[kind], data.draw))
    out = tmp_path / "out" / "result"
    outcomes = []
    for size in (spectral._BLOCK_CHARS, block_chars):
        shutil.rmtree(out.parent, ignore_errors=True)
        out.parent.mkdir()
        with mock.patch.object(spectral, "_BLOCK_CHARS", size):
            code = run([*COMMANDS[kind], str(path), "--out", str(out)])
        files = {p.name: p.read_bytes() for p in out.parent.iterdir()}
        outcomes.append((code, capsys.readouterr(), files))
    assert outcomes[0] == outcomes[1]


# number spellings for the numeric settings: zero, negative, subnormal, huge,
# non-finite, malformed and ordinary values
NUMBERS = ("0", "-0.0", "-1", "5e-324", "1e-310", "1e308", "1e309", "nan", "inf",
           "-inf", "abc", "", "1,2", "0.5", "20", "100")
number = st.one_of(st.sampled_from(NUMBERS), st.floats().map(repr))
primaries = st.one_of(
    st.sampled_from(("", "1,2,3", "a,b,c,d,e,f", "0,0,0,0,0,0")),
    st.lists(number, min_size=5, max_size=7).map(",".join),
)
SESSION = {"--la": number, "--yb": number, "--d": number, "--primaries": primaries}
SETTINGS = {
    # a drawn flag comes after the fixed ones, and argparse keeps the last;
    # the last field names the session flags the command takes
    "atlas": (
        ["--j", "50", "--bound", "20"],
        {"--j": number, "--white-luminance": number, "--spacing": number},
        set(SESSION),
    ),
    "solve-optimal": (["--target", "0.3,0.5"], {"--lc": number, "--tolerance": number}, set()),
    "chart": ([], {}, {"--la", "--yb", "--primaries"}),
}
CONFIG_VALUES = st.one_of(
    st.floats(),
    st.sampled_from([0, -1, 5e-324, 1e308, 10**400, -10**400, True, None, [], "abc"]),
    primaries,
)


def _reject_constant(name):
    raise AssertionError(f"sidecar holds {name}, which is not strict JSON")


@pytest.mark.parametrize("command", list(SETTINGS))
@settings(
    max_examples=40, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(data=st.data())
def test_bad_settings_fail_cleanly(tmp_path, capsys, command, data):
    fixed, own, takes = SETTINGS[command]
    strategies = SESSION | own
    flags = data.draw(st.lists(st.sampled_from(sorted(strategies)), max_size=3, unique=True))
    argv = [command, *fixed, *(f"{f}={data.draw(strategies[f], f)}" for f in flags)]
    keys = st.sampled_from(["la", "yb", "d", "primaries"])
    config = data.draw(st.dictionaries(keys, CONFIG_VALUES, max_size=2))
    if config:
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        argv += ["--config", str(path)]
    if command != "solve-optimal":
        argv += ["--out", str(tmp_path / "out")]
    try:
        code = run(argv)
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    assert code in (0, 1, 2) and "Traceback" not in err, (argv, err)
    unread = [f for f in flags if f in SESSION and f not in takes]
    if unread:
        # argparse reports an invalid value of a flag it takes before the unread flags
        assert code == 2, (argv, err)
        named = [f"{f}=" in err.splitlines()[-1] for f in unread]
        assert all(named) or "error: argument --" in err, (argv, err)
    # a solve that misses its tolerance exits 1 with its report and no error
    unconverged = command == "solve-optimal" and out.endswith("converged=False\n")
    if code == 1 and not (unconverged and err == ""):
        assert re.fullmatch(r"error: [^\n]+\n", err), (argv, err)
    if command == "chart" and code == 0:
        # the sidecar records the settings: it must be strict JSON
        sidecar = (tmp_path / "out.meta.json").read_text(encoding="utf-8")
        json.loads(sidecar, parse_constant=_reject_constant)

