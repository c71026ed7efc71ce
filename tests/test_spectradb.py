import random
import re
import tracemalloc
from dataclasses import replace
from itertools import count, repeat
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from colorbench import (
    Chromaticity,
    build_target_set,
    delta_e_xyz,
    illuminant_white,
    load_database,
    load_illuminant,
    load_observer,
    match_csv,
    match_nearest,
    saturated_weights,
    spd_to_xyz,
    synthesize,
    table1_suite,
    target_from_weights,
    to_working_grid,
    xyz_to_chromaticity,
)
from colorbench import spectradb, spectral
from colorbench.spectradb import _BLOCK_RECORDS, LONG_CSV, WIDE_CSV, MatchResult, SpectraTable
from colorbench.spectral import _xyz_distance
from colorbench.targets import REC709_PRIMARIES, point_in_triangle

DATA = Path(__file__).parent / "data"


def spectra_table(rows):
    """A hand-built table of (id, (X, Y, Z) or None, Chromaticity) rows; a
    missing XYZ row is NaN, which ``match_nearest`` does not read."""
    ids, xyzs, xys = zip(*rows)
    xyz = np.array([t if t is not None else (np.nan,) * 3 for t in xyzs])
    return SpectraTable(ids, xyz, np.array([(c.x, c.y, c.z) for c in xys]))


def chromaticity(table, k):
    return Chromaticity(*table.chromaticity[k].tolist())


def spectra_of(path):
    """Each record of a wide database file as (id, wavelengths, samples),
    read without ``load_database``."""
    header, *rows = [line.split(",") for line in Path(path).read_text().splitlines()]
    wavelengths = [float(w) for w in header[1:]]
    return [(row[0], wavelengths, [float(v) for v in row[1:]]) for row in rows]


class TestLoadDatabase:
    def test_wide_fixture(self):
        db = load_database(DATA / "fixture_wide.csv", WIDE_CSV)
        assert len(db) == 4
        assert db.ids == ("perfect", "gray40", "brick", "leaf")
        assert db.xyz.shape == db.chromaticity.shape == (4, 3)
        assert db.xyz.dtype == db.chromaticity.dtype == np.float64
        for column in (db.xyz, db.chromaticity):
            with pytest.raises(ValueError, match="read-only"):
                column[0, 0] = 1.0

    def test_long_fixture(self):
        db = load_database(DATA / "fixture_long.csv", LONG_CSV)
        assert db.ids == ("gray40", "brick")

    def test_perfect_reflector_caches_illuminant_white(self):
        db = load_database(DATA / "fixture_wide.csv", WIDE_CSV)
        x, y, _ = db.chromaticity[0]
        w = illuminant_white("D65")
        # support is clipped to 380-730, so the cached point sits within a
        # whisker of the full-range white
        assert x == pytest.approx(w.x, abs=2e-4)
        assert y == pytest.approx(w.y, abs=2e-4)

    def test_full_grid_perfect_reflector_is_exactly_illuminant_white(self, tmp_path):
        wls = ",".join(str(w) for w in range(360, 721, 5))
        ones = ",".join("1.0" for _ in range(360, 721, 5))
        p = tmp_path / "white.csv"
        p.write_text(f"id,{wls}\nwhite,{ones}\n")
        db = load_database(p, WIDE_CSV)
        w = illuminant_white("D65")
        assert delta_e_xyz(chromaticity(db, 0), w) < 1e-12

    def test_gray_and_white_share_chromaticity(self):
        db = load_database(DATA / "fixture_wide.csv", WIDE_CSV)
        assert delta_e_xyz(chromaticity(db, 0), chromaticity(db, 1)) < 1e-12

    def test_cached_xy_matches_recomputation(self):
        db = load_database(DATA / "fixture_wide.csv", WIDE_CSV)
        for k, (rid, wavelengths, samples) in enumerate(spectra_of(DATA / "fixture_wide.csv")):
            assert db.ids[k] == rid
            xyz = spd_to_xyz(to_working_grid(wavelengths, samples))
            assert tuple(db.xyz[k].tolist()) == xyz
            fresh = xyz_to_chromaticity(xyz)
            assert delta_e_xyz(fresh, chromaticity(db, k)) < 1e-14

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_database(tmp_path / "nope.csv", WIDE_CSV)

    def test_empty_file(self, tmp_path):
        p = tmp_path / "empty.csv"
        p.write_text("")
        with pytest.raises(ValueError, match="empty"):
            load_database(p, WIDE_CSV)

    def test_negative_reflectance_names_line(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("id,400,500,600\nok,0.1,0.2,0.3\nbad,0.1,-0.2,0.3\n")
        with pytest.raises(ValueError, match="line 3"):
            load_database(p, WIDE_CSV)

    def test_malformed_row_names_line(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("id,400,500,600\nok,0.1,0.2\n")
        with pytest.raises(ValueError, match="line 2"):
            load_database(p, WIDE_CSV)

    def test_duplicate_id_rejected(self, tmp_path):
        p = tmp_path / "dup.csv"
        p.write_text("id,400,500,600\na,0.1,0.2,0.3\na,0.2,0.3,0.4\n")
        with pytest.raises(ValueError, match="duplicate"):
            load_database(p, WIDE_CSV)

    def test_long_duplicate_id_rejected(self, tmp_path):
        p = tmp_path / "dup.csv"
        p.write_text(
            "id,wavelength_nm,value\na,400,0.1\na,500,0.2\nb,400,0.1\na,600,0.3\n"
        )
        with pytest.raises(ValueError, match="duplicate"):
            load_database(p, LONG_CSV)

    def test_long_non_increasing_wavelengths(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("id,wavelength_nm,value\na,500,0.1\na,400,0.2\n")
        with pytest.raises(ValueError, match="line 3"):
            load_database(p, LONG_CSV)

    @pytest.mark.parametrize(
        "fmt, text, line, message",
        [
            (WIDE_CSV, "id,400,nan,600\na,0.1,0.2,0.3\n", 1, "numbers must be finite"),
            (WIDE_CSV, "# c\nid,400,400,600\na,0.1,0.2,0.3\n", 2, "strictly increasing"),
            (WIDE_CSV, "id,400,500\na,0.1,0.2\n\nb,0.1,0.2\na,0.1,0.2\n", 5, "record id 'a'"),
            (WIDE_CSV, "id,400,500\nblack,0,0\n", 2, "record 'black': cannot normalize"),
            (LONG_CSV, "id,wavelength_nm,value\na,400,0.1\na,nan,0.2\n", 3, "must be finite"),
            (LONG_CSV, "id,wavelength_nm,value\na,400,0.1\nb,400,0.1\nb,300,0.1\n", 4, "strictly"),
            (LONG_CSV, "id,wavelength_nm,value\na,400,0.1\na,500,-0.1\n", 3, "non-negative"),
            (LONG_CSV, "id,wavelength_nm,value\na,400,0.1\nb,400,0.1\na,500,0.1\n", 4, "duplicate"),
            (LONG_CSV, "id,wavelength_nm,value\na,400,0.1\nb,800,0.1\n", 3, "record 'b'"),
        ],
    )
    def test_errors_name_the_line(self, tmp_path, fmt, text, line, message):
        p = tmp_path / "db.csv"
        p.write_text(text)
        with pytest.raises(ValueError, match=f"^{re.escape(str(p))}: line {line}: ") as exc:
            load_database(p, fmt)
        assert message in str(exc.value)

    def test_comments_and_blank_lines_change_nothing(self, tmp_path):
        text = (DATA / "fixture_long.csv").read_text()
        p = tmp_path / "db.csv"
        p.write_text("# a comment\n" + text.replace("\n", "\n\n"))
        plain = load_database(DATA / "fixture_long.csv", LONG_CSV)
        spaced = load_database(p, LONG_CSV)
        assert spaced.ids == plain.ids
        assert spaced.xyz.tolist() == plain.xyz.tolist()
        assert spaced.chromaticity.tolist() == plain.chromaticity.tolist()

    @pytest.mark.parametrize("block_chars", [1, 7, 64, None])
    def test_record_straddling_blocks_is_one_record(self, tmp_path, monkeypatch, block_chars):
        rows = [f"{rid},{w},0.{w // 100}" for rid in ("a", "b") for w in (400, 500, 600)]
        p = tmp_path / "db.csv"
        p.write_text("\r\n".join(["id,wavelength_nm,value", *rows]) + "\r\n")
        one_block = load_database(p, LONG_CSV)
        text = p.read_bytes().decode()
        # None: the first block's end is sought from inside the "\r\n" of a's second row
        size = text.index("a,500") + len("a,500,0.5\r") + 1 if block_chars is None else block_chars
        monkeypatch.setattr(spectral, "_BLOCK_CHARS", size)
        blocks = [lines for _, lines in spectral._line_blocks(text)]
        # some record's rows end one block and start the next
        assert any(a[-1][:2] == b[0][:2] for a, b in zip(blocks, blocks[1:]))
        table = load_database(p, LONG_CSV)
        assert table.ids == one_block.ids == ("a", "b")
        assert table.xyz.tobytes() == one_block.xyz.tobytes()
        assert list(spectral.read_csv(p, "id,wavelength_nm,value").lines) == list(range(2, 8))

    @pytest.mark.parametrize("block_chars", [1, 7, 64, 2**17])
    @pytest.mark.parametrize(
        "fmt, text, line",
        [
            (LONG_CSV, "id,wavelength_nm,value\n\n  \n\t\r\n", 5),
            (LONG_CSV, "# c\r\nid,wavelength_nm,value\r\n\r\n\r\n", 5),
            (WIDE_CSV, "id,400,500\n\n\n", 4),
            (WIDE_CSV, "id,400,500\n \t\x1f\xa0\u3000\n\u2000\u202f\u205f\n", 4),
            (LONG_CSV, "id,wavelength_nm,value\n\x1f\x1f\r\n\t\u3000 \r\n\n", 5),
        ],
    )
    def test_all_blank_body_names_the_line_after_the_file(
        self, tmp_path, monkeypatch, block_chars, fmt, text, line
    ):
        monkeypatch.setattr(spectral, "_BLOCK_CHARS", block_chars)
        p = tmp_path / "db.csv"
        p.write_text(text, encoding="utf-8", newline="")
        message = f"^{re.escape(str(p))}: line {line}: expected at least one row after the header$"
        with pytest.raises(ValueError, match=message):
            load_database(p, fmt)

    def test_unknown_format(self):
        with pytest.raises(ValueError, match="format"):
            load_database(DATA / "fixture_wide.csv", "tall_csv")

    @given(
        st.sampled_from([WIDE_CSV, LONG_CSV]),
        st.lists(
            st.lists(st.integers(360, 720), min_size=2, max_size=40, unique=True).map(sorted),
            min_size=1,
            max_size=12,
        ),
        st.randoms(use_true_random=False),
        st.sampled_from(["D65", "E"]),
        st.sampled_from(["degree2", "degree10"]),
    )
    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_table_rows_equal_the_per_record_path(self, tmp_path, fmt, grids, rnd, ill, obs_id):
        # a wide file shares the first record's wavelengths; a long one keeps each record's
        if fmt == WIDE_CSV:
            grids = [grids[0]] * len(grids)
        records = [
            (f"r{k}_{rnd.randrange(10**6)}", grid, [rnd.uniform(0.01, 2.0) for _ in grid])
            for k, grid in enumerate(grids)
        ]
        if fmt == WIDE_CSV:
            lines = ["id," + ",".join(map(str, grids[0]))]
            lines += [",".join([rid, *map(repr, values)]) for rid, _, values in records]
        else:
            lines = ["id,wavelength_nm,value"]
            lines += [f"{rid},{w},{v!r}" for rid, grid, values in records for w, v in zip(grid, values)]
        path = tmp_path / "db.csv"
        path.write_text("\n".join(lines) + "\n")
        illuminant, obs = load_illuminant(ill), load_observer(obs_id)
        table = load_database(path, fmt, illuminant, obs)
        assert len(table) == len(records)
        assert table.ids == tuple(rid for rid, _, _ in records)
        assert not table.xyz.flags.writeable and not table.chromaticity.flags.writeable
        for k, (_, grid, values) in enumerate(records):
            xyz = spd_to_xyz(to_working_grid(grid, values), illuminant, obs)
            xy = xyz_to_chromaticity(xyz)
            assert tuple(table.xyz[k].tolist()) == xyz
            assert table.chromaticity[k].tolist() == [xy.x, xy.y, xy.z]


def reference_load_database(path, fmt, illuminant=None, obs=None):
    """``load_database`` as a per-record loop: each record resampled to a
    checked spectrum, integrated and projected by ``xyz_to_chromaticity``,
    every error raised at its record.  Returns the ids and the (n, 6) rows."""
    if fmt == WIDE_CSV:
        table = spectral.read_csv(path, "id", numeric_columns=True)
        spectral.check_samples(table)
        starts = range(len(table.ids))
        records = ((table.columns, row) for row in table.values)
    else:
        table = spectral.read_csv(path, "id,wavelength_nm,value")
        ids = table.ids
        starts = [0] + [k for k in range(1, len(ids)) if ids[k] != ids[k - 1]]
        spectral.check_samples(table, starts)
        ends = [*starts[1:], len(ids)]
        records = (table.values[a:b].T for a, b in zip(starts, ends))
    seen, rows = set(), []
    with np.errstate(over="ignore"):
        for k, (wavelengths, samples) in zip(starts, records):
            rid, line = table.ids[k], table.lines[k]
            if rid in seen:
                raise spectral.line_error(path, line, f"duplicate record id {rid!r}")
            seen.add(rid)
            try:
                xyz = spd_to_xyz(to_working_grid(wavelengths, samples), illuminant, obs)
                xy = xyz_to_chromaticity(xyz)
            except ValueError as exc:
                raise spectral.line_error(path, line, f"record {rid!r}: {exc}") from None
            rows.append((*xyz, xy.x, xy.y, xy.z))
    return tuple(table.ids[k] for k in starts), np.array(rows)


def write_database(path, fmt, wavelengths, records):
    """Write ``(id, samples)`` records in a layout, one line per record or sample."""
    if fmt == WIDE_CSV:
        lines = ["id," + ",".join(map(str, wavelengths))]
        lines += [",".join([rid, *map(repr, values)]) for rid, values in records]
    else:
        lines = ["id,wavelength_nm,value"]
        lines += [f"{rid},{w},{v!r}" for rid, values in records for w, v in zip(wavelengths, values)]
    path.write_text("\n".join(lines) + "\n")


@pytest.mark.parametrize("ill, obs_id", [("D65", "degree2"), ("E", "degree10")])
@pytest.mark.parametrize(
    "fmt, grid, n", [(WIDE_CSV, (380, 780, 5), 400), (LONG_CSV, (360, 720, 1), 60)]
)
def test_tables_equal_the_per_record_loop(tmp_path, fmt, grid, n, ill, obs_id):
    rng = np.random.default_rng(25)
    wl = np.arange(grid[0], grid[1] + 1, grid[2])
    values = rng.uniform(0.0, 0.2, (n, 1)) + np.zeros((n, wl.size))
    for _ in range(3):  # smooth bands, and records dark over most of the grid
        centre, width = rng.uniform(380, 720, (n, 1)), rng.uniform(5, 80, (n, 1))
        values += rng.uniform(0.0, 0.8, (n, 1)) * np.exp(-0.5 * ((wl - centre) / width) ** 2)
    values[::7] *= wl > rng.uniform(400, 700)
    path = tmp_path / "db.csv"
    write_database(path, fmt, wl, [(f"r{k:04d}", row) for k, row in enumerate(values.tolist())])
    illuminant, obs = load_illuminant(ill), load_observer(obs_id)
    table = load_database(path, fmt, illuminant, obs)
    ids, rows = reference_load_database(path, fmt, illuminant, obs)
    assert table.ids == ids
    assert table.xyz.view(np.int64).tolist() == rows[:, :3].view(np.int64).tolist()
    assert table.chromaticity.view(np.int64).tolist() == rows[:, 3:].view(np.int64).tolist()


# (id, samples at 400, 500 and 600 nm) of records that load_database rejects
_GOOD = [("g0", (0.1, 0.2, 0.3)), ("g1", (0.4, 0.5, 0.6))]
_BAD_RECORDS = {
    "zero sum": (("z", (0.0, 0.0, 0.0)), "record 'z': cannot normalize a zero-sum tristimulus"),
    "duplicate": (_GOOD[0], "duplicate record id 'g0'"),
    "overflow": (
        ("o", (1e308, 1e308, 1e308)), "record 'o': tristimulus components must be finite"
    ),
}


@pytest.mark.parametrize("fmt", [WIDE_CSV, LONG_CSV])
@pytest.mark.parametrize(
    "first, second",
    [("zero sum", "duplicate"), ("duplicate", "zero sum"),
     ("zero sum", "overflow"), ("overflow", "zero sum")],
)
def test_the_earlier_of_two_bad_records_is_named(tmp_path, fmt, first, second):
    # whatever the check that finds each record, the file order decides
    (bad, message), (later, _) = _BAD_RECORDS[first], _BAD_RECORDS[second]
    records = [_GOOD[0], _GOOD[1], bad, ("g2", (0.2, 0.2, 0.2)), later]
    path = tmp_path / "db.csv"
    write_database(path, fmt, (400, 500, 600), records)
    line = 4 if fmt == WIDE_CSV else 2 + 3 * 2
    with pytest.raises(ValueError, match=f"^{re.escape(f'{path}: line {line}: {message}')}$"):
        load_database(path, fmt)
    with pytest.raises(ValueError, match=f"^{re.escape(f'{path}: line {line}: {message}')}$"):
        reference_load_database(path, fmt)


_FAULTS = ("duplicate", "sub-nm overflow", "zero sum", "chromaticity")
# every sample of the record whose tristimulus is replaced by one whose
# chromaticity lies outside [0, 1]; the other records' samples stay below it
_MARK = 0.75


def _load_outcome(load, path, fmt):
    """The ids and the int64 views of the XYZ and chromaticity rows ``load``
    gives, or the message it raised."""
    try:
        ids, rows = load(path, fmt)
    except ValueError as exc:
        return str(exc)
    return ids, rows[:, :3].view(np.int64).tolist(), rows[:, 3:].view(np.int64).tolist()


def _table_rows(path, fmt):
    table = load_database(path, fmt)
    return table.ids, np.hstack([table.xyz, table.chromaticity])


@given(
    st.sampled_from([WIDE_CSV, LONG_CSV]),
    st.integers(_BLOCK_RECORDS - 1, 3 * _BLOCK_RECORDS + 1),
    st.dictionaries(
        st.sampled_from(_FAULTS),
        st.tuples(st.integers(0, 3), st.sampled_from(["first", "mid", "last"])),
    ),
    st.integers(0, 2**32 - 1),
)
@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
# two bad records in one block that the same check finds: the first is named
@example(LONG_CSV, 2 * _BLOCK_RECORDS + 1, {"zero sum": (1, "first"), "chromaticity": (1, "last")}, 0)
@example(WIDE_CSV, _BLOCK_RECORDS - 1, {"duplicate": (0, "mid"), "sub-nm overflow": (0, "last")}, 1)
def test_blocks_load_as_the_per_record_loop(tmp_path, monkeypatch, fmt, n, faults, seed):
    rnd = random.Random(seed)  # the records' values and grids
    # one bad record of a kind at most, first, mid or last in one of the blocks
    blocks = -(-n // _BLOCK_RECORDS)
    at = {}
    for kind, (block, place) in faults.items():
        first = block % blocks * _BLOCK_RECORDS
        last = min(first + _BLOCK_RECORDS, n) - 1
        at[kind] = {"first": first, "mid": (first + last) // 2, "last": last}[place]
    grid = sorted(rnd.sample(range(405, 721, 5), 12))
    if "sub-nm overflow" in at:  # two wavelengths less than 1 nm apart
        grid = [399.9, 400.1, *grid]
    records = []
    for k in range(n):
        # a long file's records each have their own wavelengths
        wl = grid if fmt == WIDE_CSV else sorted(rnd.sample(range(360, 721), rnd.randint(2, 30)))
        records.append([f"r{k}_{rnd.randrange(10**4)}", wl, [rnd.uniform(0.01, 0.6) for _ in wl]])
    if "sub-nm overflow" in at:
        k = at["sub-nm overflow"]
        if fmt == LONG_CSV:
            records[k][1] = [399.9, 400.1, *(w for w in records[k][1] if w > 400.1)]
        records[k][2] = [1e308, 0.0, *records[k][2][2 : len(records[k][1])]]
        records[k][2] += [0.5] * (len(records[k][1]) - len(records[k][2]))
    if "zero sum" in at:
        records[at["zero sum"]][2] = [0.0] * len(records[at["zero sum"]][1])
    if "chromaticity" in at:
        records[at["chromaticity"]][2] = [_MARK] * len(records[at["chromaticity"]][1])
    if "duplicate" in at:
        k = max(at["duplicate"], 1)
        records[k][0] = records[k - 1][0]
    if fmt == WIDE_CSV:
        lines = ["id," + ",".join(map(str, grid))]
        lines += [",".join([rid, *map(repr, values)]) for rid, _, values in records]
    else:
        lines = ["id,wavelength_nm,value"]
        lines += [f"{rid},{w},{v!r}" for rid, wl, values in records for w, v in zip(wl, values)]
    path = tmp_path / "db.csv"
    path.write_text("\n".join(lines) + "\n")

    real = spd_to_xyz

    def faked(spd, illuminant=None, obs=None):
        # no file reaches a chromaticity out of range through the real,
        # clamped integration: fake the marked record's tristimulus
        return (-1.0, 2.0, 1.0) if spd.values.max() == _MARK else real(spd, illuminant, obs)

    with monkeypatch.context() as mp:
        mp.setattr(spectradb, "spd_to_xyz", faked)
        mp.setitem(globals(), "spd_to_xyz", faked)
        got = _load_outcome(_table_rows, path, fmt)
        expected = _load_outcome(reference_load_database, path, fmt)
    assert got == expected
    assert isinstance(got, str) == bool(faults)


@pytest.mark.parametrize("samples", ["1e308,0", "0,1e308"])
def test_a_resampled_record_that_overflows_is_not_finite(tmp_path, samples):
    # finite, non-negative samples less than 1 nm apart: interpolating onto
    # the 1 nm grid overflows to an infinity, which the resampled spectrum's
    # own check reports at the record
    path = tmp_path / "db.csv"
    path.write_text(f"id,399.9,400.1\na,{samples}\n")
    message = f"{path}: line 2: record 'a': spectral samples must be finite"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        load_database(path, WIDE_CSV)


# ((first, last, step) in nm, records) of the benchmark's databases
_BENCH_DATABASES = {
    WIDE_CSV: [((380, 780, 5), 420), ((400, 700, 10), 440), ((360, 720, 1), 220)],
    LONG_CSV: [((380, 780, 5), 220), ((400, 700, 10), 310), ((360, 720, 1), 70)],
}
# warm tracemalloc peak over file size on the benchmark's databases at seeds
# 1-3: 2.20-3.74 wide (the top is a file of one block, whose lines are all
# held) and 2.67-4.21 long (the top is a file of two blocks), so the bounds are
# about 1.3x that.  Holding a string for every line of the file at once takes
# 3.14-3.80 wide and 9.90-10.18 long
_PEAK_PER_BYTE = {WIDE_CSV: 4.9, LONG_CSV: 5.5}


@pytest.mark.parametrize("fmt", [WIDE_CSV, LONG_CSV])
def test_load_database_peak_memory_per_input_byte(tmp_path, fmt):
    rng = np.random.default_rng(18)
    for (first, last, step), n in _BENCH_DATABASES[fmt]:
        wl = np.arange(first, last + 1, step)
        rows = rng.uniform(0.0, 1.0, (n, wl.size))
        ids = [f"s18_{step}nm_{k:05d}" for k in range(n)]  # the benchmark's id form
        path = tmp_path / f"{fmt}_{step}nm.csv"
        with open(path, "w", encoding="utf-8") as fh:
            if fmt == WIDE_CSV:
                fh.write("id," + ",".join(map(str, wl)) + "\n")
                fh.writelines(rid + "," + ",".join(f"{v:.6f}" for v in row) + "\n"
                              for rid, row in zip(ids, rows))
            else:
                fh.write("id,wavelength_nm,value\n")
                for rid, row in zip(ids, rows):
                    fh.writelines(f"{rid},{w},{v:.6f}\n" for w, v in zip(wl, row))
        load_database(path, fmt)  # the tables and caches a load fills once
        tracemalloc.start()
        try:
            table = load_database(path, fmt)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(table.ids) == n
        assert peak <= _PEAK_PER_BYTE[fmt] * path.stat().st_size, path.name


class TestMatchNearest:
    def test_empty_database_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            empty = SpectraTable((), np.empty((0, 3)), np.empty((0, 3)))
            match_nearest([target_from_weights((1, 0, 0), "R")], empty)

    def test_exact_hit_has_zero_error(self):
        target = target_from_weights((0.4, 0.4, 0.4), "gray")
        db = load_database(DATA / "fixture_wide.csv", WIDE_CSV)
        result = match_nearest([target], db)[0]
        assert result.record_id in ("perfect", "gray40")
        assert result.delta_e == pytest.approx(0.0, abs=2e-4)

    def test_three_record_hand_oracle(self):
        # distances computed by hand against target R (0.64, 0.33, 0.03):
        # a: (0.62, 0.33)  -> sqrt(0.02^2 + 0 + 0.02^2)   = 0.02828
        # b: (0.60, 0.35)  -> sqrt(0.04^2 + 0.02^2 + 0.02^2) = 0.04899
        # c: (0.64, 0.30)  -> sqrt(0 + 0.03^2 + 0.03^2)   = 0.04243
        target = target_from_weights((1, 0, 0), "R")
        recs = spectra_table(
            (rid, None, Chromaticity.from_xy(*xy))
            for rid, xy in (("a", (0.62, 0.33)), ("b", (0.60, 0.35)), ("c", (0.64, 0.30)))
        )
        result = match_nearest([target], recs)[0]
        assert result.record_id == "a"
        assert result.delta_e == pytest.approx(0.02828, abs=1e-4)

    def test_tie_breaks_lexicographically(self):
        target = target_from_weights((1, 1, 1), "W")
        xy = Chromaticity.from_xy(0.40, 0.40)
        recs = spectra_table((rid, None, xy) for rid in ("zeta", "alpha", "mu"))
        result = match_nearest([target], recs)[0]
        assert result.record_id == "alpha"

    def test_equal_keys_keep_the_first_record(self):
        # both records lie exactly 0.25 * sqrt(2) from the target
        target = SimpleNamespace(name="t", chromaticity=Chromaticity(0.25, 0.25, 0.5))
        recs = [("a", None, Chromaticity(*xyz)) for xyz in ((0.5, 0.25, 0.25), (0.25, 0.5, 0.25))]
        for rows in (recs, recs[::-1]):
            result = match_nearest([target], spectra_table(rows))[0]
            assert (result.x_spectral, result.y_spectral) == (rows[0][2].x, rows[0][2].y)

    def test_matches_naive_scan_on_random_databases(self):
        rng = np.random.RandomState(123)
        targets = build_target_set()
        for _ in range(10):
            recs = []
            for i in range(rng.randint(5, 120)):
                x = rng.uniform(0.05, 0.6)
                y = rng.uniform(0.05, min(0.8, 0.95 - x))
                recs.append((f"r{i:03d}", None, Chromaticity.from_xy(x, y)))
            got = match_nearest(targets, spectra_table(recs))
            for target, res in zip(targets, got):
                tc = target.chromaticity
                best = None
                for rid, _, xy in recs:  # independent brute force
                    d = delta_e_xyz(tc, xy)
                    if best is None or d < best[0] or (d == best[0] and rid < best[1]):
                        best = (d, rid)
                assert (res.delta_e, res.record_id) == best

    @staticmethod
    def scan_nearest(targets, table):
        """The per-pair scan the array search replaced: for each target the
        min over (delta_e, id, index) of every record."""
        xys, ids = table.chromaticity.tolist(), table.ids
        results = []
        for target in targets:
            tc = target.chromaticity
            delta_e, rid, k = min(zip(map(_xyz_distance, repeat((tc.x, tc.y, tc.z)), xys), ids, count()))
            results.append(MatchResult(target.name, rid, xys[k][0], xys[k][1], delta_e))
        return results

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_equals_the_scan_with_forced_ties(self, data):
        xy = st.tuples(st.floats(0.0, 0.5), st.floats(0.0, 0.5))
        pool = data.draw(st.lists(xy, min_size=1, max_size=5))
        # records drawn from a small pool, some with x and y swapped, under
        # few ids: equal points, equal ids and, around a target with x == y,
        # distinct points at exactly equal distances
        rows = data.draw(st.lists(
            st.tuples(st.sampled_from("abcd"), st.sampled_from(pool), st.booleans()),
            min_size=1, max_size=30,
        ))
        table = spectra_table(
            (rid, None, Chromaticity.from_xy(*(p[::-1] if swap else p))) for rid, p, swap in rows
        )
        diagonal = st.floats(0.0, 0.5).map(lambda v: (v, v))
        points = data.draw(st.lists(st.one_of(st.sampled_from(pool), diagonal, xy), min_size=1, max_size=6))
        targets = [
            SimpleNamespace(name=f"t{i}", chromaticity=Chromaticity.from_xy(*p))
            for i, p in enumerate(points)
        ]
        assert match_nearest(targets, table) == self.scan_nearest(targets, table)

    def test_distance_is_the_scans_to_the_last_bit(self):
        # Python's ** 2 (the C library's pow) and d * d round this distance
        # differently: 0.35646270492156673 against ...668
        target = SimpleNamespace(name="t", chromaticity=Chromaticity.from_xy(0.1247, 0.2311))
        table = spectra_table([("a", None, Chromaticity.from_xy(0.1309, 0.48))])
        assert match_nearest([target], table) == self.scan_nearest([target], table)

    def test_results_follow_target_order(self):
        db = load_database(DATA / "fixture_wide.csv", WIDE_CSV)
        targets = build_target_set()
        results = match_nearest(targets, db)
        assert [r.target_name for r in results] == [t.name for t in targets]

    def test_csv_format(self):
        db = load_database(DATA / "fixture_wide.csv", WIDE_CSV)
        results = match_nearest(build_target_set()[:2], db)
        lines = match_csv(results).splitlines()
        assert lines[0] == "target,x_spectral,y_spectral,color_id,delta_e"
        assert len(lines) == 3
        fields = lines[1].split(",")
        assert fields[0] == "R"
        float(fields[1]), float(fields[2]), float(fields[4])


@pytest.fixture(scope="module")
def optimal_spectra_db():
    """The ten solved rectangle spectra as a database."""
    from colorbench.optimal import TABLE1_COLUMNS

    records = []
    for (name, _, _), report in zip(TABLE1_COLUMNS, table1_suite()):
        xyz = spd_to_xyz(synthesize(replace(report.params, K=1.0)))
        records.append((name, xyz, xyz_to_chromaticity(xyz)))
    return spectra_table(records)


class TestSelfMatch:
    def test_identity(self, optimal_spectra_db):
        from colorbench.optimal import TABLE1_COLUMNS

        targets = [target_from_weights(w, name) for name, w, _ in TABLE1_COLUMNS]
        results = match_nearest(targets, optimal_spectra_db)
        for t, r in zip(targets, results):
            assert r.record_id == t.name

    def test_converged_columns_match_tightly(self, optimal_spectra_db):
        from colorbench.optimal import TABLE1_COLUMNS

        targets = {name: target_from_weights(w, name) for name, w, _ in TABLE1_COLUMNS}
        results = {
            r.target_name: r
            for r in match_nearest(list(targets.values()), optimal_spectra_db)
        }
        for name in ("R", "G", "B", "M", "R05", "G05", "B05", "WW"):
            assert results[name].delta_e <= 1e-5


class TestBuildTargetSet:
    def test_sixteen_entries(self):
        ts = build_target_set()
        assert len(ts) == 16
        assert len({t.name for t in ts}) == 16

    def test_composition(self):
        names = [t.name for t in build_target_set()]
        assert names[:6] == ["R", "G", "B", "C", "M", "Ye"]
        assert names[6:12] == ["R_0.9", "G_0.9", "B_0.9", "C_0.9", "M_0.9", "Ye_0.9"]
        assert names[12:15] == ["R_0.5", "G_0.5", "B_0.5"]
        assert names[15] == "W"

    def test_half_saturated_red_weights(self):
        assert saturated_weights((1.0, 0.0, 0.0), 0.5) == pytest.approx(
            (0.667, 0.167, 0.167), abs=5e-4
        )

    def test_pure_green(self):
        ts = {t.name: t for t in build_target_set()}
        g = ts["G"]
        assert g.rgb_weights == (0.0, 1.0, 0.0)
        assert (g.x, g.y) == pytest.approx((0.30, 0.60), abs=1e-12)

    def test_half_saturated_red_chromaticity(self):
        ts = {t.name: t for t in build_target_set()}
        assert (ts["R_0.5"].x, ts["R_0.5"].y) == pytest.approx(
            (0.4403, 0.3293), abs=1e-3
        )

    def test_all_inside_gamut_and_saturated_on_boundary(self):
        for t in build_target_set():
            assert point_in_triangle(t.chromaticity, REC709_PRIMARIES)
        for name in ("R", "G", "B", "C", "M", "Ye"):
            t = next(x for x in build_target_set() if x.name == name)
            assert not point_in_triangle(t.chromaticity, REC709_PRIMARIES, tol=-1e-6)

    def test_saturation_out_of_range(self):
        with pytest.raises(ValueError):
            saturated_weights((1, 0, 0), 1.2)
