"""Tests of the benchmark itself: seeded inputs, tracer completeness, output
checks and the result contract.

    python3 -m pytest bench/test_bench.py -q
"""
from __future__ import annotations

import json
import shutil
import struct
import subprocess
import sys
import zlib
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import inputs  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402
from tracer import Tracer  # noqa: E402

import colorbench.cli as cli  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def col():
    return oracle.Colorimetry(run.SRC / "colorbench" / "data")


def test_inputs_repeat_for_a_seed(col, tmp_path):
    assert inputs.solve_targets(5, col) == inputs.solve_targets(5, col)
    assert inputs.solve_targets(5, col) != inputs.solve_targets(6, col)
    assert inputs.atlas_draws(5) == inputs.atlas_draws(5) != inputs.atlas_draws(6)
    a, b = tmp_path / "a", tmp_path / "b"
    a.mkdir(), b.mkdir()
    for da, db in zip(inputs.write_databases(5, a), inputs.write_databases(5, b)):
        assert da.path.read_bytes() == db.path.read_bytes()


def test_solve_pass_mixes_reference_and_random_targets(col):
    targets = inputs.solve_targets(1, col)
    assert [t.name for t in targets[:10]] == [c[0] for c in inputs.TABLE1_COLUMNS]
    assert all(t.genus == "auto" and 0.0 < t.L_C <= 1.0 for t in targets[10:])


def test_oracle_agrees_with_the_package(col):
    from colorbench.optimal import OptimalSpectrumParams, synthesize
    from colorbench.targets import target_from_weights

    t = target_from_weights((0.2, 0.5, 0.9))
    x, y, lc = col.target((0.2, 0.5, 0.9))
    assert abs(t.x - x) < 1e-14 and abs(t.y - y) < 1e-14 and abs(t.L_C - lc) < 1e-14
    for genus, l1, l2 in (("band_pass", 433.3, 611.7), ("band_stop", 360.0, 719.6), ("band_pass", 500.0, 720.0)):
        ref = synthesize(OptimalSpectrumParams(genus, l1, l2)).values
        np.testing.assert_array_equal(oracle.rectangle(genus, l1, l2), ref)


def _trace_ops(workload, work, ops):
    tracer = Tracer()
    results = []
    for i in ops:
        tracer.op = i
        tracer.install()
        try:
            results.append(run.run_op(cli, i, workload.argvs(i, work), workload.ok_codes))
        finally:
            tracer.uninstall()
    return tracer, results


@pytest.mark.parametrize("name", ["solve", "atlas-chart", "db-match"])
def test_tracer_completeness(name, col, tmp_path):
    workload = run.WORKLOADS[name](3, tmp_path, col)
    if name == "atlas-chart":  # two of the cheaper spacing-2 draws
        ops = [i for i, d in enumerate(workload.draws) if d.spacing == 2.0][:2]
    else:  # includes a repeat of op 0's input for db-match
        ops = [0, 1, 12]
    tracer, results = _trace_ops(workload, tmp_path, ops)
    for res in results:
        assert workload.check(res, tmp_path) == []
    assert run.completeness_problems(name, tracer, results) == []
    spans = tracer.op_spans()
    for i in ops:
        s, c = spans[i], tracer.counts[i]
        if name == "solve":
            assert s["optimal.synthesize"] >= c["nm_iterations"] > 0
        else:
            assert s["chart.render_chart"] == 1
        if name == "atlas-chart":
            assert s["cam16.cam16_inverse"] == c["candidates"] > 0
            assert s["cam16.cam16_forward"] == c["points"] > 0
    if name == "db-match":
        per_load = tracer.integrations_per_load()
        assert len(per_load) == 2 * len(ops)
        assert all(calls == records > 0 for calls, records in per_load)


def test_tracer_rebinds_every_alias_and_restores_them():
    import colorbench.optimal
    import colorbench.spectral

    original, generate_atlas = colorbench.spectral.spd_to_xyz, cli.generate_atlas
    tracer = Tracer()
    tracer.install()
    try:
        assert colorbench.optimal.spd_to_xyz is colorbench.spectral.spd_to_xyz is not original
        assert colorbench.optimal.minimize.__wrapped__.__module__.startswith("scipy")
        assert cli.generate_atlas.__wrapped__ is generate_atlas
    finally:
        tracer.uninstall()
    assert colorbench.spectral.spd_to_xyz is original is colorbench.optimal.spd_to_xyz
    assert cli.generate_atlas is colorbench.atlas.generate_atlas
    assert not hasattr(cli.generate_atlas, "__wrapped__")


def test_self_time_excludes_children():
    tracer = Tracer()
    tracer.spans += [("a", -1, 0, 0, 10_000), ("b", 0, 0, 1_000, 4_000), ("c", 1, 0, 2_000, 3_000)]
    total, own = tracer.times()
    assert total["a"] == pytest.approx(1e-5) and own["a"] == pytest.approx(7e-6)
    assert own["b"] == pytest.approx(2e-6) and own["c"] == pytest.approx(1e-6)


def test_solve_check_catches_a_wrong_report(col, tmp_path):
    workload = run.SolveWorkload(1, tmp_path, col)
    res = run.run_op(cli, 0, workload.argvs(0, tmp_path), workload.ok_codes)
    assert workload.check(res, tmp_path) == []
    rep = json.loads(res.stdout[0])
    for key, value in (("delta_e", rep["delta_e"] + 1e-6), ("K", rep["K"] * 1.001), ("lambda1_nm", rep["lambda1_nm"] + 4)):
        fresh = run.SolveWorkload(1, tmp_path, col)  # no earlier output to compare against
        bad = run.OpResult(0, 0.0, [0], [json.dumps({**rep, key: value})], [""])
        assert fresh.check(bad, tmp_path), key


def _png(image: np.ndarray, filt: int) -> bytes:
    """Encode with one PNG filter type on every row (reference encoder)."""
    raw_rows = image.astype(">u2").reshape(image.shape[0], -1).view(np.uint8).astype(int)
    out, prev = b"", np.zeros(raw_rows.shape[1], dtype=int)
    for row in raw_rows:
        a = np.concatenate([np.zeros(6, dtype=int), row[:-6]])
        c = np.concatenate([np.zeros(6, dtype=int), prev[:-6]])
        p = a + prev - c
        pa, pb, pc = abs(p - a), abs(p - prev), abs(p - c)
        paeth = np.where((pa <= pb) & (pa <= pc), a, np.where(pb <= pc, prev, c))
        pred = [0, a, prev, (a + prev) // 2, paeth][filt]
        out += bytes([filt]) + bytes(((row - pred) % 256).astype(np.uint8))
        prev = row

    def chunk(kind, data):
        return struct.pack(">I", len(data)) + kind + data + struct.pack(">I", zlib.crc32(kind + data))

    h, w = image.shape[:2]
    ihdr = struct.pack(">IIBBBBB", w, h, 16, 2, 0, 0, 0)
    return b"\x89PNG\r\n\x1a\n" + chunk(b"IHDR", ihdr) + chunk(b"IDAT", zlib.compress(out)) + chunk(b"IEND", b"")


@pytest.mark.parametrize("filt", range(5))
def test_png_reader_handles_every_filter(filt):
    image = np.random.default_rng(filt).integers(0, 65536, (5, 7, 3))
    np.testing.assert_array_equal(oracle.read_png_rgb16(_png(image, filt)), image)


def test_png_reader_rejects_a_bad_crc():
    data = bytearray(_png(np.zeros((2, 2, 3), dtype=int), 0))
    data[-20] ^= 1  # inside the IDAT payload
    with pytest.raises(ValueError, match="CRC"):
        oracle.read_png_rgb16(bytes(data))


def test_patch_centre_check_catches_an_off_code():
    rgb = np.array([[0.2, 0.5, 0.9], [0.0, 1.0, 0.01]])
    image = np.zeros((12, 24, 3), dtype=int)
    for i, colour in enumerate(rgb):
        image[2:10, 2 + i * 10 : 10 + i * 10] = oracle.oetf_code(colour)
    assert oracle.check_patch_centres(image, rgb, cols=2, patch_px=8, gap_px=2) == []
    image[6, 16, 1] += 2
    assert oracle.check_patch_centres(image, rgb, cols=2, patch_px=8, gap_px=2)


def _result(args, cwd=BENCH.parent):
    proc = subprocess.run(
        [sys.executable, "bench/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=170
    )
    return proc, (json.loads(proc.stdout.strip().splitlines()[-1]) if proc.returncode == 0 else None)


@pytest.mark.parametrize("trace,section", [("0", "end_to_end"), ("1", "per_layer")])
def test_result_lists_exactly_the_declared_metrics(trace, section):
    proc, res = _result(["--workload", "db-match", "--seed", "4", "--seconds", "0.5", "--trace", trace])
    assert proc.returncode == 0, proc.stderr
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {k: v["unit"] for k, v in res["metrics"].items()} == declared


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc, _ = _result(["--workload", "solve", "--seed", "1", "--seconds", "1", "--trace", "0"], cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
