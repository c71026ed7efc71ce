"""colorbench benchmark driver.

    python3 bench/run.py --workload {solve,atlas-chart,db-match} --seed N \
        --seconds S --trace {0,1}

Each workload is a single-process closed loop with one client: every op is
one or two real CLI invocations through ``colorbench.cli.run(argv)``, issued
only after the previous op returned.  Inputs come from ``--seed`` alone
(see inputs.py); the program sees only the generated argv and files.
Outputs are checked against independent numpy oracles (oracle.py) after
the timed loop, and every failed check counts as a failed op.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs each op
twice, once untraced and once with spans around every public function of
every layer (tracer.py), and prints per-layer metrics per op.  The last
line of stdout is the JSON result; the line before it is a JSON report with
sample counts, the failed ratio and provenance.
"""
from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import math
import os
import platform
import re
import resource
import statistics
import subprocess
import sys
import time
import tracemalloc
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
sys.path.insert(0, str(BENCH_DIR))

import inputs  # noqa: E402
import oracle  # noqa: E402
from tracer import Tracer  # noqa: E402

SETUP_SAMPLES = 7
TOLERANCE = 1e-5
THREAD_ENV = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)

# a fresh interpreter: import the CLI, load the bundled tables, build the
# default viewing conditions and display gamut
SETUP_SNIPPET = """
import json, sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import colorbench.cli as cli
t1 = time.perf_counter()
cfg = cli.RunConfig()
cfg.resolve_illuminant(); cfg.resolve_observer()
cfg.viewing_conditions(); cfg.display_gamut()
t2 = time.perf_counter()
print(json.dumps({"import_s": t1 - t0, "tables_s": t2 - t1}))
"""


# The machine this runs on is shared, and its speed drifts by tens of percent
# within a minute.  Every timed op is therefore bracketed by a short fixed
# reference kernel, and op and set-up times are reported as
# ``seconds * REF_NOMINAL_S / (mean reference time around them)``: seconds
# on a machine where the kernel takes REF_NOMINAL_S.  The constant only
# sets the scale; raw wall-clock figures go to the report line.
REF_NOMINAL_S = 1.5e-3
_REF_ARRAY = np.linspace(0.0, 1.0, 361)


def reference_seconds() -> float:
    """Time one run of the reference kernel: the small-array numpy calls
    and float arithmetic that dominate the program's own loops."""
    start = time.perf_counter()
    acc = 0.0
    for i in range(300):
        v = _REF_ARRAY * (i + 1.0)
        acc += float(np.sum(v * _REF_ARRAY)) + math.hypot(i, acc % 7.0)
    return time.perf_counter() - start


@dataclass
class OpResult:
    index: int
    seconds: float
    codes: list = field(default_factory=list)
    stdout: list = field(default_factory=list)
    stderr: list = field(default_factory=list)
    error: str | None = None
    scaled: float = 0.0  # seconds at the reference speed


def run_op(cli, index: int, argvs, ok_codes) -> OpResult:
    """Run the op's CLI calls back to back; stop at the first bad exit."""
    res = OpResult(index, 0.0)
    start = time.perf_counter()
    for argv in argvs:
        out, err = io.StringIO(), io.StringIO()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.run(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception as exc:  # a traceback is a failed op, not a crash of the loop
            res.error = f"{argv[0]}: {type(exc).__name__}: {exc}"
            break
        res.codes.append(code)
        res.stdout.append(out.getvalue())
        res.stderr.append(err.getvalue())
        if code not in ok_codes:
            break
    res.seconds = time.perf_counter() - start
    return res


def _expect_codes(res: OpResult, n: int, ok_codes) -> list[str]:
    if res.error:
        return [res.error]
    if len(res.codes) != n or any(c not in ok_codes for c in res.codes):
        last = res.stderr[-1].strip().splitlines()[-1:] if res.stderr else []
        return [f"exit codes {res.codes}: {' '.join(last)[:200]}"]
    return []


class SolveWorkload:
    """solve-optimal on the ten reference columns, then random targets."""

    name = "solve"
    ok_codes = (0, 1)  # exit 1 is a legitimate "not converged" answer
    tail_q = 0.9

    def __init__(self, seed: int, work: Path, colorimetry):
        self.col = colorimetry
        self.targets = inputs.solve_targets(seed, colorimetry)
        self.first: dict[int, str] = {}
        self.solved: dict[int, bool] = {}

    def argvs(self, i: int, work: Path) -> list[list[str]]:
        t = self.targets[i % len(self.targets)]
        return [
            ["solve-optimal", "--target", f"{t.x!r},{t.y!r}", "--genus", t.genus,
             "--lc", repr(t.L_C), "--json"]
        ]

    def warmup(self, work: Path) -> list[list[str]]:
        return self.argvs(0, work)

    def check(self, res: OpResult, work: Path) -> list[str]:
        k = res.index % len(self.targets)
        problems, solved = self._check(res, k)
        self.solved.setdefault(k, solved and not problems)
        return problems

    def _check(self, res: OpResult, k: int) -> tuple[list[str], bool]:
        """Problems with the op's output, and whether it solved its target."""
        problems = _expect_codes(res, 1, self.ok_codes)
        if problems:
            return problems, False
        t = self.targets[k]
        if self.first.setdefault(k, res.stdout[0]) != res.stdout[0]:
            problems.append(f"{t.name}: output differs from an earlier solve of the same target")
        try:
            rep = json.loads(res.stdout[0])
            genus, l1, l2, K = rep["genus"], rep["lambda1_nm"], rep["lambda2_nm"], rep["K"]
            delta_e, converged = rep["delta_e"], rep["converged"]
        except (ValueError, KeyError, TypeError) as exc:
            return [f"{t.name}: unreadable report: {exc}"], False
        if t.genus != "auto" and genus != t.genus:
            problems.append(f"{t.name}: genus {genus}, asked for {t.genus}")
        if not 360.0 <= l1 <= l2 <= 720.0:
            return problems + [f"{t.name}: cuts {l1}, {l2} out of order or range"], False
        spd = oracle.rectangle(genus, l1, l2)
        xyz = self.col.chromaticity(spd)[0]
        own = float(np.linalg.norm(xyz - (t.x, t.y, 1.0 - t.x - t.y)))
        if abs(own - delta_e) > 1e-9:
            problems.append(f"{t.name}: reported delta_e {delta_e!r}, recomputed {own!r}")
        if converged != (delta_e <= TOLERANCE) or (res.codes[0] == 0) != converged:
            problems.append(f"{t.name}: converged={converged} with delta_e {delta_e!r}, exit {res.codes[0]}")
        y_raw = float(self.col.raw_xyz(spd)[0, 1])
        if abs(K * y_raw - 100.0 * t.L_C) > 1e-9 * max(1.0, 100.0 * t.L_C):
            problems.append(f"{t.name}: K*Y = {K * y_raw!r}, expected {100.0 * t.L_C!r}")
        if t.name in inputs.PRINTED_CUTS:
            p1, p2 = inputs.PRINTED_CUTS[t.name]
            if not converged or abs(l1 - p1) > 3.0 or abs(l2 - p2) > 3.0:
                problems.append(f"{t.name}: cuts ({l1:.1f}, {l2:.1f}) vs printed ({p1}, {p2})")
        return problems, converged and own <= TOLERANCE

    def solved_ratio(self) -> float:
        return sum(self.solved.values()) / max(1, len(self.solved))

    def table1_seconds(self, times: list[float]) -> float:
        """Summed time of the ten reference-column ops of a pass, as the
        median over complete passes (the first pass if none completed)."""
        n = len(self.targets)
        return statistics.median(sum(times[p * n : p * n + 10]) for p in range(max(1, len(times) // n)))


class AtlasChartWorkload:
    """atlas slice to CSV + SVG, then a chart of that slice."""

    name = "atlas-chart"
    ok_codes = (0,)
    # About 20-55 ops fit in a run, so p75 is the highest quantile with about
    # ten samples beyond it.  With a pass of 5 draws per spacing it also falls
    # inside the spacing-1 cluster rather than between two clusters.
    tail_q = 0.75
    COUNT_RE = re.compile(r"(\d+) points, (\d+) inversion failures")

    def __init__(self, seed: int, work: Path, colorimetry):
        self.draws = inputs.atlas_draws(seed)
        self.first_csv: dict[int, bytes] = {}
        self.first_png: dict[int, bytes] = {}
        self.verified_png: set[int] = set()
        self.good: dict[int, bool] = {}

    def _argvs(self, draw, stem: Path) -> list[list[str]]:
        cols, patch, gap = draw.layout()
        return [
            ["atlas", "--j", repr(draw.J), "--spacing", repr(draw.spacing), "--surround", "dark",
             "--out", f"{stem}.csv", "--svg", f"{stem}.svg"],
            ["chart", "--from-atlas", f"{stem}.csv", "--rows", str(cols), "--cols", str(cols),
             "--patch-px", str(patch), "--gap-px", str(gap), "--out", f"{stem}.png"],
        ]

    def argvs(self, i: int, work: Path) -> list[list[str]]:
        return self._argvs(self.draws[i % len(self.draws)], work / f"atlas{i}")

    def warmup(self, work: Path) -> list[list[str]]:
        return self._argvs(inputs.AtlasDraw(50.0, 2.0), work / "warmup")

    def check(self, res: OpResult, work: Path) -> list[str]:
        k = res.index % len(self.draws)
        problems = self._check(res, work, k)
        self.good.setdefault(k, not problems)
        return problems

    def _check(self, res: OpResult, work: Path, k: int) -> list[str]:
        problems = _expect_codes(res, 2, self.ok_codes)
        if problems:
            return problems
        draw, stem = self.draws[k], work / f"atlas{res.index}"
        m = self.COUNT_RE.search(res.stderr[0])
        if not m:
            return [f"{draw}: no point count on stderr"]
        points, failures = int(m.group(1)), int(m.group(2))
        csv_bytes = (stem.with_suffix(".csv")).read_bytes()
        if self.first_csv.setdefault(k, csv_bytes) != csv_bytes:
            problems.append(f"{draw}: atlas CSV differs from an earlier run of the same draw")
        header, *rows = csv_bytes.decode("utf-8").splitlines()
        cols = header.split(",")
        table = np.array([[float(v) for v in row.split(",")] for row in rows]).reshape(len(rows), len(cols))
        rgb = table[:, [cols.index(c) for c in ("R_lin", "G_lin", "B_lin")]]
        if len(rows) != points:
            problems.append(f"{draw}: {len(rows)} CSV rows, {points} points reported")
        if rgb.size and (rgb.min() < 0.0 or rgb.max() > 1.0):
            problems.append(f"{draw}: linear RGB outside [0, 1]")
        if points + failures > draw.max_candidates:
            problems.append(f"{draw}: {points} + {failures} exceeds {draw.max_candidates} candidates")
        png_path = stem.with_suffix(".png")
        png = png_path.read_bytes()
        if self.first_png.setdefault(k, png) != png:
            problems.append(f"{draw}: chart PNG differs from an earlier run of the same draw")
        if len(oracle.read_sidecar(png_path)["patches"]) != len(rows):
            problems.append(f"{draw}: sidecar patch count differs from the CSV row count")
        if k not in self.verified_png:
            cols_n, patch, gap = draw.layout()
            try:
                problems += oracle.check_patch_centres(oracle.read_png_rgb16(png), rgb, cols_n, patch, gap)
            except ValueError as exc:
                problems.append(f"{draw}: PNG: {exc}")
            self.verified_png.add(k)
        return problems

    def solved_ratio(self) -> float:
        return sum(self.good.values()) / max(1, len(self.good))


def _target_set() -> list[tuple[str, tuple[float, float, float]]]:
    """The sixteen-color assessment set, by its published definition."""
    base = {"R": (1, 0, 0), "G": (0, 1, 0), "B": (0, 0, 1), "C": (0, 1, 1), "M": (1, 0, 1), "Ye": (1, 1, 0)}
    mix = lambda w, s: tuple(s * v + (1.0 - s) / 3.0 for v in w)  # noqa: E731
    out = [(n, mix(base[n], 1.0)) for n in base]
    out += [(f"{n}_0.9", mix(base[n], 0.9)) for n in base]
    out += [(f"{n}_0.5", mix(base[n], 0.5)) for n in ("R", "G", "B")]
    return out + [("W", (1.0, 1.0, 1.0))]


class DbMatchWorkload:
    """match against a reflectance database, then a chart of the matches."""

    name = "db-match"
    ok_codes = (0,)
    tail_q = 0.9

    def __init__(self, seed: int, work: Path, colorimetry):
        self.col = colorimetry
        self.dbs = inputs.write_databases(seed, work)
        self.targets = [(n, np.array(colorimetry.target(w)[:2])) for n, w in _target_set()]
        self.oracles: dict[int, tuple] = {}
        self.first: dict[int, str] = {}
        self.good: dict[int, bool] = {}

    def _argvs(self, db, stem: Path) -> list[list[str]]:
        return [
            ["match", "--db", str(db.path), "--format", db.fmt, "--out", f"{stem}.csv"],
            ["chart", "--db", str(db.path), "--format", db.fmt, "--out", f"{stem}.png"],
        ]

    def argvs(self, i: int, work: Path) -> list[list[str]]:
        return self._argvs(self.dbs[i % len(self.dbs)], work / f"match{i}")

    def warmup(self, work: Path) -> list[list[str]]:
        return self._argvs(self.dbs[0], work / "warmup")

    def _oracle(self, k: int):
        if k not in self.oracles:
            db = self.dbs[k]
            ids, spectra = oracle.read_database(db.path, db.fmt)
            xyz = self.col.xyz(spectra)
            chroma = xyz / xyz.sum(axis=1, keepdims=True)
            rgb = np.clip(self.col.linear_rgb(xyz), 0.0, 1.0)
            self.oracles[k] = ({rid: i for i, rid in enumerate(ids)}, chroma, rgb)
        return self.oracles[k]

    def check(self, res: OpResult, work: Path) -> list[str]:
        k = res.index % len(self.dbs)
        problems = self._check(res, work, k)
        self.good.setdefault(k, not problems)
        return problems

    def _check(self, res: OpResult, work: Path, k: int) -> list[str]:
        problems = _expect_codes(res, 2, self.ok_codes)
        if problems:
            return problems
        db, stem = self.dbs[k], work / f"match{res.index}"
        index, chroma, rgb = self._oracle(k)
        text = stem.with_suffix(".csv").read_text(encoding="utf-8")
        if self.first.setdefault(k, text) != text:
            problems.append(f"{db.path.name}: match output differs from an earlier run")
        header, *rows = text.splitlines()
        if header != "target,x_spectral,y_spectral,color_id,delta_e" or len(rows) != len(self.targets):
            return problems + [f"{db.path.name}: unexpected match table shape"]
        matched = []
        for row, (name, txy) in zip(rows, self.targets):
            tname, xs, ys, rid, de = row.split(",")
            tz = np.array([txy[0], txy[1], 1.0 - txy.sum()])
            dist = np.linalg.norm(chroma - tz, axis=1)
            if tname != name or rid not in index:
                problems.append(f"{db.path.name}: row {tname},{rid} does not name a target and a record")
                continue
            own = dist[index[rid]]
            if abs(float(de) - dist.min()) > 1e-12 or abs(float(de) - own) > 1e-12:
                problems.append(f"{db.path.name}: {name} delta_e {de} vs oracle minimum {float(dist.min())!r}")
            if abs(float(xs) - chroma[index[rid], 0]) > 1e-12 or abs(float(ys) - chroma[index[rid], 1]) > 1e-12:
                problems.append(f"{db.path.name}: {name} chromaticity of {rid} differs from the oracle")
            matched.append((f"{name}:{rid}", rgb[index[rid]]))
        png_path = stem.with_suffix(".png")
        meta = oracle.read_sidecar(png_path)
        patches = meta["patches"]
        if [p["name"] for p in patches] != [m[0] for m in matched]:
            return problems + [f"{db.path.name}: chart patches do not follow the match table"]
        got = np.array([p["rgb_linear"] for p in patches])
        if np.abs(got - np.array([m[1] for m in matched])).max() > 1e-9:
            problems.append(f"{db.path.name}: chart patch colors differ from the oracle")
        par = meta["parameters"]
        try:
            problems += oracle.check_patch_centres(
                oracle.read_png_rgb16(png_path.read_bytes()), got, par["cols"], par["patch_px"], par["gap_px"]
            )
        except ValueError as exc:
            problems.append(f"{db.path.name}: PNG: {exc}")
        return problems

    def solved_ratio(self) -> float:
        return sum(self.good.values()) / max(1, len(self.good))


WORKLOADS = {w.name: w for w in (SolveWorkload, AtlasChartWorkload, DbMatchWorkload)}


def measure_setup() -> tuple[list[float], list[float], list[dict]]:
    """Wall time of fresh interpreters doing the set-up every CLI call pays,
    raw and at the reference speed."""
    walls, scaled, inner = [], [], []
    # a subprocess is long next to one kernel run: bracket it with several
    reference = lambda: statistics.median(reference_seconds() for _ in range(5))  # noqa: E731
    ref_before = reference()
    for _ in range(SETUP_SAMPLES):
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_SNIPPET, str(SRC)],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
        )
        walls.append(time.perf_counter() - start)
        ref_after = reference()
        scaled.append(walls[-1] * 2.0 * REF_NOMINAL_S / (ref_before + ref_after))
        ref_before = ref_after
        inner.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return walls, scaled, inner


def provenance() -> dict:
    sha = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        sha = proc.stdout.strip() or None
    digest, lines = hashlib.sha256(), 0
    for path in sorted(SRC.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            data = path.read_bytes()
            digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + data)
            if path.suffix == ".py":
                lines += data.count(b"\n")
    import scipy

    return {
        "git_sha": sha,
        "src_sha256": digest.hexdigest(),
        "src_py_lines": lines,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "thread_env": {k: os.environ[k] for k in THREAD_ENV if k in os.environ},
        "machine": platform.machine(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "colorbench" / "cli.py").is_file():
        print(f"error: no colorbench sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import colorbench.cli as cli

    if Path(cli.__file__).resolve().parent != SRC / "colorbench":
        print(f"error: imported colorbench from {cli.__file__}, not from {SRC}", file=sys.stderr)
        return 2

    work = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        return run(args, cli, work)
    finally:
        for path in sorted(work.rglob("*"), reverse=True):
            path.unlink() if path.is_file() else path.rmdir()
        work.rmdir()


def run(args, cli, work: Path) -> int:
    colorimetry = oracle.Colorimetry(SRC / "colorbench" / "data")
    wl = WORKLOADS[args.workload](args.seed, work, colorimetry)
    run_op(cli, -1, wl.warmup(work), wl.ok_codes)  # fill lazy caches and bytecode
    setup_walls, setup_scaled, setup_inner = measure_setup()

    tracer = Tracer() if args.trace else None
    results, untraced = [], []
    gc.collect()
    start = time.perf_counter()
    ref_before = reference_seconds()
    i = 0
    while i == 0 or time.perf_counter() - start < args.seconds:
        argvs = wl.argvs(i, work)
        if tracer:
            untraced.append(run_op(cli, i, argvs, wl.ok_codes).seconds)
            tracer.op = i
            tracer.install()
            try:
                results.append(run_op(cli, i, argvs, wl.ok_codes))
            finally:
                tracer.uninstall()
        else:
            results.append(run_op(cli, i, argvs, wl.ok_codes))
        ref_after = reference_seconds()
        results[-1].scaled = results[-1].seconds * 2.0 * REF_NOMINAL_S / (ref_before + ref_after)
        ref_before = ref_after
        i += 1
    wall = time.perf_counter() - start
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    failures = []
    for res in results:
        try:
            problems = wl.check(res, work)
        except Exception as exc:  # unreadable output is a failed op, not a crashed benchmark
            problems = [f"output check raised {type(exc).__name__}: {exc}"]
        if problems:
            failures.append(f"op {res.index}: " + "; ".join(problems[:3]))
    if tracer:
        failures += completeness_problems(wl.name, tracer, results)
    times = [r.seconds for r in results]
    scaled = [r.scaled for r in results]
    n = len(results)
    q = wl.tail_q
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "ops": n,
        "failed_ratio": len(failures) / n,
        "op_tail_quantile": q,
        "samples_beyond_tail": int(sum(t > float(np.quantile(scaled, q)) for t in scaled)),
        "setup_samples": SETUP_SAMPLES,
        "raw": {
            "setup_s": statistics.median(setup_walls),
            "op_p50_s": float(np.quantile(times, 0.5)),
            "op_p90_s": float(np.quantile(times, q)),
            "ops_per_s": n / wall,
            "reference_slowdown": statistics.median(t / s for t, s in zip(times, scaled)),
        },
        "failures": failures[:5],
        "provenance": provenance(),
    }
    if args.trace:
        report["trace_file"] = write_trace(tracer, args)
        metrics = layer_metrics(wl, tracer, results, untraced, setup_inner)
    else:
        if isinstance(wl, SolveWorkload):
            report["table1_columns_s"] = wl.table1_seconds(times)
        metrics = {
            "setup_s": (statistics.median(setup_scaled), "s"),
            "op_p50_s": (float(np.quantile(scaled, 0.5)), "s"),
            "op_p90_s": (float(np.quantile(scaled, q)), "s"),
            "ops_per_s": (n / sum(scaled), "1/s"),
            "peak_rss_mib": (peak_rss_mib, "MiB"),
            "solved_ratio": (wl.solved_ratio(), "ratio"),
        }
    print(json.dumps(report, sort_keys=True))
    print(json.dumps({
        "correct": not failures,
        "attempted": n,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def completeness_problems(workload: str, tracer: Tracer, results) -> list[str]:
    """Per-op counts the spans must agree on."""
    problems = []
    spans = tracer.op_spans()
    for res in results:
        s, c = spans[res.index], tracer.counts[res.index]
        bad = []
        if workload == "solve" and s["optimal.synthesize"] < c["nm_iterations"]:
            bad.append("fewer synthesize calls than Nelder-Mead iterations")
        if workload == "atlas-chart":
            if s["cam16.cam16_inverse"] != c["candidates"]:
                bad.append("cam16_inverse calls != atlas candidates")
            if s["cam16.cam16_forward"] != c["points"]:
                bad.append("cam16_forward calls != atlas points")
        if workload != "solve" and s["chart.render_chart"] != 1:
            bad.append(f"{s['chart.render_chart']} render_chart spans in a chart op")
        if bad:
            problems.append(f"trace op {res.index}: " + "; ".join(bad))
    for calls, records in tracer.integrations_per_load():
        if calls != records:
            problems.append(f"trace: {calls} spd_to_xyz calls under a load of {records} records")
    return problems


def layer_metrics(wl, tracer: Tracer, results, untraced, setup_inner) -> dict:
    """Per-layer metrics, per traced op unless the unit says otherwise."""
    n = len(results)
    total, own = tracer.times()
    calls = Counter(span[0] for span in tracer.spans)
    counts = sum(tracer.counts.values(), start=Counter())
    per_op = lambda v: v / n  # noqa: E731
    ratio = lambda a, b: a / b if b else 0.0  # noqa: E731
    frame_bytes = 0
    if tracer.first_render is not None:
        fn, fargs, fkwargs = tracer.first_render
        tracemalloc.start()
        fn(*fargs, **fkwargs)
        frame_bytes = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
    table1 = wl.table1_seconds(untraced) if isinstance(wl, SolveWorkload) else 0.0
    return {
        # the whole cli layer: argparse, config, formatting and I/O
        "cli.run.self_s": (per_op(sum(v for k, v in own.items() if k.startswith("cli."))), "s/op"),
        "setup.import_s": (statistics.median(d["import_s"] for d in setup_inner), "s"),
        "setup.tables_s": (statistics.median(d["tables_s"] for d in setup_inner), "s"),
        "trace.overhead_ratio": (sum(r.seconds for r in results) / sum(untraced), "ratio"),
        "optimal.synthesize.calls": (per_op(calls["optimal.synthesize"]), "count/op"),
        "optimal.fevals_per_solve": (ratio(counts["nfev"], calls["optimal.solve_optimal"]), "count"),
        "optimal.nm_iterations": (per_op(counts["nm_iterations"]), "count/op"),
        "optimal.minimize.self_s": (per_op(own["optimal.minimize"]), "s/op"),
        "optimal.solve_optimal.self_s": (per_op(own["optimal.solve_optimal"]), "s/op"),
        "optimal.table1_columns_s": (table1, "s"),
        "spectral.spd_to_xyz.calls": (per_op(calls["spectral.spd_to_xyz"]), "count/op"),
        "spectral.spd_to_xyz.self_s": (per_op(own["spectral.spd_to_xyz"]), "s/op"),
        "spectral.raw_tristimulus.self_s": (per_op(own["spectral.raw_tristimulus"]), "s/op"),
        "spectral.dominant_wavelength.self_s": (per_op(own["spectral.dominant_wavelength"]), "s/op"),
        "targets.target_from_weights.self_s": (per_op(own["targets.target_from_weights"]), "s/op"),
        "spectradb.load_database.self_s": (per_op(own["spectradb.load_database"]), "s/op"),
        "spectradb.records_per_s": (ratio(counts["records"], total["spectradb.load_database"]), "1/s"),
        "spectradb.match_nearest.s": (per_op(total["spectradb.match_nearest"]), "s/op"),
        "cam16.cam16_inverse.calls": (per_op(calls["cam16.cam16_inverse"]), "count/op"),
        "cam16.cam16_inverse.self_s": (per_op(own["cam16.cam16_inverse"]), "s/op"),
        "cam16.cam16_forward.calls": (per_op(calls["cam16.cam16_forward"]), "count/op"),
        "cam16.cam16_forward.self_s": (per_op(own["cam16.cam16_forward"]), "s/op"),
        "atlas.gamut_contains.self_s": (per_op(own["atlas.gamut_contains"]), "s/op"),
        "atlas.generate_atlas.self_s": (per_op(own["atlas.generate_atlas"]), "s/op"),
        "atlas.candidates": (per_op(counts["candidates"]), "count/op"),
        "atlas.points": (per_op(counts["points"]), "count/op"),
        "atlas.inversion_failures": (per_op(counts["inversion_failures"]), "count/op"),
        "atlas.kept_ratio": (ratio(counts["points"], counts["candidates"]), "ratio"),
        "atlas.write_atlas_csv.s": (per_op(total["atlas.write_atlas_csv"]), "s/op"),
        "atlas.scatter_svg.s": (per_op(total["atlas.scatter_svg"]), "s/op"),
        "chart.render_chart.self_s": (per_op(own["chart.render_chart"]), "s/op"),
        "chart.oetf_bt709.s": (per_op(total["chart.oetf_bt709"]), "s/op"),
        "chart.encode_png_rgb16.self_s": (per_op(own["chart.encode_png_rgb16"]), "s/op"),
        "chart.deflate_s": (per_op(total["chart.deflate"]), "s/op"),
        "chart.pixels": (per_op(counts["pixels"]), "px/op"),
        "chart.frame_bytes_computed": (float(frame_bytes), "B"),
        "chart.png_bytes": (per_op(counts["png_bytes"]), "B/op"),
    }


def write_trace(tracer: Tracer, args) -> str:
    out = ROOT / ".bench_out"
    out.mkdir(exist_ok=True)
    path = out / f"trace-{args.workload}-seed{args.seed}.jsonl.gz"
    tracer.write(path)
    return str(path.relative_to(ROOT))


if __name__ == "__main__":
    sys.exit(main())
