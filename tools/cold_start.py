"""Time each CLI subcommand from a cold start: one fresh interpreter per run.

    python tools/cold_start.py

For ``targets``, ``atlas``, ``chart --from-atlas``, ``match`` (the wide
fixture database) and ``solve-optimal``, the script starts ``RUNS`` (7) fresh
interpreters one after another, each importing ``colorbench.cli`` from the
``src/`` tree next to this script and running one command into a temporary
directory, after one untimed warm-up run of the same command.  A time is the
wall time of the whole child process, interpreter start-up included.  BLAS
thread pools are held at one thread and nothing runs in parallel.

It prints one JSON line per subcommand: the median and quartiles (linear
interpolation) in seconds, the number of runs, and whether ``scipy`` was in
``sys.modules`` when the command returned.  Compare two checkouts on one
machine only, run close together: the times include the machine's load.
"""
from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "tests" / "data"
RUNS = 7  # timed runs per subcommand

CHILD = """
import json, sys
sys.path.insert(0, sys.argv[1])
from colorbench.cli import run
code = run(sys.argv[2:])
print(json.dumps({"code": code, "scipy": "scipy" in sys.modules}))
"""

# (name, argv); "{out}" is the temporary directory, and chart reads the atlas before it
COMMANDS = [
    ("targets", ["targets", "--out", "{out}/targets.csv"]),
    ("atlas", ["atlas", "--j", "50", "--spacing", "2", "--out", "{out}/atlas.csv"]),
    ("chart --from-atlas",
     ["chart", "--from-atlas", "{out}/atlas.csv", "--out", "{out}/chart.png"]),
    ("match", ["match", "--db", str(FIXTURES / "fixture_wide.csv"), "--out", "{out}/match.csv"]),
    ("solve-optimal", ["solve-optimal", "--target", "0.3,0.5", "--out", "{out}/solve.txt"]),
]

THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def run_once(argv: list[str], cwd: str, env: dict) -> tuple[float, bool]:
    """Wall time of one child running ``argv``, and whether it loaded scipy."""
    start = time.perf_counter()
    done = subprocess.run(
        [sys.executable, "-c", CHILD, str(ROOT / "src"), *argv],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=300,
    )
    wall = time.perf_counter() - start
    if done.returncode != 0:
        raise SystemExit(f"{' '.join(argv)}: exit {done.returncode}\n{done.stderr}")
    result = json.loads(done.stdout.splitlines()[-1])
    if result["code"] != 0:
        raise SystemExit(f"{' '.join(argv)}: command exit {result['code']}\n{done.stderr}")
    return wall, result["scipy"]


def main() -> int:
    env = {**os.environ, **{k: "1" for k in THREAD_ENV}}
    with tempfile.TemporaryDirectory() as tmp:
        for name, argv in COMMANDS:
            argv = [a.format(out=tmp) for a in argv]
            run_once(argv, tmp, env)  # warm-up: file cache, and the atlas the chart reads
            runs = [run_once(argv, tmp, env) for _ in range(RUNS)]
            walls = [wall for wall, _ in runs]
            q1, median, q3 = statistics.quantiles(walls, n=4, method="inclusive")
            print(json.dumps({
                "command": name,
                "runs": len(walls),
                "median_s": round(median, 4),
                "q1_s": round(q1, 4),
                "q3_s": round(q3, 4),
                "scipy_loaded": all(loaded for _, loaded in runs),
            }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
