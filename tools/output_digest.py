"""Regenerate the acceptance outputs, plus an atlas and charts with the
benchmark's settings, and print one digest line per file.

Each line is ``<sha256> <exit code> <name>``.  The outputs are written into a
temporary directory by ``colorbench.cli.run`` from the ``src/`` tree next to
this script, so two checkouts can be compared byte for byte with

    python tools/output_digest.py > a.txt      # in the first checkout
    python tools/output_digest.py > b.txt      # in the second
    diff a.txt b.txt

The digests depend on the platform's floating point and zlib, so compare
runs on one machine only.
"""
from __future__ import annotations

import hashlib
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from colorbench.cli import run  # noqa: E402

FIXTURES = ROOT / "tests" / "data"

# (argv, output files the run writes); "{out}" in an argument is the output
# directory, so a later run can read what an earlier one wrote
RUNS = [
    (["targets", "--out", "targets.csv"], ["targets.csv"]),
    (["targets", "--json", "--out", "targets.json"], ["targets.json"]),
    (["table1", "--json", "--out", "table1.json"], ["table1.json"]),
    (["table1", "--out", "table1.txt"], ["table1.txt"]),
    (["table1", "--illuminant", "e", "--json", "--out", "table1_e.json"], ["table1_e.json"]),
    *(
        (
            ["solve-optimal", "--target", xy, "--lc", "0.2", "--json", "--out", f"solve_{xy}.json"],
            [f"solve_{xy}.json"],
        )
        for xy in ("0.3,0.5", "0.6,0.33", "0.2,0.1", "0.31,0.33", "0.45,0.4")
    ),
    (
        ["atlas", "--j", "50", "--out", "atlas.csv",
         "--svg", "atlas.svg", "--xy-svg", "atlas_xy.svg"],
        ["atlas.csv", "atlas.svg", "atlas_xy.svg"],
    ),
    (
        ["atlas", "--j", "50", "--observer", "degree10", "--out", "atlas_10deg.csv"],
        ["atlas_10deg.csv"],
    ),
    (
        ["atlas", "--j", "30", "--spacing", "1.5",
         "--primaries", "0.68,0.32,0.265,0.69,0.15,0.06", "--out", "atlas_p3.csv"],
        ["atlas_p3.csv"],
    ),
    (
        # the benchmark's atlas settings
        ["atlas", "--j", "50", "--spacing", "1", "--surround", "dark",
         "--out", "atlas_dark.csv", "--svg", "atlas_dark.svg"],
        ["atlas_dark.csv", "atlas_dark.svg"],
    ),
    (
        ["atlas", "--j", "40", "--la", "4", "--surround", "dim",
         "--out", "atlas_dim.csv", "--xy-svg", "atlas_dim_xy.svg"],
        ["atlas_dim.csv", "atlas_dim_xy.svg"],
    ),
    (["chart", "--out", "chart.png"], ["chart.png", "chart.png.meta.json"]),
    (
        ["chart", "--linear", "--embed-primaries", "--out", "linear.png"],
        ["linear.png", "linear.png.meta.json"],
    ),
    (
        ["chart", "--from-atlas", "{out}/atlas.csv", "--cols", "20", "--patch-px", "8",
         "--out", "from_atlas.png"],
        ["from_atlas.png", "from_atlas.png.meta.json"],
    ),
    (
        # about 2 Mpx, the size of the benchmark's charts
        ["chart", "--from-atlas", "{out}/atlas.csv", "--rows", "61", "--cols", "61",
         "--patch-px", "21", "--gap-px", "2", "--out", "from_atlas_2mpx.png"],
        ["from_atlas_2mpx.png", "from_atlas_2mpx.png.meta.json"],
    ),
    (
        # one cell per candidate of the dark slice, about 2 Mpx, unencoded
        ["chart", "--from-atlas", "{out}/atlas_dark.csv", "--linear", "--rows", "121",
         "--cols", "121", "--patch-px", "10", "--gap-px", "2", "--out", "from_atlas_linear.png"],
        ["from_atlas_linear.png", "from_atlas_linear.png.meta.json"],
    ),
    (
        ["match", "--db", str(FIXTURES / "fixture_wide.csv"), "--out", "match_wide.csv"],
        ["match_wide.csv"],
    ),
    (
        ["match", "--db", str(FIXTURES / "fixture_long.csv"), "--format", "long_csv",
         "--out", "match_long.csv"],
        ["match_long.csv"],
    ),
    (
        ["match", "--db", str(FIXTURES / "fixture_wide.csv"), "--illuminant", "e",
         "--out", "match_wide_e.csv"],
        ["match_wide_e.csv"],
    ),
    (
        ["match", "--db", str(FIXTURES / "fixture_wide.csv"), "--observer", "degree10",
         "--out", "match_wide_10deg.csv"],
        ["match_wide_10deg.csv"],
    ),
    (
        ["solve-optimal", "--target", "0.3,0.5", "--lc", "0.2", "--observer", "degree10",
         "--json", "--out", "solve_0.3,0.5_10deg.json"],
        ["solve_0.3,0.5_10deg.json"],
    ),
    (
        # a band stop whose cuts end less than 1 nm apart (not converged)
        ["solve-optimal", "--target", "0.31352,0.33072", "--genus", "band_stop", "--lc", "0.5",
         "--json", "--out", "solve_narrow_stop.json"],
        ["solve_narrow_stop.json"],
    ),
    (
        ["solve-optimal", "--target", "0.3,0.5", "--lc", "0.2", "--illuminant", "e",
         "--json", "--out", "solve_0.3,0.5_e.json"],
        ["solve_0.3,0.5_e.json"],
    ),
    (
        ["chart", "--db", str(FIXTURES / "fixture_wide.csv"), "--out", "matched.png"],
        ["matched.png", "matched.png.meta.json"],
    ),
    (
        ["chart", "--db", str(FIXTURES / "fixture_long.csv"), "--format", "long_csv",
         "--out", "matched_long.png"],
        ["matched_long.png", "matched_long.png.meta.json"],
    ),
    (
        ["chart", "--db", str(FIXTURES / "fixture_wide.csv"), "--illuminant", "e",
         "--observer", "degree10", "--out", "matched_e_10deg.png"],
        ["matched_e_10deg.png", "matched_e_10deg.png.meta.json"],
    ),
]


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp)
        for argv, names in RUNS:
            code = run([*(a.format(out=out) for a in argv), "--out-dir", str(out)])
            for name in names:
                digest = hashlib.sha256((out / name).read_bytes()).hexdigest()
                print(f"{digest} {code} {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
