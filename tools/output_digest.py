"""Regenerate the acceptance outputs, plus an atlas, charts and matches with
the benchmark's settings, and print one digest line per file.

Each line is ``<sha256> <exit code> <name>``.  The outputs are written into a
temporary directory by ``colorbench.cli.run`` from the ``src/`` tree next to
this script.  Two last lines, ``solve_sweep`` and ``cam16_sweep``, digest
solver reports and CAM16 correlates in process (see those functions).  Two
checkouts can be compared byte for byte with

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

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from colorbench import (  # noqa: E402
    Cam16ViewingConditions,
    Chromaticity,
    cam16_forward,
    d65_white_tristimulus,
    solve_optimal,
    table1_suite,
)
from colorbench.cam16 import SURROUNDS  # noqa: E402
from colorbench.cli import run  # noqa: E402

FIXTURES = ROOT / "tests" / "data"

# databases shaped like the benchmark's: (name, (first, last, step) in nm, records, layout)
DATABASES = (
    ("db_long_1nm", (360, 720, 1), 40, "long_csv"),
    ("db_wide_5nm", (380, 780, 5), 300, "wide_csv"),
)

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
    (
        # both failure branches of cam16_inverse: of 3,721 candidates, 34 have a
        # response |R'_a|, |G'_a| or |B'_a| >= 400 and 1,987 a negative stimulus
        ["atlas", "--j", "10", "--la", "318.31", "--surround", "dim", "--out", "atlas_j10.csv"],
        ["atlas_j10.csv"],
    ),
    (
        # at J = 50 every candidate is brighter than a 10 cd/m2 display white:
        # a header-only CSV
        ["atlas", "--j", "50", "--white-luminance", "10", "--out", "atlas_empty.csv"],
        ["atlas_empty.csv"],
    ),
    (["chart", "--out", "chart.png"], ["chart.png", "chart.png.meta.json"]),
    (
        ["chart", "--linear", "--embed-primaries", "--out", "linear.png"],
        ["linear.png", "linear.png.meta.json"],
    ),
    (
        ["chart", "--primaries", "0.68,0.32,0.265,0.69,0.15,0.06", "--embed-primaries",
         "--out", "chart_p3.png"],
        ["chart_p3.png", "chart_p3.png.meta.json"],
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
        # 4044x2066 px, 8.35 Mpx: near MAX_CHART_PIXELS, in 25 deflate blocks
        ["chart", "--from-atlas", "{out}/atlas.csv", "--rows", "24", "--cols", "47",
         "--patch-px", "84", "--gap-px", "2", "--out", "from_atlas_8mpx.png"],
        ["from_atlas_8mpx.png", "from_atlas_8mpx.png.meta.json"],
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
        # auto: the band-stop lattice is closer, but only a band pass
        # converges (1 restart)
        ["solve-optimal", "--target", "0.31562650669408016,0.3362552415462823", "--json",
         "--out", "solve_auto_fallback.json"],
        ["solve_auto_fallback.json"],
    ),
    (
        # auto: both genera miss, so the run exits 1 (2 restarts)
        ["solve-optimal", "--target", "0.1,0.1", "--json", "--out", "solve_auto_miss.json"],
        ["solve_auto_miss.json"],
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
    *(
        entry
        for name, _, _, fmt in DATABASES
        for entry in (
            (
                ["match", "--db", f"{{out}}/{name}.csv", "--format", fmt,
                 "--out", f"match_{name}.csv"],
                [f"match_{name}.csv"],
            ),
            (
                ["chart", "--db", f"{{out}}/{name}.csv", "--format", fmt,
                 "--out", f"matched_{name}.png"],
                [f"matched_{name}.png", f"matched_{name}.png.meta.json"],
            ),
        )
    ),
]


def write_databases(out: Path) -> None:
    """Write ``DATABASES`` into ``out`` from one seed: smooth reflectances
    (a base level plus three Gaussian bands) as ``repr`` floats, with
    comment lines before the header, blank lines, and spaces or tabs around
    the numbers."""
    rng = np.random.default_rng(15)
    pads = ("", "", " ", "\t", "  ")

    def number(v) -> str:
        return pads[rng.integers(len(pads))] + repr(v) + pads[rng.integers(len(pads))]

    for name, (first, last, step), n, fmt in DATABASES:
        wl = np.arange(first, last + 1, step)
        values = np.full((n, wl.size), 0.0) + rng.uniform(0.02, 0.3, (n, 1))
        for _ in range(3):
            centre, width = rng.uniform(380, 720, (n, 1)), rng.uniform(15, 80, (n, 1))
            values += rng.uniform(0.0, 0.8, (n, 1)) * np.exp(-0.5 * ((wl - centre) / width) ** 2)
        rows = np.clip(values, 0.0, 1.0).tolist()
        lines = [f"# {n} synthetic reflectances, {step} nm", "# layout: " + fmt]
        if fmt == "wide_csv":
            lines.append("id," + ",".join(map(str, wl)))
            for k, row in enumerate(rows):
                lines.append(f"w{k:04d}," + ",".join(map(number, row)))
                lines += [" \t"] * (k % 7 == 3)
        else:
            lines.append("id,wavelength_nm,value")
            for k, row in enumerate(rows):
                lines += (f"l{k:03d},{number(int(w))},{number(v)}" for w, v in zip(wl, row))
                lines.append("")
        (out / f"{name}.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")


def solve_sweep(count: int = 150) -> str:
    """sha256 over ``repr`` of ``table1_suite()`` and of ``count`` solves of
    seeded targets spread over the chromaticity diagram (inside and outside the
    spectral locus), the genus cycling through auto, band_pass and band_stop."""
    rng = np.random.default_rng(7)
    reports = [table1_suite()]
    for k in range(count):
        u, v = rng.random(2)
        if u + v > 1.0:  # fold onto the triangle u + v <= 1
            u, v = 1.0 - u, 1.0 - v
        target = Chromaticity.from_xy(0.02 + 0.76 * u, 0.02 + 0.82 * v)
        reports.append(solve_optimal(target, ("auto", "band_pass", "band_stop")[k % 3]))
    return hashlib.sha256(repr(reports).encode()).hexdigest()


def cam16_sweep(count: int = 200) -> str:
    """sha256 over ``repr`` of ``cam16_forward`` on ``count`` seeded (X, Y, Z)
    in [0, 100], then a zero and two tiny stimuli, in each surround under the
    D65 white of each observer."""
    rng = np.random.default_rng(28)
    stimuli = rng.uniform(0.0, 100.0, (count, 3)).tolist()
    stimuli += [(0.0, 0.0, 0.0), (1e-12, 1e-12, 1e-12), (5e-324, 5e-324, 5e-324)]
    conditions = [
        Cam16ViewingConditions(white=d65_white_tristimulus(obs), surround=s)
        for s in SURROUNDS
        for obs in ("degree2", "degree10")
    ]
    appearances = [cam16_forward(xyz, vc) for vc in conditions for xyz in stimuli]
    return hashlib.sha256(repr(appearances).encode()).hexdigest()


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp)
        write_databases(out)
        for argv, names in RUNS:
            code = run([*(a.format(out=out) for a in argv), "--out-dir", str(out)])
            for name in names:
                digest = hashlib.sha256((out / name).read_bytes()).hexdigest()
                print(f"{digest} {code} {name}")
    print(f"{solve_sweep()} 0 solve_sweep")
    print(f"{cam16_sweep()} 0 cam16_sweep")
    return 0


if __name__ == "__main__":
    sys.exit(main())
