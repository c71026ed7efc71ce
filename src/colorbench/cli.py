"""Command-line interface.

Exit codes: 0 on success, 1 on a domain error (bad input data, unreachable
target, missing database), 2 on a usage error.  Outputs are deterministic
for a fixed configuration.  Human-readable numbers are printed with six
significant digits; CSV and JSON carry full precision.
"""
from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, replace
from functools import lru_cache
from pathlib import Path

import numpy as np

from . import __version__
from .atlas import (
    AtlasSpec,
    DisplayGamut,
    generate_atlas,
    read_atlas_rgb,
    scatter_svg,
    write_atlas_csv,
)
from .cam16 import Cam16ViewingConditions, d65_white_tristimulus
from .chart import BT709_TRANSFER, LINEAR_TRANSFER, ChartLayout, render_chart
from .optimal import (
    AUTO_GENUS,
    BAND_PASS,
    BAND_STOP,
    DEFAULT_TOLERANCE,
    TABLE1_COLUMNS,
    solve_optimal,
    scale_to_luminance,
    table1_suite,
)
from .spectral import (
    OBSERVER_10DEG,
    OBSERVER_2DEG,
    Chromaticity,
    _read_text,
    load_illuminant,
    load_observer,
    read_spectrum_csv,
    tristimulus_weights,
)
from .spectradb import (
    LONG_CSV,
    WIDE_CSV,
    build_target_set,
    load_database,
    match_csv,
    match_nearest,
)


@dataclass
class RunConfig:
    """Session-wide settings resolved from config file and flags."""

    illuminant: str = "d65"
    observer: str = OBSERVER_2DEG
    la: float = 50.0
    yb: float = 20.0
    surround: str = "average"
    d: float | None = None
    primaries: str | None = None
    out_dir: str = "."

    def resolve_illuminant(self):
        key = self.illuminant.lower()
        if key in ("d65", "e"):
            return load_illuminant(key.upper())
        spd = read_spectrum_csv(self.illuminant)
        obs = self.resolve_observer()
        try:  # a file the weighted sums cannot use is an error that names it
            tristimulus_weights(spd, obs)
        except ValueError as exc:
            raise ValueError(f"{self.illuminant}: {exc}") from None
        return spd

    def resolve_observer(self):
        return load_observer(self.observer)

    def viewing_conditions(self) -> Cam16ViewingConditions:
        return Cam16ViewingConditions(
            white=d65_white_tristimulus(self.observer),
            Y_b=self.yb,
            L_A=self.la,
            surround=self.surround,
            D=self.d,
        )

    def display_gamut(self, white_luminance: float = 100.0) -> DisplayGamut:
        if self.primaries is None:
            return DisplayGamut(white_luminance=white_luminance)
        parts = [float(v) for v in self.primaries.split(",")]
        if len(parts) != 6:
            raise ValueError("--primaries must be six numbers: rx,ry,gx,gy,bx,by")
        prim = tuple(Chromaticity.from_xy(parts[i], parts[i + 1]) for i in (0, 2, 4))
        return DisplayGamut(primaries=prim, white_luminance=white_luminance)

    def out_path(self, path) -> Path:
        p = Path(path)
        return p if p.is_absolute() else Path(self.out_dir) / p


def _sig6(value: float) -> str:
    return f"{value:.6g}"


def _parse_pair(text: str, what: str) -> tuple[float, float]:
    parts = text.split(",")
    if len(parts) != 2:
        raise ValueError(f"{what} must be two comma-separated numbers, got {text!r}")
    return float(parts[0]), float(parts[1])


def _emit(text: str, out: str | None, cfg: RunConfig) -> None:
    if out:
        cfg.out_path(out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _report_dict(name, report):
    p = report.params
    return {
        "name": name,
        "genus": p.genus,
        "lambda1_nm": p.lambda1_nm,
        "lambda2_nm": p.lambda2_nm,
        "K": p.K,
        "delta_e": report.achieved_delta_e,
        "iterations": report.iterations,
        "converged": report.converged,
    }


def _cmd_solve_optimal(cfg: RunConfig, args) -> int:
    x, y = _parse_pair(args.target, "--target")
    target = Chromaticity.from_xy(x, y)
    illuminant = cfg.resolve_illuminant()
    obs = cfg.resolve_observer()
    report = solve_optimal(
        target, args.genus, tolerance=args.tolerance, illuminant=illuminant, obs=obs
    )
    if args.lc is not None:
        report = replace(report, params=scale_to_luminance(report.params, args.lc, illuminant, obs))
    payload = _report_dict("target", report)
    if args.json:
        _emit(json.dumps(payload, indent=2, sort_keys=True) + "\n", args.out, cfg)
    else:
        p = report.params
        _emit(
            f"genus={p.genus} lambda1={_sig6(p.lambda1_nm)} lambda2={_sig6(p.lambda2_nm)} "
            f"K={_sig6(p.K)} delta_e={_sig6(report.achieved_delta_e)} "
            f"iterations={report.iterations} converged={report.converged}\n",
            args.out,
            cfg,
        )
    return 0 if report.converged else 1


def _cmd_table1(cfg: RunConfig, args) -> int:
    illuminant = cfg.resolve_illuminant()
    obs = cfg.resolve_observer()
    reports = table1_suite(tolerance=args.tolerance, illuminant=illuminant, obs=obs)
    rows = [_report_dict(name, r) for (name, _, _), r in zip(TABLE1_COLUMNS, reports)]
    if args.json:
        _emit(json.dumps(rows, indent=2, sort_keys=True) + "\n", args.out, cfg)
    else:
        lines = []
        for row in rows:
            lines.append(
                f"{row['name']:4s} {row['genus']:9s} "
                f"l1={_sig6(row['lambda1_nm']):>8s} l2={_sig6(row['lambda2_nm']):>8s} "
                f"K={_sig6(row['K']):>12s} dE={_sig6(row['delta_e']):>12s} "
                f"converged={row['converged']}"
            )
        _emit("\n".join(lines) + "\n", args.out, cfg)
    return 0 if all(r.converged for r in reports) else 1


def _cmd_targets(cfg: RunConfig, args) -> int:
    targets = build_target_set()
    if args.json:
        rows = [
            {
                "name": t.name,
                "rgb_weights": list(t.rgb_weights),
                "x": t.x,
                "y": t.y,
                "L_C": t.L_C,
            }
            for t in targets
        ]
        _emit(json.dumps(rows, indent=2, sort_keys=True) + "\n", args.out, cfg)
    else:
        lines = ["name,R,G,B,x,y,L_C"]
        for t in targets:
            w = t.rgb_weights
            lines.append(f"{t.name},{w[0]!r},{w[1]!r},{w[2]!r},{t.x!r},{t.y!r},{t.L_C!r}")
        _emit("\n".join(lines) + "\n", args.out, cfg)
    return 0


def _cmd_match(cfg: RunConfig, args) -> int:
    table = load_database(args.db, args.format, cfg.resolve_illuminant(), cfg.resolve_observer())
    results = match_nearest(build_target_set(), table)
    _emit(match_csv(results), args.out, cfg)
    return 0


def _cmd_atlas(cfg: RunConfig, args) -> int:
    spec = AtlasSpec(
        vc=cfg.viewing_conditions(),
        J=args.j,
        spacing=args.spacing,
        gamut=cfg.display_gamut(args.white_luminance),
        chroma_bound=args.bound,
    )
    result = generate_atlas(spec)
    points = result.points
    write_atlas_csv(points, cfg.out_path(args.out))
    # the SVGs plot the (a'_M, b'_M) and (x, y) columns of the table
    if args.svg:
        cfg.out_path(args.svg).write_text(scatter_svg(points[:, 1:3]), encoding="utf-8")
    if args.xy_svg:
        cfg.out_path(args.xy_svg).write_text(
            scatter_svg(points[:, 6:8], labels=("x", "y")), encoding="utf-8"
        )
    print(
        f"atlas J={_sig6(args.j)} spacing={_sig6(args.spacing)}: "
        f"{len(result.points)} points, {result.inversion_failures} inversion failures",
        file=sys.stderr,
    )
    return 0


def _cmd_chart(cfg: RunConfig, args) -> int:
    cfg.viewing_conditions()  # the sidecar records these settings: reject what atlas rejects
    gamut = cfg.display_gamut()
    if args.from_atlas:
        source = "atlas"
        rgb = read_atlas_rgb(args.from_atlas)
        names = [f"atlas_{i}" for i in range(len(rgb))]
    elif args.db:
        source = "matched"
        fmt = args.format or WIDE_CSV
        table = load_database(args.db, fmt, cfg.resolve_illuminant(), cfg.resolve_observer())
        matches = match_nearest(build_target_set(), table)
        names = [f"{res.target_name}:{res.record_id}" for res in matches]
        xyz = table.xyz[[table.ids.index(res.record_id) for res in matches]]
        rgb = np.clip(gamut.linear_rgb(xyz), 0.0, 1.0)
    else:
        source = "targets"
        targets = build_target_set()
        names = [t.name for t in targets]
        weights = np.array([t.rgb_weights for t in targets])
        rgb = weights / weights.max()
    if args.cols < 1:
        raise ValueError("--cols must be at least 1")
    if args.rows is not None and args.rows < 1:
        raise ValueError("--rows must be at least 1")
    rows = int(np.ceil(len(names) / args.cols)) if args.rows is None else args.rows
    layout = ChartLayout(rows=rows, cols=args.cols, patch_px=args.patch_px, gap_px=args.gap_px)
    transfer = LINEAR_TRANSFER if args.linear else BT709_TRANSFER
    png, sidecar = render_chart(
        names,
        rgb,
        layout,
        transfer=transfer,
        gamut=gamut,
        source=source,
        embed_primaries=args.embed_primaries,
        settings=dict(
            illuminant=cfg.illuminant, observer=cfg.observer, la=cfg.la, yb=cfg.yb, surround=cfg.surround
        ),
    )
    out = cfg.out_path(args.out)
    out.write_bytes(png)
    out.with_suffix(out.suffix + ".meta.json").write_text(sidecar, encoding="utf-8")
    return 0


# the session flags, and the ones each subcommand reads (all take --config, --out-dir)
_SESSION_FLAGS = {
    "illuminant": dict(help="d65, e, or a wavelength_nm,value CSV path"),
    "observer": dict(choices=[OBSERVER_2DEG, OBSERVER_10DEG]),
    "la": dict(type=float, help="adapting luminance in cd/m2 (default 50)"),
    "yb": dict(type=float, help="background relative luminance 0-100 (default 20)"),
    "surround": dict(choices=["average", "dim", "dark"]),
    "d": dict(type=float, help="explicit degree of adaptation in [0, 1]"),
    "primaries": dict(metavar="rx,ry,gx,gy,bx,by", help="display primaries (default BT.709)"),
}
_SESSION_READS = {
    "solve-optimal": ("illuminant", "observer"),
    "table1": ("illuminant", "observer"),
    "targets": (),
    "match": ("illuminant", "observer"),
    "atlas": ("observer", "la", "yb", "surround", "d", "primaries"),
    "chart": ("illuminant", "observer", "la", "yb", "surround", "primaries"),
}


class _MissingRequired(Exception):
    """argparse's error for a missing required argument, held back."""


class _ArgumentParser(argparse.ArgumentParser):
    """Names an unrecognized flag before a missing required one, which argparse checks first."""

    def parse_known_args(self, args=None, namespace=None):
        try:
            return super().parse_known_args(args, namespace)
        except _MissingRequired as missing:
            required = [action for action in self._actions if action.required]
            for action in required:  # parse again without the check
                action.required = False
            try:
                namespace, extras = super().parse_known_args(args, namespace)
            finally:
                for action in required:
                    action.required = True
            if not extras:
                super().error(str(missing))
            return namespace, extras

    def error(self, message):
        if message.startswith("the following arguments are required"):
            raise _MissingRequired(message)
        super().error(message)


@lru_cache(maxsize=1)
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing leaves it unchanged."""
    parser = _ArgumentParser(
        prog="colorbench",
        description="Colorimetric test materials for video path assessment.",
        allow_abbrev=False,
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve-optimal", help="solve rectangle cuts for a chromaticity target")
    p.add_argument("--target", required=True, metavar="x,y")
    p.add_argument(
        "--genus",
        choices=[BAND_PASS, BAND_STOP, AUTO_GENUS],
        default=AUTO_GENUS,
        help="rectangle genus; auto solves the genus whose 1 nm cut lattice comes closer "
        "to the target, then the other one if the first misses the tolerance",
    )
    p.add_argument("--tolerance", type=float, default=DEFAULT_TOLERANCE)
    p.add_argument("--lc", type=float, help="scale K to this relative luminance in [0, 1]")
    p.add_argument("--json", action="store_true")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_solve_optimal)

    p = sub.add_parser("table1", help="solve the ten-color reference suite")
    p.add_argument("--tolerance", type=float, default=DEFAULT_TOLERANCE)
    p.add_argument("--json", action="store_true")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_table1)

    p = sub.add_parser("targets", help="emit the sixteen-color target set")
    p.add_argument("--json", action="store_true")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_targets)

    p = sub.add_parser("match", help="match the target set against a spectra database")
    p.add_argument("--db", required=True)
    p.add_argument("--format", choices=[WIDE_CSV, LONG_CSV], default=WIDE_CSV)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_match)

    p = sub.add_parser("atlas", help="generate an in-gamut UCS atlas slice")
    p.add_argument("--j", type=float, required=True, help="CAM16 lightness of the slice")
    p.add_argument("--spacing", type=float, default=2.0)
    p.add_argument("--bound", type=float, default=60.0)
    p.add_argument("--white-luminance", type=float, default=100.0)
    p.add_argument("--out", required=True)
    p.add_argument("--svg", help="write an (a'_M, b'_M) scatter SVG")
    p.add_argument("--xy-svg", help="write an (x, y) scatter SVG")
    p.set_defaults(func=_cmd_atlas)

    p = sub.add_parser("chart", help="render a patch-grid chart PNG plus sidecar")
    chart_source = p.add_mutually_exclusive_group()
    chart_source.add_argument("--from-atlas", help="atlas CSV to render instead of the target set")
    chart_source.add_argument("--db", help="spectra database: render the matched set instead")
    p.add_argument("--format", choices=[WIDE_CSV, LONG_CSV], help=f"--db layout (default {WIDE_CSV})")
    p.add_argument("--rows", type=int)
    p.add_argument("--cols", type=int, default=4)
    p.add_argument("--patch-px", type=int, default=64)
    p.add_argument("--gap-px", type=int, default=8)
    p.add_argument("--linear", action="store_true", help="skip the BT.709 OETF")
    p.add_argument(
        "--embed-primaries", action="store_true",
        help="write a cHRM color chunk with the display primaries",
    )
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_chart)

    for name, p in sub.choices.items():
        p.allow_abbrev = False
        p.add_argument("--config", help="JSON config file; flags override its values")
        p.add_argument("--out-dir", help="base directory for relative output paths")
        for key in _SESSION_READS[name]:
            p.add_argument(f"--{key}", **_SESSION_FLAGS[key])
    return parser


_NUMBER = (int, float)
_NULL = type(None)
# the session settings a config file may set, with the JSON values each
# accepts (null only where the setting has no default) and their name
_CONFIG_KEYS = {
    "illuminant": ((str,), "a string"),
    "observer": ((str,), "a string"),
    "la": (_NUMBER, "a finite number"),
    "yb": (_NUMBER, "a finite number"),
    "surround": ((str,), "a string"),
    "d": ((*_NUMBER, _NULL), "a finite number or null"),
    "primaries": ((str, _NULL), "a string or null"),
    "out_dir": ((str,), "a string"),
}


def _check_config(path: Path, data) -> dict:
    """Reject a config that is not an object, has an unknown key, or holds
    a value of the wrong kind."""
    if not isinstance(data, dict):
        raise ValueError(f"{path}: config must be a JSON object")
    for key, value in data.items():
        if key not in _CONFIG_KEYS:
            raise ValueError(f"{path}: unknown config key {key!r}")
        types, expected = _CONFIG_KEYS[key]
        if (
            isinstance(value, bool)
            or not isinstance(value, types)
            # NaN, infinities and integers beyond the float range
            or (isinstance(value, _NUMBER) and not abs(value) <= sys.float_info.max)
        ):
            raise ValueError(
                f"{path}: config key {key!r} must be {expected}, got {json.dumps(value)[:40]}"
            )
    return data


def _load_config(args) -> RunConfig:
    cfg = RunConfig()
    if args.config:
        path = Path(args.config)
        if not path.exists():
            raise FileNotFoundError(f"config file not found: {path}")
        text = _read_text(path)  # its ValueErrors name the path
        try:
            data = json.loads(text)
        except (ValueError, RecursionError) as exc:
            raise ValueError(f"{path}: {exc}") from None
        for key, value in _check_config(path, data).items():
            setattr(cfg, key, value)
    for key in _CONFIG_KEYS:
        value = getattr(args, key, None)
        if value is not None:
            setattr(cfg, key, value)
    return cfg


def run(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # flags that only work together with another flag
    for flag, needed in {"format": "db", "out_dir": "out"}.items():
        if getattr(args, flag, None) is not None and getattr(args, needed, None) is None:
            parser.error(f"argument --{flag.replace('_', '-')}: only allowed with --{needed}")
    try:
        cfg = _load_config(args)
        return args.func(cfg, args)
    except (ValueError, FileNotFoundError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> int:
    return run()


if __name__ == "__main__":
    sys.exit(main())
