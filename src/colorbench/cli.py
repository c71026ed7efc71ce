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
from dataclasses import asdict, dataclass, field, fields, replace
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
from .spectradb import LONG_CSV, WIDE_CSV, load_database, match_csv, match_nearest
from .targets import build_target_set


def _setting(default, **flag):
    """A RunConfig field: its default and its flag's argparse options."""
    return field(default=default, metadata=flag)


@dataclass
class RunConfig:
    """Session-wide settings resolved from config file and flags.

    Each field is the one declaration of a setting: its default, its flag's
    argparse options and, by its annotation, the JSON a config may give it.
    """

    illuminant: str = _setting("d65", help="d65, e, or a wavelength_nm,value CSV path")
    observer: str = _setting(OBSERVER_2DEG, choices=[OBSERVER_2DEG, OBSERVER_10DEG])
    la: float = _setting(50.0, type=float, help="adapting luminance in cd/m2 (default 50)")
    yb: float = _setting(20.0, type=float, help="background relative luminance 0-100 (default 20)")
    surround: str = _setting("average", choices=["average", "dim", "dark"])
    d: float | None = _setting(None, type=float, help="explicit degree of adaptation in [0, 1]")
    primaries: str | None = _setting(
        None, metavar="rx,ry,gx,gy,bx,by", help="display primaries (default BT.709)"
    )
    out_dir: str = _setting(".", help="base directory for relative output paths")

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
        parts = _parse_numbers(self.primaries, 6, f"--primaries {_SIX_PRIMARIES}")
        prim = tuple(Chromaticity.from_xy(parts[i], parts[i + 1]) for i in (0, 2, 4))
        return DisplayGamut(primaries=prim, white_luminance=white_luminance)

    def out_path(self, path) -> Path:
        p = Path(path)
        return p if p.is_absolute() else Path(self.out_dir) / p


def _sig6(value: float) -> str:
    return f"{value:.6g}"


def _parse_numbers(text: str, count: int, message: str) -> list[float]:
    """The ``count`` comma-separated numbers of a flag's value, or a
    ValueError with ``message`` when there are more, fewer or a non-number."""
    parts = text.split(",")
    if len(parts) == count:
        try:
            return [float(v) for v in parts]
        except ValueError:
            pass
    raise ValueError(message)


def _emit(text: str, out: str | None, cfg: RunConfig) -> None:
    if out:
        cfg.out_path(out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _report_dict(name, report):
    return {
        "name": name,
        **asdict(report.params),
        "delta_e": report.achieved_delta_e,
        "iterations": report.iterations,
        "converged": report.converged,
    }


def _cmd_solve_optimal(cfg: RunConfig, args) -> int:
    x, y = _parse_numbers(
        args.target, 2, f"--target must be two comma-separated numbers, got {args.target!r}"
    )
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
        rows = [asdict(t) for t in targets]
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
    # plot the (a'_M, b'_M) and (x, y) columns first: an empty slice writes no file
    svgs = [(args.svg, scatter_svg(points[:, 1:3]))] if args.svg else []
    if args.xy_svg:
        svgs.append((args.xy_svg, scatter_svg(points[:, 6:8], labels=("x", "y"))))
    write_atlas_csv(points, cfg.out_path(args.out))
    for path, svg in svgs:
        cfg.out_path(path).write_text(svg, encoding="utf-8")
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
    png, pieces = render_chart(
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
    with open(out.with_suffix(out.suffix + ".meta.json"), "w", encoding="utf-8", newline="\n") as fh:
        fh.writelines(pieces)
    return 0


# each subcommand's session flags besides --config and --out-dir (RunConfig declares them)
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

    settings = {f.name: f.metadata for f in fields(RunConfig)}
    for name, p in sub.choices.items():
        p.allow_abbrev = False
        p.add_argument("--config", help="JSON config file; flags override its values")
        for key in ("out_dir", *_SESSION_READS[name]):
            p.add_argument(f"--{key.replace('_', '-')}", **settings[key])
    return parser


_NUMBER = (int, float)
_SIX_PRIMARIES = "must be six numbers: rx,ry,gx,gy,bx,by"  # the --primaries or config value
# the JSON values a config file may give a setting, by its RunConfig
# annotation (null only where the default is None), and their name
_CONFIG_KINDS = {
    "str": ((str,), "a string"),
    "float": (_NUMBER, "a finite number"),
    "str | None": ((str, type(None)), "a string or null"),
    "float | None": ((*_NUMBER, type(None)), "a finite number or null"),
}


def _check_config(path: Path, data) -> dict:
    """Reject a config that is not an object, has an unknown key, or holds
    a value of the wrong kind."""
    if not isinstance(data, dict):
        raise ValueError(f"{path}: config must be a JSON object")
    kinds = {f.name: _CONFIG_KINDS[f.type] for f in fields(RunConfig)}
    for key, value in data.items():
        if key not in kinds:
            raise ValueError(f"{path}: unknown config key {key!r}")
        types, expected = kinds[key]
        if (
            isinstance(value, bool)
            or not isinstance(value, types)
            # NaN, infinities and integers beyond the float range
            or (isinstance(value, _NUMBER) and not abs(value) <= sys.float_info.max)
        ):
            raise ValueError(
                f"{path}: config key {key!r} must be {expected}, got {json.dumps(value)[:40]}"
            )
    if data.get("primaries") is not None:
        _parse_numbers(data["primaries"], 6, f"{path}: config key 'primaries' {_SIX_PRIMARIES}")
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
    for f in fields(RunConfig):
        value = getattr(args, f.name, None)
        if value is not None:
            setattr(cfg, f.name, value)
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
