"""Command-line front end: curve files in, reports and sweep tables out.

Exit codes: 0 on success (all verifications passed), 1 on usage or input
errors, 2 when a mathematical invariant is violated (which means a bug
somewhere, not bad input).  Diagnostics go to stderr; machine-readable
results go to the output file or stdout.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from dataclasses import dataclass

from . import curve as curve_mod
from .curve import ClosureViolated, NonPositiveCurvature, NotClosed
from .spectrum import ModeWindow, emit_report, lambda1_kohn
from .whittakerhill import CertificateFailed, verify_E_geq_1
import numpy as np

_INPUT_ERRORS = (NonPositiveCurvature, ClosureViolated, NotClosed, ValueError,
                 KeyError, OSError, json.JSONDecodeError)


@dataclass
class RunConfig:
    """Validated bundle of one command invocation."""

    command: str
    input_path: str | None = None
    grid: int | None = None
    window: tuple = (8, 8)
    out: str | None = None
    format: str = "json"
    a_min: float = 0.0
    a_max: float = 10.0
    steps: int = 41
    N: int = 60
    seed: int = 0
    radius: float = 1.0
    eps: float = 0.3
    preset: str | None = None

    def validate(self) -> None:
        if self.grid is not None and (self.grid < 64 or self.grid % 2):
            raise ValueError("--grid must be an even integer >= 64")
        if self.window[0] < 0 or self.window[1] < 0:
            raise ValueError("--window bounds must be nonnegative")
        for flag, value in (("--a-min", self.a_min), ("--a-max", self.a_max)):
            if not np.isfinite(value):
                raise ValueError(f"{flag} must be finite, got {value!r}")
        if self.a_min > self.a_max:
            raise ValueError("--a-min must not exceed --a-max")
        if self.steps < 1:
            raise ValueError("--steps must be >= 1")
        if self.N < 1:
            raise ValueError("--N must be >= 1")
        if self.format not in ("json", "csv"):
            raise ValueError("--format must be json or csv")


def _write_output(data: bytes, out: str | None) -> None:
    if out is None:
        sys.stdout.write(data.decode())
    else:
        with open(out, "wb") as handle:
            handle.write(data)


def cmd_analyze(config: RunConfig) -> int:
    with open(config.input_path) as handle:
        spec = json.load(handle)
    curve = curve_mod.curve_from_spec(spec, grid=config.grid)
    report = lambda1_kohn(curve, ModeWindow(*config.window))
    _write_output(emit_report(report, config.format), config.out)
    if not report.holds:
        print(f"error: eigenvalue estimate {report.lambda1_estimate!r} exceeds "
              f"the bound {report.bound_rhs!r}", file=sys.stderr)
        return 2
    return 0


def cmd_wh_sweep(config: RunConfig) -> int:
    a_values = np.linspace(config.a_min, config.a_max, config.steps)
    result = verify_E_geq_1(a_values, N=config.N)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["a", "N", "E1", "in_sector", "pass"])
    for row in result["table"]:
        writer.writerow([repr(row["a"]), row["N"], repr(row["E1"]),
                         row["in_sector"], row["pass"]])
    _write_output(buf.getvalue().encode(), config.out)
    if not result["all_pass"]:
        print("error: spectral floor verification failed", file=sys.stderr)
        return 2
    return 0


def cmd_make_curve(config: RunConfig) -> int:
    if config.preset == "circle":
        profile = curve_mod.circle_profile(config.radius)
    elif config.preset == "ellipse":
        profile = curve_mod.ellipse_profile(config.eps)
    elif config.preset == "random":
        profile = curve_mod.random_profile(config.seed)
    else:
        raise ValueError(f"unknown preset {config.preset!r}")
    grid = config.grid if config.grid is not None else 512
    curve_mod.build_curve(profile, grid)  # reject unusable parameters early
    payload = curve_mod.profile_to_dict(profile, grid)
    _write_output((json.dumps(payload, indent=2) + "\n").encode(), config.out)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kohnspec",
        description="Eigenvalue bounds for torus-invariant hypersurfaces "
                    "from their generating curves.")
    sub = parser.add_subparsers(dest="command", required=True)

    analyze = sub.add_parser("analyze", help="verify the eigenvalue bound for a curve file")
    analyze.add_argument("input", help="curve spec JSON file")
    analyze.add_argument("--grid", type=int, default=None)
    analyze.add_argument("--window", type=int, nargs=2, default=[8, 8],
                         metavar=("M", "L"))
    analyze.add_argument("--out", default=None, metavar="PATH")
    analyze.add_argument("--format", choices=["json", "csv"], default="json")

    sweep = sub.add_parser("wh-sweep", help="certify the spectral floor over a coupling range")
    sweep.add_argument("--a-min", type=float, default=0.0)
    sweep.add_argument("--a-max", type=float, default=10.0)
    sweep.add_argument("--steps", type=int, default=41)
    sweep.add_argument("--N", type=int, default=60)
    sweep.add_argument("--out", default=None, metavar="PATH")

    make = sub.add_parser("make-curve", help="write a preset curve spec file")
    make.add_argument("preset", choices=["circle", "ellipse", "random"])
    make.add_argument("--radius", type=float, default=1.0)
    make.add_argument("--eps", type=float, default=0.3)
    make.add_argument("--seed", type=int, default=0)
    make.add_argument("--grid", type=int, default=None)
    make.add_argument("--out", default=None, metavar="PATH")

    return parser


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    config = RunConfig(command=args.command)
    if args.command == "analyze":
        config.input_path = args.input
        config.grid = args.grid
        config.window = tuple(args.window)
        config.out = args.out
        config.format = args.format
    elif args.command == "wh-sweep":
        config.a_min = args.a_min
        config.a_max = args.a_max
        config.steps = args.steps
        config.N = args.N
        config.out = args.out
    elif args.command == "make-curve":
        config.preset = args.preset
        config.radius = args.radius
        config.eps = args.eps
        config.seed = args.seed
        config.grid = args.grid
        config.out = args.out
    config.validate()
    return config


_DISPATCH = {
    "analyze": cmd_analyze,
    "wh-sweep": cmd_wh_sweep,
    "make-curve": cmd_make_curve,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on usage errors; remap to 1
        return 0 if exc.code == 0 else 1
    try:
        config = _config_from_args(args)
        return _DISPATCH[args.command](config)
    except CertificateFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except _INPUT_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
