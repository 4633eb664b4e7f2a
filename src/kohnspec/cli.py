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
import math
import sys

# Each command imports the modules it runs, so that no run compiles the
# others, and only ``analyze`` and ``make-curve`` import numpy.  The curve
# errors are ValueErrors.
_INPUT_ERRORS = (ValueError, KeyError, OSError, json.JSONDecodeError)

#: Most couplings of a ``wh-sweep``: each row of its table holds about 650
#: bytes until the table is written, so this keeps the table under 200 MB.
_MAX_STEPS = 2**18


def _finite_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be finite, got {value!r}")
    return value


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _linspace(start: float, stop: float, num: int) -> list:
    """numpy.linspace(start, stop, num) as a list of floats, bit for bit.

    numpy's arithmetic: i * step + start with step = (stop - start) /
    (num - 1), or i / (num - 1) * (stop - start) + start where that step
    is 0 (it underflowed), the last value set to ``stop``; one value is
    0.0 * (stop - start) + start.
    """
    delta = stop - start
    if num == 1:
        return [0.0 * delta + start]
    div = num - 1
    step = delta / div
    if step == 0.0:
        values = [i / div * delta + start for i in range(num)]
    else:
        values = [i * step + start for i in range(num)]
    values[-1] = stop
    return values


def _write_output(data: bytes, out: str | None) -> None:
    if out is None:
        sys.stdout.write(data.decode())
    else:
        with open(out, "wb") as handle:
            handle.write(data)


def cmd_analyze(args: argparse.Namespace) -> int:
    from . import curve as curve_mod
    from .eigen import GridTooCoarse
    from .spectrum import ModeWindow, emit_report, lambda1_kohn

    with open(args.input) as handle:
        spec = json.load(handle)
    curve = curve_mod.curve_from_spec(spec, grid=args.grid)
    try:
        report = lambda1_kohn(curve, ModeWindow(*args.window))
    except GridTooCoarse as exc:  # the grid cannot resolve this curve: an input error
        print(f"error: {exc}", file=sys.stderr)
        return 1
    _write_output(emit_report(report, args.format), args.out)
    if not report.holds:
        print(f"error: eigenvalue estimate {report.lambda1_estimate!r} exceeds "
              f"the bound {report.bound_rhs!r}", file=sys.stderr)
        return 2
    return 0


def cmd_wh_sweep(args: argparse.Namespace) -> int:
    if args.a_min > args.a_max:
        raise ValueError("--a-min must not exceed --a-max")
    if not math.isfinite(args.a_max - args.a_min):
        raise ValueError(f"--a-max - --a-min must be finite, got {args.a_max!r} - "
                         f"{args.a_min!r}")
    if args.steps > _MAX_STEPS:
        raise ValueError(f"--steps must be at most {_MAX_STEPS}, got {args.steps}")
    from .whittakerhill import CertificateFailed, verify_E_geq_1

    a_values = _linspace(args.a_min, args.a_max, args.steps)
    try:
        result = verify_E_geq_1(a_values, N=args.N)
    except CertificateFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["a", "N", "E1", "in_sector", "pass"])
    for row in result["table"]:
        writer.writerow([repr(row["a"]), row["N"], repr(row["E1"]),
                         row["in_sector"], row["pass"]])
    _write_output(buf.getvalue().encode(), args.out)
    if not result["all_pass"]:
        print("error: spectral floor verification failed", file=sys.stderr)
        return 2
    return 0


def cmd_make_curve(args: argparse.Namespace) -> int:
    from . import curve as curve_mod

    if args.preset == "circle":
        profile = curve_mod.circle_profile(args.radius)
    elif args.preset == "ellipse":
        profile = curve_mod.ellipse_profile(args.eps)
    else:
        profile = curve_mod.random_profile(args.seed)
    curve_mod.build_curve(profile, args.grid)  # reject unusable parameters early
    payload = curve_mod.profile_to_dict(profile, args.grid)
    _write_output((json.dumps(payload, indent=2) + "\n").encode(), args.out)
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
    analyze.set_defaults(run=cmd_analyze)

    sweep = sub.add_parser("wh-sweep", help="certify the spectral floor over a coupling range")
    sweep.add_argument("--a-min", type=_finite_float, default=0.0)
    sweep.add_argument("--a-max", type=_finite_float, default=10.0)
    sweep.add_argument("--steps", type=_positive_int, default=41)
    sweep.add_argument("--N", type=int, default=60)
    sweep.add_argument("--out", default=None, metavar="PATH")
    sweep.set_defaults(run=cmd_wh_sweep)

    make = sub.add_parser("make-curve", help="write a preset curve spec file")
    # each preset takes its own parameter only, beside the shared --grid and --out
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--grid", type=int, default=512)
    shared.add_argument("--out", default=None, metavar="PATH")
    presets = make.add_subparsers(dest="preset", required=True)
    for preset, option, kind, default, text in (
            ("circle", "--radius", float, 1.0, "a circle of the given radius"),
            ("ellipse", "--eps", float, 0.3, "the profile rho = 1 + eps cos 2phi"),
            ("random", "--seed", int, 0, "a random convex curve, seeded")):
        presets.add_parser(preset, parents=[shared], help=text).add_argument(
            option, type=kind, default=default)
    make.set_defaults(run=cmd_make_curve)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on usage errors; remap to 1
        return 0 if exc.code == 0 else 1
    try:
        return args.run(args)
    except _INPUT_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
