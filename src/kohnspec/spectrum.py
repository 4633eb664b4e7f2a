"""Aggregation of mode spectra into the bottom of the full spectrum.

The first positive eigenvalue over the whole hypersurface is the minimum of
the first positive per-mode eigenvalues over all integer pairs (m, l).  No
computable growth rate in (m, l) is available in general, so the sweep is
truncated to a finite window; the truncation is a heuristic and is flagged
as such in the report.  The verified inequalities do not depend on it:

* upper bound: lambda_1 <= (1/4pi) integral kappa^2 ds holds already for
  the (0,0) mode (the tangent components are admissible trial functions),
  and every window contains (0,0);
* lower bracket: half the minimum of the scalar curvature bounds lambda_1
  from below independently of the window.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, field

import numpy as np

from .curve import GeneratingCurve, geometric_invariants, webster_scalar_curvature
from .modes import ModeIndex, mode_spectra

#: Slack tolerance when checking lambda_1 <= bound_rhs numerically.
BOUND_TOL = 1e-6

#: |slack| below this (plus constant curvature) flags the equality case.
EQUALITY_TOL = 1e-4

#: Relative curvature variance below this counts as "constant curvature".
KAPPA_VARIANCE_TOL = 1e-10

#: Cap on the window expansions of an adaptive sweep.
MAX_ADAPTIVE_ROUNDS = 6

#: Largest grid x modes of a sweep: the (grid, modes) diagonal bands take
#: 8 bytes an entry, and the inertia kernel's workspace of grid x columns
#: up to about three columns a mode, so this keeps each under 100 MiB.
MAX_BAND_ENTRIES = 2**22

WINDOW_CAVEAT = ("window truncation is heuristic: no growth rate of the "
                 "per-mode spectra in (m, l) is certified")


@dataclass(frozen=True)
class ModeWindow:
    """Rectangular index window |m| <= m_max, |l| <= l_max."""

    m_max: int
    l_max: int

    def __post_init__(self):
        if self.m_max < 0 or self.l_max < 0:
            raise ValueError("window bounds must be nonnegative")

    def modes(self):
        for m in range(-self.m_max, self.m_max + 1):
            for l in range(-self.l_max, self.l_max + 1):
                yield ModeIndex(m, l)

    def boundary_modes(self):
        for mode in self.modes():
            if abs(mode.m) == self.m_max or abs(mode.l) == self.l_max:
                yield mode

    def grow(self) -> "ModeWindow":
        return ModeWindow(self.m_max + 1, self.l_max + 1)


@dataclass
class ModeEigenvalues:
    m: int
    l: int
    lambda0: float
    lambda1: float


@dataclass
class SpectrumReport:
    """Per-mode table plus the derived estimates and verdicts."""

    curve_summary: dict
    grid: int
    window: tuple
    modes: list = field(default_factory=list)
    lambda1_estimate: float | None = None
    bound_rhs: float | None = None
    ccy_lower: float | None = None
    slack: float | None = None
    holds: bool | None = None
    equality: bool | None = None
    argmin_mode: tuple | None = None
    adaptive_rounds: int = 0
    window_caveat: str = WINDOW_CAVEAT


def ccy_lower_bound(curve: GeneratingCurve) -> float:
    """Half the minimum of the scalar curvature samples."""
    return 0.5 * float(np.min(webster_scalar_curvature(curve)))


def _kappa_variance(curve: GeneratingCurve) -> float:
    mean = curve.kappa.mean()
    return float(np.var(curve.kappa) / mean**2)


def lambda1_kohn(curve: GeneratingCurve, window: ModeWindow,
                 adaptive: bool = False) -> SpectrumReport:
    """Sweep the mode window and report the minimal first positive eigenvalue.

    The (0, 0) mode is always part of the window.  With ``adaptive`` set,
    the window grows by one in each direction while some boundary mode
    attains the current minimum within 10 percent (capped at
    MAX_ADAPTIVE_ROUNDS expansions).  A window whose modes times the grid
    exceed MAX_BAND_ENTRIES is a ValueError, raised before its modes are
    built.
    """
    table: dict[ModeIndex, ModeEigenvalues] = {}

    def sweep(window):
        count = (2 * window.m_max + 1) * (2 * window.l_max + 1)
        if curve.n * count > MAX_BAND_ENTRIES:
            raise ValueError(
                f"window ({window.m_max}, {window.l_max}) at grid {curve.n} needs {count} "
                f"modes x {curve.n} = {count * curve.n} band entries, more than "
                f"{MAX_BAND_ENTRIES}")
        new = [mode for mode in window.modes() if mode not in table]
        for mode, (lam0, lam1) in zip(new, mode_spectra(curve, new, k=2)):
            table[mode] = ModeEigenvalues(mode.m, mode.l, float(lam0), float(lam1))

    sweep(window)
    rounds = 0
    if adaptive:
        while rounds < MAX_ADAPTIVE_ROUNDS:
            best = min(entry.lambda1 for entry in table.values())
            boundary_best = min(table[mode].lambda1 for mode in window.boundary_modes())
            if boundary_best > 1.1 * best:
                break
            window = window.grow()
            sweep(window)
            rounds += 1

    entries = [table[mode] for mode in sorted(table, key=lambda mo: (mo.m, mo.l))]
    best_entry = min(entries, key=lambda entry: entry.lambda1)
    invariants = geometric_invariants(curve)

    report = SpectrumReport(
        curve_summary=invariants,
        grid=curve.n,
        window=(window.m_max, window.l_max),
        modes=entries,
        lambda1_estimate=best_entry.lambda1,
        bound_rhs=invariants["bound_rhs"],
        ccy_lower=ccy_lower_bound(curve),
        argmin_mode=(best_entry.m, best_entry.l),
        adaptive_rounds=rounds,
    )
    report.slack = report.bound_rhs - report.lambda1_estimate
    report.holds = report.lambda1_estimate <= report.bound_rhs + BOUND_TOL * max(1.0, report.bound_rhs)
    report.equality = bool(abs(report.slack) < EQUALITY_TOL
                           and _kappa_variance(curve) < KAPPA_VARIANCE_TOL)
    return report


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def _report_payload(report: SpectrumReport) -> dict:
    return {
        "curve": {key: float(val) for key, val in report.curve_summary.items()},
        "grid": report.grid,
        "window": list(report.window),
        "modes": [
            {"m": entry.m, "l": entry.l, "lambda0": entry.lambda0, "lambda1": entry.lambda1}
            for entry in report.modes
        ],
        "lambda1_estimate": report.lambda1_estimate,
        "bound_rhs": report.bound_rhs,
        "ccy_lower": report.ccy_lower,
        "slack": report.slack,
        "holds": report.holds,
        "equality": report.equality,
        "argmin_mode": list(report.argmin_mode) if report.argmin_mode else None,
        "adaptive_rounds": report.adaptive_rounds,
        "window_caveat": report.window_caveat,
    }


def emit_report(report: SpectrumReport, format: str = "json") -> bytes:
    """Serialize a report deterministically (same report, same bytes).

    JSON keeps the field order of the report; CSV emits one row per mode
    followed by a summary footer row (header only for an empty table).
    """
    if format == "json":
        return (json.dumps(_report_payload(report), indent=2) + "\n").encode()
    if format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["m", "l", "lambda0", "lambda1"])
        for entry in report.modes:
            writer.writerow([entry.m, entry.l, repr(entry.lambda0), repr(entry.lambda1)])
        if report.lambda1_estimate is not None:
            writer.writerow([
                "summary",
                f"lambda1_estimate={report.lambda1_estimate!r}",
                f"bound_rhs={report.bound_rhs!r}",
                f"ccy_lower={report.ccy_lower!r}",
                f"slack={report.slack!r}",
                f"holds={report.holds}",
                f"equality={report.equality}",
            ])
        return buf.getvalue().encode()
    raise ValueError(f"unknown format {format!r}")
