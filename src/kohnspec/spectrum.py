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
from dataclasses import dataclass

import numpy as np

from .curve import GeneratingCurve, geometric_invariants, webster_scalar_curvature
from .modes import ModeIndex, mode_spectra

#: Slack tolerance, relative to bound_rhs, when checking lambda_1 <= bound_rhs.
BOUND_TOL = 1e-6

#: |slack| below this times bound_rhs (plus constant curvature) flags the
#: equality case: at grid 512 a circle's slack is 1.25e-5 of its bound.
EQUALITY_TOL = 1e-4

#: Relative curvature variance below this counts as "constant curvature".
KAPPA_VARIANCE_TOL = 1e-10

#: Largest grid x modes of a sweep: the (grid, modes) diagonal bands take
#: 8 bytes an entry, and so does the one inertia-kernel workspace the
#: batch owns, grid x the columns of the sweep's largest call, up to about
#: three columns a mode, so this keeps each under 100 MiB.
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
    modes: list
    lambda1_estimate: float
    bound_rhs: float
    ccy_lower: float
    slack: float
    holds: bool
    equality: bool
    argmin_mode: tuple


def ccy_lower_bound(curve: GeneratingCurve) -> float:
    """Half the minimum of the scalar curvature samples."""
    return 0.5 * float(np.min(webster_scalar_curvature(curve)))


def _kappa_variance(curve: GeneratingCurve) -> float:
    mean = curve.kappa.mean()
    return float(np.var(curve.kappa) / mean**2)


def lambda1_kohn(curve: GeneratingCurve, window: ModeWindow) -> SpectrumReport:
    """Sweep the mode window and report the minimal first positive eigenvalue.

    The (0, 0) mode is always part of the window.  A window whose modes
    times the grid exceed MAX_BAND_ENTRIES is a ValueError, raised before
    its modes are built.
    """
    count = (2 * window.m_max + 1) * (2 * window.l_max + 1)
    if curve.n * count > MAX_BAND_ENTRIES:
        raise ValueError(
            f"window ({window.m_max}, {window.l_max}) at grid {curve.n} needs {count} "
            f"modes x {curve.n} = {count * curve.n} band entries, more than "
            f"{MAX_BAND_ENTRIES}")
    modes = list(window.modes())
    entries = [ModeEigenvalues(mode.m, mode.l, float(lam0), float(lam1))
               for mode, (lam0, lam1) in zip(modes, mode_spectra(curve, modes, k=2))]
    best_entry = min(entries, key=lambda entry: entry.lambda1)
    invariants = geometric_invariants(curve)
    bound_rhs = invariants["bound_rhs"]
    slack = bound_rhs - best_entry.lambda1
    return SpectrumReport(
        curve_summary=invariants,
        grid=curve.n,
        window=(window.m_max, window.l_max),
        modes=entries,
        lambda1_estimate=best_entry.lambda1,
        bound_rhs=bound_rhs,
        ccy_lower=ccy_lower_bound(curve),
        slack=slack,
        holds=best_entry.lambda1 <= bound_rhs + BOUND_TOL * bound_rhs,
        equality=bool(abs(slack) < EQUALITY_TOL * bound_rhs
                      and _kappa_variance(curve) < KAPPA_VARIANCE_TOL),
        argmin_mode=(best_entry.m, best_entry.l),
    )


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
        "argmin_mode": list(report.argmin_mode),
        "window_caveat": WINDOW_CAVEAT,
    }


def emit_report(report: SpectrumReport, format: str = "json") -> bytes:
    """Serialize a report deterministically (same report, same bytes).

    JSON keeps the field order of the report and ends with the window
    caveat; CSV emits one row per mode followed by a summary footer row.
    """
    if format == "json":
        return (json.dumps(_report_payload(report), indent=2) + "\n").encode()
    if format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["m", "l", "lambda0", "lambda1"])
        for entry in report.modes:
            writer.writerow([entry.m, entry.l, repr(entry.lambda0), repr(entry.lambda1)])
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
