"""Correctness gates for the benchmark's CLI outputs, run outside the timed region.

Each check returns a list of problems; an empty list means the output
passed.  The eigenvalues are recomputed with LAPACK (``numpy.linalg``)
or ARPACK (``scipy.sparse.linalg``), never with the program's own solvers.
"""

from __future__ import annotations

import csv
import io
import json

import numpy as np

from kohnspec.curve import curve_from_spec
from kohnspec.eigen import point_in_sector, sector_exclusion_certificate
from kohnspec.modes import assemble_bands
from kohnspec.whittakerhill import ince_matrix

#: Report rows must carry a zero mode: |lambda0| < this * max(1, lambda1).
ZERO_MODE_TOL = 1e-6

#: Agreement of reported and oracle eigenvalues, relative to max(1, |lambda1|).
EIGEN_REL_TOL = 1e-9

#: Grids up to this size are solved densely; larger ones by shift-invert.
DENSE_MAX_N = 1024

#: Shift-invert target below the nonnegative spectrum, so the two
#: eigenvalues nearest to it are the two smallest.
SHIFT = -0.5

#: wh-sweep defaults: couplings linspace(0, 10, 41) at truncation size 60.
WH_COUPLINGS = np.linspace(0.0, 10.0, 41)
WH_N = 60

#: Real parts of E may undershoot the floor 1 by at most this.
WH_FLOOR_TOL = 1e-8

#: Sector half-height of the paper's certificate, valid at every truncation size.
WH_SECTOR_DELTA = 3.0 / np.pi


def _bottom_pair(diag, off, corner) -> np.ndarray:
    """The two smallest eigenvalues of the band-plus-corner symmetric matrix."""
    n = len(diag)
    if n <= DENSE_MAX_N:
        a = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)
        a[0, n - 1] += corner
        a[n - 1, 0] += corner
        return np.linalg.eigvalsh(a)[:2]
    from scipy.sparse import diags
    from scipy.sparse.linalg import eigsh
    a = diags([off, diag, off], [-1, 0, 1], format="lil")
    a[0, n - 1] += corner
    a[n - 1, 0] += corner
    vals = eigsh(a.tocsc(), k=2, sigma=SHIFT, which="LM", return_eigenvectors=False)
    return np.sort(vals)


def check_analyze(data: bytes, spec: dict, grid: int, window) -> list:
    """Gate one ``kohnspec analyze`` JSON report for a nonconstant-curvature curve."""
    try:
        report = json.loads(data)
        rows = report["modes"]
        estimate = report["lambda1_estimate"]
        argmin = tuple(report["argmin_mode"])
        problems = []
        if report["holds"] is not True:
            problems.append("holds is not true")
        if report["equality"] is not False:
            problems.append("equality is not false for a nonconstant curvature")
        if report["grid"] != grid or report["window"] != list(window):
            problems.append(f"report is for grid {report['grid']}, window {report['window']}")
        if len(rows) != (2 * window[0] + 1) * (2 * window[1] + 1):
            problems.append(f"report has {len(rows)} mode rows")
        for row in rows:
            if not abs(row["lambda0"]) < ZERO_MODE_TOL * max(1.0, row["lambda1"]):
                problems.append(f"mode ({row['m']}, {row['l']}) has lambda0={row['lambda0']!r}")
        if not report["ccy_lower"] <= estimate:
            problems.append(f"ccy_lower {report['ccy_lower']!r} exceeds lambda1_estimate")
        best = min(rows, key=lambda row: row["lambda1"])
        if estimate != best["lambda1"] or argmin != (best["m"], best["l"]):
            problems.append("lambda1_estimate or argmin_mode is not the window minimum")
        row = next(row for row in rows if (row["m"], row["l"]) == argmin)
    except (ValueError, KeyError, TypeError, StopIteration) as exc:
        return [f"malformed report: {exc!r}"]
    want = _bottom_pair(*assemble_bands(curve_from_spec(spec, grid=grid), argmin))
    scale = max(1.0, abs(want[1]))
    for got, ref, label in zip((row["lambda0"], row["lambda1"]), want, ("lambda0", "lambda1")):
        if not abs(got - ref) <= EIGEN_REL_TOL * scale:
            problems.append(f"{label} of mode {argmin} is {got!r}, oracle says {float(ref)!r}")
    return problems


def check_wh_sweep(data: bytes) -> list:
    """Gate one ``kohnspec wh-sweep`` CSV table produced with default arguments."""
    try:
        rows = list(csv.DictReader(io.StringIO(data.decode())))
        parsed = [(float(r["a"]), int(r["N"]), float(r["E1"]), r["in_sector"], r["pass"])
                  for r in rows]
    except (ValueError, KeyError, TypeError, UnicodeDecodeError) as exc:
        return [f"malformed sweep table: {exc!r}"]
    if len(parsed) != len(WH_COUPLINGS):
        return [f"sweep table has {len(parsed)} rows, expected {len(WH_COUPLINGS)}"]
    problems = []
    for (a, n, e1, in_sector, passed), want_a in zip(parsed, WH_COUPLINGS):
        if a != want_a or n != WH_N or passed != "True":
            problems.append(f"row a={a!r}, N={n}: pass={passed}")
            continue
        tri = ince_matrix(a, n)
        eigs = np.linalg.eigvals(tri.to_dense())
        bottom = float(eigs.real.min())
        if not abs(e1 - bottom) <= EIGEN_REL_TOL * max(1.0, abs(bottom)):
            problems.append(f"a={a!r}: E1={e1!r}, oracle says {bottom!r}")
        if not e1 >= 1.0 - WH_FLOOR_TOL:
            problems.append(f"a={a!r}: E1={e1!r} is below the floor 1")
        cert = sector_exclusion_certificate(tri, WH_SECTOR_DELTA)
        if not cert.hypotheses_ok:
            problems.append(f"a={a!r}: sector hypotheses fail: {cert.failures}")
            continue
        oracle_in_sector = any(point_in_sector(z, cert.region) for z in eigs)
        if oracle_in_sector or in_sector != str(oracle_in_sector):
            problems.append(f"a={a!r}: in_sector={in_sector}, oracle says {oracle_in_sector}")
    return problems
