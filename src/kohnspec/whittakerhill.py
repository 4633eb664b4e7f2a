"""Constant-curvature modes: Whittaker-Hill operators and Ince truncations.

When the curvature is a constant kappa, rescaling arc length to the unit
circle turns every mode operator into the Whittaker-Hill operator

    WH_a u = -u'' + (a^2 sin^2(tau) + a cos(tau)) u,    a = sqrt(m^2+l^2)/kappa,

with eigenvalues E related to the original ones by lambda = kappa * E / 2.
The gauge transform u = w * exp(-a cos tau) trades the quadratic potential
for a drift term (the Ince form -w'' - 2a sin(tau) w'), whose restriction
to odd functions is the infinite tridiagonal matrix with diagonal k^2 and
off-diagonal pattern (k, k+1) -> (k+1) a, (k+1, k) -> -k a in the sine
basis.  Eigenvalues of finite truncations converge to those of the full
operator, and the sector-exclusion certificate (diagonal k^2, off-diagonal
products -k(k+1)a^2 <= 0, sum k^-2 < pi^2/6) applies uniformly in the
truncation size with delta = 3/pi, pinning every eigenvalue at E >= 1.
Bendixson's theorem gives Re E >= 1 on its own: each truncation is
diagonally similar to diag(k^2) + i a J with J real symmetric.  That
floor is what makes the circle the equality case of the global bound.
"""

from __future__ import annotations

import functools

import numpy as np

from . import shares
from .eigen import (CertificateResult, Tridiagonal, bendixson_floor, eig_general_tridiagonal,
                    point_in_sector, sector_exclusion_certificate)

#: Sector half-height used in all exclusion sweeps; valid for every
#: truncation size since sum(1/k^2) < pi^2/6 makes (pi/2)/sum > 3/pi.
SECTOR_DELTA = 3.0 / np.pi

#: Real eigenvalues may undershoot the floor E = 1 by at most this.
REAL_FLOOR_TOL = 1e-8

#: Imag parts below this (relative) are eigensolver roundoff on a real eigenvalue.
REAL_PART_TOL = 1e-8

#: Largest truncation size: QL holds about 112 bytes per row (the complex
#: bands, then lists of builtin complex), so this keeps one solve under
#: 120 MB.
MAX_N = 2**20


class CertificateFailed(RuntimeError):
    """A computed eigenvalue landed inside the certified exclusion sector."""


def ince_matrix(a: float, N: int) -> Tridiagonal:
    """N-th principal truncation of the odd-sine-basis drift operator.

    Diagonal k^2 (k = 1..N), entry (k, k+1) = (k+1) a, entry (k+1, k) = -k a.
    """
    if N < 1:
        raise ValueError("N must be >= 1")
    k = np.arange(1, N + 1, dtype=float)
    return Tridiagonal(diag=k**2, upper=(k[:-1] + 1.0) * a, lower=-k[:-1] * a)


def _bottom_eigenvalue(eigs: np.ndarray):
    """Smallest-real-part eigenvalue and whether it is genuinely complex."""
    idx = int(np.argmin(eigs.real))
    z = eigs[idx]
    scale = max(1.0, abs(z))
    return float(z.real), bool(abs(z.imag) > REAL_PART_TOL * scale)


def _floor_row(a: float, N: int) -> dict:
    """One coupling's row of ``verify_E_geq_1``; raises CertificateFailed."""
    tri = ince_matrix(a, N)
    cert: CertificateResult = sector_exclusion_certificate(tri, SECTOR_DELTA)
    eigs = eig_general_tridiagonal(tri)
    hit = None if cert.region is None else next(
        (z for z in eigs if point_in_sector(z, cert.region)), None)
    if hit is not None and cert.hypotheses_ok:
        raise CertificateFailed(
            f"eigenvalue {hit} of the size-{N} truncation at a={a} lies in the excluded sector")
    real_mask = np.abs(eigs.imag) <= REAL_PART_TOL * np.maximum(1.0, np.abs(eigs))
    reals = eigs.real[real_mask]
    floor_ok = bool(reals.size == 0 or reals.min() >= 1.0 - REAL_FLOOR_TOL)
    bottom, is_complex = _bottom_eigenvalue(eigs)
    bendixson = bendixson_floor(tri)
    return {
        "a": a,
        "N": N,
        "E1": bottom,
        "complex_bottom": is_complex,
        "hypotheses_ok": cert.hypotheses_ok,
        "bendixson_floor": bendixson,
        "in_sector": hit is not None,
        "pass": bool(cert.hypotheses_ok and floor_ok and bendixson is not None
                     and bendixson >= 1.0),
    }


def _share_rows(a_values, N: int, start: int, step: int):
    """Rows of the couplings start, start + step, ... and the share's failure.

    The failure is (index, exception) of the first coupling that raised,
    None if none did; the share stops there.
    """
    rows = []
    for index in range(start, len(a_values), step):
        try:
            rows.append(_floor_row(a_values[index], N))
        except Exception as exc:
            return rows, (index, exc)
    return rows, None


def verify_E_geq_1(a_values, N: int = 60) -> dict:
    """Certify the spectral floor E >= 1 for a sweep of couplings.

    For each coupling: check the sector-certificate hypotheses on the
    truncation, compute its eigenvalues, record whether any lies in the
    sector (``in_sector``), raising CertificateFailed when one does while
    the hypotheses hold, and check every real eigenvalue against the floor
    1 - 1e-8.  Beside that, Bendixson's floor (``eigen.bendixson_floor``,
    min diag = 1 for every truncation, None if its hypothesis fails)
    bounds Re E below without the spectrum; a row passes only if it is at
    least 1 too.  Returns {"all_pass": bool, "table": rows}, one row per
    coupling in the given order.

    The couplings are independent, so ``shares.interleaved`` splits them
    into interleaved shares a_values[w::workers], one per CPU this process
    may run on and at least two couplings each; shares past the first run
    in forked children.  The rows are the same bits as a run in one
    process, and of the couplings that raise, the first one's exception is
    raised, as a run in one process would raise it.  Without ``os.fork``,
    while another Python thread runs, with one CPU or with fewer than four
    couplings, everything runs in this process.
    """
    if not 1 <= N <= MAX_N:
        raise ValueError(f"N must be from 1 to {MAX_N}, got {N}")
    a_values = [float(a) for a in a_values]
    table = shares.interleaved(functools.partial(_share_rows, a_values, N), len(a_values), 2)
    return {"all_pass": all(row["pass"] for row in table), "table": table}
