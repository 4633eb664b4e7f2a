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

import os
import pickle
import signal
import threading
from dataclasses import dataclass

import numpy as np

from .eigen import (CertificateResult, Tridiagonal, bendixson_floor, eig_general_tridiagonal,
                    point_in_sector, sector_exclusion_certificate)

#: Sector half-height used in all exclusion sweeps; valid for every
#: truncation size since sum(1/k^2) < pi^2/6 makes (pi/2)/sum > 3/pi.
SECTOR_DELTA = 3.0 / np.pi

#: Real eigenvalues may undershoot the floor E = 1 by at most this.
REAL_FLOOR_TOL = 1e-8

#: Imag parts below this (relative) are eigensolver roundoff on a real eigenvalue.
REAL_PART_TOL = 1e-8


class CertificateFailed(RuntimeError):
    """A computed eigenvalue landed inside the certified exclusion sector."""


@dataclass(frozen=True)
class WHParameters:
    """Coupling of the rescaled constant-curvature mode problem."""

    a: float
    kappa: float = 1.0

    def __post_init__(self):
        if self.a < 0:
            raise ValueError("coupling a must be nonnegative")
        if self.kappa <= 0:
            raise ValueError("kappa must be positive")

    def eigenvalue_from_E(self, E: float) -> float:
        """Map a rescaled eigenvalue E back to the mode operator: kappa*E/2."""
        return self.kappa * E / 2.0

    def E_from_eigenvalue(self, lam: float) -> float:
        return 2.0 * lam / self.kappa


def mode_to_wh(kappa: float, mode) -> WHParameters:
    """Rescaled coupling a = sqrt(m^2 + l^2) / kappa of a mode on a circle."""
    if kappa <= 0:
        raise ValueError("kappa must be positive")
    m, l = mode
    return WHParameters(a=float(np.hypot(m, l)) / kappa, kappa=float(kappa))


def _wh_transport(a: float, n: int):
    """Grid step h, kernel exponent -a cos(tau) and transport factors r.

    r_i = exp of the exact increment of -a cos across cell i, so the
    stiffness form sum_i (u_{i+1} - r_i u_i)^2 / r_i / h^2 annihilates the
    sampled kernel exp(-a cos tau) exactly.
    """
    h = 2.0 * np.pi / n
    w_log = -a * np.cos(np.arange(n) * h)
    return h, w_log, np.exp(np.roll(w_log, -1) - w_log)


def _wh_bands(a: float, n: int):
    # transport-factored discretization of -d^2/dtau^2 + a^2 sin^2 + a cos
    h, _, r = _wh_transport(a, n)
    diag = (r + np.roll(1.0 / r, 1)) / h**2
    off = np.full(n - 1, -1.0 / h**2)
    corner = -1.0 / h**2
    return diag, off, corner


def wh_spectrum(params, n: int = 1024, k: int = 2) -> np.ndarray:
    """First k eigenvalues E of the 2pi-periodic Whittaker-Hill operator.

    ``params`` is a WHParameters or a bare coupling a >= 0.  The grid must
    be even with n >= 64.  The ground state goes through the shared
    zero-mode certificate (``modes.certified_spectra``), which raises
    GridTooCoarse naming the coupling if it fails; E_0 is then the
    factored Rayleigh quotient of the sampled kernel exp(-a cos tau), zero
    up to roundoff.
    """
    a = params.a if isinstance(params, WHParameters) else float(params)
    if a < 0:
        raise ValueError("coupling a must be nonnegative")
    if n < 64 or n % 2:
        raise ValueError(f"grid must be even with n >= 64, got {n}")
    if k < 1:
        raise ValueError("k must be >= 1")
    from .modes import certified_spectra

    diag, off, corner = _wh_bands(a, n)
    upper = certified_spectra(diag[:, None], off[:, None], [corner], k, [f"coupling a={a}"])
    h, w_log, r = _wh_transport(a, n)
    u = np.exp(w_log - w_log.max())
    E0 = np.sum((np.roll(u, -1) - r * u) ** 2 / r) / h**2 / np.sum(u**2)
    return np.concatenate([[E0], upper[0]])


def ince_matrix(a: float, N: int) -> Tridiagonal:
    """N-th principal truncation of the odd-sine-basis drift operator.

    Diagonal k^2 (k = 1..N), entry (k, k+1) = (k+1) a, entry (k+1, k) = -k a.
    """
    if N < 1:
        raise ValueError("N must be >= 1")
    k = np.arange(1, N + 1, dtype=float)
    return Tridiagonal(diag=k**2, upper=(k[:-1] + 1.0) * a, lower=-k[:-1] * a)


def ince_eigenvalues(a: float, N: int) -> np.ndarray:
    """All eigenvalues of the truncation, complex, sorted by (re, im)."""
    return eig_general_tridiagonal(ince_matrix(a, N))


def _bottom_eigenvalue(eigs: np.ndarray):
    """Smallest-real-part eigenvalue and whether it is genuinely complex."""
    idx = int(np.argmin(eigs.real))
    z = eigs[idx]
    scale = max(1.0, abs(z))
    return float(z.real), bool(abs(z.imag) > REAL_PART_TOL * scale)


def truncation_convergence(a: float, N_list) -> list:
    """Bottom eigenvalue of the truncations for each N, in order.

    Rows carry the real part and a flag for complex bottom pairs (seen only
    at very small N); successive differences shrink to the roundoff floor.
    """
    N_list = [int(N) for N in N_list]
    if any(n2 <= n1 for n1, n2 in zip(N_list, N_list[1:])):
        raise ValueError("truncation sizes must be strictly increasing")
    rows = []
    for N in N_list:
        bottom, is_complex = _bottom_eigenvalue(ince_eigenvalues(a, N))
        rows.append({"N": N, "E1": bottom, "complex_pair": is_complex})
    return rows


def convergence_differences(rows) -> list:
    return [abs(r2["E1"] - r1["E1"]) for r1, r2 in zip(rows, rows[1:])]


def _floor_row(a: float, N: int, delta: float) -> dict:
    """One coupling's row of ``verify_E_geq_1``; raises CertificateFailed."""
    tri = ince_matrix(a, N)
    cert: CertificateResult = sector_exclusion_certificate(tri, delta)
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


def _share_rows(a_values, N: int, delta: float, start: int, step: int):
    """Rows of the couplings start, start + step, ... and the share's failure.

    The failure is (index, exception) of the first coupling that raised,
    None if none did; the share stops there.
    """
    rows = []
    for index in range(start, len(a_values), step):
        try:
            rows.append(_floor_row(a_values[index], N, delta))
        except Exception as exc:
            return rows, (index, exc)
    return rows, None


def _worker_count(couplings: int) -> int:
    """CPUs this process may run on, at most one per two couplings.

    One without fork, or while another Python thread runs: a forked child
    keeps only the calling thread, and locks the others held stay taken.
    """
    if not hasattr(os, "fork") or not hasattr(os, "sched_getaffinity") \
            or threading.active_count() > 1:
        return 1
    return max(1, min(len(os.sched_getaffinity(0)), couplings // 2))


def _child_share(read_fd: int, write_fd: int, a_values, N: int, delta: float,
                 share: int, workers: int):
    """In a forked child: pickle one share's result to the pipe and exit.

    ``os._exit`` never returns into the caller and never flushes stdio
    buffers copied from the parent.  The exit status is 0 only once the
    whole result is written.
    """
    code = 1
    try:
        os.close(read_fd)
        with open(write_fd, "wb") as pipe:
            pipe.write(pickle.dumps(_share_rows(a_values, N, delta, share, workers)))
        code = 0
    finally:
        os._exit(code)


def _run_shares(a_values, N: int, delta: float, workers: int) -> list:
    """``_share_rows`` of each interleaved share a_values[w::workers].

    Share 0 runs in this process, every other share in a forked child that
    pickles its result to a pipe.  All pipes are read to their end and all
    children reaped before anything is returned or raised; if this process
    is interrupted, it kills and reaps its children first.
    """
    pipes = {}  # pid -> read end, until it is read
    live = []  # forked and not yet reaped
    payloads, statuses = [], []
    try:
        for share in range(1, workers):
            read_fd, write_fd = os.pipe()
            try:
                pid = os.fork()
            except BaseException:
                os.close(read_fd)
                os.close(write_fd)
                raise
            if pid == 0:
                _child_share(read_fd, write_fd, a_values, N, delta, share, workers)
            live.append(pid)
            pipes[pid] = read_fd
            os.close(write_fd)
        shares = [_share_rows(a_values, N, delta, 0, workers)]
        for pid in live:
            with open(pipes.pop(pid), "rb") as pipe:
                payloads.append(pipe.read())
        while live:
            statuses.append(os.waitpid(live[0], 0)[1])
            live.pop(0)
    except BaseException:
        for pid in live:
            os.kill(pid, signal.SIGKILL)
        for pid in live:
            os.waitpid(pid, 0)
        raise
    finally:
        for fd in pipes.values():
            os.close(fd)
    for share, (payload, status) in enumerate(zip(payloads, statuses), start=1):
        if status != 0 or not payload:
            raise RuntimeError(f"the worker for share {share} of the coupling sweep did not "
                               f"return its result (wait status {status})")
        shares.append(pickle.loads(payload))
    return shares


def verify_E_geq_1(a_values, N: int = 60, delta: float = SECTOR_DELTA) -> dict:
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

    The couplings are independent, so they are split into interleaved
    shares a_values[w::workers], one per CPU this process may run on and
    at least two couplings each.  This process computes share 0; each
    other share runs in a forked child and comes back pickled through a
    pipe.  The rows are the same bits as a run in one process, and of the
    couplings that raise, the first one's exception is raised, as a run in
    one process would raise it.  Without ``os.fork``, while another Python
    thread runs, with one CPU or with fewer than four couplings, everything
    runs in this process.
    """
    if N < 1:
        raise ValueError("N must be >= 1")
    a_values = [float(a) for a in a_values]
    workers = _worker_count(len(a_values))
    shares = _run_shares(a_values, N, delta, workers)
    failures = [failure for _, failure in shares if failure is not None]
    if failures:
        raise min(failures, key=lambda failure: failure[0])[1]
    table = [shares[i % workers][0][i // workers] for i in range(len(a_values))]
    return {"all_pass": all(row["pass"] for row in table), "table": table}
