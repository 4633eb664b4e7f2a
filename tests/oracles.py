"""Reference computations that the tests compare the library against.

* ``periodic_dense``: the dense symmetric matrix of periodic bands, for
  ``numpy.linalg.eigvalsh``.
* ``wh_spectrum``: the direct discretization of the 2pi-periodic
  Whittaker-Hill operator, the third method of the cross-method oracle
  (mode sweep, Ince truncation, direct solve) for constant curvature.  A
  mode (m, l) on a circle of curvature kappa is the Whittaker-Hill
  operator at a = hypot(m, l) / kappa, with lambda = kappa * E / 2.
* ``eig_sym_tridiagonal`` and ``householder_eigenvalues``: whole symmetric
  spectra through the library's QL kernel (after its Householder
  reduction), for the tests of those two kernels.
* ``inertia_counts``: the inertia kernel's counts of a batch at many
  shifts per matrix, in one kernel call.
"""

import numpy as np

from kohnspec.eigen import _householder_tridiagonalize, _periodic_inertia, certified_spectra
from kohnspec.whittakerhill import _ql_eigenvalues


def periodic_dense(diag, offdiag, corner) -> np.ndarray:
    """Dense symmetric matrix with bands (diag, offdiag) and corner (0, n-1)."""
    a = np.diag(diag) + np.diag(offdiag, 1) + np.diag(offdiag, -1)
    a[0, -1] += corner
    a[-1, 0] += corner
    return a


def wh_transport(a: float, n: int):
    """Grid step h, kernel exponent -a cos(tau) and transport factors r.

    r_i = exp of the exact increment of -a cos across cell i, so the
    stiffness form sum_i (u_{i+1} - r_i u_i)^2 / r_i / h^2 annihilates the
    sampled kernel exp(-a cos tau) exactly.
    """
    h = 2.0 * np.pi / n
    w_log = -a * np.cos(np.arange(n) * h)
    return h, w_log, np.exp(np.roll(w_log, -1) - w_log)


def wh_bands(a: float, n: int):
    """Transport-factored discretization of -d^2/dtau^2 + a^2 sin^2 + a cos."""
    h, _, r = wh_transport(a, n)
    diag = (r + np.roll(1.0 / r, 1)) / h**2
    off = np.full(n - 1, -1.0 / h**2)
    corner = -1.0 / h**2
    return diag, off, corner


def wh_spectrum(a: float, n: int = 1024, k: int = 2) -> np.ndarray:
    """First k eigenvalues E of the 2pi-periodic Whittaker-Hill operator.

    The coupling is a >= 0 and the grid even with n >= 64.  The ground
    state goes through the library's zero-mode certificate
    (``eigen.certified_spectra``), which raises GridTooCoarse naming the
    coupling if it fails; E_0 is then the factored Rayleigh quotient of the
    sampled kernel exp(-a cos tau), zero up to roundoff.
    """
    a = float(a)
    if a < 0:
        raise ValueError("coupling a must be nonnegative")
    if n < 64 or n % 2:
        raise ValueError(f"grid must be even with n >= 64, got {n}")
    if k < 1:
        raise ValueError("k must be >= 1")
    diag, off, corner = wh_bands(a, n)
    upper = certified_spectra(diag[:, None], off[:, None], [corner], k, [f"coupling a={a}"])
    h, w_log, r = wh_transport(a, n)
    u = np.exp(w_log - w_log.max())
    E0 = np.sum((np.roll(u, -1) - r * u) ** 2 / r) / h**2 / np.sum(u**2)
    return np.concatenate([[E0], upper[0]])


def eig_sym_tridiagonal(d, e) -> np.ndarray:
    """Eigenvalues of the symmetric tridiagonal (d, e) by the QL kernel, ascending."""
    return np.sort(np.asarray(_ql_eigenvalues(d, e)).real)


def householder_eigenvalues(a) -> np.ndarray:
    """Eigenvalues of a dense symmetric matrix, ascending: Householder, then QL."""
    return eig_sym_tridiagonal(*_householder_tridiagonalize(a))


def inertia_counts(bands, shifts) -> np.ndarray:
    """Eigenvalues of each matrix of the batch ``bands`` below each shift.

    Row i of ``shifts`` holds one shift per matrix; every (matrix, shift)
    pair is one column of a single ``_periodic_inertia`` call.
    """
    x = np.asarray(shifts, dtype=float)
    cols = np.tile(np.arange(x.shape[1]), x.shape[0])
    work = np.empty(bands.diag.shape[0] * x.size)
    return _periodic_inertia(bands.take(cols, work), x.ravel())[0].reshape(x.shape)
