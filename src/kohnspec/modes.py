"""Per-mode periodic Schrodinger operators in the curvature-weighted space.

Separating the torus directions with Fourier indices (m, l) reduces the
Laplacian on the hypersurface to the family of one-dimensional operators

    (1 / 2 kappa) * (-d^2/ds^2 + V),   V = (l p + m q)^2 + kappa (l q - m p),

acting on length-periodic functions with inner product integral(u v kappa ds).
The potential is exactly w^2 + w' for w = l p + m q, so the operator factors
as one half of (first-order difference) adjoint-times-itself, with kernel
exp(l eta + m xi).

The discretization keeps that factored structure.  With transport factors
r_i = exp(l (eta_{i+1}-eta_i) + m (xi_{i+1}-xi_i)) -- exact increments of
the antiderivative of w -- the stiffness form

    Q(u) = (1/2h) * sum_i (u_{i+1} - r_i u_i)^2 / r_i

is second-order consistent with (1/2) integral (u' - w u)^2 ds
= (1/2) integral (u'^2 + V u^2) ds, reduces to plain central differences
when (m, l) = (0, 0), and annihilates the sampled kernel exactly, so the
zero mode sits at machine precision on every grid.  (Sampling V pointwise
instead leaves an O(h^2) residue under the kernel that a second-order
scheme can never push below roundoff.)  The mass matrix is diag(kappa h).
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .curve import GeneratingCurve, periodic_quadrature
from .eigen import DenseSymmetric, eig_dense_symmetric, eig_periodic_sym_tridiagonal, \
    periodic_eigenvalue_counts


class GridTooCoarse(RuntimeError):
    """The discrete zero mode strayed from zero: the grid cannot resolve the operator."""


class ModeIndex(NamedTuple):
    m: int
    l: int


def potential(curve: GeneratingCurve, mode) -> np.ndarray:
    """Sampled potential (l p + m q)^2 + kappa (l q - m p)."""
    square, curl = potential_parts(curve, mode)
    return square + curl


def potential_parts(curve: GeneratingCurve, mode):
    """The two summands of the potential: (l p + m q)^2 and kappa (l q - m p).

    The first part is quadratic and the second linear in (m, l), which is
    what makes the potential family testable against its own scaling.
    """
    m, l = ModeIndex(*mode)
    w = l * curve.p + m * curve.q
    return w**2, curve.kappa * (l * curve.q - m * curve.p)


def _transport_factors(curve: GeneratingCurve, mode) -> np.ndarray:
    """r_i = exp of the exact increment of l*eta + m*xi across cell i."""
    m, l = ModeIndex(*mode)
    w_log = l * curve.eta + m * curve.xi
    return np.exp(np.roll(w_log, -1) - w_log)


def assemble_bands(curve: GeneratingCurve, mode):
    """Banded symmetric form of the whitened operator.

    Returns (diag, offdiag, corner) of M^{-1/2} S M^{-1/2}, where S is the
    factored stiffness and M = diag(kappa h).  The matrix couples only
    neighbours plus the periodic wrap, so its bands are all there is.
    """
    n = curve.n
    h = curve.grid_spacing
    r = _transport_factors(curve, mode)
    s_diag = (r + np.roll(1.0 / r, 1)) / (2.0 * h)
    s_off = np.full(n - 1, -1.0 / (2.0 * h))
    s_corner = -1.0 / (2.0 * h)
    w = 1.0 / np.sqrt(curve.kappa * h)
    return s_diag * w * w, s_off * w[:-1] * w[1:], s_corner * w[0] * w[-1]


def assemble(curve: GeneratingCurve, mode) -> DenseSymmetric:
    """Dense symmetric matrix whose eigenvalues approximate the mode spectrum."""
    diag, off, corner = assemble_bands(curve, mode)
    n = len(diag)
    a = np.zeros((n, n))
    idx = np.arange(n)
    a[idx, idx] = diag
    a[idx[:-1], idx[1:]] = off
    a[idx[1:], idx[:-1]] = off
    a[0, n - 1] += corner
    a[n - 1, 0] += corner
    return DenseSymmetric(a)


#: Zero-mode acceptance threshold.  ``mode_spectra`` certifies that the
#: zero mode is the only eigenvalue in (-tau, tau) for tau = this; the
#: dense path of ``mode_spectrum`` checks |lambda_0| <= this * max(1, lambda_1).
ZERO_MODE_TOL = 1e-6


def _check_zero_mode(mode: ModeIndex, lam0: float, lam1: float) -> None:
    if abs(lam0) > ZERO_MODE_TOL * max(1.0, lam1):
        raise GridTooCoarse(f"zero mode of mode {tuple(mode)} came out as {lam0:.3e}")


def mode_spectra(curve: GeneratingCurve, modes, k: int = 2) -> np.ndarray:
    """First k eigenvalues of each mode operator, ascending; one row per mode.

    The bands of all modes are stored once, as (n, modes) arrays.  The
    zero mode is not bisected: one inertia pass at the shifts -tau and tau,
    tau = ZERO_MODE_TOL, certifies for every mode that exactly one
    eigenvalue lies in (-tau, tau) (Sylvester's law of inertia), and
    lambda_0 is reported as the Rayleigh quotient of the sampled kernel,
    which the factored discretization annihilates up to roundoff.
    GridTooCoarse names the first mode, in the given order, that fails the
    certificate.  The eigenvalues from lambda_1 on are then bisected in one
    batch, with tau as the lower end of every bracket.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    modes = [ModeIndex(*mode) for mode in modes]
    if not modes:
        return np.empty((0, k))
    diag = np.empty((curve.n, len(modes)))
    off = np.empty((curve.n - 1, len(modes)))
    corner = np.empty(len(modes))
    for j, mode in enumerate(modes):
        diag[:, j], off[:, j], corner[j] = assemble_bands(curve, mode)
    tau = np.full(len(modes), ZERO_MODE_TOL)
    low, high = periodic_eigenvalue_counts(diag, off, corner, np.stack([-tau, tau]))
    failed = np.flatnonzero((low != 0) | (high != 1))
    if len(failed):
        j = failed[0]
        raise GridTooCoarse(
            f"zero mode of mode {tuple(modes[j])} is not isolated: "
            f"{low[j]} eigenvalue(s) below -{ZERO_MODE_TOL:.0e} and "
            f"{high[j] - low[j]} in [-{ZERO_MODE_TOL:.0e}, {ZERO_MODE_TOL:.0e})")
    vals = np.empty((len(modes), k))
    vals[:, 0] = [rayleigh_quotient(curve, mode, kernel_function(curve, mode)) for mode in modes]
    upper = eig_periodic_sym_tridiagonal(diag, off, corner, k=max(k, 2), start=1,
                                         lower=ZERO_MODE_TOL)
    vals[:, 1:] = upper[:, :k - 1]
    return vals


def mode_spectrum(curve: GeneratingCurve, mode, k: int = 2,
                  method: str = "bisect") -> np.ndarray:
    """First k eigenvalues of the mode operator, ascending.

    The default path is the one-mode case of ``mode_spectra``: lambda_0 is
    the certified zero mode, reported as the Rayleigh quotient of the
    sampled kernel, and the rest come from inertia bisection on the banded
    form.  ``dense`` routes through the full Householder + QL backend
    instead and computes lambda_0 too (the same spectrum, used for
    cross-checks), asserting |lambda_0| <= ZERO_MODE_TOL * max(1, lambda_1).
    GridTooCoarse signals a discretization failure.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if method == "bisect":
        return mode_spectra(curve, [mode], k)[0]
    if method != "dense":
        raise ValueError(f"unknown method {method!r}")
    mode = ModeIndex(*mode)
    vals = eig_dense_symmetric(assemble(curve, mode), k=max(k, 2))
    _check_zero_mode(mode, vals[0], vals[1])
    return vals[:k]


def kernel_function(curve: GeneratingCurve, mode) -> np.ndarray:
    """Samples of exp(l eta + m xi), normalized to unit weighted norm.

    The exponent is shifted by its maximum before exponentiating; the shift
    is absorbed by the normalization integral(v^2 kappa ds) = 1.
    """
    m, l = ModeIndex(*mode)
    w_log = l * curve.eta + m * curve.xi
    v = np.exp(w_log - w_log.max())
    norm_sq = periodic_quadrature(v**2 * curve.kappa, curve.length)
    return v / np.sqrt(norm_sq)


def rayleigh_quotient(curve: GeneratingCurve, mode, values) -> float:
    """Discrete Rayleigh quotient of a sample vector in the weighted space.

    Evaluates the factored stiffness form directly, so the sampled kernel
    returns zero up to roundoff.
    """
    u = np.asarray(values, dtype=float)
    if len(u) != curve.n:
        raise ValueError("sample count must match the curve grid")
    h = curve.grid_spacing
    r = _transport_factors(curve, mode)
    diff = np.roll(u, -1) - r * u
    num = float(np.sum(diff**2 / r) / (2.0 * h))
    den = float(np.sum(u**2 * curve.kappa) * h)
    return num / den
