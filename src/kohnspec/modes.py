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

import functools
import math
from typing import NamedTuple

import numpy as np

from . import shares
from .curve import GeneratingCurve, periodic_quadrature
from .eigen import GridTooCoarse, certified_spectra


class ModeIndex(NamedTuple):
    m: int
    l: int


#: Modes whose bands and lambda_0 ``mode_spectra`` builds together, as
#: (chunk, n) arrays.  For 289 modes at n = 512 that takes about 6 ms,
#: against 40 ms one mode at a time and 16 ms for the whole window at once,
#: which also holds several (modes, n) temporaries.
_CHUNK = 32


def _log_kernel(curve: GeneratingCurve, m, l) -> np.ndarray:
    """l*eta + m*xi, the log of the kernel; (n,) for one mode, (P, n) for
    (P, 1) arrays of indices."""
    return l * curve.eta + m * curve.xi


#: Largest exponent of a transport factor: r and 1/r stay within 2^(+-512),
#: so the bands, the kernel and its Rayleigh quotient are finite with
#: room to spare.
MAX_TRANSPORT_EXPONENT = 512 * math.log(2)


def _check_transport(curve: GeneratingCurve, modes) -> None:
    """ValueError naming the grid and the first of ``modes`` whose transport
    factors may leave exp(+-MAX_TRANSPORT_EXPONENT), before any is built.

    Each exponent l (eta_{i+1} - eta_i) + m (xi_{i+1} - xi_i) is at most
    hypot(m, l) times the longest chord between neighbouring nodes.
    """
    chord = float(np.hypot(np.roll(curve.xi, -1) - curve.xi,
                           np.roll(curve.eta, -1) - curve.eta).max())
    for m, l in modes:
        exponent = math.hypot(m, l) * chord
        if not exponent <= MAX_TRANSPORT_EXPONENT:
            raise ValueError(
                f"mode ({m}, {l}) at grid {curve.n} is not resolved: its transport factors "
                f"may reach exp({exponent:.6g}), beyond exp({MAX_TRANSPORT_EXPONENT:.6g}) "
                f"= 2^512; use a finer grid or a smaller window")


def _transport_factors(w_log) -> np.ndarray:
    """r_i = exp of the exact increment of l*eta + m*xi across cell i."""
    return np.exp(np.roll(w_log, -1, axis=-1) - w_log)


def _diag_band(curve: GeneratingCurve, r) -> np.ndarray:
    """Diagonal of the whitened operator from its transport factors (last axis)."""
    h = curve.grid_spacing
    w = 1.0 / np.sqrt(curve.kappa * h)
    return (r + np.roll(1.0 / r, 1, axis=-1)) / (2.0 * h) * w * w


def _coupling_bands(curve: GeneratingCurve):
    """Off-diagonal and corner of the whitened operator, the same for every mode."""
    h = curve.grid_spacing
    w = 1.0 / np.sqrt(curve.kappa * h)
    return np.full(curve.n - 1, -1.0 / (2.0 * h)) * w[:-1] * w[1:], -1.0 / (2.0 * h) * w[0] * w[-1]


def assemble_bands(curve: GeneratingCurve, mode):
    """Banded symmetric form of the whitened operator.

    Returns (diag, offdiag, corner) of M^{-1/2} S M^{-1/2}, where S is the
    factored stiffness and M = diag(kappa h).  The matrix couples only
    neighbours plus the periodic wrap, so its bands are all there is.
    ValueError if the mode fails ``_check_transport``.
    """
    mode = ModeIndex(*mode)
    _check_transport(curve, [mode])
    r = _transport_factors(_log_kernel(curve, *mode))
    return (_diag_band(curve, r), *_coupling_bands(curve))


def _window_bands(curve: GeneratingCurve, modes):
    """Bands of the modes' matrices, one per column, and each mode's lambda_0.

    Returns diag (n, P), offdiag (n-1, 1), the coupling every mode shares,
    corner (P,) and lambda_0 (P,), the kernel's Rayleigh quotient; the
    diagonals and lambda_0 are built _CHUNK modes at a time, as (chunk, n)
    arrays.
    """
    index = np.array(modes).reshape(-1, 2)
    diag = np.empty((curve.n, len(index)))
    lam0 = np.empty(len(index))
    for j in range(0, len(index), _CHUNK):
        w_log = _log_kernel(curve, index[j:j + _CHUNK, :1], index[j:j + _CHUNK, 1:])
        r = _transport_factors(w_log)
        diag[:, j:j + _CHUNK] = _diag_band(curve, r).T
        lam0[j:j + _CHUNK] = _quotient(curve, r, _kernel(curve, w_log))
    off, corner = _coupling_bands(curve)
    return diag, off[:, None], np.full(len(index), corner), lam0


#: Fewest modes per share of ``mode_spectra``.  Each share pays the
#: kernel's fixed cost per call in full, and a fork about 3 ms: on 2 CPUs
#: at grid 512, two shares break even with one process at about 121 modes
#: (79 ms), and win from there (85 against 96 ms at 169 modes, 102
#: against 124 ms at 289).
_SHARE_MODES = 64


def _share_spectra(curve: GeneratingCurve, modes, k: int, start: int, step: int):
    """``mode_spectra`` rows of modes[start::step] and the share's failure.

    The failure is (index in ``modes``, GridTooCoarse) of the first mode of
    the share that fails the certificate, None if none does.
    """
    mine = modes[start::step]
    diag, off, corner, lam0 = _window_bands(curve, mine)
    try:
        upper = certified_spectra(diag, off, corner, k, [f"mode {tuple(mode)}" for mode in mine])
    except GridTooCoarse as exc:
        return None, (start + step * exc.index, exc)
    return np.column_stack([lam0, upper]), None


def mode_spectra(curve: GeneratingCurve, modes, k: int = 2) -> np.ndarray:
    """First k eigenvalues of each mode operator, ascending; one row per mode.

    The diagonals of the modes are stored once, as an (n, modes) array,
    beside the one coupling they share, and go through
    ``certified_spectra``: the zero mode is certified by inertia, not
    bisected, and lambda_0 is reported as the Rayleigh quotient of the
    sampled kernel, which the factored discretization annihilates up to
    roundoff.  The modes are independent, so ``shares.interleaved`` splits
    them into interleaved shares modes[w::workers], one per CPU and at
    least _SHARE_MODES modes each, shares past the first in forked
    children; the rows are the same bits as in one process.
    GridTooCoarse names the first mode, in the given order, that fails
    the certificate; a ValueError the first that fails
    ``_check_transport``, which runs here, before the shares fork.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    modes = [ModeIndex(*mode) for mode in modes]
    _check_transport(curve, modes)
    if not modes:
        return np.empty((0, k))
    return np.array(shares.interleaved(functools.partial(_share_spectra, curve, modes, k),
                                       len(modes), _SHARE_MODES))


def kernel_function(curve: GeneratingCurve, mode) -> np.ndarray:
    """Samples of exp(l eta + m xi), normalized to unit weighted norm.

    The exponent is shifted by its maximum before exponentiating; the shift
    is absorbed by the normalization integral(v^2 kappa ds) = 1.
    """
    return _kernel(curve, _log_kernel(curve, *ModeIndex(*mode)))


def _kernel(curve: GeneratingCurve, w_log) -> np.ndarray:
    v = np.exp(w_log - w_log.max(axis=-1, keepdims=True))
    norm_sq = periodic_quadrature(v**2 * curve.kappa, curve.length)
    return v / np.sqrt(norm_sq)[..., None]


def rayleigh_quotient(curve: GeneratingCurve, mode, values) -> float:
    """Discrete Rayleigh quotient of a sample vector in the weighted space.

    Evaluates the factored stiffness form directly, so the sampled kernel
    returns zero up to roundoff.  ValueError if the mode fails
    ``_check_transport``.
    """
    u = np.asarray(values, dtype=float)
    if len(u) != curve.n:
        raise ValueError("sample count must match the curve grid")
    mode = ModeIndex(*mode)
    _check_transport(curve, [mode])
    return float(_quotient(curve, _transport_factors(_log_kernel(curve, *mode)), u))


def _quotient(curve: GeneratingCurve, r, u):
    # the factored form over the last axis, for one mode or a stack of them
    h = curve.grid_spacing
    diff = np.roll(u, -1, axis=-1) - r * u
    return (np.sum(diff**2 / r, axis=-1) / (2.0 * h)) / (np.sum(u**2 * curve.kappa, axis=-1) * h)
