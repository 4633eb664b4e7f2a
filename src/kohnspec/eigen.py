"""Self-contained eigensolvers for the discretized operators.

Three routes, each matched to a matrix class that actually occurs here:

* dense symmetric matrices: Householder reduction to tridiagonal form
  followed by the implicit-shift QL iteration (eigenvalues only);
* general real tridiagonal matrices, which are non-normal and may carry
  complex spectra: a diagonal similarity to a complex symmetric
  tridiagonal (off-diagonal sqrt(upper * lower)), split where a product
  vanishes, then the same implicit-shift QL in complex arithmetic
  (Cullum & Willoughby), O(n) per sweep;
* symmetric periodic tridiagonal matrices (band plus one wrap-around
  corner): Sturm-type bisection driven by the inertia of the shifted
  LDL^T factorization, O(n) per probe.  One numpy kernel runs the
  recurrence over the rows for a whole batch of (matrix, shift) columns
  at once, which is how the large mode sweeps stay cheap.

This module also hosts the sector-exclusion certificate for tridiagonal
matrices with positive diagonal and nonpositive off-diagonal products:
such a matrix has no eigenvalue in the open sector
{Re z < mu, |Im z| < delta (1 - Re z / mu)} with mu the smallest
diagonal entry, provided 0 < delta <= (pi/2) / sum_k 1/delta_k.
The certificate checks the hypotheses per instance so callers can assert
the exclusion on computed spectra.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np


class NoConvergence(RuntimeError):
    """An eigenvalue iteration hit its sweep cap without deflating."""


# ---------------------------------------------------------------------------
# matrix carriers
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SymTridiagonal:
    """Symmetric tridiagonal matrix: diagonal (n) and off-diagonal (n-1)."""

    diag: np.ndarray
    offdiag: np.ndarray

    def __post_init__(self):
        d = np.asarray(self.diag, dtype=float)
        e = np.asarray(self.offdiag, dtype=float)
        if d.ndim != 1 or e.ndim != 1 or len(e) != max(len(d) - 1, 0):
            raise ValueError("need diag of length n and offdiag of length n-1")
        object.__setattr__(self, "diag", d)
        object.__setattr__(self, "offdiag", e)

    @property
    def n(self) -> int:
        return len(self.diag)

    def to_dense(self) -> np.ndarray:
        return np.diag(self.diag) + np.diag(self.offdiag, 1) + np.diag(self.offdiag, -1)


@dataclass(frozen=True)
class DenseSymmetric:
    """Dense symmetric matrix; symmetry is validated to 1e-12 relative."""

    data: np.ndarray

    def __post_init__(self):
        a = np.array(self.data, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError("matrix must be square")
        scale = np.max(np.abs(a)) if a.size else 0.0
        if scale > 0 and np.max(np.abs(a - a.T)) > 1e-12 * scale:
            raise ValueError("matrix is not symmetric to 1e-12 relative")
        a = 0.5 * (a + a.T)
        a.setflags(write=False)
        object.__setattr__(self, "data", a)

    @property
    def n(self) -> int:
        return self.data.shape[0]


@dataclass(frozen=True)
class Tridiagonal:
    """General real tridiagonal matrix.

    ``upper[k]`` is the entry (k, k+1) and ``lower[k]`` the entry (k+1, k).
    """

    diag: np.ndarray
    upper: np.ndarray
    lower: np.ndarray

    def __post_init__(self):
        d = np.asarray(self.diag, dtype=float)
        up = np.asarray(self.upper, dtype=float)
        lo = np.asarray(self.lower, dtype=float)
        if len(up) != max(len(d) - 1, 0) or len(lo) != max(len(d) - 1, 0):
            raise ValueError("off-diagonals must have length n-1")
        object.__setattr__(self, "diag", d)
        object.__setattr__(self, "upper", up)
        object.__setattr__(self, "lower", lo)

    @property
    def n(self) -> int:
        return len(self.diag)

    def to_dense(self) -> np.ndarray:
        return np.diag(self.diag) + np.diag(self.upper, 1) + np.diag(self.lower, -1)


@dataclass(frozen=True)
class SectorRegion:
    """Open sector {Re z < mu, |Im z| < delta * (1 - Re z / mu)}."""

    mu: float
    delta: float

    def __post_init__(self):
        if not (self.mu > 0 and self.delta > 0):
            raise ValueError("sector parameters must be positive")


@dataclass(frozen=True)
class CertificateResult:
    hypotheses_ok: bool
    region: SectorRegion | None
    failures: tuple = ()


# ---------------------------------------------------------------------------
# QL kernel
# ---------------------------------------------------------------------------


def _tqli_kernel(d, e, max_sweeps):
    """Implicit-shift QL on a complex symmetric tridiagonal (d, e), eigenvalues only.

    ``d`` and ``e`` are complex arrays of length n, e[n-1] being workspace;
    the eigenvalues overwrite ``d``.  The rotations are complex orthogonal
    (c^2 + s^2 = 1, no conjugation), so a real symmetric input stays real
    and the recurrence is the classic tqli one.  Returns 0 on success,
    1 + index of the eigenvalue whose deflation exceeded ``max_sweeps``, or
    -(1 + index) when a rotation met f^2 + g^2 = 0 with (f, g) != 0, where
    no complex orthogonal rotation exists (isotropic breakdown).
    """
    n = d.shape[0]
    eps = 2.220446049250313e-16
    for low in range(n):
        sweeps = 0
        while True:
            m = low
            while m < n - 1:
                dd = abs(d[m]) + abs(d[m + 1])
                if abs(e[m]) <= eps * dd:
                    break
                m += 1
            if m == low:
                break
            sweeps += 1
            if sweeps > max_sweeps:
                return low + 1
            # Wilkinson-type shift: the root of the leading 2x2 nearer d[low]
            g = (d[low + 1] - d[low]) / (2.0 * e[low])
            r = cmath.sqrt(g * g + 1.0)
            if abs(g - r) > abs(g + r):
                r = -r
            g = d[m] - d[low] + e[low] / (g + r)
            s = 1.0 + 0.0j
            c = 1.0 + 0.0j
            p = 0.0j
            underflow = False
            for i in range(m - 1, low - 1, -1):
                f = s * e[i]
                b = c * e[i]
                r = cmath.sqrt(f * f + g * g)
                e[i + 1] = r
                if r == 0.0:
                    if f != 0.0 or g != 0.0:
                        return -(low + 1)
                    d[i + 1] -= p
                    e[m] = 0.0
                    underflow = True
                    break
                s = f / r
                c = g / r
                g = d[i + 1] - p
                r = (d[i] - g) * s + 2.0 * c * b
                p = s * r
                d[i + 1] = g + p
                g = c * r - b
            if underflow:
                continue
            d[low] -= p
            e[low] = g
            e[m] = 0.0
    return 0


# ---------------------------------------------------------------------------
# dense symmetric path
# ---------------------------------------------------------------------------


def _householder_tridiagonalize(matrix: np.ndarray):
    """Reduce a symmetric matrix to tridiagonal form by Householder similarity.

    Returns (diag, offdiag).  The reflector of step i annihilates row i left
    of the subdiagonal; the rank-2 update runs on the shrinking leading
    block, so the whole reduction is BLAS-2 bound.
    """
    a = np.array(matrix, dtype=float, copy=True)
    n = a.shape[0]
    e = np.zeros(max(n - 1, 0))
    for i in range(n - 1, 0, -1):
        if i > 1:
            row = a[i, :i].copy()
            scale = np.abs(row).sum()
            if scale == 0.0:
                e[i - 1] = 0.0
                continue
            u = row / scale
            h = u @ u
            f = u[-1]
            g = -math.copysign(math.sqrt(h), f)
            e[i - 1] = scale * g
            h -= f * g
            u[-1] = f - g
            block = a[:i, :i]
            p = (block @ u) / h
            k = (u @ p) / (2.0 * h)
            q = p - k * u
            block -= np.outer(q, u)
            block -= np.outer(u, q)
        else:
            e[0] = a[1, 0]
    return np.diag(a).copy(), e


def _ql_eigenvalues(diag, offdiag, max_sweeps: int) -> np.ndarray:
    """Eigenvalues of the complex symmetric tridiagonal (diag, offdiag), unsorted.

    The matrix is first scaled by a power of two, which is exact, so that
    its largest entry lies in [1/2, 1): the rotations square their inputs,
    and the scaling keeps those squares clear of overflow.  Raises
    NoConvergence when an eigenvalue needs more than ``max_sweeps`` sweeps,
    when a rotation breaks down, or when the result is not finite, and
    ValueError on a non-finite entry.
    """
    n = len(diag)
    d = np.array(diag, dtype=complex)
    e = np.zeros(n, dtype=complex)
    e[: n - 1] = offdiag
    if not (np.all(np.isfinite(d)) and np.all(np.isfinite(e))):
        raise ValueError("matrix entries must be finite")
    big = max(np.abs(d).max(initial=0.0), np.abs(e).max(initial=0.0))
    scale = math.ldexp(1.0, math.frexp(big)[1]) if big > 0.0 else 1.0
    d /= scale
    e /= scale
    status = _tqli_kernel(d, e, max_sweeps)
    if status > 0:
        raise NoConvergence(
            f"QL iteration exceeded {max_sweeps} sweeps at eigenvalue {status - 1}")
    if status < 0:
        raise NoConvergence(
            f"isotropic QL rotation (f^2 + g^2 = 0) at eigenvalue {-status - 1}")
    if not np.all(np.isfinite(d)):
        raise NoConvergence("QL iteration produced a non-finite eigenvalue")
    return d * scale


def eig_dense_symmetric(matrix, k: int | None = None, max_sweeps: int = 50) -> np.ndarray:
    """All eigenvalues of a symmetric matrix, ascending (or the first k).

    Householder tridiagonalization followed by implicit-shift QL; each
    eigenvalue is deflated to relative machine precision or NoConvergence
    is raised after ``max_sweeps`` sweeps.
    """
    if not isinstance(matrix, DenseSymmetric):
        matrix = DenseSymmetric(np.asarray(matrix, dtype=float))
    d, e = _householder_tridiagonalize(matrix.data)
    vals = np.sort(_ql_eigenvalues(d, e, max_sweeps).real)
    return vals if k is None else vals[:k]


# ---------------------------------------------------------------------------
# symmetric periodic tridiagonal path: batched inertia bisection
# ---------------------------------------------------------------------------

#: A pivot at most this times its matrix's largest entry is eliminated
#: together with the next row, so the corner fill never divides by it.
_HOLD_REL = 2.0**-60

#: Pivots smaller than this times the largest entry are clamped to minus
#: it, as with the pivmin of LAPACK's dstebz.  Far above the underflow
#: threshold, so e^2 / pivot stays below 2^200 times the largest entry
#: and the next pivot's e^2 / pivot cannot underflow.
_PIVMIN_REL = 2.0**-200

#: Corner fill below this times the largest entry is flushed to zero
#: (checked every _FLUSH_EVERY rows); its square could otherwise
#: underflow, and its effect on the count is far below roundoff.
_FLUSH_REL = 2.0**-200
_FLUSH_EVERY = 4

#: Rows whose pivot signs the kernel buffers before adding them up.
_SIGN_ROWS = 64

#: Floor on a matrix's scale, so that the thresholds above stay normal
#: numbers (and a zero pivot of the zero matrix is still clamped).
_MIN_SCALE = 2.0**-800

#: Fixed cost of one row step of the inertia kernel, in probe columns: a
#: row costs about as much as this many extra columns.  Each bisection
#: round probes ``levels`` levels of every bracket at once, with levels
#: chosen to minimise (_ROW_COST + brackets * (2^levels - 1)) / levels,
#: the cost per level gained.
_ROW_COST = 1000


class _PeriodicBands:
    """A batch of P symmetric periodic tridiagonal matrices, column p each.

    ``diag`` is (n, P), ``offdiag`` (n-1, P) and ``corner`` (P,), so one row
    of the recurrence reads contiguous memory.  ``scale`` (P,) is each
    matrix's largest entry in magnitude (at least _MIN_SCALE), which sets
    its thresholds.
    """

    def __init__(self, diag, offdiag, corner):
        self.diag = diag
        self.offdiag = offdiag
        self.corner = corner
        scale = np.maximum(diag.max(axis=0, initial=0.0), -diag.min(axis=0, initial=0.0))
        scale = np.maximum(scale, np.maximum(offdiag.max(axis=0, initial=0.0),
                                             -offdiag.min(axis=0, initial=0.0)))
        self.scale = np.maximum(np.maximum(scale, np.abs(corner)), _MIN_SCALE)

    def gershgorin(self):
        """Per-matrix bounds (lo, hi) on the spectrum, each of shape (P,)."""
        d, e = self.diag, self.offdiag
        n, p = d.shape
        lo, hi = d[0].copy(), d[0].copy()
        for start in range(0, n, 128):
            stop = min(start + 128, n)
            # radius of row i: |e[i-1]| + |e[i]|, plus |corner| at both ends
            s = np.zeros((stop - start, p))
            s[start == 0:] += np.abs(e[max(start - 1, 0):stop - 1])
            s[:min(stop, n - 1) - start] += np.abs(e[start:min(stop, n - 1)])
            if start == 0:
                s[0] += np.abs(self.corner)
            if stop == n and n > 1:
                s[-1] += np.abs(self.corner)
            np.minimum(lo, (d[start:stop] - s).min(axis=0), out=lo)
            np.maximum(hi, (d[start:stop] + s).max(axis=0), out=hi)
        return lo, hi


def _screen_pivots(bands, row, a, buf, mask, may_hold, busy):
    """Clamp tiny pivots of ``row`` in place; return the ones to hold back.

    ``buf`` holds |a|.  A pivot of magnitude below pivmin becomes -pivmin
    (counted negative).  When ``may_hold``, the pivots at most _HOLD_REL
    times their matrix's scale whose row couples onward
    (offdiag[row] != 0) are returned as index arrays (shift, matrix),
    except those in ``busy``; otherwise None.
    """
    np.less_equal(buf, _HOLD_REL * bands.scale, out=mask)
    if not mask.any():
        return None
    shifts, cols = np.nonzero(mask)
    pivmin = _PIVMIN_REL * bands.scale[cols]
    tiny = buf[shifts, cols] < pivmin
    a[shifts[tiny], cols[tiny]] = -pivmin[tiny]
    if not may_hold:
        return None
    if busy is not None:
        mask[busy[:2]] = False
    mask[:, bands.offdiag[row] == 0.0] = False
    if not mask.any():
        return None
    return np.nonzero(mask)


def _periodic_inertia(bands: _PeriodicBands, x: np.ndarray) -> np.ndarray:
    """Number of eigenvalues below each shift, for a batch of periodic matrices.

    ``x`` is (m, P): m shifts for each matrix of ``bands``; the result is
    the (m, P) integer counts.  Eliminates the rows in order, carrying the
    fill f in the last row and column and that row's Schur complement g,
    and counts negative pivots (Sylvester's law of inertia).  Pivots below
    pivmin are clamped as in LAPACK's dstebz.  A pivot a_j that is tiny
    against the matrix scale would make the fill of row j+1 huge and the
    next two updates of g cancel catastrophically (or overflow to
    inf - inf); such a column is held back for one row and rows j, j+1
    are eliminated into g as one 2x2 block, whose determinant
    a_j a_{j+1} = a_j c_{j+1} - e_j^2 stays of the size of e_j^2.  The
    pivots themselves still follow the scalar recurrence, so the count is
    unchanged wherever no pivot is tiny.
    """
    n = bands.diag.shape[0]
    if bands.diag.shape[1] == 1:
        # one matrix: Python floats broadcast faster than length-1 rows
        d, e = bands.diag[:, 0].tolist(), bands.offdiag[:, 0].tolist()
    else:
        d, e = list(bands.diag), list(bands.offdiag)
    if n == 1:
        return (d[0] - x < 0.0).astype(np.intp)
    shape = x.shape
    less, sub, mul, div, absolute = np.less, np.subtract, np.multiply, np.divide, np.abs
    smallest = np.minimum.reduce
    screen = _HOLD_REL * float(bands.scale.max())
    flush = _FLUSH_REL * float(bands.scale.min())
    # f holds (-1)^i times the fill of row i, so its update needs e, not -e
    a = d[0] - x
    f = np.empty(shape)
    f[...] = bands.corner if n > 2 else bands.corner + e[0]
    g = d[n - 1] - x
    # signs of the pivots, added up every _SIGN_ROWS rows
    count = np.zeros(shape, dtype=np.intp)
    negative = np.empty((_SIGN_ROWS,) + shape, dtype=bool)
    is_negative = list(negative)
    a_next, f_next, buf = np.empty(shape), np.empty(shape), np.empty(shape)
    mask = np.empty(shape, dtype=bool)
    last = bands.offdiag[n - 2] if n % 2 == 0 else -bands.offdiag[n - 2]
    held = due = None
    absolute(a, buf)
    if smallest(buf, None) <= screen:
        held = _screen_pivots(bands, 0, a, buf, mask, n >= 3, None)
    for i in range(n - 2):
        less(a, 0.0, is_negative[i % _SIGN_ROWS])
        if i % _SIGN_ROWS == _SIGN_ROWS - 1:
            count += np.count_nonzero(negative, axis=0)
        saved = None
        if held is not None:
            saved = (*held, f[held], g[held], a[held], bands.offdiag[i][held[1]])
        ei = e[i]
        sub(d[i + 1], x, a_next)
        div(ei * ei, a, buf)
        sub(a_next, buf, a_next)
        mul(ei, f, f_next)
        div(f_next, a, f_next)
        if i + 1 == n - 2:
            f_next += last
        mul(f, f, buf)
        div(buf, a, buf)
        sub(g, buf, g)
        if due is not None:
            # rows i-1 and i as one block: overwrite what the two scalar
            # steps computed for these columns
            shifts, cols, f_held, g_held, a_held, e_held = due
            den = a_held * a[shifts, cols]
            c = bands.diag[i][cols] - x[shifts, cols]
            g[shifts, cols] = g_held - f_held * f_held * c / den
            f_new = bands.offdiag[i][cols] * (e_held * f_held) / den
            if i + 1 == n - 2:
                f_new += last[cols]
            f_next[shifts, cols] = f_new
        a, a_next = a_next, a
        f, f_next = f_next, f
        due = saved
        held = None
        absolute(a, buf)
        if smallest(buf, None) <= screen:
            held = _screen_pivots(bands, i + 1, a, buf, mask, i + 1 <= n - 3, due)
        if not i % _FLUSH_EVERY:
            absolute(f, buf)
            if smallest(buf, None) < flush:
                less(buf, flush, mask)
                f[mask] = 0.0
    count += np.count_nonzero(negative[:(n - 2) % _SIGN_ROWS], axis=0)
    count += a < 0.0
    np.multiply(f, f, out=buf)
    np.divide(buf, a, out=buf)
    np.subtract(g, buf, out=buf)
    if due is not None:
        # rows n-3 and n-2 as one block, coupled to the last row by the
        # held fill and by e[n-2]
        shifts, cols, f_held, g_held, a_held, e_held = due
        a_last = a[shifts, cols]
        c = bands.diag[n - 2][cols] - x[shifts, cols]
        phi = bands.offdiag[n - 2][cols]
        fill = f_held if n % 2 == 1 else -f_held
        buf[shifts, cols] = (g_held - (fill * fill * c - 2.0 * e_held * fill * phi)
                             / (a_held * a_last) - phi * phi / a_last)
    count += buf < 0.0
    return count


def _dyadic_points(lo, hi, levels, geometric=None):
    """lo, hi and the 2^levels - 1 points that bisection could probe between them.

    Built level by level from midpoints of neighbours, so each point is
    bit for bit the midpoint plain bisection computes on its way there.
    The midpoint of a bracket [a, b] is arithmetic, (a + b) / 2, except in
    the brackets that the boolean ``geometric`` (broadcast against lo)
    flags, which must have positive lower ends: there it is geometric,
    sqrt(a) sqrt(b), while 2a < b, so the bracket's ratio shrinks to two in
    about log2(log2(b/a)) steps before halving its width takes over.
    """
    pts = np.stack([lo, hi], axis=-1)
    for _ in range(levels):
        a, b = pts[..., :-1], pts[..., 1:]
        mid = 0.5 * (a + b)
        if geometric is not None:
            geo = geometric[..., None] & (2.0 * a < b)
            mid[geo] = np.sqrt(a[geo]) * np.sqrt(b[geo])
        out = np.empty(pts.shape[:-1] + (2 * pts.shape[-1] - 1,))
        out[..., ::2] = pts
        out[..., 1::2] = mid
        pts = out
    return pts


def _bisect(bands: _PeriodicBands, k: int, tol: float, start: int = 0,
            lower=None) -> np.ndarray:
    """Eigenvalues start, ..., k-1 of every matrix in the batch, shape (P, k - start).

    Each eigenvalue is bisected in its own bracket, starting from the
    Gershgorin interval, whose lower end is raised to ``lower`` (P,) where
    that is larger, and stopping once hi - lo <= tol * max(1, |lo|+|hi|).
    ``lower`` must have at most ``start`` eigenvalues below it.  Where
    ``lower`` is given and the lower end is positive, midpoints are
    geometric while the bracket spans more than a factor of two (see
    _dyadic_points); all others are arithmetic, so without ``lower`` this
    is plain bisection.  A round counts all 2^levels - 1 dyadic points of
    each bracket at once (multisection) and then walks ``levels``
    bisection steps down them, so the result is bit for bit that of plain
    bisection at any level count.
    """
    lo, hi = bands.gershgorin()
    geometric = None
    if lower is not None:
        lo = np.maximum(lo, lower)
        geometric = (lo > 0.0)[:, None]
    lo = np.repeat(lo[:, None], k - start, axis=1)
    hi = np.repeat(hi[:, None], k - start, axis=1)
    index = np.arange(start, k)
    levels = min(range(1, 16), key=lambda r: (_ROW_COST + lo.size * (2**r - 1)) / r)
    top = 2**levels

    def unconverged(lo, hi):
        return hi - lo > tol * np.maximum(1.0, np.abs(lo) + np.abs(hi))

    active = unconverged(lo, hi)
    while active.any():
        pts = _dyadic_points(lo, hi, levels, geometric)
        shifts = pts[:, :, 1:-1].reshape(lo.shape[0], -1).T.copy()
        counts = _periodic_inertia(bands, shifts).T.reshape(lo.shape + (top - 1,))
        left = np.zeros(lo.shape, dtype=np.intp)
        right = np.full(lo.shape, top)
        for _ in range(levels):
            mid = (left + right) // 2
            below = np.take_along_axis(counts, mid[..., None] - 1, axis=-1)[..., 0] <= index
            left = np.where(active & below, mid, left)
            right = np.where(active & ~below, mid, right)
            lo = np.take_along_axis(pts, left[..., None], axis=-1)[..., 0]
            hi = np.take_along_axis(pts, right[..., None], axis=-1)[..., 0]
            active = unconverged(lo, hi)
    return 0.5 * (lo + hi)


def sturm_count(tri: SymTridiagonal, x: float) -> int:
    """Number of eigenvalues of a symmetric tridiagonal matrix below x."""
    bands = _PeriodicBands(tri.diag[:, None], tri.offdiag[:, None], np.zeros(1))
    return int(_periodic_inertia(bands, np.full((1, 1), float(x)))[0, 0])


def _periodic_batch(diag, offdiag, corner) -> _PeriodicBands:
    """Validated (n, P) bands of a batch of periodic matrices."""
    d = np.ascontiguousarray(diag, dtype=float)
    e = np.ascontiguousarray(offdiag, dtype=float)
    if d.ndim != 2 or e.shape != (d.shape[0] - 1, d.shape[1]):
        raise ValueError("offdiag must have length n-1")
    c = np.broadcast_to(np.asarray(corner, dtype=float), (d.shape[1],))
    if not (np.isfinite(d).all() and np.isfinite(e).all() and np.isfinite(c).all()):
        raise ValueError("matrix entries must be finite")
    return _PeriodicBands(d, e, c)


def periodic_eigenvalue_counts(diag, offdiag, corner, shifts) -> np.ndarray:
    """Number of eigenvalues below each shift, for a batch of periodic matrices.

    The bands are laid out as in ``eig_periodic_sym_tridiagonal``'s batch
    form, one matrix per column; ``shifts`` is (m, P), m shifts for each
    matrix, and so is the integer result.  All of them take one pass of
    the inertia recurrence.  Raises ValueError on a non-finite entry.
    """
    bands = _periodic_batch(diag, offdiag, corner)
    x = np.asarray(shifts, dtype=float)
    if x.ndim != 2 or x.shape[1] != bands.diag.shape[1]:
        raise ValueError("shifts must be (m, P), m shifts for each of the P matrices")
    return _periodic_inertia(bands, x)


def eig_periodic_sym_tridiagonal(diag, offdiag, corner, k: int = 1,
                                 tol: float = 1e-13, start: int = 0,
                                 lower=None) -> np.ndarray:
    """The k smallest eigenvalues of symmetric periodic tridiagonal matrices.

    The matrix is the tridiagonal (diag, offdiag) plus ``corner`` at the two
    wrap-around positions (0, n-1) and (n-1, 0).  Each eigenvalue comes from
    inertia bisection, so the result is reliable for tightly clustered pairs.
    For one matrix, ``diag`` has length n and the result length k.  For a
    batch of P matrices, ``diag`` is (n, P), ``offdiag`` (n-1, P) and
    ``corner`` (P,), one matrix per column, and the result is (P, k); all
    of them are bisected together, one row of the recurrence at a time.
    With ``start`` the first ``start`` eigenvalues are skipped (the result
    has k - start columns), and ``lower`` (scalar or (P,)), a point with at
    most ``start`` eigenvalues below it, replaces the Gershgorin lower end
    of the brackets where it is larger; from a positive lower end the
    first midpoints are geometric.  Raises ValueError on a non-finite
    entry.
    """
    d = np.asarray(diag, dtype=float)
    single = d.ndim == 1
    if single:
        d, offdiag = d[:, None], np.reshape(offdiag, (-1, 1))
    bands = _periodic_batch(d, offdiag, corner)
    if not 0 <= start < k <= bands.diag.shape[0]:
        raise ValueError("k out of range")
    if lower is not None:
        lower = np.broadcast_to(np.asarray(lower, dtype=float), bands.corner.shape)
    vals = _bisect(bands, k, tol, start, lower)
    return vals[0] if single else vals


# ---------------------------------------------------------------------------
# general tridiagonal path
# ---------------------------------------------------------------------------


def _close_under_conjugation(ev: np.ndarray) -> np.ndarray:
    """Snap the computed spectrum of a real matrix onto a conjugation-closed set.

    Complex QL does not preserve realness: a real eigenvalue comes out with
    a roundoff imaginary part, and the members of a conjugate pair differ
    by roundoff.  In order of increasing |Im z|, each unmatched eigenvalue z
    is compared with the unmatched eigenvalue w nearest its conjugate.  If
    z lies at least as close to its own conjugate (2 |Im z| <= |w - conj z|)
    it is real and its imaginary part is dropped; otherwise z and w form a
    pair and both get the mean real part and +- the mean |imaginary| part.
    """
    out = ev.copy()
    free = np.ones(len(ev), dtype=bool)
    for i in np.argsort(np.abs(ev.imag), kind="stable"):
        if not free[i]:
            continue
        free[i] = False
        gap = np.where(free, np.abs(ev - np.conj(ev[i])), np.inf)
        j = int(np.argmin(gap))
        if 2.0 * abs(ev[i].imag) <= gap[j]:
            out[i] = ev[i].real
            continue
        free[j] = False
        re = 0.5 * (ev[i].real + ev[j].real)
        im = 0.5 * (abs(ev[i].imag) + abs(ev[j].imag))
        up, down = (i, j) if ev[i].imag >= ev[j].imag else (j, i)
        out[up], out[down] = complex(re, im), complex(re, -im)
    return out


def eig_general_tridiagonal(tri: Tridiagonal, max_its: int = 40) -> np.ndarray:
    """All eigenvalues of a real tridiagonal matrix as complex numbers.

    Where upper[k] * lower[k] != 0 the matrix is diagonally similar to the
    complex symmetric tridiagonal with the same diagonal and off-diagonal
    sqrt(upper[k] * lower[k]); where the product vanishes it is block
    triangular and its spectrum is the union of the diagonal blocks'.  Each
    block runs through implicit-shift QL in complex arithmetic, O(n) per
    sweep.  NoConvergence is raised when one eigenvalue needs more than
    ``max_its`` sweeps or a rotation meets isotropic breakdown.  The result
    is closed under conjugation, like the spectrum of any real matrix, and
    sorted by (real, imaginary) part, which keeps conjugate pairs adjacent.
    """
    up, lo = tri.upper, tri.lower
    coupling = np.sqrt(np.abs(up)) * np.sqrt(np.abs(lo))
    offdiag = np.where((up < 0.0) != (lo < 0.0), 1j * coupling, coupling)
    bounds = [0, *(np.flatnonzero(coupling == 0.0) + 1).tolist(), tri.n]
    ev = np.concatenate([
        _ql_eigenvalues(tri.diag[b0:b1], offdiag[b0:b1 - 1], max_its)
        for b0, b1 in zip(bounds, bounds[1:])
    ])
    ev = _close_under_conjugation(ev)
    return ev[np.lexsort((ev.imag, ev.real))]


def char_poly_tridiagonal(tri: Tridiagonal, z) -> complex:
    """det(A - z I) for a tridiagonal A via the three-term recurrence.

    P_0 = 1, P_1 = delta_1 - z, and
    P_{k+1}(z) = (delta_{k+1} - z) P_k(z) - upper_k * lower_k * P_{k-1}(z).
    Exact in exact arithmetic; for large n the value can overflow float
    range since it grows like the product of the diagonal entries.
    """
    z = complex(z)
    if tri.n == 0:
        return 1.0 + 0.0j
    prev = 1.0 + 0.0j
    cur = tri.diag[0] - z
    for i in range(1, tri.n):
        nxt = (tri.diag[i] - z) * cur - tri.upper[i - 1] * tri.lower[i - 1] * prev
        prev, cur = cur, nxt
    return cur


# ---------------------------------------------------------------------------
# sector exclusion certificate
# ---------------------------------------------------------------------------


def sector_exclusion_certificate(tri: Tridiagonal, delta: float) -> CertificateResult:
    """Check the spectral sector-exclusion hypotheses for a tridiagonal matrix.

    Hypotheses: every diagonal entry positive, every product
    upper_k * lower_k nonpositive, and 0 < delta <= (pi/2) * (sum 1/diag)^-1.
    When they hold, the matrix has no eigenvalue in the returned open
    sector with right vertex mu = min(diag); callers assert that on the
    computed spectrum.
    """
    failures = []
    diag = tri.diag
    if tri.n == 0:
        failures.append("empty matrix")
    if tri.n and not np.all(diag > 0.0):
        failures.append("diagonal entries must be positive")
    # the sign of each product, without forming it (it can overflow)
    up, lo = tri.upper, tri.lower
    if tri.n > 1 and not np.all(((up <= 0.0) & (lo >= 0.0)) | ((up >= 0.0) & (lo <= 0.0))):
        failures.append("off-diagonal products must be nonpositive")
    delta = float(delta)
    if not failures:
        delta_max = (np.pi / 2.0) / np.sum(1.0 / diag)
        if not 0.0 < delta <= delta_max:
            failures.append(
                f"delta must lie in (0, {delta_max:.6g}], got {delta:.6g}")
    mu = float(diag.min()) if tri.n else 0.0
    region = SectorRegion(mu, delta) if (mu > 0.0 and delta > 0.0) else None
    return CertificateResult(hypotheses_ok=not failures, region=region,
                             failures=tuple(failures))


def point_in_sector(z, region: SectorRegion) -> bool:
    """Strict membership in the open sector (boundary excluded)."""
    z = complex(z)
    if not z.real < region.mu:
        return False
    return abs(z.imag) < region.delta * (1.0 - z.real / region.mu)
