"""Self-contained eigensolver for the periodic mode operators of ``analyze``.

Symmetric periodic tridiagonal matrices (band plus one wrap-around
corner) are solved by Sturm-type bisection driven by inertia counts, O(n)
per probe.  Separator rows, one about every 32, split the shifted matrix
into tridiagonal blocks, which one numpy kernel eliminates side by side
for a batch of (matrix, shift) columns, in about 32 row steps;
Haynsworth's inertia additivity adds the inertia of the cyclic tridiagonal
Schur complement S on the separators.  One step scales S by a power of two
and counts it: with the same kernel in turn while it has more than 4 rows,
and at 4 rows after two Givens rotations make it tridiagonal (nested
dissection, George 1973).  The same pivots give det(A - x), and a bracket
that isolates its eigenvalue is polished on it by the enclosing steps of
Alefeld, Potra & Shi (Algorithm 748), each probe's count keeping the
bracket certified.  ``certified_spectra``, the one entry point, counts a
batch at -tau and tau to certify each matrix's zero mode, then bisects the
same batch from tau.

The general real tridiagonal matrices of ``wh-sweep`` (the Ince
truncations), their QL eigensolver and the sector-exclusion certificate
live in ``whittakerhill``, on builtin floats, so that neither command
imports the other's solver.
"""

from __future__ import annotations

import numpy as np


def __getattr__(name):
    # Only perfbench/oracle.py imports these two from here; this goes once
    # the benchmark oracle has its own sector test (ROADMAP item 1).
    if name in ("point_in_sector", "sector_exclusion_certificate"):
        from . import whittakerhill
        return getattr(whittakerhill, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


# ---------------------------------------------------------------------------
# symmetric periodic tridiagonal path: batched inertia bisection
# ---------------------------------------------------------------------------

#: Rows per block of the inertia kernel, about: A - x, and its Schur
#: complement on the separators while that has more than 4 rows, is cut
#: into K = max(4, n // this) blocks.  K depends on n alone, so a column's
#: count and determinant are the same bits in any batch.
_BLOCK_ROWS = 32

#: A pivot at most this times its matrix's largest entry is not divided by:
#: its row stays beside S as a node.  Larger pivots leave terms of at most
#: 2^20 times the scale, whose cancellation costs at most 2^20 roundoffs.
_NODE_REL = 2.0**-20

#: Pivots of a Sturm count (entries scaled below 2) smaller than this are
#: clamped to minus it, as with the pivmin of LAPACK's dstebz.
_PIVMIN_REL = 2.0**-200

#: Fill below this times the largest entry is flushed to zero (checked
#: every _FLUSH_EVERY rows), and so are entries of S below it: their
#: squares could underflow, and their effect is far below roundoff.
_FLUSH_REL = 2.0**-200
_FLUSH_EVERY = 4

#: Floor on a matrix's scale, so that the thresholds above stay normal
#: numbers (and a zero pivot of the zero matrix is still a node).
_MIN_SCALE = 2.0**-800

#: A batch holding a matrix whose scale lies outside [1/this, this] is
#: scaled by powers of two, matrix by matrix: the kernel squares entries,
#: and multiplies _DET_ROWS pivots, each within 2^-20 .. 2^21 of the scale,
#: before it renormalises their product.
_SAFE_SCALE = 2.0**32
_DET_ROWS = 16

#: Bisection stops once hi - lo <= this * max(min(1, scale), |lo| + |hi|),
#: scale being the matrix's largest entry.
_BISECT_TOL = 1e-13

#: Probes a bracket that isolates its eigenvalue may spend in _Toms748
#: steps before it goes back to bisection; 0 bisects every bracket.
_POLISH_STEPS = 20

#: A polish probe stays at least this many ulps of its matrix's scale
#: (_EPS * scale) inside its bracket, and a polished bracket narrower than
#: twice that goes back to bisection: A - x rounds its diagonal in steps
#: of about that ulp, so det(A - x) is a staircase at that width.
_POLISH_ULPS = 2.0
_EPS = 2.0**-52

#: Fixed cost of one inertia kernel call, in probe columns: at n = 512 a
#: call costs about 0.8 ms, the overhead of its 31 + 3 row steps and the
#: 4 x 4 complement, plus about 5 us per column with the determinant (2
#: CPUs, Python 3.11, numpy 2.4), so about 160 columns.  On the 289 modes
#: of 8 x 8 windows of random curves, 160 and 200 take 24% more calls than
#: 300 but 21% fewer columns, and sweep faster; at 200 the window of seed 7
#: at grid 512 takes 22 calls and 7,354 columns.  A round probes
#: ``levels`` levels of every bisecting bracket at once, with levels
#: minimising (_ROW_COST + brackets * (2^levels - 1)) / levels; polishing
#: brackets add one column each.
_ROW_COST = 200


class _PeriodicBands:
    """A batch of P symmetric periodic tridiagonal matrices, column p each.

    ``diag`` is (n, P), n >= 5, ``offdiag`` (n-1, P), or (n-1, 1) for a
    coupling shared by all P, and ``corner`` (P,), so one row of the
    recurrence reads contiguous memory; other shapes and non-finite entries
    are a ValueError.  ``scale`` (P,) is each matrix's largest entry in
    magnitude (at least _MIN_SCALE), which sets its thresholds.  ``unit``
    (P,) is 1 while every scale lies within [1/_SAFE_SCALE, _SAFE_SCALE],
    and the bands are kept as given.  Otherwise it is the power of two
    that brings each scale into [1, 2), and every matrix is divided by it,
    exactly; ``_periodic_inertia`` divides the shifts by it and
    ``gershgorin`` multiplies its bounds by it.  ``work`` is the flat
    workspace that ``_periodic_inertia`` gathers diagonals into, grown to
    the largest call and kept: a fresh copy per call costs page faults.
    """

    def __init__(self, diag, offdiag, corner):
        diag, offdiag = (np.ascontiguousarray(a, dtype=float) for a in (diag, offdiag))
        n = diag.shape[0]
        if diag.ndim != 2 or offdiag.shape not in ((n - 1, diag.shape[1]), (n - 1, 1)):
            raise ValueError("offdiag must have length n-1")
        if n < 5:
            raise ValueError(f"periodic matrices must have at least 5 rows, got {n}")
        corner = np.broadcast_to(np.asarray(corner, dtype=float), (diag.shape[1],))
        if not all(np.isfinite(a).all() for a in (diag, offdiag, corner)):
            raise ValueError("matrix entries must be finite")
        scale = np.maximum(diag.max(axis=0, initial=0.0), -diag.min(axis=0, initial=0.0))
        scale = np.maximum(scale, np.maximum(offdiag.max(axis=0, initial=0.0),
                                             -offdiag.min(axis=0, initial=0.0)))
        scale = np.maximum(scale, np.abs(corner))
        self.unit = np.ones_like(scale)
        if scale.min() < 1.0 / _SAFE_SCALE or scale.max() > _SAFE_SCALE:
            self.unit = np.ldexp(1.0, np.frexp(scale)[1] - 1)
            diag, offdiag, corner = diag / self.unit, offdiag / self.unit, corner / self.unit
            scale = scale / self.unit
        self.diag, self.offdiag, self.corner = diag, offdiag, corner
        self.scale = np.maximum(scale, _MIN_SCALE)
        self.work = np.empty(0)

    def gershgorin(self):
        """Per-matrix bounds (lo, hi) on the spectrum, each of shape (P,)."""
        d, e = self.diag, np.abs(self.offdiag)
        # radius of row i: |e[i-1]| + |e[i]|, plus |corner| at both ends
        s = np.zeros((len(d), e.shape[1]))
        s[1:] += e
        s[:-1] += e
        ends = s[[0, -1]] + np.abs(self.corner)
        lo = np.minimum((d[1:-1] - s[1:-1]).min(axis=0), (d[[0, -1]] - ends).min(axis=0))
        hi = np.maximum((d[1:-1] + s[1:-1]).max(axis=0), (d[[0, -1]] + ends).max(axis=0))
        return lo * self.unit, hi * self.unit


def _flush(*arrays):
    """Zero the entries below _FLUSH_REL in place."""
    for t in arrays:
        t[np.abs(t) < _FLUSH_REL] = 0.0


def _rotation(f, g):
    """r = hypot(f, g) and (c, s) = (f, g) / r, the identity where r = 0."""
    r = np.hypot(f, g)
    return (r, np.divide(f, r, out=np.ones_like(r), where=r > 0.0),
            np.divide(g, r, out=np.zeros_like(r), where=r > 0.0))


def _sturm_pivots(diag, off):
    """LDL^T pivots of tridiagonals (diag, off), elementwise, entries below
    about 2; pivots below _PIVMIN_REL are clamped to minus it as in dstebz."""
    pivots = []
    for k, d in enumerate(diag):
        piv = d - off[k - 1] * off[k - 1] / pivots[-1] if k else d
        pivots.append(np.where(np.abs(piv) < _PIVMIN_REL, -_PIVMIN_REL, piv))
    return pivots


def _cycle_negatives(t):
    """Negative eigenvalues and determinants of 4 x 4 cyclic matrices, elementwise.

    ``t`` (8, P) holds the diagonals, then the couplings (j, j+1 mod 4),
    of matrices that ``_inertia`` has scaled below 1 and flushed.  Each is
    made tridiagonal by two Givens rotations: plane (1, 3) zeroes the
    corner (0, 3), plane (2, 3) the fill at (3, 1).  Rotations are
    orthogonal, so the count holds for a matrix within roundoff of S,
    singular or not.  Returns the count and the determinant, the product
    of the four clamped Sturm pivots, of magnitude within 2^-800..2^808,
    each (P,).
    """
    a0, a1, a2, a3, b0, b1, b2, b3 = t
    r1, c, s = _rotation(b0, b3)
    a1, a3, h, p, q = (c * c * a1 + s * s * a3, s * s * a1 + c * c * a3, c * s * (a3 - a1),
                       c * b1 + s * b2, c * b2 - s * b1)
    _flush(a1, a3, h, p, q)
    r2, c, s = _rotation(p, h)
    a2, a3, r3 = (c * c * a2 + 2.0 * c * s * q + s * s * a3, s * s * a2 - 2.0 * c * s * q
                  + c * c * a3, c * s * (a3 - a2) + (c * c - s * s) * q)
    _flush(r3)
    pivots = _sturm_pivots([a0, a1, a2, a3], [r1, r2, r3])
    return sum(piv < 0.0 for piv in pivots), pivots[0] * pivots[1] * pivots[2] * pivots[3]


def _cycle_counts(diag, off):
    """Negative eigenvalues of C cyclic matrices of one length L, shape (C,).

    ``diag`` and ``off`` (C, L), L >= 3, hold each cycle's diagonal and its
    couplings (k, k+1 mod L).  Each matrix is equilibrated by a congruence
    with powers of two, which keeps its inertia exactly: row i is scaled
    by about one over the square root of its largest entry.  A cycle of
    separators and nodes can be graded: on the Whittaker-Hill operator at
    a = 40, n = 256, one holds -1.7e10 next to 1.6e-4, and its count turns
    on an eigenvalue of about 1e-7, which a reduction of the unequilibrated
    matrix loses in roundoff.  Scaled below 1 and flushed, the (C, L, L)
    stack is reduced to tridiagonal form by Householder similarity, step i
    annihilating row i left of the subdiagonal of every matrix at once,
    and counted by Sturm pivots.
    """
    c, n = diag.shape
    r = np.arange(n)
    mat = np.zeros((c, n, n))
    mat[:, r, r] = diag
    mat[:, r, r - 1] = mat[:, r - 1, r] = off[:, r - 1]  # the corner at r = 0
    mat += 0.0  # zeros are +0, whose sign picks a reflector
    big = np.abs(mat).max(axis=2)
    t = np.ldexp(1.0, -(np.frexp(np.where(big > 0.0, big, 1.0))[1] // 2))
    mat = t[:, :, None] * mat * t[:, None, :]
    mat *= np.ldexp(1.0, -np.frexp(np.abs(mat).max(axis=(1, 2)))[1])[:, None, None]
    _flush(mat)
    e = np.zeros((c, n - 1))
    # a product that underflows is below 2^-1022, which moves the reduction
    # by far less than its own roundoff of about 2^-53 per entry
    with np.errstate(under="ignore"):
        for i in range(n - 1, 1, -1):
            row = mat[:, i, :i]
            scale = np.abs(row).sum(axis=1)
            u = row / np.where(scale > 0.0, scale, 1.0)[:, None]
            h = (u[:, None, :] @ u[:, :, None])[:, 0, 0]
            f = u[:, -1].copy()
            g = -np.copysign(np.sqrt(h), f)
            e[:, i - 1] = scale * g
            h = np.where(scale > 0.0, h - f * g, 1.0)  # a zero row: u = 0 leaves the block
            u[:, -1] = f - g
            block = mat[:, :i, :i]
            p = (block @ u[:, :, None])[:, :, 0] / h[:, None]
            k = (u[:, None, :] @ p[:, :, None])[:, 0, 0] / (2.0 * h)
            q = p - k[:, None] * u
            block -= q[:, :, None] * u[:, None, :]
            block -= u[:, :, None] * q[:, None, :]
    e[:, 0] = mat[:, 1, 0]
    _flush(e)
    pivots = _sturm_pivots(mat[:, r, r].T, e.T)
    return sum(piv < 0.0 for piv in pivots)


def _periodic_inertia(bands: _PeriodicBands, cols, x: np.ndarray):
    """Eigenvalues below x[j] of matrix cols[j] of ``bands``, and det(A - x[j]).

    ``cols`` (repeats allowed) and ``x`` are (C,).  Returns three (C,)
    arrays: the counts, and det(A - x) of the matrix divided by its
    ``bands.unit`` (1 in range) as a mantissa, of magnitude in [1/2, 1) and
    sign (-1)^count, and a base-2 exponent; NaN mantissas where the count
    met a node (see ``_inertia``).  The shifts are divided by ``unit`` too.
    """
    n, size = bands.diag.shape[0], len(cols)
    if bands.work.size < n * size:
        bands.work = np.empty(n * size)
    # mode="clip" writes straight into the workspace: "raise" buffers the copy
    diag = bands.diag.take(cols, 1, bands.work[:n * size].reshape(n, size), mode="clip")
    off = bands.offdiag if bands.offdiag.shape[1] == 1 else bands.offdiag.take(cols, 1)
    scale = bands.scale[cols]
    # eigenvalues lie within 3 scale: a shift saturated past them keeps its
    # count, and pivots stay below 2^21 scale
    with np.errstate(over="ignore"):  # x / unit overflows only out of range
        x = np.clip(x / bands.unit[cols], -8.0 * scale, 8.0 * scale)
    return _inertia(diag, off, bands.corner[cols], x, scale)


def _inertia(diag, off, corner, x, scale):
    """``_periodic_inertia`` of the periodic matrices (diag, off, corner), n > 4.

    ``x`` and ``scale`` (P,) are each column's shift and the scale that
    sets its thresholds.  With K = max(4, n // _BLOCK_ROWS) and q, r =
    divmod(n, K), separator rows 0, q+r, 2q+r, ..., (K-1)q+r split A - x
    into K blocks, tridiagonals of q-1 rows (the first has r more, taken
    first while the others wait on pivots of +inf).  By Haynsworth's
    inertia additivity the count is the blocks' negative pivots plus the
    negative eigenvalues of the K x K cyclic Schur complement S on the
    separators: block j couples only separators j and j+1.  Each column's
    S is scaled by the power of two that brings its largest entry into
    [1/2, 1), and entries below _FLUSH_REL are flushed; then it is counted
    by ``_cycle_negatives`` for K = 4, and by this same recurrence at
    shift 0 for K > 4, so a probe at n = 512 takes 31 row steps on 16
    blocks, then 3 on 4.  The blocks run side by side as the rows of (K,
    P) arrays, through strided views of the bands; one (rows, K, P) buffer
    holds the signs of their pivots (rows is at most 62 for n up to 2^18).
    Each carries the fill f of its row into its opening separator and that
    separator's update g; a last step onto the closing separator (coupling
    v) leaves -f^2/a in g, the coupling -f v/a and the pivot -v^2/a.

    No pivot within _NODE_REL of the matrix scale is divided by: its row
    stays beside S as a node, and the rest of its block opens on that row
    as on a separator.  The separators and nodes of such a column then form
    a longer cycle, free of huge entries, counted in place of S, whose
    column is set to the identity.  The node rows are kept as arrays and
    put in cycle order by one sort; ``_cycle_counts`` then counts all
    cycles of one length as one stack.

    The determinant is the product of the blocks' pivots, kept as a
    mantissa renormalised every _DET_ROWS rows and an exponent, times
    det S.  Columns with nodes, at this level or inside S, return a NaN
    mantissa: no determinant.
    """
    n, p = diag.shape
    blocks = max(4, n // _BLOCK_ROWS)
    q, rem = divmod(n, blocks)
    rows = q - 1 + rem
    seps = [0] + [j * q + rem for j in range(1, blocks)]
    # v[j]: coupling of block j's last row to separator j + 1.  f holds
    # (-1)^i times the fill of a block's row i, so its update needs e, not
    # -e; ``sign`` turns the fill of the step onto the separator back
    v = np.concatenate([np.broadcast_to(off[q + rem - 1::q], (blocks - 1, p)), corner[None]])
    sign = np.array([(-1.0) ** rows] + [(-1.0) ** (q - 1)] * (blocks - 1))[:, None]
    shape = (blocks, p)
    # rows of every block (the separators' last, x, makes the last pivot
    # -v^2/a) and the couplings to the next row
    last = 2 + (blocks - 1) * q
    diag_rows = [diag[1 + i:last + i:q] for i in range(rows)] + [x]
    for i in range(rem):
        diag_rows[i] = np.concatenate([diag[1 + i:2 + i], np.full((blocks - 1, p), np.inf)])
    couplings = [off[1 + i:last + i:q] for i in range(rows - 1)] + [v]
    off2, v2 = off * off, v * v
    squares = [off2[1 + i:last + i:q] for i in range(rows - 1)] + [v2]
    less, sub, mul, div, absolute = np.less, np.subtract, np.multiply, np.divide, np.abs
    smallest = np.minimum.reduce
    screen = _NODE_REL * float(scale.max())
    flush = _FLUSH_REL * float(scale.min())
    a = diag_rows[0] - x
    f = np.zeros(shape)
    starting = seps[:1] if rem else seps  # blocks whose first row is row 0
    f[:len(starting)] = off[starting]
    g = np.zeros(shape)
    negative = np.empty((rows,) + shape, dtype=bool)  # the pivots' signs
    a_next, f_next, buf = np.empty(shape), np.empty(shape), np.empty(shape)
    mask = np.empty(shape, dtype=bool)
    det, det_exp, exp_buf = np.ones(shape), np.zeros(shape, dtype=np.intp), np.empty(shape, np.intc)
    nodes = []
    for i in range(rows):
        e, tiny = couplings[i], None
        absolute(a, buf)
        if smallest(buf, None) <= screen:
            # nodes: row, block, column, pivot, fill to the row their part of
            # the block opened on, and that row's update g
            tiny = buf <= _NODE_REL * scale
            flip = sign * (-1.0) ** (rows - i)
            block, column = np.nonzero(tiny)
            nodes.append((np.full(len(block), i), block, column, a[tiny],
                          flip[block, 0] * f[tiny], g[tiny]))
            a[tiny], g[tiny] = np.inf, 0.0
            buf[tiny] = 1.0  # keeps the product finite; the column has no det
        if i < rem:
            mul(det[:1], buf[:1], det[:1])  # the other blocks wait on +inf
        else:
            mul(det, buf, det)
        less(a, 0.0, negative[i])
        sub(diag_rows[i + 1], x, a_next)
        div(squares[i], a, buf)
        sub(a_next, buf, a_next)
        div(f, a, buf)  # f/a: the fill times e, and f times it leaves g
        mul(e, buf, f_next)
        if i + 1 == rem:
            f_next[1:] += e[1:]  # the other blocks enter their first row
        if tiny is not None:
            f_next[tiny] = np.broadcast_to(-flip * e, shape)[tiny]  # rows after a node
        mul(f, buf, buf)
        sub(g, buf, g)
        a, a_next = a_next, a
        f, f_next = f_next, f
        if i % _DET_ROWS == _DET_ROWS - 1:
            np.frexp(det, det, exp_buf)
            det_exp += exp_buf
        if not i % _FLUSH_EVERY:
            absolute(f, buf)
            if smallest(buf, None) < flush:
                less(buf, flush, mask)
                f[mask] = 0.0
    count = np.count_nonzero(negative, axis=(0, 1))
    np.frexp(det, det, exp_buf)
    det_exp += exp_buf
    # S: its diagonal, then its couplings (j, j+1 mod K)
    t = np.concatenate([diag[seps] - x + g, sign * f])
    t[1:blocks] += a[:-1]  # block j closes on separator j + 1
    t[0] += a[-1]
    so = t[blocks:]
    # columns with nodes: the cycle of separators and nodes replaces S.  The
    # separators join the nodes as rows -1, sorted by column, block and row;
    # a row takes the fill and g of the node after it in its block, and the
    # last row of a block takes so and the block's g
    nodal = []
    if nodes:
        nodal = np.unique(np.concatenate([node[2] for node in nodes]))
        sep_block, sep_column = np.tile(np.arange(blocks), len(nodal)), np.repeat(nodal, blocks)
        nodes.append((np.full(len(sep_block), -1), sep_block, sep_column,
                      (diag[seps] - x)[sep_block, sep_column], *np.zeros((2, len(sep_block)))))
        fields = [np.concatenate(field) for field in zip(*nodes)]
        order = np.lexsort(fields[:3])  # by column, then block, then row
        row, block, column, pivot, fill, update = (field[order] for field in fields)
        follows = np.roll(row, -1) >= 0  # a node follows in the same block
        cycle_off = np.where(follows, np.roll(fill, -1), so[block, column])
        cycle_diag = pivot + np.where(follows, np.roll(update, -1), g[block, column])
        cycle_diag[row < 0] += a[block[row < 0] - 1, column[row < 0]]
        start = np.flatnonzero(row < 0)[::blocks]  # separator 0 opens each cycle
        length = np.diff(start, append=len(row))
        for size in np.unique(length):
            at = start[length == size, None] + np.arange(size)
            count[nodal[length == size]] += _cycle_counts(cycle_diag[at], cycle_off[at])
        t[:blocks, nodal], so[:, nodal] = 1.0, 0.0  # S is the identity there: no negatives
    # each column's largest entry scaled into [1/2, 1): det S = det t 2^(K s_exp)
    t_scale, s_exp = np.frexp(np.abs(t).max(axis=0))
    t *= np.ldexp(1.0, -s_exp)
    _flush(t)
    if blocks == 4:
        s_count, s_det = _cycle_negatives(t)
        s_exp = 4 * s_exp
    else:
        s_count, s_det, t_exp = _inertia(t[:blocks], t[blocks:-1], t[-1], np.zeros(p),
                                         np.maximum(t_scale, _MIN_SCALE))
        s_exp = t_exp + blocks * s_exp
    count += s_count
    block_det, block_exp = np.ones(p), det_exp.sum(axis=0)
    for j in range(0, blocks, 512):  # each factor is at least 1/2
        block_det, shift = np.frexp(block_det * det[j:j + 512].prod(axis=0))
        block_exp += shift
    mantissa, exponent = np.frexp(np.abs(block_det * s_det))
    exponent = exponent + block_exp + s_exp
    mantissa[count % 2 == 1] *= -1.0
    mantissa[nodal] = np.nan
    return count, mantissa, exponent


def _dyadic_points(lo, hi, levels):
    """lo, hi and the 2^levels - 1 points that bisection could probe between them.

    Built level by level from midpoints of neighbours, so each point is
    bit for bit the midpoint plain bisection computes on its way there.
    The midpoint of a bracket [a, b] is geometric, sqrt(a) sqrt(b), where
    0 < 2a < b, so a bracket with a positive lower end shrinks its ratio to
    two in about log2(log2(b/a)) steps before halving its width takes over;
    everywhere else it is arithmetic, (a + b) / 2.
    """
    pts = np.stack([lo, hi], axis=-1)
    for _ in range(levels):
        a, b = pts[..., :-1], pts[..., 1:]
        mid = 0.5 * (a + b)
        geo = (0.0 < a) & (2.0 * a < b)
        mid[geo] = np.sqrt(a[geo]) * np.sqrt(b[geo])
        out = np.empty(pts.shape[:-1] + (2 * pts.shape[-1] - 1,))
        out[..., ::2] = pts
        out[..., 1::2] = mid
        pts = out
    return pts


class _Toms748:
    """Enclosing steps of Alefeld, Potra & Shi (ACM TOMS 21, 1995, Algorithm
    748 with k = 2), one probe per step, for many brackets at once.

    Each bracket [a, b] isolates one eigenvalue of its matrix, and the
    function is det(A - x), kept per bracket as a float f times 2^ref, so
    f(a) and f(b) have opposite signs.  Stage 0 is a secant step through
    the ends.  Each iteration then takes two quadratic steps (stages 1 and
    2: Newton steps on the quadratic through a, b and the end d replaced
    last), a double-length secant step from the end with the smaller |f|
    (stage 3), and a bisection if the bracket did not halve (stage 4).
    Algorithm 748 prefers inverse cubic interpolation to the quadratic
    steps where it has four points, and takes two Newton steps in the
    first; on det(A - x), bent by the neighbouring eigenvalues, three
    Newton steps in both took the fewest probes.  Every probe lies at least
    ``room`` inside the bracket, so the bracket closes on both sides, and
    the probe's count, not the sign of its f, decides which end it
    replaces, so the bracket stays certified.
    """

    def __init__(self, size):
        self.fa, self.fb, self.d, self.fd, self.width = (np.full(size, np.nan) for _ in range(5))
        self.stage = np.zeros(size, dtype=np.intp)
        self.ref = np.zeros(size, dtype=np.intp)

    def start(self, sel, mantissa, exponent):
        """Begin on the brackets ``sel``, with det at (a, b) in (len(sel), 2) arrays."""
        self.ref[sel] = exponent.max(axis=1)
        self.fa[sel], self.fb[sel] = self.value(sel, mantissa.T, exponent.T)
        self.stage[sel] = 0

    def value(self, sel, mantissa, exponent):
        """f of the brackets ``sel`` from det = mantissa * 2^exponent (last axis
        along ``sel``); a NaN mantissa, no determinant, stays NaN."""
        return np.ldexp(mantissa, np.clip(exponent - self.ref[sel], -900, 900))

    def points(self, sel, a, b, room):
        """The next probe of each bracket [a, b] of ``sel``."""
        fa, fb, d, fd = self.fa[sel], self.fb[sel], self.d[sel], self.fd[sel]
        stage = self.stage[sel]
        # the width an iteration starts from, for ``step``'s bisection test
        self.width[sel] = np.where(stage == 1, b - a, self.width[sel])
        mid = 0.5 * (a + b)
        with np.errstate(all="ignore"):  # every step is computed for every bracket
            secant = a + (b - a) * (fa / (fa - fb))
            quadratic = _newton_quadratic(a, b, d, fa, fb, fd)
            at_a = np.abs(fa) < np.abs(fb)
            u, fu, fv = np.where(at_a, a, b), np.where(at_a, fa, fb), np.where(at_a, fb, fa)
            double = u - 2.0 * (b - a) * (fu / (fb - fa))
            # stuck at u, with |f| lopsided by more than 2^50: a thirty-second
            # of the way across instead (else ``room`` moves it)
            lopsided = ((np.abs(double - u) <= _EPS * np.abs(u))
                        & (np.frexp(fu)[1] < np.frexp(fv)[1] - 50))
            double = np.where(lopsided, (31.0 * u + np.where(at_a, b, a)) / 32.0, double)
            double = np.where(np.abs(double - u) > 0.5 * (b - a), mid, double)
        c = np.choose(stage, [secant, quadratic, quadratic, double, mid])
        # a step onto or past an end probes next to it
        return np.clip(np.where(np.isnan(c), mid, c), a + room, b - room)

    def step(self, sel, a, b, c, below, f):
        """Move the brackets [a, b] of ``sel`` to their probes c, whose counts
        put them below the eigenvalue where ``below``; returns the new ends."""
        fa, fb = self.fa[sel], self.fb[sel]
        self.d[sel], self.fd[sel] = np.where(below, a, b), np.where(below, fa, fb)
        self.fa[sel], self.fb[sel] = np.where(below, f, fa), np.where(below, fb, f)
        a, b = np.where(below, c, a), np.where(below, b, c)
        stage = self.stage[sel]
        slow = b - a > 0.5 * self.width[sel]
        self.stage[sel] = np.where(stage == 3, np.where(slow, 4, 1),
                                   np.where(stage == 4, 1, stage + 1))
        return a, b


def _newton_quadratic(a, b, d, fa, fb, fd):
    """Three Newton steps towards the zero in (a, b) of the quadratic through
    (a, fa), (b, fb) and (d, fd), from the end where the quadratic bends
    towards it; the midpoint where a first step leaves (a, b)."""
    slope = (fb - fa) / (b - a)
    bend = ((fd - fb) / (d - b) - slope) / (d - a)
    r = np.where(bend * fa > 0.0, a, b)
    live = np.ones(r.shape, dtype=bool)
    for _ in range(3):
        step = r - ((bend * (r - b) + slope) * (r - a) + fa) / (slope + bend * (2.0 * r - a - b))
        inside = (a < step) & (step < b)
        r = np.where(live & inside, step,
                     np.where(live & ~((a < r) & (r < b)), 0.5 * (a + b), r))
        live &= inside
    return np.where(bend == 0.0, a - fa / slope, r)


def _bisect(bands: _PeriodicBands, k: int, start: int = 0, lower=None) -> np.ndarray:
    """Eigenvalues start, ..., k-1 of every matrix in the batch, shape (P, k - start).

    Each eigenvalue is bisected in its own bracket, starting from the
    Gershgorin interval, whose lower end is raised to ``lower`` (P,) where
    that is larger, and stopping once hi - lo <= _BISECT_TOL * max(min(1,
    scale), |lo| + |hi|), scale being the matrix's largest entry.
    ``lower`` must have at most ``start`` eigenvalues below it.  Midpoints
    follow _dyadic_points: geometric while a bracket with a positive lower
    end spans more than a factor of two, arithmetic otherwise.  A round
    counts all 2^levels - 1 dyadic points of each bisecting bracket at once
    (multisection) and then walks up to ``levels`` bisection steps down
    them, with ``levels`` minimising (_ROW_COST + bisecting brackets *
    (2^levels - 1)) / levels.

    A walk stops early where its bracket isolates its eigenvalue: index
    eigenvalues below lo and one more below hi, both counted with a
    determinant, at least twice _POLISH_ULPS ulps of the scale apart.  From
    there _Toms748 polishes the bracket on the kernel's det(A - x), one
    probe per round, each at least _POLISH_ULPS ulps of the scale and half
    the stop width inside it.  After _POLISH_STEPS probes, at a probe
    without a determinant, or once narrower than twice _POLISH_ULPS ulps,
    where det(A - x) turns into a staircase, the bracket goes back to
    bisection.  Converged brackets leave the rounds.  Every bracket's path
    depends on its own probes only, so the result is bit for bit the same
    at any level count and in any batch, and with _POLISH_STEPS = 0 it is
    plain bisection's.  ValueError unless 0 <= start < k <= n.
    """
    if not 0 <= start < k <= bands.diag.shape[0]:
        raise ValueError("k out of range")
    lo, hi = bands.gershgorin()
    if lower is not None:
        lo = np.maximum(lo, lower)
    p, width = len(lo), k - start
    size = p * width
    col = np.repeat(np.arange(p), width)  # the matrix of each bracket
    index = np.tile(np.arange(start, k), p)
    lo, hi = lo[col], hi[col]
    scale = (bands.scale * bands.unit)[col]
    floor, room = np.minimum(1.0, scale), _POLISH_ULPS * _EPS * scale
    # count and det (mantissa, exponent) at lo and hi; -1 and NaN until probed
    count = np.full((size, 2), -1)
    mantissa, exponent = np.full((size, 2), np.nan), np.zeros((size, 2), dtype=np.intp)
    polishing, polished = np.zeros(size, dtype=bool), np.zeros(size, dtype=np.intp)
    toms = _Toms748(size)

    def converged(sel, lo, hi):
        return hi - lo <= _BISECT_TOL * np.maximum(floor[sel], np.abs(lo) + np.abs(hi))

    todo = ~converged(slice(None), lo, hi)
    while todo.any():
        bis, pol = np.flatnonzero(todo & ~polishing), np.flatnonzero(polishing)
        shifts = []
        if len(bis):
            levels = min(range(1, 16), key=lambda r: (_ROW_COST + len(bis) * (2**r - 1)) / r)
            top = 2**levels
            pts = _dyadic_points(lo[bis], hi[bis], levels)
            shifts.append(pts[:, 1:-1].ravel())
        if len(pol):
            a, b = lo[pol], hi[pol]
            shifts.append(toms.points(pol, a, b, np.maximum(
                0.5 * _BISECT_TOL * np.maximum(floor[pol], np.abs(a) + np.abs(b)), room[pol])))
        ids = np.concatenate(([np.repeat(bis, top - 1)] if len(bis) else []) + [pol])
        c_all, m_all, e_all = _periodic_inertia(bands, col[ids], np.concatenate(shifts))
        cut = len(ids) - len(pol)
        if len(bis):
            # count and det at every dyadic point, the brackets' ends included
            cts, man, ex = (np.hstack([end[bis, :1], v[:cut].reshape(len(bis), -1), end[bis, 1:]])
                            for end, v in ((count, c_all), (mantissa, m_all), (exponent, e_all)))
            idx = index[bis][:, None]
            with_det = np.isfinite(man) & (polished[bis] < _POLISH_STEPS)[:, None]
            lo_ok, hi_ok = with_det & (cts == idx), with_det & (cts == idx + 1)
            rows, idx = np.arange(len(bis)), idx[:, 0]
            left, right = np.zeros(len(bis), dtype=np.intp), np.full(len(bis), top)
            walking = np.ones(len(bis), dtype=bool)
            for _ in range(levels):
                mid = (left + right) // 2
                below = cts[rows, mid] <= idx
                left = np.where(walking & below, mid, left)
                right = np.where(walking & ~below, mid, right)
                b_lo, b_hi = pts[rows, left], pts[rows, right]
                done = converged(bis, b_lo, b_hi)
                isolated = lo_ok[rows, left] & hi_ok[rows, right] & (b_hi - b_lo > 2.0 * room[bis])
                walking &= ~done & ~isolated
            ends = np.stack([left, right], axis=1)
            lo[bis], hi[bis] = pts[rows[:, None], ends].T
            for end, v in ((count, cts), (mantissa, man), (exponent, ex)):
                end[bis] = v[rows[:, None], ends]
            todo[bis] = ~done
            isolated = bis[isolated & ~done]
            polishing[isolated] = True
            toms.start(isolated, mantissa[isolated], exponent[isolated])
        if len(pol):
            f = toms.value(pol, m_all[cut:], e_all[cut:])
            lo[pol], hi[pol] = a, b = toms.step(pol, a, b, shifts[-1], c_all[cut:] <= index[pol], f)
            todo[pol] = ~converged(pol, a, b)
            polished[pol] += 1
            polished[pol[np.isnan(f) | (b - a <= 2.0 * room[pol])]] = _POLISH_STEPS
            polishing[pol] = todo[pol] & (polished[pol] < _POLISH_STEPS)
    return 0.5 * (lo + hi).reshape(p, width)


class GridTooCoarse(ValueError):
    """The discrete zero mode strayed from zero: the grid cannot resolve the operator."""


#: Zero-mode acceptance threshold: ``certified_spectra`` certifies that the
#: zero mode is the only eigenvalue in (-tau, tau) for tau = this.
ZERO_MODE_TOL = 1e-6


def certified_spectra(diag, offdiag, corner, k: int, labels) -> np.ndarray:
    """Eigenvalues 1, ..., k-1 of periodic matrices with a certified zero mode.

    Matrix p is the tridiagonal (diag[:, p], offdiag[:, p]) plus corner[p]
    at (0, n-1) and (n-1, 0): ``diag`` is (n, P), n >= 5, ``offdiag``
    (n-1, P), or (n-1, 1) when all P share it, and ``corner`` (P,); other
    shapes and non-finite entries are a ValueError.  ``labels`` names each
    matrix.  One inertia kernel call at the shifts -tau and tau, tau =
    ZERO_MODE_TOL, certifies for every matrix that exactly one eigenvalue
    lies in (-tau, tau) (Sylvester's law of inertia); GridTooCoarse names
    the first label, in the given order, that fails.  Eigenvalues 1, ...,
    k-1, if any, are then bisected in the same batch, with tau as the lower
    end of every bracket; k outside 1..n is a ValueError.  The result is
    (P, k - 1); the zero eigenvalue itself is left to the caller, who knows
    its null vector.
    """
    bands = _PeriodicBands(diag, offdiag, corner)
    p = len(bands.corner)
    tau = np.full(p, ZERO_MODE_TOL)
    cols = np.tile(np.arange(p), 2)  # every matrix at -tau, then at tau
    low, high = _periodic_inertia(bands, cols, np.concatenate([-tau, tau]))[0].reshape(2, p)
    failed = np.flatnonzero((low != 0) | (high != 1))
    if len(failed):
        j = failed[0]
        raise GridTooCoarse(
            f"zero mode of {labels[j]} is not isolated: "
            f"{low[j]} eigenvalue(s) below -{ZERO_MODE_TOL:.0e} and "
            f"{high[j] - low[j]} in [-{ZERO_MODE_TOL:.0e}, {ZERO_MODE_TOL:.0e})")
    if k == 1:
        return np.empty((p, 0))
    return _bisect(bands, k, 1, tau)
