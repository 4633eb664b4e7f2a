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

The truncations are general real tridiagonal matrices, non-normal and
possibly with complex spectra.  Their eigensolver lives here, on builtin
floats and complex numbers, so ``wh-sweep`` never imports numpy: a
diagonal similarity to a complex symmetric tridiagonal (off-diagonal
sqrt(upper * lower)), then one implicit-shift QL pass in complex
arithmetic (Cullum & Willoughby), O(n) per sweep.  QL stops once Re w >=
lambda_min(Re B) (Bendixson) puts the undeflated rest past a floor, so
``verify_E_geq_1`` solves only the bottom.

The sector-exclusion certificate holds for tridiagonal matrices with
positive diagonal and nonpositive off-diagonal products: such a matrix has
no eigenvalue in the open sector {Re z < mu, |Im z| < delta (1 - Re z / mu)}
with mu the smallest diagonal entry, provided 0 < delta <= (pi/2) /
sum_k 1/delta_k.  The certificate checks the hypotheses per instance so
callers can assert the exclusion on computed spectra.  Bendixson's floor
Re z >= mu needs only the nonpositive products.
"""

from __future__ import annotations

import cmath
import collections
import math
from array import array


#: Sector half-height used in all exclusion sweeps; valid for every
#: truncation size since sum(1/k^2) < pi^2/6 makes (pi/2)/sum > 3/pi.
SECTOR_DELTA = 3.0 / math.pi

#: Real eigenvalues may undershoot the floor E = 1 by at most this.
REAL_FLOOR_TOL = 1e-8

#: Imag parts below this (relative) are eigensolver roundoff on a real eigenvalue.
REAL_PART_TOL = 1e-8

#: Largest truncation size: a solve peaks at about 200 bytes per row (the
#: bands as arrays of doubles, then lists of builtin complex), so this
#: keeps one solve under 55 MB.
MAX_N = 2**18

#: Sweeps that QL may spend deflating one eigenvalue before NoConvergence.
_QL_MAX_SWEEPS = 40


class NoConvergence(RuntimeError):
    """An eigenvalue iteration hit its sweep cap without deflating."""


class CertificateFailed(RuntimeError):
    """A computed eigenvalue landed inside the certified exclusion sector."""


class Tridiagonal:
    """General real tridiagonal matrix, its bands stored as arrays of doubles.

    ``upper[k]`` is the entry (k, k+1) and ``lower[k]`` the entry (k+1, k).
    """

    __slots__ = ("diag", "upper", "lower")

    def __init__(self, diag, upper, lower):
        self.diag, self.upper, self.lower = array("d", diag), array("d", upper), array("d", lower)
        if len(self.upper) != max(self.n - 1, 0) or len(self.lower) != max(self.n - 1, 0):
            raise ValueError("off-diagonals must have length n-1")

    @property
    def n(self) -> int:
        return len(self.diag)

    def to_dense(self) -> list:
        """The matrix as a list of rows."""
        rows = [[0.0] * self.n for _ in range(self.n)]
        for k, x in enumerate(self.diag):
            rows[k][k] = x
        for k, (up, lo) in enumerate(zip(self.upper, self.lower)):
            rows[k][k + 1], rows[k + 1][k] = up, lo
        return rows


class SectorRegion:
    """Open sector {Re z < mu, |Im z| < delta * (1 - Re z / mu)}."""

    __slots__ = ("mu", "delta")

    def __init__(self, mu: float, delta: float):
        if not (mu > 0 and delta > 0):
            raise ValueError("sector parameters must be positive")
        self.mu, self.delta = mu, delta


#: The hypotheses' verdict, the certified sector (None unless mu and delta
#: are positive) and the failed hypotheses.
CertificateResult = collections.namedtuple("CertificateResult",
                                           "hypotheses_ok region failures")


def ince_matrix(a: float, N: int) -> Tridiagonal:
    """N-th principal truncation of the odd-sine-basis drift operator.

    Diagonal k^2 (k = 1..N), entry (k, k+1) = (k+1) a, entry (k+1, k) = -k a.
    """
    if N < 1:
        raise ValueError("N must be >= 1")
    a = float(a)
    return Tridiagonal(diag=(float(k * k) for k in range(1, N + 1)),
                       upper=((k + 1.0) * a for k in range(1, N)),
                       lower=(-float(k) * a for k in range(1, N)))


# ---------------------------------------------------------------------------
# QL kernel
# ---------------------------------------------------------------------------


def _real_part_exceeds(d, e, start, t) -> bool:
    """Whether the LDL^T pivots of Re B - t are all > 0, B = (d[start:], e[start:n-1]).

    B is complex symmetric, so (B + B^H) / 2 = Re B: True puts every
    eigenvalue w of B at Re w > t (field of values).  NaN answers False.
    """
    q, off = 1.0, 0.0
    for k in range(start, len(d)):
        q = d[k].real - t - off * off / q
        if not q > 0.0:
            return False
        off = e[k].real
    return True


def _tqli_kernel(d, e, max_sweeps, floor):
    """Implicit-shift QL on a complex symmetric tridiagonal (d, e), eigenvalues only.

    ``d`` and ``e`` are lists of n builtin complex numbers (indexing numpy
    scalars cost half the kernel's time), e[n-1] being workspace; the
    eigenvalues overwrite ``d``.  The rotations are complex orthogonal
    (c^2 + s^2 = 1, no conjugation), so a real symmetric input stays real
    and the recurrence is the classic tqli one.  Returns 0 on success,
    1 + index of the eigenvalue whose deflation exceeded ``max_sweeps``, or
    -(1 + index) when a rotation met f^2 + g^2 = 0 with (f, g) != 0, also
    after scaling by max(|f|, |g|), where no complex orthogonal rotation
    exists (isotropic breakdown).
    A coupling with |e[m]| <= eps (|d[m]| + |d[m+1]|), a zero one too,
    splits the matrix: no rotation crosses it.  After 1, 2, 4, ...
    deflations, once the undeflated rows have every Re w > t = max(floor,
    Re z + 2 |Im z| over the deflated z), the kernel cuts ``d`` to the
    deflated eigenvalues and returns 0; a ``floor`` of +inf keeps them all.
    """
    n = len(d)
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
                    if f == 0.0 and g == 0.0:
                        d[i + 1] -= p
                        e[m] = 0.0
                        underflow = True
                        break
                    # f^2 + g^2 underflowed or cancelled: scaled by the
                    # larger of |f|, |g|, only an isotropic pair gives 0
                    big = max(abs(f), abs(g))
                    r = big * cmath.sqrt((f / big) ** 2 + (g / big) ** 2)
                    if r == 0.0:
                        return -(low + 1)
                    e[i + 1] = r
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
        floor = max(floor, d[low].real + 2.0 * abs(d[low].imag))
        # tried when low + 1, the deflations so far, is a power of two
        if low & (low + 1) == 0 and _real_part_exceeds(d, e, low + 1, floor):
            del d[low + 1:]
            return 0
    return 0


def _ql_eigenvalues(diag, offdiag, floor=math.inf) -> list:
    """Eigenvalues of the complex symmetric tridiagonal (diag, offdiag), unsorted;
    below a finite ``floor``, only those ``_tqli_kernel`` deflated.

    The matrix is first scaled by one power of two so that its largest
    entry lies in [1/2, 1), or in [1, 2) from 2^1023 on: the rotations
    square their inputs, and the scaling keeps those squares clear of
    overflow.  It is exact on the entries it leaves normal, but a block
    between zero couplings far below the largest entry shares it: from
    about 2^-480 of that entry the block can lose bits, and below 2^-1074
    of it an entry flushes to 0 ([1e300, 1e-300] gives 0 for 1e-300).
    The kernel runs on lists of builtin complex; where that arithmetic
    raises, it counts as a non-finite result.  Raises NoConvergence when
    an eigenvalue needs more than _QL_MAX_SWEEPS sweeps, when a rotation
    breaks down, or when the result is not finite, and ValueError on a
    non-finite entry.
    """
    d = [complex(x) for x in diag]
    e = [complex(x) for x in offdiag] + [0j]
    if not all(map(cmath.isfinite, d)) or not all(map(cmath.isfinite, e)):
        raise ValueError("matrix entries must be finite")
    big = max(max(map(abs, d), default=0.0), max(map(abs, e)))
    # 2^1024 overflows
    scale = math.ldexp(1.0, min(math.frexp(big)[1], 1023)) if big > 0.0 else 1.0
    # each part divided on its own, as numpy divides a complex by a real:
    # cmath.sqrt branches on the sign of a zero part, and CPython's
    # z / scale can flip it
    values = [complex((z.real + z.imag * 0.0) / scale, (z.imag - z.real * 0.0) / scale)
              for z in d]
    e = [complex((z.real + z.imag * 0.0) / scale, (z.imag - z.real * 0.0) / scale) for z in e]
    try:
        status = _tqli_kernel(values, e, _QL_MAX_SWEEPS, floor / scale)
    except (OverflowError, ZeroDivisionError) as exc:
        raise NoConvergence(f"QL iteration left the floating-point range: {exc}") from exc
    if status > 0:
        raise NoConvergence(
            f"QL iteration exceeded {_QL_MAX_SWEEPS} sweeps at eigenvalue {status - 1}")
    if status < 0:
        raise NoConvergence(
            f"isotropic QL rotation (f^2 + g^2 = 0) at eigenvalue {-status - 1}")
    if not all(map(cmath.isfinite, values)):
        raise NoConvergence("QL iteration produced a non-finite eigenvalue")
    return [complex(z.real * scale, z.imag * scale) for z in values]


# ---------------------------------------------------------------------------
# general tridiagonal path
# ---------------------------------------------------------------------------


def _close_under_conjugation(ev: list) -> list:
    """Snap the computed spectrum of a real matrix onto a conjugation-closed set.

    Complex QL does not preserve realness: a real eigenvalue comes out with
    a roundoff imaginary part, and the members of a conjugate pair differ
    by roundoff.  In order of increasing |Im z|, each unmatched eigenvalue z
    is compared with the unmatched eigenvalue w nearest its conjugate (the
    first one, on a tie).  If z lies at least as close to its own conjugate
    (2 |Im z| <= |w - conj z|) it is real and its imaginary part is
    dropped; otherwise z and w form a pair and both get the mean real part
    and +- the mean |imaginary| part.
    """
    out = list(ev)
    free = [True] * len(ev)
    for i in sorted(range(len(ev)), key=lambda k: abs(ev[k].imag)):
        if not free[i]:
            continue
        free[i] = False
        z = ev[i]
        conj = z.conjugate()
        gaps = [abs(w - conj) if f else math.inf for w, f in zip(ev, free)]
        gap = min(gaps, default=math.inf)
        if 2.0 * abs(z.imag) <= gap:
            out[i] = complex(z.real)
            continue
        j = gaps.index(gap)
        free[j] = False
        w = ev[j]
        # halved before they are added, which cannot overflow
        re = 0.5 * z.real + 0.5 * w.real
        im = 0.5 * abs(z.imag) + 0.5 * abs(w.imag)
        up, down = (i, j) if z.imag >= w.imag else (j, i)
        out[up], out[down] = complex(re, im), complex(re, -im)
    return out


def eig_general_tridiagonal(tri: Tridiagonal, floor=math.inf) -> list:
    """The bottom of a real tridiagonal spectrum, by default all of it, as complex numbers.

    Where upper[k] * lower[k] != 0 the matrix is diagonally similar to the
    complex symmetric tridiagonal with the same diagonal and off-diagonal
    sqrt(upper[k] * lower[k]); where the product vanishes it is block
    triangular, and the zero coupling splits the QL iteration there.  One
    implicit-shift QL pass in complex arithmetic, O(n) per sweep, solves
    it.  NoConvergence is raised when one eigenvalue needs more than
    _QL_MAX_SWEEPS sweeps or a rotation meets isotropic breakdown.  The result
    is closed under conjugation, like the spectrum of any real matrix, and
    sorted by (real, imaginary) part, which keeps conjugate pairs adjacent.
    Only what QL deflated before the rest was certified at Re w > t =
    max(floor, Re z + 2 |Im z| over returned z) comes back: the bottom of
    the whole spectrum, bit for bit, and with the default floor of +inf
    the whole spectrum.  Far-off blocks can lose bits (``_ql_eigenvalues``).
    """
    offdiag = []
    for up, lo in zip(tri.upper, tri.lower):
        coupling = math.sqrt(abs(up)) * math.sqrt(abs(lo))
        offdiag.append(complex(0.0, coupling) if (up < 0.0) != (lo < 0.0) else complex(coupling))
    ev = _ql_eigenvalues(tri.diag, offdiag, floor)
    return sorted(_close_under_conjugation(ev), key=lambda z: (z.real, z.imag))


# ---------------------------------------------------------------------------
# sector exclusion certificate
# ---------------------------------------------------------------------------


def _nonpositive_products(tri: Tridiagonal) -> bool:
    """Whether every upper_k * lower_k <= 0, by signs (the product can overflow)."""
    return all((up <= 0.0 and lo >= 0.0) or (up >= 0.0 and lo <= 0.0)
               for up, lo in zip(tri.upper, tri.lower))


def _smallest(values) -> float:
    """The smallest value, NaN if any is NaN."""
    return math.nan if any(map(math.isnan, values)) else min(values)


def bendixson_floor(tri: Tridiagonal) -> float | None:
    """min(diag), a floor on Re z over the spectrum, if every upper_k * lower_k <= 0.

    Split where a product vanishes, each diagonal block is diagonally
    similar to D + iJ, D = diag(diag) and J real symmetric, so every
    eigenvalue has Re z = x*Dx >= min(diag) for a unit eigenvector x
    (Bendixson, Acta Math. 25, 1902).  None for a positive or NaN product.
    """
    if tri.n == 0 or not _nonpositive_products(tri):
        return None
    return _smallest(tri.diag)


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
    if tri.n and not all(x > 0.0 for x in diag):
        failures.append("diagonal entries must be positive")
    if not _nonpositive_products(tri):
        failures.append("off-diagonal products must be nonpositive")
    delta = float(delta)
    if not failures:
        delta_max = (math.pi / 2.0) / math.fsum(1.0 / x for x in diag)
        if not 0.0 < delta <= delta_max:
            failures.append(
                f"delta must lie in (0, {delta_max:.6g}], got {delta:.6g}")
    mu = _smallest(diag) if tri.n else 0.0
    region = SectorRegion(mu, delta) if (mu > 0.0 and delta > 0.0) else None
    return CertificateResult(not failures, region, tuple(failures))


def point_in_sector(z, region: SectorRegion) -> bool:
    """Strict membership in the open sector (boundary excluded)."""
    z = complex(z)
    if not z.real < region.mu:
        return False
    return abs(z.imag) < region.delta * (1.0 - z.real / region.mu)


# ---------------------------------------------------------------------------
# spectral floor sweep
# ---------------------------------------------------------------------------


def _bottom_eigenvalue(eigs):
    """Smallest-real-part eigenvalue (the first, on a tie) and whether it is
    genuinely complex."""
    z = min(eigs, key=lambda z: z.real)
    return float(z.real), bool(abs(z.imag) > REAL_PART_TOL * max(1.0, abs(z)))


def _floor_row(a: float, N: int) -> dict:
    """One coupling's row of ``verify_E_geq_1``; raises CertificateFailed."""
    tri = ince_matrix(a, N)
    cert = sector_exclusion_certificate(tri, SECTOR_DELTA)
    eigs = eig_general_tridiagonal(
        tri, floor=max(1.0 - REAL_FLOOR_TOL, cert.region.mu if cert.region else 0.0))
    hit = None if cert.region is None else next(
        (z for z in eigs if point_in_sector(z, cert.region)), None)
    if hit is not None and cert.hypotheses_ok:
        raise CertificateFailed(
            f"eigenvalue {hit} of the size-{N} truncation at a={a} lies in the excluded sector")
    floor_ok = all(z.real >= 1.0 - REAL_FLOOR_TOL for z in eigs
                   if abs(z.imag) <= REAL_PART_TOL * max(1.0, abs(z)))
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


def verify_E_geq_1(a_values, N: int = 60) -> dict:
    """Certify the spectral floor E >= 1 for a sweep of couplings.

    For each coupling: check the sector-certificate hypotheses on the
    truncation, compute its eigenvalues, record whether any lies in the
    sector (``in_sector``), raising CertificateFailed when one does while
    the hypotheses hold, and check every real eigenvalue against the floor
    1 - 1e-8.  Only the deflated bottom of the spectrum is computed: the
    Re B bound certifies the rest right of the sector's vertex and of that
    floor (the ``floor`` of ``eig_general_tridiagonal``), so each row is
    the full spectrum's.  Beside that, Bendixson's floor (``bendixson_floor``,
    min diag = 1 for every truncation, None if its hypothesis fails) bounds
    Re E below without the spectrum; a row passes only if it is at least 1
    too.  Returns {"all_pass": bool, "table": rows}, one row per coupling in
    the given order.  The couplings run in that order, in this process, and
    the first that raises stops the sweep.
    """
    if not 1 <= N <= MAX_N:
        raise ValueError(f"N must be from 1 to {MAX_N}, got {N}")
    table = [_floor_row(float(a), N) for a in a_values]
    return {"all_pass": all(row["pass"] for row in table), "table": table}
