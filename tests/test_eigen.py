import functools

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kohnspec import (
    ModeWindow,
    build_curve,
    circle_profile,
    mode_spectra,
    random_profile,
    NoConvergence,
)
import kohnspec.eigen as eigen_mod
import kohnspec.whittakerhill as whittakerhill
from kohnspec.eigen import (
    _PeriodicBands,
    _bisect,
    _cycle_counts,
    _dyadic_points,
    _periodic_inertia,
    certified_spectra,
)
from kohnspec.modes import assemble_bands
from oracles import eig_sym_tridiagonal, inertia_counts, periodic_dense, wh_bands


def tridiagonal_count(d, e, x) -> int:
    """Eigenvalues of the symmetric tridiagonal (d, e) below x: a periodic count with corner 0."""
    return int(inertia_counts(_PeriodicBands(d[:, None], e[:, None], [0.0]), [[x]])[0, 0])


def charpoly_bisection_roots(a, samples=20000):
    """Oracle: roots of det(A - x I) by sign-change bisection.

    Uses LU determinants and plain bisection, sharing nothing with the
    Householder reduction and Sturm count it checks.  Assumes simple
    eigenvalues.
    """
    radius = np.max(np.sum(np.abs(a), axis=1))
    xs = np.linspace(-radius, radius, samples)
    dets = np.array([np.linalg.det(a - x * np.eye(len(a))) for x in xs])
    roots = []
    for i in range(len(xs) - 1):
        if dets[i] == 0.0:
            roots.append(xs[i])
        elif dets[i] * dets[i + 1] < 0.0:
            lo, hi = xs[i], xs[i + 1]
            for _ in range(80):
                mid = 0.5 * (lo + hi)
                dm = np.linalg.det(a - mid * np.eye(len(a)))
                if dm == 0.0:
                    lo = hi = mid
                    break
                if np.sign(dm) == np.sign(np.linalg.det(a - lo * np.eye(len(a)))):
                    lo = mid
                else:
                    hi = mid
            roots.append(0.5 * (lo + hi))
    return np.array(roots)


def cycle_dense(diag, off):
    """Dense matrix of the cycle with diagonal ``diag`` and couplings (k, k+1 mod L) ``off``."""
    return periodic_dense(diag, off[:-1], off[-1])


def check_cycle_counts(diag, off, shifts, eigenvalues):
    """``_cycle_counts`` of every cycle c at every shift of ``shifts[c]``, as
    one (C, L) stack, against the count of ``eigenvalues[c]`` below it."""
    rows = [(d - x, o, np.count_nonzero(np.asarray(ev) < x))
            for d, o, xs, ev in zip(diag, off, shifts, eigenvalues) for x in xs]
    d, o, want = (np.array(v) for v in zip(*rows))
    with np.errstate(all="raise"):
        np.testing.assert_array_equal(_cycle_counts(d, o), want)


def between(ev):
    """Shifts below, between and above the eigenvalues ``ev``, away from them."""
    ev = np.sort(ev)
    width = max(1.0, np.abs(ev).max())
    mids = [0.5 * (a + b) for a, b in zip(ev[:-1], ev[1:]) if b - a > 1e-6 * width]
    return [ev[0] - 0.5 * width, *mids, ev[-1] + 0.5 * width]


class TestDenseSymmetric:
    """``_cycle_counts``, the dense count of the cycles of separators and
    nodes, on (C, L) stacks of cycles."""

    @pytest.mark.usefixtures("raise_fp")
    def test_identity(self):
        one = np.ones((2, 5))
        np.testing.assert_array_equal(_cycle_counts(one - [[0.5], [1.5]], 0.0 * one), [0, 5])

    @pytest.mark.parametrize("length", [4, 5, 6, 17, 40])
    def test_stacks_match_lapack(self, length):
        # random and small-integer cycles, a cycle whose last row is all
        # zero, so that the first Householder step finds a zero row, one
        # with a zero row inside, and the zero cycle
        rng = np.random.default_rng(length)
        diag = [rng.standard_normal(length) for _ in range(3)] + [
            rng.integers(-2, 3, length).astype(float) for _ in range(3)]
        off = [rng.standard_normal(length) for _ in range(3)] + [
            rng.integers(-2, 3, length).astype(float) for _ in range(3)]
        for j in (1, 4):
            diag[j][-1] = off[j][-2] = off[j][-1] = 0.0
        diag[2][length // 2] = off[2][length // 2 - 1] = off[2][length // 2] = 0.0
        diag.append(np.zeros(length))
        off.append(np.zeros(length))
        ev = [np.linalg.eigvalsh(cycle_dense(d, o)) for d, o in zip(diag, off)]
        check_cycle_counts(diag, off, [between(v) for v in ev], ev)

    def test_graded_cycle(self):
        # a cycle of separators and nodes of the Whittaker-Hill operator at
        # a = 40, n = 256: -1.7e10 next to 1.6e-4, and an eigenvalue of
        # -1.09e-6, which LAPACK on the dense matrix puts at -5.3e-7;
        # 60-digit mpmath is the oracle
        d = np.array([10.7322638, 2418.81912, 3702.32997, 2296.01574, 1.62318111e-4,
                      -1.69774852e10, -7.72538124, 3702.32997, 2418.81912])
        o = np.array([-1.98865581e-2, -2.76622800e-9, -4.19205183e-9, -0.611505419,
                      -1660.04627, -6.25393780e6, -4.19205183e-9, -2.76622800e-9, -1.98865581e-2])
        with mpmath.workdps(60):
            ev = sorted(float(v) for v in mpmath.eigsy(mpmath.matrix(cycle_dense(d, o).tolist()),
                                                       eigvals_only=True))
        assert -1.1e-6 < ev[1] < -1.09e-6
        shifts = [0.0] + [v * s for v in ev for s in (0.5, 1.5, 1.0 - 1e-6, 1.0 + 1e-6)]
        check_cycle_counts([d], [o], [shifts], [ev])

    @pytest.mark.usefixtures("raise_fp")
    def test_random_vs_charpoly_oracle(self):
        rng = np.random.default_rng(42)
        d, o = rng.standard_normal(6), rng.standard_normal(6)
        oracle = charpoly_bisection_roots(cycle_dense(d, o))
        assert len(oracle) == 6
        check_cycle_counts([d], [o], [between(oracle)], [oracle])

    def test_no_convergence_raised(self, monkeypatch):
        rng = np.random.default_rng(5)
        d, e = rng.standard_normal(8), rng.standard_normal(7)
        monkeypatch.setattr(whittakerhill, "_QL_MAX_SWEEPS", 0)
        with pytest.raises(NoConvergence):
            eig_sym_tridiagonal(d, e)

    @pytest.mark.usefixtures("raise_fp")
    def test_matches_ql_on_tridiagonal_input(self):
        # the cycle's last coupling 0: a tridiagonal, against QL's eigenvalues
        rng = np.random.default_rng(11)
        d, e = rng.standard_normal(30), rng.standard_normal(29)
        ev = eig_sym_tridiagonal(d, e)
        check_cycle_counts([d], [np.append(e, 0.0)], [between(ev)], [ev])

    @pytest.mark.usefixtures("raise_fp")
    def test_sturm_counts_agree(self):
        rng = np.random.default_rng(12)
        d, e = rng.standard_normal(25), rng.standard_normal(24)
        vals = eig_sym_tridiagonal(d, e)
        scale = np.max(np.abs(vals))
        for i, lam in enumerate(vals):
            assert tridiagonal_count(d, e, lam - 1e-9 * scale) == i
            assert tridiagonal_count(d, e, lam + 1e-9 * scale) >= i + 1


@pytest.fixture
def raise_fp():
    with np.errstate(all="raise"):
        yield


@functools.lru_cache(maxsize=None)
def oracle_case(kind, n, seed, m, l):
    """Bands of one test matrix and their eigenvalues from LAPACK."""
    if kind == "wh0":
        bands = wh_bands(0.0, n)
    else:
        profile = circle_profile(1.0) if kind == "circle" else random_profile(seed)
        bands = assemble_bands(build_curve(profile, n), (m, l))
    return bands, np.linalg.eigvalsh(periodic_dense(*bands))


def check_counts(bands, ev, shifts):
    """Kernel counts at ``shifts``, one column each, against LAPACK, away
    from eigenvalues."""
    diag, offdiag, corner = bands
    x = np.asarray(shifts, dtype=float)
    batch = _PeriodicBands(np.repeat(diag[:, None], len(x), axis=1), offdiag[:, None],
                           np.full(len(x), corner))
    with np.errstate(all="raise"):
        counts = _periodic_inertia(batch, np.arange(len(x)), x)[0]
    scale = np.abs(ev).max()
    for xi, count in zip(x, counts):
        if np.min(np.abs(ev - xi)) > 1e-9 * scale:
            assert count == np.count_nonzero(ev < xi), xi


# n covers every remainder mod 4 of the separator layout; the free
# operator (wh0) and the circle's modes have double eigenvalues
cases = st.one_of(
    st.tuples(st.just("wh0"), st.sampled_from([5, 6, 7, 8, 16, 18, 50, 64, 512, 514]),
              st.just(0), st.just(0), st.just(0)),
    st.tuples(st.just("mode"), st.sampled_from([50, 64, 512, 514]), st.integers(0, 2),
              st.integers(-4, 4), st.integers(-4, 4)),
    st.tuples(st.just("circle"), st.sampled_from([18, 50, 64, 512, 514]), st.just(0),
              st.integers(-4, 4), st.integers(-4, 4)),
)


class TestPeriodicInertia:
    def test_zero_pivot_at_dyadic_shift(self):
        # x = 1.5 * d[0] makes every third pivot of the free Laplacian
        # exactly zero; the fill past it used to overflow and lose a count
        bands, ev = oracle_case("wh0", 64, 0, 0, 0)
        x = 1.5 * bands[0][0]
        assert np.count_nonzero(ev < x) == 43
        check_counts(bands, ev, [x])

    def test_zero_pivots_next_to_the_corner(self):
        # quarter steps of d[0] put zero pivots every second to fourth row;
        # n = 5..16, every remainder mod 12, moves them onto each row next
        # to the wrap-around corner
        for n in range(5, 17):
            bands = wh_bands(0.0, n)
            ev = np.linalg.eigvalsh(periodic_dense(*bands))
            check_counts(bands, ev, [bands[0][0] * j / 4 for j in range(-1, 18)])

    def test_zero_pivots_next_to_the_separators(self):
        # the same quarter steps for n = 5..44: zero pivots land on the rows
        # next to each of the four separators, for every remainder of n mod
        # 4, among them each block's last row, where the block is singular
        # and that row is counted beside the Schur complement.  At n = 87,
        # 174 and 197 the Householder reduction of a cycle of nodes
        # underflows, which must not raise under check_counts' error state
        for n in [*range(5, 45), 87, 88, 174, 197, 198]:
            bands = wh_bands(0.0, n)
            ev = np.linalg.eigvalsh(periodic_dense(*bands))
            check_counts(bands, ev, [bands[0][0] * j / 4 for j in range(-1, 18)])

    @pytest.mark.usefixtures("raise_fp")
    def test_tiny_pivot_before_a_singular_block(self):
        # at x = 0 a block's three rows have LDL^T pivots 1, +-2^-22 and
        # exactly 0, in each block of three rows and for every remainder of
        # n mod 4; an eigenvalue pinned at +-1e-7 by a diagonal entry
        # outside the block makes the count see how those rows couple to
        # the separators
        rng = np.random.default_rng(43)
        for n in range(16, 20):
            q, r = divmod(n, 4)
            for t in (q + r - 1, 2 * q + r - 1, 3 * q + r - 1, n - 1)[r > 0:]:
                for target in np.repeat([-1e-7, 1e-7], 5):
                    d, e = rng.uniform(-2.0, 2.0, n), rng.uniform(-1.0, 1.0, n - 1)
                    sigma, signs = rng.choice([-1.0, 1.0]), rng.choice([-1.0, 1.0], 3)
                    d[t - 2:t + 1] = 1.0, 1.0 + sigma * 2.0**-22, sigma
                    e[t - 3:t] = signs * [1.0, 1.0, 2.0**-11]
                    corner = rng.uniform(-1.0, 1.0)
                    # d[s], s outside the block, that makes A - target singular
                    s = (t + 1 + q) % n
                    rest = np.delete(np.arange(n), s)
                    a = periodic_dense(d, e, corner) - target * np.eye(n)
                    d[s] = target + a[s, rest] @ np.linalg.solve(a[np.ix_(rest, rest)], a[rest, s])
                    ev = np.linalg.eigvalsh(periodic_dense(d, e, corner))
                    assert np.min(np.abs(ev - target)) < 1e-9
                    bands = _PeriodicBands(d[:, None], e[:, None], [corner])
                    count = inertia_counts(bands, [[0.0]])[0, 0]
                    assert count == np.count_nonzero(ev < 0.0), (n, t, target)

    @pytest.mark.usefixtures("raise_fp")
    def test_small_integer_matrices(self):
        # entries in -2..2 at half-integer shifts: exact zero pivots next
        # to zero couplings, anywhere in the blocks and on the separators
        rng = np.random.default_rng(44)
        for _ in range(300):
            n = int(rng.integers(5, 40))
            d, e = rng.integers(-2, 3, n).astype(float), rng.integers(-2, 3, n - 1).astype(float)
            corner = float(rng.integers(-2, 3))
            ev = np.linalg.eigvalsh(periodic_dense(d, e, corner))
            check_counts((d, e, corner), ev, np.arange(-6.0, 6.5, 0.5))

    @pytest.mark.usefixtures("raise_fp")
    def test_zero_pivot_in_the_schur_complement(self):
        # separators (rows 0, 4, 8, 12 at n = 16) decoupled from the
        # blocks: S is diag(d[s] - x), and x = d[s] makes one of its pivots
        # exactly zero, counted negative like every clamped pivot
        n = 16
        rng = np.random.default_rng(41)
        d, e = rng.uniform(1.0, 5.0, n), rng.uniform(0.5, 1.0, n - 1)
        e[[0, 3, 4, 7, 8, 11, 12]] = 0.0
        ev = np.linalg.eigvalsh(periodic_dense(d, e, 0.0))
        for s in (0, 4, 8, 12):
            assert np.count_nonzero(np.abs(ev - d[s]) < 1e-9) == 1
            assert tridiagonal_count(d, e, d[s]) == np.count_nonzero(ev < d[s] - 1e-9) + 1

    @pytest.mark.usefixtures("raise_fp")
    @pytest.mark.parametrize("block_rows", [2, 3, 5])
    def test_many_separators(self, monkeypatch, block_rows):
        # blocks of a few rows make K > 4 separators, and a Schur
        # complement that is cut again, already at small n: quarter steps of
        # the free Laplacian put zero pivots next to every separator, and
        # small integer matrices put them anywhere, at every remainder
        # of n mod K
        monkeypatch.setattr(eigen_mod, "_BLOCK_ROWS", block_rows)
        for n in range(13, 70, 3):
            bands = wh_bands(0.0, n)
            ev = np.linalg.eigvalsh(periodic_dense(*bands))
            check_counts(bands, ev, [bands[0][0] * j / 4 for j in range(-1, 18)])
        rng = np.random.default_rng(61)
        for _ in range(100):
            n = int(rng.integers(13, 90))
            d, e = rng.integers(-2, 3, n).astype(float), rng.integers(-2, 3, n - 1).astype(float)
            corner = float(rng.integers(-2, 3))
            ev = np.linalg.eigvalsh(periodic_dense(d, e, corner))
            check_counts((d, e, corner), ev, np.arange(-6.0, 6.5, 0.5))

    @pytest.mark.usefixtures("raise_fp")
    def test_many_separators_at_default_blocks(self):
        # n >= 128 cuts A - x into more than 4 blocks of about 32 rows
        rng = np.random.default_rng(62)
        for n in (128, 130, 161, 256, 300):
            d, e = rng.integers(-2, 3, n).astype(float), rng.integers(-2, 3, n - 1).astype(float)
            e[rng.random(n - 1) < 0.3] = 0.0
            corner = float(rng.integers(-2, 3))
            ev = np.linalg.eigvalsh(periodic_dense(d, e, corner))
            check_counts((d, e, corner), ev, np.arange(-6.0, 6.5, 0.5))

    def test_node_inside_the_schur_complement(self, monkeypatch):
        # blocks of one row, diagonal 1 at x = 0 and coupled by 1 to both
        # separators, whose diagonal is 4 - y: the blocks have no negative
        # pivot, and S is the periodic Laplacian (2, -1) minus y, whose own
        # elimination meets zero pivots at the quarter steps y = j / 2
        monkeypatch.setattr(eigen_mod, "_BLOCK_ROWS", 2)
        dense = []
        small = eigen_mod._cycle_counts

        def spy(diag, off):
            dense.append(diag.shape)
            return small(diag, off)

        monkeypatch.setattr(eigen_mod, "_cycle_counts", spy)
        for k in (10, 14, 22, 26):
            for y in np.arange(0.5, 4.0, 0.5):
                d = np.ones(2 * k)
                d[::2] = 4.0 - y
                e = np.ones(2 * k - 1)
                ev = np.linalg.eigvalsh(periodic_dense(d, e, 1.0))
                check_counts((d, e, 1.0), ev, [0.0])
        assert dense  # nodes were counted inside S, the blocks have none

    def test_one_dense_count_per_cycle_length(self, monkeypatch):
        # the sweep of a circle meets thousands of nodal columns; each kernel
        # call counts all its cycles of one length in one batch
        kernel, dense = eigen_mod._periodic_inertia, eigen_mod._cycle_counts
        stacks = []  # per kernel call, the (cycles, length) of each dense count

        def kernel_spy(bands, cols, x):
            stacks.append([])
            return kernel(bands, cols, x)

        def dense_spy(diag, off):
            stacks[-1].append(diag.shape)
            return dense(diag, off)

        monkeypatch.setattr(eigen_mod, "_periodic_inertia", kernel_spy)
        monkeypatch.setattr(eigen_mod, "_cycle_counts", dense_spy)
        mode_spectra(build_curve(circle_profile(10.0), 512), list(ModeWindow(2, 2).modes()))
        for call in stacks:
            lengths = [length for _, length in call]
            assert len(lengths) == len(set(lengths)), lengths
        dense_calls = sum(map(len, stacks))
        assert sum(cycles for call in stacks for cycles, _ in call) > 10 * dense_calls > 0

    def test_counts_monotone_next_to_double_eigenvalues(self):
        # the circle's mode (0, 0), the paper's equality case, and the free
        # Whittaker-Hill operator have a double lambda_1 = lambda_2; across
        # it the count must rise from 1 to 3 and never fall
        circle = assemble_bands(build_curve(circle_profile(1.0), 512), (0, 0))
        for diag, off, corner in (circle, wh_bands(0.0, 256)):
            lam = np.linalg.eigvalsh(periodic_dense(diag, off, corner))[1]
            x = lam + np.linspace(-6e-9, 6e-9, 61)
            bands = _PeriodicBands(diag[:, None], off[:, None], [corner])
            counts = inertia_counts(bands, x[:, None])[:, 0]
            assert np.all(np.diff(counts) >= 0), counts
            assert counts[0] == 1 and counts[-1] == 3

    @settings(max_examples=150, deadline=None)
    @given(case=cases, fractions=st.lists(st.floats(-0.05, 1.05), min_size=1, max_size=8))
    def test_random_shifts_match_lapack(self, case, fractions):
        bands, ev = oracle_case(*case)
        lo, hi = ev[0], ev[-1]
        check_counts(bands, ev, [lo + t * (hi - lo) for t in fractions])

    @settings(max_examples=150, deadline=None)
    @given(case=cases, k=st.integers(0, 12), data=st.data())
    def test_dyadic_shifts_match_lapack(self, case, k, data):
        bands, ev = oracle_case(*case)
        d0 = bands[0][0]
        top = int(np.ceil(ev[-1] / abs(d0) * 2**k)) + 1
        j = data.draw(st.lists(st.integers(-2, top), min_size=1, max_size=8))
        check_counts(bands, ev, [d0 * ji / 2**k for ji in j])

    @pytest.mark.usefixtures("raise_fp")
    def test_batch_matches_single_matrices(self):
        # columns with and without zero pivots side by side in one batch
        n = 64
        mats = [oracle_case("wh0", n, 0, 0, 0)[0],
                oracle_case("mode", n, 1, 2, -1)[0],
                oracle_case("mode", n, 2, 0, 0)[0]]
        batch = _PeriodicBands(np.stack([m[0] for m in mats], axis=1),
                               np.stack([m[1] for m in mats], axis=1),
                               np.array([m[2] for m in mats]))
        d0 = mats[0][0][0]
        x = np.repeat(d0 * np.arange(-2, 33)[:, None] / 8, 3, axis=1)
        x[:, 1] = np.linspace(-1.0, 2.0 * np.abs(mats[1][0]).max(), len(x))
        # one column per (matrix, shift), row i of x after row i - 1
        cols = np.tile(np.arange(len(mats)), len(x))
        batched = [v.reshape(x.shape) for v in _periodic_inertia(batch, cols, x.ravel())]
        for p, bands in enumerate(mats):
            single = _PeriodicBands(bands[0][:, None], bands[1][:, None],
                                    np.array([bands[2]]))
            for i in range(len(x)):
                # counts and determinants (NaN mantissas where a column has nodes)
                for got, want in zip(batched, _periodic_inertia(single, [0], x[i, p:p + 1])):
                    np.testing.assert_array_equal(got[i, p], want[0])
        # one batch keeps its workspace through calls that grow it, shrink
        # and grow it again, on unsorted repeated columns; the fourth matrix,
        # 2^40 times the second, puts unit != 1: the same bits as on fresh
        # batches, and the counts of each matrix alone
        mats.append(tuple(band * 2.0**40 for band in mats[1]))
        arrays = [np.stack([m[j] for m in mats], axis=-1) for j in range(3)]
        x[:, 2] = np.linspace(-1.0, 2.0 * np.abs(mats[2][0]).max(), len(x))
        x = np.column_stack([x, x[:, 1] * 2.0**40])
        kept = _PeriodicBands(*arrays)
        assert (kept.unit != 1.0).all()
        for cols, size in (([3, 0, 2, 2, 1, 3, 0], 7), ([2, 3], 7),
                           ([1, 3, 3, 0, 2, 0, 1, 2, 3, 1, 0], 11)):
            shifts = x[np.linspace(0, len(x) - 1, len(cols)).astype(int), cols]
            got = _periodic_inertia(kept, cols, shifts)
            assert kept.work.size == n * size
            want = _periodic_inertia(_PeriodicBands(*arrays), cols, shifts)
            assert [v.tobytes() for v in got] == [v.tobytes() for v in want]
            alone = [_periodic_inertia(_PeriodicBands(*(a[..., c:c + 1] for a in arrays)),
                                       [0], [shift])[0][0] for c, shift in zip(cols, shifts)]
            assert got[0].tolist() == alone

    def test_matrices_scaled_far_from_one(self):
        # the kernel squares entries: scaled by 2^k, the periodic Laplacian
        # used to overflow (k = 520) or underflow (k = -540) and miscount;
        # bisection's old absolute stop width 1e-13 missed this check from
        # k = -14 down, and from k = -46, where the whole spectrum is
        # narrower, returned the Gershgorin midpoint for every eigenvalue
        n = 16
        d, e = np.full(n, 2.0), np.full(n - 1, -1.0)
        x = np.array([[0.5], [1.5], [3.5]])
        want = np.linalg.eigvalsh(periodic_dense(d, e, -1.0))
        for k in range(-1020, 1021, 10):
            s = 2.0**k
            bands = _PeriodicBands(d[:, None] * s, e[:, None] * s, [-s])
            assert inertia_counts(bands, x * s)[:, 0].tolist() == [3, 7, 13], k
            # lambda_0 = 0, known only to roundoff of the norm 4 s, and the
            # double lambda_1 = lambda_2 (higher ones meet dyadic zero
            # pivots, whose dense node counts are slow)
            vals = _bisect(bands, 3)[0]
            np.testing.assert_allclose(vals, want[:3] * s, rtol=1e-10, atol=4e-10 * s,
                                       err_msg=k)

    def test_scaling_is_exact(self):
        # a batch that holds a matrix scaled by 2^520 is scaled matrix by
        # matrix: its other matrix gets the counts and eigenvalues it gets
        # alone, bit for bit
        rng = np.random.default_rng(47)
        n = 24
        d, e = rng.uniform(-2.0, 2.0, n), rng.standard_normal(n - 1)
        x = rng.uniform(-4.0, 4.0, (9, 1))
        s = 2.0**520
        both = _PeriodicBands(np.stack([d, d * s], axis=1), np.stack([e, e * s], axis=1),
                              [0.3, 0.3 * s])
        alone = _PeriodicBands(d[:, None], e[:, None], [0.3])
        counts = inertia_counts(both, np.hstack([x, x * s]))
        np.testing.assert_array_equal(counts[:, 0], counts[:, 1])
        np.testing.assert_array_equal(counts[:, :1], inertia_counts(alone, x))
        np.testing.assert_array_equal(_bisect(both, 4)[0], _bisect(alone, 4)[0])

    def test_shared_coupling_column(self):
        # an (n-1, 1) coupling broadcasts over the batch: the same counts
        # and eigenvalues as its repeated columns, bit for bit, also in the
        # smallest matrices (n = 5: four blocks of one row and the
        # remainder) and in a batch scaled away from 2^520
        rng = np.random.default_rng(53)
        p = 5
        for n, s in ((5, 1.0), (16, 1.0), (37, 1.0), (64, 2.0**520)):
            d = rng.uniform(-2.0, 2.0, (n, p)) * s
            e = rng.standard_normal((n - 1, 1)) * s
            corner = rng.standard_normal(p) * s
            x = rng.uniform(-4.0, 4.0, (7, p)) * s
            shared = _PeriodicBands(d, e, corner)
            full = _PeriodicBands(d, np.repeat(e, p, axis=1), corner)
            np.testing.assert_array_equal(inertia_counts(shared, x), inertia_counts(full, x))
            np.testing.assert_array_equal(_bisect(shared, 3), _bisect(full, 3))

    def test_gershgorin_equals_a_loop_over_rows(self):
        # each row's radius 0 + |e[i-1]| + |e[i]| (+ |corner| at both ends),
        # added in this order, for per-matrix and shared couplings, in range
        # and scaled by 2^600 (divided by ``unit``, exactly)
        rng = np.random.default_rng(67)
        n, p = 300, 4
        for s in (1.0, 2.0**600):
            d = rng.uniform(-2.0, 2.0, (n, p)) * s
            corner = rng.standard_normal(p) * s
            for e in (rng.standard_normal((n - 1, p)) * s, rng.standard_normal((n - 1, 1)) * s):
                lo, hi = _PeriodicBands(d, e, corner).gershgorin()
                for j in range(p):
                    ej = e[:, min(j, e.shape[1] - 1)]
                    radius = [0.0] * n
                    for i in range(n):
                        if i:
                            radius[i] += abs(ej[i - 1])
                        if i < n - 1:
                            radius[i] += abs(ej[i])
                    radius[0] += abs(corner[j])
                    radius[-1] += abs(corner[j])
                    assert lo[j] == min(d[i, j] - radius[i] for i in range(n))
                    assert hi[j] == max(d[i, j] + radius[i] for i in range(n))

    @pytest.mark.usefixtures("raise_fp")
    def test_plain_tridiagonal_zero_pivots(self):
        # the free Dirichlet Laplacian counted at its own diagonal
        n = 40
        d, e = np.full(n, 2.0), np.full(n - 1, -1.0)
        ev = np.linalg.eigvalsh(periodic_dense(d, e, 0.0))
        for x in (0.0, 1.0, 2.0, 3.0, 4.0):
            if np.min(np.abs(ev - x)) > 1e-9:
                assert tridiagonal_count(d, e, x) == np.count_nonzero(ev < x)


@pytest.mark.usefixtures("raise_fp")
class TestPeriodicTridiagonal:
    def test_against_dense_path(self):
        rng = np.random.default_rng(17)
        n = 60
        d = rng.uniform(1.0, 5.0, n)
        e = rng.standard_normal(n - 1)
        corner = 0.7
        dense = np.diag(d) + np.diag(e, 1) + np.diag(e, -1)
        dense[0, -1] += corner
        dense[-1, 0] += corner
        ref = np.linalg.eigvalsh(dense)[:5]
        mine = _bisect(_PeriodicBands(d[:, None], e[:, None], [corner]), 5)[0]
        np.testing.assert_allclose(mine, ref, atol=1e-9)

    def test_handles_degenerate_pairs(self):
        # free periodic second difference has doubly degenerate eigenvalues
        n = 64
        d = np.full(n, 2.0)
        e = np.full(n - 1, -1.0)
        vals = _bisect(_PeriodicBands(d[:, None], e[:, None], [-1.0]), 5)[0]
        expected = 4 * np.sin(np.pi * np.array([0, 1, 1, 2, 2]) / n) ** 2
        np.testing.assert_allclose(vals, expected, atol=1e-10)

    def test_multisection_on_degenerate_pairs(self, monkeypatch):
        # one matrix probes many dyadic points per bracket and round; same
        # spectrum and bound as above
        n = 64
        widths = []

        def spy(bands, cols, x):
            widths.append(len(x))
            return _periodic_inertia(bands, cols, x)

        monkeypatch.setattr(eigen_mod, "_periodic_inertia", spy)
        vals = _bisect(_PeriodicBands(np.full((n, 1), 2.0), np.full((n - 1, 1), -1.0), [-1.0]),
                       5)[0]
        assert min(widths) > 5
        expected = np.linalg.eigvalsh(periodic_dense(np.full(n, 2.0), np.full(n - 1, -1.0), -1.0))
        np.testing.assert_allclose(vals, expected[:5], atol=1e-10)

    def test_multisection_equals_bisection(self, monkeypatch):
        rng = np.random.default_rng(19)
        n = 48
        d = rng.uniform(1.0, 5.0, n)
        e = rng.standard_normal(n - 1)
        bands = _PeriodicBands(d[:, None], e[:, None], [0.4])
        multi = _bisect(bands, 4)
        monkeypatch.setattr(eigen_mod, "_ROW_COST", 0)
        plain = _bisect(bands, 4)
        np.testing.assert_array_equal(multi, plain)

    def test_one_midpoint_rule(self):
        # geometric exactly where 0 < 2a < b, arithmetic everywhere else
        lo = np.array([-1.0, 0.0, 1e-6, 1.0])
        hi = np.array([1.0, 1.0, 1.0, 1.5])
        mid = _dyadic_points(lo, hi, 1)[:, 1]
        np.testing.assert_array_equal(mid, [0.0, 0.5, np.sqrt(1e-6) * np.sqrt(1.0), 1.25])

    def test_multisection_equals_bisection_from_positive_lower_end(self, monkeypatch):
        # a mode matrix with its zero eigenvalue skipped: lambda_1 is
        # bisected from 1e-6, so the first midpoints are geometric
        curve = build_curve(random_profile(3), 128)
        d, e, corner = assemble_bands(curve, (2, -1))
        bands = _PeriodicBands(d[:, None], e[:, None], [corner])
        multi = _bisect(bands, 4, 1, 1e-6)[0]
        shifts = []

        def spy(bands, cols, x):
            shifts.append(x.copy())
            return _periodic_inertia(bands, cols, x)

        monkeypatch.setattr(eigen_mod, "_ROW_COST", 0)
        monkeypatch.setattr(eigen_mod, "_periodic_inertia", spy)
        plain = _bisect(bands, 4, 1, 1e-6)[0]
        np.testing.assert_array_equal(multi, plain)
        hi = bands.gershgorin()[1][0]
        assert len(shifts[0]) == 3  # one level, three brackets
        assert shifts[0][0] == np.sqrt(1e-6) * np.sqrt(hi)
        want = np.linalg.eigvalsh(periodic_dense(d, e, corner))[1:4]
        np.testing.assert_allclose(plain, want, rtol=1e-10)

    def test_without_polish_equals_plain_bisection(self, monkeypatch):
        # with no polish steps every bracket is bisected one shift at a
        # time, from the Gershgorin interval (raised to ``lower``) to the
        # stop width 1e-13 max(min(1, scale), |lo| + |hi|)
        curve = build_curve(random_profile(3), 128)
        rng = np.random.default_rng(59)
        n = 48
        cases = [(*assemble_bands(curve, (2, -1)), 4, 1, 1e-6),
                 (rng.uniform(1.0, 5.0, n), rng.standard_normal(n - 1), 0.4, 4, 0, None)]
        monkeypatch.setattr(eigen_mod, "_POLISH_STEPS", 0)
        for d, e, corner, k, start, lower in cases:
            bands = _PeriodicBands(d[:, None], e[:, None], [corner])
            lo, hi = bands.gershgorin()
            scale = max(np.abs(d).max(), np.abs(e).max(), abs(corner))
            want = []
            for index in range(start, k):
                a, b = max(lo[0], lower or -np.inf), hi[0]
                while b - a > 1e-13 * max(min(1.0, scale), abs(a) + abs(b)):
                    mid = np.sqrt(a) * np.sqrt(b) if 0.0 < 2.0 * a < b else 0.5 * (a + b)
                    if inertia_counts(bands, [[mid]])[0, 0] <= index:
                        a = mid
                    else:
                        b = mid
                want.append(0.5 * (a + b))
            got = _bisect(bands, k, start, lower)[0]
            np.testing.assert_array_equal(got, want)

    def test_batch_with_nodes_matches_lapack(self, monkeypatch):
        # the free Laplacians, periodic and Dirichlet, have zero pivots at
        # the dyadic shifts bisection probes: those columns have nodes and
        # no determinant, so their brackets keep bisecting, beside mode
        # matrices whose brackets are polished
        n = 64
        curve = build_curve(random_profile(1), n)
        mats = [assemble_bands(curve, mode) for mode in ((0, 0), (2, -1), (-3, 4))]
        mats += [(np.full(n, 2.0), np.full(n - 1, -1.0), corner) for corner in (-1.0, 0.0)]
        nodal = []
        inertia = eigen_mod._periodic_inertia

        def spy(bands, cols, x):
            count, mantissa, exponent = inertia(bands, cols, x)
            nodal.append(np.isnan(mantissa).sum())
            return count, mantissa, exponent

        monkeypatch.setattr(eigen_mod, "_periodic_inertia", spy)
        vals = _bisect(_PeriodicBands(np.stack([m[0] for m in mats], axis=1),
                                      np.stack([m[1] for m in mats], axis=1),
                                      [m[2] for m in mats]), 4)
        assert sum(nodal) > 0
        for row, bands in zip(vals, mats):
            want = np.linalg.eigvalsh(periodic_dense(*bands))[:4]
            np.testing.assert_allclose(row, want, rtol=1e-10, atol=1e-10)

    def test_start_and_lower(self):
        rng = np.random.default_rng(29)
        n, p = 32, 3
        d = rng.uniform(1.0, 5.0, (n, p))
        e = rng.standard_normal((n - 1, p))
        corner = rng.standard_normal(p)
        bands = _PeriodicBands(d, e, corner)
        full = _bisect(bands, 4)
        np.testing.assert_array_equal(_bisect(bands, 4, 2), full[:, 2:])
        # any point at or below the start-th eigenvalue is a valid lower end
        lower = 0.5 * (full[:, 1] + full[:, 2])
        np.testing.assert_allclose(_bisect(bands, 4, 2, lower), full[:, 2:], atol=1e-12)
        with pytest.raises(ValueError, match="k out of range"):
            _bisect(bands, 2, 2)

    def test_eigenvalue_counts(self):
        rng = np.random.default_rng(31)
        n, p = 24, 4
        d = rng.uniform(-2.0, 2.0, (n, p))
        e = rng.standard_normal((n - 1, p))
        corner = rng.standard_normal(p)
        x = rng.uniform(-3.0, 3.0, (5, p))
        counts = inertia_counts(_PeriodicBands(d, e, corner), x)
        for j in range(p):
            ev = np.linalg.eigvalsh(periodic_dense(d[:, j], e[:, j], corner[j]))
            np.testing.assert_array_equal(counts[:, j], np.searchsorted(ev, x[:, j]))

    def test_batch_equals_single(self):
        rng = np.random.default_rng(23)
        n, p = 40, 5
        d = rng.uniform(1.0, 5.0, (n, p))
        e = rng.standard_normal((n - 1, p))
        corner = rng.standard_normal(p)
        # P matrices in one batch, and each in a batch of its own
        batch = _bisect(_PeriodicBands(d, e, corner), 3)
        assert batch.shape == (p, 3)
        for j in range(p):
            alone = _PeriodicBands(d[:, j:j + 1], e[:, j:j + 1], corner[j:j + 1])
            np.testing.assert_array_equal(batch[j], _bisect(alone, 3)[0])

    def test_bad_input_rejected(self):
        with pytest.raises(ValueError, match="offdiag"):
            _PeriodicBands(np.ones(5), np.ones(5), 0.0)  # 1-D bands are no batch
        with pytest.raises(ValueError, match="offdiag"):
            _PeriodicBands(np.ones((5, 1)), np.ones((5, 1)), [0.0])
        with pytest.raises(ValueError, match="k out of range"):
            _bisect(_PeriodicBands(np.ones((5, 1)), np.ones((4, 1)), [0.0]), 6)
        with pytest.raises(ValueError, match="finite"):
            _PeriodicBands(np.array([[np.nan], [1.0], [2.0], [1.0], [2.0]]), np.ones((4, 1)),
                           [0.0])
        with pytest.raises(ValueError, match="finite"):
            _PeriodicBands(np.array([[1.0], [1.0], [2.0], [1.0], [2.0]]), np.ones((4, 1)),
                           [np.inf])
        for p in (1, 2):
            with pytest.raises(ValueError, match="at least 5 rows, got 4"):
                _PeriodicBands(np.ones((4, p)), np.ones((3, p)), np.zeros(p))

    def test_certified_k_range(self):
        # the free Laplacian's zero mode passes the certificate; k counts
        # it, so 1 <= k <= n
        d, e, corner = wh_bands(0.0, 8)
        assert certified_spectra(d[:, None], e[:, None], [corner], 8, ["free"]).shape == (1, 7)
        for k in (0, 9):
            with pytest.raises(ValueError, match="k out of range"):
                certified_spectra(d[:, None], e[:, None], [corner], k, ["free"])
