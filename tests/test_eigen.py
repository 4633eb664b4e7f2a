import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kohnspec import (
    build_curve,
    random_profile,
    DenseSymmetric,
    NoConvergence,
    SectorRegion,
    SymTridiagonal,
    Tridiagonal,
    char_poly_tridiagonal,
    eig_dense_symmetric,
    eig_general_tridiagonal,
    eig_periodic_sym_tridiagonal,
    point_in_sector,
    sector_exclusion_certificate,
    sturm_count,
)
import kohnspec.eigen as eigen_mod
from kohnspec.eigen import (
    _PeriodicBands,
    _periodic_inertia,
    _ql_eigenvalues,
    periodic_eigenvalue_counts,
)
from kohnspec.modes import assemble_bands
from kohnspec.whittakerhill import _wh_bands, ince_matrix


def eig_sym_tridiagonal(tri: SymTridiagonal) -> np.ndarray:
    """Eigenvalues of a symmetric tridiagonal matrix by the QL kernel, ascending."""
    return np.sort(_ql_eigenvalues(tri.diag, tri.offdiag, 50).real)


def charpoly_bisection_roots(a, samples=20000):
    """Oracle: roots of det(A - x I) by sign-change bisection.

    Uses LU determinants and plain bisection, sharing nothing with the
    Householder + QL path it checks.  Assumes simple eigenvalues.
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


class TestDenseSymmetric:
    def test_identity(self):
        np.testing.assert_allclose(eig_dense_symmetric(np.eye(3)), [1, 1, 1])

    def test_two_by_two(self):
        np.testing.assert_allclose(eig_dense_symmetric(np.array([[2.0, 1], [1, 2]])),
                                   [1.0, 3.0], atol=1e-14)

    def test_random_vs_charpoly_oracle(self):
        rng = np.random.default_rng(42)
        a = rng.standard_normal((6, 6))
        a = a + a.T
        mine = eig_dense_symmetric(a)
        oracle = charpoly_bisection_roots(a)
        assert len(oracle) == 6
        np.testing.assert_allclose(mine, oracle, atol=1e-9)

    def test_ascending_and_trace(self):
        rng = np.random.default_rng(3)
        a = rng.standard_normal((40, 40))
        a = a + a.T
        vals = eig_dense_symmetric(a)
        assert np.all(np.diff(vals) >= 0)
        assert vals.sum() == pytest.approx(np.trace(a), rel=1e-9)

    def test_first_k(self):
        vals = eig_dense_symmetric(np.diag([3.0, 1.0, 2.0]), k=2)
        np.testing.assert_allclose(vals, [1.0, 2.0])

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError):
            DenseSymmetric(np.array([[1.0, 2.0], [0.0, 1.0]]))

    def test_no_convergence_raised(self):
        rng = np.random.default_rng(5)
        a = rng.standard_normal((8, 8))
        a = a + a.T
        with pytest.raises(NoConvergence):
            eig_dense_symmetric(a, max_sweeps=0)

    def test_matches_ql_on_tridiagonal_input(self):
        rng = np.random.default_rng(11)
        tri = SymTridiagonal(rng.standard_normal(30), rng.standard_normal(29))
        np.testing.assert_allclose(eig_dense_symmetric(tri.to_dense()),
                                   eig_sym_tridiagonal(tri), atol=1e-10)

    @pytest.mark.usefixtures("raise_fp")
    def test_sturm_counts_agree(self):
        rng = np.random.default_rng(12)
        tri = SymTridiagonal(rng.standard_normal(25), rng.standard_normal(24))
        vals = eig_sym_tridiagonal(tri)
        scale = np.max(np.abs(vals))
        for i, lam in enumerate(vals):
            assert sturm_count(tri, lam - 1e-9 * scale) == i
            assert sturm_count(tri, lam + 1e-9 * scale) >= i + 1


@pytest.fixture
def raise_fp():
    with np.errstate(all="raise"):
        yield


def periodic_dense(diag, offdiag, corner):
    a = np.diag(diag) + np.diag(offdiag, 1) + np.diag(offdiag, -1)
    a[0, -1] += corner
    a[-1, 0] += corner
    return a


@functools.lru_cache(maxsize=None)
def oracle_case(kind, n, seed, m, l):
    """Bands of one test matrix and their eigenvalues from LAPACK."""
    if kind == "wh0":
        bands = _wh_bands(0.0, n)
    else:
        bands = assemble_bands(build_curve(random_profile(seed), n), (m, l))
    return bands, np.linalg.eigvalsh(periodic_dense(*bands))


def check_counts(bands, ev, shifts):
    """Kernel counts at ``shifts`` against LAPACK, away from eigenvalues."""
    diag, offdiag, corner = bands
    batch = _PeriodicBands(diag[:, None], offdiag[:, None], np.array([corner]))
    x = np.asarray(shifts, dtype=float)[:, None]
    with np.errstate(all="raise"):
        counts = _periodic_inertia(batch, x)[:, 0]
    scale = np.abs(ev).max()
    for xi, count in zip(x[:, 0], counts):
        if np.min(np.abs(ev - xi)) > 1e-9 * scale:
            assert count == np.count_nonzero(ev < xi), xi


cases = st.one_of(
    st.tuples(st.just("wh0"), st.sampled_from([3, 4, 16, 64, 512]),
              st.just(0), st.just(0), st.just(0)),
    st.tuples(st.just("mode"), st.sampled_from([64, 512]), st.integers(0, 2),
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
        # n = 3..12 moves them onto each row next to the wrap-around corner
        for n in range(3, 13):
            bands = _wh_bands(0.0, n)
            ev = np.linalg.eigvalsh(periodic_dense(*bands))
            check_counts(bands, ev, [bands[0][0] * j / 4 for j in range(-1, 18)])

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
        counts = _periodic_inertia(batch, x)
        for p, bands in enumerate(mats):
            single = _PeriodicBands(bands[0][:, None], bands[1][:, None],
                                    np.array([bands[2]]))
            np.testing.assert_array_equal(counts[:, p], _periodic_inertia(single, x[:, p:p + 1])[:, 0])

    @pytest.mark.usefixtures("raise_fp")
    def test_plain_tridiagonal_zero_pivots(self):
        # sturm_count on the free Dirichlet Laplacian at its own diagonal
        n = 40
        tri = SymTridiagonal(np.full(n, 2.0), np.full(n - 1, -1.0))
        ev = np.linalg.eigvalsh(tri.to_dense())
        for x in (0.0, 1.0, 2.0, 3.0, 4.0):
            if np.min(np.abs(ev - x)) > 1e-9:
                assert sturm_count(tri, x) == np.count_nonzero(ev < x)


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
        ref = eig_dense_symmetric(dense, k=5)
        mine = eig_periodic_sym_tridiagonal(d, e, corner, k=5)
        np.testing.assert_allclose(mine, ref, atol=1e-9)

    def test_handles_degenerate_pairs(self):
        # free periodic second difference has doubly degenerate eigenvalues
        n = 64
        d = np.full(n, 2.0)
        e = np.full(n - 1, -1.0)
        vals = eig_periodic_sym_tridiagonal(d, e, -1.0, k=5)
        expected = 4 * np.sin(np.pi * np.array([0, 1, 1, 2, 2]) / n) ** 2
        np.testing.assert_allclose(vals, expected, atol=1e-10)

    def test_multisection_on_degenerate_pairs(self, monkeypatch):
        # one matrix probes many dyadic points per bracket and round; same
        # spectrum and bound as above
        n = 64
        widths = []

        def spy(bands, x):
            widths.append(x.shape[0])
            return _periodic_inertia(bands, x)

        monkeypatch.setattr(eigen_mod, "_periodic_inertia", spy)
        vals = eig_periodic_sym_tridiagonal(np.full(n, 2.0), np.full(n - 1, -1.0), -1.0, k=5)
        assert min(widths) > 5
        expected = np.linalg.eigvalsh(periodic_dense(np.full(n, 2.0), np.full(n - 1, -1.0), -1.0))
        np.testing.assert_allclose(vals, expected[:5], atol=1e-10)

    def test_multisection_equals_bisection(self, monkeypatch):
        rng = np.random.default_rng(19)
        n = 48
        d = rng.uniform(1.0, 5.0, n)
        e = rng.standard_normal(n - 1)
        multi = eig_periodic_sym_tridiagonal(d, e, 0.4, k=4)
        monkeypatch.setattr(eigen_mod, "_ROW_COST", 0)
        plain = eig_periodic_sym_tridiagonal(d, e, 0.4, k=4)
        np.testing.assert_array_equal(multi, plain)

    def test_arithmetic_midpoints_without_lower_end(self):
        # without ``lower`` every midpoint is (lo + hi) / 2, also in the
        # positive brackets left after a negative Gershgorin lower end:
        # the result is plain arithmetic bisection's, bit for bit
        rng = np.random.default_rng(37)
        n = 24
        d = rng.uniform(2.0, 3.0, n)
        e = rng.uniform(-1.6, 1.6, n - 1)
        corner = 0.5
        lo0, hi0 = _PeriodicBands(d[:, None], e[:, None], np.array([corner])).gershgorin()
        assert lo0[0] < 0.0 < np.linalg.eigvalsh(periodic_dense(d, e, corner))[0]
        want = []
        for index in range(3):
            lo, hi = lo0[0], hi0[0]
            while hi - lo > 1e-13 * max(1.0, abs(lo) + abs(hi)):
                mid = 0.5 * (lo + hi)
                below = periodic_eigenvalue_counts(d[:, None], e[:, None], [corner], [[mid]])
                lo, hi = (mid, hi) if below[0, 0] <= index else (lo, mid)
            want.append(0.5 * (lo + hi))
        np.testing.assert_array_equal(eig_periodic_sym_tridiagonal(d, e, corner, k=3), want)

    def test_multisection_equals_bisection_from_positive_lower_end(self, monkeypatch):
        # a mode matrix with its zero eigenvalue skipped: lambda_1 is
        # bisected from 1e-6, so the first midpoints are geometric
        curve = build_curve(random_profile(3), 128)
        d, e, corner = assemble_bands(curve, (2, -1))
        multi = eig_periodic_sym_tridiagonal(d, e, corner, k=4, start=1, lower=1e-6)
        shifts = []

        def spy(bands, x):
            shifts.append(x[:, 0].copy())
            return _periodic_inertia(bands, x)

        monkeypatch.setattr(eigen_mod, "_ROW_COST", 0)
        monkeypatch.setattr(eigen_mod, "_periodic_inertia", spy)
        plain = eig_periodic_sym_tridiagonal(d, e, corner, k=4, start=1, lower=1e-6)
        np.testing.assert_array_equal(multi, plain)
        hi = _PeriodicBands(d[:, None], e[:, None], np.array([corner])).gershgorin()[1][0]
        assert len(shifts[0]) == 3  # one level, three brackets
        assert shifts[0][0] == np.sqrt(1e-6) * np.sqrt(hi)
        want = np.linalg.eigvalsh(periodic_dense(d, e, corner))[1:4]
        np.testing.assert_allclose(plain, want, rtol=1e-10)

    def test_start_and_lower(self):
        rng = np.random.default_rng(29)
        n, p = 32, 3
        d = rng.uniform(1.0, 5.0, (n, p))
        e = rng.standard_normal((n - 1, p))
        corner = rng.standard_normal(p)
        full = eig_periodic_sym_tridiagonal(d, e, corner, k=4)
        np.testing.assert_array_equal(
            eig_periodic_sym_tridiagonal(d, e, corner, k=4, start=2), full[:, 2:])
        # any point at or below the start-th eigenvalue is a valid lower end
        lower = 0.5 * (full[:, 1] + full[:, 2])
        part = eig_periodic_sym_tridiagonal(d, e, corner, k=4, start=2, lower=lower)
        np.testing.assert_allclose(part, full[:, 2:], atol=1e-12)
        with pytest.raises(ValueError):
            eig_periodic_sym_tridiagonal(d, e, corner, k=2, start=2)

    def test_eigenvalue_counts(self):
        rng = np.random.default_rng(31)
        n, p = 24, 4
        d = rng.uniform(-2.0, 2.0, (n, p))
        e = rng.standard_normal((n - 1, p))
        corner = rng.standard_normal(p)
        x = rng.uniform(-3.0, 3.0, (5, p))
        counts = periodic_eigenvalue_counts(d, e, corner, x)
        for j in range(p):
            ev = np.linalg.eigvalsh(periodic_dense(d[:, j], e[:, j], corner[j]))
            np.testing.assert_array_equal(counts[:, j], np.searchsorted(ev, x[:, j]))
        with pytest.raises(ValueError, match="shifts"):
            periodic_eigenvalue_counts(d, e, corner, x[:, :2])
        with pytest.raises(ValueError, match="finite"):
            periodic_eigenvalue_counts(d, e, np.full(p, np.nan), x)

    def test_batch_equals_single(self):
        rng = np.random.default_rng(23)
        n, p = 40, 5
        d = rng.uniform(1.0, 5.0, (n, p))
        e = rng.standard_normal((n - 1, p))
        corner = rng.standard_normal(p)
        batch = eig_periodic_sym_tridiagonal(d, e, corner, k=3)
        assert batch.shape == (p, 3)
        for j in range(p):
            np.testing.assert_array_equal(
                batch[j], eig_periodic_sym_tridiagonal(d[:, j], e[:, j], corner[j], k=3))

    def test_bad_input_rejected(self):
        with pytest.raises(ValueError):
            eig_periodic_sym_tridiagonal(np.ones(4), np.ones(4), 0.0)
        with pytest.raises(ValueError):
            eig_periodic_sym_tridiagonal(np.ones(4), np.ones(3), 0.0, k=5)
        with pytest.raises(ValueError, match="finite"):
            eig_periodic_sym_tridiagonal([np.nan, 1.0, 2.0], [1.0, 1.0], 0.0)
        with pytest.raises(ValueError, match="finite"):
            eig_periodic_sym_tridiagonal([1.0, 1.0, 2.0], [1.0, 1.0], np.inf)


class TestGeneralTridiagonal:
    def test_diagonal_only(self):
        tri = Tridiagonal([1.0, 4.0, 9.0, 16.0], np.zeros(3), np.zeros(3))
        np.testing.assert_allclose(eig_general_tridiagonal(tri).real, [1, 4, 9, 16])

    def test_truncation_order_two_real(self):
        vals = eig_general_tridiagonal(ince_matrix(1.0, 2))
        np.testing.assert_allclose(vals, [2.0 + 0j, 3.0 + 0j], atol=1e-12)

    def test_truncation_order_two_complex(self):
        vals = eig_general_tridiagonal(ince_matrix(2.0, 2))
        expected = np.array([2.5 - 1j * np.sqrt(23) / 2, 2.5 + 1j * np.sqrt(23) / 2])
        np.testing.assert_allclose(vals, expected, atol=1e-12)

    def test_conjugate_pairs(self):
        rng = np.random.default_rng(23)
        tri = Tridiagonal(rng.uniform(0, 3, 20), rng.uniform(0.1, 2, 19),
                          -rng.uniform(0.1, 2, 19))
        vals = eig_general_tridiagonal(tri)
        complex_vals = vals[np.abs(vals.imag) > 1e-10]
        assert len(complex_vals) % 2 == 0
        paired = np.sort_complex(complex_vals)
        np.testing.assert_allclose(paired, np.sort_complex(paired.conj()), atol=1e-9)

    def test_diagonal_similarity_invariance(self):
        rng = np.random.default_rng(29)
        n = 15
        diag = rng.standard_normal(n)
        up = rng.standard_normal(n - 1)
        lo = rng.standard_normal(n - 1)
        scale = rng.uniform(0.5, 2.0, n)
        tri = Tridiagonal(diag, up, lo)
        similar = Tridiagonal(diag, up * scale[:-1] / scale[1:], lo * scale[1:] / scale[:-1])
        a = eig_general_tridiagonal(tri)
        b = eig_general_tridiagonal(similar)
        np.testing.assert_allclose(a, b, atol=1e-9)

    def test_isotropic_rotation_raises(self):
        # similar to [[0, i], [i, 2]]: the first QL rotation has f^2 + g^2 = 0
        with pytest.raises(NoConvergence, match="isotropic"):
            eig_general_tridiagonal(Tridiagonal([0.0, 2.0], [1.0], [-1.0]))

    def test_sweep_cap_raises(self):
        with pytest.raises(NoConvergence, match="exceeded 0 sweeps"):
            eig_general_tridiagonal(ince_matrix(1.0, 5), max_its=0)

    def test_non_finite_entries_rejected(self):
        with pytest.raises(ValueError):
            eig_general_tridiagonal(Tridiagonal([np.nan, 1.0], [1.0], [-1.0]))

    def test_ince_spectra_match_lapack(self):
        # optimal matching against LAPACK, each eigenvalue to 1e-9 relative
        # times its condition number |y||x| / |y^H x| (x, y right and left
        # eigenvectors): the large eigenvalues at strong coupling are too
        # ill-conditioned for any double-precision solver to pin down
        assignment = pytest.importorskip("scipy.optimize").linear_sum_assignment
        for N in (2, 10, 60, 120):
            for a in (0.0, 1.0, 5.0, 10.0, 40.0):
                tri = ince_matrix(a, N)
                ref, vecs = np.linalg.eig(tri.to_dense())
                kappa = (np.linalg.norm(np.linalg.inv(vecs), axis=1)
                         * np.linalg.norm(vecs, axis=0))
                mine = eig_general_tridiagonal(tri)
                cost = np.abs(ref[:, None] - mine[None, :])
                rows, cols = assignment(cost)
                tol = 1e-9 * np.maximum(1.0, np.abs(ref[rows])) * kappa[rows]
                assert np.all(cost[rows, cols] <= tol), (N, a)

    def test_char_poly_vanishes_at_eigenvalues(self):
        rng = np.random.default_rng(31)
        tri = Tridiagonal(rng.uniform(0.5, 4.0, 12), rng.standard_normal(11),
                          rng.standard_normal(11))
        scale = np.prod(np.maximum(1.0, np.abs(tri.diag)))
        for z in eig_general_tridiagonal(tri):
            assert abs(char_poly_tridiagonal(tri, z)) < 1e-6 * scale


class TestCharPoly:
    def test_two_by_two_at_zero(self):
        assert char_poly_tridiagonal(ince_matrix(1.0, 2), 0.0) == pytest.approx(6.0)

    def test_diag_root(self):
        tri = Tridiagonal([2.0, 5.0], [0.0], [0.0])
        assert char_poly_tridiagonal(tri, 2.0) == 0.0

    def test_matches_determinant(self):
        rng = np.random.default_rng(37)
        tri = Tridiagonal(rng.standard_normal(7), rng.standard_normal(6),
                          rng.standard_normal(6))
        for z in (0.0, 1.3, -0.7 + 0.4j):
            det = np.linalg.det(tri.to_dense() - z * np.eye(7))
            assert char_poly_tridiagonal(tri, z) == pytest.approx(det, rel=1e-10)


class TestSectorCertificate:
    def test_ince_truncations_pass(self):
        for N in (2, 4, 20, 60, 200):
            cert = sector_exclusion_certificate(ince_matrix(3.0, N), 3 / np.pi)
            assert cert.hypotheses_ok, cert.failures
            assert cert.region.mu == 1.0
            # sum k^-2 < pi^2/6 keeps the admissible delta above 3/pi for all N

    def test_positive_offdiagonal_product_fails(self):
        tri = Tridiagonal([1.0, 2.0], [1.0], [1.0])
        cert = sector_exclusion_certificate(tri, 0.1)
        assert not cert.hypotheses_ok

    def test_huge_coupling_without_overflow(self):
        # upper * lower would overflow to -inf; the signs are compared instead
        with np.errstate(all="raise"):
            cert = sector_exclusion_certificate(ince_matrix(1e200, 4), 3 / np.pi)
        assert cert.hypotheses_ok, cert.failures

    def test_nan_coupling_fails(self):
        tri = Tridiagonal([1.0, 2.0], [np.nan], [-1.0])
        assert not sector_exclusion_certificate(tri, 0.1).hypotheses_ok

    def test_oversized_delta_fails(self):
        cert = sector_exclusion_certificate(ince_matrix(1.0, 10), 10.0)
        assert not cert.hypotheses_ok

    def test_nonpositive_diagonal_fails(self):
        tri = Tridiagonal([1.0, -2.0], [1.0], [-1.0])
        cert = sector_exclusion_certificate(tri, 0.1)
        assert not cert.hypotheses_ok

    def test_point_membership(self):
        region = SectorRegion(mu=1.0, delta=3 / np.pi)
        assert point_in_sector(0.5, region)
        assert not point_in_sector(1.0, region)
        assert not point_in_sector(2.5 + 1j * np.sqrt(23) / 2, region)
        assert not point_in_sector(0.5 + 0.5j, region)  # above the slanted edge

    def test_certified_spectra_avoid_sector(self):
        for a in (0.0, 0.5, 2.0, 7.0):
            tri = ince_matrix(a, 40)
            cert = sector_exclusion_certificate(tri, 3 / np.pi)
            assert cert.hypotheses_ok
            for z in eig_general_tridiagonal(tri):
                assert not point_in_sector(z, cert.region)
