import numpy as np
import pytest

from kohnspec import (
    CertificateFailed,
    WHParameters,
    ince_eigenvalues,
    ince_matrix,
    mode_to_wh,
    truncation_convergence,
    verify_E_geq_1,
    wh_spectrum,
)
from kohnspec import Tridiagonal, whittakerhill
from kohnspec.modes import GridTooCoarse
from kohnspec.whittakerhill import _wh_bands, convergence_differences

#: differences below this are eigensolver roundoff, not truncation error
CONVERGENCE_FLOOR = 1e-11


class TestModeToWH:
    def test_origin(self):
        assert mode_to_wh(1.0, (0, 0)).a == 0.0

    def test_three_four_five(self):
        assert mode_to_wh(1.0, (3, 4)).a == pytest.approx(5.0)

    def test_kappa_scaling(self):
        params = mode_to_wh(2.0, (1, 1))
        assert params.a == pytest.approx(np.sqrt(2) / 2)

    def test_eigenvalue_maps(self):
        params = WHParameters(a=1.0, kappa=2.0)
        assert params.eigenvalue_from_E(1.5) == pytest.approx(1.5)
        assert params.E_from_eigenvalue(params.eigenvalue_from_E(0.7)) == pytest.approx(0.7)

    def test_invalid(self):
        with pytest.raises(ValueError):
            mode_to_wh(0.0, (1, 0))
        with pytest.raises(ValueError):
            WHParameters(a=-1.0)


class TestWHSpectrum:
    def test_free_operator(self):
        vals = wh_spectrum(0.0, n=1024, k=5)
        np.testing.assert_allclose(vals, [0.0, 1.0, 1.0, 4.0, 4.0], atol=1e-4)

    def test_ground_state_pinned_at_zero(self):
        for a in (0.5, 1.0, 5.0, 10.0):
            vals = wh_spectrum(a, n=512, k=2)
            assert abs(vals[0]) < 1e-9

    def test_gap_at_least_one(self):
        # discrete eigenvalues carry an O(n^-2) error (downward at a = 0),
        # so the floor is checked at the discretization accuracy
        for a in (0.0, 0.5, 1.0, 2.0):
            assert wh_spectrum(a, n=1024, k=2)[1] >= 1.0 - 1e-5

    def test_accepts_parameters_object(self):
        params = mode_to_wh(1.0, (1, 0))
        vals = wh_spectrum(params, n=256, k=2)
        assert vals[1] > 1.0

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            wh_spectrum(1.0, n=62)
        with pytest.raises(ValueError):
            wh_spectrum(1.0, n=129)
        with pytest.raises(ValueError):
            wh_spectrum(-1.0, n=128)


class TestInceMatrix:
    def test_displayed_fourth_order_minor(self):
        dense = ince_matrix(1.0, 4).to_dense()
        expected = np.array([
            [1.0, 2.0, 0.0, 0.0],
            [-1.0, 4.0, 3.0, 0.0],
            [0.0, -2.0, 9.0, 4.0],
            [0.0, 0.0, -3.0, 16.0],
        ])
        np.testing.assert_array_equal(dense, expected)

    def test_zero_coupling_is_diagonal(self):
        dense = ince_matrix(0.0, 6).to_dense()
        np.testing.assert_array_equal(dense, np.diag([1.0, 4.0, 9.0, 16.0, 25.0, 36.0]))

    def test_sine_basis_expansion_oracle(self):
        # apply -d^2/dtau^2 - 2a sin(tau) d/dtau to each sin(k tau) with
        # spectral differentiation and read the matrix off the sine
        # coefficients of the image
        a, N, nn = 1.7, 12, 512
        tau = np.arange(nn) * 2 * np.pi / nn
        freq = np.fft.fftfreq(nn, d=2 * np.pi / nn) * 2 * np.pi
        reassembled = np.zeros((N, N))
        for k in range(1, N + 1):
            f = np.sin(k * tau)
            f_hat = np.fft.fft(f)
            f_p = np.fft.ifft(1j * freq * f_hat).real
            f_pp = np.fft.ifft(-(freq**2) * f_hat).real
            image = -f_pp - 2 * a * np.sin(tau) * f_p
            for j in range(1, N + 1):
                reassembled[j - 1, k - 1] = 2 / nn * np.dot(image, np.sin(j * tau))
        np.testing.assert_allclose(reassembled, ince_matrix(a, N).to_dense(), atol=1e-10)


class TestInceEigenvalues:
    def test_second_order_real(self):
        np.testing.assert_allclose(ince_eigenvalues(1.0, 2), [2.0, 3.0], atol=1e-12)

    def test_zero_coupling(self):
        np.testing.assert_allclose(ince_eigenvalues(0.0, 5).real, [1, 4, 9, 16, 25])

    def test_cross_check_with_direct_discretization(self):
        # three routes to one number: the gauge transform relates the
        # drift operator truncation to the original periodic operator
        bottom = ince_eigenvalues(1.0, 40)
        bottom = bottom[np.argmin(bottom.real)].real
        E1 = wh_spectrum(1.0, n=8192, k=2)[1]
        assert bottom == pytest.approx(E1, abs=1e-6)

    def test_gauge_transform_identity(self):
        # synthesize the bottom eigenfunction of the truncation, undo the
        # gauge factor, and check its Rayleigh quotient under the original
        # operator reproduces the eigenvalue
        a, N, nn = 1.5, 30, 2048
        tri = ince_matrix(a, N)
        eigs = ince_eigenvalues(a, N)
        E = eigs[np.argmin(eigs.real)].real
        dense = tri.to_dense()
        rng = np.random.default_rng(2)
        v = rng.standard_normal(N)
        for _ in range(30):
            v = np.linalg.solve(dense - (E + 1e-9) * np.eye(N), v)
            v /= np.linalg.norm(v)
        tau = np.arange(nn) * 2 * np.pi / nn
        w = sum(v[k - 1] * np.sin(k * tau) for k in range(1, N + 1))
        u = w * np.exp(-a * np.cos(tau))
        diag, off, corner = _wh_bands(a, nn)
        num = u @ (diag * u) + 2 * np.dot(off, u[:-1] * u[1:]) + 2 * corner * u[0] * u[-1]
        quotient = num / (u @ u)
        assert quotient == pytest.approx(E, rel=1e-5)

    def test_pairs_match_direct_spectrum(self):
        # positive eigenvalues of the periodic operator come in near-
        # degenerate odd/even pairs; each pair lands on one eigenvalue of
        # the odd-sector truncation
        a = 2.0
        direct = wh_spectrum(a, n=8192, k=7)
        assert direct[1] == pytest.approx(direct[2], abs=1e-5)
        assert direct[3] == pytest.approx(direct[4], abs=1e-5)
        assert direct[5] == pytest.approx(direct[6], abs=1e-4)
        truncated = np.sort(ince_eigenvalues(a, 60).real[:3])
        np.testing.assert_allclose(direct[[1, 3, 5]], truncated, atol=1e-4)


class TestTruncationConvergence:
    def test_zero_coupling_is_exact(self):
        rows = truncation_convergence(0.0, [5, 10, 20])
        assert all(row["E1"] == 1.0 for row in rows)
        assert not any(row["complex_pair"] for row in rows)

    def test_strong_coupling_settles(self):
        rows = truncation_convergence(5.0, [10, 20, 40, 80])
        diffs = convergence_differences(rows)
        assert diffs[0] > diffs[1] or diffs[1] < CONVERGENCE_FLOOR
        assert all(d < CONVERGENCE_FLOOR for d in diffs[1:])

    def test_weak_coupling_already_converged(self):
        rows = truncation_convergence(1.0, [5, 10, 20, 40])
        diffs = convergence_differences(rows)
        for prev, cur in zip(diffs, diffs[1:]):
            assert cur < prev or cur < CONVERGENCE_FLOOR

    def test_small_truncations_flag_complex_bottom(self):
        rows = truncation_convergence(2.0, [2, 20])
        assert rows[0]["complex_pair"]
        assert rows[0]["E1"] == pytest.approx(2.5)
        assert not rows[1]["complex_pair"]

    def test_requires_increasing_sizes(self):
        with pytest.raises(ValueError):
            truncation_convergence(1.0, [10, 10])


class TestVerifyFloor:
    def test_sweep_passes(self):
        res = verify_E_geq_1([0.0, 0.5, 1.0, 2.0, 5.0, 10.0], N=60)
        assert res["all_pass"]
        for row in res["table"]:
            assert row["hypotheses_ok"] and row["bendixson_floor"] == 1.0
            assert not row["in_sector"]
            assert row["E1"] >= 1.0 - 1e-8

    def test_zero_coupling_row(self):
        res = verify_E_geq_1([0.0], N=10)
        row = res["table"][0]
        assert row["E1"] == 1.0 and row["pass"]

    def test_tiny_truncation_complex_pair(self):
        res = verify_E_geq_1([2.0], N=2)
        row = res["table"][0]
        assert res["all_pass"]
        assert row["complex_bottom"]
        assert row["E1"] == pytest.approx(2.5)

    def test_invalid_sizes(self):
        with pytest.raises(ValueError):
            verify_E_geq_1([1.0], N=0)

    def test_positive_product_voids_the_bendixson_floor(self, monkeypatch):
        def ince_with_positive_product(a, N):
            tri = ince_matrix(a, N)
            lower = tri.lower.copy()
            lower[N // 2] = -lower[N // 2]
            return Tridiagonal(tri.diag, tri.upper, lower)

        monkeypatch.setattr(whittakerhill, "ince_matrix", ince_with_positive_product)
        res = verify_E_geq_1([1.0], N=10)
        row = res["table"][0]
        assert row["bendixson_floor"] is None
        assert not row["pass"] and not res["all_pass"]

    def test_bendixson_floor_below_one_fails(self, monkeypatch):
        # the sector certificate holds (delta = 0.5 is admissible) and the
        # spectrum 2 +- 3.7i has no real point, but min diag = 0.5 < 1
        monkeypatch.setattr(whittakerhill, "ince_matrix",
                            lambda a, N: Tridiagonal([0.5, 3.5], [4.0], [-4.0]))
        row = verify_E_geq_1([1.0], N=2, delta=0.5)["table"][0]
        assert row["hypotheses_ok"] and not row["in_sector"]
        assert row["bendixson_floor"] == 0.5 and not row["pass"]

    @pytest.mark.parametrize("a", [0.5, 1.0, 5.0, 10.0, 20.0, 40.0])
    def test_bottom_eigenvalue_matches_mpmath(self, a):
        # Newton on the three-term recurrence det(A - E) at 50 digits,
        # started from LAPACK's bottom eigenvalue
        mpmath = pytest.importorskip("mpmath")
        N = 60
        tri = ince_matrix(a, N)
        start = np.linalg.eigvals(tri.to_dense())
        with mpmath.workdps(50):
            z = mpmath.mpc(start[np.argmin(start.real)])
            d = [mpmath.mpf(x) for x in tri.diag]
            products = [mpmath.mpf(u) * mpmath.mpf(l) for u, l in zip(tri.upper, tri.lower)]
            for _ in range(50):
                p_prev, p, dp_prev, dp = 1, d[0] - z, 0, -1
                for k in range(1, N):
                    p_prev, p, dp_prev, dp = (p, (d[k] - z) * p - products[k - 1] * p_prev, dp,
                                              (d[k] - z) * dp - p - products[k - 1] * dp_prev)
                step = p / dp
                z -= step
                if abs(step) <= mpmath.mpf(10)**-45 * max(1, abs(z)):
                    break
            else:
                pytest.fail("Newton did not converge")
            want = float(z.real)
        E1 = verify_E_geq_1([a], N=N)["table"][0]["E1"]
        assert abs(E1 - want) <= 1e-12 * max(1.0, want), (E1, want)

    def test_in_sector_reports_the_spectrum(self, monkeypatch):
        # a spectrum with a point inside the sector: flagged when the
        # hypotheses fail (delta too large), fatal when they hold
        monkeypatch.setattr(whittakerhill, "eig_general_tridiagonal",
                            lambda tri: np.array([0.5 + 0.0j, 4.0 + 0.0j]))
        row = verify_E_geq_1([1.0], N=2, delta=10.0)["table"][0]
        assert row["in_sector"]
        assert not row["hypotheses_ok"] and not row["pass"]
        with pytest.raises(CertificateFailed):
            verify_E_geq_1([1.0], N=2)


class TestWHGridGuard:
    def test_guard_type_exists(self):
        # the ground state is pinned by construction; the guard only fires
        # on a genuinely broken discretization
        assert issubclass(GridTooCoarse, RuntimeError)

    def test_certificate_names_the_coupling(self, monkeypatch):
        # the ground state drifts to -1e-3: the shared zero-mode
        # certificate rejects it and names the coupling
        def shifted(a, n):
            diag, off, corner = _wh_bands(a, n)
            return diag - 1e-3, off, corner

        monkeypatch.setattr(whittakerhill, "_wh_bands", shifted)
        with pytest.raises(GridTooCoarse, match=r"coupling a=2\.5 is not isolated: 1 eigenvalue"):
            wh_spectrum(2.5, n=128)

    @pytest.mark.parametrize("a", [0.0, 0.5, 1.0, 3.0, 10.0, 40.0])
    def test_spectrum_matches_lapack(self, a):
        # E_0 is the factored quotient of the kernel, zero up to roundoff;
        # E_1..E_4 are bisected from the certified lower end.  At a = 0 the
        # eigenvalues are exactly double, and E_3 = E_4 is the lowest
        # eigenvalue of each of the inertia kernel's four blocks, so near
        # it every block is singular and its last row is counted beside the
        # Schur complement; the bound is the same 1e-10 for every a.
        bound = 1e-10
        for n in (64, 256, 1024):
            diag, off, corner = _wh_bands(a, n)
            dense = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)
            dense[0, -1] += corner
            dense[-1, 0] += corner
            want = np.linalg.eigvalsh(dense)[1:5]
            vals = wh_spectrum(a, n=n, k=5)
            assert 0.0 <= vals[0] < 1e-20, (a, n)
            assert np.all(np.abs(vals[1:] - want) <= bound * np.maximum(1.0, want)), (a, n)


class TestEqualityPipeline:
    def test_mode_sweep_reduces_to_coupling_sweep(self, circle_kappa2):
        # on a circle of curvature kappa the full mode sweep collapses to
        # the rescaled family: lambda1(m, l) = kappa * E1(a(m, l)) / 2 and
        # the minimum sits at the (0, 0) mode with coupling a = 0
        from kohnspec import ModeWindow, lambda1_kohn

        kappa = 2.0
        rescaled = []
        for mode in ModeWindow(2, 2).modes():
            params = mode_to_wh(kappa, mode)
            E1 = wh_spectrum(params, n=circle_kappa2.n, k=2)[1]
            rescaled.append(params.eigenvalue_from_E(E1))
        report = lambda1_kohn(circle_kappa2, ModeWindow(2, 2))
        assert min(rescaled) == pytest.approx(kappa / 2, rel=1e-4)
        assert min(rescaled) == pytest.approx(report.lambda1_estimate, rel=1e-6)
