import os
import signal
import threading
import time

import numpy as np
import pytest

import oracles
from kohnspec import (
    CertificateFailed,
    NoConvergence,
    Tridiagonal,
    build_curve,
    circle_profile,
    eig_general_tridiagonal,
    ince_matrix,
    mode_spectra,
    verify_E_geq_1,
    whittakerhill,
)
from kohnspec.modes import GridTooCoarse
from oracles import periodic_dense, wh_bands, wh_spectrum

#: differences below this are eigensolver roundoff, not truncation error
CONVERGENCE_FLOOR = 1e-11


def ince_eigenvalues(a, N):
    return eig_general_tridiagonal(ince_matrix(a, N))


def bottom_rows(a, sizes):
    """``verify_E_geq_1`` rows of one coupling at each truncation size."""
    return [verify_E_geq_1([a], N=N)["table"][0] for N in sizes]


def differences(rows):
    return [abs(r2["E1"] - r1["E1"]) for r1, r2 in zip(rows, rows[1:])]


class TestModeToWH:
    """On a circle of curvature kappa, mode (m, l) is the Whittaker-Hill
    operator at a = hypot(m, l) / kappa, with lambda = kappa * E / 2; on the
    same grid the two discretizations agree to roundoff."""

    @staticmethod
    def check(curve, kappa, mode):
        lam = mode_spectra(curve, [mode], k=5)[0]
        E = wh_spectrum(np.hypot(*mode) / kappa, n=curve.n, k=5)
        np.testing.assert_allclose(lam, kappa * E / 2, rtol=1e-10, atol=1e-10)

    def test_origin(self, unit_circle):
        self.check(unit_circle, 1.0, (0, 0))

    def test_three_four_five(self, unit_circle):
        self.check(unit_circle, 1.0, (3, 4))

    def test_kappa_scaling(self, circle_kappa2):
        self.check(circle_kappa2, 2.0, (1, 1))

    def test_eigenvalue_maps(self):
        self.check(build_curve(circle_profile(2.0), 512), 0.5, (2, -1))


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
        diag, off, corner = wh_bands(a, nn)
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
        rows = bottom_rows(0.0, [5, 10, 20])
        assert all(row["E1"] == 1.0 for row in rows)
        assert not any(row["complex_bottom"] for row in rows)

    def test_strong_coupling_settles(self):
        diffs = differences(bottom_rows(5.0, [10, 20, 40, 80]))
        assert diffs[0] > diffs[1] or diffs[1] < CONVERGENCE_FLOOR
        assert all(d < CONVERGENCE_FLOOR for d in diffs[1:])

    def test_weak_coupling_already_converged(self):
        diffs = differences(bottom_rows(1.0, [5, 10, 20, 40]))
        for prev, cur in zip(diffs, diffs[1:]):
            assert cur < prev or cur < CONVERGENCE_FLOOR

    def test_small_truncations_flag_complex_bottom(self):
        rows = bottom_rows(2.0, [2, 20])
        assert rows[0]["complex_bottom"]
        assert rows[0]["E1"] == pytest.approx(2.5)
        assert not rows[1]["complex_bottom"]


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
        monkeypatch.setattr(whittakerhill, "SECTOR_DELTA", 0.5)
        row = verify_E_geq_1([1.0], N=2)["table"][0]
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
        with monkeypatch.context() as patch:
            patch.setattr(whittakerhill, "SECTOR_DELTA", 10.0)
            row = verify_E_geq_1([1.0], N=2)["table"][0]
        assert row["in_sector"]
        assert not row["hypotheses_ok"] and not row["pass"]
        with pytest.raises(CertificateFailed):
            verify_E_geq_1([1.0], N=2)


def _coupling(tri):
    # entry (1, 2) of the Ince truncation is 2a
    return float(tri.upper[0]) / 2.0


class TestParallelSweep:
    """verify_E_geq_1 split over forked children, against one process."""

    COUPLINGS = [0.5 * i for i in range(8)]

    @pytest.fixture(autouse=True)
    def no_child_left(self):
        # a stuck pipe read or wait fails the test instead of hanging it;
        # forked children do not inherit the alarm
        def expire(signum, frame):
            raise TimeoutError("the sweep did not finish")

        previous = signal.signal(signal.SIGALRM, expire)
        signal.alarm(60)
        try:
            yield
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    @staticmethod
    def cpus(monkeypatch, count):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)))

    @staticmethod
    def count_forks(monkeypatch):
        forks = []
        real_fork = os.fork

        def fork():
            forks.append(os.getpid())
            return real_fork()

        monkeypatch.setattr(os, "fork", fork)
        return forks

    def sweep(self, monkeypatch, cpus, a_values, N):
        self.cpus(monkeypatch, cpus)
        return verify_E_geq_1(a_values, N=N)

    def failure(self, monkeypatch, cpus, a_values):
        self.cpus(monkeypatch, cpus)
        with pytest.raises(Exception) as info:
            verify_E_geq_1(a_values, N=10)
        return type(info.value), str(info.value)

    @pytest.mark.parametrize("cpus", [2, 3])
    @pytest.mark.parametrize("count", range(1, 8))
    def test_rows_equal_one_process(self, monkeypatch, cpus, count):
        a_values = self.COUPLINGS[:count]
        serial = self.sweep(monkeypatch, 1, a_values, 20)
        forks = self.count_forks(monkeypatch)
        parallel = self.sweep(monkeypatch, cpus, a_values, 20)
        assert len(forks) == min(cpus, max(1, count // 2)) - 1
        assert repr(parallel) == repr(serial) and parallel == serial

    def test_default_sweep_equals_one_process(self, monkeypatch):
        a_values = np.linspace(0.0, 10.0, 41)
        serial = self.sweep(monkeypatch, 1, a_values, 60)
        forks = self.count_forks(monkeypatch)
        parallel = self.sweep(monkeypatch, 2, a_values, 60)
        assert len(forks) == 1
        assert repr(parallel) == repr(serial) and parallel["all_pass"]

    def test_no_fork_while_a_thread_runs(self, monkeypatch):
        forks = self.count_forks(monkeypatch)
        release = threading.Event()
        thread = threading.Thread(target=release.wait)
        thread.start()
        try:
            rows = self.sweep(monkeypatch, 2, self.COUPLINGS, 10)
        finally:
            release.set()
            thread.join(timeout=10)
        assert not thread.is_alive()
        assert forks == [] and len(rows["table"]) == len(self.COUPLINGS)

    @staticmethod
    def plant(monkeypatch, failures):
        """Make the couplings in ``failures`` fail: "sector" puts an
        eigenvalue in the excluded sector, "stall" raises NoConvergence."""
        real = whittakerhill.eig_general_tridiagonal

        def planted(tri):
            kind = failures.get(_coupling(tri))
            if kind == "sector":
                return np.array([0.5 + 0.0j, 4.0 + 0.0j])
            if kind == "stall":
                raise NoConvergence(f"planted stall at a={_coupling(tri)}")
            return real(tri)

        monkeypatch.setattr(whittakerhill, "eig_general_tridiagonal", planted)

    @pytest.mark.parametrize("cpus", [2, 3])
    @pytest.mark.parametrize("kind", ["sector", "stall"])
    @pytest.mark.parametrize("index", [0, 1, 2, 5, 7])
    def test_planted_failure_matches_one_process(self, monkeypatch, cpus, kind, index):
        self.plant(monkeypatch, {self.COUPLINGS[index]: kind})
        want = self.failure(monkeypatch, 1, self.COUPLINGS)
        assert want[0] is (CertificateFailed if kind == "sector" else NoConvergence)
        assert self.failure(monkeypatch, cpus, self.COUPLINGS) == want

    @pytest.mark.parametrize("first, second", [(1, 4), (2, 5), (3, 4), (0, 7)])
    def test_lowest_failing_coupling_wins(self, monkeypatch, first, second):
        self.plant(monkeypatch, {self.COUPLINGS[first]: "stall",
                                 self.COUPLINGS[second]: "sector"})
        got = self.failure(monkeypatch, 2, self.COUPLINGS)
        assert got == (NoConvergence, f"planted stall at a={self.COUPLINGS[first]}")
        assert got == self.failure(monkeypatch, 1, self.COUPLINGS)

    def test_child_without_result_raises(self, monkeypatch):
        parent = os.getpid()
        real = whittakerhill.eig_general_tridiagonal

        def dying(tri):
            if os.getpid() != parent:
                os._exit(3)
            return real(tri)

        monkeypatch.setattr(whittakerhill, "eig_general_tridiagonal", dying)
        self.cpus(monkeypatch, 2)
        with pytest.raises(RuntimeError,
                           match=r"share 1 .* did not return its result \(wait status 768\)"):
            verify_E_geq_1(self.COUPLINGS, N=10)

    def test_interrupt_kills_and_reaps_children(self, monkeypatch):
        # the child's share would take a minute; the parent's is interrupted
        parent = os.getpid()
        real = whittakerhill.eig_general_tridiagonal

        def slow_child(tri):
            if os.getpid() != parent:
                time.sleep(60)
            elif _coupling(tri) == self.COUPLINGS[2]:
                raise KeyboardInterrupt
            return real(tri)

        monkeypatch.setattr(whittakerhill, "eig_general_tridiagonal", slow_child)
        self.cpus(monkeypatch, 2)
        start = time.monotonic()
        with pytest.raises(KeyboardInterrupt):
            verify_E_geq_1(self.COUPLINGS, N=10)
        assert time.monotonic() - start < 30


class TestWHGridGuard:
    def test_guard_type_exists(self):
        # the ground state is pinned by construction; the guard only fires
        # on a genuinely broken discretization
        assert issubclass(GridTooCoarse, RuntimeError)

    def test_certificate_names_the_coupling(self, monkeypatch):
        # the ground state drifts to -1e-3: the shared zero-mode
        # certificate rejects it and names the coupling
        def shifted(a, n):
            diag, off, corner = wh_bands(a, n)
            return diag - 1e-3, off, corner

        monkeypatch.setattr(oracles, "wh_bands", shifted)
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
            want = np.linalg.eigvalsh(periodic_dense(*wh_bands(a, n)))[1:5]
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
            E1 = wh_spectrum(np.hypot(*mode) / kappa, n=circle_kappa2.n, k=2)[1]
            rescaled.append(kappa * E1 / 2)
        report = lambda1_kohn(circle_kappa2, ModeWindow(2, 2))
        assert min(rescaled) == pytest.approx(kappa / 2, rel=1e-4)
        assert min(rescaled) == pytest.approx(report.lambda1_estimate, rel=1e-6)
