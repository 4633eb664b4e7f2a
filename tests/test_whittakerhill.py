import math
import os

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linear_sum_assignment

import oracles
from kohnspec import (
    CertificateFailed,
    ModeWindow,
    NoConvergence,
    SectorRegion,
    Tridiagonal,
    build_curve,
    circle_profile,
    eig_general_tridiagonal,
    ince_matrix,
    mode_spectra,
    point_in_sector,
    random_profile,
    sector_exclusion_certificate,
    verify_E_geq_1,
    whittakerhill,
)
from kohnspec.eigen import GridTooCoarse, _cycle_counts
from kohnspec.whittakerhill import bendixson_floor
from oracles import eig_sym_tridiagonal, periodic_dense, wh_bands, wh_spectrum

#: differences below this are eigensolver roundoff, not truncation error
CONVERGENCE_FLOOR = 1e-11


def ince_eigenvalues(a, N):
    return np.asarray(eig_general_tridiagonal(ince_matrix(a, N)))


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
        with pytest.raises(ValueError, match="grid must be even"):
            wh_spectrum(1.0, n=62)
        with pytest.raises(ValueError, match="grid must be even"):
            wh_spectrum(1.0, n=129)
        with pytest.raises(ValueError, match="nonnegative"):
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
            lower = np.asarray(tri.lower).copy()
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
                            lambda tri, floor=math.inf: np.array([0.5 + 0.0j, 4.0 + 0.0j]))
        with monkeypatch.context() as patch:
            patch.setattr(whittakerhill, "SECTOR_DELTA", 10.0)
            row = verify_E_geq_1([1.0], N=2)["table"][0]
        assert row["in_sector"]
        assert not row["hypotheses_ok"] and not row["pass"]
        with pytest.raises(CertificateFailed):
            verify_E_geq_1([1.0], N=2)


def _row_equals_full_spectrum_row(a, N):
    row = verify_E_geq_1([a], N=N)["table"][0]
    want = oracles.full_spectrum_floor_row(a, N)
    assert repr(row) == repr(want) and row == want


@st.composite
def split_tridiagonals(draw):
    """Real tridiagonals cut into blocks by planted zero couplings, each
    block scaled by its own power of two within 2^+-60."""
    entries = st.floats(-4.0, 4.0).filter(lambda x: x == 0.0 or abs(x) >= 2.0**-20)
    diag, upper, lower = [], [], []
    for size in draw(st.lists(st.integers(1, 8), min_size=1, max_size=5)):
        scale = 2.0 ** draw(st.integers(-60, 60))
        if diag:
            # block triangular: one entry of the coupling is zero, or both
            up, lo = draw(st.sampled_from([(1.0, 0.0), (0.0, 1.0), (0.0, 0.0)]))
            x = draw(entries) * scale
            upper.append(up * x)
            lower.append(lo * x)
        diag += [draw(entries) * scale for _ in range(size)]
        upper += [draw(entries) * scale for _ in range(size - 1)]
        lower += [draw(entries) * scale for _ in range(size - 1)]
    return Tridiagonal(diag, upper, lower)


def _largest_entry(tri):
    return max(map(abs, [*tri.diag, *tri.upper, *tri.lower]))


class TestBottomSolve:
    """The rows read only the deflated bottom of each spectrum, certified by Re B."""

    @pytest.mark.parametrize("N", [1, 2, 3, 5, 10, 30, 60, 120, 240])
    @pytest.mark.parametrize("a", [-10.0, -0.1, 0.0, 1e-8, 0.37, 2.5, 10.0, 17.0, 40.0, 123.0,
                                   1e3])
    def test_rows_equal_full_spectrum_rows(self, a, N):
        _row_equals_full_spectrum_row(a, N)

    @settings(max_examples=200, deadline=None)
    @given(a=st.floats(-50.0, 50.0), N=st.integers(1, 130))
    def test_rows_equal_full_spectrum_rows_anywhere(self, a, N):
        _row_equals_full_spectrum_row(a, N)

    @pytest.mark.parametrize("a, N", [(10.0, 30), (1e6, 500)])
    def test_uncertified_rows_fall_back_to_the_full_spectrum(self, a, N):
        # lambda_min(Re B) stays below E1 at every attempt
        assert len(eig_general_tridiagonal(ince_matrix(a, N), floor=1.0)) == N
        _row_equals_full_spectrum_row(a, N)

    def test_default_couplings_stop_after_one_deflation(self, monkeypatch):
        sizes = []
        real = whittakerhill.eig_general_tridiagonal

        def counted(tri, floor=math.inf):
            eigs = real(tri, floor=floor)
            sizes.append(len(eigs))
            return eigs

        monkeypatch.setattr(whittakerhill, "eig_general_tridiagonal", counted)
        assert verify_E_geq_1(np.linspace(0.0, 10.0, 41), N=60)["all_pass"]
        assert sizes == [1] * 41

    def test_zero_coupling_solves_one_by_one_blocks_without_a_sweep(self, monkeypatch):
        # the 60 one-by-one blocks deflate in one kernel call: the bottom
        # entry with a floor, all 60 with the default floor of +inf
        calls = []
        real = whittakerhill._tqli_kernel

        def kernel(d, e, max_sweeps, floor):
            calls.append(len(d))
            return real(d, e, max_sweeps, floor)

        monkeypatch.setattr(whittakerhill, "_tqli_kernel", kernel)
        monkeypatch.setattr(whittakerhill, "_QL_MAX_SWEEPS", 0)
        assert eig_general_tridiagonal(ince_matrix(0.0, 60), floor=1.0) == [1 + 0j]
        assert calls == [60]
        assert eig_general_tridiagonal(ince_matrix(0.0, 60)) == [complex(k * k)
                                                                 for k in range(1, 61)]
        assert calls == [60, 60]

    @pytest.mark.parametrize("diag, off, count",
                             [([1.0, 100.0, 200.0, 150.0], [1.0, 1.0, 0.0], 1),
                              ([150.0, 1.0, 100.0, 200.0], [0.0, 1.0, 1.0], 4)],
                             ids=["diag0-off0", "diag1-off1"])
    def test_one_threshold_across_blocks(self, diag, off, count):
        # one t spans both blocks, in the order QL deflates: after 1.0 the
        # rest of both blocks lies above t = 1; deflated first, 150 puts t
        # above 100.0001, and every eigenvalue comes back
        tri = Tridiagonal(diag, off, off)
        full = eig_general_tridiagonal(tri)
        bottom = eig_general_tridiagonal(tri, floor=1.0)
        assert len(bottom) == count and bottom == full[:count]
        t = max([1.0] + [z.real + 2 * abs(z.imag) for z in bottom])
        assert all(w.real > t for w in full[count:])

    @settings(max_examples=300, deadline=None)
    @given(tri=split_tridiagonals(), floor=st.floats(-1e3, 1e3))
    def test_floor_returns_a_prefix_and_omits_only_what_lies_above_t(self, tri, floor):
        try:
            full = eig_general_tridiagonal(tri)
        except NoConvergence:
            return
        bottom = eig_general_tridiagonal(tri, floor=floor * _largest_entry(tri))
        assert bottom == full[:len(bottom)]
        t = max([floor * _largest_entry(tri)] + [z.real + 2 * abs(z.imag) for z in bottom])
        assert all(w.real > t for w in full[len(bottom):])

    @settings(max_examples=300, deadline=None)
    @given(tri=split_tridiagonals())
    def test_whole_spectrum_is_the_union_of_the_blocks(self, tri):
        # the kernel splits at the zero couplings, and scaling each block
        # on its own or all of them at once is exact within 2^+-60
        blocks, start = [], 0
        for k, (up, lo) in enumerate(zip(tri.upper, tri.lower)):
            if up == 0.0 or lo == 0.0:
                blocks.append(slice(start, k + 1))
                start = k + 1
        blocks.append(slice(start, tri.n))
        try:
            full = eig_general_tridiagonal(tri)
        except NoConvergence:
            return
        union = []
        for b in blocks:
            inner = slice(b.start, b.stop - 1)
            union += eig_general_tridiagonal(Tridiagonal(tri.diag[b], tri.upper[inner],
                                                         tri.lower[inner]))
        assert full == sorted(union, key=lambda z: (z.real, z.imag))

    def test_blocks_far_below_the_largest_entry_share_its_scale(self):
        # one power of two scales every block: 1 stays normal at 2^-1001
        # and keeps its bits, but 1e-300 flushes to 0 at about 2^-1993
        # (documented in _ql_eigenvalues)
        tri = Tridiagonal([2.0**1000, 1.0], [0.0], [0.0])
        assert eig_general_tridiagonal(tri) == [1 + 0j, complex(2.0**1000)]
        tri = Tridiagonal([1e300, 1e-300], [0.0], [0.0])
        assert eig_general_tridiagonal(tri) == [0j, 1e300 + 0j]

    @pytest.mark.parametrize("n", [1, 2, 5, 60])
    def test_certificate_agrees_with_eigvalsh(self, n):
        rng = np.random.default_rng(n)
        for _ in range(20):
            d = rng.normal(size=n) + 1j * rng.normal(size=n)
            e = rng.normal(size=n - 1) + 1j * rng.normal(size=n - 1)
            re = np.diag(d.real) + np.diag(e.real, 1) + np.diag(e.real, -1)
            lowest = np.linalg.eigvalsh(re)[0]
            margin = 1e-9 * np.abs(re).sum(axis=0).max()
            # the block follows one deflated entry; e ends in the kernel's workspace
            dl = [complex(x) for x in np.concatenate([[7 + 7j], d])]
            el = [complex(x) for x in np.concatenate([[5 + 5j], e, [np.nan]])]
            assert whittakerhill._real_part_exceeds(dl, el, 1, lowest - margin)
            assert not whittakerhill._real_part_exceeds(dl, el, 1, lowest + margin)

    def test_certificate_refuses_zero_pivots_and_nan(self):
        exceeds = whittakerhill._real_part_exceeds
        assert not exceeds([1 + 5j], [0j], 0, 1.0)
        # pivots 2 and 0.5 - 1/2 = 0
        assert not exceeds([2 + 1j, 0.5 - 1j], [1 + 3j, 0j], 0, 0.0)
        assert exceeds([2 + 1j, 0.5 - 1j], [1 + 3j, 0j], 0, -1e-3)
        assert not exceeds([complex(np.nan, 0.0), 2.0 + 0j], [0j, 0j], 0, 0.0)
        assert not exceeds([2.0 + 0j, 2.0 + 0j], [complex(np.nan, 0.0), 0j], 0, 0.0)
        assert not exceeds([2.0 + 0j], [0j], 0, np.nan)


def _coupling(tri):
    # entry (1, 2) of the Ince truncation is 2a
    return float(tri.upper[0]) / 2.0


def test_both_sweeps_run_in_one_process_on_two_cpus(monkeypatch, no_fork):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    rows = mode_spectra(build_curve(random_profile(7), 128), list(ModeWindow(8, 8).modes()))
    assert rows.shape == (289, 2)
    assert verify_E_geq_1(np.linspace(0.0, 10.0, 41))["all_pass"]


@pytest.mark.usefixtures("no_fork")
class TestParallelSweep:
    """verify_E_geq_1 where several CPUs are visible: the couplings run in
    this process, with the rows and the failure of a one-CPU run."""

    COUPLINGS = [0.5 * i for i in range(8)]

    @staticmethod
    def cpus(monkeypatch, count):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)))

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
        parallel = self.sweep(monkeypatch, cpus, a_values, 20)
        assert repr(parallel) == repr(serial) and parallel == serial

    def test_default_sweep_equals_one_process(self, monkeypatch):
        a_values = np.linspace(0.0, 10.0, 41)
        serial = self.sweep(monkeypatch, 1, a_values, 60)
        parallel = self.sweep(monkeypatch, 2, a_values, 60)
        assert repr(parallel) == repr(serial) and parallel["all_pass"]

    @staticmethod
    def plant(monkeypatch, failures):
        """Make the couplings in ``failures`` fail: "sector" puts an
        eigenvalue in the excluded sector, "stall" raises NoConvergence."""
        real = whittakerhill.eig_general_tridiagonal

        def planted(tri, floor=math.inf):
            kind = failures.get(_coupling(tri))
            if kind == "sector":
                return np.array([0.5 + 0.0j, 4.0 + 0.0j])
            if kind == "stall":
                raise NoConvergence(f"planted stall at a={_coupling(tri)}")
            return real(tri, floor=floor)

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


class TestWHGridGuard:
    def test_guard_type_exists(self):
        # the ground state is pinned by construction; the guard only fires
        # on a genuinely broken discretization, an input error like any
        # other ValueError
        assert issubclass(GridTooCoarse, ValueError)

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
        from kohnspec import lambda1_kohn

        kappa = 2.0
        rescaled = []
        for mode in ModeWindow(2, 2).modes():
            E1 = wh_spectrum(np.hypot(*mode) / kappa, n=circle_kappa2.n, k=2)[1]
            rescaled.append(kappa * E1 / 2)
        report = lambda1_kohn(circle_kappa2, ModeWindow(2, 2))
        assert min(rescaled) == pytest.approx(kappa / 2, rel=1e-4)
        assert min(rescaled) == pytest.approx(report.lambda1_estimate, rel=1e-6)


# ---------------------------------------------------------------------------
# the general tridiagonal path of ``wh-sweep`` (``kohnspec.whittakerhill``):
# QL on builtin complex, which returns lists, and the sector certificate
# ---------------------------------------------------------------------------


# signed magnitudes 10^-150 .. 10^150, and zeros that split the matrix
wide_entries = st.one_of(
    st.just(0.0),
    st.builds(lambda sign, exponent: sign * 10.0**exponent,
              st.sampled_from([-1.0, 1.0]), st.floats(-150.0, 150.0)))


@st.composite
def wide_tridiagonals(draw):
    n = draw(st.integers(1, 40))
    diag, upper, lower = (draw(st.lists(wide_entries, min_size=size, max_size=size))
                          for size in (n, n - 1, n - 1))
    return Tridiagonal(diag, upper, lower)


class TestGeneralTridiagonal:
    def test_diagonal_only(self):
        tri = Tridiagonal([1.0, 4.0, 9.0, 16.0], np.zeros(3), np.zeros(3))
        np.testing.assert_allclose(np.asarray(eig_general_tridiagonal(tri)).real, [1, 4, 9, 16])

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
        vals = np.asarray(eig_general_tridiagonal(tri))
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

    def test_underflowing_rotation_matches_lapack(self):
        # f^2 + g^2 underflows to 0 for f, g about 1e-200: not isotropic
        d, e = np.array([1.0, 1e-200, 3e-200]), np.array([0.5, 1e-200])
        want = np.linalg.eigvalsh(np.diag(d) + np.diag(e, 1) + np.diag(e, -1))
        got = np.asarray(eig_general_tridiagonal(Tridiagonal(d, e, e)))
        np.testing.assert_array_equal(got.imag, 0.0)
        np.testing.assert_allclose(got.real, want, rtol=1e-14)
        # the inertia kernel's dense cycle count resolves the eigenvalue 3e-200
        x = np.array([-1.0, -0.1, 1.5e-200, 6e-200, 0.5, 2.0])
        with np.errstate(all="raise"):
            counts = _cycle_counts(d - x[:, None], np.tile(np.append(e, 0.0), (len(x), 1)))
        np.testing.assert_array_equal(counts, [np.count_nonzero(want < xi) for xi in x])

    @pytest.mark.parametrize("big", [2.0**1023, np.finfo(float).max])
    def test_entries_from_two_to_the_1023(self, big):
        # scaling the largest entry into [1/2, 1) would divide by 2^1024,
        # which overflows; these scale by 2^1023
        np.testing.assert_allclose(eig_sym_tridiagonal([1.0, 2.0], [big]), [-big, big],
                                   rtol=1e-15)
        # [[1, 2a], [-a, 4]] has eigenvalues 2.5 +- i sqrt(2 a^2 - 2.25)
        a = big / 2.0
        vals = np.asarray(eig_general_tridiagonal(ince_matrix(a, 2)))
        np.testing.assert_allclose(vals.imag, [-np.sqrt(2.0) * a, np.sqrt(2.0) * a], rtol=1e-15)

    def test_sweep_cap_raises(self, monkeypatch):
        monkeypatch.setattr(whittakerhill, "_QL_MAX_SWEEPS", 0)
        with pytest.raises(NoConvergence, match="exceeded 0 sweeps"):
            eig_general_tridiagonal(ince_matrix(1.0, 5))

    def test_non_finite_entries_rejected(self):
        with pytest.raises(ValueError):
            eig_general_tridiagonal(Tridiagonal([np.nan, 1.0], [1.0], [-1.0]))

    @settings(max_examples=100, deadline=None)
    @given(tri=wide_tridiagonals())
    def test_wide_entries_converge_or_raise_no_convergence(self, tri):
        # builtin complex raises where numpy scalars returned inf or nan:
        # entries over 10^+-150 with mixed-sign couplings still end in a
        # finite, conjugation-closed spectrum or in NoConvergence
        try:
            vals = np.asarray(eig_general_tridiagonal(tri))
        except NoConvergence:
            return
        assert len(vals) == tri.n and np.all(np.isfinite(vals))
        np.testing.assert_array_equal(np.sort_complex(vals), np.sort_complex(vals.conj()))

    @pytest.mark.parametrize("error", [OverflowError, ZeroDivisionError])
    def test_kernel_range_errors_raise_no_convergence(self, monkeypatch, error):
        def kernel(d, e, max_sweeps, floor):
            raise error("out of range")

        monkeypatch.setattr(whittakerhill, "_tqli_kernel", kernel)
        with pytest.raises(NoConvergence, match="floating-point range"):
            eig_general_tridiagonal(ince_matrix(1.0, 4))

    def test_ince_spectra_match_lapack(self):
        # optimal matching against LAPACK, each eigenvalue to 1e-9 relative
        # times its condition number |y||x| / |y^H x| (x, y right and left
        # eigenvectors): the large eigenvalues at strong coupling are too
        # ill-conditioned for any double-precision solver to pin down
        for N in (2, 10, 60, 120):
            for a in (0.0, 1.0, 5.0, 10.0, 40.0):
                tri = ince_matrix(a, N)
                ref, vecs = np.linalg.eig(tri.to_dense())
                kappa = (np.linalg.norm(np.linalg.inv(vecs), axis=1)
                         * np.linalg.norm(vecs, axis=0))
                mine = np.asarray(eig_general_tridiagonal(tri))
                cost = np.abs(ref[:, None] - mine[None, :])
                rows, cols = linear_sum_assignment(cost)
                tol = 1e-9 * np.maximum(1.0, np.abs(ref[rows])) * kappa[rows]
                assert np.all(cost[rows, cols] <= tol), (N, a)

    def test_char_poly_vanishes_at_eigenvalues(self):
        rng = np.random.default_rng(31)
        tri = Tridiagonal(rng.uniform(0.5, 4.0, 12), rng.standard_normal(11),
                          rng.standard_normal(11))
        scale = np.prod(np.maximum(1.0, np.abs(tri.diag)))
        for z in eig_general_tridiagonal(tri):
            assert abs(np.linalg.det(tri.to_dense() - z * np.eye(tri.n))) < 1e-6 * scale


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

    def test_bendixson_floor(self):
        # Ince truncations: min diag 1; a zero product splits the matrix
        # and keeps the floor; a positive or NaN product voids it
        for N in (1, 2, 60):
            assert bendixson_floor(ince_matrix(7.0, N)) == 1.0
        assert bendixson_floor(Tridiagonal([3.0, -2.0, 5.0], [1.0, 0.0], [0.0, 4.0])) == -2.0
        assert bendixson_floor(Tridiagonal([1.0, 2.0, 3.0], [1.0, 1.0], [-1.0, 1.0])) is None
        assert bendixson_floor(Tridiagonal([1.0, 2.0], [np.nan], [-1.0])) is None
        assert bendixson_floor(Tridiagonal([], [], [])) is None
        with np.errstate(all="raise"):
            assert bendixson_floor(ince_matrix(1e200, 4)) == 1.0

    def test_bendixson_floor_bounds_the_spectrum(self):
        rng = np.random.default_rng(59)
        for _ in range(20):
            n = int(rng.integers(1, 30))
            up = rng.standard_normal(n - 1)
            tri = Tridiagonal(rng.uniform(-3.0, 3.0, n), up,
                              -np.sign(up) * rng.uniform(0.0, 3.0, n - 1))
            floor = bendixson_floor(tri)
            assert np.linalg.eigvals(tri.to_dense()).real.min() >= floor - 1e-12 * n

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
