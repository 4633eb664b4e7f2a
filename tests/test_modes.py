import os

import numpy as np
import pytest
import scipy.linalg

from kohnspec import (
    GridTooCoarse,
    ModeWindow,
    build_curve,
    circle_profile,
    kernel_function,
    mode_spectra,
    periodic_quadrature,
    random_profile,
    rayleigh_quotient,
)
from kohnspec.eigen import ZERO_MODE_TOL
from kohnspec.modes import MAX_TRANSPORT_EXPONENT, assemble_bands
from oracles import periodic_dense, wh_spectrum


def mode_spectrum(curve, mode, k=2):
    """First k eigenvalues of one mode: a one-mode window of ``mode_spectra``."""
    return mode_spectra(curve, [mode], k)[0]


def dense_eigenvalues(curve, mode):
    """All eigenvalues of the mode's matrix from LAPACK, ascending."""
    return np.linalg.eigvalsh(periodic_dense(*assemble_bands(curve, mode)))


def banded_lambda1(diag, off, corner):
    """lambda_1 of a periodic tridiagonal matrix from LAPACK's banded solver.

    The cycle 0, 1, ..., n-1 taken in the order 0, n-1, 1, n-2, 2, ... has
    bandwidth 2, so the matrix needs no dense reduction.
    """
    n = len(diag)
    order = np.empty(n, dtype=int)
    order[0::2] = np.arange((n + 1) // 2)
    order[1::2] = np.arange(n - 1, (n - 1) // 2, -1)
    pos = np.empty(n, dtype=int)
    pos[order] = np.arange(n)
    band = np.zeros((3, n))
    band[0, pos] = diag
    i = np.arange(n)
    j = (i + 1) % n
    np.add.at(band, (np.abs(pos[i] - pos[j]), np.minimum(pos[i], pos[j])), np.append(off, corner))
    return scipy.linalg.eig_banded(band, lower=True, eigvals_only=True, select="i",
                                   select_range=(1, 1))[0]


def shift_modes(monkeypatch, shifts):
    """Add shifts[mode] to the diagonal of those modes' matrices (so to every eigenvalue)."""
    import kohnspec.modes as modes_mod
    bands = modes_mod._window_bands

    def shifted(curve, modes):
        diag, off, corner, lam0 = bands(curve, modes)
        diag += [shifts.get(tuple(mode), 0.0) for mode in modes]
        return diag, off, corner, lam0

    monkeypatch.setattr(modes_mod, "_window_bands", shifted)


class TestAssemble:
    def test_zero_mode_unit_circle_spectrum(self):
        curve = build_curve(circle_profile(1.0), 256)
        vals = dense_eigenvalues(curve, (0, 0))[:3]
        assert abs(vals[0]) < 1e-8
        assert vals[1] == pytest.approx(0.5, abs=1e-4)
        assert vals[2] == pytest.approx(0.5, abs=1e-4)

    def test_zero_mode_kappa2_spectrum(self):
        curve = build_curve(circle_profile(0.5), 512)
        vals = dense_eigenvalues(curve, (0, 0))[:5]
        np.testing.assert_allclose(vals, [0.0, 1.0, 1.0, 4.0, 4.0], atol=2e-3)

    def test_nonnegative_operators(self, random_curves):
        for curve in random_curves[:2]:
            for mode in [(0, 0), (1, 0), (2, -1), (-3, 2)]:
                vals = mode_spectrum(curve, mode, k=1)
                assert vals[0] >= -1e-8

    def test_bisect_agrees_with_dense(self, ellipse_03):
        for mode in [(0, 0), (1, 0), (2, 1), (-1, -1)]:
            fast = mode_spectrum(ellipse_03, mode, k=3)
            dense = dense_eigenvalues(ellipse_03, mode)[:3]
            np.testing.assert_allclose(fast, dense, atol=1e-9)


class TestTransportRule:
    """One rule, before any transport factor is built: hypot(m, l) times the
    longest chord between neighbouring nodes is at most MAX_TRANSPORT_EXPONENT."""

    @staticmethod
    def circle_at(fraction, n=16):
        # the circle whose mode (1, 1) sits at ``fraction`` of the limit
        chord = 2.0 * np.sin(np.pi / n)
        return build_curve(circle_profile(fraction * MAX_TRANSPORT_EXPONENT
                                          / (np.sqrt(2.0) * chord)), n)

    def test_modes_inside_the_limit_run_without_warning(self):
        curve = self.circle_at(0.99)
        for mode in [(1, 1), (-1, 1), (1, 0)]:
            lam0, lam1 = mode_spectrum(curve, mode)
            assert np.isfinite(lam1) and lam1 > 0
            assert np.isfinite(rayleigh_quotient(curve, mode, kernel_function(curve, mode)))
            np.testing.assert_array_equal(np.isfinite(assemble_bands(curve, mode)[0]), True)

    def test_modes_past_the_limit_are_named_with_the_grid(self):
        curve = self.circle_at(1.01)
        match = r"mode \(1, -1\) at grid 16 is not resolved"
        with pytest.raises(ValueError, match=match):
            assemble_bands(curve, (1, -1))
        with pytest.raises(ValueError, match=match):
            rayleigh_quotient(curve, (1, -1), np.ones(16))
        # the first failing mode in the given order
        with pytest.raises(ValueError, match=match):
            mode_spectra(curve, [(0, 0), (1, 0), (1, -1), (2, 2)])
        assert mode_spectra(curve, [(0, 0), (1, 0)]).shape == (2, 2)


class TestModeSpectrum:
    def test_circle_zero_mode(self, unit_circle):
        vals = mode_spectrum(unit_circle, (0, 0), k=3)
        np.testing.assert_allclose(vals, [0.0, 0.5, 0.5], atol=1e-4)

    def test_matches_rescaled_operator(self, unit_circle):
        # same scheme on the rescaled grid: the two discretizations of one
        # operator agree far below their common truncation error
        lam1 = mode_spectrum(unit_circle, (1, 0), k=2)[1]
        E1 = wh_spectrum(1.0, n=unit_circle.n, k=2)[1]
        assert 2 * lam1 == pytest.approx(E1, abs=1e-8)

    def test_kernel_exists_for_every_mode(self, unit_circle):
        for mode in [(3, 4), (0, 2), (-2, 5)]:
            vals = mode_spectrum(unit_circle, mode, k=1)
            assert abs(vals[0]) < 1e-6

    def test_refinement_is_second_order(self):
        errs = []
        for n in (128, 256, 512):
            curve = build_curve(circle_profile(1.0), n)
            errs.append(abs(mode_spectrum(curve, (0, 0), k=2)[1] - 0.5))
        assert 3.0 < errs[0] / errs[1] < 5.0
        assert 3.0 < errs[1] / errs[2] < 5.0

    def test_coarse_grid_still_has_kernel(self):
        # the factored stiffness keeps the sampled kernel an exact null
        # vector, so even a crude grid resolves the zero mode
        curve = build_curve(circle_profile(1.0), 16)
        vals = mode_spectrum(curve, (8, 8), k=1)
        assert abs(vals[0]) < 1e-8

    def test_invalid_k(self, unit_circle):
        with pytest.raises(ValueError, match="k must be >= 1"):
            mode_spectrum(unit_circle, (0, 0), k=0)


class TestModeSpectra:
    def test_rows_follow_mode_order(self, ellipse_03):
        modes = [(2, 1), (0, 0), (-1, 3)]
        vals = mode_spectra(ellipse_03, modes, k=3)
        assert vals.shape == (3, 3)
        for mode, row in zip(modes, vals):
            np.testing.assert_array_equal(row, mode_spectrum(ellipse_03, mode, k=3))

    def test_empty_window(self, unit_circle):
        for k in (1, 2, 3):
            assert mode_spectra(unit_circle, [], k=k).shape == (0, k)

    def test_grid_too_coarse_names_mode_in_batch(self, unit_circle, monkeypatch):
        # two modes' zero eigenvalues drift to -1e-3: the inertia
        # certificate rejects both and names the first in batch order
        shift_modes(monkeypatch, {(1, -2): -1e-3, (2, 2): -1e-3})
        with pytest.raises(GridTooCoarse, match=r"mode \(1, -2\) is not isolated: 1 eigenvalue"):
            mode_spectra(unit_circle, [(0, 0), (3, 1), (1, -2), (2, 2)])

    @pytest.mark.parametrize("lam0", [2e-6, -2e-6])
    def test_zero_mode_beyond_absolute_tolerance_raises(self, unit_circle, monkeypatch, lam0):
        # the certificate is absolute: ZERO_MODE_TOL < |lambda_0| raises even
        # where |lambda_0| <= ZERO_MODE_TOL * lambda_1
        shift_modes(monkeypatch, {(3, 1): lam0})
        want = dense_eigenvalues(unit_circle, (3, 1))[:2] + lam0
        assert ZERO_MODE_TOL < abs(want[0]) <= ZERO_MODE_TOL * want[1]
        with pytest.raises(GridTooCoarse, match=r"mode \(3, 1\)"):
            mode_spectra(unit_circle, [(1, 0), (3, 1), (1, -2)])

    def test_second_eigenvalue_near_zero_raises(self, unit_circle, monkeypatch):
        # a double zero eigenvalue has |lambda_0| <= ZERO_MODE_TOL, but the
        # certificate needs exactly one eigenvalue in (-tau, tau)
        import kohnspec.modes as modes_mod
        bands = modes_mod._window_bands

        def doubled(curve, modes):
            diag, off, corner, lam0 = bands(curve, modes)
            off = np.repeat(off, len(modes), axis=1)  # one coupling column per mode
            j = [tuple(mode) for mode in modes].index((2, 2))
            diag[:, j], off[:, j], corner[j] = 1.0, 0.0, 0.0
            diag[:2, j] = 0.0
            return diag, off, corner, lam0

        monkeypatch.setattr(modes_mod, "_window_bands", doubled)
        with pytest.raises(GridTooCoarse, match=r"\(2, 2\).* 2 in \["):
            mode_spectra(unit_circle, [(0, 0), (2, 2)], k=1)

    def test_lambda0_is_kernel_rayleigh_quotient(self, random_curves):
        curve = random_curves[1]
        modes = [(0, 0), (3, -1), (-4, 2), (1, 4)]
        vals = mode_spectra(curve, modes, k=2)
        for mode, row in zip(modes, vals):
            assert row[0] == rayleigh_quotient(curve, mode, kernel_function(curve, mode))
            assert 0.0 <= row[0] < 1e-20

    @pytest.mark.parametrize("curve_name", ["random_7", "ellipse_03"])
    def test_lambda1_matches_lapack(self, curve_name, request):
        if curve_name == "random_7":
            curve = build_curve(random_profile(7), 512)
        else:
            curve = request.getfixturevalue(curve_name)
        modes = [(m, l) for m in range(-1, 2) for l in range(-1, 2)]
        for mode, (_, lam1) in zip(modes, mode_spectra(curve, modes)):
            want = dense_eigenvalues(curve, mode)[1]
            assert abs(lam1 - want) <= 1e-10 * max(1.0, want)

    @pytest.mark.parametrize("curve_name", ["random_7", "ellipse_03"])
    def test_lambda1_matches_lapack_on_a_wide_window(self, curve_name, request):
        # every mode of the benchmark's 8 x 8 window at grid 512, where most
        # brackets are polished on det(A - x) once they isolate lambda_1
        if curve_name == "random_7":
            curve = build_curve(random_profile(7), 512)
        else:
            curve = request.getfixturevalue(curve_name)
        modes = list(ModeWindow(8, 8).modes())
        for mode, (_, lam1) in zip(modes, mode_spectra(curve, modes)):
            want = banded_lambda1(*assemble_bands(curve, mode))
            assert abs(lam1 - want) <= 1e-10 * max(1.0, want), mode

    def test_wide_window_kernel_work(self, monkeypatch):
        # the benchmark's sweep (random_profile(7), grid 512, 8 x 8 window)
        # took 25 kernel calls and 21,386 (shift, matrix) columns with
        # bisection alone.  The window validates and scales its 289 matrices
        # once: the certificate at -tau and tau (the first call) and the
        # bisection of lambda_1 run on that one batch
        import kohnspec.eigen as eigen_mod
        batches, columns = [], []
        init, inertia = eigen_mod._PeriodicBands.__init__, eigen_mod._periodic_inertia

        def built(self, *args):
            batches.append(len(args[2]))
            init(self, *args)

        def counted(bands, cols, x):
            columns.append(x.size)
            return inertia(bands, cols, x)

        monkeypatch.setattr(eigen_mod._PeriodicBands, "__init__", built)
        monkeypatch.setattr(eigen_mod, "_periodic_inertia", counted)
        mode_spectra(build_curve(random_profile(7), 512), list(ModeWindow(8, 8).modes()))
        assert batches == [289]
        assert (len(columns), sum(columns), columns[0]) == (22, 7354, 2 * 289)

    def test_k1_certifies_without_bisecting(self, monkeypatch):
        # with k = 1 the +-tau certificate is the only kernel call: no
        # lambda_1 is bisected and then dropped
        import kohnspec.eigen as eigen_mod
        calls = []
        inertia = eigen_mod._periodic_inertia

        def counted(bands, cols, x):
            calls.append(x.size)
            return inertia(bands, cols, x)

        monkeypatch.setattr(eigen_mod, "_periodic_inertia", counted)
        curve = build_curve(random_profile(7), 128)
        modes = list(ModeWindow(2, 2).modes())
        rows = mode_spectra(curve, modes, k=1)
        assert calls == [2 * len(modes)]
        np.testing.assert_array_equal(rows, mode_spectra(curve, modes, k=2)[:, :1])

    def test_circle_double_eigenvalue_accuracy(self, unit_circle):
        # Mode (0, 0) of the circle, the paper's equality case, has a double
        # lambda_1 = lambda_2 (split by 2.2e-13 at grid 512).  The inertia
        # count sums four tridiagonal blocks and a 4 x 4 Schur complement
        # on separator rows, which shares the double null space and is
        # counted after orthogonal rotations, so the count stays monotone
        # there and bisection lands about 2e-13 off, as for simple ones.
        lam1 = mode_spectrum(unit_circle, (0, 0), k=2)[1]
        want = dense_eigenvalues(unit_circle, (0, 0))[1]
        assert abs(lam1 - want) <= 1e-10 * max(1.0, want)


class TestKernelFunction:
    def test_constant_for_zero_mode(self, ellipse_03):
        v = kernel_function(ellipse_03, (0, 0))
        assert np.ptp(v) < 1e-14
        norm = periodic_quadrature(v**2 * ellipse_03.kappa, ellipse_03.length)
        assert norm == pytest.approx(1.0, rel=1e-12)

    def test_circle_kernel_solves_ode(self, unit_circle):
        # v = exp(cos s) satisfies -v'' + (sin^2 s - cos s) v = 0; check with
        # spectral differentiation of the sampled kernel
        s = unit_circle.s
        v = np.exp(np.cos(s))
        freq = np.fft.fftfreq(len(s), d=unit_circle.grid_spacing) * 2 * np.pi
        v_pp = np.fft.ifft(-(freq**2) * np.fft.fft(v)).real
        residual = -v_pp + (np.sin(s) ** 2 - np.cos(s)) * v
        assert np.max(np.abs(residual)) < 1e-6

    def test_kernel_direction_matches(self, unit_circle):
        v = kernel_function(unit_circle, (1, 0))
        ref = np.exp(unit_circle.xi)
        ref = ref / ref[0] * v[0]
        np.testing.assert_allclose(v, ref, rtol=1e-12)

    def test_kernel_rayleigh_quotient_vanishes(self, random_curves, unit_circle):
        curves = list(random_curves[:3]) + [unit_circle]
        for curve in curves:
            for mode in [(1, 0), (0, -2), (3, 3), (-2, 1)]:
                v = kernel_function(curve, mode)
                assert rayleigh_quotient(curve, mode, v) < 1e-8


class TestRayleighQuotient:
    def test_sample_count_must_match_grid(self, unit_circle):
        with pytest.raises(ValueError):
            rayleigh_quotient(unit_circle, (0, 0), np.zeros(3))

    def test_matches_matrix_form(self, ellipse_03):
        rng = np.random.default_rng(4)
        u = rng.standard_normal(ellipse_03.n)
        mode = (2, -1)
        s_mat = periodic_dense(*assemble_bands(ellipse_03, mode))
        m_diag = ellipse_03.kappa * ellipse_03.grid_spacing
        w = u * np.sqrt(m_diag)  # undo the whitening: quotient in original variables
        expected = (w @ s_mat @ w) / (w @ w)
        assert rayleigh_quotient(ellipse_03, mode, u) == pytest.approx(expected, rel=1e-10)

    def test_orthogonal_complement_sits_above_lambda1(self, ellipse_03):
        rng = np.random.default_rng(8)
        mode = (1, 1)
        lam1 = mode_spectrum(ellipse_03, mode, k=2)[1]
        kernel = kernel_function(ellipse_03, mode)
        weight = ellipse_03.kappa * ellipse_03.grid_spacing
        for _ in range(5):
            u = rng.standard_normal(ellipse_03.n)
            u = u - kernel * np.dot(kernel * weight, u) / np.dot(kernel * weight, kernel)
            assert rayleigh_quotient(ellipse_03, mode, u) >= lam1 - 1e-9 * max(1.0, lam1)


class TestPairModes:
    def test_isospectral_on_circles(self, unit_circle, circle_kappa2):
        # on a circle the two potentials are half-period translates of each
        # other, and the grid respects that shift, so the spectra coincide
        for curve in (unit_circle, circle_kappa2):
            for mode in [(1, 0), (0, 1), (2, 1), (1, 3)]:
                plus = mode_spectrum(curve, mode, k=3)
                minus = mode_spectrum(curve, (-mode[0], -mode[1]), k=3)
                np.testing.assert_allclose(plus, minus, atol=1e-10)

    def test_not_isospectral_off_circles(self, asymmetric_curve):
        # opposite index pairs are weighted supersymmetric partners, which
        # shifts their excited spectra once the curvature is nonconstant
        plus = mode_spectrum(asymmetric_curve, (0, 1), k=2)[1]
        minus = mode_spectrum(asymmetric_curve, (0, -1), k=2)[1]
        assert abs(plus - minus) > 1e-3


@pytest.mark.usefixtures("no_fork")
class TestShares:
    """mode_spectra where several CPUs are visible: the whole window runs
    in this process, with the rows and the failure of a one-CPU run."""

    @staticmethod
    def cpus(monkeypatch, count):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)))

    def test_rows_equal_one_process(self, monkeypatch):
        curve = build_curve(random_profile(7), 512)
        modes = list(ModeWindow(8, 8).modes())
        self.cpus(monkeypatch, 1)
        serial = mode_spectra(curve, modes)
        self.cpus(monkeypatch, 2)
        assert mode_spectra(curve, modes).tobytes() == serial.tobytes()

    @pytest.mark.parametrize("modes", [[(0, 0), (3, 1), (1, -2), (2, 2)],
                                       [(0, 0), (1, -2), (2, 2), (3, 1)]])
    def test_grid_too_coarse_names_the_first_mode_across_shares(self, unit_circle, monkeypatch,
                                                                modes):
        # two failing modes ahead of the rest of the 8 x 8 window: the first
        # in the given order is named
        shift_modes(monkeypatch, {(1, -2): -1e-3, (2, 2): -1e-3})
        self.cpus(monkeypatch, 2)
        window = modes + [mode for mode in ModeWindow(8, 8).modes() if mode not in modes]
        with pytest.raises(GridTooCoarse, match=r"mode \(1, -2\) is not isolated: 1 eigenvalue"):
            mode_spectra(unit_circle, window)

