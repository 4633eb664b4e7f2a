import numpy as np
import pytest

from kohnspec import (
    GridTooCoarse,
    ModeIndex,
    assemble,
    build_curve,
    circle_profile,
    eig_dense_symmetric,
    kernel_function,
    mode_spectra,
    mode_spectrum,
    periodic_quadrature,
    potential,
    random_profile,
    rayleigh_quotient,
    wh_spectrum,
)
from kohnspec.modes import ZERO_MODE_TOL, potential_parts


def shift_modes(monkeypatch, shifts):
    """Add shifts[mode] to the diagonal of those modes' matrices (so to every eigenvalue)."""
    import kohnspec.modes as modes_mod
    bands = modes_mod.assemble_bands

    def shifted(curve, mode):
        diag, off, corner = bands(curve, mode)
        return diag + shifts.get(tuple(mode), 0.0), off, corner

    monkeypatch.setattr(modes_mod, "assemble_bands", shifted)


class TestPotential:
    def test_zero_mode_vanishes(self, random_curves):
        for curve in random_curves:
            np.testing.assert_array_equal(potential(curve, (0, 0)), 0.0)

    def test_unit_circle_mode_01(self, unit_circle):
        v = potential(unit_circle, (0, 1))
        expected = np.cos(unit_circle.s) ** 2 - np.sin(unit_circle.s)
        np.testing.assert_allclose(v, expected, atol=1e-12)
        assert v[0] == pytest.approx(1.0)

    def test_unit_circle_is_shifted_pendulum_well(self, unit_circle):
        # on the circle every mode potential is a phase-shifted copy of
        # a^2 sin^2(tau) + a cos(tau) with a = sqrt(m^2 + l^2)
        for (m, l) in [(1, 0), (0, 1), (2, 3), (-1, 2)]:
            a = np.hypot(m, l)
            beta = np.arctan2(m, l)
            tau = unit_circle.s + beta + np.pi / 2
            expected = a**2 * np.sin(tau) ** 2 + a * np.cos(tau)
            np.testing.assert_allclose(potential(unit_circle, (m, l)), expected, atol=1e-12)

    def test_quadratic_scaling_of_parts(self, ellipse_03):
        for (m, l) in [(1, 0), (1, 2), (3, -1)]:
            sq, curl = potential_parts(ellipse_03, (m, l))
            sq2, curl2 = potential_parts(ellipse_03, (2 * m, 2 * l))
            np.testing.assert_allclose(sq2, 4 * sq, atol=1e-12)
            np.testing.assert_allclose(curl2, 2 * curl, atol=1e-12)
            np.testing.assert_allclose(potential(ellipse_03, (2 * m, 2 * l)) - 4 * sq,
                                       2 * curl, atol=1e-12)

    def test_samples_match_grid(self, unit_circle):
        assert len(potential(unit_circle, ModeIndex(1, 2))) == unit_circle.n
        with pytest.raises(ValueError):
            rayleigh_quotient(unit_circle, (0, 0), np.zeros(3))


class TestAssemble:
    def test_zero_mode_unit_circle_spectrum(self):
        curve = build_curve(circle_profile(1.0), 256)
        vals = eig_dense_symmetric(assemble(curve, (0, 0)), k=3)
        assert abs(vals[0]) < 1e-8
        assert vals[1] == pytest.approx(0.5, abs=1e-4)
        assert vals[2] == pytest.approx(0.5, abs=1e-4)

    def test_zero_mode_kappa2_spectrum(self):
        curve = build_curve(circle_profile(0.5), 512)
        vals = eig_dense_symmetric(assemble(curve, (0, 0)), k=5)
        np.testing.assert_allclose(vals, [0.0, 1.0, 1.0, 4.0, 4.0], atol=2e-3)

    def test_nonnegative_operators(self, random_curves):
        for curve in random_curves[:2]:
            for mode in [(0, 0), (1, 0), (2, -1), (-3, 2)]:
                vals = mode_spectrum(curve, mode, k=1)
                assert vals[0] >= -1e-8

    def test_bisect_agrees_with_dense(self, ellipse_03):
        for mode in [(0, 0), (1, 0), (2, 1), (-1, -1)]:
            fast = mode_spectrum(ellipse_03, mode, k=3, method="bisect")
            dense = mode_spectrum(ellipse_03, mode, k=3, method="dense")
            np.testing.assert_allclose(fast, dense, atol=1e-9)


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
        with pytest.raises(ValueError):
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
        # where |lambda_0| <= ZERO_MODE_TOL * lambda_1, which the dense
        # path's relative check still accepts
        shift_modes(monkeypatch, {(3, 1): lam0})
        want = np.linalg.eigvalsh(assemble(unit_circle, (3, 1)).data)[:2]
        assert ZERO_MODE_TOL < abs(want[0]) <= ZERO_MODE_TOL * want[1]
        np.testing.assert_allclose(mode_spectrum(unit_circle, (3, 1), method="dense"),
                                   want, rtol=1e-9, atol=1e-10)
        with pytest.raises(GridTooCoarse, match=r"mode \(3, 1\)"):
            mode_spectra(unit_circle, [(1, 0), (3, 1), (1, -2)])

    def test_second_eigenvalue_near_zero_raises(self, unit_circle, monkeypatch):
        # a double zero eigenvalue has |lambda_0| <= ZERO_MODE_TOL, but the
        # certificate needs exactly one eigenvalue in (-tau, tau)
        import kohnspec.modes as modes_mod
        bands = modes_mod.assemble_bands

        def doubled(curve, mode):
            if tuple(mode) != (2, 2):
                return bands(curve, mode)
            diag = np.ones(curve.n)
            diag[:2] = 0.0
            return diag, np.zeros(curve.n - 1), 0.0

        monkeypatch.setattr(modes_mod, "assemble_bands", doubled)
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
            want = np.linalg.eigvalsh(assemble(curve, mode).data)[1]
            assert abs(lam1 - want) <= 1e-10 * max(1.0, want)

    def test_circle_double_eigenvalue_accuracy(self, unit_circle):
        # Pins today's accuracy at a known defect rather than the 1e-13
        # bisection tolerance.  Mode (0, 0) of the circle has a double
        # lambda_1 = lambda_2 (split by 2.2e-13 at grid 512).  Every leading
        # (n-1) submatrix has an eigenvalue there (interlacing), so the
        # corner Schur complement of the periodic inertia count is
        # ill-conditioned exactly at that point and the count is not
        # monotone within a few 1e-9 of it; bisection lands 2.4e-9 off.
        lam1 = mode_spectrum(unit_circle, (0, 0), k=2)[1]
        want = np.linalg.eigvalsh(assemble(unit_circle, (0, 0)).data)[1]
        assert abs(lam1 - want) <= 5e-9


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
    def test_matches_matrix_form(self, ellipse_03):
        rng = np.random.default_rng(4)
        u = rng.standard_normal(ellipse_03.n)
        mode = (2, -1)
        s_mat = assemble(ellipse_03, mode).data
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
