import numpy as np
import pytest

from kohnspec import (
    ClosureViolated,
    NonPositiveCurvature,
    NotClosed,
    RadiusOfCurvatureProfile,
    build_curve,
    circle_profile,
    curve_from_curvature_samples,
    curve_from_spec,
    ellipse_profile,
    geometric_invariants,
    periodic_quadrature,
    random_profile,
    webster_scalar_curvature,
)

TWO_PI = 2 * np.pi


class TestBuildCurve:
    def test_unit_circle(self):
        curve = build_curve(circle_profile(1.0), 256)
        assert curve.length == pytest.approx(TWO_PI, abs=1e-14)
        np.testing.assert_allclose(curve.kappa, 1.0, atol=1e-14)
        # centered positions reproduce (cos s, sin s), tangent (-sin s, cos s)
        np.testing.assert_allclose(curve.xi, np.cos(curve.s), atol=1e-12)
        np.testing.assert_allclose(curve.eta, np.sin(curve.s), atol=1e-12)
        np.testing.assert_allclose(curve.q, -np.sin(curve.s), atol=1e-12)
        np.testing.assert_allclose(curve.p, np.cos(curve.s), atol=1e-12)

    def test_oval_profile_length_and_turning(self):
        curve = build_curve(ellipse_profile(0.3), 512)
        # length is 2*pi*c0 exactly; total turning is 2*pi for any closed curve
        assert curve.length == pytest.approx(TWO_PI, rel=1e-14)
        total = periodic_quadrature(curve.kappa, curve.length)
        assert total == pytest.approx(TWO_PI, abs=1e-10)

    def test_rejects_nonpositive_profile(self):
        with pytest.raises(NonPositiveCurvature):
            build_curve(RadiusOfCurvatureProfile((1.0, 0.0, -1.1)), 256)

    def test_rejects_first_harmonic(self):
        with pytest.raises(ClosureViolated):
            build_curve(RadiusOfCurvatureProfile((1.0, 0.05)), 256)
        with pytest.raises(ClosureViolated):
            build_curve(RadiusOfCurvatureProfile((1.0,), (0.05,)), 256)

    @pytest.mark.parametrize("cos, sin, field", [
        ((np.nan,), (), r"cos_coeffs\[0\]"),
        ((1.0, 0.0, np.inf), (), r"cos_coeffs\[2\]"),
        ((1.0,), (0.0, -np.inf), r"sin_coeffs\[1\]"),
    ])
    def test_rejects_non_finite_coefficients(self, cos, sin, field):
        with pytest.raises(ValueError, match=field):
            RadiusOfCurvatureProfile(cos, sin)

    def test_rejects_bad_grid(self):
        with pytest.raises(ValueError):
            build_curve(circle_profile(), 8)
        with pytest.raises(ValueError):
            build_curve(circle_profile(), 255)

    def test_tangent_is_unit(self, ellipse_03):
        np.testing.assert_allclose(ellipse_03.q**2 + ellipse_03.p**2, 1.0, atol=1e-15)

    def test_discrete_frenet_relations(self, ellipse_03):
        h = ellipse_03.grid_spacing
        dp = (np.roll(ellipse_03.p, -1) - np.roll(ellipse_03.p, 1)) / (2 * h)
        dq = (np.roll(ellipse_03.q, -1) - np.roll(ellipse_03.q, 1)) / (2 * h)
        assert np.max(np.abs(dp - ellipse_03.kappa * ellipse_03.q)) < 1e-3
        assert np.max(np.abs(dq + ellipse_03.kappa * ellipse_03.p)) < 1e-3

    def test_curve_arrays_are_readonly(self, unit_circle):
        with pytest.raises(ValueError):
            unit_circle.kappa[0] = 2.0


class TestCurveFromSamples:
    def test_unit_circle_closes(self):
        n = 512
        # closure residual is far below the 1e-10 level: a tolerance of
        # 1e-11 * length would already reject a larger gap
        curve = curve_from_curvature_samples(np.ones(n), TWO_PI, closure_tol=1e-11)
        radius = np.hypot(curve.xi, curve.eta)
        np.testing.assert_allclose(radius, 1.0, atol=2e-5)  # trapezoid positions

    def test_radius_half_circle(self):
        n = 512
        curve = curve_from_curvature_samples(np.full(n, 2.0), np.pi, closure_tol=1e-11)
        radius = np.hypot(curve.xi, curve.eta)
        np.testing.assert_allclose(radius, 0.5, atol=2e-5)

    def test_wrong_turning_rejected(self):
        with pytest.raises(NotClosed):
            curve_from_curvature_samples(np.ones(512), 3 * np.pi)

    def test_open_position_rejected(self):
        # positive curvature with total turning 2*pi that spirals: kappa has a
        # first harmonic, so the tangent does not integrate to zero
        n = 512
        s = np.arange(n) * TWO_PI / n
        kappa = 1.0 + 0.5 * np.cos(s)
        kappa *= TWO_PI / (periodic_quadrature(kappa, TWO_PI))
        with pytest.raises(NotClosed):
            curve_from_curvature_samples(kappa, TWO_PI)

    def test_non_finite_input_rejected(self):
        kappa = np.ones(512)
        with pytest.raises(ValueError, match="length"):
            curve_from_curvature_samples(kappa, np.nan)
        with pytest.raises(ValueError, match="length"):
            curve_from_curvature_samples(kappa, np.inf)
        kappa[10] = np.inf
        with pytest.raises(ValueError, match="sample 10"):
            curve_from_curvature_samples(kappa, TWO_PI)

    def test_nonpositive_samples_rejected(self):
        kappa = np.ones(512)
        kappa[10] = -0.1
        with pytest.raises(NonPositiveCurvature):
            curve_from_curvature_samples(kappa, TWO_PI)


class TestQuadrature:
    def test_sin_squared(self):
        s = np.arange(64) * TWO_PI / 64
        assert periodic_quadrature(np.sin(s) ** 2, TWO_PI) == pytest.approx(np.pi, abs=1e-12)

    def test_constant(self):
        assert periodic_quadrature(np.ones(32), TWO_PI) == pytest.approx(TWO_PI, abs=1e-14)

    def test_curvature_energy_closed_form(self, ellipse_03):
        # integral of kappa^2 ds = integral d(phi)/rho = 2*pi/sqrt(1 - eps^2)
        value = periodic_quadrature(ellipse_03.kappa**2, ellipse_03.length)
        assert value == pytest.approx(TWO_PI / np.sqrt(0.91), rel=1e-12)

    def test_too_few_samples(self):
        with pytest.raises(ValueError):
            periodic_quadrature(np.ones(1), 1.0)


class TestWebster:
    def test_constant_curvature(self):
        curve = build_curve(circle_profile(1.0), 256)
        np.testing.assert_allclose(webster_scalar_curvature(curve), 0.5, atol=1e-12)
        curve2 = build_curve(circle_profile(0.5), 256)
        np.testing.assert_allclose(webster_scalar_curvature(curve2), 1.0, atol=1e-12)

    def test_refinement_oracle(self):
        # central differences are second order; at this resolution the
        # coarse and refined samples agree to 1e-6 on the common nodes
        coarse = build_curve(ellipse_profile(0.3), 16384)
        fine = build_curve(ellipse_profile(0.3), 32768)
        r_coarse = webster_scalar_curvature(coarse)
        r_fine = webster_scalar_curvature(fine)
        assert np.max(np.abs(r_coarse - r_fine[::2])) < 1e-6


class TestInvariants:
    def test_unit_circle_values(self, unit_circle):
        inv = geometric_invariants(unit_circle)
        assert inv["volume"] == pytest.approx(8 * np.pi**3, rel=1e-12)
        assert inv["bound_rhs"] == pytest.approx(0.5, abs=1e-12)
        assert inv["mean_webster"] == pytest.approx(0.5, rel=1e-10)

    def test_kappa2_circle_bound(self, circle_kappa2):
        assert geometric_invariants(circle_kappa2)["bound_rhs"] == pytest.approx(1.0, abs=1e-10)

    def test_oval_bound_closed_form(self):
        for eps in (0.1, 0.2, 0.3):
            curve = build_curve(ellipse_profile(eps), 512)
            expected = 1.0 / (2 * np.sqrt(1 - eps**2))
            assert geometric_invariants(curve)["bound_rhs"] == pytest.approx(expected, rel=1e-12)

    def test_mean_webster_equals_bound(self, random_curves):
        for curve in random_curves:
            inv = geometric_invariants(curve)
            assert inv["mean_webster"] == pytest.approx(inv["bound_rhs"], rel=1e-10)

    def test_volume_universal(self, random_curves):
        for curve in random_curves:
            inv = geometric_invariants(curve)
            assert inv["volume"] == pytest.approx(8 * np.pi**3, rel=1e-10)
            assert inv["total_curvature"] == pytest.approx(TWO_PI, abs=1e-10)

    def test_energy_lower_bound(self, random_curves, unit_circle):
        # Cauchy-Schwarz: integral kappa^2 >= (2 pi)^2 / length, i.e.
        # bound_rhs >= pi / length, with equality exactly for circles
        inv = geometric_invariants(unit_circle)
        assert inv["bound_rhs"] == pytest.approx(np.pi / unit_circle.length, rel=1e-12)
        for curve in random_curves:
            inv = geometric_invariants(curve)
            if np.var(curve.kappa) > 1e-8:
                assert inv["bound_rhs"] > np.pi / curve.length

    def test_refinement_under_doubling(self):
        inv1 = geometric_invariants(build_curve(ellipse_profile(0.3), 256))
        inv2 = geometric_invariants(build_curve(ellipse_profile(0.3), 512))
        for key in ("total_curvature", "volume", "bound_rhs", "mean_webster"):
            assert abs(inv1[key] - inv2[key]) <= max(1e-8, abs(inv2[key]) * 4 / 256**2)


class TestCurveSpec:
    def test_profile_form(self):
        curve = curve_from_spec({"rho": {"cos": [1.0], "sin": []}, "grid": 128})
        assert curve.n == 128
        assert curve.length == pytest.approx(TWO_PI)

    def test_grid_override(self):
        curve = curve_from_spec({"rho": {"cos": [1.0]}, "grid": 128}, grid=256)
        assert curve.n == 256

    def test_samples_form(self):
        curve = curve_from_spec({"kappa_samples": list(np.ones(64)), "length": TWO_PI})
        assert curve.n == 64

    def test_option_for_the_other_form_rejected(self):
        # grid belongs to profiles, closure_tol to samples; neither is
        # accepted and then ignored
        with pytest.raises(ValueError, match="grid"):
            curve_from_spec({"kappa_samples": list(np.ones(64)), "length": TWO_PI}, grid=128)
        with pytest.raises(ValueError, match="closure_tol"):
            curve_from_spec({"rho": {"cos": [1.0]}, "grid": 128}, closure_tol=1e-11)
        with pytest.raises(TypeError):
            build_curve(circle_profile(1.0), 128, closure_tol=1e-11)

    def test_malformed(self):
        with pytest.raises(ValueError):
            curve_from_spec({"rho": {"sin": [0.0]}})
        with pytest.raises(ValueError):
            curve_from_spec({"kappa_samples": [1.0] * 64})
        with pytest.raises(ValueError):
            curve_from_spec({})


class TestRandomProfile:
    def test_deterministic(self):
        assert random_profile(7) == random_profile(7)
        assert random_profile(7) != random_profile(8)

    def test_always_buildable(self):
        for seed in range(20):
            curve = build_curve(random_profile(seed), 256)
            assert curve.kappa.min() > 0
