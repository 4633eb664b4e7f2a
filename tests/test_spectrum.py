import json

import numpy as np
import pytest

from kohnspec import (
    ModeWindow,
    build_curve,
    ccy_lower_bound,
    circle_profile,
    ellipse_profile,
    emit_report,
    lambda1_kohn,
    mode_spectra,
    random_profile,
    rayleigh_quotient,
)


class TestModeWindow:
    def test_contains_origin(self):
        modes = list(ModeWindow(2, 1).modes())
        assert (0, 0) in modes
        assert len(modes) == 5 * 3

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            ModeWindow(-1, 0)


class TestLambda1:
    def test_unit_circle(self, unit_circle):
        report = lambda1_kohn(unit_circle, ModeWindow(3, 3))
        assert report.lambda1_estimate == pytest.approx(0.5, abs=1e-4)
        assert report.argmin_mode == (0, 0)

    def test_kappa2_circle(self, circle_kappa2):
        report = lambda1_kohn(circle_kappa2, ModeWindow(3, 3))
        assert report.lambda1_estimate == pytest.approx(1.0, abs=2e-4)

    def test_oval_strict_slack(self, ellipse_03):
        report = lambda1_kohn(ellipse_03, ModeWindow(4, 4))
        assert report.lambda1_estimate < 0.524142
        assert report.slack > 0
        assert report.holds and not report.equality

    def test_window_growth_never_raises_estimate(self, ellipse_03):
        estimates = [lambda1_kohn(ellipse_03, ModeWindow(k, k)).lambda1_estimate
                     for k in (0, 1, 2, 3)]
        assert all(b <= a + 1e-12 for a, b in zip(estimates, estimates[1:]))

    @pytest.mark.parametrize("curve_name", ["unit_circle", "ellipse_03", "random_7"])
    def test_rows_equal_single_mode_solves(self, curve_name, request):
        # the batched sweep and the one-mode path agree bit for bit
        if curve_name == "random_7":
            curve = build_curve(random_profile(7), 512)
        else:
            curve = request.getfixturevalue(curve_name)
        report = lambda1_kohn(curve, ModeWindow(4, 4))
        assert len(report.modes) == 81
        for row in report.modes:
            lam0, lam1 = mode_spectra(curve, [(row.m, row.l)], k=2)[0]
            assert (row.lambda0, row.lambda1) == (lam0, lam1)

    def test_circle_radius_reciprocal(self):
        for radius in (0.5, 1.0, 2.0):
            curve = build_curve(circle_profile(radius), 512)
            report = lambda1_kohn(curve, ModeWindow(1, 1))
            assert report.lambda1_estimate * radius == pytest.approx(0.5, rel=1e-4)


class TestVerifyUpperBound:
    def test_circle_equality(self, unit_circle):
        report = lambda1_kohn(unit_circle, ModeWindow(3, 3))
        assert report.holds and report.equality
        assert report.lambda1_estimate == pytest.approx(report.bound_rhs, abs=1e-4)
        assert report.bound_rhs == pytest.approx(0.5, abs=1e-10)

    def test_kappa2_circle(self, circle_kappa2):
        report = lambda1_kohn(circle_kappa2, ModeWindow(2, 2))
        assert report.bound_rhs == pytest.approx(1.0, abs=1e-10)
        assert report.lambda1_estimate == pytest.approx(1.0, abs=2e-4)
        assert report.holds and report.equality

    def test_oval(self, ellipse_03):
        report = lambda1_kohn(ellipse_03, ModeWindow(2, 2))
        assert report.holds and not report.equality
        assert report.slack > 1e-3


class TestVerdictsRelativeToBound:
    @pytest.mark.parametrize("radius", [1e-3, 0.05])
    def test_small_circles_read_equality(self, radius):
        # at grid 512 a circle's slack is 1.25e-5 of its bound at every
        # radius, 6.27e-3 at radius 1e-3 and 1.25e-4 at 0.05: ``equality``
        # compares it with 1e-4 of the bound, not with 1e-4
        report = lambda1_kohn(build_curve(circle_profile(radius), 512), ModeWindow(1, 1))
        assert report.holds and report.equality
        assert 0.0 < report.slack < 2e-5 * report.bound_rhs

class TestBracketing:
    def test_random_curves(self):
        for seed in range(5):
            curve = build_curve(random_profile(seed), 512)
            report = lambda1_kohn(curve, ModeWindow(2, 2))
            assert report.ccy_lower - 1e-6 <= report.lambda1_estimate
            assert report.lambda1_estimate <= report.bound_rhs + 1e-6
            # the bound's proof takes the tangent components as trial
            # functions of the (0, 0) mode
            origin = next(row for row in report.modes if (row.m, row.l) == (0, 0))
            assert origin.lambda1 <= report.bound_rhs + 1e-6

    def test_ccy_circles(self, unit_circle, circle_kappa2):
        assert ccy_lower_bound(unit_circle) == pytest.approx(0.25, abs=1e-10)
        assert ccy_lower_bound(circle_kappa2) == pytest.approx(0.5, abs=1e-10)


class TestRayleighTestFunctions:
    def test_variational_floor(self, ellipse_03):
        # any admissible trial vector sits at or above the swept minimum
        report = lambda1_kohn(ellipse_03, ModeWindow(1, 1))
        weight = ellipse_03.kappa * ellipse_03.grid_spacing
        rng = np.random.default_rng(19)
        for _ in range(5):
            u = rng.standard_normal(ellipse_03.n)
            u -= np.dot(weight, u) / weight.sum()
            quotient = rayleigh_quotient(ellipse_03, (0, 0), u)
            assert quotient >= report.lambda1_estimate - 1e-9


class TestEmitReport:
    def test_json_round_trip(self, unit_circle):
        report = lambda1_kohn(unit_circle, ModeWindow(1, 1))
        blob = emit_report(report, "json")
        payload = json.loads(blob)
        assert payload["lambda1_estimate"] == pytest.approx(0.5, abs=1e-4)
        assert payload["window"] == [1, 1]
        assert len(payload["modes"]) == 9
        assert list(payload) == ["curve", "grid", "window", "modes", "lambda1_estimate",
                                 "bound_rhs", "ccy_lower", "slack", "holds", "equality",
                                 "argmin_mode", "window_caveat"]

    def test_deterministic(self, unit_circle):
        report = lambda1_kohn(unit_circle, ModeWindow(1, 1))
        assert emit_report(report, "json") == emit_report(report, "json")
        assert emit_report(report, "csv") == emit_report(report, "csv")

    def test_csv_layout(self, unit_circle):
        report = lambda1_kohn(unit_circle, ModeWindow(1, 1))
        lines = emit_report(report, "csv").decode().strip().split("\n")
        assert lines[0] == "m,l,lambda0,lambda1"
        assert len(lines) == 1 + 9 + 1
        assert lines[-1].startswith("summary,")

    def test_unknown_format(self, unit_circle):
        report = lambda1_kohn(unit_circle, ModeWindow(0, 0))
        with pytest.raises(ValueError):
            emit_report(report, "xml")
