"""End-to-end acceptance suite.

Each test prints one PASS line with the measured numbers once its
assertions hold, so `pytest -s tests/test_acceptance.py` doubles as a
verification transcript.
"""

import time

import numpy as np
import pytest

from kohnspec import (
    ModeWindow,
    build_curve,
    circle_profile,
    eig_general_tridiagonal,
    ellipse_profile,
    geometric_invariants,
    ince_matrix,
    kernel_function,
    lambda1_kohn,
    mode_spectra,
    random_profile,
    rayleigh_quotient,
    verify_E_geq_1,
)
from oracles import wh_spectrum

GRID = 512
CONVERGENCE_FLOOR = 1e-11


def _report(line):
    print(f"\n{line}")


def test_criterion_01_circle_equality():
    results = []
    for kappa in (0.5, 1.0, 2.0):
        start = time.perf_counter()
        curve = build_curve(circle_profile(1.0 / kappa), GRID)
        report = lambda1_kohn(curve, ModeWindow(8, 8))
        elapsed = time.perf_counter() - start
        rel_err = abs(report.lambda1_estimate - kappa / 2) / (kappa / 2)
        assert rel_err < 5e-4
        assert abs(report.bound_rhs - kappa / 2) < 1e-8
        assert report.equality
        assert elapsed < 60.0
        results.append((kappa, report.lambda1_estimate, rel_err, elapsed))
    _report("ACCEPTANCE 01 circle equality: PASS  "
            + "  ".join(f"kappa={k}: lam1={lam:.8f} rel_err={err:.2e} t={t:.2f}s"
                        for k, lam, err, t in results))


def test_criterion_02_strict_inequality_for_ovals():
    slacks = []
    for eps in (0.1, 0.2, 0.3):
        curve = build_curve(ellipse_profile(eps), GRID)
        report = lambda1_kohn(curve, ModeWindow(4, 4))
        closed_form = 1.0 / (2.0 * np.sqrt(1.0 - eps**2))
        assert report.holds
        assert report.slack > 0
        assert abs(report.bound_rhs - closed_form) < 1e-6
        slacks.append(report.slack)
    assert slacks[0] < slacks[1] < slacks[2]
    _report("ACCEPTANCE 02 strict inequality: PASS  slacks(eps=0.1,0.2,0.3)="
            + ", ".join(f"{s:.5f}" for s in slacks))


def test_criterion_03_bracketing_on_random_curves():
    worst_low, worst_high = np.inf, np.inf
    for seed in range(20):
        curve = build_curve(random_profile(seed), GRID)
        report = lambda1_kohn(curve, ModeWindow(2, 2))
        low_gap = report.lambda1_estimate - report.ccy_lower
        high_gap = report.bound_rhs - report.lambda1_estimate
        assert low_gap >= -1e-6
        assert high_gap >= -1e-6
        worst_low = min(worst_low, low_gap)
        worst_high = min(worst_high, high_gap)
    _report(f"ACCEPTANCE 03 bracketing: PASS  20 seeded curves, "
            f"min(lam1-ccy)={worst_low:.4f}, min(bound-lam1)={worst_high:.4f}")


def test_criterion_04_mode_kernels():
    worst_lam0, worst_quotient = 0.0, 0.0
    modes = [(m, l) for m in range(-4, 5) for l in range(-4, 5)]
    for seed in range(5):
        curve = build_curve(random_profile(seed), GRID)
        # one batch per curve
        for mode, (lam0,) in zip(modes, mode_spectra(curve, modes, k=1)):
            quotient = rayleigh_quotient(curve, mode, kernel_function(curve, mode))
            assert abs(lam0) < 1e-6
            assert quotient < 1e-8
            worst_lam0 = max(worst_lam0, abs(lam0))
            worst_quotient = max(worst_quotient, quotient)
    _report(f"ACCEPTANCE 04 mode kernels: PASS  5 curves x 81 modes, "
            f"max|lam0|={worst_lam0:.2e}, max kernel quotient={worst_quotient:.2e}")


def test_criterion_05_spectral_floor_sweep():
    verify_E_geq_1([0.3], N=10)  # warm up before timing
    a_values = np.linspace(0.0, 10.0, 41)
    start = time.perf_counter()
    result = verify_E_geq_1(a_values, N=60)
    elapsed = time.perf_counter() - start
    assert result["all_pass"]
    assert all(row["hypotheses_ok"] for row in result["table"])
    assert all(not row["in_sector"] for row in result["table"])
    assert all(row["E1"] >= 1.0 - 1e-8 for row in result["table"])
    assert elapsed < 10.0
    _report(f"ACCEPTANCE 05 spectral floor: PASS  41 couplings, N=60, "
            f"min E1={min(row['E1'] for row in result['table']):.6f}, t={elapsed:.2f}s")


def test_criterion_06_truncation_minor_fidelity():
    dense = ince_matrix(1.0, 4).to_dense()
    expected = np.array([
        [1.0, 2.0, 0.0, 0.0],
        [-1.0, 4.0, 3.0, 0.0],
        [0.0, -2.0, 9.0, 4.0],
        [0.0, 0.0, -3.0, 16.0],
    ])
    np.testing.assert_array_equal(dense, expected)
    _report("ACCEPTANCE 06 fourth-order minor fidelity: PASS  entry-for-entry")


def test_criterion_07_cross_method_oracle():
    n = 1024
    curve = build_curve(circle_profile(1.0), n)
    from_modes = 2.0 * mode_spectra(curve, [(1, 0)], k=2)[0, 1]
    eigs = np.asarray(eig_general_tridiagonal(ince_matrix(1.0, 60)))
    from_truncation = eigs[np.argmin(eigs.real)].real
    from_direct = wh_spectrum(1.0, n=n, k=2)[1]
    assert abs(from_modes - from_truncation) < 1e-4
    assert abs(from_direct - from_truncation) < 1e-4
    assert abs(from_modes - from_direct) < 1e-4
    _report(f"ACCEPTANCE 07 cross-method oracle: PASS  "
            f"2*lam1={from_modes:.8f}, truncation={from_truncation:.8f}, "
            f"direct={from_direct:.8f}")


def test_criterion_08_truncation_convergence():
    lines = []
    for a in (1.0, 5.0):
        E1 = [verify_E_geq_1([a], N=N)["table"][0]["E1"] for N in (10, 20, 40, 80)]
        diffs = [abs(e2 - e1) for e1, e2 in zip(E1, E1[1:])]
        for prev, cur in zip(diffs, diffs[1:]):
            assert cur < prev or cur < CONVERGENCE_FLOOR
        lines.append(f"a={a}: diffs=" + ",".join(f"{d:.2e}" for d in diffs))
    _report("ACCEPTANCE 08 truncation convergence: PASS  " + "  ".join(lines))


def test_criterion_09_discretization_order():
    estimates = {}
    for n in (128, 256, 512):
        curve = build_curve(circle_profile(1.0), n)
        estimates[n] = lambda1_kohn(curve, ModeWindow(1, 1)).lambda1_estimate
    ratio = (estimates[256] - estimates[128]) / (estimates[512] - estimates[256])
    assert 3.0 < ratio < 5.0
    errors = {n: abs(est - 0.5) for n, est in estimates.items()}
    assert 3.0 < errors[128] / errors[256] < 5.0
    assert 3.0 < errors[256] / errors[512] < 5.0
    _report(f"ACCEPTANCE 09 discretization order: PASS  "
            f"difference ratio={ratio:.3f}, error ratios="
            f"{errors[128]/errors[256]:.3f}, {errors[256]/errors[512]:.3f}")


def test_criterion_10_geometric_identities():
    fixtures = [circle_profile(2.0), circle_profile(1.0), circle_profile(0.5),
                ellipse_profile(0.1), ellipse_profile(0.2), ellipse_profile(0.3)]
    fixtures += [random_profile(seed) for seed in range(3)]
    worst_turn, worst_vol, worst_mean = 0.0, 0.0, 0.0
    for profile in fixtures:
        inv = geometric_invariants(build_curve(profile, GRID))
        turn_err = abs(inv["total_curvature"] - 2 * np.pi)
        vol_err = abs(inv["volume"] / (8 * np.pi**3) - 1.0)
        mean_err = abs(inv["mean_webster"] / inv["bound_rhs"] - 1.0)
        assert turn_err < 1e-8
        assert vol_err < 1e-6
        assert mean_err < 1e-6
        worst_turn = max(worst_turn, turn_err)
        worst_vol = max(worst_vol, vol_err)
        worst_mean = max(worst_mean, mean_err)
    _report(f"ACCEPTANCE 10 geometric identities: PASS  {len(fixtures)} fixtures, "
            f"max|turning-2pi|={worst_turn:.1e}, max volume rel err={worst_vol:.1e}, "
            f"max mean-curvature rel err={worst_mean:.1e}")
