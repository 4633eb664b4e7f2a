"""Spectral bounds for torus-invariant hypersurfaces via their generating curves.

The library reduces the Laplacian of a torus-invariant hypersurface to a
two-parameter family of periodic one-dimensional operators indexed by the
Fourier modes of the torus, computes their spectra, and verifies the sharp
upper bound of the first positive eigenvalue by the curvature energy
(1/4pi) * integral kappa^2 ds of the generating curve, including the
constant-curvature equality case through the Whittaker-Hill and Ince
reductions and a tridiagonal sector-exclusion certificate.
"""

import importlib

#: Public names, by the submodule that defines them.  They are imported on
#: first use (PEP 562), so that each command imports only the modules it
#: runs.
_EXPORTS = {
    "curve": (
        "ClosureViolated",
        "GeneratingCurve",
        "NonPositiveCurvature",
        "NotClosed",
        "RadiusOfCurvatureProfile",
        "build_curve",
        "circle_profile",
        "curve_from_curvature_samples",
        "curve_from_spec",
        "ellipse_profile",
        "geometric_invariants",
        "periodic_quadrature",
        "random_profile",
        "webster_scalar_curvature",
    ),
    "eigen": (
        "GridTooCoarse",
    ),
    "modes": (
        "ModeIndex",
        "kernel_function",
        "mode_spectra",
        "rayleigh_quotient",
    ),
    "spectrum": (
        "ModeWindow",
        "SpectrumReport",
        "ccy_lower_bound",
        "emit_report",
        "lambda1_kohn",
    ),
    "whittakerhill": (
        "CertificateFailed",
        "NoConvergence",
        "SectorRegion",
        "Tridiagonal",
        "eig_general_tridiagonal",
        "ince_matrix",
        "point_in_sector",
        "sector_exclusion_certificate",
        "verify_E_geq_1",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)

__version__ = "0.1.0"


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value
