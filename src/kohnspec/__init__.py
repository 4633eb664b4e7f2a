"""Spectral bounds for torus-invariant hypersurfaces via their generating curves.

The library reduces the Laplacian of a torus-invariant hypersurface to a
two-parameter family of periodic one-dimensional operators indexed by the
Fourier modes of the torus, computes their spectra, and verifies the sharp
upper bound of the first positive eigenvalue by the curvature energy
(1/4pi) * integral kappa^2 ds of the generating curve, including the
constant-curvature equality case through the Whittaker-Hill and Ince
reductions and a tridiagonal sector-exclusion certificate.
"""

from .curve import (
    ClosureViolated,
    GeneratingCurve,
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
from .eigen import (
    DenseSymmetric,
    NoConvergence,
    SectorRegion,
    Tridiagonal,
    char_poly_tridiagonal,
    eig_dense_symmetric,
    eig_general_tridiagonal,
    eig_periodic_sym_tridiagonal,
    point_in_sector,
    sector_exclusion_certificate,
)
from .modes import (
    GridTooCoarse,
    ModeIndex,
    assemble,
    kernel_function,
    mode_spectra,
    mode_spectrum,
    potential,
    rayleigh_quotient,
)
from .spectrum import (
    ModeWindow,
    SpectrumReport,
    ccy_lower_bound,
    emit_report,
    lambda1_kohn,
    rayleigh_test_functions,
)
from .whittakerhill import (
    CertificateFailed,
    WHParameters,
    ince_eigenvalues,
    ince_matrix,
    mode_to_wh,
    truncation_convergence,
    verify_E_geq_1,
    wh_spectrum,
)

__version__ = "0.1.0"
