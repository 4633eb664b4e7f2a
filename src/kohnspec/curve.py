"""Closed strictly convex plane curves and their geometric invariants.

A curve can be supplied in two ways: as a radius-of-curvature profile
rho(phi) = 1/kappa expressed in the turning-angle variable phi, or as raw
curvature samples on a uniform arc-length grid.  The turning-angle encoding
makes both admissibility constraints elementary: strict convexity is
pointwise positivity of rho, and closure of the curve is the vanishing of
the first Fourier harmonic of rho (the tangent integrates to zero over one
full turn exactly when that harmonic is absent).

Profiles are finite trigonometric polynomials, so arc length, tangent and
position all have closed-form antiderivatives in phi.  Construction
therefore samples the exact curve: the turning angle at each arc-length
node is found by Newton iteration on the exact s(phi), and every stored
field (kappa, tangent, position) is evaluated analytically at machine
precision.  Quadratures of smooth periodic data on the uniform grid then
converge spectrally, which is what the tight tolerances on the global
identities (total curvature, volume, mean curvature) rely on.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

TWO_PI = 2.0 * np.pi

#: Relative tolerance for the position-closure test.
DEFAULT_CLOSURE_TOL = 1e-8

#: Absolute tolerance on the first Fourier harmonic of a profile.
FIRST_HARMONIC_TOL = 1e-12

#: Smallest radius of curvature of a profile: above it the curvature, its
#: square and the mode operators' entries, of order grid^2 / rho, stay far
#: below the overflow threshold.  A sampled curve's kappa_i is at most its
#: reciprocal, and h^2 kappa_i at least it (h the grid spacing): its
#: operators' entries are of order 1 / (h^2 kappa_i).
MIN_RHO = 2.0**-400

#: Largest grid: building a curve holds about 650 bytes per grid point
#: (a dense table of 8 x grid turning angles and its arc lengths), so
#: this keeps it under 200 MB.
MAX_GRID = 2**18


class NonPositiveCurvature(ValueError):
    """The radius-of-curvature profile (or a curvature sample) is not positive."""


class ClosureViolated(ValueError):
    """The profile's first Fourier harmonic does not vanish."""


class NotClosed(ValueError):
    """Curvature samples do not integrate to a closed curve."""


# ---------------------------------------------------------------------------
# finite trigonometric series sum_k c_k e^{i k phi} with real values
# ---------------------------------------------------------------------------


class _TrigSeries:
    """Finite Fourier series with complex coefficients on k = kmin..kmax."""

    __slots__ = ("coeffs", "kmin")

    def __init__(self, coeffs, kmin: int):
        self.coeffs = np.asarray(coeffs, dtype=complex)
        self.kmin = int(kmin)

    @classmethod
    def from_cos_sin(cls, cos_coeffs, sin_coeffs) -> "_TrigSeries":
        jmax = max(len(cos_coeffs) - 1, len(sin_coeffs), 0)
        coeffs = np.zeros(2 * jmax + 1, dtype=complex)
        coeffs[jmax] = cos_coeffs[0] if len(cos_coeffs) else 0.0
        for j in range(1, len(cos_coeffs)):
            coeffs[jmax + j] += cos_coeffs[j] / 2.0
            coeffs[jmax - j] += cos_coeffs[j] / 2.0
        for j in range(1, len(sin_coeffs) + 1):
            coeffs[jmax + j] += sin_coeffs[j - 1] / 2.0j
            coeffs[jmax - j] -= sin_coeffs[j - 1] / 2.0j
        return cls(coeffs, -jmax)

    def __call__(self, phi):
        phi = np.asarray(phi, dtype=float)
        out = np.zeros(phi.shape, dtype=complex)
        for idx, c in enumerate(self.coeffs):
            if c != 0.0:
                out += c * np.exp(1j * (self.kmin + idx) * phi)
        return out.real

    def shifted(self, dk: int) -> "_TrigSeries":
        """Multiply by e^{i dk phi} (shift every harmonic by dk)."""
        return _TrigSeries(self.coeffs, self.kmin + dk)

    def scaled(self, z) -> "_TrigSeries":
        return _TrigSeries(self.coeffs * z, self.kmin)

    def plus(self, other: "_TrigSeries") -> "_TrigSeries":
        kmin = min(self.kmin, other.kmin)
        kmax = max(self.kmin + len(self.coeffs), other.kmin + len(other.coeffs))
        coeffs = np.zeros(kmax - kmin, dtype=complex)
        coeffs[self.kmin - kmin : self.kmin - kmin + len(self.coeffs)] += self.coeffs
        coeffs[other.kmin - kmin : other.kmin - kmin + len(other.coeffs)] += other.coeffs
        return _TrigSeries(coeffs, kmin)

    @property
    def mean(self) -> float:
        idx = -self.kmin
        if 0 <= idx < len(self.coeffs):
            return float(self.coeffs[idx].real)
        return 0.0

    def antiderivative(self):
        """Split the antiderivative as rate*phi + periodic part.

        Returns (rate, series) where rate is the mean of the integrand.
        """
        coeffs = np.zeros_like(self.coeffs)
        for idx in range(len(self.coeffs)):
            k = self.kmin + idx
            if k != 0:
                coeffs[idx] = self.coeffs[idx] / (1j * k)
        return self.mean, _TrigSeries(coeffs, self.kmin)


# ---------------------------------------------------------------------------
# domain types
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RadiusOfCurvatureProfile:
    """rho(phi) = c_0 + sum_j (c_j cos j phi + d_j sin j phi), phi in [0, 2pi).

    ``cos_coeffs`` holds (c_0, c_1, ...), ``sin_coeffs`` holds (d_1, ...).
    A profile describes a closed strictly convex curve when rho > 0
    everywhere and c_1 = d_1 = 0.
    """

    cos_coeffs: tuple
    sin_coeffs: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "cos_coeffs", tuple(float(c) for c in self.cos_coeffs))
        object.__setattr__(self, "sin_coeffs", tuple(float(d) for d in self.sin_coeffs))
        if not self.cos_coeffs:
            raise ValueError("profile needs at least the constant coefficient c_0")
        for name in ("cos_coeffs", "sin_coeffs"):
            for j, c in enumerate(getattr(self, name)):
                if not np.isfinite(c):
                    raise ValueError(f"profile coefficient {name}[{j}] must be finite, got {c!r}")

    def series(self) -> _TrigSeries:
        return _TrigSeries.from_cos_sin(self.cos_coeffs, self.sin_coeffs)

    def first_harmonic(self) -> tuple:
        c1 = self.cos_coeffs[1] if len(self.cos_coeffs) > 1 else 0.0
        d1 = self.sin_coeffs[0] if self.sin_coeffs else 0.0
        return c1, d1


@dataclass(frozen=True)
class GeneratingCurve:
    """A closed positively curved curve sampled on a uniform arc-length grid.

    Fields: total length, arc-length nodes ``s``, curvature ``kappa``, unit
    tangent components ``(q, p)`` and position ``(xi, eta)``, all arrays of
    length n.  Instances are immutable; the arrays are marked read-only.
    """

    length: float
    s: np.ndarray
    kappa: np.ndarray
    q: np.ndarray
    p: np.ndarray
    xi: np.ndarray
    eta: np.ndarray

    def __post_init__(self):
        for name in ("s", "kappa", "q", "p", "xi", "eta"):
            arr = np.asarray(getattr(self, name), dtype=float)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        if self.length <= 0:
            raise ValueError("curve length must be positive")

    @property
    def n(self) -> int:
        return len(self.s)

    @property
    def grid_spacing(self) -> float:
        return self.length / self.n


# ---------------------------------------------------------------------------
# profile presets
# ---------------------------------------------------------------------------


def circle_profile(radius: float = 1.0) -> RadiusOfCurvatureProfile:
    if radius <= 0:
        raise NonPositiveCurvature("circle radius must be positive")
    return RadiusOfCurvatureProfile((radius,))


def ellipse_profile(eps: float) -> RadiusOfCurvatureProfile:
    """Oval profile rho = 1 + eps*cos(2 phi); requires |eps| < 1."""
    if abs(eps) >= 1:
        raise NonPositiveCurvature("second-harmonic amplitude must satisfy |eps| < 1")
    return RadiusOfCurvatureProfile((1.0, 0.0, float(eps)))


#: Highest harmonic and coefficient amplitude of ``random_profile``.
_RANDOM_HARMONICS = 5
_RANDOM_AMPLITUDE = 0.3


def random_profile(seed: int) -> RadiusOfCurvatureProfile:
    """Seeded random profile with vanishing first harmonic and rho > 0.

    Coefficients for j = 2..5 are drawn uniformly from [-0.3, 0.3] and
    damped by 1/j^2, so |c_j cos j phi + d_j sin j phi| <= 0.3 sqrt(2) / j^2
    and rho >= 1 - 0.3 sqrt(2) (1/4 + 1/9 + 1/16 + 1/25) > 0.803.
    """
    rng = np.random.default_rng(seed)
    cos_c = [1.0, 0.0]
    sin_c = [0.0]
    for j in range(2, _RANDOM_HARMONICS + 1):
        cos_c.append(_RANDOM_AMPLITUDE * rng.uniform(-1.0, 1.0) / j**2)
        sin_c.append(_RANDOM_AMPLITUDE * rng.uniform(-1.0, 1.0) / j**2)
    return RadiusOfCurvatureProfile(tuple(cos_c), tuple(sin_c))


# ---------------------------------------------------------------------------
# constructors
# ---------------------------------------------------------------------------


def _validate_grid(n) -> int:
    if isinstance(n, bool) or not isinstance(n, numbers.Integral) or not 16 <= n <= MAX_GRID \
            or n % 2:
        raise ValueError(f"grid size must be an even integer from 16 to {MAX_GRID}, got {n!r}")
    return int(n)


def build_curve(profile: RadiusOfCurvatureProfile, n: int) -> GeneratingCurve:
    """Construct the arc-length sampled curve described by a profile.

    The arc length s(phi) is the exact antiderivative of rho, inverted by
    Newton iteration at the n uniform arc-length targets; curvature,
    tangent and position are then evaluated in closed form.  The position
    is centered at its sample mean (a rigid translation, irrelevant to
    every spectral quantity downstream).  A profile too large to sample
    (``_check_magnitude``) or with rho below MIN_RHO is a ValueError.
    """
    n = _validate_grid(n)
    c1, d1 = profile.first_harmonic()
    if abs(c1) + abs(d1) > FIRST_HARMONIC_TOL:
        raise ClosureViolated(
            f"first Fourier harmonic of rho must vanish; got c1={c1!r}, d1={d1!r}")
    _check_magnitude(profile)

    rho = profile.series()
    dense = max(8 * n, 2048)
    phi_dense = np.linspace(0.0, TWO_PI, dense + 1)
    rho_dense = rho(phi_dense)
    low = rho_dense.min()
    if low <= 0.0:
        raise NonPositiveCurvature(f"rho must be positive; min over dense grid is {low:.6g}")
    if low < MIN_RHO:
        raise ValueError(f"rho must be at least 2^-400; min over dense grid is {low:.6g}")

    rate, s_per = rho.antiderivative()
    length = TWO_PI * rate
    s_per0 = float(s_per(0.0))

    def arc(phi):
        return rate * phi + s_per(phi) - s_per0

    s_grid = np.arange(n) * (length / n)
    phi = np.interp(s_grid, arc(phi_dense), phi_dense)
    for _ in range(8):
        resid = arc(phi) - s_grid
        phi = phi - resid / rho(phi)
        if np.max(np.abs(resid)) < 1e-14 * max(length, 1.0):
            break

    kappa = 1.0 / rho(phi)
    # tangent angle is phi + pi/2, so the unit circle reproduces
    # q = -sin(s), p = cos(s)
    q = -np.sin(phi)
    p = np.cos(phi)

    # xi' = -rho sin phi and eta' = rho cos phi have the means -d1/2 and
    # c1/2, which the first-harmonic check above makes negligible
    up, down = rho.shifted(1), rho.shifted(-1)
    xi_per = up.plus(down.scaled(-1.0)).scaled(0.5j).antiderivative()[1]
    eta_per = up.plus(down).scaled(0.5).antiderivative()[1]
    xi = xi_per(phi)
    eta = eta_per(phi)
    xi = xi - xi.mean()
    eta = eta - eta.mean()

    curve = GeneratingCurve(length, s_grid, kappa, q, p, xi, eta)
    _check_total_turning(curve)
    return curve


def _check_magnitude(profile: RadiusOfCurvatureProfile) -> None:
    """ValueError naming the largest coefficient of a profile too large to sample.

    rho, the arc length and the positions are all at most 2*pi times the
    sum of the coefficients' magnitudes, so that bound must be finite.
    """
    fields = {f"{name}[{j}]": c for name in ("cos_coeffs", "sin_coeffs")
              for j, c in enumerate(getattr(profile, name))}
    if not math.isfinite(math.tau * sum(map(abs, fields.values()))):
        field = max(fields, key=lambda key: abs(fields[key]))
        raise ValueError(f"profile is too large: 2*pi times the sum of |cos_coeffs| and "
                         f"|sin_coeffs| overflows (largest: {field} = {fields[field]!r})")


def curve_from_curvature_samples(kappa_samples, length: float) -> GeneratingCurve:
    """Build a curve from curvature samples on a uniform arc-length grid.

    The tangent angle is the cumulative trapezoidal integral of kappa and
    the position the cumulative integral of the tangent.  Raises NotClosed
    when the total turning is not 2*pi (tolerance 1e-8) or when the
    reconstructed position fails to return to its start (tolerance
    DEFAULT_CLOSURE_TOL times the length), and before either when one cell
    would turn by more than 4*pi.  A sample above 1 / MIN_RHO, or with h^2
    kappa below MIN_RHO, h = length / n, is a ValueError naming it.
    """
    kappa = np.asarray(kappa_samples, dtype=float)
    n = _validate_grid(len(kappa))
    length = float(length)
    if not (np.isfinite(length) and length > 0):
        raise ValueError(f"length must be finite and positive, got {length!r}")
    bad = np.flatnonzero(~np.isfinite(kappa))
    if len(bad):
        raise ValueError(f"curvature samples must be finite; sample {bad[0]} is "
                         f"{float(kappa[bad[0]])!r}")
    if kappa.min() <= 0.0:
        raise NonPositiveCurvature(
            f"curvature samples must be positive; min is {kappa.min():.6g}")
    h = length / n
    # h * h first: on builtin floats it overflows to inf without a warning
    bad = np.flatnonzero((kappa > 1.0 / MIN_RHO) | (kappa * (h * h) < MIN_RHO))
    if len(bad):
        raise ValueError(
            f"kappa_samples: sample {bad[0]} = {float(kappa[bad[0]])!r} is out of range; each "
            f"must be at most 2^400 and, times h^2 = (length / {n})^2 = {h * h!r}, at least "
            f"2^-400")
    bad = np.flatnonzero(kappa > 2.0 * TWO_PI / h)  # h >= 2^-400 here
    if len(bad):
        raise NotClosed(f"kappa_samples: sample {bad[0]} alone turns "
                        f"{float(kappa[bad[0]]) * h:.12g} over its cell, more than 2*pi")

    kap_ext = np.append(kappa, kappa[0])
    phi = np.concatenate([[0.0], np.cumsum(0.5 * h * (kap_ext[1:] + kap_ext[:-1]))])
    total_turning = phi[-1]
    if abs(total_turning - TWO_PI) > 1e-8:
        raise NotClosed(
            f"total turning is {total_turning:.12g}, expected 2*pi")

    q_ext = -np.sin(phi)
    p_ext = np.cos(phi)
    xi_ext = np.concatenate([[0.0], np.cumsum(0.5 * h * (q_ext[1:] + q_ext[:-1]))])
    eta_ext = np.concatenate([[0.0], np.cumsum(0.5 * h * (p_ext[1:] + p_ext[:-1]))])

    tol = DEFAULT_CLOSURE_TOL * length
    gap = abs(xi_ext[-1] - xi_ext[0]) + abs(eta_ext[-1] - eta_ext[0])
    if gap > tol:
        raise NotClosed(f"position closure gap {gap:.3e} exceeds tolerance {tol:.3e}")

    s_grid = np.arange(n) * h
    xi = xi_ext[:-1] - xi_ext[:-1].mean()
    eta = eta_ext[:-1] - eta_ext[:-1].mean()
    return GeneratingCurve(length, s_grid, kappa, q_ext[:-1], p_ext[:-1], xi, eta)


def _check_total_turning(curve: GeneratingCurve) -> None:
    total = periodic_quadrature(curve.kappa, curve.length)
    if not abs(total / TWO_PI - 1.0) <= 1e-8:  # NaN fails too
        # a profile turns by exactly 2*pi: the gap is the grid's quadrature error
        raise NotClosed(f"total curvature {total:.12g} deviates from 2*pi at grid {curve.n}; "
                        f"a finer grid resolves the curve")


# ---------------------------------------------------------------------------
# quadrature and invariants
# ---------------------------------------------------------------------------


def periodic_quadrature(samples, length: float):
    """Trapezoidal rule on the periodic uniform grid: (length/n) * sum.

    Spectrally accurate for smooth periodic integrands.  Sums over the last
    axis: a float for one row of samples, an array for a stack of rows.
    """
    samples = np.asarray(samples, dtype=float)
    if samples.ndim < 1 or samples.shape[-1] < 2:
        raise ValueError("need at least two samples")
    total = length / samples.shape[-1] * samples.sum(axis=-1)
    return float(total) if samples.ndim == 1 else total


def webster_scalar_curvature(curve: GeneratingCurve) -> np.ndarray:
    """Scalar curvature samples kappa/2 - (log kappa)''/(2 kappa).

    The second derivative uses periodic central differences on the uniform
    arc-length grid, matching the order of the operator discretizations.
    """
    f = np.log(curve.kappa)
    h = curve.grid_spacing
    fpp = (np.roll(f, -1) - 2.0 * f + np.roll(f, 1)) / h**2
    return curve.kappa / 2.0 - fpp / (2.0 * curve.kappa)


def geometric_invariants(curve: GeneratingCurve) -> dict:
    """Global invariants: length, total curvature, volume, curvature energy.

    ``volume`` is 4*pi^2 * integral of kappa ds (equal to 8*pi^3 for every
    closed curve), ``bound_rhs`` is (1/4pi) * integral of kappa^2 ds, and
    ``mean_webster`` is the volume average of the scalar curvature, which
    coincides with bound_rhs because the (log kappa)'' term integrates to
    zero (exactly so for the discrete central difference).
    """
    total_curvature = periodic_quadrature(curve.kappa, curve.length)
    kappa_sq = periodic_quadrature(curve.kappa**2, curve.length)
    weighted_R = periodic_quadrature(webster_scalar_curvature(curve) * curve.kappa,
                                     curve.length)
    return {
        "length": curve.length,
        "total_curvature": total_curvature,
        "volume": 4.0 * np.pi**2 * total_curvature,
        "bound_rhs": kappa_sq / (4.0 * np.pi),
        "mean_webster": weighted_R / total_curvature,
    }


# ---------------------------------------------------------------------------
# external curve-spec format
# ---------------------------------------------------------------------------


def profile_to_dict(profile: RadiusOfCurvatureProfile, grid: int) -> dict:
    return {
        "rho": {"cos": list(profile.cos_coeffs), "sin": list(profile.sin_coeffs)},
        "grid": int(grid),
    }


def _spec_number(value, field: str) -> float:
    """A number of a curve spec as a float; ValueError naming ``field`` otherwise."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{field} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise ValueError(f"{field} is out of the floating-point range") from None


def _spec_numbers(value, field: str) -> list:
    """A list of numbers of a curve spec as floats; ValueError naming ``field`` otherwise."""
    if not isinstance(value, (list, tuple)):
        raise ValueError(f"{field} must be a list of numbers, got {type(value).__name__}")
    return [_spec_number(x, f"{field}[{j}]") for j, x in enumerate(value)]


def _only_keys(obj: dict, name: str, keys) -> None:
    """ValueError naming the first key of ``obj`` outside ``keys``."""
    for key in obj:
        if key not in keys:
            allowed = " and ".join(f'"{k}"' for k in keys)
            raise ValueError(f'{name} takes only {allowed}; it does not read "{key}"')


def curve_from_spec(data: dict, grid: int | None = None) -> GeneratingCurve:
    """Build a curve from the JSON curve-spec dictionary.

    Accepted forms: {"rho": {"cos": [c0, ...], "sin": [d1, ...]}, "grid": n}
    or {"kappa_samples": [...], "length": l}.  ``grid`` overrides the
    profile's grid; a sampled spec's grid is its sample count, so passing
    ``grid`` with it is a ValueError.  So is every field of the wrong type,
    and every key its form does not read, which the message names.
    """
    if not isinstance(data, dict):
        raise ValueError(f"curve spec must be a JSON object, got {type(data).__name__}")
    if "rho" in data:
        _only_keys(data, 'a "rho" curve spec', ("rho", "grid"))
        rho = data["rho"]
        if not isinstance(rho, dict) or "cos" not in rho:
            raise ValueError('"rho" must be an object with a "cos" list')
        _only_keys(rho, '"rho"', ("cos", "sin"))
        profile = RadiusOfCurvatureProfile(tuple(_spec_numbers(rho["cos"], '"cos"')),
                                           tuple(_spec_numbers(rho.get("sin", []), '"sin"')))
        n = grid if grid is not None else data.get("grid", 512)
        return build_curve(profile, n)
    if "kappa_samples" in data:
        _only_keys(data, 'a "kappa_samples" curve spec', ("kappa_samples", "length"))
        if grid is not None:
            raise ValueError("grid applies only to rho specs; a kappa_samples "
                             "spec's sample count is its grid")
        if "length" not in data:
            raise ValueError('sampled curve spec needs a "length" field')
        return curve_from_curvature_samples(_spec_numbers(data["kappa_samples"], '"kappa_samples"'),
                                            _spec_number(data["length"], '"length"'))
    raise ValueError('curve spec must contain either "rho" or "kappa_samples"')
