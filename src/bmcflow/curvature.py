"""Scalar functionals of the flow: mean curvature, energies, multiplier bounds.

The boundary dimension is fixed at n = 2: the boundary is S^2 and the
ball is B^3.  The paper states every formula for general n, with

    a_n = 2/(n-1),   2# = 2n/(n-1),   omega_n = 2 pi^{(n+1)/2} / Gamma((n+1)/2)

(a_n the DtN weight in the curvature, 2# the critical trace exponent,
omega_n the area of S^n); the module constants below are their n = 2
values, and the docstrings keep the paper's general-n exponents.
Spherical means are written mean(.) throughout; dmu_g denotes the
evolving boundary measure u^{2#} dmu.
"""

from dataclasses import dataclass

import numpy as np

from .errors import AdmissibilityError
from .spectral import BoundaryField, dtn_apply, synthesize

# The n = 2 values of the formulas above.
N = 2
A_N = 2.0
TWO_SHARP = 4.0
OMEGA_N = 4.0 * np.pi

# The a priori bound on |lambda'| that the frozen barrier gamma assumes.
LAMBDA0 = 10.0
# |mean(f w)| at or below this multiple of mean(|f| w) counts as zero:
# quadrature roundoff of a mean that vanishes in the continuum is about
# 1e-16 of mean(|f| w), while any mean that matters is far above 1e-12.
_VANISHING_MEAN_REL = 1e-12


@dataclass
class EnergyReport:
    E: float
    denom: float
    E_f: float
    lam: float


@dataclass
class FlowBounds:
    lambda1: float
    lambda2: float
    Lambda0: float
    gamma: float
    c_star: float
    sigma: float
    beta: float
    condition_ii_ok: bool
    f_mean: float
    f_max: float
    f_absmax: float
    min_H0: float


def require_positive(values, what):
    """Raise AdmissibilityError with condition "positivity" when a node value of the field is not positive."""
    if values.min() <= 0.0:
        node = np.unravel_index(np.argmin(values), values.shape)
        raise AdmissibilityError(f"{what} is not positive at node {node}", condition="positivity")


def weighted_mean_sign(grid, fv, weight=1.0):
    """(mean(f w), its sign in {-1, 0, 1}) with roundoff deciding no sign; fv holds f at the nodes.

    The sign is 0 when |mean(f w)| <= 1e-12 mean(|f| w); f may change
    sign, so its weighted mean can vanish exactly (f = z, w = 1), and
    quadrature then returns a few 1e-17 of either sign.  Every
    admissibility test on an f-weighted volume goes through here.
    """
    m, m_abs = grid.integrate(np.stack((fv * weight, np.abs(fv) * weight)))
    if abs(m) <= _VANISHING_MEAN_REL * m_abs:
        return m, 0
    return m, 1 if m > 0.0 else -1


def volume(u):
    """mean(u^{2#}), the conserved boundary volume of the conformal metric."""
    return u.grid.integrate(u.values ** TWO_SHARP)


def mean_curvature_values(u_values, dtn_values):
    """H = u^{-(2#-1)} (a_n * DtN(u) + u) on the grid, from the values of u and of DtN(u)."""
    return (A_N * dtn_values + u_values) * u_values ** -(TWO_SHARP - 1.0)


def mean_curvature(u):
    """Boundary mean curvature of the metric with conformal factor u; DtN(u) is applied spectrally."""
    require_positive(u.values, "conformal factor")
    H = mean_curvature_values(u.values, synthesize(dtn_apply(u.coeffs), u.grid))
    return BoundaryField(u.grid, values=H)


def total_energy(u):
    """Spectral form of the boundary energy: sum (a_n l + 1) c_{l,m}^2."""
    c = u.coeffs
    ls = np.arange(c.shape[0], dtype=float)[:, None]
    return float(np.sum((A_N * ls + 1.0) * c**2))


def energy_functional(u, fv):
    """EnergyReport for (u, f), f given by its node values fv: E, the f-weighted volume, E_f, lambda.

    E_f = E / denom^{(n-1)/n} and lambda = E / denom, defined only on
    the admissible set where denom = mean(f u^{2#}) is positive.
    """
    require_positive(u.values, "conformal factor")
    E = total_energy(u)
    denom, sign = weighted_mean_sign(u.grid, fv, u.values ** TWO_SHARP)
    if sign <= 0:
        raise AdmissibilityError(
            f"f-weighted volume is {denom:.3e}; u lies outside the admissible set for this f",
            condition="positive f-weighted volume",
        )
    E_f = E / denom ** ((N - 1.0) / N)
    return EnergyReport(E=E, denom=denom, E_f=E_f, lam=E / denom)


def _residual(u, fv, lam, H):
    """(lam f - H, u^{2#}): the flow's residual and the density of dmu_g; H holds node values or is None."""
    if H is None:
        H = mean_curvature(u).values
    return lam * fv - H, u.values ** TWO_SHARP


def lp_residual(u, fv, lam, p, H=None):
    """mean(|lam f - H|^p u^{2#}); p = 2 gives the dissipation rate F2.  fv and H hold node values."""
    r, w = _residual(u, fv, lam, H)
    return u.grid.integrate(np.abs(r) ** p * w)


def lambda_prime(u, fv, lam, H=None):
    """Time derivative of the volume-preserving multiplier; fv and H hold node values.

    lambda' = -(mean(f dmu_g))^{-1} [ (n-1)/2 * mean((lam f - H)^2 dmu_g)
              + 1/2 * mean(lam f (lam f - H) dmu_g) ].
    """
    r, w = _residual(u, fv, lam, H)
    denomf, sign = weighted_mean_sign(u.grid, fv, w)
    if sign == 0:
        raise AdmissibilityError("f-weighted volume vanishes; multiplier derivative undefined",
                                 condition="positive f-weighted volume")
    term1, term2 = u.grid.integrate(np.stack((r**2 * w, lam * fv * r * w)))
    return -((N - 1.0) / 2.0 * term1 + 0.5 * term2) / denomf


def barrier_gamma(min_H0, lambda2, f_absmax, Lambda0):
    """gamma = min(min H0 - lambda2 max|f|, -sqrt((4/3)(lambda2 max|f|)^2 + (8/3) Lambda0 max|f|))."""
    l2m = lambda2 * f_absmax
    return min(min_H0 - l2m, -np.sqrt((4.0 / 3.0) * l2m**2 + (8.0 / 3.0) * Lambda0 * f_absmax))


def flow_bounds(u0, f, H0):
    """Frozen t=0 bounds for u0, its mean curvature H0 at the nodes and the closed-form target f.

    lambda1 = (max f)^{-1} vol^{-1/n},
    lambda2 = E_f[u0]^{n/(n-1)} vol^{-1/n},
    gamma   = barrier_gamma(min H0, lambda2, max|f|, LAMBDA0),
    c_star  = -lambda2 max|f| + gamma,
    sigma   = (2^{1/n} mean(f)/max|f| - 1)/2,
    beta    = (1+sigma)^{(n-1)/n} mean(f)^{(1-n)/n}.

    mean(f) and E_f are grid quadratures of f at the nodes; max f and
    max|f| are f.extrema(), widened to cover the node values.
    """
    fv = f(u0.grid.nodes())
    f_mean, sign = weighted_mean_sign(u0.grid, fv)
    if sign <= 0:
        raise AdmissibilityError(f"mean of f is {f_mean:.3e}, must be positive",
                                 condition="positive mean")
    fmin, fmax = f.extrema()
    fmin, fmax = min(fmin, float(fv.min())), max(fmax, float(fv.max()))
    f_absmax = max(abs(fmin), abs(fmax))
    if fmax <= 0.0:
        raise AdmissibilityError("max f must be positive", condition="positive maximum")
    vol = volume(u0)
    report = energy_functional(u0, fv)
    lambda1 = vol ** (-1.0 / N) / fmax
    lambda2 = report.E_f ** (N / (N - 1.0)) * vol ** (-1.0 / N)
    min_H0 = float(H0.min())
    gamma = barrier_gamma(min_H0, lambda2, f_absmax, LAMBDA0)
    c_star = -lambda2 * f_absmax + gamma
    sigma = 0.5 * (2.0 ** (1.0 / N) * f_mean / f_absmax - 1.0)
    beta = (1.0 + sigma) ** ((N - 1.0) / N) * f_mean ** ((1.0 - N) / N) if sigma > -1.0 else np.nan
    return FlowBounds(
        lambda1=lambda1,
        lambda2=lambda2,
        Lambda0=LAMBDA0,
        gamma=gamma,
        c_star=c_star,
        sigma=sigma,
        beta=beta,
        condition_ii_ok=bool(sigma > 0.0),
        f_mean=f_mean,
        f_max=fmax,
        f_absmax=f_absmax,
        min_H0=min_H0,
    )
