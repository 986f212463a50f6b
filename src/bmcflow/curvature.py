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

from .errors import AdmissibilityError, PositivityError
from .spectral import BoundaryField, dtn_apply, synthesize

# The n = 2 values of the formulas above.
N = 2
A_N = 2.0
TWO_SHARP = 4.0
OMEGA_N = 4.0 * np.pi

_TWO_SHARP_VOL_TOL = 1e-8
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


def _require_positive(values, what="field"):
    if values.min() <= 0.0:
        node = np.unravel_index(np.argmin(values), values.shape)
        raise PositivityError(f"{what} is not positive at node {node}", node=node)


def _as_values(f):
    return f.values if isinstance(f, BoundaryField) else np.asarray(f, dtype=float)


def weighted_mean_sign(grid, f, weight=1.0):
    """(mean(f w), its sign in {-1, 0, 1}) with roundoff deciding no sign.

    The sign is 0 when |mean(f w)| <= 1e-12 mean(|f| w); f may change
    sign, so its weighted mean can vanish exactly (f = z, w = 1), and
    quadrature then returns a few 1e-17 of either sign.  Every
    admissibility test on an f-weighted volume goes through here.
    """
    fv = _as_values(f)
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
    _require_positive(u.values, "conformal factor")
    H = mean_curvature_values(u.values, synthesize(dtn_apply(u.coeffs), u.grid))
    return BoundaryField(u.grid, values=H)


def total_energy(u):
    """Spectral form of the boundary energy: sum (a_n l + 1) c_{l,m}^2."""
    c = u.coeffs
    ls = np.arange(c.shape[0], dtype=float)[:, None]
    return float(np.sum((A_N * ls + 1.0) * c**2))


def energy_functional(u, f):
    """EnergyReport for (u, f): E, the f-weighted volume, E_f, lambda.

    E_f = E / denom^{(n-1)/n} and lambda = E / denom, defined only on
    the admissible set where denom = mean(f u^{2#}) is positive.
    """
    _require_positive(u.values, "conformal factor")
    fv = _as_values(f)
    E = total_energy(u)
    denom, sign = weighted_mean_sign(u.grid, fv, u.values ** TWO_SHARP)
    if sign <= 0:
        raise AdmissibilityError(
            f"f-weighted volume is {denom:.3e}; u lies outside the admissible set for this f",
            condition="positive f-weighted volume",
        )
    E_f = E / denom ** ((N - 1.0) / N)
    return EnergyReport(E=E, denom=denom, E_f=E_f, lam=E / denom)


def _residual(u, f, lam, H):
    """(lam f - H, u^{2#}): the flow's residual and the density of dmu_g."""
    if H is None:
        H = mean_curvature(u)
    return lam * _as_values(f) - H.values, u.values ** TWO_SHARP


def f2_norm(u, f, lam, H=None):
    """Dissipation rate F2 = mean((lam f - H)^2 u^{2#}), the p = 2 residual."""
    return lp_residual(u, f, lam, 2, H)


def lp_residual(u, f, lam, p, H=None):
    """mean(|lam f - H|^p u^{2#}) for the residual-trend diagnostics."""
    r, w = _residual(u, f, lam, H)
    return u.grid.integrate(np.abs(r) ** p * w)


def lambda_prime(u, f, lam, H=None):
    """Time derivative of the volume-preserving multiplier.

    lambda' = -(mean(f dmu_g))^{-1} [ (n-1)/2 * mean((lam f - H)^2 dmu_g)
              + 1/2 * mean(lam f (lam f - H) dmu_g) ].
    """
    r, w = _residual(u, f, lam, H)
    fv = _as_values(f)
    denomf, sign = weighted_mean_sign(u.grid, fv, w)
    if sign == 0:
        raise AdmissibilityError("f-weighted volume vanishes; multiplier derivative undefined",
                                 condition="positive f-weighted volume")
    term1, term2 = u.grid.integrate(np.stack((r**2 * w, lam * fv * r * w)))
    return -((N - 1.0) / 2.0 * term1 + 0.5 * term2) / denomf


def flow_bounds(u0, f, H0, Lambda0=10.0, f_closed=None):
    """Frozen t=0 bounds: multiplier window, barrier, and energy threshold.

    lambda1 = (max f)^{-1} vol^{-1/n},
    lambda2 = E_f[u0]^{n/(n-1)} vol^{-1/n},
    gamma   = min(min H0 - lambda2 max|f|,
                  -sqrt((4/3)(lambda2 max|f|)^2 + (8/3) Lambda0 max|f|)),
    c_star  = -lambda2 max|f| + gamma,
    sigma   = (2^{1/n} mean(f)/max|f| - 1)/2,
    beta    = (1+sigma)^{(n-1)/n} mean(f)^{(1-n)/n}.

    When f_closed (a PrescribedFunction) is given, the extrema of f are
    polished by Newton refinement instead of trusting grid nodes.
    """
    fv = _as_values(f)
    f_mean, sign = weighted_mean_sign(u0.grid, fv)
    if sign <= 0:
        raise AdmissibilityError(f"mean of f is {f_mean:.3e}, must be positive",
                                 condition="positive mean")
    if f_closed is not None:
        fmin, fmax = f_closed.extrema()
        fmin = min(fmin, float(fv.min()))
        fmax = max(fmax, float(fv.max()))
    else:
        fmin, fmax = float(fv.min()), float(fv.max())
    f_absmax = max(abs(fmin), abs(fmax))
    if fmax <= 0.0:
        raise AdmissibilityError("max f must be positive", condition="positive maximum")
    vol = volume(u0)
    report = energy_functional(u0, f)
    lambda1 = vol ** (-1.0 / N) / fmax
    lambda2 = report.E_f ** (N / (N - 1.0)) * vol ** (-1.0 / N)
    min_H0 = float(H0.values.min())
    l2m = lambda2 * f_absmax
    gamma = min(min_H0 - l2m, -np.sqrt((4.0 / 3.0) * l2m**2 + (8.0 / 3.0) * Lambda0 * f_absmax))
    c_star = -l2m + gamma
    sigma = 0.5 * (2.0 ** (1.0 / N) * f_mean / f_absmax - 1.0)
    beta = (1.0 + sigma) ** ((N - 1.0) / N) * f_mean ** ((1.0 - N) / N) if sigma > -1.0 else np.nan
    return FlowBounds(
        lambda1=lambda1,
        lambda2=lambda2,
        Lambda0=Lambda0,
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


def membership(u, f, beta):
    """Admissible-set membership: {in_Xstar, in_Xf}.

    in_Xstar: u positive with positive f-weighted volume; in_Xf adds
    unit volume (within 1e-8) and E_f <= beta.
    """
    try:
        report = energy_functional(u, f)
    except (PositivityError, AdmissibilityError):
        return {"in_Xstar": False, "in_Xf": False}
    in_xf = abs(volume(u) - 1.0) <= _TWO_SHARP_VOL_TOL and report.E_f <= beta
    return {"in_Xstar": True, "in_Xf": bool(in_xf)}
