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

from dataclasses import dataclass, field
from functools import lru_cache

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
    density: np.ndarray = field(repr=False, compare=False)   # u^{2#} at the nodes: the density of dmu_g


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
    """Least node value of the field as a float; AdmissibilityError with condition "positivity" if not positive."""
    least = float(values.min())
    if least <= 0.0:
        node = np.unravel_index(np.argmin(values), values.shape)
        raise AdmissibilityError(f"{what} is not positive at node {node}", condition="positivity")
    return least


def weighted_mean_sign(grid, fv, weight=1.0):
    """(mean(f w), its sign in {-1, 0, 1}) with roundoff deciding no sign; fv holds f at the nodes.

    The sign is 0 when |mean(f w)| <= 1e-12 mean(|f| w); f may change
    sign, so its weighted mean can vanish exactly (f = z, w = 1), and
    quadrature then returns a few 1e-17 of either sign.  Every
    admissibility test on an f-weighted volume goes through here.  The
    weight must be nonnegative.
    """
    fw = np.empty((2,) + grid.shape)
    np.multiply(fv, weight, out=fw[0])
    np.abs(fw[0], out=fw[1])          # |f w| = |f| w bit for bit, since w >= 0
    m, m_abs = grid.integrate(fw)
    if abs(m) <= _VANISHING_MEAN_REL * m_abs:
        return m, 0
    return m, 1 if m > 0.0 else -1


def target_report(f, grid, fv):
    """(mean f, its sign, max f, max|f|, condition (ii)) of the closed-form target f, whose node values are fv.

    The mean and its sign are weighted_mean_sign's; max f and max|f| are f.extrema() widened to cover fv,
    so max|f| >= max fv >= mean f.  Condition (ii), the simple-bubble bound, is sign 1 and max|f| < 2^{1/n} mean f.
    """
    f_mean, sign = weighted_mean_sign(grid, fv)
    fmin, fmax = f.extrema()
    fmin, fmax = min(fmin, float(fv.min())), max(fmax, float(fv.max()))
    f_absmax = max(abs(fmin), abs(fmax))
    return f_mean, sign, fmax, f_absmax, bool(sign > 0 and f_absmax < 2.0 ** (1.0 / N) * f_mean)


def volume_density(u_values):
    """u^{2#} = (u^2)^2, the density of dmu_g, from the values of u.

    Formed by products: numpy's pow has fast paths only for the exponents
    0.5, +-1 and 2, and is several times slower for 2# = 4.
    """
    u2 = u_values * u_values
    return u2 * u2


def volume(u):
    """mean(u^{2#}), the conserved boundary volume of the conformal metric."""
    return u.grid.integrate(volume_density(u.values))


def mean_curvature_values(u_values, dtn_values, u2=None):
    """H = u^{-(2#-1)} (a_n * DtN(u) + u) on the grid from the values of u and DtN(u), and of u^2 if u2 is given."""
    H = A_N * dtn_values
    H += u_values
    H /= (u_values * u_values if u2 is None else u2) * u_values
    return H


def mean_curvature(u):
    """Boundary mean curvature of the metric with conformal factor u; DtN(u) is applied spectrally."""
    require_positive(u.values, "conformal factor")
    H = mean_curvature_values(u.values, synthesize(dtn_apply(u.coeffs), u.grid))
    return BoundaryField(u.grid, values=H)


@lru_cache(maxsize=8)
def energy_weights(L):
    """Read-only column of the energy's degree weights a_n l + 1, l = 0..L, shape (L+1, 1)."""
    weights = A_N * np.arange(L + 1, dtype=float)[:, None] + 1.0
    weights.flags.writeable = False
    return weights


def total_energy(u):
    """Spectral form of the boundary energy: sum (a_n l + 1) c_{l,m}^2."""
    c = u.coeffs
    return float((energy_weights(c.shape[0] - 1) * c**2).sum())


def energy_functional(u, fv):
    """EnergyReport for (u, f), f given by its node values fv: E, the f-weighted volume, E_f, lambda.

    E_f = E / denom^{(n-1)/n} and lambda = E / denom, defined only on
    the admissible set where denom = mean(f u^{2#}) is positive.  The
    report keeps u^{2#} at the nodes, so its callers need not form it again.
    """
    require_positive(u.values, "conformal factor")
    return energy_report(u, fv, volume_density(u.values))


def energy_report(u, fv, density):
    """energy_functional without its positivity check, with density = u^{2#} at the nodes given."""
    E = total_energy(u)
    denom, sign = weighted_mean_sign(u.grid, fv, density)
    if sign <= 0:
        raise AdmissibilityError(
            f"f-weighted volume is {denom:.3e}; u lies outside the admissible set for this f",
            condition="positive f-weighted volume",
        )
    E_f = E / denom ** ((N - 1.0) / N)
    return EnergyReport(E=E, denom=denom, E_f=E_f, lam=E / denom, density=density)


def _residual(u, fv, lam, H):
    """(lam f - H, u^{2#}): the flow's residual and the density of dmu_g; H holds node values or is None."""
    if H is None:
        H = mean_curvature(u).values
    return lam * fv - H, volume_density(u.values)


def lp_residual(u, fv, lam, p, H=None):
    """mean(|lam f - H|^p u^{2#}); p = 2 gives the dissipation rate F2.  fv and H hold node values.

    |r|^p is formed as (r^2)^(p/2), which for p = 2 and 4 is the product that flow's row forms.
    """
    r, w = _residual(u, fv, lam, H)
    return u.grid.integrate((r * r) ** (p / 2) * w)


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


def flow_bounds(u0, f, fv, H0, report):
    """Frozen t=0 bounds for u0 and the closed-form target f, from what evaluating u0 already found.

    fv holds f at the nodes, H0 the mean curvature of u0 there, and report
    is energy_functional(u0, fv).

    lambda1 = (max f)^{-1} vol^{-1/n},
    lambda2 = E_f[u0]^{n/(n-1)} vol^{-1/n},
    gamma   = barrier_gamma(min H0, lambda2, max|f|, LAMBDA0),
    c_star  = -lambda2 max|f| + gamma,
    sigma   = (2^{1/n} mean(f)/max|f| - 1)/2,
    beta    = (1+sigma)^{(n-1)/n} mean(f)^{(1-n)/n}.

    mean(f), max f, max|f| and condition_ii_ok are target_report's, as in `morse check`, and E_f is a
    grid quadrature.  mean(f) must be positive, so max|f| >= mean(f) > 0 and sigma > -1/2.
    """
    f_mean, sign, fmax, f_absmax, condition_ii = target_report(f, u0.grid, fv)
    if sign <= 0:
        raise AdmissibilityError(f"mean of f is {f_mean:.3e}, must be positive",
                                 condition="positive mean")
    vol = u0.grid.integrate(report.density)
    lambda1 = vol ** (-1.0 / N) / fmax
    lambda2 = report.E_f ** (N / (N - 1.0)) * vol ** (-1.0 / N)
    min_H0 = float(H0.min())
    gamma = barrier_gamma(min_H0, lambda2, f_absmax, LAMBDA0)
    c_star = -lambda2 * f_absmax + gamma
    sigma = 0.5 * (2.0 ** (1.0 / N) * f_mean / f_absmax - 1.0)
    beta = (1.0 + sigma) ** ((N - 1.0) / N) * f_mean ** ((1.0 - N) / N)
    return FlowBounds(
        lambda1=lambda1,
        lambda2=lambda2,
        Lambda0=LAMBDA0,
        gamma=gamma,
        c_star=c_star,
        sigma=sigma,
        beta=beta,
        condition_ii_ok=condition_ii,
        f_mean=f_mean,
        f_max=fmax,
        f_absmax=f_absmax,
        min_H0=min_H0,
    )
