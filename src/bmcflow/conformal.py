"""Boundary conformal group: Moebius dilations, bubbles, normalization.

A ConformalMap(p, eps) acts in the stereographic chart centered at p
(projection from the antipode) as the dilation z -> eps*z.  For eps < 1
it moves points toward p while its conformal factor at p is eps < 1:
this is the map that spreads out a field concentrated at p.  Everything
has a closed form in ambient coordinates; with t = <x, p>:

    D(t)      = (1+t) + eps^2 (1-t)
    phi(x)    = ( 2 eps x_perp, (1+t) - eps^2 (1-t) ) / D   (in the p-frame)
    lambda(x) = 2 eps / D

The inverse map keeps p and replaces eps by 1/eps.

In the ball it is the Moebius map taking 0 to its ball point
c = ((1-eps)/(1+eps)) p (Ahlfors 1981); with 1-|c|^2 = 4 eps / (1+eps)^2,

    phi(x) = q (x + c) + c,   lambda(x) = q = (1-|c|^2) / |x + c|^2.

Bubbles are indexed by a concentration parameter eps in (0, 1]: the
profile is the conformal factor of the inverse of ConformalMap(p,
delta) with delta = eps/(2-eps), equivalently in closed form

    u_{p,eps}(x) = [eps(2-eps)]^{(n-1)/2} / |x - (1-eps) p|^{n-1},

which has exactly unit boundary volume, peaks at p with value
((2-eps)/eps)^{(n-1)/2}, and degenerates to the constant 1 at eps = 1.
Its zonal Legendre coefficients decay like (1-eps)^l.
"""

import warnings
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .curvature import N, require_positive, volume, volume_density
from .errors import NormalizeError
from .spectral import BoundaryField, analyze, legendre_rows, synth_at, synthesize

_NORTH = np.array([0.0, 0.0, 1.0])
# Radii of the caps on which the flow's detector and bubble probe measure concentration.
CAP_RADII = (0.1, 0.2, 0.5)


def unit_direction(p, what):
    """p / |p| for a 3-vector p with finite components, not all zero; ValueError otherwise.

    Where the squares in |p| could overflow (1e308, 1e308, 0) or
    underflow (1e-320, 1e-320, 0), p is first divided by its largest
    |component|.
    """
    p = np.asarray(p, dtype=float)
    scale = np.abs(p).max() if p.shape == (3,) else np.nan
    if not 0.0 < scale < np.inf:
        raise ValueError(f"{what} must be a nonzero vector of three finite components, got {p.tolist()}")
    if not 1e-150 < scale < 1e150:
        p = p / scale
    return p / np.linalg.norm(p)


@dataclass
class ConformalMap:
    """Moebius dilation with fixed points p and -p and chart factor eps."""

    p: np.ndarray
    eps: float

    def __post_init__(self):
        self.p = unit_direction(self.p, "map base point")
        if self.eps <= 0:
            raise ValueError(f"dilation parameter must be positive, got {self.eps}")

    def inverse(self):
        return ConformalMap(self.p, 1.0 / self.eps)

    @property
    def width(self):
        """Concentration parameter of the bubble this map's inverse generates."""
        return 2.0 * self.eps / (1.0 + self.eps)


@dataclass
class NormalizedState:
    map: ConformalMap
    v: BoundaryField
    residual: float


def _boundary_action(mp, x):
    """Image and conformal factor of mp at unit vectors x (..., 3), through its ball point c.

    The image q (x + c) + c is (3,) + x.shape[:-1], component first, and
    the factor q = (1-|c|^2) / |x + c|^2 is x.shape[:-1].  1-|c|^2 is
    formed as 4 eps / (1+eps)^2, which keeps its digits as eps -> 0.
    """
    x = np.moveaxis(np.asarray(x, dtype=float), -1, 0)
    c = ((1.0 - mp.eps) / (1.0 + mp.eps) * mp.p).reshape((3,) + (1,) * (x.ndim - 1))
    d = x + c
    q = 4.0 * mp.eps / (1.0 + mp.eps) ** 2 / (d[0] ** 2 + d[1] ** 2 + d[2] ** 2)
    return q * d + c, q


def boundary_map(mp, x):
    """Image of unit vectors x (..., 3) under the boundary action."""
    return np.moveaxis(_boundary_action(mp, x)[0], 0, -1)


def conformal_factor(mp, x):
    """Conformal factor of the boundary action at unit vectors x."""
    return _boundary_action(mp, x)[1]


def _resolution_check(eps_dilation, L):
    ratio = abs(1.0 - eps_dilation) / (1.0 + eps_dilation)
    tail = ratio ** (L + 1)
    if tail > 1e-3:
        warnings.warn(
            f"bubble with dilation {eps_dilation:.4g} is unresolved at degree {L}: "
            f"leading truncated zonal coefficient ~{tail:.2e}",
            RuntimeWarning,
            stacklevel=3,
        )


def bubble(mp, grid):
    """Bubble profile generated by the inverse of mp, as a gridded field.

    The field is the conformal factor of mp.inverse() raised to
    (n-1)/2; for eps < 1 it peaks at p.  Unit boundary volume holds
    exactly in the continuum and to quadrature accuracy on the grid.
    """
    _resolution_check(mp.eps, grid.L)
    lam = conformal_factor(mp.inverse(), grid.nodes())
    return BoundaryField(grid, values=lam ** ((N - 1.0) / 2.0))


def bubble_field(p, eps, grid):
    """Bubble with concentration parameter eps in (0, 1], peaked at p.

    Closed form [eps(2-eps)]^{(n-1)/2} / |x - (1-eps)p|^{n-1}; the
    generating map is ConformalMap(p, eps/(2-eps)).
    """
    if not 0.0 < eps <= 1.0:
        raise ValueError(f"concentration parameter must be in (0, 1], got {eps}")
    p = unit_direction(p, "bubble center")
    _resolution_check(eps / (2.0 - eps), grid.L)
    dist = np.linalg.norm(grid.nodes() - (1.0 - eps) * p, axis=-1)
    k = (N - 1.0) / 2.0
    values = (eps * (2.0 - eps)) ** k / dist ** (N - 1.0)
    return BoundaryField(grid, values=values)


def bubble_cap_mass(eps, r):
    """Fraction of a bubble's boundary volume inside the cap of radius r at its peak.

    For n = 2 this is the closed form

        (2-eps)^2 s / (2 (eps^2 + 2(1-eps) s)),   s = 1 - cos r = 2 sin^2(r/2),

    the antiderivative of the density over cos(colatitude) in [cos r, 1]
    written without the 1/(1-eps) cancellation, so it is exact to
    roundoff for every eps, eps = 1 (the area fraction s/2) included.
    The bubble has unit total volume.
    """
    if not 0.0 < eps <= 1.0:
        raise ValueError(f"concentration parameter must be in (0, 1], got {eps}")
    s = 2.0 * np.sin(0.5 * r) ** 2
    return float((2.0 - eps) ** 2 * s / (2.0 * (eps * eps + 2.0 * (1.0 - eps) * s)))


def pullback_normalized(u, mp):
    """Pullback of u under the map, weighted to preserve boundary volume.

    v = (u o phi) * lambda_phi^{(n-1)/2}; the boundary volume of v
    equals that of u (change of variables), which the tests verify on
    the grid.  The image phi(x) and the factor lambda_phi(x) at the nodes
    come from one pass (_boundary_action).
    """
    require_positive(u.values, "pulled-back field")
    mapped, lam = _boundary_action(mp, u.grid.nodes())
    comp = synth_at(u.coeffs, np.moveaxis(mapped, 0, -1))
    return BoundaryField(u.grid, values=comp * lam ** ((N - 1.0) / 2.0))


def center_of_mass(u):
    """S = mean(x u^{2#}) and its direction Q (None when |S| <= 1e-10)."""
    S = u.grid.integrate(u.grid.nodes().transpose(2, 0, 1) * volume_density(u.values))
    norm = float(np.linalg.norm(S))
    Q = S / norm if norm > 1e-10 else None
    return S, Q


def _map_from_ball_point(b):
    norm = float(np.linalg.norm(b))
    if norm < 1e-14:
        return ConformalMap(_NORTH, 1.0)
    p = b / norm
    delta = (1.0 - norm) / (1.0 + norm)
    return ConformalMap(p, delta)


def _center_jacobian(w, vol, grid, b):
    """dS/db / vol of the change-of-variables centre S(b) = mean(w(y) T_b(y)), w = u^{2#} on the nodes.

    The change of variables y = phi(x) takes v^{2#} dmu(x) to u^{2#} dmu(y),
    so S(b) is the centre of the pullback by the map of ball point b, whose
    inverse is T_b(y) = k d/s - b with d = y - b, s = |d|^2, k = 1-|b|^2.
    Its derivative is mean(w [2k d d^T/s^2 - 2 d b^T/s - (k/s + 1) I]):
    one integrate of the 13 rows w d d^T/s^2, w d/s and w/s.
    """
    d = grid.nodes().transpose(2, 0, 1) - b[:, None, None]
    inv_s = 1.0 / (d[0] ** 2 + d[1] ** 2 + d[2] ** 2)
    ws = w * inv_s
    wd = ws * d
    rows = np.concatenate(((wd[:, None] * (d * inv_s)[None]).reshape((9,) + w.shape), wd, ws[None]))
    M, m, a = np.split(grid.integrate(rows), [9, 12])
    k = 1.0 - b @ b
    return (2.0 * k * M.reshape(3, 3) - 2.0 * np.outer(m, b) - (k * a[0] + vol) * np.eye(3)) / vol


def normalize(u, tol=1e-8, max_iter=100):
    """Find the Moebius dilation whose volume-preserving pullback of u
    has zero center of mass.

    Damped Newton over the open-ball point b = (1-eps)p on the
    scale-invariant residual R(b) = S(v_b) / vol(v_b) of the pullback
    v_b, starting from b0 = R(u)/2, so a map that squeezes u's volume
    between the grid nodes cannot pass for centered.  The Jacobian is the
    closed-form derivative of the change-of-variables centre S(v_b) / vol(u)
    (_center_jacobian), which costs no pullback.  The residual, the line
    search and the returned state use the true pullback.  Near the
    constant field the map is not unique; if the solve stalls there the
    identity map is returned.
    """
    w = volume_density(u.values)
    vol = u.grid.integrate(w)
    R0 = center_of_mass(u)[0] / vol

    def residual(b):
        mp = _map_from_ball_point(b)
        v = pullback_normalized(u, mp)
        return center_of_mass(v)[0] / volume(v), mp, v

    b = R0 / 2.0
    R, mp, v = residual(b)
    for _ in range(max_iter):
        rnorm = float(np.linalg.norm(R))
        if rnorm <= tol:
            return NormalizedState(map=mp, v=v, residual=rnorm)
        J = _center_jacobian(w, vol, u.grid, b)
        try:
            d = np.linalg.solve(J, -R)
        except np.linalg.LinAlgError:
            break
        stepped = False
        t = 1.0
        while t > 1e-4:
            b_new = b + t * d
            if np.linalg.norm(b_new) < 1.0 - 1e-12:
                R_new, mp_new, v_new = residual(b_new)
                if np.linalg.norm(R_new) < rnorm:
                    b, R, mp, v = b_new, R_new, mp_new, v_new
                    stepped = True
                    break
            t *= 0.5
        if not stepped:
            break
    rnorm = float(np.linalg.norm(R))
    if rnorm <= tol:
        return NormalizedState(map=mp, v=v, residual=rnorm)
    if float(np.linalg.norm(R0)) <= 1e-8:
        return NormalizedState(map=ConformalMap(_NORTH, 1.0), v=u, residual=float(np.linalg.norm(R0)))
    raise NormalizeError(f"center-of-mass solve stalled at residual {rnorm:.3e}", best_map=mp, best_residual=rnorm)


@lru_cache(maxsize=8)
def _cap_multipliers(L, radii):
    """Read-only Funk-Hecke multipliers of the cap of each radius r in the tuple radii, shape (len(radii), L+1, 1).

    They are 2 pi (P_{l-1} - P_{l+1})(cos r) / (2l+1), with P_{-1} = P_0 = 1 and P_l the m = 0 entry of
    the normalized Legendre rows over sqrt(2l+1), from one pass over all radii.
    """
    zonal = np.stack([row[0] for row in legendre_rows(L + 1, np.cos(radii))], axis=-1)
    P = np.concatenate((np.ones((len(radii), 1)), zonal / np.sqrt(2.0 * np.arange(L + 2) + 1.0)), axis=-1)
    multipliers = (2.0 * np.pi * (P[:, :-2] - P[:, 2:]) / (2.0 * np.arange(L + 1) + 1.0))[:, :, None]
    multipliers.flags.writeable = False
    return multipliers


def cap_integrals(density, grid, radii):
    """Integral of a gridded density over the cap of each radius around every node.

    Shape (len(radii), n_lat, n_lon): spherical convolutions with the cap
    indicators, evaluated by their Funk-Hecke multipliers in one synthesis.
    """
    return synthesize(analyze(density, grid) * _cap_multipliers(grid.L, tuple(radii)), grid)

