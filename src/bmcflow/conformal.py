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

import math
import warnings
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .curvature import N, require_positive, volume, volume_density
from .errors import NormalizeError
from .spectral import BoundaryField, analyze, legendre_rows, synth_at

_NORTH = np.array([0.0, 0.0, 1.0])
# Radii of the caps on which bubble probe measures concentration.
CAP_RADII = (0.1, 0.2, 0.5)
# normalize accepts a map at residual |S(v)| / vol(v) <= _NORMALIZE_TOL, within _NORMALIZE_ITERS Newton steps a start.
_NORMALIZE_TOL = 1e-8
_NORMALIZE_ITERS = 100
_SERIES_BELOW = 0.25  # ball radius below which _bubble_center sums g's series


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


@dataclass
class NormalizedState:
    map: ConformalMap
    v: BoundaryField
    residual: float


def boundary_action(mp, x):
    """Image and conformal factor of mp at unit vectors x (..., 3), through its ball point c.

    The image q (x + c) + c has the shape of x and the factor
    q = (1-|c|^2) / |x + c|^2 the shape x.shape[:-1].  1-|c|^2 is formed
    as 4 eps / (1+eps)^2, which keeps its digits as eps -> 0.
    """
    c = (1.0 - mp.eps) / (1.0 + mp.eps) * mp.p
    d = np.asarray(x, dtype=float) + c
    q = 4.0 * mp.eps / (1.0 + mp.eps) ** 2 / (d[..., 0] ** 2 + d[..., 1] ** 2 + d[..., 2] ** 2)
    return q[..., None] * d + c, q


def bubble_field(p, eps, grid):
    """Bubble with concentration parameter eps in (0, 1], peaked at p.

    Closed form [eps(2-eps)]^{(n-1)/2} / |x - (1-eps)p|^{n-1}; the
    generating map is ConformalMap(p, eps/(2-eps)).
    """
    if not 0.0 < eps <= 1.0:
        raise ValueError(f"concentration parameter must be in (0, 1], got {eps}")
    p = unit_direction(p, "bubble center")
    delta = eps / (2.0 - eps)
    tail = (abs(1.0 - delta) / (1.0 + delta)) ** (grid.L + 1)
    if tail > 1e-3:
        warnings.warn(f"bubble with dilation {delta:.4g} is unresolved at degree {grid.L}: "
                      f"leading truncated zonal coefficient ~{tail:.2e}", RuntimeWarning, stacklevel=2)
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
    come from one pass (boundary_action).
    """
    require_positive(u.values, "pulled-back field")
    mapped, lam = boundary_action(mp, u.grid.nodes())
    comp = synth_at(u.coeffs, mapped)
    return BoundaryField(u.grid, values=comp * lam ** ((N - 1.0) / 2.0))


def center_of_mass(u):
    """S = mean(x u^{2#}) and its direction Q (None when |S| <= 1e-10)."""
    S = u.grid.integrate(u.grid.nodes().transpose(2, 0, 1) * volume_density(u.values))
    norm = float(np.linalg.norm(S))
    Q = S / norm if norm > 1e-10 else None
    return S, Q


def _map_from_ball_point(b):
    norm = float(np.linalg.norm(b))
    return ConformalMap(b / norm, (1.0 - norm) / (1.0 + norm)) if norm >= 1e-14 else ConformalMap(_NORTH, 1.0)


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


def _bubble_center(s):
    """g(s) = |S|/vol of the n = 2 bubble whose ball point has radius s in (0, 1), and g'(s).

    g = (1+s^2)/(2s) - (1-s^2)^2/(4s^2) ln((1+s)/(1-s)), which cancels below _SERIES_BELOW; there
    g = 4s/3 - sum_{k>=2} 4 s^{2k-1} / ((2k+1)(2k-1)(2k-3)), summed from k = 16 down.
    """
    if s < _SERIES_BELOW:
        g = dg = 0.0
        for k in range(16, 1, -1):
            c = 4.0 * s ** (2 * k - 2) / ((2 * k + 1) * (2 * k - 1) * (2 * k - 3))
            g, dg = g + c, dg + (2 * k - 1) * c
        return s * (4.0 / 3.0 - g), 4.0 / 3.0 - dg
    q, ln = 1.0 - s * s, 2.0 * math.atanh(s)
    return (1.0 + s * s) / (2.0 * s) - q * q / (4.0 * s * s) * ln, q / (s * s) * ((1.0 + s * s) * ln / (2.0 * s) - 1.0)


def _bubble_radius(r):
    """g^{-1}(r) for r in (0, 1) by Newton from 3r/4; a step that leaves the bracket [lo, hi] of the root bisects it."""
    lo, hi, s = 0.0, 1.0, 0.75 * r
    for _ in range(100):
        g, dg = _bubble_center(s)
        lo, hi = (s, hi) if g < r else (lo, s)
        t = s + (r - g) / dg
        s, last = (t if lo < t < hi else 0.5 * (lo + hi)), s
        if s == last:
            break
    return s


def normalize(u):
    """Find the Moebius dilation whose volume-preserving pullback of u
    has zero center of mass.

    Damped Newton over the open-ball point b = (1-eps)p on the
    scale-invariant residual R(b) = S(v_b) / vol(v_b) of the pullback v_b,
    so a map that squeezes u's volume between the grid nodes cannot pass
    for centered.  It starts at b0 = g^{-1}(|R0|) R0/|R0|, R0 = S(u)/vol(u),
    the bubble centred where u is, and restarts from R0/2 if that fails
    (or only there, where |R0| is 0 or >= 1).  Each iteration makes one
    Jacobian, the closed-form, pullback-free derivative of the change-of-
    variables centre (_center_jacobian) plus a correction that Broyden's
    rank-one update fits to the accepted steps.  The residual, the line
    search and the result use the true pullback.  Near the constant field
    the map is not unique; a stalled solve there returns the identity.
    """
    w = volume_density(u.values)
    vol = u.grid.integrate(w)
    R0 = center_of_mass(u)[0] / vol

    def residual(b):
        mp = _map_from_ball_point(b)
        v = pullback_normalized(u, mp)
        return center_of_mass(v)[0] / volume(v), mp, v

    r0 = float(np.linalg.norm(R0))
    for b in (_bubble_radius(r0) / r0 * R0, R0 / 2.0) if 0.0 < r0 < 1.0 else (R0 / 2.0,):
        R, mp, v = residual(b)
        D = np.zeros((3, 3))
        for _ in range(_NORMALIZE_ITERS):
            rnorm = float(np.linalg.norm(R))
            if rnorm <= _NORMALIZE_TOL:
                return NormalizedState(map=mp, v=v, residual=rnorm)
            J = _center_jacobian(w, vol, u.grid, b) + D
            try:
                d = np.linalg.solve(J, -R)
            except np.linalg.LinAlgError:
                break
            for t in 0.5 ** np.arange(14.0):  # step fractions 1, 1/2, ..., 2^-13
                b_new = b + t * d
                if np.linalg.norm(b_new) < 1.0 - 1e-12:
                    R_new, mp_new, v_new = residual(b_new)
                    if np.linalg.norm(R_new) < rnorm:
                        D += np.outer((R_new - R) / t - J @ d, d) / (d @ d)
                        b, R, mp, v = b_new, R_new, mp_new, v_new
                        break
            else:
                break
        rnorm = float(np.linalg.norm(R))
        if rnorm <= _NORMALIZE_TOL:
            return NormalizedState(map=mp, v=v, residual=rnorm)
    if r0 <= 1e-8:
        return NormalizedState(map=ConformalMap(_NORTH, 1.0), v=u, residual=r0)
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


def cap_integrals(density, grid, radii, x):
    """Integral of a gridded density over the cap of each radius around the unit vector x, shape (len(radii),).

    Each is the spherical convolution of the density with the cap
    indicator, evaluated at x: the density's coefficients times the cap's
    Funk-Hecke multipliers, synthesized at x.
    """
    return np.array([synth_at(c, x) for c in analyze(density, grid) * _cap_multipliers(grid.L, tuple(radii))])
