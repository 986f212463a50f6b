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

from .curvature import N, TWO_SHARP, require_positive, volume
from .errors import NormalizeError
from .spectral import BoundaryField, analyze, legendre_rows, synth_at, synthesize

_NORTH = np.array([0.0, 0.0, 1.0])


@dataclass
class ConformalMap:
    """Moebius dilation with fixed points p and -p and chart factor eps."""

    p: np.ndarray
    eps: float

    def __post_init__(self):
        self.p = np.asarray(self.p, dtype=float)
        norm = np.linalg.norm(self.p)
        if norm == 0:
            raise ValueError("map base point must be a nonzero vector")
        self.p = self.p / norm
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


def boundary_map(mp, x):
    """Image of unit vectors x (..., 3) under the boundary action."""
    x = np.asarray(x, dtype=float)
    t = x @ mp.p
    e2 = mp.eps**2
    D = (1.0 + t) + e2 * (1.0 - t)
    perp = x - t[..., None] * mp.p
    out = (2.0 * mp.eps / D)[..., None] * perp + (((1.0 + t) - e2 * (1.0 - t)) / D)[..., None] * mp.p
    # guard against roundoff drifting off the sphere
    return out / np.linalg.norm(out, axis=-1, keepdims=True)


def conformal_factor(mp, x):
    """Conformal factor of the boundary action at unit vectors x."""
    x = np.asarray(x, dtype=float)
    t = x @ mp.p
    D = (1.0 + t) + mp.eps**2 * (1.0 - t)
    return 2.0 * mp.eps / D


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
    p = np.asarray(p, dtype=float)
    norm = np.linalg.norm(p)
    if not norm > 0:
        raise ValueError("bubble center must be a nonzero vector")
    p = p / norm
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
    the grid.
    """
    require_positive(u.values, "pulled-back field")
    nodes = u.grid.nodes()
    mapped = boundary_map(mp, nodes)
    comp = synth_at(u.coeffs, mapped)
    lam = conformal_factor(mp, nodes)
    return BoundaryField(u.grid, values=comp * lam ** ((N - 1.0) / 2.0))


def center_of_mass(u):
    """S = mean(x u^{2#}) and its direction Q (None when |S| <= 1e-10)."""
    S = u.grid.integrate(u.grid.nodes().transpose(2, 0, 1) * u.values ** TWO_SHARP)
    norm = float(np.linalg.norm(S))
    Q = S / norm if norm > 1e-10 else None
    return S, Q


def _map_from_ball_point(b):
    norm = float(np.linalg.norm(b))
    if norm >= 1.0:
        raise ValueError("ball point must be interior")
    if norm < 1e-14:
        return ConformalMap(_NORTH, 1.0)
    p = b / norm
    delta = (1.0 - norm) / (1.0 + norm)
    return ConformalMap(p, delta)


def _pulled_back_center(w, grid, mp):
    """S(pullback_normalized(u, mp)) as mean(phi^{-1}(y) u(y)^{2#}), from w = u^{2#} on the nodes.

    The change of variables y = phi(x) takes v^{2#} dmu(x) to u^{2#} dmu(y),
    so this needs no synth_at; on the grid it holds to quadrature accuracy.
    """
    return grid.integrate(boundary_map(mp.inverse(), grid.nodes()).transpose(2, 0, 1) * w)


def normalize(u, tol=1e-8, max_iter=100):
    """Find the Moebius dilation whose volume-preserving pullback of u
    has zero center of mass.

    Damped Newton over the open-ball point b = (1-eps)p on the
    scale-invariant residual R(b) = S(v_b) / vol(v_b) of the pullback
    v_b, starting from b0 = R(u)/2, so a map that squeezes u's volume
    between the grid nodes cannot pass for centered.  The Jacobian is the
    central difference of the change-of-variables form S(v_b) / vol(u)
    (see _pulled_back_center), which costs no pullback; the residual, the
    line search and the returned state use the true pullback.  Near the
    constant field the map is not unique; if the solve stalls there the
    identity map is returned.
    """
    w = u.values ** TWO_SHARP
    vol = u.grid.integrate(w)
    R0 = center_of_mass(u)[0] / vol

    def residual(b):
        mp = _map_from_ball_point(b)
        v = pullback_normalized(u, mp)
        return center_of_mass(v)[0] / volume(v), mp, v

    b = R0 / 2.0
    if np.linalg.norm(b) >= 0.999:
        b = 0.999 * b / np.linalg.norm(b)
    R, mp, v = residual(b)
    h = 1e-6
    for _ in range(max_iter):
        rnorm = float(np.linalg.norm(R))
        if rnorm <= tol:
            return NormalizedState(map=mp, v=v, residual=rnorm)
        J = np.empty((3, 3))
        for j in range(3):
            db = np.zeros(3)
            db[j] = h
            hi = b + db
            lo = b - db
            if np.linalg.norm(hi) >= 1.0:
                hi = b
            if np.linalg.norm(lo) >= 1.0:
                lo = b
            S_hi, S_lo = (_pulled_back_center(w, u.grid, _map_from_ball_point(c)) for c in (hi, lo))
            J[:, j] = (S_hi - S_lo) / (vol * np.linalg.norm(hi - lo))
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


@lru_cache(maxsize=64)
def _cap_kernel(L, r):
    """Funk-Hecke multipliers 2 pi (P_{l-1} - P_{l+1})(cos r) / (2l+1) of the cap of radius r, read-only.

    P_{-1} = P_0 = 1, and P_l is the m = 0 entry of the normalized Legendre rows over sqrt(2l+1).
    """
    zonal = [row[0, 0] for row in legendre_rows(L + 1, np.array([np.cos(r)]))]
    P = np.concatenate(([1.0], np.array(zonal) / np.sqrt(2.0 * np.arange(L + 2) + 1.0)))
    mu = 2.0 * np.pi * (P[:-2] - P[2:]) / (2.0 * np.arange(L + 1) + 1.0)
    mu.flags.writeable = False
    return mu


def cap_integrals(density, grid, radii):
    """Integral of a gridded density over the cap of each radius around every node.

    Shape (len(radii), n_lat, n_lon): spherical convolutions with the cap
    indicators, evaluated by their Funk-Hecke multipliers in one synthesis.
    """
    multipliers = np.stack([_cap_kernel(grid.L, r) for r in radii])[:, :, None]
    return synthesize(analyze(density, grid) * multipliers, grid)

