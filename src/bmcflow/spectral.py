"""Grids, real spherical-harmonic transforms, and exact spectral operators on S^2.

A field is stored on a Gauss-Legendre x uniform-longitude grid as a real
array of shape (L+1, 2L+2).  Coefficients live in a dense real array of
shape (L+1, 2L+1): entry [l, m+L] multiplies the real harmonic of degree
l and order m.  The basis is normalized so that the spherical mean of
Y^2 equals 1; consequently coeffs[0, L] is the spherical mean of the
field, and Parseval reads  mean(u^2) = sum(coeffs^2).

With L+1 Gauss nodes the colatitude quadrature is exact through
polynomial degree 2L+1 and 2L+2 longitudes resolve all modes |m| <= L,
so analyze/synthesize round-trip band-limited data to machine precision.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.special import lpmv, gammaln

from .errors import ConfigError


@dataclass
class Grid:
    """Gauss-Legendre colatitude x uniform longitude grid for degree L."""

    L: int
    x: np.ndarray          # cos(colatitude), ascending, shape (L+1,)
    w: np.ndarray          # Gauss weights, sum 2
    n_lon: int

    @property
    def n_lat(self):
        return self.L + 1

    @property
    def shape(self):
        return (self.n_lat, self.n_lon)

    @property
    def phi(self):
        return 2.0 * np.pi * np.arange(self.n_lon) / self.n_lon

    @property
    def sin_theta(self):
        return np.sqrt(1.0 - self.x**2)

    def nodes(self):
        """Unit vectors of all grid nodes, shape (n_lat, n_lon, 3)."""
        st = self.sin_theta[:, None]
        phi = self.phi[None, :]
        out = np.empty(self.shape + (3,))
        out[..., 0] = st * np.cos(phi)
        out[..., 1] = st * np.sin(phi)
        out[..., 2] = self.x[:, None] * np.ones_like(phi)
        return out

    @cached_property
    def _table(self):
        """Packed table T[m, j, l] = s_m N_{l,m} P_l^m(x_j), zero where l < m.

        s_0 = 1 and s_m = sqrt(2) fold the real-basis normalization in.
        Filled one order at a time so lpmv never holds more than one
        order's values on top of the (L+1)^3 table.
        """
        L = self.L
        T = np.zeros((L + 1, self.n_lat, L + 1))
        for m in range(L + 1):
            T[m, :, m:] = _norm_legendre(m, L, self.x)
        T[1:] *= np.sqrt(2.0)
        return T

    @cached_property
    def _dtheta_table(self):
        """d/dtheta of the packed table, from the table itself.

        sin(theta) dP_l^m/dtheta = l x P_l^m - (l+m) P_{l-1}^m, and with
        the normalization (l+m) N_{l,m} = r_{l,m} N_{l-1,m} where
        r_{l,m} = sqrt((2l+1)(l^2-m^2)/(2l-1)), taken as 0 for l < m where
        the table is zero.  Gauss nodes exclude the poles, so dividing by
        sin(theta) is safe.
        """
        T = self._table
        ls = np.arange(self.L + 1, dtype=float)
        ms = ls[:, None]
        r = np.sqrt((2 * ls[1:] + 1) * np.maximum(ls[1:] ** 2 - ms**2, 0.0) / (2 * ls[1:] - 1))
        dT = ls * self.x[:, None] * T
        dT[..., 1:] -= r[:, None, :] * T[..., :-1]
        return dT / self.sin_theta[:, None]

    def integrate(self, values):
        """Spherical mean (1/4pi) * integral of a gridded field."""
        values = np.asarray(values)
        if values.shape != self.shape:
            raise ValueError(f"values shape {values.shape} does not match grid {self.shape}")
        return 0.5 * self.w @ values.mean(axis=1)


def _norm_factor(m, ls):
    # sqrt((2l+1) (l-m)! / (l+m)!), via logs to stay finite for large l+m
    ls = np.asarray(ls, dtype=float)
    return np.exp(0.5 * (np.log(2 * ls + 1) + gammaln(ls - m + 1) - gammaln(ls + m + 1)))


def _norm_legendre(m, L, x):
    ls = np.arange(m, L + 1)
    P = lpmv(m, ls[None, :], x[:, None])
    return P * _norm_factor(m, ls)[None, :]


def make_grid(L):
    """Build the transform grid for maximum degree L (4 <= L <= 85).

    The upper cap is where the unnormalized associated Legendre
    recursion behind scipy.special.lpmv overflows double precision
    (first NaN at degree 86); all operations here stay well below it.
    """
    if int(L) != L or L < 4:
        raise ConfigError(f"grid degree must be an integer >= 4, got {L}")
    if L > 85:
        raise ConfigError(f"grid degree {L} exceeds the supported band limit 85")
    L = int(L)
    x, w = np.polynomial.legendre.leggauss(L + 1)
    return Grid(L=L, x=x, w=w, n_lon=2 * L + 2)


def _order_stack(coeffs, L):
    """(m, 2, l) stack of the cosine c[l, L+m] and sine c[l, L-m] coefficients."""
    coeffs = np.asarray(coeffs, dtype=float)
    if coeffs.shape != (L + 1, 2 * L + 1):
        raise ValueError(f"coeffs shape {coeffs.shape} does not match degree {L}")
    stack = np.zeros((L + 1, 2, L + 1))
    stack[:, 0] = coeffs[:, L:].T
    stack[1:, 1] = coeffs[:, L - 1::-1].T
    return stack


def _legendre(stack, table):
    """Legendre stage: contract an (m, 2, k) cosine/sine stack with an (m, j, k) table over k.

    With the packed table this maps coefficients (k = l) to longitude
    coefficients on the latitudes (j); with its transpose, the reverse.
    """
    return np.matmul(stack, table.transpose(0, 2, 1))


def _fourier_synthesis(cos_sin, grid, weight=1.0):
    """Grid values from (m, 2, n_lat) cosine/sine longitude coefficients.

    weight scales order m in Fourier space (1j*m differentiates in phi).
    """
    n = grid.n_lon
    scale = np.full(grid.L + 1, n / 2.0)
    scale[0] = n
    G = np.zeros((grid.n_lat, n // 2 + 1), dtype=complex)
    G[:, : grid.L + 1] = ((cos_sin[:, 0] - 1j * cos_sin[:, 1]) * (weight * scale)[:, None]).T
    return np.fft.irfft(G, n=n, axis=1)


def analyze(values, grid):
    """Project a gridded field onto the real harmonic basis."""
    values = np.asarray(values, dtype=float)
    if values.shape != grid.shape:
        raise ValueError(f"values shape {values.shape} does not match grid {grid.shape}")
    L = grid.L
    F = np.fft.rfft(values, axis=1)[:, : L + 1].T * (0.5 * grid.w / grid.n_lon)
    stack = _legendre(np.stack((F.real, -F.imag), axis=1), grid._table.transpose(0, 2, 1))
    c = np.empty((L + 1, 2 * L + 1))
    c[:, L:] = stack[:, 0].T
    c[:, :L] = stack[:0:-1, 1].T
    return c


def synthesize(coeffs, grid):
    """Evaluate a coefficient array on the grid."""
    return _fourier_synthesis(_legendre(_order_stack(coeffs, grid.L), grid._table), grid)


def synth_at(coeffs, points):
    """Evaluate a coefficient array at arbitrary unit vectors.

    points has shape (..., 3); the return matches points.shape[:-1].
    """
    coeffs = np.asarray(coeffs, dtype=float)
    L = coeffs.shape[0] - 1
    pts = np.asarray(points, dtype=float)
    flat = pts.reshape(-1, 3)
    x3 = np.clip(flat[:, 2], -1.0, 1.0)
    phi = np.arctan2(flat[:, 1], flat[:, 0])
    out = _norm_legendre(0, L, x3) @ coeffs[:, L]
    s2 = np.sqrt(2.0)
    for m in range(1, L + 1):
        lam = _norm_legendre(m, L, x3)
        Am = lam @ coeffs[m:, L + m]
        Bm = lam @ coeffs[m:, L - m]
        out += s2 * (Am * np.cos(m * phi) + Bm * np.sin(m * phi))
    return out.reshape(pts.shape[:-1])


def degree_multipliers(L):
    """Column vector of degrees l, for building diagonal operators."""
    return np.arange(L + 1, dtype=float)[:, None]


def dtn_apply(coeffs):
    """Dirichlet-to-Neumann map of the harmonic extension to the unit ball.

    The extension of a degree-l harmonic is r^l Y_l, so the outward
    normal derivative at r=1 multiplies each degree by l.
    """
    coeffs = np.asarray(coeffs, dtype=float)
    return coeffs * degree_multipliers(coeffs.shape[0] - 1)


def laplace_beltrami(coeffs):
    """Surface Laplacian: multiplies degree l by -l(l+1)."""
    coeffs = np.asarray(coeffs, dtype=float)
    ls = degree_multipliers(coeffs.shape[0] - 1)
    return coeffs * (-ls * (ls + 1.0))


def gradient_norm_sq(coeffs, grid):
    """Pointwise |grad u|^2 on the grid from spectral first derivatives.

    Derivatives in colatitude use the analytic d/dtheta of the Legendre
    table; the longitude derivative is taken in Fourier space.  Gauss
    nodes exclude the poles, so dividing by sin(theta) is safe.
    """
    stack = _order_stack(coeffs, grid.L)
    u_theta = _fourier_synthesis(_legendre(stack, grid._dtheta_table), grid)
    u_phi = _fourier_synthesis(_legendre(stack, grid._table), grid, 1j * np.arange(grid.L + 1))
    return u_theta**2 + (u_phi / grid.sin_theta[:, None]) ** 2


class BoundaryField:
    """A real field on the boundary sphere with lazily synced coefficients."""

    def __init__(self, grid, values=None, coeffs=None):
        if values is None and coeffs is None:
            raise ValueError("need values or coeffs")
        self.grid = grid
        self._values = None if values is None else np.asarray(values, dtype=float)
        self._coeffs = None if coeffs is None else np.asarray(coeffs, dtype=float)
        if self._values is not None and self._values.shape != grid.shape:
            raise ValueError(f"values shape {self._values.shape} does not match grid {grid.shape}")

    @classmethod
    def from_values(cls, values, grid):
        return cls(grid, values=values)

    @classmethod
    def from_coeffs(cls, coeffs, grid):
        return cls(grid, coeffs=coeffs)

    @classmethod
    def constant(cls, value, grid):
        return cls(grid, values=np.full(grid.shape, float(value)))

    @property
    def values(self):
        if self._values is None:
            self._values = synthesize(self._coeffs, self.grid)
        return self._values

    @property
    def coeffs(self):
        if self._coeffs is None:
            self._coeffs = analyze(self._values, self.grid)
        return self._coeffs

    def mean(self):
        return self.grid.integrate(self.values)

    def filtered(self):
        """Projection onto the band limit (synthesize of analyze); keeps the coefficients."""
        return BoundaryField(self.grid, values=synthesize(self.coeffs, self.grid), coeffs=self.coeffs)

    def __repr__(self):
        return f"BoundaryField(L={self.grid.L}, min={self.values.min():.3g}, max={self.values.max():.3g})"
