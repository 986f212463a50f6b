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

The Gauss nodes are symmetric about the equator, and a normalized
associated Legendre function obeys T_l^m(-x) = (-1)^{l+m} T_l^m(x), so
the grid transforms tabulate only the (L+2)//2 nodes with x >= 0, packed
by the parity of l and scaled by the quadrature weights (Schaeffer 2013,
G-cubed 14:751).  That table is half the (L+1)^3 doubles of a full one;
each transform is one FFT and one matrix product batched over (parity,
order).
"""

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .errors import ConfigError


@dataclass
class Grid:
    """Gauss-Legendre colatitude x uniform longitude grid for degree L."""

    L: int
    x: np.ndarray          # cos(colatitude), ascending, shape (L+1,)
    w: np.ndarray          # Gauss weights, sum 2
    n_lon: int

    @property
    def shape(self):
        return (self.L + 1, self.n_lon)

    @property
    def phi(self):
        return 2.0 * np.pi * np.arange(self.n_lon) / self.n_lon

    def nodes(self):
        """Unit vectors of all grid nodes, shape (L+1, n_lon, 3): one cached read-only array."""
        return self._nodes

    @cached_property
    def _nodes(self):
        """Stored component-first, so that each coordinate nodes()[..., i] is contiguous."""
        xyz = sphere_points(np.sqrt(1.0 - self.x**2)[:, None], self.x[:, None], self.phi)
        xyz.flags.writeable = False
        return xyz.transpose(1, 2, 0)

    @cached_property
    def _weights(self):
        """Read-only weights of the spherical mean at every node, contiguous (a broadcast is slower)."""
        weights = np.repeat((0.5 * self.w / self.n_lon)[:, None], self.n_lon, axis=1)
        weights.flags.writeable = False
        return weights

    @cached_property
    def _table(self):
        """Read-only split table T[p, m, a, i] = q_i s_m N_{l,m} P_l^m(x_i) of degree l = 2a + p (see legendre_rows).

        Only the h = (L+2)//2 nodes x_i >= 0 are tabulated, in ascending
        order (for even L the equator is x_0); T_l^m(-x) = (-1)^{l+m} T_l^m(x)
        gives the southern nodes.  Zero where l < m or l > L.  The analysis
        weight q_i = w_i / (2 n_lon), halved at the equator (its own mirror),
        is folded in; synthesis divides it out again.
        """
        h = (self.L + 2) // 2
        T = np.zeros((2, self.L + 1, h, h))
        for l, row in enumerate(legendre_rows(self.L, self.x[self.L + 1 - h:])):
            T[l % 2, : l + 1, l // 2] = row
        T *= self._folds[0]
        T.flags.writeable = False
        return T

    @cached_property
    def _folds(self):
        """Read-only (q, sign, parity): the factors the grid transforms fold into products they form anyway.

        q (h,) is the analysis weight w_i / (2 n_lon) of each northern node,
        halved at the equator (its own mirror); the table carries it.
        sign (2, L+1, 2, 1, h) turns the northern sums E + O and the mirror
        differences E - O of order m (cosine, sine) into the input of an
        irfft of "forward" norm: 1 / q_i, times 1 (m = 0) or 1/2, minus
        for the sine, and (-1)^m at the mirror.  parity (L+1,) is (-1)^m.
        """
        h = (self.L + 2) // 2
        q = 0.5 / self.n_lon * self.w[self.L + 1 - h:]
        if self.L % 2 == 0:
            q[0] *= 0.5
        parity = (-1.0) ** np.arange(self.L + 1)
        scale = np.where(np.arange(self.L + 1) == 0, 1.0, 0.5)[:, None] * np.array([1.0, -1.0])
        sign = np.stack((scale, parity[:, None] * scale))[..., None, None] / q
        folds = q, sign, parity
        for a in folds:
            a.flags.writeable = False
        return folds

    def integrate(self, values):
        """Spherical mean (1/4pi) * integral of a gridded field, or of each field of a stack.

        One pairwise sum per field, so a field rounds alike alone or stacked (a BLAS gemv does not).
        """
        values = np.asarray(values)
        if values.shape[-2:] != self.shape:
            raise ValueError(f"values shape {values.shape} does not match grid {self.shape}")
        return (values * self._weights).sum(axis=(-2, -1))


def sphere_points(sin_theta, cos_theta, phi):
    """Component-first unit vectors (sin t cos p, sin t sin p, cos t), shape (3,) + the inputs' broadcast shape."""
    return np.stack(np.broadcast_arrays(sin_theta * np.cos(phi), sin_theta * np.sin(phi), cos_theta))


def legendre_rows(L, x):
    """Rows s_m N_{l,m} P_l^m(x) over m = 0..l, shape (l+1, len(x)), yielded for l = 0..L.

    s_0 = 1 and s_m = sqrt(2) fold the real-basis normalization in.  Holmes & Featherstone
    (2002, J. Geodesy 76:279) with the Condon-Shortley phase: T_lm = a_lm x T_{l-1,m} - b_lm T_{l-2,m}
    below T_ll = -sqrt((2l+1)/(2l)) sin(theta) T_{l-1,l-1}, and T_11 = -sqrt(3) sin(theta).
    """
    sin_theta = np.sqrt(1.0 - x**2)
    # a_lm and b_lm of every m < l, degree l's in rows l(l-1)/2 .. l(l+1)/2 - 1 (b_{l,l-1} = 0 is not
    # read), and the sectoral factor of degree l in entry l - 1.  Degrees and orders are whole floats,
    # so every value matches the per-degree integer arithmetic bit for bit.
    deg = np.repeat(np.arange(L + 1.0), np.arange(L + 1))[:, None]
    m2 = (np.arange(L * (L + 1) / 2)[:, None] - deg * (deg - 1.0) / 2.0) ** 2
    a = np.sqrt((4 * deg * deg - 1) / (deg * deg - m2))
    b = np.sqrt((2 * deg + 1) * ((deg - 1) ** 2 - m2) / ((2 * deg - 3) * (deg * deg - m2)))
    d = np.arange(1.0, L + 1)
    ratio = (2 * d + 1) / (2 * d)
    ratio[:1] = 3.0
    sectoral = -np.sqrt(ratio)
    older, row = np.zeros((0, len(x))), np.ones((1, len(x)))
    yield row
    for l in range(1, L + 1):
        k = l * (l - 1) // 2
        new = np.empty((l + 1, len(x)))
        new[:l] = a[k : k + l] * x * row
        new[: l - 1] -= b[k : k + l - 1] * older
        new[l] = sectoral[l - 1] * sin_theta * row[l - 1]
        older, row = row, new
        yield row


def make_grid(L):
    """Build the transform grid for maximum degree L in the tested range 4 <= L <= 85."""
    if int(L) != L or L < 4:
        raise ConfigError(f"grid degree must be an integer >= 4, got {L}")
    if L > 85:
        raise ConfigError(f"grid degree {L} exceeds the supported band limit 85")
    L = int(L)
    x, w = np.polynomial.legendre.leggauss(L + 1)
    return Grid(L=L, x=x, w=w, n_lon=2 * L + 2)


def analyze(values, grid):
    """Project a gridded field onto the real harmonic basis.

    One rfft; the sum and difference of each northern node's longitude
    coefficients and its mirror's, the mirror's signed by (-1)^m, give
    the even and the odd degrees in one Legendre stage against the split
    table, which carries the quadrature weights.
    """
    values = np.asarray(values, dtype=float)
    if values.shape != grid.shape:
        raise ValueError(f"values shape {values.shape} does not match grid {grid.shape}")
    L, T = grid.L, grid._table
    h = T.shape[-1]
    F = np.fft.rfft(values, axis=1)
    np.conjugate(F, out=F)                           # cos - i sin  ->  cos + i sin coefficients
    north = F[L + 1 - h:, : L + 1]
    south = F[h - 1::-1, : L + 1] * grid._folds[2]
    G = np.empty((h, 2, L + 1), dtype=complex)      # [i, p, m]: row i plus (p = 0) or minus its signed mirror
    np.add(north, south, out=G[:, 0])
    np.subtract(north, south, out=G[:, 1])
    R = np.matmul(T.reshape(2 * (L + 1), h, h), G.view(float).reshape(h, 2 * (L + 1), 2).transpose(1, 0, 2))
    R = R.reshape(2, L + 1, h, 2).transpose(2, 0, 1, 3)
    # degree 2a + p is row (a, p) of a 2h-row array; for even L the last row is degree L + 1 and is dropped
    c = np.empty((2 * h, 2 * L + 1))
    pairs = c.reshape(h, 2, 2 * L + 1)
    pairs[..., L:] = R[..., 0]
    pairs[..., L - 1::-1] = R[:, :, 1:, 1]
    return c[: L + 1]


def synthesize(coeffs, grid):
    """Evaluate a coefficient array, or each of a stack (..., L+1, 2L+1), on the grid.

    One Legendre stage against the split table gives the even-degree
    sum E and the odd-degree sum O of each order at the northern nodes;
    a node takes E + O and its mirror (-1)^m (E - O), and one irfft
    gives the values.
    """
    coeffs = np.asarray(coeffs, dtype=float)
    L, T = grid.L, grid._table
    if coeffs.shape[-2:] != (L + 1, 2 * L + 1):
        raise ValueError(f"coeffs shape {coeffs.shape} does not match degree {L}")
    h = T.shape[-1]
    c = coeffs.reshape((-1, L + 1, 2 * L + 1))
    B = c.shape[0]
    S = np.empty((2, L + 1, 2, B, h))           # [p, m, cos/sin, b, a] of degree 2a + p
    n = (L + 1) // 2
    pairs = c[:, : 2 * n].reshape(B, n, 2, 2 * L + 1).transpose(2, 3, 0, 1)
    S[:, :, 0, :, :n] = pairs[:, L:]
    S[:, :, 1, :, :n] = pairs[:, L::-1]
    if n < h:  # even L: degree L ends the even rows and has no odd partner
        S[0, :, 0, :, n] = c[:, L, L:].T
        S[0, :, 1, :, n] = c[:, L, L::-1].T
        S[1, ..., n] = 0.0
    E, O = np.matmul(S.reshape(2 * (L + 1), 2 * B, h), T.reshape(2 * (L + 1), h, h)).reshape(2, L + 1, 2, B, h)
    np.add(E, O, out=S[0])                       # S is free again: [north/mirror, m, cos/sin, b, i]
    np.subtract(E, O, out=S[1])
    S *= grid._folds[1]
    G = np.empty((B, L + 1, L + 2), dtype=complex)
    G[..., L + 1] = 0.0
    out = G.view(float).reshape(B, L + 1, L + 2, 2)[..., : L + 1, :]
    out[:, L + 1 - h:] = S[0].transpose(2, 3, 0, 1)
    out[:, L - h::-1] = S[1, ..., 2 * h - L - 1:].transpose(2, 3, 0, 1)
    return np.fft.irfft(G, n=grid.n_lon, axis=-1, norm="forward").reshape(coeffs.shape[:-2] + grid.shape)


@lru_cache(maxsize=8)
def _fourier_table(L):
    """Read-only (m, k, l) table of s_m N_{l,m} P_l^m(cos theta) in cos k theta (m even) or sin k theta (m odd).

    P_l^m(cos theta) is sin^m theta times a polynomial of degree l - m in
    cos theta, so each is a trigonometric polynomial of degree l in theta
    (the double Fourier sphere; Townsend, Wilber & Wright 2016).  The rows
    at the L+2 colatitudes pi k / (L+1), k = 0..L+1, extended to the full
    circle with parity (-1)^m, give the coefficients by one rfft.
    """
    half = np.zeros((L + 1, L + 1, L + 2))
    for l, row in enumerate(legendre_rows(L, np.cos(np.pi * np.arange(L + 2) / (L + 1)))):
        half[: l + 1, l] = row
    parity = (-1.0) ** np.arange(L + 1)[:, None, None]
    F = np.fft.rfft(np.concatenate((half, parity * half[..., L:0:-1]), axis=-1))[..., : L + 1] / (L + 1)
    T = np.where(parity > 0, F.real, -F.imag)
    T[0::2, :, 0] *= 0.5
    T = T.transpose(0, 2, 1)
    T.flags.writeable = False
    return T


def _angle_powers(e, K):
    """e^{ik a} for k = 0..K, shape (K+1, npts), from e^{ia} at each point.

    Each complex multiply doubles the range of k, so no cos or sin is
    taken of a (K+1, npts) array.
    """
    E = np.empty((K + 1, len(e)), dtype=complex)
    E[0], E[1:2] = 1.0, e
    n = 2
    while n <= K:
        m = min(n, K + 1 - n)
        np.multiply(E[:m], E[n - 1] * e, out=E[n : n + m])
        n *= 2
    return E


def _synth_block(L):
    """Points per block of synth_at at degree L: 512 up to L = 31, then 16 (L+1).

    At L = 31 a block's angle tables and products take about 0.8 MB;
    blocks of 384 or 512 points were the fastest per call, and 1024 or
    more took 1.4-1.8 times as long.  At higher L the products dominate
    and larger blocks save per-block work: with 16 (L+1) points a call on
    2048 points was no slower than unblocked at L = 63 and 85, and on
    the 8192 and 14792 grid nodes 1.8 times faster (BENCH_17.json).
    """
    return max(512, 16 * (L + 1))


def synth_at(coeffs, points):
    """Evaluate a coefficient array at arbitrary unit vectors.

    points has shape (..., 3); the return matches points.shape[:-1].
    The cosine of the colatitude is z clipped to [-1, 1] and the
    longitude is arctan2(y, x).  One matrix product per order of the
    coefficients with _fourier_table gives that order's cosine and sine
    longitude coefficients as trigonometric polynomials in theta; two matrix
    products evaluate them at the points (even orders in cos k theta,
    odd in sin k theta), and one weighted sum adds cos m phi and sin m phi.

    The points go through the angle tables and the products in blocks
    (_synth_block), so that the tables stay cache-sized.  Matrix products
    round alike only for the same block of points, so a point's value can
    differ in the last bits depending on which block holds it.
    """
    coeffs = np.asarray(coeffs, dtype=float)
    L = coeffs.shape[0] - 1
    if coeffs.shape != (L + 1, 2 * L + 1):
        raise ValueError(f"coeffs shape {coeffs.shape} does not match degree {L}")
    stack = np.zeros((L + 1, 2, L + 1))          # [m, cos/sin, l]: c[l, L+m] and c[l, L-m]
    stack[:, 0] = coeffs[:, L:].T
    stack[1:, 1] = coeffs[:, L - 1::-1].T
    by_order = stack @ _fourier_table(L).transpose(0, 2, 1)
    series = [by_order[parity::2].reshape(-1, L + 1) for parity in (0, 1)]
    flat = np.asarray(points, dtype=float).reshape(-1, 3)
    z = np.clip(flat[:, 2], -1.0, 1.0)
    phi = np.arctan2(flat[:, 1], flat[:, 0])
    theta_unit = z + 1j * np.sqrt(1.0 - z * z)
    phi_unit = np.cos(phi) + 1j * np.sin(phi)
    out = np.zeros(len(flat))
    size = _synth_block(L)
    for start in range(0, len(flat), size):
        block = slice(start, start + size)
        e_theta = _angle_powers(theta_unit[block], L)
        e_phi = _angle_powers(phi_unit[block], L)
        for parity, trig in ((0, e_theta.real), (1, e_theta.imag)):
            # the copy makes the strided real or imaginary part contiguous for BLAS
            lon = (series[parity] @ trig.copy()).reshape(-1, 2, trig.shape[1])
            out[block] += np.einsum("mp,mp->p", lon[:, 0], e_phi.real[parity::2])
            out[block] += np.einsum("mp,mp->p", lon[:, 1], e_phi.imag[parity::2])
    return out.reshape(np.shape(points)[:-1])


def dtn_apply(coeffs):
    """Dirichlet-to-Neumann map of the harmonic extension to the unit ball.

    The extension of a degree-l harmonic is r^l Y_l, so the outward
    normal derivative at r=1 multiplies each degree by l.
    """
    coeffs = np.asarray(coeffs, dtype=float)
    return coeffs * np.arange(coeffs.shape[0], dtype=float)[:, None]


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

    def __repr__(self):
        return f"BoundaryField(L={self.grid.L}, min={self.values.min():.3g}, max={self.values.max():.3g})"
