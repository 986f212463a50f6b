"""Tests for the spherical-harmonic transform layer.

Validates:
- Gauss-Legendre quadrature exactness on polynomial integrands
- analyze/synthesize round trips and Parseval's identity
- the degree multipliers of the normal-derivative and Laplacian operators
- tangential gradient magnitudes against closed forms
- point evaluation (synth_at) against zonal Legendre sums
- grid synthesis and synth_at against a reference synthesis built on
  scipy's lpmv, independent of the library's Legendre recurrence
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import eval_legendre, lpmv

from bmcflow.spectral import (
    BoundaryField,
    analyze,
    dtn_apply,
    gradient_norm_sq,
    laplace_beltrami,
    make_grid,
    synth_at,
    synthesize,
)
from bmcflow.errors import ConfigError


def random_band_limited(L, rng, lmax=None, amp=1.0):
    """Coefficient array with the invalid |m| > l corner left at zero."""
    coeffs = np.zeros((L + 1, 2 * L + 1))
    lmax = L if lmax is None else min(lmax, L)
    for l in range(lmax + 1):
        coeffs[l, L - l:L + l + 1] = amp * rng.standard_normal(2 * l + 1)
    return coeffs


def test_make_grid_shapes():
    """L+1 latitude nodes and 2L+2 longitudes resolve degree L exactly."""
    g = make_grid(8)
    assert g.n_lat == 9
    assert g.n_lon == 18
    assert g.shape == (9, 18)
    assert g.nodes().shape == (9, 18, 3)


def test_make_grid_rejects_tiny_band():
    with pytest.raises(ConfigError):
        make_grid(3)


def test_quadrature_normalized_measure():
    """The quadrature computes averages: the constant 1 integrates to 1."""
    g = make_grid(12)
    assert abs(g.integrate(np.ones(g.shape)) - 1.0) < 1e-14


@pytest.mark.parametrize("k,val", [(2, 1.0 / 3), (4, 1.0 / 5), (6, 1.0 / 7), (3, 0.0), (5, 0.0)])
def test_quadrature_monomials(k, val):
    """Averages of z^k over the sphere are 1/(k+1) for even k, 0 for odd."""
    g = make_grid(10)
    zk = g.nodes()[..., 2] ** k
    assert abs(g.integrate(zk) - val) < 1e-14


def test_mean_is_leading_coefficient():
    """The (0,0) coefficient stores the spherical average."""
    g = make_grid(9)
    rng = np.random.default_rng(7)
    u = BoundaryField.from_coeffs(random_band_limited(9, rng), g)
    assert abs(u.mean() - u.coeffs[0, 9]) < 1e-12


def test_roundtrip_exact_on_band_limited():
    """synthesize then analyze restores band-limited coefficients exactly."""
    L = 16
    g = make_grid(L)
    rng = np.random.default_rng(3)
    coeffs = random_band_limited(L, rng)
    back = analyze(synthesize(coeffs, g), g)
    assert np.abs(back - coeffs).max() < 1e-11


def test_roundtrip_high_degree():
    """The transform stays accurate at the top of the supported range."""
    L = 85
    g = make_grid(L)
    rng = np.random.default_rng(5)
    coeffs = random_band_limited(L, rng)
    back = analyze(synthesize(coeffs, g), g)
    assert np.abs(back - coeffs).max() < 1e-9


def test_grid_degree_cap():
    """Degrees past the overflow point of the Legendre tables are rejected."""
    with pytest.raises(ConfigError):
        make_grid(86)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), L=st.integers(4, 20))
def test_parseval(seed, L):
    """mean(u^2) equals the sum of squared coefficients (unit-normalized basis)."""
    g = make_grid(L)
    rng = np.random.default_rng(seed)
    coeffs = random_band_limited(L, rng)
    u = synthesize(coeffs, g)
    assert abs(g.integrate(u**2) - np.sum(coeffs**2)) < 1e-9 * max(1.0, np.sum(coeffs**2))


def test_constant_field_coefficients():
    """u = 1 has a single unit coefficient at (0, 0)."""
    g = make_grid(8)
    coeffs = analyze(np.ones(g.shape), g)
    expected = np.zeros_like(coeffs)
    expected[0, 8] = 1.0
    assert np.abs(coeffs - expected).max() < 1e-13


@pytest.mark.parametrize("l", [0, 1, 2, 5, 17, 31])
def test_dtn_degree_multiplier(l):
    """The normal-derivative operator multiplies degree-l coefficients by l."""
    L = 31
    coeffs = np.zeros((L + 1, 2 * L + 1))
    m = min(l, 2)
    coeffs[l, m + L] = 1.0
    out = dtn_apply(coeffs)
    assert abs(out[l, m + L] - l) < 1e-12 * max(l, 1)
    out[l, m + L] = 0.0
    assert np.abs(out).max() == 0.0


@pytest.mark.parametrize("l", [1, 2, 3, 7])
def test_laplace_beltrami_eigenvalue(l):
    """Spherical harmonics are eigenfunctions with eigenvalue -l(l+1)."""
    L = 15
    g = make_grid(L)
    coeffs = np.zeros((L + 1, 2 * L + 1))
    coeffs[l, 1 + L] = 1.0
    u = synthesize(coeffs, g)
    lap = synthesize(laplace_beltrami(coeffs), g)
    assert np.abs(lap + l * (l + 1) * u).max() < 1e-10


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_dtn_quadratic_form_nonnegative(seed):
    """mean(u * DtN u) = sum l c^2 >= 0: the operator is positive semidefinite."""
    L = 12
    g = make_grid(L)
    rng = np.random.default_rng(seed)
    coeffs = random_band_limited(L, rng)
    u = synthesize(coeffs, g)
    dtn_u = synthesize(dtn_apply(coeffs), g)
    quad = g.integrate(u * dtn_u)
    ls = np.arange(L + 1, dtype=float)[:, None]
    assert quad >= -1e-12
    assert abs(quad - np.sum(ls * coeffs**2)) < 1e-10


def test_gradient_norm_of_height():
    """For u = sqrt(3) z (the (1,0) harmonic), |grad u|^2 = 3(1 - z^2)."""
    L = 10
    g = make_grid(L)
    coeffs = np.zeros((L + 1, 2 * L + 1))
    coeffs[1, 0 + L] = 1.0
    z = g.nodes()[..., 2]
    u = synthesize(coeffs, g)
    assert np.abs(u - np.sqrt(3.0) * z).max() < 1e-12
    gsq = gradient_norm_sq(coeffs, g)
    assert np.abs(gsq - 3.0 * (1.0 - z**2)).max() < 1e-10


def test_gradient_norm_of_equatorial_harmonic():
    """The (1,1) harmonic is -sqrt(3) x (Condon-Shortley phase), with
    |grad|^2 = 3(1 - x^2)."""
    L = 10
    g = make_grid(L)
    coeffs = np.zeros((L + 1, 2 * L + 1))
    coeffs[1, 1 + L] = 1.0
    xc = g.nodes()[..., 0]
    u = synthesize(coeffs, g)
    assert np.abs(u + np.sqrt(3.0) * xc).max() < 1e-12
    gsq = gradient_norm_sq(coeffs, g)
    assert np.abs(gsq - 3.0 * (1.0 - xc**2)).max() < 1e-10


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_integration_by_parts(seed):
    """mean(u (-lap v)) equals the polarized Dirichlet form from |grad|^2."""
    L = 10
    g = make_grid(L)
    rng = np.random.default_rng(seed)
    cu = random_band_limited(L, rng, lmax=6)
    cv = random_band_limited(L, rng, lmax=6)
    u = synthesize(cu, g)
    lap_v = synthesize(laplace_beltrami(cv), g)
    lhs = -g.integrate(u * lap_v)
    cross = 0.5 * (gradient_norm_sq(cu + cv, g) - gradient_norm_sq(cu, g) - gradient_norm_sq(cv, g))
    rhs = g.integrate(cross)
    scale = max(1.0, abs(lhs))
    assert abs(lhs - rhs) < 1e-9 * scale


@pytest.mark.parametrize("L", [12, 85])
def test_synth_at_matches_grid_synthesis(L):
    """Point evaluation agrees with the grid transform at grid nodes.

    Both take their Legendre values from the same recurrence, so this
    checks the two longitude paths; test_synthesis_matches_lpmv_reference
    checks the Legendre values themselves.
    """
    g = make_grid(L)
    rng = np.random.default_rng(11)
    coeffs = random_band_limited(L, rng)
    values = synthesize(coeffs, g)
    nodes = g.nodes()
    picks = [(0, 0), (3, 7), (L, 2 * L + 1), (7, 13)]
    pts = np.array([nodes[i % g.n_lat, j % g.n_lon] for i, j in picks])
    got = synth_at(coeffs, pts)
    want = np.array([values[i % g.n_lat, j % g.n_lon] for i, j in picks])
    assert np.abs(got - want).max() < 1e-10


def lpmv_synthesis(coeffs, z, phi):
    """Reference real-harmonic synthesis at cos(colatitude) z and longitude phi.

    Each (l, m) term is sqrt(2 - [m = 0]) sqrt((2l+1)(l-m)!/(l+m)!) times
    scipy's lpmv (Condon-Shortley phase), one term at a time.
    """
    L = coeffs.shape[0] - 1
    out = np.zeros(np.broadcast(z, phi).shape)
    for l in range(L + 1):
        for m in range(l + 1):
            scale = (2.0 if m else 1.0) * (2 * l + 1) * math.factorial(l - m) / math.factorial(l + m)
            P = np.sqrt(scale) * lpmv(m, l, z)
            out += P * coeffs[l, L + m] * np.cos(m * phi)
            if m:
                out += P * coeffs[l, L - m] * np.sin(m * phi)
    return out


@pytest.mark.parametrize("L", [31, 85])
def test_synthesis_matches_lpmv_reference(L):
    """synthesize on the grid and synth_at at random points, the poles
    included, agree with the lpmv reference for coefficients at every
    (l, m)."""
    g = make_grid(L)
    rng = np.random.default_rng(L)
    coeffs = random_band_limited(L, rng)
    want = lpmv_synthesis(coeffs, g.x[:, None], g.phi[None, :])
    got = synthesize(coeffs, g)
    assert np.abs(got - want).max() < 1e-10 * np.abs(want).max()
    pts = rng.standard_normal((40, 3))
    pts[:2] = [[0.0, 0.0, 1.0], [0.0, 0.0, -1.0]]
    pts /= np.linalg.norm(pts, axis=1, keepdims=True)
    want = lpmv_synthesis(coeffs, pts[:, 2], np.arctan2(pts[:, 1], pts[:, 0]))
    got = synth_at(coeffs, pts)
    assert np.abs(got - want).max() < 1e-10 * np.abs(want).max()


@pytest.mark.parametrize("l", [0, 1, 4, 9])
def test_synth_at_zonal_legendre(l):
    """A unit (l,0) coefficient evaluates to sqrt(2l+1) P_l(z) anywhere."""
    L = 12
    coeffs = np.zeros((L + 1, 2 * L + 1))
    coeffs[l, 0 + L] = 1.0
    rng = np.random.default_rng(l)
    pts = rng.standard_normal((20, 3))
    pts /= np.linalg.norm(pts, axis=1, keepdims=True)
    got = synth_at(coeffs, pts)
    want = np.sqrt(2.0 * l + 1.0) * eval_legendre(l, pts[:, 2])
    assert np.abs(got - want).max() < 1e-11


def test_boundary_field_lazy_sync():
    """Values and coefficients describe the same field whichever came first."""
    L = 8
    g = make_grid(L)
    rng = np.random.default_rng(2)
    coeffs = random_band_limited(L, rng)
    from_coeffs = BoundaryField.from_coeffs(coeffs, g)
    from_values = BoundaryField.from_values(from_coeffs.values, g)
    assert np.abs(from_values.coeffs - coeffs).max() < 1e-11


def test_filter_idempotent():
    """Band-limit projection applied twice equals applied once."""
    g = make_grid(8)
    nodes = g.nodes()
    rough = np.exp(nodes[..., 2] * 3.0) + np.abs(nodes[..., 0])
    once = BoundaryField.from_values(rough, g).filtered()
    twice = once.filtered()
    assert np.abs(once.values - twice.values).max() < 1e-11


def test_field_shape_mismatch_rejected():
    g = make_grid(8)
    with pytest.raises(ValueError):
        BoundaryField.from_values(np.ones((3, 3)), g)
