"""Tests for the target-function mini-language and its sphere calculus.

Validates:
- parsing of monomial, bump, and Legendre terms with signs and powers
- rejection of malformed specs, non-finite numbers and overflowing term
  bounds
- values, tangential gradients, surface Laplacians against closed forms
  and central finite differences
- ambient Hessians of mixed monomials against central differences of
  the gradient
- extremum refinement beyond grid resolution
- the tangent basis and Hessian of a stack of points, bit for bit
  against one point at a time
- the probe lattices of extrema and morse, bit for bit against sin and
  cos taken over the meshgrid
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import eval_legendre

from bmcflow.errors import SpecParseError
from bmcflow.prescribed import _tangent_basis, parse_f_spec, probe_lattice
from bmcflow.spectral import make_grid


def sphere_points(n, seed=0):
    rng = np.random.default_rng(seed)
    p = rng.standard_normal((n, 3))
    return p / np.linalg.norm(p, axis=1, keepdims=True)


def test_constant():
    f = parse_f_spec("1")
    pts = sphere_points(5)
    assert np.allclose(f(pts), 1.0)
    assert np.allclose(f.grad_sphere(pts), 0.0)


def test_simple_polynomial_values():
    """f = 2 - z^2 takes value 1 at the poles and 2 on the equator."""
    f = parse_f_spec("2 - z^2")
    assert abs(f(np.array([0.0, 0.0, 1.0])) - 1.0) < 1e-14
    assert abs(f(np.array([0.0, 0.0, -1.0])) - 1.0) < 1e-14
    assert abs(f(np.array([1.0, 0.0, 0.0])) - 2.0) < 1e-14


def test_whitespace_and_stars_ignored():
    f1 = parse_f_spec("4+0.3x^2+0.6y^2+1.05z^2")
    f2 = parse_f_spec("4 + 0.3*x^2 + 0.6 * y^2 + 1.05 z^2")
    pts = sphere_points(20, seed=1)
    assert np.abs(f1(pts) - f2(pts)).max() < 1e-14


def test_monomial_products():
    """A term like 2xy parses as the product of coordinates."""
    f = parse_f_spec("2xy")
    pts = sphere_points(20, seed=2)
    assert np.abs(f(pts) - 2.0 * pts[:, 0] * pts[:, 1]).max() < 1e-14


def test_leading_sign():
    f = parse_f_spec("-z + 1")
    assert abs(f(np.array([0.0, 0.0, 1.0]))) < 1e-14


def test_bump_values():
    """bump(k; p) = exp(-k(1 - <x, p/|p|>)) peaks at 1 in direction p."""
    f = parse_f_spec("bump(8; 0,0,-1)")
    S = np.array([0.0, 0.0, -1.0])
    N = np.array([0.0, 0.0, 1.0])
    assert abs(f(S) - 1.0) < 1e-14
    assert abs(f(N) - np.exp(-16.0)) < 1e-18


def test_bump_direction_normalized():
    """The bump direction may be given unnormalized."""
    f1 = parse_f_spec("bump(4; 0,0,2)")
    f2 = parse_f_spec("bump(4; 0,0,1)")
    pts = sphere_points(10, seed=3)
    assert np.abs(f1(pts) - f2(pts)).max() < 1e-14


def test_legendre_values():
    """legendre(3) evaluates P_3 of the height coordinate."""
    f = parse_f_spec("legendre(3)")
    pts = sphere_points(30, seed=4)
    assert np.abs(f(pts) - eval_legendre(3, pts[:, 2])).max() < 1e-13


@pytest.mark.parametrize("bad", [
    "2 - q^2",
    "bump(8; 0,0,1)x",
    "legendre(2)z",
    "bump(1; 0,0,1)legendre(2)",
    "",
    "z^",
    "bump(8)",
    # unbalanced parentheses, an empty term, and bump arguments that are not a number and a nonzero 3-vector
    "2 + (z",
    "2 + z)",
    "2 +",
    "bump(x; 0,0,1)",
    "bump(1; 0,0)",
    "2 + bump(1; 0,0,0)",
    # numbers that are not finite, and bumps whose Hessian scale coef * k^2 overflows
    "1e400 + z",
    "2 - 1e400 z^2",
    "1e400 legendre(2)",
    "2 + 1e400 bump(1; 0,0,1)",
    "2 + bump(nan; 0,0,1)",
    "2 + bump(inf; 0,0,1)",
    "2 + bump(1e400; 0,0,1)",
    "2 + bump(8; nan,0,1)",
    "2 + bump(8; 0,-inf,1)",
    "2 + bump(8; 0,0,1e400)",
    "bump(1e200; 0,0,1)",
    "1e300 bump(1e5; 0,0,1)",
    # finite numbers whose term bound, or sum of term bounds, overflows
    "1e308 x^2",
    "1e308 + 1e308 z",
    "2 + bump(-400; 0,0,1)",
    # finite term bounds whose tangential products (Newton det, |grad f|^2) overflow
    "2 + bump(-300; 0,0,1)",
    "1e307 legendre(4)",
    # powers and Legendre degrees too large to evaluate
    pytest.param("x^" + "9" * 400, id="x^<400 nines>"),
    pytest.param("legendre(" + "9" * 100 + ")", id="legendre(<100 nines>)"),
    pytest.param("2 + x^" + "9" * 5000, id="2 + x^<5000 nines>"),
    "x^5000 y^5001",
    "legendre(-1)",
])
def test_malformed_specs_rejected(bad):
    with pytest.raises(SpecParseError):
        parse_f_spec(bad)


def test_largest_finite_bump_accepted():
    """coef * k^2 just under the largest double still parses, and its Hessian is finite."""
    f = parse_f_spec("bump(1e154; 0,0,1)")
    assert np.isfinite(f.ambient_hess(np.array([0.0, 0.0, 1.0]))).all()


def test_mean_of_sign_changing_target():
    """Quadrature oracle (notes): mean of 2 - z^2 over the sphere is 5/3."""
    g = make_grid(15)
    f = parse_f_spec("2 - z^2")
    assert abs(g.integrate(f(g.nodes())) - 5.0 / 3.0) < 1e-13


def test_mean_of_bump_target():
    """Quadrature oracle (notes): mean of 1.34 - 1.36 exp(-8(1+z)) is
    1.2550000095654898 (= 1.34 - 1.36(1 - e^{-16})/16 in closed form)."""
    g = make_grid(31)
    f = parse_f_spec("1.34 - 1.36bump(8; 0,0,-1)")
    assert abs(g.integrate(f(g.nodes())) - 1.2550000095654898) < 1e-12


@pytest.mark.parametrize("spec,lap", [
    ("z", lambda p: -2.0 * p[:, 2]),
    ("x", lambda p: -2.0 * p[:, 0]),
    ("xy", lambda p: -6.0 * p[:, 0] * p[:, 1]),
    ("2 - z^2", lambda p: 6.0 * p[:, 2] ** 2 - 2.0),
])
def test_surface_laplacian_closed_forms(spec, lap):
    """Degree-one coordinates and degree-two harmonics have eigenvalue
    Laplacians; z^2 = 2/3 + (degree-2 part) gives 2 - 6z^2."""
    f = parse_f_spec(spec)
    pts = sphere_points(25, seed=5)
    assert np.abs(f.lap_sphere(pts) - lap(pts)).max() < 1e-12


def test_legendre_laplacian_eigenvalue():
    """P_l of the height is a degree-l harmonic: lap = -l(l+1) P_l."""
    f = parse_f_spec("legendre(3)")
    pts = sphere_points(25, seed=6)
    want = -12.0 * eval_legendre(3, pts[:, 2])
    assert np.abs(f.lap_sphere(pts) - want).max() < 1e-12


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_gradient_matches_finite_differences(seed):
    """grad_sphere agrees with central differences along great circles."""
    f = parse_f_spec("2 - z^2 + 0.3xy + 0.5bump(3; 1,0,0)")
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(3)
    x /= np.linalg.norm(x)
    v = rng.standard_normal(3)
    v -= (v @ x) * x
    v /= np.linalg.norm(v)
    h = 1e-6
    fd = (f(np.cos(h) * x + np.sin(h) * v) - f(np.cos(h) * x - np.sin(h) * v)) / (2 * h)
    assert abs(f.grad_sphere(x) @ v - fd) < 1e-7


@pytest.mark.parametrize("spec", ["3 + x y z + 0.2x^3", "x^2 y z^3", "1 - 0.5x^3 y + y^2 z^2"])
def test_ambient_hessian_matches_finite_differences(spec):
    """ambient_hess of mixed cubic and higher monomials agrees with
    central differences of ambient_grad, off the sphere as well."""
    f = parse_f_spec(spec)
    pts = np.random.default_rng(2).uniform(-1.2, 1.2, (30, 3))
    h = 1e-6
    fd = np.stack([(f.ambient_grad(pts + h * e) - f.ambient_grad(pts - h * e)) / (2 * h) for e in np.eye(3)],
                  axis=-1)
    assert np.abs(f.ambient_hess(pts) - fd).max() < 1e-7


def test_tangent_hessian_pole_values():
    """Oracle (sympy, notes): 2 + 0.5z has tangent eigenvalues -0.5 (double)
    at the north pole and +0.5 (double) at the south pole."""
    f = parse_f_spec("2 + 0.5z")
    H_n, _ = f.tangent_hessian(np.array([0.0, 0.0, 1.0]))
    H_s, _ = f.tangent_hessian(np.array([0.0, 0.0, -1.0]))
    assert np.abs(np.linalg.eigvalsh(H_n) - (-0.5)).max() < 1e-12
    assert np.abs(np.linalg.eigvalsh(H_s) - 0.5).max() < 1e-12
    assert abs(f.lap_sphere(np.array([0.0, 0.0, 1.0])) + 1.0) < 1e-12


def test_tangent_hessian_ellipsoid_eigenvalues():
    """Oracle (sympy, notes): 4 + 0.3x^2 + 0.6y^2 + 1.05z^2 has tangent
    eigenvalues (0.6, 1.5) at +-e1, (-0.6, 0.9) at +-e2, (-1.5, -0.9) at +-e3."""
    f = parse_f_spec("4 + 0.3x^2 + 0.6y^2 + 1.05z^2")
    for axis, eigs in [(0, (0.6, 1.5)), (1, (-0.6, 0.9)), (2, (-1.5, -0.9))]:
        x = np.zeros(3)
        x[axis] = 1.0
        H, _ = f.tangent_hessian(x)
        got = np.sort(np.linalg.eigvalsh(H))
        assert np.abs(got - np.sort(eigs)).max() < 1e-12


@pytest.mark.parametrize("spec", ["4 + 0.3x^2 + 0.6y^2 + 1.05z^2", "3 + x y z + 0.2x^3",
                                  "1 + 0.3legendre(3) + 0.1x^2 y", "1 + bump(5; 1,1,0) + bump(5; -1,0,1)"])
def test_tangent_stack_matches_points(spec):
    """A stack rounds exactly as its points one at a time, on both sides of
    the |z| = 0.9 switch of the basis and at both poles; the basis is
    orthonormal and tangent."""
    pts = np.concatenate([sphere_points(200, seed=3), [[0.0, 0.0, 1.0], [0.0, 0.0, -1.0]]])
    polar = np.abs(pts[:, 2]) >= 0.9
    assert 0 < polar.sum() < len(pts) - 2
    f = parse_f_spec(spec)
    basis = _tangent_basis(pts)
    H, H_basis = f.tangent_hessian(pts.reshape(2, -1, 3))
    assert np.array_equal(H_basis.reshape(basis.shape), basis)
    for x, b, h in zip(pts, basis, H.reshape(-1, 2, 2)):
        assert np.array_equal(_tangent_basis(x), b)
        assert np.array_equal(f.tangent_hessian(x)[0], h)
    assert np.abs(basis @ basis.transpose(0, 2, 1) - np.eye(2)).max() < 1e-15
    assert np.abs(np.einsum("kij,kj->ki", basis, pts)).max() < 1e-15


def test_extrema_refinement():
    """The polished extrema of 2 - z^2 are exactly (1, 2) although no grid
    node sits on a pole or precisely on the equator."""
    f = parse_f_spec("2 - z^2")
    fmin, fmax = f.extrema()
    assert abs(fmin - 1.0) < 1e-9
    assert abs(fmax - 2.0) < 1e-9


def test_extrema_of_bump_target():
    """max f = 1.34 - 1.36 e^{-16} sits at the north pole, min = -0.02 at
    the south pole."""
    f = parse_f_spec("1.34 - 1.36bump(8; 0,0,-1)")
    fmin, fmax = f.extrema()
    assert abs(fmin - (-0.02)) < 1e-9
    assert abs(fmax - (1.34 - 1.36 * np.exp(-16.0))) < 1e-9


@pytest.mark.parametrize("theta, phi", [
    (np.linspace(0, np.pi, 64), np.linspace(0, 2 * np.pi, 128, endpoint=False)),
    ((np.arange(124) + 0.5) * np.pi / 124, 2.0 * np.pi * np.arange(248) / 248),
])
def test_probe_lattice_matches_meshgrid(theta, phi):
    """The extrema lattice and the L = 31 critical-point lattice of
    morse, built from outer products of the 1-D sines and cosines, equal
    sin and cos taken over the meshgrid, bit for bit."""
    T, P = np.meshgrid(theta, phi, indexing="ij")
    want = np.stack([np.sin(T) * np.cos(P), np.sin(T) * np.sin(P), np.cos(T)], axis=-1)
    assert np.array_equal(probe_lattice(theta, phi), want)
