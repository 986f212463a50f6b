"""Tests for mean curvature, the normalized energy, and the frozen bounds.

Validates:
- the curvature operator on constants and band-limited factors, and its
  equivariance under rotations of the sphere
- spectral and boundary forms of the energy agree to roundoff
- E_f, lambda, the dissipation rate and the multiplier derivative against
  hand-integrated closed forms for u = 1, f = 2 - z^2
- scale invariance of E_f and the trace inequality
- the frozen t = 0 window/barrier constants
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bmcflow.curvature import (
    A_N,
    N,
    OMEGA_N,
    TWO_SHARP,
    barrier_gamma,
    energy_functional,
    flow_bounds,
    lambda_prime,
    lp_residual,
    mean_curvature,
    total_energy,
    volume,
)
from bmcflow.errors import AdmissibilityError
from bmcflow.morse import check_conditions
from bmcflow.prescribed import parse_f_spec
from bmcflow.spectral import BoundaryField, dtn_apply, make_grid, synth_at


def constant_field(grid, c=1.0):
    return BoundaryField(grid, values=np.full(grid.shape, c))


def random_positive_field(grid, rng, lmax=6, amp=0.05):
    L = grid.L
    c = np.zeros((L + 1, 2 * L + 1))
    for l in range(1, min(lmax, L) + 1):
        c[l, L - l:L + l + 1] = amp * rng.standard_normal(2 * l + 1) / (1 + l) ** 2
    c[0, L] = 1.0
    u = BoundaryField(grid, coeffs=c)
    assert u.values.min() > 0.0
    return u


def test_curvature_of_constant():
    """u = c has curvature c^{-2}: the sphere of conformal radius c^2."""
    g = make_grid(8)
    for c in (1.0, 0.5, 3.0):
        H = mean_curvature(constant_field(g, c))
        assert np.abs(H.values - c ** (-2.0)).max() < 1e-12


def test_total_energy_single_mode():
    """E(1 + 0.1 Y_21) = 1 + (2*2+1) * 0.01 = 1.05 in the spectral form."""
    g = make_grid(31)
    c = np.zeros((32, 63))
    c[0, 31] = 1.0
    c[2, 32] = 0.1
    u = BoundaryField(g, coeffs=c)
    assert abs(total_energy(u) - 1.05) < 1e-14


def test_boundary_form_matches_spectral_form():
    """mean(H u^4) integrates the same energy: H u^4 = 2 u Au + u^2 is
    band-limited at twice the grid degree, inside exact quadrature."""
    g = make_grid(16)
    rng = np.random.default_rng(7)
    u = random_positive_field(g, rng)
    H = mean_curvature(u)
    boundary = g.integrate(H.values * u.values ** 4)
    assert abs(boundary - total_energy(u)) < 1e-12


def test_energy_report_closed_form():
    """Hand integration oracle: u = 1, f = 2 - z^2 gives E = 1,
    denom = 5/3, E_f = sqrt(3/5) = 0.7745966692414833, lambda = 3/5."""
    g = make_grid(15)
    u = constant_field(g)
    rep = energy_functional(u, parse_f_spec("2 - z^2")(g.nodes()))
    assert abs(rep.E - 1.0) < 1e-14
    assert abs(rep.denom - 5.0 / 3.0) < 1e-14
    assert abs(rep.E_f - 0.7745966692414833) < 1e-14
    assert abs(rep.lam - 0.6) < 1e-14


def test_dissipation_closed_form():
    """Hand integration oracle (mean z^2 = 1/3, mean z^4 = 1/5):
    F2 = mean((0.6(2-z^2) - 1)^2) = 0.032 for u = 1."""
    g = make_grid(15)
    u = constant_field(g)
    f = parse_f_spec("2 - z^2")(g.nodes())
    assert abs(lp_residual(u, f, 0.6, 2) - 0.032) < 1e-14


def test_lambda_prime_closed_form():
    """Hand integration oracle: lambda' = -(3/5)[0.016 + 0.016] = -0.0192
    for u = 1, f = 2 - z^2 at lambda = 0.6."""
    g = make_grid(15)
    u = constant_field(g)
    f = parse_f_spec("2 - z^2")(g.nodes())
    assert abs(lambda_prime(u, f, 0.6) - (-0.0192)) < 1e-15


def test_stationary_point_has_zero_dissipation():
    """u = 1 with f = 1 sits at H = lambda f exactly."""
    g = make_grid(8)
    u = constant_field(g)
    f = constant_field(g).values
    rep = energy_functional(u, f)
    assert abs(rep.lam - 1.0) < 1e-14
    assert lp_residual(u, f, rep.lam, 2) < 1e-27
    assert abs(lambda_prime(u, f, rep.lam)) < 1e-14


@settings(max_examples=5, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_mean_curvature_rotation_equivariant(seed):
    """H(u o R) = H(u) o R for a full-band u: the field u o R, sampled
    off the grid at R x, goes through the grid transforms, while the
    reference (2 DtN u + u) u^-3 (n = 2) is evaluated at R x directly."""
    g = make_grid(31)
    rng = np.random.default_rng(seed)
    u = random_positive_field(g, rng, lmax=31)
    q, r = np.linalg.qr(rng.standard_normal((3, 3)))
    R = q * np.sign(np.diag(r))
    moved = g.nodes() @ R.T
    u_R = synth_at(u.coeffs, moved)
    want = (2.0 * synth_at(dtn_apply(u.coeffs), moved) + u_R) * u_R**-3
    got = mean_curvature(BoundaryField(g, values=u_R)).values
    assert np.abs(got - want).max() < 1e-10 * np.abs(want).max()


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), scale=st.floats(0.2, 5.0))
def test_normalized_energy_scale_invariant(seed, scale):
    """E_f(cu) = E_f(u): E scales by c^2 and denom^{1/2} by c^2."""
    g = make_grid(10)
    rng = np.random.default_rng(seed)
    u = random_positive_field(g, rng)
    f = parse_f_spec("2 - z^2")(g.nodes())
    a = energy_functional(u, f).E_f
    b = energy_functional(BoundaryField(g, values=scale * u.values), f).E_f
    assert abs(a - b) < 1e-10 * max(1.0, a)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_trace_inequality(seed):
    """E(u) >= vol(u)^{1/2}, with equality exactly at the constants."""
    g = make_grid(10)
    rng = np.random.default_rng(seed)
    u = random_positive_field(g, rng)
    assert total_energy(u) >= volume(u) ** 0.5 - 1e-10


def test_flow_bounds_closed_forms():
    """Hand-evaluated oracle for u0 = 1, f = 2 - z^2, Lambda0 = 10:
    lambda1 = 0.5, lambda2 = 0.6,
    gamma = -sqrt((4/3)(1.2)^2 + (16/3)*10) = -7.433258594542055,
    sigma = (5 sqrt(2) - 6)/12, beta = sqrt((1 + sigma) * 3/5)."""
    g = make_grid(15)
    u = constant_field(g)
    f = parse_f_spec("2 - z^2")
    b = flow_bounds(u, f, mean_curvature(u).values)
    assert abs(b.lambda1 - 0.5) < 1e-12
    assert abs(b.lambda2 - 0.6) < 1e-12
    assert abs(b.gamma - (-7.433258594542055)) < 1e-12
    assert abs(b.c_star - (b.gamma - 1.2)) < 1e-12
    sigma = (5.0 * np.sqrt(2.0) - 6.0) / 12.0
    assert abs(b.sigma - sigma) < 1e-12
    assert abs(b.beta - np.sqrt((1.0 + sigma) * 0.6)) < 1e-12
    assert b.condition_ii_ok
    assert abs(b.f_absmax - 2.0) < 1e-12
    assert abs(b.min_H0 - 1.0) < 1e-12


def test_flow_bounds_barrier_uses_min_branch():
    """With a huge Lambda0 the square-root branch dominates; with a tiny
    one the min H - lambda2 max|f| branch does (min H0 = 1, lambda2 = 0.6
    and max|f| = 2 as for u0 = 1, f = 2 - z^2)."""
    tiny = barrier_gamma(1.0, 0.6, 2.0, 0.01)
    assert abs(tiny - min(1.0 - 1.2, -np.sqrt((4 / 3) * 1.44 + (8 / 3) * 0.02))) < 1e-12
    big = barrier_gamma(1.0, 0.6, 2.0, 1e4)
    assert big < -100.0


def test_flow_bounds_negative_sigma_flagged():
    """f = 1 + 0.9 legendre(1) has max/mean = 1.9 > sqrt(2): sigma < 0."""
    g = make_grid(15)
    u = constant_field(g)
    f = parse_f_spec("1 + 0.9z")
    b = flow_bounds(u, f, mean_curvature(u).values)
    assert b.sigma < 0.0
    assert not b.condition_ii_ok


def test_inadmissible_rejections():
    """mean(z) vanishes in the continuum; quadrature returns a few 1e-17
    whose sign changes with L, so the rejections must hold at every L."""
    f = parse_f_spec("z")
    for L in (10, 12, 14, 31):
        g = make_grid(L)
        u = constant_field(g)
        z = f(g.nodes())
        with pytest.raises(AdmissibilityError):
            energy_functional(u, z)
        with pytest.raises(AdmissibilityError):
            flow_bounds(u, f, mean_curvature(u).values)
        with pytest.raises(AdmissibilityError):
            lambda_prime(u, z, 1.0)
        assert check_conditions(f, g)["conditions"]["positive_mean"] is False
    g = make_grid(10)
    bad = BoundaryField(g, values=np.full(g.shape, -1.0))
    with pytest.raises(AdmissibilityError) as exc:
        energy_functional(bad, constant_field(g).values)
    assert exc.value.condition == "positivity"


def test_volume_of_constant():
    """vol(c) = c^4 for the double-criticality exponent at n = 2; the
    module constants equal the paper's general-n formulas at n = N exactly."""
    g = make_grid(8)
    assert abs(volume(constant_field(g, 2.0)) - 16.0) < 1e-12
    assert TWO_SHARP == 4.0
    assert A_N == 2.0
    assert abs(OMEGA_N - 4.0 * np.pi) < 1e-12
    assert TWO_SHARP == 2.0 * N / (N - 1)
    assert A_N == 2.0 / (N - 1)
    assert OMEGA_N == 2.0 * np.pi ** ((N + 1) / 2) / math.gamma((N + 1) / 2)
