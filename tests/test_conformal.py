"""Tests for Moebius dilations, bubbles, recentering, and cap integrals.

Validates:
- boundary_action: the conformal factor at the fixed points, the
  identity map, and the ball-point form of image and factor against the
  chart formulas for eps from 1e-7 to 1e7
- the one-parameter group law and exact inversion
- bubble closed forms: the factor of the generating map's inverse (from
  boundary_action), peak height, zonal coefficient decay, unit boundary
  volume, constant curvature; eps outside (0, 1] is rejected
- the closed-form cap mass against a hand antiderivative
- center-of-mass values against a closed-form loop integral
- volume and energy invariance of the weighted pullback
- the recentering solve on bubbles and on the constant, and on a sum of
  two bubbles whose volume a degenerate map squeezes off the grid; its
  residual, volume and (for bubbles) map on random perturbed bubbles,
  two-bubble sums and smooth fields
- the n = 2 bubble centre g(s) against quadrature, its series against its
  closed form at the switch, its derivative against differences, and its
  inverse, the solve's start
- the NormalizeError of a solve cut short names the map it stopped at
  and that map's residual
- the change of variables S(pullback) = mean(phi^{-1}(y) u^{2#}) and its
  differences against the true pullback; the closed-form Jacobian against
  per-map differences; bounds on the pullbacks a solve makes on resolved
  and unresolved bubbles, one Jacobian per Newton iteration and no pass
  over the nodes outside a pullback; the line search halving a Newton
  step that leaves the ball; the restart from R0/2 when the solve from
  the bubble start stalls
- the cap integrals that bubble probe reports, at the bubble's centre:
  resolved bubbles' cap fractions against bubble_cap_mass, and the
  constant's caps about any point equal to the cap areas
- pullback of a nonpositive field raises AdmissibilityError
- the cap multipliers against scipy's eval_legendre, and the batched
  cap integrals against one evaluation per radius
"""

import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import eval_legendre

from bmcflow import conformal
from bmcflow.conformal import (
    CAP_RADII,
    ConformalMap,
    _SERIES_BELOW,
    _bubble_center,
    _bubble_radius,
    _cap_multipliers,
    _center_jacobian,
    _map_from_ball_point,
    boundary_action,
    bubble_cap_mass,
    bubble_field,
    cap_integrals,
    center_of_mass,
    normalize,
    pullback_normalized,
)
from bmcflow.curvature import TWO_SHARP, mean_curvature, total_energy, volume
from bmcflow.errors import AdmissibilityError, NormalizeError
from bmcflow.spectral import BoundaryField, analyze, make_grid, synth_at

N_POLE = np.array([0.0, 0.0, 1.0])
S_POLE = np.array([0.0, 0.0, -1.0])


def cap_mass_closed(eps, r):
    """Hand antiderivative of the cap integral of the bubble density:
    (eps(2-eps))^2/(4b) [ 1/(1-b)^2 - 1/(1+b^2-2b cos r) ], b = 1-eps."""
    b = 1.0 - eps
    return (eps * (2.0 - eps)) ** 2 / (4.0 * b) * (
        1.0 / (1.0 - b) ** 2 - 1.0 / (1.0 + b * b - 2.0 * b * np.cos(r))
    )


def s_z_closed(eps):
    """Hand loop integral for the height of the bubble's center of mass:
    S_z = (eps(2-eps))^2/(8b^2) [c/eps^2 - c/(2-eps)^2 - 2 ln((2-eps)/eps)]
    with b = 1-eps, c = 1+b^2."""
    b = 1.0 - eps
    c = 1.0 + b * b
    return (eps * (2.0 - eps)) ** 2 / (8.0 * b * b) * (
        c / eps**2 - c / (2.0 - eps) ** 2 - 2.0 * np.log((2.0 - eps) / eps)
    )


def random_unit(rng):
    v = rng.standard_normal(3)
    return v / np.linalg.norm(v)


def pulled_back_center(w, g, mp):
    """mean(phi^{-1}(y) w(y)), the change-of-variables form of S(pullback_normalized(u, mp)), w = u^{2#}."""
    return g.integrate(np.moveaxis(boundary_action(mp.inverse(), g.nodes())[0], -1, 0) * w)


def chart_action(p, eps, x):
    """The module docstring's chart formulas: with t = <x, p> and D(t) = (1+t) + eps^2 (1-t),
    phi(x) = (2 eps x_perp + ((1+t) - eps^2 (1-t)) p) / D and lambda(x) = 2 eps / D."""
    t = x @ p
    D = (1.0 + t) + eps**2 * (1.0 - t)
    along = (1.0 + t) - eps**2 * (1.0 - t)
    return (2.0 * eps * (x - t[:, None] * p) + along[:, None] * p) / D[:, None], 2.0 * eps / D


def smooth_positive_coeffs(L, rng):
    """1 plus degrees 1..4, each a random coefficient vector of norm 0.1.

    By the addition theorem |sum_m c_lm Y_lm| <= |c_l| sqrt(2l+1), so the
    field stays above 1 - 0.1 (sqrt 3 + sqrt 5 + sqrt 7 + 3) > 0.03.
    """
    c = np.zeros((L + 1, 2 * L + 1))
    c[0, L] = 1.0
    for l in range(1, 5):
        v = rng.standard_normal(2 * l + 1)
        c[l, L - l:L + l + 1] = 0.1 * v / np.linalg.norm(v)
    return c


def test_factor_at_fixed_points():
    """The factor is eps at p, 1/eps at -p, and 2eps/(1+eps^2) on the
    orthogonal circle."""
    mp = ConformalMap(N_POLE, 0.3)
    assert abs(boundary_action(mp, N_POLE)[1] - 0.3) < 1e-14
    assert abs(boundary_action(mp, S_POLE)[1] - 1.0 / 0.3) < 1e-14
    eq = np.array([1.0, 0.0, 0.0])
    assert abs(boundary_action(mp, eq)[1] - 0.6 / 1.09) < 1e-14


@pytest.mark.parametrize("eps", [1e-7, 1e-4, 0.3, 1.0, 3.0, 1e4, 1e7])
def test_boundary_action_matches_chart_formula(eps):
    """The ball-point form q (x + c) + c, q = (1-|c|^2) / |x + c|^2, equals
    the chart form: the image to 1e-13 and the factor to 1e-12 relative.
    Forming 1-|c|^2 as 1 - c.c instead of 4 eps / (1+eps)^2 loses 6e-10 of
    the factor at eps = 1e-7.  Within 0.03 of a fixed point +-p, at eps far
    from 1, the ball form carries the roundoff of |x| - 1 amplified by
    1 / |x -+ p|^2: at |x - p|^2 = 2e-5 and eps = 1e4 the factor is off by
    2.5e-11 (the chart form by 1.9e-12 in extended precision) and the image
    by 1.6e-12.  There both gates are scaled by 1e-3 / |x -+ p|^2."""
    rng = np.random.default_rng(11)
    for _ in range(5):
        mp = ConformalMap(random_unit(rng), eps)
        x = rng.standard_normal((400, 3))
        x /= np.linalg.norm(x, axis=1, keepdims=True)
        near = np.minimum(((x - mp.p) ** 2).sum(axis=1), ((x + mp.p) ** 2).sum(axis=1))
        scale = np.maximum(1.0, 1e-3 / near)
        image, factor = chart_action(mp.p, eps, x)
        mapped, q = boundary_action(mp, x)
        assert np.all(np.abs(mapped - image).max(axis=1) <= 1e-13 * scale)
        assert np.all(np.abs(q / factor - 1.0) <= 1e-12 * scale)


def test_identity_map():
    mp = ConformalMap(N_POLE, 1.0)
    rng = np.random.default_rng(0)
    pts = np.array([random_unit(rng) for _ in range(50)])
    mapped, q = boundary_action(mp, pts)
    assert np.abs(mapped - pts).max() < 1e-14
    assert np.abs(q - 1.0).max() < 1e-14


def test_fixed_points_of_map():
    mp = ConformalMap(np.array([1.0, 2.0, -1.0]), 0.45)
    for x in (mp.p, -mp.p):
        assert np.abs(boundary_action(mp, x)[0] - x).max() < 1e-14


def test_group_law_same_axis():
    """Dilations along one axis compose multiplicatively: 0.5 then 0.4
    equals 0.2."""
    rng = np.random.default_rng(1)
    pts = np.array([random_unit(rng) for _ in range(1000)])
    a = ConformalMap(N_POLE, 0.5)
    b = ConformalMap(N_POLE, 0.4)
    c = ConformalMap(N_POLE, 0.2)
    mapped_a, lam_a = boundary_action(a, pts)
    composed, lam_b = boundary_action(b, mapped_a)
    mapped_c, lam_c = boundary_action(c, pts)
    assert np.abs(composed - mapped_c).max() < 1e-10
    assert np.abs(lam_b * lam_a - lam_c).max() < 1e-10


def test_inverse_map():
    mp = ConformalMap(np.array([0.3, -0.2, 0.8]), 0.37)
    rng = np.random.default_rng(2)
    pts = np.array([random_unit(rng) for _ in range(200)])
    back = boundary_action(mp.inverse(), boundary_action(mp, pts)[0])[0]
    assert np.abs(back - pts).max() < 1e-12


def test_map_validation():
    with pytest.raises(ValueError):
        ConformalMap(np.zeros(3), 0.5)
    with pytest.raises(ValueError):
        ConformalMap(N_POLE, 0.0)
    with pytest.raises(ValueError):
        ConformalMap(N_POLE, -1.0)


def test_bubble_field_closed_form_and_map_form_agree():
    """The closed form is the conformal factor, to the power (n-1)/2, of the
    inverse of the generating map ConformalMap(p, eps/(2-eps))."""
    g = make_grid(31)
    eps = 0.4
    u = bubble_field(N_POLE, eps, g)
    want = boundary_action(ConformalMap(N_POLE, (2.0 - eps) / eps), g.nodes())[1] ** 0.5
    assert np.abs(u.values - want).max() < 1e-12


def test_bubble_peak_value():
    """Peak height sqrt((2-eps)/eps); synthesis at the exact peak agrees
    up to the truncated zonal tail (~2 * 0.6^32 at this resolution)."""
    g = make_grid(31)
    u = bubble_field(N_POLE, 0.4, g)
    peak = synth_at(u.coeffs, N_POLE)
    assert abs(peak - np.sqrt(1.6 / 0.4)) < 1e-6


def test_bubble_zonal_decay():
    """Scaled zonal coefficients fall geometrically:
    c_l sqrt(2l+1) = sqrt(eps(2-eps)) (1-eps)^l, up to quadrature
    aliasing of the truncated tail (worst near the band edge)."""
    g = make_grid(31)
    eps = 0.3
    u = bubble_field(N_POLE, eps, g)
    c = u.coeffs
    amp = np.sqrt(eps * (2.0 - eps))
    for l in range(16):
        got = c[l, 31] * np.sqrt(2 * l + 1.0)
        assert abs(got - amp * (1.0 - eps) ** l) < 1e-7
    off_zonal = np.abs(c[:16]).max(axis=0)
    assert np.delete(off_zonal, 31).max() < 1e-12


def test_bubble_volume_and_curvature():
    """Bubbles have unit boundary volume and curvature one; on the grid
    both hold to the resolution of the zonal tail."""
    g = make_grid(31)
    u = bubble_field(N_POLE, 0.4, g)
    assert abs(volume(u) - 1.0) < 1e-8
    H = mean_curvature(u)
    assert np.abs(H.values - 1.0).max() < 1e-4


def test_bubble_eps_validation():
    g = make_grid(8)
    for bad in (0.0, -0.1, 1.2):
        with pytest.raises(ValueError):
            bubble_field(N_POLE, bad, g)
        with pytest.raises(ValueError):
            bubble_cap_mass(bad, 0.5)


def test_bubble_center_validation():
    """A zero or nan center is rejected, as by ConformalMap, before it is normalized."""
    g = make_grid(8)
    for bad in (np.zeros(3), np.array([np.nan, 0.0, 1.0])):
        with pytest.raises(ValueError, match="nonzero"):
            bubble_field(bad, 0.5, g)


def test_bubble_center_non_finite_or_overflowing():
    """A center with an infinite component is rejected; one whose norm
    overflows or underflows gives the bubble of its direction, bit for bit."""
    g = make_grid(8)
    for bad in ([np.inf, 0.0, 0.0], [1.0, -np.inf, 0.0], [np.nan, np.nan, np.nan], [1.0, 2.0]):
        with pytest.raises(ValueError, match="finite"):
            bubble_field(np.array(bad), 0.9, g)
        with pytest.raises(ValueError, match="finite"):
            ConformalMap(np.array(bad), 0.5)
    want = bubble_field(np.array([1.0, 1.0, 0.0]), 0.9, g).values
    direction = ConformalMap(np.array([1.0, 1.0, 0.0]), 0.5).p
    for scale in (1e308, 1e-320):
        assert np.array_equal(bubble_field(np.array([scale, scale, 0.0]), 0.9, g).values, want)
        assert np.array_equal(ConformalMap(np.array([scale, scale, 0.0]), 0.5).p, direction)


def test_resolution_warning():
    """A bubble whose zonal tail exceeds the band limit warns; a resolved
    one does not."""
    g = make_grid(31)
    with pytest.warns(RuntimeWarning):
        bubble_field(N_POLE, 0.05, g)
    import warnings as _w
    with _w.catch_warnings():
        _w.simplefilter("error")
        bubble_field(N_POLE, 0.4, g)


@pytest.mark.parametrize("eps,r", [
    (0.05, 0.1), (0.05, 0.2), (0.05, 0.5),
    (0.3, 0.5), (0.4, 0.2), (0.7, 0.5), (0.9, 1.0),
])
def test_cap_mass_against_antiderivative(eps, r):
    assert abs(bubble_cap_mass(eps, r) - cap_mass_closed(eps, r)) < 1e-12


def test_cap_mass_frozen_value():
    """Frozen oracle (hand antiderivative, notes): a bubble at eps = 0.05
    holds 0.990016815131 of its volume within geodesic radius 0.5."""
    assert abs(bubble_cap_mass(0.05, 0.5) - 0.990016815131) < 1e-9


def test_cap_mass_uniform_limit():
    """eps = 1 is the round sphere: cap mass is the area fraction."""
    for r in (0.1, 0.5, 1.0):
        assert abs(bubble_cap_mass(1.0, r) - 0.5 * (1.0 - np.cos(r))) < 1e-14


def test_center_of_mass_closed_form():
    """Frozen oracle (hand loop integral, notes): S_z of a north bubble is
    0.9916684950419414 / 0.834097074231405 / 0.7390096039481202 /
    0.3927045319966844 at eps = 0.05 / 0.3 / 0.4 / 0.7."""
    frozen = {
        0.05: 0.9916684950419414,
        0.3: 0.834097074231405,
        0.4: 0.7390096039481202,
        0.7: 0.3927045319966844,
    }
    for eps, want in frozen.items():
        assert abs(s_z_closed(eps) - want) < 1e-12
    g = make_grid(63)
    for eps in (0.3, 0.4, 0.7):
        u = bubble_field(N_POLE, eps, g)
        S, Q = center_of_mass(u)
        assert abs(S[2] - frozen[eps]) < 1e-8
        assert np.abs(S[:2]).max() < 1e-10
        assert Q is not None and Q[2] > 0.999


def test_center_of_mass_constant_is_zero():
    g = make_grid(15)
    u = BoundaryField(g, values=np.ones(g.shape))
    S, Q = center_of_mass(u)
    assert np.abs(S).max() < 1e-14
    assert Q is None


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_pullback_preserves_volume(seed):
    """The weighted pullback is a change of variables for the boundary
    volume."""
    g = make_grid(15)
    rng = np.random.default_rng(seed)
    u = BoundaryField(g, coeffs=smooth_positive_coeffs(15, rng))
    mp = ConformalMap(random_unit(rng), float(rng.uniform(0.7, 1.4)))
    v = pullback_normalized(u, mp)
    assert abs(volume(v) - volume(u)) < 1e-7


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), eps=st.floats(0.5, 1.5))
def test_pullback_preserves_energy(seed, eps):
    """The energy is Moebius invariant: the weighted pullback of a smooth
    field has the same total energy."""
    g = make_grid(48)
    rng = np.random.default_rng(seed)
    u = BoundaryField(g, coeffs=smooth_positive_coeffs(48, rng))
    v = pullback_normalized(u, ConformalMap(random_unit(rng), eps))
    assert abs(total_energy(v) - total_energy(u)) < 1e-12 * total_energy(u)


def test_pullback_identity():
    g = make_grid(15)
    rng = np.random.default_rng(5)
    c = np.zeros((16, 31))
    c[0, 15] = 1.0
    c[2, 15] = 0.1 * rng.standard_normal()
    u = BoundaryField(g, coeffs=c)
    v = pullback_normalized(u, ConformalMap(N_POLE, 1.0))
    assert np.abs(v.values - u.values).max() < 1e-10


def test_normalize_recovers_bubble_parameters():
    """Recentering a 0.4-bubble returns the map of dilation 0.4/(2 - 0.4)
    that generates it, whose pullback is the constant."""
    g = make_grid(31)
    u = bubble_field(N_POLE, 0.4, g)
    out = normalize(u)
    assert out.residual <= 1e-8
    assert abs(out.map.eps / (0.4 / 1.6) - 1.0) < 1e-6
    assert float(out.map.p @ N_POLE) > 1.0 - 1e-6
    assert np.abs(out.v.values - 1.0).max() < 1e-5


def test_normalize_constant_returns_identity():
    g = make_grid(15)
    u = BoundaryField(g, values=np.ones(g.shape))
    out = normalize(u)
    assert out.residual <= 1e-8
    assert abs(out.map.eps - 1.0) < 1e-12
    assert np.abs(out.v.values - 1.0).max() < 1e-12


def two_bubbles(g):
    """bubble(N, 0.4) + 0.5 bubble(e_x, 0.5): boundary volume 3.5768, not 1."""
    return BoundaryField(g, values=bubble_field(N_POLE, 0.4, g).values
                         + 0.5 * bubble_field([1.0, 0.0, 0.0], 0.5, g).values)


def test_normalize_keeps_volume_of_two_bubbles():
    """At L = 15 and 63 the solve lands on eps = 0.392465, p = (0.2036514,
    0, 0.9790435); at L = 31 a residual |S| that is not divided by vol(v)
    once accepted eps = 2.2e-7, where the pullback has lost its volume
    between the nodes."""
    g = make_grid(31)
    u = two_bubbles(g)
    out = normalize(u)
    assert out.residual <= 1e-8
    assert abs(out.map.eps - 0.392465) < 1e-6
    assert np.abs(out.map.p - [0.2036514, 0.0, 0.9790435]).max() < 1e-6
    assert abs(volume(out.v) / volume(u) - 1.0) < 1e-6


@pytest.mark.parametrize("max_iter", [0, 1])
def test_normalize_error_reports_its_map(monkeypatch, max_iter):
    """A solve cut short after max_iter Newton steps from each start raises
    NormalizeError; best_residual is |S(v)| / vol(v) of the pullback by
    best_map, where the restart from R0/2 stopped (about 0.234 after 0
    steps and 0.0245 after 1).  The witness is the two-bubble sum: a
    single bubble's solve starts at its exact map and takes no step."""
    g = make_grid(31)
    u = two_bubbles(g)
    monkeypatch.setattr(conformal, "_NORMALIZE_ITERS", max_iter)
    with pytest.raises(NormalizeError) as info:
        normalize(u)
    v = pullback_normalized(u, info.value.best_map)
    S, _ = center_of_mass(v)
    assert abs(info.value.best_residual - np.linalg.norm(S) / volume(v)) <= 1e-12


def test_degenerate_map_is_not_centered():
    """At this map, found by a solve on the unscaled residual |S|, |S(v)| is
    below 1e-8 only because vol(v) is 5e-9: |S(v)| / vol(v) is 0.997."""
    g = make_grid(31)
    v = pullback_normalized(two_bubbles(g), ConformalMap([0.2982681915517544, 0.0, 0.9544821035034895],
                                                         2.246623204273591e-07))
    S, _ = center_of_mass(v)
    assert np.linalg.norm(S) <= 1e-8
    assert np.linalg.norm(S) / volume(v) > 1e-2


@pytest.mark.parametrize("p", [N_POLE, np.array([0.48, -0.6, 0.64])])
def test_change_of_variables_center(p):
    """S(pullback_normalized(u, mp)) = mean(phi^{-1}(y) u(y)^{2#}) for the
    eps = 0.3 bubble at L = 31 and maps at its peak with eps in [0.3, 1],
    and so do their central differences in b with step 1e-6.
    Measured: 3e-8 for S, 3.2e-6 for the Jacobian at eps = 0.3; that gap
    is the truncation of the bubble at L = 31 (0.7^32 ~ 1e-5) which the
    pullback's synth_at sees and the closed form does not (at L = 47 the
    Jacobians agree to 1.4e-8)."""
    g = make_grid(31)
    u = bubble_field(p, 0.3, g)
    w = u.values ** TWO_SHARP
    h = 1e-6
    for eps in (0.3, 0.5, 0.7, 1.0):
        mp = ConformalMap(p, eps)
        assert np.abs(center_of_mass(pullback_normalized(u, mp))[0] - pulled_back_center(w, g, mp)).max() < 1e-6
        b = (1.0 - eps) / (1.0 + eps) * p
        for db in h * np.eye(3):
            hi, lo = _map_from_ball_point(b + db), _map_from_ball_point(b - db)
            true = center_of_mass(pullback_normalized(u, hi))[0] - center_of_mass(pullback_normalized(u, lo))[0]
            closed = pulled_back_center(w, g, hi) - pulled_back_center(w, g, lo)
            assert np.abs(true - closed).max() / (2.0 * h) < 1e-5


@pytest.mark.parametrize("b", [np.array([0.1, 0.2, -0.3]), np.array([0.0, 0.0, 0.5]), np.zeros(3),
                               np.array([0.0, 0.0, 1.0 - 5e-7])])
def test_center_jacobian_matches_per_map_differences(b):
    """The closed-form Jacobian equals the central differences of the
    change-of-variables centre taken one map at a time, to 1e-7 relative.
    The step is 1e-6, or 1e-8 at the last b, which a 1e-6 step would take
    out of the ball.  Measured: <= 8e-11, and 6.4e-9 at the last b."""
    g = make_grid(31)
    u = bubble_field(np.array([0.48, -0.6, 0.64]), 0.3, g)
    w = u.values ** TWO_SHARP
    vol = g.integrate(w)
    h = 1e-6 if np.linalg.norm(b) + 1e-6 < 1.0 else 1e-8
    want = np.empty((3, 3))
    for j, db in enumerate(h * np.eye(3)):
        S_hi, S_lo = (pulled_back_center(w, g, _map_from_ball_point(c)) for c in (b + db, b - db))
        want[:, j] = (S_hi - S_lo) / (2.0 * h * vol)
    assert np.abs(_center_jacobian(w, vol, g, b) - want).max() <= 1e-7 * np.abs(want).max()


def test_normalize_maps_the_nodes_once_per_jacobian(monkeypatch):
    """A solve maps the nodes (boundary_action) only inside its pullbacks
    and calls _center_jacobian once per Newton iteration: it opens with a
    pullback, and each iteration makes one Jacobian and then its line search."""
    events = []
    action, pullback, jacobian = conformal.boundary_action, conformal.pullback_normalized, conformal._center_jacobian

    def counted_action(mp, x):
        events.append("a")
        return action(mp, x)

    def counted_pullback(u, mp):
        events.append("(")
        v = pullback(u, mp)
        events.append(")")
        return v

    def counted_jacobian(*args):
        events.append("J")
        return jacobian(*args)

    monkeypatch.setattr(conformal, "boundary_action", counted_action)
    monkeypatch.setattr(conformal, "pullback_normalized", counted_pullback)
    monkeypatch.setattr(conformal, "_center_jacobian", counted_jacobian)
    g = make_grid(31)
    assert normalize(bubble_field(np.array([0.48, -0.6, 0.64]), 0.3, g)).residual <= 1e-8
    assert re.fullmatch(r"\(a\)(J(\(a\))+)+", "".join(events)), events


def counted_pullbacks(monkeypatch):
    """The list of maps that normalize pulls back by from now on."""
    calls = []

    def counted(u, mp):
        calls.append(mp)
        return pullback_normalized(u, mp)

    monkeypatch.setattr(conformal, "pullback_normalized", counted)
    return calls


def test_normalize_makes_few_pullbacks(monkeypatch):
    """The Jacobian comes from the change of variables and the solve starts
    at the bubble that has u's centre, so a solve pays pullbacks only for
    its residuals: at most 2 for the 0.4-bubble at L = 31 (measured: 1)."""
    calls = counted_pullbacks(monkeypatch)
    g = make_grid(31)
    assert normalize(bubble_field(N_POLE, 0.4, g)).residual <= 1e-8
    assert 1 <= len(calls) <= 2


@pytest.mark.parametrize("p", [N_POLE, np.array([0.48, -0.6, 0.64]), np.array([-0.36, 0.34, -0.87])])
def test_normalize_resolved_bubble_in_two_pullbacks(monkeypatch, p):
    """eps = 0.3 bubbles at L = 31, the perfbench recentering input, take at
    most 2 pullbacks: the start, and one Newton step for the truncation of
    the bubble at L = 31 (from a start at R0/2 they took 6)."""
    calls = counted_pullbacks(monkeypatch)
    assert normalize(bubble_field(p, 0.3, make_grid(31))).residual <= 1e-8
    assert 1 <= len(calls) <= 2


def test_normalize_unresolved_bubble_converges_superlinearly(monkeypatch):
    """On the eps = 0.15 bubble at (0.3, -0.2, 0.9), unresolved at L = 8, the
    grid residual and the continuum Jacobian disagree; the secant correction
    makes the solve superlinear: at most 10 pullbacks (measured: 8; 46 with
    the uncorrected Jacobian from R0/2)."""
    calls = counted_pullbacks(monkeypatch)
    with pytest.warns(RuntimeWarning, match="unresolved"):
        u = bubble_field(np.array([0.3, -0.2, 0.9]), 0.15, make_grid(8))
    assert normalize(u).residual <= 1e-8
    assert len(calls) <= 10


def test_normalize_restarts_from_half_the_centre(monkeypatch):
    """On the eps = 0.05 bubble at (0.189, -0.198, 0.962), far from resolved
    at L = 8, the grid centre R0 overstates the concentration, and no step
    from the bubble start lowers the residual; the solve restarts from R0/2
    and converges."""
    points = []
    jacobian = conformal._center_jacobian

    def counted_jacobian(w, vol, grid, b):
        points.append(b)
        return jacobian(w, vol, grid, b)

    monkeypatch.setattr(conformal, "_center_jacobian", counted_jacobian)
    g = make_grid(8)
    with pytest.warns(RuntimeWarning, match="unresolved"):
        u = bubble_field(np.array([0.189, -0.198, 0.962]), 0.05, g)
    R0 = center_of_mass(u)[0] / volume(u)
    assert normalize(u).residual <= 1e-8
    assert np.linalg.norm(points[0] - R0) > 1e-2
    assert np.array_equal(points[1], R0 / 2.0)


def test_normalize_halves_a_step_that_leaves_the_ball(monkeypatch):
    """The solve for an eps = 0.05 bubble at (0.44, -0.85, -0.29), unresolved
    at L = 8, meets a Newton step that leaves the ball (its third), takes
    half of it, and still ends at residual <= 1e-8 without a restart.  Each
    iteration's ball point comes from its Jacobian call and its Newton step
    from np.linalg.solve."""
    points, newton = [], []
    jacobian, solve = conformal._center_jacobian, np.linalg.solve

    def counted_jacobian(w, vol, grid, b):
        points.append(b)
        return jacobian(w, vol, grid, b)

    def counted_solve(J, rhs):
        newton.append(solve(J, rhs))
        return newton[-1]

    monkeypatch.setattr(conformal, "_center_jacobian", counted_jacobian)
    monkeypatch.setattr(np.linalg, "solve", counted_solve)
    g = make_grid(8)
    with pytest.warns(RuntimeWarning, match="unresolved"):
        u = bubble_field(np.array([0.44, -0.85, -0.29]), 0.05, g)
    assert normalize(u).residual <= 1e-8
    fractions = [np.linalg.norm(b1 - b0) / np.linalg.norm(d) for b0, b1, d in zip(points, points[1:], newton)]
    halved = [k for k, t in enumerate(fractions) if abs(t - 0.5) < 1e-9]
    assert halved, fractions
    assert all(np.linalg.norm(points[k] + newton[k]) >= 1.0 - 1e-12 for k in halved)


def closed_form_center(s):
    """g(s) of _bubble_center written out: (1+s^2)/(2s) - (1-s^2)^2/(4s^2) ln((1+s)/(1-s))."""
    return (1.0 + s * s) / (2.0 * s) - (1.0 - s * s) ** 2 / (4.0 * s * s) * np.log((1.0 + s) / (1.0 - s))


@pytest.mark.parametrize("eps", [0.9, 0.5, 0.3, 0.15])
def test_bubble_center_against_quadrature(eps):
    """|S|/vol of the eps-bubble, whose ball point has radius s = 1 - eps,
    is g(1 - eps) to 1e-10 at L = 85 (measured: 1e-15, and 3.5e-12 at
    eps = 0.15, where the grid truncates the bubble)."""
    u = bubble_field(np.array([0.48, -0.6, 0.64]), eps, make_grid(85))
    S, _ = center_of_mass(u)
    assert abs(np.linalg.norm(S) / volume(u) - _bubble_center(1.0 - eps)[0]) <= 1e-10


def test_bubble_center_series_meets_closed_form():
    """At the switch the series (just below it) and the closed form agree
    to 1e-14 relative, and g' agrees with central differences of g on both
    branches and near s = 1."""
    s = _SERIES_BELOW
    below = np.nextafter(s, 0.0)
    assert abs(_bubble_center(below)[0] - closed_form_center(below)) <= 1e-14 * closed_form_center(below)
    assert abs(_bubble_center(s)[0] - closed_form_center(s)) <= 1e-14 * closed_form_center(s)
    assert abs(_bubble_center(below)[1] - _bubble_center(s)[1]) <= 1e-13
    for s in (1e-3, 0.1, 0.2, 0.3, 0.5, 0.9, 0.999):
        h = 1e-5 * min(s, 1.0 - s)
        diff = (_bubble_center(s + h)[0] - _bubble_center(s - h)[0]) / (2.0 * h)
        assert abs(diff - _bubble_center(s)[1]) <= 1e-6 * _bubble_center(s)[1]


def test_bubble_radius_inverts_the_center():
    """g^{-1}(g(s)) = s on s in [1e-6, 1 - 1e-6], to 1e-13 or, near s = 1,
    to four times what half an ulp of g moves s, 2^-53 / g'(s) (4e-12 at
    s = 1 - 1e-6, where g' = 2.7e-5); measured: within a third of the bound."""
    s = np.concatenate((np.geomspace(1e-6, 0.5, 200), 1.0 - np.geomspace(1e-6, 0.5, 200)))
    for si in s:
        g, dg = _bubble_center(si)
        assert abs(_bubble_radius(g) - si) <= max(1e-13, 4.0 * 2.0**-53 / dg)


def random_field(kind, g, rng):
    """A positive field of the given kind, and for a bubble its generating map's (p, eps).

    bubble: eps uniform in [0.5, 0.9] at L = 15 and in [0.25, 0.9] at L = 31;
    perturbed: a bubble times 1 + 0.2 (smooth - 1) with smooth from
    smooth_positive_coeffs; two: a bubble plus a bubble weighted in [0.2, 1];
    smooth: smooth_positive_coeffs.  Below those eps the grid truncates the
    pullback enough to move its volume by more than 1e-6 (8.9e-6 for a
    perturbed eps = 0.4 bubble at L = 15), whatever map the solve returns.
    """
    lo = 0.5 if g.L < 31 else 0.25
    p, eps = random_unit(rng), rng.uniform(lo, 0.9)
    bubble = bubble_field(p, eps, g)
    if kind == "bubble":
        return bubble, (p, eps / (2.0 - eps))
    smooth = BoundaryField(g, coeffs=smooth_positive_coeffs(g.L, rng))
    if kind == "perturbed":
        return BoundaryField(g, values=bubble.values * (1.0 + 0.2 * (smooth.values - 1.0))), None
    if kind == "two":
        other = bubble_field(random_unit(rng), rng.uniform(lo, 0.9), g)
        return BoundaryField(g, values=bubble.values + rng.uniform(0.2, 1.0) * other.values), None
    return smooth, None


@pytest.mark.parametrize("L", [15, 31])
@pytest.mark.parametrize("kind", ["bubble", "perturbed", "two", "smooth"])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_normalize_random_fields(L, kind, seed):
    """Each solve reaches residual <= 1e-8 and keeps the volume to 1e-6; on
    a bubble it recovers the generating map's p and eps to 1e-6."""
    rng = np.random.default_rng(2800 + 10 * seed + L)
    g = make_grid(L)
    u, truth = random_field(kind, g, rng)
    out = normalize(u)
    assert out.residual <= 1e-8
    assert abs(volume(out.v) / volume(u) - 1.0) <= 1e-6
    if truth is not None:
        assert np.linalg.norm(out.map.p - truth[0]) <= 1e-6
        assert abs(out.map.eps - truth[1]) <= 1e-6


def _cap_fractions(u, x):
    """Cap integrals of u^4 (|H|^2 u^4 where H = 1) around x at every radius of CAP_RADII, over 4 pi."""
    return cap_integrals(u.values**4, u.grid, CAP_RADII, x) / (4.0 * np.pi)


def test_concentration_flags_sharp_bubble():
    """At the centre p of a resolved bubble (truncation (1-eps)^64 <= 1.3e-10
    at degree 63), the cap fractions equal bubble_cap_mass to 1e-8 relative,
    at the pole and off the grid's symmetry axes."""
    g = make_grid(63)
    rng = np.random.default_rng(34)
    for eps in (0.3, 0.5, 0.8):
        want = np.array([bubble_cap_mass(eps, r) for r in CAP_RADII])
        for p in (N_POLE, *rng.standard_normal((2, 3))):
            p = p / np.linalg.norm(p)
            assert np.abs(_cap_fractions(bubble_field(p, eps, g), p) / want - 1.0).max() <= 1e-8


def test_concentration_quiet_on_constant():
    """u = 1 spreads its mass evenly: every cap, about any point, carries its area 2 pi (1 - cos r)."""
    g = make_grid(63)
    u = BoundaryField(g, values=np.ones(g.shape))
    rng = np.random.default_rng(7)
    for x in (N_POLE, *rng.standard_normal((3, 3))):
        caps = 4.0 * np.pi * _cap_fractions(u, x / np.linalg.norm(x))
        assert np.abs(caps - 2.0 * np.pi * (1.0 - np.cos(CAP_RADII))).max() <= 1e-12


def test_pullback_rejects_nonpositive_field():
    g = make_grid(8)
    u = BoundaryField(g, values=np.full(g.shape, -1.0))
    with pytest.raises(AdmissibilityError) as exc:
        pullback_normalized(u, ConformalMap(N_POLE, 0.5))
    assert exc.value.condition == "positivity"


@pytest.mark.parametrize("L", [8, 31, 63, 85])
def test_cap_kernel_matches_eval_legendre(L):
    """Funk-Hecke multipliers of a cap, 2 pi (P_{l-1} - P_{l+1})(cos r) / (2l+1)
    with 2 pi (1 - cos r) at l = 0, against scipy's Legendre polynomials."""
    ls = np.arange(1, L + 1)
    for r in (0.05, 0.1, 0.2, 0.5, 1.0, 3.0):
        a = np.cos(r)
        want = np.empty(L + 1)
        want[0] = 2.0 * np.pi * (1.0 - a)
        want[1:] = 2.0 * np.pi * (eval_legendre(ls - 1, a) - eval_legendre(ls + 1, a)) / (2 * ls + 1)
        mu = _cap_multipliers(L, (r,))[0, :, 0]
        assert np.abs(mu - want).max() <= 1e-12 * np.abs(want).max()
        with pytest.raises(ValueError):
            mu[0] = 0.0


def test_cap_integrals_batched_radii():
    """Three radii in one call equal one call per radius, bit for bit, at a point off the grid."""
    g = make_grid(31)
    rng = np.random.default_rng(5)
    density = BoundaryField(g, coeffs=smooth_positive_coeffs(31, rng)).values ** 4
    x = np.array([0.36, -0.48, 0.8])
    radii = (0.1, 0.2, 0.5)
    caps = cap_integrals(density, g, radii, x)
    assert caps.shape == (3,)
    for r, cap in zip(radii, caps):
        assert cap == cap_integrals(density, g, (r,), x)[0]
        assert cap == synth_at(analyze(density, g) * _cap_multipliers(g.L, (r,))[0], x)
