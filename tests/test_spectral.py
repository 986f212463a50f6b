"""Tests for the spherical-harmonic transform layer.

Validates:
- Gauss-Legendre quadrature exactness on polynomial integrands
- analyze/synthesize round trips and Parseval's identity
- the degree multipliers of the normal-derivative operator
- legendre_rows bit for bit against a per-degree-coefficient reference
- point evaluation (synth_at) against zonal Legendre sums, grid
  synthesis at every node, and a per-degree Legendre sum off the grid,
  also at point counts around its block size; its poles, the longitude
  cut, point shapes and the cached read-only Legendre-to-Fourier table
- grid synthesis and synth_at against a reference synthesis built on
  scipy's lpmv, independent of the library's Legendre recurrence
- the equatorially split grid transforms against the full-table
  reference, and the split table's size, contents and caching
- leading batch axes of synthesize and integrate against single calls,
  and the cached read-only grid nodes
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import eval_legendre, lpmv

from bmcflow.spectral import (
    BoundaryField,
    _fourier_table,
    _synth_block,
    analyze,
    dtn_apply,
    legendre_rows,
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
    assert g.shape[0] == 9
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
    u = BoundaryField(g, coeffs=random_band_limited(9, rng))
    assert abs(g.integrate(u.values) - u.coeffs[0, 9]) < 1e-12


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


@pytest.mark.parametrize("L", [4, 12, 31, 85])
def test_synth_at_matches_grid_synthesis(L):
    """At every node of make_grid(L), synth_at equals synthesize to 1e-12 relative.

    The grid path sums Legendre values at the Gauss nodes and then
    longitudes by FFT; synth_at sums each order's Fourier series in the
    colatitude, with both series built from the same recurrence, so this
    checks the Legendre-to-Fourier table and the angle tables;
    test_synthesis_matches_lpmv_reference checks the Legendre values
    themselves.
    """
    g = make_grid(L)
    coeffs = random_band_limited(L, np.random.default_rng(11))
    want = synthesize(coeffs, g)
    got = synth_at(coeffs, g.nodes())
    assert got.shape == g.shape
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def degree_by_degree_synthesis(coeffs, points):
    """Reference synth_at: one (l+1, npts) row of legendre_rows at a time, cos/sin m phi taken directly."""
    L = coeffs.shape[0] - 1
    z = np.clip(points[:, 2], -1.0, 1.0)
    mphi = np.arange(L + 1)[:, None] * np.arctan2(points[:, 1], points[:, 0])
    out = np.zeros(len(points))
    for l, row in enumerate(legendre_rows(L, z)):
        cos_part = coeffs[l, L:L + l + 1, None] * np.cos(mphi[: l + 1])
        sin_part = coeffs[l, L - 1::-1][:l, None] * np.sin(mphi[1 : l + 1])
        out += np.sum(row * cos_part, axis=0) + np.sum(row[1:] * sin_part, axis=0)
    return out


@pytest.mark.parametrize("L", [31, 63, 85])
def test_synth_at_matches_degree_by_degree_sum(L):
    """Off the grid, synth_at equals the per-degree Legendre sum to 1e-13 relative."""
    rng = np.random.default_rng(100 + L)
    coeffs = random_band_limited(L, rng)
    pts = rng.standard_normal((500, 3))
    pts /= np.linalg.norm(pts, axis=1, keepdims=True)
    want = degree_by_degree_synthesis(coeffs, pts)
    assert np.abs(synth_at(coeffs, pts) - want).max() <= 1e-13 * np.abs(want).max()


@pytest.mark.parametrize("L", [31, 85])
@pytest.mark.parametrize("blocks, extra", [(0, 1), (1, -1), (1, 0), (1, 1), (3, 5)],
                         ids=["1", "B-1", "B", "B+1", "3B+5"])
def test_synth_at_block_edges(L, blocks, extra):
    """Point counts on either side of the block size B, and one that leaves
    a short last block, agree with the per-degree Legendre sum to 1e-13."""
    n = blocks * _synth_block(L) + extra
    rng = np.random.default_rng(n + L)
    coeffs = random_band_limited(L, rng)
    pts = rng.standard_normal((n, 3))
    pts /= np.linalg.norm(pts, axis=1, keepdims=True)
    want = degree_by_degree_synthesis(coeffs, pts)
    assert np.abs(synth_at(coeffs, pts) - want).max() <= 1e-13 * np.abs(want).max()


def test_synth_at_stack_spans_blocks():
    """An (a, b, 3) stack of more than two blocks' worth of points keeps its
    shape, and each point agrees with the per-degree sum to 1e-13."""
    L = 31
    rng = np.random.default_rng(5)
    coeffs = random_band_limited(L, rng)
    pts = rng.standard_normal((7, _synth_block(L) // 3, 3))
    pts /= np.linalg.norm(pts, axis=-1, keepdims=True)
    assert pts[..., 0].size > 2 * _synth_block(L)
    got = synth_at(coeffs, pts)
    assert got.shape == pts.shape[:-1]
    want = degree_by_degree_synthesis(coeffs, pts.reshape(-1, 3)).reshape(got.shape)
    assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


@pytest.mark.parametrize("L", [4, 31, 85])
def test_synth_at_poles_and_longitude_cut(L):
    """At the poles and on the phi = +-pi cut (x < 0, y = +-0.0) synth_at
    agrees with the lpmv reference, and both sides of the cut agree."""
    coeffs = random_band_limited(L, np.random.default_rng(7 * L))
    s = np.sqrt(0.5)
    pts = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, -1.0], [-0.0, -0.0, 1.0], [1e-300, 0.0, -1.0],
                    [-s, 0.0, s], [-s, -0.0, s], [-1.0, 0.0, 0.0], [-1.0, -0.0, 0.0],
                    [-0.6, 0.0, -0.8], [-0.6, -0.0, -0.8]])
    want = lpmv_synthesis(coeffs, pts[:, 2], np.arctan2(pts[:, 1], pts[:, 0]))
    got = synth_at(coeffs, pts)
    scale = np.abs(want).max()
    assert np.abs(got - want).max() <= 1e-12 * scale
    assert np.abs(got[4::2] - got[5::2]).max() <= 1e-13 * scale
    # a z one ulp past a pole, as roundoff leaves it, is clipped to the pole
    past = synth_at(coeffs, np.array([[0.0, 0.0, np.nextafter(1.0, 2.0)], [0.0, 0.0, np.nextafter(-1.0, -2.0)]]))
    assert np.abs(past - got[:2]).max() <= 1e-13 * scale


def test_synth_at_point_shapes():
    """Points (3,), (k, 3) and (a, b, 3) give results of shape (), (k,) and (a, b)."""
    L = 6
    coeffs = random_band_limited(L, np.random.default_rng(3))
    pts = np.random.default_rng(4).standard_normal((2, 5, 3))
    pts /= np.linalg.norm(pts, axis=-1, keepdims=True)
    full = synth_at(coeffs, pts)
    assert full.shape == (2, 5)
    assert synth_at(coeffs, pts[1]).shape == (5,)
    assert synth_at(coeffs, pts[1, 3]).shape == ()
    scale = np.abs(full).max()
    assert np.abs(synth_at(coeffs, pts[1]) - full[1]).max() <= 1e-14 * scale
    assert abs(synth_at(coeffs, pts[1, 3]) - full[1, 3]) <= 1e-14 * scale


def legendre_rows_per_degree(L, x):
    """Reference legendre_rows: the recurrence coefficients a_lm and b_lm formed anew for each degree."""
    sin_theta = np.sqrt(1.0 - x**2)
    older, row = np.zeros((0, len(x))), np.ones((1, len(x)))
    yield row
    for l in range(1, L + 1):
        m2 = np.arange(l, dtype=float)[:, None] ** 2
        new = np.empty((l + 1, len(x)))
        new[:l] = np.sqrt((4 * l * l - 1) / (l * l - m2)) * x * row
        b = np.sqrt((2 * l + 1) * ((l - 1) ** 2 - m2[:-1]) / ((2 * l - 3) * (l * l - m2[:-1])))
        new[: l - 1] -= b * older
        new[l] = -np.sqrt(3.0 if l == 1 else (2 * l + 1) / (2 * l)) * sin_theta * row[l - 1]
        older, row = row, new
        yield row


@pytest.mark.parametrize("L", [8, 31, 63, 85])
def test_legendre_rows_match_per_degree_coefficients(L):
    """legendre_rows, which forms its recurrence coefficients once per call,
    gives the rows of the per-degree reference bit for bit, at the grid
    nodes and at the colatitudes of _fourier_table."""
    for x in (make_grid(L).x, np.cos(np.pi * np.arange(L + 2) / (L + 1))):
        got, want = list(legendre_rows(L, x)), list(legendre_rows_per_degree(L, x))
        assert len(got) == len(want) == L + 1
        for g_row, w_row in zip(got, want):
            assert g_row.shape == w_row.shape and g_row.tobytes() == w_row.tobytes()


@pytest.mark.parametrize("L", [4, 31, 85])
def test_fourier_table_cached_read_only(L):
    """One cached read-only (L+1)^3 table per L, whose cosine (even m) and
    sine (odd m) series give legendre_rows at colatitudes off its samples."""
    T = _fourier_table(L)
    assert T.shape == (L + 1, L + 1, L + 1)
    assert _fourier_table(L) is T
    with pytest.raises(ValueError):
        T[0, 0, 0] = 1.0
    theta = np.array([0.0, 0.3, 1.7, 3.0, np.pi])
    k_theta = np.arange(L + 1)[:, None] * theta
    want = np.zeros((L + 1, L + 1, len(theta)))
    for l, row in enumerate(legendre_rows(L, np.cos(theta))):
        want[: l + 1, l] = row
    got = np.empty_like(want)
    got[0::2] = np.einsum("mkl,kp->mlp", T[0::2], np.cos(k_theta))
    got[1::2] = np.einsum("mkl,kp->mlp", T[1::2], np.sin(k_theta))
    assert np.abs(got - want).max() <= 1e-13 * np.sqrt(2 * L + 1)


def full_table(g):
    """T[m, j, l] = legendre_rows at every node of g, zero where l < m: the packed (L+1)^3 table."""
    T = np.zeros((g.L + 1, g.L + 1, g.L + 1))
    for l, row in enumerate(legendre_rows(g.L, g.x)):
        T[: l + 1, :, l] = row
    return T


def full_table_synthesis(coeffs, g):
    """Reference grid synthesis without the equatorial split: every order against the full table, then one irfft."""
    L, n = g.L, g.n_lon
    T = full_table(g)
    cos = np.einsum("mjl,...lm->...jm", T, coeffs[..., L:])
    sin = np.einsum("mjl,...lm->...jm", T[1:], coeffs[..., L - 1::-1])
    G = np.zeros(cos.shape[:-1] + (n // 2 + 1,), dtype=complex)
    G[..., : L + 1] = cos * (n / 2.0)
    G[..., 0] *= 2.0
    G[..., 1 : L + 1] -= 1j * (n / 2.0) * sin
    return np.fft.irfft(G, n=n, axis=-1)


def full_table_analysis(values, g):
    """Reference grid analysis without the equatorial split: one rfft, then the weighted full table."""
    L = g.L
    F = np.fft.rfft(values, axis=1)[:, : L + 1] * (0.5 * g.w / g.n_lon)[:, None]
    T = full_table(g)
    c = np.zeros((L + 1, 2 * L + 1))
    c[:, L:] = np.einsum("mjl,jm->lm", T, F.real)
    c[:, L - 1::-1] = -np.einsum("mjl,jm->lm", T[1:], F.imag[:, 1:])
    return c


@pytest.mark.parametrize("L", [4, 5, 31, 62, 63, 85])
def test_split_transforms_match_full_table(L):
    """synthesize (batch shapes (), (2,) and (2, 3)) and analyze agree
    with the full-table reference to 1e-13 relative; even L puts the
    equator on a node, which is its own mirror."""
    g = make_grid(L)
    rng = np.random.default_rng(200 + L)
    for batch in [(), (2,), (2, 3)]:
        coeffs = random_band_limited(L, rng) if batch == () else np.stack(
            [random_band_limited(L, rng) for _ in range(math.prod(batch))]).reshape(batch + (L + 1, 2 * L + 1))
        want = full_table_synthesis(coeffs, g)
        got = synthesize(coeffs, g)
        assert got.shape == batch + g.shape
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()
    values = rng.standard_normal(g.shape)
    want = full_table_analysis(values, g)
    assert np.abs(analyze(values, g) - want).max() <= 1e-13 * np.abs(want).max()


@pytest.mark.parametrize("L", [4, 5, 63])
def test_grid_table_split_cached_read_only(L):
    """The grid's table is cached and read-only, holds no more than
    (L+1)^3 doubles, and holds legendre_rows of degree 2a + p at the
    nodes x >= 0 times half their Gauss weight over n_lon (the equator
    once for even L, so at half that weight), zero elsewhere."""
    g = make_grid(L)
    T = g._table
    assert g._table is T
    assert T.size <= (L + 1) ** 3
    with pytest.raises(ValueError):
        T[0, 0, 0, 0] = 1.0
    north = g.x >= 0.0
    assert T.shape[-1] == north.sum() == (L + 2) // 2
    weight = 0.5 * g.w[north] / g.n_lon
    if L % 2 == 0:
        weight[0] *= 0.5
    want = np.zeros(T.shape)
    for l, row in enumerate(legendre_rows(L, g.x[north])):
        want[l % 2, : l + 1, l // 2] = row * weight
    assert np.all((want == 0.0) == (T == 0.0))
    assert np.abs(T - want).max() <= 1e-15 * np.abs(want).max()


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
    from_coeffs = BoundaryField(g, coeffs=coeffs)
    from_values = BoundaryField(g, values=from_coeffs.values)
    assert np.abs(from_values.coeffs - coeffs).max() < 1e-11


def test_filter_idempotent():
    """Band-limit projection applied twice equals applied once."""
    g = make_grid(8)
    nodes = g.nodes()
    rough = np.exp(nodes[..., 2] * 3.0) + np.abs(nodes[..., 0])
    once = synthesize(analyze(rough, g), g)
    twice = synthesize(analyze(once, g), g)
    assert np.abs(once - twice).max() < 1e-11


def test_field_shape_mismatch_rejected():
    g = make_grid(8)
    with pytest.raises(ValueError):
        BoundaryField(g, values=np.ones((3, 3)))


@pytest.mark.parametrize("L", [12, 63])
def test_synthesize_batch_axes(L):
    """A stack of k coefficient arrays synthesizes to the k single syntheses."""
    g = make_grid(L)
    rng = np.random.default_rng(L)
    stack = np.stack([random_band_limited(L, rng) for _ in range(6)])
    single = np.stack([synthesize(c, g) for c in stack])
    scale = np.abs(single).max()
    assert np.abs(synthesize(stack, g) - single).max() <= 1e-15 * scale
    pairs = synthesize(stack.reshape(2, 3, L + 1, 2 * L + 1), g)
    assert np.abs(pairs - single.reshape(2, 3, *g.shape)).max() <= 1e-15 * scale


@pytest.mark.parametrize("L", [12, 63])
def test_integrate_batch_axes(L):
    """Each field of a stack integrates exactly as it does alone, bit for bit:
    a recorded volume must round like the volume the projection used."""
    g = make_grid(L)
    rng = np.random.default_rng(L)
    fields = rng.uniform(0.5, 2.0, size=(2, 3) + g.shape) ** 4
    means = g.integrate(fields)
    assert means.shape == (2, 3)
    for idx in np.ndindex(2, 3):
        assert means[idx] == g.integrate(fields[idx])


def test_batch_trailing_shape_checked():
    g = make_grid(8)
    with pytest.raises(ValueError):
        synthesize(np.zeros((2, 9, 18)), g)
    with pytest.raises(ValueError):
        g.integrate(np.zeros((2, 9, 17)))


@pytest.mark.parametrize("L", [4, 8, 31, 63, 85])
def test_nodes_match_colatitude_formula(L):
    """The grid nodes are (sqrt(1 - x^2) cos phi, sqrt(1 - x^2) sin phi, x)
    at the Gauss nodes x and the longitudes phi, bit for bit; the array is
    read-only and each coordinate nodes()[..., i] is contiguous."""
    g = make_grid(L)
    sin_theta, phi = np.sqrt(1.0 - g.x**2)[:, None], 2.0 * np.pi * np.arange(g.n_lon) / g.n_lon
    want = np.stack(np.broadcast_arrays(sin_theta * np.cos(phi), sin_theta * np.sin(phi), g.x[:, None]), axis=-1)
    nodes = g.nodes()
    assert nodes.shape == g.shape + (3,) and np.array_equal(nodes, want)
    assert not nodes.flags.writeable
    assert all(nodes[..., i].flags.c_contiguous for i in range(3))


def test_nodes_cached_read_only():
    g = make_grid(8)
    nodes = g.nodes()
    assert g.nodes() is nodes
    assert np.allclose(np.linalg.norm(nodes, axis=-1), 1.0, atol=1e-15)
    with pytest.raises(ValueError):
        nodes[0, 0, 0] = 2.0
