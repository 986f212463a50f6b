"""Tests for critical-point analysis and the solvability obstruction.

Validates:
- critical points, indices, and surface Laplacians of two closed-form
  targets (an ellipsoidal quadric and a tilted constant)
- the co-index counting vector, the k-recursion verdict, and the signed
  index count against hand-derived values; check_conditions prints the
  point and k_system entries as find_critical_points and solve_k_system
  build them
- rejection of non-Morse inputs
- Poincare-Hopf: the signed count of all critical points is chi(S^2) = 2
- the batched Newton refinement: bit for bit the same as one seed at a
  time, and batched (a bound on Hessian calls)
- the seeds and the loop-free merge: bit for bit the points, warnings
  and failures of a sequential merge, one refined point at a time
- the row-block sweep of |grad_S f|^2 and the seed vectors, bit for bit
  the whole-lattice ones; one seed per plateau, against a loop over the
  lattice; f read on the lattice only when the sweep finds no gradient
- the extrema of non-axial targets against their extreme critical values
- axis-symmetry parsing, invariance detection, and the two symmetric
  existence criteria
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bmcflow.errors import NotMorseError, SpecParseError
from bmcflow.morse import (
    _DEGENERATE_TOL,
    _MERGE_TOL,
    _TIE_REL,
    _lattice_grad_sq,
    _lattice_minima,
    _probe_angles,
    check_conditions,
    check_symmetry,
    counts_mi,
    find_critical_points,
    index_count,
    parse_sym_spec,
    solve_k_system,
)
from bmcflow.prescribed import PrescribedFunction, parse_f_spec, probe_lattice
from bmcflow.spectral import make_grid

ELLIPSOID = "4 + 0.3x^2 + 0.6y^2 + 1.05z^2"
POINCARE_HOPF_TARGETS = [ELLIPSOID, "2 + 0.5z", "1.34 - 1.36bump(8; 0,0,-1)", "3 + x y z + 0.2x^3",
                         "1 + 0.3legendre(3) + 0.1x^2 y", "1 + bump(5; 1,1,0) + bump(5; -1,0,1)"]


def test_ellipsoid_critical_points():
    """Oracle (sympy, notes): the quadric has six critical points, the
    coordinate axes, with values 4.3 / 4.6 / 5.05, indices 0 / 1 / 2 and
    surface Laplacians 2.1 / 0.3 / -2.4."""
    f = parse_f_spec(ELLIPSOID)
    points = find_critical_points(f, make_grid(31))
    assert len(points) == 6
    by_axis = {}
    for cp in points:
        axis = int(np.argmax(np.abs(cp["location"])))
        assert abs(abs(cp["location"][axis]) - 1.0) < 1e-9
        by_axis.setdefault(axis, []).append(cp)
    for axis, value, idx, lap in [(0, 4.3, 0, 2.1), (1, 4.6, 1, 0.3), (2, 5.05, 2, -2.4)]:
        assert len(by_axis[axis]) == 2
        for cp in by_axis[axis]:
            assert abs(cp["value"] - value) < 1e-9
            assert cp["index"] == idx
            assert abs(cp["laplacian"] - lap) < 1e-7
            assert cp["counted"] == (lap < 0.0)


def test_ellipsoid_counts_and_k_verdict():
    """Only the two maxima count (f > 0, negative Laplacian): m = (2,0,0),
    and the recursion gives k = (1,-1,1), failing at k_1."""
    f = parse_f_spec(ELLIPSOID)
    m = counts_mi(find_critical_points(f, make_grid(31)))
    assert m == (2, 0, 0)
    kv = solve_k_system(m, 2)
    assert not kv["solvable"]
    assert kv["k"] == [1, -1, 1]
    assert kv["reason"] == "k_1 = -1 < 0"


def test_ellipsoid_index_count():
    """Signed count (+1) + (+1) = 2 differs from (-1)^2: the criterion holds."""
    out = index_count(find_critical_points(parse_f_spec(ELLIPSOID), make_grid(31)))
    assert out == {"sum": 2, "holds": True}


def test_ellipsoid_conditions_report():
    rep = check_conditions(parse_f_spec(ELLIPSOID), make_grid(31))
    assert rep["morse_ok"]
    assert rep["m"] == [2, 0, 0]
    assert rep["conditions"] == {
        "positive_mean": True,
        "simple_bubble_ratio": True,
        "clean_critical_laplacian": True,
        "k_system_unsolvable": True,
        "index_count": True,
    }
    assert rep["criteria_hold"]
    assert abs(rep["f_mean"] - 4.65) < 1e-12
    assert abs(rep["f_absmax"] - 5.05) < 1e-9
    assert rep["index_sum"] == 2


@pytest.mark.parametrize("spec", [ELLIPSOID, "2 + 0.5z", "1.34 - 1.36bump(8; 0,0,-1)"])
def test_check_conditions_reports_the_entries_as_built(spec):
    """morse check's points and k_system are the entries find_critical_points
    and solve_k_system return, not a second representation of them."""
    f, grid = parse_f_spec(spec), make_grid(31)
    rep = check_conditions(f, grid)
    assert rep["points"] == find_critical_points(f, grid)
    assert rep["k_system"] == solve_k_system(rep["m"], 2)
    assert rep["m"] == list(counts_mi(rep["points"]))


def test_tilted_constant_is_solvable():
    """Oracle (sympy, notes): 2 + 0.5z has a counted maximum at the north
    pole only, m = (1,0,0), k = (0,0,0) solvable, index sum 1 = (-1)^2."""
    f = parse_f_spec("2 + 0.5z")
    points = find_critical_points(f, make_grid(31))
    assert len(points) == 2
    counted = [cp for cp in points if cp["counted"]]
    assert len(counted) == 1
    assert counted[0]["location"][2] > 0.99
    assert abs(counted[0]["value"] - 2.5) < 1e-10
    assert abs(counted[0]["laplacian"] - (-1.0)) < 1e-8
    kv = solve_k_system(counts_mi(points), 2)
    assert kv["solvable"]
    assert kv["k"] == [0, 0, 0]
    rep = check_conditions(f, make_grid(31))
    assert rep["morse_ok"]
    assert not rep["criteria_hold"]
    assert rep["index_sum"] == 1
    assert not index_count(points)["holds"]


def test_solve_k_length_check():
    with pytest.raises(ValueError):
        solve_k_system((1, 0), 2)


def test_k_terminal_violation_reason():
    """m = (1,0,1) walks through k = (0,0,1): fails only the k_n = 0 leg."""
    kv = solve_k_system((1, 0, 1), 2)
    assert not kv["solvable"]
    assert kv["reason"] == "k_2 = 1 != 0"


@settings(max_examples=200, deadline=None)
@given(
    n=st.integers(1, 4),
    data=st.data(),
)
def test_k_system_closed_form(n, data):
    """The recursion admits the closed form
    k_i = sum_j (-1)^{i-j} m_j - (-1)^i; solvable iff all are >= 0 and
    the i = n one vanishes."""
    m = data.draw(st.lists(st.integers(0, 5), min_size=n + 1, max_size=n + 1))
    kv = solve_k_system(m, n)
    k_closed = [
        sum((-1) ** (i - j) * m[j] for j in range(i + 1)) - (-1) ** i
        for i in range(n + 1)
    ]
    assert kv["k"] == k_closed
    assert kv["solvable"] == (all(v >= 0 for v in k_closed) and k_closed[n] == 0)


def test_critical_points_shift_invariant():
    """Adding a constant moves values but not locations, indices, or
    Laplacians."""
    f1 = parse_f_spec(ELLIPSOID)
    f2 = parse_f_spec(ELLIPSOID + " + 3")
    p1 = find_critical_points(f1, make_grid(31))
    p2 = find_critical_points(f2, make_grid(31))
    assert len(p1) == len(p2)
    for a, b in zip(p1, p2):
        assert np.abs(np.subtract(a["location"], b["location"])).max() < 1e-9
        assert a["index"] == b["index"]
        assert abs(a["laplacian"] - b["laplacian"]) < 1e-7
        assert abs((b["value"] - a["value"]) - 3.0) < 1e-9


@pytest.mark.parametrize("L", [16, 31])
@pytest.mark.parametrize("spec", POINCARE_HOPF_TARGETS)
def test_poincare_hopf(spec, L):
    """Sum of (-1)^index over all critical points of a Morse function on
    S^2 is its Euler characteristic 2, so no point is lost or doubled."""
    points = find_critical_points(parse_f_spec(spec), make_grid(L))
    assert sum((-1) ** cp["index"] for cp in points) == 2


@pytest.mark.parametrize("spec", [ELLIPSOID, "2 + 0.5z", "3 + x y z + 0.2x^3", "1 + 0.3legendre(3) + 0.1x^2 y",
                                  "1 + bump(5; 1,1,0) + bump(5; -1,0,1)"])
def test_batched_newton_matches_one_seed_at_a_time(spec):
    """Every seed of a stack follows the path it follows alone; on the
    equator of 2 + 0.5z the tangent Hessian is exactly 0, so that seed
    stops where it is, not ok."""
    f = parse_f_spec(spec)
    rng = np.random.default_rng(1)
    poles_and_equator = [[0.0, 0.0, 1.0], [0.0, 0.0, -1.0], [1.0, 0.0, 0.0]]
    seeds = np.concatenate([rng.standard_normal((40, 3)) * [1.0, 1.0, 3.0], poles_and_equator])
    xs, ok = f.newton_critical(seeds)
    for seed, x, k in zip(seeds, xs, ok):
        x1, ok1 = f.newton_critical(seed[None])
        assert np.array_equal(x1[0], x) and ok1[0] == k
    if spec == "2 + 0.5z":
        assert not ok[-1] and np.array_equal(xs[-1], [1.0, 0.0, 0.0])


@pytest.mark.parametrize("spec", [ELLIPSOID, "3 + x y z + 0.2x^3", "1 + bump(5; 1,1,0) + bump(5; -1,0,1)",
                                  "1 + 0.3legendre(3) + 0.1x^2 y"])
def test_extrema_are_the_extreme_critical_values(spec):
    """extrema() and find_critical_points polish with the same
    newton_critical, so the smallest and largest critical values located
    at L = 31 are the extrema."""
    f = parse_f_spec(spec)
    values = [cp["value"] for cp in find_critical_points(f, make_grid(31))]
    fmin, fmax = f.extrema()
    assert abs(min(values) - fmin) <= 1e-12
    assert abs(max(values) - fmax) <= 1e-12


@pytest.mark.parametrize("spec", ["2 - z^2", ELLIPSOID])
def test_newton_refinement_is_batched(spec, monkeypatch):
    """All seeds share each Newton iteration: at L = 31 the ~500 seeds on
    the critical equator of 2 - z^2 cost a few tangent_hessian calls, not
    one or more per seed."""
    calls = []
    tangent_hessian = PrescribedFunction.tangent_hessian

    def counted(self, x):
        calls.append(x)
        return tangent_hessian(self, x)

    monkeypatch.setattr(PrescribedFunction, "tangent_hessian", counted)
    try:
        find_critical_points(parse_f_spec(spec), make_grid(31))
    except NotMorseError:
        assert spec == "2 - z^2"
    assert 1 <= len(calls) <= 10


def _sequential_critical_points(f, grid):
    """(warnings, points) or the NotMorseError message: np.roll seeds, refined points merged one at a time.

    The refined points are merged in seed order: a point within 1e-6
    geodesic of a point already located replaces it if its gradient is
    smaller, and is located anew otherwise.
    """
    pts = probe_lattice(*_probe_angles(grid.L))
    g2 = np.sum(f.grad_sphere(pts) ** 2, axis=-1)
    neighborhood_min = np.ones_like(g2, dtype=bool)
    for dth, dph in [(-1, -1), (-1, 0), (-1, 1), (0, -1), (0, 1), (1, -1), (1, 0), (1, 1)]:
        shifted = np.roll(g2, dph, axis=1)
        if dth == -1:
            cmp = np.full_like(g2, np.inf)
            cmp[1:, :] = shifted[:-1, :]
        elif dth == 1:
            cmp = np.full_like(g2, np.inf)
            cmp[:-1, :] = shifted[1:, :]
        else:
            cmp = shifted
        neighborhood_min &= g2 <= cmp
    seeds = np.concatenate([pts[neighborhood_min], [[0.0, 0.0, 1.0], [0.0, 0.0, -1.0]]])
    xs, ok = f.newton_critical(seeds)
    gns = np.linalg.norm(f.grad_sphere(xs), axis=-1)
    warnings = [f"Newton did not converge from seed {np.round(seed, 3)}" for seed in seeds[~ok]]
    loc, loc_gn = np.empty((0, 3)), []
    for x, gn in zip(xs[ok], gns[ok]):
        near = np.flatnonzero(np.arccos(np.clip(loc @ x, -1.0, 1.0)) < _MERGE_TOL)
        if not near.size:
            loc = np.vstack([loc, x])
            loc_gn.append(gn)
        elif gn < loc_gn[near[0]]:
            loc[near[0]], loc_gn[near[0]] = x, gn
    H, _ = f.tangent_hessian(loc)
    eigs = np.linalg.eigvalsh(H)
    degenerate = np.flatnonzero(np.any(np.abs(eigs) < _DEGENERATE_TOL, axis=-1))
    if degenerate.size:
        i = degenerate[0]
        return f"degenerate critical point at {np.round(loc[i], 6)} (tangent eigenvalues {eigs[i]}): not Morse"
    points = sorted(zip(loc, f(loc), np.trace(H, axis1=-2, axis2=-1), eigs), key=lambda p: tuple(np.round(p[0], 9)))
    return warnings, [(x.tobytes(), float(v), float(lap), int(np.sum(e < 0)), tuple(e)) for x, v, lap, e in points]


@pytest.mark.parametrize("L", [8, 16, 31, 63])
@pytest.mark.parametrize("spec", POINCARE_HOPF_TARGETS + ["2 - z^2", "2 + bump(-40; 0.3,0.2,1)"])
def test_merge_matches_sequential_reference(spec, L):
    """Seeds from one padded array and the blocked Gram-matrix merge give
    the points, warnings and failure of the roll-based seeds and the
    sequential merge bit for bit: on the Poincare-Hopf targets, on the
    critical equator of 2 - z^2 (at L = 31 the ~130 seeds by each pole
    merge into one point each, and the failure names [1, 0, -0]) and on
    the far-from-unit-scale bump, whose Newton warnings it keeps."""
    f, grid = parse_f_spec(spec), make_grid(L)
    want = _sequential_critical_points(f, grid)
    warnings = []
    try:
        points = find_critical_points(f, grid, collect_warnings=warnings)
    except NotMorseError as exc:
        assert str(exc) == want
        assert spec == "2 - z^2" and str(exc).startswith("degenerate critical point at ")
        assert L != 31 or str(exc).startswith("degenerate critical point at [ 1.  0. -0.] ")
        return
    got = [(np.array(cp["location"]).tobytes(), cp["value"], cp["laplacian"], cp["index"], tuple(cp["hessian_eigs"]))
           for cp in points]
    assert (warnings, got) == want
    assert bool(warnings) == spec.startswith("2 + bump(-40")


def _reference_minima(g2):
    """(row, col) pairs of _lattice_minima's rule, one lattice point at a time."""
    n_th, n_ph = g2.shape
    near = 1.0 + _TIE_REL

    def at(r, c):
        return g2[r, c % n_ph] if 0 <= r < n_th else np.inf

    seeds = []
    for r, c in np.ndindex(n_th, n_ph):
        v = g2[r, c]
        block = [at(r + a, c + b) for a in (-1, 0, 1) for b in (-1, 0, 1)]
        if not all(v <= near * w for w in block):  # False at any NaN
            continue
        earlier = [at(r - 1, c - 1), at(r - 1, c), at(r - 1, c + 1)]
        earlier += [g2[r, c - 1]] if c > 0 else []
        earlier += [g2[r, 0]] if c == n_ph - 1 else []
        if not any(w <= near * v and v <= near * w for w in earlier):
            seeds.append((r, c))
    return seeds


def _minima(g2):
    return [(int(r), int(c)) for r, c in zip(*_lattice_minima(np.asarray(g2, dtype=float)))]


def test_lattice_minima_keeps_an_isolated_strict_minimum():
    g2 = 1.0 + np.add.outer((np.arange(5) - 2.0) ** 2, (np.arange(8) - 3.0) ** 2)
    assert _minima(g2) == [(2, 3)]


def test_flat_periodic_row_seeds_once_at_column_0():
    g2 = np.full((3, 8), 2.0)
    g2[1] = 1.0
    assert _minima(g2) == [(1, 0)]


def test_ulp_jittered_row_seeds_once():
    """The polar rows of a zonal target differ only by rounding, e.g. 6.4e-4 (1 + k eps)."""
    g2 = np.full((3, 8), 1e-3)
    g2[1] = 6.4e-4 * (1.0 + np.array([3, 0, 5, 1, 7, 2, 6, 4]) * np.finfo(float).eps)
    assert len(_minima(g2)) == 1


@pytest.mark.parametrize("tied, kept", [
    ([(1, 2), (1, 3)], (1, 2)),   # left neighbour
    ([(1, 2), (2, 2)], (1, 2)),   # the one above
    ([(1, 2), (2, 3)], (1, 2)),   # above and to the left
    ([(1, 3), (2, 2)], (1, 3)),   # above and to the right
    ([(1, 0), (1, 7)], (1, 0)),   # the last column's right neighbour wraps to column 0
    ([(1, 7), (2, 0)], (1, 7)),   # above and to the left, across the wrap
])
def test_a_tie_drops_only_the_later_point(tied, kept):
    """Of two tied neighbouring minima the earlier in raster order keeps
    its seed (its tie is with a later point), the later one loses it."""
    rows, cols = np.indices((4, 8))
    g2 = 5.0 + np.min([np.maximum(abs(rows - r), np.minimum(abs(cols - c), 8 - abs(cols - c))) for r, c in tied],
                      axis=0)  # rising with the periodic Chebyshev distance to the tied pair
    for rc in tied:
        g2[rc] = 1.0
    assert _minima(g2) == [kept]


def test_separated_plateaus_seed_once_each():
    g2 = np.full((3, 8), 5.0)
    g2[1] = [1.0, 1.0, 5.0, 5.0, 1.0, 1.0 + 2 * np.finfo(float).eps, 1.0, 5.0]
    assert _minima(g2) == [(1, 0), (1, 4)]


def test_nan_never_seeds():
    """A NaN point is no seed, and neither is a minimum next to one."""
    g2 = 1.0 + np.add.outer((np.arange(5) - 2.0) ** 2, (np.arange(8) - 3.0) ** 2)
    g2[2, 3] = np.nan
    assert _minima(g2) == []
    g2[2, 3], g2[1, 4] = 1.0, np.nan
    assert _minima(g2) == []
    assert _minima(np.full((2, 8), np.nan)) == []


def test_inf_never_seeds():
    """An overflowed |grad|^2 is no start for Newton: a run of inf ties
    with the inf above it, past the first row or in the row itself."""
    g2 = np.repeat([[3.0], [2.0], [1.5], [1.0]], 8, axis=1)
    g2[:2, 1:6] = np.inf
    assert _minima(g2) == [(3, 0)]
    assert _minima(np.full((2, 8), np.inf)) == []


def test_lattice_minima_matches_a_loop_over_points():
    """Random small lattices with many exact ties, roundoff-sized gaps,
    inf and NaN: the loop-free rule equals the rule applied point by point."""
    rng = np.random.default_rng(30)
    eps = np.finfo(float).eps
    for _ in range(300):
        shape = (int(rng.integers(1, 6)), int(rng.integers(3, 9)))
        g2 = rng.integers(0, 3, size=shape) * (1.0 + rng.integers(-12, 13, size=shape) * eps)
        g2[rng.random(shape) < 0.05] = np.nan
        g2[rng.random(shape) < 0.05] = np.inf
        assert _minima(g2) == _reference_minima(g2), g2


def _seeds(spec, L):
    """The seeds find_critical_points hands to its one newton_critical call."""
    f, seeds = parse_f_spec(spec), []
    newton_critical = f.newton_critical

    def recorded(s):
        seeds.append(s)
        return newton_critical(s)

    f.newton_critical = recorded
    try:
        find_critical_points(f, make_grid(L))
    except NotMorseError:
        pass
    assert len(seeds) == 1
    return seeds[0]


@pytest.mark.parametrize("spec, most", [("2 - z^2", 5), ("2 + 0.5z", 4), (ELLIPSOID, 10)])
def test_one_seed_per_plateau_at_L31(spec, most):
    """The polar rows of a zonal target, flat up to rounding, seed once
    each (509 and 249 seeds with the two poles when every point of a
    plateau seeded); the ellipsoid keeps its 10."""
    seeds = _seeds(spec, 31)
    assert len(seeds) <= most
    if spec == ELLIPSOID:
        assert len(seeds) == most


@pytest.mark.parametrize("L", [4, 8, 31, 63, 85])
@pytest.mark.parametrize("spec", POINCARE_HOPF_TARGETS)
def test_row_block_sweep_is_bit_identical(spec, L):
    """32-row blocks (the last one shorter unless 32 divides 4L) give
    the whole lattice's |grad_S f|^2 bit for bit."""
    f = parse_f_spec(spec)
    want = np.sum(f.grad_sphere(probe_lattice(*_probe_angles(L))) ** 2, axis=-1)
    assert np.array_equal(_lattice_grad_sq(f, *_probe_angles(L)), want)


@pytest.mark.parametrize("L", [8, 31, 85])
@pytest.mark.parametrize("spec", POINCARE_HOPF_TARGETS + ["2 - z^2"])
def test_seed_vectors_are_the_lattice_points(spec, L):
    """The seeds built from (row, column) indices are the probe-lattice
    points bit for bit, in raster order, followed by the two poles."""
    f = parse_f_spec(spec)
    rows, cols = _lattice_minima(np.sum(f.grad_sphere(probe_lattice(*_probe_angles(L))) ** 2, axis=-1))
    seeds = _seeds(spec, L)
    assert np.array_equal(seeds, np.concatenate([probe_lattice(*_probe_angles(L))[rows, cols], [[0, 0, 1.0], [0, 0, -1.0]]]))


def test_constant_test_reads_f_on_the_lattice_only_when_flat(monkeypatch):
    """A target with a gradient is never evaluated on a lattice-sized
    input; "1" still is, and is rejected as constant."""
    grid, sizes = make_grid(31), []
    call = PrescribedFunction.__call__

    def counted(self, pts):
        sizes.append(np.size(pts))
        return call(self, pts)

    monkeypatch.setattr(PrescribedFunction, "__call__", counted)
    lattice = probe_lattice(*_probe_angles(grid.L)).size
    find_critical_points(parse_f_spec(ELLIPSOID), grid)
    assert sizes and max(sizes) < lattice
    sizes.clear()
    with pytest.raises(NotMorseError, match="^function is constant: not Morse$"):
        find_critical_points(parse_f_spec("1"), grid)
    assert sizes == [lattice]


def test_constant_rejected():
    with pytest.raises(NotMorseError):
        find_critical_points(parse_f_spec("2"), make_grid(31))


def test_degenerate_circle_rejected():
    """2 - z^2 has a critical equator: degenerate, not Morse."""
    with pytest.raises(NotMorseError):
        find_critical_points(parse_f_spec("2 - z^2"), make_grid(31))


def test_degenerate_reported_not_raised():
    rep = check_conditions(parse_f_spec("2 - z^2"), make_grid(31))
    assert not rep["morse_ok"]
    assert rep["failure"] is not None
    assert not rep["criteria_hold"]


def test_bump_ratio_close_to_closed_form():
    """max f = 1.34 - 1.36 e^{-16} over mean 1.2550000095654898 stays
    under sqrt(2): the simple-bubble ratio condition for the
    sign-changing bump target."""
    rep = check_conditions(parse_f_spec("1.34 - 1.36bump(8; 0,0,-1)"), make_grid(31))
    want = (1.34 - 1.36 * np.exp(-16.0)) / 1.2550000095654898
    assert abs(rep["ratio"] - want) < 1e-9
    assert rep["conditions"]["simple_bubble_ratio"]


@pytest.mark.parametrize("text,want", [
    ("mirror(z)", ("mirror", "z", None)),
    ("mirror(x-axis)", ("mirror", "x", None)),
    ("rotation(y)", ("rotation", "y", 2)),
    ("rotation(z, 5)", ("rotation", "z", 5)),
    ("rotation(z, k=3)", ("rotation", "z", 3)),
    ("rotation(x; 4)", ("rotation", "x", 4)),
])
def test_parse_sym_spec(text, want):
    assert parse_sym_spec(text) == want


@pytest.mark.parametrize("bad", [
    "mirror(w)",
    "twist(z)",
    "rotation(z, 1)",
    "mirror(z, 3)",
    "rotation()",
])
def test_parse_sym_spec_rejects(bad):
    with pytest.raises(SpecParseError):
        parse_sym_spec(bad)


def test_rotation_symmetry_both_criteria_apply():
    """2 - z^2 is rotation(z, 5)-invariant; the fixed set is the pole
    pair where f = 1 <= mean 5/3 and the surface Laplacian 6z^2 - 2 = 4
    is positive: both symmetric criteria apply."""
    out = check_symmetry(parse_f_spec("2 - z^2"), "rotation(z, 5)", make_grid(31))
    assert out["invariant"]
    assert out["sigma"] == "poles"
    assert abs(out["max_sigma_f"] - 1.0) < 1e-12
    assert out["ratio_ok"]
    assert out["invariant_criteria"]["applies"]
    assert out["fixed_set_max_criteria"]["applies"]
    assert out["fixed_set_max_criteria"]["witness"] is not None


def test_mirror_symmetry_criteria_fail_on_equator_max():
    """The same target is mirror(z)-invariant but its equatorial fixed
    circle carries the maximum 2 > 5/3 with negative Laplacian there:
    neither symmetric criterion applies."""
    out = check_symmetry(parse_f_spec("2 - z^2"), "mirror(z)", make_grid(31))
    assert out["invariant"]
    assert out["sigma"] == "great-circle"
    assert abs(out["max_sigma_f"] - 2.0) < 1e-9
    assert not out["invariant_criteria"]["applies"]
    assert not out["fixed_set_max_criteria"]["applies"]


def test_non_invariant_target_flagged():
    out = check_symmetry(parse_f_spec("2 + 0.5x"), "rotation(z, 3)", make_grid(31))
    assert not out["invariant"]
    assert out["deviation"] > 1e-3
    assert not out["invariant_criteria"]["applies"]
    assert not out["fixed_set_max_criteria"]["applies"]


def test_symmetry_evaluates_f_at_the_nodes_once(monkeypatch):
    """The deviation and the target report share one evaluation of f at
    the grid nodes; the rotated nodes are the only other grid-sized call."""
    grid, sizes = make_grid(31), []
    call = PrescribedFunction.__call__

    def counted(self, pts):
        sizes.append(np.size(pts))
        return call(self, pts)

    monkeypatch.setattr(PrescribedFunction, "__call__", counted)
    out = check_symmetry(parse_f_spec("2 - z^2"), "rotation(z, 5)", grid)
    assert out["invariant"]
    assert sizes.count(grid.nodes().size) == 2


def test_mirror_symmetric_bump_pair():
    """Two equal bumps at the poles are mirror(z)-invariant with their
    equatorial fixed circle at the global minimum: the fixed-set-mean
    criterion applies."""
    f = parse_f_spec("1 + 0.2bump(6; 0,0,1) + 0.2bump(6; 0,0,-1)")
    out = check_symmetry(f, "mirror(z)", make_grid(31))
    assert out["invariant"]
    assert out["invariant_criteria"]["applies"]
