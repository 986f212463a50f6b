"""Tests for critical-point analysis and the solvability obstruction.

Validates:
- critical points, indices, and surface Laplacians of two closed-form
  targets (an ellipsoidal quadric and a tilted constant)
- the co-index counting vector, the k-recursion verdict, and the signed
  index count against hand-derived values
- rejection of non-Morse inputs
- Poincare-Hopf: the signed count of all critical points is chi(S^2) = 2
- the batched Newton refinement: bit for bit the same as one seed at a
  time, and batched (a bound on Hessian calls)
- the seeds and the loop-free merge: bit for bit the points, warnings
  and failures of a sequential merge, one refined point at a time
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
    _probe_points,
    check_conditions,
    check_symmetry,
    counts_mi,
    find_critical_points,
    index_count,
    parse_sym_spec,
    solve_k_system,
)
from bmcflow.prescribed import PrescribedFunction, parse_f_spec
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
        axis = int(np.argmax(np.abs(cp.location)))
        assert abs(abs(cp.location[axis]) - 1.0) < 1e-9
        by_axis.setdefault(axis, []).append(cp)
    for axis, value, idx, lap in [(0, 4.3, 0, 2.1), (1, 4.6, 1, 0.3), (2, 5.05, 2, -2.4)]:
        assert len(by_axis[axis]) == 2
        for cp in by_axis[axis]:
            assert abs(cp.value - value) < 1e-9
            assert cp.index == idx
            assert abs(cp.laplacian - lap) < 1e-7
            assert cp.counted == (lap < 0.0)


def test_ellipsoid_counts_and_k_verdict():
    """Only the two maxima count (f > 0, negative Laplacian): m = (2,0,0),
    and the recursion gives k = (1,-1,1), failing at k_1."""
    f = parse_f_spec(ELLIPSOID)
    m = counts_mi(find_critical_points(f, make_grid(31)))
    assert m == (2, 0, 0)
    kv = solve_k_system(m, 2)
    assert not kv.solvable
    assert kv.k == (1, -1, 1)
    assert kv.reason == "k_1 = -1 < 0"


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


def test_tilted_constant_is_solvable():
    """Oracle (sympy, notes): 2 + 0.5z has a counted maximum at the north
    pole only, m = (1,0,0), k = (0,0,0) solvable, index sum 1 = (-1)^2."""
    f = parse_f_spec("2 + 0.5z")
    points = find_critical_points(f, make_grid(31))
    assert len(points) == 2
    counted = [cp for cp in points if cp.counted]
    assert len(counted) == 1
    assert counted[0].location[2] > 0.99
    assert abs(counted[0].value - 2.5) < 1e-10
    assert abs(counted[0].laplacian - (-1.0)) < 1e-8
    kv = solve_k_system(counts_mi(points), 2)
    assert kv.solvable
    assert kv.k == (0, 0, 0)
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
    assert not kv.solvable
    assert kv.reason == "k_2 = 1 != 0"


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
    assert list(kv.k) == k_closed
    assert kv.solvable == (all(v >= 0 for v in k_closed) and k_closed[n] == 0)


def test_critical_points_shift_invariant():
    """Adding a constant moves values but not locations, indices, or
    Laplacians."""
    f1 = parse_f_spec(ELLIPSOID)
    f2 = parse_f_spec(ELLIPSOID + " + 3")
    p1 = find_critical_points(f1, make_grid(31))
    p2 = find_critical_points(f2, make_grid(31))
    assert len(p1) == len(p2)
    for a, b in zip(p1, p2):
        assert np.abs(a.location - b.location).max() < 1e-9
        assert a.index == b.index
        assert abs(a.laplacian - b.laplacian) < 1e-7
        assert abs((b.value - a.value) - 3.0) < 1e-9


@pytest.mark.parametrize("L", [16, 31])
@pytest.mark.parametrize("spec", POINCARE_HOPF_TARGETS)
def test_poincare_hopf(spec, L):
    """Sum of (-1)^index over all critical points of a Morse function on
    S^2 is its Euler characteristic 2, so no point is lost or doubled."""
    points = find_critical_points(parse_f_spec(spec), make_grid(L))
    assert sum((-1) ** cp.index for cp in points) == 2


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
    values = [cp.value for cp in find_critical_points(f, make_grid(31))]
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
    pts = _probe_points(grid.L)
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
    got = [(cp.location.tobytes(), cp.value, cp.laplacian, cp.index, cp.hessian_eigs) for cp in points]
    assert (warnings, got) == want
    assert bool(warnings) == spec.startswith("2 + bump(-40")


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
