"""Acceptance checks for the full pipeline, one criterion per test.

Each test prints a single machine-greppable pass/fail line.  The
criteria cover: operator exactness, volume conservation, energy decay,
the multiplier window, the multiplier-derivative identity, the curvature
barrier, convergence on a constant and on a symmetric sign-definite
target, bubble closed forms, recentering, the critical-point counting
machinery, the trace inequality, byte-level determinism, and the
resolution of the bump run.
"""

import itertools
import json
import time

import numpy as np
import pytest

from bmcflow.cli import main
from bmcflow.conformal import bubble_cap_mass, bubble_field, normalize
from bmcflow.curvature import lp_residual, mean_curvature, total_energy, volume
from bmcflow.flow import FlowConfig, check_identities, init_state, run
from bmcflow.morse import (
    check_conditions,
    check_symmetry,
    counts_mi,
    find_critical_points,
    solve_k_system,
)
from bmcflow.prescribed import parse_f_spec
from bmcflow.spectral import BoundaryField, dtn_apply, make_grid

N_POLE = np.array([0.0, 0.0, 1.0])


def _report(num, ok, detail):
    print(f"criterion {num:02d} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, detail


def _perturbed(grid, l, m, amp):
    L = grid.L
    c = np.zeros((L + 1, 2 * L + 1))
    c[0, L] = 1.0
    c[l, m + L] = amp
    return BoundaryField(grid, coeffs=c)


def _timed_run(f_spec, u0_builder, **flow_overrides):
    g = make_grid(31)
    cfg = FlowConfig(**flow_overrides)
    state = init_state(u0_builder(g), parse_f_spec(f_spec), cfg)
    t0 = time.perf_counter()
    traj = run(state, cfg)
    return {"traj": traj, "state": state, "seconds": time.perf_counter() - t0}


@pytest.fixture(scope="module")
def run_constant_target():
    return _timed_run("1", lambda g: _perturbed(g, 2, 1, 0.1))


@pytest.fixture(scope="module")
def run_quadric_target():
    return _timed_run("2 - z^2", lambda g: _perturbed(g, 2, 0, 0.05))


@pytest.fixture(scope="module")
def run_bump_target():
    return _timed_run(
        "1.34 - 1.36bump(8; 0,0,-1)",
        lambda g: BoundaryField(g, values=np.ones(g.shape)),
    )


def _all_runs(a, b, c):
    return [("constant", a), ("quadric", b), ("bump", c)]


def test_c01_dtn_exactness():
    """Unit coefficients at every degree l <= 31 map to l under the
    normal-derivative operator, relative error < 1e-10, in under 1 s."""
    L = 31
    t0 = time.perf_counter()
    worst = 0.0
    for l in range(L + 1):
        coeffs = np.zeros((L + 1, 2 * L + 1))
        m = min(l, 1)
        coeffs[l, m + L] = 1.0
        got = dtn_apply(coeffs)[l, m + L]
        worst = max(worst, abs(got - l) / max(l, 1))
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-10 and elapsed < 1.0
    _report(1, ok, f"max rel err {worst:.3e}, {elapsed:.3f} s")


def test_c02_volume_conservation(run_constant_target):
    """Projected runs hold unit boundary volume to 1e-9 at every sample;
    unprojected stepping at dt = 1e-3 drifts at most 1e-3 per unit time."""
    projected = np.abs(run_constant_target["traj"].column("vol_err")).max()
    free = _timed_run("1", lambda g: _perturbed(g, 2, 1, 0.1),
                      dt_max=1e-3, t_end=1.0, conv_tol=1e-14,
                      vol_project=False)
    drift = np.abs(free["traj"].column("vol_err")).max()
    ok = projected <= 1e-9 and drift <= 1e-3
    _report(2, ok, f"projected max |vol-1| {projected:.3e}, unprojected drift {drift:.3e}/unit time")


def test_c03_energy_decay(run_constant_target):
    """E_f is nonincreasing (1e-8 slack per step) and its decay matches
    the dissipation identity to 1e-2 under central differencing."""
    traj = run_constant_target["traj"]
    worst_rise = float(np.diff(traj.column("E_f")).max())
    rep = check_identities(traj)
    elapsed = run_constant_target["seconds"]
    ok = worst_rise <= 1e-8 and rep["decay_rel_err"] <= 1e-2 and elapsed < 30.0
    _report(3, ok, f"max E_f rise {worst_rise:.2e}, decay identity rel err "
                   f"{rep['decay_rel_err']:.2e}, {elapsed:.1f} s")


def test_c04_multiplier_window(run_constant_target, run_quadric_target, run_bump_target):
    """lambda(t) stays inside the frozen window [lambda1, lambda2] with
    1e-8 slack on all three benchmark runs."""
    details = []
    ok = True
    for name, r in _all_runs(run_constant_target, run_quadric_target, run_bump_target):
        traj = r["traj"]
        lam = traj.column("lambda")
        b = traj.bounds
        inside = lam.min() >= b.lambda1 - 1e-8 and lam.max() <= b.lambda2 + 1e-8
        ok &= inside and check_identities(traj)["lambda_window_ok"]
        details.append(f"{name}: [{lam.min():.6f}, {lam.max():.6f}] in "
                       f"[{b.lambda1:.6f}, {b.lambda2:.6f}]")
    _report(4, ok, "; ".join(details))


def test_c05_multiplier_derivative_identity(run_quadric_target):
    """The recorded multiplier derivative matches centered finite
    differences of the multiplier column to 1e-2."""
    rep = check_identities(run_quadric_target["traj"])
    ok = rep["lambda_prime_rel_err"] <= 1e-2
    _report(5, ok, f"lambda' vs FD rel err {rep['lambda_prime_rel_err']:.2e}")


def test_c06_curvature_barrier(run_constant_target, run_quadric_target, run_bump_target):
    """min(H - lambda f) >= gamma - 1e-6 on every accepted run, for gamma
    from the configured Lambda0 and from the observed sup|lambda'|."""
    details = []
    ok = True
    for name, r in _all_runs(run_constant_target, run_quadric_target, run_bump_target):
        rep = check_identities(r["traj"])
        ok &= rep["barrier_ok_config"] and rep["barrier_ok_observed"]
        details.append(f"{name}: min {rep['barrier_min']:.3f} vs gamma "
                       f"{rep['barrier_gamma_config']:.3f}/{rep['barrier_gamma_observed']:.3f}")
    _report(6, ok, "; ".join(details))


def test_c07_constant_target_convergence(run_constant_target):
    """The constant-target run converges by t = 50 with residual below
    1e-4 and final curvature uniform to 1e-3 in relative sup norm."""
    traj = run_constant_target["traj"]
    state = run_constant_target["state"]
    res = float(np.sqrt(lp_residual(state.u, state.f_values, state.energy_report.lam, 2)))
    H = state.H
    H_mean = state.u.grid.integrate(H)
    sup_dev = float(np.abs(H - H_mean).max() / abs(H_mean))
    ok = (traj.verdict == "Converged" and traj.column("t")[-1] <= 50.0
          and res < 1e-4 and sup_dev < 1e-3)
    _report(7, ok, f"{traj.verdict} at t={traj.column('t')[-1]:.2f}, residual {res:.2e}, "
                   f"H sup-deviation {sup_dev:.2e}")


def test_c08_symmetric_target_convergence(run_quadric_target):
    """The 2 - z^2 run (ratio 1.2 < sqrt 2, positive Laplacian at the
    fixed poles) converges with residual < 1e-4; the final curvature
    matches lambda_inf f in L2 to 1e-3.  Runtime < 60 s."""
    traj = run_quadric_target["traj"]
    state = run_quadric_target["state"]
    f = parse_f_spec("2 - z^2")
    sym = check_symmetry(f, "rotation(z, 5)", make_grid(31))
    hyp = sym["ratio_ok"] and sym["positive_mean"]
    pole_lap = float(np.trace(f.tangent_hessian(N_POLE)[0]))
    res = float(np.sqrt(lp_residual(state.u, state.f_values, state.energy_report.lam, 2)))
    elapsed = run_quadric_target["seconds"]
    ok = (traj.verdict == "Converged" and hyp and pole_lap > 0.0
          and res < 1e-4 and res < 1e-3 and elapsed < 60.0)
    _report(8, ok, f"{traj.verdict}, hypotheses max/mean<2^(1/2) {hyp} / pole Laplacian "
                   f"{pole_lap:.1f}, final L2 residual {res:.2e}, {elapsed:.1f} s")


def test_c09_bubble_identities():
    """Bubbles: curvature one to 1e-6 at degree 63, unit volume to 1e-7,
    and the 0.05 bubble holds >= 0.99 of its mass in the radius-0.5 cap,
    matching the frozen 1-D oracle 0.990016815131 to 1e-4."""
    g = make_grid(63)
    tilted = np.array([1.0, 1.0, 1.0]) / np.sqrt(3.0)
    worst_H = 0.0
    worst_vol = 0.0
    for p in (N_POLE, tilted):
        u = bubble_field(p, 0.3, g)
        worst_H = max(worst_H, float(np.abs(mean_curvature(u).values - 1.0).max()))
        worst_vol = max(worst_vol, abs(volume(u) - 1.0))
    cap = bubble_cap_mass(0.05, 0.5)
    ok = (worst_H <= 1e-6 and worst_vol <= 1e-7
          and cap >= 0.99 and abs(cap - 0.990016815131) <= 1e-4)
    _report(9, ok, f"max |H-1| {worst_H:.2e}, max |vol-1| {worst_vol:.2e}, "
                   f"cap(0.5) mass {cap:.12f}")


def test_c10_recentering():
    """Recentering the 0.4 bubble: residual <= 1e-8, pullback within
    1e-5 of the constant, parameters recovered within 1e-3 (the map's
    dilation relative to 0.4/(2 - 0.4), which generates the bubble)."""
    g = make_grid(31)
    out = normalize(bubble_field(N_POLE, 0.4, g))
    v_dev = float(np.abs(out.v.values - 1.0).max())
    eps_err = abs(out.map.eps / (0.4 / 1.6) - 1.0)
    p_err = float(np.linalg.norm(out.map.p - N_POLE))
    ok = (out.residual <= 1e-8 and v_dev <= 1e-5
          and eps_err <= 1e-3 and p_err <= 1e-3)
    _report(10, ok, f"residual {out.residual:.2e}, |v-1| {v_dev:.2e}, "
                    f"dilation err {eps_err:.2e}, center err {p_err:.2e}")


def test_c11_counting_machinery():
    """The quadric target yields exactly 6 critical points, m = (2,0,0),
    an unsolvable k-system, and index sum 2 != 1; the tilted constant is
    solvable with m = (1,0,0); the k-solver matches brute-force
    enumeration for all m with entries <= 5, n <= 4, in under 1 s."""
    f1 = parse_f_spec("4 + 0.3x^2 + 0.6y^2 + 1.05z^2")
    pts = find_critical_points(f1, make_grid(31))
    m1 = counts_mi(pts)
    kv1 = solve_k_system(m1, 2)
    rep1 = check_conditions(f1, make_grid(31))
    part1 = (len(pts) == 6 and m1 == (2, 0, 0) and not kv1.solvable
             and rep1["index_sum"] == 2)
    f2 = parse_f_spec("2 + 0.5z")
    m2 = counts_mi(find_critical_points(f2, make_grid(31)))
    part2 = m2 == (1, 0, 0) and solve_k_system(m2, 2).solvable

    t0 = time.perf_counter()
    mismatches = 0
    for n in range(1, 5):
        # constructive direction: image of every nonnegative (k_0..k_{n-1})
        # under m_0 = k_0 + 1, m_i = k_i + k_{i-1}, m_n = k_{n-1} (k_n = 0)
        solvable = set()
        for k in itertools.product(range(6), repeat=n):
            m = [k[0] + 1] + [k[i] + k[i - 1] for i in range(1, n)] + [k[n - 1]]
            if max(m) <= 5:
                solvable.add(tuple(m))
        for m in itertools.product(range(6), repeat=n + 1):
            if solve_k_system(m, n).solvable != (m in solvable):
                mismatches += 1
    elapsed = time.perf_counter() - t0
    part3 = mismatches == 0 and elapsed < 1.0
    ok = part1 and part2 and part3
    _report(11, ok, f"quadric {m1} unsolvable ({kv1.reason}), index sum {rep1['index_sum']}; "
                    f"tilted {m2} solvable; brute force mismatches {mismatches} "
                    f"({elapsed:.2f} s)")


def test_c12_trace_inequality():
    """100 seeded random positive band-limited fields satisfy
    E(u) >= vol(u)^{1/2} - 1e-10."""
    g = make_grid(31)
    rng = np.random.default_rng(42)
    margins = []
    while len(margins) < 100:
        c = np.zeros((32, 63))
        c[0, 31] = 1.0
        for l in range(1, 7):
            c[l, 31 - l:31 + l + 1] = 0.1 * rng.standard_normal(2 * l + 1) / (1 + l) ** 2
        u = BoundaryField(g, coeffs=c)
        if u.values.min() <= 0.0:
            continue
        margins.append(total_energy(u) - volume(u) ** 0.5)
    worst = min(margins)
    ok = worst >= -1e-10
    _report(12, ok, f"min margin over 100 fields {worst:.3e}")


def test_c13_determinism(tmp_path):
    """Two runs of one seeded config produce byte-identical CSVs."""
    cfg = {
        "seed": 3,
        "L": 15,
        "f_spec": "2 - z^2",
        "u0_spec": {"type": "perturbation",
                    "modes": [{"l": 2, "m": 0, "amp": 0.05}],
                    "random": {"lmax": 4, "amp": 0.01}},
        "flow": {"t_end": 0.2, "conv_tol": 1e-14},
    }
    path = tmp_path / "exp.json"
    with open(path, "w") as fh:
        json.dump(cfg, fh)
    assert main(["flow", "run", "--config", str(path), "--out", str(tmp_path / "a")]) == 0
    assert main(["flow", "run", "--config", str(path), "--out", str(tmp_path / "b")]) == 0
    b1 = (tmp_path / "a" / "trajectory.csv").read_bytes()
    b2 = (tmp_path / "b" / "trajectory.csv").read_bytes()
    ok = b1 == b2 and len(b1) > 0
    _report(13, ok, f"{len(b1)} bytes, identical {b1 == b2}")


def test_c14_bump_run_resolved(run_bump_target):
    """The bump run, a slow concentration at the north pole, keeps its
    energy in the lower degrees: its largest tail, the share of E in
    degrees l > 2L/3, stays at or below 1e-8, far under the resolution
    gate's bound."""
    tail = float(run_bump_target["traj"].column("tail").max())
    _report(14, tail <= 1e-8, f"bump run largest tail {tail:.2e}")
