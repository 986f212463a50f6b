"""Tests for the volume-normalized curvature flow driver.

Validates:
- config validation and the trajectory column layout
- init_state's rejections: nonpositive data, data that band-limit
  filtering makes nonpositive, a nonpositive f-weighted volume
- immediate convergence on the stationary pair (constant factor,
  constant target)
- a full convergence run: monotone normalized energy, unit volume to
  projection accuracy, step-size rules, verdicts, and the recorded
  diagnostic identities
- concentration verdicts from the amplitude guard and from the
  cap-mass detector at t = 0, two clusters from glued antipodal
  bubbles, and the concentration block of a unit bubble against its
  oracles (total mass 4 pi, S the row's and center_of_mass's)
- CSV round-trip and the verdict document
- a recorded row against the curvature layer's one-quantity functions,
  and the number of Legendre stages a recorded step costs
- the ETD-RK2 step: second-order self-convergence at fixed dt, and a
  monotone E_f on a concentrated bubble at L = 63 with the defaults
"""

import json
from decimal import Decimal, localcontext

import numpy as np
import pytest

from bmcflow.conformal import bubble_field
from bmcflow.errors import AdmissibilityError, ConfigError
from bmcflow.flow import (
    FlowConfig,
    check_identities,
    init_state,
    run,
)
from bmcflow import flow, spectral
from bmcflow.conformal import center_of_mass
from bmcflow.curvature import lambda_prime, lp_residual, volume
from bmcflow.prescribed import parse_f_spec
from bmcflow.spectral import BoundaryField, make_grid

N_POLE = np.array([0.0, 0.0, 1.0])

EXPECTED_COLUMNS = (
    "t", "dt", "lambda", "E", "E_f", "F2", "lambda_prime", "vol_err",
    "min_u", "max_u", "S_x", "S_y", "S_z", "S_norm",
    "capmass_r0.1", "capmass_r0.2", "capmass_r0.5",
    "Lp_res_p2", "Lp_res_p4", "min_H_minus_lambda_f",
)


def perturbed_constant(grid, l=2, m=1, amp=0.1):
    L = grid.L
    c = np.zeros((L + 1, 2 * L + 1))
    c[0, L] = 1.0
    c[l, L + m] = amp
    return BoundaryField(grid, coeffs=c)


def ones_field(grid):
    return BoundaryField(grid, values=np.ones(grid.shape))


@pytest.fixture(scope="module")
def converged_run():
    g = make_grid(15)
    cfg = FlowConfig()
    state = init_state(perturbed_constant(g), parse_f_spec("1"), cfg)
    return run(state, cfg)


def test_config_validation():
    FlowConfig().validate()
    with pytest.raises(ConfigError):
        FlowConfig(dt_min=0.1, dt_max=0.01).validate()
    with pytest.raises(ConfigError):
        FlowConfig(dt_min=0.0).validate()
    with pytest.raises(ConfigError):
        FlowConfig(conv_tol=0.0).validate()
    with pytest.raises(ConfigError):
        FlowConfig(t_end=-1.0).validate()
    with pytest.raises(ConfigError):
        FlowConfig(record_every=0).validate()


def test_stationary_pair_converges_immediately():
    """u = 1 with f = 1 has H = lambda f exactly: one recorded row."""
    g = make_grid(10)
    cfg = FlowConfig()
    state = init_state(ones_field(g), parse_f_spec("1"), cfg)
    traj = run(state, cfg)
    assert traj.verdict == "Converged"
    assert traj.reason.startswith("initial residual")
    assert len(traj.rows) == 1
    assert traj.rows[0][0] == 0.0


def test_init_rejects_nonpositive_data():
    g = make_grid(10)
    cfg = FlowConfig()
    u0 = BoundaryField(g, values=np.full(g.shape, -0.5))
    with pytest.raises(AdmissibilityError) as err:
        init_state(u0, parse_f_spec("1"), cfg)
    assert err.value.condition == "positivity"


def test_init_rejects_data_that_filtering_makes_nonpositive():
    """0.01 at every node and 1 at one node is positive, but its band-limit
    projection at L = 10 dips to -0.061: init_state names the filtering."""
    g = make_grid(10)
    values = np.full(g.shape, 0.01)
    values[5, 3] = 1.0
    assert abs(spectral.synthesize(spectral.analyze(values, g), g).min() + 0.061) < 1e-3
    with pytest.raises(AdmissibilityError, match="^initial data loses positivity under band-limit filtering$") as err:
        init_state(BoundaryField(g, values=values), parse_f_spec("1"), FlowConfig())
    assert err.value.condition == "positivity"


def test_init_rejects_negative_weighted_volume():
    """A bubble sitting deep in the negative region of f = 1 - 2z has
    negative f-weighted volume: outside the admissible set."""
    g = make_grid(31)
    u0 = bubble_field(N_POLE, 0.4, g)
    with pytest.raises(AdmissibilityError):
        init_state(u0, parse_f_spec("1 - 2z"), FlowConfig())


def test_init_rescales_to_unit_volume():
    g = make_grid(15)
    u0 = BoundaryField(g, values=2.0 * perturbed_constant(g).values)
    state = init_state(u0, parse_f_spec("1"), FlowConfig())
    assert abs(volume(state.u) - 1.0) < 1e-13


def test_column_layout(converged_run):
    assert converged_run.columns == EXPECTED_COLUMNS


def test_convergence_verdict(converged_run):
    traj = converged_run
    assert traj.verdict == "Converged"
    assert len(traj.rows) > 100
    assert np.sqrt(traj.column("F2")[-1]) < traj.config.conv_tol


def test_normalized_energy_monotone(converged_run):
    d = np.diff(converged_run.column("E_f"))
    assert d.max() <= 1e-10


def test_volume_projection_holds(converged_run):
    assert np.abs(converged_run.column("vol_err")).max() <= 1e-9


def test_step_size_rules(converged_run):
    dt = converged_run.column("dt")[1:]
    cfg = converged_run.config
    assert dt.max() <= cfg.dt_max + 1e-15
    assert dt.min() >= cfg.dt_min
    assert (dt[1:] <= 2.0 * dt[:-1] + 1e-15).all()


def test_multiplier_window(converged_run):
    """lambda stays inside the frozen window [lambda1, lambda2]."""
    lam = converged_run.column("lambda")
    b = converged_run.bounds
    assert lam.min() >= b.lambda1 - 1e-9
    assert lam.max() <= b.lambda2 + 1e-9


def test_identities_report(converged_run):
    rep = check_identities(converged_run)
    assert rep["decay_rel_err"] <= 1e-2
    assert rep["lambda_prime_rel_err"] <= 1e-2
    assert rep["lambda_window_ok"]
    assert rep["barrier_ok_config"]
    assert rep["barrier_ok_observed"]
    assert rep["barrier_min"] >= rep["barrier_gamma_config"]
    assert rep["F2_sup"] > 0.0
    assert rep["lambda_prime_sup"] > 0.0


def test_identities_barrier_is_the_frozen_one(converged_run):
    """check_identities and flow_bounds share barrier_gamma: with the
    frozen Lambda0 the identity check tests the run's own gamma."""
    assert check_identities(converged_run)["barrier_gamma_config"] == converged_run.bounds.gamma


def test_identities_need_three_rows():
    g = make_grid(10)
    cfg = FlowConfig()
    traj = run(init_state(ones_field(g), parse_f_spec("1"), cfg), cfg)
    with pytest.raises(ValueError):
        check_identities(traj)


def test_horizon_verdict():
    g = make_grid(10)
    cfg = FlowConfig(dt_max=0.01, t_end=0.1, conv_tol=1e-14)
    state = init_state(perturbed_constant(g, amp=0.05), parse_f_spec("1"), cfg)
    traj = run(state, cfg)
    assert traj.verdict == "HorizonReached"
    assert abs(traj.rows[-1][0] - 0.1) < 1e-9
    assert len(traj.rows) == 11


def test_horizon_clips_last_step():
    """A t_end that is not a multiple of dt ends the run at t_end: the
    last step is shortened instead of stepping past the horizon."""
    g = make_grid(10)
    cfg = FlowConfig(dt_max=0.01, t_end=0.105, conv_tol=1e-14)
    state = init_state(perturbed_constant(g, amp=0.05), parse_f_spec("1"), cfg)
    traj = run(state, cfg)
    assert traj.verdict == "HorizonReached"
    assert state.steps == 11
    assert abs(traj.rows[-1][0] - 0.105) < 1e-12
    assert abs(traj.rows[-1][1] - 0.005) < 1e-12


def test_record_every_does_not_change_run():
    """Thinning the rows changes which steps are written, not the run:
    every row of the thinned run is the full run's row at that step."""
    g = make_grid(15)
    runs = []
    for every in (1, 7):
        cfg = FlowConfig(dt_max=0.01, t_end=0.5, conv_tol=1e-14, record_every=every)
        state = init_state(perturbed_constant(g), parse_f_spec("2 - z^2"), cfg)
        runs.append((run(state, cfg), state))
    (full, full_state), (thin, thin_state) = runs
    assert thin.verdict == full.verdict == "HorizonReached"
    assert thin_state.steps == full_state.steps == 50
    assert thin_state.t == full_state.t
    recorded = list(range(0, full_state.steps, 7)) + [full_state.steps]
    assert len(full.rows) == full_state.steps + 1
    assert thin.rows == [full.rows[k] for k in recorded]


def test_record_every_thins_rows():
    g = make_grid(10)
    cfg = FlowConfig(dt_max=0.01, t_end=0.1, conv_tol=1e-14, record_every=4)
    state = init_state(perturbed_constant(g, amp=0.05), parse_f_spec("1"), cfg)
    traj = run(state, cfg)
    # rows at steps 0, 4, 8 plus the forced final record at step 10
    assert len(traj.rows) == 4
    t = traj.column("t")
    assert abs(t[1] - 0.04) < 1e-12
    assert abs(t[-1] - 0.1) < 1e-9


def test_amplitude_guard_verdict():
    """An offset bubble (no longer a steady state) trips the max-u guard
    rather than the cap detector: its caps are below threshold at small
    radii but its peak exceeds the configured amplitude."""
    g = make_grid(31)
    cfg = FlowConfig(blowup_maxu=2.0)
    u0 = BoundaryField(g, values=bubble_field(N_POLE, 0.3, g).values + 0.2)
    state = init_state(u0, parse_f_spec("1"), cfg)
    traj = run(state, cfg)
    assert traj.verdict == "Concentrating"
    assert "max u exceeded" in traj.reason
    conc = traj.info["concentration"]
    assert conc["Q"] is not None
    assert conc["Q"][2] > 0.99


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_detector_fires_on_initial_data():
    g = make_grid(63)
    cfg = FlowConfig()
    state = init_state(bubble_field(N_POLE, 0.05, g), parse_f_spec("1"), cfg)
    traj = run(state, cfg)
    assert traj.verdict == "Concentrating"
    assert "initial data" in traj.reason
    assert len(traj.rows) == 1
    conc = traj.info["concentration"]
    assert len(conc["clusters"]) == 1
    assert not conc["uniqueness_warning"]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_detector_reports_two_bubbles():
    """Glued antipodal 0.05 bubbles flag two clusters at t = 0 and trip
    the uniqueness warning."""
    g = make_grid(63)
    u0 = BoundaryField(g, values=bubble_field(N_POLE, 0.05, g).values + bubble_field(-N_POLE, 0.05, g).values)
    traj = run(init_state(u0, parse_f_spec("2 + 0.5z"), FlowConfig()), FlowConfig())
    assert traj.verdict == "Concentrating"
    assert "initial data" in traj.reason
    conc = traj.info["concentration"]
    assert len(conc["clusters"]) == 2
    assert conc["uniqueness_warning"]


def test_concentration_block_oracles():
    """An eps = 0.5 bubble has H = 1 and unit volume, so the detector's
    total mass, integral |H|^2 dmu_g, is 4 pi; S is the row's S columns
    and center_of_mass of the state, bit for bit."""
    g = make_grid(31)
    cfg = FlowConfig(blowup_maxu=1.5)
    state = init_state(bubble_field([0.3, -0.2, 0.9], 0.5, g), parse_f_spec("2 + 0.5z"), cfg)
    traj = run(state, cfg)
    assert traj.verdict == "Concentrating"
    assert state.t == 0.0
    conc = traj.info["concentration"]
    assert abs(conc["total_mass"] - 4.0 * np.pi) <= 1e-12
    row = dict(zip(traj.columns, traj.rows[-1]))
    assert conc["S"] == [row["S_x"], row["S_y"], row["S_z"]]
    assert conc["S"] == [float(v) for v in center_of_mass(state.u)[0]]


def test_unprojected_volume_drift_is_small():
    """Without projection the volume drifts at the truncation-error rate
    of the scheme, not catastrophically."""
    g = make_grid(15)
    cfg = FlowConfig(dt_max=1e-3, t_end=0.5, conv_tol=1e-14,
                     vol_project=False)
    state = init_state(perturbed_constant(g), parse_f_spec("1"), cfg)
    traj = run(state, cfg)
    assert np.abs(traj.column("vol_err")).max() <= 1e-3


def test_csv_roundtrip(tmp_path, converged_run):
    path = tmp_path / "traj.csv"
    converged_run.to_csv(path)
    with open(path) as fh:
        header = fh.readline().strip().split(",")
    assert tuple(header) == EXPECTED_COLUMNS
    data = np.loadtxt(path, delimiter=",", skiprows=1)
    assert data.shape == (len(converged_run.rows), len(EXPECTED_COLUMNS))
    assert np.array_equal(data[:, 0], converged_run.column("t"))
    assert np.array_equal(data[:, 4], converged_run.column("E_f"))


def test_verdict_document(converged_run):
    doc = converged_run.verdict_document()
    assert list(doc) == ["verdict", "reason", "t_final", "steps_recorded", "bounds", "concentration"]
    assert doc["verdict"] == "Converged"
    assert doc["steps_recorded"] == len(converged_run.rows)
    assert set(doc["bounds"]) == {
        "lambda1", "lambda2", "Lambda0", "gamma", "c_star", "sigma", "beta",
        "condition_ii_ok", "f_mean", "f_max", "f_absmax", "min_H0",
    }
    assert json.loads(json.dumps(doc)) == doc


def test_row_matches_reference_functions():
    """The one-pass row reduction agrees with volume, lambda_prime,
    lp_residual and center_of_mass evaluated one at a time."""
    g = make_grid(15)
    cfg = FlowConfig(t_end=0.3, conv_tol=1e-14)
    f = parse_f_spec("2 - z^2")
    state = init_state(perturbed_constant(g), f, cfg)
    traj = run(state, cfg)
    row = dict(zip(traj.columns, traj.rows[-1]))
    u, fv, lam, H = state.u, state.f_values, state.energy_report.lam, state.H
    S, _ = center_of_mass(u)
    want = {
        "vol_err": volume(u) - 1.0,
        "F2": lp_residual(u, fv, lam, 2, H=H),
        "lambda_prime": lambda_prime(u, fv, lam, H=H),
        "Lp_res_p4": lp_residual(u, fv, lam, 4, H=H),
        "S_x": S[0], "S_y": S[1], "S_z": S[2],
        "min_H_minus_lambda_f": float((H - lam * fv).min()),
    }
    for name, value in want.items():
        assert abs(row[name] - value) <= 1e-14 * max(1.0, abs(value)), name
    assert row["Lp_res_p2"] == row["F2"]


def test_legendre_stages_per_recorded_step(monkeypatch):
    """Every analyze and synthesize runs the Legendre stage once.  A step
    costs four (per stage an analysis of the remainder and one synthesis
    of the stage and its DtN image) and a row two (analyze, then one
    synthesis of all cap radii): 6 per recorded step."""
    g = make_grid(10)
    cfg = FlowConfig(dt_max=0.01, t_end=0.2, conv_tol=1e-14)
    state = init_state(perturbed_constant(g, amp=0.05), parse_f_spec("1"), cfg)
    calls, legendre = [], spectral._legendre

    def counted(*args):
        calls.append(args)
        return legendre(*args)

    monkeypatch.setattr(spectral, "_legendre", counted)
    traj = run(state, cfg)
    assert state.steps == 20 and len(traj.rows) == 21
    assert len(calls) == 4 * state.steps + 2 * len(traj.rows)


def test_step_self_convergence_is_second_order():
    """At a fixed step h (dt_min = dt_max = h) the step is second
    order: max|u_h(T) - u_{h/2}(T)| falls by a factor 3 to 5 per halving."""
    g = make_grid(15)
    finals = []
    for k in range(3):
        h = 0.04 / 2**k
        cfg = FlowConfig(dt_min=h, dt_max=h)
        state = init_state(perturbed_constant(g, l=2, m=0), parse_f_spec("2 - z^2"), cfg)
        for _ in range(25 * 2**k):
            flow.step(state, cfg)
        assert abs(state.t - 1.0) < 1e-12
        finals.append(state.u.values)
    d1, d2 = (float(np.abs(a - b).max()) for a, b in zip(finals, finals[1:]))
    assert 3.0 <= d1 / d2 <= 5.0, (d1, d2)


def test_concentrated_bubble_keeps_energy_monotone_at_L63(monkeypatch):
    """A north-pole eps = 0.15 bubble on f = 2 + 0.5z with the default
    config: E_f never rises over a step (1e-12 relative), and lambda
    stays in its window above the curvature barrier."""
    rises, original = [], flow.step

    def watched(state, config):
        before = state.energy_report.E_f
        original(state, config)
        rises.append(state.energy_report.E_f / before - 1.0)
        return state

    monkeypatch.setattr(flow, "step", watched)
    g = make_grid(63)
    cfg = FlowConfig(t_end=1.0)
    state = init_state(bubble_field(N_POLE, 0.15, g), parse_f_spec("2 + 0.5z"), cfg)
    traj = run(state, cfg)
    assert traj.verdict == "HorizonReached"
    assert len(rises) == state.steps > 0
    assert max(rises) <= 1e-12
    rep = check_identities(traj)
    assert rep["lambda_window_ok"]
    assert rep["barrier_ok_config"]


def test_phi_functions_match_extended_precision():
    """e^z, phi1 and phi2 agree with 60-digit references to 1e-13 relative
    on both sides of the Taylor switch at |z| = 1e-2 and far out on the
    negative axis, with no overflow or invalid value (Tier-1 turns any
    RuntimeWarning of the flow module into an error)."""
    z = np.array([0.0, -1e-12, -1e-6, -1e-3, -9.99e-3, -1e-2, -1.01e-2, -0.3, -1.0, -30.0, -800.0, -1e6])
    got = flow._phi(z)
    with localcontext() as ctx:
        ctx.prec = 60
        for k, zk in enumerate(z):
            d = Decimal(float(zk))
            e = d.exp()
            want = (e, Decimal(1), Decimal("0.5")) if zk == 0.0 else (e, (e - 1) / d, (e - 1 - d) / (d * d))
            for value, ref in zip((g[k] for g in got), want):
                assert abs(value - float(ref)) <= 1e-13 * abs(float(ref)) + 1e-300, (zk, value, ref)
