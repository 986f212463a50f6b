"""Tests for the volume-normalized curvature flow driver.

Validates:
- config validation and the trajectory column layout
- init_state's rejections: nonpositive data, data that band-limit
  filtering makes nonpositive, a nonpositive f-weighted volume
- immediate convergence on the stationary pair (constant factor,
  constant target)
- a full convergence run: monotone normalized energy, unit volume to
  projection accuracy, step-size rules, verdicts, and the recorded
  diagnostic identities; a run that converges without a hand-off
- the concentration verdict of the amplitude guard, and its block on a
  unit bubble against its oracles (total mass 4 pi, S the row's and
  center_of_mass's)
- the resolution gate: unresolved initial data (sharp bubbles at L = 63,
  one or two, an aliasing bubble at L = 8 and an eps = 0.02 bubble at
  L = 15) ends Failed at t = 0 with one row, whose tail equals the
  share of E in degrees l > 2L/3 of the analyzed u0, also where the
  residual, amplitude or horizon test would end the run at t = 0
- CSV round-trip and the verdict document
- a recorded row against the curvature layer's one-quantity functions,
  and the number of Legendre stages a recorded step costs (a row costs
  none)
- _evaluate's H and EnergyReport against mean_curvature_values and
  energy_functional bit for bit
- the FlowState record: lambda f, lambda f - H and min u after
  init_state and after a step, projected or not, and step updating and
  returning the state it is given
- the ETD-RK2 step: second-order self-convergence at fixed dt, a
  monotone E_f on a concentrated bubble at L = 63 with the defaults, and
  tries rejected for a nonpositive first stage and for a rise of E_f;
  run returning a Failed trajectory when no try is acceptable
- the Newton finish: the same u* and E_f from two hand-off residuals,
  u* unchanged by rescaling f, refused attempts on the bump target and
  on non-zonal data that leave the run's outputs as they were, a
  hand-off at the third row that certifies the later limit without
  oversolving, also where Newton needs a 7th iteration, refusals on an
  obstructed target, at a saddle of higher E_f, at an aliased limit and
  for an exhausted GMRES budget, and its transform count; its GMRES
  against a dense solve, at tolerances from 1e-2 to 1e-12
- with the finish off, the terminal decay rate mu_+/4 of f = 1
- the identity oracle on a target rescaled by 1e30
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
from bmcflow import cli, conformal, curvature, flow, spectral
from bmcflow.conformal import center_of_mass
from bmcflow.curvature import lambda_prime, lp_residual, volume
from bmcflow.prescribed import parse_f_spec
from bmcflow.spectral import BoundaryField, make_grid

N_POLE = np.array([0.0, 0.0, 1.0])

EXPECTED_COLUMNS = (
    "t", "dt", "lambda", "E", "E_f", "F2", "lambda_prime", "vol_err",
    "min_u", "max_u", "S_x", "S_y", "S_z", "S_norm",
    "tail",
    "Lp_res_p4", "min_H_minus_lambda_f",
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
def converged_flow():
    """(config, final state, trajectory) of a default-config run that the Newton finish ends."""
    g = make_grid(15)
    cfg = FlowConfig()
    state = init_state(perturbed_constant(g), parse_f_spec("1"), cfg)
    return cfg, state, run(state, cfg)


@pytest.fixture(scope="module")
def converged_run(converged_flow):
    return converged_flow[2]


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


def test_convergence_verdict(converged_flow):
    """The last row is the hand-off to the Newton finish, at a residual in
    [conv_tol, 1e4 conv_tol); the final state's residual is below conv_tol."""
    cfg, state, traj = converged_flow
    tol = cfg.conv_tol
    assert traj.verdict == "Converged"
    assert traj.reason.startswith("Newton finish from residual")
    assert len(traj.rows) >= 3
    assert tol <= np.sqrt(traj.column("F2")[-1]) < 1e4 * tol
    assert np.sqrt(lp_residual(state.u, state.f_values, state.energy_report.lam, 2)) < tol


def test_normalized_energy_monotone(converged_run):
    d = np.diff(converged_run.column("E_f"))
    assert d.max() <= 1e-10


def test_volume_projection_holds(converged_run):
    assert np.abs(converged_run.column("vol_err")).max() <= 1e-9


def test_step_size_rules(converged_flow):
    cfg, _, traj = converged_flow
    dt = traj.column("dt")[1:]
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


def test_flow_converges_on_its_own_without_a_handoff():
    """With one row at t = 0 and none until a verdict, no recorded state can
    be handed to the Newton finish (it needs 3 rows), so the flow itself
    ends the run once sqrt F2 < conv_tol, and the last row is that state."""
    g = make_grid(15)
    c = np.zeros((16, 31))
    c[0, 15], c[2, 15], c[4, 15] = 1.0, 0.05, 0.03
    cfg = FlowConfig(record_every=10**6)
    state = init_state(BoundaryField(g, coeffs=c), parse_f_spec("2 - z^2"), cfg)
    traj = run(state, cfg)
    assert traj.verdict == "Converged"
    assert traj.reason.startswith("residual ") and traj.reason.endswith(f"below conv_tol at t={state.t:.6g}")
    assert "finish" not in traj.info
    assert len(traj.rows) == 2 and traj.rows[-1][0] == state.t
    assert 10.0 < state.t < 13.0
    assert np.sqrt(traj.column("F2")[-1]) < cfg.conv_tol


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
    """An offset bubble (no longer a steady state) is resolved at L = 31,
    and its peak exceeds the configured amplitude: the max-u guard ends
    the run."""
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


def _glued_pair(g):
    return BoundaryField(g, values=bubble_field(N_POLE, 0.05, g).values + bubble_field(-N_POLE, 0.05, g).values)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("L, spec, u0", [
    pytest.param(63, "1", lambda g: bubble_field(N_POLE, 0.05, g), id="L63-bubble"),
    pytest.param(63, "2 + 0.5z", _glued_pair, id="L63-glued-pair"),
    pytest.param(8, "1", lambda g: bubble_field([1.0, 0.0, 0.0], 0.5, g), id="L8-aliasing-bubble"),
    pytest.param(15, "2 + 0.5z", lambda g: bubble_field([0.2, 0.1, 0.97], 0.02, g), id="L15-eps0.02-bubble"),
])
def test_resolution_gate_fails_unresolved_initial_data(L, spec, u0):
    """Initial data whose degrees l > 2L/3 hold more than _TAIL_MAX of E
    ends Failed at t = 0 with one row, and the reason names the gate.  The
    row's tail is the share of E = sum (2l+1) c_lm^2 in those degrees, for
    the analyzed values of u0: the share does not see the constant that
    scales u0 to unit volume.  The gate comes first: a config under which
    the residual, amplitude or horizon test would end the run at t = 0
    leaves the verdict Failed."""
    g = make_grid(L)
    values = u0(g).values
    state = init_state(BoundaryField(g, values=values), parse_f_spec(spec), FlowConfig())
    traj = run(state, FlowConfig())
    assert traj.verdict == "Failed" and state.t == 0.0 and len(traj.rows) == 1
    assert traj.reason.startswith("resolution gate") and "t=0" in traj.reason
    c = spectral.analyze(values, g)
    energy = curvature.energy_weights(L) * c * c
    want = energy[2 * L // 3 + 1:].sum() / energy.sum()
    tail = traj.column("tail")[0]
    assert tail > flow._TAIL_MAX and abs(tail - want) <= 1e-12 * want
    for cfg in (FlowConfig(conv_tol=1e3), FlowConfig(blowup_maxu=0.5), FlowConfig(t_end=1e-7)):
        assert run(init_state(BoundaryField(g, values=values), parse_f_spec(spec), cfg), cfg).verdict == "Failed"


def test_concentration_block_oracles():
    """An eps = 0.5 bubble has H = 1 and unit volume, so the block's
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


@pytest.mark.parametrize("spec", ["2 - z^2", "0.3 + z", "2 + 0.5z"])
def test_row_lambda_prime_is_the_reference_bit_for_bit(spec):
    """The row forms lambda f r w in the order lambda_prime does,
    ((lambda f) r) w, so its lambda_prime column equals the reference
    exactly; forming (r lambda) f instead changes the last bits."""
    g = make_grid(15)
    cfg = FlowConfig(t_end=0.3, conv_tol=1e-14)
    state = init_state(perturbed_constant(g), parse_f_spec(spec), cfg)
    traj = run(state, cfg)
    assert traj.column("lambda_prime")[-1] == lambda_prime(state.u, state.f_values, state.energy_report.lam, H=state.H)


@pytest.mark.parametrize("spec", ["2 - z^2", "0.3 + z"])
@pytest.mark.parametrize("project", [False, True])
def test_evaluate_matches_one_quantity_functions(spec, project):
    """_evaluate forms u^2 once for H and u^{2#} and checks positivity
    once; its H and EnergyReport equal mean_curvature_values and
    energy_functional of the same state bit for bit, for a projected and
    an unprojected state and for a sign-changing f."""
    g = make_grid(15)
    coeffs = perturbed_constant(g, amp=0.2).coeffs * 1.3
    fv = parse_f_spec(spec)(g.nodes())
    state = flow._evaluate(coeffs, g, fv, project)
    u, report = state.u, state.energy_report
    assert np.array_equal(state.H, curvature.mean_curvature_values(u.values, state.dtn))
    want = curvature.energy_functional(u, fv)
    for name in ("E", "denom", "E_f", "lam"):
        assert getattr(report, name) == getattr(want, name), name
    assert np.array_equal(report.density, want.density)
    assert (abs(volume(u) - 1.0) < 1e-12) == project


def _assert_record_fields(state):
    assert np.array_equal(state.r, state.energy_report.lam * state.f_values - state.H)
    assert state.min_u == float(state.u.values.min())


@pytest.mark.parametrize("project", [True, False])
def test_state_record_fields_match_their_definitions(project):
    """The FlowState carries r = lambda f - H and min u, equal bit for bit
    to forming them from the state's own u, f, lambda and H, after
    init_state and after a step, with and without volume projection (a
    projected min u is c times the unscaled minimum, which must equal the
    minimum of the scaled values)."""
    g = make_grid(15)
    cfg = FlowConfig(vol_project=project)
    state = init_state(perturbed_constant(g, amp=0.2), parse_f_spec("2 - z^2"), cfg)
    _assert_record_fields(state)
    flow.step(state, cfg)
    assert state.steps == 1
    _assert_record_fields(state)


def test_step_updates_and_returns_the_state_it_is_given():
    """step(s, cfg) is s: a wrapper that holds the state it passed in (as
    perfbench's E_f watch does) sees the new E_f and clock there."""
    g = make_grid(15)
    cfg = FlowConfig()
    state = init_state(perturbed_constant(g), parse_f_spec("2 - z^2"), cfg)
    before = state.energy_report.E_f
    assert flow.step(state, cfg) is state
    assert state.steps == 1 and state.t == state.dt > 0.0
    assert state.energy_report.E_f != before


def test_legendre_stages_per_recorded_step(monkeypatch):
    """Analyses and syntheses are counted apart, at every module that
    binds them.  A step costs two of each (per stage an analysis of the
    remainder and one synthesis of the stage and its DtN image), each
    running one Legendre stage, and a recorded row none."""
    g = make_grid(10)
    cfg = FlowConfig(dt_max=0.01, t_end=0.2, conv_tol=1e-14)
    state = init_state(perturbed_constant(g, amp=0.05), parse_f_spec("1"), cfg)
    calls = {"analyze": 0, "synthesize": 0}
    for name in calls:
        original = getattr(spectral, name)

        def counted(*args, _name=name, _original=original):
            calls[_name] += 1
            return _original(*args)

        for module in (spectral, flow, curvature, conformal):
            if getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, counted)
    traj = run(state, cfg)
    assert state.steps == 20 and len(traj.rows) == 21
    assert calls == {"analyze": 2 * state.steps, "synthesize": 2 * state.steps}

    # A finished run adds its Newton attempt: one analysis of the hand-off's
    # residual, one synthesis and one analysis per iteration and per GMRES
    # matvec, and the synthesis that evaluates u*.
    cfg = FlowConfig(dt_max=0.01)
    state = init_state(perturbed_constant(g, amp=0.05), parse_f_spec("1"), cfg)
    calls.update(analyze=0, synthesize=0)
    traj = run(state, cfg)
    (attempt,) = traj.info["finish"]
    assert attempt["certified"] and attempt["matvecs"] > attempt["iterations"] > 0
    newton = attempt["iterations"] + attempt["matvecs"]
    flowing = 2 * state.steps
    assert calls == {"analyze": flowing + 1 + newton, "synthesize": flowing + newton + 1}


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


def _finished(spec, g, amp=0.05, **overrides):
    """(final state, trajectory) of a zonal l = 2 perturbation of 1 on spec, run with the overrides."""
    cfg = FlowConfig(**overrides)
    state = init_state(perturbed_constant(g, l=2, m=0, amp=amp), parse_f_spec(spec), cfg)
    return state, run(state, cfg)


def test_newton_finish_is_independent_of_the_handoff():
    """Handed off at sqrt F2 < 1 (conv_tol 1e-4) or < 1e-3 (conv_tol 1e-7),
    the finish certifies the same u* to 1e-10 and E_f to 1e-12, and E_f(u*)
    lies at or below every recorded E_f: it is the flow's limit."""
    g = make_grid(15)
    finals = []
    for tol in (1e-4, 1e-7):
        state, traj = _finished("2 - z^2", g, conv_tol=tol)
        (attempt,) = traj.info["finish"]
        assert traj.verdict == "Converged" and attempt["certified"]
        assert attempt["residual"] <= 1e-12 and attempt["sqrt_F2"] < tol
        assert tol <= attempt["handoff_residual"] < 1e4 * tol
        assert state.min_u > 0.0 and abs(volume(state.u) - 1.0) <= 1e-12
        assert state.energy_report.E_f <= traj.column("E_f").min()
        assert attempt["E_f"] == state.energy_report.E_f
        finals.append(state)
    a, b = finals
    assert float(np.abs(a.u.values - b.u.values).max()) <= 1e-10
    assert abs(a.energy_report.E_f - b.energy_report.E_f) <= 1e-12


def test_newton_finish_is_scale_invariant():
    """Prescribing c f is prescribing f: for c = 1e-30 and 1e30 the finish
    writes the u* of c = 1 in the same number of iterations, with E_f
    scaled by c^{-1/2}."""
    g = make_grid(15)
    ref, ref_traj = _finished("2 - z^2", g)
    for spec, c in (("2e-30 - 1e-30z^2", 1e-30), ("2e30 - 1e30z^2", 1e30)):
        state, traj = _finished(spec, g)
        assert traj.verdict == "Converged" and traj.info["finish"][-1]["certified"]
        assert traj.info["finish"][-1]["iterations"] == ref_traj.info["finish"][-1]["iterations"]
        assert float(np.abs(state.u.values - ref.u.values).max()) <= 1e-12
        assert abs(state.energy_report.E_f * c**0.5 / ref.energy_report.E_f - 1.0) <= 1e-12


def _flow_run(tmp_path, name, doc):
    """The output directory of `flow run` on the config doc; the run must exit 0."""
    cfg_path, out = tmp_path / f"{name}.json", tmp_path / name
    cfg_path.write_text(json.dumps(doc))
    assert cli.main(["flow", "run", "--config", str(cfg_path), "--out", str(out)]) == 0
    return out


def test_newton_finish_refused_on_the_bump_target(tmp_path, monkeypatch):
    """The bump target from u = 1 (L = 31, t = 50) hands off twice, at
    t = 0.1 and, with the threshold ten times lower, at t = 0.8; each time
    the residual rises at the first Newton iteration.  The run goes on to
    HorizonReached, certificate.json says so, and the trajectory is the
    one a run without the attempts records."""
    doc = {"L": 31, "f_spec": "1.34 - 1.36bump(8; 0,0,-1)", "checks": ["identities"]}
    out = _flow_run(tmp_path, "out", doc)
    with open(out / "verdict.json") as fh:
        assert json.load(fh)["verdict"] == "HorizonReached"
    with open(out / "certificate.json") as fh:
        cert = json.load(fh)
    assert cert["certified"] is False
    first, second = cert["attempts"]
    assert abs(first["t"] - 0.1) < 1e-9 and abs(second["t"] - 0.8) < 1e-9
    assert 0.1 <= first["handoff_residual"] < 1.0 and first["matvecs"] == 7
    assert second["handoff_residual"] < 0.1
    for attempt in (first, second):
        assert not attempt["certified"] and attempt["reason"].startswith("residual rose")

    monkeypatch.setattr(flow, "newton_finish", lambda state, tol: ({"certified": False}, None))
    skipped = _flow_run(tmp_path, "skipped", doc)
    for name in ("trajectory.csv", "verdict.json", "identities.json"):
        assert (out / name).read_bytes() == (skipped / name).read_bytes()


def test_refused_first_handoff_changes_nothing_else(tmp_path, monkeypatch):
    """2 - z^2 at L = 31 from a seeded non-zonal perturbation: the first
    hand-off, at t ~ 0.055, is refused after 14 matvecs.  Everything
    after it is the run whose first threshold is ten times lower: the
    same trajectory, verdict and identities byte for byte, and the same
    later attempts."""
    doc = {"seed": 2, "L": 31, "f_spec": "2 - z^2", "checks": ["identities"],
           "u0_spec": {"type": "perturbation", "random": {"lmax": 4, "amp": 0.03}}}
    out = _flow_run(tmp_path, "early", doc)
    monkeypatch.setattr(flow, "_HANDOFF", flow._HANDOFF / 10.0)
    late = _flow_run(tmp_path, "late", doc)
    for name in ("trajectory.csv", "verdict.json", "identities.json"):
        assert (out / name).read_bytes() == (late / name).read_bytes()
    with open(out / "certificate.json") as fh, open(late / "certificate.json") as gh:
        attempts, later = json.load(fh)["attempts"], json.load(gh)["attempts"]
    first = attempts[0]
    assert not first["certified"] and abs(first["t"] - 0.055) < 1e-3 and first["matvecs"] == 14
    assert attempts[1:] == later and later[-1]["certified"]


@pytest.mark.parametrize("a2, a4, iterations, matvecs", [pytest.param(0.02, 0.02, 4, 20, id="0.02-0.02"),
                                                        pytest.param(0.06, 0.06, 5, 23, id="0.06-0.06")])
def test_handoff_at_the_third_row_certifies_the_later_limit(monkeypatch, a2, a4, iterations, matvecs):
    """At both ends of the converge benchmark's amplitude range, 1 + a2 Y20
    + a4 Y40 on 2 - z^2 at L = 31 hands off at the third row and is
    certified on that attempt, in the given Newton iterations and matvecs;
    u* is the one certified from the threshold ten times lower, to 1e-10,
    and so is E_f, to 1e-12.  No GMRES solve oversolves: none asks for a
    relative residual below min(1e-2, 0.1 _FINISH_TOL / res), res being
    its right-hand side's norm over the hand-off scale |(2l+1) c|."""
    g = make_grid(31)
    scales, asked = [], []
    finish, gmres = flow.newton_finish, flow._gmres

    def spy_finish(state, conv_tol):
        scales.append(float(np.linalg.norm(curvature.energy_weights(31) * state.u.coeffs)))
        return finish(state, conv_tol)

    def spy_gmres(apply, b, rtol, budget):
        asked.append((float(np.linalg.norm(b)) / scales[-1], rtol))
        return gmres(apply, b, rtol, budget)

    monkeypatch.setattr(flow, "newton_finish", spy_finish)
    monkeypatch.setattr(flow, "_gmres", spy_gmres)
    finals = []
    for handoff in (flow._HANDOFF, flow._HANDOFF / 10.0):
        monkeypatch.setattr(flow, "_HANDOFF", handoff)
        c = np.zeros((32, 63))
        c[0, 31], c[2, 31], c[4, 31] = 1.0, a2, a4
        cfg = FlowConfig()
        state = init_state(BoundaryField(g, coeffs=c), parse_f_spec("2 - z^2"), cfg)
        traj = run(state, cfg)
        assert traj.verdict == "Converged" and traj.info["finish"][-1]["certified"]
        finals.append((state, traj))
    (early, traj), (late, _) = finals
    (attempt,) = traj.info["finish"]
    assert len(traj.rows) == 3 and early.steps == 2
    assert attempt["residual"] <= flow._FINISH_TOL and attempt["sqrt_F2"] < FlowConfig().conv_tol
    assert (attempt["iterations"], attempt["matvecs"]) == (iterations, matvecs)
    assert asked and all(rtol >= min(1e-2, 0.1 * flow._FINISH_TOL / res) for res, rtol in asked)
    assert float(np.abs(early.u.values - late.u.values).max()) <= 1e-10
    assert abs(early.energy_report.E_f - late.energy_report.E_f) <= 1e-12


def test_contracting_first_attempt_is_certified_without_an_iteration_cap(monkeypatch):
    """2 - z^2 at L = 31 from the seed-8 random perturbation (lmax 4, amp
    0.03): the first hand-off, at the third row (t ~ 0.025), still
    contracts at its 6th Newton iteration and reaches the tolerance at the
    7th.  It is certified after 2 flow steps, and u* is the limit
    certified from the threshold ten times lower, after 51 steps, to 1e-10,
    and so is E_f, to 1e-12."""
    g = make_grid(31)
    spec = {"type": "perturbation", "random": {"lmax": 4, "amp": 0.03}}
    finals = []
    for handoff in (flow._HANDOFF, flow._HANDOFF / 10.0):
        monkeypatch.setattr(flow, "_HANDOFF", handoff)
        cfg = FlowConfig()
        state = init_state(cli._build_u0(spec, g, np.random.default_rng(8)), parse_f_spec("2 - z^2"), cfg)
        traj = run(state, cfg)
        (attempt,) = traj.info["finish"]
        assert traj.verdict == "Converged" and attempt["certified"]
        finals.append((state, attempt))
    (early, attempt), (late, _) = finals
    assert early.steps == 2 and abs(attempt["t"] - 0.025) < 1e-3 and attempt["iterations"] == 7
    assert attempt["residual"] <= flow._FINISH_TOL and late.steps == 51
    assert float(np.abs(early.u.values - late.u.values).max()) <= 1e-10
    assert abs(early.energy_report.E_f - late.energy_report.E_f) <= 1e-12


@pytest.mark.parametrize("modes", [((2, 0, 0.05),), ((2, 1, 0.04), (3, -2, 0.03))])
def test_terminal_rate_is_a_quarter_of_the_first_stable_eigenvalue(modes):
    """With the finish off (conv_tol 1e-14: its first threshold is never
    reached by t = 30), the flow of f = 1 at L = 31 decays to u = 1 at the
    rate mu_+/4 of its slowest mode, mu_+ = 2l - 2 at l = 2: sqrt F2 fitted
    over t in [12, 27] falls as exp(-t/2), to 2%."""
    g = make_grid(31)
    c = np.zeros((32, 63))
    c[0, 31] = 1.0
    for l, m, amp in modes:
        c[l, 31 + m] += amp
    cfg = FlowConfig(conv_tol=1e-14, t_end=30.0)
    traj = run(init_state(BoundaryField(g, coeffs=c), parse_f_spec("1"), cfg), cfg)
    assert traj.verdict == "HorizonReached" and "finish" not in traj.info
    t, res = traj.column("t"), np.sqrt(traj.column("F2"))
    window = (t >= 12.0) & (t <= 27.0)
    rate = -np.polyfit(t[window], np.log(res[window]), 1)[0]
    assert abs(rate / 0.5 - 1.0) <= 0.02


def test_gmres_matches_a_dense_solve():
    """_gmres reaches each tolerance, from the finish's loosest 1e-2 down
    to 1e-12, on a nonsymmetric 40 x 40 system, in matvecs that do not
    fall as the tolerance does, and at 1e-12 agrees with a dense solve;
    short of its budget it returns None."""
    rng = np.random.default_rng(5)
    A = np.eye(40) + 0.3 * rng.standard_normal((40, 40)) / np.sqrt(40)
    b = rng.standard_normal((5, 8))
    spent = []
    for rtol in (1e-2, 1e-5, 1e-9, 1e-12):
        x, matvecs = flow._gmres(lambda v: (A @ v.ravel()).reshape(v.shape), b, rtol, 60)
        assert 0 < matvecs <= 40
        assert np.linalg.norm(A @ x.ravel() - b.ravel()) <= rtol * np.linalg.norm(b)
        spent.append(matvecs)
    assert spent == sorted(spent)
    assert np.allclose(x.ravel(), np.linalg.solve(A, b.ravel()), rtol=0.0, atol=1e-10)
    assert flow._gmres(lambda v: (A @ v.ravel()).reshape(v.shape), b, 1e-12, 3) == (None, 3)


def _refused(state, conv_tol=1e-4):
    """newton_finish's record for a state it must refuse; the state is left as it was."""
    E_f, values = state.energy_report.E_f, state.u.values.copy()
    record, new = flow.newton_finish(state, conv_tol)
    assert new is None and not record["certified"]
    assert state.energy_report.E_f == E_f and np.array_equal(state.u.values, values)
    return record


def test_newton_finish_refused_where_no_metric_exists():
    """Newton must not invent a solution of the obstructed 2 + 0.5z: from
    an eps = 0.5 bubble state the finish is refused."""
    g = make_grid(15)
    state = init_state(bubble_field(np.array([0.3, 0.0, 1.0]), 0.5, g), parse_f_spec("2 + 0.5z"), FlowConfig())
    assert _refused(state)["reason"]


def test_newton_finish_refuses_a_limit_that_raises_E_f():
    """2 + xy at L = 8: from 1 + 0.05 Y20 + 0.03 Y40 Newton certifies a
    solution of that symmetry.  It is a saddle: with 1e-3 Y11 added, the
    flow passes near it and by t = 20 lies below its E_f.  Newton from
    there returns to the same solution, which would raise E_f, so the
    finish is refused."""
    g = make_grid(8)
    c = np.zeros((9, 17))
    c[0, 8], c[2, 8], c[4, 8] = 1.0, 0.05, 0.03
    saddle, _ = flow.newton_finish(init_state(BoundaryField(g, coeffs=c), parse_f_spec("2 + x*y"), FlowConfig()),
                                   1e-4)
    assert saddle["certified"]
    c[1, 9] = 1e-3
    cfg = FlowConfig(conv_tol=1e-12, record_every=10**6, t_end=20.0)
    state = init_state(BoundaryField(g, coeffs=c), parse_f_spec("2 + x*y"), cfg)
    assert run(state, cfg).verdict == "HorizonReached"
    record = _refused(state)
    assert record["reason"].startswith("E_f rose by ") and record["residual"] <= flow._FINISH_TOL
    assert record["E_f"] > state.energy_report.E_f
    assert abs(record["E_f"] - saddle["E_f"]) <= 1e-12


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_newton_finish_refuses_an_aliased_limit():
    """Newton solves H = lambda f projected to degree L.  From an eps = 0.15
    bubble at (1, 0, 0) on 2 - z^2, unresolved at L = 15, it reaches that
    projection's root to roundoff, but H - lambda f at the nodes is still
    of order 0.5 there, so the limit is not certified."""
    g = make_grid(15)
    state = init_state(bubble_field(np.array([1.0, 0.0, 0.0]), 0.15, g), parse_f_spec("2 - z^2"), FlowConfig())
    record = _refused(state)
    assert record["reason"].endswith("of the Newton limit not below conv_tol")
    assert record["residual"] <= flow._FINISH_TOL and record["sqrt_F2"] > 0.1


def test_newton_finish_refused_when_gmres_runs_out_of_matvecs():
    """On the sign-changing legendre(2) + 0.05 from an eps = 0.75 bubble at
    (0.53, 0.74, 0.38), L = 20, GMRES spends the whole budget of
    _FINISH_MATVECS matvecs within a few Newton iterations without
    reaching its tolerance, and the finish is refused."""
    g = make_grid(20)
    u0 = bubble_field(np.array([0.53, 0.74, 0.38]), 0.75, g)
    record = _refused(init_state(u0, parse_f_spec("legendre(2) + 0.05"), FlowConfig()))
    assert record["reason"] == f"GMRES did not converge within {flow._FINISH_MATVECS} matvecs"
    assert record["matvecs"] == flow._FINISH_MATVECS and record["iterations"] >= 1


def test_run_returns_a_failed_trajectory():
    """With dt pinned at 3.0 on 2 - z^2 from 1 + 0.3 Y10 (L = 15), no try
    of the first step is acceptable: run raises nothing and returns the
    trajectory as Failed, with the initial row recorded and the last
    cause, the local error, as its reason."""
    g = make_grid(15)
    cfg = FlowConfig(dt_min=3.0, dt_max=3.0)
    state = init_state(perturbed_constant(g, l=1, m=0, amp=0.3), parse_f_spec("2 - z^2"), cfg)
    traj = run(state, cfg)
    assert traj.verdict == "Failed" and state.steps == 0
    assert traj.reason.startswith("no step at or above dt_min = 3 accepted: local error ")
    assert traj.reason.endswith(f"above STEP_TOL = {flow.STEP_TOL:g}")
    assert len(traj.rows) == 1 and traj.rows[0][0] == 0.0


def _try(state, dt):
    """_etd_rk2's outcome for one try of size dt from state, with the default config and the step's stabilizer."""
    kappa = state.min_u ** (2.0 - curvature.TWO_SHARP)
    return flow._etd_rk2(state, FlowConfig(), dt, kappa, flow._remainder(state, kappa))


def test_try_that_loses_positivity_at_the_first_stage_is_rejected():
    """From an eps = 0.3 bubble at the north pole on 2 + 0.5z (L = 31), a
    try of dt = 50 drives the first stage nonpositive."""
    g = make_grid(31)
    state = init_state(bubble_field(N_POLE, 0.3, g), parse_f_spec("2 + 0.5z"), FlowConfig())
    assert _try(state, 50.0) == "positivity lost at the first stage"


def test_try_that_raises_E_f_is_rejected():
    """f = 1 from an eps = 0.4 bubble at (1, 0, 0), L = 15: a try of
    dt_max = 0.05 is within STEP_TOL but raises E_f by 2e-9 relative, more
    than roundoff, and is rejected.  dt = 0.01 lowers E_f, and step halves
    to an accepted try below dt_max."""
    g = make_grid(15)
    cfg = FlowConfig()
    state = init_state(bubble_field(np.array([1.0, 0.0, 0.0]), 0.4, g), parse_f_spec("1"), cfg)
    E_f = state.energy_report.E_f
    reason = _try(state, cfg.dt_max)
    assert reason.startswith("E_f rose by ") and float(reason.split()[3]) > 1e-9
    new, err = _try(state, 0.01)
    assert err <= flow.STEP_TOL and new.energy_report.E_f < E_f
    flow.step(state, cfg)
    assert state.dt < cfg.dt_max and state.energy_report.E_f < E_f


def test_identity_oracle_survives_a_rescaled_target():
    """2 + 0.5z from an eps = 0.5 bubble (L = 15, t = 2): scaling f by
    1e30 scales dE_f/dt and lambda' but must not mask their samples, so
    both identity errors match c = 1's to 1e-8 relative.  The run's centre
    of mass stays at |S| >= 0.63, so no Newton finish is tried."""
    g = make_grid(15)
    reports = []
    for spec in ("2 + 0.5z", "2e30 + 5e29z"):
        cfg = FlowConfig(t_end=2.0)
        traj = run(init_state(bubble_field(np.array([0.3, 0.0, 1.0]), 0.5, g), parse_f_spec(spec), cfg), cfg)
        assert traj.verdict == "HorizonReached" and "finish" not in traj.info
        assert traj.column("S_norm").min() >= 0.63
        reports.append(check_identities(traj))
    ref, scaled = reports
    for key in ("decay_rel_err", "lambda_prime_rel_err"):
        assert ref[key] > 1e-3
        assert abs(scaled[key] / ref[key] - 1.0) <= 1e-8, (key, ref[key], scaled[key])
