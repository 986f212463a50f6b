"""Time integration of the volume-normalized curvature flow.

The evolution is du/dt = -((n-1)/4)(H - lambda f) u with lambda chosen
so the boundary volume mean(u^{2#}) is conserved.  The discrete scheme
is ETD-RK2 (Cox & Matthews 2002) on the harmonic coefficients, so every
stage is band-limited: the stiff DtN part of the rate, -(1/2) u^-2 A u,
is integrated exactly under the constant stabilizer -(kappa/2) A with
kappa = max u^-2 frozen per step, and the rest explicitly (see step).
dt follows an embedded error estimate against STEP_TOL, grows at most
2x per step and is capped by dt_max; a try that loses positivity,
leaves the admissible set, exceeds STEP_TOL or raises E_f beyond
roundoff is halved.  Each accepted step is projected to unit volume by
a multiplicative constant.  The initial data and every accepted step
pass the same tests, in this order, and the first that holds ends the
run with its verdict:

  Converged       sqrt(F2) = ||lambda f - H||_{L2(dmu_g)} < conv_tol
  Concentrating   max u exceeds blowup_maxu
  HorizonReached  t within dt_min of t_end; the last step is clipped to it

A recorded step that no test ends may still end as Concentrating when
the cap-mass detector flags a cluster.  A step that no try at or above
dt_min makes acceptable raises FlowFailure with the partial trajectory
attached and the last cause named; its verdict is Failed.

Explicit Euler needs dt below about 4 min(u)^2 / L for the DtN term;
this scheme has no such bound, so the default dt_max is 0.05 at every
band limit, and at L = 63 a concentrated bubble runs with E_f monotone.
"""

import math
import numbers
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from .conformal import cap_integrals
from .curvature import (N, OMEGA_N, TWO_SHARP, barrier_gamma, energy_functional, flow_bounds, mean_curvature_values,
                        require_positive)
from .errors import AdmissibilityError, ConfigError, FlowFailure
from .spectral import BoundaryField, analyze, dtn_apply, synthesize

# Largest local error of an accepted step, relative to the new coefficients.
STEP_TOL = 1e-4
# Largest relative rise of E_f over an accepted step: roundoff, not a rise.
_EF_RISE_REL = 1e-13


# Types the FlowConfig annotations admit from JSON: bool is no number, a tuple is a list of numbers.
_ADMITS = {float: numbers.Real, int: numbers.Integral, bool: bool}


def admits(kind, value):
    """FlowConfig's type rule for a JSON value; the CLI checks its integer keys by it too."""
    if kind is tuple:
        return isinstance(value, (list, tuple)) and all(admits(float, v) for v in value)
    return isinstance(value, _ADMITS[kind]) and isinstance(value, bool) == (kind is bool)


@dataclass
class FlowConfig:
    dt_min: float = 1e-7
    dt_max: float = 0.05
    t_end: float = 50.0
    vol_project: bool = True
    conv_tol: float = 1e-4
    blowup_maxu: float = 1e3
    record_every: int = 1
    tau: float = 0.8
    cap_radii: tuple = (0.1, 0.2, 0.5)

    def validate(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if not admits(f.type, value):
                raise ConfigError(f"{f.name} must be of type {f.type.__name__}, got {value!r}")
        if not (0.0 < self.dt_min <= self.dt_max):
            raise ConfigError(f"need 0 < dt_min <= dt_max, got {self.dt_min}, {self.dt_max}")
        for name in ("conv_tol", "t_end", "blowup_maxu"):
            if getattr(self, name) <= 0.0:
                raise ConfigError(f"{name} must be positive, got {getattr(self, name)}")
        if self.record_every < 1:
            raise ConfigError(f"record_every must be >= 1, got {self.record_every}")
        tau_max = 2.0 ** (1.0 / N)
        if not 0.0 < self.tau < tau_max:
            raise ConfigError(f"tau must lie in (0, 2^(1/n)) = (0, {tau_max:.6g}), got {self.tau}")
        if not self.cap_radii or not all(0.0 < r < np.pi for r in self.cap_radii):
            raise ConfigError(f"cap_radii must list radii in (0, pi), got {self.cap_radii}")
        return self


@dataclass
class FlowState:
    t: float
    u: BoundaryField
    f_values: np.ndarray
    H: np.ndarray              # mean curvature at the grid nodes
    dtn: np.ndarray            # DtN u at the grid nodes
    energy_report: object
    bounds: object
    dt: float                  # the last accepted step (dt_max at t = 0)
    dt_next: float             # the size step() tries first
    steps: int = 0


@dataclass
class Trajectory:
    columns: tuple
    rows: list = field(default_factory=list)
    verdict: str = ""
    reason: str = ""
    config: FlowConfig = None
    bounds: object = None
    info: dict = field(default_factory=dict)

    def column(self, name):
        j = self.columns.index(name)
        return np.array([row[j] for row in self.rows])

    def to_csv(self, path):
        with open(path, "w") as fh:
            fh.write(",".join(self.columns) + "\n")
            for row in self.rows:
                fh.write(",".join(f"{v:.17g}" for v in row) + "\n")

    def verdict_document(self):
        """Verdict, frozen bounds and concentration info as a plain dict with a fixed key order."""
        return {
            "verdict": self.verdict,
            "reason": self.reason,
            "t_final": self.rows[-1][0] if self.rows else None,
            "steps_recorded": len(self.rows),
            "bounds": None if self.bounds is None else asdict(self.bounds),
            "concentration": self.info.get("concentration"),
        }


def _columns(config):
    cols = ["t", "dt", "lambda", "E", "E_f", "F2", "lambda_prime", "vol_err",
            "min_u", "max_u", "S_x", "S_y", "S_z", "S_norm"]
    cols += [f"capmass_r{r:g}" for r in config.cap_radii]
    cols += ["Lp_res_p2", "Lp_res_p4", "min_H_minus_lambda_f"]
    return tuple(cols)


def _evaluate(coeffs, grid, f_values, project):
    """(u, DtN u, H, EnergyReport) of the state with harmonic coefficients coeffs; DtN u and H at the nodes.

    One synthesis of (coeffs, A coeffs) serves u, DtN u and H.  With
    project, coeffs, values and DtN u are first scaled by the constant
    that gives u unit volume.  A nonpositive node raises
    AdmissibilityError with condition "positivity"; energy_functional
    raises it when u lies outside the admissible set.
    """
    values, dtn = synthesize(np.stack((coeffs, dtn_apply(coeffs))), grid)
    require_positive(values, "conformal factor")
    if project:
        c = grid.integrate(values ** TWO_SHARP) ** (-1.0 / TWO_SHARP)
        coeffs, values, dtn = c * coeffs, c * values, c * dtn
    u = BoundaryField(grid, values=values, coeffs=coeffs)
    return u, dtn, mean_curvature_values(values, dtn), energy_functional(u, f_values)


def init_state(u0, f, config):
    """Admissible state at t=0 for the closed-form target f: filtered, positive, unit boundary volume.

    The initial data is band-limited (u0's coefficients are synthesized
    again) and rescaled by a constant to unit volume (the normalized
    energy is scale-invariant, so this changes nothing downstream).
    Frozen bounds (multiplier window, barrier, energy threshold) are
    attached.
    """
    config.validate()
    f_values = f(u0.grid.nodes())
    if float(u0.values.min()) <= 0.0:
        raise AdmissibilityError("initial data is not positive", condition="positivity")
    try:
        u, dtn, H, report = _evaluate(u0.coeffs, u0.grid, f_values, project=True)
    except AdmissibilityError as exc:
        if exc.condition != "positivity":
            raise
        raise AdmissibilityError("initial data loses positivity under band-limit filtering",
                                 condition="positivity") from None
    return FlowState(
        t=0.0,
        u=u,
        f_values=f_values,
        H=H,
        dtn=dtn,
        energy_report=report,
        bounds=flow_bounds(u, f, H),
        dt=config.dt_max,
        dt_next=config.dt_max,
    )


def _phi(z):
    """(e^z, phi1(z), phi2(z)) for z <= 0: phi1 = (e^z - 1)/z and phi2 = (e^z - 1 - z)/z^2.

    Both quotients are formed from expm1 (Kassam & Trefethen 2005).
    Below |z| = 1e-2, where the one of phi2 cancels, both are their
    degree-6 Taylor polynomials instead, so each is good to 1e-13
    relative on either side (z = 0 gives the limits 1 and 1/2).
    """
    small = np.abs(z) < 1e-2
    zs, zt = np.where(small, 1.0, z), np.where(small, z, 0.0)
    em1 = np.expm1(z)
    taylor1 = taylor2 = 0.0
    for k in range(6, -1, -1):
        taylor1 = taylor1 * zt + 1.0 / math.factorial(k + 1)
        taylor2 = taylor2 * zt + 1.0 / math.factorial(k + 2)
    return np.exp(z), np.where(small, taylor1, em1 / zs), np.where(small, taylor2, (em1 - z) / zs**2)


def _remainder(u, dtn_values, H_values, lam, f_values, kappa):
    """Coefficients of R(u) = -((n-1)/4)(H - lambda f) u + (kappa/2) DtN u: the rate less the stabilizer."""
    return analyze(-(N - 1.0) / 4.0 * (H_values - lam * f_values) * u.values + 0.5 * kappa * dtn_values, u.grid)


def _cause(exc, where):
    """Why a try fails when _evaluate raised exc at a stage; where is empty for the new state."""
    if exc.condition == "positivity":
        return f"positivity lost{where}"
    return f"left the admissible set{where}: {exc}"


def _etd_rk2(state, config, dt, kappa, r_u):
    """One ETD-RK2 try of size dt: ((u, DtN u, H, EnergyReport) of the new state, err), or why it fails."""
    grid, fv = state.u.grid, state.f_values
    e, phi1, phi2 = _phi(-0.5 * dt * kappa * np.arange(grid.L + 1.0)[:, None])
    a = e * state.u.coeffs + dt * phi1 * r_u
    try:
        stage, a_dtn, a_H, a_report = _evaluate(a, grid, fv, project=False)
    except AdmissibilityError as exc:
        return _cause(exc, " at the first stage")
    correction = dt * phi2 * (_remainder(stage, a_dtn, a_H, a_report.lam, fv, kappa) - r_u)
    coeffs = a + correction
    err = float(np.linalg.norm(correction) / np.linalg.norm(coeffs))
    if err > STEP_TOL:
        return f"local error {err:.3e} above STEP_TOL = {STEP_TOL:g}"
    try:
        u, dtn, H, report = _evaluate(coeffs, grid, fv, project=config.vol_project)
    except AdmissibilityError as exc:
        return _cause(exc, "")
    rise = report.E_f / state.energy_report.E_f - 1.0
    if rise > _EF_RISE_REL:
        return f"E_f rose by {rise:.3e} relative"
    return (u, dtn, H, report), err


def step(state, config):
    """One accepted ETD-RK2 step (Cox & Matthews 2002), in place.

    The stiff part of the rate, -((n-1)/4) a_n u^{2-2#} DtN u = -(1/2) u^-2 A u,
    is integrated exactly under the stabilizer Lc = -(kappa/2) A with
    kappa = max u^-2 frozen for the step; Lc is diagonal in coefficient
    space (-kappa l / 2).  With r the coefficients of the remainder
    R(u) = -((n-1)/4)(H - lambda f) u + (kappa/2) DtN u, a step of size h
    from the coefficients c is

        a  = e^{h Lc} c + h phi1(h Lc) r(u)
        c+ = a + h phi2(h Lc) (r(a) - r(u)),

    with lambda at a from energy_functional.  The correction's norm over
    that of c+ estimates the local error (by Parseval).  The first try is
    the proposal left by the previous step (dt_max at t = 0), but not below
    dt_min and not past t_end.  A try is halved while a stage has a
    nonpositive node or leaves the admissible set, the error exceeds
    STEP_TOL, or E_f rises by more than 1e-13 relative; if no try at or
    above dt_min is accepted, FlowFailure names the last cause.  The
    accepted field is projected to unit volume (if configured) and the
    next proposal is min(dt_max, 2 h, 0.9 sqrt(STEP_TOL/err) h).  An
    accepted first try costs two analyses and two two-field syntheses.
    """
    u = state.u
    kappa = float(u.values.min()) ** (2.0 - TWO_SHARP)
    r_u = _remainder(u, state.dtn, state.H, state.energy_report.lam, state.f_values, kappa)
    dt = min(max(state.dt_next, config.dt_min), config.t_end - state.t)
    while isinstance(result := _etd_rk2(state, config, dt, kappa, r_u), str):
        dt *= 0.5
        if dt < config.dt_min:
            raise FlowFailure(f"no step at or above dt_min = {config.dt_min:g} accepted: {result}")
    (state.u, state.dtn, state.H, state.energy_report), err = result
    state.t += dt
    state.dt = dt
    state.steps += 1
    growth = 2.0 if err == 0.0 else min(2.0, 0.9 * math.sqrt(STEP_TOL / err))
    state.dt_next = min(config.dt_max, growth * dt)
    return state


def _record(traj, state, config, r, w, F2):
    """Append the row of the current state and run the cap-mass detector, both from one reduction.

    r = lambda f - H and w = u^{2#} at the nodes, and F2 = mean(r^2 w), come
    from run.  The detector's density is W = |H|^n w; a node is flagged
    when the integral of W over its cap is >= tau^n omega_n at every
    radius in cap_radii.  Cap integrals are spherical convolutions with
    the cap indicators, evaluated by Funk-Hecke multipliers, so they carry
    the truncation error of the band-limited density; tau (always below
    2^{1/n}) should not be chosen closer to the theoretical threshold
    than that error.  Returns (flags over the nodes, the total mass
    integral |H|^n dmu_g, S = mean(x w)).
    """
    u, rep = state.u, state.energy_report
    lam_f = rep.lam * state.f_values
    W = np.abs(state.H) ** N * w
    moments = u.grid.integrate(np.stack([w, lam_f * r * w, np.abs(r) ** 4 * w, W,
                                         *(u.grid.nodes().transpose(2, 0, 1) * w)]))
    vol, lr, lp4, mass, S = moments[0], moments[1], moments[2], moments[3], moments[4:]
    lambda_prime = -((N - 1.0) / 2.0 * F2 + 0.5 * lr) / rep.denom
    caps = cap_integrals(W, u.grid, config.cap_radii)
    row = [state.t, state.dt, rep.lam, rep.E, rep.E_f, F2, lambda_prime, vol - 1.0,
           float(u.values.min()), float(u.values.max()),
           S[0], S[1], S[2], float(np.linalg.norm(S))]
    row += [float(cap.max()) / OMEGA_N for cap in caps]
    row += [F2, lp4, -float(r.max())]
    traj.rows.append(row)
    return np.all(caps >= config.tau**N * OMEGA_N, axis=0), OMEGA_N * mass, S


def run(state, config):
    """Advance until a verdict; returns the Trajectory.

    The initial data and every accepted step pass the tests listed in
    the module docstring.  A step is recorded every record_every steps
    and whenever a test ends the run; only then does the cap-mass
    detector run.  Hard failures from step() propagate with the
    partial trajectory attached to the exception.
    """
    config.validate()
    traj = Trajectory(columns=_columns(config), config=config, bounds=state.bounds)
    while True:
        r = state.energy_report.lam * state.f_values - state.H
        w = state.u.values ** TWO_SHARP
        F2 = state.u.grid.integrate(r**2 * w)
        res, at, verdict = np.sqrt(F2), f"t={state.t:.6g}", None
        if res < config.conv_tol:
            verdict = "Converged", (f"initial residual {res:.3e} below conv_tol" if state.steps == 0
                                    else f"residual {res:.3e} below conv_tol at {at}")
        elif float(state.u.values.max()) > config.blowup_maxu:
            verdict = "Concentrating", f"max u exceeded {config.blowup_maxu:g} at {at}"
        elif config.t_end - state.t <= config.dt_min:
            verdict = "HorizonReached", f"t_end={config.t_end:g} reached"
        if verdict is not None or state.steps % config.record_every == 0:
            flags, mass, S = _record(traj, state, config, r, w, F2)
            if verdict is None and flags.any():
                verdict = "Concentrating", ("cap-mass detector flagged the initial data"
                                            if state.steps == 0 else f"cap-mass detector fired at {at}")
        if verdict is not None:
            traj.verdict, traj.reason = verdict
            if traj.verdict == "Concentrating":
                traj.info["concentration"] = _concentration_info(flags, state.u.grid, mass, S)
            return traj
        try:
            step(state, config)
        except FlowFailure as exc:
            exc.trajectory = traj
            traj.verdict, traj.reason = "Failed", str(exc)
            raise


def _concentration_info(flags, grid, total_mass, S):
    """The concentration block of verdict.json: flagged nodes merged into clusters 0.5 rad apart, S and Q = S/|S|."""
    clusters = []
    for pt in grid.nodes()[flags]:
        if all(np.arccos(np.clip(pt @ c, -1.0, 1.0)) > 0.5 for c in clusters):
            clusters.append(pt)
    norm = float(np.linalg.norm(S))
    return {
        "clusters": [[float(v) for v in pt] for pt in clusters],
        "uniqueness_warning": len(clusters) >= 2,
        "total_mass": float(total_mass),
        "S": [float(v) for v in S],
        "Q": [float(v) for v in S / norm] if norm > 1e-10 else None,
    }


def _fd_derivative(t, y):
    """Three-point derivative on a nonuniform grid, interior samples only."""
    h1 = t[1:-1] - t[:-2]
    h2 = t[2:] - t[1:-1]
    return (h1**2 * y[2:] - h2**2 * y[:-2] + (h2**2 - h1**2) * y[1:-1]) / (h1 * h2 * (h1 + h2))


def _masked_rel_err(approx, ref):
    mask = np.abs(ref) > max(1e-12, 1e-3 * float(np.abs(ref).max(initial=0.0)))
    if not mask.any():
        return 0.0
    return float(np.max(np.abs(approx[mask] - ref[mask]) / np.abs(ref[mask])))


def check_identities(traj):
    """Cross-checks of the recorded trajectory against the flow identities.

    (a) the energy decay law dE_f/dt = -((n-1)/2) denom^{-(n-1)/n} F2,
        with dE_f/dt from finite differences of the E_f column;
    (b) the lambda_prime column against finite differences of lambda;
    (c) lambda inside [lambda1, lambda2] with 1e-8 slack;
    (d) min(H - lambda f) >= gamma - 1e-6, for gamma computed both with
        the Lambda0 of the frozen bounds and with the observed sup|lambda'|;
    (e) sup F2 over the run (reported, no threshold).
    """
    if len(traj.rows) < 3:
        raise ValueError(f"need at least 3 recorded samples, got {len(traj.rows)}")
    t, lam, E, E_f, F2, lamp, min_barrier = (traj.column(name) for name in (
        "t", "lambda", "E", "E_f", "F2", "lambda_prime", "min_H_minus_lambda_f"))
    denom = E / lam
    dEf = _fd_derivative(t, E_f)
    decay_ref = -((N - 1.0) / 2.0) * denom[1:-1] ** (-(N - 1.0) / N) * F2[1:-1]
    a_err = _masked_rel_err(dEf, decay_ref)
    dlam = _fd_derivative(t, lam)
    b_err = _masked_rel_err(dlam, lamp[1:-1])
    b = traj.bounds
    c_violation = max(float(b.lambda1 - lam.min()), float(lam.max() - b.lambda2), 0.0)
    lambda0_obs = float(np.abs(lamp).max())
    report = {
        "decay_rel_err": a_err,
        "lambda_prime_rel_err": b_err,
        "lambda_window_violation": c_violation,
        "lambda_window_ok": c_violation <= 1e-8,
        "F2_sup": float(F2.max()),
        "lambda_prime_sup": lambda0_obs,
    }
    for tag, Lambda0 in (("config", b.Lambda0), ("observed", lambda0_obs)):
        gamma = barrier_gamma(b.min_H0, b.lambda2, b.f_absmax, Lambda0)
        worst = float(min_barrier.min())
        report[f"barrier_gamma_{tag}"] = float(gamma)
        report[f"barrier_margin_{tag}"] = worst - float(gamma)
        report[f"barrier_ok_{tag}"] = worst >= gamma - 1e-6
    report["barrier_min"] = float(min_barrier.min())
    return report
