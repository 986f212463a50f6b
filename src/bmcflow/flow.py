"""Explicit time integration of the volume-normalized curvature flow.

The evolution is du/dt = -((n-1)/4)(H - lambda f) u with lambda chosen
so the boundary volume mean(u^{2#}) is conserved.  The discrete scheme
is explicit Euler with adaptive step control (max |dt (H - lambda f)|
<= 0.1), a per-step band-limit filter, and exact volume projection by
a multiplicative constant.  The initial data and every accepted step
pass the same tests, in this order, and the first that holds ends the
run with its verdict:

  Converged       sqrt(F2) = ||lambda f - H||_{L2(dmu_g)} < conv_tol
  Concentrating   max u exceeds blowup_maxu
  HorizonReached  t within dt_min of t_end; the last step is clipped to it

A recorded step that no test ends may still end as Concentrating when
the cap-mass detector flags a cluster.  Scheme failures (positivity
loss that step halving cannot rescue, or a nonpositive f-weighted
volume) raise FlowFailure with the partial trajectory attached; its
verdict is Failed.

The default dt_max of 0.01 sits inside the explicit-scheme stability
region for band limits up to L = 63 with order-one fields; larger caps
can excite slowly growing high-mode oscillations on long runs (the
residual-based controller does not see them until they are large).
"""

import json
import numbers
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from .conformal import center_of_mass, concentration_check
from .curvature import (N, OMEGA_N, TWO_SHARP, energy_functional, f2_norm, flow_bounds, mean_curvature,
                        mean_curvature_values, volume)
from .errors import AdmissibilityError, ConfigError, FlowFailure
from .spectral import BoundaryField, analyze, dtn_apply, synthesize

# Orders p of the recorded residuals mean(|lambda f - H|^p dmu_g).
_LP_ORDERS = (2, 4)


# Types the FlowConfig annotations admit from JSON: bool is no number, a tuple is a list of numbers.
_ADMITS = {float: numbers.Real, int: numbers.Integral, bool: bool}


def _admits(kind, value):
    if kind is tuple:
        return isinstance(value, (list, tuple)) and all(_admits(float, v) for v in value)
    return isinstance(value, _ADMITS[kind]) and isinstance(value, bool) == (kind is bool)


@dataclass
class FlowConfig:
    dt0: float = 0.01
    dt_min: float = 1e-7
    dt_max: float = 0.01
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
            if not _admits(f.type, value):
                raise ConfigError(f"{f.name} must be of type {f.type.__name__}, got {value!r}")
        if not (0.0 < self.dt_min <= self.dt0 <= self.dt_max):
            raise ConfigError(
                f"need 0 < dt_min <= dt0 <= dt_max, got {self.dt_min}, {self.dt0}, {self.dt_max}"
            )
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
    H: BoundaryField
    energy_report: object
    bounds: object
    dt: float
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
        """Verdict + config echo as a plain dict with a fixed key order."""
        return {
            "verdict": self.verdict,
            "reason": self.reason,
            "t_final": self.rows[-1][0] if self.rows else None,
            "steps_recorded": len(self.rows),
            "config": {k: list(v) if isinstance(v, tuple) else v for k, v in asdict(self.config).items()},
            "bounds": None if self.bounds is None else asdict(self.bounds),
            "concentration": self.info.get("concentration"),
        }

    def write_verdict(self, path):
        with open(path, "w") as fh:
            json.dump(self.verdict_document(), fh, indent=2)
            fh.write("\n")


def _columns(config):
    cols = ["t", "dt", "lambda", "E", "E_f", "F2", "lambda_prime", "vol_err",
            "min_u", "max_u", "S_x", "S_y", "S_z", "S_norm"]
    cols += [f"capmass_r{r:g}" for r in config.cap_radii]
    cols += [f"Lp_res_p{p:g}" for p in _LP_ORDERS]
    cols.append("min_H_minus_lambda_f")
    return tuple(cols)


def _f_on_grid(f, grid):
    """Accept a closed-form function, a BoundaryField, or raw node values."""
    if isinstance(f, BoundaryField):
        return f.values, None
    if callable(f):
        return np.asarray(f(grid.nodes()), dtype=float), f
    fv = np.asarray(f, dtype=float)
    if fv.shape != grid.shape:
        raise ConfigError(f"f values shape {fv.shape} does not match grid {grid.shape}")
    return fv, None


def _project_volume(u):
    """(c u, c) for the constant c that gives c u unit volume."""
    c = volume(u) ** (-1.0 / TWO_SHARP)
    return BoundaryField(u.grid, values=c * u.values, coeffs=c * u.coeffs), c


def init_state(u0, f, config):
    """Admissible state at t=0: filtered, positive, unit boundary volume.

    The initial data is band-limited by one analysis/synthesis pass and
    rescaled by a constant to unit volume (the normalized energy is
    scale-invariant, so this changes nothing downstream).  Frozen
    bounds (multiplier window, barrier, energy threshold) are attached.
    """
    config.validate()
    grid = u0.grid
    f_values, f_fn = _f_on_grid(f, grid)
    if float(u0.values.min()) <= 0.0:
        raise AdmissibilityError("initial data is not positive", condition="positivity")
    u = u0.filtered()
    if float(u.values.min()) <= 0.0:
        raise AdmissibilityError("initial data loses positivity under band-limit filtering",
                                 condition="positivity")
    u, _ = _project_volume(u)
    report = energy_functional(u, f_values)
    H = mean_curvature(u)
    bounds = flow_bounds(u, f_values, H, f_closed=f_fn)
    return FlowState(
        t=0.0,
        u=u,
        f_values=f_values,
        H=H,
        energy_report=report,
        bounds=bounds,
        dt=config.dt0,
    )


def step(state, config):
    """One accepted explicit Euler step, in place.

    dt starts from min(dt_max, 0.1/max|H - lambda f|, 2 * previous dt,
    t_end - t), but not below dt_min, and is halved on any positivity
    rejection; dropping below dt_min is a hard failure.  After the
    update the field is band-limit filtered and (if configured)
    projected back to unit volume, and lambda and H are recomputed from
    the new field.  One synthesis gives the filtered field and its DtN image.
    """
    grid = state.u.grid
    resid = state.H.values - state.energy_report.lam * state.f_values
    resid_max = float(np.abs(resid).max())
    dt = min(config.dt_max, 2.0 * state.dt)
    if resid_max > 0.0:
        dt = min(dt, 0.1 / resid_max)
    dt = max(min(dt, config.t_end - state.t), config.dt_min)
    factor_rate = (N - 1.0) / 4.0 * resid
    while True:
        candidate = state.u.values * (1.0 - dt * factor_rate)
        if candidate.min() > 0.0:
            coeffs = analyze(candidate, grid)
            values, dtn_values = synthesize(np.stack((coeffs, dtn_apply(coeffs))), grid)
            if values.min() > 0.0:
                break
        dt *= 0.5
        if dt < config.dt_min:
            raise FlowFailure("positivity lost: step size fell below dt_min")
    u_new, scale = BoundaryField(grid, values=values, coeffs=coeffs), 1.0
    if config.vol_project:
        u_new, scale = _project_volume(u_new)
    try:
        report = energy_functional(u_new, state.f_values)
    except AdmissibilityError as exc:
        raise FlowFailure(f"left admissible set: {exc}") from exc
    state.u = u_new
    state.t += dt
    state.dt = dt
    state.steps += 1
    state.energy_report = report
    state.H = BoundaryField(grid, values=mean_curvature_values(u_new.values, scale * dtn_values))
    return state


def _record(traj, state, config, F2):
    """Append the row of the current state, its moments in one reduction; returns the cap-mass check."""
    u, H, rep = state.u, state.H, state.energy_report
    w = u.values ** TWO_SHARP
    lam_f = rep.lam * state.f_values
    r = lam_f - H.values
    moments = u.grid.integrate(np.stack([w, lam_f * r * w, *(np.abs(r) ** p * w for p in _LP_ORDERS),
                                         *(u.grid.nodes().transpose(2, 0, 1) * w)]))
    vol, lr, lp, S = moments[0], moments[1], moments[2:-3], moments[-3:]
    lambda_prime = -((N - 1.0) / 2.0 * F2 + 0.5 * lr) / rep.denom
    conc = concentration_check(u, H, tau=config.tau, radii=config.cap_radii)
    row = [state.t, state.dt, rep.lam, rep.E, rep.E_f, F2, lambda_prime, vol - 1.0,
           float(u.values.min()), float(u.values.max()),
           S[0], S[1], S[2], float(np.linalg.norm(S))]
    row += [conc.cap_max[r] / OMEGA_N for r in config.cap_radii]
    row += list(lp)
    row.append(-float(r.max()))
    traj.rows.append(row)
    return conc


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
        F2 = f2_norm(state.u, state.f_values, state.energy_report.lam, H=state.H)
        res, at, verdict = np.sqrt(F2), f"t={state.t:.6g}", None
        if res < config.conv_tol:
            verdict = "Converged", (f"initial residual {res:.3e} below conv_tol" if state.steps == 0
                                    else f"residual {res:.3e} below conv_tol at {at}")
        elif float(state.u.values.max()) > config.blowup_maxu:
            verdict = "Concentrating", f"max u exceeded {config.blowup_maxu:g} at {at}"
        elif config.t_end - state.t <= config.dt_min:
            verdict = "HorizonReached", f"t_end={config.t_end:g} reached"
        if verdict is not None or state.steps % config.record_every == 0:
            conc = _record(traj, state, config, F2)
            if verdict is None and conc.flags.any():
                verdict = "Concentrating", ("cap-mass detector flagged the initial data"
                                            if state.steps == 0 else f"cap-mass detector fired at {at}")
        if verdict is not None:
            traj.verdict, traj.reason = verdict
            if traj.verdict == "Concentrating":
                traj.info["concentration"] = _concentration_info(conc, state)
            return traj
        try:
            step(state, config)
        except FlowFailure as exc:
            exc.trajectory = traj
            traj.verdict, traj.reason = "Failed", str(exc)
            raise


def _concentration_info(conc, state):
    S, Q = center_of_mass(state.u)
    return {
        "clusters": [[float(v) for v in pt] for pt in conc.clusters],
        "uniqueness_warning": bool(conc.uniqueness_warning),
        "total_mass": conc.total_mass,
        "S": [float(v) for v in S],
        "Q": None if Q is None else [float(v) for v in Q],
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
    l2m = b.lambda2 * b.f_absmax
    for tag, Lambda0 in (("config", b.Lambda0), ("observed", lambda0_obs)):
        gamma = min(b.min_H0 - l2m,
                    -np.sqrt((4.0 / 3.0) * l2m**2 + (8.0 / 3.0) * Lambda0 * b.f_absmax))
        worst = float(min_barrier.min())
        report[f"barrier_gamma_{tag}"] = float(gamma)
        report[f"barrier_margin_{tag}"] = worst - float(gamma)
        report[f"barrier_ok_{tag}"] = worst >= gamma - 1e-6
    report["barrier_min"] = float(min_barrier.min())
    return report


def interpolation_path(uT, f, s, zeta=None):
    """Deformation of a flowed state toward the constant, volume-normalized.

    w_s = [(2 - 2s)(zeta uT)^{2#} + (2s - 1)]^{1/2#} for s in [1/2, 1];
    zeta defaults to max uT.  At s=1/2 this is uT up to normalization,
    at s=1 the constant 1.  The result has unit volume; its f-weighted
    volume stays positive whenever mean f > 0 and mean(f uT^{2#}) > 0.
    """
    if not 0.5 <= s <= 1.0:
        raise ValueError(f"s must lie in [1/2, 1], got {s}")
    if float(uT.values.min()) <= 0.0:
        raise AdmissibilityError("uT must be positive", condition="positivity")
    if zeta is None:
        zeta = float(uT.values.max())
    if zeta <= 0.0:
        raise ValueError(f"zeta must be positive, got {zeta}")
    w = ((2.0 - 2.0 * s) * (zeta * uT.values) ** TWO_SHARP + (2.0 * s - 1.0)) ** (1.0 / TWO_SHARP)
    return _project_volume(BoundaryField(uT.grid, values=w))[0]
