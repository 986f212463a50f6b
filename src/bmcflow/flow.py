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

  Failed          tail > _TAIL_MAX = 1e-4: the resolution gate (below)
  Converged       sqrt(F2) = ||lambda f - H||_{L2(dmu_g)} < conv_tol
  Concentrating   max u exceeds blowup_maxu
  HorizonReached  t within dt_min of t_end; the last step is clipped to it

tail is the share of the energy E = sum (2l+1) c_lm^2 held by the
degrees l > 2L/3: a state whose spectrum reaches its top third is not
resolved on its grid (Boyd 2001, ch. 2), so no verdict about the flow's
limit is given for it.  Once MIN_ROWS = 3
rows are recorded, a recorded state with sqrt(F2) below h = 1e4 conv_tol
and centre of mass |S| < 0.2 is handed off to newton_finish, which
solves H = lambda f to roundoff by Newton-Krylov.  A certified solution
ends the run as Converged ("Newton finish from residual ..."): the state
takes its fields and keeps its clock, and the last row is the hand-off
state, so the identity checks read the flow's own rows.  A refused
attempt leaves the state as it was, h drops tenfold (at most four
attempts before h reaches conv_tol) and the flow goes on.  Every
attempt is recorded in Trajectory.info["finish"].  A step that no try
at or above dt_min makes acceptable ends the run as Failed, with the
last cause named and the rows recorded so far kept.  run is the one
place where a run ends: it returns the Trajectory with every verdict.

Explicit Euler needs dt below about 4 min(u)^2 / L for the DtN term;
this scheme has no such bound, so the default dt_max is 0.05 at every
band limit, and at L = 63 a concentrated bubble runs with E_f monotone.
"""

import math
import numbers
import sys
from dataclasses import asdict, dataclass, field, fields
from functools import lru_cache

import numpy as np

from .conformal import center_of_mass
from .curvature import (N, OMEGA_N, TWO_SHARP, barrier_gamma, energy_report, energy_weights, flow_bounds,
                        mean_curvature_values, require_positive, volume_density)
from .errors import AdmissibilityError, ConfigError, FlowFailure
from .spectral import BoundaryField, analyze, dtn_apply, synthesize

# Largest local error of an accepted step, relative to the new coefficients.
STEP_TOL = 1e-4
# Largest relative rise of E_f over an accepted step: roundoff, not a rise.
_EF_RISE_REL = 1e-13
# Recorded rows that check_identities' three-point differences need; a run hands off to the Newton finish,
# and `flow run` writes identities.json, only once this many are recorded.
MIN_ROWS = 3
# The Newton finish: tried on a recorded state with sqrt F2 below _HANDOFF conv_tol (ten times lower after each
# refusal, which changes nothing else), at least MIN_ROWS rows and centre of mass |S| < _HANDOFF_S (a concentrating
# run, |S| near 1, has no solution nearby); it must reach a residual _FINISH_TOL relative within _FINISH_MATVECS
# matvecs, its whole work budget.  Each GMRES solve stops at min(1e-2, max(res, 0.1 _FINISH_TOL / res)): the floor
# (Eisenstat & Walker 1996; Kelley 2003, sec. 3.2.3) keeps the last from oversolving.
_HANDOFF = 1e4
_HANDOFF_S = 0.2
_FINISH_TOL = 1e-12
_FINISH_MATVECS = 300
# The resolution gate: the largest share of E that the degrees l > 2L/3 may hold.  The resolved runs measured
# read at most 7.5e-5 (most below 1e-6), the aliasing ones 2.5e-4 and up.
_TAIL_MAX = 1e-4


# Types the FlowConfig annotations admit from JSON: bool is no number, a float is finite, a tuple is a list of numbers.
_ADMITS = {float: numbers.Real, int: numbers.Integral, bool: bool}


def admits(kind, value):
    """FlowConfig's type rule for a JSON value; the CLI checks its integer keys by it too."""
    if kind is tuple:  # its reader names a component that is not finite
        return isinstance(value, (list, tuple)) and all(admits(numbers.Real, v) for v in value)
    return (isinstance(value, _ADMITS.get(kind, kind)) and isinstance(value, bool) == (kind is bool)
            and (kind is not float or abs(value) <= sys.float_info.max))


@dataclass
class FlowConfig:
    dt_min: float = 1e-7
    dt_max: float = 0.05
    t_end: float = 50.0
    vol_project: bool = True
    conv_tol: float = 1e-4
    blowup_maxu: float = 1e3
    record_every: int = 1

    def validate(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if not admits(f.type, value):
                raise ConfigError(f"flow config field {f.name} must be of type {f.type.__name__}, got {value!r}")
        if not (0.0 < self.dt_min <= self.dt_max):
            raise ConfigError(f"flow config needs 0 < dt_min <= dt_max, got {self.dt_min}, {self.dt_max}")
        for name in ("conv_tol", "t_end", "blowup_maxu"):
            if getattr(self, name) <= 0.0:
                raise ConfigError(f"flow config field {name} must be positive, got {getattr(self, name)}")
        if self.record_every < 1:
            raise ConfigError(f"flow config field record_every must be >= 1, got {self.record_every}")
        return self


@dataclass
class FlowState:
    """One flow state, evaluated once: u and every node field that the step, the verdict tests and the row read.

    _evaluate fills the fields down to min_u; init_state and step set the
    bounds and the clock.  r = lambda f - H is the residual at the nodes.
    """
    u: BoundaryField
    f_values: np.ndarray
    dtn: np.ndarray            # DtN u at the grid nodes
    H: np.ndarray              # mean curvature at the grid nodes
    energy_report: object
    r: np.ndarray
    min_u: float
    bounds: object = None
    t: float = 0.0
    dt: float = None           # the last accepted step (dt_max at t = 0)
    dt_next: float = None      # the size step() tries first
    steps: int = 0


@dataclass
class Trajectory:
    columns: tuple = ()        # named by the row that _record builds
    rows: list = field(default_factory=list)
    verdict: str = ""
    reason: str = ""
    bounds: object = None
    info: dict = field(default_factory=dict)

    def column(self, name):
        j = self.columns.index(name)
        return np.array([row[j] for row in self.rows])

    def to_csv(self, path):
        with open(path, "w") as fh:   # a path would cost savetxt a second open and a URL check
            np.savetxt(fh, self.rows, fmt="%.17g", delimiter=",", header=",".join(self.columns), comments="")

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


@lru_cache(maxsize=8)
def _value_and_dtn(L):
    """Read-only multipliers (1, l) of shape (2, L+1, 1): one product with coefficients c gives the stack (c, DtN c).

    The second is the degree column, which scales the argument of _phi.
    """
    ones = np.ones((L + 1, 1))
    pair = np.stack((ones, dtn_apply(ones)))
    pair.flags.writeable = False
    return pair


def _evaluate(coeffs, grid, f_values, project):
    """The FlowState, clock unset, of the state with harmonic coefficients coeffs.

    One synthesis of (coeffs, A coeffs) serves u, DtN u and H, and
    positivity is checked once, which finds min u.  With project, coeffs,
    values, DtN u and min u are first scaled by the constant c that gives
    u unit volume (rounding is monotone, so c min u is the minimum of the
    scaled values bit for bit); u^{2#} is formed once for c and once more,
    of the scaled u, from the u^2 that H uses too.  A nonpositive node
    raises AdmissibilityError with condition "positivity"; the report
    raises it when u lies outside the admissible set.
    """
    values, dtn = synthesize(coeffs * _value_and_dtn(grid.L), grid)
    min_u = require_positive(values, "conformal factor")
    if project:
        c = grid.integrate(volume_density(values)) ** (-1.0 / TWO_SHARP)
        coeffs, values, dtn, min_u = c * coeffs, c * values, c * dtn, c * min_u
    u, u2 = BoundaryField(grid, values=values, coeffs=coeffs), values * values
    H = mean_curvature_values(values, dtn, u2)
    report = energy_report(u, f_values, u2 * u2)
    return FlowState(u=u, f_values=f_values, dtn=dtn, H=H, energy_report=report, r=report.lam * f_values - H,
                     min_u=min_u)


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
        state = _evaluate(u0.coeffs, u0.grid, f_values, project=True)
    except AdmissibilityError as exc:
        if exc.condition != "positivity":
            raise
        raise AdmissibilityError("initial data loses positivity under band-limit filtering",
                                 condition="positivity") from None
    state.bounds = flow_bounds(state.u, f, state.f_values, state.H, state.energy_report)
    state.dt = state.dt_next = config.dt_max
    return state


def _phi(z):
    """(e^z, phi1(z), phi2(z)) for z <= 0: phi1 = (e^z - 1)/z and phi2 = (e^z - 1 - z)/z^2.

    Both quotients are formed from expm1 (Kassam & Trefethen 2005); z = 0
    gives the limits 1 and 1/2.  For 0 < |z| < 1e-2, where the quotient
    of phi2 cancels, phi2 is its degree-6 Taylor polynomial instead, so
    each is good to 1e-13 relative.  Only those entries run the series.
    """
    zero = z == 0.0
    zs = np.where(zero, 1.0, z)
    em1 = np.expm1(z)
    phi1 = np.where(zero, 1.0, em1 / zs)
    phi2 = np.where(zero, 0.5, (em1 - z) / (zs * zs))
    small = (np.abs(z) < 1e-2) & ~zero
    if small.any():
        zt, taylor = z[small], 0.0
        for k in range(6, -1, -1):
            taylor = taylor * zt + 1.0 / math.factorial(k + 2)
        phi2[small] = taylor
    return np.exp(z), phi1, phi2


def _remainder(state, kappa):
    """Coefficients of R(u) = ((n-1)/4) r u + (kappa/2) DtN u, r = lambda f - H: the rate less the stabilizer."""
    rate = state.r * ((N - 1.0) / 4.0)    # formed in place: two node arrays, not four
    rate *= state.u.values
    rate += 0.5 * kappa * state.dtn
    return analyze(rate, state.u.grid)


def _cause(exc, where):
    """Why a try fails when _evaluate raised exc at a stage; where is empty for the new state."""
    if exc.condition == "positivity":
        return f"positivity lost{where}"
    return f"left the admissible set{where}: {exc}"


def _etd_rk2(state, config, dt, kappa, r_u):
    """One ETD-RK2 try of size dt: (the FlowState of the new state, err), or why it fails."""
    grid, fv = state.u.grid, state.f_values
    e, phi1, phi2 = _phi(-0.5 * dt * kappa * _value_and_dtn(grid.L)[1])
    a = e * state.u.coeffs + dt * phi1 * r_u
    try:
        stage = _evaluate(a, grid, fv, project=False)
    except AdmissibilityError as exc:
        return _cause(exc, " at the first stage")
    correction = dt * phi2 * (_remainder(stage, kappa) - r_u)
    coeffs = a + correction
    err = float(np.linalg.norm(correction) / np.linalg.norm(coeffs))
    if err > STEP_TOL:
        return f"local error {err:.3e} above STEP_TOL = {STEP_TOL:g}"
    try:
        new = _evaluate(coeffs, grid, fv, project=config.vol_project)
    except AdmissibilityError as exc:
        return _cause(exc, "")
    rise = new.energy_report.E_f / state.energy_report.E_f - 1.0
    if rise > _EF_RISE_REL:
        return f"E_f rose by {rise:.3e} relative"
    return new, err


def step(state, config):
    """One accepted ETD-RK2 step (Cox & Matthews 2002), in place: state takes the new FlowState's fields.

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
    kappa = state.min_u ** (2.0 - TWO_SHARP)
    r_u = _remainder(state, kappa)
    dt = min(max(state.dt_next, config.dt_min), config.t_end - state.t)
    while isinstance(result := _etd_rk2(state, config, dt, kappa, r_u), str):
        dt *= 0.5
        if dt < config.dt_min:
            raise FlowFailure(f"no step at or above dt_min = {config.dt_min:g} accepted: {result}")
    new, err = result
    growth = 2.0 if err == 0.0 else min(2.0, 0.9 * math.sqrt(STEP_TOL / err))
    vars(state).update(vars(new), bounds=state.bounds, t=state.t + dt, dt=dt,
                       dt_next=min(config.dt_max, growth * dt), steps=state.steps + 1)
    return state


def _f2(state):
    """F2 = mean(r^2 u^{2#}) = ||lambda f - H||^2 in L2(dmu_g), the dissipation rate and the squared residual."""
    return state.u.grid.integrate(state.r**2 * state.energy_report.density)


def _gmres(apply, b, rtol, budget):
    """(x, matvecs): GMRES (Saad & Schultz 1986) for apply(x) = b from x = 0, to |apply(x) - b| <= rtol |b|.

    The Arnoldi basis is orthogonalized by classical Gram-Schmidt applied
    twice, and Givens rotations keep the Hessenberg columns triangular, so
    each step reads its residual norm off without a solve.  Every array
    grows with the steps taken, none with the budget.  There is no
    restart: x is None when budget matvecs do not reach rtol.
    """
    beta = float(np.linalg.norm(b))
    V, cols, rotations, g = [b.ravel() / beta], [], [], [beta]
    for k in range(budget):
        w = apply(V[k].reshape(b.shape)).ravel()
        basis = np.array(V)
        col = basis @ w
        w -= col @ basis
        again = basis @ w
        w -= again @ basis
        col += again
        sub = float(np.linalg.norm(w))
        for j, (c, s) in enumerate(rotations):
            col[j], col[j + 1] = c * col[j] + s * col[j + 1], c * col[j + 1] - s * col[j]
        r = math.hypot(col[k], sub)
        c, s = col[k] / r, sub / r
        col[k] = r
        rotations.append((c, s))
        cols.append(col)
        g[k], residual = c * g[k], -s * g[k]
        g.append(residual)
        if abs(residual) <= rtol * beta or sub == 0.0:
            y = np.array(g[: k + 1])
            for j in range(k, -1, -1):         # back substitution, column by column
                y[j] /= cols[j][j]
                y[:j] -= y[j] * cols[j][:j]
            return (y @ basis).reshape(b.shape), k + 1
        V.append(w / sub)
    return None, budget


def newton_finish(state, conv_tol):
    """Newton-Krylov solve of H = lambda f near a converging state: (attempt record, FlowState of u* or None).

    The flow's limit solves 2 A u + u = lambda f u^3.  At the state's
    lambda, Newton (Knoll & Keyes 2004) on the coefficients c of u drives
    R(c) = (2l+1) c - lambda analyze(f u^3) to zero.  Each step solves
    J d = -R, with J v = (2l+1) v - 3 lambda analyze(f u^2 synthesize(v)),
    by _gmres right-preconditioned by diag(2l+1) to the relative tolerance
    min(1e-2, max(res, 0.1 _FINISH_TOL / res)), res = |R| / |(2l+1) c|, a
    floor against oversolving (Eisenstat & Walker 1996; Kelley 2003, 3.2.3);
    no matrix is formed.  A matvec costs one synthesis and one analysis,
    and so does each iteration's new residual.
    u* is refused unless |R| falls at every iteration and reaches
    _FINISH_TOL |(2l+1) c| within _FINISH_MATVECS matvecs (the solve is
    bounded by contraction and this work budget, not by an iteration
    count), u* is positive and admissible at unit volume,
    E_f(u*) <= E_f(state) up to _EF_RISE_REL, and sqrt F2(u*) < conv_tol.
    The record says what was spent and reached, and why an attempt was
    refused.  The state is not changed.
    """
    grid, fv, lam = state.u.grid, state.f_values, state.energy_report.lam
    precond = energy_weights(grid.L)     # the energy's weights 2l + 1
    c, u = state.u.coeffs, state.u.values
    record = {"certified": False, "reason": "", "iterations": 0, "matvecs": 0, "residual": None,
              "max_du": None, "lambda": None, "E_f": None, "sqrt_F2": None}

    def refuse(reason):
        record["reason"] = reason
        return record, None

    def residual(c, u):
        return precond * c - lam * analyze(fv * (u * u * u), grid)

    scale = float(np.linalg.norm(precond * c))
    R = residual(c, u)
    res = record["residual"] = float(np.linalg.norm(R)) / scale
    while res > _FINISH_TOL:
        fu2 = (3.0 * lam) * fv * (u * u)
        y, spent = _gmres(lambda v: v - analyze(fu2 * synthesize(v / precond, grid), grid), -R,
                          min(1e-2, max(res, 0.1 * _FINISH_TOL / res)), _FINISH_MATVECS - record["matvecs"])
        record["matvecs"] += spent
        if y is None:
            return refuse(f"GMRES did not converge within {_FINISH_MATVECS} matvecs")
        c = c + y / precond
        u = synthesize(c, grid)
        R = residual(c, u)
        record["iterations"] += 1
        res, previous = float(np.linalg.norm(R)) / scale, res
        record["residual"] = res
        if not res < previous:
            return refuse(f"residual rose from {previous:.3e} to {res:.3e} at iteration {record['iterations']}")
    try:
        new = _evaluate(c, grid, fv, project=True)
    except AdmissibilityError as exc:
        return refuse(_cause(exc, " at the Newton limit"))
    rep, sqrt_f2 = new.energy_report, math.sqrt(_f2(new))
    record.update({"max_du": float(np.abs(new.u.values - state.u.values).max()), "lambda": float(rep.lam),
                   "E_f": float(rep.E_f), "sqrt_F2": sqrt_f2})
    rise = rep.E_f / state.energy_report.E_f - 1.0
    if rise > _EF_RISE_REL:
        return refuse(f"E_f rose by {rise:.3e} relative")
    if not sqrt_f2 < conv_tol:
        return refuse(f"residual {sqrt_f2:.3e} of the Newton limit not below conv_tol")
    record["certified"], record["reason"] = True, "certified"
    return record, new


def _record(traj, state, F2, max_u, tail):
    """Append the row of the current state; returns its centre of mass S = mean(x w), which the hand-off test reads.

    The row is built as ordered (name, value) pairs, which name the
    trajectory's columns.  It reads r = lambda f - H, f and min u from
    the state, lambda and w = u^{2#} from its energy report, and F2 = mean(r^2 w),
    max u and the resolution gate's tail from run.

    The six integrands are written into one array: w, lambda f r w
    (f lambda, then times r, in place), r^4 w and x w.
    """
    rep, grid, r, w = state.energy_report, state.u.grid, state.r, state.energy_report.density
    fields = np.empty((6,) + grid.shape)
    fields[0] = w
    np.multiply(state.f_values, rep.lam, out=fields[1])
    fields[1] *= r
    np.multiply(r, r, out=fields[2])
    np.square(fields[2], out=fields[2])
    fields[1:3] *= w
    np.multiply(grid.nodes().transpose(2, 0, 1), w, out=fields[3:])
    moments = grid.integrate(fields)
    vol, lr, lp4, S = moments[0], moments[1], moments[2], moments[3:]
    row = [("t", state.t), ("dt", state.dt), ("lambda", rep.lam), ("E", rep.E), ("E_f", rep.E_f), ("F2", F2),
           ("lambda_prime", -((N - 1.0) / 2.0 * F2 + 0.5 * lr) / rep.denom), ("vol_err", vol - 1.0),
           ("min_u", state.min_u),
           ("max_u", max_u),
           ("S_x", S[0]), ("S_y", S[1]), ("S_z", S[2]), ("S_norm", float(np.linalg.norm(S))),
           ("tail", tail), ("Lp_res_p4", lp4), ("min_H_minus_lambda_f", -float(r.max()))]
    traj.columns = tuple(name for name, _ in row)
    traj.rows.append([value for _, value in row])
    return S


def run(state, config):
    """Advance until a verdict and return the Trajectory; every run ends here, Failed included.

    The initial data and every accepted step pass the tests listed in
    the module docstring, the resolution gate first.  A step is recorded
    every record_every steps and whenever a test ends the run; only then
    does the hand-off test of the Newton finish run.  When step() raises
    FlowFailure, the run ends as Failed: the exception's message is the
    reason, and the rows recorded so far are kept.
    """
    config.validate()
    traj = Trajectory(bounds=state.bounds)
    handoff = _HANDOFF * config.conv_tol
    top = 2 * state.u.grid.L // 3 + 1          # tail: the share of E = sum (2l+1) c_lm^2 in degrees l >= top
    weights = energy_weights(state.u.grid.L)[top:]
    while True:
        c = state.u.coeffs[top:]
        tail = float((weights * c * c).sum()) / state.energy_report.E
        F2, max_u = _f2(state), float(state.u.values.max())
        res, at, verdict = np.sqrt(F2), f"t={state.t:.6g}", None
        if tail > _TAIL_MAX:
            verdict = "Failed", (f"resolution gate: degrees l > 2L/3 hold {tail:.3e} of E, "
                                 f"above _TAIL_MAX = {_TAIL_MAX:g}, at {at}")
        elif res < config.conv_tol:
            verdict = "Converged", (f"initial residual {res:.3e} below conv_tol" if state.steps == 0
                                    else f"residual {res:.3e} below conv_tol at {at}")
        elif max_u > config.blowup_maxu:
            verdict = "Concentrating", f"max u exceeded {config.blowup_maxu:g} at {at}"
        elif config.t_end - state.t <= config.dt_min:
            verdict = "HorizonReached", f"t_end={config.t_end:g} reached"
        if verdict is not None or state.steps % config.record_every == 0:
            S = _record(traj, state, F2, max_u, tail)
            if (verdict is None and res < handoff and len(traj.rows) >= MIN_ROWS
                    and np.linalg.norm(S) < _HANDOFF_S):
                record, new = newton_finish(state, config.conv_tol)
                traj.info.setdefault("finish", []).append({"t": state.t, "handoff_residual": float(res),
                                                           **record})
                if new is None:
                    handoff *= 0.1
                else:
                    vars(state).update(vars(new), bounds=state.bounds, t=state.t, dt=state.dt,
                                       dt_next=state.dt_next, steps=state.steps)
                    verdict = "Converged", f"Newton finish from residual {res:.3e} at {at}"
        if verdict is None:
            try:
                step(state, config)
                continue
            except FlowFailure as exc:
                verdict = "Failed", str(exc)
        traj.verdict, traj.reason = verdict
        if traj.verdict == "Concentrating":     # the concentration block of verdict.json
            S, Q = center_of_mass(state.u)
            mass = OMEGA_N * state.u.grid.integrate(state.H * state.H * state.energy_report.density)
            traj.info["concentration"] = {"total_mass": float(mass), "S": [float(v) for v in S],
                                          "Q": None if Q is None else [float(v) for v in Q]}
        return traj


def _fd_derivative(t, y):
    """Three-point derivative on a nonuniform grid, interior samples only."""
    h1 = t[1:-1] - t[:-2]
    h2 = t[2:] - t[1:-1]
    return (h1**2 * y[2:] - h2**2 * y[:-2] + (h2**2 - h1**2) * y[1:-1]) / (h1 * h2 * (h1 + h2))


def _masked_rel_err(approx, ref):
    """Largest |approx - ref| / |ref| where |ref| exceeds 1e-3 max|ref|; 0 where no sample does.

    The mask is relative only, so rescaling f (which scales dE_f/dt and
    lambda') masks the same samples.
    """
    mask = np.abs(ref) > 1e-3 * float(np.abs(ref).max(initial=0.0))
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
    if len(traj.rows) < MIN_ROWS:
        raise ValueError(f"need at least {MIN_ROWS} recorded samples, got {len(traj.rows)}")
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
