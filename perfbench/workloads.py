"""The benchmark's workloads: seeded inputs, one operation each, and output oracles.

Every operation drives `bmcflow.cli.main` (and, for recentering, the
public `normalize`) in-process, writes into a temporary directory, and
checks what the program produced against closed forms and the paper's
identities.  `run_op` times the operation with the `timed` callable it
is given and returns that timing with an Outcome; reading and checking
the outputs happens outside the timed region.
"""

import contextlib
import csv
import io
import json
import os
import time
from dataclasses import dataclass, field

import numpy as np

from bmcflow import cli, conformal, flow, prescribed, spectral

ELLIPSOID = "4 + 0.3x^2 + 0.6y^2 + 1.05z^2"
SYM_F, SYM_SPEC = "2 - z^2", "rotation(z, 5)"
RECENTER_EPS = 0.3


@dataclass
class Workload:
    name: str
    why: str
    L: int
    n_inputs: int          # distinct seeded inputs per run; operations cycle through them


WORKLOADS = {w.name: w for w in (
    Workload("converge-L31",
             "time to a converged solution of stated accuracy: zonal perturbation of 1 on "
             "f = 2 - z^2, default FlowConfig; row recording and grid transforms dominate",
             31, 5),
    Workload("bubble-L63",
             "concentration regime at a high band limit: bubble on the obstructed f = 2 + 0.5z, "
             "record every 10 steps; step and dt control dominate, set-up is large",
             63, 2),
    Workload("recenter-L31",
             "off-grid evaluation: normalize of an off-centre bubble, bubble probe and two morse "
             "checks; synth_at dominates and grid transforms should not matter",
             31, 3),
)}


@dataclass
class Outcome:
    failures: list = field(default_factory=list)
    identity_err: float = float("nan")
    output_bytes: int = 0
    morse_points: int = 0
    dt: np.ndarray = None          # dt column of recorded steps (flows)


def _strata(rng, k):
    """k numbers in [0, 1), one in each of k equal strata, in random order."""
    return (rng.permutation(k) + rng.uniform(size=k)) / k


def make_inputs(workload, seed):
    """The workload's inputs, drawn from the seed alone.

    Each random parameter is stratified over its range (one draw per
    equal slice), so every run covers the range and the per-run means
    vary little from seed to seed.
    """
    rng = np.random.default_rng(seed)
    k = workload.n_inputs
    if workload.name == "converge-L31":
        amps = 0.02 + 0.04 * np.stack([_strata(rng, k), _strata(rng, k)], axis=1)
        return [{
            "seed": seed, "L": 31, "n": 2, "f_spec": "2 - z^2",
            "u0_spec": {"type": "perturbation",
                        "modes": [{"l": 2, "m": 0, "amp": float(a2)}, {"l": 4, "m": 0, "amp": float(a4)}]},
            "checks": ["identities"],
        } for a2, a4 in amps]
    if workload.name == "bubble-L63":
        # centres within 0.3 rad of the north pole
        theta, phi = 0.3 * _strata(rng, k), 2.0 * np.pi * rng.uniform(size=k)
        return [{
            "seed": seed, "L": 63, "n": 2, "f_spec": "2 + 0.5z",
            "u0_spec": {"type": "bubble", "eps": 0.15,
                        "p": [float(np.sin(t) * np.cos(f)), float(np.sin(t) * np.sin(f)), float(np.cos(t))]},
            "flow": {"record_every": 10, "t_end": 5.0},
            "checks": ["identities"],
        } for t, f in zip(theta, phi)]
    # centres uniform on the sphere: z stratified over [-1, 1), longitude uniform
    z, phi = 2.0 * _strata(rng, k) - 1.0, 2.0 * np.pi * rng.uniform(size=k)
    r = np.sqrt(1.0 - z**2)
    return [{"p": [float(r_ * np.cos(f)), float(r_ * np.sin(f)), float(z_)], "eps": RECENTER_EPS, "L": 31}
            for r_, z_, f in zip(r, z, phi)]


def setup_once(workload, inp):
    """The set-up a run pays on fresh objects.

    Flows: make_grid + building u0 + init_state (the Legendre tables are
    built lazily per grid, so every flow run pays them again).
    Recentering: make_grid + bubble_field.
    """
    grid = spectral.make_grid(inp["L"])
    if workload.name == "recenter-L31":
        conformal.bubble_field(inp["p"], inp["eps"], grid)
    else:
        u0 = cli._build_u0(inp["u0_spec"], grid, np.random.default_rng(inp["seed"]))
        cfg = flow.FlowConfig(**inp.get("flow", {}))
        flow.init_state(u0, prescribed.parse_f_spec(inp["f_spec"]), cfg)


def table_probe(L):
    """(make_grid seconds, Legendre-table seconds) on a fresh grid.

    The table cost is the first synthesize on the fresh grid minus a
    second, warm one.
    """
    t0 = time.perf_counter()
    grid = spectral.make_grid(L)
    t1 = time.perf_counter()
    coeffs = np.zeros((L + 1, 2 * L + 1))
    coeffs[0, L] = 1.0
    spectral.synthesize(coeffs, grid)
    t2 = time.perf_counter()
    spectral.synthesize(coeffs, grid)
    t3 = time.perf_counter()
    return t1 - t0, (t2 - t1) - (t3 - t2)


def _cli(argv):
    """Call bmcflow.cli.main in-process; returns (exit code, captured stdout)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def _dir_bytes(path):
    return sum(os.path.getsize(os.path.join(d, f)) for d, _, files in os.walk(path) for f in files)


def run_op(workload, inp, workdir, timed):
    """Run one operation; returns (timing, Outcome).

    timed(fn, *args) calls fn and returns (result, *timing).
    """
    if workload.name == "recenter-L31":
        return _recenter(inp, workdir, timed)
    return _flow(workload, inp, workdir, timed)


def _flow(workload, inp, workdir, timed):
    cfg_path = os.path.join(workdir, "experiment.json")
    out = os.path.join(workdir, "out")
    with open(cfg_path, "w") as fh:
        json.dump(inp, fh)
    (code, stdout), *timing = timed(_cli, ["flow", "run", "--config", cfg_path, "--out", out])

    res = Outcome(output_bytes=len(stdout.encode()) + _dir_bytes(out))
    want = "Converged" if workload.name == "converge-L31" else "HorizonReached"
    if code != 0:
        res.failures.append(f"exit code {code}")
    with open(os.path.join(out, "verdict.json")) as fh:
        verdict = json.load(fh)
    if verdict["verdict"] != want:
        res.failures.append(f"verdict {verdict['verdict']}, expected {want}")
    with open(os.path.join(out, "trajectory.csv")) as fh:
        rows = list(csv.DictReader(fh))
    vol_err = np.array([float(r["vol_err"]) for r in rows])
    if not np.all(np.abs(vol_err) <= 1e-9):
        res.failures.append(f"|vol - 1| reached {np.abs(vol_err).max():.3e}")
    res.dt = np.array([float(r["dt"]) for r in rows[1:]])
    with open(os.path.join(out, "identities.json")) as fh:
        ids = json.load(fh)
    res.identity_err = max(ids["decay_rel_err"], ids["lambda_prime_rel_err"])
    if not ids["lambda_window_ok"]:
        res.failures.append("lambda left its window")
    if workload.name == "converge-L31":
        if not res.identity_err <= 1e-2:
            res.failures.append(f"identity_err {res.identity_err:.3e} > 1e-2")
        if not ids["barrier_ok_config"]:
            res.failures.append("curvature barrier violated")
    return timing, res


def _recenter(inp, workdir, timed):
    p, eps, L = np.array(inp["p"]), inp["eps"], inp["L"]
    p_arg = ",".join(repr(v) for v in inp["p"])

    def operation():
        grid = spectral.make_grid(L)
        state = conformal.normalize(conformal.bubble_field(p, eps, grid))
        probe = _cli(["bubble", "probe", f"--p={p_arg}", "--eps", repr(eps), "--L", str(L)])
        ellipsoid = _cli(["morse", "check", "--f", ELLIPSOID])
        sym = _cli(["morse", "check", "--f", SYM_F, "--sym", SYM_SPEC])
        return grid, state, probe, ellipsoid, sym

    (grid, state, probe, ellipsoid, sym), *timing = timed(operation)

    res = Outcome(output_bytes=sum(len(out.encode()) for _, out in (probe, ellipsoid, sym)))
    # Pulling a bubble back by its generating map gives the constant 1.
    res.identity_err = float(np.sqrt(grid.integrate((state.v.values - 1.0) ** 2)))
    if not state.residual <= 1e-8:
        res.failures.append(f"normalize residual {state.residual:.3e}")
    if not abs(state.map.eps - eps / (2.0 - eps)) <= 1e-6:
        res.failures.append(f"recovered dilation {state.map.eps!r}, expected {eps / (2.0 - eps)!r}")
    if not np.linalg.norm(state.map.p - p) <= 1e-6:
        res.failures.append(f"recovered centre {state.map.p}, expected {p}")

    code, doc = probe[0], json.loads(probe[1])
    peak = ((2.0 - eps) / eps) ** 0.5
    grid_peak = _bubble_grid_peak(p, eps, grid)
    if code != 0 or abs(doc["peak_closed_form"] - peak) > 1e-8 * peak:
        res.failures.append(f"bubble probe closed-form peak {doc['peak_closed_form']!r}, "
                            f"expected {peak!r}, exit {code}")
    if not abs(doc["peak"] - grid_peak) <= 1e-8 * grid_peak:
        res.failures.append(f"bubble probe grid peak {doc['peak']!r}, expected {grid_peak!r}")

    code, doc = ellipsoid[0], json.loads(ellipsoid[1])
    res.morse_points += len(doc.get("points", []))
    if code != 0 or doc.get("m") != [2, 0, 0] or not doc.get("criteria_hold"):
        res.failures.append(f"ellipsoid morse check: exit {code}, m {doc.get('m')}")

    code, doc = sym[0], json.loads(sym[1])
    res.morse_points += len(doc.get("points", []))
    sym_doc = doc.get("symmetry", {})
    if code != 0 or not sym_doc.get("invariant") or not sym_doc["invariant_criteria"]["applies"]:
        res.failures.append(f"symmetric morse check: exit {code}")
    return timing, res


def _bubble_grid_peak(p, eps, grid):
    """Largest value on the grid nodes of the n = 2 bubble [eps(2-eps)]^(1/2) / |x - (1-eps)p|."""
    p = p / np.linalg.norm(p)
    dist = np.linalg.norm(grid.nodes() - (1.0 - eps) * p, axis=-1)
    return float(np.sqrt(eps * (2.0 - eps)) / dist.min())


def warm_up(workdir):
    """One small call of every entry point, so lazy numpy/scipy set-up is not timed."""
    small = {"L": 8, "f_spec": "2 - z^2", "flow": {"t_end": 0.05}, "checks": ["identities"]}
    with open(os.path.join(workdir, "warm.json"), "w") as fh:
        json.dump(small, fh)
    _cli(["flow", "run", "--config", os.path.join(workdir, "warm.json"), "--out", os.path.join(workdir, "warm")])
    _cli(["bubble", "probe", "--p", "0,0,1", "--eps", "0.5", "--L", "8"])
    _cli(["morse", "check", "--f", SYM_F, "--sym", SYM_SPEC, "--L", "8"])
    grid = spectral.make_grid(8)
    conformal.normalize(conformal.bubble_field([0.0, 0.6, 0.8], 0.6, grid))
