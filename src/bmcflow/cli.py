"""Batch command-line front end.

Subcommands:

  flow run --config PATH [PATH ...] --out DIR [--jobs N]
      Run one experiment per JSON config; write trajectory.csv,
      verdict.json, (when requested) identities.json, and (when the
      flow tried a Newton finish) certificate.json per run.
      Exit 0 for Converged/HorizonReached, 2 for Concentrating,
      3 for Failed (an unresolved state or a scheme failure), 64 for
      unparseable input or configs whose stems name one output directory.

  morse check --f SPEC [--sym SPEC]
      Critical-point report as JSON on stdout.  Without --sym, exit 0
      iff the function is Morse and all four solvability conditions
      hold; with --sym, exit 0 iff either symmetric-case criterion
      applies (the Morse property is then not required).

  bubble probe --p X,Y,Z --eps E --L N
      Diagnostics of a single concentrated conformal factor against
      its closed forms, as JSON on stdout.

  selftest [--quick]
      Build sanity suites (bubble curvature, Parseval, trace inequality,
      conformal group law, pullback volume invariance, Newton finish)
      with a pass/fail table; exit 0 iff all pass.

Experiment config schema (JSON):

  {
    "seed": 0,
    "L": 31,
    "n": 2,
    "f_spec": "2 - z^2",
    "u0_spec": {"type": "constant", "value": 1.0},
    "flow": {"dt_max": 0.05, "t_end": 50.0},
    "checks": ["identities"]
  }

u0_spec types: constant {value}; bubble {p, eps}; perturbation {base,
modes: [{l, m, amp}], random: {lmax, amp}} with the random block drawn
from the seeded generator.  All floats in outputs carry 17 significant
digits and runs with the same config are byte-identical.
"""

import argparse
import json
import sys
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from dataclasses import MISSING, asdict, fields
from functools import lru_cache
from pathlib import Path

import numpy as np

from .conformal import (CAP_RADII, ConformalMap, boundary_action, bubble_cap_mass, bubble_field,
                        cap_integrals, center_of_mass, unit_direction)
from .curvature import N, OMEGA_N, TWO_SHARP, mean_curvature, total_energy, volume, volume_density
from .errors import AdmissibilityError, ConfigError, SpecParseError
from .flow import MIN_ROWS, FlowConfig, admits, check_identities, init_state, newton_finish, run
from .morse import check_conditions, check_symmetry
from .prescribed import parse_f_spec
from .spectral import BoundaryField, make_grid

_EXIT_OK = 0
_EXIT_CONCENTRATING = 2
_EXIT_FAILURE = 3
_EXIT_USAGE = 64

# Each block's fields in echo order: (JSON type by flow.admits, None for a nested block; default, MISSING if required)
_SCHEMA = {
    "config root": {"seed": (int, 0), "L": (int, 31), "n": (int, 2), "f_spec": (str, MISSING),
                    "u0_spec": (None, {"type": "constant", "value": 1.0}), "checks": (list, ["identities"]),
                    "flow": (None, {})},
    "constant u0_spec": {"type": (str, MISSING), "value": (float, 1.0)},
    "bubble u0_spec": {"type": (str, MISSING), "p": (tuple, MISSING), "eps": (float, MISSING)},
    "perturbation u0_spec": {"type": (str, MISSING), "base": (float, 1.0), "modes": (list, []), "random": (None, None)},
    "u0_spec mode": {"l": (int, MISSING), "m": (int, MISSING), "amp": (float, MISSING)},
    "u0_spec random": {"lmax": (int, MISSING), "amp": (float, MISSING)},
    "flow config": {f.name: (f.type, f.default) for f in fields(FlowConfig)},
}
_CHECKS = ("identities", "morse")


def _read(block, what):
    """The config block named what, checked against _SCHEMA[what]: its fields in schema order, defaults filled in."""
    if not admits(dict, block):
        raise ConfigError(f"{what} must be a JSON object, got {block!r}")
    schema = _SCHEMA[what]
    unknown = [name for name in block if name not in schema]
    if unknown:
        raise ConfigError(f"unknown {what} fields: {unknown}")
    for name, (kind, default) in schema.items():
        if name not in block and default is MISSING:
            raise ConfigError(f"{what} field {name} is missing")
        if name in block and kind is not None and not admits(kind, block[name]):
            raise ConfigError(f"{what} field {name} must be of type {kind.__name__}, got {block[name]!r}")
    return {name: block.get(name, default) for name, (_, default) in schema.items()}


@contextmanager
def _field(what, name):
    """Re-raise a ValueError from parsing field name of config block what as a ConfigError that names both."""
    try:
        yield
    except ValueError as exc:
        raise ConfigError(f"{what} field {name}: {exc}") from exc


def _build_u0(spec, grid, rng):
    kind = spec.get("type") if admits(dict, spec) else None
    if f"{kind} u0_spec" not in _SCHEMA:
        raise ConfigError(f"u0_spec must be a JSON object whose type is constant, bubble or perturbation, got {spec!r}")
    spec = _read(spec, f"{kind} u0_spec")
    if kind == "constant":
        return BoundaryField(grid, values=np.full(grid.shape, float(spec["value"])))
    if kind == "bubble":
        with _field("bubble u0_spec", "p"):
            unit_direction(spec["p"], "bubble center")  # bubble_field's test of p, first, so a refusal of p names p
        with _field("bubble u0_spec", "eps"):
            return bubble_field(spec["p"], float(spec["eps"]), grid)
    L = grid.L
    coeffs = np.zeros((L + 1, 2 * L + 1))
    coeffs[0, L] = spec["base"]
    for mode in spec["modes"]:
        mode = _read(mode, "u0_spec mode")
        l, m = mode["l"], mode["m"]
        if not (0 <= l <= L and -l <= m <= l):
            raise ConfigError(f"u0_spec mode (l={l}, m={m}) lies outside the band limit L={L}")
        coeffs[l, m + L] += mode["amp"]
    if spec["random"] is not None:
        rand = _read(spec["random"], "u0_spec random")
        if rand["lmax"] < 0:
            raise ConfigError(f"u0_spec random field lmax must be >= 0, got {rand['lmax']}")
        for l in range(1, min(rand["lmax"], L) + 1):
            coeffs[l, L - l:L + l + 1] += rand["amp"] * rng.standard_normal(2 * l + 1)
    return BoundaryField(grid, coeffs=coeffs)


def _load_experiment(path):
    with open(path) as fh:
        exp = _read(json.load(fh), "config root")
    if exp["n"] != 2:
        raise ConfigError(f"config root field n must be 2 (the two-sphere boundary), got {exp['n']}")
    if exp["seed"] < 0:
        raise ConfigError(f"config root field seed must be >= 0, got {exp['seed']}")
    unknown = [name for name in exp["checks"] if name not in _CHECKS]
    if unknown:
        raise ConfigError(f"config root field checks names unknown checks: {unknown}")
    exp["flow"] = FlowConfig(**_read(exp["flow"], "flow config")).validate()
    return exp


def _json_default(obj):
    if isinstance(obj, np.generic):
        return obj.item()
    raise TypeError(f"not JSON serializable: {type(obj)}")


def _write_json(path, doc):
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, default=_json_default)
        fh.write("\n")


def _run_experiment(config_path, out_dir):
    """One flow run; returns the exit code.  Outputs land in out_dir."""
    try:
        exp = _load_experiment(config_path)
        with _field("config root", "f_spec"):
            f = parse_f_spec(exp["f_spec"])
        with _field("config root", "L"):
            grid = make_grid(exp["L"])
        rng = np.random.default_rng(exp["seed"])
        u0 = _build_u0(exp["u0_spec"], grid, rng)
    except (ConfigError, SpecParseError, KeyError, TypeError, ValueError, OSError) as exc:
        print(f"config error in {config_path}: {exc}", file=sys.stderr)
        return _EXIT_USAGE
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    echo = {**exp, "flow": asdict(exp["flow"])}
    cfg = exp["flow"]
    try:
        state = init_state(u0, f, cfg)
    except AdmissibilityError as exc:
        print(f"admissibility failure ({exc.condition}): {exc}", file=sys.stderr)
        _write_json(out / "verdict.json",
                    {"verdict": "Failed", "reason": f"admissibility: {exc}", "experiment": echo})
        return _EXIT_FAILURE
    traj = run(state, cfg)
    traj.to_csv(out / "trajectory.csv")
    _write_json(out / "verdict.json", {**traj.verdict_document(), "experiment": echo})
    if "finish" in traj.info:
        attempts = traj.info["finish"]
        _write_json(out / "certificate.json", {"certified": attempts[-1]["certified"], "attempts": attempts})
    if traj.verdict == "Failed":
        print(f"scheme failure: {traj.reason}", file=sys.stderr)
        return _EXIT_FAILURE
    if "identities" in exp["checks"] and len(traj.rows) >= MIN_ROWS:
        _write_json(out / "identities.json", check_identities(traj))
    if "morse" in exp["checks"]:
        _write_json(out / "morse.json", check_conditions(f, grid))
    print(f"{traj.verdict}: {traj.reason} ({len(traj.rows)} rows) -> {out}")
    return _EXIT_CONCENTRATING if traj.verdict == "Concentrating" else _EXIT_OK


def cmd_flow_run(args):
    configs = args.config
    if len(configs) == 1:
        return _run_experiment(configs[0], args.out)
    outs = [str(Path(args.out) / Path(path).stem) for path in configs]
    sharing = {out: [path for path, o in zip(configs, outs) if o == out] for out in outs}
    clashes = [f"{', '.join(paths)} -> {out}" for out, paths in sharing.items() if len(paths) > 1]
    if clashes:
        print(f"config error: configs share an output directory: {'; '.join(clashes)}", file=sys.stderr)
        return _EXIT_USAGE
    workers = max(1, min(args.jobs, len(configs)))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            return max(pool.map(_run_experiment, configs, outs))
    return max(map(_run_experiment, configs, outs))


def cmd_morse_check(args):
    try:
        f = parse_f_spec(args.f)
    except SpecParseError as exc:
        print(f"bad f spec: {exc}", file=sys.stderr)
        return _EXIT_USAGE
    try:
        grid = make_grid(args.L)
    except ConfigError as exc:
        print(f"bad grid degree: {exc}", file=sys.stderr)
        return _EXIT_USAGE
    doc = check_conditions(f, grid)
    ok = doc["criteria_hold"]
    if args.sym is not None:
        try:
            sym = check_symmetry(f, args.sym, grid)
        except SpecParseError as exc:
            print(f"bad symmetry spec: {exc}", file=sys.stderr)
            return _EXIT_USAGE
        doc["symmetry"] = sym
        ok = sym["invariant_criteria"]["applies"] or sym["fixed_set_max_criteria"]["applies"]
    print(json.dumps(doc, indent=2, default=_json_default))
    return _EXIT_OK if ok else 1


def cmd_bubble_probe(args):
    try:
        p = [float(v) for v in args.p.split(",")]
        direction = unit_direction(p, "--p")
        grid = make_grid(args.L)
        u = bubble_field(p, args.eps, grid)
    except (ValueError, ConfigError) as exc:
        print(f"bad probe arguments: {exc}", file=sys.stderr)
        return _EXIT_USAGE
    H = mean_curvature(u)
    S, Q = center_of_mass(u)
    caps = cap_integrals(volume_density(u.values), grid, CAP_RADII, direction)
    doc = {
        "p": [float(v) for v in direction],
        "eps": args.eps,
        "L": args.L,
        "volume_err": volume(u) - 1.0,
        "energy": total_energy(u),
        "max_H_deviation": float(np.abs(H.values - 1.0).max()),
        "peak": float(u.values.max()),
        "peak_closed_form": ((2.0 - args.eps) / args.eps) ** ((N - 1.0) / 2.0),
        "cap_mass_fraction": {f"{r:g}": float(cap) / OMEGA_N for r, cap in zip(CAP_RADII, caps)},
        "cap_mass_closed_form": {f"{r:g}": bubble_cap_mass(args.eps, r) for r in CAP_RADII},
        "center_of_mass_S": [float(v) for v in S],
        "Q": None if Q is None else [float(v) for v in Q],
    }
    print(json.dumps(doc, indent=2, default=_json_default))
    return _EXIT_OK


def _suite_bubble_curvature(L):
    """A bubble pulls the unit ball back by a conformal map, so its H, formed through the DtN map, is 1."""
    u = bubble_field(np.array([0.3, -0.2, 0.9]), 0.8, make_grid(L))
    dev = float(np.abs(mean_curvature(u).values - 1.0).max())
    return dev < 1e-4, f"max |H - 1| {dev:.3e}"


def _suite_parseval(L, rng):
    grid = make_grid(L)
    coeffs = rng.standard_normal((L + 1, 2 * L + 1))
    for l in range(L + 1):
        coeffs[l, :L - l] = 0.0
        coeffs[l, L + l + 1:] = 0.0
    u = BoundaryField(grid, coeffs=coeffs)
    lhs = float(np.sum(coeffs**2))
    rhs = grid.integrate(u.values**2)
    err = abs(lhs - rhs) / max(abs(lhs), 1.0)
    return err < 1e-10, f"rel err {err:.3e}"


def _smooth_field(grid, rng, lmax, amp):
    """1 + sum over 1 <= l <= min(lmax, L) of amp Y_l-modes with standard normal weights / (1 + l)^2, drawn l by l."""
    L = grid.L
    coeffs = np.zeros((L + 1, 2 * L + 1))
    coeffs[0, L] = 1.0
    for l in range(1, min(lmax, L) + 1):
        coeffs[l, L - l:L + l + 1] = amp * rng.standard_normal(2 * l + 1) / (1 + l) ** 2
    return BoundaryField(grid, coeffs=coeffs)


def _suite_trace(L, rng, n_fields):
    grid = make_grid(L)
    worst = np.inf
    for _ in range(n_fields):
        u = _smooth_field(grid, rng, 6, 0.1)
        if u.values.min() <= 0:
            continue
        margin = total_energy(u) - volume(u) ** (2.0 / TWO_SHARP)
        worst = min(worst, margin)
    return worst >= -1e-10, f"min margin {worst:.3e}"


def _suite_group_law(L, rng):
    p = np.array([0.0, 0.0, 1.0])
    m1 = ConformalMap(p, 0.5)
    m2 = ConformalMap(p, 0.4)
    m12 = ConformalMap(p, 0.2)
    x = rng.standard_normal((1000, 3))
    x /= np.linalg.norm(x, axis=1, keepdims=True)
    err = float(np.abs(boundary_action(m2, boundary_action(m1, x)[0])[0] - boundary_action(m12, x)[0]).max())
    return err < 1e-10, f"max dev {err:.3e}"


def _suite_volume_invariance(L, rng):
    from .conformal import pullback_normalized
    u = _smooth_field(make_grid(L), rng, 4, 0.05)
    worst = 0.0
    for _ in range(3):
        axis = rng.standard_normal(3)
        axis /= np.linalg.norm(axis)
        mp = ConformalMap(axis, float(rng.uniform(0.6, 1.6)))
        v = pullback_normalized(u, mp)
        worst = max(worst, abs(volume(v) - volume(u)))
    return worst < 1e-7, f"max vol dev {worst:.3e}"


def _suite_newton_finish(L):
    """The Newton finish certifies u = 1 for f = 1 from u = 1 + 0.05 Y_20 and refuses a bubble on 2 + 0.5z.

    2 + 0.5z is Kazdan-Warner obstructed: no metric realizes it, so a
    certificate there would be a false one.
    """
    grid, config = make_grid(L), FlowConfig()
    coeffs = np.zeros((L + 1, 2 * L + 1))
    coeffs[0, L], coeffs[2, L] = 1.0, 0.05
    record, new = newton_finish(init_state(BoundaryField(grid, coeffs=coeffs), parse_f_spec("1"), config),
                                config.conv_tol)
    dev = float(np.abs(new.u.values - 1.0).max()) if new is not None else np.inf
    bubble = init_state(bubble_field(np.array([0.3, -0.2, 0.9]), 0.8, grid), parse_f_spec("2 + 0.5z"), config)
    refused = newton_finish(bubble, config.conv_tol)[1] is None
    return dev <= 1e-12 and refused, (f"max |u* - 1| {dev:.3e} in {record['iterations']} iterations, "
                                      f"bubble on 2 + 0.5z {'refused' if refused else 'CERTIFIED'}")


def cmd_selftest(args):
    L = 8 if args.quick else 31
    n_fields = 20 if args.quick else 100
    rng = np.random.default_rng(1234)
    suites = [
        ("bubble_curvature", lambda: _suite_bubble_curvature(L)),
        ("parseval", lambda: _suite_parseval(L, rng)),
        ("trace_inequality", lambda: _suite_trace(L, rng, n_fields)),
        ("conformal_group_law", lambda: _suite_group_law(L, rng)),
        ("pullback_volume_invariance", lambda: _suite_volume_invariance(min(L, 15), rng)),
        ("newton_finish", lambda: _suite_newton_finish(L)),
    ]
    all_ok = True
    for name, fn in suites:
        ok, detail = fn()
        all_ok &= ok
        print(f"{'ok  ' if ok else 'FAIL'} {name:30s} {detail}")
    print("selftest:", "pass" if all_ok else "FAIL", f"(L={L})")
    return _EXIT_OK if all_ok else 1


@lru_cache(maxsize=1)
def build_parser():
    """The command-line parser, built once per process (parsing does not change it)."""
    parser = argparse.ArgumentParser(prog="bmcflow",
                                     description="Boundary mean-curvature flow experiments")
    sub = parser.add_subparsers(dest="command", required=True)

    p_flow = sub.add_parser("flow", help="flow experiments")
    flow_sub = p_flow.add_subparsers(dest="flow_command", required=True)
    p_run = flow_sub.add_parser("run", help="run experiments from JSON configs")
    p_run.add_argument("--config", nargs="+", required=True, help="experiment config path(s)")
    p_run.add_argument("--out", required=True, help="output directory")
    p_run.add_argument("--jobs", type=int, default=1, help="parallel processes for multiple configs")
    p_run.set_defaults(func=cmd_flow_run)

    p_morse = sub.add_parser("morse", help="critical-point analysis")
    morse_sub = p_morse.add_subparsers(dest="morse_command", required=True)
    p_check = morse_sub.add_parser("check", help="report solvability criteria for a target function")
    p_check.add_argument("--f", required=True, help="target function spec, e.g. '2 - z^2'")
    p_check.add_argument("--sym", default=None, help="symmetry spec: mirror(AXIS) or rotation(AXIS, k)")
    p_check.add_argument("--L", type=int, default=31, help="band limit for quadrature (default 31)")
    p_check.set_defaults(func=cmd_morse_check)

    p_bubble = sub.add_parser("bubble", help="concentrated conformal factors")
    bubble_sub = p_bubble.add_subparsers(dest="bubble_command", required=True)
    p_probe = bubble_sub.add_parser("probe", help="compare one bubble against its closed forms")
    p_probe.add_argument("--p", required=True, help="center direction X,Y,Z")
    p_probe.add_argument("--eps", type=float, required=True, help="concentration parameter in (0, 1]")
    p_probe.add_argument("--L", type=int, default=31, help="band limit (default 31)")
    p_probe.set_defaults(func=cmd_bubble_probe)

    p_self = sub.add_parser("selftest", help="build sanity checks")
    p_self.add_argument("--quick", action="store_true", help="small grid, < 5 s")
    p_self.set_defaults(func=cmd_selftest)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
