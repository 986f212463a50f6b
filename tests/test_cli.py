"""End-to-end tests of the command-line front end.

Validates:
- exit codes: 0 converged/horizon, 2 concentrating, 3 admissibility or
  scheme failure, 64 unparseable input (non-finite numbers in f too),
  1 for failed checks
- per-run artifacts (trajectory.csv, verdict.json, identities.json,
  morse.json, certificate.json) and the config echo
- byte-identical reruns of a seeded experiment
- morse check with and without symmetry specs; its stdout is the
  check_conditions document, and extrema() is polished once per target
- bubble probe diagnostics against closed forms
- the selftest table, and its failure when the DtN is broken or the
  Newton finish cannot certify
"""

import dataclasses
import importlib.metadata
import json
import shutil
import subprocess

import numpy as np
import pytest

from bmcflow import cli, curvature, flow, spectral
from bmcflow.cli import main
from bmcflow.flow import FlowConfig
from bmcflow.morse import check_conditions
from bmcflow.prescribed import PrescribedFunction, parse_f_spec
from bmcflow.spectral import make_grid

ELLIPSOID = "4 + 0.3x^2 + 0.6y^2 + 1.05z^2"
MORSE_KEYS = ["morse_ok", "failure", "f_mean", "f_absmax", "ratio", "m", "index_sum", "conditions",
              "criteria_hold", "warnings", "points"]


def write_config(path, **overrides):
    doc = {"L": 10, "f_spec": "1"}
    doc.update(overrides)
    with open(path, "w") as fh:
        json.dump(doc, fh)
    return str(path)


def run_dir_files(out):
    return sorted(p.name for p in out.iterdir())


def test_selftest_quick(capsys):
    assert main(["selftest", "--quick"]) == 0
    out = capsys.readouterr().out
    assert "selftest: pass" in out
    assert "bubble_curvature" in out
    assert "trace_inequality" in out


def test_selftest_negative_control(capsys, monkeypatch):
    """A DtN map off by 1% moves a bubble's H by 5e-3, far outside the suite's 1e-4."""
    monkeypatch.setattr(curvature, "dtn_apply", lambda c: 1.01 * spectral.dtn_apply(c))
    assert main(["selftest", "--quick"]) == 1
    out = capsys.readouterr().out
    assert "FAIL bubble_curvature" in out


def test_selftest_newton_finish_suite(capsys, monkeypatch):
    """The newton_finish suite certifies u = 1 for f = 1; with one Newton
    iteration allowed it cannot, and the selftest fails."""
    assert main(["selftest", "--quick"]) == 0
    assert "ok   newton_finish" in capsys.readouterr().out
    monkeypatch.setattr(flow, "_FINISH_ITERS", 1)
    assert main(["selftest", "--quick"]) == 1
    assert "FAIL newton_finish" in capsys.readouterr().out


def test_flow_run_stationary(tmp_path, capsys):
    cfg = write_config(tmp_path / "exp.json")
    out = tmp_path / "out"
    assert main(["flow", "run", "--config", cfg, "--out", str(out)]) == 0
    assert run_dir_files(out) == ["trajectory.csv", "verdict.json"]
    with open(out / "verdict.json") as fh:
        doc = json.load(fh)
    assert doc["verdict"] == "Converged"
    assert doc["steps_recorded"] == 1
    assert doc["experiment"]["f_spec"] == "1"
    assert doc["experiment"]["L"] == 10
    assert doc["experiment"]["flow"]["dt_max"] == 0.05
    assert list(doc["experiment"]["flow"]) == [f.name for f in dataclasses.fields(FlowConfig)]


def test_flow_run_horizon_writes_identities(tmp_path):
    cfg = write_config(
        tmp_path / "exp.json",
        u0_spec={"type": "perturbation", "modes": [{"l": 2, "m": 1, "amp": 0.05}]},
        flow={"dt_max": 0.01, "t_end": 0.1, "conv_tol": 1e-14},
    )
    out = tmp_path / "out"
    assert main(["flow", "run", "--config", cfg, "--out", str(out)]) == 0
    assert run_dir_files(out) == ["identities.json", "trajectory.csv", "verdict.json"]
    with open(out / "verdict.json") as fh:
        assert json.load(fh)["verdict"] == "HorizonReached"
    with open(out / "identities.json") as fh:
        rep = json.load(fh)
    assert rep["lambda_window_ok"] is True
    assert rep["barrier_ok_config"] is True
    rows = np.loadtxt(out / "trajectory.csv", delimiter=",", skiprows=1)
    assert rows.shape[0] == 11


def test_flow_run_writes_certificate_of_newton_finish(tmp_path):
    """A run that the Newton finish ends writes certificate.json next to its
    trajectory: certified, with the attempt's cost and its limit."""
    cfg = write_config(
        tmp_path / "exp.json",
        L=15,
        f_spec="2 - z^2",
        u0_spec={"type": "perturbation", "modes": [{"l": 2, "m": 0, "amp": 0.05}]},
    )
    out = tmp_path / "out"
    assert main(["flow", "run", "--config", cfg, "--out", str(out)]) == 0
    assert run_dir_files(out) == ["certificate.json", "identities.json", "trajectory.csv", "verdict.json"]
    with open(out / "verdict.json") as fh:
        doc = json.load(fh)
    assert doc["verdict"] == "Converged" and doc["reason"].startswith("Newton finish from residual")
    with open(out / "certificate.json") as fh:
        cert = json.load(fh)
    assert cert["certified"] is True
    (attempt,) = cert["attempts"]
    assert attempt["residual"] <= 1e-12 and attempt["sqrt_F2"] < 1e-4
    assert 0 < attempt["iterations"] <= 6 and attempt["matvecs"] <= 300
    rows = np.loadtxt(out / "trajectory.csv", delimiter=",", skiprows=1)
    assert attempt["t"] == rows[-1, 0] and attempt["E_f"] <= rows[:, 4].min()


def test_flow_run_morse_artifact(tmp_path):
    cfg = write_config(
        tmp_path / "exp.json",
        f_spec="4 + 0.3x^2 + 0.6y^2 + 1.05z^2",
        flow={"t_end": 0.05, "conv_tol": 1e-14},
        checks=["morse"],
    )
    out = tmp_path / "out"
    assert main(["flow", "run", "--config", cfg, "--out", str(out)]) == 0
    with open(out / "morse.json") as fh:
        doc = json.load(fh)
    assert doc["criteria_hold"] is True
    assert doc["m"] == [2, 0, 0]
    assert doc["k_system"]["reason"] == "k_1 = -1 < 0"


def test_flow_run_concentrating_exit(tmp_path):
    """An exact bubble under f = 1 is steady, so with a tight tolerance
    the low amplitude guard decides: its peak is already above it."""
    cfg = write_config(
        tmp_path / "exp.json",
        L=31,
        u0_spec={"type": "bubble", "p": [0.0, 0.0, 1.0], "eps": 0.3},
        flow={"blowup_maxu": 2.0, "conv_tol": 1e-16},
    )
    out = tmp_path / "out"
    assert main(["flow", "run", "--config", cfg, "--out", str(out)]) == 2
    with open(out / "verdict.json") as fh:
        doc = json.load(fh)
    assert doc["verdict"] == "Concentrating"
    assert doc["concentration"]["Q"][2] > 0.99


def test_flow_run_admissibility_exit(tmp_path, capsys):
    cfg = write_config(
        tmp_path / "exp.json",
        L=31,
        f_spec="1 - 2z",
        u0_spec={"type": "bubble", "p": [0.0, 0.0, 1.0], "eps": 0.4},
    )
    out = tmp_path / "out"
    assert main(["flow", "run", "--config", cfg, "--out", str(out)]) == 3
    assert run_dir_files(out) == ["verdict.json"]
    with open(out / "verdict.json") as fh:
        doc = json.load(fh)
    assert doc["verdict"] == "Failed"
    assert "admissibility" in doc["reason"]


def test_flow_run_scheme_failure_writes_run_files(tmp_path, capsys):
    """dt pinned at 3.0 exceeds the local error tolerance on the first
    step: exit 3, the reason names the cause, and trajectory.csv and
    verdict.json are written as for a finished run."""
    cfg = write_config(
        tmp_path / "exp.json",
        L=15,
        f_spec="2 - z^2",
        u0_spec={"type": "perturbation", "modes": [{"l": 1, "m": 0, "amp": 0.3}]},
        flow={"dt_min": 3.0, "dt_max": 3.0},
    )
    out = tmp_path / "out"
    assert main(["flow", "run", "--config", cfg, "--out", str(out)]) == 3
    assert "no step at or above dt_min = 3 accepted: local error" in capsys.readouterr().err
    assert run_dir_files(out) == ["trajectory.csv", "verdict.json"]
    with open(out / "verdict.json") as fh:
        doc = json.load(fh)
    assert doc["verdict"] == "Failed"
    rows = np.loadtxt(out / "trajectory.csv", delimiter=",", skiprows=1, ndmin=2)
    assert doc["steps_recorded"] == len(rows) > 0


@pytest.mark.parametrize("L", [12, 14, 31])
def test_flow_run_zero_mean_target_exit(tmp_path, L):
    """mean(z u0^4) vanishes for constant u0: an admissibility failure
    at every band limit, whatever sign the quadrature roundoff has."""
    cfg = write_config(tmp_path / "exp.json", L=L, f_spec="z")
    out = tmp_path / "out"
    assert main(["flow", "run", "--config", cfg, "--out", str(out)]) == 3
    with open(out / "verdict.json") as fh:
        assert "admissibility" in json.load(fh)["reason"]


@pytest.mark.parametrize("mutate", [
    {"f_spec": "2 - q"},
    {"f_spec": None},
    {"n": 3},
    {"flow": {"no_such_field": 1}},
    {"flow": {"dt_min": -1.0}},
    {"u0_spec": {"type": "vortex"}},
    {"u0_spec": {"type": "perturbation", "modes": [{"l": 99, "m": 0, "amp": 0.1}]}},
])
def test_flow_run_config_errors(tmp_path, capsys, mutate):
    doc = {"L": 10, "f_spec": "1"}
    doc.update(mutate)
    doc = {k: v for k, v in doc.items() if v is not None}
    cfg = tmp_path / "exp.json"
    with open(cfg, "w") as fh:
        json.dump(doc, fh)
    assert main(["flow", "run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 64
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("mutate", [
    pytest.param({"sede": 3}, id="unknown-key"),
    pytest.param({"u0_spec": {"type": "constant", "valu": 2}}, id="unknown-u0-field"),
    pytest.param({"u0_spec": {"type": "bubble", "p": [0, 0, 1], "eps": 0.5, "value": 1}},
                 id="field-of-another-u0-type"),
    pytest.param({"checks": ["identites"]}, id="unknown-check"),
    pytest.param({"u0_spec": "constant"}, id="u0_spec-not-an-object"),
    pytest.param({"flow": {"blowup_maxu": 0.0}}, id="zero-blowup-maxu"),
    pytest.param({"flow": {"p_list": [2, 4]}}, id="removed-p_list"),
    pytest.param({"flow": {"Lambda0": 10.0}}, id="removed-Lambda0"),
    pytest.param({"flow": {"tau": 0.8}}, id="removed-tau"),
    pytest.param({"flow": {"cap_radii": [0.1]}}, id="removed-cap_radii"),
    pytest.param({"flow": {"vol_project": "no"}}, id="vol_project-string"),
    pytest.param({"flow": {"record_every": 2.5}}, id="fractional-record_every"),
    pytest.param({"flow": {"t_end": True}}, id="bool-t_end"),
    pytest.param({"L": 31.7}, id="fractional-L"),
    pytest.param({"n": 2.5}, id="fractional-n"),
    pytest.param({"seed": 1.9}, id="fractional-seed"),
    pytest.param({"L": True}, id="bool-L"),
    pytest.param({"seed": False}, id="bool-seed"),
    pytest.param({"u0_spec": {"type": "bubble", "p": [0, 0, 0], "eps": 0.5}}, id="zero-bubble-center"),
    pytest.param({"u0_spec": {"type": "perturbation", "base": True}}, id="bool-base"),
    pytest.param({"u0_spec": {"type": "perturbation", "modes": [{"l": 2.7, "m": 0, "amp": 0.05}]}},
                 id="fractional-mode-l"),
    pytest.param({"u0_spec": {"type": "perturbation", "modes": [{"l": 2, "m": 0.4, "amp": 0.05}]}},
                 id="fractional-mode-m"),
    pytest.param({"u0_spec": {"type": "perturbation", "random": {"lmax": 3.9, "amp": 0.01}}},
                 id="fractional-random-lmax"),
])
def test_flow_run_rejects_before_writing(tmp_path, capsys, mutate):
    """Out-of-range or wrongly typed settings and unknown names exit 64
    with a one-line message, before the output directory exists; a bad
    flow setting or integer key is named in the message."""
    cfg = write_config(tmp_path / "exp.json", f_spec="2 - z^2", **mutate)
    out = tmp_path / "out"
    assert main(["flow", "run", "--config", cfg, "--out", str(out)]) == 64
    assert not out.exists()
    err = capsys.readouterr().err
    assert err.startswith("config error") and err.count("\n") == 1
    for name in mutate.get("flow", {}) or set(mutate) & {"L", "n", "seed"}:
        assert f"{name} must" in err or f"'{name}'" in err


@pytest.mark.parametrize("u0_spec, name", [
    ({"type": "constant", "value": "2"}, "value"),
    ({"type": "bubble", "p": [0, 0, 1], "eps": True}, "eps"),
    ({"type": "perturbation", "base": True}, "base"),
    ({"type": "perturbation", "modes": [{"l": 2.7, "m": 0, "amp": 0.05}]}, "l"),
    ({"type": "perturbation", "modes": [{"l": 2, "m": 0.4, "amp": 0.05}]}, "m"),
    ({"type": "perturbation", "modes": [{"l": 2, "m": 0, "amp": [0.05]}]}, "amp"),
    ({"type": "perturbation", "random": {"lmax": 3.9, "amp": 0.01}}, "lmax"),
    ({"type": "perturbation", "random": {"lmax": 3, "amp": "0.01"}}, "amp"),
    ({"type": "bubble", "p": [0, 0, True], "eps": 0.5}, "p"),
])
def test_u0_spec_type_error_names_the_field(tmp_path, capsys, u0_spec, name):
    """u0_spec numbers follow FlowConfig's type rule: no truncation or
    coercion, and the message names the offending field."""
    cfg = write_config(tmp_path / "exp.json", f_spec="2 - z^2", u0_spec=u0_spec)
    assert main(["flow", "run", "--config", cfg, "--out", str(tmp_path / "out")]) == 64
    assert f"u0_spec field {name} must be of type" in capsys.readouterr().err


def test_flow_run_unreadable_config(tmp_path, capsys):
    bad = tmp_path / "nope.json"
    bad.write_text("{not json")
    assert main(["flow", "run", "--config", str(bad), "--out", str(tmp_path / "o")]) == 64
    missing = tmp_path / "missing.json"
    assert main(["flow", "run", "--config", str(missing), "--out", str(tmp_path / "o")]) == 64


def test_flow_run_multiple_configs(tmp_path):
    """Several configs land in per-stem subdirectories; the exit code is
    the worst one."""
    quiet = write_config(tmp_path / "quiet.json")
    sharp = write_config(
        tmp_path / "sharp.json",
        L=31,
        u0_spec={"type": "bubble", "p": [0.0, 0.0, 1.0], "eps": 0.3},
        flow={"blowup_maxu": 2.0, "conv_tol": 1e-16},
    )
    out = tmp_path / "out"
    assert main(["flow", "run", "--config", quiet, sharp, "--out", str(out)]) == 2
    assert (out / "quiet" / "verdict.json").exists()
    assert (out / "sharp" / "verdict.json").exists()


@pytest.mark.parametrize("jobs, workers", [(10000, 2), (2, 2), (0, None), (1, None)])
def test_flow_run_jobs_clamped(tmp_path, monkeypatch, jobs, workers):
    """--jobs is clamped to [1, number of configs]: no pool is asked for
    more workers than there are configs, and below 2 none is started."""
    asked = []

    class FakePool:
        def __init__(self, max_workers):
            asked.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr(cli, "ProcessPoolExecutor", FakePool)
    configs = [write_config(tmp_path / f"{name}.json") for name in ("a", "b")]
    out = tmp_path / "out"
    assert main(["flow", "run", "--config", *configs, "--out", str(out), "--jobs", str(jobs)]) == 0
    assert asked == ([] if workers is None else [workers])
    assert (out / "a" / "verdict.json").exists() and (out / "b" / "verdict.json").exists()


def test_flow_run_deterministic(tmp_path):
    """Same config and seed give byte-identical trajectories."""
    cfg = write_config(
        tmp_path / "exp.json",
        seed=7,
        u0_spec={"type": "perturbation", "random": {"lmax": 4, "amp": 0.02}},
        flow={"t_end": 0.05, "conv_tol": 1e-14},
    )
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["flow", "run", "--config", cfg, "--out", str(out1)]) == 0
    assert main(["flow", "run", "--config", cfg, "--out", str(out2)]) == 0
    b1 = (out1 / "trajectory.csv").read_bytes()
    b2 = (out2 / "trajectory.csv").read_bytes()
    assert b1 == b2


def test_morse_check_obstructed_target(capsys):
    assert main(["morse", "check", "--f", "4 + 0.3x^2 + 0.6y^2 + 1.05z^2"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["criteria_hold"] is True
    assert doc["index_sum"] == 2
    assert len(doc["points"]) == 6


def test_morse_check_solvable_target(capsys):
    assert main(["morse", "check", "--f", "2 + 0.5z"]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["morse_ok"] is True
    assert doc["criteria_hold"] is False
    assert doc["k_system"]["solvable"] is True


def test_morse_check_zero_mean_target(capsys):
    assert main(["morse", "check", "--f", "z"]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["conditions"]["positive_mean"] is False
    assert doc["conditions"]["simple_bubble_ratio"] is False


def _no_constant(name):
    raise ValueError(f"{name} is not JSON")


@pytest.mark.parametrize("spec", ["x", "1E-3x", "2 + 0.5z"])
def test_morse_check_prints_strict_json(capsys, spec):
    """The ratio max|f| / mean f is null, not Infinity, when mean f is not
    positive, so stdout parses as strict JSON."""
    assert main(["morse", "check", "--f", spec, "--L", "8"]) == 1
    doc = json.loads(capsys.readouterr().out, parse_constant=_no_constant)
    assert (doc["ratio"] is None) == (not doc["conditions"]["positive_mean"])


def test_morse_check_degenerate_without_sym(capsys):
    assert main(["morse", "check", "--f", "2 - z^2"]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["morse_ok"] is False


def test_morse_check_symmetry_rescues(capsys):
    """The degenerate target is admissible through the rotation-invariant
    route: exit 0 despite not being Morse."""
    assert main(["morse", "check", "--f", "2 - z^2", "--sym", "rotation(z, 5)"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["morse_ok"] is False
    assert doc["symmetry"]["invariant_criteria"]["applies"] is True
    assert doc["symmetry"]["fixed_set_max_criteria"]["applies"] is True


def test_morse_check_symmetry_not_applying(capsys):
    assert main(["morse", "check", "--f", "2 - z^2", "--sym", "mirror(z)"]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["symmetry"]["invariant_criteria"]["applies"] is False


def test_morse_check_usage_errors(capsys):
    assert main(["morse", "check", "--f", "2 - q"]) == 64
    assert main(["morse", "check", "--f", "2 - z^2", "--sym", "twist(z)"]) == 64
    capsys.readouterr()
    for L in ("3", "86"):
        assert main(["morse", "check", "--f", "2 - z^2", "--L", L]) == 64
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.count("\n") == 1 and L in captured.err


@pytest.mark.parametrize("spec, keys", [(ELLIPSOID, MORSE_KEYS + ["k_system"]), ("2 - z^2", MORSE_KEYS)])
def test_morse_check_prints_check_conditions(capsys, spec, keys):
    """morse check prints the check_conditions document as it is, keys in
    order; a target that is not Morse has no k_system entry."""
    main(["morse", "check", "--f", spec])
    printed = json.loads(capsys.readouterr().out)
    doc = check_conditions(parse_f_spec(spec), make_grid(31))
    assert printed == json.loads(json.dumps(doc, default=cli._json_default))
    assert list(printed) == keys


def count_extrema_polishes(monkeypatch):
    """Targets of the two-seed newton_critical calls: extrema() polishes
    its lattice argmin and argmax in one such call."""
    calls = []
    newton_critical = PrescribedFunction.newton_critical

    def counted(self, seeds):
        if len(seeds) == 2:
            calls.append(self.source)
        return newton_critical(self, seeds)

    monkeypatch.setattr(PrescribedFunction, "newton_critical", counted)
    return calls


def test_morse_check_sym_polishes_extrema_once(capsys, monkeypatch):
    """check_conditions and check_symmetry both need max|f|."""
    calls = count_extrema_polishes(monkeypatch)
    assert main(["morse", "check", "--f", ELLIPSOID, "--sym", "mirror(z)"]) == 0
    assert calls == [ELLIPSOID]


def test_flow_run_with_morse_polishes_extrema_once(tmp_path, monkeypatch):
    """flow_bounds and check_conditions both need max|f|."""
    calls = count_extrema_polishes(monkeypatch)
    cfg = write_config(tmp_path / "exp.json", f_spec=ELLIPSOID, flow={"t_end": 0.05, "conv_tol": 1e-14},
                       checks=["identities", "morse"])
    assert main(["flow", "run", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
    assert calls == [ELLIPSOID]


def test_bubble_probe(capsys):
    assert main(["bubble", "probe", "--p", "0,0,1", "--eps", "0.3", "--L", "31"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["p"] == [0.0, 0.0, 1.0]
    assert abs(doc["peak_closed_form"] - np.sqrt(1.7 / 0.3)) < 1e-12
    # the grid max sits one node off the pole, a few percent under the peak
    assert doc["peak"] <= doc["peak_closed_form"] + 1e-12
    assert doc["peak"] > 0.95 * doc["peak_closed_form"]
    assert abs(doc["volume_err"]) < 1e-7
    assert doc["max_H_deviation"] < 1e-3
    b = 0.7
    want = (0.3 * 1.7) ** 2 / (4 * b) * (1 / 0.09 - 1 / (1 + b * b - 2 * b * np.cos(0.5)))
    assert abs(doc["cap_mass_closed_form"]["0.5"] - want) < 1e-12
    # grid route: band-limited density + off-center node, percent-level
    assert abs(doc["cap_mass_fraction"]["0.5"] - want) < 1e-2
    assert doc["Q"][2] > 0.999


def test_bubble_probe_usage_errors(capsys):
    assert main(["bubble", "probe", "--p", "0,0", "--eps", "0.3"]) == 64
    assert main(["bubble", "probe", "--p", "0,0,0", "--eps", "0.3"]) == 64
    assert main(["bubble", "probe", "--p", "0,0,1", "--eps", "1.5"]) == 64


@pytest.mark.parametrize("p", ["inf,0,0", "nan,0,1", "1e400,0,0"])
def test_bubble_probe_rejects_non_finite_center(capsys, p):
    """A center with a non-finite component exits 64 with one line, no traceback and no JSON."""
    assert main(["bubble", "probe", f"--p={p}", "--eps", "0.5", "--L", "16"]) == 64
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("bad probe arguments") and captured.err.count("\n") == 1
    assert "finite" in captured.err


def test_bubble_probe_overflowing_center_keeps_direction(capsys):
    """|p| of (1e308, 1e308, 0) overflows; the probe still reports the
    direction (1, 1, 0)/sqrt(2) and the same bubble as p = (1, 1, 0)."""
    assert main(["bubble", "probe", "--p=1,1,0", "--eps", "0.5", "--L", "16"]) == 0
    want = json.loads(capsys.readouterr().out)
    assert main(["bubble", "probe", "--p=1e308,1e308,0", "--eps", "0.5", "--L", "16"]) == 0
    got = json.loads(capsys.readouterr().out)
    assert np.abs(np.array(got["p"]) - [np.sqrt(0.5), np.sqrt(0.5), 0.0]).max() < 1e-15
    assert got == want


def test_flow_run_overflowing_bubble_center(tmp_path):
    """A u0 bubble at (1e308, 1e308, 0) runs the flow from the bubble at
    (1, 1, 0): its trajectory is byte-identical to that run's."""
    runs = {}
    for tag, p in (("unit", [1, 1, 0]), ("huge", [1e308, 1e308, 0])):
        cfg = write_config(tmp_path / f"{tag}.json", L=16, f_spec="2 + 0.5z",
                           u0_spec={"type": "bubble", "p": p, "eps": 0.6}, flow={"t_end": 0.3})
        assert main(["flow", "run", "--config", cfg, "--out", str(tmp_path / tag)]) == 0
        runs[tag] = (tmp_path / tag / "trajectory.csv").read_bytes()
    assert runs["huge"] == runs["unit"]


def test_flow_run_rejects_non_finite_bubble_center(tmp_path, capsys):
    """A u0 bubble at (Infinity, 0, 0) exits 64 with one line before any
    output is written, not 3 with a nan f-weighted volume."""
    cfg = tmp_path / "exp.json"
    cfg.write_text('{"L": 16, "f_spec": "2 + 0.5z", "u0_spec": {"type": "bubble", "p": [Infinity, 0, 0], "eps": 0.6}}')
    out = tmp_path / "out"
    assert main(["flow", "run", "--config", str(cfg), "--out", str(out)]) == 64
    assert not out.exists()
    err = capsys.readouterr().err
    assert err.startswith("config error") and err.count("\n") == 1
    assert "bubble center" in err and "finite" in err


@pytest.mark.parametrize("spec", ["1e400 + z", "2 + bump(nan;0,0,1)", "bump(1e200;0,0,1)", "1e308 x^2",
                                  "1e308 + 1e308 z", "2 + bump(-400;0,0,1)", "2 + bump(-300;0,0,1)",
                                  pytest.param("x^" + "9" * 400, id="x^<400 nines>"),
                                  pytest.param("legendre(" + "9" * 100 + ")", id="legendre(<100 nines>)")])
def test_non_finite_f_spec_exits_64(tmp_path, capsys, spec):
    """morse check and flow run reject a non-finite number in f, a term or
    a sum of terms whose bound on value and derivatives overflows, or a
    power or Legendre degree too large to evaluate, with exit 64 and a
    one-line message: no traceback, no NaN or Infinity in JSON, no
    admissibility verdict."""
    assert main(["morse", "check", "--f", spec]) == 64
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("bad f spec") and captured.err.count("\n") == 1
    cfg = write_config(tmp_path / "exp.json", f_spec=spec)
    out = tmp_path / "out"
    assert main(["flow", "run", "--config", cfg, "--out", str(out)]) == 64
    assert not out.exists()
    err = capsys.readouterr().err
    assert err.startswith("config error") and err.count("\n") == 1
    assert "Traceback" not in err


def test_negative_bump_with_finite_tangential_products_checked(capsys):
    """bump(-150) peaks at e^300 at the antipode; its tangential derivatives
    are at most 150 e^300, whose square (about 1e265) is finite, so it
    parses and morse check reports its maximum 2 + e^300 with no overflow
    (Tier-1 turns any RuntimeWarning of the package into an error)."""
    assert main(["morse", "check", "--f", "2 + bump(-150;0,0,1)", "--L", "8"]) == 1
    doc = json.loads(capsys.readouterr().out, parse_constant=_no_constant)
    assert doc["morse_ok"] is True and doc["warnings"] == []
    assert doc["f_absmax"] == 2.0 + np.exp(300.0)


@pytest.mark.parametrize("spec,plain", [("2 - 1e-3 z", "2 - 0.001 z"), ("1E-3x", "0.001x"), ("1e+2", "100")])
def test_f_spec_signed_exponent(capsys, spec, plain):
    """A coefficient in e-notation with a signed exponent is one number, not
    two terms: morse check prints byte for byte what the plain decimal gives."""
    code = main(["morse", "check", "--f", spec])
    got = capsys.readouterr()
    assert main(["morse", "check", "--f", plain]) == code
    want = capsys.readouterr()
    assert got.out == want.out and got.err == want.err == ""


def _package_installed():
    """Whether the distribution named in pyproject.toml is installed."""
    try:
        importlib.metadata.distribution("artifact")
    except importlib.metadata.PackageNotFoundError:
        return False
    return True


@pytest.mark.skipif(
    not _package_installed(),
    reason="the package (distribution 'artifact') is not installed",
)
def test_console_script_installed():
    exe = shutil.which("bmcflow")
    assert exe is not None
    proc = subprocess.run([exe, "selftest", "--quick"], capture_output=True, text=True)
    assert proc.returncode == 0
    assert "selftest: pass" in proc.stdout
