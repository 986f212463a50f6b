"""End-to-end tests of the command-line front end.

Validates:
- exit codes: 0 converged/horizon, 2 concentrating, 3 admissibility or
  scheme failure, 64 unparseable input, 1 for failed checks
- per-run artifacts (trajectory.csv, verdict.json, identities.json,
  morse.json) and the config echo
- byte-identical reruns of a seeded experiment
- morse check with and without symmetry specs
- bubble probe diagnostics against closed forms
- the selftest table, and its failure when the DtN is broken
"""

import dataclasses
import importlib.metadata
import json
import shutil
import subprocess

import numpy as np
import pytest

from bmcflow import cli, spectral
from bmcflow.cli import main
from bmcflow.flow import FlowConfig


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
    assert "dtn_exactness" in out
    assert "trace_inequality" in out


def test_selftest_negative_control(capsys, monkeypatch):
    monkeypatch.setattr(cli, "dtn_apply", lambda c: 1.01 * spectral.dtn_apply(c))
    assert main(["selftest", "--quick"]) == 1
    out = capsys.readouterr().out
    assert "FAIL dtn_exactness" in out


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
    assert doc["experiment"]["flow"]["dt_max"] == 0.01
    assert list(doc["experiment"]["flow"]) == [f.name for f in dataclasses.fields(FlowConfig)]


def test_flow_run_horizon_writes_identities(tmp_path):
    cfg = write_config(
        tmp_path / "exp.json",
        u0_spec={"type": "perturbation", "modes": [{"l": 2, "m": 1, "amp": 0.05}]},
        flow={"t_end": 0.1, "conv_tol": 1e-14},
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
    {"flow": {"dt0": -1.0}},
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
    pytest.param({"flow": {"cap_radii": []}}, id="no-cap-radius"),
    pytest.param({"flow": {"cap_radii": [4.0]}}, id="cap-radius-past-pi"),
    pytest.param({"flow": {"cap_radii": [0.0, 0.2]}}, id="zero-cap-radius"),
    pytest.param({"flow": {"tau": 1.5}}, id="tau-past-2^(1/n)"),
    pytest.param({"flow": {"tau": 0.0}}, id="zero-tau"),
    pytest.param({"sede": 3}, id="unknown-key"),
    pytest.param({"u0_spec": {"type": "constant", "valu": 2}}, id="unknown-u0-field"),
    pytest.param({"u0_spec": {"type": "bubble", "p": [0, 0, 1], "eps": 0.5, "value": 1}},
                 id="field-of-another-u0-type"),
    pytest.param({"checks": ["identites"]}, id="unknown-check"),
    pytest.param({"flow": {"tau": "x"}}, id="string-tau"),
    pytest.param({"u0_spec": "constant"}, id="u0_spec-not-an-object"),
    pytest.param({"flow": {"blowup_maxu": 0.0}}, id="zero-blowup-maxu"),
    pytest.param({"flow": {"p_list": [2, 4]}}, id="removed-p_list"),
    pytest.param({"flow": {"Lambda0": 10.0}}, id="removed-Lambda0"),
    pytest.param({"flow": {"vol_project": "no"}}, id="vol_project-string"),
    pytest.param({"flow": {"record_every": 2.5}}, id="fractional-record_every"),
    pytest.param({"flow": {"t_end": True}}, id="bool-t_end"),
])
def test_flow_run_rejects_before_writing(tmp_path, capsys, mutate):
    """Out-of-range or wrongly typed settings and unknown names exit 64
    with a one-line message, before the output directory exists; a bad
    flow setting is named in the message."""
    cfg = write_config(tmp_path / "exp.json", f_spec="2 - z^2", **mutate)
    out = tmp_path / "out"
    assert main(["flow", "run", "--config", cfg, "--out", str(out)]) == 64
    assert not out.exists()
    err = capsys.readouterr().err
    assert err.startswith("config error") and err.count("\n") == 1
    for name in mutate.get("flow", {}):
        assert f"{name} must" in err or f"'{name}'" in err


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

        def map(self, fn, items):
            return map(fn, items)

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
