"""bmcflow benchmark: time to verdict for the curvature flow and for recentering.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload converge-L31 --seed 1 --seconds 30 --trace 0

Workloads (inputs, operations and oracles are in perfbench/workloads.py):
  converge-L31   flow run to a converged solution at L = 31
  bubble-L63     flow run of a bubble on an obstructed target at L = 63
  recenter-L31   normalize + bubble probe + two morse checks at L = 31

The run imports bmcflow from src/ of the checkout, warms the
interpreter up, then runs operations in one process, cycling through
the seeded inputs, until --seconds have passed (every input runs at
least once).  With --trace 0, set-up on fresh objects is repeated for
SETUP_CHUNK_S before each operation.  Each
operation's outputs are checked; an operation fails if it raises or an
oracle rejects its output.

--trace 0 reports the end-to-end metrics.  Times are corrected for CPU
contention from outside the process (perfbench/contention.py); the raw
medians are printed next to them.  --trace 1 first runs one untraced
operation, then traces whole cycles of operations and reports per-layer
metrics per operation; only the tracing overhead is corrected.  The last line of stdout is one
JSON object: correct, attempted, failed, metrics.  The run record and
the spans of a traced run are written to .perfbench-out/ in the
checkout.
"""

import argparse
import functools
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"
NPROC = os.cpu_count() or 1
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

MIN_OPS = 3            # timed operations per run, at least
SETUP_CHUNK_S = 0.2    # before each operation, repeat set-up until this much time is spent
TABLE_PROBES = 5        # fresh grids timed for spectral.make_grid.s and spectral.tables.s


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def source_fingerprint():
    """Git revision when the checkout is a repository, and a hash of src/ always."""
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    rev = None
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        rev = head.read_text().strip()
        if rev.startswith("ref: "):
            ref_file = ROOT / ".git" / rev[5:]
            rev = ref_file.read_text().strip() if ref_file.is_file() else rev[5:]
    return rev, digest.hexdigest()[:16]


def run_record(args, work):
    import numpy as np
    import scipy
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    rev, src_hash = source_fingerprint()
    return {
        "workload": work.name,
        "why": work.why,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": NPROC,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '')}".strip(),
        "blas_threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "git_revision": rev,
        "src_sha256": src_hash,
    }


def setup_chunk(wl, work, inputs, probe, setups):
    """Repeat set-up on fresh objects for SETUP_CHUNK_S (at least once).

    Appends (net seconds, slowdown) per repetition to `setups`, with the
    slowdown measured by the probe over the whole chunk: a chunk of
    repetitions gets enough probe samples, and chunks spread over the
    run see the same contention as the operations.
    """
    from contention import slowdown
    nets, samples = [], []
    start = time.perf_counter()
    while not nets or time.perf_counter() - start < SETUP_CHUNK_S:
        _, _, net, window = probe.timed(wl.setup_once, work, inputs[(len(setups) + len(nets)) % len(inputs)])
        nets.append(net)
        samples += window
    setups += [(net, slowdown(samples)) for net in nets]


def one_op(wl, work, inp, timed, results):
    """Run one operation in a fresh directory; append (input, raw wall, net wall, probe samples, outcome)."""
    workdir = tempfile.mkdtemp(dir=OUT)
    try:
        (wall, net, window), outcome = wl.run_op(work, inp, workdir, timed)
    except Exception:
        traceback.print_exc(file=sys.stderr)
        wall, net, window, outcome = float("nan"), float("nan"), [], wl.Outcome(failures=["raised"])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for msg in outcome.failures:
        print(f"FAILED {work.name} op {len(results)}: {msg}", file=sys.stderr)
    results.append((inp, wall, net, window, outcome))


def run_ops(wl, work, inputs, seconds, timed, results, whole_cycles=False, before=None, after=None):
    """Run operations cycling through inputs until `seconds` would be exceeded.

    Every input runs at least once and at least MIN_OPS operations run
    (with whole_cycles, only complete cycles of inputs are run).  A new
    operation (or cycle) starts only if it is expected to end in time.
    """
    start = time.perf_counter()
    n = len(inputs)
    i = 0
    while True:
        if before:
            before()
        one_op(wl, work, inputs[i % n], timed, results)
        if after:
            after()
        i += 1
        if i < n or (whole_cycles and i % n) or (not whole_cycles and i < MIN_OPS):
            continue
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / i * (n if whole_cycles else 1) > seconds:
            return


def e2e_metrics(results, setups):
    from contention import corrected, slowdown
    ok = [r for r in results if r[1] == r[1]]
    first = {}
    for inp, *_, outcome in results:
        first.setdefault(id(inp), outcome)
    errs = [o.identity_err for o in first.values() if o.identity_err == o.identity_err]
    metrics = {
        "wall_s": {"value": statistics.median(corrected(r[2], r[3]) for r in ok) if ok else 0.0, "unit": "s"},
        "setup_s": {"value": statistics.median(net / slow for net, slow in setups), "unit": "s"},
        "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "unit": "MB"},
        # mean over the run's distinct inputs; deterministic for a given seed
        "identity_err": {"value": statistics.fmean(errs) if errs else 0.0, "unit": "1"},
    }
    raw = {
        "wall_s": statistics.median(r[1] for r in ok) if ok else None,
        "setup_s": statistics.median(net for net, _ in setups),
        "setup_reps": len(setups),
        "slowdown_ops": statistics.median(slowdown(r[3]) for r in ok) if ok else None,
        "slowdown_setup": statistics.median(slow for _, slow in setups),
    }
    return metrics, raw


def watch_ef_steps():
    """Rebind flow.step so that each step appends its change of E_f to the returned list.

    trajectory.csv holds a row every record_every steps only, so a rise
    of E_f between rows would not show in the outputs.
    """
    from bmcflow import flow
    original, rises = flow.step, []

    @functools.wraps(original)
    def step(state, config):
        before = state.energy_report.E_f
        result = original(state, config)
        rises.append(state.energy_report.E_f - before)
        return result

    flow.step = step
    return rises


def layer_metrics(tracer, results, grid_s, tables_s, overhead_s, ef_steps):
    """Per-operation averages of the traced spans, plus values read from the outputs."""
    import numpy as np
    from tracing import LAYER_METRICS
    agg = tracer.summarize()
    calls, total, self_s = agg["calls"], agg["total"], agg["self"]
    per = 1.0 / len(results)
    steps = calls["flow.step"]
    transform_self = self_s["spectral.analyze"] + self_s["spectral.synthesize"]
    outcomes = [r[-1] for r in results]
    dts = [o.dt for o in outcomes if o.dt is not None and len(o.dt)]
    m = {
        # analyze + synthesize inside flow.run (steps and recorded rows) per step
        "spectral.transforms_per_step": agg["transforms_in_run"] / steps if steps else 0.0,
        "spectral.transform.gflop_s": agg["flops"] / transform_self / 1e9 if transform_self else 0.0,
        "spectral.make_grid.s": grid_s,
        "spectral.tables.s": tables_s,
        "flow.steps": steps * per,
        "flow.step.ms_per_call": 1e3 * total["flow.step"] / steps if steps else 0.0,
        "flow.dt.median": float(np.median(np.concatenate(dts))) if dts else 0.0,
        "flow.dt.min": float(min(d.min() for d in dts)) if dts else 0.0,
        "flow.record.s": (total["flow.run"] - total["flow.step"]) * per,
        # largest change of E_f over one step (every step, not only recorded rows)
        "flow.ef_max_rise": max(ef_steps, default=0.0),
        "morse.points": sum(o.morse_points for o in outcomes) * per,
        # the cli layer: main and the subcommand handlers it dispatches to
        "cli.main.self_s": sum(v for k, v in self_s.items() if k.startswith("cli.")) * per,
        "cli.output_bytes": sum(o.output_bytes for o in outcomes) * per,
        "trace.overhead_s": overhead_s,
    }
    for name in LAYER_METRICS:
        if name not in m:
            span, kind = name.rsplit(".", 1)
            m[name] = {"calls": calls, "self_s": self_s, "s": total}[kind][span] * per
    return {name: {"value": float(m[name]), "unit": unit} for name, unit in LAYER_METRICS.items()}


def print_split(metrics, wall_s):
    """Where the time of a traced operation goes, for checking the design split."""
    v = {k: d["value"] for k, d in metrics.items()}
    transforms = v["spectral.analyze.self_s"] + v["spectral.synthesize.self_s"]
    step = v["flow.step.ms_per_call"] * v["flow.steps"] / 1e3
    print(f"split: grid transforms {transforms:.3f} s, synth_at {v['spectral.synth_at.self_s']:.3f} s, "
          f"flow.record {v['flow.record.s']:.3f} s, flow.step {step:.3f} s "
          f"of a traced operation of {wall_s:.3f} s")


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "bmcflow" / "__init__.py").is_file():
        print(f"no bmcflow sources under {SRC}; run from the root of a checkout", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("--seconds must be positive", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = str(min(int(os.environ.get(var) or NPROC), NPROC))
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import warnings
    import workloads as wl
    from contention import ContentionProbe, corrected

    if args.workload not in wl.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {sorted(wl.WORKLOADS)}", file=sys.stderr)
        return 2
    work = wl.WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)
    record = run_record(args, work)
    inputs = wl.make_inputs(work, args.seed)
    # unresolved-bubble warnings of the small warm-up grid
    warnings.simplefilter("ignore", RuntimeWarning)

    warm = tempfile.mkdtemp(dir=OUT)
    try:
        wl.warm_up(warm)
    finally:
        shutil.rmtree(warm, ignore_errors=True)

    results = []
    ef_steps = watch_ef_steps()
    probe = ContentionProbe()
    if args.trace:
        from tracing import Tracer
        grid_s, tables_s = (statistics.median(v) for v in zip(*(wl.table_probe(work.L)
                                                                 for _ in range(TABLE_PROBES))))
        tracer = Tracer()
        ops = []
        # the probe's own time is a span of its own, so no layer's self time includes it
        probe.start(wrap=lambda handler: tracer.span("contention.probe", handler))
        try:
            one_op(wl, work, inputs[0], probe.timed, results)
            untraced = results.pop()
            tracer.install()
            try:
                run_ops(wl, work, inputs, args.seconds, probe.timed, results, whole_cycles=True,
                        before=lambda: ops.append(tracer.begin("op")),
                        after=lambda: tracer.end(ops[-1]))
            finally:
                tracer.uninstall()
        finally:
            probe.stop()
        traced = [corrected(r[2], r[3]) for r in results if r[0] is inputs[0]]
        overhead = statistics.median(traced) - corrected(untraced[2], untraced[3])
        metrics = layer_metrics(tracer, results, grid_s, tables_s, overhead, ef_steps)
        trace_path = OUT / f"trace-{work.name}-seed{args.seed}.json.gz"
        tracer.write(trace_path)
        record["trace_file"] = str(trace_path.relative_to(ROOT))
        record["spans"] = len(tracer.spans)
        print_split(metrics, statistics.median(r[1] for r in results))
    else:
        setups = []
        probe.start()
        try:
            run_ops(wl, work, inputs, args.seconds, probe.timed, results,
                    before=lambda: setup_chunk(wl, work, inputs, probe, setups))
        finally:
            probe.stop()
        metrics, record["raw"] = e2e_metrics(results, setups)
        outcomes = [r[-1] for r in results]
        dts = [d for o in outcomes if o.dt is not None for d in o.dt]
        if dts:
            record["numerics"] = {"flow.ef_max_rise": max(ef_steps, default=0.0),
                                  "flow.dt.min": min(dts), "flow.dt.median": statistics.median(dts)}

    failed = sum(1 for r in results if r[-1].failures)
    record["wall_s_per_op"] = [r[1] for r in results]
    record["error_rate"] = failed / len(results)
    with open(OUT / f"record-{work.name}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump(record, fh, indent=1)
    print("run record: " + json.dumps(record))
    for name, d in metrics.items():
        print(f"{work.name} {name} = {d['value']:.6g} {d['unit']}")
    if "raw" in record:
        raw = record["raw"]
        print(f"{work.name} uncorrected: wall_s = {raw['wall_s']:.6g} s, setup_s = {raw['setup_s']:.6g} s, "
              f"contention slowdown {raw['slowdown_ops']:.3f} (ops), {raw['slowdown_setup']:.3f} (set-up)")
    print(f"{work.name} error_rate = {failed}/{len(results)} = {failed / len(results):g}")
    print(json.dumps({"correct": failed == 0, "attempted": len(results), "failed": failed,
                      "metrics": metrics}, allow_nan=False))
    return 0


if __name__ == "__main__":
    sys.exit(main())
