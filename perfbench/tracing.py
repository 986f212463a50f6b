"""In-memory span tracing of the bmcflow layers, applied from outside the package.

`Tracer.install()` wraps every public module-level function of the layer
modules, plus the public methods of `prescribed.PrescribedFunction`, and
rebinds the wrapper in every bmcflow module that imported the original
by name (`synthesize` is bound in spectral, curvature, conformal and the
package root, so wrapping one binding would miss callers).  Each call
appends a span [name, start, end, parent]; `uninstall()` restores the
originals.  Nothing under src/ is modified.
"""

import gzip
import json
import time
from collections import defaultdict

import numpy as np

LAYERS = ("spectral", "prescribed", "curvature", "conformal", "flow", "morse", "cli")

# Per-layer metrics reported by a traced run, with their units.
LAYER_METRICS = {
    "spectral.analyze.calls": "count",
    "spectral.analyze.self_s": "s",
    "spectral.synthesize.calls": "count",
    "spectral.synthesize.self_s": "s",
    "spectral.transforms_per_step": "count",
    "spectral.transform.gflop_s": "GFLOP/s",
    "spectral.synth_at.calls": "count",
    "spectral.synth_at.self_s": "s",
    "spectral.make_grid.s": "s",
    "spectral.tables.s": "s",
    "flow.steps": "count",
    "flow.step.self_s": "s",
    "flow.step.ms_per_call": "ms",
    "flow.dt.median": "1",
    "flow.dt.min": "1",
    "flow.record.s": "s",
    "flow.init_state.s": "s",
    "flow.ef_max_rise": "1",
    "conformal.concentration_check.calls": "count",
    "conformal.concentration_check.self_s": "s",
    "conformal.center_of_mass.self_s": "s",
    "conformal.pullback_normalized.calls": "count",
    "conformal.normalize.s": "s",
    "curvature.lambda_prime.self_s": "s",
    "curvature.lp_residual.self_s": "s",
    "curvature.f2_norm.self_s": "s",
    "curvature.volume.self_s": "s",
    "curvature.mean_curvature.calls": "count",
    "curvature.mean_curvature.self_s": "s",
    "curvature.energy_functional.self_s": "s",
    "curvature.flow_bounds.s": "s",
    "prescribed.__call__.calls": "count",
    "prescribed.grad_sphere.calls": "count",
    "prescribed.tangent_hessian.calls": "count",
    "prescribed.extrema.s": "s",
    "morse.find_critical_points.calls": "count",
    "morse.find_critical_points.self_s": "s",
    "morse.points": "count",
    "cli.main.self_s": "s",
    "cli.output_bytes": "B",
    "trace.overhead_s": "s",
}


def transform_flops(L):
    """Flop count of one analyze or synthesize at degree L, computed from array shapes.

    Legendre stage: one matvec of shape (L+1, L+1) for m = 0 and two of
    shape (L+1, L+1-m) for each m >= 1, at 2 flops per multiply-add.
    Longitude stage: one real FFT of length 2L+2 per latitude, counted
    as 2.5 N log2 N.
    """
    n_lat, n_lon = L + 1, 2 * L + 2
    legendre = 2 * n_lat * (L + 1) + 4 * n_lat * (L * (L + 1) // 2)
    fft = n_lat * 2.5 * n_lon * np.log2(n_lon)
    return legendre + fft


class Tracer:
    """Spans are lists [name, start, end, parent span or None, degree].

    A span refers to its parent by object, not by position: a signal
    handler that is itself traced can append a span at any moment.
    """

    def __init__(self):
        self.spans = []
        self._stack = []
        self._patches = []     # (owner, attribute, original)

    def span(self, name, fn, degree_arg=None):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            degree = args[degree_arg].L if degree_arg is not None else 0
            entry = [name, clock(), 0.0, stack[-1] if stack else None, degree]
            spans.append(entry)
            stack.append(entry)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                entry[2] = clock()

        traced.__wrapped__ = fn
        return traced

    def begin(self, name):
        """Open a span around benchmark code (an operation); returns it."""
        entry = [name, time.perf_counter(), 0.0, self._stack[-1] if self._stack else None, 0]
        self.spans.append(entry)
        self._stack.append(entry)
        return entry

    def end(self, entry):
        self._stack.pop()
        entry[2] = time.perf_counter()

    def _parents(self):
        """Position of each span's parent in self.spans (-1 for none); parents come first."""
        pos = {id(s): i for i, s in enumerate(self.spans)}
        return [-1 if s[3] is None else pos[id(s[3])] for s in self.spans]

    def install(self):
        import importlib
        import bmcflow
        modules = [importlib.import_module(f"bmcflow.{name}") for name in LAYERS]
        namespaces = [bmcflow] + modules
        for mod, layer in zip(modules, LAYERS):
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or not callable(obj) or isinstance(obj, type):
                    continue
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                degree_arg = 1 if (layer, attr) in (("spectral", "analyze"), ("spectral", "synthesize")) else None
                wrapped = self.span(f"{layer}.{attr}", obj, degree_arg)
                for ns in namespaces:
                    for bound_name, bound in list(vars(ns).items()):
                        if bound is obj:
                            self._patch(ns, bound_name, wrapped)
        cls = modules[LAYERS.index("prescribed")].PrescribedFunction
        for attr, obj in list(vars(cls).items()):
            if callable(obj) and (attr == "__call__" or not attr.startswith("_")):
                self._patch(cls, attr, self.span(f"prescribed.{attr}", obj))

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def write(self, path):
        """Write all spans as gzipped JSON: names once, then rows of indices and times."""
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        rows = [[index[n], round(t0, 9), round(t1, 9), parent, degree]
                for (n, t0, t1, _, degree), parent in zip(self.spans, self._parents())]
        doc = {"columns": ["name", "start", "end", "parent", "degree"], "names": names, "spans": rows}
        with gzip.open(path, "wt") as fh:
            json.dump(doc, fh, separators=(",", ":"))

    def summarize(self):
        """Totals per span name over everything recorded: calls, inclusive and self seconds.

        Also returns the number of transforms whose call chain passes
        through flow.run (steps and recorded rows), and the computed flops
        of all transforms.
        """
        spans = self.spans
        child = np.zeros(len(spans))
        in_run = np.zeros(len(spans), dtype=bool)
        for i, ((name, t0, t1, _, _), parent) in enumerate(zip(spans, self._parents())):
            if parent >= 0:
                child[parent] += t1 - t0
                in_run[i] = in_run[parent]
            in_run[i] |= name == "flow.run"
        calls = defaultdict(int)
        total = defaultdict(float)
        self_s = defaultdict(float)
        transforms_in_run = 0
        flops = 0.0
        for i, (name, t0, t1, _, degree) in enumerate(spans):
            calls[name] += 1
            total[name] += t1 - t0
            self_s[name] += t1 - t0 - child[i]
            if degree:
                flops += transform_flops(degree)
                transforms_in_run += bool(in_run[i])
        return {"calls": calls, "total": total, "self": self_s,
                "transforms_in_run": transforms_in_run, "flops": flops}
