"""Span tracer that wraps framekit's public functions from outside the package.

Each wrapped function records one span (name, start, end, parent span, job
id) in flat in-memory arrays.  A wrapper replaces every module attribute
that is bound to the original function, including names imported with
``from .x import y``, so calls made inside the package are traced too.
Nothing under ``src/`` is modified; ``uninstall`` puts the originals back.

Count observers run after a span has closed, so the hashing and size
arithmetic they do is not charged to the span.
"""

import functools
import importlib
import inspect
import os
import sys
import time
from array import array

import numpy as np

from workloads import _digest

LAYERS = ("hermitian", "frames", "gabor", "sampling", "serialization", "cli")

# Per-element helpers run once per matrix entry (up to 10^5 times per
# report); spans there would measure the tracer, so their time stays in the
# caller's span.
UNWRAPPED = {
    "serialization": {"format_float", "format_complex", "parse_complex"},
}

PARSE_FUNCS = ("load_matrix", "load_vector", "load_json", "matrix_from_json", "matrix_from_csv_text")
EMIT_FUNCS = ("dumps_report", "matrix_csv_text", "matrix_to_json")
# The frame operations the workloads reach: gabor-check and the cli verbs.
FRAME_OPS = ("frame_bounds", "canonical_dual", "tighten")

JOB = "job"


def _observe_solve(tracer, outer, args, kwargs, result):
    mat = np.asarray(args[0])
    tracer.record("solve_n", mat.shape[0])
    tracer.record("solve_key", _digest(mat))


def _observe_gram(tracer, outer, args, kwargs, result):
    k, n = args[0].analysis.shape
    tracer.record("gram_flop", 8 * k * n * n)


def _observe_build(tracer, outer, args, kwargs, result):
    proto, params = args[0], args[1]
    tracer.record("build_key", _digest(np.asarray(proto), params))
    tracer.record("build_bytes", result.analysis.nbytes)


def _observe_trials(tracer, outer, args, kwargs, result):
    tracer.record("trials", result.trials)


def _observe_parse(tracer, outer, args, kwargs, result):
    if outer:
        tracer.record("bytes_in", os.path.getsize(args[0]))


def _observe_emit(tracer, outer, args, kwargs, result):
    if outer and isinstance(result, str):
        tracer.record("bytes_out", len(result.encode("utf-8")))


def _observe_exit(tracer, outer, args, kwargs, result):
    if result != 0:
        tracer.record("nonzero_exit", 1)


OBSERVERS = {
    "hermitian.jacobi_eigh": _observe_solve,
    "frames.frame_operator": _observe_gram,
    "gabor.build_gabor_frame": _observe_build,
    "sampling.monte_carlo_mse": _observe_trials,
    "cli.run": _observe_exit,
}
OBSERVERS.update({"serialization." + f: _observe_parse for f in ("load_matrix", "load_vector", "load_json")})
OBSERVERS.update({"serialization." + f: _observe_emit for f in ("dumps_report", "matrix_csv_text")})


class Tracer:
    """Spans and boundary counts of one traced pass."""

    def __init__(self):
        self.names = [JOB]
        self.layers = [JOB]
        self._ids = {JOB: 0}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.job = array("i")
        self.stack = []
        self.job_id = -1
        self.counts = {}
        self.solver_errors = 0
        self._patches = []
        self._wrappers = {}

    # -- recording ---------------------------------------------------------

    def _open(self, name_id):
        idx = len(self.start)
        self.name.append(name_id)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.job.append(self.job_id)
        self.end.append(0.0)
        self.stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx):
        self.end[idx] = time.perf_counter()
        self.stack.pop()

    def record(self, kind, value):
        self.counts.setdefault(kind, []).append((self.job_id, value))

    def _inside(self, layer):
        return bool(self.stack) and self.layers[self.name[self.stack[-1]]] == layer

    def job_span(self, job_id, fn, *args):
        """Run fn(*args) as job ``job_id``; returns its result."""
        self.job_id = job_id
        idx = self._open(0)
        try:
            return fn(*args)
        finally:
            self._close(idx)

    # -- wrapping ----------------------------------------------------------

    def _wrapper(self, fn, qualname, layer):
        if qualname in self._wrappers:
            return self._wrappers[qualname]
        name_id = len(self.names)
        self.names.append(qualname)
        self.layers.append(layer)
        self._ids[qualname] = name_id
        observe = OBSERVERS.get(qualname)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            outer = not tracer._inside(layer)
            idx = tracer._open(name_id)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer._close(idx)
                if layer == "hermitian":
                    tracer.solver_errors += 1
                raise
            tracer._close(idx)
            if observe is not None:
                observe(tracer, outer, args, kwargs, result)
            return result

        traced.perfbench_original = fn
        self._wrappers[qualname] = traced
        return traced

    def install(self):
        """Patch every framekit module attribute bound to a public layer function."""
        modules = [m for n, m in sys.modules.items() if n == "framekit" or n.startswith("framekit.")]
        for layer in LAYERS:
            mod = importlib.import_module("framekit." + layer)
            for attr, obj in sorted(vars(mod).items()):
                if (
                    attr.startswith("_")
                    or not inspect.isfunction(obj)
                    or hasattr(obj, "perfbench_original")
                    or obj.__module__ != mod.__name__
                    or attr in UNWRAPPED.get(layer, ())
                ):
                    continue
                traced = self._wrapper(obj, "%s.%s" % (layer, attr), layer)
                for target in modules:
                    for tattr, tobj in list(vars(target).items()):
                        if tobj is obj:
                            setattr(target, tattr, traced)
                            self._patches.append((target, tattr, obj))

    def uninstall(self):
        for target, attr, original in reversed(self._patches):
            setattr(target, attr, original)
        self._patches = []

    # -- export ------------------------------------------------------------

    def arrays(self):
        return {
            "name": np.frombuffer(self.name, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "job": np.frombuffer(self.job, dtype=np.int32).copy(),
        }

    def save(self, path):
        """Write every span (and the name table) as one compressed .npz."""
        np.savez_compressed(path, names=np.array(self.names), layers=np.array(self.layers), **self.arrays())

    def layer_metrics(self):
        """Per-layer figures of this pass, keyed by BENCHMARK.json names."""
        a = self.arrays()
        name, parent = a["name"], a["parent"]
        dur = a["end"] - a["start"]
        n = dur.shape[0]
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=n)
        self_time = dur - child
        layer_ids = {layer: i for i, layer in enumerate(sorted(set(self.layers)))}
        name_layer = np.array([layer_ids[layer] for layer in self.layers])
        span_layer = name_layer[name] if n else np.zeros(0, dtype=int)
        parent_layer = np.where(has_parent, span_layer[np.maximum(parent, 0)], -1)
        outermost = span_layer != parent_layer
        parent_name = np.where(has_parent, name[np.maximum(parent, 0)], -1)

        def ids(qualname):
            return self._ids.get(qualname, -1)

        def fn_time(qualname):
            return float(dur[name == ids(qualname)].sum())

        def fn_count(qualname):
            return int(np.count_nonzero(name == ids(qualname)))

        def layer_time(layer):
            return float(dur[(span_layer == layer_ids.get(layer, -1)) & outermost].sum())

        def layer_self(layer):
            return float(self_time[span_layer == layer_ids.get(layer, -1)].sum())

        def group_time(layer, funcs):
            mask = np.isin(name, [ids("%s.%s" % (layer, f)) for f in funcs])
            return float(dur[mask & outermost].sum())

        def total(kind):
            return sum(v for _, v in self.counts.get(kind, ()))

        def distinct(kind):
            return len(set(self.counts.get(kind, ())))

        job_times = dur[name == 0]
        jobs = max(int(job_times.shape[0]), 1)
        job_total = float(job_times.sum())
        solves = fn_count("hermitian.jacobi_eigh")
        solve_time = fn_time("hermitian.jacobi_eigh")
        n3 = sum(v**3 for _, v in self.counts.get("solve_n", ()))
        builds = fn_count("gabor.build_gabor_frame")
        trials = total("trials")
        mc_time = fn_time("sampling.monte_carlo_mse")
        recon_in_mc = dur[(name == ids("sampling.reconstruct")) & (parent_name == ids("sampling.monte_carlo_mse"))]
        parse_s = group_time("serialization", PARSE_FUNCS)
        emit_s = group_time("serialization", EMIT_FUNCS)
        bytes_in = total("bytes_in")
        bytes_out = total("bytes_out")

        out = {
            "hermitian.calls": solves / jobs,
            "hermitian.distinct_ratio": distinct("solve_key") / solves if solves else 0.0,
            "hermitian.ms_per_job": 1e3 * layer_time("hermitian") / jobs,
            "hermitian.share": layer_time("hermitian") / job_total if job_total else 0.0,
            "hermitian.n3_per_job": n3 / jobs,
            "hermitian.ns_per_n3": 1e9 * solve_time / n3 if n3 else 0.0,
            "hermitian.errors": self.solver_errors,
            "frames.gram_calls": fn_count("frames.frame_operator") / jobs,
            "frames.gram_gflop": total("gram_flop") / 1e9 / jobs,
            "frames.self_ms_per_job": 1e3 * layer_self("frames") / jobs,
            "gabor.build_calls": builds / jobs,
            "gabor.build_distinct_ratio": distinct("build_key") / builds if builds else 0.0,
            "gabor.build_ms_per_job": 1e3 * fn_time("gabor.build_gabor_frame") / jobs,
            "gabor.mb_built": total("build_bytes") / 1e6 / jobs,
            "gabor.dual_self_ms": 1e3 * float(self_time[name == ids("gabor.gabor_dual_prototype")].sum()) / jobs,
            "gabor.verify_ms": 1e3 * fn_time("gabor.verify_wh_structure") / jobs,
            "sampling.trials_per_job": trials / jobs,
            "sampling.us_per_trial": 1e6 * mc_time / trials if trials else 0.0,
            "sampling.reconstruct_share": float(recon_in_mc.sum()) / mc_time if mc_time else 0.0,
            "sampling.analytic_ms": 1e3 * fn_time("sampling.analytic_mse") / jobs,
            "serialization.parse_ms": 1e3 * parse_s / jobs,
            "serialization.parse_mb_per_s": bytes_in / 1e6 / parse_s if parse_s else 0.0,
            "serialization.emit_ms": 1e3 * emit_s / jobs,
            "serialization.emit_mb_per_s": bytes_out / 1e6 / emit_s if emit_s else 0.0,
            "serialization.bytes_in": bytes_in / jobs,
            "serialization.bytes_out": bytes_out / jobs,
            "cli.run_self_ms": 1e3 * layer_self("cli") / jobs,
            "cli.nonzero_exits": total("nonzero_exit"),
        }
        for op in FRAME_OPS:
            out["frames.%s.ms" % op] = 1e3 * fn_time("frames." + op) / jobs
        return out
