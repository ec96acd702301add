"""Self-checks of the benchmark itself (not of framekit).

    python3 perfbench/selfcheck.py

1. The tracer wraps every public function of every layer module, under
   every name the package binds it to, and uninstall restores them all.
2. One short round of every workload, untraced and traced, emits exactly
   the metrics BENCHMARK.json names, as finite numbers, with every output
   check passing, and the exact counts the workloads are built on:
   3 solves and 2 builds per gabor job, and one 500-trial sample-mse job in
   every round of seven cli jobs.
3. run.py fails without printing a result in a directory that holds only
   BENCHMARK.json and the benchmark's files.

Takes about a minute; exits non-zero on the first failed check.
"""

import inspect
import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import run  # noqa: E402

run._single_blas_thread()

import framekit  # noqa: E402
import framekit.cli  # noqa: E402
from tracer import LAYERS, UNWRAPPED, Tracer  # noqa: E402
from workloads import WORKLOAD_NAMES  # noqa: E402

EXPECTED = {
    "gabor": {"hermitian.calls": 3.0, "hermitian.distinct_ratio": 1 / 3, "gabor.build_calls": 2.0,
              "gabor.build_distinct_ratio": 0.5},
    "cli": {"cli.nonzero_exits": 0.0, "sampling.trials_per_job": 500 / 7},
}


def check(cond, message):
    if not cond:
        raise SystemExit("selfcheck FAILED: " + message)
    print("ok  " + message)


def check_wrappers():
    tracer = Tracer()
    tracer.install()
    try:
        for layer in LAYERS:
            mod = sys.modules["framekit." + layer]
            for attr, obj in vars(mod).items():
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__ and not attr.startswith("_"):
                    wrapped = hasattr(obj, "perfbench_original")
                    check(wrapped != (attr in UNWRAPPED.get(layer, ())), "framekit.%s.%s wrapped=%s" % (layer, attr, wrapped))
        for module, attr in (
            (framekit.frames, "jacobi_eigh"),
            (framekit, "jacobi_eigh"),
            (framekit.gabor, "build_gabor_frame"),
            (framekit.sampling, "reconstruct"),
            (framekit.cli, "dumps_report"),
            (framekit.cli, "load_matrix"),
            (framekit, "canonical_dual"),
        ):
            check(hasattr(getattr(module, attr), "perfbench_original"), "%s.%s is patched" % (module.__name__, attr))
    finally:
        tracer.uninstall()
    left = [
        "%s.%s" % (name, attr)
        for name, mod in sys.modules.items()
        if name.startswith("framekit")
        for attr, obj in vars(mod).items()
        if hasattr(obj, "perfbench_original")
    ]
    check(not left, "uninstall restores every original (left: %s)" % left)


def check_metrics():
    spec = run._spec()
    for workload in WORKLOAD_NAMES:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            code, printed, _ = run.result(workload, 1, 0.0, trace, min_jobs=1)
            names = [m["name"] for m in spec[key]]
            metrics = printed["metrics"]
            where = "%s trace %d" % (workload, trace)
            check(code == 0 and printed["correct"] and printed["failed"] == 0, "%s: every output check passes" % where)
            check(list(metrics) == names, "%s: emits exactly the %d %s metrics" % (where, len(names), key))
            check(all(math.isfinite(m["value"]) for m in metrics.values()), "%s: every value is finite" % where)
            if trace:
                for name, want in EXPECTED[workload].items():
                    got = metrics[name]["value"]
                    check(abs(got - want) < 1e-12, "%s: %s = %r (expected %r)" % (where, name, got, want))
            json.dumps(printed)


def check_bare_directory():
    bare = os.path.join(run.OUT, "bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"), ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "gabor", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180,
    )
    shutil.rmtree(bare)
    printed = [line for line in proc.stdout.splitlines() if line.startswith("{")]
    check(proc.returncode != 0 and not printed, "bare directory: exit %d and no result line" % proc.returncode)


if __name__ == "__main__":
    check_wrappers()
    check_metrics()
    check_bare_directory()
    print("selfcheck passed")
