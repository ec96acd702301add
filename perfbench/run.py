"""framekit benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload gabor --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``.  One caller runs jobs in a closed loop (the next job starts when
the previous one returns), whole rounds at a time, for at least --seconds
and at least MIN_JOBS jobs.  Every job's output is checked outside its
timed span.  --trace 0 prints the end-to-end metrics of BENCHMARK.json;
--trace 1 runs every round twice, untraced and traced, and prints the
per-layer metrics.  The last stdout line is the JSON result; a full record
goes to perfbench/out/.  Exit code 0 only when every check passed.
"""

import argparse
import json
import os
import pickle
import platform
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

# Ten jobs beyond p90 need at least 100; 110 keeps a margin for ties.
MIN_JOBS = 110
SETUP_SAMPLES = 11
IMPORT_SAMPLES = 5
HARD_LIMIT_S = 120.0
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _single_blas_thread():
    """One BLAS thread in this process and its children; set before numpy loads."""
    for var in BLAS_VARS:
        os.environ[var] = "1"


def _git_sha():
    """HEAD of the checkout, or None when it is not a git checkout."""
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def _quartiles(values):
    if len(values) < 2:
        v = float(values[0]) if values else float("nan")
        return v, v
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def _percentile(values, pct):
    import numpy as np

    return float(np.percentile(np.asarray(values), pct))


def _timed_setup(name, seed):
    """Import framekit, then one warm-up job; input generation is not counted."""
    t0 = time.perf_counter()
    import framekit  # noqa: F401  (the import is what is being timed)

    import workloads

    imported = time.perf_counter() - t0
    import numpy as np

    wl = workloads.make_workload(name, ROOT, OUT)
    job = wl.warmup(np.random.default_rng([seed, 0]))
    t1 = time.perf_counter()
    out = wl.run(job)
    warm = time.perf_counter() - t1
    return wl, job, out, imported + warm


def _child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _child(argv):
    """Run this interpreter on argv from the checkout root; returns its stdout."""
    proc = subprocess.run(
        [sys.executable] + argv, cwd=ROOT, env=_child_env(), capture_output=True, text=True, timeout=60
    )
    if proc.returncode != 0:
        raise RuntimeError("child %r failed: %s" % (argv, proc.stderr[-500:]))
    return proc.stdout


def _probe(name, seed, kind, *extra):
    """One fresh interpreter in --probe mode; returns the number it prints."""
    argv = [os.path.join(HERE, "run.py"), "--probe", kind, "--workload", name, "--seed", str(seed)] + list(extra)
    return float(_child(argv).strip().splitlines()[-1])


def _peak_rss_kb(name, seed, batch):
    """ru_maxrss of a fresh interpreter that runs ``batch`` and nothing else.

    The jobs come pickled from this process, so neither input generation
    nor the output checks raise the child's high-water mark.
    """
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, "%s-seed%d-jobs.pkl" % (name, seed))
    with open(path, "wb") as handle:
        pickle.dump(batch, handle)
    return _probe(name, seed, "memory", "--jobs", path)


def _import_ms():
    code = "import time; t = time.perf_counter(); import framekit.cli; print(time.perf_counter() - t)"
    return statistics.median(1e3 * float(_child(["-c", code])) for _ in range(IMPORT_SAMPLES))


class Run:
    """Jobs attempted, their times and the failures of one run."""

    def __init__(self, seed):
        self.seed = seed
        self.times = []
        self.rss_kb = []
        self.round_rates = []
        self.failures = []
        self.attempted = 0

    def fail(self, where, message):
        self.failures.append("%s: %s" % (where, message))


def _job(wl, job, run_fn, record, where):
    """One timed job, then its untimed check; returns (output, wall s, CPU s)."""
    record.attempted += 1
    cpu0 = time.process_time()
    t0 = time.perf_counter()
    try:
        out = run_fn(job)
    except Exception as exc:  # a failing job is counted, not fatal
        out = None
        message = "raised %r" % (exc,)
    dt = time.perf_counter() - t0
    cpu = time.process_time() - cpu0
    if out is not None:
        message = wl.check(job, out)
    if message:
        record.fail(where, message)
        out = None
    return out, dt, cpu


def _rounds(seconds, min_jobs, record):
    """Round indices until both the time and the job-count floor are met."""
    import numpy as np

    start = time.perf_counter()
    r = 0
    while True:
        yield r, np.random.default_rng([record.seed, r + 1])
        r += 1
        elapsed = time.perf_counter() - start
        if elapsed >= seconds and len(record.times) >= min_jobs:
            return
        if elapsed > HARD_LIMIT_S:
            record.fail("run", "stopped after %.0f s with %d jobs" % (elapsed, len(record.times)))
            return


def measure_plain(name, seed, seconds, min_jobs=MIN_JOBS):
    """The untraced run: end-to-end metrics.

    Set-up is sampled SETUP_SAMPLES times: once before the first round
    and the rest spread over the run between rounds, so that the median is
    not taken inside one slow or fast stretch of the machine.  Peak memory
    of the in-process workload comes from a fresh interpreter that reruns
    the last round's jobs (see _peak_rss_kb).
    """
    record = Run(seed)
    if name == "cli":
        import numpy as np

        import workloads

        wl = workloads.make_workload(name, ROOT, os.path.join(OUT, "cli-seed%d" % seed))
        warm = wl.prepare(np.random.default_rng([seed, 0]))

        def setup_sample():
            t0 = time.perf_counter()
            out = wl.run(warm)
            dt = time.perf_counter() - t0
            message = wl.check(warm, out)
            if message:
                record.fail("warm-up", message)
            return dt

        setups = [setup_sample()]
    else:
        wl, warm, out, own = _timed_setup(name, seed)
        message = wl.check(warm, out)
        if message:
            record.fail("warm-up", message)
        setups = [own]

        def setup_sample():
            return _probe(name, seed, "setup")

    due = [k * seconds / (SETUP_SAMPLES - 1) for k in range(SETUP_SAMPLES - 1)]
    start = time.perf_counter()
    for r, rng in _rounds(seconds, min_jobs, record):
        batch = wl.round(rng)
        spent = 0.0
        for i, job in enumerate(batch):
            out, dt, _ = _job(wl, job, wl.run, record, "round %d job %d" % (r, i))
            record.times.append(dt)
            spent += dt
            if name == "cli" and out is not None:
                record.rss_kb.append(out.maxrss_kb)
        record.round_rates.append(len(batch) / spent)
        while due and time.perf_counter() - start >= due[0]:
            due.pop(0)
            setups.append(setup_sample())
    setups.extend(setup_sample() for _ in due)

    rss = record.rss_kb if name == "cli" else [_peak_rss_kb(name, seed, batch)]
    times_ms = [1e3 * t for t in record.times]
    failed = len(record.failures)
    attempted = max(record.attempted, 1)
    metrics = {
        "setup_s": (statistics.median(setups), "s", setups),
        "job_p50_ms": (_percentile(times_ms, 50), "ms", times_ms),
        "job_p90_ms": (_percentile(times_ms, 90), "ms", times_ms),
        "jobs_per_s": (len(record.times) / sum(record.times), "1/s", record.round_rates),
        "peak_rss_mb": (max(rss) / 1024.0 if rss else float("nan"), "MB", [v / 1024.0 for v in rss]),
        "ok_frac": ((attempted - failed) / attempted, "ratio", None),
    }
    extra = {
        "failed_frac": failed / attempted,
        "jobs": len(record.times),
        "jobs_beyond_p90": sum(t > metrics["job_p90_ms"][0] for t in times_ms),
        "rounds": len(record.round_rates),
    }
    return record, metrics, extra


def measure_traced(name, seed, seconds, min_jobs=1):
    """Every round untraced and traced on the same inputs: per-layer metrics."""
    import numpy as np

    import framekit.cli  # noqa: F401  (the traced cli run is in-process)
    import workloads
    from tracer import Tracer

    record = Run(seed)
    tracer = Tracer()
    wl = workloads.make_workload(name, ROOT, os.path.join(OUT, "cli-seed%d" % seed))
    if name == "cli":
        warm = wl.prepare(np.random.default_rng([seed, 0]))
        for job in wl.jobs:  # subprocess reference bytes for the in-process passes
            _job(wl, job, wl.run, record, "reference %s" % job.label)
        run_fn = wl.run_inprocess
    else:
        warm = wl.warmup(np.random.default_rng([seed, 0]))
        run_fn = wl.run
    _job(wl, warm, run_fn, record, "warm-up")

    plain_ms, traced_ms, cpu = [], [], []
    job_id = 0
    for r, rng in _rounds(seconds, min_jobs, record):
        batch = wl.round(rng)
        digests = {}
        for traced in (r % 2 == 1, r % 2 == 0):
            if traced:
                tracer.install()
            try:
                for i, job in enumerate(batch):
                    if traced:
                        fn = lambda j, i=i: tracer.job_span(job_id + i, run_fn, j)  # noqa: E731
                    else:
                        fn = run_fn
                    where = "round %d job %d %s" % (r, i, "traced" if traced else "untraced")
                    out, dt, cpu_s = _job(wl, job, fn, record, where)
                    (traced_ms if traced else plain_ms).append(1e3 * dt)
                    if not traced:
                        cpu.append(cpu_s)
                    if out is not None:
                        digests.setdefault(i, set()).add(wl.digest(out))
            finally:
                tracer.uninstall()
        for i, seen in digests.items():
            if len(seen) != 1:
                record.fail("round %d job %d" % (r, i), "traced and untraced outputs differ")
        job_id += len(batch)
        record.times.extend(traced_ms[-len(batch):])

    values = tracer.layer_metrics()
    values["cli.import_ms"] = _import_ms()
    values["proc.cpu_ms_per_job"] = 1e3 * statistics.mean(cpu)
    values["trace.overhead_ratio"] = _percentile(traced_ms, 50) / _percentile(plain_ms, 50)
    if values["hermitian.errors"]:
        record.fail("hermitian", "%d solver calls raised" % values["hermitian.errors"])
    os.makedirs(OUT, exist_ok=True)
    tracer.save(os.path.join(OUT, "%s-seed%d-spans.npz" % (name, seed)))
    extra = {
        "traced_jobs": len(traced_ms),
        "untraced_jobs": len(plain_ms),
        "spans": len(tracer.start),
        "traced_p50_ms": _percentile(traced_ms, 50),
        "untraced_p50_ms": _percentile(plain_ms, 50),
    }
    return record, values, extra


def environment(seed):
    import numpy as np

    return {
        "git_sha": _git_sha(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": {var: os.environ.get(var) for var in BLAS_VARS},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "seed": seed,
    }


def result(workload, seed, seconds, trace, min_jobs=MIN_JOBS):
    """One measurement: (exit code, the printed result object, the full record)."""
    spec = _spec()
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    if trace:
        record, values, extra = measure_traced(workload, seed, seconds)
        samples = {}
    else:
        record, measured, extra = measure_plain(workload, seed, seconds, min_jobs)
        values = {k: v[0] for k, v in measured.items()}
        samples = {k: v[2] for k, v in measured.items()}
    metrics, detail = {}, {}
    for entry in wanted:
        value = float(values[entry["name"]])
        metrics[entry["name"]] = {"value": value, "unit": entry["unit"]}
        series = samples.get(entry["name"])
        q1, q3 = _quartiles(series) if series else (value, value)
        detail[entry["name"]] = {
            "value": value,
            "unit": entry["unit"],
            "better": entry["better"],
            "samples": len(series) if series else record.attempted,
            "q1": q1,
            "q3": q3,
        }
    correct = not record.failures
    printed = {"correct": correct, "attempted": record.attempted, "failed": len(record.failures), "metrics": metrics}
    full = {
        "workload": workload,
        "trace": trace,
        "seconds": seconds,
        "environment": environment(seed),
        "metrics": detail,
        "extra": extra,
        "failures": record.failures[:50],
        "result": printed,
    }
    return (0 if correct else 1), printed, full


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("gabor", "cli"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", choices=("setup", "memory"),
                        help="internal: print this fresh interpreter's set-up time, or its peak RSS after --jobs")
    parser.add_argument("--jobs", help="internal: pickled jobs for --probe memory")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "framekit", "__init__.py")):
        print("perfbench: no framekit sources under %s; run from a source checkout" % SRC, file=sys.stderr)
        return 2
    _single_blas_thread()
    sys.path.insert(0, SRC)

    if args.probe == "setup":
        wl, job, out, seconds = _timed_setup(args.workload, args.seed)
        message = wl.check(job, out)
        if message:
            print("warm-up failed: %s" % message, file=sys.stderr)
            return 1
        print(repr(seconds))
        return 0
    if args.probe == "memory":
        import workloads

        wl = workloads.make_workload(args.workload, ROOT, OUT)
        with open(args.jobs, "rb") as handle:
            for job in pickle.load(handle):
                wl.run(job)
        print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
        return 0

    code, printed, full = result(args.workload, args.seed, args.seconds, args.trace)
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, "%s-seed%d-trace%d.json" % (args.workload, args.seed, args.trace))
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(full, handle, indent=1)
    for name, m in full["metrics"].items():
        print("%-34s %14.6g %-6s (n=%d, q1=%.6g, q3=%.6g)" % (name, m["value"], m["unit"], m["samples"], m["q1"], m["q3"]))
    for key, value in full["extra"].items():
        print("%-34s %s" % (key, value))
    for failure in full["failures"]:
        print("FAILED %s" % failure)
    print(json.dumps(printed))
    return code


if __name__ == "__main__":
    sys.exit(main())
