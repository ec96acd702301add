"""The benchmark workloads: seeded inputs, one job, and its output check.

A workload hands out inputs one *round* at a time.  A round holds a fixed
mix of job shapes (every Gabor system once, every CLI verb once) in a
seeded order with seeded contents, so percentiles taken over whole rounds
come from the same mix under every seed.  Inputs depend only on (seed,
round index), never on timing.

``run`` is the timed span.  ``check`` runs outside it and compares the
output with an independent numpy oracle; it returns None or a failure
message.  ``digest`` fingerprints an output so that traced and untraced
passes can be compared bit for bit.
"""

import contextlib
import csv
import hashlib
import io
import json
import os
import subprocess
import sys
import threading
from collections import namedtuple

import numpy as np

from framekit import frames, gabor

# Like tests/conftest.py: keep lambda_min >= 1e-3 lambda_max so identities
# checked at 1e-8 are meaningful rather than condition-limited.
MIN_EIG_RATIO = 1e-3
MAX_DRAWS = 1000
RTOL = 1e-8
MC_STDERRS = 6.0


def _complex_normal(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _well_conditioned(s):
    w = np.linalg.eigvalsh(s)
    return w[0] >= MIN_EIG_RATIO * w[-1]


def _operator(analysis):
    return analysis.conj().T @ analysis


def _rel_err(got, want):
    got, want = np.asarray(got), np.asarray(want)
    return float(np.max(np.abs(got - want)) / max(float(np.max(np.abs(want))), 1e-300))


def _digest(*parts):
    """Fingerprint of arrays (by their bytes) and other values (by repr)."""
    h = hashlib.blake2b(digest_size=16)
    for part in parts:
        if isinstance(part, np.ndarray):
            h.update(np.ascontiguousarray(part).tobytes())
        else:
            h.update(repr(part).encode())
    return h.digest()


def _bounds_error(lower, upper, analysis):
    w = np.linalg.eigvalsh(_operator(analysis))
    if abs(lower - w[0]) > RTOL * w[-1] or abs(upper - w[-1]) > RTOL * w[-1]:
        return "bounds (%r, %r) differ from eigvalsh (%r, %r)" % (lower, upper, w[0], w[-1])
    return None


def _first_error(*messages):
    return next((m for m in messages if m), None)


# --------------------------------------------------------------------------
# gabor


GaborJob = namedtuple("GaborJob", "window length shift mods")
GaborOut = namedtuple("GaborOut", "analysis bounds dual_proto dual_analysis wh")

# (M, T, K) with T | M, K | M, K >= T and at most 1024 rows; 13 systems so
# that p50 and p90 fall inside one system's group, not between two.
GABOR_SYSTEMS = (
    (48, 2, 8),
    (48, 3, 6),
    (48, 4, 12),
    (48, 6, 8),
    (64, 2, 32),
    (64, 4, 8),
    (64, 8, 16),
    (96, 3, 32),
    (96, 4, 16),
    (96, 6, 12),
    (128, 4, 32),
    (128, 8, 32),
    (128, 16, 32),
)
GABOR_WARMUP = (48, 4, 12)


def gabor_analysis(g, length, shift, mods):
    """Numpy oracle of the system's analysis matrix (rows k outer, l inner)."""
    n = np.arange(length)
    translates = g[(n[None, :] - shift * np.arange(length // shift)[:, None]) % length]
    phases = np.exp(2j * np.pi * np.arange(mods)[:, None] * n[None, :] / mods)
    return np.conj((phases[:, None, :] * translates[None, :, :]).reshape(-1, length))


def gabor_window(rng, length, shift, mods):
    """Gaussian of random width times (1 + 0.3 complex noise), kept if well conditioned."""
    x = np.arange(length) - (length - 1) / 2.0
    for _ in range(MAX_DRAWS):
        width = rng.uniform(0.5, 1.5) * np.sqrt(length)
        g = np.exp(-0.5 * (x / width) ** 2) * (1.0 + 0.3 * _complex_normal(rng, length))
        if _well_conditioned(_operator(gabor_analysis(g, length, shift, mods))):
            return g
    raise RuntimeError("no well-conditioned window for %r" % ((length, shift, mods),))


def _gabor_job(rng, system):
    return GaborJob(gabor_window(rng, *system), *system)


class GaborWorkload:
    """The gabor-check pipeline on seeded windows over 13 fixed (M, T, K) systems."""

    def warmup(self, rng):
        return _gabor_job(rng, GABOR_WARMUP)

    def round(self, rng):
        return [_gabor_job(rng, GABOR_SYSTEMS[i]) for i in rng.permutation(len(GABOR_SYSTEMS))]

    def run(self, job):
        params = gabor.GaborParams(length=job.length, shift=job.shift, mods=job.mods)
        system = gabor.build_gabor_frame(job.window, params)
        bounds = frames.frame_bounds(system)
        dual_proto = gabor.gabor_dual_prototype(job.window, params)
        dual_frame = frames.canonical_dual(system)
        wh = gabor.verify_wh_structure(dual_frame, dual_proto, params)
        return GaborOut(system.analysis, bounds, dual_proto, dual_frame.analysis, wh)

    def check(self, job, out):
        want = gabor_analysis(job.window, job.length, job.shift, job.mods)
        return _first_error(
            out.wh is not True and "verify_wh_structure is not true",
            _rel_err(out.analysis, want) > RTOL and "built system differs from the numpy oracle",
            _bounds_error(out.bounds.lower, out.bounds.upper, want),
            _rel_err(out.dual_proto, np.linalg.solve(_operator(want), job.window)) > RTOL
            and "dual window differs from solve(S, g)",
        )

    def digest(self, out):
        b = out.bounds
        return _digest(out.analysis, np.array([b.lower, b.upper, out.wh]), out.dual_proto, out.dual_analysis)


# --------------------------------------------------------------------------
# sampling (the cli workload's sample-mse job)


SamplingJob = namedtuple("SamplingJob", "size band periods sigma2 signal_seed mc_seed")

SAMPLE_TRIALS = 500
OVERSAMPLING_STEPS = 4  # critical period Tc, then Tc/2, Tc/4, Tc/8


def sampling_job(rng, size):
    """A sweep from critical sampling (L the smallest power of two >= 2W+1) to 8x."""
    band = int(rng.integers(1, (size // 2**(OVERSAMPLING_STEPS - 1) - 1) // 2 + 1))
    critical = 1 << int(np.ceil(np.log2(2 * band + 1)))
    top = size // critical
    periods = tuple(top >> i for i in range(OVERSAMPLING_STEPS))
    sigma2 = float(rng.uniform(0.5, 2.0))
    signal_seed, mc_seed = (int(v) for v in rng.integers(0, 2**31, 2))
    return SamplingJob(size, band, periods, sigma2, signal_seed, mc_seed)


def closed_form_mse(job, period):
    """sigma2 (2W+1) / L for the ideal low-pass filter."""
    return job.sigma2 * (2 * job.band + 1) * period / job.size


# --------------------------------------------------------------------------
# cli


CliJob = namedtuple("CliJob", "label argv oracle")
CliOut = namedtuple("CliOut", "code stdout maxrss_kb")

CHILD_TIMEOUT_S = 60.0


def _write_matrix_json(path, rows):
    rows = np.atleast_2d(rows)
    data = [[float(z.real), float(z.imag)] for z in rows.reshape(-1)]
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"rows": rows.shape[0], "cols": rows.shape[1], "data": data}, handle)


def _write_matrix_csv(path, rows):
    with open(path, "w", encoding="utf-8") as handle:
        for row in np.atleast_2d(rows):
            handle.write(",".join("%.17g%+.17gi" % (z.real, z.imag) for z in row) + "\n")


def _parse_matrix_report(text):
    obj = json.loads(text)
    flat = np.array(obj["data"], dtype=float).reshape(-1, 2)
    return (flat[:, 0] + 1j * flat[:, 1]).reshape(obj["rows"], obj["cols"])


def _parse_csv_report(text):
    rows = [[complex(cell.replace("i", "j")) for cell in rec] for rec in csv.reader(text.splitlines()) if rec]
    return np.array(rows, dtype=np.complex128)


def _random_vectors(rng, k, n):
    for _ in range(MAX_DRAWS):
        v = _complex_normal(rng, (k, n))
        if _well_conditioned(_operator(np.conj(v))):
            return v
    raise RuntimeError("no well-conditioned %dx%d frame drawn" % (k, n))


def _check_bounds_report(vectors):
    def check(text):
        report = json.loads(text)
        k, n = vectors.shape
        return _first_error(
            _bounds_error(report["lower"], report["upper"], np.conj(vectors)),
            (report["is_frame"], report["num_vectors"], report["dim"]) != (True, k, n)
            and "frame-bounds report fields are wrong",
        )

    return check


def _check_matrix(parse, want, what):
    def check(text):
        got = parse(text)
        if got.shape != want.shape:
            return "%s has shape %r, expected %r" % (what, got.shape, want.shape)
        return _rel_err(got, want) > RTOL and "%s differs from the numpy oracle" % what

    return check


def _check_gabor_report(g, system):
    def check(text):
        report = json.loads(text)
        return _first_error(
            report.get("wh_structure") is not True and "gabor-check: wh_structure is not true",
            report.get("is_frame") is not True and "gabor-check: not a frame",
            _bounds_error(report["lower"], report["upper"], gabor_analysis(g, *system)),
        )

    return check


def _check_mse_report(job):
    def check(text):
        r = json.loads(text)
        want = closed_form_mse(job, job.periods[0])
        return _first_error(
            abs(r["analytic_mse"] - want) > RTOL * want and "sample-mse: analytic_mse is wrong",
            abs(r["inband_mse"] + r["outband_mse"] - want) > RTOL * want and "sample-mse: decomposition is wrong",
            not abs(r["mc_mse"] - want) <= MC_STDERRS * r["stderr"] and "sample-mse: Monte Carlo out of range",
        )

    return check


CLI_BOUNDS_SHAPE = (1000, 10)  # about 10^4 entries to parse
CLI_BUILD_SYSTEM = (64, 2, 32)  # a 1024 x 64 report of about 3 MB
CLI_CHECK_SYSTEM = (48, 4, 12)
CLI_DUAL_SHAPE = (14, 6)
CLI_TIGHT_SHAPE = (20, 8)


class CliWorkload:
    """One `python -m framekit.cli` process per job over seven fixed argvs.

    Seven verbs per round so that p50 falls inside one verb's group; the
    3 MB gabor-build report is the slowest seventh, so p90 is an emit time.
    """

    def __init__(self, root, workdir):
        self.root = root
        self.workdir = workdir
        self.env = dict(os.environ)
        src = os.path.join(root, "src")
        self.env["PYTHONPATH"] = src + (os.pathsep + self.env["PYTHONPATH"] if self.env.get("PYTHONPATH") else "")
        self.jobs = []
        self.reference = {}

    def _path(self, name):
        return os.path.join(self.workdir, name)

    def prepare(self, rng):
        """Write the input files and their oracles; returns the warm-up job."""
        os.makedirs(self.workdir, exist_ok=True)
        cli = ["-m", "framekit.cli"]
        jobs = []

        big = _random_vectors(rng, *CLI_BOUNDS_SHAPE)
        _write_matrix_json(self._path("bounds.json"), big)
        jobs.append(CliJob("frame-bounds-json", cli + ["frame-bounds", "--input", self._path("bounds.json")], _check_bounds_report(big)))
        big_csv = _random_vectors(rng, *CLI_BOUNDS_SHAPE)
        _write_matrix_csv(self._path("bounds.csv"), big_csv)
        jobs.append(CliJob("frame-bounds-csv", cli + ["frame-bounds", "--input", self._path("bounds.csv")], _check_bounds_report(big_csv)))

        m, t, k = CLI_BUILD_SYSTEM
        g = gabor_window(rng, m, t, k)
        _write_matrix_json(self._path("window_build.json"), g)
        argv = ["gabor-build", "--proto", self._path("window_build.json"), "--n", str(m), "--shift", str(t), "--mods", str(k)]
        want = np.conj(gabor_analysis(g, m, t, k))
        jobs.append(CliJob("gabor-build", cli + argv, _check_matrix(_parse_matrix_report, want, "gabor-build")))

        v = _random_vectors(rng, *CLI_DUAL_SHAPE)
        _write_matrix_json(self._path("dual.json"), v)
        ta = np.conj(v)
        want = np.conj(np.linalg.solve(_operator(ta), ta.conj().T).conj().T)
        jobs.append(CliJob("frame-dual", cli + ["frame-dual", "--input", self._path("dual.json")], _check_matrix(_parse_matrix_report, want, "frame-dual")))

        v = _random_vectors(rng, *CLI_TIGHT_SHAPE)
        _write_matrix_json(self._path("tight.json"), v)
        ta = np.conj(v)
        w, u = np.linalg.eigh(_operator(ta))
        want = np.conj(ta @ ((u / np.sqrt(w)) @ u.conj().T))
        argv = ["frame-tighten", "--input", self._path("tight.json"), "--format", "csv"]
        jobs.append(CliJob("frame-tighten-csv", cli + argv, _check_matrix(_parse_csv_report, want, "frame-tighten")))

        m, t, k = CLI_CHECK_SYSTEM
        g = gabor_window(rng, m, t, k)
        _write_matrix_json(self._path("window_check.json"), g)
        argv = ["gabor-check", "--proto", self._path("window_check.json"), "--n", str(m), "--shift", str(t), "--mods", str(k)]
        jobs.append(CliJob("gabor-check", cli + argv, _check_gabor_report(g, CLI_CHECK_SYSTEM)))

        sj = sampling_job(rng, 256)
        config = {"n": sj.size, "band": sj.band, "period": sj.periods[0], "sigma2": sj.sigma2,
                  "trials": SAMPLE_TRIALS, "seed": sj.mc_seed}
        with open(self._path("mse.json"), "w", encoding="utf-8") as handle:
            json.dump(config, handle)
        jobs.append(CliJob("sample-mse", cli + ["sample-mse", "--input", self._path("mse.json")], _check_mse_report(sj)))
        self.jobs = jobs

        tiny = _random_vectors(rng, 3, 2)
        _write_matrix_json(self._path("tiny.json"), tiny)
        return CliJob("warmup", cli + ["frame-bounds", "--input", self._path("tiny.json")], _check_bounds_report(tiny))

    def round(self, rng):
        return [self.jobs[i] for i in rng.permutation(len(self.jobs))]

    def run(self, job):
        """Spawn the CLI, read its whole stdout, and reap it with its rusage."""
        with open(self._path("stderr.txt"), "wb") as err:
            proc = subprocess.Popen(
                [sys.executable] + job.argv, stdout=subprocess.PIPE, stderr=err, env=self.env, cwd=self.root
            )
            timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                stdout = proc.stdout.read()
                proc.stdout.close()
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            proc.returncode = os.waitstatus_to_exitcode(status)
        return CliOut(proc.returncode, stdout, usage.ru_maxrss)

    def run_inprocess(self, job):
        """framekit.cli.run(argv) in this process with stdout captured."""
        import framekit.cli

        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = framekit.cli.run(job.argv[2:])
        return CliOut(code, buf.getvalue().encode("utf-8"), 0)

    def check(self, job, out):
        if out.code != 0:
            with open(self._path("stderr.txt"), "rb") as err:
                tail = err.read()[-300:].decode("utf-8", "replace")
            return "%s exited %d: %s" % (job.label, out.code, tail or out.stdout[:300])
        key = self.digest(out)
        known = self.reference.get(job.label)
        if known is not None:
            return known != key and "%s: same argv gave different bytes" % job.label
        message = job.oracle(out.stdout.decode("utf-8"))
        if not message:
            self.reference[job.label] = key
        return message

    def digest(self, out):
        return hashlib.blake2b(out.stdout, digest_size=16).digest()


def make_workload(name, root, workdir):
    if name == "cli":
        return CliWorkload(root, workdir)
    return GaborWorkload()


WORKLOAD_NAMES = ("gabor", "cli")
