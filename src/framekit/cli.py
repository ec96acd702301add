"""framekit command line: frame, Gabor, and sampling reports.

A verb computes its report's value (a dict, a complex matrix, or for
sample-sweep a list of records) and ``run`` has ``serialization.dumps_report``
render it once, to stdout or to --output.  Reports are deterministic JSON;
the six verbs whose report has a CSV form take --format, and sample-sweep
prints CSV unless given --format json.  Exit codes: 0 ok, 2 usage, 1 domain
or file errors; the latter still print {"error": code, "detail": ...} to
stdout so callers can parse failures.
"""

import argparse
import contextlib
import os
import sys

import numpy as np

from . import frames, gabor, sampling
from .errors import DomainError, ParseError
from .serialization import _as_strict, dumps_report, load_json, load_matrix, load_vector

SAMPLE_DEFAULTS = {"sigma2": 1.0, "trials": 1000, "seed": 0, "filter": "ideal"}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="framekit",
        description="Finite-frame, Gabor, and sampled-reconstruction tools.",
    )
    sub = parser.add_subparsers(dest="verb", required=True, metavar="verb")

    def add(name, help_, handler, csv=False):
        p = sub.add_parser(name, help=help_)
        # usage errors found after parsing go through the verb's own parser
        p.set_defaults(handler=handler, error=p.error, format="json")
        p.add_argument("--output", help="write the report here instead of stdout")
        if csv:
            p.add_argument("--format", choices=("json", "csv"), help="report format")
        return p

    p = add("frame-analyze", "coefficients <f, g_k> of a signal", _cmd_frame_analyze, csv=True)
    p.add_argument("--input", required=True, help="frame file (vectors as rows)")
    p.add_argument("--signal", required=True, help="signal vector file")

    p = add("frame-bounds", "tightest frame bounds and classification", _cmd_frame_bounds)
    p.add_argument("--input", required=True)

    p = add("frame-dual", "canonical dual frame, or an alternative via --param", _cmd_frame_dual,
            csv=True)
    p.add_argument("--input", required=True)
    p.add_argument("--param", help="free left-inverse parameter matrix (N x K)")

    p = add("frame-tighten", "canonical tight frame S^{-1/2} g_k", _cmd_frame_tighten, csv=True)
    p.add_argument("--input", required=True)

    p = add("frame-naimark", "orthonormal dilation of a tight unit frame", _cmd_frame_naimark)
    p.add_argument("--input", required=True)

    p = add("frame-exactness", "diagonal <dual_k, g_k> and exact/inexact label", _cmd_frame_exactness)
    p.add_argument("--input", required=True)

    for name, help_, handler in (
        ("gabor-build", "build the Weyl-Heisenberg frame of a prototype", _cmd_gabor_build),
        ("gabor-dual", "dual prototype S^{-1} g", _cmd_gabor_dual),
        ("gabor-check", "frame bounds; the dual is Gabor-structured when it is a frame", _cmd_gabor_check),
    ):
        p = add(name, help_, handler, csv=name != "gabor-check")
        p.add_argument("--proto", required=True, help="delta|gaussian|boxcar or a vector file")
        p.add_argument("--n", required=True, type=int, help="signal length M")
        p.add_argument("--shift", required=True, type=int, help="time step T (divides M)")
        p.add_argument("--mods", required=True, type=int, help="modulation count K (divides M)")

    for name, help_, handler in (
        ("sample-reconstruct", "sample a random bandlimited signal and reconstruct",
         _cmd_sample_reconstruct),
        ("sample-mse", "analytic vs Monte Carlo noise MSE", _cmd_sample_mse),
        ("sample-sweep", "MSE across sampling periods (CSV by default)", _cmd_sample_sweep),
    ):
        p = add(name, help_, handler, csv=name == "sample-sweep")
        noise = "" if name == "sample-reconstruct" else " sigma2, trials,"
        p.add_argument("--input", help=f"config JSON {{n, band, period(s),{noise} seed, filter}}")
        p.add_argument("--n", type=int, help="signal length N (even)")
        p.add_argument("--band", type=int, help="band half-width W in bins")
        if name == "sample-sweep":
            p.set_defaults(format="csv")
            p.add_argument("--periods", help="comma-separated sampling periods")
        else:
            p.add_argument("--period", type=int, help="sampling period Ts (divides N)")
        if name != "sample-reconstruct":
            p.add_argument("--sigma2", type=float, help="noise variance (default 1.0)")
            p.add_argument("--trials", type=int, help="Monte Carlo trials (default 1000)")
        p.add_argument("--seed", type=int, help="RNG seed (default 0)")
        p.add_argument("--filter", help="'ideal' or an impulse-response vector file")

    return parser


def _load_frame(path):
    return frames.Frame.from_vectors(load_matrix(path))


def _bounds_report(frame):
    bounds = frames.frame_bounds(frame)
    return {
        "lower": bounds.lower,
        "upper": bounds.upper,
        "tight": bounds.is_tight(),
        "is_frame": bounds.spans(),
        "num_vectors": frame.num_vectors,
        "dim": frame.dim,
    }


def _cmd_frame_analyze(args):
    frame = _load_frame(args.input)
    signal = load_vector(args.signal)
    return frames.analyze(frame, signal).reshape(-1, 1)


def _cmd_frame_bounds(args):
    return _bounds_report(_load_frame(args.input))


def _cmd_frame_dual(args):
    frame = _load_frame(args.input)
    if args.param is None:
        return frames.canonical_dual(frame).vectors
    # columns of the left inverse are the alternative dual vectors
    return frames.left_inverse(frame, load_matrix(args.param)).T


def _cmd_frame_tighten(args):
    return frames.tighten(_load_frame(args.input)).vectors


def _cmd_frame_naimark(args):
    frame = _load_frame(args.input)
    return {"subspace_dim": frame.dim, "unitary": frames.naimark_dilate(frame)}


def _cmd_frame_exactness(args):
    profile = frames.exactness_profile(_load_frame(args.input))
    return {"classification": profile.classification, "diagonal": profile.diagonal}


def _gabor_setup(args):
    params = gabor.GaborParams(length=args.n, shift=args.shift, mods=args.mods)
    if args.proto in gabor.PROTOTYPE_NAMES:
        proto = gabor.named_prototype(args.proto, args.n)
    else:
        proto = load_vector(args.proto)
    return proto, params


def _cmd_gabor_build(args):
    proto, params = _gabor_setup(args)
    return gabor.build_gabor_frame(proto, params).vectors


def _cmd_gabor_dual(args):
    proto, params = _gabor_setup(args)
    return gabor.gabor_dual_prototype(proto, params).reshape(-1, 1)


def _cmd_gabor_check(args):
    proto, params = _gabor_setup(args)
    system = gabor.build_gabor_frame(proto, params)
    report = _bounds_report(system)
    # the dual is the Gabor system of S^{-1} g; test_gabor_dual_is_the_system_of_its_prototype
    # and test_block_operators_match_the_dense_oracle check that against the dense Frame
    report["wh_structure"] = True if report["is_frame"] else None
    return report


def _config_value(args, cfg, key, kind, default=None):
    """The flag's value, else the config file's read by _as_strict, else default, else a usage error."""
    value = getattr(args, key, None)
    if value is not None:
        return value  # argparse already typed flag values
    if key in cfg:
        try:
            return _as_strict(cfg[key], kind)
        except (TypeError, ValueError, OverflowError):
            raise ParseError("bad config value for %r: %r" % (key, cfg[key])) from None
    if default is None:
        args.error("missing %r (give the flag or put it in the config file)" % key)
    return default


def _sampling_setup(args):
    """The sampling request with every value the verb reads resolved, its
    ``periods`` [period] unless the verb is sample-sweep.  The trial budget
    is checked before anything is built, for one period and then for the
    sweep's periods, each of which runs every trial."""
    cfg = {}
    if args.input:
        cfg = load_json(args.input)
        if not isinstance(cfg, dict):
            raise ParseError("config JSON must be an object")
    req = argparse.Namespace(
        n=_config_value(args, cfg, "n", int),
        band=_config_value(args, cfg, "band", int),
        trials=1,  # sample-reconstruct draws a single signal and no trials
    )
    if args.verb != "sample-reconstruct":
        req.sigma2 = _config_value(args, cfg, "sigma2", float, SAMPLE_DEFAULTS["sigma2"])
        req.trials = _config_value(args, cfg, "trials", int, SAMPLE_DEFAULTS["trials"])
    req.seed = _config_value(args, cfg, "seed", int, SAMPLE_DEFAULTS["seed"])
    req.filter = _config_value(args, cfg, "filter", str, SAMPLE_DEFAULTS["filter"])
    sampling.check_trial_budget(req.n, req.trials)
    if args.verb != "sample-sweep":
        req.periods = [_config_value(args, cfg, "period", int)]
        return req
    if args.periods is not None:
        try:
            periods = [int(tok) for tok in args.periods.split(",") if tok.strip()]
        except ValueError:
            args.error("bad --periods %r" % args.periods)
        if not periods:
            args.error("empty --periods")
    elif "periods" in cfg:
        raw = cfg["periods"]
        if not isinstance(raw, list) or not raw:
            raise ParseError("config 'periods' must be a nonempty list")
        try:
            periods = [_as_strict(tok, int) for tok in raw]
        except (TypeError, ValueError):
            raise ParseError("bad config periods %r" % (raw,)) from None
    else:
        args.error("missing 'periods' (give --periods or put it in the config file)")
    sampling.check_trial_budget(req.n, len(periods) * req.trials)
    req.periods = periods
    return req


def _sampling_runs(req):
    """(model, filter, signal) per period.  A filter file is read and
    transformed and the signal drawn once, after the first model has reported
    any bad argument: none of them depends on the period."""
    filt = signal = None
    for period in req.periods:
        model = sampling.SamplingModel(size=req.n, band=req.band, period=period)
        if req.filter == "ideal":
            filt = sampling.ideal_lowpass(model)
        elif filt is None:
            impulse = load_vector(req.filter)
            if impulse.shape[0] != model.size:
                raise ParseError("filter length %d, expected %d" % (impulse.shape[0], model.size))
            filt = np.fft.fft(impulse)
        if signal is None:
            signal = sampling.make_bandlimited(req.n, req.band, req.seed)
        yield model, filt, signal


def _cmd_sample_reconstruct(args):
    req = _sampling_setup(args)
    [(model, filt, signal)] = _sampling_runs(req)
    recon = sampling.reconstruct(sampling.sample(signal, model), filt, model)
    return {
        "n": req.n,
        "band": req.band,
        "period": model.period,
        "seed": req.seed,
        "filter": req.filter,
        "pr": sampling.is_perfect(filt, model),
        "max_abs_error": float(np.max(np.abs(signal - recon))),
    }


def _cmd_sample_mse(args):
    req = _sampling_setup(args)
    [(model, filt, signal)] = _sampling_runs(req)
    experiment = sampling.monte_carlo_mse(signal, filt, model, req.sigma2, req.trials, req.seed)
    report = {
        "n": req.n,
        "band": req.band,
        "period": model.period,
        "oversampling_factor": model.oversampling,
        "sigma2": req.sigma2,
        "trials": req.trials,
        "seed": req.seed,
        "filter": req.filter,
        "analytic_mse": experiment.analytic,
        "mc_mse": experiment.estimate,
        "stderr": experiment.stderr,
    }
    if sampling.is_perfect(filt, model):
        inband, outband = sampling.mse_decomposition(filt, model, req.sigma2)
        report["inband_mse"] = inband
        report["outband_mse"] = outband
    return report


def _cmd_sample_sweep(args):
    req = _sampling_setup(args)
    rows = []
    for model, filt, signal in _sampling_runs(req):
        experiment = sampling.monte_carlo_mse(signal, filt, model, req.sigma2, req.trials, req.seed)
        rows.append(
            {
                "oversampling_factor": model.oversampling,
                "analytic_mse": experiment.analytic,
                "mc_mse": experiment.estimate,
                "stderr": experiment.stderr,
            }
        )
    return rows


def run(argv=None):
    """Execute one verb; returns the process exit code.  A stdout that cannot
    take the report raises its own OSError, which ``main`` handles."""
    try:
        args = build_parser().parse_args(argv)
        text, code = dumps_report(args.handler(args), args.format), 0
        if args.output:
            with open(args.output, "w", encoding="utf-8") as handle:
                handle.write(text)
                handle.write("\n")
            return 0
    except SystemExit as exc:  # argparse has printed its usage error, or --help
        return int(exc.code or 0)
    except DomainError as exc:
        text, code = dumps_report({"error": exc.code, "detail": str(exc)}), 1
    except OSError as exc:  # a path that cannot be read or written, a full disk
        text, code = dumps_report({"error": "file_not_found", "detail": str(exc)}), 1
    print(text)
    return code


def main():
    """The console entry point: ``run`` the argv, flush, and end the process.

    The process ends with ``os._exit`` once stdout and stderr are flushed,
    without the interpreter's teardown, which has nothing left to write; an
    output that could not take the report is never flushed again.
    """
    try:
        code = run(sys.argv[1:])
        sys.stdout.flush()
    except BrokenPipeError:
        code = 1  # the reader closed stdout early
    except OSError as exc:  # the output could not take the report: a full device
        code = 1
        with contextlib.suppress(OSError):  # stderr may be that device too
            print("framekit: error: cannot write output: %s" % exc, file=sys.stderr)
    with contextlib.suppress(OSError):
        sys.stderr.flush()
    os._exit(code)


if __name__ == "__main__":
    main()
