"""framekit command line: frame, Gabor, and sampling reports.

Every verb prints a deterministic report (JSON unless --format csv) to
stdout, or writes it to --output.  Exit codes: 0 ok, 2 usage, 1 domain or
file errors; the latter still print {"error": code, "detail": ...} to stdout
so callers can parse failures.
"""

import argparse
import sys

import numpy as np

from . import frames, gabor, sampling
from .errors import DomainError, ParseError
from .serialization import (
    _fill,
    _matrix_fields,
    dumps_report,
    load_json,
    load_matrix,
    load_vector,
    matrix_csv_text,
)

SWEEP_HEADER = "oversampling_factor,analytic_mse,mc_mse,stderr"

SAMPLE_DEFAULTS = {"sigma2": 1.0, "trials": 1000, "seed": 0, "filter": "ideal"}


class _UsageError(Exception):
    """Missing or malformed command line values (exit code 2)."""


def build_parser():
    parser = argparse.ArgumentParser(
        prog="framekit",
        description="Finite-frame, Gabor, and sampled-reconstruction tools.",
    )
    sub = parser.add_subparsers(dest="verb", required=True, metavar="verb")

    def add(name, help_, **kwargs):
        p = sub.add_parser(name, help=help_, **kwargs)
        p.add_argument("--output", help="write the report here instead of stdout")
        p.add_argument(
            "--format", choices=("json", "csv"), default=None, help="report format"
        )
        return p

    p = add("frame-analyze", "coefficients <f, g_k> of a signal")
    p.add_argument("--input", required=True, help="frame file (vectors as rows)")
    p.add_argument("--signal", required=True, help="signal vector file")

    p = add("frame-bounds", "tightest frame bounds and classification")
    p.add_argument("--input", required=True)

    p = add("frame-dual", "canonical dual frame, or an alternative via --param")
    p.add_argument("--input", required=True)
    p.add_argument("--param", help="free left-inverse parameter matrix (N x K)")

    p = add("frame-tighten", "canonical tight frame S^{-1/2} g_k")
    p.add_argument("--input", required=True)

    p = add("frame-naimark", "orthonormal dilation of a tight unit frame")
    p.add_argument("--input", required=True)

    p = add("frame-exactness", "diagonal <dual_k, g_k> and exact/inexact label")
    p.add_argument("--input", required=True)

    for name, help_ in (
        ("gabor-build", "build the Weyl-Heisenberg frame of a prototype"),
        ("gabor-dual", "dual prototype S^{-1} g"),
        ("gabor-check", "bounds plus dual-structure verification"),
    ):
        p = add(name, help_)
        p.add_argument("--proto", required=True, help="delta|gaussian|boxcar or a vector file")
        p.add_argument("--n", required=True, type=int, help="signal length M")
        p.add_argument("--shift", required=True, type=int, help="time step T (divides M)")
        p.add_argument("--mods", required=True, type=int, help="modulation count K")

    for name, help_ in (
        ("sample-reconstruct", "sample a random bandlimited signal and reconstruct"),
        ("sample-mse", "analytic vs Monte Carlo noise MSE"),
        ("sample-sweep", "MSE across sampling periods (CSV by default)"),
    ):
        p = add(name, help_)
        p.add_argument("--input", help="config JSON {n, band, period(s), sigma2, trials, seed, filter}")
        p.add_argument("--n", type=int, help="signal length N (even)")
        p.add_argument("--band", type=int, help="band half-width W in bins")
        if name == "sample-sweep":
            p.add_argument("--periods", help="comma-separated sampling periods")
        else:
            p.add_argument("--period", type=int, help="sampling period Ts (divides N)")
        p.add_argument("--sigma2", type=float, help="noise variance (default 1.0)")
        p.add_argument("--trials", type=int, help="Monte Carlo trials (default 1000)")
        p.add_argument("--seed", type=int, help="RNG seed (default 0)")
        p.add_argument("--filter", help="'ideal' or an impulse-response vector file")

    return parser


def _load_frame(path):
    return frames.Frame.from_vectors(load_matrix(path))


def _matrix_text(arr, fmt):
    if fmt == "csv":
        return matrix_csv_text(arr)
    return dumps_report(_matrix_fields(arr))


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
    return _matrix_text(frames.analyze(frame, signal).reshape(-1, 1), args.format)


def _cmd_frame_bounds(args):
    return dumps_report(_bounds_report(_load_frame(args.input)))


def _cmd_frame_dual(args):
    frame = _load_frame(args.input)
    if args.param is None:
        return _matrix_text(frames.canonical_dual(frame).vectors, args.format)
    left = frames.left_inverse(frame, load_matrix(args.param))
    # columns of the left inverse are the alternative dual vectors
    return _matrix_text(left.matrix.T, args.format)


def _cmd_frame_tighten(args):
    return _matrix_text(frames.tighten(_load_frame(args.input)).vectors, args.format)


def _cmd_frame_naimark(args):
    dilation = frames.naimark_dilate(_load_frame(args.input))
    return dumps_report(
        {
            "subspace_dim": dilation.subspace_dim,
            "unitary": _matrix_fields(dilation.unitary),
        }
    )


def _cmd_frame_exactness(args):
    profile = frames.exactness_profile(_load_frame(args.input))
    return dumps_report(
        {
            "classification": profile.classification,
            "diagonal": profile.diagonal,
        }
    )


def _gabor_setup(args):
    params = gabor.GaborParams(length=args.n, shift=args.shift, mods=args.mods)
    if args.proto in gabor.PROTOTYPE_NAMES:
        proto = gabor.named_prototype(args.proto, args.n)
    else:
        proto = load_vector(args.proto)
    return proto, params


def _cmd_gabor_build(args):
    proto, params = _gabor_setup(args)
    return _matrix_text(gabor.build_gabor_frame(proto, params).vectors, args.format)


def _cmd_gabor_dual(args):
    proto, params = _gabor_setup(args)
    return _matrix_text(gabor.gabor_dual_prototype(proto, params).reshape(-1, 1), args.format)


def _cmd_gabor_check(args):
    proto, params = _gabor_setup(args)
    system = gabor.build_gabor_frame(proto, params)
    report = _bounds_report(system)
    if report["is_frame"]:
        dual_proto = gabor.gabor_dual_prototype(proto, params)
        dual_frame = frames.canonical_dual(system)
        report["wh_structure"] = gabor.verify_wh_structure(dual_frame, dual_proto, params)
    else:
        report["wh_structure"] = None
    return dumps_report(report)


def _as_strict_int(value):
    if isinstance(value, bool):
        raise ValueError("boolean is not an integer")
    if isinstance(value, float):
        if not value.is_integer():
            raise ValueError("not an integer")
        return int(value)
    return int(value)


def _config_value(args, cfg, key, kind, default=None):
    """The flag's value, else the config file's, else default; a usage error
    when there is none of the three."""
    value = getattr(args, key, None)
    if value is not None:
        return value  # argparse already typed flag values
    if key in cfg:
        try:
            return kind(cfg[key])
        except (TypeError, ValueError):
            raise ParseError("bad config value for %r: %r" % (key, cfg[key])) from None
    if default is None:
        raise _UsageError("missing %r (give the flag or put it in the config file)" % key)
    return default


def _sampling_setup(args):
    """The sampling request with every value resolved, its ``periods``
    [period] unless the verb is sample-sweep.  The trial budget is checked
    before anything is built."""
    cfg = {}
    if args.input:
        cfg = load_json(args.input)
        if not isinstance(cfg, dict):
            raise ParseError("config JSON must be an object")
    req = argparse.Namespace(
        n=_config_value(args, cfg, "n", _as_strict_int),
        band=_config_value(args, cfg, "band", _as_strict_int),
        sigma2=_config_value(args, cfg, "sigma2", float, SAMPLE_DEFAULTS["sigma2"]),
        trials=_config_value(args, cfg, "trials", _as_strict_int, SAMPLE_DEFAULTS["trials"]),
        seed=_config_value(args, cfg, "seed", _as_strict_int, SAMPLE_DEFAULTS["seed"]),
        filter=_config_value(args, cfg, "filter", str, SAMPLE_DEFAULTS["filter"]),
    )
    # sample-reconstruct draws a single signal and no trials
    sampling.check_trial_budget(req.n, 1 if args.verb == "sample-reconstruct" else req.trials)
    if args.verb != "sample-sweep":
        req.periods = [_config_value(args, cfg, "period", _as_strict_int)]
        return req
    if args.periods is not None:
        try:
            periods = [int(tok) for tok in args.periods.split(",") if tok.strip()]
        except ValueError:
            raise _UsageError("bad --periods %r" % args.periods) from None
        if not periods:
            raise _UsageError("empty --periods")
    elif "periods" in cfg:
        raw = cfg["periods"]
        if not isinstance(raw, list) or not raw:
            raise ParseError("config 'periods' must be a nonempty list")
        try:
            periods = [_as_strict_int(tok) for tok in raw]
        except (TypeError, ValueError):
            raise ParseError("bad config periods %r" % (raw,)) from None
    else:
        raise _UsageError("missing 'periods' (give --periods or put it in the config file)")
    req.periods = periods
    return req


def _resolve_filter(spec, model):
    if spec == "ideal":
        return sampling.ideal_lowpass(model)
    impulse = load_vector(spec)
    if impulse.shape[0] != model.size:
        raise ParseError(
            "filter length %d, expected %d" % (impulse.shape[0], model.size)
        )
    return sampling.ReconFilter.from_impulse(impulse)


def _sampling_runs(req):
    """(model, filter, signal) per period.  The signal does not depend on the
    period: it is drawn once, after the first model has reported any bad
    argument."""
    signal = None
    for period in req.periods:
        model = sampling.SamplingModel(size=req.n, band=req.band, period=period)
        filt = _resolve_filter(req.filter, model)
        if signal is None:
            signal = sampling.make_bandlimited(req.n, req.band, req.seed)
        yield model, filt, signal


def _cmd_sample_reconstruct(args):
    req = _sampling_setup(args)
    [(model, filt, signal)] = _sampling_runs(req)
    recon = sampling.reconstruct(sampling.sample(signal, model), filt, model)
    return dumps_report(
        {
            "n": req.n,
            "band": req.band,
            "period": model.period,
            "seed": req.seed,
            "filter": req.filter,
            "pr": sampling.is_perfect(filt, model),
            "max_abs_error": float(np.max(np.abs(signal - recon))),
        }
    )


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
    return dumps_report(report)


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
    if args.format == "json":
        return dumps_report(rows)
    table = np.array([list(row.values()) for row in rows])
    line = ",".join(["%.17g"] * table.shape[1])
    return SWEEP_HEADER + "\n" + _fill("\n".join([line] * len(rows)), table)


_HANDLERS = {
    "frame-analyze": _cmd_frame_analyze,
    "frame-bounds": _cmd_frame_bounds,
    "frame-dual": _cmd_frame_dual,
    "frame-tighten": _cmd_frame_tighten,
    "frame-naimark": _cmd_frame_naimark,
    "frame-exactness": _cmd_frame_exactness,
    "gabor-build": _cmd_gabor_build,
    "gabor-dual": _cmd_gabor_dual,
    "gabor-check": _cmd_gabor_check,
    "sample-reconstruct": _cmd_sample_reconstruct,
    "sample-mse": _cmd_sample_mse,
    "sample-sweep": _cmd_sample_sweep,
}


def run(argv=None):
    """Execute one verb; returns the process exit code."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        text = _HANDLERS[args.verb](args)
        if args.output:
            with open(args.output, "w", encoding="utf-8") as handle:
                handle.write(text + "\n")
        else:
            print(text)
    except _UsageError as exc:
        print("framekit %s: error: %s" % (args.verb, exc), file=sys.stderr)
        return 2
    except DomainError as exc:
        print(dumps_report({"error": exc.code, "detail": str(exc)}))
        return 1
    except (FileNotFoundError, IsADirectoryError, PermissionError) as exc:
        print(dumps_report({"error": "file_not_found", "detail": str(exc)}))
        return 1
    return 0


def main():
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
