"""End-to-end CLI checks: report contents, exit codes, determinism."""

import errno
import io
import json
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

import report_oracle
from framekit import cli, gabor, sampling
from framekit.serialization import dumps_report, load_vector, matrix_csv_text, matrix_from_json
from report_oracle import matrix_to_json
from spawn import cli_command, spawn_cli

RT3 = np.sqrt(3.0)
MB_VECTORS = [[0.0, 1.0], [-RT3 / 2, -0.5], [RT3 / 2, -0.5]]
REDUNDANT = [[1.0, 0.0], [0.0, 1.0], [1.0, -1.0]]


def write_matrix(path, rows):
    path.write_text(dumps_report(matrix_to_json(np.asarray(rows, dtype=complex))))
    return str(path)


def run_cli(capsys, *argv):
    code = cli.run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def out_json(capsys, *argv):
    code, out, _err = run_cli(capsys, *argv)
    assert code == 0, out
    return json.loads(out)


def out_error(capsys, *argv):
    code, out, _err = run_cli(capsys, *argv)
    assert code == 1, out
    return json.loads(out)["error"]


# ----------------------------------------------------------------- bounds


def test_frame_bounds_tight_frame(tmp_path, capsys):
    path = write_matrix(tmp_path / "mb.json", MB_VECTORS)
    report = out_json(capsys, "frame-bounds", "--input", path)
    assert report["lower"] == pytest.approx(1.5, abs=1e-12)
    assert report["upper"] == pytest.approx(1.5, abs=1e-12)
    assert report["tight"] is True and report["is_frame"] is True
    assert report["num_vectors"] == 3 and report["dim"] == 2
    assert list(report) == ["lower", "upper", "tight", "is_frame", "num_vectors", "dim"]


def test_frame_bounds_nonspanning(tmp_path, capsys):
    path = write_matrix(tmp_path / "f.json", [[1.0, 0.0], [2.0, 0.0]])
    report = out_json(capsys, "frame-bounds", "--input", path)
    assert report["is_frame"] is False
    assert report["lower"] == pytest.approx(0.0, abs=1e-12)


def test_frame_bounds_accepts_csv(tmp_path, capsys):
    path = tmp_path / "mb.csv"
    path.write_text(matrix_csv_text(np.asarray(MB_VECTORS, dtype=complex)))
    report = out_json(capsys, "frame-bounds", "--input", str(path))
    assert report["tight"] is True


# ---------------------------------------------------------------- analyze


def test_frame_analyze(tmp_path, capsys):
    fpath = write_matrix(tmp_path / "mb.json", MB_VECTORS)
    spath = write_matrix(tmp_path / "f.json", [[0.0, 1.0]])
    report = out_json(capsys, "frame-analyze", "--input", fpath, "--signal", spath)
    coeffs = matrix_from_json(report).reshape(-1)
    assert np.allclose(coeffs, [1.0, -0.5, -0.5], atol=1e-14)


def test_frame_analyze_overflow_reports_overflow(tmp_path, capsys):
    fpath = tmp_path / "huge.csv"
    fpath.write_text("0,1e308\n1e308,0\n1e308,1e308\n")
    spath = write_matrix(tmp_path / "f.json", [[1.0, 2.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(capsys, "frame-analyze", "--input", str(fpath), "--signal", spath)
    assert (code, err, json.loads(out)["error"]) == (1, "", "overflow")


# ------------------------------------------------------------------- duals


def test_frame_dual_canonical(tmp_path, capsys):
    path = write_matrix(
        tmp_path / "f.json", [[1.0, 0.0], [1.0 / np.sqrt(2), 1.0 / np.sqrt(2)]]
    )
    report = out_json(capsys, "frame-dual", "--input", path)
    dual = matrix_from_json(report)
    assert np.allclose(dual, [[1.0, -1.0], [0.0, np.sqrt(2.0)]], atol=1e-12)


def test_frame_dual_with_free_param(tmp_path, capsys):
    fpath = write_matrix(tmp_path / "f.json", REDUNDANT)
    mpath = write_matrix(tmp_path / "m.json", [[2.0, -1.0, -1.0], [0.0, 1.0, 0.0]])
    report = out_json(capsys, "frame-dual", "--input", fpath, "--param", mpath)
    dual = matrix_from_json(report)
    assert np.allclose(dual, [[2.0, 0.0], [-1.0, 1.0], [-1.0, 0.0]], atol=1e-12)


def test_frame_dual_round_trip_reconstructs(tmp_path, capsys):
    # dual written by the CLI, read back to synthesize the original signal
    from framekit import Frame, analyze, reconstruct

    fpath = write_matrix(tmp_path / "f.json", REDUNDANT)
    dual_path = tmp_path / "dual.json"
    code, out, _ = run_cli(
        capsys, "frame-dual", "--input", fpath, "--output", str(dual_path)
    )
    assert code == 0 and out == ""
    dual = Frame.from_vectors(matrix_from_json(json.loads(dual_path.read_text())))
    frame = Frame.from_vectors(REDUNDANT)
    signal = np.array([0.3 - 1.0j, 2.0 + 0.25j])
    rec = reconstruct(frame, dual, analyze(frame, signal))
    assert np.allclose(rec, signal, atol=1e-10)


# --------------------------------------------------------- tighten/naimark


def test_frame_tighten(tmp_path, capsys):
    path = write_matrix(tmp_path / "mb.json", MB_VECTORS)
    report = out_json(capsys, "frame-tighten", "--input", path)
    tight = matrix_from_json(report)
    assert np.allclose(tight, np.sqrt(2.0 / 3.0) * np.asarray(MB_VECTORS), atol=1e-12)


def test_frame_naimark(tmp_path, capsys):
    vectors = np.sqrt(2.0 / 3.0) * np.asarray(MB_VECTORS)
    path = write_matrix(tmp_path / "t.json", vectors)
    report = out_json(capsys, "frame-naimark", "--input", path)
    assert report["subspace_dim"] == 2
    u = matrix_from_json(report["unitary"])
    assert u.shape == (3, 3)
    assert np.allclose(u.conj().T @ u, np.eye(3), atol=1e-10)
    assert np.allclose(u[:, :2], np.conj(vectors), atol=1e-10)


def test_frame_naimark_rejects_loose_frame(tmp_path, capsys):
    path = write_matrix(tmp_path / "mb.json", MB_VECTORS)
    assert out_error(capsys, "frame-naimark", "--input", path) == "not_tight_unit"


# -------------------------------------------------------------- exactness


def test_frame_exactness(tmp_path, capsys):
    path = write_matrix(tmp_path / "f.json", REDUNDANT)
    report = out_json(capsys, "frame-exactness", "--input", path)
    assert report["classification"] == "inexact"
    assert np.allclose(report["diagonal"], 2.0 / 3.0, atol=1e-12)

    path = write_matrix(tmp_path / "b.json", np.eye(2))
    report = out_json(capsys, "frame-exactness", "--input", path)
    assert report["classification"] == "exact"


def test_frame_exactness_of_a_tall_frame_stays_small(tmp_path):
    # a K x K range projection of 20000 vectors would take 6.4 GB per copy
    rng = np.random.default_rng(67)
    path = tmp_path / "tall.csv"
    path.write_text("\n".join("%r,%r" % tuple(row) for row in rng.standard_normal((20000, 2)).tolist()))
    code, out, err, seconds, peak = spawn_cli("frame-exactness", "--input", str(path))
    assert code == 0 and err == b""
    assert len(json.loads(out)["diagonal"]) == 20000
    assert seconds < 2.0 and peak < 100 * 1024, (seconds, peak)


def test_gabor_check_at_the_size_limit_builds_only_the_system():
    # the 16384 x 1024 system takes 268 MB; its dual's matrix would double that
    argv = ("gabor-check", "--proto", "gaussian", "--n", "1024", "--shift", "8", "--mods", "128")
    code, out, err, _seconds, peak = spawn_cli(*argv)
    assert code == 0 and err == b""
    assert json.loads(out)["wh_structure"] is True
    assert peak < 400 * 1024, peak


def test_frame_exactness_nonspanning(tmp_path, capsys):
    path = write_matrix(tmp_path / "f.json", [[1.0, 0.0], [2.0, 0.0]])
    assert out_error(capsys, "frame-exactness", "--input", path) == "not_a_frame"


# ------------------------------------------------------------------ usage


def test_usage_errors(tmp_path, capsys):
    assert run_cli(capsys)[0] == 2  # no verb
    assert run_cli(capsys, "frame-bounds")[0] == 2  # missing --input
    assert run_cli(capsys, "no-such-verb")[0] == 2
    path = write_matrix(tmp_path / "f.json", np.eye(2))
    code, out, err = run_cli(capsys, "frame-dual", "--input", path, "--format", "xml")
    assert (code, out) == (2, "") and "invalid choice" in err


def test_format_only_where_the_report_has_a_csv_form(tmp_path, capsys):
    frame = write_matrix(tmp_path / "mb.json", MB_VECTORS)
    unit = write_matrix(tmp_path / "unit.json", np.array(MB_VECTORS) * np.sqrt(2.0 / 3.0))
    signal = write_matrix(tmp_path / "f.json", [[0.0, 1.0]])
    gabor_argv = ["--proto", "gaussian", "--n", "8", "--shift", "2", "--mods", "4"]
    sample_argv = ["--n", "8", "--band", "1"]
    for argv in (
        ["frame-analyze", "--input", frame, "--signal", signal],
        ["frame-dual", "--input", frame],
        ["frame-tighten", "--input", frame],
        ["gabor-build", *gabor_argv],
        ["gabor-dual", *gabor_argv],
    ):
        report = out_json(capsys, *argv, "--format", "json")
        want = matrix_csv_text(matrix_from_json(report)) + "\n"
        assert run_cli(capsys, *argv, "--format", "csv") == (0, want, ""), argv
    sweep = ["sample-sweep", *sample_argv, "--periods", "2,1", "--trials", "3"]
    code, want, _ = run_cli(capsys, *sweep)
    assert code == 0 and want.startswith("oversampling_factor,analytic_mse,mc_mse,stderr\n")
    assert run_cli(capsys, *sweep, "--format", "csv") == (0, want, "")
    # a verb whose report is JSON only refuses the flag before reading anything
    for argv in (
        ["frame-bounds", "--input", frame],
        ["frame-naimark", "--input", unit],
        ["frame-exactness", "--input", frame],
        ["gabor-check", *gabor_argv],
        ["sample-reconstruct", *sample_argv, "--period", "2"],
        ["sample-mse", *sample_argv, "--period", "2", "--trials", "3"],
    ):
        assert run_cli(capsys, *argv)[0] == 0, argv
        for fmt in ("csv", "json"):
            code, out, err = run_cli(capsys, *argv, "--format", fmt)
            assert (code, out) == (2, ""), argv
            assert err.splitlines()[-1] == "framekit: error: unrecognized arguments: --format %s" % fmt


def test_sample_reconstruct_takes_no_noise_settings(tmp_path, capsys):
    argv = ["sample-reconstruct", "--n", "8", "--band", "1", "--period", "2"]
    code, want, _ = run_cli(capsys, *argv)
    assert code == 0 and json.loads(want)["pr"] is True
    for flag in ("--sigma2", "--trials"):
        code, out, err = run_cli(capsys, *argv, flag, "3")
        assert (code, out) == (2, "")
        assert err.splitlines()[-1] == "framekit: error: unrecognized arguments: %s 3" % flag
    # their config values are not read, so bad ones are no error
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n": 8, "band": 1, "period": 2, "sigma2": "x", "trials": "many"}))
    assert run_cli(capsys, "sample-reconstruct", "--input", str(cfg)) == (0, want, "")
    assert out_error(capsys, "sample-mse", "--input", str(cfg)) == "parse_error"


def test_file_errors(tmp_path, capsys):
    missing = str(tmp_path / "nope.json")
    assert out_error(capsys, "frame-bounds", "--input", missing) == "file_not_found"
    # a path through a file, and a name over the file system's limit
    below_a_file = write_matrix(tmp_path / "mb.json", MB_VECTORS) + "/x"
    for path in (below_a_file, str(tmp_path / ("a" * 300))):
        for argv in (
            ["frame-bounds", "--input", path],
            ["gabor-dual", "--proto", path, "--n", "4", "--shift", "1", "--mods", "4"],
            ["sample-mse", "--input", path],
        ):
            code, out, err = run_cli(capsys, *argv)
            assert (code, err, json.loads(out)["error"]) == (1, "", "file_not_found"), argv
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert out_error(capsys, "frame-bounds", "--input", str(bad)) == "parse_error"
    garbage = tmp_path / "g.csv"
    garbage.write_text("1,foo\n")
    assert out_error(capsys, "frame-bounds", "--input", str(garbage)) == "parse_error"


# ------------------------------------------------------------------- gabor


def test_gabor_build(tmp_path, capsys):
    report = out_json(
        capsys, "gabor-build", "--proto", "delta", "--n", "4", "--shift", "2",
        "--mods", "2",
    )
    vectors = matrix_from_json(report)
    assert vectors.shape == (4, 4)
    assert np.allclose(vectors[0], [1, 0, 0, 0])
    assert np.allclose(vectors[1], [0, 0, 1, 0])  # l inner: shift before modulation
    # the report bytes are the per-element walk's, in JSON and CSV
    rng = np.random.default_rng(211)
    path = write_matrix(tmp_path / "g.json", [rng.standard_normal(6) + 1j * rng.standard_normal(6)])
    params = gabor.GaborParams(length=6, shift=2, mods=3)
    system = gabor.build_gabor_frame(load_vector(path), params).vectors
    geometry = ["--proto", path, "--n", "6", "--shift", "2", "--mods", "3"]
    want = report_oracle.dumps_report(matrix_to_json(system)) + "\n"
    assert run_cli(capsys, "gabor-build", *geometry)[:2] == (0, want)
    want = report_oracle.matrix_csv_text(system) + "\n"
    assert run_cli(capsys, "gabor-build", *geometry, "--format", "csv")[:2] == (0, want)


def test_gabor_build_proto_from_file(tmp_path, capsys):
    ppath = tmp_path / "g.csv"
    ppath.write_text("1,2,3,4")
    report = out_json(
        capsys, "gabor-build", "--proto", str(ppath), "--n", "4", "--shift", "4",
        "--mods", "1",
    )
    assert np.allclose(matrix_from_json(report), [[1, 2, 3, 4]])


def test_gabor_dual_boxcar(capsys):
    report = out_json(
        capsys, "gabor-dual", "--proto", "boxcar", "--n", "4", "--shift", "1",
        "--mods", "4",
    )
    dual = matrix_from_json(report).reshape(-1)
    assert np.allclose(dual, 1.0 / 16.0, atol=1e-12)


def test_gabor_check_spanning(capsys):
    report = out_json(
        capsys, "gabor-check", "--proto", "gaussian", "--n", "6", "--shift", "2",
        "--mods", "3",
    )
    assert report["is_frame"] is True
    assert report["wh_structure"] is True


def test_gabor_check_undersampled(capsys):
    report = out_json(
        capsys, "gabor-check", "--proto", "delta", "--n", "4", "--shift", "2",
        "--mods", "1",
    )
    assert report["is_frame"] is False
    assert report["wh_structure"] is None


def test_gabor_unknown_proto_is_treated_as_path(capsys):
    assert (
        out_error(
            capsys, "gabor-build", "--proto", "hamming", "--n", "4", "--shift", "1",
            "--mods", "4",
        )
        == "file_not_found"
    )


def test_gabor_bad_geometry(capsys):
    assert (
        out_error(
            capsys, "gabor-build", "--proto", "delta", "--n", "6", "--shift", "4",
            "--mods", "2",
        )
        == "dimension_mismatch"
    )


# ---------------------------------------------------------------- sampling


def test_sample_reconstruct_flags(capsys):
    report = out_json(
        capsys, "sample-reconstruct", "--n", "64", "--band", "4", "--period", "4"
    )
    assert report["pr"] is True
    assert report["max_abs_error"] < 1e-9
    assert report["filter"] == "ideal" and report["seed"] == 0


def test_sample_mse_config_file(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n": 64, "band": 4, "period": 4, "trials": 100}))
    report = out_json(capsys, "sample-mse", "--input", str(cfg))
    assert report["analytic_mse"] == pytest.approx(9.0 / 16.0, rel=1e-12)
    assert report["oversampling_factor"] == pytest.approx(16.0 / 9.0, rel=1e-12)
    assert report["inband_mse"] == pytest.approx(9.0 / 16.0, rel=1e-12)
    assert report["outband_mse"] == 0.0
    assert report["trials"] == 100
    assert abs(report["mc_mse"] - report["analytic_mse"]) < 5.0 * report["stderr"]


def test_sample_mse_flag_overrides_config(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n": 64, "band": 4, "period": 4, "trials": 50}))
    report = out_json(capsys, "sample-mse", "--input", str(cfg), "--period", "2")
    assert report["period"] == 2
    assert report["analytic_mse"] == pytest.approx(9.0 / 32.0, rel=1e-12)


def test_sample_mse_missing_required(capsys):
    code, _out, err = run_cli(capsys, "sample-mse", "--n", "64", "--band", "4")
    assert code == 2 and "period" in err


def test_sample_bad_config_values(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n": "abc", "band": 4, "period": 4}))
    assert out_error(capsys, "sample-mse", "--input", str(cfg)) == "parse_error"
    cfg.write_text(json.dumps({"n": 64.5, "band": 4, "period": 4}))
    assert out_error(capsys, "sample-mse", "--input", str(cfg)) == "parse_error"
    cfg.write_text(json.dumps([1, 2]))
    assert out_error(capsys, "sample-mse", "--input", str(cfg)) == "parse_error"


def test_sample_aliasing_error(capsys):
    assert (
        out_error(capsys, "sample-mse", "--n", "8", "--band", "2", "--period", "4")
        == "aliasing"
    )


def test_sample_mse_deterministic(capsys):
    argv = ["sample-mse", "--n", "32", "--band", "2", "--period", "2",
            "--trials", "60", "--seed", "5"]
    code_a, out_a, _ = run_cli(capsys, *argv)
    code_b, out_b, _ = run_cli(capsys, *argv)
    assert code_a == code_b == 0
    assert out_a == out_b


def test_sample_filter_file(tmp_path, capsys):
    from framekit.sampling import SamplingModel, ideal_lowpass

    model = SamplingModel(size=16, band=1, period=4)
    impulse = np.fft.ifft(ideal_lowpass(model).spectrum).reshape(1, -1)
    fpath = tmp_path / "h.json"
    fpath.write_text(dumps_report(matrix_to_json(impulse)))
    report = out_json(
        capsys, "sample-reconstruct", "--n", "16", "--band", "1", "--period", "4",
        "--filter", str(fpath),
    )
    assert report["pr"] is True and report["max_abs_error"] < 1e-9

    short = tmp_path / "short.csv"
    short.write_text("1,2,3")
    assert (
        out_error(
            capsys, "sample-reconstruct", "--n", "16", "--band", "1", "--period", "4",
            "--filter", str(short),
        )
        == "parse_error"
    )


def test_sample_sweep_reads_the_filter_file_once(tmp_path, capsys, monkeypatch):
    impulse = np.fft.ifft(sampling.ideal_lowpass(sampling.SamplingModel(size=16, band=1, period=4)).spectrum)
    fpath = tmp_path / "h.csv"
    fpath.write_text(matrix_csv_text(impulse.reshape(1, -1)))
    loads = []

    def counted(path):
        loads.append(path)
        return load_vector(path)

    monkeypatch.setattr(cli, "load_vector", counted)
    # the filter's spectrum does not depend on the period: one FFT per sweep
    transforms = []
    from_impulse = sampling.ReconFilter.from_impulse.__func__

    def transformed(cls, impulse):
        transforms.append(len(impulse))
        return from_impulse(cls, impulse)

    monkeypatch.setattr(sampling.ReconFilter, "from_impulse", classmethod(transformed))
    code, out, _ = run_cli(capsys, "sample-sweep", "--n", "16", "--band", "1", "--periods", "4,2,1",
                           "--trials", "3", "--filter", str(fpath))
    assert code == 0 and len(out.strip().splitlines()) == 4
    assert loads == [str(fpath)]
    assert transforms == [16]


def test_sample_sweep_csv(capsys):
    code, out, _ = run_cli(
        capsys, "sample-sweep", "--n", "64", "--band", "4", "--periods", "4,2,1",
        "--trials", "40",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "oversampling_factor,analytic_mse,mc_mse,stderr"
    assert len(lines) == 4
    analytic = [line.split(",")[1] for line in lines[1:]]
    assert analytic == ["0.5625", "0.28125", "0.140625"]
    factors = [float(line.split(",")[0]) for line in lines[1:]]
    assert factors == pytest.approx([16.0 / 9.0, 32.0 / 9.0, 64.0 / 9.0])


def test_sample_sweep_draws_the_signal_once(capsys, monkeypatch):
    draws = []
    real = sampling.make_bandlimited

    def counting(*args):
        draws.append(args)
        return real(*args)

    monkeypatch.setattr(sampling, "make_bandlimited", counting)
    argv = ("sample-sweep", "--n", "64", "--band", "4", "--periods", "4,2,1", "--trials", "40")
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0 and draws == [(64, 4, 0)]
    # a bad first period is still reported before a bad band
    code, out, _ = run_cli(capsys, "sample-sweep", "--n", "8", "--band", "10", "--periods", "3")
    assert code == 1 and json.loads(out)["detail"] == "period 3 must divide size 8"
    assert draws == [(64, 4, 0)]


def test_sample_sweep_json(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n": 32, "band": 1, "periods": [2, 1], "trials": 30}))
    code, out, _ = run_cli(capsys, "sample-sweep", "--input", str(cfg), "--format", "json")
    assert code == 0
    rows = json.loads(out)
    assert len(rows) == 2
    assert rows[0]["analytic_mse"] == pytest.approx(3.0 / 16.0, rel=1e-12)


def test_sample_sweep_period_errors(tmp_path, capsys):
    code, _out, _err = run_cli(
        capsys, "sample-sweep", "--n", "64", "--band", "4", "--periods", "a,b"
    )
    assert code == 2
    assert run_cli(capsys, "sample-sweep", "--n", "64", "--band", "4")[0] == 2
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n": 64, "band": 4, "periods": [4, "x"]}))
    assert out_error(capsys, "sample-sweep", "--input", str(cfg)) == "parse_error"


def test_sample_sweep_csv_matches_the_json_values(capsys):
    argv = ("sample-sweep", "--n", "32", "--band", "2", "--periods", "4,2,1", "--trials", "25")
    rows = out_json(capsys, *argv, "--format", "json")
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    want = [",".join(report_oracle.format_float(row[key]) for key in row) for row in rows]
    assert out == "\n".join(["oversampling_factor,analytic_mse,mc_mse,stderr"] + want) + "\n"


def test_sample_sweep_budget_counts_its_periods(tmp_path, capsys, monkeypatch):
    # every listed period runs all the trials, a repeated period too
    real = sampling.monte_carlo_mse
    started = []

    def few_trials(signal, filt, model, sigma2, trials, seed):
        started.append(model.period)
        return real(signal, filt, model, sigma2, 3, seed)

    monkeypatch.setattr(sampling, "monte_carlo_mse", few_trials)
    trials = sampling.MAX_TRIAL_SAMPLES // 16  # two periods of N = 8 fill the budget
    argv = ["sample-sweep", "--n", "8", "--band", "1", "--trials", str(trials)]
    assert run_cli(capsys, *argv, "--periods", "2,1")[0] == 0 and started == [2, 1]
    assert out_error(capsys, *argv, "--periods", "2,2,2") == "too_large"
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n": 8, "band": 1, "periods": [2, 2, 2], "trials": trials}))
    assert out_error(capsys, "sample-sweep", "--input", str(cfg)) == "too_large"
    assert started == [2, 1]


def test_sampling_request_errors_keep_their_order(tmp_path, capsys):
    huge = "100000000000"
    # n and band resolve before the trial budget, the budget before the period
    assert run_cli(capsys, "sample-mse", "--n", "8", "--trials", huge)[0] == 2
    assert out_error(capsys, "sample-mse", "--n", "8", "--band", "1", "--trials", huge) == "too_large"
    assert out_error(capsys, "sample-sweep", "--n", "8", "--band", "1", "--trials", huge) == "too_large"
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n": "x", "band": 1}))
    assert out_error(capsys, "sample-mse", "--input", str(cfg)) == "parse_error"
    assert out_json(capsys, "sample-mse", "--input", str(cfg), "--n", "8", "--period", "2",
                    "--trials", "3")["n"] == 8
    # the model reports a bad band before the filter file is read
    code, out, _ = run_cli(capsys, "sample-mse", "--n", "8", "--band", "9", "--period", "2",
                           "--filter", str(tmp_path / "missing.json"))
    assert code == 1 and json.loads(out)["detail"] == "band 9 outside centered bin range of size 8"


def test_sample_config_rejections_keep_their_codes(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    for config, detail in (
        ({"n": True, "band": 1, "period": 2}, "bad config value for 'n': True"),
        ({"n": 8, "band": 1, "period": 2, "trials": 2.5}, "bad config value for 'trials': 2.5"),
        ({"n": 8, "band": 1, "periods": []}, "config 'periods' must be a nonempty list"),
        ({"n": 8, "band": 1, "period": 2, "sigma2": 10**400}, "bad config value for 'sigma2': %r" % 10**400),
        # a value is read only as the JSON type of its flag: no string is a
        # number, no bool is a variance and no number is a filter
        ({"n": "8", "band": 1, "period": 2}, "bad config value for 'n': '8'"),
        ({"n": 8, "band": 1, "periods": ["2", " 4 "]}, "bad config periods ['2', ' 4 ']"),
        ({"n": 8, "band": 1, "period": 2, "sigma2": True}, "bad config value for 'sigma2': True"),
        ({"n": 8, "band": 1, "period": 2, "sigma2": "1.5"}, "bad config value for 'sigma2': '1.5'"),
        ({"n": 8, "band": 1, "period": 2, "filter": 5}, "bad config value for 'filter': 5"),
    ):
        cfg.write_text(json.dumps(config))
        verb = "sample-sweep" if "periods" in config else "sample-mse"
        code, out, _ = run_cli(capsys, verb, "--input", str(cfg))
        assert (code, json.loads(out)) == (1, {"error": "parse_error", "detail": detail})
    # an integral float is an integer, and an integer a variance
    cfg.write_text(json.dumps({"n": 8.0, "band": 1, "period": 2.0, "trials": 3.0, "sigma2": 2}))
    report = out_json(capsys, "sample-mse", "--input", str(cfg))
    assert (report["n"], report["period"], report["trials"], report["sigma2"]) == (8, 2, 3, 2.0)
    # usage errors found after parsing print the verb's usage block first, as
    # argparse's own do
    for argv, line in (
        (["sample-sweep", "--periods", ","], "empty --periods"),
        (["sample-sweep", "--periods", "2,x"], "bad --periods '2,x'"),
        (["sample-sweep"], "missing 'periods' (give --periods or put it in the config file)"),
        (["sample-mse"], "missing 'period' (give the flag or put it in the config file)"),
    ):
        code, out, err = run_cli(capsys, *argv[:1], "--n", "8", "--band", "1", *argv[1:])
        assert (code, out) == (2, "") and err.startswith("usage: framekit %s " % argv[0]), argv
        assert err.splitlines()[-1] == "framekit %s: error: %s" % (argv[0], line)


def test_huge_sigma2_reports_overflow(capsys):
    argvs = (
        ["sample-mse", "--n", "8", "--band", "1", "--period", "2", "--sigma2", "1e308", "--trials", "3"],
        ["sample-sweep", "--n", "8", "--band", "1", "--periods", "2,1", "--sigma2", "1e308", "--trials", "3"],
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for argv in argvs:
            code, out, err = run_cli(capsys, *argv)
            assert (code, err, json.loads(out)["error"]) == (1, "", "overflow"), argv
    for argv in argvs:
        code, out, err, _, _ = spawn_cli(*argv, text=True)
        assert (code, err, json.loads(out)["error"]) == (1, "", "overflow"), argv


def test_large_sigma2_keeps_a_finite_standard_error(capsys):
    # the per-trial MSEs are near sigma2; their squared deviations are not
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for sigma2 in ("1e160", "1e300"):
            report = out_json(
                capsys, "sample-mse", "--n", "8", "--band", "1", "--period", "2",
                "--trials", "3", "--sigma2", sigma2,
            )
            assert np.isfinite([report["mc_mse"], report["stderr"]]).all()
            assert report["stderr"] / report["mc_mse"] == pytest.approx(0.20314177621236559 / 0.81395940768240183)


def test_standard_error_digits_are_unchanged(capsys):
    # bytes printed before the standard error was taken at a power-of-two scale
    code, out, _ = run_cli(capsys, "sample-mse", "--n", "8", "--band", "1", "--period", "2", "--trials", "3")
    assert code == 0
    assert out == (
        '{"n": 8, "band": 1, "period": 2, "oversampling_factor": 1.3333333333333333, "sigma2": 1, '
        '"trials": 3, "seed": 0, "filter": "ideal", "analytic_mse": 0.75, "mc_mse": 0.81395940768240183, '
        '"stderr": 0.20314177621236559, "inband_mse": 0.75, "outband_mse": 0}\n'
    )
    code, out, _ = run_cli(
        capsys, "sample-sweep", "--n", "32", "--band", "2", "--periods", "4,2,1", "--trials", "50", "--seed", "3"
    )
    assert code == 0
    assert out == (
        "oversampling_factor,analytic_mse,mc_mse,stderr\n"
        "1.6000000000000001,0.625,0.63088645357397322,0.03819920018020543\n"
        "3.2000000000000002,0.3125,0.29953169003356067,0.016678593061276267\n"
        "6.4000000000000004,0.15625,0.14445249624873782,0.0074444119203016844\n"
    )


UNTRUSTED_INPUTS = (
    (["frame-bounds", "--input", "{binary}"], "parse_error"),
    (["frame-bounds", "--input", "{deep}"], "parse_error"),
    (["sample-mse", "--input", "{binary}"], "parse_error"),
    (["sample-sweep", "--input", "{deep}"], "parse_error"),
    (["sample-mse", "--n", "8", "--band", "1", "--period", "2", "--seed", "-1"], "dimension_mismatch"),
    (["sample-reconstruct", "--n", "8", "--band", "1", "--period", "2", "--seed", "-1"], "dimension_mismatch"),
    (["sample-sweep", "--n", "8", "--band", "1", "--periods", "2", "--seed", "-1"], "dimension_mismatch"),
    (["sample-mse", "--n", "8", "--band", "1", "--period", "2", "--sigma2", "nan"], "dimension_mismatch"),
    (["sample-mse", "--n", "8", "--band", "1", "--period", "2", "--sigma2", "inf"], "dimension_mismatch"),
    (["sample-sweep", "--n", "8", "--band", "1", "--periods", "2,1", "--sigma2", "inf"], "dimension_mismatch"),
    # numbers beyond float64's range: 1e400 dimensions, a 400-digit entry or sigma2
    (["frame-bounds", "--input", "{huge_dims}"], "parse_error"),
    (["frame-bounds", "--input", "{huge_entry}"], "parse_error"),
    (["gabor-dual", "--proto", "{huge_entry}", "--n", "2", "--shift", "1", "--mods", "2"], "parse_error"),
    (["sample-mse", "--input", "{huge_sigma2}"], "parse_error"),
    # a dimension with a fractional part, dimensions given as strings
    (["frame-bounds", "--input", "{frac_dims}"], "parse_error"),
    (["frame-bounds", "--input", "{str_dims}"], "parse_error"),
)


def test_untrusted_inputs_report_typed_errors(tmp_path, capsys):
    binary = tmp_path / "binary.json"
    binary.write_bytes(b'{"n": 8, \xff}')
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 200_000 + "]" * 200_000)
    huge = "1" + "0" * 400
    files = {"binary": binary, "deep": deep}
    for name, text in (
        ("huge_dims", '{"rows": 1e400, "cols": 1, "data": [[1, 0]]}'),
        ("huge_entry", '{"rows": 1, "cols": 2, "data": [[%s, 0], [1, 0]]}' % huge),
        ("huge_sigma2", '{"n": 8, "band": 1, "period": 2, "trials": 3, "sigma2": %s}' % huge),
        ("frac_dims", '{"rows": 2.7, "cols": 1, "data": [[1, 0], [0, 0]]}'),
        ("str_dims", '{"rows": "2", "cols": " 1 ", "data": [[1, 0], [0, 0]]}'),
    ):
        files[name] = tmp_path / (name + ".json")
        files[name].write_text(text)
    cases = [([a.format(**files) for a in argv], want) for argv, want in UNTRUSTED_INPUTS]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for argv, want in cases:
            code, out, err = run_cli(capsys, *argv)
            assert (code, err, json.loads(out)["error"]) == (1, "", want), argv
    # one process per kind: undecodable, deeply nested, seed, nan, inf, and
    # the three beyond float64's range
    for argv, want in (cases[i] for i in (0, 1, 4, 7, 8, 10, 11, 13)):
        code, out, err, _, _ = spawn_cli(*argv, text=True)
        assert (code, err, json.loads(out)["error"]) == (1, "", want), argv


# ------------------------------------------------------------------ output


def test_output_file_matches_stdout(tmp_path, capsys):
    path = write_matrix(tmp_path / "mb.json", MB_VECTORS)
    code, out, _ = run_cli(capsys, "frame-bounds", "--input", path)
    assert code == 0
    dest = tmp_path / "report.json"
    code, silent, _ = run_cli(
        capsys, "frame-bounds", "--input", path, "--output", str(dest)
    )
    assert code == 0 and silent == ""
    assert dest.read_text() == out


def test_output_into_missing_directory_is_a_file_error(tmp_path, capsys):
    path = write_matrix(tmp_path / "mb.json", MB_VECTORS)
    dest = tmp_path / "missing" / "out.json"
    code, out, err = run_cli(capsys, "frame-bounds", "--input", path, "--output", str(dest))
    assert code == 1 and err == ""
    assert json.loads(out)["error"] == "file_not_found"
    assert not dest.parent.exists()
    # a path through a file, a name over the file system's limit, a full device
    dests = [path + "/out.json", str(tmp_path / ("a" * 300))]
    if os.path.exists("/dev/full"):
        dests.append("/dev/full")
    for dest in dests:
        code, out, err = run_cli(capsys, "frame-bounds", "--input", path, "--output", dest)
        assert (code, err, json.loads(out)["error"]) == (1, "", "file_not_found"), dest


def test_closed_stdout_ends_without_a_traceback():
    # a 1024 x 32 report is far larger than a pipe buffer, so the write
    # is still in progress when the reader goes away
    command, env = cli_command("gabor-build", "--proto", "gaussian", "--n", "32", "--shift", "1", "--mods", "32")
    proc = subprocess.Popen(command, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    assert proc.stdout.read(16).startswith(b'{"rows": 1024')
    proc.stdout.close()
    code = proc.wait(timeout=60)
    err = proc.stderr.read()
    proc.stderr.close()
    assert code == 1
    assert b"Traceback" not in err and b"BrokenPipeError" not in err, err


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_full_stdout_ends_without_a_traceback():
    gabor_check = ["gabor-check", "--proto", "gaussian", "--n", "8", "--shift", "2"]
    # a report, then a domain-error report (3 does not divide 8)
    with open("/dev/full", "wb") as full:
        for mods in ("4", "3"):
            code, _, err, _, _ = spawn_cli(*gabor_check, "--mods", mods, stdout=full, text=True)
            assert code == 1, mods
            assert err.startswith("framekit: error: cannot write output: ")
            assert err.count("\n") == 1 and "Traceback" not in err, err
            # `> /dev/full 2>&1`: the stderr line cannot be written either
            assert spawn_cli(*gabor_check, "--mods", mods, stdout=full, stderr=subprocess.STDOUT)[0] == 1, mods


class _FullStream(io.TextIOBase):
    writes = 0

    def write(self, text):
        self.writes += 1
        raise OSError(errno.ENOSPC, "No space left on device")

    def flush(self):
        self.write("")


class _Exit(Exception):
    pass


def test_run_raises_the_failed_writes_own_error(monkeypatch):
    # run writes a report once and leaves a failed stdout to main: no second
    # report is tried, so the error chains nothing
    for mods in ("4", "3"):  # a report, then a domain-error report
        stream = _FullStream()
        monkeypatch.setattr(sys, "stdout", stream)
        with pytest.raises(OSError) as raised:
            cli.run(["gabor-check", "--proto", "gaussian", "--n", "8", "--shift", "2", "--mods", mods])
        assert (raised.value.errno, raised.value.__context__, stream.writes) == (errno.ENOSPC, None, 1)


def test_main_reaches_its_exit_when_stderr_is_full_too(monkeypatch):
    # with stdout and stderr both full, the stderr line fails as well; main
    # must still end through os._exit, not through a traceback and teardown
    def fake_exit(code):
        raise _Exit(code)

    monkeypatch.setattr(os, "_exit", fake_exit)
    monkeypatch.setattr(sys, "stdout", _FullStream())
    monkeypatch.setattr(sys, "stderr", _FullStream())
    for mods in ("4", "3"):  # a report, then a domain-error report
        monkeypatch.setattr(sys, "argv", ["framekit", "gabor-check", "--proto", "gaussian",
                                          "--n", "8", "--shift", "2", "--mods", mods])
        with pytest.raises(_Exit) as exit_:
            cli.main()
        assert exit_.value.args == (1,), mods


def test_main_keeps_the_report_and_the_exit_code(capsys):
    # main ends the process right after its flush; the bytes, the exit code
    # and the usage line must all be out by then (the other subprocess runs
    # in this file check exit 1)
    argv = ["gabor-build", "--proto", "gaussian", "--n", "64", "--shift", "2", "--mods", "32"]
    code, text, _ = run_cli(capsys, *argv)
    child_code, out, err, _, _ = spawn_cli(*argv)
    assert (child_code, err) == (code, b"") == (0, b"")
    assert out == text.encode("utf-8")
    code, out, err, _, _ = spawn_cli(*argv[:-2], text=True)
    assert (code, out) == (2, "")
    assert err.splitlines()[-1] == (
        "framekit gabor-build: error: the following arguments are required: --mods"
    )


def test_csv_format_for_matrix_reports(tmp_path, capsys):
    path = write_matrix(tmp_path / "f.json", np.eye(2))
    code, out, _ = run_cli(capsys, "frame-dual", "--input", path, "--format", "csv")
    assert code == 0
    assert out.strip().splitlines() == ["1+0i,0+0i", "0+0i,1+0i"]


# ----------------------------------------------------------- bad magnitudes


def test_csv_non_finite_cell_is_a_parse_error(tmp_path, capsys):
    path = tmp_path / "f.csv"
    path.write_text("1,nan\n0,1\n")
    code, out, _ = run_cli(capsys, "frame-bounds", "--input", str(path))
    assert code == 1
    assert json.loads(out) == {"error": "parse_error", "detail": "matrix entries must be finite"}


def test_frame_operator_overflow_reports_overflow(tmp_path, capsys):
    path = tmp_path / "huge.csv"
    path.write_text("1e308,0\n0,1e308\n1e308,1e308\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(capsys, "frame-bounds", "--input", str(path))
        assert code == 1 and err == ""
        assert json.loads(out) == {
            "error": "overflow",
            "detail": "frame operator overflows: entries too large for float64",
        }
        # S leaves float64, but no printed value does
        for verb in ("frame-dual", "frame-tighten", "frame-exactness"):
            code, out, err = run_cli(capsys, verb, "--input", str(path))
            assert code == 0 and err == "", verb
    code, out, err, _, _ = spawn_cli("frame-bounds", "--input", str(path), text=True)
    assert code == 1 and err == ""
    assert json.loads(out)["error"] == "overflow"


def test_frame_operator_underflow_reports_overflow(tmp_path, capsys):
    path = tmp_path / "tiny.csv"
    path.write_text("1e-160,0\n0,1e-160\n1e-160,1e-160\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(capsys, "frame-bounds", "--input", str(path))
        assert code == 1 and err == ""
        assert json.loads(out) == {
            "error": "overflow",
            "detail": "frame operator underflows: entries too small for float64",
        }
        # S underflows, but the dual (entries near 1e160) and the rest do not
        for verb in ("frame-dual", "frame-tighten", "frame-exactness"):
            code, out, err = run_cli(capsys, verb, "--input", str(path))
            assert code == 0 and err == "", verb
        code, out, _ = run_cli(capsys, "frame-dual", "--input", str(path))
        assert json.loads(out)["data"][0][0] == pytest.approx(2e160 / 3, rel=1e-14)


def test_size_limits_reject_before_allocation(capsys, monkeypatch):
    def no_alloc(*args, **kwargs):
        raise AssertionError("allocation attempted past the size guard")

    for module, name in (
        (gabor, "named_prototype"),
        (gabor, "build_gabor_frame"),
        (sampling, "ideal_lowpass"),
        (sampling, "make_bandlimited"),
        (sampling, "monte_carlo_mse"),
    ):
        monkeypatch.setattr(module, name, no_alloc)
    for argv in (
        ["gabor-build", "--proto", "delta", "--n", "1048576", "--shift", "1", "--mods", "1048576"],
        ["sample-mse", "--n", "8", "--band", "1", "--period", "2", "--trials", "100000000000"],
        ["sample-sweep", "--n", "8", "--band", "1", "--periods", "2,1", "--trials", "100000000000"],
        ["sample-sweep", "--n", "4096", "--band", "1", "--periods", "1,1", "--trials", "4096"],
        ["sample-reconstruct", "--n", "33554432", "--band", "1", "--period", "2"],
    ):
        assert out_error(capsys, *argv) == "too_large"
