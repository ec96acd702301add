"""End-to-end CLI checks: report contents, exit codes, determinism."""

import json
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

import framekit
import report_oracle
from framekit import cli, gabor, sampling
from framekit.serialization import (
    dumps_report,
    matrix_csv_text,
    matrix_from_json,
    matrix_to_json,
)

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


def test_frame_exactness_nonspanning(tmp_path, capsys):
    path = write_matrix(tmp_path / "f.json", [[1.0, 0.0], [2.0, 0.0]])
    assert out_error(capsys, "frame-exactness", "--input", path) == "not_a_frame"


# ------------------------------------------------------------------ usage


def test_usage_errors(tmp_path, capsys):
    assert run_cli(capsys)[0] == 2  # no verb
    assert run_cli(capsys, "frame-bounds")[0] == 2  # missing --input
    assert run_cli(capsys, "no-such-verb")[0] == 2
    path = write_matrix(tmp_path / "f.json", np.eye(2))
    assert run_cli(capsys, "frame-bounds", "--input", path, "--format", "xml")[0] == 2


def test_file_errors(tmp_path, capsys):
    missing = str(tmp_path / "nope.json")
    assert out_error(capsys, "frame-bounds", "--input", missing) == "file_not_found"
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
    impulse = ideal_lowpass(model).impulse.reshape(1, -1)
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
    assert out == "\n".join([cli.SWEEP_HEADER] + want) + "\n"


def test_sampling_request_errors_keep_their_order(tmp_path, capsys):
    huge = "100000000000"
    # n and band resolve before the trial budget, the budget before the period
    assert run_cli(capsys, "sample-mse", "--n", "8", "--trials", huge)[0] == 2
    assert out_error(capsys, "sample-mse", "--n", "8", "--band", "1", "--trials", huge) == "too_large"
    assert out_error(capsys, "sample-sweep", "--n", "8", "--band", "1", "--trials", huge) == "too_large"
    # sample-reconstruct draws one signal whatever the trial count
    report = out_json(capsys, "sample-reconstruct", "--n", "8", "--band", "1", "--period", "2",
                      "--trials", huge)
    assert report["pr"] is True
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n": "x", "band": 1}))
    assert out_error(capsys, "sample-mse", "--input", str(cfg)) == "parse_error"
    assert out_json(capsys, "sample-mse", "--input", str(cfg), "--n", "8", "--period", "2",
                    "--trials", "3")["n"] == 8
    # the model reports a bad band before the filter file is read
    code, out, _ = run_cli(capsys, "sample-mse", "--n", "8", "--band", "9", "--period", "2",
                           "--filter", str(tmp_path / "missing.json"))
    assert code == 1 and json.loads(out)["detail"] == "band 9 outside centered bin range of size 8"


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
)


def test_untrusted_inputs_report_typed_errors(tmp_path, capsys):
    binary = tmp_path / "binary.json"
    binary.write_bytes(b'{"n": 8, \xff}')
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 200_000 + "]" * 200_000)
    cases = [([a.format(binary=binary, deep=deep) for a in argv], want)
             for argv, want in UNTRUSTED_INPUTS]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for argv, want in cases:
            code, out, err = run_cli(capsys, *argv)
            assert (code, err, json.loads(out)["error"]) == (1, "", want), argv
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(framekit.__file__)))
    # one process per kind: undecodable, deeply nested, seed, nan, inf
    for argv, want in (cases[i] for i in (0, 1, 4, 7, 8)):
        proc = subprocess.run(
            [sys.executable, "-m", "framekit.cli", *argv],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert (proc.returncode, proc.stderr, json.loads(proc.stdout)["error"]) == (1, "", want), argv


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
        for verb in ("frame-bounds", "frame-dual", "frame-tighten", "frame-exactness"):
            code, out, err = run_cli(capsys, verb, "--input", str(path))
            assert code == 1 and err == ""
            assert json.loads(out)["error"] == "overflow"
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(framekit.__file__)))
    proc = subprocess.run(
        [sys.executable, "-m", "framekit.cli", "frame-bounds", "--input", str(path)],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 1 and proc.stderr == ""
    assert json.loads(proc.stdout)["error"] == "overflow"


def test_frame_operator_underflow_reports_overflow(tmp_path, capsys):
    path = tmp_path / "tiny.csv"
    path.write_text("1e-160,0\n0,1e-160\n1e-160,1e-160\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for verb in ("frame-bounds", "frame-dual", "frame-tighten", "frame-exactness"):
            code, out, err = run_cli(capsys, verb, "--input", str(path))
            assert code == 1 and err == ""
            assert json.loads(out) == {
                "error": "overflow",
                "detail": "frame operator underflows: entries too small for float64",
            }


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
        ["sample-reconstruct", "--n", "33554432", "--band", "1", "--period", "2"],
    ):
        assert out_error(capsys, *argv) == "too_large"
