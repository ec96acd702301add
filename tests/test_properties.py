"""Property tests of the paper's invariants across scales, shapes and unitary
maps, of the left-inverse family, and of the CLI's byte-determinism.

Frames are drawn from a hypothesis-chosen seed, so every example is a plain
numpy frame.  The scale s = 2^k is exact, so each tolerance follows from
float64 precision or the solver's stopping tolerance, times the condition
number where an inverse is involved.
"""

import contextlib
import io
import os
import tempfile

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from framekit import (
    Frame,
    canonical_dual,
    cli,
    frame_bounds,
    is_left_inverse,
    left_inverse,
    unitary_transform,
)
from framekit.hermitian import OFF_TOLERANCE
from framekit.serialization import dumps_report, matrix_to_json

from conftest import random_frame, random_unitary

PROPERTY = settings(max_examples=60, deadline=None, derandomize=True, database=None)
EPS = np.finfo(np.float64).eps

seeds = st.integers(min_value=0, max_value=2**32 - 1)
exponents = st.integers(min_value=-500, max_value=500)
dims = st.integers(min_value=1, max_value=6)


def any_frame(seed, dim, redundancy, complex_entries):
    """Gaussian vectors, possibly fewer than dim, so possibly not spanning."""
    rng = np.random.default_rng(seed)
    shape = (max(1, int(round(dim * redundancy))), dim)
    t = rng.standard_normal(shape)
    if complex_entries:
        t = t + 1j * rng.standard_normal(shape)
    return t


def spanning_frame(seed, dim):
    rng = np.random.default_rng(seed)
    return random_frame(rng, dim=dim)


def assert_bounds_close(got, want, rtol):
    scale = max(want.upper, got.upper)
    assert abs(got.upper - want.upper) <= rtol * scale
    assert abs(got.lower - want.lower) <= rtol * scale


@PROPERTY
@given(seeds, dims, st.floats(min_value=0.5, max_value=3.0), st.booleans(), exponents)
def test_bounds_scale_by_s_squared(seed, dim, redundancy, complex_entries, k):
    t = any_frame(seed, dim, redundancy, complex_entries)
    b = frame_bounds(Frame(t))
    scaled = frame_bounds(Frame(t * 2.0**k))
    assert_bounds_close(scaled, type(b)(b.lower * 4.0**k, b.upper * 4.0**k), 8 * dim * EPS)
    assert scaled.spans() == b.spans()


@PROPERTY
@given(seeds, dims, exponents)
def test_canonical_dual_scales_by_one_over_s(seed, dim, k):
    f = spanning_frame(seed, dim)
    b = frame_bounds(f)
    dual = canonical_dual(f).analysis
    scaled = canonical_dual(Frame(f.analysis * 2.0**k)).analysis
    tol = 16 * dim * EPS * (b.upper / b.lower) * np.max(np.abs(dual))
    assert np.max(np.abs(scaled * 2.0**k - dual)) <= tol


@PROPERTY
@given(seeds, dims, st.floats(min_value=0.5, max_value=3.0), exponents)
def test_bounds_invariant_under_unitary_maps(seed, dim, redundancy, k):
    t = any_frame(seed, dim, redundancy, True) * 2.0**k
    u = random_unitary(np.random.default_rng(seed + 1), dim)
    f = Frame(t)
    # the rotated frame operator differs from U S U^H by rounding of order
    # eps * ||S||, which moves each eigenvalue by at most that much
    assert_bounds_close(frame_bounds(unitary_transform(f, u)), frame_bounds(f), 64 * dim * EPS)


@PROPERTY
@given(seeds, dims, exponents)
def test_dual_of_the_dual_is_the_frame(seed, dim, k):
    f = Frame(spanning_frame(seed, dim).analysis * 2.0**k)
    b = frame_bounds(f)
    back = canonical_dual(canonical_dual(f)).analysis
    # each of the two inversions rests on a spectrum whose off-diagonal mass
    # the solver leaves below OFF_TOLERANCE * ||S||_F
    tol = 2 * OFF_TOLERANCE * (b.upper / b.lower) * np.max(np.abs(f.analysis))
    assert np.max(np.abs(back - f.analysis)) <= tol


@PROPERTY
@given(seeds, dims)
def test_left_inverse_family(seed, dim):
    f = spanning_frame(seed, dim)
    rng = np.random.default_rng(seed + 2)
    m = rng.standard_normal((dim, f.num_vectors)) + 1j * rng.standard_normal((dim, f.num_vectors))
    b = frame_bounds(f)
    cond = b.upper / b.lower
    # pinv rests on a spectrum of S whose off-diagonal mass the solver leaves
    # below OFF_TOLERANCE * ||S||_F <= OFF_TOLERANCE * sqrt(N) * upper, so
    # E = pinv T - I has norm below delta (the factor 2 * sqrt(N) covers
    # rounding); L T - I = E - M T E, and L(T) rebuilt from L differs from L
    # by (I - L T) pinv, where ||pinv|| = 1 / sqrt(lower)
    delta = 2 * OFF_TOLERANCE * dim * cond
    tol = delta * (1 + np.linalg.norm(m) * np.sqrt(b.upper))
    left = left_inverse(f, m).matrix
    assert is_left_inverse(f, left, tol=tol)
    again = left_inverse(f, left).matrix
    assert np.max(np.abs(again - left)) <= tol / np.sqrt(b.lower)


FRAME_VERBS = ("frame-bounds", "frame-dual", "frame-tighten", "frame-naimark", "frame-exactness")
GABOR_VERBS = ("gabor-build", "gabor-dual", "gabor-check")
GABOR_PARAMS = [(m, t, k) for m in (4, 6, 8, 12) for t in range(1, m + 1) if m % t == 0
                for k in (1, 2, 3, 4, 6)]


def _run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.run(argv)
    return code, out.getvalue()


def _assert_deterministic(argv, dest):
    first = _run(argv)
    assert _run(argv) == first, argv
    code, silent = _run(argv + ["--output", dest])
    # an error report still goes to stdout
    assert (code, silent) == ((0, "") if first[0] == 0 else first), argv
    if code == 0:
        with open(dest, encoding="utf-8") as handle:
            assert handle.read() == first[1], argv


@settings(PROPERTY, max_examples=12)
@given(seeds, st.integers(min_value=1, max_value=4), st.floats(min_value=0.5, max_value=2.5),
       st.sampled_from(GABOR_PARAMS), st.sampled_from(["gaussian", "boxcar", "delta", "file"]),
       st.sampled_from(["json", "csv"]))
def test_cli_reports_are_byte_deterministic(seed, dim, redundancy, gabor_params, proto, fmt):
    rng = np.random.default_rng(seed)
    m, t, k = gabor_params
    with tempfile.TemporaryDirectory() as tmp:
        path = lambda name: os.path.join(tmp, name)  # noqa: E731
        vectors = any_frame(seed, dim, redundancy, True)
        for name, rows in (("frame.json", vectors), ("signal.json", rng.standard_normal((1, dim))),
                           ("param.json", rng.standard_normal((dim, vectors.shape[0]))),
                           ("proto.json", rng.standard_normal((m, 1)) + 1j)):
            with open(path(name), "w", encoding="utf-8") as handle:
                handle.write(dumps_report(matrix_to_json(rows)))
        argvs = [[verb, "--input", path("frame.json")] for verb in FRAME_VERBS]
        argvs.append(["frame-analyze", "--input", path("frame.json"), "--signal", path("signal.json")])
        argvs.append(["frame-dual", "--input", path("frame.json"), "--param", path("param.json")])
        source = path("proto.json") if proto == "file" else proto
        argvs += [[verb, "--proto", source, "--n", str(m), "--shift", str(t), "--mods", str(k)]
                  for verb in GABOR_VERBS]
        for argv in argvs:
            _assert_deterministic(argv + ["--format", fmt], path("report.out"))
