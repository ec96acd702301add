"""Property tests of the paper's invariants across scales, shapes and unitary maps.

Frames are drawn from a hypothesis-chosen seed, so every example is a plain
numpy frame.  The scale s = 2^k is exact, so each tolerance follows from
float64 precision or the solver's stopping tolerance, times the condition
number where an inverse is involved.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from framekit import Frame, canonical_dual, frame_bounds, unitary_transform
from framekit.hermitian import OFF_TOLERANCE

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
