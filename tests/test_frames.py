"""Frame operations: worked small examples plus randomized invariants."""

import re
import warnings

import numpy as np
import pytest

from framekit import (
    DimensionMismatchError,
    ExactnessProfile,
    Frame,
    FrameBounds,
    NotAFrameError,
    NotTightUnitError,
    NotUnitaryError,
    NumericOverflowError,
    analyze,
    canonical_dual,
    check_biorthonormal,
    exactness_profile,
    frame_bounds,
    frame_operator,
    frame_threshold,
    harmonic_frame,
    is_left_inverse,
    jacobi_eigh,
    left_inverse,
    naimark_dilate,
    pseudo_inverse,
    range_projection,
    reconstruct,
    remove_vector,
    tighten,
    unitary_transform,
)
from framekit.frames import FRAME_RTOL

from conftest import random_frame, random_unitary, random_vector

RT3 = np.sqrt(3.0)


def basis2():
    return Frame.from_vectors([[1.0, 0.0], [0.0, 1.0]])


def skewed_basis():
    # {e1, (e1+e2)/sqrt(2)}: a basis, far from tight
    return Frame.from_vectors([[1.0, 0.0], [1.0 / np.sqrt(2), 1.0 / np.sqrt(2)]])


def mercedes_benz():
    return Frame.from_vectors(
        [[0.0, 1.0], [-RT3 / 2, -0.5], [RT3 / 2, -0.5]]
    )


def redundant_basis():
    # {e1, e2, e1 - e2}: three vectors in C^2, bounds (1, 3)
    return Frame.from_vectors([[1.0, 0.0], [0.0, 1.0], [1.0, -1.0]])


# ---------------------------------------------------------------- analysis


def test_analyze_identity_basis():
    c = analyze(basis2(), [3.0, 4.0])
    assert np.allclose(c, [3.0, 4.0])


def test_analyze_skewed_basis():
    c = analyze(skewed_basis(), [1.0, 1.0])
    assert np.allclose(c, [1.0, np.sqrt(2.0)])


def test_analyze_mercedes_benz():
    c = analyze(mercedes_benz(), [0.0, 1.0])
    assert np.allclose(c, [1.0, -0.5, -0.5])


def test_analyze_conjugates_vectors():
    f = Frame.from_vectors([[1j, 0.0]])
    # <f, g> is conjugate-linear in g
    assert np.allclose(analyze(f, [1.0, 0.0]), [-1j])


def test_analyze_rejects_wrong_length():
    with pytest.raises(DimensionMismatchError):
        analyze(basis2(), [1.0, 2.0, 3.0])


# ----------------------------------------------------------- frame operator


def test_frame_operator_mercedes_benz():
    s = frame_operator(mercedes_benz())
    assert np.allclose(s, 1.5 * np.eye(2), atol=1e-14)


def test_frame_operator_skewed_basis():
    s = frame_operator(skewed_basis())
    assert np.allclose(s, [[1.5, 0.5], [0.5, 0.5]])


def test_frame_operator_harmonic():
    s = frame_operator(harmonic_frame(2, 2))
    assert np.allclose(s, 4.0 * np.eye(2), atol=1e-13)


# ------------------------------------------------------------------ bounds


def test_bounds_redundant_basis():
    b = frame_bounds(redundant_basis())
    assert np.allclose([b.lower, b.upper], [1.0, 3.0])
    assert b.spans() and not b.is_tight()


def test_bounds_mercedes_benz_tight():
    b = frame_bounds(mercedes_benz())
    assert np.allclose([b.lower, b.upper], [1.5, 1.5])
    assert b.is_tight()


def test_bounds_nonspanning():
    b = frame_bounds(Frame.from_vectors([[1.0, 0.0], [2.0, 0.0]]))
    assert b.lower == pytest.approx(0.0, abs=1e-12)
    assert not b.spans()


def test_bounds_repeated_basis():
    f = Frame.from_vectors(np.vstack([np.eye(2), np.eye(2)]))
    b = frame_bounds(f)
    assert np.allclose([b.lower, b.upper], [2.0, 2.0])


def test_bounds_inverse_sqrt_copies():
    # k copies of e_k / sqrt(k): wildly uneven counts, still tight (1, 1)
    n = 4
    rows = []
    for k in range(1, n + 1):
        e = np.zeros(n)
        e[k - 1] = 1.0 / np.sqrt(k)
        rows.extend([e] * k)
    b = frame_bounds(Frame.from_vectors(rows))
    assert np.allclose([b.lower, b.upper], [1.0, 1.0], atol=1e-10)


def test_sandwich_inequality_random():
    rng = np.random.default_rng(31)
    for _ in range(20):
        f = random_frame(rng)
        b = frame_bounds(f)
        x = random_vector(rng, f.dim)
        e = np.linalg.norm(analyze(f, x)) ** 2
        nx = np.linalg.norm(x) ** 2
        assert b.lower * nx <= e * (1 + 1e-10) + 1e-10
        assert e <= b.upper * nx * (1 + 1e-10) + 1e-10


# ------------------------------------------------------------------- duals


def test_canonical_dual_skewed_basis():
    d = canonical_dual(skewed_basis())
    assert np.allclose(d.vectors, [[1.0, -1.0], [0.0, np.sqrt(2.0)]])


def test_canonical_dual_mercedes_benz():
    f = mercedes_benz()
    d = canonical_dual(f)
    assert np.allclose(d.vectors, np.asarray(f.vectors) * (2.0 / 3.0))


def test_canonical_dual_redundant_basis():
    d = canonical_dual(redundant_basis())
    expect = np.array([[2.0, 1.0], [1.0, 2.0], [1.0, -1.0]]) / 3.0
    assert np.allclose(d.vectors, expect)


def test_dual_of_dual_returns_original():
    rng = np.random.default_rng(37)
    for _ in range(10):
        f = random_frame(rng)
        dd = canonical_dual(canonical_dual(f))
        assert np.allclose(dd.analysis, f.analysis, atol=1e-9)


def test_dual_bounds_reciprocal():
    b = frame_bounds(canonical_dual(redundant_basis()))
    assert np.allclose([b.lower, b.upper], [1.0 / 3.0, 1.0])


def test_dual_frame_operator_inverts():
    rng = np.random.default_rng(41)
    f = random_frame(rng)
    s = frame_operator(f)
    s_dual = frame_operator(canonical_dual(f))
    assert np.allclose(s_dual @ s, np.eye(f.dim), atol=1e-9)


def test_dual_rejects_nonspanning():
    with pytest.raises(NotAFrameError):
        canonical_dual(Frame.from_vectors([[1.0, 0.0], [2.0, 0.0]]))


# ----------------------------------------------------------- left inverses


def test_pseudo_inverse_columns_are_dual_vectors():
    f = redundant_basis()
    p = pseudo_inverse(f)
    assert np.allclose(p.T, canonical_dual(f).vectors)


def test_left_inverse_default_is_pseudo_inverse():
    f = redundant_basis()
    li = left_inverse(f)
    assert np.allclose(li.matrix, pseudo_inverse(f))
    assert is_left_inverse(f, li.matrix)


def test_left_inverse_reproduces_given_left_inverse():
    # if the free parameter is itself a left inverse, it comes back unchanged
    f = redundant_basis()
    for target in ([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]],
                   [[2.0, -1.0, -1.0], [0.0, 1.0, 0.0]]):
        li = left_inverse(f, free_param=target)
        assert np.allclose(li.matrix, target, atol=1e-12)
        assert is_left_inverse(f, li.matrix)


def test_left_inverse_random_free_param():
    rng = np.random.default_rng(43)
    for _ in range(10):
        f = random_frame(rng)
        m = rng.standard_normal((f.dim, f.num_vectors)) + 1j * rng.standard_normal(
            (f.dim, f.num_vectors)
        )
        li = left_inverse(f, free_param=m)
        assert is_left_inverse(f, li.matrix, tol=1e-8)


def test_every_left_inverse_fits_parametrization():
    # converse: L a left inverse => L = pinv + L (I - T pinv)
    f = redundant_basis()
    l_alt = np.array([[2.0, -1.0, -1.0], [0.0, 1.0, 0.0]])
    p = pseudo_inverse(f)
    resid = np.eye(3) - f.analysis @ p
    assert np.allclose(l_alt, p + l_alt @ resid, atol=1e-12)


def test_left_inverse_rejects_bad_free_param_shape():
    with pytest.raises(DimensionMismatchError):
        left_inverse(redundant_basis(), free_param=np.zeros((3, 2)))


def test_is_left_inverse_rejects_non_inverse():
    assert not is_left_inverse(redundant_basis(), np.zeros((2, 3)))


def test_matrix_arguments_are_checked_in_one_place():
    f = redundant_basis()  # 3 vectors in C^2
    nan = np.zeros((2, 3))
    nan[0, 1] = np.nan
    for call, name, want in (
        (lambda m: left_inverse(f, m), "free_param", (2, 3)),
        (lambda m: is_left_inverse(f, m), "matrix", (2, 3)),
        (lambda m: unitary_transform(f, m), "u", (2, 2)),
    ):
        detail = "%s shape (3, 3), expected %r" % (name, want)
        with pytest.raises(DimensionMismatchError, match="^%s$" % re.escape(detail)):
            call(np.eye(3))
        with pytest.raises(DimensionMismatchError, match="^%s entries must be finite$" % name):
            call(nan[:, : want[1]])
    for call in (lambda d: reconstruct(f, d, [1.0, 2.0, 3.0]), lambda d: check_biorthonormal(f, d)):
        with pytest.raises(DimensionMismatchError, match=r"^dual shape \(2, 2\), expected \(3, 2\)$"):
            call(basis2())


def test_left_inverse_overflow_is_typed_and_silent():
    # pinv + M (I - T pinv) leaves float64 for a free parameter near its limit
    f = Frame.from_vectors([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [1.0, -1.0]])
    m = np.tile([1.7e308, -1.7e308], (2, 2))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericOverflowError, match="left inverse overflows"):
            left_inverse(f, m)


# -------------------------------------------------------------- projection


def test_range_projection_redundant_basis():
    p = range_projection(redundant_basis())
    expect = np.array([[2.0, 1.0, 1.0], [1.0, 2.0, -1.0], [1.0, -1.0, 2.0]]) / 3.0
    assert np.allclose(p, expect)


def test_range_projection_is_projection():
    rng = np.random.default_rng(47)
    f = random_frame(rng)
    p = range_projection(f)
    assert np.allclose(p @ p, p, atol=1e-9)
    assert np.allclose(p, p.conj().T, atol=1e-12)
    assert np.allclose(p @ f.analysis, f.analysis, atol=1e-9)
    assert np.trace(p).real == pytest.approx(f.dim, abs=1e-8)


# ----------------------------------------------------------- reconstruction


def test_reconstruct_with_canonical_dual():
    rng = np.random.default_rng(53)
    f = mercedes_benz()
    d = canonical_dual(f)
    x = random_vector(rng, 2)
    c = analyze(f, x)
    assert np.allclose(reconstruct(f, d, c), x, atol=1e-12)
    # expansion symmetry: analyze with dual, synthesize with frame
    c2 = analyze(d, x)
    assert np.allclose(f.synthesis @ c2, x, atol=1e-12)


def test_reconstruct_shape_checks():
    f = redundant_basis()
    d = canonical_dual(f)
    with pytest.raises(DimensionMismatchError):
        reconstruct(f, d, [1.0, 2.0])
    with pytest.raises(DimensionMismatchError):
        reconstruct(f, basis2(), [1.0, 2.0, 3.0])


# ---------------------------------------------------------------- tighten


def test_tighten_mercedes_benz_scales():
    t = tighten(mercedes_benz())
    assert np.allclose(t.vectors, np.asarray(mercedes_benz().vectors) * np.sqrt(2.0 / 3.0))
    b = frame_bounds(t)
    assert np.allclose([b.lower, b.upper], [1.0, 1.0], atol=1e-12)


def test_tighten_random_gives_unit_bounds():
    rng = np.random.default_rng(59)
    for _ in range(5):
        f = random_frame(rng)
        b = frame_bounds(tighten(f))
        assert np.allclose([b.lower, b.upper], [1.0, 1.0], atol=1e-8)


def test_tighten_rejects_nonspanning():
    with pytest.raises(NotAFrameError):
        tighten(Frame.from_vectors([[1.0, 0.0], [2.0, 0.0]]))


# --------------------------------------------------------------- exactness


def test_exactness_basis_is_exact():
    prof = exactness_profile(basis2())
    assert prof.classification == ExactnessProfile.EXACT
    assert np.allclose(prof.diagonal, 1.0)


def test_exactness_redundant_basis():
    prof = exactness_profile(redundant_basis())
    assert prof.classification == ExactnessProfile.INEXACT
    assert np.allclose(prof.diagonal, 2.0 / 3.0)


def test_exactness_rejects_nonspanning():
    with pytest.raises(NotAFrameError):
        exactness_profile(Frame.from_vectors([[1.0, 0.0], [2.0, 0.0]]))


def test_inexact_frame_survives_deletion():
    f = redundant_basis()
    for k in range(3):
        assert frame_bounds(remove_vector(f, k)).spans()


def test_exact_frame_breaks_on_deletion():
    assert not frame_bounds(remove_vector(basis2(), 0)).spans()


def test_remove_vector_bounds_checks():
    with pytest.raises(DimensionMismatchError):
        remove_vector(basis2(), 2)
    with pytest.raises(DimensionMismatchError):
        remove_vector(Frame.from_vectors([[1.0]]), 0)


# ----------------------------------------------------------- biorthonormal


def test_biorthonormal_basis_pair():
    f = skewed_basis()
    ok, gram = check_biorthonormal(f, canonical_dual(f))
    assert ok
    assert np.allclose(gram, np.eye(2), atol=1e-12)


def test_biorthonormal_fails_for_redundant():
    f = redundant_basis()
    ok, gram = check_biorthonormal(f, canonical_dual(f))
    assert not ok
    assert np.allclose(np.diag(gram), 2.0 / 3.0)


# ---------------------------------------------------------------- harmonic


def test_harmonic_frame_small_cases():
    f = harmonic_frame(2, 1)
    assert np.allclose(f.vectors, [[1.0, 1.0], [1.0, -1.0]])
    b = frame_bounds(f)
    assert np.allclose([b.lower, b.upper], [2.0, 2.0])

    ones = harmonic_frame(1, 3)
    assert ones.num_vectors == 3 and ones.dim == 1
    b = frame_bounds(ones)
    assert np.allclose([b.lower, b.upper], [3.0, 3.0])


def test_harmonic_frame_tight_in_general():
    for dim, red in ((2, 2), (3, 2), (4, 3)):
        f = harmonic_frame(dim, red)
        assert f.num_vectors == dim * red
        b = frame_bounds(f)
        assert np.allclose([b.lower, b.upper], [dim * red] * 2, atol=1e-9)


def test_harmonic_frame_validation():
    with pytest.raises(DimensionMismatchError):
        harmonic_frame(0, 2)
    with pytest.raises(DimensionMismatchError):
        harmonic_frame(2, 0)


# ----------------------------------------------------------------- naimark


def test_naimark_mercedes_benz():
    f = tighten(mercedes_benz())
    dil = naimark_dilate(f)
    u = dil.unitary
    assert u.shape == (3, 3) and dil.subspace_dim == 2
    assert np.allclose(u.conj().T @ u, np.eye(3), atol=1e-12)
    assert np.allclose(u[:, :2], f.analysis, atol=1e-14)


def test_naimark_harmonic():
    f = Frame(harmonic_frame(2, 2).analysis / 2.0)  # rescale to bound 1
    dil = naimark_dilate(f)
    assert np.allclose(dil.unitary.conj().T @ dil.unitary, np.eye(4), atol=1e-12)
    assert np.allclose(dil.unitary[:, :2], f.analysis)


def test_naimark_requires_redundancy():
    with pytest.raises(DimensionMismatchError):
        naimark_dilate(basis2())


def test_naimark_requires_tight_unit_bound():
    with pytest.raises(NotTightUnitError):
        naimark_dilate(mercedes_benz())  # tight, but bound 3/2
    with pytest.raises(NotTightUnitError):
        naimark_dilate(redundant_basis())


# ------------------------------------------------------- unitary transform


def test_unitary_transform_rotation_preserves_bounds():
    th = np.deg2rad(31.0)
    u = np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])
    for f in (mercedes_benz(), redundant_basis()):
        b0 = frame_bounds(f)
        b1 = frame_bounds(unitary_transform(f, u))
        assert np.allclose([b1.lower, b1.upper], [b0.lower, b0.upper], atol=1e-10)


def test_unitary_transform_moves_vectors():
    rng = np.random.default_rng(61)
    f = random_frame(rng, dim=3, count=5)
    u = random_unitary(rng, 3)
    g = unitary_transform(f, u)
    assert np.allclose(g.vectors, (u @ np.asarray(f.vectors).T).T, atol=1e-12)


def test_unitary_transform_rejects_non_unitary():
    with pytest.raises(NotUnitaryError):
        unitary_transform(basis2(), [[1.0, 0.0], [0.0, 2.0]])
    with pytest.raises(DimensionMismatchError):
        unitary_transform(basis2(), np.eye(3))


# -------------------------------------------------------------- validation


def test_frame_input_validation():
    with pytest.raises(DimensionMismatchError):
        Frame(np.zeros((0, 2)))
    with pytest.raises(DimensionMismatchError):
        Frame(np.array([1.0, 2.0]))  # 1-D
    with pytest.raises(DimensionMismatchError):
        Frame(np.array([[np.inf, 0.0]]))


def test_frame_from_vectors_conjugates():
    f = Frame.from_vectors([[1j, 0.0]])
    assert np.allclose(f.analysis, [[-1j, 0.0]])
    assert np.allclose(f.vectors, [[1j, 0.0]])
    assert np.allclose(f.synthesis, [[1j], [0.0]])


def test_analysis_is_a_read_only_copy():
    rows = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]], dtype=complex)
    f = Frame(rows)
    with pytest.raises(ValueError):
        f.analysis[0, 0] = 5.0
    rows[0, 0] = 5.0
    assert f.analysis[0, 0] == 1.0


# --------------------------------------------------------- cached spectrum


def test_one_solve_serves_every_operation(monkeypatch):
    import framekit.frames

    calls = []

    def counting(mat, *args, **kwargs):
        calls.append(np.shape(mat))
        return jacobi_eigh(mat, *args, **kwargs)

    monkeypatch.setattr(framekit.frames, "jacobi_eigh", counting)
    f = random_frame(np.random.default_rng(211), dim=4, count=7)
    frame_bounds(f)
    canonical_dual(f)
    pseudo_inverse(f)
    left_inverse(f)
    range_projection(f)
    tighten(f)
    exactness_profile(f)
    assert calls == [(4, 4)]


def test_spectrum_matches_eigh_and_is_read_only():
    f = random_frame(np.random.default_rng(223), dim=5, count=9)
    w, v = f.spectrum()
    s = frame_operator(f)
    assert np.allclose(w, np.linalg.eigvalsh(s), rtol=0, atol=1e-13 * np.linalg.norm(s))
    assert np.allclose((v * w) @ v.conj().T, s, atol=1e-12 * np.linalg.norm(s))
    assert f.spectrum()[0] is w
    with pytest.raises(ValueError):
        w[0] = 0.0
    with pytest.raises(ValueError):
        v[0, 0] = 0.0


def test_frame_operator_overflow_is_typed_and_silent():
    huge = Frame.from_vectors([[1e308, 0.0], [0.0, 1e308], [1e308, 1e308]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericOverflowError) as info:
            frame_operator(huge)
        assert info.value.code == "overflow"
        for op in (frame_bounds, canonical_dual, tighten, exactness_profile, naimark_dilate):
            with pytest.raises(NumericOverflowError):
                op(huge)


def test_bounds_of_huge_frames_are_not_truncated():
    # entries of S near 1e156: ||S||_F^2 overflows, yet the solver must rotate
    rng = np.random.default_rng(67)
    t = rng.standard_normal((5, 3))
    want = np.linalg.eigvalsh(t.T @ t)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for scale in (1e76, 1e78, 1e150):
            b = frame_bounds(Frame(t * scale))
            assert b.lower == pytest.approx(want[0] * scale**2, rel=1e-12)
            assert b.upper == pytest.approx(want[-1] * scale**2, rel=1e-12)


def test_spanning_threshold_is_relative():
    assert frame_threshold(3.0e-12) == FRAME_RTOL * 3.0e-12
    small = Frame(1e-6 * np.eye(3))
    b = frame_bounds(small)
    assert b.spans() and b.is_tight()
    assert np.allclose(canonical_dual(small).analysis, 1e6 * np.eye(3), rtol=1e-14, atol=0)
    t = redundant_basis().analysis
    tiny = Frame(t * 2.0**-500)
    assert frame_bounds(tiny).spans() and not frame_bounds(tiny).is_tight()
    want = canonical_dual(redundant_basis()).analysis
    assert np.allclose(canonical_dual(tiny).analysis * 2.0**-500, want, rtol=1e-13, atol=0)
    # rank one: lambda_max tiny, lambda_min zero; neither spanning nor tight
    b = frame_bounds(Frame.from_vectors([[1e-6, 0.0], [2e-6, 0.0]]))
    assert not b.spans() and not b.is_tight()
    assert FrameBounds(0.0, 0.0).is_tight() and not FrameBounds(0.0, 0.0).spans()


def test_frame_operator_underflow_is_typed_and_silent():
    tiny = Frame.from_vectors([[1e-160, 0.0], [0.0, 1e-160], [1e-160, 1e-160]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for op in (frame_operator, frame_bounds, canonical_dual, tighten, exactness_profile, naimark_dilate):
            with pytest.raises(NumericOverflowError, match="underflows"):
                op(tiny)
    # all-zero vectors are legal data that do not span, not an underflow
    with pytest.raises(NotAFrameError):
        canonical_dual(Frame(np.zeros((3, 2))))


def test_inverse_operator_overflow_is_typed():
    # S spans (lambda 1e-300 and 1e-309), but 1 / 1e-309 is not a float64
    frame = Frame(np.diag([1e-150, np.sqrt(1e-309)]))
    assert frame_bounds(frame).spans()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericOverflowError, match="inverse frame operator overflows"):
            canonical_dual(frame)
