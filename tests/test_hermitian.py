"""Tests for the round-robin Jacobi eigensolver, checked against numpy.linalg.eigh."""

import warnings

import numpy as np
import pytest

from framekit import (
    ConvergenceError,
    DimensionMismatchError,
    NotHermitianError,
    NumericOverflowError,
    is_hermitian,
    jacobi_eigh,
)
from framekit.hermitian import _round_robin, off_diagonal_mass


def random_hermitian(rng, n):
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return (z + z.conj().T) / 2


def test_matches_numpy_eigenvalues():
    rng = np.random.default_rng(101)
    for n in (1, 2, 3, 5, 8, 12):
        for _ in range(5):
            a = random_hermitian(rng, n)
            w, _ = jacobi_eigh(a)
            w_ref = np.linalg.eigvalsh(a)
            assert np.allclose(w, w_ref, rtol=1e-11, atol=1e-11 * max(1.0, abs(w_ref).max()))


def test_eigenvalues_ascending_and_real():
    rng = np.random.default_rng(7)
    a = random_hermitian(rng, 6)
    w, _ = jacobi_eigh(a)
    assert w.dtype == np.float64
    assert np.all(np.diff(w) >= 0)


def test_eigenvectors_reconstruct_matrix():
    rng = np.random.default_rng(11)
    for _ in range(10):
        a = random_hermitian(rng, 7)
        w, v = jacobi_eigh(a)
        scale = np.linalg.norm(a)
        assert np.linalg.norm((v * w) @ v.conj().T - a) <= 1e-11 * max(scale, 1.0)


def test_eigenvector_matrix_unitary():
    rng = np.random.default_rng(13)
    a = random_hermitian(rng, 9)
    _, v = jacobi_eigh(a)
    assert np.allclose(v.conj().T @ v, np.eye(9), atol=1e-12)


def test_diagonal_matrix_is_immediate():
    a = np.diag([3.0, -1.0, 2.0]).astype(complex)
    w, v = jacobi_eigh(a)
    assert np.allclose(w, [-1.0, 2.0, 3.0])
    # columns are (signed) standard basis vectors in eigenvalue order
    assert np.allclose(np.abs(v), np.eye(3)[:, [1, 2, 0]])


def test_one_by_one_and_zero():
    w, v = jacobi_eigh(np.array([[4.0]], dtype=complex))
    assert w[0] == 4.0 and v[0, 0] == 1.0
    w, v = jacobi_eigh(np.zeros((3, 3), dtype=complex))
    assert np.all(w == 0.0)
    assert np.allclose(v @ v.conj().T, np.eye(3))


def test_degenerate_spectrum():
    a = 2.5 * np.eye(4, dtype=complex)
    w, v = jacobi_eigh(a)
    assert np.allclose(w, 2.5)
    assert np.allclose((v * w) @ v.conj().T, a)


def test_rejects_non_hermitian():
    a = np.array([[1.0, 2.0], [3.0, 4.0]], dtype=complex)
    assert not is_hermitian(a)
    with pytest.raises(NotHermitianError):
        jacobi_eigh(a)


def test_rejects_non_square_and_non_finite():
    with pytest.raises(DimensionMismatchError):
        jacobi_eigh(np.ones((2, 3), dtype=complex))
    bad = np.eye(2, dtype=complex)
    bad[0, 1] = np.nan
    with pytest.raises(DimensionMismatchError):
        jacobi_eigh(bad)


def test_is_hermitian_tolerance():
    a = np.array([[1.0, 1.0 + 1e-15j], [1.0 - 1e-15j, 2.0]])
    assert is_hermitian(a)
    a = np.array([[1.0, 1.0 + 1e-6j], [1.0 - 1e-6j, 2.0]])
    assert is_hermitian(a)  # still Hermitian exactly: conj symmetric
    a[0, 1] = 1.0 + 1e-6j
    a[1, 0] = 1.0 + 1e-6j  # now symmetric, not conjugate-symmetric
    assert not is_hermitian(a)


def test_sweep_budget_exhaustion_raises():
    rng = np.random.default_rng(17)
    a = random_hermitian(rng, 5)
    assert off_diagonal_mass(a) > 0
    with pytest.raises(ConvergenceError):
        jacobi_eigh(a, max_sweeps=0)


def test_convergence_threshold_scales_with_matrix():
    rng = np.random.default_rng(19)
    a = random_hermitian(rng, 6) * 1e8
    w, v = jacobi_eigh(a)
    assert np.linalg.norm((v * w) @ v.conj().T - a) <= 1e-11 * np.linalg.norm(a)


def test_spectral_map_inverse():
    rng = np.random.default_rng(23)
    t = rng.standard_normal((9, 5)) + 1j * rng.standard_normal((9, 5))
    s = t.conj().T @ t
    s = (s + s.conj().T) / 2
    w, v = jacobi_eigh(s)
    inv = (v / w) @ v.conj().T
    assert np.allclose(inv @ s, np.eye(5), atol=1e-9)
    assert np.allclose(inv, np.linalg.inv(s), atol=1e-9 * np.linalg.norm(inv))


def test_spectral_map_inverse_sqrt():
    rng = np.random.default_rng(29)
    t = rng.standard_normal((10, 4)) + 1j * rng.standard_normal((10, 4))
    s = t.conj().T @ t
    s = (s + s.conj().T) / 2
    w, v = jacobi_eigh(s)
    isq = (v / np.sqrt(w)) @ v.conj().T
    assert np.allclose(isq @ isq @ s, np.eye(4), atol=1e-9)


def test_is_hermitian_is_relative_to_the_largest_entry():
    tiny = np.array([[0.0, 1e-13], [0.0, 0.0]])
    assert not is_hermitian(tiny)
    with pytest.raises(NotHermitianError):
        jacobi_eigh(tiny)
    assert is_hermitian(np.zeros((3, 3)))
    rng = np.random.default_rng(31)
    for scale in (1e-200, 1e-8, 1.0, 1e200):
        assert is_hermitian(scale * random_hermitian(rng, 4))


def test_is_hermitian_checks_each_stack_member_against_its_own_scale():
    rng = np.random.default_rng(37)
    stack = np.stack([1e6 * random_hermitian(rng, 3), random_hermitian(rng, 3)])
    assert is_hermitian(stack)
    stack[1, 0, 1] += 1e-3  # far below 1e-12 of member 0's largest entry
    assert not is_hermitian(stack)
    assert not is_hermitian(np.ones((2, 3, 4)))


def random_stack(rng, shape, n):
    z = rng.standard_normal(shape + (n, n)) + 1j * rng.standard_normal(shape + (n, n))
    return (z + np.conj(np.swapaxes(z, -1, -2))) / 2


def test_stacked_solve_matches_members_and_eigh():
    rng = np.random.default_rng(41)
    for n in (1, 2, 3, 4, 7, 10):
        stack = random_stack(rng, (5,), n)
        w, v = jacobi_eigh(stack)
        assert w.shape == (5, n) and v.shape == (5, n, n)
        w_ref = np.linalg.eigvalsh(stack)
        for i, member in enumerate(stack):
            scale = np.linalg.norm(member)
            w_one, _ = jacobi_eigh(member)
            assert np.max(np.abs(w[i] - w_one)) <= 1e-13 * scale
            assert np.max(np.abs(w[i] - w_ref[i])) <= 1e-13 * scale
            assert np.linalg.norm((v[i] * w[i]) @ v[i].conj().T - member) <= 1e-12 * scale
            assert np.allclose(v[i].conj().T @ v[i], np.eye(n), atol=1e-13)


def test_stack_keeps_leading_axes():
    rng = np.random.default_rng(43)
    stack = random_stack(rng, (2, 3), 4)
    w, v = jacobi_eigh(stack)
    assert w.shape == (2, 3, 4) and v.shape == (2, 3, 4, 4)
    assert np.allclose(w, np.linalg.eigvalsh(stack), atol=1e-12)


def test_stack_members_converge_to_their_own_norm():
    rng = np.random.default_rng(47)
    stack = random_stack(rng, (3,), 6) * np.array([1e-8, 1.0, 1e8])[:, None, None]
    w, v = jacobi_eigh(stack)
    for i, member in enumerate(stack):
        scale = np.linalg.norm(member)
        assert np.max(np.abs(w[i] - np.linalg.eigvalsh(member))) <= 1e-13 * scale
        assert np.linalg.norm((v[i] * w[i]) @ v[i].conj().T - member) <= 1e-12 * scale


def test_stack_with_one_non_hermitian_member_raises():
    rng = np.random.default_rng(53)
    stack = random_stack(rng, (4,), 5)
    stack[2, 0, 3] += 0.5
    with pytest.raises(NotHermitianError):
        jacobi_eigh(stack)


def test_round_robin_steps_cover_every_pair_once():
    for n in range(1, 10):
        p, q = _round_robin(n)
        assert p.shape == q.shape == (n - 1 + n % 2, n // 2)
        for step_p, step_q in zip(p, q):
            touched = np.concatenate([step_p, step_q])
            assert len(set(touched.tolist())) == touched.size  # disjoint pairs
        pairs = sorted(zip(p.ravel().tolist(), q.ravel().tolist()))
        assert pairs == [(i, j) for i in range(n) for j in range(i + 1, n)]


def test_converged_members_are_not_rotated_further():
    # off-diagonal mass 2.8e-13 is below this member's target 1e-13 * ||a||_F
    # = 5.5e-13, though each entry is above the per-pair skip level
    done = np.diag([1.0, 2.0, 3.0, 4.0]).astype(complex)
    done[0, 1] = done[1, 0] = 2e-13
    w, v = jacobi_eigh(done)
    assert np.array_equal(w, [1.0, 2.0, 3.0, 4.0]) and np.array_equal(v, np.eye(4))
    rng = np.random.default_rng(59)
    w, v = jacobi_eigh(np.stack([done, random_hermitian(rng, 4)]))
    assert np.array_equal(w[0], [1.0, 2.0, 3.0, 4.0]) and np.array_equal(v[0], np.eye(4))


def test_power_of_two_scaling_is_exact_at_any_magnitude():
    # each member is solved with its largest entry in [0.5, 1), so a member
    # scaled by 2^k gives eigenvalues scaled by 2^k and the same eigenvectors,
    # bit for bit, even where ||a||_F^2 would overflow or underflow
    rng = np.random.default_rng(61)
    a = random_hermitian(rng, 5)
    w0, v0 = jacobi_eigh(a)
    for k in (-1000, -600, -100, 100, 600, 1000):
        w, v = jacobi_eigh(a * 2.0**k)
        assert np.array_equal(w, w0 * 2.0**k) and np.array_equal(v, v0)
    stack = np.stack([a * 2.0**-1000, a, a * 2.0**1000])
    w, v = jacobi_eigh(stack)
    assert np.array_equal(w, w0 * np.array([2.0**-1000, 1.0, 2.0**1000])[:, None])
    assert all(np.array_equal(member, v0) for member in v)


def test_subnormal_and_zero_members():
    w, v = jacobi_eigh(np.stack([np.zeros((2, 2)), np.diag([5e-324, 1e-323])]))
    assert np.array_equal(w, [[0.0, 0.0], [5e-324, 1e-323]])
    assert np.array_equal(v, np.stack([np.eye(2), np.eye(2)]))


def test_eigenvalue_overflow_is_typed_and_silent():
    # every entry is finite, the largest eigenvalue 2.4e308 is not
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericOverflowError):
            jacobi_eigh(np.full((3, 3), 8e307))


def test_symmetrization_does_not_overflow():
    # (a + a^H) / 2 of entries near the float64 limit overflowed before the
    # power-of-two scaling; scaled first, it is exact
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        w, v = jacobi_eigh(np.diag([1e308, -1e308]))
        assert np.array_equal(w, [-1e308, 1e308])
        assert np.array_equal(np.abs(v), [[0.0, 1.0], [1.0, 0.0]])
        with pytest.raises(NumericOverflowError):
            jacobi_eigh(np.full((2, 2), 1e308))  # eigenvalue 2e308
