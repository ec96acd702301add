"""Hermitian eigendecomposition by round-robin Jacobi rotations.

Self-contained solver for the small Hermitian matrices this package produces
(frame operators, whole or as a Gabor frame's Zak-domain blocks).  Each rotation
zeroes one off-diagonal pair through a complex plane rotation.  A sweep visits
every pair once in round-robin (Brent-Luk) order: each of its n - 1 steps
pairs every index with one other, so the n/2 rotations of a step touch
disjoint rows and columns and are applied together.  The solver takes a stack
of matrices as readily as one; sweeps repeat until the off-diagonal Frobenius
mass of every member drops below OFF_TOLERANCE times that member's Frobenius
norm.  Quadratic convergence makes the sweep limit generous.  Each member is
solved at a power-of-two scale with its largest entry in [0.5, 1), which is
exact, so results do not depend on the input's magnitude.
"""

import numpy as np

from .errors import (
    ConvergenceError,
    DimensionMismatchError,
    NotHermitianError,
    NumericOverflowError,
)

OFF_TOLERANCE = 1e-13
SWEEP_LIMIT = 100
HERMITIAN_RTOL = 1e-12


def _conj_t(a):
    return np.conj(np.swapaxes(a, -1, -2))


def _prescaled_is_hermitian(a):
    """Whether every member of a complex (..., n, n) stack that _prescale has
    scaled is conjugate-symmetric within HERMITIAN_RTOL times its own largest
    entry, so an all-zero member is Hermitian and scale does not matter."""
    deviation = np.max(np.abs(a - _conj_t(a)), axis=(-2, -1))
    scale = np.max(np.abs(a), axis=(-2, -1))
    return bool(np.all(deviation <= HERMITIAN_RTOL * scale))


def _prescale(a):
    """Scale each member of the complex stack a in place by a power of two so
    its largest real or imaginary part lies in [0.5, 1).  Exact, and nothing
    formed from it overflows or underflows; returns the exponents."""
    largest = np.maximum(np.abs(a.real).max(axis=(-2, -1)), np.abs(a.imag).max(axis=(-2, -1)))
    exponent = np.frexp(largest)[1]
    np.ldexp(a.real, -exponent[..., None, None], out=a.real)
    np.ldexp(a.imag, -exponent[..., None, None], out=a.imag)
    return exponent


def off_diagonal_mass(mat):
    """Frobenius norm of the off-diagonal part (one value per stack member)."""
    mat = np.asarray(mat)
    n = mat.shape[-1]
    return np.linalg.norm(mat[..., ~np.eye(n, dtype=bool)], axis=-1)


def _round_robin(n):
    """Index pairs of one round-robin sweep: rows p[i], q[i] (p < q) of step i.

    The circle method: index 0 stays put while the others move one place per
    step, so in n - 1 steps (n even) every pair meets once.  Odd n adds a
    phantom index n, and the pair holding it is dropped from each step.
    """
    m = n + n % 2
    j = np.arange(1, m)
    ring = np.zeros((m - 1, m), dtype=np.intp)
    ring[:, 1:] = 1 + (j[None, :] - 1 - np.arange(m - 1)[:, None]) % (m - 1)
    ends = np.stack([ring[:, : m // 2], ring[:, ::-1][:, : m // 2]])
    p, q = ends.min(axis=0), ends.max(axis=0)
    real = q < n
    p, q = p[real].reshape(m - 1, -1), q[real].reshape(m - 1, -1)
    return p, q


def jacobi_eigh(mat):
    """Eigendecomposition of a Hermitian matrix or a stack of them.

    A member stops rotating once its off-diagonal Frobenius mass is at most
    OFF_TOLERANCE times its Frobenius norm; ConvergenceError if any member
    is still above that after SWEEP_LIMIT sweeps.

    Parameters
    ----------
    mat : (..., n, n) array_like
        Hermitian (conjugate-symmetric within HERMITIAN_RTOL), or a stack of
        such matrices.

    Returns
    -------
    w : (..., n) float ndarray, eigenvalues ascending.
    v : (..., n, n) complex ndarray, unitary, columns are eigenvectors, so
        mat @ v[..., :, i] == w[..., i] * v[..., :, i].
    """
    a = np.array(mat, dtype=np.complex128)
    if a.ndim < 2 or not 0 < a.shape[-1] == a.shape[-2]:
        raise DimensionMismatchError("expected a nonempty square matrix, got shape %r" % (a.shape,))
    if not np.isfinite(a).all():
        raise DimensionMismatchError("matrix entries must be finite")
    shape = a.shape
    n = shape[-1]
    a = a.reshape(-1, n, n)
    exponent = _prescale(a)  # eigenvalues are scaled back at the end
    if not _prescaled_is_hermitian(a):
        raise NotHermitianError("matrix is not conjugate-symmetric")
    # exact symmetrization so rotations preserve Hermitian structure to the bit
    a = (a + _conj_t(a)) / 2.0
    target = OFF_TOLERANCE * np.linalg.norm(a, axis=(-2, -1))
    # contributions below skip_level per element cannot push a member's mass
    # over its target even if all n^2 entries sit at that level
    skip_level = (target / (2.0 * n))[:, None]
    # a with v below it: both take the same column rotations
    av = np.concatenate([a, np.broadcast_to(np.eye(n, dtype=np.complex128), a.shape)], axis=1)
    a = av[:, :n]
    diag = np.arange(n)
    schedule = list(zip(*_round_robin(n)))

    sweeps = 0
    while True:
        mass = off_diagonal_mass(a)
        active = mass > target
        if not active.any():
            break
        if sweeps >= SWEEP_LIMIT:
            worst = int(np.argmax(mass - target))
            raise ConvergenceError(
                "Jacobi sweeps exhausted (%d) with off-diagonal mass %.3e > %.3e"
                % (SWEEP_LIMIT, *np.ldexp([mass[worst], target[worst]], exponent[worst]))
            )
        for p, q in schedule:
            apq = a[:, p, q]
            r = np.abs(apq)
            rotate = (r > skip_level) & active[:, None]
            r = np.where(rotate, r, 1.0)
            tau = (a[:, q, q].real - a[:, p, p].real) / (2.0 * r)
            t = np.copysign(1.0 / (np.abs(tau) + np.hypot(1.0, tau)), tau)
            c = np.where(rotate, 1.0 / np.hypot(1.0, t), 1.0)[:, None, :]
            s = (rotate * t)[:, None, :] * c
            phase = (np.where(rotate, apq, 1.0) / r)[:, None, :]
            # columns [p, q] right-multiplied by [[c*phase, s*phase], [-s, c]]
            colp, colq = av[:, :, p], av[:, :, q]
            av[:, :, p] = colp * (c * phase) - colq * s
            av[:, :, q] = colp * (s * phase) + colq * c
            # rows [p, q] left-multiplied by the conjugate transpose
            c, s, phase = (x.swapaxes(1, 2) for x in (c, s, np.conj(phase)))
            rowp, rowq = a[:, p, :], a[:, q, :]
            a[:, p, :] = (c * phase) * rowp - s * rowq
            a[:, q, :] = (s * phase) * rowp + c * rowq
            keep = ~rotate
            a[:, p, q] *= keep
            a[:, q, p] *= keep
            a[:, diag, diag] = a[:, diag, diag].real
        sweeps += 1

    with np.errstate(over="ignore"):
        w = np.ldexp(np.diagonal(a, axis1=-2, axis2=-1).real, exponent[:, None])
    if not np.isfinite(w).all():
        raise NumericOverflowError("eigenvalues overflow: too large for float64")
    order = np.argsort(w, axis=-1, kind="stable")
    r = np.arange(len(w))[:, None]
    w, v = w[r, order], av[:, n:][r[:, :, None], diag[:, None], order[:, None, :]]
    return w.reshape(shape[:-1]), v.reshape(shape)
