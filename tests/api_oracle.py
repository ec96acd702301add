"""Reference checks the tests compare framekit against.

The paper's identities written out directly: conjugate symmetry, a left
inverse (L T = I), the range projection T S^-1 T^H and the time-frequency
shift.  framekit itself never calls them, so they live beside the tests,
built from the package's own argument checks so that bad input fails with
the same typed errors.
"""

import numpy as np

from framekit import canonical_dual
from framekit.frames import FRAME_RTOL, _as_complex_matrix, _as_complex_vector
from framekit.gabor import _modulations
from framekit.hermitian import _prescale, _prescaled_is_hermitian


def is_hermitian(mat):
    """True when mat is square and conjugate-symmetric within HERMITIAN_RTOL.

    The tolerance is relative to the largest entry magnitude, so an all-zero
    matrix is Hermitian and scale does not matter.  A (..., n, n) stack is
    Hermitian when every member is, each against its own largest entry.
    """
    mat = np.asarray(mat)
    if mat.ndim < 2 or mat.shape[-1] != mat.shape[-2]:
        return False
    if mat.size == 0:
        return True
    a = mat.astype(np.complex128)
    _prescale(a)
    return _prescaled_is_hermitian(a)


def is_left_inverse(frame, matrix):
    """Check L T = I_N within FRAME_RTOL (max entry deviation)."""
    l = _as_complex_matrix(matrix, "matrix", (frame.dim, frame.num_vectors))
    return bool(np.max(np.abs(l @ frame.analysis - np.eye(frame.dim))) <= FRAME_RTOL)


def range_projection(frame):
    """Orthogonal projection T S^{-1} T^H of C^K onto the range of T."""
    p = canonical_dual(frame).analysis @ frame.analysis.conj().T
    return (p + p.conj().T) / 2.0


def weyl_shift(x, k, l, params):
    """Translate by l*T and modulate by the k-th K-th root of unity."""
    arr = _as_complex_vector(x, params.length, "prototype")
    return np.roll(arr, l * params.shift) * _modulations(k, params.length, params.mods)
