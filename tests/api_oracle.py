"""Reference checks the tests compare framekit against.

The paper's identities written out directly: conjugate symmetry, a left
inverse (L T = I), the range projection T S^-1 T^H, the time-frequency
shift, a Weyl-Heisenberg system compared row by row, the Wexler-Raz
products of a dual window and the reconstruction noise at each sample
position.  framekit itself never calls them, so they live beside the tests,
built from the package's own argument checks so that bad input fails with the
same typed errors.
"""

import numpy as np

from framekit import canonical_dual
from framekit.frames import FRAME_RTOL, _as_complex_matrix, _as_complex_vector, _check_frame_shape
from framekit.gabor import _modulations, _plan
from framekit.hermitian import _prescale, _prescaled_is_hermitian
from framekit.sampling import _check_sigma2, _filter_spectrum


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


def wh_rows_match(frame, proto, params):
    """Whether the rows of any frame are the Weyl-Heisenberg system of proto
    within FRAME_RTOL times max|proto|, the system's largest entry, compared
    row by row against the system built from the lattice's plan."""
    g = _as_complex_vector(proto, params.length, "prototype")
    _check_frame_shape(frame, (params.count, params.length), "frame")
    tol = FRAME_RTOL * np.abs(g).max()
    plan = _plan(params)
    translates = np.conj(g)[plan.index]
    rows = frame.analysis.reshape(params.mods, params.steps, params.length)
    # row block k of the system's analysis matrix is conj(g)[index] * phases[k]:
    # one modulation at a time, so temporaries stay L x M
    return all(
        np.abs(translates * phase - row).max() <= tol for phase, row in zip(plan.phases, rows)
    )


def wexler_raz_products(gamma, g, params):
    """The (M/K, T) inner products <gamma, pi(jK, m M/T) g> with the adjoint
    lattice's shifts, pi(x, w) h[n] = h[n - x] exp(2 pi i w n / M): gamma is
    a dual window of g for (M, T, K) iff they are T/K at (0, 0) and 0
    elsewhere (Wexler and Raz 1990; Janssen 1995)."""
    gamma = _as_complex_vector(gamma, params.length, "dual window")
    g = _as_complex_vector(g, params.length, "prototype")
    n = np.arange(params.length)
    translates = np.conj(g)[(n - params.mods * np.arange(params.length // params.mods)[:, None]) % params.length]
    # exp(2 pi i (m M/T) n / M) = exp(2 pi i m n / T), from the exact T-th roots
    phases = np.conj(_modulations(np.arange(params.shift)[:, None], params.length, params.shift))
    return (translates * gamma) @ phases.T


def noise_profile(filt, model, sigma2):
    """Reconstruction noise MSE at each position n, in the time domain.

    With h = ifft(H), profile[n] = sigma2 * sum_m |h[(n - m Ts) mod N]|^2,
    which depends on n only through n mod Ts (the Ts polyphase energies of
    h).  Its mean is analytic_mse's sigma2/(N Ts) * sum |H|^2 (Parseval).
    """
    _check_sigma2(sigma2)
    energy = np.abs(np.fft.ifft(_filter_spectrum(filt, model))) ** 2
    poly = energy.reshape(model.num_samples, model.period).sum(axis=0)
    return sigma2 * poly[np.arange(model.size) % model.period]
