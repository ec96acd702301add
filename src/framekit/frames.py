"""Finite frames in C^N: analysis, duality, bounds, tightening, dilation.

Conventions used throughout:

* The inner product is linear in its first argument, <a, b> = sum a_i conj(b_i).
* A frame of K vectors g_0..g_{K-1} in C^N is stored through its K x N
  analysis matrix T whose k-th row is the conjugate of g_k, so that
  (T f)[k] = <f, g_k>.  K < N and repeated or zero vectors are legal data;
  operations that need a spanning set check the spectrum first.
* The frame operator is S = T^H T; the tightest bounds are its extreme
  eigenvalues.  A set of vectors spans iff lambda_min exceeds the frame
  threshold 1e-10 * lambda_max, which is relative, so rescaling the vectors
  never changes the answer.
* Each Frame decomposes S once, on first use, and every operation below reads
  that spectrum; the analysis matrix is read-only so it cannot go stale.
"""

from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatchError,
    NotAFrameError,
    NotTightUnitError,
    NotUnitaryError,
    NumericOverflowError,
)
from .hermitian import jacobi_eigh

FRAME_RTOL = 1e-10
GS_DROP_TOL = 1e-8


def _as_complex_matrix(obj, name="matrix", shape=None):
    arr = np.array(obj, dtype=np.complex128)
    if arr.ndim != 2:
        raise DimensionMismatchError("%s must be 2-D, got %d-D" % (name, arr.ndim))
    if arr.shape[0] < 1 or arr.shape[1] < 1:
        raise DimensionMismatchError("%s must be nonempty, got shape %r" % (name, arr.shape))
    if not np.isfinite(arr).all():
        raise DimensionMismatchError("%s entries must be finite" % name)
    if shape is not None and arr.shape != shape:
        raise DimensionMismatchError("%s shape %r, expected %r" % (name, arr.shape, shape))
    return arr


def _as_complex_vector(obj, length, name="vector"):
    """obj flattened to complex128: a view of obj where numpy allows."""
    arr = np.asarray(obj, dtype=np.complex128).reshape(-1)
    if arr.shape[0] != length:
        raise DimensionMismatchError(
            "%s has length %d, expected %d" % (name, arr.shape[0], length)
        )
    if not np.isfinite(arr).all():
        raise DimensionMismatchError("%s entries must be finite" % name)
    return arr


def _check_frame_shape(frame, shape, name):
    if (frame.num_vectors, frame.dim) != shape:
        raise DimensionMismatchError(
            "%s shape %r, expected %r" % (name, (frame.num_vectors, frame.dim), shape)
        )


@dataclass(frozen=True)
class Frame:
    """K vectors in C^N held as a K x N analysis matrix.

    Row k of ``analysis`` is conj(g_k); ``vectors`` recovers the g_k
    themselves as rows.  ``analysis`` is a read-only copy of the input.
    """

    analysis: np.ndarray

    def __post_init__(self):
        arr = _as_complex_matrix(self.analysis, "analysis")
        arr.flags.writeable = False
        object.__setattr__(self, "analysis", arr)
        object.__setattr__(self, "_solver", None)
        object.__setattr__(self, "_spectrum", None)

    def spectrum(self):
        """(w, v) of the frame operator: ascending eigenvalues and a unitary
        matrix of eigenvectors, read-only, computed on first use."""
        if self._spectrum is None:
            w, v = self._solver() if self._solver else jacobi_eigh(frame_operator(self))
            w.flags.writeable = False
            v.flags.writeable = False
            object.__setattr__(self, "_spectrum", (w, v))
        return self._spectrum

    @classmethod
    def from_vectors(cls, vectors):
        """Build a frame from an iterable of vectors (rows g_k)."""
        return cls(np.conj(_as_complex_matrix(np.atleast_2d(vectors), "vectors")))

    @property
    def num_vectors(self):
        return self.analysis.shape[0]

    @property
    def dim(self):
        return self.analysis.shape[1]

    @property
    def vectors(self):
        """The frame vectors g_k as rows of a K x N array."""
        return np.conj(self.analysis)

    @property
    def synthesis(self):
        """N x K synthesis matrix T^H; column k is g_k."""
        return self.analysis.conj().T


@dataclass(frozen=True)
class FrameBounds:
    """Tightest frame bounds (lower, upper); lower is 0 for nonspanning sets."""

    lower: float
    upper: float

    def spans(self):
        return self.lower > frame_threshold(self.upper)

    def is_tight(self):
        return (self.upper - self.lower) <= FRAME_RTOL * self.upper


@dataclass(frozen=True)
class LeftInverse:
    """A left inverse L of the analysis matrix, L = pinv + M (I - T pinv)."""

    matrix: np.ndarray
    free_param: np.ndarray


@dataclass(frozen=True)
class ExactnessProfile:
    """Diagonal <dual_k, g_k> of the range projection plus a classification."""

    EXACT = "exact"
    INEXACT = "inexact"

    diagonal: np.ndarray
    classification: str


@dataclass(frozen=True)
class NaimarkDilation:
    """K x K unitary whose first ``subspace_dim`` columns are the analysis matrix."""

    unitary: np.ndarray
    subspace_dim: int


def frame_threshold(upper):
    """Spanning threshold for the smallest frame-operator eigenvalue,
    relative to the largest one."""
    return FRAME_RTOL * upper


def analyze(frame, signal):
    """Coefficients <f, g_k> for all k."""
    f = _as_complex_vector(signal, frame.dim, "signal")
    return frame.analysis @ f


def _checked_operator(s, nonzero=True, name="frame operator"):
    """s itself, or NumericOverflowError when forming it left float64's range:
    an entry overflowed to inf/nan, or s should be nonzero but every entry
    fell below the smallest normal number, where few or no bits remain.

    Callers form s under np.errstate so an overflow prints no warning.
    """
    if not np.isfinite(s).all():
        raise NumericOverflowError("%s overflows: entries too large for float64" % name)
    if nonzero and np.abs(s).max() < np.finfo(np.float64).tiny:
        raise NumericOverflowError("%s underflows: entries too small for float64" % name)
    return s


def frame_operator(frame):
    """S = T^H T, returned exactly Hermitian."""
    t = frame.analysis
    with np.errstate(over="ignore", invalid="ignore"):
        s = t.conj().T @ t
        return _checked_operator((s + s.conj().T) / 2.0, t.any())


def _with_solver(frame, solver):
    """Let ``solver()`` supply the frame's spectrum instead of the dense solve.

    For frames with structure (Gabor systems) that decompose S faster than
    jacobi_eigh(S) does; solver must return what Frame.spectrum documents.
    """
    object.__setattr__(frame, "_solver", solver)


def _spanning_spectrum(frame):
    w, v = frame.spectrum()
    if w[0] <= frame_threshold(w[-1]):
        raise NotAFrameError(
            "vectors do not span: lambda_min %.3e vs threshold %.3e"
            % (w[0], frame_threshold(w[-1]))
        )
    return w, v


def frame_bounds(frame):
    """Tightest (A, B): extreme eigenvalues of the frame operator.

    A is clamped at 0, so nonspanning sets report a lower bound of exactly 0
    up to eigensolver tolerance.
    """
    w, _ = frame.spectrum()
    return FrameBounds(lower=float(max(w[0], 0.0)), upper=float(max(w[-1], 0.0)))


def _inverse_operator(frame, root=False):
    """S^{-1} (or S^{-1/2} with root=True) of a spanning frame."""
    w, v = _spanning_spectrum(frame)
    with np.errstate(over="ignore", invalid="ignore"):
        inverse = (v * (1.0 / (np.sqrt(w) if root else w))) @ v.conj().T
    return _checked_operator(inverse, name="inverse frame operator")


def canonical_dual(frame):
    """The frame S^{-1} g_k; its analysis matrix is T S^{-1}."""
    return Frame(frame.analysis @ _inverse_operator(frame))


def pseudo_inverse(frame):
    """Moore-Penrose left inverse (S^{-1} T^H) of the analysis matrix."""
    return _inverse_operator(frame) @ frame.analysis.conj().T


def left_inverse(frame, free_param=None):
    """A left inverse of T from the full parametrization.

    Every left inverse is pinv(T) + M (I_K - T pinv(T)) for some N x K
    matrix M; conversely any L with L T = I satisfies the identity with
    M = L.  free_param=None selects M = 0, the minimum-norm choice whose
    columns are the canonical dual vectors.
    """
    pinv = pseudo_inverse(frame)
    k = frame.num_vectors
    if free_param is None:
        m = np.zeros((frame.dim, k), dtype=np.complex128)
    else:
        m = _as_complex_matrix(free_param, "free_param", (frame.dim, k))
    residual = np.eye(k, dtype=np.complex128) - frame.analysis @ pinv
    with np.errstate(over="ignore", invalid="ignore"):
        matrix = _checked_operator(pinv + m @ residual, nonzero=False, name="left inverse")
    return LeftInverse(matrix=matrix, free_param=m)


def is_left_inverse(frame, matrix, tol=FRAME_RTOL):
    """Check L T = I_N within tol (max entry deviation)."""
    l = _as_complex_matrix(matrix, "matrix", (frame.dim, frame.num_vectors))
    return bool(np.max(np.abs(l @ frame.analysis - np.eye(frame.dim))) <= tol)


def range_projection(frame):
    """Orthogonal projection T S^{-1} T^H of C^K onto the range of T."""
    p = frame.analysis @ _inverse_operator(frame) @ frame.analysis.conj().T
    return (p + p.conj().T) / 2.0


def reconstruct(frame, dual, coeffs):
    """sum_k c_k dual_k, the expansion of the analyzed signal in the dual."""
    _check_frame_shape(dual, (frame.num_vectors, frame.dim), "dual")
    c = _as_complex_vector(coeffs, frame.num_vectors, "coeffs")
    return dual.synthesis @ c


def tighten(frame):
    """Canonical tight frame S^{-1/2} g_k; its frame operator is I_N."""
    return Frame(frame.analysis @ _inverse_operator(frame, root=True))


def exactness_profile(frame):
    """Diagonal <dual_m, g_m> and the exact/inexact classification.

    A frame is exact (a Riesz basis: no vector can be removed) iff every
    diagonal entry equals 1 within FRAME_RTOL; the diagonal is real because
    it is a Hermitian quadratic form.
    """
    diag = np.real(np.diag(range_projection(frame))).copy()
    exact = np.max(np.abs(diag - 1.0)) <= FRAME_RTOL
    label = ExactnessProfile.EXACT if exact else ExactnessProfile.INEXACT
    return ExactnessProfile(diagonal=diag, classification=label)


def check_biorthonormal(frame, dual):
    """Whether <g_j, dual_k> = delta_jk within FRAME_RTOL; returns (flag,
    K x K cross-Gram)."""
    _check_frame_shape(dual, (frame.num_vectors, frame.dim), "dual")
    gram = (dual.analysis @ frame.synthesis).T
    ok = bool(np.max(np.abs(gram - np.eye(frame.num_vectors))) <= FRAME_RTOL)
    return ok, gram


def harmonic_frame(dim, redundancy):
    """K*N roots-of-unity vectors g_k[m] = exp(2 pi i k m / (K N)).

    Tight with bound K*N for any dim >= 1, redundancy >= 1.
    """
    if dim < 1 or redundancy < 1:
        raise DimensionMismatchError("dim and redundancy must be >= 1")
    count = dim * redundancy
    rows = np.arange(count).reshape(-1, 1)
    cols = np.arange(dim).reshape(1, -1)
    return Frame(np.exp(-2j * np.pi * rows * cols / count))


def remove_vector(frame, index):
    """The frame with vector ``index`` deleted."""
    if not 0 <= index < frame.num_vectors:
        raise DimensionMismatchError(
            "index %d out of range for %d vectors" % (index, frame.num_vectors)
        )
    if frame.num_vectors == 1:
        raise DimensionMismatchError("cannot delete the only vector")
    return Frame(np.delete(frame.analysis, index, axis=0))


def naimark_dilate(frame):
    """Extend a tight frame with bound 1 to an orthonormal basis of C^K.

    The analysis matrix T then has orthonormal columns; Gram-Schmidt against
    the standard basis appends K-N more, giving a K x K unitary U with
    U[:, :N] = T.  Zeroing the coordinates beyond N in row k of U leaves the
    analysis row of g_k: the frame is the coordinate projection of an
    orthonormal basis.
    """
    k, n = frame.num_vectors, frame.dim
    if k <= n:
        raise DimensionMismatchError(
            "dilation needs redundancy: K = %d must exceed N = %d" % (k, n)
        )
    s = frame_operator(frame)
    defect = float(np.max(np.abs(s - np.eye(n))))
    if defect > FRAME_RTOL:
        raise NotTightUnitError(
            "frame operator differs from identity by %.3e (needs tight bound 1)" % defect
        )
    basis = np.zeros((k, k), dtype=np.complex128)
    basis[:, :n] = frame.analysis
    have = n
    for i in range(k):
        if have == k:
            break
        cand = np.zeros(k, dtype=np.complex128)
        cand[i] = 1.0
        # two-pass Gram-Schmidt for orthogonality at working precision
        for _ in range(2):
            cand = cand - basis[:, :have] @ (basis[:, :have].conj().T @ cand)
        norm = np.linalg.norm(cand)
        if norm <= GS_DROP_TOL:
            continue
        basis[:, have] = cand / norm
        have += 1
    if have != k:
        raise NotAFrameError("orthonormal completion failed")  # unreachable for unitary input
    return NaimarkDilation(unitary=basis, subspace_dim=n)


def unitary_transform(frame, u):
    """The frame {U g_k}; bounds and tightness are preserved."""
    mat = _as_complex_matrix(u, "u", (frame.dim, frame.dim))
    if np.max(np.abs(mat.conj().T @ mat - np.eye(frame.dim))) > FRAME_RTOL:
        raise NotUnitaryError("matrix is not unitary within %.1e" % FRAME_RTOL)
    return Frame(frame.analysis @ mat.conj().T)
