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
* A Frame holds its analysis matrix, read-only so nothing derived from it
  goes stale, and decomposes S once, on first use, into Hermitian blocks: one
  block for a dense frame, the K q Zak-domain p x p blocks for a Gabor
  system.  Every operation below reads that spectrum through the frame's
  _apply_inverse, which applies S^{-1} or S^{-1/2}: a dense frame from its
  inverse (root) block, a Gabor system through the Zak domain.  Those
  inverse blocks are formed from the cached spectrum on each call.
* One scale rule serves both kinds: the blocks are those of the frame of
  T 2^-e (of g 2^-e for a Gabor system), e the exponent of its largest real
  or imaginary part, so S = 4^e s, and results are scaled back exactly.
  Rescaling a frame by a power of two rescales its dual by the inverse and
  leaves its tight frame and exactness diagonal as they are, bit for bit,
  even where S itself leaves float64's range.  frame_operator is S at the
  input's own scale.
"""

import math
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


def _check_integers(**values):
    """DimensionMismatchError unless each value is an integer and not a bool."""
    for name, value in values.items():
        if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
            raise DimensionMismatchError("%s must be an integer" % name)


def _check_frame_shape(frame, shape, name):
    if (frame.num_vectors, frame.dim) != shape:
        raise DimensionMismatchError(
            "%s shape %r, expected %r" % (name, (frame.num_vectors, frame.dim), shape)
        )


class Frame:
    """K vectors in C^N held as a K x N analysis matrix.

    Row k of the read-only ``analysis`` is conj(g_k); ``vectors`` recovers
    the g_k as rows.  Frame(a) copies a, and frames compare by identity.
    """

    analysis = property(lambda self: self._analysis)

    def __init__(self, analysis):
        self._hold(_as_complex_matrix(analysis, "analysis"))

    @classmethod
    def _adopt(cls, arr):
        """The frame of arr without the copy and checks of Frame(arr), for a
        finite complex matrix computed here that no caller holds."""
        frame = cls.__new__(cls)
        frame._hold(arr)
        return frame

    def _hold(self, arr):
        arr.flags.writeable = False
        self._analysis, self._spectrum = arr, None

    def spectrum(self):
        """The frame operator's Spectrum, read-only, computed on first use."""
        if self._spectrum is None:
            spec = self._decompose()
            for arr in (spec.w, spec.u):
                arr.flags.writeable = False
            self._spectrum = spec
        return self._spectrum

    def _decompose(self):
        """s = t^H t as one block, t = T 2^-e, with scale 2e; a Gabor system
        overrides this, _apply_blocks and _canonical."""
        t, e = _normalized(self.analysis)
        w, v = jacobi_eigh(t.conj().T @ t)
        return Spectrum(w[None], v[None], 2 * e)

    def _apply_inverse(self, x, root=False):
        """S^{-1} x (S^{-1/2} x with root) for a matrix x of N rows.  With
        S = 4^e s, S^{-1} x = 2^-e s^{-1} (2^-e x) and S^{-1/2} x =
        s^{-1/2} (2^-e x)."""
        e = self.spectrum().scale // 2
        out = self._apply_blocks(_inverse_power(self, root), _ldexp(x, -e) if e else x)
        return out if root else _scaled_back(out, e)

    def _apply_blocks(self, power, x):
        """x times the blocks power of s^{-1} or s^{-1/2}."""
        return power[0] @ x

    def _canonical(self, root):
        """The frame S^{-1} g_k (S^{-1/2} g_k with root): T S^{-1} =
        2^-e t s^{-1} (T S^{-1/2} = t s^{-1/2})."""
        t, e = _normalized(self.analysis)
        out = t @ _inverse_power(self, root)[0]
        return Frame._adopt(out if root else _scaled_back(out, e))

    @classmethod
    def from_vectors(cls, vectors):
        """Build a frame from an iterable of vectors (rows g_k)."""
        arr = _as_complex_matrix(np.atleast_2d(vectors), "vectors")
        return cls._adopt(np.conj(arr, out=arr))

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
class Spectrum:
    """The frame operator S, 2^scale times Hermitian blocks u diag(w) u^H:
    each block's eigenvalues w[..., :] are ascending and its eigenvectors are
    the columns of u[..., :, :].  The blocks are those of s, the frame
    operator of T 2^-e (g 2^-e for a Gabor system), so scale is 2e and
    max(w) >= 1.  A dense frame is one block over all N coordinates, w (1, N)
    and u (1, N, N).  A Gabor system has its K q Zak-domain blocks,
    w (K, q, p) and u (K, q, p, p): Walnut block r, on the coordinates
    r + jK, is (F kron I_p) blockdiag_b(block (r, b)) (F kron I_p)^H for the
    unitary q-point DFT F.
    """

    w: np.ndarray
    u: np.ndarray
    scale: int = 0


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
class ExactnessProfile:
    """Diagonal <dual_k, g_k> of the range projection plus a classification."""

    EXACT = "exact"
    INEXACT = "inexact"

    diagonal: np.ndarray
    classification: str


def frame_threshold(upper):
    """Spanning threshold for the smallest frame-operator eigenvalue,
    relative to the largest one."""
    return FRAME_RTOL * upper


def analyze(frame, signal):
    """Coefficients <f, g_k> for all k."""
    f = _as_complex_vector(signal, frame.dim, "signal")
    with np.errstate(over="ignore", invalid="ignore"):
        return _checked_operator(frame.analysis @ f, nonzero=False, name="analysis coefficients")


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


def _ldexp(z, e):
    """z 2^e for a complex array z: exact while the result stays normal."""
    return np.ldexp(np.ascontiguousarray(z).view(np.float64), e).view(np.complex128)


def _normalized(z):
    """(z 2^-e, e) for a complex array z, e the exponent of its largest real
    or imaginary part, so that part of z 2^-e lies in [1, 2)."""
    e = math.frexp(np.abs(np.ascontiguousarray(z).view(np.float64)).max())[1] - 1
    return (_ldexp(z, -e) if e else z), e


def _scaled_back(z, e):
    """z 2^-e, the one step of S^{-1} that can leave float64's range."""
    if not e:
        return z
    with np.errstate(over="ignore"):
        return _checked_operator(_ldexp(z, -e), nonzero=False, name="inverse frame operator")


def frame_operator(frame):
    """S = T^H T, returned exactly Hermitian."""
    t = frame.analysis
    with np.errstate(over="ignore", invalid="ignore"):
        s = t.conj().T @ t
        return _checked_operator((s + s.conj().T) / 2.0, t.any())


def frame_bounds(frame):
    """Tightest (A, B): extreme eigenvalues of the frame operator.

    A is clamped at 0, so nonspanning sets report a lower bound of exactly 0
    up to eigensolver tolerance.  NumericOverflowError when the bounds leave
    float64's range.
    """
    spec = frame.spectrum()
    # max(-0.0, 0.0) is -0.0; adding +0.0 folds it into +0.0
    low, high = (max(float(x), 0.0) + 0.0 for x in (spec.w.min(), spec.w.max()))
    with np.errstate(over="ignore"):
        low, high = (float(x) for x in _checked_operator(np.ldexp([low, high], spec.scale), high > 0))
    return FrameBounds(lower=low, upper=high)


def _inverse_power(frame, root):
    """Blocks u w^{-1} u^H (u w^{-1/2} u^H with root=True) on the blocks of
    the frame's spectrum, so s^{-1} (s^{-1/2}) for S = 2^scale s.

    NotAFrameError unless the frame spans.  No entry leaves float64's range:
    max(w) >= 1 and min(w) > FRAME_RTOL max(w) bound each near n / FRAME_RTOL."""
    spec = frame.spectrum()
    low, high = spec.w.min(), spec.w.max()
    if low <= frame_threshold(high):
        with np.errstate(over="ignore"):
            shown = np.ldexp([low, frame_threshold(high)], spec.scale)
        _checked_operator(shown, high > 0)  # bounds outside float64's range
        raise NotAFrameError("vectors do not span: lambda_min %.3e vs threshold %.3e" % tuple(shown))
    scaled = spec.u * (1.0 / (np.sqrt(spec.w) if root else spec.w))[..., None, :]
    return scaled @ np.swapaxes(spec.u.conj(), -1, -2)


def canonical_dual(frame):
    """The frame S^{-1} g_k; its analysis matrix is T S^{-1}."""
    return frame._canonical(False)


def pseudo_inverse(frame):
    """Moore-Penrose left inverse (S^{-1} T^H) of the analysis matrix."""
    return frame._apply_inverse(frame.analysis.conj().T)


def left_inverse(frame, free_param=None):
    """The N x K left inverse pinv(T) + M (I_K - T pinv(T)) of T for the
    N x K matrix M = free_param, formed as pinv + M - (M T) pinv.

    Every left inverse of T has this form for some M, and any L with L T = I
    satisfies it with M = L.  free_param=None returns pinv(T) itself (M = 0),
    the minimum-norm choice whose columns are the canonical dual vectors.
    A basis (K = N) has the one left inverse pinv(T), whatever M is.
    """
    pinv = pseudo_inverse(frame)
    if free_param is None:
        return pinv
    m = _as_complex_matrix(free_param, "free_param", (frame.dim, frame.num_vectors))
    if frame.num_vectors == frame.dim:
        return pinv
    with np.errstate(over="ignore", invalid="ignore"):
        return _checked_operator(pinv + m - (m @ frame.analysis) @ pinv, nonzero=False, name="left inverse")


def reconstruct(frame, dual, coeffs):
    """sum_k c_k dual_k, the expansion of the analyzed signal in the dual."""
    _check_frame_shape(dual, (frame.num_vectors, frame.dim), "dual")
    c = _as_complex_vector(coeffs, frame.num_vectors, "coeffs")
    with np.errstate(over="ignore", invalid="ignore"):
        return _checked_operator(dual.synthesis @ c, nonzero=False, name="reconstruction")


def tighten(frame):
    """Canonical tight frame S^{-1/2} g_k; its frame operator is I_N."""
    return frame._canonical(True)


def exactness_profile(frame):
    """Diagonal <dual_k, g_k> of the range projection, formed row by row as
    Re sum_n (T S^{-1})[k, n] conj(T[k, n]), and the exact/inexact label.

    A frame is exact (a Riesz basis: no vector can be removed) iff every
    diagonal entry equals 1 within FRAME_RTOL; the diagonal is real because
    it is a Hermitian quadratic form.
    """
    diag = np.real((canonical_dual(frame).analysis * frame.analysis.conj()).sum(axis=1))
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

    Tight with bound K*N for any integers dim >= 1, redundancy >= 1.
    """
    _check_integers(dim=dim, redundancy=redundancy)
    if dim < 1 or redundancy < 1:
        raise DimensionMismatchError("dim and redundancy must be >= 1")
    count = dim * redundancy
    rows = np.arange(count).reshape(-1, 1)
    cols = np.arange(dim).reshape(1, -1)
    return Frame(np.exp(-2j * np.pi * rows * cols / count))


def remove_vector(frame, index):
    """The frame with vector ``index`` deleted."""
    _check_integers(index=index)
    if not 0 <= index < frame.num_vectors:
        raise DimensionMismatchError(
            "index %d out of range for %d vectors" % (index, frame.num_vectors)
        )
    if frame.num_vectors == 1:
        raise DimensionMismatchError("cannot delete the only vector")
    return Frame(np.delete(frame.analysis, index, axis=0))


def naimark_dilate(frame):
    """Extend a tight frame with bound 1 to an orthonormal basis of C^K.

    T then has orthonormal columns.  The Householder reflections H_j =
    I - 2 v_j v_j^H, j < N, of T's QR factorization give the unitary
    H_0 ... H_{N-1}; its last K-N columns complete T, one completion of many,
    in O(K^2 N) work (2 ms at K = 1000, N = 2).  The K x K unitary U returned
    has U[:, :N] = T.  Zeroing the coordinates beyond N in row k of U leaves
    the analysis row of g_k: the frame is the coordinate projection of an
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
    # T^H T = I, so column j of r has norm 1 below row j and v never vanishes
    r = frame.analysis.copy()
    v = np.zeros((k, n), dtype=np.complex128)  # reflector j in v[j:, j]
    w = np.zeros((k, n), dtype=np.complex128)  # H_0 ... H_j = I - w[:, :j+1] v[:, :j+1]^H
    for j in range(n):
        v[j:, j] = r[j:, j]
        v[j, j] += np.exp(1j * np.angle(v[j, j])) * np.linalg.norm(v[:, j])
        v[:, j] /= np.linalg.norm(v[:, j])
        r[j:] -= 2.0 * np.outer(v[j:, j], v[j:, j].conj() @ r[j:])
        w[:, j] = 2.0 * (v[:, j] - w[:, :j] @ (v[:, :j].conj().T @ v[:, j]))
    basis = -w @ v.conj().T
    basis.flat[:: k + 1] += 1.0
    basis[:, :n] = frame.analysis
    return basis


def unitary_transform(frame, u):
    """The frame {U g_k}; bounds and tightness are preserved."""
    mat = _as_complex_matrix(u, "u", (frame.dim, frame.dim))
    with np.errstate(over="ignore", invalid="ignore"):
        if np.max(np.abs(mat.conj().T @ mat - np.eye(frame.dim))) > FRAME_RTOL:
            raise NotUnitaryError("matrix is not unitary within %.1e" % FRAME_RTOL)
        moved = frame.analysis @ mat.conj().T
        return Frame._adopt(_checked_operator(moved, nonzero=False, name="transformed frame"))
