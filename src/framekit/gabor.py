"""Discrete Weyl-Heisenberg (Gabor) systems on C^M.

The system of a prototype g under params (M, T, K) is

    g_{k,l}[n] = g[(n - l T) mod M] * exp(2 pi i k n / K)

for k = 0..K-1 modulations and l = 0..L-1 shifts, L = M / T.  Rows of the
frame are ordered with k outer, l inner.  K does not have to divide M for the
operators to make sense, but the exact composition identities (and therefore
frame-operator commutation and dual structure) need K | M; all bundled
configurations satisfy that.

When K | M the frame operator is also sparse: summing the K modulations gives

    S[n, m] = K sum_l g[n - lT] conj(g[m - lT])  if n = m (mod K), else 0,

so S splits into K independent (M/K) x (M/K) Walnut blocks
B_r[j, j'] = S[r + jK, r + j'K] (Strohmer, "Numerical algorithms for discrete
Gabor expansions", 1998).  Frames built here with K | M decompose S through
those blocks in one stacked Jacobi solve instead of solving the dense M x M
operator; K that do not divide M keep the dense solve.

A built system is shared: while a caller holds the frame of a prototype and
params, build_gabor_frame (and so gabor_dual_prototype) returns that frame and
reads its spectrum instead of building and solving again.
"""

import weakref
from dataclasses import dataclass
from functools import partial

import numpy as np

from .errors import DimensionMismatchError, ParseError, SizeLimitError
from .frames import (
    FRAME_RTOL,
    Frame,
    _as_complex_vector,
    _check_frame_shape,
    _checked_operator,
    _inverse_operator,
    _with_solver,
)
from .hermitian import jacobi_eigh

PROTOTYPE_NAMES = ("delta", "gaussian", "boxcar")
# Largest of the system's K*L x M analysis matrix and its M x M frame
# operator, in entries: 2^24 complex entries are 256 MiB.
MAX_GABOR_ENTRIES = 2**24

# (prototype bytes, params) -> the live frame built from them.  A frame is
# safe to share because its analysis matrix is read-only and its spectrum is
# computed at most once; an entry lives only while some caller holds it.
_live_systems = weakref.WeakValueDictionary()


@dataclass(frozen=True)
class GaborParams:
    """(M, T, K): signal length, time step, modulation count."""

    length: int
    shift: int
    mods: int

    def __post_init__(self):
        for name in ("length", "shift", "mods"):
            val = getattr(self, name)
            if not isinstance(val, (int, np.integer)) or val < 1:
                raise DimensionMismatchError("%s must be a positive integer" % name)
        if self.length % self.shift:
            raise DimensionMismatchError(
                "shift %d must divide length %d" % (self.shift, self.length)
            )
        entries = max(self.count, self.length) * self.length
        if entries > MAX_GABOR_ENTRIES:
            raise SizeLimitError(
                "%d vectors in C^%d need %d matrix entries, over the limit of %d"
                % (self.count, self.length, entries, MAX_GABOR_ENTRIES)
            )

    @property
    def steps(self):
        """L, number of translates."""
        return self.length // self.shift

    @property
    def count(self):
        """Total vectors K * L."""
        return self.mods * self.steps


def _modulations(k, params):
    """exp(2 pi i k n / K) over n = 0..M-1; k may be a column of indices."""
    return np.exp(2j * np.pi * k * np.arange(params.length) / params.mods)


def weyl_shift(x, k, l, params):
    """Translate by l*T and modulate by the k-th K-th root of unity."""
    arr = _as_complex_vector(x, params.length, "prototype")
    return np.roll(arr, l * params.shift) * _modulations(k, params)


def weyl_matrix(k, l, params):
    """The unitary matrix of weyl_shift(., k, l)."""
    m = params.length
    mat = np.zeros((m, m), dtype=np.complex128)
    rows = np.arange(m)
    mat[rows, (rows - l * params.shift) % m] = _modulations(k, params)
    return mat


def _system_vectors(g, params):
    """All weyl_shift(g, k, l) as rows, k outer, l inner."""
    n = np.arange(params.length)
    shifts = params.shift * np.arange(params.steps)
    translates = g[(n[None, :] - shifts[:, None]) % params.length]
    phases = _modulations(np.arange(params.mods)[:, None], params)
    return (translates[None, :, :] * phases[:, None, :]).reshape(-1, params.length)


def _walnut_spectrum(g, params):
    """(w, v) of the frame operator from its K Walnut blocks (needs K | M).

    The blocks are solved in one stacked jacobi_eigh call; each block's
    eigenvectors are scattered back onto the residue class r + jK.
    """
    m, k = params.length, params.mods
    size = m // k
    n = np.arange(k)[:, None, None] + k * np.arange(size)[None, :, None]
    cols = g[(n - params.shift * np.arange(params.steps)[None, None, :]) % m]
    with np.errstate(over="ignore", invalid="ignore"):
        blocks = _checked_operator(k * (cols @ np.conj(np.swapaxes(cols, -1, -2))), g.any())
    w, u = jacobi_eigh(blocks)
    # v[j*K + r, r*size + i] = u[r, j, i]
    v = np.zeros((size, k, k, size), dtype=np.complex128)
    r = np.arange(k)
    v[:, r, r, :] = np.swapaxes(u, 0, 1)
    order = np.argsort(w.reshape(-1), kind="stable")
    return w.reshape(-1)[order], v.reshape(m, m)[:, order]


def build_gabor_frame(proto, params):
    """Frame of all K*L translates-modulates of the prototype, k outer.

    With K | M the frame's spectrum comes from its Walnut blocks.  While a
    frame built from the bit-identical prototype and equal params is alive,
    that same frame is returned.
    """
    g = np.array(_as_complex_vector(proto, params.length, "prototype"))
    key = (g.tobytes(), params)
    frame = _live_systems.get(key)
    if frame is None:
        frame = _live_systems[key] = _build(g, params)
    return frame


def _build(g, params):
    frame = Frame(np.conj(_system_vectors(g, params)))
    if params.length % params.mods == 0:
        _with_solver(frame, partial(_walnut_spectrum, g, params))
    return frame


def gabor_dual_prototype(proto, params):
    """Dual prototype S^{-1} g of the system's own frame operator.

    When K | M the frame operator commutes with every system shift, so the
    canonical dual frame is the Weyl-Heisenberg system of this vector.
    The spectrum of a live system built from the same prototype and params
    is reused.
    """
    g = _as_complex_vector(proto, params.length, "prototype")
    return _inverse_operator(build_gabor_frame(g, params)) @ g


def verify_wh_structure(dual_frame, proto, params):
    """Whether dual_frame is the Weyl-Heisenberg system of proto.

    Compares vectors in build order (k outer, l inner) within FRAME_RTOL
    times max|proto|, the largest entry of that system (modulations have
    unit modulus), so rescaling both sides never changes the answer.
    """
    g = _as_complex_vector(proto, params.length, "prototype")
    _check_frame_shape(dual_frame, (params.count, params.length), "frame")
    tol = FRAME_RTOL * np.abs(g).max()
    return bool(np.all(np.abs(dual_frame.vectors - _system_vectors(g, params)) <= tol))


def named_prototype(name, length):
    """Built-in prototypes: delta, gaussian, boxcar.

    gaussian samples exp(-x^2/2) on the unit-spaced symmetric grid
    x_n = n - (length-1)/2 and divides by the maximum sample.
    """
    if length < 1:
        raise DimensionMismatchError("length must be >= 1")
    if name == "delta":
        g = np.zeros(length, dtype=np.complex128)
        g[0] = 1.0
        return g
    if name == "gaussian":
        x = np.arange(length) - (length - 1) / 2.0
        g = np.exp(-0.5 * x**2)
        return (g / g.max()).astype(np.complex128)
    if name == "boxcar":
        return np.ones(length, dtype=np.complex128)
    raise ParseError(
        "unknown prototype %r; expected one of %s" % (name, ", ".join(PROTOTYPE_NAMES))
    )
