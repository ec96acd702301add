"""Discrete Weyl-Heisenberg (Gabor) systems on C^M.

The system of a prototype g under params (M, T, K) is

    g_{k,l}[n] = g[(n - l T) mod M] * exp(2 pi i k n / K)

for k = 0..K-1 modulations and l = 0..L-1 shifts, L = M / T, with T and K
dividing M.  Rows of the frame are ordered k outer, l inner; their phases are
the exact K-th roots of unity exp(2 pi i j / K) at j = (k n) mod K, so rows are
exactly K-periodic.

The frame operator is sparse: summing the K modulations gives

    S[n, m] = K sum_l g[n - lT] conj(g[m - lT])  if n = m (mod K), else 0,

so S splits into K independent (M/K) x (M/K) Walnut blocks
B_r[j, j'] = S[r + jK, r + j'K] (Strohmer, "Numerical algorithms for discrete
Gabor expansions", 1998).  S also commutes with the translations by T, so
each Walnut block is block-circulant with p x p blocks, p = T / gcd(T, K), and
a unitary DFT of length q = (M/K) / p block-diagonalises it (the Zak-domain
picture of Zibulski and Zeevi).  Frames built here are Gabor frames (a private
class): they solve those K q blocks of p x p in one stacked Jacobi call, keep
the Walnut blocks as their spectrum and form no M x M matrix; as S commutes
with every system shift, their canonical dual and tight frame are the Gabor
frames of S^{-1} g and S^{-1/2} g, which verify_wh_structure checks by
prototype.

A built system is shared: while a caller holds the frame of a prototype and
params, build_gabor_frame (and so gabor_dual_prototype) returns that frame and
reads its spectrum instead of building and solving again.
"""

import math
import weakref
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, ParseError, SizeLimitError
from .frames import (
    FRAME_RTOL,
    Frame,
    Spectrum,
    _apply_inverse,
    _as_complex_vector,
    _check_frame_shape,
    _check_integers,
    _checked_operator,
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
        _check_integers(length=self.length, shift=self.shift, mods=self.mods)
        for name in ("length", "shift", "mods"):
            if getattr(self, name) < 1:
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
        if self.length % self.mods:
            raise DimensionMismatchError(
                "mods %d must divide length %d" % (self.mods, self.length)
            )

    @property
    def steps(self):
        """L, number of translates."""
        return self.length // self.shift

    @property
    def count(self):
        """Total vectors K * L."""
        return self.mods * self.steps


def _modulations(k, length, mods):
    """exp(2 pi i k n / mods), n < length, from the exact mods-th roots; k may be a column."""
    return np.exp(2j * np.pi * np.arange(mods) / mods)[k * np.arange(length) % mods]


def weyl_shift(x, k, l, params):
    """Translate by l*T and modulate by the k-th K-th root of unity."""
    arr = _as_complex_vector(x, params.length, "prototype")
    return np.roll(arr, l * params.shift) * _modulations(k, params.length, params.mods)


def weyl_matrix(k, l, params):
    """The unitary matrix of weyl_shift(., k, l)."""
    shifted = np.roll(np.eye(params.length, dtype=np.complex128), l * params.shift, axis=0)
    return shifted * _modulations(k, params.length, params.mods)[:, None]


def _shift_tables(params):
    """Read-only L x M translate index, g[index][l, n] = g[n - lT], and K x M
    phases: row (k, l) of the system is g[index][l] * phases[k].  A Gabor frame
    keeps them and hands them on to its dual and tight frames."""
    n = np.arange(params.length)
    shifts = params.shift * np.arange(params.steps)
    index = (n[None, :] - shifts[:, None]) % params.length
    phases = _modulations(np.arange(params.mods)[:, None], params.length, params.mods)
    index.flags.writeable = phases.flags.writeable = False
    return index, phases


def _walnut_spectrum(g, params, index):
    """The Spectrum of S as its K Walnut blocks (K | M; index of _shift_tables).

    Block r acts on the residue class r + jK.  Moving j by p = T / gcd(T, K)
    moves the coordinates by a multiple of T, a shift of the system, so each
    block is block-circulant with q = (M/K) / p blocks of p x p.  The unitary
    length-q DFT F along those blocks turns it into q independent p x p
    blocks, all K q of them solved in one stacked jacobi_eigh call; block r
    keeps the eigenvectors (F kron I_p) blockdiag(v), eigenvalues ascending.
    """
    m, k, t = params.length, params.mods, params.shift
    size = m // k
    p = t // math.gcd(t, k)
    q = size // p
    # cols[r, j, l] = g[r + jK - lT], the translates on the residue class r
    cols = g[index.T.reshape(size, k, -1).swapaxes(0, 1)]
    # the DFT unscaled, so its 1/q is one division of the blocks
    f = _modulations(np.arange(q)[:, None], q, q)
    with np.errstate(over="ignore", invalid="ignore"):
        y = (np.conj(f) @ cols.reshape(k, q, -1)).reshape(k, q, p, -1)
        blocks = _checked_operator(k * (y @ np.conj(np.swapaxes(y, -1, -2))) / q, g.any())
    w, v = jacobi_eigh(blocks)
    w = w.reshape(k, size)
    # u[r, (a, s), (b, s')] = f[a, b] v[r, b, s, s'] / sqrt(q)
    u = (f / math.sqrt(q))[:, None, :, None] * np.swapaxes(v, 1, 2)[:, None]
    u = u.reshape(k, size, size)
    order = np.argsort(w, axis=-1, kind="stable")
    r = np.arange(k)[:, None]
    return Spectrum(w[r, order], u[r[:, :, None], np.arange(size)[:, None], order[:, None, :]])


def build_gabor_frame(proto, params):
    """Gabor frame of all K*L translates-modulates of the prototype, k outer,
    decomposed by its Walnut blocks.  While a frame built from the
    bit-identical prototype and equal params is alive, that same frame is
    returned.
    """
    g = np.array(_as_complex_vector(proto, params.length, "prototype"))
    key = (g.tobytes(), params)
    frame = _live_systems.get(key)
    if frame is None:
        frame = _live_systems[key] = _build(g, params)
    return frame


class _GaborFrame(Frame):
    """The system of ``prototype`` under ``params`` from their
    ``tables``, all three read-only.  Its spectrum is the Walnut spectrum;
    its canonical dual (tight frame) is the system of S^{-1} g (S^{-1/2} g)."""

    prototype = property(lambda self: self._prototype)
    params = property(lambda self: self._params)
    tables = property(lambda self: self._tables)

    def _decompose(self):
        return _walnut_spectrum(self.prototype, self.params, self.tables[0])

    def _canonical(self, root):
        return _build(_inverse_window(self, self.prototype, root), self.params, self.tables)


def _build(g, params, tables=None):
    """The system of g, a prototype no caller holds, from the _shift_tables of
    params: every weyl_shift(g, k, l) as a conjugated row, k outer, l inner."""
    index, phases = tables = tables or _shift_tables(params)
    analysis = (np.conj(g)[index] * np.conj(phases)[:, None, :]).reshape(-1, params.length)
    frame = _GaborFrame._adopt(analysis)
    g.flags.writeable = False
    frame._prototype, frame._params, frame._tables = g, params, tables
    return frame


def _inverse_window(frame, g, root=False):
    """S^{-1} g (S^{-1/2} g with root) for the frame operator S of frame."""
    return _apply_inverse(frame, g[:, None], root)[:, 0]


def gabor_dual_prototype(proto, params):
    """Dual prototype S^{-1} g of the system's own frame operator: the
    canonical dual is its Weyl-Heisenberg system.  The spectrum of a live
    system built from the same prototype and params is reused."""
    g = _as_complex_vector(proto, params.length, "prototype")
    return _inverse_window(build_gabor_frame(g, params), g)


def verify_wh_structure(dual_frame, proto, params):
    """Whether dual_frame is the Weyl-Heisenberg system of proto within
    FRAME_RTOL times max|proto|, the system's largest entry (modulations have
    unit modulus), so rescaling never changes the answer.  A Gabor frame of
    equal params is by construction the system of its prototype, so only the
    prototypes are compared."""
    g = _as_complex_vector(proto, params.length, "prototype")
    _check_frame_shape(dual_frame, (params.count, params.length), "frame")
    tol = FRAME_RTOL * np.abs(g).max()
    if isinstance(dual_frame, _GaborFrame) and dual_frame.params == params:
        return bool(np.abs(dual_frame.prototype - g).max() <= tol)
    index, phases = _shift_tables(params)
    translates = g[index]
    rows = dual_frame.analysis.reshape(params.mods, params.steps, params.length)
    # one modulation at a time, so temporaries stay L x M; the analysis rows
    # stand in for the vectors since |conj(a) - b| = |a - conj(b)|
    return all(
        np.abs(np.conj(translates * phase) - row).max() <= tol for phase, row in zip(phases, rows)
    )


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
