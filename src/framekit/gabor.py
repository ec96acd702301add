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
them as their spectrum and form no M x M matrix.  S^{-1} and S^{-1/2} act
through the Zak domain (the DFT of each residue class, the p x p blocks, the
inverse DFT), and S^{-1} g and S^{-1/2} g are computed at most once per frame.
As S commutes with every system shift, the canonical dual and tight frame are
the Gabor frames of those two windows, which verify_wh_structure checks by
prototype.  The blocks are formed from g 2^-e under the scale rule of
frames, so rescaling g by a power of two rescales S^{-1} g by its inverse and
leaves S^{-1/2} g as it is, bit for bit.

A built system is shared: while a caller holds the frame of a prototype and
params, build_gabor_frame (and so gabor_dual_prototype) returns that frame and
reads its spectrum and windows instead of building and solving again.  The
tables of a lattice (its plan) are shared too: every frame takes its plan
from its params alone, and the plans of the 16 most recently used lattices
whose systems hold at most 2^17 entries are kept, each under 3.2 MB (at
M = 362, T = K = 1), so under 51 MB in all; other lattices get a plan per
system, a dual or tight frame its own.
"""

import functools
import math
import weakref
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, ParseError, SizeLimitError
from .frames import (
    FRAME_RTOL,
    Frame,
    Spectrum,
    _as_complex_vector,
    _check_frame_shape,
    _check_integers,
    _normalized,
)
from .hermitian import jacobi_eigh

PROTOTYPE_NAMES = ("delta", "gaussian", "boxcar")
# Largest of the system's K*L x M analysis matrix and its M x M frame
# operator, in entries: it bounds that matrix (2^24 complex entries are
# 256 MiB), not the process's peak memory, which for gabor-build at the limit
# is several times larger because copies of the matrix and its report are held.
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


def weyl_matrix(k, l, params):
    """The unitary M x M matrix that translates by l*T and modulates by the
    k-th K-th root of unity: x[n - lT] exp(2 pi i k n / K) at n."""
    shifted = np.roll(np.eye(params.length, dtype=np.complex128), l * params.shift, axis=0)
    return shifted * _modulations(k, params.length, params.mods)[:, None]


# The read-only tables of one lattice: the L x M translate index,
# g[index][l, n] = g[n - lT]; the K x M conjugated phases, so row (k, l) of the
# analysis matrix is conj(g)[index][l] * phases[k]; and the unscaled q x q DFT,
# dft[a, b] = exp(-2 pi i a b / q).
_Plan = namedtuple("_Plan", "index phases dft")
# Plans kept for lattices whose system has at most this many entries; see the
# module docstring for the memory this bounds.
_PLAN_COUNT = 16
_PLAN_ENTRIES = 2**17


def _make_plan(params):
    m, k = params.length, params.mods
    n = np.arange(m)
    index = (n[None, :] - params.shift * np.arange(params.steps)[:, None]) % m
    q = m // math.lcm(params.shift, k)
    plan = _Plan(
        index,
        np.conj(_modulations(np.arange(k)[:, None], m, k)),
        np.conj(_modulations(np.arange(q)[:, None], q, q)),
    )
    for arr in plan:
        arr.flags.writeable = False
    return plan


_cached_plan = functools.lru_cache(maxsize=_PLAN_COUNT)(_make_plan)


def _plan(params):
    """The _Plan of params, from the bounded cache for a small lattice."""
    small = params.count * params.length <= _PLAN_ENTRIES
    return (_cached_plan if small else _make_plan)(params)


def build_gabor_frame(proto, params):
    """Gabor frame of all K*L translates-modulates of the prototype, k outer,
    decomposed by its Zak-domain blocks.  While a frame built from the
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
    """The system of ``prototype`` under ``params`` from the lattice's
    ``plan``, all three read-only.  Its spectrum is the Zak-domain blocks;
    its canonical dual (tight frame) is the system of S^{-1} g (S^{-1/2} g)."""

    prototype = property(lambda self: self._prototype)
    params = property(lambda self: self._params)
    plan = property(lambda self: self._plan)

    def _decompose(self):
        """The Spectrum of S as K q blocks of p x p, shapes (K, q, p) and
        (K, q, p, p): the blocks of the frame operator of g 2^-e, with
        scale 2e.

        Walnut block r acts on the residue class r + jK.  Moving j by
        p = T / gcd(T, K) moves the coordinates by a multiple of T, a shift of
        the system, so each block is block-circulant with q = (M/K) / p blocks
        of p x p.  The unitary length-q DFT F along those blocks turns it into
        q independent p x p blocks: B_r = (F kron I_p) blockdiag_b(block (r, b))
        (F kron I_p)^H, all K q of them solved in one stacked jacobi_eigh call.
        """
        g, e = _normalized(self.prototype)
        # column l of the translates is g[n - lT] 2^-e
        y = self._zak(g[self.plan.index].T)
        k, q = y.shape[:2]
        w, v = jacobi_eigh(k * (y @ np.conj(np.swapaxes(y, -1, -2))) / q)
        return Spectrum(w, v, 2 * e)

    def _zak(self, x):
        """The Zak-domain coordinates of a matrix x of M rows, shape (K, q, p,
        columns): row r + jK of x, j = a p + s, goes to [r, a, s], and the
        unscaled q-point DFT is taken along a."""
        k, dft = self.params.mods, self.plan.dft
        m, c = x.shape
        xr = x.reshape(m // k, k, c).swapaxes(0, 1).reshape(k, len(dft), -1)
        return (dft @ xr).reshape(k, len(dft), -1, c)

    def _apply_blocks(self, power, x):
        """x of M rows times the Zak-domain blocks power: the DFT of each
        residue class, the p x p blocks, the inverse DFT."""
        k, q = power.shape[:2]
        m, c = x.shape
        z = power @ self._zak(x)
        out = (np.conj(self.plan.dft) @ z.reshape(k, q, -1) / q).reshape(k, -1, c)
        return out.swapaxes(0, 1).reshape(m, c)

    def _window(self, root):
        """S^{-1} g (S^{-1/2} g with root), read-only, computed once per frame."""
        window = self._windows.get(root)
        if window is None:
            window = self._apply_inverse(self.prototype[:, None], root)[:, 0]
            window.flags.writeable = False
            self._windows[root] = window
        return window

    def _canonical(self, root):
        return _build(self._window(root), self.params)


def _build(g, params):
    """The system of g, a prototype no caller holds, from the _Plan of params:
    every g[n - lT] exp(2 pi i k n / K) as a conjugated row, k outer, l inner."""
    plan = _plan(params)
    analysis = (np.conj(g)[plan.index] * plan.phases[:, None, :]).reshape(-1, params.length)
    frame = _GaborFrame._adopt(analysis)
    g.flags.writeable = False
    frame._prototype, frame._params, frame._plan, frame._windows = g, params, plan, {}
    return frame


def gabor_dual_prototype(proto, params):
    """Dual prototype S^{-1} g of the system's own frame operator: the
    canonical dual is its Weyl-Heisenberg system.  The window of a live
    system built from the same prototype and params is reused."""
    return build_gabor_frame(proto, params)._window(False).copy()


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
    plan = _plan(params)
    translates = np.conj(g)[plan.index]
    rows = dual_frame.analysis.reshape(params.mods, params.steps, params.length)
    # row block k of the system's analysis matrix is conj(g)[index] * phases[k]:
    # one modulation at a time, so temporaries stay L x M
    return all(
        np.abs(translates * phase - row).max() <= tol for phase, row in zip(plan.phases, rows)
    )


def named_prototype(name, length):
    """Built-in prototypes: delta, gaussian, boxcar.

    gaussian samples exp(-x^2/2) on the unit-spaced symmetric grid
    x_n = n - (length-1)/2 and divides by the maximum sample.
    """
    _check_integers(length=length)
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
