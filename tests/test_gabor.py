"""Weyl-Heisenberg systems: shift algebra, frame structure, duals.

GaborParams rejects a modulation count that does not divide the signal
length, so every system here has mods | length.
"""

import dataclasses
import json
import math
import warnings

import numpy as np
import pytest

from framekit import (
    DimensionMismatchError,
    Frame,
    NotAFrameError,
    NumericOverflowError,
    ParseError,
    SizeLimitError,
    canonical_dual,
    exactness_profile,
    frame_bounds,
    frame_operator,
    jacobi_eigh,
    left_inverse,
    pseudo_inverse,
    tighten,
)
from framekit.frames import FRAME_RTOL
from framekit.gabor import (
    MAX_GABOR_ENTRIES,
    PROTOTYPE_NAMES,
    GaborParams,
    _plan,
    build_gabor_frame,
    gabor_dual_prototype,
    named_prototype,
    verify_wh_structure,
    weyl_matrix,
)

from api_oracle import range_projection, wexler_raz_products, weyl_shift, wh_rows_match


def random_proto(rng, length):
    return rng.standard_normal(length) + 1j * rng.standard_normal(length)


DIVISIBLE_CONFIGS = [
    GaborParams(length=4, shift=2, mods=2),
    GaborParams(length=4, shift=1, mods=4),
    GaborParams(length=6, shift=2, mods=3),
    GaborParams(length=6, shift=3, mods=6),
    GaborParams(length=8, shift=2, mods=4),
    GaborParams(length=12, shift=4, mods=6),
]


# ------------------------------------------------------------------ params


def test_params_properties():
    p = GaborParams(length=6, shift=2, mods=3)
    assert p.steps == 3
    assert p.count == 9


def test_params_validation():
    with pytest.raises(DimensionMismatchError):
        GaborParams(length=6, shift=4, mods=2)  # 4 does not divide 6
    with pytest.raises(DimensionMismatchError):
        GaborParams(length=0, shift=1, mods=1)
    with pytest.raises(DimensionMismatchError):
        GaborParams(length=4, shift=2, mods=0)
    with pytest.raises(DimensionMismatchError):
        GaborParams(length=4.0, shift=2, mods=1)


def test_params_reject_mods_not_dividing_length():
    # modulation by the K-th roots of unity is a character of Z_M only when
    # K | M; otherwise the vectors are no Weyl-Heisenberg system
    for length, shift, mods in ((12, 2, 5), (24, 2, 9)):
        with pytest.raises(DimensionMismatchError, match="must divide length"):
            GaborParams(length=length, shift=shift, mods=mods)


def test_params_reject_boolean_sizes():
    # a bool is an int to Python; GaborParams(True, True, True) built (1, 1, 1)
    for sizes in ((True, 1, 1), (2, True, 1), (2, 1, True), (True, True, True)):
        with pytest.raises(DimensionMismatchError, match="must be an integer"):
            GaborParams(*sizes)
    assert GaborParams(np.int64(4), np.int32(2), np.uint8(2)) == GaborParams(4, 2, 2)


def test_params_size_limit():
    assert MAX_GABOR_ENTRIES == 2**24
    with pytest.raises(SizeLimitError) as info:
        GaborParams(length=2**20, shift=1, mods=2**20)
    assert info.value.code == "too_large"
    # the analysis matrix (K*L x M) and the frame operator (M x M) both count
    GaborParams(length=2**12, shift=2**12, mods=2**12)  # 2^12 x 2^12 = the limit
    with pytest.raises(SizeLimitError):
        GaborParams(length=2**12, shift=2**6, mods=2**12 + 1)
    with pytest.raises(SizeLimitError):
        GaborParams(length=2**13, shift=2**13, mods=1)  # 1 vector, 2^13 x 2^13 operator


# ------------------------------------------------------------- weyl shifts


def test_shift_moves_delta():
    p = GaborParams(length=4, shift=2, mods=2)
    out = weyl_shift([1.0, 0.0, 0.0, 0.0], k=0, l=1, params=p)
    assert np.allclose(out, [0.0, 0.0, 1.0, 0.0])


def test_modulation_multiplies_by_roots_of_unity():
    p = GaborParams(length=4, shift=1, mods=4)
    out = weyl_shift(np.ones(4), k=1, l=0, params=p)
    assert np.allclose(out, [1.0, 1j, -1.0, -1j])


def test_weyl_matrix_matches_shift_and_is_unitary():
    rng = np.random.default_rng(71)
    for p in DIVISIBLE_CONFIGS:
        x = random_proto(rng, p.length)
        k = int(rng.integers(p.mods))
        l = int(rng.integers(p.steps))
        w = weyl_matrix(k, l, p)
        assert np.allclose(w @ x, weyl_shift(x, k, l, p), atol=1e-12)
        assert np.allclose(w.conj().T @ w, np.eye(p.length), atol=1e-12)
        assert np.linalg.norm(w @ x) == pytest.approx(np.linalg.norm(x))


def test_weyl_matrix_takes_integer_indices():
    p = GaborParams(length=4, shift=2, mods=2)
    for k, l in ((1.5, 0), (0, 1.5), (True, 0)):
        with pytest.raises(DimensionMismatchError, match="must be an integer"):
            weyl_matrix(k, l, p)


def test_composition_identity():
    # W_{k1,l1} W_{k2,l2} = exp(-2 pi i k2 l1 T / K) W_{k1+k2, l1+l2}
    rng = np.random.default_rng(73)
    for p in DIVISIBLE_CONFIGS:
        for _ in range(4):
            k1, k2 = (int(v) for v in rng.integers(p.mods, size=2))
            l1, l2 = (int(v) for v in rng.integers(p.steps, size=2))
            lhs = weyl_matrix(k1, l1, p) @ weyl_matrix(k2, l2, p)
            phase = np.exp(-2j * np.pi * k2 * l1 * p.shift / p.mods)
            rhs = phase * weyl_matrix((k1 + k2) % p.mods, (l1 + l2) % p.steps, p)
            assert np.allclose(lhs, rhs, atol=1e-12)


def test_adjoint_identity():
    # W_{k,l}^H = exp(-2 pi i k l T / K) W_{-k,-l}
    rng = np.random.default_rng(79)
    for p in DIVISIBLE_CONFIGS:
        k = int(rng.integers(p.mods))
        l = int(rng.integers(p.steps))
        lhs = weyl_matrix(k, l, p).conj().T
        phase = np.exp(-2j * np.pi * k * l * p.shift / p.mods)
        rhs = phase * weyl_matrix((-k) % p.mods, (-l) % p.steps, p)
        assert np.allclose(lhs, rhs, atol=1e-12)


def test_shift_length_check():
    p = GaborParams(length=4, shift=2, mods=2)
    with pytest.raises(DimensionMismatchError):
        weyl_shift([1.0, 0.0], k=0, l=0, params=p)


# ----------------------------------------------------------- frame building


def test_build_order_k_outer_l_inner():
    rng = np.random.default_rng(83)
    p = GaborParams(length=6, shift=3, mods=2)
    g = random_proto(rng, 6)
    f = build_gabor_frame(g, p)
    assert f.num_vectors == p.count and f.dim == 6
    i = 0
    for k in range(p.mods):
        for l in range(p.steps):
            assert np.allclose(f.vectors[i], weyl_shift(g, k, l, p))
            i += 1


def test_full_density_is_tight():
    rng = np.random.default_rng(89)
    for m in (4, 6, 8):
        p = GaborParams(length=m, shift=1, mods=m)
        g = random_proto(rng, m)
        b = frame_bounds(build_gabor_frame(g, p))
        expect = m * np.linalg.norm(g) ** 2
        assert np.allclose([b.lower, b.upper], [expect, expect], rtol=1e-9)


def test_undersampled_cannot_span():
    # K*L = 2 vectors in C^4
    p = GaborParams(length=4, shift=2, mods=1)
    b = frame_bounds(build_gabor_frame([1.0, 2.0, 3.0, 4.0], p))
    assert not b.spans()


def test_undersampled_lower_bound_is_positive_zero():
    # the solver returns -0.0 as the smallest eigenvalue of this system; the
    # clamp at 0 must not keep its sign
    p = GaborParams(length=4, shift=2, mods=1)
    lower = frame_bounds(build_gabor_frame(named_prototype("gaussian", 4), p)).lower
    assert lower == 0.0 and math.copysign(1.0, lower) == 1.0


def test_duplicated_vectors_break_spanning():
    # delta prototype, T=2, K=2 on C^4: the four vectors are two pairs
    p = GaborParams(length=4, shift=2, mods=2)
    f = build_gabor_frame([1.0, 0.0, 0.0, 0.0], p)
    assert f.num_vectors == 4
    assert np.allclose(f.vectors[0], f.vectors[2])  # (k=0,l=0) vs (k=1,l=0)
    assert not frame_bounds(f).spans()


def test_frame_operator_commutes_with_system_shifts():
    rng = np.random.default_rng(97)
    for p in DIVISIBLE_CONFIGS:
        g = random_proto(rng, p.length)
        s = frame_operator(build_gabor_frame(g, p))
        scale = np.linalg.norm(s)
        for k in range(p.mods):
            for l in range(p.steps):
                w = weyl_matrix(k, l, p)
                assert np.linalg.norm(s @ w - w @ s) <= 1e-10 * scale


# -------------------------------------------------------------------- duals


def test_dual_prototype_boxcar_halves():
    # T=2, K=4 on C^4 with g supported on one shift period: S = 2 I
    p = GaborParams(length=4, shift=2, mods=4)
    g = np.array([1.0, 1.0, 0.0, 0.0]) / np.sqrt(2.0)
    gd = gabor_dual_prototype(g, p)
    assert np.allclose(gd, g / 2.0, atol=1e-12)


def test_dual_prototype_full_density_scales():
    rng = np.random.default_rng(101)
    m = 6
    p = GaborParams(length=m, shift=1, mods=m)
    g = random_proto(rng, m)
    gd = gabor_dual_prototype(g, p)
    assert np.allclose(gd, g / (m * np.linalg.norm(g) ** 2), atol=1e-10)


def test_canonical_dual_keeps_wh_structure():
    rng = np.random.default_rng(103)
    for p in DIVISIBLE_CONFIGS:
        g = random_proto(rng, p.length)
        f = build_gabor_frame(g, p)
        if not frame_bounds(f).spans():
            continue
        dual = canonical_dual(f)
        assert verify_wh_structure(dual, gabor_dual_prototype(g, p), p)


def test_pseudo_inverse_dual_of_rank_deficient_system():
    # delta, T=2, K=4 on C^4: S = diag(4, 0, 4, 0), not a frame.  Applying
    # the diagonal pseudo-inverse to every vector still lands on the
    # Weyl-Heisenberg system of the pseudo-dual prototype delta / 4.
    p = GaborParams(length=4, shift=2, mods=4)
    delta = np.array([1.0, 0.0, 0.0, 0.0])
    f = build_gabor_frame(delta, p)
    s = frame_operator(f)
    assert np.allclose(s, np.diag([4.0, 0.0, 4.0, 0.0]), atol=1e-12)
    with pytest.raises(NotAFrameError):
        gabor_dual_prototype(delta, p)
    s_pinv = np.diag([0.25, 0.0, 0.25, 0.0])
    pseudo_dual = Frame.from_vectors([s_pinv @ v for v in f.vectors])
    assert wh_rows_match(pseudo_dual, s_pinv @ delta, p)


def test_verify_rejects_mismatched_shapes():
    p = GaborParams(length=4, shift=2, mods=2)
    wrong = Frame.from_vectors(np.eye(4)[:3])
    with pytest.raises(DimensionMismatchError):
        verify_wh_structure(wrong, [1.0, 0.0, 0.0, 0.0], p)


def test_verify_wh_structure_takes_only_gabor_frames_of_its_params():
    # a plain Frame holding the system's rows, and a Gabor frame of other
    # params with the same 8 x 8 shape, are not read as a wrong False
    p = GaborParams(length=8, shift=2, mods=2)
    g = named_prototype("gaussian", 8)
    system = build_gabor_frame(g, p)
    assert verify_wh_structure(system, g, p)
    for frame in (Frame(system.analysis), build_gabor_frame(g, GaborParams(length=8, shift=4, mods=4))):
        assert (frame.num_vectors, frame.dim) == (8, 8)
        with pytest.raises(DimensionMismatchError, match="not a Gabor frame of"):
            verify_wh_structure(frame, g, p)


def test_verify_false_for_wrong_prototype():
    p = GaborParams(length=4, shift=2, mods=2)
    f = build_gabor_frame([0.0, 1.0, 0.0, 0.0], p)
    assert not verify_wh_structure(f, [1.0, 0.0, 0.0, 0.0], p)


def test_verify_wh_structure_does_not_depend_on_scale():
    # the dual of a prototype scaled by s has entries of order 1/s, so an
    # absolute tolerance read the correct dual at s = 1e-8 as "not WH"
    p = GaborParams(length=48, shift=4, mods=12)
    for s in (1.0, 1e-4, 1e8, 1e-8, 1e-12, 2.0**-400, 2.0**400):
        g = named_prototype("gaussian", 48) * s
        system = build_gabor_frame(g, p)
        dual_proto = gabor_dual_prototype(g, p)
        dual = canonical_dual(system)
        assert verify_wh_structure(dual, dual_proto, p), s
        # not Weyl-Heisenberg: one entry off by 1e-6 of the largest, or the
        # primal system against the dual prototype
        off = dual.analysis.copy()
        off[5, 7] += 1e-6 * np.max(np.abs(dual_proto))
        assert not wh_rows_match(Frame(off), dual_proto, p), s
        assert not verify_wh_structure(system, dual_proto, p), s


def test_prototypes_are_checked_like_frame_vectors():
    p = GaborParams(length=4, shift=2, mods=2)
    g = np.array([1.0, 0.5, 0.0, 0.25])
    # any array with M entries is a prototype
    assert np.array_equal(build_gabor_frame(g.reshape(2, 2), p).analysis,
                          build_gabor_frame(g, p).analysis)
    bad = g.copy()
    bad[1] = np.nan
    system = build_gabor_frame(g, p)
    for call in (
        lambda: weyl_shift(bad, 1, 1, p),
        lambda: build_gabor_frame(bad, p),
        lambda: gabor_dual_prototype(bad, p),
        lambda: verify_wh_structure(system, bad, p),
    ):
        with pytest.raises(DimensionMismatchError, match="prototype entries must be finite"):
            call()
    with pytest.raises(DimensionMismatchError, match="prototype has length 3, expected 4"):
        build_gabor_frame(g[:3], p)


# --------------------------------------------------------------- prototypes


def test_named_prototype_delta():
    g = named_prototype("delta", 5)
    assert np.allclose(g, [1.0, 0.0, 0.0, 0.0, 0.0])


def test_named_prototype_boxcar():
    assert np.allclose(named_prototype("boxcar", 4), np.ones(4))


def test_named_prototype_gaussian():
    g = named_prototype("gaussian", 7).real
    assert g.max() == pytest.approx(1.0)
    assert g[3] == 1.0  # peak at the grid center
    assert np.allclose(g, g[::-1])  # symmetric on odd length
    assert np.all(np.diff(g[:4]) > 0)


def test_named_prototype_gaussian_even_length():
    g = named_prototype("gaussian", 6).real
    assert g.max() == pytest.approx(1.0)
    assert np.allclose(g, g[::-1])


def test_named_prototype_unknown():
    with pytest.raises(ParseError):
        named_prototype("hamming", 4)


def test_named_prototype_length_must_be_an_integer():
    # a float length once gave a 3-sample gaussian, and a bool or float
    # length numpy's untyped TypeError for delta and boxcar; an integer
    # length must also be positive
    for name in PROTOTYPE_NAMES:
        for length in (2.5, 3.0, True):
            with pytest.raises(DimensionMismatchError, match="length must be an integer"):
                named_prototype(name, length)
        with pytest.raises(DimensionMismatchError, match="length must be >= 1"):
            named_prototype(name, 0)
    assert named_prototype("gaussian", np.int64(3)).shape == (3,)


# ------------------------------------------------------------ Walnut blocks

# every K | M system used above, including undersampled and full-density ones
WALNUT_CONFIGS = DIVISIBLE_CONFIGS + [
    GaborParams(length=4, shift=2, mods=1),
    GaborParams(length=4, shift=2, mods=4),
    GaborParams(length=6, shift=3, mods=2),
    GaborParams(length=4, shift=1, mods=4),
    GaborParams(length=6, shift=1, mods=6),
    GaborParams(length=8, shift=1, mods=8),
    GaborParams(length=48, shift=4, mods=12),
]
# Each Walnut block is block-circulant with q blocks of p x p, p = T / gcd(T, K)
# and q = (M/K) / p.  With (48, 4, 12) (p = 1, q = 4) and (12, 4, 6) (p = 2,
# q = 1) above, these cover p in {1, 2, 3, 5} with both q > 1 and q = 1.
WALNUT_CONFIGS += [
    GaborParams(length=48, shift=6, mods=8),  # p = 3, q = 2
    GaborParams(length=96, shift=3, mods=32),  # p = 3, q = 1
    GaborParams(length=60, shift=5, mods=6),  # p = 5, q = 2
    GaborParams(length=72, shift=8, mods=12),  # p = 2, q = 3
    GaborParams(length=90, shift=6, mods=9),  # p = 2, q = 5
]


def walnut_blocks(g, p):
    """The K Walnut blocks B_r[j, j'] = K sum_l g[r + jK - lT] conj(g[r + j'K - lT])
    formed explicitly, as a (K, M/K, M/K) stack."""
    size = p.length // p.mods
    n = np.arange(p.mods)[:, None, None] + p.mods * np.arange(size)[None, :, None]
    cols = g[(n - p.shift * np.arange(p.steps)[None, None, :]) % p.length]
    return p.mods * (cols @ np.conj(np.swapaxes(cols, -1, -2)))


def zak_shape(p):
    """(K, q, p, p): the stack the Walnut spectrum of p solves."""
    block = p.shift // math.gcd(p.shift, p.mods)
    return (p.mods, p.length // p.mods // block, block, block)


def test_modulation_table_is_exactly_periodic():
    # the phases are read from the K exact K-th roots of unity, so entry
    # (k, n) is entry (1, (k n) mod K) bit for bit (row 0 when K = 1), and every
    # row repeats with period K; evaluating exp(2 pi i k n / K) per entry was
    # off from the roots by up to 1.4e-13 at M = 128
    for p in WALNUT_CONFIGS:
        phases = np.conj(_plan(p).phases)
        k, n = np.ogrid[: p.mods, : p.length]
        roots = phases[1 % p.mods]
        assert phases.tobytes() == roots[k * n % p.mods].tobytes(), p
        periodic = np.ascontiguousarray(phases[:, p.mods :])
        assert periodic.tobytes() == np.ascontiguousarray(phases[:, : -p.mods]).tobytes(), p
        assert np.allclose(phases, np.exp(2j * np.pi * k * n / p.mods), rtol=0, atol=1e-12)


def test_gabor_frames_are_made_only_from_a_prototype():
    # the class of a Gabor frame is private: Frame's checking constructor on a
    # public GaborFrame made a frame without a prototype, whose bounds then
    # ended in an untyped AttributeError
    import framekit.gabor

    public = [v for name, v in vars(framekit.gabor).items() if not name.startswith("_")]
    assert [v for v in public if isinstance(v, type) and issubclass(v, Frame)] == [Frame]
    system = build_gabor_frame(np.ones(4), GaborParams(length=4, shift=1, mods=2))
    assert type(system).__name__.startswith("_") and system.prototype.tolist() == [1.0] * 4


def test_build_is_bit_identical_to_weyl_shifts():
    rng = np.random.default_rng(107)
    for p in WALNUT_CONFIGS:
        g = random_proto(rng, p.length)
        rows = [np.conj(weyl_shift(g, k, l, p)) for k in range(p.mods) for l in range(p.steps)]
        assert np.array_equal(build_gabor_frame(g, p).analysis, np.array(rows))


def block_operator(spec):
    """The dense M x M operator that a Gabor Spectrum's Zak-domain blocks
    describe: Walnut block r, on the coordinates r + jK, is
    (F kron I_p) blockdiag_b(block (r, b)) (F kron I_p)^H, F the unitary
    q-point DFT."""
    k, q, p = spec.w.shape
    blocks = np.ldexp(1.0, spec.scale) * (spec.u * spec.w[..., None, :]) @ np.conj(np.swapaxes(spec.u, -1, -2))
    f = np.exp(2j * np.pi * np.outer(np.arange(q), np.arange(q)) / q) / np.sqrt(q)
    unitary = np.kron(f, np.eye(p))
    index = np.arange(k)[:, None] + k * np.arange(q * p)  # block r holds r + jK
    s = np.zeros((index.size, index.size), dtype=complex)
    for r in range(k):
        diag = np.zeros((q * p, q * p), dtype=complex)
        for b in range(q):
            diag[b * p : (b + 1) * p, b * p : (b + 1) * p] = blocks[r, b]
        s[np.ix_(index[r], index[r])] = unitary @ diag @ np.conj(unitary.T)
    return s


# q >> 1, kept apart so that the other WALNUT_CONFIGS tests stay fast
LARGE_Q_CONFIGS = [
    GaborParams(length=64, shift=1, mods=1),  # q = 64
    GaborParams(length=64, shift=2, mods=4),  # p = 1, q = 16
    GaborParams(length=48, shift=3, mods=4),  # p = 3, q = 4, u = 4
    GaborParams(length=96, shift=2, mods=3),  # p = 2, q = 16
]


def test_walnut_spectrum_matches_dense_path():
    check_walnut_spectrum(WALNUT_CONFIGS)


def test_large_q_walnut_spectrum_matches_dense_path():
    check_walnut_spectrum(LARGE_Q_CONFIGS)


def check_walnut_spectrum(configs):
    rng = np.random.default_rng(109)
    for p in configs:
        g = random_proto(rng, p.length)
        walnut = build_gabor_frame(g, p)
        dense = Frame(walnut.analysis)  # same vectors, generic M x M solve
        s = frame_operator(dense)
        scale = np.linalg.norm(s)
        spec = walnut.spectrum()
        k, q, block = zak_shape(p)[:3]
        # the K q Zak-domain p x p blocks, each with its eigenvalues ascending
        assert spec.w.shape == (k, q, block) and spec.u.shape == (k, q, block, block)
        assert np.all(np.diff(spec.w, axis=-1) >= 0)
        assert np.max(np.abs(np.conj(np.swapaxes(spec.u, -1, -2)) @ spec.u - np.eye(block))) <= 1e-13
        w = np.ldexp(spec.w, spec.scale)
        assert np.max(np.abs(np.sort(w, axis=None) - np.linalg.eigvalsh(s))) <= 1e-13 * scale
        assert np.linalg.norm(block_operator(spec) - s) <= 1e-12 * scale
        wb, db = frame_bounds(walnut), frame_bounds(dense)
        assert abs(wb.lower - db.lower) <= 1e-13 * scale
        assert abs(wb.upper - db.upper) <= 1e-13 * scale
        if not db.spans():
            assert not wb.spans()
            continue
        cond = db.upper / db.lower
        dual = canonical_dual(walnut).analysis
        assert np.max(np.abs(dual - canonical_dual(dense).analysis)) <= 1e-12 * cond * np.max(np.abs(dual))
        gd = gabor_dual_prototype(g, p)
        # row (k=0, l=0) of the dense canonical dual is S^{-1} g
        want = canonical_dual(dense).vectors[0]
        assert np.max(np.abs(gd - want)) <= 1e-12 * cond * np.max(np.abs(want))
        assert np.allclose(gd, np.linalg.solve(s, g), rtol=0, atol=1e-12 * cond * np.max(np.abs(want)))


def test_walnut_blocks_read_the_first_u_translates_alone(monkeypatch):
    # translate l0 + u t, u = lcm(T, K) / T, is translate l0 moved by t lattice
    # periods: its Zak coordinates differ by a unit phase, so the blocks need
    # only the first u translate columns, not all L
    from framekit.gabor import _GaborFrame

    zak, shapes = _GaborFrame._zak, []

    def recording(self, x):
        shapes.append(x.shape)
        return zak(self, x)

    monkeypatch.setattr(_GaborFrame, "_zak", recording)
    rng = np.random.default_rng(199)
    for p in WALNUT_CONFIGS + LARGE_Q_CONFIGS:
        shapes.clear()
        frame_bounds(build_gabor_frame(random_proto(rng, p.length), p))
        assert shapes == [(p.length, math.lcm(p.shift, p.mods) // p.shift)], p


def test_single_translate_bounds_are_exact_sums():
    # at (M, 1, 1) S is circulant with eigenvalues |DFT g|^2, so a positive
    # window has its upper bound at frequency 0: (sum g)^2.  The block is one
    # M-term sum, squared: the gaussian's few large terms keep it within 1e-15;
    # a flat window is held to the rounding bound of any order of summation,
    # 2 (M - 1) 2^-53 for the sum squared, plus 2^-53 for the square
    rng = np.random.default_rng(211)
    for m in (16, 64, 256, 1024, 2048):
        p = GaborParams(length=m, shift=1, mods=1)
        for g, tol in ((named_prototype("gaussian", m), 1e-15), (rng.uniform(0.25, 1.0, m), 2 * m * 2.0**-53)):
            exact = math.fsum(np.real(g)) ** 2
            upper = frame_bounds(build_gabor_frame(g, p)).upper
            assert abs(upper - exact) <= tol * exact, (m, upper, exact)


def test_walnut_block_record_is_read_only():
    rng = np.random.default_rng(139)
    system = build_gabor_frame(random_proto(rng, 12), GaborParams(length=12, shift=2, mods=4))
    spec = system.spectrum()
    with pytest.raises(ValueError):
        spec.w[0, 0] = 0.0
    with pytest.raises(ValueError):
        spec.u[0, 0, 0] = 0.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        spec.u = np.zeros_like(spec.u)
    # frames computed from it are as read-only as Frame(rows) itself
    for frame in (system, canonical_dual(system), tighten(system)):
        with pytest.raises(ValueError):
            frame.analysis[0, 0] = 0.0


def test_block_operators_match_the_dense_oracle(monkeypatch):
    rng = np.random.default_rng(149)
    spanning = 0
    formed = record_inverse_blocks(monkeypatch)
    for p in WALNUT_CONFIGS:
        formed.clear()
        g = random_proto(rng, p.length)
        walnut = build_gabor_frame(g, p)
        dense = Frame(walnut.analysis)  # same vectors, one M x M block
        ops = (canonical_dual, pseudo_inverse, left_inverse, range_projection, tighten, exactness_profile)
        bounds = frame_bounds(dense)
        if not bounds.spans():
            for op in ops:
                with pytest.raises(NotAFrameError):
                    op(walnut)
            with pytest.raises(NotAFrameError):
                gabor_dual_prototype(g, p)
            continue
        spanning += 1
        cond = bounds.upper / bounds.lower

        def check(got, want):
            assert np.max(np.abs(got - want)) <= 1e-12 * cond * np.max(np.abs(want)), p

        check(canonical_dual(walnut).analysis, canonical_dual(dense).analysis)
        check(pseudo_inverse(walnut), pseudo_inverse(dense))
        check(left_inverse(walnut), left_inverse(dense))
        check(range_projection(walnut), range_projection(dense))
        check(tighten(walnut).analysis, tighten(dense).analysis)
        profile, want = exactness_profile(walnut), exactness_profile(dense)
        check(profile.diagonal, want.diagonal)
        assert profile.classification == want.classification
        check(gabor_dual_prototype(g, p), canonical_dual(dense).vectors[0])
        # the Gabor frame took the Zak route: its only inverse blocks are p x p
        assert set(formed) == {zak_shape(p)}, p
    assert spanning >= len(WALNUT_CONFIGS) // 2


def test_dual_windows_satisfy_the_wexler_raz_identity():
    # gamma is a dual window of g for (M, T, K) iff <gamma, pi(jK, m M/T) g> is
    # T/K at j = m = 0 and 0 elsewhere, an identity that reads neither the Zak
    # blocks nor the solver; held to 32 eps (B/A) |g| |gamma|, the deviation
    # being up to 4.3 eps (B/A) |g| |gamma| here.  One entry of gamma moved by
    # 4 times that tolerance breaks it, and so does g/A for a system that is
    # not tight
    rng = np.random.default_rng(223)
    eps = np.finfo(float).eps
    cases, routes = 0, set()
    for p in WALNUT_CONFIGS:
        want = np.zeros((p.length // p.mods, p.shift))
        want[0, 0] = p.shift / p.mods
        for g in (named_prototype("gaussian", p.length), named_prototype("boxcar", p.length),
                  random_proto(rng, p.length)):
            bounds = frame_bounds(build_gabor_frame(g, p))
            if not bounds.spans():
                continue
            routes.add(zak_shape(p)[-1] > 1)
            cond = bounds.upper / bounds.lower
            for s in (1.0, 2.0**400, 2.0**-400):
                gs = g * s
                gamma = gabor_dual_prototype(gs, p)
                tol = 32 * eps * cond * np.linalg.norm(gs) * np.linalg.norm(gamma)

                def deviation(window):
                    return np.max(np.abs(wexler_raz_products(window, gs, p) - want))

                assert deviation(gamma) <= tol, (p, s)
                moved = gamma.copy()
                n0 = np.argmax(np.abs(gs))
                moved[n0] += 4 * tol / np.abs(gs[n0])
                assert deviation(moved) > tol, (p, s)
                if not bounds.is_tight():
                    assert deviation(gs / (s * s * bounds.lower)) > tol, (p, s)
                cases += 1
    assert cases >= 100 and routes == {False, True}


def test_walnut_path_rejects_the_delta_window():
    p = GaborParams(length=4, shift=2, mods=4)
    delta = np.array([1.0, 0.0, 0.0, 0.0])
    with pytest.raises(NotAFrameError):
        gabor_dual_prototype(delta, p)
    with pytest.raises(NotAFrameError):
        canonical_dual(build_gabor_frame(delta, p))


@pytest.fixture
def fresh_systems(monkeypatch):
    """An empty live-system registry: a system that an earlier test's failure
    still holds (its traceback refers to it) is then not handed to this test,
    whose counts of solves, tables or live systems would miss its build."""
    import weakref

    import framekit.gabor

    monkeypatch.setattr(framekit.gabor, "_live_systems", weakref.WeakValueDictionary())


def record_solves(monkeypatch):
    import framekit.frames
    import framekit.gabor
    from framekit import jacobi_eigh

    shapes = []

    def recording(mat, *args, **kwargs):
        shapes.append(np.shape(mat))
        return jacobi_eigh(mat, *args, **kwargs)

    monkeypatch.setattr(framekit.frames, "jacobi_eigh", recording)
    monkeypatch.setattr(framekit.gabor, "jacobi_eigh", recording)
    return shapes


def test_gabor_check_solves_no_dense_operator(monkeypatch, capsys, fresh_systems):
    from framekit import cli

    # at most one stacked solve per check; gabor_dual_prototype reads the
    # spectrum of the live system.  (48, 4, 12): the 12 Walnut blocks of 4 x 4
    # are circulant (p = 1), so the DFT leaves 12 x 4 scalars, read with no
    # solve.  (48, 6, 8): the 8 blocks of 6 x 6 hold q = 2 circulant blocks of
    # p = 3, solved in one call.
    for shift, mods, want in [("4", "12", []), ("6", "8", [(8, 2, 3, 3)])]:
        shapes = record_solves(monkeypatch)
        argv = ["gabor-check", "--proto", "gaussian", "--n", "48", "--shift", shift, "--mods", mods]
        assert cli.run(argv) == 0
        assert '"wh_structure": true' in capsys.readouterr().out
        assert shapes == want


def test_each_walnut_spectrum_is_one_stacked_p_by_p_solve(monkeypatch):
    # p > 1: one stacked (K, q, p, p) solve; p = 1: the 1 x 1 blocks are read
    rng = np.random.default_rng(157)
    for p in WALNUT_CONFIGS:
        shapes = record_solves(monkeypatch)
        frame_bounds(build_gabor_frame(random_proto(rng, p.length), p))
        assert shapes == ([zak_shape(p)] if zak_shape(p)[-1] > 1 else []), p
    assert {zak_shape(p)[-1] > 1 for p in WALNUT_CONFIGS} == {False, True}


def test_unit_dft_spectrum_is_the_plain_walnut_solve():
    # q = 1: the DFT is the 1 x 1 identity, so the arithmetic is that of
    # jacobi_eigh on the Walnut blocks themselves (of g 2^-e, which scales
    # them exactly), bit for bit
    rng = np.random.default_rng(163)
    configs = [p for p in WALNUT_CONFIGS if zak_shape(p)[1] == 1]
    assert len(configs) >= 4
    for p in configs:
        g = random_proto(rng, p.length)
        spec = build_gabor_frame(g, p).spectrum()
        w, v = jacobi_eigh(walnut_blocks(g, p))
        assert np.array_equal(np.ldexp(spec.w[:, 0], spec.scale), w), p
        assert np.array_equal(spec.u[:, 0], v), p


def test_narrow_windows_keep_relative_accuracy():
    # narrow Gaussians make the Walnut blocks ill-conditioned; the smallest
    # eigenvalue still matches the solver run on the blocks themselves
    for length, shift, mods, width, low, high in [
        (24, 6, 8, 0.59, 1e7, 1e8),  # q = 1
        (32, 8, 16, 0.72, 5e9, 5e10),  # p = 1, q = 2
        (72, 8, 12, 0.72, 5e9, 5e10),  # p = 2, q = 3
        (48, 6, 8, 0.55, 1e8, 1e9),  # p = 3, q = 2
    ]:
        p = GaborParams(length=length, shift=shift, mods=mods)
        x = np.arange(length) - (length - 1) / 2.0
        g = np.exp(-0.5 * (x / width) ** 2)
        w = jacobi_eigh(walnut_blocks(g.astype(complex), p))[0]
        assert low < w.max() / w.min() < high, p
        spec = build_gabor_frame(g, p).spectrum()
        assert abs(np.ldexp(spec.w.min(), spec.scale) - w.min()) <= 1e-13 * w.min(), p


def test_chunked_block_paths_match_the_dense_oracle():
    rng = np.random.default_rng(151)
    p = GaborParams(length=64, shift=2, mods=32)
    g = random_proto(rng, 64)
    system = build_gabor_frame(g, p)
    # 1024 x 64: the dual and tight frames come from their prototypes, and
    # the oracle's row check of a plain Frame takes one modulation at a time
    dense = Frame(system.analysis)
    bounds = frame_bounds(dense)
    cond = bounds.upper / bounds.lower
    for op in (canonical_dual, tighten):
        got, want = op(system).analysis, op(dense).analysis
        assert np.max(np.abs(got - want)) <= 1e-12 * cond * np.max(np.abs(want))
    dual, gd = canonical_dual(system), gabor_dual_prototype(g, p)
    assert verify_wh_structure(dual, gd, p)
    off = dual.analysis.copy()
    off[-1, -1] += 1e-6 * np.max(np.abs(gd))
    assert not wh_rows_match(Frame(off), gd, p)


def conjugated_system(g, p):
    return np.conj(np.array([weyl_shift(g, k, l, p) for k in range(p.mods) for l in range(p.steps)]))


def test_gabor_dual_is_the_system_of_its_prototype():
    rng = np.random.default_rng(167)
    spanning = 0
    for p in WALNUT_CONFIGS:
        g = random_proto(rng, p.length)
        system = build_gabor_frame(g, p)
        dense = Frame(system.analysis)
        bounds = frame_bounds(dense)
        if not bounds.spans():
            continue
        spanning += 1
        dual = canonical_dual(system)
        assert np.array_equal(dual.analysis, conjugated_system(gabor_dual_prototype(g, p), p)), p
        # the tight prototype S^{-1/2} g, from the oracle's dense S^{-1/2}
        w, v = np.linalg.eigh(frame_operator(dense))
        root = (v / np.sqrt(w)) @ np.conj(v.T) @ g
        tight = tighten(system)
        cond = bounds.upper / bounds.lower
        err = np.max(np.abs(tight.analysis - conjugated_system(root, p)))
        assert err <= 1e-12 * cond * np.max(np.abs(tight.analysis)), p
        # both are Gabor frames of the same params, with Zak-domain spectra
        for frame in (dual, tight):
            assert frame_bounds(frame).spans()
            assert frame.spectrum().w.shape == zak_shape(p)[:3]
        check = np.max(np.abs(range_projection(system) - range_projection(dense)))
        assert check <= 1e-12 * cond, p
        profile, want = exactness_profile(system), exactness_profile(dense)
        assert np.max(np.abs(profile.diagonal - want.diagonal)) <= 1e-12 * cond, p
        assert profile.classification == want.classification
    assert spanning >= len(WALNUT_CONFIGS) // 2


def record_inverses(monkeypatch):
    """(shape of x, root) of every S^{-1} x or S^{-1/2} x a Gabor frame applies."""
    import framekit.gabor

    cls = framekit.gabor._GaborFrame
    apply = cls._apply_inverse
    applied = []

    def recording(self, x, root=False):
        applied.append((np.shape(x), root))
        return apply(self, x, root)

    monkeypatch.setattr(cls, "_apply_inverse", recording)
    return applied


def record_inverse_blocks(monkeypatch):
    """Shape of every stack of Zak-domain inverse (root) blocks formed."""
    import framekit.frames

    inverse_power = framekit.frames._inverse_power
    formed = []

    def recording(frame, root):
        power = inverse_power(frame, root)
        if power.ndim == 4:
            formed.append(power.shape)
        return power

    monkeypatch.setattr(framekit.frames, "_inverse_power", recording)
    return formed


def test_gabor_check_forms_no_inverse_blocks(monkeypatch, capsys):
    from framekit import cli

    formed = record_inverse_blocks(monkeypatch)
    applied = record_inverses(monkeypatch)
    argv = ["gabor-check", "--proto", "gaussian", "--n", "48", "--shift", "4", "--mods", "12"]
    assert cli.run(argv) == 0
    assert '"wh_structure": true' in capsys.readouterr().out
    # the bounds read the spectrum; the dual of a frame is the Gabor system of
    # S^{-1} g by the theorem, so S^{-1} is neither formed nor applied
    assert formed == []
    assert applied == []


def test_each_window_is_computed_once_per_frame(monkeypatch):
    rng = np.random.default_rng(191)
    p = GaborParams(length=48, shift=6, mods=8)
    g = random_proto(rng, 48)
    applied = record_inverses(monkeypatch)
    system = build_gabor_frame(g, p)
    # the benchmark's gabor job: the dual prototype, then the canonical dual
    gd = gabor_dual_prototype(g, p)
    dual = canonical_dual(system)
    assert np.array_equal(dual.prototype, gd) and dual.prototype is not gd
    for _ in range(2):
        gabor_dual_prototype(g, p)
        canonical_dual(system)
        tighten(system)
    assert applied == [((48, 1), False), ((48, 1), True)]
    # the dual prototype is the caller's own array; the frame's window is not
    gd[0] = 0.0
    assert dual.prototype[0] != 0.0


def test_dual_prototype_reuses_the_live_system(monkeypatch):
    rng = np.random.default_rng(127)
    p = GaborParams(length=48, shift=6, mods=8)  # p = 3: a frame that solves
    g = random_proto(rng, 48)
    system = build_gabor_frame(g, p)
    frame_bounds(system)
    shapes = record_solves(monkeypatch)
    gd = gabor_dual_prototype(g, p)
    assert shapes == []
    assert build_gabor_frame(g.copy(), p) is system
    assert np.allclose(gd, np.linalg.solve(frame_operator(Frame(system.analysis)), g), atol=1e-12)


def test_distinct_prototypes_and_params_get_distinct_frames():
    rng = np.random.default_rng(131)
    p = GaborParams(length=8, shift=2, mods=4)
    g = random_proto(rng, 8)
    g[3] = 0.0
    system = build_gabor_frame(g, p)
    one_bit = g.copy()
    one_bit.real[0] = np.nextafter(one_bit.real[0], np.inf)
    negative_zero = g.copy()
    negative_zero.real[3] = -0.0
    others = [
        build_gabor_frame(one_bit, p),
        build_gabor_frame(negative_zero, p),
        build_gabor_frame(g, GaborParams(length=8, shift=2, mods=2)),
        build_gabor_frame(g, GaborParams(length=8, shift=4, mods=4)),
    ]
    assert len({id(f) for f in [system] + others}) == 5
    assert np.array_equal(others[1].analysis, system.analysis)  # -0.0 == 0.0


def test_dropped_systems_are_not_retained(monkeypatch, fresh_systems):
    import gc

    import framekit.gabor

    rng = np.random.default_rng(137)
    p = GaborParams(length=12, shift=4, mods=6)
    g = random_proto(rng, 12)
    gc.collect()
    system = build_gabor_frame(g, p)
    assert [id(f) for f in framekit.gabor._live_systems.values()] == [id(system)]
    frame_bounds(system)
    del system
    gc.collect()
    assert len(framekit.gabor._live_systems) == 0
    shapes = record_solves(monkeypatch)
    frame_bounds(build_gabor_frame(g, p))
    assert shapes == [(6, 1, 2, 2)]


def test_gabor_verbs_reject_mods_not_dividing_length(capsys):
    from framekit import cli

    # K = 5 does not divide M = 12: a typed error report on stdout, no traceback
    for verb in ("gabor-build", "gabor-dual", "gabor-check"):
        argv = [verb, "--proto", "gaussian", "--n", "12", "--shift", "2", "--mods", "5"]
        assert cli.run(argv) == 1
        captured = capsys.readouterr()
        report = json.loads(captured.out)
        assert report["error"] == "dimension_mismatch", verb
        assert "must divide length" in report["detail"], verb
        assert "Traceback" not in captured.err, verb


def test_walnut_overflow_is_typed_and_silent():
    params = GaborParams(length=8, shift=2, mods=4)
    system = build_gabor_frame(np.full(8, 1e200), params)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericOverflowError):
            frame_bounds(system)
        # the vectors do not span, and the bounds that would show it overflow
        with pytest.raises(NumericOverflowError):
            gabor_dual_prototype(np.full(8, 1e200), params)


def test_gabor_frames_are_freed_by_reference_counting(fresh_systems):
    import gc
    import weakref

    import framekit.gabor

    rng = np.random.default_rng(173)
    p = GaborParams(length=48, shift=4, mods=12)
    g = random_proto(rng, 48)
    gc.collect()
    gc.disable()
    try:
        system = build_gabor_frame(g, p)
        frame_bounds(system)
        dual, tight = canonical_dual(system), tighten(system)
        frame_bounds(dual)
        # the dual and tight frames share the system's plan
        assert dual.plan is tight.plan is system.plan
        refs = [weakref.ref(f) for f in (system, dual, tight)]
        del system, dual, tight
        # no reference cycle or cache holds them: they go without the collector
        assert [r() for r in refs] == [None] * 3
        assert len(framekit.gabor._live_systems) == 0
    finally:
        gc.enable()
    # also over 2^17 entries (363^2), where the plan cache keeps no plan
    system = build_gabor_frame(named_prototype("delta", 363), GaborParams(363, 1, 1))
    assert canonical_dual(system).plan is tighten(system).plan is system.plan
    # the plan cache holds plans, no frame, of at most 16 small lattices
    cache = framekit.gabor._cached_plan
    cache.cache_clear()
    for m in range(1, 41):
        frame_bounds(build_gabor_frame(np.ones(m), GaborParams(length=m, shift=1, mods=1)))
    assert cache.cache_info().currsize == 16
    small = GaborParams(length=362, shift=1, mods=1)  # 362^2 <= 2^17 entries
    large = GaborParams(length=363, shift=1, mods=1)
    assert framekit.gabor._plan(small) is framekit.gabor._plan(small)
    assert framekit.gabor._plan(large) is not framekit.gabor._plan(large)
    assert sum(a.nbytes for a in framekit.gabor._plan(small)) < 3.2e6


def test_gabor_frames_hold_read_only_attributes():
    rng = np.random.default_rng(181)
    p = GaborParams(length=12, shift=2, mods=4)
    g = random_proto(rng, 12)
    system = build_gabor_frame(g, p)
    dual = canonical_dual(system)
    assert build_gabor_frame(g, p) == system != dual
    assert len({system, dual, build_gabor_frame(g, p)}) == 2
    for frame in (system, dual, tighten(system)):
        assert frame.params == p
        for name in ("analysis", "prototype", "params", "plan"):
            with pytest.raises(AttributeError):
                setattr(frame, name, getattr(frame, name))
        with pytest.raises(ValueError):
            frame.prototype[0] = 0.0
    assert np.array_equal(system.prototype, g)


def test_windows_rescale_exactly():
    # the blocks are formed from g 2^-e, so at scales where S under- or
    # overflows the windows are still exact: S^{-1} g scales by 2^-e and
    # S^{-1/2} g not at all, bit for bit; the bounds still overflow
    rng = np.random.default_rng(193)
    spanning = 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for p in WALNUT_CONFIGS:
            g = random_proto(rng, p.length)
            if not frame_bounds(build_gabor_frame(g, p)).spans():
                continue
            spanning += 1
            dual, tight = gabor_dual_prototype(g, p), tighten(build_gabor_frame(g, p)).prototype
            for e in (-600, 600):
                scaled = build_gabor_frame(g * 2.0**e, p)
                assert np.array_equal(gabor_dual_prototype(g * 2.0**e, p), dual * 2.0**-e), (p, e)
                assert np.array_equal(canonical_dual(scaled).prototype, dual * 2.0**-e), (p, e)
                assert np.array_equal(tighten(scaled).prototype, tight), (p, e)
                with pytest.raises(NumericOverflowError):
                    frame_bounds(scaled)
    assert spanning >= len(WALNUT_CONFIGS) // 2


def test_both_routes_of_the_structure_check_agree():
    # the prototype check of a Gabor frame answers as the oracle's row check
    # of its rows does: on the frame's own prototype, the primal one, one
    # entry moved by 0.5 and 2 tolerances, and all of these rescaled by 2^400
    # and 2^-400
    rng = np.random.default_rng(179)
    spanning = 0
    for p in WALNUT_CONFIGS:
        g = random_proto(rng, p.length)
        for scale in (1.0, 2.0**400, 2.0**-400):
            system = build_gabor_frame(g * scale, p)
            frames = [system]
            if frame_bounds(system).spans():
                spanning += 1
                frames += [canonical_dual(system), tighten(system)]
            for gf in frames:
                dense = Frame(gf.analysis)
                own = gf.prototype
                i = np.argmin(np.abs(own))
                tol = FRAME_RTOL * np.max(np.abs(own))
                protos = [(own, True), (g * scale, gf is system)]
                for moved_by, want in ((0.5, True), (2.0, False)):
                    moved = own.copy()
                    moved[i] += moved_by * tol
                    protos.append((moved, want))
                for proto, want in protos:
                    for factor, result in ((1.0, want), (2.0**400, False), (2.0**-400, False)):
                        got = verify_wh_structure(gf, proto * factor, p)
                        rows = wh_rows_match(dense, proto * factor, p)
                        assert got is rows is result, (p, scale, factor)
    assert spanning >= 3 * (len(WALNUT_CONFIGS) // 2)


def test_gabor_check_evaluates_the_phases_once(monkeypatch, capsys, fresh_systems):
    import framekit.gabor
    from framekit import cli

    modulations = framekit.gabor._modulations
    tables = []

    def recording(k, length, mods):
        if np.ndim(k) == 2:
            tables.append((length, mods))
        return modulations(k, length, mods)

    monkeypatch.setattr(framekit.gabor, "_modulations", recording)
    cache = framekit.gabor._cached_plan
    cache.cache_clear()
    argv = ["gabor-check", "--proto", "gaussian", "--n", "48", "--shift", "4", "--mods", "12"]
    for _ in range(2):
        assert cli.run(argv) == 0
        assert '"wh_structure": true' in capsys.readouterr().out
    # the builds of both calls share one plan, made once: its K x M phases
    # and the q x q Zak-domain DFT of the Walnut blocks
    assert tables == [(48, 12), (4, 4)]
    assert (cache.cache_info().misses, cache.cache_info().currsize) == (1, 1)
