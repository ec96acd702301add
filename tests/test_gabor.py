"""Weyl-Heisenberg systems: shift algebra, frame structure, duals.

The exact composition/adjoint/commutation identities hold when the modulation
count divides the signal length, so those tests draw configs with mods | length.
"""

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
    frame_bounds,
    frame_operator,
)
from framekit.gabor import (
    MAX_GABOR_ENTRIES,
    GaborParams,
    build_gabor_frame,
    gabor_dual_prototype,
    named_prototype,
    verify_wh_structure,
    weyl_matrix,
    weyl_shift,
)


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
    assert verify_wh_structure(pseudo_dual, s_pinv @ delta, p)


def test_verify_rejects_mismatched_shapes():
    p = GaborParams(length=4, shift=2, mods=2)
    wrong = Frame.from_vectors(np.eye(4)[:3])
    with pytest.raises(DimensionMismatchError):
        verify_wh_structure(wrong, [1.0, 0.0, 0.0, 0.0], p)


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
        assert not verify_wh_structure(Frame(off), dual_proto, p), s
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


def test_build_is_bit_identical_to_weyl_shifts():
    rng = np.random.default_rng(107)
    for p in WALNUT_CONFIGS + [GaborParams(length=12, shift=2, mods=5)]:
        g = random_proto(rng, p.length)
        rows = [np.conj(weyl_shift(g, k, l, p)) for k in range(p.mods) for l in range(p.steps)]
        assert np.array_equal(build_gabor_frame(g, p).analysis, np.array(rows))


def test_walnut_spectrum_matches_dense_path():
    rng = np.random.default_rng(109)
    for p in WALNUT_CONFIGS:
        g = random_proto(rng, p.length)
        walnut = build_gabor_frame(g, p)
        dense = Frame(walnut.analysis)  # same vectors, generic M x M solve
        s = frame_operator(dense)
        scale = np.linalg.norm(s)
        w, v = walnut.spectrum()
        assert np.max(np.abs(w - np.linalg.eigvalsh(s))) <= 1e-13 * scale
        assert np.linalg.norm((v * w) @ v.conj().T - s) <= 1e-12 * scale
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


def test_walnut_path_rejects_the_delta_window():
    p = GaborParams(length=4, shift=2, mods=4)
    delta = np.array([1.0, 0.0, 0.0, 0.0])
    with pytest.raises(NotAFrameError):
        gabor_dual_prototype(delta, p)
    with pytest.raises(NotAFrameError):
        canonical_dual(build_gabor_frame(delta, p))


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


def test_mods_not_dividing_length_keep_the_dense_solve(monkeypatch):
    shapes = record_solves(monkeypatch)
    rng = np.random.default_rng(113)
    p = GaborParams(length=12, shift=2, mods=5)
    g = random_proto(rng, 12)
    f = build_gabor_frame(g, p)
    b = frame_bounds(f)
    assert shapes == [(12, 12)]
    w = np.linalg.eigvalsh(frame_operator(f))
    assert abs(b.lower - w[0]) <= 1e-13 * w[-1] and abs(b.upper - w[-1]) <= 1e-13 * w[-1]
    assert np.allclose(gabor_dual_prototype(g, p), np.linalg.solve(frame_operator(f), g), atol=1e-10)


def test_gabor_check_solves_no_dense_operator(monkeypatch, capsys):
    from framekit import cli

    shapes = record_solves(monkeypatch)
    argv = ["gabor-check", "--proto", "gaussian", "--n", "48", "--shift", "4", "--mods", "12"]
    assert cli.run(argv) == 0
    assert '"wh_structure": true' in capsys.readouterr().out
    # one stacked solve of the 12 Walnut blocks; gabor_dual_prototype reads
    # the spectrum of the live system
    assert shapes == [(12, 4, 4)]


def test_dual_prototype_reuses_the_live_system(monkeypatch):
    rng = np.random.default_rng(127)
    p = GaborParams(length=48, shift=4, mods=12)
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


def test_dropped_systems_are_not_retained(monkeypatch):
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
    assert shapes == [(6, 2, 2)]


def test_walnut_overflow_is_typed_and_silent():
    params = GaborParams(length=8, shift=2, mods=4)
    system = build_gabor_frame(np.full(8, 1e200), params)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericOverflowError):
            frame_bounds(system)
        # the live system is shared: its failed solve is retried, not cached
        with pytest.raises(NumericOverflowError):
            gabor_dual_prototype(np.full(8, 1e200), params)
