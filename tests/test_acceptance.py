"""Acceptance suite: one test per headline capability, at stated tolerances.

conftest prints an [ACCEPTANCE] PASS/FAIL line per test here, so this file
doubles as the go/no-go checklist for the package.
"""

import time

import numpy as np
import pytest

from framekit import (
    ExactnessProfile,
    Frame,
    analyze,
    canonical_dual,
    check_biorthonormal,
    exactness_profile,
    frame_bounds,
    frame_operator,
    harmonic_frame,
    jacobi_eigh,
    left_inverse,
    naimark_dilate,
    pseudo_inverse,
    reconstruct,
    remove_vector,
    tighten,
    unitary_transform,
)
from framekit.gabor import (
    GaborParams,
    build_gabor_frame,
    gabor_dual_prototype,
    verify_wh_structure,
    weyl_matrix,
)
from framekit.sampling import (
    SamplingModel,
    analytic_mse,
    ideal_lowpass,
    is_perfect,
    make_bandlimited,
    make_recon_filter,
    monte_carlo_mse,
    mse_decomposition,
    reconstruct as sample_reconstruct,
    sample,
    sampling_frame,
)
from api_oracle import is_left_inverse, range_projection
from conftest import random_frame, random_unitary, random_vector, spectral_mse

RT3 = np.sqrt(3.0)
MB = Frame.from_vectors([[0.0, 1.0], [-RT3 / 2, -0.5], [RT3 / 2, -0.5]])
SKEWED = Frame.from_vectors([[1.0, 0.0], [1 / np.sqrt(2), 1 / np.sqrt(2)]])
REDUNDANT = Frame.from_vectors([[1.0, 0.0], [0.0, 1.0], [1.0, -1.0]])


def test_mercedes_benz_operator_bounds_and_speed():
    s = frame_operator(MB)
    assert np.max(np.abs(s - 1.5 * np.eye(2))) <= 1e-12

    b = frame_bounds(MB)
    assert abs(b.lower - 1.5) <= 1e-12 and abs(b.upper - 1.5) <= 1e-12
    assert b.is_tight()

    frame_bounds(MB)  # warmup outside the clock
    runs = []
    for _ in range(5):
        t0 = time.perf_counter()
        frame_operator(MB)
        frame_bounds(MB)
        runs.append(time.perf_counter() - t0)
    assert min(runs) < 1e-3


def test_skewed_basis_canonical_dual():
    dual = canonical_dual(SKEWED)
    expect = np.array([[1.0, -1.0], [0.0, np.sqrt(2.0)]])
    assert np.max(np.abs(np.asarray(dual.vectors) - expect)) <= 1e-12

    ok, gram = check_biorthonormal(SKEWED, dual)
    assert ok and np.max(np.abs(gram - np.eye(2))) <= 1e-12


def test_redundant_frame_dual_family_and_exactness():
    b = frame_bounds(REDUNDANT)
    assert abs(b.lower - 1.0) <= 1e-12 and abs(b.upper - 3.0) <= 1e-12

    dual = canonical_dual(REDUNDANT)
    expect = np.array([[2.0, 1.0], [1.0, 2.0], [1.0, -1.0]]) / 3.0
    assert np.max(np.abs(np.asarray(dual.vectors) - expect)) <= 1e-12

    # the alternative dual {2 e1, -e1 + e2, -e1} arises from the left-inverse
    # parametrization and synthesizes every signal exactly
    alt = np.array([[2.0, -1.0, -1.0], [0.0, 1.0, 0.0]])
    li = left_inverse(REDUNDANT, free_param=alt)
    assert np.max(np.abs(li - alt)) <= 1e-12
    assert is_left_inverse(REDUNDANT, li)
    rng = np.random.default_rng(0)
    x = random_vector(rng, 2)
    assert np.allclose(li @ analyze(REDUNDANT, x), x, atol=1e-12)

    prof = exactness_profile(REDUNDANT)
    assert prof.classification == ExactnessProfile.INEXACT
    assert np.max(np.abs(prof.diagonal - 2.0 / 3.0)) <= 1e-12
    for k in range(3):
        assert frame_bounds(remove_vector(REDUNDANT, k)).spans()


def test_union_bound_arithmetic():
    doubled = Frame.from_vectors(np.vstack([np.eye(3), np.eye(3)]))
    b = frame_bounds(doubled)
    assert abs(b.lower - 2.0) <= 1e-10 and abs(b.upper - 2.0) <= 1e-10

    # k copies of e_k / sqrt(k): counts differ wildly, bounds still (1, 1)
    n = 5
    rows = []
    for k in range(1, n + 1):
        e = np.zeros(n)
        e[k - 1] = 1.0 / np.sqrt(k)
        rows.extend([e] * k)
    b = frame_bounds(Frame.from_vectors(rows))
    assert abs(b.lower - 1.0) <= 1e-10 and abs(b.upper - 1.0) <= 1e-10


def test_randomized_frame_invariants():
    tol = 1e-8
    rng = np.random.default_rng(2024)
    t_start = time.perf_counter()

    for trial in range(200):
        f = random_frame(rng)
        n, k = f.dim, f.num_vectors
        s = frame_operator(f)
        scale = float(np.linalg.norm(s))
        b = frame_bounds(f)
        assert b.lower > 0.0

        # sandwich inequality
        x = random_vector(rng, n)
        nx = float(np.linalg.norm(x) ** 2)
        energy = float(np.linalg.norm(analyze(f, x)) ** 2)
        assert b.lower * nx <= energy * (1 + tol) + tol
        assert energy <= b.upper * nx * (1 + tol) + tol

        # canonical tightening reaches bounds (1, 1) and equality in the sandwich
        t = tighten(f)
        bt = frame_bounds(t)
        assert abs(bt.lower - 1.0) <= tol and abs(bt.upper - 1.0) <= tol
        assert abs(float(np.linalg.norm(analyze(t, x)) ** 2) - nx) <= tol * max(nx, 1.0)

        # canonical dual: reciprocity, operator inversion, reciprocal bounds
        dual = canonical_dual(f)
        assert np.max(np.abs(canonical_dual(dual).analysis - f.analysis)) <= tol * max(
            1.0, float(np.max(np.abs(f.analysis)))
        )
        assert np.max(np.abs(frame_operator(dual) @ s - np.eye(n))) <= tol * max(scale, 1.0)
        db = frame_bounds(dual)
        assert abs(db.lower - 1.0 / b.upper) <= tol / b.upper
        assert abs(db.upper - 1.0 / b.lower) <= tol / b.lower

        # expansion in both orders
        assert np.allclose(reconstruct(f, dual, analyze(f, x)), x, atol=tol * max(nx, 1.0))
        assert np.allclose(reconstruct(dual, f, analyze(dual, x)), x, atol=tol * max(nx, 1.0))

        # left-inverse family: default is the pseudo-inverse, any free
        # parameter yields a left inverse, and every left inverse fits the
        # parametrization
        pinv = pseudo_inverse(f)
        assert np.max(np.abs(left_inverse(f) - pinv)) <= tol
        m = rng.standard_normal((n, k)) + 1j * rng.standard_normal((n, k))
        li = left_inverse(f, free_param=m)
        assert is_left_inverse(f, li)
        back = pinv + li @ (np.eye(k) - f.analysis @ pinv)
        assert np.max(np.abs(back - li)) <= tol * max(1.0, float(np.max(np.abs(li))))

        # minimum-norm coefficients: b = L^H x obeys the Pythagorean split
        a_c = analyze(dual, x)
        b_c = li.conj().T @ x
        na, nb = float(np.linalg.norm(a_c) ** 2), float(np.linalg.norm(b_c) ** 2)
        gap = float(np.linalg.norm(a_c - b_c) ** 2)
        assert abs(nb - (na + gap)) <= tol * max(nb, 1.0)
        assert na <= nb * (1 + tol) + tol

        # range projection: Hermitian idempotent fixing the coefficient range
        p = range_projection(f)
        pscale = max(1.0, float(np.max(np.abs(p))))
        assert np.max(np.abs(p @ p - p)) <= tol * pscale
        assert np.max(np.abs(p - p.conj().T)) <= tol * pscale
        assert np.max(np.abs(p @ f.analysis - f.analysis)) <= tol * max(
            1.0, float(np.max(np.abs(f.analysis)))
        )
        assert abs(float(np.trace(p).real) - n) <= tol * n

        # exactness diagonal: cross-correlation identity and safe deletion
        prof = exactness_profile(f)
        d = np.asarray(prof.diagonal)
        # the diagonal sums the products of p's diagonal in another order
        order = 2 * n * np.finfo(np.float64).eps * np.sum(np.abs(dual.analysis * f.analysis), axis=1)
        assert np.all(np.abs(d - np.real(np.diag(p))) <= order)
        col_energy = np.sum(np.abs(p) ** 2, axis=0) - d**2
        assert np.max(np.abs(col_energy - (1.0 - d**2 - np.abs(1.0 - d) ** 2) / 2.0)) <= tol
        eligible = np.nonzero(np.abs(d - 1.0) > 1e-6)[0]
        if eligible.size:
            idx = int(eligible[int(rng.integers(eligible.size))])
            assert frame_bounds(remove_vector(f, idx)).spans()

        # unitary images keep the bounds
        u = random_unitary(rng, n)
        bu = frame_bounds(unitary_transform(f, u))
        assert abs(bu.lower - b.lower) <= tol * max(b.upper, 1.0)
        assert abs(bu.upper - b.upper) <= tol * max(b.upper, 1.0)

        # unit-norm redundancy: A <= K/N <= B, with equality for tight
        norms = np.linalg.norm(f.vectors, axis=1)
        unit = Frame.from_vectors(np.asarray(f.vectors) / norms[:, None])
        ub = frame_bounds(unit)
        ratio = k / n
        assert ub.lower <= ratio * (1 + tol) + tol
        assert ratio <= ub.upper * (1 + tol) + tol

        # redundant tight frames can never be biorthonormal to their dual
        if k > n:
            ok, _gram = check_biorthonormal(f, dual)
            assert not ok

        # eigendecomposition self-checks at the solver's own tolerances
        w, v = jacobi_eigh(s)
        assert np.linalg.norm((v * w) @ v.conj().T - s) <= 1e-11 * max(scale, 1.0)
        isq = (v * w**-0.5) @ v.conj().T
        assert np.max(np.abs(isq @ isq @ s - np.eye(n))) <= 1e-9

    # tight + unit-norm forces an orthonormal basis (gram = I)
    for _ in range(20):
        u = random_unitary(rng, int(rng.integers(2, 7)))
        f = Frame.from_vectors(u)
        ok, gram = check_biorthonormal(f, canonical_dual(f))
        assert ok and np.max(np.abs(gram - np.eye(f.dim))) <= tol

    # unit-norm tight frames hit the redundancy bound exactly: A = K/N
    for dim, red in ((2, 2), (3, 3), (4, 2)):
        unit = Frame(harmonic_frame(dim, red).analysis / np.sqrt(dim))
        ub = frame_bounds(unit)
        assert abs(ub.lower - red) <= tol and abs(ub.upper - red) <= tol

    assert time.perf_counter() - t_start < 10.0


def test_naimark_dilation_recovers_frame():
    f = tighten(MB)
    u = naimark_dilate(f)
    assert u.shape == (3, 3)
    assert np.max(np.abs(u.conj().T @ u - np.eye(3))) <= 1e-10
    assert np.max(np.abs(u @ u.conj().T - np.eye(3))) <= 1e-10
    # projecting each basis row to the first two coordinates returns the frame
    assert np.max(np.abs(u[:, :2] - f.analysis)) <= 1e-10


def test_gabor_full_density_systems():
    rng = np.random.default_rng(7)
    for m in (4, 6, 8):
        params = GaborParams(length=m, shift=1, mods=m)
        for _ in range(20):
            g = rng.standard_normal(m) + 1j * rng.standard_normal(m)
            system = build_gabor_frame(g, params)
            b = frame_bounds(system)
            expect = m * float(np.linalg.norm(g) ** 2)
            assert abs(b.lower - expect) <= 1e-9 * expect
            assert abs(b.upper - expect) <= 1e-9 * expect

            dual = canonical_dual(system)
            assert verify_wh_structure(dual, gabor_dual_prototype(g, params), params)

            s = frame_operator(system)
            sscale = float(np.linalg.norm(s))
            for kk in range(params.mods):
                for ll in range(params.steps):
                    w = weyl_matrix(kk, ll, params)
                    assert np.linalg.norm(s @ w - w @ s) <= 1e-10 * sscale

    # too few translate-modulates can never span
    sparse = GaborParams(length=4, shift=2, mods=1)
    g = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    assert not frame_bounds(build_gabor_frame(g, sparse)).spans()


def test_sampling_noise_mse_suite():
    t_start = time.perf_counter()
    sigma2 = 1.0
    means = {}
    for period in (4, 2, 1):
        model = SamplingModel(size=64, band=4, period=period)
        filt = ideal_lowpass(model)
        mean, _profile = analytic_mse(filt, model, sigma2)
        expect = 9.0 * period / 64.0  # sigma2 (2W+1) / L
        assert abs(mean - expect) <= 1e-10
        assert abs(mean - spectral_mse(filt, model, sigma2)) <= 1e-10
        x = make_bandlimited(64, 4, seed=period)
        exp = monte_carlo_mse(x, filt, model, sigma2, trials=10_000, seed=42)
        assert abs(exp.estimate - mean) <= 0.03 * mean
        means[period] = mean

    for hi, lo in ((4, 2), (2, 1)):
        db = 10.0 * np.log10(means[hi] / means[lo])
        assert abs(db - 3.0103) <= 0.01

    # perfect reconstruction for the ideal filter and three don't-care fillings
    model = SamplingModel(size=64, band=4, period=4)
    taper = {}
    for nu in range(5, 12):
        val = 4.0 * (12 - nu) / 7.0
        taper[nu] = val
        taper[-nu] = val
    cosine = {}
    for nu in range(5, 9):
        val = 4.0 * 0.5 * (1 + np.cos(np.pi * (nu - 4) / 5.0))
        cosine[nu] = val
        cosine[-nu] = val
    rng = np.random.default_rng(11)
    scatter = {int(nu): complex(rng.standard_normal(), rng.standard_normal())
               for nu in (5, -7, 9, 21, -27, 11)}
    filters = [
        ideal_lowpass(model),
        make_recon_filter(model, taper),
        make_recon_filter(model, cosine),
        make_recon_filter(model, scatter),
    ]
    for filt in filters:
        assert is_perfect(filt, model)
        for seed in (0, 1):
            x = make_bandlimited(64, 4, seed=seed)
            err = sample_reconstruct(sample(x, model), filt, model) - x
            assert float(np.max(np.abs(err))) <= 1e-9
        inband, outband = mse_decomposition(filt, model, sigma2)
        assert abs(inband - 9.0 / 16.0) <= 1e-10
        total = analytic_mse(filt, model, sigma2)[0]
        assert abs(inband + outband - total) <= 1e-10 * max(total, 1.0)

    assert time.perf_counter() - t_start < 5.0


def test_critical_vs_oversampled_sampling():
    critical = sampling_frame(SamplingModel(size=36, band=4, period=4))  # L = 2W+1
    prof = exactness_profile(critical)
    assert prof.classification == ExactnessProfile.EXACT
    assert np.max(np.abs(prof.diagonal - 1.0)) <= 1e-10
    assert not frame_bounds(remove_vector(critical, 0)).spans()

    oversampled = sampling_frame(SamplingModel(size=64, band=4, period=4))
    prof = exactness_profile(oversampled)
    assert prof.classification == ExactnessProfile.INEXACT
    assert np.max(np.abs(prof.diagonal - 9.0 / 16.0)) <= 1e-10
    assert np.all(prof.diagonal < 1.0)
    b = frame_bounds(oversampled)
    assert b.is_tight()
    assert frame_bounds(remove_vector(oversampled, 5)).spans()
