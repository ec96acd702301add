"""Periodic sampling and reconstruction: PR constraints, noise MSE, frame view."""

import numpy as np
import pytest

from framekit import sampling
from framekit import (
    AliasingError,
    DimensionMismatchError,
    ExactnessProfile,
    NotPerfectReconstructionError,
    ProtectedBinError,
    SizeLimitError,
    analyze,
    canonical_dual,
    exactness_profile,
    frame_bounds,
    remove_vector,
)
from framekit import reconstruct as frame_reconstruct
from framekit.sampling import (
    MAX_TRIAL_SAMPLES,
    ReconFilter,
    SamplingModel,
    alias_bins,
    analytic_mse,
    centered_bins,
    check_trial_budget,
    dontcare_bins,
    ideal_lowpass,
    is_perfect,
    make_bandlimited,
    make_recon_filter,
    monte_carlo_mse,
    mse_decomposition,
    passband_bins,
    reconstruct,
    sample,
    sampling_frame,
    spectral_mse,
)

def is_bandlimited(x, band, tol=1e-12):
    x = np.asarray(x, dtype=np.complex128)
    spectrum = np.fft.fft(x)
    nu = centered_bins(x.shape[0])
    outside = np.abs(spectrum[np.abs(nu) > band])
    scale = max(float(np.max(np.abs(spectrum))), 1.0)
    return bool(outside.size == 0 or np.max(outside) <= tol * scale)


WIDE = SamplingModel(size=64, band=4, period=4)  # L = 16, passband 9


# ------------------------------------------------------------------- model


def test_model_properties():
    assert WIDE.num_samples == 16
    assert WIDE.passband_width == 9
    assert WIDE.oversampling == pytest.approx(16.0 / 9.0)


def test_model_validation():
    with pytest.raises(DimensionMismatchError):
        SamplingModel(size=9, band=1, period=3)  # odd size
    with pytest.raises(DimensionMismatchError):
        SamplingModel(size=8, band=1, period=3)  # period does not divide
    with pytest.raises(DimensionMismatchError):
        SamplingModel(size=8, band=4, period=2)  # band beyond size//2 - 1
    with pytest.raises(DimensionMismatchError):
        SamplingModel(size=8, band=-1, period=2)
    with pytest.raises(DimensionMismatchError):
        SamplingModel(size=8.0, band=1, period=2)


def test_bin_partition():
    nu = centered_bins(8)
    assert list(nu) == [0, 1, 2, 3, -4, -3, -2, -1]
    pb = set(passband_bins(WIDE))
    al = set(alias_bins(WIDE))
    dc = set(dontcare_bins(WIDE))
    assert pb == set(range(-4, 5))
    # alias images sit within W of a nonzero multiple of L = 16
    assert {-16, 16, 12, -12, 20, 28, -28} <= al
    assert {5, 11, -5, -11, 21, 27, -27} <= dc
    # the three classes partition all 64 centered bins
    assert not (pb & al) and not (pb & dc) and not (al & dc)
    assert len(pb) + len(al) + len(dc) == 64


# ----------------------------------------------------------------- signals


def test_make_bandlimited_unit_energy_and_band():
    x = make_bandlimited(64, 4, seed=0)
    assert np.linalg.norm(x) == pytest.approx(1.0)
    assert is_bandlimited(x, 4)
    assert not is_bandlimited(x, 3)


def test_make_bandlimited_constant_modulus_at_zero_band():
    x = make_bandlimited(16, 0, seed=3)
    assert np.allclose(np.abs(x), 0.25)


def test_make_bandlimited_seeding():
    a = make_bandlimited(32, 3, seed=7)
    b = make_bandlimited(32, 3, seed=7)
    c = make_bandlimited(32, 3, seed=8)
    assert np.array_equal(a, b)
    assert not np.allclose(a, c)


def test_sample_takes_every_period_th():
    m = SamplingModel(size=8, band=1, period=2)
    y = sample(np.arange(8, dtype=float), m)
    assert np.allclose(y, [0.0, 2.0, 4.0, 6.0])
    with pytest.raises(DimensionMismatchError):
        sample(np.arange(6, dtype=float), m)


# ----------------------------------------------------------------- filters


def test_ideal_lowpass_smallest_case():
    m = SamplingModel(size=8, band=0, period=4)
    filt = ideal_lowpass(m)
    assert np.allclose(filt.impulse, 0.5)
    assert np.allclose(filt.spectrum[0], 4.0)


def test_ideal_lowpass_rejects_sub_nyquist():
    with pytest.raises(AliasingError):
        ideal_lowpass(SamplingModel(size=8, band=2, period=4))  # 5 > L = 2


def test_make_recon_filter_default_is_ideal():
    assert np.allclose(make_recon_filter(WIDE).spectrum, ideal_lowpass(WIDE).spectrum)


def rolloff_values(lo, hi, gain):
    # symmetric linear taper on |nu| in [lo, hi]
    vals = {}
    for nu in range(lo, hi + 1):
        g = gain * (hi + 1 - nu) / (hi + 1 - lo)
        vals[nu] = g
        vals[-nu] = g
    return vals


def test_make_recon_filter_dontcare_values_are_pr():
    filt = make_recon_filter(WIDE, rolloff_values(5, 11, 4.0))
    assert is_perfect(filt, WIDE)
    assert filt.spectrum[5] == pytest.approx(4.0)
    assert filt.spectrum[11] == pytest.approx(4.0 / 7.0)
    x = make_bandlimited(64, 4, seed=1)
    err = reconstruct(sample(x, WIDE), filt, WIDE) - x
    assert np.max(np.abs(err)) < 1e-9


def test_make_recon_filter_protects_passband_and_aliases():
    with pytest.raises(ProtectedBinError):
        make_recon_filter(WIDE, {0: 1.0})
    with pytest.raises(ProtectedBinError):
        make_recon_filter(WIDE, {12: 1.0})  # alias image of -4
    with pytest.raises(ProtectedBinError):
        make_recon_filter(WIDE, {16: 0.5})
    with pytest.raises(DimensionMismatchError):
        make_recon_filter(WIDE, {40: 1.0})


def test_is_perfect_rejects_zero_filter():
    zero = ReconFilter.from_spectrum(np.zeros(64))
    assert not is_perfect(zero, WIDE)
    assert is_perfect(ideal_lowpass(WIDE), WIDE)


# ---------------------------------------------------------- reconstruction


def test_ideal_reconstruction_is_exact():
    for seed in range(4):
        x = make_bandlimited(64, 4, seed=seed)
        out = reconstruct(sample(x, WIDE), ideal_lowpass(WIDE), WIDE)
        assert np.max(np.abs(out - x)) < 1e-12


def test_critical_reconstruction_is_exact():
    m = SamplingModel(size=36, band=4, period=4)  # L = 9 = 2W+1
    x = make_bandlimited(36, 4, seed=2)
    out = reconstruct(sample(x, m), ideal_lowpass(m), m)
    assert np.max(np.abs(out - x)) < 1e-12


def test_out_of_band_signal_aliases():
    m = SamplingModel(size=16, band=1, period=4)
    x = make_bandlimited(16, 5, seed=0)  # wider than the model band
    out = reconstruct(sample(x, m), ideal_lowpass(m), m)
    assert np.max(np.abs(out - x)) > 1e-3


def test_reconstruct_shape_checks():
    with pytest.raises(DimensionMismatchError):
        reconstruct(np.zeros(5), ideal_lowpass(WIDE), WIDE)
    with pytest.raises(DimensionMismatchError):
        reconstruct(np.zeros(16), ReconFilter.from_spectrum(np.zeros(8)), WIDE)


# ------------------------------------------------------------- analytic MSE


def test_analytic_mse_ideal():
    mean, profile = analytic_mse(ideal_lowpass(WIDE), WIDE, sigma2=1.0)
    assert mean == pytest.approx(9.0 / 16.0, rel=1e-12)
    assert np.allclose(profile, 9.0 / 16.0, atol=1e-12)  # flat for the ideal filter


def test_analytic_mse_critical_equals_noise_power():
    m = SamplingModel(size=36, band=4, period=4)
    mean, _ = analytic_mse(ideal_lowpass(m), m, sigma2=2.5)
    assert mean == pytest.approx(2.5, rel=1e-12)


def test_analytic_mse_zero_filter():
    mean, profile = analytic_mse(ReconFilter.from_spectrum(np.zeros(64)), WIDE, 1.0)
    assert mean == 0.0 and np.all(profile == 0.0)


def test_analytic_matches_spectral_for_any_filter():
    rng = np.random.default_rng(107)
    for _ in range(5):
        h = rng.standard_normal(64) + 1j * rng.standard_normal(64)
        filt = ReconFilter.from_impulse(h)
        mean, _ = analytic_mse(filt, WIDE, sigma2=0.7)
        assert mean == pytest.approx(spectral_mse(filt, WIDE, 0.7), rel=1e-12)


def test_profile_flat_when_support_fits_one_alias_period():
    # support {-4..7} has no two bins a multiple of L = 16 apart
    filt = make_recon_filter(WIDE, {5: 2.0, 6: 1.0, 7: 0.5})
    _, profile = analytic_mse(filt, WIDE, 1.0)
    assert np.ptp(profile) < 1e-12 * profile.max()


def test_profile_varies_for_straddling_support():
    # bins -8 and +8 are exactly L apart: polyphase energies differ
    filt = make_recon_filter(WIDE, {8: 2.0, -8: 2.0, 5: 1.0, -5: 1.0})
    mean, profile = analytic_mse(filt, WIDE, 1.0)
    assert np.ptp(profile) > 1e-3 * mean
    assert mean == pytest.approx(spectral_mse(filt, WIDE, 1.0), rel=1e-12)


def test_mse_halves_per_oversampling_doubling():
    mses = []
    for period in (4, 2, 1):
        m = SamplingModel(size=64, band=4, period=period)
        mses.append(analytic_mse(ideal_lowpass(m), m, 1.0)[0])
    assert np.allclose(mses, [9.0 / 16.0, 9.0 / 32.0, 9.0 / 64.0], rtol=1e-12)
    db = 10.0 * np.log10(mses[0] / mses[1])
    assert db == pytest.approx(3.0103, abs=1e-3)


def test_mse_decomposition_ideal_and_rolloff():
    inband, outband = mse_decomposition(ideal_lowpass(WIDE), WIDE, 1.0)
    assert inband == pytest.approx(9.0 / 16.0, rel=1e-12)
    assert outband == 0.0

    filt = make_recon_filter(WIDE, rolloff_values(5, 11, 4.0))
    inband, outband = mse_decomposition(filt, WIDE, 1.0)
    assert inband == pytest.approx(9.0 / 16.0, rel=1e-12)
    assert outband > 0.0
    total = analytic_mse(filt, WIDE, 1.0)[0]
    assert inband + outband == pytest.approx(total, rel=1e-10)


def test_mse_decomposition_requires_pr():
    with pytest.raises(NotPerfectReconstructionError):
        mse_decomposition(ReconFilter.from_spectrum(np.zeros(64)), WIDE, 1.0)


# -------------------------------------------------------------- Monte Carlo


def test_monte_carlo_zero_noise():
    x = make_bandlimited(64, 4, seed=0)
    exp = monte_carlo_mse(x, ideal_lowpass(WIDE), WIDE, sigma2=0.0, trials=3, seed=1)
    # estimate is FFT roundoff squared, not an exact zero
    assert exp.estimate < 1e-30 and exp.stderr == 0.0 and exp.analytic == 0.0


def test_monte_carlo_deterministic():
    x = make_bandlimited(16, 1, seed=0)
    m = SamplingModel(size=16, band=1, period=4)
    a = monte_carlo_mse(x, ideal_lowpass(m), m, sigma2=1.0, trials=50, seed=9)
    b = monte_carlo_mse(x, ideal_lowpass(m), m, sigma2=1.0, trials=50, seed=9)
    assert a.estimate == b.estimate and a.stderr == b.stderr
    c = monte_carlo_mse(x, ideal_lowpass(m), m, sigma2=1.0, trials=50, seed=10)
    assert c.estimate != a.estimate


def test_monte_carlo_matches_analytic():
    m = SamplingModel(size=16, band=1, period=4)
    x = make_bandlimited(16, 1, seed=4)
    filt = ideal_lowpass(m)
    exp = monte_carlo_mse(x, filt, m, sigma2=0.5, trials=400, seed=2)
    assert exp.analytic == pytest.approx(0.5 * 3.0 / 4.0, rel=1e-12)
    assert abs(exp.estimate - exp.analytic) < 5.0 * exp.stderr


def test_monte_carlo_real_noise_same_mean():
    m = SamplingModel(size=16, band=1, period=4)
    x = make_bandlimited(16, 1, seed=4)
    exp = monte_carlo_mse(x, ideal_lowpass(m), m, 0.5, trials=400, seed=2,
                          complex_noise=False)
    assert not exp.complex_noise
    assert abs(exp.estimate - exp.analytic) < 5.0 * exp.stderr


def test_monte_carlo_single_trial_and_validation():
    x = make_bandlimited(16, 1, seed=0)
    m = SamplingModel(size=16, band=1, period=4)
    exp = monte_carlo_mse(x, ideal_lowpass(m), m, 1.0, trials=1, seed=0)
    assert exp.stderr == 0.0
    with pytest.raises(DimensionMismatchError):
        monte_carlo_mse(x, ideal_lowpass(m), m, 1.0, trials=0, seed=0)
    with pytest.raises(DimensionMismatchError):
        monte_carlo_mse(x, ideal_lowpass(m), m, -1.0, trials=2, seed=0)


def test_signals_and_samples_are_checked_like_frame_vectors(monkeypatch):
    m = SamplingModel(size=16, band=1, period=4)
    x = make_bandlimited(16, 1, seed=0)
    filt = ideal_lowpass(m)
    # any array with the right number of entries is a vector
    assert np.array_equal(sample(x.reshape(1, -1), m), sample(x, m))
    assert np.array_equal(reconstruct(sample(x, m).reshape(-1, 1), filt, m),
                          reconstruct(sample(x, m), filt, m))
    bad = x.copy()
    bad[3] = np.nan
    with pytest.raises(DimensionMismatchError, match="signal entries must be finite"):
        sample(bad, m)
    with pytest.raises(DimensionMismatchError, match="samples entries must be finite"):
        reconstruct(np.full(4, np.inf), filt, m)
    with pytest.raises(DimensionMismatchError, match="samples has length 5, expected 4"):
        reconstruct(np.zeros(5), filt, m)

    def no_draw(*args, **kwargs):
        raise AssertionError("noise drawn for a rejected argument")

    monkeypatch.setattr(sampling, "_trial_rng", no_draw)
    with pytest.raises(DimensionMismatchError, match="signal entries must be finite"):
        monte_carlo_mse(bad, filt, m, 1.0, trials=2, seed=0)
    for sigma2 in (np.nan, np.inf, -np.inf, -1.0):
        with pytest.raises(DimensionMismatchError, match="sigma2 must be finite and >= 0"):
            monte_carlo_mse(x, filt, m, sigma2, trials=2, seed=0)


def test_negative_seed_is_rejected_before_drawing(monkeypatch):
    def no_draw(*args, **kwargs):
        raise AssertionError("signal drawn for a rejected seed")

    monkeypatch.setattr(np.random, "default_rng", no_draw)
    with pytest.raises(DimensionMismatchError, match="seed must be >= 0, got -1"):
        make_bandlimited(16, 1, seed=-1)


def test_filter_impulse_and_spectrum_are_both_checked():
    # a filter whose impulse and spectrum disagree in length reaches every
    # consumer as the same typed error, not a numpy reshape failure
    m = SamplingModel(size=16, band=1, period=4)
    lopsided = ReconFilter(impulse=np.zeros(8, dtype=complex), spectrum=ideal_lowpass(m).spectrum)
    for call in (
        lambda: analytic_mse(lopsided, m, 1.0),
        lambda: spectral_mse(lopsided, m, 1.0),
        lambda: is_perfect(lopsided, m),
        lambda: reconstruct(np.zeros(4), lopsided, m),
    ):
        with pytest.raises(DimensionMismatchError, match=r"filter length \(8,\), expected 16"):
            call()


# -------------------------------------------------------------- frame view


def test_sample_energy_identity():
    # for bandlimited x below the PR threshold, sum |x[m Ts]|^2 = ||x||^2 / Ts
    x = make_bandlimited(64, 4, seed=5)
    y = sample(x, WIDE)
    assert np.linalg.norm(y) ** 2 == pytest.approx(1.0 / 4.0, rel=1e-10)


def test_sampling_frame_analyzes_to_samples():
    f = sampling_frame(WIDE)
    assert f.num_vectors == 16 and f.dim == 9
    x = make_bandlimited(64, 4, seed=6)
    coeffs = np.fft.fft(x)[passband_bins(WIDE) % 64]
    assert np.allclose(analyze(f, coeffs), sample(x, WIDE), atol=1e-12)


def test_sampling_frame_tight_bound():
    b = frame_bounds(sampling_frame(WIDE))
    expect = 16.0 / 64.0 ** 2
    assert np.allclose([b.lower, b.upper], [expect, expect], rtol=1e-10)
    assert b.is_tight()


def test_sampling_frame_exactness_oversampled():
    prof = exactness_profile(sampling_frame(WIDE))
    assert prof.classification == ExactnessProfile.INEXACT
    assert np.allclose(prof.diagonal, 9.0 / 16.0, atol=1e-10)


def test_sampling_frame_exactness_critical():
    m = SamplingModel(size=36, band=4, period=4)
    prof = exactness_profile(sampling_frame(m))
    assert prof.classification == ExactnessProfile.EXACT
    assert np.allclose(prof.diagonal, 1.0, atol=1e-10)


def test_sampling_frame_oversampled_survives_deletion():
    f = sampling_frame(WIDE)
    assert frame_bounds(remove_vector(f, 3)).spans()
    # critical sampling does not
    crit = sampling_frame(SamplingModel(size=36, band=4, period=4))
    assert not frame_bounds(remove_vector(crit, 3)).spans()


def test_sampling_frame_dual_reconstructs_coefficients():
    # sampling is analysis; synthesizing the samples against the canonical
    # dual returns the passband coefficients, i.e. recovers the signal
    f = sampling_frame(WIDE)
    x = make_bandlimited(64, 4, seed=8)
    coeffs = np.fft.fft(x)[passband_bins(WIDE) % 64]
    rec = frame_reconstruct(f, canonical_dual(f), sample(x, WIDE))
    assert np.allclose(rec, coeffs, atol=1e-9)


def test_sampling_frame_rejects_sub_nyquist():
    with pytest.raises(AliasingError):
        sampling_frame(SamplingModel(size=16, band=3, period=4))  # 7 > L = 4


def test_trial_budget_rejects_before_allocating(monkeypatch):
    model = SamplingModel(size=8, band=1, period=2)
    x = make_bandlimited(8, 1, seed=0)
    filt = ideal_lowpass(model)

    def no_alloc(*args, **kwargs):
        raise AssertionError("allocation attempted past the size guard")

    monkeypatch.setattr(np, "empty", no_alloc)
    with pytest.raises(SizeLimitError) as info:
        monte_carlo_mse(x, filt, model, sigma2=1.0, trials=100_000_000_000, seed=0)
    assert info.value.code == "too_large"
    check_trial_budget(8, MAX_TRIAL_SAMPLES // 8)
    with pytest.raises(SizeLimitError):
        check_trial_budget(8, MAX_TRIAL_SAMPLES // 8 + 1)
    with pytest.raises(SizeLimitError):
        check_trial_budget(MAX_TRIAL_SAMPLES + 2, 0)  # a signal alone counts as one trial
