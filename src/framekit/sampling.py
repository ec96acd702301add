"""Periodic sampling and reconstruction on C^N with additive sample noise.

The model: signals live on n = 0..N-1 (N even) with DFT bins indexed by
centered frequencies nu in [-N/2, N/2); bin nu is stored at array index
nu mod N under the numpy convention X[nu] = sum_n x[n] exp(-2 pi i nu n / N).
A signal is bandlimited to W when X vanishes outside |nu| <= W.  Sampling
keeps every Ts-th point (Ts | N, L = N/Ts samples); reconstruction is the
circular convolution

    x'[n] = sum_m y[m] h[(n - m Ts) mod N].

Subsampling folds the spectrum: fft(zero-stuffed y) at bin nu is
(1/Ts) sum_r X[nu - r L], so perfect reconstruction of every W-bandlimited
signal is possible iff 2W+1 <= L, and holds exactly for any filter with
H = Ts on the passband and H = 0 on the passband's alias images
(nu congruent to a passband bin mod L); all remaining bins are free.
A filter is its DFT H, the length-N array fft(h) of its impulse response h;
analytic_mse returns the noise MSE sigma2/(N Ts) * sum |H|^2.
"""

import cmath
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import (
    AliasingError,
    DimensionMismatchError,
    NotPerfectReconstructionError,
    NumericOverflowError,
    ProtectedBinError,
    SizeLimitError,
)
from .frames import Frame, _as_complex_vector, _check_integers
from .hermitian import _as_complex

PR_TOL = 1e-9
# Monte Carlo work limit, trials * N.  With trials >= 1 it also bounds N, so
# at the limit neither the per-trial results nor one signal exceeds 256 MiB.
MAX_TRIAL_SAMPLES = 2**24


@dataclass(frozen=True)
class SamplingModel:
    """(N, W, Ts): signal length (even), band half-width in bins, period."""

    size: int
    band: int
    period: int

    def __post_init__(self):
        _check_integers(size=self.size, band=self.band, period=self.period)
        if self.size < 2 or self.size % 2:
            raise DimensionMismatchError("size must be even and >= 2, got %d" % self.size)
        if self.period < 1 or self.size % self.period:
            raise DimensionMismatchError(
                "period %d must divide size %d" % (self.period, self.size)
            )
        if not 0 <= self.band <= self.size // 2 - 1:
            raise DimensionMismatchError(
                "band %d outside centered bin range of size %d" % (self.band, self.size)
            )

    @property
    def num_samples(self):
        """L = N / Ts."""
        return self.size // self.period

    @property
    def passband_width(self):
        return 2 * self.band + 1

    @property
    def oversampling(self):
        """L / (2W+1); perfect reconstruction possible iff >= 1."""
        return self.num_samples / self.passband_width


def centered_bins(size):
    """Centered bin index for each array position 0..size-1."""
    nu = np.arange(size)
    return np.where(nu < size // 2 + size % 2, nu, nu - size)


def passband_bins(model):
    return np.arange(-model.band, model.band + 1)


def _folded_bins(model):
    """Centered bins and each one's distance to the nearest multiple of L."""
    nu, l = centered_bins(model.size), model.num_samples
    return nu, np.minimum(nu % l, (-nu) % l)


def alias_bins(model):
    """Centered bins congruent to a passband bin mod L, passband excluded."""
    nu, folded = _folded_bins(model)
    return np.sort(nu[(folded <= model.band) & (np.abs(nu) > model.band)])


def dontcare_bins(model):
    """Bins the perfect-reconstruction constraint leaves free."""
    nu, folded = _folded_bins(model)
    return np.sort(nu[folded > model.band])


def _check_seed(seed):
    _check_integers(seed=seed)
    if seed < 0:
        raise DimensionMismatchError("seed must be >= 0, got %d" % seed)


def make_bandlimited(size, band, seed):
    """Unit-energy signal with i.i.d. complex-Gaussian passband coefficients."""
    model = SamplingModel(size=size, band=band, period=1)  # validates size/band
    _check_seed(seed)
    rng = np.random.default_rng(seed)
    spectrum = np.zeros(size, dtype=np.complex128)
    width = model.passband_width
    coeffs = rng.standard_normal(width) + 1j * rng.standard_normal(width)
    spectrum[passband_bins(model) % size] = coeffs
    x = np.fft.ifft(spectrum)
    return x / np.linalg.norm(x)


def check_trial_budget(size, trials):
    """Raise SizeLimitError, before anything is allocated, when
    max(trials, 1) * size exceeds MAX_TRIAL_SAMPLES."""
    if max(trials, 1) * size > MAX_TRIAL_SAMPLES:
        raise SizeLimitError(
            "%d trials of N = %d exceed the limit of %d samples (trials * N)"
            % (trials, size, MAX_TRIAL_SAMPLES)
        )


def sample(x, model):
    """y[m] = x[m Ts]."""
    return _as_complex_vector(x, model.size, "signal")[:: model.period].copy()


def _check_no_aliasing(model):
    if model.passband_width > model.num_samples:
        raise AliasingError(
            "passband width %d exceeds sample count %d"
            % (model.passband_width, model.num_samples)
        )


def _filter_spectrum(filt, model):
    spectrum = _as_complex(filt, "filter", np.asarray)
    if spectrum.shape != (model.size,):
        raise DimensionMismatchError("filter length %r, expected %d" % (spectrum.shape, model.size))
    return spectrum


def ideal_lowpass(model):
    """H = Ts on |nu| <= W, zero elsewhere; the unique PR filter at 2W+1 = L."""
    _check_no_aliasing(model)
    spectrum = np.zeros(model.size, dtype=np.complex128)
    spectrum[passband_bins(model) % model.size] = model.period
    return spectrum


def make_recon_filter(model, dontcare_values=None):
    """A perfect-reconstruction filter with chosen don't-care bin values.

    dontcare_values maps centered bins to gains, each a finite real or complex
    number other than a bool; assigning a passband or alias-image bin raises,
    since PR pins those.
    """
    spectrum = ideal_lowpass(model)
    half = model.size // 2
    free = set(int(b) for b in dontcare_bins(model))
    for nu, value in (dontcare_values or {}).items():
        _check_integers(bin=nu)
        if not -half <= nu <= half - 1:
            raise DimensionMismatchError(
                "bin %d outside centered range [%d, %d]" % (nu, -half, half - 1)
            )
        if nu not in free:
            raise ProtectedBinError(
                "bin %d is pinned by perfect reconstruction" % nu
            )
        try:
            finite = not isinstance(value, (bool, np.bool_)) and cmath.isfinite(value)
        except (TypeError, OverflowError):  # not a number, or beyond complex128
            finite = False
        if not finite:
            raise DimensionMismatchError("gain at bin %d must be a finite number" % nu)
        spectrum[nu % model.size] = complex(value)
    return spectrum


def is_perfect(filt, model):
    """Check the PR constraints (passband gain Ts, alias images zero) within
    PR_TOL * Ts."""
    spectrum = _filter_spectrum(filt, model)
    scale = PR_TOL * max(model.period, 1)
    pass_ok = np.max(np.abs(spectrum[passband_bins(model) % model.size] - model.period)) <= scale
    alias = alias_bins(model)
    alias_ok = alias.size == 0 or np.max(np.abs(spectrum[alias % model.size])) <= scale
    return bool(pass_ok and alias_ok)


def reconstruct(samples, filt, model):
    """x'[n] = sum_m y[m] h[(n - m Ts) mod N] via the convolution theorem."""
    y = _as_complex_vector(samples, model.num_samples, "samples")
    spectrum = _filter_spectrum(filt, model)
    stuffed = np.zeros(model.size, dtype=np.complex128)
    stuffed[:: model.period] = y
    return np.fft.ifft(np.fft.fft(stuffed) * spectrum)


def _check_sigma2(sigma2):
    if isinstance(sigma2, bool) or not isinstance(sigma2, numbers.Real):
        raise DimensionMismatchError("sigma2 must be a real number")
    if not 0 <= sigma2 < np.inf:
        raise DimensionMismatchError("sigma2 must be finite and >= 0")


def _noise_power(values, model, sigma2):
    """sigma2/(N Ts) * sum |values|^2: the noise MSE the bins holding values carry."""
    return float(sigma2 / (model.size * model.period) * np.sum(np.abs(values) ** 2))


def analytic_mse(filt, model, sigma2):
    """Noise MSE averaged over positions: sigma2/(N Ts) * sum |H|^2.

    Position n sees sigma2 * sum_m |h[(n - m Ts) mod N]|^2, a profile that
    depends on n only through n mod Ts and is flat for PR filters supported
    in one alias period; by Parseval its average is this sum over H.
    """
    _check_sigma2(sigma2)
    return _noise_power(_filter_spectrum(filt, model), model, sigma2)


def mse_decomposition(filt, model, sigma2):
    """(inband, outband) noise MSE of a PR filter.

    inband covers the passband (equals sigma2 * (2W+1)/L for PR filters);
    outband is everything else, carried entirely by don't-care bins since the
    alias images are pinned at zero.  The two add up to analytic_mse, exactly
    for the ideal lowpass.
    """
    _check_sigma2(sigma2)
    spectrum = _filter_spectrum(filt, model)
    if not is_perfect(spectrum, model):
        raise NotPerfectReconstructionError("filter does not satisfy the PR constraints")
    inband = np.abs(centered_bins(model.size)) <= model.band
    return tuple(_noise_power(spectrum[bins], model, sigma2) for bins in (inband, ~inband))


@dataclass(frozen=True)
class NoiseExperiment:
    """Monte Carlo noise study alongside its analytic prediction."""

    trials: int
    estimate: float
    stderr: float
    analytic: float


def _trial_rng(seed, trial):
    # counter-based: stream is keyed by (seed, trial), independent of order
    key = np.array([seed % 2**64, trial], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def monte_carlo_mse(x, filt, model, sigma2, trials, seed):
    """Average reconstruction MSE over trials of complex Gaussian sample noise.

    Trial t draws its noise from the (seed, t) Philox stream, so results are
    reproducible for a given seed no matter how trials are partitioned; the
    final average is numpy's pairwise mean over the per-trial values.
    NumericOverflowError when a result exceeds float64.
    """
    x = _as_complex_vector(x, model.size, "signal")
    _check_integers(trials=trials)
    if trials < 1:
        raise DimensionMismatchError("trials must be >= 1")
    check_trial_budget(model.size, trials)
    _check_sigma2(sigma2)
    _check_seed(seed)
    y = sample(x, model)
    l = model.num_samples
    per_trial = np.empty(trials)
    with np.errstate(over="ignore", invalid="ignore"):
        for t in range(trials):
            z = _trial_rng(seed, t).standard_normal(2 * l)
            noise = np.sqrt(sigma2 / 2.0) * (z[:l] + 1j * z[l:])
            recon = reconstruct(y + noise, filt, model)
            per_trial[t] = np.mean(np.abs(x - recon) ** 2)
        estimate = float(np.mean(per_trial))
        stderr = 0.0
        if trials > 1:
            # std of per_trial / 2^e, scaled back: exact, and the squared
            # deviations stay representable when per_trial nears float64's limit
            e = np.frexp(per_trial.max())[1]
            spread = np.ldexp(np.std(np.ldexp(per_trial, -e), ddof=1), e)
            stderr = float(spread / np.sqrt(trials))
        analytic = analytic_mse(filt, model, sigma2)
    if not np.isfinite([estimate, stderr, analytic]).all():
        raise NumericOverflowError("Monte Carlo MSE overflows: sigma2 too large for float64")
    return NoiseExperiment(trials=int(trials), estimate=estimate, stderr=stderr, analytic=analytic)


def sampling_frame(model):
    """The sampling functionals as a frame over passband coefficients.

    For x bandlimited to W with passband DFT values c (ordered nu = -W..W),
    x[m Ts] = (analysis @ c)[m].  The frame operator is (L/N^2) I, tight;
    each <dual_m, g_m> equals (2W+1)/L, so the frame is exact iff sampling
    is critical.
    """
    _check_no_aliasing(model)
    m = np.arange(model.num_samples).reshape(-1, 1)
    nu = passband_bins(model).reshape(1, -1)
    analysis = np.exp(2j * np.pi * nu * m * model.period / model.size) / model.size
    return Frame(analysis)
