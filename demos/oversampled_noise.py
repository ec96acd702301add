"""
Oversampling buys noise immunity: 3 dB per doubling
===================================================

Sampling a bandlimited signal above its critical rate leaves slack in the
reconstruction filter, and averaging over that slack divides the noise MSE
by the oversampling factor.  The claim is checked three ways: a closed form,
the filter's spectrum, and a seeded Monte Carlo run.
"""

import numpy as np

from framekit import exactness_profile, frame_bounds
from framekit.sampling import (
    SamplingModel,
    analytic_mse,
    ideal_lowpass,
    make_bandlimited,
    make_recon_filter,
    monte_carlo_mse,
    mse_decomposition,
    is_perfect,
    sample,
    sampling_frame,
)
from framekit.sampling import reconstruct

SIZE, BAND, SIGMA2 = 64, 4, 1.0

# Perfect reconstruction needs 2W+1 = 9 of the 16 available sample-spectrum
# slots at Ts = 4, so periods 4, 2, 1 oversample by 16/9, 32/9, 64/9.
x = make_bandlimited(SIZE, BAND, seed=0)
print("period  factor  analytic     monte carlo        recon error")
rows = []
for period in (4, 2, 1):
    model = SamplingModel(size=SIZE, band=BAND, period=period)
    filt = ideal_lowpass(model)
    err = np.max(np.abs(reconstruct(sample(x, model), filt, model) - x))
    exp = monte_carlo_mse(x, filt, model, SIGMA2, trials=2000, seed=1)
    rows.append(exp.analytic)
    print("  %d     %5.2f   %.6f   %.6f +- %.6f   %.1e"
          % (period, model.oversampling, exp.analytic, exp.estimate, exp.stderr, err))

print("dB drop per doubling: %.4f, %.4f"
      % tuple(10 * np.log10(rows[i] / rows[i + 1]) for i in (0, 1)))

# The don't-care part of the spectrum is free.  Filling it adds noise without
# breaking perfect reconstruction; the MSE splits into a pinned inband part
# plus whatever the free bins contribute.
model = SamplingModel(size=SIZE, band=BAND, period=4)
taper = {nu: 4.0 * (12 - abs(nu)) / 7.0 for nu in range(5, 12)}
taper.update({-nu: v for nu, v in taper.items()})
filt = make_recon_filter(model, taper)
print("\ntapered filter still PR:", is_perfect(filt, model))
inband, outband = mse_decomposition(filt, model, SIGMA2)
total = analytic_mse(filt, model, SIGMA2)
print("inband %.6f + outband %.6f = %.6f" % (inband, outband, total))

# The frame view: sampling functionals over the passband coefficients form a
# tight frame; oversampling shows up as exactness diagonal (2W+1)/L < 1.
for size, label in ((36, "critical"), (64, "oversampled")):
    f = sampling_frame(SamplingModel(size=size, band=BAND, period=4))
    prof = exactness_profile(f)
    b = frame_bounds(f)
    print("%-12s L=%2d  tight=%s  <g~_k, g_k> = %.4f  (%s)"
          % (label, f.num_vectors, b.is_tight(), prof.diagonal[0], prof.classification))
