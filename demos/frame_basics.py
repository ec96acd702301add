"""
Frames, duals, and redundant expansions
=======================================

A finite frame is just a spanning set of vectors; the interesting part is
what redundancy buys.  This walks the core operations on two tiny frames
where every number can be checked by hand.
"""

import numpy as np

from framekit import (
    Frame,
    analyze,
    canonical_dual,
    check_biorthonormal,
    exactness_profile,
    frame_bounds,
    frame_operator,
    left_inverse,
    reconstruct,
    remove_vector,
)

np.set_printoptions(precision=4, suppress=True)

# The Mercedes-Benz frame: three unit vectors at 120 degrees in R^2.
mb = Frame.from_vectors([
    [0.0, 1.0],
    [-np.sqrt(3) / 2, -0.5],
    [np.sqrt(3) / 2, -0.5],
])

print("Mercedes-Benz frame operator (a multiple of the identity):")
print(frame_operator(mb).real)

b = frame_bounds(mb)
print("bounds: lower=%.6f upper=%.6f tight=%s" % (b.lower, b.upper, b.is_tight()))

# Analysis takes inner products against each frame vector; with a tight
# frame, synthesizing those coefficients against the dual returns the signal.
f = np.array([0.0, 1.0])
coeffs = analyze(mb, f)
print("coefficients of e2:", coeffs.real)

dual = canonical_dual(mb)
print("dual vectors are the originals scaled by 2/3:")
print(np.asarray(dual.vectors).real)
print("reconstruction:", reconstruct(mb, dual, coeffs).real)

# A redundant frame that is NOT tight: {e1, e2, e1 - e2}.
frame = Frame.from_vectors([[1.0, 0.0], [0.0, 1.0], [1.0, -1.0]])
b = frame_bounds(frame)
print("\n{e1, e2, e1-e2} bounds: (%.4f, %.4f)" % (b.lower, b.upper))

# The canonical dual gives minimum-norm coefficients, but it is not the
# only dual: every left inverse of the analysis map synthesizes exactly.
x = np.array([2.0, -1.0])
canonical = left_inverse(frame)
alt = left_inverse(frame, free_param=[[2.0, -1.0, -1.0], [0.0, 1.0, 0.0]])
print("\ncoefficients for x =", x, "(canonical norm is the smallest possible):")
for name, li in (("canonical", canonical), ("alternative", alt)):
    c = li.conj().T @ x
    resyn = frame.synthesis @ c
    print("  %-12s norm %.6f  resynthesis %s" % (name, np.linalg.norm(c), np.round(resyn.real, 6)))

# Deleting any single vector of this frame still leaves a spanning set;
# the exactness diagonal <dual_k, g_k> says so before we try (all < 1).
prof = exactness_profile(frame)
print("\nexactness diagonal:", np.round(prof.diagonal, 4), "->", prof.classification)
for k in range(3):
    survived = frame_bounds(remove_vector(frame, k)).spans()
    print("  drop vector %d -> still a frame: %s" % (k, survived))

# A basis, by contrast, is an exact frame: biorthonormal with its dual.
basis = Frame.from_vectors([[1.0, 0.0], [1 / np.sqrt(2), 1 / np.sqrt(2)]])
ok, gram = check_biorthonormal(basis, canonical_dual(basis))
print("\nbasis biorthonormal with its dual:", ok)
print(gram.real)
