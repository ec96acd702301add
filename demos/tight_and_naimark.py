"""
Tight frames, unitary images, and orthonormal dilation
======================================================

Any frame can be canonically tightened; a tight frame with bound 1 is a
coordinate projection of an orthonormal basis living in a bigger space.
"""

import numpy as np

from framekit import (
    Frame,
    frame_bounds,
    harmonic_frame,
    naimark_dilate,
    tighten,
    unitary_transform,
)

np.set_printoptions(precision=4, suppress=True)

# Start from a decidedly untight frame and tighten it.
frame = Frame.from_vectors([[1.0, 0.0], [0.0, 1.0], [1.0, -1.0]])
b = frame_bounds(frame)
print("before: bounds (%.4f, %.4f)" % (b.lower, b.upper))

tight = tighten(frame)
b = frame_bounds(tight)
print("after tighten: bounds (%.4f, %.4f)" % (b.lower, b.upper))
print(np.asarray(tight.vectors).real)

# Rotating every vector by the same unitary changes nothing about bounds.
theta = np.deg2rad(31.0)
rot = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
b = frame_bounds(unitary_transform(frame, rot))
print("\nafter a 31-degree rotation: bounds (%.4f, %.4f)" % (b.lower, b.upper))

# Harmonic frames: rows of an oversampled DFT, tight by construction.
h = harmonic_frame(3, 2)
b = frame_bounds(h)
print("\nharmonic frame, 6 vectors in C^3: bounds (%.4f, %.4f)" % (b.lower, b.upper))

# Naimark dilation.  Scale a tight frame to bound exactly 1, then extend its
# analysis matrix to a full unitary: the frame vectors are what remains of an
# orthonormal basis after dropping the extra coordinates.
unit = tighten(Frame.from_vectors([
    [0.0, 1.0],
    [-np.sqrt(3) / 2, -0.5],
    [np.sqrt(3) / 2, -0.5],
]))
u = naimark_dilate(unit)
print("\ndilated unitary (first %d columns are the analysis matrix):" % unit.dim)
print(u.real)
print("U^H U == I:", np.allclose(u.conj().T @ u, np.eye(3)))
print("first two columns match:", np.allclose(u[:, :2], unit.analysis))
