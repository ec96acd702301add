"""framekit: finite frames, Gabor systems, and sampled reconstruction."""

from . import gabor, sampling, serialization
from .errors import (
    AliasingError,
    ConvergenceError,
    DimensionMismatchError,
    DomainError,
    NotAFrameError,
    NotHermitianError,
    NotPerfectReconstructionError,
    NotTightUnitError,
    NotUnitaryError,
    NumericOverflowError,
    ParseError,
    ProtectedBinError,
    SizeLimitError,
)
from .frames import (
    ExactnessProfile,
    Frame,
    FrameBounds,
    analyze,
    canonical_dual,
    check_biorthonormal,
    exactness_profile,
    frame_bounds,
    frame_operator,
    frame_threshold,
    harmonic_frame,
    left_inverse,
    naimark_dilate,
    pseudo_inverse,
    reconstruct,
    remove_vector,
    tighten,
    unitary_transform,
)
from .hermitian import jacobi_eigh

__version__ = "0.1.0"
