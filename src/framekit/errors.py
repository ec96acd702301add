"""Domain errors shared across the toolkit.

Every error carries a stable machine-readable ``code`` so the CLI can emit
``{"error": code, "detail": ...}`` reports without string matching.
"""


class DomainError(ValueError):
    """An operation's mathematical precondition failed."""

    code = "domain_error"


class NotAFrameError(DomainError):
    """The vectors do not span, so frame-dependent quantities are undefined."""

    code = "not_a_frame"


class DimensionMismatchError(DomainError):
    code = "dimension_mismatch"


class NotHermitianError(DomainError):
    code = "not_hermitian"


class NotUnitaryError(DomainError):
    code = "not_unitary"


class NotTightUnitError(DomainError):
    """Dilation requires a tight frame with bound exactly 1."""

    code = "not_tight_unit"


class AliasingError(DomainError):
    """Passband too wide for the sampling lattice (2W+1 > L)."""

    code = "aliasing"


class ProtectedBinError(DomainError):
    """Attempt to assign a frequency bin that perfect reconstruction pins."""

    code = "protected_bin"


class NotPerfectReconstructionError(DomainError):
    code = "not_perfect_reconstruction"


class ConvergenceError(DomainError):
    """Iterative routine exhausted its sweep budget."""

    code = "no_convergence"


class NumericOverflowError(DomainError):
    """An intermediate (such as the frame operator) overflowed to inf or nan,
    or underflowed below float64's normal range."""

    code = "overflow"


class SizeLimitError(DomainError):
    """A requested size exceeds a documented limit; nothing was allocated."""

    code = "too_large"


class ParseError(DomainError):
    """Malformed input file."""

    code = "parse_error"
