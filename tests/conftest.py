"""Shared test helpers: seeded random objects and acceptance reporting.

Random frames are rejection-sampled to keep the frame operator's condition
number moderate (lambda_min >= 1e-3 lambda_max), so floating-point identities
stated at 1e-8 are meaningful rather than condition-limited.
"""

import numpy as np

from framekit import Frame


def random_frame(rng, dim=None, count=None, max_tries=200):
    """A spanning, moderately conditioned random complex frame."""
    if dim is None:
        dim = int(rng.integers(1, 9))
    if count is None:
        count = int(rng.integers(dim, min(3 * dim, 24) + 1))
    for _ in range(max_tries):
        t = rng.standard_normal((count, dim)) + 1j * rng.standard_normal((count, dim))
        w = np.linalg.eigvalsh(t.conj().T @ t)
        if w[0] > 1e-3 * w[-1]:
            return Frame(t)
    raise AssertionError("could not draw a well-conditioned frame")


def random_vector(rng, dim):
    return rng.standard_normal(dim) + 1j * rng.standard_normal(dim)


def random_unitary(rng, dim):
    """Haar-ish unitary: QR of a complex Ginibre matrix with phase fix."""
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(z)
    d = np.diag(r)
    return q * (d / np.abs(d))


def pytest_runtest_logreport(report):
    # one visible pass/fail line per acceptance criterion
    if report.when != "call" or "test_acceptance" not in report.nodeid:
        return
    name = report.nodeid.split("::")[-1]
    if name.startswith("test_"):
        name = name[len("test_"):]
    status = "PASS" if report.passed else "FAIL"
    print("\n[ACCEPTANCE] %s %s" % (status, name))
