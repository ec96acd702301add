"""Checks that time or size a verb of the installed `framekit` console script,
each spawned through `spawn`. Run after `pip install -e .` with
`python tests/console_checks.py`."""

import cmath
import json
import math
import tempfile

import numpy as np

from spawn import spawn

gabor_check = ["framekit", "gabor-check", "--proto", "gaussian", "--n"]
code, out, _, _, peak = spawn([*gabor_check, "1024", "--shift", "8", "--mods", "128"])
assert code == 0 and b'"wh_structure": true' in out, out[-200:]
assert peak < 400 * 1024, peak

g = np.exp(-0.5 * (np.arange(4096) - 4095 / 2.0) ** 2)
g = g / g.max()
code, out, _, seconds, _ = spawn([*gabor_check, "4096", "--shift", "1", "--mods", "1"])
assert code == 0, out[-200:]
assert seconds < 5, seconds
upper, exact = json.loads(out)["upper"], math.fsum(g) ** 2
assert abs(upper - exact) <= 1e-15 * exact, (upper, exact)

with tempfile.NamedTemporaryFile("w", suffix=".csv") as unit:
    print("\n".join(",".join("%.17g%+.17gj" % (z.real, z.imag) for z in (
        cmath.exp(2j * math.pi * k * n / 500) / math.sqrt(500) for n in range(2))) for k in range(500)), file=unit, flush=True)
    code, out, _, _, _ = spawn(["framekit", "frame-naimark", "--input", unit.name])
    assert code == 0, out[-200:]
    report = json.loads(out)
    assert report["subspace_dim"] == 2
    pairs = np.array(report["unitary"]["data"])
    u = (pairs[:, 0] + 1j * pairs[:, 1]).reshape(report["unitary"]["rows"], report["unitary"]["cols"])
    assert np.max(np.abs(u.conj().T @ u - np.eye(500))) <= 1e-10
    vectors = np.array([[complex(cell) for cell in line.split(",")] for line in open(unit.name).read().split()])
    assert np.max(np.abs(u[:, :2] - vectors.conj())) <= 1e-15
