"""Each demo runs to its end as a script, with RuntimeWarning an error."""

import os
import sys
from pathlib import Path

import pytest

from spawn import spawn

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("demo", sorted(path.name for path in (ROOT / "demos").glob("*.py")))
def test_demo_runs_cleanly(demo):
    command = [sys.executable, "-W", "error::RuntimeWarning", str(ROOT / "demos" / demo)]
    code, out, err, _, _ = spawn(command, env=dict(os.environ, PYTHONPATH=str(ROOT / "src")), text=True)
    assert (code, err) == (0, "")
    assert out.strip()
