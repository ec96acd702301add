"""The spawn helper measures the verb, not the process that spawns it."""

import numpy as np

from framekit import cli
from spawn import spawn_cli


def test_spawned_verb_reports_its_own_peak_and_streams(tmp_path, capsys, monkeypatch):
    # a child spawned straight from here would start its peak at this size
    ballast = np.ones(160 * 2**20 // 8)
    monkeypatch.setenv("COLUMNS", "80")  # the same usage layout in both processes
    path = tmp_path / "f.csv"
    path.write_text("1,0\n0,1\n1,1\n")
    # a report, a domain error and a usage error
    for argv, want, head in (
        (["frame-bounds", "--input", str(path)], 0, '{"lower": '),
        (["frame-bounds", "--input", str(tmp_path / "missing.csv")], 1, '{"error": "file_not_found", '),
        (["frame-bounds"], 2, ""),
    ):
        code, out, err, _, peak = spawn_cli(*argv, text=True)
        assert code == cli.run(argv) == want, argv
        assert (out, err) == capsys.readouterr() and out.startswith(head), argv
        assert peak < 100 * 1024 < ballast.nbytes // 1024, (argv, peak)
