"""The bench trajectory files keep every row a partial run did not produce.

``benchmarks/conftest.py`` writes one ``BENCH_<eN>.json`` per bench
module.  A run of a subset of a module's benches must replace only the
rows it measured (matched by ``fullname``) and leave the others in
place, or a partial rerun silently truncates the committed trajectory.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

pytest.importorskip("pytest_benchmark")

REPO = Path(__file__).resolve().parent.parent
MEASURED = "benchmarks/bench_e8_statements.py::test_commit_path"


def test_one_bench_run_keeps_the_other_rows(tmp_path):
    kept = {"fullname": "benchmarks/bench_e8_statements.py::test_abort_path",
            "name": "test_abort_path", "seconds": 1.0}
    stale = {"fullname": MEASURED, "name": "test_commit_path", "seconds": -1.0}
    path = tmp_path / "BENCH_e8.json"
    path.write_text(json.dumps([kept, stale]))
    env = dict(os.environ, BENCH_RESULTS_DIR=str(tmp_path))
    completed = subprocess.run(
        [
            sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
            MEASURED, "--benchmark-min-rounds=1", "--benchmark-warmup=off",
            "--benchmark-max-time=0.01",
        ],
        cwd=REPO,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert completed.returncode == 0, completed.stdout + completed.stderr
    rows = json.loads(path.read_text())
    assert [row["fullname"] for row in rows] == [kept["fullname"], MEASURED]
    assert rows[0] == kept
    assert rows[1]["seconds"] > 0
