"""The traced benchmark job still runs and still reports every metric.

``bench/tracejob.py`` wraps the package's public functions by name and
reduces their spans to the per-layer metrics ``BENCHMARK.json`` declares;
a renamed or deleted traced function shows up there as a failed job or a
missing metric. Two tiny jobs, one per benchmark workload shape, run it in
a fresh process.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
# computed by bench/run.py itself, not by the traced job
NOT_FROM_TRACE = ("trace.", "cli.report_bytes")

JOBS = {
    "ftc": ["ftc", "--fn", "square", "--domain", "-1", "1", "--eps", "1e-1",
            "--samples", "2", "--seed", "1", "--out", "ftc.json"],
    "variation": ["variation", "--fn", "cantor", "--set", "C", "--domain", "0", "1",
                  "--eps", "1e-1", "--samples", "2", "--seed", "1",
                  "--out", "variation.json"],
}


def declared_metrics():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [m["name"] for m in bench["per_layer"]
            if not m["name"].startswith(NOT_FROM_TRACE)]


@pytest.mark.parametrize("job", sorted(JOBS))
def test_traced_job_reports_every_declared_metric(job, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env.pop("GAUGEKIT_DEPTH_CAP", None)
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "tracejob.py"),
         "spans.json", "summary.json", "--", *JOBS[job]],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    metrics = json.loads((tmp_path / "summary.json").read_text())["metrics"]
    missing = [name for name in declared_metrics() if name not in metrics]
    assert not missing
