"""The benchmark's output checks accept real reports and reject tampered ones.

    PYTHONPATH=src python3 -m pytest bench/test_checks.py

Small versions of the two job shapes run in-process; each tampering
edits one field of a genuine report and must make its check fail. A job
that exits non-zero must fail the run and stay out of its metrics.
"""

from __future__ import annotations

import csv
import json
from fractions import Fraction as F
from pathlib import Path

import pytest

import run
from checks import (
    WORKLOADS,
    CantorVariation,
    FtcSquare,
    cantor_gap,
    cantor_value,
)
from gaugekit import cli

SHAPES = {
    "ftc": FtcSquare(eps="1e-1"),
    "variation": CantorVariation(cap="1/64"),
}


@pytest.fixture(scope="module")
def reports(tmp_path_factory):
    out = {}
    for key, shape in SHAPES.items():
        d = tmp_path_factory.mktemp(key)
        assert cli.main(shape.argv(7, d)) == 0
        out[key] = d
    return out


def test_metrics_and_workloads_match_benchmark_json():
    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER_UNITS


def test_reference_arithmetic():
    assert cantor_value(F(1, 4)) == F(1, 3)
    assert cantor_value(F(1, 3)) == F(1, 2)
    assert cantor_value(F(2, 9)) == F(1, 4)
    assert cantor_gap(F(1, 2)) == (F(1, 3), F(2, 3))
    assert cantor_gap(F(1, 4)) is None


@pytest.mark.parametrize("key", sorted(SHAPES))
def test_genuine_reports_pass(reports, key):
    assert SHAPES[key].check(reports[key]) == []


def _edit_json(path, edit):
    doc = json.loads(path.read_text())
    edit(doc)
    path.write_text(json.dumps(doc))


def _edit_csv(path, edit):
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    edit(rows)
    with open(path, "w", newline="") as fh:
        w = csv.DictWriter(fh, fieldnames=list(rows[0]))
        w.writeheader()
        w.writerows(rows)


def _set(*keys, value):
    def edit(doc):
        for k in keys[:-1]:
            doc = doc[k]
        doc[keys[-1]] = value

    return edit


def _move_cell_boundary(rows):
    rows[5]["cell_hi"] = rows[6]["cell_lo"] = "1/3"


TAMPERINGS = {
    "ftc-sum": ("ftc", "ftc.json", _set("rows", 0, "sums", 2, "value", value="1/5")),
    "ftc-ncv": (
        "ftc", "ftc.json",
        _set("ncv_on_B", "rows", 0, "max_signed_sum", "value", value="1/1000000"),
    ),
    "ftc-channels": ("ftc", "ftc.json", _set("channels_consistent", value=False)),
    "ftc-lhs": ("ftc", "ftc.json", _set("lhs", "value", value="1/1000000")),
    "variation-verdict": ("variation", "variation.json", _set("verdict", value="NV-evidence")),
    "variation-row": (
        "variation", "variation.json",
        _set("rows", 1, "max_abs_sum", "value", value="1/2"),
    ),
    "variation-f": (
        "variation", "variation-witness.csv",
        lambda rows: rows[3].update(f_at_tag="1/3"),
    ),
    "variation-radius": (
        "variation", "variation-witness.csv",
        lambda rows: rows[0].update(radius_at_tag="1/2"),
    ),
    "variation-tiling": ("variation", "variation-witness.csv", _move_cell_boundary),
    "variation-drop-row": ("variation", "variation-witness.csv", lambda rows: rows.pop(9)),
}


@pytest.mark.parametrize("name", sorted(TAMPERINGS))
def test_tampered_report_fails(reports, tmp_path, name):
    key, filename, edit = TAMPERINGS[name]
    for src in reports[key].iterdir():
        (tmp_path / src.name).write_bytes(src.read_bytes())
    target = tmp_path / filename
    if filename.endswith(".csv"):
        _edit_csv(target, edit)
    else:
        _edit_json(target, edit)
    assert SHAPES[key].check(tmp_path) != []


class _ExpectFails(FtcSquare):
    """The small ftc job, declared to fail: the CLI exits 1 when it holds."""

    def argv(self, seed, out):
        return ["fails" if a == "holds" else a for a in super().argv(seed, out)]


def test_job_exiting_nonzero_makes_run_incorrect(tmp_path):
    shape = _ExpectFails(eps="1e-1")
    good = run.run_job(SHAPES["ftc"], 7, tmp_path / "job-0")
    bad = run.run_job(shape, 7, tmp_path / "job-1")
    assert (good.code, bad.code) == (0, 1)
    run.check_jobs(shape, [bad], [])
    run.check_jobs(SHAPES["ftc"], [good], [])
    assert good.problems == [] and bad.problems == ["exit code 1"]
    result = run.outcome([good, bad], {}, run.END_TO_END_UNITS)
    assert (result["correct"], result["attempted"], result["failed"]) == (False, 2, 1)


def test_failed_jobs_stay_out_of_end_to_end_metrics(tmp_path):
    good = run.Job(1, tmp_path, wall_s=2.0, rss_mb=20.0, code=0)
    fast_wrong = run.Job(2, tmp_path, wall_s=0.5, rss_mb=40.0, code=1, problems=["exit code 1"])
    metrics = run.end_to_end_metrics([good, fast_wrong], loop_s=4.0, probes=[0.2])
    assert metrics == {"job_s.p50": 2.0, "jobs_per_s": 0.25, "setup_s": 0.2, "peak_rss_mb": 20.0}
    assert run.end_to_end_metrics([fast_wrong], loop_s=4.0, probes=[0.2]) == {}
    result = run.outcome([good, fast_wrong], metrics, run.END_TO_END_UNITS)
    assert result["correct"] is False and result["failed"] == 1
    assert run.outcome([good], metrics, run.END_TO_END_UNITS)["correct"] is True
