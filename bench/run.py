#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the gaugekit command line.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src`` (``PYTHONPATH=src``), nothing is installed. Load is a closed loop of
one job at a time: each job is one ``gaugekit`` command in a fresh Python
process, so the package's ``lru_cache``s start cold in every job, as they do
for a researcher at the shell. A job starts only if, at the median job time
so far, it ends within S seconds of the first; at least two jobs run. Job k gets seed 1000·N + k, except that job 1 repeats job
0's seed and its report files must match job 0's byte for byte.

With ``--trace 0`` the run reports the end-to-end metrics. With
``--trace 1`` each job runs twice with one seed: once as above, once through
``tracejob.py``, which wraps the package's layers in spans; the run reports
the per-layer metrics of the traced jobs (means per job) and the tracing
overhead. Every job's outputs are checked (``checks.py``). A job fails if
it exits non-zero, is killed at its time limit or fails a check; a failed
job counts in ``failed``, is left out of every metric, and makes the run's
``correct`` false. The last line of standard output is one JSON object:
``correct``, ``attempted``, ``failed`` and ``metrics``. Reports, traces and
results go under ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from checks import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"
PY = sys.executable

SETUP_PROBES = 8  # before the job loop, and again after it
SETUP_CODE = (
    "import gaugekit; from gaugekit import cov, funcs; "
    "funcs.catalog(); cov.instances()"
)
JOB_LIMIT_S = 60.0
TRACED_JOB_LIMIT_S = 120.0

END_TO_END_UNITS = {
    "job_s.p50": "s",
    "jobs_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
PER_LAYER_UNITS = {
    "core.self_s": "s",
    "core.cousin_partition.calls": "count",
    "core.cousin_partition.self_s": "s",
    "core.cells": "count",
    "core.radius_at.calls": "count",
    "core.cells_per_radius_eval": "cells/eval",
    "core.riemann_sum.self_s": "s",
    "core.dump_partition_csv.self_s": "s",
    "variation.self_s": "s",
    "variation.test_negligible_variation.self_s": "s",
    "variation.test_negligible_variation.total_s": "s",
    "variation.variation_sums.self_s": "s",
    "variation.cells": "count",
    "sets.self_s": "s",
    "sets.queries": "count",
    "sets.distinct_query_ratio": "points/query",
    "sets.query.self_s": "s",
    "funcs.self_s": "s",
    "funcs.eval.calls": "count",
    "funcs.eval.self_s": "s",
    "funcs.nearest_set_points.self_s": "s",
    "cov.self_s": "s",
    "cov.cov_check.self_s": "s",
    "cli.self_s": "s",
    "cli.report_bytes": "B",
    "trace.job_s": "s",
    "trace.outside_s": "s",
    "trace.overhead_s": "s",
}


@dataclass
class Job:
    seed: int
    out: Path
    wall_s: float
    rss_mb: float
    code: int
    problems: list = field(default_factory=list)


def spawn(argv, cwd, log, limit):
    """Run argv in a fresh process and reap it with its own rusage.

    Returns (wall seconds, peak RSS in MB, exit code). The process is
    killed if it outlives ``limit`` seconds.
    """
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env.pop("GAUGEKIT_DEPTH_CAP", None)
    sink = open(log, "wb") if log else subprocess.DEVNULL
    try:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=sink, stderr=subprocess.STDOUT)
        timer = threading.Timer(limit, _kill, (proc.pid,))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    finally:
        if log:
            sink.close()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_maxrss / 1024, proc.returncode


def _kill(pid):
    try:
        os.kill(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def setup_times(run_dir, count) -> list:
    """Wall times of ``count`` fresh processes that only import the package
    and build its registries."""
    times = []
    for _ in range(count):
        wall, _, code = spawn([PY, "-c", SETUP_CODE], run_dir, None, JOB_LIMIT_S)
        if code != 0:
            raise RuntimeError(f"set-up probe exited {code}")
        times.append(wall)
    return times


def run_job(shape, seed, out: Path, traced=None) -> Job:
    out.mkdir()
    log = out.with_name(out.name + ".log")
    cli_argv = shape.argv(seed, out)
    if traced is None:
        argv, limit = [PY, "-m", "gaugekit.cli", *cli_argv], JOB_LIMIT_S
    else:
        spans, summary = traced
        argv = [PY, str(HERE / "tracejob.py"), str(spans), str(summary), "--", *cli_argv]
        limit = TRACED_JOB_LIMIT_S
    wall, rss, code = spawn(argv, out, log, limit)
    return Job(seed, out, wall, rss, code)


def output_files(d: Path) -> dict:
    return {p.name: p.read_bytes() for p in sorted(d.iterdir())}


def check_jobs(shape, jobs, twins) -> None:
    """Attach every problem found in each job's outputs to that job; each
    (a, b) in ``twins`` ran one seed twice and must match byte for byte."""
    for job in jobs:
        if job.code != 0:
            job.problems.append(f"exit code {job.code}")
            continue
        try:
            job.problems.extend(shape.check(job.out))
        except (KeyError, IndexError, TypeError, ValueError, ZeroDivisionError) as exc:
            job.problems.append(f"malformed report: {exc!r}")
    for a, b in twins:
        if output_files(a.out) != output_files(b.out):
            b.problems.append(f"reports differ from those of seed {a.seed} in {a.out.name}")


def fits(jobs, t0, seconds, per_round=1) -> bool:
    """Whether another round of jobs, at the median job time so far, ends
    within ``seconds`` of ``t0``; runs then last about ``seconds``."""
    typical = statistics.median(j.wall_s for j in jobs)
    return time.perf_counter() - t0 + per_round * typical <= seconds


def end_to_end_metrics(jobs, loop_s, probes) -> dict:
    """The end-to-end figures of the jobs that passed; none if none did."""
    passed = [j for j in jobs if not j.problems]
    if not passed:
        return {}
    return {
        "job_s.p50": statistics.median(j.wall_s for j in passed),
        "jobs_per_s": len(passed) / loop_s,
        "setup_s": statistics.median(probes),
        "peak_rss_mb": max(j.rss_mb for j in passed),
    }


def measure_end_to_end(shape, seed, seconds, run_dir):
    setup_times(run_dir, 1)  # untimed: fills the bytecode cache
    probes = setup_times(run_dir, SETUP_PROBES)
    jobs = []
    t0 = time.perf_counter()
    while len(jobs) < 2 or fits(jobs, t0, seconds):
        k = len(jobs)
        job_seed = 1000 * seed + (0 if k == 1 else k)
        jobs.append(run_job(shape, job_seed, run_dir / f"job-{k}"))
    loop_s = time.perf_counter() - t0
    probes += setup_times(run_dir, SETUP_PROBES)
    check_jobs(shape, jobs, [(jobs[0], jobs[1])])
    return jobs, end_to_end_metrics(jobs, loop_s, probes), END_TO_END_UNITS


def measure_per_layer(shape, workload, seed, seconds, run_dir):
    trace_dir = OUT / "traces" / workload
    shutil.rmtree(trace_dir, ignore_errors=True)
    trace_dir.mkdir(parents=True)
    plain, traced, summaries = [], [], []
    t0 = time.perf_counter()
    while not traced or fits(plain + traced, t0, seconds, per_round=2):
        k = len(traced)
        job_seed = 1000 * seed + k
        plain.append(run_job(shape, job_seed, run_dir / f"plain-{k}"))
        summary = run_dir / f"traced-{k}.summary.json"
        spans = trace_dir / f"job-{k}.spans.json"
        job = run_job(shape, job_seed, run_dir / f"traced-{k}", (spans, summary))
        traced.append(job)
        summaries.append(json.loads(summary.read_text()) if job.code == 0 else None)
    check_jobs(shape, plain + traced, list(zip(plain, traced)))

    # Only pairs whose untraced and traced jobs both passed count.
    pairs = [
        (p, t, doc)
        for p, t, doc in zip(plain, traced, summaries)
        if not p.problems and not t.problems
    ]
    rows = []
    for plain_job, job, doc in pairs:
        row = dict(doc["metrics"])
        row["cli.report_bytes"] = sum(len(b) for b in output_files(job.out).values())
        row["trace.job_s"] = job.wall_s
        # Every span belongs to one layer and its self time excludes its
        # children, so the layer self times add up to root_s: the layers
        # plus this add up to trace.job_s by construction.
        row["trace.outside_s"] = job.wall_s - doc["root_s"]
        row["trace.overhead_s"] = job.wall_s - plain_job.wall_s
        rows.append(row)
    metrics = {}
    if rows:
        metrics = {name: statistics.fmean(r[name] for r in rows) for name in PER_LAYER_UNITS}
    return plain + traced, metrics, PER_LAYER_UNITS


def outcome(jobs, metrics, units) -> dict:
    """The run's result line. It is correct only if every job passed and
    every metric was measured."""
    failed = sum(1 for j in jobs if j.problems)
    return {
        "correct": failed == 0 and len(metrics) == len(units),
        "attempted": len(jobs),
        "failed": failed,
        "metrics": {
            name: {"value": metrics[name], "unit": units[name]}
            for name in units
            if name in metrics
        },
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be nonnegative")
    if not (ROOT / "src" / "gaugekit" / "__init__.py").is_file():
        print(f"error: no gaugekit sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    shape = WORKLOADS[args.workload]
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    run_dir = OUT / "reports" / tag
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    try:
        if args.trace:
            jobs, metrics, units = measure_per_layer(
                shape, args.workload, args.seed, args.seconds, run_dir
            )
        else:
            jobs, metrics, units = measure_end_to_end(
                shape, args.seed, args.seconds, run_dir
            )
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3

    result = outcome(jobs, metrics, units)
    for job in jobs:
        for problem in job.problems[:10]:
            print(f"FAIL {job.out.name} (seed {job.seed}): {problem}", file=sys.stderr)
    if not result["failed"]:
        shutil.rmtree(run_dir)
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    record = dict(result, jobs=[
        {"dir": j.out.name, "seed": j.seed, "wall_s": j.wall_s, "rss_mb": j.rss_mb,
         "exit_code": j.code, "problems": j.problems}
        for j in jobs
    ])
    (results / f"{tag}.json").write_text(json.dumps(record, indent=2) + "\n")

    print(f"{args.workload}: {len(jobs)} jobs attempted, {result['failed']} failed")
    for name, m in result["metrics"].items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
