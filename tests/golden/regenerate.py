"""Rewrite the golden report corpus under ``tests/golden/``.

    PYTHONPATH=src python3 tests/golden/regenerate.py [CASE ...]

Runs each command of ``COMMANDS`` in-process through ``gaugekit.cli.main``,
in its own empty temporary directory, and records it in ``<case>/``:
``command.json`` holds its argv, exit code, stdout and stderr, and the
SHA-256 digest and size of every written file larger than ``VERBATIM_MAX``
bytes; the smaller files are stored verbatim under ``<case>/out/``.
``tests/test_golden.py`` reruns every case and compares all of it. Report
bytes are the product, so regenerate only for a change that alters them on
purpose, and list every changed file in CHANGES.md.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import shutil
import sys
import tempfile
from pathlib import Path
from unittest import mock

HERE = Path(__file__).resolve().parent
VERBATIM_MAX = 16 * 1024
COLUMNS = "80"

_JOB_FTC = ("ftc", "--fn", "square", "--domain", "-1", "1", "--eps", "1e-3",
            "--expect", "holds", "--out", "ftc.json", "--seed")
_JOB_CANTOR = ("variation", "--fn", "cantor", "--set", "C", "--domain", "0", "1",
               "--gauge", "min:dist:C+const:1/1024", "--mode", "nv",
               "--out", "variation.json", "--seed")

# (case name, argv); every command that writes a file names it with --out,
# or writes the command's default name, since reports embed file names
COMMANDS = (
    # the README examples
    ("readme-catalog", ("catalog",)),
    ("readme-integrate", ("integrate", "--fn", "linear", "--domain", "0", "1",
                          "--eps", "1e-3", "--seed", "1")),
    ("readme-partition", ("partition", "--domain", "-1", "1", "--gauge", "dist:D",
                          "--fn", "cantor_abs", "--out", "part.csv")),
    ("readme-variation-ncv", ("variation", "--fn", "cantor_abs", "--set", "D",
                              "--domain", "-1", "1", "--mode", "ncv", "--seed", "2")),
    ("readme-variation-split", ("variation", "--fn", "cantor_abs", "--set", "D",
                                "--domain", "-1", "1", "--mode", "nv",
                                "--adversary", "split:0", "--seed", "3")),
    ("readme-cov", ("cov", "--instance", "cantorabs-unit", "--interval", "0", "1",
                    "--seed", "4")),
    ("readme-ftc", ("ftc", "--fn", "cantor", "--domain", "0", "1", "--seed", "5",
                    "--expect", "fails")),
    ("readme-scan", ("scan", "--instance", "cantorabs-unit", "--grid",
                     "-1", "0", "0", "1", "-1", "1", "--seed", "6")),
    ("readme-counterexample", ("counterexample", "--svc", "-n", "10", "--x-index", "0")),
    # the two benchmark job shapes
    *((f"job-ftc-square-{s}", _JOB_FTC + (str(s),)) for s in (1, 2, 3)),
    *((f"job-cantor-variation-{s}", _JOB_CANTOR + (str(s),)) for s in (1, 2, 3)),
    # more sets and functions
    ("integrate-cantor", ("integrate", "--fn", "cantor", "--domain", "0", "1",
                          "--eps", "1e-4", "--seed", "1")),
    ("variation-svc-dist", ("variation", "--fn", "svc_dist", "--set", "S",
                            "--domain", "0", "1", "--seed", "1")),
    ("variation-cantor-ncv", ("variation", "--fn", "cantor", "--set", "C",
                              "--domain", "0", "1", "--mode", "ncv", "--seed", "1")),
    # the FTC and the Riemann sums on the polynomial catalog, off the benchmark's domain
    ("ftc-square-nondyadic", ("ftc", "--fn", "square", "--domain", "1/7", "5/6",
                              "--eps", "1e-2", "--seed", "4")),
    ("ftc-identity", ("ftc", "--fn", "identity", "--domain", "-2", "2",
                      "--eps", "1e-2", "--seed", "3")),
    ("integrate-square", ("integrate", "--fn", "square", "--domain", "0", "1",
                          "--eps", "1e-3", "--seed", "2")),
    # a sampled fat-Cantor endpoint pool
    ("counterexample-sample", ("counterexample", "--svc", "-n", "20", "--points", "200",
                               "--endpoint-depth", "10", "--seed", "3")),
    # single fat-Cantor endpoints by index: the last one (1/1), an inner one
    # (1997/8192), and one past the stage depth limit (exit 1)
    ("counterexample-last", ("counterexample", "--svc", "-n", "4", "--x-index", "-1",
                             "--endpoint-depth", "6")),
    ("counterexample-index", ("counterexample", "--svc", "-n", "4", "--x-index", "37",
                              "--endpoint-depth", "6")),
    ("exit1-endpoint-depth", ("counterexample", "--svc", "-n", "4", "--x-index", "0",
                              "--endpoint-depth", "25")),
    # one command per failure exit code
    ("exit1-ftc-mismatch", ("ftc", "--fn", "cantor", "--domain", "0", "1",
                            "--seed", "5", "--expect", "holds")),
    ("exit2-unknown-fn", ("integrate", "--fn", "no_such_fn", "--domain", "0", "1",
                          "--seed", "1")),
    ("exit3-depth", ("partition", "--domain", "0", "1", "--gauge",
                     "const:1/1180591620717411303424")),
    ("exit4-undecided", ("partition", "--domain", "1/3", "1", "--gauge", "dist:S")),
    # argparse's own output: help, and a usage error (exit 2)
    ("help", ("--help",)),
    ("help-variation", ("variation", "--help")),
    ("exit2-usage", ("variation", "--fn", "cantor", "--domain", "0", "1")),
)


def run(argv) -> dict:
    """Run one command in a fresh temporary directory; return its argv,
    exit code, stdout, stderr and written files (name -> bytes). An
    argparse exit (help, usage error) counts as the command's exit."""
    from gaugekit import cli

    cwd = os.getcwd()
    work = tempfile.mkdtemp(prefix="gaugekit-golden-")
    out, err = io.StringIO(), io.StringIO()
    try:
        os.chdir(work)
        with mock.patch.dict(os.environ, COLUMNS=COLUMNS), \
                contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(list(argv))
            except SystemExit as exc:
                code = exc.code
        files = {p.name: p.read_bytes() for p in sorted(Path(work).iterdir())}
    finally:
        os.chdir(cwd)
        shutil.rmtree(work)
    return {"argv": list(argv), "exit": code, "stdout": out.getvalue(),
            "stderr": err.getvalue(), "files": files}


def digest(data: bytes) -> dict:
    return {"sha256": hashlib.sha256(data).hexdigest(), "size": len(data)}


def main(names) -> int:
    os.environ.pop("GAUGEKIT_DEPTH_CAP", None)
    known = {name for name, _ in COMMANDS}
    if not set(names) <= known:
        print(f"unknown cases: {sorted(set(names) - known)}", file=sys.stderr)
        return 2
    for old in HERE.iterdir():
        if old.is_dir() and (not names or old.name in names):
            shutil.rmtree(old)
    for name, argv in COMMANDS:
        if names and name not in names:
            continue
        got = run(argv)
        case = HERE / name
        case.mkdir()
        large = {}
        for fname, data in got.pop("files").items():
            if len(data) > VERBATIM_MAX:
                large[fname] = digest(data)
            else:
                (case / "out").mkdir(exist_ok=True)
                (case / "out" / fname).write_bytes(data)
        got["digests"] = large
        (case / "command.json").write_text(json.dumps(got, indent=2, ensure_ascii=False) + "\n")
        print(f"{name}: exit {got['exit']}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
