"""The golden report corpus: every recorded command gives the same bytes.

``tests/golden/<case>/command.json`` holds a command's argv, exit code,
stdout and stderr, and the digests of its large files; its other files are
stored verbatim under ``out/``. Each case reruns in-process in an empty
temporary directory and must reproduce all of it, byte for byte.
``tests/golden/regenerate.py`` rewrites the corpus.
"""

import json
from pathlib import Path

import pytest

from golden.regenerate import COMMANDS, digest, run

GOLDEN = Path(__file__).resolve().parent / "golden"
CASES = sorted(p.name for p in GOLDEN.iterdir() if (p / "command.json").exists())


def test_corpus_is_complete():
    recorded = {c: json.loads((GOLDEN / c / "command.json").read_text()) for c in CASES}
    assert {c: r["argv"] for c, r in recorded.items()} == {
        name: list(argv) for name, argv in COMMANDS}
    assert {r["exit"] for r in recorded.values()} == {0, 1, 2, 3, 4}


@pytest.mark.parametrize("case", CASES)
def test_command_reproduces_its_recorded_outputs(case, monkeypatch):
    monkeypatch.delenv("GAUGEKIT_DEPTH_CAP", raising=False)
    want = json.loads((GOLDEN / case / "command.json").read_text())
    got = run(want["argv"])
    assert (got["exit"], got["stdout"], got["stderr"]) == (
        want["exit"], want["stdout"], want["stderr"])
    out = GOLDEN / case / "out"  # absent when the command writes no small file
    verbatim = {p.name: p.read_bytes() for p in sorted(out.iterdir())} if out.is_dir() else {}
    assert sorted(got["files"]) == sorted([*verbatim, *want["digests"]])
    for name, data in got["files"].items():
        if name in want["digests"]:
            assert digest(data) == want["digests"][name], name
        else:
            assert data == verbatim[name], name
