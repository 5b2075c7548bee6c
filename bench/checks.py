"""The benchmark's job shapes and their output checks.

Each job shape builds a ``gaugekit`` command line from a job seed and an
output directory, and checks the files the command wrote there. The checks
test properties the method must have, or recompute values with arithmetic
written here (ternary digit walks); they never compare
against a stored copy of earlier output. ``check`` returns a list of
problems, empty when the output is correct.
"""

from __future__ import annotations

import csv
import json
from fractions import Fraction
from pathlib import Path

ZERO = Fraction(0)
ONE = Fraction(1)


# ---------------------------------------------------------------------------
# reference arithmetic, independent of gaugekit
# ---------------------------------------------------------------------------


def cantor_gap(x: Fraction):
    """None if x in [0,1] lies in the middle-thirds Cantor set, else the
    removed open interval (l, r) that contains it."""
    if x in (ZERO, ONE):
        return None
    p, q = x.numerator, x.denominator
    prefix, k, seen = 0, 0, set()
    while p and p not in seen:
        seen.add(p)
        digit, p = divmod(3 * p, q)
        k += 1
        if digit == 1:
            if p == 0:  # ...1 terminating equals ...0222..., a member
                return None
            lo = Fraction(3 * prefix + 1, 3**k)
            return (lo, lo + Fraction(1, 3**k))
        prefix = 3 * prefix + digit
    return None


def cantor_value(x: Fraction) -> Fraction:
    """The Cantor-Lebesgue function at a rational x in [0,1].

    Ternary digits 0/2 become binary digits 0/1 up to the first digit 1,
    which contributes one final binary 1; a repeating remainder closes the
    expansion as a geometric series.
    """
    if x == ONE:
        return ONE
    p, q = x.numerator, x.denominator
    bits, first_seen = [], {}
    while p and p not in first_seen:
        first_seen[p] = len(bits)
        digit, p = divmod(3 * p, q)
        if digit == 1:
            return _binary(bits) + Fraction(1, 2 ** (len(bits) + 1))
        bits.append(digit // 2)
    if not p:
        return _binary(bits)
    start = first_seen[p]
    head, cycle = bits[:start], bits[start:]
    period = Fraction(1, 2**start) / (1 - Fraction(1, 2 ** len(cycle)))
    return _binary(head) + _binary(cycle) * period


def _binary(bits) -> Fraction:
    return sum((Fraction(b, 2 ** (i + 1)) for i, b in enumerate(bits)), ZERO)


def _rat(s: str) -> Fraction:
    num, den = s.split("/")
    return Fraction(int(num), int(den))


def _exact(vwe: dict, value: Fraction) -> bool:
    return _rat(vwe["value"]) == value and _rat(vwe["err"]) == 0


def _load(path: Path, problems: list):
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError) as exc:
        problems.append(f"{path.name}: unreadable report ({exc})")
        return None


# ---------------------------------------------------------------------------
# job shapes
# ---------------------------------------------------------------------------


class FtcSquare:
    """Fundamental theorem for x ↦ x² on [−1, 1] at one epsilon."""

    report = "ftc.json"
    samples = 5  # the CLI's default

    def __init__(self, eps: str = "1e-3"):
        self.eps = eps

    def argv(self, seed: int, out: Path) -> list:
        return [
            "ftc", "--fn", "square", "--domain", "-1", "1",
            "--eps", self.eps, "--expect", "holds", "--seed", str(seed),
            "--out", str(out / self.report),
        ]

    def check(self, out: Path) -> list:
        problems = []
        doc = _load(out / self.report, problems)
        if doc is None:
            return problems
        lhs = Fraction(1) ** 2 - Fraction(-1) ** 2
        eps = Fraction(float(self.eps))
        if doc.get("verdict") != "holds-evidence":
            problems.append(f"verdict {doc.get('verdict')!r}, expected holds-evidence")
        if not _exact(doc["lhs"], lhs):
            problems.append(f"lhs {doc['lhs']} is not exactly {lhs}")
        if doc.get("channels_consistent") is not True:
            problems.append("channels_consistent is not true")
        if [_rat(r["eps"]) for r in doc["rows"]] != [eps]:
            problems.append(f"epsilon rows {[r['eps'] for r in doc['rows']]}")
        for row in doc["rows"]:
            if len(row["sums"]) != self.samples:
                problems.append(f"{len(row['sums'])} sums, expected {self.samples}")
            for s in row["sums"]:
                if abs(_rat(s["value"]) - lhs) + _rat(s["err"]) >= eps:
                    problems.append(f"sampled sum {s} not within {eps} of {lhs}")
        for row in doc["ncv_on_B"]["rows"]:
            for key in ("max_abs_sum", "max_signed_sum"):
                if not _exact(row[key], ZERO):
                    problems.append(f"ncv_on_B {key} {row[key]} is not 0 on empty B")
        return problems


class CantorVariation:
    """Negligible variation of the Cantor function on C, refuted."""

    report = "variation.json"
    witness = "variation-witness.csv"

    def __init__(self, cap: str = "1/1024"):
        self.cap = cap

    def argv(self, seed: int, out: Path) -> list:
        return [
            "variation", "--fn", "cantor", "--set", "C", "--domain", "0", "1",
            "--gauge", f"min:dist:C+const:{self.cap}", "--mode", "nv",
            "--seed", str(seed), "--out", str(out / self.report),
        ]

    def check(self, out: Path) -> list:
        problems = []
        doc = _load(out / self.report, problems)
        if doc is None:
            return problems
        if doc.get("verdict") != "refuted":
            problems.append(f"verdict {doc.get('verdict')!r}, expected refuted")
        total = cantor_value(ONE) - cantor_value(ZERO)
        for row in doc["rows"]:
            for key in ("max_signed_sum", "max_abs_sum"):
                if not _exact(row[key], total):
                    problems.append(f"row eps={row['eps']}: {key} {row[key]} != {total}")
        witness = doc.get("witness") or {}
        for key in ("abs_sum", "signed_sum"):
            if key not in witness or not _exact(witness[key], total):
                problems.append(f"witness {key} {witness.get(key)} != {total}")
        try:
            with open(out / self.witness, newline="") as fh:
                rows = list(csv.DictReader(fh))
        except OSError as exc:
            return problems + [f"witness CSV unreadable ({exc})"]
        if witness.get("cells") != len(rows):
            problems.append(f"witness cells {witness.get('cells')} != {len(rows)} CSV rows")
        return problems + self.check_witness(rows)

    def check_witness(self, rows: list) -> list:
        problems = []
        cap = Fraction(self.cap)
        cover = ZERO
        for k, row in enumerate(rows):
            tag, lo, hi = _rat(row["tag"]), _rat(row["cell_lo"]), _rat(row["cell_hi"])
            r, f_tag = _rat(row["radius_at_tag"]), _rat(row["f_at_tag"])
            if lo != cover or not lo < hi:
                problems.append(f"row {k}: cell [{lo},{hi}] does not continue the tiling at {cover}")
            cover = hi
            if not lo <= tag <= hi:
                problems.append(f"row {k}: tag {tag} outside [{lo},{hi}]")
            gap = cantor_gap(tag)
            dist = ZERO if gap is None else min(tag - gap[0], gap[1] - tag)
            expected_r = min(ONE if gap is None else dist, cap)
            if r != expected_r or r > cap:
                problems.append(f"row {k}: radius {r} at {tag}, expected {expected_r}")
            if not (tag - r < lo and hi < tag + r):
                problems.append(f"row {k}: cell [{lo},{hi}] not inside {tag} ± {r}")
            if f_tag != cantor_value(tag):
                problems.append(f"row {k}: f({tag}) = {f_tag}, expected {cantor_value(tag)}")
            if gap is not None and cantor_value(hi) != cantor_value(lo):
                problems.append(f"row {k}: off-C tag {tag} but c rises on [{lo},{hi}]")
        if cover != ONE:
            problems.append(f"witness cells do not tile [0,1] (end at {cover})")
        return problems


WORKLOADS = {
    "ftc-square": FtcSquare(),
    "cantor-variation": CantorVariation(),
}
