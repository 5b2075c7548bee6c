"""Negligible-variation testing, gauge constructors, adversarial search.

Two sum criteria are tracked throughout: the absolute criterion
Σ_{tags in E} |Δf| (negligible variation, NV) and the signed criterion
|Σ_{tags in E} Δf| (negligible conditional variation, NCV), where
Δf = f(cell.hi) − f(cell.lo). Verdicts from sampling are evidence, never
proofs; refutations carry a concrete witness partition and are conclusive
for the gauge they were found under.
"""

from __future__ import annotations

import random
from bisect import bisect_left
from fractions import Fraction
from typing import Callable, Optional, Sequence, Tuple

from . import sets
from ._record import record
from .core import (
    Gauge,
    Iv,
    PartitionTree,
    TaggedPartition,
    ValueWithError,
    _sample_sums,
    constant_gauge,
    cousin_partition,
    merge_partitions,
    rat_str,
    sample_partitions,
)
from .errors import UnsupportedInstanceError
from .funcs import EMPTY_FAILURE, FiniteFailureSet, FnSpec, GeneratedFailureSet, point_set

ZERO = Fraction(0)
ONE = Fraction(1)


# ---------------------------------------------------------------------------
# the two sums
# ---------------------------------------------------------------------------


def variation_sums(f, p: TaggedPartition, E) -> Tuple[ValueWithError, ValueWithError]:
    """(Σ|Δf|, |ΣΔf|) over the items whose tags lie in E, a set in any form
    ``point_set`` accepts; exact when f is."""
    return next(_variation_sums(f, point_set(E), (p,)))[1]


def _variation_sums(f, S, parts):
    """Yield ``(partition, variation_sums(f, partition, S))`` for partitions
    replayed from one tree, resumming only the cells whose tag changed.
    Each increment is one unreduced numerator and denominator. An empty
    ``S`` is asked nothing and no cell is read, but every partition is
    still drawn."""
    if S is EMPTY_FAILURE:
        zero = ValueWithError(ZERO)
        for part in parts:
            yield part, (zero, zero)
        return

    def term(tag, cell):
        if tag not in S:
            return None
        hi = f(cell.hi)
        lo = f(cell.lo)
        a, b, ea, eb = hi.value, lo.value, hi.err, lo.err
        dn = a.numerator * b.denominator - b.numerator * a.denominator
        dd = a.denominator * b.denominator
        err = (ea.numerator * eb.denominator + eb.numerator * ea.denominator,
               ea.denominator * eb.denominator)
        return ((abs(dn), dd), err, (dn, dd))

    for part, (abs_total, abs_err, signed_total) in _sample_sums(parts, term, 3):
        yield part, (
            ValueWithError(abs_total, abs_err),
            ValueWithError(abs(signed_total), abs_err),
        )


# ---------------------------------------------------------------------------
# gauge constructors
# ---------------------------------------------------------------------------


def gauge_dist_complement(D: sets.GeneratedSet, name: Optional[str] = None) -> Gauge:
    """Radius 1 on the set, distance to the set off it.

    Cells tagged outside the set then cannot reach it, so increments of any
    function locally constant off the set vanish on those cells. Suggested
    tags are the set points nearest the cell midpoint.
    """
    S = GeneratedFailureSet(D)
    lo, hi = D.base.lo, D.base.hi
    ln, ld, hn, hd = lo.numerator, lo.denominator, hi.numerator, hi.denominator

    def radius(x):
        if x.__class__ is not Fraction:
            x = Fraction(x)
        xn, xd = x.numerator, x.denominator
        if not (ln * xd <= xn * ld and xn * hd <= hn * xd):  # x outside the base
            return sets.distance(D, x)
        # one locate decides membership and, off the set, the distance
        kind, data = sets._locate_memo(D, x)
        if kind == "member":
            return ONE
        l, r, _ = data
        return sets._inner_distance(x, l, r)

    return Gauge(
        radius=radius,
        suggest_tag=S.suggestion_points,
        name=name or f"dist_complement({D.kind})",
    )


def default_gauge(E) -> Gauge:
    """The distance gauge of a generated set, the unit constant gauge of
    any other; E is a set in any form ``point_set`` accepts."""
    S = point_set(E)
    if isinstance(S, GeneratedFailureSet):
        return gauge_dist_complement(S.set)
    return constant_gauge(1)


def gauge_from_zero_derivative(f: FnSpec, D, eps) -> Gauge:
    """Gauge forcing Σ|Δf| < eps over tags in D when f' = 0 on D.

    D is a set in any form ``point_set`` accepts; a finite one is checked
    point by point for a certified zero derivative. Radius is the declared
    increment modulus eta(x, eps) on D and 1 off it; within eta of such a
    tag the whole increment over its cell is at most
    eps · |cell| / (domain width), so the tagged sums telescope below eps.
    """
    eps = Fraction(eps)
    if f.modulus is None:
        raise UnsupportedInstanceError(
            f"{f.name} carries no increment modulus; cannot build the gauge"
        )
    S = point_set(D)
    if isinstance(S, FiniteFailureSet):
        for d in S.points:
            v = f.deriv_at(d)
            if v.convention or v.value != 0:
                raise UnsupportedInstanceError(
                    f"{f.name} derivative is not certified zero at {d}"
                )

    def radius(x):
        x = Fraction(x)
        if x in S:
            return f.modulus(x, eps)
        return ONE

    return Gauge(
        radius=radius,
        suggest_tag=S.suggestion_points,
        name=f"zero_deriv({f.name},eps={rat_str(eps)})",
    )


def _merged_open_cover(cover: Sequence[Iv]) -> Tuple[Iv, ...]:
    """The union of open intervals as sorted open intervals. Only
    overlapping intervals merge: two that touch leave their common endpoint
    uncovered."""
    ivs = sorted(cover, key=lambda c: (c.lo, c.hi))
    out = []
    for c in ivs:
        if out and c.lo < out[-1].hi:
            out[-1] = Iv(out[-1].lo, max(out[-1].hi, c.hi))
        else:
            out.append(c)
    return tuple(out)


def _cover_measure(merged: Tuple[Iv, ...]) -> Fraction:
    return sum((c.length for c in merged), ZERO)


def _interval_of_cover(merged: Tuple[Iv, ...], x: Fraction) -> Optional[Iv]:
    """The interval of a merged cover whose interior holds x, or None;
    merged intervals are sorted and apart, so only one can."""
    k = bisect_left(merged, x, key=lambda c: c.lo) - 1
    if k >= 0 and x < merged[k].hi:
        return merged[k]
    return None


def gauge_from_dini(f: FnSpec, Z, covers: dict, eps) -> Gauge:
    """Gauge forcing Σ|Δf| <= eps over tags in a null set Z with finite
    Dini bands.

    Z is a set in any form ``point_set`` accepts. ``covers`` maps each band
    index n to a sequence of open intervals containing the band's points;
    the measure of the band-n cover must be below eps / (2^(n+1) (n+2)),
    which is validated exactly here, and so is coverage of a finite or
    generated Z. On band n the radius is min(eta1(x), distance to the
    cover's complement), so each tagged cell stays inside the cover and
    contributes at most (n+2)·|cell|.
    """
    eps = Fraction(eps)
    if f.dini_band is None or f.dini_eta1 is None:
        raise UnsupportedInstanceError(
            f"{f.name} carries no Dini band/eta1 certificates"
        )
    S = point_set(Z)
    merged = {n: _merged_open_cover(cv) for n, cv in covers.items()}
    for n, cv in merged.items():
        bound = eps / (2 ** (n + 1) * (n + 2))
        got = _cover_measure(cv)
        if got >= bound:
            raise UnsupportedInstanceError(
                f"band {n} cover measure {got} not below {bound}"
            )

    # coverage: every Z point must sit inside its band's cover
    if isinstance(S, GeneratedFailureSet):
        _check_generated_cover(S.set, f, merged)
    elif isinstance(S, FiniteFailureSet):
        for z in S.points:
            n = f.dini_band(z)
            if n not in merged or _interval_of_cover(merged[n], z) is None:
                raise UnsupportedInstanceError(
                    f"band {n} cover does not contain {z}"
                )

    def radius(x):
        x = Fraction(x)
        if x not in S:
            return ONE
        n = f.dini_band(x)
        if n not in merged:
            raise UnsupportedInstanceError(f"no cover supplied for band {n}")
        c = _interval_of_cover(merged[n], x)
        if c is None:
            raise UnsupportedInstanceError(
                f"band {n} cover does not contain {x}"
            )
        return min(f.dini_eta1(x), x - c.lo, c.hi - x)

    return Gauge(
        radius=radius,
        suggest_tag=S.suggestion_points,
        name=f"dini({f.name},eps={rat_str(eps)})",
    )


def _check_generated_cover(Z: sets.GeneratedSet, f: FnSpec, merged: dict) -> None:
    """A generated null set must have a single band whose cover contains it.

    The cover's merged open intervals contain Z iff they contain both hull
    endpoints (members of every construction) and each closed gap between
    two of them that lies inside the hull misses Z, that is, lies in the
    complement component of one of its points. That point is taken dyadic,
    where fat-Cantor queries always resolve. A gap between two intervals
    that touch is their common endpoint alone, which misses Z iff it is not
    a member. No realization stage is needed.
    """
    bands = set(merged)
    if len(bands) != 1:
        raise UnsupportedInstanceError(
            "generated null sets need exactly one Dini band cover"
        )
    (n,) = bands
    cover = merged[n]
    hull = Z.base
    for x in (hull.lo, hull.hi):
        if _interval_of_cover(cover, x) is None:
            raise UnsupportedInstanceError(f"band {n} cover does not contain {x}")
    for left, right in zip(cover, cover[1:]):
        gap = Iv(left.hi, right.lo)
        if not hull.contains_iv(gap):
            continue  # the covered hull endpoints keep it outside the hull
        if gap.lo == gap.hi:
            if not sets.member(Z, gap.lo):
                continue
        else:
            x = _dyadic_inside(gap)
            if not sets.member(Z, x):
                c = sets.complement_component(Z, x).interval
                if c.lo < gap.lo and gap.hi < c.hi:
                    continue
        raise UnsupportedInstanceError(
            f"band {n} cover misses a point of {Z.kind} in {gap}"
        )


def _dyadic_inside(iv: Iv) -> Fraction:
    """A dyadic rational in the interior of a nondegenerate interval."""
    width = iv.length
    k = (width.denominator // width.numerator + 1).bit_length()  # 2^-k < width
    return Fraction((iv.lo.numerator << k) // iv.lo.denominator + 1, 1 << k)


# ---------------------------------------------------------------------------
# sampling report
# ---------------------------------------------------------------------------


@record
class VariationRow:
    eps: Fraction
    gauge_name: str
    samples: int
    max_abs: ValueWithError
    max_signed: ValueWithError
    nv_pass: bool
    ncv_pass: bool

    def payload(self) -> dict:
        return {
            "eps": rat_str(self.eps),
            "gauge": self.gauge_name,
            "samples": self.samples,
            "max_abs_sum": self.max_abs.payload(),
            "max_signed_sum": self.max_signed.payload(),
            "nv_pass": self.nv_pass,
            "ncv_pass": self.ncv_pass,
        }


@record
class Witness:
    partition: TaggedPartition
    gauge_name: str
    eps: Fraction
    abs_sum: ValueWithError
    signed_sum: ValueWithError


@record
class VariationReport:
    fn_name: str
    set_name: str
    domain: Iv
    rows: tuple
    verdict: str  # "NV-evidence" | "NCV-only-evidence" | "refuted"
    witness: Optional[Witness]

    @property
    def nv_all(self) -> bool:
        return all(r.nv_pass for r in self.rows)

    @property
    def ncv_all(self) -> bool:
        return all(r.ncv_pass for r in self.rows)

    def payload(self) -> dict:
        out = {
            "fn": self.fn_name,
            "set": self.set_name,
            "domain": [rat_str(self.domain.lo), rat_str(self.domain.hi)],
            "rows": [r.payload() for r in self.rows],
            "verdict": self.verdict,
            "note": "evidence labels are sample-based, not proofs",
        }
        if self.witness is not None:
            out["witness"] = {
                "gauge": self.witness.gauge_name,
                "eps": rat_str(self.witness.eps),
                "abs_sum": self.witness.abs_sum.payload(),
                "signed_sum": self.witness.signed_sum.payload(),
                "cells": len(self.witness.partition),
            }
        return out


def _exceeds(v: ValueWithError, eps: Fraction) -> bool:
    """Certified check that v >= eps (value minus error still reaches eps)."""
    return v.value - v.err >= eps


def _below(v: ValueWithError, eps: Fraction) -> bool:
    """Certified check that v < eps including the error bound."""
    return v.value + v.err < eps


def _variation_samples(domain, gauge, samples, master, max_depth, tree, S):
    """``sample_partitions`` for sums whose terms depend on a tag only
    through its membership in ``S``, as the variation sums do.

    Yields sample 0. If the tree it was built on is recorded and its cells'
    acceptable tags agree on ``S`` (``PartitionTree.tags_agree_on``), every
    later sample has sample 0's sums, so they are not replayed: ``master``
    still gives each of them its draw, and its stream goes on as if they
    had been. Otherwise, or if a radius or membership query raises during
    the check, the later samples are replayed as ``sample_partitions``
    yields them, and raise where they would.
    """
    parts = sample_partitions(domain, gauge, samples, master, max_depth, tree)
    first = next(parts, None)
    if first is None:
        return
    yield first
    if samples > 1 and (tree.nodes or tree.closed is not None):
        try:
            agree = tree.tags_agree_on(S)
        except Exception:  # noqa: BLE001 - a replay raises it where it reaches it
            agree = False
        if agree:
            for _ in range(samples - 1):
                master.getrandbits(64)
            return
    yield from parts


def _variation_row(f, E, eps: Fraction, gauge: Gauge, samples: int, parts):
    """Grade one epsilon's sampled partitions on both criteria.

    Returns the row and the first sampled partition whose signed sum
    certifiably reaches eps (as a Witness), or None.
    """
    max_abs = ValueWithError(ZERO)
    max_signed = ValueWithError(ZERO)
    nv_pass = True
    ncv_pass = True
    witness = None
    for part, (a, s) in _variation_sums(f, point_set(E), parts):
        if a.value > max_abs.value:
            max_abs = a
        if s.value > max_signed.value:
            max_signed = s
        if not _below(a, eps):
            nv_pass = False
        if not _below(s, eps):
            ncv_pass = False
            if witness is None and _exceeds(s, eps):
                witness = Witness(part, gauge.name, eps, a, s)
    row = VariationRow(eps, gauge.name, samples, max_abs, max_signed, nv_pass, ncv_pass)
    return row, witness


def _variation_report(f, set_name: str, domain: Iv, rows, witness) -> VariationReport:
    if all(r.nv_pass for r in rows):
        verdict = "NV-evidence"
    elif all(r.ncv_pass for r in rows):
        verdict = "NCV-only-evidence"
    else:
        verdict = "refuted"
    return VariationReport(
        fn_name=getattr(f, "name", "f"),
        set_name=set_name,
        domain=domain,
        rows=tuple(rows),
        verdict=verdict,
        witness=witness,
    )


def test_negligible_variation(
    f,
    E,
    gauge_builder: Callable[[Fraction], Gauge],
    schedule: Sequence,
    samples: int = 5,
    seed: int = 0,
    domain: Optional[Iv] = None,
    set_name: str = "E",
    max_depth: Optional[int] = None,
) -> VariationReport:
    """Sample subordinate partitions per epsilon and grade both criteria.

    E is a set in any form ``point_set`` accepts. NV evidence requires
    Σ|Δf| < eps on every sampled partition at every eps; the signed
    criterion alone yields NCV-only evidence. A sampled partition whose
    signed sum reaches eps refutes both (for the gauge the builder
    produced) and is returned as the witness. Consecutive epsilons whose
    builder returns the same gauge object share one partition tree.

    The sums count a tag only through its membership in E. When each
    cell's acceptable tags agree on E, every sampled partition has sample
    0's sums, so only sample 0 is summed and the rest are not replayed;
    the seed stream, the rows and the witness are those of a full run (see
    ``_variation_samples``).
    """
    if domain is None:
        domain = f.domain
    S = point_set(E)  # once: a one-shot iterable E is read by the first call
    master = random.Random(seed)
    rows = []
    witness = None
    tree = None
    for eps in schedule:
        eps = Fraction(eps)
        gauge = gauge_builder(eps)
        if tree is None or tree.gauge is not gauge:
            tree = PartitionTree()
        parts = _variation_samples(domain, gauge, samples, master, max_depth, tree, S)
        row, found = _variation_row(f, S, eps, gauge, samples, parts)
        rows.append(row)
        if witness is None:
            witness = found
    return _variation_report(f, set_name, domain, rows, witness)


# the name pattern collides with pytest's collector
test_negligible_variation.__test__ = False


# ---------------------------------------------------------------------------
# adversarial search
# ---------------------------------------------------------------------------


@record
class SplitAt:
    """Partition the domain at the given points, then build each piece."""

    points: tuple

    def __init__(self, *points):
        object.__setattr__(
            self, "points", tuple(sorted(Fraction(p) for p in points))
        )


@record
class GreedySign:
    """Keep the cells whose increment has the chosen sign, re-partition the
    rest; the recombined cover isolates one sign class in the tagged sum."""


@record
class PerCell:
    """Re-partition every cell, keeping whichever local layout contributes
    the larger absolute sum."""


@record
class AdversarialResult:
    best_abs: ValueWithError
    best_signed: ValueWithError
    witness: TaggedPartition
    gauge_name: str


def _with_e_suggestions(gauge: Gauge, E) -> Gauge:
    """Same radii, but tags inside E are proposed first.

    Subordination only constrains the radius, so steering tag choice toward
    E is a legitimate adversarial move.
    """

    def suggest(iv):
        return tuple(E.suggestion_points(iv)) + gauge.suggestions(iv)

    return Gauge(radius=gauge.radius, suggest_tag=suggest, name=gauge.name)


def adversarial_variation(
    f,
    E,
    gauge: Gauge,
    strategy,
    seed: int = 0,
    domain: Optional[Iv] = None,
    max_depth: Optional[int] = None,
) -> AdversarialResult:
    """Search for a subordinate partition maximizing Σ|Δf| over E-tags.

    E is a set in any form ``point_set`` accepts. The returned partition is
    subordinate to ``gauge`` (radii are never touched; only split points
    and tag choices are adversarial).
    """
    if domain is None:
        domain = f.domain
    E = point_set(E)
    adv = _with_e_suggestions(gauge, E)
    rng = random.Random(seed)

    def build(iv: Iv) -> TaggedPartition:
        return cousin_partition(iv, adv, max_depth=max_depth)

    if isinstance(strategy, SplitAt):
        cuts = [p for p in strategy.points if domain.interior_contains(p)]
        bounds = [domain.lo] + cuts + [domain.hi]
        pieces = [build(Iv(a, b)) for a, b in zip(bounds, bounds[1:])]
        part = merge_partitions(pieces)
    elif isinstance(strategy, GreedySign):
        base = cousin_partition(domain, adv, max_depth=max_depth,
                                rng=random.Random(rng.getrandbits(64)))
        best_part = None
        best_val = None
        for keep_nonneg in (True, False):
            pieces = []
            for tag, cell in base.items:
                delta = f(cell.hi).value - f(cell.lo).value
                keep = (delta >= 0) if keep_nonneg else (delta <= 0)
                if keep or cell.lo == cell.hi:
                    pieces.append(TaggedPartition.of([(tag, cell)], cell))
                else:
                    pieces.append(build(cell))
            cand = merge_partitions(pieces)
            a, _ = variation_sums(f, cand, E)
            if best_val is None or a.value > best_val:
                best_val = a.value
                best_part = cand
        part = best_part
    elif isinstance(strategy, PerCell):
        base = cousin_partition(domain, adv, max_depth=max_depth,
                                rng=random.Random(rng.getrandbits(64)))
        pieces = []
        for tag, cell in base.items:
            own = TaggedPartition.of([(tag, cell)], cell)
            if cell.lo == cell.hi:
                pieces.append(own)
                continue
            rebuilt = build(cell)
            a_own, _ = variation_sums(f, own, E)
            a_new, _ = variation_sums(f, rebuilt, E)
            pieces.append(rebuilt if a_new.value > a_own.value else own)
        part = merge_partitions(pieces)
    else:
        raise ValueError(f"unknown adversarial strategy {strategy!r}")

    abs_sum, signed = variation_sums(f, part, E)
    return AdversarialResult(abs_sum, signed, part, gauge.name)


# ---------------------------------------------------------------------------
# subinterval scan
# ---------------------------------------------------------------------------


@record
class NcvScanReport:
    fn_name: str
    set_name: str
    cells: tuple  # of (Iv, VariationReport)
    nv_refuted: bool

    def payload(self) -> dict:
        return {
            "fn": self.fn_name,
            "set": self.set_name,
            "cells": [
                {
                    "interval": [rat_str(iv.lo), rat_str(iv.hi)],
                    "verdict": rep.verdict,
                }
                for iv, rep in self.cells
            ],
            "nv_refuted": self.nv_refuted,
        }


def subinterval_ncv_scan(
    f,
    E,
    gauge_builder: Callable[[Fraction], Gauge],
    grid: Sequence[Iv],
    schedule: Sequence,
    samples: int = 5,
    seed: int = 0,
    set_name: str = "E",
) -> NcvScanReport:
    """Run the signed criterion on E restricted to each grid interval.

    E is a set in any form ``point_set`` accepts. A single refuted
    subinterval refutes negligible variation on E over the whole domain: a
    gauge witnessing NV would force the signed sums on every subinterval
    below epsilon.
    """
    S = point_set(E)
    schedule = tuple(schedule)  # every grid cell reads it
    out = []
    refuted = False
    for k, cell in enumerate(grid):
        local = lambda x, lo=cell.lo, hi=cell.hi: x in S and lo <= x <= hi
        rep = test_negligible_variation(
            f,
            local,
            gauge_builder,
            schedule,
            samples=samples,
            seed=seed + k,
            domain=cell,
            set_name=f"{set_name}∩{cell}",
        )
        out.append((cell, rep))
        if rep.verdict == "refuted":
            refuted = True
    return NcvScanReport(getattr(f, "name", "f"), set_name, tuple(out), refuted)


# ---------------------------------------------------------------------------
# conclusion-level estimators
# ---------------------------------------------------------------------------


@record
class DiniEstimate:
    value: ValueWithError
    used: tuple
    skipped: tuple

    def payload(self) -> dict:
        return {
            "estimate": self.value.payload(),
            "used": [rat_str(h) for h in self.used],
            "skipped": [rat_str(h) for h in self.skipped],
            "note": "lower bound for the upper Dini derivative",
        }


def dini_upper_estimate(g, x, h_grid: Sequence) -> DiniEstimate:
    """max over the grid of |g(x±h) − g(x)| / h; a lower bound for the
    true upper Dini derivative. Out-of-domain evaluations are skipped."""
    x = Fraction(x)
    base = g(x)
    best = ValueWithError(ZERO)
    used = []
    skipped = []
    for h in h_grid:
        h = Fraction(h)
        if h <= 0:
            raise ValueError("grid steps must be positive")
        hit = False
        for y in (x + h, x - h):
            if y not in g.domain:
                continue
            v = g(y)
            quot = ValueWithError(
                abs(v.value - base.value) / h, (v.err + base.err) / h
            )
            hit = True
            if quot.value > best.value:
                best = quot
        (used if hit else skipped).append(h)
    return DiniEstimate(best, tuple(used), tuple(skipped))


def image_measure_bound(g, E, depth: int) -> Fraction:
    """Upper bound for the outer measure of g(E) from a realization stage.

    E is a set in any form ``point_set`` accepts that has stages: a
    generated set, or a finite one, realized as shrinking closed
    neighborhoods of its points. Sums oscillation bounds of g over the
    stage cells. Requires piecewise monotonicity metadata; exact for exact g.
    """
    if getattr(g, "monotone_breakpoints", None) is None:
        raise UnsupportedInstanceError(
            f"{getattr(g, 'name', 'g')} has no monotonicity certificate"
        )
    S = point_set(E)
    if isinstance(S, GeneratedFailureSet):
        cells = sets.realize(S.set, depth)
    elif isinstance(S, FiniteFailureSet):
        h = Fraction(1, 2 ** (depth + 1))
        cells = tuple(Iv(p - h, p + h) for p in S.points)
    else:
        raise UnsupportedInstanceError(
            f"{S.describe()} has no realization stages to bound g(E) with"
        )
    total = ZERO
    for cell in cells:
        lo = max(cell.lo, g.domain.lo)
        hi = min(cell.hi, g.domain.hi)
        if lo > hi:
            continue
        pts = [lo, hi] + [b for b in g.monotone_breakpoints if lo < b < hi]
        vals = [g(p) for p in pts]
        top = max(v.value + v.err for v in vals)
        bot = min(v.value - v.err for v in vals)
        total += top - bot
    return total
