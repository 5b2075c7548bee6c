"""Incremental sample sums and the radius-passing builder against references.

The references are the code as it stood before: every sampled partition
summed in full (``reference_riemann_sum``, ``reference_variation_sums``),
and the bisection builder evaluating every candidate it reaches
(``ReferenceTree``, the old ``PartitionTree._grow``). The gauges have tag
oracles, so tags differ between samples, and the radius, the integrand and
the set raise at points that only some samples reach. The sums must be the
same rationals, the first error the same class at the same point, and the
points evaluated a subset of the reference's.
"""

import random
from collections import Counter
from fractions import Fraction as F

from hypothesis import given, settings
from hypothesis import strategies as st

from gaugekit import cli, core, cov, variation
from gaugekit.core import Item, Iv, PartitionTree, ValueWithError, sample_partitions
from gaugekit.errors import DepthExhaustedError, DomainError, GaugeKitError, UndecidedError
from gaugekit.funcs import point_set
from test_replay import (
    JOBS,
    _files,
    _logged_gauge,
    _run_jobs,
    cases,
    reference_cousin_partition,
    reference_sample_partitions,
)

ZERO = F(0)


# ---------------------------------------------------------------------------
# references: full sums per sample, and the builder without passed radii
# ---------------------------------------------------------------------------


def reference_riemann_sum(f, p):
    total = ZERO
    err = ZERO
    for tag, cell in p.items:
        v = f(tag)
        w = cell.length
        total += v.value * w
        err += v.err * w
    return ValueWithError(total, err)


def reference_variation_sums(f, p, E):
    S = point_set(E)
    abs_total = ZERO
    abs_err = ZERO
    signed_total = ZERO
    for tag, cell in p.items:
        if tag not in S:
            continue
        hi = f(cell.hi)
        lo = f(cell.lo)
        delta = hi.value - lo.value
        err = hi.err + lo.err
        abs_total += abs(delta)
        abs_err += err
        signed_total += delta
    return (
        ValueWithError(abs_total, abs_err),
        ValueWithError(abs(signed_total), abs_err),
    )


def reference_riemann_sums(f, parts):
    for part in parts:
        yield part, reference_riemann_sum(f, part)


def reference_variation_sums_of(f, S, parts):
    for part in parts:
        yield part, reference_variation_sums(f, part, S)


class ReferenceTree(PartitionTree):
    """A partition tree grown by the builder that evaluates every candidate
    it reaches, endpoints included."""

    def _grow(self, rng):
        domain, gauge, max_depth = self.domain, self.gauge, self.max_depth
        nodes = []
        items = []
        stack = [(domain, 0)]
        while stack:
            iv, depth = stack.pop()
            defaults = (iv.lo, iv.hi, iv.midpoint)
            cands = tuple(dict.fromkeys(gauge.suggestions(iv) + defaults))
            verdicts = [None] * len(cands)
            tag = core._pick(iv, cands, verdicts, core._order(len(cands), rng), gauge)
            if tag is not None:
                items.append(Item(tag, iv))
                nodes.append((iv, cands, verdicts))
                continue
            if depth >= max_depth:
                raise DepthExhaustedError(
                    f"no acceptable tag for {iv} after {depth} bisections "
                    f"under gauge {gauge.name!r}",
                    interval=iv,
                )
            nodes.append(len(cands))
            m = iv.midpoint
            stack.append((Iv(m, iv.hi), depth + 1))
            stack.append((Iv(iv.lo, m), depth + 1))
        self.nodes = nodes
        return items


# ---------------------------------------------------------------------------
# integrands and sets that log their points and raise at chosen ones
# ---------------------------------------------------------------------------


def _logged_fn(poison, log):
    """x ↦ 3x² − x with error bound |x|/1000, raising at the poison points."""

    def f(x):
        log.append(x)
        if x in poison:
            raise DomainError(f"poisoned at {x}", witness=x)
        return ValueWithError(3 * x * x - x, abs(x) / 1000)

    return f


def _logged_set(undecided, log):
    """Points whose numerator plus denominator is not a multiple of 3,
    undecided at the chosen points."""

    def member(x):
        log.append(x)
        if x in undecided:
            raise UndecidedError(f"undecided at {x}", bounds=(x, x))
        return (x.numerator + x.denominator) % 3 != 0

    return point_set(member)


def _grid(domain):
    """Points of the first bisection levels, and their thirds."""
    w = domain.length
    pts = {domain.lo + w * F(k, 2**j) for j in range(4) for k in range(2**j + 1)}
    thirds = {domain.lo + w * F(k, 3 * 2**j) for j in range(3) for k in range(3 * 2**j)}
    return sorted(pts | thirds)


def _outcomes(pairs, samples):
    """Per sample the partition's items and its sums, or the first error's
    class and message (which names its point); stops at the first error."""
    out = []
    for _ in range(samples):
        try:
            part, sums = next(pairs)
        except GaugeKitError as exc:
            out.append((type(exc), str(exc), getattr(exc, "interval", None)))
            break
        out.append((part.items, sums))
    return out


def _run(channel, case, poison, undecided, reference):
    domain, breaks, radii, radius_poison, anchors, kinds, max_depth, samples, seed = case
    radius_log, f_log, set_log = [], [], []
    gauge = _logged_gauge(breaks, radii, radius_poison, anchors, kinds, radius_log)
    f = _logged_fn(poison, f_log)
    sampler = reference_sample_partitions if reference else sample_partitions
    parts = sampler(domain, gauge, samples, random.Random(seed), max_depth)
    if channel == "riemann":
        sums = reference_riemann_sums if reference else core._riemann_sums
        pairs = sums(f, parts)
    else:
        sums = reference_variation_sums_of if reference else variation._variation_sums
        pairs = sums(f, _logged_set(undecided, set_log), parts)
    return _outcomes(pairs, samples), set(radius_log), set(f_log), set(set_log)


@settings(max_examples=300, deadline=None)
@given(cases(), st.sampled_from(("riemann", "variation")), st.data())
def test_sample_sums_match_full_sums(case, channel, data):
    grid = _grid(case[0])
    poison = frozenset(data.draw(st.lists(st.sampled_from(grid), max_size=4)))
    undecided = frozenset(data.draw(st.lists(st.sampled_from(grid), max_size=2)))
    new = _run(channel, case, poison, undecided, reference=False)
    ref = _run(channel, case, poison, undecided, reference=True)
    # Fractions are normalized, so equal sums are the same numerators and
    # denominators, and the reports print the same bytes
    assert new[0] == ref[0]
    for evaluated, ref_evaluated in zip(new[1:], ref[1:]):
        assert evaluated <= ref_evaluated


def test_tags_change_and_the_sums_follow():
    # cells of [0, 1] of length 1/64 under radius 1/70 accept both their
    # midpoint and their suggested third point; the integrand is undefined
    # at 1/128, the midpoint of the first cell, which only some shuffles pick
    case = (Iv(0, 1), (), (F(1, 70),), {}, (), frozenset({"third"}), 8, 6, 0)
    seen = set()
    for seed in range(8):
        case = case[:-1] + (seed,)
        new = _run("riemann", case, frozenset({F(1, 128)}), frozenset(), reference=False)
        ref = _run("riemann", case, frozenset({F(1, 128)}), frozenset(), reference=True)
        assert new[0] == ref[0]
        assert new[2] <= ref[2]
        seen.add(len(new[0]))
    assert len(seen) > 1  # some seeds fail early, some late or never


# ---------------------------------------------------------------------------
# the builder: radii passed down against every candidate evaluated
# ---------------------------------------------------------------------------


def _tree_outcomes(tree_class, case):
    domain, breaks, radii, poison, anchors, kinds, max_depth, samples, seed = case
    log = []
    gauge = _logged_gauge(breaks, radii, poison, anchors, kinds, log)
    parts = sample_partitions(domain, gauge, samples, random.Random(seed), max_depth,
                              tree_class())
    out = []
    for _ in range(samples):
        try:
            out.append(next(parts).items)
        except GaugeKitError as exc:
            out.append((type(exc), str(exc), getattr(exc, "interval", None)))
            break
    return out, Counter(log), gauge.suggest_tag is None


@settings(max_examples=300, deadline=None)
@given(cases())
def test_grow_matches_reference_grow(case):
    new, evaluated, no_oracle = _tree_outcomes(PartitionTree, case)
    ref, ref_evaluated, _ = _tree_outcomes(ReferenceTree, case)
    assert new == ref
    assert evaluated <= ref_evaluated  # no point more often than before
    if no_oracle:
        # every candidate is an endpoint or a midpoint: each is evaluated
        # at most once over all the samples
        assert max(evaluated.values(), default=1) == 1


# ---------------------------------------------------------------------------
# CLI reports: incremental sums against full sums, byte for byte
# ---------------------------------------------------------------------------


def test_cli_reports_match_full_sums(tmp_path, monkeypatch):
    (tmp_path / "new").mkdir()
    (tmp_path / "ref").mkdir()
    codes = _run_jobs(tmp_path / "new")
    for mod in (core, cov):
        monkeypatch.setattr(mod, "_riemann_sums", reference_riemann_sums)
    monkeypatch.setattr(variation, "_variation_sums", reference_variation_sums_of)
    for mod in (core, variation, cov):
        monkeypatch.setattr(mod, "sample_partitions", reference_sample_partitions)
    for mod in (core, variation, cli):
        monkeypatch.setattr(mod, "cousin_partition", reference_cousin_partition)
    ref_codes = _run_jobs(tmp_path / "ref")
    assert codes == ref_codes == [0] * len(JOBS)
    new, ref = _files(tmp_path / "new"), _files(tmp_path / "ref")
    assert sorted(new) == sorted(ref)
    for name in new:
        assert new[name] == ref[name], name
