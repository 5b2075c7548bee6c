"""The replaying sampler against the from-scratch reference builder.

``reference_cousin_partition`` is the bisection builder as it stood before
partition trees: every sample rebuilds from the domain, re-consulting the
tag oracle and re-evaluating every radius it reaches. The tree replay must
give the same partitions item for item, raise the same error at the same
sample, and never evaluate a point the reference does not.
"""

import os
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gaugekit import cli, core, cov, variation
from gaugekit.core import (
    Gauge,
    Item,
    Iv,
    PartitionTree,
    TaggedPartition,
    constant_gauge,
    cousin_partition,
    sample_partitions,
)
from gaugekit.errors import DepthExhaustedError, InvalidGaugeError, UndecidedError


# ---------------------------------------------------------------------------
# reference: the builder and the sampling loop without a tree
# ---------------------------------------------------------------------------


def _reference_candidates(iv, gauge, rng):
    cands = list(gauge.suggestions(iv))
    for d in (iv.lo, iv.hi, iv.midpoint):
        cands.append(d)
    out = list(dict.fromkeys(cands))
    if rng is not None:
        rng.shuffle(out)
    return out


def reference_cousin_partition(domain, gauge, max_depth=None, rng=None):
    if max_depth is None:
        max_depth = core.MAX_DEPTH_DEFAULT
    items = []
    stack = [(domain, 0)]
    while stack:
        iv, depth = stack.pop()
        accepted = False
        for x in _reference_candidates(iv, gauge, rng):
            r = gauge.radius_at(x)
            if x - r < iv.lo and iv.hi < x + r:
                items.append(Item(x, iv))
                accepted = True
                break
        if accepted:
            continue
        if depth >= max_depth:
            raise DepthExhaustedError(
                f"no acceptable tag for {iv} after {depth} bisections "
                f"under gauge {gauge.name!r}",
                interval=iv,
            )
        m = iv.midpoint
        stack.append((Iv(m, iv.hi), depth + 1))
        stack.append((Iv(iv.lo, m), depth + 1))
    return TaggedPartition.of(items, domain)


def reference_sample_partitions(domain, gauge, samples, master, max_depth=None, tree=None):
    for i in range(samples):
        rng = None if i == 0 else random.Random(master.getrandbits(64))
        yield reference_cousin_partition(domain, gauge, max_depth=max_depth, rng=rng)


# ---------------------------------------------------------------------------
# random gauges with tag oracles
# ---------------------------------------------------------------------------


class Poison(Exception):
    """A foreign failure at a chosen point; radius_at wraps it."""


def _logged_gauge(breaks, radii, poison, anchors, suggest_kinds, log):
    """Piecewise-constant radius, raising at the poison points; every
    evaluated point is appended to ``log``."""

    def radius(x):
        log.append(x)
        if x in poison:
            if poison[x] == "undecided":
                raise UndecidedError(f"undecided at {x}", bounds=(F(0), F(1)))
            raise Poison(str(x))
        return radii[sum(1 for b in breaks if x >= b)]

    def suggest(iv):
        out = list(anchors)  # out-of-cell anchors are filtered
        if "duplicates" in suggest_kinds:
            out += [iv.midpoint, iv.lo, iv.midpoint]
        if "outside" in suggest_kinds:
            out += [iv.lo - 1, iv.hi + 1]
        if "third" in suggest_kinds:
            out.append(iv.lo + iv.length / 3)
        return out

    return Gauge(radius=radius, suggest_tag=suggest if suggest_kinds or anchors else None,
                 name="fuzz")


rationals = st.builds(F, st.integers(-16, 16), st.integers(1, 8))


@st.composite
def cases(draw):
    a = draw(rationals)
    width = draw(st.builds(F, st.integers(0, 6), st.integers(1, 4)))  # 0: degenerate
    domain = Iv(a, a + width)
    breaks = tuple(sorted(draw(st.lists(rationals, max_size=3))))
    radii = tuple(
        draw(st.builds(F, st.integers(1, 24), st.integers(8, 64)))
        for _ in range(len(breaks) + 1)
    )
    # poison points sit on the bisection grid of the domain, so some
    # candidate orders reach them and others accept a tag first
    grid = [domain.lo + width * F(k, 2**j) for j in range(4) for k in range(2**j + 1)]
    poison = {
        x: draw(st.sampled_from(("foreign", "undecided")))
        for x in draw(st.lists(st.sampled_from(grid), max_size=2))
    }
    anchors = tuple(draw(st.lists(rationals, max_size=3)))
    kinds = frozenset(draw(st.sets(st.sampled_from(("duplicates", "outside", "third")))))
    max_depth = draw(st.integers(1, 8))
    samples = draw(st.integers(1, 5))
    seed = draw(st.integers(0, 2**32))
    return domain, breaks, radii, poison, anchors, kinds, max_depth, samples, seed


def _outcomes(sampler, domain, spec, max_depth, samples, seed):
    """Per sample: (partition items or (error class, interval), evaluated
    points). Stops at the first error, as every caller does."""
    breaks, radii, poison, anchors, kinds = spec
    log = []
    gauge = _logged_gauge(breaks, radii, poison, anchors, kinds, log)
    gen = sampler(domain, gauge, samples, random.Random(seed), max_depth)
    out = []
    for _ in range(samples):
        del log[:]
        try:
            result = next(gen).items
        except (DepthExhaustedError, InvalidGaugeError, UndecidedError) as exc:
            out.append(((type(exc), getattr(exc, "interval", None)), set(log)))
            break
        out.append((result, set(log)))
    return out


@settings(max_examples=300, deadline=None)
@given(cases())
def test_replay_matches_reference_builds(case):
    domain, breaks, radii, poison, anchors, kinds, max_depth, samples, seed = case
    spec = (breaks, radii, poison, anchors, kinds)
    new = _outcomes(sample_partitions, domain, spec, max_depth, samples, seed)
    ref = _outcomes(reference_sample_partitions, domain, spec, max_depth, samples, seed)
    assert [r for r, _ in new] == [r for r, _ in ref]
    for (_, evaluated), (_, ref_evaluated) in zip(new, ref):
        assert evaluated <= ref_evaluated


def test_poison_reached_by_some_shuffles_only():
    # candidates of [0, 1]: the suggested 1/2 (acceptable), then 0 (poison)
    # and 1 (rejected); sample 0 accepts 1/2, a shuffle that tries 0 first
    # raises, at the same sample in both builders
    spec = ((), (F(1),), {F(0): "foreign"}, (F(1, 2),), frozenset())
    seen = set()
    for seed in range(12):
        new = _outcomes(sample_partitions, Iv(0, 1), spec, 4, 6, seed)
        ref = _outcomes(reference_sample_partitions, Iv(0, 1), spec, 4, 6, seed)
        assert [r for r, _ in new] == [r for r, _ in ref]
        seen.add(len(new))
        assert new[0][0] == (Item(F(1, 2), Iv(0, 1)),)
    assert len(seen) > 1  # some seeds fail early, some late or never


def test_failed_replay_records_no_verdict():
    # replaying a shuffle that raised raises again, as a fresh build would
    spec = ((), (F(1),), {F(0): "foreign"}, (F(1, 2),), frozenset())
    gauge = _logged_gauge(*spec, [])
    tree = PartitionTree()
    cousin_partition(Iv(0, 1), gauge, tree=tree)

    def outcome(build, seed):
        try:
            build(Iv(0, 1), gauge, rng=random.Random(seed))
        except InvalidGaugeError:
            return "raised"
        return "ok"

    replay = lambda *a, **kw: cousin_partition(*a, tree=tree, **kw)
    raised = 0
    for seed in range(12):
        ref = outcome(reference_cousin_partition, seed)
        assert outcome(replay, seed) == outcome(replay, seed) == ref
        raised += ref == "raised"
    assert 0 < raised < 12


def test_replay_evaluates_each_radius_once():
    calls = []
    g = Gauge(radius=lambda x: calls.append(x) or F(1, 10), name="tenth")
    tree = PartitionTree()
    parts = list(sample_partitions(Iv(0, 1), g, 5, random.Random(3), tree=tree))
    assert len({tuple(c for _, c in p.items) for p in parts}) == 1
    # a second pass over the same shuffles finds every verdict recorded
    n = len(calls)
    again = list(sample_partitions(Iv(0, 1), g, 5, random.Random(3), tree=tree))
    assert len(calls) == n and again == parts


def test_tree_rejects_another_domain_gauge_or_cap():
    g = constant_gauge(F(1, 4))
    tree = PartitionTree()
    cousin_partition(Iv(0, 1), g, tree=tree)
    cousin_partition(Iv(0, 1), g, max_depth=core.MAX_DEPTH_DEFAULT, tree=tree)
    with pytest.raises(ValueError):
        cousin_partition(Iv(0, 2), g, tree=tree)
    with pytest.raises(ValueError):
        cousin_partition(Iv(0, 1), constant_gauge(F(1, 4)), tree=tree)
    with pytest.raises(ValueError):
        cousin_partition(Iv(0, 1), g, max_depth=5, tree=tree)


def test_failed_build_leaves_the_tree_empty():
    g = constant_gauge(F(1, 100))
    tree = PartitionTree()
    with pytest.raises(DepthExhaustedError):
        cousin_partition(Iv(0, 1), g, max_depth=3, tree=tree)
    assert tree.nodes == []
    with pytest.raises(DepthExhaustedError) as exc:
        cousin_partition(Iv(0, 1), g, max_depth=3, tree=tree)
    assert exc.value.interval.length == F(1, 8)


# ---------------------------------------------------------------------------
# CLI reports: tree replay against the reference loop, byte for byte
# ---------------------------------------------------------------------------

JOBS = (
    # the README examples
    ("integrate", "--fn", "linear", "--domain", "0", "1", "--eps", "1e-3", "--seed", "1"),
    ("partition", "--domain", "-1", "1", "--gauge", "dist:D", "--fn", "cantor_abs",
     "--out", "part.csv"),
    ("variation", "--fn", "cantor_abs", "--set", "D", "--domain", "-1", "1",
     "--mode", "ncv", "--seed", "2"),
    ("variation", "--fn", "cantor_abs", "--set", "D", "--domain", "-1", "1",
     "--mode", "nv", "--adversary", "split:0", "--seed", "3", "--out", "adv.json"),
    ("cov", "--instance", "cantorabs-unit", "--interval", "0", "1", "--seed", "4"),
    ("ftc", "--fn", "cantor", "--domain", "0", "1", "--seed", "5", "--expect", "fails"),
    ("scan", "--instance", "cantorabs-unit", "--grid", "-1", "0", "0", "1", "-1", "1",
     "--seed", "6"),
    # small versions of the benchmark jobs, and a gauge shared across epsilons
    ("ftc", "--fn", "square", "--domain", "-1", "1", "--eps", "0.05", "--seed", "7",
     "--out", "ftc-square.json"),
    ("variation", "--fn", "cantor", "--set", "C", "--domain", "0", "1",
     "--gauge", "min:dist:C+const:1/64", "--seed", "8", "--out", "cantor.json"),
    ("integrate", "--fn", "square", "--domain", "0", "1", "--gauge", "dist:C",
     "--eps", "0.1", "0.01", "--seed", "9", "--out", "integrate-dist.json"),
    ("partition", "--domain", "0", "1", "--gauge", "min:dist:C+const:1/16",
     "--fn", "cantor", "--seed", "10", "--out", "part-seeded.csv"),
)


def _run_jobs(directory):
    cwd = os.getcwd()
    os.chdir(directory)
    try:
        return [cli.main(list(argv)) for argv in JOBS]
    finally:
        os.chdir(cwd)


def _files(directory):
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


def test_cli_reports_match_reference_loop(tmp_path, monkeypatch):
    (tmp_path / "tree").mkdir()
    (tmp_path / "ref").mkdir()
    codes = _run_jobs(tmp_path / "tree")
    for mod in (core, variation, cov):
        monkeypatch.setattr(mod, "sample_partitions", reference_sample_partitions)
    for mod in (core, variation, cli):
        monkeypatch.setattr(mod, "cousin_partition", reference_cousin_partition)
    ref_codes = _run_jobs(tmp_path / "ref")
    assert codes == ref_codes == [0] * len(JOBS)
    tree, ref = _files(tmp_path / "tree"), _files(tmp_path / "ref")
    assert sorted(tree) == sorted(ref)
    assert any(name.endswith("-witness.csv") for name in tree)
    for name in tree:
        assert tree[name] == ref[name], name
