"""Incremental sample sums and the radius-passing builder against references.

The references are every sampled partition summed in full, one Fraction
term at a time (``oracle.riemann_sums``, ``oracle.product_sums``,
``oracle.variation_sums_of``), and the bisection builder as it stood
before, evaluating every candidate it reaches (``ReferenceTree``, the old
``PartitionTree._grow``). The gauges have tag oracles, so tags differ
between samples, and the radius, the integrand and the set raise at points
that only some samples reach. The sums must be the
same rationals, the first error the same class at the same point, and the
points evaluated a subset of the reference's.
"""

import random
from collections import Counter
from fractions import Fraction as F

from hypothesis import given, settings
from hypothesis import strategies as st

import oracle
from gaugekit import cli, core, cov, variation
from gaugekit.core import Gauge, Item, Iv, PartitionTree, ValueWithError, sample_partitions
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


# ---------------------------------------------------------------------------
# references: the builder without passed radii
# ---------------------------------------------------------------------------


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


def _logged_factors(f, S):
    """x ↦ (f(x), x + 1/3 ± 1/7) as integer factors, or None (a convention
    zero) off S."""

    def factors(x):
        if x not in S:
            return None
        return oracle.int_factor(f(x)), oracle.int_factor(ValueWithError(x + F(1, 3), F(1, 7)))

    return factors


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
        sums = oracle.riemann_sums if reference else core._riemann_sums
        pairs = sums(f, parts)
    elif channel == "product":
        sums = oracle.product_sums if reference else core._product_sums
        pairs = sums(_logged_factors(f, _logged_set(undecided, set_log)), parts)
    else:
        sums = oracle.variation_sums_of if reference else variation._variation_sums
        pairs = sums(f, _logged_set(undecided, set_log), parts)
    return _outcomes(pairs, samples), set(radius_log), set(f_log), set(set_log)


# domains whose endpoints' denominators are not powers of two
NON_DYADIC = (Iv(0, F(1, 3)), Iv(F(-2, 7), F(5, 9)), Iv(F(1, 10), F(7, 10)))


@settings(max_examples=400, deadline=None)
@given(cases(), st.sampled_from(("riemann", "product", "variation")),
       st.one_of(st.none(), st.sampled_from(NON_DYADIC)), st.data())
def test_sample_sums_match_full_sums(case, channel, domain, data):
    # the product channel has two inexact factors and convention zeros on
    # a set whose queries may be undecided; the integrand raises at points
    # only some samples reach
    if domain is not None:
        case = (domain,) + case[1:]
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
# the builder: integer depth thresholds against Fraction radii passed down
# ---------------------------------------------------------------------------


def _threshold_gauge(domain, breaks, radii, poison, kinds, scope, fresh, log):
    """Piecewise-constant radius raising at the poison points, with an
    oracle that suggests the chosen kinds of points (``scope`` "left": only
    in cells left of the domain's midpoint, so one tree mixes cells with
    and without suggestions). Each piece returns one shared radius object,
    except where ``fresh`` (see ``_fresh_radius``) makes a new one."""

    def radius(x):
        log.append(x)
        if x in poison:
            if poison[x] == "undecided":
                raise UndecidedError(f"undecided at {x}", bounds=(x, x))
            raise ValueError(f"poisoned at {x}")
        return _fresh_radius(radii[sum(1 for b in breaks if x >= b)], x, fresh)

    def suggest(iv):
        if scope == "left" and iv.hi > domain.midpoint:
            return ()
        out = []
        if "lo" in kinds:
            out.append(iv.lo)
        if "hi" in kinds:
            out.append(iv.hi)
        if "mid" in kinds:
            out.append(iv.midpoint)
        if "third" in kinds:
            out.append(iv.lo + iv.length / 3)
        if "outside" in kinds:
            out += [iv.lo - 1, iv.hi + 1]
        return out

    oracle = None if scope == "none" else suggest
    return Gauge(radius=radius, suggest_tag=oracle, name="thresholds")


def _fresh_radius(r, x, fresh):
    """r, or a new Fraction object at the points x whose numerator is
    1 or 2 mod 3: ``fresh`` is None (r everywhere) or a pair of how to
    make it at those two kinds of points, each "equal" (r's value) or
    another radius (its value)."""
    k = x.numerator % 3
    if fresh is None or not k:
        return r
    make = fresh[k - 1]
    if make == "equal":
        make = r
    return F(make.numerator, make.denominator)


@st.composite
def threshold_cases(draw):
    """Domains of dyadic, non-dyadic and zero width, with radii drawn mostly
    at or next to W/2^d, where the endpoint and midpoint tests turn."""
    a = draw(st.builds(F, st.integers(-16, 16), st.integers(1, 8)))
    # numerator 0: a degenerate domain
    width = draw(st.builds(F, st.integers(0, 12), st.sampled_from((1, 2, 3, 5, 6, 7))))
    domain = Iv(a, a + width)
    other = st.builds(F, st.integers(1, 24), st.integers(8, 64))
    if width:
        depth = st.integers(1, 9)
        exact = st.builds(lambda d: width / 2**d, depth)
        near = st.builds(lambda d, s: width / 2**d + s * width / 2**(d + 12),
                         depth, st.sampled_from((-1, 1)))
        scaled = st.builds(lambda r: width * r, other)
        radius = st.one_of(exact, exact, near, scaled)
    else:
        radius = other
    grid = [domain.lo + width * F(k, 2**j) for j in range(5) for k in range(2**j + 1)]
    breaks = tuple(sorted(draw(st.lists(st.sampled_from(grid), max_size=3))))
    radii = tuple(draw(radius) for _ in range(len(breaks) + 1))
    # the builder computes a reach once per radius object: shared objects,
    # equal copies and other values at alternating points
    fresh = draw(st.one_of(st.none(), st.tuples(*[st.one_of(st.just("equal"), radius)] * 2)))
    # poison points off the root's candidates, so that most builds get
    # past the root and some raise only in replays
    inner = [x for x in grid if x not in (domain.lo, domain.hi, domain.midpoint)] or grid
    poison = {
        x: draw(st.sampled_from(("foreign", "undecided")))
        for x in draw(st.lists(st.sampled_from(inner), max_size=2))
    }
    kinds = frozenset(draw(st.sets(st.sampled_from(("lo", "hi", "mid", "third", "outside")))))
    scope = draw(st.sampled_from(("none", "all", "left")))
    max_depth = draw(st.integers(1, 8))
    first_seed = draw(st.one_of(st.none(), st.integers(0, 2**32)))
    replay_seeds = draw(st.lists(st.integers(0, 2**32), max_size=4))
    return (domain, breaks, radii, poison, kinds, scope, fresh, max_depth, first_seed,
            replay_seeds)


def _builds(tree_class, case):
    """The first build, its replays, a replay without an rng and then
    ``tags_agree_on``: per step the items or the agreement, or the error's
    class, message (naming its point) and interval, and the points
    evaluated in order; the recorded nodes after the first build; the tree."""
    domain, breaks, radii, poison, kinds, scope, fresh, max_depth, first_seed, seeds = case
    log = []
    gauge = _threshold_gauge(domain, breaks, radii, poison, kinds, scope, fresh, log)
    S = point_set([domain.lo + domain.length * F(k, 4) for k in (0, 1, 3)])
    tree = tree_class()
    rngs = [None if first_seed is None else random.Random(first_seed)]
    rngs += [random.Random(seed) for seed in seeds]
    out, nodes = [], None
    for rng in rngs + [None, "agree"]:
        del log[:]
        try:
            if rng == "agree":
                result = tree.tags_agree_on(S)
            else:
                result = core.cousin_partition(domain, gauge, max_depth, rng=rng,
                                               tree=tree).items
        except GaugeKitError as exc:
            out.append(((type(exc), str(exc), getattr(exc, "interval", None)), list(log)))
            break
        out.append((result, list(log)))
        if nodes is None:  # replays fill in verdicts; keep the first build's
            nodes = [n if n.__class__ is int else (n[0], n[1], list(n[2]))
                     for n in tree.nodes]
    return out, nodes, tree


def _is_closed(nodes):
    verdicts = [node[2] for node in nodes if node.__class__ is not int]
    return all(None not in v and v.count(True) == 1 for v in verdicts)


@settings(max_examples=400, deadline=None)
@given(threshold_cases())
def test_thresholds_match_radius_passing_grow(case):
    new, new_nodes, tree = _builds(PartitionTree, case)
    ref, ref_nodes, _ = _builds(oracle.RadiusPassingTree, case)
    # items, agreement or the first error, and every point evaluated, in
    # order, in the first build, in each replay and in tags_agree_on
    assert new == ref
    # cells, candidates and verdicts of the first build
    assert new_nodes == ref_nodes
    closed = ref_nodes is not None and _is_closed(ref_nodes)
    assert (tree.items is not None) == closed
    if closed:
        assert all(log == [] for _, log in new[1:])


def test_thresholds_at_the_boundary():
    # under radius exactly 1/1024 on [0, 1] an endpoint of a 1/1024 cell is
    # rejected (its ball is open) and the midpoint accepted; the midpoint of
    # a 1/512 cell is rejected for the same reason
    g = core.constant_gauge(F(1, 1024))
    tree = PartitionTree()
    part = core.cousin_partition(Iv(0, 1), g, tree=tree)
    assert len(part) == 1024
    assert all(tag == cell.midpoint for tag, cell in part.items)
    assert tree.items is part.items
    ref = core.cousin_partition(Iv(0, 1), g, tree=oracle.RadiusPassingTree())
    assert ref.items == part.items


# ---------------------------------------------------------------------------
# CLI reports: incremental sums against full sums, byte for byte
# ---------------------------------------------------------------------------


def test_cli_reports_match_full_sums(tmp_path, monkeypatch):
    (tmp_path / "new").mkdir()
    (tmp_path / "ref").mkdir()
    codes = _run_jobs(tmp_path / "new")
    monkeypatch.setattr(core, "_riemann_sums", oracle.riemann_sums)
    monkeypatch.setattr(cov, "_product_sums", oracle.product_sums)
    monkeypatch.setattr(variation, "_variation_sums", oracle.variation_sums_of)
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
