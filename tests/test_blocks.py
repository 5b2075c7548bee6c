"""The uniform-block step against the radius-passing builder and the walk.

A gauge that declares a constant radius (``Gauge.constant``) has its first
rng-less build made from one radius call, as a uniform block. The
references are ``oracle.RadiusPassingTree``, which grows every node on
Fraction radii and ball tests, for the items and the first error, and the
walk itself, run on a gauge with the same radius that declares nothing,
for closedness, the radius calls and the replays' RNG state. A block's
partition answers ``len`` and its sums without building its items; the
answers must be those of the built items.
"""

import random
from fractions import Fraction as F

from hypothesis import given, settings
from hypothesis import strategies as st

import oracle
from gaugekit import core, variation
from gaugekit._record import replace
from gaugekit.core import Gauge, Iv, PartitionTree, TaggedPartition, ValueWithError
from gaugekit.errors import GaugeKitError
from gaugekit.funcs import EMPTY_FAILURE, FiniteFailureSet


@st.composite
def block_cases(draw):
    """(domain, radius, depth cap, reach): dyadic and non-dyadic widths, a
    lo of either sign, zero width; the reach k = floor(W/r).bit_length()
    runs over 0..9 with the radius at and inside the boundary W/2^(k−1),
    and the cap lies on both sides of k − 1."""
    lo = draw(st.fractions(min_value=-3, max_value=3, max_denominator=12))
    width = draw(st.one_of(
        st.just(F(0)),
        st.builds(lambda n, j: F(n, 2**j), st.integers(1, 7), st.integers(0, 4)),
        st.fractions(min_value=F(1, 30), max_value=5, max_denominator=30),
    ))
    if width == 0:
        r = draw(st.fractions(min_value=F(1, 50), max_value=3, max_denominator=50))
        return Iv(lo, lo), r, draw(st.integers(0, 3)), 0
    e = draw(st.integers(-1, 8))
    s = draw(st.one_of(st.just(F(1)), st.fractions(min_value=F(1, 2), max_value=1,
                                                    max_denominator=40)))
    if s == F(1, 2):
        s = F(1)
    r = width * s / F(2) ** e  # W/r lies in [2^e, 2^(e+1)): the reach is e + 1
    k = (width / r).__floor__().bit_length()
    assert k == max(e + 1, 0)
    cap = max(0, k - 1 + draw(st.integers(-2, 1)))
    return Iv(lo, lo + width), r, cap, k


def _counted(radius, calls):
    def counted(x):
        calls.append(x)
        return radius(x)
    return counted


def _build(domain, gauge, cap, tree, rng=None):
    """``cousin_partition``'s items, or the error's class, message and
    interval."""
    try:
        return core.cousin_partition(domain, gauge, max_depth=cap, rng=rng, tree=tree).items
    except GaugeKitError as exc:
        return (type(exc), str(exc), getattr(exc, "interval", None))


def _gauges(r):
    """The constant gauge with counted radius calls, and the same radius
    on a gauge that declares no constant."""
    calls, walk_calls = [], []
    g = core.constant_gauge(r)
    block = Gauge(radius=_counted(g.radius, calls), name=g.name, constant=g.constant)
    walk = Gauge(radius=_counted(g.radius, walk_calls), name=g.name)
    return block, calls, walk, walk_calls


@settings(max_examples=300, deadline=None)
@given(block_cases(), st.integers(0, 2**32))
def test_block_matches_radius_passing_tree_and_walk(case, seed):
    domain, r, cap, k = case
    block, calls, walk, walk_calls = _gauges(r)
    tree, walk_tree = PartitionTree(), PartitionTree()
    got = _build(domain, block, cap, tree)
    assert got == _build(domain, walk, cap, walk_tree)
    if k >= 1:
        assert calls == [domain.lo]  # one radius call, at lo
        assert tree.nodes == []
    else:  # the root accepts lo: the walk, with its radius calls
        assert calls == walk_calls
    # items, or the first error with its class, message and interval
    assert got == _build(domain, block, cap, oracle.RadiusPassingTree())
    if got.__class__ is not tuple:
        return
    # closedness, and the replays' partitions and RNG state
    assert (tree.items is not None) == (walk_tree.items is not None)
    assert (tree.items is not None) == (0 < k <= cap + 1 or domain.lo == domain.hi)
    rng, walk_rng = random.Random(seed), random.Random(seed)
    for _ in range(3):
        assert _build(domain, block, cap, tree, rng) == _build(domain, walk, cap, walk_tree, walk_rng)
        assert rng.getstate() == walk_rng.getstate()


@settings(max_examples=150, deadline=None)
@given(block_cases(), st.integers(0, 2**32))
def test_shuffled_first_build_takes_the_walk(case, seed):
    domain, r, cap, _ = case
    block, calls, walk, walk_calls = _gauges(r)
    rng, walk_rng = random.Random(seed), random.Random(seed)
    got = _build(domain, block, cap, PartitionTree(), rng)
    assert got == _build(domain, walk, cap, PartitionTree(), walk_rng)
    assert calls == walk_calls
    assert rng.getstate() == walk_rng.getstate()


def _factors(x):
    # x² exact and 2x with an error bound; 0 by convention left of 0
    if x < 0:
        return None
    return ((x.numerator ** 2, x.denominator ** 2, 0, 1),
            (2 * x.numerator, x.denominator, 1, 7))


def _f(x):
    return ValueWithError(x * x, F(1, 9))


@settings(max_examples=200, deadline=None)
@given(block_cases())
def test_unread_block_answers_as_its_items(case):
    domain, r, cap, k = case
    if not 0 < k <= cap + 1:
        return
    g = core.constant_gauge(r)
    part = core.cousin_partition(domain, g, max_depth=cap)
    block = part._block
    assert block is not None
    n = len(part)
    (_, sums), = core._product_sums(_factors, (part,))
    (_, empty), = variation._variation_sums(_f, EMPTY_FAILURE, (part,))
    assert block._items is None  # nothing above read a cell
    plain = TaggedPartition(part.items, domain)
    assert plain == part
    assert n == len(plain) == 2 ** (k - 1)
    assert sums == next(core._product_sums(_factors, (plain,)))[1]
    assert sums == oracle.product_sum(_factors, plain)
    assert empty == next(variation._variation_sums(_f, EMPTY_FAILURE, (plain,)))[1]
    assert empty == (ValueWithError(0), ValueWithError(0))
    S = FiniteFailureSet(tuple(tag for tag, _ in plain.items[::3]))
    assert (next(variation._variation_sums(_f, S, (part,)))[1]
            == oracle.variation_sums(_f, plain, S))


def test_proof_gauge_of_the_polynomial_catalog_is_constant():
    from gaugekit import cov, funcs

    unit = Iv(0, 1)
    for g in (funcs.square_fn(Iv(-1, 1)), funcs.identity_fn(unit), funcs.const_fn(3, unit)):
        gauge = cov.proof_gauge(cov.ftc_instance(g), F(1, 1000))
        assert gauge.constant is not None and gauge.suggest_tag is None
        assert gauge.radius_at(F(1, 3)) == gauge.constant
    # a nonempty B, or a modulus not marked x_free, declares nothing
    unmarked = replace(funcs.square_fn(unit), modulus=lambda x, eps: eps)
    for inst in (cov.lookup_instance("cantor-unit"), cov.ftc_instance(unmarked)):
        assert cov.proof_gauge(inst, F(1, 1000)).constant is None
