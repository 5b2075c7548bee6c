"""Partition, gauge and Riemann-sum machinery."""

import gc
import random
from fractions import Fraction as F
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gaugekit import (
    Gauge,
    Iv,
    TaggedPartition,
    constant_gauge,
    cousin_partition,
    hk_estimate,
    is_subordinate,
    merge_partitions,
    min_gauge,
    riemann_sum,
    validate_partition,
)
from gaugekit.core import PartitionTree, ValueWithError, rat_str, sample_partitions
from gaugekit.errors import (
    DepthExhaustedError,
    InvalidGaugeError,
    PartitionMergeError,
    UndecidedError,
)
from gaugekit import core, funcs, sets, variation


def part(items, domain):
    return TaggedPartition.of(items, Iv(*domain))


class TestValidate:
    def test_canonical_two_cell(self):
        p = part([(F(1, 4), Iv(0, F(1, 2))), (F(3, 4), Iv(F(1, 2), 1))], (0, 1))
        assert validate_partition(p).ok

    def test_overlapping_interiors(self):
        p = part([(F(1, 4), Iv(0, F(3, 4))), (F(3, 4), Iv(F(1, 2), 1))], (0, 1))
        rep = validate_partition(p)
        assert not rep.ok
        assert any(v.rule == "interiors-overlap" for v in rep.violations)

    def test_coverage_gap(self):
        p = part([(0, Iv(0, F(1, 2)))], (0, 1))
        rep = validate_partition(p)
        assert not rep.ok
        assert any(v.rule == "coverage-gap" for v in rep.violations)

    def test_tag_outside_cell(self):
        p = part([(F(3, 4), Iv(0, F(1, 2))), (F(3, 4), Iv(F(1, 2), 1))], (0, 1))
        rep = validate_partition(p)
        assert any(v.rule == "tag-outside-cell" for v in rep.violations)

    def test_degenerate_cell_is_legal(self):
        p = part(
            [(0, Iv(0, F(1, 2))), (F(1, 2), Iv(F(1, 2), F(1, 2))), (1, Iv(F(1, 2), 1))],
            (0, 1),
        )
        assert validate_partition(p).ok


class TestSubordination:
    def test_unit_gauge_single_cell(self):
        p = part([(F(1, 2), Iv(0, 1))], (0, 1))
        assert is_subordinate(p, constant_gauge(1))

    def test_quarter_gauge_fails(self):
        p = part([(F(1, 2), Iv(0, 1))], (0, 1))
        assert not is_subordinate(p, constant_gauge(F(1, 4)))

    def test_inclusion_is_strict(self):
        # [0,1] inside (0-1, 0+1) fails at the right endpoint
        p = part([(0, Iv(0, 1))], (0, 1))
        assert not is_subordinate(p, constant_gauge(1))

    def test_dist_gauge_rejects_cells_crossing_the_set(self):
        # tag off the reflected set, cell crossing 1/3: radius is the
        # distance to the set, which is less than the reach to the far side
        D = sets.reflected_cantor()
        g = variation.gauge_dist_complement(D)
        p = part([(F(7, 20), Iv(F(3, 10), F(2, 5)))], (F(3, 10), F(2, 5)))
        assert g.radius_at(F(7, 20)) == F(1, 60)
        assert not is_subordinate(p, g)

    def test_invalid_gauge_raises(self):
        p = part([(F(1, 2), Iv(0, 1))], (0, 1))
        bad = Gauge(radius=lambda x: F(0), name="zero")
        with pytest.raises(InvalidGaugeError):
            is_subordinate(p, bad)

    def test_classified_radius_errors_pass_through(self):
        # an undecided set query keeps its class and its certified bounds
        g = variation.gauge_dist_complement(sets.svc())
        with pytest.raises(UndecidedError) as exc:
            g.radius_at(F(1, 7))
        assert exc.value.bounds == sets.distance_bounds(sets.svc(), F(1, 7))
        # a foreign failure is still an invalid gauge
        with pytest.raises(InvalidGaugeError):
            Gauge(radius=lambda x: 1 / (x - x), name="div").radius_at(F(1, 2))


class TestRiemannSum:
    def test_linear_two_cell(self):
        f = funcs.lookup("identity")
        p = part([(F(1, 4), Iv(0, F(1, 2))), (F(3, 4), Iv(F(1, 2), 1))], (0, 1))
        s = riemann_sum(f, p)
        assert s.value == F(1, 2) and s.exact

    def test_constant_telescopes(self):
        f = funcs.lookup("one")
        p = part(
            [(F(1, 8), Iv(0, F(1, 3))), (F(1, 2), Iv(F(1, 3), F(5, 6))), (1, Iv(F(5, 6), 2))],
            (0, 2),
        )
        assert riemann_sum(f, p).value == 2

    def test_square_left_tags(self):
        f = funcs.lookup("square")
        cells = [Iv(F(k, 4), F(k + 1, 4)) for k in range(4)]
        p = part([(c.lo, c) for c in cells], (0, 1))
        # (0 + 1/16 + 4/16 + 9/16) / 4
        assert riemann_sum(f, p).value == F(7, 32)

    def test_linearity_at_fixed_partition(self):
        ident = funcs.lookup("identity")
        sq = funcs.lookup("square")
        comb = funcs.fn_linear_combination(
            [(F(2, 3), ident), (F(-5, 7), sq)], Iv(-1, 1)
        )
        p = cousin_partition(Iv(-1, 1), constant_gauge(F(1, 3)))
        lhs = riemann_sum(comb, p).value
        rhs = F(2, 3) * riemann_sum(ident, p).value - F(5, 7) * riemann_sum(sq, p).value
        assert lhs == rhs


class TestCousin:
    def test_unit_gauge_accepts_midpoint_at_depth_zero(self):
        p = cousin_partition(Iv(0, 1), constant_gauge(1))
        assert len(p) == 1
        assert p.items[0].tag == F(1, 2)

    def test_shrinking_gauge_forces_zero_tag(self):
        g = Gauge(radius=lambda x: F(1, 4) if x == 0 else x, name="edge")
        p = cousin_partition(Iv(0, 1), g)
        assert validate_partition(p).ok
        assert is_subordinate(p, g)
        (zero_cell,) = [c for t, c in p.items if t == 0]
        assert zero_cell.length <= F(1, 4)

    def test_dist_gauge_tags_set_cells_inside_the_set(self):
        D = sets.reflected_cantor()
        g = variation.gauge_dist_complement(D)
        p = cousin_partition(Iv(-1, 1), g, rng=random.Random(7))
        assert validate_partition(p).ok
        assert is_subordinate(p, g)
        for tag, cell in p.items:
            if not sets.member(D, tag):
                comp = sets.complement_component(D, tag).interval
                assert comp.lo <= cell.lo and cell.hi <= comp.hi

    def test_depth_exhaustion_reports_smallest_interval(self):
        with pytest.raises(DepthExhaustedError) as exc:
            cousin_partition(Iv(0, 1), constant_gauge(F(1, 100)), max_depth=3)
        assert exc.value.interval.length == F(1, 8)


class TestMerge:
    def test_two_halves(self):
        g = constant_gauge(F(2, 3))
        left = cousin_partition(Iv(-1, 0), g)
        right = cousin_partition(Iv(0, 1), g)
        merged = merge_partitions([left, right])
        assert merged.domain == Iv(-1, 1)
        assert validate_partition(merged).ok
        assert is_subordinate(merged, g)

    def test_single_input_identity(self):
        p = cousin_partition(Iv(0, 1), constant_gauge(1))
        assert merge_partitions([p]) == p

    def test_gap_is_an_error(self):
        g = constant_gauge(1)
        a = cousin_partition(Iv(0, F(1, 3)), g)
        b = cousin_partition(Iv(F(2, 3), 1), g)
        with pytest.raises(PartitionMergeError):
            merge_partitions([a, b])

    def test_overlap_is_an_error(self):
        g = constant_gauge(1)
        a = cousin_partition(Iv(0, F(2, 3)), g)
        b = cousin_partition(Iv(F(1, 3), 1), g)
        with pytest.raises(PartitionMergeError):
            merge_partitions([a, b])

    def test_sum_additivity_over_merge(self):
        f = funcs.lookup("square")
        g = constant_gauge(F(1, 5))
        parts = [cousin_partition(Iv(F(k, 4) - 1, F(k + 1, 4) - 1), g) for k in range(8)]
        merged = merge_partitions(parts)
        assert riemann_sum(f, merged).value == sum(
            riemann_sum(f, p).value for p in parts
        )


class TestHkEstimate:
    def test_constant_function_exact(self):
        f = funcs.lookup("one")
        rep = hk_estimate(f, 0, 2, lambda e: constant_gauge(e), [F(1, 2)], 4, seed=1)
        assert all(s.value == 2 and s.exact for s in rep.final_sums)

    def test_linear_within_eps(self):
        f = funcs.lookup("identity")
        schedule = [F(1, 10), F(1, 100)]
        rep = hk_estimate(f, 0, 1, lambda e: constant_gauge(e), schedule, 5, seed=2)
        for row in rep.rows:
            for s in row.sums:
                assert abs(s.value - F(1, 2)) < row.eps

    def test_convention_integrand_is_zero(self):
        f = funcs.lookup("cantor_deriv")
        rep = hk_estimate(f, 0, 1, lambda e: constant_gauge(e), [F(1, 4)], 5, seed=3)
        assert all(s.value == 0 and s.exact for s in rep.final_sums)

    def test_orientation_antisymmetry(self):
        f = funcs.lookup("square")
        fwd = hk_estimate(f, 0, 1, lambda e: constant_gauge(e), [F(1, 8)], 4, seed=9)
        rev = hk_estimate(f, 1, 0, lambda e: constant_gauge(e), [F(1, 8)], 4, seed=9)
        assert rev.reversed_orientation
        assert [s.value for s in rev.final_sums] == [
            -s.value for s in fwd.final_sums
        ]

    def test_partition_failures_propagate(self):
        f = funcs.lookup("one")
        with pytest.raises(DepthExhaustedError):
            hk_estimate(
                f, 0, 1, lambda e: constant_gauge(e), [F(1, 100)], 2,
                seed=0, max_depth=3,
            )

    def test_convergence_flag(self):
        f = funcs.lookup("one")
        rep = hk_estimate(
            f, 0, 1, lambda e: constant_gauge(e), [F(1, 4)], 3, seed=0, tol=F(1, 1000)
        )
        assert rep.converged is True

    def test_convergence_counts_error_bounds(self):
        # one sample has spread 0, but its error bound alone exceeds tol
        f = funcs.lookup("quartic_root")
        rep = hk_estimate(
            f, 0, 1, lambda e: constant_gauge(F(1, 8)), [F(1, 8)], 1,
            seed=0, tol=F(1e-13),
        )
        (s,) = rep.final_sums
        assert rep.rows[-1].spread == 0 and 2 * s.err > F(1e-13)
        assert rep.converged is False


def random_piecewise_gauge(rng) -> Gauge:
    breaks = sorted(
        F(rng.randint(-16, 16), rng.randint(1, 8)) for _ in range(rng.randint(0, 3))
    )
    radii = [
        F(rng.randint(1, 32), rng.randint(16, 32)) for _ in range(len(breaks) + 1)
    ]

    def radius(x, breaks=tuple(breaks), radii=tuple(radii)):
        k = 0
        for b in breaks:
            if x >= b:
                k += 1
        return radii[k]

    return Gauge(radius=radius, name="piecewise")


class TestRefinementAndFuzz:
    def test_refinement_monotonicity(self):
        rng = random.Random(5)
        for _ in range(25):
            g1 = random_piecewise_gauge(rng)
            g2 = Gauge(radius=lambda x, g=g1: g.radius(x) * 3, name="wider")
            domain = Iv(F(-1, 2), F(3, 2))
            p = cousin_partition(domain, g1, rng=rng)
            assert is_subordinate(p, g1)
            assert is_subordinate(p, g2)

    def test_min_gauge_subordination(self):
        D = sets.reflected_cantor()
        dd = variation.gauge_dist_complement(D)
        g = min_gauge(dd, constant_gauge(F(1, 3)))
        p = cousin_partition(Iv(-1, 1), g)
        assert is_subordinate(p, g)
        assert is_subordinate(p, dd)

    def test_fuzz_small(self):
        rng = random.Random(11)
        for _ in range(300):
            gauge = random_piecewise_gauge(rng)
            a = F(rng.randint(-20, 20), rng.randint(1, 6))
            w = F(rng.randint(1, 12), rng.randint(4, 8))
            domain = Iv(a, a + w)
            p = cousin_partition(domain, gauge, rng=rng)
            assert validate_partition(p).ok
            assert is_subordinate(p, gauge)


class TestSmallSurfaces:
    def test_merge_nothing(self):
        with pytest.raises(PartitionMergeError):
            merge_partitions([])

    def test_interval_order_enforced(self):
        with pytest.raises(ValueError):
            Iv(1, 0)

    def test_rat_helpers(self):
        from gaugekit import rat, rat_str

        assert rat("3/4") == F(3, 4)
        assert rat(3, 4) == F(3, 4)
        assert rat_str(F(-2, 6)) == "-1/3"
        assert rat_str(F(5)) == "5/1"

    def test_outside_domain_violation(self):
        p = part([(0, Iv(-1, 1))], (0, 1))
        rep = validate_partition(p)
        assert any(v.rule == "outside-domain" for v in rep.violations)

    def test_out_of_cell_suggestions_filtered(self):
        g = Gauge(
            radius=lambda x: F(1, 2),
            suggest_tag=lambda iv: (iv.lo - 1, iv.midpoint, iv.hi + 1),
            name="wild",
        )
        assert g.suggestions(Iv(0, 1)) == (F(1, 2),)
        p = cousin_partition(Iv(0, 1), g)
        assert validate_partition(p).ok and is_subordinate(p, g)

    def test_degenerate_domain_estimate(self):
        f = funcs.lookup("one")
        rep = hk_estimate(f, 1, 1, lambda e: constant_gauge(e), [F(1, 4)], 2, seed=0)
        assert all(s.value == 0 for s in rep.final_sums)


class TestValueWithError:
    def test_exact_flag(self):
        assert ValueWithError(F(1, 3)).exact
        assert not ValueWithError(F(1, 3), F(1, 100)).exact

    def test_negative_error_rejected(self):
        with pytest.raises(ValueError):
            ValueWithError(0, F(-1, 2))

    def test_scaling(self):
        v = ValueWithError(F(1, 2), F(1, 8)).scaled(F(-4))
        assert v.value == -2 and v.err == F(1, 2)

    def test_arithmetic(self):
        a = ValueWithError(F(1, 3), F(1, 100))
        b = ValueWithError(F(-1, 2), F(1, 50))
        assert (a + b).value == F(-1, 6) and (a + b).err == F(3, 100)
        assert (-a).value == F(-1, 3) and (-a).err == a.err
        assert ValueWithError(F(-1, 4)).abs().value == F(1, 4)


class TestWorkCounts:
    """Machine-independent work counts of one build and of a sampled row."""

    def test_one_radius_evaluation_per_point(self):
        # the root evaluates its endpoints; every node then evaluates only
        # its midpoint, since its endpoints' radii come down from its parent
        calls = []
        g = Gauge(radius=lambda x: calls.append(x) or F(1, 1000), name="const")
        tree = PartitionTree()
        cousin_partition(Iv(0, 1), g, tree=tree)
        assert len(calls) == len(set(calls)) == 2 + len(tree.nodes)

    def test_endpoint_and_midpoint_verdicts_use_no_fraction_arithmetic(self, monkeypatch):
        # the depth thresholds decide every verdict with integers: the only
        # Fraction subtraction is the domain's width, and no candidate is
        # hashed or compared as a Fraction
        g = constant_gauge(F(1, 1000))
        radius = g.radius_at
        calls = []
        g = Gauge(radius=lambda x: calls.append(x) or radius(x), name="const")
        counts = {"__hash__": 0, "__lt__": 0, "__sub__": 0, "__rsub__": 0}
        for name in counts:
            monkeypatch.setattr(F, name, _counted(getattr(F, name), counts, name))
        part = cousin_partition(Iv(0, 1), g)
        monkeypatch.undo()
        assert counts["__hash__"] == counts["__lt__"] == 0
        assert counts["__sub__"] + counts["__rsub__"] <= 1
        assert len(calls) == 1025 and len(part) == 512

    def test_closed_tree_replays_draw_nothing(self, monkeypatch):
        # every cell of the build accepts exactly its midpoint, so each
        # replay is the first build's partition, reached without a shuffle
        g = constant_gauge(F(1, 1000))
        tree = PartitionTree()
        counts = {"shuffle": 0}
        monkeypatch.setattr(random.Random, "shuffle",
                            _counted(random.Random.shuffle, counts, "shuffle"))
        parts = list(sample_partitions(Iv(0, 1), g, 5, random.Random(1), tree=tree))
        assert counts["shuffle"] == 0
        assert all(p.items is parts[0].items for p in parts)
        assert tree.items is parts[0].items

    def test_open_tree_replays_shuffle(self, monkeypatch):
        # [0, 1] under radius 2 accepts all three of its candidates, and the
        # build stops at the first: the tree is not closed, and the replays
        # still shuffle and pick different tags under different seeds
        g = constant_gauge(2)
        counts = {"shuffle": 0}
        monkeypatch.setattr(random.Random, "shuffle",
                            _counted(random.Random.shuffle, counts, "shuffle"))
        tags = set()
        for seed in range(4):
            tree = PartitionTree()
            parts = list(sample_partitions(Iv(0, 1), g, 5, random.Random(seed), tree=tree))
            assert tree.items is None
            tags |= {p.items[0].tag for p in parts}
        assert counts["shuffle"] == 4 * 4
        assert tags == {F(0), F(1), F(1, 2)}

    def test_hk_estimate_resums_changed_cells_only(self):
        # cells of length 1/64 under radius 1/70 accept their midpoint and
        # their suggested third point, so the shuffles change some tags
        g = Gauge(radius=lambda x: F(1, 70),
                  suggest_tag=lambda iv: (iv.lo + iv.length / 3,), name="thirds")
        calls = []

        def f(x):
            calls.append(x)
            return ValueWithError(x * x)

        hk_estimate(f, 0, 1, lambda e: g, [F(1, 10)], 5, seed=4)
        parts = list(sample_partitions(Iv(0, 1), g, 5, random.Random(4)))
        cells = len(parts[0])
        assert cells == 64
        changed = sum(
            new.tag != old.tag
            for prev, cur in zip(parts, parts[1:])
            for old, new in zip(prev.items, cur.items)
        )
        assert 0 < changed < 4 * cells
        assert len(calls) == cells + 2 * changed


# ---------------------------------------------------------------------------
# Fractions built from coprime integer pairs
# ---------------------------------------------------------------------------

# zero, small and very large (> 2^64) numerators of both signs over small
# and very large denominators
numerators = st.one_of(
    st.just(0),
    st.integers(-10**6, 10**6),
    st.integers(2**64 + 1, 2**200).flatmap(lambda n: st.sampled_from((n, -n))),
)
denominators = st.one_of(st.integers(1, 10**6), st.integers(2**64 + 1, 2**200))


def _coprime(n, d):
    """n/d by one gcd and ``core._coprime_fraction``, as the builder and
    the kernels build it."""
    g = gcd(n, d)
    return core._coprime_fraction(n // g, d // g)


@settings(max_examples=300, deadline=None)
@given(numerators, denominators, numerators, denominators)
def test_coprime_fraction_is_the_fraction(n, d, n2, d2):
    q, ref = _coprime(n, d), F(n, d)
    other, other_ref = _coprime(n2, d2), F(n2, d2)
    assert type(q) is F
    assert (q.numerator, q.denominator) == (ref.numerator, ref.denominator)
    assert type(q.numerator) is int and type(q.denominator) is int
    assert q == ref and hash(q) == hash(ref)
    assert repr(q) == repr(ref) and str(q) == str(ref) and rat_str(q) == rat_str(ref)
    assert {q: 1}[ref] == 1
    assert type(q + other) is type(q - other) is type(q * other) is F
    assert q + other == ref + other_ref and q - other == ref - other_ref
    assert q * other == ref * other_ref
    assert q + 1 == ref + 1 and 3 * q == 3 * ref and -q == -ref and abs(q) == abs(ref)
    if n2:
        assert q / other == ref / other_ref
    for op in ("__lt__", "__le__", "__gt__", "__ge__", "__eq__"):
        assert getattr(q, op)(other) == getattr(ref, op)(other_ref)
        assert getattr(q, op)(0) == getattr(ref, op)(0)


@settings(max_examples=100, deadline=None)
@given(numerators, denominators, st.integers(1, 2**70))
def test_kernel_results_are_reduced_fractions(n, d, k):
    # a kernel may return unreduced pairs: eval and deriv reduce them
    fns = funcs.kernel_fns(lambda n, d: ((n * k, d * k), (-n * k, d)))
    x = F(n, d)
    for got, want in ((fns["eval"](x), ValueWithError(x)),
                      (fns["deriv"](x), ValueWithError(-x * k))):
        assert got == want and type(got.value) is F
        assert (got.value.numerator, got.value.denominator) == (
            want.value.numerator, want.value.denominator)


# ---------------------------------------------------------------------------
# the collector is paused for a first build, and only for it
# ---------------------------------------------------------------------------


def _interrupted():
    """A gauge whose third radius call raises KeyboardInterrupt."""
    calls = []

    def radius(x):
        calls.append(x)
        if len(calls) == 3:
            raise KeyboardInterrupt
        return F(1, 1000)

    return Gauge(radius=radius, name="interrupted")


# a first build that raises, and one that completes
FIRST_BUILDS = {
    "depth": (lambda: (Iv(0, 1), constant_gauge(F(1, 1000)), 3), DepthExhaustedError),
    "invalid": (lambda: (Iv(0, 1), Gauge(radius=lambda x: F(0), name="zero"), None),
                InvalidGaugeError),
    # dist:S over [1/3, 1] cannot decide whether 2/3 lies in S
    "undecided": (lambda: (Iv(F(1, 3), 1), variation.gauge_dist_complement(sets.svc()), None),
                  UndecidedError),
    "interrupt": (lambda: (Iv(0, 1), _interrupted(), None), KeyboardInterrupt),
    "complete": (lambda: (Iv(0, 1), constant_gauge(F(1, 1000)), None), None),
}


@pytest.fixture
def collector():
    """Restores the collector's state after the test."""
    was = gc.isenabled()
    yield
    if was:
        gc.enable()
    else:
        gc.disable()


@pytest.mark.parametrize("enabled", (True, False))
@pytest.mark.parametrize("case", sorted(FIRST_BUILDS))
def test_first_build_restores_the_collector(case, enabled, collector):
    make, error = FIRST_BUILDS[case]
    domain, gauge, max_depth = make()
    if enabled:
        gc.enable()
    else:
        gc.disable()
    if error is None:
        cousin_partition(domain, gauge, max_depth=max_depth, tree=PartitionTree())
    else:
        with pytest.raises(error):
            cousin_partition(domain, gauge, max_depth=max_depth, tree=PartitionTree())
    assert gc.isenabled() is enabled


def test_first_build_runs_no_collection(collector):
    # the generation-0 collections counted at each radius call; once the
    # collector is back on, the next allocation may run one collection
    seen = []
    r = F(1, 5000)

    def radius(x):
        seen.append(gc.get_stats()[0]["collections"])
        return r

    gc.enable()
    part = cousin_partition(Iv(0, 1), Gauge(radius=radius, name="const"), tree=PartitionTree())
    assert len(part) == 2**12 and len(seen) == 2**13 + 1
    assert min(seen) == max(seen)


def _counted(method, counts, name):
    def counted(*args, **kwargs):
        counts[name] += 1
        return method(*args, **kwargs)

    return counted
