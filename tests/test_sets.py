"""Exact queries on the Cantor-type constructions."""

import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gaugekit import Iv, funcs, sets
from gaugekit.errors import DomainError, InvalidSetError, UndecidedError
from gaugekit.sets import (
    complement_component,
    distance,
    distance_bounds,
    endpoint_sample,
    measure_at,
    member,
    realize,
    reflected_cantor,
    svc,
    svc_stage_interval,
    ternary_cantor,
)
import oracle
from test_core import _counted

C = ternary_cantor()
D = reflected_cantor()
S = svc()


class TestRealize:
    def test_svc_depth0(self):
        assert realize(S, 0) == (Iv(0, 1),)

    def test_svc_depth1(self):
        assert realize(S, 1) == (Iv(0, F(3, 8)), Iv(F(5, 8), 1))

    def test_cantor_depth2(self):
        assert realize(C, 2) == (
            Iv(0, F(1, 9)),
            Iv(F(2, 9), F(1, 3)),
            Iv(F(2, 3), F(7, 9)),
            Iv(F(8, 9), 1),
        )

    def test_reflected_merges_at_zero(self):
        cells = realize(D, 1)
        assert cells == (Iv(-1, F(-2, 3)), Iv(F(-1, 3), F(1, 3)), Iv(F(2, 3), 1))

    def test_counts(self):
        for n in range(8):
            assert len(realize(C, n)) == 2**n
            assert len(realize(S, n)) == 2**n
            assert len(realize(D, n)) == 2 ** (n + 1) - 1

    def test_nesting(self):
        for s in (C, S, D):
            for n in range(6):
                coarse = realize(s, n)
                for cell in realize(s, n + 1):
                    assert any(
                        big.lo <= cell.lo and cell.hi <= big.hi for big in coarse
                    )


class TestMeasure:
    def test_svc_examples(self):
        assert measure_at(S, 1) == F(3, 4)
        assert measure_at(S, 10) == F(1, 2) + F(1, 2048)

    def test_svc_formula_to_30(self):
        for n in range(31):
            assert measure_at(S, n) == F(1, 2) + F(1, 2 ** (n + 1))

    def test_cantor_formula(self):
        for n in range(12):
            assert measure_at(C, n) == F(2, 3) ** n
            assert measure_at(D, n) == 2 * F(2, 3) ** n

    def test_matches_realization(self):
        for s in (C, S, D):
            for n in range(9):
                total = sum((c.length for c in realize(s, n)), F(0))
                assert total == measure_at(s, n)


class TestMember:
    def test_cantor_quarter(self):
        assert member(C, F(1, 4))

    def test_cantor_half(self):
        assert not member(C, F(1, 2))

    def test_reflected_minus_one(self):
        assert member(D, -1)

    def test_ternary_endpoints_and_plateau_bounds(self):
        for x in (0, 1, F(1, 3), F(2, 3), F(1, 9), F(2, 9), F(7, 9), F(8, 9)):
            assert member(C, F(x))

    def test_svc_stage_endpoints_persist(self):
        for cell in realize(S, 8)[:20]:
            assert member(S, cell.lo) and member(S, cell.hi)

    def test_svc_dyadic_interior_member(self):
        # 1/4 survives the only step that could swallow it, then its
        # coordinate is integral on every later scale
        assert member(S, F(1, 4))
        assert distance(S, F(1, 4)) == 0

    def test_outside_base_is_domain_error(self):
        with pytest.raises(DomainError):
            member(C, F(3, 2))

    def test_svc_membership_matches_stages(self):
        rng = random.Random(3)
        stages = {n: realize(S, n) for n in (3, 6, 9, 12)}
        for _ in range(120):
            k = rng.randint(1, 12)
            x = F(rng.randrange(1, 2**k, 2), 2**k)
            is_mem = member(S, x)
            for n, cells in stages.items():
                inside = any(c.lo <= x <= c.hi for c in cells)
                if is_mem:
                    assert inside
                else:
                    depth = complement_component(S, x).depth_created
                    assert inside == (depth > n)

    def test_odd_denominator_can_be_undecided(self):
        with pytest.raises(UndecidedError):
            member(sets.svc(50), F(1, 3))
        lo, hi = distance_bounds(sets.svc(50), F(1, 3))
        assert lo == 0 and hi > 0

    @pytest.mark.parametrize("cap", (-3, 0, True, 1.0, "5"))
    def test_walk_cap_below_one_is_refused_when_built(self, cap):
        # a walk of no step left 1/2 undecided, and a negative cap raised a
        # bare ValueError from a negative shift at the first query
        with pytest.raises(InvalidSetError, match=f"got {cap!r}$"):
            sets.svc(cap)
        with pytest.raises(InvalidSetError):
            sets.GeneratedSet(sets.TERNARY_CANTOR, Iv(0, 1), cap)
        assert not member(sets.svc(1), F(1, 2))  # the least cap decides 1/2

    @pytest.mark.parametrize("shallow_first", (True, False))
    def test_answers_do_not_depend_on_cap_order(self, shallow_first):
        # 5/1024 settles 6 steps down: a set walked 1 step cannot decide it,
        # whichever set asked first, and no cache is cleared in between
        x = F(5, 1024)
        for shallow in (shallow_first, not shallow_first) * 2:
            if shallow:
                with pytest.raises(UndecidedError):
                    member(sets.svc(1), x)
            else:
                assert member(sets.svc(), x)


class TestDistance:
    def test_cantor_center(self):
        assert distance(C, F(1, 2)) == F(1, 6)

    def test_reflected_mirror(self):
        assert distance(D, F(1, 2)) == F(1, 6)
        assert distance(D, F(-1, 2)) == F(1, 6)

    def test_svc_examples(self):
        assert distance(S, F(1, 2)) == F(1, 8)
        assert distance(S, F(7, 16)) == F(1, 16)

    def test_outside_hull(self):
        assert distance(C, F(-1, 4)) == F(1, 4)
        assert distance(C, F(5, 4)) == F(1, 4)

    @settings(max_examples=120, deadline=None)
    @given(
        st.fractions(min_value=0, max_value=1, max_denominator=200),
        st.fractions(min_value=0, max_value=1, max_denominator=200),
    )
    def test_lipschitz(self, x, y):
        assert abs(distance(C, x) - distance(C, y)) <= abs(x - y)

    def test_svc_lipschitz_on_dyadics(self):
        rng = random.Random(21)
        for _ in range(120):
            k1, k2 = rng.randint(1, 11), rng.randint(1, 11)
            x = F(rng.randrange(0, 2**k1 + 1), 2**k1)
            y = F(rng.randrange(0, 2**k2 + 1), 2**k2)
            assert abs(distance(S, x) - distance(S, y)) <= abs(x - y)

    @settings(max_examples=80, deadline=None)
    @given(st.fractions(min_value=-1, max_value=1, max_denominator=150))
    def test_reflected_symmetry(self, x):
        assert member(D, x) == member(D, -x)
        assert distance(D, x) == distance(D, -x)


class TestComplementComponent:
    def test_cantor_middle_third(self):
        comp = complement_component(C, F(1, 2))
        assert comp.interval == Iv(F(1, 3), F(2, 3))
        assert comp.depth_created == 1

    def test_svc_first_gap(self):
        comp = complement_component(S, F(1, 2))
        assert comp.interval == Iv(F(3, 8), F(5, 8))

    def test_reflected_mirror(self):
        comp = complement_component(D, F(-1, 2))
        assert comp.interval == Iv(F(-2, 3), F(-1, 3))

    def test_member_rejected(self):
        with pytest.raises(DomainError):
            complement_component(C, F(1, 4))

    def test_component_endpoints_are_members(self):
        rng = random.Random(1)
        for _ in range(60):
            x = F(rng.randint(1, 999), 1000)
            if member(C, x):
                continue
            comp = complement_component(C, x).interval
            assert member(C, comp.lo) and member(C, comp.hi)
            assert comp.lo < x < comp.hi


class TestMembershipStageConsistency:
    def test_spot_check_depths(self):
        # member(x) iff x lies in every realization stage; gap points leave
        # exactly at their creation depth
        rng = random.Random(9)
        stages = {n: realize(C, n) for n in (2, 5, 8, 11)}
        for _ in range(150):
            x = F(rng.randint(0, 3**7), 3**7)
            if x > 1:
                continue
            is_mem = member(C, x)
            for n, cells in stages.items():
                inside = any(c.lo <= x <= c.hi for c in cells)
                if is_mem:
                    assert inside
                else:
                    depth = complement_component(C, x).depth_created
                    assert inside == (depth > n)


class TestBoundsAndLimits:
    def test_distance_bounds_exact_branch(self):
        lo, hi = distance_bounds(C, F(1, 2))
        assert lo == hi == F(1, 6)

    def test_realize_depth_errors(self):
        with pytest.raises(ValueError):
            realize(C, -1)
        with pytest.raises(ValueError):
            realize(C, 25)

    def test_measure_depth_error(self):
        with pytest.raises(ValueError):
            measure_at(C, -2)

    def test_endpoint_sample_whole_pool(self):
        xs = endpoint_sample(C, 2, 100, seed=0)
        assert len(xs) == 8  # every endpoint of the 4 cells

    @pytest.mark.parametrize("s", (C, D, S), ids=lambda s: s.kind)
    def test_stage_endpoints_strictly_increase(self, s):
        for depth in range(13):
            n = 2 * len(oracle.realize(s, depth))
            pool = [sets.stage_endpoint(s, depth, k) for k in range(n)]
            assert all(a < b for a, b in zip(pool, pool[1:])), depth
            with pytest.raises(ValueError, match=f"index {n} out of range for the {n} "):
                sets.stage_endpoint(s, depth, n)

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from((C, D, S)), st.integers(0, 9), st.integers(1, 300),
           st.integers(0, 2**32))
    def test_endpoint_sample_matches_sorted_pool_sample(self, s, depth, count, seed):
        # the sample drawn from the sorted set of endpoints, as it was drawn
        pool = sorted({pt for c in oracle.realize(s, depth) for pt in (c.lo, c.hi)})
        want = tuple(pool) if count >= len(pool) else tuple(
            sorted(random.Random(seed).sample(pool, count)))
        assert endpoint_sample(s, depth, count, seed) == want

    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from((C, D, S)), st.integers(0, 12))
    def test_stage_matches_level_by_level_build(self, s, depth):
        assert realize(s, depth) == oracle.realize(s, depth)

    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from((C, D, S)), st.integers(0, 12))
    def test_endpoint_by_address_matches_pool(self, s, depth):
        pool = oracle.stage_endpoints(s, depth)
        n = len(pool)
        for k in range(-n, n):
            x = sets.stage_endpoint(s, depth, k)
            assert x == pool[k], k
            assert member(s, x), k


class TestSvcHelpers:
    def test_realization_csv(self, tmp_path):
        import csv

        path = tmp_path / "svc1.csv"
        sets.dump_realization_csv(path, S, 1)
        with open(path) as fh:
            rows = list(csv.reader(fh))
        assert rows == [
            ["depth", "lo", "hi"],
            ["1", "0/1", "3/8"],
            ["1", "5/8", "1/1"],
        ]

    def test_stage_interval_walk(self):
        iv = svc_stage_interval(F(0), 2)
        assert iv == Iv(0, F(5, 32))

    def test_stage_interval_rejects_gap_points(self):
        with pytest.raises(DomainError):
            svc_stage_interval(F(1, 2), 3)

    def test_endpoint_sample_members(self):
        xs = endpoint_sample(S, 6, 10, seed=4)
        assert len(xs) == 10
        assert all(member(S, x) for x in xs)


def _in_cantor_stage(x, n):
    """Independent branch walk: follow x through n rounds of third-removal."""
    lo, hi = F(0), F(1)
    for _ in range(n):
        w = (hi - lo) / 3
        if lo <= x <= lo + w:
            hi = lo + w
        elif hi - w <= x <= hi:
            lo = hi - w
        else:
            return False
    return True


def _in_svc_stage(x, n):
    """Independent branch walk through n rounds of centered removal."""
    lo, hi = F(0), F(1)
    for step in range(1, n + 1):
        m = (lo + hi) / 2
        half = F(1, 4**step) / 2
        if lo <= x <= m - half:
            hi = m - half
        elif m + half <= x <= hi:
            lo = m + half
        else:
            return False
    return True


class TestStageMembershipDeep:
    def test_depth_forty_spot_check(self):
        # the exact queries must agree with a plain 40-step branch walk,
        # far past any depth where stages can be materialized; this also
        # exercises the dyadic member shortcut against brute descent
        rng = random.Random(17)
        for s, walker in ((C, _in_cantor_stage), (S, _in_svc_stage)):
            for _ in range(80):
                k = rng.randint(1, 12)
                x = F(rng.randrange(0, 2**k + 1), 2**k)
                is_mem = member(s, x)
                depth = None if is_mem else complement_component(s, x).depth_created
                for n in (1, 7, 20, 40):
                    expect = is_mem or depth > n
                    assert walker(x, n) == expect


_ARITHMETIC = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
               "__truediv__", "__rtruediv__", "__floordiv__", "__mod__", "__pow__",
               "__neg__", "__abs__")


class TestWorkCounts:
    """Fraction work of one ternary walk, on a cold memo, and of one
    memoised query: the walks run on integer remainders."""

    @pytest.fixture
    def counts(self, monkeypatch):
        counts = dict.fromkeys(("__hash__",) + _ARITHMETIC, 0)
        for name in counts:
            monkeypatch.setattr(F, name, _counted(getattr(F, name), counts, name))
        sets._locate_default.cache_clear()
        funcs._cantor_value.cache_clear()
        yield counts
        monkeypatch.undo()
        sets._locate_default.cache_clear()
        funcs._cantor_value.cache_clear()

    @staticmethod
    def _arithmetic(counts):
        return sum(counts[name] for name in _ARITHMETIC)

    @pytest.mark.parametrize("x, found", [
        (F(1, 4), ("member", None)),  # 0.020202..._3, a periodic member
        (F(1, 2), ("gap", (F(1, 3), F(2, 3), 1))),
    ])
    def test_locator_walk(self, counts, x, found):
        assert sets._cantor_classify(x.numerator, x.denominator) == found
        assert counts["__hash__"] == 0
        assert self._arithmetic(counts) == 0

    @pytest.mark.parametrize("x, value", [(F(1, 4), F(1, 3)), (F(1, 2), F(1, 2))])
    def test_cantor_fn_walk(self, counts, x, value):
        # the memo is keyed on (numerator, denominator) and the walk hashes
        # nothing; the value is built from integers, with no Fraction
        # arithmetic at all
        assert funcs.cantor_fn(x) == value
        assert counts["__hash__"] == 0
        assert self._arithmetic(counts) == 0

    def test_memoised_member_hashes_the_point_only(self, counts):
        # the memo key is (kind, numerator, denominator, cap): neither the
        # base interval, which the kind fixes, nor the point is hashed as a
        # Fraction on each lookup
        x = F(1, 4)
        assert member(C, x)
        counts["__hash__"] = 0
        assert member(C, x)
        assert counts["__hash__"] == 0
