"""FTC / substitution verdicts and the composition counterexample."""

from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gaugekit import Iv, core, cov, sets
from gaugekit._record import replace
from gaugekit.core import Gauge, Item, TaggedPartition, ValueWithError, cousin_partition
from gaugekit.cov import (
    cov_check,
    cov_scan_all_subintervals,
    ftc_check,
    ftc_instance,
    instances,
    integrand_with_convention,
    lookup_instance,
    proof_gauge,
    svc_composition_check,
)
from gaugekit.errors import DomainError
from gaugekit.funcs import EMPTY_FAILURE, FnSpec, identity_fn, lookup

SCHED = (F(1, 10), F(1, 100))


class TestFtc:
    def test_square_holds(self):
        rep = ftc_check(lookup("square"), Iv(0, 1), SCHED, samples=4, seed=0)
        assert rep.holds
        assert rep.lhs.value == 1
        assert rep.consistent

    def test_cantor_fails_with_zero_sums(self):
        rep = ftc_check(lookup("cantor"), schedule=SCHED, samples=4, seed=1)
        assert not rep.holds
        assert rep.lhs.value == 1
        for row in rep.rows:
            assert all(s.value == 0 and s.exact for s in row.sums)
        assert rep.consistent

    def test_cantor_abs_holds_exactly(self):
        rep = ftc_check(lookup("cantor_abs"), schedule=SCHED, samples=4, seed=2)
        assert rep.holds
        assert rep.lhs.value == 0
        for row in rep.rows:
            assert all(s.value == 0 and s.exact for s in row.sums)
        assert rep.consistent

    def test_identity_smooth(self):
        rep = ftc_check(lookup("identity"), Iv(0, 1), SCHED, samples=3, seed=3)
        assert rep.holds and rep.lhs.value == 1


class TestCovCheck:
    def test_identity_instance(self):
        rep = cov_check(lookup_instance("identity-sub"), schedule=SCHED, samples=3, seed=0)
        assert rep.holds and rep.lhs.value == 1 and rep.consistent

    def test_square_substitution(self):
        rep = cov_check(lookup_instance("square-sub"), schedule=SCHED, samples=4, seed=1)
        assert rep.holds
        assert rep.lhs.value == 1  # g(1) - g(0)
        assert rep.consistent

    def test_cantor_abs_full_domain_holds(self):
        inst = lookup_instance("cantorabs-unit")
        rep = cov_check(inst, Iv(-1, 1), SCHED, samples=4, seed=2)
        assert rep.holds
        assert rep.lhs.value == 0
        assert rep.consistent

    def test_cantor_abs_right_half_fails(self):
        inst = lookup_instance("cantorabs-unit")
        rep = cov_check(inst, Iv(0, 1), SCHED, samples=4, seed=3)
        assert not rep.holds
        assert rep.lhs.value == 1
        for row in rep.rows:
            assert all(s.value == 0 for s in row.sums)
        assert rep.consistent
        assert rep.witness is not None

    def test_interval_outside_domain(self):
        with pytest.raises(DomainError):
            cov_check(lookup_instance("square-sub"), Iv(0, 2))

    def test_sampled_lhs_matches_closed_form(self):
        # same instance with the antiderivative withheld: the left side is
        # estimated by sampling f between the mapped endpoints instead
        closed = lookup_instance("cantorabs-unit")
        sampled = replace(closed, name="cantorabs-sampled", F=None)
        for iv in (Iv(0, 1), Iv(-1, 0), Iv(-1, 1)):
            a = cov_check(closed, iv, SCHED, samples=3, seed=11)
            b = cov_check(sampled, iv, SCHED, samples=3, seed=11)
            assert a.lhs_channel == "closed-form"
            assert b.lhs_channel == "sampled"
            # f is constant 1, so every sampled sum is exact: values agree
            assert b.lhs.value == a.lhs.value and b.lhs.err == 0
            assert b.verdict == a.verdict

    def test_sampled_lhs_orientation(self):
        # on [-1, 0] the mapped endpoints reverse (g(-1)=1 > g(0)=0), so the
        # sampled estimate must come out negated
        inst = replace(lookup_instance("cantorabs-unit"), name="rev", F=None)
        rep = cov_check(inst, Iv(-1, 0), SCHED, samples=3, seed=12)
        assert rep.lhs.value == -1

    def test_depth_cap_reaches_every_channel(self):
        # B = {1/3} with radius 2^-70 there: its cell needs ~70 bisections,
        # past the default cap of 64, in the Riemann and the NCV channel
        from gaugekit import constant_gauge
        from gaugekit.errors import DepthExhaustedError
        from gaugekit.funcs import FiniteFailureSet

        p = F(1, 3)
        base = lookup_instance("identity-sub")
        fog = replace(base.fog, modulus=lambda x, eps: abs(x - p) / 2)
        tiny = constant_gauge(F(1, 2**70))
        inst = replace(
            base, name="deep", B=FiniteFailureSet((p,)), fog=fog,
            ncv_gauge=lambda eps: tiny,
        )
        rep = cov_check(inst, schedule=(F(1, 10),), samples=2, max_depth=80)
        assert rep.verdict == "holds-evidence" and rep.consistent
        assert rep.ncv_report.rows[0].samples == 2
        with pytest.raises(DepthExhaustedError):
            cov_check(inst, schedule=(F(1, 10),), samples=2)
        # the sampled left side honours the cap too: it runs first and its
        # constant gauge of 1/10 needs depth 3 on [0, 1]
        sampled = replace(inst, F=None)
        with pytest.raises(DepthExhaustedError, match=r"const\(1/10\)"):
            cov_check(sampled, schedule=(F(1, 10),), samples=2, max_depth=2)

    def test_scan_passes_its_cap_to_every_check(self, monkeypatch):
        import inspect

        caps = []
        for name in ("cov_check", "test_negligible_variation"):
            inner = getattr(cov, name)

            def spy(*args, _inner=inner, **kwargs):
                bound = inspect.signature(_inner).bind(*args, **kwargs).arguments
                caps.append((_inner.__name__, bound.get("max_depth")))
                return _inner(*args, **kwargs)

            monkeypatch.setattr(cov, name, spy)
        # one cell, then the NV reports on B, on {g'=0} and on one null set
        cov_scan_all_subintervals(lookup_instance("square-sub"), [Iv(0, 1)], (F(1, 10),),
                                  samples=2, max_depth=40)
        assert caps == [("cov_check", 40)] + [("test_negligible_variation", 40)] * 3

    def test_ftc_is_the_f_one_instance(self):
        # same code path, same seed: identical values on both channels
        g = lookup("cantor_abs")
        a = ftc_check(g, Iv(-1, 1), SCHED, samples=3, seed=7)
        b = cov_check(ftc_instance(g), Iv(-1, 1), SCHED, samples=3, seed=7)
        assert a.lhs.value == b.lhs.value
        for ra, rb in zip(a.rows, b.rows):
            assert [s.value for s in ra.sums] == [s.value for s in rb.sums]

    def test_sum_invariant_under_h_values_on_failure_set(self):
        # tags on the failure set contribute 0 whichever way h is written
        inst = lookup_instance("cantorabs-unit")
        fgh = integrand_with_convention(inst)
        conv = lookup("cantor_abs_deriv")  # g' with the 0 convention
        from gaugekit import constant_gauge, cousin_partition, min_gauge, riemann_sum
        from gaugekit.variation import gauge_dist_complement

        g = min_gauge(
            gauge_dist_complement(sets.reflected_cantor()), constant_gauge(F(1, 5))
        )
        import random

        for seed in range(3):
            p = cousin_partition(Iv(-1, 1), g, rng=random.Random(seed))
            assert riemann_sum(fgh, p).value == riemann_sum(conv, p).value


class TestScan:
    def test_cantor_abs_grid(self):
        inst = lookup_instance("cantorabs-unit")
        rep = cov_scan_all_subintervals(
            inst, [Iv(-1, 0), Iv(0, 1), Iv(-1, 1)], SCHED, samples=3, seed=0
        )
        verdicts = {str(iv): r.verdict for iv, r in rep.cells}
        assert verdicts["[-1,1]"] == "holds-evidence"
        assert verdicts["[0,1]"] == "refuted"
        assert rep.nv_refuted
        assert rep.equivcond_consistent

    def test_square_all_hold(self):
        inst = lookup_instance("square-sub")
        rep = cov_scan_all_subintervals(inst, None, SCHED, samples=3, seed=1)
        assert all(r.verdict == "holds-evidence" for _, r in rep.cells)
        assert not rep.nv_refuted
        assert rep.nv_on_b.nv_all
        assert rep.equivcond_consistent

    def test_cantor_instance_refuted_everywhere(self):
        inst = lookup_instance("cantor-unit")
        rep = cov_scan_all_subintervals(
            inst, [Iv(0, 1), Iv(0, F(1, 2))], SCHED, samples=3, seed=2
        )
        assert rep.nv_refuted
        assert rep.equivcond_consistent


class TestSvcComposition:
    def test_remark_bound_small_n(self):
        chk = svc_composition_check(2, F(0))
        assert chk.ok
        assert chk.gap_half == F(1, 2**7)
        low = float(chk.quotient.value) - float(chk.quotient.err)
        high = float(chk.bound.value) + float(chk.bound.err)
        assert low > high > 1.18

    def test_depth_ten_exceeds_threshold(self):
        x = sets.endpoint_sample(sets.svc(), 12, 1, seed=0)[0]
        chk = svc_composition_check(10, x)
        assert chk.ok
        assert float(chk.quotient.value) - float(chk.quotient.err) > 18.38

    def test_bound_growth_ratio_is_sqrt_two(self):
        prev = None
        for n in range(2, 9):
            chk = svc_composition_check(n, F(0))
            b = chk.bound
            if prev is not None:
                ratio = float(b.value) / float(prev.value)
                assert abs(ratio**2 - 2.0) < 1e-6
            prev = b

    def test_qualifying_gap_is_certified(self):
        # |y - x| < 2^-n is the exact form of the quotient inequality
        for n in (2, 5, 9):
            for x in sets.endpoint_sample(sets.svc(), 11, 5, seed=n):
                chk = svc_composition_check(n, x)
                assert abs(chk.y - chk.x) < F(1, 2**n)
                assert chk.ok

    def test_bad_step_count(self):
        import pytest as _pytest

        with _pytest.raises(ValueError):
            svc_composition_check(0, F(0))

    def test_non_member_rejected(self):
        with pytest.raises(DomainError):
            svc_composition_check(3, F(1, 2))


class TestChannelConsistency:
    def test_every_registry_instance_is_consistent(self):
        for k, name in enumerate(instances()):
            inst = lookup_instance(name)
            rep = cov_check(inst, schedule=SCHED, samples=3, seed=30 + k)
            assert rep.consistent, name
            expected = inst.expected_for(inst.domain)
            got = "holds" if rep.holds else "fails"
            assert got == expected, name


class TestNcvChannelOnEmptyB:
    def test_ncv_channel_evaluates_nothing(self, monkeypatch):
        # on ftc --fn square's instance B is empty and the Riemann channel's
        # tree is closed: the NCV channel replays that tree for free, so it
        # neither evaluates F∘g nor asks the gauge for a radius
        radius_calls = []
        radius_at = Gauge.radius_at
        monkeypatch.setattr(Gauge, "radius_at",
                            lambda self, x: radius_calls.append(x) or radius_at(self, x))
        inst = ftc_instance(lookup("square"))
        domain = Iv(-1, 1)
        build_calls = 0
        for eps in SCHED:
            cousin_partition(domain, proof_gauge(inst, eps))
            build_calls += len(radius_calls)
            radius_calls.clear()
        channel = []
        row = cov._variation_row

        def counted_row(f, *args):
            fog_calls = []
            before = len(radius_calls)
            out = row(lambda x: fog_calls.append(x) or f(x), *args)
            channel.append((len(fog_calls), len(radius_calls) - before))
            return out

        monkeypatch.setattr(cov, "_variation_row", counted_row)
        rep = cov_check(inst, domain, SCHED, samples=5, seed=5)
        assert rep.holds and rep.consistent
        assert channel == [(0, 0)] * len(SCHED)
        assert len(radius_calls) == build_calls


class TestRegistry:
    def test_known_instances(self):
        known = instances()
        for name in ("square-sub", "identity-sub", "cantorabs-unit", "cantor-unit"):
            assert name in known

    def test_expected_metadata(self):
        inst = lookup_instance("cantorabs-unit")
        assert inst.expected_for(Iv(-1, 1)) == "holds"
        assert inst.expected_for(Iv(0, 1)) == "fails"
        assert inst.expected_for(Iv(0, F(1, 2))) is None


class TestOneShotSchedule:
    """A schedule given as a generator is read once per call: every grid
    cell, both sides of a sampled check and every set see all of it."""

    def test_sampled_check_reads_the_whole_schedule(self):
        inst = replace(lookup_instance("cantorabs-unit"), name="s", F=None)
        new = cov_check(inst, Iv(0, 1), (e for e in SCHED), samples=2, seed=5)
        assert new.payload() == cov_check(inst, Iv(0, 1), SCHED, samples=2, seed=5).payload()
        assert len(new.rows) == len(SCHED)

    def test_scan_reads_the_whole_schedule(self):
        inst = lookup_instance("square-sub")
        grid = [Iv(0, F(1, 2)), Iv(F(1, 2), 1)]
        new = cov_scan_all_subintervals(inst, grid, (e for e in SCHED), samples=2, seed=1)
        old = cov_scan_all_subintervals(inst, grid, SCHED, samples=2, seed=1)
        assert new.payload() == old.payload()
        assert all(len(rep.rows) == len(SCHED) for _, rep in new.cells)


rationals = st.builds(F, st.integers(-40, 40), st.integers(1, 12))
errors = st.builds(F, st.integers(0, 40), st.integers(1, 12))


class TestProductError:
    """f ≡ a ± e_a and g' ≡ b ± e_b, g the identity on [0, 1]: the bound of
    the integrand must enclose the products at every corner of the boxes."""

    @settings(max_examples=200, deadline=None)
    @example(F(1), F(1, 2), F(1), F(1, 2))  # reports err 1; (3/2)² is 5/4 away
    @given(rationals, errors, rationals, errors)
    def test_bound_encloses_every_corner(self, a, ea, b, eb):
        unit = Iv(0, 1)
        g = replace(identity_fn(unit), deriv=lambda x: ValueWithError(b, eb))
        f = FnSpec(name="blurred", domain=unit, eval=lambda u: ValueWithError(a, ea))
        inst = cov.CovInstance(name="blurred-product", f=f, F=None, g=g, domain=unit,
                               B=EMPTY_FAILURE, fog=g, ncv_gauge=lambda eps: None)
        x = F(1, 2)
        v = integrand_with_convention(inst)(x)
        for u in (a - ea, a + ea):
            for w in (b - eb, b + eb):
                assert abs(u * w - v.value) <= v.err
        # the Riemann channel of cov_check folds the same product
        part = TaggedPartition((Item(x, unit),), unit)
        assert next(core._product_sums(cov._integrand(inst)[1], (part,)))[1] == v
