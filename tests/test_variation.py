"""Variation criteria, gauge constructors, adversarial search, estimators."""

import random
from fractions import Fraction as F

import pytest

from gaugekit import (
    Iv,
    constant_gauge,
    cousin_partition,
    is_subordinate,
    merge_partitions,
    min_gauge,
    sets,
    validate_partition,
)
from gaugekit.errors import UnsupportedInstanceError
from gaugekit.funcs import lookup
from gaugekit.variation import (
    GreedySign,
    PerCell,
    SplitAt,
    adversarial_variation,
    dini_upper_estimate,
    gauge_dist_complement,
    gauge_from_dini,
    gauge_from_zero_derivative,
    image_measure_bound,
    subinterval_ncv_scan,
    test_negligible_variation,
    variation_sums,
)

C = sets.ternary_cantor()
D = sets.reflected_cantor()
S = sets.svc()
CAB = lookup("cantor_abs")
CFN = lookup("cantor")
SQ = lookup("square")
IDENT = lookup("identity")


class TestVariationSums:
    def test_empty_set(self):
        p = cousin_partition(Iv(0, 1), constant_gauge(F(1, 3)))
        a, s = variation_sums(IDENT, p, None)
        assert a.value == 0 and s.value == 0

    def test_cantor_abs_signed_zero_under_dist_gauge(self):
        dd = gauge_dist_complement(D)
        for seed in range(6):
            p = cousin_partition(Iv(-1, 1), dd, rng=random.Random(seed))
            a, s = variation_sums(CAB, p, D)
            assert s.value == 0 and s.exact

    def test_merged_halves_absolute_sum_two(self):
        dd = gauge_dist_complement(D)
        left = cousin_partition(Iv(-1, 0), dd)
        right = cousin_partition(Iv(0, 1), dd)
        p = merge_partitions([left, right])
        a, s = variation_sums(CAB, p, D)
        assert a.value == 2 and a.exact

    def test_signed_never_exceeds_absolute(self):
        dd = gauge_dist_complement(D)
        rng = random.Random(3)
        for _ in range(8):
            p = cousin_partition(Iv(-1, 1), dd, rng=rng)
            a, s = variation_sums(CAB, p, D)
            assert s.value <= a.value

    def test_subset_monotonicity(self):
        dd = gauge_dist_complement(D)
        p = cousin_partition(Iv(-1, 1), dd, rng=random.Random(5))
        d_left = lambda x: sets.member(D, x) and x <= 0
        a_small, _ = variation_sums(CAB, p, d_left)
        a_big, _ = variation_sums(CAB, p, D)
        assert a_small.value <= a_big.value


class TestDistComplementGauge:
    def test_radii(self):
        dd = gauge_dist_complement(D)
        assert dd.radius_at(F(0)) == 1
        assert dd.radius_at(F(1, 2)) == F(1, 6)

    def test_suggestions_enter_the_set(self):
        dd = gauge_dist_complement(D)
        iv = Iv(F(3, 10), F(2, 5))
        cands = dd.suggestions(iv)
        assert cands
        for c in cands:
            assert c in iv and sets.member(D, c)


class TestZeroDerivativeGauge:
    def test_square_radius_matches_hand_computation(self):
        g = gauge_from_zero_derivative(SQ, (F(0),), F(1, 10))
        assert g.radius_at(F(0)) == F(1, 20)
        assert g.radius_at(F(1, 2)) == 1

    def test_square_tagged_sums_below_eps(self):
        for eps in (F(1, 10), F(1, 100)):
            g = gauge_from_zero_derivative(SQ, (F(0),), eps)
            for seed in range(4):
                p = cousin_partition(Iv(-1, 1), g, rng=random.Random(seed))
                a, _ = variation_sums(SQ, p, (F(0),))
                assert a.value < eps

    def test_constant_function_trivial(self):
        one = lookup("one")
        g = gauge_from_zero_derivative(one, (F(0), F(1, 2)), F(1, 10))
        p = cousin_partition(Iv(-2, 2), g)
        a, _ = variation_sums(one, p, (F(0), F(1, 2)))
        assert a.value == 0

    def test_cantor_abs_component_sums_zero(self):
        # one complement component of the reflected set as the target set
        comp = sets.complement_component(D, F(1, 2)).interval  # (1/3, 2/3)
        pts = (comp.midpoint,)
        g = gauge_from_zero_derivative(CAB, pts, F(1, 10))
        p = cousin_partition(Iv(-1, 1), g)
        a, _ = variation_sums(CAB, p, pts)
        assert a.value == 0

    def test_missing_modulus_is_unsupported(self):
        g = lookup("svc_dist")
        with pytest.raises(UnsupportedInstanceError):
            gauge_from_zero_derivative(g, (F(1, 4),), F(1, 10))

    def test_nonzero_derivative_point_rejected(self):
        with pytest.raises(UnsupportedInstanceError):
            gauge_from_zero_derivative(SQ, (F(1, 2),), F(1, 10))

    def test_convention_point_rejected(self):
        # the reflected-set points have no true derivative, only the
        # almost-everywhere convention; the construction must refuse them
        with pytest.raises(UnsupportedInstanceError):
            gauge_from_zero_derivative(CAB, (F(0),), F(1, 10))


def fattened_cantor_cover(depth, pad):
    return tuple(
        Iv(c.lo - pad, c.hi + pad) for c in sets.realize(C, depth)
    )


class TestDiniGauge:
    def test_identity_over_cantor_set(self):
        eps = F(1, 2)
        # identity sits in band 1: cover measure must stay below eps/12
        cover = fattened_cantor_cover(10, F(1, 3**12))
        g = gauge_from_dini(IDENT, C, {1: cover}, eps)
        p = cousin_partition(Iv(0, 1), g)
        assert is_subordinate(p, g)
        a, _ = variation_sums(IDENT, p, C)
        assert a.value <= eps

    def test_finite_singleton(self):
        eps = F(1, 10)
        cover = (Iv(F(1, 2) - F(1, 400), F(1, 2) + F(1, 400)),)
        g = gauge_from_dini(SQ, (F(1, 2),), {1: cover}, eps)
        p = cousin_partition(Iv(-1, 1), g)
        a, _ = variation_sums(SQ, p, (F(1, 2),))
        assert a.value <= eps

    def test_cantor_fn_off_set_is_flat(self):
        eps = F(1, 10)
        pts = (F(1, 2), F(5, 12))
        cover = tuple(Iv(p - F(1, 500), p + F(1, 500)) for p in pts)
        g = gauge_from_dini(CFN, pts, {0: cover}, eps)
        p = cousin_partition(Iv(0, 1), g)
        a, _ = variation_sums(CFN, p, pts)
        assert a.value == 0

    def test_oversized_cover_rejected(self):
        eps = F(1, 10)
        cover = (Iv(0, F(1, 2)),)  # measure 1/2 >= eps/12
        with pytest.raises(UnsupportedInstanceError):
            gauge_from_dini(IDENT, C, {1: cover}, eps)

    def test_finite_point_outside_cover_rejected_eagerly(self):
        eps = F(1, 10)
        cover = (Iv(F(1, 4), F(1, 4) + F(1, 1000)),)  # misses 1/2
        with pytest.raises(UnsupportedInstanceError):
            gauge_from_dini(SQ, (F(1, 2),), {1: cover}, eps)


class TestNegligibleVariationSampling:
    def test_cantor_abs_ncv_evidence_on_full_domain(self):
        rep = test_negligible_variation(
            CAB,
            D,
            lambda eps: gauge_dist_complement(D),
            [F(1, 10), F(1, 1000)],
            samples=6,
            seed=0,
            domain=Iv(-1, 1),
            set_name="D",
        )
        assert rep.verdict == "NCV-only-evidence"
        assert all(r.max_signed.value == 0 for r in rep.rows)
        assert not rep.nv_all  # absolute sums reach 2 on these partitions

    def test_cantor_abs_refuted_on_right_half(self):
        rep = test_negligible_variation(
            CAB,
            lambda x: sets.member(D, x) and 0 <= x <= 1,
            lambda eps: gauge_dist_complement(D),
            [F(1, 10)],
            samples=4,
            seed=1,
            domain=Iv(0, 1),
            set_name="D∩[0,1]",
        )
        assert rep.verdict == "refuted"
        assert rep.witness is not None
        assert rep.witness.signed_sum.value == 1

    def test_zero_derivative_gauge_gives_nv_evidence(self):
        rep = test_negligible_variation(
            SQ,
            (F(0),),
            lambda eps: gauge_from_zero_derivative(SQ, (F(0),), eps),
            [F(1, 10), F(1, 100), F(1, 1000)],
            samples=4,
            seed=2,
            domain=Iv(-1, 1),
        )
        assert rep.verdict == "NV-evidence"


class TestAdversarial:
    def test_split_at_zero_reaches_two_exactly(self):
        dd = gauge_dist_complement(D)
        for caller in (
            constant_gauge(1),
            constant_gauge(F(1, 3)),
            constant_gauge(F(1, 17)),
        ):
            g = min_gauge(dd, caller)
            res = adversarial_variation(CAB, D, g, SplitAt(F(0)), domain=Iv(-1, 1))
            assert res.best_abs.value == 2 and res.best_abs.exact
            assert is_subordinate(res.witness, g)
            assert validate_partition(res.witness).ok

    def test_constant_function_stays_zero(self):
        one = lookup("one")
        res = adversarial_variation(
            one, D, constant_gauge(F(1, 2)), GreedySign(), domain=Iv(-1, 1)
        )
        assert res.best_abs.value == 0

    def test_cantor_plateau_split_telescopes_to_one(self):
        dc = gauge_dist_complement(C)
        g = min_gauge(dc, constant_gauge(1))
        cuts = (F(1, 9), F(2, 9), F(1, 3), F(2, 3), F(7, 9), F(8, 9))
        res = adversarial_variation(CFN, C, g, SplitAt(*cuts), domain=Iv(0, 1))
        assert res.best_abs.value == 1 and res.best_abs.exact

    def test_greedy_sign_on_right_half(self):
        dd = gauge_dist_complement(D)
        res = adversarial_variation(CAB, D, dd, GreedySign(), seed=3, domain=Iv(0, 1))
        assert res.best_abs.value == 1
        assert is_subordinate(res.witness, dd)

    def test_per_cell_keeps_subordination(self):
        dd = gauge_dist_complement(D)
        res = adversarial_variation(CAB, D, dd, PerCell(), seed=4, domain=Iv(-1, 1))
        assert is_subordinate(res.witness, dd)
        assert validate_partition(res.witness).ok


class TestStrategyErrors:
    def test_unknown_strategy(self):
        with pytest.raises(ValueError):
            adversarial_variation(
                CAB, D, gauge_dist_complement(D), "bogus", domain=Iv(-1, 1)
            )


class TestSubintervalScan:
    def test_example_grid(self):
        rep = subinterval_ncv_scan(
            CAB,
            D,
            lambda eps: gauge_dist_complement(D),
            [Iv(-1, 0), Iv(0, 1), Iv(-1, 1)],
            [F(1, 10)],
            samples=4,
            seed=0,
            set_name="D",
        )
        verdicts = {str(iv): r.verdict for iv, r in rep.cells}
        assert verdicts["[-1,1]"] == "NCV-only-evidence"
        assert verdicts["[0,1]"] == "refuted"
        assert verdicts["[-1,0]"] == "refuted"
        assert rep.nv_refuted

    def test_empty_set_all_pass(self):
        rep = subinterval_ncv_scan(
            IDENT,
            None,
            lambda eps: constant_gauge(1),
            [Iv(-1, 0), Iv(0, 1)],
            [F(1, 10)],
            samples=2,
            seed=1,
        )
        assert not rep.nv_refuted
        assert all(r.verdict == "NV-evidence" for _, r in rep.cells)

    def test_nv_gauge_passes_everywhere(self):
        builder = lambda eps: gauge_from_zero_derivative(SQ, (F(0),), eps)
        rep = subinterval_ncv_scan(
            SQ,
            (F(0),),
            builder,
            [Iv(-1, 0), Iv(0, 1), Iv(-1, 1)],
            [F(1, 10), F(1, 100)],
            samples=3,
            seed=2,
        )
        assert not rep.nv_refuted

    def test_adversarial_witness_matches_scan_refutation(self):
        # a conclusive witness inside [0,1] must show up as a refuted cell
        dd = gauge_dist_complement(D)
        res = adversarial_variation(CAB, D, dd, SplitAt(F(0)), domain=Iv(-1, 1))
        right_half = [
            (t, c) for t, c in res.witness.items if c.lo >= 0 and sets.member(D, t)
        ]
        assert sum(
            (abs(CAB(c.hi).value - CAB(c.lo).value) for _, c in right_half), F(0)
        ) >= 1
        rep = subinterval_ncv_scan(
            CAB, D, lambda eps: gauge_dist_complement(D),
            [Iv(0, 1)], [F(1, 2)], samples=3, seed=5, set_name="D",
        )
        assert rep.nv_refuted


class TestDiniEstimate:
    def test_constant_is_zero(self):
        est = dini_upper_estimate(lookup("one"), F(1, 2), [F(1, 4), F(1, 16)])
        assert est.value.value == 0

    def test_square_difference_quotients(self):
        grid = [F(1, 2**k) for k in range(1, 7)]
        est = dini_upper_estimate(SQ, F(1), grid)
        # only the left steps stay inside the domain: |1 - (1-h)^2|/h = 2 - h
        assert est.value.value == 2 - F(1, 64)
        assert est.skipped == ()

    def test_svc_composition_blowup(self):
        fog = lookup("quartic_svc_dist")
        stage = sets.svc_stage_interval(F(0), 2)
        h = stage.midpoint  # distance from 0 to the step-3 gap center
        est = dini_upper_estimate(fog, F(0), [h])
        bound = 2 ** F(1, 4)
        assert float(est.value.value) - float(est.value.err) > float(bound)


class TestImageMeasureBound:
    def test_constant_zero(self):
        assert image_measure_bound(lookup("one"), C, 0) == 0

    def test_cantor_image_is_everything(self):
        for depth in (0, 2, 4, 6):
            assert image_measure_bound(CFN, C, depth) == 1

    def test_zero_derivative_point_shrinks(self):
        prev = None
        for depth in (0, 2, 4, 8):
            b = image_measure_bound(SQ, (F(0),), depth)
            if prev is not None:
                assert b < prev
            prev = b
        assert prev == F(1, 2**9) ** 2

    def test_missing_certificate(self):
        with pytest.raises(UnsupportedInstanceError):
            image_measure_bound(lookup("svc_dist"), C, 2)


class TestOneShotInputs:
    """A set E or a schedule given as a one-shot iterable (a generator) is
    read once per call, so it gives the report of the list it yields."""

    def test_generator_set_gives_the_list_report(self):
        f = lookup("linear")
        points = [F(k, 64) for k in range(65)]
        sched = (F(1, 10), F(1, 10))

        def run(E):
            return test_negligible_variation(
                f, E, lambda eps: constant_gauge(F(1, 8)), sched, seed=3,
                domain=Iv(0, 1),
            ).payload()

        listed = run(points)
        assert [r["max_abs_sum"]["value"] for r in listed["rows"]] == ["1/1", "1/1"]
        assert run(p for p in points) == listed

    def test_generator_schedule_gives_the_tuple_report(self):
        grid = [Iv(-1, 0), Iv(0, 1)]
        sched = (F(1, 10), F(1, 100))

        def run(schedule):
            return subinterval_ncv_scan(
                CAB, D, lambda eps: gauge_dist_complement(D), grid, schedule,
                samples=2, seed=0, set_name="D",
            ).payload()

        assert run(e for e in sched) == run(sched)
