"""The one point-set coercion against the per-form ladders it replaced.

``reference_as_member`` and ``reference_suggester_for`` are the membership
and tag-suggestion normalizations as they stood before ``funcs.point_set``,
and the two reference gauge constructors are the old ones built on them.
Every accepted form of a set must give the same membership answers (errors
and their bounds included) and the same suggestions, with no suggester
standing for no suggestions; the gauges built over plain tuples must give
the same radii and suggestions.
"""

from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gaugekit import sets, variation
from gaugekit.core import Gauge, Iv, rat_str
from gaugekit.errors import UndecidedError, UnsupportedInstanceError
from gaugekit.funcs import (
    EMPTY_FAILURE,
    EmptyFailureSet,
    FailureSet,
    FiniteFailureSet,
    GeneratedFailureSet,
    PredicateFailureSet,
    UnionFailureSet,
    lookup,
    nearest_set_points,
    point_set,
)
from gaugekit.variation import (
    gauge_from_dini,
    gauge_from_zero_derivative,
    image_measure_bound,
)

ONE = F(1)
GENERATED = (sets.ternary_cantor(), sets.reflected_cantor(), sets.svc())
SQ = lookup("square")
IDENT = lookup("identity")
C = sets.ternary_cantor()


# ---------------------------------------------------------------------------
# reference: the normalizations and gauge constructors before point_set
# ---------------------------------------------------------------------------


def reference_as_member(E):
    if E is None:
        return lambda x: False
    if isinstance(E, sets.GeneratedSet):
        return lambda x: x in E.base and sets.member(E, x)
    if isinstance(E, FailureSet):
        return lambda x: x in E
    if callable(E):
        return E
    pts = frozenset(F(p) for p in E)
    return lambda x: x in pts


def reference_suggester_for(E):
    if isinstance(E, sets.GeneratedSet):
        return lambda iv: nearest_set_points(E, iv)
    if isinstance(E, FailureSet):
        return E.suggestion_points
    if E is not None and not callable(E):
        pts = tuple(sorted(F(p) for p in E))

        def suggest(iv):
            return tuple(p for p in pts if p in iv)

        return suggest
    return None


def reference_gauge_from_zero_derivative(f, D, eps):
    eps = F(eps)
    if f.modulus is None:
        raise UnsupportedInstanceError("no modulus")
    if D is not None and not callable(D) and not isinstance(
        D, (sets.GeneratedSet, FailureSet)
    ):
        for d in D:
            v = f.deriv_at(F(d))
            if v.convention or v.value != 0:
                raise UnsupportedInstanceError(f"not certified zero at {d}")
    member = reference_as_member(D)

    def radius(x):
        x = F(x)
        if member(x):
            return f.modulus(x, eps)
        return ONE

    return Gauge(radius=radius, suggest_tag=reference_suggester_for(D),
                 name=f"zero_deriv({f.name},eps={rat_str(eps)})")


def _reference_merged(cover):
    out = []
    for c in sorted(cover, key=lambda c: (c.lo, c.hi)):
        if out and c.lo < out[-1].hi:
            out[-1] = Iv(out[-1].lo, max(out[-1].hi, c.hi))
        else:
            out.append(c)
    return tuple(out)


def _reference_interval_of_cover(cover, x):
    for c in _reference_merged(cover):
        if c.lo < x < c.hi:
            return c
    return None


def reference_gauge_from_dini(f, Z, covers, eps):
    """The old constructor for finite Z (tuples); generated Z not covered."""
    eps = F(eps)
    member = reference_as_member(Z)
    merged = {n: _reference_merged(cv) for n, cv in covers.items()}
    for n, cv in merged.items():
        bound = eps / (2 ** (n + 1) * (n + 2))
        if sum((c.length for c in _reference_merged(cv)), F(0)) >= bound:
            raise UnsupportedInstanceError("cover too large")
    for z in Z:
        z = F(z)
        n = f.dini_band(z)
        if n not in merged or _reference_interval_of_cover(merged[n], z) is None:
            raise UnsupportedInstanceError(f"band {n} cover does not contain {z}")

    def radius(x):
        x = F(x)
        if not member(x):
            return ONE
        n = f.dini_band(x)
        if n not in merged:
            raise UnsupportedInstanceError(f"no cover supplied for band {n}")
        c = _reference_interval_of_cover(merged[n], x)
        if c is None:
            raise UnsupportedInstanceError(f"band {n} cover does not contain {x}")
        return min(f.dini_eta1(x), x - c.lo, c.hi - x)

    return Gauge(radius=radius, suggest_tag=reference_suggester_for(Z),
                 name=f"dini({f.name},eps={rat_str(eps)})")


# ---------------------------------------------------------------------------
# strategies
# ---------------------------------------------------------------------------

dyadics = st.builds(lambda n, k: F(n, 2**k), st.integers(-80, 80), st.integers(0, 6))
general = st.builds(F, st.integers(-40, 40), st.integers(1, 45))
stage_points = st.builds(
    lambda s, d, k, off: sorted(
        {p for c in sets.realize(s, d) for p in (c.lo, c.hi)}
    )[k % 2 ** (d + 1)] + off,
    st.sampled_from(GENERATED),
    st.integers(0, 4),
    st.integers(0, 31),
    st.sampled_from((F(0), F(1, 1000), -F(1, 729), F(1, 3))),
)
# inside and outside every hull: the hulls are [0, 1] and [-1, 1]
points = st.one_of(dyadics, general, stage_points).filter(lambda x: -2 <= x <= 2)


@st.composite
def intervals(draw):
    a, b = draw(points), draw(points)
    return Iv(min(a, b), max(a, b))


def _third_denominator(x):
    return x.denominator % 3 == 0


class _HalfOpenBall:
    """A callable object, not a function: still a predicate set."""

    def __call__(self, x):
        return abs(x) < F(1, 2)


@st.composite
def finite_points(draw):
    pts = draw(st.lists(points, max_size=5))
    dups = draw(st.lists(st.sampled_from(pts), max_size=3)) if pts else []
    return pts + dups


@st.composite
def set_forms(draw):
    """A set in one of the five accepted forms, descriptors of every kind."""
    g = draw(st.sampled_from(GENERATED))
    pts = draw(finite_points())
    pred = draw(st.sampled_from((_third_denominator, _HalfOpenBall(),
                                 lambda x: x in Iv(0, F(1, 4)))))
    return draw(st.sampled_from((
        g,
        GeneratedFailureSet(g),
        None,
        EMPTY_FAILURE,
        EmptyFailureSet(),
        tuple(pts),
        list(pts),
        frozenset(pts),
        FiniteFailureSet(pts),
        pred,
        PredicateFailureSet(pred, "pred"),
        PredicateFailureSet(pred, "pred", suggest=FiniteFailureSet(pts).suggestion_points),
        UnionFailureSet(GeneratedFailureSet(g), FiniteFailureSet(pts)),
    )))


@st.composite
def dini_cases(draw):
    """A finite Z and band covers of small open intervals, some around Z."""
    pts = draw(st.lists(points, max_size=4))
    covers = {}
    for n in draw(st.sets(st.integers(0, 2), max_size=3)):
        covers[n] = []
        for _ in range(draw(st.integers(1, 4))):
            near_z = pts and draw(st.booleans())
            c = draw(st.sampled_from(pts) if near_z else points)
            lo, hi = draw(st.integers(0, 8)), draw(st.integers(0, 8))
            covers[n].append(Iv(c - F(lo, 2048), c + F(hi, 2048)))
    return tuple(pts), covers


def outcome(call, *args):
    """The value of a call, or its error class with the error's data."""
    try:
        return ("ok", call(*args))
    except UndecidedError as exc:
        return ("undecided", exc.bounds)
    except Exception as exc:  # noqa: BLE001 - any error must match in kind
        return (type(exc), str(exc))


# ---------------------------------------------------------------------------
# differential tests
# ---------------------------------------------------------------------------


class TestPointSetMatchesReference:
    @settings(max_examples=300, deadline=None)
    @given(set_forms(), st.lists(points, min_size=1, max_size=6),
           st.lists(intervals(), min_size=1, max_size=4))
    def test_membership_and_suggestions(self, E, xs, ivs):
        S = point_set(E)
        assert isinstance(S, FailureSet)
        ref_member = reference_as_member(E)
        for x in xs:
            assert outcome(lambda: x in S) == outcome(lambda: bool(ref_member(x)))
        ref_suggest = reference_suggester_for(E)
        for iv in ivs:
            got = outcome(lambda: tuple(S.suggestion_points(iv)))
            want = outcome(lambda: () if ref_suggest is None else tuple(ref_suggest(iv)))
            assert got == want

    def test_descriptors_pass_through(self):
        for S in (EMPTY_FAILURE, FiniteFailureSet((0,)), GeneratedFailureSet(C),
                  PredicateFailureSet(_third_denominator, "p")):
            assert point_set(S) is S

    def test_fat_cantor_undecided_query_keeps_its_bounds(self):
        S = sets.svc()
        x = F(1, 3)
        with pytest.raises(UndecidedError) as want:
            reference_as_member(S)(x)
        for form in (S, GeneratedFailureSet(S)):
            with pytest.raises(UndecidedError) as got:
                x in point_set(form)
            assert got.value.bounds == want.value.bounds
        iv = Iv(F(1, 6), F(1, 2))  # midpoint 1/3
        assert outcome(point_set(S).suggestion_points, iv) == outcome(
            reference_suggester_for(S), iv
        ) == ("undecided", want.value.bounds)


ZERO_DERIV_FNS = ("identity", "one", "square", "cantor", "cantor_abs")
DINI_FNS = ("identity", "one", "square", "cantor")


class TestGaugesOverTuplesMatchReference:
    @settings(max_examples=150, deadline=None)
    @given(st.sampled_from(ZERO_DERIV_FNS), st.lists(points, max_size=4),
           st.sampled_from((F(1, 10), F(1, 1000))),
           st.lists(points, min_size=1, max_size=6),
           st.lists(intervals(), min_size=1, max_size=3))
    def test_zero_derivative(self, name, pts, eps, probes, ivs):
        f = lookup(name)
        D = tuple(pts)
        new = outcome(gauge_from_zero_derivative, f, D, eps)
        ref = outcome(reference_gauge_from_zero_derivative, f, D, eps)
        assert new[0] == ref[0]  # both build, or both raise the same class
        if new[0] != "ok":
            return
        g, r = new[1], ref[1]
        assert g.name == r.name
        for x in probes + pts:
            assert outcome(g.radius_at, x) == outcome(r.radius_at, x)
        for iv in ivs:
            assert outcome(g.suggestions, iv) == outcome(r.suggestions, iv)

    @settings(max_examples=150, deadline=None)
    @given(st.sampled_from(DINI_FNS), dini_cases(),
           st.lists(points, min_size=1, max_size=6),
           st.lists(intervals(), min_size=1, max_size=3))
    def test_dini(self, name, case, probes, ivs):
        f = lookup(name)
        Z, covers = case
        new = outcome(gauge_from_dini, f, Z, covers, 1)
        ref = outcome(reference_gauge_from_dini, f, Z, covers, 1)
        assert new[0] == ref[0]
        if new[0] != "ok":
            return
        g, r = new[1], ref[1]
        assert g.name == r.name
        for x in probes + list(Z):
            assert outcome(g.radius_at, x) == outcome(r.radius_at, x)
        for iv in ivs:
            assert outcome(g.suggestions, iv) == outcome(r.suggestions, iv)

    @settings(max_examples=150, deadline=None)
    @given(dini_cases(), st.lists(points, max_size=6))
    def test_cover_lookup(self, case, probes):
        _, covers = case
        for cover in covers.values():
            merged = variation._merged_open_cover(cover)
            assert variation._cover_measure(merged) == sum(
                (c.length for c in _reference_merged(cover)), F(0))
            edges = [p for c in cover for p in (c.lo, c.hi, c.midpoint)]
            for x in probes + edges:
                assert variation._interval_of_cover(merged, x) == (
                    _reference_interval_of_cover(cover, x))


# ---------------------------------------------------------------------------
# behaviour that no longer depends on the container
# ---------------------------------------------------------------------------


class TestContainerIndependence:
    def test_zero_derivative_certificate_checked_for_descriptors(self):
        # f'(1/2) = 1 for the square: rejected whatever holds the point
        for D in ((F(1, 2),), [F(1, 2)], FiniteFailureSet((F(1, 2),))):
            with pytest.raises(UnsupportedInstanceError, match="1/2"):
                gauge_from_zero_derivative(SQ, D, F(1, 10))

    def test_image_measure_bound_of_descriptors(self):
        assert image_measure_bound(SQ, (F(0),), 3) == F(1, 256)
        assert image_measure_bound(SQ, FiniteFailureSet((F(0),)), 3) == F(1, 256)
        assert image_measure_bound(SQ, C, 3) == F(8, 27)
        assert image_measure_bound(SQ, GeneratedFailureSet(C), 3) == F(8, 27)
        for E in (None, EMPTY_FAILURE, _third_denominator,
                  PredicateFailureSet(_third_denominator, "thirds")):
            with pytest.raises(UnsupportedInstanceError) as exc:
                image_measure_bound(SQ, E, 3)
            assert point_set(E).describe() in str(exc.value)

    def test_dini_cover_checked_at_build_for_descriptors(self, shallow_realize):
        cover = {1: (Iv(-F(1, 1000), F(1, 1000)),)}  # misses all of C but 0
        for Z in (GeneratedFailureSet(C), C, FiniteFailureSet((F(1, 2),)), (F(1, 2),)):
            with pytest.raises(UnsupportedInstanceError):
                gauge_from_dini(IDENT, Z, cover, F(1, 10))

    def test_generated_cover_miss_fails_without_deep_stages(self, shallow_realize):
        # every stage has the endpoint 1 outside the cover; no stage past
        # the first needs to be realized to know that
        cover = {1: (Iv(-F(1, 1000), F(1, 1000)),)}
        with pytest.raises(UnsupportedInstanceError):
            gauge_from_dini(IDENT, C, cover, F(1, 10))

    def test_generated_cover_gap_decided_without_stages(self, shallow_realize):
        # 1/4 = 0.0202..._3 lies in C but is no stage endpoint, and the gap
        # [1/4 - 3^-30, 1/4] between the two intervals holds it
        miss = {1: (Iv(-F(1, 10), F(1, 4) - F(1, 3**30)), Iv(F(1, 4), F(11, 10)))}
        with pytest.raises(UnsupportedInstanceError, match="1/4"):
            gauge_from_dini(IDENT, C, miss, 100)
        # a gap inside the removed middle third misses C
        hit = {1: (Iv(-F(1, 10), F(34, 100)), Iv(F(66, 100), F(11, 10)))}
        gauge_from_dini(IDENT, C, hit, 100)

    def test_touching_cover_intervals_leave_their_endpoint_uncovered(self, shallow_realize):
        # open intervals that only touch do not cover their common endpoint,
        # so no radius may be taken there and no set point may sit there
        touching = {1: (Iv(F(1, 4), F(1, 2)), Iv(F(1, 2), F(3, 4)))}
        with pytest.raises(UnsupportedInstanceError, match="1/2"):
            gauge_from_dini(SQ, (F(1, 2),), touching, 10)
        g = gauge_from_dini(SQ, (F(5, 8),), touching, 10)
        assert g.radius_at(F(5, 8)) == F(1, 8)
        # 1/3 is a point of C, 1/2 is not: the zero-width gap at the
        # touching point holds a point of C only in the first cover
        at_third = {1: (Iv(-F(1, 10), F(1, 3)), Iv(F(1, 3), F(11, 10)))}
        with pytest.raises(UnsupportedInstanceError, match="1/3"):
            gauge_from_dini(IDENT, C, at_third, 100)
        at_half = {1: (Iv(-F(1, 10), F(1, 2)), Iv(F(1, 2), F(11, 10)))}
        gauge_from_dini(IDENT, C, at_half, 100)


def reference_stage_cover(Z, cover, depth_limit):
    """The stage check this replaced: True once a stage lies cellwise in
    the cover, False once a stage endpoint (a set point) is outside it,
    None if neither happens by ``depth_limit``."""
    for depth in range(depth_limit + 1):
        homes = [
            (variation._interval_of_cover(cover, c.lo),
             variation._interval_of_cover(cover, c.hi))
            for c in sets.realize(Z, depth)
        ]
        if any(lo is None or hi is None for lo, hi in homes):
            return False
        if all(lo == hi for lo, hi in homes):
            return True
    return None


@st.composite
def stage_covers(draw):
    """A generated set and open intervals around its stage cells, padded
    alike; now and then a cell is dropped, left unpadded, or trimmed, so
    that gaps fall inside complement components or across set points."""
    Z = draw(st.sampled_from(GENERATED))
    pad = draw(st.sampled_from((F(1, 3**6), F(1, 4**5), F(1, 100))))
    odd = st.sampled_from((None, F(0), -F(1, 3**7), F(1, 3**3)))
    cover = []
    for c in sets.realize(Z, draw(st.integers(0, 4))):
        lo_pad = hi_pad = pad
        if draw(st.integers(0, 7)) == 0:
            lo_pad, hi_pad = draw(odd), draw(odd)
            if lo_pad is None or hi_pad is None:
                continue  # the cell is dropped
        if c.lo - lo_pad < c.hi + hi_pad:
            cover.append(Iv(c.lo - lo_pad, c.hi + hi_pad))
    return Z, variation._merged_open_cover(cover)


@settings(max_examples=200, deadline=None)
@given(stage_covers())
def test_generated_cover_matches_stage_check(case):
    Z, cover = case
    want = reference_stage_cover(Z, cover, 8)
    if want is None:
        return  # the stage check is still undecided at depth 8
    got = outcome(variation._check_generated_cover, Z, IDENT, {1: cover})
    assert (got == ("ok", None)) == want, (Z.kind, cover, got)


@pytest.fixture
def shallow_realize(monkeypatch):
    """Fail fast instead of realizing stages past depth 2 (2^24 cells at
    the depth limit)."""
    realize = sets.realize

    def shallow(s, depth):
        if depth > 2:
            raise AssertionError(f"realized stage {depth} of {s.kind}")
        return realize(s, depth)

    monkeypatch.setattr(sets, "realize", shallow)
