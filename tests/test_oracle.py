"""Integer keys and integer tests against the plain Fraction references.

The locate memo and the Cantor function's memo are keyed on a point's
numerator and denominator; the tag oracle, the builder's ball test and
candidate list, the distance radius and the Cantor function's domain check
decide on integer cross-products; sample 0's sums add numerators grouped
by denominator. ``oracle.py`` holds the Fraction versions. Results, the
kept objects, and the first error's class, message, bounds and witness
must be the same.
"""

import contextlib
import io
import os
import sys
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle
from gaugekit import cli, core, funcs, sets
from gaugekit._record import replace
from gaugekit.core import Gauge, Iv, constant_gauge
from gaugekit.errors import GaugeKitError
from gaugekit.funcs import GeneratedFailureSet

C, D, S = sets.ternary_cantor(), sets.reflected_cantor(), sets.svc()
ZERO, ONE = F(0), F(1)


def _outcome(fn, *args):
    """('ok', value) or ('raised', class, message, bounds, witness)."""
    try:
        return ("ok", fn(*args))
    except (GaugeKitError, ValueError, TypeError) as exc:
        return ("raised", type(exc), str(exc), getattr(exc, "bounds", None),
                getattr(exc, "witness", None))


# ---------------------------------------------------------------------------
# points on the sets, in their gaps, at gap endpoints and outside the bases
# ---------------------------------------------------------------------------

_digits = st.lists(st.sampled_from((0, 2)), max_size=12)
# finite 0/2 expansions (members of C), and the middle thirds below them
on_c = _digits.map(lambda d: F(int("".join(map(str, d)) or "0", 3), 3 ** len(d)))
gap_end = st.tuples(_digits, st.sampled_from((1, 2))).map(
    lambda t: F(3 * int("".join(map(str, t[0])) or "0", 3) + t[1], 3 ** (len(t[0]) + 1)))
in_gap = st.tuples(gap_end, st.integers(1, 8)).map(lambda t: t[0] + F(1, 3 ** 14 * t[1]))
dyadic = st.integers(0, 20).flatmap(lambda k: st.integers(0, 2 ** k).map(lambda p: F(p, 2 ** k)))
in_unit = st.one_of(
    on_c, gap_end, in_gap, dyadic,
    st.sampled_from((F(1, 4), F(3, 4), F(1, 10), F(1, 7), F(2, 9), F(1, 3), F(2, 3))),
    st.builds(F, st.integers(0, 60), st.integers(60, 61)),
)
outside = st.sampled_from((F(-1, 3), F(4, 3), F(-2), F(3), F(-5, 4), F(9, 8)))
points = st.one_of(in_unit, in_unit.map(lambda x: -x), outside)
sets_ = st.sampled_from((C, D, S))
caps = st.one_of(st.none(), st.integers(1, 40))


def _in_base(s, x):
    return s.base.lo <= x <= s.base.hi


# ---------------------------------------------------------------------------
# the memo keys
# ---------------------------------------------------------------------------


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(sets_, points, caps), min_size=1, max_size=12))
def test_locate_memo_matches_memo_keyed_on_fractions(queries):
    # no cache is cleared: answers must not depend on what was asked before
    for s, x, cap in queries:
        if not _in_base(s, x):
            continue
        s = s if cap is None else replace(s, depth_cap=cap)
        assert _outcome(sets._locate_memo, s, x) == _outcome(oracle.locate_memo, s, x)


@settings(max_examples=300, deadline=None)
@given(st.one_of(points, st.integers(-2, 2), points.map(str),
                 st.sampled_from((0.5, 0.25, 1.5, -0.5))))
def test_cantor_fn_matches_reference(x):
    assert _outcome(funcs.cantor_fn, x) == _outcome(oracle.cantor_fn, x)


def test_cantor_fn_memo_answers_every_form_of_a_point():
    funcs._cantor_value.cache_clear()
    for x in (F(1, 4), 0.25, "1/4", F(2, 8), 1, "1", F(3, 3)):
        assert funcs.cantor_fn(x) == oracle.cantor_fn(x)
    assert funcs._cantor_value.cache_info().currsize == 2
    assert funcs._cantor_value.cache_info().maxsize == sets._locate_default.cache_info().maxsize == 200_000


# ---------------------------------------------------------------------------
# the tag oracle, set membership and the distance radius
# ---------------------------------------------------------------------------


@settings(max_examples=200, deadline=None)
@given(sets_, points, points)
def test_nearest_set_points_match_reference(s, a, b):
    iv = Iv(min(a, b), max(a, b))
    assert _outcome(funcs.nearest_set_points, s, iv) == _outcome(oracle.nearest_set_points, s, iv)


@settings(max_examples=200, deadline=None)
@given(sets_, st.one_of(points, st.integers(-2, 2), st.sampled_from((0.5, -0.25, 2.5, "1/3"))))
def test_generated_membership_matches_reference(s, x):
    new = _outcome(GeneratedFailureSet(s).__contains__, x)
    assert new == _outcome(oracle.generated_contains, s, x)


@settings(max_examples=200, deadline=None)
@given(sets_, points)
def test_dist_radius_matches_fraction_min(s, x):
    from gaugekit.variation import gauge_dist_complement

    new = _outcome(gauge_dist_complement(s).radius_at, x)
    if not _in_base(s, x) or new[0] == "raised":
        return
    kind, data = oracle.locate_memo(s, x)
    want = ONE if kind == "member" else oracle.inner_distance(x, data[0], data[1])
    assert new == ("ok", want)


@settings(max_examples=100, deadline=None)
@given(points, points, points)
def test_inner_distance_matches_fraction_min(a, b, c):
    l, x, r = sorted((a, b, c))
    got = sets._inner_distance(x, l, r)
    assert got == oracle.inner_distance(x, l, r) and got.__class__ is F


# ---------------------------------------------------------------------------
# the builder's candidates and ball test, min_gauge's suggestions
# ---------------------------------------------------------------------------


def _copy(x):
    """An equal Fraction that is a different object."""
    return F(x.numerator * 3, x.denominator * 3)


@settings(max_examples=100, deadline=None)
@given(points, points, st.lists(st.tuples(points, st.booleans()), max_size=6), st.data())
def test_candidates_match_dict_fromkeys(a, b, offered, data):
    lo, hi = min(a, b), max(a, b)
    m = (lo + hi) / 2
    pool = [lo, hi, m]
    # suggestions repeat each other and the default candidates, as copies
    sugg = []
    for x, repeat in offered:
        if repeat:
            x = _copy(data.draw(st.sampled_from(pool + sugg) if sugg else st.sampled_from(pool)))
        sugg.append(x)
    sugg = tuple(sugg)
    new = core._candidates(sugg, lo, hi, m)
    ref = oracle.candidates(sugg, lo, hi, m)
    assert new[1:] == ref[1:]
    assert len(new[0]) == len(ref[0])
    assert all(x is y for x, y in zip(new[0], ref[0]))  # the first object of each value
    assert new[0].__class__ is tuple


@settings(max_examples=200, deadline=None)
@given(points, st.builds(F, st.integers(1, 50), st.integers(1, 50)), points, points)
def test_ball_test_matches_fraction_test(x, r, a, b):
    lo, hi = min(a, b), max(a, b)
    assert core._ball_holds(x, r, lo, hi) == oracle.ball_holds(x, r, lo, hi)
    # on the boundary: the ball is open
    for r in (x - lo, hi - x):
        if r > 0:
            assert core._ball_holds(x, r, lo, hi) == oracle.ball_holds(x, r, lo, hi)


@settings(max_examples=100, deadline=None)
@given(points, points, st.lists(st.one_of(points, st.integers(-3, 3)), max_size=4),
       st.lists(points, max_size=4), st.booleans())
def test_min_gauge_suggestions_match_filtered_suggestions(a, b, first, second, no_oracle):
    iv = Iv(min(a, b), max(a, b))
    ga = Gauge(radius=lambda x: ONE, suggest_tag=lambda iv: list(first))
    gb = constant_gauge(1) if no_oracle else Gauge(radius=lambda x: ONE,
                                                  suggest_tag=lambda iv: iter(second))
    new = core.min_gauge(ga, gb).suggestions(iv)
    ref = oracle.suggestions(ga, iv) + oracle.suggestions(gb, iv)
    assert new == ref and all(c.__class__ is F for c in new)


# ---------------------------------------------------------------------------
# sample 0's sums: integer numerators grouped by unreduced denominator
# ---------------------------------------------------------------------------

# unreduced numerators over denominators, zeros and negative numerators
pair = st.one_of(
    st.just((0, 1)),
    st.tuples(st.integers(-10**6, 10**6),
              st.sampled_from((1, 2, 3, 6, 1024, 4096, 3**7, 10**9 + 7))),
)
terms = st.one_of(st.none(), st.tuples(pair, pair, pair))


@settings(max_examples=100, deadline=None)
@given(st.lists(terms, max_size=40))
def test_grouped_sums_match_running_sums(rows):
    items = [(k, None) for k in range(len(rows))]

    def term(tag, cell):
        return rows[tag]

    part = core.TaggedPartition(items, None)
    ((_, new),) = core._sample_sums((part,), term, 3)
    assert list(new) == oracle.running_sums(items, term, 3)
    assert all(v.__class__ is F for v in new)


# ---------------------------------------------------------------------------
# Fraction work of one cantor-variation job
# ---------------------------------------------------------------------------

CANTOR_JOB = ("variation", "--fn", "cantor", "--set", "C", "--domain", "0", "1",
              "--gauge", "min:dist:C+const:1/1024", "--mode", "nv", "--seed", "7",
              "--out", "variation.json")
_ORDERING = ("__lt__", "__le__", "__gt__", "__ge__")


def _count_ops(argv, names, directory):
    """How often the job ``argv``, run in-process in ``directory``, calls
    each of the Fraction methods ``names``."""
    counts = dict.fromkeys(names, 0)

    def counted(name, inner):
        def op(*args):
            counts[name] += 1
            return inner(*args)
        return op

    cwd = os.getcwd()
    os.chdir(directory)
    try:
        with pytest.MonkeyPatch.context() as mp:
            mp.delenv("GAUGEKIT_DEPTH_CAP", raising=False)
            for name in counts:
                mp.setattr(F, name, counted(name, getattr(F, name)))
            with contextlib.redirect_stdout(io.StringIO()):
                assert cli.main(list(argv)) == 0
    finally:
        os.chdir(cwd)
    return counts


@pytest.fixture(scope="module")
def job_counts(tmp_path_factory):
    """Fraction hashes, equality tests and ordering comparisons made by the
    benchmark's cantor-variation job, run in-process."""
    return _count_ops(CANTOR_JOB, ("__hash__", "__eq__") + _ORDERING,
                      tmp_path_factory.mktemp("job"))


def test_job_hashes_no_fraction_per_query(job_counts):
    assert job_counts["__hash__"] <= 1  # 13,845 with memos keyed on Fractions


def test_job_tests_few_fractions_for_equality(job_counts):
    assert job_counts["__eq__"] <= 10  # 13,697 with Fraction keys and tuple.index


def test_job_orders_few_fractions(job_counts):
    assert sum(job_counts[name] for name in _ORDERING) <= 50  # 10,635 with Fraction tests


# ---------------------------------------------------------------------------
# Fraction arithmetic of one ftc-square job: the sums work on integers
# ---------------------------------------------------------------------------

FTC_JOB = ("ftc", "--fn", "square", "--domain", "-1", "1", "--eps", "1e-3",
           "--seed", "5", "--out", "ftc.json")
FTC_CELLS = 4096


@pytest.fixture(scope="module")
def ftc_counts(tmp_path_factory):
    return _count_ops(FTC_JOB, ("__mul__", "__rmul__", "__sub__"),
                      tmp_path_factory.mktemp("ftc"))


def test_ftc_job_multiplies_only_in_g_and_its_derivative(ftc_counts):
    # x·x and 2·x at each tag are left; with Fraction terms the sums made
    # 12,291 __mul__ and 4,096 __rmul__
    assert ftc_counts["__mul__"] + ftc_counts["__rmul__"] <= 2 * FTC_CELLS + 64


def test_ftc_job_takes_no_cell_length(ftc_counts):
    assert ftc_counts["__sub__"] <= 64  # 4,104 with a cell.length per term


# ---------------------------------------------------------------------------
# calls of one ftc-square job: g, g' and f on integers, and a first build
# in the uniform-block step; radius calls of one cantor-variation job
# ---------------------------------------------------------------------------


def _count_calls(argv, functions, directory):
    """How often the job ``argv``, run in-process in ``directory``, enters
    each of the Python ``functions`` (a dict name -> function), counted by
    a profile hook on their code objects."""
    codes = {fn.__code__: name for name, fn in functions.items()}
    counts = dict.fromkeys(functions, 0)

    def hook(frame, event, arg):
        if event == "call":
            name = codes.get(frame.f_code)
            if name is not None:
                counts[name] += 1

    cwd = os.getcwd()
    os.chdir(directory)
    try:
        with pytest.MonkeyPatch.context() as mp:
            mp.delenv("GAUGEKIT_DEPTH_CAP", raising=False)
            with contextlib.redirect_stdout(io.StringIO()):
                sys.setprofile(hook)
                try:
                    assert cli.main(list(argv)) == 0
                finally:
                    sys.setprofile(None)
    finally:
        os.chdir(cwd)
    return counts


@pytest.fixture(scope="module")
def ftc_calls(tmp_path_factory):
    return _count_calls(FTC_JOB, {
        "Fraction._mul": F._mul,
        "Fraction.__new__": F.__new__,
        "ValueWithError.__init__": core.ValueWithError.__init__,
        "Iv.__contains__": Iv.__contains__,
        "Gauge.radius_at": Gauge.radius_at,
        "EmptyFailureSet.__contains__": funcs.EmptyFailureSet.__contains__,
        "_Block.items": core._Block.items.fget,
        "cousin_partition": core.cousin_partition,
    }, tmp_path_factory.mktemp("ftc-calls"))


def test_ftc_job_multiplies_no_fraction_per_tag(ftc_calls):
    assert ftc_calls["Fraction._mul"] <= 16  # 8,195 with x·x and 2·x per tag


def test_ftc_job_builds_no_value_with_error_per_tag(ftc_calls):
    assert ftc_calls["ValueWithError.__init__"] <= 64  # 12,302 with f(g(x)) and g'(x)


def test_ftc_job_checks_no_interval_per_tag(ftc_calls):
    assert ftc_calls["Iv.__contains__"] <= 16  # 8,196 with two domain checks per tag


def test_ftc_job_builds_no_fraction_per_node(ftc_calls):
    # the midpoints are built from their integer pairs, without
    # Fraction.__new__; 8,299 with one Fraction(n, d) per node, 16,478 with
    # g(x) and g'(x) as Fractions too
    assert ftc_calls["Fraction.__new__"] <= 256


def test_ftc_job_asks_no_empty_set(ftc_calls):
    # B and g's failure set are empty: 20,481 calls when the proof gauge's
    # radius, the integrand and the NCV sums asked them at every point
    assert ftc_calls["EmptyFailureSet.__contains__"] == 0


def test_ftc_job_evaluates_each_radius_once(ftc_calls):
    # the proof gauge declares its constant radius: the job's one epsilon
    # makes one radius call, where the walk made 8,193 (every midpoint of
    # its 8,191 nodes, and the root's ends)
    assert ftc_calls["Gauge.radius_at"] == 1


def test_ftc_job_builds_no_item(ftc_calls):
    # the block's sums read its tags; its 4,096 items are never read
    assert ftc_calls["_Block.items"] == 0


def test_ftc_job_skips_the_variation_replays(ftc_calls):
    # five Riemann samples and the variation channel's sample 0: the block
    # tree is closed, so its tags agree on B and the other four are skipped
    assert ftc_calls["cousin_partition"] == 6


def test_cantor_job_evaluates_no_extra_radius(tmp_path):
    # at most of this job's nodes the tag oracle offers nothing, so they take
    # the fixed-order step; the job still makes the 11,229 radius calls it
    # made when every node of an oracle gauge took the candidate step
    calls = _count_calls(CANTOR_JOB, {"Gauge.radius_at": Gauge.radius_at}, tmp_path)
    assert calls["Gauge.radius_at"] == 11_229
