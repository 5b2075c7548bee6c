"""Skipped replays and one-locate gauges against the code they replaced.

The variation sums count a tag only through its membership in the set E,
so when every cell's acceptable tags agree on E, all sampled partitions
have sample 0's sums, and ``test_negligible_variation`` and ``cov_check``'s
NCV channel sum sample 0 only. The reference is the row loop with every
sample replayed (``reference_variation_samples``). Hypothesis draws gauges
with several acceptable tags per cell, sets E that are finite, predicates
or generated, and radii, memberships and function values that raise at
points only some shuffles reach. Reports, witness partitions, the first
error and the seed streams afterwards must all match.

The distance gauge, ``min_gauge``, the tag oracle, ``Gauge.suggestions``,
``Iv.interior_contains`` and ``rat_str`` check each fact once; the versions
that checked again are kept here as references. Work-count guards pin down
the replays, shuffles, locates and comparisons that are no longer made.
"""

import os
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gaugekit
from gaugekit import cli, core, cov, funcs, sets, variation
from gaugekit.core import Gauge, Iv, PartitionTree, ValueWithError, constant_gauge
from gaugekit.errors import GaugeKitError
from gaugekit.funcs import (
    FiniteFailureSet,
    FnSpec,
    GeneratedFailureSet,
    PredicateFailureSet,
    const_fn,
    identity_fn,
)
from test_replay import _logged_gauge, cases
from test_resum import _grid, _logged_fn, _logged_set

ZERO = F(0)
ONE = F(1)
C = sets.ternary_cantor()
D = sets.reflected_cantor()
S = sets.svc()


# ---------------------------------------------------------------------------
# references: every sample replayed, every fact checked where it is used
# ---------------------------------------------------------------------------


def reference_variation_samples(domain, gauge, samples, master, max_depth, tree, S):
    return core.sample_partitions(domain, gauge, samples, master, max_depth, tree)


def reference_gauge_dist_complement(D, name=None):
    S = GeneratedFailureSet(D)

    def radius(x):
        x = F(x)
        return ONE if x in S else sets.distance(D, x)

    return Gauge(
        radius=radius,
        suggest_tag=S.suggestion_points,
        name=name or f"dist_complement({D.kind})",
    )


def reference_min_gauge(a, b, name=None):
    def radius(x):
        return min(a.radius_at(x), b.radius_at(x))

    def suggest(iv):
        return a.suggestions(iv) + b.suggestions(iv)

    return Gauge(radius=radius, suggest_tag=suggest, name=name or f"min({a.name},{b.name})")


def reference_nearest_set_points(s, iv):
    m = iv.midpoint
    if m < s.base.lo:
        return (s.base.lo,) if s.base.lo in iv else ()
    if m > s.base.hi:
        return (s.base.hi,) if s.base.hi in iv else ()
    if m == s.base.lo or m == s.base.hi:
        return (m,)
    if sets.member(s, m):
        return (m,)
    comp = sets.complement_component(s, m).interval
    return tuple(p for p in (comp.lo, comp.hi) if p in iv and p in s.base)


def reference_suggestions(self, iv):
    if self.suggest_tag is None:
        return ()
    out = []
    for c in self.suggest_tag(iv):
        c = F(c)
        if c in iv:
            out.append(c)
    return tuple(out)


def reference_interior_contains(self, x):
    return self.lo < x < self.hi


def reference_rat_str(q):
    q = F(q)
    return f"{q.numerator}/{q.denominator}"


def _outcome(fn, *args):
    """('ok', value) or ('raised', class, message, interval, bounds)."""
    try:
        return ("ok", fn(*args))
    except (GaugeKitError, ValueError) as exc:
        return (
            "raised", type(exc), str(exc),
            getattr(exc, "interval", None), getattr(exc, "bounds", None),
        )


# ---------------------------------------------------------------------------
# reports: skipped replays against every sample replayed
# ---------------------------------------------------------------------------


class _Masters:
    """Stands in for the ``random`` module of variation and cov, keeping
    every seed stream they make, so their states can be compared."""

    def __init__(self):
        self.made = []

    def Random(self, seed):
        rng = random.Random(seed)
        self.made.append(rng)
        return rng

    def states(self):
        return [rng.getstate() for rng in self.made]


def _forced_replays(mp):
    for mod in (variation, cov):
        mp.setattr(mod, "_variation_samples", reference_variation_samples)


def _result(run, reference):
    """The run's report payload and witness items, or its first error; and
    the states of its seed streams afterwards."""
    masters = _Masters()
    with pytest.MonkeyPatch.context() as mp:
        for mod in (variation, cov):
            mp.setattr(mod, "random", masters)
        if reference:
            _forced_replays(mp)
        try:
            rep = run()
        except GaugeKitError as exc:
            out = (type(exc), str(exc), getattr(exc, "interval", None),
                   getattr(exc, "bounds", None))
        else:
            ncv = getattr(rep, "ncv_report", rep)
            out = (
                rep.payload(),
                None if ncv.witness is None else ncv.witness.partition.items,
                getattr(rep, "witness", None),
            )
    return out, masters.states()


@st.composite
def shallow_cases(draw):
    """Cases in the format of ``cases``, with radii of a few cells' widths
    and tags suggested on the bisection grid, so that cells often have
    several acceptable tags; radii raise at a grid point now and then."""
    domain = draw(st.sampled_from((Iv(0, 1), Iv(-1, 1), Iv(0, 3), Iv(F(1, 3), 2))))
    grid = _grid(domain)
    width = domain.length
    breaks = tuple(sorted(draw(st.lists(st.sampled_from(grid), max_size=2))))
    radii = tuple(
        width * F(draw(st.integers(3, 20)), 32) for _ in range(len(breaks) + 1)
    )
    poison = {
        x: draw(st.sampled_from(("foreign", "undecided")))
        for x in draw(st.lists(st.sampled_from(grid), max_size=1))
    }
    anchors = tuple(draw(st.lists(st.sampled_from(grid), max_size=4)))
    kinds = frozenset(draw(st.sets(st.sampled_from(("duplicates", "third")))))
    max_depth = draw(st.integers(3, 8))
    samples = draw(st.integers(2, 5))
    seed = draw(st.integers(0, 2**32))
    return domain, breaks, radii, poison, anchors, kinds, max_depth, samples, seed


gauge_cases = st.one_of(cases(), shallow_cases())
epsilons = st.lists(st.sampled_from((F(1, 100), F(1, 2), F(2), F(10))), min_size=1,
                    max_size=3)


@st.composite
def point_sets(draw, domain):
    """E: finite on the bisection grid, a predicate that may be undecided
    at grid points, a generated set, every point or none."""
    grid = _grid(domain)
    kind = draw(st.sampled_from(("finite", "predicate", "generated", "all", "none")))
    if kind == "finite":
        return FiniteFailureSet(draw(st.lists(st.sampled_from(grid), max_size=6)))
    if kind == "predicate":
        undecided = frozenset(draw(st.lists(st.sampled_from(grid), max_size=2)))
        return _logged_set(undecided, [])
    if kind == "generated":
        return GeneratedFailureSet(draw(st.sampled_from((C, D, S))))
    if kind == "all":
        return PredicateFailureSet(lambda x: True, "all")
    return FiniteFailureSet(())


@settings(max_examples=150, deadline=None)
@given(gauge_cases, st.data())
def test_variation_reports_match_forced_replays(case, data):
    domain, breaks, radii, poison, anchors, kinds, max_depth, samples, seed = case
    E = data.draw(point_sets(domain))
    schedule = data.draw(epsilons)
    f_poison = frozenset(data.draw(st.lists(st.sampled_from(_grid(domain)), max_size=2)))
    shared = data.draw(st.booleans())

    def run():
        gauge = _logged_gauge(breaks, radii, poison, anchors, kinds, [])
        f = _logged_fn(f_poison, [])
        if shared:
            builder = lambda eps: gauge
        else:
            builder = lambda eps: _logged_gauge(breaks, radii, poison, anchors, kinds, [])
        return variation.test_negligible_variation(
            f, E, builder, schedule, samples=samples, seed=seed, domain=domain,
            max_depth=max_depth,
        )

    assert _result(run, reference=False) == _result(run, reference=True)


def _instance(domain, gauge, B, f_poison):
    """A substitution instance whose NCV channel sums a poisoned function
    over B under a gauge with several acceptable tags."""
    logged = _logged_fn(f_poison, [])
    fog = FnSpec(name="fog", domain=domain, eval=logged, modulus=lambda x, eps: ONE)
    return cov.CovInstance(
        name="fuzz", f=const_fn(1, domain), F=identity_fn(domain),
        g=identity_fn(domain), domain=domain, B=B, fog=fog,
        ncv_gauge=lambda eps: gauge,
    )


@settings(max_examples=100, deadline=None)
@given(gauge_cases, st.data())
def test_cov_reports_match_forced_replays(case, data):
    domain, breaks, radii, poison, anchors, kinds, max_depth, samples, seed = case
    B = data.draw(point_sets(domain))
    schedule = data.draw(epsilons)
    f_poison = frozenset(data.draw(st.lists(st.sampled_from(_grid(domain)), max_size=2)))

    def run():
        gauge = _logged_gauge(breaks, radii, poison, anchors, kinds, [])
        inst = _instance(domain, gauge, B, f_poison)
        return cov.cov_check(inst, schedule=schedule, samples=samples, seed=seed,
                             max_depth=max_depth)

    assert _result(run, reference=False) == _result(run, reference=True)


def _two_tag_gauge(poison=None):
    """Radius 1 on [0, 1], so at depth 0 the suggested 1/4 and 3/4 and the
    midpoint are all acceptable; raises at ``poison``."""

    def radius(x):
        if x == poison:
            raise ZeroDivisionError(str(x))
        return ONE

    return Gauge(radius=radius, suggest_tag=lambda iv: (F(1, 4), F(3, 4)), name="two")


def _count_builds(mp):
    calls = []
    inner = core.cousin_partition

    def counted(*args, **kwargs):
        calls.append(args[0])
        return inner(*args, **kwargs)

    mp.setattr(core, "cousin_partition", counted)
    return calls


@pytest.mark.parametrize(
    "E, replays",
    [
        ((F(1, 4), F(3, 4), F(1, 2)), False),  # every acceptable tag in E
        ((), False),  # none of them
        ((F(1, 4),), True),  # E straddles the cell's acceptable tags
    ],
)
def test_replays_only_where_tags_straddle_E(E, replays):
    f = _logged_fn(frozenset(), [])

    def run():
        return variation.test_negligible_variation(
            f, E, lambda eps: gauge, (F(1, 10), F(1, 100)), samples=5, seed=3,
            domain=Iv(0, 1),
        )

    gauge = _two_tag_gauge()
    with pytest.MonkeyPatch.context() as mp:
        builds = _count_builds(mp)
        new = _result(run, reference=False)
    assert len(builds) == (10 if replays else 2)
    gauge = _two_tag_gauge()
    assert new == _result(run, reference=True)


def test_radius_error_at_an_unknown_verdict_is_kept():
    # Sample 0 accepts 1/4 and leaves every other verdict unknown. E holds
    # all five candidates, so they agree on it; but the radius raises at
    # 3/4, which only some shuffles try before 1/4. The check evaluates it,
    # raises, and falls back to the replays, which raise at the same sample
    # as the reference.
    f = _logged_fn(frozenset(), [])
    outcomes = set()
    for seed in range(8):
        def run():
            gauge = _two_tag_gauge(poison=F(3, 4))
            return variation.test_negligible_variation(
                f, (ZERO, F(1, 4), F(3, 4), F(1, 2), ONE), lambda eps: gauge, (F(1, 10),),
                samples=4, seed=seed, domain=Iv(0, 1),
            )

        new = _result(run, reference=False)
        assert new == _result(run, reference=True)
        outcomes.add(new[0][0] if isinstance(new[0][0], type) else "report")
    assert outcomes == {gaugekit.errors.InvalidGaugeError, "report"}


def test_membership_error_at_a_tag_only_shuffles_pick_is_kept():
    f = _logged_fn(frozenset(), [])
    outcomes = set()
    for seed in range(8):
        def run():
            gauge = _two_tag_gauge()
            E = _logged_set(frozenset({F(3, 4)}), [])
            return variation.test_negligible_variation(
                f, E, lambda eps: gauge, (F(1, 10),), samples=4, seed=seed,
                domain=Iv(0, 1),
            )

        new = _result(run, reference=False)
        assert new == _result(run, reference=True)
        outcomes.add(new[0][0] if isinstance(new[0][0], type) else "report")
    assert outcomes == {gaugekit.errors.UndecidedError, "report"}


# ---------------------------------------------------------------------------
# one locate per point: gauges, the tag oracle and intervals
# ---------------------------------------------------------------------------

special_points = [
    F(0), F(1), F(1, 3), F(2, 3), F(1, 4), F(3, 4), F(7, 9), F(8, 9), F(1, 10),  # on C
    F(1, 2), F(5, 9), F(4, 27), F(1, 7),  # in gaps
    F(-1, 3), F(4, 3), F(-2), F(3),  # outside the bases
    F(-1, 3), F(-7, 9), F(1, 8), F(5, 8), F(13, 32),  # D and S points
]
points = st.one_of(
    st.sampled_from(special_points),
    st.builds(F, st.integers(-40, 40), st.integers(1, 40)),
)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from((C, D, S)), points)
def test_dist_radius_matches_reference(s, x):
    new = variation.gauge_dist_complement(s)
    ref = reference_gauge_dist_complement(s)
    assert _outcome(new.radius_at, x) == _outcome(ref.radius_at, x)
    assert _outcome(new.radius, int(x)) == _outcome(ref.radius, int(x))


@settings(max_examples=200, deadline=None)
@given(st.sampled_from((C, D, S)), points, points)
def test_nearest_set_points_match_reference(s, a, b):
    iv = Iv(min(a, b), max(a, b))
    new = _outcome(funcs.nearest_set_points, s, iv)
    assert new == _outcome(reference_nearest_set_points, s, iv)


radii = st.one_of(
    st.builds(F, st.integers(1, 20), st.integers(1, 20)),
    st.integers(1, 5),
)


@settings(max_examples=200, deadline=None)
@given(radii, radii, points)
def test_min_gauge_matches_reference(ra, rb, x):
    a = Gauge(radius=lambda y: ra, name="a")
    b = constant_gauge(rb)
    new, ref = core.min_gauge(a, b), reference_min_gauge(a, b)
    assert new.name == ref.name
    r = new.radius_at(x)
    assert r == ref.radius_at(x) and r.__class__ is F
    if F(ra) == F(rb) and ra.__class__ is F:
        assert r is ra  # a tie returns a's radius, as min does


def test_min_gauge_errors_match_reference():
    bad = Gauge(radius=lambda x: 1 / (x - x), name="bad")
    one = constant_gauge(1)
    for a, b in ((bad, one), (one, bad), (bad, bad)):
        new, ref = core.min_gauge(a, b), reference_min_gauge(a, b)
        for x in (F(0), F(1, 3)):
            assert _outcome(new.radius_at, x) == _outcome(ref.radius_at, x)


@settings(max_examples=200, deadline=None)
@given(points, points, st.lists(st.one_of(points, st.integers(-3, 3), radii), max_size=5))
def test_suggestions_match_reference(a, b, offered):
    iv = Iv(min(a, b), max(a, b))
    g = Gauge(radius=lambda x: ONE, suggest_tag=lambda iv: list(offered))
    new = g.suggestions(iv)
    assert new == reference_suggestions(g, iv)
    assert all(c.__class__ is F for c in new)


@settings(max_examples=300, deadline=None)
@given(points, points, st.one_of(points, st.integers(-3, 3), st.floats(-3, 3)))
def test_interior_contains_matches_reference(a, b, x):
    iv = Iv(min(a, b), max(a, b))
    assert iv.interior_contains(x) == reference_interior_contains(iv, x)


@given(st.one_of(points, st.integers(-10**6, 10**6), st.floats(-1e6, 1e6)))
def test_rat_str_matches_reference(q):
    assert core.rat_str(q) == reference_rat_str(q)


# ---------------------------------------------------------------------------
# work counts that fail on the path that replayed, located twice, compared
# ---------------------------------------------------------------------------

CANTOR_JOB = ("variation", "--fn", "cantor", "--set", "C", "--domain", "0", "1",
              "--gauge", "min:dist:C+const:1/1024", "--mode", "nv", "--seed", "2",
              "--out", "variation.json")


def _count_shuffles(mp):
    shuffles = []
    inner = random.Random.shuffle

    def counted(self, x):
        shuffles.append(len(x))
        return inner(self, x)

    mp.setattr(random.Random, "shuffle", counted)
    return shuffles


class TestWorkCounts:
    def test_cantor_variation_job_builds_twice_and_never_shuffles(self, tmp_path):
        cwd = os.getcwd()
        os.chdir(tmp_path)
        try:
            with pytest.MonkeyPatch.context() as mp:
                builds = _count_builds(mp)
                shuffles = _count_shuffles(mp)
                assert cli.main(list(CANTOR_JOB)) == 0
        finally:
            os.chdir(cwd)
        assert len(builds) == 2  # sample 0 of each epsilon
        assert shuffles == []
        assert (tmp_path / "variation-witness.csv").exists()

    def test_straddling_set_still_replays_and_shuffles(self):
        # the cantor-variation gauge and tree; E holds one acceptable tag of
        # a cell that has several, so that cell's tags straddle E
        gauge = core.min_gauge(variation.gauge_dist_complement(C), constant_gauge(F(1, 1024)))
        tree = PartitionTree()
        core.cousin_partition(Iv(0, 1), gauge, tree=tree)
        assert tree.tags_agree_on(GeneratedFailureSet(C))
        cells = [n for n in tree.nodes if n.__class__ is not int and n[2].count(True) > 1]
        assert cells
        iv, cands, verdicts = cells[0]
        E = FiniteFailureSet([cands[verdicts.index(True)]])
        assert not tree.tags_agree_on(E)
        f = funcs.cantor_fn_spec()

        def run():
            return variation.test_negligible_variation(
                f, E, lambda eps: gauge, (F(1, 10), F(1, 100)), samples=5, seed=2,
                domain=Iv(0, 1),
            )

        with pytest.MonkeyPatch.context() as mp:
            builds = _count_builds(mp)
            shuffles = _count_shuffles(mp)
            new = _result(run, reference=False)
        assert len(builds) == 10 and shuffles
        assert new == _result(run, reference=True)

    def test_one_locate_per_dist_radius_inside_the_base(self, monkeypatch):
        lookups = []
        inner = sets._locate_memo

        def counted(s, x):
            lookups.append(x)
            return inner(s, x)

        monkeypatch.setattr(sets, "_locate_memo", counted)
        radius = variation.gauge_dist_complement(C).radius
        for x in (F(1, 3), F(1, 4), F(1, 2), F(5, 9), F(4, 27), F(0), F(1)):
            del lookups[:]
            radius(x)
            assert lookups == [x]
        for x in (F(-1, 3), F(4, 3)):
            del lookups[:]
            radius(x)
            assert lookups == []

    def test_proof_gauge_radius_compares_no_fraction(self, monkeypatch):
        gauge = cov.proof_gauge(cov.ftc_instance(funcs.lookup("square")), F(1, 1000))
        compared = []
        for op in ("__lt__", "__le__", "__gt__", "__ge__"):
            inner = getattr(F, op)
            monkeypatch.setattr(F, op, lambda a, b, inner=inner: compared.append(b) or inner(a, b))
        for x in (F(-1), F(1, 3), ZERO, ONE):
            assert gauge.radius(x) == F(1, 4000)
        monkeypatch.undo()
        assert compared == []

    @pytest.mark.parametrize("r, expected", [(F(2), ONE), (F(1, 2), F(1, 2)), (ONE, ONE),
                                             (2, ONE), (0.25, F(1, 4))])
    def test_proof_gauge_caps_the_modulus_at_one(self, r, expected):
        fog = FnSpec(name="g", domain=Iv(0, 1), eval=ValueWithError, modulus=lambda x, e: r)
        inst = cov.CovInstance(
            name="cap", f=const_fn(1, Iv(0, 1)), F=identity_fn(Iv(0, 1)), g=fog,
            domain=Iv(0, 1), B=funcs.EMPTY_FAILURE, fog=fog,
            ncv_gauge=lambda eps: constant_gauge(1),
        )
        got = cov.proof_gauge(inst, F(1, 10)).radius(F(1, 2))
        assert got == expected and got == min(r, ONE)

    def test_rat_str_wraps_no_fraction(self):
        made = []
        original = F.__dict__["__new__"]
        q, r = F(-6, 4), F(5, 7)

        def counted(cls, *args, **kwargs):
            made.append(args)
            return original.__func__(cls, *args, **kwargs)

        F.__new__ = staticmethod(counted)
        try:
            out = (core.rat_str(q), core.rat_str(r))
        finally:
            F.__new__ = original
        assert out == ("-3/2", "5/7")
        assert made == []


# ---------------------------------------------------------------------------
# the CLI's outputs with every reference patched in
# ---------------------------------------------------------------------------

JOBS = (
    CANTOR_JOB,
    ("variation", "--fn", "cantor", "--set", "C", "--domain", "0", "1",
     "--gauge", "min:dist:C+const:1/256", "--mode", "nv", "--seed", "1", "--out", "c1.json"),
    ("variation", "--fn", "cantor_abs", "--set", "D", "--domain", "-1", "1",
     "--mode", "ncv", "--seed", "2", "--out", "d.json"),
    ("cov", "--instance", "cantorabs-unit", "--interval", "0", "1", "--seed", "4"),
    ("ftc", "--fn", "cantor", "--domain", "0", "1", "--seed", "5", "--expect", "fails"),
    ("partition", "--domain", "-1", "1", "--gauge", "dist:D", "--fn", "cantor_abs",
     "--out", "part.csv"),
    ("partition", "--domain", "1/3", "1", "--gauge", "dist:S"),
)
EXIT_CODES = [0] * (len(JOBS) - 1) + [4]
PACKAGE = (gaugekit, core, sets, funcs, variation, cov, cli)


def _run_jobs(directory, capsys):
    cwd = os.getcwd()
    os.chdir(directory)
    runs = []
    try:
        for argv in JOBS:
            sets._locate_default.cache_clear()
            runs.append((cli.main(list(argv)), *capsys.readouterr()))
    finally:
        os.chdir(cwd)
    return runs


def _patch_everywhere(mp, obj, replacement):
    for mod in PACKAGE:
        for key, val in list(vars(mod).items()):
            if val is obj:
                mp.setattr(mod, key, replacement)


def test_cli_outputs_match_reference_path(tmp_path, capsys, monkeypatch):
    (tmp_path / "new").mkdir()
    (tmp_path / "ref").mkdir()
    monkeypatch.delenv("GAUGEKIT_DEPTH_CAP", raising=False)
    runs = _run_jobs(tmp_path / "new", capsys)
    with pytest.MonkeyPatch.context() as mp:
        _forced_replays(mp)
        mp.setattr(Gauge, "suggestions", reference_suggestions)
        mp.setattr(Iv, "interior_contains", reference_interior_contains)
        for new, ref in (
            (variation.gauge_dist_complement, reference_gauge_dist_complement),
            (core.min_gauge, reference_min_gauge),
            (funcs.nearest_set_points, reference_nearest_set_points),
            (core.rat_str, reference_rat_str),
        ):
            _patch_everywhere(mp, new, ref)
        ref_runs = _run_jobs(tmp_path / "ref", capsys)
    assert [r[0] for r in runs] == EXIT_CODES
    assert runs == ref_runs
    new = {p.name: p.read_bytes() for p in sorted((tmp_path / "new").iterdir())}
    ref = {p.name: p.read_bytes() for p in sorted((tmp_path / "ref").iterdir())}
    assert sorted(new) == sorted(ref)
    assert "variation-witness.csv" in new
    for name in new:
        assert new[name] == ref[name], name
