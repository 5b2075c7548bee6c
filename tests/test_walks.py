"""Integer digit walks against the Fraction walks they replaced.

The references are the locators and the Cantor function as they stood
before: ternary digits read off ``Fraction`` remainders
(``reference_cantor_locate``, ``reference_cantor_fn``) and the fat-Cantor
construction walked on ``Fraction`` endpoints, once to classify a point
(``reference_svc_locate``) and once more to find its stage interval
(``reference_svc_stage_interval``). Results, error classes, messages and
certified bounds must be identical, and so must the CLI's reports.
"""

import os
from fractions import Fraction as F

from hypothesis import given, settings
from hypothesis import strategies as st

from gaugekit import cli, funcs, sets
from gaugekit.errors import DomainError, UndecidedError

# ---------------------------------------------------------------------------
# references: the Fraction walks
# ---------------------------------------------------------------------------


def reference_cantor_locate(x):
    if x == 0 or x == 1:
        return ("member", None)
    seen = set()
    r = x
    prefix_thirds = F(0)
    place = F(1)
    depth = 0
    while True:
        if r == 0:
            return ("member", None)
        if r in seen:
            return ("member", None)
        seen.add(r)
        t = 3 * r
        d = int(t)
        r = t - d
        depth += 1
        place /= 3
        if d == 1:
            if r == 0:
                return ("member", None)
            l = prefix_thirds + place
            return ("gap", (l, l + place, depth))
        prefix_thirds += d * place


def reference_cantor_fn(x):
    x = F(x)
    if not 0 <= x <= 1:
        raise DomainError(f"cantor_fn needs x in [0,1], got {x}", witness=x)
    if x == 1:
        return F(1)
    seen = {}
    bits = 0
    n = 0
    r = x
    while True:
        if r == 0:
            return F(bits, 2**n) if n else F(0)
        if r in seen:
            k = seen[r]
            cyc_len = n - k
            cyc = bits & ((1 << cyc_len) - 1)
            head = bits >> cyc_len
            return F(head, 2**k) + F(cyc, (2**cyc_len - 1) * 2**k)
        seen[r] = n
        t = 3 * r
        d = int(t)
        r = t - d
        n += 1
        if d == 1:
            return F(bits, 2 ** (n - 1)) + F(1, 2**n)
        bits = (bits << 1) | (d // 2)


def reference_svc_locate(x, depth_cap):
    den = x.denominator
    dyadic = den & (den - 1) == 0
    lo, hi = F(0), F(1)
    for step in range(1, depth_cap + 1):
        if x == lo or x == hi:
            return ("member", None)
        if dyadic and step >= 2 and den <= 1 << (2 * step - 1):
            return ("member", None)
        m = (lo + hi) / 2
        half = F(1, 4**step) / 2
        g_lo, g_hi = m - half, m + half
        if g_lo < x < g_hi:
            return ("gap", (g_lo, g_hi, step))
        if x <= g_lo:
            hi = g_lo
        else:
            lo = g_hi
    raise UndecidedError(
        f"fat-Cantor query for {x} unresolved at depth {depth_cap}",
        bounds=(F(0), min(x - lo, hi - x)),
    )


def reference_svc_stage_interval(x, depth):
    x = F(x)
    lo, hi = F(0), F(1)
    if not lo <= x <= hi:
        raise DomainError(f"{x} outside [0,1]", witness=x)
    for step in range(1, depth + 1):
        m = (lo + hi) / 2
        half = F(1, 4**step) / 2
        if m - half < x < m + half:
            raise DomainError(
                f"{x} falls into the step-{step} gap; not a member", witness=x
            )
        if x <= m - half:
            hi = m - half
        else:
            lo = m + half
    return sets.Iv(lo, hi)


def reference_locate(kind, x, depth_cap):
    if kind == sets.TERNARY_CANTOR:
        return reference_cantor_locate(x)
    if kind == sets.SVC:
        return reference_svc_locate(x, depth_cap)
    kind, data = reference_cantor_locate(abs(x))
    if kind == "gap" and x < 0:
        l, r, depth = data
        data = (-r, -l, depth)
    return (kind, data)


def _outcome(fn, *args):
    """The result, or the error's class, message and certified data."""
    try:
        return ("ok", fn(*args))
    except (DomainError, UndecidedError) as exc:
        return (type(exc).__name__, str(exc), getattr(exc, "bounds", None),
                getattr(exc, "witness", None))


def _same(a, b):
    # equal values are not enough for the report bytes: the Fractions must
    # match in type and in their (reduced) numerator and denominator
    assert a == b
    assert repr(a) == repr(b)


def uncached_cantor_fn(x):
    """``funcs.cantor_fn`` on a cold memo, so that the walk runs."""
    funcs._cantor_value.cache_clear()
    return funcs.cantor_fn(x)


# ---------------------------------------------------------------------------
# strategies
# ---------------------------------------------------------------------------

unit_rationals = st.integers(1, 10**6).flatmap(
    lambda q: st.integers(0, q).map(lambda p: F(p, q))
)
dyadics = st.integers(0, 30).flatmap(
    lambda k: st.integers(0, 2**k).map(lambda p: F(p, 2**k))
)
# 0/2 digits, then the two endpoints of the middle third removed below them
triadic_gap_points = st.tuples(
    st.lists(st.sampled_from((0, 2)), max_size=25), st.sampled_from((1, 2))
).map(lambda t: F(3 * int("".join(map(str, t[0])) or "0", 3) + t[1], 3 ** (len(t[0]) + 1)))
cantor_points = st.one_of(
    unit_rationals, dyadics, triadic_gap_points, st.sampled_from((F(0), F(1)))
)


class TestTernaryWalk:
    @settings(max_examples=600, deadline=None)
    @given(cantor_points)
    def test_locator_matches_reference(self, x):
        _same(sets._cantor_classify(x.numerator, x.denominator), reference_cantor_locate(x))

    @settings(max_examples=300, deadline=None)
    @given(cantor_points)
    def test_reflected_locator_matches_reference(self, x):
        for y in (x, -x):
            _same(sets._classify(sets.REFLECTED_CANTOR, y.numerator, y.denominator, 200),
                  reference_locate(sets.REFLECTED_CANTOR, y, 200))

    @settings(max_examples=600, deadline=None)
    @given(cantor_points)
    def test_cantor_fn_matches_reference(self, x):
        _same(uncached_cantor_fn(x), reference_cantor_fn(x))

    def test_edges(self):
        for x in (F(0), F(1), F(-1), F(1, 3), F(2, 3), F(-1, 3), F(1, 2), F(-1, 2),
                  F(1, 4), F(-3, 4), F(1, 9), F(8, 9), F(1, 13), F(1, 10**6)):
            _same(sets._classify(sets.REFLECTED_CANTOR, x.numerator, x.denominator, 200),
                  reference_locate(sets.REFLECTED_CANTOR, x, 200))
            if x >= 0:
                _same(uncached_cantor_fn(x), reference_cantor_fn(x))
        for x in (F(-1, 2), F(3, 2)):
            assert _outcome(uncached_cantor_fn, x) == _outcome(reference_cantor_fn, x)


class TestFatCantorWalk:
    @settings(max_examples=400, deadline=None)
    @given(st.one_of(unit_rationals, dyadics), st.integers(1, 60))
    def test_locator_matches_reference(self, x, cap):
        a = _outcome(sets._svc_classify, x.numerator, x.denominator, cap)
        b = _outcome(reference_svc_locate, x, cap)
        assert a == b
        assert repr(a) == repr(b)

    @settings(max_examples=400, deadline=None)
    @given(st.one_of(unit_rationals, dyadics, st.sampled_from((F(-1, 2), F(3, 2)))),
           st.integers(0, 40))
    def test_stage_interval_matches_reference(self, x, depth):
        a = _outcome(sets.svc_stage_interval, x, depth)
        b = _outcome(reference_svc_stage_interval, x, depth)
        assert a == b
        assert repr(a) == repr(b)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 12), st.data())
    def test_stage_endpoints_match_reference(self, depth, data):
        # realization endpoints are members: both walks settle them, and
        # both find the same stage intervals below them
        k = data.draw(st.integers(0, (2 << depth) - 1))
        x = sets.stage_endpoint(sets.svc(), depth, k)
        assert (sets._svc_classify(x.numerator, x.denominator, 200)
                == reference_svc_locate(x, 200) == ("member", None))
        stage = data.draw(st.integers(0, depth + 8))
        _same(sets.svc_stage_interval(x, stage), reference_svc_stage_interval(x, stage))


# ---------------------------------------------------------------------------
# the CLI's reports with the reference walks patched in
# ---------------------------------------------------------------------------

JOBS = (
    # the cantor-variation benchmark job shape
    ("variation", "--fn", "cantor", "--set", "C", "--domain", "0", "1",
     "--gauge", "min:dist:C+const:1/1024", "--mode", "nv", "--seed", "7007",
     "--out", "variation.json"),
    ("ftc", "--fn", "cantor", "--domain", "0", "1", "--seed", "5", "--expect", "fails"),
    ("partition", "--domain", "-1", "1", "--gauge", "dist:D", "--fn", "cantor_abs",
     "--out", "part.csv"),
    ("counterexample", "--svc", "-n", "12", "--points", "300", "--endpoint-depth", "10"),
    ("partition", "--domain", "1/3", "1", "--gauge", "dist:S"),
)


CANTOR_VALUE = funcs._cantor_value  # the memo behind funcs.cantor_fn


def _run_jobs(directory, capsys):
    cwd = os.getcwd()
    os.chdir(directory)
    runs = []
    try:
        for argv in JOBS:
            sets._locate_default.cache_clear()
            CANTOR_VALUE.cache_clear()
            code = cli.main(list(argv))
            runs.append((code, *capsys.readouterr()))
    finally:
        os.chdir(cwd)
        sets._locate_default.cache_clear()
        CANTOR_VALUE.cache_clear()
    return runs


def test_cli_reports_match_reference_walks(tmp_path, monkeypatch, capsys):
    (tmp_path / "int").mkdir()
    (tmp_path / "ref").mkdir()
    runs = _run_jobs(tmp_path / "int", capsys)
    # the memoised locate and the locate under an explicit cap both classify
    # through sets._classify, on the point's numerator and denominator
    monkeypatch.setattr(sets, "_classify",
                        lambda kind, p, q, cap: reference_locate(kind, F(p, q), cap))
    monkeypatch.setattr(sets, "svc_stage_interval", reference_svc_stage_interval)
    monkeypatch.setattr(funcs, "cantor_fn", reference_cantor_fn)
    ref_runs = _run_jobs(tmp_path / "ref", capsys)
    assert runs == ref_runs
    assert [r[0] for r in runs] == [0, 0, 0, 0, 4]
    new = {p.name: p.read_bytes() for p in sorted((tmp_path / "int").iterdir())}
    ref = {p.name: p.read_bytes() for p in sorted((tmp_path / "ref").iterdir())}
    assert sorted(new) == sorted(ref)
    assert "variation-witness.csv" in new
    for name in new:
        assert new[name] == ref[name], name
