"""The exact hot path against the path it replaced.

The FTC integrand, the proof gauge, ``Gauge.radius_at``, the value types
``Iv`` and ``ValueWithError``, the Riemann sums and the set queries each
check a fact once, where it can fail, and re-wrap no ``Fraction``. The
versions that checked again and re-wrapped every value are kept here as
references (``reference_*``). Hypothesis compares values, error bounds and
``convention`` flags, and for errors the first one raised: its class,
message, witness and certified bounds. The CLI's outputs are compared byte
for byte with every reference patched back in, and work-count guards pin
down the work that is no longer done.
"""

import os
import random
from fractions import Fraction as F

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import gaugekit
import oracle
from gaugekit import cli, core, cov, funcs, sets, variation
from gaugekit._record import replace
from gaugekit.core import Gauge, Iv, ValueWithError, constant_gauge
from gaugekit.errors import (
    DomainError,
    GaugeKitError,
    InvalidGaugeError,
    UndecidedError,
    UnsupportedInstanceError,
)
from gaugekit.funcs import (
    EMPTY_FAILURE,
    FiniteFailureSet,
    FnSpec,
    GeneratedFailureSet,
    PredicateFailureSet,
)

ZERO = F(0)
ONE = F(1)

# ---------------------------------------------------------------------------
# references: every value re-wrapped, every fact checked where it is used
# ---------------------------------------------------------------------------


def reference_iv_init(self, lo, hi):
    if not isinstance(lo, F):
        lo = F(lo)
    if not isinstance(hi, F):
        hi = F(hi)
    if lo > hi:
        raise ValueError(f"interval endpoints out of order: {lo} > {hi}")
    object.__setattr__(self, "lo", lo)
    object.__setattr__(self, "hi", hi)


def reference_iv_contains(self, x):
    return self.lo <= x <= self.hi


def reference_vwe_init(self, value, err=ZERO, convention=False):
    if not isinstance(value, F):
        value = F(value)
    if not isinstance(err, F):
        err = F(err)
    if err < 0:
        raise ValueError("error bound must be nonnegative")
    object.__setattr__(self, "value", value)
    object.__setattr__(self, "err", err)
    object.__setattr__(self, "convention", convention)


def reference_radius_at(self, x):
    try:
        r = F(self.radius(x))
    except GaugeKitError:
        raise
    except Exception as exc:  # noqa: BLE001 - the reference's own classification
        raise InvalidGaugeError(f"gauge {self.name!r} failed at {x}: {exc}") from exc
    if r <= 0:
        raise InvalidGaugeError(f"gauge {self.name!r} non-positive at {x}: {r}")
    return r


def reference_proof_gauge(inst, eps):
    eps = F(eps)
    if inst.fog.modulus is None:
        raise UnsupportedInstanceError(
            f"{inst.fog.name} has no increment modulus; instance {inst.name} "
            "cannot build its gauge"
        )
    on_b = inst.ncv_gauge(eps)
    half = eps / 2

    def radius(x):
        x = F(x)
        if x in inst.B:
            return on_b.radius_at(x)
        return min(inst.fog.modulus(x, half), ONE)

    def suggest(iv):
        return inst.B.suggestion_points(iv) + on_b.suggestions(iv)

    return Gauge(radius=radius, suggest_tag=suggest, name=f"cov({inst.name})")


def reference_factors(inst):
    def factors(x):
        x = F(x)
        if x in inst.B:
            return None
        gp = inst.g.deriv_at(x)
        gv = inst.g(x)
        fv = inst.f(gv.value)
        if gv.err != 0:
            raise UnsupportedInstanceError(
                f"inexact inner value for {inst.name} integrand"
            )
        return fv, gp

    return factors


def reference_integrand_with_convention(inst):
    factors = reference_factors(inst)

    def ev(x):
        fs = factors(x)
        if fs is None:
            return ValueWithError(ZERO, ZERO, convention=True)
        fv, gp = fs
        return ValueWithError(
            fv.value * gp.value,
            abs(fv.value) * gp.err + abs(gp.value) * fv.err + fv.err * gp.err,
        )

    return FnSpec(
        name=f"({inst.f.name}∘{inst.g.name})·h",
        domain=inst.g.domain,
        eval=ev,
        exact=inst.f.exact and inst.g.exact,
    )


def reference_integrand(inst):
    """``cov._integrand``: the FnSpec, and its factors as integer factors.
    They check every tag against the FnSpec's domain, which the factors of
    ``cov._integrand`` take on trust: on the reference path a tag outside
    it would fail the run."""
    fgh = reference_integrand_with_convention(inst)
    factors = reference_factors(inst)

    def checked(x):
        x = F(x)
        if not fgh.domain.lo <= x <= fgh.domain.hi:
            raise fgh.domain_error(x)
        fs = factors(x)
        return None if fs is None else tuple(map(oracle.int_factor, fs))

    return fgh, checked


_SQUARE_FN = funcs.square_fn


def reference_square_fn(domain, name="square"):
    """``square_fn`` with Fraction products and no kernel."""
    width = domain.length

    def modulus(x, eps):
        return F(eps) / width

    return replace(_SQUARE_FN(domain, name), modulus=modulus,
                   eval=lambda x: ValueWithError(x * x),
                   deriv=lambda x: ValueWithError(2 * x))


def reference_member(s, x):
    x = F(x)
    if x not in s.base:
        raise DomainError(f"{x} outside base {s.base} of {s.kind}", witness=x)
    kind, _ = sets._locate_memo(s, x)
    return kind == "member"


def reference_complement_component(s, x):
    x = F(x)
    if not s.base.interior_contains(x):
        raise DomainError(f"{x} not interior to base {s.base} of {s.kind}", witness=x)
    kind, data = sets._locate_memo(s, x)
    if kind == "member":
        raise DomainError(f"{x} belongs to {s.kind}", witness=x)
    l, r, depth = data
    return sets.ComponentRef(Iv(l, r), depth)


def reference_distance(s, x):
    x = F(x)
    if x < s.base.lo:
        return s.base.lo - x
    if x > s.base.hi:
        return x - s.base.hi
    kind, data = sets._locate_memo(s, x)
    if kind == "member":
        return F(0)
    l, r, _ = data
    return min(x - l, r - x)


def reference_generated_contains(self, x):
    return x in self.set.base and sets.member(self.set, x)


def reference_finite_contains(self, x):
    return F(x) in self._members


def reference_predicate_contains(self, x):
    return bool(self.fn(F(x)))


# ---------------------------------------------------------------------------
# comparing outcomes
# ---------------------------------------------------------------------------


def _outcome(fn, *args):
    """The result, or the error's class, message and certified data."""
    try:
        return ("ok", fn(*args))
    except (GaugeKitError, ArithmeticError, ValueError, TypeError) as exc:
        return (type(exc).__name__, str(exc), getattr(exc, "witness", None),
                getattr(exc, "bounds", None))


def _same(a, b):
    # equal values are not enough for the report bytes: the Fractions must
    # match in type and in their reduced numerator and denominator, and the
    # value types in every field, the convention flag included
    assert a == b
    assert repr(a) == repr(b)


def _factor_values(fs):
    """Integer factors as (value, error bound) Fraction pairs."""
    return None if fs is None else [(F(vn, vd), F(en, ed)) for vn, vd, en, ed in fs]


def _same_factors(inst, x):
    """At a tag x in g's domain, the integer factors and the reference's
    agree factor by factor as values and error bounds, and their sums over
    one cell tagged at x (by core, and by the oracle in Fractions) agree:
    each result, or its first error. Off g's domain the factors are never
    called (the FnSpec's call checks x there)."""
    x = F(x)
    if x not in inst.g.domain:
        return
    new, ref = cov._integrand(inst)[1], reference_integrand(inst)[1]
    _same(_outcome(lambda: _factor_values(new(x))),
          _outcome(lambda: _factor_values(ref(x))))
    cell = Iv(x, x + F(2, 7))
    part = core.TaggedPartition((core.Item(x, cell),), cell)
    _same(_outcome(lambda: next(core._product_sums(new, (part,)))[1]),
          _outcome(lambda: next(oracle.product_sums(ref, (part,)))[1]))


# ---------------------------------------------------------------------------
# instances: the registry, the FTC instance of each catalog function, and
# instances that reach the integrand's rarer branches
# ---------------------------------------------------------------------------


def _blurred_slope() -> FnSpec:
    """x on [0, 1], exact, with a derivative known only to within 1/7."""
    return FnSpec(
        name="blurred_slope",
        domain=Iv(0, 1),
        eval=lambda x: ValueWithError(x),
        deriv=lambda x: ValueWithError(ONE, F(1, 7)),
        modulus=lambda x, eps: F(eps),
        failure_set=FiniteFailureSet((F(1, 2),)),
        range_hint=Iv(0, 1),
    )


def _no_derivative() -> FnSpec:
    return FnSpec(
        name="no_derivative",
        domain=Iv(0, 1),
        eval=lambda x: ValueWithError(x),
        failure_set=FiniteFailureSet((F(1, 3),)),
        modulus=lambda x, eps: 1,
        range_hint=Iv(0, 1),
    )


def _custom_instances():
    unit = Iv(0, 1)
    square = funcs.square_fn(unit)
    qroot = funcs.quartic_root_spec()
    empty = lambda eps: variation.default_gauge(EMPTY_FAILURE)  # noqa: E731
    base = dict(F=None, domain=unit, B=EMPTY_FAILURE, ncv_gauge=empty)
    return [
        # g(x) = x² leaves f's domain [0, 1/4] for x > 1/2
        cov.CovInstance(name="narrow-f", f=funcs.const_fn(1, Iv(0, F(1, 4))),
                        g=square, fog=square, **base),
        # f inexact: the error products are taken
        cov.CovInstance(name="inexact-f", f=qroot, g=square, fog=square, **base),
        # g' inexact, and 0 by convention on g's failure set {1/2}
        cov.CovInstance(name="inexact-deriv", f=funcs.const_fn(1, unit),
                        g=_blurred_slope(), fog=_blurred_slope(), **base),
        # f and g' both inexact: the error bound has the cross term
        cov.CovInstance(name="inexact-both", f=qroot, g=_blurred_slope(),
                        fog=_blurred_slope(), **base),
        # g without derivative data, and a B that is a finite set
        cov.CovInstance(name="no-deriv", f=funcs.const_fn(1, unit),
                        g=_no_derivative(), fog=_no_derivative(),
                        **{**base, "B": FiniteFailureSet((F(1, 5),))}),
        # g with a kernel, a failure set {1/2} and B = {1/4}; f's domain
        # [0, 1/2] ends inside g's range
        cov.CovInstance(name="kernel-with-sets", f=funcs.const_fn(1, Iv(0, F(1, 2))),
                        g=replace(square, failure_set=FiniteFailureSet((F(1, 2),))),
                        fog=square, **{**base, "B": FiniteFailureSet((F(1, 4),))}),
        # B empty, but B's gauge has a tag oracle: the proof gauge keeps one
        cov.CovInstance(name="oracle-on-b", f=funcs.const_fn(1, unit), g=square,
                        fog=square, **{**base, "ncv_gauge": lambda eps: Gauge(
                            radius=lambda x: ONE, suggest_tag=lambda iv: (iv.lo,))}),
    ]


def _instances():
    out = list(cov.instances().values())
    for name in funcs.catalog_names():
        g = funcs.lookup(name)
        if g.range_hint is not None:
            out.append(cov.ftc_instance(g))
    return out + _custom_instances()


INSTANCES = _instances()
INSTANCE_NAMES = [inst.name for inst in INSTANCES]


def _special_points(inst):
    """Points on B and on g's failure set, endpoints, and non-Fractions."""
    lo, hi = inst.domain.lo, inst.domain.hi
    pts = [lo, hi, (lo + hi) / 2, lo - 1, hi + F(1, 3), int(lo), float(hi),
           (lo + hi) / 3, F(1, 3), F(2, 9), F(1, 4), F(1, 2), F(1, 5)]
    for cell in (inst.domain, Iv(lo, (lo + hi) / 2), Iv((2 * lo + hi) / 3, hi)):
        for fs in (inst.B, inst.g.failure_set):
            try:
                pts += fs.suggestion_points(cell)
            except UndecidedError:  # a fat-Cantor midpoint past the cap
                pass
    return pts


def _points(inst):
    lo, hi = inst.domain.lo, inst.domain.hi
    inside = st.integers(1, 10**6).flatmap(
        lambda q: st.integers(0, q).map(lambda p: lo + (hi - lo) * F(p, q))
    )
    dyadic = st.integers(0, 20).flatmap(
        lambda k: st.integers(0, 2**k).map(lambda p: lo + (hi - lo) * F(p, 2**k))
    )
    return st.one_of(inside, dyadic, st.sampled_from(_special_points(inst)))


instance_and_point = st.sampled_from(INSTANCES).flatmap(
    lambda inst: st.tuples(st.just(inst), _points(inst))
)


# ---------------------------------------------------------------------------
# the integrand and the proof gauge
# ---------------------------------------------------------------------------


class TestIntegrand:
    @settings(max_examples=400, deadline=None)
    @given(instance_and_point)
    def test_matches_reference(self, case):
        inst, x = case
        new = cov.integrand_with_convention(inst)
        ref = reference_integrand_with_convention(inst)
        assert (new.name, new.domain, new.exact) == (ref.name, ref.domain, ref.exact)
        _same(_outcome(new, x), _outcome(ref, x))

    @settings(max_examples=200, deadline=None)
    @given(instance_and_point)
    def test_factors_match_reference(self, case):
        inst, x = case
        _same_factors(inst, x)  # the Riemann sums pass tags as Fractions

    @pytest.mark.parametrize("inst", INSTANCES, ids=INSTANCE_NAMES)
    def test_sums_over_the_domain_match_oracle(self, inst):
        # the factors over seeded partitions of the instance's domain
        gauge = constant_gauge(F(1, 9))
        outcomes = []
        for factors, sums in ((cov._integrand(inst)[1], core._product_sums),
                              (reference_integrand(inst)[1], oracle.product_sums)):
            parts = core.sample_partitions(inst.domain, gauge, 3, random.Random(2))
            outcomes.append(_outcome(lambda: [s for _, s in sums(factors, parts)]))
        _same(*outcomes)

    def test_interval_past_g_fails_at_its_end(self):
        # the instance's domain reaches past g's: cov_check fails with g's
        # DomainError at the interval's end, before the factors see any tag
        unit, wide = Iv(0, 1), Iv(0, 2)
        g = funcs.square_fn(unit)
        inst = cov.CovInstance(name="past-g", f=funcs.const_fn(1, Iv(0, 4)), F=None, g=g,
                               domain=wide, B=EMPTY_FAILURE, fog=g,
                               ncv_gauge=lambda eps: variation.default_gauge(EMPTY_FAILURE))
        out = _outcome(cov.cov_check, inst, wide)
        assert out[:3] == ("DomainError", f"square evaluated at 2 outside {unit}", 2)

    @pytest.mark.parametrize("inst", INSTANCES, ids=INSTANCE_NAMES)
    def test_special_points_match_reference(self, inst):
        new = cov.integrand_with_convention(inst)
        ref = reference_integrand_with_convention(inst)
        for x in _special_points(inst):
            _same(_outcome(new, x), _outcome(ref, x))
            _same_factors(inst, x)

    def test_every_branch_is_reached(self):
        # the special points reach every outcome the integrand can have
        seen = set()
        for inst in INSTANCES:
            fgh = cov.integrand_with_convention(inst)
            for x in _special_points(inst):
                out = _outcome(fgh, x)
                if out[0] == "ok":
                    v = out[1]
                    seen.add("convention" if v.convention else
                             "inexact" if v.err else "exact")
                else:
                    seen.add((out[0], out[1].split(" ")[0]))
        assert {
            "convention", "inexact", "exact",
            ("DomainError", "(one∘square)·h"),  # x outside the integrand's domain
            ("DomainError", "one"),  # g(x) outside f's domain
            ("UnsupportedInstanceError", "inexact"),  # an inexact g(x)
            ("UnsupportedInstanceError", "no_derivative"),
            ("UndecidedError", "fat-Cantor"),
        } <= seen


signed_rationals = st.builds(F, st.integers(-10**6, 10**6), st.integers(1, 10**6))


class TestKernels:
    """The exact kernels against the Fraction lambdas they replaced."""

    @settings(max_examples=300, deadline=None)
    @given(signed_rationals, signed_rationals, st.integers(1, 12))
    def test_match_fraction_lambdas(self, x, c, k):
        wide = Iv(-10**6, 10**6)
        for spec, value, slope in (
            (funcs.identity_fn(wide), lambda x: x, lambda x: ONE),
            (funcs.square_fn(wide), lambda x: x * x, lambda x: 2 * x),
            (funcs.const_fn(c, wide), lambda x: c, lambda x: ZERO),
        ):
            kernel = spec.exact_kernel()
            # an unreduced n/d, as the integrand passes g(x) to f's kernel
            for n, d in ((x.numerator, x.denominator), (k * x.numerator, k * x.denominator)):
                (vn, vd), (dn, dd) = kernel(n, d)
                assert vd > 0 and dd > 0
                assert (F(vn, vd), F(dn, dd)) == (value(x), slope(x))
            _same(spec.eval(x), ValueWithError(value(x)))
            _same(spec.deriv(x), ValueWithError(slope(x)))

    def test_replaced_eval_or_deriv_drops_the_kernel(self):
        square = funcs.square_fn(Iv(-1, 1))
        assert replace(square, deriv=lambda x: ValueWithError(ONE)).exact_kernel() is None
        assert replace(square, eval=lambda x: ValueWithError(x)).exact_kernel() is None
        kernel = square.exact_kernel()
        assert kernel is not None and replace(square, modulus=None).exact_kernel() is kernel


class TestProofGauge:
    @settings(max_examples=300, deadline=None)
    @given(instance_and_point, st.sampled_from((F(1, 10), F(1, 1000), F(3, 7))))
    def test_radius_matches_reference(self, case, eps):
        inst, x = case
        new = _outcome(cov.proof_gauge, inst, eps)
        ref = _outcome(reference_proof_gauge, inst, eps)
        if new[0] != "ok" or ref[0] != "ok":
            _same(new, ref)
            return
        new, ref = new[1], ref[1]
        assert new.name == ref.name
        _same(_outcome(new.radius_at, x), _outcome(reference_radius_at, ref, x))

    @settings(max_examples=300, deadline=None)
    @given(instance_and_point, instance_and_point)
    def test_suggestions_match_reference(self, a, b):
        inst, x = a
        y = b[1] if b[0] is inst else inst.domain.hi
        assume(x.__class__ is F and y.__class__ is F)
        lo, hi = sorted((x, y))
        assume(lo in inst.domain and hi in inst.domain)
        eps = F(1, 100)
        new = _outcome(cov.proof_gauge, inst, eps)
        if new[0] != "ok":
            return
        ref = reference_proof_gauge(inst, eps)
        iv = Iv(lo, hi)
        _same(_outcome(new[1].suggestions, iv), _outcome(ref.suggestions, iv))

    def test_builds_the_reference_partition(self):
        # an oracle that suggests nothing and no oracle give one partition
        inst = cov.ftc_instance(funcs.lookup("square"))
        eps = F(1, 10)
        new = core.cousin_partition(inst.domain, cov.proof_gauge(inst, eps))
        ref = core.cousin_partition(inst.domain, reference_proof_gauge(inst, eps))
        assert new == ref


# ---------------------------------------------------------------------------
# Gauge.radius_at, Iv and ValueWithError
# ---------------------------------------------------------------------------


class _Unclassified(Exception):
    pass


def _raise(exc):
    raise exc


RADII = [
    lambda x: x,                      # the point itself: 0 at 0, negative below
    lambda x: F(1, 3),
    lambda x: 0,
    lambda x: F(0),
    lambda x: -1,
    lambda x: F(-1, 5),
    lambda x: 2,
    lambda x: 0.25,
    lambda x: -0.5,
    lambda x: 0.0,
    lambda x: float("nan"),
    lambda x: float("inf"),
    lambda x: True,
    lambda x: "1/3",
    lambda x: "nope",
    lambda x: None,
    lambda x: 1 / x,                  # ZeroDivisionError at 0
    lambda x: _raise(UndecidedError("undecided at x", bounds=(ZERO, ONE))),
    lambda x: _raise(DomainError("off the domain", witness=x)),
    lambda x: _raise(_Unclassified("unclassified")),
]


class TestRadiusAt:
    @settings(max_examples=400, deadline=None)
    @given(st.sampled_from(range(len(RADII))),
           st.one_of(st.fractions(min_value=-2, max_value=2, max_denominator=50),
                     st.integers(-2, 2), st.sampled_from((0.5, F(0)))))
    def test_matches_reference(self, k, x):
        gauge = Gauge(radius=RADII[k], name=f"radius{k}")
        _same(_outcome(gauge.radius_at, x), _outcome(reference_radius_at, gauge, x))
        new = _outcome(gauge.radius_at, x)
        if new[0] == "ok":
            assert type(new[1]) is F

    def test_chained_cause_is_kept(self):
        gauge = Gauge(radius=lambda x: 1 / x, name="inv")
        with pytest.raises(InvalidGaugeError) as exc:
            gauge.radius_at(0)
        assert isinstance(exc.value.__cause__, ZeroDivisionError)


numbers = st.one_of(
    st.fractions(max_denominator=10**6),
    st.integers(-10**6, 10**6),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from((F(0), F(-1, 3), 0, -0.0, True, "1/3", "x", None)),
)


class _ReferenceIv:
    __init__ = reference_iv_init


class _ReferenceVwe:
    __init__ = reference_vwe_init


class TestValueTypes:
    @settings(max_examples=300, deadline=None)
    @given(numbers, numbers, numbers)
    def test_iv_contains_matches_reference(self, lo, hi, x):
        iv = _outcome(Iv, lo, hi)
        assume(iv[0] == "ok")
        _same(_outcome(iv[1].__contains__, x), _outcome(reference_iv_contains, iv[1], x))

    @settings(max_examples=300, deadline=None)
    @given(st.fractions(max_denominator=10**4), st.fractions(max_denominator=10**4),
           st.fractions(max_denominator=10**4))
    def test_iv_contains_fractions(self, a, b, x):
        iv = Iv(min(a, b), max(a, b))
        assert (x in iv) is reference_iv_contains(iv, x)
        for y in (iv.lo, iv.hi, F(iv.lo.numerator + 1, iv.lo.denominator)):
            assert (y in iv) is reference_iv_contains(iv, y)

    @settings(max_examples=300, deadline=None)
    @given(numbers, numbers)
    def test_iv_construction_matches_reference(self, lo, hi):
        new = _outcome(Iv, lo, hi)
        ref = _outcome(_ReferenceIv, lo, hi)
        if ref[0] == "ok":
            ref = ("ok", Iv(ref[1].lo, ref[1].hi))
            assert type(new[1].lo) is type(new[1].hi) is F
        _same(new, ref)

    @settings(max_examples=300, deadline=None)
    @given(numbers, numbers, st.booleans())
    def test_value_with_error_matches_reference(self, value, err, conv):
        new = _outcome(ValueWithError, value, err, conv)
        ref = _outcome(_ReferenceVwe, value, err, conv)
        if ref[0] == "ok":
            r = ref[1]
            ref = ("ok", ValueWithError(r.value, r.err, r.convention))
            v = new[1]
            assert type(v.value) is type(v.err) is F
        _same(new, ref)


# ---------------------------------------------------------------------------
# Riemann sums
# ---------------------------------------------------------------------------


class TestRiemannSums:
    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(("square", "identity", "cantor", "quartic_root",
                            "cantor_abs", "one", "zero")),
           st.sampled_from((F(1, 3), F(1, 8), F(2), F(1, 50))),
           st.integers(0, 2**32), st.integers(1, 5))
    def test_matches_full_sums(self, name, r, seed, samples):
        f = funcs.lookup(name)
        gauge = constant_gauge(r)
        tree = core.PartitionTree()
        parts = list(core.sample_partitions(
            f.domain, gauge, samples, random.Random(seed), None, tree))
        new = [s for _, s in core._riemann_sums(f, parts)]
        ref = [s for _, s in oracle.riemann_sums(f, parts)]
        _same(new, ref)

    def test_first_error_matches_full_sums(self):
        # quartic_svc_dist tagged at 1/3: an undecided fat-Cantor query mid-sum
        f = funcs.lookup("quartic_svc_dist")
        gauge = Gauge(radius=lambda x: F(1, 40), suggest_tag=lambda iv: (F(1, 3),))
        parts = [core.cousin_partition(f.domain, gauge)]
        assert _outcome(lambda: list(core._riemann_sums(f, parts)))[0] == "UndecidedError"
        _same(_outcome(lambda: list(core._riemann_sums(f, parts))),
              _outcome(lambda: list(oracle.riemann_sums(f, parts))))


# ---------------------------------------------------------------------------
# set queries
# ---------------------------------------------------------------------------

GENERATED = (sets.ternary_cantor(), sets.reflected_cantor(), sets.svc())
set_points = st.one_of(
    st.fractions(min_value=-2, max_value=2, max_denominator=3**8),
    st.integers(0, 12).flatmap(lambda k: st.integers(-2**k, 2**k).map(lambda p: F(p, 2**k))),
    st.integers(-1, 1),
    st.sampled_from((0.5, 0.25, 1.0, -1.0, float("nan"), F(1, 3), F(2, 3), F(-1, 3),
                     F(1, 4), F(3, 8), F(5, 8), F(1, 7), F(1, 10))),
)


class TestSetQueries:
    @settings(max_examples=400, deadline=None)
    @given(st.sampled_from(GENERATED), set_points, st.sampled_from((None, 3, 40)))
    def test_queries_match_reference(self, s, x, cap):
        s = s if cap is None else replace(s, depth_cap=cap)
        for new, ref in ((sets.member, reference_member),
                         (sets.distance, reference_distance),
                         (sets.complement_component, reference_complement_component)):
            _same(_outcome(new, s, x), _outcome(ref, s, x))

    @settings(max_examples=400, deadline=None)
    @given(set_points)
    def test_failure_sets_match_reference(self, x):
        for s in GENERATED:
            fs = GeneratedFailureSet(s)
            _same(_outcome(fs.__contains__, x), _outcome(reference_generated_contains, fs, x))
        finite = FiniteFailureSet((0, F(1, 3), F(-1, 2), 1))
        _same(_outcome(finite.__contains__, x), _outcome(reference_finite_contains, finite, x))
        pred = PredicateFailureSet(lambda y: y.denominator == 3, "thirds")
        _same(_outcome(pred.__contains__, x), _outcome(reference_predicate_contains, pred, x))

    def test_undecided_bounds_kept(self):
        fs = GeneratedFailureSet(sets.svc())
        x = F(1, 3)  # undecided at the default cap
        a, b = _outcome(fs.__contains__, x), _outcome(reference_generated_contains, fs, x)
        assert a[0] == "UndecidedError" and a[3] is not None
        _same(a, b)


# ---------------------------------------------------------------------------
# work counts that fail on the path that checked again and re-wrapped
# ---------------------------------------------------------------------------


class TestWorkCounts:
    def test_one_fnspec_call_per_integrand_evaluation(self, monkeypatch):
        fgh = cov.integrand_with_convention(cov.ftc_instance(funcs.lookup("square")))
        calls = []
        inner = FnSpec.__call__

        def counted(self, x):
            calls.append(self.name)
            return inner(self, x)

        monkeypatch.setattr(FnSpec, "__call__", counted)
        for x in (F(1, 3), F(-1, 2), F(0)):
            calls.clear()
            assert fgh(x) == ValueWithError(2 * x)
            assert calls == [fgh.name]

    @pytest.mark.parametrize("inst", INSTANCES, ids=INSTANCE_NAMES)
    def test_proof_gauge_has_oracle_unless_nothing_to_suggest(self, inst):
        gauge = _outcome(cov.proof_gauge, inst, F(1, 10))
        if gauge[0] != "ok":
            assert inst.fog.modulus is None
            return
        nothing = inst.B is EMPTY_FAILURE and inst.ncv_gauge(F(1, 10)).suggest_tag is None
        assert (gauge[1].suggest_tag is None) is nothing

    def test_square_ftc_gauge_has_no_oracle(self):
        inst = cov.ftc_instance(funcs.lookup("square"))
        assert cov.proof_gauge(inst, F(1, 1000)).suggest_tag is None

    def test_square_modulus_divides_once_per_eps(self, monkeypatch):
        divisions = []
        inner = F.__truediv__

        def counted(a, b):
            divisions.append((a, b))
            return inner(a, b)

        monkeypatch.setattr(F, "__truediv__", counted)
        modulus = funcs.square_fn(Iv(-1, 1)).modulus
        eps, other = F(1, 2000), F(1, 20)
        assert [modulus(F(k, 7), eps) for k in range(5)] == [F(1, 4000)] * 5
        assert len(divisions) == 1
        assert modulus(ZERO, other) == F(1, 40) and modulus(ONE, other) == F(1, 40)
        assert len(divisions) == 2
        assert modulus(ZERO, eps) == F(1, 4000)  # only the latest eps is kept
        assert len(divisions) == 3


# ---------------------------------------------------------------------------
# the CLI's outputs with the reference path patched in
# ---------------------------------------------------------------------------

JOBS = (
    # the README's examples
    ("catalog",),
    ("integrate", "--fn", "linear", "--domain", "0", "1", "--eps", "1e-3", "--seed", "1"),
    ("partition", "--domain", "-1", "1", "--gauge", "dist:D", "--fn", "cantor_abs",
     "--out", "part.csv"),
    ("variation", "--fn", "cantor_abs", "--set", "D", "--domain", "-1", "1",
     "--mode", "ncv", "--seed", "2"),
    ("variation", "--fn", "cantor_abs", "--set", "D", "--domain", "-1", "1",
     "--mode", "nv", "--adversary", "split:0", "--seed", "3"),
    ("cov", "--instance", "cantorabs-unit", "--interval", "0", "1", "--seed", "4"),
    ("ftc", "--fn", "cantor", "--domain", "0", "1", "--seed", "5", "--expect", "fails"),
    ("scan", "--instance", "cantorabs-unit", "--grid", "-1", "0", "0", "1", "-1", "1",
     "--seed", "6"),
    ("counterexample", "--svc", "-n", "10", "--x-index", "0"),
    # both benchmark job shapes
    *(("ftc", "--fn", "square", "--domain", "-1", "1", "--eps", "1e-3",
       "--expect", "holds", "--seed", str(s), "--out", f"ftc-{s}.json") for s in (1, 2, 3)),
    *(("variation", "--fn", "cantor", "--set", "C", "--domain", "0", "1",
       "--gauge", "min:dist:C+const:1/1024", "--mode", "nv", "--seed", str(s),
       "--out", f"variation-{s}.json") for s in (1, 2, 3)),
    ("integrate", "--fn", "cantor", "--domain", "0", "1", "--eps", "1e-3", "--seed", "1"),
    # an FTC whose sums of g' do not cancel by symmetry, and the cells of a
    # gauge without a tag oracle
    ("ftc", "--fn", "square", "--domain", "1/7", "5/6", "--eps", "1e-2", "--seed", "4",
     "--out", "ftc-off-centre.json"),
    ("partition", "--domain", "1/7", "5/6", "--gauge", "const:1/50", "--fn", "square",
     "--out", "part-const.csv"),
    ("partition", "--domain", "1/3", "1", "--gauge", "dist:S"),
)
EXIT_CODES = [0] * (len(JOBS) - 1) + [4]

PACKAGE = (gaugekit, core, sets, funcs, variation, cov, cli)


def _clear_caches():
    sets._locate_default.cache_clear()
    funcs._cantor_value.cache_clear()
    funcs.catalog.cache_clear()
    cov.instances.cache_clear()


def _run_jobs(directory, capsys):
    cwd = os.getcwd()
    os.chdir(directory)
    runs = []
    try:
        for argv in JOBS:
            _clear_caches()
            code = cli.main(list(argv))
            runs.append((code, *capsys.readouterr()))
    finally:
        os.chdir(cwd)
        _clear_caches()
    return runs


def _patch_everywhere(mp, obj, replacement):
    """Replace every binding of ``obj`` in the package's modules."""
    for mod in PACKAGE:
        for key, val in list(vars(mod).items()):
            if val is obj:
                mp.setattr(mod, key, replacement)


def _not_on_the_reference_path(*args):
    raise AssertionError("a fast path ran on the reference path")


def test_cli_outputs_match_reference_path(tmp_path, capsys, monkeypatch):
    (tmp_path / "new").mkdir()
    (tmp_path / "ref").mkdir()
    monkeypatch.delenv("GAUGEKIT_DEPTH_CAP", raising=False)
    runs = _run_jobs(tmp_path / "new", capsys)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(Iv, "__init__", reference_iv_init)
        mp.setattr(Iv, "__contains__", reference_iv_contains)
        mp.setattr(ValueWithError, "__init__", reference_vwe_init)
        mp.setattr(Gauge, "radius_at", reference_radius_at)
        mp.setattr(core.PartitionTree, "_grow", oracle.RadiusPassingTree._grow)
        mp.setattr(FnSpec, "exact_kernel", _not_on_the_reference_path)
        mp.setattr(GeneratedFailureSet, "__contains__", reference_generated_contains)
        mp.setattr(FiniteFailureSet, "__contains__", reference_finite_contains)
        mp.setattr(PredicateFailureSet, "__contains__", reference_predicate_contains)
        for name, ref in (
            ("integrand_with_convention", reference_integrand_with_convention),
            ("_integrand", reference_integrand),
            ("proof_gauge", reference_proof_gauge),
        ):
            _patch_everywhere(mp, getattr(cov, name), ref)
        _patch_everywhere(mp, core._riemann_sums, oracle.riemann_sums)
        _patch_everywhere(mp, core._product_sums, oracle.product_sums)
        _patch_everywhere(mp, core._sample_sums, oracle.sample_sums)
        _patch_everywhere(mp, funcs.square_fn, reference_square_fn)
        for name, ref in (("member", reference_member), ("distance", reference_distance),
                          ("complement_component", reference_complement_component)):
            _patch_everywhere(mp, getattr(sets, name), ref)
        ref_runs = _run_jobs(tmp_path / "ref", capsys)
    _clear_caches()
    assert [r[0] for r in runs] == EXIT_CODES
    assert runs == ref_runs
    new = {p.name: p.read_bytes() for p in sorted((tmp_path / "new").iterdir())}
    ref = {p.name: p.read_bytes() for p in sorted((tmp_path / "ref").iterdir())}
    assert sorted(new) == sorted(ref)
    assert {"variation-1-witness.csv", "ftc-1.json", "part.csv"} <= set(new)
    for name in new:
        assert new[name] == ref[name], name
