"""The package's frozen records behave as ``@dataclass(frozen=True)`` did.

Every record class is compared with a reference built by
``dataclasses.make_dataclass(..., frozen=True)`` on the same fields and
defaults: construction by position and keyword, defaults, ``==`` within a
class and across two classes, ``hash``, ``repr``, ``replace`` (which must
run the checks again) and immutability. ``Iv`` and ``ValueWithError`` are
written by hand; their references carry the coercion and order checks of
the earlier ``__post_init__``, and their field values come from Hypothesis.
"""

import dataclasses
import pickle
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gaugekit import core, cov, funcs, sets, variation
from gaugekit._record import replace

_NO_DEFAULT = object()
_D = _NO_DEFAULT

# class -> ((field, default), ...), in field order
SPEC = {
    core.Iv: (("lo", _D), ("hi", _D)),
    core.ValueWithError: (("value", _D), ("err", F(0)), ("convention", False)),
    core.TaggedPartition: (("items", _D), ("domain", _D)),
    core.ValidationReport: (("ok", _D), ("violations", _D)),
    core.Gauge: (("radius", _D), ("suggest_tag", None), ("name", "gauge"),
                 ("constant", None)),
    core.HkRow: (("eps", _D), ("sums", _D), ("spread", _D)),
    core.HkReport: (("fn_name", _D), ("a", _D), ("b", _D), ("rows", _D),
                    ("reversed_orientation", _D), ("tol", _D), ("converged", _D)),
    sets.GeneratedSet: (("kind", _D), ("base", _D), ("depth_cap", 200)),
    sets.ComponentRef: (("interval", _D), ("depth_created", _D)),
    funcs.FnSpec: (("name", _D), ("domain", _D), ("eval", _D), ("deriv", None),
                   ("failure_set", funcs.EMPTY_FAILURE), ("modulus", None),
                   ("antideriv", None), ("monotone_breakpoints", None),
                   ("err_modulus", None), ("dini_band", None), ("dini_eta1", None),
                   ("range_hint", None), ("exact", True)),
    variation.VariationRow: (("eps", _D), ("gauge_name", _D), ("samples", _D),
                             ("max_abs", _D), ("max_signed", _D), ("nv_pass", _D),
                             ("ncv_pass", _D)),
    variation.Witness: (("partition", _D), ("gauge_name", _D), ("eps", _D),
                        ("abs_sum", _D), ("signed_sum", _D)),
    variation.VariationReport: (("fn_name", _D), ("set_name", _D), ("domain", _D),
                                ("rows", _D), ("verdict", _D), ("witness", _D)),
    variation.SplitAt: (("points", _D),),
    variation.GreedySign: (),
    variation.PerCell: (),
    variation.AdversarialResult: (("best_abs", _D), ("best_signed", _D),
                                  ("witness", _D), ("gauge_name", _D)),
    variation.NcvScanReport: (("fn_name", _D), ("set_name", _D), ("cells", _D),
                              ("nv_refuted", _D)),
    variation.DiniEstimate: (("value", _D), ("used", _D), ("skipped", _D)),
    cov.CovInstance: (("name", _D), ("f", _D), ("F", _D), ("g", _D), ("domain", _D),
                      ("B", _D), ("fog", _D), ("ncv_gauge", _D),
                      ("expected_full", "holds"), ("expected_cells", ()),
                      ("zero_deriv_set", None), ("null_sets", ())),
    cov.CovRow: (("eps", _D), ("sums", _D), ("max_discrepancy", _D), ("within_eps", _D)),
    cov.CovReport: (("instance", _D), ("interval", _D), ("lhs", _D), ("lhs_channel", _D),
                    ("rows", _D), ("verdict", _D), ("ncv_report", _D),
                    ("consistent", _D), ("witness", _D)),
    cov.ScanReport: (("instance", _D), ("cells", _D), ("nv_on_b", _D), ("nv_refuted", _D),
                     ("equivcond", _D), ("equivcond_consistent", _D)),
    cov.SvcCompositionCheck: (("n", _D), ("x", _D), ("y", _D), ("gap_half", _D),
                              ("quotient", _D), ("bound", _D), ("ok", _D)),
}
GENERIC = [c for c in SPEC if c not in (core.Iv, core.ValueWithError, variation.SplitAt)]


def _reference_iv_post_init(self):
    lo, hi = self.lo, self.hi
    if lo.__class__ is not F:
        lo = F(lo)
        object.__setattr__(self, "lo", lo)
    if hi.__class__ is not F:
        hi = F(hi)
        object.__setattr__(self, "hi", hi)
    if lo.numerator * hi.denominator > hi.numerator * lo.denominator:
        raise ValueError(f"interval endpoints out of order: {lo} > {hi}")


def _reference_vwe_post_init(self):
    if self.value.__class__ is not F:
        object.__setattr__(self, "value", F(self.value))
    err = self.err
    if err.__class__ is not F:
        err = F(err)
        object.__setattr__(self, "err", err)
    if err.numerator < 0:
        raise ValueError("error bound must be nonnegative")


def reference(cls, name=None):
    """A frozen dataclass on cls's fields, with cls's own ``__str__``
    (and ``SplitAt``'s own ``__init__``) and the old checks."""
    fields = [
        (n, object) if d is _NO_DEFAULT else (n, object, dataclasses.field(default=d))
        for n, d in SPEC[cls]
    ]
    namespace = {}
    if "__str__" in vars(cls):
        namespace["__str__"] = vars(cls)["__str__"]
    if cls is variation.SplitAt:
        namespace["__init__"] = vars(cls)["__init__"]
    if cls is core.Iv:
        namespace["__post_init__"] = _reference_iv_post_init
    if cls is core.ValueWithError:
        namespace["__post_init__"] = _reference_vwe_post_init
    return dataclasses.make_dataclass(
        name or cls.__name__, fields, frozen=True, namespace=namespace,
        slots=cls in (core.Iv, core.ValueWithError))


REFERENCES = {cls: reference(cls) for cls in SPEC}


def outcome(fn, *args, **kwargs):
    """("ok", fields, repr, str, hash) or ("raises", type, message)."""
    try:
        obj = fn(*args, **kwargs)
    except Exception as exc:  # noqa: BLE001 - the outcome is the comparison
        return ("raises", type(exc), str(exc))
    fields = tuple(getattr(obj, n) for n, _ in SPEC[_record_class(obj)])
    return ("ok", fields, tuple(type(v) for v in fields), repr(obj), str(obj), hash(obj))


def _record_class(obj):
    for cls, ref in REFERENCES.items():
        if isinstance(obj, (cls, ref)):
            return cls
    raise AssertionError(obj)


def test_spec_lists_every_record():
    found = {
        obj for mod in (core, sets, funcs, variation, cov) for obj in vars(mod).values()
        if isinstance(obj, type) and "__record_fields__" in vars(obj)
    }
    assert found == set(SPEC)
    assert len(SPEC) == 24
    for cls, spec in SPEC.items():
        assert cls.__record_fields__ == cls.__match_args__ == tuple(n for n, _ in spec)


def _values(cls, tag=""):
    """One hashable value per field, distinct per field name and tag; a
    set's depth cap is checked, so it is an integer >= 1."""
    return [7 + len(tag) if (cls, n) == (sets.GeneratedSet, "depth_cap")
            else f"{cls.__name__}.{n}{tag}" for n, _ in SPEC[cls]]


@pytest.mark.parametrize("cls", GENERIC, ids=lambda c: c.__name__)
class TestGenericRecords:
    def test_construction_and_defaults(self, cls):
        ref = REFERENCES[cls]
        values = _values(cls)
        names = [n for n, _ in SPEC[cls]]
        assert outcome(cls, *values) == outcome(ref, *values)
        assert outcome(cls, **dict(zip(names, values))) == outcome(ref, **dict(zip(names, values)))
        required = [n for n, d in SPEC[cls] if d is _NO_DEFAULT]
        kwargs = dict(zip(required, values))
        assert outcome(cls, **kwargs) == outcome(ref, **kwargs)
        assert outcome(cls, *values[: len(required)]) == outcome(ref, *values[: len(required)])
        # too many, too few, unknown and repeated arguments are refused
        for args, kw in (((*values, "extra"), {}), ((), {"no_such_field": 1}),
                         ((values[:1]), {names[0]: 1} if names else {})):
            assert outcome(cls, *args, **kw)[:2] == outcome(ref, *args, **kw)[:2]
        if required:
            assert outcome(cls, *values[: len(required) - 1])[:2] == (
                outcome(ref, *values[: len(required) - 1])[:2])

    def test_equality_and_hash(self, cls):
        ref = REFERENCES[cls]
        a, b, c = cls(*_values(cls)), cls(*_values(cls)), cls(*_values(cls, "'"))
        ra, rb, rc = ref(*_values(cls)), ref(*_values(cls)), ref(*_values(cls, "'"))
        assert (a == b, a != b, a == c, a != c) == (ra == rb, ra != rb, ra == rc, ra != rc)
        assert hash(a) == hash(b) == hash(ra)
        assert (a == ra) is (ra == a) is False  # a record never equals another class
        # two classes on the same fields: never equal, as two dataclasses
        twin = reference(cls, name="Twin")(*_values(cls))
        assert (a == twin, ra == twin) == (False, False)

    def test_replace_runs_init_again(self, cls):
        ref = REFERENCES[cls]
        if not SPEC[cls]:
            assert replace(cls()) == cls()
            return
        first, _ = SPEC[cls][0]
        new = replace(cls(*_values(cls)), **{first: "changed"})
        want = dataclasses.replace(ref(*_values(cls)), **{first: "changed"})
        assert repr(new) == repr(want)
        assert outcome(replace, cls(*_values(cls)), no_such_field=1)[:2] == (
            outcome(dataclasses.replace, ref(*_values(cls)), no_such_field=1)[:2])

    def test_fields_are_frozen(self, cls):
        obj, robj = cls(*_values(cls)), REFERENCES[cls](*_values(cls))
        for name in [n for n, _ in SPEC[cls]] + ["not_a_field"]:
            got = _raised(setattr, obj, name, 1)
            assert isinstance(got, AttributeError)
            assert str(got) == str(_raised(setattr, robj, name, 1))
            got = _raised(delattr, obj, name)
            assert isinstance(got, AttributeError)
            assert str(got) == str(_raised(delattr, robj, name))
        assert repr(obj) == repr(robj)


def _raised(fn, *args):
    try:
        fn(*args)
    except Exception as exc:  # noqa: BLE001 - the exception is the comparison
        return exc
    raise AssertionError(f"{fn.__name__}{args} did not raise")


def test_split_at_keeps_its_own_init():
    ref = REFERENCES[variation.SplitAt]
    for args in ((), (F(1, 2),), (1, F(1, 3), "1/4")):
        assert outcome(variation.SplitAt, *args) == outcome(ref, *args)
    obj = variation.SplitAt(1, 0)
    assert obj.points == (0, 1) and obj == variation.SplitAt(0, 1)
    # replace calls __init__ with the field by keyword, which SplitAt refuses
    assert outcome(replace, obj, points=())[:2] == outcome(
        dataclasses.replace, ref(1, 0), points=())[:2]


numbers = st.one_of(
    st.integers(-10**6, 10**6),
    st.fractions(max_denominator=10**6),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from((F(0), F(-1, 3), 0, -0.0, True, False, "1/3", "-2", "x", None)),
)


def _both(cls, *args, **kwargs):
    return outcome(cls, *args, **kwargs), outcome(REFERENCES[cls], *args, **kwargs)


@settings(max_examples=300, deadline=None)
@given(numbers, numbers, numbers, numbers)
def test_iv_matches_dataclass(lo, hi, lo2, hi2):
    Iv, Ref = core.Iv, REFERENCES[core.Iv]
    new, ref = _both(Iv, lo, hi)
    assert new == ref
    assert _both(Iv, lo=lo, hi=hi) == (new, ref)
    if new[0] != "ok":
        return
    a, ra = Iv(lo, hi), Ref(lo, hi)
    other, rother = _both(Iv, lo2, hi2)
    assert other == rother
    if other[0] == "ok":
        b, rb = Iv(lo2, hi2), Ref(lo2, hi2)
        assert (a == b, a != b) == (ra == rb, ra != rb)
        assert (hash(a) == hash(b)) is (hash(ra) == hash(rb))
    # replace re-runs the coercion and the order check
    assert outcome(replace, a, lo=lo2) == outcome(dataclasses.replace, ra, lo=lo2)
    assert outcome(replace, a, hi=hi2) == outcome(dataclasses.replace, ra, hi=hi2)
    assert pickle.loads(pickle.dumps(a)) == a


@settings(max_examples=300, deadline=None)
@given(numbers, numbers, st.booleans(), numbers)
def test_value_with_error_matches_dataclass(value, err, convention, err2):
    V, Ref = core.ValueWithError, REFERENCES[core.ValueWithError]
    new, ref = _both(V, value, err, convention)
    assert new == ref
    assert _both(V, value=value, err=err, convention=convention) == (new, ref)
    assert _both(V, value) == _both(V, value, F(0), False)
    if new[0] != "ok":
        return
    a, ra = V(value, err, convention), Ref(value, err, convention)
    assert outcome(replace, a, err=err2) == outcome(dataclasses.replace, ra, err=err2)
    assert outcome(replace, a, convention=not convention) == outcome(
        dataclasses.replace, ra, convention=not convention)
    assert pickle.loads(pickle.dumps(a)) == a


@pytest.mark.parametrize("cls", [core.Iv, core.ValueWithError], ids=lambda c: c.__name__)
def test_hand_written_records_are_frozen(cls):
    obj, robj = cls(0, 1), REFERENCES[cls](0, 1)
    assert (obj == robj, robj == obj) == (False, False)
    twin = reference(cls, name=cls.__name__ + "Twin")(0, 1)
    assert obj != twin
    for name in [n for n, _ in SPEC[cls]]:
        for args in ((setattr, obj, name, 1), (delattr, obj, name)):
            got = _raised(*args)
            assert isinstance(got, AttributeError)
            assert str(got) == str(_raised(args[0], robj, *args[2:]))
    # a slotted frozen dataclass raises TypeError from super() here; the
    # hand-written records raise AttributeError, as for a field
    assert isinstance(_raised(setattr, obj, "not_a_field", 1), AttributeError)
    assert isinstance(_raised(delattr, obj, "not_a_field"), AttributeError)
    assert not hasattr(obj, "__dict__")
