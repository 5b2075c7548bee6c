"""Catalog functions: exact evaluation, derivative metadata, certificates.

Each FnSpec bundles a pointwise evaluator with the analytic side data the
rest of the package consumes: where the derivative exists (and its value),
the declared failure set, a Taylor-increment modulus, monotonicity
breakpoints, and Dini-band certificates. All of that is declared per
function, never inferred numerically: the quantifiers involved are not
checkable by sampling.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Optional, Sequence, Tuple

from . import sets
from ._record import record
from .core import Iv, ValueWithError, _coprime_fraction, _exact_value, rat_str
from .errors import DomainError, UnsupportedInstanceError

ZERO = Fraction(0)
ONE = Fraction(1)

DEFAULT_ROOT_ERR = Fraction(1, 10**12)


# ---------------------------------------------------------------------------
# failure-set descriptors (decidable membership for every kind)
# ---------------------------------------------------------------------------


class FailureSet:
    """Base descriptor; subclasses implement exact membership."""

    kind = "abstract"

    def __contains__(self, x) -> bool:
        raise NotImplementedError

    def describe(self) -> str:
        return self.kind

    def suggestion_points(self, iv: Iv) -> Tuple[Fraction, ...]:
        """Candidate member points inside iv, for tag oracles. Best effort."""
        return ()


class EmptyFailureSet(FailureSet):
    kind = "empty"

    def __contains__(self, x) -> bool:
        return False


class FiniteFailureSet(FailureSet):
    kind = "finite"

    def __init__(self, points: Sequence):
        self.points = tuple(sorted(Fraction(p) for p in points))
        self._members = frozenset(self.points)

    def __contains__(self, x) -> bool:
        if x.__class__ is not Fraction:
            x = Fraction(x)
        return x in self._members

    def describe(self) -> str:
        return "finite{" + ",".join(rat_str(p) for p in self.points) + "}"

    def suggestion_points(self, iv: Iv) -> Tuple[Fraction, ...]:
        return tuple(p for p in self.points if p in iv)


class GeneratedFailureSet(FailureSet):
    kind = "generated"

    def __init__(self, s: sets.GeneratedSet):
        self.set = s
        lo, hi = s.base.lo, s.base.hi
        self._base = (lo.numerator, lo.denominator, hi.numerator, hi.denominator)

    def __contains__(self, x) -> bool:
        # the base check here is the only one: the memoised locate follows
        # it directly, where sets.member would check the base again
        s = self.set
        if x.__class__ is Fraction:
            xn, xd = x.numerator, x.denominator
            ln, ld, hn, hd = self._base
            if not (ln * xd <= xn * ld and xn * hd <= hn * xd):
                return False
        elif x not in s.base:
            return False
        else:
            x = Fraction(x)
        return sets._locate_memo(s, x)[0] == "member"

    def describe(self) -> str:
        return f"generated({self.set.kind})"

    def suggestion_points(self, iv: Iv) -> Tuple[Fraction, ...]:
        return nearest_set_points(self.set, iv)


class PredicateFailureSet(FailureSet):
    kind = "predicate"

    def __init__(self, fn: Callable[[Fraction], bool], description: str,
                 suggest: Optional[Callable[[Iv], Tuple[Fraction, ...]]] = None):
        self.fn = fn
        self.description = description
        self._suggest = suggest

    def __contains__(self, x) -> bool:
        if x.__class__ is not Fraction:
            x = Fraction(x)
        return bool(self.fn(x))

    def describe(self) -> str:
        return f"predicate({self.description})"

    def suggestion_points(self, iv: Iv) -> Tuple[Fraction, ...]:
        if self._suggest is None:
            return ()
        return self._suggest(iv)


class UnionFailureSet(FailureSet):
    kind = "union"

    def __init__(self, *parts: FailureSet):
        self.parts = parts

    def __contains__(self, x) -> bool:
        return any(x in p for p in self.parts)

    def describe(self) -> str:
        return "union(" + ",".join(p.describe() for p in self.parts) + ")"

    def suggestion_points(self, iv: Iv) -> Tuple[Fraction, ...]:
        out = []
        for p in self.parts:
            out.extend(p.suggestion_points(iv))
        return tuple(out)


EMPTY_FAILURE = EmptyFailureSet()


def point_set(E) -> FailureSet:
    """The descriptor of a set of points: a FailureSet passes through, a
    GeneratedSet becomes a GeneratedFailureSet, None the empty set, a
    callable a predicate and any other iterable of rationals a finite set.
    The only code that decides what form a set was given in."""
    if isinstance(E, FailureSet):
        return E
    if isinstance(E, sets.GeneratedSet):
        return GeneratedFailureSet(E)
    if E is None:
        return EMPTY_FAILURE
    if callable(E):
        return PredicateFailureSet(E, getattr(E, "__name__", "callable"))
    return FiniteFailureSet(E)


def nearest_set_points(s: sets.GeneratedSet, iv: Iv) -> Tuple[Fraction, ...]:
    """Member points of ``s`` inside ``iv``, nearest to its midpoint.

    Used by tag oracles: if the midpoint is a member it is itself returned;
    otherwise the endpoints of its complement component that fall inside the
    interval are (those are members). Outside the hull the nearest hull
    endpoint is proposed.
    """
    lo, hi = iv.lo, iv.hi
    ln, ld, hn, hd = lo.numerator, lo.denominator, hi.numerator, hi.denominator
    m = Fraction(ln * hd + hn * ld, 2 * ld * hd)
    mn, md = m.numerator, m.denominator
    base = s.base
    b_lo, b_hi = base.lo, base.hi
    bln, bld, bhn, bhd = b_lo.numerator, b_lo.denominator, b_hi.numerator, b_hi.denominator
    # the signs of m − b_lo and m − b_hi, by cross-products
    below = mn * bld - bln * md
    if below < 0:
        return (b_lo,) if b_lo in iv else ()
    above = mn * bhd - bhn * md
    if above > 0:
        return (b_hi,) if b_hi in iv else ()
    if not below or not above:
        return (m,)
    kind, data = sets._locate_memo(s, m)
    if kind == "member":
        return (m,)
    out = ()
    for p in data[:2]:  # the complement component's endpoints
        pn, pd = p.numerator, p.denominator
        if (
            ln * pd <= pn * ld and pn * hd <= hn * pd  # p in iv
            and bln * pd <= pn * bld and pn * bhd <= bhn * pd  # p in the base
        ):
            out += (p,)
    return out


# ---------------------------------------------------------------------------
# FnSpec
# ---------------------------------------------------------------------------


@record
class FnSpec:
    """A catalog function with exact/approximate evaluation and side data.

    eval returns a ValueWithError; err == 0 whenever the function is marked
    exact. deriv is defined exactly off failure_set. modulus(x, eps) is a
    radius eta such that |f(y) − f(x) − f'(x)(y − x)| <= eps·|y − x|/(b − a)
    whenever |y − x| <= eta; it is a declared certificate, valid off the
    failure set. err_modulus(d) bounds |f(u) − f(v)| by a function of
    |u − v| and is used to propagate inexact inner values through
    composition. dini_band/dini_eta1 certify the finite-Dini-derivative
    bands used by the null-set gauge constructor.
    """

    name: str
    domain: Iv
    eval: Callable[[Fraction], ValueWithError]
    deriv: Optional[Callable[[Fraction], ValueWithError]] = None
    failure_set: FailureSet = EMPTY_FAILURE
    modulus: Optional[Callable[[Fraction, Fraction], Fraction]] = None
    antideriv: Optional["FnSpec"] = None
    monotone_breakpoints: Optional[Tuple[Fraction, ...]] = None
    err_modulus: Optional[Callable[[Fraction], Fraction]] = None
    dini_band: Optional[Callable[[Fraction], int]] = None
    dini_eta1: Optional[Callable[[Fraction], Fraction]] = None
    range_hint: Optional[Iv] = None
    exact: bool = True

    def __call__(self, x) -> ValueWithError:
        if x.__class__ is not Fraction:
            x = Fraction(x)
        if x not in self.domain:
            raise self.domain_error(x)
        return self.eval(x)

    def domain_error(self, x: Fraction) -> DomainError:
        """The error of evaluating at a point x outside the domain."""
        return DomainError(
            f"{self.name} evaluated at {x} outside {self.domain}", witness=x
        )

    def deriv_at(self, x) -> ValueWithError:
        """Derivative off the failure set; 0 flagged convention on it."""
        if x.__class__ is not Fraction:
            x = Fraction(x)
        if x in self.failure_set:
            return ValueWithError(ZERO, ZERO, convention=True)
        if self.deriv is None:
            raise UnsupportedInstanceError(f"{self.name} has no derivative data")
        return self.deriv(x)

    def exact_kernel(self):
        """The exact rational kernel that eval and deriv were both derived
        from (:func:`kernel_fns`), or None: the value and the derivative
        at n/d (d > 0) on integers."""
        k = getattr(self.eval, "__wrapped__", None)
        if k is not None and getattr(self.deriv, "__wrapped__", None) is k:
            return k
        return None

    def descriptor(self) -> dict:
        return {
            "name": self.name,
            "domain": [rat_str(self.domain.lo), rat_str(self.domain.hi)],
            "exact": self.exact,
            "has_deriv": self.deriv is not None,
            "failure_set": self.failure_set.describe(),
            "has_modulus": self.modulus is not None,
            "has_antideriv": self.antideriv is not None,
        }


def deriv_spec(f: FnSpec, name: Optional[str] = None) -> FnSpec:
    """The derivative of f as a function, 0 by convention on the failure set."""
    if f.deriv is None:
        raise UnsupportedInstanceError(f"{f.name} has no derivative data")
    return FnSpec(
        name=name or f"{f.name}_deriv",
        domain=f.domain,
        eval=f.deriv_at,
        exact=f.exact,
    )


# ---------------------------------------------------------------------------
# concrete evaluators
# ---------------------------------------------------------------------------


def cantor_fn(x) -> Fraction:
    """The Cantor-Lebesgue function, exactly, for any rational in [0, 1].

    Reads ternary digits on integer remainders (``sets._ternary_walk``)
    until the first 1 (which contributes the final binary digit) or until
    the remainder repeats; a repeating block of 0/2 digits sums as a
    geometric series. Runs at most den(x) + 1 steps and builds one
    Fraction, the result. Values are memoised on x's numerator and
    denominator.
    """
    if x.__class__ is not Fraction:
        x = Fraction(x)
    p, q = x.numerator, x.denominator
    if p < 0 or p > q:
        raise DomainError(f"cantor_fn needs x in [0,1], got {x}", witness=x)
    return _cantor_value(p, q)


@lru_cache(maxsize=200_000)
def _cantor_value(p: int, q: int) -> Fraction:
    """``cantor_fn`` at p/q, 0 <= p <= q in lowest terms."""
    if p == q:
        return ONE
    n, _, bits, start, _ = sets._ternary_walk(p, q)
    if start is None:
        return Fraction(2 * bits + 1, 1 << n)
    # bits = head·2^L + cyc with an L-bit cycle after `start` digits; the
    # value head/2^start + cyc/((2^L − 1)·2^start) has numerator bits − head
    period = n - start
    return Fraction(bits - (bits >> period), ((1 << period) - 1) << start)


def cantor_abs(x) -> Fraction:
    """c(|x|) on [−1, 1]; constant on each complement component of C ∪ (−C)."""
    x = Fraction(x)
    if not -ONE <= x <= ONE:
        raise DomainError(f"cantor_abs needs x in [-1,1], got {x}", witness=x)
    return cantor_fn(abs(x))


def svc_dist_fn(x, S: sets.GeneratedSet = sets.svc()) -> Fraction:
    """Exact distance from x in [0, 1] to the fat Cantor set ``S``; 0 on it."""
    x = Fraction(x)
    if not ZERO <= x <= ONE:
        raise DomainError(f"svc_dist_fn needs x in [0,1], got {x}", witness=x)
    return sets.distance(S, x)


def _iroot4(n: int) -> int:
    """floor(n ** (1/4)) for a nonnegative integer."""
    return math.isqrt(math.isqrt(n))


def quartic_root(x, max_err=None) -> ValueWithError:
    """Fourth root with a certified error bound; exact on fourth powers."""
    x = Fraction(x)
    if x < 0:
        raise DomainError(f"fourth root of negative {x}", witness=x)
    if x == 0:
        return ValueWithError(ZERO)
    p, q = x.numerator, x.denominator
    rp, rq = _iroot4(p), _iroot4(q)
    if rp**4 == p and rq**4 == q:
        return ValueWithError(Fraction(rp, rq))
    if max_err is None:
        max_err = DEFAULT_ROOT_ERR
    max_err = Fraction(max_err)
    if max_err <= 0:
        raise ValueError("max_err must be positive")
    inv = max_err.denominator // max_err.numerator + 1
    k = inv.bit_length()  # 2^k >= 1/max_err
    scaled = (p << (4 * k)) // q
    s = _iroot4(scaled)
    # true root lies in [s, s + 1) / 2^k
    return ValueWithError(Fraction(s, 2**k), Fraction(1, 2**k))


def _quartic_err_modulus(d: Fraction) -> Fraction:
    """Rational upper bound for d^(1/4): |u^(1/4) − v^(1/4)| <= |u − v|^(1/4)."""
    if d == 0:
        return ZERO
    r = quartic_root(d, Fraction(d, 4) if d < 1 else Fraction(1, 2**20))
    return r.value + r.err


# ---------------------------------------------------------------------------
# builders (each binds its own domain; moduli close over it)
# ---------------------------------------------------------------------------


def kernel_fns(kernel) -> dict:
    """The ``eval`` and ``deriv`` fields of a function given by an exact
    rational kernel: ``kernel(n, d)`` is ``((vn, vd), (dn, dd))``,
    its value vn/vd and derivative dn/dd at n/d (d > 0), as integer pairs,
    not reduced, with positive denominators. So the function is written
    once, and the integrand (``cov._integrand``) reads it on integers."""

    def ev(x):
        if x.__class__ is not Fraction:
            x = Fraction(x)
        (vn, vd), _ = kernel(x.numerator, x.denominator)
        g = math.gcd(vn, vd)
        return _exact_value(_coprime_fraction(vn // g, vd // g))

    def deriv(x):
        if x.__class__ is not Fraction:
            x = Fraction(x)
        _, (dn, dd) = kernel(x.numerator, x.denominator)
        g = math.gcd(dn, dd)
        return _exact_value(_coprime_fraction(dn // g, dd // g))

    ev.__wrapped__ = deriv.__wrapped__ = kernel
    return {"eval": ev, "deriv": deriv}


def _unit_modulus(x, eps):
    return ONE


# a modulus marked x_free does not read x: the proof gauge of a function
# with such a modulus is a constant gauge (``cov.proof_gauge``)
_unit_modulus.x_free = True


def const_fn(c, domain: Iv, name: Optional[str] = None) -> FnSpec:
    c = Fraction(c)
    at = ((c.numerator, c.denominator), (0, 1))
    fns = kernel_fns(lambda n, d: at)
    # the kernel does not read x: eval and deriv return its value and
    # slope, evaluated once
    value, slope = fns["eval"](ZERO), fns["deriv"](ZERO)
    ev, deriv = (lambda x: value), (lambda x: slope)
    ev.__wrapped__ = deriv.__wrapped__ = fns["eval"].__wrapped__
    return FnSpec(
        name=name or (("one" if c == 1 else "zero") if c in (0, 1) else f"const({rat_str(c)})"),
        domain=domain,
        eval=ev,
        deriv=deriv,
        modulus=_unit_modulus,
        monotone_breakpoints=(),
        dini_band=lambda x: 0,
        dini_eta1=lambda x: ONE,
        range_hint=Iv(c, c),
    )


def identity_fn(domain: Iv, name: str = "identity") -> FnSpec:
    return FnSpec(
        name=name,
        domain=domain,
        **kernel_fns(lambda n, d: ((n, d), (1, 1))),
        modulus=_unit_modulus,
        monotone_breakpoints=(),
        dini_band=lambda x: 1,
        dini_eta1=lambda x: ONE,
        range_hint=domain,
    )


def square_fn(domain: Iv, name: str = "square") -> FnSpec:
    width = domain.length
    last = (None, None)  # the latest eps and eps/width, swapped as one tuple

    def modulus(x, eps):
        # |y² − x² − 2x(y − x)| = (y − x)² <= eps|y − x|/width  iff  |y − x| <= eps/width
        nonlocal last
        seen, ratio = last
        if seen is not eps:  # a gauge passes one eps object to every call
            ratio = Fraction(eps) / width
            last = (eps, ratio)
        return ratio

    modulus.x_free = True

    def band(x):
        return int(2 * abs(Fraction(x)))

    def eta1(x):
        # |y² − x²| <= (2|x| + eta)|y − x| <= (1 + floor(2|x|))|y − x|
        g = 1 + int(2 * abs(Fraction(x))) - 2 * abs(Fraction(x))
        return g if g > 0 else ONE

    hi = max(abs(domain.lo), abs(domain.hi))
    lo = ZERO if domain.lo <= 0 <= domain.hi else min(domain.lo**2, domain.hi**2)
    return FnSpec(
        name=name,
        domain=domain,
        **kernel_fns(lambda n, d: ((n * n, d * d), (2 * n, d))),
        modulus=modulus,
        monotone_breakpoints=(ZERO,) if domain.interior_contains(ZERO) else (),
        dini_band=band,
        dini_eta1=eta1,
        range_hint=Iv(lo, hi * hi),
    )


def _component_slack(s: sets.GeneratedSet, x: Fraction) -> Fraction:
    comp = sets.complement_component(s, x).interval
    return min(x - comp.lo, comp.hi - x)


def cantor_fn_spec() -> FnSpec:
    C = sets.ternary_cantor()

    def modulus(x, eps):
        # locally constant off C: any radius within the plateau certifies 0 error
        return _component_slack(C, Fraction(x))

    def eta1(x):
        return _component_slack(C, Fraction(x))

    return FnSpec(
        name="cantor",
        domain=Iv(0, 1),
        eval=lambda x: ValueWithError(cantor_fn(x)),
        deriv=lambda x: ValueWithError(ZERO),
        failure_set=GeneratedFailureSet(C),
        modulus=modulus,
        monotone_breakpoints=(),
        dini_band=lambda x: 0,
        dini_eta1=eta1,
        range_hint=Iv(0, 1),
    )


def cantor_abs_spec() -> FnSpec:
    D = sets.reflected_cantor()

    def modulus(x, eps):
        return _component_slack(D, Fraction(x))

    return FnSpec(
        name="cantor_abs",
        domain=Iv(-1, 1),
        eval=lambda x: ValueWithError(cantor_abs(x)),
        deriv=lambda x: ValueWithError(ZERO),
        failure_set=GeneratedFailureSet(D),
        modulus=modulus,
        monotone_breakpoints=(ZERO,),
        dini_band=lambda x: 0,
        dini_eta1=lambda x: _component_slack(D, Fraction(x)),
        range_hint=Iv(0, 1),
    )


def svc_dist_spec(depth_cap: int = sets.DEPTH_CAP_DEFAULT) -> FnSpec:
    """The distance to S; its queries walk S at most ``depth_cap`` steps."""
    S = sets.svc(depth_cap)

    def deriv(x):
        # inside a removed gap the distance function is a tent with slope ±1
        comp = sets.complement_component(S, Fraction(x)).interval
        return ValueWithError(ONE if x < comp.midpoint else -ONE)

    def gap_center(x: Fraction) -> bool:
        return (S.base.interior_contains(x) and not sets.member(S, x)
                and x == sets.complement_component(S, x).interval.midpoint)

    failure = UnionFailureSet(
        GeneratedFailureSet(S),
        PredicateFailureSet(gap_center, "fat-Cantor gap centers"),
    )
    return FnSpec(
        name="svc_dist",
        domain=Iv(0, 1),
        eval=lambda x: ValueWithError(svc_dist_fn(x, S)),
        deriv=deriv,
        failure_set=failure,
        range_hint=Iv(0, Fraction(1, 8)),
    )


def quartic_root_spec(max_err=None, domain: Iv = Iv(0, 1)) -> FnSpec:
    err = DEFAULT_ROOT_ERR if max_err is None else Fraction(max_err)

    def deriv(x):
        x = Fraction(x)
        r = quartic_root(x, err * x if err * x > 0 else err)
        # d/dx x^(1/4) = x^(1/4) / (4x)
        return ValueWithError(r.value / (4 * x), r.err / (4 * x))

    return FnSpec(
        name="quartic_root",
        domain=domain,
        eval=lambda x: quartic_root(x, err),
        deriv=deriv,
        failure_set=FiniteFailureSet((ZERO,)),
        monotone_breakpoints=(),
        err_modulus=_quartic_err_modulus,
        range_hint=Iv(0, 1),
        exact=False,
    )


# ---------------------------------------------------------------------------
# combinators
# ---------------------------------------------------------------------------


def compose(outer: FnSpec, inner: FnSpec, name: Optional[str] = None) -> FnSpec:
    """outer ∘ inner with error propagation and chain-rule metadata."""

    def ev(x):
        u = inner(x)
        lo, hi = u.value - u.err, u.value + u.err
        if lo not in outer.domain or hi not in outer.domain:
            raise DomainError(
                f"{inner.name}({x}) = {u.value}±{u.err} outside domain of {outer.name}",
                witness=Fraction(x),
            )
        w = outer(u.value)
        extra = ZERO
        if u.err > 0:
            if outer.err_modulus is None:
                raise UnsupportedInstanceError(
                    f"{outer.name} cannot absorb inexact inner values"
                )
            extra = outer.err_modulus(u.err)
        return ValueWithError(w.value, w.err + extra)

    deriv = None
    if outer.deriv is not None and inner.deriv is not None:
        def deriv(x):  # chain rule, only invoked off the failure set
            u = inner(x)
            if u.err != 0:
                raise UnsupportedInstanceError(
                    f"chain rule through inexact {inner.name} value"
                )
            a = outer.deriv(u.value)
            b = inner.deriv(Fraction(x))
            return ValueWithError(
                a.value * b.value,
                abs(a.value) * b.err + abs(b.value) * a.err + a.err * b.err,
            )

    def fails(x):
        x = Fraction(x)
        if x in inner.failure_set:
            return True
        u = inner(x)
        if u.err != 0:
            return True  # cannot certify the chain rule through approximation
        return u.value in outer.failure_set

    failure = PredicateFailureSet(
        fails, f"chain-rule failures of {outer.name}∘{inner.name}",
        suggest=inner.failure_set.suggestion_points,
    )
    return FnSpec(
        name=name or f"{outer.name}∘{inner.name}",
        domain=inner.domain,
        eval=ev,
        deriv=deriv,
        failure_set=failure,
        range_hint=outer.range_hint,
        exact=outer.exact and inner.exact,
    )


def product(f: FnSpec, g: FnSpec, name: Optional[str] = None) -> FnSpec:
    lo = max(f.domain.lo, g.domain.lo)
    hi = min(f.domain.hi, g.domain.hi)
    if lo > hi:
        raise DomainError(f"domains of {f.name} and {g.name} do not meet")
    domain = Iv(lo, hi)

    def ev(x):
        a, b = f(x), g(x)
        return ValueWithError(
            a.value * b.value,
            abs(a.value) * b.err + abs(b.value) * a.err + a.err * b.err,
        )

    deriv = None
    if f.deriv is not None and g.deriv is not None:
        def deriv(x):
            a, b = f(x), g(x)
            da, db = f.deriv(x), g.deriv(x)
            v = da.value * b.value + a.value * db.value
            e = (abs(da.value) * b.err + abs(b.value) * da.err
                 + abs(a.value) * db.err + abs(db.value) * a.err
                 + da.err * b.err + a.err * db.err)
            return ValueWithError(v, e)

    return FnSpec(
        name=name or f"{f.name}·{g.name}",
        domain=domain,
        eval=ev,
        deriv=deriv,
        failure_set=UnionFailureSet(f.failure_set, g.failure_set),
        exact=f.exact and g.exact,
    )


def fn_linear_combination(terms, domain: Iv, name: str = "lincomb") -> FnSpec:
    """Sum of coeff · fn over (coeff, FnSpec) pairs, on a common domain."""
    terms = tuple((Fraction(c), f) for c, f in terms)

    def ev(x):
        total = ValueWithError(ZERO)
        for c, f in terms:
            total = total + f(x).scaled(c)
        return total

    return FnSpec(name=name, domain=domain, eval=ev,
                  exact=all(f.exact for _, f in terms))


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

_ALIASES = {
    "linear": "identity",
    "x": "identity",
    "x^2": "square",
    "x2": "square",
    "cantor_fn": "cantor",
    "c": "cantor",
    "G": "svc_dist",
    "F": "quartic_root",
    "F∘G": "quartic_svc_dist",
    "FoG": "quartic_svc_dist",
}


@lru_cache(maxsize=1)
def catalog(depth_cap: int = sets.DEPTH_CAP_DEFAULT) -> dict:
    """The named function registry (canonical names only; see lookup); its
    fat-Cantor entries walk S at most ``depth_cap`` steps."""
    cantor = cantor_fn_spec()
    cantor_abs_f = cantor_abs_spec()
    identity = identity_fn(Iv(-2, 2))
    square = square_fn(Iv(-1, 1))
    one = const_fn(1, Iv(-2, 2))
    zero = const_fn(0, Iv(-2, 2))
    svc_d = svc_dist_spec(depth_cap)
    qroot = quartic_root_spec()
    entries = {
        "identity": identity,
        "one": one,
        "zero": zero,
        "square": square,
        "cantor": cantor,
        "cantor_deriv": deriv_spec(cantor),
        "cantor_abs": cantor_abs_f,
        "cantor_abs_deriv": deriv_spec(cantor_abs_f),
        "svc_dist": svc_d,
        "quartic_root": qroot,
        "quartic_svc_dist": compose(qroot, svc_d, name="quartic_svc_dist"),
    }
    return entries


def lookup(name: str, depth_cap: int = sets.DEPTH_CAP_DEFAULT) -> FnSpec:
    reg = catalog(depth_cap)
    key = _ALIASES.get(name, name)
    if key not in reg:
        raise KeyError(f"unknown catalog function {name!r}")
    return reg[key]


def catalog_names() -> tuple:
    return tuple(sorted(catalog().keys()))
