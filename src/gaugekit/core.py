"""Exact tagged partitions, gauges, Riemann sums and the partition builder.

Every coordinate in this module is a ``fractions.Fraction``; nothing here
rounds. Gauges are strictly positive radius functions together with a tag
suggestion hook: the hook is what makes subordinate partitions actually
constructible by bisection instead of merely existing.
"""

from __future__ import annotations

import gc
import random
from fractions import Fraction
from itertools import repeat
from math import gcd
from typing import Callable, NamedTuple, Optional, Sequence

from ._record import frozen_delattr, frozen_setattr, record
from .errors import (
    DepthExhaustedError,
    GaugeKitError,
    InvalidGaugeError,
    PartitionMergeError,
)

Rat = Fraction

ZERO = Fraction(0)
ONE = Fraction(1)

# Bisection depth cap; exceeding it is an error, never a silent approximation.
MAX_DEPTH_DEFAULT = 64


def rat(value, den=None) -> Fraction:
    """Build an exact rational from int, 'num/den' string or Fraction."""
    if den is not None:
        return Fraction(value, den)
    return Fraction(value)


def rat_str(q: Fraction) -> str:
    """Serialize a rational as 'num/den' (always with denominator)."""
    if q.__class__ is not Fraction:
        q = Fraction(q)
    return f"{q.numerator}/{q.denominator}"


class Iv:
    """Closed interval [lo, hi] with exact rational endpoints.

    A frozen record written by hand: the builder makes thousands per job.
    """

    __slots__ = ("lo", "hi")
    __match_args__ = __record_fields__ = ("lo", "hi")

    def __init__(self, lo, hi):
        # the builder passes Fractions already; wrapping them again would
        # allocate a copy of each endpoint
        if lo.__class__ is not Fraction:
            lo = Fraction(lo)
        if hi.__class__ is not Fraction:
            hi = Fraction(hi)
        if lo.numerator * hi.denominator > hi.numerator * lo.denominator:
            raise ValueError(f"interval endpoints out of order: {lo} > {hi}")
        _set_lo(self, lo)
        _set_hi(self, hi)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.lo, self.hi) == (other.lo, other.hi)

    def __hash__(self):
        return hash((self.lo, self.hi))

    def __repr__(self):
        return f"{self.__class__.__qualname__}(lo={self.lo!r}, hi={self.hi!r})"

    def __reduce__(self):
        return (self.__class__, (self.lo, self.hi))

    __setattr__ = frozen_setattr
    __delattr__ = frozen_delattr

    @property
    def length(self) -> Fraction:
        return self.hi - self.lo

    @property
    def midpoint(self) -> Fraction:
        return (self.lo + self.hi) / 2

    def __contains__(self, x) -> bool:
        if x.__class__ is Fraction:
            # denominators are positive: compare by integer cross-products
            n, d = x.numerator, x.denominator
            lo, hi = self.lo, self.hi
            return (
                lo.numerator * d <= n * lo.denominator
                and n * hi.denominator <= hi.numerator * d
            )
        return self.lo <= x <= self.hi

    def interior_contains(self, x) -> bool:
        if x.__class__ is Fraction:
            n, d = x.numerator, x.denominator
            lo, hi = self.lo, self.hi
            return (
                lo.numerator * d < n * lo.denominator
                and n * hi.denominator < hi.numerator * d
            )
        return self.lo < x < self.hi

    def contains_iv(self, other: "Iv") -> bool:
        return self.lo <= other.lo and other.hi <= self.hi

    def __str__(self):
        return f"[{self.lo},{self.hi}]"


_new_object = object.__new__
_set_lo = Iv.lo.__set__
_set_hi = Iv.hi.__set__


def _coprime_fraction(n: int, d: int) -> Fraction:
    """The Fraction n/d of coprime ints n and d > 0, its two slots written
    directly: ``Fraction(n, d)`` would check both types and divide by their
    gcd again (Python 3.12 offers this as ``Fraction._from_coprime_ints``)."""
    q = _new_object(Fraction)
    q._numerator = n
    q._denominator = d
    return q


def _ordered_iv(lo: Fraction, hi: Fraction) -> Iv:
    """An Iv of two Fractions already known to be in order, without the
    coercion and order check of ``Iv.__init__``: the bisection's halves."""
    iv = _new_object(Iv)
    _set_lo(iv, lo)
    _set_hi(iv, hi)
    return iv


class ValueWithError:
    """A value plus a certified worst-case absolute error bound.

    ``err == 0`` means the value is exact. ``convention`` marks values that
    are 0 by the almost-everywhere convention rather than by evaluation.
    A frozen record written by hand, like ``Iv``.
    """

    __slots__ = ("value", "err", "convention")
    __match_args__ = __record_fields__ = ("value", "err", "convention")

    def __init__(self, value, err=ZERO, convention=False):
        if value.__class__ is not Fraction:
            value = Fraction(value)
        if err.__class__ is not Fraction:
            err = Fraction(err)
        if err.numerator < 0:
            raise ValueError("error bound must be nonnegative")
        _set_value(self, value)
        _set_err(self, err)
        _set_convention(self, convention)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.value, self.err, self.convention) == (
            other.value, other.err, other.convention)

    def __hash__(self):
        return hash((self.value, self.err, self.convention))

    def __repr__(self):
        return (
            f"{self.__class__.__qualname__}(value={self.value!r}, "
            f"err={self.err!r}, convention={self.convention!r})"
        )

    def __reduce__(self):
        return (self.__class__, (self.value, self.err, self.convention))

    __setattr__ = frozen_setattr
    __delattr__ = frozen_delattr

    @property
    def exact(self) -> bool:
        return self.err == 0

    def __add__(self, other: "ValueWithError") -> "ValueWithError":
        return ValueWithError(self.value + other.value, self.err + other.err)

    def __neg__(self) -> "ValueWithError":
        return ValueWithError(-self.value, self.err)

    def scaled(self, c: Fraction) -> "ValueWithError":
        c = Fraction(c)
        return ValueWithError(self.value * c, self.err * abs(c))

    def abs(self) -> "ValueWithError":
        return ValueWithError(abs(self.value), self.err)

    def payload(self) -> dict:
        return {"value": rat_str(self.value), "err": rat_str(self.err)}


_set_value = ValueWithError.value.__set__
_set_err = ValueWithError.err.__set__
_set_convention = ValueWithError.convention.__set__


def _exact_value(q: Fraction) -> ValueWithError:
    """``ValueWithError(q)`` for a Fraction q, without the coercions and
    the check of ``ValueWithError.__init__``."""
    v = _new_object(ValueWithError)
    _set_value(v, q)
    _set_err(v, ZERO)
    _set_convention(v, False)
    return v


class Item(NamedTuple):
    """One (tag, cell) pair of a tagged partition."""

    tag: Fraction
    cell: Iv


# Item(tag, cell) without the Python frame of a NamedTuple's __new__
_tuple_new = tuple.__new__


class _Block:
    """A uniform block: the 2^depth equal cells of ``domain``, each tagged
    at its midpoint (``PartitionTree._grow``). Its points are
    lo + t·W/2^(depth+1), W the domain's width: cell ends for even t, tags
    for odd t. ``items`` is built on its first read; sums read the tags."""

    __slots__ = ("domain", "depth", "_items")

    def __init__(self, domain: Iv, depth: int):
        self.domain, self.depth, self._items = domain, depth, None

    def __len__(self):
        return 1 << self.depth

    def points(self, odd: int):
        """The points of even (odd = 0) or odd t, in order, as Fractions."""
        lo = self.domain.lo
        w = self.domain.hi - lo
        shift = self.depth + 1
        den = lo.denominator * w.denominator << shift
        base = lo.numerator * w.denominator << shift
        step = w.numerator * lo.denominator
        for t in range(odd, (1 << shift) + 1, 2):
            n = base + t * step
            g = gcd(n, den)
            q = _new_object(Fraction)  # _coprime_fraction(n // g, den // g), inlined
            q._numerator = n // g
            q._denominator = den // g
            yield q

    @property
    def items(self) -> tuple:
        if self._items is None:
            ends = list(self.points(0))
            self._items = tuple([
                _tuple_new(Item, (m, _ordered_iv(a, b)))
                for m, a, b in zip(self.points(1), ends, ends[1:])
            ])
        return self._items


@record
class TaggedPartition:
    """A finite tagged cover of ``domain`` by closed cells, sorted by cell.

    Construction does not validate; use :func:`validate_partition`. A
    partition of a uniform block (``cousin_partition`` under a constant
    gauge) keeps the block and reads its ``items`` from it on first access;
    its length and sums need no items.
    """

    items: tuple
    domain: Iv
    _block = None  # not a field: the uniform block of a lazy partition

    def __getattr__(self, name):
        # reached only for a name the instance lacks: a lazy partition's items
        if name != "items" or self._block is None:
            raise AttributeError(
                f"{type(self).__name__!r} object has no attribute {name!r}")
        return self._block.items

    @classmethod
    def of(cls, items: Sequence, domain: Iv) -> "TaggedPartition":
        norm = tuple(
            sorted(
                (Item(Fraction(t), c) for t, c in items),
                key=lambda it: (it.cell.lo, it.cell.hi, it.tag),
            )
        )
        return cls(norm, domain)

    def __iter__(self):
        return iter(self.items)

    def __len__(self):
        block = self._block
        return len(self.items) if block is None else len(block)


def _block_partition(block: _Block, domain: Iv) -> TaggedPartition:
    """The partition of ``block`` over ``domain``, its items not yet built."""
    p = _new_object(TaggedPartition)
    object.__setattr__(p, "domain", domain)
    object.__setattr__(p, "_block", block)
    return p


class Violation(NamedTuple):
    index: Optional[int]
    rule: str
    message: str


@record
class ValidationReport:
    ok: bool
    violations: tuple

    def payload(self) -> dict:
        return {
            "ok": self.ok,
            "violations": [
                {"index": v.index, "rule": v.rule, "message": v.message}
                for v in self.violations
            ],
        }


def validate_partition(p: TaggedPartition) -> ValidationReport:
    """Check the tagged-partition invariants; violations are data, not errors.

    Rules checked: tags lie in their cells, cell interiors are pairwise
    disjoint, the union of the cells is exactly the domain.
    """
    issues = []
    if not p.items:
        issues.append(Violation(None, "empty", "partition has no items"))
        return ValidationReport(False, tuple(issues))

    for idx, (tag, cell) in enumerate(p.items):
        if tag not in cell:
            issues.append(
                Violation(idx, "tag-outside-cell", f"tag {tag} not in {cell}")
            )

    # Interior disjointness: among nondegenerate cells (sorted by lo) an
    # overlap shows up as a cell starting strictly before the running hi.
    run_hi = None
    for idx, (tag, cell) in enumerate(p.items):
        if cell.lo == cell.hi:
            continue
        if run_hi is not None and cell.lo < run_hi:
            issues.append(
                Violation(idx, "interiors-overlap", f"cell {cell} overlaps a predecessor")
            )
        run_hi = cell.hi if run_hi is None else max(run_hi, cell.hi)

    # Coverage: merged union of cells must be exactly the domain.
    cover = p.domain.lo
    for idx, (tag, cell) in enumerate(p.items):
        if cell.lo < p.domain.lo or cell.hi > p.domain.hi:
            issues.append(
                Violation(idx, "outside-domain", f"cell {cell} leaves domain {p.domain}")
            )
        if cell.lo > cover:
            issues.append(
                Violation(idx, "coverage-gap", f"uncovered gap ({cover},{cell.lo})")
            )
        cover = max(cover, cell.hi)
    if cover < p.domain.hi:
        issues.append(
            Violation(None, "coverage-gap", f"uncovered gap ({cover},{p.domain.hi})")
        )

    return ValidationReport(not issues, tuple(issues))


@record
class Gauge:
    """A strictly positive radius function with a tag suggestion oracle.

    ``radius`` maps a point to a positive rational. ``suggest_tag`` maps an
    interval to candidate tags inside it; it may be None. Suggestions come
    before the default candidates (endpoints, then midpoint) during
    partition construction. ``constant``, when set, declares that
    ``radius`` returns this Fraction at every point; a first build without
    an rng then builds its uniform block from one radius call (see
    ``PartitionTree._grow``).
    """

    radius: Callable[[Fraction], Fraction]
    suggest_tag: Optional[Callable[[Iv], Sequence[Fraction]]] = None
    name: str = "gauge"
    constant: Optional[Fraction] = None

    def radius_at(self, x: Fraction) -> Fraction:
        try:
            r = self.radius(x)
            if r.__class__ is not Fraction:
                r = Fraction(r)
        except GaugeKitError:
            raise  # already classified, e.g. an undecided set query with its bounds
        except Exception as exc:  # noqa: BLE001 - any other failure is an invalid gauge
            raise InvalidGaugeError(f"gauge {self.name!r} failed at {x}: {exc}") from exc
        if r.numerator <= 0:
            raise InvalidGaugeError(f"gauge {self.name!r} non-positive at {x}: {r}")
        return r

    def suggestions(self, iv: Iv) -> tuple:
        if self.suggest_tag is None:
            return ()
        offered = self.suggest_tag(iv)
        if offered.__class__ is tuple and not offered:  # nothing to filter
            return ()
        out = []
        lo, hi = iv.lo, iv.hi
        ln, ld, hn, hd = lo.numerator, lo.denominator, hi.numerator, hi.denominator
        for c in offered:
            if c.__class__ is not Fraction:
                c = Fraction(c)
            cn, cd = c.numerator, c.denominator
            if ln * cd <= cn * ld and cn * hd <= hn * cd:  # c in iv
                out.append(c)
        return tuple(out)


def constant_gauge(r, name: Optional[str] = None) -> Gauge:
    r = Fraction(r)
    if r <= 0:
        raise InvalidGaugeError(f"constant gauge radius must be positive, got {r}")
    return Gauge(radius=lambda x: r, name=name or f"const({rat_str(r)})", constant=r)


def min_gauge(a: Gauge, b: Gauge, name: Optional[str] = None) -> Gauge:
    """Pointwise minimum; suggestions of ``a`` are tried before ``b``'s.

    On a tie the radius is ``a``'s, as ``min`` would return it."""
    a_radius, b_radius = a.radius_at, b.radius_at

    def radius(x):
        ra = a_radius(x)
        rb = b_radius(x)
        # radius_at returns Fractions: compare by integer cross-products
        if rb.numerator * ra.denominator < ra.numerator * rb.denominator:
            return rb
        return ra

    # Gauge.suggestions coerces and filters the points of the oracle below
    # once, so the two oracles are asked directly; with one of them, it is
    # the oracle
    a_sugg, b_sugg = a.suggest_tag, b.suggest_tag
    if a_sugg is None or b_sugg is None:
        suggest = a_sugg or b_sugg
    else:
        def suggest(iv):
            return tuple(a_sugg(iv)) + tuple(b_sugg(iv))

    return Gauge(radius=radius, suggest_tag=suggest, name=name or f"min({a.name},{b.name})")


def is_subordinate(p: TaggedPartition, gauge: Gauge) -> bool:
    """True iff every cell fits strictly inside the open ball around its tag."""
    for tag, cell in p.items:
        r = gauge.radius_at(tag)
        if not (tag - r < cell.lo and cell.hi < tag + r):
            return False
    return True


def riemann_sum(f, p: TaggedPartition) -> ValueWithError:
    """Sum of f(tag) * |cell| with accumulated worst-case error bounds, for
    any ``f(x) -> ValueWithError`` (e.g. FnSpec); exact when every f(x) is."""
    return next(_riemann_sums(f, (p,)))[1]


def _riemann_sums(f, parts):
    """``_product_sums`` of the one factor f(tag)."""
    return _product_sums(lambda x: (_int_factor(f(x)),), parts)


def _product_sums(factors, parts):
    """Yield ``(partition, Σ Π factors(tag)·|cell|)`` for partitions
    replayed from one tree. ``factors(tag)`` is a tuple of integer factors
    (see ``_scaled_product``), or None where the term is 0 by convention. A
    cell's width is (hn·ld − ln·hd)/(ld·hd) from its endpoints, and
    ``_scaled_product`` folds it into the term, so no term builds a
    Fraction. The cells of a uniform block share one width: its terms are
    summed unscaled, one tag at a time, and the totals scaled once."""

    def term(tag, cell):
        fs = factors(tag)
        if fs is None:
            return None
        lo, hi = cell.lo, cell.hi
        ld, hd = lo.denominator, hi.denominator
        vn, vd, en, ed = _scaled_product(fs, hi.numerator * ld - lo.numerator * hd, ld * hd)
        return ((vn, vd), (en, ed))

    def block_totals(block):
        values, errs = {}, {}
        for tag in block.points(1):
            fs = factors(tag)
            if fs is not None:
                vn, vd, en, ed = _scaled_product(fs)
                if vn:
                    values[vd] = values.get(vd, 0) + vn
                if en:
                    errs[ed] = errs.get(ed, 0) + en
        w = block.domain.hi - block.domain.lo
        width = Fraction(w.numerator, w.denominator << block.depth)
        return width * _total(values), width * _total(errs)

    for part, (total, err) in _sample_sums(parts, term, 2, block_totals):
        yield part, ValueWithError(total, err)


def _int_factor(v: ValueWithError) -> tuple:
    """``v`` as an integer factor ``(vn, vd, en, ed)``: value vn/vd, error
    bound en/ed."""
    x, e = v.value, v.err
    return x.numerator, x.denominator, e.numerator, e.denominator


def _scaled_product(factors, n: int = 1, d: int = 1):
    """``(vn, vd, en, ed)``, not reduced: the product vn/vd of the values of
    the integer ``factors`` and n/d >= 0, and its error bound en/ed,
    (n/d)·(Π(|v| + e) − Π|v|). A factor is ``(vn, vd, en, ed)``: value
    vn/vd and error bound en/ed >= 0, not necessarily reduced, with
    positive denominators. For two factors the bound is
    (n/d)·(|a|·e_b + |b|·e_a + e_a·e_b), the farthest corner of the boxes;
    it is 0/1 when every factor is exact."""
    vn, vd = n, d
    exact = True
    for xn, xd, en, _ in factors:
        vn *= xn
        vd *= xd
        if en:
            exact = False
    if exact:
        return vn, vd, 0, 1
    un, ud = n, d
    for xn, xd, en, ed in factors:
        un *= abs(xn) * ed + en * xd
        ud *= xd * ed
    return vn, vd, un * vd - abs(vn) * ud, ud * vd


def _sample_sums(parts, term, width: int, block_totals=None):
    """Yield ``(partition, totals)`` for partitions replayed from one tree.

    ``term(tag, cell)`` is a tuple of ``width`` pairs of ints (numerator,
    positive denominator, not necessarily reduced), or None for a zero
    term; ``totals[k]`` is the Fraction sum of the k-th entries over the
    items. Each total adds numerators into a dict keyed by denominator,
    with no gcd per term, and builds one Fraction per key; the terms of a
    dyadic bisection have few distinct denominators. The first partition
    is summed in full. Replays of one :class:`PartitionTree` share their
    cell objects and differ only in the tags of some cells, so each later
    partition starts from the previous numerators and, at each cell whose
    tag changed, subtracts the old tag's term and adds the new one's: the
    totals equal full sums. A pure ``term`` raises the error a full sum
    would raise, at the same tag, since every unchanged tag's term was
    computed before without error. Only the previous partition's tags are
    kept, and a partition whose items are the previous one's (a closed
    tree) is not walked. Given ``block_totals(block)``, a partition of a
    uniform block takes its totals from it, once per block, without its
    items.
    """
    groups = [{} for _ in range(width)]
    tags = None
    prev = None
    for part in parts:
        block = part._block
        if block is not None and block_totals is not None:
            if block is not prev:
                prev, totals = block, block_totals(block)
            yield part, totals
            continue
        items = part.items
        if items is prev:  # a closed tree's replay: the same partition
            yield part, totals
            continue
        prev = items
        for old, (tag, cell) in zip(tags or repeat(None), items):
            if tag is old:  # a replayed tag is the candidate object itself
                continue
            gone = None if old is None else term(old, cell)
            new = term(tag, cell)
            if gone is not None:
                _add(groups, gone, -1)
            if new is not None:
                _add(groups, new, 1)
        tags = [tag for tag, _ in items]
        totals = tuple(_total(g) for g in groups)
        yield part, totals


def _add(groups, t, sign: int) -> None:
    for group, (n, d) in zip(groups, t):
        if n:
            group[d] = group.get(d, 0) + sign * n


def _total(group: dict) -> Fraction:
    """The Fraction sum of a group's numerators over their denominators."""
    return sum((Fraction(n, d) for d, n in group.items()), ZERO)


def _order(n: int, rng: Optional[random.Random]):
    """The order in which a node's ``n`` candidates are tried.

    ``rng.shuffle`` draws depend on the list length alone, so shuffling
    positions permutes exactly as shuffling the candidates themselves would.
    """
    if rng is None:
        return range(n)
    order = list(range(n))
    rng.shuffle(order)
    return order


def _pick(iv: Iv, cands: tuple, verdicts: list, order, gauge: Gauge):
    """The first acceptable candidate in ``order``, or None.

    ``verdicts`` caches per candidate whether its ball strictly contains
    ``iv`` (None: not yet evaluated). A radius is evaluated only when the
    walk reaches a candidate whose verdict is unknown, so the points
    evaluated, and the first one that raises, are those of an uncached walk
    in the same order.
    """
    for j in order:
        ok = verdicts[j]
        if ok is None:
            x = cands[j]
            ok = verdicts[j] = _ball_holds(x, gauge.radius_at(x), iv.lo, iv.hi)
        if ok:
            return cands[j]
    return None


def _ball_holds(x: Fraction, r: Fraction, lo: Fraction, hi: Fraction) -> bool:
    """Whether the open ball of radius r around x strictly contains
    [lo, hi], that is ``x - r < lo and hi < x + r``, decided by integer
    cross-products (every denominator is positive)."""
    xn, xd = x.numerator, x.denominator
    rn, rd = r.numerator, r.denominator
    ln, ld = lo.numerator, lo.denominator
    hn, hd = hi.numerator, hi.denominator
    # x − lo < r and hi − x < r
    return (
        (xn * ld - ln * xd) * rd < rn * xd * ld
        and (hn * xd - xn * hd) * rd < rn * xd * hd
    )


def _candidates(sugg: tuple, lo: Fraction, hi: Fraction, m: Fraction):
    """The candidate tags ``sugg + (lo, hi, m)`` without repeated values,
    each kept at its first position as its first object (what
    ``dict.fromkeys`` gives), and the positions of lo, hi and m.

    Values are told apart by their (numerator, denominator) pairs, which
    name a Fraction's value: no Fraction is hashed or compared.
    """
    cands, pos, at = [], {}, []
    for c in sugg + (lo, hi, m):
        j = pos.setdefault((c.numerator, c.denominator), len(cands))
        if j == len(cands):
            cands.append(c)
        at.append(j)
    return (tuple(cands), *at[-3:])


def _exhausted(iv: Iv, depth: int, gauge: Gauge) -> DepthExhaustedError:
    return DepthExhaustedError(
        f"no acceptable tag for {iv} after {depth} bisections under gauge {gauge.name!r}",
        interval=iv,
    )


class PartitionTree:
    """The bisection of one domain under one gauge, recorded for replay.

    A node is accepted iff one of its candidate tags is, and whether a
    candidate is acceptable depends only on the gauge's radius there, so
    the cell layout is the same under every candidate order: an RNG only
    picks which acceptable tag each cell gets. The first
    :func:`cousin_partition` call given an empty tree walks the bisection
    and records every node in depth-first preorder, the order in which
    every build visits them. It evaluates each node's endpoints and
    midpoint at most once, and decides their verdicts by integer depth
    thresholds: a bisected node passes the thresholds of its endpoints and
    midpoint down to its two children, whose endpoints they are, so a
    child's endpoint verdicts cost no radius call. The walk is one loop:
    a node takes the fixed-order step or the candidate step (see
    ``_grow``), and both record what an uncached walk in its candidate
    order would. Later calls replay the record with one shuffle per node,
    evaluating a radius only where the candidate's verdict is still
    unknown. Replays share the cell objects and each cell's candidate
    objects, so two samples differ only in which candidate some cells
    carry; sums over the samples exploit this (see ``_sample_sums``).

    A tree is *closed* when every cell of its first build has all of its
    verdicts known and exactly one candidate accepted: then every candidate
    order gives the same partition, and replays return the first build's
    items (the same tuple) without visiting a node or drawing anything from
    the ``rng`` they are given. Under a gauge that declares a constant
    radius (``Gauge.constant``) and no tag oracle, an rng-less first build
    is usually a *uniform block*: a closed tree of equal midpoint-tagged
    cells found from one radius call, whose partitions build their items
    only when read (``_grow``). A replay without an ``rng`` tries each
    node's candidates in their recorded order, so it picks what the first
    such walk picked, and it returns that walk's items (the same tuple).

    A sum whose terms depend on a tag only through its membership in a
    set S is the same on every replay when each cell's acceptable
    candidates agree on S (:meth:`tags_agree_on`); the variation sums use
    this to sum one sample instead of replaying the rest.

    ``nodes`` holds, per node, either the candidate count of a bisected
    node (all of its candidates were rejected) or a tuple
    ``(cell, candidates, verdicts)`` for a cell, where ``verdicts[j]`` is
    True (accepted), False (rejected) or None (not yet evaluated); a uniform
    block records none. ``closed`` is the closed tree's items, its block,
    or None, and ``items`` the closed tree's partition, or None. A tree is
    bound to the domain, the gauge object and the resolved depth cap of its
    first build; the radius and tag oracle must be pure functions of their
    argument.
    """

    def __init__(self):
        self.domain: Optional[Iv] = None
        self.gauge: Optional[Gauge] = None
        self.max_depth: Optional[int] = None
        self.nodes: list = []
        self.closed = None
        self.first: Optional[tuple] = None

    @property
    def items(self) -> Optional[tuple]:
        closed = self.closed
        return closed.items if closed.__class__ is _Block else closed

    def _bind(self, domain: Iv, gauge: Gauge, max_depth: int) -> None:
        if self.gauge is None:
            self.domain, self.gauge, self.max_depth = domain, gauge, max_depth
        elif (
            self.domain != domain
            or self.gauge is not gauge
            or self.max_depth != max_depth
        ):
            raise ValueError(
                f"partition tree of {self.domain} under {self.gauge.name!r} "
                f"(depth cap {self.max_depth}) cannot replay {domain} under "
                f"{gauge.name!r} (depth cap {max_depth})"
            )

    def _grow(self, rng: Optional[random.Random]) -> tuple:
        """Walk the bisection depth first, record it, return its items.

        A depth-d cell has width W/2^d, W the domain's width, so the ball of
        radius r around an endpoint contains it iff r > W/2^d, and the ball
        around its midpoint iff r > W/2^(d+1). A radius at an endpoint or a
        midpoint therefore reduces to one integer, its reach
        ``floor(W/r).bit_length()``: the least d with W/2^d < r (0 when
        W = 0). An endpoint is acceptable iff depth >= reach, a midpoint
        iff depth + 1 >= reach. A node is bisected only once all of its
        candidates were rejected, so the reaches at its endpoints and
        midpoint are known by then; they travel down the stack with the
        child's endpoints, depth and endpoint reaches.

        A node takes one of two steps. Below the root of a build without an
        ``rng``, where the gauge suggests nothing, it takes the fixed-order
        step: lo, then hi, both decided by their reaches, then the midpoint
        by its reach; the cell's Iv, candidate tuple and verdict list are
        built only for a recorded cell. (A domain of zero width is one
        cell, so every node below a root has positive width.) Every other
        node takes the candidate step: its suggested tags, then lo, hi and
        the midpoint (``_candidates``), tried lazily in the order
        ``_order`` gives; a suggested tag that is not an endpoint or the
        midpoint keeps the exact ball test (``_ball_holds``).

        Each node's endpoints travel as Fractions and as their integer
        pairs, and its midpoint is built from them with one gcd
        (``_coprime_fraction``). A reach is computed only when the radius
        is another object than the one whose reach was computed last: a
        gauge that returns one radius object at many points, such as a
        constant one, costs one reach. The cyclic collector is paused for
        the walk, which keeps almost everything it allocates, and resumed
        (if it was on) however the walk ends.

        The uniform-block step replaces the walk when the gauge declares a
        constant radius r (``Gauge.constant``) and no tag oracle, the build
        has no ``rng``, and r <= W, so that the reach k is at least 1.
        Every bisection point then has reach k, so the walk would build the
        2^(k−1) cells of depth k − 1, each accepting its midpoint and
        rejecting its endpoints (a closed tree), or raise at its leftmost
        node of depth ``max_depth`` if k − 1 exceeds it. The step makes the
        walk's first radius call, at lo, and returns that result as a
        ``_Block`` without visiting a node. A reach of 0 (the root accepts
        lo and stays open) and a shuffled build take the walk.
        """
        domain, gauge, max_depth = self.domain, self.gauge, self.max_depth
        radius_at = gauge.radius_at
        oracle = gauge.suggest_tag is not None
        width = domain.hi - domain.lo
        wn, wd = width.numerator, width.denominator
        r = gauge.constant
        if r is not None and rng is None and not oracle and wn * r.denominator >= r.numerator * wd:
            r = radius_at(domain.lo)
            depth = (wn * r.denominator // (wd * r.numerator)).bit_length() - 1
            if depth > max_depth:
                depth = max(max_depth, 0)
                iv = _ordered_iv(domain.lo, domain.lo + Fraction(wn, wd << depth)) if depth else domain
                raise _exhausted(iv, depth, gauge)
            self.closed = _Block(domain, depth)
            return self.closed
        nodes = []
        items = []
        closed = True
        sugg = ()  # a gauge without a tag oracle suggests nothing anywhere
        last_r = k_r = None  # the latest radius object whose reach was taken
        lo, hi = domain.lo, domain.hi
        stack = [(lo, hi, lo.numerator, lo.denominator, hi.numerator, hi.denominator,
                  0, None, None)]
        collecting = gc.isenabled()
        if collecting:
            gc.disable()
        try:
            while stack:
                lo, hi, ln, ld, hn, hd, depth, k_lo, k_hi = stack.pop()
                mn = ln * hd + hn * ld
                md = 2 * ld * hd
                g = gcd(mn, md)
                mn //= g
                md //= g
                m = _new_object(Fraction)  # _coprime_fraction(mn, md), inlined
                m._numerator = mn
                m._denominator = md
                iv = tag = None
                if oracle:
                    iv = _ordered_iv(lo, hi) if depth else domain
                    sugg = gauge.suggestions(iv)
                if rng is None and k_lo is not None and not sugg:
                    n = 3
                    if depth >= k_lo:
                        tag, cands, verdicts = lo, (lo, hi, m), [True, depth >= k_hi, None]
                        closed = False  # the midpoint's verdict is unknown
                    elif depth >= k_hi:
                        tag, cands, verdicts = hi, (lo, hi, m), [False, True, None]
                        closed = False
                    else:
                        r = radius_at(m)
                        if r is not last_r:
                            last_r = r
                            k_r = (wn * r.denominator // (wd * r.numerator)).bit_length()
                        k_mid = k_r
                        if depth >= k_mid - 1:
                            tag, cands, verdicts = m, (lo, hi, m), [False, False, True]
                else:
                    cands, i_lo, i_hi, i_mid = _candidates(sugg, lo, hi, m)
                    n = len(cands)
                    offsets = [None] * n
                    offsets[i_lo] = offsets[i_hi] = 0
                    offsets[i_mid] = 1
                    verdicts = [None] * n
                    reach = [None] * n
                    if k_lo is not None:
                        reach[i_lo], reach[i_hi] = k_lo, k_hi
                        verdicts[i_lo], verdicts[i_hi] = depth >= k_lo, depth >= k_hi
                    for j in _order(n, rng):
                        ok = verdicts[j]
                        if ok is None:
                            x = cands[j]
                            r = radius_at(x)
                            off = offsets[j]
                            if off is None:
                                ok = _ball_holds(x, r, lo, hi)
                            else:
                                if r is not last_r:
                                    last_r = r
                                    k_r = (wn * r.denominator // (wd * r.numerator)).bit_length()
                                reach[j] = k_r
                                ok = depth + off >= k_r
                            verdicts[j] = ok
                        if ok:
                            tag = cands[j]
                            if None in verdicts or verdicts.count(True) != 1:
                                closed = False
                            break
                    else:
                        k_lo, k_mid, k_hi = reach[i_lo], reach[i_mid], reach[i_hi]
                if tag is None and depth < max_depth:
                    nodes.append(n)
                    depth += 1
                    stack.append((m, hi, mn, md, hn, hd, depth, k_mid, k_hi))
                    stack.append((lo, m, ln, ld, mn, md, depth, k_lo, k_mid))
                    continue
                if iv is None:
                    if depth:  # _ordered_iv(lo, hi), inlined
                        iv = _new_object(Iv)
                        _set_lo(iv, lo)
                        _set_hi(iv, hi)
                    else:
                        iv = domain
                if tag is None:
                    raise _exhausted(iv, depth, gauge)
                items.append(_tuple_new(Item, (tag, iv)))
                nodes.append((iv, cands, verdicts))
        finally:
            if collecting:
                gc.enable()
        # only a complete first build is kept: a failed one leaves the tree empty
        items = tuple(items)
        self.nodes = nodes
        self.closed = items if closed else None
        if rng is None:
            self.first = items
        return items

    def _replay(self, rng: Optional[random.Random]):
        if self.closed is not None:
            return self.closed
        if rng is None and self.first is not None:
            return self.first
        gauge = self.gauge
        items = []
        for node in self.nodes:
            if node.__class__ is int:
                _order(node, rng)  # keep the RNG stream in step
                continue
            iv, cands, verdicts = node
            tag = _pick(iv, cands, verdicts, _order(len(cands), rng), gauge)
            items.append(Item(tag, iv))
        items = tuple(items)
        if rng is None:
            self.first = items
        return items

    def tags_agree_on(self, S) -> bool:
        """Whether, in every recorded cell, the acceptable candidates all
        lie in ``S`` or all lie outside it.

        Then every replay gives each cell a tag of the same membership, so
        a sum whose terms depend on a tag only through membership in ``S``
        is the same on every replay. A closed tree agrees without a look.
        Otherwise each cell with an unknown verdict has them all evaluated
        and recorded, and ``S`` is asked about the acceptable candidates of
        each cell with more than one. A radius or membership error
        propagates; the verdicts recorded before it stay valid.
        """
        if self.closed is not None:
            return True
        radius_at = self.gauge.radius_at
        for node in self.nodes:
            if node.__class__ is int:
                continue
            iv, cands, verdicts = node
            if None in verdicts:
                for j, ok in enumerate(verdicts):
                    if ok is None:
                        x = cands[j]
                        verdicts[j] = _ball_holds(x, radius_at(x), iv.lo, iv.hi)
            if verdicts.count(True) > 1:
                inside = None
                for x, ok in zip(cands, verdicts):
                    if ok:
                        here = x in S
                        if inside is None:
                            inside = here
                        elif here is not inside:
                            return False
        return True


def cousin_partition(
    domain: Iv,
    gauge: Gauge,
    max_depth: Optional[int] = None,
    rng: Optional[random.Random] = None,
    tree: Optional[PartitionTree] = None,
) -> TaggedPartition:
    """Build a partition of ``domain`` subordinate to ``gauge`` by bisection.

    For each interval the gauge's suggested tags are tried first, then the
    endpoints and the midpoint; the first candidate whose ball strictly
    contains the interval is accepted, otherwise the interval is bisected at
    its exact midpoint. A ``rng`` shuffles the candidate order, which is the
    only source of randomness; the split point never moves.

    Given a ``tree`` (see :class:`PartitionTree`), the first call records
    the bisection in it and later calls replay it: the same partition as a
    fresh build with the same ``rng``, with the same radius error at the
    same node, but each candidate of a node is evaluated at most once and
    the tag oracle is consulted once per node. A closed tree (every cell
    has exactly one acceptable candidate) returns its recorded partition and
    draws nothing from ``rng``. Raises ValueError if ``tree`` was recorded
    for another domain, gauge object or depth cap.

    Under a gauge that declares a constant radius (``Gauge.constant``) and
    no tag oracle, a first build without ``rng`` makes one radius call and
    returns the same partition as a uniform block, whose items are built
    when first read (``PartitionTree._grow``).

    Raises DepthExhaustedError carrying the smallest unaccepted interval if
    the cap is hit.
    """
    if max_depth is None:
        max_depth = MAX_DEPTH_DEFAULT
    if tree is None:
        tree = PartitionTree()
    tree._bind(domain, gauge, max_depth)
    recorded = tree.nodes or tree.closed is not None
    items = tree._replay(rng) if recorded else tree._grow(rng)
    if items.__class__ is _Block:
        return _block_partition(items, domain)
    # depth-first, left half first: the cells already come sorted
    return TaggedPartition(tuple(items), domain)


def sample_partitions(
    domain: Iv,
    gauge: Gauge,
    samples: int,
    master: random.Random,
    max_depth: Optional[int] = None,
    tree: Optional[PartitionTree] = None,
):
    """Yield ``samples`` partitions of ``domain`` subordinate to ``gauge``.

    Sample 0 uses the deterministic candidate order; sample i > 0 shuffles
    with ``Random(master.getrandbits(64))``, drawn when the sample is
    requested. All samples replay one :class:`PartitionTree` (``tree``, or
    a fresh one), so the gauge fixes the cells and the seed only picks the
    tags: the samples share their cell objects, and a cell whose tag did
    not change carries the same tag object. Sums over the samples are
    therefore resummed only where a tag changed (``_sample_sums``). When the
    tree is closed, every sample is the first one's partition, and the
    per-sample generators draw nothing; ``master`` advances as always.
    """
    if tree is None:
        tree = PartitionTree()
    for i in range(samples):
        rng = None if i == 0 else random.Random(master.getrandbits(64))
        yield cousin_partition(domain, gauge, max_depth=max_depth, rng=rng, tree=tree)


def merge_partitions(parts: Sequence[TaggedPartition]) -> TaggedPartition:
    """Concatenate partitions of abutting domains into one partition."""
    if not parts:
        raise PartitionMergeError("nothing to merge")
    ordered = sorted(parts, key=lambda p: (p.domain.lo, p.domain.hi))
    for a, b in zip(ordered, ordered[1:]):
        if a.domain.hi < b.domain.lo:
            raise PartitionMergeError(
                f"gap between {a.domain} and {b.domain}"
            )
        if a.domain.hi > b.domain.lo:
            raise PartitionMergeError(
                f"overlap between {a.domain} and {b.domain}"
            )
    items = [it for p in ordered for it in p.items]
    domain = Iv(ordered[0].domain.lo, ordered[-1].domain.hi)
    return TaggedPartition.of(items, domain)


@record
class HkRow:
    eps: Fraction
    sums: tuple  # of ValueWithError
    spread: Fraction

    def payload(self) -> dict:
        return {
            "eps": rat_str(self.eps),
            "sums": [s.payload() for s in self.sums],
            "spread": rat_str(self.spread),
        }


@record
class HkReport:
    """Sampled Riemann sums per epsilon. Evidence, never a proof: only
    finitely many subordinate partitions are ever examined."""

    fn_name: str
    a: Fraction
    b: Fraction
    rows: tuple
    reversed_orientation: bool
    tol: Optional[Fraction]
    converged: Optional[bool]

    @property
    def final_sums(self) -> tuple:
        return self.rows[-1].sums

    def payload(self) -> dict:
        return {
            "fn": self.fn_name,
            "from": rat_str(self.a),
            "to": rat_str(self.b),
            "reversed": self.reversed_orientation,
            "rows": [r.payload() for r in self.rows],
            "tol": None if self.tol is None else rat_str(self.tol),
            "converged": self.converged,
            "note": "sampled evidence only",
        }


def hk_estimate(
    f,
    a,
    b,
    family: Callable[[Fraction], Gauge],
    schedule: Sequence[Fraction],
    samples_per_eps: int = 3,
    seed: int = 0,
    tol: Optional[Fraction] = None,
    max_depth: Optional[int] = None,
) -> HkReport:
    """Sample Riemann sums of ``f`` over subordinate partitions of [a, b].

    ``family`` maps each epsilon of ``schedule`` to a gauge. For each
    epsilon, ``samples_per_eps`` partitions are built: the first with the
    deterministic candidate order, the rest with seeded shuffles. Reversed
    endpoints (a > b) negate every reported sum. With ``tol``, ``converged``
    says whether the last epsilon's sums, error bounds included, all lie in
    one interval of length ``tol``.
    """
    a = Fraction(a)
    b = Fraction(b)
    reverse = a > b
    lo, hi = (b, a) if reverse else (a, b)
    domain = Iv(lo, hi)
    master = random.Random(seed)
    rows = []
    for eps in schedule:
        eps = Fraction(eps)
        gauge = family(eps)
        sums = []
        parts = sample_partitions(domain, gauge, samples_per_eps, master, max_depth)
        for _, s in _riemann_sums(f, parts):
            sums.append(-s if reverse else s)
        values = [s.value for s in sums]
        rows.append(HkRow(eps, tuple(sums), max(values) - min(values)))
    converged = None
    if tol is not None:
        last = rows[-1].sums
        top = max(s.value + s.err for s in last)
        bot = min(s.value - s.err for s in last)
        converged = top - bot <= Fraction(tol)
    return HkReport(
        fn_name=getattr(f, "name", "f"),
        a=a,
        b=b,
        rows=tuple(rows),
        reversed_orientation=reverse,
        tol=None if tol is None else Fraction(tol),
        converged=converged,
    )


def dump_partition_csv(path, p: TaggedPartition, gauge: Optional[Gauge] = None, f=None):
    """Write one row per item: tag, cell_lo, cell_hi, radius_at_tag, f_at_tag.

    All rationals are serialized as 'num/den'; missing gauge or function
    leaves the corresponding column empty.
    """
    import csv

    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["tag", "cell_lo", "cell_hi", "radius_at_tag", "f_at_tag"])
        for tag, cell in p.items:
            radius = rat_str(gauge.radius_at(tag)) if gauge is not None else ""
            fval = rat_str(f(tag).value) if f is not None else ""
            w.writerow([rat_str(tag), rat_str(cell.lo), rat_str(cell.hi), radius, fval])
