"""Plain Fraction references for the exact hot path.

Each function is the straightforward version of a fast path in gaugekit,
written for clarity, not speed: memo keys are the Fraction points
themselves, tests compare Fractions, and sums add Fraction terms one by
one, each term a Fraction product with the cell's ``length``;
``RadiusPassingTree`` grows the bisection on Fraction radii and ball tests;
and ``realize`` builds each construction stage by stage from Fraction
midpoints and thirds. The tests compare every fast path with its reference
here.
"""

from fractions import Fraction
from fractions import Fraction as F
from functools import lru_cache
from typing import Tuple

from gaugekit import core, sets
from gaugekit.core import Item, Iv, PartitionTree, ValueWithError
from gaugekit.errors import DepthExhaustedError, DomainError
from gaugekit.funcs import point_set

ZERO = F(0)
ONE = F(1)


@lru_cache(maxsize=None)
def _locate_keyed_on_fraction(kind, x, depth_cap):
    return sets._classify(kind, x.numerator, x.denominator, depth_cap)


def locate_memo(s, x):
    """``sets._locate_memo`` with the memo keyed on the Fraction point."""
    return _locate_keyed_on_fraction(s.kind, x, s.depth_cap)


def nearest_set_points(s, iv):
    """``funcs.nearest_set_points`` by Fraction comparisons, asking
    ``sets.member`` and then ``sets.complement_component``."""
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


def generated_contains(s, x):
    """``x in GeneratedFailureSet(s)``: x in the base and a member."""
    return x in s.base and sets.member(s, x)


def candidates(sugg, lo, hi, m):
    """The builder's candidate tags, deduplicated by hashing the Fractions,
    and the positions of lo, hi and m among them."""
    cands = tuple(dict.fromkeys(sugg + (lo, hi, m)))
    return (cands, cands.index(lo), cands.index(hi), cands.index(m))


def ball_holds(x, r, lo, hi):
    """Whether the open ball of radius r around x contains [lo, hi]."""
    return x - r < lo and hi < x + r


def inner_distance(x, l, r):
    return min(x - l, r - x)


def suggestions(gauge, iv):
    """``Gauge.suggestions``: every offered point coerced and kept if in iv."""
    if gauge.suggest_tag is None:
        return ()
    return tuple(c for c in map(F, gauge.suggest_tag(iv)) if c in iv)


def running_sums(items, term, width):
    """Σ of the non-None ``term(tag, cell)`` tuples of ``(numerator,
    denominator)`` pairs, one Fraction at a time."""
    totals = [ZERO] * width
    for tag, cell in items:
        t = term(tag, cell)
        if t is not None:
            totals = [s + F(n, d) for s, (n, d) in zip(totals, t)]
    return totals


def sample_sums(parts, term, width):
    """``core._sample_sums``: every partition summed in full."""
    for part in parts:
        yield part, tuple(running_sums(part.items, term, width))


def riemann_sum(f, p):
    """Σ f(tag)·|cell| and Σ err(tag)·|cell|, one Fraction term at a time."""
    total = err = ZERO
    for tag, cell in p.items:
        v = f(tag)
        w = cell.length
        total += v.value * w
        err += v.err * w
    return ValueWithError(total, err)


def riemann_sums(f, parts):
    for part in parts:
        yield part, riemann_sum(f, part)


def int_factor(v):
    """A ValueWithError as an integer factor ``(vn, vd, en, ed)``."""
    return v.value.numerator, v.value.denominator, v.err.numerator, v.err.denominator


def product_sum(factors, p):
    """Σ Π factors(tag)·|cell| over the tags where ``factors`` is not None.
    A factor is ``(vn, vd, en, ed)``, the value vn/vd with the error bound
    en/ed, as ``core._product_sums`` takes it. The error of a product p·x
    is |p|·e_x + |x|·e_p + e_p·e_x: the farthest corner of the two error
    boxes."""
    total = err = ZERO
    for tag, cell in p.items:
        fs = factors(tag)
        if fs is None:
            continue
        v, e = ONE, ZERO
        for xn, xd, en, ed in fs:
            x, ex = F(xn, xd), F(en, ed)
            v, e = v * x, abs(v) * ex + abs(x) * e + e * ex
        w = cell.length
        total += v * w
        err += e * w
    return ValueWithError(total, err)


def product_sums(factors, parts):
    for part in parts:
        yield part, product_sum(factors, part)


def variation_sums(f, p, E):
    """(Σ|Δf|, |ΣΔf|) over the tags in E, one Fraction term at a time."""
    S = point_set(E)
    abs_total = abs_err = signed_total = ZERO
    for tag, cell in p.items:
        if tag not in S:
            continue
        hi = f(cell.hi)
        lo = f(cell.lo)
        delta = hi.value - lo.value
        abs_total += abs(delta)
        abs_err += hi.err + lo.err
        signed_total += delta
    return (
        ValueWithError(abs_total, abs_err),
        ValueWithError(abs(signed_total), abs_err),
    )


def variation_sums_of(f, S, parts):
    for part in parts:
        yield part, variation_sums(f, part, S)


def cantor_fn(x):
    """The Cantor function with its domain checked on Fractions."""
    x = F(x)
    if not ZERO <= x <= ONE:
        raise DomainError(f"cantor_fn needs x in [0,1], got {x}", witness=x)
    if x == 1:
        return ONE
    n, _, bits, start, _ = sets._ternary_walk(x.numerator, x.denominator)
    if start is None:
        return F(2 * bits + 1, 1 << n)
    period = n - start
    return F(bits - (bits >> period), ((1 << period) - 1) << start)


def _radius_passing_pick(iv, cands, verdicts, order, gauge, radii):
    for j in order:
        ok = verdicts[j]
        if ok is None:
            x = cands[j]
            r = gauge.radius_at(x)
            radii[j] = r
            ok = verdicts[j] = x - r < iv.lo and iv.hi < x + r
        if ok:
            return cands[j]
    return None


class RadiusPassingTree(PartitionTree):
    """``PartitionTree``'s first build with no integer reaches and one kind
    of node: the suggested tags, lo, hi and the midpoint, deduplicated by
    hashing, tried in ``core._order``; the Fraction radii at a node's
    endpoints and midpoint pass down to its children, and every verdict is
    the exact ball test. It never closes, so its replays walk the recorded
    nodes."""

    def _grow(self, rng):
        domain, gauge, max_depth = self.domain, self.gauge, self.max_depth
        nodes = []
        items = []
        stack = [(domain, 0, None, None)]
        while stack:
            iv, depth, r_lo, r_hi = stack.pop()
            lo, hi = iv.lo, iv.hi
            m = (lo + hi) / 2
            cands = tuple(dict.fromkeys(gauge.suggestions(iv) + (lo, hi, m)))
            n = len(cands)
            verdicts = [None] * n
            radii = [None] * n
            if r_lo is not None:
                for x, r in ((lo, r_lo), (hi, r_hi)):
                    j = cands.index(x)
                    radii[j] = r
                    verdicts[j] = x - r < lo and hi < x + r
            order = core._order(n, rng)
            tag = _radius_passing_pick(iv, cands, verdicts, order, gauge, radii)
            if tag is not None:
                items.append(Item(tag, iv))
                nodes.append((iv, cands, verdicts))
                continue
            if depth >= max_depth:
                raise DepthExhaustedError(
                    f"no acceptable tag for {iv} after {depth} bisections "
                    f"under gauge {gauge.name!r}",
                    interval=iv,
                )
            nodes.append(n)
            r_lo, r_mid, r_hi = (radii[cands.index(x)] for x in (lo, m, hi))
            stack.append((Iv(m, hi), depth + 1, r_mid, r_hi))
            stack.append((Iv(lo, m), depth + 1, r_lo, r_mid))
        self.nodes = nodes
        return items


def _cantor_cells(depth: int) -> Tuple[Iv, ...]:
    cells = (Iv(0, 1),)
    for _ in range(depth):
        nxt = []
        for c in cells:
            w = c.length / 3
            nxt.append(Iv(c.lo, c.lo + w))
            nxt.append(Iv(c.hi - w, c.hi))
        cells = tuple(nxt)
    return cells


def _svc_cells(depth: int) -> Tuple[Iv, ...]:
    cells = (Iv(0, 1),)
    for step in range(1, depth + 1):
        half = Fraction(1, 4**step) / 2
        nxt = []
        for c in cells:
            m = c.midpoint
            nxt.append(Iv(c.lo, m - half))
            nxt.append(Iv(m + half, c.hi))
        cells = tuple(nxt)
    return cells


@lru_cache(maxsize=None)
def _realize(kind, depth):
    if kind == sets.TERNARY_CANTOR:
        return _cantor_cells(depth)
    if kind == sets.SVC:
        return _svc_cells(depth)
    right = _cantor_cells(depth)
    left = tuple(Iv(-c.hi, -c.lo) for c in reversed(right))
    # the two cells meeting at 0 merge into one
    merged = Iv(left[-1].lo, right[0].hi)
    return left[:-1] + (merged,) + right[1:]


def realize(s, depth):
    """``sets.realize``: the stage built level by level, on Fractions."""
    return _realize(s.kind, depth)


def stage_endpoints(s, depth):
    """The flat list of ``realize``'s cell ends, the stage's endpoint pool."""
    return [pt for c in realize(s, depth) for pt in (c.lo, c.hi)]
