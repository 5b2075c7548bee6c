"""Cantor-type generated sets with exact rational queries.

Three constructions are supported: the middle-thirds Cantor set on [0, 1],
its reflection C ∪ (−C) on [−1, 1], and the fat Cantor set on [0, 1] built
by removing a centered open interval of length 4^(−n) from each surviving
interval at step n (limit measure 1/2).

Membership for the middle-thirds constructions is decided exactly for every
rational input by ternary digit analysis (rational expansions are eventually
periodic, so the scan is finite). The fat-Cantor construction has no
depth-independent digit map, so its queries walk the construction tree:
realization endpoints are recognized as members immediately, points falling
into a removed gap are resolved at that gap's depth, and anything still
ambiguous at the set's depth cap raises UndecidedError with certified bounds.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import Tuple

from ._record import record
from .core import Iv
from .errors import DomainError, InvalidSetError, UndecidedError

TERNARY_CANTOR = "ternary_cantor"
REFLECTED_CANTOR = "reflected_cantor"
SVC = "svc"

# A fat-Cantor set's default walk depth cap; queries that would need to
# look deeper return certified bounds instead of an exact answer.
DEPTH_CAP_DEFAULT = 200

# realize() materializes 2^depth cells; refuse to allocate absurd amounts,
# and look up no endpoint of a stage it would refuse.
REALIZE_DEPTH_LIMIT = 24


@record
class GeneratedSet:
    kind: str
    base: Iv
    depth_cap: int = DEPTH_CAP_DEFAULT  # of the fat-Cantor walk; C and D read none

    def __post_init__(self):
        # a walk of no step decides nothing, and a negative one cannot shift
        cap = self.depth_cap
        if cap.__class__ is not int or cap < 1:
            raise InvalidSetError(f"set depth cap must be an integer >= 1, got {cap!r}")

    def __str__(self):
        return self.kind


def ternary_cantor() -> GeneratedSet:
    return GeneratedSet(TERNARY_CANTOR, Iv(0, 1))


def reflected_cantor() -> GeneratedSet:
    return GeneratedSet(REFLECTED_CANTOR, Iv(-1, 1))


def svc(depth_cap: int = DEPTH_CAP_DEFAULT) -> GeneratedSet:
    return GeneratedSet(SVC, Iv(0, 1), depth_cap)


@record
class ComponentRef:
    """A maximal open interval of the complement, with its creation depth."""

    interval: Iv
    depth_created: int


def _endpoint_count(kind: str, depth: int) -> int:
    """The number of cell endpoints in the depth-n stage of ``kind``."""
    if depth < 0:
        raise ValueError("depth must be nonnegative")
    if depth > REALIZE_DEPTH_LIMIT:
        raise ValueError(f"realize depth {depth} exceeds limit {REALIZE_DEPTH_LIMIT}")
    if kind == TERNARY_CANTOR or kind == SVC:
        return 2 << depth
    if kind == REFLECTED_CANTOR:
        # C's endpoints but 0, mirrored, then as they are
        return (4 << depth) - 2
    raise ValueError(f"unknown set kind {kind!r}")


def _endpoint(kind: str, depth: int, k: int) -> Fraction:
    """Endpoint k, 0 <= k < ``_endpoint_count``, of the depth-n stage, in O(n)
    integer steps. It is end k & 1 of cell i = k >> 1, whose low end lo
    takes the right child at step s where bit n − s of i is 1. C's cells
    have width 1 on the scale 3^n, and a step maps lo to 3·lo or 3·lo + 2,
    so lo is i's binary digits read in base 3, doubled. S's have width
    2^(n+2) + 4 on ``_svc_walk``'s scale 2^(2n+3), and step s adds 2^s + 3
    to lo for a right child, then shifts lo left by 2, so lo is 2^(n+2)·i
    plus 12 times i's binary digits read in base 4."""
    sign = 1
    if kind == REFLECTED_CANTOR:
        h = (2 << depth) - 1
        kind = TERNARY_CANTOR
        sign, k = (-1, h - k) if k < h else (1, k - h + 1)
    i, end = k >> 1, k & 1
    if kind == TERNARY_CANTOR:
        return Fraction(sign * (2 * int(f"{i:b}", 3) + end), 3**depth)
    lo = (i << (depth + 2)) + 12 * int(f"{i:b}", 4)
    return Fraction(lo + end * ((1 << (depth + 2)) + 4), 1 << (2 * depth + 3))


def realize(s: GeneratedSet, depth: int) -> Tuple[Iv, ...]:
    """The depth-n stage of the construction as sorted disjoint closed cells.

    For the one-sided kinds this is 2^depth cells; the reflected kind merges
    the pair meeting at 0 and yields 2^(depth+1) − 1 maximal cells.
    """
    ends = [_endpoint(s.kind, depth, k) for k in range(_endpoint_count(s.kind, depth))]
    return tuple(map(Iv, ends[::2], ends[1::2]))


def measure_at(s: GeneratedSet, depth: int) -> Fraction:
    """Exact total length of the depth-n stage (computed in closed form)."""
    if depth < 0:
        raise ValueError("depth must be nonnegative")
    if s.kind == TERNARY_CANTOR:
        return Fraction(2, 3) ** depth
    if s.kind == REFLECTED_CANTOR:
        return 2 * Fraction(2, 3) ** depth
    if s.kind == SVC:
        # 1 − Σ_{k=1..n} 2^(k−1) 4^(−k)
        return Fraction(1, 2) + Fraction(1, 2 ** (depth + 1))
    raise ValueError(f"unknown set kind {s.kind!r}")


# ---------------------------------------------------------------------------
# middle-thirds locator: exact via ternary digits
# ---------------------------------------------------------------------------


def _ternary_walk(p: int, q: int):
    """Read the ternary digits of p/q, 0 <= p < q, on integer remainders.

    Each step is ``d, r = divmod(3*r, q)``. The walk stops at the first
    digit 1 or when a remainder repeats, which happens within q steps (a
    terminating expansion repeats the remainder 0). Returns
    ``(n, prefix, bits, start, rem)``: n digits were read, and the 0/2
    digits before the stop are ``prefix`` as a ternary integer and ``bits``
    as binary digits (2 read as 1). At a digit 1, the n-th digit, ``start``
    is None and ``rem`` is the remainder after it; on a repeat, digits
    start + 1 to n repeat forever and ``rem`` is None.
    """
    seen = {}
    r = p
    n = prefix = bits = 0
    while r not in seen:
        seen[r] = n
        d, r = divmod(3 * r, q)
        n += 1
        if d == 1:
            return (n, prefix, bits, None, r)
        prefix = 3 * prefix + d
        bits = (bits << 1) | (d >> 1)
    return (n, prefix, bits, seen[r], None)


def _cantor_classify(p: int, q: int):
    """Classify x = p/q in [−1, 1], in lowest terms, against C ∪ (−C); for
    x in [0, 1] that is C.

    Returns ('member', None) or ('gap', (l, r, depth)) where (l, r) is the
    maximal removed middle third containing x (reflected for x < 0). The
    walk runs on |x|'s integer remainders; Fractions are built only for a
    gap's endpoints.
    """
    a = abs(p)
    if a == q:
        return ("member", None)
    n, prefix, _, start, rem = _ternary_walk(a, q)
    if start is not None or rem == 0:
        # a repeat of 0/2 digits, or x = prefix + 3^(−n) = prefix 0(222...)
        return ("member", None)
    scale = 3**n
    lo, hi = 3 * prefix + 1, 3 * prefix + 2
    if p < 0:
        lo, hi = -hi, -lo
    return ("gap", (Fraction(lo, scale), Fraction(hi, scale), n))


# ---------------------------------------------------------------------------
# fat-Cantor locator: construction-tree walk
# ---------------------------------------------------------------------------


def _svc_walk(p: int, q: int, depth: int, settle: bool):
    """Walk x = p/q in [0, 1], in lowest terms, down ``depth`` steps of the
    fat-Cantor construction.

    Returns ('gap', (l, r, step)) when x falls into the gap removed at
    ``step``; ('member', None) when ``settle`` and x is proven a member on
    the way; else ('cell', (lo, hi)), the depth-``depth`` cell holding x.

    Step s works on the scale 2^(2s+1), where the cell it splits has
    integer endpoints lo and lo + 2^(s+1) + 4 and the gap it removes is
    (lo + 2^s + 1, lo + 2^s + 3). The walk keeps lo and a = (x − lo)·q on
    that scale, x = p/q, so every comparison is between integers.

    Dyadic rationals always settle: at step s >= 2 the cell endpoints are
    integers on the scale 2^(2s−1) and the removed gap is centered on a
    half-integer with half-width 1/4 on that scale, so a point that is an
    integer on the scale can never fall into that gap or any later one.
    A surviving dyadic is therefore a member as soon as the scale catches
    up with its denominator.
    """
    dyadic = settle and q & (q - 1) == 0
    lo, a = 0, p << 3
    for step in range(1, depth + 1):
        t = q << step
        if settle and (a == 0 or a == 2 * t + 4 * q):
            return ("member", None)
        if dyadic and step >= 2 and q <= 1 << (2 * step - 1):
            return ("member", None)
        left, right = t + q, t + 3 * q
        if left < a < right:
            g = lo + (1 << step) + 1
            scale = 1 << (2 * step + 1)
            return ("gap", (Fraction(g, scale), Fraction(g + 2, scale), step))
        if a >= right:
            lo += (1 << step) + 3
            a -= right
        lo <<= 2
        a <<= 2
    scale = 1 << (2 * depth + 3)
    return ("cell", (Fraction(lo, scale), Fraction(lo + (1 << (depth + 2)) + 4, scale)))


def _svc_classify(p: int, q: int, depth_cap: int):
    """Classify x = p/q in [0,1], in lowest terms, against the fat Cantor set.

    Returns ('member', None), ('gap', (l, r, depth)), or raises
    UndecidedError carrying certified distance bounds if the walk is still
    ambiguous at the cap.
    """
    kind, data = _svc_walk(p, q, depth_cap, True)
    if kind != "cell":
        return (kind, data)
    x = Fraction(p, q)
    raise UndecidedError(
        f"fat-Cantor query for {x} unresolved at depth {depth_cap}",
        bounds=(Fraction(0), _inner_distance(x, *data)),
    )


def _classify(kind: str, p: int, q: int, depth_cap: int):
    """Dispatch on x = p/q in lowest terms, which must lie in the kind's
    base interval, to the right locator."""
    if kind == TERNARY_CANTOR or kind == REFLECTED_CANTOR:
        return _cantor_classify(p, q)
    if kind == SVC:
        return _svc_classify(p, q, depth_cap)
    raise ValueError(f"unknown set kind {kind!r}")


@lru_cache(maxsize=200_000)
def _locate_default(kind: str, p: int, q: int, depth_cap: int):
    # keyed on the point's numerator and denominator: a Fraction is in
    # lowest terms with a positive denominator, so they name its value, and
    # hashing two ints is cheaper than Fraction.__hash__. The cap is part of
    # the key: an answer found under one cap is not an answer under a
    # smaller one. The base is not: each kind fixes its base
    return _classify(kind, p, q, depth_cap)


def _locate_memo(s: GeneratedSet, x: Fraction):
    return _locate_default(s.kind, x.numerator, x.denominator, s.depth_cap)


def member(s: GeneratedSet, x) -> bool:
    """Exact membership in the limit set; x must lie in the base interval."""
    if x.__class__ is not Fraction:
        x = Fraction(x)
    if x not in s.base:
        raise DomainError(f"{x} outside base {s.base} of {s.kind}", witness=x)
    kind, _ = _locate_memo(s, x)
    return kind == "member"


def complement_component(s: GeneratedSet, x) -> ComponentRef:
    """The maximal open interval around x disjoint from the limit set."""
    if x.__class__ is not Fraction:
        x = Fraction(x)
    if not s.base.interior_contains(x):
        raise DomainError(
            f"{x} not interior to base {s.base} of {s.kind}", witness=x
        )
    kind, data = _locate_memo(s, x)
    if kind == "member":
        raise DomainError(f"{x} belongs to {s.kind}", witness=x)
    l, r, depth = data
    return ComponentRef(Iv(l, r), depth)


def distance(s: GeneratedSet, x) -> Fraction:
    """Exact distance from x to the limit set.

    Points outside the base interval are measured to the nearest hull
    endpoint (hull endpoints belong to all three constructions). Raises
    UndecidedError past the depth cap; use distance_bounds for the
    bounds-only variant.
    """
    if x.__class__ is not Fraction:
        x = Fraction(x)
    if x < s.base.lo:
        return s.base.lo - x
    if x > s.base.hi:
        return x - s.base.hi
    kind, data = _locate_memo(s, x)
    if kind == "member":
        return Fraction(0)
    l, r, _ = data
    return _inner_distance(x, l, r)


def _inner_distance(x: Fraction, l: Fraction, r: Fraction) -> Fraction:
    """min(x − l, r − x), for x in [l, r], built as one Fraction from
    integer cross-products: no Fraction subtraction or comparison."""
    xn, xd = x.numerator, x.denominator
    ln, ld = l.numerator, l.denominator
    rn, rd = r.numerator, r.denominator
    an, ad = xn * ld - ln * xd, xd * ld  # x − l
    bn, bd = rn * xd - xn * rd, rd * xd  # r − x
    if bn * ad < an * bd:
        return Fraction(bn, bd)
    return Fraction(an, ad)


def distance_bounds(s: GeneratedSet, x) -> Tuple[Fraction, Fraction]:
    """Certified (lower, upper) bounds on the distance; equal when exact."""
    try:
        d = distance(s, x)
        return (d, d)
    except UndecidedError as exc:
        return exc.bounds


def svc_stage_interval(x, depth: int) -> Iv:
    """The depth-n surviving interval of the fat Cantor construction
    containing the member point x. Raises DomainError if x falls into a
    removed gap on the way down."""
    x = Fraction(x)
    if not 0 <= x <= 1:
        raise DomainError(f"{x} outside [0,1]", witness=x)
    kind, data = _svc_walk(x.numerator, x.denominator, depth, False)
    if kind == "gap":
        raise DomainError(
            f"{x} falls into the step-{data[2]} gap; not a member", witness=x
        )
    return Iv(*data)


def stage_endpoint(s: GeneratedSet, depth: int, k: int) -> Fraction:
    """Entry k of the depth-n stage's cell endpoints (all limit-set
    members) in increasing order, for −N <= k < N as a sequence of the N
    endpoints takes it. It costs O(depth) integer steps and builds no cell."""
    n = _endpoint_count(s.kind, depth)
    if not -n <= k < n:
        raise ValueError(f"endpoint index {k} out of range for the {n} endpoints "
                         f"of the depth-{depth} stage of {s.kind}")
    return _endpoint(s.kind, depth, k % n)


def endpoint_sample(s: GeneratedSet, depth: int, count: int, seed: int = 0):
    """Seeded sample of stage endpoints, in increasing order: ``count``
    endpoint indices drawn by ``random.sample``, or all of them."""
    import random

    n = _endpoint_count(s.kind, depth)
    picked = range(n) if count >= n else sorted(random.Random(seed).sample(range(n), count))
    return tuple(_endpoint(s.kind, depth, k) for k in picked)


def dump_realization_csv(path, s: GeneratedSet, depth: int) -> None:
    """Write the depth-n stage as CSV rows: depth, lo, hi ('num/den')."""
    import csv

    from .core import rat_str

    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["depth", "lo", "hi"])
        for cell in realize(s, depth):
            w.writerow([depth, rat_str(cell.lo), rat_str(cell.hi)])
