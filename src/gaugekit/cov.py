"""Verdict machinery for the substitution identity and the fundamental
theorem, plus the fat-Cantor composition counterexample check.

An instance bundles f, F (an antiderivative of f on the relevant range), a
substituting function g, and the declared failure set B of the chain-rule
identity for F∘g. The check compares F(g(β)) − F(g(α)) (closed form,
exact) against sampled Riemann sums of x ↦ f(g(x))·h(x) with h zeroed on B,
under the gauge that is actually certified for the job: increment modulus
of F∘g off B, the conditional-variation gauge on B. The signed-sum report
for F∘g on B is produced alongside, and the two verdict channels must
agree instance by instance.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Optional, Sequence, Tuple

from . import sets
from ._record import record
from .core import (
    Gauge,
    Iv,
    PartitionTree,
    TaggedPartition,
    ValueWithError,
    _int_factor,
    _product_sums,
    _scaled_product,
    constant_gauge,
    hk_estimate,
    rat_str,
    sample_partitions,
)
from .errors import DomainError, UnsupportedInstanceError
from .funcs import (
    EMPTY_FAILURE,
    FailureSet,
    FnSpec,
    GeneratedFailureSet,
    FiniteFailureSet,
    PredicateFailureSet,
    const_fn,
    identity_fn,
    quartic_root,
    square_fn,
    cantor_abs_spec,
    cantor_fn_spec,
)
from .variation import (
    VariationReport,
    _variation_report,
    _variation_row,
    _variation_samples,
    default_gauge,
    test_negligible_variation,
)

ZERO = Fraction(0)
ONE = Fraction(1)


@record
class CovInstance:
    """A substitution-identity test case with declared analytic side data.

    ``fog`` is F∘g in closed form (never re-derived numerically), ``B`` the
    declared set where the chain-rule identity fails, ``ncv_gauge`` the
    gauge family used on B, ``zero_deriv_set``/``null_sets`` the sets the
    equivalent-condition reformulation is checked against (in any form
    ``point_set`` accepts). ``expected_full`` and ``expected_cells`` record
    the documented verdicts.
    """

    name: str
    f: FnSpec
    F: Optional[FnSpec]  # closed-form antiderivative of f; None falls back
    g: FnSpec            # to a sampled estimate of f between the endpoints
    domain: Iv
    B: FailureSet
    fog: FnSpec
    ncv_gauge: Callable[[Fraction], Gauge]
    expected_full: str = "holds"
    expected_cells: Tuple = ()
    zero_deriv_set: Optional[object] = None
    null_sets: Tuple = ()

    def expected_for(self, iv: Iv) -> Optional[str]:
        if iv == self.domain:
            return self.expected_full
        for cell, verdict in self.expected_cells:
            if cell == iv:
                return verdict
        return None


def proof_gauge(inst: CovInstance, eps) -> Gauge:
    """The certified gauge: modulus of F∘g at eps/2 off B, the
    conditional-variation gauge on B.

    With B empty and no tag oracle on B's gauge there is nothing to
    suggest, so the gauge has no oracle and the builder skips it; an empty
    B is not asked about each radius point either. If, besides, F∘g's
    modulus does not read x (it is marked ``x_free``, as the polynomial
    catalog's are), the gauge is constant: it declares its one radius
    (``Gauge.constant``), and the builder takes the uniform-block step."""
    eps = Fraction(eps)
    if inst.fog.modulus is None:
        raise UnsupportedInstanceError(
            f"{inst.fog.name} has no increment modulus; instance {inst.name} "
            "cannot build its gauge"
        )
    on_b = inst.ncv_gauge(eps)
    half = eps / 2
    B, modulus, on_b_radius = inst.B, inst.fog.modulus, on_b.radius_at
    b_empty = B is EMPTY_FAILURE
    if b_empty and on_b.suggest_tag is None and getattr(modulus, "x_free", False):
        r = min(Fraction(modulus(inst.domain.lo, half)), ONE)  # at any x
        return Gauge(radius=lambda x: r, name=f"cov({inst.name})", constant=r)

    def radius(x):
        if x.__class__ is not Fraction:
            x = Fraction(x)
        if not b_empty and x in B:
            return on_b_radius(x)
        r = modulus(x, half)
        if r.__class__ is Fraction:  # a positive denominator: r > 1 on integers
            return ONE if r.numerator > r.denominator else r
        return min(r, ONE)

    def suggest(iv):
        return B.suggestion_points(iv) + on_b.suggestions(iv)

    if b_empty and on_b.suggest_tag is None:
        suggest = None
    return Gauge(radius=radius, suggest_tag=suggest, name=f"cov({inst.name})")


def integrand_with_convention(inst: CovInstance) -> FnSpec:
    """x ↦ f(g(x)) · h(x), h = g' off B and 0 on B."""
    return _integrand(inst)[0]


# g' on g's failure set, 0 by convention, as an integer factor
_CONVENTION = (0, 1, 0, 1)


def _integrand(inst: CovInstance):
    """The integrand as a FnSpec, and its factors x ↦ (f(g(x)), g'(x)) as
    integer factors ``(vn, vd, en, ed)`` (``core._scaled_product``), or None
    on B, where it is 0 by convention; the FnSpec's eval multiplies them.

    The factors take x in g's domain, the integrand's, and do not check it:
    the FnSpec's call does. One closure evaluates g and f without
    ``FnSpec.__call__`` and checks, once each and in this order: B, g's
    failure set, where g' is 0 but g(x) is still evaluated, and g's
    derivative (``FnSpec.deriv_at``), f's domain at g(x) by
    cross-products (the ``DomainError`` of ``FnSpec.__call__``), an inexact
    g(x). An empty B or failure set of g is not asked. Where g or f has an
    exact kernel (``FnSpec.exact_kernel``), its value and derivative are
    taken on integers, with no Fraction and no ValueWithError.
    """
    B, f, g = inst.B, inst.f, inst.g
    g_kernel, f_kernel = g.exact_kernel(), f.exact_kernel()
    g_eval, g_deriv_at, g_fails = g.eval, g.deriv_at, g.failure_set
    b_empty, g_smooth = B is EMPTY_FAILURE, g_fails is EMPTY_FAILURE
    f_eval = f.eval
    f_lo, f_hi = f.domain.lo, f.domain.hi
    fln, fld, fhn, fhd = f_lo.numerator, f_lo.denominator, f_hi.numerator, f_hi.denominator

    def factors(x):
        if not b_empty and x in B:
            return None
        if g_kernel is None:
            gp = _int_factor(g_deriv_at(x))
            gv = g_eval(x)
            u = gv.value
            un, ud = u.numerator, u.denominator
        else:
            (un, ud), (dn, dd) = g_kernel(x.numerator, x.denominator)
            gp = _CONVENTION if not g_smooth and x in g_fails else (dn, dd, 0, 1)
            gv = None
        if not (fln * ud <= un * fld and un * fhd <= fhn * ud):
            raise f.domain_error(Fraction(un, ud))
        if f_kernel is not None:
            (vn, vd), _ = f_kernel(un, ud)
            fv = (vn, vd, 0, 1)
        else:
            fv = _int_factor(f_eval(Fraction(un, ud) if gv is None else u))
        if gv is not None and gv.err != 0:
            raise UnsupportedInstanceError(
                f"inexact inner value for {inst.name} integrand"
            )
        return fv, gp

    def ev(x):
        fs = factors(x)
        if fs is None:
            return ValueWithError(ZERO, ZERO, convention=True)
        vn, vd, en, ed = _scaled_product(fs)
        return ValueWithError(Fraction(vn, vd), Fraction(en, ed) if en else ZERO)

    fgh = FnSpec(
        name=f"({inst.f.name}∘{inst.g.name})·h",
        domain=inst.g.domain,
        eval=ev,
        exact=inst.f.exact and inst.g.exact,
    )
    return fgh, factors


@record
class CovRow:
    eps: Fraction
    sums: tuple
    max_discrepancy: Fraction
    within_eps: bool

    def payload(self) -> dict:
        return {
            "eps": rat_str(self.eps),
            "sums": [s.payload() for s in self.sums],
            "max_discrepancy": rat_str(self.max_discrepancy),
            "within_eps": self.within_eps,
        }


@record
class CovReport:
    instance: str
    interval: Iv
    lhs: ValueWithError
    lhs_channel: str  # "closed-form" | "sampled"
    rows: tuple
    verdict: str  # "holds-evidence" | "refuted"
    ncv_report: VariationReport
    consistent: bool
    witness: Optional[TaggedPartition]

    @property
    def holds(self) -> bool:
        return self.verdict == "holds-evidence"

    def payload(self) -> dict:
        return {
            "instance": self.instance,
            "interval": [rat_str(self.interval.lo), rat_str(self.interval.hi)],
            "lhs": self.lhs.payload(),
            "lhs_channel": self.lhs_channel,
            "rows": [r.payload() for r in self.rows],
            "verdict": self.verdict,
            "ncv_on_B": self.ncv_report.payload(),
            "channels_consistent": self.consistent,
        }


def cov_check(
    inst: CovInstance,
    interval: Optional[Iv] = None,
    schedule: Sequence = (Fraction(1, 10), Fraction(1, 100)),
    samples: int = 5,
    seed: int = 0,
    max_depth: Optional[int] = None,
) -> CovReport:
    """Compare the closed-form side against sampled sums on [α, β].

    The verdict is "holds-evidence" iff at every epsilon every sampled sum
    lands within epsilon of the closed form (error bounds included), and
    "refuted" as soon as one certified discrepancy reaches its epsilon. The
    signed-sum report of F∘g on B over the same interval must agree.
    """
    if interval is None:
        interval = inst.domain
    schedule = tuple(schedule)  # read by the sampled left side and the loop
    if not inst.domain.contains_iv(interval):
        raise DomainError(f"{interval} not inside {inst.domain}")
    g_a = inst.g(interval.lo)
    g_b = inst.g(interval.hi)
    if g_a.err or g_b.err:
        raise UnsupportedInstanceError("instance endpoints must evaluate exactly")
    if inst.F is not None:
        fa, fb = inst.F(g_a.value), inst.F(g_b.value)
        lhs = ValueWithError(fb.value - fa.value, fb.err + fa.err)
        lhs_channel = "closed-form"
    else:
        # sampled estimate of f between the mapped endpoints; reversed
        # endpoints negate, matching the orientation convention
        est = hk_estimate(
            inst.f, g_a.value, g_b.value, lambda e: constant_gauge(e),
            schedule, samples_per_eps=samples, seed=seed + 17, max_depth=max_depth,
        )
        vals = [s.value for s in est.final_sums]
        errs = max(s.err for s in est.final_sums)
        mid = (max(vals) + min(vals)) / 2
        lhs = ValueWithError(mid, (max(vals) - min(vals)) / 2 + errs)
        lhs_channel = "sampled"
    # g(interval.lo) and g(interval.hi) above confine every tag to g's domain
    factors = _integrand(inst)[1]
    master = random.Random(seed)
    ncv_master = random.Random(seed + 1)
    rows = []
    ncv_rows = []
    witness = None
    ncv_witness = None
    refuted = False
    for eps in schedule:
        eps = Fraction(eps)
        # both channels sample the same gauge: one tree serves the two
        gauge = proof_gauge(inst, eps)
        tree = PartitionTree()
        sums = []
        worst = ZERO
        ok = True
        parts = sample_partitions(interval, gauge, samples, master, max_depth, tree)
        for part, s in _product_sums(factors, parts):
            sums.append(s)
            disc = abs(s.value - lhs.value)
            worst = max(worst, disc)
            if disc + s.err + lhs.err >= eps:
                ok = False
                if disc - s.err - lhs.err >= eps and witness is None:
                    witness = part
        if not ok:
            refuted = True
        rows.append(CovRow(eps, tuple(sums), worst, ok))
        parts = _variation_samples(
            interval, gauge, samples, ncv_master, max_depth, tree, inst.B
        )
        row, found = _variation_row(inst.fog, inst.B, eps, gauge, samples, parts)
        ncv_rows.append(row)
        if ncv_witness is None:
            ncv_witness = found
    verdict = "refuted" if refuted else "holds-evidence"
    ncv = _variation_report(inst.fog, "B", interval, ncv_rows, ncv_witness)
    ncv_ok = all(r.ncv_pass for r in ncv.rows)
    consistent = ncv_ok == (verdict == "holds-evidence")
    return CovReport(
        instance=inst.name,
        interval=interval,
        lhs=lhs,
        lhs_channel=lhs_channel,
        rows=tuple(rows),
        verdict=verdict,
        ncv_report=ncv,
        consistent=consistent,
        witness=witness,
    )


def ftc_instance(g: FnSpec, name: Optional[str] = None) -> CovInstance:
    """The fundamental-theorem case: f ≡ 1 and F = identity on g's range."""
    if g.range_hint is None:
        raise UnsupportedInstanceError(f"{g.name} has no range metadata")
    rng_iv = g.range_hint
    return CovInstance(
        name=name or f"ftc({g.name})",
        f=const_fn(1, rng_iv),
        F=identity_fn(rng_iv, name="identity"),
        g=g,
        domain=g.domain,
        B=g.failure_set,
        fog=g,
        ncv_gauge=lambda eps: default_gauge(g.failure_set),
    )


def ftc_check(
    g: FnSpec,
    interval: Optional[Iv] = None,
    schedule: Sequence = (Fraction(1, 10), Fraction(1, 100)),
    samples: int = 5,
    seed: int = 0,
) -> CovReport:
    """g(b) − g(a) against sampled sums of g' (0 by convention where g has
    no derivative). Exactly cov_check on the f ≡ 1, F = identity instance."""
    return cov_check(ftc_instance(g), interval, schedule, samples, seed)


@record
class ScanReport:
    instance: str
    cells: tuple  # (Iv, CovReport)
    nv_on_b: VariationReport
    nv_refuted: bool
    equivcond: tuple  # (label, VariationReport)
    equivcond_consistent: bool

    def payload(self) -> dict:
        return {
            "instance": self.instance,
            "cells": [
                {
                    "interval": [rat_str(iv.lo), rat_str(iv.hi)],
                    "verdict": rep.verdict,
                    "lhs": rep.lhs.payload(),
                }
                for iv, rep in self.cells
            ],
            "nv_on_B": self.nv_on_b.payload(),
            "nv_refuted": self.nv_refuted,
            "equivalent_condition": [
                {"set": label, "verdict": rep.verdict} for label, rep in self.equivcond
            ],
            "equivalent_condition_consistent": self.equivcond_consistent,
        }


def _dyadic_grid(domain: Iv, cells: int = 4) -> Tuple[Iv, ...]:
    w = domain.length / cells
    return tuple(
        Iv(domain.lo + k * w, domain.lo + (k + 1) * w) for k in range(cells)
    )


def cov_scan_all_subintervals(
    inst: CovInstance,
    grid: Optional[Sequence[Iv]] = None,
    schedule: Sequence = (Fraction(1, 10), Fraction(1, 100)),
    samples: int = 5,
    seed: int = 0,
    max_depth: Optional[int] = None,
) -> ScanReport:
    """cov_check per grid cell, joined with the absolute-criterion report.

    The identity holding on every subinterval corresponds to the absolute
    criterion on B; one failing cell refutes it. The reformulation in terms
    of the zero-derivative set and declared null sets is reported alongside.
    """
    schedule = tuple(schedule)  # every cell and every set reads it
    if grid is None:
        cells = _dyadic_grid(inst.domain)
        extra = [iv for iv, _ in inst.expected_cells] + [inst.domain]
        grid = list(cells) + [iv for iv in extra if iv not in cells]
    out = []
    any_fail = False
    for k, cell in enumerate(grid):
        rep = cov_check(inst, cell, schedule, samples, seed + k, max_depth)
        out.append((cell, rep))
        if rep.verdict == "refuted":
            any_fail = True

    builder = lambda e: proof_gauge(inst, e)
    nv_on_b = test_negligible_variation(
        inst.fog, inst.B, builder, schedule, samples=samples,
        seed=seed + 101, domain=inst.domain, set_name="B", max_depth=max_depth,
    )
    nv_refuted = any_fail or not nv_on_b.nv_all

    equiv = []
    if inst.zero_deriv_set is not None:
        rep = test_negligible_variation(
            inst.fog, inst.zero_deriv_set, builder, schedule, samples=samples,
            seed=seed + 202, domain=inst.domain, set_name="{g'=0}", max_depth=max_depth,
        )
        equiv.append(("{g'=0}", rep))
    for label, null_set in inst.null_sets:
        rep = test_negligible_variation(
            inst.fog, null_set, builder, schedule, samples=samples,
            seed=seed + 303, domain=inst.domain, set_name=label, max_depth=max_depth,
        )
        equiv.append((label, rep))
    rhs_ok = all(rep.nv_all for _, rep in equiv)
    equiv_consistent = (not equiv) or (nv_on_b.nv_all == rhs_ok)

    return ScanReport(
        instance=inst.name,
        cells=tuple(out),
        nv_on_b=nv_on_b,
        nv_refuted=nv_refuted,
        equivcond=tuple(equiv),
        equivcond_consistent=equiv_consistent,
    )


# ---------------------------------------------------------------------------
# the fat-Cantor composition counterexample
# ---------------------------------------------------------------------------


@record
class SvcCompositionCheck:
    n: int
    x: Fraction
    y: Fraction
    gap_half: Fraction
    quotient: ValueWithError
    bound: ValueWithError
    ok: bool

    def payload(self) -> dict:
        return {
            "n": self.n,
            "x": rat_str(self.x),
            "y": rat_str(self.y),
            "gap_half_width": rat_str(self.gap_half),
            "quotient": self.quotient.payload(),
            "bound": self.bound.payload(),
            "ok": self.ok,
        }


def svc_composition_check(n: int, x, prec=Fraction(1, 10**9)) -> SvcCompositionCheck:
    """Difference-quotient blowup of the fourth root of the fat-Cantor
    distance at a member point.

    Picks y as the center of the gap removed at step n+1 from the depth-n
    surviving interval containing x; then the gap half-width is exactly
    2^(−2n−3), |y − x| < 2^(−n), and the quotient
    |(F∘G)(y) − (F∘G)(x)| / |y − x| exceeds 2^((2n−3)/4). The comparison is
    decided exactly (it reduces to |y − x| < 2^(−n)); the reported numeric
    values carry certified error bounds below ``prec``.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    x = Fraction(x)
    stage = sets.svc_stage_interval(x, n)  # raises DomainError off the set
    y = stage.midpoint
    gap_half = Fraction(1, 2 ** (2 * n + 3))
    if sets.distance(sets.svc(n + 1), y) != gap_half:  # y's gap is n + 1 steps down
        raise AssertionError("gap geometry violated; construction bug")
    d = abs(y - x)
    if d == 0:
        raise AssertionError("midpoint of a removed gap cannot be a member")
    prec = Fraction(prec)
    root = quartic_root(gap_half, prec * d)
    quotient = ValueWithError(root.value / d, root.err / d)
    bound = quartic_root(Fraction(2) ** (2 * n - 3), prec)
    # quotient > bound  <=>  gap_half^(1/4) > d * 2^((2n-3)/4)
    #                   <=>  gap_half > d^4 * 2^(2n-3)  <=>  d < 2^(-n)
    ok = d < Fraction(1, 2**n)
    return SvcCompositionCheck(n, x, y, gap_half, quotient, bound, ok)


# ---------------------------------------------------------------------------
# instance registry
# ---------------------------------------------------------------------------


@lru_cache(maxsize=1)
def instances() -> dict:
    unit = Iv(0, 1)

    def substitution(name, g, domain, B, **expected):
        # f ≡ 1 with F the identity, F∘g = g, and B's default gauge on B
        return CovInstance(
            name=name, f=const_fn(1, unit), F=identity_fn(unit), g=g, domain=domain,
            B=B, fog=g, ncv_gauge=lambda eps: default_gauge(B), **expected,
        )

    D = GeneratedFailureSet(sets.reflected_cantor())
    C = GeneratedFailureSet(sets.ternary_cantor())
    return {
        i.name: i
        for i in (
            substitution(
                "square-sub", square_fn(unit), unit, EMPTY_FAILURE,
                zero_deriv_set=FiniteFailureSet((ZERO,)),
                null_sets=(("{0}", FiniteFailureSet((ZERO,))),),
            ),
            substitution("identity-sub", identity_fn(unit), unit, EMPTY_FAILURE),
            substitution(
                "cantorabs-unit", cantor_abs_spec(), Iv(-1, 1), D,
                expected_cells=((Iv(0, 1), "fails"), (Iv(-1, 0), "fails")),
                zero_deriv_set=PredicateFailureSet(lambda x: x not in D, "[-1,1] minus D"),
                null_sets=(("D", D),),
            ),
            substitution(
                "cantor-unit", cantor_fn_spec(), unit, C, expected_full="fails",
                zero_deriv_set=PredicateFailureSet(lambda x: x not in C, "[0,1] minus C"),
                null_sets=(("C", C),),
            ),
        )
    }


def lookup_instance(name: str) -> CovInstance:
    reg = instances()
    if name not in reg:
        raise KeyError(f"unknown instance {name!r}")
    return reg[name]
