"""Command-line front end.

Endpoints cross the boundary as exact 'num/den' strings (plain integers are
fine too); floats are accepted only for epsilon schedules and tolerances.
Reports are always written to files; stdout carries a one-line verdict
summary. Identical (command, config, seed) produce byte-identical reports.

Exit codes: 0 success / verdict matches the declared expectation;
1 verdict mismatch or a failed counterexample bound; 2 unknown function or
instance; 3 partition or gauge failure; 4 missing certificate or an
undecided exact query.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction

from . import funcs, sets
from .core import (
    Gauge,
    Iv,
    constant_gauge,
    cousin_partition,
    dump_partition_csv,
    hk_estimate,
    is_subordinate,
    min_gauge,
    rat,
    rat_str,
    validate_partition,
)
from .errors import (
    DepthExhaustedError,
    DomainError,
    GaugeKitError,
    InvalidGaugeError,
    PartitionMergeError,
    UndecidedError,
    UnsupportedInstanceError,
)

SCHEMA = "gaugekit/1"

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_UNKNOWN = 2
EXIT_PARTITION = 3
EXIT_UNSUPPORTED = 4


def _write_report(path: str, command: str, payload: dict) -> None:
    doc = {"schema": SCHEMA, "command": command}
    doc.update(payload)
    with open(path, "w") as fh:
        fh.write(json.dumps(doc, indent=2, sort_keys=True))
        fh.write("\n")


def _rational(flag: str, text: str) -> Fraction:
    """``text`` as an exact rational; a ValueError names ``flag``."""
    try:
        return rat(text)
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"{flag}: cannot read {text!r} as a rational") from None


def _real(flag: str, text: str) -> Fraction:
    """The exact value of the float ``text``; a ValueError names ``flag``."""
    try:
        return Fraction(float(text))
    except (ValueError, OverflowError):
        raise ValueError(f"{flag}: {text!r} is not a finite number") from None


def _domain(args) -> tuple:
    return tuple(_rational("--domain", v) for v in args.domain)


def _parse_eps_list(values) -> tuple:
    if not values:
        return (Fraction(1, 10), Fraction(1, 100))
    return tuple(_real("--eps", v) for v in values)


def _parse_set(spec: str, depth_cap: int, flag: str = "--set"):
    if spec == "empty":
        return None, "empty"
    if spec in ("C", "cantor"):
        return sets.ternary_cantor(), "C"
    if spec in ("D", "reflected"):
        return sets.reflected_cantor(), "D"
    if spec in ("S", "svc"):
        return sets.svc(depth_cap), "S"
    if spec.startswith("points:"):
        pts = tuple(_rational(flag, p) for p in spec[len("points:"):].split(","))
        return pts, spec
    raise ValueError(f"cannot parse set spec {spec!r}")


def _parse_gauge(spec: str, depth_cap: int) -> Gauge:
    if spec.startswith("const:"):
        return constant_gauge(_rational("--gauge", spec[len("const:"):]))
    if spec.startswith("dist:"):
        s, _ = _parse_set(spec[len("dist:"):], depth_cap, "--gauge")
        if not isinstance(s, sets.GeneratedSet):
            raise ValueError("dist: gauge needs a generated set")
        from . import variation

        return variation.gauge_dist_complement(s)
    if spec.startswith("min:"):
        parts = spec[len("min:"):].split("+")
        if len(parts) != 2:
            raise ValueError(f"--gauge: min: takes two specs joined by '+', got {spec!r}")
        left, right = parts
        return min_gauge(_parse_gauge(left, depth_cap), _parse_gauge(right, depth_cap))
    raise ValueError(f"cannot parse gauge spec {spec!r}")


def _gauge_builder(args, set_obj):
    if getattr(args, "gauge", None):
        g = _parse_gauge(args.gauge, args.depth_cap)
    else:
        from . import variation

        g = variation.default_gauge(set_obj)
    return lambda eps: g


def _lookup_fn(args):
    try:
        return funcs.lookup(args.fn, args.depth_cap)
    except KeyError as exc:
        raise SystemExitCode(EXIT_UNKNOWN, f"unknown function {args.fn!r}") from exc


class SystemExitCode(Exception):
    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


def cmd_catalog(args) -> int:
    names = funcs.catalog_names()
    if args.out:
        payload = {"functions": [funcs.lookup(n, args.depth_cap).descriptor() for n in names]}
        _write_report(args.out, "catalog", payload)
    print("catalog: " + " ".join(names))
    return EXIT_OK


def cmd_integrate(args) -> int:
    f = _lookup_fn(args)
    a, b = _domain(args)
    schedule = _parse_eps_list(args.eps)
    family = lambda eps: constant_gauge(eps)
    if args.gauge:
        g = _parse_gauge(args.gauge, args.depth_cap)
        family = lambda eps: g
    report = hk_estimate(
        f, a, b, family, schedule,
        samples_per_eps=args.samples, seed=args.seed,
        tol=None if args.tol is None else _real("--tol", args.tol),
        max_depth=args.max_depth,
    )
    out = args.out or "gaugekit-integrate.json"
    _write_report(out, "integrate", report.payload())
    final = report.final_sums[0]
    print(
        f"integrate {f.name} [{rat_str(a)},{rat_str(b)}]: "
        f"sum={rat_str(final.value)} spread={rat_str(report.rows[-1].spread)} "
        f"converged={report.converged} -> {out}"
    )
    return EXIT_OK


def cmd_partition(args) -> int:
    a, b = _domain(args)
    domain = Iv(a, b)
    gauge = _parse_gauge(args.gauge, args.depth_cap)
    rng = None
    if args.seed is not None:
        import random

        rng = random.Random(args.seed)
    part = cousin_partition(domain, gauge, max_depth=args.max_depth, rng=rng)
    rep = validate_partition(part)
    sub = is_subordinate(part, gauge)
    f = funcs.lookup(args.fn, args.depth_cap) if args.fn else None
    out = args.out or "gaugekit-partition.csv"
    dump_partition_csv(out, part, gauge, f)
    print(
        f"partition {domain}: {len(part)} cells valid={rep.ok} "
        f"subordinate={sub} -> {out}"
    )
    return EXIT_OK if rep.ok and sub else EXIT_PARTITION


def cmd_variation(args) -> int:
    from . import variation

    f = _lookup_fn(args)
    set_obj, set_name = _parse_set(args.set, args.depth_cap)
    a, b = _domain(args)
    domain = Iv(a, b)
    schedule = _parse_eps_list(args.eps)
    out = args.out or "gaugekit-variation.json"

    if args.adversary:
        gauge = _gauge_builder(args, set_obj)(schedule[0])
        strategy = _parse_strategy(args.adversary)
        res = variation.adversarial_variation(
            f, set_obj, gauge, strategy, seed=args.seed, domain=domain,
            max_depth=args.max_depth,
        )
        witness_csv = os.path.splitext(out)[0] + "-witness.csv"
        dump_partition_csv(witness_csv, res.witness, gauge, f)
        payload = {
            "fn": f.name,
            "set": set_name,
            "strategy": args.adversary,
            "best_abs_sum": res.best_abs.payload(),
            "best_signed_sum": res.best_signed.payload(),
            "witness_cells": len(res.witness),
            "witness_file": witness_csv,
        }
        _write_report(out, "variation-adversarial", payload)
        print(
            f"variation {f.name} on {set_name} adversary={args.adversary}: "
            f"abs_sum={rat_str(res.best_abs.value)} -> {out}"
        )
        return EXIT_OK

    builder = _gauge_builder(args, set_obj)
    report = variation.test_negligible_variation(
        f, set_obj, builder, schedule,
        samples=args.samples, seed=args.seed, domain=domain, set_name=set_name,
        max_depth=args.max_depth,
    )
    _write_report(out, "variation", report.payload())
    if report.witness is not None:
        witness_csv = os.path.splitext(out)[0] + "-witness.csv"
        dump_partition_csv(
            witness_csv, report.witness.partition, builder(report.witness.eps), f
        )
    criterion = "nv" if args.mode == "nv" else "ncv"
    ok = report.nv_all if criterion == "nv" else report.ncv_all
    print(
        f"variation {f.name} on {set_name} mode={args.mode}: "
        f"verdict={report.verdict} ({criterion}_pass={ok}) -> {out}"
    )
    return EXIT_OK


def _parse_strategy(spec: str):
    from . import variation

    if spec.startswith("split:"):
        pts = tuple(_rational("--adversary", p) for p in spec[len("split:"):].split(","))
        return variation.SplitAt(*pts)
    if spec == "greedy":
        return variation.GreedySign()
    if spec == "percell":
        return variation.PerCell()
    raise ValueError(f"cannot parse adversary spec {spec!r}")


def _interval_from(args, default: Iv) -> Iv:
    if args.interval:
        return Iv(*(_rational("--interval", v) for v in args.interval))
    return default


def cmd_cov(args) -> int:
    from . import cov as covmod

    try:
        inst = covmod.lookup_instance(args.instance)
    except KeyError as exc:
        raise SystemExitCode(EXIT_UNKNOWN, str(exc)) from exc
    interval = _interval_from(args, inst.domain)
    schedule = _parse_eps_list(args.eps)
    report = covmod.cov_check(
        inst, interval, schedule, samples=args.samples, seed=args.seed,
        max_depth=args.max_depth,
    )
    out = args.out or "gaugekit-cov.json"
    payload = report.payload()
    if report.witness is not None:
        witness_csv = os.path.splitext(out)[0] + "-witness.csv"
        dump_partition_csv(witness_csv, report.witness)
        payload["witness_file"] = witness_csv
    _write_report(out, "cov", payload)
    verdict = "holds" if report.holds else "fails"
    expected = inst.expected_for(interval)
    print(
        f"cov {inst.name} {interval}: {verdict} "
        f"(consistent={report.consistent}) -> {out}"
    )
    if expected is not None and expected != verdict:
        return EXIT_MISMATCH
    return EXIT_OK


def cmd_ftc(args) -> int:
    from . import cov as covmod

    g = _lookup_fn(args)
    a, b = _domain(args)
    schedule = _parse_eps_list(args.eps)
    try:
        inst = covmod.ftc_instance(g)
    except UnsupportedInstanceError as exc:
        raise SystemExitCode(EXIT_UNSUPPORTED, str(exc)) from exc
    report = covmod.cov_check(
        inst, Iv(a, b), schedule, samples=args.samples, seed=args.seed,
        max_depth=args.max_depth,
    )
    out = args.out or "gaugekit-ftc.json"
    _write_report(out, "ftc", report.payload())
    verdict = "holds" if report.holds else "fails"
    print(
        f"ftc {g.name} [{rat_str(a)},{rat_str(b)}]: {verdict} "
        f"lhs={rat_str(report.lhs.value)} -> {out}"
    )
    if args.expect and args.expect != verdict:
        return EXIT_MISMATCH
    return EXIT_OK


def cmd_scan(args) -> int:
    from . import cov as covmod

    try:
        inst = covmod.lookup_instance(args.instance)
    except KeyError as exc:
        raise SystemExitCode(EXIT_UNKNOWN, str(exc)) from exc
    grid = None
    if args.grid:
        vals = [_rational("--grid", v) for v in args.grid]
        if len(vals) % 2:
            raise ValueError("--grid needs an even number of endpoints")
        grid = [Iv(a, b) for a, b in zip(vals[::2], vals[1::2])]
    schedule = _parse_eps_list(args.eps)
    report = covmod.cov_scan_all_subintervals(
        inst, grid, schedule, samples=args.samples, seed=args.seed,
        max_depth=args.max_depth,
    )
    out = args.out or "gaugekit-scan.json"
    _write_report(out, "scan", report.payload())
    fails = [str(iv) for iv, rep in report.cells if rep.verdict == "refuted"]
    print(
        f"scan {inst.name}: nv_refuted={report.nv_refuted} "
        f"failing_cells={fails or 'none'} -> {out}"
    )
    return EXIT_OK


def cmd_counterexample(args) -> int:
    from . import cov as covmod

    if not args.svc:
        raise ValueError("only the --svc counterexample is available")
    depth = args.endpoint_depth
    if args.points is not None:
        if args.points < 1:
            raise ValueError(f"--points must be at least 1, got {args.points}")
        xs = sets.endpoint_sample(sets.svc(), depth, args.points, seed=args.seed)
    else:
        xs = (sets.stage_endpoint(sets.svc(), depth, args.x_index or 0),)
    prec = _real("--prec", args.prec)
    checks = [covmod.svc_composition_check(args.n, x, prec) for x in xs]
    all_ok = all(c.ok for c in checks)
    payload = {
        "n": args.n,
        "points": len(checks),
        "all_ok": all_ok,
        "checks": [c.payload() for c in checks],
    }
    out = args.out or "gaugekit-counterexample.json"
    _write_report(out, "counterexample", payload)
    q = checks[0].quotient
    print(
        f"counterexample svc n={args.n} points={len(checks)}: ok={all_ok} "
        f"first_quotient≈{float(q.value):.4f} -> {out}"
    )
    return EXIT_OK if all_ok else EXIT_MISMATCH


def _add_common(sp, seed_required=True):
    sp.add_argument("--eps", nargs="*", help="epsilon schedule (floats)")
    sp.add_argument("--samples", type=int, default=5)
    sp.add_argument("--seed", type=int, required=seed_required)
    sp.add_argument("--out")


def _args_catalog(sp):
    sp.add_argument("--out")
    sp.set_defaults(fn_impl=cmd_catalog)


def _args_integrate(sp):
    sp.add_argument("--fn", required=True)
    sp.add_argument("--domain", nargs=2, required=True, metavar=("A", "B"))
    sp.add_argument("--gauge", help="const:R | dist:C|D|S | min:SPEC+SPEC")
    sp.add_argument("--tol", help="spread tolerance (float)")
    _add_common(sp)
    sp.set_defaults(fn_impl=cmd_integrate)


def _args_partition(sp):
    sp.add_argument("--domain", nargs=2, required=True, metavar=("A", "B"))
    sp.add_argument("--gauge", required=True)
    sp.add_argument("--fn")
    sp.add_argument("--seed", type=int)
    sp.add_argument("--out")
    sp.set_defaults(fn_impl=cmd_partition)


def _args_variation(sp):
    sp.add_argument("--fn", required=True)
    sp.add_argument("--set", required=True, help="C | D | S | empty | points:..")
    sp.add_argument("--domain", nargs=2, required=True, metavar=("A", "B"))
    sp.add_argument("--mode", choices=("nv", "ncv"), default="nv")
    sp.add_argument("--gauge")
    sp.add_argument("--adversary", help="split:P1,P2 | greedy | percell")
    _add_common(sp)
    sp.set_defaults(fn_impl=cmd_variation)


def _args_cov(sp):
    sp.add_argument("--instance", required=True)
    sp.add_argument("--interval", nargs=2, metavar=("A", "B"))
    _add_common(sp)
    sp.set_defaults(fn_impl=cmd_cov)


def _args_ftc(sp):
    sp.add_argument("--fn", required=True)
    sp.add_argument("--domain", nargs=2, required=True, metavar=("A", "B"))
    sp.add_argument("--expect", choices=("holds", "fails"))
    _add_common(sp)
    sp.set_defaults(fn_impl=cmd_ftc)


def _args_scan(sp):
    sp.add_argument("--instance", required=True)
    sp.add_argument("--grid", nargs="*", help="flat list of endpoints, in pairs")
    _add_common(sp)
    sp.set_defaults(fn_impl=cmd_scan)


def _args_counterexample(sp):
    sp.add_argument("--svc", action="store_true")
    sp.add_argument("-n", type=int, required=True)
    which = sp.add_mutually_exclusive_group()
    # no default value: argparse lets an argument given at its default
    # value through the group
    which.add_argument("--x-index", type=int, help="default 0")
    which.add_argument("--points", type=int)
    sp.add_argument("--endpoint-depth", type=int, default=12)
    sp.add_argument("--prec", default="1e-9")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--out")
    sp.set_defaults(fn_impl=cmd_counterexample)


# (name, help, adds the subcommand's arguments)
SUBCOMMANDS = (
    ("catalog", "list registered functions", _args_catalog),
    ("integrate", "sampled gauge-integral estimate", _args_integrate),
    ("partition", "build one subordinate partition", _args_partition),
    ("variation", "negligible-variation testing", _args_variation),
    ("cov", "substitution identity on one interval", _args_cov),
    ("ftc", "fundamental-theorem check for one function", _args_ftc),
    ("scan", "per-subinterval verdicts for an instance", _args_scan),
    ("counterexample", "composition blowup check", _args_counterexample),
)


class _Subcommands(argparse._SubParsersAction):
    """Subparsers built only when their subcommand is chosen.

    A run parses one subcommand, so only its parser and arguments are
    built: each parser looks up three translated strings, and each parser
    and ``add_argument`` makes a help formatter that asks for the terminal
    size. Top-level help and usage read only the subcommand names and help
    strings, which are all listed from the start.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._add_args = {}  # subcommand -> adds its arguments, until built

    def add_lazy(self, name, help_text, add_args):
        self._name_parser_map[name] = None
        self._choices_actions.append(self._ChoicesPseudoAction(name, (), help_text))
        self._add_args[name] = add_args

    def __call__(self, parser, namespace, values, option_string=None):
        name = values[0]
        add_args = self._add_args.pop(name, None)
        if add_args is not None:
            sp = self._parser_class(prog=f"{self._prog_prefix} {name}")
            add_args(sp)
            self._name_parser_map[name] = sp
        super().__call__(parser, namespace, values, option_string)


def build_parser() -> argparse.ArgumentParser:
    """The ``gaugekit`` parser. A subcommand's parser is built when
    ``parse_args`` reaches it."""
    p = argparse.ArgumentParser(
        prog="gaugekit",
        description="gauge-integration laboratory (exact rational arithmetic)",
    )
    sub = p.add_subparsers(dest="command", required=True, action=_Subcommands)
    for name, help_text, add_args in SUBCOMMANDS:
        sub.add_lazy(name, help_text, add_args)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        # one cap, when set, for every bisection and every fat-Cantor set
        # of the run; the commands pass it down
        args.max_depth, args.depth_cap = None, sets.DEPTH_CAP_DEFAULT
        cap = os.environ.get("GAUGEKIT_DEPTH_CAP")
        if cap:
            try:
                args.max_depth = args.depth_cap = int(cap)
                if args.max_depth < 1:
                    raise ValueError("depth cap must be positive")
            except ValueError as exc:
                raise ValueError(f"GAUGEKIT_DEPTH_CAP={cap!r}: {exc}") from None
        return args.fn_impl(args)
    except SystemExitCode as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except (DepthExhaustedError, InvalidGaugeError, PartitionMergeError) as exc:
        print(f"partition failure: {exc}", file=sys.stderr)
        return EXIT_PARTITION
    except (UnsupportedInstanceError, UndecidedError) as exc:
        print(f"unsupported: {exc}", file=sys.stderr)
        return EXIT_UNSUPPORTED
    except (DomainError, GaugeKitError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MISMATCH


if __name__ == "__main__":
    sys.exit(main())
