"""Run one gaugekit CLI command in this process with its layers traced.

Every public function of the package modules is wrapped in a span (name,
start, end, parent), and so are ``Gauge.radius_at`` and ``FnSpec.__call__``.
The modules bind each other's names with ``from .core import ...``, so a
wrapper replaces every binding of the original object in every gaugekit
module. Spans stay in memory while the command runs; afterwards they are
written to SPANS_OUT and reduced to per-layer figures in SUMMARY_OUT.

    PYTHONPATH=src python3 bench/tracejob.py SPANS_OUT SUMMARY_OUT -- ARGV...

ARGV is a ``gaugekit`` command line without the program name. The exit code
is the command's own.
"""

from __future__ import annotations

import functools
import json
import sys
from array import array
from fractions import Fraction
from time import perf_counter

import gaugekit
from gaugekit import cli, core, cov, funcs, sets, variation

MODULES = {
    "core": core,
    "sets": sets,
    "funcs": funcs,
    "variation": variation,
    "cov": cov,
    "cli": cli,
}
BINDERS = (gaugekit,) + tuple(MODULES.values())
SET_QUERIES = ("sets.member", "sets.distance", "sets.complement_component")


class Tracer:
    """Span store: parallel typed arrays, one entry per call."""

    def __init__(self):
        self.names = []  # name table; spans refer to it by index
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.cells = {}  # span index -> cells of the partition it returned
        self.queries = []  # (set kind, point) of every set query

    def wrap(self, fn, name, after=None, before=None):
        nid = len(self.names)
        self.names.append(name)
        span_name, span_parent = self.name, self.parent
        span_start, span_end, stack = self.start, self.end, self.stack

        # The span's interval covers its own bookkeeping and hooks, so the
        # tracer's cost per span is charged to that span's self time, not
        # to its caller's.
        @functools.wraps(fn)
        def span(*args, **kwargs):
            idx = len(span_name)
            span_start.append(perf_counter())
            span_name.append(nid)
            span_parent.append(stack[-1])
            span_end.append(0.0)
            stack.append(idx)
            try:
                if before is not None:
                    before(args, kwargs)
                out = fn(*args, **kwargs)
                if after is not None:
                    after(idx, out)
            finally:
                stack.pop()
                span_end[idx] = perf_counter()
            return out

        return span

    def install(self):
        """Wrap the public functions of each module and the two methods."""
        hooks = {
            "core.cousin_partition": {"after": self._count_cells},
            **{q: {"before": self._note_query} for q in SET_QUERIES},
        }
        for short, mod in MODULES.items():
            for attr, obj in list(vars(mod).items()):
                if (
                    attr.startswith("_")
                    or isinstance(obj, type)
                    or not callable(obj)
                    or getattr(obj, "__module__", None) != mod.__name__
                ):
                    continue
                name = f"{short}.{attr}"
                wrapped = self.wrap(obj, name, **hooks.get(name, {}))
                for binder in BINDERS:
                    for key, val in list(vars(binder).items()):
                        if val is obj:
                            setattr(binder, key, wrapped)
        core.Gauge.radius_at = self.wrap(core.Gauge.radius_at, "core.radius_at")
        funcs.FnSpec.__call__ = self.wrap(funcs.FnSpec.__call__, "funcs.eval")

    def _count_cells(self, idx, partition):
        self.cells[idx] = len(partition)

    def _note_query(self, args, kwargs):
        self.queries.append((args[0].kind, args[1] if len(args) > 1 else kwargs["x"]))

    def dump(self, path):
        """Spans as JSON columns: name index, parent span, start, end (s)."""
        # json.dumps, unlike json.dump, runs the C encoder.
        doc = {
            "names": self.names,
            "name": self.name.tolist(),
            "parent": self.parent.tolist(),
            "start": self.start.tolist(),
            "end": self.end.tolist(),
        }
        with open(path, "w") as fh:
            fh.write(json.dumps(doc))

    def summary(self) -> dict:
        """Per-layer figures of this job; self time excludes child spans."""
        names, name, parent = self.names, self.name, self.parent
        n = len(name)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            if parent[i] >= 0:
                child[parent[i]] += dur[i]
        calls = [0] * len(names)
        self_s = [0.0] * len(names)
        for i in range(n):
            calls[name[i]] += 1
            self_s[name[i]] += dur[i] - child[i]
        by = {nm: k for k, nm in enumerate(names)}

        def c(nm):
            return calls[by[nm]]

        def s(nm):
            return self_s[by[nm]]

        # flags inherited from ancestors; parents precede children
        cp, tnv, radius = (
            by["core.cousin_partition"],
            by["variation.test_negligible_variation"],
            by["core.radius_at"],
        )
        in_cp = [False] * n
        in_tnv = [False] * n
        radius_calls = 0
        radius_in_cp = 0
        for i in range(n):
            p = parent[i]
            if p >= 0:
                in_cp[i] = in_cp[p] or name[p] == cp
                in_tnv[i] = in_tnv[p] or name[p] == tnv
            if name[i] == radius and (p < 0 or name[p] != radius):
                radius_calls += 1
                radius_in_cp += in_cp[i]
        cells = sum(self.cells.values())
        tnv_cells = sum(k for i, k in self.cells.items() if in_tnv[i])
        queries = sum(c(q) for q in SET_QUERIES)
        distinct = len({(kind, Fraction(x)) for kind, x in self.queries})

        m = {
            f"{short}.self_s": sum(
                self_s[k] for k, nm in enumerate(names) if nm.startswith(short + ".")
            )
            for short in MODULES
        }
        m.update(
            {
                "core.cousin_partition.calls": c("core.cousin_partition"),
                "core.cousin_partition.self_s": s("core.cousin_partition"),
                "core.cells": cells,
                "core.radius_at.calls": radius_calls,
                "core.cells_per_radius_eval": cells / radius_in_cp if radius_in_cp else 0.0,
                "core.riemann_sum.self_s": s("core.riemann_sum"),
                "core.dump_partition_csv.self_s": s("core.dump_partition_csv"),
                "variation.test_negligible_variation.self_s": s(
                    "variation.test_negligible_variation"
                ),
                "variation.test_negligible_variation.total_s": sum(
                    dur[i] for i in range(n) if name[i] == tnv and not in_tnv[i]
                ),
                "variation.variation_sums.self_s": s("variation.variation_sums"),
                "variation.cells": tnv_cells,
                "sets.queries": queries,
                "sets.distinct_query_ratio": distinct / queries if queries else 0.0,
                "sets.query.self_s": sum(s(q) for q in SET_QUERIES),
                "funcs.eval.calls": c("funcs.eval"),
                "funcs.eval.self_s": s("funcs.eval"),
                "funcs.nearest_set_points.self_s": s("funcs.nearest_set_points"),
                "cov.cov_check.self_s": s("cov.cov_check"),
            }
        )
        roots = [i for i in range(n) if parent[i] < 0]
        return {
            "spans": n,
            "root_s": sum(dur[i] for i in roots),
            "metrics": m,
        }


def main(argv) -> int:
    if len(argv) < 3 or argv[2] != "--":
        print(__doc__, file=sys.stderr)
        return 2
    spans_out, summary_out, cli_argv = argv[0], argv[1], argv[3:]
    tracer = Tracer()
    tracer.install()
    code = cli.main(cli_argv)
    tracer.dump(spans_out)
    with open(summary_out, "w") as fh:
        json.dump(tracer.summary(), fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
