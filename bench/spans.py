"""Spans around the public entry points of each layer, for the traced run.

The benchmark wraps module attributes of ``tworoman`` from its own files; the
program is not edited.  Calls made through a wrapped module attribute, from
the benchmark or from inside the package, record a span (name, start, end,
parent, job).  Spans live in memory and are reduced to per-layer self times
and counts when the run ends.  A layer's self time is its span's duration
minus the time covered by its child spans.
"""

from __future__ import annotations

import contextlib
import functools
import time
from collections import defaultdict
from dataclasses import dataclass

from tworoman import cli, families, graphio, labeling, solver, tilings


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    job: str


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.job: str | None = None
        self._stack: list[int] = []

    @contextlib.contextmanager
    def job_span(self, job: str):
        """Root span of one job; wrapped calls record only inside one."""
        self.job = job
        try:
            with self.span("job"):
                yield
        finally:
            self.job = None

    @contextlib.contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        index = len(self.spans)
        span = Span(name, time.perf_counter(), 0.0, parent, self.job)
        self.spans.append(span)
        self._stack.append(index)
        try:
            yield
        finally:
            span.end = time.perf_counter()
            self._stack.pop()

    def self_times(self) -> dict[str, float]:
        child_time = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent is not None:
                child_time[span.parent] += span.end - span.start
        out: dict[str, float] = defaultdict(float)
        for span, inner in zip(self.spans, child_time):
            out[span.name] += span.end - span.start - inner
        return out


# Classifiers map a call's arguments to its span name, and its result to the
# counts recorded under that span.

def _solve_opts(args, kwargs):
    opts = args[1] if len(args) > 1 else kwargs.get("opts")
    return opts or solver.SolveOptions()


def _bb_route(opts) -> str:
    if opts.attack_n != 2:
        return "solver.attack_n"
    if opts.max_twos is not None:
        return "solver.finite"
    if opts.enumerate_all:
        return "solver.enum"
    return "solver.bb"


def _classify_solve(args, kwargs):
    # Only enumeration gets its own span here: with the ECCD route the
    # enumeration runs in solve() itself, after the gamma_via_eccd child.
    return "solver.enum" if _solve_opts(args, kwargs).enumerate_all else None


def _count_solve(name, args, kwargs, result, counts):
    if name == "solver.enum":
        counts["solver.enum.labelings"] += len(result.all_minimum)


def _classify_bb(args, kwargs):
    return _bb_route(_solve_opts(args, kwargs))


def _count_bb(name, args, kwargs, result, counts):
    if name == "solver.bb":
        counts["solver.bb.nodes"] += result.stats.nodes
    elif name == "solver.finite":
        counts["solver.finite.nodes"] += result.stats.nodes


def _count_eccd(name, args, kwargs, result, counts):
    counts["solver.eccd.inner_sets"] += result.stats.nodes


def _classify_validate(args, kwargs):
    attack = args[1] if len(args) > 1 else kwargs.get("attack_n", 2)
    return "labeling.validate" if attack <= 2 else "labeling.validate_a3"


def _count_validate(name, args, kwargs, result, counts):
    if name == "labeling.validate":
        counts["labeling.validate.calls"] += 1
        counts["labeling.validate.vertices"] += args[0].graph.order


def _count_parse(name, args, kwargs, result, counts):
    counts["graphio.parse.bytes"] += len(args[0])


def _count_write(name, args, kwargs, result, counts):
    counts["graphio.write.bytes"] += len(result)


def _count_verify(name, args, kwargs, result, counts):
    counts["tilings.verify.vertices"] += sum(r.order for r in result)


# (modules holding the name, attribute, span name or classifier, counter)
_ENTRY_POINTS = (
    ((solver,), "solve", _classify_solve, _count_solve),
    ((solver,), "gamma_bruteforce", _classify_bb, _count_bb),
    ((solver,), "two_extremal_minimum", "solver.extremal", None),
    ((solver,), "gamma_via_eccd", "solver.eccd", _count_eccd),
    ((solver,), "is_optimal", "solver.optimal", None),
    ((solver,), "max_eccd", "solver.optimal", None),
    ((labeling, solver, tilings, cli), "validate", _classify_validate, _count_validate),
    ((graphio,), "parse_graph_file", "graphio.parse", _count_parse),
    ((graphio,), "write_graph_file", "graphio.write", _count_write),
    ((graphio,), "structured_document", "graphio.json", None),
    ((graphio,), "to_dot", "graphio.dot", None),
    ((tilings,), "generate_patch", "tilings.patch", None),
    ((tilings,), "verify_pattern", "tilings.verify", _count_verify),
    ((families,), "generate", "families.generate", None),
    ((families,), "density", "families.density", None),
    ((cli,), "cli_main", "cli.main", None),
)


def _wrap(tracer: Tracer, fn, classify, count):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if tracer.job is None:
            return fn(*args, **kwargs)
        name = classify(args, kwargs) if callable(classify) else classify
        if name is None:
            return fn(*args, **kwargs)
        with tracer.span(name):
            result = fn(*args, **kwargs)
        if count is not None:
            count(name, args, kwargs, result, tracer.counts)
        return result
    return traced


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Wrap every entry point for the duration of the block."""
    saved = []
    try:
        for modules, attr, classify, count in _ENTRY_POINTS:
            wrapped = _wrap(tracer, getattr(modules[0], attr), classify, count)
            for module in modules:
                saved.append((module, attr, getattr(module, attr)))
                setattr(module, attr, wrapped)
        yield tracer
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)
