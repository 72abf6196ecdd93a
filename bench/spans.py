"""Span recording for the traced benchmark run.

The recorder wraps the public functions of each package layer from the
outside, under the names their callers look up, so no file under ``src/``
changes.  A call through a wrapped name records one span: its name, the
span that was open when it started (its parent), start and end times, and
counters taken from the arguments and the result at that boundary.  Spans
stay in memory; :func:`layer_metrics` reduces one pass's spans to the
per-layer metrics and :meth:`Recorder.dump` writes them out at the end.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import math
import time
import tracemalloc

import resolving
from resolving import checks, cli, graphs, io, rook, search, snark

# (module, public function, span name).  Layer time is the time inside spans
# of a name with no enclosing span of the same name group, so nested calls
# such as rook_graph -> cartesian_product -> build_graph count once.
_GRAPH_CONSTRUCTORS = (
    "build_graph", "path_graph", "cycle_graph", "complete_graph", "star_graph",
    "tree_from_parents", "generate_family", "cartesian_product", "rook_graph",
    "flower_snark", "demo_graph",
)
WRAPPED = (
    *((graphs, f, "graphs.build") for f in _GRAPH_CONSTRUCTORS),
    (graphs, "all_pairs_distances", "graphs.apsp"),
    *((io, f, "io") for f in
      ("parse_edge_list", "write_edge_list", "read_graph_file", "write_graph_file")),
    (checks, "is_l_resolving", "checks.resolving"),
    (checks, "is_l_solid", "checks.solid"),
    (checks, "is_doubly_resolving", "checks.doubly"),
    (checks, "forced_vertices", "checks.forced"),
    (checks, "check_mode", "checks.mode"),
    (checks, "verify_witness", "checks.witness"),
    (search, "metric_dimension", "search.dimension"),
    (search, "verify_basis_certificate", "search.certificate"),
    (search, "dimension_lower_bounds", "search.bounds"),
    *((rook, f, "rook") for f in
      ("quadruple_coverage", "classify_conditions", "sufficiency_check",
       "rook_lower_bound", "design_to_set", "set_to_design", "validate_design",
       "parse_design", "write_design", "fano_plane_design", "ten_point_design")),
    (snark, "snark_context", "snark.context"),
    (snark, "snark_suite", "snark.suite"),
    *((snark, f, "snark.recipe") for f in ("recipe_set", "verify_recipe")),
    *((snark, f, "snark.lemma") for f in
      ("check_erroneous_set", "verify_flank_table", "verify_triple_distinguishers",
       "gap_statistics", "reduction_map", "reduction_distance_check",
       "star_distance")),
    (cli, "main", "cli.main"),
)

# Names a caller imported from another layer that get a span of their own
# around the callee's span, so the caller's share shows as a parent.
CALLER_SPANS = (
    (search, "check_mode", "search.verify"),
    (search, "forced_vertices", "search.forced"),
)

_MODULES = (resolving, graphs, io, checks, search, rook, snark, cli)


@dataclasses.dataclass
class Span:
    name: str
    parent: int | None
    start: float
    end: float = 0.0
    counters: dict | None = None
    call: tuple | None = None  # (function, args, kwargs) of checker calls


def _sets_up_to(n, sizes, last=None):
    """Sets of the given sizes scanned in size-then-colex order: all of them,
    or those up to and including ``last``."""
    if last is None:
        return sum(math.comb(n, k) for k in sizes)
    below = sum(math.comb(n, k) for k in sizes if k < len(last))
    return below + sum(math.comb(c, j + 1) for j, c in enumerate(last)) + 1


def _verdict_counters(scanned, verdict):
    return {"checks.sets_scanned": scanned, "checks.verdicts": 1,
            "checks.failed": int(not verdict.holds)}


def _count_resolving(args, kwargs, verdict):
    dm, _, order = args[:3]
    sizes = (order,) if kwargs.get("assume_sub_solid") else range(1, order + 1)
    last = None if verdict.holds else verdict.witness.second
    return _verdict_counters(_sets_up_to(dm.n, sizes, last), verdict)


def _count_solid(args, kwargs, verdict):
    dm, _, order = args[:3]
    last = None if verdict.holds else verdict.witness.dominating
    return _verdict_counters(_sets_up_to(dm.n, range(1, order + 1), last), verdict)


def _count_doubly(args, kwargs, verdict):
    n = args[0].n
    if verdict.holds:
        scanned = n * (n - 1) // 2
    else:
        u, v = verdict.witness.u, verdict.witness.v
        scanned = u * (2 * n - u - 1) // 2 + (v - u)
    return _verdict_counters(scanned, verdict)


def _count_search(args, kwargs, result):
    return {"search.subsets_checked": result.stats.subsets_checked,
            "search.mask_count": result.stats.mask_count}


COUNTERS = {
    "checks.resolving": _count_resolving,
    "checks.solid": _count_solid,
    "checks.doubly": _count_doubly,
    "search.dimension": _count_search,
}
# checker calls whose arguments are kept, so the largest can be re-run
# under tracemalloc after the pass
_REPLAYABLE = {"checks.resolving", "checks.solid", "checks.doubly", "checks.forced"}


class Recorder:
    """Collects spans while ``active``; wrappers pass straight through
    otherwise, so answer checks between passes record nothing."""

    def __init__(self):
        self.spans = []
        self.active = False
        self._stack = []

    def wrap(self, name, fn):
        count = COUNTERS.get(name)
        keep_call = name in _REPLAYABLE

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            span = Span(name, self._stack[-1] if self._stack else None,
                        time.perf_counter())
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if count is not None:
                span.counters = count(args, kwargs, result)
            if keep_call:
                span.call = (fn, args, kwargs)
            return result

        if hasattr(fn, "cache_clear"):  # snark_context keeps its cache controls
            traced.cache_clear = fn.cache_clear
        return traced

    def install(self):
        """Rebind every wrapped name in every package module that holds it."""
        wrappers = {}
        for module, fname, span_name in WRAPPED:
            original = getattr(module, fname)
            wrappers[id(original)] = (original, self.wrap(span_name, original))
        for module in _MODULES:
            for attr, value in list(vars(module).items()):
                if id(value) in wrappers and wrappers[id(value)][0] is value:
                    setattr(module, attr, wrappers[id(value)][1])
        for module, fname, span_name in CALLER_SPANS:
            setattr(module, fname, self.wrap(span_name, getattr(module, fname)))

    def take(self):
        """Spans recorded since the last call of this method."""
        spans, self.spans = self.spans, []
        return spans

    @staticmethod
    def dump(passes, path):
        """Write span lists (the traced set-up's, then each pass's) as JSON."""
        rows = [[{"name": s.name, "parent": s.parent, "start": s.start,
                  "end": s.end, "counters": s.counters} for s in spans]
                for spans in passes]
        path.write_text(json.dumps({"passes": rows}))


def _outermost(spans, names):
    """Spans named in ``names`` with no enclosing span named in ``names``."""
    inside = [False] * len(spans)
    out = []
    for i, s in enumerate(spans):
        if s.parent is not None:
            inside[i] = inside[s.parent] or spans[s.parent].name in names
        if s.name in names and not inside[i]:
            out.append(s)
    return out


def _busy(spans, *names):
    return sum(s.end - s.start for s in _outermost(spans, set(names)))


def _self_time(spans, prefix):
    """Time inside spans whose name starts with ``prefix`` that no child
    span covers."""
    child_time = [0.0] * len(spans)
    for s in spans:
        if s.parent is not None:
            child_time[s.parent] += s.end - s.start
    return sum(s.end - s.start - child_time[i] for i, s in enumerate(spans)
               if s.name.startswith(prefix))


def _ratio(a, b):
    return a / b if b else 0.0


def layer_metrics(spans, stdout_bytes):
    """Per-layer metrics of one traced pass."""
    counters = {}
    for s in spans:
        for key, value in (s.counters or {}).items():
            counters[key] = counters.get(key, 0) + value
    checker_names = ("checks.resolving", "checks.solid", "checks.doubly")
    search_self = _self_time(spans, "search.")
    checker_time = _busy(spans, *checker_names)
    checks_spans = {s.name for s in spans if s.name.startswith("checks.")}
    return {
        "search.dimension_s": _busy(spans, "search.dimension"),
        "search.certificate_s": _busy(spans, "search.certificate"),
        "search.self_s": search_self,
        "search.subsets_checked": counters.get("search.subsets_checked", 0),
        "search.mask_count": counters.get("search.mask_count", 0),
        "search.subsets_per_s": _ratio(counters.get("search.subsets_checked", 0),
                                       search_self),
        "search.forced_s": _busy(spans, "search.forced"),
        "search.verify_s": _busy(spans, "search.verify"),
        "checks.resolving_s": _busy(spans, "checks.resolving"),
        "checks.solid_s": _busy(spans, "checks.solid"),
        "checks.doubly_s": _busy(spans, "checks.doubly"),
        "checks.forced_s": _busy(spans, "checks.forced"),
        "checks.calls": len(_outermost(spans, checks_spans)),
        "checks.sets_scanned": counters.get("checks.sets_scanned", 0),
        "checks.sets_per_s": _ratio(counters.get("checks.sets_scanned", 0),
                                    checker_time),
        "checks.fail_share": _ratio(counters.get("checks.failed", 0),
                                    counters.get("checks.verdicts", 0)),
        "graphs.build_s": _busy(spans, "graphs.build"),
        "graphs.apsp_s": _busy(spans, "graphs.apsp"),
        "graphs.apsp_calls": sum(s.name == "graphs.apsp" for s in spans),
        "io.s": _busy(spans, "io"),
        "snark.context_s": _busy(spans, "snark.context"),
        "snark.suite_s": _busy(spans, "snark.suite"),
        "snark.recipe_s": _busy(spans, "snark.recipe"),
        "snark.lemma_s": _busy(spans, "snark.lemma"),
        "rook.s": _busy(spans, "rook"),
        "rook.calls": len(_outermost(spans, {"rook"})),
        "cli.main_s": _busy(spans, "cli.main"),
        "cli.calls": sum(s.name == "cli.main" for s in spans),
        "cli.self_s": _self_time(spans, "cli."),
        "cli.stdout_bytes": stdout_bytes,
    }


def peak_alloc_mb(spans):
    """tracemalloc peak of the slowest checker call of a pass, re-run alone
    (0 when the pass made no checker call)."""
    calls = [s for s in spans if s.call is not None]
    if not calls:
        return 0.0
    fn, args, kwargs = max(calls, key=lambda s: s.end - s.start).call
    tracemalloc.start()
    try:
        fn(*args, **kwargs)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak / 2**20
