"""Command-line front end.

Subcommands: gen, check, dim, forced, rook-lb, design, snark-suite,
product.  Reports print as text by default and as JSON with --json; JSON
output is byte-identical across identical invocations, so wall-clock
timings stay zero unless --timing is given.  Under --timing, dim also
reports the search's node count, kept masks, the cardinalities it
decided and phase times.

Graphs are named by small tokens: J7 / snark:7 (flower snark), P9 / path:9,
C6 / cycle:6, K5 / complete:5, K1,3 / star:3, rook:7,7, tree:0,0,1 (parent
list), H (the nine-vertex demo graph), or a path to an edge-list file.
Vertex sets are comma-separated indices, or labels when the graph carries
them (v3 on the demo graph, a1/b2/c3/d4 on snarks).
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import re
import sys
import time
from math import isinf

from . import __version__, checks, graphs, io as gio, rook, snark
from .checks import Mode
from .errors import DesignParseError, GraphError, ModeError
from .search import SearchConfig, metric_dimension

_GEN_FAMILIES = ("path", "cycle", "complete", "star", "tree", "rook", "flower-snark")
# the --parents and --n lists: comma-separated nonnegative integers
_INT_LIST = r"\s*\d+\s*(?:,\s*\d+\s*)*"
# family: (parameter pattern, the form named when a token does not match
# it, builder taking the integer parameters)
_TOKEN_FAMILIES = {
    "rook": (r"\d+,\d+", "rook:M,N with positive integers M and N",
             graphs.rook_graph),
    "snark": (r"\d+", "snark:N", graphs.flower_snark),
    "flower-snark": (r"\d+", "flower-snark:N", graphs.flower_snark),
    "tree": (r"\d+(?:,\d+)*", "tree:P1,P2,... (a parent list)",
             lambda *parents: graphs.tree_from_parents(parents)),
    "star": (r"\d+", "star:M", graphs.star_graph),
    "path": (r"\d+", "path:N", graphs.path_graph),
    "cycle": (r"\d+", "cycle:N", graphs.cycle_graph),
    "complete": (r"\d+", "complete:N", graphs.complete_graph),
}
# shorthand tokens, each rewritten to the family token it stands for
_SHORTHANDS = ((r"J(\d+)", "snark"), (r"P(\d+)", "path"), (r"C(\d+)", "cycle"),
               (r"K(\d+)", "complete"), (r"K0*1,(\d+)", "star"))


def _graph_digest(g):
    return hashlib.sha256(gio.write_edge_list(g).encode()).hexdigest()


def parse_graph_token(token):
    """Resolve a graph token (see module docstring) to a Graph."""
    tok = token.strip()
    if tok in ("H", "demo"):
        return graphs.demo_graph()
    for pattern, family in _SHORTHANDS:
        m = re.fullmatch(pattern, tok)
        if m:
            tok = f"{family}:{m.group(1)}"
    if re.fullmatch(r"K\d+,\d+", tok):
        raise GraphError(f"unsupported complete bipartite token {tok!r}; "
                         "only stars K1,m are built in")
    if ":" in tok:
        family, _, params = tok.partition(":")
        if family not in _TOKEN_FAMILIES:
            raise GraphError(f"unknown graph family {family!r}")
        pattern, form, build = _TOKEN_FAMILIES[family]
        if not re.fullmatch(pattern, params):
            raise GraphError(f"bad {family} token {tok!r}; expected {form}")
        return build(*(int(x) for x in params.split(",")))
    try:
        return gio.read_graph_file(tok)
    except FileNotFoundError:
        raise GraphError(f"cannot interpret {token!r} as a graph token or file") from None


def parse_vertex_set(spec, g):
    """Comma-separated indices and/or labels to a sorted vertex tuple."""
    out = []
    for raw in spec.split(","):
        tok = raw.strip()
        if not tok:
            continue
        if re.fullmatch(r"\d+", tok):
            v = int(tok)
            if not 0 <= v < g.n:
                raise GraphError(f"vertex {v} out of range 0..{g.n - 1}")
        else:
            v = g.vertex_by_label(tok)
            if v is None:
                raise GraphError(f"unknown vertex label {tok!r}")
        out.append(v)
    if not out:
        raise GraphError("empty vertex set")
    return tuple(sorted(set(out)))


def _labels(g, vertices):
    """The labels of ``vertices`` when ``g`` carries labels, else None."""
    if vertices is None or not g.labels:
        return None
    return [g.label(v) for v in vertices]


def _jsonable(obj):
    """``obj`` as JSON values; a dataclass becomes its fields plus "type"."""
    if dataclasses.is_dataclass(obj):
        return _jsonable({**dataclasses.asdict(obj), "type": type(obj).__name__})
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(x) for x in obj]
    if isinstance(obj, (bool, int, float, str)) or obj is None:
        return obj
    return str(obj)


class _Clock:
    def __init__(self, enabled):
        self.enabled = enabled
        self.start = time.perf_counter()

    def millis(self):
        if not self.enabled:
            return 0.0
        return round((time.perf_counter() - self.start) * 1000.0, 3)


def _finish(args, clock, command, result, lines, witness=None, digest=None):
    """Print the JSON report under --json, else the text lines."""
    if not args.json:
        for line in lines:
            print(line)
        return
    report = {
        "command": command,
        "arguments": {k: v for k, v in vars(args).items()
                      if k not in ("func", "json", "timing")},
        "version": __version__,
        "input_digest": digest,
        "result": result,
        "witness": witness,
        "millis": clock.millis(),
    }
    print(json.dumps(_jsonable(report), sort_keys=True, indent=2, allow_nan=False))


def _write_graph(args, clock, command, g, result):
    """Write the edge list of ``g`` to --out, or print it, and report."""
    if args.out:
        gio.write_graph_file(g, args.out)
        lines = [f"wrote {g.n} vertices, {g.edge_count} edges to {args.out}"]
    else:
        lines = gio.write_edge_list(g).splitlines()
    result = {**result, "n": g.n, "edges": g.edge_count, "out": args.out}
    _finish(args, clock, command, result, lines, digest=_graph_digest(g))


def _mode_from_args(args):
    if args.mode == "doubly":
        return Mode.doubly()
    return Mode(args.mode, args.ell)


def _positive(kind):
    def convert(text):
        value = int(text)
        if value < 1:
            raise argparse.ArgumentTypeError(f"{kind} must be at least 1")
        return value
    return convert


def _budget(args):
    """The --budget seconds, refused when infinite: JSON has no infinity,
    and the dim report echoes the budget.  The search refuses NaN."""
    if isinf(args.budget):
        raise ValueError(f"budget must be a finite number of seconds, not {args.budget}")
    return args.budget


def _cmd_gen(args):
    clock = _Clock(args.timing)
    family = args.family
    if family == "tree":
        if not args.parents:
            raise GraphError("tree needs --parents, e.g. --parents 0,0,1")
        if not re.fullmatch(_INT_LIST, args.parents):
            raise GraphError(f"bad --parents {args.parents!r}; expected --parents P1,P2,...")
        params = args.parents.split(",")
    elif args.n is None:
        raise GraphError(f"{family} needs --n")
    elif family == "rook":
        if args.m is None:
            raise GraphError("rook needs --m and --n")
        params = (args.m, args.n)
    else:
        params = (args.n,)
    g = _TOKEN_FAMILIES[family][2](*(int(x) for x in params))
    _write_graph(args, clock, "gen", g, {"family": family})
    return 0


def _cmd_product(args):
    clock = _Clock(args.timing)
    p = graphs.cartesian_product(parse_graph_token(args.g), parse_graph_token(args.h))
    _write_graph(args, clock, "product", p, {})
    return 0


def _cmd_check(args):
    clock = _Clock(args.timing)
    g = parse_graph_token(args.graph)
    mode = _mode_from_args(args)
    anchors = parse_vertex_set(args.set, g)
    dm = graphs.all_pairs_distances(g)
    verdict = checks.check_mode(dm, anchors, mode)
    result = {
        "mode": mode.kind, "ell": mode.order, "holds": verdict.holds,
        "set": list(anchors), "set_labels": _labels(g, anchors), "n": g.n,
    }
    lines = [f"{mode.describe()} on {args.graph}: "
             f"{'holds' if verdict.holds else 'fails'}"]
    if verdict.witness is not None:
        lines.append(f"witness: {verdict.witness}")
    _finish(args, clock, "check", result, lines, witness=verdict.witness,
            digest=_graph_digest(g))
    return 0 if verdict.holds else 1


def _cmd_dim(args):
    clock = _Clock(args.timing)
    g = parse_graph_token(args.graph)
    mode = _mode_from_args(args)
    config = SearchConfig(mode=mode, budget_s=_budget(args), k_max=args.k_max)
    result = metric_dimension(g, config)
    labels = _labels(g, result.basis)
    payload = {
        "mode": mode.kind, "ell": mode.order, "n": g.n,
        "value": result.value,
        "basis": list(result.basis) if result.basis is not None else None,
        "basis_labels": labels,
        "lower_bound": result.lower_bound,
        "lower_bound_source": result.lower_bound_source,
        "exact": result.exact,
        "subsets_checked": result.stats.subsets_checked,
        "exhausted_through": result.stats.exhausted_through,
        "mask_count": result.stats.mask_count,
    }
    lines = [f"{mode.describe()} dimension of {args.graph}: {result.describe()}"]
    if result.basis is not None:
        shown = labels if labels else list(result.basis)
        lines.append(f"minimum set: {shown}")
    if args.timing:
        stats = result.stats
        phase_ms = {name: round(ms, 3) for name, ms in stats.phase_ms.items()}
        payload.update(nodes=stats.nodes, masks_kept=stats.masks_kept,
                       decided=list(stats.decided), phase_ms=phase_ms)
        lines.append(f"search: {stats.nodes} nodes, {stats.masks_kept} of "
                     f"{stats.mask_count} masks kept, decided {list(stats.decided)}, phase ms "
                     + ", ".join(f"{name} {ms}" for name, ms in phase_ms.items()))
    _finish(args, clock, "dim", payload, lines, digest=_graph_digest(g))
    return 0 if result.exact else 1


def _cmd_forced(args):
    clock = _Clock(args.timing)
    g = parse_graph_token(args.graph)
    mode = _mode_from_args(args)
    if mode.kind not in ("resolving", "solid"):
        raise ModeError("forced vertices are defined for resolving and solid modes")
    forced = checks.forced_vertices(g, mode.order, mode.kind)
    labels = _labels(g, forced)
    payload = {"mode": mode.kind, "ell": mode.order, "n": g.n,
               "forced": list(forced), "forced_labels": labels,
               "count": len(forced)}
    shown = labels if labels else list(forced)
    _finish(args, clock, "forced", payload,
            [f"forced vertices ({mode.describe()}) of {args.graph}: "
             f"{shown if forced else 'none'}"], digest=_graph_digest(g))
    return 0


def _cmd_rook_lb(args):
    clock = _Clock(args.timing)
    bound = rook.rook_lower_bound(args.m, args.n)
    payload = {"m": args.m, "n": args.n, "bound": bound}
    _finish(args, clock, "rook-lb", payload,
            [f"any order-2 distinguishing set on rook:{args.m},{args.n} "
             f"has at least {bound} vertices"])
    return 0


def _cmd_design(args):
    clock = _Clock(args.timing)
    with open(args.file) as fh:
        design = rook.parse_design(fh.read())
    if args.n is not None and design.n_points != args.n:
        raise GraphError(f"design has {design.n_points} points, expected {args.n}")
    if args.m is not None and design.m != args.m:
        raise GraphError(f"design has {design.m} blocks, expected {args.m}")
    verdict = rook.validate_design(design)
    if args.action == "validate":
        payload = {"points": design.n_points, "blocks": design.m,
                   "valid": verdict.holds}
        _finish(args, clock, "design", payload,
                [f"design {args.file}: {'valid' if verdict.holds else 'invalid'}"
                 + ("" if verdict.holds else f" ({verdict.witness})")],
                witness=verdict.witness)
        return 0 if verdict.holds else 1
    # to-set
    rs = rook.design_to_set(design)
    suff = rook.sufficiency_check(rs) if min(rs.m, rs.n) >= 6 else None
    payload = {
        "points": design.n_points, "blocks": design.m,
        "valid": verdict.holds,
        "grid": [rs.m, rs.n],
        "size": len(rs),
        "vertices": list(rs.vertices()),
        "cells": [list(c) for c in sorted(rs.cells)],
        "sufficiency": None if suff is None else suff.holds,
    }
    lines = [f"{len(rs)}-cell set on rook:{rs.m},{rs.n}"]
    if suff is not None:
        lines.append(f"order-2 sufficiency: {'holds' if suff.holds else 'fails'}")
    _finish(args, clock, "design", payload, lines, witness=verdict.witness)
    ok = verdict.holds and (suff is None or suff.holds)
    return 0 if ok else 1


def _parse_n_range(spec):
    m = re.fullmatch(r"(\d+)\.\.(\d+)", spec)
    if m:
        lo, hi = int(m.group(1)), int(m.group(2))
        ns = [n for n in range(lo, hi + 1) if n % 2 == 1]
    elif re.fullmatch(_INT_LIST, spec):
        ns = [int(x) for x in spec.split(",")]
    else:
        raise GraphError(f"bad --n {spec!r}; expected --n A..B or N1,N2,...")
    if not ns:
        raise GraphError(f"empty n range {spec!r}")
    return ns


def _cmd_snark_suite(args):
    ns = _parse_n_range(args.n)
    records = snark.snark_suite(ns, long=args.long, budget_s=_budget(args))
    failures = 0
    for rec in records:
        if not args.timing:
            rec["millis"] = 0.0
        else:
            rec["millis"] = round(rec["millis"], 3)
        if not rec["holds"]:
            failures += 1
        if args.json:
            print(json.dumps(_jsonable(rec), sort_keys=True, allow_nan=False))
        else:
            status = "ok" if rec["holds"] else "FAIL"
            extra = f"  [{rec['witness']}]" if rec["witness"] else ""
            print(f"n={rec['n']:<3} {rec['check_name']:<24} {status}{extra}")
    if not args.json:
        print(f"{len(records) - failures}/{len(records)} checks passed")
    return 0 if failures == 0 else 1


def build_parser():
    parser = argparse.ArgumentParser(
        prog="resolving",
        description="verify and search distinguishing vertex sets of finite graphs",
    )
    parser.add_argument("--version", action="version", version=__version__)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", help="emit a JSON report")
    common.add_argument("--timing", action="store_true",
                        help="report real wall-clock millis (breaks byte-identity)")
    # fixed values, not options: every JSON report echoes them in "arguments"
    common.set_defaults(budget=60.0, long=False, seed=0, workers=1)

    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("gen", parents=[common], help="write a generated graph")
    p.add_argument("family", choices=_GEN_FAMILIES)
    p.add_argument("--n", type=_positive("--n"))
    p.add_argument("--m", type=_positive("--m"))
    p.add_argument("--parents", help="comma-separated parent list for tree")
    p.add_argument("--out", help="output file (default stdout)")
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("product", parents=[common],
                       help="write the box product of two graphs")
    p.add_argument("--g", required=True)
    p.add_argument("--h", required=True)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_product)

    p = sub.add_parser("check", parents=[common],
                       help="test one vertex set in one mode")
    p.add_argument("graph")
    p.add_argument("--set", required=True)
    p.add_argument("--mode", choices=("resolving", "solid", "doubly"),
                   default="resolving")
    p.add_argument("--ell", type=_positive("--ell"), default=1)
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("dim", parents=[common],
                       help="exact minimum set size by exhaustive search")
    p.add_argument("graph")
    p.add_argument("--mode", choices=("resolving", "solid", "doubly"),
                   default="resolving")
    p.add_argument("--ell", type=_positive("--ell"), default=1)
    p.add_argument("--k-max", type=_positive("--k-max"), default=None)
    p.add_argument("--budget", type=float, default=60.0,
                   help="time budget in seconds for the search")
    p.set_defaults(func=_cmd_dim)

    p = sub.add_parser("forced", parents=[common],
                       help="vertices every qualifying set must contain")
    p.add_argument("graph")
    p.add_argument("--mode", choices=("resolving", "solid"), default="resolving")
    p.add_argument("--ell", type=_positive("--ell"), default=1)
    p.set_defaults(func=_cmd_forced)

    p = sub.add_parser("rook-lb", parents=[common],
                       help="counting lower bound for order-2 sets on a rook grid")
    p.add_argument("--m", type=_positive("--m"), required=True)
    p.add_argument("--n", type=_positive("--n"), required=True)
    p.set_defaults(func=_cmd_rook_lb)

    p = sub.add_parser("design", parents=[common],
                       help="validate a block-design file or expand it to a grid set")
    p.add_argument("--action", choices=("validate", "to-set"), required=True)
    p.add_argument("--file", required=True)
    p.add_argument("--m", type=_positive("--m"))
    p.add_argument("--n", type=_positive("--n"))
    p.set_defaults(func=_cmd_design)

    p = sub.add_parser("snark-suite", parents=[common],
                       help="run every flower-snark verifier over a range of n")
    p.add_argument("--n", default="5..9",
                   help="range like 5..13 or a comma list (odd n only)")
    p.add_argument("--budget", type=float, default=60.0,
                   help="time budget in seconds for each --long search")
    p.add_argument("--long", action="store_true",
                   help="include long-running exact searches")
    p.set_defaults(func=_cmd_snark_suite)

    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.func(args)
    # OSError: a path that cannot be opened, read or written (missing, a
    # directory, no permission); its message names the path
    except (GraphError, ModeError, DesignParseError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
