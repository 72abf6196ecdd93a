"""Command-line front end.

Subcommands: gen, check, dim, forced, rook-lb, design, snark-suite,
product.  Reports print as text by default and as JSON with --json; JSON
output is byte-identical across identical invocations, so wall-clock
timings stay zero unless --timing is given.  Under --timing, dim also
reports the search's node count, kept masks, the cardinalities it
decided and phase times.

Exit codes: 0 when the check holds or the value is exact, 1 when it fails
or the value is not exact, 2 for a usage or input error.  A reader that
closes stdout early is not an error: the command keeps its own code.

Graphs are named by small tokens: J7 / snark:7 (flower snark), P9 / path:9,
C6 / cycle:6, K5 / complete:5, K1,3 / star:3, rook:7,7, tree:0,0,1 (parent
list), H (the nine-vertex demo graph), or a path to an edge-list file.
Vertex sets are comma-separated indices, or labels when the graph carries
them (v3 on the demo graph, a1/b2/c3/d4 on snarks).
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import hashlib
import json
import os
import re
import sys
import time
from math import isinf

from . import __version__, checks, graphs, io as gio, rook, snark
from .checks import Mode
from .errors import GraphError
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


def _report(args, result, witness, g, millis):
    """The --json report of one command; ``g`` is the graph it read or
    wrote (its edge-list digest is echoed), or None.  Refuses NaN and
    infinity, which a strict JSON reader cannot parse."""
    digest = None if g is None else hashlib.sha256(gio.write_edge_list(g).encode()).hexdigest()
    report = {
        "command": args.subcommand,
        "arguments": {k: v for k, v in vars(args).items()
                      if k not in ("func", "json", "timing")},
        "version": __version__,
        "input_digest": digest,
        "result": result,
        "witness": witness,
        "millis": millis,
    }
    return json.dumps(_jsonable(report), sort_keys=True, indent=2, allow_nan=False)


def _write_graph(args, g, result):
    """Write the edge list of ``g`` to --out, or make it the text lines."""
    if args.out:
        gio.write_graph_file(g, args.out)
        lines = [f"wrote {g.n} vertices, {g.edge_count} edges to {args.out}"]
    else:
        lines = gio.write_edge_list(g).splitlines()
    return 0, {**result, "n": g.n, "edges": g.edge_count, "out": args.out}, lines, None, g


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


# Each _cmd_* handler returns (exit code, result, text lines, witness,
# graph); main prints the text lines, or under --json the report built from
# the rest.  A None result means the lines are the output in both forms.


def _cmd_gen(args):
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
    return _write_graph(args, g, {"family": family})


def _cmd_product(args):
    p = graphs.cartesian_product(parse_graph_token(args.g), parse_graph_token(args.h))
    return _write_graph(args, p, {})


def _cmd_check(args):
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
    return (0 if verdict.holds else 1), result, lines, verdict.witness, g


def _cmd_dim(args):
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
    return (0 if result.exact else 1), payload, lines, None, g


def _cmd_forced(args):
    g = parse_graph_token(args.graph)
    mode = _mode_from_args(args)
    forced = checks.forced_vertices(g, mode.order, mode.kind)
    labels = _labels(g, forced)
    payload = {"mode": mode.kind, "ell": mode.order, "n": g.n,
               "forced": list(forced), "forced_labels": labels,
               "count": len(forced)}
    shown = labels if labels else list(forced)
    return 0, payload, [f"forced vertices ({mode.describe()}) of {args.graph}: "
                        f"{shown if forced else 'none'}"], None, g


def _cmd_rook_lb(args):
    bound = rook.rook_lower_bound(args.m, args.n)
    payload = {"m": args.m, "n": args.n, "bound": bound}
    return 0, payload, [f"any order-2 distinguishing set on rook:{args.m},{args.n} "
                        f"has at least {bound} vertices"], None, None


def _cmd_design(args):
    with open(args.file, encoding="utf-8") as fh:
        design = rook.parse_design(fh.read())
    if args.n is not None and design.n_points != args.n:
        raise GraphError(f"design has {design.n_points} points, expected {args.n}")
    if args.m is not None and design.m != args.m:
        raise GraphError(f"design has {design.m} blocks, expected {args.m}")
    verdict = rook.validate_design(design)
    if args.action == "validate":
        payload = {"points": design.n_points, "blocks": design.m,
                   "valid": verdict.holds}
        lines = [f"design {args.file}: {'valid' if verdict.holds else 'invalid'}"
                 + ("" if verdict.holds else f" ({verdict.witness})")]
        return (0 if verdict.holds else 1), payload, lines, verdict.witness, None
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
    ok = verdict.holds and (suff is None or suff.holds)
    return (0 if ok else 1), payload, lines, verdict.witness, None


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
    lines = []
    for rec in records:
        rec["millis"] = round(rec["millis"], 3) if args.timing else 0.0
        if args.json:
            lines.append(json.dumps(_jsonable(rec), sort_keys=True, allow_nan=False))
        else:
            status = "ok" if rec["holds"] else "FAIL"
            extra = f"  [{rec['witness']}]" if rec["witness"] else ""
            lines.append(f"n={rec['n']:<3} {rec['check_name']:<24} {status}{extra}")
    failures = sum(not rec["holds"] for rec in records)
    if not args.json:
        lines.append(f"{len(records) - failures}/{len(records)} checks passed")
    # one JSON line per record under --json, with no report around them
    return (0 if failures == 0 else 1), None, lines, None, None


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

    def on_graph(p, kinds=("resolving", "solid", "doubly")):
        """The graph, --mode and --ell of check, dim and forced."""
        p.add_argument("graph")
        p.add_argument("--mode", choices=kinds, default="resolving")
        p.add_argument("--ell", type=_positive("--ell"), default=1)

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
    p.add_argument("--set", required=True)
    on_graph(p)
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("dim", parents=[common],
                       help="exact minimum set size by exhaustive search")
    on_graph(p)
    p.add_argument("--k-max", type=_positive("--k-max"), default=None)
    p.add_argument("--budget", type=float, default=60.0,
                   help="time budget in seconds for the search")
    p.set_defaults(func=_cmd_dim)

    p = sub.add_parser("forced", parents=[common],
                       help="vertices every qualifying set must contain")
    on_graph(p, ("resolving", "solid"))
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
    start = time.perf_counter()
    try:
        code, result, lines, witness, g = args.func(args)
        if args.json and result is not None:
            millis = round((time.perf_counter() - start) * 1000.0, 3) if args.timing else 0.0
            lines = [_report(args, result, witness, g, millis)]
    # every package error is a ValueError; OSError: a path that cannot be
    # opened, read or written (missing, a directory, no permission), named
    # in its message
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        print("".join(f"{line}\n" for line in lines), end="", flush=True)
    except BrokenPipeError:
        # the reader closed stdout early, which is no error of the command;
        # stdout goes to devnull so that the flush at exit stays quiet
        with contextlib.suppress(OSError):
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return code


if __name__ == "__main__":
    sys.exit(main())
