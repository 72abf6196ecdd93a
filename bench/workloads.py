"""The benchmark's three workloads.

Each workload builds its inputs from a seed in ``__init__`` (the set-up the
benchmark times), runs one closed-loop pass with :meth:`run_pass` (one
client, one thread, ``workers=1``), and grades a pass's answers with
:meth:`check` outside the timed region.  Its :class:`HostProbe` ticks
between calls, and inside search calls, so that run.py can tell how fast
the shared host was while each call ran.

Seed 0 keeps every graph's own vertex labels and fixed request and drop
choices, so its bases and its CLI output are pinned.  Any other seed
relabels the vertices by seeded permutations and draws the requests and
dropped vertices from a seeded generator; values and verdicts must not
change, and every basis and witness is re-verified.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import random
import time
from pathlib import Path

import jsonschema

from hostprobe import HostProbe
from resolving import checks, cli, graphs, rook, search, snark
from resolving import io as gio

ROOT = Path(__file__).resolve().parents[1]
OUT = ROOT / "bench" / "out"


@dataclasses.dataclass
class Call:
    """One timed call of a pass and what it returned: ``seconds`` is its
    time without the probe ticks made inside it, ``start`` and ``end`` its
    clock readings."""

    label: str
    seconds: float
    output: object
    start: float
    end: float


def _relabel(g, rng):
    """``g`` with vertex v renamed perm[v]; ``g`` itself when rng is None."""
    if rng is None:
        return g, tuple(range(g.n))
    perm = list(range(g.n))
    rng.shuffle(perm)
    labels = None
    if g.labels is not None:
        labels = [None] * g.n
        for v, label in enumerate(g.labels):
            labels[perm[v]] = label
    edges = [(perm[u], perm[v]) for u, v in g.edges()]
    return graphs.build_graph(g.n, edges, labels), tuple(perm)


def _native_graph(name):
    """J<n> from the snark context cache, or rook<m>x<n>."""
    if name.startswith("J"):
        return snark.snark_context(int(name[1:]))[0]
    m, n = name[4:].split("x")
    return graphs.rook_graph(int(m), int(n))


def _timed(label, fn, probe):
    """Time ``fn()``, right after a probe tick, and tick again after it.
    Ticks inside the call (the search progress hook) are taken out of its
    time."""
    before = len(probe.samples)
    t0 = time.perf_counter()
    out = fn()
    t1 = time.perf_counter()
    inside = sum(r for _, r in probe.samples[before:])
    probe.tick()
    return Call(label, t1 - t0 - inside, out, t0, t1)


# ---------------------------------------------------------------------------
# search: exact minimum sets, and one refutation


# graph, mode (kind, order), value, colex-first basis at seed 0
SEARCH_CASES = (
    ("J9", ("solid", 1), 6, (0, 5, 13, 18, 22, 27)),
    ("J11", ("solid", 1), 6, (0, 6, 16, 22, 27, 33)),
    ("J5", ("solid", 2), 10, (0, 2, 3, 6, 8, 9, 10, 12, 15, 17)),
    ("J5", ("resolving", 2), 7, (0, 3, 6, 7, 10, 12, 15)),
    ("J7", ("resolving", 2), 8, (0, 4, 6, 9, 10, 14, 17, 21)),
    ("J5", ("resolving", 3), 15,
     (1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 13, 14, 15, 17)),
    ("rook5x4", ("resolving", 2), 10, (1, 3, 4, 7, 9, 10, 12, 14, 16, 17)),
    ("J7", ("doubly", None), 4, (3, 7, 9, 14)),
)


# Relabellings per run at seeds other than 0.  The scan's work depends on
# the labels (J7 resolving-2 tests 40-55 million masks, by permutation), so
# pass i runs on relabelling i mod RELABELLINGS, and a run's per-call
# medians are over several labellings rather than one.
RELABELLINGS = 8


class SearchWorkload:
    """``metric_dimension`` on eight instances plus a minimality proof of
    the J9 ``solid1`` recipe."""

    requests_are_calls = False

    def __init__(self, seed):
        self.seed = seed
        rng = random.Random(seed) if seed else None
        self.variants = [self._relabelled(rng) for _ in range(RELABELLINGS if seed else 1)]
        self.passes = 0
        self.probe = HostProbe()

    @staticmethod
    def _relabelled(rng):
        cases = []
        for name, (kind, order), value, basis in SEARCH_CASES:
            g, _ = _relabel(_native_graph(name), rng)
            cases.append((f"{name} {kind}-{order or ''}".rstrip("-"), g,
                          graphs.all_pairs_distances(g), checks.Mode(kind, order),
                          value, basis))
        g, perm = _relabel(_native_graph("J9"), rng)
        return cases, (g, tuple(sorted(perm[v] for v in snark.recipe_set("solid1", 9))))

    def run_pass(self):
        """One pass over the next relabelling; :meth:`check` grades it."""
        self.cases, self.certificate = self.variants[self.passes % len(self.variants)]
        self.passes += 1
        probe = self.probe
        probe.tick()
        calls = [
            _timed(label, lambda g=g, mode=mode: search.metric_dimension(
                g, search.SearchConfig(mode=mode, progress=probe.tick)), probe)
            for label, g, _, mode, _, _ in self.cases
        ]
        g, anchors = self.certificate
        calls.append(_timed("J9 solid1 recipe is minimum",
                            lambda: search.verify_basis_certificate(
                                g, checks.Mode.solid(1), anchors), probe))
        return calls

    def check(self, calls):
        ok = []
        for call, (_, _, dm, mode, value, basis) in zip(calls, self.cases):
            r = call.output
            ok.append(
                r.value == value and r.lower_bound == value
                and r.basis is not None
                and checks.check_mode(dm, r.basis, mode).holds
                and (self.seed != 0 or r.basis == basis)
            )
        ok.append(calls[-1].output.status == "confirmed-minimum")
        return ok


# ---------------------------------------------------------------------------
# verify: checker calls only


class VerifyWorkload:
    """Passing verdicts that scan every set, failing ones that exit early."""

    requests_are_calls = False

    def __init__(self, seed):
        self.seed = seed
        self.probe = HostProbe()
        rng = random.Random(seed) if seed else None
        self.graphs = {}
        for name in ("J13", "J21", "J25", "J31", "rook12x10"):
            g, perm = _relabel(_native_graph(name), rng)
            self.graphs[name] = (g, graphs.all_pairs_distances(g), perm)
        design = rook.design_to_set(rook.ten_point_design()).vertices()

        def anchors(name, native, drop=False):
            """Native set mapped through the permutation, minus one seeded
            vertex (the middle one at seed 0) when ``drop``."""
            native = list(native)
            if drop:
                native.remove(rng.choice(native) if rng else native[len(native) // 2])
            perm = self.graphs[name][2]
            return tuple(sorted(perm[v] for v in native))

        # label, checker name in ``checks``, graph, anchor set, order, verdict;
        # checkers are looked up at call time so the traced run sees them
        r, s = "is_l_resolving", "is_l_solid"
        self.calls = [
            ("l3 J13 order 3", r, "J13", anchors("J13", snark.recipe_set("l3", 13)), 3, True),
            ("l3 J21 order 3", r, "J21", anchors("J21", snark.recipe_set("l3", 21)), 3, True),
            *((f"solid2 J{n} order 2", s, f"J{n}",
               anchors(f"J{n}", snark.recipe_set("solid2", n)), 2, True)
              for n in (21, 25, 31)),
            ("design rook12x10 order 2", r, "rook12x10", anchors("rook12x10", design), 2, True),
            ("l2 J21 doubly", "is_doubly_resolving", "J21",
             anchors("J21", snark.recipe_set("l2", 21)), None, True),
            ("l3 J13 minus one, order 3", r, "J13",
             anchors("J13", snark.recipe_set("l3", 13), drop=True), 3, False),
            *((f"solid2 J{n} minus one, order 2", s, f"J{n}",
               anchors(f"J{n}", snark.recipe_set("solid2", n), drop=True), 2, False)
              for n in (21, 25, 31)),
            ("design rook12x10 order 3", r, "rook12x10", anchors("rook12x10", design), 3, False),
        ]

    def run_pass(self):
        out = []
        self.probe.tick()
        for label, checker, name, anchors, order, _ in self.calls:
            args = (self.graphs[name][1], anchors) + (() if order is None else (order,))
            out.append(_timed(label, lambda: getattr(checks, checker)(*args), self.probe))
        g = self.graphs["rook12x10"][0]
        out.append(_timed("forced rook12x10 solid 2",
                          lambda: checks.forced_vertices(g, 2, "solid"), self.probe))
        return out

    def check(self, calls):
        ok = []
        for call, (_, _, name, anchors, _, holds) in zip(calls, self.calls):
            verdict = call.output
            dm = self.graphs[name][1]
            ok.append(verdict.holds == holds and (
                verdict.witness is None if holds
                else checks.verify_witness(dm, anchors, verdict.witness)))
        # every cell of the grid is forced, whatever the labels
        ok.append(calls[-1].output == tuple(range(120)))
        return ok


# ---------------------------------------------------------------------------
# cli: a seeded stream of in-process ``resolving`` commands


SCHEMA = json.loads((ROOT / "docs" / "report.schema.json").read_text())
# sha256 of one pass's concatenated stdout at seed 0
CLI_SEED0_SHA256 = "b26c23f1865cfa14901b376f1b9a9e5e08808dd17708aad35a79978a8826c170"

# token -> direct API constructor, for the answer gate
CLI_GRAPHS = {
    "H": graphs.demo_graph,
    "J5": lambda: graphs.flower_snark(5),
    "J7": lambda: graphs.flower_snark(7),
    "J9": lambda: graphs.flower_snark(9),
    "J11": lambda: graphs.flower_snark(11),
    "rook:6,6": lambda: graphs.rook_graph(6, 6),
    "P9": lambda: graphs.path_graph(9),
    "C6": lambda: graphs.cycle_graph(6),
    "tree:0,0,1,1,2,2,3,3": lambda: graphs.tree_from_parents((0, 0, 1, 1, 2, 2, 3, 3)),
    "K1,3": lambda: graphs.star_graph(3),
    "P3": lambda: graphs.path_graph(3),
    "P4": lambda: graphs.path_graph(4),
    "C4": lambda: graphs.cycle_graph(4),
    "C5": lambda: graphs.cycle_graph(5),
    "K3": lambda: graphs.complete_graph(3),
    "K4": lambda: graphs.complete_graph(4),
}
CHECK_GRAPHS = ("H", "J5", "J7", "J9", "J11", "rook:6,6", "P9", "C6",
                "tree:0,0,1,1,2,2,3,3")
CHECK_MODES = (("resolving", 1), ("resolving", 2), ("solid", 1), ("solid", 2),
               ("doubly", None))
DIM_CASES = (("J5", "resolving", 1), ("J7", "resolving", 1), ("J9", "resolving", 1),
             ("J5", "doubly", None), ("P9", "resolving", 1), ("P9", "solid", 1),
             ("C6", "resolving", 2), ("H", "solid", 1), ("H", "resolving", 2),
             ("K1,3", "solid", 2))
FACTORS = ("P3", "P4", "C4", "C5", "K3", "K4")


def _mode_args(kind, order):
    return ["--mode", kind] + ([] if order is None else ["--ell", str(order)])


def _witness_json(witness):
    if witness is None:
        return None
    return json.loads(json.dumps(dataclasses.asdict(witness) | {"type": type(witness).__name__}))


def _digest(g):
    return hashlib.sha256(gio.write_edge_list(g).encode()).hexdigest()


class CliWorkload:
    """A few hundred ``resolving ... --json`` commands run through
    ``cli.main`` with stdout captured; each request starts from a cleared
    snark cache, as a fresh process would."""

    requests_are_calls = True

    def __init__(self, seed):
        self.seed = seed
        self.probe = HostProbe()
        rng = random.Random(seed)
        self._clear_context = snark.snark_context.cache_clear
        design_dir = OUT / "cli"
        design_dir.mkdir(parents=True, exist_ok=True)
        self.designs = {}
        for name, design in (("fano", rook.fano_plane_design()),
                             ("ten-point", rook.ten_point_design())):
            if seed:
                points = list(range(design.n_points))
                rng.shuffle(points)
                blocks = [[points[p] for p in b] for b in design.blocks]
                rng.shuffle(blocks)
                design = rook.Design.from_blocks(design.n_points, blocks)
            path = design_dir / f"{name}.design"
            path.write_text(rook.write_design(design))
            self.designs[path.relative_to(ROOT).as_posix()] = design
        self.requests = self._requests(rng)
        self._verified = None

    def _requests(self, rng):
        reqs = []
        for token in CHECK_GRAPHS:
            g = CLI_GRAPHS[token]()
            for kind, order in CHECK_MODES:
                for _ in range(3):
                    chosen = sorted(rng.sample(range(g.n), rng.randint(2, max(2, g.n // 3))))
                    named = g.labels is not None and "," not in g.labels[0]
                    spec = ",".join(g.labels[v] if named else str(v) for v in chosen)
                    reqs.append(["check", token, "--set", spec, *_mode_args(kind, order)])
        for token, kind, order in DIM_CASES * 2:
            reqs.append(["dim", token, *_mode_args(kind, order)])
        for _ in range(15):
            kind, order = rng.choice((("solid", 1), ("solid", 2), ("resolving", 2)))
            reqs.append(["forced", rng.choice(CHECK_GRAPHS), *_mode_args(kind, order)])
        for _ in range(15):
            reqs.append(["rook-lb", "--m", str(rng.randint(2, 12)),
                         "--n", str(rng.randint(2, 12))])
        for _ in range(15):
            family = rng.choice(cli._GEN_FAMILIES)
            if family == "flower-snark":
                args = ["--n", str(rng.choice((5, 7, 9, 11)))]
            elif family == "rook":
                args = ["--m", str(rng.randint(2, 7)), "--n", str(rng.randint(2, 7))]
            elif family == "tree":
                args = ["--parents", ",".join(str(rng.randint(0, i)) for i in range(rng.randint(1, 9)))]
            else:
                args = ["--n", str(rng.randint(3, 12))]
            reqs.append(["gen", family, *args])
        for _ in range(10):
            reqs.append(["product", "--g", rng.choice(FACTORS), "--h", rng.choice(FACTORS)])
        for path in self.designs:
            for action in ("validate", "to-set"):
                reqs.extend([["design", "--action", action, "--file", path]] * 4)
        reqs.extend([["snark-suite", "--n", "5..9"]] * 2)
        rng.shuffle(reqs)
        return [r + ["--json"] for r in reqs]

    def _request(self, argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        return code, out.getvalue(), err.getvalue()

    def run_pass(self):
        calls = []
        self.probe.tick()
        for argv in self.requests:
            self._clear_context()
            calls.append(_timed(argv[0], lambda: self._request(argv), self.probe))
        return calls

    def check(self, calls):
        """Grade the first pass against direct API calls and the schema;
        later passes must repeat its bytes exactly."""
        outputs = [c.output for c in calls]
        if self._verified is None:
            self._verified = [(out, self._agrees(argv, *out))
                              for argv, out in zip(self.requests, outputs)]
            digest = hashlib.sha256("".join(o[1] for o in outputs).encode()).hexdigest()
            if self.seed == 0 and digest != CLI_SEED0_SHA256:
                self._verified = [(out, False) for out, _ in self._verified]
        return [good and out == first
                for out, (first, good) in zip(outputs, self._verified)]

    def _agrees(self, argv, code, stdout, stderr):
        if stderr:
            return False
        try:
            reports = [json.loads(line) for line in stdout.splitlines()] \
                if argv[0] == "snark-suite" else [json.loads(stdout)]
            for report in reports:
                jsonschema.validate(report, SCHEMA)
            return self._expected(argv, code, reports)
        except (ValueError, KeyError, TypeError, jsonschema.ValidationError):
            return False

    def _expected(self, argv, code, reports):
        """True iff the reports match what the library returns directly."""
        cmd = argv[0]
        opts = dict(zip(argv, argv[1:]))
        if cmd == "snark-suite":
            records = snark.snark_suite(list(range(5, 10, 2)))
            want = [{**r, "millis": 0.0} for r in records]
            return reports == json.loads(json.dumps(want)) and code == 0
        (report,) = reports
        res = report["result"]
        if cmd in ("check", "dim", "forced"):
            g = CLI_GRAPHS[argv[1]]()
            kind = opts["--mode"]
            mode = checks.Mode(kind, None if kind == "doubly" else int(opts["--ell"]))
            if report["input_digest"] != _digest(g):
                return False
        if cmd == "check":
            dm = graphs.all_pairs_distances(g)
            anchors = tuple(sorted(int(t) if t.isdigit() else g.vertex_by_label(t)
                                   for t in opts["--set"].split(",")))
            verdict = checks.check_mode(dm, anchors, mode)
            return (res["holds"] == verdict.holds and res["set"] == list(anchors)
                    and report["witness"] == _witness_json(verdict.witness)
                    and code == (0 if verdict.holds else 1))
        if cmd == "dim":
            r = search.metric_dimension(g, search.SearchConfig(mode=mode))
            return (res["value"] == r.value and res["basis"] == list(r.basis)
                    and res["lower_bound"] == r.lower_bound and code == 0)
        if cmd == "forced":
            return res["forced"] == list(checks.forced_vertices(g, mode.order, mode.kind))
        if cmd == "rook-lb":
            return res["bound"] == rook.rook_lower_bound(int(opts["--m"]), int(opts["--n"]))
        if cmd == "gen":
            g = _gen_graph(argv[1], opts)
            return (res["n"], res["edges"], report["input_digest"]) == (g.n, g.edge_count, _digest(g))
        if cmd == "product":
            p = graphs.cartesian_product(CLI_GRAPHS[opts["--g"]](), CLI_GRAPHS[opts["--h"]]())
            return (res["n"], res["edges"], report["input_digest"]) == (p.n, p.edge_count, _digest(p))
        design = self.designs[opts["--file"]]
        valid = rook.validate_design(design).holds
        if res["valid"] != valid:
            return False
        if opts["--action"] == "validate":
            return code == (0 if valid else 1)
        rs = rook.design_to_set(design)
        suff = rook.sufficiency_check(rs).holds if min(rs.m, rs.n) >= 6 else None
        return (res["vertices"] == list(rs.vertices()) and res["size"] == len(rs)
                and res["sufficiency"] == suff
                and code == (0 if valid and suff is not False else 1))


def _gen_graph(family, opts):
    if family == "flower-snark":
        return graphs.flower_snark(int(opts["--n"]))
    if family == "rook":
        return graphs.rook_graph(int(opts["--m"]), int(opts["--n"]))
    if family == "tree":
        return graphs.tree_from_parents(tuple(int(x) for x in opts["--parents"].split(",")))
    if family == "star":
        return graphs.star_graph(int(opts["--n"]))
    return graphs.generate_family(family, n=int(opts["--n"]))


WORKLOADS = {"search": SearchWorkload, "verify": VerifyWorkload, "cli": CliWorkload}
