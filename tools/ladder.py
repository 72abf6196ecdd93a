"""Run the metric_dimension workload ladder and write its JSON record.

Usage:  python3 tools/ladder.py RECORD   (e.g. BENCH_22.json at the
repository root; a relative path is taken from the working directory)

Each rung is one ``metric_dimension`` call, run in a fresh process of its
own (one at a time), so that its peak RSS is that rung's.  The record
goes to RECORD, so each change writes a file of its own and the earlier
records stay: the provenance (core count, Python and numpy versions,
commit, whether tracked files had uncommitted changes) and, per rung,
the answer (value, basis, lower bound and source), the counters that
explain the time (mask_count, masks_kept, nodes, decided,
subsets_checked, exhausted_through), ``phase_ms``, wall seconds and peak
RSS.  The frontier rungs run under a fixed budget and report the bound
they reach.  Node counts are deterministic; times drift with the host.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import platform
import resource
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# (name, graph, mode, order, budget seconds); None budget means the default
RUNGS = [
    ("J5 resolving-3", ("snark", 5), "resolving", 3, None),
    ("J7 resolving-3", ("snark", 7), "resolving", 3, None),
    ("J9 resolving-3", ("snark", 9), "resolving", 3, None),
    ("J11 resolving-3", ("snark", 11), "resolving", 3, 120.0),
    ("J11 resolving-2", ("snark", 11), "resolving", 2, None),
    ("J13 resolving-2", ("snark", 13), "resolving", 2, None),
    ("J9 solid-1", ("snark", 9), "solid", 1, None),
    ("J11 solid-1", ("snark", 11), "solid", 1, None),
    ("J17 solid-1", ("snark", 17), "solid", 1, None),
    ("J31 solid-1", ("snark", 31), "solid", 1, None),
    ("J11 solid-2", ("snark", 11), "solid", 2, None),
    ("J13 solid-2", ("snark", 13), "solid", 2, None),
    ("J17 solid-2", ("snark", 17), "solid", 2, None),
    ("J21 solid-2", ("snark", 21), "solid", 2, 120.0),
    ("J17 doubly", ("snark", 17), "doubly", None, None),
    ("P65 resolving-2", ("path", 65), "resolving", 2, None),
    ("rook 6x5 resolving-2", ("rook", 6, 5), "resolving", 2, None),
    ("rook 6x6 resolving-2", ("rook", 6, 6), "resolving", 2, None),
    ("rook 7x6 resolving-2", ("rook", 7, 6), "resolving", 2, 120.0),
    ("rook 12x10 resolving-1", ("rook", 12, 10), "resolving", 1, 60.0),
]
DEFAULT_BUDGET_S = 60.0


def _graph(spec):
    from resolving import flower_snark, path_graph, rook_graph

    family, *params = spec
    return {"snark": flower_snark, "path": path_graph, "rook": rook_graph}[family](*params)


def _rung(spec, budget_s, conn):
    """One rung, in its own process: the record, sent through ``conn``."""
    sys.path.insert(0, str(ROOT / "src"))
    from resolving import Mode, SearchConfig, metric_dimension

    _, graph, kind, order, _ = spec
    mode = Mode.doubly() if kind == "doubly" else Mode(kind, order)
    g = _graph(graph)
    started = time.perf_counter()
    res = metric_dimension(g, SearchConfig(mode=mode, budget_s=budget_s))
    wall_s = time.perf_counter() - started
    s = res.stats
    # ru_maxrss is in KiB on Linux
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    conn.send({
        "value": res.value,
        "basis": None if res.basis is None else list(res.basis),
        "lower_bound": res.lower_bound,
        "lower_bound_source": res.lower_bound_source,
        "mask_count": s.mask_count,
        "masks_kept": s.masks_kept,
        "nodes": s.nodes,
        # None on trees older than SearchStats.decided, to compare with them
        "decided": list(s.decided) if hasattr(s, "decided") else None,
        "subsets_checked": s.subsets_checked,
        "exhausted_through": s.exhausted_through,
        "phase_ms": {name: round(ms, 3) for name, ms in s.phase_ms.items()},
        "wall_s": round(wall_s, 4),
        "peak_rss_mb": round(peak, 1),
    })
    conn.close()


def _git(*argv):
    try:
        return subprocess.run(["git", *argv], cwd=ROOT, capture_output=True, text=True,
                              check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return None


def _provenance():
    import numpy

    # tracked files only: an untracked copy of this script is no change
    status = _git("status", "--porcelain", "--untracked-files=no")
    return {
        "cores": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
        "commit": _git("rev-parse", "HEAD"),
        "uncommitted_changes": None if status is None else bool(status),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description="run the metric_dimension ladder")
    parser.add_argument("record", type=Path, help="JSON file to write, e.g. BENCH_22.json")
    record_path = parser.parse_args(argv).record
    spawn = multiprocessing.get_context("spawn")
    rungs = []
    for spec in RUNGS:
        name, graph, kind, order, budget_s = spec
        budget_s = DEFAULT_BUDGET_S if budget_s is None else budget_s
        receive, send = spawn.Pipe(duplex=False)
        child = spawn.Process(target=_rung, args=(spec, budget_s, send))
        child.start()
        send.close()
        try:
            record = receive.recv()
        except EOFError:
            # the child died before it could report (out of memory, say)
            record = {"error": "no record", "value": None, "lower_bound": None,
                      "nodes": None, "decided": None, "wall_s": None, "peak_rss_mb": None}
        child.join()
        if "error" in record:
            record["error"] = f"the rung's process exited with code {child.exitcode}"
        rungs.append({"name": name, "graph": list(graph), "mode": kind, "order": order,
                      "budget_s": budget_s, **record})
        print(f"{name}: value {record['value']}, bound {record['lower_bound']}, "
              f"{record['nodes']} nodes, decided {record['decided']}, "
              f"{record['wall_s']} s, {record['peak_rss_mb']} MB", flush=True)
    record_path.write_text(json.dumps({"provenance": _provenance(), "rungs": rungs}, indent=1) + "\n")
    print(f"wrote {record_path}")


if __name__ == "__main__":
    main()
