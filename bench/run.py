"""Benchmark of the resolving package, driven from outside through its API.

    python3 bench/run.py --workload {search,verify,cli,all} --seed N \\
        --seconds S --trace {0,1}

One workload runs per process.  The benchmark times set-up, then runs
closed-loop passes of the workload for about ``--seconds`` and grades
every answer outside the timed region.  With ``--trace 0`` it reports the
end-to-end metrics, timed at the host's calm speed (see
``calm_seconds``); with ``--trace 1`` it runs the two probes,
then untraced and traced passes for half the time each, and reports the
per-layer metrics from the spans (see ``spans.py``).  ``--workload all``
runs each workload in a child process and sums up.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The full result, with
provenance, is written to ``bench/out/``; traced runs also write their
spans there.  See ``bench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import bisect
import dataclasses
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from hostprobe import HostProbe

ROOT = Path(__file__).resolve().parents[1]
OUT = ROOT / "bench" / "out"
WORKLOADS = ("search", "verify", "cli")
SETUP_SAMPLES = 5
# probe ticks this close to a call tell how slow the host was during it
CALM_WINDOW_S = 0.1


@dataclasses.dataclass
class Pass:
    wall: float
    calls: list
    ok: list
    spans: list | None = None


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def _cli_args(args, workload):
    return [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace)]


def child_setup(args):
    """Set-up time of a fresh interpreter for the same workload and seed,
    and the probe loop time around it."""
    proc = subprocess.run(_cli_args(args, args.workload) + ["--setup-only"],
                          capture_output=True, text=True, timeout=150, check=True)
    seconds, loop = proc.stdout.split()[-2:]
    return float(seconds), float(loop)


def measure(workload, seconds, recorder=None, between=()):
    """Timed passes for about ``seconds`` (at least two, so pass times have a
    spread), each graded after its clock stops.  A pass is not started when
    one more of the longest pass so far would overrun ``seconds``.  The
    ``between`` callables run between passes, spread evenly over the run,
    so that what they time meets the host in more than one state."""
    passes = []
    between = list(between)
    due = [seconds * (i + 1) / (len(between) + 1) for i in range(len(between))]
    start = time.perf_counter()
    while len(passes) < 2 or (time.perf_counter() - start
                              + max(p.wall for p in passes) <= seconds):
        while between and time.perf_counter() - start >= due[0]:
            between.pop(0)()
            due.pop(0)
        if recorder is not None:
            recorder.active = True
        t0 = time.perf_counter()
        calls = workload.run_pass()
        wall = time.perf_counter() - t0
        if recorder is not None:
            recorder.active = False
        passes.append(Pass(wall, calls, workload.check(calls),
                           recorder.take() if recorder is not None else None))
    for run in between:
        run()
    return passes


def run_probes():
    """Budget overshoot on J5 {3}-resolving and the process-pool speed-up on
    J7 {2}-resolving; neither feeds a gate."""
    from resolving import checks, search, snark

    def timed_search(n, order, **config):
        g = snark.snark_context(n)[0]
        t0 = time.perf_counter()
        search.metric_dimension(g, search.SearchConfig(
            mode=checks.Mode.resolving(order), **config))
        return time.perf_counter() - t0

    budget = 0.2
    overshoot = timed_search(5, 3, budget_s=budget) - budget
    w1, w2 = (timed_search(7, 2, workers=w) for w in (1, 2))
    return {"search.budget_overshoot_s": overshoot, "search.pool_speedup": w1 / w2,
            "search.pool_w1_s": w1, "search.pool_w2_s": w2}


def unit_of(name):
    for suffix, unit in (("_per_s", "1/s"), ("_ms", "ms"), ("_mb", "MB"),
                         ("_bytes", "bytes"), ("_share", "ratio"), ("_speedup", "ratio")):
        if name.endswith(suffix):
            return unit
    return "s" if name.endswith(("_s", ".s")) else "count"


def provenance():
    import numpy

    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                    capture_output=True, text=True, timeout=30,
                                    ).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    return {"cores": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "commit": commit,
            "machine": platform.machine()}


def calm_seconds(passes, probe):
    """Each call's time at the host's calm speed, per pass.

    A call's slowdown is the median loop time of the probe ticks within
    ``CALM_WINDOW_S`` of it over ``HostProbe.CALM_S``; its calm time is its
    time divided by that."""
    stamps = [t for t, _ in probe.samples]
    loops = [r for _, r in probe.samples]
    rows = []
    for p in passes:
        row = []
        for c in p.calls:
            near = loops[bisect.bisect_left(stamps, c.start - CALM_WINDOW_S):
                         bisect.bisect_right(stamps, c.end + CALM_WINDOW_S)]
            row.append(c.seconds * HostProbe.CALM_S / statistics.median(near))
        rows.append(row)
    return rows


def end_to_end(workload, passes, setup):
    """The end-to-end metrics, and what the record adds to them."""
    # The shared host slows down, by up to 1.6x, in spells from a fraction
    # of a second to minutes.  A run's median or minimum of raw times moves
    # with the spells it met; each call's median calm time over the passes
    # does not.
    calm = calm_seconds(passes, workload.probe)
    typical = [statistics.median(times) for times in zip(*calm)]
    # a request is one command on cli; on search and verify the client's unit
    # of work is a whole pass, whose instances differ too much in size for
    # percentiles over them to mean anything
    latencies = typical if workload.requests_are_calls else [sum(row) for row in calm]
    metrics = {
        "wall_s": sum(typical),
        "slowest_s": max(typical),
        "call_p50_ms": statistics.median(latencies) * 1000.0,
        "call_p90_ms": statistics.quantiles(latencies, n=10, method="inclusive")[-1] * 1000.0,
        "setup_s": statistics.median(s * HostProbe.CALM_S / loop for s, loop in setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    raw = sum(statistics.median(t) for t in zip(*([c.seconds for c in p.calls] for p in passes)))
    loops = [r for _, r in workload.probe.samples]
    extra = {
        "raw_wall_s": raw,
        "loop_min_s": min(loops),
        "loop_median_s": statistics.median(loops),
        "call_calm_seconds": calm,
    }
    return metrics, extra


def per_layer(workload, untraced, traced, setup_spans, untraced_probe):
    import spans
    from workloads import CliWorkload

    rows = []
    for p in traced:
        cli_bytes = (sum(len(c.output[1].encode()) for c in p.calls)
                     if isinstance(workload, CliWorkload) else 0)
        rows.append(spans.layer_metrics(p.spans, cli_bytes))
    metrics = {k: statistics.median(r[k] for r in rows) for k in rows[0]}
    in_setup = spans.layer_metrics(setup_spans, 0)
    metrics |= {f"setup.{k}": in_setup[k] for k in (
        "graphs.build_s", "graphs.apsp_s", "graphs.apsp_calls", "io.s", "snark.context_s")}
    metrics["checks.peak_alloc_mb"] = spans.peak_alloc_mb(traced[-1].spans)
    # the two halves' median pass times at calm speed, each from its own probe
    calm_pass = [statistics.median(sum(row) for row in calm_seconds(passes, probe))
                 for passes, probe in ((traced, workload.probe), (untraced, untraced_probe))]
    metrics["trace.overhead_s"] = calm_pass[0] - calm_pass[1]
    return metrics


def _call_medians(passes):
    """Median latency of each call label across passes."""
    by_label = {}
    for p in passes:
        for c in p.calls:
            by_label.setdefault(c.label, []).append(c.seconds)
    return {label: statistics.median(v) for label, v in by_label.items()}


def run_one(args):
    sys.path.insert(0, str(ROOT / "src"))
    # set-up is timed between probe ticks, to be taken at calm speed too;
    # three on each side, because the first tick after importing numpy runs
    # on cold caches
    probe = HostProbe()
    try:
        import jsonschema  # noqa: F401  the answer gate's, not part of set-up

        for _ in range(3):
            probe.tick()
        t0 = time.perf_counter()
        import workloads
    except ImportError as exc:
        print(f"error: cannot import the benchmark's dependencies "
              f"(the resolving package under {ROOT / 'src'}): {exc}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload](args.seed)
    seconds = time.perf_counter() - t0
    for _ in range(3):
        probe.tick()
    setup = [(seconds, statistics.median(r for _, r in probe.samples))]
    if args.setup_only:
        print(*setup[0])
        return 0
    OUT.mkdir(parents=True, exist_ok=True)

    extra = {}
    if args.trace:
        import spans

        probes = run_probes()
        untraced = measure(workload, args.seconds / 2)
        untraced_probe = workload.probe
        recorder = spans.Recorder()
        recorder.install()
        # a second set-up, traced and from a cold snark cache, shows each
        # layer's share of setup_s; the traced passes run on its inputs
        workloads.snark.snark_context.cache_clear()
        recorder.active = True
        workload = workloads.WORKLOADS[args.workload](args.seed)
        recorder.active = False
        setup_spans = recorder.take()
        traced = measure(workload, args.seconds / 2, recorder)
        passes = untraced + traced
        metrics = per_layer(workload, untraced, traced, setup_spans, untraced_probe) | probes
        spans.Recorder.dump([setup_spans] + [p.spans for p in traced],
                            OUT / f"spans-{args.workload}-seed{args.seed}.json")
    else:
        passes = measure(workload, args.seconds, between=[
            lambda: setup.append(child_setup(args))] * (SETUP_SAMPLES - 1))
        metrics, extra = end_to_end(workload, passes, setup)

    attempted = sum(len(p.ok) for p in passes)
    failed = sum(not ok for p in passes for ok in p.ok)
    calls = sum(len(p.calls) for p in passes)
    requests = calls if workload.requests_are_calls else len(passes)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()},
    }
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "provenance": provenance(),
        "passes": len(passes), "calls": calls, "latency_samples": requests,
        "pass_walls_s": [p.wall for p in passes], "setup_samples": setup,
        "call_seconds": [[c.seconds for c in p.calls] for p in passes],
        "call_median_s": _call_medians(passes),
        "fail_rate": failed / attempted,
        "wrong": sorted({c.label for p in passes for c, ok in zip(p.calls, p.ok) if not ok}),
        **extra,
        **result,
    }
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1))

    print(f"provenance: {json.dumps(record['provenance'], sort_keys=True)}")
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: "
          f"{len(passes)} passes, {calls} calls, {requests} latency samples")
    for name, entry in result["metrics"].items():
        print(f"  {name:28s} {entry['value']:14.6f} {entry['unit']}")
    print(f"  {'fail_rate':28s} {record['fail_rate']:14.6f} ratio "
          f"({failed} of {attempted} answers wrong or missing)")
    if extra:
        print(f"  host: probe loop {extra['loop_min_s'] * 1e3:.4f} ms min, "
              f"{extra['loop_median_s'] * 1e3:.4f} ms median "
              f"({HostProbe.CALM_S * 1e3:.4f} ms calm); wall_s as timed "
              f"(sum of per-call median raw times) {extra['raw_wall_s']:.6f} s")
    for label, seconds in record["call_median_s"].items():
        print(f"  call {label:40s} {seconds:10.6f} s median")
    for label in record["wrong"]:
        print(f"  wrong: {label}")
    print(json.dumps(result))
    return 0


def run_all(args):
    """Each workload in its own process; the last line merges their results
    under ``<workload>.<metric>``."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        proc = subprocess.run(_cli_args(args, workload), capture_output=True,
                              text=True, timeout=900)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            return proc.returncode
        result = json.loads(proc.stdout.splitlines()[-1])
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        merged["metrics"] |= {f"{workload}.{k}": v for k, v in result["metrics"].items()}
    print(json.dumps(merged))
    return 0


def main(argv=None):
    args = parse_args(argv)
    os.chdir(ROOT)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
