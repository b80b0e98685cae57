#!/usr/bin/env python3
"""Benchmark of the fedbridge broker, end to end and layer by layer.

    python3 perfbench/run.py --workload relay-inproc --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --seed 1      # every workload, each in its own interpreter

One run sets the workload up several times (``setup_s`` is the median),
then drives a fixed count of operations sized from ``--seconds``. With
``--trace 0`` it prints the end-to-end metrics; with ``--trace 1`` it runs
the same count untraced and then traced on a fresh set-up, and prints the
per-layer metrics and the tracing overhead. The last line of standard
output is one JSON object: correct, attempted, failed, metrics.

fedbridge is imported from ``src/`` next to this directory; it is not
installed. Results, traces and broker logs go to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
WORKLOADS = ("relay-inproc", "signon-http", "sso-backlog")
SETUP_REPEATS = 3


def _workload(name: str, seed: int):
    if name == "signon-http":
        from signon_http import SignonHttp
        return SignonHttp(seed, SRC)
    from inproc import RelayInproc, SsoBacklog
    return {"relay-inproc": RelayInproc, "sso-backlog": SsoBacklog}[name](seed)


def _set_up(workload, directory: Path, repeats: int):
    """Set the workload up ``repeats`` times; keep the last, time each."""
    seconds, bench = [], None
    for rep in range(repeats):
        if bench is not None:
            workload.teardown(bench)
            bench = None
        gc.collect()
        start = time.perf_counter()
        bench = workload.setup(directory / f"setup-{rep}")
        seconds.append(time.perf_counter() - start)
    return bench, seconds


def run_workload(name: str, seed: int, seconds: float, trace: bool, directory: Path) -> dict:
    from report import end_to_end, per_layer
    from tracer import BROKER_TARGETS, MOCK_TARGETS, SpanTable, Tracer

    workload = _workload(name, seed)
    rounds = max(1, round(seconds * workload.rounds_per_second))
    if not trace:
        bench, setup_s = _set_up(workload, directory / "untraced", SETUP_REPEATS)
        try:
            timed, attempted, failed = workload.run(bench, rounds)
            (directory / "samples.json").write_text(json.dumps(
                {"signon_s": timed.signon_s, "broker_s": timed.broker_s, "cpu_s": timed.cpu_s}))
            return {"attempted": attempted, "failed": failed,
                    "metrics": end_to_end(timed, setup_s, workload.max_rss_mb(bench))}
        finally:
            workload.teardown(bench)

    tracer = Tracer()
    tracer.patch(MOCK_TARGETS)
    untraced_s = []
    if workload.broker_in_process:
        # Traced and untraced rounds alternate on one set-up.
        tracer.patch(BROKER_TARGETS)
    else:
        # The broker process is traced for its whole life: an untraced run
        # first, then a traced one on a fresh set-up.
        bench, _ = _set_up(workload, directory / "untraced", 1)
        try:
            untraced_s = workload.run(bench, rounds)[0].signon_s
        finally:
            workload.teardown(bench)
        workload.traced = True
    bench, _ = _set_up(workload, directory / "traced", 1)
    try:
        bench.tracer = tracer
        timed, attempted, failed = workload.run(bench, rounds, wire=True,
                                                alternate=workload.broker_in_process)
        broker_spans, gone_spans, state = workload.broker_trace(bench, tracer)
    finally:
        workload.teardown(bench)
    untraced_s = untraced_s or timed.untraced_s
    tracer.unpatch()
    tracer.write(directory / "spans.jsonl")
    overhead = (statistics.median(timed.signon_s) / statistics.median(untraced_s) - 1) * 100
    metrics, absent = per_layer(
        SpanTable(broker_spans), SpanTable(tracer.spans), signons=len(timed.signon_s),
        timed=timed, absent_spans=gone_spans | tracer.absent, state=state,
        hops=workload.hops(bench), overhead_pct=overhead,
    )
    if absent:
        print("absent per-layer metrics (their functions are gone): " + ", ".join(sorted(absent)))
    return {"attempted": attempted, "failed": failed, "metrics": metrics}


def _one(args) -> int:
    if not (SRC / "fedbridge" / "__init__.py").is_file():
        print(f"no fedbridge sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from checks import CheckFailed

    # One CPU for this process and the broker process it starts: with the
    # client, the mocks and the broker spread over two vCPUs, cross-vCPU
    # wake-ups in a VM made signon-http's p95 swing fourfold between runs.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    directory = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    directory.mkdir(parents=True, exist_ok=True)
    try:
        result = {"correct": True, **run_workload(args.workload, args.seed, args.seconds,
                                                  bool(args.trace), directory)}
    except CheckFailed as exc:
        print(f"{args.workload}: output check failed: {exc}", file=sys.stderr)
        result = {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
    metrics = result["metrics"]
    result["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in sorted(metrics.items())}
    (directory / "result.json").write_text(json.dumps(result, indent=1) + "\n")
    print(f"{args.workload} seed {args.seed}: attempted {result['attempted']}, "
          f"failed {result['failed']}, correct {result['correct']}")
    for key, (value, unit) in sorted(metrics.items()):
        print(f"  {key:<44} {value:>12.4f} {unit}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def _all(args) -> int:
    """Every workload, each in its own interpreter."""
    status = 0
    summary = {}
    for name in WORKLOADS:
        command = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace)]
        done = subprocess.run(command, capture_output=True, text=True, timeout=600)
        sys.stderr.write(done.stderr)
        lines = done.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if done.returncode != 0 or not lines:
            status = 1
            continue
        summary[name] = json.loads(lines[-1])
    print(json.dumps(summary))
    return status


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS,
                        help="one workload; all of them, each in its own interpreter, if absent")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    return _one(args) if args.workload else _all(args)


if __name__ == "__main__":
    sys.exit(main())
