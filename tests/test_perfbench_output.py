"""The benchmark's output contract: a short run of each workload, traced or
not, exits 0, writes nothing to standard error, and ends its standard output
with one strict-JSON result line that is correct and whose every metric is
a finite number. An untraced run carries every end-to-end metric named in
BENCHMARK.json, and a traced run every per-layer metric, with no line naming
a metric as absent: a renamed or deleted function that the tracer patches,
or a piece of broker state it gauges, would otherwise drop its metric
without failing the run.

Anything the program prints, logs or warns at exit lands after that line
and breaks the contract, with the two streams apart or merged.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [workload["name"] for workload in BENCHMARK["workloads"]]
END_TO_END = [metric["name"] for metric in BENCHMARK["end_to_end"]]
PER_LAYER = [metric["name"] for metric in BENCHMARK["per_layer"]]


def _reject_constant(name: str):
    raise ValueError(f"non-finite constant {name} in the result line")


def _run(workload: str, merged: bool, trace: int) -> subprocess.CompletedProcess:
    command = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
               "--seed", "1", "--seconds", "0.1", "--trace", str(trace)]
    return subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.STDOUT if merged else subprocess.PIPE,
                          text=True, timeout=300)


def _check_result_is_last_line(workload: str, merged: bool, trace: int) -> None:
    done = _run(workload, merged, trace)
    assert done.returncode == 0, done.stdout + (done.stderr or "")
    if not merged:
        assert done.stderr == ""
    lines = done.stdout.splitlines()
    assert lines, "no output"
    result = json.loads(lines[-1], parse_constant=_reject_constant)
    assert result["correct"] is True
    metrics = result["metrics"]
    expected = PER_LAYER if trace else END_TO_END
    assert [name for name in expected if name not in metrics] == []
    assert [line for line in lines if line.startswith("absent per-layer metrics")] == []
    for name, metric in metrics.items():
        value = metric["value"]
        assert isinstance(value, (int, float)) and math.isfinite(value), (name, value)


@pytest.mark.parametrize("merged", [False, True], ids=["split", "merged"])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_result_is_last_line(workload, merged):
    _check_result_is_last_line(workload, merged, trace=0)


@pytest.mark.parametrize("merged", [False, True], ids=["split", "merged"])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_result_is_last_line(workload, merged):
    _check_result_is_last_line(workload, merged, trace=1)


def test_relay_inproc_refuses_the_replayed_delivery():
    # Each relay-inproc round ends by replaying a captured assertion under a
    # fresh correlation; the run counts it as failed when the broker relays it.
    done = _run("relay-inproc", merged=False, trace=0)
    assert done.returncode == 0, done.stdout + done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["attempted"] > 0
    assert result["failed"] == 0
