"""Tests for the performance ledger.

Run with ``python -m pytest benchmarks/ledger``.  The module-scoped smoke
run (one repeat of one lap or round per workload, at seed 1) takes about
half a minute; ``cluster-mix`` pays its worker's shutdown.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import ledger
import runner
import spans
from workloads import WORKLOADS

LEDGER = Path(ledger.__file__).resolve()


def _run(*args: str, cwd: Path = ledger.ROOT, timeout: float = 600.0):
    return subprocess.run([sys.executable, str(LEDGER), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=timeout)


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    out = tmp_path_factory.mktemp("ledger")
    proc = _run("--smoke", "--seed", "1", "--trace", "1",
                "--out", str(out / "run.json"),
                "--trace-out", str(out / "trace.json"))
    assert proc.returncode == 0, proc.stderr[-4000:]
    return (proc, json.loads((out / "run.json").read_text()),
            json.loads((out / "trace.json").read_text()))


def test_smoke_run_passes_its_schema_check(smoke):
    proc, doc, trace = smoke
    spec = ledger.load_spec()
    assert "ledger schema: ok" in proc.stdout
    assert ledger.check_schema(doc, spec) == []
    assert ledger.check_trace(trace) == []
    assert set(doc["workloads"]) == set(WORKLOADS)
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert {k.split(".", 1)[1] for k in line["metrics"]} == set(
        spec["per_layer"])


def test_seed_1_runs_clean(smoke):
    _, doc, _ = smoke
    for name, rec in doc["workloads"].items():
        assert rec["correct"], (name, rec["errors"])
        assert rec["error_rate"] == 0.0, (name, rec["errors"])
        # the traced repeat matched exactly what the untraced one did
        assert len(set(rec["matched_per_repeat"])) == 1, name


def test_layer_self_times_add_up_to_the_traced_wall(smoke):
    _, doc, _ = smoke
    for name, rec in doc["workloads"].items():
        detail = rec["layer_detail"]
        wall = detail["serve_wall_clock_s"]
        self_s = detail["serve_s"]
        unattributed = self_s["unattributed"]
        layers = sum(v for k, v in self_s.items() if k != "unattributed")
        assert layers + unattributed == pytest.approx(wall, rel=0.01), name
        assert unattributed <= 0.10 * wall, (name, unattributed, wall)


def test_untraced_repeats_run_pristine_methods():
    targets = spans.SETUP_TARGETS + spans.SERVE_TARGETS
    before = {(o, a): vars(o)[a] for o, a, _ in targets}
    wl = WORKLOADS["fabric-coll"]
    tracer = spans.SpanTracer()
    rep = runner.run_repeat(wl, 0, 1, tracer)
    assert not rep.errors.get("raised")
    layers = tracer.calls("serve")
    for layer in ("service", "match", "fabric", "bridge", "mpi",
                  "profiler"):
        assert layers.get(layer, 0) > 0, layer
    assert {(o, a): vars(o)[a] for o, a, _ in targets} == before
    assert spans.pristine()
    n_spans = len(tracer.spans)
    runner.run_repeat(wl, 0, 1)
    assert len(tracer.spans) == n_spans


def test_result_line_carries_the_end_to_end_metrics():
    # the default is --trace 0
    proc = _run("--smoke", "--workload", "fabric-coll", "--seed", "2")
    assert proc.returncode == 0, proc.stderr[-4000:]
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    assert line["correct"] and line["failed"] == 0 and line["attempted"] > 0
    end_to_end = ledger.load_spec()["end_to_end"]
    assert set(line["metrics"]) == set(end_to_end)
    for name, (unit, _, _) in end_to_end.items():
        assert line["metrics"][name]["unit"] == unit
        assert line["metrics"][name]["value"] > 0


def test_without_the_program_source_it_fails_without_a_result(tmp_path):
    # the benchmark's own files and nothing of the program
    copy = tmp_path / "benchmarks" / "ledger"
    shutil.copytree(LEDGER.parent, copy,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ledger.SPEC_PATH, tmp_path / "BENCHMARK.json")
    proc = subprocess.run([sys.executable, str(copy / "ledger.py"),
                           "--workload", "fabric-coll"], cwd=tmp_path,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
