"""Smoke coverage for the ``benchmarks/`` suite and the host-perf sweep.

Four contracts:

* every ``bench_*.py`` script must at least import (a bench that dies on
  import silently drops a paper figure from CI);
* the ledger's span table must import with every target pristine (a
  wrapped method moved into a base class breaks the ledger's import);
* :func:`repro.bench.regression.run_suite` times every matcher and
  matches the whole workload;
* ``bench_host_perf.py --trace-out`` must emit a Chrome/Perfetto
  schema-valid ``trace.json`` (the observability acceptance criterion),
  exercised through the real CLI entry point.
"""

from __future__ import annotations

import importlib.util
import json
import sys
from pathlib import Path

import pytest

from repro.bench.regression import run_suite

from ..obs.test_tracer_metrics import assert_perfetto_schema

BENCH_DIR = Path(__file__).resolve().parents[2] / "benchmarks"
BENCH_SCRIPTS = sorted(BENCH_DIR.glob("bench_*.py"))


def _load(path: Path):
    name = f"bench_smoke_{path.stem}"
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        sys.modules.pop(name, None)
    return module


def test_bench_directory_is_complete():
    """The glob below must actually see the suite (guards a layout move
    silently turning every import test into a no-op)."""
    assert len(BENCH_SCRIPTS) >= 14


@pytest.mark.parametrize("path", BENCH_SCRIPTS, ids=lambda p: p.stem)
def test_bench_script_imports(path):
    _load(path)  # import errors (stale APIs, renamed modules) fail here
    assert 'if __name__ == "__main__":' in path.read_text(), \
        f"{path.stem} is not runnable as a script"


def test_ledger_span_targets_are_pristine():
    """The ledger wraps only methods its targets define themselves (its
    import raises on an inherited one), so moving a wrapped method into
    a base class fails here and not only in the ledger run."""
    spans = _load(BENCH_DIR / "ledger" / "spans.py")
    assert spans.pristine()


# -- the host-perf sweep ------------------------------------------------------


def test_run_suite_smoke():
    records = run_suite(sizes=(200,), repeats=1)
    assert {r.matcher for r in records} == {"matrix", "partitioned", "hash"}
    assert all(r.matched == 200 for r in records)


# -- --trace-out: the Perfetto acceptance criterion ---------------------------


def test_host_perf_trace_out_is_perfetto_valid(tmp_path, capsys):
    module = _load(BENCH_DIR / "bench_host_perf.py")
    trace_path = tmp_path / "trace.json"
    module.main(["--sizes", "400",
                 "--trace-out", str(trace_path)])
    out = capsys.readouterr().out
    assert "wrote Perfetto trace" in out

    with open(trace_path) as f:
        doc = json.load(f)
    assert_perfetto_schema(doc)
    assert doc["displayTimeUnit"] == "ms"
    # the sweep's spans and the device metadata actually landed
    names = {ev["name"] for ev in doc["traceEvents"]}
    assert {"matrix.match", "partitioned.match", "hash.match"} <= names
    assert doc["otherData"]["device"] == "GeForce GTX 1080"
    # every matcher's phase lanes are present too
    assert any(n.startswith("matrix.match.") for n in names)
