"""The performance ledger: end-to-end and per-layer numbers for the serve stack.

One command measures the current code from outside, on four workloads::

    python benchmarks/ledger/ledger.py [--seed N] [--workload NAME]
        [--seconds S] [--trace 0|1] [--smoke] [--out run.json]
        [--trace-out trace.json]

Each workload runs in a fresh subprocess (``runner.py``).  A run is
``REPEATS`` untraced repeats, which give the end-to-end metrics, plus,
with ``--trace 1``, one traced repeat whose wrappers split the set-up
and serve walls into per-layer self times (``spans.py``).  Every repeat
checks the program's outputs; any failure exits nonzero.  ``--seconds``
is the serve time of all untraced repeats together on the reference
host: it fixes the laps (rounds) per repeat, so the same arguments
always do the same work.

``BENCHMARK.json`` at the repository root declares the workloads, the
metrics, their units and their bounds; this script reads it and nothing
else holds those decisions.  The last line of standard output is one
JSON object: ``correct``, ``attempted`` (requests submitted), ``failed``
(shed + lost + matched-twice + wrong results + calls that raised) and
``metrics`` -- the end-to-end metrics with ``--trace 0`` (the default),
the per-layer metrics with ``--trace 1``.  See ``README.md`` for what
each metric means and how to compare two commits.
"""

from __future__ import annotations

import argparse
import json
import math
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
SPEC_PATH = ROOT / "BENCHMARK.json"

#: Untraced repeats per run (the traced repeat comes on top).
REPEATS = 5
#: A run's subprocess must finish well inside a 180 s budget.
CHILD_TIMEOUT_S = 175.0


def load_spec(path: Path = SPEC_PATH) -> dict:
    """``BENCHMARK.json`` as the ledger uses it: workload reasons,
    end-to-end metrics as ``name -> (unit, better, bound)`` and
    per-layer metrics as ``name -> unit``."""
    doc = json.loads(path.read_text())
    return {
        "seconds": float(doc["run_seconds"]),
        "why": {w["name"]: w["why"] for w in doc["workloads"]},
        "end_to_end": {m["name"]: (m["unit"], m["better"], m["bound"])
                       for m in doc["end_to_end"]},
        "per_layer": {m["name"]: m["unit"] for m in doc["per_layer"]},
    }


def _fail(msg: str) -> int:
    print(f"ledger: {msg}", file=sys.stderr)
    return 2


def run_child(args, workload: str) -> dict | None:
    cmd = [sys.executable, str(HERE / "runner.py"),
           "--workload", workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    if args.smoke:
        cmd.append("--smoke")
    if args.trace_out:
        cmd += ["--events", _events_part(args, workload)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=CHILD_TIMEOUT_S, cwd=ROOT)
    except subprocess.TimeoutExpired:
        print(f"ledger: {workload} exceeded {CHILD_TIMEOUT_S:.0f} s",
              file=sys.stderr)
        return None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"ledger: {workload} exited with code {proc.returncode}",
              file=sys.stderr)
        return None
    return json.loads(lines[-1])


def _fmt(value: float) -> str:
    if isinstance(value, int):
        return f"{value:,}"
    if value == 0 or 1e-3 <= abs(value) < 1e7:
        return f"{value:,.4g}" if abs(value) < 1000 else f"{value:,.1f}"
    return f"{value:.4g}"


def print_record(rec: dict, spec: dict) -> None:
    flags = " [noisy host]" if rec["noisy"] else ""
    print(f"\n{rec['workload']}  seed {rec['seed']}  "
          f"{rec['units']} laps/rounds x {rec['repeats']} repeats{flags}")
    print(f"  why: {rec['why']}")
    units = {**spec["per_layer"], **{k: unit for k, (unit, *_rest)
                                     in spec["end_to_end"].items()}}
    for name, value in rec["metrics"].items():
        gate = (f"bound {spec['end_to_end'][name][2]:.0%}"
                if name in spec["end_to_end"] else "per-layer")
        spread = rec["spread"].get(name)
        extra = f"repeats IQR {spread['iqr_frac']:.1%}" if spread else ""
        print(f"  {name:<14} {_fmt(value):>12} {units[name]:<9} "
              f"{gate:<10} {extra}")
    print(f"  error_rate     {_fmt(rec['error_rate']):>12} fraction  "
          f"{'':<10} {rec['failed']} of {rec['submitted']} requests")
    if "layers" not in rec:
        return
    layers = rec["layers"]
    detail = rec["layer_detail"]
    print(f"  traced repeat: serve wall {layers['trace.serve_wall_s']:.3f} s"
          f" (overhead {layers['trace.overhead_frac']:+.1%}), set-up "
          f"{layers['trace.setup_wall_s']:.3f} s")
    for phase in ("setup_s", "serve_s"):
        wall = sum(detail[phase].values()) or 1.0
        for layer, sec in sorted(detail[phase].items(),
                                 key=lambda kv: -kv[1]):
            print(f"    {phase[:-2]:<6} {layer:<18} {sec:9.4f} s "
                  f"{sec / wall:6.1%}")
    print(f"    modelled (never gates): vt latency p50 "
          f"{detail['model.latency_p50_vt_us']:.1f} us, p99 "
          f"{detail['model.latency_p99_vt_us']:.1f} us")


def check_schema(doc: dict, spec: dict) -> list[str]:
    """Problems with a ledger document (empty when it is well formed)."""
    problems = []
    for key in ("host", "args", "workloads"):
        if key not in doc:
            problems.append(f"missing {key!r}")
    for name, rec in doc.get("workloads", {}).items():
        for metric in spec["end_to_end"]:
            value = rec.get("metrics", {}).get(metric)
            if not isinstance(value, (int, float)) or not math.isfinite(
                    value):
                problems.append(f"{name}: metric {metric} is {value!r}")
        if not isinstance(rec.get("error_rate"), (int, float)):
            problems.append(f"{name}: no error_rate")
        for key in ("cores", "python", "numpy", "platform", "start_method"):
            if key not in rec.get("host", {}):
                problems.append(f"{name}: host lacks {key!r}")
        if not isinstance(rec.get("correct"), bool):
            problems.append(f"{name}: 'correct' is not a bool")
        if doc.get("args", {}).get("trace"):
            measured = {**rec.get("metrics", {}), **rec.get("layers", {})}
            for metric in spec["per_layer"]:
                if not isinstance(measured.get(metric), (int, float)):
                    problems.append(f"{name}: layer {metric} is "
                                    f"{measured.get(metric)!r}")
    return problems


def check_trace(doc: dict) -> list[str]:
    """Structural problems with a Chrome/Perfetto trace document."""
    problems = []
    events = doc.get("traceEvents")
    if not isinstance(events, list) or not events:
        return ["traceEvents is empty or missing"]
    for ev in events:
        if ev.get("ph") not in ("X", "M") or not isinstance(
                ev.get("name"), str):
            problems.append(f"bad event {ev!r}")
        elif ev["ph"] == "X" and not (ev["ts"] >= 0 and ev["dur"] >= 0):
            problems.append(f"negative time in {ev!r}")
        if len(problems) > 5:
            break
    return problems


def result_line(records: list[dict], trace: bool, spec: dict) -> dict:
    """The one-line JSON summary (the last line of standard output)."""
    if trace:
        units = spec["per_layer"]
    else:
        units = {k: unit for k, (unit, *_rest) in spec["end_to_end"].items()}
    metrics = {}
    for rec in records:
        prefix = "" if len(records) == 1 else f"{rec['workload']}."
        measured = {**rec["metrics"], **rec.get("layers", {})}
        for k, unit in units.items():
            metrics[prefix + k] = {"value": measured[k], "unit": unit}
    return {"correct": all(r["correct"] for r in records),
            "attempted": sum(r["submitted"] for r in records),
            "failed": sum(r["failed"] for r in records),
            "metrics": metrics}


def parse_args(argv, spec: dict):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--workload", choices=list(spec["why"]))
    ap.add_argument("--seconds", type=float, default=spec["seconds"],
                    help="serve seconds of all untraced repeats together")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0,
                    help="1 adds the traced repeat and reports the "
                         "per-layer metrics")
    ap.add_argument("--smoke", action="store_true",
                    help="1 repeat of 1 lap/round per workload, plus a "
                         "schema check of the output")
    ap.add_argument("--out", help="write the ledger record (JSON) here")
    ap.add_argument("--trace-out",
                    help="write the traced repeats' spans here "
                         "(Chrome/Perfetto JSON)")
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    if args.trace_out and not args.trace:
        ap.error("--trace-out needs --trace 1")
    return args


def _events_part(args, workload: str) -> str:
    """Where a child writes its spans for the parent to merge."""
    return str(Path(args.trace_out).resolve()) + f".{workload}.part"


def merge_events(args, names) -> dict:
    """One Chrome/Perfetto document from the children's span files,
    one process lane per workload."""
    events = []
    for pid, name in enumerate(names):
        part = Path(_events_part(args, name))
        for ev in json.loads(part.read_text()):
            ev["pid"] = pid
            events.append(ev)
        part.unlink()
        events.append({"name": "process_name", "ph": "M", "pid": pid,
                       "tid": 0, "ts": 0, "args": {"name": name}})
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def main(argv: list[str] | None = None) -> int:
    if not (SRC / "repro" / "__init__.py").is_file():
        return _fail(f"no program source at {SRC}")
    spec = load_spec()
    args = parse_args(argv, spec)
    names = [args.workload] if args.workload else list(spec["why"])
    records = []
    for name in names:
        rec = run_child(args, name)
        if rec is None:
            return 1
        rec["why"] = spec["why"][name]
        records.append(rec)
        print_record(rec, spec)
    doc = {"schema": "ledger/1", "host": records[0]["host"],
           "args": {"seed": args.seed, "seconds": args.seconds,
                    "trace": args.trace, "smoke": args.smoke,
                    "repeats": records[0]["repeats"]},
           "workloads": {r["workload"]: r for r in records}}
    trace_doc = merge_events(args, names) if args.trace_out else None
    for path, content in ((args.out, doc), (args.trace_out, trace_doc)):
        if path:
            Path(path).parent.mkdir(parents=True, exist_ok=True)
            Path(path).write_text(json.dumps(content) + "\n")
    problems = []
    if args.smoke:
        problems = check_schema(doc, spec)
        if trace_doc is not None:
            problems += check_trace(trace_doc)
        for p in problems:
            print(f"ledger schema: {p}", file=sys.stderr)
        print("\nledger schema: " + ("ok" if not problems else "FAILED"))
    line = result_line(records, bool(args.trace), spec)
    print(json.dumps(line))
    return 0 if line["correct"] and not problems else 1


if __name__ == "__main__":
    sys.exit(main())
