"""One workload in one process: the repeats, their checks, their numbers.

``ledger.py`` starts this script once per workload, so every workload
runs in a fresh interpreter whose peak resident size is its own.  It
prints one JSON record (see ``ledger.py`` for the fields) as its last
line of standard output::

    python benchmarks/ledger/runner.py --workload serve-mix --seed 0 \\
        --seconds 5 --trace 1 [--smoke] [--events spans.json]
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import multiprocessing as mp
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from contextlib import contextmanager, nullcontext
from pathlib import Path

import ledger

if str(ledger.SRC) not in sys.path:
    sys.path.insert(0, str(ledger.SRC))

import numpy as np  # noqa: E402

from spans import SERVE_TARGETS, SETUP_TARGETS, SpanTracer, pristine  # noqa: E402
from workloads import WORKLOADS, Repeat, workload_units  # noqa: E402

#: Serve-phase layers -> their per-layer share metric.
SERVE_LAYERS = {
    "service": "service.self_share", "scheduler": "scheduler.self_share",
    "shard": "shard.self_share", "admission": "admission.self_share",
    "batching": "batching.self_share", "match": "match.self_share",
    "profiler": "profiler.self_share",
    "autotuner": "autotuner.self_share", "session": "session.self_share",
    "fabric": "fabric.self_share", "bridge": "bridge.self_share",
    "mpi": "mpi.self_share",
    "cluster.router": "cluster.router_self_share",
    "cluster.sync_wait": "cluster.sync_wait_share",
    "wire.encode": "wire.encode_share", "wire.decode": "wire.decode_share",
}
#: Set-up-phase layers -> their per-layer share metric.
SETUP_LAYERS = {
    "traces": "traces.generate_share", "loadgen": "loadgen.self_share",
    "service.build": "service.build_share",
    "cluster.start": "cluster.start_share",
}


def calibrate() -> float:
    """Seconds for a fixed pure-Python plus NumPy loop, the fastest of
    three (a host speed probe; the first pass also warms the loop)."""
    keys = np.random.default_rng(0).integers(0, 1 << 30, 500_000)
    best = math.inf
    for _ in range(3):
        t0 = time.perf_counter()
        acc = 0
        for i in range(400_000):
            acc += i * i % 7
        np.sort(keys)
        best = min(best, time.perf_counter() - t0)
    return best


def host_fingerprint() -> dict:
    return {"cores": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "platform": platform.platform(),
            "machine": platform.machine(),
            "start_method": mp.get_start_method(allow_none=True) or "fork",
            "cluster_start_method": "fork"}


def peak_rss_mb() -> float:
    """``ru_maxrss`` of this process plus its reaped children, in MB."""
    kb = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
          + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kb / 1024.0


@contextmanager
def _phase(tracer, name: str):
    """Open a phase root span; its own self time is ``unattributed``."""
    if tracer is None:
        yield
        return
    tracer.phase = name
    with tracer.span(name, "unattributed"):
        yield


def run_repeat(wl, seed: int, units: int, tracer=None,
               final: bool = False) -> Repeat:
    """Set up, serve, check and tear down one repeat of a workload.

    The ``final`` untraced repeat reads the run's peak resident size
    after its checks, and runs the workload's untimed reference check
    after its teardown: the reference's memory must not count in the
    metric, and its time must not delay the timed teardown."""
    rep = Repeat()
    state: dict = {}
    kept: dict = {}
    clock = time.perf_counter
    try:
        t0 = clock()
        with _phase(tracer, "setup"):
            if tracer is not None:
                tracer.install(SETUP_TARGETS)
            try:
                state = wl.build(seed, units, tracer is not None)
            finally:
                if tracer is not None:
                    tracer.remove()
            with (tracer.span("start", "cluster.start") if tracer
                  else nullcontext()):
                wl.start(state)
        rep.setup_s = clock() - t0
        if tracer is not None:
            tracer.install(SERVE_TARGETS)
        try:
            t0 = clock()
            with _phase(tracer, "serve"):
                wl.serve(state, rep.calls)
            rep.serve_s = clock() - t0
        finally:
            if tracer is not None:
                tracer.remove()
        wl.check(state, rep)
        if final:
            rep.peak_rss_mb = peak_rss_mb()
            kept = dict(state)
        t0 = clock()
        with _phase(tracer, "teardown"):
            wl.teardown(state, rep)
        rep.teardown_s = clock() - t0
        if final:
            expected = wl.reference_report(kept)
            if expected is not None:
                rep.errors["report_mismatch"] = int(expected != rep.report)
    except Exception:
        traceback.print_exc(file=sys.stderr)
        rep.errors["raised"] = rep.errors.get("raised", 0) + 1
        if state:
            try:
                wl.teardown(state, rep)
            except Exception:
                traceback.print_exc(file=sys.stderr)
    return rep


def _quartiles(values: list[float]) -> dict:
    if len(values) < 2:
        return {"median": values[0], "q1": values[0], "q3": values[0],
                "iqr_frac": 0.0}
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "iqr_frac": (q3 - q1) / abs(med) if med else 0.0}


def end_to_end(reps: list[Repeat]) -> tuple[dict, dict]:
    """The metrics of the untraced repeats and the per-repeat series
    behind them, with their quartiles.

    Rates and phase times are medians of the repeats; call percentiles
    pool every call of every repeat.  ``BENCHMARK.json`` decides which
    of these gate (end-to-end) and which are diagnostics (per-layer).
    """
    pooled = np.concatenate([np.asarray(r.calls) for r in reps]) * 1e6
    series = {
        "matches_per_s": [r.matched / r.serve_s for r in reps],
        "serve_s": [r.serve_s for r in reps],
        "setup_s": [r.setup_s for r in reps],
        "teardown_s": [r.teardown_s for r in reps],
        "call_p50_us": [float(np.percentile(r.calls, 50)) * 1e6
                        for r in reps],
        "call_p99_us": [float(np.percentile(r.calls, 99)) * 1e6
                        for r in reps],
    }
    spread = {k: _quartiles(v) for k, v in series.items()}
    spread["series"] = series
    values = {
        "matches_per_s": spread["matches_per_s"]["median"],
        "call_p50_us": float(np.percentile(pooled, 50)),
        "call_p99_us": float(np.percentile(pooled, 99)),
        "setup_s": spread["setup_s"]["median"],
        "teardown_s": spread["teardown_s"]["median"],
        "peak_rss_mb": reps[-1].peak_rss_mb,
        "client.calls": int(pooled.size),
    }
    return values, spread


def per_layer(tracer: SpanTracer, rep: Repeat, untraced_serve_s: float,
              calib_s: float) -> tuple[dict, dict]:
    """Per-layer metrics of the traced repeat, plus the layer seconds
    and span counts they come from."""
    setup = tracer.self_seconds("setup")
    serve_self = tracer.self_seconds("serve")
    calls = tracer.calls("serve")
    setup_wall = sum(setup.values())
    serve_wall = sum(serve_self.values())
    c = rep.counts
    flushes = c.get("flushes", 0)
    envelopes = c.get("envelopes_flushed", 0)
    # a cluster's matching runs in its worker: use the worker's clock
    match_s = serve_self.get("match", 0.0) or c.get("worker_match_s", 0.0)
    wire_s = serve_self.get("wire.encode", 0.0) + serve_self.get(
        "wire.decode", 0.0)

    def share(x: float, whole: float) -> float:
        return x / whole if whole > 0 else 0.0

    out = {
        "trace.setup_wall_s": setup_wall,
        "trace.serve_wall_s": serve_wall,
        "trace.overhead_frac": share(rep.serve_s, untraced_serve_s) - 1.0,
        "unattributed_s": serve_self.get("unattributed", 0.0),
        "unattributed_share": share(serve_self.get("unattributed", 0.0),
                                    serve_wall),
        "host.calib_s": calib_s,
        "traces.events": tracer.counts.get("traces.events", 0),
        "loadgen.envelopes": c.get("loadgen_envelopes", 0),
        "admission.accept_ratio": share(c.get("accepted", 0),
                                        rep.submitted),
        "batching.flushes": flushes,
        "batching.envelopes_per_flush": share(envelopes, flushes),
        "match.calls": calls.get("match", 0) or flushes,
        "match.us_per_call": share(match_s * 1e6, flushes),
        "match.envelopes_per_call": share(envelopes, flushes),
        "match.matched_ratio": share(c.get("envelopes_matched", 0),
                                     envelopes),
        "autotuner.retunes": c.get("retunes", 0),
        "session.carried_envelopes": c.get("carried_envelopes", 0),
        "fabric.supersteps": c.get("supersteps", 0),
        "fabric.pair_batches": c.get("pair_batches", 0),
        "fabric.combine_ratio": c.get("combine_ratio", 0.0),
        "cluster.sigterm_exits": c.get("sigterm_exits", 0),
        "wire.frames": calls.get("wire.encode", 0)
        + calls.get("wire.decode", 0),
        "wire.MBps": share(tracer.counts.get("wire.bytes", 0) / 1e6, wire_s),
        "worker.busy_share": share(c.get("worker_busy_s", 0.0), serve_wall),
        "worker.match_share": share(c.get("worker_match_s", 0.0),
                                    serve_wall),
        "worker.result_share": share(c.get("worker_result_s", 0.0),
                                     serve_wall),
    }
    for layer, name in SETUP_LAYERS.items():
        out[name] = share(setup.get(layer, 0.0), setup_wall)
    for layer, name in SERVE_LAYERS.items():
        out[name] = share(serve_self.get(layer, 0.0), serve_wall)
    detail = {"setup_s": setup, "serve_s": serve_self,
              "teardown_s": tracer.self_seconds("teardown"),
              "serve_calls": calls,
              "serve_wall_clock_s": rep.serve_s,
              "model.latency_p50_vt_us": c.get("latency_p50_vt", 0.0) * 1e6,
              "model.latency_p99_vt_us": c.get("latency_p99_vt", 0.0) * 1e6}
    return out, detail


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 smoke: bool, events: str | None) -> dict:
    """Every repeat of one workload; returns its record."""
    wl = WORKLOADS[name]
    repeats = 1 if smoke else ledger.REPEATS
    units = 1 if smoke else workload_units(wl, seconds, ledger.REPEATS)
    calib_before = calibrate()
    reps = []
    for i in range(repeats):
        if not pristine():
            raise RuntimeError("a layer wrapper leaked into an untraced "
                               "repeat")
        # the previous repeat's garbage is collected here, not in the
        # next repeat's timed phases
        gc.collect()
        reps.append(run_repeat(wl, seed, units, final=i == repeats - 1))
        if reps[-1].errors.get("raised"):
            raise RuntimeError(f"{name}: a call raised (traceback above)")
    values, spread = end_to_end(reps)
    record = {"workload": name, "seed": seed, "units": units,
              "repeats": repeats, "host": host_fingerprint(),
              "metrics": values, "spread": spread}
    all_reps = list(reps)
    if trace:
        tracer = SpanTracer()
        gc.collect()
        origin = time.perf_counter()
        traced = run_repeat(wl, seed, units, tracer)
        if not pristine():
            raise RuntimeError("a layer wrapper survived the traced repeat")
        if traced.errors.get("raised"):
            raise RuntimeError(f"{name}: a traced call raised "
                               "(traceback above)")
        all_reps.append(traced)
        calib = statistics.median([calib_before, calibrate()])
        record["layers"], record["layer_detail"] = per_layer(
            tracer, traced, spread["serve_s"]["median"], calib)
        if events:
            Path(events).write_text(json.dumps(
                tracer.chrome_events(origin)))
    calib_after = calibrate()
    errors: dict[str, int] = {}
    for r in all_reps:
        for k, v in r.errors.items():
            errors[k] = errors.get(k, 0) + v
    if len({r.matched for r in all_reps}) > 1:
        errors["matched_varies"] = 1
    submitted = sum(r.submitted for r in all_reps)
    failed = sum(errors.values())
    record.update(
        calib_before_s=calib_before, calib_after_s=calib_after,
        noisy=abs(calib_after - calib_before)
        > 0.10 * min(calib_before, calib_after),
        matched_per_repeat=[r.matched for r in all_reps],
        submitted=submitted, failed=failed, errors=errors,
        error_rate=failed / submitted if submitted else 1.0,
        correct=failed == 0 and submitted > 0)
    return record


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=list(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--events", help="write the traced spans here")
    args = ap.parse_args(argv)
    try:
        record = run_workload(args.workload, args.seed, args.seconds,
                              bool(args.trace), args.smoke, args.events)
    except RuntimeError as exc:
        print(f"runner: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
