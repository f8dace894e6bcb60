"""Serve-layer load harness: sustained matches/s under open-loop load.

Not a paper figure.  Drives :class:`repro.serve.MatchingService` through
open-loop workloads derived from the proxy-application traces
(``repro.traces.apps``) and appends a labeled entry to ``BENCH_serve.json``
at the repository root: sustained host-side matches/s plus p50/p99
request latency (virtual seconds, deterministic per seed) per workload.

Usage::

    PYTHONPATH=src python benchmarks/bench_serve.py [--smoke]
        [--label LABEL] [--no-json] [--seed SEED] [--rate RPS]
        [--steps N] [--ranks N] [--sessions]
        [--recover [--kill-at N]]

``--smoke`` runs a tiny sweep, writes the report to a temporary file,
schema-checks it, and leaves ``BENCH_serve.json`` untouched (the CI
serve job runs this mode).  ``--smoke --kill-at 2 --recover`` instead
runs the kill/recover smoke: a fork-cluster run whose busiest worker is
SIGKILLed after two flushes, asserting zero admitted requests lost and
schema-checking
the ``recovery_seconds`` / ``carryover_depth`` fields.  In full mode,
``--recover`` appends one extra ``kill-recover`` record carrying the
recovery figures next to the normal sweep.
"""

from __future__ import annotations

import argparse
import json
import tempfile
import time
from pathlib import Path

from repro.bench import Table, format_rate, write_result
from repro.bench.regression import (ServePerfRecord, append_entry,
                                    serve_report_path, validate_serve_entry)
from repro.serve import (BENCHPARK_BENCH_APPS, DEFAULT_BENCH_APPS,
                         BatchPolicy, ServeWorkload, StageClock,
                         merge_workloads, run_cluster_workload, run_workload,
                         stable_shard, workload_from_app)


def bench_workloads(*, seed: int = 0, rate_rps: float = 4000.0,
                    steps: int = 16, n_ranks: int | None = None,
                    chunk_envelopes: int = 256, session: bool = False,
                    benchpark: bool = False,
                    ) -> list[tuple[ServeWorkload, float]]:
    """One ``(workload, loadgen_seconds)`` per default bench app (>= 3).

    The loadgen wall time -- trace generation plus cutting the busiest
    rank's stream into packed column blocks -- is timed here, outside
    the serve run, and charged to the record's ``loadgen`` stage.

    The defaults (16 trace timesteps, each app's native rank count,
    256-envelope column blocks) keep the sweep long enough that
    sustained rate measures the pipeline, not process startup: the
    columnar data plane makes block size nearly free on the serve side,
    so blocks are sized for flush amortization.

    ``benchpark=True`` extends the sweep with the three Benchpark
    re-fire workloads (declared ``partitioned``, so their autotuners pin
    the match-once lattice point).
    """
    apps = [(app, ordering, False)
            for app, ordering in DEFAULT_BENCH_APPS]
    if benchpark:
        apps += [(app, ordering, True)
                 for app, ordering in BENCHPARK_BENCH_APPS]
    out = []
    for app, ordering_required, partitioned in apps:
        t0 = time.perf_counter()
        workload = workload_from_app(app, rate_rps=rate_rps,
                                     n_ranks=n_ranks, steps=steps,
                                     chunk_envelopes=chunk_envelopes,
                                     seed=seed,
                                     ordering_required=ordering_required,
                                     session=session,
                                     partitioned=partitioned)
        out.append((workload, time.perf_counter() - t0))
    return out


def run_one(workload: ServeWorkload, *, seed: int = 0,
            n_shards: int = 2, promote_after: int = 2,
            loadgen_seconds: float = 0.0,
            repeats: int = 5) -> ServePerfRecord:
    """Serve one workload and fold the run into a perf record.

    Best-of-``repeats`` wall time, the same methodology as the host-perf
    harness (:func:`repro.bench.regression.time_match`): outcomes are
    deterministic per seed, so repeats differ only in host timing noise
    and the fastest run is the honest sustained-rate measurement.
    """
    if repeats < 1:
        raise ValueError("repeats must be >= 1")
    best_wall = float("inf")
    for _ in range(repeats):
        stages = StageClock()
        if loadgen_seconds:
            stages.add("loadgen", loadgen_seconds)
        service, wall = run_workload(workload, n_shards=n_shards, seed=seed,
                                     promote_after=promote_after,
                                     stages=stages)
        if wall < best_wall:
            best_wall = wall
            best = (service, stages)
    service, stages = best
    wall = best_wall
    report = service.report()
    return ServePerfRecord(
        workload=workload.name,
        tenants=len(workload.tenants),
        n_envelopes=workload.n_envelopes,
        submitted=report["submitted"],
        accepted=report["accepted"],
        shed_retryable=report["shed_retryable"],
        shed_overloaded=report["shed_overloaded"],
        flushes=report["flushes"],
        matched=report["matched"],
        retunes=report["retunes"],
        seconds=wall,
        matches_per_second=report["matched"] / wall if wall > 0 else 0.0,
        latency_p50_vt=report["latency_p50_vt"],
        latency_p99_vt=report["latency_p99_vt"],
        seed=seed,
        stage_seconds=stages.snapshot(),
    )


def serve_table(records: list[ServePerfRecord],
                title: str = "Serve-layer sustained throughput") -> Table:
    table = Table(title=title, columns=["workload", "matched", "shed",
                                        "retunes", "rate", "p99 latency",
                                        "match %"])
    for r in records:
        shed = r.shed_retryable + r.shed_overloaded
        p99 = (f"{r.latency_p99_vt * 1e6:.1f}us"
               if r.latency_p99_vt is not None else "-")
        if r.stage_seconds:
            served = sum(v for k, v in r.stage_seconds.items()
                         if k != "loadgen")
            match_pct = (f"{100 * r.stage_seconds['match'] / served:.0f}%"
                         if served > 0 else "-")
        else:
            match_pct = "-"
        table.add(r.workload, r.matched, shed, r.retunes,
                  format_rate(r.matches_per_second), p99, match_pct)
    table.note("sustained host matches/s over the whole serve run "
               "(open-loop offered load); latency percentiles are in "
               "virtual time, deterministic per seed; match % is the "
               "matching engines' share of the serve-side staged wall "
               "time (loadgen excluded)")
    return table


def recovery_record(*, seed: int = 0, kill_at: int = 2,
                    sessions: bool = True, steps: int = 2,
                    n_ranks: int | None = 8, rate_rps: float = 4000.0,
                    chunk_envelopes: int = 64,
                    n_shards: int = 2) -> ServePerfRecord:
    """Kill-injected cluster run folded into one perf record.

    Merges the default bench apps into a single multi-tenant workload
    (session mode by default, so ``carryover_depth`` is exercised) and
    drives it through a fork :class:`repro.serve.ClusterService` of
    ``n_shards`` workers via :func:`repro.serve.run_cluster_workload`.
    The worker hosting the busiest tenant SIGKILLs itself on its
    ``kill_at``-th non-empty flush; the router recovers it from its
    checkpoint (taken every 2 flushes) and frame journal.  The run must
    actually recover -- zero admitted requests lost, none double-matched
    -- or this exits nonzero; ``recovery_seconds`` is the summed
    recovery wall time and ``carryover_depth`` the end-of-run session
    backlog.
    """
    t0 = time.perf_counter()
    parts = [workload_from_app(app, rate_rps=rate_rps, n_ranks=n_ranks,
                               steps=steps, chunk_envelopes=chunk_envelopes,
                               seed=seed, ordering_required=ordering_required,
                               session=sessions)
             for app, ordering_required in DEFAULT_BENCH_APPS]
    loadgen_seconds = time.perf_counter() - t0
    workload = merge_workloads("kill-recover", parts)

    # kill the worker hosting the busiest tenant: the one guaranteed to
    # flush often enough for the armed kill to fire
    counts: dict[str, int] = {}
    for arrival in workload.arrivals:
        counts[arrival.tenant] = counts.get(arrival.tenant, 0) + 1
    victim = stable_shard(max(counts, key=lambda n: (counts[n], n)),
                          n_shards)
    # size watermark at the chunk size: every arrival triggers a
    # synchronous flush, so the armed kill reliably fires mid-run
    cluster, wall = run_cluster_workload(
        workload, n_workers=n_shards, seed=seed,
        batching=BatchPolicy(max_envelopes=chunk_envelopes),
        start_method="fork", checkpoint_every=2,
        arm_exit=(victim, kill_at))

    if not cluster.recoveries:
        raise SystemExit("kill/recover run: the armed kill never fired "
                         f"(worker {victim} saw fewer than {kill_at} "
                         "non-empty flushes)")
    accepted = {t.seq for t in cluster.ticket_list() if t.accepted}
    covered = [s for r in cluster.results for s in r.covered_seqs]
    if len(covered) != len(set(covered)):
        raise SystemExit("kill/recover run: a request was matched twice")
    if set(covered) != accepted:
        lost = sorted(accepted - set(covered))
        raise SystemExit(f"kill/recover run: admitted requests lost "
                         f"across recovery: {lost}")

    report = cluster.report()
    stages = StageClock()
    if loadgen_seconds:
        stages.add("loadgen", loadgen_seconds)
    return ServePerfRecord(
        workload=workload.name,
        tenants=len(workload.tenants),
        n_envelopes=workload.n_envelopes,
        submitted=report["submitted"],
        accepted=report["accepted"],
        shed_retryable=report["shed_retryable"],
        shed_overloaded=report["shed_overloaded"],
        flushes=report["flushes"],
        matched=report["matched"],
        retunes=report["retunes"],
        seconds=wall,
        matches_per_second=report["matched"] / wall if wall > 0 else 0.0,
        latency_p50_vt=report["latency_p50_vt"],
        latency_p99_vt=report["latency_p99_vt"],
        seed=seed,
        stage_seconds=stages.snapshot(),
        recovery_seconds=sum(r.wall_seconds for r in cluster.recoveries),
        carryover_depth=sum(t["carryover_depth"]
                            for t in report["tenants"].values()),
    )


def recovery_smoke(seed: int = 0, kill_at: int = 2) -> ServePerfRecord:
    """Kill/recover smoke (CI mode): tiny fork-cluster run with a chaos
    kill, temp-report schema check of the recovery fields, no report
    write."""
    rec = recovery_record(seed=seed, kill_at=kill_at)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "BENCH_serve.json"
        append_entry([rec], label="smoke-recover", path=path)
        with open(path) as f:
            report = json.load(f)
        problems = validate_serve_entry(report["entries"][-1])
        if problems:
            raise SystemExit("kill/recover report schema check failed:\n  "
                             + "\n  ".join(problems))
    return rec


def smoke_check(seed: int = 0) -> list[ServePerfRecord]:
    """Tiny sweep into a temp report + schema validation (CI mode)."""
    records = [run_one(w, seed=seed, loadgen_seconds=lg)
               for w, lg in bench_workloads(seed=seed, steps=2, n_ranks=8)]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "BENCH_serve.json"
        append_entry(records, label="smoke", path=path)
        with open(path) as f:
            report = json.load(f)
        problems = validate_serve_entry(report["entries"][-1])
        if problems:
            raise SystemExit("serve report schema check failed:\n  "
                             + "\n  ".join(problems))
    return records


def test_report_serve_perf():
    """Smoke entry for ``pytest benchmarks/``: tiny sweep, temp report
    only, so the committed BENCH_serve.json stays put."""
    records = smoke_check()
    write_result("serve_perf", serve_table(
        records, title="Serve-layer sustained throughput (smoke)").show())
    assert len(records) >= 3
    assert all(r.matched > 0 for r in records)
    assert all(r.matches_per_second > 0 for r in records)


def main(argv: list[str] | None = None) -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny sweep + schema check; no report-file write")
    ap.add_argument("--label", default="dev",
                    help="entry label in BENCH_serve.json")
    ap.add_argument("--no-json", action="store_true",
                    help="print the table without touching the report file")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--rate", type=float, default=4000.0,
                    help="offered load in requests per virtual second")
    ap.add_argument("--steps", type=int, default=16,
                    help="trace timesteps per workload")
    ap.add_argument("--ranks", type=int, default=None,
                    help="ranks per generated trace "
                         "(default: each app's native count)")
    ap.add_argument("--chunk", type=int, default=256,
                    help="envelopes per loadgen column block")
    ap.add_argument("--sessions", action="store_true",
                    help="run tenants in persistent-UMQ session mode "
                         "(unmatched envelopes carry over across flushes)")
    ap.add_argument("--benchpark", action="store_true",
                    help="extend the sweep with the Benchpark re-fire "
                         "workloads (bp_amg2023/bp_kripke/bp_laghos, "
                         "declared partitioned)")
    ap.add_argument("--kill-at", type=int, default=None, metavar="N",
                    dest="kill_at",
                    help="chaos: kill the victim worker after N "
                         "non-empty flushes (requires --recover; "
                         "default 2)")
    ap.add_argument("--recover", action="store_true",
                    help="run a kill-injected cluster pass and record "
                         "recovery_seconds / carryover_depth")
    args = ap.parse_args(argv)
    if args.kill_at is not None and not args.recover:
        ap.error("--kill-at requires --recover")
    kill_at = 2 if args.kill_at is None else args.kill_at

    if args.smoke:
        if args.recover:
            rec = recovery_smoke(seed=args.seed, kill_at=kill_at)
            print(f"kill/recover smoke: worker recovered in "
                  f"{rec.recovery_seconds * 1e3:.2f}ms, "
                  f"{rec.matched} matched, zero admitted requests lost, "
                  f"carryover depth {rec.carryover_depth}")
            print("serve report schema (recovery fields): ok")
            return
        records = smoke_check(seed=args.seed)
        serve_table(records, title="Serve smoke (schema checked)").show()
        print("serve report schema: ok")
        return

    workloads = bench_workloads(seed=args.seed, rate_rps=args.rate,
                                steps=args.steps, n_ranks=args.ranks,
                                chunk_envelopes=args.chunk,
                                session=args.sessions,
                                benchpark=args.benchpark)
    records = []
    for w, loadgen_seconds in workloads:
        rec = run_one(w, seed=args.seed, loadgen_seconds=loadgen_seconds)
        records.append(rec)
        stages = " ".join(f"{k}={v * 1e3:.1f}ms"
                          for k, v in rec.stage_seconds.items())
        print(f"  {rec.workload}: {rec.matched} matched in "
              f"{rec.seconds:.3f}s {format_rate(rec.matches_per_second)}")
        print(f"    stages: {stages}")
    if args.recover:
        rec = recovery_record(seed=args.seed, kill_at=kill_at,
                              sessions=True, steps=args.steps,
                              n_ranks=args.ranks, rate_rps=args.rate)
        records.append(rec)
        print(f"  {rec.workload}: {rec.matched} matched, recovered in "
              f"{rec.recovery_seconds * 1e3:.2f}ms, "
              f"carryover depth {rec.carryover_depth}")
    serve_table(records).show()
    if not args.no_json:
        append_entry(records, label=args.label, path=serve_report_path())
        print(f"appended entry {args.label!r} to {serve_report_path()}")


if __name__ == "__main__":
    main()
