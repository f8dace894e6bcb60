"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``apps``
    List the modelled proxy applications.
``analyze [APP ...]``
    Table I / Figure 2 / Figure 6(a) statistics for the named apps
    (default: all).
``trace APP PATH [--ranks N] [--steps S] [--seed K]``
    Generate a synthetic trace and save it as JSONL.
``replay PATH``
    Load a saved trace and print its analysis.
``match N [--relaxation LABEL] [--gpu NAME] [--queues Q] [--ctas C]``
    Run the synthetic matching microbenchmark at queue length N.
``calibrate``
    Re-derive the per-device calibration multipliers.
``serve-demo [--seed K] [--steps S] [--ranks N] [--rate R] [--obs]``
    Run the three-tenant serving demo (``repro.serve``) and print its
    deterministic run report; ``--obs`` attaches the observability layer
    and prints the tracer/metrics summary.
``bench {host,serve} [--seed K]``
    Quick host-throughput or serve-layer sweep, printed only (the
    report-writing harnesses live in ``benchmarks/``).
"""

from __future__ import annotations

import argparse
import sys


def _cmd_apps(_args) -> int:
    from .traces import APP_MODELS
    for name, model in APP_MODELS.items():
        wc = " [src-wildcard]" if model.uses_src_wildcard else ""
        print(f"{name:22s} {model.full_name:28s} "
              f"ranks={model.default_ranks:<4d} "
              f"comms={model.n_communicators}{wc}")
        print(f"{'':22s} {model.description}")
    return 0


def _analyze_one(name_or_trace) -> None:
    from .traces import analyze, figure2_summary, tuple_uniqueness
    if isinstance(name_or_trace, str):
        from .traces import generate_trace
        trace = generate_trace(name_or_trace)
    else:
        trace = name_or_trace
    row = analyze(trace)
    fig2 = figure2_summary(trace)
    uniq = tuple_uniqueness(trace)
    print(f"{trace.app}: ranks={row.n_ranks} sends={row.sends} "
          f"peers={row.peers_mean:.1f}/{row.peers_max} tags={row.n_tags} "
          f"comms={row.n_communicators} "
          f"srcwc={'yes' if row.uses_src_wildcard else 'no'}")
    print(f"  UMQ max depth mean/median: {fig2['umq_max_mean']:.0f}/"
          f"{fig2['umq_max_median']:.0f}; unexpected "
          f"{fig2['unexpected_fraction'] * 100:.0f}%; dominant tuple share "
          f"{uniq['dominant_share_mean'] * 100:.1f}%")


def _cmd_analyze(args) -> int:
    from .traces import app_names
    for name in (args.apps or app_names()):
        _analyze_one(name)
    return 0


def _cmd_trace(args) -> int:
    from .traces import generate_trace
    from .traces.io import save_trace
    trace = generate_trace(args.app, n_ranks=args.ranks, steps=args.steps,
                           seed=args.seed)
    path = save_trace(trace, args.path)
    print(f"wrote {len(trace)} events to {path}")
    return 0


def _cmd_replay(args) -> int:
    from .traces.io import load_trace
    _analyze_one(load_trace(args.path))
    return 0


def _cmd_match(args) -> int:
    from .bench import matching_workload
    from .core.engine import MatchingEngine
    from .core.relaxations import TABLE_II_CONFIGS
    from .simt.gpu import GPU
    by_label = {rel.label(): rel for rel in TABLE_II_CONFIGS}
    if args.relaxation not in by_label:
        print(f"unknown relaxation {args.relaxation!r}; "
              f"choices: {sorted(by_label)}", file=sys.stderr)
        return 2
    msgs, reqs = matching_workload(args.n)
    eng = MatchingEngine(gpu=GPU.by_name(args.gpu),
                         relaxations=by_label[args.relaxation],
                         n_queues=args.queues, n_ctas=args.ctas)
    out = eng.match(msgs, reqs)
    print(f"{args.relaxation} on {eng.gpu.name}: matched "
          f"{out.matched_count}/{args.n} at "
          f"{out.matches_per_second() / 1e6:.1f} Mmatches/s "
          f"({eng.data_structure}, {out.iterations} iterations)")
    return 0


def _cmd_calibrate(_args) -> int:
    from .bench.calibration import recalibrate
    recalibrate()
    return 0


def _cmd_serve_demo(args) -> int:
    from .serve import demo
    obs = None
    if args.obs:
        from .obs import Observability
        obs = Observability.enabled()
    service, workload, wall = demo(seed=args.seed, steps=args.steps,
                                   n_ranks=args.ranks, rate_rps=args.rate,
                                   obs=obs)
    report = service.report()
    print(f"serve-demo: {len(workload.tenants)} tenants, "
          f"{workload.n_envelopes} envelopes offered at {args.rate:g} req/s "
          f"(virtual), seed={args.seed}")
    print(f"  submitted={report['submitted']} accepted={report['accepted']} "
          f"shed={report['shed_retryable']}+{report['shed_overloaded']} "
          f"flushes={report['flushes']} matched={report['matched']}")
    p50, p99 = report["latency_p50_vt"], report["latency_p99_vt"]
    if p50 is not None:
        print(f"  latency p50/p99: {p50 * 1e6:.1f}/{p99 * 1e6:.1f} "
              f"virtual us; host wall {wall * 1e3:.1f} ms")
    for name, t in report["tenants"].items():
        moves = " -> ".join([t["retunes"][0][0]] +
                            [r[1] for r in t["retunes"]]
                            ) if t["retunes"] else t["engine"]
        print(f"  {name:16s} shard={t['shard']} engine={moves} "
              f"flushes={t['flushes']} matched={t['matched']}")
    if obs is not None:
        from .obs.report import summary
        print(summary(obs))
    return 0


def _cmd_bench(args) -> int:
    if args.target == "host":
        from .bench.regression import QUICK_SIZES, run_suite
        for rec in run_suite(sizes=QUICK_SIZES):
            print(f"{rec.matcher:12s} n={rec.n:<6d} {rec.seconds:.3f}s "
                  f"{rec.matches_per_second / 1e6:.2f} Mmatches/s")
        return 0
    from .serve import (DEFAULT_BENCH_APPS, merge_workloads,
                        run_cluster_workload, run_workload, workload_from_app)
    parts = [workload_from_app(app, n_ranks=8, steps=2, seed=args.seed,
                               ordering_required=ordering_required)
             for app, ordering_required in DEFAULT_BENCH_APPS]
    procs = getattr(args, "procs", None)
    for workload in parts + [merge_workloads("mixed", parts)]:
        if procs:
            service, wall = run_cluster_workload(
                workload, n_workers=procs, seed=args.seed, promote_after=2,
                start_method="fork")
        else:
            service, wall = run_workload(workload, n_shards=2, seed=args.seed,
                                         promote_after=2)
        report = service.report()
        rate = report["matched"] / wall if wall > 0 else 0.0
        label = f"{workload.name}" + (f" x{procs}proc" if procs else "")
        print(f"{label:16s} matched={report['matched']:<6d} "
              f"shed={report['shed_retryable'] + report['shed_overloaded']:<4d} "
              f"retunes={report['retunes']} {rate / 1e3:.1f} Kmatches/s")
    print("(printed only; benchmarks/ledger/ledger.py is the re-measuring "
          "serve bench)")
    return 0


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = argparse.ArgumentParser(
        prog="repro", description="GPU message matching under relaxed MPI "
        "semantics (IPDPS 2017 reproduction)")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("apps", help="list proxy-application models")

    p = sub.add_parser("analyze", help="trace statistics per application")
    p.add_argument("apps", nargs="*", help="app names (default: all)")

    p = sub.add_parser("trace", help="generate and save a trace")
    p.add_argument("app")
    p.add_argument("path")
    p.add_argument("--ranks", type=int, default=None)
    p.add_argument("--steps", type=int, default=None)
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("replay", help="analyze a saved trace")
    p.add_argument("path")

    p = sub.add_parser("match", help="run the matching microbenchmark")
    p.add_argument("n", type=int)
    p.add_argument("--relaxation", default="wc+ord+unexp")
    p.add_argument("--gpu", default="pascal")
    p.add_argument("--queues", type=int, default=32)
    p.add_argument("--ctas", type=int, default=32)

    sub.add_parser("calibrate", help="re-derive calibration multipliers")

    p = sub.add_parser("serve-demo", help="run the three-tenant serve demo")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--steps", type=int, default=3)
    p.add_argument("--ranks", type=int, default=16)
    p.add_argument("--rate", type=float, default=4000.0,
                   help="offered load, requests per virtual second")
    p.add_argument("--obs", action="store_true",
                   help="attach observability; print tracer/metrics summary")

    p = sub.add_parser("bench", help="quick printed benchmark sweep")
    p.add_argument("target", choices=["host", "serve"])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--procs", type=int, default=None,
                   help="serve only: run each workload through a "
                   "multi-process cluster with N worker processes")

    args = parser.parse_args(argv)
    handler = {"apps": _cmd_apps, "analyze": _cmd_analyze,
               "trace": _cmd_trace, "replay": _cmd_replay,
               "match": _cmd_match, "calibrate": _cmd_calibrate,
               "serve-demo": _cmd_serve_demo, "bench": _cmd_bench}
    try:
        return handler[args.command](args)
    except (KeyError, ValueError, OSError) as exc:
        # user-input errors surface as one line, not a traceback
        if isinstance(exc, OSError):
            message = str(exc)
        else:
            message = exc.args[0] if exc.args else exc
        print(f"error: {message}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
