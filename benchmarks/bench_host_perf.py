"""Host throughput: how fast the *simulator itself* matches.

Not a paper figure.  Every other bench reports modeled GPU rates; this
one times the host-side fast paths (array-native reduce, blockwise scan,
vectorized hash rounds) and prints the table.  It writes no report file:
``BENCH_host_perf.json`` at the repository root is frozen history.

Usage::

    PYTHONPATH=src python benchmarks/bench_host_perf.py [--quick]
        [--sizes N [N ...]] [--trace-out trace.json] [--sanitize]

``--quick`` drops the 64k deep-queue point for CI smoke runs.
``--trace-out`` attaches the observability layer (``repro.obs``) to the
sweep, writes a Chrome/Perfetto ``trace.json`` (open it at
https://ui.perfetto.dev), and prints the tracer + metrics summary.
``--sanitize`` additionally runs every matcher (fast paths, plus the
matrix/hash pedantic per-warp paths) under ``repro.simt.sanitize`` and
prints the report; exits nonzero on any finding.
"""

from __future__ import annotations

import argparse

from repro.bench import Table, format_rate, write_result
from repro.bench.regression import (DEFAULT_SIZES, QUICK_SIZES,
                                    HostPerfRecord, run_suite)


def host_perf_table(records: list[HostPerfRecord],
                    title: str = "Host-side simulator throughput") -> Table:
    table = Table(title=title,
                  columns=["matcher", "queue", "host time", "rate"])
    for r in records:
        table.add(r.matcher, r.n, f"{r.seconds:.3f}s",
                  format_rate(r.matches_per_second))
    table.note("wall-clock matches/s of the simulator on the host "
               "(best of repeats), not a modeled GPU rate")
    return table


def test_report_host_perf():
    """Smoke entry for ``pytest benchmarks/``: shallow queue only."""
    records = run_suite(sizes=(1_000,), repeats=1)
    table = host_perf_table(records,
                            title="Host-side simulator throughput (smoke)")
    write_result("host_perf", table.show())
    assert len(records) == 3
    assert all(r.matched == 1_000 for r in records)
    assert all(r.matches_per_second > 0 for r in records)


def run_sanitized_sweep(n: int = 200) -> "SanitizerReport":
    """Run every shipped matcher under the sanitizer at a small size and
    return the combined report (clean == the kernels model no races,
    uninitialized reads, or ledger drift)."""
    from repro.bench.harness import matching_workload
    from repro.core.bucket_matching import BucketMatcher
    from repro.core.hash_matching import HashMatcher
    from repro.core.list_matching import ListMatcher
    from repro.core.matrix_matching import MatrixMatcher
    from repro.core.partitioned import PartitionedMatcher
    from repro.simt.sanitize import Sanitizer

    san = Sanitizer()
    msgs, reqs = matching_workload(n, seed=0)
    MatrixMatcher(warps_per_cta=2, window=8,
                  sanitize=san).match_pedantic(msgs, reqs)
    HashMatcher(sanitize=san).match_pedantic(msgs, reqs)
    for matcher in (MatrixMatcher(sanitize=san),
                    PartitionedMatcher(n_queues=4, sanitize=san),
                    HashMatcher(sanitize=san),
                    BucketMatcher(sanitize=san),
                    ListMatcher(sanitize=san)):
        matcher.match(msgs, reqs)
    return san.finalize()


def main(argv: list[str] | None = None) -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--quick", action="store_true",
                    help="shallow queues only (CI smoke)")
    ap.add_argument("--sizes", type=int, nargs="+", default=None,
                    help="queue depths to sweep (overrides --quick)")
    ap.add_argument("--trace-out", default=None, metavar="PATH",
                    help="write a Chrome/Perfetto trace.json of the sweep")
    ap.add_argument("--sanitize", action="store_true",
                    help="run the matchers under the SIMT sanitizer and "
                         "fail on any finding")
    args = ap.parse_args(argv)

    obs = None
    if args.trace_out is not None:
        from repro.obs import Observability
        from repro.simt.gpu import PASCAL_GTX1080
        obs = Observability.enabled()
        obs.tracer.metadata.update(PASCAL_GTX1080.trace_metadata())

    if args.sizes is not None:
        sizes = tuple(args.sizes)
    else:
        sizes = QUICK_SIZES if args.quick else DEFAULT_SIZES
    records = run_suite(
        sizes=sizes, obs=obs,
        progress=lambda r: print(f"  {r.matcher} n={r.n}: {r.seconds:.3f}s "
                                 f"{format_rate(r.matches_per_second)}"))
    host_perf_table(records).show()
    if obs is not None:
        from repro.obs.report import summary
        path = obs.tracer.write_chrome(args.trace_out)
        print(f"wrote Perfetto trace to {path}")
        print(summary(obs))
    if args.sanitize:
        report = run_sanitized_sweep()
        print(report.summary())
        report.assert_clean()   # nonzero exit on any finding


if __name__ == "__main__":
    main()
