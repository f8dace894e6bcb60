"""Host-side throughput regression harness.

Every other benchmark in this repository reports *modeled* GPU rates.
This module times the **simulator itself**: wall-clock matches/s of the
matching fast paths on the host, so that optimization PRs have a measured
perf trajectory instead of anecdotes (the Caliper/Benchpark lesson from
PAPERS.md).

``run_suite`` sweeps the matrix, partitioned, and hash matchers over the
paper-scale queue depths; ``benchmarks/bench_host_perf.py`` and
``python -m repro bench host`` print the results as a table.  Nothing is
written to a report file: ``BENCH_host_perf.json`` at the repository
root is frozen history of earlier sweeps.

Methodology: best-of-``repeats`` wall time of ``matcher.match()`` on the
paper's fully-matchable random workload (:func:`matching_workload`), rate
= matched count / host seconds.  Workloads are built outside the timed
region; each repeat uses a fresh matcher so no cached state leaks in.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

from ..core.hash_matching import HashMatcher
from ..core.matrix_matching import MatrixMatcher
from ..core.partitioned import PartitionedMatcher
from .harness import matching_workload

__all__ = [
    "DEFAULT_SIZES",
    "QUICK_SIZES",
    "MATCHER_FACTORIES",
    "HostPerfRecord",
    "run_suite",
    "time_match",
]

#: Queue depths of the full sweep: the paper's Figure 4-6 sweeps reach
#: 10^5 envelopes; 64k is the deep-queue point the 5x host-speedup gate
#: is measured at.
DEFAULT_SIZES = (1_000, 8_000, 64_000)

#: Depths for CI smoke runs.
QUICK_SIZES = (1_000, 8_000)

#: Matchers the sweep times.  Fresh instance per repeat; each
#: factory optionally takes an observability handle (``--trace-out``).
MATCHER_FACTORIES: dict[str, Callable[..., object]] = {
    "matrix": lambda obs=None: MatrixMatcher(obs=obs),
    "partitioned": lambda obs=None: PartitionedMatcher(n_queues=4, obs=obs),
    "hash": lambda obs=None: HashMatcher(obs=obs),
}


@dataclass(frozen=True)
class HostPerfRecord:
    """One (matcher, queue depth) timing."""

    matcher: str
    n: int
    seconds: float
    matched: int
    matches_per_second: float
    repeats: int


def default_repeats(n: int) -> int:
    """Best-of-3 where a repeat is cheap, single-shot at depth."""
    return 3 if n <= 8_000 else 1


def time_match(name: str, factory: Callable[..., object], n: int,
               repeats: int | None = None, seed: int = 0,
               obs=None) -> HostPerfRecord:
    """Time ``factory().match`` on ``matching_workload(n)``.

    An observability handle is forwarded to the matcher; note that a
    traced repeat measures the instrumented path's host time.
    """
    msgs, reqs = matching_workload(n, seed=seed)
    repeats = default_repeats(n) if repeats is None else repeats
    if repeats < 1:
        raise ValueError("repeats must be >= 1")
    best = float("inf")
    matched = 0
    for _ in range(repeats):
        matcher = factory(obs=obs) if obs is not None else factory()
        t0 = time.perf_counter()
        outcome = matcher.match(msgs, reqs)
        best = min(best, time.perf_counter() - t0)
        matched = outcome.matched_count
    return HostPerfRecord(matcher=name, n=n, seconds=best, matched=matched,
                          matches_per_second=matched / best, repeats=repeats)


def run_suite(sizes: Sequence[int] = DEFAULT_SIZES,
              matchers: Iterable[str] = tuple(MATCHER_FACTORIES),
              repeats: int | None = None,
              progress: Callable[[HostPerfRecord], None] | None = None,
              obs=None) -> list[HostPerfRecord]:
    """Full sweep: every selected matcher at every size."""
    records = []
    for name in matchers:
        factory = MATCHER_FACTORIES[name]
        for n in sizes:
            rec = time_match(name, factory, n, repeats=repeats, obs=obs)
            records.append(rec)
            if progress is not None:
                progress(rec)
    return records

