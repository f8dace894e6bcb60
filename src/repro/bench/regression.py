"""Host-side throughput regression harness.

Every other benchmark in this repository reports *modeled* GPU rates.
This module times the **simulator itself**: wall-clock matches/s of the
matching fast paths on the host, so that optimization PRs have a measured
perf trajectory instead of anecdotes (the Caliper/Benchpark lesson from
PAPERS.md).

``run_suite`` sweeps the matrix, partitioned, and hash matchers over the
paper-scale queue depths and ``append_entry`` records the results in
``BENCH_host_perf.json`` at the repository root.  Each entry is labeled
(e.g. ``"baseline"``, ``"post-PR1"``), so successive PRs can append and
compare: ``speedup`` computes the ratio between two labeled entries.

Methodology: best-of-``repeats`` wall time of ``matcher.match()`` on the
paper's fully-matchable random workload (:func:`matching_workload`), rate
= matched count / host seconds.  Workloads are built outside the timed
region; each repeat uses a fresh matcher so no cached state leaks in.
"""

from __future__ import annotations

import json
import platform
import time
from dataclasses import asdict, dataclass
from pathlib import Path
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
    "append_entry",
    "default_report_path",
    "entry_rates",
    "load_report",
    "regression_failures",
    "run_suite",
    "speedup",
    "time_match",
]

#: Queue depths of the full sweep: the paper's Figure 4-6 sweeps reach
#: 10^5 envelopes; 64k is the deep-queue point the 5x host-speedup gate
#: is measured at.
DEFAULT_SIZES = (1_000, 8_000, 64_000)

#: Depths for CI smoke runs.
QUICK_SIZES = (1_000, 8_000)

#: Matchers under the regression gate.  Fresh instance per repeat; each
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


# -- report file ----------------------------------------------------------------


def default_report_path() -> Path:
    """``BENCH_host_perf.json`` at the repository root."""
    return Path(__file__).resolve().parents[3] / "BENCH_host_perf.json"


def load_report(path: Path | None = None) -> dict:
    """Read the report (``{"entries": []}`` when absent)."""
    path = default_report_path() if path is None else Path(path)
    if not path.exists():
        return {"entries": []}
    with open(path) as f:
        report = json.load(f)
    if "entries" not in report:
        raise ValueError(f"{path} is not a host-perf report")
    return report


def append_entry(records: Sequence[HostPerfRecord], label: str,
                 path: Path | None = None) -> dict:
    """Append one labeled entry to the report and rewrite it."""
    path = default_report_path() if path is None else Path(path)
    report = load_report(path)
    report["entries"].append({
        "label": label,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "python": platform.python_version(),
        "records": [asdict(r) for r in records],
    })
    with open(path, "w") as f:
        json.dump(report, f, indent=2)
        f.write("\n")
    return report


def entry_rates(entry: dict) -> dict[tuple[str, int], float]:
    """``{(matcher, n): matches_per_second}`` for one report entry."""
    return {(r["matcher"], r["n"]): r["matches_per_second"]
            for r in entry["records"]}


def _entry(report: dict, label: str) -> dict:
    for entry in reversed(report["entries"]):
        if entry["label"] == label:
            return entry
    raise KeyError(f"no entry labeled {label!r}")


def speedup(report: dict, matcher: str, n: int, base_label: str,
            new_label: str) -> float:
    """Host-throughput ratio of two labeled entries at one sweep point."""
    base = entry_rates(_entry(report, base_label))[(matcher, n)]
    new = entry_rates(_entry(report, new_label))[(matcher, n)]
    return new / base


def regression_failures(report: dict, base_label: str, new_label: str,
                        min_ratio: float = 0.6,
                        ) -> list[tuple[str, int, float]]:
    """Sweep points where ``new`` regressed below ``min_ratio`` x base.

    Compares every (matcher, n) present in both labeled entries and
    returns the failing ``(matcher, n, ratio)`` triples, sorted worst
    first.  The 0.6 default tolerates host-timing noise while flagging
    anything close to a 2x slowdown; an unchanged run passes with an
    empty list.
    """
    if not 0 < min_ratio <= 1.0:
        raise ValueError("min_ratio must be in (0, 1]")
    base = entry_rates(_entry(report, base_label))
    new = entry_rates(_entry(report, new_label))
    failures = []
    for key in sorted(base.keys() & new.keys()):
        ratio = new[key] / base[key]
        if ratio < min_ratio:
            failures.append((key[0], key[1], ratio))
    failures.sort(key=lambda f: f[2])
    return failures
