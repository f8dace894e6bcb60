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
from dataclasses import MISSING, asdict, dataclass
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
    "ServePerfRecord",
    "append_entry",
    "default_report_path",
    "entry_rates",
    "load_report",
    "regression_failures",
    "run_suite",
    "serve_report_path",
    "speedup",
    "time_match",
    "validate_serve_entry",
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


# -- serve-layer report ---------------------------------------------------------


@dataclass(frozen=True)
class ServePerfRecord:
    """One serve-bench workload run (``benchmarks/bench_serve.py``).

    ``matches_per_second`` is sustained *host* throughput (matched pairs
    over wall seconds of the whole serve run, submission loop + drain);
    the latency percentiles are in *virtual* seconds, so they are
    deterministic for a given workload and seed.
    """

    workload: str
    tenants: int
    n_envelopes: int
    submitted: int
    accepted: int
    shed_retryable: int
    shed_overloaded: int
    flushes: int
    matched: int
    retunes: int
    seconds: float
    matches_per_second: float
    latency_p50_vt: float | None
    latency_p99_vt: float | None
    seed: int
    #: wall-seconds per pipeline stage (loadgen/admission/batching/
    #: match/result) from a :class:`~repro.serve.stages.StageClock`;
    #: optional so entries recorded before the breakdown stay valid.
    stage_seconds: dict | None = None
    #: wall-seconds spent in crash recovery (checkpoint restore +
    #: reconciliation + journal replay) when the run was kill-injected;
    #: ``None`` for normal runs and entries predating fault tolerance.
    recovery_seconds: float | None = None
    #: end-of-run carried-over envelopes across session tenants
    #: (UMQ + PRQ); ``None`` for entries predating sessions.
    carryover_depth: int | None = None
    #: worker-process count for cluster runs (``benchmarks/
    #: bench_cluster.py``); ``None`` for in-process entries.
    procs: int | None = None
    #: host cores available to the run (``os.cpu_count()``), recorded so
    #: per-core rates stay interpretable on oversubscribed sweeps.
    cores: int | None = None
    #: sustained matches/s divided by min(procs, cores) -- the per-core
    #: throughput the cluster scaling gate tracks.
    matches_per_core: float | None = None
    #: span-derived aggregate rate: matched / max per-worker busy
    #: seconds.  On a host with cores >= procs (workers genuinely
    #: parallel) this is the achievable wall rate; recording it next to
    #: the measured wall rate keeps single-core CI sweeps honest instead
    #: of pretending wall-clock speedup on oversubscribed hosts.
    matches_per_second_span: float | None = None
    #: per-worker windowed message volume at the end of the run (the
    #: shard load signal), worker order.
    shard_volumes: list | None = None
    #: max/mean of ``shard_volumes`` (1.0 = perfectly balanced).
    imbalance: float | None = None
    #: offered load in requests/s of virtual time (the open-loop
    #: workload's arrival rate), for p99-vs-offered-load curves.
    offered_rps: float | None = None
    #: spanning-tenant rank count for fabric runs
    #: (``benchmarks/bench_fabric.py``); ``None`` for non-fabric entries.
    span: int | None = None
    #: inter-shard messages carried per combined pair batch (the
    #: message-combining figure of merit; >= 1.0 when anything crossed
    #: the wire).
    combine_ratio: float | None = None
    #: combined (src shard, dst shard) batches sent over the run.
    pair_batches: int | None = None
    #: inter-shard messages carried by those batches.
    fabric_messages: int | None = None
    #: per ordered shard pair batch counts, keyed ``"src->dst"``.
    per_pair_batches: dict | None = None
    #: simulated wire seconds charged across all supersteps.
    wire_virtual_seconds: float | None = None
    #: fabric flush boundaries driven over the run.
    supersteps: int | None = None
    #: partitions per channel epoch for partitioned-channel runs
    #: (``benchmarks/bench_partitioned.py``); ``None`` otherwise.
    partitions: int | None = None
    #: partition re-fires amortized per matched binding envelope
    #: (= partitions, when every epoch completed).
    refires_per_match: int | None = None
    #: partition transfers/s sustained by the partitioned stream.
    partitioned_rate: float | None = None
    #: transfers/s of the equivalent non-partitioned stream (every
    #: transfer individually matched).
    plain_rate: float | None = None
    #: ``partitioned_rate / plain_rate`` -- the match-once/fire-many
    #: amortization factor (the bench's acceptance gate is >= 5x).
    amortization_ratio: float | None = None


#: Every field a serve record must carry (the ``--smoke`` schema check).
#: Defaulted fields are optional -- entries recorded before they were
#: introduced must keep validating.
SERVE_RECORD_FIELDS = tuple(
    name for name, f in ServePerfRecord.__dataclass_fields__.items()
    if f.default is MISSING)


def serve_report_path() -> Path:
    """``BENCH_serve.json`` at the repository root."""
    return Path(__file__).resolve().parents[3] / "BENCH_serve.json"


def validate_serve_entry(entry: dict) -> list[str]:
    """Schema problems in one serve report entry (empty list = valid)."""
    problems = []
    for key in ("label", "timestamp", "records"):
        if key not in entry:
            problems.append(f"entry missing {key!r}")
    for i, rec in enumerate(entry.get("records", [])):
        for field_name in SERVE_RECORD_FIELDS:
            if field_name not in rec:
                problems.append(f"record {i} missing {field_name!r}")
        if rec.get("matched", 0) < 0 or rec.get("seconds", 0) <= 0:
            problems.append(f"record {i} has non-positive timing")
        recovery = rec.get("recovery_seconds")
        if recovery is not None and recovery < 0:
            problems.append(f"record {i} has negative recovery_seconds")
        carryover = rec.get("carryover_depth")
        if carryover is not None and carryover < 0:
            problems.append(f"record {i} has negative carryover_depth")
        procs = rec.get("procs")
        if procs is not None and procs < 1:
            problems.append(f"record {i} has non-positive procs")
        for rate_field in ("matches_per_core", "matches_per_second_span",
                           "offered_rps"):
            rate = rec.get(rate_field)
            if rate is not None and rate < 0:
                problems.append(f"record {i} has negative {rate_field}")
        volumes = rec.get("shard_volumes")
        if volumes is not None:
            if procs is not None and len(volumes) != procs:
                problems.append(f"record {i} shard_volumes/procs mismatch")
            if any(v < 0 for v in volumes):
                problems.append(f"record {i} has negative shard volume")
        imbalance = rec.get("imbalance")
        if imbalance is not None and imbalance < 1.0:
            problems.append(f"record {i} has imbalance below 1.0 "
                            f"(max/mean cannot undershoot the mean)")
        combine = rec.get("combine_ratio")
        if combine is not None and combine < 1.0:
            problems.append(f"record {i} has combine_ratio below 1.0 "
                            f"(a pair batch carries at least one message)")
        for count_field in ("span", "pair_batches", "fabric_messages",
                            "supersteps"):
            count = rec.get(count_field)
            if count is not None and count < 0:
                problems.append(f"record {i} has negative {count_field}")
        wire = rec.get("wire_virtual_seconds")
        if wire is not None and wire < 0:
            problems.append(f"record {i} has negative wire_virtual_seconds")
        for count_field in ("partitions", "refires_per_match"):
            count = rec.get(count_field)
            if count is not None and count < 1:
                problems.append(f"record {i} has non-positive "
                                f"{count_field}")
        for rate_field in ("partitioned_rate", "plain_rate"):
            rate = rec.get(rate_field)
            if rate is not None and rate <= 0:
                problems.append(f"record {i} has non-positive "
                                f"{rate_field}")
        amort = rec.get("amortization_ratio")
        if amort is not None:
            if amort <= 0:
                problems.append(f"record {i} has non-positive "
                                f"amortization_ratio")
            p, q = rec.get("partitioned_rate"), rec.get("plain_rate")
            if (p is not None and q is not None
                    and abs(amort - p / q) > 1e-6 * max(1.0, amort)):
                problems.append(f"record {i} amortization_ratio does not "
                                f"equal partitioned_rate / plain_rate")
        per_pair = rec.get("per_pair_batches")
        if per_pair is not None:
            if any(v < 0 for v in per_pair.values()):
                problems.append(f"record {i} has negative per-pair count")
            pair_total = rec.get("pair_batches")
            if (pair_total is not None
                    and sum(per_pair.values()) != pair_total):
                problems.append(f"record {i} per_pair_batches does not "
                                f"sum to pair_batches")
    if not entry.get("records"):
        problems.append("entry has no records")
    return problems


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
