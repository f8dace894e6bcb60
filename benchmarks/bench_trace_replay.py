"""EXT5: trace-driven relaxation study -- the paper's two threads joined.

The paper analyzes application traces (Section IV) and measures matching
engines on synthetic queues (Sections V-VI), but never runs one against
the other ("it is not possible to run the applications on GPUs without
supporting a full MPI stack on the GPU itself" -- which is exactly what
the :mod:`repro.mpi` substrate provides here in simulation).

This bench drives each proxy application's *actual per-rank traffic*
(messages arriving at a rank and the receives it posts, in superstep
batches) through the matching engines under each legal relaxation set
and reports total simulated matching time per configuration -- i.e. the
relaxation speedup an application would really see, which depends on its
queue depths and tuple structure, not just on the microbenchmark.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.bench import Table, write_result
from repro.core.engine import MatchingEngine
from repro.core.envelope import EnvelopeBatch
from repro.core.relaxations import RelaxationSet
from repro.traces import generate_trace
from repro.traces.events import KIND_BARRIER, KIND_POST, KIND_SEND

#: Apps swept (a runtime-friendly subset covering every suite; the two
#: deep-queue outliers run at reduced scale).
APPS = {
    "exmatex_lulesh": dict(n_ranks=27, steps=4),
    "df_snap": dict(n_ranks=16, steps=3),
    "df_partisn": dict(n_ranks=16, steps=1),
    "cesar_crystalrouter": dict(n_ranks=16, steps=4),
    "exmatex_cmc": dict(n_ranks=16, steps=6),
    "amr_boxlib": dict(n_ranks=16, steps=4),
    "df_minife": dict(n_ranks=27, steps=6),          # uses ANY_SOURCE
    "exact_multigrid": dict(n_ranks=8, steps=1),     # deep queues
}

CONFIGS = {
    "full MPI": RelaxationSet(),
    "no wildcards": RelaxationSet(wildcards=False),
    "unordered": RelaxationSet(wildcards=False, ordering=False),
}


def superstep_batches(trace, rank: int):
    """(messages, requests) batches for one rank, split at barriers.

    Each batch is what the rank's communication kernel faces during one
    BSP superstep: the messages that arrived and the receives it posted.
    """
    cols = trace.columns
    kind = cols["kind"]
    arrived = (kind == KIND_SEND) & (cols["peer"] == rank)
    posted = (kind == KIND_POST) & (cols["rank"] == rank)
    # superstep of every row: the number of this rank's barriers before it
    step = np.cumsum((kind == KIND_BARRIER) & (cols["rank"] == rank))
    batches = []
    for s in np.unique(step[arrived | posted]).tolist():
        m = arrived & (step == s)
        r = posted & (step == s)
        batches.append((
            EnvelopeBatch(src=cols["rank"][m], tag=cols["tag"][m],
                          comm=cols["comm"][m]),
            EnvelopeBatch(src=cols["peer"][r], tag=cols["tag"][r],
                          comm=cols["comm"][r])))
    return batches


def replay_app(app: str, scale: dict) -> dict[str, float]:
    """Total simulated matching seconds per relaxation config."""
    trace = generate_trace(app, **scale)
    posts = trace.columns["kind"] == KIND_POST
    uses_wildcards = bool(np.any((trace.columns["peer"][posts] == -1)
                                 | (trace.columns["tag"][posts] == -1)))
    batches = superstep_batches(trace, rank=1)
    out: dict[str, float] = {}
    for label, rel in CONFIGS.items():
        if not rel.wildcards and uses_wildcards:
            out[label] = float("nan")  # config illegal for this app
            continue
        eng = MatchingEngine(relaxations=rel, n_queues=16, n_ctas=8)
        seconds = 0.0
        for msgs, reqs in batches:
            if len(msgs) == 0 or len(reqs) == 0:
                continue
            seconds += eng.match(msgs, reqs).seconds
        out[label] = seconds
    return out


def test_report_ext5_trace_replay():
    table = Table(
        title="EXT5 -- per-application simulated matching time under each "
              "relaxation (rank 1 traffic)",
        columns=["application", "full MPI", "no wildcards", "unordered",
                 "unordered speedup"])
    speedups = {}
    for app, scale in APPS.items():
        times = replay_app(app, scale)
        full = times["full MPI"]
        fast = times["unordered"]

        def fmt(t):
            return "n/a (wildcards)" if t != t else f"{t * 1e6:9.1f} us"

        speedup = full / fast if fast == fast and fast > 0 else float("nan")
        speedups[app] = speedup
        table.add(app, fmt(full), fmt(times["no wildcards"]), fmt(fast),
                  f"{speedup:5.1f}x" if speedup == speedup else "n/a")
    table.note("unordered gains track tuple uniqueness, not just queue "
               "depth: PARTISN's thousands of tags hash cleanly (largest "
               "speedup) while MultiGrid's four tags collide massively -- "
               "for it the *partitioned* engine is the better relaxation, "
               "exactly the Figure 6(a) caveat in action")
    write_result("ext5_trace_replay", table.show())

    # wildcard users cannot run the restricted configs
    times_minife = replay_app("df_minife", APPS["df_minife"])
    assert times_minife["no wildcards"] != times_minife["no wildcards"]
    # every app that can relax gains from dropping ordering
    for app, sp in speedups.items():
        if sp == sp:  # not NaN
            assert sp > 1.0, app
    # the fine-grained-tag sweep gains the most from hashing
    comparable = {a: s for a, s in speedups.items() if s == s}
    assert max(comparable, key=comparable.get) == "df_partisn"
    # the duplicate-heavy deep-queue app prefers partitioning to hashing
    times_mg = replay_app("exact_multigrid", APPS["exact_multigrid"])
    assert times_mg["no wildcards"] < times_mg["unordered"]


def test_perf_superstep_extraction(benchmark):
    trace = generate_trace("exmatex_lulesh", n_ranks=27, steps=4)
    batches = benchmark(superstep_batches, trace, 1)
    assert len(batches) >= 4


if __name__ == "__main__":
    test_report_ext5_trace_replay()
