"""Serve-layer chaos: kill/recover/migrate/rebalance under lossy transport.

Runs outside the tier-1 gate (marked ``chaos``; deselected by default
via ``addopts``).  CI runs it with three fixed seeds; locally:

    PYTHONPATH=src python -m pytest tests/chaos -m chaos -q

Seeds come from ``CHAOS_SEEDS`` (comma-separated), matching the MPI
chaos suite's matrix.

Every case drives a fork :class:`ClusterService` -- the one recovery
and migration path.  Transport drop is a seeded filter over the
arrivals (10% lost before they reach the router).  The invariants:
a SIGKILLed worker recovers from checkpoint + journal with **zero
admitted requests lost and none matched twice**; a live migration sheds
only ``migrating``-hinted retries (never ``overloaded`` drops); and a
run with a kill, rebalancing and drop replays bit-identically for a
fixed seed -- tickets, flushes, recoveries and migrations.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.serve import (MIGRATING, BatchPolicy, ClusterService,
                         RebalancePolicy, ServeWorkload, merge_workloads,
                         run_cluster_workload, run_workload, stable_shard,
                         workload_from_app)

pytestmark = pytest.mark.chaos

SEEDS = [int(s) for s in os.environ.get("CHAOS_SEEDS", "11,23,47").split(",")]

DROP_FRACTION = 0.1

BATCHING = BatchPolicy(max_envelopes=32, max_delay_vt=0.001)


def chaos_workload(seed: int, names: tuple[str, str] = ("mini", "amg")):
    parts = [workload_from_app("df_minife", rate_rps=4000.0, n_ranks=32,
                               steps=5, chunk_envelopes=8, seed=seed,
                               tenant_name=names[0], session=True),
             workload_from_app("df_amg", rate_rps=4000.0, n_ranks=16,
                               steps=3, chunk_envelopes=32, seed=seed + 1,
                               ordering_required=False,
                               tenant_name=names[1], session=True)]
    return merge_workloads("chaos", parts)


def lossy(workload, drop_seed: int) -> ServeWorkload:
    """Lossy transport: each arrival is dropped with probability
    ``DROP_FRACTION`` by a seeded filter, before it reaches the router."""
    rng = np.random.default_rng(drop_seed)
    kept = [a for a in workload.arrivals if rng.random() >= DROP_FRACTION]
    assert len(kept) < len(workload.arrivals), "the filter dropped nothing"
    return ServeWorkload(name=workload.name, tenants=workload.tenants,
                         arrivals=kept)


def busiest(workload) -> str:
    counts: dict[str, int] = {}
    for arrival in workload.arrivals:
        counts[arrival.tenant] = counts.get(arrival.tenant, 0) + 1
    return max(counts, key=lambda n: (counts[n], n))


def colocated_names() -> tuple[str, str]:
    """Two tenant names the stable hash places on worker 0 of two."""
    names = [f"hot{k}" for k in range(64) if stable_shard(f"hot{k}", 2) == 0]
    return names[0], names[1]


def new_cluster(workload, seed: int, **kw) -> ClusterService:
    cluster = ClusterService(n_workers=2, seed=seed, batching=BATCHING,
                             start_method="fork", **kw)
    for spec in workload.tenants:
        cluster.register(spec)
    return cluster


def assert_exactly_once(cluster) -> None:
    accepted = {t.seq for t in cluster.ticket_list() if t.accepted}
    covered = [s for r in cluster.results for s in r.covered_seqs]
    assert len(covered) == len(set(covered)), "a request matched twice"
    assert set(covered) == accepted, "admitted requests lost"


def keyed_flushes(results):
    return {(r.tenant, r.flush_seq): (r.shard_id, r.flush_vt,
                                      r.covered_seqs, r.latencies_vt,
                                      r.engine_label,
                                      r.outcome.request_to_message.tolist())
            for r in results}


def retry_migrating(cluster, seqs: dict) -> None:
    """Re-issue every ``migrating`` ticket's request at its hinted time
    (the cutover), then run out the timers and collect everything."""
    cluster.sync()
    deferred = [(t.retry_after_vt, seqs[t.seq])
                for t in cluster.ticket_list() if t.status == MIGRATING]
    for hint, arrival in sorted(deferred, key=lambda d: d[0]):
        cluster.submit(arrival.tenant, arrival.messages, arrival.requests,
                       at_vt=max(hint, cluster.now))
    cluster.advance_to(cluster.now + 2.0 * cluster.batching.max_delay_vt)
    cluster.drain()
    cluster.sync()


@pytest.mark.parametrize("seed", SEEDS)
def test_kill_recover_under_transport_drop(seed):
    """A SIGKILLed worker under 10% drop recovers with zero loss, and the
    record equals the calm in-process run over the same lossy stream."""
    workload = lossy(chaos_workload(seed), seed + 100)
    victim = stable_shard(busiest(workload), 2)
    calm, _ = run_workload(workload, n_shards=2, seed=seed,
                           batching=BATCHING)
    cluster, _ = run_cluster_workload(
        workload, n_workers=2, seed=seed, batching=BATCHING,
        start_method="fork", checkpoint_every=2, arm_exit=(victim, 2))
    assert cluster.recoveries, "the armed kill never fired"
    assert {r.worker_id for r in cluster.recoveries} == {victim}
    assert all(r.wall_seconds > 0.0 for r in cluster.recoveries)
    assert_exactly_once(cluster)
    assert keyed_flushes(cluster.results) == keyed_flushes(calm.results)
    assert cluster.ticket_list() == calm.tickets


@pytest.mark.parametrize("seed", SEEDS)
def test_migrate_under_transport_drop(seed):
    """A live migration under drop sheds only ``migrating``-hinted
    retries, and each retry lands on the destination exactly once."""
    workload = lossy(chaos_workload(seed), seed + 200)
    mover = busiest(workload)
    src = stable_shard(mover, 2)
    trigger = len(workload.arrivals) // 3
    seqs = {}
    with new_cluster(workload, seed) as cluster:
        for i, arrival in enumerate(workload.arrivals):
            if i == trigger:
                plan = cluster.begin_migration(mover, 1 - src)
            seqs[cluster.submit(arrival.tenant, arrival.messages,
                                arrival.requests, at_vt=arrival.vt)] = arrival
        cluster.sync()
        for ticket in cluster.ticket_list():
            if not ticket.accepted:                   # only hinted sheds
                assert ticket.status == MIGRATING
                assert seqs[ticket.seq].tenant == mover
                assert ticket.retry_after_vt == plan.cutover_vt
        retry_migrating(cluster, seqs)
        assert_exactly_once(cluster)
        assert cluster.shed_counts["migrating"] > 0
        assert cluster.shed_counts["overloaded"] == 0
        assert cluster.shed_counts["retryable"] == 0
        assert cluster.migrations == [plan]
        assert cluster.report()["tenants"][mover]["shard"] == 1 - src
        assert all(t.accepted for t in cluster.ticket_list()
                   if t.seq >= len(workload.arrivals))


@pytest.mark.parametrize("seed", SEEDS)
def test_chaos_run_replays_bit_identically(seed):
    """Kill + rebalance + drop, run twice with the same seed: every
    ticket, flush, recovery and migration must be identical -- chaos is
    inside the deterministic replay envelope.

    Checkpoints are taken at fixed points (``checkpoint_now``), not on
    the flush cadence, whose timing follows response arrival in wall
    time and would move the journal truncation point between runs.
    """
    policy = RebalancePolicy(hot_fraction=0.5, min_flushes=2,
                             cooldown_flushes=2)

    def fingerprint():
        workload = lossy(chaos_workload(seed, colocated_names()),
                         seed + 300)
        seqs = {}
        with new_cluster(workload, seed, checkpoint_every=10_000) as cluster:
            quarter = len(workload.arrivals) // 4
            for i, arrival in enumerate(workload.arrivals):
                if i == quarter:
                    cluster.checkpoint_now()
                    cluster.arm_worker_exit(0, after_flushes=2)
                if i and i % 4 == 0:
                    cluster.rebalance(policy)
                seqs[cluster.submit(arrival.tenant, arrival.messages,
                                    arrival.requests,
                                    at_vt=arrival.vt)] = arrival
            retry_migrating(cluster, seqs)
            assert_exactly_once(cluster)
        return {
            "tickets": [(t.status, t.seq, t.retry_after_vt)
                        for t in cluster.ticket_list()],
            "flushes": keyed_flushes(cluster.results),
            "recoveries": [(r.worker_id, r.replayed_frames)
                           for r in cluster.recoveries],
            "migrations": [(m.tenant, m.from_worker, m.to_worker,
                            m.started_vt, m.cutover_vt, m.completed_vt)
                           for m in cluster.migrations],
        }
    first, second = fingerprint(), fingerprint()
    assert first == second
    assert first["recoveries"], "the armed kill never fired"
    assert first["migrations"], "the hot spot was never rebalanced"
