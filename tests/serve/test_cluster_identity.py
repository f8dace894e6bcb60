"""Cross-process determinism: a same-seed cluster run is bit-identical
to the in-process :class:`MatchingService`.

The contract under test is the cluster's core relaxation payoff: serve
decisions never read wall clocks or process identity, and placement is
the same stable CRC32 hash whether ``n`` counts in-process shards or
worker processes -- so ``ClusterService(n_workers=N)`` must reproduce
``MatchingService(n_shards=N)`` exactly: same tickets, same flush
results (virtual timestamps, covered seqs, per-request latencies,
engine labels), same report dict.  Identity must survive admission
shedding (shed decisions are part of the deterministic record, not an
exception to it) and session tenants (carried state crosses flushes).

Tests default to the ``fork`` start method for speed; one smoke pins
the ``spawn`` contract (workers must rebuild everything from the wire
init blob, never inherit router memory).
"""

from __future__ import annotations

import fcntl
import multiprocessing
import os

import pytest

import repro.serve.cluster as cluster_mod
from repro.serve import (DEFAULT_BENCH_APPS, AdmissionPolicy, BatchPolicy,
                         ClusterError, ClusterService, MatchingService,
                         merge_workloads, run_cluster_workload, run_workload,
                         stable_shard, workload_from_app)
from repro.serve.loadgen import ServeWorkload


def mixed_workload(seed: int = 7, *, steps: int = 3, n_ranks: int = 24,
                   session: bool = False):
    parts = [workload_from_app("df_minife", rate_rps=2000.0,
                               n_ranks=n_ranks, steps=steps, seed=seed,
                               tenant_name="mini", session=session),
             workload_from_app("df_amg", rate_rps=1500.0, n_ranks=n_ranks,
                               steps=steps, seed=seed + 1,
                               ordering_required=False, tenant_name="amg",
                               session=session)]
    return merge_workloads("mix", parts)


def keyed_flushes(results):
    """Flush results keyed for order-independent comparison.

    The router interleaves response queues nondeterministically in wall
    time, so ``results`` list order may differ between runs; the keyed
    *content* -- everything virtual-time-derived -- may not.
    """
    out = {}
    for r in results:
        key = (r.tenant, r.flush_seq)
        assert key not in out, f"duplicate flush {key}"
        out[key] = (r.shard_id, r.flush_vt, r.covered_seqs,
                    r.latencies_vt, r.engine_label,
                    r.outcome.matched_count)
    return out


def assert_identical(cluster, service):
    assert keyed_flushes(cluster.results) == keyed_flushes(service.results)
    assert cluster.ticket_list() == service.tickets
    assert cluster.report() == service.report()


class TestClusterIdentity:
    def test_two_workers_match_two_shards(self):
        wl = mixed_workload(seed=7)
        svc, _ = run_workload(wl, n_shards=2, seed=7)
        cluster, _ = run_cluster_workload(wl, n_workers=2, seed=7,
                                          start_method="fork")
        assert cluster.report()["matched"] > 0
        assert_identical(cluster, svc)

    def test_single_worker_matches_single_shard(self):
        wl = mixed_workload(seed=11, steps=2)
        svc, _ = run_workload(wl, n_shards=1, seed=11)
        cluster, _ = run_cluster_workload(wl, n_workers=1, seed=11,
                                          start_method="fork")
        assert_identical(cluster, svc)

    def test_identity_under_admission_shedding(self):
        """Shed tickets are deterministic serve decisions: the cluster
        must shed the *same* requests with the same retry hints."""
        wl = mixed_workload(seed=13)
        admission = AdmissionPolicy(capacity=192, soft_fraction=0.5)
        batching = BatchPolicy(max_envelopes=256, max_delay_vt=0.05)
        svc, _ = run_workload(wl, n_shards=2, seed=13,
                              admission=admission, batching=batching)
        shed = svc.shed_counts
        assert shed["retryable"] + shed["overloaded"] > 0, \
            "scenario must actually shed"
        cluster, _ = run_cluster_workload(
            wl, n_workers=2, seed=13, admission=admission,
            batching=batching, start_method="fork")
        assert cluster.shed_counts == shed
        assert_identical(cluster, svc)

    def test_identity_with_session_tenants(self):
        """Persistent-UMQ carry-over crosses flush boundaries; the
        worker's carried state must evolve exactly like the shard's."""
        wl = mixed_workload(seed=17, session=True)
        svc, _ = run_workload(wl, n_shards=2, seed=17)
        cluster, _ = run_cluster_workload(wl, n_workers=2, seed=17,
                                          start_method="fork")
        assert_identical(cluster, svc)

    def test_spawn_smoke(self):
        """The spawn-safety contract: a spawned worker holds no forked
        router memory; everything arrives via the wire init blob."""
        wl = mixed_workload(seed=19, steps=2, n_ranks=8)
        svc, _ = run_workload(wl, n_shards=2, seed=19)
        cluster, _ = run_cluster_workload(wl, n_workers=2, seed=19,
                                          start_method="spawn")
        assert_identical(cluster, svc)


class TestPerShardOrder:
    def test_results_keep_each_shards_order(self):
        """Both planes may group a call's flushes by worker, but each
        shard's own result sequence is the same, in order (the keyed
        comparison above ignores order)."""
        parts = [workload_from_app(app, rate_rps=2000.0, n_ranks=16,
                                   steps=3, seed=3,
                                   ordering_required=ordered)
                 for app, ordered in (("df_minife", True),
                                      ("exmatex_lulesh", True),
                                      ("df_amg", False))]
        assert [stable_shard(p.tenants[0].name, 2) for p in parts] == \
            [1, 1, 0]
        wl = merge_workloads("ordered", parts)
        svc, _ = run_workload(wl, n_shards=2, seed=3)
        cluster, _ = run_cluster_workload(wl, n_workers=2, seed=3,
                                          start_method="fork")

        def shard_results(plane, shard_id):
            return [(r.tenant, r.flush_seq, r.flush_vt, r.covered_seqs,
                     r.latencies_vt, r.engine_label,
                     r.outcome.request_to_message.tolist())
                    for r in plane.results if r.shard_id == shard_id]

        for shard_id in (0, 1):
            expected = shard_results(svc, shard_id)
            assert expected, f"shard {shard_id} produced no flushes"
            assert shard_results(cluster, shard_id) == expected


class TestRouterMechanics:
    def test_placement_is_the_stable_hash(self):
        wl = mixed_workload(seed=7, steps=2, n_ranks=8)
        cluster, _ = run_cluster_workload(wl, n_workers=2, seed=7,
                                          start_method="fork")
        report = cluster.report()
        for spec in wl.tenants:
            assert report["tenants"][spec.name]["shard"] == \
                stable_shard(spec.name, 2)

    def test_tickets_cover_every_submission_after_sync(self):
        wl = mixed_workload(seed=23, steps=2, n_ranks=8)
        cluster, _ = run_cluster_workload(wl, n_workers=2, seed=23,
                                          start_method="fork")
        tickets = cluster.ticket_list()
        assert len(tickets) == len(wl.arrivals)
        assert [t.seq for t in tickets] == list(range(len(wl.arrivals)))

    def test_virtual_time_cannot_run_backward(self):
        wl = mixed_workload(seed=7, steps=2, n_ranks=8)
        cluster = ClusterService(n_workers=2, seed=7, start_method="fork")
        for spec in wl.tenants:
            cluster.register(spec)
        with cluster:
            a = wl.arrivals[0]
            cluster.submit(a.tenant, a.messages, a.requests, at_vt=1.0)
            with pytest.raises(ClusterError, match="backward"):
                cluster.submit(a.tenant, a.messages, a.requests,
                               at_vt=0.5)
            with pytest.raises(ClusterError, match="backward"):
                cluster.advance_to(0.25)

    def test_register_after_start_rejected(self):
        wl = mixed_workload(seed=7, steps=2, n_ranks=8)
        cluster = ClusterService(n_workers=2, seed=7, start_method="fork")
        cluster.register(wl.tenants[0])
        with cluster:
            with pytest.raises(ClusterError, match="before start"):
                cluster.register(wl.tenants[1])

    def test_worker_stats_require_sync(self):
        cluster = ClusterService(n_workers=1, seed=0, start_method="fork")
        cluster.register(mixed_workload(steps=2, n_ranks=8).tenants[0])
        with cluster:
            with pytest.raises(ClusterError, match="sync"):
                cluster.worker_stats()
            cluster.sync()
            assert len(cluster.worker_stats()) == 1

    def test_checkpoint_identity_is_preserved(self):
        """An explicit mid-run checkpoint (journal truncation included)
        must not perturb the deterministic record."""
        wl = mixed_workload(seed=29, steps=2)
        svc, _ = run_workload(wl, n_shards=2, seed=29)
        cluster = ClusterService(n_workers=2, seed=29, start_method="fork")
        for spec in wl.tenants:
            cluster.register(spec)
        with cluster:
            half = len(wl.arrivals) // 2
            for a in wl.arrivals[:half]:
                cluster.submit(a.tenant, a.messages, a.requests,
                               at_vt=a.vt)
            cluster.checkpoint_now()
            for a in wl.arrivals[half:]:
                cluster.submit(a.tenant, a.messages, a.requests,
                               at_vt=a.vt)
            cluster.advance_to(cluster.now
                               + 2.0 * cluster.batching.max_delay_vt)
            cluster.drain()
            cluster.sync()
            assert_identical(cluster, svc)


class TestRouterHardening:
    """Regressions for router races around checkpointing, shutdown, and
    harness cleanup."""

    def test_checkpoint_cadence_identity_under_tiny_queue(self,
                                                          monkeypatch):
        """checkpoint_every=1 with both pipes of every worker shrunk to
        one page maximises checkpoint requests racing full-pipe sends,
        and frames larger than the pipe cross it in parts in both
        directions; the record must stay bit-identical to the
        in-process service."""
        page = os.sysconf("SC_PAGE_SIZE")
        spawn = ClusterService._spawn
        pipe_sizes = set()

        def spawn_tiny(self, w):
            spawn(self, w)
            for end in (w.link.cmd, w.link.resp):
                fcntl.fcntl(end.fileno(), fcntl.F_SETPIPE_SZ, page)
                pipe_sizes.add(fcntl.fcntl(end.fileno(),
                                           fcntl.F_GETPIPE_SZ))

        largest = {"sent": 0, "received": 0}
        encode, decode = cluster_mod.encode_frame, cluster_mod.decode_frame

        def encode_sized(kind, payload=None):
            frame = encode(kind, payload)
            largest["sent"] = max(largest["sent"], len(frame))
            return frame

        def decode_sized(data):
            largest["received"] = max(largest["received"], len(data))
            return decode(data)

        monkeypatch.setattr(ClusterService, "_spawn", spawn_tiny)
        monkeypatch.setattr(cluster_mod, "encode_frame", encode_sized)
        monkeypatch.setattr(cluster_mod, "decode_frame", decode_sized)
        parts = [workload_from_app(app, steps=16, chunk_envelopes=256,
                                   seed=37, ordering_required=ordered)
                 for app, ordered in DEFAULT_BENCH_APPS]
        wl = merge_workloads("bench", parts)
        svc, _ = run_workload(wl, n_shards=2, seed=37)
        cluster, _ = run_cluster_workload(wl, n_workers=2, seed=37,
                                          start_method="fork",
                                          checkpoint_every=1)
        assert pipe_sizes == {page}
        assert min(largest.values()) > page
        assert_identical(cluster, svc)

    def test_stop_does_not_recover_dead_workers(self):
        """A worker found dead during shutdown is terminated at the
        join, never respawned for a journal replay it would only be
        killed after."""
        cluster = ClusterService(n_workers=2, seed=0, start_method="fork")
        wl = mixed_workload(steps=2, n_ranks=8)
        for spec in wl.tenants:
            cluster.register(spec)
        cluster.start()
        victim = cluster._workers[0]
        victim.proc.terminate()
        victim.proc.join(timeout=5.0)
        cluster.stop()
        assert cluster.recoveries == []
        assert all(not w.alive() for w in cluster._workers)

    def test_replayed_export_does_not_accumulate_blobs(self):
        """A source recovery after a completed migration replays the
        journaled export_tenant frame; the re-posted tenant_state has no
        consumer and must be dropped, not accumulated."""
        wl = mixed_workload(seed=41, steps=2)
        cluster = ClusterService(n_workers=2, seed=41, start_method="fork")
        for spec in wl.tenants:
            cluster.register(spec)
        moved = wl.tenants[0].name
        src = stable_shard(moved, 2)
        with cluster:
            half = len(wl.arrivals) // 2
            for a in wl.arrivals[:half]:
                cluster.submit(a.tenant, a.messages, a.requests,
                               at_vt=a.vt)
            cluster.begin_migration(moved, 1 - src)
            for a in wl.arrivals[half:]:
                cluster.submit(a.tenant, a.messages, a.requests,
                               at_vt=a.vt)
            cluster.advance_to(cluster.now
                               + 2.0 * cluster.batching.max_delay_vt)
            assert cluster.migrations, "migration must have cut over"
            source = cluster._workers[src]
            source.proc.terminate()
            source.proc.join(timeout=5.0)
            cluster.drain()     # finds the dead source; journal replays
            cluster.sync()
            assert any(r.worker_id == src for r in cluster.recoveries)
            assert cluster._tenant_blobs == {}

    def test_arm_exit_reports_delivery(self):
        cluster = ClusterService(n_workers=1, seed=0, start_method="fork")
        cluster.register(mixed_workload(steps=2, n_ranks=8).tenants[0])
        with cluster:
            assert cluster.arm_worker_exit(0, after_flushes=100) is True

    def test_workload_harness_stops_workers_on_error(self):
        """An exception mid-drive (here: an arrival for an unregistered
        tenant) must still stop the worker processes, and the harness
        must forward the service knobs it advertises."""
        wl = mixed_workload(seed=7, steps=2, n_ranks=8)
        bad = ServeWorkload(name="bad", tenants=wl.tenants[:1],
                            arrivals=wl.arrivals)
        assert any(a.tenant != wl.tenants[0].name for a in bad.arrivals)
        with pytest.raises(KeyError):
            run_cluster_workload(bad, n_workers=1, seed=7,
                                 start_method="fork", verify=True,
                                 op_timeout=10.0, max_respawns=3)
        leaked = [p for p in multiprocessing.active_children()
                  if p.name.startswith("repro-serve-worker")]
        assert leaked == []


class TestClusterMigration:
    def test_live_migration_preserves_results(self):
        """Migrating a tenant between worker processes mid-stream loses
        nothing: every admitted request still flushes exactly once, and
        the report lands the tenant on the destination worker."""
        wl = mixed_workload(seed=31)
        cluster = ClusterService(n_workers=2, seed=31, start_method="fork")
        for spec in wl.tenants:
            cluster.register(spec)
        moved = wl.tenants[0].name
        src = stable_shard(moved, 2)
        dst = 1 - src
        with cluster:
            half = len(wl.arrivals) // 2
            for a in wl.arrivals[:half]:
                cluster.submit(a.tenant, a.messages, a.requests,
                               at_vt=a.vt)
            mig = cluster.begin_migration(moved, dst)
            assert mig.from_worker == src and mig.to_worker == dst
            assert len(mig.state_bytes) > 0
            for a in wl.arrivals[half:]:
                cluster.submit(a.tenant, a.messages, a.requests,
                               at_vt=a.vt)
            cluster.advance_to(cluster.now
                               + 2.0 * cluster.batching.max_delay_vt)
            cluster.drain()
            cluster.sync()
            assert mig.completed_vt is not None
            report = cluster.report()
            assert report["tenants"][moved]["shard"] == dst
            covered = sorted(s for r in cluster.results
                             for s in r.covered_seqs)
            accepted = sorted(t.seq for t in cluster.ticket_list()
                              if t.accepted)
            assert covered == accepted
