"""Cluster recovery, migration and rebalancing: the router is the one
path for all three.

Every case runs a fork :class:`ClusterService`: checkpoint cadence and
journal truncation, a chaos SIGKILL that recovers exactly once and stays
bit-identical to the calm in-process run, the migration gate (only
``migrating``-hinted sheds), session carry-over across a migration,
:meth:`ClusterService.rebalance`, and a prompt, clean :meth:`stop`.
"""

from __future__ import annotations

import fcntl
import os
import time
from collections import defaultdict

import pytest

from repro.core.envelope import EnvelopeBatch
from repro.serve import (MIGRATING, BatchPolicy, ClusterService,
                         RebalancePolicy, TenantSpec, merge_workloads,
                         run_cluster_workload, run_workload, stable_shard,
                         workload_from_app)
from repro.serve.cluster import _Link
from repro.serve.state import loads
from tests.serve.test_cluster_identity import assert_identical
from tests.serve.test_cluster_transport import bench_stream

# small size watermark: every arrival chunk triggers a synchronous
# flush, so kill and checkpoint cadences have flushes to count.
BATCHING = BatchPolicy(max_envelopes=64, max_delay_vt=0.001)


def _workload(seed: int = 3, names: tuple[str, str] | None = None,
              session: bool = True):
    mini, amg = names if names is not None else (None, None)
    parts = [workload_from_app("df_minife", rate_rps=4000.0, n_ranks=8,
                               steps=3, chunk_envelopes=64, seed=seed,
                               tenant_name=mini, session=session),
             workload_from_app("df_amg", rate_rps=4000.0, n_ranks=8,
                               steps=3, chunk_envelopes=64, seed=seed + 1,
                               ordering_required=False, tenant_name=amg,
                               session=session)]
    return merge_workloads("recovered", parts)


def _cluster(workload, seed: int = 5, **kw) -> ClusterService:
    cluster = ClusterService(n_workers=2, seed=seed, batching=BATCHING,
                             start_method="fork", **kw)
    for spec in workload.tenants:
        cluster.register(spec)
    return cluster


def _busiest_worker(workload) -> int:
    """Worker hosting the tenant with the most arrivals -- the one
    guaranteed to flush often enough for an armed kill to fire."""
    counts: dict[str, int] = {}
    for arrival in workload.arrivals:
        counts[arrival.tenant] = counts.get(arrival.tenant, 0) + 1
    return stable_shard(max(counts, key=lambda n: (counts[n], n)), 2)


def _exactly_once(cluster) -> None:
    accepted = {t.seq for t in cluster.ticket_list() if t.accepted}
    covered = [s for r in cluster.results for s in r.covered_seqs]
    assert len(covered) == len(set(covered)), "a request matched twice"
    assert set(covered) == accepted, "admitted requests lost"


def _finish(cluster) -> None:
    cluster.advance_to(cluster.now + 2.0 * cluster.batching.max_delay_vt)
    cluster.drain()
    cluster.sync()


class TestCheckpoints:
    def test_checkpoint_cadence_truncates_journal(self):
        workload = _workload()
        cluster, _ = run_cluster_workload(
            workload, n_workers=2, seed=5, batching=BATCHING,
            start_method="fork", checkpoint_every=2)
        flushes = [0, 0]
        for r in cluster.results:
            flushes[r.shard_id] += 1
        for w in cluster._workers:
            if flushes[w.worker_id] >= 4:
                assert w.checkpoint is not None
            # the journal holds only frames sent after the latest blob
            assert len(w.journal) < len(workload.arrivals)
        assert any(w.checkpoint is not None for w in cluster._workers)
        _exactly_once(cluster)

    def test_checkpoint_size_does_not_grow_with_flushes(self):
        """A worker checkpoint carries worker state, not the flush
        results the router already holds: a stateless tenant's blob
        after 64 flushes is at most twice its size after 8."""
        cluster = ClusterService(
            n_workers=1, seed=0, start_method="fork",
            batching=BatchPolicy(max_envelopes=8, max_delay_vt=1.0))
        cluster.register(TenantSpec(name="t", autotune=False))
        msgs = EnvelopeBatch(src=[0, 1, 2, 3], tag=[5, 5, 5, 5])
        sizes = []
        with cluster:
            for k in range(64):
                cluster.submit("t", msgs, msgs, at_vt=k * 1e-3)  # 1 flush
                if k + 1 in (8, 64):
                    cluster.checkpoint_now(0)
                    sizes.append(len(cluster._workers[0].checkpoint))
            cluster.sync()
        assert len(cluster.results) == 64
        assert sizes[1] <= 2 * sizes[0]

    def test_bad_cadence_rejected(self):
        with pytest.raises(ValueError):
            ClusterService(n_workers=2, checkpoint_every=0)


def _record_checkpoints(monkeypatch) -> dict[int, list[int]]:
    """From now on, record each worker's checkpoint positions: the
    ``flushes_done`` of every checkpoint blob the router reads, in
    order."""
    positions: dict[int, list[int]] = defaultdict(list)
    handle = ClusterService._handle

    def recording(self, w, kind, payload):
        if kind == "checkpointed":
            positions[w.worker_id].append(
                loads(payload["blob"])["flushes_done"])
        handle(self, w, kind, payload)

    monkeypatch.setattr(ClusterService, "_handle", recording)
    return positions


def _shrink_pipes(monkeypatch) -> None:
    """Shrink both pipes of every worker spawned from now on to one
    page."""
    spawn = ClusterService._spawn

    def spawn_tiny(self, w):
        spawn(self, w)
        for end in (w.link.cmd, w.link.resp):
            fcntl.fcntl(end.fileno(), fcntl.F_SETPIPE_SZ,
                        os.sysconf("SC_PAGE_SIZE"))

    monkeypatch.setattr(ClusterService, "_spawn", spawn_tiny)


class TestCheckpointCadence:
    """Each worker checkpoints itself every ``checkpoint_every`` flushes
    it makes, so where its checkpoints fall is fixed by the frame
    stream, not by when the router happens to read its replies."""

    def test_cadence_checkpoints_follow_the_frame_stream(self,
                                                         monkeypatch):
        """The same seeded kill at default and at one-page pipes takes
        the same checkpoints and recovers the same way."""
        workload = _workload()
        victim = _busiest_worker(workload)
        runs = []
        for tiny in (False, True):
            with monkeypatch.context() as patch:
                positions = _record_checkpoints(patch)
                if tiny:
                    _shrink_pipes(patch)
                cluster, _ = run_cluster_workload(
                    workload, n_workers=2, seed=5, batching=BATCHING,
                    start_method="fork", checkpoint_every=2,
                    arm_exit=(victim, 5))
            _exactly_once(cluster)
            runs.append((dict(positions),
                         [(r.worker_id, r.respawn, r.replayed_frames,
                           r.had_checkpoint) for r in cluster.recoveries]))
        assert runs[0] == runs[1]
        assert [r[0] for r in runs[0][1]] == [victim]

    def test_cadence_is_exact(self, monkeypatch):
        """One worker on the cluster-mix stream takes exactly one
        checkpoint per ``checkpoint_every`` flushes, the k-th within its
        k-th cadence epoch."""
        specs, arrivals = bench_stream(laps=2)
        positions = _record_checkpoints(monkeypatch)
        cluster = ClusterService(n_workers=1, seed=0, start_method="fork",
                                 promote_after=2)
        for spec in specs:
            cluster.register(spec)
        with cluster:
            for vt, a in arrivals:
                cluster.submit(a.tenant, a.messages, a.requests, at_vt=vt)
            _finish(cluster)
        every, flushes = cluster.checkpoint_every, len(cluster.results)
        assert every == 8 and flushes >= 4 * every
        assert ([p // every for p in positions[0]]
                == list(range(1, flushes // every + 1)))

    def test_kill_after_a_cadence_checkpoint_restores_it(self,
                                                         monkeypatch):
        """A worker killed on the flush right after a cadence checkpoint
        recovers from that checkpoint and replays only the frames sent
        after it, even when the checkpoint reply lands after the
        barrier's first read: a dead worker's last replies are read
        before it is reaped."""
        cluster = ClusterService(
            n_workers=1, seed=0, start_method="fork", checkpoint_every=2,
            batching=BatchPolicy(max_envelopes=8, max_delay_vt=1.0))
        cluster.register(TenantSpec(name="t", autotune=False))
        msgs = EnvelopeBatch(src=[0, 1, 2, 3], tag=[5, 5, 5, 5])
        with cluster:
            worker = cluster._workers[0]
            assert cluster.arm_worker_exit(0, after_flushes=3)
            for k in range(4):   # one flush each; no reply read yet
                cluster._submit("t", msgs, msgs, at_vt=k * 1e-3)
            worker.proc.join(timeout=10.0)
            assert not worker.alive()
            read, late = _Link.read, [True]

            def read_late(link):
                if late:   # as if the replies landed just after this read
                    late.clear()
                    return []
                return read(link)

            monkeypatch.setattr(_Link, "read", read_late)
            cluster.sync()
        (record,) = cluster.recoveries
        assert record.had_checkpoint
        assert record.replayed_frames == 2   # the submits after flush 2
        assert len(cluster.results) == 4
        _exactly_once(cluster)


class TestCrashRecovery:
    def test_kill_recover_loses_nothing(self):
        """A worker SIGKILLed mid-flush (after its accumulator drained)
        recovers once from checkpoint + journal: zero admitted requests
        lost, none matched twice, bit-identical to the calm run."""
        workload = _workload()
        calm, _ = run_workload(workload, n_shards=2, seed=5,
                               batching=BATCHING)
        victim = _busiest_worker(workload)
        cluster, _ = run_cluster_workload(
            workload, n_workers=2, seed=5, batching=BATCHING,
            start_method="fork", checkpoint_every=2,
            arm_exit=(victim, 2))
        assert len(cluster.recoveries) == 1
        record = cluster.recoveries[0]
        assert record.worker_id == victim
        assert record.wall_seconds > 0.0
        _exactly_once(cluster)
        assert_identical(cluster, calm)

    def test_recovery_replays_only_the_victims_journal(self):
        """Only the dead worker is respawned; the survivor's frames are
        never re-executed."""
        workload = _workload()
        victim = _busiest_worker(workload)
        cluster, _ = run_cluster_workload(
            workload, n_workers=2, seed=5, batching=BATCHING,
            start_method="fork", checkpoint_every=100,  # journal grows
            arm_exit=(victim, 1))
        assert [r.worker_id for r in cluster.recoveries] == [victim]
        assert cluster._workers[1 - victim].respawns == 0
        _exactly_once(cluster)

    def test_arm_exit_validates(self):
        with pytest.raises(ValueError):
            ClusterService(n_workers=2).arm_worker_exit(0, after_flushes=0)


class TestMigration:
    def test_migration_under_load_never_drops(self):
        """During the gate every submission for the moving tenant gets a
        ``migrating`` ticket whose hint *is* the cutover time -- never an
        ``overloaded`` drop -- and after the cutover the tenant serves
        from the destination worker."""
        workload = _workload()
        src = _busiest_worker(workload)
        mover = next(s.name for s in workload.tenants
                     if stable_shard(s.name, 2) == src)
        trigger = len(workload.arrivals) // 3
        plan = None
        arrivals = {}
        with _cluster(workload, checkpoint_every=4) as cluster:
            for i, arrival in enumerate(workload.arrivals):
                if i == trigger:
                    plan = cluster.begin_migration(mover, 1 - src)
                seq = cluster.submit(arrival.tenant, arrival.messages,
                                     arrival.requests, at_vt=arrival.vt)
                arrivals[seq] = (arrival, plan is not None
                                 and plan.completed_vt is None)
            cluster.advance_to(plan.cutover_vt + 1.0)   # fire the cutover
            cluster.sync()
            deferred = []
            for seq, (arrival, gated) in arrivals.items():
                ticket = cluster.tickets[seq]
                assert ticket.status != "overloaded"
                if arrival.tenant == mover and gated:
                    assert ticket.status == MIGRATING
                    assert ticket.retry_after_vt == plan.cutover_vt
                    deferred.append(arrival)
                else:
                    assert ticket.status != MIGRATING
            assert deferred, "no arrival fell inside the gate window"
            retried = [cluster.submit(a.tenant, a.messages, a.requests)
                       for a in deferred]            # retries now land
            _finish(cluster)
            assert all(cluster.tickets[seq].accepted for seq in retried)
            assert plan.completed_vt is not None
            assert cluster.report()["tenants"][mover]["shard"] == 1 - src
            _exactly_once(cluster)
            assert cluster.shed_counts["overloaded"] == 0
            assert cluster.shed_counts["migrating"] == len(deferred)
            assert cluster.migrations == [plan]

    def test_migration_preserves_session_carryover(self):
        """A session tenant's carried UMQ moves with it: envelopes
        unmatched before the migration still match after the cutover."""
        cluster = ClusterService(
            n_workers=2, start_method="fork",
            batching=BatchPolicy(max_envelopes=4, max_delay_vt=1.0))
        cluster.register(TenantSpec(name="t", autotune=False, session=True))
        msgs = EnvelopeBatch(src=[0, 1, 2, 3], tag=[7, 7, 7, 7])
        with cluster:
            cluster.submit("t", msgs, EnvelopeBatch.empty())  # 4 unmatched
            cluster.sync()
            assert cluster.report()["tenants"]["t"]["carryover_depth"] == 4
            plan = cluster.begin_migration("t", 1 - stable_shard("t", 2))
            cluster.advance_to(plan.cutover_vt + 1.0)
            cluster.sync()
            moved = cluster.report()["tenants"]["t"]
            assert moved["shard"] == plan.to_worker
            assert moved["carryover_depth"] == 4          # moved with it
            cluster.submit("t", EnvelopeBatch.empty(), msgs)  # requests
            cluster.drain()
            cluster.sync()
        last = max(cluster.results, key=lambda r: r.flush_seq)
        assert last.outcome.matched_count == 4

    def test_released_tenant_leaves_no_timers(self):
        """The source must cancel the mover's deadline timers at release:
        one firing later would name a tenant the worker no longer
        hosts and kill it."""
        cluster = ClusterService(
            n_workers=2, start_method="fork",
            batching=BatchPolicy(max_envelopes=64, max_delay_vt=1.0))
        cluster.register(TenantSpec(name="t", autotune=False))
        msgs = EnvelopeBatch(src=[0, 1, 2, 3], tag=[7, 7, 7, 7])
        with cluster:
            cluster.submit("t", msgs, msgs, at_vt=0.0)   # timer at vt 1.0
            plan = cluster.begin_migration("t", 1 - stable_shard("t", 2))
            cluster.advance_to(plan.cutover_vt + 1.0)    # release, then 1.0
            cluster.sync()
            assert cluster.recoveries == []
            assert plan.completed_vt is not None
        assert [r.outcome.matched_count for r in cluster.results] == [4]

    def test_begin_migration_validates(self):
        workload = _workload()
        mover = workload.tenants[0].name
        here = stable_shard(mover, 2)
        with _cluster(workload) as cluster:
            with pytest.raises(ValueError):
                cluster.begin_migration(mover, here)
            with pytest.raises(ValueError):
                cluster.begin_migration(mover, 99)
            cluster.begin_migration(mover, 1 - here)
            with pytest.raises(ValueError, match="already migrating"):
                cluster.begin_migration(mover, 1 - here)


def _colocated_names(worker: int = 0) -> tuple[str, str]:
    """Two tenant names the stable hash places on the same worker."""
    names = [f"hot{k}" for k in range(64) if stable_shard(f"hot{k}", 2)
             == worker]
    return names[0], names[1]


class TestRebalance:
    def test_hot_worker_sheds_its_hottest_tenant(self):
        """Two tenants on one worker make it carry 100% of the windowed
        volume; rebalance() must move the hotter one to the idle
        worker."""
        workload = _workload(names=_colocated_names(0))
        policy = RebalancePolicy(hot_fraction=0.5, min_flushes=2,
                                 cooldown_flushes=2)
        with _cluster(workload, checkpoint_every=4) as cluster:
            for arrival in workload.arrivals:
                cluster.submit(arrival.tenant, arrival.messages,
                               arrival.requests, at_vt=arrival.vt)
            volumes = None
            plan = None
            # ticks: the first begins the migration, a later one fires
            # the scheduled cutover
            for _ in range(4):
                cluster.advance_to(cluster.now
                                   + 2.0 * cluster.batching.max_delay_vt)
                if plan is None:
                    plan = cluster.rebalance(policy)
                    volumes = cluster.worker_stats()[0]["tenant_volumes"]
            _finish(cluster)
            assert plan is not None, "hot spot was never rebalanced"
            assert (plan.from_worker, plan.to_worker) == (0, 1)
            assert plan.tenant == max(volumes,
                                      key=lambda n: (volumes[n], n))
            assert cluster.migrations == [plan]
            assert sorted(cluster.report()["tenants"][n]["shard"]
                          for n in cluster.tenant_names) == [0, 1]
            _exactly_once(cluster)

    def test_policy_validates(self):
        for bad in (0.0, 1.0, 1.5):
            with pytest.raises(ValueError):
                RebalancePolicy(hot_fraction=bad)

    def test_single_tenant_worker_is_left_alone(self):
        workload = workload_from_app("df_minife", rate_rps=4000.0,
                                     n_ranks=8, steps=2,
                                     chunk_envelopes=64, seed=3)
        policy = RebalancePolicy(hot_fraction=0.5, min_flushes=1,
                                 cooldown_flushes=1)
        with _cluster(workload) as cluster:
            for arrival in workload.arrivals:
                cluster.submit(arrival.tenant, arrival.messages,
                               arrival.requests, at_vt=arrival.vt)
                if arrival.vt > 0.004:
                    assert cluster.rebalance(policy) is None
            _finish(cluster)
            assert len(cluster.results) >= policy.min_flushes
            assert cluster.rebalance(policy) is None
            assert cluster.migrations == []  # moving the hotspot helps nobody


class TestStop:
    @pytest.mark.parametrize("start_method", ["fork", "spawn"])
    def test_stop_is_prompt_with_checkpoint_in_flight(self, start_method):
        """A worker's reply blob can outgrow the pipe buffer; stop() must
        read it (awaiting ``bye``) instead of waiting out a join timeout
        and SIGTERMing the worker."""
        cluster = ClusterService(n_workers=1, seed=0,
                                 start_method=start_method)
        cluster.register(TenantSpec(name="t"))
        msgs = EnvelopeBatch(src=[k % 8 for k in range(64)],
                             tag=[k % 5 for k in range(64)])
        with cluster:
            for k in range(100):
                cluster.submit("t", msgs, msgs, at_vt=k * 1e-3)
            cluster.drain()
            cluster.sync()
            worker = cluster._workers[0]
            cluster._send(worker, "checkpoint")
            proc = worker.proc
            t0 = time.perf_counter()
        assert time.perf_counter() - t0 < 0.5
        assert proc.exitcode == 0
