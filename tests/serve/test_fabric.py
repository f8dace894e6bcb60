"""Cross-shard tenants and the combining collective fabric.

Differential contract: every collective in :mod:`repro.mpi.collectives`
run over a spanning tenant's :class:`~repro.serve.fabric.CollectiveBridge`
is result-identical to (a) the same collective on a direct
:class:`~repro.mpi.process.Cluster` and (b) the single-shard serve path;
and a same-seed fabric run is bit-identical between the in-process
:class:`~repro.serve.service.MatchingService` and the multi-process
:class:`~repro.serve.cluster.ClusterService` (fork and spawn).
"""

from __future__ import annotations

import pytest

from repro.core.envelope import MAX_TAG
from repro.mpi import CartGraph, Cluster, Communicator
from repro.mpi import collectives as C
from repro.serve import (ClusterService, CollectiveBridge, FabricError,
                         FabricLink, MatchingService, TenantSpec)

SPAN = 4


def make_service(n_shards: int, seed: int = 7) -> MatchingService:
    svc = MatchingService(n_shards=n_shards, seed=seed)
    svc.register(TenantSpec(name="mpi", span=SPAN, autotune=False))
    return svc


def add(a, b):
    return a + b


# name -> callable(comm_like) -> comparable result
COLLECTIVES = {
    "barrier": lambda comm: C.barrier(comm),
    "bcast": lambda comm: C.bcast(comm, 1, ("payload", 1)),
    "gather": lambda comm: C.gather(comm, 0, [("c", r) for r in range(SPAN)]),
    "scatter": lambda comm: C.scatter(comm, 2, [("p", r) for r in range(SPAN)]),
    "alltoall": lambda comm: C.alltoall(
        comm, [[(i, j) for j in range(SPAN)] for i in range(SPAN)]),
    "reduce": lambda comm: C.reduce(comm, 2, [1, 2, 3, 4], add),
    "allreduce": lambda comm: C.allreduce(comm, [1, 2, 3, 4], add),
    "allgather": lambda comm: C.allgather(comm, list("abcd")),
    "scan": lambda comm: C.scan(comm, [1, 2, 3, 4], add),
}


def keyed_flushes(plane) -> dict:
    return {(r.tenant, r.flush_seq):
            (r.flush_vt, tuple(r.covered_seqs), tuple(r.latencies_vt),
             r.engine_label, tuple(r.outcome.request_to_message.tolist()))
            for r in plane.results}


class TestSpanSpec:
    def test_sub_specs_names_and_span(self):
        spec = TenantSpec(name="t", span=3, autotune=False)
        subs = spec.sub_specs()
        assert [s.name for s in subs] == ["t#0", "t#1", "t#2"]
        assert all(s.span == 1 for s in subs)

    def test_span_one_expands_to_itself(self):
        spec = TenantSpec(name="t")
        assert spec.sub_specs() == [spec]

    def test_validation(self):
        with pytest.raises(ValueError):
            TenantSpec(name="t", span=0)
        with pytest.raises(ValueError, match="'#'"):
            TenantSpec(name="a#b", span=2)
        with pytest.raises(ValueError, match="session"):
            TenantSpec(name="t", span=2, session=True)

    def test_register_expands_and_routes(self):
        svc = make_service(n_shards=3)
        assert svc.sub_tenants("mpi") == [f"mpi#{i}" for i in range(SPAN)]
        assert svc.sub_tenants("mpi#0") == ["mpi#0"]
        with pytest.raises(KeyError):
            svc.sub_tenants("nope")
        with pytest.raises(ValueError, match="already registered"):
            svc.register(TenantSpec(name="mpi"))

    def test_spec_state_roundtrip_carries_span(self):
        from repro.serve.state import dumps, loads
        spec = TenantSpec(name="t", span=3, autotune=False)
        assert loads(dumps(spec)) == spec


class TestDifferential:
    @pytest.mark.parametrize("name", sorted(COLLECTIVES))
    def test_bridge_matches_direct_cluster_and_single_shard(self, name):
        run = COLLECTIVES[name]
        direct = run(Communicator(Cluster(SPAN)))
        multi = run(CollectiveBridge(make_service(n_shards=3), "mpi"))
        single = run(CollectiveBridge(make_service(n_shards=1), "mpi"))
        assert multi == direct
        assert single == direct

    def test_point_to_point_over_fabric(self):
        bridge = CollectiveBridge(make_service(n_shards=3), "mpi")
        req = bridge.irecv(1, 0, tag=5)
        bridge.isend(0, 1, b"hello", tag=5)
        assert req.wait() == b"hello"

    def test_reserved_tags_rejected_on_bridge_api(self):
        bridge = CollectiveBridge(make_service(n_shards=3), "mpi")
        with pytest.raises(ValueError, match="reserved collective"):
            bridge.isend(0, 1, b"x", tag=MAX_TAG)
        with pytest.raises(ValueError, match="reserved collective"):
            bridge.irecv(1, 0, tag=MAX_TAG)

    def test_send_buffer_snapshotted_at_isend(self):
        bridge = CollectiveBridge(make_service(n_shards=3), "mpi")
        buf = [1, 2, 3]
        req = bridge.irecv(1, 0, tag=1)
        bridge.isend(0, 1, buf, tag=1)
        buf.append(99)   # mutation after isend must not be visible
        assert req.wait() == [1, 2, 3]

    def test_unmatched_recv_fails_fast(self):
        """Stateless superstep: an unsatisfiable receive raises instead
        of pinning state into the next superstep."""
        bridge = CollectiveBridge(make_service(n_shards=3), "mpi")
        req = bridge.irecv(1, 0, tag=7)   # nobody sends
        with pytest.raises(FabricError, match="not matched"):
            req.wait()

    def test_fabric_traffic_bypasses_admission(self):
        svc = make_service(n_shards=3)
        C.alltoall(CollectiveBridge(svc, "mpi"),
                   [[(i, j) for j in range(SPAN)] for i in range(SPAN)])
        rep = svc.report()
        assert rep["accepted"] == 0          # no client submissions
        assert rep["shed_overloaded"] == 0
        assert rep["submitted"] > 0          # fabric seqs are accounted


class TestCombining:
    def occupied_shards(self, svc):
        return sorted({svc.fabric_shard(t) for t in svc.sub_tenants("mpi")})

    def test_alltoall_one_batch_per_ordered_pair(self):
        """The acceptance criterion: one combined fabric batch per
        ordered (src shard, dst shard) pair per superstep, regardless of
        how many rank pairs communicate."""
        svc = make_service(n_shards=3)
        bridge = CollectiveBridge(svc, "mpi")
        occ = self.occupied_shards(svc)
        assert len(occ) > 1   # the span must actually cross shards
        C.alltoall(bridge, [[(i, j) for j in range(SPAN)]
                            for i in range(SPAN)])
        fabric = bridge.fabric
        assert fabric.supersteps == 1
        n_pairs = len(occ) * (len(occ) - 1)
        assert fabric.pair_batches_total == n_pairs
        assert all(count == 1
                   for count in fabric.per_pair_batches.values())
        assert set(fabric.per_pair_batches) == {
            (s, d) for s in occ for d in occ if s != d}

    def test_neighbor_alltoall_at_most_one_batch_per_ordered_pair(self):
        """A sparse neighborhood collective over a periodic Cartesian
        grid coalesces too: each superstep sends at most one combined
        batch per ordered occupied-shard pair (sparsity can drop pairs,
        never multiply batches)."""
        svc = make_service(n_shards=3)
        bridge = CollectiveBridge(svc, "mpi")
        occ = self.occupied_shards(svc)
        assert len(occ) > 1
        topo = CartGraph((SPAN // 2, 2), periodic=True)
        supersteps = 3
        for _ in range(supersteps):
            got = C.neighbor_alltoall(
                bridge, topo,
                [[(r, d) for d in topo.destinations(r)]
                 for r in range(SPAN)])
        assert got == [[(s, d) for s in topo.sources(d)]
                       for d in range(SPAN)]
        fabric = bridge.fabric
        assert fabric.supersteps == supersteps
        assert fabric.pair_batches_total > 0   # traffic crossed shards
        assert set(fabric.per_pair_batches) <= {
            (s, d) for s in occ for d in occ if s != d}
        assert all(count <= supersteps
                   for count in fabric.per_pair_batches.values())

    def test_combine_ratio_counts_messages_per_pair_batch(self):
        svc = make_service(n_shards=3)
        bridge = CollectiveBridge(svc, "mpi")
        C.alltoall(bridge, [[(i, j) for j in range(SPAN)]
                            for i in range(SPAN)])
        fabric = bridge.fabric
        # every cross-shard rank pair's message rode a combined batch
        per_shard = {}
        for t in svc.sub_tenants("mpi"):
            per_shard.setdefault(svc.fabric_shard(t), []).append(t)
        crossing = sum(len(a) * len(b)
                       for sa, a in per_shard.items()
                       for sb, b in per_shard.items() if sa != sb)
        assert fabric.fabric_messages_total == crossing
        assert fabric.combine_ratio == crossing / fabric.pair_batches_total
        assert fabric.combine_ratio > 1.0

    def test_wire_time_charged_once_per_pair_batch(self):
        link = FabricLink(bytes_per_envelope=100,
                          bandwidth_bytes_per_vs=1e6, latency_vs=1e-3)
        svc = make_service(n_shards=3)
        bridge = CollectiveBridge(svc, "mpi", link=link)
        reqs = []
        for j in range(SPAN):
            for i in range(SPAN):
                if i != j:
                    reqs.append(bridge.coll_irecv(j, i, 1))
        for i in range(SPAN):
            for j in range(SPAN):
                if i != j:
                    bridge.coll_isend(i, j, (i, j), 1)
        fl = bridge.step()
        # the superstep advances by the *largest* pair batch's wire time
        # -- batches travel concurrently, each charged once
        per_pair = {}
        for t in svc.sub_tenants("mpi"):
            per_pair.setdefault(svc.fabric_shard(t), []).append(t)
        counts = [len(a) * len(b) for sa, a in per_pair.items()
                  for sb, b in per_pair.items() if sa != sb]
        expected = max(link.wire_seconds(n) for n in counts)
        assert fl.end_vt - fl.start_vt == pytest.approx(expected)
        for r in reqs:
            r.wait()

    def test_single_shard_span_is_all_local(self):
        svc = make_service(n_shards=1)
        bridge = CollectiveBridge(svc, "mpi")
        C.alltoall(bridge, [[(i, j) for j in range(SPAN)]
                            for i in range(SPAN)])
        fabric = bridge.fabric
        assert fabric.pair_batches_total == 0
        assert fabric.local_messages_total == SPAN * (SPAN - 1)
        assert fabric.wire_seconds_total == 0.0

    def test_pair_block_shares_one_packed_cache(self):
        """The combined block is packed once; delivered segment slices
        reuse the cache (zero re-marshalling)."""
        captured = []
        svc = make_service(n_shards=3)
        orig = svc.fabric_deliver

        def spy(dst_shard, xfer):
            captured.append(xfer)
            orig(dst_shard, xfer)

        svc.fabric_deliver = spy
        C.alltoall(CollectiveBridge(svc, "mpi"),
                   [[(i, j) for j in range(SPAN)] for i in range(SPAN)])
        blocks = [x["block"] for x in captured if x["block"] is not None]
        assert blocks
        for block in blocks:
            assert block._packed is not None
            for x in captured:
                if x["block"] is block:
                    for seg in x["segments"]:
                        sl = block[seg["start"]:seg["stop"]]
                        assert sl._packed is not None


def run_collectives_over(plane):
    bridge = CollectiveBridge(plane, "mpi")
    out = {name: run(bridge) for name, run in sorted(COLLECTIVES.items())}
    return out, bridge.fabric


class TestClusterIdentity:
    def test_fork_identity_full_suite(self):
        svc = make_service(n_shards=3)
        out_s, fab_s = run_collectives_over(svc)
        rep_s = svc.report()
        cl = ClusterService(n_workers=3, seed=7, start_method="fork")
        cl.register(TenantSpec(name="mpi", span=SPAN, autotune=False))
        with cl:
            out_c, fab_c = run_collectives_over(cl)
            rep_c = cl.report()
        assert out_c == out_s
        assert keyed_flushes(cl) == keyed_flushes(svc)
        assert rep_c == rep_s
        assert (fab_c.pair_batches_total, fab_c.fabric_messages_total,
                fab_c.per_pair_batches, fab_c.wire_seconds_total) == \
               (fab_s.pair_batches_total, fab_s.fabric_messages_total,
                fab_s.per_pair_batches, fab_s.wire_seconds_total)

    def test_spawn_smoke(self):
        svc = make_service(n_shards=2)
        bridge_s = CollectiveBridge(svc, "mpi")
        out_s = C.alltoall(bridge_s, [[(i, j) for j in range(SPAN)]
                                      for i in range(SPAN)])
        cl = ClusterService(n_workers=2, seed=7, start_method="spawn")
        cl.register(TenantSpec(name="mpi", span=SPAN, autotune=False))
        with cl:
            bridge_c = CollectiveBridge(cl, "mpi")
            out_c = C.alltoall(bridge_c, [[(i, j) for j in range(SPAN)]
                                          for i in range(SPAN)])
            assert keyed_flushes(cl) == keyed_flushes(svc)
        assert out_c == out_s
