"""Partitioned channels over the combining fabric.

Differential contract: a same-seed partitioned superstep sequence is
bit-identical between the in-process :class:`MatchingService` and the
multi-process :class:`ClusterService`, and each channel epoch costs
exactly one matched envelope regardless of partition count.
"""

from __future__ import annotations

import pytest

from repro.serve import (ClusterService, CollectiveBridge, FabricError,
                         FabricLink, MatchingService, TenantSpec)

SPAN = 4


def make_service(n_shards: int, seed: int = 7) -> MatchingService:
    svc = MatchingService(n_shards=n_shards, seed=seed)
    svc.register(TenantSpec(name="mpi", span=SPAN, autotune=False))
    return svc


def keyed_flushes(plane) -> dict:
    return {(r.tenant, r.flush_seq):
            (r.flush_vt, tuple(r.covered_seqs), tuple(r.latencies_vt),
             r.engine_label, tuple(r.outcome.request_to_message.tolist()))
            for r in plane.results}


def drive_epochs(plane, *, epochs: int, partitions: int) -> list:
    bridge = CollectiveBridge(plane, "mpi")
    ps = bridge.psend_init(0, 1, partitions, tag=3)
    pr = bridge.precv_init(1, 0, partitions, tag=3)
    out = []
    for epoch in range(epochs):
        ps.start()
        pr.start()
        for i in range(partitions):
            ps.pready(i, (epoch, i))
        ps.wait()
        out.append(pr.wait())
    return out


class TestEpochs:
    def test_payloads_delivered_in_index_order_across_epochs(self):
        out = drive_epochs(make_service(3), epochs=3, partitions=5)
        assert out == [[(e, i) for i in range(5)] for e in range(3)]

    def test_one_match_per_channel_epoch(self):
        svc = make_service(3)
        drive_epochs(svc, epochs=4, partitions=16)
        # 64 partition transfers, but matching only ever saw the four
        # binding envelopes
        assert svc.report()["matched"] == 4

    def test_parrived_after_superstep(self):
        bridge = CollectiveBridge(make_service(2), "mpi")
        ps = bridge.psend_init(0, 1, 3, tag=1)
        pr = bridge.precv_init(1, 0, 3, tag=1)
        ps.start()
        pr.start()
        ps.pready_range(0, 3, ["a", "b", "c"])
        assert not pr.parrived(0)  # superstep has not run yet
        ps.wait()
        assert pr.parrived(0) and pr.parrived(2)
        assert pr.wait() == ["a", "b", "c"]

    def test_pready_range_fast_path_charges_bytes(self):
        bridge = CollectiveBridge(make_service(2), "mpi")
        ps = bridge.psend_init(0, 1, 8, tag=1, bytes_per_partition=100)
        pr = bridge.precv_init(1, 0, 8, tag=1)
        ps.start()
        pr.start()
        ps.pready_range(0, 8)
        assert ps._wire.nbytes == 800
        ps.wait()
        assert pr.wait() == [None] * 8

    def test_partition_bytes_grow_wire_time(self):
        def wire_for(bpp: int) -> float:
            # n_shards=3 places ranks 0 and 1 on different shards, so
            # the channel actually crosses the fabric (all-local
            # traffic is never charged wire time)
            svc = make_service(3)
            bridge = CollectiveBridge(svc, "mpi",
                                      link=FabricLink(bytes_per_envelope=16))
            ps = bridge.psend_init(0, 1, 8, tag=1, bytes_per_partition=bpp)
            pr = bridge.precv_init(1, 0, 8, tag=1)
            ps.start()
            pr.start()
            ps.pready_range(0, 8)
            ps.wait()
            pr.wait()
            return bridge.fabric.wire_seconds_total

        assert wire_for(1 << 16) > wire_for(8) > 0


class TestErrorPaths:
    def test_pready_after_flush_rejected(self):
        bridge = CollectiveBridge(make_service(2), "mpi")
        ps = bridge.psend_init(0, 1, 2, tag=1)
        pr = bridge.precv_init(1, 0, 2, tag=1)
        ps.start()
        pr.start()
        ps.pready(0)
        with pytest.raises(FabricError, match="never"):
            ps.wait()  # partition 1 missing
        ps._state["mask"][1] = True
        ps.wait()  # flushes the superstep
        ps2 = bridge.psend_init(0, 1, 2, tag=2)
        ps2.start()
        bridge.step()
        with pytest.raises(RuntimeError, match="superstep flushed"):
            ps2.pready(0)
        with pytest.raises(RuntimeError, match="superstep flushed"):
            ps2.pready_range(0, 2)

    def test_double_pready_rejected_on_both_paths(self):
        bridge = CollectiveBridge(make_service(2), "mpi")
        ps = bridge.psend_init(0, 1, 4, tag=1).start()
        bridge.precv_init(1, 0, 4, tag=1).start()
        ps.pready(1)
        with pytest.raises(RuntimeError, match="already marked"):
            ps.pready(1)
        with pytest.raises(RuntimeError, match=r"\[1\] already"):
            ps.pready_range(0, 4)

    def test_pready_range_bounds(self):
        bridge = CollectiveBridge(make_service(2), "mpi")
        ps = bridge.psend_init(0, 1, 4, tag=1).start()
        bridge.precv_init(1, 0, 4, tag=1).start()
        with pytest.raises(IndexError):
            ps.pready_range(0, 5)
        with pytest.raises(IndexError):
            ps.pready_range(-1, 2)

    def test_pready_range_is_all_or_nothing(self):
        bridge = CollectiveBridge(make_service(2), "mpi")
        ps = bridge.psend_init(0, 1, 4, tag=1).start()
        bridge.precv_init(1, 0, 4, tag=1).start()
        with pytest.raises(IndexError):
            ps.pready_range(0, 5, payloads=list("abcde"))
        with pytest.raises(IndexError):
            ps.pready_range(3, 1, payloads=[])
        assert not ps._state["mask"].any()
        assert ps._wire.nbytes == 0

    def test_partition_count_mismatch(self):
        bridge = CollectiveBridge(make_service(2), "mpi")
        ps = bridge.psend_init(0, 1, 4, tag=5)
        pr = bridge.precv_init(1, 0, 8, tag=5)
        ps.start()
        pr.start()
        ps.pready_range(0, 4)
        ps.wait()
        with pytest.raises(FabricError, match="mismatch"):
            pr.wait()

    def test_binding_tag_shared_with_plain_traffic(self):
        bridge = CollectiveBridge(make_service(2), "mpi")
        pr = bridge.precv_init(1, 0, 2, tag=4)
        pr.start()
        bridge.isend(0, 1, "plain", tag=4)
        bridge.step()
        with pytest.raises(FabricError, match="non-partitioned"):
            pr.wait()

    def test_epoch_skew_detected(self):
        bridge = CollectiveBridge(make_service(2), "mpi")
        ps = bridge.psend_init(0, 1, 2, tag=6)
        pr = bridge.precv_init(1, 0, 2, tag=6)
        pr.epoch = 3  # receiver thinks it is ahead
        ps.start()
        pr.start()
        ps.pready_range(0, 2)
        ps.wait()
        with pytest.raises(FabricError, match="epoch skew"):
            pr.wait()

    def test_validation(self):
        bridge = CollectiveBridge(make_service(2), "mpi")
        with pytest.raises(ValueError):
            bridge.psend_init(0, 1, 0)
        with pytest.raises(ValueError):
            bridge.psend_init(0, 1, 2, bytes_per_partition=-1)
        with pytest.raises(ValueError):
            bridge.psend_init(0, SPAN, 2)


class TestClusterIdentity:
    def test_fork_bit_identity(self):
        svc = make_service(3)
        out_s = drive_epochs(svc, epochs=3, partitions=8)
        rep_s = svc.report()
        cl = ClusterService(n_workers=3, seed=7, start_method="fork")
        cl.register(TenantSpec(name="mpi", span=SPAN, autotune=False))
        with cl:
            out_c = drive_epochs(cl, epochs=3, partitions=8)
            rep_c = cl.report()
        assert out_c == out_s
        assert keyed_flushes(cl) == keyed_flushes(svc)
        assert rep_c == rep_s


class TestNeighborhoodOverFabric:
    """The bridge duck-types the collective surface, so the topology
    collectives route through the combining fabric unchanged; their
    sparse edges must agree with a direct in-process Cluster run."""

    @staticmethod
    def _drive(comm):
        from repro.mpi import CartGraph, neighbor_alltoall
        topo = CartGraph((2, 2), periodic=False)
        sends = [[(r, d) for d in topo.destinations(r)]
                 for r in range(topo.n_ranks)]
        return neighbor_alltoall(comm, topo, sends)

    def test_bridge_matches_direct_cluster(self):
        from repro.mpi import Cluster, Communicator
        bridge = CollectiveBridge(make_service(3), "mpi")
        direct = Communicator(Cluster(SPAN))
        assert self._drive(bridge) == self._drive(direct)

    def test_bridge_matches_fork_cluster(self):
        svc = make_service(3)
        out_s = self._drive(CollectiveBridge(svc, "mpi"))
        cl = ClusterService(n_workers=3, seed=7, start_method="fork")
        cl.register(TenantSpec(name="mpi", span=SPAN, autotune=False))
        with cl:
            out_c = self._drive(CollectiveBridge(cl, "mpi"))
        assert out_c == out_s
        assert keyed_flushes(cl) == keyed_flushes(svc)
