"""MPI-4 partitioned communication: match once, re-fire many."""

from __future__ import annotations

import pytest

from repro.mpi import (Cluster, Communicator, FaultPlan, FaultSpec,
                       chaos_plan, precv_init, psend_init)


def make_comm(p: int, **kw) -> Communicator:
    return Communicator(Cluster(p, **kw))


def total_matches(comm: Communicator) -> int:
    return sum(ep.matches_total for ep in comm.cluster.endpoints)


def run_epoch(ps, pr, payloads) -> list:
    ps.start()
    pr.start()
    for i, p in enumerate(payloads):
        ps.pready(i, p)
    ps.wait()
    return pr.wait()


class TestMatchOnce:
    def test_one_match_per_epoch_regardless_of_partitions(self):
        comm = make_comm(2)
        ps = psend_init(comm, 0, 1, partitions=16, tag=3)
        pr = precv_init(comm, 1, 0, partitions=16, tag=3)
        before = total_matches(comm)
        for epoch in range(5):
            got = run_epoch(ps, pr, [(epoch, i) for i in range(16)])
            assert got == [(epoch, i) for i in range(16)]
        # 5 epochs x 16 partitions, but exactly 5 matched envelopes:
        # the binding is the only message that ever enters matching
        assert total_matches(comm) - before == 5

    def test_partition_frames_bypass_umq(self):
        comm = make_comm(2)
        ps = psend_init(comm, 0, 1, partitions=4, tag=1)
        pr = precv_init(comm, 1, 0, partitions=4, tag=1)
        run_epoch(ps, pr, list(range(4)))
        router = comm.cluster.partitioned
        stats = router.stats()
        assert stats["frames_total"] == 4
        assert stats["channels"] >= 1
        assert stats["staged_pending"] == 0

    def test_init_performs_no_communication(self):
        comm = make_comm(2)
        psend_init(comm, 0, 1, partitions=8)
        precv_init(comm, 1, 0, partitions=8)
        before = total_matches(comm)
        comm.cluster.drain()
        assert total_matches(comm) == before


class TestPerPartitionCompletion:
    def test_parrived_tracks_individual_partitions(self):
        comm = make_comm(2)
        ps = psend_init(comm, 0, 1, partitions=4, tag=2)
        pr = precv_init(comm, 1, 0, partitions=4, tag=2)
        ps.start()
        pr.start()
        ps.pready(2, "two")
        assert pr.parrived(2)
        assert not pr.parrived(0)
        ps.pready_range(0, 2, ["zero", "one"])
        ps.pready(3, "three")
        assert pr.parrived(0) and pr.parrived(1) and pr.parrived(3)
        ps.wait()
        assert pr.wait() == ["zero", "one", "two", "three"]

    def test_send_side_test_requires_all_fired(self):
        comm = make_comm(2)
        ps = psend_init(comm, 0, 1, partitions=3)
        pr = precv_init(comm, 1, 0, partitions=3)
        ps.start()
        pr.start()
        ps.pready(0)
        assert not ps.test()
        ps.pready_range(1, 3)
        assert ps.test()
        ps.wait()
        pr.wait()

    def test_frames_arriving_before_binding_are_staged(self):
        """Sender fires everything before the receiver even starts:
        frames stage in the router, then drain at bind."""
        comm = make_comm(2)
        ps = psend_init(comm, 0, 1, partitions=4, tag=9)
        pr = precv_init(comm, 1, 0, partitions=4, tag=9)
        ps.start()
        for i in range(4):
            ps.pready(i, i * 10)
        comm.cluster.drain()  # frames land with no bound receiver
        assert comm.cluster.partitioned.stats()["staged_pending"] == 4
        pr.start()
        assert pr.wait() == [0, 10, 20, 30]
        ps.wait()
        assert comm.cluster.partitioned.stats()["staged_pending"] == 0


class TestErrorPaths:
    def test_double_start_rejected(self):
        comm = make_comm(2)
        ps = psend_init(comm, 0, 1, partitions=2)
        ps.start()
        with pytest.raises(RuntimeError, match="already-active"):
            ps.start()

    def test_ops_require_start(self):
        comm = make_comm(2)
        ps = psend_init(comm, 0, 1, partitions=2)
        pr = precv_init(comm, 1, 0, partitions=2)
        with pytest.raises(RuntimeError, match="inactive"):
            ps.pready(0)
        with pytest.raises(RuntimeError, match="inactive"):
            pr.parrived(0)
        with pytest.raises(RuntimeError, match="inactive"):
            ps.wait()

    def test_double_pready_rejected(self):
        comm = make_comm(2)
        ps = psend_init(comm, 0, 1, partitions=2).start()
        ps.pready(0)
        with pytest.raises(RuntimeError, match="already marked ready"):
            ps.pready(0)

    def test_index_out_of_range(self):
        comm = make_comm(2)
        ps = psend_init(comm, 0, 1, partitions=2).start()
        with pytest.raises(IndexError):
            ps.pready(2)

    def test_pready_range_is_all_or_nothing(self):
        comm = make_comm(2)
        ps = psend_init(comm, 0, 1, partitions=4).start()
        with pytest.raises(IndexError):
            ps.pready_range(0, 5)
        with pytest.raises(IndexError):
            ps.pready_range(3, 1)
        assert not ps._ready.any()
        comm.cluster.drain()
        assert comm.cluster.partitioned.stats()["frames_total"] == 0

    def test_wait_requires_every_partition_fired(self):
        comm = make_comm(2)
        ps = psend_init(comm, 0, 1, partitions=3).start()
        ps.pready(1)
        with pytest.raises(RuntimeError, match=r"\[0, 2\]"):
            ps.wait()

    def test_partition_count_mismatch(self):
        comm = make_comm(2)
        ps = psend_init(comm, 0, 1, partitions=4, tag=5)
        pr = precv_init(comm, 1, 0, partitions=8, tag=5)
        ps.start()
        pr.start()
        for i in range(4):
            ps.pready(i)
        with pytest.raises(ValueError, match="mismatch"):
            pr.wait()

    def test_epoch_skew_detected(self):
        comm = make_comm(2)
        ps = psend_init(comm, 0, 1, partitions=2, tag=6)
        pr = precv_init(comm, 1, 0, partitions=2, tag=6)
        pr.epoch = 3  # receiver thinks it is ahead
        ps.start()
        pr.start()
        ps.pready_range(0, 2)
        ps.wait()
        with pytest.raises(RuntimeError, match="epoch skew"):
            pr.wait()

    def test_binding_tag_shared_with_plain_traffic(self):
        """A partitioned receive that matches an ordinary send fails
        loudly instead of binding garbage."""
        comm = make_comm(2)
        pr = precv_init(comm, 1, 0, partitions=2, tag=4)
        pr.start()
        comm.isend(0, 1, "plain message", tag=4)
        with pytest.raises(RuntimeError, match="non-partitioned"):
            pr.wait()

    def test_validation(self):
        comm = make_comm(2)
        with pytest.raises(ValueError):
            psend_init(comm, 0, 1, partitions=0)
        with pytest.raises(ValueError):
            psend_init(comm, 0, 1, partitions=2, bytes_per_partition=-1)


class TestWireAccounting:
    def test_partition_bytes_charged_on_the_wire(self):
        comm = make_comm(2)
        base = comm.cluster.transfer_seconds
        ps = psend_init(comm, 0, 1, partitions=8,
                        bytes_per_partition=1 << 16)
        pr = precv_init(comm, 1, 0, partitions=8)
        run_epoch(ps, pr, [None] * 8)
        big = comm.cluster.transfer_seconds - base

        comm2 = make_comm(2)
        ps2 = psend_init(comm2, 0, 1, partitions=8, bytes_per_partition=8)
        pr2 = precv_init(comm2, 1, 0, partitions=8)
        run_epoch(ps2, pr2, [None] * 8)
        small = comm2.cluster.transfer_seconds
        assert big > small > 0


class TestUnderFaults:
    @pytest.mark.parametrize("spec", [
        FaultSpec(drop=0.2),
        FaultSpec(duplicate=0.3),
        FaultSpec(reorder=0.4),
        FaultSpec(drop=0.1, duplicate=0.1, reorder=0.1, delay=0.1),
    ], ids=["drop", "duplicate", "reorder", "mixed"])
    def test_epochs_complete_with_payload_integrity(self, spec):
        comm = make_comm(2, fault_plan=FaultPlan(seed=11, default=spec))
        ps = psend_init(comm, 0, 1, partitions=8, tag=6)
        pr = precv_init(comm, 1, 0, partitions=8, tag=6)
        for epoch in range(4):
            got = run_epoch(ps, pr, [(epoch, i) for i in range(8)])
            assert got == [(epoch, i) for i in range(8)]

    def test_chaos_run_matches_clean_run(self):
        def drive(cluster: Cluster) -> list:
            comm = Communicator(cluster)
            ps = psend_init(comm, 0, 1, partitions=6, tag=2)
            pr = precv_init(comm, 1, 0, partitions=6, tag=2)
            out = []
            for epoch in range(3):
                out.append(run_epoch(
                    ps, pr, [(epoch, i, "x" * i) for i in range(6)]))
            return out

        clean = drive(Cluster(2))
        chaotic = drive(Cluster(2, fault_plan=chaos_plan(seed=3)))
        assert clean == chaotic

    def test_match_once_survives_faults(self):
        comm = make_comm(2, fault_plan=chaos_plan(seed=7))
        ps = psend_init(comm, 0, 1, partitions=12, tag=1)
        pr = precv_init(comm, 1, 0, partitions=12, tag=1)
        before = total_matches(comm)
        for epoch in range(3):
            run_epoch(ps, pr, list(range(12)))
        # retransmitted bindings are deduplicated by the reliability
        # layer, so matching still sees exactly one envelope per epoch
        assert total_matches(comm) - before == 3
