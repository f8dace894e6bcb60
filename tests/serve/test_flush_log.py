"""FlushLog: the routers' columnar flush-result record.

List semantics, copy isolation in both directions, byte-identical
round trips (interned, unhashable and signed-zero meta rows), the
column-only aggregates against the per-object computation, retained
bytes per flush, and the cluster router's log against the in-process
one -- calm, and across a SIGKILL whose journal replay re-delivers
flushes the router already holds.
"""

from __future__ import annotations

import gc
import tracemalloc

import numpy as np
import pytest

from repro.core.result import MatchOutcome
from repro.serve import (DEFAULT_BENCH_APPS, BatchPolicy, FlushLog,
                         FlushResult, MatchingService, TenantSpec,
                         merge_workloads, run_cluster_workload, run_workload,
                         workload_from_app)
from repro.serve.state import dumps
from tests.conftest import permuted_pair
from tests.serve.test_flush_pins import fabric_plane


def one_request_service(rng, flushes: int = 5):
    """A service whose every submit flushes one message and one request
    (single-element match vectors, so whole results compare with ==)."""
    svc = MatchingService(batching=BatchPolicy(max_envelopes=2))
    svc.register(TenantSpec(name="t", autotune=False))
    for k in range(flushes):
        msgs, reqs = permuted_pair(rng, 1, n_ranks=4, n_tags=2)
        svc.submit("t", msgs, reqs, at_vt=k * 1e-3)
    return svc


def drained_service(rng, rounds: int = 4):
    """Two tenants on two shards; returns the service and every result
    object its ``drain`` calls routed, in routing order."""
    svc = MatchingService(n_shards=2,
                          batching=BatchPolicy(max_envelopes=10_000))
    for name in ("a", "b"):
        svc.register(TenantSpec(name=name))
    routed = []
    for k in range(rounds):
        for name in ("a", "b"):
            msgs, reqs = permuted_pair(rng, 16, n_ranks=4, n_tags=2)
            # four requests more than messages: some stay unmatched
            svc.submit(name, msgs.take(np.arange(12)), reqs,
                       at_vt=k * 1e-3)
        routed += svc.drain()
    return svc, routed


def result(meta: dict, outcome_meta: dict, **kw) -> FlushResult:
    outcome = MatchOutcome(request_to_message=[1, -1, 0], n_messages=2,
                           n_requests=3, seconds=1.5e-6, cycles=2400.0,
                           meta=outcome_meta)
    fields = dict(tenant="t", shard_id=0, flush_seq=0, flush_vt=0.25,
                  outcome=outcome, covered_seqs=(3, 4),
                  latencies_vt=(1e-3, 2e-3), engine_label="wc+ord+unexp",
                  meta=meta)
    fields.update(kw)
    return FlushResult(**fields)


class TestListSemantics:
    def test_len_index_slice_iter(self, rng):
        svc = one_request_service(rng, flushes=5)
        log = svc.results
        assert len(log) == 5 and bool(log)
        assert [r.flush_seq for r in log] == [0, 1, 2, 3, 4]
        assert log[-1].flush_seq == 4 and log[-5].flush_seq == 0
        assert [r.flush_seq for r in log[1:4]] == [1, 2, 3]
        assert [r.flush_seq for r in log[::-2]] == [4, 2, 0]
        assert isinstance(log[:0], list) and log[:0] == []
        for bad in (5, -6):
            with pytest.raises(IndexError):
                log[bad]

    def test_equality_against_lists(self, rng):
        assert FlushLog() == []
        svc = one_request_service(rng, flushes=3)
        assert svc.results != []
        assert svc.results == list(svc.results)
        assert svc.results == svc.results[:]
        assert svc.results != list(svc.results)[:2]

    def test_every_access_is_a_fresh_copy(self, rng):
        svc = one_request_service(rng, flushes=1)
        assert svc.results[0] is not svc.results[0]


class TestRoundTrip:
    def test_routed_results_encode_identically(self, rng):
        svc, routed = drained_service(rng)
        assert len(routed) == len(svc.results) == 8
        assert [dumps(r) for r in svc.results] == [dumps(r) for r in routed]

    def test_materialised_results_are_isolated(self, rng):
        svc, _ = drained_service(rng)
        before = [dumps(r) for r in svc.results]
        r = svc.results[0]
        r.meta["n_messages"] = -1
        r.outcome.meta.clear()
        r.outcome.request_to_message[:] = 0
        assert [dumps(r) for r in svc.results] == before

    def test_appended_result_is_copied_in(self):
        log = FlushLog()
        original = result({"n": 1}, {"phase_cycles": {"scan": 1.0},
                                     "demotions": [("a", "b", "why")]})
        expected = dumps(original)
        log.append(original)
        original.meta["n"] = 2
        original.outcome.meta["phase_cycles"]["scan"] = 9.0
        original.outcome.meta["demotions"].append(("b", "c", "again"))
        original.outcome.request_to_message[:] = -1
        assert dumps(log[0]) == expected

    def test_unhashable_meta_round_trips_isolated(self):
        meta = {"demotions": [("wc+ord+unexp", "nowc+ord+unexp", "why",
                               0.5, 7.0)],
                "phase_cycles": {"scan": 10.0, "reduce": 2.5},
                "plan": {"nested": {"deeper": [1, 2]}}}
        log = FlushLog()
        log.append(result({"carried": 0}, meta))
        log.append(result({"carried": 0}, dict(meta, demotions=[])))
        expected = [dumps(result({"carried": 0}, meta)),
                    dumps(result({"carried": 0}, dict(meta, demotions=[])))]
        assert [dumps(r) for r in log] == expected
        log[0].outcome.meta["demotions"].clear()
        log[0].outcome.meta["plan"]["nested"]["deeper"].append(3)
        assert [dumps(r) for r in log] == expected

    def test_equal_but_differently_typed_values_stay_apart(self):
        """1 == 1.0 == True and 0.0 == -0.0, but each encodes
        differently: interning must not merge their rows."""
        log = FlushLog()
        originals = [result({"v": v}, {"phase_cycles": {"scan": z}})
                     for v in (1, 1.0, True) for z in (0.0, -0.0)]
        for r in originals:
            log.append(r)
        assert [dumps(r) for r in log] == [dumps(r) for r in originals]
        assert [type(r.meta["v"]) for r in log] == [int, int, float, float,
                                                    bool, bool]

    def test_meta_rows_are_interned(self):
        log = fabric_plane(0).results
        assert len(log) > 30
        assert len(log._rows) <= 4


class TestAggregates:
    def test_latencies_and_report_match_objects(self, rng):
        svc, _ = drained_service(rng)
        results = list(svc.results)
        lats = np.asarray([lat for r in results for lat in r.latencies_vt],
                          dtype=float)
        assert svc.latencies_vt.dtype == lats.dtype
        np.testing.assert_array_equal(svc.latencies_vt, lats)
        report = svc.report()
        assert report["flushes"] == len(results)
        assert report["matched"] == sum(r.outcome.matched_count
                                        for r in results)
        assert 0 < report["matched"] < sum(r.outcome.n_requests
                                           for r in results)

    def test_empty_log_aggregates(self):
        svc = MatchingService()
        assert svc.latencies_vt.shape == (0,)
        assert svc.report()["matched"] == 0

    def test_retained_bytes_per_fabric_flush(self):
        """A fabric-coll-shaped run's flushes (~3 matches each) cost at
        most 400 bytes apiece in the log (~1,460 as result objects)."""
        results = [r for seed in range(8) for r in fabric_plane(seed).results]
        gc.collect()
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            log = FlushLog()
            for r in results:
                log.append(r)
            gc.collect()
            retained = tracemalloc.get_traced_memory()[0] - base
        finally:
            tracemalloc.stop()
        assert len(log) == len(results) > 250
        assert retained / len(log) <= 400


def cluster_mix_workload(seed: int = 0):
    """One lap of the cluster-mix stream: the three default bench apps
    in 256-envelope chunks."""
    parts = [workload_from_app(app, steps=16, chunk_envelopes=256,
                               seed=seed, rate_rps=2000.0,
                               ordering_required=ordered)
             for app, ordered in DEFAULT_BENCH_APPS]
    return merge_workloads("cluster-mix", parts)


def keyed_encodings(results) -> dict:
    return {(r.tenant, r.flush_seq): dumps(r) for r in results}


class TestClusterLog:
    @pytest.mark.parametrize("arm_exit", [None, (0, 3)])
    def test_cluster_log_encodes_like_in_process(self, arm_exit):
        """Every result in a one-worker fork cluster's log encodes
        byte-identically to the same-seed one-shard service's; with a
        SIGKILL mid-flush, the journal replay's duplicate flushes are
        absorbed, not logged twice."""
        workload = cluster_mix_workload(seed=0)
        svc, _ = run_workload(workload, n_shards=1, seed=0, promote_after=2)
        cluster, _ = run_cluster_workload(
            workload, n_workers=1, seed=0, promote_after=2,
            start_method="fork", checkpoint_every=4, arm_exit=arm_exit)
        assert len(cluster.recoveries) == (0 if arm_exit is None else 1)
        assert len(cluster.results) == len(svc.results) > 8
        assert keyed_encodings(cluster.results) == keyed_encodings(
            svc.results)
        assert cluster.report() == svc.report()
