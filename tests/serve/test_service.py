"""MatchingService: replay determinism, pass-through equivalence,
shedding, deadline timers, and obs accounting."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.engine import MatchingEngine
from repro.core.envelope import EnvelopeBatch
from repro.obs import Observability
from repro.serve import (AdmissionPolicy, BatchPolicy, MatchingService,
                         TenantSpec, demo)
from tests.conftest import permuted_pair
from tests.serve.test_flush_pins import fabric_plane


def _batch_pair(rng, n: int = 16):
    return permuted_pair(rng, n, n_ranks=8, n_tags=4)


class TestLifecycle:
    def test_duplicate_registration_rejected(self):
        svc = MatchingService()
        svc.register(TenantSpec(name="t"))
        with pytest.raises(ValueError):
            svc.register(TenantSpec(name="t"))
        with pytest.raises(ValueError):
            MatchingService(n_shards=0)

    def test_placement_is_stable_across_instances(self):
        names = [f"tenant-{i}" for i in range(8)]
        placements = []
        for _ in range(2):
            svc = MatchingService(n_shards=4)
            for name in names:
                svc.register(TenantSpec(name=name))
            placements.append([svc._placement[n] for n in names])
        assert placements[0] == placements[1]
        assert len(set(placements[0])) > 1   # actually spreads out

    def test_size_watermark_flushes_synchronously(self, rng):
        msgs, reqs = _batch_pair(rng, 16)
        svc = MatchingService(batching=BatchPolicy(max_envelopes=32))
        svc.register(TenantSpec(name="t", autotune=False))
        ticket = svc.submit("t", msgs, reqs)
        assert ticket.accepted
        assert len(svc.results) == 1
        assert svc.results[0].covered_seqs == (0,)

    def test_deadline_timer_flushes_small_batches(self, rng):
        msgs, reqs = _batch_pair(rng, 4)
        policy = BatchPolicy(max_envelopes=10_000, max_delay_vt=0.5)
        svc = MatchingService(batching=policy)
        svc.register(TenantSpec(name="t", autotune=False))
        svc.submit("t", msgs, reqs, at_vt=1.0)
        assert svc.results == []
        fired = svc.advance_to(1.4)
        assert fired == []                    # deadline is 1.5
        fired = svc.advance_to(2.0)
        assert len(fired) == 1
        assert fired[0].flush_vt == pytest.approx(1.5)

    def test_stale_deadline_timer_is_ignored(self, rng):
        """A size-watermark flush must not double-flush when the armed
        deadline timer later fires on a fresh epoch."""
        msgs, reqs = _batch_pair(rng, 16)
        policy = BatchPolicy(max_envelopes=48, max_delay_vt=0.5)
        svc = MatchingService(batching=policy)
        svc.register(TenantSpec(name="t", autotune=False))
        svc.submit("t", msgs, reqs, at_vt=0.0)   # arms deadline at 0.5
        svc.submit("t", msgs, reqs, at_vt=0.1)   # 64 envelopes: size flush
        assert len(svc.results) == 1
        svc.advance_to(1.0)                       # stale timer fires: no-op
        assert len(svc.results) == 1

    def test_drain_retires_dead_deadline_timers(self):
        """A fabric superstep drains every accumulator, so no timer it
        armed can fire again: the workers' heaps keep only live timers
        (none), however many supersteps ran."""
        svc = fabric_plane(0)
        assert len(svc.results) > 30
        for w in svc._workers:
            assert all(w._timer_live(ev) for ev in w.loop._heap)
            assert len(w.loop) == 0


class TestShedding:
    def _overloaded_service(self):
        svc = MatchingService(
            admission=AdmissionPolicy(capacity=8, soft_fraction=0.5),
            batching=BatchPolicy(max_envelopes=10_000, max_delay_vt=10.0))
        svc.register(TenantSpec(name="t", autotune=False))
        return svc

    def test_graduated_shedding(self):
        svc = self._overloaded_service()
        msgs = EnvelopeBatch(src=[0, 1], tag=[1, 2])
        reqs = EnvelopeBatch(src=[0, 1], tag=[1, 2])
        t0 = svc.submit("t", msgs, reqs)          # depth 0 -> accepted
        t1 = svc.submit("t", msgs, reqs)          # depth 4 -> retryable
        big = EnvelopeBatch(src=list(range(5)), tag=list(range(5)))
        t2 = svc.submit("t", big, big)            # would exceed capacity
        assert t0.accepted
        assert t1.status == "retryable" and t1.retry_after_vt is not None
        assert t2.status == "overloaded"
        assert svc.shed_counts == {"retryable": 1, "overloaded": 1,
                                   "migrating": 0}

    def test_shed_requests_are_not_matched(self):
        svc = self._overloaded_service()
        msgs = EnvelopeBatch(src=[0, 1], tag=[1, 2])
        svc.submit("t", msgs, msgs)
        svc.submit("t", msgs, msgs)               # shed
        svc.drain()
        covered = [s for r in svc.results for s in r.covered_seqs]
        assert covered == [0]

    def test_oversized_request_sheds_even_when_idle(self):
        svc = self._overloaded_service()
        big = EnvelopeBatch(src=list(range(9)), tag=list(range(9)))
        ticket = svc.submit("t", big, EnvelopeBatch.empty())
        assert ticket.status == "overloaded"
        assert "capacity" in ticket.reason


class TestPassThrough:
    """A single-tenant, no-shedding, flush-per-request serve run is
    bit-identical to calling the engine directly (the serve-layer
    fast-path equivalence contract)."""

    def test_outcomes_bit_identical_to_direct_engine(self, rng):
        batches = [_batch_pair(rng, n) for n in (1, 4, 16, 32)]
        svc = MatchingService(batching=BatchPolicy(max_envelopes=1))
        svc.register(TenantSpec(name="t", autotune=False))
        for msgs, reqs in batches:
            ticket = svc.submit("t", msgs, reqs)
            assert ticket.accepted
        assert len(svc.results) == len(batches)

        spec = TenantSpec(name="direct", autotune=False)
        engine = MatchingEngine(relaxations=spec.initial_relaxations(),
                                n_queues=spec.n_queues, n_ctas=spec.n_ctas,
                                demote_on_violation=True)
        for result, (msgs, reqs) in zip(svc.results, batches):
            direct = engine.match(msgs, reqs)
            assert np.array_equal(result.outcome.request_to_message,
                                  direct.request_to_message)
            assert result.outcome.seconds == direct.seconds
            assert result.outcome.cycles == direct.cycles
            assert result.outcome.iterations == direct.iterations


class TestReplayDeterminism:
    """Two same-seed runs produce identical outcomes, shed counts, and
    retune events -- the acceptance contract of the virtual-time design."""

    def _fingerprint(self, seed: int) -> dict:
        service, workload, _ = demo(seed=seed, steps=2, n_ranks=8)
        return {
            "report": service.report(),
            "shed": service.shed_counts,
            "retunes": [(e.tenant, e.vt, e.from_label, e.to_label,
                         e.direction) for e in service.retune_events],
            "covered": [r.covered_seqs for r in service.results],
            "latencies": service.latencies_vt.tolist(),
            "matches": [r.outcome.request_to_message.tolist()
                        for r in service.results],
            "tickets": [(t.status, t.seq) for t in service.tickets],
        }

    def test_same_seed_is_bit_identical(self):
        assert self._fingerprint(seed=11) == self._fingerprint(seed=11)

    def test_report_is_json_friendly(self):
        import json
        service, _, _ = demo(seed=0, steps=2, n_ranks=8)
        json.dumps(service.report())


class TestObservability:
    def test_counters_mirror_service_accounting(self, rng):
        obs = Observability.enabled()
        msgs, reqs = _batch_pair(rng, 16)
        svc = MatchingService(batching=BatchPolicy(max_envelopes=16),
                              obs=obs)
        svc.register(TenantSpec(name="t", autotune=False))
        for _ in range(3):
            svc.submit("t", msgs, reqs)
        svc.drain()
        counters = obs.metrics.snapshot()["counters"]
        assert counters["serve.submitted"] == 3
        assert counters["serve.accepted"] == 3
        assert counters["serve.flushes"] == len(svc.results)
        assert counters["serve.matched"] == sum(
            r.outcome.matched_count for r in svc.results)

    def test_off_by_default_is_unobserved(self, rng):
        """obs=None must not be required anywhere on the serve path."""
        msgs, reqs = _batch_pair(rng, 8)
        svc = MatchingService()
        svc.register(TenantSpec(name="t"))
        svc.submit("t", msgs, reqs)
        svc.drain()
        assert svc.results
