"""Autotuner: the Table II lattice walk, hysteresis, and rebuild costs."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.adaptive import RELAUNCH_OVERHEAD_CYCLES
from repro.core.envelope import ANY_SOURCE, EnvelopeBatch
from repro.core.relaxations import RelaxationSet
from repro.core.result import MatchOutcome
from repro.serve import (LATTICE, Autotuner, MatchingService, StreamProfiler,
                         TenantSpec, WorkloadProfile, lattice_rank)

MATRIX, PARTITIONED, HASH = LATTICE


def profile(*, wildcard_fraction: float = 0.0,
            dominant_fraction: float = 0.0) -> WorkloadProfile:
    """A synthetic windowed profile with the knobs the policy reads."""
    return WorkloadProfile(
        n_messages=100,
        src_wildcard_fraction=wildcard_fraction, tag_wildcard_fraction=0.0,
        dominant_tuple_fraction=dominant_fraction)


class TestLattice:
    def test_three_points_in_rank_order(self):
        assert [lattice_rank(r) for r in LATTICE] == [0, 1, 2]
        assert MATRIX.label() == "wc+ord+unexp"
        assert PARTITIONED.label() == "nowc+ord+unexp"
        assert HASH.label() == "nowc+noord+unexp"

    def test_rank_ignores_unexpected_axis(self):
        assert lattice_rank(RelaxationSet(wildcards=False, ordering=True,
                                          unexpected=False)) == 1


class TestTargets:
    def test_wildcards_pin_matrix(self):
        tuner = Autotuner(TenantSpec(name="t", ordering_required=False))
        assert tuner.target_rank(profile(wildcard_fraction=0.1)) == 0

    def test_ordering_contract_caps_at_partitioned(self):
        tuner = Autotuner(TenantSpec(name="t", ordering_required=True))
        assert tuner.target_rank(profile()) == 1

    def test_unordered_hash_friendly_reaches_hash(self):
        tuner = Autotuner(TenantSpec(name="t", ordering_required=False))
        assert tuner.target_rank(profile()) == 2

    def test_dominant_tuple_blocks_hash(self):
        tuner = Autotuner(TenantSpec(name="t", ordering_required=False))
        assert tuner.target_rank(profile(dominant_fraction=0.4)) == 1

    def test_diverse_duplicates_do_not_block_hash(self):
        """High aggregate duplication with no dominant tuple (df_AMG's
        shape: the same neighbour/tag pairs re-sent every sweep) keeps
        probe chains short and must stay hash-eligible."""
        msgs = EnvelopeBatch(src=np.arange(100) % 10, tag=[0] * 100)
        profiler = StreamProfiler()
        profiler.ingest(msgs, msgs, MatchOutcome(
            request_to_message=np.arange(100), n_messages=100,
            n_requests=100))
        p = profiler.profile()
        assert p.dominant_tuple_fraction == pytest.approx(0.09)
        tuner = Autotuner(TenantSpec(name="t", ordering_required=False))
        assert tuner.target_rank(p) == 2


class TestWalk:
    def test_wildcard_tenant_stays_on_matrix(self):
        tuner = Autotuner(TenantSpec(name="t"), promote_after=1)
        for _ in range(5):
            assert tuner.consider(MATRIX, profile(wildcard_fraction=0.2),
                                  0.0) is None
        assert tuner.events == []

    def test_promotion_to_partitioned_after_streak(self):
        tuner = Autotuner(TenantSpec(name="t", ordering_required=True),
                          promote_after=3)
        clean = profile()
        assert tuner.consider(MATRIX, clean, 0.1) is None
        assert tuner.consider(MATRIX, clean, 0.2) is None
        new = tuner.consider(MATRIX, clean, 0.3)
        assert new == PARTITIONED
        (event,) = tuner.events
        assert event.direction == "promote"
        assert event.from_label == "wc+ord+unexp"
        assert event.to_label == "nowc+ord+unexp"
        assert event.vt == pytest.approx(0.3)

    def test_promotion_to_hash_needs_declared_unordered(self):
        tuner = Autotuner(TenantSpec(name="t", ordering_required=False),
                          promote_after=1)
        new = tuner.consider(MATRIX, profile(), 0.0)
        assert new == HASH
        assert tuner.events[-1].to_label == "nowc+noord+unexp"

    def test_demotion_is_immediate(self):
        tuner = Autotuner(TenantSpec(name="t", ordering_required=False),
                          promote_after=5)
        new = tuner.consider(HASH, profile(wildcard_fraction=0.5), 1.0)
        assert new == MATRIX
        assert tuner.events[-1].direction == "demote"

    def test_reason_cites_the_dominance_gate(self):
        """An unordered tenant held off the hash point is explained by
        the statistic the gate reads: the dominant-tuple fraction
        against its threshold."""
        tuner = Autotuner(TenantSpec(name="t", ordering_required=False))
        assert tuner.consider(HASH, profile(dominant_fraction=0.3),
                              1.0) == PARTITIONED
        (event,) = tuner.events
        assert event.direction == "demote"
        assert "dominant" in event.reason
        assert "30%" in event.reason and "25%" in event.reason
        assert "duplicate" not in event.reason

    def test_every_transition_charges_one_relaunch(self):
        tuner = Autotuner(TenantSpec(name="t", ordering_required=False),
                          promote_after=1)
        tuner.consider(MATRIX, profile(), 0.0)               # promote
        tuner.consider(HASH, profile(wildcard_fraction=1.0), 1.0)  # demote
        assert len(tuner.events) == 2
        for event in tuner.events:
            assert event.extra_cycles == RELAUNCH_OVERHEAD_CYCLES
            assert event.extra_seconds > 0.0

    def test_interrupted_streak_restarts(self):
        tuner = Autotuner(TenantSpec(name="t"), promote_after=2)
        clean, wild = profile(), profile(wildcard_fraction=0.3)
        assert tuner.consider(MATRIX, clean, 0.0) is None   # streak 1
        assert tuner.consider(MATRIX, wild, 0.1) is None    # target = current
        assert tuner.consider(MATRIX, clean, 0.2) is None   # streak restarts
        assert tuner.consider(MATRIX, clean, 0.3) == PARTITIONED

    def test_stable_workload_never_oscillates(self):
        """Once settled on the right point, no further retunes happen."""
        tuner = Autotuner(TenantSpec(name="t", ordering_required=True),
                          promote_after=2)
        current = MATRIX
        clean = profile()
        for i in range(20):
            new = tuner.consider(current, clean, float(i))
            if new is not None:
                current = new
        assert current == PARTITIONED
        assert len(tuner.events) == 1   # one promotion, then steady state

    def test_pinned_tenant_never_retuned(self):
        spec = TenantSpec(name="t", relaxations=HASH)
        assert spec.autotune is False
        tuner = Autotuner(spec, promote_after=1)
        assert tuner.consider(HASH, profile(wildcard_fraction=1.0),
                              0.0) is None
        assert tuner.events == []

    def test_external_demotion_carries_no_extra_cost(self):
        tuner = Autotuner(TenantSpec(name="t"))
        tuner.record_external_demotion("nowc+ord+unexp", "wc+ord+unexp",
                                       "wildcard in batch", 2.0)
        (event,) = tuner.events
        assert event.extra_cycles == 0.0 and event.extra_seconds == 0.0
        assert event.direction == "demote"
        assert "engine demotion" in event.reason

    def test_rejects_bad_promote_after(self):
        with pytest.raises(ValueError):
            Autotuner(TenantSpec(name="t"), promote_after=0)


class TestEndToEnd:
    """The acceptance lattice walk, through the full service."""

    def _drive(self, spec: TenantSpec, messages, requests,
               rounds: int = 6) -> MatchingService:
        svc = MatchingService(n_shards=1, seed=3, promote_after=2,
                              profile_window=2)
        svc.register(spec)
        for i in range(rounds):
            svc.submit(spec.name, messages, requests,
                       at_vt=float(i) * 0.01)
            svc.drain()
        return svc

    def test_wildcard_stream_stays_matrix(self):
        msgs = EnvelopeBatch(src=[0, 1, 2, 3], tag=[1, 2, 3, 4])
        reqs = EnvelopeBatch(src=[ANY_SOURCE] * 4, tag=[1, 2, 3, 4])
        svc = self._drive(TenantSpec(name="wc"), msgs, reqs)
        assert svc.tenant("wc").relaxations.label() == "wc+ord+unexp"
        assert svc.retune_events == []

    def test_clean_ordered_stream_earns_partitioned(self):
        msgs = EnvelopeBatch(src=[0, 1, 2, 3], tag=[1, 2, 3, 4])
        svc = self._drive(TenantSpec(name="ord", ordering_required=True),
                          msgs, msgs.take([3, 2, 1, 0]))
        assert svc.tenant("ord").relaxations.label() == "nowc+ord+unexp"
        labels = [(e.from_label, e.to_label, e.direction)
                  for e in svc.retune_events]
        assert labels == [("wc+ord+unexp", "nowc+ord+unexp", "promote")]

    def test_unordered_stream_earns_hash(self):
        msgs = EnvelopeBatch(src=[0, 1, 2, 3], tag=[1, 2, 3, 4])
        svc = self._drive(TenantSpec(name="uno", ordering_required=False),
                          msgs, msgs.take([3, 2, 1, 0]))
        assert svc.tenant("uno").relaxations.label() == "nowc+noord+unexp"

    def test_wildcard_burst_ages_out_of_the_window(self):
        """One wildcard flush demotes at once and holds the matrix point
        while it is in the window; the promotion returns at the flush
        where the burst has left the window and ``promote_after`` clean
        windows have followed."""
        window, promote_after, burst = 2, 2, 2
        msgs = EnvelopeBatch(src=[0, 1, 2, 3], tag=[1, 2, 3, 4])
        clean = msgs.take([3, 2, 1, 0])
        wild = EnvelopeBatch(src=[ANY_SOURCE, 1, 2, 3], tag=[1, 2, 3, 4])
        svc = MatchingService(n_shards=1, seed=3, promote_after=promote_after,
                              profile_window=window)
        svc.register(TenantSpec(name="ord"))
        for i in range(10):
            svc.submit("ord", msgs, wild if i == burst else clean,
                       at_vt=float(i) * 0.01)
            svc.drain()
        back = burst + window + promote_after - 1
        # the burst flush itself runs demoted (the engine's own
        # graceful demotion), so flushes 0..back all run on the matrix
        assert [r.engine_label for r in svc.results] == (
            ["wc+ord+unexp"] * (back + 1)
            + ["nowc+ord+unexp"] * (9 - back))
        moves = [(e.vt, e.direction) for e in svc.retune_events]
        assert moves == [(pytest.approx(0.01 * (promote_after - 1)),
                          "promote"),
                         (pytest.approx(0.01 * burst), "demote"),
                         (pytest.approx(0.01 * back), "promote")]

    def test_retune_cost_charged_exactly_once(self):
        """The flush after a promotion carries the relaunch cycles; later
        flushes do not."""
        msgs = EnvelopeBatch(src=[0, 1, 2, 3], tag=[1, 2, 3, 4])
        svc = self._drive(TenantSpec(name="ord"), msgs,
                          msgs.take([0, 1, 2, 3]), rounds=8)
        charged = [r.outcome.meta.get("retune_charged", 0.0)
                   for r in svc.results]
        assert sum(1 for c in charged if c > 0) == len(svc.retune_events) == 1
        assert max(charged) == RELAUNCH_OVERHEAD_CYCLES
