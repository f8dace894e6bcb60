"""Serve state plane: snapshot codec, columnar session carry-over,
bit-identical worker checkpoint/restore, and vt-derived retry hints."""

from __future__ import annotations

from dataclasses import fields, is_dataclass

import numpy as np
import pytest

from repro.core.engine import DemotionEvent
from repro.core.envelope import EnvelopeBatch
from repro.core.relaxations import RelaxationSet
from repro.core.result import MatchOutcome
from repro.serve import (AdmissionPolicy, BatchPolicy, FlushResult,
                         MatchingService, RetuneEvent, ServeRequest,
                         SessionState, SnapshotError, TenantSpec, Ticket,
                         TimerEvent, merge_workloads, run_workload,
                         workload_from_app)
from repro.serve.service import ShardWorker
from repro.serve.state import (_TYPES, SNAPSHOT_MAGIC, dumps, install_worker,
                               loads)
from tests.conftest import permuted_pair


# ---------------------------------------------------------------------------
# Tagged binary codec
# ---------------------------------------------------------------------------

class TestCodec:
    def test_round_trip_nested_structure(self):
        obj = {
            "none": None, "t": True, "f": False,
            "small": -7, "big": 2 ** 127 + 5, "neg_big": -(2 ** 80),
            "pi": 3.14159, "s": "snapshot ☃", "raw": b"\x00\xff",
            "i64": np.arange(6, dtype=np.int64),
            "f64": np.linspace(0.0, 1.0, 5),
            "bools": np.array([True, False, True]),
            "grid": np.arange(12, dtype=np.int32).reshape(3, 4),
            "seq": [1, (2, "three"), {"four": 4.0}],
        }
        rt = loads(dumps(obj))
        assert list(rt) == list(obj)          # insertion order preserved
        assert rt["none"] is None and rt["t"] is True and rt["f"] is False
        assert rt["big"] == 2 ** 127 + 5 and rt["neg_big"] == -(2 ** 80)
        assert rt["s"] == obj["s"] and rt["raw"] == obj["raw"]
        for key in ("i64", "f64", "bools", "grid"):
            assert rt[key].dtype == obj[key].dtype
            assert np.array_equal(rt[key], obj[key])
        assert rt["seq"] == obj["seq"]
        assert isinstance(rt["seq"][1], tuple)   # tuple tag, not list

    def test_rng_state_survives_the_codec(self):
        """PCG64 state carries 128-bit counters; a fixed-width integer
        encoding would corrupt it silently."""
        rng = np.random.default_rng(7)
        rng.random(13)                           # move off the seed point
        state = loads(dumps(rng.bit_generator.state))
        clone = np.random.default_rng(7)
        clone.bit_generator.state = state
        assert np.array_equal(rng.random(32), clone.random(32))

    def test_crc_detects_payload_corruption(self):
        blob = bytearray(dumps({"k": list(range(64))}))
        blob[len(blob) // 2] ^= 0x40
        with pytest.raises(SnapshotError, match="CRC"):
            loads(bytes(blob))

    def test_header_validation(self):
        blob = dumps([1, 2, 3])
        with pytest.raises(SnapshotError, match="magic"):
            loads(b"NOTASNAP" + blob[len(SNAPSHOT_MAGIC):])
        bad_version = bytearray(blob)
        bad_version[len(SNAPSHOT_MAGIC)] = 0xEE
        with pytest.raises(SnapshotError, match="version"):
            loads(bytes(bad_version))
        with pytest.raises(SnapshotError, match="length|shorter"):
            loads(blob[:-3])
        with pytest.raises(SnapshotError):
            loads(b"")

    def test_unencodable_objects_are_refused(self):
        with pytest.raises(SnapshotError, match="cannot snapshot"):
            dumps({"bad": {1, 2}})
        with pytest.raises(SnapshotError, match="object-dtype"):
            dumps(np.array([object()], dtype=object))


def _registered_instances() -> dict[type, object]:
    """One non-default instance of every dataclass the codec carries."""
    msgs, reqs = permuted_pair(np.random.default_rng(3), 6)
    outcome = MatchOutcome(np.array([1, -1, 0]), n_messages=2, n_requests=3,
                           seconds=2e-6, cycles=1500.0, iterations=2,
                           meta={"queues": [3, 1], "hash": {"rounds": 2}})
    return {
        ServeRequest: ServeRequest("t", 5, 0.25, msgs, reqs),
        Ticket: Ticket("retryable", "t", 6, 1.5e-3, "soft watermark"),
        FlushResult: FlushResult("t", 1, 7, 0.5, outcome, (5, 6),
                                 (1e-4, 2e-4), "nowc+ord+unexp",
                                 {"carryover_umq": 2}),
        TenantSpec: TenantSpec("t", RelaxationSet(False, True, False),
                               ordering_required=False, session=True,
                               session_max_carryover=64, partitioned=True),
        MatchOutcome: outcome,
        RelaxationSet: RelaxationSet(False, False, True),
        AdmissionPolicy: AdmissionPolicy(64, 0.5, 2e-3),
        BatchPolicy: BatchPolicy(32, 5e-4),
        RetuneEvent: RetuneEvent("t", 0.125, "wc+ord+unexp",
                                 "nowc+ord+unexp", "promote", "no wildcards",
                                 extra_seconds=3e-5),
        DemotionEvent: DemotionEvent("nowc+ord+unexp", "wc+ord+unexp",
                                     "wildcard request", 3e-5),
        TimerEvent: TimerEvent(0.5, 9, "deadline", ("t", 3)),
    }


def _same(a, b) -> bool:
    """Value equality, field by field through dataclasses (every field,
    ``compare=False`` ones included) and dtype-exact for ndarrays."""
    if is_dataclass(a):
        return type(a) is type(b) and all(
            _same(getattr(a, f.name), getattr(b, f.name)) for f in fields(a))
    if isinstance(a, np.ndarray):
        return a.dtype == b.dtype and np.array_equal(a, b)
    return type(a) is type(b) and a == b


@pytest.mark.parametrize("cls", list(_registered_instances()),
                         ids=lambda cls: cls.__name__)
def test_registered_dataclass_round_trips(cls):
    """A registered dataclass travels as its ``init`` fields: it decodes
    equal, re-encodes byte for byte, and its own checks run on decode."""
    instances = _registered_instances()
    assert [c for c, _, _ in _TYPES[1:]] == list(instances)
    obj = instances[cls]
    blob = dumps(obj)
    rt = loads(blob)
    assert _same(rt, obj)
    assert dumps(rt) == blob
    if cls is BatchPolicy:
        bad = object.__new__(BatchPolicy)   # bypasses __post_init__
        object.__setattr__(bad, "max_envelopes", 0)
        object.__setattr__(bad, "max_delay_vt", obj.max_delay_vt)
        with pytest.raises(SnapshotError) as info:
            loads(dumps(bad))
        cause = info.value.__cause__
        assert type(cause) is ValueError and "max_envelopes" in str(cause)


# ---------------------------------------------------------------------------
# EnvelopeBatch round-trip: the zero-re-pack contract
# ---------------------------------------------------------------------------

class TestEnvelopeBatchRoundTrip:
    def test_cached_packed_survives_slice_take_concat_and_codec(self, rng):
        """A column packed once at the loadgen boundary must come back
        from serialization still packed -- through slicing, ``take``,
        and ``concatenate`` -- never silently re-packed."""
        left, _ = permuted_pair(rng, 32)
        right, _ = permuted_pair(rng, 16)
        left.packed()                           # cache at the boundary
        right.packed()
        derived = left[4:28].take(np.arange(0, 24, 2)).concatenate(right)
        assert derived._packed is not None      # cache propagated

        state = loads(dumps(derived.state_dict()))
        assert state["packed"] is not None
        rt = EnvelopeBatch.from_state_dict(state)
        assert rt._packed is not None           # no re-pack needed
        assert np.array_equal(rt._packed, derived._packed)
        assert np.array_equal(rt.src, derived.src)
        assert np.array_equal(rt.tag, derived.tag)
        assert np.array_equal(rt.comm, derived.comm)

    def test_unpacked_batch_does_not_invent_a_cache(self, rng):
        batch, _ = permuted_pair(rng, 8)
        assert batch._packed is None
        rt = EnvelopeBatch.from_state_dict(loads(dumps(batch.state_dict())))
        assert rt._packed is None
        assert rt == batch


# ---------------------------------------------------------------------------
# Persistent-UMQ sessions
# ---------------------------------------------------------------------------

def _batch(src, tag):
    return EnvelopeBatch(src=list(src), tag=list(tag))


class TestSessionState:
    def test_merge_prepends_carried_columns_fifo(self):
        session = SessionState()
        session.umq = _batch([1, 2], [0, 0])
        session.umq_born = np.array([0, 0], dtype=np.int64)
        merged_m, merged_r, born_m, born_r, n_cm, n_cr = session.merge(
            _batch([3], [0]), _batch([9], [0]), flush_seq=2)
        assert (n_cm, n_cr) == (2, 0)
        assert merged_m.src.tolist() == [1, 2, 3]   # carried first (FIFO)
        assert born_m.tolist() == [0, 0, 2]
        assert merged_r.src.tolist() == [9] and born_r.tolist() == [2]
        assert session.depth == 0                   # cleared until retain

    def test_age_shed(self):
        session = SessionState(max_age_flushes=2)
        umq = _batch([1, 2, 3], [0, 0, 0])
        born = np.array([0, 3, 4], dtype=np.int64)
        shed_age, shed_cap = session.retain(
            umq, EnvelopeBatch.empty(), born,
            np.array([], dtype=np.int64), flush_seq=5)
        # born 0 survived 5 flushes, born 3 survived 2: both at the bound.
        assert (shed_age, shed_cap) == (2, 0)
        assert session.umq.src.tolist() == [3]
        assert session.umq_born.tolist() == [4]

    def test_cap_sheds_oldest_first(self):
        session = SessionState(max_carryover=2, max_age_flushes=100)
        umq = _batch([10, 11], [0, 0])
        prq = _batch([20, 21], [0, 0])
        shed_age, shed_cap = session.retain(
            umq, prq,
            np.array([3, 1], dtype=np.int64),
            np.array([0, 2], dtype=np.int64), flush_seq=4)
        assert (shed_age, shed_cap) == (0, 2)
        # born 0 (prq src 20) and born 1 (umq src 11) are the oldest.
        assert session.umq.src.tolist() == [10]
        assert session.prq.src.tolist() == [21]
        assert session.shed_cap_total == 2

    def test_carried_envelopes_match_in_a_later_flush(self):
        """Messages flushed unmatched in pass 1 must satisfy the
        requests of pass 2 -- the persistent-UMQ contract."""
        svc = MatchingService(
            batching=BatchPolicy(max_envelopes=4, max_delay_vt=1.0))
        svc.register(TenantSpec(name="t", autotune=False, session=True))
        msgs = _batch([0, 1, 2, 3], [5, 5, 5, 5])
        svc.submit("t", msgs, EnvelopeBatch.empty())     # size flush #1
        assert svc.results[0].outcome.matched_count == 0
        svc.submit("t", EnvelopeBatch.empty(), msgs)     # size flush #2
        assert len(svc.results) == 2
        second = svc.results[1]
        assert second.meta["carried_messages"] == 4
        assert second.outcome.matched_count == 4
        assert second.meta["carryover_umq"] == 0

    def test_stateless_tenant_drops_unmatched(self):
        svc = MatchingService(
            batching=BatchPolicy(max_envelopes=4, max_delay_vt=1.0))
        svc.register(TenantSpec(name="t", autotune=False))
        msgs = _batch([0, 1, 2, 3], [5, 5, 5, 5])
        svc.submit("t", msgs, EnvelopeBatch.empty())
        svc.submit("t", EnvelopeBatch.empty(), msgs)
        assert svc.results[1].outcome.matched_count == 0
        assert "carried_messages" not in svc.results[1].meta


# ---------------------------------------------------------------------------
# Worker checkpoint / restore: bit-identical continuation
# ---------------------------------------------------------------------------

def _fingerprint(svc) -> dict:
    return {
        "results": [(r.tenant, r.shard_id, r.flush_seq, r.flush_vt,
                     r.covered_seqs, r.engine_label,
                     r.outcome.request_to_message.tolist(),
                     r.outcome.seconds, sorted(r.meta.items()))
                    for r in svc.results],
        "tickets": [(t.status, t.seq, t.retry_after_vt)
                    for t in svc.tickets],
        "report": svc.report(),
    }


def _drive(svc, arrivals):
    for arrival in arrivals:
        svc.submit(arrival.tenant, arrival.messages, arrival.requests,
                   at_vt=arrival.vt)


def _checkpoints(svc) -> list[bytes]:
    """Every worker's ``checkpoint`` reply blob, worker order."""
    return [w.handle("checkpoint")[0][1]["blob"] for w in svc._workers]


def _restore_workers(svc) -> None:
    """Swap every loopback worker for a fresh :class:`ShardWorker`
    restored from its own checkpoint -- what cluster recovery does to a
    dead worker process, minus the process."""
    for i, blob in enumerate(_checkpoints(svc)):
        shard = svc._workers[i].shard
        worker = ShardWorker(
            i, seed=5, admission=shard.admission.policy,
            batching=shard.batching, promote_after=shard.promote_after,
            profile_window=shard.profile_window, verify=shard.verify)
        install_worker(worker, loads(blob))
        svc._workers[i] = worker


class TestSnapshotRestore:
    """Worker checkpoints are the one checkpoint path: a worker restored
    from its checkpoint at any cut continues exactly as the
    uninterrupted worker does, deadline timers, session carry-over and
    autotuner hysteresis included."""

    CUTS = (1, 3, 6)
    BATCHING = BatchPolicy(max_envelopes=32)

    @pytest.fixture(scope="class")
    def workload(self):
        return merge_workloads("restore", [
            workload_from_app("df_minife", rate_rps=4000.0,
                              chunk_envelopes=16, seed=3, session=True),
            workload_from_app("df_amg", rate_rps=4000.0,
                              chunk_envelopes=16, seed=3,
                              ordering_required=False)])

    def _fresh(self, workload, cut: int):
        svc = MatchingService(n_shards=2, seed=5, batching=self.BATCHING)
        for spec in workload.tenants:
            svc.register(spec)
        _drive(svc, workload.arrivals[:cut])
        return svc

    def test_cuts_catch_state_in_flight(self, workload):
        """At least one cut lands with deadline timers armed, session
        carry-over queued and an autotuner streak part-earned, so the
        continuation checks below restore all three."""
        def in_flight(svc):
            tenants = [ts for w in svc._workers
                       for ts in w.shard.tenants.values()]
            return (any(w.loop._heap for w in svc._workers),
                    any(len(ts.session.umq) for ts in tenants
                        if ts.session is not None),
                    any(ts.autotuner._streak for ts in tenants))

        assert any(all(in_flight(self._fresh(workload, cut)))
                   for cut in self.CUTS)

    @pytest.mark.parametrize("cut", CUTS)
    def test_restore_continues_bit_identically(self, workload, cut):
        """Checkpoint every worker at an arbitrary boundary, restore
        fresh workers from the blobs, and replay the remaining stream on
        both the original and the restored service: every outcome,
        ticket, latency, and counter must be identical."""
        svc = self._fresh(workload, cut)
        twin = self._fresh(workload, cut)
        _restore_workers(twin)
        assert [w.loop.now for w in twin._workers] == \
            [w.loop.now for w in svc._workers]
        for live in (svc, twin):
            _drive(live, workload.arrivals[cut:])
            live.drain()
        assert _fingerprint(twin) == _fingerprint(svc)

    def test_snapshot_of_restore_is_byte_identical(self, workload):
        twin = self._fresh(workload, 4)
        blobs = _checkpoints(twin)
        _restore_workers(twin)
        assert _checkpoints(twin) == blobs

    def test_snapshot_is_deterministic(self, workload):
        svc = self._fresh(workload, 4)
        assert _checkpoints(svc) == _checkpoints(svc)


# ---------------------------------------------------------------------------
# vt-derived retry hints
# ---------------------------------------------------------------------------

class TestRetryHints:
    def _svc(self):
        svc = MatchingService(
            admission=AdmissionPolicy(capacity=16, soft_fraction=0.5),
            batching=BatchPolicy(max_envelopes=10_000, max_delay_vt=0.5))
        svc.register(TenantSpec(name="t", autotune=False))
        return svc

    def test_hint_tracks_the_pending_flush_deadline(self):
        """The retryable hint is *derived from virtual time*: it points
        at the shard's earliest batch deadline, so two sheds at
        different instants hint the same absolute retry time."""
        svc = self._svc()
        msgs = _batch([0, 1, 2], [1, 2, 3])
        t0 = svc.submit("t", msgs, msgs, at_vt=1.0)   # deadline armed: 1.5
        assert t0.accepted
        t1 = svc.submit("t", msgs, msgs, at_vt=1.2)
        t2 = svc.submit("t", msgs, msgs, at_vt=1.4)
        assert t1.status == "retryable" and t2.status == "retryable"
        assert t1.retry_after_vt == pytest.approx(1.5)
        assert t2.retry_after_vt == pytest.approx(1.5)

    def test_hint_falls_back_to_batch_delay_when_idle(self):
        svc = self._svc()
        big = _batch(list(range(9)), list(range(9)))
        t0 = svc.submit("t", big, EnvelopeBatch.empty(), at_vt=2.0)
        assert t0.status == "retryable"               # soft watermark is 8
        assert t0.retry_after_vt == pytest.approx(2.5)

    def test_hints_replay_bit_identically(self):
        """Same seed, same workload, same run: every ticket -- status,
        seq, and hint -- must replay identically."""
        workload = workload_from_app("df_amg", rate_rps=4000.0, n_ranks=8,
                                     steps=2, chunk_envelopes=64, seed=2)

        def one_run():
            svc, _ = run_workload(
                workload, n_shards=2, seed=9,
                admission=AdmissionPolicy(capacity=256, soft_fraction=0.5))
            return [(t.status, t.seq, t.retry_after_vt)
                    for t in svc.tickets]
        first, second = one_run(), one_run()
        assert first == second
        assert any(status == "retryable" and hint is not None
                   for status, _, hint in first)
