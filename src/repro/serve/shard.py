"""Shards: the unit of isolation, batching, and engine ownership.

A :class:`Shard` hosts a disjoint subset of the service's tenants.  Each
tenant gets fully isolated state -- its own
:class:`~repro.core.engine.MatchingEngine` (relaxation point and matcher
included), batch accumulator, stream profiler, and autotuner -- while the
shard contributes the *shared* resources: the bounded inbox the admission
controller guards and the flush machinery.

The flush path is where every prior subsystem composes:

1. the accumulator drains into one concatenated batch pair (PR 1's
   vectorized fast paths want exactly this shape);
2. the tenant's engine matches it, demoting gracefully mid-pass if the
   batch violates the current relaxations (PR 2's degradation pattern);
3. any pending retune cost is charged onto the outcome (the adaptive
   relaunch model);
4. the profiler ingests the flushed stream and the autotuner decides
   whether the *next* flush runs on a different Table II point;
5. the observability handle (PR 3) gets per-tenant spans, queue-depth
   gauges, and batch/shed/retune counters -- all behind one
   ``is None`` branch.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.engine import MatchingEngine
from ..core.relaxations import RelaxationSet
from ..simt.gpu import GPUSpec, PASCAL_GTX1080
from .admission import AdmissionController, AdmissionPolicy
from .autotuner import Autotuner
from .batching import BatchAccumulator, BatchPolicy
from .messages import (ACCEPTED, MIGRATING, FlushResult, ServeRequest,
                       ShardCrash, TenantSpec, Ticket)
from .profiler import StreamProfiler
from .stages import StageClock
from .state import SessionState

__all__ = ["TenantState", "Shard"]


@dataclass
class TenantState:
    """Everything one tenant owns inside its shard."""

    spec: TenantSpec
    engine: MatchingEngine
    accumulator: BatchAccumulator
    profiler: StreamProfiler
    autotuner: Autotuner
    flush_seq: int = 0
    matched_total: int = 0
    requests_total: int = 0
    #: relaunch cost booked by the last retune, charged to the next outcome
    pending_retune_seconds: float = 0.0
    pending_retune_cycles: float = 0.0
    #: engine demotions already mirrored into the retune log
    demotions_seen: int = 0
    #: persistent-UMQ carry-over (``None`` for stateless tenants)
    session: SessionState | None = None

    @property
    def relaxations(self) -> RelaxationSet:
        """The tenant's current point on the lattice."""
        return self.engine.relaxations


class Shard:
    """One shard: bounded inbox, per-tenant engines, flush machinery.

    Parameters
    ----------
    shard_id:
        Index within the service (obs label).
    gpu:
        Simulated device every tenant engine runs on.
    admission:
        Bounded-inbox policy (shared across the shard's tenants).
    batching:
        Flush watermark policy (per-tenant accumulators, same policy).
    promote_after:
        Autotuner hysteresis, in agreeing windows.
    profile_window:
        Profiler sliding window, in flushes.
    verify:
        Cross-check every outcome against the reference semantics
        (slow; for tests).
    obs:
        Optional observability handle.
    stages:
        Optional :class:`~repro.serve.stages.StageClock`
        (measurement-only wall-time breakdown; never read by decisions).
    """

    def __init__(self, shard_id: int, gpu: GPUSpec = PASCAL_GTX1080,
                 admission: AdmissionPolicy | None = None,
                 batching: BatchPolicy | None = None,
                 promote_after: int = 3, profile_window: int = 8,
                 verify: bool = False, obs=None,
                 stages: StageClock | None = None) -> None:
        self.shard_id = shard_id
        self.gpu = gpu
        self.batching = batching if batching is not None else BatchPolicy()
        self.admission = AdmissionController(
            admission, default_retry_after_vt=self.batching.max_delay_vt)
        self.promote_after = promote_after
        self.profile_window = profile_window
        self.verify = verify
        self._obs = obs
        self._stages = stages
        self.tenants: dict[str, TenantState] = {}
        #: tenants mid-migration off this shard, mapped to their
        #: deterministic cutover virtual time; submissions for them are
        #: answered ``migrating`` with the cutover as the retry hint.
        self.migrating: dict[str, float] = {}
        #: chaos hook: raise :class:`ShardCrash` when ``flushes_done``
        #: reaches this count (armed by a cluster worker's ``arm_exit``).
        self.fail_at_flush: int | None = None
        #: non-empty flushes this shard has started (crash-hook clock).
        self.flushes_done = 0

    # -- tenant lifecycle ---------------------------------------------------------

    def add_tenant(self, spec: TenantSpec) -> TenantState:
        """Register a tenant and build its initial engine."""
        if spec.name in self.tenants:
            raise ValueError(f"tenant {spec.name!r} already registered")
        rel = spec.initial_relaxations()
        ts = TenantState(
            spec=spec,
            engine=self._build_engine(spec, rel),
            accumulator=BatchAccumulator(self.batching),
            profiler=StreamProfiler(self.profile_window),
            autotuner=Autotuner(spec, gpu=self.gpu,
                                promote_after=self.promote_after),
            session=SessionState.for_spec(spec) if spec.session else None,
        )
        self.tenants[spec.name] = ts
        return ts

    def _build_engine(self, spec: TenantSpec,
                      rel: RelaxationSet) -> MatchingEngine:
        return MatchingEngine(gpu=self.gpu, relaxations=rel,
                              n_queues=spec.n_queues, n_ctas=spec.n_ctas,
                              verify=self.verify, demote_on_violation=True,
                              obs=self._obs)

    # -- state --------------------------------------------------------------------

    @property
    def inbox_depth(self) -> int:
        """Pending envelopes across every tenant accumulator."""
        return sum(len(ts.accumulator) for ts in self.tenants.values())

    def next_deadline_vt(self) -> float | None:
        """Earliest pending batch deadline across the shard's tenants.

        This is the soonest moment the inbox can drain, which is exactly
        the vt-derived retry hint admission attaches to ``retryable``
        sheds.
        """
        deadlines = [ts.accumulator.deadline_vt
                     for ts in self.tenants.values()
                     if ts.accumulator.deadline_vt is not None]
        return min(deadlines) if deadlines else None

    # -- submission ---------------------------------------------------------------

    def submit(self, request: ServeRequest,
               now_vt: float) -> tuple[Ticket, FlushResult | None]:
        """Admit (or shed) one request; may trigger a size-watermark flush.

        Returns the ticket plus the flush result if the admission pushed
        the tenant's accumulator over its size watermark.
        """
        ts = self.tenants[request.tenant]
        obs = self._obs
        cutover = self.migrating.get(request.tenant)
        if cutover is not None:
            # mid-migration: refuse with the deterministic cutover time
            # as the retry hint -- nothing is dropped for capacity.
            self.admission.shed_migrating += 1
            if obs is not None:
                obs.count(f"serve.shed.{MIGRATING}")
                obs.instant("serve.shed", tenant=request.tenant,
                            status=MIGRATING, reason="tenant migrating")
            return (Ticket(status=MIGRATING, tenant=request.tenant,
                           seq=request.seq, retry_after_vt=cutover,
                           reason="tenant migrating; retry at cutover"),
                    None)
        stages = self._stages
        t0 = StageClock.start() if stages is not None else 0.0
        status, retry_after, reason = self.admission.decide(
            request.n_envelopes, self.inbox_depth,
            now_vt=now_vt, next_flush_vt=self.next_deadline_vt())
        if status != ACCEPTED:
            if stages is not None:
                stages.stop("admission", t0)
            if obs is not None:
                obs.count(f"serve.shed.{status}")
                obs.instant("serve.shed", tenant=request.tenant,
                            status=status, reason=reason)
            return (Ticket(status=status, tenant=request.tenant,
                           seq=request.seq,
                           retry_after_vt=(now_vt + retry_after
                                           if retry_after is not None
                                           else None),
                           reason=reason), None)
        if stages is not None:
            stages.stop("admission", t0)
            t0 = StageClock.start()
        ts.accumulator.admit(request)
        if stages is not None:
            stages.stop("batching", t0)
        ts.requests_total += 1
        if obs is not None:
            obs.count("serve.accepted")
            obs.gauge(f"serve.shard{self.shard_id}.inbox", self.inbox_depth)
        result = None
        if ts.accumulator.size_ready():
            result = self.flush_tenant(request.tenant, now_vt)
        return (Ticket(status=ACCEPTED, tenant=request.tenant,
                       seq=request.seq), result)

    def deliver(self, request: ServeRequest) -> None:
        """Admit a fabric delivery, bypassing admission control.

        Fabric traffic is already inside the system -- it was charged at
        its source shard -- so shedding it here would lose envelopes the
        sender believes are in flight.  Deliveries never trigger the
        size-watermark flush either: the fabric flushes tenants at
        superstep boundaries, and an early partial flush would split a
        superstep's rows across two results.
        """
        ts = self.tenants[request.tenant]
        stages = self._stages
        t0 = StageClock.start() if stages is not None else 0.0
        ts.accumulator.admit(request)
        if stages is not None:
            stages.stop("fabric", t0)
        ts.requests_total += 1
        if self._obs is not None:
            self._obs.count("serve.fabric.delivered")

    # -- flushing -----------------------------------------------------------------

    def flush_tenant(self, tenant: str, now_vt: float) -> FlushResult | None:
        """Drain one tenant's accumulator through its engine."""
        ts = self.tenants[tenant]
        stages = self._stages
        t0 = StageClock.start() if stages is not None else 0.0
        messages, requests, covered = ts.accumulator.flush()
        if stages is not None:
            stages.stop("batching", t0)
        if not covered:
            return None
        self.flushes_done += 1
        if (self.fail_at_flush is not None
                and self.flushes_done >= self.fail_at_flush):
            # chaos kill at the worst moment: the accumulator has
            # drained, so the in-flight batch exists only on this stack
            # frame -- recovery must come from checkpoint + journal.
            self.fail_at_flush = None
            raise ShardCrash(self.shard_id, tenant, now_vt)
        born_msgs = born_reqs = None
        carried_m = carried_r = 0
        if ts.session is not None and ts.session.depth:
            (messages, requests, born_msgs, born_reqs,
             carried_m, carried_r) = ts.session.merge(
                 messages, requests, ts.flush_seq)
        obs = self._obs
        trace_start = (obs.tracer.now
                       if obs is not None and obs.tracer is not None else 0.0)
        t0 = StageClock.start() if stages is not None else 0.0
        outcome = ts.engine.submit_batch(messages, requests)
        if stages is not None:
            stages.stop("match", t0)
            t0 = StageClock.start()
        # mirror engine-side graceful demotions into the retune log
        for ev in ts.engine.demotions[ts.demotions_seen:]:
            ts.autotuner.record_external_demotion(ev.from_label, ev.to_label,
                                                  ev.reason, now_vt)
        ts.demotions_seen = len(ts.engine.demotions)
        # charge any pending retune cost onto this outcome
        if ts.pending_retune_seconds or ts.pending_retune_cycles:
            outcome.seconds += ts.pending_retune_seconds
            outcome.cycles += ts.pending_retune_cycles
            outcome.meta.setdefault("retune_charged", 0.0)
            outcome.meta["retune_charged"] += ts.pending_retune_cycles
            ts.pending_retune_seconds = 0.0
            ts.pending_retune_cycles = 0.0
        completion_vt = now_vt + outcome.seconds
        latencies = tuple(completion_vt - r.arrival_vt for r in covered)
        meta = {"n_messages": len(messages), "n_requests": len(requests)}
        if ts.session is not None:
            # persistent-UMQ: the pass's unmatched columns carry over
            # into the next flush as packed ``take`` views -- no
            # re-marshalling -- subject to the age and cap sheds.
            msg_idx = outcome.unmatched_message_indices()
            req_idx = outcome.unmatched_request_indices()
            umq, prq = ts.engine.export_unmatched(
                messages, requests, outcome, msg_idx, req_idx)
            bm = (born_msgs[msg_idx] if born_msgs is not None
                  else np.full(msg_idx.size, ts.flush_seq, dtype=np.int64))
            br = (born_reqs[req_idx] if born_reqs is not None
                  else np.full(req_idx.size, ts.flush_seq, dtype=np.int64))
            shed_age, shed_cap = ts.session.retain(umq, prq, bm, br,
                                                   ts.flush_seq)
            meta.update(carried_messages=carried_m,
                        carried_requests=carried_r,
                        carryover_umq=len(ts.session.umq),
                        carryover_prq=len(ts.session.prq),
                        carryover_shed_age=shed_age,
                        carryover_shed_cap=shed_cap)
            if obs is not None:
                obs.gauge(f"serve.{tenant}.carryover", ts.session.depth)
                if shed_age or shed_cap:
                    obs.count("serve.carryover_shed",
                              float(shed_age + shed_cap))
        result = FlushResult(
            tenant=tenant, shard_id=self.shard_id, flush_seq=ts.flush_seq,
            flush_vt=now_vt, outcome=outcome,
            covered_seqs=tuple(r.seq for r in covered),
            latencies_vt=latencies,
            engine_label=ts.relaxations.label(),
            meta=meta)
        ts.flush_seq += 1
        ts.matched_total += outcome.matched_count
        # profile the flushed stream and maybe retune for the next flush
        ts.profiler.ingest(messages, requests, outcome)
        new_rel = ts.autotuner.consider(ts.relaxations,
                                        ts.profiler.profile(), now_vt)
        if new_rel is not None:
            event = ts.autotuner.events[-1]
            ts.engine = self._build_engine(ts.spec, new_rel)
            ts.demotions_seen = 0
            ts.pending_retune_seconds += event.extra_seconds
            ts.pending_retune_cycles += event.extra_cycles
            if obs is not None:
                obs.count("serve.retunes")
                obs.instant("serve.retune", tenant=tenant,
                            from_label=event.from_label,
                            to_label=event.to_label,
                            direction=event.direction)
        if stages is not None:
            stages.stop("result", t0)
        if obs is not None:
            obs.count("serve.flushes")
            obs.count("serve.matched", float(outcome.matched_count))
            obs.observe("serve.batch_envelopes",
                        float(len(messages) + len(requests)))
            for lat in latencies:
                obs.observe("serve.latency_us", lat * 1e6)
            obs.gauge(f"serve.shard{self.shard_id}.inbox", self.inbox_depth)
            if obs.tracer is not None:
                obs.tracer.complete("serve.flush", trace_start,
                                    obs.tracer.now - trace_start,
                                    tenant=tenant,
                                    engine=result.engine_label,
                                    matched=outcome.matched_count)
        return result

    def flush_all(self, now_vt: float) -> list[FlushResult]:
        """Drain every tenant (registration order -- deterministic)."""
        results = []
        for name in self.tenants:
            result = self.flush_tenant(name, now_vt)
            if result is not None:
                results.append(result)
        return results
