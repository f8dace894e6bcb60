"""The serving plane: shard workers behind one router.

A :class:`ShardWorker` holds one :class:`~repro.serve.shard.Shard` and
its own deterministic virtual-time event loop, and
:meth:`ShardWorker.handle` is the only code that applies a request to a
shard.  A :class:`Router` is the only code that routes: tenant
registration and span expansion, stable CRC32 placement (independent of
Python's randomized ``hash()``, so identical across processes and runs),
the global sequence space, the virtual clock, the result ledger, report
assembly and the fabric surface.  :class:`MatchingService` is the router
over N **loopback** workers, called directly with live objects -- no
codec, no journal, no checkpoints, because a loopback worker cannot die
apart from its router; :class:`~repro.serve.cluster.ClusterService` is
the same router over N worker processes.

* ``submit()`` stamps the request with the current virtual time, runs
  admission, and may trigger a size-watermark flush synchronously;
* ``advance_to(vt)`` fires due batch-deadline timers, each worker in its
  own ``(vt, seq)`` order (so results come grouped by worker);
* ``drain()`` flushes every remaining accumulator.

Because every decision reads only the virtual clock, the seeded RNG, and
the submitted stream, two runs of the same workload with the same seed
produce **identical** match outcomes, shed counts, and retune events --
pinned by the replay test in ``tests/serve/test_service.py``.

A single-tenant, no-shedding configuration is a *pass-through*: each
flush calls the tenant's engine on exactly the envelopes a direct
library user would have passed, so outcomes are bit-identical to direct
:class:`~repro.core.engine.MatchingEngine` calls (the serve-layer
analogue of the fast-path equivalence contract).
"""

from __future__ import annotations

import zlib
from contextlib import contextmanager

import numpy as np

from ..core.envelope import EnvelopeBatch
from ..obs.metrics import percentile
from ..simt.gpu import GPUSpec, PASCAL_GTX1080
from .admission import AdmissionPolicy
from .autotuner import RetuneEvent
from .batching import BatchPolicy
from .flushlog import FlushLog
from .messages import (ClusterError, FlushResult, ServeRequest, TenantSpec,
                       Ticket)
from .scheduler import EventLoop
from .shard import Shard, TenantState
from .stages import StageClock
from .state import dumps, export_tenant, install_tenant, loads, worker_state
from .wire import WireError

__all__ = ["MatchingService", "Router", "ShardWorker", "stable_shard"]


def stable_shard(name: str, n_shards: int) -> int:
    """Deterministic tenant -> shard placement (CRC32, not ``hash()``).

    Process-independent by construction, which is what lets the cluster
    router (:mod:`repro.serve.cluster`) partition tenants across worker
    processes with exactly the placement the in-process service uses --
    the first ingredient of cross-process bit-identity.
    """
    return zlib.crc32(name.encode("utf-8")) % n_shards


class ShardWorker:
    """One shard behind the router: an event loop, a shard, one dispatch.

    Parameters
    ----------
    worker_id:
        The worker's index, which is also its shard id.
    seed:
        Seeds the event loop's RNG (policy randomness only; ordering is
        never random).
    stages:
        Optional :class:`~repro.serve.stages.StageClock`; a cluster
        worker process passes one, a loopback worker none.
    **shard_kw:
        The :class:`~repro.serve.shard.Shard` policies and handles
        (``gpu``, ``admission``, ``batching``, ``promote_after``,
        ``profile_window``, ``verify``, ``obs``).
    """

    def __init__(self, worker_id: int, seed: int = 0,
                 stages: StageClock | None = None, **shard_kw) -> None:
        self.worker_id = worker_id
        self.loop = EventLoop(seed=seed)
        self.shard = Shard(shard_id=worker_id, stages=stages, **shard_kw)
        self.stages = stages
        #: CPU seconds a worker process spent handling frames
        self.busy = 0.0
        self.stopped = False

    def add_tenant(self, spec: TenantSpec) -> None:
        """Register a tenant on this worker's shard."""
        self.shard.add_tenant(spec)
        if self.shard._obs is not None:
            self.shard._obs.instant("serve.register", tenant=spec.name,
                                    shard=self.worker_id)

    def handle(self, kind: str, payload=None) -> list[tuple[str, object]]:
        """Apply one request frame to the shard; returns the reply
        frames as ``(kind, payload)`` pairs, in the order produced.

        The kinds are :data:`~repro.serve.wire.FRAME_KINDS`' router ->
        worker half.  The payload holds live objects: a loopback worker
        is handed them directly, a worker process gets them from the
        wire codec.
        """
        shard, loop = self.shard, self.loop
        if kind == "submit":
            out = self._advance(payload["at_vt"])
            tenant = payload["tenant"]
            acc = shard.tenants[tenant].accumulator
            was_empty = len(acc) == 0
            if shard._obs is not None:
                shard._obs.count("serve.submitted")
            ticket, flushed = shard.submit(ServeRequest(
                tenant=tenant, seq=payload["seq"], arrival_vt=loop.now,
                messages=payload["messages"],
                requests=payload["requests"]), loop.now)
            if flushed is not None:
                out.append(("flush", flushed))
            elif ticket.accepted and was_empty and len(acc) > 0:
                # first envelope of a fresh batch: arm its deadline timer
                loop.schedule(acc.deadline_vt, "flush", (tenant, acc.epoch))
            out.append(("ticket", ticket))
            return out
        if kind == "advance":
            return self._advance(payload["vt"])
        if kind == "drain":
            out = self._advance(payload["vt"])
            out.extend(("flush", r) for r in shard.flush_all(loop.now))
            # every accumulator is empty now, so every armed deadline
            # timer names a flushed epoch and could only fire as a no-op
            loop.retain(self._timer_live)
            return out
        if kind == "fabric_xfer":
            # Admission is bypassed (the envelopes were charged at their
            # source shard) but the deadline timer is still armed, so an
            # un-flushed delivery drains at the accumulator's deadline.
            # Segment slices reuse the block's packed64 cache.
            block = payload["block"]
            for seg in payload["segments"]:
                tenant = seg["tenant"]
                acc = shard.tenants[tenant].accumulator
                was_empty = len(acc) == 0
                shard.deliver(ServeRequest(
                    tenant=tenant, seq=seg["seq"],
                    arrival_vt=payload["at_vt"],
                    messages=(EnvelopeBatch.empty() if block is None
                              else block[seg["start"]:seg["stop"]]),
                    requests=(EnvelopeBatch.empty()
                              if seg["requests"] is None
                              else seg["requests"])))
                if was_empty and len(acc) > 0:
                    loop.schedule(acc.deadline_vt, "flush",
                                  (tenant, acc.epoch))
            return []
        if kind == "stats":
            return [("stats_reply", self.stats(payload["token"]))]
        if kind == "checkpoint":
            return [("checkpointed", {"blob": dumps(worker_state(self)),
                                      "vt": loop.now})]
        if kind == "arm_exit":
            shard.fail_at_flush = shard.flushes_done + payload["after_flushes"]
            return []
        if kind == "export_tenant":
            tenant = payload["tenant"]
            shard.migrating[tenant] = payload["cutover_vt"]
            result = shard.flush_tenant(tenant, loop.now)
            out = [] if result is None else [("flush", result)]
            out.append(("tenant_state", {
                "tenant": tenant,
                "blob": dumps(export_tenant(shard.tenants[tenant]))}))
            return out
        if kind == "install_tenant":
            ts = install_tenant(shard, loads(payload["blob"]))
            if len(ts.accumulator):
                loop.schedule(max(ts.accumulator.deadline_vt, loop.now),
                              "flush", (ts.spec.name, ts.accumulator.epoch))
            return []
        if kind == "release_tenant":
            tenant = payload["tenant"]
            shard.migrating.pop(tenant, None)
            shard.tenants.pop(tenant, None)
            # Cancel the tenant's deadline timers: one firing here would
            # name a tenant this worker no longer hosts.  The drained
            # accumulator travelled in the export blob and was re-armed
            # where it was installed.
            loop.retain(self._timer_live)
            return []
        if kind == "stop":
            self.stopped = True
            return [("bye", {"worker_id": self.worker_id})]
        raise WireError(f"worker cannot handle frame {kind!r}")

    def _timer_live(self, ev) -> bool:
        """Does a deadline timer's ``(tenant, epoch)`` still name a
        non-empty accumulator on this shard?"""
        tenant, epoch = ev.payload
        ts = self.shard.tenants.get(tenant)
        return (ts is not None and ts.accumulator.epoch == epoch
                and len(ts.accumulator) > 0)

    def _advance(self, vt: float) -> list[tuple[str, object]]:
        """Fire due deadline timers up to ``vt``, in ``(vt, seq)`` order."""
        out = []
        for ev in self.loop.due(vt):
            if not self._timer_live(ev):
                continue   # already flushed by a size watermark
            result = self.shard.flush_tenant(ev.payload[0], self.loop.now)
            if result is not None:
                out.append(("flush", result))
        return out

    def stats(self, token: int = 0) -> dict:
        """Admission counts, load signals, clocks and per-tenant report
        rows -- what the router assembles reports and rebalances from.

        A tenant's load is its profiler window's message volume; a
        worker's is the sum over its tenants, so "hot" means the same
        thing to the rebalancer and to the imbalance statistic.
        """
        shard = self.shard
        volumes = {name: ts.profiler.profile().n_messages
                   for name, ts in shard.tenants.items()}
        return {
            "token": token,
            "worker_id": self.worker_id,
            "counts": shard.admission.counts(),
            "windowed_volume": sum(volumes.values()),
            "tenant_volumes": volumes,
            "busy_seconds": self.busy,
            "stage_seconds": (None if self.stages is None
                              else self.stages.snapshot()),
            "tenants": {
                name: {"engine": ts.relaxations.label(),
                       "flushes": ts.flush_seq,
                       "matched": ts.matched_total,
                       "carryover_depth": (ts.session.depth
                                           if ts.session is not None else 0),
                       "retunes": [(e.from_label, e.to_label, e.direction)
                                   for e in ts.autotuner.events]}
                for name, ts in shard.tenants.items()},
        }


class Router:
    """The routing half of a serve plane, over a list of workers.

    Subclasses supply the transport: :meth:`_send` delivers one request
    frame to a worker and records its replies, and :meth:`worker_stats`
    returns each worker's :meth:`ShardWorker.stats`.  Workers expose
    ``add_tenant(spec)``.

    Every routed flush lands in :attr:`results`, a columnar
    :class:`~repro.serve.flushlog.FlushLog`; the calls that route
    flushes (``advance_to``, ``drain``) also return the result objects
    they routed, so a caller that consumes each flush once never
    rebuilds one from the log.
    """

    def __init__(self, workers: list, batching: BatchPolicy) -> None:
        self._workers = workers
        self.batching = batching
        self._placement: dict[str, int] = {}   # registration order
        self._spans: dict[str, list[str]] = {}
        self._next_seq = 0
        self._now = 0.0
        self.results = FlushLog()
        #: the results routed during the current public call, if any
        self._routed: list[FlushResult] | None = None

    def _send(self, w, kind: str, payload=None) -> None:
        raise NotImplementedError

    def worker_stats(self) -> list[dict]:
        raise NotImplementedError

    def _route_flush(self, result: FlushResult) -> None:
        """Log one flush result and hand it to the running call."""
        self.results.append(result)
        if self._routed is not None:
            self._routed.append(result)

    @contextmanager
    def _collecting(self):
        """Collect the flush results routed inside the block."""
        self._routed = routed = []
        try:
            yield routed
        finally:
            self._routed = None

    # -- tenants ------------------------------------------------------------------

    def _register(self, spec: TenantSpec) -> None:
        """Place a tenant by the stable hash of its name.

        A spanning tenant (``spec.span > 1``) expands into ``span``
        ordinary sub-tenants named ``name#0 .. name#span-1``, each placed
        independently; the base name routes through :meth:`sub_tenants`
        and never appears in the placement map, and workers only ever
        see ordinary specs.
        """
        if spec.name in self._placement or spec.name in self._spans:
            raise ValueError(f"tenant {spec.name!r} already registered")
        if spec.span > 1:
            subs = spec.sub_specs()
            for sub in subs:
                self._register(sub)
            self._spans[spec.name] = [s.name for s in subs]
            return
        worker_id = stable_shard(spec.name, len(self._workers))
        self._placement[spec.name] = worker_id
        self._workers[worker_id].add_tenant(spec)

    def sub_tenants(self, name: str) -> list[str]:
        """The sub-tenant names a registered tenant expands to.

        A spanning tenant returns its ``name#i`` list in sub-shard
        order; a plain tenant returns ``[name]``.
        """
        if name in self._spans:
            return list(self._spans[name])
        if name in self._placement:
            return [name]
        raise KeyError(f"tenant {name!r} not registered")

    @property
    def tenant_names(self) -> list[str]:
        """Registered tenants, registration order."""
        return list(self._placement)

    # -- virtual time and routing -------------------------------------------------

    @property
    def now(self) -> float:
        """The router's virtual clock (max over everything routed)."""
        return self._now

    def _set_clock(self, vt: float) -> None:
        """Move the virtual clock to ``vt``; it never runs backward."""
        if vt < self._now:
            raise ClusterError(f"virtual time cannot run backward "
                               f"({vt} < {self._now})")
        self._now = vt

    def _submit(self, tenant: str, messages: EnvelopeBatch,
                requests: EnvelopeBatch, at_vt: float | None) -> int:
        """Stamp a request with its seq and arrival time and route it to
        its tenant's worker; returns the seq."""
        if tenant not in self._placement:
            raise KeyError(f"unknown tenant {tenant!r}")
        self._set_clock(self._now if at_vt is None else float(at_vt))
        seq = self._next_seq
        self._next_seq += 1
        self._send(self._workers[self._placement[tenant]], "submit",
                   {"tenant": tenant, "seq": seq, "at_vt": self._now,
                    "messages": messages, "requests": requests})
        return seq

    def _advance(self, vt: float) -> None:
        self._set_clock(float(vt))
        for w in self._workers:
            self._send(w, "advance", {"vt": self._now})

    def _drain(self) -> None:
        """Every worker runs out its timers to now and flushes the rest."""
        self._set_clock(self._now)   # same time; the cluster fires cutovers
        for w in self._workers:
            self._send(w, "drain", {"vt": self._now})

    # -- fabric plane -------------------------------------------------------------
    #
    # The surface :class:`repro.serve.fabric.Fabric` drives (with each
    # plane's ``fabric_deliver``): one implementation, which is what
    # keeps fabric runs bit-identical between the in-process and
    # multi-process planes.

    def fabric_shard(self, tenant: str) -> int:
        """Placement of one (sub-)tenant -- the fabric's routing key."""
        return self._placement[tenant]

    def fabric_alloc_seq(self) -> int:
        """Allocate one sequence number from the global submission space.

        Fabric deliveries share the sequence space with client
        submissions so ``report()['submitted']`` counts every request
        the plane saw, in the same order.
        """
        seq = self._next_seq
        self._next_seq += 1
        return seq

    # -- accounting ---------------------------------------------------------------

    @property
    def latencies_vt(self) -> np.ndarray:
        """Per-request virtual latencies across every flush, flush order."""
        return self.results.latencies_vt()

    @property
    def shed_counts(self) -> dict[str, int]:
        """Aggregate shed accounting across workers."""
        totals = {"retryable": 0, "overloaded": 0, "migrating": 0}
        for stats in self.worker_stats():
            for key in totals:
                totals[key] += stats["counts"][key]
        return totals

    def report(self) -> dict:
        """Deterministic JSON-friendly run summary.

        Latency quantiles go through the observability layer's bucketed
        :func:`~repro.obs.metrics.percentile` estimator -- over the same
        microsecond series the ``serve.latency_us`` histogram observes --
        so a report and a live metrics snapshot of the same run quote
        identical p50/p99 values.
        """
        stats = self.worker_stats()
        lat = self.latencies_vt
        p50_us = percentile(lat * 1e6, 50)
        p99_us = percentile(lat * 1e6, 99)
        shed = self.shed_counts
        tenants = {name: {"shard": wid, **stats[wid]["tenants"][name]}
                   for name, wid in self._placement.items()}
        return {
            "virtual_seconds": self._now,
            "submitted": self._next_seq,
            "accepted": sum(s["counts"]["admitted"] for s in stats),
            "shed_retryable": shed["retryable"],
            "shed_overloaded": shed["overloaded"],
            "shed_migrating": shed["migrating"],
            "flushes": len(self.results),
            "matched": self.results.matched_count(),
            "retunes": sum(len(t["retunes"]) for t in tenants.values()),
            "latency_p50_vt": p50_us / 1e6 if p50_us is not None else None,
            "latency_p99_vt": p99_us / 1e6 if p99_us is not None else None,
            "tenants": tenants,
        }


class MatchingService(Router):
    """A sharded, workload-aware matching service in one process: the
    router over ``n_shards`` loopback :class:`ShardWorker`\\ s.

    Parameters
    ----------
    n_shards:
        Shard count; tenants are placed by stable hash of their name.
    gpu:
        Simulated device each tenant engine runs on.
    admission:
        Bounded-inbox policy applied to every shard.
    batching:
        Flush watermark policy applied to every tenant.
    seed:
        Seeds each worker's event loop RNG (policy randomness only;
        ordering is never random).
    promote_after:
        Autotuner promotion hysteresis, in agreeing windows.
    profile_window:
        Profiler sliding window, in flushes.
    verify:
        Forwarded to every engine (reference cross-checking; slow).
    obs:
        Optional :class:`~repro.obs.Observability` handle threaded to
        every shard and engine.

    Examples
    --------
    >>> from repro.core.envelope import EnvelopeBatch
    >>> from repro.serve import MatchingService, TenantSpec
    >>> svc = MatchingService(n_shards=1, seed=7)
    >>> svc.register(TenantSpec(name="t0", autotune=False))
    >>> msgs = EnvelopeBatch(src=[0, 1], tag=[5, 5])
    >>> ticket = svc.submit("t0", msgs, msgs.take([1, 0]))
    >>> ticket.accepted
    True
    >>> svc.drain()
    >>> svc.results[0].outcome.matched_count
    2
    """

    def __init__(self, n_shards: int = 1, gpu: GPUSpec = PASCAL_GTX1080,
                 admission: AdmissionPolicy | None = None,
                 batching: BatchPolicy | None = None,
                 seed: int = 0, promote_after: int = 3,
                 profile_window: int = 8, verify: bool = False,
                 obs=None) -> None:
        if n_shards < 1:
            raise ValueError("n_shards must be >= 1")
        batching = batching if batching is not None else BatchPolicy()
        super().__init__(
            [ShardWorker(i, seed=seed, gpu=gpu,
                         admission=admission, batching=batching,
                         promote_after=promote_after,
                         profile_window=profile_window, verify=verify,
                         obs=obs)
             for i in range(n_shards)], batching)
        self.tickets: list[Ticket] = []

    def _send(self, w: ShardWorker, kind: str, payload=None) -> None:
        for reply, body in w.handle(kind, payload):
            if reply == "flush":
                self._route_flush(body)
            elif reply == "ticket":
                self.tickets.append(body)

    def worker_stats(self) -> list[dict]:
        """Every worker's live stats."""
        return [w.stats() for w in self._workers]

    def register(self, spec: TenantSpec) -> None:
        """Register a tenant; placement is a stable hash of its name."""
        self._register(spec)

    def tenant(self, name: str) -> TenantState:
        """The tenant's live state (engine, profiler, retune log)."""
        return self._workers[self._placement[name]].shard.tenants[name]

    def submit(self, tenant: str, messages: EnvelopeBatch,
               requests: EnvelopeBatch,
               at_vt: float | None = None) -> Ticket:
        """Submit one request at the current (or given) virtual time."""
        self._submit(tenant, messages, requests, at_vt)
        return self.tickets[-1]

    def advance_to(self, vt: float) -> list[FlushResult]:
        """Fire due deadline timers up to ``vt``; returns their flushes."""
        with self._collecting() as routed:
            self._advance(vt)
        return routed

    def drain(self) -> list[FlushResult]:
        """Flush every pending accumulator at the current virtual time;
        returns the flushes."""
        with self._collecting() as routed:
            self._drain()
        return routed

    def deliver(self, tenant: str, messages: EnvelopeBatch,
                requests: EnvelopeBatch, at_vt: float, seq: int) -> None:
        """Admit one fabric delivery into a tenant's accumulator (a
        one-segment :meth:`fabric_deliver`)."""
        self._next_seq = max(self._next_seq, seq + 1)
        self.fabric_deliver(self._placement[tenant], {
            "at_vt": at_vt, "block": messages,
            "segments": [{"tenant": tenant, "seq": seq, "start": 0,
                          "stop": len(messages), "requests": requests}]})

    def fabric_deliver(self, dst_shard: int, xfer: dict) -> None:
        """Deliver one fabric transfer (see :mod:`repro.serve.fabric`)."""
        self._send(self._workers[dst_shard], "fabric_xfer", xfer)

    @property
    def retune_events(self) -> list[RetuneEvent]:
        """Every tenant's retune log, registration order."""
        events: list[RetuneEvent] = []
        for name in self._placement:
            events.extend(self.tenant(name).autotuner.events)
        return events
