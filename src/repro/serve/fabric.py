"""Cross-shard routing with per-shard-pair message combining.

A spanning tenant (``TenantSpec(span=N)``) places N sub-tenants
(``name#0 .. name#N-1``) across the service's shards by the usual CRC32
rule.  The :class:`Fabric` is the routing plane between them: ranks of a
BSP program map onto sub-shards, sends and receive posts accumulate in
fabric outboxes, and at each superstep boundary :meth:`Fabric.flush`
moves everything at once:

1. every receive post becomes part of **one** requests-only delivery to
   its sub-shard (receives are local -- no wire time);
2. every inter-shard message is coalesced with all other messages
   travelling the same ordered ``(source shard, destination shard)``
   pair into **one** combined column block -- packed64 once at the
   source, sliced per destination tenant with the cache intact -- and
   charged **once** in simulated wire time.

This is Träff-style isomorphic sparse-collective message combining: the
number of fabric batches per superstep scales with the number of *shard
pairs* that actually communicate, not with the number of messages.  The
``combine ratio`` (messages carried / pair batches sent) is the figure
of merit; an alltoall over S shards yields exactly ``S*(S-1)`` pair
batches regardless of rank count or fan-out.

:class:`CollectiveBridge` duck-types :class:`~repro.mpi.communicator.
Communicator` over a spanning tenant, so every algorithm in
:mod:`repro.mpi.collectives` (barrier/bcast/alltoall/reduce/allgather/
scan) runs unmodified over the serve plane: collective supersteps become
fabric flushes, and the match outcome of each sub-shard's flush routes
payloads back to the waiting receive handles.

The fabric drives both planes through one surface (``fabric_shard`` /
``fabric_alloc_seq`` / ``fabric_deliver`` / ``sub_tenants``),
implemented once by the :class:`~repro.serve.service.Router` that
:class:`~repro.serve.service.MatchingService` and
:class:`~repro.serve.cluster.ClusterService` share -- which is what keeps
same-seed fabric runs bit-identical across the process boundary, SIGKILL
or no SIGKILL (cluster transfers are journaled ``fabric_xfer`` frames;
recovery replays them verbatim).

Like the paper's batch-mode matching, a fabric superstep is *stateless*:
envelopes left unmatched by the superstep's flush are dropped, so a
receive that its superstep cannot satisfy fails fast at ``wait()``
(:class:`FabricError`) instead of silently pinning state -- the BSP
contract that tags are reusable after synchronization, enforced.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

import numpy as np

from ..core.envelope import ANY_SOURCE, EnvelopeBatch
from ..core.result import NO_MATCH
from ..mpi.communicator import check_app_tag
from ..mpi.datatypes import clone_payload, payload_nbytes

__all__ = ["FabricError", "FabricLink", "FabricFlush", "Fabric",
           "BridgeRequest", "CollectiveBridge",
           "BridgePsend", "BridgePrecv"]


class FabricError(RuntimeError):
    """A fabric protocol failure: an unmatched receive at a superstep
    boundary, or a superstep whose flush results cannot be aligned."""


@dataclass(frozen=True)
class FabricLink:
    """Wire-time model for one combined inter-shard batch.

    A pair batch of ``n`` envelopes is charged
    ``latency_vs + n * bytes_per_envelope / bandwidth_bytes_per_vs``
    virtual seconds -- a fixed per-batch cost plus a size term.  The
    fixed cost is exactly what combining amortizes: k messages in one
    batch pay ``latency_vs`` once instead of k times.  Intra-shard
    traffic and receive posts never touch the wire and are charged
    nothing.
    """

    bytes_per_envelope: int = 64
    bandwidth_bytes_per_vs: float = 1e9
    latency_vs: float = 1e-6

    def __post_init__(self) -> None:
        if self.bytes_per_envelope < 1:
            raise ValueError("bytes_per_envelope must be >= 1")
        if self.bandwidth_bytes_per_vs <= 0:
            raise ValueError("bandwidth_bytes_per_vs must be > 0")
        if self.latency_vs < 0:
            raise ValueError("latency_vs must be >= 0")

    def wire_seconds(self, n_envelopes: int, extra_bytes: int = 0) -> float:
        """Virtual seconds to move one combined batch of ``n`` envelopes
        (plus ``extra_bytes`` of piggybacked partition data -- MPI-4
        re-fires ride their channel's binding envelope on the wire)."""
        return (self.latency_vs
                + (n_envelopes * self.bytes_per_envelope + extra_bytes)
                / self.bandwidth_bytes_per_vs)


@dataclass
class _TenantStep:
    """One sub-tenant's slice of a superstep: the receive handles and
    message payload tokens whose rows its flush outcome will index."""

    req_handles: list = field(default_factory=list)
    msg_tokens: list = field(default_factory=list)


@dataclass
class FabricFlush:
    """What one :meth:`Fabric.flush` moved, for the bridge to align."""

    manifest: dict[str, _TenantStep]
    start_vt: float
    end_vt: float
    pair_batches: int = 0
    messages: int = 0


@dataclass
class _Send:
    dst_tenant: str
    src: int
    tag: int
    comm: int
    token: Any
    #: bytes of partition data riding this envelope (0 for ordinary
    #: traffic); charged on the wire but invisible to matching
    nbytes: int = 0


@dataclass
class _Recv:
    src: int
    tag: int
    comm: int
    handle: Any


class Fabric:
    """The combining routing plane over one serve plane.

    Parameters
    ----------
    plane:
        A :class:`~repro.serve.service.MatchingService` or
        :class:`~repro.serve.cluster.ClusterService` (a
        :class:`~repro.serve.service.Router` with ``fabric_deliver``).
    link:
        Wire-time model; default :class:`FabricLink`.
    """

    def __init__(self, plane, link: FabricLink | None = None) -> None:
        self.plane = plane
        self.link = link if link is not None else FabricLink()
        #: pending sends, keyed by source tenant, send order per key
        self._outbox: dict[str, list[_Send]] = {}
        #: pending receive posts, keyed by destination tenant, post order
        self._recvs: dict[str, list[_Recv]] = {}
        # cumulative combining accounting
        self.supersteps = 0
        self.pair_batches_total = 0
        self.fabric_messages_total = 0
        self.local_messages_total = 0
        self.wire_seconds_total = 0.0
        self.per_pair_batches: dict[tuple[int, int], int] = {}

    # -- posting ------------------------------------------------------------------

    def send(self, src_tenant: str, dst_tenant: str, src: int, tag: int,
             comm: int, token: Any, nbytes: int = 0) -> _Send:
        """Queue one message envelope (plus its payload token) for the
        next superstep.  ``src`` is the sender's rank value as it will
        appear in the envelope's source field.  Returns the queued entry
        so a partitioned channel can keep piggybacking partition bytes
        onto its binding envelope until the flush."""
        entry = _Send(dst_tenant=dst_tenant, src=src, tag=tag, comm=comm,
                      token=token, nbytes=nbytes)
        self._outbox.setdefault(src_tenant, []).append(entry)
        return entry

    def post_recv(self, dst_tenant: str, src: int, tag: int, comm: int,
                  handle: Any) -> None:
        """Queue one receive post at its destination sub-shard; the
        handle is completed (or failed) when the superstep flushes."""
        self._recvs.setdefault(dst_tenant, []).append(
            _Recv(src=src, tag=tag, comm=comm, handle=handle))

    @property
    def combine_ratio(self) -> float:
        """Inter-shard messages carried per pair batch sent (>= 1.0
        whenever anything crossed the wire)."""
        if self.pair_batches_total == 0:
            return 0.0
        return self.fabric_messages_total / self.pair_batches_total

    # -- the superstep boundary ---------------------------------------------------

    def flush(self) -> FabricFlush:
        """Move every queued post: one requests-only delivery per
        receiving tenant, one combined block per ordered shard pair.

        Deliveries land in the destination accumulators immediately
        (receives at ``now``, pair blocks at ``now + wire``); the caller
        then advances the plane to ``end_vt`` and drains, which is the
        next watermark.  Everything here is deterministic given the
        posting order: shard pairs go out sorted, tenants within a pair
        in first-send order, envelopes within a tenant in send order.
        """
        plane = self.plane
        now = float(plane.now)
        manifest: dict[str, _TenantStep] = {}

        def step_of(tenant: str) -> _TenantStep:
            if tenant not in manifest:
                manifest[tenant] = _TenantStep()
            return manifest[tenant]

        # -- phase 1: receive posts, one requests-only delivery per tenant,
        # grouped per destination shard so each shard gets one transfer.
        recvs, self._recvs = self._recvs, {}
        by_dst_shard: dict[int, list[str]] = {}
        shard_of: dict[str, int] = {}
        for tenant in recvs:
            shard = plane.fabric_shard(tenant)
            shard_of[tenant] = shard
            by_dst_shard.setdefault(shard, []).append(tenant)
        for shard in sorted(by_dst_shard):
            segments = []
            for tenant in by_dst_shard[shard]:
                posts = recvs[tenant]
                batch = EnvelopeBatch(src=[r.src for r in posts],
                                      tag=[r.tag for r in posts],
                                      comm=[r.comm for r in posts])
                segments.append({"tenant": tenant,
                                 "seq": plane.fabric_alloc_seq(),
                                 "start": 0, "stop": 0,
                                 "requests": batch})
                step_of(tenant).req_handles.extend(r.handle for r in posts)
            plane.fabric_deliver(shard, {"at_vt": now, "block": None,
                                         "segments": segments})

        # -- phase 2: sends, combined per ordered (src shard, dst shard)
        # pair.  Group first by pair, then by destination tenant, so each
        # tenant's rows are one contiguous slice of the pair block.
        outbox, self._outbox = self._outbox, {}
        pairs: dict[tuple[int, int], dict[str, list[_Send]]] = {}
        for src_tenant, sends in outbox.items():
            src_shard = plane.fabric_shard(src_tenant)
            for s in sends:
                dst_shard = shard_of.get(s.dst_tenant)
                if dst_shard is None:
                    dst_shard = plane.fabric_shard(s.dst_tenant)
                    shard_of[s.dst_tenant] = dst_shard
                pair = (src_shard, dst_shard)
                pairs.setdefault(pair, {}).setdefault(
                    s.dst_tenant, []).append(s)
        max_wire = 0.0
        n_pair_batches = 0
        n_messages = 0
        for pair in sorted(pairs):
            src_shard, dst_shard = pair
            groups = pairs[pair]
            src_col: list[int] = []
            tag_col: list[int] = []
            comm_col: list[int] = []
            extra_bytes = 0
            segments = []
            for tenant, sends in groups.items():
                start = len(src_col)
                for s in sends:
                    src_col.append(s.src)
                    tag_col.append(s.tag)
                    comm_col.append(s.comm)
                    extra_bytes += s.nbytes
                    step_of(tenant).msg_tokens.append(s.token)
                segments.append({"tenant": tenant,
                                 "seq": plane.fabric_alloc_seq(),
                                 "start": start, "stop": len(src_col),
                                 "requests": None})
            block = EnvelopeBatch(src=src_col, tag=tag_col, comm=comm_col)
            # pack once for the whole pair block; every segment slice
            # (and the wire round trip) reuses this cache
            block.packed()
            if src_shard != dst_shard:
                wire = self.link.wire_seconds(len(block), extra_bytes)
                max_wire = max(max_wire, wire)
                n_pair_batches += 1
                n_messages += len(block)
                self.per_pair_batches[pair] = \
                    self.per_pair_batches.get(pair, 0) + 1
            else:
                wire = 0.0
                self.local_messages_total += len(block)
            plane.fabric_deliver(dst_shard, {"at_vt": now + wire,
                                             "block": block,
                                             "segments": segments})
        self.supersteps += 1
        self.pair_batches_total += n_pair_batches
        self.fabric_messages_total += n_messages
        self.wire_seconds_total += max_wire
        return FabricFlush(manifest=manifest, start_vt=now,
                           end_vt=now + max_wire,
                           pair_batches=n_pair_batches, messages=n_messages)


# ---------------------------------------------------------------------------
# The collective bridge
# ---------------------------------------------------------------------------

class BridgeRequest:
    """A nonblocking handle over the fabric (the bridge's
    :class:`~repro.mpi.request.Request` stand-in).

    Send handles complete immediately (fabric sends are buffered, like
    the simulated network's eager path).  Receive handles complete when
    their superstep's flush matches them; waiting on a receive the
    superstep could not satisfy raises :class:`FabricError` -- supersteps
    are stateless, the envelope is already gone.
    """

    __slots__ = ("_bridge", "_done", "_payload")

    def __init__(self, bridge: "CollectiveBridge",
                 done: bool = False, payload: Any = None) -> None:
        self._bridge = bridge
        self._done = done
        self._payload = payload

    @property
    def done(self) -> bool:
        return self._done

    def _complete(self, payload: Any) -> None:
        self._done = True
        self._payload = payload

    def test(self) -> bool:
        return self._done

    def wait(self) -> Any:
        """Drive a superstep if needed; return the received payload."""
        if not self._done:
            self._bridge.step()
        if not self._done:
            raise FabricError(
                "receive not matched by its superstep (stateless fabric "
                "flush dropped the unmatched envelope)")
        return self._payload


class CollectiveBridge:
    """Run :mod:`repro.mpi.collectives` over a spanning tenant.

    Duck-types the :class:`~repro.mpi.communicator.Communicator` surface
    the collectives use (``size`` / ``isend`` / ``irecv`` /
    ``coll_isend`` / ``coll_irecv``), with local rank ``i`` living on
    sub-tenant ``name#i``.  Every algorithm is a sequence of BSP
    supersteps; the first ``wait()`` of a superstep triggers
    :meth:`step`, which flushes the fabric, drains the plane, and routes
    each sub-shard's match outcome back to its receive handles.

    Parameters
    ----------
    plane:
        The serve plane (in-process or cluster) the tenant is registered
        on; ``plane.sub_tenants(tenant)`` defines the rank order.
    tenant:
        The spanning tenant's base name.
    comm_id:
        Matching-tuple communicator value carried by every envelope.
    link:
        Forwarded to the :class:`Fabric`.
    """

    def __init__(self, plane, tenant: str, comm_id: int = 0,
                 link: FabricLink | None = None) -> None:
        self.plane = plane
        self.tenant = tenant
        self.comm_id = comm_id
        self.subs = list(plane.sub_tenants(tenant))
        self.fabric = Fabric(plane, link=link)
        self._results_seen = len(plane.results)
        # partitioned-channel plane (driver-side, like payload tokens)
        self._next_channel = 1
        self._channels: dict[tuple[int, int], dict] = {}
        self._pending_psends: list["BridgePsend"] = []

    @property
    def size(self) -> int:
        """Rank count (= the tenant's span)."""
        return len(self.subs)

    # -- communicator surface -----------------------------------------------------

    def isend(self, src: int, dst: int, payload: Any = None,
              tag: int = 0) -> BridgeRequest:
        """Application send: reserved collective tags are rejected."""
        check_app_tag(tag)
        return self.coll_isend(src, dst, payload, tag)

    def irecv(self, dst: int, src: int, tag: int) -> BridgeRequest:
        """Application receive post (``ANY_SOURCE``/``ANY_TAG`` legal)."""
        check_app_tag(tag, wildcard_ok=True)
        return self.coll_irecv(dst, src, tag)

    def coll_isend(self, src: int, dst: int, payload: Any = None,
                   tag: int = 0) -> BridgeRequest:
        """Unchecked send entry point (reserved tags allowed)."""
        self._check_rank(src)
        self._check_rank(dst)
        # snapshot the payload now: the sender may mutate its buffer
        # after isend returns, and delivery happens at the flush
        self.fabric.send(self.subs[src], self.subs[dst], src, tag,
                         self.comm_id, clone_payload(payload))
        return BridgeRequest(self, done=True)

    def coll_irecv(self, dst: int, src: int, tag: int) -> BridgeRequest:
        """Unchecked receive entry point (reserved tags allowed)."""
        self._check_rank(dst)
        if src != ANY_SOURCE:
            self._check_rank(src)
        handle = BridgeRequest(self)
        self.fabric.post_recv(self.subs[dst], src, tag, self.comm_id,
                              handle)
        return handle

    def send(self, src: int, dst: int, payload: Any = None,
             tag: int = 0) -> None:
        self.isend(src, dst, payload, tag).wait()

    def recv(self, dst: int, src: int, tag: int) -> Any:
        return self.irecv(dst, src, tag).wait()

    def _check_rank(self, rank: int) -> None:
        if not 0 <= rank < len(self.subs):
            raise ValueError(f"rank {rank} outside communicator "
                             f"(size {len(self.subs)})")

    # -- partitioned channels -----------------------------------------------------

    def psend_init(self, src: int, dst: int, partitions: int,
                   tag: int = 0,
                   bytes_per_partition: int = 8) -> "BridgePsend":
        """Persistent partitioned send over the fabric
        (``MPI_Psend_init``); see :class:`BridgePsend`."""
        return BridgePsend(self, src, dst, partitions, tag=tag,
                           bytes_per_partition=bytes_per_partition)

    def precv_init(self, dst: int, src: int, partitions: int,
                   tag: int = 0) -> "BridgePrecv":
        """Persistent partitioned receive over the fabric
        (``MPI_Precv_init``); see :class:`BridgePrecv`."""
        return BridgePrecv(self, dst, src, partitions, tag=tag)

    # -- the superstep ------------------------------------------------------------

    def step(self) -> FabricFlush:
        """One BSP superstep: flush the fabric, run the plane to the
        superstep's end, and complete the receive handles from each
        sub-shard's match outcome."""
        plane = self.plane
        # seal active partitioned epochs: their binding envelopes leave
        # with this flush, so no further pready can ride them
        pending, self._pending_psends = self._pending_psends, []
        for ps in pending:
            ps._fire()
        fl = self.fabric.flush()
        plane.advance_to(fl.end_vt)
        plane.drain()
        sync = getattr(plane, "sync", None)
        if sync is not None:
            sync()   # cluster plane: barrier so every flush is collected
        new_results = plane.results[self._results_seen:]
        self._results_seen = len(plane.results)
        by_tenant: dict[str, list] = {}
        for r in new_results:
            by_tenant.setdefault(r.tenant, []).append(r)
        for tenant, step in fl.manifest.items():
            results = by_tenant.get(tenant, [])
            if len(results) != 1:
                raise FabricError(
                    f"superstep for {tenant!r} produced "
                    f"{len(results)} flushes (expected exactly 1); "
                    f"fabric deliveries must not share accumulators "
                    f"with client traffic mid-superstep")
            outcome = results[0].outcome
            if (outcome.n_requests != len(step.req_handles)
                    or outcome.n_messages != len(step.msg_tokens)):
                raise FabricError(
                    f"superstep row misalignment for {tenant!r}: flush "
                    f"saw {outcome.n_requests} requests / "
                    f"{outcome.n_messages} messages, fabric delivered "
                    f"{len(step.req_handles)} / {len(step.msg_tokens)}")
            r2m = outcome.request_to_message
            for j, handle in enumerate(step.req_handles):
                m = int(r2m[j])
                if m != NO_MATCH:
                    handle._complete(step.msg_tokens[m])
        return fl


# ---------------------------------------------------------------------------
# Partitioned channels over the fabric
# ---------------------------------------------------------------------------

class _BridgePartitionedBase:
    """State shared by both sides of a fabric partitioned channel."""

    def __init__(self, bridge: CollectiveBridge, partitions: int,
                 tag: int) -> None:
        if partitions < 1:
            raise ValueError("partitions must be >= 1")
        check_app_tag(tag)
        self.bridge = bridge
        self.partitions = partitions
        self.tag = tag
        self.epoch = 0
        self._active = False

    @property
    def active(self) -> bool:
        """Is an epoch in flight (``start()`` without ``wait()``)?"""
        return self._active

    def _require_active(self, op: str) -> None:
        if not self._active:
            raise RuntimeError(f"{op} on an inactive partitioned request; "
                               "call start() first")

    def _check_index(self, i: int) -> None:
        if not 0 <= i < self.partitions:
            raise IndexError(f"partition {i} out of range "
                             f"(0..{self.partitions - 1})")


class BridgePsend(_BridgePartitionedBase):
    """Send side of a partitioned channel over the serve fabric.

    The MPI-4 match-once contract, mapped onto BSP supersteps: each
    ``start()`` queues exactly **one** binding envelope -- the epoch's
    single matchable message -- and every ``pready`` piggybacks its
    partition's bytes onto that envelope (charged in the pair batch's
    wire time, invisible to matching).  Partition payloads stay
    driver-side like every fabric payload token, which is what keeps
    partitioned supersteps bit-identical between the in-process service
    and the cluster, SIGKILL or no SIGKILL.

    An epoch is one superstep: every partition must be fired before the
    flush that carries the binding (supersteps are stateless -- a
    late ``pready`` would have no envelope left to ride).
    """

    def __init__(self, bridge: CollectiveBridge, src: int, dst: int,
                 partitions: int, tag: int = 0,
                 bytes_per_partition: int = 8) -> None:
        super().__init__(bridge, partitions, tag)
        if bytes_per_partition < 0:
            raise ValueError("bytes_per_partition cannot be negative")
        bridge._check_rank(src)
        bridge._check_rank(dst)
        self.src = src
        self.dst = dst
        self.bytes_per_partition = bytes_per_partition
        self.channel = bridge._next_channel
        bridge._next_channel += 1
        self._state: dict | None = None
        self._wire: _Send | None = None
        self._flushed = False

    def start(self) -> "BridgePsend":
        """Activate one epoch: queue the single binding envelope."""
        if self._active:
            raise RuntimeError("start() on an already-active partitioned "
                               "send; wait() the epoch first")
        self.epoch += 1
        self._active = True
        self._flushed = False
        bridge = self.bridge
        self._state = {"partitions": self.partitions,
                       "mask": np.zeros(self.partitions, dtype=bool),
                       "payloads": [None] * self.partitions}
        bridge._channels[(self.channel, self.epoch)] = self._state
        token = {"part_channel": self.channel, "epoch": self.epoch,
                 "partitions": self.partitions,
                 "bytes_per_partition": self.bytes_per_partition}
        self._wire = bridge.fabric.send(
            bridge.subs[self.src], bridge.subs[self.dst], self.src,
            self.tag, bridge.comm_id, token)
        bridge._pending_psends.append(self)
        return self

    def pready(self, i: int, payload: Any = None) -> None:
        """Fire partition ``i``: snapshot its payload and piggyback its
        bytes onto the epoch's binding envelope."""
        self._require_active("pready")
        self._check_index(i)
        if self._flushed:
            raise RuntimeError(
                f"pready({i}) after the epoch's superstep flushed; on "
                "the fabric an epoch is one superstep -- fire every "
                "partition before waiting")
        if self._state["mask"][i]:
            raise RuntimeError(f"partition {i} already marked ready this "
                               "epoch")
        self._state["mask"][i] = True
        self._state["payloads"][i] = clone_payload(payload)
        self._wire.nbytes += max(self.bytes_per_partition,
                                 payload_nbytes(payload))

    def pready_range(self, lo: int, hi: int, payloads: Any = None) -> None:
        """Fire partitions ``lo..hi-1`` (``MPI_Pready_range``).

        The payload-free form is the re-fire fast path: one mask slice
        and one byte charge for the whole range, no per-partition Python
        work -- this is where the match-once amortization actually
        cashes out for bandwidth-shaped streams.
        """
        if payloads is not None:
            for i in range(lo, hi):
                self.pready(i, payloads[i - lo])
            return
        self._require_active("pready_range")
        if not 0 <= lo <= hi <= self.partitions:
            raise IndexError(f"range [{lo}, {hi}) outside "
                             f"{self.partitions} partitions")
        if self._flushed:
            raise RuntimeError(
                f"pready_range({lo}, {hi}) after the epoch's superstep "
                "flushed; on the fabric an epoch is one superstep -- "
                "fire every partition before waiting")
        mask = self._state["mask"]
        if mask[lo:hi].any():
            already = (lo + np.flatnonzero(mask[lo:hi])).tolist()
            raise RuntimeError(f"partitions {already} already marked "
                               "ready this epoch")
        mask[lo:hi] = True
        self._wire.nbytes += self.bytes_per_partition * (hi - lo)

    def wait(self) -> None:
        """Complete the epoch (driving the superstep if this side gets
        there first) and re-arm for the next ``start()``."""
        self._require_active("wait")
        if not self._state["mask"].all():
            missing = np.flatnonzero(~self._state["mask"])
            raise FabricError(
                f"wait() with partitions {missing.tolist()} never "
                "pready'd; every partition must fire each epoch")
        if not self._flushed:
            self.bridge.step()
        self._active = False

    def _fire(self) -> None:
        self._flushed = True


class BridgePrecv(_BridgePartitionedBase):
    """Receive side of a partitioned channel over the serve fabric.

    Each ``start()`` posts exactly **one** receive; its match against
    the binding envelope is the epoch's single matching event, and the
    routed token hands the receiver the channel's driver-side partition
    payloads.  ``parrived(i)`` reports per-partition completion once the
    superstep has run.
    """

    def __init__(self, bridge: CollectiveBridge, dst: int, src: int,
                 partitions: int, tag: int = 0) -> None:
        super().__init__(bridge, partitions, tag)
        bridge._check_rank(dst)
        bridge._check_rank(src)
        self.dst = dst
        self.src = src
        self._handle: BridgeRequest | None = None
        self._bound: dict | None = None
        self._bound_key: tuple[int, int] | None = None

    def start(self) -> "BridgePrecv":
        """Activate one epoch: post the single binding receive."""
        if self._active:
            raise RuntimeError("start() on an already-active partitioned "
                               "receive; wait() the epoch first")
        self.epoch += 1
        self._active = True
        self._bound = None
        self._bound_key = None
        self._handle = self.bridge.irecv(self.dst, self.src, self.tag)
        return self

    def _bind(self) -> dict:
        """Validate the routed binding token against this request."""
        if self._bound is not None:
            return self._bound
        token = self._handle._payload
        if not isinstance(token, dict) or "part_channel" not in token:
            raise FabricError(
                "partitioned receive matched a non-partitioned send on "
                f"tag {self.tag}; the channel tag must not be shared "
                "with ordinary traffic")
        if token["partitions"] != self.partitions:
            raise FabricError(
                f"partition count mismatch: sender declared "
                f"{token['partitions']}, receiver {self.partitions}")
        if token["epoch"] != self.epoch:
            raise FabricError(
                f"epoch skew on partitioned channel "
                f"{token['part_channel']}: sender epoch {token['epoch']}, "
                f"receiver epoch {self.epoch} -- both sides must start() "
                "each epoch exactly once")
        self._bound_key = (token["part_channel"], token["epoch"])
        self._bound = self.bridge._channels[self._bound_key]
        return self._bound

    def parrived(self, i: int) -> bool:
        """Has partition ``i``'s data landed (i.e. the epoch's superstep
        has run and the partition was fired)?  Does not drive the
        superstep itself -- on the fabric, ``wait()`` is the superstep
        boundary."""
        self._require_active("parrived")
        self._check_index(i)
        if not self._handle.done:
            return False
        return bool(self._bind()["mask"][i])

    def wait(self) -> list[Any]:
        """Block until the epoch completes (driving the superstep if
        needed); returns partition payloads in index order and re-arms
        for the next ``start()``."""
        self._require_active("wait")
        self._handle.wait()
        state = self._bind()
        if not state["mask"].all():
            missing = np.flatnonzero(~state["mask"]).tolist()
            raise FabricError(
                f"partitions {missing[:8]} never fired before the "
                "epoch's superstep flushed; on the fabric an epoch is "
                "one superstep")
        payloads = list(state["payloads"])
        self.bridge._channels.pop(self._bound_key, None)
        self._active = False
        self._handle = None
        return payloads
