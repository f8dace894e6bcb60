"""MPI-4 partitioned communication: match once, re-fire many times.

MPI Advance (Bienz et al., PAPERS.md) centers partitioned point-to-point
as the modern answer to high-rate fine-grained traffic: a persistent
channel is *matched once* and its payload then flows as independently
completable partitions, so the per-message matching cost -- the whole
subject of the paper's Table II analysis -- is amortized over arbitrarily
many re-fires.

:class:`_PartitionedBase` is the channel's one state machine (epochs, the
ready mask, every index, range and binding check); a transport adds two
hooks, bind the epoch and fire partitions.  This module's transport is
:class:`~repro.mpi.network.GASNetwork`; the serve fabric's
:class:`~repro.serve.fabric.BridgePsend` / ``BridgePrecv`` are the other.

* :func:`psend_init` / :func:`precv_init` create persistent requests
  bound to a ``(src, dst, tag, comm)`` envelope and a partition count.
  Init performs no communication.
* ``start()`` sends (send side) or posts (receive side) exactly **one**
  binding envelope on the user tag; that single match -- countable in
  ``Endpoint.matches_total`` -- binds the epoch.
* ``pready(i)`` ships partition ``i`` as its own frame
  (``part=(channel, epoch, i)``): sequenced, charged wire time,
  fault-injected and recovered like any frame, but landing in the
  channel's pre-registered buffer instead of the UMQ.
* ``parrived(i)`` reports per-partition completion; ``wait()`` completes
  the epoch and re-arms the request for the next ``start()``.

Frames that arrive before their epoch's binding has matched are *staged*
by the cluster-wide :class:`PartitionRouter` and drained the moment the
binding lands.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

import numpy as np

from .communicator import Communicator, check_app_tag
from .datatypes import clone_payload, payload_nbytes
from .network import MessageDescriptor

if TYPE_CHECKING:  # pragma: no cover
    from .process import Cluster

__all__ = ["PartitionRouter", "PsendRequest", "PrecvRequest",
           "psend_init", "precv_init"]


class PartitionRouter:
    """Cluster-wide landing plane for partition frames.

    Owns the channel-id space (cluster-monotonic, like communicator ids)
    and the per-``(channel, epoch)`` landing state.  Delivery is
    unconditional: partition buffers are pre-registered at init time, so
    partition frames are never subject to ring backpressure -- the
    receiver guaranteed the memory when it created the request.
    """

    def __init__(self, cluster: "Cluster") -> None:
        self.cluster = cluster
        self._next_channel = 1
        #: frames that arrived before their epoch's binding matched:
        #: ``(channel, epoch) -> {partition index: payload}``
        self._staged: dict[tuple[int, int], dict[int, Any]] = {}
        #: receivers whose binding has matched, by ``(channel, epoch)``
        self._bound: dict[tuple[int, int], "PrecvRequest"] = {}
        self.frames_total = 0
        self.frames_staged = 0
        self.frames_stale = 0

    def alloc_channel(self) -> int:
        """A fresh channel id (never reused within a cluster)."""
        cid = self._next_channel
        self._next_channel = cid + 1
        return cid

    def deliver(self, desc: MessageDescriptor) -> bool:
        """Land one partition frame (called from ``Cluster._deliver``).

        Exactly-once per-pair ordering is the reliability layer's job;
        by the time a frame reaches the router it is authoritative, so a
        re-landing of the same index (possible only on the fault-free
        wire, where the application itself cannot re-fire an index
        within an epoch) is a plain overwrite.
        """
        channel, epoch, index = desc.part
        self.frames_total += 1
        rx = self._bound.get((channel, epoch))
        if rx is not None:
            rx._land(index, desc.payload)
            return True
        self.frames_staged += 1
        self._staged.setdefault((channel, epoch), {})[index] = desc.payload
        return True

    def bind(self, channel: int, epoch: int, rx: "PrecvRequest") -> None:
        """Attach a receiver whose binding envelope just matched; drain
        any frames that raced ahead of the match."""
        self._bound[(channel, epoch)] = rx
        staged = self._staged.pop((channel, epoch), None)
        if staged:
            for index in sorted(staged):
                rx._land(index, staged[index])

    def release(self, channel: int, epoch: int) -> None:
        """Retire a completed epoch; any stale staging for earlier
        epochs of the channel is dropped (late duplicates of a finished
        transfer have no receiver and never will)."""
        self._bound.pop((channel, epoch), None)
        for key in [k for k in self._staged
                    if k[0] == channel and k[1] <= epoch]:
            self.frames_stale += len(self._staged.pop(key))

    def stats(self) -> dict:
        """Router counters (for stall diagnosis and tests)."""
        return {"frames_total": self.frames_total,
                "frames_staged": self.frames_staged,
                "frames_stale": self.frames_stale,
                "channels": self._next_channel - 1,
                "bound": len(self._bound),
                "staged_pending": sum(len(v)
                                      for v in self._staged.values())}


class _PartitionedBase:
    """One side of a partitioned channel: the state machine every
    transport shares.

    It owns the epoch counter, the active flag and the ready mask --
    partitions fired (send side) or landed (receive side) this epoch --
    and checks each call before any side effect, so a rejected
    ``pready_range`` marks and fires nothing.  A transport supplies
    ``_bind()``, which sends or posts the epoch's binding envelope, and
    on the send side ``_fire(lo, hi, payloads)``, which ships partitions
    ``lo..hi-1`` (``payloads`` is ``None`` or one entry per partition).
    """

    #: raised for binding and completion failures
    _error: type[Exception] = RuntimeError
    #: raised when the two sides declare different partition counts
    _count_error: type[Exception] = ValueError

    def __init__(self, partitions: int, tag: int) -> None:
        if partitions < 1:
            raise ValueError("partitions must be >= 1")
        check_app_tag(tag)
        self.partitions = partitions
        self.tag = tag
        self.epoch = 0
        self._active = False
        self._ready = np.zeros(partitions, dtype=bool)

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

    def _start(self) -> None:
        """Open the next epoch with nothing ready, then bind it."""
        if self._active:
            raise RuntimeError("start() on an already-active partitioned "
                               "request; wait() the epoch first")
        self.epoch += 1
        self._active = True
        # a fresh mask per epoch: a fabric receiver reads the finished
        # epoch's mask after its sender may have started the next one
        self._ready = np.zeros(self.partitions, dtype=bool)
        self._bind()

    def _pready(self, lo: int, hi: int, payloads: Any,
                op: str = "pready_range") -> None:
        """Fire partitions ``lo..hi-1``.  Every check runs first, so a
        rejected call marks and fires nothing."""
        self._require_active(op)
        if not 0 <= lo <= hi <= self.partitions:
            raise IndexError(f"range [{lo}, {hi}) outside "
                             f"{self.partitions} partitions")
        ready = self._ready[lo:hi]
        if ready.any():
            already = (lo + np.flatnonzero(ready)).tolist()
            raise RuntimeError(f"partitions {already} already marked "
                               "ready this epoch")
        self._fire(lo, hi, payloads)
        ready[:] = True

    def _check_all_ready(self) -> None:
        """An epoch completes only once every partition has fired."""
        if not self._ready.all():
            missing = np.flatnonzero(~self._ready).tolist()
            raise self._error(
                f"wait() with partitions {missing} never pready'd; every "
                "partition must fire each epoch")

    def _binding_token(self, channel: int, bytes_per_partition: int) -> dict:
        """The binding envelope's payload (send side)."""
        return {"part_channel": channel, "epoch": self.epoch,
                "partitions": self.partitions,
                "bytes_per_partition": bytes_per_partition}

    def _check_binding(self, token: Any) -> None:
        """Receive side: the matched binding must be this channel's, for
        this epoch, with this partition count."""
        if not isinstance(token, dict) or "part_channel" not in token:
            raise self._error(
                "partitioned receive matched a non-partitioned send on "
                f"tag {self.tag}; the channel tag must not be shared "
                "with ordinary traffic")
        if token["partitions"] != self.partitions:
            raise self._count_error(
                f"partition count mismatch: sender declared "
                f"{token['partitions']}, receiver {self.partitions}")
        if token["epoch"] != self.epoch:
            raise self._error(
                f"epoch skew on partitioned channel "
                f"{token['part_channel']}: sender epoch {token['epoch']}, "
                f"receiver epoch {self.epoch} -- both sides must start() "
                "each epoch exactly once")


class PsendRequest(_PartitionedBase):
    """Send side of a persistent partitioned channel (``MPI_Psend_init``).

    ``src``/``dst`` are communicator-local ranks.  One binding envelope
    per ``start()``; one partition frame per fired partition.
    """

    def __init__(self, comm: Communicator, src: int, dst: int,
                 partitions: int, tag: int = 0,
                 bytes_per_partition: int = 8) -> None:
        super().__init__(partitions, tag)
        if bytes_per_partition < 0:
            raise ValueError("bytes_per_partition cannot be negative")
        self.comm = comm
        self.src = src
        self.dst = dst
        self.bytes_per_partition = bytes_per_partition
        self.channel = comm.cluster.partitioned.alloc_channel()

    def start(self) -> "PsendRequest":
        """Activate one epoch: all partitions become not-ready and the
        binding envelope is sent -- the epoch's *single* matched message,
        regardless of how many partitions later fire."""
        self._start()
        return self

    def pready(self, i: int, payload: Any = None) -> None:
        """Fire partition ``i``: ship its frame through the transport.

        The frame carries the channel identity instead of entering
        matching; it is still sequenced, fault-injected, recovered, and
        charged wire time like any eager message of
        ``bytes_per_partition`` bytes (or the payload's size if larger).
        """
        self._pready(i, i + 1, (payload,), "pready")

    def pready_range(self, lo: int, hi: int,
                     payloads: Any = None) -> None:
        """Fire partitions ``lo..hi-1`` (``MPI_Pready_range``)."""
        self._pready(lo, hi, payloads)

    def _bind(self) -> None:
        self.comm.isend(self.src, self.dst,
                        self._binding_token(self.channel,
                                            self.bytes_per_partition),
                        self.tag)

    def _fire(self, lo: int, hi: int, payloads: Any) -> None:
        comm = self.comm
        src, dst = comm.global_rank(self.src), comm.global_rank(self.dst)
        for i in range(lo, hi):
            payload = None if payloads is None else payloads[i - lo]
            comm.cluster.network.send(MessageDescriptor(
                src=src, dst=dst, tag=self.tag, comm=comm.comm_id,
                nbytes=max(self.bytes_per_partition,
                           payload_nbytes(payload)),
                eager=True, payload=clone_payload(payload),
                part=(self.channel, self.epoch, i)))

    def test(self) -> bool:
        """Send-side epoch completion: every partition fired."""
        self._require_active("test")
        self.comm.cluster.progress()
        return bool(self._ready.all())

    def wait(self, max_rounds: int = 10_000) -> None:
        """Complete the epoch and re-arm for the next ``start()``.

        All partitions must have been fired (MPI requires every
        partition be made ready before the operation can complete).
        """
        self._require_active("wait")
        self._check_all_ready()
        # pump until the transport has nothing left in flight for us --
        # under faults, frames may still be in retransmission
        for _ in range(max_rounds):
            net = self.comm.cluster.network
            self.comm.cluster.progress()
            if net.held_messages == 0 and not net.reliability_busy:
                break
        self._active = False


class PrecvRequest(_PartitionedBase):
    """Receive side of a persistent partitioned channel
    (``MPI_Precv_init``).

    ``dst`` is the receiving local rank, ``src`` the sending local rank
    (no wildcards: the channel is a point-to-point contract, which is
    exactly what lets its frames skip matching).
    """

    def __init__(self, comm: Communicator, dst: int, src: int,
                 partitions: int, tag: int = 0) -> None:
        super().__init__(partitions, tag)
        self.comm = comm
        self.router = comm.cluster.partitioned
        self.dst = dst
        self.src = src
        self._payloads: list[Any] = [None] * partitions
        self._binding: dict | None = None
        self._binding_req = None

    def start(self) -> "PrecvRequest":
        """Activate one epoch: post the *single* receive whose match
        binds the channel."""
        self._start()
        return self

    def _bind(self) -> None:
        self._payloads = [None] * self.partitions
        self._binding = None
        self._binding_req = self.comm.irecv(self.dst, self.src, self.tag)

    # -- router callback ---------------------------------------------------------

    def _land(self, index: int, payload: Any) -> None:
        if 0 <= index < self.partitions:
            self._ready[index] = True
            self._payloads[index] = payload

    # -- completion --------------------------------------------------------------

    def _poll_binding(self) -> None:
        """Attach to the channel once the binding envelope has matched."""
        if self._binding is not None or not self._binding_req.test():
            return
        binding = self._binding_req.wait()
        self._check_binding(binding)
        self._binding = binding
        self.router.bind(binding["part_channel"], self.epoch, self)

    def parrived(self, i: int) -> bool:
        """Has partition ``i`` landed this epoch?  (``MPI_Parrived``;
        drives one progress pass like ``MPI_Test`` would.)"""
        self._require_active("parrived")
        self._check_index(i)
        self.comm.cluster.progress()
        self._poll_binding()
        return bool(self._ready[i])

    def test(self) -> bool:
        """Epoch completion: binding matched and every partition landed."""
        self._require_active("test")
        self.comm.cluster.progress()
        self._poll_binding()
        return self._binding is not None and bool(self._ready.all())

    def wait(self, max_rounds: int = 10_000) -> list[Any]:
        """Block until the epoch completes; returns the partition
        payloads in index order and re-arms for the next ``start()``."""
        self._require_active("wait")
        for _ in range(max_rounds):
            if self.test():
                break
        else:
            missing = np.flatnonzero(~self._ready).tolist()
            raise RuntimeError(
                f"partitioned receive did not complete after {max_rounds} "
                f"progress rounds (binding "
                f"{'matched' if self._binding else 'unmatched'}, missing "
                f"partitions {missing[:8]}): likely deadlock")
        payloads = list(self._payloads)
        self.router.release(self._binding["part_channel"], self.epoch)
        self._active = False
        self._binding_req = None
        return payloads


def psend_init(comm: Communicator, src: int, dst: int, partitions: int,
               tag: int = 0, bytes_per_partition: int = 8) -> PsendRequest:
    """Create a persistent partitioned send (``MPI_Psend_init``).

    No communication happens until ``start()``.
    """
    return PsendRequest(comm, src, dst, partitions, tag=tag,
                        bytes_per_partition=bytes_per_partition)


def precv_init(comm: Communicator, dst: int, src: int, partitions: int,
               tag: int = 0) -> PrecvRequest:
    """Create a persistent partitioned receive (``MPI_Precv_init``)."""
    return PrecvRequest(comm, dst, src, partitions, tag=tag)
