"""Multi-process serving: worker shards behind a process boundary.

:class:`ClusterService` runs each shard in its **own worker process**
and keeps the router in the calling process.  The router is the same
:class:`~repro.serve.service.Router` the in-process
:class:`~repro.serve.service.MatchingService` is -- placement, the global
request sequence space, the virtual clock, results and reports -- over a
different transport: each worker process hosts a
:class:`~repro.serve.service.ShardWorker` driven exclusively by wire
frames (:mod:`repro.serve.wire`) over two one-way pipes -- a command
pipe and a response pipe per worker, single writer each, so frame order
is FIFO per direction.

**Transport.**  The router never blocks on a write and never sleeps.  It
writes length-prefixed frames into a worker's command pipe without
blocking and returns once a frame is in the kernel; while the pipe is
full it waits in one deadline-bounded ``poll`` -- on that pipe, the
response pipes and the worker's process sentinel -- and handles replies
meanwhile.  Frames a worker has not read yet wait in the kernel pipe
buffer (~60 KB), not in the router's heap; there is no queue depth and
no feeder thread.  Barriers and shutdown wait in the same ``poll``, so a
worker's death wakes the router.  The worker reads and writes with
plain blocking ``recv_bytes`` / ``send_bytes``.

**Determinism contract.**  A same-seed cluster run is bit-identical to
the in-process service on the same stream: tickets (status, seq, retry
hints), flush results (match pairs, covered seqs, virtual timestamps,
engine labels), shed counts, and latency percentiles all agree (pinned
by ``tests/serve/test_cluster_identity.py``).  This is not luck but
construction:

* both planes run the same router code and the same
  :meth:`~repro.serve.service.ShardWorker.handle`; only the transport
  between them differs;
* every serve decision reads only the tenant's shard state and the
  virtual clock -- the event loop's RNG is never consulted -- so a
  worker's clock may *lag* the router's without changing any outcome:
  timers still fire at their scheduled virtual times, in the same
  ``(vt, seq)`` order per shard;
* per-worker FIFO channels preserve each shard's submission order.

**Failure model.**  A worker is a deterministic state machine over its
input frame stream.  The router journals every state-mutating frame it
sends (:data:`~repro.serve.wire.JOURNALED_KINDS`).  The worker takes
its own checkpoints (the snapshot plane's CRC-guarded blob): after each
journaled frame that carries its flush count past a multiple of
``checkpoint_every``, it replies with the blob and the number of
journaled frames it has applied, so checkpoint points are fixed by the
frame stream, not by when the router reads.  That count is absolute:
the router truncates the journal to it and ignores an older blob.  When
a worker dies (SIGKILL mid-flush is the chaos suite's favourite), the
next barrier that waits on it (stats, checkpoint, export) reads its
last replies, respawns it from the last checkpoint and
**re-executes the journal verbatim** -- the worker deterministically
regenerates every post-checkpoint ticket and flush result, and the
router deduplicates by seq and per-tenant ``flush_seq``.  Zero admitted
envelopes lost, none matched twice, no reconciliation pass needed: the
replay *is* the reconciliation.

**Live migration** crosses the process boundary in four legs: gate
(the source answers ``migrating`` tickets carrying the cutover time),
drain, export through the snapshot codec; at the cutover virtual time
the router installs the blob on the destination worker and releases the
source.  Because a crashed source replays its export deterministically,
migration needs no catch-up leg -- the journal replay regenerates the
drained state exactly.  :meth:`ClusterService.rebalance` begins one
automatically when a :class:`RebalancePolicy` sees a hot worker.

Wall-clock time appears only in measurements (the ``transport`` stage,
worker busy seconds, recovery cost) -- never on a decision path.
"""

from __future__ import annotations

import ctypes
import multiprocessing as mp
import os
import select
import signal
import struct
import time
import weakref
from dataclasses import dataclass

import numpy as np

from ..core.envelope import EnvelopeBatch
from .admission import AdmissionPolicy
from .batching import BatchPolicy
from .loadgen import ServeWorkload, _drive
from .messages import (ClusterError, FlushResult, ShardCrash, TenantSpec,
                       Ticket)
from .service import Router, ShardWorker
from .stages import SERVE_STAGES, StageClock
from .state import dumps, install_worker, loads, worker_state
from .wire import JOURNALED_KINDS, WireError, decode_frame, encode_frame

__all__ = ["ClusterError", "ClusterRecovery", "ClusterMigration",
           "ClusterService", "RebalancePolicy", "run_cluster_workload"]


@dataclass(frozen=True)
class ClusterRecovery:
    """One worker-process recovery (respawn + journal re-execution)."""

    worker_id: int
    respawn: int                 # 1 for the worker's first recovery
    replayed_frames: int         # journal frames re-executed
    had_checkpoint: bool         # False = cold restart from specs
    wall_seconds: float          # measurement-only recovery cost


@dataclass
class ClusterMigration:
    """One cross-process tenant migration, begin to cutover."""

    tenant: str
    from_worker: int
    to_worker: int
    started_vt: float
    cutover_vt: float
    state_bytes: bytes = b""
    completed_vt: float | None = None


@dataclass(frozen=True)
class RebalancePolicy:
    """When :meth:`ClusterService.rebalance` migrates a tenant.

    A worker is *hot* when its tenants carry more than ``hot_fraction``
    of the windowed message volume (summed per-tenant profiler
    windows).  The hottest tenant of the hot worker moves to the
    least-loaded worker -- unless it is the worker's only tenant, which
    would just relocate the hotspot.
    """

    hot_fraction: float = 0.6
    min_flushes: int = 8           # routed flush results before judging
    cooldown_flushes: int = 16     # routed flush results between moves

    def __post_init__(self) -> None:
        if not 0.0 < self.hot_fraction < 1.0:
            raise ValueError("hot_fraction must be in (0, 1)")


# ---------------------------------------------------------------------------
# Worker process
# ---------------------------------------------------------------------------

def _worker_main(init_blob: bytes, cmd, resp) -> None:
    """One worker process: a :class:`ShardWorker` driven by wire frames.

    Top-level by design -- the spawn start method imports this module in
    the child and calls the function by qualified name; nothing here may
    capture router state except through ``init_blob`` (a snapshot-codec
    blob) and its two pipe ends: ``cmd`` (read) and ``resp`` (write),
    both blocking.  It returns quietly once the router is gone: only
    the router holds the other ends (a forked worker closes the copies
    it inherits, see :func:`_close_router_ends`), so the router's exit,
    however abrupt, reads here as EOF or a broken pipe.

    The worker checkpoints itself: after a journaled frame that carries
    ``flushes_done`` past a multiple of ``checkpoint_every`` (and on a
    ``checkpoint`` request) it replies ``checkpointed`` with its blob and
    ``journaled``, the number of journaled frames applied since the
    cluster started.  A respawned worker resumes that count and the
    cadence from its init blob.
    """
    cfg = loads(init_blob)
    worker = ShardWorker(cfg["worker_id"], seed=cfg["seed"],
                         stages=StageClock(), **cfg["policies"])
    if cfg["checkpoint"] is not None:
        install_worker(worker, loads(cfg["checkpoint"]))
    else:
        for spec in cfg["specs"]:
            worker.add_tenant(spec)
    shard, every = worker.shard, cfg["checkpoint_every"]
    journaled = cfg["journaled"]
    epoch = shard.flushes_done // every
    _release_free_heap()
    while not worker.stopped:
        try:
            data = cmd.recv_bytes()
        except EOFError:
            return   # the router is gone
        kind, payload = decode_frame(data)
        # Busy accounting uses *CPU* time, not wall time: on a host with
        # fewer cores than workers, wall time inside a handler includes
        # the periods this process was descheduled while siblings ran,
        # which would make per-worker "busy" grow with contention
        # instead of shrinking with partitioning.
        t0 = time.process_time()
        replies = []
        if kind != "checkpoint":
            try:
                replies = worker.handle(kind, payload)
            except ShardCrash:
                # Armed chaos kill: die for real, mid-flush, between
                # pipe operations (the accumulator has drained; the
                # in-flight batch exists only on this stack).  Recovery
                # must come from the router's checkpoint + journal.
                os.kill(os.getpid(), signal.SIGKILL)
            if kind in JOURNALED_KINDS:
                journaled += 1
        if kind == "checkpoint" or shard.flushes_done // every > epoch:
            epoch = shard.flushes_done // every
            replies.append(("checkpointed", {
                "blob": dumps(worker_state(worker)),
                "journaled": journaled}))
        try:
            for reply in replies:
                resp.send_bytes(encode_frame(*reply))
        except BrokenPipeError:
            return   # the router is gone
        worker.busy += time.process_time() - t0


def _release_free_heap() -> None:
    """Hand the heap's free pages back to the OS (glibc ``malloc_trim``).

    A forked worker starts out sharing the router's whole heap, free
    chunks included, and each page the router reuses afterwards becomes
    the worker's private copy.  Trimming once the shard is built returns
    the free ones; where libc has no ``malloc_trim`` this does nothing.
    """
    try:
        trim = ctypes.CDLL(None).malloc_trim
    except (AttributeError, OSError):
        return
    trim.argtypes, trim.restype = [ctypes.c_size_t], ctypes.c_int
    trim(0)


# ---------------------------------------------------------------------------
# Router
# ---------------------------------------------------------------------------

#: The length prefix ``Connection.send_bytes`` writes before a frame and
#: ``Connection.recv_bytes`` reads back (frames stay under 2 GiB).
_LEN = struct.Struct("!i")


class _Link:
    """The router's ends of one worker's two one-way pipes, non-blocking.

    :meth:`push` queues a length-prefixed frame in ``out`` and
    :meth:`flush` writes as much of ``out`` as the command pipe takes
    now; :meth:`read` takes every whole frame the worker has written so
    far.  None of them ever blocks.
    """

    def __init__(self, cmd, resp) -> None:
        self.cmd = cmd             # command pipe, write end
        self.resp = resp           # response pipe, read end
        self.out = bytearray()     # frame bytes the pipe has not taken
        self.inbuf = bytearray()   # a reply frame's head, awaiting its tail
        self.eof = False           # the worker's write end is closed
        self.broken = False        # the worker's read end is closed
        self.proc = None           # the worker process, once started
        os.set_blocking(cmd.fileno(), False)
        os.set_blocking(resp.fileno(), False)
        _LIVE_LINKS.add(self)

    def push(self, frame: bytes) -> None:
        self.out += _LEN.pack(len(frame))
        self.out += frame

    def flush(self) -> bool:
        """Write what fits; ``True`` once nothing is left unsent.  Once
        the worker is gone (``broken``), unsent bytes die with it, as
        the frames already in its pipe did."""
        try:
            while self.out and not self.broken:
                del self.out[:os.write(self.cmd.fileno(), self.out)]
        except BlockingIOError:
            return False
        except BrokenPipeError:
            self.broken = True
        if self.broken:
            self.out.clear()
        return not self.broken

    def read(self) -> list[bytes]:
        """Every whole frame in the response pipe.  At EOF a torn
        trailing frame from a killed worker is dropped: the journal
        replay regenerates whatever it carried."""
        buf = self.inbuf
        while not self.eof:
            try:
                chunk = os.read(self.resp.fileno(), 1 << 16)
            except BlockingIOError:
                break
            if chunk:
                buf += chunk
            else:
                self.eof = True
        frames, pos = [], 0
        with memoryview(buf) as view:
            while len(buf) - pos >= _LEN.size:
                end = pos + _LEN.size + _LEN.unpack_from(buf, pos)[0]
                if end > len(buf):
                    break
                frames.append(bytes(view[pos + _LEN.size:end]))
                pos = end
        del buf[:pos]
        if self.eof:
            buf.clear()
        return frames

    def close(self) -> None:
        _LIVE_LINKS.discard(self)
        self.cmd.close()
        self.resp.close()


#: Every open :class:`_Link` in this process.  Process-wide on purpose:
#: a forked child must drop the router ends of every cluster, not only
#: those of the cluster that forked it.
_LIVE_LINKS: "weakref.WeakSet[_Link]" = weakref.WeakSet()


def _close_router_ends() -> None:
    """In a forked child, close the router's pipe ends it inherited.

    Only the router may hold them: a worker holding its own command
    pipe's write end never reads EOF, and one holding a sibling's keeps
    that sibling alive, so either would outlive a killed router.  The
    same goes for each live sibling's ``multiprocessing`` pipes: its
    ``sentinel`` and the write end of its parent-death pipe.  Under
    spawn nothing is inherited and this never runs.
    """
    for link in list(_LIVE_LINKS):
        link.close()
        if link.proc is not None:
            # Process names only the sentinel; both fds are the args of
            # the finalizer its popen registered, which runs only in the
            # router (and empties the args once it has closed them)
            for fd in link.proc._popen.finalizer._args or ():
                os.close(fd)


os.register_at_fork(after_in_child=_close_router_ends)


class _WorkerHandle:
    """Router-side bookkeeping for one worker process."""

    def __init__(self, worker_id: int) -> None:
        self.worker_id = worker_id
        self.proc = None
        self.link: _Link | None = None
        #: state-mutating frames sent since the last checkpoint (the
        #: verbatim re-execution script for recovery).
        self.journal: list[bytes] = []
        self.checkpoint: bytes | None = None
        #: journaled frames the checkpoint covers, counted from start
        self.covered = 0
        self.respawns = 0
        self.stats: dict | None = None
        self.specs: list[TenantSpec] = []
        self.stopped = False

    def add_tenant(self, spec: TenantSpec) -> None:
        self.specs.append(spec)   # shipped in the worker's init blob

    def alive(self) -> bool:
        return self.proc is not None and self.proc.is_alive()


class ClusterService(Router):
    """A sharded matching service spanning worker processes.

    The :class:`~repro.serve.service.MatchingService` router over worker
    processes -- ``register`` / ``submit`` / ``advance_to`` / ``drain``
    / ``report`` -- with one asynchronous difference: ``submit`` returns
    the routed request's **seq** immediately (the pipeline is what buys
    the multi-core speedup); the ticket arrives on the response pipe
    and is available from :attr:`tickets` after the next :meth:`sync`.

    Each worker sits behind two one-way pipes: the router runs ahead of
    it by at most the kernel pipe buffer (~60 KB), with no queue depth
    to tune and no feeder thread.

    Parameters
    ----------
    n_workers:
        Worker-process count (= shard count; one shard per process).
    admission, batching, seed, promote_after, profile_window, verify:
        Forwarded to every worker's shard -- the same knobs, so a
        cluster and an in-process service configured alike are
        bit-identical.
    start_method:
        ``"spawn"`` (default; the spawn-safety contract) or ``"fork"``
        (cheaper startup; the test suites use it for speed).  A spawned
        worker inherits no router memory; a forked one starts out
        sharing the router's heap and fds, and once its shard is built
        returns the heap's free pages to the OS and keeps only its own
        two pipe ends.
    checkpoint_every:
        Checkpoint cadence: each worker checkpoints itself every
        ``checkpoint_every`` flushes it makes, counted from its start
        (a count the checkpoint carries, so a respawn keeps the cadence).
    op_timeout:
        Wall-clock bound on any single router operation against a
        worker (a post into a full pipe, barriers, migration exports)
        before :class:`ClusterError` -- a hung worker fails fast, it
        does not wedge the router.
    stages:
        Optional :class:`~repro.serve.stages.StageClock`; the router
        charges frame encode/decode and pipe writes to ``transport``
        (never time spent waiting on workers).
    """

    def __init__(self, n_workers: int = 2, *,
                 admission: AdmissionPolicy | None = None,
                 batching: BatchPolicy | None = None,
                 seed: int = 0, promote_after: int = 3,
                 profile_window: int = 8, verify: bool = False,
                 start_method: str = "spawn", checkpoint_every: int = 8,
                 op_timeout: float = 60.0, max_respawns: int = 16,
                 stages: StageClock | None = None) -> None:
        if n_workers < 1:
            raise ValueError("n_workers must be >= 1")
        if checkpoint_every < 1:
            raise ValueError("checkpoint_every must be >= 1")
        super().__init__([_WorkerHandle(i) for i in range(n_workers)],
                         batching if batching is not None else BatchPolicy())
        self.n_workers = n_workers
        self.seed = seed
        #: the shard keywords every worker's ShardWorker is built with
        self._policies = {
            "admission": (admission if admission is not None
                          else AdmissionPolicy()),
            "batching": self.batching, "promote_after": promote_after,
            "profile_window": profile_window, "verify": verify}
        self.checkpoint_every = checkpoint_every
        self.op_timeout = op_timeout
        self.max_respawns = max_respawns
        self.stages = stages
        self._ctx = mp.get_context(start_method)
        self.tickets: dict[int, Ticket] = {}
        #: tenant -> highest flush_seq routed: replies are FIFO and an
        #: export is read before its install is sent, so a replay only
        #: re-delivers flushes at or below the mark.
        self._flush_mark: dict[str, int] = {}
        #: migrating tenant -> its exported blob (``None`` while awaited)
        self._tenant_blobs: dict[str, bytes | None] = {}
        self._stats_token = 0
        self._started = False
        self._stopped = False
        self.recoveries: list[ClusterRecovery] = []
        self.migrations: list[ClusterMigration] = []
        self._pending_migrations: list[ClusterMigration] = []
        self._last_migration_flush = -(10 ** 9)
        self._in_recover = False

    # -- lifecycle ----------------------------------------------------------------

    def register(self, spec: TenantSpec) -> None:
        """Register a tenant; placement is the stable CRC32 hash, with
        worker processes standing where shards stand in-process."""
        if self._started:
            raise ClusterError("register tenants before start()")
        self._register(spec)

    def start(self) -> "ClusterService":
        """Spawn every worker process (idempotent misuse is an error).

        If a spawn fails, the workers already started are terminated,
        joined and closed before the error propagates, so a retried
        ``start()`` begins from a clean slate.
        """
        if self._started:
            raise ClusterError("cluster already started")
        try:
            for w in self._workers:
                self._spawn(w)
        except BaseException:
            for w in self._workers:
                self._reap(w, 0.0)
                if w.proc is not None:
                    w.proc.close()
                    w.proc = None
            raise
        self._started = True
        return self

    def stop(self) -> None:
        """Clean shutdown: stop frames, await every ``bye``, join.

        A worker blocks in ``send_bytes`` while its replies outgrow the
        response pipe (a checkpoint blob can), so the router keeps
        reading -- waiting in its one ``poll``, never sleeping -- until
        each live worker's ``bye`` arrives, and only then joins.
        Stragglers are terminated once ``op_timeout`` passes.  A worker
        found dead is not recovered (it would be respawned, replayed and
        never stopped) but joined.
        """
        if not self._started or self._stopped:
            self._stopped = True
            return
        for w in self._workers:
            if w.alive():
                try:
                    self._send(w, "stop")
                except ClusterError:
                    pass
        deadline = time.monotonic() + self.op_timeout
        while True:
            self._pump()
            running = [w for w in self._workers
                       if not w.stopped and w.alive()]
            if not running or time.monotonic() > deadline:
                break
            self._wait(deadline, running)
        for w in self._workers:
            self._reap(w, max(0.0, deadline - time.monotonic()))
        self._stopped = True

    def __enter__(self) -> "ClusterService":
        if not self._started:
            self.start()
        return self

    def __exit__(self, *exc) -> None:
        self.stop()

    # -- routing ------------------------------------------------------------------

    def _set_clock(self, vt: float) -> None:
        self._require_live()
        super()._set_clock(vt)
        self._fire_cutovers()

    def submit(self, tenant: str, messages: EnvelopeBatch,
               requests: EnvelopeBatch,
               at_vt: float | None = None) -> int:
        """Route one request to its tenant's worker; returns its seq.

        Pipelined: the ticket arrives asynchronously (``tickets[seq]``
        after the next :meth:`sync`).
        """
        seq = self._submit(tenant, messages, requests, at_vt)
        self._pump()
        return seq

    def advance_to(self, vt: float) -> list[FlushResult]:
        """Broadcast a virtual-time advance (fires due batch deadlines
        on every worker, each in its own ``(vt, seq)`` order); returns
        the flushes routed meanwhile (the rest arrive by :meth:`sync`)."""
        with self._collecting() as routed:
            self._advance(vt)
            self._pump()
        return routed

    def drain(self) -> list[FlushResult]:
        """Broadcast a drain: every worker flushes every accumulator;
        returns the flushes routed meanwhile (the rest arrive by
        :meth:`sync`)."""
        with self._collecting() as routed:
            self._drain()
            self._pump()
        return routed

    def fabric_deliver(self, dst_shard: int, xfer: dict) -> None:
        """Route one fabric transfer to the destination worker.

        Transfers travel as journaled ``fabric_xfer`` frames, so a
        worker SIGKILLed mid-superstep replays them verbatim at recovery
        -- zero envelopes lost -- and the per-tenant ``flush_seq`` mark
        absorbs any re-derived flushes.
        """
        self._require_live()
        self._send(self._workers[dst_shard], "fabric_xfer", xfer)
        self._pump()

    def sync(self) -> list[FlushResult]:
        """FIFO barrier + stats collection.

        Sends a tokened stats request to every worker and pumps until
        each replies; a worker's reply proves it processed every frame
        sent before the request, so on return every routed submission
        has its ticket and every produced flush result is collected.
        Dead workers found at the barrier are recovered and re-asked.
        Returns the flushes routed during the barrier.
        """
        self._require_live()
        self._stats_token += 1
        token = self._stats_token
        frame = self._encode_transport("stats", {"token": token})
        with self._collecting() as routed:
            for w in self._workers:
                self._post(w, frame)
            self._await(self._workers,
                        lambda w: (w.stats is not None
                                   and w.stats["token"] >= token),
                        lambda w: self._post(w, frame),
                        "missed the stats barrier")
        return routed

    # -- chaos --------------------------------------------------------------------

    def arm_worker_exit(self, worker_id: int,
                        after_flushes: int = 1) -> bool:
        """Arm a chaos kill: the worker SIGKILLs itself mid-flush on its
        ``after_flushes``-th non-empty flush from now.  Deliberately
        **not** journaled -- a recovered worker must not re-die -- so if
        the worker dies before the frame is in its pipe, the arm is simply
        dropped (returns ``False``) rather than re-sent at the respawn.
        """
        if after_flushes < 1:
            raise ValueError("after_flushes must be >= 1")
        self._require_live()
        w = self._workers[worker_id]
        return self._send(w, "arm_exit", {"after_flushes": after_flushes})

    # -- live migration -----------------------------------------------------------

    def begin_migration(self, tenant: str, to_worker: int,
                        cutover_delay_vt: float | None = None,
                        ) -> ClusterMigration:
        """Start migrating ``tenant`` to ``to_worker``: gate + drain +
        export on the source now; install/release fire at the cutover
        virtual time from :meth:`submit` / :meth:`advance_to`."""
        self._require_live()
        from_worker = self._placement[tenant]
        if to_worker == from_worker:
            raise ValueError(f"tenant {tenant!r} is already on worker "
                             f"{to_worker}")
        if not 0 <= to_worker < self.n_workers:
            raise ValueError(f"no worker {to_worker}")
        if any(p.tenant == tenant for p in self._pending_migrations):
            raise ValueError(f"tenant {tenant!r} is already migrating")
        delay = (cutover_delay_vt if cutover_delay_vt is not None
                 else 2.0 * self.batching.max_delay_vt)
        cutover_vt = self._now + delay
        src = self._workers[from_worker]
        self._tenant_blobs[tenant] = None
        self._send(src, "export_tenant",
                   {"tenant": tenant, "cutover_vt": cutover_vt})
        blob = self._await_tenant_blob(tenant, src)
        plan = ClusterMigration(tenant=tenant, from_worker=from_worker,
                                to_worker=to_worker, started_vt=self._now,
                                cutover_vt=cutover_vt, state_bytes=blob)
        self._pending_migrations.append(plan)
        self._last_migration_flush = len(self.results)
        return plan

    def rebalance(self, policy: RebalancePolicy) -> ClusterMigration | None:
        """Begin one migration if ``policy`` sees a hot worker.

        Runs the stats barrier, so the judgement reads every routed
        flush result and each worker's per-tenant profiler windows.
        Nothing moves while a migration is pending, before
        ``min_flushes`` results, or within ``cooldown_flushes`` results
        of the last migration.  Otherwise the hottest tenant of a hot
        worker (ties broken by name) moves to the coldest worker.
        """
        self._require_live()
        if self._pending_migrations or self.n_workers < 2:
            return None
        self.sync()
        routed = len(self.results)
        if (routed < policy.min_flushes
                or routed - self._last_migration_flush
                < policy.cooldown_flushes):
            return None
        loads_ = self.shard_volumes()
        total = sum(loads_)
        hot = int(np.argmax(loads_))
        if total == 0 or loads_[hot] <= policy.hot_fraction * total:
            return None
        volumes = self._workers[hot].stats["tenant_volumes"]
        if len(volumes) < 2:
            return None   # moving the only tenant just moves the hotspot
        cold = int(np.argmin(loads_))
        if cold == hot:
            return None   # every worker equally loaded
        mover = max(volumes, key=lambda n: (int(volumes[n]), n))
        return self.begin_migration(mover, cold)

    def _await_tenant_blob(self, tenant: str, src: _WorkerHandle) -> bytes:
        try:
            # the journal holds the export frame; a replay re-exports
            self._await([src],
                        lambda w: self._tenant_blobs[tenant] is not None,
                        lambda w: None, f"never exported tenant {tenant!r}")
            return self._tenant_blobs[tenant]
        finally:
            del self._tenant_blobs[tenant]

    def _fire_cutovers(self) -> None:
        for plan in sorted(self._pending_migrations,
                           key=lambda p: p.cutover_vt):
            if plan.cutover_vt > self._now:
                continue
            dst = self._workers[plan.to_worker]
            src = self._workers[plan.from_worker]
            self._send(dst, "install_tenant", {"blob": plan.state_bytes})
            self._send(src, "release_tenant", {"tenant": plan.tenant})
            self._placement[plan.tenant] = plan.to_worker
            plan.completed_vt = self._now
            self._pending_migrations.remove(plan)
            self.migrations.append(plan)

    # -- plumbing -----------------------------------------------------------------

    def _require_live(self) -> None:
        if not self._started:
            raise ClusterError("cluster not started")
        if self._stopped:
            raise ClusterError("cluster already stopped")

    def _encode_transport(self, kind: str, payload) -> bytes:
        stages = self.stages
        t0 = StageClock.start() if stages is not None else 0.0
        frame = encode_frame(kind, payload)
        if stages is not None:
            stages.stop("transport", t0)
        return frame

    def _init_blob(self, w: _WorkerHandle) -> bytes:
        return dumps({
            "worker_id": w.worker_id,
            "seed": self.seed,
            "checkpoint": w.checkpoint,
            "journaled": w.covered,
            "checkpoint_every": self.checkpoint_every,
            "specs": w.specs,
            "policies": self._policies})

    def _spawn(self, w: _WorkerHandle) -> None:
        cmd_r, cmd_w = self._ctx.Pipe(duplex=False)
        resp_r, resp_w = self._ctx.Pipe(duplex=False)
        # a live link before the fork, so the forked worker closes it
        link = _Link(cmd_w, resp_r)
        proc = self._ctx.Process(
            target=_worker_main,
            args=(self._init_blob(w), cmd_r, resp_w),
            daemon=True, name=f"repro-serve-worker-{w.worker_id}")
        try:
            proc.start()
        except BaseException:
            link.close()
            raise
        finally:
            # only the worker holds its ends, so its death closes them:
            # EOF on the response pipe, EPIPE on the command pipe
            cmd_r.close()
            resp_w.close()
        w.proc, w.link, link.proc = proc, link, proc

    @staticmethod
    def _reap(w: _WorkerHandle, grace: float) -> None:
        """Join a worker for up to ``grace`` seconds, terminate it if it
        is still running, and close its pipes."""
        if w.proc is not None:
            w.proc.join(timeout=grace)
            if w.proc.is_alive():
                w.proc.terminate()
                w.proc.join(timeout=1.0)
        if w.link is not None:
            w.link.close()
            w.link = None

    def _send(self, w: _WorkerHandle, kind: str, payload=None) -> bool:
        """Encode a frame, journal it if its kind is one of
        :data:`~repro.serve.wire.JOURNALED_KINDS`, and :meth:`_post` it.
        If the worker is gone, its recovery replays a journaled frame
        from the journal."""
        data = self._encode_transport(kind, payload)
        if kind in JOURNALED_KINDS:
            w.journal.append(data)
        return self._post(w, data)

    def _post(self, w: _WorkerHandle, data: bytes) -> bool:
        """Deliver one raw frame: return once it is in the kernel pipe,
        handling replies while the pipe is full.  Returns ``False`` when
        the worker is gone: the frame dies with it, and the recovery at
        the next barrier replays the journal (callers of non-journaled
        frames re-send after it).  Recovering here instead would tie the
        recovery point, and so the replayed journal, to wall-clock
        timing.  A worker dying during its own recovery replay is a hard
        protocol failure, not a retry."""
        stages = self.stages
        link = w.link
        link.push(data)
        deadline = time.monotonic() + self.op_timeout
        while True:
            t0 = StageClock.start() if stages is not None else 0.0
            sent = link.flush()
            if stages is not None:
                stages.stop("transport", t0)
            if sent:
                return True
            if link.broken:
                if self._in_recover:
                    raise ClusterError(f"worker {w.worker_id} died "
                                       f"during journal replay")
                return False
            if time.monotonic() > deadline:
                raise ClusterError(
                    f"worker {w.worker_id} stalled (command pipe full "
                    f"for {self.op_timeout}s)")
            self._wait(deadline, [w], w)
            self._pump()

    def _wait(self, deadline: float, watch: list[_WorkerHandle],
              writer: _WorkerHandle | None = None) -> None:
        """The router's one wait: block until a worker replies, a
        ``watch``ed worker dies, ``writer``'s command pipe has room, or
        ``deadline`` passes.  Callers act on a watched worker's death,
        so its sentinel is watched even if it already fired."""
        poller = select.poll()
        for w in self._workers:
            if w.link is not None and not w.link.eof:
                poller.register(w.link.resp, select.POLLIN)
        for w in watch:
            poller.register(w.proc.sentinel, select.POLLIN)
        if writer is not None:
            poller.register(writer.link.cmd, select.POLLOUT)
        poller.poll(max(0.0, deadline - time.monotonic()) * 1e3)

    def _pump(self) -> None:
        """Handle every whole reply in the workers' response pipes,
        without blocking."""
        stages = self.stages
        for w in self._workers:
            if w.link is None:
                continue
            for data in w.link.read():
                t0 = StageClock.start() if stages is not None else 0.0
                try:
                    kind, payload = decode_frame(data)
                except WireError:
                    continue   # dropped, like a torn frame
                finally:
                    if stages is not None:
                        stages.stop("transport", t0)
                self._handle(w, kind, payload)

    def _handle(self, w: _WorkerHandle, kind: str, payload) -> None:
        if kind == "ticket":
            self.tickets.setdefault(payload.seq, payload)
        elif kind == "flush":
            if payload.flush_seq <= self._flush_mark.get(payload.tenant, -1):
                return   # journal replay re-delivered a known flush
            self._flush_mark[payload.tenant] = payload.flush_seq
            self._route_flush(payload)
        elif kind == "checkpointed":
            # The count is absolute: a blob covering no more than the
            # one held (a respawned worker's explicit checkpoint, say)
            # is ignored.
            newly = payload["journaled"] - w.covered
            if newly > 0:
                w.checkpoint = payload["blob"]
                w.covered = payload["journaled"]
                del w.journal[:newly]
        elif kind == "stats_reply":
            w.stats = payload
        elif kind == "tenant_state":
            tenant = payload["tenant"]
            if tenant in self._tenant_blobs:
                self._tenant_blobs[tenant] = payload["blob"]
            # else: a recovery replayed a journaled export_tenant frame
            # for a migration that already cut over -- the blob has no
            # consumer, so storing it would only accumulate stale state
        elif kind == "bye":
            w.stopped = True
        else:
            raise ClusterError(f"router cannot handle frame {kind!r}")

    def checkpoint_now(self, worker_id: int | None = None) -> None:
        """Synchronously checkpoint one worker (or all): request a blob,
        then pump until a checkpoint covers every journaled frame sent
        so far (the journal is empty).  The chaos suite uses this to pin
        ``had_checkpoint`` recoveries at chosen points of the stream."""
        self._require_live()
        targets = (self._workers if worker_id is None
                   else [self._workers[worker_id]])
        for w in targets:
            self._send(w, "checkpoint")
        self._await(targets, lambda w: not w.journal,
                    lambda w: self._send(w, "checkpoint"),
                    "never answered a checkpoint request")

    def _await(self, targets: list[_WorkerHandle], done, redo,
               what: str) -> None:
        """Pump until ``done(w)`` holds for every target.

        A target found dead is recovered and then ``redo(w)`` re-issues
        its non-journaled request; the replies it wrote before dying (a
        checkpoint, say) are read first, since recovery closes its pipe.
        Waiting longer than ``op_timeout`` without a recovery raises
        :class:`ClusterError`.
        """
        deadline = time.monotonic() + self.op_timeout
        while True:
            self._pump()
            waiting = [w for w in targets if not done(w)]
            if not waiting:
                return
            dead = [w for w in waiting if not w.alive()]
            if dead:
                self._pump()
                for w in dead:
                    self._recover(w)
                    redo(w)
                deadline = time.monotonic() + self.op_timeout
                continue   # the replay may already have answered
            if time.monotonic() > deadline:
                stalled = [w.worker_id for w in waiting]
                raise ClusterError(f"workers {stalled} {what} after "
                                   f"{self.op_timeout}s")
            self._wait(deadline, waiting)

    def _recover(self, w: _WorkerHandle) -> ClusterRecovery:
        """Respawn a dead worker and re-execute its journal verbatim.

        The worker restores the last checkpoint (or cold-starts from its
        tenant specs) and deterministically re-runs every journaled
        frame; duplicate tickets and flush results are absorbed by the
        router's seq / per-tenant ``flush_seq`` dedupe.  Exactly-once
        with no reconciliation pass -- the replay is the reconciliation.
        The respawned worker's own cadence checkpoints may truncate the
        journal mid-replay, so the record counts the journal beforehand.
        """
        t0 = time.perf_counter()
        w.respawns += 1
        if w.respawns > self.max_respawns:
            raise ClusterError(f"worker {w.worker_id} exceeded "
                               f"{self.max_respawns} respawns")
        self._reap(w, 0.0)
        # release the dead Process's own pipes (its popen finalizer's
        # sentinel and parent-death ends), or the fork below inherits them
        w.proc.close()
        w.proc = None
        self._spawn(w)
        script, had_checkpoint = list(w.journal), w.checkpoint is not None
        self._in_recover = True
        try:
            for data in script:
                self._post(w, data)
        finally:
            self._in_recover = False
        record = ClusterRecovery(
            worker_id=w.worker_id, respawn=w.respawns,
            replayed_frames=len(script), had_checkpoint=had_checkpoint,
            wall_seconds=time.perf_counter() - t0)
        self.recoveries.append(record)
        return record

    # -- accounting ---------------------------------------------------------------

    def ticket_list(self) -> list[Ticket]:
        """Collected tickets in seq order (complete after :meth:`sync`)."""
        return [self.tickets[seq] for seq in sorted(self.tickets)]

    def worker_stats(self) -> list[dict]:
        """Each worker's last stats frame (requires a :meth:`sync`)."""
        missing = [w.worker_id for w in self._workers if w.stats is None]
        if missing:
            raise ClusterError(f"no stats collected from workers "
                               f"{missing}; call sync() first")
        return [w.stats for w in self._workers]

    def shard_volumes(self) -> list[int]:
        """Windowed message volume per worker (the imbalance signal)."""
        return [int(s["windowed_volume"]) for s in self.worker_stats()]

    def imbalance(self) -> float:
        """Max/mean windowed volume across workers (1.0 = perfectly
        balanced; the Caliper/Benchpark-style load-imbalance statistic)."""
        vols = self.shard_volumes()
        mean = sum(vols) / len(vols)
        return max(vols) / mean if mean > 0 else 1.0

    def busy_seconds(self) -> list[float]:
        """Per-worker CPU seconds spent processing frames.

        CPU time, not wall time: on hosts with fewer cores than workers
        a handler's wall time includes descheduled periods, which would
        inflate "busy" with contention.  The max of this list is the
        worker span -- the critical path an adequately-cored host would
        ride down to.
        """
        return [float(s["busy_seconds"]) for s in self.worker_stats()]

    def merged_stage_seconds(self) -> dict[str, float]:
        """Router transport time + summed worker stage clocks.

        CPU-seconds across processes: totals can exceed wall time when
        workers overlap -- exactly the point of the cluster.
        """
        totals = {s: 0.0 for s in SERVE_STAGES}
        if self.stages is not None:
            for stage, seconds in self.stages.snapshot().items():
                totals[stage] += seconds
        for w in self._workers:
            if w.stats is None:
                continue
            for stage, seconds in w.stats["stage_seconds"].items():
                totals[stage] += float(seconds)
        return totals


# ---------------------------------------------------------------------------
# Open-loop harness
# ---------------------------------------------------------------------------

def run_cluster_workload(workload: ServeWorkload, *,
                         arm_exit: tuple[int, int] | None = None,
                         **cluster_kw) -> tuple[ClusterService, float]:
    """Drive a cluster through a workload; returns (cluster, wall seconds).

    The multi-process twin of :func:`~repro.serve.loadgen.run_workload`:
    the same drive loop, whose final stats barrier completes ticket and
    result collection.  ``cluster_kw`` are :class:`ClusterService`'s
    parameters.  Wall time
    covers submission through barrier (worker startup and teardown are
    excluded, like service construction is in-process).  ``arm_exit``
    optionally arms a chaos kill as ``(worker_id, after_flushes)``.
    The worker processes are stopped even when the drive loop raises
    (e.g. :class:`ClusterError` from a stalled worker).
    """
    cluster = ClusterService(**cluster_kw)
    for spec in workload.tenants:
        cluster.register(spec)
    cluster.start()
    try:
        if arm_exit is not None:
            cluster.arm_worker_exit(*arm_exit)
        wall = _drive(cluster, workload)
    finally:
        cluster.stop()
    return cluster, wall
