"""repro.serve -- a sharded, workload-aware matching service.

Every entry point below this package is a one-shot library call; this
package is the layer that owns *lifecycles*: many isolated tenants,
concurrent request streams, bounded queues, overload behaviour, and
online engine selection.  It composes every prior subsystem into one
system:

* **batching** (:mod:`.batching`) -- requests accumulate into
  :class:`~repro.core.envelope.EnvelopeBatch`\\ es and flush on size /
  virtual-time watermarks, so the array-native fast paths are always fed
  batches;
* **admission control** (:mod:`.admission`) -- bounded per-shard inboxes
  with graduated shedding (``retryable`` above a soft watermark,
  ``overloaded`` at capacity) instead of unbounded growth;
* **workload profiling + autotuning** (:mod:`.profiler`,
  :mod:`.autotuner`) -- windowed wildcard and tuple-dominance counts
  per tenant drive promotions and demotions along the Table II lattice
  (matrix <-> partitioned <-> hash), with promotion hysteresis and every
  rebuild charged as a kernel relaunch;
* **deterministic scheduling** (:mod:`.scheduler`) -- a seeded
  virtual-time event loop; no wall clock on any decision path, so every
  serve run is replayable bit-for-bit;
* **open-loop load generation** (:mod:`.loadgen`) -- tenant streams
  derived from the proxy-application traces, driving
  the performance ledger (``benchmarks/ledger/``) and
  ``python -m repro serve-demo``;
* **stateful sessions** (:mod:`.state`) -- persistent-UMQ carry-over
  for ``session`` tenants and a versioned CRC-guarded snapshot codec
  behind the worker checkpoints that cluster recovery and migration
  restore bit-identically;
* **one serving plane** (:mod:`.service`, :mod:`.wire`,
  :mod:`.cluster`) -- a router over shard workers: the in-process
  service calls loopback workers directly, the cluster runs each worker
  in its own process behind pickle-free CRC-guarded wire frames, and a
  same-seed cluster run is bit-identical to the in-process service.
  Both routers keep every routed flush in one columnar
  :class:`~repro.serve.flushlog.FlushLog`.
  The cluster router is the one recovery and migration path: worker
  death recovers by checkpoint + verbatim journal re-execution (zero
  admitted requests lost), and live tenant migration comes with
  hot-spot rebalancing;
* **cross-shard tenants + the combining fabric** (:mod:`.fabric`) --
  ``TenantSpec(span=N)`` tenants spread sub-shards across the service,
  with inter-shard traffic coalesced into one combined column block per
  shard pair per superstep (Träff-style sparse-collective message
  combining) and a :class:`~repro.serve.fabric.CollectiveBridge` that
  runs every :mod:`repro.mpi.collectives` algorithm over the serve
  plane, bit-identically in-process and across worker processes.

See ``docs/SERVING.md`` for the architecture walk-through and
``docs/FAULT_MODEL.md`` for the failure semantics.
"""

from .admission import AdmissionController, AdmissionPolicy
from .autotuner import LATTICE, Autotuner, RetuneEvent, lattice_rank
from .batching import BatchAccumulator, BatchPolicy, concat_batches
from .cluster import (ClusterError, ClusterMigration, ClusterRecovery,
                      ClusterService, RebalancePolicy, run_cluster_workload)
from .fabric import (BridgePrecv, BridgePsend, BridgeRequest,
                     CollectiveBridge, Fabric, FabricError, FabricFlush,
                     FabricLink)
from .flushlog import FlushLog
from .loadgen import (BENCHPARK_BENCH_APPS, DEFAULT_BENCH_APPS,
                      ServeArrival, ServeWorkload, busiest_rank, demo,
                      merge_workloads, run_workload,
                      tenant_stream_from_trace, workload_from_app)
from .messages import (ACCEPTED, MIGRATING, OVERLOADED, RETRYABLE,
                       FlushResult, ServeRequest, ShardCrash, TenantSpec,
                       Ticket)
from .profiler import StreamProfiler, WorkloadProfile
from .scheduler import EventLoop, TimerEvent, VirtualClock
from .service import MatchingService, stable_shard
from .shard import Shard, TenantState
from .stages import SERVE_STAGES, StageClock
from .state import SessionState, SnapshotError
from .wire import (FRAME_KINDS, WIRE_MAGIC, WIRE_VERSION, WireError,
                   decode_frame, encode_frame)

__all__ = [
    "ACCEPTED", "RETRYABLE", "OVERLOADED", "MIGRATING",
    "TenantSpec", "ServeRequest", "Ticket", "FlushResult", "ShardCrash",
    "BatchPolicy", "BatchAccumulator", "concat_batches",
    "AdmissionPolicy", "AdmissionController",
    "WorkloadProfile", "StreamProfiler",
    "LATTICE", "lattice_rank", "Autotuner", "RetuneEvent",
    "VirtualClock", "TimerEvent", "EventLoop",
    "Shard", "TenantState", "MatchingService", "FlushLog",
    "ServeArrival", "ServeWorkload", "busiest_rank",
    "tenant_stream_from_trace", "workload_from_app", "merge_workloads",
    "DEFAULT_BENCH_APPS", "BENCHPARK_BENCH_APPS", "run_workload", "demo",
    "SERVE_STAGES", "StageClock",
    "SessionState", "SnapshotError",
    "stable_shard",
    "WIRE_MAGIC", "WIRE_VERSION", "FRAME_KINDS", "WireError",
    "encode_frame", "decode_frame",
    "ClusterError", "ClusterRecovery", "ClusterMigration",
    "ClusterService", "RebalancePolicy", "run_cluster_workload",
    "FabricError", "FabricLink", "FabricFlush", "Fabric",
    "BridgeRequest", "CollectiveBridge", "BridgePsend", "BridgePrecv",
]
