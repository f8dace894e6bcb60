"""Rank-partitioned multi-queue matching (Section VI-A relaxation).

Prohibiting ``MPI_ANY_SOURCE`` removes the only cross-rank matching
dependency, so the rank space can be *statically partitioned* into Q
independent queues (rank mod Q here).  Every queue is matched by the
matrix algorithm with its own group of warps; queues run concurrently.

Paper observations this module reproduces:

* near-linear scaling up to ~4 queues, slightly sub-linear beyond because
  (a) smaller queues give the scan/reduce pipeline less work to overlap
  and (b) the pipeline barriers are CTA-wide, synchronizing *all* warps,
  not just the queue's own;
* total queue lengths beyond 1024 x resident-CTA capacity force extra
  CTAs, which serialize (the occupancy calculator allows two of these
  CTAs per SM), reducing efficiency;
* feasibility: the number of peers a rank talks to bounds useful Q
  (10-30 for most proxy apps), and skewed rank distributions unbalance
  the queues (CESAR Nekbone, AMR Boxlib).

Ordering correctness: messages of one (source, communicator) always land
in the same queue, and within a queue the matrix matcher preserves queue
order, so MPI's non-overtaking guarantee still holds — only
``MPI_ANY_SOURCE`` is lost.  Tag wildcards remain legal.

Every key, and every legal wildcard's candidates, lives in one queue, so
one :func:`~repro.core.matrix_matching.match_vector` call over the whole
batch gives every queue's own match.  One stable sort by queue id then
slices each queue's part of that vector for
:func:`~repro.core.matrix_matching.charge_matrix` to price at the
queue's block size; the launch combines the per-queue cycle totals.
"""

from __future__ import annotations

import math

import numpy as np

from ..simt.cta import MAX_WARPS_PER_CTA
from ..simt.gpu import GPUSpec, PASCAL_GTX1080
from ..simt.occupancy import KernelResources, occupancy
from ..simt.timing import CostLedger, SYNC_OVERHEAD_CYCLES, TimingModel
from ..simt.warp import WARP_SIZE
from .envelope import ANY_SOURCE, EnvelopeBatch
from .matrix_matching import (DEFAULT_WINDOW, charge_matrix, check_window,
                              match_vector)
from .result import NO_MATCH, MatchOutcome

__all__ = ["PartitionedMatcher", "COORDINATION_OVERHEAD_CYCLES"]

#: Fixed multi-queue coordination cost per matching pass (kernel launch,
#: queue-descriptor setup, head/tail pointer exchange).  Fitted so the
#: many-small-queue limit bends to the paper's ~60 Mmatches/s partitioned
#: ceiling on Pascal (abstract, Table II) while <=4 queues stay "almost
#: linear" (Section VI-A).
COORDINATION_OVERHEAD_CYCLES = 10000.0


class PartitionedMatcher:
    """Matrix matching over Q statically rank-partitioned queues.

    Parameters
    ----------
    spec:
        Simulated device.
    n_queues:
        Number of partitions (Figure 5 sweeps 1..32).
    window:
        Scan window of every queue's matrix match; its double-buffered
        vote matrix must fit a full CTA's shared memory.
    compaction:
        Per-queue compaction pass (skippable under "no unexpected
        messages").
    warp_size:
        Lanes per (sub-)warp, for the per-queue matrix matches and for
        thread provisioning.  The paper's Section VII-C
        variable-warp-size feature: with 32-lane warps a queue of 8
        entries still occupies a full warp's threads; narrow warps pack
        several small queues into the same physical resources, lowering
        the CTA count of many-small-queue launches.
    sm_count:
        SMs devoted to matching (default 1, the paper's methodology).
        "If multiple SMs were used, the performance would be increasing
        linearly since all CTAs would be running in parallel, however,
        less resources would be available to execute the application"
        (Section VI-A) -- EXT8 measures exactly that trade.
    partition_key:
        ``"src"`` (the paper's choice) or ``"tag"``.  Tag partitioning is
        the alternative the paper dismisses: "prohibiting tag wildcards
        would allow to further partition among tags, but tags are usually
        not uniformly distributed, resulting in an imbalanced utilization
        of queues" (Section VI).  It prohibits ``MPI_ANY_TAG`` instead of
        ``MPI_ANY_SOURCE`` and is exactly as order-correct (same-tag
        same-source messages share a queue); the EXT3 bench shows the
        imbalance penalty on realistic tag distributions.
    """

    name = "partitioned"

    def __init__(self, spec: GPUSpec = PASCAL_GTX1080, n_queues: int = 4,
                 window: int = DEFAULT_WINDOW,
                 compaction: bool = False,
                 warp_size: int = WARP_SIZE,
                 partition_key: str = "src",
                 sm_count: int = 1,
                 obs=None, sanitize=None) -> None:
        if n_queues < 1:
            raise ValueError("n_queues must be positive")
        if not 1 <= warp_size <= WARP_SIZE:
            raise ValueError(f"warp_size must be in [1, {WARP_SIZE}]")
        if partition_key not in ("src", "tag"):
            raise ValueError("partition_key must be 'src' or 'tag'")
        if not 1 <= sm_count <= spec.sm_count:
            raise ValueError(f"sm_count must be in [1, {spec.sm_count}]")
        check_window(spec, MAX_WARPS_PER_CTA, window)
        # sanitize is accepted for knob parity with the other GPU matchers;
        # the partitioned path is analytic and touches no simulated memory.
        self.spec = spec
        self.n_queues = n_queues
        self.window = window
        self.compaction = compaction
        self.warp_size = warp_size
        self.partition_key = partition_key
        self.sm_count = sm_count
        self._obs = obs

    # -- partitioning -------------------------------------------------------------

    def queue_of(self, values: np.ndarray) -> np.ndarray:
        """Static queue assignment: partition-key value mod Q."""
        return np.asarray(values, dtype=np.int64) % self.n_queues

    def _key_values(self, batch: EnvelopeBatch) -> np.ndarray:
        return batch.src if self.partition_key == "src" else batch.tag

    # -- matching ------------------------------------------------------------------

    def match(self, messages: EnvelopeBatch,
              requests: EnvelopeBatch) -> MatchOutcome:
        """Match, partition, and price the concurrent queue execution."""
        messages.assert_concrete("message queue")
        if self.partition_key == "src" and (requests.src == ANY_SOURCE).any():
            raise ValueError(
                "src-partitioned matching requires the no-source-wildcard "
                "relaxation; requests use MPI_ANY_SOURCE")
        if self.partition_key == "tag" and (requests.tag == -1).any():
            raise ValueError(
                "tag-partitioned matching requires the no-tag-wildcard "
                "relaxation; requests use MPI_ANY_TAG")
        n_msg, n_req = len(messages), len(requests)
        out = match_vector(messages, requests)
        if n_msg == 0 or n_req == 0:
            empty = CostLedger()
            timing = TimingModel(self.spec).evaluate(empty)
            return self._outcome(out, n_msg, n_req, timing.seconds,
                                 timing.cycles, 0, {})

        msg_q = self.queue_of(self._key_values(messages))
        req_q = self.queue_of(self._key_values(requests))
        msg_order = np.argsort(msg_q, kind="stable")
        req_order = np.argsort(req_q, kind="stable")
        queues = np.arange(self.n_queues + 1)
        msg_bounds = np.searchsorted(msg_q[msg_order], queues).tolist()
        req_bounds = np.searchsorted(req_q[req_order], queues).tolist()
        # each message's index within its queue; an unmatched request
        # (NO_MATCH, i.e. -1) reads the trailing NO_MATCH
        local_of = np.full(n_msg + 1, NO_MATCH, dtype=np.int64)
        local_of[msg_order] = (np.arange(n_msg)
                               - np.asarray(msg_bounds)[msg_q[msg_order]])
        queue_cycles: list[float] = []
        queue_meta: dict[str, dict] = {}
        iterations = 0
        for q in range(self.n_queues):
            m_lo, m_hi = msg_bounds[q], msg_bounds[q + 1]
            r_lo, r_hi = req_bounds[q], req_bounds[q + 1]
            n_m = m_hi - m_lo
            if n_m == 0 and r_hi == r_lo:
                continue
            if self._obs is not None:
                self._obs.observe("partitioned.queue_depth", float(n_m))
            warps_q = min(MAX_WARPS_PER_CTA,
                          max(1, math.ceil(n_m / self.warp_size)))
            block = warps_q * self.warp_size
            local = local_of[out[req_order[r_lo:r_hi]]]
            # Compaction is charged once at full CTA width in _combine, not
            # per queue (a 1-warp queue compacting alone would be absurdly
            # latency-bound).
            ledger = CostLedger()
            iters, _ = charge_matrix(ledger, local, n_m, block,
                                     self.warp_size, self.window)
            iterations = max(iterations, iters)
            cycles = self._priced_queue_cycles(ledger, warps_q)
            queue_cycles.append(cycles)
            queue_meta[f"queue{q}"] = {
                "messages": n_m, "requests": r_hi - r_lo,
                "warps": warps_q, "cycles": cycles}
        provisioned = sum(meta["warps"] * self.warp_size
                          for meta in queue_meta.values())
        seconds, cycles, launch_meta = self._combine(queue_cycles,
                                                     provisioned, n_msg)
        queue_meta.update(launch_meta)
        return self._outcome(out, n_msg, n_req, seconds, cycles,
                             max(1, iterations), queue_meta)

    # -- pricing -------------------------------------------------------------------

    def _priced_queue_cycles(self, ledger: CostLedger, warps_q: int) -> float:
        """Cycles for one queue, with barriers widened to CTA scope.

        The pipeline barriers synchronize every warp of the CTA the queue
        is packed into ("the synchronization required for pipelining
        applies to all warps"), so sync costs scale by the ratio of CTA
        warps to queue warps.
        """
        widen = MAX_WARPS_PER_CTA / warps_q
        for phase in ledger.phases:
            if "sync" in phase.counts:
                phase.counts["sync"] *= widen
        return TimingModel(self.spec).evaluate(ledger).cycles

    def _combine(self, queue_cycles: list[float], provisioned_threads: int,
                 total_messages: int) -> tuple[float, float, dict]:
        """Wall time of the concurrent multi-queue launch.

        The launch provisions one thread per message, rounded up to warp
        granularity per queue ("one CTA cannot provide enough threads
        unless one thread matches more than one message"), i.e.
        ceil(threads/1024) CTAs -- the numbers annotated in Figure 5.
        Narrow warps (the variable-warp-size feature) shrink the rounding
        waste of small queues and thus the CTA count.  Resident CTAs
        (two, by the occupancy calculator) run concurrently; extra CTAs
        serialize into waves.  Within a wave the slowest queue dominates,
        and a fixed coordination overhead is paid once per pass.
        """
        if not queue_cycles:
            return 0.0, 0.0, {"ctas": 0, "waves": 0}
        n_ctas = max(1, math.ceil(provisioned_threads
                                  / (MAX_WARPS_PER_CTA * WARP_SIZE)))
        res = KernelResources(threads_per_cta=1024,
                              shared_mem_per_cta=MAX_WARPS_PER_CTA
                              * self.window * 4 * 2,
                              regs_per_thread=32)
        resident = occupancy(self.spec, res).max_resident_ctas \
            * self.sm_count
        waves = math.ceil(n_ctas / resident)
        wall = max(queue_cycles) * waves
        # Cross-queue pipeline interference: each extra concurrent queue
        # adds barrier traffic for everyone.
        wall += SYNC_OVERHEAD_CYCLES * (len(queue_cycles) - 1)
        wall += COORDINATION_OVERHEAD_CYCLES
        if self.compaction:
            # All queue regions compact concurrently at full CTA width; the
            # transaction-level compaction model needs no calibration
            # anchor of its own ("compaction" family scale is 1.0).
            from ..simt.timing import CostLedger as _Ledger
            from .compaction import charge_compaction
            led = _Ledger()
            charge_compaction(led, 2 * total_messages,
                              max_warps=MAX_WARPS_PER_CTA)
            wall += TimingModel(self.spec,
                                family="compaction").evaluate(led).cycles
        return wall / self.spec.clock_hz, wall, {
            "ctas": n_ctas, "waves": waves, "resident_ctas": resident,
            "sm_count": self.sm_count,
            "n_active_queues": len(queue_cycles)}

    def _outcome(self, out: np.ndarray, n_msg: int, n_req: int,
                 seconds: float, cycles: float, iterations: int,
                 meta: dict) -> MatchOutcome:
        meta = dict(meta)
        meta.update({"device": self.spec.name, "n_queues": self.n_queues,
                     "compaction": self.compaction,
                     "partition_key": self.partition_key})
        if self._obs is not None:
            matched = int(np.count_nonzero(out != NO_MATCH))
            self._obs.count("partitioned.matches", float(matched))
            self._obs.span("partitioned.match", seconds, n_messages=n_msg,
                           n_requests=n_req, matched=matched,
                           n_queues=self.n_queues)
        return MatchOutcome(request_to_message=out, n_messages=n_msg,
                            n_requests=n_req, seconds=seconds, cycles=cycles,
                            iterations=iterations, meta=meta)
