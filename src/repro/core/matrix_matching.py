"""The paper's MPI-compliant matrix matching algorithm (Section V).

Two-phase structure:

**Scan** (Algorithm 1, parallel): each thread owns one message; for every
receive request in the current *window* the warp votes via ``ballot``
whether its lanes' messages match, and writes the resulting 32-bit vector
into a (warps x window) vote matrix in shared memory.

**Reduce** (Algorithm 2, sequential over columns): one warp walks the
columns (receive requests) in posted order.  Each lane holds one warp-row
of the matrix and a 32-bit *mask* of its still-unmatched messages.  A
``ballot`` finds which lanes still have candidates; ``ffs`` picks the
lowest lane (earliest warp), and a second ``ffs`` picks the lowest bit
(earliest message within the warp) -- preserving MPI's non-overtaking
order.  The winning message's mask bit is cleared so it cannot be matched
again.

Both phases pipeline: while the reduce warp drains one window of columns,
the scan warps fill the next.  The pipelining collapses at 1024 messages
(all 32 warps needed for scan), which is the performance knee in Figure 4.

Two interchangeable implementations are provided:

* :meth:`MatrixMatcher.match` -- array-native fast path, split into
  *matching* and *pricing*.  :func:`match_vector` computes the
  request->message vector the two phases produce from sorted keys,
  without a vote matrix.  :func:`charge_matrix` then prices the
  execution from that vector alone: what the reduce walks in each block
  -- the columns it visits and the messages it matches -- follows from
  where every request matched.  The rank-partitioned matcher shares
  both.  Used by benchmarks.
* :meth:`MatrixMatcher.match_pedantic` -- executes Algorithms 1 and 2
  verbatim on the :class:`~repro.simt.cta.CTA` / :class:`~repro.simt.warp.Warp`
  simulator, one warp instruction at a time.  Used by tests to validate
  the fast path (identical assignments).

``tests/core/test_fastpath_equivalence.py`` holds the blockwise scan and
per-column scalar reduce, with its per-column charging, as the reference
the fast path is asserted bit-identical to (match vector and per-op
ledger totals).
"""

from __future__ import annotations

import math

import numpy as np

from ..simt.cta import CTA, MAX_WARPS_PER_CTA
from ..simt.gpu import GPUSpec, PASCAL_GTX1080
from ..simt.memory import SMEM_WORD_BYTES
from ..simt.timing import CostLedger, TimingModel
from ..simt.warp import WARP_SIZE, ffs32, full_active
from .envelope import (ANY_SOURCE, ANY_TAG, MAX_SRC, MAX_TAG, EnvelopeBatch,
                       pack_keys)
from .result import NO_MATCH, MatchOutcome

__all__ = ["MatrixMatcher", "DEFAULT_WINDOW", "match_vector"]

#: Receive-request columns scanned per pipeline stage.  32 warps x 64
#: columns of int32 votes = 8 KiB of shared memory per buffer; double
#: buffering for the scan/reduce pipeline stays well under the 48 KiB
#: per-CTA limit.
DEFAULT_WINDOW = 64


class MatrixMatcher:
    """MPI-compliant GPU matching (scan + ordered reduce).

    Parameters
    ----------
    spec:
        Simulated device (default: the paper's Pascal GTX 1080).
    warps_per_cta:
        Scan warps, i.e. matrix height; 32 (=1024 messages/iteration) in
        the paper.
    window:
        Columns per pipeline stage.
    compaction:
        Append a queue-compaction pass after matching (prefix scan +
        moves).  The paper measures this at roughly 10% of the matching
        rate; it is required whenever unexpected messages exist, and
        skippable under the *no unexpected messages* relaxation.
    compaction_policy:
        ``"always"`` or ``"adaptive"``.  Adaptive implements the paper's
        remark "in cases when the number of matches is very low, the
        bubbles can be tolerated and the compaction can be skipped": the
        pass only runs when at least :data:`COMPACTION_MIN_FRACTION` of
        the requests matched.
    warp_size:
        Lanes per warp.  32 on all real generations; smaller values model
        the *variable warp size* architectural feature the paper endorses
        for short queues (Section VII-C): narrow warps waste fewer lanes
        on queues shorter than 32 and let more matrix rows pack into the
        same thread budget.
    obs:
        Optional :class:`~repro.obs.Observability` handle.  When absent
        (default) the hot path takes a single ``is None`` branch and the
        outcome -- match vector, ledger, cycles -- is bit-identical.
    sanitize:
        Optional :class:`~repro.simt.sanitize.Sanitizer`; ``None``
        (default) falls back to ``spec.sanitize``.  Threaded the same way
        as ``obs`` -- the instrumented pedantic path is bit-identical
        when off.  The fast path is analytic (no simulated memories), so
        the sanitizer observes the pedantic execution.
    """

    name = "matrix"

    def __init__(self, spec: GPUSpec = PASCAL_GTX1080,
                 warps_per_cta: int = MAX_WARPS_PER_CTA,
                 window: int = DEFAULT_WINDOW,
                 compaction: bool = False,
                 warp_size: int = WARP_SIZE,
                 compaction_policy: str = "always",
                 obs=None, sanitize=None) -> None:
        if compaction_policy not in ("always", "adaptive"):
            raise ValueError("compaction_policy must be 'always' or "
                             "'adaptive'")
        if not 1 <= warps_per_cta <= MAX_WARPS_PER_CTA:
            raise ValueError("warps_per_cta must be in [1, 32]")
        if not 1 <= warp_size <= WARP_SIZE:
            raise ValueError(f"warp_size must be in [1, {WARP_SIZE}]")
        check_window(spec, warps_per_cta, window)
        self.spec = spec
        self.warps_per_cta = warps_per_cta
        self.window = window
        self.compaction = compaction
        self.compaction_policy = compaction_policy
        self.warp_size = warp_size
        self._obs = obs
        self._san = sanitize if sanitize is not None else spec.sanitize

    # -- public API ------------------------------------------------------------

    @property
    def messages_per_iteration(self) -> int:
        """Matrix capacity: one message per thread."""
        return self.warps_per_cta * self.warp_size

    def match(self, messages: EnvelopeBatch,
              requests: EnvelopeBatch) -> MatchOutcome:
        """Match with the vectorized fast path and price the execution."""
        ledger = CostLedger()
        out, iterations = self.execute(messages, requests, ledger)
        return self._finish(out, len(messages), len(requests), ledger,
                            iterations=iterations)

    def execute(self, messages: EnvelopeBatch, requests: EnvelopeBatch,
                ledger: CostLedger) -> tuple[np.ndarray, int]:
        """Fast-path matching, charging costs into a caller-owned ledger.

        Returns the request->message vector and the iteration (message
        block) count.
        """
        messages.assert_concrete("message queue")
        block = self.messages_per_iteration
        out = match_vector(messages, requests)
        n_blocks, visited = charge_matrix(ledger, out, len(messages), block,
                                          self.warp_size, self.window)
        if n_blocks == 0:
            return out, 0
        if self._obs is not None:
            self._obs.count("matrix.columns_visited", float(visited))
            _observe_votes(self._obs, messages, requests, out, block)
        if self.compaction and self._should_compact(out, len(requests)):
            self._charge_compaction(ledger, len(messages), len(requests))
        return out, n_blocks

    #: Minimum matched fraction below which adaptive compaction tolerates
    #: the bubbles and skips the pass (Section V-A).
    COMPACTION_MIN_FRACTION = 0.25

    def _should_compact(self, out: np.ndarray, n_req: int) -> bool:
        if self.compaction_policy == "always":
            return True
        matched = int(np.count_nonzero(out != NO_MATCH))
        return matched >= self.COMPACTION_MIN_FRACTION * max(1, n_req)

    def _charge_compaction(self, ledger: CostLedger, n_msg: int,
                           n_req: int) -> None:
        """Queue compaction after matching (both queues), at CTA width.

        The paper measures the overall impact at about 10% of the
        matching rate.
        """
        from .compaction import charge_compaction
        charge_compaction(ledger, n_msg + n_req, max_warps=self.warps_per_cta)

    def _finish(self, out: np.ndarray, n_msg: int, n_req: int,
                ledger: CostLedger, iterations: int) -> MatchOutcome:
        timing = TimingModel(self.spec).evaluate(ledger)
        if self._obs is not None:
            matched = int(np.count_nonzero(out != NO_MATCH))
            self._obs.count("matrix.matches", float(matched))
            self._obs.match_span(
                "matrix.match", timing.seconds, timing.per_phase_cycles,
                self.spec.clock_hz, n_messages=n_msg, n_requests=n_req,
                matched=matched, iterations=max(1, iterations))
        return MatchOutcome(
            request_to_message=out, n_messages=n_msg, n_requests=n_req,
            seconds=timing.seconds, cycles=timing.cycles,
            iterations=max(1, iterations),
            meta={"phase_cycles": timing.per_phase_cycles,
                  "device": self.spec.name,
                  "warps_per_cta": self.warps_per_cta,
                  "window": self.window,
                  "warp_size": self.warp_size,
                  "compaction": self.compaction})

    # -- pedantic path -------------------------------------------------------------

    def match_pedantic(self, messages: EnvelopeBatch,
                       requests: EnvelopeBatch) -> MatchOutcome:
        """Execute Algorithms 1-2 verbatim on the warp simulator.

        Functionally identical to :meth:`match`; costs are recorded by the
        :class:`~repro.simt.warp.Warp` primitives themselves.  Intended for
        validation at small sizes (it loops in Python per warp per column).
        """
        if self.warp_size != WARP_SIZE:
            raise ValueError("the pedantic path executes physical 32-lane "
                             "warps; variable warp sizes are fast-path only")
        messages.assert_concrete("message queue")
        n_msg, n_req = len(messages), len(requests)
        out = np.full(n_req, NO_MATCH, dtype=np.int64)
        if n_msg == 0 or n_req == 0:
            ledger = CostLedger()
            return self._finish(out, n_msg, n_req, ledger, iterations=0)

        block = self.messages_per_iteration
        n_blocks = math.ceil(n_msg / block)
        unmatched = np.ones(n_req, dtype=bool)
        ledger = CostLedger()
        san = self._san
        if san is not None:
            prev_kernel = san.current_kernel
            san.current_kernel = "matrix.match_pedantic"

        for b in range(n_blocks):
            lo, hi = b * block, min((b + 1) * block, n_msg)
            n_block = hi - lo
            n_warps = math.ceil(n_block / WARP_SIZE)
            cta = CTA(num_warps=n_warps,
                      shared_words=n_warps * self.window, ledger=ledger,
                      cta_id=b, sanitize=san)
            cols = np.nonzero(unmatched)[0]
            group = _overlap_group(n_warps)
            # Per-lane message masks persist across window chunks: a message
            # matched in an earlier chunk must stay consumed for the rest of
            # the block (Algorithm 2 keeps the mask in registers).
            lanes = cta.warps[0].lanes
            holds_row = lanes < n_warps
            mask = np.where(holds_row, (1 << WARP_SIZE) - 1, 0).astype(np.int64)
            block_exhausted = False
            for chunk_start in range(0, cols.size, self.window):
                chunk = cols[chunk_start:chunk_start + self.window]
                self._pedantic_scan(cta, messages, requests,
                                    lo, n_block, chunk, group)
                cta.syncthreads()
                block_exhausted = self._pedantic_reduce(
                    cta, chunk, out, lo, unmatched, group, n_warps, mask,
                    holds_row, n_block)
                cta.syncthreads()
                if block_exhausted:
                    break  # all of this block's messages are consumed
        if san is not None:
            san.finalize()
            san.current_kernel = prev_kernel
        return self._finish(out, n_msg, n_req, ledger, iterations=n_blocks)

    def _pedantic_scan(self, cta: CTA, messages: EnvelopeBatch,
                       requests: EnvelopeBatch,
                       msg_base: int, n_block: int, chunk: np.ndarray,
                       group: str | None) -> None:
        """Algorithm 1: every warp votes its lanes' messages per column."""
        cta.ledger.phase("scan", active_warps=cta.num_warps,
                         overlap_group=group)
        for warp in cta.warps:
            lane_msg = msg_base + warp.warp_id * WARP_SIZE + warp.lanes
            in_range = lane_msg - msg_base < n_block
            warp.active = in_range.copy()
            warp._issue("gmem_load", 2)  # coalesced 64-bit envelope fetch
            for i, j in enumerate(chunk):
                req = requests[int(j)]
                warp._issue("smem_load", 1)  # broadcast request word
                pred = _accepts_vector(req, messages, lane_msg, in_range)
                warp._issue("alu", 1)
                vote = warp.ballot(pred)
                cta.shared.store(
                    np.array([warp.warp_id * self.window + i]),
                    np.array([vote]), warp_id=warp.warp_id)
            warp.active = full_active(WARP_SIZE)

    def _pedantic_reduce(self, cta: CTA, chunk: np.ndarray, out: np.ndarray,
                         msg_base: int, unmatched: np.ndarray,
                         group: str | None, n_warps: int,
                         mask: np.ndarray, holds_row: np.ndarray,
                         n_block: int) -> bool:
        """Algorithm 2: one warp reduces the chunk's columns in order.

        Returns True once every message of the block has been matched
        (the early-exit condition shared with the fast path)."""
        cta.ledger.phase("reduce", active_warps=1, overlap_group=group)
        warp = cta.warps[0]
        lanes = warp.lanes
        full = (1 << WARP_SIZE) - 1
        for i, j in enumerate(chunk):
            addrs = np.minimum(lanes, n_warps - 1) * self.window + i
            votes = cta.shared.load(addrs, warp_id=warp.warp_id)
            votes = np.where(holds_row, votes, 0)
            masked = warp.op(votes & mask, count=1)
            bidders = warp.ballot(masked != 0)
            warp.op(masked, count=3)  # ffs compare, index arithmetic, branch
            if bidders:
                w = ffs32(bidders) - 1
                lane_match = ffs32(int(masked[w])) - 1
                out[j] = msg_base + w * WARP_SIZE + lane_match
                mask[w] &= ~(1 << lane_match)
                unmatched[j] = False
                warp.op(masked, count=3)
                warp._issue("smem_store", 1)
                consumed = sum(
                    bin(full & ~int(m)).count("1")
                    for m, h in zip(mask, holds_row) if h)
                if consumed == n_block:
                    warp._issue("gmem_store", 2)
                    return True
        # coalesced flush of the chunk's staged results
        warp._issue("gmem_store", 2)
        return False


#: The packed-key bits a request compares, by wildcard kind (0 none,
#: 1 ``ANY_SOURCE``, 2 ``ANY_TAG``, 3 both).
_KIND_MASKS = ~pack_keys([0, MAX_SRC, 0, MAX_SRC], [0, 0, MAX_TAG, MAX_TAG],
                         [0, 0, 0, 0])


def match_vector(messages: EnvelopeBatch,
                 requests: EnvelopeBatch) -> np.ndarray:
    """The MPI-compliant request->message vector of a matrix match.

    Requests are taken in posted order and each takes the earliest
    message it accepts that no earlier request took: the assignment the
    scan and ordered reduce produce block by block (Section V).  Memory
    is O(n_msg + n_req); pricing is separate (:func:`charge_matrix`).
    """
    out = np.full(len(requests), NO_MATCH, dtype=np.int64)
    if len(messages) == 0 or len(requests) == 0:
        return out
    if not requests.has_wildcards:
        # Per-key FIFO: the k-th request of a key takes the k-th message
        # of that key, if there is one.
        req_keys = requests.packed()
        req_order = np.argsort(req_keys, kind="stable")
        ranked = req_keys[req_order]
        msg_order, lo, hi = _key_runs(messages.packed(), ranked)
        pos = lo + np.arange(ranked.size) - np.searchsorted(ranked, ranked)
        hit = pos < hi
        out[req_order[hit]] = msg_order[pos[hit]]
        return out
    # Posted order matters now: walk the requests once.  Each (wildcard
    # kind, key) run of the key-sorted messages keeps a head pointer that
    # only moves past taken messages, so everything before it is taken.
    kind = (requests.src == ANY_SOURCE) + 2 * (requests.tag == ANY_TAG)
    keys = EnvelopeBatch.view(requests.src & MAX_SRC, requests.tag & MAX_TAG,
                              requests.comm).packed() & _KIND_MASKS[kind]
    orders, lo, hi = [], np.empty_like(keys), np.empty_like(keys)
    for k in np.unique(kind):
        sel = kind == k
        order, lo[sel], hi[sel] = _key_runs(
            messages.packed() & _KIND_MASKS[k], keys[sel],
            len(orders) * len(messages))
        orders.append(order)
    order = np.concatenate(orders).tolist()
    head = list(range(len(order) + 1))  # a run's head: its first entry
    taken = bytearray(len(messages))
    picks = out.tolist()
    for j, (start, end) in enumerate(zip(lo.tolist(), hi.tolist())):
        pos = head[start]
        while pos < end and taken[order[pos]]:
            pos += 1
        if pos < end:
            taken[order[pos]] = 1
            picks[j] = order[pos]
            pos += 1
        head[start] = pos
    return np.array(picks, dtype=np.int64)


def _key_runs(msg_keys: np.ndarray, req_keys: np.ndarray,
              base: int = 0) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Stable key sort of the messages, and the ``[lo, hi)`` run of each
    request's key in it (empty when no message carries the key), offset
    by ``base``."""
    order = np.argsort(msg_keys, kind="stable")
    ranked = msg_keys[order]
    return (order, base + np.searchsorted(ranked, req_keys, "left"),
            base + np.searchsorted(ranked, req_keys, "right"))


def _observe_votes(obs, messages: EnvelopeBatch, requests: EnvelopeBatch,
                   out: np.ndarray, block: int) -> None:
    """``matrix.blocks`` and ``matrix.vote_occupancy`` of the modeled scan:
    block ``b`` votes the open columns (requests whose match lies in a
    block >= ``b``, or that have none) until no column is open."""
    n_msg = len(messages)
    n_blocks = math.ceil(n_msg / block)
    match_block = np.where(out == NO_MATCH, n_blocks, out // block)
    for b in range(n_blocks):
        open_idx = np.nonzero(match_block >= b)[0]
        if open_idx.size == 0:
            break
        votes = messages.match_block(requests[open_idx], b * block,
                                     min((b + 1) * block, n_msg))
        obs.count("matrix.blocks")
        obs.observe("matrix.vote_occupancy",
                    float(np.count_nonzero(votes)) / votes.size)


def charge_matrix(ledger: CostLedger, out: np.ndarray, n_msg: int,
                  block: int, warp_size: int,
                  window: int) -> tuple[int, int]:
    """Price a matrix match from its request->message vector ``out``.

    For message block ``b`` the reduce walks the *open* columns -- the
    requests whose match lies in a block >= ``b``, or that have none --
    in posted order.  ``matched`` counts the matches landing in block
    ``b``.  Once they consume every message of the block the reduce
    exits early, so ``visited`` is the position among the open columns
    of the last of those matches, plus 1; otherwise it is the open count.
    The scan fills only the windows the reduce consumed, which is why an
    in-order receive queue is cheap beyond 1024 entries and a reversed
    one is not (Section V-B).  Blocks stop after the one that leaves no
    column open.  Returns the block count (``0`` for an empty side) and
    the columns visited over all blocks.
    """
    n_req = out.size
    if n_msg == 0 or n_req == 0:
        return 0, 0
    n_blocks = math.ceil(n_msg / block)
    # block each request matched in; unmatched requests stay open throughout
    match_block = np.where(out == NO_MATCH, n_blocks, out // block)
    matched_per_block = np.bincount(match_block, minlength=n_blocks).tolist()
    n_open = n_req
    total_visited = 0
    for b in range(n_blocks):
        if n_open == 0:
            break
        matched = matched_per_block[b]
        n_block_msgs = min(block, n_msg - b * block)
        if matched == n_block_msgs:
            last = int(np.nonzero(match_block == b)[0][-1])
            visited = int(np.count_nonzero(match_block[:last + 1] >= b))
        else:
            visited = n_open
        total_visited += visited
        n_warps = math.ceil(n_block_msgs / warp_size)
        group = _overlap_group(n_warps)
        # Reduce (Algorithm 2), per visited column: smem_load, ballot,
        # 4 alu, branch; per match: 3 alu, smem_store.  Results stage in
        # shared memory and flush coalesced per window chunk, so the cost
        # per column barely depends on whether it matched ("performance
        # decreases linearly with the number of matched messages").
        reduce = ledger.phase("reduce", active_warps=1, overlap_group=group)
        reduce.add("smem_load", float(visited))
        reduce.add("ballot", float(visited))
        reduce.add("alu", 4.0 * visited + 3.0 * matched)
        reduce.add("branch", float(visited))
        if matched:
            reduce.add("smem_store", float(matched))
        reduce.add("gmem_store", 2.0 * math.ceil(visited / window))
        # Scan (Algorithm 1), per warp: one coalesced 64-bit load of its
        # envelopes (2 x 128 B transactions), then per scanned column a
        # broadcast request load, a 64-bit compare, the ballot and the
        # vote-matrix store; one pipeline handoff barrier per window.
        scanned = min(n_open, math.ceil(visited / window) * window)
        cells = float(n_warps * scanned)
        scan = ledger.phase("scan", active_warps=max(1, n_warps),
                            overlap_group=group)
        scan.add("gmem_load", 2 * n_warps)
        scan.add("smem_load", cells)
        scan.add("alu", cells)
        scan.add("ballot", cells)
        scan.add("smem_store", cells)
        scan.add("sync", float(math.ceil(scanned / window)))
        n_open -= matched
    return n_blocks, total_visited


def _overlap_group(n_warps: int) -> str | None:
    """Scan/reduce pipelining: possible only while spare warps exist.

    With all 32 warps scanning (1024-message iterations) the reduce
    cannot be overlapped any more -- the Figure 4 knee.
    """
    return "pipeline" if n_warps < MAX_WARPS_PER_CTA else None


def check_window(spec: GPUSpec, warps_per_cta: int, window: int) -> None:
    """Reject a scan window whose double-buffered vote matrix (2 buffers
    x warps x window x 4-byte vote words) overflows shared memory."""
    if window < 1:
        raise ValueError("window must be positive")
    smem_needed = 2 * warps_per_cta * window * SMEM_WORD_BYTES
    if smem_needed > spec.shared_mem_per_cta:
        raise ValueError(
            f"window {window} needs {smem_needed} B of shared memory "
            f"for the double-buffered vote matrix; {spec.name} allows "
            f"{spec.shared_mem_per_cta} B per CTA")


def _accepts_vector(req, messages: EnvelopeBatch, lane_msg: np.ndarray,
                    in_range: np.ndarray) -> np.ndarray:
    """Per-lane predicate: does ``req`` accept each lane's message?"""
    idx = np.where(in_range, lane_msg, 0)
    src_ok = (req.src == -1) | (messages.src[idx] == req.src)
    tag_ok = (req.tag == -1) | (messages.tag[idx] == req.tag)
    comm_ok = messages.comm[idx] == req.comm
    return src_ok & tag_ok & comm_ok & in_range
