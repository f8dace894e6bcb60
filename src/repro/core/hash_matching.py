"""Two-level hash-table matching (Section VI-C relaxation).

Dropping ordering guarantees (and wildcards) removes every dependency
between match attempts, so the queues can be replaced by a hash table with
constant-time insert and lookup.  The paper's structure:

* a **primary** table five times larger than the **secondary** table;
* phase 1 (*insert*): every thread takes one receive request and inserts
  it into the primary table; on collision it tries the secondary table; on
  a second collision the thread holds the request for the next iteration;
* phase 2 (*query*): every thread takes one message, hashes its key, and
  probes primary then secondary; a miss defers the message to the next
  iteration;
* iterations repeat until everything is matched -- "the more collisions
  occur, the more iterations are required".

Keys are the packed {src, tag, comm} word; the *slot* is picked by
hashing its 32-bit XOR-fold with Jenkins' 6-shift function (configurable
for the ablation bench), while table equality compares the full 64-bit
word so fold aliases (e.g. a comm bit landing on a src bit) can never
produce a false match.  Duplicate tuples collide *by construction* and
drive up iteration count, which is why the paper checks tuple uniqueness
across applications (Figure 6(a)) before committing to this design.

Completeness caveat: with single-probe levels and "hold on to the request
for the next iteration" deferral (the paper's exact policy), a request
whose two slots are both occupied by *other* live requests can starve if
those blockers never drain.  On fully-matchable workloads (every message
has a partner) every live entry always drains, so matching is complete;
on workloads with surplus requests the matcher gives up after
``max_stall_rounds`` fruitless rounds and reports the remainder
unmatched -- the same behaviour a fixed-size GPU table would exhibit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..simt.gpu import GPUSpec, PASCAL_GTX1080
from ..simt.memory import GlobalMemory
from ..simt.occupancy import KernelResources
from ..simt.timing import CostLedger, TimingModel
from ..simt.warp import WARP_SIZE
from .envelope import EnvelopeBatch
from .hashing import HASH_FUNCTIONS, alu_cost, fold64
from .result import NO_MATCH, MatchOutcome

__all__ = ["HashMatcher", "HashTableConfig"]

#: Salt XORed into keys before hashing for the secondary table, so the two
#: levels probe independent slots.
_SECONDARY_SALT = 0x5BD1E995


def _take(table: np.ndarray | None, indices: np.ndarray) -> np.ndarray | None:
    """Gather from a precomputed slot table (``None`` passes through)."""
    return None if table is None else table[indices]


@dataclass(frozen=True)
class HashTableConfig:
    """Sizing and hashing knobs of the two-level table.

    ``scale`` is total slots per queue element; the split between levels
    follows the paper's 5:1 primary:secondary ratio by default
    (``primary_factor=5``).  ``probe_depth`` adds linear probing inside
    each level before falling through (the paper's policy is depth 1:
    collide once -> secondary table, collide twice -> defer; the
    collision-resolution policy space is its declared future work).
    """

    scale: float = 1.5
    primary_factor: int = 5
    hash_name: str = "jenkins"
    max_stall_rounds: int = 2
    probe_depth: int = 1

    def __post_init__(self) -> None:
        if self.scale <= 0:
            raise ValueError("scale must be positive")
        if self.primary_factor < 1:
            raise ValueError("primary_factor must be >= 1")
        if self.hash_name not in HASH_FUNCTIONS:
            raise ValueError(f"unknown hash {self.hash_name!r}")
        if self.probe_depth < 1:
            raise ValueError("probe_depth must be >= 1")

    def sizes(self, n: int) -> tuple[int, int]:
        """(primary_slots, secondary_slots) for ``n`` elements."""
        total = max(8, math.ceil(self.scale * max(1, n)))
        secondary = max(4, total // (self.primary_factor + 1))
        primary = secondary * self.primary_factor
        return primary, secondary


class _Level:
    """One open-addressed (single-probe) hash table level.

    A successful claim *frees* its slot immediately (the request has been
    handed its message), so later rounds can reinsert another request with
    the same key -- essential for workloads with duplicate tuples.
    """

    __slots__ = ("keys", "req_idx", "used")

    def __init__(self, slots: int) -> None:
        self.keys = np.zeros(slots, dtype=np.int64)
        self.req_idx = np.full(slots, -1, dtype=np.int64)
        self.used = np.zeros(slots, dtype=bool)


class HashMatcher:
    """Unordered matching through a two-level hash table.

    Parameters
    ----------
    spec:
        Simulated device.
    n_ctas:
        Number of *independent* matching-engine CTAs launched on the
        communication SM, each serving its own equally-sized workload
        (Figure 6(b) compares 1 and 32).  The functional result covers one
        engine; the timing covers the makespan of all of them -- resident
        CTAs run concurrently (with mutual contention), the rest
        serialize into waves -- and the outcome's ``replicas`` field makes
        rates aggregate.
    config:
        Table sizing/hash configuration.
    precompute_slots:
        Host-side optimization (default on): hash every key's slot in
        each level once per :meth:`match` instead of re-hashing the
        pending set every round.  Hashing is deterministic, so rounds,
        assignments, and the cost ledger are identical either way (the
        *modeled* GPU still hashes per round and is charged for it);
        ``False`` keeps the per-round hashing as the equivalence-test
        reference.
    obs:
        Optional observability handle (one ``is None`` branch per path).
    sanitize:
        Optional :class:`~repro.simt.sanitize.Sanitizer`; ``None``
        (default) falls back to ``spec.sanitize``.  Instruments the
        pedantic path's :class:`~repro.simt.memory.GlobalMemory`; the
        table regions are host-``memset`` before use (the device-code
        analogue is a ``cudaMemset`` of the empty sentinel), so queries
        of empty slots are initcheck-defined.

    Notes
    -----
    Wildcards are rejected: this matcher exists *because* the relaxation
    prohibits them (they could be supported "theoretically", per the
    paper, but are out of scope exactly as in the paper).
    """

    name = "hash"

    def __init__(self, spec: GPUSpec = PASCAL_GTX1080, n_ctas: int = 1,
                 config: HashTableConfig | None = None,
                 precompute_slots: bool = True,
                 obs=None, sanitize=None) -> None:
        if n_ctas < 1:
            raise ValueError("n_ctas must be positive")
        self.spec = spec
        self.n_ctas = n_ctas
        self.config = config if config is not None else HashTableConfig()
        self.precompute_slots = precompute_slots
        self._obs = obs
        self._san = sanitize if sanitize is not None else spec.sanitize
        self._hash = HASH_FUNCTIONS[self.config.hash_name]
        self._hash_alu = alu_cost(self.config.hash_name)
        self._workload_warps = 1

    # -- public API --------------------------------------------------------------

    def match(self, messages: EnvelopeBatch,
              requests: EnvelopeBatch) -> MatchOutcome:
        """Match (unordered) and price the rounds on the device model."""
        messages.assert_concrete("message queue")
        if requests.has_wildcards:
            raise ValueError("hash matching requires the no-wildcards "
                             "relaxation; requests contain wildcards")
        n_msg, n_req = len(messages), len(requests)
        ledger = CostLedger()
        out = np.full(n_req, NO_MATCH, dtype=np.int64)
        self._workload_warps = 1
        if n_msg == 0 or n_req == 0:
            return self._finish(out, n_msg, n_req, ledger, 0, 0)

        self._workload_warps = max(1, math.ceil(max(n_msg, n_req) / WARP_SIZE))
        # Full packed words: slot selection folds to 32 bits, but the
        # equality checks use all 64 so cross-comm aliases cannot match.
        msg_keys = messages.packed()
        req_keys = requests.packed()
        primary_slots, secondary_slots = self.config.sizes(max(n_msg, n_req))
        primary = _Level(primary_slots)
        secondary = _Level(secondary_slots)
        if self.precompute_slots:
            # Hash each key once per level up front; rounds then index the
            # tables instead of re-hashing the whole pending set.
            req_slots = (self._slot_of(req_keys, primary, 0),
                         self._slot_of(req_keys, secondary, _SECONDARY_SALT))
            msg_slots = (self._slot_of(msg_keys, primary, 0),
                         self._slot_of(msg_keys, secondary, _SECONDARY_SALT))
        else:
            req_slots = msg_slots = (None, None)

        pending_req = np.arange(n_req, dtype=np.int64)
        pending_msg = np.arange(n_msg, dtype=np.int64)
        rounds = 0
        stall = 0
        collisions = 0
        while pending_msg.size and (pending_req.size
                                    or self._live(primary, secondary)):
            rounds += 1
            pending_req, ins_collisions = self._insert_round(
                primary, secondary, pending_req, req_keys, req_slots, ledger)
            pending_msg, matched = self._query_round(
                primary, secondary, pending_msg, msg_keys, msg_slots, out,
                ledger)
            collisions += ins_collisions
            if self._obs is not None and matched:
                # Each message claimed this round needed `rounds` probes of
                # the table before it found its partner.
                self._obs.observe("hash.probe_chain", float(rounds),
                                  count=matched)
            if matched == 0 and ins_collisions == 0 and pending_req.size == 0:
                # Nothing inserted, nothing matched: the remaining messages
                # have no partner in the table; they stay unexpected.
                break
            if matched == 0:
                stall += 1
                if stall > self.config.max_stall_rounds:
                    break
            else:
                stall = 0
        return self._finish(out, n_msg, n_req, ledger, rounds, collisions)

    # -- rounds --------------------------------------------------------------------

    @staticmethod
    def _live(primary: _Level, secondary: _Level) -> bool:
        return bool(primary.used.any() or secondary.used.any())

    def _insert_round(self, primary: _Level, secondary: _Level,
                      pending_req: np.ndarray, req_keys: np.ndarray,
                      req_slots: tuple, ledger: CostLedger,
                      ) -> tuple[np.ndarray, int]:
        """Phase 1: try to place every pending request; returns deferred set."""
        if pending_req.size == 0:
            return pending_req, 0
        phase = ledger.phase("insert", active_warps=self._active_warps(
            pending_req.size))
        keys = req_keys[pending_req]
        phase.add("gmem_load", self._warp_instr(pending_req.size))
        phase.add("alu", self._warp_instr(pending_req.size) * self._hash_alu)

        phase.add("sync", float(self._warps_per_cta()))
        lost_primary, placed_p = self._try_place(
            primary, pending_req, keys, salt=0,
            base_slots=_take(req_slots[0], pending_req))
        phase.add("atomic", self._warp_instr(pending_req.size)
                  * self.config.probe_depth)
        collisions = int(lost_primary.size)
        deferred = lost_primary
        if lost_primary.size:
            phase.add("alu",
                      self._warp_instr(lost_primary.size) * self._hash_alu)
            phase.add("atomic", self._warp_instr(lost_primary.size)
                      * self.config.probe_depth)
            deferred, placed_s = self._try_place(
                secondary, lost_primary, req_keys[lost_primary],
                salt=_SECONDARY_SALT,
                base_slots=_take(req_slots[1], lost_primary))
            collisions += int(deferred.size)
        return deferred, collisions

    def _try_place(self, level: _Level, req_indices: np.ndarray,
                   keys: np.ndarray, salt: int,
                   base_slots: np.ndarray | None = None,
                   ) -> tuple[np.ndarray, int]:
        """Atomic-CAS placement with linear probing.

        Each probe offset is one more CAS attempt on the next slot; one
        winner per empty slot per round.  Depth 1 is the paper's policy.
        ``base_slots`` optionally carries the precomputed offset-0 slot of
        every pending key (identical to hashing in place).

        The one-winner-per-slot election is a reverse scatter: writing
        pending positions slot-wise in reverse order leaves the *first*
        contender of every slot in the scratch table, exactly the winner
        a stable sort-by-slot would pick -- in O(n) instead of
        O(n log n), which is what un-flattens the 64k host-rate curve.
        Only scattered entries of the scratch table are ever read back,
        so it needs no initialization.
        """
        pending = req_indices
        pending_keys = keys
        pending_slots = base_slots
        placed = 0
        for offset in range(self.config.probe_depth):
            if pending.size == 0:
                break
            base = (self._slot_of(pending_keys, level, salt)
                    if pending_slots is None else pending_slots)
            slots = (base + offset) % level.keys.size
            positions = np.arange(pending.size, dtype=np.int64)
            winner = np.empty(level.keys.size, dtype=np.int64)
            winner[slots[::-1]] = positions[::-1]
            is_winner = winner[slots] == positions
            can_place = is_winner & ~level.used[slots]
            sel = np.nonzero(can_place)[0]
            placed += int(sel.size)
            level.keys[slots[sel]] = pending_keys[sel]
            level.req_idx[slots[sel]] = pending[sel]
            level.used[slots[sel]] = True
            pending = pending[~can_place]
            pending_keys = pending_keys[~can_place]
            if pending_slots is not None:
                pending_slots = pending_slots[~can_place]
        return pending, placed

    def _query_round(self, primary: _Level, secondary: _Level,
                     pending_msg: np.ndarray, msg_keys: np.ndarray,
                     msg_slots: tuple, out: np.ndarray, ledger: CostLedger,
                     ) -> tuple[np.ndarray, int]:
        """Phase 2: probe both levels for every pending message."""
        phase = ledger.phase("query", active_warps=self._active_warps(
            pending_msg.size))
        keys = msg_keys[pending_msg]
        phase.add("sync", float(self._warps_per_cta()))
        phase.add("alu", self._warp_instr(pending_msg.size) * self._hash_alu)
        phase.add("gmem_load", self._warp_instr(pending_msg.size)
                  * self.config.probe_depth)

        remaining, matched_p = self._try_claim(
            primary, pending_msg, keys, salt=0, out=out,
            base_slots=_take(msg_slots[0], pending_msg))
        matched = matched_p
        if remaining.size:
            phase.add("alu",
                      self._warp_instr(remaining.size) * self._hash_alu)
            phase.add("gmem_load", self._warp_instr(remaining.size)
                      * self.config.probe_depth)
            remaining, matched_s = self._try_claim(
                secondary, remaining, msg_keys[remaining],
                salt=_SECONDARY_SALT, out=out,
                base_slots=_take(msg_slots[1], remaining))
            matched += matched_s
        phase.add("atomic", self._warp_instr(matched))
        phase.add("gmem_store", self._warp_instr(matched))
        return remaining, matched

    def _try_claim(self, level: _Level, msg_indices: np.ndarray,
                   keys: np.ndarray, salt: int, out: np.ndarray,
                   base_slots: np.ndarray | None = None,
                   ) -> tuple[np.ndarray, int]:
        """Claim matching live entries, probing like the placement side."""
        pending = msg_indices
        pending_keys = keys
        pending_slots = base_slots
        matched = 0
        for offset in range(self.config.probe_depth):
            if pending.size == 0:
                break
            base = (self._slot_of(pending_keys, level, salt)
                    if pending_slots is None else pending_slots)
            slots = (base + offset) % level.keys.size
            hit = level.used[slots] & (level.keys[slots] == pending_keys)
            # Only hitting threads attempt the claim CAS, so the
            # one-per-slot winner is chosen among hits; non-matching
            # probes never contend.  Same reverse-scatter election as
            # placement: the first hit of every slot wins its CAS.
            hit_pos = np.nonzero(hit)[0]
            hit_slots = slots[hit_pos]
            claim = np.zeros(pending.size, dtype=bool)
            if hit_pos.size:
                winner = np.empty(level.keys.size, dtype=np.int64)
                winner[hit_slots[::-1]] = hit_pos[::-1]
                claim[hit_pos] = winner[hit_slots] == hit_pos
            sel = np.nonzero(claim)[0]
            matched += int(sel.size)
            out[level.req_idx[slots[sel]]] = pending[sel]
            level.used[slots[sel]] = False  # free for reinsertion
            pending = pending[~claim]
            pending_keys = pending_keys[~claim]
            if pending_slots is not None:
                pending_slots = pending_slots[~claim]
        return pending, matched

    def _slot_of(self, keys: np.ndarray, level: _Level, salt: int) -> np.ndarray:
        folded = fold64(keys)
        hashed = self._hash(folded ^ salt) if salt else self._hash(folded)
        return hashed % level.keys.size

    # -- pedantic warp-level path -------------------------------------------------------

    def match_pedantic(self, messages: EnvelopeBatch,
                       requests: EnvelopeBatch,
                       max_rounds: int = 10_000) -> MatchOutcome:
        """Execute the two-level table warp by warp on the SIMT memory
        simulator, with real atomic CAS for insert and claim.

        Demonstrates that the hash matcher is implementable with nothing
        beyond warp-wide loads and ``atomicCAS`` -- no dynamic memory, no
        ordering.  Round structure differs slightly from the vectorized
        fast path (progress is per warp, not per full pending set), so
        the *assignment* may differ; validity and completeness on
        matchable workloads are the invariants (see tests).

        Limited to ``probe_depth == 1`` (the paper's policy).
        """
        if self.config.probe_depth != 1:
            raise ValueError("pedantic hash path implements the paper's "
                             "depth-1 policy only")
        messages.assert_concrete("message queue")
        if requests.has_wildcards:
            raise ValueError("hash matching requires the no-wildcards "
                             "relaxation; requests contain wildcards")
        n_msg, n_req = len(messages), len(requests)
        ledger = CostLedger()
        ledger.phase("pedantic", active_warps=self._active_warps(
            max(n_msg, n_req, 1)))
        out = np.full(n_req, NO_MATCH, dtype=np.int64)
        self._workload_warps = max(1, math.ceil(max(n_msg, n_req)
                                                / WARP_SIZE))
        if n_msg == 0 or n_req == 0:
            return self._finish(out, n_msg, n_req, ledger, 0, 0)

        # Packed words take all 2**64 values, so the tables store each key's
        # rank among the batch's keys plus one; 0 stays the empty sentinel.
        msg_words, req_words = messages.packed(), requests.packed()
        _, key_ids = np.unique(np.concatenate([msg_words, req_words]),
                               return_inverse=True)
        msg_keys, req_keys = key_ids[:n_msg] + 1, key_ids[n_msg:] + 1
        P, S = self.config.sizes(max(n_msg, n_req))
        san = self._san
        if san is not None:
            prev_kernel = san.current_kernel
            san.current_kernel = "hash.match_pedantic"
        mem = GlobalMemory(2 * (P + S), ledger=ledger, sanitize=san)
        kp = mem.alloc("keys_primary", P)
        vp = mem.alloc("vals_primary", P)
        ks = mem.alloc("keys_secondary", S)
        vs = mem.alloc("vals_secondary", S)
        # cudaMemset of the empty sentinel before launch; uncharged and a
        # no-op on the zero-initialized simulated memory, but it defines
        # every slot a depth-1 probe may legally read.
        for region in ("keys_primary", "vals_primary",
                       "keys_secondary", "vals_secondary"):
            mem.memset(region, 0)

        def level_params(words, salt, base_k, base_v, size):
            folded = fold64(words)
            hashed = self._hash(folded ^ salt) if salt else self._hash(folded)
            slots = hashed % size
            return base_k + slots, base_v + slots

        pending_req = np.arange(n_req, dtype=np.int64)
        pending_msg = np.arange(n_msg, dtype=np.int64)
        rounds = 0
        stall = 0
        while pending_msg.size and rounds < max_rounds:
            rounds += 1
            progress = 0
            # insert phase, one warp of requests at a time
            deferred_req = []
            for w0 in range(0, pending_req.size, WARP_SIZE):
                lanes = pending_req[w0:w0 + WARP_SIZE]
                keys = req_keys[lanes]
                placed = np.zeros(lanes.size, dtype=bool)
                for salt, bk, bv, size in ((0, kp, vp, P),
                                           (_SECONDARY_SALT, ks, vs, S)):
                    todo = ~placed
                    if not todo.any():
                        break
                    ka, va = level_params(req_words[lanes], salt, bk, bv, size)
                    won = mem.atomic_cas(ka, np.zeros(lanes.size,
                                                      dtype=np.int64),
                                         keys, active=todo)
                    if won.any():
                        mem.store(va[won], lanes[won])
                    placed |= won
                deferred_req.extend(lanes[~placed])
                progress += int(placed.sum())
            pending_req = np.array(deferred_req, dtype=np.int64)
            # query phase, one warp of messages at a time
            deferred_msg = []
            for w0 in range(0, pending_msg.size, WARP_SIZE):
                lanes = pending_msg[w0:w0 + WARP_SIZE]
                keys = msg_keys[lanes]
                matched = np.zeros(lanes.size, dtype=bool)
                for salt, bk, bv, size in ((0, kp, vp, P),
                                           (_SECONDARY_SALT, ks, vs, S)):
                    todo = ~matched
                    if not todo.any():
                        break
                    ka, va = level_params(msg_words[lanes], salt, bk, bv, size)
                    stored = mem.load(ka)
                    hit = todo & (stored == keys)
                    if not hit.any():
                        continue
                    req_idx = mem.load(va)
                    claimed = mem.atomic_cas(ka, keys,
                                             np.zeros(lanes.size,
                                                      dtype=np.int64),
                                             active=hit)
                    sel = np.nonzero(claimed)[0]
                    out[req_idx[sel]] = lanes[sel]
                    matched |= claimed
                deferred_msg.extend(lanes[~matched])
                progress += int(matched.sum())
            pending_msg = np.array(deferred_msg, dtype=np.int64)
            if progress == 0:
                stall += 1
                if stall > self.config.max_stall_rounds:
                    break
            else:
                stall = 0
        if san is not None:
            san.finalize()
            san.current_kernel = prev_kernel
        return self._finish(out, n_msg, n_req, ledger, rounds, 0)

    # -- cost plumbing ---------------------------------------------------------------

    @staticmethod
    def _warp_instr(n_elements: int) -> float:
        """Warp instructions for an elementwise step over ``n_elements``."""
        return float(math.ceil(n_elements / WARP_SIZE))

    def _active_warps(self, n_elements: int) -> int:
        """Warps of one engine CTA concurrently working a phase."""
        needed = max(1, math.ceil(n_elements / WARP_SIZE))
        return max(1, min(needed, 1024 // WARP_SIZE))

    def _warps_per_cta(self) -> int:
        """CTA width for barrier accounting: each insert->query boundary is
        a CTA-wide barrier whose cost grows with the warps it drains."""
        return max(1, min(self._workload_warps, 1024 // WARP_SIZE))

    def _resources(self) -> KernelResources:
        threads = self._warps_per_cta() * WARP_SIZE
        return KernelResources(threads_per_cta=threads,
                               shared_mem_per_cta=0, regs_per_thread=28)

    def _finish(self, out: np.ndarray, n_msg: int, n_req: int,
                ledger: CostLedger, rounds: int, collisions: int,
                ) -> MatchOutcome:
        from ..simt.occupancy import occupancy
        occ = occupancy(self.spec, self._resources())
        resident = max(1, min(self.n_ctas, occ.max_resident_ctas))
        waves = math.ceil(self.n_ctas / resident)
        contention = 1.0 + self.spec.cta_contention * (resident - 1)
        timing = TimingModel(self.spec, family="hash").evaluate(ledger)
        cycles = timing.cycles * waves * contention
        if self._obs is not None:
            matched = int(np.count_nonzero(out != NO_MATCH))
            self._obs.count("hash.rounds", float(rounds))
            self._obs.count("hash.insert_collisions", float(collisions))
            self._obs.count("hash.matches", float(matched))
            self._obs.match_span(
                "hash.match", cycles / self.spec.clock_hz,
                timing.per_phase_cycles, self.spec.clock_hz,
                n_messages=n_msg, n_requests=n_req, matched=matched,
                rounds=rounds, collisions=collisions)
        return MatchOutcome(
            request_to_message=out, n_messages=n_msg, n_requests=n_req,
            seconds=cycles / self.spec.clock_hz, cycles=cycles,
            iterations=max(1, rounds), replicas=self.n_ctas,
            meta={"phase_cycles": timing.per_phase_cycles,
                  "device": self.spec.name, "n_ctas": self.n_ctas,
                  "waves": waves, "resident_ctas": resident,
                  "contention": contention, "collisions": collisions,
                  "hash": self.config.hash_name})
