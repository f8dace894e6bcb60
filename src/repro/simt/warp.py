"""Warp-level SIMT primitives.

This module is the bottom layer of the functional SIMT simulator.  It
provides the CUDA warp intrinsics the paper's matching algorithms are
written against:

* ``ballot`` -- evaluate a predicate on every lane of a warp and collect
  the results into a 32-bit vector (LSB = lane 0), mirroring CUDA's
  ``__ballot`` / ``__ballot_sync``.
* ``ffs`` / ``clz`` / ``popc`` / ``brev`` -- the hardware bit functions the
  paper's reduce phase relies on (``__ffs`` is 1-based, returning 0 for a
  zero input, exactly like the PTX instruction).
* warp shuffles (``shfl``, ``shfl_up``, ``shfl_down``, ``shfl_xor``) and
  votes (``any``/``all``).

Lane state is represented as NumPy arrays of length ``warp_size`` so that
a warp instruction is a single vectorized operation, which is both faithful
to the SIMT model (one instruction, many lanes) and fast to simulate.

All functions here are *functional*: they do not account for cost.  The
:class:`~repro.simt.timing.CostLedger` accounting is performed by
:class:`Warp`, which wraps these primitives and records one warp
instruction per call, the way a real warp scheduler issues them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
import numpy as np

__all__ = [
    "WARP_SIZE",
    "FULL_MASK",
    "ffs32",
    "clz32",
    "popc32",
    "brev32",
    "full_active",
    "lane_ids",
    "lanemask_lt",
    "pack_ballot",
    "unpack_ballot",
    "Warp",
    "WarpDivergenceError",
]

#: Number of threads per warp on every NVIDIA generation the paper measures.
WARP_SIZE = 32

#: All-lanes-active mask (``0xFFFFFFFF``), as used by ``__ballot_sync``.
FULL_MASK = 0xFFFFFFFF


class WarpDivergenceError(RuntimeError):
    """Raised when a warp-synchronous operation is attempted on a warp whose
    lanes have diverged in a way the operation cannot express (for example a
    shuffle from an inactive lane)."""


def ffs32(x: int) -> int:
    """Find-first-set, CUDA ``__ffs`` semantics.

    Returns the 1-based position of the least significant set bit of the
    32-bit value ``x``, or 0 when ``x == 0``.

    >>> ffs32(0b1000)
    4
    >>> ffs32(0)
    0
    """
    x = int(x) & FULL_MASK
    if x == 0:
        return 0
    return (x & -x).bit_length()


def clz32(x: int) -> int:
    """Count leading zeros of a 32-bit value, CUDA ``__clz`` semantics.

    Returns 32 for ``x == 0``.

    >>> clz32(1)
    31
    >>> clz32(0)
    32
    """
    x = int(x) & FULL_MASK
    return 32 - x.bit_length()


def popc32(x: int) -> int:
    """Population count (number of set bits), CUDA ``__popc`` semantics."""
    return bin(int(x) & FULL_MASK).count("1")


def brev32(x: int) -> int:
    """Bit-reverse a 32-bit value, CUDA ``__brev`` semantics."""
    x = int(x) & FULL_MASK
    out = 0
    for _ in range(32):
        out = (out << 1) | (x & 1)
        x >>= 1
    return out


#: Cached per-warp constant arrays, keyed by warp size.  These are
#: returned read-only and shared: the pedantic paths request them once
#: per warp instruction, and reallocating an arange/ones per call
#: dominated the host profile of the warp-level simulator.
_LANE_IDS_CACHE: dict[int, np.ndarray] = {}
_FULL_ACTIVE_CACHE: dict[int, np.ndarray] = {}
_LANE_WEIGHTS_CACHE: dict[int, np.ndarray] = {}


def lane_ids(warp_size: int = WARP_SIZE) -> np.ndarray:
    """Per-lane thread index within the warp (``threadIdx.x % warpSize``).

    Returns a cached **read-only** array; copy before mutating.
    """
    arr = _LANE_IDS_CACHE.get(warp_size)
    if arr is None:
        arr = np.arange(warp_size, dtype=np.int64)
        arr.setflags(write=False)
        _LANE_IDS_CACHE[warp_size] = arr
    return arr


def full_active(warp_size: int = WARP_SIZE) -> np.ndarray:
    """All-lanes-active boolean mask (cached, **read-only**).

    The no-divergence steady state every kernel starts from; sharing one
    frozen array avoids a ``np.ones`` allocation per warp per call on the
    pedantic paths.  Warp methods never mutate ``active`` in place (they
    rebind it), so sharing is safe; copy before mutating.
    """
    arr = _FULL_ACTIVE_CACHE.get(warp_size)
    if arr is None:
        arr = np.ones(warp_size, dtype=bool)
        arr.setflags(write=False)
        _FULL_ACTIVE_CACHE[warp_size] = arr
    return arr


def lanemask_lt(lane: int) -> int:
    """CUDA ``%lanemask_lt``: bits set for all lanes strictly below ``lane``."""
    if not 0 <= lane < WARP_SIZE:
        raise ValueError(f"lane must be in [0, {WARP_SIZE}), got {lane}")
    return (1 << lane) - 1


def pack_ballot(predicate: np.ndarray) -> int:
    """Pack a boolean lane vector into a 32-bit ballot word (LSB = lane 0).

    This is the pure bit-packing at the heart of ``__ballot``; it accepts
    vectors of any length up to 32 (shorter warps are used by the paper's
    figures for queues below 64 entries).
    """
    bits = np.asarray(predicate, dtype=bool)
    if bits.ndim != 1 or bits.size > 32:
        raise ValueError("ballot predicate must be a 1-D vector of <=32 lanes")
    # dot with powers of two; exact for 32 bits in int64
    weights = _LANE_WEIGHTS_CACHE.get(bits.size)
    if weights is None:
        weights = 1 << np.arange(bits.size, dtype=np.int64)
        weights.setflags(write=False)
        _LANE_WEIGHTS_CACHE[bits.size] = weights
    return int(bits.astype(np.int64) @ weights)


def unpack_ballot(word: int, warp_size: int = WARP_SIZE) -> np.ndarray:
    """Expand a 32-bit ballot word back into a boolean lane vector."""
    word = int(word) & FULL_MASK
    return ((word >> lane_ids(warp_size)) & 1).astype(bool)


@dataclass
class Warp:
    """A single warp: 32 lanes executing in lockstep.

    Lane-local registers are NumPy arrays of length :attr:`warp_size`; each
    method models one warp instruction and reports it to the attached
    :class:`~repro.simt.timing.CostLedger` (if any).

    Parameters
    ----------
    warp_id:
        Index of this warp within its CTA.
    warp_size:
        Number of lanes; 32 on all simulated generations, but the paper's
        discussion of *variable warp sizes* (Section VII-C) motivates keeping
        this a parameter.
    ledger:
        Optional cost ledger; when present every primitive records its issue.
    active:
        Boolean lane mask.  Inactive lanes have their results masked off,
        mirroring how divergent SIMT threads are handled in hardware.
    """

    warp_id: int = 0
    warp_size: int = WARP_SIZE
    ledger: "object | None" = None
    active: np.ndarray = field(default=None)  # type: ignore[assignment]
    #: Nesting depth of :meth:`push_mask` frames not yet reconverged by
    #: :meth:`pop_mask`.  Pure bookkeeping (no cost); the sanitizer's
    #: synccheck reads it to flag barriers inside divergent regions.
    mask_depth: int = field(default=0, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.warp_size < 1 or self.warp_size > 32:
            raise ValueError("warp_size must be in [1, 32]")
        if self.active is None:
            # private copy: callers may mutate a warp's mask in place
            self.active = full_active(self.warp_size).copy()
        else:
            self.active = np.asarray(self.active, dtype=bool).copy()
            if self.active.shape != (self.warp_size,):
                raise ValueError("active mask must have warp_size entries")

    # -- cost hooks --------------------------------------------------------

    def _issue(self, kind: str, count: int = 1) -> None:
        if self.ledger is not None:
            self.ledger.issue(kind, count)

    # -- lane bookkeeping ----------------------------------------------------

    @property
    def lanes(self) -> np.ndarray:
        """Lane indices ``[0, warp_size)``."""
        return lane_ids(self.warp_size)

    def push_mask(self, predicate: np.ndarray) -> np.ndarray:
        """Enter a divergent branch: returns the previous mask; active lanes
        become ``active & predicate``.  Pair with :meth:`pop_mask`."""
        predicate = np.asarray(predicate, dtype=bool)
        prev = self.active.copy()
        self.active = self.active & predicate
        self.mask_depth += 1
        self._issue("branch")
        return prev

    def pop_mask(self, saved: np.ndarray) -> None:
        """Reconverge after a divergent branch."""
        self.active = np.asarray(saved, dtype=bool).copy()
        self.mask_depth = max(0, self.mask_depth - 1)

    # -- arithmetic (cost-tracked helpers) ----------------------------------

    def op(self, result: np.ndarray, count: int = 1) -> np.ndarray:
        """Record ``count`` ALU warp instructions and pass ``result`` through.

        Used by kernels to attribute vectorized NumPy arithmetic to the
        warp's instruction stream without re-implementing every operator.
        """
        self._issue("alu", count)
        return result

    # -- votes and ballots ---------------------------------------------------

    def ballot(self, predicate: np.ndarray) -> int:
        """``__ballot(predicate)``: 32-bit vector of per-lane predicate results.

        Inactive lanes always contribute a 0 bit, as in hardware.
        """
        predicate = np.asarray(predicate, dtype=bool)
        if predicate.shape != (self.warp_size,):
            raise ValueError("predicate must have one entry per lane")
        self._issue("ballot")
        return pack_ballot(predicate & self.active)

    def any(self, predicate: np.ndarray) -> bool:
        """``__any(predicate)``: true if any active lane's predicate holds."""
        self._issue("vote")
        return bool(np.any(np.asarray(predicate, dtype=bool) & self.active))

    def all(self, predicate: np.ndarray) -> bool:
        """``__all(predicate)``: true if every active lane's predicate holds."""
        self._issue("vote")
        predicate = np.asarray(predicate, dtype=bool)
        return bool(np.all(predicate[self.active])) if self.active.any() else True

    # -- shuffles ------------------------------------------------------------

    def _check_shuffle_sources(self, src: np.ndarray) -> None:
        """Reject shuffles where any active lane reads an inactive source.

        In hardware that read is undefined behaviour; every shuffle variant
        enforces the same rule (window-clamped lanes read themselves, which
        is always defined since the reader is active).
        """
        if not self.active[src[self.active]].all():
            raise WarpDivergenceError("shuffle reads from inactive lane")

    def shfl(self, values: np.ndarray, src_lane: int | np.ndarray) -> np.ndarray:
        """``__shfl``: every lane reads ``values`` from ``src_lane``.

        ``src_lane`` may be a scalar (broadcast) or a per-lane index vector.
        Reading from an inactive lane raises :class:`WarpDivergenceError`,
        which in hardware would be undefined behaviour.
        """
        values = np.asarray(values)
        src = np.broadcast_to(np.asarray(src_lane, dtype=np.int64) % self.warp_size,
                              (self.warp_size,))
        self._check_shuffle_sources(src)
        self._issue("shfl")
        return values[src]

    def shfl_up(self, values: np.ndarray, delta: int) -> np.ndarray:
        """``__shfl_up``: lane ``i`` reads lane ``i - delta``; lanes below
        ``delta`` keep their own value.

        Like :meth:`shfl`, an active lane reading an inactive source raises
        :class:`WarpDivergenceError` (UB in hardware)."""
        values = np.asarray(values)
        src = self.lanes - int(delta)
        src = np.where(src < 0, self.lanes, src)
        self._check_shuffle_sources(src)
        self._issue("shfl")
        return values[src]

    def shfl_down(self, values: np.ndarray, delta: int) -> np.ndarray:
        """``__shfl_down``: lane ``i`` reads lane ``i + delta``; top lanes keep
        their own value.

        Like :meth:`shfl`, an active lane reading an inactive source raises
        :class:`WarpDivergenceError` (UB in hardware)."""
        values = np.asarray(values)
        src = self.lanes + int(delta)
        src = np.where(src >= self.warp_size, self.lanes, src)
        self._check_shuffle_sources(src)
        self._issue("shfl")
        return values[src]

    def shfl_xor(self, values: np.ndarray, mask: int) -> np.ndarray:
        """``__shfl_xor``: butterfly exchange pattern.

        Like :meth:`shfl`, an active lane reading an inactive source raises
        :class:`WarpDivergenceError` (UB in hardware)."""
        values = np.asarray(values)
        src = self.lanes ^ int(mask)
        src = np.where(src >= self.warp_size, self.lanes, src)
        self._check_shuffle_sources(src)
        self._issue("shfl")
        return values[src]

    # -- warp-level reductions (built from shuffles) -------------------------

    def reduce_sum(self, values: np.ndarray) -> int:
        """Warp tree-reduction via ``shfl_down``; returns the lane-0 total.

        Issues ``log2(warp_size)`` shuffle + add pairs, like the canonical
        CUDA warp reduce: inactive lanes contribute 0, then the tree runs
        reconverged under the full mask (the ``__shfl_down_sync(FULL_MASK,
        ...)`` idiom), so partial masks never make the shuffles read
        undefined lanes.
        """
        vals = np.asarray(values, dtype=np.int64).copy()
        vals[~self.active] = 0
        saved = self.active
        self.active = full_active(self.warp_size)
        try:
            delta = 1
            while delta < self.warp_size:
                shifted = self.shfl_down(vals, delta)
                self._issue("alu")
                vals = vals + np.where(self.lanes + delta < self.warp_size,
                                       shifted, 0)
                delta <<= 1
        finally:
            self.active = saved
        return int(vals[0])

    def inclusive_scan(self, values: np.ndarray) -> np.ndarray:
        """Warp-level inclusive prefix sum (Kogge-Stone via ``shfl_up``).

        Reconverges to the full mask for the shuffle tree, as
        :meth:`reduce_sum` does; inactive lanes contribute 0.
        """
        vals = np.asarray(values, dtype=np.int64).copy()
        vals[~self.active] = 0
        saved = self.active
        self.active = full_active(self.warp_size)
        try:
            delta = 1
            while delta < self.warp_size:
                shifted = self.shfl_up(vals, delta)
                self._issue("alu")
                vals = vals + np.where(self.lanes >= delta, shifted, 0)
                delta <<= 1
        finally:
            self.active = saved
        return vals

    def exclusive_scan(self, values: np.ndarray) -> np.ndarray:
        """Warp-level exclusive prefix sum."""
        inc = self.inclusive_scan(values)
        self._issue("alu")
        return inc - np.asarray(values, dtype=np.int64)
