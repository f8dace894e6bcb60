"""Common machinery for the synthetic proxy-application models.

Each application model is an :class:`AppModel` subclass that declares its
Table-I-visible identity (suite, wildcard usage, communicator count) and
implements :meth:`build` using the :class:`TraceBuilder` and the topology
helpers below.  The models are *communication skeletons*: they reproduce
the pattern, tag discipline, posting discipline, and volume of the real
mini-app's point-to-point traffic -- the properties the paper's matching
analysis depends on -- not its numerics.
"""

from __future__ import annotations

from itertools import chain, product
from typing import Callable, Sequence

import numpy as np

from ..events import COLUMNS, KIND_BARRIER, KIND_POST, KIND_SEND, Trace

__all__ = ["AppModel", "NO_OWNER", "TraceBuilder", "gather_flood",
           "grid_dims", "grid_neighbors", "pair_array", "ring_neighbors",
           "random_neighbors", "skewed_neighbors"]

#: ``TraceBuilder`` owner that keeps no row and sums per-rank load
NO_OWNER = -1


class TraceBuilder:
    """Accumulates trace columns with a monotonically increasing clock.

    Every event takes one clock tick (a barrier takes one tick for all
    ranks).  The synthetic clock has no physical meaning; only the
    *order* of events matters to the analyses (it decides queue
    interleavings).

    Rows arrive in whole blocks -- :meth:`exchange` (one phase),
    :meth:`block` (n arbitrary rows at consecutive ticks) and
    :meth:`barrier` -- and are kept per column, already in the
    :data:`COLUMNS` dtypes, until :meth:`build` joins each column.

    ``owner`` projects the trace onto one rank.  ``None`` keeps every
    row.  A rank keeps only the rows that rank owns: sends addressed to
    it and the rows it issued itself (its posts and barrier markers),
    at their original ticks and in trace order, so ``len()`` counts the
    kept rows.  ``-1`` (:data:`NO_OWNER`) keeps no row and instead sums
    each rank's matching load -- messages arriving plus receives posted
    -- into :attr:`load`.  Every mode consumes the model's random stream
    identically, so one model run per mode sees the same trace.
    """

    def __init__(self, owner: int | None = None) -> None:
        #: per column, its blocks in append order
        self._blocks: dict[str, list[np.ndarray]] = {name: []
                                                     for name in COLUMNS}
        self._n = 0
        self._t = 0.0
        self.owner = owner
        #: per-rank matching load, summed only when ``owner`` is -1
        self.load = np.zeros(0, dtype=np.int64)

    def __len__(self) -> int:
        """Rows recorded so far."""
        return self._n

    def _append(self, **columns: np.ndarray) -> None:
        """Store one block: every column, equal length, final dtypes."""
        for name, col in columns.items():
            self._blocks[name].append(col)
        self._n += len(columns["time"])

    def _append_owned(self, **columns: np.ndarray) -> None:
        """:meth:`_append` the block's rows that :attr:`owner` keeps."""
        if self.owner is not None:
            kind = columns["kind"]
            owned = np.where(kind == KIND_SEND, columns["peer"],
                             columns["rank"])
            if self.owner == NO_OWNER:
                self._tally(owned[kind != KIND_BARRIER])
                return
            keep = np.flatnonzero(owned == self.owner)
            columns = {name: col[keep] for name, col in columns.items()}
        self._append(**columns)

    def _tally(self, ranks: np.ndarray, weight: int = 1) -> None:
        """Add ``weight`` to :attr:`load` once per entry of ``ranks``."""
        counts = weight * np.bincount(ranks)
        if counts.size > self.load.size:
            self.load = np.pad(self.load, (0, counts.size - self.load.size))
        self.load[:counts.size] += counts

    def _ticks(self, n: int) -> np.ndarray:
        """Times of ``n`` rows at the next consecutive ticks."""
        times = self._t + np.arange(1, n + 1, dtype=np.float64)
        self._t += n
        return times

    def block(self, kind, rank, peer, tag, comm=0, nbytes=0) -> None:
        """Record ``n`` rows at the next ``n`` consecutive ticks.

        Each argument is a column value per row (see :data:`COLUMNS`):
        a scalar or an array, broadcast together to the block's length.
        """
        cols = np.broadcast_arrays(*(np.asarray(v) for v in
                                     (kind, rank, peer, tag, comm, nbytes)))
        names = [name for name in COLUMNS if name != "time"]
        self._append_owned(**{name: col.astype(COLUMNS[name])
                              for name, col in zip(names, cols)},
                           time=self._ticks(cols[0].size))

    def barrier(self, n_ranks: int) -> None:
        """Record a superstep boundary on every rank."""
        self._t += 1.0
        zeros = np.zeros(n_ranks, dtype=np.int64)
        self._append_owned(kind=np.full(n_ranks, KIND_BARRIER,
                                        dtype=np.int8),
                           rank=np.arange(n_ranks, dtype=np.int64),
                           peer=zeros, tag=zeros, comm=zeros, nbytes=zeros,
                           time=np.full(n_ranks, self._t))

    def exchange(self, pairs: np.ndarray | Sequence[tuple[int, int]],
                 tag_of: Callable[[np.ndarray, np.ndarray, np.ndarray],
                                  int | np.ndarray],
                 comm_of: Callable[[np.ndarray, np.ndarray, np.ndarray],
                                   int | np.ndarray] | None = None,
                 msgs_per_pair: int = 1,
                 prepost_fraction: float = 1.0,
                 rng: np.random.Generator | None = None,
                 wildcard_src_fraction: float = 0.0,
                 nbytes: int = 8) -> None:
        """One exchange phase over directed ``(src, dst)`` pairs.

        ``pairs`` is an ``(m, 2)`` int64 array (see :func:`pair_array`;
        models build theirs once and re-fire it every step) or anything
        that converts to one, such as a list of tuples.

        ``tag_of(src, dst, k)`` names the tag of the k-th message on a
        pair; ``comm_of`` likewise for the communicator (default 0).
        Both are called once per phase with three equal-length int64
        arrays -- every message's source, destination and per-pair index
        ``k`` -- and may return a scalar (one value for all messages) or
        an array of that length; anything that does not broadcast to it
        raises ``ValueError``.  A :data:`NO_OWNER` builder, which keeps
        no rows, does not call them.

        ``prepost_fraction`` of the receives are posted *before* any send
        of the phase (they land in the PRQ and wait); the rest are posted
        after all sends (those messages sit in the UMQ as unexpected).
        ``wildcard_src_fraction`` of the receives use MPI_ANY_SOURCE.
        Both fractions must lie in ``[0, 1]``.  The receive order and the
        pair order are each one seeded shuffle.
        """
        for what, fraction in (("prepost_fraction", prepost_fraction),
                               ("wildcard_src_fraction",
                                wildcard_src_fraction)):
            if not 0.0 <= fraction <= 1.0:
                raise ValueError(f"{what} must be in [0, 1], got {fraction}")
        rng = rng if rng is not None else np.random.default_rng(0)
        pair_arr = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
        m = msgs_per_pair
        n = len(pair_arr) * m
        # one row per message, pair-major: (src, dst, k)
        src = np.repeat(pair_arr[:, 0], m)
        dst = np.repeat(pair_arr[:, 1], m)
        k = np.tile(np.arange(m, dtype=np.int64), len(pair_arr))
        # receives: wildcard draws in message order, then one shuffle
        wild = rng.random(n) < wildcard_src_fraction
        recv = np.arange(n)
        rng.shuffle(recv)
        n_pre = int(round(prepost_fraction * n))
        # sends: pairs in shuffled order, each pair's k messages in order
        order = np.arange(len(pair_arr))
        rng.shuffle(order)
        if self.owner == NO_OWNER:
            # each message is one arrival at dst and one post by dst
            self._tally(dst, weight=2)
            self._t += 2 * n
            return
        send = (order[:, None] * m + np.arange(m)).ravel()
        tag = _per_message(tag_of(src, dst, k), n, "tag_of")
        comm = (_per_message(comm_of(src, dst, k), n, "comm_of")
                if comm_of is not None else np.zeros(n, dtype=np.int64))

        # rows: pre-posted receives, then the sends, then the late posts
        rows = np.concatenate((recv[:n_pre], send, recv[n_pre:]))
        times = self._ticks(2 * n)
        lo, hi = n_pre, n_pre + n
        if self.owner is not None:
            # both rows of a message addressed to the owner: send and post
            keep = np.flatnonzero(dst[rows] == self.owner)
            rows, times = rows[keep], times[keep]
            lo, hi = np.searchsorted(keep, (lo, hi))
        sends = slice(lo, hi)
        kind = np.full(rows.size, KIND_POST, dtype=np.int8)
        kind[sends] = KIND_SEND
        rank = dst[rows]
        rank[sends] = src[rows[sends]]
        peer = np.where(wild, -1, src)[rows]
        peer[sends] = dst[rows[sends]]
        out_bytes = np.zeros(rows.size, dtype=np.int64)
        out_bytes[sends] = nbytes
        self._append(kind=kind, rank=rank, peer=peer, tag=tag[rows],
                     comm=comm[rows], nbytes=out_bytes, time=times)

    def build(self, app: str, n_ranks: int, meta: dict | None = None) -> Trace:
        """Finalize into a :class:`Trace`.

        Joins one column at a time and drops that column's blocks before
        the next, so the peak of live allocations is about one trace plus
        one column.  The resident set is larger: the allocator keeps most
        of the freed blocks' pages, so after a full build the process
        holds about two traces of memory, and keeps one of them after the
        trace is dropped.  An ``owner`` builder holds only its rank's
        rows, which is why the serve loadgen builds that way.
        """
        columns = {}
        for name, dtype in COLUMNS.items():
            blocks = self._blocks[name]
            columns[name] = (blocks[0] if len(blocks) == 1 else
                             np.concatenate(blocks) if blocks else
                             np.empty(0, dtype=dtype))
            blocks[:] = [columns[name]]
        return Trace(app=app, n_ranks=n_ranks, meta=meta, columns=columns)


def _per_message(values, n: int, what: str) -> np.ndarray:
    """``values`` (scalar or array) as an int64 column of length ``n``."""
    try:
        return np.broadcast_to(np.asarray(values, dtype=np.int64), (n,))
    except ValueError:
        raise ValueError(f"{what} returned shape {np.shape(values)}; "
                         f"expected a scalar or length {n}") from None


def gather_flood(b: TraceBuilder, bursts: Sequence[int],
                 tag_of: Callable[[np.ndarray], np.ndarray],
                 comm: int = 0) -> None:
    """Gather floods into every rank, as one :meth:`TraceBuilder.block`.

    For each destination ``d`` in rank order, every other rank (source
    order) sends ``max(1, bursts[d] // (n_ranks - 1))`` messages, the
    k-th tagged ``tag_of(k)``; only then does ``d`` post the matching
    receives in the same order, so the whole flood is unexpected.
    """
    n = len(bursts)
    per_src = np.maximum(1, np.asarray(bursts, dtype=np.int64) // (n - 1))
    seg = (n - 1) * per_src               # messages into each destination
    start = np.cumsum(2 * seg) - 2 * seg  # first row of each segment
    d = np.repeat(np.arange(n), 2 * seg)
    r = np.arange(d.size) - start[d]      # row within d's segment
    is_post = r >= seg[d]
    j = r - np.where(is_post, seg[d], 0)  # message within d's segment
    s = j // per_src[d]
    s += s >= d                           # the sources skip d itself
    b.block(np.where(is_post, KIND_POST, KIND_SEND),
            rank=np.where(is_post, d, s), peer=np.where(is_post, s, d),
            tag=tag_of(j % per_src[d]), comm=comm,
            nbytes=np.where(is_post, 0, 8))


class AppModel:
    """Base class for application communication models.

    Subclasses override the class attributes and implement :meth:`build`.
    (Deliberately *not* a dataclass: the identity fields are class-level
    constants of each model, not per-instance state.)
    """

    #: short identifier, e.g. ``"exmatex_lulesh"``
    name: str = "base"
    #: human-readable name as it appears in the paper's Table I
    full_name: str = "base"
    #: proxy-app suite (designforward / cesar / exact / exmatex / amr)
    suite: str = "none"
    #: one-line description of the modelled communication skeleton
    description: str = ""
    #: does the app post MPI_ANY_SOURCE receives? (Table I: only
    #: Design Forward MiniDFT and MiniFE do)
    uses_src_wildcard: bool = False
    #: does the app use MPI_ANY_TAG? (Table I: none do)
    uses_tag_wildcard: bool = False
    #: distinct communicators carrying point-to-point traffic
    n_communicators: int = 1
    #: default rank count for `generate()`
    default_ranks: int = 32
    #: default superstep count
    default_steps: int = 10

    def generate(self, n_ranks: int | None = None, steps: int | None = None,
                 seed: int = 0, *, busiest_only: bool = False) -> Trace:
        """Generate a trace at the given scale (defaults per app).

        ``busiest_only=True`` returns the trace projected onto its
        busiest rank (most messages arriving plus receives posted,
        lowest rank on a tie), named in ``meta["rank"]``: that rank's
        rows of the full trace, as :class:`TraceBuilder` ``owner``
        keeps them, without ever holding the other ranks' rows.  The
        model runs twice with the same seed, once to sum per-rank load
        and once to keep the busiest rank's rows.
        """
        n_ranks = self.default_ranks if n_ranks is None else n_ranks
        steps = self.default_steps if steps is None else steps
        if n_ranks < 2:
            raise ValueError("need at least 2 ranks to communicate")
        if steps < 1:
            raise ValueError("steps must be positive")
        meta = {"steps": steps, "seed": seed, "suite": self.suite}
        owner = None
        if busiest_only:
            counter = self._run(TraceBuilder(NO_OWNER), n_ranks, steps, seed)
            owner = meta["rank"] = int(np.argmax(counter.load))
        builder = self._run(TraceBuilder(owner), n_ranks, steps, seed)
        return builder.build(self.name, n_ranks, meta=meta)

    def _run(self, b: TraceBuilder, n_ranks: int, steps: int,
             seed: int) -> TraceBuilder:
        """One seeded :meth:`build` into ``b``; returns ``b``."""
        self.build(b, n_ranks, steps, np.random.default_rng(seed + 0x5EED))
        return b

    def build(self, b: TraceBuilder, n_ranks: int, steps: int,
              rng: np.random.Generator) -> None:
        """Emit the app's events into the builder (subclass hook)."""
        raise NotImplementedError


# -- topology helpers ------------------------------------------------------------


def grid_dims(n_ranks: int, ndim: int) -> tuple[int, ...]:
    """Near-cubic process grid factorization of ``n_ranks``.

    >>> grid_dims(64, 3)
    (4, 4, 4)
    """
    dims = [1] * ndim
    n = n_ranks
    f = 2
    factors = []
    while f * f <= n:
        while n % f == 0:
            factors.append(f)
            n //= f
        f += 1
    if n > 1:
        factors.append(n)
    for p in sorted(factors, reverse=True):
        dims[int(np.argmin(dims))] *= p
    return tuple(sorted(dims, reverse=True))


def grid_neighbors(n_ranks: int, ndim: int = 3, corners: bool = False,
                   ) -> list[list[int]]:
    """Cartesian halo neighbors (non-periodic) for every rank.

    ``corners=False`` gives the 2*ndim face stencil; ``corners=True`` the
    full Moore neighborhood (8 in 2-D, 26 in 3-D) that halo codes like
    LULESH exchange with.
    """
    dims = grid_dims(n_ranks, ndim)
    if corners:
        offsets = [off for off in product((-1, 0, 1), repeat=ndim)
                   if any(off)]
    else:
        offsets = [tuple(s * (i == d) for i in range(ndim))
                   for d in range(ndim) for s in (-1, 1)]
    coords = np.stack(np.unravel_index(np.arange(n_ranks), dims), axis=-1)
    cand = coords[:, None, :] + np.array(offsets)     # (rank, offset, dim)
    inside = ((cand >= 0) & (cand < dims)).all(axis=-1)
    flat = np.ravel_multi_index(tuple(np.moveaxis(cand, -1, 0)), dims,
                                mode="clip")
    return [row[keep].tolist() for row, keep in zip(flat, inside)]


def pair_array(nbrs: Sequence[Sequence[int]]) -> np.ndarray:
    """Directed ``(src, dst)`` pairs of per-rank neighbor lists as an
    ``(m, 2)`` int64 array: source-major, each source's neighbors in
    list order (the order of ``[(s, d) for s in ranks for d in nbrs[s]]``).
    """
    counts = np.fromiter(map(len, nbrs), dtype=np.int64, count=len(nbrs))
    pairs = np.empty((int(counts.sum()), 2), dtype=np.int64)
    pairs[:, 0] = np.repeat(np.arange(len(nbrs), dtype=np.int64), counts)
    pairs[:, 1] = np.fromiter(chain.from_iterable(nbrs), dtype=np.int64,
                              count=len(pairs))
    return pairs


def ring_neighbors(n_ranks: int, hops: int = 1) -> list[list[int]]:
    """Bidirectional ring with ``hops`` neighbors on each side."""
    return [[(r + d) % n_ranks for d in range(-hops, hops + 1) if d != 0]
            for r in range(n_ranks)]


def random_neighbors(n_ranks: int, k: int,
                     rng: np.random.Generator) -> list[list[int]]:
    """Uniform random ``k``-neighbor sets (symmetrized, so degrees are
    approximately ``k`` and communication is two-way like real halo
    exchanges)."""
    return _symmetrized(n_ranks, [min(k, n_ranks - 1)] * n_ranks, rng)


def skewed_neighbors(n_ranks: int, k_min: int, k_max: int,
                     rng: np.random.Generator,
                     hot_fraction: float = 0.1) -> list[list[int]]:
    """Irregular neighbor sets: a few 'hot' ranks talk to many peers.

    Models the irregular rank-usage distribution the paper observes for
    CESAR Nekbone and AMR Boxlib (Section VI-A), which unbalances
    statically partitioned queues.
    """
    hot = max(1, int(hot_fraction * n_ranks))
    return _symmetrized(n_ranks, [min(k_max if r < hot else k_min,
                                      n_ranks - 1) for r in range(n_ranks)],
                        rng)


def _symmetrized(n_ranks: int, degrees: Sequence[int],
                 rng: np.random.Generator) -> list[list[int]]:
    """Rank ``r`` (in rank order) draws ``degrees[r]`` distinct peers
    other than itself; every draw becomes a two-way edge.  Returns each
    rank's peers, sorted."""
    ranks = np.arange(n_ranks)
    # rng.choice draws positions into "every rank but r"; position p is
    # rank p + (p >= r), mapped for all ranks at once
    dst = np.concatenate([rng.choice(n_ranks - 1, size=k, replace=False)
                          for k in degrees])
    src = np.repeat(ranks, degrees)
    dst += dst >= src
    edges = np.unique(np.concatenate((src * n_ranks + dst,
                                      dst * n_ranks + src)))
    peers = np.split(edges % n_ranks,
                     np.searchsorted(edges, ranks[1:] * n_ranks))
    return [row.tolist() for row in peers]
