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

__all__ = ["AppModel", "TraceBuilder", "gather_flood", "grid_dims",
           "grid_neighbors", "pair_array", "ring_neighbors",
           "random_neighbors", "skewed_neighbors"]


class TraceBuilder:
    """Records one model run compactly, then materialises trace rows.

    Every event takes one clock tick (a barrier takes one tick for all
    ranks).  The synthetic clock has no physical meaning; only the
    *order* of events matters to the analyses (it decides queue
    interleavings).

    Rows arrive in whole blocks -- :meth:`exchange` (one phase),
    :meth:`block` (n arbitrary rows at consecutive ticks) and
    :meth:`barrier` -- and each call is kept as one record, not as rows:
    an exchange keeps its pair array and the draws that order its rows,
    a block or a barrier its columns.  :meth:`build` turns the records
    into rows -- every row, or only one rank's -- so one model run
    serves both the whole-trace analyses and a rank projection.

    ``len()`` counts the full trace's rows so far.  :attr:`load` sums
    each rank's matching load -- messages arriving plus receives posted
    -- as the calls arrive, and :meth:`phase` marks named phases that
    :meth:`build` maps onto the rows it keeps.
    """

    def __init__(self) -> None:
        #: per builder call, its materialiser and that call's arguments
        self._records: list[tuple[Callable[..., dict], tuple]] = []
        #: per phase mark, its name and the index of its first record
        self._marks: list[tuple[str, int]] = []
        self._n = 0
        self._t = 0.0
        #: per-rank matching load: messages arriving plus receives posted
        self.load = np.zeros(0, dtype=np.int64)

    def __len__(self) -> int:
        """Rows of the full trace recorded so far."""
        return self._n

    def _record(self, rows: Callable[..., dict], n_rows: int,
                *args) -> None:
        """Keep one call: :meth:`build` runs ``rows(rank, to_rank,
        *args)`` for the call's columns."""
        self._records.append((rows, args))
        self._n += n_rows

    def _tally(self, counts: np.ndarray) -> None:
        """Add per-rank ``counts`` to :attr:`load`."""
        if counts.size > self.load.size:
            self.load = np.pad(self.load, (0, counts.size - self.load.size))
        self.load[:counts.size] += counts

    def phase(self, name: str) -> None:
        """Open the named phase at the next row, closing the open one.

        :meth:`build` closes the last phase at the trace's end and
        records every phase as a ``(first row, end row)`` range of the
        rows it keeps, in ``meta["phases"]``.
        """
        self._marks.append((name, len(self._records)))

    def block(self, kind, rank, peer, tag, comm=0, nbytes=0) -> None:
        """Record ``n`` rows at the next ``n`` consecutive ticks.

        Each argument is a column value per row (see :data:`COLUMNS`):
        a scalar or an array, broadcast together to the block's length.
        """
        cols = np.broadcast_arrays(*(np.asarray(v) for v in
                                     (kind, rank, peer, tag, comm, nbytes)))
        names = [name for name in COLUMNS if name != "time"]
        columns = {name: col.astype(COLUMNS[name])
                   for name, col in zip(names, cols)}
        kind = columns["kind"]
        owned = np.where(kind == KIND_SEND, columns["peer"], columns["rank"])
        self._tally(np.bincount(owned[kind != KIND_BARRIER]))
        self._record(_block_rows, kind.size, columns, self._t)
        self._t += kind.size

    def barrier(self, n_ranks: int) -> None:
        """Record a superstep boundary on every rank."""
        self._t += 1.0
        self._record(_barrier_rows, n_ranks, n_ranks, self._t)

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
        Both are called once per phase, when the phase is recorded, with
        three equal-length int64 arrays -- every message's source,
        destination and per-pair index ``k`` -- and may return a scalar
        (one value for all messages) or an array of that length;
        anything that does not broadcast to it raises ``ValueError``.

        ``prepost_fraction`` of the receives are posted *before* any send
        of the phase (they land in the PRQ and wait); the rest are posted
        after all sends (those messages sit in the UMQ as unexpected).
        ``wildcard_src_fraction`` of the receives use MPI_ANY_SOURCE.
        Both fractions must lie in ``[0, 1]``.  The receive order and the
        pair order are each one seeded shuffle.

        The record keeps ``pairs`` itself (an int64 ``(m, 2)`` array is
        not copied, so it must not change afterwards), the wildcard
        message indices and both shuffles in the smallest integer dtype
        that holds them, and the tag and communicator values; no row
        exists until :meth:`build`.
        """
        for what, fraction in (("prepost_fraction", prepost_fraction),
                               ("wildcard_src_fraction",
                                wildcard_src_fraction)):
            if not 0.0 <= fraction <= 1.0:
                raise ValueError(f"{what} must be in [0, 1], got {fraction}")
        rng = rng if rng is not None else np.random.default_rng(0)
        pair_arr = np.asarray(pairs, dtype=np.int64)
        if pair_arr.shape[1:] != (2,):
            pair_arr = pair_arr.reshape(-1, 2)
        m = msgs_per_pair
        n = len(pair_arr) * m
        # every message, pair-major: (src, dst, k)
        src, dst = (np.repeat(pair_arr, m, axis=0) if m > 1 else pair_arr).T
        k = (np.arange(n, dtype=np.int64) % m if m > 1 else
             np.zeros(n, dtype=np.int64))
        # receives: wildcard draws in message order, then one shuffle (of
        # int64, NumPy's fast case; the draws do not depend on the dtype)
        index = np.min_scalar_type(max(n - 1, 0))
        wild = np.flatnonzero(rng.random(n) < wildcard_src_fraction)
        recv = np.arange(n)
        rng.shuffle(recv)
        n_pre = int(round(prepost_fraction * n))
        # sends: pairs in shuffled order, each pair's k messages in order
        order = np.arange(len(pair_arr))
        rng.shuffle(order)
        tag = _per_message(tag_of(src, dst, k), n, "tag_of")
        comm = (_per_message(comm_of(src, dst, k), n, "comm_of")
                if comm_of is not None else np.broadcast_to(np.int64(0), (n,)))
        # each message is one arrival at dst and one post by dst
        self._tally(2 * m * np.bincount(pair_arr[:, 1]))
        self._record(_exchange_rows, 2 * n, pair_arr, m, n_pre,
                     wild.astype(index), recv.astype(index),
                     order.astype(np.min_scalar_type(max(len(order) - 1, 0))),
                     tag, comm, nbytes, self._t)
        self._t += 2 * n

    def build(self, app: str, n_ranks: int, meta: dict | None = None, *,
              rank: int | None = None) -> Trace:
        """Materialise the recorded calls into a :class:`Trace`.

        ``rank=None`` keeps every row: the trace the whole-run analyses
        read (Table I, Figs 2 and 6(a)).  A rank keeps only the rows it
        owns -- sends addressed to it and the rows it issued (its posts
        and barrier markers) -- at their original ticks and in trace
        order; an exchange then materialises only that rank's messages,
        found through one mask per distinct pair array.  Phase marks become
        ``meta["phases"]`` ranges of the kept rows.

        The full trace is written into columns allocated once, so the
        peak of live allocations is about one trace plus the records
        (~1.7 MB for df_amg at 16 steps, whose trace is 34 MB), and the
        resident set follows it.  The records stay, so one run can be
        built again, for another rank or in full.
        """
        masks: dict[tuple[int, int], np.ndarray] = {}

        def to_rank(pairs: np.ndarray, m: int) -> np.ndarray:
            """Per message of ``pairs`` (``m`` per pair): addressed to
            ``rank``?  Computed once per distinct pair array."""
            key = (id(pairs), m)
            if key not in masks:
                masks[key] = np.repeat(pairs[:, 1] == rank, m)
            return masks[key]

        out = (None if rank is not None else
               {name: np.empty(self._n, dtype=dtype)
                for name, dtype in COLUMNS.items()})
        parts, starts, kept = [], [], 0
        for rows, args in self._records:
            part = rows(rank, to_rank, *args)
            size = part["time"].size
            starts.append(kept)
            if out is None:
                parts.append(part)
            else:
                for name, col in part.items():
                    out[name][kept:kept + size] = col
            kept += size
        starts.append(kept)
        if out is None:
            out = {name: np.concatenate([part[name] for part in parts]
                                        + [np.empty(0, dtype=dtype)])
                   for name, dtype in COLUMNS.items()}
        meta = dict(meta or {})
        if self._marks:
            bounds = [starts[at] for _, at in self._marks] + [kept]
            meta["phases"] = {name: (lo, hi) for (name, _), lo, hi
                              in zip(self._marks, bounds, bounds[1:])}
        return Trace(app=app, n_ranks=n_ranks, meta=meta, columns=out)


def _exchange_rows(rank, to_rank, pairs, m, n_pre, wild, recv, order, tag,
                   comm, nbytes, t0) -> dict:
    """One exchange's rows (all, or those ``rank`` owns), from its record.

    The phase's ``2n`` rows are the pre-posted receives, then the sends,
    then the late posts, at ticks ``t0 + 1 ..``: the receive at position
    ``p`` of ``recv`` is row ``p`` (pre-posted) or ``n + p``, and the
    pair at position ``q`` of ``order`` sends rows ``n_pre + q*m ..``.
    """
    n = len(pairs) * m
    k = np.arange(m)
    if rank is None:
        posts, senders, early = recv, order, n_pre
    else:
        # both rows of each message addressed to rank: its send and post
        mine = to_rank(pairs, m)
        at, q = np.flatnonzero(mine[recv]), np.flatnonzero(mine[::m][order])
        posts, senders = recv[at], order[q]
        early = int(np.searchsorted(at, n_pre))
    send = (senders.astype(np.int64)[:, None] * m + k).ravel()
    msg = np.concatenate((posts[:early], send, posts[early:]),
                         dtype=np.int64)
    tick = (np.arange(1, 2 * n + 1) if rank is None else
            1 + np.concatenate((at[:early], n_pre + (q[:, None] * m
                                                      + k).ravel(),
                                n + at[early:])))
    sends = slice(early, early + send.size)
    pair = msg // m if m > 1 else msg
    src, dst = pairs[:, 0][pair], pairs[:, 1][pair]
    kind = np.full(msg.size, KIND_POST, dtype=np.int8)
    kind[sends] = KIND_SEND
    ranks = dst.copy()
    ranks[sends] = src[sends]
    peer = src
    if wild.size:
        is_wild = np.zeros(n, dtype=bool)
        is_wild[wild] = True
        peer[is_wild[msg]] = -1
    peer[sends] = dst[sends]
    out_bytes = np.zeros(msg.size, dtype=np.int64)
    out_bytes[sends] = nbytes
    return {"kind": kind, "rank": ranks, "peer": peer,
            "tag": tag[msg], "comm": comm[msg],
            "nbytes": out_bytes, "time": t0 + tick.astype(np.float64)}


def _block_rows(rank, to_rank, columns, t0) -> dict:
    """One block's rows (all, or those ``rank`` owns) at ticks
    ``t0 + 1 ..``."""
    n = columns["kind"].size
    if rank is None:
        keep = np.arange(n)
    else:
        owned = np.where(columns["kind"] == KIND_SEND, columns["peer"],
                         columns["rank"])
        keep = np.flatnonzero(owned == rank)
    return {**{name: col[keep] for name, col in columns.items()},
            "time": t0 + (keep + 1).astype(np.float64)}


def _barrier_rows(rank, to_rank, n_ranks, t) -> dict:
    """One barrier's markers at tick ``t``: every rank's, or ``rank``'s."""
    ranks = np.arange(n_ranks, dtype=np.int64)
    if rank is not None:
        ranks = ranks[ranks == rank]
    zeros = np.zeros(ranks.size, dtype=np.int64)
    return {"kind": np.full(ranks.size, KIND_BARRIER, dtype=np.int8),
            "rank": ranks, "peer": zeros, "tag": zeros, "comm": zeros,
            "nbytes": zeros, "time": np.full(ranks.size, t)}


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
        rows of the full trace, as :meth:`TraceBuilder.build` keeps
        them.  Either way the model runs once; the projection reads the
        run's :attr:`~TraceBuilder.load` and materialises only that
        rank's rows.
        """
        n_ranks = self.default_ranks if n_ranks is None else n_ranks
        steps = self.default_steps if steps is None else steps
        if n_ranks < 2:
            raise ValueError("need at least 2 ranks to communicate")
        if steps < 1:
            raise ValueError("steps must be positive")
        meta = {"steps": steps, "seed": seed, "suite": self.suite}
        b = self.record(n_ranks, steps, seed)
        rank = None
        if busiest_only:
            rank = meta["rank"] = int(np.argmax(b.load))
        return b.build(self.name, n_ranks, meta=meta, rank=rank)

    def record(self, n_ranks: int, steps: int, seed: int) -> TraceBuilder:
        """One seeded :meth:`build` into a fresh builder, returned."""
        b = TraceBuilder()
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
