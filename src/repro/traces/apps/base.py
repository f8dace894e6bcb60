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

from typing import Callable, Sequence

import numpy as np

from ..events import COLUMNS, KIND_BARRIER, KIND_POST, KIND_SEND, Trace

__all__ = ["AppModel", "TraceBuilder", "grid_dims", "grid_neighbors",
           "ring_neighbors", "random_neighbors", "skewed_neighbors"]

_INT_COLUMNS = tuple(name for name in COLUMNS if name != "time")


class TraceBuilder:
    """Accumulates trace columns with a monotonically increasing clock.

    Every event takes one clock tick (a barrier takes one tick for all
    ranks).  The synthetic clock has no physical meaning; only the
    *order* of events matters to the analyses (it decides queue
    interleavings).

    Column blocks accumulate in order: :meth:`exchange` and
    :meth:`barrier` append whole blocks, while the per-event
    :meth:`send`/:meth:`post` calls append to a pending row buffer that
    is flushed into one block before the next block (or :meth:`build`).
    """

    def __init__(self) -> None:
        #: finished blocks: (int64 ``_INT_COLUMNS`` x rows, float64 times)
        self._blocks: list[tuple[np.ndarray, np.ndarray]] = []
        #: pending per-event rows, ``_INT_COLUMNS`` order
        self._rows: list[tuple[int, ...]] = []
        self._n_blocked = 0
        self._t = 0.0

    def __len__(self) -> int:
        """Rows recorded so far."""
        return self._n_blocked + len(self._rows)

    def _append(self, ints: np.ndarray, times: np.ndarray) -> None:
        self._blocks.append((ints, times))
        self._n_blocked += len(times)

    def _flush(self) -> None:
        """Move the pending rows into one block (their times are the
        consecutive ticks before the current clock)."""
        if self._rows:
            n = len(self._rows)
            ints = np.array(self._rows, dtype=np.int64).T
            self._rows = []
            self._append(ints, self._t - n + np.arange(1, n + 1,
                                                       dtype=np.float64))

    def send(self, rank: int, dst: int, tag: int, comm: int = 0,
             nbytes: int = 8) -> None:
        """Record a send."""
        self._t += 1.0
        self._rows.append((KIND_SEND, rank, dst, tag, comm, nbytes))

    def post(self, rank: int, src: int, tag: int, comm: int = 0) -> None:
        """Record a receive post (src/tag may be -1)."""
        self._t += 1.0
        self._rows.append((KIND_POST, rank, src, tag, comm, 0))

    def barrier(self, n_ranks: int) -> None:
        """Record a superstep boundary on every rank."""
        self._flush()
        self._t += 1.0
        ints = np.zeros((len(_INT_COLUMNS), n_ranks), dtype=np.int64)
        ints[0] = KIND_BARRIER
        ints[1] = np.arange(n_ranks)
        self._append(ints, np.full(n_ranks, self._t))

    def exchange(self, pairs: Sequence[tuple[int, int]],
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

        ``tag_of(src, dst, k)`` names the tag of the k-th message on a
        pair; ``comm_of`` likewise for the communicator (default 0).
        Both are called once per phase with three equal-length int64
        arrays -- every message's source, destination and per-pair index
        ``k`` -- and may return a scalar (one value for all messages) or
        an array of that length; anything that does not broadcast to it
        raises ``ValueError``.

        ``prepost_fraction`` of the receives are posted *before* any send
        of the phase (they land in the PRQ and wait); the rest are posted
        after all sends (those messages sit in the UMQ as unexpected).
        ``wildcard_src_fraction`` of the receives use MPI_ANY_SOURCE.
        The receive order and the pair order are each one seeded shuffle.
        """
        rng = rng if rng is not None else np.random.default_rng(0)
        self._flush()
        pair_arr = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
        m = msgs_per_pair
        n = len(pair_arr) * m
        # one row per message, pair-major: (src, dst, k)
        src = np.repeat(pair_arr[:, 0], m)
        dst = np.repeat(pair_arr[:, 1], m)
        k = np.tile(np.arange(m, dtype=np.int64), len(pair_arr))
        tag = _per_message(tag_of(src, dst, k), n, "tag_of")
        comm = (_per_message(comm_of(src, dst, k), n, "comm_of")
                if comm_of is not None else np.zeros(n, dtype=np.int64))
        # receives: wildcard draws in message order, then one shuffle
        wild = rng.random(n) < wildcard_src_fraction
        recv = np.arange(n)
        rng.shuffle(recv)
        n_pre = int(round(prepost_fraction * n))
        # sends: pairs in shuffled order, each pair's k messages in order
        order = np.arange(len(pair_arr))
        rng.shuffle(order)
        send = (order[:, None] * m + np.arange(m)).ravel()

        posts = np.stack([np.full(n, KIND_POST), dst,
                          np.where(wild, -1, src), tag, comm,
                          np.zeros(n, dtype=np.int64)])[:, recv]
        sends = np.stack([np.full(n, KIND_SEND), src, dst, tag, comm,
                          np.full(n, nbytes)])[:, send]
        self._append(
            np.concatenate([posts[:, :n_pre], sends, posts[:, n_pre:]], axis=1),
            self._t + np.arange(1, 2 * n + 1, dtype=np.float64))
        self._t += 2 * n

    def build(self, app: str, n_ranks: int, meta: dict | None = None) -> Trace:
        """Finalize into a :class:`Trace`."""
        self._flush()
        if not self._blocks:
            self._append(np.empty((len(_INT_COLUMNS), 0), dtype=np.int64),
                         np.empty(0))
        ints = np.concatenate([b[0] for b in self._blocks], axis=1)
        times = np.concatenate([b[1] for b in self._blocks])
        self._blocks = [(ints, times)]   # frees the small blocks
        columns = {name: ints[i] for i, name in enumerate(_INT_COLUMNS)}
        columns["time"] = times
        return Trace(app=app, n_ranks=n_ranks, meta=meta, columns=columns)


def _per_message(values, n: int, what: str) -> np.ndarray:
    """``values`` (scalar or array) as an int64 column of length ``n``."""
    try:
        return np.broadcast_to(np.asarray(values, dtype=np.int64), (n,))
    except ValueError:
        raise ValueError(f"{what} returned shape {np.shape(values)}; "
                         f"expected a scalar or length {n}") from None


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
                 seed: int = 0) -> Trace:
        """Generate a trace at the given scale (defaults per app)."""
        n_ranks = self.default_ranks if n_ranks is None else n_ranks
        steps = self.default_steps if steps is None else steps
        if n_ranks < 2:
            raise ValueError("need at least 2 ranks to communicate")
        if steps < 1:
            raise ValueError("steps must be positive")
        rng = np.random.default_rng(seed + 0x5EED)
        builder = TraceBuilder()
        self.build(builder, n_ranks, steps, rng)
        return builder.build(self.name, n_ranks,
                             meta={"steps": steps, "seed": seed,
                                   "suite": self.suite})

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
    coords = [np.unravel_index(r, dims) for r in range(n_ranks)]
    index = {c: r for r, c in enumerate(coords)}
    offsets: list[tuple[int, ...]] = []
    if corners:
        grids = np.meshgrid(*[[-1, 0, 1]] * ndim, indexing="ij")
        for off in zip(*[g.ravel() for g in grids]):
            if any(off):
                offsets.append(off)
    else:
        for d in range(ndim):
            for s in (-1, 1):
                off = [0] * ndim
                off[d] = s
                offsets.append(tuple(off))
    out: list[list[int]] = []
    for r in range(n_ranks):
        mine = []
        for off in offsets:
            c = tuple(int(x) + int(o) for x, o in zip(coords[r], off))
            if all(0 <= ci < di for ci, di in zip(c, dims)):
                mine.append(index[c])
        out.append(mine)
    return out


def ring_neighbors(n_ranks: int, hops: int = 1) -> list[list[int]]:
    """Bidirectional ring with ``hops`` neighbors on each side."""
    return [[(r + d) % n_ranks for d in range(-hops, hops + 1) if d != 0]
            for r in range(n_ranks)]


def random_neighbors(n_ranks: int, k: int,
                     rng: np.random.Generator) -> list[list[int]]:
    """Uniform random ``k``-neighbor sets (symmetrized, so degrees are
    approximately ``k`` and communication is two-way like real halo
    exchanges)."""
    k = min(k, n_ranks - 1)
    nbrs = [set() for _ in range(n_ranks)]
    for r in range(n_ranks):
        choices = rng.choice([x for x in range(n_ranks) if x != r],
                             size=k, replace=False)
        for c in choices:
            nbrs[r].add(int(c))
            nbrs[int(c)].add(r)
    return [sorted(s) for s in nbrs]


def skewed_neighbors(n_ranks: int, k_min: int, k_max: int,
                     rng: np.random.Generator,
                     hot_fraction: float = 0.1) -> list[list[int]]:
    """Irregular neighbor sets: a few 'hot' ranks talk to many peers.

    Models the irregular rank-usage distribution the paper observes for
    CESAR Nekbone and AMR Boxlib (Section VI-A), which unbalances
    statically partitioned queues.
    """
    hot = max(1, int(hot_fraction * n_ranks))
    nbrs = [set() for _ in range(n_ranks)]
    for r in range(n_ranks):
        k = k_max if r < hot else k_min
        k = min(k, n_ranks - 1)
        choices = rng.choice([x for x in range(n_ranks) if x != r],
                             size=k, replace=False)
        for c in choices:
            nbrs[r].add(int(c))
            nbrs[int(c)].add(r)
    return [sorted(s) for s in nbrs]
