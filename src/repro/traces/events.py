"""The trace container: one row per event, stored as NumPy columns.

The paper analyzes DOE exascale proxy applications from **dumpi** trace
files (Section II-C).  Those multi-gigabyte traces are not shipped with
the mini-apps, so this package generates *synthetic* traces whose
matching-relevant statistics land on the values the paper reports
(Table I, Figure 2, Figure 6(a)) -- see DESIGN.md section 2 for the
substitution argument.

A :class:`Trace` is a set of equal-length columns in global time order,
one row per event (:data:`COLUMNS` fixes names and dtypes):

* ``kind`` -- :data:`KIND_SEND` (rank issued MPI_(I)Send),
  :data:`KIND_POST` (rank posted MPI_(I)Recv; src/tag may be wildcards)
  or :data:`KIND_BARRIER` (collective synchronization marker: ends a BSP
  superstep, tags may be reused afterwards);
* ``rank`` -- the rank that issued the operation;
* ``peer`` -- the destination of a send, the (possibly ``-1`` wildcard)
  source of a receive post, 0 for a barrier;
* ``tag``, ``comm`` -- the envelope (0 for a barrier);
* ``nbytes`` -- payload size of a send (0 otherwise);
* ``time`` -- the synthetic clock (only the order matters).

The columns are the only representation: the trace models write them,
and the analyses, the serve loadgen and the JSONL reader and writer read
them.  The one reader that walks events one at a time, the JSONL
writer, iterates ``trace.events``, which yields each row as a plain
tuple of Python scalars in :data:`COLUMNS` order.  A real dumpi
parser would fill the same columns.
"""

from __future__ import annotations

from typing import Iterator, Mapping

import numpy as np

__all__ = ["Trace", "COLUMNS", "KIND_SEND", "KIND_POST", "KIND_BARRIER"]

KIND_SEND = 0
KIND_POST = 1
KIND_BARRIER = 2

#: Column name -> dtype, in storage order.
COLUMNS: dict[str, type] = {
    "kind": np.int8, "rank": np.int64, "peer": np.int64, "tag": np.int64,
    "comm": np.int64, "nbytes": np.int64, "time": np.float64,
}

_KINDS = (KIND_SEND, KIND_POST, KIND_BARRIER)

#: rows per column-to-list conversion when iterating rows (bounds the
#: transient Python lists)
_CHUNK = 4096


class _Rows:
    """A trace's rows as tuples of Python scalars, in :data:`COLUMNS`
    order: ``len()`` reads the columns, iteration converts them a chunk
    at a time and keeps nothing."""

    def __init__(self, columns: Mapping[str, np.ndarray]) -> None:
        self._columns = columns

    def __len__(self) -> int:
        return int(self._columns["kind"].size)

    def __iter__(self) -> Iterator[tuple]:
        cols = [self._columns[name] for name in COLUMNS]
        for lo in range(0, len(self), _CHUNK):
            yield from zip(*(col[lo:lo + _CHUNK].tolist() for col in cols))


class Trace:
    """A time-ordered event stream for one application run, as columns.

    Parameters
    ----------
    app:
        Application name (e.g. ``"exmatex_lulesh"``).
    n_ranks:
        Ranks in the run.
    columns:
        The :data:`COLUMNS` arrays (or sequences), one row per event in
        global time order; adopted without a copy where the dtype
        matches.
    meta:
        Generator parameters (steps, seed, geometry, ...), recorded for
        reproducibility.

    The columns are validated on construction: kind values, finite
    times in order, rank range, send-destination range, and post-source
    range (a rank or ``-1``, the ``ANY_SOURCE`` wildcard).
    """

    def __init__(self, app: str, n_ranks: int,
                 columns: Mapping[str, np.ndarray],
                 meta: dict | None = None) -> None:
        if n_ranks < 1:
            raise ValueError("n_ranks must be positive")
        self.app = app
        self.n_ranks = n_ranks
        self.meta = dict(meta or {})
        if set(columns) != set(COLUMNS):
            raise ValueError(f"trace columns must be {list(COLUMNS)}")
        # kinds are checked as given: the int8 cast below would wrap them
        raw_kind = np.asarray(columns["kind"])
        columns = {**columns, "kind": raw_kind}
        cols: dict[str, np.ndarray] = {}
        for name, dtype in COLUMNS.items():
            col = np.asarray(columns[name], dtype=dtype).view()
            col.flags.writeable = False
            cols[name] = col
        if len({col.shape for col in cols.values()}) != 1 \
                or cols["kind"].ndim != 1:
            raise ValueError("trace columns must be 1-D and equal length")
        self.columns = cols
        self._validate(raw_kind)

    def _validate(self, raw_kind: np.ndarray) -> None:
        """Raise on the first (lowest-row) violation, checks in the order
        kind (``raw_kind``: the kind column before its int8 cast), finite
        time, time order, rank, send dst, post src."""
        kind, rank, peer, time = (self.columns[name] for name in
                                  ("kind", "rank", "peer", "time"))
        n = self.n_ranks
        checks = (
            (np.flatnonzero(np.logical_and.reduce(
                [raw_kind != k for k in _KINDS])),
             lambda i: f"unknown event kind {raw_kind[i]}"),
            (np.flatnonzero(~np.isfinite(time)),
             lambda i: f"event time {time[i]} at row {i} is not finite"),
            (np.flatnonzero(time[1:] < time[:-1]) + 1,
             lambda i: f"events out of time order at t={time[i]} "
                       f"(< {time[i - 1]})"),
            (np.flatnonzero((rank < 0) | (rank >= n)),
             lambda i: f"event rank {rank[i]} out of range"),
            (np.flatnonzero((kind == KIND_SEND) & ((peer < 0) | (peer >= n))),
             lambda i: f"send dst {peer[i]} out of range"),
            # -1, the ANY_SOURCE wildcard, is a post's only negative src
            (np.flatnonzero((kind == KIND_POST) & ((peer < -1) | (peer >= n))),
             lambda i: f"post src {peer[i]} out of range"),
        )
        bad = [(int(rows[0]), order, message)
               for order, (rows, message) in enumerate(checks) if rows.size]
        if bad:
            i, _, message = min(bad, key=lambda b: b[:2])
            raise ValueError(message(i))

    # -- container protocol --------------------------------------------------------

    def __len__(self) -> int:
        return int(self.columns["kind"].size)

    @property
    def events(self) -> _Rows:
        """The rows as tuples of Python scalars (``len()`` is O(1))."""
        return _Rows(self.columns)

    def __repr__(self) -> str:
        return (f"Trace(app={self.app!r}, ranks={self.n_ranks}, "
                f"events={len(self)})")

    def validate_balance(self) -> dict:
        """Sanity counters: sends vs receive posts per (src, dst) channel.

        Synthetic generators should produce balanced traces (every send
        eventually receivable); the replay tolerates imbalance but the
        generator tests check this.
        """
        kind = self.columns["kind"]
        sends = int(np.count_nonzero(kind == KIND_SEND))
        posts = int(np.count_nonzero(kind == KIND_POST))
        return {"sends": sends, "recv_posts": posts,
                "balanced": sends == posts}
