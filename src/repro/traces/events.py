"""The trace container: per-event NumPy columns, plus an event-object view.

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

The paper's statistics are aggregates over these columns, and the trace
models and the serve loadgen read and write them directly.  The frozen
event dataclasses below are the adapter for everything that wants one
object per event -- the dumpi-style IO path and the analyzers:
``trace.events`` is a read-only sequence (``len()`` from the columns)
whose objects are built from the columns the first time one is asked
for, and ``Trace(events=...)`` converts them to columns in one pass.  A
real dumpi parser could emit the same events and everything downstream
would work unchanged.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping

import numpy as np

__all__ = ["SendEvent", "RecvPostEvent", "BarrierEvent", "Trace",
           "COLUMNS", "KIND_SEND", "KIND_POST", "KIND_BARRIER",
           "columns_from_events"]

KIND_SEND = 0
KIND_POST = 1
KIND_BARRIER = 2

#: Column name -> dtype, in storage order.
COLUMNS: dict[str, type] = {
    "kind": np.int8, "rank": np.int64, "peer": np.int64, "tag": np.int64,
    "comm": np.int64, "nbytes": np.int64, "time": np.float64,
}

_KINDS = (KIND_SEND, KIND_POST, KIND_BARRIER)

#: rows per column-to-list conversion when building event objects
#: (bounds the transient Python lists)
_CHUNK = 4096


@dataclass(frozen=True)
class SendEvent:
    """A send operation as recorded at the source rank."""

    time: float
    rank: int
    dst: int
    tag: int
    comm: int = 0
    nbytes: int = 8

    kind = "send"


@dataclass(frozen=True)
class RecvPostEvent:
    """A receive request being posted (src/tag may be -1 wildcards)."""

    time: float
    rank: int
    src: int
    tag: int
    comm: int = 0

    kind = "post_recv"


@dataclass(frozen=True)
class BarrierEvent:
    """A synchronization point across all ranks (superstep boundary)."""

    time: float
    rank: int

    kind = "barrier"


def columns_from_events(events: Iterable) -> dict[str, np.ndarray]:
    """Convert event objects to trace columns in one pass."""
    rows: list[tuple] = []
    times: list[float] = []
    for ev in events:
        kind = ev.kind
        if kind == "send":
            rows.append((KIND_SEND, ev.rank, ev.dst, ev.tag, ev.comm,
                         ev.nbytes))
        elif kind == "post_recv":
            rows.append((KIND_POST, ev.rank, ev.src, ev.tag, ev.comm, 0))
        elif kind == "barrier":
            rows.append((KIND_BARRIER, ev.rank, 0, 0, 0, 0))
        else:
            raise ValueError(f"unknown event kind {kind!r}")
        times.append(ev.time)
    # every column but the last (time) is an integer column
    ints = np.array(rows, dtype=np.int64).reshape(len(rows), len(COLUMNS) - 1)
    cols = {name: ints[:, i].astype(dtype)
            for i, (name, dtype) in enumerate(COLUMNS.items())
            if name != "time"}
    cols["time"] = np.array(times, dtype=np.float64)
    return cols


def _event_objects(cols: Mapping[str, np.ndarray]) -> list:
    """One event object (holding Python scalars) per row, row order."""
    out = []
    append = out.append
    for lo in range(0, cols["kind"].size, _CHUNK):
        rows = zip(*(cols[name][lo:lo + _CHUNK].tolist() for name in COLUMNS))
        for k, r, p, g, c, b, t in rows:
            if k == KIND_SEND:
                append(SendEvent(t, r, p, g, c, b))
            elif k == KIND_POST:
                append(RecvPostEvent(t, r, p, g, c))
            else:
                append(BarrierEvent(t, r))
    return out


class _EventView(Sequence):
    """Read-only sequence of a trace's events.

    ``len()`` reads the columns; the first index, slice or iteration
    builds the trace's event objects, which the trace then keeps for the
    object-walking analyses (each walks the events or a filter of them
    several times per trace).
    """

    def __init__(self, trace: "Trace") -> None:
        self._trace = trace

    def __len__(self) -> int:
        return len(self._trace)

    def __getitem__(self, index):
        return self._trace._objects()[index]

    def __iter__(self) -> Iterator:
        return iter(self._trace._objects())


class Trace:
    """A time-ordered event stream for one application run, as columns.

    Parameters
    ----------
    app:
        Application name (e.g. ``"exmatex_lulesh"``).
    n_ranks:
        Ranks in the run.
    events:
        Event objects in global time order (converted to columns;
        omitted or empty for an empty trace).
    meta:
        Generator parameters (steps, seed, geometry, ...), recorded for
        reproducibility.
    columns:
        Alternatively to ``events``, the :data:`COLUMNS` arrays
        themselves (adopted without a copy where the dtype matches).

    Either way the columns are validated on construction: kind values,
    time order, rank range, and send-destination range.
    """

    def __init__(self, app: str, n_ranks: int, events: Iterable | None = None,
                 meta: dict | None = None, *,
                 columns: Mapping[str, np.ndarray] | None = None) -> None:
        if n_ranks < 1:
            raise ValueError("n_ranks must be positive")
        self.app = app
        self.n_ranks = n_ranks
        self.meta = dict(meta or {})
        if columns is None:
            columns = columns_from_events(events or ())
        elif events is not None:
            raise ValueError("pass events or columns, not both")
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
        self._event_list: list | None = None

    def _validate(self, raw_kind: np.ndarray) -> None:
        """Raise on the first (lowest-row) violation, checks in the order
        kind (``raw_kind``: the kind column before its int8 cast), time,
        rank, send dst."""
        kind, rank, peer, time = (self.columns[name] for name in
                                  ("kind", "rank", "peer", "time"))
        n = self.n_ranks
        checks = (
            (np.flatnonzero(np.logical_and.reduce(
                [raw_kind != k for k in _KINDS])),
             lambda i: f"unknown event kind {raw_kind[i]}"),
            (np.flatnonzero(time[1:] < time[:-1]) + 1,
             lambda i: f"events out of time order at t={time[i]} "
                       f"(< {time[i - 1]})"),
            (np.flatnonzero((rank < 0) | (rank >= n)),
             lambda i: f"event rank {rank[i]} out of range"),
            (np.flatnonzero((kind == KIND_SEND) & ((peer < 0) | (peer >= n))),
             lambda i: f"send dst {peer[i]} out of range"),
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
    def events(self) -> _EventView:
        """The events as objects (a read-only, O(1)-``len`` view)."""
        return _EventView(self)

    def __iter__(self) -> Iterator:
        return iter(self.events)

    def __repr__(self) -> str:
        return (f"Trace(app={self.app!r}, ranks={self.n_ranks}, "
                f"events={len(self)})")

    # -- filters ----------------------------------------------------------------------

    def _objects(self) -> list:
        if self._event_list is None:
            self._event_list = _event_objects(self.columns)
        return self._event_list

    def _where(self, mask: np.ndarray) -> list:
        objects = self._objects()
        return [objects[i] for i in np.flatnonzero(mask).tolist()]

    def sends(self) -> list[SendEvent]:
        """All send events, time order."""
        return self._where(self.columns["kind"] == KIND_SEND)

    def recv_posts(self) -> list[RecvPostEvent]:
        """All receive-post events, time order."""
        return self._where(self.columns["kind"] == KIND_POST)

    def barriers(self) -> list[BarrierEvent]:
        """All barrier markers."""
        return self._where(self.columns["kind"] == KIND_BARRIER)

    def for_rank(self, rank: int) -> list:
        """Events local to one rank (sends it issued, recvs it posted)."""
        return self._where(self.columns["rank"] == rank)

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
