"""Row tuples for small hand-built traces.

A row is what ``Trace.events`` yields: ``(kind, rank, peer, tag, comm,
nbytes, time)`` in :data:`~repro.traces.events.COLUMNS` order.
"""

from __future__ import annotations

from repro.traces.events import (COLUMNS, KIND_BARRIER, KIND_POST, KIND_SEND,
                                 Trace)


def send(t, rank, dst, tag, comm=0, nbytes=8) -> tuple:
    return (KIND_SEND, rank, dst, tag, comm, nbytes, float(t))


def post(t, rank, src, tag, comm=0) -> tuple:
    return (KIND_POST, rank, src, tag, comm, 0, float(t))


def barrier(t, rank) -> tuple:
    return (KIND_BARRIER, rank, 0, 0, 0, 0, float(t))


def columns(rows) -> dict[str, list]:
    """One list per column."""
    rows = list(rows)
    return {name: [row[i] for row in rows] for i, name in enumerate(COLUMNS)}


def trace_of(rows, n_ranks=2, app="test") -> Trace:
    return Trace(app, n_ranks, columns(rows))
