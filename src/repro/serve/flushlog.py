"""The router's flush-result log, kept as typed columns.

A routed :class:`~repro.serve.messages.FlushResult` is a handful of
numbers, three per-request vectors and two small meta dicts, but as
Python objects it costs ~1.5 KB: a ``MatchOutcome``, an ndarray, two
tuples of boxed numbers, two dicts and a nested ``phase_cycles`` dict.
A router keeps every flush for the life of the run, so :class:`FlushLog`
stores them the way the paper's matcher returns them -- as columns:

* the fixed fields (shard, flush seq, sizes, iterations, replicas) in
  int64 columns, ``flush_vt``, ``seconds`` and ``cycles`` in float64
  columns, tenant and engine label as ids into a string table;
* ``request_to_message``, ``covered_seqs`` and ``latencies_vt`` each
  concatenated into one column, with an offsets column per field;
* the outcome meta and the flush meta flattened into one ``(keys,
  values)`` row -- a nested dict such as ``phase_cycles`` inlined one
  level deep -- and interned in the log's row table, since flushes of
  one engine and batch shape repeat the same row.  A row holding an
  unhashable value (the engine's ``demotions`` list) is stored for its
  flush alone and deep-copied on the way in and out.

The log is a read-only :class:`~collections.abc.Sequence` with list
semantics: ``len``, indexing (negative too), slices that return lists,
iteration and ``==`` against a list.  Every access builds a fresh
``FlushResult`` whose :func:`~repro.serve.state.dumps` encoding equals
that of the appended object byte for byte; mutating it leaves the log
unchanged.  Aggregate readers (:meth:`FlushLog.latencies_vt`,
:meth:`FlushLog.matched_count`) read the columns and build no results.
"""

from __future__ import annotations

import copy
import math
import operator
from array import array
from collections.abc import Sequence

import numpy as np

from ..core.result import NO_MATCH, MatchOutcome
from .messages import FlushResult

__all__ = ["FlushLog"]


def _flatten(meta: dict, keys: list, values: list) -> None:
    """Append ``meta``'s keys and values in order; a dict value is
    inlined as ``(key, its keys)`` and its values."""
    for key, value in meta.items():
        if type(value) is dict:
            keys.append((key, tuple(value)))
            values.extend(value.values())
        else:
            keys.append((key, None))
            values.append(value)


def _unflatten(keys: tuple, values: tuple, pos: int) -> tuple[dict, int]:
    """Inverse of :func:`_flatten` from ``values[pos:]``; returns the
    dict and the position after it."""
    meta = {}
    for key, sub in keys:
        if sub is None:
            meta[key] = values[pos]
            pos += 1
        else:
            meta[key] = dict(zip(sub, values[pos:pos + len(sub)]))
            pos += len(sub)
    return meta, pos


class FlushLog(Sequence):
    """Append-only columnar record of routed flush results."""

    def __init__(self) -> None:
        # fixed fields, one entry per flush
        self._tenant = array("q")
        self._shard_id = array("q")
        self._flush_seq = array("q")
        self._n_messages = array("q")
        self._n_requests = array("q")
        self._iterations = array("q")
        self._replicas = array("q")
        self._label = array("q")
        self._flush_vt = array("d")
        self._seconds = array("d")
        self._cycles = array("d")
        #: row-table index of the flush's meta row; ``~i`` marks a row
        #: stored for that flush alone
        self._row = array("q")
        # per-request fields, concatenated, with end offsets
        self._r2m = array("q")
        self._r2m_end = array("q", [0])
        self._covered = array("q")
        self._covered_end = array("q", [0])
        self._latencies = array("d")
        self._latencies_end = array("q", [0])
        # interning tables
        self._names: list[str] = []
        self._name_ids: dict[str, int] = {}
        #: rows as ``(outcome keys, flush keys, values, ...)``
        self._rows: list[tuple] = []
        #: interned row -> (its id, positions of its float zeros)
        self._row_ids: dict[tuple, tuple[int, tuple]] = {}
        self._shapes: dict[tuple, tuple] = {}

    # -- appending ----------------------------------------------------------------

    def append(self, result: FlushResult) -> None:
        """Record one flush result (its values are copied)."""
        o = result.outcome
        self._tenant.append(self._name_id(result.tenant))
        self._shard_id.append(result.shard_id)
        self._flush_seq.append(result.flush_seq)
        self._n_messages.append(o.n_messages)
        self._n_requests.append(o.n_requests)
        self._iterations.append(o.iterations)
        self._replicas.append(o.replicas)
        self._label.append(self._name_id(result.engine_label))
        self._flush_vt.append(result.flush_vt)
        self._seconds.append(o.seconds)
        self._cycles.append(o.cycles)
        self._row.append(self._row_id(o.meta, result.meta))
        self._r2m.frombytes(
            np.ascontiguousarray(o.request_to_message, np.int64).tobytes())
        self._r2m_end.append(len(self._r2m))
        self._covered.extend(result.covered_seqs)
        self._covered_end.append(len(self._covered))
        self._latencies.extend(result.latencies_vt)
        self._latencies_end.append(len(self._latencies))

    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self._names)
            self._names.append(name)
        return nid

    def _row_id(self, outcome_meta: dict, flush_meta: dict) -> int:
        """Intern the flattened meta pair; returns its row id, or ``~i``
        for a row kept for this flush alone."""
        okeys: list = []
        fkeys: list = []
        values: list = []
        _flatten(outcome_meta, okeys, values)
        _flatten(flush_meta, fkeys, values)
        values = tuple(values)
        # the value types are part of the key: 1 == 1.0 == True
        key = (tuple(okeys), tuple(fkeys), values,
               tuple(map(type, values)))
        try:
            hit = self._row_ids.get(key)
        except TypeError:   # an unhashable value: this flush's own row
            self._rows.append((key[0], key[1], copy.deepcopy(values)))
            return ~(len(self._rows) - 1)
        if hit is not None:
            rid, zeros = hit
            # -0.0 == 0.0, but the two encode differently
            stored = self._rows[rid][2]
            if all(math.copysign(1.0, values[k])
                   == math.copysign(1.0, stored[k]) for k in zeros):
                return rid
            self._rows.append((key[0], key[1], values))
            return ~(len(self._rows) - 1)
        # rows of one engine share their key and type tuples
        shapes = self._shapes
        row = (shapes.setdefault(key[0], key[0]),
               shapes.setdefault(key[1], key[1]), values,
               shapes.setdefault(key[3], key[3]))
        zeros = tuple(k for k, v in enumerate(values)
                      if isinstance(v, (float, np.floating)) and v == 0.0)
        self._row_ids[row] = len(self._rows), zeros
        self._rows.append(row)
        return len(self._rows) - 1

    # -- aggregates ---------------------------------------------------------------

    def latencies_vt(self) -> np.ndarray:
        """Every per-request virtual latency, flush order (a copy)."""
        return np.array(self._latencies, dtype=np.float64)

    def matched_count(self) -> int:
        """Matched requests over every flush."""
        return int(np.count_nonzero(
            np.frombuffer(self._r2m, dtype=np.int64) != NO_MATCH))

    # -- list semantics -----------------------------------------------------------

    def __len__(self) -> int:
        return len(self._flush_seq)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self._result(i)
                    for i in range(*index.indices(len(self)))]
        i = operator.index(index)
        if i < 0:
            i += len(self)
        if not 0 <= i < len(self):
            raise IndexError("flush log index out of range")
        return self._result(i)

    def __iter__(self):
        for i in range(len(self)):
            yield self._result(i)

    def __eq__(self, other) -> bool:
        if isinstance(other, list):
            return list(self) == other
        return NotImplemented

    def __repr__(self) -> str:
        return f"FlushLog({len(self)} flushes)"

    def _result(self, i: int) -> FlushResult:
        """A fresh :class:`FlushResult` for flush ``i``."""
        rid = self._row[i]
        okeys, fkeys, values = self._rows[~rid if rid < 0 else rid][:3]
        if rid < 0:
            values = copy.deepcopy(values)
        outcome_meta, pos = _unflatten(okeys, values, 0)
        flush_meta, _ = _unflatten(fkeys, values, pos)
        outcome = MatchOutcome(
            request_to_message=np.array(
                self._r2m[self._r2m_end[i]:self._r2m_end[i + 1]],
                dtype=np.int64),
            n_messages=self._n_messages[i], n_requests=self._n_requests[i],
            seconds=self._seconds[i], cycles=self._cycles[i],
            iterations=self._iterations[i], replicas=self._replicas[i],
            meta=outcome_meta)
        return FlushResult(
            tenant=self._names[self._tenant[i]],
            shard_id=self._shard_id[i], flush_seq=self._flush_seq[i],
            flush_vt=self._flush_vt[i], outcome=outcome,
            covered_seqs=tuple(
                self._covered[self._covered_end[i]:self._covered_end[i + 1]]),
            latencies_vt=tuple(self._latencies[
                self._latencies_end[i]:self._latencies_end[i + 1]]),
            engine_label=self._names[self._label[i]], meta=flush_meta)
