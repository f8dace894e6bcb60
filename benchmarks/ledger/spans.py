"""Outside-in layer spans: time the serve stack by wrapping its public names.

The ledger never edits the program to measure it.  A :class:`SpanTracer`
replaces public functions and methods (at class or module level) with
thin timing wrappers, records one span per call -- name, layer, start,
end, parent -- and restores the originals afterwards.  A span's *self*
time is its duration minus the durations of its child spans, so the self
times of every layer plus the phase root's own self time (the client
loop, reported as ``unattributed``) add up to the phase wall by
construction.  This is Caliper's inclusive/exclusive region split, taken
from outside the program.

Wrappers exist only while a traced repeat runs; :func:`pristine` checks
that every target holds its original object again, which is how the
untraced repeats prove they measure the unmodified program.
"""

from __future__ import annotations

import time
from contextlib import contextmanager

import repro.mpi.collectives as collectives
import repro.serve as serve
import repro.serve.cluster as cluster_mod
import repro.serve.loadgen as loadgen_mod
from repro.core import MatchingEngine

__all__ = ["SETUP_TARGETS", "SERVE_TARGETS", "SpanTracer", "pristine"]

#: ``(owner, attribute, layer)`` wrapped while a traced repeat sets up.
#: Removed before ``ClusterService.start()`` so forked workers never
#: inherit a wrapper.
SETUP_TARGETS = (
    (loadgen_mod, "generate_trace", "traces"),
    (serve, "workload_from_app", "loadgen"),
    (serve.MatchingService, "__init__", "service.build"),
    (serve.MatchingService, "register", "service.build"),
    (serve.ClusterService, "__init__", "service.build"),
    (serve.ClusterService, "register", "service.build"),
    (serve.CollectiveBridge, "__init__", "service.build"),
)

#: Wrapped while a traced repeat serves (installed after ``start()``).
SERVE_TARGETS = (
    (serve.MatchingService, "submit", "service"),
    (serve.MatchingService, "advance_to", "service"),
    (serve.MatchingService, "drain", "service"),
    (serve.MatchingService, "deliver", "service"),
    (serve.MatchingService, "fabric_deliver", "service"),
    (serve.EventLoop, "schedule", "scheduler"),
    (serve.EventLoop, "due", "scheduler"),
    (serve.Shard, "submit", "shard"),
    (serve.Shard, "deliver", "shard"),
    (serve.Shard, "flush_tenant", "shard"),
    (serve.Shard, "flush_all", "shard"),
    (serve.AdmissionController, "decide", "admission"),
    (serve.BatchAccumulator, "admit", "batching"),
    (serve.BatchAccumulator, "flush", "batching"),
    (MatchingEngine, "submit_batch", "match"),
    (MatchingEngine, "export_unmatched", "session"),
    (serve.SessionState, "merge", "session"),
    (serve.SessionState, "retain", "session"),
    (serve.StreamProfiler, "ingest", "profiler"),
    (serve.StreamProfiler, "profile", "profiler"),
    (serve.Autotuner, "consider", "autotuner"),
    (serve.Fabric, "send", "fabric"),
    (serve.Fabric, "post_recv", "fabric"),
    (serve.Fabric, "flush", "fabric"),
    (serve.CollectiveBridge, "coll_isend", "bridge"),
    (serve.CollectiveBridge, "coll_irecv", "bridge"),
    (serve.CollectiveBridge, "step", "bridge"),
    (serve.BridgeRequest, "wait", "bridge"),
    (serve.BridgePsend, "start", "bridge"),
    (serve.BridgePsend, "pready", "bridge"),
    (serve.BridgePsend, "wait", "bridge"),
    (serve.BridgePrecv, "start", "bridge"),
    (serve.BridgePrecv, "wait", "bridge"),
    (collectives, "alltoall", "mpi"),
    (collectives, "allreduce", "mpi"),
    (collectives, "neighbor_alltoall", "mpi"),
    (serve.ClusterService, "submit", "cluster.router"),
    (serve.ClusterService, "advance_to", "cluster.router"),
    (serve.ClusterService, "drain", "cluster.router"),
    (serve.ClusterService, "fabric_deliver", "cluster.router"),
    (serve.ClusterService, "sync", "cluster.sync_wait"),
    (cluster_mod, "encode_frame", "wire.encode"),
    (cluster_mod, "decode_frame", "wire.decode"),
)

#: Targets that are generator functions: each resumption is one span.
_GENERATORS = {(serve.EventLoop, "due")}


def _original(owner, attr: str):
    try:
        return vars(owner)[attr]
    except KeyError:
        raise AttributeError(f"{owner!r} defines no {attr!r} of its own; "
                             "wrapping an inherited name would shadow it")


#: The unmodified objects, captured at import before any wrapping.
_PRISTINE = {(owner, attr): _original(owner, attr)
             for owner, attr, _ in SETUP_TARGETS + SERVE_TARGETS}


def pristine() -> bool:
    """Does every wrap target hold its original object?"""
    return all(vars(owner).get(attr) is obj
               for (owner, attr), obj in _PRISTINE.items())


def _frame_bytes(args, result) -> int:
    """Bytes through the wire codec: the encoded frame, or the frame
    handed to the decoder."""
    return len(result) if isinstance(result, (bytes, bytearray)) \
        else len(args[0])


#: Per-layer work counters gathered at the wrapper boundary, as
#: ``layer -> (counter name, fn(args, result) -> int)``.
_COUNTERS = {
    "traces": ("traces.events", lambda args, result: len(result.events)),
    "wire.encode": ("wire.bytes", _frame_bytes),
    "wire.decode": ("wire.bytes", _frame_bytes),
}


class SpanTracer:
    """In-memory span recorder with install/remove of layer wrappers.

    Each span is a list ``[name, layer, phase, start, end, parent,
    child_seconds]``; ``parent`` indexes the enclosing span (``-1`` at
    top level) and ``child_seconds`` accumulates the durations of direct
    children as they close.
    """

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: dict[str, int] = {}
        self.phase = ""
        self._stack: list[int] = []
        self._installed: list[tuple[object, str]] = []

    # -- recording ----------------------------------------------------------------

    def _open(self, name: str, layer: str) -> list:
        stack = self._stack
        rec = [name, layer, self.phase, 0.0, 0.0,
               stack[-1] if stack else -1, 0.0]
        stack.append(len(self.spans))
        self.spans.append(rec)
        return rec

    def _close(self, rec: list, t0: float, t1: float) -> None:
        self._stack.pop()
        rec[3] = t0
        rec[4] = t1
        if rec[5] >= 0:
            self.spans[rec[5]][6] += t1 - t0

    @contextmanager
    def span(self, name: str, layer: str):
        """A span around the ledger's own code (phase roots and
        ``start()``)."""
        rec = self._open(name, layer)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self._close(rec, t0, time.perf_counter())

    # -- wrapping -----------------------------------------------------------------

    def _wrapper(self, fn, name: str, layer: str):
        opened, closed = self._open, self._close
        clock = time.perf_counter
        counter = _COUNTERS.get(layer)
        counts = self.counts

        def wrapper(*args, **kwargs):
            rec = opened(name, layer)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                closed(rec, t0, clock())
            if counter is not None:
                key, measure = counter
                counts[key] = counts.get(key, 0) + measure(args, result)
            return result

        return wrapper

    def _gen_wrapper(self, fn, name: str, layer: str):
        opened, closed = self._open, self._close
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                rec = opened(name, layer)
                t0 = clock()
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    closed(rec, t0, clock())
                yield item

        return wrapper

    def install(self, targets) -> None:
        """Wrap every ``(owner, attr, layer)`` target in place."""
        for owner, attr, layer in targets:
            fn = _original(owner, attr)
            name = f"{getattr(owner, '__name__', owner)}.{attr}"
            make = (self._gen_wrapper if (owner, attr) in _GENERATORS
                    else self._wrapper)
            setattr(owner, attr, make(fn, name, layer))
            self._installed.append((owner, attr))

    def remove(self) -> None:
        """Restore every wrapped target to its pristine object."""
        while self._installed:
            owner, attr = self._installed.pop()
            setattr(owner, attr, _PRISTINE[(owner, attr)])

    # -- reduction ----------------------------------------------------------------

    def self_seconds(self, phase: str) -> dict[str, float]:
        """Self seconds per layer over one phase's spans."""
        out: dict[str, float] = {}
        for _, layer, ph, t0, t1, _, child in self.spans:
            if ph == phase:
                out[layer] = out.get(layer, 0.0) + (t1 - t0 - child)
        return out

    def calls(self, phase: str) -> dict[str, int]:
        """Span count per layer over one phase."""
        out: dict[str, int] = {}
        for rec in self.spans:
            if rec[2] == phase:
                out[rec[1]] = out.get(rec[1], 0) + 1
        return out

    def chrome_events(self, origin: float) -> list[dict]:
        """The spans as Chrome/Perfetto complete events (``ph: "X"``),
        microseconds since ``origin``, one thread lane per phase; the
        caller sets ``pid``."""
        lanes: dict[str, int] = {}
        events = []
        for name, layer, phase, t0, t1, _, child in self.spans:
            tid = lanes.setdefault(phase, len(lanes))
            events.append({
                "name": name, "cat": layer, "ph": "X", "pid": 0,
                "tid": tid, "ts": max(0.0, (t0 - origin) * 1e6),
                "dur": max(0.0, (t1 - t0) * 1e6),
                "args": {"self_us": max(0.0, (t1 - t0 - child) * 1e6)}})
        for phase, tid in lanes.items():
            events.append({"name": "thread_name", "ph": "M", "pid": 0,
                           "tid": tid, "ts": 0, "args": {"name": phase}})
        return events
