"""Deterministic virtual-time event loop.

Every scheduling decision in the serve layer runs on a **virtual clock**:
submissions arrive at caller-supplied virtual times, batch deadlines are
virtual offsets, completion times are flush time plus *modeled* device
seconds.  No wall clock is ever consulted on a decision path, so a serve
run is a pure function of (workload stream, seed, configuration) -- two
runs with the same inputs produce identical match outcomes, shed counts,
and retune events, and any production incident can be replayed exactly.

Events with equal timestamps are ordered by a monotonically increasing
sequence number (insertion order), which makes tie-breaking deterministic
without consulting the RNG; the seeded generator exists for *policy*
randomness (e.g. load-generator jitter), never for ordering.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Any, Iterator

import numpy as np

__all__ = ["VirtualClock", "TimerEvent", "EventLoop"]


class VirtualClock:
    """Monotonic virtual-seconds clock."""

    def __init__(self, start: float = 0.0) -> None:
        self.now = float(start)

    def advance_to(self, vt: float) -> None:
        """Move the clock forward (never backward)."""
        if vt < self.now:
            raise ValueError(f"virtual time cannot run backward "
                             f"({vt} < {self.now})")
        self.now = vt


@dataclass(order=True, frozen=True)
class TimerEvent:
    """One scheduled callback: ``(vt, seq)`` is the total order."""

    vt: float
    seq: int
    kind: str = field(compare=False)
    payload: Any = field(compare=False, default=None)


class EventLoop:
    """Seeded, deterministic timer queue on a :class:`VirtualClock`.

    Parameters
    ----------
    seed:
        Seeds :attr:`rng`, the single generator every stochastic serve
        policy must draw from (one seed -> one replayable run).
    """

    def __init__(self, seed: int = 0, start: float = 0.0) -> None:
        self.clock = VirtualClock(start)
        self.rng = np.random.default_rng(seed)
        self.seed = seed
        self._heap: list[TimerEvent] = []
        self._next_seq = 0

    @property
    def now(self) -> float:
        return self.clock.now

    def schedule(self, vt: float, kind: str, payload: Any = None) -> TimerEvent:
        """Enqueue an event at virtual time ``vt`` (>= now)."""
        if vt < self.clock.now:
            raise ValueError(f"cannot schedule into the past "
                             f"({vt} < {self.clock.now})")
        ev = TimerEvent(vt=vt, seq=self._next_seq, kind=kind, payload=payload)
        self._next_seq += 1
        heapq.heappush(self._heap, ev)
        return ev

    def due(self, vt: float) -> Iterator[TimerEvent]:
        """Pop and yield events with timestamp <= ``vt`` in (vt, seq)
        order, advancing the clock to each event as it fires and to
        ``vt`` at the end."""
        while self._heap and self._heap[0].vt <= vt:
            ev = heapq.heappop(self._heap)
            self.clock.advance_to(ev.vt)
            yield ev
        self.clock.advance_to(vt)

    def drain(self) -> Iterator[TimerEvent]:
        """Pop and yield every remaining event in order."""
        while self._heap:
            ev = heapq.heappop(self._heap)
            self.clock.advance_to(ev.vt)
            yield ev

    def retain(self, keep) -> None:
        """Drop every pending event for which ``keep(event)`` is false."""
        self._heap = [ev for ev in self._heap if keep(ev)]
        heapq.heapify(self._heap)

    def __len__(self) -> int:
        return len(self._heap)

    # -- snapshot format ----------------------------------------------------------

    def export_state(self) -> dict:
        """Full loop state for the serve snapshot format.

        Captures everything a bit-identical replay needs: the virtual
        clock, the ``(vt, seq)`` cursor, every pending timer, and the
        PCG64 generator state (``bit_generator.state`` -- the 128-bit
        internal counters, not the seed, so a mid-run restore continues
        the *same* random stream rather than restarting it).
        """
        return {"now": self.clock.now,
                "seed": self.seed,
                "next_seq": self._next_seq,
                "rng_state": self.rng.bit_generator.state,
                "events": sorted(self._heap)}

    def restore_state(self, state: dict) -> None:
        """Inverse of :meth:`export_state`."""
        self.clock = VirtualClock(float(state["now"]))
        self.seed = int(state["seed"])
        self._next_seq = int(state["next_seq"])
        self.rng = np.random.default_rng(self.seed)
        self.rng.bit_generator.state = state["rng_state"]
        self._heap = list(state["events"])
        heapq.heapify(self._heap)
