"""Live workload profiling: the stream properties the lattice walk reads.

The paper's core result is that the right matcher is a *function of
measurable workload properties*: wildcard usage and the tuple
distribution decide which Table II relaxation point is safe and
profitable.  This module measures exactly those properties **online**,
over a sliding window of a tenant's flushed batches, so the autotuner
can make that decision continuously instead of once per application
port.

Each flush leaves five integers in the window (messages, requests, src
and tag wildcards, and the hottest tuple's excess multiplicity); a
profile is their windowed sums and ratios.  The offline Table I
reconstruction (:mod:`repro.traces.analyzer`) computes the full
statistic set; the serve path keeps only what its decisions read.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from ..core.envelope import ANY_SOURCE, ANY_TAG, EnvelopeBatch, pack_keys
from ..core.result import MatchOutcome

__all__ = ["WorkloadProfile", "StreamProfiler", "DOMINANCE_LIMIT"]

#: Windowed dominant-tuple fraction at and above which the hash path's
#: probe chains serialize (:attr:`WorkloadProfile.hash_friendly`).
DOMINANCE_LIMIT = 0.25


@dataclass(frozen=True)
class WorkloadProfile:
    """What the autotuner and rebalancer read of a tenant's recent stream.

    All fields aggregate over the profiler's sliding window of flushes.
    """

    #: windowed message count (the rebalancer's load signal)
    n_messages: int
    src_wildcard_fraction: float
    tag_wildcard_fraction: float
    #: windowed sum of each flush's *excess* hottest-tuple multiplicity
    #: (max multiplicity - 1) over the windowed message count -- how much
    #: of the stream piles onto its single hottest tuple (the
    #: probe-chain length driver).  0.0 for an all-unique stream of any
    #: size; ~1.0 when one tuple carries a whole flush.
    dominant_tuple_fraction: float = 0.0

    @property
    def wildcard_fraction(self) -> float:
        """Requests wildcarding src or tag (upper bound of the two)."""
        return max(self.src_wildcard_fraction, self.tag_wildcard_fraction)

    @property
    def uses_wildcards(self) -> bool:
        """Did any windowed request carry a wildcard?"""
        return self.wildcard_fraction > 0.0

    @property
    def hash_friendly(self) -> bool:
        """Is the tuple stream diverse enough for the hash path?

        The paper's Figure 6(a) argument: a *dominant* duplicated tuple
        collides every probe chain.  Hash-table chain length is driven
        by the multiplicity of the hottest tuple, not by the aggregate
        duplicate count: a stream that repeats many *different* tuples
        a few times each (df_AMG re-sends the same neighbour/tag pairs
        every solver sweep, duplicate fraction ~0.9) keeps every chain
        short, while one tuple carrying a quarter of the stream
        serializes a quarter of the probes.  Gate on dominance, not on
        duplication.
        """
        return self.dominant_tuple_fraction < DOMINANCE_LIMIT


class StreamProfiler:
    """Sliding-window wildcard and dominance counts over flushed batches.

    Parameters
    ----------
    window_flushes:
        Number of most-recent flushes the profile aggregates over.  The
        window is what lets a tenant *recover* promotions: a one-off
        wildcard burst ages out instead of pinning the tenant to the
        matrix path forever.
    """

    def __init__(self, window_flushes: int = 8) -> None:
        if window_flushes < 1:
            raise ValueError("window_flushes must be >= 1")
        self.window_flushes = window_flushes
        #: per flush: (messages, requests, src wildcards, tag wildcards,
        #: hottest tuple's multiplicity - 1)
        self._window: deque[tuple[int, int, int, int, int]] = deque(
            maxlen=window_flushes)

    def ingest(self, messages: EnvelopeBatch, requests: EnvelopeBatch,
               outcome: MatchOutcome) -> None:
        """Fold one flush into the window.

        Pure column work: the dominance count comes from one
        ``np.unique`` over the flush's packed64 key column (reusing the
        batch's cached keys when the columnar data plane already packed
        them), never from per-envelope Python iteration.
        """
        dominant = 0
        if len(messages):
            packed = messages._packed
            if packed is None:
                packed = pack_keys(messages.src, messages.tag,
                                   messages.comm)
            _, tuple_counts = np.unique(packed, return_counts=True)
            dominant = int(tuple_counts.max()) - 1
        self._window.append((
            len(messages), len(requests),
            int(np.count_nonzero(requests.src == ANY_SOURCE)),
            int(np.count_nonzero(requests.tag == ANY_TAG)),
            dominant))

    # -- snapshot format ----------------------------------------------------------

    def export_state(self) -> dict:
        """Window contents for the serve snapshot format."""
        return {"window_flushes": self.window_flushes,
                "window": list(self._window)}

    def restore_state(self, state: dict) -> None:
        """Inverse of :meth:`export_state`."""
        self.window_flushes = int(state["window_flushes"])
        self._window = deque(state["window"], maxlen=self.window_flushes)

    def profile(self) -> WorkloadProfile:
        """The aggregated profile of the current window."""
        n_msgs, n_reqs, src_wc, tag_wc, dominant = (
            [sum(col) for col in zip(*self._window)] or (0,) * 5)
        return WorkloadProfile(
            n_messages=n_msgs,
            src_wildcard_fraction=src_wc / n_reqs if n_reqs else 0.0,
            tag_wildcard_fraction=tag_wc / n_reqs if n_reqs else 0.0,
            dominant_tuple_fraction=dominant / n_msgs if n_msgs else 0.0,
        )
