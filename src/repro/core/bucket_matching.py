"""Hashed-bucket CPU matching with wildcard markers (related work [3]).

The paper's related-work section describes Flajslik et al.'s CPU-side
answer to slow list matching: *"use hashes to address multiple queues and
insert so-called marker entries to restore order and support wildcards.
Their approach yields 3.5x better performance than traditional,
list-based matching algorithms"*.  This module implements that design as
a second fully MPI-compliant CPU baseline, in both matching directions:

:meth:`BucketMatcher.match` (posted requests search the bucketed UMQ)
    Every queued message is bucketed by a hash of its concrete
    ``{src, tag, comm}`` tuple and carries a global sequence number.  A
    concrete receive walks one bucket; a wildcard receive scans the
    per-bucket heads and takes the globally earliest match.

:meth:`BucketMatcher.match_arrivals` (arriving messages search the
bucketed PRQ)
    This is where Flajslik's **markers** earn their keep: a wildcard
    receive cannot be bucketed, so a *marker* carrying its sequence
    number is appended to every bucket.  An arriving message walks its
    bucket in order; the first live element that accepts it -- concrete
    entry by tuple equality, marker by consulting its wildcard request --
    wins, which preserves exact posted order across the bucket/wildcard
    split.

Both directions produce assignments bit-identical to their sequential
oracles (asserted by the tests); only the traversal cost changes.  A
concrete lookup walks one bucket instead of the whole queue -- the
source of the ~3.5x long-queue speedup the paper cites.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from .envelope import ANY_SOURCE, ANY_TAG, EnvelopeBatch, pack_keys
from .hashing import HASH_FUNCTIONS, fold64
from .list_matching import CPUSpec, XEON_E5
from .result import NO_MATCH, MatchOutcome

__all__ = ["BucketMatcher"]


@dataclass
class _Entry:
    """A bucketed concrete element (message or request)."""

    seq: int
    index: int     # position in the original batch
    src: int
    tag: int
    comm: int
    live: bool = True

    kind = "entry"


@dataclass
class _Marker:
    """A wildcard placeholder (points at the wildcard request's state)."""

    seq: int
    wildcard: "_Wildcard"

    kind = "marker"

    @property
    def live(self) -> bool:
        return self.wildcard.live


@dataclass
class _Wildcard:
    """State of one posted wildcard receive."""

    seq: int
    index: int
    src: int
    tag: int
    comm: int
    live: bool = True

    def accepts(self, src: int, tag: int, comm: int) -> bool:
        if self.comm != comm:
            return False
        if self.src != ANY_SOURCE and self.src != src:
            return False
        if self.tag != ANY_TAG and self.tag != tag:
            return False
        return True


class BucketMatcher:
    """Multi-bucket CPU matching with markers for wildcards.

    Parameters
    ----------
    n_buckets:
        Sub-queue count (the paper's reference deployment used 256
        queues on 1,792 processes).
    cpu:
        Traversal cost model shared with :class:`ListMatcher`, so the
        two CPU baselines are directly comparable.
    hash_name:
        Bucket-addressing hash.
    sanitize:
        Accepted for knob parity with the GPU matchers; the CPU baseline
        touches no simulated memories, so an attached sanitizer observes
        nothing (trivially clean).
    """

    name = "bucket"

    def __init__(self, n_buckets: int = 16, cpu: CPUSpec = XEON_E5,
                 hash_name: str = "jenkins", sanitize=None) -> None:
        if n_buckets < 1:
            raise ValueError("n_buckets must be positive")
        if hash_name not in HASH_FUNCTIONS:
            raise ValueError(f"unknown hash {hash_name!r}")
        self.n_buckets = n_buckets
        self.cpu = cpu
        self._hash = HASH_FUNCTIONS[hash_name]
        self._san = sanitize

    # -- bucket addressing -----------------------------------------------------------

    def _buckets_of(self, batch: EnvelopeBatch) -> list[int]:
        """Each envelope's bucket (a wildcard lane's is meaningless)."""
        keys = pack_keys(batch.src, batch.tag, batch.comm)
        return (self._hash(fold64(keys)) % self.n_buckets).tolist()

    # -- direction 1: requests search the bucketed message queue -----------------------

    def match(self, messages: EnvelopeBatch,
              requests: EnvelopeBatch) -> MatchOutcome:
        """Posted requests (in order) search the bucketed UMQ."""
        messages.assert_concrete("message queue")
        n_msg, n_req = len(messages), len(requests)
        out = np.full(n_req, NO_MATCH, dtype=np.int64)

        buckets: list[deque] = [deque() for _ in range(self.n_buckets)]
        msg_bucket = self._buckets_of(messages)
        for i in range(n_msg):
            src, tag, comm = (int(messages.src[i]), int(messages.tag[i]),
                              int(messages.comm[i]))
            buckets[msg_bucket[i]].append(
                _Entry(seq=i, index=i, src=src, tag=tag, comm=comm))
        req_bucket = self._buckets_of(requests)

        visited_total = 0
        seconds = 0.0
        for j in range(n_req):
            r_src = int(requests.src[j])
            r_tag = int(requests.tag[j])
            r_comm = int(requests.comm[j])
            visited = 0
            if r_src != ANY_SOURCE and r_tag != ANY_TAG:
                bucket = buckets[req_bucket[j]]
                for entry in bucket:
                    if not entry.live:
                        continue
                    visited += 1
                    if (entry.src == r_src and entry.tag == r_tag
                            and entry.comm == r_comm):
                        entry.live = False
                        out[j] = entry.index
                        break
            else:
                # wildcard: take the globally earliest acceptor across
                # buckets (each bucket is FIFO, so its first live
                # acceptor is its earliest)
                best: _Entry | None = None
                for bucket in buckets:
                    for entry in bucket:
                        if not entry.live:
                            continue
                        visited += 1
                        if entry.comm != r_comm:
                            continue
                        if r_src != ANY_SOURCE and entry.src != r_src:
                            continue
                        if r_tag != ANY_TAG and entry.tag != r_tag:
                            continue
                        if best is None or entry.seq < best.seq:
                            best = entry
                        break
                if best is not None:
                    best.live = False
                    out[j] = best.index
            visited_total += visited
            seconds += self.cpu.attempt_seconds(visited)
        seconds += self.cpu.per_entry_ns * 1e-9 * self._gc(buckets)
        return MatchOutcome(
            request_to_message=out, n_messages=n_msg, n_requests=n_req,
            seconds=seconds,
            meta={"entries_visited": visited_total,
                  "mean_search_length": (visited_total / n_req
                                         if n_req else 0.0),
                  "n_buckets": self.n_buckets, "cpu": self.cpu.name,
                  "direction": "requests-search-umq"})

    # -- direction 2: arriving messages search the bucketed request queue ---------------

    def match_arrivals(self, messages: EnvelopeBatch,
                       requests: EnvelopeBatch) -> MatchOutcome:
        """Arriving messages (in order) search the bucketed PRQ.

        All requests are posted first (pre-posted receives, the paper's
        favourite pattern), wildcards leaving a marker in every bucket.
        Each message then takes the earliest-posted request that accepts
        it.  Returns the same request->message vector shape as
        :meth:`match`.
        """
        messages.assert_concrete("message queue")
        n_msg, n_req = len(messages), len(requests)
        out = np.full(n_req, NO_MATCH, dtype=np.int64)

        buckets: list[deque] = [deque() for _ in range(self.n_buckets)]
        req_bucket = self._buckets_of(requests)
        for j in range(n_req):
            src, tag, comm = (int(requests.src[j]), int(requests.tag[j]),
                              int(requests.comm[j]))
            if src == ANY_SOURCE or tag == ANY_TAG:
                wc = _Wildcard(seq=j, index=j, src=src, tag=tag, comm=comm)
                for bucket in buckets:
                    bucket.append(_Marker(seq=j, wildcard=wc))
            else:
                buckets[req_bucket[j]].append(
                    _Entry(seq=j, index=j, src=src, tag=tag, comm=comm))

        msg_bucket = self._buckets_of(messages)
        visited_total = 0
        seconds = 0.0
        for i in range(n_msg):
            m_src, m_tag, m_comm = (int(messages.src[i]),
                                    int(messages.tag[i]),
                                    int(messages.comm[i]))
            bucket = buckets[msg_bucket[i]]
            visited = 0
            for element in bucket:
                if not element.live:
                    continue
                visited += 1
                if element.kind == "entry":
                    if (element.src == m_src and element.tag == m_tag
                            and element.comm == m_comm):
                        element.live = False
                        out[element.index] = i
                        break
                else:  # marker: consult the wildcard it stands for
                    wc = element.wildcard
                    if wc.accepts(m_src, m_tag, m_comm):
                        wc.live = False  # all its markers die with it
                        out[wc.index] = i
                        break
            visited_total += visited
            seconds += self.cpu.attempt_seconds(visited)
        seconds += self.cpu.per_entry_ns * 1e-9 * self._gc(buckets)
        return MatchOutcome(
            request_to_message=out, n_messages=n_msg, n_requests=n_req,
            seconds=seconds,
            meta={"entries_visited": visited_total,
                  "mean_search_length": (visited_total / n_msg
                                         if n_msg else 0.0),
                  "n_buckets": self.n_buckets, "cpu": self.cpu.name,
                  "direction": "arrivals-search-prq"})

    @staticmethod
    def _gc(buckets: list[deque]) -> int:
        purged = 0
        for bucket in buckets:
            while bucket and not bucket[0].live:
                bucket.popleft()
                purged += 1
        return purged


def arrivals_oracle(messages: EnvelopeBatch,
                    requests: EnvelopeBatch) -> np.ndarray:
    """Reference for the arrival direction: every message, in order,
    takes the earliest-posted live request that accepts it."""
    n_msg, n_req = len(messages), len(requests)
    out = np.full(n_req, NO_MATCH, dtype=np.int64)
    live = np.ones(n_req, dtype=bool)
    for i in range(n_msg):
        msg = messages[i]
        for j in range(n_req):
            if not live[j]:
                continue
            if requests[j].accepts(msg):
                out[j] = i
                live[j] = False
                break
    return out
