"""Queue reconstruction from traces (the Figure 2 analysis).

"Based on the trace files, we reconstruct the queues to assess their
maximum length at any matching attempt" (Section IV-A).  :func:`replay`
rebuilds every rank's UMQ/PRQ pair with full MPI matching semantics and
returns per-rank depth statistics as columns.

A send is a matching attempt at its destination and a receive post one
at its poster.  Sends reach the destination instantly (the GAS write
model), so every rank sees its attempts in global trace order, which
preserves pair ordering -- the property MPI matching needs.

On a rank that posts no wildcard, matching splits into one independent
FIFO per ``(src, tag, comm)`` key: the no-wildcard relaxation behind the
partitioned and hash matchers (Section VI).  The k-th message of a key
pairs with the k-th post of that key; whichever of the two comes first
is queued until the other arrives, and an attempt with no partner stays
queued.  Queue depths are then prefix sums over the trace's columns.  A
rank that posts ``ANY_SOURCE`` or ``ANY_TAG`` is replayed by
:func:`_walk`, a linear scan of its two queues.
"""

from __future__ import annotations

import numpy as np

from .events import KIND_BARRIER, KIND_SEND, Trace

__all__ = ["STATS", "replay", "figure2_summary"]

_WILD = -1

#: The per-rank int64 columns :func:`replay` returns: max and summed
#: queue depth seen before each attempt, attempts, messages that joined
#: the UMQ (unexpected) or matched a posted receive (expected), and the
#: entries left in each queue at the end.
STATS = ("umq_max", "umq_sum", "prq_max", "prq_sum", "attempts",
         "unexpected", "expected", "umq_left", "prq_left")


def _walk(is_message, src, tag, comm) -> tuple[int, ...]:
    """Replay one rank's attempts, given in time order, by linear queue
    scans; returns its :data:`STATS` values."""
    umq: list[tuple] = []  # (src, tag, comm) of unexpected messages
    prq: list[tuple] = []  # (src, tag, comm) of posted receives
    umq_max = umq_sum = prq_max = prq_sum = unexpected = expected = 0
    for msg, s, t, c in zip(is_message, src, tag, comm):
        umq_max, umq_sum = max(umq_max, len(umq)), umq_sum + len(umq)
        prq_max, prq_sum = max(prq_max, len(prq)), prq_sum + len(prq)
        if msg:  # the earliest posted receive this message satisfies
            hit = next((i for i, (ps, pt, pc) in enumerate(prq) if pc == c
                        and ps in (s, _WILD) and pt in (t, _WILD)), None)
            if hit is None:
                umq.append((s, t, c))
                unexpected += 1
            else:
                del prq[hit]
                expected += 1
        else:  # the earliest unexpected message this receive accepts
            hit = next((i for i, (ms, mt, mc) in enumerate(umq) if mc == c
                        and s in (ms, _WILD) and t in (mt, _WILD)), None)
            if hit is None:
                prq.append((s, t, c))
            else:
                del umq[hit]
    return (umq_max, umq_sum, prq_max, prq_sum, len(is_message),
            unexpected, expected, len(umq), len(prq))


def _pair(n_ranks: int, owner, is_msg, src, tag,
          comm) -> dict[str, np.ndarray]:
    """:data:`STATS` of wildcard-free ranks from their attempts (in
    trace order): each key's k-th message pairs with its k-th post."""
    out = {name: np.zeros(n_ranks, np.int64) for name in STATS}
    n = owner.size
    if not n:
        return out
    row = np.arange(n)
    # group each key's attempts: its messages first, each kind in row order
    order = np.lexsort((row, ~is_msg, comm, tag, src, owner))
    new = np.zeros(n, bool)
    new[0] = True
    for col in (owner, src, tag, comm):
        col = col[order]
        new[1:] |= col[1:] != col[:-1]
    start = np.flatnonzero(new)
    group = np.cumsum(new) - 1
    msg = is_msg[order]
    n_msg = np.add.reduceat(msg.astype(np.int64), start)[group]
    size = np.diff(np.append(start, n))[group]
    k = row - start[group]  # position within the key's group
    paired = np.where(msg, k + n_msg < size, k < 2 * n_msg)
    partner = np.where(msg, row + n_msg, row - n_msg)
    # each attempt either queues itself or removes its (earlier) partner
    queued = ~paired | (order < order[np.where(paired, partner, row)])
    q = queued.astype(np.int64)
    umq = np.zeros(n, np.int64)
    prq = np.zeros(n, np.int64)
    umq[order] = np.where(msg, q, q - 1)
    prq[order] = np.where(msg, q - 1, q)
    # depth before each attempt: a per-rank prefix sum in (owner, row) order
    seq = np.argsort(owner, kind="stable")
    own = owner[seq]
    first = np.flatnonzero(np.append(True, own[1:] != own[:-1]))
    ranks, counts = own[first], np.diff(np.append(first, n))
    for queue, delta in (("umq", umq[seq]), ("prq", prq[seq])):
        depth = np.cumsum(delta) - delta
        depth -= np.repeat(depth[first], counts)
        out[f"{queue}_max"][ranks] = np.maximum.reduceat(depth, first)
        out[f"{queue}_sum"][ranks] = np.add.reduceat(depth, first)
        out[f"{queue}_left"][ranks] = np.add.reduceat(delta, first)
    out["attempts"] = np.bincount(owner, minlength=n_ranks)
    owner = owner[order]
    out["unexpected"] = np.bincount(owner[msg & queued], minlength=n_ranks)
    out["expected"] = np.bincount(owner[msg & ~queued], minlength=n_ranks)
    return out


def replay(trace: Trace) -> dict[str, np.ndarray]:
    """Replay a trace; returns the per-rank :data:`STATS` columns."""
    cols = trace.columns
    rows = np.flatnonzero(cols["kind"] != KIND_BARRIER)
    is_msg = cols["kind"][rows] == KIND_SEND
    rank, peer = cols["rank"][rows], cols["peer"][rows]
    owner = np.where(is_msg, peer, rank)
    src = np.where(is_msg, rank, peer)
    tag, comm = cols["tag"][rows], cols["comm"][rows]
    wild = np.zeros(trace.n_ranks, bool)
    wild[owner[~is_msg & ((src == _WILD) | (tag == _WILD))]] = True
    walked = wild[owner]
    out = _pair(trace.n_ranks, *(col[~walked] for col in
                                 (owner, is_msg, src, tag, comm)))
    for r in np.flatnonzero(wild):
        at = walked & (owner == r)
        stats = _walk(*(col[at].tolist() for col in (is_msg, src, tag, comm)))
        for name, value in zip(STATS, stats):
            out[name][r] = value
    return out


def figure2_summary(trace: Trace) -> dict:
    """The Figure 2 statistic set for one application trace.

    Returns mean/median/max across ranks of the per-rank maximum queue
    depths, for both UMQ and PRQ.
    """
    stats = replay(trace)
    umq_max, prq_max = stats["umq_max"], stats["prq_max"]
    unexpected = int(stats["unexpected"].sum())
    return {
        "app": trace.app,
        "n_ranks": trace.n_ranks,
        "umq_max_mean": float(umq_max.mean()),
        "umq_max_median": float(np.median(umq_max)),
        "umq_max_max": int(umq_max.max()),
        "prq_max_mean": float(prq_max.mean()),
        "prq_max_median": float(np.median(prq_max)),
        "prq_max_max": int(prq_max.max()),
        "unexpected_fraction": unexpected / max(
            1, unexpected + int(stats["expected"].sum())),
    }
