"""{src, tag} tuple uniqueness (the Figure 6(a) analysis).

"In Figure 6(a) we show the uniqueness of {src, tag} tuples among all
destinations within an application.  For example, a value of 50% means
that a single tuple appears in 50% of all messages to a given
destination.  This would be a bad case for hash tables ..."  Most
applications land in single-digit percentages, supporting the two-level
hash table of Section VI-C.
"""

from __future__ import annotations

import numpy as np

from .events import KIND_SEND, Trace

__all__ = ["tuple_uniqueness", "per_destination_shares"]


def _dominant_shares(trace: Trace) -> tuple[np.ndarray, np.ndarray, int]:
    """Destinations in order of their first message, the share of each
    one's traffic owned by its most common {src, tag} tuple, and the
    number of distinct (dst, src, tag) tuples."""
    cols = trace.columns
    send = cols["kind"] == KIND_SEND
    dst, src = cols["peer"][send], cols["rank"][send]
    tags, tag_index = np.unique(cols["tag"][send], return_inverse=True)
    # one int64 key per send, dst most significant
    span = trace.n_ranks * max(tags.size, 1)
    keys, counts = np.unique((dst * trace.n_ranks + src) * max(tags.size, 1)
                             + tag_index, return_counts=True)
    dsts, first = np.unique(dst, return_index=True)
    starts = np.searchsorted(keys // span, dsts)
    shares = np.maximum.reduceat(counts, starts) / np.bincount(dst)[dsts]
    order = np.argsort(first)
    return dsts[order], shares[order], int(keys.size)


def per_destination_shares(trace: Trace) -> dict[int, float]:
    """Per destination: the share of its traffic owned by its most
    common {src, tag} tuple (1.0 = every message identical)."""
    dsts, shares, _ = _dominant_shares(trace)
    return dict(zip(dsts.tolist(), shares.tolist()))


def tuple_uniqueness(trace: Trace) -> dict:
    """Figure 6(a)'s statistic for one application.

    Returns the mean/median/max over destinations of the dominant-tuple
    share, plus the overall duplicate fraction (messages whose tuple has
    already been sent to the same destination).
    """
    _, vals, distinct = _dominant_shares(trace)
    if not vals.size:
        return {"app": trace.app, "dominant_share_mean": 0.0,
                "dominant_share_median": 0.0, "dominant_share_max": 0.0,
                "duplicate_fraction": 0.0}
    total = int(np.count_nonzero(trace.columns["kind"] == KIND_SEND))
    return {
        "app": trace.app,
        "dominant_share_mean": float(vals.mean()),
        "dominant_share_median": float(np.median(vals)),
        "dominant_share_max": float(vals.max()),
        "duplicate_fraction": (total - distinct) / total,
    }
