"""Table I statistics over a trace.

Computes the characteristics the paper extracts from the dumpi traces
(Section IV-A): wildcard usage, communicator count, peer counts, tag/src
space size and distribution, and the rank-usage uniformity that decides
whether statically partitioned queues stay balanced (Section VI-A).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .events import KIND_POST, KIND_SEND, Trace

__all__ = ["TableIRow", "analyze", "rank_usage_uniformity",
           "tag_distribution", "normalized_entropy"]


@dataclass(frozen=True)
class TableIRow:
    """One application's row of (our reconstruction of) Table I."""

    app: str
    n_ranks: int
    sends: int
    src_wildcards: int
    tag_wildcards: int
    n_communicators: int
    peers_mean: float
    peers_max: int
    n_tags: int
    tag_bits_needed: int
    rank_usage_cov: float
    tag_entropy: float

    @property
    def tags_hashable(self) -> bool:
        """Is the tag usage diverse enough for hash tables / balanced
        enough for tag partitioning?  (Normalized entropy > 0.5 means no
        single tag dominates.)"""
        return self.tag_entropy > 0.5

    @property
    def uses_src_wildcard(self) -> bool:
        """Does the app post any MPI_ANY_SOURCE receive?"""
        return self.src_wildcards > 0

    @property
    def uses_tag_wildcard(self) -> bool:
        """Does the app post any MPI_ANY_TAG receive?"""
        return self.tag_wildcards > 0

    @property
    def header_fits_64bit(self) -> bool:
        """Can {src, tag, comm} pack into one 64-bit word (16-bit tags)?

        The paper: "none of the applications needs tag values longer than
        16 bits ... the entire header could fit into a single 64-bit
        word."
        """
        return self.tag_bits_needed <= 16


def analyze(trace: Trace) -> TableIRow:
    """Compute the Table I row for one trace."""
    cols = trace.columns
    send = cols["kind"] == KIND_SEND
    post = cols["kind"] == KIND_POST
    src, dst = cols["rank"][send], cols["peer"][send]
    n = trace.n_ranks
    # a rank's peers: every rank it sends to or receives from
    links = np.unique(np.concatenate([src * n + dst, dst * n + src]))
    peer_counts = np.bincount(links // n, minlength=n)
    tags, tag_counts = _first_seen_counts(cols["tag"][send])
    return TableIRow(
        app=trace.app,
        n_ranks=n,
        sends=int(src.size),
        src_wildcards=int(np.count_nonzero(cols["peer"][post] == -1)),
        tag_wildcards=int(np.count_nonzero(cols["tag"][post] == -1)),
        n_communicators=int(np.unique(cols["comm"][send | post]).size),
        peers_mean=float(peer_counts.mean()),
        peers_max=int(peer_counts.max()),
        n_tags=int(tags.size),
        tag_bits_needed=int(tags.max()).bit_length() if tags.size else 0,
        rank_usage_cov=rank_usage_uniformity(trace),
        tag_entropy=normalized_entropy(tag_counts),
    )


def _first_seen_counts(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Distinct values and their counts, in order of first appearance
    (the order float sums over the counts are taken in)."""
    uniq, first, counts = np.unique(values, return_index=True,
                                    return_counts=True)
    order = np.argsort(first)
    return uniq[order], counts[order]


def rank_usage_uniformity(trace: Trace) -> float:
    """Coefficient of variation of per-destination message counts.

    The paper: "We analyzed how often a given rank addresses any other
    rank.  While most of the applications show a regular and uniform
    behavior, CESAR Nekbone and AMR Boxlib showed a rather irregular
    communication behavior."  A near-zero CoV is uniform (queues balance
    under static partitioning); a large CoV is irregular.
    """
    cols = trace.columns
    dst = cols["peer"][cols["kind"] == KIND_SEND]
    if not dst.size:
        return 0.0
    arr = np.bincount(dst, minlength=trace.n_ranks).astype(float)
    mean = arr.mean()
    return float(arr.std() / mean) if mean else 0.0


def normalized_entropy(counts) -> float:
    """Shannon entropy of a count vector, normalized to [0, 1].

    1.0 = perfectly uniform usage, 0.0 = a single value dominates (or
    only one value exists).  The paper's "Distribution of src and tag
    space" paragraph observes that this "varies significantly across the
    applications" -- and it decides whether tag partitioning balances
    (EXT3) and how hash tables collide (Figure 6(a)).
    """
    arr = np.asarray(counts if isinstance(counts, np.ndarray)
                     else list(counts), dtype=float).ravel()
    # non-finite counts (overflowed accumulators, corrupt snapshots)
    # would propagate NaN through p*log2(p); treat them as absent
    arr = arr[np.isfinite(arr) & (arr > 0)]
    if arr.size <= 1:
        return 0.0
    p = arr / arr.sum()
    h = -(p * np.log2(p)).sum()
    return float(h / np.log2(arr.size))


def tag_distribution(trace: Trace) -> dict[int, int]:
    """Messages per tag value (the raw distribution behind the entropy)."""
    cols = trace.columns
    tags, counts = _first_seen_counts(cols["tag"][cols["kind"] == KIND_SEND])
    return dict(zip(tags.tolist(), counts.tolist()))
