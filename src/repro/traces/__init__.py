"""Synthetic exascale proxy-application traces and their analyses.

Substitutes for the DOE dumpi traces the paper analyzed (Section IV):
per-application communication models (:mod:`.apps`) write per-event
NumPy columns (:class:`Trace`) whose matching-relevant statistics
reproduce Table I, Figure 2, and Figure 6(a).  The analyses
(:mod:`.analyzer`, :mod:`.queue_replay`, :mod:`.uniqueness`) and the
JSONL reader and writer (:mod:`.io`) read those columns; any source that
fills them (a dumpi converter, the JSONL format) feeds the same code.
"""

from .analyzer import TableIRow, analyze, rank_usage_uniformity
from .events import Trace
from .generator import APP_MODELS, app_names, generate_trace, get_model
from .io import dumps, load_trace, loads, save_trace
from .queue_replay import (QueueDepthStats, RankReplay, figure2_summary,
                           replay)
from .uniqueness import per_destination_shares, tuple_uniqueness

__all__ = [
    "Trace",
    "APP_MODELS", "app_names", "generate_trace", "get_model",
    "TableIRow", "analyze", "rank_usage_uniformity",
    "QueueDepthStats", "RankReplay", "replay", "figure2_summary",
    "save_trace", "load_trace", "dumps", "loads",
    "per_destination_shares", "tuple_uniqueness",
]
