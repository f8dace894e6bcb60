"""Trace container, indexed queue replay, and analyzer mechanics."""

from __future__ import annotations

import numpy as np
import pytest

from repro.traces.analyzer import (analyze, normalized_entropy,
                                   rank_usage_uniformity, tag_distribution)
from repro.traces.events import Trace
from repro.traces.queue_replay import (RankReplay, figure2_summary, replay,
                                       _IndexedQueue)
from repro.traces.uniqueness import per_destination_shares, tuple_uniqueness
from tests.traces.rows import barrier, columns
from tests.traces.rows import post as P
from tests.traces.rows import send as S
from tests.traces.rows import trace_of as T


class TestTrace:
    def test_validation(self):
        with pytest.raises(ValueError, match="time order"):
            T([S(2, 0, 1, 0), S(1, 0, 1, 0)])  # time goes backwards
        with pytest.raises(ValueError, match="rank 5"):
            T([S(1, 5, 1, 0)])  # rank out of range
        with pytest.raises(ValueError, match="dst 9"):
            T([S(1, 0, 9, 0)])  # dst out of range
        with pytest.raises(ValueError):
            T([], n_ranks=0)
        # the first offending row is reported, whatever the check
        with pytest.raises(ValueError, match="dst 7"):
            T([S(1, 0, 7, 0), S(2, 4, 1, 0)])
        # a post's src is not range-checked (it may be a wildcard)
        assert len(T([P(1, 0, -1, 0)])) == 1

    def test_unknown_kind_rejected_before_the_int8_cast(self):
        cols = columns([S(1, 0, 1, 0), S(2, 1, 0, 0), S(3, 0, 1, 0)])
        # 258 would wrap to 2 (a barrier) under the int8 cast
        for kind in (np.array([0, 258, 3]), [0, 258, 3]):
            with pytest.raises(ValueError, match="kind 258"):
                Trace("x", 2, {**cols, "kind": kind})
        with pytest.raises(ValueError, match="kind 1.5"):
            Trace("x", 2, {**cols, "kind": np.array([0.0, 1.5, 2.0])})
        # the lowest offending row is named, whatever the check
        with pytest.raises(ValueError, match="kind -1"):
            Trace("x", 2, {**cols, "kind": np.array([0, -1, 0]),
                           "rank": np.array([0, 1, 7])})
        with pytest.raises(ValueError, match="rank 7"):
            Trace("x", 2, {**cols, "kind": np.array([0, 0, 3]),
                           "rank": np.array([0, 7, 0])})

    def test_malformed_columns_rejected(self):
        cols = columns([S(1, 0, 1, 0), S(2, 1, 0, 0)])
        with pytest.raises(ValueError, match="equal length"):
            Trace("x", 2, {**cols, "tag": [0]})
        with pytest.raises(ValueError, match="columns must be"):
            Trace("x", 2, {k: v for k, v in cols.items() if k != "comm"})

    def test_rows_and_balance(self):
        rows = [P(1, 1, 0, 0), S(2, 0, 1, 0), barrier(3, 0), barrier(3, 1)]
        tr = T(rows)
        assert len(tr.events) == 4
        assert list(tr.events) == rows
        assert tr.validate_balance() == {"sends": 1, "recv_posts": 1,
                                         "balanced": True}


class TestIndexedQueue:
    def test_order_across_buckets(self):
        q = _IndexedQueue()
        q.add((("a",),))
        q.add((("b",),))
        q.add((("a",),))
        assert q.find_earliest((("b",), ("a",))) == 0  # earliest overall

    def test_lazy_deletion(self):
        q = _IndexedQueue()
        s0 = q.add((("k",),))
        s1 = q.add((("k",),))
        q.remove(s0)
        assert q.find_earliest((("k",),)) == s1
        assert len(q) == 1

    def test_multi_key_reachability(self):
        q = _IndexedQueue()
        s = q.add((("x",), ("y",)))
        assert q.find_earliest((("y",),)) == s
        q.remove(s)
        assert q.find_earliest((("x",),)) is None


class TestReplaySemantics:
    def test_expected_message(self):
        states = replay(T([P(1, 1, 0, 7), S(2, 0, 1, 7)]))
        assert states[1].expected_total == 1
        assert states[1].unexpected_total == 0
        assert len(states[1].prq) == 0

    def test_unexpected_then_matched(self):
        states = replay(T([S(1, 0, 1, 7), P(2, 1, 0, 7)]))
        assert states[1].unexpected_total == 1
        assert len(states[1].umq) == 0  # consumed by the late post

    def test_pair_ordering(self):
        """Two same-tuple messages must match posts in arrival order."""
        tr = T([S(1, 0, 1, 7), S(2, 0, 1, 7), P(3, 1, 0, 7), P(4, 1, 0, 7)])
        states = replay(tr)
        assert len(states[1].umq) == 0 and len(states[1].prq) == 0

    def test_wildcard_post_matches_earliest_arrival(self):
        tr = T([S(1, 0, 2, 5), S(2, 1, 2, 5), P(3, 2, -1, 5)], n_ranks=3)
        states = replay(tr)
        # one message consumed (the earliest), one still unexpected
        assert len(states[2].umq) == 1
        assert states[2].umq.find_earliest(((1, 5, 0),)) is not None

    def test_any_tag_post(self):
        tr = T([S(1, 0, 1, 42), P(2, 1, 0, -1)])
        states = replay(tr)
        assert len(states[1].umq) == 0

    def test_comm_isolation(self):
        tr = T([S(1, 0, 1, 7, comm=1), P(2, 1, 0, 7, comm=0)])
        states = replay(tr)
        assert len(states[1].umq) == 1
        assert len(states[1].prq) == 1

    def test_depth_observation(self):
        tr = T([S(1, 0, 1, 0), S(2, 0, 1, 1), S(3, 0, 1, 2),
                P(4, 1, 0, 0), P(5, 1, 0, 1), P(6, 1, 0, 2)])
        states = replay(tr)
        assert states[1].umq_stats.max_depth == 3
        assert states[1].umq_stats.attempts == 6

    def test_figure2_summary_fields(self):
        tr = T([S(1, 0, 1, 0), P(2, 1, 0, 0)])
        out = figure2_summary(tr)
        assert out["umq_max_mean"] >= 0
        assert out["unexpected_fraction"] == 1.0


class TestAnalyzer:
    def test_wildcard_counting(self):
        tr = T([S(1, 0, 1, 3), P(2, 1, -1, 3), P(3, 1, 0, -1)])
        row = analyze(tr)
        assert row.src_wildcards == 1
        assert row.tag_wildcards == 1
        assert row.uses_src_wildcard and row.uses_tag_wildcard

    def test_peer_and_tag_counting(self):
        tr = T([S(1, 0, 1, 3), S(2, 0, 1, 4), S(3, 1, 0, 3),
                P(4, 1, 0, 3), P(5, 1, 0, 4), P(6, 0, 1, 3)])
        row = analyze(tr)
        assert row.peers_mean == 1.0 and row.peers_max == 1
        assert row.n_tags == 2
        assert row.header_fits_64bit

    def test_tag_bits(self):
        tr = T([S(1, 0, 1, 2**15)])
        assert analyze(tr).tag_bits_needed == 16

    def test_uniformity_metric(self):
        uniform = T([S(i + 1, 0, 1, 0) for i in range(10)]
                    + [S(20 + i, 1, 0, 0) for i in range(10)])
        assert rank_usage_uniformity(uniform) == pytest.approx(0.0)
        skewed = T([S(i + 1, 0, 1, 0) for i in range(100)], n_ranks=3)
        assert rank_usage_uniformity(skewed) > 1.0

    def test_empty_trace(self):
        row = analyze(T([], n_ranks=2))
        assert row.sends == 0 and row.n_tags == 0
        assert row.tag_entropy == 0.0

    def test_normalized_entropy(self):
        assert normalized_entropy([10, 10, 10, 10]) == pytest.approx(1.0)
        assert normalized_entropy([100]) == 0.0
        assert normalized_entropy([]) == 0.0
        skewed = normalized_entropy([97, 1, 1, 1])
        assert 0.0 < skewed < 0.25
        assert normalized_entropy([5, 5, 0, 0]) == pytest.approx(1.0)

    def test_tag_distribution(self):
        tr = T([S(1, 0, 1, 3), S(2, 0, 1, 3), S(3, 0, 1, 5)])
        assert tag_distribution(tr) == {3: 2, 5: 1}
        row = analyze(tr)
        assert 0.0 < row.tag_entropy < 1.0
        assert row.tags_hashable


class TestUniqueness:
    def test_all_identical(self):
        tr = T([S(i + 1, 0, 1, 7) for i in range(10)])
        u = tuple_uniqueness(tr)
        assert u["dominant_share_mean"] == 1.0
        assert u["duplicate_fraction"] == pytest.approx(0.9)

    def test_all_distinct(self):
        tr = T([S(i + 1, 0, 1, i) for i in range(10)])
        u = tuple_uniqueness(tr)
        assert u["dominant_share_mean"] == pytest.approx(0.1)
        assert u["duplicate_fraction"] == 0.0

    def test_per_destination(self):
        tr = T([S(1, 0, 1, 0), S(2, 0, 1, 0), S(3, 0, 1, 1)])
        shares = per_destination_shares(tr)
        assert shares[1] == pytest.approx(2 / 3)

    def test_destinations_in_first_message_order(self):
        tr = T([S(1, 0, 2, 0), S(2, 1, 0, 0), S(3, 0, 1, 0), S(4, 1, 0, 5)],
               n_ranks=3)
        assert list(per_destination_shares(tr).items()) == \
            [(2, 1.0), (0, 0.5), (1, 1.0)]

    def test_tuples_keyed_exactly_for_any_tag_value(self):
        # (src, tag) pairs that would alias under a naive bit packing
        tr = T([S(1, 0, 1, 2**40), S(2, 0, 1, -5), S(3, 1, 0, 2**40),
                S(4, 0, 1, 2**40)])
        assert per_destination_shares(tr) == {1: 2 / 3, 0: 1.0}
        assert tuple_uniqueness(tr)["duplicate_fraction"] == 0.25

    def test_empty(self):
        assert tuple_uniqueness(T([], n_ranks=2))["dominant_share_mean"] == 0.0
