"""Matcher correctness: every matcher against the MPI reference oracle.

The central invariants of the reproduction:

* matrix and partitioned matchers produce *exactly* the oracle assignment
  (full MPI semantics / no-src-wildcard semantics);
* the list baseline produces exactly the oracle assignment (it IS the
  textbook implementation);
* the hash matcher produces a valid unordered assignment that is
  complete on fully-matchable workloads;
* the pedantic warp-by-warp matrix path equals the fast path bit for bit.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.envelope import ANY_SOURCE, ANY_TAG, EnvelopeBatch
from repro.core.hash_matching import HashMatcher, HashTableConfig
from repro.core.list_matching import ListMatcher
from repro.core.matrix_matching import MatrixMatcher
from repro.core.partitioned import PartitionedMatcher
from repro.core.result import NO_MATCH
from repro.core.verify import (SemanticsViolation, check_mpi_ordering,
                               check_relaxed, reference_match)
from tests.conftest import partial_match_pair, permuted_pair, with_wildcards


# Hypothesis strategy: a small workload with optional wildcards.
@st.composite
def workloads(draw, max_n=96, allow_wildcards=True):
    n_msg = draw(st.integers(min_value=0, max_value=max_n))
    n_req = draw(st.integers(min_value=0, max_value=max_n))
    n_ranks = draw(st.integers(min_value=1, max_value=8))
    n_tags = draw(st.integers(min_value=1, max_value=4))
    msrc = draw(st.lists(st.integers(0, n_ranks - 1), min_size=n_msg,
                         max_size=n_msg))
    mtag = draw(st.lists(st.integers(0, n_tags - 1), min_size=n_msg,
                         max_size=n_msg))
    lo = ANY_SOURCE if allow_wildcards else 0
    rsrc = draw(st.lists(st.integers(lo, n_ranks - 1), min_size=n_req,
                         max_size=n_req))
    tlo = ANY_TAG if allow_wildcards else 0
    rtag = draw(st.lists(st.integers(tlo, n_tags - 1), min_size=n_req,
                         max_size=n_req))
    return (EnvelopeBatch(msrc, mtag), EnvelopeBatch(rsrc, rtag))


class TestReferenceOracle:
    def test_empty(self):
        out = reference_match(EnvelopeBatch.empty(), EnvelopeBatch.empty())
        assert out.matched_count == 0

    def test_ordering_same_source(self):
        msgs = EnvelopeBatch(src=[1, 1, 1], tag=[7, 7, 7])
        reqs = EnvelopeBatch(src=[1, 1], tag=[7, 7])
        out = reference_match(msgs, reqs)
        # non-overtaking: earliest messages matched first, in request order
        assert list(out.request_to_message) == [0, 1]

    def test_wildcard_takes_earliest(self):
        msgs = EnvelopeBatch(src=[5, 3], tag=[1, 1])
        reqs = EnvelopeBatch(src=[ANY_SOURCE], tag=[1])
        out = reference_match(msgs, reqs)
        assert out.request_to_message[0] == 0

    def test_no_match_leaves_sentinel(self):
        msgs = EnvelopeBatch(src=[1], tag=[1])
        reqs = EnvelopeBatch(src=[2], tag=[1])
        out = reference_match(msgs, reqs)
        assert out.request_to_message[0] == NO_MATCH

    def test_checker_catches_bad_pairing(self):
        msgs = EnvelopeBatch(src=[1, 2], tag=[0, 0])
        reqs = EnvelopeBatch(src=[1, 2], tag=[0, 0])
        good = reference_match(msgs, reqs)
        check_mpi_ordering(msgs, reqs, good)
        bad = reference_match(msgs, reqs)
        bad.request_to_message = np.array([1, 0])  # swapped: envelope mismatch
        with pytest.raises(SemanticsViolation):
            check_mpi_ordering(msgs, reqs, bad)

    def test_checker_catches_overtaking(self):
        msgs = EnvelopeBatch(src=[1, 1], tag=[0, 0])
        reqs = EnvelopeBatch(src=[1, 1], tag=[0, 0])
        out = reference_match(msgs, reqs)
        out.request_to_message = np.array([1, 0])  # valid pairs, wrong order
        with pytest.raises(SemanticsViolation):
            check_mpi_ordering(msgs, reqs, out)


class TestMatrixMatcher:
    @given(workloads())
    @settings(max_examples=60, deadline=None)
    def test_equals_oracle(self, wl):
        msgs, reqs = wl
        out = MatrixMatcher().match(msgs, reqs)
        ref = reference_match(msgs, reqs)
        assert np.array_equal(out.request_to_message, ref.request_to_message)

    @given(workloads(max_n=64))
    @settings(max_examples=20, deadline=None)
    def test_pedantic_equals_fast(self, wl):
        msgs, reqs = wl
        m = MatrixMatcher(warps_per_cta=2, window=8)
        fast = m.match(msgs, reqs)
        slow = m.match_pedantic(msgs, reqs)
        assert np.array_equal(fast.request_to_message,
                              slow.request_to_message)

    def test_multiblock_ordering(self, rng):
        """Queues longer than the matrix capacity keep MPI order."""
        m = MatrixMatcher(warps_per_cta=1, window=4)  # capacity 32/iteration
        msgs, reqs = permuted_pair(rng, 150, n_ranks=5, n_tags=3)
        reqs = with_wildcards(rng, reqs)
        out = m.match(msgs, reqs)
        check_mpi_ordering(msgs, reqs, out)
        assert out.iterations == 5  # ceil(150/32)

    def test_all_wildcard_requests(self):
        msgs = EnvelopeBatch(src=[4, 2, 9], tag=[1, 2, 3])
        reqs = EnvelopeBatch(src=[ANY_SOURCE] * 3, tag=[ANY_TAG] * 3)
        out = MatrixMatcher().match(msgs, reqs)
        assert list(out.request_to_message) == [0, 1, 2]

    def test_duplicate_tuples_matched_in_order(self):
        msgs = EnvelopeBatch(src=[1] * 40, tag=[2] * 40)
        reqs = EnvelopeBatch(src=[1] * 40, tag=[2] * 40)
        out = MatrixMatcher(warps_per_cta=1).match(msgs, reqs)
        assert list(out.request_to_message) == list(range(40))

    def test_empty_sides(self):
        e = EnvelopeBatch.empty()
        b = EnvelopeBatch(src=[1], tag=[1])
        assert MatrixMatcher().match(e, b).matched_count == 0
        assert MatrixMatcher().match(b, e).matched_count == 0

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            MatrixMatcher(warps_per_cta=0)
        with pytest.raises(ValueError):
            MatrixMatcher(warps_per_cta=33)
        with pytest.raises(ValueError):
            MatrixMatcher(window=0)

    def test_wildcard_messages_rejected(self):
        msgs = EnvelopeBatch(src=[ANY_SOURCE], tag=[1])
        with pytest.raises(ValueError):
            MatrixMatcher().match(msgs, msgs)

    def test_adaptive_compaction_skips_sparse_matches(self, rng):
        """'In cases when the number of matches is very low, the bubbles
        can be tolerated and the compaction can be skipped.'"""
        msgs, reqs = partial_match_pair(rng, 1024, 0.1, n_ranks=64,
                                        n_tags=64)
        always = MatrixMatcher(compaction=True).match(msgs, reqs)
        adaptive = MatrixMatcher(compaction=True,
                                 compaction_policy="adaptive").match(
            msgs, reqs)
        assert np.array_equal(always.request_to_message,
                              adaptive.request_to_message)
        assert adaptive.seconds < always.seconds
        # dense matches: both compact, identical cost
        m2, r2 = permuted_pair(rng, 512)
        a2 = MatrixMatcher(compaction=True).match(m2, r2)
        b2 = MatrixMatcher(compaction=True,
                           compaction_policy="adaptive").match(m2, r2)
        assert a2.seconds == pytest.approx(b2.seconds)

    def test_compaction_policy_validation(self):
        with pytest.raises(ValueError):
            MatrixMatcher(compaction_policy="sometimes")

    def test_timing_attached(self, rng):
        msgs, reqs = permuted_pair(rng, 64)
        out = MatrixMatcher().match(msgs, reqs)
        assert out.seconds > 0
        assert out.matches_per_second() > 0
        assert "scan" in out.meta["phase_cycles"]
        assert "reduce" in out.meta["phase_cycles"]


class TestListMatcher:
    @given(workloads())
    @settings(max_examples=40, deadline=None)
    def test_equals_oracle(self, wl):
        msgs, reqs = wl
        out = ListMatcher().match(msgs, reqs)
        ref = reference_match(msgs, reqs)
        assert np.array_equal(out.request_to_message, ref.request_to_message)

    def test_search_length_shrinks_as_list_drains(self):
        """Matching from the head must unlink entries: matching the same
        tuple repeatedly always costs one visit."""
        msgs = EnvelopeBatch(src=[1] * 100, tag=[0] * 100)
        reqs = EnvelopeBatch(src=[1] * 100, tag=[0] * 100)
        out = ListMatcher().match(msgs, reqs)
        assert out.meta["mean_search_length"] == pytest.approx(1.0)

    def test_reversed_queue_quadratic_traversal(self):
        """Requests in reverse queue order traverse ~n/2 entries each."""
        n = 64
        msgs = EnvelopeBatch(src=list(range(n)), tag=[0] * n)
        reqs = EnvelopeBatch(src=list(reversed(range(n))), tag=[0] * n)
        out = ListMatcher().match(msgs, reqs)
        assert out.meta["mean_search_length"] == pytest.approx((n + 1) / 2)


class TestHashMatcher:
    @given(workloads(allow_wildcards=False))
    @settings(max_examples=40, deadline=None)
    def test_valid_on_arbitrary_workloads(self, wl):
        """Arbitrary (possibly unmatchable) workloads: every reported pair
        must be envelope-valid; completeness is only guaranteed when every
        message has a partner (see the starvation caveat in the module
        docstring)."""
        msgs, reqs = wl
        out = HashMatcher().match(msgs, reqs)
        check_relaxed(msgs, reqs, out, require_complete=False)

    @given(st.integers(min_value=0, max_value=128), st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_complete_on_matchable_workloads(self, n, seed):
        """Fully-matchable workloads (requests = permutation of messages)
        always match completely: every live table entry has a pending
        partner, so every round makes progress."""
        rng = np.random.default_rng(seed)
        msgs = EnvelopeBatch.random(n, n_ranks=8, n_tags=4, rng=rng)
        reqs = msgs.take(rng.permutation(n))
        out = HashMatcher().match(msgs, reqs)
        check_relaxed(msgs, reqs, out, require_complete=True)
        assert out.matched_count == n

    @pytest.mark.parametrize("msg, req", [
        ((0, 2**16, 0), (1, 0, 0)),    # the tag spills into src
        ((2**32, 0, 0), (0, 0, 1)),    # the src spills into comm
    ])
    def test_out_of_range_fields_raise_instead_of_aliasing(self, msg, req):
        """Each pair packs to the same 64-bit key, which the hash matcher
        would pair although the tuples differ; neither a validated nor a
        ``view``-built batch may reach the hash table."""
        def view(src, tag, comm):
            return EnvelopeBatch.view(
                *(np.array([v], dtype=np.int64) for v in (src, tag, comm)))

        with pytest.raises(ValueError):
            HashMatcher().match(
                EnvelopeBatch(src=[msg[0]], tag=[msg[1]], comm=[msg[2]]),
                EnvelopeBatch(src=[req[0]], tag=[req[1]], comm=[req[2]]))
        with pytest.raises(ValueError):
            HashMatcher().match(view(*msg), view(*req))

    def test_heavy_duplicates_complete(self):
        msgs = EnvelopeBatch(src=[3] * 200, tag=[7] * 200)
        out = HashMatcher().match(msgs, msgs)
        check_relaxed(msgs, msgs, out, require_complete=True)
        assert out.matched_count == 200
        assert out.iterations >= 50  # two table slots drain 2+2 per round

    def test_unique_tuples_single_round(self, rng):
        n = 256
        msgs = EnvelopeBatch(src=np.arange(n), tag=np.zeros(n, dtype=int))
        reqs = msgs.take(rng.permutation(n))
        out = HashMatcher(config=HashTableConfig(scale=4.0)).match(msgs, reqs)
        assert out.matched_count == n
        assert out.iterations <= 3  # near-collision-free

    def test_wildcards_rejected(self):
        reqs = EnvelopeBatch(src=[ANY_SOURCE], tag=[0])
        msgs = EnvelopeBatch(src=[0], tag=[0])
        with pytest.raises(ValueError):
            HashMatcher().match(msgs, reqs)

    def test_unmatchable_messages_left_unexpected(self):
        msgs = EnvelopeBatch(src=[1, 2], tag=[0, 0])
        reqs = EnvelopeBatch(src=[1], tag=[0])
        out = HashMatcher().match(msgs, reqs)
        assert out.matched_count == 1
        assert list(out.unmatched_message_indices()) == [1]

    def test_identity_hash_still_correct(self, rng):
        """The pathological no-mixing hash must stay functionally correct,
        only slower (more rounds)."""
        msgs, reqs = permuted_pair(rng, 128, n_ranks=32, n_tags=4)
        cfg = HashTableConfig(hash_name="identity", scale=4.0)
        out = HashMatcher(config=cfg).match(msgs, reqs)
        check_relaxed(msgs, reqs, out, require_complete=True)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            HashTableConfig(scale=0)
        with pytest.raises(ValueError):
            HashTableConfig(primary_factor=0)
        with pytest.raises(ValueError):
            HashTableConfig(hash_name="md5")
        with pytest.raises(ValueError):
            HashMatcher(n_ctas=0)

    def test_table_sizes_follow_five_to_one(self):
        p, s = HashTableConfig().sizes(1024)
        assert p == 5 * s

    @given(st.integers(min_value=1, max_value=8),
           st.integers(min_value=0, max_value=1000))
    @settings(max_examples=25, deadline=None)
    def test_probe_depth_preserves_correctness(self, depth, seed):
        rng = np.random.default_rng(seed)
        msgs = EnvelopeBatch.random(96, n_ranks=6, n_tags=3, rng=rng)
        reqs = msgs.take(rng.permutation(96))
        cfg = HashTableConfig(probe_depth=depth, scale=1.2)
        out = HashMatcher(config=cfg).match(msgs, reqs)
        check_relaxed(msgs, reqs, out, require_complete=True)

    def test_deeper_probing_reduces_rounds_on_tight_tables(self, rng):
        msgs, reqs = permuted_pair(rng, 512, n_ranks=16, n_tags=8)
        shallow = HashMatcher(config=HashTableConfig(
            probe_depth=1, scale=1.05)).match(msgs, reqs)
        deep = HashMatcher(config=HashTableConfig(
            probe_depth=8, scale=1.05)).match(msgs, reqs)
        assert deep.iterations < shallow.iterations

    def test_probe_depth_validation(self):
        with pytest.raises(ValueError):
            HashTableConfig(probe_depth=0)

    def test_replicas_aggregate_rate(self, rng):
        msgs, reqs = permuted_pair(rng, 256, n_ranks=64, n_tags=16)
        o1 = HashMatcher(n_ctas=1).match(msgs, reqs)
        o32 = HashMatcher(n_ctas=32).match(msgs, reqs)
        assert o32.replicas == 32
        assert o32.matches_per_second() > o1.matches_per_second()


class TestPartitionedMatcher:
    @given(workloads(allow_wildcards=False),
           st.integers(min_value=1, max_value=8))
    @settings(max_examples=40, deadline=None)
    def test_equals_oracle(self, wl, n_queues):
        msgs, reqs = wl
        out = PartitionedMatcher(n_queues=n_queues).match(msgs, reqs)
        ref = reference_match(msgs, reqs)
        assert np.array_equal(out.request_to_message, ref.request_to_message)

    def test_tag_wildcards_allowed(self, rng):
        msgs, reqs = permuted_pair(rng, 100, n_ranks=8)
        reqs = EnvelopeBatch(reqs.src,
                             np.where(rng.random(100) < 0.3, ANY_TAG,
                                      reqs.tag))
        out = PartitionedMatcher(n_queues=4).match(msgs, reqs)
        check_mpi_ordering(msgs, reqs, out)

    def test_src_wildcards_rejected(self):
        msgs = EnvelopeBatch(src=[0], tag=[0])
        reqs = EnvelopeBatch(src=[ANY_SOURCE], tag=[0])
        with pytest.raises(ValueError):
            PartitionedMatcher().match(msgs, reqs)

    def test_queue_assignment_static(self):
        p = PartitionedMatcher(n_queues=4)
        src = np.array([0, 1, 4, 5, 9])
        assert np.array_equal(p.queue_of(src), [0, 1, 0, 1, 1])

    def test_more_queues_faster(self, rng):
        msgs, reqs = permuted_pair(rng, 1024, n_ranks=64, n_tags=4)
        r1 = PartitionedMatcher(n_queues=1).match(msgs, reqs)
        r8 = PartitionedMatcher(n_queues=8).match(msgs, reqs)
        assert r8.matches_per_second() > 2 * r1.matches_per_second()

    def test_cta_annotation(self, rng):
        msgs, reqs = permuted_pair(rng, 4096, n_ranks=64, n_tags=4)
        out = PartitionedMatcher(n_queues=8).match(msgs, reqs)
        # one thread per message at warp granularity: ceil(4096/1024) = 4
        # CTAs plus at most one more from per-queue warp rounding
        assert out.meta["ctas"] in (4, 5)
        assert out.meta["waves"] >= 2  # beyond the two resident CTAs

    def test_narrow_warps_cut_provisioning_waste(self, rng):
        """Variable warp sizes (Section VII-C): many tiny queues waste
        most of their 32-lane warps; 8-lane warps pack them into fewer
        CTAs and avoid wave serialization."""
        msgs, reqs = permuted_pair(rng, 1024, n_ranks=256, n_tags=4)
        wide = PartitionedMatcher(n_queues=128, warp_size=32).match(
            msgs, reqs)
        narrow = PartitionedMatcher(n_queues=128, warp_size=8).match(
            msgs, reqs)
        assert np.array_equal(wide.request_to_message,
                              narrow.request_to_message)
        assert narrow.meta["ctas"] < wide.meta["ctas"]
        assert narrow.matches_per_second() > wide.matches_per_second()

    @given(workloads(allow_wildcards=False),
           st.integers(min_value=1, max_value=8))
    @settings(max_examples=30, deadline=None)
    def test_tag_partitioning_equals_oracle(self, wl, n_queues):
        """Tag-partitioned matching preserves MPI semantics too: same-tag
        same-source messages always share a queue."""
        msgs, reqs = wl
        out = PartitionedMatcher(n_queues=n_queues,
                                 partition_key="tag").match(msgs, reqs)
        ref = reference_match(msgs, reqs)
        assert np.array_equal(out.request_to_message, ref.request_to_message)

    def test_tag_partitioning_allows_src_wildcards(self, rng):
        msgs, reqs = permuted_pair(rng, 120, n_ranks=8, n_tags=16)
        reqs = EnvelopeBatch(
            np.where(rng.random(120) < 0.3, ANY_SOURCE, reqs.src), reqs.tag)
        out = PartitionedMatcher(n_queues=4,
                                 partition_key="tag").match(msgs, reqs)
        check_mpi_ordering(msgs, reqs, out)

    def test_tag_partitioning_rejects_tag_wildcards(self):
        msgs = EnvelopeBatch(src=[0], tag=[0])
        reqs = EnvelopeBatch(src=[0], tag=[ANY_TAG])
        with pytest.raises(ValueError):
            PartitionedMatcher(partition_key="tag").match(msgs, reqs)

    def test_invalid_partition_key(self):
        with pytest.raises(ValueError):
            PartitionedMatcher(partition_key="comm")

    def test_multi_sm_reduces_waves(self, rng):
        msgs, reqs = permuted_pair(rng, 8192, n_ranks=64, n_tags=8)
        one = PartitionedMatcher(n_queues=16, sm_count=1).match(msgs, reqs)
        four = PartitionedMatcher(n_queues=16, sm_count=4).match(msgs, reqs)
        assert np.array_equal(one.request_to_message,
                              four.request_to_message)
        assert four.meta["waves"] < one.meta["waves"]
        assert four.matches_per_second() > one.matches_per_second()

    def test_sm_count_validation(self):
        with pytest.raises(ValueError):
            PartitionedMatcher(sm_count=0)
        with pytest.raises(ValueError):
            PartitionedMatcher(sm_count=999)

    def test_single_rank_imbalance(self):
        """All traffic on one rank collapses to single-queue performance."""
        msgs = EnvelopeBatch(src=[5] * 256, tag=list(range(256)))
        reqs = EnvelopeBatch(src=[5] * 256, tag=list(reversed(range(256))))
        balanced = PartitionedMatcher(n_queues=8)
        out = balanced.match(msgs, reqs)
        assert out.meta["n_active_queues"] == 1
        check_mpi_ordering(msgs, reqs, out)
