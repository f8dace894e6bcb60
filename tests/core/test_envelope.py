"""Envelope and batch tests, including the 64-bit packing property."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.envelope import (ANY_SOURCE, ANY_TAG, MAX_COMM, MAX_SRC,
                                 MAX_TAG, Envelope, EnvelopeBatch, pack64,
                                 unpack64)
from repro.serve.batching import concat_batches

src_s = st.integers(min_value=0, max_value=MAX_SRC)
tag_s = st.integers(min_value=0, max_value=MAX_TAG)
comm_s = st.integers(min_value=0, max_value=MAX_COMM)


class TestPacking:
    @given(src_s, tag_s, comm_s)
    def test_roundtrip(self, src, tag, comm):
        assert unpack64(pack64(src, tag, comm)) == (src, tag, comm)

    @given(src_s, tag_s, comm_s, src_s, tag_s, comm_s)
    @settings(max_examples=50)
    def test_injective(self, s1, t1, c1, s2, t2, c2):
        if (s1, t1, c1) != (s2, t2, c2):
            assert pack64(s1, t1, c1) != pack64(s2, t2, c2)

    def test_range_validation(self):
        with pytest.raises(ValueError):
            pack64(-1, 0)
        with pytest.raises(ValueError):
            pack64(0, MAX_TAG + 1)
        with pytest.raises(ValueError):
            pack64(0, 0, MAX_COMM + 1)

    def test_envelope_packed_roundtrip(self):
        e = Envelope(src=12345, tag=77, comm=3)
        assert Envelope.from_packed(e.packed()) == e

    @pytest.mark.parametrize("src, tag, comm", [
        (5, 1, 0), (5, 1, 2**15), (5, 1, MAX_COMM),
        (MAX_SRC, MAX_TAG, MAX_COMM)])
    def test_int64_word_roundtrip(self, src, tag, comm):
        """``packed()`` holds int64 words, negative from comm ``2**15``
        on; the scalar inverse takes them as they are."""
        word = int(EnvelopeBatch([src], [tag], [comm]).packed()[0])
        assert (word < 0) == (comm >= 2**15)
        assert unpack64(word) == (src, tag, comm)
        assert Envelope.from_packed(word) == Envelope(src, tag, comm)
        assert word & (2**64 - 1) == pack64(src, tag, comm)

    @pytest.mark.parametrize("word", [-2**63 - 1, 2**64])
    def test_unpack_rejects_wider_words(self, word):
        with pytest.raises(ValueError, match="64-bit"):
            unpack64(word)

    def test_wildcard_cannot_pack(self):
        with pytest.raises(ValueError):
            Envelope(src=ANY_SOURCE, tag=0).packed()


class TestEnvelope:
    def test_accepts_exact(self):
        req = Envelope(src=3, tag=7)
        assert req.accepts(Envelope(src=3, tag=7))
        assert not req.accepts(Envelope(src=4, tag=7))
        assert not req.accepts(Envelope(src=3, tag=8))

    def test_accepts_wildcards(self):
        assert Envelope(src=ANY_SOURCE, tag=7).accepts(Envelope(src=99, tag=7))
        assert Envelope(src=3, tag=ANY_TAG).accepts(Envelope(src=3, tag=99))
        assert Envelope(src=ANY_SOURCE, tag=ANY_TAG).accepts(
            Envelope(src=1, tag=2))

    def test_communicator_never_wildcards(self):
        req = Envelope(src=ANY_SOURCE, tag=ANY_TAG, comm=1)
        assert not req.accepts(Envelope(src=0, tag=0, comm=0))

    def test_message_side_wildcard_rejected(self):
        with pytest.raises(ValueError):
            Envelope(src=0, tag=0).accepts(Envelope(src=ANY_SOURCE, tag=0))

    def test_validation(self):
        with pytest.raises(ValueError):
            Envelope(src=-2, tag=0)
        with pytest.raises(ValueError):
            Envelope(src=0, tag=MAX_TAG + 1)
        with pytest.raises(ValueError):
            Envelope(src=0, tag=0, comm=-1)


class TestEnvelopeBatch:
    def test_len_getitem_iter(self):
        b = EnvelopeBatch(src=[1, 2], tag=[3, 4], comm=[0, 1])
        assert len(b) == 2
        assert b[1] == Envelope(src=2, tag=4, comm=1)
        assert list(b) == [Envelope(1, 3, 0), Envelope(2, 4, 1)]

    def test_slice_returns_batch(self):
        b = EnvelopeBatch(src=[1, 2, 3], tag=[0, 0, 0])
        sub = b[1:]
        assert isinstance(sub, EnvelopeBatch)
        assert len(sub) == 2

    def test_from_envelopes_roundtrip(self):
        envs = [Envelope(1, 2), Envelope(3, 4, comm=1)]
        assert list(EnvelopeBatch.from_envelopes(envs)) == envs

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            EnvelopeBatch(src=[1, 2], tag=[3])
        with pytest.raises(ValueError):
            EnvelopeBatch(src=[[1]], tag=[[1]])
        with pytest.raises(ValueError):
            EnvelopeBatch(src=[-5], tag=[0])
        with pytest.raises(ValueError):
            EnvelopeBatch(src=[0], tag=[0], comm=[-1])

    @pytest.mark.parametrize("field", ["src", "tag", "comm"])
    def test_upper_bounds_rejected(self, field):
        """The packed layout is ``comm:16 | src:32 | tag:16``: a value one
        past its field's width would spill into the neighbouring field
        and alias another tuple's key, so construction refuses it, as
        :class:`Envelope` does."""
        limit = {"src": MAX_SRC, "tag": MAX_TAG, "comm": MAX_COMM}[field]
        cols = {"src": [0], "tag": [0], "comm": [0]}
        cols[field] = [limit + 1]
        with pytest.raises(ValueError):
            EnvelopeBatch(**cols)

    def test_max_values_accepted(self):
        b = EnvelopeBatch(src=[MAX_SRC], tag=[MAX_TAG], comm=[MAX_COMM])
        assert b[0] == Envelope(src=MAX_SRC, tag=MAX_TAG, comm=MAX_COMM)
        packable = EnvelopeBatch(src=[MAX_SRC], tag=[MAX_TAG])
        assert int(packable.packed()[0]) == pack64(MAX_SRC, MAX_TAG)

    def test_packed_covers_every_comm(self):
        """A comm of ``2**15`` or more packs too: the key column holds
        :func:`pack64`'s 64 bits as int64, so it reads negative, and the
        all-maximum envelope reads -1."""
        b = EnvelopeBatch(src=[5, 5, MAX_SRC], tag=[1, 1, MAX_TAG],
                          comm=[2**15 - 1, 40000, MAX_COMM])
        words = [pack64(5, 1, 2**15 - 1), pack64(5, 1, 40000),
                 pack64(MAX_SRC, MAX_TAG, MAX_COMM)]
        want = np.array(words, dtype=np.uint64).view(np.int64)
        assert np.array_equal(b.packed(), want)
        assert b.packed()[0] == words[0]
        assert b.packed()[2] == -1

    @pytest.mark.parametrize("src, tag", [(0, MAX_TAG + 1),
                                          (MAX_SRC + 1, 0)])
    def test_view_built_overflow_raises_from_packed(self, src, tag):
        """``view`` skips ``__init__``'s checks, so ``packed()`` checks
        the field widths itself before building the key column."""
        b = EnvelopeBatch.view(np.array([src], dtype=np.int64),
                               np.array([tag], dtype=np.int64),
                               np.zeros(1, dtype=np.int64))
        with pytest.raises(ValueError, match="too wide"):
            b.packed()

    def test_wildcard_mask(self):
        b = EnvelopeBatch(src=[1, ANY_SOURCE, 2], tag=[ANY_TAG, 0, 0])
        assert b.has_wildcards
        assert np.array_equal(b.wildcard_mask(), [True, True, False])
        with pytest.raises(ValueError):
            b.assert_concrete()

    def test_packed_matches_scalar(self):
        b = EnvelopeBatch(src=[5, 6], tag=[1, 2], comm=[0, 3])
        packed = b.packed()
        assert packed[0] == b[0].packed()
        assert packed[1] == b[1].packed()

    def test_match_matrix_agrees_with_accepts(self, rng):
        msgs = EnvelopeBatch.random(20, n_ranks=4, n_tags=3, rng=rng)
        reqs = EnvelopeBatch(
            src=np.where(rng.random(15) < 0.3, ANY_SOURCE,
                         rng.integers(0, 4, 15)),
            tag=np.where(rng.random(15) < 0.3, ANY_TAG,
                         rng.integers(0, 3, 15)))
        mtx = msgs.match_matrix(reqs)
        for i, msg in enumerate(msgs):
            for j, req in enumerate(reqs):
                assert mtx[i, j] == req.accepts(msg)

    def test_match_matrix_respects_comm(self):
        msgs = EnvelopeBatch(src=[0], tag=[0], comm=[1])
        reqs = EnvelopeBatch(src=[0], tag=[0], comm=[0])
        assert not msgs.match_matrix(reqs).any()

    def test_concatenate_take(self):
        a = EnvelopeBatch(src=[1], tag=[2])
        b = EnvelopeBatch(src=[3], tag=[4])
        c = a.concatenate(b)
        assert len(c) == 2 and c[1] == Envelope(3, 4)
        assert c.take(np.array([1]))[0] == Envelope(3, 4)

    def test_empty_batch(self):
        """``empty()`` is a view over zero-length int64 columns: it packs,
        snapshots and concatenates like any validated batch."""
        empty = EnvelopeBatch.empty()
        assert len(empty) == 0
        for col in (empty.src, empty.tag, empty.comm):
            assert col.ndim == 1 and col.dtype == np.int64 and col.size == 0
        keys = empty.packed()
        assert keys.dtype == np.int64 and keys.shape == (0,)
        back = EnvelopeBatch.from_state_dict(EnvelopeBatch.empty().state_dict())
        assert back == empty and back.src.dtype == np.int64
        b = EnvelopeBatch(src=[1, 2], tag=[3, 4], comm=[0, 1])
        assert concat_batches([EnvelopeBatch.empty(), b]) == b
        assert EnvelopeBatch.empty().concatenate(b) == b
        assert concat_batches([]) == empty

    def test_equality(self):
        a = EnvelopeBatch(src=[1], tag=[2])
        assert a == EnvelopeBatch(src=[1], tag=[2])
        assert a != EnvelopeBatch(src=[1], tag=[3])

    def test_random_reproducible(self):
        b1 = EnvelopeBatch.random(50, rng=np.random.default_rng(5))
        b2 = EnvelopeBatch.random(50, rng=np.random.default_rng(5))
        assert b1 == b2
        assert not b1.has_wildcards
