"""Hypothesis fuzz for the snapshot codec and the cluster wire frames.

Two layers, one contract each:

* ``repro.serve.state.dumps`` / ``loads`` -- any snapshotable value
  (nested containers of scalars, strings, bytes, and ndarrays of every
  supported dtype/shape) round-trips **byte-identically**:
  ``dumps(loads(dumps(x))) == dumps(x)``.  Byte-identity is stronger
  than value equality and is what checkpoint diffing and the identity
  suites lean on.
* ``repro.serve.wire`` frames -- the same property through
  ``encode_frame`` / ``decode_frame`` for every frame kind, plus the
  integrity guarantee: **every** single-bit corruption of a frame or a
  snapshot blob raises (CRC32 detects all 1-bit errors); corruption is
  never silent.

A payload can also pass every framing check -- it was *written* wrong,
not corrupted in flight -- and still not decode.  Both decoders turn
that into their own error type (``SnapshotError`` / ``WireError``) with
the cause chained, never a raw ``TypeError`` or ``ValueError``.
"""

from __future__ import annotations

import struct
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serve import (FRAME_KINDS, WIRE_MAGIC, WIRE_VERSION,
                         SnapshotError, Ticket, WireError, decode_frame,
                         encode_frame)
from repro.serve.state import (_T_DICT, _T_LIST, _T_NDARRAY, _T_NONE,
                               _T_STR, _T_TUPLE, _T_TYPED, _TYPES,
                               SNAPSHOT_MAGIC, SNAPSHOT_VERSION, dumps,
                               loads)

# ---------------------------------------------------------------------------
# Strategies
# ---------------------------------------------------------------------------

# NaN breaks value-equality assertions; the byte-identity property
# would hold regardless, but keeping comparisons simple is worth more
# than fuzzing one float bit pattern.
_floats = st.floats(allow_nan=False, allow_infinity=True, width=64)

_scalars = st.one_of(
    st.none(), st.booleans(),
    st.integers(min_value=-(2 ** 130), max_value=2 ** 130),
    _floats,
    st.text(max_size=32),
    st.binary(max_size=48),
)

_dtypes = st.sampled_from([np.int8, np.uint8, np.int16, np.int32,
                           np.int64, np.uint64, np.float32, np.float64,
                           np.bool_])


@st.composite
def ndarrays(draw):
    dtype = np.dtype(draw(_dtypes))
    # 0-d arrays are out of scope: the codec treats them as scalars, and
    # no snapshot producer emits them.
    shape = tuple(draw(st.lists(st.integers(0, 5), min_size=1,
                                max_size=3)))
    n = int(np.prod(shape, dtype=np.int64))
    raw = draw(st.binary(min_size=n * dtype.itemsize,
                         max_size=n * dtype.itemsize))
    arr = np.frombuffer(raw, dtype=dtype).reshape(shape).copy()
    if dtype.kind == "f":
        # Scrub NaNs from the raw-byte reinterpretation (see _floats).
        arr = np.nan_to_num(arr, nan=0.0)
    return arr


_leaves = st.one_of(_scalars, ndarrays())

_values = st.recursive(
    _leaves,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(st.text(max_size=8), children, max_size=4),
    ),
    max_leaves=12,
)


def assert_equal_tree(a, b):
    if isinstance(a, np.ndarray):
        assert isinstance(b, np.ndarray)
        assert a.dtype == b.dtype and a.shape == b.shape
        assert np.array_equal(a, b)
    elif isinstance(a, dict):
        assert list(a) == list(b)
        for k in a:
            assert_equal_tree(a[k], b[k])
    elif isinstance(a, (list, tuple)):
        assert type(a) is type(b) and len(a) == len(b)
        for x, y in zip(a, b):
            assert_equal_tree(x, y)
    else:
        assert a == b and type(a) is type(b)


def sample_bit_positions(n_bits: int, limit: int = 256) -> list[int]:
    """Every bit for small blobs; an evenly-spread + header-dense sample
    for large ones (exhaustive flipping is quadratic in blob size)."""
    if n_bits <= limit:
        return list(range(n_bits))
    head = list(range(min(128, n_bits)))
    step = max(1, n_bits // (limit - len(head)))
    return head + list(range(128, n_bits, step))


# ---------------------------------------------------------------------------
# Snapshot codec
# ---------------------------------------------------------------------------

class TestSnapshotFuzz:
    @settings(max_examples=150, deadline=None)
    @given(_values)
    def test_round_trip_is_byte_identical(self, obj):
        blob = dumps(obj)
        rt = loads(blob)
        assert_equal_tree(rt, obj)
        assert dumps(rt) == blob

    @settings(max_examples=40, deadline=None)
    @given(_values)
    def test_every_single_bit_flip_is_rejected(self, obj):
        blob = dumps(obj)
        for pos in sample_bit_positions(len(blob) * 8):
            corrupt = bytearray(blob)
            corrupt[pos // 8] ^= 1 << (pos % 8)
            with pytest.raises(SnapshotError):
                loads(bytes(corrupt))

    @settings(max_examples=60, deadline=None)
    @given(_values, st.integers(0, 64))
    def test_truncation_is_rejected(self, obj, cut):
        blob = dumps(obj)
        if cut >= len(blob):
            cut = len(blob) - 1
        with pytest.raises(SnapshotError):
            loads(blob[:cut])


# ---------------------------------------------------------------------------
# Wire frames
# ---------------------------------------------------------------------------

class TestWireFuzz:
    @settings(max_examples=150, deadline=None)
    @given(st.sampled_from(sorted(FRAME_KINDS)), _values)
    def test_frame_round_trip_is_byte_identical(self, kind, payload):
        frame = encode_frame(kind, payload)
        got_kind, got_payload = decode_frame(frame)
        assert got_kind == kind
        assert_equal_tree(got_payload, payload)
        assert encode_frame(got_kind, got_payload) == frame

    @settings(max_examples=30, deadline=None)
    @given(st.sampled_from(sorted(FRAME_KINDS)), _values)
    def test_every_single_bit_flip_is_rejected(self, kind, payload):
        frame = encode_frame(kind, payload)
        for pos in sample_bit_positions(len(frame) * 8):
            corrupt = bytearray(frame)
            corrupt[pos // 8] ^= 1 << (pos % 8)
            with pytest.raises((WireError, SnapshotError)):
                decode_frame(bytes(corrupt))

    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from(sorted(FRAME_KINDS)), _values,
           st.integers(0, 64))
    def test_truncation_is_rejected(self, kind, payload, cut):
        frame = encode_frame(kind, payload)
        if cut >= len(frame):
            cut = len(frame) - 1
        with pytest.raises((WireError, SnapshotError)):
            decode_frame(frame[:cut])

    def test_unknown_kind_rejected(self):
        with pytest.raises(WireError, match="kind"):
            encode_frame("no-such-frame", None)


# ---------------------------------------------------------------------------
# Malformed payloads that pass the CRC
# ---------------------------------------------------------------------------

def _ndarray(dtype: bytes, shape: tuple[int, ...], raw: bytes) -> bytes:
    return (bytes([_T_NDARRAY]) + struct.pack("<I", len(dtype)) + dtype
            + struct.pack("<I", len(shape))
            + b"".join(struct.pack("<Q", dim) for dim in shape)
            + struct.pack("<Q", len(raw)) + raw)


_TICKET_TAG = _T_TYPED + [cls for cls, _, _ in _TYPES].index(Ticket)

#: Payloads whose bytes are well framed but whose values cannot decode.
MALFORMED = {
    "bad-dtype": _ndarray(b"zz", (0,), b""),
    "object-dtype": _ndarray(b"|O", (1,), bytes(8)),
    "shape-disagrees-with-bytes": _ndarray(b"<i8", (3,), bytes(8)),
    "ticket-arity": (bytes([_TICKET_TAG, _T_TUPLE]) + struct.pack("<I", 2)
                     + bytes([_T_NONE, _T_NONE])),
    "invalid-utf8": bytes([_T_STR]) + struct.pack("<I", 1) + b"\xff",
    "list-as-dict-key": (bytes([_T_DICT]) + struct.pack("<I", 1)
                         + bytes([_T_LIST]) + struct.pack("<I", 0)
                         + bytes([_T_NONE])),
}


class TestMalformedPayloads:
    @pytest.mark.parametrize("payload", MALFORMED.values(), ids=MALFORMED)
    def test_snapshot_decoder_raises_snapshot_error(self, payload):
        blob = (SNAPSHOT_MAGIC
                + struct.pack("<HQ", SNAPSHOT_VERSION, len(payload))
                + payload + struct.pack("<I", zlib.crc32(payload)))
        with pytest.raises(SnapshotError) as info:
            loads(blob)
        assert info.value.__cause__ is not None

    @pytest.mark.parametrize("payload", MALFORMED.values(), ids=MALFORMED)
    def test_frame_decoder_raises_wire_error(self, payload):
        kind_id = FRAME_KINDS.index("submit")
        frame = (WIRE_MAGIC
                 + struct.pack("<HBQ", WIRE_VERSION, kind_id, len(payload))
                 + payload
                 + struct.pack("<I", zlib.crc32(bytes([kind_id]) + payload)))
        with pytest.raises(WireError) as info:
            decode_frame(frame)
        assert info.value.__cause__ is not None
