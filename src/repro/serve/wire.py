"""Pickle-free wire frames for the cluster's process boundary.

The router and its worker processes speak a tiny framed protocol over
two one-way pipes per worker.  Every frame is **data, never code**: the
payload is encoded with the same tagged binary codec the snapshot plane
uses (:mod:`repro.serve.state`), wrapped in a frame header with its own
magic, a format version, a one-byte frame kind, an explicit payload
length, and a CRC32 trailer covering the kind byte and the payload::

    RSRVWIRE | u16 version | u8 kind | u64 payload_len | payload | u32 crc

Design points:

* **No pickle of live objects.**  Envelope batches cross the boundary as
  their packed column ``state_dict`` (the cached packed64 key column
  included -- the zero re-marshalling contract survives the process
  hop); every other serve type (requests, tickets, flush results,
  tenant specs, policies) is a dataclass that crosses as the tuple of
  its ``init`` fields and is rebuilt through its constructor, so a
  frame payload holds the same live objects a loopback worker is
  handed, and adding a field needs no codec edit.  The only thing
  multiprocessing itself ever transports is ``bytes``.
* **Every single-bit corruption is rejected.**  A flipped bit lands in
  the magic (bad magic), the version (unsupported version), the length
  field (length mismatch), or the CRC-covered region (CRC mismatch) --
  there is no bit position whose corruption decodes silently (pinned by
  ``tests/serve/test_codec_fuzz.py``).
* **Kinds are a closed registry.**  A frame kind is a name from
  :data:`FRAME_KINDS`; unknown kind bytes are a :class:`WireError`, so a
  protocol skew between router and worker fails loudly at the boundary
  instead of corrupting matching state.
"""

from __future__ import annotations

import struct
import zlib

from .state import SnapshotError, _dec_all, _enc

__all__ = ["WIRE_MAGIC", "WIRE_VERSION", "FRAME_KINDS", "JOURNALED_KINDS",
           "WireError", "encode_frame", "decode_frame"]

#: Wire frame magic (8 bytes; distinct from the snapshot magic so a
#: frame can never be mistaken for a checkpoint blob or vice versa).
WIRE_MAGIC = b"RSRVWIRE"

#: Frame format version; decoders refuse versions they do not know.
#: Version 2: payloads carry the snapshot codec's tagged serve types.
#: Version 3: every serve dataclass is a tagged tuple of its fields.
WIRE_VERSION = 3

#: The protocol's frame kinds.  Router -> worker: ``submit`` (one routed
#: request), ``advance`` (broadcast virtual-time advance), ``drain``
#: (flush every accumulator), ``checkpoint`` (snapshot request),
#: ``stats`` (tokened stats request -- doubles as the FIFO barrier),
#: ``arm_exit`` (chaos: SIGKILL yourself mid-flush), ``export_tenant`` /
#: ``install_tenant`` / ``release_tenant`` (live migration legs),
#: ``stop`` (clean shutdown).  Worker -> router: ``ticket``, ``flush``,
#: ``checkpointed``, ``stats_reply``, ``tenant_state``, ``bye``.  The
#: router journals exactly the :data:`JOURNALED_KINDS`.
FRAME_KINDS = (
    "submit", "advance", "drain", "checkpoint", "stats", "arm_exit",
    "export_tenant", "install_tenant", "release_tenant", "stop",
    "ticket", "flush", "checkpointed", "stats_reply", "tenant_state",
    "bye",
    # kind ids are tuple indices, fixed within one WIRE_VERSION: a new
    # kind goes at the end or comes with a version bump
    "fabric_xfer",
)

#: The state-mutating router -> worker kinds: the router journals these
#: frames for replay, and a worker counts them to say how many journaled
#: frames a checkpoint covers.
JOURNALED_KINDS = frozenset({
    "submit", "advance", "drain", "fabric_xfer", "export_tenant",
    "install_tenant", "release_tenant"})

_KIND_ID = {kind: i for i, kind in enumerate(FRAME_KINDS)}

_HEADER = struct.Struct("<HBQ")   # version, kind, payload length


class WireError(ValueError):
    """A wire frame could not be encoded or decoded (corruption,
    truncation, bad magic/version/kind/CRC, or an unencodable payload)."""


def encode_frame(kind: str, payload: object = None) -> bytes:
    """Encode one ``(kind, payload)`` frame into its guarded wire form."""
    kind_id = _KIND_ID.get(kind)
    if kind_id is None:
        raise WireError(f"unknown frame kind {kind!r}")
    body = bytearray()
    try:
        _enc(payload, body)
    except SnapshotError as exc:
        raise WireError(f"unencodable {kind!r} payload: {exc}") from exc
    body = bytes(body)
    covered = bytes([kind_id]) + body
    return (WIRE_MAGIC
            + _HEADER.pack(WIRE_VERSION, kind_id, len(body))
            + body
            + struct.pack("<I", zlib.crc32(covered)))


def decode_frame(data: bytes) -> tuple[str, object]:
    """Decode :func:`encode_frame` output, verifying magic, version,
    kind, length, and CRC before touching the payload; a payload that
    passes those checks but does not decode is a :class:`WireError` too."""
    head = len(WIRE_MAGIC) + _HEADER.size
    if len(data) < head + 4:
        raise WireError("frame shorter than its header")
    if data[:len(WIRE_MAGIC)] != WIRE_MAGIC:
        raise WireError("bad frame magic")
    version, kind_id, length = _HEADER.unpack_from(data, len(WIRE_MAGIC))
    if version != WIRE_VERSION:
        raise WireError(f"unsupported wire version {version} "
                        f"(expected {WIRE_VERSION})")
    if len(data) != head + length + 4:
        raise WireError("frame length mismatch")
    body = data[head:head + length]
    (crc,) = struct.unpack_from("<I", data, head + length)
    if zlib.crc32(bytes([kind_id]) + body) != crc:
        raise WireError("frame CRC mismatch (corrupt payload)")
    if kind_id >= len(FRAME_KINDS):
        raise WireError(f"unknown frame kind id {kind_id}")
    try:
        payload = _dec_all(body)
    except SnapshotError as exc:
        raise WireError(f"corrupt frame payload: {exc}") from exc
    return FRAME_KINDS[kind_id], payload

