"""Serve state plane: persistent sessions and checkpoint/restore.

Three pieces live here, all built on the same columnar representation
the data plane already uses:

* **Persistent-UMQ sessions** (:class:`SessionState`) -- a ``session``
  tenant's unmatched envelopes survive flushes: the flush's UMQ and PRQ
  are exported as packed column blocks
  (:meth:`~repro.core.engine.MatchingEngine.export_unmatched`) and
  prepended to the next flush's batch, FIFO.  Carry-over is pure
  ``take``/``concatenate`` column work over views that keep the cached
  packed64 key column -- no per-item re-marshalling, the same
  zero-re-pack contract the columnar data plane pins.  Per-tenant caps
  (oldest-first shedding) and an age bound (flushes survived) keep a
  dead tuple from pinning session memory forever.

* **A versioned, CRC-guarded binary snapshot codec**
  (:func:`dumps` / :func:`loads`) -- a small tagged format (none, bool,
  arbitrary-precision int, float64, str, bytes, ndarray, list, tuple,
  insertion-ordered dict) with a magic header, a format version, and a
  CRC32 trailer.  Arbitrary-precision ints matter: the event loop's
  PCG64 generator state carries 128-bit counters that a fixed-width
  encoding would corrupt.  No pickle anywhere -- a snapshot is data,
  never code.

* **Worker checkpoints** (:func:`worker_state` /
  :func:`install_worker`, and per tenant :func:`export_tenant` /
  :func:`install_tenant`) -- the one checkpoint path, used by cluster
  recovery and live migration: a deterministic deep capture of
  everything a bit-identical continuation needs: every tenant engine's
  lattice position and demotion log, accumulator contents and epoch
  counters, profiler windows, autotuner hysteresis, session carry-over,
  and the worker's event loop ``(vt, seq)`` cursor and RNG state.
  Checkpoints and migration blobs carry no result or ticket ledgers:
  those live only in the router.  A worker restored from a checkpoint
  taken at flush *k* continues identically to the uninterrupted worker
  (pinned by ``tests/serve/test_state.py::TestSnapshotRestore``).
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import asdict

import numpy as np

from ..core.engine import MatchingEngine
from ..core.envelope import EnvelopeBatch
from ..core.relaxations import RelaxationSet
from ..core.result import MatchOutcome
from .admission import AdmissionPolicy
from .autotuner import Autotuner
from .batching import BatchAccumulator, BatchPolicy, concat_batches
from .messages import FlushResult, ServeRequest, TenantSpec, Ticket
from .profiler import StreamProfiler

__all__ = ["SnapshotError", "SNAPSHOT_MAGIC", "SNAPSHOT_VERSION",
           "dumps", "loads", "SessionState", "policies_state",
           "policies_from", "export_tenant", "install_tenant",
           "worker_state", "install_worker"]


# ---------------------------------------------------------------------------
# Tagged binary codec
# ---------------------------------------------------------------------------

#: Snapshot file magic (8 bytes).
SNAPSHOT_MAGIC = b"RSRVSNAP"

#: Format version; bumped on any incompatible layout change.  A restore
#: refuses a version it does not know instead of misreading it.
#: Version 2: serve message types are tagged values, and per-worker
#: state carries no result ledgers.  Version 3: a tenant's profiler
#: window is five integers per flush.
SNAPSHOT_VERSION = 3

_T_NONE = 0x00
_T_FALSE = 0x01
_T_TRUE = 0x02
_T_INT = 0x03      # u32 length + little-endian signed magnitude bytes
_T_FLOAT = 0x04    # IEEE-754 binary64
_T_STR = 0x05      # u32 length + UTF-8
_T_BYTES = 0x06    # u32 length + raw
_T_NDARRAY = 0x07  # dtype str + ndim + u64 dims + u64 length + raw buffer
_T_LIST = 0x08     # u32 count + items
_T_TUPLE = 0x09    # u32 count + items
_T_DICT = 0x0A     # u32 count + (key, value) pairs, insertion order
_T_TYPED = 0x0B    # 0x0B + index into _TYPES, then the canonical form


class SnapshotError(ValueError):
    """A snapshot could not be encoded or decoded (corruption, truncation,
    bad magic/version/CRC, or an unencodable object)."""


def _enc(obj, out: bytearray) -> None:
    if obj is None:
        out.append(_T_NONE)
    elif obj is True or (isinstance(obj, np.bool_) and bool(obj)):
        out.append(_T_TRUE)
    elif obj is False or isinstance(obj, np.bool_):
        out.append(_T_FALSE)
    elif isinstance(obj, (int, np.integer)):
        v = int(obj)
        raw = v.to_bytes(max(1, (v.bit_length() + 8) // 8),
                         "little", signed=True)
        out.append(_T_INT)
        out += struct.pack("<I", len(raw))
        out += raw
    elif isinstance(obj, (float, np.floating)):
        out.append(_T_FLOAT)
        out += struct.pack("<d", float(obj))
    elif isinstance(obj, str):
        raw = obj.encode("utf-8")
        out.append(_T_STR)
        out += struct.pack("<I", len(raw))
        out += raw
    elif isinstance(obj, (bytes, bytearray)):
        out.append(_T_BYTES)
        out += struct.pack("<I", len(obj))
        out += bytes(obj)
    elif isinstance(obj, np.ndarray):
        if obj.dtype == object:
            raise SnapshotError("object-dtype arrays are not snapshotable")
        a = np.ascontiguousarray(obj)
        dt = a.dtype.str.encode("ascii")
        raw = a.tobytes()
        out.append(_T_NDARRAY)
        out += struct.pack("<I", len(dt))
        out += dt
        out += struct.pack("<I", a.ndim)
        for dim in a.shape:
            out += struct.pack("<Q", dim)
        out += struct.pack("<Q", len(raw))
        out += raw
    elif isinstance(obj, (list, tuple)):
        out.append(_T_LIST if isinstance(obj, list) else _T_TUPLE)
        out += struct.pack("<I", len(obj))
        for item in obj:
            _enc(item, out)
    elif isinstance(obj, dict):
        out.append(_T_DICT)
        out += struct.pack("<I", len(obj))
        for key, value in obj.items():
            _enc(key, out)
            _enc(value, out)
    else:
        for i, (cls, to_state, _) in enumerate(_TYPES):
            if isinstance(obj, cls):
                out.append(_T_TYPED + i)
                _enc(to_state(obj), out)
                return
        raise SnapshotError(f"cannot snapshot object of type "
                            f"{type(obj).__name__}")


def _need(data: bytes, pos: int, n: int) -> None:
    if pos + n > len(data):
        raise SnapshotError("truncated snapshot payload")


def _dec(data: bytes, pos: int) -> tuple[object, int]:
    _need(data, pos, 1)
    tag = data[pos]
    pos += 1
    if tag == _T_NONE:
        return None, pos
    if tag == _T_TRUE:
        return True, pos
    if tag == _T_FALSE:
        return False, pos
    if tag == _T_INT:
        _need(data, pos, 4)
        (n,) = struct.unpack_from("<I", data, pos)
        pos += 4
        _need(data, pos, n)
        return int.from_bytes(data[pos:pos + n], "little",
                              signed=True), pos + n
    if tag == _T_FLOAT:
        _need(data, pos, 8)
        (v,) = struct.unpack_from("<d", data, pos)
        return v, pos + 8
    if tag in (_T_STR, _T_BYTES):
        _need(data, pos, 4)
        (n,) = struct.unpack_from("<I", data, pos)
        pos += 4
        _need(data, pos, n)
        raw = data[pos:pos + n]
        return (raw.decode("utf-8") if tag == _T_STR else raw), pos + n
    if tag == _T_NDARRAY:
        _need(data, pos, 4)
        (n,) = struct.unpack_from("<I", data, pos)
        pos += 4
        _need(data, pos, n)
        dtype = np.dtype(data[pos:pos + n].decode("ascii"))
        pos += n
        _need(data, pos, 4)
        (ndim,) = struct.unpack_from("<I", data, pos)
        pos += 4
        shape = []
        for _ in range(ndim):
            _need(data, pos, 8)
            (dim,) = struct.unpack_from("<Q", data, pos)
            shape.append(dim)
            pos += 8
        _need(data, pos, 8)
        (nbytes,) = struct.unpack_from("<Q", data, pos)
        pos += 8
        _need(data, pos, nbytes)
        arr = np.frombuffer(data[pos:pos + nbytes],
                            dtype=dtype).reshape(shape).copy()
        return arr, pos + nbytes
    if tag in (_T_LIST, _T_TUPLE):
        _need(data, pos, 4)
        (n,) = struct.unpack_from("<I", data, pos)
        pos += 4
        items = []
        for _ in range(n):
            item, pos = _dec(data, pos)
            items.append(item)
        return (items if tag == _T_LIST else tuple(items)), pos
    if tag == _T_DICT:
        _need(data, pos, 4)
        (n,) = struct.unpack_from("<I", data, pos)
        pos += 4
        out: dict = {}
        for _ in range(n):
            key, pos = _dec(data, pos)
            value, pos = _dec(data, pos)
            out[key] = value
        return out, pos
    if _T_TYPED <= tag < _T_TYPED + len(_TYPES):
        state, pos = _dec(data, pos)
        return _TYPES[tag - _T_TYPED][2](state), pos
    raise SnapshotError(f"unknown snapshot type tag 0x{tag:02x}")


#: What :func:`_dec` raises, past the framing checks, on a payload whose
#: bytes are well formed but whose values are not: a bad or object dtype,
#: a shape that disagrees with the byte count, invalid UTF-8, a typed
#: value of the wrong arity, an unhashable dict key.
_MALFORMED = (TypeError, ValueError, KeyError, IndexError, AttributeError)


def _dec_all(payload: bytes) -> object:
    """Decode one whole payload; any malformation is a
    :class:`SnapshotError` with the cause chained."""
    try:
        obj, pos = _dec(payload, 0)
    except SnapshotError:
        raise
    except _MALFORMED as exc:
        raise SnapshotError(f"malformed snapshot payload: {exc!r}") from exc
    if pos != len(payload):
        raise SnapshotError("trailing bytes after snapshot payload")
    return obj


def dumps(obj) -> bytes:
    """Encode an object tree into the versioned, CRC-guarded wire form."""
    payload = bytearray()
    _enc(obj, payload)
    payload = bytes(payload)
    return (SNAPSHOT_MAGIC
            + struct.pack("<HQ", SNAPSHOT_VERSION, len(payload))
            + payload
            + struct.pack("<I", zlib.crc32(payload)))


def loads(data: bytes) -> object:
    """Decode :func:`dumps` output, verifying magic, version, length, and
    CRC before touching the payload; a payload that passes those checks
    but does not decode is a :class:`SnapshotError` too."""
    head = len(SNAPSHOT_MAGIC) + 10
    if len(data) < head + 4:
        raise SnapshotError("snapshot shorter than its header")
    if data[:len(SNAPSHOT_MAGIC)] != SNAPSHOT_MAGIC:
        raise SnapshotError("bad snapshot magic")
    version, length = struct.unpack_from("<HQ", data, len(SNAPSHOT_MAGIC))
    if version != SNAPSHOT_VERSION:
        raise SnapshotError(f"unsupported snapshot version {version} "
                            f"(expected {SNAPSHOT_VERSION})")
    if len(data) != head + length + 4:
        raise SnapshotError("snapshot length mismatch")
    payload = data[head:head + length]
    (crc,) = struct.unpack_from("<I", data, head + length)
    if zlib.crc32(payload) != crc:
        raise SnapshotError("snapshot CRC mismatch (corrupt payload)")
    return _dec_all(payload)


# ---------------------------------------------------------------------------
# Persistent-UMQ sessions
# ---------------------------------------------------------------------------

class SessionState:
    """Carry-over queues of one ``session`` tenant.

    Between flushes the tenant's unmatched envelopes live here as two
    packed column blocks -- the UMQ (messages nobody received yet) and
    the PRQ (receives nothing arrived for) -- each with a parallel
    ``born`` column recording the flush sequence that first admitted the
    envelope.  ``born`` drives both shedding axes:

    * **age**: at flush *j*, a carried envelope born at flush *b* has
      survived ``j - b`` subsequent flushes; once that reaches
      ``max_age_flushes`` it is shed;
    * **cap**: if the combined depth still exceeds ``max_carryover``,
      the oldest envelopes (smallest ``born``, FIFO within a flush) are
      shed first.

    Everything is column work over ``take`` views that keep the cached
    packed64 key column -- carry-over never re-marshals an envelope.
    """

    def __init__(self, max_carryover: int = 4096,
                 max_age_flushes: int = 8) -> None:
        if max_carryover < 1:
            raise ValueError("max_carryover must be >= 1")
        if max_age_flushes < 1:
            raise ValueError("max_age_flushes must be >= 1")
        self.max_carryover = max_carryover
        self.max_age_flushes = max_age_flushes
        self.umq = EnvelopeBatch.empty()
        self.prq = EnvelopeBatch.empty()
        self.umq_born = np.array([], dtype=np.int64)
        self.prq_born = np.array([], dtype=np.int64)
        self.carried_total = 0
        self.shed_age_total = 0
        self.shed_cap_total = 0

    @classmethod
    def for_spec(cls, spec: TenantSpec) -> "SessionState":
        return cls(max_carryover=spec.session_max_carryover,
                   max_age_flushes=spec.session_max_age_flushes)

    @property
    def depth(self) -> int:
        """Carried envelopes pending re-match (UMQ + PRQ)."""
        return len(self.umq) + len(self.prq)

    # -- flush protocol ----------------------------------------------------------

    def merge(self, messages: EnvelopeBatch, requests: EnvelopeBatch,
              flush_seq: int) -> tuple[EnvelopeBatch, EnvelopeBatch,
                                       np.ndarray, np.ndarray, int, int]:
        """Prepend the carried columns to a flush's fresh batch, FIFO.

        Returns ``(messages, requests, born_msgs, born_reqs,
        n_carried_msgs, n_carried_reqs)`` where the born columns cover
        the *merged* batches (carried envelopes keep their original born
        flush; fresh ones are born at ``flush_seq``).  The carry blocks
        are cleared here; :meth:`retain` refills them after the match.
        """
        n_cm, n_cr = len(self.umq), len(self.prq)
        born_msgs = np.concatenate([
            self.umq_born,
            np.full(len(messages), flush_seq, dtype=np.int64)])
        born_reqs = np.concatenate([
            self.prq_born,
            np.full(len(requests), flush_seq, dtype=np.int64)])
        merged_m = concat_batches([self.umq, messages])
        merged_r = concat_batches([self.prq, requests])
        self.carried_total += n_cm + n_cr
        self.umq = EnvelopeBatch.empty()
        self.prq = EnvelopeBatch.empty()
        self.umq_born = np.array([], dtype=np.int64)
        self.prq_born = np.array([], dtype=np.int64)
        return merged_m, merged_r, born_msgs, born_reqs, n_cm, n_cr

    def retain(self, umq: EnvelopeBatch, prq: EnvelopeBatch,
               born_umq: np.ndarray, born_prq: np.ndarray,
               flush_seq: int) -> tuple[int, int]:
        """Keep a flush's unmatched columns for the next flush.

        Applies age shedding first, then the combined-depth cap
        (oldest ``born`` first, stable order within a flush).  Returns
        ``(shed_age, shed_cap)`` counts.
        """
        keep_m = (flush_seq - born_umq) < self.max_age_flushes
        keep_r = (flush_seq - born_prq) < self.max_age_flushes
        shed_age = int(np.count_nonzero(~keep_m)
                       + np.count_nonzero(~keep_r))
        if shed_age:
            umq = umq.take(np.nonzero(keep_m)[0])
            born_umq = born_umq[keep_m]
            prq = prq.take(np.nonzero(keep_r)[0])
            born_prq = born_prq[keep_r]
        shed_cap = 0
        total = len(umq) + len(prq)
        if total > self.max_carryover:
            shed_cap = total - self.max_carryover
            born_all = np.concatenate([born_umq, born_prq])
            keep_mask = np.ones(total, dtype=bool)
            keep_mask[np.argsort(born_all, kind="stable")[:shed_cap]] = False
            km, kr = keep_mask[:len(umq)], keep_mask[len(umq):]
            umq = umq.take(np.nonzero(km)[0])
            born_umq = born_umq[km]
            prq = prq.take(np.nonzero(kr)[0])
            born_prq = born_prq[kr]
        self.umq, self.prq = umq, prq
        self.umq_born, self.prq_born = born_umq, born_prq
        self.shed_age_total += shed_age
        self.shed_cap_total += shed_cap
        return shed_age, shed_cap

    # -- snapshot format ---------------------------------------------------------

    def export_state(self) -> dict:
        return {"max_carryover": self.max_carryover,
                "max_age_flushes": self.max_age_flushes,
                "umq": self.umq.state_dict(),
                "prq": self.prq.state_dict(),
                "umq_born": self.umq_born,
                "prq_born": self.prq_born,
                "carried_total": self.carried_total,
                "shed_age_total": self.shed_age_total,
                "shed_cap_total": self.shed_cap_total}

    @classmethod
    def from_state(cls, state: dict) -> "SessionState":
        session = cls(max_carryover=int(state["max_carryover"]),
                      max_age_flushes=int(state["max_age_flushes"]))
        session.umq = EnvelopeBatch.from_state_dict(state["umq"])
        session.prq = EnvelopeBatch.from_state_dict(state["prq"])
        session.umq_born = np.asarray(state["umq_born"], dtype=np.int64)
        session.prq_born = np.asarray(state["prq_born"], dtype=np.int64)
        session.carried_total = int(state["carried_total"])
        session.shed_age_total = int(state["shed_age_total"])
        session.shed_cap_total = int(state["shed_cap_total"])
        return session


# ---------------------------------------------------------------------------
# Message-type (de)serialization
# ---------------------------------------------------------------------------

def _spec_state(spec: TenantSpec) -> dict:
    return {"name": spec.name,
            "relaxations": (None if spec.relaxations is None
                            else spec.relaxations.label()),
            "ordering_required": spec.ordering_required,
            "autotune": spec.autotune,
            "n_queues": spec.n_queues,
            "n_ctas": spec.n_ctas,
            "session": spec.session,
            "session_max_carryover": spec.session_max_carryover,
            "session_max_age_flushes": spec.session_max_age_flushes,
            "partitioned": spec.partitioned,
            "span": spec.span}


def _spec_from(state: dict) -> TenantSpec:
    rel = state["relaxations"]
    return TenantSpec(
        name=str(state["name"]),
        relaxations=None if rel is None else RelaxationSet.from_label(rel),
        ordering_required=bool(state["ordering_required"]),
        autotune=bool(state["autotune"]),
        n_queues=int(state["n_queues"]),
        n_ctas=int(state["n_ctas"]),
        session=bool(state["session"]),
        session_max_carryover=int(state["session_max_carryover"]),
        session_max_age_flushes=int(state["session_max_age_flushes"]),
        partitioned=bool(state.get("partitioned", False)),
        span=int(state.get("span", 1)))


def _outcome_state(o: MatchOutcome) -> dict:
    return {"request_to_message": o.request_to_message,
            "n_messages": o.n_messages, "n_requests": o.n_requests,
            "seconds": o.seconds, "cycles": o.cycles,
            "iterations": o.iterations, "replicas": o.replicas,
            "meta": o.meta}


def _outcome_from(state: dict) -> MatchOutcome:
    return MatchOutcome(
        request_to_message=np.asarray(state["request_to_message"],
                                      dtype=np.int64),
        n_messages=int(state["n_messages"]),
        n_requests=int(state["n_requests"]),
        seconds=float(state["seconds"]), cycles=float(state["cycles"]),
        iterations=int(state["iterations"]),
        replicas=int(state["replicas"]), meta=dict(state["meta"]))


def _flush_result_state(r: FlushResult) -> dict:
    return {"tenant": r.tenant, "shard_id": r.shard_id,
            "flush_seq": r.flush_seq, "flush_vt": r.flush_vt,
            "outcome": _outcome_state(r.outcome),
            "covered_seqs": r.covered_seqs,
            "latencies_vt": r.latencies_vt,
            "engine_label": r.engine_label, "meta": r.meta}


def _flush_result_from(state: dict) -> FlushResult:
    return FlushResult(
        tenant=str(state["tenant"]), shard_id=int(state["shard_id"]),
        flush_seq=int(state["flush_seq"]),
        flush_vt=float(state["flush_vt"]),
        outcome=_outcome_from(state["outcome"]),
        covered_seqs=tuple(int(s) for s in state["covered_seqs"]),
        latencies_vt=tuple(float(v) for v in state["latencies_vt"]),
        engine_label=str(state["engine_label"]), meta=dict(state["meta"]))


#: The serve message types the codec carries as tagged values, each
#: with its canonical form and the inverse.  Append only: a type's tag
#: is ``_T_TYPED`` plus its index here.
_TYPES = (
    (EnvelopeBatch, EnvelopeBatch.state_dict, EnvelopeBatch.from_state_dict),
    (ServeRequest,
     lambda r: (r.tenant, r.seq, r.arrival_vt, r.messages, r.requests),
     lambda s: ServeRequest(*s)),
    (Ticket,
     lambda t: (t.status, t.tenant, t.seq, t.retry_after_vt, t.reason),
     lambda s: Ticket(*s)),
    (FlushResult, _flush_result_state, _flush_result_from),
    (TenantSpec, _spec_state, _spec_from),
)


# ---------------------------------------------------------------------------
# Tenant / worker checkpoints
# ---------------------------------------------------------------------------

def policies_state(admission: AdmissionPolicy, batching: BatchPolicy,
                   promote_after: int, profile_window: int,
                   verify: bool) -> dict:
    """The shard policies a worker is built from, in snapshot form."""
    return {"admission": asdict(admission), "batching": asdict(batching),
            "promote_after": promote_after,
            "profile_window": profile_window, "verify": verify}


def policies_from(state: dict) -> dict:
    """Inverse of :func:`policies_state`, as keyword arguments for
    :class:`~repro.serve.service.ShardWorker`."""
    return {"admission": AdmissionPolicy(**state["admission"]),
            "batching": BatchPolicy(**state["batching"]),
            "promote_after": state["promote_after"],
            "profile_window": state["profile_window"],
            "verify": state["verify"]}


def export_tenant(ts) -> dict:
    """Deep state of one tenant (a :class:`~repro.serve.shard.TenantState`).

    Self-contained: :func:`install_tenant` can rebuild the tenant inside
    any shard -- the unit live migration serializes across shards.
    """
    return {"spec": ts.spec,
            "engine": ts.engine.export_state(),
            "accumulator": ts.accumulator.export_state(),
            "profiler": ts.profiler.export_state(),
            "autotuner": ts.autotuner.export_state(),
            "session": (None if ts.session is None
                        else ts.session.export_state()),
            "flush_seq": ts.flush_seq,
            "matched_total": ts.matched_total,
            "requests_total": ts.requests_total,
            "pending_retune_seconds": ts.pending_retune_seconds,
            "pending_retune_cycles": ts.pending_retune_cycles,
            "demotions_seen": ts.demotions_seen}


def install_tenant(shard, state: dict):
    """Rebuild a tenant from :func:`export_tenant` inside ``shard``.

    Returns the new :class:`~repro.serve.shard.TenantState`, registered
    under its spec name (replacing any same-named tenant).
    """
    from .shard import TenantState  # local: shard.py imports this module

    spec = state["spec"]
    engine = MatchingEngine.from_state(state["engine"], gpu=shard.gpu,
                                       verify=shard.verify, obs=shard._obs)
    accumulator = BatchAccumulator(shard.batching)
    accumulator.restore_state(state["accumulator"])
    profiler = StreamProfiler(shard.profile_window)
    profiler.restore_state(state["profiler"])
    autotuner = Autotuner(spec, gpu=shard.gpu,
                          promote_after=shard.promote_after)
    autotuner.restore_state(state["autotuner"])
    ts = TenantState(
        spec=spec, engine=engine, accumulator=accumulator,
        profiler=profiler, autotuner=autotuner,
        flush_seq=int(state["flush_seq"]),
        matched_total=int(state["matched_total"]),
        requests_total=int(state["requests_total"]),
        pending_retune_seconds=float(state["pending_retune_seconds"]),
        pending_retune_cycles=float(state["pending_retune_cycles"]),
        demotions_seen=int(state["demotions_seen"]),
        session=(None if state["session"] is None
                 else SessionState.from_state(state["session"])))
    shard.tenants[spec.name] = ts
    return ts


def worker_state(worker) -> dict:
    """Deep state of one :class:`~repro.serve.service.ShardWorker`: its
    event loop and its shard (a cluster worker's checkpoint)."""
    shard = worker.shard
    return {"loop": worker.loop.export_state(),
            "admission_counters": shard.admission.export_state(),
            "migrating": dict(shard.migrating),
            "flushes_done": shard.flushes_done,
            "tenants": [export_tenant(ts) for ts in shard.tenants.values()]}


def install_worker(worker, state: dict) -> None:
    """Restore :func:`worker_state` into a freshly built worker."""
    worker.loop.restore_state(state["loop"])
    shard = worker.shard
    shard.admission.restore_state(state["admission_counters"])
    shard.migrating = dict(state["migrating"])
    shard.flushes_done = int(state["flushes_done"])
    for tstate in state["tenants"]:
        install_tenant(shard, tstate)

