"""Exact pins of every routed ``FlushResult`` of three serve shapes.

One lap of each shape, seeds 0-1, driven through public ``repro.serve``
calls only:

* ``serve-mix`` -- the three default bench apps (``steps=16``,
  ``chunk_envelopes=256``) through ``MatchingService(n_shards=2,
  promote_after=2)``: matrix, partitioned and hash engines, autotuner
  retunes;
* ``serve-session`` -- the same apps as sessions in 16-envelope
  flushes (``BatchPolicy(max_envelopes=16)``): carry-over meta and
  engine demotions;
* ``fabric-coll`` -- one round of alltoall, allreduce, neighbor
  alltoall and a partitioned ring over a span-8 tenant on two shards.

Every field of every result -- tenant, shard, flush seq and time, the
whole outcome (match vector, sizes, seconds, cycles, iterations,
replicas, meta) and the flush's covered seqs, latencies, engine label
and meta -- is rendered with floats as ``float.hex()``, every value
tagged with its type and dicts in their own key order, and the result
list is pinned as one SHA-256 digest per case.  The relative suites
(fast == pedantic, cluster == in-process) pass when both sides move
together; these pins do not.  The seed draws only the fabric round's
payload values, which no match reads, so both fabric digests agree.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

import repro.mpi.collectives as collectives
import repro.serve as serve
from repro.mpi import CartGraph

#: (shape, seed) -> SHA-256 of the rendered result list
GOLDEN = {
    ("serve-mix", 0):
        "b54777c11ca38e7e1110d19010db3706a7c417f362e4537119a11a895cfb0f33",
    ("serve-mix", 1):
        "3938a98a37fb35eab49d069299a4896e31054eadc4ed4a7c4387a6848302410d",
    ("serve-session", 0):
        "e374750e603ce521ff8388898dd8e5505f9fc5743a92bd873d0f32143dc0aee5",
    ("serve-session", 1):
        "143a8b8996b5ad0f5a7fd45f2323f1305b9bc008a41f87e1d6a49f60b0b0f4d5",
    ("fabric-coll", 0):
        "5fb3d9107c2f851c07ca181def9885b5e8b5d3c8d9a7c3de9cf2afcff5107a9f",
    ("fabric-coll", 1):
        "5fb3d9107c2f851c07ca181def9885b5e8b5d3c8d9a7c3de9cf2afcff5107a9f",
}


def render(value) -> str:
    if type(value) is float:
        return "f" + value.hex()
    if type(value) in (int, str, bool):
        return f"{type(value).__name__[0]}{value!r}"
    if value is None:
        return "N"
    if type(value) is dict:
        return "{" + ";".join(f"{render(key)}={render(item)}"
                              for key, item in value.items()) + "}"
    if type(value) in (tuple, list):
        inner = ",".join(map(render, value))
        return f"({inner})" if type(value) is tuple else f"[{inner}]"
    if type(value) is np.ndarray:
        return f"nd{value.dtype.str}{value.shape}:{value.tolist()!r}"
    return f"{type(value).__name__}:{value!r}"   # any other type is drift


def render_result(r: serve.FlushResult) -> str:
    o = r.outcome
    return render({
        "tenant": r.tenant, "shard_id": r.shard_id,
        "flush_seq": r.flush_seq, "flush_vt": r.flush_vt,
        "outcome": {"request_to_message": o.request_to_message,
                    "n_messages": o.n_messages, "n_requests": o.n_requests,
                    "seconds": o.seconds, "cycles": o.cycles,
                    "iterations": o.iterations, "replicas": o.replicas,
                    "meta": o.meta},
        "covered_seqs": r.covered_seqs, "latencies_vt": r.latencies_vt,
        "engine_label": r.engine_label, "meta": r.meta})


def trace_plane(seed: int, session: bool) -> serve.MatchingService:
    parts = [serve.workload_from_app(app, steps=16,
                                     chunk_envelopes=16 if session else 256,
                                     seed=seed, rate_rps=2000.0,
                                     ordering_required=ordered,
                                     session=session)
             for app, ordered in serve.DEFAULT_BENCH_APPS]
    workload = serve.merge_workloads("pins", parts)
    svc, _ = serve.run_workload(
        workload, n_shards=2, seed=seed, promote_after=2,
        batching=serve.BatchPolicy(max_envelopes=16) if session else None)
    return svc


def spanning_name(span: int, n_shards: int) -> str:
    """A tenant name whose sub-tenants occupy every shard."""
    return next(f"coll{k}" for k in range(10_000)
                if len({serve.stable_shard(f"coll{k}#{i}", n_shards)
                        for i in range(span)}) == n_shards)


def fabric_plane(seed: int, span: int = 8,
                 partitions: int = 8) -> serve.MatchingService:
    rng = np.random.default_rng(seed)
    values = rng.integers(0, 1 << 20, size=(4, span, span)).tolist()
    svc = serve.MatchingService(n_shards=2, seed=seed)
    name = spanning_name(span, 2)
    svc.register(serve.TenantSpec(name=name, span=span, autotune=False))
    bridge = serve.CollectiveBridge(
        svc, name, link=serve.FabricLink(bytes_per_envelope=264))
    topo = CartGraph((4, 2), periodic=True)
    collectives.alltoall(bridge, values[0])
    collectives.allreduce(bridge, values[1][0], int.__add__)
    collectives.neighbor_alltoall(
        bridge, topo, [values[2][r][:len(topo.destinations(r))]
                       for r in range(span)])
    psends = [bridge.psend_init(r, (r + 1) % span, partitions, tag=7)
              for r in range(span)]
    precvs = [bridge.precv_init((r + 1) % span, r, partitions, tag=7)
              for r in range(span)]
    for ps in psends:
        ps.start()
    for pr in precvs:
        pr.start()
    for r, ps in enumerate(psends):
        for i in range(partitions):
            ps.pready(i, values[3][r][i % span] + i)
    for ps in psends:
        ps.wait()
    for pr in precvs:
        pr.wait()
    return svc


SHAPES = {
    "serve-mix": lambda seed: trace_plane(seed, session=False),
    "serve-session": lambda seed: trace_plane(seed, session=True),
    "fabric-coll": fabric_plane,
}


@pytest.mark.parametrize("shape,seed", list(GOLDEN))
def test_flush_results_match_pin(shape, seed):
    results = list(SHAPES[shape](seed).results)
    assert results
    rendered = "\n".join(map(render_result, results))
    digest = hashlib.sha256(rendered.encode()).hexdigest()
    assert digest == GOLDEN[shape, seed], (
        f"{len(results)} results; first: {render_result(results[0])}")
