"""Exact pins of the paper's modeled matcher outputs.

One SHA-256 digest per sweep, at a scale tier-1 can afford:

* ``fig4`` -- :class:`MatrixMatcher` on every ``GPU.all_generations()``
  device at 64-4096 envelopes, plus a reversed receive queue with
  compaction;
* ``fig5`` -- :class:`PartitionedMatcher` on every device, totals
  512-8192 x Q 1-32, plus a tag-partitioned variant with narrow warps
  (4 and 8 lanes), compaction and two SMs;
* ``fig6b`` -- :class:`HashMatcher` with 1 and 32 CTAs on every device;
* ``table2`` -- :class:`MatchingEngine` over the six ``TABLE_II_CONFIGS``;
* ``obs`` -- the ``Observability.enabled()`` metrics snapshot of one
  matrix and one partitioned match.

Every outcome field -- match vector, sizes, seconds, cycles, iterations,
replicas and meta -- is rendered with floats as ``float.hex()``, every
value tagged with its type and dicts in their own key order.  The
relative suites (fast == pedantic, batched == reference) pass when both
sides move together; these pins do not.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.bench.harness import (matching_workload, partial_workload,
                                 reversed_workload)
from repro.core import (TABLE_II_CONFIGS, HashMatcher, MatchingEngine,
                        MatchOutcome, MatrixMatcher, PartitionedMatcher)
from repro.obs import Observability
from repro.simt.gpu import GPU

#: sweep -> SHA-256 of its rendered outputs
GOLDEN = {
    "fig4":
        "eca97e1805d639c0afa7c9dd56554593e9fcaf6cf9ae3f55f369b9809283fccb",
    "fig5":
        "4c7a4db56f58ea4ac01f33ec238c604d8d5d1851cefab9683434442e942f60ba",
    "fig6b":
        "aa07ad02ec37e1548fdb188c9d6d07db2cddd22188191346f3414950a60be794",
    "table2":
        "e0c0b71df10c024b4a5f577e5f5d91da8adbc045d233561507b26a25d865f3f1",
    "obs":
        "c828f32af4d8868d1d1700fef7efe8685e756becc8ba618820314a1bb85282b4",
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
    if type(value) is MatchOutcome:
        return render({"request_to_message": value.request_to_message,
                       "n_messages": value.n_messages,
                       "n_requests": value.n_requests,
                       "seconds": value.seconds, "cycles": value.cycles,
                       "iterations": value.iterations,
                       "replicas": value.replicas, "meta": value.meta})
    return f"{type(value).__name__}:{value!r}"   # any other type is drift


def fig4():
    for spec in GPU.all_generations():
        for n in (64, 128, 256, 512, 1024, 2048, 4096):
            yield MatrixMatcher(spec=spec).match(*matching_workload(n))
        for n in (512, 1536):
            yield MatrixMatcher(spec=spec, compaction=True).match(
                *reversed_workload(n))


def fig5():
    for spec in GPU.all_generations():
        for total in (512, 1024, 2048, 4096, 8192):
            msgs, reqs = matching_workload(total, n_ranks=64, n_tags=8)
            for q in (1, 2, 4, 8, 16, 32):
                yield PartitionedMatcher(spec=spec, n_queues=q).match(
                    msgs, reqs)
    for total in (512, 2048):
        msgs, reqs = matching_workload(total, n_ranks=64, n_tags=8)
        for warp_size in (4, 8):
            for q in (3, 8):
                yield PartitionedMatcher(
                    n_queues=q, partition_key="tag", warp_size=warp_size,
                    compaction=True, sm_count=2).match(msgs, reqs)


def fig6b():
    for spec in GPU.all_generations():
        for ctas in (1, 32):
            for n in (128, 256, 512, 1024, 2048):
                yield HashMatcher(spec=spec, n_ctas=ctas).match(
                    *matching_workload(n, seed=1234))


def table2():
    workloads = (matching_workload(1024, seed=1234),
                 partial_workload(1024, 0.5, seed=1234))
    for rel in TABLE_II_CONFIGS:
        for msgs, reqs in workloads[:1 + rel.unexpected]:
            yield MatchingEngine(relaxations=rel, n_queues=32,
                                 n_ctas=32).match(msgs, reqs)


def obs():
    msgs, reqs = matching_workload(1536, n_ranks=64, n_tags=8, seed=5)
    for factory in (lambda o: MatrixMatcher(obs=o),
                    lambda o: PartitionedMatcher(n_queues=4, obs=o)):
        handle = Observability.enabled()
        outcome = factory(handle).match(msgs, reqs)
        yield outcome, handle.snapshot()


SWEEPS = {"fig4": fig4, "fig5": fig5, "fig6b": fig6b, "table2": table2,
          "obs": obs}


@pytest.mark.parametrize("sweep", list(GOLDEN))
def test_modeled_outputs_match_pin(sweep):
    rendered = [render(item) for item in SWEEPS[sweep]()]
    assert rendered
    digest = hashlib.sha256("\n".join(rendered).encode()).hexdigest()
    assert digest == GOLDEN[sweep], (
        f"{len(rendered)} outputs; first: {rendered[0][:2000]}")
