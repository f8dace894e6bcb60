"""Equivalence suite: array-native fast paths vs their scalar references.

The fast paths (the key-sorted matrix match vector, matrix pricing from
that vector, one-sort queue partitioning, precomputed hash slots,
vectorized atomic CAS) are only admissible if they are *bit-identical*
to the scalar code they replaced: same match vectors AND same CostLedger
op totals, on every workload shape.  The matrix references live here:
the per-column reduce of Algorithm 2 with its per-column charging, the
blockwise loop that charges each block's scan from the columns its
reduce visited, and the per-queue partitioned loop over them.  This
suite pins that invariant down, plus the fast path's memory bound.
"""

from __future__ import annotations

import math
import tracemalloc

import numpy as np
import pytest

from repro.bench.harness import (matching_workload, ordered_workload,
                                 partial_workload, reversed_workload)
from repro.core.envelope import ANY_SOURCE, ANY_TAG, MAX_COMM, EnvelopeBatch
from repro.core.hash_matching import HashMatcher
from repro.core.matrix_matching import MatrixMatcher
from repro.core.partitioned import PartitionedMatcher
from repro.core.result import NO_MATCH
from repro.obs import Observability
from repro.simt.cta import MAX_WARPS_PER_CTA
from repro.simt.memory import GlobalMemory
from repro.simt.timing import CostLedger, TimingModel
from repro.simt.warp import WARP_SIZE, ffs32


def wildcard_workload(n, seed=0):
    """Random workload with heavy MPI_ANY_SOURCE / MPI_ANY_TAG use."""
    msgs, reqs = matching_workload(n, seed=seed)
    src = reqs.src.copy()
    tag = reqs.tag.copy()
    src[::2] = ANY_SOURCE
    tag[::3] = ANY_TAG
    return msgs, EnvelopeBatch(src, tag, reqs.comm)


WORKLOADS = {
    "random": matching_workload,
    "ordered": ordered_workload,
    "reversed": reversed_workload,
    "partial": lambda n, seed=0: partial_workload(n, 0.3, seed=seed),
    "wildcard": wildcard_workload,
}

# crosses the 1024-message pipelining knee and block boundaries
SIZES = (96, 513, 1536, 2600)
SEEDS = (0, 1)


def ledger_signature(ledger: CostLedger) -> dict:
    """Per-phase per-op totals, keyed order-independently."""
    sig = {}
    for p in ledger.phases:
        key = (p.name, p.active_warps, str(p.overlap_group))
        assert key not in sig, "ledger merged phases must be unique"
        sig[key] = dict(p.counts)
    return sig


# -- scalar references ----------------------------------------------------------


def _reduce_block_scalar(votes, open_idx, unmatched_cols, out, msg_base,
                         block_msgs, warp_size, window, reduce_phase) -> int:
    """Algorithm 2 one column at a time, charged per column.  Returns the
    number of columns visited before the block's messages were
    exhausted."""
    n_warps = votes.shape[0]
    mask = np.full(n_warps, (1 << warp_size) - 1, dtype=np.int64)
    visited = 0
    matched_in_block = 0
    for c in range(open_idx.size):
        visited += 1
        # lane loads, masked vote, ballot over lanes with candidates
        masked = votes[:, c] & mask
        reduce_phase.add("smem_load", 1)
        reduce_phase.add("ballot", 1)
        reduce_phase.add("alu", 4)
        reduce_phase.add("branch", 1)
        bidders = np.nonzero(masked)[0]
        if bidders.size:
            w = int(bidders[0])              # ffs over the lane ballot
            lane = ffs32(int(masked[w])) - 1  # ffs within the vote word
            j = open_idx[c]
            out[j] = msg_base + w * warp_size + lane
            mask[w] &= ~(1 << lane)
            unmatched_cols[j] = False
            reduce_phase.add("alu", 3)
            reduce_phase.add("smem_store", 1)
            matched_in_block += 1
            if matched_in_block == block_msgs:
                break  # every message of this block is consumed
    reduce_phase.add("gmem_store", 2.0 * math.ceil(max(1, visited) / window))
    return visited


def _vote_words(block_matrix, n_warps, warp_size):
    """(block_msgs x columns) booleans -> one vote word per (warp, column)."""
    n_block, n_cols = block_matrix.shape
    padded = np.zeros((n_warps * warp_size, n_cols), dtype=np.int64)
    padded[:n_block] = block_matrix
    bits = np.int64(1) << np.arange(warp_size, dtype=np.int64)
    return (padded.reshape(n_warps, warp_size, n_cols)
            * bits[None, :, None]).sum(axis=1)


def reference_execute(messages, requests, ledger,
                      warps_per_cta=MAX_WARPS_PER_CTA, window=64,
                      warp_size=WARP_SIZE):
    """The blockwise matrix match over the scalar reduce: each block's
    scan is charged for the windows its reduce consumed.  Returns the
    request->message vector and the block count."""
    n_msg, n_req = len(messages), len(requests)
    out = np.full(n_req, NO_MATCH, dtype=np.int64)
    if n_msg == 0 or n_req == 0:
        return out, 0
    block = warps_per_cta * warp_size
    unmatched = np.ones(n_req, dtype=bool)
    for lo in range(0, n_msg, block):
        hi = min(lo + block, n_msg)
        n_warps = math.ceil((hi - lo) / warp_size)
        group = "pipeline" if n_warps < MAX_WARPS_PER_CTA else None
        open_idx = np.nonzero(unmatched)[0]
        votes = _vote_words(messages.match_block(requests[open_idx], lo, hi),
                            n_warps, warp_size)
        visited = _reduce_block_scalar(
            votes, open_idx, unmatched, out, lo, hi - lo, warp_size, window,
            ledger.phase("reduce", active_warps=1, overlap_group=group))
        scanned = min(open_idx.size, math.ceil(visited / window) * window)
        scan = ledger.phase("scan", active_warps=max(1, n_warps),
                            overlap_group=group)
        scan.add("gmem_load", 2 * n_warps)
        for kind in ("smem_load", "alu", "ballot", "smem_store"):
            scan.add(kind, float(n_warps * scanned))
        scan.add("sync", float(math.ceil(scanned / window)))
        if not unmatched.any():
            break
    return out, math.ceil(n_msg / block)


def reference_partitioned(matcher, messages, requests):
    """Per-queue reference for ``matcher.match``: select each queue with
    ``np.nonzero``, match it with :func:`reference_execute`, widen its
    barriers to the full CTA, and combine through the matcher's launch
    model."""
    key = matcher.partition_key
    msg_q = getattr(messages, key) % matcher.n_queues
    req_q = getattr(requests, key) % matcher.n_queues
    out = np.full(len(requests), NO_MATCH, dtype=np.int64)
    queue_cycles, meta, iterations = [], {}, 0
    for q in range(matcher.n_queues):
        m_idx = np.nonzero(msg_q == q)[0]
        r_idx = np.nonzero(req_q == q)[0]
        if m_idx.size == 0 and r_idx.size == 0:
            continue
        warps_q = min(MAX_WARPS_PER_CTA,
                      max(1, math.ceil(m_idx.size / matcher.warp_size)))
        ledger = CostLedger()
        local, iters = reference_execute(
            messages.take(m_idx), requests.take(r_idx), ledger, warps_q,
            matcher.window, matcher.warp_size)
        iterations = max(iterations, iters)
        hit = local != NO_MATCH
        out[r_idx[hit]] = m_idx[local[hit]]
        for phase in ledger.phases:
            if "sync" in phase.counts:
                phase.counts["sync"] *= MAX_WARPS_PER_CTA / warps_q
        cycles = TimingModel(matcher.spec).evaluate(ledger).cycles
        queue_cycles.append(cycles)
        meta[f"queue{q}"] = {"messages": int(m_idx.size),
                             "requests": int(r_idx.size),
                             "warps": warps_q, "cycles": cycles}
    provisioned = sum(m["warps"] * matcher.warp_size for m in meta.values())
    seconds, cycles, launch = matcher._combine(queue_cycles, provisioned,
                                               len(messages))
    meta.update(launch)
    return matcher._outcome(out, len(messages), len(requests), seconds,
                            cycles, max(1, iterations), meta)


def assert_same_outcome(got, want):
    assert np.array_equal(got.request_to_message, want.request_to_message)
    assert (got.n_messages, got.n_requests, got.seconds, got.cycles,
            got.iterations, got.replicas) == (
        want.n_messages, want.n_requests, want.seconds, want.cycles,
        want.iterations, want.replicas)
    assert got.meta == want.meta


def assert_matrix_equals_reference(msgs, reqs, **kw):
    fast_ledger, ref_ledger = CostLedger(), CostLedger()
    out_fast, it_fast = MatrixMatcher(**kw).execute(msgs, reqs, fast_ledger)
    out_ref, it_ref = reference_execute(msgs, reqs, ref_ledger, **kw)
    assert np.array_equal(out_fast, out_ref)
    assert it_fast == it_ref
    assert ledger_signature(fast_ledger) == ledger_signature(ref_ledger)


# -- matrix fast path vs scalar reference ---------------------------------------


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("seed", SEEDS)
def test_matrix_batched_equals_scalar(workload, n, seed):
    assert_matrix_equals_reference(*WORKLOADS[workload](n, seed=seed))


@pytest.mark.parametrize("warps_per_cta,window", [(2, 8), (4, 16)])
def test_matrix_batched_equals_scalar_small_blocks(warps_per_cta, window):
    """Non-default geometry: many tiny blocks exercise the early exit
    that pricing derives from the match vector."""
    assert_matrix_equals_reference(*reversed_workload(700, seed=3),
                                   warps_per_cta=warps_per_cta, window=window)


@pytest.mark.parametrize("warp_size", [4, 16])
def test_matrix_batched_equals_scalar_narrow_warps(warp_size):
    assert_matrix_equals_reference(*matching_workload(300, seed=2),
                                   warp_size=warp_size)


#: Wildcard densities of the random differentials: none, one request,
#: every other request, every request.
DENSITIES = ("none", "one", "alternate", "all")

#: Communicators the random differentials draw from: 2**15 and up set
#: the packed key's top bit.
COMMS = (0, 1, 2**15, MAX_COMM)


def random_queues(rng, key, big, density):
    """Messages and a shuffled, partly unmatched, partly wildcarded
    request queue.  ``big`` sends half the messages to one partition-key
    value, so a queue holds more than 1024 messages.  ``key`` is the
    field a wildcard may not touch (``None``: either or both may be
    wildcarded).  One extra concrete request carries a key no message
    has, which sorts just before a key that messages do have."""
    n = int(rng.integers(2200, 3000)) if big else int(rng.integers(1, 700))
    n_ranks, n_tags = int(rng.integers(1, 65)), int(rng.integers(1, 17))
    src = rng.integers(0, n_ranks, size=n)
    tag = rng.integers(1, n_tags + 1, size=n)  # tag 0 stays free
    if big:
        hot = rng.random(n) < 0.5
        if key == "src":
            src[hot] = 0
        else:
            tag[hot] = 1
    comm = rng.choice(COMMS[:int(rng.integers(1, len(COMMS) + 1))], size=n)
    msgs = EnvelopeBatch(src, tag, comm)
    reqs = msgs.take(rng.permutation(n)[:int(rng.integers(1, n + 1))])
    n_req = len(reqs)
    dead = rng.random(n_req) < 0.2
    wild = np.zeros(n_req, dtype=bool)
    if density == "one":
        wild[rng.integers(n_req)] = True
    elif density == "alternate":
        wild[::2] = True
    elif density == "all":
        wild[:] = True
    field = rng.integers(0, 3, size=n_req)  # 0 source, 1 tag, 2 both
    if key is not None:
        field[:] = 1 if key == "src" else 0
    req_src = np.where(dead, n_ranks + 10_000, reqs.src)
    req_src = np.where(wild & (field != 1), ANY_SOURCE, req_src)
    req_tag = np.where(wild & (field != 0), ANY_TAG, reqs.tag)
    # (comm, src, tag - 1) of the lowest-tag message: absent, and the key
    # right before (comm, src, tag) in packed order
    low = int(np.argmin(msgs.tag))
    at = int(rng.integers(0, n_req + 1))
    return msgs, EnvelopeBatch(
        np.insert(req_src, at, msgs.src[low]),
        np.insert(req_tag, at, msgs.tag[low] - 1),
        np.insert(reqs.comm, at, msgs.comm[low]))


@pytest.mark.parametrize("seed", range(12))
def test_matrix_random_differential(seed):
    rng = np.random.default_rng(1000 + seed)
    kw = dict(warps_per_cta=int(rng.integers(1, MAX_WARPS_PER_CTA + 1)),
              window=int(rng.integers(16, 65)),
              warp_size=int(rng.integers(4, WARP_SIZE + 1)))
    msgs, reqs = random_queues(rng, None, big=seed % 3 == 0,
                               density=DENSITIES[seed % 4])
    assert_matrix_equals_reference(msgs, reqs, **kw)


# -- fast path vs pedantic simulator ------------------------------------------


@pytest.mark.parametrize("workload", ["random", "wildcard", "reversed"])
@pytest.mark.parametrize("n", [48, 96, 160])
def test_matrix_fast_matches_pedantic(workload, n):
    msgs, reqs = WORKLOADS[workload](n, seed=0)
    matcher = MatrixMatcher(warps_per_cta=2, window=8)
    fast = matcher.match(msgs, reqs)
    pedantic = matcher.match_pedantic(msgs, reqs)
    assert np.array_equal(fast.request_to_message,
                          pedantic.request_to_message)
    assert fast.matched_count == pedantic.matched_count


# -- partitioned matcher vs per-queue scalar reference ------------------------


@pytest.mark.parametrize("workload", ["random", "ordered", "partial"])
@pytest.mark.parametrize("n", [513, 1536])
def test_partitioned_batched_equals_scalar(workload, n):
    msgs, reqs = WORKLOADS[workload](n, seed=0)
    matcher = PartitionedMatcher(n_queues=4)
    assert_same_outcome(matcher.match(msgs, reqs),
                        reference_partitioned(matcher, msgs, reqs))


@pytest.mark.parametrize("seed", range(24))
def test_partitioned_random_differential(seed):
    rng = np.random.default_rng(seed)
    key = ("src", "tag")[seed % 2]
    big = seed % 3 == 0
    matcher = PartitionedMatcher(
        n_queues=int(rng.integers(1, 33)), partition_key=key,
        window=int(rng.integers(16, 65)),
        warp_size=int(rng.integers(4, WARP_SIZE + 1)),
        compaction=bool(rng.integers(2)))
    msgs, reqs = random_queues(rng, key, big, DENSITIES[seed // 2 % 4])
    if big:
        assert np.bincount(getattr(msgs, key) % matcher.n_queues).max() > 1024
    assert_same_outcome(matcher.match(msgs, reqs),
                        reference_partitioned(matcher, msgs, reqs))


# -- hash matcher: precomputed slots ------------------------------------------


@pytest.mark.parametrize("n", [0, 1, 64, 300, 2000])
def test_hash_precompute_equals_reference(n):
    msgs, reqs = matching_workload(n, seed=0)
    fast = HashMatcher(precompute_slots=True).match(msgs, reqs)
    slow = HashMatcher(precompute_slots=False).match(msgs, reqs)
    assert np.array_equal(fast.request_to_message, slow.request_to_message)
    assert fast.cycles == slow.cycles
    assert fast.iterations == slow.iterations


def test_hash_precompute_equals_reference_duplicates():
    # heavy duplicate keys drive the eviction/offset-probing paths
    src = np.zeros(200, dtype=np.int64)
    tag = np.repeat(np.arange(10), 20).astype(np.int64)
    comm = np.zeros(200, dtype=np.int64)
    msgs = EnvelopeBatch(src, tag, comm)
    reqs = msgs.take(np.random.default_rng(0).permutation(200))
    fast = HashMatcher(precompute_slots=True).match(msgs, reqs)
    slow = HashMatcher(precompute_slots=False).match(msgs, reqs)
    assert np.array_equal(fast.request_to_message, slow.request_to_message)
    assert fast.cycles == slow.cycles
    assert fast.matched_count == 200


# -- vectorized atomic CAS ----------------------------------------------------


def _scalar_cas_reference(data, addrs, expected, desired, active):
    """The pre-vectorization per-lane loop, lowest lane first."""
    success = np.zeros(addrs.size, dtype=bool)
    for i in range(addrs.size):
        if not active[i]:
            continue
        if data[addrs[i]] == expected[i]:
            data[addrs[i]] = desired[i]
            success[i] = True
    return success


@pytest.mark.parametrize("seed", range(20))
def test_atomic_cas_matches_scalar_reference(seed):
    rng = np.random.default_rng(seed)
    mem = GlobalMemory(16)
    mem.data[:] = rng.integers(0, 3, size=16)
    ref_data = mem.data.copy()
    addrs = rng.integers(0, 16, size=32)
    expected = rng.integers(0, 3, size=32)
    desired = rng.integers(10, 20, size=32)
    active = rng.random(32) < 0.8
    success = mem.atomic_cas(addrs, expected, desired, active=active)
    ref_success = _scalar_cas_reference(ref_data, addrs, expected, desired,
                                        active)
    assert np.array_equal(success, ref_success)
    assert np.array_equal(mem.data, ref_data)


def test_atomic_cas_chains_same_address():
    """A later lane whose expected equals an earlier lane's desired value
    must still win: same-address lanes replay against updated memory."""
    mem = GlobalMemory(4)
    addrs = np.array([1, 1, 1])
    expected = np.array([0, 7, 9])
    desired = np.array([7, 9, 11])
    success = mem.atomic_cas(addrs, expected, desired)
    assert success.all()
    assert mem.data[1] == 11


# -- blockwise scan memory bound ----------------------------------------------


def _obs_pair(factory, msgs, reqs):
    """Run the same matcher with and without observability attached and
    return both outcomes (obs run first so tracer state can't leak)."""
    traced = factory(Observability.enabled()).match(msgs, reqs)
    plain = factory(None).match(msgs, reqs)
    return traced, plain


@pytest.mark.parametrize("factory,workload", [
    (lambda obs: MatrixMatcher(obs=obs), "random"),
    (lambda obs: MatrixMatcher(obs=obs), "wildcard"),
    (lambda obs: MatrixMatcher(obs=obs), "partial"),
    # partitioned matching rejects the ANY_SOURCE workload by design
    (lambda obs: PartitionedMatcher(n_queues=4, obs=obs), "random"),
    (lambda obs: PartitionedMatcher(n_queues=4, obs=obs), "ordered"),
    (lambda obs: PartitionedMatcher(n_queues=4, obs=obs), "partial"),
], ids=["matrix-random", "matrix-wildcard", "matrix-partial",
        "partitioned-random", "partitioned-ordered", "partitioned-partial"])
def test_obs_attachment_is_bit_identical(workload, factory):
    """The zero-overhead-when-off contract's flip side: attaching the
    observability layer must not perturb the *model* -- same assignment,
    same modeled cycles, same iteration count."""
    msgs, reqs = WORKLOADS[workload](513, seed=1)
    traced, plain = _obs_pair(factory, msgs, reqs)
    assert np.array_equal(traced.request_to_message,
                          plain.request_to_message)
    assert traced.cycles == plain.cycles
    assert traced.iterations == plain.iterations
    assert traced.matched_count == plain.matched_count


@pytest.mark.parametrize("workload", ["random", "partial"])
def test_obs_attachment_is_bit_identical_hash(workload):
    msgs, reqs = WORKLOADS[workload](513, seed=1)
    traced, plain = _obs_pair(lambda obs: HashMatcher(obs=obs), msgs, reqs)
    assert np.array_equal(traced.request_to_message,
                          plain.request_to_message)
    assert traced.cycles == plain.cycles
    assert traced.iterations == plain.iterations


def test_obs_attachment_preserves_ledger():
    """The cost ledger -- per-phase op totals -- is part of the model
    output too; the tracer must never add or merge phases."""
    msgs, reqs = WORKLOADS["random"](700, seed=2)
    obs_ledger, plain_ledger = CostLedger(), CostLedger()
    out_obs, it_obs = MatrixMatcher(obs=Observability.enabled()).execute(
        msgs, reqs, obs_ledger)
    out_plain, it_plain = MatrixMatcher().execute(msgs, reqs, plain_ledger)
    assert np.array_equal(out_obs, out_plain)
    assert it_obs == it_plain
    assert ledger_signature(obs_ledger) == ledger_signature(plain_ledger)


# -- sanitizer: zero overhead when off, bit-identical when on ------------------


@pytest.mark.parametrize("workload", ["random", "wildcard", "reversed"])
@pytest.mark.parametrize("n", [96, 160])
def test_sanitize_attachment_is_bit_identical_matrix_pedantic(workload, n):
    """Attaching the sanitizer must not perturb the model: the pedantic
    path's match vector, modeled cycles, and per-phase ledger totals are
    identical with and without the analysis pass (and the shipped kernel
    is clean, so nothing is even recorded)."""
    from repro.simt.sanitize import Sanitizer
    msgs, reqs = WORKLOADS[workload](n, seed=0)
    kw = dict(warps_per_cta=2, window=8)
    san = Sanitizer()
    inst = MatrixMatcher(sanitize=san, **kw).match_pedantic(msgs, reqs)
    plain = MatrixMatcher(**kw).match_pedantic(msgs, reqs)
    assert san.report.clean, san.report.summary()
    assert np.array_equal(inst.request_to_message, plain.request_to_message)
    assert inst.cycles == plain.cycles
    assert inst.iterations == plain.iterations


@pytest.mark.parametrize("n", [64, 300])
def test_sanitize_attachment_is_bit_identical_hash_pedantic(n):
    from repro.simt.sanitize import Sanitizer
    msgs, reqs = matching_workload(n, seed=1)
    san = Sanitizer()
    inst = HashMatcher(sanitize=san).match_pedantic(msgs, reqs)
    plain = HashMatcher().match_pedantic(msgs, reqs)
    assert san.report.clean, san.report.summary()
    assert np.array_equal(inst.request_to_message, plain.request_to_message)
    assert inst.cycles == plain.cycles


@pytest.mark.parametrize("factory,workload", [
    (lambda san: MatrixMatcher(sanitize=san), "random"),
    (lambda san: MatrixMatcher(sanitize=san), "wildcard"),
    (lambda san: PartitionedMatcher(n_queues=4, sanitize=san), "ordered"),
    (lambda san: HashMatcher(sanitize=san), "partial"),
], ids=["matrix-random", "matrix-wildcard", "partitioned-ordered",
        "hash-partial"])
def test_sanitize_attachment_is_bit_identical_fast_paths(factory, workload):
    from repro.simt.sanitize import Sanitizer
    msgs, reqs = WORKLOADS[workload](513, seed=1)
    san = Sanitizer()
    inst = factory(san).match(msgs, reqs)
    plain = factory(None).match(msgs, reqs)
    assert np.array_equal(inst.request_to_message, plain.request_to_message)
    assert inst.cycles == plain.cycles
    assert inst.iterations == plain.iterations


def test_sanitize_attachment_preserves_pedantic_ledger():
    from repro.simt.sanitize import Sanitizer
    msgs, reqs = WORKLOADS["random"](160, seed=2)
    kw = dict(warps_per_cta=2, window=8)
    san = Sanitizer()
    inst = MatrixMatcher(sanitize=san, **kw).match_pedantic(msgs, reqs)
    plain = MatrixMatcher(**kw).match_pedantic(msgs, reqs)
    assert inst.cycles == plain.cycles
    assert san.report.clean


def assert_blockwise_memory_bound(match, want_iterations):
    """Matching 10^5 messages must not materialize the dense
    n_msg x n_req matrix: peak extra memory is O(block x n_req)."""
    n_msg, n_req = 100_000, 4_096
    msgs = EnvelopeBatch(np.arange(n_msg, dtype=np.int64) % 30_000,
                         np.arange(n_msg, dtype=np.int64) // 30_000,
                         np.zeros(n_msg, dtype=np.int64))
    # request k targets message k*24 exactly (unique envelope per message)
    want = np.arange(n_req, dtype=np.int64) * 24
    reqs = msgs.take(want)
    tracemalloc.start()
    out, iterations = match(msgs, reqs)
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    assert np.array_equal(out, want)
    assert iterations == want_iterations
    dense_bytes = n_msg * n_req  # the full bool match matrix
    assert peak < dense_bytes / 4
    assert peak < 100 * 2 ** 20


def test_blockwise_scan_memory_bound():
    # ceil(100_000 / 1024): all blocks were scanned
    assert_blockwise_memory_bound(
        lambda msgs, reqs: MatrixMatcher().execute(msgs, reqs, CostLedger()),
        98)


def test_blockwise_scan_memory_bound_partitioned():
    def match(msgs, reqs):
        outcome = PartitionedMatcher(n_queues=5).match(msgs, reqs)
        return outcome.request_to_message, outcome.iterations
    # five queues of 20,000 messages: ceil(20_000 / 1024) blocks each
    assert_blockwise_memory_bound(match, 20)
