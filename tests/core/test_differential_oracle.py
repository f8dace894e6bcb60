"""Randomized differential-oracle suite for the matching relaxations.

Every case builds a seeded workload (random tuples, wildcards, multiple
communicators, unexpected-message ratios, or a synthetic proxy-app trace
from :mod:`repro.traces.generator`) and cross-checks the GPU matchers
against the sequential reference oracle, asserting exactly what each
relaxation promises:

* :class:`ListMatcher` and :class:`MatrixMatcher` implement full MPI
  semantics: their assignment must equal :func:`reference_match` bit for
  bit on *every* workload, wildcards included.
* :class:`PartitionedMatcher` only gives up ``MPI_ANY_SOURCE``: on any
  workload whose requests lack it, the assignment must still equal the
  reference (tag wildcards stay legal).
* :class:`HashMatcher` gives up ordering and wildcards: its outcome must
  be *valid* under relaxed semantics (envelope-compatible pairs, no
  double matching), can never out-match the oracle, and must reach the
  oracle's count on fully-matchable workloads.

The grid below is 51 case shapes x 5 fixed seeds = 255 generated cases,
comfortably above the 200-case floor, and runs in tier-1.  The
``refire-*`` shapes model partitioned/Benchpark streams -- a tiny tuple
cardinality re-fired many times -- and the ``trace-bp_*`` shapes lift
the same signature from the AMG2023 / Kripke / Laghos app models.  A
final chaos-marked case (outside tier-1) re-fires partitioned channels
across a worker SIGKILL and checks the recovered payload stream against
a clean run.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.envelope import ANY_SOURCE, ANY_TAG, EnvelopeBatch
from repro.core.hash_matching import HashMatcher
from repro.core.list_matching import ListMatcher
from repro.core.matrix_matching import MatrixMatcher
from repro.core.partitioned import PartitionedMatcher
from repro.core.verify import check_mpi_ordering, check_relaxed, reference_match
from repro.traces.events import KIND_POST, KIND_SEND
from repro.traces.generator import generate_trace

SEEDS = (0, 1, 2, 3, 4)

#: Cap on trace-derived queue depth so the full grid stays tier-1 fast.
TRACE_EVENT_CAP = 120


# -- workload builders --------------------------------------------------------


def _matchable(seed, n, n_ranks, n_tags):
    """Fully-matchable random tuples (the paper's micro-benchmark shape):
    the receive queue is a permutation of the message queue."""
    rng = np.random.default_rng(seed * 7919 + n)
    msgs = EnvelopeBatch.random(n, n_ranks=n_ranks, n_tags=n_tags, rng=rng)
    return msgs, msgs.take(rng.permutation(n))


def _independent(seed, n_msg, n_req, n_ranks):
    """Independently drawn queues: partial matches plus unexpected
    messages / unmatched requests in the given ratio."""
    rng = np.random.default_rng(seed * 104729 + n_msg * 31 + n_req)
    msgs = EnvelopeBatch.random(n_msg, n_ranks=n_ranks, n_tags=8, rng=rng)
    reqs = EnvelopeBatch.random(n_req, n_ranks=n_ranks, n_tags=8, rng=rng)
    return msgs, reqs


def _with_wildcards(seed, n, density, any_source):
    """Fully-matchable base with wildcards sprinkled over the requests.

    ``any_source=False`` keeps ``MPI_ANY_SOURCE`` out (tag wildcards
    only), which is exactly the partitioned matcher's precondition.
    """
    msgs, reqs = _matchable(seed, n, n_ranks=16, n_tags=8)
    rng = np.random.default_rng(seed * 65537 + n)
    src = reqs.src.copy()
    tag = reqs.tag.copy()
    if any_source:
        src[rng.random(n) < density] = ANY_SOURCE
    tag[rng.random(n) < density] = ANY_TAG
    return msgs, EnvelopeBatch(src, tag, reqs.comm)


def _multi_comm(seed, n, n_comms):
    """Fully-matchable tuples spread over several communicators; comm
    must isolate matching (same src/tag on another comm is not a hit)."""
    rng = np.random.default_rng(seed * 6151 + n)
    msgs = EnvelopeBatch(src=rng.integers(0, 8, size=n),
                         tag=rng.integers(0, 4, size=n),
                         comm=rng.integers(0, n_comms, size=n))
    return msgs, msgs.take(rng.permutation(n))


def _refire_stream(seed, pairs, refires):
    """A partitioned-workload shape: ``pairs`` distinct envelope tuples,
    each re-fired ``refires`` times (huge per-pair count over a tiny
    tuple cardinality -- the Benchpark signature).  Requests are a
    permutation of the messages, wildcard-free, so every matcher down
    to the hash path must fully match it."""
    rng = np.random.default_rng(seed * 92821 + pairs * 131 + refires)
    src = rng.integers(0, 16, size=pairs)
    tag = rng.integers(0, 4, size=pairs)
    comm = rng.integers(0, 2, size=pairs)
    n = pairs * refires
    idx = rng.integers(0, pairs, size=n)
    msgs = EnvelopeBatch(src=src[idx], tag=tag[idx], comm=comm[idx])
    return msgs, msgs.take(rng.permutation(n))


def _from_trace(seed, app):
    """Queues lifted from a synthetic DOE proxy-application trace: sends
    become the unexpected-message queue (src = sending rank), receive
    posts become the request queue (wildcards as the app posted them)."""
    trace = generate_trace(app, n_ranks=8, seed=seed)
    cols = trace.columns
    sends = np.flatnonzero(cols["kind"] == KIND_SEND)[:TRACE_EVENT_CAP]
    posts = np.flatnonzero(cols["kind"] == KIND_POST)[:TRACE_EVENT_CAP]
    msgs = EnvelopeBatch(src=cols["rank"][sends], tag=cols["tag"][sends],
                         comm=cols["comm"][sends])
    reqs = EnvelopeBatch(src=cols["peer"][posts], tag=cols["tag"][posts],
                         comm=cols["comm"][posts])
    return msgs, reqs


# -- case grid: 51 shapes -----------------------------------------------------

CASES = {}
for _n in (8, 33, 64, 120):
    for _ranks in (4, 64):
        for _tags in (4, 16):
            CASES[f"matchable-n{_n}-r{_ranks}-t{_tags}"] = (
                lambda s, n=_n, r=_ranks, t=_tags: _matchable(s, n, r, t))
for _nm, _nr in ((60, 60), (100, 40), (40, 100), (96, 24)):
    for _ranks in (8, 32):
        CASES[f"independent-m{_nm}-q{_nr}-r{_ranks}"] = (
            lambda s, m=_nm, q=_nr, r=_ranks: _independent(s, m, q, r))
for _n in (32, 90):
    for _d in (0.25, 0.5):
        CASES[f"wildcard-n{_n}-d{_d}"] = (
            lambda s, n=_n, d=_d: _with_wildcards(s, n, d, any_source=True))
        CASES[f"tagwild-n{_n}-d{_d}"] = (
            lambda s, n=_n, d=_d: _with_wildcards(s, n, d, any_source=False))
for _n in (48, 96):
    for _c in (2, 4):
        CASES[f"multicomm-n{_n}-c{_c}"] = (
            lambda s, n=_n, c=_c: _multi_comm(s, n, c))
for _pairs in (2, 6):
    for _refires in (10, 40):
        CASES[f"refire-p{_pairs}-k{_refires}"] = (
            lambda s, p=_pairs, k=_refires: _refire_stream(s, p, k))
for _app in ("exmatex_lulesh", "exmatex_cmc", "df_amg", "df_minidft",
             "df_minife", "cesar_crystalrouter", "exact_cns",
             "amr_boxlib", "bp_amg2023", "bp_kripke", "bp_laghos"):
    CASES[f"trace-{_app}"] = (lambda s, a=_app: _from_trace(s, a))

assert len(CASES) * len(SEEDS) >= 200, "the issue demands >= 200 cases"


def _workload(case, seed):
    msgs, reqs = CASES[case](seed)
    assert len(msgs) > 0 and len(reqs) > 0, f"degenerate case {case}"
    return msgs, reqs


# -- differential assertions --------------------------------------------------


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("case", sorted(CASES))
def test_matchers_agree_with_reference_oracle(case, seed):
    msgs, reqs = _workload(case, seed)
    ref = reference_match(msgs, reqs)

    # The CPU list baseline implements the oracle's semantics directly.
    lst = ListMatcher().match(msgs, reqs)
    assert np.array_equal(lst.request_to_message, ref.request_to_message)

    # Matrix matching is fully MPI-compliant on every workload.
    mtx = MatrixMatcher(warps_per_cta=2, window=16).match(msgs, reqs)
    assert np.array_equal(mtx.request_to_message, ref.request_to_message)
    assert mtx.matched_count == ref.matched_count
    check_mpi_ordering(msgs, reqs, mtx)

    # Partitioned matching: identical to the reference whenever its
    # precondition (no MPI_ANY_SOURCE) holds.
    if not np.any(reqs.src == ANY_SOURCE):
        part = PartitionedMatcher(n_queues=4).match(msgs, reqs)
        assert np.array_equal(part.request_to_message,
                              ref.request_to_message)
        check_mpi_ordering(msgs, reqs, part)

    # Hash matching: needs the no-wildcards relaxation; under it the
    # outcome must be relaxed-valid and can never beat the oracle.
    if not reqs.has_wildcards:
        hsh = HashMatcher().match(msgs, reqs)
        check_relaxed(msgs, reqs, hsh)
        assert hsh.matched_count <= ref.matched_count
        if case.startswith(("matchable", "multicomm", "refire")):
            # a perfect matching exists -> unordered matching finds it all
            check_relaxed(msgs, reqs, hsh, require_complete=True)
            assert hsh.matched_count == len(reqs)


@pytest.mark.parametrize("seed", SEEDS)
def test_trace_cases_exercise_wildcards_and_unexpected(seed):
    """Guard the generator-derived corner of the grid: across the app
    models we must actually see wildcard posts and unexpected messages,
    otherwise the trace cases silently degenerate to the random ones."""
    saw_wildcard = saw_unexpected = False
    for case in CASES:
        if not case.startswith("trace-"):
            continue
        msgs, reqs = _workload(case, seed)
        saw_wildcard |= bool(reqs.has_wildcards)
        ref = reference_match(msgs, reqs)
        saw_unexpected |= ref.matched_count < len(msgs)
    assert saw_wildcard, "no proxy-app trace produced a wildcard post"
    assert saw_unexpected, "no proxy-app trace produced unexpected messages"


@pytest.mark.parametrize("seed", SEEDS)
def test_refire_cases_have_tiny_tuple_cardinality(seed):
    """Guard the partitioned corner of the grid: the re-fire shapes must
    actually exhibit the Benchpark signature (messages vastly outnumber
    distinct envelope tuples), or they degenerate to the random cases."""
    for case in CASES:
        if not case.startswith("refire"):
            continue
        msgs, _ = _workload(case, seed)
        tuples = len({(s, t, c) for s, t, c
                      in zip(msgs.src.tolist(), msgs.tag.tolist(),
                             msgs.comm.tolist())})
        assert len(msgs) >= 5 * tuples


@pytest.mark.chaos
@pytest.mark.parametrize("seed", (11, 23))
def test_partitioned_refire_survives_worker_sigkill(seed):
    """Oracle-style differential under faults: drive partitioned
    channels through the cluster serve plane, SIGKILL a worker between
    epochs, and require the recovered re-fire stream to be bit-identical
    to a clean same-seed run (matching replay is exact, so the single
    match per epoch binds the same channel state either way)."""
    from repro.serve import ClusterService, CollectiveBridge, TenantSpec

    def drive(arm):
        cl = ClusterService(n_workers=3, seed=seed, start_method="fork")
        cl.register(TenantSpec(name="mpi", span=4, autotune=False,
                               partitioned=True))
        with cl:
            if arm is not None:
                cl.arm_worker_exit(*arm)
            bridge = CollectiveBridge(cl, "mpi")
            ps_a = bridge.psend_init(0, 1, 6, tag=3)
            pr_a = bridge.precv_init(1, 0, 6, tag=3)
            ps_b = bridge.psend_init(1, 0, 6, tag=4)
            pr_b = bridge.precv_init(0, 1, 6, tag=4)
            out = []
            for epoch in range(4):
                for req in (ps_a, pr_a, ps_b, pr_b):
                    req.start()
                for i in range(6):
                    ps_a.pready(i, (seed, epoch, i))
                    ps_b.pready(i, (seed, epoch, -i))
                ps_a.wait()
                ps_b.wait()
                out.append((pr_a.wait(), pr_b.wait()))
            return out, cl.report(), len(cl.recoveries)

    clean_out, clean_report, clean_recoveries = drive(None)
    assert clean_recoveries == 0
    out, report, recoveries = drive(([1, 2, 1][seed % 3], 1 + seed % 3))
    assert recoveries >= 1, "the armed SIGKILL never fired"
    assert out == clean_out
    assert report == clean_report
