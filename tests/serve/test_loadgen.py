"""Open-loop load generation."""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.serve import (DEFAULT_BENCH_APPS, busiest_rank, merge_workloads,
                         run_workload, tenant_stream_from_trace,
                         workload_from_app)
from repro.traces import generate_trace


class TestStreamExtraction:
    def test_busiest_rank_is_deterministic_and_in_range(self):
        trace = generate_trace("df_amg", n_ranks=8, steps=2, seed=0)
        rank = busiest_rank(trace)
        assert 0 <= rank < trace.n_ranks
        assert rank == busiest_rank(generate_trace("df_amg", n_ranks=8,
                                                   steps=2, seed=0))

    def test_chunks_preserve_trace_order(self):
        trace = generate_trace("df_amg", n_ranks=8, steps=2, seed=0)
        rank = busiest_rank(trace)
        fine = tenant_stream_from_trace(trace, rank, chunk_envelopes=16)
        coarse = tenant_stream_from_trace(trace, rank,
                                          chunk_envelopes=10 ** 9)
        assert len(coarse) == 1
        # concatenating the fine chunks reproduces the coarse stream
        fine_msgs = np.concatenate([m.src for m, _ in fine if len(m)])
        assert fine_msgs.tolist() == coarse[0][0].src.tolist()
        assert all(len(m) + len(r) <= 16 for m, r in fine)

    def test_wildcards_survive_extraction(self):
        from repro.core.envelope import ANY_SOURCE
        trace = generate_trace("df_minife", n_ranks=8, steps=2, seed=0)
        chunks = tenant_stream_from_trace(trace, busiest_rank(trace))
        any_src = any((r.src == ANY_SOURCE).any() for _, r in chunks)
        assert any_src   # df_minife is the Table I MPI_ANY_SOURCE user

    @pytest.mark.parametrize("rank", [8, -1, 99])
    def test_rank_outside_the_trace_raises(self, rank):
        trace = generate_trace("df_amg", n_ranks=8, steps=2, seed=0)
        with pytest.raises(ValueError, match="out of range"):
            tenant_stream_from_trace(trace, rank)

    def test_projected_trace_serves_only_its_rank(self):
        full = generate_trace("df_amg", n_ranks=8, steps=2, seed=0)
        proj = generate_trace("df_amg", n_ranks=8, steps=2, seed=0,
                              busiest_only=True)
        rank = proj.meta["rank"]
        assert rank == busiest_rank(full)
        got = tenant_stream_from_trace(proj, rank, chunk_envelopes=10 ** 9)
        want = tenant_stream_from_trace(full, rank, chunk_envelopes=10 ** 9)
        assert got[0][0] == want[0][0] and got[0][1] == want[0][1]
        with pytest.raises(ValueError, match="only rank"):
            tenant_stream_from_trace(proj, (rank + 1) % 8)


class TestWorkloads:
    def test_default_apps_cover_the_lattice(self):
        assert len(DEFAULT_BENCH_APPS) >= 3
        apps = dict(DEFAULT_BENCH_APPS)
        assert apps["df_minife"] is True       # wildcard user
        assert apps["df_amg"] is False         # ordering-tolerant

    def test_same_seed_same_workload(self):
        a = workload_from_app("df_amg", n_ranks=8, steps=2, seed=5)
        b = workload_from_app("df_amg", n_ranks=8, steps=2, seed=5)
        assert [x.vt for x in a.arrivals] == [x.vt for x in b.arrivals]
        assert all(
            x.messages.src.tolist() == y.messages.src.tolist()
            and x.requests.tag.tolist() == y.requests.tag.tolist()
            for x, y in zip(a.arrivals, b.arrivals))

    @pytest.mark.parametrize("rate", [0.0, -1.0, float("nan"),
                                      float("inf"), float("-inf")])
    def test_rate_must_be_finite_and_positive(self, rate):
        with pytest.raises(ValueError, match="rate_rps"):
            workload_from_app("df_amg", n_ranks=8, steps=2, rate_rps=rate)

    def test_arrivals_are_open_loop_and_sorted(self):
        w = workload_from_app("df_amg", n_ranks=8, steps=2, seed=0,
                              rate_rps=1000.0)
        vts = [a.vt for a in w.arrivals]
        assert vts == sorted(vts)
        assert all(vt > 0 for vt in vts)

    def test_merge_interleaves_by_virtual_time(self):
        parts = [workload_from_app(app, n_ranks=8, steps=2, seed=0,
                                   ordering_required=ordering)
                 for app, ordering in DEFAULT_BENCH_APPS]
        merged = merge_workloads("mixed", parts)
        vts = [a.vt for a in merged.arrivals]
        assert vts == sorted(vts)
        assert len(merged.tenants) == len(DEFAULT_BENCH_APPS)
        assert merged.n_envelopes == sum(p.n_envelopes for p in parts)

    def test_run_workload_is_deterministic(self):
        w = workload_from_app("df_amg", n_ranks=8, steps=2, seed=2,
                              ordering_required=False)
        reports = []
        for _ in range(2):
            service, _ = run_workload(w, n_shards=2, seed=2,
                                      promote_after=2)
            reports.append(service.report())
        assert reports[0] == reports[1]
        assert reports[0]["matched"] > 0



#: ``(app, seed, chunk_envelopes, session)`` -> SHA-256 of the stream
#: ``workload_from_app`` cuts for that ``DEFAULT_BENCH_APPS`` tenant at
#: the ledger's trace shape (default ranks, ``PIN_STEPS`` steps): every
#: arrival's ``vt`` as ``float.hex()``, then the bytes of its message
#: ``src``/``tag``/``comm``/packed key and its request ``src``/``tag``/
#: ``comm`` columns, each prefixed by its length.
STREAM_PINS = {
    ("df_minife", 0, 256, False):
        "ec8a7202b10d7f8a0af26b827b1e29721773ac374dc042641a1e7ae261a22545",
    ("df_minife", 0, 16, True):
        "0722af776a0b2876d1e10b8f2a55c81703c59465ccc5a8ff8b2e0980c0cdf856",
    ("df_minife", 1, 256, False):
        "978064349199185336151f51908f9154f3c7634370bb2ecfbb408e2870aba074",
    ("df_minife", 1, 16, True):
        "ed24643cbbf04f2220e55ddd651377abd4bc6303dbe173c8c6a164662d7f0d69",
    ("exmatex_lulesh", 0, 256, False):
        "ca8e4460c5dddea90fd8bef96fd45383c716716846619af04699723b22015124",
    ("exmatex_lulesh", 0, 16, True):
        "ce74d5de47f5424bcfb3319a3d2fd1ecf19b900f8f44e7e204d561c800c57dfe",
    ("exmatex_lulesh", 1, 256, False):
        "b2631dcfed5f036b98166b9ac06cd1a6392d06642347a424243be31a52f2f896",
    ("exmatex_lulesh", 1, 16, True):
        "878e7bc2dba8553d4c4ab815f7ae10ccff2a30686928ffa1da7a105cac3a6430",
    ("df_amg", 0, 256, False):
        "ba167756575baf6d25df464fd10e65d34a121a34316ef8f92c994e32ebfe2a87",
    ("df_amg", 0, 16, True):
        "63da20b95f4ae52dc240eb88edc4cf680aafbc101c53d638956d9ff63f9527cb",
    ("df_amg", 1, 256, False):
        "4d880ad860edf8dd1f0f4436697f81630684c2366818ababafe068de1f9f93a2",
    ("df_amg", 1, 16, True):
        "686ee005c321fe47b4d32dc674bf16f2f6dcaa3ce4a293315616caae1ea0ebe8",
}

#: the ledger's trace-driven workloads generate at this step count
PIN_STEPS = 16

#: the ledger's request shapes: stateless 256-envelope requests
#: (serve-mix) and 16-envelope session requests (serve-session)
PIN_SHAPES = ((256, False), (16, True))


def _stream_digest(workload) -> str:
    h = hashlib.sha256()
    for arrival in workload.arrivals:
        h.update(arrival.vt.hex().encode())
        m, r = arrival.messages, arrival.requests
        for col in (m.src, m.tag, m.comm, m.packed(), r.src, r.tag, r.comm):
            h.update(len(col).to_bytes(8, "little"))
            h.update(np.ascontiguousarray(col).tobytes())
    return h.hexdigest()


class TestStreamPins:
    def test_every_bench_tenant_pinned(self):
        assert sorted(STREAM_PINS) == sorted(
            (app, seed, chunk, session) for app, _ in DEFAULT_BENCH_APPS
            for seed in (0, 1) for chunk, session in PIN_SHAPES)

    @pytest.mark.parametrize("app,ordered", DEFAULT_BENCH_APPS)
    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("chunk,session", PIN_SHAPES)
    def test_stream_matches_pin(self, app, ordered, seed, chunk, session):
        w = workload_from_app(app, steps=PIN_STEPS, chunk_envelopes=chunk,
                              seed=seed, ordering_required=ordered,
                              session=session)
        assert w.tenants[0].session is session
        assert _stream_digest(w) == STREAM_PINS[app, seed, chunk, session]
