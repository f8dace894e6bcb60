"""Open-loop load generation and the serve bench record schema."""

from __future__ import annotations

import numpy as np

from repro.bench.regression import (ServePerfRecord, append_entry,
                                    validate_serve_entry)
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


class TestRecordSchema:
    def _record(self, workload: str = "df_amg") -> ServePerfRecord:
        return ServePerfRecord(
            workload=workload, tenants=1, n_envelopes=100, submitted=10,
            accepted=10, shed_retryable=0, shed_overloaded=0, flushes=3,
            matched=40, retunes=1, seconds=0.01,
            matches_per_second=4000.0, latency_p50_vt=1e-4,
            latency_p99_vt=2e-4, seed=0)

    def test_appended_entry_validates(self, tmp_path):
        path = tmp_path / "BENCH_serve.json"
        report = append_entry([self._record(), self._record("df_minife")],
                              label="test", path=path)
        entry = report["entries"][-1]
        assert validate_serve_entry(entry) == []
        assert [r["workload"] for r in entry["records"]] == \
            ["df_amg", "df_minife"]

    def test_validation_flags_missing_fields(self):
        assert validate_serve_entry({"label": "x"})  # no timestamp/records
        bad = {"label": "x", "timestamp": "t",
               "records": [{"workload": "w"}]}
        problems = validate_serve_entry(bad)
        assert any("missing 'matched'" in p for p in problems)

    def test_committed_report_validates(self):
        from repro.bench.regression import load_report, serve_report_path
        report = load_report(serve_report_path())
        assert report["entries"], "BENCH_serve.json must ship an entry"
        for entry in report["entries"]:
            assert validate_serve_entry(entry) == []
