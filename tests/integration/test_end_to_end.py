"""Cross-module integration: traces -> matchers, clusters under every
relaxation set, and the runnable examples themselves."""

from __future__ import annotations

import runpy
import sys
from pathlib import Path

import numpy as np
import pytest

from repro import (EnvelopeBatch, GPU, MatchingEngine, RelaxationSet,
                   TABLE_II_CONFIGS)
from repro.core.verify import check_mpi_ordering, check_relaxed
from repro.mpi import Cluster, Communicator, alltoall, barrier
from repro.traces import generate_trace
from repro.traces.events import KIND_POST, KIND_SEND

EXAMPLES = Path(__file__).resolve().parents[2] / "examples"


class TestTraceToMatcher:
    """Feed real (synthetic-app) traffic through the matching engines."""

    def _batches_for_rank(self, trace, rank: int):
        """Messages arriving at `rank` and the receives it posts, in
        trace order, as envelope batches."""
        cols = trace.columns
        arrived = (cols["kind"] == KIND_SEND) & (cols["peer"] == rank)
        posted = (cols["kind"] == KIND_POST) & (cols["rank"] == rank)
        mb = EnvelopeBatch(src=cols["rank"][arrived], tag=cols["tag"][arrived],
                           comm=cols["comm"][arrived])
        rb = EnvelopeBatch(src=cols["peer"][posted], tag=cols["tag"][posted],
                           comm=cols["comm"][posted])
        return mb, rb

    @pytest.mark.parametrize("app", ["exmatex_lulesh", "df_partisn",
                                     "cesar_crystalrouter"])
    def test_app_traffic_matches_under_mpi_semantics(self, app):
        trace = generate_trace(app, n_ranks=8, steps=2)
        eng = MatchingEngine(verify=True)
        for rank in range(4):
            msgs, reqs = self._batches_for_rank(trace, rank)
            if len(msgs) == 0:
                continue
            out = eng.match(msgs, reqs)
            # balanced traces: every message for this rank is consumed
            assert out.matched_count == min(len(msgs), len(reqs))

    def test_wildcard_app_rejected_by_restricted_engine(self):
        trace = generate_trace("df_minife", n_ranks=8, steps=4)
        eng = MatchingEngine(
            relaxations=RelaxationSet(wildcards=False))
        msgs, reqs = self._batches_for_rank(trace, 0)
        from repro.core.relaxations import WorkloadViolation
        with pytest.raises(WorkloadViolation):
            eng.match(msgs, reqs)

    @pytest.mark.parametrize("app", ["exmatex_lulesh", "df_snap"])
    def test_app_traffic_under_hash_engine(self, app):
        trace = generate_trace(app, n_ranks=8, steps=2)
        eng = MatchingEngine(relaxations=RelaxationSet(
            wildcards=False, ordering=False))
        msgs, reqs = self._batches_for_rank(trace, 1)
        out = eng.match(msgs, reqs)
        check_relaxed(msgs, reqs, out, require_complete=True)


class TestClusterUnderRelaxations:
    @pytest.mark.parametrize("rel", TABLE_II_CONFIGS,
                             ids=[r.label() for r in TABLE_II_CONFIGS])
    def test_alltoall_under_every_config(self, rel):
        """The same collective communication pattern completes and is
        correct under every Table II configuration.

        For the no-unexpected configurations the collective pre-posts
        receives before sending, which alltoall does.
        """
        comm = Communicator(Cluster(4, relaxations=rel))
        send = [[f"{i}->{j}" for j in range(4)] for i in range(4)]
        out = alltoall(comm, send)
        for j in range(4):
            for i in range(4):
                assert out[j][i] == f"{i}->{j}"

    def test_matching_time_ranking_across_relaxations(self):
        """More relaxed clusters spend less simulated device time
        matching the same traffic."""
        times = {}
        for rel in (RelaxationSet(),
                    RelaxationSet(wildcards=False, ordering=False,
                                  unexpected=False)):
            cluster = Cluster(2, relaxations=rel)
            reqs = [cluster.rank(1).irecv(src=0, tag=t) for t in range(200)]
            for t in range(200):
                cluster.rank(0).isend(1, t, tag=t)
            for r in reqs:
                r.wait()
            times[rel.label()] = cluster.match_seconds
        assert times["nowc+noord+pre"] < times["wc+ord+unexp"]

    def test_nekbone_flood_hits_ring_backpressure(self):
        """The deep-queue outlier's gather flood through statically sized
        ingress rings: high watermarks pin at capacity, traffic holds,
        and everything still completes once receives are posted."""
        from repro.traces import generate_trace
        cluster = Cluster(8, ring_capacity=64)
        trace = generate_trace("cesar_nekbone", n_ranks=8, steps=1)
        posted = []
        for kind, rank, peer, tag, comm, _, _ in trace.events:
            if kind == KIND_SEND:
                cluster.rank(rank).isend(peer, None, tag=tag, comm=comm)
            elif kind == KIND_POST:
                posted.append(cluster.rank(rank).irecv(peer, tag, comm))
        assert cluster.network.held_messages > 0  # flood exceeded credits
        cluster.drain()
        assert all(r.test() for r in posted)
        stats = cluster.stats()
        assert max(s["rings"]["high_watermark"] for s in stats) == 64
        assert sum(s["rings"]["rejected"] for s in stats) > 0

    def test_gpu_generation_affects_cluster_time(self):
        def run(spec):
            c = Cluster(2, gpu=spec)
            rs = [c.rank(1).irecv(src=0, tag=t) for t in range(100)]
            for t in range(100):
                c.rank(0).isend(1, t, tag=t)
            for r in rs:
                r.wait()
            return c.match_seconds

        assert run(GPU.pascal_gtx1080()) < run(GPU.kepler_k80())


class TestExamplesRun:
    """Every example must execute cleanly as a script."""

    @pytest.mark.parametrize("script", ["quickstart.py", "halo_exchange.py",
                                        "trace_analysis.py",
                                        "bsp_pipeline.py",
                                        "inside_the_kernel.py"])
    def test_example(self, script, capsys):
        path = EXAMPLES / script
        assert path.exists(), f"missing example {script}"
        runpy.run_path(str(path), run_name="__main__")
        out = capsys.readouterr().out
        assert len(out) > 100  # produced a real report
