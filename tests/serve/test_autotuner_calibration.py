"""Autotuner calibration over the Benchpark re-fire traces.

The three Benchpark app models (AMG2023, Kripke, Laghos) share the
signature that breaks naive lattice walking: enormous per-pair message
counts over a tiny tuple cardinality.  Without the ``partitioned``
declaration, that shape sits right on the hash gate's dominance
threshold and can oscillate between lattice points; with it, the
autotuner pins the match-once point and must stay there.  This suite is
the regression lock for those pinned engines.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.result import MatchOutcome
from repro.core.envelope import EnvelopeBatch
from repro.serve import (DEFAULT_BENCH_APPS, Autotuner, BatchPolicy,
                         StreamProfiler, TenantSpec, lattice_rank,
                         merge_workloads, run_workload, workload_from_app)
from repro.serve.loadgen import BENCHPARK_BENCH_APPS

BP_APPS = [app for app, _ in BENCHPARK_BENCH_APPS]


def run_app(app: str, *, partitioned: bool = True, seed: int = 3):
    # chunk_envelopes=16 gives even the sparsest model (Laghos: five
    # fixed neighbours, a handful of messages per step) enough flushes
    # to clear the promotion hysteresis window
    w = workload_from_app(app, n_ranks=16, steps=4, seed=seed,
                          chunk_envelopes=16, partitioned=partitioned)
    return run_workload(w, n_shards=2, seed=seed, promote_after=2)[0]


class TestPinnedEngines:
    @pytest.mark.parametrize("app", BP_APPS)
    def test_partitioned_declaration_pins_rank_one(self, app):
        svc = run_app(app)
        ts = svc.tenant(app)
        assert lattice_rank(ts.relaxations) == 1, \
            f"{app} ended on {ts.relaxations.label()}, not the pinned " \
            "partitioned point"

    @pytest.mark.parametrize("app", BP_APPS)
    def test_no_lattice_oscillation(self, app):
        """At most the single initial move onto the pinned point; a
        second event in either direction is the oscillation this suite
        exists to catch."""
        svc = run_app(app)
        events = [e for e in svc.retune_events if e.tenant == app]
        assert len(events) <= 1, \
            f"{app} retuned {len(events)} times: " \
            f"{[(e.direction, e.to_label) for e in events]}"
        for e in events:
            assert e.direction == "promote"
            assert "match-once" in e.reason

    @pytest.mark.parametrize("app", BP_APPS)
    def test_calibration_is_deterministic(self, app):
        reports = [run_app(app).report() for _ in range(2)]
        assert reports[0] == reports[1]
        assert reports[0]["matched"] > 0

    def test_pin_beats_wildcards_never(self):
        """The pin only applies below the wildcard check: a wildcard
        window still forces the matrix point even for a partitioned
        tenant."""
        from tests.serve.test_autotuner import profile
        tuner = Autotuner(TenantSpec(name="t", ordering_required=False,
                                     partitioned=True))
        assert tuner.target_rank(profile(wildcard_fraction=0.1)) == 0
        assert tuner.target_rank(profile()) == 1
        assert tuner.target_rank(profile(dominant_fraction=0.9)) == 1


class TestProxyAppDecisions:
    """The lattice walk on the serve bench's three proxy-app session
    tenants, pinned event for event: df_minife earns the partitioned
    point and loses it to its first ANY_SOURCE window, exmatex_lulesh
    (ordered) settles on the partitioned point, and df_amg (unordered,
    hash-friendly) goes straight to the hash point."""

    def test_retune_sequence(self):
        parts = [workload_from_app(app, chunk_envelopes=16, seed=0,
                                   ordering_required=ordered, session=True)
                 for app, ordered in DEFAULT_BENCH_APPS]
        svc, _ = run_workload(merge_workloads("apps", parts), n_shards=2,
                              promote_after=2,
                              batching=BatchPolicy(max_envelopes=16))
        first, burst = 0.0014037989079456574, 0.002372506266487275
        assert [(e.tenant, e.vt, e.from_label, e.to_label, e.direction)
                for e in svc.retune_events] == [
            ("df_minife", first, "wc+ord+unexp", "nowc+ord+unexp",
             "promote"),
            ("df_minife", burst, "nowc+ord+unexp", "wc+ord+unexp",
             "demote"),
            ("exmatex_lulesh", first, "wc+ord+unexp", "nowc+ord+unexp",
             "promote"),
            ("df_amg", first, "wc+ord+unexp", "nowc+noord+unexp",
             "promote"),
        ]


class TestProfilerDegenerateStreams:
    """Satellite regression: tiny-cardinality / huge-count streams must
    never leak NaN or inf out of the profiler."""

    @staticmethod
    def _ingest_stream(profiler: StreamProfiler, *, n: int,
                       tuples: int) -> None:
        src = np.arange(n) % max(tuples, 1)
        msgs = EnvelopeBatch(src=src, tag=np.zeros(n, dtype=np.int64),
                             comm=np.zeros(n, dtype=np.int64))
        reqs = EnvelopeBatch(src=src, tag=np.zeros(n, dtype=np.int64),
                             comm=np.zeros(n, dtype=np.int64))
        outcome = MatchOutcome(
            request_to_message=np.arange(n), n_messages=n, n_requests=n)
        profiler.ingest(msgs, reqs, outcome)

    def _assert_finite(self, profiler: StreamProfiler) -> None:
        p = profiler.profile()
        for field in ("src_wildcard_fraction", "tag_wildcard_fraction",
                      "dominant_tuple_fraction"):
            value = getattr(p, field)
            assert np.isfinite(value), f"{field} = {value!r}"

    def test_single_tuple_huge_count(self):
        """One tuple repeated 4096 times per flush: single-category tag
        entropy (the 0/0 shape) and total dominance, all finite."""
        profiler = StreamProfiler(window_flushes=4)
        for _ in range(6):
            self._ingest_stream(profiler, n=4096, tuples=1)
        self._assert_finite(profiler)
        p = profiler.profile()
        assert p.dominant_tuple_fraction > 0.9
        assert not p.hash_friendly

    def test_kripke_shaped_stream(self):
        """A handful of tuples under a huge count (the sweep-chunk
        shape) stays finite and correctly flags dominance."""
        profiler = StreamProfiler(window_flushes=8)
        for _ in range(8):
            self._ingest_stream(profiler, n=2048, tuples=3)
        self._assert_finite(profiler)

    def test_empty_flushes_stay_finite(self):
        profiler = StreamProfiler(window_flushes=2)
        self._ingest_stream(profiler, n=0, tuples=0)
        self._assert_finite(profiler)

    def test_degenerate_profile_snapshot_roundtrip(self):
        a = StreamProfiler(window_flushes=3)
        for _ in range(3):
            self._ingest_stream(a, n=1024, tuples=1)
        b = StreamProfiler(window_flushes=3)
        b.restore_state(a.export_state())
        assert b.profile() == a.profile()
