"""Per-stage wall-clock accounting at the cluster's process boundary.

The ``transport`` stage exists because the cluster router does real
work -- frame encode/decode and queue hand-off -- that no worker-side
stage could attribute.  The clock lives only around worker processes:
the in-process service is timed from outside by the performance ledger.
The contract pinned here:

* ``SERVE_STAGES`` is the router's ``transport`` plus the workers'
  ``match`` and ``result``;
* a cluster run charges **positive** transport time on the router, and
  the merged per-stage view includes the worker-side stages;
* attaching a clock never perturbs outcomes (measurement-only).
"""

from __future__ import annotations

from repro.serve import (SERVE_STAGES, StageClock, run_cluster_workload,
                         workload_from_app)


def small_workload(seed: int = 5):
    return workload_from_app("df_amg", rate_rps=2000.0, n_ranks=8,
                             steps=2, seed=seed, ordering_required=False)


class TestStageClock:
    def test_transport_is_a_pipeline_stage(self):
        assert SERVE_STAGES == ("transport", "match", "result")

    def test_clock_accounting(self):
        clock = StageClock()
        assert clock.snapshot() == {s: 0.0 for s in SERVE_STAGES}
        for stage in SERVE_STAGES:
            t0 = clock.start() - 0.25    # as if started 0.25 s earlier
            clock.stop(stage, t0)
        snap = clock.snapshot()
        assert list(snap) == list(SERVE_STAGES)
        assert all(snap[s] >= 0.25 for s in SERVE_STAGES)

    def test_cluster_run_charges_transport(self):
        clock = StageClock()
        cluster, _ = run_cluster_workload(small_workload(), n_workers=1,
                                          seed=5, start_method="fork",
                                          stages=clock)
        # The router did real encode/enqueue work...
        assert clock.snapshot()["transport"] > 0.0
        # ...and the merged view spans both processes: router transport
        # plus the worker-side pipeline stages.
        merged = cluster.merged_stage_seconds()
        assert set(merged) == set(SERVE_STAGES)
        assert merged["transport"] >= clock.snapshot()["transport"]
        assert merged["match"] > 0.0

    def test_clock_is_measurement_only(self):
        """Attaching a router clock must not perturb the deterministic
        record (worker processes always carry their own clock)."""
        wl = small_workload(seed=9)
        bare, _ = run_cluster_workload(wl, n_workers=1, seed=9,
                                       start_method="fork")
        clocked, _ = run_cluster_workload(wl, n_workers=1, seed=9,
                                          start_method="fork",
                                          stages=StageClock())
        assert clocked.report() == bare.report()
