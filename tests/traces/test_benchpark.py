"""Benchpark app models: phase structure and pattern contracts.

The quantitative claims these models must honor come from the
Caliper/Benchpark characterization (Nansamba et al., PAPERS.md): huge
per-pair message counts over a tiny ``(src, tag, comm)`` tuple
cardinality, stable peer sets, and phase-dominant re-fire traffic --
the signature that motivates partitioned channels and the autotuner's
match-once pin.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.traces.apps.benchpark import pattern_summary
from repro.traces.events import KIND_POST, KIND_SEND
from repro.traces.generator import generate_trace

BP_APPS = ("bp_amg2023", "bp_kripke", "bp_laghos")


def summary(app: str, **kw):
    trace = generate_trace(app, seed=1, **kw)
    return trace, pattern_summary(trace)


def column(trace, name: str, kind: int = KIND_SEND) -> np.ndarray:
    """One column's values on the rows of one kind."""
    return trace.columns[name][trace.columns["kind"] == kind]


class TestPhaseStructure:
    @pytest.mark.parametrize("app", BP_APPS)
    def test_phases_cover_the_trace_contiguously(self, app):
        trace, _ = summary(app)
        phases = trace.meta["phases"]
        spans = list(phases.values())
        assert spans[0][0] == 0
        assert spans[-1][1] == len(trace.events)
        for (_, hi), (lo, _) in zip(spans, spans[1:]):
            assert hi == lo

    def test_amg_has_setup_then_solve(self):
        trace, _ = summary("bp_amg2023")
        assert list(trace.meta["phases"]) == ["setup", "solve"]

    def test_unphased_trace_falls_back_to_all(self):
        trace = generate_trace("exmatex_lulesh", n_ranks=8, steps=2, seed=0)
        out = pattern_summary(trace)
        assert list(out["phases"]) == ["all"]
        assert out["phases"]["all"]["sends"] == column(trace, "rank").size


class TestPatternContracts:
    def test_amg_solve_dominates_without_new_tuples(self):
        """V-cycles multiply messages by an order of magnitude but add
        zero tuple shapes over setup -- the match-once signature."""
        _, out = summary("bp_amg2023")
        setup = out["phases"]["setup"]
        solve = out["phases"]["solve"]
        assert solve["sends"] >= 10 * setup["sends"]
        assert solve["tuple_cardinality"] <= setup["tuple_cardinality"]
        assert solve["msgs_per_tuple_mean"] > \
            10 * setup["msgs_per_tuple_mean"]

    def test_kripke_tiny_cardinality_huge_counts(self):
        _, out = summary("bp_kripke")
        sweep = out["phases"]["sweep"]
        # one tag per octant, at most 4 downstream neighbors per rank
        assert sweep["peers_max"] <= 4
        assert sweep["msgs_per_tuple_mean"] >= 50
        assert sweep["msgs_per_pair_max"] >= 50

    def test_kripke_eight_octant_tags(self):
        trace, _ = summary("bp_kripke")
        assert set(column(trace, "tag").tolist()) == set(range(8))

    def test_laghos_two_tags_fixed_peers(self):
        trace, out = summary("bp_laghos")
        assert set(column(trace, "tag").tolist()) == {0, 1}
        ts = out["phases"]["timestep"]
        assert ts["msgs_per_tuple_mean"] >= 10
        # the halo is fixed: every declared pair carries exactly the
        # same traffic (2 force + 1 velocity per step), so the per-pair
        # distribution is perfectly uniform
        assert ts["msgs_per_pair_mean"] == ts["msgs_per_pair_max"]
        pairs = np.stack([column(trace, "rank"), column(trace, "peer")])
        _, counts = np.unique(pairs, axis=1, return_counts=True)
        assert len(set(counts.tolist())) == 1

    @pytest.mark.parametrize("app", BP_APPS)
    def test_no_wildcards_anywhere(self, app):
        """Re-fire streams are wildcard-free by construction -- the
        precondition for both the partitioned matcher and partitioned
        channels."""
        from repro.core.envelope import ANY_SOURCE, ANY_TAG
        trace, _ = summary(app)
        assert not np.any(column(trace, "peer", KIND_POST) == ANY_SOURCE)
        assert not np.any(column(trace, "tag", KIND_POST) == ANY_TAG)

    @pytest.mark.parametrize("app", BP_APPS)
    def test_summary_is_deterministic(self, app):
        assert summary(app)[1] == summary(app)[1]
