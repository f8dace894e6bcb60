"""Application models against the paper's Table I / Figure 2 targets.

Small-scale structural checks run on every model; the quantitative
targets are asserted at each model's default scale (the scale the
benchmarks report).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.traces import (APP_MODELS, analyze, app_names, figure2_summary,
                          generate_trace, get_model, tuple_uniqueness)
from repro.traces.apps.base import (grid_dims, grid_neighbors,
                                    random_neighbors, ring_neighbors,
                                    skewed_neighbors)

ALL = app_names()


class TestTopologyHelpers:
    def test_grid_dims(self):
        assert grid_dims(64, 3) == (4, 4, 4)
        assert grid_dims(12, 2) == (4, 3)
        assert grid_dims(7, 3) == (7, 1, 1)

    def test_face_neighbors_symmetric(self):
        nbrs = grid_neighbors(27, ndim=3, corners=False)
        for r, ns in enumerate(nbrs):
            assert r not in ns
            for n in ns:
                assert r in nbrs[n]
        # interior rank of a 3x3x3 grid has 6 face neighbors
        assert max(len(ns) for ns in nbrs) == 6

    def test_moore_neighbors_count(self):
        nbrs = grid_neighbors(27, ndim=3, corners=True)
        assert max(len(ns) for ns in nbrs) == 26  # interior rank
        assert min(len(ns) for ns in nbrs) == 7   # corner rank

    def test_ring(self):
        nbrs = ring_neighbors(6, hops=1)
        assert nbrs[0] == [5, 1]

    def test_random_symmetric(self):
        rng = np.random.default_rng(0)
        nbrs = random_neighbors(20, 4, rng)
        for r, ns in enumerate(nbrs):
            for n in ns:
                assert r in nbrs[n]

    def test_skewed_degrees(self):
        rng = np.random.default_rng(0)
        nbrs = skewed_neighbors(40, k_min=3, k_max=30, rng=rng,
                                hot_fraction=0.1)
        degrees = sorted(len(ns) for ns in nbrs)
        assert degrees[-1] > 3 * degrees[len(degrees) // 2]


class TestRegistry:
    def test_sixteen_apps(self):
        # 13 DOE proxy apps + 3 Benchpark re-fire models
        assert len(ALL) == 16

    def test_lookup_by_full_name(self):
        assert get_model("EXMATEX LULESH").name == "exmatex_lulesh"
        with pytest.raises(KeyError):
            get_model("hpl")

    def test_every_suite_represented(self):
        suites = {m.suite for m in APP_MODELS.values()}
        assert suites == {"designforward", "cesar", "exact", "exmatex",
                          "amr", "benchpark"}


@pytest.mark.parametrize("app", ALL)
class TestEveryModelStructure:
    """Structural invariants at a small, fast scale."""

    def test_generates_valid_balanced_trace(self, app):
        tr = generate_trace(app, n_ranks=8, steps=2, seed=1)
        assert len(tr) > 0
        assert tr.validate_balance()["balanced"]

    def test_reproducible(self, app):
        a = generate_trace(app, n_ranks=8, steps=2, seed=42)
        b = generate_trace(app, n_ranks=8, steps=2, seed=42)
        assert list(a.events) == list(b.events)

    def test_seed_changes_trace(self, app):
        a = generate_trace(app, n_ranks=8, steps=2, seed=1)
        b = generate_trace(app, n_ranks=8, steps=2, seed=2)
        assert len(a) > 0 and len(b) > 0  # both valid; equality not required

    def test_replay_drains(self, app):
        """Balanced traces must leave (nearly) empty queues: every send is
        eventually received."""
        tr = generate_trace(app, n_ranks=8, steps=2, seed=1)
        from repro.traces.queue_replay import replay
        states = replay(tr)
        assert sum(len(s.umq) for s in states) == 0
        assert sum(len(s.prq) for s in states) == 0

    def test_wildcard_flags_honest(self, app):
        """The model's declared wildcard usage matches its trace."""
        model = get_model(app)
        tr = generate_trace(app, n_ranks=16, steps=2, seed=0)
        row = analyze(tr)
        assert row.uses_src_wildcard == model.uses_src_wildcard
        assert not row.uses_tag_wildcard  # Table I: no app uses ANY_TAG

    def test_16bit_tags(self, app):
        """'none of the applications needs tag values longer than 16
        bits'."""
        tr = generate_trace(app, n_ranks=16, steps=2, seed=0)
        assert analyze(tr).header_fits_64bit

    def test_invalid_scales_rejected(self, app):
        with pytest.raises(ValueError):
            generate_trace(app, n_ranks=1)
        with pytest.raises(ValueError):
            generate_trace(app, steps=0)


class TestTableITargets:
    """Paper-reported values at default scales."""

    def test_only_minidft_and_minife_use_src_wildcard(self):
        wc = {name for name, m in APP_MODELS.items() if m.uses_src_wildcard}
        assert wc == {"df_minidft", "df_minife"}

    def test_communicator_counts(self):
        assert APP_MODELS["cesar_nekbone"].n_communicators == 2
        assert APP_MODELS["df_minidft"].n_communicators == 7
        others = [m for n, m in APP_MODELS.items()
                  if n not in ("cesar_nekbone", "df_minidft")]
        assert all(m.n_communicators == 1 for m in others)

    def test_amg_peer_count(self):
        row = analyze(generate_trace("df_amg"))
        assert row.peers_mean == pytest.approx(79, rel=0.15)

    def test_cns_peer_count(self):
        row = analyze(generate_trace("exact_cns"))
        assert row.peers_mean == pytest.approx(72, rel=0.15)

    def test_most_apps_10_to_30_peers(self):
        wide = {"df_amg", "exact_cns"}       # the paper's two outliers
        narrow = {"df_minife", "df_partisn", "df_snap",
                  "cesar_crystalrouter", "df_minidft"}  # sweep/group apps
        # Table I covers the 13 DOE proxy apps; the Benchpark models
        # have their own pattern contracts (tests/traces/test_benchpark)
        doe = {n for n, m in APP_MODELS.items() if m.suite != "benchpark"}
        for name in doe - wide - narrow:
            row = analyze(generate_trace(name))
            assert 8 <= row.peers_mean <= 35, (name, row.peers_mean)

    def test_tag_space_sizes(self):
        thousands = {"df_minidft", "df_partisn", "cesar_mocfe"}
        few = {"df_amg", "exmatex_lulesh", "df_minife"}
        for name in thousands:
            tr = generate_trace(name)
            assert analyze(tr).n_tags >= 256, name
        for name in few:
            tr = generate_trace(name)
            assert analyze(tr).n_tags < 4, name

    def test_irregular_rank_usage(self):
        """Nekbone and Boxlib irregular; halo apps uniform (Section VI-A)."""
        nek = analyze(generate_trace("cesar_nekbone")).rank_usage_cov
        box = analyze(generate_trace("amr_boxlib")).rank_usage_cov
        lul = analyze(generate_trace("exmatex_lulesh")).rank_usage_cov
        cns = analyze(generate_trace("exact_cns")).rank_usage_cov
        assert nek > 2 * lul and nek > 2 * cns
        assert box > 1.5 * lul and box > 1.5 * cns


class TestFigure2Targets:
    def test_nekbone_deep_skewed_queues(self):
        out = figure2_summary(generate_trace("cesar_nekbone"))
        assert out["umq_max_mean"] == pytest.approx(4000, rel=0.15)
        assert out["umq_max_median"] == pytest.approx(1800, rel=0.15)

    def test_multigrid_deep_queues(self):
        out = figure2_summary(generate_trace("exact_multigrid"))
        assert out["umq_max_mean"] == pytest.approx(2000, rel=0.15)
        assert out["umq_max_median"] == pytest.approx(1500, rel=0.15)

    def test_other_apps_below_512(self):
        for name in set(ALL) - {"cesar_nekbone", "exact_multigrid"}:
            out = figure2_summary(generate_trace(name))
            assert out["umq_max_mean"] < 512, (name, out["umq_max_mean"])

    def test_umq_prq_similar(self):
        """'UMQ and PRQ show similar queue lengths' -- same order of
        magnitude for the halo apps."""
        out = figure2_summary(generate_trace("exmatex_lulesh"))
        assert out["prq_max_mean"] > 0
        assert out["umq_max_mean"] < 100 and out["prq_max_mean"] < 600


class TestFigure6aTargets:
    def test_most_apps_single_digit_dominant_share(self):
        """'most applications range in single digit percentages'."""
        single_digit = 0
        for name in ALL:
            u = tuple_uniqueness(generate_trace(name))
            if u["dominant_share_mean"] < 0.10:
                single_digit += 1
        assert single_digit >= len(ALL) * 0.6

    def test_lulesh_low_share(self):
        u = tuple_uniqueness(generate_trace("exmatex_lulesh"))
        assert u["dominant_share_mean"] < 0.10
