"""Rank projection: a ``busiest_only`` trace is the full trace's rows of
its busiest rank, bit for bit.

For every model, at its default scale and at 16 ranks x 3 steps, seeds
0-1: ``generate_trace(..., busiest_only=True)`` must equal the full
trace filtered to ``busiest_rank(full)`` -- the sends addressed to that
rank and the rows it issued (its posts and barrier markers) -- in every
column, dtype included, and must name that rank in ``meta["rank"]``.
The Benchpark models' phase ranges must slice the same events out of
the projection as out of the full trace.  The projection runs the model
once, and one recorded run projects onto every rank alike.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.serve import busiest_rank
from repro.traces import app_names, generate_trace, get_model
from repro.traces.apps.base import TraceBuilder
from repro.traces.events import KIND_POST, KIND_SEND

SCALES = {"default": {}, "16x3": {"n_ranks": 16, "steps": 3}}


def owned_rows(trace, rank: int) -> np.ndarray:
    """Mask of the rows ``rank`` owns: sends to it, rows it issued."""
    kind, cols = trace.columns["kind"], trace.columns
    return np.where(kind == KIND_SEND, cols["peer"] == rank,
                    cols["rank"] == rank)


def without_phases(meta: dict) -> dict:
    return {key: value for key, value in meta.items() if key != "phases"}


def assert_same_rows(got: dict, want: dict) -> None:
    assert list(got) == list(want)
    for name, col in want.items():
        assert got[name].dtype == col.dtype, name
        np.testing.assert_array_equal(got[name], col, err_msg=name)


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("scale", list(SCALES))
@pytest.mark.parametrize("app", app_names())
def test_projection_is_the_filtered_full_trace(app, scale, seed):
    full = generate_trace(app, seed=seed, **SCALES[scale])
    proj = generate_trace(app, seed=seed, busiest_only=True,
                          **SCALES[scale])
    rank = busiest_rank(full)
    mask = owned_rows(full, rank)
    assert without_phases(proj.meta) == {**without_phases(full.meta),
                                         "rank": rank}
    assert (proj.app, proj.n_ranks) == (full.app, full.n_ranks)
    assert_same_rows(proj.columns,
                     {name: col[mask] for name, col in full.columns.items()})
    if "phases" not in full.meta:
        return
    # Benchpark: the projected phase ranges slice the same events
    assert list(proj.meta["phases"]) == list(full.meta["phases"])
    for name, (lo, hi) in full.meta["phases"].items():
        plo, phi = proj.meta["phases"][name]
        in_phase = np.zeros(len(full), dtype=bool)
        in_phase[lo:hi] = True
        assert_same_rows(
            {c: col[plo:phi] for c, col in proj.columns.items()},
            {c: col[in_phase & mask] for c, col in full.columns.items()})


@pytest.mark.parametrize("app", app_names())
def test_load_tally_is_the_full_trace_load(app):
    """A recorded run sums, per rank, the sends addressed to it plus its
    posts -- :func:`busiest_rank`'s load -- and counts the full trace's
    rows, whichever rows are built from it."""
    full = generate_trace(app, n_ranks=16, steps=3, seed=1)
    cols = full.columns
    want = (np.bincount(cols["peer"][cols["kind"] == KIND_SEND],
                        minlength=16)
            + np.bincount(cols["rank"][cols["kind"] == KIND_POST],
                          minlength=16))
    b = get_model(app).record(16, 3, seed=1)
    assert len(b) == len(full)
    load = np.pad(b.load, (0, 16 - b.load.size))
    np.testing.assert_array_equal(load, want)


@pytest.mark.parametrize("app", app_names())
def test_projection_runs_the_model_once(app, monkeypatch):
    """The busiest rank comes from the same run its rows are cut from."""
    model = get_model(app)
    calls = []
    build = model.build

    def counted(*args, **kwargs):
        calls.append(args[1:3])
        return build(*args, **kwargs)

    monkeypatch.setattr(model, "build", counted)
    generate_trace(app, n_ranks=16, steps=3, seed=1, busiest_only=True)
    assert calls == [(16, 3)]


@pytest.mark.parametrize("app", app_names())
def test_one_run_projects_onto_every_rank(app):
    """``build(rank=r)`` of one recorded run is its ``build()`` filtered
    to ``r``, for every rank, phase ranges included."""
    b = get_model(app).record(16, 3, seed=1)
    full = b.build(app, 16)
    for rank in range(16):
        proj = b.build(app, 16, rank=rank)
        mask = owned_rows(full, rank)
        assert_same_rows(proj.columns, {name: col[mask] for name, col
                                        in full.columns.items()})
        for name, (lo, hi) in full.meta.get("phases", {}).items():
            plo, phi = proj.meta["phases"][name]
            assert (plo, phi) == (int(mask[:lo].sum()), int(mask[:hi].sum()))


def test_projection_keeps_a_hand_built_ranks_rows():
    """Each builder call projects alike: block, barrier and exchange rows
    of the rank, at their original ticks."""
    b = TraceBuilder()
    b.exchange([(0, 1), (2, 1), (1, 2)], tag_of=lambda s, d, k: k,
               msgs_per_pair=2, prepost_fraction=0.5,
               wildcard_src_fraction=0.5, rng=np.random.default_rng(3))
    b.block([KIND_SEND, KIND_POST, KIND_SEND], rank=[0, 1, 1],
            peer=[1, -1, 2], tag=4, nbytes=[8, 0, 8])
    b.barrier(3)

    full = b.build("x", n_ranks=3)
    for rank in range(3):
        proj = b.build("x", n_ranks=3, rank=rank)
        mask = owned_rows(full, rank)
        assert_same_rows(proj.columns, {name: col[mask] for name, col
                                        in full.columns.items()})
    assert len(b.build("x", n_ranks=3, rank=1)) == 2 * 2 * 2 + 2 + 1
