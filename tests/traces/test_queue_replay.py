"""The columnar Fig 2 replay against the linear-scan walker.

:func:`~repro.traces.queue_replay.replay` pairs each key's k-th message
with its k-th post on every rank that posts no wildcard, and walks only
the ranks that do.  These tests hold its columns to ``_walk`` run on
every rank of the trace, so the walker is the reference for both paths.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.traces import app_names, figure2_summary, generate_trace, get_model
from repro.traces import queue_replay
from repro.traces.events import KIND_POST, KIND_SEND
from repro.traces.queue_replay import STATS, _walk, replay
from tests.traces.rows import barrier, post, send, trace_of


def walk_every_rank(trace) -> dict[str, list[int]]:
    """The :data:`STATS` columns from ``_walk`` run on each rank's
    attempts: a send at its destination, a post at its poster."""
    attempts: list[list[tuple]] = [[] for _ in range(trace.n_ranks)]
    for kind, rank, peer, tag, comm, _, _ in trace.events:
        if kind == KIND_SEND:
            attempts[peer].append((True, rank, tag, comm))
        elif kind == KIND_POST:
            attempts[rank].append((False, peer, tag, comm))
    out: dict[str, list[int]] = {name: [] for name in STATS}
    for rank_attempts in attempts:
        fields = list(zip(*rank_attempts)) or [(), (), (), ()]
        for name, value in zip(STATS, _walk(*fields)):
            out[name].append(value)
    return out


def assert_matches_walker(trace) -> None:
    got = replay(trace)
    assert set(got) == set(STATS)
    for name in STATS:
        assert got[name].dtype == np.int64, name
    assert {name: col.tolist() for name, col in got.items()} \
        == walk_every_rank(trace)


WILDCARD_FREE = [app for app in app_names()
                 if not get_model(app).uses_src_wildcard]


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("app", app_names())
def test_replay_matches_walker_on_every_app(app, seed):
    assert_matches_walker(generate_trace(app, n_ranks=8, steps=2, seed=seed))


@st.composite
def small_traces(draw):
    """1-4 ranks, up to 40 sends, posts and barriers on two comms;
    wildcard posts come only from a random subset of ranks."""
    n_ranks = draw(st.integers(1, 4))
    rank = st.integers(0, n_ranks - 1)
    wild = draw(st.sets(rank))
    rows = []
    for t in range(draw(st.integers(0, 40))):
        kind = draw(st.sampled_from(("send", "post", "post", "barrier")))
        r = draw(rank)
        tag, comm = draw(st.integers(0, 2)), draw(st.integers(0, 1))
        if kind == "send":
            rows.append(send(t, r, draw(rank), tag, comm))
        elif kind == "post":
            src = draw(rank)
            if r in wild:
                src = draw(st.sampled_from((src, -1)))
                tag = draw(st.sampled_from((tag, -1)))
            rows.append(post(t, r, src, tag, comm))
        else:
            rows.append(barrier(t, r))
    return trace_of(rows, n_ranks=n_ranks)


@settings(max_examples=200, deadline=None)
@given(small_traces())
@example(trace_of([]))
@example(trace_of([barrier(0, 0), barrier(0, 1)]))
@example(trace_of([send(0, 0, 1, 0), send(1, 0, 1, 0), post(2, 1, 0, 0)]))
@example(trace_of([post(0, 1, 0, 0, comm=1), send(1, 0, 1, 0),
                   send(2, 0, 1, 0, comm=1)]))
def test_replay_matches_walker_on_small_traces(trace):
    assert_matches_walker(trace)


def test_no_queue_traffic_gives_zero_columns():
    for trace in (trace_of([], n_ranks=3),
                  trace_of([barrier(0, 0), barrier(0, 1)])):
        stats = replay(trace)
        assert all(not col.any() and col.size == trace.n_ranks
                   for col in stats.values())
        assert figure2_summary(trace)["umq_max_max"] == 0


def _refuse(*_):
    raise AssertionError("walked a rank that posts no wildcard")


@pytest.mark.parametrize("app", WILDCARD_FREE)
def test_wildcard_free_apps_never_walk(app, monkeypatch):
    trace = generate_trace(app, n_ranks=8, steps=2, seed=1)
    monkeypatch.setattr(queue_replay, "_walk", _refuse)
    assert replay(trace)["attempts"].sum() > 0


def test_wildcard_ranks_are_walked(monkeypatch):
    """The walker runs on exactly the ranks that post a wildcard."""
    trace = generate_trace("df_minife", n_ranks=8, steps=2, seed=1)
    cols = trace.columns
    wild = (cols["kind"] == KIND_POST) & (cols["peer"] == -1)
    calls = []
    monkeypatch.setattr(queue_replay, "_walk",
                        lambda *fields: calls.append(fields) or _walk(*fields))
    replay(trace)
    assert len(calls) == np.unique(cols["rank"][wild]).size > 0
