"""Columnar trace generation: bit identity and the builder contract.

The digests below were captured from the earlier one-event-at-a-time
generator (each event converted to a row under the :data:`COLUMNS`
dtypes: barriers carry 0 in ``peer``/``tag``/``comm``/``nbytes``,
receive posts carry 0 in ``nbytes``).  The columnar builder must
reproduce those traces byte for byte -- same rows, same RNG stream --
so the paper's Table I / Fig 2 / Fig 6(a) statistics and the serve
loadgen's arrival streams cannot drift.
"""

from __future__ import annotations

import hashlib
import tracemalloc

import numpy as np
import pytest

from repro.traces import app_names, dumps, generate_trace
from repro.traces.apps.base import (TraceBuilder, gather_flood, grid_dims,
                                   grid_neighbors, pair_array,
                                   random_neighbors, skewed_neighbors)
from repro.traces.events import (COLUMNS, KIND_POST, KIND_SEND, BarrierEvent,
                                 RecvPostEvent, SendEvent)

#: SHA-256 over every column's bytes in :data:`COLUMNS` order, keyed by
#: ``(app, n_ranks, steps, seed)`` (``None`` = the model's default).
GOLDEN = {
    ("df_amg", 8, 2, 1): "93573748e33c614b1fc4a1510eaaa6681ed720995eb995e86bda48c2794b95ea",
    ("df_amg", 8, 2, 42): "5b42178884cd47031e8da77803c0f78cbb03d40f46355f4b6db8bd707423b902",
    ("df_minidft", 8, 2, 1): "4d8cbca2233db87bcaad6d92621a206abc3074486d0681e2c7cd7f01a9c9874b",
    ("df_minidft", 8, 2, 42): "04a6c02c0f3e07d80c74a740460b49ebf4a657fbeb20f42e4df54d675925a6bd",
    ("df_minife", 8, 2, 1): "84b5c165295d982dc5210699ea297d8d343a0f332cd338a54fc3a30822e7c2a8",
    ("df_minife", 8, 2, 42): "357b870ae297719a20b0c0bc892adfd6e9c18ad46f545bd1cd9fa0b2197a27a9",
    ("df_partisn", 8, 2, 1): "a69d9f3eb84a5f409c9237c60187e3b1ec61ac2c69398b30500933844b781d92",
    ("df_partisn", 8, 2, 42): "6d32ac6b8cdad2191bd119ab08dde10697c2f2b852b6b14e6dadafa824c158cf",
    ("df_snap", 8, 2, 1): "8ce1f305b82b44820d6437027b4785efcd1b3c3d748218de785ef2b045dac18c",
    ("df_snap", 8, 2, 42): "674b9273cf9164ad1b462194ed63292299eaafa82bc674adbd21cdd772d315e7",
    ("cesar_nekbone", 8, 2, 1): "7d2c98d34ace4d5117416d625dfb40f8316ce959f14d75d9c7d091e8f6dd569d",
    ("cesar_nekbone", 8, 2, 42): "f4f93045838518707f4558e1e0e23d754946ed6cb7ac762c13a3d73ad6e606b3",
    ("cesar_mocfe", 8, 2, 1): "80d889f0aa293fac24ac974b3044dfd1250eeffe2225c6e64c0111f1549e5d3d",
    ("cesar_mocfe", 8, 2, 42): "f8b51a711eaa37a7391ef0672d4c1dcc1dd83b3e68d067ef7a62f9366bc30f7e",
    ("cesar_crystalrouter", 8, 2, 1): "1df9837ec71145a4638a65ced918879a18eec1fa2a4918fbf22c83009cd56f63",
    ("cesar_crystalrouter", 8, 2, 42): "34fa6e629324e86e00e3b7044428301e26327c35bbe5874baaa8aeec6c7329f6",
    ("exact_cns", 8, 2, 1): "6a011c6fb703b0bac525c583f7a778a97148ca7b3567e1c9e73001558c436d37",
    ("exact_cns", 8, 2, 42): "79dbfb6278af631f604f3127a1f128319dbc37e4228d8cb14fbb2d20d8b61ade",
    ("exact_multigrid", 8, 2, 1): "129791fb988b2cc9f53274e82c67bfa729d46ead4a8dae9334fdb756bd2fe66d",
    ("exact_multigrid", 8, 2, 42): "4f9838a0e350afcddfe24cb997db478a886e6d6250e1971e00545800872bebc5",
    ("exmatex_lulesh", 8, 2, 1): "da8f6bbe7136ba8672e880a5d52666df6089004aeb526bc58a7432b62ddd3e42",
    ("exmatex_lulesh", 8, 2, 42): "594d7eab18ee5896dbda0dfa3da8c3cdd219d42134a81b73fff56adb15b47235",
    ("exmatex_cmc", 8, 2, 1): "885a382c2e82f729f4808e4a7e9a6019903f553679233706663eab2ba5f2358d",
    ("exmatex_cmc", 8, 2, 42): "1a1c990c9acfaf2dca4d4748427ea0d9f0e9f33d75bfadca0d77c85078429f38",
    ("amr_boxlib", 8, 2, 1): "fc310f1bde34bd4fe16df6c24fbccd9acc5cc7d5b29ee39b7254015f96ffc334",
    ("amr_boxlib", 8, 2, 42): "c6609b94a5ee3ce6ba5a59d1dec6f6acfdc94ff30cc700da3c8099d4eaca6937",
    ("bp_amg2023", 8, 2, 1): "696f285ea79038632a5fa68e7b97564668b5d772e8aac3e272f79cec016c346e",
    ("bp_amg2023", 8, 2, 42): "3312b68b7dbb560053502069780f2d2b063f1716fcda970e771c731138be6b54",
    ("bp_kripke", 8, 2, 1): "12516f3d30c31ccd946583e923b1d55e86cb6c22e545658cee30d448c7165e54",
    ("bp_kripke", 8, 2, 42): "33d71a862d77433a43c53ce42b97cc880e12bcb70e070787599be4ba8ce8e753",
    ("bp_laghos", 8, 2, 1): "7c90f006401d5f04056a14e256b4b00d0a4a0e8a2ef0c458da379f3fab9f0a3e",
    ("bp_laghos", 8, 2, 42): "9eed933e62014d47d6aad8c5bd32000fc06c073a039fb0141a071b0cc03eac4a",
    # the serve-mix tenants at the ledger's shape
    ("df_minife", None, 16, 0): "23c0945c6463b423ad79ea817f19f8e442c2954ad9a8198941a885fe422961fc",
    ("exmatex_lulesh", None, 16, 0): "4d77ff03e2aa84861572bd46712989a754111e62de5773b9a4b9449e1e348a4e",
    ("df_amg", None, 16, 0): "590e906e99ff8df3a6901e7773543598fee1321e1a5c556c541c6e3844918d30",
}

#: SHA-256 of ``io.dumps`` output at ``n_ranks=8, steps=2, seed=1``.
GOLDEN_DUMPS = {
    "df_minife": "8a4969eaf2966ea6cb02b7af05e4ed6bac2bb45f39eebf16f180063fd49cbcef",
    "cesar_crystalrouter": "fa3bcbcc2660513de161cd7960aaf37e193c9d4c1aaa2ed1decffb5973f5925f",
    "bp_laghos": "fa98fbf769f9676694fec184e080222cec0be27fd97a195a88c37ff957b757fd",
}

#: Complete event lists at ``n_ranks=2, steps=1, seed=0``.
GOLDEN_EVENTS = {
    # halo exchange, then the wildcard gather: one send, one ANY_SOURCE post
    "df_minife": [
        RecvPostEvent(time=1.0, rank=1, src=0, tag=0, comm=0),
        RecvPostEvent(time=2.0, rank=0, src=1, tag=0, comm=0),
        SendEvent(time=3.0, rank=1, dst=0, tag=0, comm=0, nbytes=8),
        SendEvent(time=4.0, rank=0, dst=1, tag=0, comm=0, nbytes=8),
        SendEvent(time=5.0, rank=1, dst=0, tag=1, comm=0, nbytes=8),
        RecvPostEvent(time=6.0, rank=0, src=-1, tag=1, comm=0),
        BarrierEvent(time=7.0, rank=0),
        BarrierEvent(time=7.0, rank=1),
    ],
    # two messages per pair, 60% pre-posted
    "cesar_crystalrouter": [
        RecvPostEvent(time=1.0, rank=0, src=1, tag=0, comm=0),
        RecvPostEvent(time=2.0, rank=1, src=0, tag=0, comm=0),
        SendEvent(time=3.0, rank=1, dst=0, tag=0, comm=0, nbytes=8),
        SendEvent(time=4.0, rank=1, dst=0, tag=0, comm=0, nbytes=8),
        SendEvent(time=5.0, rank=0, dst=1, tag=0, comm=0, nbytes=8),
        SendEvent(time=6.0, rank=0, dst=1, tag=0, comm=0, nbytes=8),
        RecvPostEvent(time=7.0, rank=1, src=0, tag=0, comm=0),
        RecvPostEvent(time=8.0, rank=0, src=1, tag=0, comm=0),
        BarrierEvent(time=9.0, rank=0),
        BarrierEvent(time=9.0, rank=1),
    ],
}


def column_digest(trace) -> str:
    h = hashlib.sha256()
    for name in COLUMNS:
        h.update(np.ascontiguousarray(trace.columns[name]).tobytes())
    return h.hexdigest()


class TestBitIdentity:
    def test_every_app_pinned(self):
        small = {app for (app, n_ranks, _, _) in GOLDEN if n_ranks == 8}
        assert small == set(app_names())

    @pytest.mark.parametrize("key", sorted(GOLDEN, key=str),
                             ids=lambda k: "-".join(map(str, k)))
    def test_columns_match_golden(self, key):
        app, n_ranks, steps, seed = key
        trace = generate_trace(app, n_ranks=n_ranks, steps=steps, seed=seed)
        assert {name: col.dtype for name, col in trace.columns.items()} == \
            {name: np.dtype(dtype) for name, dtype in COLUMNS.items()}
        assert column_digest(trace) == GOLDEN[key]

    @pytest.mark.parametrize("app", sorted(GOLDEN_DUMPS))
    def test_dumps_match_golden(self, app):
        text = dumps(generate_trace(app, n_ranks=8, steps=2, seed=1))
        assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN_DUMPS[app]

    @pytest.mark.parametrize("app", sorted(GOLDEN_EVENTS))
    def test_event_list_matches_golden(self, app):
        trace = generate_trace(app, n_ranks=2, steps=1, seed=0)
        events = list(trace.events)
        assert events == GOLDEN_EVENTS[app]
        assert [type(e) for e in events] == \
            [type(e) for e in GOLDEN_EVENTS[app]]


class TestEventView:
    def test_len_index_slice_iter_agree(self):
        trace = generate_trace("df_minife", n_ranks=8, steps=2, seed=1)
        view = trace.events
        assert len(view) == len(trace) == trace.columns["kind"].size
        listed = list(view)
        assert view[0] == listed[0] and view[-1] == listed[-1]
        assert view[5:40:3] == listed[5:40:3]
        with pytest.raises(IndexError):
            view[len(view)]

    def test_filters_select_by_kind(self):
        trace = generate_trace("df_minife", n_ranks=8, steps=2, seed=1)
        listed = list(trace.events)
        assert trace.sends() == [e for e in listed if e.kind == "send"]
        assert trace.recv_posts() == \
            [e for e in listed if e.kind == "post_recv"]
        assert trace.barriers() == [e for e in listed if e.kind == "barrier"]
        assert trace.for_rank(3) == [e for e in listed if e.rank == 3]

    def test_columns_are_read_only(self):
        trace = generate_trace("df_snap", n_ranks=8, steps=1)
        with pytest.raises(ValueError):
            trace.columns["rank"][0] = 99


class TestExchangeContract:
    PAIRS = [(0, 1), (1, 0), (2, 1)]

    def build(self, **kw):
        b = TraceBuilder()
        b.exchange(self.PAIRS, rng=np.random.default_rng(7), **kw)
        return b.build("x", n_ranks=3)

    def test_scalar_lambda_broadcasts(self):
        trace = self.build(tag_of=lambda s, d, k: 5,
                           comm_of=lambda s, d, k: 2, msgs_per_pair=2)
        assert len(trace) == 2 * 2 * len(self.PAIRS)
        assert set(trace.columns["tag"].tolist()) == {5}
        assert set(trace.columns["comm"].tolist()) == {2}

    def test_array_lambda_sees_int64_message_arrays(self):
        seen = {}

        def tag_of(s, d, k):
            seen.update(s=s, d=d, k=k)
            return s * 10 + k

        trace = self.build(tag_of=tag_of, msgs_per_pair=2)
        assert all(a.dtype == np.int64 and a.shape == (6,)
                   for a in seen.values())
        assert seen["k"].tolist() == [0, 1] * 3
        assert sorted((e.rank, e.tag) for e in trace.sends()) == \
            [(0, 0), (0, 1), (1, 10), (1, 11), (2, 20), (2, 21)]

    def test_wrong_length_raises(self):
        with pytest.raises(ValueError, match="tag_of"):
            self.build(tag_of=lambda s, d, k: np.arange(s.size + 1))
        with pytest.raises(ValueError, match="comm_of"):
            self.build(tag_of=lambda s, d, k: 0,
                       comm_of=lambda s, d, k: np.zeros(2))

    def test_empty_exchange_adds_nothing(self):
        b = TraceBuilder()
        b.exchange([], tag_of=lambda s, d, k: 0)
        assert len(b) == 0 and len(b.build("x", n_ranks=2)) == 0

    def test_builder_len_counts_block_rows(self):
        b = TraceBuilder()
        b.block([KIND_SEND, KIND_POST], rank=[0, 1], peer=[1, 0], tag=0,
                nbytes=[8, 0])
        assert len(b) == 2
        b.barrier(3)
        assert len(b) == 5
        trace = b.build("x", n_ranks=3)
        assert [e.time for e in trace] == [1.0, 2.0, 3.0, 3.0, 3.0]
        assert list(trace)[:2] == [
            SendEvent(time=1.0, rank=0, dst=1, tag=0, comm=0, nbytes=8),
            RecvPostEvent(time=2.0, rank=1, src=0, tag=0, comm=0)]

    def test_block_after_exchange_continues_the_clock(self):
        b = TraceBuilder()
        b.exchange(self.PAIRS, tag_of=lambda s, d, k: 0)
        b.block(KIND_POST, rank=np.arange(3), peer=-1, tag=4)
        trace = b.build("x", n_ranks=3)
        assert trace.columns["time"].tolist() == list(range(1, 10))
        assert trace.columns["peer"][-3:].tolist() == [-1, -1, -1]
        assert trace.columns["kind"].dtype == np.int8

    @pytest.mark.parametrize("kw, name", [
        ({"prepost_fraction": -0.5}, "prepost_fraction"),
        ({"prepost_fraction": 1.5}, "prepost_fraction"),
        ({"wildcard_src_fraction": 2.0}, "wildcard_src_fraction"),
        ({"wildcard_src_fraction": float("nan")}, "wildcard_src_fraction"),
    ])
    def test_fraction_out_of_range_raises(self, kw, name):
        with pytest.raises(ValueError, match=name):
            self.build(tag_of=lambda s, d, k: 0, **kw)

    def test_pair_array_and_tuple_list_give_identical_columns(self):
        nbrs = [[1, 2], [], [0, 1, 3], [2]]
        as_list = [(s, d) for s in range(len(nbrs)) for d in nbrs[s]]
        traces = []
        for pairs in (as_list, pair_array(nbrs)):
            b = TraceBuilder()
            b.exchange(pairs, tag_of=lambda s, d, k: s + d + k,
                       msgs_per_pair=3, prepost_fraction=0.4,
                       wildcard_src_fraction=0.3,
                       rng=np.random.default_rng(5))
            traces.append(b.build("x", n_ranks=4))
        assert column_digest(traces[0]) == column_digest(traces[1])


class TestPairArray:
    @pytest.mark.parametrize("nbrs", [
        [[1, 2], [0], [0, 3, 1], [2]],   # ragged
        [[], [2, 0], [], [1]],           # empty rows
        [[], []],                        # no pairs at all
        [],                              # zero ranks
    ])
    def test_order_equals_the_list_comprehension(self, nbrs):
        pairs = pair_array(nbrs)
        assert pairs.dtype == np.int64 and pairs.shape == \
            (sum(map(len, nbrs)), 2)
        assert [tuple(p) for p in pairs.tolist()] == \
            [(s, d) for s in range(len(nbrs)) for d in nbrs[s]]

    def test_accepts_array_rows(self):
        nbrs = [np.array([3, 1]), np.array([], dtype=np.int64)]
        assert pair_array(nbrs).tolist() == [[0, 3], [0, 1]]


class TestLoopReferences:
    """The vectorized helpers against the per-rank loops they replaced."""

    @staticmethod
    def grid_loop(n_ranks, ndim, corners):
        dims = grid_dims(n_ranks, ndim)
        coords = [np.unravel_index(r, dims) for r in range(n_ranks)]
        index = {tuple(int(x) for x in c): r for r, c in enumerate(coords)}
        if corners:
            grids = np.meshgrid(*[[-1, 0, 1]] * ndim, indexing="ij")
            offsets = [o for o in zip(*[g.ravel() for g in grids]) if any(o)]
        else:
            offsets = [tuple(s if i == d else 0 for i in range(ndim))
                       for d in range(ndim) for s in (-1, 1)]
        out = []
        for r in range(n_ranks):
            mine = []
            for off in offsets:
                c = tuple(int(x) + int(o) for x, o in zip(coords[r], off))
                if all(0 <= ci < di for ci, di in zip(c, dims)):
                    mine.append(index[c])
            out.append(mine)
        return out

    @staticmethod
    def symmetrized_loop(n_ranks, degrees, rng):
        nbrs = [set() for _ in range(n_ranks)]
        for r in range(n_ranks):
            choices = rng.choice([x for x in range(n_ranks) if x != r],
                                 size=degrees[r], replace=False)
            for c in choices:
                nbrs[r].add(int(c))
                nbrs[int(c)].add(r)
        return [sorted(x) for x in nbrs]

    @pytest.mark.parametrize("n_ranks", [1, 2, 7, 12, 30, 64])
    @pytest.mark.parametrize("ndim, corners",
                             [(2, False), (2, True), (3, False), (3, True)])
    def test_grid_neighbors(self, n_ranks, ndim, corners):
        assert grid_neighbors(n_ranks, ndim, corners) == \
            self.grid_loop(n_ranks, ndim, corners)

    @pytest.mark.parametrize("n_ranks, k", [(2, 1), (9, 3), (40, 39),
                                            (50, 6)])
    def test_random_and_skewed_neighbors(self, n_ranks, k):
        got = random_neighbors(n_ranks, k, np.random.default_rng(3))
        assert got == self.symmetrized_loop(
            n_ranks, [min(k, n_ranks - 1)] * n_ranks,
            np.random.default_rng(3))
        hot = max(1, int(0.2 * n_ranks))
        got = skewed_neighbors(n_ranks, 1, k, np.random.default_rng(4),
                               hot_fraction=0.2)
        assert got == self.symmetrized_loop(
            n_ranks, [min(k if r < hot else 1, n_ranks - 1)
                      for r in range(n_ranks)], np.random.default_rng(4))

    @pytest.mark.parametrize("bursts", [[5, 1], [9, 2, 2], [40, 3, 17, 0, 8]])
    def test_gather_flood(self, bursts):
        n = len(bursts)
        want = []
        for dst in range(n):
            srcs = [s for s in range(n) if s != dst]
            per_src = max(1, bursts[dst] // len(srcs))
            want += [SendEvent(0, s, dst, k % 3, 1, 8)
                     for s in srcs for k in range(per_src)]
            want += [RecvPostEvent(0, dst, s, k % 3, 1)
                     for s in srcs for k in range(per_src)]
        b = TraceBuilder()
        gather_flood(b, bursts, tag_of=lambda k: k % 3, comm=1)
        got = list(b.build("x", n_ranks=n))
        assert [e.time for e in got] == list(range(1, len(want) + 1))
        assert [(type(e), {**vars(e), "time": 0}) for e in got] == \
            [(type(e), vars(e)) for e in want]


def test_generation_peak_is_about_one_trace():
    """The builder keeps blocks in their final dtypes and joins one
    column at a time, so generating holds about one trace, not two."""
    generate_trace("df_amg", n_ranks=8, steps=1)  # first-use imports
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before, _ = tracemalloc.get_traced_memory()
        trace = generate_trace("df_amg", steps=16, seed=0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        if not tracing:
            tracemalloc.stop()
    nbytes = sum(col.nbytes for col in trace.columns.values())
    assert peak - before <= 1.25 * nbytes
