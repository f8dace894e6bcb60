"""Virtual topologies and neighborhood collectives."""

from __future__ import annotations

from itertools import product

import pytest

from repro.mpi import (CartGraph, Cluster, Communicator, DistGraph,
                       neighbor_allgather, neighbor_alltoall,
                       neighbor_alltoallv)


def make_comm(p: int, **kw) -> Communicator:
    return Communicator(Cluster(p, **kw))


def stencil_reference(g: CartGraph, rank: int) -> list[int]:
    """The per-call stencil walk the neighbor tables replaced: coords,
    -1 then +1 per dimension (wrapped or truncated), ``rank_of``, and
    no self-loops or repeats."""
    coords = g.coords(rank)
    out: list[int] = []
    for dim, (c, extent, wrap) in enumerate(
            zip(coords, g.dims, g.periodic)):
        for step in (-1, +1):
            n = c + step
            if wrap:
                n %= extent
            elif not 0 <= n < extent:
                continue
            ncoords = list(coords)
            ncoords[dim] = n
            neighbor = g.rank_of(ncoords)
            if neighbor != rank and neighbor not in out:
                out.append(neighbor)
    return out


#: Every grid of extents 1-5 up to 3-D; in 4-D, each extent 1-5 in every
#: position (the cyclic windows of 1..5) plus the all-2 grid.
CART_SHAPES = {
    1: list(product(range(1, 6), repeat=1)),
    2: list(product(range(1, 6), repeat=2)),
    3: list(product(range(1, 6), repeat=3)),
    4: [tuple((i + k) % 5 + 1 for k in range(4)) for i in range(5)]
    + [(2, 2, 2, 2)],
}


def topologies():
    return [CartGraph((3, 3), periodic=True),
            CartGraph((4, 2), periodic=(True, False)),
            DistGraph({0: [2, 1], 1: [2], 2: [0]}),
            DistGraph([[1], [], [0, 1]], n_ranks=4)]


class CountingGraph(DistGraph):
    """Counts every neighbor-list read."""

    def __init__(self, *args, **kw) -> None:
        super().__init__(*args, **kw)
        self.reads = {"destinations": [], "sources": []}

    def destinations(self, rank: int) -> list[int]:
        self.reads["destinations"].append(rank)
        return super().destinations(rank)

    def sources(self, rank: int) -> list[int]:
        self.reads["sources"].append(rank)
        return super().sources(rank)


class TestCartGraph:
    def test_coords_roundtrip_row_major(self):
        g = CartGraph((3, 4))
        assert g.n_ranks == 12
        assert g.coords(0) == (0, 0)
        assert g.coords(5) == (1, 1)
        for r in range(g.n_ranks):
            assert g.rank_of(g.coords(r)) == r

    def test_neighbor_order_minus_then_plus_per_dim(self):
        g = CartGraph((3, 3))
        # rank 4 = center of a 3x3 grid: -x, +x, -y, +y
        assert g.destinations(4) == [1, 7, 3, 5]

    def test_non_periodic_boundary_truncates(self):
        g = CartGraph((3,))
        assert g.destinations(0) == [1]
        assert g.destinations(2) == [1]

    def test_periodic_wraps(self):
        g = CartGraph((4,), periodic=True)
        assert g.destinations(0) == [3, 1]
        assert g.destinations(3) == [2, 0]

    def test_tiny_periodic_dims_never_self_loop_or_duplicate(self):
        g = CartGraph((2, 2), periodic=True)
        for r in range(4):
            dests = g.destinations(r)
            assert r not in dests
            assert len(dests) == len(set(dests))

    def test_symmetric(self):
        g = CartGraph((4, 3), periodic=(True, False))
        for src, dst in g.edges():
            assert src in g.sources(dst)

    def test_validation(self):
        with pytest.raises(ValueError):
            CartGraph(())
        with pytest.raises(ValueError):
            CartGraph((3, 0))
        with pytest.raises(ValueError):
            CartGraph((2, 2), periodic=(True,))
        g = CartGraph((2, 2))
        with pytest.raises(ValueError):
            g.coords(4)
        with pytest.raises(ValueError):
            g.rank_of((2, 0))


class TestDistGraph:
    def test_declaration_order_preserved(self):
        g = DistGraph({0: [2, 1], 1: [0], 2: [0]})
        assert g.destinations(0) == [2, 1]

    def test_sources_are_transposed_by_sender(self):
        g = DistGraph({0: [2], 1: [2], 2: [0]})
        assert g.sources(2) == [0, 1]
        assert g.sources(0) == [2]
        assert g.sources(1) == []

    def test_self_and_duplicate_edges_dropped(self):
        g = DistGraph({0: [0, 1, 1], 1: []})
        assert g.destinations(0) == [1]

    def test_n_ranks_inferred_and_validated(self):
        assert DistGraph({0: [3]}).n_ranks == 4
        with pytest.raises(ValueError):
            DistGraph({0: [5]}, n_ranks=3)

    def test_dense_sequence_form(self):
        g = DistGraph([[1], [2], [0]])
        assert g.edges() == [(0, 1), (1, 2), (2, 0)]


class TestNeighborTables:
    @pytest.mark.parametrize("ndim", sorted(CART_SHAPES))
    def test_cart_tables_match_the_stencil_walk(self, ndim):
        for dims in CART_SHAPES[ndim]:
            for periodic in product((False, True), repeat=ndim):
                g = CartGraph(dims, periodic)
                want = [stencil_reference(g, r) for r in range(g.n_ranks)]
                got = [g.destinations(r) for r in range(g.n_ranks)]
                assert got == want, (dims, periodic)
                assert [g.sources(r) for r in range(g.n_ranks)] == want
                assert g.edges() == [(r, d) for r, out in enumerate(want)
                                     for d in out]

    def test_tiny_periodic_extents_collapse(self):
        """Extent 1 wraps onto the rank itself (dropped), extent 2 onto
        one neighbor twice (kept once)."""
        assert CartGraph((1,), periodic=True).destinations(0) == []
        assert CartGraph((2,), periodic=True).destinations(0) == [1]
        assert CartGraph((1, 2), periodic=True).destinations(1) == [0]

    @pytest.mark.parametrize("topo", topologies(), ids=repr)
    def test_reads_return_fresh_lists(self, topo):
        before = ([topo.destinations(r) for r in range(topo.n_ranks)],
                  [topo.sources(r) for r in range(topo.n_ranks)],
                  topo.edges())
        for r in range(topo.n_ranks):
            for read in (topo.destinations(r), topo.sources(r)):
                assert type(read) is list
                read.append(r)
                read.reverse()
        topo.edges().clear()
        assert ([topo.destinations(r) for r in range(topo.n_ranks)],
                [topo.sources(r) for r in range(topo.n_ranks)],
                topo.edges()) == before

    @pytest.mark.parametrize("topo", topologies(), ids=repr)
    def test_out_of_range_rank_raises(self, topo):
        for rank in (-1, topo.n_ranks):
            with pytest.raises(ValueError, match="out of range"):
                topo.destinations(rank)
            with pytest.raises(ValueError, match="out of range"):
                topo.sources(rank)


class TestNeighborhoodCollectives:
    def test_allgather_ring(self):
        comm = make_comm(4)
        topo = CartGraph((4,), periodic=True)
        out = neighbor_allgather(comm, topo,
                                 [f"c{r}" for r in range(4)])
        # sources order: -1 neighbor then +1 neighbor
        assert out[0] == ["c3", "c1"]
        assert out[2] == ["c1", "c3"]

    def test_alltoall_personalized_on_grid(self):
        comm = make_comm(6)
        topo = CartGraph((2, 3))
        sends = [[(r, d) for d in topo.destinations(r)] for r in range(6)]
        out = neighbor_alltoall(comm, topo, sends)
        for r in range(6):
            assert out[r] == [(s, r) for s in topo.sources(r)]

    def test_alltoallv_variable_counts(self):
        comm = make_comm(3)
        topo = DistGraph({0: [1, 2], 1: [2], 2: []})
        sends = [[[1], [2, 3, 4]], [[5, 6]], []]
        out = neighbor_alltoallv(comm, topo, sends)
        assert out[1] == [[1]]
        assert out[2] == [[2, 3, 4], [5, 6]]
        assert out[0] == []

    def test_asymmetric_distgraph_edges_only(self):
        """Traffic flows only along declared edges: rank 1 declared no
        destinations, so nobody receives from it."""
        comm = make_comm(3)
        topo = DistGraph({0: [1], 1: [], 2: [1]})
        out = neighbor_alltoall(
            comm, topo, [["from0"], [], ["from2"]])
        assert out[1] == ["from0", "from2"]
        assert out[0] == [] and out[2] == []

    def test_size_mismatch_rejected(self):
        comm = make_comm(4)
        with pytest.raises(ValueError, match="topology"):
            neighbor_allgather(comm, CartGraph((3,)), ["a"] * 4)

    def test_send_list_arity_checked(self):
        comm = make_comm(4)
        topo = CartGraph((4,), periodic=True)
        with pytest.raises(ValueError, match="destination neighbors"):
            neighbor_alltoall(comm, topo, [["only-one"]] + [[]] * 3)

    def test_alltoallv_arity_message(self):
        comm = make_comm(3)
        topo = DistGraph({0: [1, 2], 1: [2], 2: []})
        with pytest.raises(ValueError, match="^rank 1: 2 item lists for 1 "
                           "destination neighbors$"):
            neighbor_alltoallv(comm, topo, [[[1], [2]], [[3], [4]], []])
        with pytest.raises(ValueError, match="^need one send list per rank$"):
            neighbor_alltoallv(comm, topo, [[[1], [2]]])

    @pytest.mark.parametrize("collective", [neighbor_alltoall,
                                            neighbor_alltoallv])
    def test_each_rank_lists_read_once(self, collective):
        comm = make_comm(3)
        topo = CountingGraph({0: [1, 2], 1: [2, 0], 2: [0]})
        sends = [[[r] for _ in topo.destinations(r)] for r in range(3)]
        topo.reads = {"destinations": [], "sources": []}
        collective(comm, topo, sends)
        assert topo.reads == {"destinations": [0, 1, 2],
                              "sources": [0, 1, 2]}

    def test_repeated_supersteps_stay_isolated(self):
        """Back-to-back neighborhood exchanges never cross-match."""
        comm = make_comm(4)
        topo = CartGraph((4,), periodic=True)
        for step in range(3):
            out = neighbor_alltoall(
                comm, topo,
                [[(step, r, d) for d in topo.destinations(r)]
                 for r in range(4)])
            for r in range(4):
                assert out[r] == [(step, s, r) for s in topo.sources(r)]
