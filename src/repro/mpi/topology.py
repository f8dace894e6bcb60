"""Process topologies for neighborhood collectives.

MPI's virtual topologies let an application declare *who talks to whom*
so the library can exploit the sparsity: a neighborhood collective only
moves data along declared edges instead of all-to-all.  Two topology
objects cover the MPI-3 surface:

* :class:`CartGraph` -- ``MPI_Cart_create``: a regular d-dimensional
  grid, neighbors are the ±1 face stencil per dimension (periodic or
  truncated at the boundary).
* :class:`DistGraph` -- ``MPI_Dist_graph_create_adjacent``: arbitrary
  per-rank adjacency, the shape of unstructured-mesh halo exchange
  (Laghos-style).

Both build their per-rank neighbor tables once, at construction, and
share one read API -- ``n_ranks``, ``sources(rank)``,
``destinations(rank)``, ``edges()``: each read is a table lookup that
returns a fresh list, and an out-of-range rank raises ``ValueError``.
Cartesian neighbors are ordered by dimension, negative direction first;
distributed-graph neighbors keep the order the application declared.
"""

from __future__ import annotations

from math import prod
from typing import Sequence

__all__ = ["CartGraph", "DistGraph"]


class _Topology:
    """The shared read path over ``n_ranks`` and the per-rank neighbor
    tuples ``_dests``/``_srcs`` that a subclass builds once."""

    def _row(self, table: tuple[tuple[int, ...], ...], rank: int) -> list[int]:
        if not 0 <= rank < self.n_ranks:
            raise ValueError(f"rank {rank} out of range")
        return list(table[rank])

    def destinations(self, rank: int) -> list[int]:
        """Ranks ``rank`` sends to, in MPI neighbor order."""
        return self._row(self._dests, rank)

    def sources(self, rank: int) -> list[int]:
        """Ranks ``rank`` receives from, in MPI neighbor order."""
        return self._row(self._srcs, rank)

    def edges(self) -> list[tuple[int, int]]:
        """Every directed ``(src, dst)`` edge, source-major."""
        return [(r, d) for r, out in enumerate(self._dests) for d in out]


class CartGraph(_Topology):
    """Regular Cartesian grid topology (``MPI_Cart_create``).

    Parameters
    ----------
    dims:
        Grid extent per dimension; ``n_ranks`` is their product.
    periodic:
        Per-dimension wraparound flags, or one bool for all dimensions.
        Non-periodic boundaries simply have fewer neighbors (MPI's
        ``MPI_PROC_NULL`` edges are elided rather than modelled).
    """

    def __init__(self, dims: Sequence[int],
                 periodic: bool | Sequence[bool] = False) -> None:
        if not dims:
            raise ValueError("dims cannot be empty")
        if any(d < 1 for d in dims):
            raise ValueError(f"every dimension must be >= 1, got {dims}")
        self.dims = tuple(int(d) for d in dims)
        if isinstance(periodic, bool):
            periodic = [periodic] * len(self.dims)
        if len(periodic) != len(self.dims):
            raise ValueError("periodic flags must match dims")
        self.periodic = tuple(bool(p) for p in periodic)
        self.n_ranks = prod(self.dims)
        # the grid is symmetric: sources are the destination table
        self._dests = self._srcs = tuple(
            self._stencil(r) for r in range(self.n_ranks))

    def coords(self, rank: int) -> tuple[int, ...]:
        """Grid coordinates of ``rank`` (row-major, like MPI)."""
        if not 0 <= rank < self.n_ranks:
            raise ValueError(f"rank {rank} out of range")
        out = []
        for d in reversed(self.dims):
            out.append(rank % d)
            rank //= d
        return tuple(reversed(out))

    def rank_of(self, coords: Sequence[int]) -> int:
        """Rank at ``coords`` (row-major)."""
        if len(coords) != len(self.dims):
            raise ValueError("coordinate arity must match dims")
        rank = 0
        for c, d in zip(coords, self.dims):
            if not 0 <= c < d:
                raise ValueError(f"coordinate {c} out of range 0..{d - 1}")
            rank = rank * d + c
        return rank

    def _stencil(self, rank: int) -> tuple[int, ...]:
        """Table builder: ``rank``'s face neighbors, per dimension -1
        then +1, without self-loops or repeats."""
        coords = self.coords(rank)
        out: list[int] = []
        for dim, (c, extent, wrap) in enumerate(
                zip(coords, self.dims, self.periodic)):
            for step in (-1, +1):
                n = c + step
                if wrap:
                    n %= extent
                elif not 0 <= n < extent:
                    continue
                neighbor = self.rank_of(coords[:dim] + (n,) + coords[dim + 1:])
                if neighbor != rank and neighbor not in out:
                    out.append(neighbor)
        return tuple(out)

    def __repr__(self) -> str:
        return (f"CartGraph(dims={self.dims}, periodic={self.periodic}, "
                f"n_ranks={self.n_ranks})")


class DistGraph(_Topology):
    """Arbitrary adjacency topology
    (``MPI_Dist_graph_create_adjacent``).

    Parameters
    ----------
    destinations:
        ``rank -> iterable of destination ranks`` (the ranks this rank
        sends to), either a mapping or a dense per-rank sequence.
    n_ranks:
        Total rank count; inferred from the adjacency if omitted.

    Sources are derived by transposing the destination lists, ordered by
    sending rank -- deterministic without requiring the caller to
    declare both directions consistently.
    """

    def __init__(self, destinations, n_ranks: int | None = None) -> None:
        if hasattr(destinations, "items"):
            items = destinations.items()
        else:
            items = enumerate(destinations)
        dests: dict[int, list[int]] = {}
        top = -1
        for rank, targets in items:
            rank = int(rank)
            dests[rank] = out = []
            for t in targets:
                t = int(t)
                if t != rank and t not in out:
                    out.append(t)
            top = max(top, rank, *out) if out else max(top, rank)
        self.n_ranks = (top + 1) if n_ranks is None else int(n_ranks)
        if self.n_ranks < 1:
            raise ValueError("topology needs at least one rank")
        for rank, out in dests.items():
            bad = [t for t in [rank] + out if not 0 <= t < self.n_ranks]
            if bad:
                raise ValueError(f"rank(s) {bad} out of range "
                                 f"0..{self.n_ranks - 1}")
        self._dests = tuple(tuple(dests.get(r, ()))
                            for r in range(self.n_ranks))
        srcs: list[list[int]] = [[] for _ in range(self.n_ranks)]
        for rank, t in self.edges():
            srcs[t].append(rank)
        self._srcs = tuple(tuple(v) for v in srcs)

    def __repr__(self) -> str:
        n_edges = sum(map(len, self._dests))
        return f"DistGraph(n_ranks={self.n_ranks}, n_edges={n_edges})"
