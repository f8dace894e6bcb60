"""BSP-style collectives layered on point-to-point matching.

The paper argues GPU applications are "generally well structured and
strictly follow the BSP model", with tags reusable after synchronization.
These collectives are written in that style: each one is a superstep that
posts all receives, performs all sends, and drains the cluster.  They
run *cluster-wide* from the single-threaded driver (the natural shape for
phase-structured simulated programs).

All collectives reserve tags at the top of the 16-bit tag space so they
never collide with application point-to-point traffic.
"""

from __future__ import annotations

from typing import Any, Callable, Sequence

from .communicator import COLLECTIVE_TAG_BASE, Communicator

__all__ = ["barrier", "bcast", "gather", "scatter", "allgather",
           "alltoall", "reduce", "allreduce", "scan",
           "neighbor_allgather", "neighbor_alltoall", "neighbor_alltoallv",
           "COLLECTIVE_TAG_BASE"]

_TAG_BARRIER = COLLECTIVE_TAG_BASE + 0
_TAG_BCAST = COLLECTIVE_TAG_BASE + 1
_TAG_GATHER = COLLECTIVE_TAG_BASE + 2
_TAG_ALLTOALL = COLLECTIVE_TAG_BASE + 3
_TAG_REDUCE = COLLECTIVE_TAG_BASE + 4
_TAG_SCATTER = COLLECTIVE_TAG_BASE + 5
_TAG_ALLGATHER = COLLECTIVE_TAG_BASE + 6
_TAG_SCAN = COLLECTIVE_TAG_BASE + 7
_TAG_NEIGHBOR_ALLGATHER = COLLECTIVE_TAG_BASE + 8
_TAG_NEIGHBOR_ALLTOALL = COLLECTIVE_TAG_BASE + 9
_TAG_NEIGHBOR_ALLTOALLV = COLLECTIVE_TAG_BASE + 10


def barrier(comm: Communicator) -> None:
    """Dissemination barrier: log2(P) rounds of pairwise notifications.

    Completes only when every rank has heard (transitively) from every
    other -- the BSP superstep boundary after which tags may be reused.
    """
    p = comm.size
    if p <= 1:
        return
    dist = 1
    while dist < p:
        reqs = []
        for r in range(p):
            src = (r - dist) % p
            reqs.append(comm.coll_irecv(r, src, _TAG_BARRIER))
        for r in range(p):
            dst = (r + dist) % p
            comm.coll_isend(r, dst, None, _TAG_BARRIER)
        for req in reqs:
            req.wait()
        dist <<= 1


def bcast(comm: Communicator, root: int, payload: Any) -> list[Any]:
    """Binomial-tree broadcast; returns the payload as seen by each rank."""
    p = comm.size
    results: list[Any] = [None] * p
    results[root] = payload
    if p == 1:
        return results
    # relative rank space rooted at `root`
    have = {root}
    dist = 1
    while dist < p:
        senders = list(have)
        reqs = []
        for s in senders:
            rel = (s - root) % p
            target_rel = rel + dist
            if target_rel < p:
                dst = (target_rel + root) % p
                reqs.append((dst, comm.coll_irecv(dst, s, _TAG_BCAST)))
                comm.coll_isend(s, dst, results[s], _TAG_BCAST)
        for dst, req in reqs:
            results[dst] = req.wait()
            have.add(dst)
        dist <<= 1
    return results


def gather(comm: Communicator, root: int,
           contributions: Sequence[Any]) -> list[Any]:
    """Gather one contribution per rank at ``root`` (rank order)."""
    p = comm.size
    if len(contributions) != p:
        raise ValueError("need one contribution per rank")
    reqs = {}
    for r in range(p):
        if r == root:
            continue
        reqs[r] = comm.coll_irecv(root, r, _TAG_GATHER)
        comm.coll_isend(r, root, contributions[r], _TAG_GATHER)
    out = [None] * p
    out[root] = contributions[root]
    for r, req in reqs.items():
        out[r] = req.wait()
    return out


def alltoall(comm: Communicator,
             send_matrix: Sequence[Sequence[Any]]) -> list[list[Any]]:
    """Personalized all-to-all: ``send_matrix[i][j]`` goes from i to j.

    Returns the receive matrix: ``out[j][i]`` is what j got from i.  This
    is the heaviest matching workload a collective generates -- P^2
    concurrent messages on one tag.
    """
    p = comm.size
    if len(send_matrix) != p or any(len(row) != p for row in send_matrix):
        raise ValueError("send_matrix must be P x P")
    reqs = [[None] * p for _ in range(p)]
    for j in range(p):
        for i in range(p):
            if i != j:
                reqs[j][i] = comm.coll_irecv(j, i, _TAG_ALLTOALL)
    for i in range(p):
        for j in range(p):
            if i != j:
                comm.coll_isend(i, j, send_matrix[i][j], _TAG_ALLTOALL)
    out = [[None] * p for _ in range(p)]
    for j in range(p):
        for i in range(p):
            out[j][i] = (send_matrix[i][j] if i == j
                         else reqs[j][i].wait())
    return out


def reduce(comm: Communicator, root: int, contributions: Sequence[Any],
           op: Callable[[Any, Any], Any]) -> Any:
    """Binomial-tree reduction to ``root`` with operator ``op``.

    ``op`` must be associative; evaluation order follows the tree.
    """
    p = comm.size
    if len(contributions) != p:
        raise ValueError("need one contribution per rank")
    values = {r: contributions[r] for r in range(p)}
    dist = 1
    while dist < p:
        reqs = []
        for rel in range(0, p, dist * 2):
            partner = rel + dist
            if partner < p:
                dst = (rel + root) % p
                src = (partner + root) % p
                reqs.append((dst, src, comm.coll_irecv(dst, src, _TAG_REDUCE)))
                comm.coll_isend(src, dst, values[src], _TAG_REDUCE)
        for dst, src, req in reqs:
            values[dst] = op(values[dst], req.wait())
        dist <<= 1
    return values[root]


def scatter(comm: Communicator, root: int,
            payloads: Sequence[Any]) -> list[Any]:
    """Scatter one payload per rank from ``root``; returns what each rank
    received (rank order)."""
    p = comm.size
    if len(payloads) != p:
        raise ValueError("need one payload per rank")
    reqs = {}
    for r in range(p):
        if r != root:
            reqs[r] = comm.coll_irecv(r, root, _TAG_SCATTER)
    for r in range(p):
        if r != root:
            comm.coll_isend(root, r, payloads[r], _TAG_SCATTER)
    out = [None] * p
    out[root] = payloads[root]
    for r, req in reqs.items():
        out[r] = req.wait()
    return out


def allgather(comm: Communicator,
              contributions: Sequence[Any]) -> list[list[Any]]:
    """Every rank ends with every rank's contribution (ring algorithm).

    Returns ``out[r]`` = the full list as assembled at rank ``r``.
    """
    p = comm.size
    if len(contributions) != p:
        raise ValueError("need one contribution per rank")
    views = [[None] * p for _ in range(p)]
    for r in range(p):
        views[r][r] = contributions[r]
    # p-1 ring steps: pass the piece you received last step onward
    for step in range(p - 1):
        reqs = []
        for r in range(p):
            left = (r - 1) % p
            reqs.append(comm.coll_irecv(r, left, _TAG_ALLGATHER))
        for r in range(p):
            right = (r + 1) % p
            piece_idx = (r - step) % p
            comm.coll_isend(r, right, (piece_idx, views[r][piece_idx]),
                       _TAG_ALLGATHER)
        for r, req in enumerate(reqs):
            idx, piece = req.wait()
            views[r][idx] = piece
    return views


def _check_topology(comm: Communicator, topo) -> None:
    if topo.n_ranks != comm.size:
        raise ValueError(f"topology spans {topo.n_ranks} ranks but the "
                         f"communicator has {comm.size}")


def _neighbor_lists(comm: Communicator, topo,
                    send_lists: Sequence[Sequence[Any]],
                    what: str) -> tuple[list[list[int]], list[list[int]]]:
    """Check one send list per rank, one entry per destination neighbor
    (``what`` names the entries), and return every rank's destination
    and source lists, each read once."""
    _check_topology(comm, topo)
    p = comm.size
    if len(send_lists) != p:
        raise ValueError("need one send list per rank")
    dests = [topo.destinations(r) for r in range(p)]
    for r, (row, out) in enumerate(zip(send_lists, dests)):
        if len(row) != len(out):
            raise ValueError(f"rank {r}: {len(row)} {what} for {len(out)} "
                             "destination neighbors")
    return dests, [topo.sources(r) for r in range(p)]


def neighbor_allgather(comm: Communicator, topo,
                       contributions: Sequence[Any]) -> list[list[Any]]:
    """``MPI_Neighbor_allgather``: each rank sends its contribution to
    every destination neighbor and collects one piece per source
    neighbor.

    Returns ``out[r]`` = received pieces in ``topo.sources(r)`` order.
    Only declared edges carry traffic -- on a combining fabric these
    sparse exchanges coalesce into one batch per ordered shard pair,
    exactly like the dense collectives.
    """
    _check_topology(comm, topo)
    p = comm.size
    if len(contributions) != p:
        raise ValueError("need one contribution per rank")
    reqs = [[comm.coll_irecv(r, s, _TAG_NEIGHBOR_ALLGATHER)
             for s in topo.sources(r)] for r in range(p)]
    for r in range(p):
        for d in topo.destinations(r):
            comm.coll_isend(r, d, contributions[r],
                            _TAG_NEIGHBOR_ALLGATHER)
    return [[req.wait() for req in row] for row in reqs]


def neighbor_alltoall(comm: Communicator, topo,
                      send_lists: Sequence[Sequence[Any]]) -> list[list[Any]]:
    """``MPI_Neighbor_alltoall``: personalized exchange along edges.

    ``send_lists[r][k]`` goes to ``topo.destinations(r)[k]``; returns
    ``out[r][k]`` = what ``r`` received from ``topo.sources(r)[k]``.
    """
    dests, srcs = _neighbor_lists(comm, topo, send_lists, "payloads")
    reqs = [[comm.coll_irecv(r, s, _TAG_NEIGHBOR_ALLTOALL) for s in row]
            for r, row in enumerate(srcs)]
    for r, (row, out) in enumerate(zip(send_lists, dests)):
        for payload, d in zip(row, out):
            comm.coll_isend(r, d, payload, _TAG_NEIGHBOR_ALLTOALL)
    return [[req.wait() for req in row] for row in reqs]


def neighbor_alltoallv(comm: Communicator, topo,
                       send_lists: Sequence[Sequence[Sequence[Any]]],
                       ) -> list[list[list[Any]]]:
    """``MPI_Neighbor_alltoallv``: variable-count personalized exchange.

    ``send_lists[r][k]`` is the *sequence of items* rank ``r`` sends to
    its k-th destination neighbor (counts may differ per edge, the
    unstructured-halo shape); returns ``out[r][k]`` = the item list
    received from the k-th source neighbor.  Each edge moves one
    message carrying its item list -- the v-variant varies volume, not
    message count.
    """
    dests, srcs = _neighbor_lists(comm, topo, send_lists, "item lists")
    reqs = [[comm.coll_irecv(r, s, _TAG_NEIGHBOR_ALLTOALLV) for s in row]
            for r, row in enumerate(srcs)]
    for r, (row, out) in enumerate(zip(send_lists, dests)):
        for items, d in zip(row, out):
            comm.coll_isend(r, d, list(items), _TAG_NEIGHBOR_ALLTOALLV)
    return [[list(req.wait()) for req in row] for row in reqs]


def allreduce(comm: Communicator, contributions: Sequence[Any],
              op: Callable[[Any, Any], Any]) -> list[Any]:
    """Reduce-to-root plus broadcast; returns the total as seen by every
    rank."""
    total = reduce(comm, 0, contributions, op)
    return bcast(comm, 0, total)


def scan(comm: Communicator, contributions: Sequence[Any],
         op: Callable[[Any, Any], Any]) -> list[Any]:
    """Inclusive prefix reduction: rank r gets op-fold of ranks 0..r.

    Linear pipeline (each rank receives the running prefix from its left
    neighbor, folds, and forwards) -- the textbook MPI_Scan.
    """
    p = comm.size
    if len(contributions) != p:
        raise ValueError("need one contribution per rank")
    out = [None] * p
    out[0] = contributions[0]
    for r in range(1, p):
        req = comm.coll_irecv(r, r - 1, _TAG_SCAN)
        comm.coll_isend(r - 1, r, out[r - 1], _TAG_SCAN)
        out[r] = op(req.wait(), contributions[r])
    return out
