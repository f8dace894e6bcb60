"""Combining-fabric sweep: shard pairs x fan-out x message size.

Not a paper figure.  Drives a spanning tenant's
:class:`repro.serve.CollectiveBridge` through ring-exchange supersteps,
an alltoall acceptance point and a neighborhood point, sweeping shard
count, per-rank fan-out, and modeled message size
(:class:`repro.serve.FabricLink.bytes_per_envelope`), and prints one
table row per point from the fabric's counters.

The figure of merit is the **combine ratio** -- inter-shard messages
carried per combined pair batch.  Träff-style message combining means
the batch count scales with communicating *shard pairs* per superstep,
not with messages: doubling fan-out doubles the combine ratio and the
wire bytes, but leaves the batch count flat.  The alltoall point pins
the acceptance criterion directly: exactly one combined batch per
ordered occupied-shard pair per superstep.

Usage::

    PYTHONPATH=src python benchmarks/bench_fabric.py [--smoke]
        [--seed SEED] [--span N] [--supersteps N] [--shards 2,4]
        [--fanouts 1,3] [--sizes 8,256]

``--smoke`` runs a tiny sweep and exits nonzero unless alltoall sends
exactly one batch per ordered shard pair per superstep, the
neighborhood point at most one, and every combine ratio is >= 1.
"""

from __future__ import annotations

import argparse
import time

from repro.bench import Table, format_rate, write_result
from repro.mpi import CartGraph
from repro.mpi import collectives as C
from repro.serve import (CollectiveBridge, FabricLink, MatchingService,
                         TenantSpec, stable_shard)


def spanning_name(span: int, n_shards: int) -> str:
    """A base name whose ``name#i`` sub-tenants occupy all shards.

    Placement is ``crc32(name#i) % n``; names are searched so the sweep
    measures combining over exactly ``n_shards`` communicating shards,
    not placement luck.

    CRC32's low output bits are insensitive to the low two bits of the
    last input byte, so sub-indices ``#0..#3`` always agree mod 2 and
    mod 4 -- on power-of-two shard counts no name can span with
    ``span <= 4``.  The search is bounded so an impossible request
    fails loudly instead of spinning.
    """
    for k in range(10_000):
        name = f"fab{k}"
        occupied = {stable_shard(f"{name}#{i}", n_shards)
                    for i in range(span)}
        if len(occupied) == n_shards:
            return name
    raise SystemExit(
        f"no base name spans {n_shards} shards at span={span} "
        f"(CRC32 placement aliases low sub-indices on power-of-two "
        f"shard counts; raise --span)")


def make_bridge(*, n_shards: int, span: int, seed: int,
                payload_bytes: int) -> tuple[MatchingService,
                                             CollectiveBridge]:
    svc = MatchingService(n_shards=n_shards, seed=seed)
    name = spanning_name(span, n_shards)
    svc.register(TenantSpec(name=name, span=span, autotune=False))
    link = FabricLink(bytes_per_envelope=8 + payload_bytes)
    return svc, CollectiveBridge(svc, name, link=link)


def drive_ring(bridge: CollectiveBridge, *, supersteps: int,
               fanout: int) -> None:
    """``supersteps`` BSP rounds: every rank exchanges with its
    ``fanout`` ring neighbours on each side's distinct tag."""
    span = bridge.size
    if fanout >= span:
        raise ValueError("fanout must be < span")
    for _ in range(supersteps):
        reqs = []
        for r in range(span):
            for d in range(1, fanout + 1):
                reqs.append(bridge.irecv(r, (r - d) % span, tag=d))
        for r in range(span):
            for d in range(1, fanout + 1):
                bridge.isend(r, (r + d) % span, (r, d), tag=d)
        for req in reqs:
            req.wait()


def fabric_row(svc: MatchingService, bridge: CollectiveBridge, *,
               name: str, n_shards: int, wall: float) -> dict:
    fabric = bridge.fabric
    matched = svc.report()["matched"]
    return {
        "point": name,
        "span": bridge.size,
        "shards": n_shards,
        "supersteps": fabric.supersteps,
        "pair_batches": fabric.pair_batches_total,
        "messages": fabric.fabric_messages_total,
        "combine": (fabric.combine_ratio
                    if fabric.pair_batches_total else None),
        "wire_vt": fabric.wire_seconds_total,
        "match_rate": matched / wall if wall > 0 else 0.0,
    }


def run_ring_point(*, n_shards: int, span: int, fanout: int,
                   payload_bytes: int, supersteps: int,
                   seed: int) -> dict:
    svc, bridge = make_bridge(n_shards=n_shards, span=span, seed=seed,
                              payload_bytes=payload_bytes)
    t0 = time.perf_counter()
    drive_ring(bridge, supersteps=supersteps, fanout=fanout)
    wall = time.perf_counter() - t0
    return fabric_row(svc, bridge, n_shards=n_shards, wall=wall,
                      name=f"fabric-s{n_shards}-f{fanout}-b{payload_bytes}")


def run_alltoall_point(*, n_shards: int, span: int, payload_bytes: int,
                       supersteps: int, seed: int) -> dict:
    """The acceptance point: each alltoall superstep must produce
    exactly one combined batch per ordered occupied-shard pair."""
    svc, bridge = make_bridge(n_shards=n_shards, span=span, seed=seed,
                              payload_bytes=payload_bytes)
    t0 = time.perf_counter()
    for _ in range(supersteps):
        C.alltoall(bridge, [[(i, j) for j in range(span)]
                            for i in range(span)])
    wall = time.perf_counter() - t0
    fabric = bridge.fabric
    n_pairs = n_shards * (n_shards - 1)
    if fabric.supersteps != supersteps:
        raise SystemExit(f"alltoall took {fabric.supersteps} supersteps "
                         f"(expected {supersteps})")
    bad = {pair: n for pair, n in fabric.per_pair_batches.items()
           if n != supersteps}
    if bad or len(fabric.per_pair_batches) != n_pairs:
        raise SystemExit(
            f"combining violated: expected one batch per ordered pair "
            f"per superstep ({n_pairs} pairs x {supersteps}), got "
            f"{dict(fabric.per_pair_batches)}")
    return fabric_row(svc, bridge, n_shards=n_shards, wall=wall,
                      name=f"fabric-alltoall-s{n_shards}")


def run_neighbor_point(*, n_shards: int, span: int, payload_bytes: int,
                       supersteps: int, seed: int) -> dict:
    """Sparse neighborhood collective over a periodic Cartesian grid:
    only declared edges carry traffic, and those that cross shards must
    still coalesce -- at most one combined batch per ordered occupied
    pair per superstep (sparsity can only *reduce* the pair count,
    never multiply batches)."""
    svc, bridge = make_bridge(n_shards=n_shards, span=span, seed=seed,
                              payload_bytes=payload_bytes)
    topo = CartGraph((span // 2, 2) if span % 2 == 0 else (span,),
                     periodic=True)
    t0 = time.perf_counter()
    for _ in range(supersteps):
        C.neighbor_alltoall(
            bridge, topo,
            [[(r, d) for d in topo.destinations(r)] for r in range(span)])
    wall = time.perf_counter() - t0
    fabric = bridge.fabric
    too_many = {pair: n for pair, n in fabric.per_pair_batches.items()
                if n > supersteps}
    if too_many:
        raise SystemExit(
            f"neighborhood combining violated: pair batches exceeded one "
            f"per superstep: {too_many}")
    return fabric_row(svc, bridge, n_shards=n_shards, wall=wall,
                      name=f"fabric-neighbor-s{n_shards}")


def fabric_table(rows: list[dict],
                 title: str = "Combining fabric sweep") -> Table:
    table = Table(title=title,
                  columns=["point", "span", "shards", "supersteps",
                           "pair batches", "messages", "combine",
                           "wire vt", "match rate"])
    for r in rows:
        combine = f"{r['combine']:.2f}" if r["combine"] is not None else "-"
        table.add(r["point"], r["span"], r["shards"], r["supersteps"],
                  r["pair_batches"], r["messages"], combine,
                  f"{r['wire_vt'] * 1e6:.2f}us",
                  format_rate(r["match_rate"]))
    table.note("combine = inter-shard messages per combined pair batch; "
               "batch count scales with communicating shard pairs per "
               "superstep, never with fan-out or message count")
    return table


def sweep(*, shards: tuple[int, ...], fanouts: tuple[int, ...],
          sizes: tuple[int, ...], span: int, supersteps: int,
          seed: int) -> list[dict]:
    rows = []
    for n_shards in shards:
        for fanout in fanouts:
            for payload_bytes in sizes:
                rows.append(run_ring_point(
                    n_shards=n_shards, span=span, fanout=fanout,
                    payload_bytes=payload_bytes, supersteps=supersteps,
                    seed=seed))
        rows.append(run_alltoall_point(
            n_shards=n_shards, span=span, payload_bytes=max(sizes),
            supersteps=max(1, supersteps // 2), seed=seed))
        rows.append(run_neighbor_point(
            n_shards=n_shards, span=span, payload_bytes=max(sizes),
            supersteps=max(1, supersteps // 2), seed=seed))
    return rows


def smoke_check(seed: int = 0) -> list[dict]:
    """CI mode: tiny sweep; the alltoall and neighborhood points assert
    their per-pair batch counts, and every combine ratio must be >= 1."""
    rows = sweep(shards=(2,), fanouts=(1,), sizes=(8,), span=8,
                 supersteps=2, seed=seed)
    for r in rows:
        if r["combine"] is not None and r["combine"] < 1.0:
            raise SystemExit(f"{r['point']}: combine ratio below 1.0")
    return rows


def main(argv: list[str] | None = None) -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny sweep + per-pair batch acceptance check")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--span", type=int, default=8,
                    help="spanning tenant rank count")
    ap.add_argument("--supersteps", type=int, default=6,
                    help="ring-exchange supersteps per point")
    ap.add_argument("--shards", default="2,4",
                    help="comma-separated shard counts")
    ap.add_argument("--fanouts", default="1,3",
                    help="comma-separated per-rank ring fan-outs")
    ap.add_argument("--sizes", default="8,256",
                    help="comma-separated modeled payload bytes")
    args = ap.parse_args(argv)

    if args.smoke:
        fabric_table(smoke_check(seed=args.seed),
                     title="Fabric smoke").show()
        print("one-batch-per-pair acceptance: ok")
        print("neighborhood at-most-one-batch-per-pair: ok")
        print("combine ratio >= 1: ok")
        return

    rows = sweep(shards=tuple(int(s) for s in args.shards.split(",")),
                 fanouts=tuple(int(f) for f in args.fanouts.split(",")),
                 sizes=tuple(int(b) for b in args.sizes.split(",")),
                 span=args.span, supersteps=args.supersteps, seed=args.seed)
    write_result("fabric_combining", fabric_table(rows).show())


if __name__ == "__main__":
    main()
