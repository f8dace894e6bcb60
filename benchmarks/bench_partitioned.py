"""Partitioned-channel amortization bench: match once, fire many.

Not a paper figure.  Drives MPI-4 style partitioned channels
(:meth:`repro.serve.CollectiveBridge.psend_init` /
:meth:`~repro.serve.CollectiveBridge.precv_init`) over the combining
fabric and compares them against the *equivalent non-partitioned
stream*: the same ring of shard-crossing channels carrying the same
number of transfers per superstep, but with every transfer individually
matched through ``isend``/``irecv``.

The figure of merit is the **amortization ratio** -- the partitioned
stream's sustained transfers/s divided by the plain stream's.  A
partitioned channel pays for exactly one matched binding envelope per
``start()`` (per epoch); each ``pready`` re-fire afterwards lands
straight in the pre-registered buffer and only adds bytes to the
already-queued pair batch.  The plain stream pays the full match path
per transfer, so with ``K`` partitions the partitioned side amortizes
``K`` matches down to one and the ratio grows with ``K``.

Usage::

    PYTHONPATH=src python benchmarks/bench_partitioned.py [--smoke]
        [--seed SEED] [--span N] [--partitions N] [--supersteps N]
        [--shards 2,4]

Every point exits nonzero unless each channel epoch matched exactly
once.  ``--smoke`` runs one tiny point; the full run additionally
enforces the acceptance gate: amortization ratio >= 5x at the default
partition count.
"""

from __future__ import annotations

import argparse
import time

from repro.bench import Table, format_rate, write_result
from repro.serve import (CollectiveBridge, FabricLink, MatchingService,
                         TenantSpec, stable_shard)

#: Acceptance gate for the full run (ISSUE: >= 5x amortization).
MIN_AMORTIZATION = 5.0

_TAG = 7


def spanning_name(span: int, n_shards: int) -> str:
    """A base name whose ``name#i`` sub-tenants occupy all shards
    (same bounded CRC32 search as ``bench_fabric.py``)."""
    for k in range(10_000):
        name = f"part{k}"
        occupied = {stable_shard(f"{name}#{i}", n_shards)
                    for i in range(span)}
        if len(occupied) == n_shards:
            return name
    raise SystemExit(
        f"no base name spans {n_shards} shards at span={span} "
        f"(CRC32 placement aliases low sub-indices; raise --span)")


def make_bridge(*, n_shards: int, span: int, seed: int,
                payload_bytes: int = 8) -> tuple[MatchingService,
                                                 CollectiveBridge]:
    svc = MatchingService(n_shards=n_shards, seed=seed)
    name = spanning_name(span, n_shards)
    svc.register(TenantSpec(name=name, span=span, autotune=False,
                            partitioned=True))
    link = FabricLink(bytes_per_envelope=8 + payload_bytes)
    return svc, CollectiveBridge(svc, name, link=link)


def drive_partitioned(bridge: CollectiveBridge, *, partitions: int,
                      supersteps: int) -> int:
    """A ring of partitioned channels (rank r -> r+1), matched once per
    epoch and re-fired ``partitions`` times; returns transfers moved."""
    span = bridge.size
    psends = [bridge.psend_init(r, (r + 1) % span, partitions, tag=_TAG)
              for r in range(span)]
    precvs = [bridge.precv_init((r + 1) % span, r, partitions, tag=_TAG)
              for r in range(span)]
    for step in range(supersteps):
        for ps in psends:
            ps.start()
        for pr in precvs:
            pr.start()
        for ps in psends:
            ps.pready_range(0, partitions)
        for ps in psends:
            ps.wait()
        for pr in precvs:
            got = pr.wait()
            if len(got) != partitions:
                raise SystemExit(
                    f"partitioned wait returned {len(got)} payloads "
                    f"(expected {partitions})")
    return span * partitions * supersteps


def drive_plain(bridge: CollectiveBridge, *, partitions: int,
                supersteps: int) -> int:
    """The equivalent non-partitioned stream: identical ring, identical
    transfer count, every transfer individually matched."""
    span = bridge.size
    for step in range(supersteps):
        reqs = []
        for r in range(span):
            for _ in range(partitions):
                reqs.append(bridge.irecv((r + 1) % span, r, tag=_TAG))
        for r in range(span):
            for _ in range(partitions):
                bridge.isend(r, (r + 1) % span, None, tag=_TAG)
        for req in reqs:
            req.wait()
    return span * partitions * supersteps


def run_point(*, n_shards: int, span: int, partitions: int,
              supersteps: int, seed: int) -> dict:
    """One amortization point: partitioned vs plain on fresh services."""
    svc_plain, bridge_plain = make_bridge(n_shards=n_shards, span=span,
                                          seed=seed)
    t0 = time.perf_counter()
    transfers = drive_plain(bridge_plain, partitions=partitions,
                            supersteps=supersteps)
    wall_plain = time.perf_counter() - t0
    plain_rate = transfers / wall_plain if wall_plain > 0 else 0.0

    svc, bridge = make_bridge(n_shards=n_shards, span=span, seed=seed)
    t0 = time.perf_counter()
    moved = drive_partitioned(bridge, partitions=partitions,
                              supersteps=supersteps)
    wall = time.perf_counter() - t0
    if moved != transfers:
        raise SystemExit(f"stream mismatch: partitioned moved {moved}, "
                         f"plain moved {transfers}")
    partitioned_rate = moved / wall if wall > 0 else 0.0

    matched = svc.report()["matched"]
    bindings = span * supersteps  # one matched envelope per channel epoch
    if matched != bindings:
        raise SystemExit(
            f"match-once violated: {matched} matches for {bindings} "
            f"channel epochs (each Start must match exactly once)")
    return {
        "point": f"partitioned-s{n_shards}-p{partitions}",
        "span": bridge.size,
        "shards": n_shards,
        "partitions": partitions,
        "matched": matched,
        "partitioned_rate": partitioned_rate,
        "plain_rate": plain_rate,
        "amortization": (partitioned_rate / plain_rate
                         if plain_rate > 0 else None),
    }


def partitioned_table(rows: list[dict],
                      title: str = "Partitioned amortization",
                      ) -> Table:
    table = Table(title=title,
                  columns=["point", "span", "shards", "parts",
                           "matches", "transfers/s", "plain/s",
                           "amortization"])
    for r in rows:
        amort = (f"{r['amortization']:.2f}x"
                 if r["amortization"] is not None else "-")
        table.add(r["point"], r["span"], r["shards"], r["partitions"],
                  r["matched"], format_rate(r["partitioned_rate"]),
                  format_rate(r["plain_rate"]), amort)
    table.note("amortization = partitioned transfers/s over the "
               "equivalent individually-matched stream; the partitioned "
               "side matches one binding envelope per channel epoch and "
               "re-fires the rest")
    return table


def sweep(*, shards: tuple[int, ...], span: int, partitions: int,
          supersteps: int, seed: int) -> list[dict]:
    return [run_point(n_shards=n, span=span, partitions=partitions,
                      supersteps=supersteps, seed=seed)
            for n in shards]


def smoke_check(seed: int = 0) -> list[dict]:
    """CI mode: one tiny point; ``run_point`` asserts match-once."""
    rows = sweep(shards=(2,), span=8, partitions=4, supersteps=2, seed=seed)
    for r in rows:
        if r["amortization"] is None or r["amortization"] <= 0:
            raise SystemExit(f"{r['point']}: missing amortization ratio")
    return rows


def main(argv: list[str] | None = None) -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny point + match-once check; no ratio gate")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--span", type=int, default=8,
                    help="spanning tenant rank count (= ring channels)")
    ap.add_argument("--partitions", type=int, default=128,
                    help="partitions per channel (re-fires per match)")
    ap.add_argument("--supersteps", type=int, default=4,
                    help="channel epochs per point")
    ap.add_argument("--shards", default="2,4",
                    help="comma-separated shard counts")
    args = ap.parse_args(argv)

    if args.smoke:
        partitioned_table(smoke_check(seed=args.seed),
                          title="Partitioned smoke").show()
        print("match-once accounting: ok")
        return

    rows = sweep(shards=tuple(int(s) for s in args.shards.split(",")),
                 span=args.span, partitions=args.partitions,
                 supersteps=args.supersteps, seed=args.seed)
    worst = min(r["amortization"] for r in rows
                if r["amortization"] is not None)
    if worst < MIN_AMORTIZATION:
        raise SystemExit(
            f"amortization gate failed: worst point {worst:.2f}x < "
            f"{MIN_AMORTIZATION:.1f}x (partitioned re-fires are not "
            f"amortizing their binding match)")
    write_result("partitioned_amortization", partitioned_table(rows).show())


if __name__ == "__main__":
    main()
