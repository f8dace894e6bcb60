"""EXACT suite models: CNS and MultiGrid.

CNS spreads its messages across the widest peer set of the analyzed apps
(~72 peers, Table I).  MultiGrid is the second long-queue outlier of
Figure 2: per-rank maximum UMQ depth with **mean ~2,000 and median
~1,500** across ranks.
"""

from __future__ import annotations

import numpy as np

from .base import (AppModel, TraceBuilder, gather_flood, grid_neighbors,
                   pair_array, random_neighbors)

__all__ = ["CNS", "MultiGrid"]


class CNS(AppModel):
    """Compressible Navier-Stokes with deep ghost zones.

    The high-order stencil reaches past face neighbors: the effective
    exchange partner set is ~72 ranks, still only a fraction of the job
    size ("this is still only a fraction of the total number of ranks").
    """

    name = "exact_cns"
    full_name = "EXACT CNS"
    suite = "exact"
    description = "wide-stencil ghost exchange (~72 peers)"
    default_ranks = 128
    default_steps = 3

    TARGET_PEERS = 72

    def build(self, b: TraceBuilder, n_ranks: int, steps: int,
              rng: np.random.Generator) -> None:
        # face halo plus a wide random shell approximating the deep
        # stencil; the random graph is symmetrized, roughly doubling its
        # degree parameter, hence the halving
        face = grid_neighbors(n_ranks, ndim=3, corners=True)
        extra = random_neighbors(
            n_ranks, max(1, int((self.TARGET_PEERS - 26) * 0.86)), rng)
        pairs = pair_array([sorted(set(face[r]) | set(extra[r]))
                            for r in range(n_ranks)])
        for _step in range(steps):
            b.exchange(pairs, tag_of=lambda s, d, k: k % 5,
                       prepost_fraction=0.65, rng=rng)
            b.barrier(n_ranks)


class MultiGrid(AppModel):
    """Geometric multigrid with aggressively coarsened bottom levels.

    Restriction funnels contributions toward the ranks that own coarse
    grids before they post their receives, building queue depths of
    ~1,500 on typical ranks and several thousand on the coarse-grid
    owners (mean ~2,000 / median ~1,500 in Figure 2).
    """

    name = "exact_multigrid"
    full_name = "EXACT MultiGrid"
    suite = "exact"
    description = "geometric multigrid; restriction floods coarse owners"
    default_ranks = 16
    default_steps = 2

    HOT_FRACTION = 0.125
    HOT_BURST = 5_500
    REGULAR_BURST = 1_500

    def build(self, b: TraceBuilder, n_ranks: int, steps: int,
              rng: np.random.Generator) -> None:
        n_hot = max(1, int(self.HOT_FRACTION * n_ranks))
        bursts = [self.HOT_BURST if dst < n_hot else self.REGULAR_BURST
                  for dst in range(n_ranks)]
        halo = pair_array(grid_neighbors(n_ranks, ndim=3, corners=False))
        for _step in range(steps):
            # smoother halo: regular, mostly preposted
            b.exchange(halo, tag_of=lambda s, d, k: 0,
                       msgs_per_pair=2, prepost_fraction=0.8, rng=rng)
            # restriction flood toward coarse-grid owners
            gather_flood(b, bursts, tag_of=lambda k: 1 + k % 4)
            b.barrier(n_ranks)
