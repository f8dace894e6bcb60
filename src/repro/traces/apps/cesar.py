"""CESAR suite models: NEKBONE, MOCFE, CrystalRouter.

NEKBONE is one of the paper's two long-queue outliers: per-rank maximum
UMQ depth has a **mean of ~4,000 and a median of ~1,800** across ranks
(Figure 2) -- a heavily right-skewed distribution produced here by a few
"hot" gather ranks that receive an order of magnitude more traffic, which
is also the irregular rank-usage behaviour Section VI-A reports for it.
"""

from __future__ import annotations

import numpy as np

from .base import (AppModel, TraceBuilder, gather_flood, pair_array,
                   ring_neighbors)

__all__ = ["NEKBONE", "MOCFE", "CrystalRouter"]


class NEKBONE(AppModel):
    """Spectral-element CG with gather-scatter.

    Two communicators (solver + gather/scatter).  The gather/scatter
    phase floods a handful of hot ranks with contributions that are only
    consumed after the flood (deep UMQ); regular ranks exchange at a
    moderate, shallower depth.
    """

    name = "cesar_nekbone"
    full_name = "CESAR NEKBONE"
    suite = "cesar"
    description = "spectral-element CG; skewed gather floods, deep queues"
    n_communicators = 2
    default_ranks = 16
    default_steps = 2

    #: fraction of ranks that are hot gather targets
    HOT_FRACTION = 0.125
    #: messages flooding each hot rank per step before it posts
    HOT_BURST = 19_400
    #: flood depth for regular ranks per step
    REGULAR_BURST = 1_800

    def build(self, b: TraceBuilder, n_ranks: int, steps: int,
              rng: np.random.Generator) -> None:
        n_hot = max(1, int(self.HOT_FRACTION * n_ranks))
        bursts = [self.HOT_BURST if dst < n_hot else self.REGULAR_BURST
                  for dst in range(n_ranks)]
        pairs = pair_array(ring_neighbors(n_ranks, hops=4))
        for _step in range(steps):
            # solver halo on communicator 0: moderate, mostly preposted
            b.exchange(pairs, tag_of=lambda s, d, k: k % 3,
                       comm_of=lambda s, d, k: 0,
                       msgs_per_pair=2, prepost_fraction=0.8, rng=rng)
            # gather/scatter flood on communicator 1: sends first, posts
            # after -- this is what builds the deep unexpected queues.
            gather_flood(b, bursts, tag_of=lambda k: k % 7, comm=1)
            b.barrier(n_ranks)


class MOCFE(AppModel):
    """Method-of-characteristics neutronics: angular segment sweeps with
    a distinct tag per (angle, segment) -> thousands of tags across
    ~20 ring peers."""

    name = "cesar_mocfe"
    full_name = "CESAR MOCFE"
    suite = "cesar"
    description = "angle-segment sweeps, per-segment tags"
    default_ranks = 32
    default_steps = 4

    ANGLES = 16
    SEGMENTS = 24

    def build(self, b: TraceBuilder, n_ranks: int, steps: int,
              rng: np.random.Generator) -> None:
        pairs = pair_array([mine[:4]
                            for mine in ring_neighbors(n_ranks, hops=8)])
        for step in range(steps):
            for angle in range(self.ANGLES):
                base = (step * self.ANGLES + angle) * self.SEGMENTS
                # each pair carries a different characteristic segment
                b.exchange(pairs,
                           tag_of=lambda s, d, k, _b=base:
                               (_b + (s * 5 + d * 3) % self.SEGMENTS) % 60000,
                           prepost_fraction=0.4, rng=rng)
            b.barrier(n_ranks)


class CrystalRouter(AppModel):
    """Nek5000's crystal-router exchange: staged hypercube routing.

    log2(P) stages; in stage d every rank trades with its dimension-d
    hypercube partner using the stage number as tag -- few peers, few
    tags, perfectly regular.
    """

    name = "cesar_crystalrouter"
    full_name = "CESAR CrystalRouter"
    suite = "cesar"
    description = "hypercube-staged all-to-all routing"
    default_ranks = 32
    default_steps = 8

    def build(self, b: TraceBuilder, n_ranks: int, steps: int,
              rng: np.random.Generator) -> None:
        n_dims = max(1, int(np.floor(np.log2(n_ranks))))
        # per dimension, every rank whose partner exists trades with it
        dim_pairs = [pair_array([[s ^ (1 << d)] if s ^ (1 << d) < n_ranks
                                 else [] for s in range(n_ranks)])
                     for d in range(n_dims)]
        for _step in range(steps):
            for d, pairs in enumerate(dim_pairs):
                b.exchange(pairs, tag_of=lambda s, dd, k, dim=d: dim,
                           msgs_per_pair=2, prepost_fraction=0.6, rng=rng)
            b.barrier(n_ranks)
