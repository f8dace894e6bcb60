"""EXMATEX suite models: LULESH and CMC.

LULESH is the paper's example of an application that already fits the
"no unexpected messages" relaxation: it "already posts the vast majority
of receive requests in advance" (Section VII-B).
"""

from __future__ import annotations

import numpy as np

from .base import (AppModel, TraceBuilder, grid_neighbors, pair_array,
                   random_neighbors)

__all__ = ["LULESH", "CMC"]


class LULESH(AppModel):
    """Shock hydrodynamics on a 3-D unstructured hex mesh.

    Full 26-neighbor Moore halo, three tag values (one per exchanged
    field group), and a high pre-posting fraction.
    """

    name = "exmatex_lulesh"
    full_name = "EXMATEX LULESH"
    suite = "exmatex"
    description = "26-neighbor halo, 3 tags, receives pre-posted"
    default_ranks = 64
    default_steps = 12

    PREPOST = 0.92

    def build(self, b: TraceBuilder, n_ranks: int, steps: int,
              rng: np.random.Generator) -> None:
        pairs = pair_array(grid_neighbors(n_ranks, ndim=3, corners=True))
        for _step in range(steps):
            for field_tag in range(3):
                b.exchange(pairs, tag_of=lambda s, d, k, t=field_tag: t,
                           prepost_fraction=self.PREPOST, rng=rng)
            b.barrier(n_ranks)


class CMC(AppModel):
    """Coarse-grained Monte Carlo: particles hop to random neighbor
    domains; a small random peer set per step, few tags."""

    name = "exmatex_cmc"
    full_name = "EXMATEX CMC"
    suite = "exmatex"
    description = "Monte Carlo particle migration to random peers"
    default_ranks = 32
    default_steps = 10

    def build(self, b: TraceBuilder, n_ranks: int, steps: int,
              rng: np.random.Generator) -> None:
        nbrs = random_neighbors(n_ranks, 8, rng)
        for _step in range(steps):
            pairs = pair_array([rng.choice(mine, size=min(4, len(mine)),
                                           replace=False) for mine in nbrs])
            b.exchange(pairs, tag_of=lambda s, d, k: k % 2,
                       msgs_per_pair=2, prepost_fraction=0.55, rng=rng)
            b.barrier(n_ranks)
