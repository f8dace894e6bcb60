"""AMR suite model: Boxlib.

Adaptive mesh refinement regrids between steps, so the neighbor sets
drift over time and are size-skewed (ranks owning refined regions talk
to many more peers).  Section VI-A singles Boxlib out, together with
Nekbone, for its irregular rank-usage distribution -- the case that
unbalances statically partitioned queues.
"""

from __future__ import annotations

import numpy as np

from .base import AppModel, TraceBuilder, pair_array, skewed_neighbors

__all__ = ["Boxlib"]


class Boxlib(AppModel):
    """Block-structured AMR: drifting, skewed halo exchanges."""

    name = "amr_boxlib"
    full_name = "AMR Boxlib"
    suite = "amr"
    description = "regridding halo exchange with skewed peer degrees"
    default_ranks = 48
    default_steps = 8

    #: steps between regrids (neighbor-set reshuffles)
    REGRID_EVERY = 3

    def build(self, b: TraceBuilder, n_ranks: int, steps: int,
              rng: np.random.Generator) -> None:
        for step in range(steps):
            if step % self.REGRID_EVERY == 0:
                pairs = pair_array(skewed_neighbors(
                    n_ranks, k_min=3, k_max=40, rng=rng, hot_fraction=0.08))
            # tag identifies the fine/coarse level pair plus a phase bit
            b.exchange(pairs,
                       tag_of=lambda s, d, k, st=step: (st % 4) * 8 + k % 8,
                       msgs_per_pair=2, prepost_fraction=0.5, rng=rng)
            b.barrier(n_ranks)
