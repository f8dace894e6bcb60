"""Design Forward suite models: AMG, MiniDFT, MiniFE, PARTISN, SNAP.

Each model reproduces the Table-I-relevant behaviour of its mini-app:

=========  =======  =====  ========  =============================
app        src-wc   comms  peers     tags
=========  =======  =====  ========  =============================
AMG        no       1      ~79       < 4
MiniDFT    **yes**  7      group     thousands
MiniFE     **yes**  1      ~6        < 4
PARTISN    no       1      2-4       thousands (wavefront stages)
SNAP       no       1      2-4       tens
=========  =======  =====  ========  =============================
"""

from __future__ import annotations

import numpy as np

from ..events import KIND_POST, KIND_SEND
from .base import (AppModel, TraceBuilder, grid_neighbors, pair_array,
                   random_neighbors)

__all__ = ["AMG", "MiniDFT", "MiniFE", "PARTISN", "SNAP"]


class AMG(AppModel):
    """Algebraic multigrid V-cycles.

    Communication grows with grid coarsening: fine levels talk to the
    6-face halo, coarse levels to geometrically distant ranks, so the
    *union* of peers across the cycle is large (~79 in the paper's
    trace) while the tag space stays tiny.
    """

    name = "df_amg"
    full_name = "Design Forward AMG"
    suite = "designforward"
    description = "V-cycle halo exchanges with level-growing neighbor sets"
    default_ranks = 128
    default_steps = 2

    #: random-graph degree parameter per level, fine -> coarse (after
    #: symmetrization the union of peers lands near the paper's ~79 at
    #: 128 ranks)
    LEVEL_DEGREES = (4, 6, 10, 15, 22)

    def build(self, b: TraceBuilder, n_ranks: int, steps: int,
              rng: np.random.Generator) -> None:
        level_nbrs = [random_neighbors(n_ranks, k, rng)
                      for k in self.LEVEL_DEGREES]
        # fine level is the true grid halo, not random
        level_nbrs[0] = grid_neighbors(n_ranks, ndim=3, corners=False)
        level_pairs = [pair_array(nbrs) for nbrs in level_nbrs]
        for _step in range(steps):
            # down-sweep then up-sweep of the V-cycle
            for level in list(range(len(level_pairs))) \
                    + list(reversed(range(len(level_pairs) - 1))):
                b.exchange(level_pairs[level],
                           tag_of=lambda s, d, k, lv=level: lv % 3,
                           prepost_fraction=0.6, rng=rng)
            b.barrier(n_ranks)


class MiniDFT(AppModel):
    """Plane-wave DFT: dense transposes inside band groups.

    Seven communicators partition the ranks (band / plane / pool groups);
    traffic is all-to-all within a group with a fresh tag per transpose
    slice, so the tag space reaches thousands.  Some receives use
    MPI_ANY_SOURCE (one of only two analyzed apps that do).
    """

    name = "df_minidft"
    full_name = "Design Forward MiniDFT"
    suite = "designforward"
    description = "grouped all-to-all transposes, per-slice tags"
    uses_src_wildcard = True
    n_communicators = 7
    default_ranks = 56
    default_steps = 8

    GROUP_SIZE = 8

    def build(self, b: TraceBuilder, n_ranks: int, steps: int,
              rng: np.random.Generator) -> None:
        groups = [range(g, min(g + self.GROUP_SIZE, n_ranks))
                  for g in range(0, n_ranks, self.GROUP_SIZE)]
        # all ordered pairs within each group
        group_pairs = []
        for group in groups:
            size = len(group)
            others = [[d for d in range(size) if d != s] for s in range(size)]
            group_pairs.append(pair_array(others) + group.start)
        tag_counter = 0
        for step in range(steps):
            for gi, (group, pairs) in enumerate(zip(groups, group_pairs)):
                comm = gi % self.n_communicators
                base = tag_counter
                b.exchange(
                    pairs,
                    tag_of=lambda s, d, k, _b=base: (_b + s * 7 + d) % 60000,
                    comm_of=lambda s, d, k, c=comm: c,
                    prepost_fraction=0.5,
                    wildcard_src_fraction=0.15,
                    rng=rng)
                tag_counter += len(group) * 8
            b.barrier(n_ranks)


class MiniFE(AppModel):
    """Unstructured implicit FE (CG solve): 6-face halo, one dot-product
    gather with MPI_ANY_SOURCE per iteration, fewer than 4 tags."""

    name = "df_minife"
    full_name = "Design Forward MiniFE"
    suite = "designforward"
    description = "CG halo exchange + wildcard reduction gathers"
    uses_src_wildcard = True
    default_ranks = 64
    default_steps = 12

    def build(self, b: TraceBuilder, n_ranks: int, steps: int,
              rng: np.random.Generator) -> None:
        halo = pair_array(grid_neighbors(n_ranks, ndim=3, corners=False))
        others = n_ranks - 1
        for _step in range(steps):
            b.exchange(halo, tag_of=lambda s, d, k: 0,
                       prepost_fraction=0.75, rng=rng)
            # convergence check: contributions gathered at rank 0 with
            # ANY_SOURCE, but only every few iterations so rank 0 does
            # not dominate the traffic distribution.  Every other rank
            # sends, then rank 0 posts one wildcard receive per sender.
            if _step % 4 == 0:
                b.block(np.repeat([KIND_SEND, KIND_POST], others),
                        rank=np.r_[1:n_ranks, [0] * others],
                        peer=np.repeat([0, -1], others), tag=1,
                        nbytes=np.repeat([8, 0], others))
            b.barrier(n_ranks)


class PARTISN(AppModel):
    """S_N transport sweep (KBA): 2-D pipeline with a distinct tag per
    (angle octant, z-plane) wavefront stage -> thousands of tags.
    Downstream ranks see the wavefront arrive before they post."""

    name = "df_partisn"
    full_name = "Design Forward PARTISN"
    suite = "designforward"
    description = "KBA sweep pipeline, per-stage tags, late posting"
    default_ranks = 64
    default_steps = 4

    OCTANTS = 8
    PLANES = 32

    def build(self, b: TraceBuilder, n_ranks: int, steps: int,
              rng: np.random.Generator) -> None:
        nbrs = grid_neighbors(n_ranks, ndim=2, corners=False)
        pairs = pair_array([mine[:2] for mine in nbrs])
        for step in range(steps):
            for octant in range(self.OCTANTS):
                for plane in range(self.PLANES):
                    tag = ((step * self.OCTANTS + octant) * self.PLANES
                           + plane) % 60000
                    b.exchange(pairs, tag_of=lambda s, d, k, t=tag: t,
                               prepost_fraction=0.3, rng=rng)
            b.barrier(n_ranks)


class SNAP(AppModel):
    """SN Application Proxy: PARTISN-like sweep but with tags reused per
    octant (tens of tags, not thousands)."""

    name = "df_snap"
    full_name = "Design Forward SNAP"
    suite = "designforward"
    description = "KBA sweep with octant-level tag reuse"
    default_ranks = 64
    default_steps = 6

    OCTANTS = 8

    def build(self, b: TraceBuilder, n_ranks: int, steps: int,
              rng: np.random.Generator) -> None:
        nbrs = grid_neighbors(n_ranks, ndim=2, corners=False)
        pairs = pair_array([mine[:2] for mine in nbrs])
        for _step in range(steps):
            for octant in range(self.OCTANTS):
                b.exchange(pairs, tag_of=lambda s, d, k, o=octant: o,
                           msgs_per_pair=4, prepost_fraction=0.5, rng=rng)
            b.barrier(n_ranks)
