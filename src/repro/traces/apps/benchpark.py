"""Benchpark suite models: AMG2023, Kripke, Laghos.

Modern LLNL proxy/benchmark apps whose communication patterns Nansamba
et al. (PAPERS.md) characterize with Caliper/Benchpark pattern analysis.
They are qualitatively different from the paper's 2017-era Table I
traces: *huge per-pair message counts over a tiny tuple cardinality* --
a handful of ``(src, tag, comm)`` shapes repeated thousands of times.
That is precisely the regime MPI-4 partitioned communication targets
(match once, re-fire many) and the regime that should pin, not
oscillate, the autotuner's Table II lattice walk.

Each model also carries a *phase structure* in ``trace.meta["phases"]``.
Like Caliper's phase regions, the marks are made once per run, on the
:class:`~.base.TraceBuilder` (:meth:`~.base.TraceBuilder.phase`), and
the builder maps them onto the rows it keeps: event-index ranges into
the trace as generated, so a rank-projected trace's phases index its
own rows.  :func:`pattern_summary` renders the Caliper-style per-phase
pattern report the Benchpark thicket analyses produce.
"""

from __future__ import annotations

import numpy as np

from ..events import KIND_POST, KIND_SEND, Trace
from .base import (AppModel, TraceBuilder, grid_dims, pair_array,
                   random_neighbors)

__all__ = ["AMG2023", "Kripke", "Laghos", "pattern_summary"]


class AMG2023(AppModel):
    """Algebraic multigrid (hypre BoomerAMG): setup vs solve phases.

    Setup coarsens the operator level by level -- each coarser level has
    fewer active ranks talking to *more* peers (coarse-grid stencils
    densify), an irregular one-shot pattern.  Solve then runs many
    V-cycles over the fixed hierarchy: the same tiny set of per-level
    halo shapes (tag = level) re-fired every cycle, down-and-up.  The
    solve phase dominates message count by an order of magnitude while
    adding **zero** new tuple shapes -- the match-once/fire-many
    signature.
    """

    name = "bp_amg2023"
    full_name = "AMG2023 (hypre)"
    suite = "benchpark"
    description = ("multigrid hierarchy: irregular setup coarsening, then "
                   "V-cycle halo re-fires per level (tag = level)")
    default_ranks = 32
    default_steps = 10

    N_LEVELS = 4

    def _level_pairs(self, n_ranks: int,
                     rng: np.random.Generator) -> list[np.ndarray]:
        """Per-level directed halo pairs: each coarser level keeps every
        4th rank of the finer one and densifies its stencil."""
        levels = []
        active = np.arange(n_ranks)
        k = 3
        for _ in range(self.N_LEVELS):
            if len(active) < 2:
                break
            nbrs = random_neighbors(len(active), k=min(k, len(active) - 1),
                                    rng=rng)
            levels.append(active[pair_array(nbrs)])
            active = active[::4]
            k *= 2
        return levels

    def build(self, b: TraceBuilder, n_ranks: int, steps: int,
              rng: np.random.Generator) -> None:
        levels = self._level_pairs(n_ranks, rng)
        # -- setup: one coarsening pass, a couple of exchanges per level
        # (strength-of-connection + interpolation), modest counts
        b.phase("setup")
        for lvl, pairs in enumerate(levels):
            b.exchange(pairs, tag_of=lambda s, d, k, L=lvl: L,
                       msgs_per_pair=2, prepost_fraction=0.7, rng=rng)
            b.barrier(n_ranks)
        # -- solve: `steps` V-cycles over the fixed hierarchy; each
        # cycle visits every level twice (down + up) with many small
        # halo messages per visit -- the re-fire phase
        b.phase("solve")
        for _cycle in range(steps):
            walk = list(range(len(levels))) + \
                list(range(len(levels) - 1, -1, -1))
            for lvl in walk:
                b.exchange(levels[lvl], tag_of=lambda s, d, k, L=lvl: L,
                           msgs_per_pair=4, prepost_fraction=1.0, rng=rng)
            b.barrier(n_ranks)


class Kripke(AppModel):
    """Deterministic Sn transport: KBA sweep pipelining.

    Eight octant sweeps over a 2-D process decomposition: each octant is
    a wavefront from one grid corner, every rank forwarding to at most
    two downstream neighbors.  With many group/zone-set chunks pipelined
    per sweep, the per-pair message count is enormous while the tuple
    cardinality is tiny -- one tag per octant, at most 4 distinct
    neighbors per rank.  The stress case for per-message match cost.
    """

    name = "bp_kripke"
    full_name = "Kripke (Sn transport)"
    suite = "benchpark"
    description = ("8-octant KBA sweep wavefronts, pipelined chunks: "
                   "huge per-pair counts, one tag per octant")
    default_ranks = 32
    default_steps = 4

    #: pipelined group x zone-set chunks per octant sweep
    CHUNKS = 12

    def build(self, b: TraceBuilder, n_ranks: int, steps: int,
              rng: np.random.Generator) -> None:
        px, py = grid_dims(n_ranks, 2)
        index = {(r // py, r % py): r for r in range(n_ranks)}
        # downstream edges of each octant's wavefront, one set per octant
        octant_pairs = [
            pair_array([[index[c] for c in ((x + dx, y), (x, y + dy))
                         if c in index] for x, y in index])
            for dx, dy in [(sx, sy) for sx in (1, -1) for sy in (1, -1)] * 2]
        b.phase("sweep")
        for _it in range(steps):
            for octant, pairs in enumerate(octant_pairs):
                b.exchange(pairs, tag_of=lambda s, d, k, o=octant: o,
                           msgs_per_pair=self.CHUNKS,
                           prepost_fraction=1.0, rng=rng)
            b.barrier(n_ranks)


class Laghos(AppModel):
    """High-order Lagrangian hydrodynamics: unstructured halo exchange.

    The mesh decomposition is irregular but *fixed* for the whole run
    (no regridding, unlike Boxlib): every step exchanges force then
    velocity data over the same neighbor sets, one tag per kind.  Two
    tags total, stable peers, counts growing linearly with steps -- a
    re-fire workload over an unstructured topology
    (:class:`~repro.mpi.topology.DistGraph` shaped).
    """

    name = "bp_laghos"
    full_name = "Laghos (Lagrangian hydro)"
    suite = "benchpark"
    description = ("fixed irregular halo, force+velocity exchange per "
                   "step, one tag per kind")
    default_ranks = 32
    default_steps = 10

    TAG_FORCE = 0
    TAG_VELOCITY = 1

    def build(self, b: TraceBuilder, n_ranks: int, steps: int,
              rng: np.random.Generator) -> None:
        pairs = pair_array(random_neighbors(n_ranks, k=5, rng=rng))
        b.phase("timestep")
        for _step in range(steps):
            b.exchange(pairs,
                       tag_of=lambda s, d, k: self.TAG_FORCE,
                       msgs_per_pair=2, prepost_fraction=1.0, rng=rng,
                       nbytes=64)
            b.exchange(pairs,
                       tag_of=lambda s, d, k: self.TAG_VELOCITY,
                       msgs_per_pair=1, prepost_fraction=1.0, rng=rng,
                       nbytes=64)
            b.barrier(n_ranks)


def pattern_summary(trace: Trace) -> dict:
    """Caliper/Benchpark-style communication-pattern report.

    Per phase (falling back to one ``all`` phase when the trace carries
    no phase marks): message and post counts, distinct ``(src, tag,
    comm)`` tuple cardinality, messages per tuple, per-pair statistics,
    and peer degrees -- the quantities Nansamba et al. tabulate from
    Caliper traces to classify proxy-app patterns.
    """
    phases = (trace.meta or {}).get("phases") or {"all": (0, len(trace))}
    cols = trace.columns
    out: dict = {"app": trace.app, "n_ranks": trace.n_ranks, "phases": {}}
    for name, (lo, hi) in phases.items():
        kind = cols["kind"][lo:hi]
        send = kind == KIND_SEND
        rank, peer, tag, comm = (cols[c][lo:hi][send]
                                 for c in ("rank", "peer", "tag", "comm"))
        n_sends = int(rank.size)
        _, counts = np.unique(np.stack([rank, tag, comm], axis=1), axis=0,
                              return_counts=True)
        pairs, pair_counts = np.unique(np.stack([rank, peer], axis=1),
                                       axis=0, return_counts=True)
        # distinct peers per sending rank = unique pairs per source
        _, degree = np.unique(pairs[:, 0], return_counts=True)
        out["phases"][name] = {
            "sends": n_sends,
            "posts": int(np.count_nonzero(kind == KIND_POST)),
            "tuple_cardinality": int(counts.size),
            "msgs_per_tuple_mean": (n_sends / counts.size
                                    if counts.size else 0.0),
            "dominant_tuple_fraction": (int(counts.max()) / n_sends
                                        if n_sends else 0.0),
            "pairs": int(pair_counts.size),
            "msgs_per_pair_mean": (float(pair_counts.mean())
                                   if pair_counts.size else 0.0),
            "msgs_per_pair_max": (int(pair_counts.max())
                                  if pair_counts.size else 0),
            "peers_mean": float(degree.mean()) if degree.size else 0.0,
            "peers_max": int(degree.max()) if degree.size else 0,
        }
    return out
