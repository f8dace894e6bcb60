"""Autotuned engine selection: walking the Table II lattice online.

Table II's three usable design points form a promotion lattice:

====================  =====================  =======================
rank 0 (slowest)      rank 1 (~10x)          rank 2 (~80x)
``wc+ord+unexp``      ``nowc+ord+unexp``     ``nowc+noord+unexp``
matrix matcher        partitioned matcher    two-level hash table
====================  =====================  =======================

The autotuner maps a tenant's live :class:`~repro.serve.profiler.WorkloadProfile`
to the highest rank that is still *correct* for the observed stream:

* any wildcard in the window pins the tenant at the matrix point
  (partitioning and hashing both need concrete sources);
* a wildcard-free window earns the partitioned point;
* the hash point additionally requires the tenant to have *declared*
  ``ordering_required=False`` (ordering need is a semantic contract,
  not an observable) and a hash-friendly tuple distribution (Figure
  6(a): dominant duplicate tuples ruin probe chains).

**Hysteresis.**  Promotions need ``promote_after`` consecutive windows
agreeing on the same higher target before the engine is rebuilt --
otherwise a tenant oscillating around a watermark would thrash rebuilds.
Demotions apply immediately (correctness cannot wait), mirroring the
engine's own graceful-degradation path.

Every transition is recorded as a :class:`RetuneEvent` and charged one
dynamic-parallelism child-kernel relaunch
(:data:`~repro.core.adaptive.RELAUNCH_OVERHEAD_CYCLES`) against the
tenant's next outcome -- the same cost model the adaptive planner and
the engine's demotion path use.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.adaptive import RELAUNCH_OVERHEAD_CYCLES, relaunch_seconds
from ..core.relaxations import RelaxationSet
from ..simt.gpu import GPUSpec, PASCAL_GTX1080
from .messages import TenantSpec
from .profiler import DOMINANCE_LIMIT, WorkloadProfile

__all__ = ["LATTICE", "RetuneEvent", "Autotuner", "lattice_rank"]

#: The promotion lattice, slowest (safest) first.
LATTICE: tuple[RelaxationSet, ...] = (
    RelaxationSet(wildcards=True, ordering=True, unexpected=True),
    RelaxationSet(wildcards=False, ordering=True, unexpected=True),
    RelaxationSet(wildcards=False, ordering=False, unexpected=True),
)


def lattice_rank(rel: RelaxationSet) -> int:
    """Position of a relaxation set on the promotion lattice.

    Only the wildcard/ordering axes place a config on the serve lattice;
    the unexpected axis is orthogonal (the serve layer always admits
    unexpected messages, since batch boundaries make them unavoidable).
    """
    if rel.wildcards:
        return 0
    if rel.ordering:
        return 1
    return 2


@dataclass(frozen=True)
class RetuneEvent:
    """One autotuner-driven engine rebuild."""

    tenant: str
    vt: float
    from_label: str
    to_label: str
    direction: str          # "promote" | "demote"
    reason: str
    extra_cycles: float = RELAUNCH_OVERHEAD_CYCLES
    extra_seconds: float = 0.0


class Autotuner:
    """Per-tenant lattice walker with promotion hysteresis.

    Parameters
    ----------
    spec:
        The tenant's declared contract (ordering requirement, autotune
        enable).
    gpu:
        Device spec, for costing rebuilds in simulated seconds.
    promote_after:
        Consecutive agreeing windows required before a promotion.
    """

    def __init__(self, spec: TenantSpec, gpu: GPUSpec = PASCAL_GTX1080,
                 promote_after: int = 3) -> None:
        if promote_after < 1:
            raise ValueError("promote_after must be >= 1")
        self.spec = spec
        self.gpu = gpu
        self.promote_after = promote_after
        self._streak_target: int | None = None
        self._streak = 0
        self.events: list[RetuneEvent] = []

    # -- policy -------------------------------------------------------------------

    def target_rank(self, profile: WorkloadProfile) -> int:
        """Highest lattice rank the observed window permits."""
        if profile.uses_wildcards:
            return 0
        if self.spec.partitioned:
            # match-once/fire-many cost model: a channel binding is
            # matched once per epoch and amortized over many re-fires,
            # so the hash path's per-match speedup buys almost nothing
            # -- and the re-fire streams' tiny tuple cardinality sits
            # right on the dominance gate, which would oscillate the
            # walk.  Pin at the partitioned point.
            return 1
        if self.spec.ordering_required:
            return 1
        if not profile.hash_friendly:
            return 1
        return 2

    def _reason(self, rank: int, profile: WorkloadProfile) -> str:
        if rank == 0:
            return (f"wildcards in window "
                    f"({profile.wildcard_fraction:.0%} of requests)")
        if rank == 1:
            if self.spec.partitioned:
                return ("wildcard-free window; partitioned stream pinned "
                        "at the match-once point (matches amortized over "
                        "re-fires; tiny tuple cardinality would oscillate "
                        "the hash gate)")
            if self.spec.ordering_required:
                return "wildcard-free window; ordering required by contract"
            return (f"wildcard-free window; dominant tuple carries "
                    f"{profile.dominant_tuple_fraction:.0%} of messages "
                    f"(hash needs < {DOMINANCE_LIMIT:.0%})")
        return "wildcard-free, unordered-tolerant, hash-friendly window"

    # -- decision -----------------------------------------------------------------

    def consider(self, current: RelaxationSet, profile: WorkloadProfile,
                 now_vt: float) -> RelaxationSet | None:
        """Decide whether to retune away from ``current`` after a flush.

        Returns the new relaxation set (recording the
        :class:`RetuneEvent`), or ``None`` to stay put.  Demotions are
        immediate; promotions wait out the hysteresis streak.
        """
        if not self.spec.autotune:
            return None
        cur_rank = lattice_rank(current)
        tgt_rank = self.target_rank(profile)
        if tgt_rank == cur_rank:
            self._streak_target = None
            self._streak = 0
            return None
        if tgt_rank < cur_rank:
            # correctness demotion: apply now, reset hysteresis
            self._streak_target = None
            self._streak = 0
            return self._move(current, tgt_rank, "demote", profile, now_vt)
        # promotion: require promote_after consecutive agreeing windows
        if self._streak_target == tgt_rank:
            self._streak += 1
        else:
            self._streak_target = tgt_rank
            self._streak = 1
        if self._streak < self.promote_after:
            return None
        self._streak_target = None
        self._streak = 0
        return self._move(current, tgt_rank, "promote", profile, now_vt)

    def _move(self, current: RelaxationSet, rank: int, direction: str,
              profile: WorkloadProfile, now_vt: float) -> RelaxationSet:
        new = LATTICE[rank]
        self.events.append(RetuneEvent(
            tenant=self.spec.name, vt=now_vt,
            from_label=current.label(), to_label=new.label(),
            direction=direction, reason=self._reason(rank, profile),
            extra_seconds=relaunch_seconds(self.gpu)))
        return new

    # -- snapshot format ----------------------------------------------------------

    def export_state(self) -> dict:
        """Hysteresis position + retune history for the snapshot format.

        The hysteresis streak is the part that *must* survive a restore:
        dropping it would make a recovered tenant re-earn its promotion
        streak, diverging from the uninterrupted run.
        """
        return {"streak_target": self._streak_target,
                "streak": self._streak,
                "promote_after": self.promote_after,
                "events": list(self.events)}

    def restore_state(self, state: dict) -> None:
        """Inverse of :meth:`export_state` (spec/gpu rebuilt separately)."""
        self._streak_target = state["streak_target"]
        self._streak = int(state["streak"])
        self.promote_after = int(state["promote_after"])
        self.events = list(state["events"])

    def record_external_demotion(self, from_label: str, to_label: str,
                                 reason: str, now_vt: float) -> None:
        """Mirror a demotion the engine performed itself (mid-match
        graceful degradation) into the retune log, and reset hysteresis.

        The relaunch cost of an engine-side demotion is already charged
        by the engine, so the mirrored event carries zero extra cost.
        """
        self._streak_target = None
        self._streak = 0
        self.events.append(RetuneEvent(
            tenant=self.spec.name, vt=now_vt,
            from_label=from_label, to_label=to_label,
            direction="demote", reason=f"engine demotion: {reason}",
            extra_cycles=0.0, extra_seconds=0.0))
