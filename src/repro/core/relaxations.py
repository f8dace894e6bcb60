"""Relaxation sets: which MPI matching guarantees are kept (Section VI).

The paper starts from full MPI semantics and relaxes three guarantees:

1. **source wildcard** (``MPI_ANY_SOURCE``) -- dropping it enables static
   rank partitioning into parallel queues;
2. **unexpected messages** -- requiring receives to be pre-posted removes
   fruitless PRQ traversals and the compaction pass;
3. **ordering** (non-overtaking) -- dropping it (together with wildcards)
   enables hash tables with O(1) insert/lookup.

:class:`RelaxationSet` names a point in that lattice;
:data:`TABLE_II_CONFIGS` enumerates the six rows of the paper's Table II.

**Demotion lattice.**  A workload that uses a prohibited feature at
runtime can either be rejected (:class:`WorkloadViolation`, the default)
or *demoted*: moved to the weakest relaxation point that still permits
the observed feature, which selects the strongest matcher that remains
correct -- hash -> partitioned -> matrix, with the unexpected-message
axis orthogonal:

* a **wildcard** under a no-wildcard config forces ``wildcards=True``,
  which (wildcards imply ordering) lands on the matrix matcher;
* an **unexpected message** under a pre-posted config flips
  ``unexpected=True`` and keeps the matcher family (it only re-enables
  compaction);
* requiring **ordering** on an unordered config flips ``ordering=True``
  and lands on the partitioned matcher (wildcards stay prohibited).

The ``demoted_for_*`` methods compute those minimal moves; the engine
applies them (see
:attr:`repro.core.engine.MatchingEngine.demote_on_violation`).
"""

from __future__ import annotations

from dataclasses import dataclass

from .envelope import EnvelopeBatch

__all__ = ["RelaxationSet", "TABLE_II_CONFIGS", "WorkloadViolation"]


class WorkloadViolation(ValueError):
    """A workload uses a feature the active relaxation set prohibits."""


@dataclass(frozen=True)
class RelaxationSet:
    """Which guarantees the matching engine must honour.

    Attributes
    ----------
    wildcards:
        ``MPI_ANY_SOURCE`` / ``MPI_ANY_TAG`` permitted.  (The paper
        relaxes both together; Table II has a single "Wildcards" column.)
    ordering:
        MPI non-overtaking order guaranteed.
    unexpected:
        Messages may arrive before their receive is posted.
    """

    wildcards: bool = True
    ordering: bool = True
    unexpected: bool = True

    def __post_init__(self) -> None:
        if not self.ordering and self.wildcards:
            raise ValueError(
                "the unordered (hash) design point prohibits wildcards; "
                "RelaxationSet(wildcards=True, ordering=False) is not a "
                "Table II configuration")

    # -- classification ------------------------------------------------------------

    @property
    def partitionable(self) -> bool:
        """Can the rank space be split into parallel queues?

        True exactly when the source wildcard is prohibited (the "Part."
        column of Table II).
        """
        return not self.wildcards

    @property
    def data_structure(self) -> str:
        """Table II's "Data structure" column: matrix or hash table."""
        return "matrix" if self.ordering else "hash"

    @property
    def needs_compaction(self) -> bool:
        """Compaction is only needed when unexpected messages leave holes."""
        return self.unexpected

    @property
    def mpi_compliant(self) -> bool:
        """The fully-guaranteed starting point (Table II row 1)."""
        return self.wildcards and self.ordering and self.unexpected

    @property
    def user_implication(self) -> str:
        """Table II's qualitative "User implication" column."""
        if not self.ordering:
            return "high"
        if not self.unexpected:
            return "medium"
        if not self.wildcards:
            return "low"
        return "none"

    def label(self) -> str:
        """Compact identifier, e.g. ``wc+ord+unexp`` or ``noword``."""
        parts = [
            "wc" if self.wildcards else "nowc",
            "ord" if self.ordering else "noord",
            "unexp" if self.unexpected else "pre",
        ]
        return "+".join(parts)

    @classmethod
    def from_label(cls, label: str) -> "RelaxationSet":
        """Inverse of :meth:`label`.

        >>> RelaxationSet.from_label("nowc+noord+unexp")
        RelaxationSet(wildcards=False, ordering=False, unexpected=True)
        """
        parts = label.split("+")
        if len(parts) != 3:
            raise ValueError(f"malformed relaxation label {label!r}")
        wc, order, unexp = parts
        if wc not in ("wc", "nowc") or order not in ("ord", "noord") \
                or unexp not in ("unexp", "pre"):
            raise ValueError(f"malformed relaxation label {label!r}")
        return cls(wildcards=wc == "wc", ordering=order == "ord",
                   unexpected=unexp == "unexp")

    # -- demotion lattice -------------------------------------------------------------

    def demoted_for_wildcards(self) -> "RelaxationSet":
        """Minimal demotion admitting a wildcard request.

        Wildcards force the single-queue matrix design point (partitioning
        and hashing both require knowing the source), so ordering comes
        back with them.
        """
        return RelaxationSet(wildcards=True, ordering=True,
                             unexpected=self.unexpected)

    def demoted_for_unexpected(self) -> "RelaxationSet":
        """Minimal demotion admitting unexpected messages (re-enables
        compaction; the matcher family is unchanged)."""
        return RelaxationSet(wildcards=self.wildcards,
                             ordering=self.ordering, unexpected=True)

    def demoted_for_ordering(self) -> "RelaxationSet":
        """Minimal demotion restoring the non-overtaking guarantee
        (hash -> partitioned: wildcards stay prohibited)."""
        return RelaxationSet(wildcards=self.wildcards, ordering=True,
                             unexpected=self.unexpected)

    # -- workload validation ----------------------------------------------------------

    def validate_requests(self, requests: EnvelopeBatch) -> None:
        """Reject request batches that use prohibited features."""
        if not self.wildcards and requests.has_wildcards:
            raise WorkloadViolation(
                f"relaxation {self.label()} prohibits wildcards but the "
                "request batch contains MPI_ANY_SOURCE/MPI_ANY_TAG")

    def validate_unexpected(self, n_unexpected: int) -> None:
        """Reject unexpected messages when the relaxation prohibits them."""
        if not self.unexpected and n_unexpected > 0:
            raise WorkloadViolation(
                f"relaxation {self.label()} requires pre-posted receives "
                f"but {n_unexpected} messages arrived unexpected")


#: The six configurations of Table II, top to bottom.
TABLE_II_CONFIGS: tuple[RelaxationSet, ...] = (
    RelaxationSet(wildcards=True, ordering=True, unexpected=True),
    RelaxationSet(wildcards=True, ordering=True, unexpected=False),
    RelaxationSet(wildcards=False, ordering=True, unexpected=True),
    RelaxationSet(wildcards=False, ordering=True, unexpected=False),
    RelaxationSet(wildcards=False, ordering=False, unexpected=True),
    RelaxationSet(wildcards=False, ordering=False, unexpected=False),
)
