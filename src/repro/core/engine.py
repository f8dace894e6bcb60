"""Matching engine facade: relaxation set -> algorithm/data structure.

:class:`MatchingEngine` is the public entry point of the core library.
Given a :class:`~repro.core.relaxations.RelaxationSet` it selects the
matcher the paper prescribes (Table II):

======================  =========  ==============================
relaxations             structure  matcher
======================  =========  ==============================
wildcards + ordering    matrix     :class:`MatrixMatcher` (1 queue)
no wildcards, ordering  matrix     :class:`PartitionedMatcher`
no ordering             hash       :class:`HashMatcher`
======================  =========  ==============================

with the compaction pass enabled exactly when unexpected messages are
allowed.  Optionally every outcome is cross-checked against the MPI
reference oracle (ordered configurations) or the relaxed validity checker
(unordered).

**Graceful degradation.**  By default a workload that uses a prohibited
feature raises :class:`~repro.core.relaxations.WorkloadViolation`.  With
``demote_on_violation=True`` the engine instead *demotes*: it moves to
the minimal relaxation set that admits the feature (see the demotion
lattice in :mod:`repro.core.relaxations`), rebuilds the matcher
(hash -> partitioned -> matrix direction only), records a
:class:`DemotionEvent`, and charges the reconfiguration as one
dynamic-parallelism child-kernel relaunch -- the same cost model the
adaptive planner uses.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..simt.gpu import GPUSpec, PASCAL_GTX1080
from .adaptive import RELAUNCH_OVERHEAD_CYCLES, relaunch_seconds
from .envelope import EnvelopeBatch
from .hash_matching import HashMatcher, HashTableConfig
from .list_matching import ListMatcher
from .matrix_matching import DEFAULT_WINDOW, MatrixMatcher
from .partitioned import PartitionedMatcher
from .relaxations import RelaxationSet, WorkloadViolation
from .result import MatchOutcome
from .verify import check_mpi_ordering, check_relaxed, reference_match

__all__ = ["MatchingEngine", "DemotionEvent"]


@dataclass(frozen=True)
class DemotionEvent:
    """One graceful-degradation step taken by the engine."""

    from_label: str
    to_label: str
    reason: str
    extra_seconds: float
    extra_cycles: float = RELAUNCH_OVERHEAD_CYCLES


class MatchingEngine:
    """Select and drive the right matcher for a relaxation set.

    Parameters
    ----------
    gpu:
        Simulated device (default Pascal GTX 1080).
    relaxations:
        Guarantee set; defaults to fully MPI-compliant matching.
    n_queues:
        Partition count when the source wildcard is prohibited.
    n_ctas:
        CTA count for the hash matcher.
    window:
        Matrix scan window.
    hash_config:
        Two-level table configuration for the hash matcher.
    verify:
        Cross-check every outcome against the reference semantics (slow;
        intended for tests and debugging).
    demote_on_violation:
        Graceful degradation: instead of raising
        :class:`~repro.core.relaxations.WorkloadViolation` on a runtime
        relaxation violation, demote to the strongest matcher that is
        still correct, record the :class:`DemotionEvent`, and charge the
        rebuild as a kernel relaunch.  Off by default (strict mode).
    obs:
        Optional :class:`~repro.obs.Observability` handle, forwarded to
        the matcher it builds.  ``None`` (default) keeps every hot path
        on the single-branch fast path with bit-identical results.

    Examples
    --------
    >>> from repro import GPU, MatchingEngine, RelaxationSet, EnvelopeBatch
    >>> eng = MatchingEngine(gpu=GPU.pascal_gtx1080(),
    ...                      relaxations=RelaxationSet(wildcards=False,
    ...                                                ordering=False,
    ...                                                unexpected=False))
    >>> msgs = EnvelopeBatch(src=[0, 1], tag=[7, 7])
    >>> reqs = EnvelopeBatch(src=[1, 0], tag=[7, 7])
    >>> eng.match(msgs, reqs).matched_count
    2
    """

    def __init__(self, gpu: GPUSpec = PASCAL_GTX1080,
                 relaxations: RelaxationSet | None = None,
                 n_queues: int = 4, n_ctas: int = 1,
                 window: int = DEFAULT_WINDOW,
                 hash_config: HashTableConfig | None = None,
                 verify: bool = False,
                 demote_on_violation: bool = False,
                 obs=None) -> None:
        self.gpu = gpu
        self.relaxations = (relaxations if relaxations is not None
                            else RelaxationSet())
        self.verify = verify
        self.demote_on_violation = demote_on_violation
        self._obs = obs
        self.demotions: list[DemotionEvent] = []
        self._pending_demotion_seconds = 0.0
        self._pending_demotion_cycles = 0.0
        # kept for matcher rebuilds after a demotion
        self._n_queues = n_queues
        self._n_ctas = n_ctas
        self._window = window
        self._hash_config = hash_config
        self._matcher = self._build_matcher()

    def _build_matcher(self):
        rel = self.relaxations
        compaction = rel.needs_compaction
        if not rel.ordering:
            return HashMatcher(spec=self.gpu, n_ctas=self._n_ctas,
                               config=self._hash_config, obs=self._obs)
        if rel.partitionable:
            return PartitionedMatcher(spec=self.gpu,
                                      n_queues=self._n_queues,
                                      window=self._window,
                                      compaction=compaction,
                                      obs=self._obs)
        return MatrixMatcher(spec=self.gpu, window=self._window,
                             compaction=compaction, obs=self._obs)

    # -- graceful degradation ---------------------------------------------------

    def _demote(self, new_rel: RelaxationSet, reason: str) -> DemotionEvent:
        """Move to ``new_rel``, rebuild the matcher, and book the
        reconfiguration cost against the next outcome."""
        event = DemotionEvent(from_label=self.relaxations.label(),
                              to_label=new_rel.label(), reason=reason,
                              extra_seconds=relaunch_seconds(self.gpu))
        self.demotions.append(event)
        if self._obs is not None:
            self._obs.count("engine.demotions")
            self._obs.instant("engine.demotion", from_label=event.from_label,
                              to_label=event.to_label, reason=reason)
        self.relaxations = new_rel
        self._matcher = self._build_matcher()
        self._pending_demotion_seconds += event.extra_seconds
        self._pending_demotion_cycles += event.extra_cycles
        return event

    def admit_requests(self, requests: EnvelopeBatch) -> None:
        """Validate a request batch against the active relaxations.

        Raises :class:`~repro.core.relaxations.WorkloadViolation` in
        strict mode; demotes (wildcard lattice move) when graceful
        degradation is enabled.
        """
        try:
            self.relaxations.validate_requests(requests)
        except WorkloadViolation as exc:
            if not self.demote_on_violation:
                raise
            self._demote(self.relaxations.demoted_for_wildcards(),
                         f"wildcard request: {exc}")
            self.relaxations.validate_requests(requests)

    def require_ordering(self) -> DemotionEvent | None:
        """Explicitly restore the non-overtaking guarantee (hash ->
        partitioned); returns the demotion event, or None when ordering
        is already guaranteed."""
        if self.relaxations.ordering:
            return None
        return self._demote(self.relaxations.demoted_for_ordering(),
                            "ordering required")

    @property
    def matcher(self):
        """The concrete matcher chosen for the relaxation set."""
        return self._matcher

    @property
    def data_structure(self) -> str:
        """Table II's data-structure column for this engine."""
        return self.relaxations.data_structure

    def match(self, messages: EnvelopeBatch,
              requests: EnvelopeBatch) -> MatchOutcome:
        """Validate the workload, match, and (optionally) verify semantics.

        With graceful degradation enabled, a runtime violation demotes
        the matcher and the pass is re-run under the new configuration
        instead of raising; the demotion and its relaunch cost are
        recorded on the outcome (``meta["demotions"]``).
        """
        obs = self._obs
        trace_start = (obs.tracer.now
                       if obs is not None and obs.tracer is not None else 0.0)
        self.admit_requests(requests)
        outcome = self._matcher.match(messages, requests)
        if not self.relaxations.unexpected:
            # All receives must have been pre-posted: any message left
            # unmatched after the pass arrived without a matching posted
            # receive, regardless of how many requests remain open.
            unexpected = outcome.n_messages - outcome.matched_count
            try:
                self.relaxations.validate_unexpected(unexpected)
            except WorkloadViolation as exc:
                if not self.demote_on_violation:
                    raise
                self._demote(self.relaxations.demoted_for_unexpected(),
                             f"unexpected messages: {exc}")
                outcome = self._matcher.match(messages, requests)
        if self._pending_demotion_seconds:
            outcome.seconds += self._pending_demotion_seconds
            outcome.cycles += self._pending_demotion_cycles
            outcome.meta["demotions"] = [
                (e.from_label, e.to_label, e.reason)
                for e in self.demotions]
            self._pending_demotion_seconds = 0.0
            self._pending_demotion_cycles = 0.0
        if self.verify:
            if self.relaxations.ordering:
                check_mpi_ordering(messages, requests, outcome)
            else:
                check_relaxed(messages, requests, outcome)
        if obs is not None:
            obs.count("engine.passes")
            obs.count("engine.matched", float(outcome.matched_count))
            if obs.tracer is not None:
                # The matcher's own span already advanced the trace clock;
                # wrap it without advancing again.
                obs.tracer.complete("engine.match", trace_start,
                                    obs.tracer.now - trace_start,
                                    matcher=self._matcher.name,
                                    relaxations=self.relaxations.label())
        return outcome

    def submit_batch(self, messages, requests) -> MatchOutcome:
        """Columnar batch ingest: match one pre-batched column pair.

        The native envelope representation end-to-end is the packed
        struct-of-arrays :class:`~repro.core.envelope.EnvelopeBatch`;
        scalar :class:`~repro.core.envelope.Envelope` iterables are
        accepted as an adapter (the MPI layer's shape) and converted
        exactly once at this boundary, so no per-envelope work survives
        past ingest.  Matching semantics, demotion behaviour, and
        outcomes are identical to :meth:`match`.
        """
        if not isinstance(messages, EnvelopeBatch):
            messages = EnvelopeBatch.from_envelopes(messages)
        if not isinstance(requests, EnvelopeBatch):
            requests = EnvelopeBatch.from_envelopes(requests)
        return self.match(messages, requests)

    # -- queue state as columns --------------------------------------------------

    def export_unmatched(self, messages: EnvelopeBatch,
                         requests: EnvelopeBatch, outcome: MatchOutcome,
                         msg_indices=None, req_indices=None,
                         ) -> tuple[EnvelopeBatch, EnvelopeBatch]:
        """The pass's UMQ and PRQ as packed column blocks.

        Returns ``(umq, prq)``: the messages left unmatched (the
        unexpected-message queue) and the requests left posted (the
        posted-receive queue), as zero-copy ``take`` views of the input
        batches.  The views keep the cached packed64 key column, so
        carrying unmatched envelopes into a later pass (persistent-UMQ
        sessions) or a checkpoint never re-marshals them.

        ``msg_indices`` / ``req_indices`` accept precomputed unmatched
        index arrays so callers that already derived them from the
        outcome don't pay the scan twice.
        """
        if msg_indices is None:
            msg_indices = outcome.unmatched_message_indices()
        if req_indices is None:
            req_indices = outcome.unmatched_request_indices()
        return messages.take(msg_indices), requests.take(req_indices)

    # -- snapshot format ---------------------------------------------------------

    def export_state(self) -> dict:
        """Engine state for the serve snapshot format.

        Covers everything a restored engine needs to continue
        bit-identically: the relaxation point (matchers themselves hold
        no cross-pass state), the demotion log, the relaunch cost still
        pending against the next outcome, and the build knobs.
        """
        return {
            "relaxations": self.relaxations,
            "demotions": list(self.demotions),
            "pending_seconds": self._pending_demotion_seconds,
            "pending_cycles": self._pending_demotion_cycles,
            "n_queues": self._n_queues,
            "n_ctas": self._n_ctas,
            "window": self._window,
            "demote_on_violation": self.demote_on_violation,
        }

    @classmethod
    def from_state(cls, state: dict, gpu: GPUSpec = PASCAL_GTX1080,
                   verify: bool = False, obs=None) -> "MatchingEngine":
        """Rebuild an engine from :meth:`export_state` (inverse op)."""
        engine = cls(gpu=gpu,
                     relaxations=state["relaxations"],
                     n_queues=int(state["n_queues"]),
                     n_ctas=int(state["n_ctas"]),
                     window=int(state["window"]),
                     verify=verify,
                     demote_on_violation=bool(state["demote_on_violation"]),
                     obs=obs)
        engine.demotions = list(state["demotions"])
        engine._pending_demotion_seconds = float(state["pending_seconds"])
        engine._pending_demotion_cycles = float(state["pending_cycles"])
        return engine

    def reference(self, messages: EnvelopeBatch,
                  requests: EnvelopeBatch) -> MatchOutcome:
        """The sequential MPI oracle's assignment (no device timing)."""
        return reference_match(messages, requests)

    def cpu_baseline(self, messages: EnvelopeBatch,
                     requests: EnvelopeBatch) -> MatchOutcome:
        """The CPU list-based baseline's assignment and timing."""
        return ListMatcher().match(messages, requests)
