"""Serve-layer protocol types: tenants, requests, tickets, flush results.

The serving subsystem speaks a small request/response protocol on top of
the matching core.  A client belongs to a *tenant* (an isolated matching
domain with its own engine, queues, and relaxation state) and submits
:class:`ServeRequest`\\ s carrying message and receive-request envelopes.
Every submission is answered immediately with a :class:`Ticket`:

* ``accepted`` -- the envelopes joined the tenant's batch accumulator and
  will be matched at the next flush;
* ``retryable`` -- the shard's inbox is above its soft watermark; the
  request was **not** admitted, and the ticket carries a deterministic
  ``retry_after_vt`` hint (virtual seconds);
* ``overloaded`` -- the inbox is full; the request was shed outright.

Structured shedding instead of unbounded queue growth is the serve-layer
analogue of the transport's credit backpressure (PR 2): the system
degrades by answering honestly, never by falling over.

Matching work completes asynchronously at flush time; each flush yields
one :class:`FlushResult` tying the :class:`~repro.core.result.MatchOutcome`
back to the covered request sequence numbers with per-request virtual
latencies.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from ..core.envelope import EnvelopeBatch
from ..core.relaxations import RelaxationSet
from ..core.result import MatchOutcome

__all__ = ["ACCEPTED", "RETRYABLE", "OVERLOADED", "MIGRATING", "TenantSpec",
           "ServeRequest", "Ticket", "FlushResult", "ShardCrash",
           "ClusterError"]

#: Ticket status: the request was admitted to the tenant's accumulator.
ACCEPTED = "accepted"

#: Ticket status: shed above the soft watermark; safe to retry at
#: ``retry_after_vt``.
RETRYABLE = "retryable"

#: Ticket status: shed at full capacity; the client must back off and
#: re-issue (the serve layer keeps no record of the envelopes).
OVERLOADED = "overloaded"

#: Ticket status: the tenant is mid-migration between shards; the
#: request was not admitted and should be re-issued at ``retry_after_vt``
#: (the deterministic cutover time).  Unlike ``overloaded``, nothing is
#: dropped for capacity reasons -- migration sheds only with a hint.
MIGRATING = "migrating"


class ClusterError(RuntimeError):
    """A router protocol failure (stalled worker, barrier timeout,
    misuse of the router API such as running virtual time backward)."""


class ShardCrash(RuntimeError):
    """Chaos-injected shard failure (see ``repro.serve.cluster``).

    Raised from inside a flush *after* the accumulator has drained --
    the worst moment: the in-flight batch exists only on the stack.  A
    cluster worker answers it by SIGKILLing itself; the router then
    recovers the worker from its checkpoint and frame journal.
    """

    def __init__(self, shard_id: int, tenant: str, vt: float) -> None:
        super().__init__(f"shard {shard_id} crashed mid-flush "
                         f"(tenant {tenant!r}, vt={vt})")
        self.shard_id = shard_id
        self.tenant = tenant
        self.vt = vt


@dataclass(frozen=True)
class TenantSpec:
    """Declared identity and matching contract of one tenant.

    Parameters
    ----------
    name:
        Unique tenant identifier (also the obs label).
    relaxations:
        Pinned relaxation set.  ``None`` (default) starts at full MPI
        semantics (matrix path) and lets the autotuner walk the Table II
        lattice as the observed workload permits.
    ordering_required:
        Semantic contract: does the tenant depend on MPI non-overtaking
        order?  Ordering need is *not* observable from envelopes alone,
        so the hash design point is only reachable when the tenant
        declares it does not need ordering.
    autotune:
        Enable the profiler-driven lattice walk.  Pinned-relaxation
        tenants (``relaxations`` not ``None``) are never retuned.
    n_queues, n_ctas:
        Engine build knobs, forwarded to
        :class:`~repro.core.engine.MatchingEngine`.
    session:
        Persistent-UMQ mode: envelopes left unmatched by a flush carry
        over into the tenant's next flush as packed column blocks
        instead of being discarded (see ``repro.serve.state.SessionState``).
        Off by default -- stateless flushes are the paper's batch-mode
        matching.
    session_max_carryover:
        Per-tenant cap on carried-over envelopes (UMQ + PRQ combined);
        beyond it the *oldest* carried envelopes are shed.
    session_max_age_flushes:
        Age bound: a carried envelope that stays unmatched for this many
        subsequent flushes is shed (age-based shedding keeps a dead
        tuple from pinning session memory forever).
    partitioned:
        Declares a match-once/fire-many stream (MPI-4 partitioned
        channels): the tenant's envelopes are channel *bindings*, each
        amortized over many partition re-fires that never re-enter
        matching.  The autotuner treats this declaration as a cost-model
        override -- the per-match cost is paid once per channel epoch,
        so chasing the hash path's per-match speedup buys little and
        the re-fire streams' tiny tuple cardinality would otherwise
        oscillate the lattice walk (see
        :meth:`~repro.serve.autotuner.Autotuner.target_rank`).
    span:
        Number of shards the tenant spans.  ``1`` (default) is the
        classic single-shard tenant.  ``span=N`` registers N sub-tenants
        named ``name#0 .. name#N-1``, each placed independently by the
        CRC32 placement rule, and the cross-shard fabric
        (:mod:`repro.serve.fabric`) routes traffic between them.  The
        ``#`` separator is reserved: a spanning tenant's base name may
        not contain it.  Sessions are incompatible with spanning --
        carryover rows would break the fabric's one-result-per-superstep
        row alignment.
    """

    name: str
    relaxations: RelaxationSet | None = None
    ordering_required: bool = True
    autotune: bool = True
    n_queues: int = 4
    n_ctas: int = 1
    session: bool = False
    session_max_carryover: int = 4096
    session_max_age_flushes: int = 8
    partitioned: bool = False
    span: int = 1

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("tenant name must be non-empty")
        if self.relaxations is not None and self.autotune:
            # a pinned tenant is by definition not autotuned
            object.__setattr__(self, "autotune", False)
        if self.session_max_carryover < 1:
            raise ValueError("session_max_carryover must be >= 1")
        if self.session_max_age_flushes < 1:
            raise ValueError("session_max_age_flushes must be >= 1")
        if self.span < 1:
            raise ValueError("span must be >= 1")
        if self.span > 1:
            if "#" in self.name:
                raise ValueError(
                    "spanning tenant names may not contain '#' "
                    "(reserved as the sub-tenant separator)")
            if self.session:
                raise ValueError(
                    "session mode is incompatible with span > 1: carryover "
                    "rows would break fabric superstep row alignment")

    def sub_specs(self) -> list["TenantSpec"]:
        """The span-1 sub-tenant specs a spanning tenant expands into.

        ``span=1`` tenants expand to themselves; ``span=N`` yields N
        specs named ``name#0 .. name#N-1`` that are registered (and
        placed) as ordinary tenants.
        """
        if self.span == 1:
            return [self]
        return [replace(self, name=f"{self.name}#{i}", span=1)
                for i in range(self.span)]

    def initial_relaxations(self) -> RelaxationSet:
        """Where the tenant's engine starts on the lattice."""
        if self.relaxations is not None:
            return self.relaxations
        # autotuned tenants start fully compliant and earn promotions
        return RelaxationSet(wildcards=True, ordering=True, unexpected=True)


@dataclass(frozen=True)
class ServeRequest:
    """One admitted unit of client work: envelopes plus arrival time."""

    tenant: str
    seq: int
    arrival_vt: float
    messages: EnvelopeBatch
    requests: EnvelopeBatch

    @property
    def n_envelopes(self) -> int:
        """Total envelopes this request adds to the inbox."""
        return len(self.messages) + len(self.requests)


@dataclass(frozen=True)
class Ticket:
    """Immediate answer to a submission."""

    status: str
    tenant: str
    seq: int
    retry_after_vt: float | None = None
    reason: str = ""

    @property
    def accepted(self) -> bool:
        return self.status == ACCEPTED

    @property
    def shed(self) -> bool:
        """The request was not admitted (any non-accepted outcome)."""
        return self.status in (RETRYABLE, OVERLOADED, MIGRATING)


@dataclass
class FlushResult:
    """One batch flush: the outcome and the requests it covered."""

    tenant: str
    shard_id: int
    flush_seq: int
    flush_vt: float
    outcome: MatchOutcome
    covered_seqs: tuple[int, ...] = ()
    latencies_vt: tuple[float, ...] = ()
    engine_label: str = ""
    meta: dict = field(default_factory=dict)

    @property
    def completion_vt(self) -> float:
        """Virtual completion time: flush time plus modeled device time."""
        return self.flush_vt + self.outcome.seconds
