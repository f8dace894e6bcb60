"""Open-loop load generation from proxy-application traces.

The serve bench needs realistic tenant streams, and the repository
already models thirteen DOE proxy applications (:mod:`repro.traces.apps`)
whose matching-relevant statistics land on the paper's Table I.  This
module turns a trace into a serve workload:

* pick the trace's **busiest rank** (most arriving messages + posted
  receives -- the worst-case matching queue of the app);
* cut that rank's event stream into request-sized chunks *in trace
  order* (messages = sends addressed to the rank, receive requests =
  posts by the rank), preserving the interleaving MPI matching depends
  on;
* assign arrival times **open-loop**: a seeded Poisson process at a
  fixed request rate, independent of service completions.  Open-loop is
  the honest overload methodology -- a closed loop slows its own
  offered load exactly when the service degrades, hiding the knee.

``run_workload`` drives a :class:`~repro.serve.service.MatchingService`
through a workload and is the engine under ``python -m repro serve-demo``;
the performance ledger (``benchmarks/ledger/``) draws its streams from
``workload_from_app``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from ..core.envelope import EnvelopeBatch
from ..traces import generate_trace
from ..traces.events import KIND_POST, KIND_SEND, Trace
from .admission import AdmissionPolicy
from .batching import BatchPolicy
from .messages import TenantSpec
from .service import MatchingService

__all__ = ["ServeArrival", "ServeWorkload", "busiest_rank",
           "tenant_stream_from_trace", "workload_from_app",
           "merge_workloads", "DEFAULT_BENCH_APPS", "BENCHPARK_BENCH_APPS",
           "run_workload", "demo"]

#: The serve bench's trace-derived workloads: one wildcard-using app
#: (pinned to the matrix path), one ordered app (earns the partitioned
#: path), one ordering-tolerant app (reaches the hash path).
DEFAULT_BENCH_APPS: tuple[tuple[str, bool], ...] = (
    ("df_minife", True),        # MPI_ANY_SOURCE user -> matrix
    ("exmatex_lulesh", True),   # no wildcards, ordered -> partitioned
    ("df_amg", False),          # no wildcards, unordered-tolerant -> hash
)

#: The Benchpark re-fire workloads: huge per-pair counts over a tiny
#: tuple cardinality, declared ``partitioned`` so the autotuner pins the
#: match-once lattice point instead of oscillating on the hash gate.
BENCHPARK_BENCH_APPS: tuple[tuple[str, bool], ...] = (
    ("bp_amg2023", True),       # V-cycle halo re-fires (tag = level)
    ("bp_kripke", True),        # KBA sweep chunks (tag = octant)
    ("bp_laghos", True),        # fixed unstructured halo (2 tags)
)


@dataclass(frozen=True)
class ServeArrival:
    """One open-loop arrival: a request's content and virtual time."""

    vt: float
    tenant: str
    messages: EnvelopeBatch
    requests: EnvelopeBatch


@dataclass(frozen=True)
class ServeWorkload:
    """A named multi-tenant arrival stream (sorted by virtual time)."""

    name: str
    tenants: tuple[TenantSpec, ...]
    arrivals: tuple[ServeArrival, ...]

    @property
    def n_envelopes(self) -> int:
        return sum(len(a.messages) + len(a.requests) for a in self.arrivals)


def busiest_rank(trace: Trace) -> int:
    """The rank with the most matching work (arrivals + posts);
    deterministic lowest-index tie-break."""
    cols = trace.columns
    kind = cols["kind"]
    load = (np.bincount(cols["peer"][kind == KIND_SEND],
                        minlength=trace.n_ranks)
            + np.bincount(cols["rank"][kind == KIND_POST],
                          minlength=trace.n_ranks))
    return int(np.argmax(load))


def tenant_stream_from_trace(trace: Trace, rank: int, chunk_envelopes: int = 64,
                             ) -> list[tuple[EnvelopeBatch, EnvelopeBatch]]:
    """Cut one rank's matching stream into request-sized column blocks.

    Each chunk is ``(messages, requests)`` in trace order: messages are
    sends addressed to ``rank`` (src = sender), requests are the
    receives ``rank`` posted (wildcards preserved).  Order within and
    across chunks follows the trace, which is what MPI matching
    semantics key on.

    Chunks are zero-copy views into one contiguous column set per rank
    stream; the message side additionally carries its packed64 key
    column, computed here exactly once, so no layer between the loadgen
    and the matcher ever re-packs an envelope.
    """
    if chunk_envelopes < 1:
        raise ValueError("chunk_envelopes must be >= 1")
    cols = trace.columns
    kind = cols["kind"]
    # messages addressed to the rank, or receives the rank posted
    rows = np.flatnonzero(np.where(kind == KIND_SEND, cols["peer"] == rank,
                                   (kind == KIND_POST)
                                   & (cols["rank"] == rank)))
    is_msg = kind[rows] == KIND_SEND
    # envelope source: the sender for messages, the posted src for requests
    src = np.where(is_msg, cols["rank"][rows], cols["peer"][rows])
    tag = cols["tag"][rows]
    comm = cols["comm"][rows]
    # Pack the whole stream's message keys in one shot.  Request rows
    # may carry wildcards and are never packed (the packed form has no
    # wildcard encoding); their lanes here are dead values.
    packed = (comm << 48) | (src << 16) | tag
    chunks: list[tuple[EnvelopeBatch, EnvelopeBatch]] = []
    for lo in range(0, int(src.size), chunk_envelopes):
        sel = slice(lo, lo + chunk_envelopes)
        msg = is_msg[sel]
        req = ~msg
        chunks.append((
            EnvelopeBatch.view(src[sel][msg], tag[sel][msg], comm[sel][msg],
                               packed=packed[sel][msg]),
            EnvelopeBatch.view(src[sel][req], tag[sel][req], comm[sel][req])))
    return chunks


def workload_from_app(app: str, *, rate_rps: float = 2000.0,
                      n_ranks: int | None = None, steps: int | None = None,
                      chunk_envelopes: int = 64, seed: int = 0,
                      ordering_required: bool = True,
                      tenant_name: str | None = None,
                      session: bool = False,
                      partitioned: bool = False) -> ServeWorkload:
    """Build a one-tenant open-loop workload from a proxy-app trace.

    ``rate_rps`` is the offered request rate in requests per *virtual*
    second; arrivals are a seeded Poisson process (open-loop).
    ``session=True`` declares the tenant persistent-UMQ: unmatched
    envelopes carry over between flushes instead of being dropped.
    ``partitioned=True`` declares a match-once/fire-many stream, which
    pins the autotuner at the partitioned lattice point (the natural
    declaration for the Benchpark re-fire workloads).
    """
    if rate_rps <= 0:
        raise ValueError("rate_rps must be positive")
    trace = generate_trace(app, n_ranks=n_ranks, steps=steps, seed=seed)
    rank = busiest_rank(trace)
    chunks = tenant_stream_from_trace(trace, rank,
                                      chunk_envelopes=chunk_envelopes)
    name = tenant_name if tenant_name is not None else app
    spec = TenantSpec(name=name, ordering_required=ordering_required,
                      session=session, partitioned=partitioned)
    rng = np.random.default_rng(seed + 0x10AD)
    gaps = rng.exponential(1.0 / rate_rps, size=len(chunks))
    times = np.cumsum(gaps)
    arrivals = tuple(
        ServeArrival(vt=float(t), tenant=name, messages=m, requests=r)
        for t, (m, r) in zip(times, chunks))
    return ServeWorkload(name=app, tenants=(spec,), arrivals=arrivals)


def merge_workloads(name: str,
                    workloads: list[ServeWorkload]) -> ServeWorkload:
    """Interleave several workloads into one multi-tenant stream."""
    arrivals = sorted((a for w in workloads for a in w.arrivals),
                      key=lambda a: (a.vt, a.tenant))
    tenants = tuple(t for w in workloads for t in w.tenants)
    return ServeWorkload(name=name, tenants=tenants,
                         arrivals=tuple(arrivals))


def run_workload(workload: ServeWorkload, *, n_shards: int = 1,
                 admission: AdmissionPolicy | None = None,
                 batching: BatchPolicy | None = None, seed: int = 0,
                 promote_after: int = 3, profile_window: int = 8,
                 verify: bool = False, obs=None,
                 ) -> tuple[MatchingService, float]:
    """Drive a service through a workload; returns (service, wall seconds).

    Wall time covers the submission loop plus the final drain -- the
    sustained host-side serving rate -- and is measurement-only: no
    decision inside the service reads it.
    """
    service = MatchingService(n_shards=n_shards, admission=admission,
                              batching=batching, seed=seed,
                              promote_after=promote_after,
                              profile_window=profile_window,
                              verify=verify, obs=obs)
    for spec in workload.tenants:
        service.register(spec)
    return service, _drive(service, workload)


def _drive(plane, workload: ServeWorkload) -> float:
    """Submit every arrival, run out the armed deadline timers, drain,
    and (on a plane that has one) pass the stats barrier; returns the
    wall seconds this took."""
    t0 = time.perf_counter()
    for arrival in workload.arrivals:
        plane.submit(arrival.tenant, arrival.messages, arrival.requests,
                     at_vt=arrival.vt)
    if workload.arrivals:
        plane.advance_to(plane.now + 2.0 * plane.batching.max_delay_vt)
    plane.drain()
    sync = getattr(plane, "sync", None)
    if sync is not None:
        sync()
    return time.perf_counter() - t0


def demo(seed: int = 0, steps: int = 3, n_ranks: int = 16,
         rate_rps: float = 4000.0, obs=None,
         ) -> tuple[MatchingService, ServeWorkload, float]:
    """A small three-tenant serve scenario (the CLI's ``serve-demo``)."""
    parts = [
        workload_from_app(app, rate_rps=rate_rps, n_ranks=n_ranks,
                          steps=steps, seed=seed,
                          ordering_required=ordering_required)
        for app, ordering_required in DEFAULT_BENCH_APPS
    ]
    workload = merge_workloads("serve-demo", parts)
    service, wall = run_workload(workload, n_shards=2, seed=seed,
                                 promote_after=2, obs=obs)
    return service, workload, wall
