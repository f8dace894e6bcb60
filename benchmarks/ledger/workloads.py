"""The ledger's four workloads: build, serve, check, tear down.

Every workload drives the program only through public names of
``repro.serve``, ``repro.traces`` and ``repro.mpi``, called through their
module objects (``serve.workload_from_app``, ``collectives.alltoall``)
so that a traced repeat's wrappers see the calls.  The load is one
client thread in a closed loop: each public call is issued as soon as
the previous one returns.  Arrival times are the open-loop Poisson
virtual times ``workload_from_app`` draws; the service decides nothing
on wall time, so pacing the wall clock would only add idle time.

Traces are built once per repeat and replayed for ``laps`` laps with
virtual time continuing across laps: MPI applications repeat their
per-timestep pattern, so the replay stays realistic while reaching a
serve phase long enough to time.
"""

from __future__ import annotations

import multiprocessing as mp
import signal
import time
from dataclasses import dataclass, field

import numpy as np

import repro.mpi.collectives as collectives
import repro.serve as serve
from repro.core import NO_MATCH
from repro.mpi import CartGraph

__all__ = ["WORKLOADS", "Workload", "Repeat", "workload_units"]

#: Trace shape shared by the three trace-driven workloads.
TRACE_STEPS = 16
#: Tag of the partitioned ring in ``fabric-coll`` (an application tag).
PART_TAG = 7
#: Virtual time past the last arrival that fires every batch deadline
#: (two of the default policy's flush delays).
RUN_OUT_VT = 2 * serve.BatchPolicy().max_delay_vt


@dataclass
class Repeat:
    """What one repeat measured and what its checks found."""

    setup_s: float = 0.0
    serve_s: float = 0.0
    teardown_s: float = 0.0
    #: read by a run's final untraced repeat, before its reference check
    peak_rss_mb: float = 0.0
    calls: list[float] = field(default_factory=list)
    matched: int = 0
    submitted: int = 0
    errors: dict[str, int] = field(default_factory=dict)
    #: work counts read from the program's own results (per-layer use)
    counts: dict[str, float] = field(default_factory=dict)
    report: dict | None = None


# -- shared pieces ------------------------------------------------------------------


def _lapped(workload, laps: int) -> list[tuple]:
    """The merged arrival stream replayed ``laps`` times, virtual time
    continuing across laps (one mean inter-arrival gap between laps)."""
    arrivals = workload.arrivals
    last = arrivals[-1].vt
    period = last + last / len(arrivals)
    return [(a.vt + k * period, a.tenant, a.messages, a.requests)
            for k in range(laps) for a in arrivals]


def _trace_stream(seed: int, laps: int, *, chunk: int, rate_rps: float,
                  session: bool) -> tuple[tuple, list[tuple], int]:
    """The three-tenant proxy-app stream: (specs, lapped arrivals,
    envelopes per lap)."""
    parts = [serve.workload_from_app(app, steps=TRACE_STEPS,
                                     chunk_envelopes=chunk, seed=seed,
                                     rate_rps=rate_rps,
                                     ordering_required=ordered,
                                     session=session)
             for app, ordered in serve.DEFAULT_BENCH_APPS]
    merged = serve.merge_workloads("ledger", parts)
    return merged.tenants, _lapped(merged, laps), merged.n_envelopes


def _envelope_checks(results) -> tuple[int, int, int, int]:
    """(matched pairs, envelopes matched, envelopes flushed, messages
    claimed twice) over a list of flush results."""
    matched = claimed = envelopes = twice = 0
    for r in results:
        out = r.outcome
        hit = out.request_to_message[out.request_to_message != NO_MATCH]
        matched += out.matched_count
        envelopes += out.n_messages + out.n_requests
        twice += int(hit.size - np.unique(hit).size)
        claimed += 2 * int(hit.size)
    return matched, claimed, envelopes, twice


def _ledger_checks(rep: Repeat, tickets, results) -> None:
    """Covered seqs equal accepted seqs, none twice; fill counts."""
    accepted = [t.seq for t in tickets if t.accepted]
    covered = [s for r in results for s in r.covered_seqs]
    accepted_set, covered_set = set(accepted), set(covered)
    matched, claimed, envelopes, twice = _envelope_checks(results)
    rep.matched = matched
    rep.submitted = len(tickets)
    rep.errors["shed"] = len(tickets) - len(accepted)
    rep.errors["lost"] = len(accepted_set - covered_set)
    rep.errors["unknown"] = len(covered_set - accepted_set)
    rep.errors["matched_twice"] = (len(covered) - len(covered_set)) + twice
    rep.counts.update(flushes=len(results), envelopes_flushed=envelopes,
                      envelopes_matched=claimed)


def _serve_counts(rep: Repeat, report: dict, results, state: dict) -> None:
    carried = sum(r.meta.get("carried_messages", 0)
                  + r.meta.get("carried_requests", 0) for r in results)
    rep.counts.update(loadgen_envelopes=state.get("envelopes", 0),
                      accepted=report["accepted"],
                      retunes=report["retunes"],
                      carried_envelopes=carried,
                      latency_p50_vt=report["latency_p50_vt"] or 0.0,
                      latency_p99_vt=report["latency_p99_vt"] or 0.0)


def _timed(calls: list[float], fn, *args, **kwargs):
    t0 = time.perf_counter()
    out = fn(*args, **kwargs)
    calls.append(time.perf_counter() - t0)
    return out


# -- the workloads ------------------------------------------------------------------


class Workload:
    """One workload: ``build`` -> ``start`` -> ``serve`` -> ``check`` ->
    ``teardown``; the runner times the phases around these calls."""

    #: the name ``BENCHMARK.json`` lists it under, with its reason
    name = ""
    #: laps (or rounds) per second of serving, measured on a 2-core
    #: x86-64 host; sizes a repeat's serve phase from ``--seconds``
    units_per_s = 1.0
    #: floor on laps (rounds) per repeat: enough client calls for a p99
    min_units = 1

    def build(self, seed: int, laps: int, traced: bool) -> dict:
        """Everything set-up makes; ``traced`` marks the traced repeat."""
        raise NotImplementedError

    def start(self, state: dict) -> None:
        """Start processes the plane needs (part of set-up)."""

    def serve(self, state: dict, calls: list[float]) -> None:
        raise NotImplementedError

    def check(self, state: dict, rep: Repeat) -> None:
        raise NotImplementedError

    def reference_report(self, state: dict) -> dict | None:
        """A report the plane's own report must equal (untimed)."""
        return None

    def teardown(self, state: dict, rep: Repeat) -> None:
        """Release the plane and everything set-up built."""
        state.clear()


class ServeMix(Workload):
    name = "serve-mix"
    units_per_s = 36.0
    chunk = 256
    rate_rps = 2000.0
    session = False

    def make_plane(self, seed: int, traced: bool):
        return serve.MatchingService(n_shards=2, seed=seed, promote_after=2)

    def build(self, seed: int, laps: int, traced: bool) -> dict:
        specs, arrivals, envelopes = _trace_stream(
            seed, laps, chunk=self.chunk, rate_rps=self.rate_rps,
            session=self.session)
        plane = self.make_plane(seed, traced)
        for spec in specs:
            plane.register(spec)
        return {"plane": plane, "arrivals": arrivals, "specs": specs,
                "seed": seed, "envelopes": envelopes}

    def serve(self, state: dict, calls: list[float]) -> None:
        plane = state["plane"]
        for vt, tenant, msgs, reqs in state["arrivals"]:
            _timed(calls, plane.submit, tenant, msgs, reqs, at_vt=vt)
        # run out every armed batch deadline, then flush the rest
        _timed(calls, plane.advance_to, plane.now + RUN_OUT_VT)
        _timed(calls, plane.drain)
        sync = getattr(plane, "sync", None)
        if sync is not None:
            _timed(calls, sync)   # a cluster's results are visible now

    def check(self, state: dict, rep: Repeat) -> None:
        svc = state["plane"]
        _ledger_checks(rep, svc.tickets, svc.results)
        rep.report = svc.report()
        _serve_counts(rep, rep.report, svc.results, state)


class ServeSession(ServeMix):
    name = "serve-session"
    units_per_s = 2.9
    chunk = 16
    rate_rps = 2000.0
    session = True

    def make_plane(self, seed: int, traced: bool):
        return serve.MatchingService(
            n_shards=2, seed=seed, promote_after=2,
            batching=serve.BatchPolicy(max_envelopes=16))


class ClusterMix(ServeMix):
    name = "cluster-mix"
    units_per_s = 20.0

    def make_plane(self, seed: int, traced: bool):
        # worker-side stage seconds ride only the traced repeat
        return serve.ClusterService(
            n_workers=1, start_method="fork", seed=seed, promote_after=2,
            stages=serve.StageClock() if traced else None)

    def start(self, state: dict) -> None:
        state["plane"].start()
        # stdlib handles on the worker processes, to read exit codes
        state["children"] = mp.active_children()

    def check(self, state: dict, rep: Repeat) -> None:
        cluster = state["plane"]
        _ledger_checks(rep, cluster.ticket_list(), cluster.results)
        rep.report = cluster.report()
        _serve_counts(rep, rep.report, cluster.results, state)
        rep.counts["worker_busy_s"] = sum(cluster.busy_seconds())
        stages = cluster.merged_stage_seconds()
        rep.counts["worker_match_s"] = stages["match"]
        rep.counts["worker_result_s"] = stages["result"]

    def reference_report(self, state: dict) -> dict:
        """The same stream through ``MatchingService(n_shards=1)``; a
        one-worker cluster must report exactly the same."""
        svc = serve.MatchingService(n_shards=1, seed=state["seed"],
                                    promote_after=2)
        for spec in state["specs"]:
            svc.register(spec)
        self.serve({"plane": svc, "arrivals": state["arrivals"]}, [])
        return svc.report()

    def teardown(self, state: dict, rep: Repeat) -> None:
        state["plane"].stop()
        rep.counts["sigterm_exits"] = sum(p.exitcode == -signal.SIGTERM
                                          for p in state["children"])
        state.clear()


def spanning_name(span: int, n_shards: int) -> str:
    """A tenant name whose ``name#i`` sub-tenants occupy every shard
    (placement is CRC32, independent of the seed)."""
    for k in range(10_000):
        name = f"coll{k}"
        if len({serve.stable_shard(f"{name}#{i}", n_shards)
                for i in range(span)}) == n_shards:
            return name
    raise RuntimeError(f"no tenant name spans {n_shards} shards")


class FabricColl(Workload):
    name = "fabric-coll"
    units_per_s = 58.0
    # 4 calls a round: 50 rounds give 1,000 calls over five repeats
    min_units = 50
    span = 8
    partitions = 8

    def build(self, seed: int, rounds: int, traced: bool) -> dict:
        rng = np.random.default_rng(seed)
        p, parts = self.span, self.partitions
        svc = serve.MatchingService(n_shards=2, seed=seed)
        name = spanning_name(p, 2)
        svc.register(serve.TenantSpec(name=name, span=p, autotune=False))
        bridge = serve.CollectiveBridge(
            svc, name, link=serve.FabricLink(bytes_per_envelope=264))
        topo = CartGraph((4, 2), periodic=True)
        values = rng.integers(0, 1 << 20, size=(rounds, 4, p, p)).tolist()
        return {
            "plane": svc, "bridge": bridge, "topo": topo, "rounds": rounds,
            "a2a": [[[(rd, i, j, values[rd][0][i][j]) for j in range(p)]
                     for i in range(p)] for rd in range(rounds)],
            "sums": [values[rd][1][0] for rd in range(rounds)],
            "nbr": [[[(rd, r, k, values[rd][2][r][k])
                      for k in range(len(topo.destinations(r)))]
                     for r in range(p)] for rd in range(rounds)],
            "parts": [[[values[rd][3][r][i % p] + i for i in range(parts)]
                       for r in range(p)] for rd in range(rounds)],
            "psends": [bridge.psend_init(r, (r + 1) % p, parts, tag=PART_TAG)
                       for r in range(p)],
            "precvs": [bridge.precv_init((r + 1) % p, r, parts, tag=PART_TAG)
                       for r in range(p)],
            "out": [],
        }

    @staticmethod
    def _partition_epoch(psends, precvs, payloads) -> list[list]:
        """One epoch of the partitioned ring; returns each receiver's
        payloads, receiver ``r`` listed at its sender's index."""
        for ps in psends:
            ps.start()
        for pr in precvs:
            pr.start()
        for ps, row in zip(psends, payloads):
            for i, value in enumerate(row):
                ps.pready(i, value)
        for ps in psends:
            ps.wait()
        return [pr.wait() for pr in precvs]

    def serve(self, state: dict, calls: list[float]) -> None:
        bridge, topo, out = state["bridge"], state["topo"], state["out"]
        add = int.__add__
        for rd in range(state["rounds"]):
            out.append((
                _timed(calls, collectives.alltoall, bridge, state["a2a"][rd]),
                _timed(calls, collectives.allreduce, bridge,
                       state["sums"][rd], add),
                _timed(calls, collectives.neighbor_alltoall, bridge, topo,
                       state["nbr"][rd]),
                _timed(calls, self._partition_epoch, state["psends"],
                       state["precvs"], state["parts"][rd])))

    def check(self, state: dict, rep: Repeat) -> None:
        svc, bridge, topo = state["plane"], state["bridge"], state["topo"]
        p = self.span
        wrong = 0
        for rd, (a2a, sums, nbr, parts) in enumerate(state["out"]):
            sent = state["a2a"][rd]
            wrong += any(a2a[j][i] != sent[i][j]
                         for i in range(p) for j in range(p))
            wrong += any(v != sum(state["sums"][rd]) for v in sums)
            lists = state["nbr"][rd]
            wrong += any(
                nbr[r][k] != lists[s][topo.destinations(s).index(r)]
                for r in range(p) for k, s in enumerate(topo.sources(r)))
            wrong += parts != state["parts"][rd]
        rep.errors["wrong_results"] = wrong + 4 * (state["rounds"]
                                                   - len(state["out"]))
        report = svc.report()
        results = svc.results
        # fabric deliveries draw seqs from the same space as submits;
        # every one must be covered by exactly one flush
        covered = [s for r in results for s in r.covered_seqs]
        matched, claimed, envelopes, twice = _envelope_checks(results)
        rep.matched = matched
        rep.submitted = report["submitted"]
        rep.errors["lost"] = len(set(range(report["submitted"]))
                                 - set(covered))
        rep.errors["matched_twice"] = (len(covered) - len(set(covered))
                                       + twice)
        rep.report = report
        rep.counts.update(flushes=len(results), envelopes_flushed=envelopes,
                          envelopes_matched=claimed)
        _serve_counts(rep, report, results, state)
        fabric = bridge.fabric
        rep.counts.update(supersteps=fabric.supersteps,
                          pair_batches=fabric.pair_batches_total,
                          combine_ratio=fabric.combine_ratio)


WORKLOADS: dict[str, Workload] = {
    w.name: w for w in (ServeMix(), ServeSession(), ClusterMix(),
                        FabricColl())}


def workload_units(wl: Workload, seconds: float, repeats: int) -> int:
    """Laps (rounds) per repeat so that ``repeats`` serve phases last
    about ``seconds`` in total on the reference host, and at least
    ``min_units``.  Fixed by the arguments alone, so every repeat and
    every run does the same work."""
    return max(wl.min_units, round(seconds / repeats * wl.units_per_s))
