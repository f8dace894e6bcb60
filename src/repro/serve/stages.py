"""Per-stage wall-clock accounting at the cluster's process boundary.

The performance ledger (``benchmarks/ledger/``) times every in-process
serve layer from outside, by wrapping its public methods; it cannot wrap
code inside a cluster worker process, so that is the one place the
program keeps its own clock.  A :class:`StageClock` has three stages:

* ``transport`` -- the cluster router's wire-frame encode/decode and
  queue hand-off (work done, never time spent *waiting* on workers);
* ``match``     -- a worker's tenant engines' matching passes;
* ``result``    -- a worker's flush-result assembly, profiling, and
  autotuning.

Worker clocks are merged into the router's at stats collection
(:meth:`~repro.serve.cluster.ClusterService.merged_stage_seconds`), so
the totals are summed CPU-seconds across processes -- they can exceed
the run's wall time when workers overlap.  An in-process
:class:`~repro.serve.service.MatchingService` takes no clock.

Timing is **measurement-only**: the clock reads ``time.perf_counter``
but nothing in the serve layer ever branches on it, so attaching a clock
cannot perturb outcomes, shedding, or retunes (the same contract as the
observability handle, and the only sanctioned use of wall time in the
serve layer).
"""

from __future__ import annotations

import time

__all__ = ["SERVE_STAGES", "StageClock"]

#: The timed stages: the router's transport, then the worker pipeline.
SERVE_STAGES = ("transport", "match", "result")


class StageClock:
    """Accumulated wall seconds per boundary stage.

    Instrumentation sites bracket their stage explicitly::

        t0 = clock.start()
        ...stage work...
        clock.stop("match", t0)

    which keeps the hot path free of context-manager overhead and keeps
    every site greppable.  ``None`` is the default everywhere a clock is
    accepted, behind a single ``is not None`` branch per site.
    """

    __slots__ = ("seconds",)

    def __init__(self) -> None:
        self.seconds: dict[str, float] = {s: 0.0 for s in SERVE_STAGES}

    @staticmethod
    def start() -> float:
        """A wall-clock stamp to later :meth:`stop` against."""
        return time.perf_counter()

    def stop(self, stage: str, t0: float) -> None:
        """Charge the elapsed time since ``t0`` to ``stage``."""
        self.seconds[stage] += time.perf_counter() - t0

    def snapshot(self) -> dict[str, float]:
        """``{stage: seconds}``, pipeline order, JSON-friendly."""
        return {s: self.seconds[s] for s in SERVE_STAGES}
