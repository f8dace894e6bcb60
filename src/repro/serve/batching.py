"""Request batching: accumulate envelopes, flush on watermarks.

The array-native fast paths (PR 1) only pay off when the matcher sees
*batches* -- a vectorized scan over one envelope is all overhead.  The
serve layer therefore never matches per request: admitted requests pour
into a per-tenant :class:`BatchAccumulator` and are flushed as one
concatenated :class:`~repro.core.envelope.EnvelopeBatch` pair when either
watermark trips:

* **size** -- accumulated envelopes reach ``max_envelopes``;
* **virtual time** -- ``max_delay_vt`` virtual seconds have passed since
  the oldest admitted request (bounding the latency a batch can add).

Both watermarks are deterministic functions of the submitted stream and
the virtual clock; no wall time is consulted anywhere (the replayability
contract of the serve scheduler).

Edge cases are first-class: flushing an empty accumulator yields a valid
zero-length batch pair (a no-op through every matcher) and a
single-envelope flush is legal -- pinned by ``tests/core/test_batch_edges.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..core.envelope import EnvelopeBatch
from .messages import ServeRequest

__all__ = ["BatchPolicy", "BatchAccumulator", "concat_batches"]


def concat_batches(batches: Sequence[EnvelopeBatch]) -> EnvelopeBatch:
    """Concatenate envelope batches in order (empty input -> empty batch).

    This is the whole flush: one ``np.concatenate`` per column over the
    admitted views, no per-envelope work.  When every member carries its
    packed64 key column (loadgen-emitted message blocks do), the result
    keeps a concatenated key column too, so the matcher downstream never
    re-packs what the loadgen already packed.
    """
    batches = [b for b in batches if len(b)]
    if not batches:
        return EnvelopeBatch.empty()
    if len(batches) == 1:
        return batches[0]
    packs = [b._packed for b in batches]
    return EnvelopeBatch.view(
        np.concatenate([b.src for b in batches]),
        np.concatenate([b.tag for b in batches]),
        np.concatenate([b.comm for b in batches]),
        packed=(np.concatenate(packs)
                if all(p is not None for p in packs) else None))


@dataclass(frozen=True)
class BatchPolicy:
    """When a tenant's accumulator flushes.

    Parameters
    ----------
    max_envelopes:
        Size watermark: flush as soon as the accumulated envelope count
        (messages + requests) reaches this.  ``1`` degenerates to
        flush-per-request -- the configuration the pass-through
        equivalence contract is pinned under.
    max_delay_vt:
        Virtual-time watermark: flush at ``first_admit + max_delay_vt``
        even if the size watermark was never reached.
    """

    max_envelopes: int = 512
    max_delay_vt: float = 1e-3

    def __post_init__(self) -> None:
        if self.max_envelopes < 1:
            raise ValueError("max_envelopes must be >= 1")
        if self.max_delay_vt <= 0:
            raise ValueError("max_delay_vt must be positive")


class BatchAccumulator:
    """Per-tenant envelope accumulator with watermark-driven flushing."""

    def __init__(self, policy: BatchPolicy | None = None) -> None:
        self.policy = policy if policy is not None else BatchPolicy()
        self._pending: list[ServeRequest] = []
        self._n_envelopes = 0
        self._first_admit_vt: float | None = None
        #: increments on every flush; deadline timers carry the epoch
        #: they were armed in, so stale timers are detected exactly.
        self.epoch = 0

    # -- state ------------------------------------------------------------------

    def __len__(self) -> int:
        """Accumulated envelope count (the inbox-depth unit)."""
        return self._n_envelopes

    @property
    def n_requests(self) -> int:
        """Pending admitted requests."""
        return len(self._pending)

    @property
    def deadline_vt(self) -> float | None:
        """Virtual time of the pending time-watermark flush (None if empty)."""
        if self._first_admit_vt is None:
            return None
        return self._first_admit_vt + self.policy.max_delay_vt

    # -- admission / flushing -----------------------------------------------------

    def admit(self, request: ServeRequest) -> None:
        """Add an admitted request's envelopes to the batch."""
        if self._first_admit_vt is None:
            self._first_admit_vt = request.arrival_vt
        self._pending.append(request)
        self._n_envelopes += request.n_envelopes

    def size_ready(self) -> bool:
        """Has the size watermark tripped?"""
        return self._n_envelopes >= self.policy.max_envelopes

    def time_ready(self, now_vt: float) -> bool:
        """Has the virtual-time watermark tripped?"""
        deadline = self.deadline_vt
        return deadline is not None and now_vt >= deadline

    def flush(self) -> tuple[EnvelopeBatch, EnvelopeBatch, list[ServeRequest]]:
        """Drain everything pending into one concatenated batch pair.

        Returns ``(messages, requests, covered)``; flushing an empty
        accumulator returns valid zero-length batches and an empty cover
        list (a no-op through every matcher).
        """
        covered = self._pending
        messages = concat_batches([r.messages for r in covered])
        requests = concat_batches([r.requests for r in covered])
        self._pending = []
        self._n_envelopes = 0
        self._first_admit_vt = None
        self.epoch += 1
        return messages, requests, covered

    # -- snapshot format ----------------------------------------------------------

    def export_state(self) -> dict:
        """Accumulator state for the serve snapshot format.

        ``pending`` holds the live :class:`ServeRequest` objects; the
        codec in :mod:`repro.serve.state` turns their column batches
        into the binary form.
        """
        return {"pending": list(self._pending),
                "n_envelopes": self._n_envelopes,
                "first_admit_vt": self._first_admit_vt,
                "epoch": self.epoch}

    def restore_state(self, state: dict) -> None:
        """Inverse of :meth:`export_state` (policy is rebuilt separately)."""
        self._pending = list(state["pending"])
        self._n_envelopes = int(state["n_envelopes"])
        self._first_admit_vt = state["first_admit_vt"]
        self.epoch = int(state["epoch"])
