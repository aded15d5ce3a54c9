"""In-process serving front: dynamic batching over one decision service.

:class:`DecisionServer` is the single-process
:class:`~repro.runtime.front.BatchFront`: admission with backpressure,
the dynamic batching window, per-tenant round-robin, trace minting, the
feature-row memo and the stats all come from the shared front.  What the
server adds is its dispatch step — it serves each assembled batch in
process through one
:class:`~repro.runtime.engine.decision.DecisionService`, according to
``ServerConfig.mode``:

* ``"plan"`` — ``plan_batch`` (one cache-deduped ``predict_batch``
  forward, plus exploration probes when a policy is attached); resolves
  to ``(spec, config)``;
* ``"decide"`` — ``decide_batch``; resolves to a fleet-costed
  ``Decision``;
* ``"run"`` — :meth:`~repro.runtime.engine.engine.Engine.run_fleet`
  under ``ServerConfig.placement_policy`` (decide, place, execute,
  audit); resolves to a ``RunOutcome``.

Each mode is one call into the same tier the synchronous API uses, fed
the batch's feature matrix from the front's row memo (so a flush encodes
only the workloads the memo has not seen), and the server has no
decision, placement or audit logic of its own.

Both request paths of the front apply: :meth:`~BatchFront.submit` (the
awaitable path) and :meth:`~BatchFront.try_submit` (the open-loop fast
path with an optional ``callback(tag, result)``).

Decisions are bit-identical to the synchronous ``plan_batch`` path by
construction — the flush drains through the same decision cache and the
same batched forward; only the batching schedule differs.
"""

from __future__ import annotations

import contextlib
import gc
import time
from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np

from repro.runtime.deploy import Workload
from repro.runtime.engine.decision import DecisionService
from repro.runtime.engine.engine import Engine
from repro.runtime.engine.execution import ExecutionBackend
from repro.runtime.engine.scheduler import POLICIES, Scheduler
from repro.runtime.front import (
    BatchFront,
    FrontConfig,
    ServerOverloadedError,
    ServerStats,
    _Request,
)

__all__ = [
    "DecisionServer",
    "ServerConfig",
    "ServerOverloadedError",
    "ServerStats",
    "low_latency_gc",
]


@contextlib.contextmanager
def low_latency_gc() -> Iterator[None]:
    """Suspend cyclic GC for the duration of a serving run.

    The serving hot path allocates hundreds of thousands of short-lived,
    acyclic objects per second; the cyclic collector's periodic gen-2
    walks show up directly in the decision-latency tail (measured ~6×
    on p99 under a 120k/s Poisson trace).  Refcounting still reclaims
    everything the server allocates, so the only cost is deferring
    collection of whatever cycles the rest of the process creates until
    the exit collect.  Pre-existing objects are frozen out of the way on
    entry (CPython's ``gc.freeze``), matching how long-running Python
    servers are deployed in practice.
    """
    was_enabled = gc.isenabled()
    gc.collect()
    gc.freeze()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()
        gc.unfreeze()
        gc.collect()

@dataclass(frozen=True)
class ServerConfig(FrontConfig):
    """Tuning knobs for one :class:`DecisionServer` (batching window
    fields from :class:`~repro.runtime.front.FrontConfig`)."""

    #: What a request resolves to: ``"plan"`` → (spec, config), ``"decide"``
    #: → fleet-costed :class:`Decision`, ``"run"`` → executed
    #: :class:`RunOutcome` (audited when observability is on).
    mode: str = "plan"
    #: Placement policy for ``"run"`` mode flushes (see
    #: :data:`repro.runtime.engine.scheduler.POLICIES`).  ``"solo"`` is
    #: bit-identical to executing each chosen estimate directly, so the
    #: default changes nothing about served outcomes — it just gives every
    #: server request a placement span in the trace stream.
    placement_policy: str = "solo"

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.mode not in ("plan", "decide", "run"):
            raise ValueError(f"unknown server mode {self.mode!r}")
        if self.placement_policy not in POLICIES:
            raise ValueError(
                f"unknown placement policy {self.placement_policy!r}; "
                f"known: {POLICIES}"
            )


class DecisionServer(BatchFront):
    """Dynamic-batching asyncio front end over one decision service."""

    def __init__(
        self,
        decisions: DecisionService,
        config: ServerConfig | None = None,
        *,
        backend: ExecutionBackend | None = None,
        scheduler: Scheduler | None = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        super().__init__(config or ServerConfig(), clock=clock)
        self.decisions = decisions
        self.mode = self.config.mode
        #: Runs ``"run"`` flushes; the scheduler defaults to one over the
        #: decision service's own fleet.
        self.engine = Engine(
            decisions, scheduler or Scheduler(decisions.fleet), backend
        )

    @property
    def backend(self) -> ExecutionBackend:
        """The execution backend the engine drains placements through."""
        return self.engine.backend

    @property
    def scheduler(self) -> Scheduler:
        """The placement layer the engine schedules flushes with."""
        return self.engine.scheduler

    def _encode_row(self, workload: Workload) -> np.ndarray:
        return self.decisions.encode([workload])[0]

    def _dispatch(self, batch: list[_Request], flush_start: float) -> list:
        """Serve one assembled batch in process, per the configured mode."""
        workloads = [request.workload for request in batch]
        features = self._encode_batch(batch)
        if self.mode == "plan":
            return self.decisions.plan_batch(workloads, features)
        if self.mode == "decide":
            return self.decisions.decide_batch(workloads, features)
        report = self.engine.run_fleet(
            workloads, policy=self.config.placement_policy, features=features
        )
        return list(report.outcomes)
