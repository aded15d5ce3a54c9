"""In-process serving front: dynamic batching over one decision service.

:class:`DecisionServer` is the single-process
:class:`~repro.runtime.front.BatchFront`: admission with backpressure,
the dynamic batching window, per-tenant round-robin, trace minting, the
feature-row memo and the stats all come from the shared front.  What the
server adds is its dispatch step — it serves each assembled batch in
process through one
:class:`~repro.runtime.engine.decision.DecisionService`, according to
``ServerConfig.mode``:

* ``"plan"`` — memoized feature rows through ``choose_encoded`` (one
  cache-deduped ``predict_batch`` forward); resolves to ``(spec,
  config)``;
* ``"decide"`` — ``decide_batch``; resolves to a fleet-costed
  ``Decision``;
* ``"run"`` — decide, place through the scheduler, execute on the
  backend and audit; resolves to a ``RunOutcome``.

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

from repro import obs
from repro.runtime.deploy import Workload
from repro.runtime.engine.contracts import RunOutcome
from repro.runtime.engine.decision import DecisionService
from repro.runtime.engine.execution import ExecutionBackend, SimulatedBackend
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
        self.backend: ExecutionBackend = backend or SimulatedBackend()
        #: Placement layer for ``"run"`` flushes; defaults to a scheduler
        #: over the decision service's own fleet.
        self.scheduler = scheduler or Scheduler(decisions.fleet)

    def _encode_row(self, workload: Workload) -> np.ndarray:
        return self.decisions.encode([workload])[0]

    def _dispatch(self, batch: list[_Request], flush_start: float) -> list:
        """Decide one assembled batch in process, per the configured mode."""
        mode = self.mode
        if mode == "plan":
            entries = self.decisions.choose_encoded(self._encode_batch(batch))
            return [(entry.spec, entry.config) for entry in entries]
        workloads = [request.workload for request in batch]
        decisions = self.decisions.decide_batch(workloads)
        if mode == "decide":
            return decisions
        overhead_ms = self.decisions.require_trained()
        # Run mode routes through the placement layer.  Under the default
        # "solo" policy every placement is the chosen estimate in input
        # order, so outcomes are bit-identical to executing decisions
        # directly — the scheduler only adds the placement span/metrics
        # and, under a fleet policy, load-aware device assignment.
        placements = self.scheduler.place(
            decisions, policy=self.config.placement_policy
        )
        outcomes: list[RunOutcome | None] = [None] * len(batch)
        for placement in placements:
            deployed = placement.deployed
            request = batch[placement.order]
            # Traces are only minted with obs on; without one, the span is
            # the shared no-op and audit() only feeds the online adapter
            # (when one is attached).
            scope = (
                obs.trace_scope((request.trace,))
                if request.trace is not None
                else contextlib.nullcontext()
            )
            with scope:
                with obs.span(
                    "backend.execute",
                    device=deployed.spec.name,
                    backend=self.backend.name,
                    tenant=request.tenant,
                ):
                    result = self.backend.execute(
                        placement.decision.workload,
                        deployed.spec,
                        deployed.config,
                    )
                self.decisions.audit(
                    placement.decision, deployed.spec, deployed.config, result
                )
            outcomes[placement.order] = RunOutcome.from_execution(
                placement.decision.workload,
                deployed.spec,
                deployed.config,
                result,
                overhead_ms,
            )
        return outcomes
