"""The batching front both serving fronts share.

:class:`BatchFront` is everything between a request arriving and a batch
leaving for its decider, written once:

* **admission with backpressure** — admitted-but-unresolved requests
  (queued plus in flight) are bounded by ``queue_capacity``; beyond it
  requests are *rejected with a retry-after hint* derived from the
  measured service rate instead of queueing without bound.  Admitted
  requests are never dropped: every one resolves by flush or by
  :meth:`BatchFront.drain`;
* **dynamic batching window** — requests accumulate in per-tenant queues
  and leave as one batch when ``max_batch`` are queued or the oldest
  waited ``flush_deadline_ms``.  Bound to an event loop, the size flush
  is deferred to the next loop turn, so a catch-up burst is absorbed up
  to ``queue_capacity`` (what makes the bound real); without a loop it
  runs inline;
* **per-tenant fairness** — assembly round-robins one request per tenant
  per turn, so a bursty client saturates its own queue without starving
  the others;
* **request identity** — a trace id minted per request when ``REPRO_OBS``
  is on, and an id-keyed memo of each workload's encoded feature row;
* **completion bookkeeping** — :class:`ServerStats` (admit/reject counts,
  queue-wait and latency samples, batch occupancy), the service-rate
  EWMA behind the retry-after hint, and the ``server.*`` obs series.

A subclass supplies one thing, :meth:`BatchFront._dispatch`: serve the
assembled batch in process and return its results
(:class:`~repro.runtime.server.DecisionServer`), or ship it elsewhere and
report back through :meth:`BatchFront._complete` from another thread
(:class:`~repro.runtime.shard.router.ShardRouter`).  Counters keep
single-writer discipline across that thread boundary: the admission
thread advances the dispatched count, the completing thread advances
``stats.completed``, and their difference is the in-flight count.
"""

from __future__ import annotations

import asyncio
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro import obs
from repro.core.encoding import encode_features_batch
from repro.runtime.deploy import Workload

__all__ = [
    "FEATURE_MEMO_CAPACITY",
    "FLUSH_REASONS",
    "BatchFront",
    "FrontConfig",
    "ServerOverloadedError",
    "ServerStats",
]

#: Flush triggers, in the order the stats report them.
FLUSH_REASONS = ("size", "deadline", "drain")

#: Distinct workload *objects* whose encoded feature row is memoized (hot
#: pools re-submit the same prepared Workload, so the encode pass — the
#: single largest per-request cost — amortizes to a dict hit).  Past it
#: the memo resets: the simplest bounded policy.
FEATURE_MEMO_CAPACITY = 4096

#: Poll period while only in-flight requests (no queued ones) remain.
_IDLE_POLL_S = 0.0005


class ServerOverloadedError(RuntimeError):
    """Admission queue full: come back after ``retry_after_s`` seconds."""

    def __init__(self, retry_after_s: float, pending: int) -> None:
        super().__init__(
            f"admission queue full ({pending} pending); "
            f"retry after {retry_after_s:.4f}s"
        )
        self.retry_after_s = retry_after_s
        self.pending = pending


@dataclass(frozen=True)
class FrontConfig:
    """The batching-window knobs every serving front shares."""

    #: Flush as soon as this many requests are queued.
    max_batch: int = 256
    #: ... or when the oldest queued request has waited this long.
    flush_deadline_ms: float = 2.0
    #: Admitted-but-unresolved requests (all tenants, queued plus in
    #: flight) before admission rejects.  Bounds how large an arrival
    #: burst the window absorbs between event loop turns; beyond it,
    #: requests are refused with a retry-after hint.
    queue_capacity: int = 8192

    def __post_init__(self) -> None:
        if self.max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {self.max_batch}")
        if self.flush_deadline_ms <= 0:
            raise ValueError(
                f"flush_deadline_ms must be > 0, got {self.flush_deadline_ms}"
            )
        if self.queue_capacity < self.max_batch:
            raise ValueError(
                "queue_capacity must be >= max_batch, got "
                f"{self.queue_capacity} < {self.max_batch}"
            )


@dataclass
class ServerStats:
    """Monotonic counters plus raw latency samples for one front."""

    admitted: int = 0
    rejected: int = 0
    completed: int = 0
    #: Admitted requests that will never resolve.  Stays 0 unless the
    #: front is stopped with ``flush=False`` — rejection is the only
    #: load-shedding mechanism, never silent drops.
    dropped: int = 0
    flushes: int = 0
    flush_reasons: dict[str, int] = field(
        default_factory=lambda: {reason: 0 for reason in FLUSH_REASONS}
    )
    #: Per-request decision latency (admission → result), milliseconds.
    latencies_ms: list[float] = field(default_factory=list)
    #: Per-request queue wait (admission → flush start), milliseconds.
    queue_waits_ms: list[float] = field(default_factory=list)
    #: Requests per flush (batch occupancy).
    batch_sizes: list[int] = field(default_factory=list)
    #: Per-tenant decision-latency samples (ms) — the raw series the
    #: serve artifact's per-tenant p99 lines are derived from.
    tenant_latencies_ms: dict[str, list[float]] = field(default_factory=dict)

    def latency_percentile(self, q: float) -> float:
        """The q-th percentile of decision latency in ms (0 when empty)."""
        if not self.latencies_ms:
            return 0.0
        return float(np.percentile(self.latencies_ms, q))

    def tenant_latency_percentile(self, tenant: str, q: float) -> float:
        """One tenant's q-th latency percentile in ms (0 when unseen)."""
        samples = self.tenant_latencies_ms.get(tenant)
        if not samples:
            return 0.0
        return float(np.percentile(samples, q))

    def queue_wait_percentile(self, q: float) -> float:
        """The q-th percentile of queue wait in ms (0 when empty)."""
        if not self.queue_waits_ms:
            return 0.0
        return float(np.percentile(self.queue_waits_ms, q))

    @property
    def mean_batch(self) -> float:
        """Mean flush occupancy (0.0 before the first flush)."""
        if not self.batch_sizes:
            return 0.0
        return sum(self.batch_sizes) / len(self.batch_sizes)


class _Request:
    """One admitted request (slotted: this is allocated per arrival)."""

    __slots__ = ("tag", "workload", "arrival_s", "callback", "tenant", "trace")

    def __init__(self, tag, workload, arrival_s, callback, tenant, trace) -> None:
        self.tag = tag
        self.workload = workload
        self.arrival_s = arrival_s
        self.callback = callback
        self.tenant = tenant
        self.trace = trace  # TraceContext | None (None when obs is off)


def _set_result(future, result) -> None:
    if not future.done():
        future.set_result(result)


class BatchFront:
    """Admission, batching window, fairness and stats for one front.

    Subclasses implement :meth:`_dispatch` and may override
    :meth:`_encode_row` (how a workload becomes a feature row) and
    :meth:`_check_health` (raise when the front can no longer serve).
    """

    #: What a request resolves to (``"plan"``, ``"decide"`` or ``"run"``);
    #: labels the ``server.flush`` span and the routed-device counters.
    mode = "plan"
    #: Whether :meth:`_complete` runs on the event-loop thread.  A front
    #: completing from another thread resolves awaited futures through
    #: ``call_soon_threadsafe``.
    completes_on_loop = True
    #: Whether completion streams per-request obs series (latency and
    #: queue-wait histograms, queue-wait spans, SLO samples, routed
    #: counters) or only per-batch ones.  They cost several µs per
    #: request, paid in the front's own process — for a front whose job
    #: is to spread work across processes that is the bottleneck.
    observe_requests = True

    def __init__(
        self, config: FrontConfig, *, clock: Callable[[], float] = time.monotonic
    ) -> None:
        self.config = config
        self.clock = clock
        self.stats = ServerStats()
        self._queues: dict[str, deque[_Request]] = {}
        self._rr: deque[str] = deque()  # tenant round-robin rotation
        self._queued = 0
        self._dispatched = 0  # written only by the admission thread
        self._loop = None  # captured on start()
        self._timer = None  # armed deadline flush, if any
        self._size_flush_scheduled = False  # call_soon size flush armed
        #: EWMA of flush service rate (requests/sec) for retry-after hints.
        self._service_rate = 0.0
        # id(workload) -> (workload, encoded row); the workload reference
        # keeps the id stable, so the identity check below is exact.
        self._feature_memo: dict[int, tuple[Workload, np.ndarray]] = {}

    # -- subclass hooks ----------------------------------------------------

    def _dispatch(self, batch: list[_Request], flush_start: float) -> list | None:
        """Serve one assembled batch.

        Returns the per-request results in batch order, or ``None`` when
        they arrive later through :meth:`_complete` (called with this
        ``flush_start``).
        """
        raise NotImplementedError

    def _encode_row(self, workload: Workload) -> np.ndarray:
        """One workload's discretized ``(17,)`` feature row."""
        return encode_features_batch([(workload.bvars, workload.ivars)])[0]

    def _check_health(self) -> None:
        """Raise when the front can no longer serve (no-op by default)."""

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> "BatchFront":
        """Bind to the running event loop (idempotent).

        Must be called from within a running loop before requests are
        submitted; ``async with front`` does it for you.
        """
        loop = asyncio.get_running_loop()
        if self._loop is not None and self._loop is not loop:
            raise RuntimeError(
                f"{type(self).__name__} already bound to a different loop"
            )
        self._loop = loop
        return self

    async def __aenter__(self) -> "BatchFront":
        return self.start()

    async def __aexit__(self, *exc) -> None:
        await self.stop()

    async def stop(self, *, flush: bool = True) -> None:
        """Cancel the deadline timer; drain (default) or drop the queue."""
        self._cancel_timer()
        if flush:
            await self.drain()
        else:
            for queue in self._queues.values():
                self.stats.dropped += len(queue)
                queue.clear()
            self._queued = 0

    async def drain(self) -> None:
        """Flush until every admitted request has resolved."""
        while self.pending:
            self._check_health()
            if self._queued:
                self._flush("drain")
                await asyncio.sleep(0)
            else:
                await asyncio.sleep(_IDLE_POLL_S)
        self._check_health()

    def wait_idle(self, *, timeout_s: float = 60.0) -> None:
        """Synchronous :meth:`drain` for loop-less callers (benches)."""
        deadline = time.monotonic() + timeout_s
        while self.pending:
            self._check_health()
            if self._queued:
                self._flush("drain")
                continue
            if time.monotonic() >= deadline:
                raise TimeoutError(
                    f"{self.pending} requests still pending after "
                    f"{timeout_s:.0f}s"
                )
            time.sleep(_IDLE_POLL_S)
        self._check_health()

    def flush_now(self) -> int:
        """Force one flush (tests / closed-loop probes); returns its size."""
        if not self._queued:
            return 0
        return self._flush("drain")

    # -- admission ---------------------------------------------------------

    @property
    def pending(self) -> int:
        """Requests admitted but not yet resolved (queued + in flight)."""
        return self._queued + self._dispatched - self.stats.completed

    def retry_after_s(self) -> float:
        """Backpressure hint: time for the backlog to drain at the
        measured service rate (one deadline window before any flush has
        calibrated the rate)."""
        if self._service_rate <= 0.0:
            return self.config.flush_deadline_ms / 1e3
        return max(
            self.config.flush_deadline_ms / 1e3,
            self.pending / self._service_rate,
        )

    def try_submit(
        self,
        workload: Workload,
        *,
        tenant: str = "default",
        tag=None,
        callback: Callable | None = None,
        arrival_s: float | None = None,
    ) -> bool:
        """Admit one request without allocating a future (the fast path).

        Args:
            workload: a prepared workload.
            tenant: fairness bucket the request queues under.
            tag: opaque token handed back to ``callback``.
            callback: called exactly once as ``callback(tag, result)``
                when the request's batch completes.
            arrival_s: override the admission timestamp (front clock
                domain) — open-loop drivers pass the *scheduled* arrival
                so catch-up submission can't hide queueing delay.

        Returns:
            True when admitted; False when rejected by backpressure
            (the caller should retry after :meth:`retry_after_s`).
        """
        self._check_health()
        if self.pending >= self.config.queue_capacity:
            self.stats.rejected += 1
            if obs.enabled():
                obs.counter("server.rejected")
            return False
        self.stats.admitted += 1
        request = _Request(
            tag,
            workload,
            self.clock() if arrival_s is None else arrival_s,
            callback,
            tenant,
            obs.mint_trace() if obs.enabled() else None,
        )
        queue = self._queues.get(tenant)
        if queue is None:
            queue = self._queues[tenant] = deque()
            self._rr.append(tenant)
        queue.append(request)
        self._queued += 1
        if self._queued >= self.config.max_batch:
            # Bound to a loop, the size flush is *deferred* to the next
            # loop turn instead of running inline: a catch-up burst can
            # then keep admitting until ``queue_capacity`` — which is what
            # makes the bounded queue (and rejection) real — and the
            # backlog drains in max_batch chunks once the burst yields.
            # Without a loop (synchronous callers) the flush runs inline.
            if self._loop is None:
                self._flush("size")
            elif not self._size_flush_scheduled:
                self._size_flush_scheduled = True
                self._loop.call_soon(self._on_size_flush)
        elif self._timer is None:
            self._arm_timer()
        return True

    async def submit(self, workload: Workload, *, tenant: str = "default"):
        """Admit one request and await its result.

        Raises:
            ServerOverloadedError: when backpressure rejects the request;
                carries the ``retry_after_s`` hint.
        """
        if self._loop is None:
            self.start()
        loop = self._loop
        future = loop.create_future()
        if self.completes_on_loop:
            def resolve(_tag, result, fut=future):
                _set_result(fut, result)
        else:
            def resolve(_tag, result, fut=future):
                loop.call_soon_threadsafe(_set_result, fut, result)
        if not self.try_submit(workload, tenant=tenant, callback=resolve):
            raise ServerOverloadedError(self.retry_after_s(), self.pending)
        return await future

    # -- batching window ---------------------------------------------------

    def _arm_timer(self) -> None:
        if self._loop is None:
            return  # unbound (pure synchronous use): flush on size/drain
        self._timer = self._loop.call_later(
            self.config.flush_deadline_ms / 1e3, self._on_deadline
        )

    def _cancel_timer(self) -> None:
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None

    def _on_deadline(self) -> None:
        self._timer = None
        if self._queued:
            self._flush("deadline")

    def _on_size_flush(self) -> None:
        self._size_flush_scheduled = False
        while self._queued >= self.config.max_batch:
            self._flush("size")

    def _assemble(self) -> list[_Request]:
        """Take up to ``max_batch`` queued requests, fairly.

        Single active tenant drains FIFO (the fast path); multiple
        tenants alternate one request per tenant per turn, so each of
        ``k`` backlogged tenants gets ~``max_batch / k`` of every flush
        no matter how deep one tenant's queue is.
        """
        count = min(self._queued, self.config.max_batch)
        batch: list[_Request] = []
        rotation = self._rr
        if len(rotation) == 1:
            queue = self._queues[rotation[0]]
            for _ in range(count):
                batch.append(queue.popleft())
        else:
            while len(batch) < count:
                tenant = rotation[0]
                rotation.rotate(-1)
                queue = self._queues[tenant]
                if queue:
                    batch.append(queue.popleft())
        self._queued -= len(batch)
        return batch

    def _encode_batch(self, batch: list[_Request]) -> np.ndarray:
        """The batch's feature matrix, via the per-workload row memo."""
        memo = self._feature_memo
        rows = []
        for request in batch:
            workload = request.workload
            entry = memo.get(id(workload))
            if entry is None or entry[0] is not workload:
                row = self._encode_row(workload)
                if len(memo) >= FEATURE_MEMO_CAPACITY:
                    memo.clear()  # epoch reset: simplest bounded policy
                memo[id(workload)] = (workload, row)
            else:
                row = entry[1]
            rows.append(row)
        # One flat copy, reshaped: several times cheaper than np.vstack,
        # which re-validates every row array.
        return np.concatenate(rows).reshape(len(rows), -1)

    def _flush(self, reason: str) -> int:
        """Assemble one batch and hand it to :meth:`_dispatch`."""
        self._cancel_timer()
        batch = self._assemble()
        if not batch:
            return 0
        flush_start = self.clock()
        stats = self.stats
        stats.flushes += 1
        stats.flush_reasons[reason] += 1
        stats.batch_sizes.append(len(batch))
        self._dispatched += len(batch)
        try:
            if obs.enabled():
                obs.counter("server.flush", reason=reason)
                obs.histogram("server.batch_occupancy", len(batch))
                # Row-aligned request scope: every span below (flush,
                # decide, predict, place, execute) carries the batch's
                # trace ids, and the decision layer can attribute cache
                # hits per row.
                with obs.trace_scope([r.trace for r in batch]), obs.span(
                    "server.flush",
                    reason=reason,
                    batch=len(batch),
                    mode=self.mode,
                ):
                    results = self._dispatch(batch, flush_start)
            else:
                results = self._dispatch(batch, flush_start)
        except BaseException:
            self._dispatched -= len(batch)  # the batch never went out
            raise
        if results is not None:
            self._complete(batch, results, flush_start)
        # The deadline clock restarts for whatever arrived mid-flush.
        if self._queued and self._timer is None:
            self._arm_timer()
        return len(batch)

    # -- completion --------------------------------------------------------

    def _complete(
        self,
        batch: list[_Request],
        results: list,
        flush_start: float,
    ) -> None:
        """Account one served batch and deliver its results.

        Runs on whichever thread finished the batch; it is the only
        writer of ``stats.completed`` and of the latency samples.
        ``completed`` advances after every callback has fired, so a
        drained front has delivered everything.
        """
        done = self.clock()
        stats = self.stats
        waits = [(flush_start - request.arrival_s) * 1e3 for request in batch]
        lats = [(done - request.arrival_s) * 1e3 for request in batch]
        stats.queue_waits_ms.extend(waits)
        stats.latencies_ms.extend(lats)
        tenant_lats = stats.tenant_latencies_ms
        for request, latency in zip(batch, lats):
            per_tenant = tenant_lats.get(request.tenant)
            if per_tenant is None:
                per_tenant = tenant_lats[request.tenant] = []
            per_tenant.append(latency)
        elapsed = done - flush_start
        if elapsed > 0:
            rate = len(batch) / elapsed
            self._service_rate = (
                rate
                if self._service_rate <= 0.0
                else 0.8 * self._service_rate + 0.2 * rate
            )
        if obs.enabled():
            self._observe(batch, results, flush_start, waits, lats)
        for request, result in zip(batch, results):
            if request.callback is not None:
                request.callback(request.tag, result)
        stats.completed += len(batch)

    def _devices(self, results: list) -> list[str]:
        """Per-row routed device names (the serving "shard" label)."""
        if self.mode == "plan":
            return [spec.name for spec, _config in results]
        if self.mode == "decide":
            return [decision.spec.name for decision in results]
        return [outcome.chosen_accelerator for outcome in results]

    def _observe(
        self,
        batch: list[_Request],
        results: list,
        flush_start: float,
        waits: list[float],
        lats: list[float],
    ) -> None:
        """Stream one completed batch into the obs registry."""
        obs.counter("server.admitted", len(batch))
        if self.observe_requests:
            routed: dict[tuple[str, str], int] = {}
            for request, device, wait, latency in zip(
                batch, self._devices(results), waits, lats
            ):
                obs.histogram("server.queue_wait_ms", wait)
                obs.histogram("server.decision_latency_ms", latency)
                obs.histogram(
                    "server.tenant_latency_ms", latency, tenant=request.tenant
                )
                key = (request.tenant, device)
                routed[key] = routed.get(key, 0) + 1
                if request.trace is not None:
                    obs.record_span(
                        "server.queue_wait",
                        start_s=request.arrival_s,
                        end_s=flush_start,
                        trace_id=request.trace.trace_id,
                        tenant=request.tenant,
                    )
                obs.slo_observe("queue_wait_ms", wait)
                obs.slo_observe("decision_latency_ms", latency)
            for (tenant, device), count in sorted(routed.items()):
                obs.counter(
                    "server.requests", count, tenant=tenant, shard=device
                )
        # This batch is resolved; ``completed`` just hasn't caught up.
        obs.gauge("server.pending", self.pending - len(batch))
        obs.gauge("server.service_rate_per_sec", self._service_rate)
