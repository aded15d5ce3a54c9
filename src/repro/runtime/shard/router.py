"""Shard router: consistent-hash dispatch over N worker processes.

:class:`ShardRouter` is the multi-process
:class:`~repro.runtime.front.BatchFront`.  Admission, backpressure, the
batching window, per-tenant round-robin, trace minting, the feature-row
memo and the stats are the shared front's, so ``run_open_loop`` and the
serve CLI drive it exactly like the in-process
:class:`~repro.runtime.server.DecisionServer`.  What the router adds is
where a flushed batch goes:

* **shard dispatch** — the batch's feature rows are deduped
  (:func:`~repro.runtime.serving.unique_rows`) and each unique row is
  routed by its canonical byte image through a
  :class:`~repro.runtime.shard.ring.HashRing`, so equal workloads always
  hit the shard whose decision cache already holds their entry — repeat
  decisions stay shard-local by construction;
* **block protocol** — each owning shard receives one flush block: its
  unique feature rows as one ``(u, 17)`` float64 matrix plus an
  ``int32`` inverse index, over a multiprocessing queue.  IPC cost
  scales with flushes and unique keys, never with requests.  One
  collector thread drains the shared reply queue, fans block results
  back out through the front's completion path, and folds worker exits
  into the cross-shard :class:`ShardReport`;
* **membership** — :meth:`ShardRouter.add_shard` and
  :meth:`ShardRouter.remove_shard` re-ring live traffic with the ring's
  bounded-movement guarantee (~K/N keys remapped).  Routing happens at
  flush time, so a leaving shard only has to drain the blocks already
  shipped to it; admitted requests never drop.

Decisions are bit-identical to the unsharded ``plan_batch`` path:
workers train the same predictor from the same :class:`ShardSpec` seed,
and the block protocol moves feature rows and plans verbatim.
"""

from __future__ import annotations

import multiprocessing
import os
import threading
import time
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from repro import obs
from repro.machine.specs import AcceleratorSpec, get_accelerator
from repro.runtime.front import BatchFront, FrontConfig, _Request
from repro.runtime.serving import unique_rows
from repro.runtime.shard.ring import HashRing
from repro.runtime.shard.worker import ShardSpec, shard_worker_main

__all__ = [
    "RouterConfig",
    "ShardReport",
    "ShardRouter",
    "ShardSnapshot",
    "ShardSpec",
    "ShardWorkerError",
]


class ShardWorkerError(RuntimeError):
    """A shard worker died; carries the worker-side traceback."""

    def __init__(self, shard: str, details: str) -> None:
        super().__init__(f"shard worker {shard!r} failed:\n{details}")
        self.shard = shard
        self.details = details


#: Seconds to wait for a worker to train and signal ready.
READY_TIMEOUT_S = 120.0


@dataclass(frozen=True)
class RouterConfig(FrontConfig):
    """Tuning knobs for one :class:`ShardRouter` (batching window fields
    from :class:`~repro.runtime.front.FrontConfig`)."""

    #: Worker processes to launch (ring members at startup).
    shards: int = 2
    #: multiprocessing start method; ``None`` uses the platform default
    #: (fork on Linux — workers still rebuild state from the spec, so
    #: behavior is start-method agnostic).
    start_method: str | None = None

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.shards < 1:
            raise ValueError(f"shards must be >= 1, got {self.shards}")


@dataclass(frozen=True)
class ShardSnapshot:
    """One shard's final accounting inside a :class:`ShardReport`."""

    shard: str
    pid: int
    active: bool
    completed: int
    flushes: int
    unique_rows: int
    mean_batch: float
    max_batch: int
    decide_s: float
    cache_hits: int
    cache_misses: int
    cache_evictions: int
    cache_entries: int
    device_counts: dict[str, int]

    @property
    def cache_hit_rate(self) -> float:
        """Decision-cache hit ratio (0.0 before any lookup)."""
        total = self.cache_hits + self.cache_misses
        return self.cache_hits / total if total else 0.0


@dataclass(frozen=True)
class ShardReport:
    """The cross-shard rollup: every shard's snapshot plus the totals.

    ``shards`` includes retired members (``active=False``) so a
    join/leave run still accounts for every decision that was served.
    """

    shards: tuple[ShardSnapshot, ...]
    completed: int
    flushes: int
    unique_rows: int
    cache_hits: int
    cache_misses: int
    device_counts: dict[str, int]

    @property
    def cache_hit_rate(self) -> float:
        total = self.cache_hits + self.cache_misses
        return self.cache_hits / total if total else 0.0

    def lines(self) -> list[str]:
        """Human-readable rollup, one line per shard plus a total."""
        out = []
        for snap in self.shards:
            state = "" if snap.active else " (retired)"
            out.append(
                f"{snap.shard}{state}: completed={snap.completed} "
                f"flushes={snap.flushes} mean_batch={snap.mean_batch:.1f} "
                f"cache_hit_rate={snap.cache_hit_rate:.3f} "
                f"devices={snap.device_counts}"
            )
        out.append(
            f"total: completed={self.completed} flushes={self.flushes} "
            f"unique_rows={self.unique_rows} "
            f"cache_hit_rate={self.cache_hit_rate:.3f} "
            f"devices={self.device_counts}"
        )
        return out


class _ShardHandle:
    """Router-side state for one worker process."""

    __slots__ = (
        "name",
        "process",
        "request_queue",
        "dispatched",
        "completed",
        "ready_meta",
        "ready_event",
        "stopped_event",
        "final_stats",
    )

    def __init__(self, name, process, request_queue):
        self.name = name
        self.process = process
        self.request_queue = request_queue
        # Single-writer counters: ``dispatched`` is written only by the
        # admission thread, ``completed`` only by the collector; their
        # difference is the shard's in-flight count without a lock.
        self.dispatched = 0
        self.completed = 0
        self.ready_meta: dict | None = None
        self.ready_event = threading.Event()
        self.stopped_event = threading.Event()
        self.final_stats: dict | None = None

    @property
    def inflight(self) -> int:
        return self.dispatched - self.completed


def _snapshot(name: str, stats: dict, *, active: bool) -> ShardSnapshot:
    """A :class:`ShardSnapshot` from a worker's final stats (0 if absent)."""
    return ShardSnapshot(
        shard=name,
        pid=stats.get("pid", 0),
        active=active,
        completed=stats.get("completed", 0),
        flushes=stats.get("flushes", 0),
        unique_rows=stats.get("unique_rows", 0),
        mean_batch=stats.get("mean_batch", 0.0),
        max_batch=stats.get("max_batch", 0),
        decide_s=stats.get("decide_s", 0.0),
        cache_hits=stats.get("cache_hits", 0),
        cache_misses=stats.get("cache_misses", 0),
        cache_evictions=stats.get("cache_evictions", 0),
        cache_entries=stats.get("cache_entries", 0),
        device_counts=dict(stats.get("device_counts", {})),
    )


def _shard_obs_env(name: str) -> str | None:
    """This shard's ``REPRO_OBS`` value: jsonl streams fork per shard.

    ``jsonl:runs/obs.jsonl`` becomes ``jsonl:runs/obs-<shard>.jsonl`` so
    N workers never interleave writes into one file; every other setting
    (off / in-memory) passes through unchanged.
    """
    raw = os.environ.get(obs.ENV_VAR)
    if not raw:
        return None
    mode, _, path = raw.partition(":")
    if mode != "jsonl":
        return raw
    stem, suffix = os.path.splitext(path or obs.DEFAULT_JSONL_PATH)
    return f"jsonl:{stem}-{name}{suffix or '.jsonl'}"


class ShardRouter(BatchFront):
    """Consistent-hash dispatch from one batching front to N shard workers.

    Speaks the :class:`~repro.runtime.front.BatchFront` serving surface
    (``start`` / ``try_submit`` / ``submit`` / ``drain`` / ``wait_idle``
    / ``stats`` / ``clock``), so the open-loop load generator and the
    serve CLI drive it interchangeably with the in-process server.
    Results are always *plans* — ``(AcceleratorSpec, MachineConfig)`` —
    the same thing the server's ``"plan"`` mode resolves to.  Callbacks
    fire from the collector thread.
    """

    completes_on_loop = False
    # Per-request obs series in the admission process would cost more
    # than routing itself; flush-level series and trace ids stay on.
    observe_requests = False

    def __init__(
        self,
        spec: ShardSpec,
        config: RouterConfig | None = None,
        *,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        super().__init__(config or RouterConfig(), clock=clock)
        self.spec = spec
        self.ring = HashRing()
        self._handles: dict[str, _ShardHandle] = {}
        self._retired: list[ShardSnapshot] = []
        self._next_index = 0
        self._next_block = 0
        # block_id -> (handle, requests, flush_start); distinct-key dict
        # ops from two threads are safe under the GIL.
        self._blocks: dict[int, tuple[_ShardHandle, list[_Request], float]] = {}
        self._failure: ShardWorkerError | None = None
        self._spec_memo: dict[str, AcceleratorSpec] = {}
        self._mp = multiprocessing.get_context(self.config.start_method)
        self._reply_queue = self._mp.Queue()
        self._collector: threading.Thread | None = None
        self._launched = False
        self._closed = False
        self._report: ShardReport | None = None

    # -- lifecycle ---------------------------------------------------------

    def launch(self) -> "ShardRouter":
        """Spawn the initial shard fleet and wait for every ready signal.

        Workers train their predictors before signalling ready, so this
        blocks for N trainings' worth of wall clock (they overlap when
        the host has cores to spare).  Idempotent.
        """
        if self._launched:
            return self
        self._launched = True
        self._collector = threading.Thread(
            target=self._collect, name="shard-router-collector", daemon=True
        )
        self._collector.start()
        handles = [self._spawn() for _ in range(self.config.shards)]
        self._await_ready(handles)
        for handle in handles:
            self.ring.add(handle.name)
        return self

    def start(self) -> "ShardRouter":
        """Launch if needed, then bind to the running event loop."""
        self.launch()
        return super().start()

    async def stop(self, *, flush: bool = True) -> None:
        """Drain (default) or drop the queue, then stop every worker."""
        await super().stop(flush=flush)
        self.close()

    def _spawn(self) -> _ShardHandle:
        name = f"shard-{self._next_index}"
        self._next_index += 1
        request_queue = self._mp.Queue()
        process = self._mp.Process(
            target=shard_worker_main,
            args=(
                name,
                self.spec,
                request_queue,
                self._reply_queue,
                _shard_obs_env(name),
            ),
            name=f"repro-{name}",
            daemon=True,
        )
        handle = _ShardHandle(name, process, request_queue)
        self._handles[name] = handle
        process.start()
        return handle

    def _await_ready(self, handles: Sequence[_ShardHandle]) -> None:
        deadline = time.monotonic() + READY_TIMEOUT_S
        for handle in handles:
            remaining = deadline - time.monotonic()
            if not handle.ready_event.wait(max(0.0, remaining)):
                self._check_health()
                raise TimeoutError(
                    f"shard {handle.name!r} not ready within "
                    f"{READY_TIMEOUT_S:.0f}s"
                )
            self._check_health()

    def _check_health(self) -> None:
        """Raise the first worker failure (a dead shard ends serving)."""
        if self._failure is not None:
            raise self._failure

    # -- membership --------------------------------------------------------

    @property
    def shards(self) -> tuple[str, ...]:
        """Active shard names, sorted."""
        return self.ring.shards

    def add_shard(self) -> str:
        """Join one new shard: spawn, train, then take ring ownership.

        The new member only enters the ring after it signals ready, so
        no request ever routes to a shard that can't serve it.  Returns
        the new shard's name.
        """
        self._check_health()
        handle = self._spawn()
        self._await_ready([handle])
        self.ring.add(handle.name)
        return handle.name

    def remove_shard(self, name: str, *, timeout_s: float = 30.0) -> ShardSnapshot:
        """Retire one shard with zero request loss.

        Order matters: the shard leaves the ring first (queued and new
        traffic reroutes under the ring's bounded-movement guarantee),
        then its in-flight blocks drain, and only then does the worker
        stop.  The retired shard's final snapshot stays in the close-time
        report.

        Raises:
            KeyError: for an unknown or already-retired shard.
        """
        handle = self._handles.get(name)
        if handle is None:
            raise KeyError(f"unknown shard {name!r}")
        self.ring.remove(name)
        deadline = time.monotonic() + timeout_s
        while handle.inflight and time.monotonic() < deadline:
            self._check_health()
            time.sleep(0.0005)
        if handle.inflight:
            raise TimeoutError(
                f"shard {name!r} still has {handle.inflight} in-flight "
                f"requests after {timeout_s:.0f}s"
            )
        snapshot = self._stop_worker(handle, timeout_s=timeout_s)
        self._retired.append(snapshot)
        del self._handles[name]
        return snapshot

    def _stop_worker(
        self, handle: _ShardHandle, *, timeout_s: float, active: bool = False
    ) -> ShardSnapshot:
        handle.request_queue.put(("stop",))
        if not handle.stopped_event.wait(timeout_s):
            self._check_health()
            raise TimeoutError(f"shard {handle.name!r} did not stop")
        handle.process.join(timeout_s)
        handle.request_queue.close()
        return _snapshot(handle.name, handle.final_stats or {}, active=active)

    # -- dispatch ----------------------------------------------------------

    def _dispatch(self, batch: list[_Request], flush_start: float) -> None:
        """Split one batch by ring owner and ship a block to each owner.

        The batch's rows are deduped once and each unique row is looked
        up on the ring once; a block carries its shard's unique rows (in
        first-occurrence order) plus the int32 inverse mapping each of
        its requests to one of them.  Results arrive on the collector.
        """
        rows, inverse = unique_rows(self._encode_batch(batch))
        owners = [self.ring.lookup(row) for row in rows]
        for name in sorted(set(owners)):
            mine = np.array([owner == name for owner in owners])
            positions = np.flatnonzero(mine[inverse])
            block_row = np.cumsum(mine, dtype=np.int32) - 1
            handle = self._handles[name]
            block_id = self._next_block
            self._next_block += 1
            requests = [batch[p] for p in positions.tolist()]
            self._blocks[block_id] = (handle, requests, flush_start)
            handle.dispatched += len(requests)
            handle.request_queue.put(
                ("block", block_id, rows[mine], block_row[inverse[positions]])
            )

    # -- collector ---------------------------------------------------------

    def _resolve_spec(self, name: str) -> AcceleratorSpec:
        spec = self._spec_memo.get(name)
        if spec is None:
            spec = self._spec_memo[name] = get_accelerator(name)
        return spec

    def _collect(self) -> None:
        """Reply-queue loop: complete blocks, track worker lifecycle."""
        while True:
            message = self._reply_queue.get()
            kind = message[0]
            if kind == "close":
                return
            if kind == "ready":
                _, name, meta = message
                handle = self._handles[name]
                handle.ready_meta = meta
                handle.ready_event.set()
            elif kind == "result":
                _, _name, block_id, plans, inverse = message
                handle, requests, flush_start = self._blocks.pop(block_id)
                resolved = [
                    (self._resolve_spec(device), config)
                    for device, config in plans
                ]
                self._complete(
                    requests,
                    [resolved[row] for row in inverse.tolist()],
                    flush_start,
                )
                handle.completed += len(requests)
            elif kind == "stopped":
                _, name, final = message
                handle = self._handles.get(name)
                if handle is not None:
                    handle.final_stats = final
                    handle.stopped_event.set()
            elif kind == "error":
                _, name, details = message
                self._failure = ShardWorkerError(name, details)
                # Unblock anyone waiting on ready/stopped; they re-check
                # the failure and raise it with the worker traceback.
                for handle in self._handles.values():
                    handle.ready_event.set()
                    handle.stopped_event.set()

    # -- shutdown ----------------------------------------------------------

    def close(self, *, timeout_s: float = 30.0) -> ShardReport:
        """Stop every worker and return the cross-shard report.

        Queued requests are shipped and drained first (zero drops);
        call :meth:`drain` / :meth:`wait_idle` yourself if you need the
        drain to happen under an event loop.  Idempotent — a second
        close returns the same report.
        """
        if self._closed:
            return self._report
        self._closed = True
        self._cancel_timer()
        if self._failure is None and self._launched:
            try:
                self.wait_idle(timeout_s=timeout_s)
            except (TimeoutError, ShardWorkerError):
                pass  # report what we can; failure re-raises below
        snapshots: list[ShardSnapshot] = []
        for handle in list(self._handles.values()):
            if self._failure is None:
                # Shards alive at close time report active=True; only
                # mid-run remove_shard() retirees report active=False.
                snapshot = self._stop_worker(
                    handle, timeout_s=timeout_s, active=True
                )
            else:
                handle.process.terminate()
                handle.process.join(timeout_s)
                snapshot = _snapshot(
                    handle.name, {"completed": handle.completed}, active=True
                )
            snapshots.append(snapshot)
        self._handles.clear()
        self._reply_queue.put(("close",))
        if self._collector is not None:
            self._collector.join(timeout_s)
        self._reply_queue.close()
        device_counts: dict[str, int] = {}
        all_snaps = tuple(self._retired) + tuple(snapshots)
        for snap in all_snaps:
            for device, count in snap.device_counts.items():
                device_counts[device] = device_counts.get(device, 0) + count
        self._report = ShardReport(
            shards=all_snaps,
            completed=sum(s.completed for s in all_snaps),
            flushes=sum(s.flushes for s in all_snaps),
            unique_rows=sum(s.unique_rows for s in all_snaps),
            cache_hits=sum(s.cache_hits for s in all_snaps),
            cache_misses=sum(s.cache_misses for s in all_snaps),
            device_counts=device_counts,
        )
        self._check_health()
        return self._report
