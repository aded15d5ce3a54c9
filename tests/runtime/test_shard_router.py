"""Tests for the consistent-hash shard router (ISSUE 9 tentpole).

One router process fans batched decision requests out to N worker
processes, each running its own trained HeteroMap.  The properties that
make that safe: sharded decisions are **bit-identical** to the unsharded
``plan_batch`` path, repeat keys stay **shard-local** (total cache
misses across shards == distinct keys), membership changes lose **zero
requests**, and backpressure **rejects instead of dropping**.

decision_tree (the analytical model, train_samples=1) keeps worker
startup cheap; it is per-row exact, so bit-identity holds with no
canonicalization caveats.
"""

from __future__ import annotations

import asyncio
import sys

import pytest

import repro.obs as obs
from repro.core.heteromap import HeteroMap
from repro.machine.specs import DEFAULT_PAIR
from repro.runtime.deploy import prepare_workload
from repro.runtime.shard import (
    RouterConfig,
    ShardReport,
    ShardRouter,
    ShardSnapshot,
    ShardSpec,
)

SPEC = ShardSpec(fleet=DEFAULT_PAIR, predictor="decision_tree", train_samples=1)


@pytest.fixture(scope="module")
def pool():
    return [
        prepare_workload("pagerank", "facebook"),
        prepare_workload("bfs", "facebook"),
        prepare_workload("sssp_bf", "usa-cal"),
    ]


@pytest.fixture(scope="module")
def reference(pool):
    """The unsharded decision layer the router must reproduce."""
    model = HeteroMap.with_default_pair(predictor="decision_tree")
    model.train(num_samples=1, seed=0)
    return model.decisions


def make_router(**overrides) -> ShardRouter:
    defaults = dict(shards=2, max_batch=8, queue_capacity=64)
    defaults.update(overrides)
    return ShardRouter(SPEC, RouterConfig(**defaults))


class TestRouterConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"shards": 0},
            {"max_batch": 0},
            {"flush_deadline_ms": 0.0},
            {"max_batch": 8, "queue_capacity": 4},
        ],
    )
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ValueError):
            RouterConfig(**kwargs)


class TestBitIdentity:
    def test_sharded_decisions_match_plan_batch(self, pool, reference):
        requests = [pool[i % len(pool)] for i in range(60)]
        expected = reference.plan_batch(requests)
        router = make_router()
        router.launch()
        try:
            results: dict[int, tuple] = {}
            for i, workload in enumerate(requests):
                assert router.try_submit(
                    workload,
                    tag=i,
                    callback=lambda t, r, out=results: out.__setitem__(t, r),
                )
            router.wait_idle()
            assert len(results) == len(requests)
            for i, (spec, config) in enumerate(expected):
                got_spec, got_config = results[i]
                assert got_spec.name == spec.name
                assert got_config == config
        finally:
            report = router.close()
        assert report.completed == len(requests)

    def test_repeat_keys_stay_shard_local(self, pool):
        """Total misses across shards == distinct keys offered."""
        router = make_router(queue_capacity=128)
        router.launch()
        try:
            for i in range(90):
                assert router.try_submit(pool[i % len(pool)])
            router.wait_idle()
        finally:
            report = router.close()
        assert report.cache_misses == len(pool)
        # The router dedupes each flush block before shipping, so the
        # worker caches see one lookup per unique row per block: every
        # lookup after the first per key is a hit.
        assert report.cache_hits == report.unique_rows - len(pool)
        assert report.completed == 90


class TestMembership:
    def test_join_and_leave_lose_nothing(self, pool, reference):
        requests = [pool[i % len(pool)] for i in range(30)]
        expected = reference.plan_batch(requests * 3)
        router = make_router()
        router.launch()
        try:
            results: dict[int, tuple] = {}

            def offer(base):
                for i, workload in enumerate(requests):
                    assert router.try_submit(
                        workload,
                        tag=base + i,
                        callback=lambda t, r, o=results: o.__setitem__(t, r),
                    )
                router.wait_idle()

            offer(0)
            joined = router.add_shard()
            assert joined in router.shards
            assert len(router.shards) == 3
            offer(len(requests))
            retired = router.remove_shard(router.shards[0])
            assert isinstance(retired, ShardSnapshot)
            assert retired.active is False
            assert len(router.shards) == 2
            offer(2 * len(requests))

            assert len(results) == len(expected)
            for i, (spec, config) in enumerate(expected):
                assert results[i][0].name == spec.name
                assert results[i][1] == config
        finally:
            report = router.close()
        # The retired shard's counters survive into the final report.
        assert retired.shard in {s.shard for s in report.shards}
        assert report.completed == len(expected)

    def test_remove_unknown_shard_raises(self):
        router = make_router()
        router.launch()
        try:
            with pytest.raises(KeyError):
                router.remove_shard("no-such-shard")
        finally:
            router.close()


class TestBackpressure:
    def test_rejects_beyond_capacity_without_dropping(self, pool):
        router = make_router(shards=2, max_batch=8, queue_capacity=8)
        router.launch()
        try:
            # A tight burst overruns the 8-deep admission window.  How
            # many squeeze in depends on worker speed, but conservation
            # must hold: every request is either rejected at admission
            # or completed — never silently dropped.
            outcomes = [router.try_submit(pool[i % len(pool)]) for i in range(50)]
            admitted = outcomes.count(True)
            assert outcomes.count(False) >= 1
            assert router.stats.rejected == 50 - admitted
            assert router.retry_after_s() > 0.0
            router.wait_idle()
        finally:
            report = router.close()
        assert router.stats.dropped == 0
        assert report.completed == admitted

    def test_async_submit_resolves(self, pool):
        async def scenario():
            router = make_router()
            async with router:
                spec, config = await router.submit(pool[0])
                assert spec.name
                assert config.accelerator == spec.name
            return router

        router = asyncio.run(scenario())
        assert router.stats.completed == 1


class TestSharedFront:
    """What the router runs on the shared batching front."""

    def test_two_tenants_assemble_round_robin(self, pool):
        router = make_router(max_batch=6, queue_capacity=16)
        assembled: list[list[str]] = []
        dispatch = router._dispatch

        def spy(batch, flush_start):
            assembled.append([request.tag for request in batch])
            return dispatch(batch, flush_start)

        router._dispatch = spy
        router.launch()
        delivered: list[str] = []
        record = lambda tag, _r: delivered.append(tag)  # noqa: E731
        try:
            for tag in ("a1", "a2", "a3"):
                router.try_submit(pool[0], tenant="a", tag=tag, callback=record)
            for tag in ("b1", "b2"):
                router.try_submit(pool[1], tenant="b", tag=tag, callback=record)
            router.try_submit(pool[2], tenant="a", tag="a4", callback=record)
            router.wait_idle()
        finally:
            router.close()
        # The 6th admission hits max_batch; assembly alternates tenants.
        assert assembled == [["a1", "b1", "a2", "b2", "a3", "a4"]]
        assert router.stats.flush_reasons["size"] == 1
        assert sorted(delivered) == ["a1", "a2", "a3", "a4", "b1", "b2"]

    def test_burst_fills_capacity_before_size_flush(self, pool):
        """Bound to a loop, the size flush is deferred, so a burst is
        admitted up to queue_capacity before anything ships."""

        async def scenario():
            router = make_router(max_batch=4, queue_capacity=8)
            async with router:
                outcomes = [router.try_submit(pool[0]) for _ in range(10)]
                flushes_during_burst = router.stats.flushes
                retry = router.retry_after_s()
            return router, outcomes, flushes_during_burst, retry

        router, outcomes, flushes_during_burst, retry = asyncio.run(scenario())
        assert flushes_during_burst == 0
        assert outcomes.count(True) == 8
        assert outcomes.count(False) == 2
        assert router.stats.rejected == 2
        assert retry > 0
        assert router.stats.completed == 8
        assert router.stats.dropped == 0

    def test_counters_hold_under_thread_switching(self, pool):
        """Admission writes ``dispatched``, the collector ``completed``:
        with more workers than cores and a tiny switch interval, a lost
        update would strand ``pending`` above zero or lose a result."""
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            router = make_router(shards=3, max_batch=4, queue_capacity=32)
            router.launch()
            delivered: list[int] = []
            try:
                for i in range(400):
                    router.try_submit(
                        pool[i % len(pool)],
                        tenant=f"t{i % 3}",
                        tag=i,
                        callback=lambda tag, _r: delivered.append(tag),
                    )
                router.wait_idle(timeout_s=60.0)
                assert router.pending == 0
            finally:
                report = router.close()
        finally:
            sys.setswitchinterval(interval)
        stats = router.stats
        assert stats.admitted + stats.rejected == 400
        assert stats.completed == stats.admitted == len(set(delivered))
        assert report.completed == stats.admitted

    def test_requests_carry_minted_trace_ids(self, pool):
        state = obs.configure(obs.ObsConfig(enabled=True))
        try:
            router = make_router()
            router.launch()
            try:
                for i in range(6):
                    assert router.try_submit(pool[i % len(pool)], tag=i)
                router.wait_idle()
            finally:
                router.close()
            flushes = [
                r for r in state.tracer.records if r.name == "server.flush"
            ]
            trace_ids = [
                trace_id for r in flushes for trace_id in r.attrs["trace_ids"]
            ]
            assert len(trace_ids) == 6
            assert len(set(trace_ids)) == 6 and all(trace_ids)
        finally:
            obs.reset()


class TestReport:
    def test_report_shape_and_rollup(self, pool):
        router = make_router()
        router.launch()
        try:
            for i in range(24):
                assert router.try_submit(pool[i % len(pool)])
            router.wait_idle()
        finally:
            report = router.close()
        assert isinstance(report, ShardReport)
        assert len(report.shards) == 2
        assert {s.shard for s in report.shards} == {"shard-0", "shard-1"}
        assert all(s.pid > 0 for s in report.shards)
        assert report.completed == 24
        assert report.completed == sum(s.completed for s in report.shards)
        assert sum(report.device_counts.values()) >= len(pool)
        assert any("shard" in line for line in report.lines())

    def test_close_is_idempotent(self, pool):
        router = make_router()
        router.launch()
        router.try_submit(pool[0])
        router.wait_idle()
        first = router.close()
        assert router.close() is first
