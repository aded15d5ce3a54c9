"""Every serving mode encodes a flush through the front's row memo."""

from __future__ import annotations

import pytest

from repro.core.heteromap import HeteroMap
from repro.runtime.deploy import prepare_workload
from repro.runtime.server import DecisionServer, ServerConfig


@pytest.fixture(scope="module")
def hetero():
    model = HeteroMap.with_default_pair(predictor="decision_tree")
    model.train(num_samples=1, seed=0)
    return model


@pytest.fixture(scope="module")
def pool():
    return [
        prepare_workload("pagerank", "facebook"),
        prepare_workload("bfs", "facebook"),
        prepare_workload("sssp_bf", "usa-cal"),
    ]


@pytest.mark.parametrize("mode", ["plan", "decide", "run"])
def test_encode_runs_only_on_memo_misses(hetero, pool, mode, monkeypatch):
    decisions = hetero.decisions
    encoded: list[int] = []
    original = decisions.encode

    def counting_encode(workloads):
        encoded.append(len(workloads))
        return original(workloads)

    monkeypatch.setattr(decisions, "encode", counting_encode)
    server = DecisionServer(
        decisions, ServerConfig(mode=mode, max_batch=len(pool) * 2)
    )
    results = []
    for _ in range(3):  # three size-triggered flushes over the same pool
        for workload in pool * 2:
            assert server.try_submit(
                workload, callback=lambda _tag, result: results.append(result)
            )
    assert server.stats.flushes == 3
    assert len(results) == len(pool) * 6
    # One encoded row per distinct workload object, on its first flush.
    assert encoded == [1] * len(pool)
