"""Shared fixtures for the test suite."""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro.graph.builders import from_edge_list
from repro.graph.csr import CSRGraph
from repro.graph.generators import uniform_random_graph


@pytest.fixture(scope="session", autouse=True)
def _isolated_trace_cache(tmp_path_factory):
    """Keep kernel-trace caching inside the test session's tmp dir."""
    import os

    cache = tmp_path_factory.mktemp("repro-cache")
    os.environ["REPRO_CACHE_DIR"] = str(cache)
    yield
    os.environ.pop("REPRO_CACHE_DIR", None)


class _ForgedTimeBackend:
    """Executes through ``inner``, then reports ``time_ms`` as observed."""

    name = "forged"

    def __init__(self, inner, time_ms: float) -> None:
        self.inner = inner
        self.time_ms = time_ms

    def execute(self, workload, spec, config):
        result = self.inner.execute(workload, spec, config)
        return replace(result, cost=replace(result.cost, time_s=self.time_ms / 1e3))


@pytest.fixture
def forged_time_backend():
    """Factory ``(inner_backend, time_ms) -> backend`` that forges every
    executed time — how tests feed NaN, infinite or non-positive
    outcomes to the observation folds."""
    return _ForgedTimeBackend


@pytest.fixture
def diamond_graph() -> CSRGraph:
    """0 -> {1, 2} -> 3, with distinct weights (shortest path via 1)."""
    return from_edge_list(
        4,
        [(0, 1, 1.0), (0, 2, 4.0), (1, 3, 1.0), (2, 3, 1.0)],
        name="diamond",
    )


@pytest.fixture
def path_graph() -> CSRGraph:
    """A 6-vertex directed path 0 -> 1 -> ... -> 5 with unit weights."""
    return from_edge_list(6, [(i, i + 1) for i in range(5)], name="path6")


@pytest.fixture
def cycle_graph() -> CSRGraph:
    """A 5-vertex directed cycle."""
    return from_edge_list(5, [(i, (i + 1) % 5) for i in range(5)], name="cycle5")


@pytest.fixture
def triangle_graph() -> CSRGraph:
    """An undirected triangle plus a pendant vertex (1 triangle)."""
    edges = [(0, 1), (1, 0), (1, 2), (2, 1), (0, 2), (2, 0), (2, 3), (3, 2)]
    return from_edge_list(4, edges, name="triangle")


@pytest.fixture
def random_graph() -> CSRGraph:
    """A reproducible 200-vertex weighted random graph."""
    return uniform_random_graph(200, 1600, seed=42)


@pytest.fixture
def disconnected_graph() -> CSRGraph:
    """Two components: a 3-cycle and an edge, plus an isolated vertex."""
    edges = [(0, 1), (1, 2), (2, 0), (3, 4), (4, 3)]
    return from_edge_list(6, edges, name="disconnected")


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(1234)
