"""Seeded key mix: a Zipf head over the paper workloads plus a unique tail.

95% of requests draw a paper (benchmark, dataset) workload by Zipf rank
(s = 1.1) under a seeded rank order, drawn afresh every ``EPOCH``
requests so that popularity drifts; 5% take the next workload, in order,
from a pool of unique synthetic workloads twice the decision cache's
default capacity, so every tail request misses the LRU cache and evicts
an entry.  The program only ever sees the resulting ``Workload`` sequence.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

ZIPF_S = 1.1
TAIL_SHARE = 0.05
#: Requests per popularity epoch: each epoch ranks the paper workloads by
#: a fresh seeded permutation.  Per-workload costs differ, so one fixed
#: order would make a run's cost per request depend on which workloads
#: its seed happens to make hot.
EPOCH = 200
#: ``Workload.benchmark`` of every tail workload.
TAIL_BENCHMARK = "synthetic"
#: Seed offset separating the tail pool from the predictor's training
#: samples, which ``generate_samples`` draws from small seeds.
TAIL_SEED_OFFSET = 7_919


def zipf_weights(count: int, s: float = ZIPF_S) -> np.ndarray:
    """Normalised Zipf probabilities for ranks 1..count."""
    weights = 1.0 / np.arange(1, count + 1, dtype=np.float64) ** s
    return weights / weights.sum()


@dataclass
class KeyMix:
    """Draws request sequences for one seed; the tail cursor persists."""

    paper: Sequence
    tail: Sequence
    seed: int

    def __post_init__(self) -> None:
        self._rng = np.random.default_rng(self.seed)
        # rank r (0 = hottest) serves paper[self.order[r]] this epoch
        self.order = self._rng.permutation(len(self.paper))
        self._cdf = np.cumsum(zipf_weights(len(self.paper)))
        self._tail_cursor = 0
        self._drawn = 0

    def draw(self, count: int) -> tuple[list, int]:
        """The next ``count`` requests and how many came from the tail."""
        is_tail = self._rng.random(count) < TAIL_SHARE
        ranks = np.searchsorted(self._cdf, self._rng.random(count), side="right")
        ranks = np.minimum(ranks, len(self.paper) - 1)
        paper, tail = self.paper, self.tail
        out = []
        tails = 0
        for rank, from_tail in zip(ranks.tolist(), is_tail.tolist()):
            if self._drawn and self._drawn % EPOCH == 0:
                self.order = self._rng.permutation(len(paper))
            self._drawn += 1
            if from_tail:
                out.append(tail[self._tail_cursor % len(tail)])
                self._tail_cursor += 1
                tails += 1
            else:
                out.append(paper[self.order[rank]])
        return out, tails


def paper_workloads() -> list:
    """All 81 paper (benchmark, dataset) workloads, prepared."""
    from repro.features.profiles import benchmark_names
    from repro.graph.datasets import dataset_names
    from repro.runtime.deploy import prepare_workload

    return [
        prepare_workload(benchmark, dataset)
        for benchmark in benchmark_names()
        for dataset in dataset_names()
    ]


def tail_workloads(count: int, seed: int) -> list:
    """``count`` unique synthetic workloads (distinct feature keys)."""
    from repro.runtime.deploy import Workload
    from repro.workload.profile import build_profile
    from repro.workload.synthetic import generate_samples

    pool = []
    for index, sample in enumerate(
        generate_samples(count, seed=seed + TAIL_SEED_OFFSET)
    ):
        graph = sample.graph
        profile = build_profile(
            sample.trace,
            sample.bvars,
            target_vertices=graph.num_vertices,
            target_edges=graph.num_edges,
            source_vertices=graph.num_vertices,
            source_edges=graph.num_edges,
        )
        pool.append(
            Workload(
                benchmark=TAIL_BENCHMARK,
                dataset=f"tail-{index}",
                bvars=sample.bvars,
                ivars=sample.ivars,
                profile=profile,
            )
        )
    return pool
