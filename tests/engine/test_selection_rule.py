"""One selection rule: the audit runner-up and the adapter's candidate
pick go through the decision layer's argmin."""

from __future__ import annotations

import numpy as np
import pytest

from repro import obs
from repro.core.encoding import M1_THRESHOLD, NUM_TARGETS
from repro.core.heteromap import HeteroMap
from repro.core.online import OnlineAdapter, _ShadowTrial
from repro.machine.fleet import synthetic_fleet
from repro.obs.config import ObsConfig
from repro.runtime.engine.decision import select_chosen


@pytest.fixture(scope="module")
def fleet4():
    """A trained HeteroMap on the 4-device synthetic fleet."""
    hetero = HeteroMap(synthetic_fleet(4), predictor="cart", seed=5)
    hetero.train(num_samples=40, seed=5)
    return hetero


def _brute_force(costs, names, allowed):
    """Lowest (cost, name) over the allowed indices, by exhaustive scan."""
    best = None
    for i in allowed:
        if best is None or (costs[i], names[i]) < (costs[best], names[best]):
            best = i
    return best


class TestAuditRunnerUp:
    def test_runner_up_is_best_device_that_did_not_execute(self, fleet4, batch):
        obs.configure(ObsConfig(enabled=True))
        try:
            obs.state().decisions.clear()
            report = fleet4.run_fleet(list(batch) * 4, policy="load-aware")
            records = list(obs.state().decisions)
        finally:
            obs.configure(ObsConfig(enabled=False))
        assert any(placement.overridden for placement in report.placements)
        assert len(records) == len(report.placements)
        for record, placement in zip(records, report.placements):
            estimates = placement.decision.estimates
            names = [e.spec.name for e in estimates]
            costs = [e.result.objective(fleet4.metric) for e in estimates]
            executed = names.index(placement.deployed.spec.name)
            best = _brute_force(
                costs, names, [i for i in range(len(names)) if i != executed]
            )
            assert record.chosen_accelerator == names[executed]
            assert record.runner_up_accelerator == names[best]
            assert record.runner_up_time_ms == estimates[best].time_ms


class _FixedCandidate:
    """A candidate model whose every prediction has one M1 value."""

    def __init__(self, m1: float) -> None:
        self.vector = np.full(NUM_TARGETS, 0.5)
        self.vector[0] = m1

    def predict_vector(self, features):
        return self.vector


class TestAdapterCandidatePick:
    #: Forged corrected costs per fleet index, including exact ties
    #: between two devices of the same kind (broken by device name).
    COSTS = (
        (4.0, 4.0, 4.0, 4.0),
        (1.0, 2.0, 2.0, 1.0),
        (3.0, 1.0, 5.0, 1.0),
        (2.5, 9.0, 0.5, 0.5),
    )

    @pytest.mark.parametrize("m1", [0.0, 0.3, M1_THRESHOLD, 0.9])
    @pytest.mark.parametrize("costs", COSTS)
    def test_pick_matches_select_chosen(self, fleet4, batch, m1, costs):
        decision = fleet4.decisions.decide(batch[0])
        estimates = decision.estimates
        names = [e.spec.name for e in estimates]
        is_gpu = [e.spec.is_gpu for e in estimates]
        corrected = list(costs)
        prefer_multicore = m1 >= M1_THRESHOLD
        want = select_chosen(
            corrected, names, is_gpu, prefer_multicore=prefer_multicore
        )
        kind = [i for i in range(len(names)) if is_gpu[i] != prefer_multicore]
        assert want == _brute_force(corrected, names, kind)

        trial = _ShadowTrial(_FixedCandidate(m1), window=4)
        assert trial.pick(decision, corrected) == want

        # The shadow scorer charges the candidate exactly that pick.
        adapter = OnlineAdapter(
            fleet4.decisions, make_candidate=lambda: None, base_matrices=None
        )
        adapter._shadow = trial
        adapter._score_shadow(decision, corrected)
        assert trial.candidate_regret == corrected[want] - min(corrected)
