"""The prediction-quality observatory: regret, mispicks, drift.

The central contract is *replay exactness*: folding audit records online
and replaying the same records offline must give bit-identical
summaries, so the JSONL stream is a faithful source for post-hoc
quality analysis.
"""

from __future__ import annotations

import json
import math

import pytest

import repro.obs as obs
from repro.core.heteromap import HeteroMap
from repro.obs.quality import DriftDetector, RegretTracker, replay_audit
from repro.runtime.deploy import prepare_workload


def record(
    *,
    benchmark="pagerank",
    predictor="deep128",
    chosen="gpu0",
    devices=("gpu0", "mc0"),
    costs=(10.0, 20.0),
    runner_up=20.0,
    observed=None,
):
    chosen_cost = (
        costs[list(devices).index(chosen)] if chosen in devices else 0.0
    )
    return {
        "kind": "decision",
        "benchmark": benchmark,
        "predictor": predictor,
        "chosen_accelerator": chosen,
        "devices": list(devices),
        "costs_ms": list(costs),
        "runner_up_time_ms": runner_up,
        "observed_time_ms": chosen_cost if observed is None else observed,
    }


class TestDriftDetector:
    def test_silent_on_stationary_stream(self):
        detector = DriftDetector()
        assert not any(detector.update(0.01) for _ in range(500))
        assert detector.alarms == 0

    def test_fires_on_injected_shift(self):
        detector = DriftDetector()
        for _ in range(100):
            assert not detector.update(0.0)
        fired = [detector.update(0.5) for _ in range(50)]
        assert any(fired)
        assert detector.alarms >= 1

    def test_two_sided(self):
        detector = DriftDetector()
        for _ in range(100):
            detector.update(0.5)
        assert any(detector.update(-0.5) for _ in range(50))

    def test_warmup_suppresses_alarms(self):
        detector = DriftDetector(min_samples=32)
        # A huge jump inside the warmup window must not alarm.
        assert not any(detector.update(v) for v in [0.0] * 5 + [100.0] * 5)

    @pytest.mark.parametrize(
        "kwargs", [{"threshold": 0.0}, {"min_samples": 0}]
    )
    def test_invalid_params_rejected(self, kwargs):
        with pytest.raises(ValueError):
            DriftDetector(**kwargs)


class TestRegretTracker:
    def test_oracle_regret_and_mispick(self):
        tracker = RegretTracker()
        sample = tracker.observe_record(
            record(chosen="mc0", costs=(10.0, 25.0), runner_up=10.0)
        )
        assert sample is not None
        assert sample.oracle_device == "gpu0"
        assert sample.regret_oracle_ms == 15.0
        assert sample.regret_runner_up_ms == 15.0
        assert sample.mispick

    def test_right_pick_has_zero_regret(self):
        tracker = RegretTracker()
        sample = tracker.observe_record(record())
        assert sample.regret_oracle_ms == 0.0
        assert sample.regret_runner_up_ms == -10.0  # margin banked
        assert not sample.mispick

    def test_cost_tie_is_not_a_mispick(self):
        tracker = RegretTracker()
        sample = tracker.observe_record(
            record(chosen="mc0", costs=(10.0, 10.0), runner_up=10.0)
        )
        assert not sample.mispick

    def test_pre_schema_records_skipped(self):
        tracker = RegretTracker()
        assert tracker.observe_record({"chosen_accelerator": "gpu0"}) is None
        assert tracker.observe_record(record(devices=(), costs=())) is None
        assert tracker.skipped == 2
        assert tracker.observed == 0

    def test_chosen_outside_fleet_skipped(self):
        tracker = RegretTracker()
        assert tracker.observe_record(record(chosen="unknown")) is None
        assert tracker.skipped == 1

    def test_window_slides(self):
        tracker = RegretTracker(window=4)
        for _ in range(10):
            tracker.observe_record(
                record(chosen="mc0", costs=(10.0, 25.0), runner_up=10.0)
            )
        for _ in range(4):
            tracker.observe_record(record())
        stats = tracker.summary()["windows"]["deep128/pagerank"]
        assert stats["n"] == 4
        assert stats["mispick_rate"] == 0.0  # the mispicks aged out

    def test_device_mispick_rates(self):
        tracker = RegretTracker()
        tracker.observe_record(record())
        tracker.observe_record(
            record(chosen="mc0", costs=(10.0, 25.0), runner_up=10.0)
        )
        devices = tracker.summary()["devices"]
        assert devices["gpu0"] == {
            "placed": 1, "mispicks": 0, "mispick_rate": 0.0,
        }
        assert devices["mc0"] == {
            "placed": 1, "mispicks": 1, "mispick_rate": 1.0,
        }

    def test_error_ewma_tracks_observed_vs_estimate(self):
        tracker = RegretTracker(ewma_alpha=1.0)
        tracker.observe_record(record(observed=11.0))  # +10% error
        assert tracker.summary()["error_ewma"]["deep128"] == pytest.approx(0.1)

    def test_drift_alarm_surfaces_in_summary(self):
        tracker = RegretTracker()
        for _ in range(100):
            tracker.observe_record(record())
        for _ in range(100):
            tracker.observe_record(record(observed=15.0))
        assert tracker.summary()["drift_alarms"]["deep128"] >= 1

    @pytest.mark.parametrize(
        "kwargs", [{"window": 0}, {"ewma_alpha": 0.0}, {"ewma_alpha": 1.5}]
    )
    def test_invalid_params_rejected(self, kwargs):
        with pytest.raises(ValueError):
            RegretTracker(**kwargs)


class TestBadObservedTimes:
    """A NaN, infinite or non-positive observed time is skipped, not folded."""

    @pytest.fixture(scope="class")
    def hetero(self):
        hetero = HeteroMap.with_default_pair(predictor="cart", seed=0)
        hetero.train(num_samples=40, seed=0)
        return hetero

    @staticmethod
    def _state(tracker: RegretTracker) -> tuple:
        summary = tracker.summary()
        summary.pop("skipped")
        detectors = {name: dict(vars(d)) for name, d in tracker._drift.items()}
        return summary, detectors, dict(tracker._ewma)

    def test_record_skipped(self):
        tracker = RegretTracker()
        for observed in (math.nan, math.inf, -1.0, 0.0):
            assert tracker.observe_record(record(observed=observed)) is None
        assert tracker.skipped == 4
        assert tracker.observed == 0

    @pytest.mark.parametrize("forged", [math.nan, math.inf, -1.0, 0.0])
    def test_bad_time_through_run_many(
        self, enabled_obs, hetero, forged, forged_time_backend
    ):
        tracker = enabled_obs.quality
        workloads = [
            prepare_workload(*item)
            for item in (("pagerank", "twitter"), ("bfs", "cage14"))
        ]
        hetero.run_many(workloads * 2)
        before = self._state(tracker)
        assert tracker.observed == 4 and tracker.skipped == 0
        inner = hetero.engine.backend
        hetero.engine.backend = forged_time_backend(inner, forged)
        try:
            hetero.run_many(workloads * 3)
        finally:
            hetero.engine.backend = inner
        assert self._state(tracker) == before
        assert tracker.skipped == 6


class TestReplayExactness:
    """Online fold == offline replay, bit for bit (acceptance criterion)."""

    def _stream(self):
        events = []
        for i in range(300):
            chosen = "mc0" if i % 7 == 0 else "gpu0"
            events.append(
                record(
                    benchmark=("pagerank", "bfs")[i % 2],
                    chosen=chosen,
                    costs=(10.0 + (i % 5), 20.0 - (i % 3)),
                    runner_up=15.0,
                    observed=10.0 + (i % 5) + (0.6 if i > 200 else 0.0),
                )
            )
        return events

    def test_replay_matches_online_fold(self):
        events = self._stream()
        online = RegretTracker()
        for event in events:
            online.observe_record(event)
        replayed = replay_audit(events)
        assert replayed.summary() == online.summary()

    def test_replay_matches_through_jsonl_roundtrip(self, tmp_path):
        events = self._stream()
        path = tmp_path / "audit.jsonl"
        path.write_text("".join(json.dumps(e) + "\n" for e in events))
        online = RegretTracker()
        for event in events:
            online.observe_record(event)
        loaded = [json.loads(line) for line in path.read_text().splitlines()]
        assert replay_audit(loaded).summary() == online.summary()

    def test_live_record_decision_feeds_the_same_fold(self, jsonl_obs):
        """The singleton's online tracker == replay of its own stream."""
        state, path = jsonl_obs
        base = dict(
            dataset="d",
            metric="time",
            features=(0.0,) * 17,
            config="gpu(g=1,l=1)",
            predicted_energy_j=1.0,
            predicted_utilization=0.5,
        )
        for i in range(40):
            obs.record_decision(
                obs.DecisionRecord(
                    benchmark="pagerank",
                    predictor="deep128",
                    chosen_accelerator="gpu0" if i % 3 else "mc0",
                    predicted_time_ms=10.0,
                    runner_up_accelerator="mc0" if i % 3 else "gpu0",
                    runner_up_time_ms=12.0,
                    devices=("gpu0", "mc0"),
                    costs_ms=(10.0, 12.0) if i % 3 else (12.0, 10.0),
                    observed_time_ms=10.5,
                    **base,
                )
            )
        events = [json.loads(line) for line in path.read_text().splitlines()]
        assert replay_audit(events).summary() == state.quality.summary()
        assert state.quality.observed == 40


class TestMetricsExport:
    def test_labeled_series_exported(self, enabled_obs):
        tracker = enabled_obs.quality
        tracker.observe_record(
            record(chosen="mc0", costs=(10.0, 25.0), runner_up=10.0)
        )
        metrics = enabled_obs.metrics
        assert metrics.counter_value(
            "quality.decisions", predictor="deep128", benchmark="pagerank"
        ) == 1.0
        assert metrics.counter_value(
            "quality.mispick", predictor="deep128", device="mc0"
        ) == 1.0
        gauges = metrics.gauges["quality.window_mispick_rate"]
        assert list(gauges.values()) == [1.0]

    def test_mispick_stream_feeds_slo(self, enabled_obs):
        obs.install_slos(
            [obs.SLOSpec(name="mispicks", metric="mispick_rate", ceiling=0.0,
                         target=0.9, window=8)]
        )
        for _ in range(8):
            enabled_obs.quality.observe_record(
                record(chosen="mc0", costs=(10.0, 25.0), runner_up=10.0)
            )
        tracker = enabled_obs.slos.tracker("mispicks")
        assert tracker.bad_fraction == 1.0
        assert tracker.breached
