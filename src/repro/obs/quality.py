"""Online prediction-quality observatory: regret, mispicks, drift.

The decision-audit stream already records, for every executed placement,
the full per-device cost vector the decision layer estimated.  This
module turns that stream into *live* quality signals instead of an
offline artifact:

* **windowed regret** — per (predictor, benchmark) sliding windows of
  chosen-vs-oracle-argmin regret (how much the placed device's estimate
  exceeded the cheapest device's) and chosen-vs-runner-up regret (the
  margin actually banked, negative when the pick was right);
* **mispick rates** — per fleet device: how often the placed device was
  not the estimate argmin, the paper's "wrong M1 call" made measurable
  online;
* **drift detection** — a two-sided Page–Hinkley test plus an EWMA over
  the relative prediction error (observed vs estimated time), so a cost
  model drifting away from the executed reality raises a
  ``quality.drift_alarm`` instead of silently degrading decisions.

:class:`RegretTracker` is deliberately a pure fold over audit-record
dicts: feeding it online (``repro.obs.record_decision`` does this) and
replaying the same JSONL records offline produce bit-identical
summaries, which the differential test pins.  Metrics/SLO export are
side channels that never influence the fold.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from repro.obs.metrics import MetricsRegistry
from repro.obs.slo import SLORegistry

__all__ = [
    "DRIFT_METRIC",
    "DriftDetector",
    "MISPICK_METRIC",
    "QualitySample",
    "RegretTracker",
    "replay_audit",
]

#: Estimate-vector ties below this are not mispicks (pure float noise).
_TIE_EPS = 1e-12

#: SLO observation stream fed on every sample (1.0 = mispick, 0.0 = not).
MISPICK_METRIC = "mispick_rate"

#: SLO observation stream fed on every sample (1.0 = the sample tripped
#: the Page–Hinkley alarm, 0.0 = not), so drift can back an SLO, e.g.
#: ``repro-serve --slo drift:drift_alarms:0.0:0.99``.
DRIFT_METRIC = "drift_alarms"


class DriftDetector:
    """Two-sided Page–Hinkley test over a scalar error stream.

    Tracks the running mean of the stream and accumulates deviations
    beyond a ``delta`` tolerance in both directions; when either
    cumulative deviation exceeds ``threshold`` the detector alarms and
    resets.  ``min_samples`` suppresses alarms while the mean estimate
    is still warming up.  The update is pure float arithmetic, so a
    replayed stream alarms at exactly the same offsets.
    """

    def __init__(
        self,
        *,
        delta: float = 0.005,
        threshold: float = 0.25,
        min_samples: int = 16,
    ) -> None:
        if threshold <= 0:
            raise ValueError(f"threshold must be > 0, got {threshold}")
        if min_samples < 1:
            raise ValueError(f"min_samples must be >= 1, got {min_samples}")
        self.delta = float(delta)
        self.threshold = float(threshold)
        self.min_samples = int(min_samples)
        self.alarms = 0
        self._reset()

    def _reset(self) -> None:
        self._n = 0
        self._mean = 0.0
        self._cum_high = 0.0
        self._cum_low = 0.0

    def update(self, value: float) -> bool:
        """Fold one observation; True when this observation alarms."""
        self._n += 1
        self._mean += (value - self._mean) / self._n
        self._cum_high = max(0.0, self._cum_high + value - self._mean - self.delta)
        self._cum_low = min(0.0, self._cum_low + value - self._mean + self.delta)
        if self._n < self.min_samples:
            return False
        if self._cum_high > self.threshold or -self._cum_low > self.threshold:
            self.alarms += 1
            self._reset()
            return True
        return False


@dataclass(frozen=True)
class QualitySample:
    """One audited placement, reduced to its quality signals."""

    predictor: str
    benchmark: str
    chosen_device: str
    oracle_device: str  # estimate-argmin device (name-tie-broken)
    chosen_cost_ms: float
    oracle_cost_ms: float
    regret_oracle_ms: float  # chosen estimate minus the argmin estimate
    regret_runner_up_ms: float  # chosen minus runner-up (negative = right call)
    mispick: bool
    error_ms: float  # observed minus estimated time on the placed device
    error_frac: float  # error_ms relative to the estimate
    drift_alarm: bool


class RegretTracker:
    """Streaming fold of audit records into windowed quality state."""

    def __init__(
        self,
        *,
        window: int = 256,
        ewma_alpha: float = 0.05,
        drift_delta: float = 0.005,
        drift_threshold: float = 0.25,
        drift_min_samples: int = 16,
        metrics: MetricsRegistry | None = None,
        slos: "SLORegistry | None" = None,
    ) -> None:
        if window < 1:
            raise ValueError(f"window must be >= 1, got {window}")
        if not 0.0 < ewma_alpha <= 1.0:
            raise ValueError(f"ewma_alpha must be in (0, 1], got {ewma_alpha}")
        self.window = int(window)
        self.ewma_alpha = float(ewma_alpha)
        self._drift_params = dict(
            delta=drift_delta,
            threshold=drift_threshold,
            min_samples=drift_min_samples,
        )
        self.metrics = metrics
        self.slos = slos
        self.observed = 0
        #: Records without an estimate vector (pre-PR-8) or without a
        #: finite positive observed time.
        self.skipped = 0
        self.explored = 0  # exploration probes (costed, never executed)
        self._windows: dict[tuple[str, str], deque[tuple[float, float, bool]]] = {}
        self._devices: dict[str, list[int]] = {}  # name -> [placed, mispicks]
        self._drift: dict[str, DriftDetector] = {}
        self._ewma: dict[str, float] = {}
        self._confidence: dict[str, float] = {}  # per-predictor EWMA

    # -- the fold ----------------------------------------------------------

    def observe_record(self, record: Mapping) -> QualitySample | None:
        """Fold one audit record (a ``DecisionRecord.as_dict`` payload).

        Records missing the per-device estimate vector (audits written
        before the vector was part of the schema) are counted in
        :attr:`skipped` and otherwise ignored, so replays over mixed
        streams stay well-defined; so are records whose observed time is
        NaN, infinite or not positive, which would otherwise poison the
        drift detector and the error EWMA for good.  Exploration probes
        (``explored`` set — absent from pre-v2 records, so old streams
        are unaffected) are counted in :attr:`explored` and kept out of
        the placement fold: they were never executed, so folding them
        would corrupt the regret windows and break online/offline replay
        exactness.
        """
        if record.get("explored"):
            self.explored += 1
            predictor = str(record.get("predictor", "?"))
            confidence = record.get("confidence")
            if confidence is not None:
                self._fold_confidence(predictor, float(confidence))
            if self.metrics is not None:
                self.metrics.inc("quality.explored", predictor=predictor)
            return None
        devices = record.get("devices") or ()
        costs = record.get("costs_ms") or ()
        chosen = record.get("chosen_accelerator")
        if not devices or not costs or len(devices) != len(costs) or not chosen:
            self.skipped += 1
            return None
        try:
            chosen_index = list(devices).index(chosen)
        except ValueError:
            self.skipped += 1
            return None
        costs = [float(c) for c in costs]
        chosen_cost = costs[chosen_index]
        observed = float(record.get("observed_time_ms", chosen_cost))
        if not 0.0 < observed < math.inf:  # NaN, inf or <= 0: no signal
            self.skipped += 1
            return None
        oracle_index = min(
            range(len(costs)), key=lambda i: (costs[i], devices[i])
        )
        oracle_cost = costs[oracle_index]
        regret_oracle = chosen_cost - oracle_cost
        mispick = oracle_index != chosen_index and regret_oracle > _TIE_EPS
        runner_up = float(record.get("runner_up_time_ms", 0.0))
        error_ms = observed - chosen_cost
        error_frac = error_ms / chosen_cost if chosen_cost > 0 else 0.0

        predictor = str(record.get("predictor", "?"))
        benchmark = str(record.get("benchmark", "?"))
        confidence = record.get("confidence")
        if confidence is not None:
            self._fold_confidence(predictor, float(confidence))
        key = (predictor, benchmark)
        window = self._windows.get(key)
        if window is None:
            window = self._windows[key] = deque(maxlen=self.window)
        window.append((regret_oracle, chosen_cost - runner_up, mispick))

        totals = self._devices.setdefault(str(chosen), [0, 0])
        totals[0] += 1
        totals[1] += int(mispick)

        detector = self._drift.get(predictor)
        if detector is None:
            detector = self._drift[predictor] = DriftDetector(
                **self._drift_params
            )
        alarm = detector.update(error_frac)
        previous = self._ewma.get(predictor)
        self._ewma[predictor] = (
            abs(error_frac)
            if previous is None
            else (1.0 - self.ewma_alpha) * previous
            + self.ewma_alpha * abs(error_frac)
        )
        self.observed += 1

        sample = QualitySample(
            predictor=predictor,
            benchmark=benchmark,
            chosen_device=str(chosen),
            oracle_device=str(devices[oracle_index]),
            chosen_cost_ms=chosen_cost,
            oracle_cost_ms=oracle_cost,
            regret_oracle_ms=regret_oracle,
            regret_runner_up_ms=chosen_cost - runner_up,
            mispick=mispick,
            error_ms=error_ms,
            error_frac=error_frac,
            drift_alarm=alarm,
        )
        self._export(sample, key)
        return sample

    def _fold_confidence(self, predictor: str, confidence: float) -> None:
        """EWMA of reported decision confidence, per predictor."""
        previous = self._confidence.get(predictor)
        self._confidence[predictor] = (
            confidence
            if previous is None
            else (1.0 - self.ewma_alpha) * previous
            + self.ewma_alpha * confidence
        )
        if self.metrics is not None:
            self.metrics.set_gauge(
                "quality.confidence",
                self._confidence[predictor],
                predictor=predictor,
            )

    # -- side channels (never influence the fold) --------------------------

    def _export(self, sample: QualitySample, key: tuple[str, str]) -> None:
        if self.slos is not None:
            self.slos.observe(MISPICK_METRIC, 1.0 if sample.mispick else 0.0)
            self.slos.observe(
                DRIFT_METRIC, 1.0 if sample.drift_alarm else 0.0
            )
        metrics = self.metrics
        if metrics is None:
            return
        labels = dict(predictor=sample.predictor, benchmark=sample.benchmark)
        metrics.inc("quality.decisions", **labels)
        metrics.inc("quality.placed", device=sample.chosen_device)
        if sample.mispick:
            metrics.inc(
                "quality.mispick",
                predictor=sample.predictor,
                device=sample.chosen_device,
            )
        if sample.drift_alarm:
            metrics.inc("quality.drift_alarm", predictor=sample.predictor)
            # Edge-triggered, label-free twin of the alarm counter: one
            # monotone series for /metrics dashboards and SLO burn math
            # (the labeled counter above stays for back-compat).
            metrics.inc("quality.drift")
        metrics.observe(
            "quality.regret_oracle_ms",
            sample.regret_oracle_ms,
            predictor=sample.predictor,
        )
        stats = self._window_stats(self._windows[key])
        metrics.set_gauge(
            "quality.window_regret_oracle_ms", stats["regret_oracle_ms"], **labels
        )
        metrics.set_gauge(
            "quality.window_regret_runner_up_ms",
            stats["regret_runner_up_ms"],
            **labels,
        )
        metrics.set_gauge(
            "quality.window_mispick_rate", stats["mispick_rate"], **labels
        )
        metrics.set_gauge(
            "quality.error_ewma",
            self._ewma[sample.predictor],
            predictor=sample.predictor,
        )

    # -- summaries ---------------------------------------------------------

    @staticmethod
    def _window_stats(
        window: "deque[tuple[float, float, bool]]",
    ) -> dict[str, float]:
        n = len(window)
        return {
            "n": n,
            "regret_oracle_ms": sum(s[0] for s in window) / n,
            "regret_runner_up_ms": sum(s[1] for s in window) / n,
            "mispick_rate": sum(1 for s in window if s[2]) / n,
        }

    def drift_alarms(self) -> dict[str, int]:
        """Total Page–Hinkley alarms per predictor."""
        return {
            name: detector.alarms
            for name, detector in sorted(self._drift.items())
        }

    def summary(self) -> dict:
        """Deterministic JSON-able snapshot of the whole observatory.

        Equal folds give equal summaries — this is the artifact the
        offline-replay differential test compares.
        """
        windows = {
            f"{predictor}/{benchmark}": self._window_stats(window)
            for (predictor, benchmark), window in sorted(self._windows.items())
        }
        devices = {
            name: {
                "placed": placed,
                "mispicks": mispicks,
                "mispick_rate": mispicks / placed if placed else 0.0,
            }
            for name, (placed, mispicks) in sorted(self._devices.items())
        }
        return {
            "observed": self.observed,
            "skipped": self.skipped,
            "explored": self.explored,
            "windows": windows,
            "devices": devices,
            "drift_alarms": self.drift_alarms(),
            "error_ewma": {
                name: value for name, value in sorted(self._ewma.items())
            },
            "confidence_ewma": {
                name: value for name, value in sorted(self._confidence.items())
            },
        }


def replay_audit(
    events: Iterable[Mapping],
    *,
    window: int = 256,
    ewma_alpha: float = 0.05,
    drift_delta: float = 0.005,
    drift_threshold: float = 0.25,
    drift_min_samples: int = 16,
) -> RegretTracker:
    """Fold a JSONL event stream's decision records into a fresh tracker.

    Non-decision events are ignored; the fold order is the stream order,
    which matches the online emission order within one process.
    """
    tracker = RegretTracker(
        window=window,
        ewma_alpha=ewma_alpha,
        drift_delta=drift_delta,
        drift_threshold=drift_threshold,
        drift_min_samples=drift_min_samples,
    )
    for event in events:
        if event.get("kind") == "decision":
            tracker.observe_record(event)
    return tracker
