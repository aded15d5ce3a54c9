"""The serve CLI's JSONL histogram lines bucket exactly as ``/metrics`` does."""

from __future__ import annotations

from repro.obs.metrics import DEFAULT_BUCKETS, MetricsRegistry
from repro.runtime.serve_cli import _histogram_line


class TestHistogramLine:
    def test_bound_values_land_in_their_le_bucket(self):
        # 0.001, 1.0 and 10.0 sit exactly on bounds: each belongs to the
        # bucket whose ``le`` equals it, as in the Prometheus exposition.
        samples = [0.001, 1.0, 10.0, 0.5]
        line = _histogram_line("decision_latency_ms", samples)
        assert line["counts"] == [1, 0, 0, 2, 1, 0, 0, 0, 0, 0]
        assert line["bounds"] == list(DEFAULT_BUCKETS)
        assert line["count"] == 4
        assert line["sum"] == sum(samples)

        registry = MetricsRegistry()
        for value in samples:
            registry.observe("serve.latency_ms", value)
        (entry,) = registry.as_dict()["histograms"]["serve.latency_ms"]
        assert line["counts"] == entry["counts"]
