"""Tests for the metrics registry, histograms, and exporters."""

import json

import pytest

from repro.telemetry.export import (
    SnapshotSeries,
    parse_prometheus_text,
    prometheus_text,
    validate_snapshot_document,
)
from repro.telemetry.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)


class TestCounter:
    def test_monotonic(self):
        counter = Counter("c")
        counter.inc()
        counter.inc(41)
        assert counter.value == 42
        with pytest.raises(ValueError):
            counter.inc(-1)

    def test_gauge_moves_both_ways(self):
        gauge = Gauge("g")
        gauge.set(10)
        gauge.inc(5)
        gauge.dec(3)
        assert gauge.value == 12


class TestHistogram:
    def test_exact_below_two_subbuckets(self):
        """Values under 2*subbuckets land in unit-width buckets —
        percentiles there are exact, not approximate."""
        hist = Histogram("h")
        for value in range(100):
            hist.record(value)
        assert hist.count == 100
        assert hist.percentile(50) == 49
        assert hist.percentile(99) == 98
        assert hist.percentile(100) == 99

    def test_relative_error_bound_above(self):
        """Octave buckets keep relative error under 1/subbuckets."""
        for value in (1_000, 10_000, 123_456, 9_999_999):
            hist = Histogram("h", significant_digits=2)
            hist.record(value)
            recovered = hist.percentile(100)
            assert recovered >= value
            assert (recovered - value) / value < 1.0 / 128

    def test_p999_separates_tail(self):
        hist = Histogram("h")
        for _ in range(999):
            hist.record(10)
        hist.record(5_000)
        assert hist.percentile(50) == 10
        assert hist.percentile(99) == 10
        assert hist.percentile(99.9) >= 10
        assert hist.percentile(100) >= 5_000

    def test_to_dict(self):
        hist = Histogram("h", help="latency")
        hist.record(3)
        hist.record(7)
        data = hist.to_dict()
        assert data["count"] == 2
        assert data["sum"] == 10
        assert data["min"] == 3
        assert data["max"] >= 7
        assert data["p50"] == 3
        assert data["p999"] >= 7

    def test_empty_percentile_is_none(self):
        assert Histogram("h").percentile(99) is None


class TestRegistry:
    def test_get_or_create(self):
        registry = MetricsRegistry()
        assert registry.counter("a") is registry.counter("a")
        assert registry.gauge("b") is registry.gauge("b")
        assert registry.histogram("c") is registry.histogram("c")

    def test_kind_mismatch_raises(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(TypeError):
            registry.gauge("x")

    def test_collect_schema(self):
        registry = MetricsRegistry()
        registry.counter("hits").inc(3)
        registry.histogram("lat").record(5)
        doc = registry.collect()
        assert doc["schema"] == "repro.telemetry.metrics/1"
        by_name = {m["name"]: m for m in doc["metrics"]}
        assert by_name["hits"]["value"] == 3
        assert by_name["lat"]["count"] == 1


class TestPrometheusExport:
    def test_round_trip(self):
        registry = MetricsRegistry()
        registry.counter("noc.flits_forwarded", "flits").inc(1234)
        registry.gauge("noc.busy_routers").set(7)
        hist = registry.histogram("latency.e2e_cycles")
        for value in (10, 20, 30, 4000):
            hist.record(value)
        text = prometheus_text(registry)
        parsed = parse_prometheus_text(text)
        assert parsed["repro_noc_flits_forwarded_total"] == 1234
        assert parsed["repro_noc_busy_routers"] == 7
        assert parsed["repro_latency_e2e_cycles_count"] == 4
        assert parsed["repro_latency_e2e_cycles_sum"] == 4060
        inf_key = 'repro_latency_e2e_cycles_bucket{le="+Inf"}'
        assert parsed[inf_key] == 4

    def test_buckets_are_cumulative(self):
        registry = MetricsRegistry()
        hist = registry.histogram("h")
        for value in (1, 2, 3, 1000):
            hist.record(value)
        text = prometheus_text(registry)
        counts = [float(line.rsplit(" ", 1)[1])
                  for line in text.splitlines()
                  if line.startswith("repro_h_bucket")]
        assert counts == sorted(counts)
        assert counts[-1] == 4

    def test_parser_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_prometheus_text("not a metric line at all\n")
        with pytest.raises(ValueError):
            parse_prometheus_text("9bad_name 1\n")
        with pytest.raises(ValueError):
            parse_prometheus_text("name_no_value\n")


class TestSnapshotSeries:
    def _series(self):
        series = SnapshotSeries(interval=100, design="t")
        series.append({"cycle": 100, "tiles": {}})
        series.append({"cycle": 200, "tiles": {}})
        return series

    def test_write_load_round_trip(self, tmp_path):
        path = tmp_path / "snap.json"
        self._series().write(str(path))
        loaded = SnapshotSeries.load(str(path))
        assert loaded.interval == 100
        assert [s["cycle"] for s in loaded.snapshots] == [100, 200]

    def test_schema_rejections(self, tmp_path):
        good = self._series().to_dict()

        bad_schema = dict(good, schema="bogus/9")
        with pytest.raises(ValueError):
            validate_snapshot_document(bad_schema)

        bad_interval = dict(good, interval=0)
        with pytest.raises(ValueError):
            validate_snapshot_document(bad_interval)

        shuffled = json.loads(json.dumps(good))
        shuffled["snapshots"] = list(reversed(shuffled["snapshots"]))
        with pytest.raises(ValueError, match="must increase"):
            validate_snapshot_document(shuffled)
