"""Unit tests for the metrics registry and the span tracer."""

import pytest

from repro.observability import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    QueryStatistics,
    Tracer,
    activate,
    count,
    current_stats,
    gauge_max,
    maybe_span,
    serve_metrics,
)


class TestPrimitives:
    def test_counter(self):
        c = Counter("x")
        c.increment()
        c.increment(4)
        assert c.value == 5

    def test_gauge_tracks_peak(self):
        g = Gauge("x")
        g.set(3.0)
        g.set(1.0)
        assert g.value == 1.0
        assert g.peak == 3.0

    def test_histogram_summary(self):
        h = Histogram("x")
        for v in (0.0005, 0.05, 2.0):
            h.observe(v)
        summary = h.summary()
        assert summary["count"] == 3
        assert summary["min"] == 0.0005
        assert summary["max"] == 2.0
        assert h.mean == pytest.approx((0.0005 + 0.05 + 2.0) / 3)
        # Each observation lands in exactly one bucket.
        assert sum(summary["buckets"]) == 3

    def test_histogram_overflow_bucket(self):
        h = Histogram("x")
        h.observe(99.0)  # beyond the largest bound
        assert h.buckets[-1] == 1


class TestQuantiles:
    def test_exact_at_known_distribution(self):
        h = Histogram("x")
        # 100 observations spread across two buckets: 50 around 5ms,
        # 50 around 50ms — the median sits at the 1e-2 boundary region.
        for _ in range(50):
            h.observe(0.005)
        for _ in range(50):
            h.observe(0.05)
        q = h.quantiles()
        assert set(q) == {"p50", "p95", "p99"}
        assert 0.001 <= q["p50"] <= 0.01
        assert 0.01 < q["p95"] <= 0.05
        assert q["p50"] <= q["p95"] <= q["p99"] <= h.max

    def test_never_leaves_observed_range(self):
        h = Histogram("x")
        h.observe(0.0333)  # single observation
        for key, value in h.quantiles().items():
            assert value == pytest.approx(0.0333), key

    def test_empty_histogram(self):
        assert Histogram("x").quantiles() == {
            "p50": 0.0, "p95": 0.0, "p99": 0.0,
        }

    @pytest.mark.parametrize(
        "observation", [0.0333, -0.5, 5e-5, 0.0, 100.0]
    )
    def test_single_observation_is_exact(self, observation):
        """One observation: every quantile IS that observation — finite,
        no NaN/inf from bucket interpolation, even below bucket zero."""
        import math

        h = Histogram("x")
        h.observe(observation)
        q = h.quantiles()
        assert set(q) == {"p50", "p95", "p99"}
        for key, value in q.items():
            assert math.isfinite(value), key
            assert value == pytest.approx(observation), key

    def test_repeated_identical_observations(self):
        h = Histogram("x")
        for _ in range(7):
            h.observe(0.5)
        for key, value in h.quantiles().items():
            assert value == pytest.approx(0.5), key

    def test_summary_carries_quantiles(self):
        h = Histogram("x")
        h.observe(0.002)
        summary = h.summary()
        assert {"p50", "p95", "p99"} <= set(summary)


class TestExposition:
    @staticmethod
    def _populated():
        registry = MetricsRegistry()
        stats = QueryStatistics()
        stats.bump("rtree.searches", 3)
        stats.gauge_max("executor.peak_materialized_rows", 4)
        with stats.tracer.span("execute"):
            pass
        registry.absorb(stats)
        return registry

    def test_prometheus_text_shape(self):
        text = self._populated().expose_text()
        assert "# TYPE repro_queries_total counter" in text
        assert "repro_rtree_searches_total 3" in text
        assert "repro_executor_peak_materialized_rows 4" in text
        assert "# TYPE repro_query_seconds histogram" in text
        assert 'repro_query_seconds_bucket{le="+Inf"} 1' in text
        assert "repro_query_seconds_count 1" in text
        assert 'repro_query_seconds_quantile{quantile="0.99"}' in text

    def test_parses_as_exposition_format(self):
        """Every line is a comment or `name[{labels}] value`, histogram
        buckets are cumulative, and _count matches the +Inf bucket."""
        import re

        sample = re.compile(
            r"^[a-zA-Z_:][a-zA-Z0-9_:]*"  # metric name
            r'(\{[a-zA-Z_]+="[^"]*"\})?'   # optional single label
            r" (-?[0-9.e+-]+|\+Inf|-Inf|NaN)$"
        )
        buckets = {}
        counts = {}
        for line in self._populated().expose_text().splitlines():
            if line.startswith("# TYPE "):
                parts = line.split()
                assert len(parts) == 4
                assert parts[3] in ("counter", "gauge", "histogram")
                continue
            assert sample.match(line), f"unparseable line: {line!r}"
            name = line.split("{")[0].split(" ")[0]
            value = float(line.rsplit(" ", 1)[1].replace("+Inf", "inf"))
            if "_bucket{" in line:
                seen = buckets.setdefault(name, [])
                if seen:
                    assert value >= seen[-1], "buckets must be cumulative"
                seen.append(value)
            elif name.endswith("_count"):
                counts[name[: -len("_count")]] = value
        for name, series in buckets.items():
            family = name[: -len("_bucket")]
            assert series[-1] == counts[family]

    def test_serve_metrics_http_roundtrip(self):
        from urllib.request import urlopen

        registry = self._populated()
        server = serve_metrics(port=0, registry=registry)
        try:
            with urlopen(server.url, timeout=5) as response:
                assert response.status == 200
                assert response.headers["Content-Type"].startswith(
                    "text/plain; version=0.0.4"
                )
                body = response.read().decode("utf-8")
            assert body == registry.expose_text()
            with urlopen(f"http://127.0.0.1:{server.port}/",
                         timeout=5) as response:
                assert response.status == 200
        finally:
            server.shutdown()

    def test_unknown_path_is_404(self):
        from urllib.error import HTTPError
        from urllib.request import urlopen

        server = serve_metrics(port=0, registry=MetricsRegistry())
        try:
            with pytest.raises(HTTPError) as excinfo:
                urlopen(f"http://127.0.0.1:{server.port}/nope", timeout=5)
            assert excinfo.value.code == 404
        finally:
            server.shutdown()


class TestRegistry:
    def test_absorb_merges_query_stats(self):
        registry = MetricsRegistry()
        stats = QueryStatistics()
        stats.bump("rtree.searches", 2)
        stats.gauge_max("executor.peak_materialized_rows", 128)
        with stats.tracer.span("execute"):
            pass
        registry.absorb(stats)
        registry.absorb(stats)
        snap = registry.snapshot()
        assert snap["counters"]["queries_total"] == 2
        assert snap["counters"]["rtree.searches"] == 4
        assert snap["gauges"]["executor.peak_materialized_rows"]["peak"] == 128
        assert snap["histograms"]["query_seconds"]["count"] == 2
        assert snap["histograms"]["phase_seconds.execute"]["count"] == 2

    def test_reset(self):
        registry = MetricsRegistry()
        registry.counter("a").increment()
        registry.reset()
        assert registry.snapshot()["counters"] == {}


class TestTracer:
    def test_nesting_and_phase_rollup(self):
        tracer = Tracer()
        with tracer.span("execute"):
            with tracer.span("scan"):
                pass
            with tracer.span("scan"):
                pass
        with tracer.span("execute"):
            pass
        assert len(tracer.spans) == 2
        assert [c.name for c in tracer.spans[0].children] == ["scan", "scan"]
        phases = tracer.phase_seconds()
        # Nested spans roll up into their parent, not the phase total.
        assert set(phases) == {"execute"}
        assert tracer.total_seconds() == pytest.approx(sum(phases.values()))

    def test_span_to_dict(self):
        tracer = Tracer()
        with tracer.span("a"):
            with tracer.span("b"):
                pass
        node = tracer.to_list()[0]
        assert node["name"] == "a"
        assert node["seconds"] >= node["children"][0]["seconds"]


class TestAmbientContext:
    def test_count_is_noop_without_active_stats(self):
        assert current_stats() is None
        count("anything")  # must not raise
        gauge_max("anything", 1.0)

    def test_activate_scopes_stats(self):
        stats = QueryStatistics()
        with activate(stats):
            count("rtree.searches", 3)
            assert current_stats() is stats
        assert current_stats() is None
        assert stats.counter("rtree.searches") == 3

    def test_maybe_span_none_is_noop(self):
        with maybe_span(None, "parse"):
            pass

    def test_phase_sum_equals_total(self):
        stats = QueryStatistics()
        for phase in ("parse", "bind", "optimize", "execute"):
            with maybe_span(stats, phase):
                pass
        phases = stats.phase_seconds()
        assert set(phases) == {"parse", "bind", "optimize", "execute"}
        assert stats.total_seconds() == pytest.approx(sum(phases.values()))
