"""Prometheus text exposition of registry snapshots (`GET /metrics`)."""

from repro.obs import MetricsRegistry, metric_name, render_prometheus, use_registry
from repro.incremental.memo import MemoStore


def render(registry):
    return render_prometheus(registry.snapshot())


class TestNames:
    def test_dotted_names_become_namespaced_underscores(self):
        assert metric_name("cache.hits") == "repro_cache_hits"
        assert metric_name("server.job_seconds") == "repro_server_job_seconds"

    def test_hostile_characters_are_sanitized(self):
        assert metric_name("a-b c") == "repro_a_b_c"


class TestCounters:
    def test_plain_counter(self):
        registry = MetricsRegistry()
        registry.counter("jobs.done").inc(3)
        text = render(registry)
        assert "# TYPE repro_jobs_done counter" in text
        assert "repro_jobs_done 3" in text

    def test_labelled_series_render_with_quoted_labels(self):
        registry = MetricsRegistry()
        registry.counter("faults.hits", site="worker", mode="kill").inc()
        text = render(registry)
        assert 'repro_faults_hits{mode="kill",site="worker"} 1' in text

    def test_label_values_escape_quotes_and_backslashes(self):
        registry = MetricsRegistry()
        registry.counter("odd", why='a"b\\c').inc()
        assert 'why="a\\"b\\\\c"' in render(registry)


class TestGaugesAndHistograms:
    def test_gauge(self):
        registry = MetricsRegistry()
        registry.gauge("queue.depth").set(7)
        text = render(registry)
        assert "# TYPE repro_queue_depth gauge" in text
        assert "repro_queue_depth 7" in text

    def test_histogram_buckets_are_cumulative_with_inf(self):
        registry = MetricsRegistry()
        hist = registry.histogram("lat", boundaries=(1.0, 5.0))
        for value in (0.5, 0.6, 3.0, 100.0):
            hist.observe(value)
        text = render(registry)
        assert "# TYPE repro_lat histogram" in text
        assert 'repro_lat_bucket{le="1"} 2' in text
        assert 'repro_lat_bucket{le="5"} 3' in text      # cumulative
        assert 'repro_lat_bucket{le="+Inf"} 4' in text   # == _count
        assert "repro_lat_count 4" in text
        assert "repro_lat_sum 104.1" in text

    def test_empty_snapshot_renders_cleanly(self):
        assert render(MetricsRegistry()) == "\n"

    def test_spans_derived_marker_is_ignored(self):
        snapshot = {"counters": {"a": 1}, "derived_from": "spans"}
        assert "repro_a 1" in render_prometheus(snapshot)


class TestPointMemoExposure:
    """Satellite pin: point-memo lookups — the job payload's
    ``cache_hits``/``cache_misses`` — reach the ambient registry and
    survive the Prometheus rendering, so a `/metrics` scrape (and
    `repro trace --metrics-json`) sees the persistent store's hit rate."""

    def test_point_lookups_reach_the_ambient_counters(self):
        registry = MetricsRegistry()
        with use_registry(registry):
            memo = MemoStore()
            memo.point_get("k")
            memo.point_put("k", {"cycles": 1})
            memo.point_get("k")
        rendered = render_prometheus(registry.snapshot())
        assert 'repro_incremental_memo_misses{domain="point"} 1' in rendered
        assert 'repro_incremental_memo_hits{domain="point"} 1' in rendered
