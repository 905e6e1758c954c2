"""Counter/gauge semantics and histogram bucket boundaries."""

import pytest

from repro.telemetry import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    render_prometheus,
)


def test_counter_only_goes_up():
    c = Counter("n")
    c.inc()
    c.inc(3)
    assert c.value == 4
    with pytest.raises(ValueError):
        c.inc(-1)


def test_gauge_reads_callback_or_set_value():
    g = Gauge("g")
    assert g.read() is None
    live = Gauge("live", fn=lambda: 42)
    assert live.read() == 42


def test_histogram_le_boundary_semantics():
    h = Histogram("h", boundaries=(1.0, 2.0, 4.0))
    # a value equal to a boundary belongs to that boundary's bucket
    h.observe(1.0)
    assert tuple(h.counts) == (1, 0, 0, 0)
    h.observe(1.5)
    h.observe(2.0)
    assert tuple(h.counts) == (1, 2, 0, 0)
    h.observe(4.0)
    h.observe(4.0001)  # above the last boundary -> overflow bucket
    h.observe(1000.0)
    assert tuple(h.counts) == (1, 2, 1, 2)
    assert h.count == 6
    assert h.total == pytest.approx(1.0 + 1.5 + 2.0 + 4.0 + 4.0001 + 1000.0)


def test_histogram_boundaries_must_be_strictly_increasing():
    with pytest.raises(ValueError):
        Histogram("h", boundaries=())
    with pytest.raises(ValueError):
        Histogram("h", boundaries=(1.0, 1.0, 2.0))
    with pytest.raises(ValueError):
        Histogram("h", boundaries=(2.0, 1.0))


def test_registry_get_or_create_and_boundary_conflict():
    reg = MetricsRegistry()
    assert reg.counter("a") is reg.counter("a")
    assert reg.histogram("h", (1, 2)) is reg.histogram("h", (1, 2))
    with pytest.raises(ValueError, match="different boundaries"):
        reg.histogram("h", (1, 2, 3))


def test_registry_gauge_rebinds_callback():
    reg = MetricsRegistry()
    g = reg.gauge("units.done", fn=lambda: 1)
    assert g.read() == 1
    # a fresh execution rebinds the same name to its own view
    assert reg.gauge("units.done", fn=lambda: 2) is g
    assert g.read() == 2
    assert reg.gauge("units.done").read() == 2  # plain get keeps the fn


def test_snapshot_is_sorted_and_json_stable():
    reg = MetricsRegistry()
    reg.counter("z").inc()
    reg.counter("a").inc(2)
    reg.gauge("m", lambda: 1.5)
    reg.histogram("h", (10.0,)).observe(3.0)
    snap = reg.snapshot()
    assert list(snap) == ["counters", "gauges", "histograms"]
    assert list(snap["counters"]) == ["a", "z"]
    assert snap["histograms"]["h"] == {
        "boundaries": [10.0], "counts": [1, 0], "sum": 3.0, "count": 1,
    }
    assert "counter" in reg.render_table()


def test_render_table_aligns_long_metric_names():
    reg = MetricsRegistry()
    long_name = "scheduler.backfill.passes.with.a.very.long.dotted.name"
    assert len(long_name) > 38
    reg.counter(long_name).inc(3)
    reg.counter("short").inc()
    reg.gauge("mid.sized.gauge", lambda: 1.0)
    lines = reg.render_table().splitlines()
    # every row's first separator sits in the same column, padded from
    # the longest registered name — not the old hardcoded 38.
    columns = {line.index(" | ") for line in lines if " | " in line}
    assert columns == {len(long_name)}


def test_render_prometheus_exposition():
    reg = MetricsRegistry()
    reg.counter("events.processed").inc(5)
    reg.gauge("heap-size", lambda: 7)
    reg.gauge("label", lambda: "text")  # non-numeric: skipped
    reg.histogram("wait_s", (1.0, 2.0)).observe(0.5)
    reg.histogram("wait_s", (1.0, 2.0)).observe(5.0)
    text = render_prometheus(reg.snapshot())
    assert "# TYPE repro_events_processed counter" in text
    assert "repro_events_processed 5" in text
    assert "repro_heap_size 7" in text  # [.-] sanitized to _
    assert "label" not in text
    # cumulative le buckets + sum/count
    assert 'repro_wait_s_bucket{le="1.0"} 1' in text
    assert 'repro_wait_s_bucket{le="2.0"} 1' in text
    assert 'repro_wait_s_bucket{le="+Inf"} 2' in text
    assert "repro_wait_s_sum 5.5" in text
    assert "repro_wait_s_count 2" in text
    assert text.endswith("\n")
