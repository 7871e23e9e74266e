"""The health surface: snapshots, validation, and associative merging."""

import json

import pytest

from repro import Monitor
from repro.db import DatabaseSchema
from repro.errors import TelemetryError
from repro.obs import (
    HEALTH_VERSION,
    Histogram,
    build_health,
    load_health,
    merge_health,
    render_health_text,
    validate_health,
    write_health,
)
from repro.obs.health import histogram_from_snapshot, snapshot_histogram
from repro.obs.slo import SLOSpec

from tests.conftest import txn


class FakeClock:
    """Fixed-tick clock: stage latencies independent of run chunking."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        self.now += 1.0
        return self.now


@pytest.fixture
def schema():
    return DatabaseSchema.from_dict({"p": ["a"]})


def build_monitor(schema):
    monitor = Monitor(schema)
    monitor.add_constraints_text("no-p: NOT (EXISTS x. p(x))")
    return monitor


def workload(length):
    """A deterministic stream that violates on every third step."""
    for t in range(1, length + 1):
        if t % 3 == 0:
            yield t, txn(insert={"p": [(t,)]})
        elif t % 3 == 1:
            yield t, txn(delete={"p": [(t - 1,)]})
        else:
            yield t, txn()


def quiet_slo():
    # the fault indicator never breaches on this workload, so alert
    # counts stay zero in every chunking (windowed burn state is not
    # mergeable; budget counts are)
    return SLOSpec("faults", "fault", 0, 0.9)


class TestHistogramSnapshots:
    def test_round_trip(self):
        hist = Histogram((1.0, 2.0, 4.0))
        for value in (0.5, 1.5, 3.0, 9.0):
            hist.observe(value)
        doc = snapshot_histogram(hist)
        again = histogram_from_snapshot(doc)
        assert again.buckets == hist.buckets
        assert again.bucket_counts == hist.bucket_counts
        assert again.count == hist.count
        assert again.sum == pytest.approx(hist.sum)
        assert doc["p50"] == hist.quantile(0.5)

    @pytest.mark.parametrize("mutate", [
        lambda d: d.pop("counts"),
        lambda d: d["counts"].append(1),
        lambda d: d["counts"].__setitem__(0, -1),
        lambda d: d.__setitem__("count", 0),  # below bucketed total
    ])
    def test_malformed_snapshots_rejected(self, mutate):
        hist = Histogram((1.0, 2.0))
        hist.observe(0.5)
        hist.observe(1.5)
        doc = snapshot_histogram(hist)
        mutate(doc)
        with pytest.raises(TelemetryError):
            histogram_from_snapshot(doc)


class TestBuildAndValidate:
    def test_snapshot_without_telemetry_still_validates(self, schema):
        monitor = build_monitor(schema)
        for t, t_txn in workload(6):
            monitor.step(t, t_txn)
        doc = validate_health(monitor.health())
        assert doc["version"] == HEALTH_VERSION
        assert doc["steps"]["processed"] == 6
        assert doc["stages"] is None
        assert doc["slo"] == []

    def test_snapshot_with_full_stack(self, schema):
        monitor = build_monitor(schema)
        monitor.enable_telemetry(slo=quiet_slo(), clock=FakeClock())
        monitor.feed([list(workload(12))], watermark=2)
        doc = validate_health(monitor.health())
        assert doc["steps"]["processed"] == 12
        assert doc["steps"]["violations"] == 4
        assert doc["stages"]["check"]["count"] == 12
        assert doc["ingest"]["accepted"] == 12
        assert doc["lag"]["frontier"]["count"] == 12
        [slo] = doc["slo"]
        assert (slo["good"], slo["bad"]) == (12, 0)
        assert slo["state"] == "ok"

    @pytest.mark.parametrize("mutate", [
        lambda d: d.__setitem__("version", "repro-health/999"),
        lambda d: d.pop("steps"),
        lambda d: d["steps"].__setitem__("processed", -1),
        lambda d: d.__setitem__("engines", "incremental"),
        lambda d: d.__setitem__("slo", {"name": "x"}),
        lambda d: d["slo"].append({"nope": 1}),
    ])
    def test_validation_rejects(self, schema, mutate):
        monitor = build_monitor(schema)
        monitor.enable_telemetry(slo=quiet_slo())
        monitor.step(1, txn())
        doc = monitor.health()
        mutate(doc)
        with pytest.raises(TelemetryError):
            validate_health(doc)


class TestMergeProperty:
    """The acceptance property: folding per-chunk snapshots from ANY
    partition of the workload equals the single-run snapshot."""

    LENGTH = 60

    def single_run(self, schema):
        monitor = build_monitor(schema)
        monitor.enable_telemetry(slo=quiet_slo(), clock=FakeClock())
        for t, t_txn in workload(self.LENGTH):
            monitor.step(t, t_txn)
        return monitor.health()

    def chunked_run(self, schema, sizes, tmp_path):
        assert sum(sizes) == self.LENGTH
        stream = list(workload(self.LENGTH))
        snapshots = []
        checkpoint = tmp_path / "chunk.ckpt"
        monitor = None
        start = 0
        for index, size in enumerate(sizes):
            if monitor is None:
                monitor = build_monitor(schema)
            else:
                monitor = Monitor.recover(checkpoint, resume_journal=False)[0]
            monitor.enable_telemetry(slo=quiet_slo(), clock=FakeClock())
            for t, t_txn in stream[start:start + size]:
                monitor.step(t, t_txn)
            start += size
            monitor.save(checkpoint)
            snapshots.append(monitor.health())
        return snapshots

    @pytest.mark.parametrize("sizes", [
        [60],
        [30, 30],
        [20, 20, 20],
        [10, 50],
        [1, 59],
        [7, 13, 17, 23],
    ])
    def test_fold_equals_single_run(self, schema, sizes, tmp_path):
        single = self.single_run(schema)
        merged = merge_health(self.chunked_run(schema, sizes, tmp_path))
        assert merged == single

    def test_merge_is_associative(self, schema, tmp_path):
        a, b, c = self.chunked_run(schema, [20, 20, 20], tmp_path)
        left = merge_health([merge_health([a, b]), c])
        right = merge_health([a, merge_health([b, c])])
        assert left == right


class TestMergeEdges:
    def test_needs_at_least_one(self):
        with pytest.raises(TelemetryError, match="at least one"):
            merge_health([])

    def test_mismatched_slo_definitions_rejected(self, schema):
        def snap(threshold):
            monitor = build_monitor(schema)
            monitor.enable_telemetry(
                slo=SLOSpec("s", "fault", threshold, 0.9)
            )
            monitor.step(1, txn())
            return monitor.health()

        with pytest.raises(TelemetryError, match="threshold differs"):
            merge_health([snap(0), snap(5)])

    def test_disjoint_slos_union(self, schema):
        def snap(name):
            monitor = build_monitor(schema)
            monitor.enable_telemetry(slo=SLOSpec(name, "fault", 0, 0.9))
            monitor.step(1, txn())
            return monitor.health()

        merged = merge_health([snap("a"), snap("b")])
        assert [entry["name"] for entry in merged["slo"]] == ["a", "b"]
        assert merged["steps"]["processed"] == 2

    def test_gauges_take_the_worst_shard(self, schema):
        def snap(length, watermark):
            monitor = build_monitor(schema)
            monitor.enable_telemetry(clock=FakeClock())
            monitor.feed([list(workload(length))], watermark=watermark)
            return monitor.health()

        low, high = snap(6, 1), snap(12, 3)
        merged = merge_health([low, high])
        assert merged["lag"]["frontier_lag"] == max(
            low["lag"]["frontier_lag"], high["lag"]["frontier_lag"]
        )
        assert merged["ingest"]["watermark"] == 3
        assert merged["ingest"]["accepted"] == 18

    def test_telemetry_free_snapshot_merges_as_empty(self, schema):
        bare = build_monitor(schema)
        bare.step(1, txn())
        rich = build_monitor(schema)
        rich.enable_telemetry(clock=FakeClock())
        rich.step(1, txn())
        merged = merge_health([bare.health(), rich.health()])
        assert merged["steps"]["processed"] == 2
        assert merged["stages"]["check"]["count"] == 1


class TestIO:
    def test_write_load_round_trip(self, schema, tmp_path):
        monitor = build_monitor(schema)
        monitor.enable_telemetry(slo=quiet_slo(), clock=FakeClock())
        monitor.step(1, txn())
        path = tmp_path / "health.json"
        write_health(monitor.health(), path)
        assert load_health(path) == monitor.health()

    def test_load_rejects_garbage(self, tmp_path):
        missing = tmp_path / "missing.json"
        with pytest.raises(TelemetryError, match="cannot read"):
            load_health(missing)
        bad = tmp_path / "bad.json"
        bad.write_text("{nope")
        with pytest.raises(TelemetryError, match="not valid JSON"):
            load_health(bad)
        wrong = tmp_path / "wrong.json"
        wrong.write_text(json.dumps({"version": "other/1"}))
        with pytest.raises(TelemetryError, match="version"):
            load_health(wrong)

    def test_render_text_covers_sections(self, schema):
        monitor = build_monitor(schema)
        monitor.enable_telemetry(slo=quiet_slo(), clock=FakeClock())
        monitor.feed([list(workload(12))], watermark=2)
        text = render_health_text(monitor.health())
        assert "12 step(s)" in text
        assert "stage latency (us)" in text
        assert "frontier lag" in text
        assert "ingest: 12 accepted" in text
        assert "faults" in render_health_text(build_health(monitor))


def test_build_health_without_any_extras(schema):
    monitor = build_monitor(schema)
    doc = build_health(monitor)
    assert doc["ingest"] is None
    assert doc["faults"] is None
    assert doc["journal"] is None
