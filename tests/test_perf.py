"""The performance subsystem: records, emitter, baseline comparator, CLI."""

from __future__ import annotations

import json
import random

import pytest

from repro.perf import (
    LatencyHistogram,
    PerfRecord,
    bench_path,
    compare,
    format_regressions,
    load_bench,
    record_from_batch,
    update_bench,
    write_result,
)
from repro.pkc import get_scheme
from repro.pkc.bench import run_batch


def make_record(scheme="ceilidh-170", operation="key-agreement", ops_per_second=100.0):
    return PerfRecord(
        scheme=scheme,
        operation=operation,
        sessions=16,
        wall_seconds=16 / ops_per_second,
        ops_per_second=ops_per_second,
        ms_per_op=1e3 / ops_per_second,
        squarings=1000,
        multiplications=400,
        inversions=2,
        wire_bytes=1376,
        projected_cycles=123456,
        meta={"quick": False},
    )


class TestLatencyHistogram:
    def test_exact_percentiles_with_interpolation(self):
        hist = LatencyHistogram([0.010, 0.020, 0.030, 0.040, 0.050])
        assert hist.percentile(0.0) == pytest.approx(0.010)
        assert hist.percentile(0.5) == pytest.approx(0.030)
        assert hist.percentile(1.0) == pytest.approx(0.050)
        assert hist.percentile(0.25) == pytest.approx(0.020)
        assert hist.percentile(0.9) == pytest.approx(0.046)

    def test_add_order_does_not_matter(self):
        shuffled = LatencyHistogram()
        for sample in (0.05, 0.01, 0.03, 0.02, 0.04):
            shuffled.add(sample)
        assert shuffled.percentile(0.5) == pytest.approx(0.03)
        # Adding after a percentile query re-sorts correctly.
        shuffled.add(0.001)
        assert shuffled.percentile(0.0) == pytest.approx(0.001)

    def test_empty_histogram_reports_zeroes(self):
        hist = LatencyHistogram()
        assert hist.percentile(0.99) == 0.0
        digest = hist.summary()
        assert digest["count"] == 0
        assert digest["p50_ms"] == 0.0
        assert digest["max_ms"] == 0.0

    def test_summary_shape_in_milliseconds(self):
        hist = LatencyHistogram([0.010, 0.020, 0.030])
        digest = hist.summary()
        assert digest["count"] == 3
        assert digest["p50_ms"] == pytest.approx(20.0)
        assert digest["max_ms"] == pytest.approx(30.0)
        assert digest["mean_ms"] == pytest.approx(20.0)
        assert set(digest) == {
            "p50_ms", "p90_ms", "p99_ms", "p999_ms", "max_ms", "mean_ms", "count",
        }

    def test_merge_and_counters(self):
        left = LatencyHistogram([0.010, 0.030])
        right = LatencyHistogram([0.020])
        left.merge(right)
        assert left.count == 3
        assert len(left) == 3
        assert left.mean_seconds == pytest.approx(0.020)
        assert left.max_seconds == pytest.approx(0.030)
        assert left.percentile(0.5) == pytest.approx(0.020)

    def test_quantile_bounds_enforced(self):
        with pytest.raises(ValueError):
            LatencyHistogram([0.01]).percentile(1.5)


class TestPerfRecord:
    def test_key_is_scheme_colon_operation(self):
        assert make_record().key == "ceilidh-170:key-agreement"

    def test_dict_round_trip(self):
        record = make_record()
        assert PerfRecord.from_dict(record.as_dict()) == record

    def test_from_dict_ignores_unknown_fields(self):
        data = make_record().as_dict()
        data["future_field"] = "whatever"
        assert PerfRecord.from_dict(data) == make_record()

    def test_record_from_batch(self):
        scheme = get_scheme("ceilidh-toy32")
        result = run_batch(scheme, "key-agreement", 3, rng=random.Random(5))
        record = record_from_batch(result, quick=True)
        assert record.scheme == "ceilidh-toy32"
        assert record.operation == "key-agreement"
        assert record.sessions == 3
        assert record.ops_per_second == pytest.approx(result.sessions_per_second)
        assert record.squarings == result.ops.squarings
        assert record.projected_cycles is None  # no platform supplied
        assert record.meta == {"quick": True}

    def test_record_from_batch_projects_cycles(self):
        from repro.soc.system import Platform

        scheme = get_scheme("ceilidh-toy32")
        platform = Platform()
        result = run_batch(scheme, "key-agreement", 2, rng=random.Random(6))
        record = record_from_batch(result, scheme=scheme, platform=platform)
        cost_sq, cost_mul = scheme.platform_cycles_per_operation(platform)
        expected = result.ops.squarings * cost_sq + result.ops.multiplications * cost_mul
        assert record.projected_cycles == expected > 0


class TestEmitter:
    def test_missing_file_is_empty_trajectory(self, tmp_path):
        assert load_bench(tmp_path / "BENCH_pkc.json") == {}

    def test_update_creates_and_reloads(self, tmp_path):
        path = tmp_path / "BENCH_pkc.json"
        update_bench(path, [make_record()])
        entries = load_bench(path)
        assert list(entries) == ["ceilidh-170:key-agreement"]
        assert entries["ceilidh-170:key-agreement"] == make_record()

    def test_update_merges_without_erasing_other_cells(self, tmp_path):
        path = tmp_path / "BENCH_pkc.json"
        update_bench(path, [make_record(), make_record(scheme="rsa-1024", operation="encryption")])
        update_bench(path, [make_record(ops_per_second=250.0)])
        entries = load_bench(path)
        assert entries["ceilidh-170:key-agreement"].ops_per_second == 250.0
        assert "rsa-1024:encryption" in entries  # untouched cell survived

    def test_malformed_file_raises(self, tmp_path):
        path = tmp_path / "BENCH_pkc.json"
        path.write_text("not json {")
        with pytest.raises(json.JSONDecodeError):
            load_bench(path)

    def test_bench_path_env_override(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_PATH", str(tmp_path / "elsewhere.json"))
        assert bench_path(tmp_path) == tmp_path / "elsewhere.json"
        monkeypatch.delenv("REPRO_BENCH_PATH")
        assert bench_path(tmp_path) == tmp_path / "BENCH_pkc.json"

    def test_write_result_emits_both_renderings(self, tmp_path):
        text = write_result(
            tmp_path, "demo", ["scheme", "ops/s"], [("ceilidh-170", 100.5)], title="Demo"
        )
        assert "ceilidh-170" in text
        assert (tmp_path / "demo.txt").read_text().startswith("Demo")
        document = json.loads((tmp_path / "demo.json").read_text())
        assert document["rows"] == [{"scheme": "ceilidh-170", "ops/s": 100.5}]


class TestBaselineCompare:
    def test_no_regression_within_tolerance(self):
        current = {"a:x": make_record("a", "x", 85.0)}
        baseline = {"a:x": make_record("a", "x", 100.0)}
        assert compare(current, baseline, tolerance=0.2) == []

    def test_regression_beyond_tolerance_detected(self):
        current = {"a:x": make_record("a", "x", 70.0)}
        baseline = {"a:x": make_record("a", "x", 100.0)}
        regressions = compare(current, baseline, tolerance=0.2)
        assert [r.key for r in regressions] == ["a:x"]
        assert regressions[0].ratio == pytest.approx(0.7)
        assert "a:x" in format_regressions(regressions)

    def test_unshared_cells_skipped(self):
        current = {"new:x": make_record("new", "x", 1.0)}
        baseline = {"old:x": make_record("old", "x", 100.0)}
        assert compare(current, baseline) == []

    def test_calibration_cancels_uniform_machine_speed(self):
        # Every cell is uniformly 3x slower (a slower host, not a regression)...
        current = {
            key: make_record(*key.split(":"), ops_per_second=rate / 3)
            for key, rate in (("a:x", 90.0), ("b:x", 120.0), ("c:x", 150.0))
        }
        baseline = {
            key: make_record(*key.split(":"), ops_per_second=rate)
            for key, rate in (("a:x", 90.0), ("b:x", 120.0), ("c:x", 150.0))
        }
        assert compare(current, baseline, calibrate=True) == []
        # ...but one cell regressing on top of that still sticks out.
        current["b:x"] = make_record("b", "x", 120.0 / 3 * 0.5)
        regressions = compare(current, baseline, calibrate=True)
        assert [r.key for r in regressions] == ["b:x"]

    def test_bad_tolerance_rejected(self):
        with pytest.raises(ValueError):
            compare({}, {}, tolerance=1.5)


class TestCli:
    def test_show_and_compare(self, tmp_path, capsys):
        from repro.perf.__main__ import main

        path = tmp_path / "BENCH_pkc.json"
        update_bench(path, [make_record()])
        assert main(["show", str(path)]) == 0
        assert "ceilidh-170" in capsys.readouterr().out

        slower = tmp_path / "slower.json"
        update_bench(slower, [make_record(ops_per_second=10.0)])
        assert main(["compare", str(path), str(slower)]) == 0  # faster than baseline
        assert main(["compare", str(slower), str(path)]) == 1  # 10x slower: regression

    def test_compare_clean_exit(self, tmp_path, capsys):
        from repro.perf.__main__ import main

        path = tmp_path / "BENCH_pkc.json"
        update_bench(path, [make_record()])
        assert main(["compare", str(path), str(path)]) == 0
        assert "no throughput regressions" in capsys.readouterr().out
