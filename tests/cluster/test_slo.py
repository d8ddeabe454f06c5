"""SLO accounting: histogram accuracy, merging, and the shared schema."""

import random

import pytest

from repro.cluster.slo import (
    GROWTH,
    LatencyHistogram,
    SloSummary,
    bucket_index,
    bucket_value_ns,
    render_slo_table,
    rollup,
)
from repro.workloads.serving import NO_SAMPLES_NS, percentile_ns


class TestBuckets:
    def test_representative_value_lands_in_bucket(self):
        # Holds once buckets are wider than 1 ns (index ~100, i.e. ~50 ns);
        # below that adjacent buckets collapse onto the same integer, which
        # is fine — sub-2% error at sub-50 ns is meaningless.
        for index in (100, 150, 300, 500):
            value = bucket_value_ns(index)
            assert bucket_index(value) == index

    def test_representative_value_tracks_sample(self):
        for sample in (1_000, 12_345, 5_000_000, 987_654_321):
            value = bucket_value_ns(bucket_index(sample))
            assert abs(value - sample) / sample < GROWTH - 1.0

    def test_small_samples_fold_into_bucket_zero(self):
        assert bucket_index(0) == 0
        assert bucket_index(1) == 0


class TestLatencyHistogram:
    def test_empty_percentile_is_sentinel(self):
        hist = LatencyHistogram()
        for pct in (0, 50, 99, 99.9, 100):
            assert hist.percentile_ns(pct) == NO_SAMPLES_NS

    def test_percentiles_within_bucket_resolution(self):
        # Against the exact nearest-rank helper: the geometric buckets
        # promise ~2% relative error (one GROWTH step ~= 4%).
        rng = random.Random(42)
        samples = sorted(rng.randrange(1_000, 50_000_000) for _ in range(5_000))
        hist = LatencyHistogram()
        for sample in samples:
            hist.add(sample)
        for pct in (50, 90, 99, 99.9):
            exact = percentile_ns(samples, pct)
            approx = hist.percentile_ns(pct)
            assert abs(approx - exact) / exact < GROWTH - 1.0 + 0.01

    def test_merge_equals_combined_fold(self):
        left, right, combined = (
            LatencyHistogram(),
            LatencyHistogram(),
            LatencyHistogram(),
        )
        for value in (100, 2_000, 30_000):
            left.add(value)
            combined.add(value)
        for value in (150, 2_000, 999_999):
            right.add(value)
            combined.add(value)
        left.merge(right)
        assert left.buckets == combined.buckets
        assert left.total == 6

    def test_dict_round_trip(self):
        hist = LatencyHistogram()
        for value in (5, 500, 50_000, 50_000):
            hist.add(value)
        rebuilt = LatencyHistogram.from_dict(hist.as_dict())
        assert rebuilt.buckets == hist.buckets
        # String keys come out sorted for the canonical-JSON manifest.
        keys = list(hist.as_dict())
        assert keys == sorted(keys, key=int)

    def test_pct_bounds_clamp(self):
        hist = LatencyHistogram()
        hist.add(1_000)
        hist.add(1_000_000)
        assert hist.percentile_ns(0) == bucket_value_ns(bucket_index(1_000))
        assert hist.percentile_ns(100) == bucket_value_ns(bucket_index(1_000_000))

    def test_sentinel_add_is_a_silent_noop(self):
        hist = LatencyHistogram()
        hist.add(NO_SAMPLES_NS)
        assert hist.buckets == {}
        assert hist.percentile_ns(99) == NO_SAMPLES_NS
        # A no-samples shard must not materialise as a fake 1 ns request.
        hist.add(1_000)
        hist.add(NO_SAMPLES_NS)
        assert hist.total == 1

    def test_other_negative_latency_raises(self):
        hist = LatencyHistogram()
        with pytest.raises(ValueError):
            hist.add(-7)

    def test_merging_empty_histograms_is_identity(self):
        empty = LatencyHistogram()
        assert empty.merge(LatencyHistogram()).buckets == {}
        loaded = LatencyHistogram()
        loaded.add(5_000)
        before = dict(loaded.buckets)
        loaded.merge(LatencyHistogram())
        assert loaded.buckets == before
        fresh = LatencyHistogram()
        fresh.merge(loaded)
        assert fresh.buckets == before

    def test_from_dict_rejects_corrupt_buckets(self):
        with pytest.raises(ValueError):
            LatencyHistogram.from_dict({"-1": 3})
        with pytest.raises(ValueError):
            LatencyHistogram.from_dict({"4": -2})
        # Zero counts are dropped so round-trips stay canonical.
        assert LatencyHistogram.from_dict({"4": 0, "7": 2}).buckets == {7: 2}


class TestSloSummary:
    def _summary(self, scope, latencies, **counts):
        summary = SloSummary(scope=scope, **counts)
        for value in latencies:
            summary.histogram.add(value)
        return summary

    def test_empty_summary_is_perfect_with_sentinel_latency(self):
        entry = SloSummary(scope="node").as_dict()
        assert entry["success_rate"] == 1.0
        assert entry["p50_ns"] == NO_SAMPLES_NS
        assert entry["p999_ns"] == NO_SAMPLES_NS

    def test_rollup_of_empty_nodes_keeps_the_sentinel(self):
        cluster = rollup([SloSummary(scope="n0"), SloSummary(scope="n1")])
        entry = cluster.as_dict()
        assert entry["attempted"] == 0
        assert entry["success_rate"] == 1.0
        assert entry["p99_ns"] == NO_SAMPLES_NS

    def test_rollup_mixing_empty_and_loaded_nodes(self):
        loaded = self._summary("n0", [4_000] * 4, attempted=4, succeeded=4)
        cluster = rollup([SloSummary(scope="dead"), loaded, SloSummary(scope="idle")])
        entry = cluster.as_dict()
        # Empty shards contribute nothing — no fake samples, no dilution.
        assert cluster.histogram.total == 4
        assert entry["attempted"] == 4
        assert entry["p50_ns"] != NO_SAMPLES_NS

    def test_rollup_sums_counts_and_merges_latencies(self):
        nodes = [
            self._summary("n0", [1_000] * 10, attempted=11, succeeded=10, failed=1),
            self._summary("n1", [100_000] * 9, attempted=9, succeeded=9,
                          retries=3, shed=2),
        ]
        cluster = rollup(nodes)
        assert cluster.scope == "cluster"
        assert cluster.attempted == 20
        assert cluster.succeeded == 19
        assert cluster.retries == 3
        assert cluster.shed == 2
        assert cluster.failed == 1
        assert cluster.histogram.total == 19
        entry = cluster.as_dict()
        assert entry["success_rate"] == 19 / 20
        # Merged distribution spans both nodes: p50 low, p999 high.
        assert entry["p50_ns"] < 2_000
        assert entry["p999_ns"] > 90_000

    def test_metrics_round_trip(self):
        original = self._summary(
            "sk:node00", [5_000, 6_000], attempted=3, succeeded=2, failed=1
        )
        metrics = {
            "attempted": 3,
            "succeeded": 2,
            "failed": 1,
            "latency_hist": original.histogram.as_dict(),
        }
        rebuilt = SloSummary.from_metrics("sk:node00", metrics)
        assert rebuilt.as_dict() == original.as_dict()

    def test_schema_matches_serving_stats_summary(self):
        from repro.workloads.serving import ServingStats

        stats = ServingStats("w")
        stats.record_success(1_000)
        assert list(SloSummary(scope="w").as_dict()) == list(stats.summary())

    def test_render_table_has_row_per_scope(self):
        table = render_slo_table(
            [SloSummary(scope="node00"), SloSummary(scope="cluster")]
        )
        lines = table.splitlines()
        assert len(lines) == 3
        assert "node00" in lines[1] and "cluster" in lines[2]
