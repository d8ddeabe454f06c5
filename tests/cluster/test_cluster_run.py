"""End-to-end cluster runs: availability, determinism, trace analysis.

These run real (small) clusters through the sweep engine, so they are the
slowest tests in the suite — keep the client counts tiny.
"""

import pytest

from repro.cluster.node import run_clusternode
from repro.cluster.runner import run_cluster
from repro.cluster.slo import fold_shard_traces
from repro.cluster.spec import ClusterSpec


def _spec(**overrides):
    base = dict(nodes=2, clients=40, ops_per_client=2, seed=7)
    base.update(overrides)
    return ClusterSpec(**base)


@pytest.fixture(scope="module")
def chaos_report():
    """One shared 2-node SecureKeeper run with the default node kill."""
    return run_cluster(_spec(), jobs=0)


class TestSecureKeeperCluster:
    def test_holds_slo_through_node_loss(self, chaos_report):
        report = chaos_report
        assert not report.degraded
        assert report.cluster_slo.attempted == 80
        assert report.availability >= 0.99
        assert report.routing.failovers > 0  # the kill actually bit

    def test_per_node_summaries_roll_up(self, chaos_report):
        report = chaos_report
        assert len(report.node_slos) == 2
        assert sum(s.attempted for s in report.node_slos) == 80
        assert (
            sum(s.succeeded for s in report.node_slos)
            == report.cluster_slo.succeeded
        )

    def test_latency_percentiles_are_real(self, chaos_report):
        entry = chaos_report.cluster_slo.as_dict()
        assert 0 < entry["p50_ns"] <= entry["p99_ns"] <= entry["p999_ns"]

    def test_render_is_deterministic_and_complete(self, chaos_report):
        text = chaos_report.render()
        assert text == chaos_report.render()
        assert "cluster availability" in text
        assert chaos_report.digest in text


class TestDeterminism:
    def test_manifest_identical_inline_vs_two_workers(self):
        spec = _spec(seed=3)
        inline = run_cluster(spec, jobs=0)
        forked = run_cluster(spec, jobs=2)
        assert inline.manifest == forked.manifest
        assert inline.digest == forked.digest

    def test_seed_changes_digest(self):
        assert run_cluster(_spec(seed=1), jobs=0).digest != run_cluster(
            _spec(seed=2), jobs=0
        ).digest

    def test_securekeeper_report_digest_is_pinned(self):
        # End to end through the load generator, the gateway, hkdf_like
        # session keys and stream_xor payloads: a change to any of them
        # that alters an output byte changes this digest.
        spec = ClusterSpec.from_dict(
            {"variant": "securekeeper", "nodes": 2, "clients": 16, "seed": 3}
        )
        assert (
            run_cluster(spec, jobs=0).digest
            == "e106b4d2095d6764d546b30933167216ac7f3afc7964142593509367bce7b995"
        )


class TestTalosCluster:
    def test_tiny_talos_cluster_holds_slo(self):
        report = run_cluster(
            _spec(variant="talos", clients=12, ops_per_client=1, batch_size=2),
            jobs=0,
        )
        assert not report.degraded
        assert report.availability >= 0.99


class TestNodeShard:
    def test_untraced_shard_digest_is_metric_hash(self):
        params = {**_spec().to_params(), "seed": 7, "node": 0}
        digest, metrics, faults = run_clusternode(params)
        assert len(digest) == 64
        assert metrics["attempted"] > 0
        assert "latency_hist" in metrics
        assert all(kind.startswith("inject:") for kind in faults)

    def test_shard_rerun_is_bit_identical(self):
        params = {**_spec().to_params(), "seed": 7, "node": 1}
        assert run_clusternode(params) == run_clusternode(params)


class TestTraceAnalysis:
    def test_trace_merge_matches_live_totals(self, tmp_path):
        spec = _spec(clients=20, seed=5)
        trace_dir = str(tmp_path / "traces")
        report = run_cluster(spec, jobs=0, trace_dir=trace_dir)
        import glob

        paths = glob.glob(f"{trace_dir}/*.db")
        assert len(paths) == spec.nodes
        entries, _ = fold_shard_traces(paths)
        cluster = entries[-1]
        assert cluster["workload"] == "cluster"
        assert cluster["attempted"] == report.cluster_slo.attempted
        assert cluster["succeeded"] == report.cluster_slo.succeeded
        assert cluster["retries"] == report.cluster_slo.retries
        # Offline analysis sees exact latencies; the live path sees ~2%
        # histogram buckets of the same samples.
        assert cluster["p50_ns"] == pytest.approx(
            report.cluster_slo.as_dict()["p50_ns"], rel=0.05
        )


class TestCli:
    def test_digest_only_round_trip(self, capsys):
        from repro.perf.cli import main

        code = main(
            [
                "cluster", "--nodes", "2", "--clients", "16", "--ops", "2",
                "--seed", "4", "--jobs", "0", "--digest-only",
            ]
        )
        out = capsys.readouterr().out.strip()
        assert code == 0
        assert len(out) == 64 and int(out, 16) >= 0

    def test_bad_spec_exits_2(self, capsys, tmp_path):
        from repro.perf.cli import main

        bad = tmp_path / "spec.json"
        bad.write_text('{"nodes": 0}')
        assert main(["cluster", "--spec", str(bad)]) == 2
        assert "cluster:" in capsys.readouterr().err

    def test_analyze_cluster_merges_shard_traces(self, capsys, tmp_path):
        from repro.perf.cli import main

        trace_dir = str(tmp_path / "traces")
        run_cluster(_spec(clients=16, seed=5), jobs=0, trace_dir=trace_dir)
        capsys.readouterr()
        assert main(["analyze", "--cluster", trace_dir]) == 0
        captured = capsys.readouterr()
        assert captured.err == f"merging 2 shard trace(s) under {trace_dir}\n"
        assert "-- cluster availability (from traces)" in captured.out
        assert "\ncluster: " in captured.out
        assert "-- session orderliness" in captured.out
        assert "2 trace(s)" in captured.out
        assert "no session-protocol violations" in captured.out

    def test_analyze_cluster_reads_each_shard_once(self, capsys, tmp_path, monkeypatch):
        """The SLO merge and the session audit share one read per shard."""
        from repro.perf.cli import main
        from repro.perf.database import TraceDatabase

        trace_dir = str(tmp_path / "traces")
        run_cluster(_spec(clients=16, seed=5), jobs=0, trace_dir=trace_dir)
        reads = []
        fault_events = TraceDatabase.fault_events

        def counted(db, *args, **kwargs):
            reads.append(db)
            return fault_events(db, *args, **kwargs)

        monkeypatch.setattr(TraceDatabase, "fault_events", counted)
        assert main(["analyze", "--cluster", trace_dir]) == 0
        assert len(reads) == 2

    def test_analyze_cluster_without_traces_exits_2(self, capsys, tmp_path):
        from repro.perf.cli import main

        assert main(["analyze", "--cluster", str(tmp_path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"no shard traces (*.db) under {tmp_path}\n"
