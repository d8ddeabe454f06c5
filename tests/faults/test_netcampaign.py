"""Network-chaos campaigns: determinism, availability, chaos-off identity."""

import pytest

from repro.faults.campaign import trace_digest
from repro.faults.injector import FaultInjector
from repro.faults.netcampaign import default_chaos_plan, run_netcampaign
from repro.faults.plan import FaultPlan
from repro.perf.logger import AexMode, EventLogger
from repro.sgx.device import SgxDevice
from repro.sim.net import Listener
from repro.sim.process import SimProcess


class TestChaosOffByteIdentity:
    """A disabled plan must leave serving-path traces byte-identical."""

    def _talos_digest(self, with_disabled_injector):
        from repro.workloads.talos.app import TalosApp
        from repro.workloads.talos.client import TalosCurlClient
        from repro.workloads.talos.server import TalosNginx

        process = SimProcess(seed=3)
        device = SgxDevice(process.sim)
        sim = process.sim
        app = TalosApp(process, device)
        logger = EventLogger(process, app.urts, aex_mode=AexMode.COUNT)
        logger.install()
        listener = Listener(sim, "nginx:443")
        if with_disabled_injector:
            injector = FaultInjector(FaultPlan.disabled(), sim, logger=logger)
            injector.attach(app.urts)
            injector.attach_network(listener)
        server = TalosNginx(app, listener)
        client = TalosCurlClient(sim, listener)
        process.pthread_create(server.serve, 20, name="nginx-worker")
        process.pthread_create(client.run, 20, name="curl")
        sim.run()
        logger.uninstall()
        db = logger.finalize()
        digest = trace_digest(db)
        db.close()
        return digest

    def _securekeeper_digest(self, with_disabled_injector):
        from repro.workloads.securekeeper.loadgen import run_securekeeper_load
        from repro.workloads.securekeeper.proxy import SecureKeeperProxy

        process = SimProcess(seed=3)
        device = SgxDevice(process.sim)
        proxy = SecureKeeperProxy(process, device, tcs_count=8)
        logger = EventLogger(process, proxy.urts, aex_mode=AexMode.COUNT)
        logger.install()
        if with_disabled_injector:
            FaultInjector(FaultPlan.disabled(), process.sim, logger=logger).attach(
                proxy.urts
            )
        run_securekeeper_load(
            clients=3,
            operations_per_client=8,
            process=process,
            device=device,
            proxy=proxy,
        )
        logger.uninstall()
        db = logger.finalize()
        digest = trace_digest(db)
        db.close()
        return digest

    def test_talos_trace_identical_with_inert_chaos_stack(self):
        assert self._talos_digest(False) == self._talos_digest(True)

    def test_securekeeper_trace_identical_with_inert_injector(self):
        assert self._securekeeper_digest(False) == self._securekeeper_digest(True)


class TestCampaignDeterminism:
    @pytest.mark.parametrize("seed", [7, 21, 1337])
    def test_talos_digest_identical_across_runs(self, seed):
        first = run_netcampaign("talos", seed, requests=60)
        second = run_netcampaign("talos", seed, requests=60)
        assert first.digest == second.digest
        assert first.availability == second.availability

    @pytest.mark.parametrize("seed", [7, 21, 1337])
    def test_securekeeper_digest_identical_across_runs(self, seed):
        first = run_netcampaign("securekeeper", seed, clients=3, operations_per_client=10)
        second = run_netcampaign("securekeeper", seed, clients=3, operations_per_client=10)
        assert first.digest == second.digest
        assert first.availability == second.availability

    def test_different_seeds_diverge(self):
        a = run_netcampaign("talos", 7, requests=60)
        b = run_netcampaign("talos", 8, requests=60)
        assert a.digest != b.digest


class TestCampaignAvailability:
    def test_talos_survives_default_chaos(self):
        result = run_netcampaign("talos", seed=7, requests=120)
        assert result.availability["attempted"] == 120
        assert result.success_rate >= 0.99
        assert result.injected  # chaos actually fired
        assert result.availability["retries"] > 0  # and was recovered from

    def test_securekeeper_survives_default_chaos(self):
        result = run_netcampaign(
            "securekeeper", seed=7, clients=4, operations_per_client=20
        )
        assert result.availability["attempted"] == 80
        assert result.success_rate >= 0.99
        assert result.injected

    def test_default_plan_is_network_only(self):
        plan = default_chaos_plan()
        assert plan.network is not None and plan.network.active
        assert plan.enclave_loss is None

    def test_analyser_reproduces_campaign_availability(self, tmp_path):
        from repro.perf.analysis.report import Analyzer
        from repro.perf.database import TraceDatabase

        path = str(tmp_path / "netcampaign.db")
        result = run_netcampaign("talos", seed=7, requests=60, db_path=path)
        with TraceDatabase(path, readonly=True) as db:
            rows = Analyzer(db).run().availability
        assert len(rows) == 1
        offline = rows[0]
        live = result.availability
        for field in ("attempted", "succeeded", "retries", "shed", "failed",
                      "p50_ns", "p99_ns"):
            assert offline[field] == live[field]

    def test_unknown_workload_rejected(self):
        with pytest.raises(ValueError):
            run_netcampaign("redis", seed=0)
