"""SecureKeeper and TaLoS workloads end to end."""

import pytest

from repro.sgx.device import SgxDevice
from repro.sim.process import SimProcess
from repro.workloads.securekeeper.loadgen import run_securekeeper_load
from repro.workloads.securekeeper.proxy import SecureKeeperProxy
from repro.workloads.securekeeper.zookeeper import ZkError, ZkRequest, ZkResponse, ZkServer
from repro.workloads.talos.api import (
    TOTAL_ECALLS,
    TOTAL_OCALLS,
    all_ecall_names,
    all_ocall_names,
    build_definition,
)
from repro.workloads.talos.app import TalosApp
from repro.workloads.talos.workload import run_talos_nginx


class TestZkServer:
    @pytest.fixture
    def zk(self):
        return ZkServer(SimProcess(seed=1).sim)

    def roundtrip(self, zk, request):
        return ZkResponse.decode(zk.handle(request.encode()))

    def test_create_get(self, zk):
        assert self.roundtrip(zk, ZkRequest("create", b"/a", b"v")).ok
        response = self.roundtrip(zk, ZkRequest("get", b"/a"))
        assert response.ok and response.payload == b"v"

    def test_duplicate_create_fails(self, zk):
        self.roundtrip(zk, ZkRequest("create", b"/a", b"v"))
        assert not self.roundtrip(zk, ZkRequest("create", b"/a", b"w")).ok

    def test_set_and_delete(self, zk):
        self.roundtrip(zk, ZkRequest("create", b"/a", b"v"))
        assert self.roundtrip(zk, ZkRequest("set", b"/a", b"w")).ok
        assert self.roundtrip(zk, ZkRequest("get", b"/a")).payload == b"w"
        assert self.roundtrip(zk, ZkRequest("delete", b"/a")).ok
        assert not self.roundtrip(zk, ZkRequest("get", b"/a")).ok

    def test_unknown_op(self, zk):
        assert not self.roundtrip(zk, ZkRequest("rmrf", b"/")).ok

    def test_request_codec_roundtrip(self):
        request = ZkRequest("create", b"/path/x", bytes(range(100)))
        assert ZkRequest.decode(request.encode()) == request

    def test_processing_charges_time(self, zk):
        before = zk.sim.now_ns
        zk.handle(ZkRequest("create", b"/t", b"").encode())
        assert zk.sim.now_ns > before


class TestSecureKeeper:
    def test_payloads_roundtrip_encrypted(self):
        result = run_securekeeper_load(clients=3, operations_per_client=6, seed=9)
        assert result.verified_gets == 3 * 6 // 2
        assert result.operations == 18

    def test_zookeeper_only_sees_ciphertext(self):
        process = SimProcess(seed=4)
        device = SgxDevice(process.sim)
        proxy = SecureKeeperProxy(process, device)
        zk = ZkServer(process.sim)
        secret = b"this payload must never reach zk in the clear!"
        observed = {}

        def client():
            from repro.crypto.hmac import hkdf_like
            from repro.workloads.securekeeper.loadgen import _client_packet

            key = hkdf_like(proxy.trusted.master_key, b"client" + (1).to_bytes(4, "big"))
            connect = (1).to_bytes(4, "big") + bytes([0]) + b"\x00" * 8
            proxy.input_from_client(connect)
            packet = _client_packet(1, key, ZkRequest("create", b"/secret", secret))
            zk_bound = proxy.input_from_client(packet)
            observed["wire"] = zk_bound[12:]
            zk.handle(zk_bound[12:])

        process.sim.spawn(client)
        process.sim.run()
        assert secret not in observed["wire"]
        assert b"/secret" not in observed["wire"]
        # The stored node is ciphertext too.
        assert all(secret not in value for value in zk._nodes.values())

    def test_connect_contention_produces_sync_ocalls(self):
        process = SimProcess(seed=5)
        device = SgxDevice(process.sim)
        proxy = SecureKeeperProxy(process, device, tcs_count=12)
        result = run_securekeeper_load(
            clients=6, operations_per_client=2,
            process=process, device=device, proxy=proxy,
        )
        assert result.sync_stats["lock_slept"] > 0
        assert result.sync_stats["wake_ocalls"] == result.sync_stats["lock_slept"]

    def test_single_client_no_contention(self):
        result = run_securekeeper_load(clients=1, operations_per_client=4, seed=2)
        assert result.sync_stats.get("lock_slept", 0) == 0

    def test_unknown_client_rejected(self):
        process = SimProcess(seed=6)
        device = SgxDevice(process.sim)
        proxy = SecureKeeperProxy(process, device)
        packet = (77).to_bytes(4, "big") + bytes([1]) + b"\x00" * 8 + b"junk"
        assert proxy.input_from_client(packet).startswith(b"\x00ERR")


class TestTalosInterface:
    def test_interface_sizes(self):
        assert len(all_ecall_names()) == TOTAL_ECALLS == 207
        assert len(all_ocall_names()) == TOTAL_OCALLS - 4 == 57

    def test_definition_builds_and_validates(self):
        definition = build_definition()
        definition.validate()
        assert definition.has_ecall("sgx_ecall_SSL_read")
        assert definition.has_ocall("enclave_ocall_write")

    def test_ssl_buffers_are_user_check(self):
        """TaLoS passes SSL_read/SSL_write buffers as user_check — the
        documented security issue the paper cites."""
        definition = build_definition()
        flagged = {name for kind, name, p in definition.user_check_params()}
        assert "sgx_ecall_SSL_read" in flagged
        assert "sgx_ecall_SSL_write" in flagged


class TestTalosEndToEnd:
    def test_requests_served_and_verified(self):
        result = run_talos_nginx(requests=12, seed=3)
        assert result.requests == 12
        assert result.client.responses_verified == 12
        assert result.server.handshakes_failed == 0
        assert result.client.bytes_received > 12 * 1_800

    def test_response_content_round_trips_encryption(self):
        # responses_verified asserts HTTP framing; additionally check the
        # library's record counters are consistent with both directions.
        process = SimProcess(seed=8)
        device = SgxDevice(process.sim)
        app = TalosApp(process, device)
        result = run_talos_nginx(requests=5, process=process, device=device, app=app)
        assert app.library.stats["handshakes"] == 5
        assert app.library.stats["records_out"] >= 5 * 15
        assert app.library.stats["records_in"] >= 5

    def test_error_queue_semantics(self):
        process = SimProcess(seed=9)
        device = SgxDevice(process.sim)
        app = TalosApp(process, device)
        lib = app.library

        class Ctx:  # minimal stand-in: error queue calls only need compute()
            def compute(self, ns):
                pass

        ctx = Ctx()
        assert lib.err_peek_error(ctx) == 0
        lib._push_error(0x1408F119)
        assert lib.err_peek_error(ctx) == 0x1408F119
        assert lib.err_peek_error(ctx) == 0x1408F119  # peek does not pop
        lib.err_clear_error(ctx)
        assert lib.err_peek_error(ctx) == 0
