"""Load generator for the SecureKeeper experiment (paper §5.2.4).

Reproduces the paper's measurement setup: a single SecureKeeper instance
under full load from concurrently connected clients.  All clients connect
simultaneously at benchmark start — creating the contention on the
enclave's connection map that produced the 18 synchronisation ocalls the
paper observed — then issue create/get operations whose payloads really
round-trip through the proxy's encryption.

Each operation costs two ecalls: one for the client packet on its way to
ZooKeeper, one for the response on its way back.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.crypto.hmac import hkdf_like
from repro.crypto.sha256 import sha256
from repro.crypto.stream import stream_xor
from repro.sgx.device import SgxDevice
from repro.sim.net import Listener, SocketTimeout
from repro.sim.process import SimProcess
from repro.workloads.securekeeper.proxy import (
    MSG_CONNECT,
    MSG_REQUEST,
    SHED_REPLY,
    SecureKeeperNetServer,
    SecureKeeperProxy,
    recv_frame,
    send_frame,
)
from repro.workloads.securekeeper.zookeeper import ZkRequest, ZkResponse, ZkServer

CLIENT_THINK_NS = 24_000  # client-side work + network between operations


class LoadError(AssertionError):
    """A payload failed to round-trip through the proxy."""


@dataclass
class SecureKeeperLoadResult:
    """Outcome of one load run."""

    clients: int
    operations: int
    ecalls: int
    virtual_seconds: float
    operations_per_second: float
    verified_gets: int
    sync_stats: dict = field(default_factory=dict)


def _packet_nonce(path: bytes) -> bytes:
    # Deterministic per-path nonce so a later get decrypts what create
    # stored (SecureKeeper likewise derives nonces from path metadata).
    return sha256(path)[:8]


def _client_packet(client_id: int, key: bytes, request: ZkRequest) -> bytes:
    nonce = _packet_nonce(request.path)
    body = stream_xor(key, nonce, request.encode())
    return (
        client_id.to_bytes(4, "big")
        + bytes([MSG_REQUEST])
        + nonce
        + body
    )


def run_securekeeper_load(
    clients: int = 8,
    operations_per_client: int = 60,
    payload_bytes: int = 512,
    seed: int = 0,
    process: Optional[SimProcess] = None,
    device: Optional[SgxDevice] = None,
    proxy: Optional[SecureKeeperProxy] = None,
) -> SecureKeeperLoadResult:
    """Run the full-load benchmark; returns throughput and verification counts."""
    process = process or SimProcess(seed=seed)
    device = device or SgxDevice(process.sim)
    sim = process.sim
    proxy = proxy or SecureKeeperProxy(process, device, tcs_count=max(4, clients * 2))
    zk = ZkServer(sim)
    master = proxy.trusted.master_key
    verified = {"gets": 0, "ops": 0}

    def do_operation(client_id: int, key: bytes, request: ZkRequest) -> ZkResponse:
        packet = _client_packet(client_id, key, request)
        zk_bound = proxy.input_from_client(packet)
        if zk_bound.startswith(b"\x00ERR"):
            raise LoadError(f"proxy rejected request: {zk_bound!r}")
        raw_response = zk.handle(zk_bound[12:])
        zk_packet = zk_bound[:12] + raw_response
        client_bound = proxy.input_from_zookeeper(zk_packet)
        nonce, encrypted = client_bound[:8], client_bound[8:]
        plain = stream_xor(key, nonce, encrypted)
        verified["ops"] += 1
        return ZkResponse.decode(plain)

    def client_main(client_id: int) -> None:
        key = hkdf_like(master, b"client" + client_id.to_bytes(4, "big"))
        connect = client_id.to_bytes(4, "big") + bytes([MSG_CONNECT]) + b"\x00" * 8
        reply = proxy.input_from_client(connect)
        if not reply.startswith(b"\x01OK"):
            raise LoadError(f"connect failed for client {client_id}: {reply!r}")
        value_of: dict[bytes, bytes] = {}
        for op_index in range(operations_per_client):
            path = f"/bench/c{client_id}/node{op_index // 2}".encode()
            if op_index % 2 == 0:
                payload = bytes(
                    (client_id * 31 + op_index + i) % 256 for i in range(payload_bytes)
                )
                value_of[path] = payload
                response = do_operation(
                    client_id, key, ZkRequest(op="create", path=path, payload=payload)
                )
                if not response.ok:
                    raise LoadError(f"create failed for {path!r}")
            else:
                response = do_operation(client_id, key, ZkRequest(op="get", path=path))
                if not response.ok:
                    raise LoadError(f"get failed for {path!r}")
                if response.payload != value_of[path]:
                    raise LoadError(f"payload mismatch for {path!r}")
                verified["gets"] += 1
            sim.compute(sim.rng.heavy_tail_ns("sk:think", CLIENT_THINK_NS))

    start = sim.now_ns
    for client_id in range(clients):
        process.pthread_create(client_main, client_id, name=f"sk-client-{client_id}")
    sim.run()
    elapsed = sim.now_ns - start

    runtime = proxy.urts.runtime(proxy.handle.enclave_id)
    map_mutex = runtime.mutex("connection_map")
    total_ops = clients * operations_per_client
    seconds = elapsed / 1e9
    return SecureKeeperLoadResult(
        clients=clients,
        operations=total_ops,
        ecalls=proxy.trusted.stats["client_inputs"] + proxy.trusted.stats["zk_inputs"],
        virtual_seconds=seconds,
        operations_per_second=total_ops / seconds if seconds else 0.0,
        verified_gets=verified["gets"],
        sync_stats=dict(map_mutex.stats),
    )


# -- networked load under chaos (opt-in; the direct-call path above is the
# -- byte-identical default) -------------------------------------------------


class _Shed(Exception):
    """The proxy shed the request (breaker open) — retryable."""


class SecureKeeperNetClient:
    """One client speaking the framed protocol with reconnect-and-retry.

    Reconnecting re-sends the ``MSG_CONNECT`` packet (session registration
    is idempotent — keys are derived from the client id), and requests are
    replayed after resets/timeouts/sheds with exponential virtual-time
    backoff.
    """

    def __init__(
        self,
        listener: Listener,
        client_id: int,
        key: bytes,
        retry,
        serving=None,
        timeout_ns: int = 20_000_000,
    ) -> None:
        self.listener = listener
        self.client_id = client_id
        self.key = key
        self.retry = retry
        self.serving = serving
        self.timeout_ns = timeout_ns
        self.sim = listener.sim
        self.sock = None

    def _ensure_connected(self) -> None:
        if self.sock is not None and not self.sock.closed:
            return
        self.sock = self.listener.connect()
        self.sock.settimeout(self.timeout_ns)
        connect = self.client_id.to_bytes(4, "big") + bytes([MSG_CONNECT]) + b"\x00" * 8
        send_frame(self.sock, connect)
        reply = recv_frame(self.sock)
        if reply is None:
            raise ConnectionError("server closed during connect")
        if reply == SHED_REPLY:
            raise _Shed("connect shed")
        if not reply.startswith(b"\x01OK"):
            raise LoadError(f"connect failed for client {self.client_id}: {reply!r}")

    def _drop_connection(self) -> None:
        if self.sock is not None:
            self.sock.close()
            self.sock = None

    def request(self, request: ZkRequest) -> ZkResponse:
        """Issue one operation, reconnecting and replaying through faults."""
        start = self.sim.now_ns
        packet = _client_packet(self.client_id, self.key, request)
        nonce = _packet_nonce(request.path)
        for attempt in range(1, self.retry.max_attempts + 1):
            try:
                self._ensure_connected()
                send_frame(self.sock, packet)
                reply = recv_frame(self.sock)
                if reply is None:
                    raise ConnectionError("server closed mid-request")
                if reply == SHED_REPLY:
                    raise _Shed(request.op)
                if reply.startswith(b"\x00ERR"):
                    raise ConnectionError(f"proxy error: {reply!r}")
            except (ConnectionError, SocketTimeout, _Shed) as exc:
                self._drop_connection()
                if attempt == self.retry.max_attempts:
                    if self.serving is not None:
                        self.serving.record_failure(
                            f"client {self.client_id} {request.op} {request.path!r}: {exc}"
                        )
                    raise LoadError(
                        f"client {self.client_id}: {request.op} exhausted retries: {exc}"
                    ) from exc
                if self.serving is not None:
                    self.serving.record_retry(
                        f"client {self.client_id} {request.op} attempt {attempt}: "
                        f"{type(exc).__name__}"
                    )
                self.sim.compute(self.retry.backoff_for(attempt))
                continue
            plain = stream_xor(self.key, reply[:8], reply[8:])
            if self.serving is not None:
                self.serving.record_success(self.sim.now_ns - start)
            return ZkResponse.decode(plain)
        raise LoadError("unreachable")

    def close(self) -> None:
        """Close the connection (the server handler sees EOF)."""
        self._drop_connection()


def run_securekeeper_netload(
    clients: int = 8,
    operations_per_client: int = 40,
    payload_bytes: int = 512,
    seed: int = 0,
    plan=None,
    process: Optional[SimProcess] = None,
    device: Optional[SgxDevice] = None,
    proxy: Optional[SecureKeeperProxy] = None,
    logger=None,
    watchdog: bool = False,
):
    """Run the SecureKeeper benchmark over sockets under a chaos ``plan``.

    Arms the full serving-path resilience stack (seeded network chaos,
    framed protocol with reconnect/replay, circuit breaker + shedding,
    enclave-loss recovery, optional hang watchdog) and returns
    ``(SecureKeeperLoadResult, availability summary dict)``.
    """
    from repro.faults.injector import FaultInjector
    from repro.faults.plan import FaultPlan
    from repro.faults.watchdog import HangWatchdog
    from repro.workloads.serving import CircuitBreaker, RetryPolicy, ServingStats

    process = process or SimProcess(seed=seed)
    device = device or SgxDevice(process.sim)
    sim = process.sim
    proxy = proxy or SecureKeeperProxy(process, device, tcs_count=max(4, clients * 2))
    proxy.make_resilient(logger=logger)
    injector = FaultInjector(plan or FaultPlan.disabled(), sim, logger=logger)
    injector.attach(proxy.urts)
    listener = Listener(sim, "sk:2181")
    injector.attach_network(listener)
    zk = ZkServer(sim)
    serving = ServingStats("securekeeper", logger=logger)
    server = SecureKeeperNetServer(
        proxy, listener, zk, breaker=CircuitBreaker(sim), serving=serving
    )
    if watchdog:
        # Gray-failure-aware deadlines: the chaos plan's slow windows
        # stretch socket ops, so the watchdog must forgive the overlap.
        chaos_net = getattr(plan, "network", None) if plan is not None else None
        HangWatchdog(
            sim,
            proxy.urts,
            logger=logger,
            slow_windows=chaos_net.slow_windows if chaos_net is not None else (),
            slow_extra_ns=chaos_net.slow_extra_ns if chaos_net is not None else 0,
        ).arm()
    master = proxy.trusted.master_key
    verified = {"gets": 0, "ops": 0}
    finished = {"clients": 0}

    def client_main(client_id: int) -> None:
        key = hkdf_like(master, b"client" + client_id.to_bytes(4, "big"))
        retry = RetryPolicy()
        net = SecureKeeperNetClient(
            listener, client_id, key, retry=retry, serving=serving
        )
        value_of: dict[bytes, bytes] = {}
        for op_index in range(operations_per_client):
            path = f"/bench/c{client_id}/node{op_index // 2}".encode()
            if op_index % 2 == 0:
                payload = bytes(
                    (client_id * 31 + op_index + i) % 256 for i in range(payload_bytes)
                )
                value_of[path] = payload
                response = net.request(
                    ZkRequest(op="create", path=path, payload=payload)
                )
                if not response.ok:
                    # A replayed create can collide with its own first
                    # attempt (applied just before the connection died):
                    # verify idempotently via get.
                    check = net.request(ZkRequest(op="get", path=path))
                    if not (check.ok and check.payload == payload):
                        raise LoadError(f"create failed for {path!r}")
            else:
                response = net.request(ZkRequest(op="get", path=path))
                if not response.ok:
                    raise LoadError(f"get failed for {path!r}")
                if response.payload != value_of[path]:
                    raise LoadError(f"payload mismatch for {path!r}")
                verified["gets"] += 1
            verified["ops"] += 1
            sim.compute(sim.rng.heavy_tail_ns("sk:think", CLIENT_THINK_NS))
        net.close()
        finished["clients"] += 1
        if finished["clients"] == clients:
            listener.close()  # completion signal for serve_until_closed

    start = sim.now_ns
    process.pthread_create(server.serve_until_closed, name="sk-acceptor")
    for client_id in range(clients):
        process.pthread_create(client_main, client_id, name=f"sk-client-{client_id}")
    sim.run()
    elapsed = sim.now_ns - start

    runtime = proxy.urts.runtime(proxy.handle.enclave_id)
    map_mutex = runtime.mutex("connection_map")
    total_ops = clients * operations_per_client
    seconds = elapsed / 1e9
    result = SecureKeeperLoadResult(
        clients=clients,
        operations=total_ops,
        ecalls=proxy.trusted.stats["client_inputs"] + proxy.trusted.stats["zk_inputs"],
        virtual_seconds=seconds,
        operations_per_second=total_ops / seconds if seconds else 0.0,
        verified_gets=verified["gets"],
        sync_stats=dict(map_mutex.stats),
    )
    return result, serving.summary()
