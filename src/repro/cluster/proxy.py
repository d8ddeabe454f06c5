"""The per-node gateway: connection multiplexing, batching, admission.

Each cluster node runs a **gateway mux** in front of its serving stack.
Tens of thousands of simulated clients cannot each hold an enclave
session — the SecureKeeper proxy allocates a 40 KiB in-enclave queue per
session against a 2 MiB heap — so the gateway terminates client crypto
and multiplexes all client traffic over ``mux_connections`` long-lived
upstream connections, each owning one enclave session (a *gateway
identity*).  Requests queued on a connection are coalesced into batches
of up to ``batch_size`` length-prefixed frames sent as one segment, which
amortises the per-send syscall and wire cost exactly the way real
proxies batch pipelined requests.

The mux is **open loop**: a dispatcher thread replays the node's routed
arrival schedule on the virtual clock and enqueues each request at its
arrival time whether or not earlier requests have completed.  Queueing
delay therefore appears in the latency distribution (completion minus
*arrival*, not minus send).  Admission control sheds arrivals once the
node's queue backlog reaches ``admission_limit`` — the overload story of
:class:`~repro.workloads.serving.CircuitBreaker` extended to the gateway.

Failures are absorbed with the serving stack's existing vocabulary:
``SHED_REPLY`` and connection errors retry with the exponential
virtual-time backoff of :class:`~repro.workloads.serving.RetryPolicy`,
and a request that exhausts its attempts is recorded as failed.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Optional

from repro.cluster.brownout import (
    LEVEL_NORMAL,
    PRIORITY_READ,
    PRIORITY_WRITE,
    BrownoutController,
    ClusterOverloaded,
    priority_class,
)
from repro.cluster.router import OP_GET, ROLE_CLIENT, ROLE_HANDOFF, RoutedRequest
from repro.cluster.spec import ClusterSpec
from repro.crypto.hmac import hkdf_like
from repro.crypto.stream import stream_xor
from repro.faultrows import SESSION_BATCH, SESSION_CLOSE, SESSION_CONNECT, encode_session
from repro.sim.net import Listener, SocketClosed, SocketTimeout
from repro.workloads.securekeeper.loadgen import _client_packet
from repro.workloads.securekeeper.proxy import (
    MSG_CONNECT,
    SHED_REPLY,
    recv_frame,
    send_frame,
)
from repro.workloads.securekeeper.zookeeper import ZkRequest, ZkResponse

# Gateway identities sit far above any real client id so the enclave's
# session table never confuses the two namespaces.
GATEWAY_ID_BASE = 900_000

# Per-item outcomes a backend reports for one batch.
OUTCOME_OK = "ok"
OUTCOME_RETRY = "retry"  # transient (reset/timeout/shed/ordering miss)
OUTCOME_BAD = "bad"  # wrong payload — retrying cannot fix it


class _Shed(Exception):
    """The node shed the request (breaker open / gateway backlog)."""


def client_payload(client_id: int, path_index: int, payload_bytes: int) -> bytes:
    """The deterministic payload client ``client_id`` writes at ``path_index``.

    Matches the single-node load generator's formula (op ``2*path_index``
    is the create), so fills re-create byte-identical values and gets can
    verify end-to-end integrity without any shared state.
    """
    base = client_id * 31 + 2 * path_index
    return bytes((base + i) % 256 for i in range(payload_bytes))


def request_path(client_id: int, path_index: int) -> bytes:
    """The znode path for one client/path pair."""
    return f"/cluster/c{client_id}/p{path_index}".encode()


@dataclass
class PendingRequest:
    """One routed request queued in the gateway."""

    routed: RoutedRequest
    attempts: int = 0


@dataclass
class MuxStats:
    """What the gateway itself observed (beyond ServingStats).

    Replica writes and hinted handoffs are gateway-internal traffic:
    they consume shard capacity but are never client requests, so their
    outcomes are tallied here instead of in :class:`ServingStats` (which
    owns the availability denominator).
    """

    batches: int = 0
    batched_requests: int = 0
    reconnects: int = 0
    admission_shed: int = 0
    max_backlog: int = 0
    replica_ok: int = 0
    replica_failed: int = 0
    replica_shed: int = 0
    handoff_ok: int = 0
    handoff_failed: int = 0
    # Priority-classed books (brownout § — client ops split write/read,
    # replica + handoff traffic is the background class).
    write_ok: int = 0
    write_failed: int = 0
    read_ok: int = 0
    read_failed: int = 0
    shed_write: int = 0
    shed_read: int = 0
    shed_background: int = 0
    # Smallest batch limit the gateway actually ran with (brownout shrink).
    batch_limit_min: int = 0

    def as_dict(self) -> dict:
        return asdict(self)

    def count_shed(self, priority: str) -> None:
        """Fold one shed (any mechanism) into its priority-class book."""
        if priority == PRIORITY_WRITE:
            self.shed_write += 1
        elif priority == PRIORITY_READ:
            self.shed_read += 1
        else:
            self.shed_background += 1


class SecureKeeperClusterBackend:
    """Gateway upstream speaking the SecureKeeper framed protocol.

    One connection per mux slot, each bound to a gateway identity whose
    enclave session is registered exactly once — the session lives in
    :class:`SecureKeeperEnclave` state outside the enclave memory model,
    so reconnecting after a reset must *not* re-send ``MSG_CONNECT``
    (every re-registration would leak a fresh 40 KiB in-enclave queue and
    chew through the 2 MiB heap within a few dozen resets).
    """

    def __init__(
        self,
        spec: ClusterSpec,
        listener: Listener,
        master_key: bytes,
        stats: MuxStats,
        serving=None,
    ) -> None:
        self.spec = spec
        self.listener = listener
        self.stats = stats
        self.serving = serving
        self._socks: dict[int, Optional[object]] = {}
        self._registered: set[int] = set()
        self._session_closed: set[int] = set()
        self._keys = {
            conn: hkdf_like(
                master_key, b"client" + (GATEWAY_ID_BASE + conn).to_bytes(4, "big")
            )
            for conn in range(spec.mux_connections)
        }

    # -- connection management ----------------------------------------------

    def _session_row(self, kind: str, conn: int, note: str) -> None:
        # Input of repro.cluster.orderly's session audit; written only when traced.
        if self.serving is not None:
            self.serving.record_event(kind, encode_session(GATEWAY_ID_BASE + conn, note))

    def _ensure(self, conn: int):
        sock = self._socks.get(conn)
        if sock is not None and not sock.closed:
            return sock
        if sock is not None:
            self.stats.reconnects += 1
        sock = self.listener.connect()
        sock.settimeout(self.spec.client_timeout_ns)
        self._socks[conn] = sock
        gateway_id = GATEWAY_ID_BASE + conn
        if gateway_id not in self._registered:
            connect = gateway_id.to_bytes(4, "big") + bytes([MSG_CONNECT]) + b"\x00" * 8
            send_frame(sock, connect)
            reply = recv_frame(sock)
            if reply is None:
                raise ConnectionError("node closed during gateway connect")
            if reply == SHED_REPLY:
                raise _Shed("gateway connect shed")
            if not reply.startswith(b"\x01OK"):
                raise ConnectionError(f"gateway connect failed: {reply!r}")
            self._registered.add(gateway_id)
            self._session_row(SESSION_CONNECT, conn, "enclave session registered")
        return sock

    def _drop(self, conn: int) -> None:
        sock = self._socks.get(conn)
        if sock is not None:
            sock.close()
            self._socks[conn] = sock  # keep it so reconnects are counted

    def close_all(self) -> None:
        """Close every upstream connection (node handlers see EOF)."""
        for conn, sock in self._socks.items():
            if sock is not None and not sock.closed:
                sock.close()
            if conn not in self._session_closed:
                self._session_closed.add(conn)
                self._session_row(SESSION_CLOSE, conn, "gateway session closed")

    # -- request execution ---------------------------------------------------

    def _zk_request(self, routed: RoutedRequest) -> ZkRequest:
        path = request_path(routed.client_id, routed.path_index)
        if routed.op == OP_GET:
            return ZkRequest(op="get", path=path)
        # create and fill both write the canonical payload
        payload = client_payload(
            routed.client_id, routed.path_index, self.spec.payload_bytes
        )
        return ZkRequest(op="create", path=path, payload=payload)

    def _verify_get(self, conn: int, sock, routed: RoutedRequest) -> str:
        """Idempotency check after a failed create: read the value back."""
        key = self._keys[conn]
        gateway_id = GATEWAY_ID_BASE + conn
        check = ZkRequest(
            op="get", path=request_path(routed.client_id, routed.path_index)
        )
        send_frame(sock, _client_packet(gateway_id, key, check))
        reply = recv_frame(sock)
        if reply is None:
            raise ConnectionError("node closed during verify get")
        if reply == SHED_REPLY or reply.startswith(b"\x00ERR"):
            return OUTCOME_RETRY
        plain = stream_xor(key, reply[:8], reply[8:])
        response = ZkResponse.decode(plain)
        expected = client_payload(
            routed.client_id, routed.path_index, self.spec.payload_bytes
        )
        if response.ok and response.payload == expected:
            return OUTCOME_OK
        return OUTCOME_BAD if response.ok else OUTCOME_RETRY

    def _settle(self, conn: int, sock, item: PendingRequest, reply: bytes) -> str:
        """Decrypt one reply and decide the item's outcome."""
        if reply == SHED_REPLY:
            return OUTCOME_RETRY
        if reply.startswith(b"\x00ERR"):
            return OUTCOME_RETRY
        key = self._keys[conn]
        plain = stream_xor(key, reply[:8], reply[8:])
        response = ZkResponse.decode(plain)
        routed = item.routed
        if routed.op == OP_GET:
            if not response.ok:
                # The matching create is still queued or retrying on this
                # connection; trying again later self-heals the ordering.
                return OUTCOME_RETRY
            expected = client_payload(
                routed.client_id, routed.path_index, self.spec.payload_bytes
            )
            return OUTCOME_OK if response.payload == expected else OUTCOME_BAD
        if response.ok:
            return OUTCOME_OK
        # create collided — a fill onto a shard that already holds the path,
        # or a replay of a create applied just before its connection died.
        # Verify idempotently instead of failing.
        return self._verify_get(conn, sock, routed)

    def execute_batch(self, conn: int, items: list[PendingRequest]) -> list[str]:
        """Send one batch as a single segment; settle replies in order.

        Connection-level failures mark every unsettled item ``retry`` —
        the mux re-queues them and backs off before reconnecting.
        """
        outcomes: list[str] = []
        replies: list[bytes] = []
        try:
            sock = self._ensure(conn)
            gateway_id = GATEWAY_ID_BASE + conn
            key = self._keys[conn]
            segment = b""
            for item in items:
                payload = _client_packet(gateway_id, key, self._zk_request(item.routed))
                segment += len(payload).to_bytes(4, "big") + payload
            # One send for the whole batch (looping through short writes).
            while segment:
                segment = segment[sock.send(segment) :]
            self.stats.batches += 1
            self.stats.batched_requests += len(items)
            self._session_row(SESSION_BATCH, conn, f"{len(items)} request(s) sent")
            # Drain every batch reply BEFORE settling: settling a create
            # collision issues a verify get on the same connection, and an
            # early send would interleave with the remaining batch replies
            # and desynchronise the stream.
            for _ in items:
                reply = recv_frame(sock)
                if reply is None:
                    raise ConnectionError("node closed mid-batch")
                replies.append(reply)
            for item, reply in zip(items, replies):
                outcomes.append(self._settle(conn, sock, item, reply))
        except (ConnectionError, SocketTimeout, _Shed):
            self._drop(conn)
            outcomes.extend([OUTCOME_RETRY] * (len(items) - len(outcomes)))
        return outcomes


class TalosClusterBackend:
    """Gateway upstream for the stateless TaLoS variant.

    Every request is a full mini-TLS exchange on a fresh connection (the
    TaLoS server closes after each response), so there is nothing to
    multiplex at the connection level — the mux's ``mux_connections``
    worker slots still provide request-level concurrency, and batches
    simply run back to back on one worker.
    """

    def __init__(self, spec: ClusterSpec, listener: Listener, sim) -> None:
        from repro.workloads.talos.client import TalosCurlClient

        self.spec = spec
        self._clients = [
            TalosCurlClient(
                sim,
                listener,
                seed_tag=f"gateway-{conn}",
                timeout_ns=spec.client_timeout_ns,
            )
            for conn in range(spec.mux_connections)
        ]

    def close_all(self) -> None:
        """Nothing persistent to close — connections are per-request."""

    def execute_batch(self, conn: int, items: list[PendingRequest]) -> list[str]:
        """Run the batch sequentially; each item is one TLS exchange."""
        from repro.workloads.talos.client import TlsClientError

        client = self._clients[conn]
        outcomes: list[str] = []
        for item in items:
            try:
                client._one_request(item.routed.op_index)
            except (SocketClosed, SocketTimeout, TlsClientError, ConnectionError):
                outcomes.append(OUTCOME_RETRY)
            else:
                outcomes.append(OUTCOME_OK)
        return outcomes


class ClusterMux:
    """Open-loop dispatcher + batching workers for one node shard."""

    def __init__(
        self,
        spec: ClusterSpec,
        node: int,
        requests: list[RoutedRequest],
        backend,
        serving,
        retry,
        process,
        listener: Listener,
        stats: Optional[MuxStats] = None,
        brownout: Optional[BrownoutController] = None,
    ) -> None:
        self.spec = spec
        self.node = node
        self.requests = requests
        self.backend = backend
        self.serving = serving
        self.retry = retry
        self.process = process
        self.sim = process.sim
        self.listener = listener
        self.stats = stats if stats is not None else MuxStats()
        self.brownout = brownout
        self._queues: list[list[PendingRequest]] = [
            [] for _ in range(spec.mux_connections)
        ]
        self._backlog = 0
        self._dispatched_all = False
        self._workers_left = spec.mux_connections

    def _queue_key(self, conn: int):
        return ("cluster:mux", self.node, conn)

    def start(self) -> None:
        """Spawn the dispatcher and one worker per upstream connection."""
        self.process.pthread_create(
            self._dispatch, name=f"mux-dispatch-{self.node}"
        )
        for conn in range(self.spec.mux_connections):
            self.process.pthread_create(
                self._worker, conn, name=f"mux-worker-{self.node}-{conn}"
            )

    # -- dispatcher -----------------------------------------------------------

    def _shed(self, routed: RoutedRequest, exc: ClusterOverloaded) -> None:
        """Book one refusal under every ledger that watches it."""
        self.stats.count_shed(exc.priority)
        if self.brownout is not None:
            self.brownout.note_shed(exc)
        if routed.role != ROLE_CLIENT:
            # Replica/handoff traffic yields to client traffic under
            # overload — shedding a copy trades durability margin for
            # client capacity, tallied here so SLO reports show when
            # replication ran degraded.
            self.stats.replica_shed += 1
            return
        # A refused client request is a failed request from the caller's
        # side: sheds count against the class availability so graceful
        # degradation cannot hide behind its own refusals.
        if exc.priority == PRIORITY_WRITE:
            self.stats.write_failed += 1
        else:
            self.stats.read_failed += 1
        if exc.reason == "admission":
            self.stats.admission_shed += 1
            self.serving.record_shed(
                f"node {self.node} backlog {exc.backlog} at admission"
            )
        else:
            self.serving.record_shed(
                f"node {self.node} brownout shed {exc.priority} "
                f"client {routed.client_id}"
            )

    def _dispatch(self) -> None:
        sim = self.sim
        for routed in self.requests:
            delta = routed.arrival_ns - sim.now_ns
            if delta > 0:
                # Nobody wakes this key: a pure virtual sleep to the arrival.
                sim.futex_wait(("cluster:mux-clock", self.node), timeout_ns=delta)
            priority = priority_class(routed.op, routed.role)
            level = (
                self.brownout.observe(sim.now_ns)
                if self.brownout is not None
                else LEVEL_NORMAL
            )
            try:
                limit = self.spec.admission_limit
                if self.brownout is not None and priority == PRIORITY_WRITE:
                    # Writes keep a deeper reserve: the controller sheds
                    # reads and background first to drain the queue, so
                    # the cliff only refuses a write once the backlog
                    # blows past twice the normal bound.
                    limit *= 2
                if self._backlog >= limit:
                    raise ClusterOverloaded(
                        priority, level, self._backlog, "admission"
                    )
                if self.brownout is not None:
                    self.brownout.admit(priority, self._backlog)
            except ClusterOverloaded as exc:
                self._shed(routed, exc)
                continue
            conn = routed.client_id % self.spec.mux_connections
            self._queues[conn].append(PendingRequest(routed))
            self._backlog += 1
            self.stats.max_backlog = max(self.stats.max_backlog, self._backlog)
            sim.futex_wake(self._queue_key(conn))
        self._dispatched_all = True
        for conn in range(self.spec.mux_connections):
            sim.futex_wake(self._queue_key(conn), count=2)

    # -- workers --------------------------------------------------------------

    def _take(self, conn: int) -> list[PendingRequest]:
        """Up to ``batch_size`` queued items; blocks until work or shutdown.

        Under brownout the limit shrinks with paging pressure — smaller
        batches pin fewer pages per upstream exchange and give the
        paging-bound enclave its capacity back sooner.
        """
        queue = self._queues[conn]
        while not queue:
            if self._dispatched_all:
                return []
            self.sim.futex_wait(self._queue_key(conn))
        limit = self.spec.batch_size
        if self.brownout is not None:
            limit = self.brownout.batch_limit(limit)
        if self.stats.batch_limit_min == 0 or limit < self.stats.batch_limit_min:
            self.stats.batch_limit_min = limit
        items = queue[:limit]
        del queue[: len(items)]
        self._backlog -= len(items)
        return items

    def _worker(self, conn: int) -> None:
        sim = self.sim
        while True:
            items = self._take(conn)
            if not items:
                break
            outcomes = self.backend.execute_batch(conn, items)
            retried: list[PendingRequest] = []
            for item, outcome in zip(items, outcomes):
                routed = item.routed
                if routed.role != ROLE_CLIENT:
                    # Gateway-internal traffic (replica writes, hinted
                    # handoffs): same retry machinery, separate books —
                    # only client requests may move the availability
                    # numerator/denominator.
                    if outcome == OUTCOME_OK:
                        if routed.role == ROLE_HANDOFF:
                            self.stats.handoff_ok += 1
                        else:
                            self.stats.replica_ok += 1
                        continue
                    if outcome != OUTCOME_BAD:
                        item.attempts += 1
                        if item.attempts < self.retry.max_attempts:
                            retried.append(item)
                            continue
                    if routed.role == ROLE_HANDOFF:
                        self.stats.handoff_failed += 1
                    else:
                        self.stats.replica_failed += 1
                    continue
                is_write = priority_class(routed.op, routed.role) == PRIORITY_WRITE
                if outcome == OUTCOME_OK:
                    self.serving.record_success(sim.now_ns - routed.arrival_ns)
                    if is_write:
                        self.stats.write_ok += 1
                    else:
                        self.stats.read_ok += 1
                    continue
                if outcome == OUTCOME_BAD:
                    self.serving.record_failure(
                        f"node {self.node} client {routed.client_id} "
                        f"p{routed.path_index}: payload mismatch"
                    )
                    if is_write:
                        self.stats.write_failed += 1
                    else:
                        self.stats.read_failed += 1
                    continue
                item.attempts += 1
                if item.attempts >= self.retry.max_attempts:
                    self.serving.record_failure(
                        f"node {self.node} client {routed.client_id} "
                        f"{routed.op} p{routed.path_index}: retries exhausted"
                    )
                    if is_write:
                        self.stats.write_failed += 1
                    else:
                        self.stats.read_failed += 1
                    continue
                self.serving.record_retry(
                    f"node {self.node} client {routed.client_id} "
                    f"{routed.op} attempt {item.attempts}"
                )
                retried.append(item)
            if retried:
                # Back off before the re-send (connection-level failure) and
                # requeue in order ahead of newer work so per-client create →
                # get ordering is preserved.
                sim.compute(self.retry.backoff_for(retried[0].attempts))
                self._queues[conn][:0] = retried
                self._backlog += len(retried)
        self._workers_left -= 1
        if self._workers_left == 0:
            self.backend.close_all()
            self.listener.close()  # completion signal for the accept loop
