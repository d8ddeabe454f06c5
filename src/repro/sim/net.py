"""Simulated sockets for client/server workloads.

The TaLoS+nginx and SecureKeeper evaluations run servers under load from
clients "executed on identical machines connected via a 10 Gbit/s ethernet
link" (paper §5).  This module provides duplex in-memory sockets between
simulated threads with syscall-shaped blocking semantics, so server loops
written against it look like real ``recv``/``send`` code and so blocked
readers wake deterministically.

Transfer costs model kernel socket-buffer copies; the wire itself is not a
bottleneck for the reproduced experiments (requests are tiny compared to
10 Gbit/s), so propagation latency is a small fixed charge.

Two serving-path extensions, both inert by default:

* **deadlines** — ``settimeout``/per-call ``timeout_ns`` bound blocking
  ``recv``/``accept`` in virtual time (a timed futex wait in the kernel);
  expiry raises :class:`SocketTimeout`;
* **chaos hook** — a :class:`~repro.faults.injector.FaultInjector` can be
  attached (``set_chaos``) and is consulted on send/recv/connect.  The
  same None-guarded pattern as the URTS fault hooks: with no hook attached
  these paths consume no virtual time and draw no random numbers, so
  chaos-off traces stay byte-identical.
"""

from __future__ import annotations

from typing import Any, Optional

from repro.sim.kernel import Simulation

# Syscall + copy costs for loopback-ish sockets.
SEND_BASE_NS = 2_000
SEND_PER_BYTE_NS = 0.08
RECV_BASE_NS = 1_800
RECV_PER_BYTE_NS = 0.05
WIRE_LATENCY_NS = 8_000  # one-way, 10 GbE + kernel stack

# Enough to wake every parked reader: the model never blocks more threads
# than this on one socket.
_WAKE_ALL = 1 << 16


class SocketClosed(ConnectionError):
    """The connection is closed (locally, by the peer, or by a reset).

    ``endpoint`` names the socket the operation ran on; ``peer`` names the
    other end (``None`` for an unpaired socket).
    """

    def __init__(self, message: str, endpoint: str = "", peer: Optional[str] = None) -> None:
        super().__init__(message)
        self.endpoint = endpoint
        self.peer = peer


class SocketTimeout(TimeoutError):
    """A blocking socket operation exceeded its virtual-time deadline."""


class SocketUsageError(ValueError):
    """Caller misuse: zero-length send or non-positive-length recv.

    A zero-length ``send`` would flag a fresh burst with no data behind it
    and corrupt the burst-latency accounting, so it is rejected loudly
    instead of silently accepted.
    """


class SimSocket:
    """One endpoint of a duplex in-memory connection."""

    def __init__(self, sim: Simulation, name: str) -> None:
        self.sim = sim
        self.name = name
        self._rx = bytearray()
        self._peer: Optional["SimSocket"] = None
        self._closed = False
        self._fresh_burst = False
        self._timeout_ns: Optional[int] = None
        # Chaos hook (repro.faults): consulted on every send/recv when set.
        # ``None`` keeps both paths byte-identical to the chaos-free socket.
        self._chaos: Optional[Any] = None

    @property
    def closed(self) -> bool:
        """Whether this endpoint has been closed locally or by the peer."""
        return self._closed

    @property
    def peer_name(self) -> Optional[str]:
        """Name of the peer endpoint, if connected."""
        return self._peer.name if self._peer is not None else None

    # -- configuration -------------------------------------------------------

    def settimeout(self, timeout_ns: Optional[int]) -> None:
        """Default virtual-time deadline for blocking ``recv`` calls.

        ``None`` restores unbounded blocking (the default).
        """
        self._timeout_ns = timeout_ns

    def set_chaos(self, hook: Optional[Any]) -> None:
        """Install (or clear) the network-chaos hook on this endpoint."""
        self._chaos = hook

    # -- data path -----------------------------------------------------------

    def send(self, data: bytes) -> int:
        """Send ``data`` to the peer; returns the number of bytes sent.

        ``send(2)`` returns once the kernel copied the data into the socket
        buffer; propagation latency is charged on the *receiving* side when
        it picks a fresh burst up.  An attached chaos hook may delay the
        send, truncate it (short write — the returned count is then smaller
        than ``len(data)``) or reset the connection.
        """
        if not data:
            raise SocketUsageError(f"{self.name}: zero-length send")
        if self._closed or self._peer is None or self._peer._closed:
            raise SocketClosed(
                f"{self.name}: send on closed socket",
                endpoint=self.name,
                peer=self.peer_name,
            )
        chaos = self._chaos
        if chaos is not None:
            allowed = chaos.on_net_send(self, len(data))
            if allowed < len(data):
                data = data[:allowed]
        cost = SEND_BASE_NS + SEND_PER_BYTE_NS * len(data)
        self.sim.compute(self.sim.rng.jitter_ns("net:send", cost))
        if not self._peer._rx:
            self._peer._fresh_burst = True
        self._peer._rx.extend(data)
        self.sim.futex_wake(("sock", id(self._peer)), count=_WAKE_ALL)
        return len(data)

    def recv(
        self,
        nbytes: int,
        blocking: bool = True,
        timeout_ns: Optional[int] = None,
    ) -> bytes:
        """Receive up to ``nbytes``.

        Returns ``b""`` when no data is buffered and either the socket is
        non-blocking or the peer has closed.  A blocking read on an open,
        empty socket suspends the calling simulated thread until data (or a
        close) arrives — bounded by ``timeout_ns`` (or the ``settimeout``
        default) if one is armed, raising :class:`SocketTimeout` at the
        deadline.
        """
        if nbytes <= 0:
            raise SocketUsageError(f"{self.name}: recv length must be positive, got {nbytes}")
        if timeout_ns is None:
            timeout_ns = self._timeout_ns
        deadline = self.sim.now_ns + timeout_ns if timeout_ns is not None else None
        while True:
            if self._closed:
                raise SocketClosed(
                    f"{self.name}: recv on closed socket (peer: {self.peer_name})",
                    endpoint=self.name,
                    peer=self.peer_name,
                )
            chaos = self._chaos
            if chaos is not None and self._rx:
                chaos.on_net_recv(self)
                if self._closed:  # the hook reset the connection
                    continue
            if self._rx:
                cost = RECV_BASE_NS + RECV_PER_BYTE_NS * min(nbytes, len(self._rx))
                if self._fresh_burst:
                    cost += WIRE_LATENCY_NS
                    self._fresh_burst = False
                self.sim.compute(self.sim.rng.jitter_ns("net:recv", cost))
                data = bytes(self._rx[:nbytes])
                del self._rx[:nbytes]
                return data
            if self._peer is None or self._peer._closed:
                return b""
            if not blocking:
                # EAGAIN: the syscall itself still costs time.
                self.sim.compute(self.sim.rng.jitter_ns("net:eagain", RECV_BASE_NS))
                return b""
            if deadline is not None:
                remaining = deadline - self.sim.now_ns
                if remaining <= 0 or not self.sim.futex_wait(
                    ("sock", id(self)), timeout_ns=remaining
                ):
                    raise SocketTimeout(
                        f"{self.name}: recv deadline exceeded ({timeout_ns} ns)"
                    )
            else:
                self.sim.futex_wait(("sock", id(self)))

    def pending(self) -> int:
        """Number of buffered, unread bytes."""
        return len(self._rx)

    def eof(self) -> bool:
        """True when the peer closed and no buffered data remains."""
        return not self._rx and (self._peer is None or self._peer._closed)

    def close(self) -> None:
        """Close this endpoint and wake any blocked reader, idempotently.

        Readers parked in a blocking ``recv`` on *this* endpoint wake and
        raise :class:`SocketClosed` naming the peer; readers parked on the
        peer endpoint wake and observe EOF.  Closing an already-closed
        socket is a no-op.
        """
        if self._closed:
            return
        self._closed = True
        self.sim.futex_wake(("sock", id(self)), count=_WAKE_ALL)
        if self._peer is not None:
            self.sim.futex_wake(("sock", id(self._peer)), count=_WAKE_ALL)

    def reset(self) -> None:
        """Tear the connection down from the middle (RST), both ends at once.

        Used by the network-chaos injector: unlike :meth:`close`, a reset
        closes *both* endpoints so every parked reader on either side wakes
        immediately.  Idempotent.
        """
        peer = self._peer
        self.close()
        if peer is not None:
            peer.close()

    def __repr__(self) -> str:
        return f"SimSocket({self.name!r}, rx={len(self._rx)}B, closed={self._closed})"


def socket_pair(sim: Simulation, name: str = "conn") -> tuple[SimSocket, SimSocket]:
    """Create a connected pair of sockets (client end, server end)."""
    a = SimSocket(sim, f"{name}:client")
    b = SimSocket(sim, f"{name}:server")
    a._peer = b
    b._peer = a
    return a, b


class Listener:
    """Server-side accept queue, like a listening TCP socket."""

    def __init__(self, sim: Simulation, name: str = "listener") -> None:
        self.sim = sim
        self.name = name
        self._backlog: list[SimSocket] = []
        self._closed = False
        self._chaos: Optional[Any] = None
        self._conn_seq = 0

    def set_chaos(self, hook: Optional[Any]) -> None:
        """Install (or clear) the chaos hook; propagated to new connections."""
        self._chaos = hook

    def connect(self) -> SimSocket:
        """Client side: establish a connection; returns the client endpoint."""
        if self._closed:
            raise SocketClosed(
                f"{self.name}: connect to closed listener", endpoint=self.name
            )
        chaos = self._chaos
        if chaos is not None:
            chaos.on_net_connect(self)
        self._conn_seq += 1
        client, server = socket_pair(self.sim, f"{self.name}#{self._conn_seq}")
        if chaos is not None:
            client.set_chaos(chaos)
            server.set_chaos(chaos)
        self.sim.compute(self.sim.rng.jitter_ns("net:connect", 30_000))
        self._backlog.append(server)
        self.sim.futex_wake(("listener", id(self)), count=16)
        return client

    def accept(
        self, blocking: bool = True, timeout_ns: Optional[int] = None
    ) -> Optional[SimSocket]:
        """Server side: pop a pending connection, blocking if requested.

        With ``timeout_ns``, a blocking accept raises :class:`SocketTimeout`
        if no connection arrives by the virtual-time deadline.
        """
        deadline = self.sim.now_ns + timeout_ns if timeout_ns is not None else None
        while True:
            if self._backlog:
                self.sim.compute(self.sim.rng.jitter_ns("net:accept", 4_000))
                return self._backlog.pop(0)
            if self._closed or not blocking:
                return None
            if deadline is not None:
                remaining = deadline - self.sim.now_ns
                if remaining <= 0 or not self.sim.futex_wait(
                    ("listener", id(self)), timeout_ns=remaining
                ):
                    raise SocketTimeout(
                        f"{self.name}: accept deadline exceeded ({timeout_ns} ns)"
                    )
            else:
                self.sim.futex_wait(("listener", id(self)))

    def close(self) -> None:
        """Stop accepting connections and wake blocked acceptors."""
        self._closed = True
        self.sim.futex_wake(("listener", id(self)), count=64)
