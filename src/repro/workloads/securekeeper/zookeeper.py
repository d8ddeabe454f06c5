"""A miniature ZooKeeper-like coordination service.

The backend SecureKeeper proxies for: a hierarchical key-value store with
create/get/set/delete and sequential nodes.  It stores whatever bytes the
proxy hands it — in SecureKeeper's deployment these are encrypted paths
and payloads, so the service operates on ciphertext without ever holding
keys.

Request processing charges a virtual latency typical of an in-memory
ZooKeeper server reached over the 10 GbE link of the paper's testbed.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.sim.kernel import Simulation

ZK_PROCESS_NS = 16_000  # request handling inside the (remote) server


class ZkError(RuntimeError):
    """Protocol-level failure (bad op, missing node, duplicate create)."""


@dataclass
class ZkRequest:
    """One operation: op in {create, get, set, delete}, path, payload."""

    op: str
    path: bytes
    payload: bytes = b""

    def encode(self) -> bytes:
        op = self.op.encode()
        return (
            len(op).to_bytes(1, "big")
            + op
            + len(self.path).to_bytes(2, "big")
            + self.path
            + len(self.payload).to_bytes(4, "big")
            + self.payload
        )

    @classmethod
    def decode(cls, raw: bytes) -> "ZkRequest":
        op_len = raw[0]
        op = raw[1 : 1 + op_len].decode()
        offset = 1 + op_len
        path_len = int.from_bytes(raw[offset : offset + 2], "big")
        offset += 2
        path = bytes(raw[offset : offset + path_len])
        offset += path_len
        payload_len = int.from_bytes(raw[offset : offset + 4], "big")
        offset += 4
        return cls(op=op, path=path, payload=bytes(raw[offset : offset + payload_len]))


@dataclass
class ZkResponse:
    """Status plus optional payload."""

    ok: bool
    payload: bytes = b""

    def encode(self) -> bytes:
        return (
            (b"\x01" if self.ok else b"\x00")
            + len(self.payload).to_bytes(4, "big")
            + self.payload
        )

    @classmethod
    def decode(cls, raw: bytes) -> "ZkResponse":
        payload_len = int.from_bytes(raw[1:5], "big")
        return cls(ok=raw[0] == 1, payload=bytes(raw[5 : 5 + payload_len]))


class ZkServer:
    """In-memory coordination store with virtual-time processing costs."""

    def __init__(self, sim: Simulation) -> None:
        self.sim = sim
        self._nodes: dict[bytes, bytes] = {}
        self.requests_served = 0

    def handle(self, raw_request: bytes) -> bytes:
        """Process one encoded request; returns the encoded response."""
        self.sim.compute(self.sim.rng.heavy_tail_ns("zk:process", ZK_PROCESS_NS))
        self.requests_served += 1
        request = ZkRequest.decode(raw_request)
        try:
            return self._dispatch(request).encode()
        except ZkError:
            return ZkResponse(ok=False).encode()

    def _dispatch(self, request: ZkRequest) -> ZkResponse:
        if request.op == "create":
            if request.path in self._nodes:
                raise ZkError("node exists")
            self._nodes[request.path] = request.payload
            return ZkResponse(ok=True, payload=request.path)
        if request.op == "get":
            payload = self._nodes.get(request.path)
            if payload is None:
                raise ZkError("no node")
            return ZkResponse(ok=True, payload=payload)
        if request.op == "set":
            if request.path not in self._nodes:
                raise ZkError("no node")
            self._nodes[request.path] = request.payload
            return ZkResponse(ok=True)
        if request.op == "delete":
            if self._nodes.pop(request.path, None) is None:
                raise ZkError("no node")
            return ZkResponse(ok=True)
        raise ZkError(f"unknown op {request.op!r}")
