"""An nginx-like HTTPS server using TaLoS through the OpenSSL interface.

Reproduces the host application of §5.2.1: per accepted connection it runs
the OpenSSL call sequence nginx's ``ngx_event_openssl`` makes — create the
SSL object, attach the fd, handshake, poll ``SSL_read`` on the non-blocking
socket (clearing and peeking the error queue around it, the §5.2.1
transition overhead), serve the HTTP response through ``SSL_write`` (which
fragments into many short write ocalls), write the access log, then the
two-step ``SSL_shutdown`` and ``SSL_free``.

Every few requests the maintenance calls (session cache, cipher queries,
...) run, exercising the rest of the 61 distinct ecalls the paper reports.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.sdk.errors import EnclaveLostError, SgxError
from repro.sim.net import Listener, SocketTimeout
from repro.workloads.talos.api import PERIODIC_ECALLS
from repro.workloads.talos.app import TalosApp
from repro.workloads.talos.minissl import SSL_ERROR_WANT_READ

POLL_SLEEP_NS = 26_000  # epoll_wait round-trip while waiting for data
HTTP_PARSE_NS = 3_800
RESPONSE_BODY_BYTES = 1_830  # index.html + headers fragments into ~16 records
ACCESS_LOG_FD = 2


@dataclass
class ServerStats:
    """What the server observed."""

    requests: int = 0
    handshakes_failed: int = 0
    bytes_served: int = 0
    want_read_polls: int = 0
    connections_failed: int = 0
    connections_shed: int = 0


class TalosNginx:
    """Sequential accept-and-serve loop (one worker, like the benchmark).

    ``breaker``/``serving`` arm the chaos-mode serving path: connections
    are shed while the circuit breaker is open, and connection-level
    failures (resets, timeouts, lost enclaves) are absorbed instead of
    killing the worker.  Both default to ``None``, leaving the original
    happy-path loop untouched.
    """

    def __init__(
        self,
        app: TalosApp,
        listener: Listener,
        breaker: Optional[object] = None,
        serving: Optional[object] = None,
    ) -> None:
        self.app = app
        self.listener = listener
        self.sim = app.sim
        self.stats = ServerStats()
        self.breaker = breaker
        self.serving = serving
        self._response_cache = self._build_response()

    def _build_response(self) -> bytes:
        body = (b"<html><body>" + b"sgx-perf reproduction " * 80)[:RESPONSE_BODY_BYTES]
        header = (
            b"HTTP/1.1 200 OK\r\nServer: nginx/1.11\r\nContent-Length: "
            + str(len(body)).encode()
            + b"\r\nConnection: close\r\n\r\n"
        )
        return header + body

    def serve(self, request_count: int) -> ServerStats:
        """Accept and serve exactly ``request_count`` connections."""
        for index in range(request_count):
            sock = self.listener.accept(blocking=True)
            if sock is None:
                break
            self._serve_connection(sock, index)
        return self.stats

    def serve_until_closed(self) -> ServerStats:
        """Chaos-mode loop: accept until the listener closes, absorb faults.

        Client retries make the connection count unpredictable, so the
        client signals completion by closing the listener.  While the
        circuit breaker is open, accepted connections are shed (closed
        immediately) instead of queueing behind a failing backend.
        """
        index = 0
        while True:
            sock = self.listener.accept(blocking=True)
            if sock is None:
                return self.stats
            if self.breaker is not None and not self.breaker.allow():
                self.stats.connections_shed += 1
                if self.serving is not None:
                    self.serving.record_shed(f"breaker open, connection {index}")
                sock.close()
                index += 1
                continue
            try:
                self._serve_connection(sock, index)
            except (ConnectionError, SocketTimeout, SgxError, EnclaveLostError):
                # The connection died under us (reset, partition timeout,
                # unrecoverable enclave failure): drop it, count it, keep
                # serving.
                self.stats.connections_failed += 1
                if self.breaker is not None:
                    self.breaker.record_failure()
                sock.close()
            else:
                if self.breaker is not None:
                    self.breaker.record_success()
            index += 1

    # -- one connection -----------------------------------------------------

    def _serve_connection(self, sock, index: int) -> None:
        app = self.app
        fd = app.register_socket(sock, blocking=True)
        ssl_id = app.ecall("SSL_new", 0)
        app.ecall("SSL_set_fd", (ssl_id << 16) | fd)
        app.ecall("SSL_set_accept_state", ssl_id)
        app.ecall("SSL_set_quiet_shutdown", ssl_id)
        if app.ecall("SSL_do_handshake", ssl_id) != 1:
            self.stats.handshakes_failed += 1
            app.ecall("SSL_free", ssl_id)
            app.close_fd(fd)
            return
        # nginx pokes the read BIO and switches to edge-triggered reads.
        rbio = app.ecall("SSL_get_rbio", ssl_id)
        app.ecall("BIO_int_ctrl", rbio)
        app.set_blocking(fd, False)

        request = self._read_request(ssl_id)
        if request is None:
            app.ecall("SSL_free", ssl_id)
            app.close_fd(fd)
            return
        self.sim.compute(self.sim.rng.jitter_ns("nginx:parse", HTTP_PARSE_NS))

        app.ecall("ERR_clear_error", 0)
        app.ecall("SSL_write", (ssl_id, self._response_cache), len(self._response_cache))
        self.stats.bytes_served += len(self._response_cache)
        log_line = b"GET /index.html 200 " + str(index).encode() + b"\n"
        self._log(log_line)

        app.ecall("SSL_shutdown", ssl_id)
        app.ecall("SSL_shutdown", ssl_id)
        app.ecall("SSL_free", ssl_id)
        app.close_fd(fd)
        self._periodic_maintenance(index)
        self.stats.requests += 1

    def _log(self, line: bytes) -> None:
        # nginx buffers access-log lines and writes them with plain
        # write(2); in TaLoS deployments the log write still crosses no
        # enclave boundary, so model it as untrusted compute.
        self.sim.compute(self.sim.rng.jitter_ns("nginx:log", 2_900))

    def _read_request(self, ssl_id: int) -> Optional[bytes]:
        """Poll SSL_read with nginx's error-queue etiquette."""
        app = self.app
        collected = b""
        polls = 0
        checked_error = False
        app.ecall("ERR_clear_error", 0)
        while True:
            result = app.ecall("SSL_read", ssl_id, 8192)
            app.ecall("ERR_peek_error", 0)
            if isinstance(result, (bytes, bytearray)):
                collected += result
                if b"\r\n\r\n" in collected:
                    return collected
                continue
            if result == 0:
                return None  # peer went away
            if not checked_error:
                code = app.ecall("SSL_get_error", (ssl_id << 4) | 1)
                checked_error = True
                if code not in (SSL_ERROR_WANT_READ,):
                    return None
            polls += 1
            self.stats.want_read_polls += 1
            if polls > 200:
                return None
            self.sim.compute(self.sim.rng.jitter_ns("nginx:poll", POLL_SLEEP_NS))

    def _periodic_maintenance(self, index: int) -> None:
        """Session-cache and bookkeeping ecalls every few requests."""
        for offset, name in enumerate(PERIODIC_ECALLS):
            period = 8 + (offset % 9)
            if (index + offset) % period == 0:
                self.app.ecall(name, 0)
