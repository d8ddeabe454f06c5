"""The TaLoS application: enclave construction and the untrusted half.

Wires the OpenSSL-shaped EDL (:mod:`repro.workloads.talos.api`) to the
trusted library (:mod:`repro.workloads.talos.minissl`) and implements the
untrusted ocalls: socket reads/writes against the simulated network, the
SSL_CTX info and ALPN callbacks TaLoS forwards to nginx, and the libc
odds and ends.
"""

from __future__ import annotations

from typing import Callable

from repro.sdk.edger8r import EnclaveHandle, build_enclave
from repro.sdk.urts import Urts
from repro.sgx.device import SgxDevice
from repro.sgx.enclave import EnclaveConfig
from repro.sim.net import SimSocket
from repro.sim.process import SimProcess
from repro.workloads.talos.api import all_ecall_names, build_definition
from repro.workloads.talos.minissl import MiniSslLibrary

# Untrusted-side costs: kernel socket I/O plus the wrapper glue.
OCALL_WRITE_BASE_NS = 6_000
OCALL_WRITE_PER_BYTE_NS = 5.0
OCALL_READ_EAGAIN_NS = 2_100
OCALL_READ_DATA_NS = 6_200
CALLBACK_NS = 1_700
MISC_OCALL_NS = 450


class TalosApp:
    """TaLoS loaded into an (nginx-like) host application."""

    def __init__(self, process: SimProcess, device: SgxDevice) -> None:
        self.process = process
        self.sim = process.sim
        self.urts = Urts(process, device)
        self.library = MiniSslLibrary()
        self._fd_table: dict[int, list] = {}  # fd -> [socket, blocking]
        self._next_fd = 10
        self._resilient = None
        self.handle: EnclaveHandle = self._build_handle()

    def _build_handle(self) -> EnclaveHandle:
        return build_enclave(
            self.urts,
            build_definition(),
            trusted_impls=self._trusted_impls(),
            untrusted_impls=self._untrusted_impls(),
            config=EnclaveConfig(
                name="talos",
                code_bytes=1536 * 1024,  # an enclavised LibreSSL is big
                data_bytes=128 * 1024,
                heap_bytes=4 * 1024 * 1024,
                stack_bytes=256 * 1024,
                tcs_count=4,
                debug=True,
            ),
            code_identity=b"talos-libressl-2.4.1",
        )

    def make_resilient(self, max_attempts: int = 5, backoff_ns: int = 100_000, logger=None):
        """Route ecalls through a loss-surviving wrapper.

        The TLS library state (:class:`MiniSslLibrary`) lives outside the
        enclave memory model, so a re-created enclave picks sessions back
        up — the replayed ecall is the only lost work.  Idempotent for a
        given app; returns the :class:`ResilientEnclave`.
        """
        from repro.sdk.resilience import ResilientEnclave

        if self._resilient is None:
            first = [self.handle]

            def factory() -> EnclaveHandle:
                if first:
                    return first.pop()
                self.handle = self._build_handle()
                return self.handle

            self._resilient = ResilientEnclave(
                factory, max_attempts=max_attempts, backoff_ns=backoff_ns, logger=logger
            )
        return self._resilient

    # -- fd registry --------------------------------------------------------

    def register_socket(self, sock: SimSocket, blocking: bool = True) -> int:
        """Expose a simulated socket to the enclave as a file descriptor."""
        fd = self._next_fd
        self._next_fd += 1
        self._fd_table[fd] = [sock, blocking]
        return fd

    def set_blocking(self, fd: int, blocking: bool) -> None:
        """Toggle O_NONBLOCK on a registered descriptor."""
        self._fd_table[fd][1] = blocking

    def close_fd(self, fd: int) -> None:
        """Close and deregister a descriptor."""
        entry = self._fd_table.pop(fd, None)
        if entry is not None:
            entry[0].close()

    # -- trusted implementations map -------------------------------------------

    def _trusted_impls(self) -> dict[str, Callable]:
        lib = self.library
        impls: dict[str, Callable] = {
            name: lib.generic_short_call for name in all_ecall_names()
        }
        impls.update(
            {
                "sgx_ecall_SSL_new": lambda ctx, arg=0: lib.ssl_new(ctx),
                "sgx_ecall_SSL_set_fd": lambda ctx, packed: lib.ssl_set_fd(
                    ctx, packed >> 16, packed & 0xFFFF
                ),
                "sgx_ecall_SSL_set_accept_state": lambda ctx, ssl_id: (
                    lib.ssl_set_accept_state(ctx, ssl_id)
                ),
                "sgx_ecall_SSL_set_quiet_shutdown": lambda ctx, ssl_id: (
                    lib.ssl_set_quiet_shutdown(ctx, ssl_id, 1)
                ),
                "sgx_ecall_SSL_do_handshake": lambda ctx, ssl_id: (
                    lib.ssl_do_handshake(ctx, ssl_id)
                ),
                "sgx_ecall_SSL_get_rbio": lambda ctx, ssl_id: lib.ssl_get_rbio(ctx, ssl_id),
                "sgx_ecall_BIO_int_ctrl": lambda ctx, fd: lib.bio_int_ctrl(ctx, fd, 0),
                # SSL_read's "buf" argument carries the handle (user_check
                # pointers are opaque to the marshalling layer anyway).
                "sgx_ecall_SSL_read": lambda ctx, ssl_id, num: lib.ssl_read(ctx, ssl_id, num),
                # SSL_write's "buf" is (handle, payload bytes).
                "sgx_ecall_SSL_write": lambda ctx, buf, num: lib.ssl_write(
                    ctx, buf[0], buf[1], num
                ),
                "sgx_ecall_SSL_get_error": lambda ctx, packed: lib.ssl_get_error(
                    ctx, packed >> 4, packed & 0xF
                ),
                "sgx_ecall_SSL_shutdown": lambda ctx, ssl_id: lib.ssl_shutdown(ctx, ssl_id),
                "sgx_ecall_SSL_free": lambda ctx, ssl_id: lib.ssl_free(ctx, ssl_id),
                "sgx_ecall_ERR_peek_error": lambda ctx, arg=0: lib.err_peek_error(ctx),
                "sgx_ecall_ERR_clear_error": lambda ctx, arg=0: lib.err_clear_error(ctx),
            }
        )
        return impls

    # -- untrusted ocall implementations ------------------------------------------

    def _untrusted_impls(self) -> dict[str, Callable]:
        impls: dict[str, Callable] = {}

        def ocall_read(uctx, fd: int, num: int):
            sock, blocking = self._fd_table[fd]
            data = sock.recv(num, blocking=False)
            if data:
                uctx.compute_jittered("talos:read", OCALL_READ_DATA_NS)
                return data
            if sock.eof():
                uctx.compute_jittered("talos:read-eof", OCALL_READ_EAGAIN_NS)
                return b""
            if not blocking:
                uctx.compute_jittered("talos:read-eagain", OCALL_READ_EAGAIN_NS)
                return None  # EAGAIN
            data = sock.recv(num, blocking=True)
            uctx.compute_jittered("talos:read", OCALL_READ_DATA_NS)
            return data if data else b""

        def ocall_write(uctx, fd: int, buf: bytes, num: int):
            sock, _ = self._fd_table[fd]
            uctx.compute_jittered(
                "talos:write",
                OCALL_WRITE_BASE_NS + OCALL_WRITE_PER_BYTE_NS * len(buf),
                rel_sigma=0.30,
            )
            if fd == 2:  # the access-log descriptor
                return len(buf)
            return sock.send(buf)

        impls["enclave_ocall_read"] = ocall_read
        impls["enclave_ocall_write"] = ocall_write
        impls["enclave_ocall_execute_ssl_ctx_info_callback"] = (
            lambda uctx, where: uctx.compute_jittered("talos:info-cb", CALLBACK_NS)
        )
        impls["enclave_ocall_alpn_select_cb"] = (
            lambda uctx, arg: uctx.compute_jittered("talos:alpn-cb", CALLBACK_NS)
        )
        for name in (
            "enclave_ocall_time",
            "enclave_ocall_errno",
            "enclave_ocall_getpid",
            "enclave_ocall_malloc",
            "enclave_ocall_free",
            "enclave_ocall_print",
        ):
            impls[name] = lambda uctx, *args: uctx.compute_jittered(
                "talos:misc", MISC_OCALL_NS
            )
        # Unused wrappers still need linkable implementations.
        from repro.workloads.talos.api import all_ocall_names

        for name in all_ocall_names():
            impls.setdefault(
                name,
                lambda uctx, *args: uctx.compute_jittered("talos:unused", MISC_OCALL_NS),
            )
        return impls

    # -- convenience ecall wrappers used by the server -----------------------------

    def ecall(self, name: str, *args):
        """Issue one TaLoS ecall by OpenSSL name (without the prefix)."""
        if self._resilient is not None:
            return self._resilient.ecall(f"sgx_ecall_{name}", *args)
        return self.handle.ecall(f"sgx_ecall_{name}", *args)

    def close(self) -> None:
        """Destroy the enclave and close registered sockets."""
        for fd in list(self._fd_table):
            self.close_fd(fd)
        if self._resilient is not None:
            self._resilient.destroy()
        else:
            self.handle.destroy()
