"""minisql inside an enclave (the §5.2.2 experiment builds).

The entire database engine runs inside the enclave; "system calls
naïvely implemented as ocalls" means the VFS issues one ocall per syscall —
including the separate ``lseek`` before every read/write.  The optimised
build merges seek+I/O into positioned ``pread``/``pwrite`` ocalls.

The declared interface has 41 ocalls (like the paper reports): the file
I/O family actually used plus the libc surface SQLite's unix VFS touches
(time, stat, locking, ...), of which only a handful fire in this workload,
plus the SDK's four sync ocalls.
"""

from __future__ import annotations

import enum
from typing import Callable, Optional

from repro.sdk.edger8r import build_enclave
from repro.sdk.trts import TrustedContext
from repro.sdk.urts import Urts
from repro.sgx.device import SgxDevice
from repro.sgx.enclave import EnclaveConfig
from repro.sim.process import SimProcess
from repro.workloads.minisql.engine import Database
from repro.workloads.minisql.vfs import MergedOcallVfs, OcallVfs

# Untrusted libc-wrapper costs added on top of the raw syscall (the ocall
# bridge does argument fix-ups, errno handling, buffer staging).
WRAPPER_LSEEK_NS = 3_100
WRAPPER_IO_NS = 1_000
WRAPPER_MISC_NS = 300

# In-enclave costs of the prepared-statement interface: binding a value
# into a slot is a copy plus typecheck; prepare/reset touch the statement
# object.  All well under the transition cost — which is the point: these
# ecalls are dominated by enclave entry/exit until made switchless.
PREPARE_NS = 900
BIND_NS = 380
RESET_NS = 260

# The remaining declared-but-unused ocalls, bringing the interface to the
# paper's 41 (together with 10 file-I/O ocalls, ocall_print, ocall_unlink
# and the 4 SDK sync ocalls).
_MISC_OCALLS = (
    "ocall_time",
    "ocall_gettimeofday",
    "ocall_getpid",
    "ocall_getuid",
    "ocall_stat",
    "ocall_fstat",
    "ocall_access",
    "ocall_getcwd",
    "ocall_rename",
    "ocall_mkdir",
    "ocall_rmdir",
    "ocall_getrandom",
    "ocall_usleep",
    "ocall_sleep",
    "ocall_fcntl",
    "ocall_flock",
    "ocall_mmap",
    "ocall_munmap",
    "ocall_sched_yield",
    "ocall_uname",
    "ocall_sysconf",
    "ocall_getenv",
    "ocall_fchmod",
    "ocall_fchown",
    "ocall_readlink",
)


def sqlite_definition(merged: bool = False):
    """The full declared interface, SDK sync ocalls included.

    What the analyser and optimizer see as this workload's EDL — the same
    definition :func:`build_enclave` ends up with (before any plan is
    applied).
    """
    from repro.sdk.edger8r import add_sdk_sync_ocalls
    from repro.sdk.edl import parse_edl

    definition = parse_edl(_edl_source(merged))
    add_sdk_sync_ocalls(definition)
    return definition


class SqlBuild(enum.Enum):
    """Which §5.2.2 configuration to run."""

    NATIVE = "native"
    ENCLAVE = "enclave"  # naïve: separate lseek ocalls
    MERGED = "merged"  # optimised: pread/pwrite ocalls


def _edl_source(merged: bool) -> str:
    io_ocalls = [
        "int ocall_open([in, string] char* path, size_t len);",
        "void ocall_close(int fd);",
        "long ocall_lseek(int fd, long offset);",
        "int ocall_read(int fd, size_t n);",
        "int ocall_write(int fd, [in, size=len] uint8_t* buf, size_t len);",
        "void ocall_fsync(int fd);",
        "void ocall_ftruncate(int fd, long len);",
        "long ocall_fsize(int fd);",
        "int ocall_pread(int fd, size_t n, long offset);",
        "int ocall_pwrite(int fd, [in, size=len] uint8_t* buf, long offset, size_t len);",
        "void ocall_unlink([in, string] char* path, size_t len);",
        "void ocall_print([in, string] char* msg, size_t len);",
    ]
    misc = [f"void {name}(void);" for name in _MISC_OCALLS]
    ocall_block = "\n            ".join(io_ocalls + misc)
    return f"""
    enclave {{
        trusted {{
            public int ecall_open_db([in, string] char* path, size_t len);
            public int ecall_exec([in, size=len] char* sql, size_t len);
            public int ecall_close_db(void);
            public int ecall_prepare_insert([in, string] char* table, size_t len);
            public int ecall_bind_int(int slot, long value);
            public int ecall_bind_text(int slot, [in, size=len] char* value, size_t len);
            public int ecall_step(void);
            public int ecall_reset(void);
        }};
        untrusted {{
            {ocall_block}
        }};
    }};
    """


class EnclavedSqlApp:
    """The enclavised minisql application (naïve or merged build)."""

    def __init__(
        self,
        process: SimProcess,
        device: SgxDevice,
        build: SqlBuild,
        heap_bytes: int = 2 * 1024 * 1024,
        plan=None,
    ) -> None:
        if build is SqlBuild.NATIVE:
            raise ValueError("use Database+OsVfs directly for the native build")
        self.process = process
        self.build = build
        self.sim = process.sim
        self.urts = Urts(process, device)
        self._current_ctx: Optional[TrustedContext] = None
        self._db: Optional[Database] = None
        self._prepared_table: Optional[str] = None
        self._binds: dict[int, object] = {}
        self.handle = build_enclave(
            self.urts,
            _edl_source(build is SqlBuild.MERGED),
            trusted_impls={
                "ecall_open_db": self._ecall_open_db,
                "ecall_exec": self._ecall_exec,
                "ecall_close_db": self._ecall_close_db,
                "ecall_prepare_insert": self._ecall_prepare_insert,
                "ecall_bind_int": self._ecall_bind,
                "ecall_bind_text": self._ecall_bind_text,
                "ecall_step": self._ecall_step,
                "ecall_reset": self._ecall_reset,
            },
            untrusted_impls=self._untrusted_impls(),
            interface_plan=plan,
            config=EnclaveConfig(
                name=f"minisql-{build.value}",
                code_bytes=640 * 1024,
                heap_bytes=heap_bytes,
                tcs_count=2,
                debug=True,
            ),
            code_identity=b"minisql-3.23.1-" + build.value.encode(),
        )
        self.last_result = None

    # -- trusted side -----------------------------------------------------------

    def _ecall_open_db(self, ctx: TrustedContext, path: str, length: int) -> int:
        self._current_ctx = ctx
        vfs_cls = MergedOcallVfs if self.build is SqlBuild.MERGED else OcallVfs
        vfs = vfs_cls(lambda: self._current_ctx)
        self._db = Database(vfs, path, charge=self._trusted_charge)
        return 0

    def _ecall_exec(self, ctx: TrustedContext, sql: str, length: int) -> int:
        if self._db is None:
            raise RuntimeError("ecall_exec before ecall_open_db")
        self._current_ctx = ctx
        self.last_result = self._db.execute(sql)
        return len(self.last_result) if isinstance(self.last_result, list) else self.last_result

    def _ecall_close_db(self, ctx: TrustedContext) -> int:
        self._current_ctx = ctx
        if self._db is not None:
            self._db.close()
            self._db = None
        return 0

    # The prepared-statement family: parse once, bind + step per row.
    # Binding/reset never issue ocalls and cost well under the transition
    # round trip — exactly the short hot ecalls the SISC detector flags.

    def _ecall_prepare_insert(self, ctx: TrustedContext, table: str, length: int) -> int:
        ctx.compute_jittered("minisql:prepare", PREPARE_NS)
        self._prepared_table = table
        self._binds = {}
        return 0

    def _ecall_bind(self, ctx: TrustedContext, slot: int, value: int) -> int:
        ctx.compute_jittered("minisql:bind", BIND_NS)
        self._binds[slot] = value
        return 0

    def _ecall_bind_text(
        self, ctx: TrustedContext, slot: int, value: str, length: int
    ) -> int:
        ctx.compute_jittered("minisql:bind", BIND_NS)
        self._binds[slot] = value
        return 0

    def _ecall_step(self, ctx: TrustedContext) -> int:
        from repro.workloads.minisql.sql import Insert

        if self._db is None or self._prepared_table is None:
            raise RuntimeError("ecall_step before prepare/open")
        self._current_ctx = ctx
        values = tuple(self._binds[slot] for slot in sorted(self._binds))
        statement = Insert(table=self._prepared_table, columns=None, values=values)
        self.last_result = self._db.execute(statement)
        return int(self.last_result)

    def _ecall_reset(self, ctx: TrustedContext) -> int:
        ctx.compute_jittered("minisql:reset", RESET_NS)
        self._binds = {}
        return 0

    def _trusted_charge(self, ns: int) -> None:
        ctx = self._current_ctx
        if ctx is not None:
            ctx.compute(ns)

    # -- untrusted side (the ocall implementations) --------------------------------

    def _untrusted_impls(self) -> dict[str, Callable]:
        os = self.process.os

        def wrap(extra_ns: int, fn: Callable) -> Callable:
            def impl(uctx, *args):
                uctx.compute_jittered("minisql:wrapper", extra_ns)
                return fn(*args)

            return impl

        impls: dict[str, Callable] = {
            "ocall_open": wrap(WRAPPER_MISC_NS, lambda path, n: os.open(path)),
            "ocall_close": wrap(WRAPPER_MISC_NS, os.close),
            "ocall_lseek": wrap(WRAPPER_LSEEK_NS, lambda fd, off: os.lseek(fd, off)),
            "ocall_read": wrap(WRAPPER_IO_NS, lambda fd, n: os.read(fd, n)),
            "ocall_write": wrap(WRAPPER_IO_NS, lambda fd, buf, n: os.write(fd, buf)),
            "ocall_fsync": wrap(WRAPPER_MISC_NS, os.fsync),
            "ocall_ftruncate": wrap(WRAPPER_MISC_NS, os.ftruncate),
            "ocall_fsize": wrap(
                WRAPPER_MISC_NS, lambda fd: len(os._descriptor(fd)._file.data)
            ),
            "ocall_pread": wrap(WRAPPER_IO_NS, lambda fd, n, off: os.pread(fd, n, off)),
            "ocall_pwrite": wrap(
                WRAPPER_IO_NS, lambda fd, buf, off, n: os.pwrite(fd, buf, off)
            ),
            "ocall_unlink": wrap(WRAPPER_MISC_NS, lambda path, n: os.unlink(path)),
            "ocall_print": wrap(WRAPPER_MISC_NS, lambda msg, n: None),
        }
        for name in _MISC_OCALLS:
            impls[name] = wrap(WRAPPER_MISC_NS, lambda: 0)
        return impls

    # -- public API --------------------------------------------------------------

    def open(self, path: str = "db.minisql") -> None:
        """Open (or create) the database inside the enclave."""
        self.handle.ecall("ecall_open_db", path, len(path))

    def execute(self, sql: str):
        """Run one statement inside the enclave; returns rows or a count."""
        self.handle.ecall("ecall_exec", sql, len(sql))
        return self.last_result

    def prepare_insert(self, table: str) -> None:
        """Prepare an INSERT into ``table`` (parse skipped on each step)."""
        self.handle.ecall("ecall_prepare_insert", table, len(table))

    def bind_int(self, slot: int, value: int) -> None:
        """Bind an integer into a prepared-statement slot."""
        self.handle.ecall("ecall_bind_int", slot, value)

    def bind_text(self, slot: int, value: str) -> None:
        """Bind a string into a prepared-statement slot."""
        self.handle.ecall("ecall_bind_text", slot, value, len(value))

    def step(self) -> int:
        """Execute the prepared statement with the current bindings."""
        return self.handle.ecall("ecall_step")

    def reset(self) -> None:
        """Clear the bindings for the next row."""
        self.handle.ecall("ecall_reset")

    def close(self) -> None:
        """Close the database and destroy the enclave."""
        self.handle.ecall("ecall_close_db")
        self.handle.destroy()
