"""Virtual operating system: files and syscall cost accounting.

Enclaves cannot issue system calls (paper §2.3.1); SDK applications
implement them as ocalls into the untrusted runtime, which is exactly where
sgx-perf observes them.  This module provides the untrusted side: an
in-memory filesystem whose operations consume calibrated amounts of virtual
time, so traces show realistic ``lseek``/``write``/``fsync`` durations.

Costs are configurable per :class:`VirtualOS` so workloads can calibrate to
the storage hardware they model (the paper used a SATA-III SSD).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.sim.kernel import Simulation


class FileSystemError(OSError):
    """A virtual filesystem operation failed."""


@dataclass
class SyscallCosts:
    """Mean virtual durations (ns) charged per syscall.

    ``*_per_byte_ns`` components scale with the transferred size; the
    ``jitter`` field is the relative sigma applied to every draw.
    Defaults approximate a Linux 4.4 box with a SATA SSD and a warm page
    cache (the paper's evaluation machine).
    """

    open_ns: int = 2_200
    close_ns: int = 900
    lseek_ns: int = 700
    read_base_ns: int = 1_400
    read_per_byte_ns: float = 0.03
    write_base_ns: int = 2_600
    write_per_byte_ns: float = 0.12
    fsync_ns: int = 180_000
    unlink_ns: int = 3_000
    ftruncate_ns: int = 2_500
    jitter: float = 0.10

    def scaled(self, op_base_ns: int, per_byte_ns: float, nbytes: int) -> float:
        """Mean duration for an operation moving ``nbytes``."""
        return op_base_ns + per_byte_ns * nbytes


class _File:
    __slots__ = ("data", "dirty")

    def __init__(self) -> None:
        self.data = bytearray()
        self.dirty = False


class FileDescriptor:
    """An open file: a position plus a reference to the file's bytes."""

    __slots__ = ("fd", "path", "_file", "offset", "closed")

    def __init__(self, fd: int, path: str, file: _File) -> None:
        self.fd = fd
        self.path = path
        self._file = file
        self.offset = 0
        self.closed = False

    def __repr__(self) -> str:
        return f"FileDescriptor(fd={self.fd}, path={self.path!r}, off={self.offset})"


class VirtualOS:
    """In-memory filesystem with virtual-time syscall costs.

    The API mirrors the POSIX calls SQLite's VFS issues: ``open``,
    ``lseek``, ``read``, ``write``, ``fsync``, ``close``, ``unlink`` —
    plus the positioned ``pread``/``pwrite`` used by the *merged-ocall*
    optimisation of §5.2.2 (one kernel entry instead of seek+IO).
    """

    SEEK_SET = 0
    SEEK_CUR = 1
    SEEK_END = 2

    def __init__(self, sim: Simulation, costs: Optional[SyscallCosts] = None) -> None:
        self.sim = sim
        self.costs = costs or SyscallCosts()
        self._files: dict[str, _File] = {}
        self._fds: dict[int, FileDescriptor] = {}
        self._next_fd = 3  # 0-2 reserved, as on a real process
        self.counters: dict[str, int] = {}

    # -- internals -----------------------------------------------------------

    def _charge(self, name: str, mean_ns: float) -> None:
        self.counters[name] = self.counters.get(name, 0) + 1
        duration = self.sim.rng.heavy_tail_ns(
            f"os:{name}", mean_ns, rel_sigma=self.costs.jitter
        )
        self.sim.compute(duration)

    def _descriptor(self, fd: int) -> FileDescriptor:
        desc = self._fds.get(fd)
        if desc is None or desc.closed:
            raise FileSystemError(f"bad file descriptor {fd}")
        return desc

    # -- syscalls --------------------------------------------------------------

    def open(self, path: str, create: bool = True) -> int:
        """Open ``path``, creating it if needed; returns a file descriptor."""
        self._charge("open", self.costs.open_ns)
        file = self._files.get(path)
        if file is None:
            if not create:
                raise FileSystemError(f"no such file: {path}")
            file = _File()
            self._files[path] = file
        fd = self._next_fd
        self._next_fd += 1
        self._fds[fd] = FileDescriptor(fd, path, file)
        return fd

    def close(self, fd: int) -> None:
        """Close a file descriptor."""
        desc = self._descriptor(fd)
        self._charge("close", self.costs.close_ns)
        desc.closed = True
        del self._fds[fd]

    def lseek(self, fd: int, offset: int, whence: int = SEEK_SET) -> int:
        """Reposition the file offset; returns the new offset."""
        desc = self._descriptor(fd)
        self._charge("lseek", self.costs.lseek_ns)
        if whence == self.SEEK_SET:
            new = offset
        elif whence == self.SEEK_CUR:
            new = desc.offset + offset
        elif whence == self.SEEK_END:
            new = len(desc._file.data) + offset
        else:
            raise FileSystemError(f"bad whence {whence}")
        if new < 0:
            raise FileSystemError("negative seek offset")
        desc.offset = new
        return new

    def read(self, fd: int, nbytes: int) -> bytes:
        """Read up to ``nbytes`` from the current offset."""
        desc = self._descriptor(fd)
        self._charge(
            "read",
            self.costs.scaled(self.costs.read_base_ns, self.costs.read_per_byte_ns, nbytes),
        )
        data = bytes(desc._file.data[desc.offset : desc.offset + nbytes])
        desc.offset += len(data)
        return data

    def write(self, fd: int, data: bytes) -> int:
        """Write ``data`` at the current offset; returns the byte count."""
        desc = self._descriptor(fd)
        self._charge(
            "write",
            self.costs.scaled(self.costs.write_base_ns, self.costs.write_per_byte_ns, len(data)),
        )
        self._splice(desc._file, desc.offset, data)
        desc.offset += len(data)
        return len(data)

    def pread(self, fd: int, nbytes: int, offset: int) -> bytes:
        """Positioned read: one kernel entry instead of ``lseek``+``read``."""
        desc = self._descriptor(fd)
        self._charge(
            "pread",
            self.costs.scaled(self.costs.read_base_ns, self.costs.read_per_byte_ns, nbytes),
        )
        return bytes(desc._file.data[offset : offset + nbytes])

    def pwrite(self, fd: int, data: bytes, offset: int) -> int:
        """Positioned write: one kernel entry instead of ``lseek``+``write``."""
        desc = self._descriptor(fd)
        self._charge(
            "pwrite",
            self.costs.scaled(self.costs.write_base_ns, self.costs.write_per_byte_ns, len(data)),
        )
        self._splice(desc._file, offset, data)
        return len(data)

    def fsync(self, fd: int) -> None:
        """Flush the file to stable storage (expensive on the modelled SSD)."""
        desc = self._descriptor(fd)
        self._charge("fsync", self.costs.fsync_ns)
        desc._file.dirty = False

    def ftruncate(self, fd: int, length: int) -> None:
        """Truncate (or extend with zeroes) the file to ``length`` bytes."""
        desc = self._descriptor(fd)
        self._charge("ftruncate", self.costs.ftruncate_ns)
        file = desc._file
        if length < len(file.data):
            del file.data[length:]
        else:
            file.data.extend(b"\x00" * (length - len(file.data)))

    def unlink(self, path: str) -> None:
        """Remove a file by path."""
        self._charge("unlink", self.costs.unlink_ns)
        if path not in self._files:
            raise FileSystemError(f"no such file: {path}")
        del self._files[path]

    def exists(self, path: str) -> bool:
        """Whether ``path`` names an existing file (free: no syscall charge)."""
        return path in self._files

    def file_size(self, path: str) -> int:
        """Size in bytes of the file at ``path``."""
        file = self._files.get(path)
        if file is None:
            raise FileSystemError(f"no such file: {path}")
        return len(file.data)

    @staticmethod
    def _splice(file: _File, offset: int, data: bytes) -> None:
        buf = file.data
        if offset > len(buf):
            buf.extend(b"\x00" * (offset - len(buf)))
        end = offset + len(data)
        buf[offset:end] = data
        file.dirty = True
