"""A Glamdring-style automatic application partitioner.

Glamdring (Lind et al., ATC'17; paper §5.2.3) partitions an application
into trusted and untrusted halves in three steps, which this module
reproduces over an annotated Python code model:

1. the developer marks data as *sensitive*;
2. static dataflow analysis and backward slicing find every function that
   accesses sensitive data (directly, or through data that sensitive data
   flows into);
3. the application is partitioned: sliced functions go inside the enclave,
   calls across the cut become ecalls (untrusted→trusted) or ocalls
   (trusted→untrusted), and the EDL is generated.

The code model is deliberately simple — functions declare the variables
they read/write and the functions they call — but the analysis is real:
sensitivity propagates through writes until a fixed point, and the cut is
derived from the call graph's caller → callee edges.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from repro.sdk.edl import Direction, EcallDecl, EnclaveDefinition, OcallDecl, Param

# [in, out] buffers: Glamdring marshals whole buffers both ways.
_IN_OUT = Direction.INOUT


@dataclass(frozen=True)
class FunctionSpec:
    """Static facts about one function in the application model."""

    name: str
    reads: frozenset[str] = frozenset()
    writes: frozenset[str] = frozenset()
    calls: tuple[str, ...] = ()
    entry_point: bool = False  # reachable from outside (main, API surface)

    @classmethod
    def make(
        cls,
        name: str,
        reads: Iterable[str] = (),
        writes: Iterable[str] = (),
        calls: Iterable[str] = (),
        entry_point: bool = False,
    ) -> "FunctionSpec":
        """Convenience constructor accepting any iterables."""
        return cls(
            name=name,
            reads=frozenset(reads),
            writes=frozenset(writes),
            calls=tuple(calls),
            entry_point=entry_point,
        )


@dataclass
class Partition:
    """The result of partitioning: the cut and the generated interface."""

    trusted: frozenset[str]
    untrusted: frozenset[str]
    sensitive_data: frozenset[str]
    ecalls: tuple[str, ...]  # trusted functions called from untrusted code
    ocalls: tuple[str, ...]  # untrusted functions called from trusted code
    definition: EnclaveDefinition = field(repr=False, default=None)

    def side_of(self, function: str) -> str:
        """'trusted' or 'untrusted' for a function name."""
        if function in self.trusted:
            return "trusted"
        if function in self.untrusted:
            return "untrusted"
        raise KeyError(function)


class PartitionError(ValueError):
    """The application model is inconsistent (unknown callees, ...)."""


class Glamdring:
    """The partitioning framework."""

    def __init__(self, functions: Iterable[FunctionSpec]) -> None:
        self.functions = {f.name: f for f in functions}
        self._validate()

    def _validate(self) -> None:
        for spec in self.functions.values():
            unknown = [c for c in spec.calls if c not in self.functions]
            if unknown:
                raise PartitionError(
                    f"{spec.name} calls unknown functions: {', '.join(unknown)}"
                )

    # -- analyses -----------------------------------------------------------

    def call_graph(self) -> list[tuple[str, str]]:
        """Caller → callee edges of the application model.

        The order numbers the generated ecalls and ocalls: callers in
        first-seen order (a callee named before its own spec counts as
        seen there), each caller's callees in call order, repeats dropped.
        """
        seen = dict.fromkeys(
            name for spec in self.functions.values() for name in (spec.name, *spec.calls)
        )
        return [
            (caller, callee)
            for caller in seen
            for callee in dict.fromkeys(self.functions[caller].calls)
        ]

    def propagate_sensitivity(self, sensitive: Iterable[str]) -> frozenset[str]:
        """Dataflow analysis: the closure of data that sensitive data taints.

        A variable written by a function that reads sensitive data becomes
        sensitive itself; iterate to a fixed point.
        """
        tainted = set(sensitive)
        changed = True
        while changed:
            changed = False
            for spec in self.functions.values():
                if spec.reads & tainted:
                    new = spec.writes - tainted
                    if new:
                        tainted |= new
                        changed = True
        return frozenset(tainted)

    def backward_slice(self, sensitive: Iterable[str]) -> frozenset[str]:
        """Functions that access (read or write) tainted data."""
        tainted = self.propagate_sensitivity(sensitive)
        return frozenset(
            spec.name
            for spec in self.functions.values()
            if (spec.reads | spec.writes) & tainted
        )

    # -- partitioning ---------------------------------------------------------

    def partition(
        self,
        sensitive: Iterable[str],
        force_trusted: Iterable[str] = (),
        extra_ecall_names: Iterable[str] = (),
        extra_ocall_names: Iterable[str] = (),
    ) -> Partition:
        """Cut the application along the sensitivity slice and emit the EDL.

        ``force_trusted`` reproduces manual optimisation: moving a function
        inside the enclave (e.g. ``bn_mul_recursive`` in §5.2.3) regardless
        of what the slice says.  Extra names pad the generated interface —
        Glamdring's generated EDLs are large (171 ecalls / 3,357 ocalls in
        the paper) because it wraps entire API surfaces.
        """
        trusted = set(self.backward_slice(sensitive)) | set(force_trusted)
        untrusted = set(self.functions) - trusted
        ecalls: list[str] = []
        ocalls: list[str] = []
        for caller, callee in self.call_graph():
            if caller in untrusted and callee in trusted and callee not in ecalls:
                ecalls.append(callee)
            elif caller in trusted and callee in untrusted and callee not in ocalls:
                ocalls.append(callee)
        # Entry points that are trusted must be callable from outside.
        for spec in self.functions.values():
            if spec.entry_point and spec.name in trusted and spec.name not in ecalls:
                ecalls.append(spec.name)

        definition = EnclaveDefinition(name="glamdring_partition")
        buffer_params = (
            Param("data", "uint8_t*", direction=_IN_OUT, size="len"),
            Param("len", "size_t"),
        )
        for name in ecalls:
            definition.add_ecall(
                EcallDecl(
                    name=f"ecall_{name}", return_type="int", params=buffer_params
                )
            )
        for name in extra_ecall_names:
            definition.add_ecall(
                EcallDecl(name=f"ecall_{name}", return_type="int", params=buffer_params)
            )
        allow_all = tuple(e.name for e in definition.ecalls)
        for name in ocalls:
            definition.add_ocall(
                OcallDecl(
                    name=f"ocall_{name}",
                    return_type="int",
                    params=buffer_params,
                    # Glamdring conservatively allows every ecall from every
                    # ocall — exactly the permissive-interface anti-pattern
                    # §3.6 warns about, which the analyser then flags.
                    allowed_ecalls=allow_all,
                )
            )
        for name in extra_ocall_names:
            definition.add_ocall(
                OcallDecl(name=f"ocall_{name}", return_type="int", params=buffer_params)
            )
        return Partition(
            trusted=frozenset(trusted),
            untrusted=frozenset(untrusted),
            sensitive_data=self.propagate_sensitivity(sensitive),
            ecalls=tuple(ecalls),
            ocalls=tuple(ocalls),
            definition=definition,
        )
