"""Enclave interface security analysis (paper §3.6, §4.3.2).

Three hints, all derived from observed behaviour plus (optionally) the EDL:

1. **Private-ecall candidates** — ecalls whose every observed instance ran
   during an ocall can be declared ``private``, shrinking the set of paths
   into the enclave.  Workload-dependent by nature, as the paper notes.
2. **Allow-list narrowing** — ecalls an ocall *allows* but was never seen
   to make should be removed; without an EDL the minimal allow set per
   ocall is reported instead.
3. **user_check pointers** — parameters the SDK copies nothing for; the
   developer owns every check, so each one is flagged for review.

The call fold reduces the trace to plain sets/counts (nested-parent
sets, observed allow sets, per-call counts) and hands those to the
``*_findings_from_*`` builders here, which hold the message formats.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.perf.analysis.detectors import Finding, Problem, Recommendation
from repro.perf.events import ECALL, OCALL

if TYPE_CHECKING:
    from repro.sdk.edl import EnclaveDefinition


def private_ecall_findings_from_sets(
    nested_under: dict[str, set[str]],
    disqualified: set[str],
) -> list[Finding]:
    """Private-ecall hints from the nested-parent / top-level name sets.

    ``nested_under`` maps an ecall name to the ocall names it was observed
    nested under; ``disqualified`` names ecalls seen at top level at least
    once.
    """
    findings = []
    for name in sorted(set(nested_under) - disqualified):
        parents = sorted(nested_under[name])
        findings.append(
            Finding(
                problem=Problem.INTERFACE,
                kind=ECALL,
                call=name,
                recommendations=(Recommendation.MAKE_PRIVATE,),
                message=(
                    f"every observed instance ran during an ocall; declare it "
                    f"private and allow it from: {', '.join(parents)} "
                    "(workload-dependent — verify against all call paths)"
                ),
                evidence={"allowing_ocalls": parents},
            )
        )
    return findings


def allowlist_findings_from_observed(
    observed: dict[str, set[str]],
    definition: Optional[EnclaveDefinition] = None,
) -> list[Finding]:
    """Allow-list hints from the observed ocall → nested-ecall sets."""
    findings: list[Finding] = []
    if definition is None:
        for ocall_name, ecalls in sorted(observed.items()):
            findings.append(
                Finding(
                    problem=Problem.INTERFACE,
                    kind=OCALL,
                    call=ocall_name,
                    recommendations=(Recommendation.NARROW_ALLOWLIST,),
                    message=(
                        "smallest sufficient allow set for this workload: "
                        f"allow({', '.join(sorted(ecalls))})"
                    ),
                    evidence={"observed": sorted(ecalls)},
                )
            )
        return findings
    for ocall in definition.ocalls:
        declared = set(ocall.allowed_ecalls)
        if not declared:
            continue
        used = observed.get(ocall.name, set())
        removable = sorted(declared - used)
        if removable:
            findings.append(
                Finding(
                    problem=Problem.INTERFACE,
                    kind=OCALL,
                    call=ocall.name,
                    recommendations=(Recommendation.NARROW_ALLOWLIST,),
                    message=(
                        f"allow list wider than observed behaviour; remove: "
                        f"{', '.join(removable)}"
                        + (
                            f" (keep: {', '.join(sorted(used))})"
                            if used
                            else " (no nested ecalls observed at all)"
                        )
                    ),
                    evidence={"removable": removable, "observed": sorted(used)},
                )
            )
    return findings


def user_check_findings_from_counts(
    definition: EnclaveDefinition,
    counts: dict[tuple[str, str], int],
) -> list[Finding]:
    """user_check hints from per-(kind, name) observed call counts."""
    findings = []
    for kind, call_name, param in definition.user_check_params():
        observed = counts.get((kind, call_name), 0)
        findings.append(
            Finding(
                problem=Problem.INTERFACE,
                kind=kind,
                call=call_name,
                recommendations=(Recommendation.CHECK_POINTERS,),
                message=(
                    f"parameter {param.name!r} ({param.ctype}) is user_check: "
                    "no copy, no bounds check by the SDK — audit for buffer "
                    "overflows, TOCTOU and enclave-address leaks"
                    + (f"; called {observed} times in this trace" if observed else "")
                ),
                evidence={"param": param.name, "observed_calls": observed},
            )
        )
    return findings
