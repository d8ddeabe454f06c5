"""Findings → :class:`OptimizationPlan` selection policy.

Consumes the analyser's machine-readable findings (either live
:class:`~repro.perf.analysis.detectors.Finding` objects or a parsed
``sgxperf analyze --json`` document) and decides which interface
transforms are *provably safe to automate*:

* SDSC merge findings become **fused pairs** when the parent's result can
  be predicted trusted-side — either it echoes one of its arguments
  (``lseek`` returns the offset it was given) or it is declared ``void``
  with no ``[out]`` parameters, so deferring it until its child arrives
  microseconds later is observably equivalent.
* SISC move findings on ecalls become **switchless calls** when the call
  is hot (count) and short (execution-time fractions) enough that a
  polling worker amortises its own cost.
* SNC reorder findings on *registered defer-safe* ocalls (fire-and-forget
  semantics, e.g. debug prints) become **batched ocalls**.

Everything else is recorded in ``plan.skipped`` with a reason — the
optimizer never silently drops a finding.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Union

from repro.optimizer.plan import (
    CONST,
    ECHO,
    BatchedOcall,
    FusedPair,
    OptimizationPlan,
    SkippedTransform,
    SwitchlessCall,
)
from repro.sdk.edl import Direction, EnclaveDefinition

# Parent-result models the runtime can predict without issuing the call.
# ``lseek`` echoes the absolute offset it was seeked to (argument 1).
RESULT_MODELS: dict[str, tuple[str, Optional[int]]] = {
    "ocall_lseek": (ECHO, 1),
}

# Ocalls whose semantics are fire-and-forget: deferring them past the end
# of their ecall (into a batch flushed later) is observably equivalent.
# Deliberately conservative — ``ocall_fsync`` is a durability barrier and
# must never appear here.
DEFER_SAFE_OCALLS = frozenset({"ocall_print"})

_SYNC_PREFIX = "sgx_thread_"


@dataclass(frozen=True)
class PlanKnobs:
    """Thresholds gating each transform (conservative defaults)."""

    min_fuse_score: float = 0.50  # Equation 3 score floor for fusing
    min_fuse_pairs: int = 16  # observed successive pairs floor
    min_switchless_calls: int = 64  # rate threshold for a worker thread
    min_switchless_short: float = 0.50  # fraction of executions under 5 us
    min_batch_calls: int = 4
    max_batch: int = 16


def _as_dicts(findings: Union[Sequence, dict]) -> list[dict]:
    """Normalise findings input to export-schema dicts."""
    if isinstance(findings, dict):
        return list(findings.get("findings", []))
    from repro.perf.analysis.export import finding_to_dict

    return [
        finding_to_dict(f) if not isinstance(f, dict) else f for f in findings
    ]


def _is_sync(name: str) -> bool:
    return name.startswith(_SYNC_PREFIX)


def _parent_result_model(
    name: str, definition: Optional[EnclaveDefinition]
) -> Optional[tuple[str, Optional[int]]]:
    """How to predict ``name``'s result, or ``None`` if we cannot."""
    model = RESULT_MODELS.get(name)
    if model is not None:
        return model
    if definition is not None and definition.has_ocall(name):
        decl = definition.ocall(name)
        writes_back = any(
            p.direction in (Direction.OUT, Direction.INOUT) for p in decl.params
        )
        if decl.return_type == "void" and not writes_back:
            return (CONST, None)
    return None


def build_plan(
    findings: Union[Sequence, dict],
    definition: Optional[EnclaveDefinition] = None,
    knobs: PlanKnobs = PlanKnobs(),
    source: str = "",
) -> OptimizationPlan:
    """Derive the optimization plan from analyser findings.

    ``definition`` (the workload's EDL) widens what can be proven safe:
    without it, only registry-listed calls are fusable/batchable.
    """
    plan = OptimizationPlan(source=source)
    rows = _as_dicts(findings)

    # -- fused pairs (SDSC merge findings), best score first ----------------
    sdsc = [
        row
        for row in rows
        if row["problem"] == "SDSC" and row["kind"] == "ocall"
    ]
    sdsc.sort(key=lambda r: (-float(r["evidence"].get("score", 0.0)), r["call"]))
    used: set[str] = set()
    for row in sdsc:
        child = row["call"]
        evidence = row["evidence"]
        parent = str(evidence.get("indirect_parent", ""))
        score = float(evidence.get("score", 0.0))
        pairs = int(evidence.get("pairs", 0))

        def skip(reason: str, child: str = child) -> None:
            plan.skipped.append(SkippedTransform(child, "fuse", reason))

        if _is_sync(parent) or _is_sync(child):
            skip("involves an SDK sync ocall")
            continue
        if parent == child:
            skip("self pair is a batching case, not a merge")
            continue
        if score < knobs.min_fuse_score or pairs < knobs.min_fuse_pairs:
            skip(f"below thresholds (score {score:.2f}, {pairs} pairs)")
            continue
        if parent in used or child in used:
            skip(f"{parent} or {child} already part of a fused pair")
            continue
        model = _parent_result_model(parent, definition)
        if model is None:
            skip(f"no result model for deferred parent {parent}")
            continue
        kind, arg = model
        plan.fused.append(
            FusedPair(
                parent=parent,
                child=child,
                name=f"{parent}__{child}",
                result_model=kind,
                result_arg=arg,
                pairs=pairs,
                score=score,
            )
        )
        used.update((parent, child))

    fused_names = used

    # -- switchless calls (SISC move findings on ecalls) --------------------
    for row in rows:
        if row["problem"] != "SISC":
            continue
        evidence = row["evidence"]
        if "count" not in evidence:  # SISC batch finding (indirect self-parent)
            if row["kind"] == "ecall":
                plan.skipped.append(
                    SkippedTransform(
                        row["call"],
                        "batch",
                        "batching ecalls needs an asynchronous application API",
                    )
                )
            continue
        if row["kind"] != "ecall":
            plan.skipped.append(
                SkippedTransform(
                    row["call"],
                    "move-in",
                    "duplicating ocall functionality in-enclave needs code changes",
                )
            )
            continue
        count = int(evidence.get("count", 0))
        short = float(evidence.get("c5", 0.0))
        if count < knobs.min_switchless_calls or short < knobs.min_switchless_short:
            plan.skipped.append(
                SkippedTransform(
                    row["call"],
                    "switchless",
                    f"below thresholds ({count} calls, {short:.0%} under 5us)",
                )
            )
            continue
        plan.switchless.append(
            SwitchlessCall(call=row["call"], count=count, short_fraction=short)
        )

    # -- batched ocalls (SNC reorder findings on defer-safe ocalls) ---------
    batched_names: set[str] = set()
    for row in rows:
        if row["problem"] != "SNC" or row["kind"] != "ocall":
            continue
        call = row["call"]
        if call in batched_names or _is_sync(call):
            continue
        if call in fused_names:
            plan.skipped.append(
                SkippedTransform(call, "batch", "already part of a fused pair")
            )
            continue
        if call not in DEFER_SAFE_OCALLS:
            plan.skipped.append(
                SkippedTransform(
                    call,
                    "batch",
                    "not registered defer-safe (reorder left to the developer)",
                )
            )
            continue
        count = int(row["evidence"].get("count", 0))
        if count < knobs.min_batch_calls:
            plan.skipped.append(
                SkippedTransform(call, "batch", f"only {count} observed calls")
            )
            continue
        plan.batched.append(
            BatchedOcall(
                call=call,
                name=f"{call}__batch",
                max_batch=knobs.max_batch,
                count=count,
            )
        )
        batched_names.add(call)

    # -- everything else is out of the interface optimizer's scope ----------
    for row in rows:
        if row["problem"] == "SSC":
            plan.skipped.append(
                SkippedTransform(
                    row["call"], "hybrid-sync", "lock strategy changes are out of scope"
                )
            )

    plan.fused.sort(key=lambda f: f.name)
    plan.switchless.sort(key=lambda s: s.call)
    plan.batched.sort(key=lambda b: b.name)
    plan.skipped.sort(key=lambda s: (s.transform, s.call, s.reason))
    return plan
