"""Performance anti-pattern detectors (paper §3, §4.3.2).

Implements the paper's detection equations with its default weights:

* **Equation 1** (moving/duplication — SISC/SDSC/SNC solutions):
  ``C1/CΣ ≥ α ∨ C5/CΣ ≥ β ∨ C10/CΣ ≥ γ`` with α=0.35, β=0.50, γ=0.65,
  over *execution* times (transition subtracted for ecalls).
* **Equation 2** (reordering — SNC solution):
  ``(Cs10/CΣ)·α + (Cs20/CΣ)·β ≥ γ`` with α=1.00, β=0.75, γ=0.50 for calls
  clustered at the start of their direct parent, symmetrically at the end.
* **Equation 3** (merging/batching — SISC/SDSC solutions):
  ``PΣ/CΣ ≥ λ ∧ (P1/PΣ)·α + (P5/PΣ)·β + (P10/PΣ)·γ + (P20/PΣ)·δ ≥ ε``
  with α=1.00, β=0.75, γ=0.50, δ=ε=λ=0.35 over gaps to indirect parents;
  batching is the special case of a call being its own indirect parent.
* **SSC** (short synchronisation calls, §3.4): frequent sync ocalls whose
  sleeps are short → hybrid spin-then-sleep locks / lock-free structures.
* **Paging** (§3.5): any EPC traffic during the trace, correlated with the
  ecalls it interrupted.

Every detector decides on **plain threshold counts**: the call fold
(:mod:`repro.perf.analysis.streaming`) and the analyser's side-table passes
accumulate them chunk by chunk, and the ``*_finding_from_counts`` builders
here hold the decision equations and message formats.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Optional

from repro.perf.events import ECALL, OCALL


class Problem(enum.Enum):
    """The paper's problem taxonomy (Table 1)."""

    SISC = "short identical successive calls"
    SDSC = "short different successive calls"
    SNC = "short nested calls"
    SSC = "short synchronisation calls"
    PAGING = "paging"
    INTERFACE = "permissive enclave interface"


class Recommendation(enum.Enum):
    """Mitigations the analyser can suggest (Table 1)."""

    BATCH = "batch successive calls into one"
    MERGE = "merge the successive calls into a single call"
    MOVE_IN = "move the caller inside the enclave"
    MOVE_OUT = "move the caller outside the enclave (needs security review)"
    REORDER = "reorder the call to before/after its parent"
    DUPLICATE = "duplicate the ocall's functionality inside the enclave"
    HYBRID_SYNC = "use hybrid spin-then-sleep locks or lock-free structures"
    REDUCE_MEMORY = "reduce enclave memory usage / load data in chunks"
    PRELOAD_PAGES = "pre-load needed pages before issuing the ecall"
    ALTERNATIVE_PAGING = "use application-level paging instead of SGX paging"
    MAKE_PRIVATE = "declare the ecall private"
    NARROW_ALLOWLIST = "remove unused ecalls from the ocall's allow list"
    CHECK_POINTERS = "audit the user_check pointer handling"


# Recommendation priorities (§4.3.2): reordering does not grow the TCB, so
# it is evaluated first; moving code out needs a security evaluation last.
_PRIORITY = {
    Recommendation.REORDER: 1,
    Recommendation.BATCH: 2,
    Recommendation.MERGE: 2,
    Recommendation.MOVE_IN: 3,
    Recommendation.DUPLICATE: 3,
    Recommendation.HYBRID_SYNC: 3,
    Recommendation.MOVE_OUT: 4,
    Recommendation.REDUCE_MEMORY: 3,
    Recommendation.PRELOAD_PAGES: 3,
    Recommendation.ALTERNATIVE_PAGING: 4,
    Recommendation.MAKE_PRIVATE: 5,
    Recommendation.NARROW_ALLOWLIST: 5,
    Recommendation.CHECK_POINTERS: 5,
}


@dataclass(frozen=True)
class Finding:
    """One detected problem with its suggested mitigations."""

    problem: Problem
    kind: str  # ecall | ocall
    call: str
    recommendations: tuple[Recommendation, ...]
    message: str
    evidence: dict = field(default_factory=dict)

    @property
    def priority(self) -> int:
        """Smallest (best) priority among the recommendations."""
        return min(_PRIORITY[r] for r in self.recommendations)


@dataclass(frozen=True)
class AnalyzerWeights:
    """All tunable thresholds, defaulting to the paper's values."""

    # Equation 1 (move/duplicate)
    move_alpha: float = 0.35
    move_beta: float = 0.50
    move_gamma: float = 0.65
    # Equation 2 (reorder)
    reorder_alpha: float = 1.00
    reorder_beta: float = 0.75
    reorder_gamma: float = 0.50
    # Equation 3 (merge/batch)
    merge_alpha: float = 1.00
    merge_beta: float = 0.75
    merge_gamma: float = 0.50
    merge_delta: float = 0.35
    merge_epsilon: float = 0.35
    merge_lambda: float = 0.35
    # General
    short_call_ns: int = 10_000
    min_calls: int = 4  # ignore call sites with fewer observations
    ssc_min_events: int = 8
    ssc_short_sleep_ns: int = 50_000


# --------------------------------------------------------------------------
# Equation 1: moving / duplication opportunities
# --------------------------------------------------------------------------


def move_finding_from_counts(
    kind: str,
    name: str,
    total: int,
    n1: int,
    n5: int,
    n10: int,
    weights: AnalyzerWeights = AnalyzerWeights(),
) -> Optional[Finding]:
    """Equation 1 decision from execution-duration threshold counts.

    ``n1``/``n5``/``n10`` count executions shorter than 1/5/10 us out of
    ``total`` (transition already subtracted for ecalls).
    """
    c1 = n1 / total if total else 0.0
    c5 = n5 / total if total else 0.0
    c10 = n10 / total if total else 0.0
    if not (
        c1 >= weights.move_alpha
        or c5 >= weights.move_beta
        or c10 >= weights.move_gamma
    ):
        return None
    if kind == ECALL:
        recommendations = (Recommendation.MOVE_OUT, Recommendation.BATCH)
        hint = "mostly-short ecall: computation does not amortise the transition"
    else:
        recommendations = (Recommendation.MOVE_IN, Recommendation.DUPLICATE)
        hint = "mostly-short ocall: consider keeping the work inside the enclave"
    return Finding(
        problem=Problem.SISC,
        kind=kind,
        call=name,
        recommendations=recommendations,
        message=(
            f"{hint} ({total} calls; {c1:.0%} <1us, {c5:.0%} <5us, "
            f"{c10:.0%} <10us of execution time)"
        ),
        evidence={"count": total, "c1": c1, "c5": c5, "c10": c10},
    )


# --------------------------------------------------------------------------
# Equation 2: reordering opportunities
# --------------------------------------------------------------------------


def reorder_finding_from_counts(
    kind: str,
    name: str,
    parent_name: str,
    total: int,
    s10: int,
    s20: int,
    e10: int,
    e20: int,
    weights: AnalyzerWeights = AnalyzerWeights(),
) -> Optional[Finding]:
    """Equation 2 decision from offset threshold counts.

    ``s10``/``s20`` count nested calls starting within 10/20 us of the
    parent's start; ``e10``/``e20`` count them ending within 10/20 us of
    the parent's end.  The "start" position is tried first; at most one
    finding per (call, parent) pair is produced.
    """
    for label, n10, n20 in (("start", s10, s20), ("end", e10, e20)):
        c10 = n10 / total if total else 0.0
        c20 = n20 / total if total else 0.0
        score = c10 * weights.reorder_alpha + c20 * weights.reorder_beta
        if score >= weights.reorder_gamma:
            return Finding(
                problem=Problem.SNC,
                kind=kind,
                call=name,
                recommendations=(Recommendation.REORDER,),
                message=(
                    f"nested {kind} clustered at the {label} of "
                    f"{parent_name} ({total} calls, {c10:.0%} within "
                    f"10us, {c20:.0%} within 20us): execute it "
                    f"{'before' if label == 'start' else 'after'} the parent instead"
                ),
                evidence={
                    "parent": parent_name,
                    "position": label,
                    "count": total,
                    "c10": c10,
                    "c20": c20,
                    "score": score,
                },
            )
    return None


# --------------------------------------------------------------------------
# Equation 3: merging / batching opportunities
# --------------------------------------------------------------------------


def merge_finding_from_counts(
    child_key: tuple[str, str],
    parent_key: tuple[str, str],
    pairs: int,
    n1: int,
    n5: int,
    n10: int,
    n20: int,
    child_total: int,
    parent_total: int,
    weights: AnalyzerWeights = AnalyzerWeights(),
) -> Optional[Finding]:
    """Equation 3 decision from gap threshold counts.

    ``n1``..``n20`` count successive (parent, child) pairs with a gap of
    at most 1/5/10/20 us out of ``pairs``; the P-fractions are taken over
    ``parent_total`` occurrences of the parent call, per the paper.
    """
    if pairs < weights.min_calls:
        return None
    if parent_total / child_total < weights.merge_lambda:
        return None
    p1 = float(n1) / parent_total
    p5 = float(n5) / parent_total
    p10 = float(n10) / parent_total
    p20 = float(n20) / parent_total
    score = (
        p1 * weights.merge_alpha
        + p5 * weights.merge_beta
        + p10 * weights.merge_gamma
        + p20 * weights.merge_delta
    )
    if score < weights.merge_epsilon:
        return None
    kind, name = child_key
    if child_key == parent_key:
        problem, rec = Problem.SISC, Recommendation.BATCH
        message = (
            f"{name} is repeatedly its own indirect parent with short gaps "
            f"({pairs} successive pairs, score {score:.2f}): batch the calls"
        )
    else:
        problem, rec = Problem.SDSC, Recommendation.MERGE
        message = (
            f"{name} frequently follows {parent_key[1]} within microseconds "
            f"({pairs} pairs, score {score:.2f}): merge them into one call"
        )
    return Finding(
        problem=problem,
        kind=kind,
        call=name,
        recommendations=(rec, Recommendation.MOVE_IN if kind == OCALL else Recommendation.MOVE_OUT),
        message=message,
        evidence={
            "indirect_parent": parent_key[1],
            "pairs": pairs,
            "p1": p1,
            "p5": p5,
            "p10": p10,
            "p20": p20,
            "score": score,
        },
    )


# --------------------------------------------------------------------------
# Short synchronisation calls
# --------------------------------------------------------------------------


def ssc_finding_from_counts(
    total_sync_events: int,
    sleeps: int,
    wakes: int,
    matched_sleeps: int,
    short_sleeps: int,
    wake_matrix: dict[tuple[int, int], int],
    weights: AnalyzerWeights = AnalyzerWeights(),
) -> list[Finding]:
    """SSC decision (§3.4) from sync-event and sleep-duration counts.

    ``matched_sleeps`` counts sleep events whose ``call_id`` resolved to a
    traced call (per occurrence); ``short_sleeps`` counts those resolved
    sleeps shorter than the SSC threshold.
    """
    if total_sync_events < weights.ssc_min_events:
        return []
    short_fraction = short_sleeps / matched_sleeps if matched_sleeps else 0.0
    if short_fraction < 0.5 and wakes < weights.ssc_min_events:
        return []
    return [
        Finding(
            problem=Problem.SSC,
            kind=OCALL,
            call="sdk synchronisation",
            recommendations=(Recommendation.HYBRID_SYNC,),
            message=(
                f"{sleeps} sleep and {wakes} wake ocalls observed; "
                f"{short_fraction:.0%} of sleeps shorter than "
                f"{weights.ssc_short_sleep_ns / 1000:.0f}us — locks are held "
                "briefly, so spinning in-enclave would avoid most transitions"
            ),
            evidence={
                "sleeps": sleeps,
                "wakes": wakes,
                "short_sleep_fraction": short_fraction,
                "wake_matrix": wake_matrix,
            },
        )
    ]


# --------------------------------------------------------------------------
# Paging
# --------------------------------------------------------------------------


def paging_findings_from_counts(
    affected: dict[str, int],
    page_in: int,
    page_out: int,
    distinct_pages: int,
) -> list[Finding]:
    """Paging findings (§3.5) from attribution counts.

    ``affected`` maps ecall name to the number of paging events that fell
    inside its executions, in first-affected (chronological) insertion
    order — ties in the count sort preserve that order.
    """
    if not (page_in or page_out):
        return []
    return [
        Finding(
            problem=Problem.PAGING,
            kind=ECALL,
            call=name,
            recommendations=(
                Recommendation.REDUCE_MEMORY,
                Recommendation.PRELOAD_PAGES,
                Recommendation.ALTERNATIVE_PAGING,
            ),
            message=(
                f"{count} paging events during executions of {name} "
                f"(trace total: {page_in} in / {page_out} out over "
                f"{distinct_pages} distinct pages)"
            ),
            evidence={
                "events_during_call": count,
                "page_in": page_in,
                "page_out": page_out,
                "distinct_pages": distinct_pages,
            },
        )
        for name, count in sorted(affected.items(), key=lambda kv: -kv[1])
    ] or [
        Finding(
            problem=Problem.PAGING,
            kind=ECALL,
            call="(outside ecalls)",
            recommendations=(Recommendation.REDUCE_MEMORY,),
            message=(
                f"{page_in} page-ins / {page_out} page-outs observed outside "
                f"any traced ecall (e.g. enclave creation under EPC pressure)"
            ),
            evidence={"page_in": page_in, "page_out": page_out},
        )
    ]
