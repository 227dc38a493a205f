"""Best-of-N selection and aggregate metrics for endpoint evaluations.

A Candidate is one sampled completion: its raw text, the parse result, the
feasibility report, and the recomputed objective (never the stated one).
`build_candidate` is the one place raw model text becomes a scored answer.
Selection and gaps always use recomputed objectives.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence, Tuple

from ..problems.types import (
    ROUTING_KINDS,
    SCHEDULING_KINDS,
    SENSE_BY_KIND,
    Instance,
    ProblemKind,
    Sense,
)
from ..tai.parse import parse, strip_thinking
from ..verify import FeasibilityReport, score

GAP_KS = (1, 5, 10)


@dataclass(frozen=True)
class Candidate:
    raw_text: Optional[str]
    format_ok: bool
    report: FeasibilityReport  # a failed format gate when the text did not parse
    objective: Optional[float]  # recomputed; None unless feasible

    @property
    def feasible(self) -> bool:
        return self.report.feasible


def build_candidate(inst: Instance, raw_text: Optional[str]) -> Candidate:
    """Score one completion: drop its thinking blocks, parse it, check it and
    recompute its objective, which is kept only when the answer is feasible.

    A completion that is not a string (a null reply) did not parse. Never raises."""
    text = strip_thinking(raw_text) if isinstance(raw_text, str) else None
    parsed = parse(text, inst.kind)
    report, value = score(inst, parsed.solution)
    return Candidate(raw_text, parsed.format_ok, report, value if report.feasible else None)


def bon_select(candidates: Sequence[Candidate], sense: Sense) -> Optional[int]:
    """Index of the best feasible candidate by recomputed objective.

    Ties keep the lowest index. Returns None when nothing is feasible."""
    best: Optional[int] = None
    for i, c in enumerate(candidates):
        if not c.feasible or c.objective is None:
            continue
        if best is None:
            best = i
        elif sense is Sense.MIN and c.objective < candidates[best].objective - 1e-12:
            best = i
        elif sense is Sense.MAX and c.objective > candidates[best].objective + 1e-12:
            best = i
    return best


def solution_gap(sense: Sense, value: float, reference: float) -> float:
    """Relative regret against a reference value; 0 means matching it."""
    if reference == 0:
        return 0.0 if value == reference else math.inf
    if sense is Sense.MIN:
        return (value - reference) / abs(reference)
    return (reference - value) / abs(reference)


def size_tier(inst: Instance) -> str:
    if inst.kind in SCHEDULING_KINDS:
        size = max(inst.payload.num_jobs, inst.payload.num_machines)
        if size <= 10:
            return "small"
        return "medium" if size <= 15 else "large"
    n = inst.payload.n if inst.kind in ROUTING_KINDS else inst.payload.num_nodes
    if n <= 30:
        return "small"
    return "medium" if n <= 60 else "large"


@dataclass(frozen=True)
class EvalRecord:
    instance_id: str
    kind: ProblemKind
    size_tier: str
    candidates: Tuple[Candidate, ...]
    reference_objective: float
    selected_index: Optional[int]
    gap: Optional[float]  # gap of the selected candidate; None if none feasible
    wall_time: float = 0.0

    @property
    def any_feasible(self) -> bool:
        return self.selected_index is not None

    def prefix(self, n: int) -> "EvalRecord":
        """The same record truncated to its first n candidates, re-selected.

        Candidates stay in sampling order, so prefixes are exactly what a
        smaller-N Best-of-N run would have seen."""
        return _select(
            self.instance_id, self.kind, self.size_tier, self.candidates[:n],
            self.reference_objective, self.wall_time,
        )


def _select(
    instance_id: str, kind: ProblemKind, tier: str, cands: Tuple[Candidate, ...],
    reference: float, wall_time: float,
) -> EvalRecord:
    """The record for these candidates: Best-of-N selection and its gap."""
    sense = SENSE_BY_KIND[kind]
    idx = bon_select(cands, sense)
    gap = None
    if idx is not None:
        gap = solution_gap(sense, cands[idx].objective, reference)
    return EvalRecord(instance_id, kind, tier, cands, reference, idx, gap, wall_time)


def build_record(
    inst: Instance,
    raw_texts: Sequence[Optional[str]],
    reference_objective: float,
    wall_time: float = 0.0,
) -> EvalRecord:
    cands = tuple(build_candidate(inst, t) for t in raw_texts)
    return _select(inst.id, inst.kind, size_tier(inst), cands, reference_objective, wall_time)


@dataclass(frozen=True)
class MetricsSummary:
    num_records: int
    feasibility_rate: float                      # share with any feasible sample
    format_rate: float                           # share of samples that parsed
    mean_gap: Optional[float]                    # over records with a selection
    gap_std: Optional[float]
    # Gap@K: share of ALL records whose selected gap is under K percent.
    # Infeasible records count in the denominator and never in the numerator.
    gap_at_k: Dict[int, float] = field(default_factory=dict)
    by_tier: Dict[str, "MetricsSummary"] = field(default_factory=dict)
    mean_wall_time: float = 0.0

    def to_dict(self) -> dict:
        return {
            "num_records": self.num_records,
            "feasibility_rate": self.feasibility_rate,
            "format_rate": self.format_rate,
            "mean_gap": self.mean_gap,
            "gap_std": self.gap_std,
            "gap_at_k": {str(k): v for k, v in self.gap_at_k.items()},
            "by_tier": {t: s.to_dict() for t, s in self.by_tier.items()},
            "mean_wall_time": self.mean_wall_time,
        }


def _summarize(records: Sequence[EvalRecord], tiers: bool) -> MetricsSummary:
    n = len(records)
    if n == 0:
        return MetricsSummary(0, 0.0, 0.0, None, None, {k: 0.0 for k in GAP_KS}, {})
    feas = sum(1 for r in records if r.any_feasible) / n
    total_samples = sum(len(r.candidates) for r in records)
    fmt = (
        sum(sum(1 for c in r.candidates if c.format_ok) for r in records) / total_samples
        if total_samples
        else 0.0
    )
    gaps = [r.gap for r in records if r.gap is not None]
    mean_gap = sum(gaps) / len(gaps) if gaps else None
    gap_std = None
    if gaps:
        mu = mean_gap
        gap_std = math.sqrt(sum((g - mu) ** 2 for g in gaps) / len(gaps))
    gap_at_k: Dict[int, float] = {}
    for k in GAP_KS:
        hit = sum(1 for r in records if r.gap is not None and r.gap * 100.0 < k)
        gap_at_k[k] = hit / n
    by_tier: Dict[str, MetricsSummary] = {}
    if tiers:
        for tier in ("small", "medium", "large"):
            sub = [r for r in records if r.size_tier == tier]
            if sub:
                by_tier[tier] = _summarize(sub, tiers=False)
    wall = sum(r.wall_time for r in records) / n
    return MetricsSummary(
        num_records=n,
        feasibility_rate=feas,
        format_rate=fmt,
        mean_gap=mean_gap,
        gap_std=gap_std,
        gap_at_k=gap_at_k,
        by_tier=by_tier,
        mean_wall_time=wall,
    )


def metrics(records: Sequence[EvalRecord]) -> MetricsSummary:
    """Aggregate feasibility and gap metrics, overall and per size tier,
    with Gap@K for each K in GAP_KS."""
    return _summarize(records, tiers=True)
