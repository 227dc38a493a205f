"""Best-of-N selection and aggregate metrics for endpoint evaluations.

A Candidate is one sampled completion as scored: its feasibility report and
recomputed objective (never the stated one); the JSONL file keeps the text.
`build_candidate` says how raw model text becomes a scored answer, and
`build_record` does the same for a record's texts while parsing each
distinct text once; `score` scores each distinct solution once. A
record stores only what was sampled; its Best-of-N selection and gap are
derived from the candidates, always by recomputed objectives. The `to_dict`
methods write every report JSON, with a non-finite float as null, so the
report is strict JSON. `metrics` sums in sorted order, so a summary depends
on which records it is given, not on their order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, replace
from functools import cached_property
from typing import Dict, Optional, Sequence, Tuple

from ..problems.types import (
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
    report: FeasibilityReport  # a failed format gate when the text did not parse
    objective: Optional[float]  # recomputed; None unless feasible

    @property
    def format_ok(self) -> bool:
        return self.report.zeta

    @property
    def feasible(self) -> bool:
        return self.report.feasible


def build_candidate(inst: Instance, raw_text: Optional[str]) -> Candidate:
    """Score one completion: drop its thinking blocks, parse it, check it and
    recompute its objective, which is kept only when the answer is feasible.

    A completion that is not a string (a null reply) did not parse. Never raises."""
    text = strip_thinking(raw_text) if isinstance(raw_text, str) else None
    report, value = score(inst, parse(text, inst.kind).solution)
    return Candidate(report, value if report.feasible else None)


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
    """Relative regret against a reference value; 0 means matching it.

    A zero reference gives no scale: a value at or better than it has gap 0,
    and a worse one an infinite gap, as optimality_reward pays them."""
    if reference == 0:
        better_or_equal = value <= 0 if sense is Sense.MIN else value >= 0
        return 0.0 if better_or_equal else math.inf
    if sense is Sense.MIN:
        return (value - reference) / abs(reference)
    return (reference - value) / abs(reference)


def size_tier(inst: Instance) -> str:
    p = inst.payload
    if inst.kind in SCHEDULING_KINDS:
        size, small, medium = max(p.num_jobs, p.num_machines), 10, 15
    else:
        size, small, medium = p.n, 30, 60
    return "small" if size <= small else "medium" if size <= medium else "large"


@dataclass(frozen=True)
class EvalRecord:
    instance_id: str
    kind: ProblemKind
    size_tier: str
    candidates: Tuple[Candidate, ...]
    reference_objective: float
    wall_time: float = 0.0

    @cached_property
    def selected_index(self) -> Optional[int]:
        return bon_select(self.candidates, SENSE_BY_KIND[self.kind])

    @cached_property
    def gap(self) -> Optional[float]:
        """Gap of the selected candidate; None if none is feasible."""
        i, sense = self.selected_index, SENSE_BY_KIND[self.kind]
        return None if i is None else solution_gap(
            sense, self.candidates[i].objective, self.reference_objective
        )

    @property
    def any_feasible(self) -> bool:
        return self.selected_index is not None

    def prefix(self, n: int) -> "EvalRecord":
        """The same record truncated to its first n candidates, re-selected.

        Candidates stay in sampling order, so prefixes are exactly what a
        smaller-N Best-of-N run would have seen."""
        return replace(self, candidates=self.candidates[:n])

    def to_dict(self) -> dict:
        """The record's row in a report."""
        return _jsonable({
            "instance_id": self.instance_id,
            "kind": self.kind.value,
            "size_tier": self.size_tier,
            "num_candidates": len(self.candidates),
            "num_parsed": sum(1 for c in self.candidates if c.format_ok),
            "feasible": self.any_feasible,
            "selected_index": self.selected_index,
            "gap": self.gap,
            "wall_time": self.wall_time,
        })


def build_record(
    inst: Instance,
    raw_texts: Sequence[Optional[str]],
    reference_objective: float,
    wall_time: float = 0.0,
) -> EvalRecord:
    """One `build_candidate` per text, in order, but each distinct text is
    parsed once. score's memo scores each distinct parsed solution once."""
    by_text: Dict[Optional[str], Candidate] = {}
    cands = []
    for raw in raw_texts:
        text = raw if isinstance(raw, str) else None
        cand = by_text.get(text)
        if cand is None:
            cand = by_text[text] = build_candidate(inst, text)
        cands.append(cand)
    return EvalRecord(
        inst.id, inst.kind, size_tier(inst), tuple(cands), reference_objective, wall_time
    )


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
        return {f.name: _jsonable(getattr(self, f.name)) for f in fields(self)}


def _jsonable(value):
    """value as strict JSON: string keys, summaries as dicts, and None for a
    non-finite float."""
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, MetricsSummary):
        return value.to_dict()
    return None if isinstance(value, float) and not math.isfinite(value) else value


def _mean(xs: Sequence[float]) -> float:
    """The mean of xs, summed left to right in sorted order, so that it does
    not depend on the order of xs. An explicit loop, not sum(): from Python
    3.12 on, sum() compensates float rounding, which would change the bits
    with the Python version."""
    total = 0.0
    for x in sorted(xs):
        total += x
    return total / len(xs)


def _summarize(records: Sequence[EvalRecord]) -> MetricsSummary:
    n = len(records)
    if n == 0:
        return MetricsSummary(0, 0.0, 0.0, None, None, {k: 0.0 for k in GAP_KS})
    feas = sum(1 for r in records if r.any_feasible) / n
    total_samples = sum(len(r.candidates) for r in records)
    fmt = (
        sum(sum(1 for c in r.candidates if c.format_ok) for r in records) / total_samples
        if total_samples
        else 0.0
    )
    gaps = [r.gap for r in records if r.gap is not None]
    mean_gap = _mean(gaps) if gaps else None
    # d * d is inf where a huge deviation overflows; d ** 2 would raise.
    gap_std = math.sqrt(_mean([d * d for d in (g - mean_gap for g in gaps)])) if gaps else None
    gap_at_k: Dict[int, float] = {}
    for k in GAP_KS:
        hit = sum(1 for r in records if r.gap is not None and r.gap * 100.0 < k)
        gap_at_k[k] = hit / n
    wall = _mean([r.wall_time for r in records])
    return MetricsSummary(
        num_records=n,
        feasibility_rate=feas,
        format_rate=fmt,
        mean_gap=mean_gap,
        gap_std=gap_std,
        gap_at_k=gap_at_k,
        mean_wall_time=wall,
    )


def metrics(records: Sequence[EvalRecord]) -> MetricsSummary:
    """Aggregate feasibility and gap metrics, overall and per size tier,
    with Gap@K for each K in GAP_KS."""
    tiers = {t: [r for r in records if r.size_tier == t] for t in ("small", "medium", "large")}
    by_tier = {tier: _summarize(sub) for tier, sub in tiers.items() if sub}
    return replace(_summarize(records), by_tier=by_tier)
