"""Batch evaluation with the deterministic mock policy.

No network needed: the mock plays a model that sometimes rambles, sometimes
returns an infeasible edit, and otherwise echoes (possibly degraded) reference
solutions. The mock is just another sampler for `evaluate`, the same loop a
live endpoint evaluation runs, so the whole reporting path is exercised
offline: JSONL persistence and resume, the Best-of-N prefix curves and the SFT
dataset export.
"""

import json
import tempfile
from pathlib import Path

from cobench import GenConfig, ProblemKind, gen_instance
from cobench.evalharness import (
    MockPolicyConfig,
    evaluate,
    export_sft,
    metrics,
    mock_policy,
)
from cobench.heuristics import solve
from cobench.problems.io import ReferenceSolution

KINDS = (ProblemKind.TSP, ProblemKind.MIS, ProblemKind.PFSP)
METHOD = {ProblemKind.TSP: "fi", ProblemKind.MIS: "greedy", ProblemKind.PFSP: "neh"}

instances, refs = [], {}
for i in range(30):
    kind = KINDS[i % len(KINDS)]
    size = {ProblemKind.TSP: 12, ProblemKind.MIS: 15, ProblemKind.PFSP: 5}[kind]
    inst = gen_instance(kind, GenConfig(seed=500 + i, size_range=(size, size)))
    res = solve(inst, METHOD[kind])
    instances.append(inst)
    refs[inst.id] = ReferenceSolution(
        instance_id=inst.id,
        solution=res.solution,
        objective=res.objective.value,
        source=f"heuristic:{res.method}",
    )

mock_cfg = MockPolicyConfig(format_fail_prob=0.1, infeasible_prob=0.2, perturbation=0.5, seed=4)

def sample(inst):
    return [mock_policy(inst, refs[inst.id].solution, mock_cfg, d) for d in range(8)]

with tempfile.TemporaryDirectory() as tmp:
    raw = Path(tmp) / "raw.jsonl"
    records = evaluate(instances, refs, sample, out_path=raw)
    # A rerun on the same file resumes: nothing is sampled again.
    resumed = evaluate(instances, refs, lambda inst: [], out_path=raw)
    assert [r.gap for r in resumed] == [r.gap for r in records]
    print(f"{len(raw.read_text().splitlines())} JSONL rows; resumed run sampled nothing")

summary = metrics(records)
print(f"records={summary.num_records} M_f={summary.feasibility_rate:.0%} "
      f"format={summary.format_rate:.0%} mean gap={summary.mean_gap:.2%}")
print(f"Gap@K: {summary.gap_at_k}")
for tier, sub in summary.by_tier.items():
    print(f"  {tier:6s} n={sub.num_records} M_f={sub.feasibility_rate:.0%}")

# More samples, better selections: re-select each record's prefix.
print("\nBest-of-N curve (same records, truncated):")
for n in (1, 2, 4, 8):
    prefs = [r.prefix(n) for r in records]
    feas = sum(1 for p in prefs if p.selected_index is not None) / len(prefs)
    gaps = [p.gap for p in prefs if p.gap is not None]
    mean_gap = sum(gaps) / len(gaps) if gaps else float("nan")
    print(f"  N={n}  M_f={feas:.0%}  mean gap={mean_gap:.2%}")

# The same instances and references make a supervised dataset.
with tempfile.TemporaryDirectory() as tmp:
    out = Path(tmp) / "sft.jsonl"
    count = export_sft(instances, refs, out)
    first = json.loads(out.read_text(encoding="utf-8").splitlines()[0])
    print(f"\nSFT export: {count} rows; first record keys {sorted(first)}")
    print(f"output field: {first['output'][:70]}...")
