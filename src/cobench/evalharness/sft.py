"""Supervised fine-tuning dataset export.

Labels are reference solutions rendered in the canonical output grammar.
An infeasible reference is a data bug, not a judgment call: export refuses it
outright and names the violated constraints.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List, Sequence

from ..problems.io import ReferenceSolution
from ..problems.types import Instance
from ..tai.encode import encode
from ..tai.render import format_solution
from ..verify import score
from .endpoint import require_references


def sft_records(
    instances: Sequence[Instance], references: Dict[str, ReferenceSolution]
) -> List[dict]:
    require_references((inst.id for inst in instances), references)
    records = []
    for inst in instances:
        ref = references[inst.id]
        report, value = score(inst, ref.solution)
        if not report.feasible:
            violated = [name for name, ok in report.constraints if not ok]
            raise ValueError(
                f"reference for {inst.id} is infeasible "
                f"(zeta={int(report.zeta)}, violated: {', '.join(violated) or 'format'})"
            )
        tai = encode(inst)
        records.append(
            {
                "instruction": tai.instruction,
                "input": tai.input,
                "output": format_solution(inst.kind, ref.solution, value),
                "kind": inst.kind.value,
                "instance_id": inst.id,
            }
        )
    return records


def export_sft(
    instances: Sequence[Instance],
    references: Dict[str, ReferenceSolution],
    out_path: Path,
) -> int:
    """Write line-delimited training records (one JSON object per line, UTF-8);
    returns the record count."""
    records = sft_records(instances, references)
    out_path = Path(out_path)
    out_path.parent.mkdir(parents=True, exist_ok=True)
    with out_path.open("w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(json.dumps(rec, ensure_ascii=False) + "\n")
    return len(records)
