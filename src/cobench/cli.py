"""Command line interface.

Exit codes: 0 success, 1 usage error, 2 data or validation error (bad files,
failed feasibility checks, exact-search budget refusals), 3 endpoint failure.
Errors are single lines on stderr.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Dict, List, Optional

from . import __version__
from .evalharness.endpoint import (
    EndpointConfig,
    evaluate_endpoint,
    evaluate_with_policy,
)
from .evalharness.metrics import EvalRecord, build_record, metrics
from .evalharness.mock import MockPolicyConfig, mock_policy
from .evalharness.sft import export_sft
from .heuristics import METHODS_BY_KIND, BudgetExceededError, brute_force, solve
from .problems.generate import gen_batch
from .problems.io import (
    ReferenceSolution,
    load_instance,
    load_reference,
    save_instance,
    save_reference,
)
from .problems.types import Distribution, GenConfig, GraphFamily, Instance, ProblemKind
from .rewards import RewardConfig, feasibility_reward, optimality_reward
from .tai.encode import encode
from .tai.parse import parse, strip_thinking
from .tai.render import render_prompt
from .verify import check, score

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_ENDPOINT = 3


def _provenance(args: argparse.Namespace) -> dict:
    return {
        "tool": "cobench",
        "version": __version__,
        "argv": getattr(args, "_argv", sys.argv[1:]),
        "seed": getattr(args, "seed", None),
    }


def _fail(msg: str, code: int = EXIT_DATA) -> int:
    print(f"error: {msg}", file=sys.stderr)
    return code


def _load_instances(path: Path) -> List[Instance]:
    path = Path(path)
    if path.is_file():
        return [load_instance(path)]
    files = sorted(p for p in path.glob("*.json") if p.name != "manifest.json")
    if not files:
        raise ValueError(f"no instance files under {path}")
    return [load_instance(p) for p in files]


def _record_rows(records: List[EvalRecord]) -> List[dict]:
    """Per-record detail lines for evaluation reports."""
    return [
        {
            "instance_id": r.instance_id,
            "kind": r.kind.value,
            "size_tier": r.size_tier,
            "num_candidates": len(r.candidates),
            "num_parsed": sum(1 for c in r.candidates if c.format_ok),
            "feasible": r.any_feasible,
            "selected_index": r.selected_index,
            "gap": r.gap,
            "wall_time": r.wall_time,
        }
        for r in records
    ]


def _load_references(path: Path) -> Dict[str, ReferenceSolution]:
    path = Path(path)
    files = [path] if path.is_file() else sorted(path.glob("*.json"))
    refs: Dict[str, ReferenceSolution] = {}
    for p in files:
        if p.name == "manifest.json":
            continue
        ref = load_reference(p)
        refs[ref.instance_id] = ref
    if not refs:
        raise ValueError(f"no reference files under {path}")
    return refs


# ---------------------------------------------------------------------------
# Subcommand handlers


def _cmd_generate(args: argparse.Namespace) -> int:
    kind = ProblemKind(args.kind)
    size_range = None
    if args.size:
        lo, _, hi = args.size.partition(":")
        size_range = (int(lo), int(hi or lo))
    cfg = GenConfig(
        size_range=size_range,
        distribution=Distribution.parse(args.distribution),
        seed=args.seed,
        graph_family=GraphFamily(args.graph_family) if args.graph_family else None,
        capacity=args.capacity,
    )
    instances = gen_batch(kind, cfg, args.count)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    ids = []
    for inst in instances:
        save_instance(inst, out / f"{inst.id}.json")
        ids.append(inst.id)
    manifest = dict(_provenance(args), kind=kind.value, count=args.count, ids=ids)
    (out / "manifest.json").write_text(json.dumps(manifest, indent=2) + "\n")
    print(f"wrote {len(ids)} instances to {out}")
    return EXIT_OK


def _cmd_encode(args: argparse.Namespace) -> int:
    inst = load_instance(args.instance)
    tai = encode(inst, k=args.k)
    if args.format == "json":
        payload = {
            "kind": tai.kind.value,
            "instruction": tai.instruction,
            "input": tai.input,
            "expected_output_grammar": tai.expected_output_grammar.value,
        }
        text = json.dumps(payload, indent=2)
    else:
        text = render_prompt(tai)
    if args.out:
        Path(args.out).write_text(text + "\n")
        print(f"wrote prompt to {args.out}")
    else:
        print(text)
    return EXIT_OK


def _cmd_solve(args: argparse.Namespace) -> int:
    instances = _load_instances(Path(args.instance))
    out_dir: Optional[Path] = Path(args.out) if args.out else None
    if out_dir is not None and (len(instances) > 1 or out_dir.is_dir()):
        out_dir.mkdir(parents=True, exist_ok=True)
    for inst in instances:
        if args.method not in METHODS_BY_KIND[inst.kind]:
            return _fail(
                f"method {args.method!r} not available for {inst.kind.value} "
                f"(choose from: {', '.join(METHODS_BY_KIND[inst.kind])})",
                EXIT_USAGE,
            )
        result = solve(inst, args.method, seed=args.seed)
        ref = ReferenceSolution(
            instance_id=inst.id,
            solution=result.solution,
            objective=result.objective.value,
            source=f"heuristic:{args.method}",
            validated=check(inst, result.solution).feasible,
        )
        print(f"{inst.id}: objective {result.objective.value:g} [{args.method}]")
        if out_dir is not None:
            target = (
                out_dir / f"{inst.id}.json"
                if out_dir.is_dir()
                else out_dir
            )
            save_reference(ref, target, provenance=_provenance(args))
    return EXIT_OK


def _cmd_verify(args: argparse.Namespace) -> int:
    inst = load_instance(args.instance)
    if args.response:
        text = Path(args.response).read_text()
        parsed = parse(strip_thinking(text), inst.kind)
        if not parsed.format_ok or parsed.solution is None:
            print(json.dumps({"zeta": 0, "feasible": False, "constraints": {}}))
            return EXIT_DATA
        sol = parsed.solution
    else:
        ref = load_reference(args.reference)
        if ref.instance_id != inst.id:
            return _fail(f"reference is for {ref.instance_id}, not {inst.id}")
        sol = ref.solution
    report, value = score(inst, sol)
    payload = report.to_dict()
    if report.feasible:
        payload["objective"] = value
    print(json.dumps(payload))
    return EXIT_OK if report.feasible else EXIT_DATA


def _cmd_reward(args: argparse.Namespace) -> int:
    inst = load_instance(args.instance)
    text = Path(args.response).read_text()
    parsed = parse(strip_thinking(text), inst.kind)
    cfg = RewardConfig(alpha=args.alpha)
    reference = args.reference_objective
    if reference is None and args.reference:
        reference = load_reference(args.reference).objective
    # A parse failure leaves solution None, which scores as a failed format gate.
    report, value = score(inst, parsed.solution)
    if not report.feasible:
        value = None
    r_f = feasibility_reward(inst.kind, report)
    r_o = 0.0
    if value is not None and reference is not None:
        r_o = optimality_reward(inst.kind, value, reference, cfg)
    print(
        json.dumps(
            {
                "zeta": int(report.zeta),
                "constraints": dict(report.constraints),
                "feasibility_reward": r_f,
                "optimality_reward": r_o,
                "total_reward": r_f + r_o,
                "objective": value,
            }
        )
    )
    return EXIT_OK


def _cmd_oracle(args: argparse.Namespace) -> int:
    inst = load_instance(args.instance)
    try:
        sol, obj = brute_force(inst)
    except BudgetExceededError as err:
        return _fail(str(err), EXIT_DATA)
    ref = ReferenceSolution(
        instance_id=inst.id,
        solution=sol,
        objective=obj.value,
        source="oracle",
        validated=True,
    )
    print(f"{inst.id}: optimal objective {obj.value:g}")
    if args.out:
        save_reference(ref, args.out, provenance=_provenance(args))
    return EXIT_OK


def _cmd_evaluate(args: argparse.Namespace) -> int:
    instances = _load_instances(Path(args.instances))
    references = _load_references(Path(args.references))
    missing = [i.id for i in instances if i.id not in references]
    if missing:
        return _fail(f"missing references for: {', '.join(missing[:5])}")
    out_path = Path(args.out) if args.out else None
    if args.mock:
        mock_cfg = MockPolicyConfig(
            format_fail_prob=args.mock_format_fail,
            infeasible_prob=args.mock_infeasible,
            perturbation=args.mock_perturbation,
            seed=args.seed,
        )

        def policy(inst: Instance, draw: int) -> str:
            return mock_policy(inst, references[inst.id].solution, mock_cfg, draw)

        records = evaluate_with_policy(
            instances, references, policy, args.n_samples, out_path
        )
    else:
        if not args.base_url:
            return _fail("either --mock or --base-url is required", EXIT_USAGE)
        cfg = EndpointConfig(
            base_url=args.base_url,
            model_name=args.model,
            temperature=args.temperature,
            n_samples=args.n_samples,
            timeout=args.timeout,
            max_parallel=args.max_parallel,
            retries=args.retries,
        )
        records = evaluate_endpoint(instances, references, cfg, out_path)
    summary = metrics(records)
    payload = dict(
        summary.to_dict(), records=_record_rows(records), provenance=_provenance(args)
    )
    if args.report:
        Path(args.report).write_text(json.dumps(payload, indent=2) + "\n")
    print(json.dumps(payload, indent=2))
    failed = [r.instance_id for r in records if not r.candidates]
    if failed:
        for iid in failed:
            print(f"error: no responses for {iid} (request failed)", file=sys.stderr)
        return EXIT_ENDPOINT
    return EXIT_OK


def _cmd_dataset(args: argparse.Namespace) -> int:
    instances = _load_instances(Path(args.instances))
    references = _load_references(Path(args.references))
    try:
        count = export_sft(instances, references, Path(args.out))
    except ValueError as err:
        return _fail(str(err), EXIT_DATA)
    print(f"wrote {count} training records to {args.out}")
    return EXIT_OK


def _cmd_report(args: argparse.Namespace) -> int:
    instances = {i.id: i for i in _load_instances(Path(args.instances))}
    references = _load_references(Path(args.references))
    records: List[EvalRecord] = []
    with Path(args.records).open() as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            row = json.loads(line)
            inst = instances.get(row["instance_id"])
            if inst is None:
                return _fail(f"records mention unknown instance {row['instance_id']}")
            cleaned = [strip_thinking(t) for t in row["raw_texts"]]
            records.append(
                build_record(
                    inst,
                    cleaned,
                    references[inst.id].objective,
                    row.get("wall_time", 0.0),
                )
            )
    summary = metrics(records)
    payload = dict(
        summary.to_dict(), records=_record_rows(records), provenance=_provenance(args)
    )
    if args.out:
        Path(args.out).write_text(json.dumps(payload, indent=2) + "\n")
    print(json.dumps(payload, indent=2))
    return EXIT_OK


# ---------------------------------------------------------------------------
# Parser


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="cobench",
        description="Benchmark and reward engine for text-based combinatorial optimization.",
    )
    p.add_argument("--version", action="version", version=f"cobench {__version__}")
    sub = p.add_subparsers(dest="command", required=True)

    kinds = [k.value for k in ProblemKind]

    g = sub.add_parser("generate", help="generate problem instances")
    g.add_argument("--kind", required=True, choices=kinds)
    g.add_argument("--count", type=int, default=1)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--size", help="size or lo:hi range (nodes, or J/M for scheduling)")
    g.add_argument(
        "--distribution",
        default="uniform",
        help="uniform, gm2, gm3, clustered, mixed, or gm(c,l)",
    )
    g.add_argument("--graph-family", choices=[f.value for f in GraphFamily])
    g.add_argument("--capacity", type=int, help="CVRP vehicle capacity override")
    g.add_argument("--out", required=True, help="output directory")
    g.set_defaults(func=_cmd_generate)

    e = sub.add_parser("encode", help="render an instance as a text prompt")
    e.add_argument("--instance", required=True)
    e.add_argument("--k", type=int, default=2, help="neighbor hints per entity")
    e.add_argument("--format", choices=["prompt", "json"], default="prompt")
    e.add_argument("--out")
    e.set_defaults(func=_cmd_encode)

    s = sub.add_parser("solve", help="run a classical baseline")
    s.add_argument("--instance", required=True, help="instance file or directory")
    s.add_argument("--method", required=True)
    s.add_argument("--seed", type=int, default=None)
    s.add_argument("--out", help="reference JSON file, or directory for batches")
    s.set_defaults(func=_cmd_solve)

    v = sub.add_parser("verify", help="check a solution against an instance")
    v.add_argument("--instance", required=True)
    grp = v.add_mutually_exclusive_group(required=True)
    grp.add_argument("--response", help="file with raw model output text")
    grp.add_argument("--reference", help="reference solution JSON")
    v.set_defaults(func=_cmd_verify)

    r = sub.add_parser("reward", help="score a raw response")
    r.add_argument("--instance", required=True)
    r.add_argument("--response", required=True)
    r.add_argument("--reference", help="reference solution JSON for the gap")
    r.add_argument("--reference-objective", type=float, default=None)
    r.add_argument("--alpha", type=float, default=1.0)
    r.set_defaults(func=_cmd_reward)

    o = sub.add_parser("oracle", help="exact solution for a small instance")
    o.add_argument("--instance", required=True)
    o.add_argument("--out", help="write the optimum as a reference JSON")
    o.set_defaults(func=_cmd_oracle)

    ev = sub.add_parser("evaluate", help="evaluate an endpoint or the mock policy")
    ev.add_argument("--instances", required=True)
    ev.add_argument("--references", required=True)
    ev.add_argument("--n-samples", type=int, default=1)
    ev.add_argument("--seed", type=int, default=0)
    ev.add_argument("--out", help="JSONL file for raw responses (resumable)")
    ev.add_argument("--report", help="metrics JSON output path")
    ev.add_argument("--mock", action="store_true")
    ev.add_argument("--mock-format-fail", type=float, default=0.0)
    ev.add_argument("--mock-infeasible", type=float, default=0.0)
    ev.add_argument("--mock-perturbation", type=float, default=0.0)
    ev.add_argument("--base-url")
    ev.add_argument("--model", default="default")
    ev.add_argument("--temperature", type=float, default=0.0)
    ev.add_argument("--timeout", type=float, default=120.0)
    ev.add_argument("--max-parallel", type=int, default=4)
    ev.add_argument("--retries", type=int, default=3)
    ev.set_defaults(func=_cmd_evaluate)

    d = sub.add_parser("dataset", help="export an SFT dataset from references")
    d.add_argument("--instances", required=True)
    d.add_argument("--references", required=True)
    d.add_argument("--out", required=True)
    d.set_defaults(func=_cmd_dataset)

    rp = sub.add_parser("report", help="recompute metrics from stored responses")
    rp.add_argument("--records", required=True, help="JSONL from evaluate --out")
    rp.add_argument("--instances", required=True)
    rp.add_argument("--references", required=True)
    rp.add_argument("--out")
    rp.set_defaults(func=_cmd_report)

    return p


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors; remap to the documented code
        if exc.code not in (0, None):
            return EXIT_USAGE
        return EXIT_OK
    args._argv = list(argv) if argv is not None else sys.argv[1:]
    try:
        return args.func(args)
    except BudgetExceededError as err:
        return _fail(str(err), EXIT_DATA)
    except RuntimeError as err:
        return _fail(str(err), EXIT_ENDPOINT)
    except (OSError, ValueError, KeyError, json.JSONDecodeError) as err:
        return _fail(str(err), EXIT_DATA)


if __name__ == "__main__":
    sys.exit(main())
