"""End-to-end CLI tests driving main(argv) in process.

Every subcommand gets at least one happy path, and each documented exit code
(0 ok, 1 infeasible, 2 budget, 3 usage) is exercised.
"""

import json
from pathlib import Path

import pytest

from cobench import __version__
from cobench.cli import main
from cobench.problems.io import load_instance, load_reference


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture()
def tsp_dir(tmp_path, capsys):
    out = tmp_path / "insts"
    code, _, _ = run(
        capsys, "generate", "--kind", "tsp", "--count", "3", "--seed", "5",
        "--size", "8", "--out", str(out),
    )
    assert code == 0
    return out


def _instance_files(d):
    return sorted(p for p in Path(d).glob("*.json") if p.name != "manifest.json")


# ---------------------------------------------------------------------------
# generate


def test_generate_writes_instances_and_manifest(tsp_dir):
    files = _instance_files(tsp_dir)
    assert len(files) == 3
    manifest = json.loads((tsp_dir / "manifest.json").read_text())
    assert manifest["tool"] == "cobench"
    assert manifest["version"] == __version__
    assert manifest["seed"] == 5
    assert manifest["count"] == 3
    assert "--kind" in manifest["argv"] and "tsp" in manifest["argv"]
    assert manifest["ids"] == [p.stem for p in files]
    inst = load_instance(files[0])
    assert inst.payload.n == 8


def test_generate_deterministic_across_out_dirs(tmp_path, capsys):
    args = ["generate", "--kind", "mis", "--count", "2", "--seed", "11", "--size", "12"]
    a, b = tmp_path / "a", tmp_path / "b"
    assert run(capsys, *args, "--out", str(a))[0] == 0
    assert run(capsys, *args, "--out", str(b))[0] == 0
    fa, fb = _instance_files(a), _instance_files(b)
    assert [p.name for p in fa] == [p.name for p in fb]
    for pa, pb in zip(fa, fb):
        assert pa.read_bytes() == pb.read_bytes()


def test_generate_size_range_and_distribution(tmp_path, capsys):
    out = tmp_path / "g"
    code, _, _ = run(
        capsys, "generate", "--kind", "tsp", "--count", "4", "--seed", "2",
        "--size", "10:14", "--distribution", "clustered", "--out", str(out),
    )
    assert code == 0
    for p in _instance_files(out):
        inst = load_instance(p)
        assert 10 <= inst.payload.n <= 14
        assert "clustered" in inst.id


def test_generate_rejects_unknown_kind(tmp_path, capsys):
    code, _, _ = run(
        capsys, "generate", "--kind", "sat", "--out", str(tmp_path / "x")
    )
    assert code == 1


# ---------------------------------------------------------------------------
# encode


def test_encode_prompt_to_stdout(tsp_dir, capsys):
    inst_file = _instance_files(tsp_dir)[0]
    code, out, _ = run(capsys, "encode", "--instance", str(inst_file))
    assert code == 0
    assert "Solve the Traveling Salesman Problem (TSP)" in out
    assert "### Instruction:" in out and "### Input:" in out


def test_encode_json_format(tsp_dir, tmp_path, capsys):
    inst_file = _instance_files(tsp_dir)[0]
    out_file = tmp_path / "tai.json"
    code, _, _ = run(
        capsys, "encode", "--instance", str(inst_file), "--format", "json",
        "--k", "3", "--out", str(out_file),
    )
    assert code == 0
    payload = json.loads(out_file.read_text())
    assert set(payload) == {"kind", "instruction", "input", "expected_output_grammar"}
    assert payload["kind"] == "tsp"
    assert "the 3 nearest neighbors" in payload["instruction"]


def test_encode_missing_file_is_data_error(tmp_path, capsys):
    code, _, err = run(capsys, "encode", "--instance", str(tmp_path / "nope.json"))
    assert code == 2
    assert "error:" in err


# ---------------------------------------------------------------------------
# solve


def test_solve_single_instance_with_reference_out(tsp_dir, tmp_path, capsys):
    inst_file = _instance_files(tsp_dir)[0]
    ref_file = tmp_path / "ref.json"
    code, out, _ = run(
        capsys, "solve", "--instance", str(inst_file), "--method", "nn",
        "--out", str(ref_file),
    )
    assert code == 0
    assert "objective" in out and "[nn]" in out
    ref = load_reference(ref_file)
    inst = load_instance(inst_file)
    assert ref.instance_id == inst.id
    assert ref.source == "heuristic:nn"
    assert ref.validated is True


def test_solve_directory_batch(tsp_dir, tmp_path, capsys):
    refs_dir = tmp_path / "refs"
    refs_dir.mkdir()
    code, out, _ = run(
        capsys, "solve", "--instance", str(tsp_dir), "--method", "fi",
        "--out", str(refs_dir),
    )
    assert code == 0
    assert len(out.strip().splitlines()) == 3
    ref_files = sorted(refs_dir.glob("*.json"))
    assert [p.name for p in ref_files] == [p.name for p in _instance_files(tsp_dir)]


def test_solve_wrong_method_for_kind(tsp_dir, capsys):
    inst_file = _instance_files(tsp_dir)[0]
    code, _, err = run(capsys, "solve", "--instance", str(inst_file), "--method", "neh")
    assert code == 1
    assert "choose from: nn, fi, aco" in err


# ---------------------------------------------------------------------------
# verify


def test_verify_feasible_reference(tsp_dir, tmp_path, capsys):
    inst_file = _instance_files(tsp_dir)[0]
    ref_file = tmp_path / "ref.json"
    run(capsys, "solve", "--instance", str(inst_file), "--method", "nn",
        "--out", str(ref_file))
    code, out, _ = run(
        capsys, "verify", "--instance", str(inst_file), "--reference", str(ref_file)
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["zeta"] == 1
    assert payload["feasible"] is True
    assert payload["objective"] > 0
    names = [name for name, _ in payload["constraints"]]
    assert names == ["visits_each_node_once", "returns_to_start"]


def test_verify_response_text(tsp_dir, tmp_path, capsys):
    inst_file = _instance_files(tsp_dir)[0]
    inst = load_instance(inst_file)
    n = inst.payload.n
    resp = tmp_path / "resp.txt"
    resp.write_text("Route: [" + ", ".join(str(v) for v in list(range(n)) + [0]) + "]\n")
    code, out, _ = run(
        capsys, "verify", "--instance", str(inst_file), "--response", str(resp)
    )
    assert code == 0
    assert json.loads(out)["feasible"] is True


def test_verify_garbage_response_exits_one(tsp_dir, tmp_path, capsys):
    inst_file = _instance_files(tsp_dir)[0]
    resp = tmp_path / "resp.txt"
    resp.write_text("I cannot solve this.\n")
    code, out, _ = run(
        capsys, "verify", "--instance", str(inst_file), "--response", str(resp)
    )
    assert code == 2
    assert json.loads(out)["zeta"] == 0


def test_verify_infeasible_response_exits_one(tsp_dir, tmp_path, capsys):
    inst_file = _instance_files(tsp_dir)[0]
    resp = tmp_path / "resp.txt"
    resp.write_text("Route: [0, 1, 0]\n")
    code, out, _ = run(
        capsys, "verify", "--instance", str(inst_file), "--response", str(resp)
    )
    assert code == 2
    payload = json.loads(out)
    assert payload["zeta"] == 1 and payload["feasible"] is False


def test_verify_reference_id_mismatch(tsp_dir, tmp_path, capsys):
    files = _instance_files(tsp_dir)
    ref_file = tmp_path / "ref.json"
    run(capsys, "solve", "--instance", str(files[0]), "--method", "nn",
        "--out", str(ref_file))
    code, _, err = run(
        capsys, "verify", "--instance", str(files[1]), "--reference", str(ref_file)
    )
    assert code == 2
    assert "reference is for" in err


# ---------------------------------------------------------------------------
# reward


def test_reward_echo_of_reference_totals_two(tsp_dir, tmp_path, capsys):
    inst_file = _instance_files(tsp_dir)[0]
    ref_file = tmp_path / "ref.json"
    run(capsys, "solve", "--instance", str(inst_file), "--method", "nn",
        "--out", str(ref_file))
    ref = load_reference(ref_file)
    inst = load_instance(inst_file)
    from cobench.tai.render import format_solution

    resp = tmp_path / "resp.txt"
    resp.write_text(format_solution(inst.kind, ref.solution, ref.objective) + "\n")
    code, out, _ = run(
        capsys, "reward", "--instance", str(inst_file), "--response", str(resp),
        "--reference", str(ref_file),
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["zeta"] == 1
    assert payload["feasibility_reward"] == pytest.approx(1.0)
    assert payload["optimality_reward"] == pytest.approx(1.0)
    assert payload["total_reward"] == pytest.approx(2.0)
    assert payload["objective"] == pytest.approx(ref.objective)


def test_reward_garbage_is_zero(tsp_dir, tmp_path, capsys):
    inst_file = _instance_files(tsp_dir)[0]
    resp = tmp_path / "resp.txt"
    resp.write_text("thinking about it...\n")
    code, out, _ = run(
        capsys, "reward", "--instance", str(inst_file), "--response", str(resp),
        "--reference-objective", "100.0",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["zeta"] == 0
    assert payload["total_reward"] == 0.0
    assert payload["objective"] is None


def test_reward_without_reference_scores_feasibility_only(tsp_dir, tmp_path, capsys):
    inst_file = _instance_files(tsp_dir)[0]
    inst = load_instance(inst_file)
    n = inst.payload.n
    resp = tmp_path / "resp.txt"
    resp.write_text("Route: [" + ", ".join(str(v) for v in list(range(n)) + [0]) + "]\n")
    code, out, _ = run(
        capsys, "reward", "--instance", str(inst_file), "--response", str(resp)
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["feasibility_reward"] == pytest.approx(1.0)
    assert payload["optimality_reward"] == 0.0
    assert payload["total_reward"] == pytest.approx(1.0)


# ---------------------------------------------------------------------------
# oracle


def test_oracle_small_instance(tsp_dir, tmp_path, capsys):
    inst_file = _instance_files(tsp_dir)[0]
    ref_file = tmp_path / "opt.json"
    code, out, _ = run(
        capsys, "oracle", "--instance", str(inst_file), "--out", str(ref_file)
    )
    assert code == 0
    assert "optimal objective" in out
    ref = load_reference(ref_file)
    assert ref.source == "oracle" and ref.validated is True


def test_oracle_budget_refusal_exits_two(tmp_path, capsys):
    out = tmp_path / "big"
    run(capsys, "generate", "--kind", "tsp", "--count", "1", "--seed", "0",
        "--size", "40", "--out", str(out))
    inst_file = _instance_files(out)[0]
    code, _, err = run(capsys, "oracle", "--instance", str(inst_file))
    assert code == 2
    assert "exceeds the exact-search budget" in err


def test_oracle_beats_heuristic(tsp_dir, tmp_path, capsys):
    inst_file = _instance_files(tsp_dir)[0]
    heur_file, opt_file = tmp_path / "h.json", tmp_path / "o.json"
    run(capsys, "solve", "--instance", str(inst_file), "--method", "nn",
        "--out", str(heur_file))
    run(capsys, "oracle", "--instance", str(inst_file), "--out", str(opt_file))
    assert load_reference(opt_file).objective <= load_reference(heur_file).objective + 1e-9


# ---------------------------------------------------------------------------
# evaluate / report / dataset


@pytest.fixture()
def bench(tsp_dir, tmp_path, capsys):
    refs_dir = tmp_path / "refs"
    refs_dir.mkdir()
    code, _, _ = run(
        capsys, "solve", "--instance", str(tsp_dir), "--method", "nn",
        "--out", str(refs_dir),
    )
    assert code == 0
    return tsp_dir, refs_dir


def test_evaluate_mock_perfect_echo(bench, tmp_path, capsys):
    insts, refs = bench
    report_file = tmp_path / "metrics.json"
    raw_file = tmp_path / "raw.jsonl"
    code, out, _ = run(
        capsys, "evaluate", "--instances", str(insts), "--references", str(refs),
        "--mock", "--n-samples", "2", "--out", str(raw_file),
        "--report", str(report_file),
    )
    assert code == 0
    payload = json.loads(report_file.read_text())
    assert payload["num_records"] == 3
    assert payload["feasibility_rate"] == 1.0
    assert payload["mean_gap"] == 0.0
    assert payload["gap_at_k"] == {"1": 1.0, "5": 1.0, "10": 1.0}
    assert payload["provenance"]["tool"] == "cobench"
    assert len(payload["records"]) == 3
    assert all(r["feasible"] for r in payload["records"])
    assert json.loads(out)["feasibility_rate"] == 1.0
    assert len(raw_file.read_text().splitlines()) == 3


def test_report_recomputes_identical_metrics(bench, tmp_path, capsys):
    insts, refs = bench
    raw_file = tmp_path / "raw.jsonl"
    first = tmp_path / "m1.json"
    run(capsys, "evaluate", "--instances", str(insts), "--references", str(refs),
        "--mock", "--n-samples", "2", "--mock-perturbation", "0.5",
        "--out", str(raw_file), "--report", str(first))
    second = tmp_path / "m2.json"
    code, _, _ = run(
        capsys, "report", "--records", str(raw_file), "--instances", str(insts),
        "--references", str(refs), "--out", str(second),
    )
    assert code == 0
    a = json.loads(first.read_text())
    b = json.loads(second.read_text())
    for key in ("num_records", "feasibility_rate", "format_rate", "mean_gap", "gap_at_k"):
        assert a[key] == b[key], key


def test_evaluate_missing_reference_is_usage_error(bench, tmp_path, capsys):
    insts, refs = bench
    extra = tmp_path / "extra"
    run(capsys, "generate", "--kind", "tsp", "--count", "1", "--seed", "99",
        "--size", "8", "--out", str(extra))
    # Copy the new instance next to the others; it has no reference.
    src = _instance_files(extra)[0]
    (Path(insts) / src.name).write_bytes(src.read_bytes())
    code, _, err = run(
        capsys, "evaluate", "--instances", str(insts), "--references", str(refs),
        "--mock",
    )
    assert code == 2
    assert "missing references" in err


def test_evaluate_needs_mock_or_base_url(bench, capsys):
    insts, refs = bench
    code, _, err = run(
        capsys, "evaluate", "--instances", str(insts), "--references", str(refs)
    )
    assert code == 1
    assert "--mock or --base-url" in err


def test_evaluate_dead_endpoint_exits_three(bench, capsys):
    insts, refs = bench
    code, out, err = run(
        capsys, "evaluate", "--instances", str(insts), "--references", str(refs),
        "--base-url", "http://127.0.0.1:9/v1", "--retries", "0", "--timeout", "2",
    )
    assert code == 3
    assert "no responses" in err
    payload = json.loads(out[: out.rindex("}") + 1])
    assert payload["feasibility_rate"] == 0.0  # report still written


def test_dataset_export_and_infeasible_rejection(bench, tmp_path, capsys):
    insts, refs = bench
    out_file = tmp_path / "sft.jsonl"
    code, out, _ = run(
        capsys, "dataset", "--instances", str(insts), "--references", str(refs),
        "--out", str(out_file),
    )
    assert code == 0
    assert "wrote 3 training records" in out
    data = [json.loads(l) for l in out_file.read_text().splitlines()]
    assert len(data) == 3 and all("instruction" in r for r in data)

    # Corrupt one reference on disk: export must refuse with exit 1.
    ref_path = sorted(Path(refs).glob("*.json"))[0]
    blob = json.loads(ref_path.read_text())
    blob["solution"]["nodes"] = [0, 1, 0]
    ref_path.write_text(json.dumps(blob))
    code, _, err = run(
        capsys, "dataset", "--instances", str(insts), "--references", str(refs),
        "--out", str(out_file),
    )
    assert code == 2
    assert "infeasible" in err


# ---------------------------------------------------------------------------
# Top-level behavior


def test_version_flag(capsys):
    code, _, _ = run(capsys, "--version")
    assert code == 0


def test_unknown_command_is_usage_error(capsys):
    code, _, _ = run(capsys, "frobnicate")
    assert code == 1


def test_unknown_flag_is_usage_error(capsys):
    code, _, _ = run(capsys, "generate", "--kind", "tsp", "--out", "x", "--frob")
    assert code == 1


def test_console_script_entry_point():
    """The `cobench` console script runs cobench.cli:main. Read it from the
    installed dist metadata, or from pyproject.toml when the package runs
    from a source checkout without an install."""
    import importlib.metadata as md

    values = [ep.value for ep in md.entry_points(group="console_scripts", name="cobench")]
    if not values:
        import tomllib

        pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
        scripts = tomllib.loads(pyproject.read_text())["project"]["scripts"]
        values = [scripts["cobench"]]
    assert "cobench.cli:main" in values
