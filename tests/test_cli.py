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


def test_generate_ba_with_m_not_below_n_is_data_error(tmp_path, capsys):
    # Seed 0 draws m = 3, which a BA graph on 3 nodes cannot attach.
    code, _, err = run(
        capsys, "generate", "--kind", "mis", "--size", "3", "--graph-family", "ba",
        "--out", str(tmp_path / "d"),
    )
    assert code == 2
    assert err.splitlines() == [err.strip()]
    assert "m = 3, n = 3" in err


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


def test_solve_tsili_without_seed_is_reproducible(tmp_path, capsys):
    insts, refs = tmp_path / "insts", tmp_path / "refs"
    run(capsys, "generate", "--kind", "op", "--count", "3", "--seed", "1",
        "--size", "40", "--out", str(insts))
    written = []
    for _ in range(2):
        code, _, _ = run(
            capsys, "solve", "--instance", str(insts), "--method", "tsili", "--out", str(refs)
        )
        assert code == 0
        written.append([p.read_bytes() for p in _instance_files(refs)])
    assert len(written[0]) == 3
    assert written[0] == written[1]


@pytest.mark.parametrize(
    "method, seed, recorded",
    [("tsili", [], 0), ("aco", [], 0), ("tsili", ["--seed", "3"], 3), ("greedy", [], None)],
)
def test_solve_provenance_records_the_seed_used(tmp_path, capsys, method, seed, recorded):
    # A seeded method given no seed runs with 0, and its reference says so.
    insts, ref_file = tmp_path / "insts", tmp_path / "ref.json"
    run(capsys, "generate", "--kind", "op", "--count", "1", "--seed", "1",
        "--size", "12", "--out", str(insts))
    code, _, _ = run(
        capsys, "solve", "--instance", str(insts), "--method", method, *seed,
        "--out", str(ref_file),
    )
    assert code == 0
    assert json.loads(ref_file.read_text())["provenance"]["seed"] == recorded


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


def test_verify_prints_one_shape_for_every_answer(tsp_dir, tmp_path, capsys):
    inst_file = _instance_files(tsp_dir)[0]
    payloads = []
    for answer in ("I cannot solve this.", "Route: [0, 1, 0]"):
        resp = tmp_path / "resp.txt"
        resp.write_text(answer + "\n")
        code, out, _ = run(
            capsys, "verify", "--instance", str(inst_file), "--response", str(resp)
        )
        assert code == 2
        payloads.append(json.loads(out))
    unparsed, infeasible = payloads
    assert list(unparsed) == list(infeasible)
    assert unparsed["zeta"] is False and unparsed["feasible"] is False
    assert [name for name, _ in unparsed["constraints"]] == [
        name for name, _ in infeasible["constraints"]
    ]


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


@pytest.mark.parametrize(
    "answer", ["Route: [0, 1, 0]", "visit all", "tour"], ids=["infeasible", "prose", "tour"]
)
def test_verify_and_reward_strip_thinking(tsp_dir, tmp_path, capsys, answer):
    inst_file = _instance_files(tsp_dir)[0]
    if answer == "tour":
        n = load_instance(inst_file).payload.n
        answer = "Route: [" + ", ".join(str(v) for v in list(range(n)) + [0]) + "]"
    plain, wrapped = tmp_path / "plain.txt", tmp_path / "wrapped.txt"
    plain.write_text(answer + "\n")
    wrapped.write_text("<think>Route: [0, 2, 0]</think>" + answer + "\n")
    for command in (["verify"], ["reward", "--reference-objective", "30"]):
        outputs = [
            run(capsys, *command, "--instance", str(inst_file), "--response", str(resp))
            for resp in (plain, wrapped)
        ]
        assert outputs[0] == outputs[1]


@pytest.mark.parametrize("answer", ["Route: [0, 1, 0]", "no answer"], ids=["parsed", "unparsed"])
def test_reward_bad_alpha_exits_two(tsp_dir, tmp_path, capsys, answer):
    inst_file = _instance_files(tsp_dir)[0]
    resp = tmp_path / "resp.txt"
    resp.write_text(answer + "\n")
    code, out, err = run(
        capsys, "reward", "--instance", str(inst_file), "--response", str(resp),
        "--alpha", "0",
    )
    assert (code, out) == (2, "")
    assert "alpha must be positive" in err


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


def test_evaluate_mock_rerun_resumes(bench, tmp_path, capsys):
    insts, refs = bench
    raw_file = tmp_path / "raw.jsonl"
    argv = ["evaluate", "--instances", str(insts), "--references", str(refs),
            "--mock", "--n-samples", "2", "--out", str(raw_file)]
    assert run(capsys, *argv)[0] == 0
    assert run(capsys, *argv)[0] == 0
    assert len(raw_file.read_text().splitlines()) == 3
    code, out, _ = run(
        capsys, "report", "--records", str(raw_file), "--instances", str(insts),
        "--references", str(refs),
    )
    assert code == 0
    assert json.loads(out)["num_records"] == 3


def test_evaluate_mock_rejects_zero_samples(bench, capsys):
    insts, refs = bench
    code, _, err = run(
        capsys, "evaluate", "--instances", str(insts), "--references", str(refs),
        "--mock", "--n-samples", "0",
    )
    assert code == 2
    assert "n_samples must be >= 1" in err


def _report(capsys, records, insts, refs):
    code, out, _ = run(
        capsys, "report", "--records", str(records), "--instances", str(insts),
        "--references", str(refs),
    )
    return code, json.loads(out) if code == 0 else None


def test_report_skips_a_truncated_last_line(bench, tmp_path, capsys):
    insts, refs = bench
    raw_file = tmp_path / "raw.jsonl"
    run(capsys, "evaluate", "--instances", str(insts), "--references", str(refs),
        "--mock", "--out", str(raw_file))
    whole = raw_file.read_text()
    raw_file.write_text(whole[: len(whole) - 20])
    code, payload = _report(capsys, raw_file, insts, refs)
    assert code == 0 and payload["num_records"] == 2
    assert _report(capsys, tmp_path / "missing.jsonl", insts, refs)[0] == 2


def test_report_duplicate_ids_resolve_last_wins(bench, tmp_path, capsys):
    insts, refs = bench
    raw_file = tmp_path / "raw.jsonl"
    run(capsys, "evaluate", "--instances", str(insts), "--references", str(refs),
        "--mock", "--out", str(raw_file))
    good = raw_file.read_text()
    bad = "".join(
        json.dumps(dict(json.loads(line), raw_texts=["no answer"])) + "\n"
        for line in good.splitlines()
    )
    raw_file.write_text(bad + good)
    code, payload = _report(capsys, raw_file, insts, refs)
    assert code == 0
    assert payload["num_records"] == 3 and payload["feasibility_rate"] == 1.0


@pytest.mark.parametrize(
    "row",
    [
        "[1]",
        "null",
        '{"instance_id": "IID", "raw_texts": 7}',
        '{"instance_id": "IID"}',
        '{"instance_id": 3, "raw_texts": null}',
        '{"instance_id": "IID", "raw_texts": [], "wall_time": "x"}',
    ],
    ids=["list", "null", "int-texts", "no-texts", "int-id", "str-wall-time"],
)
def test_records_row_of_the_wrong_shape_is_data_error(bench, tmp_path, capsys, row):
    insts, refs = bench
    raw_file = tmp_path / "raw.jsonl"
    run(capsys, "evaluate", "--instances", str(insts), "--references", str(refs),
        "--mock", "--out", str(raw_file))
    iid = _instance_files(insts)[0].stem
    raw_file.write_text(row.replace("IID", iid) + "\n" + raw_file.read_text())
    for argv in (
        ["report", "--records", str(raw_file)],
        ["evaluate", "--mock", "--out", str(raw_file)],
    ):
        code, _, err = run(
            capsys, *argv, "--instances", str(insts), "--references", str(refs)
        )
        assert code == 2, argv
        assert err.startswith("error: ") and "line 1:" in err, argv
        assert len(err.strip().splitlines()) == 1, argv


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


def test_report_missing_reference_is_data_error(bench, tmp_path, capsys):
    insts, refs = bench
    raw_file = tmp_path / "raw.jsonl"
    run(capsys, "evaluate", "--instances", str(insts), "--references", str(refs),
        "--mock", "--out", str(raw_file))
    gone = sorted(Path(refs).glob("*.json"))[0]
    gone.unlink()
    code, _, err = run(
        capsys, "report", "--records", str(raw_file), "--instances", str(insts),
        "--references", str(refs),
    )
    assert code == 2
    assert err.strip() == f"error: missing references for: {gone.stem}"


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
