"""End-to-end CLI tests driving main(argv) in process.

Every subcommand gets at least one happy path, and each documented exit code
(0 ok, 1 infeasible, 2 budget, 3 usage) is exercised.
"""

import json
import math
import warnings
from pathlib import Path

import pytest

from cobench import __version__
from cobench.cli import main
from cobench.problems.io import load_instance, load_reference, save_instance
from cobench.problems.types import Instance, ProblemKind, RoutingInstance


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


def test_generate_ba_on_three_nodes_caps_attachment(tmp_path, capsys):
    # Seed 0 draws m = 3, which a BA graph on 3 nodes caps at 2.
    out = tmp_path / "d"
    code, _, _ = run(
        capsys, "generate", "--kind", "mis", "--size", "3", "--graph-family", "ba",
        "--out", str(out),
    )
    assert code == 0
    (inst,) = [load_instance(p) for p in _instance_files(out)]
    assert inst.meta["m"] == "2"
    assert inst.payload.edges == ((0, 1), (0, 2))


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


def test_solve_refuses_a_coordinate_whose_square_overflows(tsp_dir, tmp_path, capsys):
    doc = json.loads(_instance_files(tsp_dir)[0].read_text())
    doc["payload"]["coords"][1][0] = 1e308
    inst_file = tmp_path / "far.json"
    inst_file.write_text(json.dumps(doc))
    ref_file = tmp_path / "ref.json"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(
            capsys, "solve", "--instance", str(inst_file), "--method", "fi",
            "--out", str(ref_file),
        )
    assert (code, out) == (2, "")
    assert err == "error: coords must be finite and at most 1e+150 in absolute value\n"
    assert not ref_file.exists()


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


def test_verify_refuses_an_instance_with_a_field_of_another_kind(tsp_dir, tmp_path, capsys):
    doc = json.loads(_instance_files(tsp_dir)[0].read_text())
    doc["payload"]["capacity"] = 10
    inst_file = tmp_path / "tsp-with-capacity.json"
    inst_file.write_text(json.dumps(doc))
    answer = tmp_path / "answer.txt"
    answer.write_text("Route: [0, 1, 2, 0]")
    code, out, err = run(capsys, "verify", "--instance", str(inst_file), "--response", str(answer))
    assert code == 2
    assert out == ""
    assert err.strip().splitlines() == ["error: tsp instance takes no capacity, another kind's field"]


@pytest.mark.parametrize("field", ["coords", "distance_limit"])
def test_verify_non_finite_instance_is_data_error(tsp_dir, tmp_path, capsys, field):
    doc = json.loads(_instance_files(tsp_dir)[0].read_text())
    if field == "coords":
        doc["payload"]["coords"][1][0] = float("nan")
    else:
        doc["payload"]["distance_limit"] = float("nan")
    inst_file = tmp_path / "nan.json"
    inst_file.write_text(json.dumps(doc))  # json writes NaN
    answer = tmp_path / "answer.txt"
    answer.write_text("Route: [0, 1, 2, 0]")
    code, out, err = run(capsys, "verify", "--instance", str(inst_file), "--response", str(answer))
    assert code == 2
    assert out == ""
    lines = err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:"), err


@pytest.mark.parametrize("field", ["coords", "distance_limit"])
def test_verify_non_numeric_float_field_is_data_error(tmp_path, capsys, field):
    code, _, _ = run(
        capsys, "generate", "--kind", "op", "--count", "1", "--seed", "3",
        "--size", "8", "--out", str(tmp_path / "insts"),
    )
    assert code == 0
    doc = json.loads(_instance_files(tmp_path / "insts")[0].read_text())
    if field == "coords":
        doc["payload"]["coords"][1] = [True, "7"]
    else:
        doc["payload"]["distance_limit"] = "1e3"
    inst_file = tmp_path / "strings.json"
    inst_file.write_text(json.dumps(doc))
    answer = tmp_path / "answer.txt"
    answer.write_text("Route: [0, 1, 0]")
    code, out, err = run(capsys, "verify", "--instance", str(inst_file), "--response", str(answer))
    assert code == 2
    assert out == ""
    lines = err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:") and field in lines[0], err


def test_verify_non_zero_depot_is_data_error(tmp_path, capsys):
    # Node 0 is the depot: a file that names another one is refused, not
    # scored against a depot no solver or prompt uses.
    code, _, _ = run(
        capsys, "generate", "--kind", "cvrp", "--count", "1", "--seed", "3",
        "--size", "12", "--out", str(tmp_path / "insts"),
    )
    assert code == 0
    doc = json.loads(_instance_files(tmp_path / "insts")[0].read_text())
    doc["payload"]["depot_index"] = 3
    inst_file = tmp_path / "depot3.json"
    inst_file.write_text(json.dumps(doc))
    answer = tmp_path / "answer.txt"
    answer.write_text("Routes: [[0, 1, 0]]")
    code, out, err = run(capsys, "verify", "--instance", str(inst_file), "--response", str(answer))
    assert code == 2
    assert out == ""
    lines = err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:") and "depot_index 3" in lines[0], err


@pytest.mark.parametrize("limit", [math.inf, 100.0])
def test_verify_and_reward_print_strict_json_margins(tmp_path, capsys, limit):
    # An infinite distance limit (no budget) is legal; its margin prints as null.
    payload = RoutingInstance(
        coords=((0.0, 0.0), (3.0, 4.0), (0.0, 1.0)), prizes=(0, 5, 7), distance_limit=limit
    )
    inst_file = save_instance(Instance(ProblemKind.OP, payload, id="op-inf"), tmp_path / "op.json")
    resp = tmp_path / "resp.txt"
    resp.write_text("Route: [0, 1, 2, 0]\n")
    margin = None if limit == math.inf else limit - (5.0 + math.sqrt(18.0) + 1.0)
    for command in ("verify", "reward"):
        code, out, err = run(
            capsys, command, "--instance", str(inst_file), "--response", str(resp)
        )
        assert (code, err) == (0, "")
        shown = _strict_json(out)
        assert shown["feasible"] is True
        assert shown["margins"] == [["distance_limit", pytest.approx(margin)]]


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


@pytest.mark.parametrize(
    "kind, keys, value, field",
    [
        ("tsp", ["payload", "coords", 1], 5, "coords"),
        ("tsp", ["payload", "coords", 1], [1, 2, 3], "coords"),
        ("tsp", ["payload", "coords"], 5, "coords"),
        ("mis", ["payload", "edges", 0], 5, "edges"),
        ("pfsp", ["payload", "ptimes"], [1, 2], "ptimes"),
        ("tsp", ["payload"], [1], "payload"),
        ("tsp", [], None, "instance file"),
        ("tsp", ["meta"], ["a"], "meta"),
        ("tsp", ["reference", "solution"], [0, 1, 0], "solution"),
        ("tsp", ["reference", "solution", "nodes"], 5, "nodes"),
        ("cvrp", ["reference", "solution", "routes"], [1, 2], "routes"),
        ("tsp", ["reference"], None, "reference file"),
        ("tsp", ["id"], ["x"], "id"),
        ("tsp", ["seed"], "7", "seed"),
        ("tsp", ["seed"], True, "seed"),
        ("tsp", ["reference", "instance_id"], ["x"], "instance_id"),
        ("tsp", ["reference", "validated"], "false", "validated"),
        # A list field holding "" or {} is no empty list.
        ("tsp", ["payload", "coords"], {}, "coords"),
        ("op", ["payload", "prizes"], "", "prizes"),
        ("cvrp", ["payload", "demands"], {}, "demands"),
        ("mis", ["payload", "edges"], "", "edges"),
        ("mis", ["payload", "edges"], {}, "edges"),
        ("pfsp", ["payload", "ptimes"], "", "ptimes"),
        ("jssp", ["payload", "machine_order"], {}, "machine_order"),
        ("tsp", ["reference", "solution", "nodes"], "", "nodes"),
        ("cvrp", ["reference", "solution", "routes"], {}, "routes"),
        ("mis", ["reference", "solution", "vertices"], "", "vertices"),
        ("mis", ["reference", "solution", "vertices"], {}, "vertices"),
        ("jssp", ["reference", "solution", "sequences"], "", "sequences"),
    ],
    ids=[
        "coords-row-int", "coords-row-triple", "coords-int", "edge-int", "ptimes-rows-int",
        "payload-list", "instance-list", "meta-list", "solution-list", "nodes-int",
        "routes-rows-int", "reference-list", "id-list", "seed-string", "seed-bool",
        "instance-id-list", "validated-string", "coords-object", "prizes-string",
        "demands-object", "edges-string", "edges-object", "ptimes-string",
        "machine-order-object", "nodes-string", "routes-object", "vertices-string",
        "vertices-object", "sequences-string",
    ],
)
def test_verify_malformed_file_is_one_line(tmp_path, capsys, kind, keys, value, field):
    method = {
        "tsp": "nn", "op": "greedy", "cvrp": "sweep", "mis": "greedy", "pfsp": "neh",
        "jssp": "spt",
    }[kind]
    run(capsys, "generate", "--kind", kind, "--size", "6", "--out", str(tmp_path / "insts"))
    inst_file = _instance_files(tmp_path / "insts")[0]
    ref_file = tmp_path / "ref.json"
    run(capsys, "solve", "--instance", str(inst_file), "--method", method, "--out", str(ref_file))
    target = ref_file if keys[:1] == ["reference"] else inst_file
    doc = json.loads(target.read_text())
    path = keys[1:] if target is ref_file else keys
    if path:
        *parents, last = path
        node = doc
        for key in parents:
            node = node[key]
        node[last] = value
    else:
        doc = [doc]  # the whole document is not an object
    target.write_text(json.dumps(doc))
    code, out, err = run(
        capsys, "verify", "--instance", str(inst_file), "--reference", str(ref_file)
    )
    assert (code, out) == (2, "")
    lines = err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"error: {field}: expected "), err


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
    for alpha in ("0", "nan", "inf", "-inf"):
        code, out, err = run(
            capsys, "reward", "--instance", str(inst_file), "--response", str(resp),
            f"--alpha={alpha}",
        )
        assert (code, out) == (2, ""), alpha
        assert err == "error: alpha must be positive and finite\n", alpha


@pytest.mark.parametrize("kind,method,infeasible", [
    ("tsp", "nn", "Route: [0, 1, 0]"),
    ("cvrp", "sweep", "Routes: [[0, 1, 0]]"),
])
def test_reward_prints_the_report_verify_prints(tmp_path, capsys, kind, method, infeasible):
    # One report format: reward prints verify's report fields, then adds the
    # objective and the rewards, whose total is total_reward's.
    from cobench.evalharness import build_candidate
    from cobench.rewards import feasibility_reward, total_reward
    from cobench.tai.render import format_solution

    insts = tmp_path / "insts"
    run(capsys, "generate", "--kind", kind, "--count", "1", "--size", "8", "--out", str(insts))
    inst_file = _instance_files(insts)[0]
    ref_file = tmp_path / "ref.json"
    run(capsys, "solve", "--instance", str(inst_file), "--method", method,
        "--out", str(ref_file))
    inst, ref = load_instance(inst_file), load_reference(ref_file)
    echo = format_solution(inst.kind, ref.solution, ref.objective)
    report_keys = ["zeta", "constraints", "margins", "feasible"]
    reward_keys = ["objective", "feasibility_reward", "optimality_reward", "total_reward"]
    states = []
    for answer in (echo, infeasible, "no answer"):
        resp = tmp_path / "resp.txt"
        resp.write_text(answer + "\n")
        _, out, _ = run(capsys, "verify", "--instance", str(inst_file), "--response", str(resp))
        shown = json.loads(out)
        cand = build_candidate(inst, answer)
        states.append((shown["zeta"], shown["feasible"]))
        for reference in (None, ref.objective):
            extra = [] if reference is None else ["--reference", str(ref_file)]
            code, out, _ = run(
                capsys, "reward", "--instance", str(inst_file), "--response", str(resp), *extra
            )
            paid = json.loads(out)
            assert code == 0 and list(paid) == report_keys + reward_keys
            assert {k: paid[k] for k in report_keys} == {k: shown[k] for k in report_keys}
            assert paid["objective"] == shown.get("objective") == cand.objective
            r_f = feasibility_reward(inst.kind, cand.report)
            total = r_f if reference is None else total_reward(
                inst.kind, cand.report, cand.objective, reference
            )
            assert (paid["feasibility_reward"], paid["total_reward"]) == (r_f, total)
            assert (paid["optimality_reward"] > 0) == (reference is not None and cand.feasible)
    assert states == [(True, True), (True, False), (False, False)]


def _echo_reference(tsp_dir, tmp_path, capsys, answer="echo"):
    """An instance file, its NN reference file and a response: one echoing
    the reference, or prose that does not parse."""
    inst_file = _instance_files(tsp_dir)[0]
    ref_file = tmp_path / "ref.json"
    run(capsys, "solve", "--instance", str(inst_file), "--method", "nn",
        "--out", str(ref_file))
    ref = load_reference(ref_file)
    from cobench.tai.render import format_solution

    resp = tmp_path / "resp.txt"
    kind = load_instance(inst_file).kind
    if answer == "echo":
        answer = format_solution(kind, ref.solution, ref.objective)
    resp.write_text(answer + "\n")
    return inst_file, ref_file, resp


@pytest.mark.parametrize("answer", ["echo", "no answer"], ids=["parsed", "unparsed"])
@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
def test_reward_non_finite_reference_objective_exits_two(
    tsp_dir, tmp_path, capsys, bad, answer
):
    inst_file, _, resp = _echo_reference(tsp_dir, tmp_path, capsys, answer)
    code, out, err = run(
        capsys, "reward", "--instance", str(inst_file), "--response", str(resp),
        f"--reference-objective={bad}",  # '=' keeps argparse from reading -inf as a flag
    )
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "finite" in err


@pytest.mark.parametrize("answer", ["echo", "no answer"], ids=["parsed", "unparsed"])
def test_reward_non_finite_reference_file_exits_two(tsp_dir, tmp_path, capsys, answer):
    inst_file, ref_file, resp = _echo_reference(tsp_dir, tmp_path, capsys, answer)
    doc = json.loads(ref_file.read_text())
    doc["objective"] = float("nan")
    ref_file.write_text(json.dumps(doc))  # writes the bare token NaN
    code, out, err = run(
        capsys, "reward", "--instance", str(inst_file), "--response", str(resp),
        "--reference", str(ref_file),
    )
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "finite" in err


def test_reward_refuses_a_reference_for_another_instance(tsp_dir, tmp_path, capsys):
    files = _instance_files(tsp_dir)
    ref_file = tmp_path / "ref.json"
    run(capsys, "solve", "--instance", str(files[0]), "--method", "nn",
        "--out", str(ref_file))
    resp = tmp_path / "resp.txt"
    resp.write_text("Route: [0, 1, 0]")
    refused = f"error: reference is for {files[0].stem}, not {files[1].stem}\n"
    code, out, err = run(
        capsys, "verify", "--instance", str(files[1]), "--reference", str(ref_file)
    )
    assert (code, out, err) == (2, "", refused)
    code, out, err = run(
        capsys, "reward", "--instance", str(files[1]), "--response", str(resp),
        "--reference", str(ref_file),
    )
    assert (code, out, err) == (2, "", refused)


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


def _strict_json(text):
    def reject(token):
        raise ValueError(f"not strict JSON: {token}")

    return json.loads(text, parse_constant=reject)


def test_evaluate_report_is_strict_json_against_zero_references(tmp_path, capsys):
    # Greedy MVC on two-node graphs finds covers of size 0, so a worse answer
    # has an infinite gap; the report writes null where it has no finite value.
    insts, refs = tmp_path / "insts", tmp_path / "refs"
    run(capsys, "generate", "--kind", "mvc", "--count", "4", "--size", "2",
        "--graph-family", "er", "--seed", "0", "--out", str(insts))
    code, out, _ = run(capsys, "solve", "--instance", str(insts), "--method", "greedy",
                       "--out", str(refs))
    assert code == 0 and out.count("objective 0 ") == 3
    report_file = tmp_path / "r.json"
    code, out, _ = run(
        capsys, "evaluate", "--instances", str(insts), "--references", str(refs),
        "--mock", "--mock-perturbation", "1", "--n-samples", "1",
        "--report", str(report_file),
    )
    assert code == 0
    payload = _strict_json(report_file.read_text())
    assert _strict_json(out) == payload
    assert payload["mean_gap"] is None and payload["gap_std"] is None
    gaps = [r["gap"] for r in payload["records"]]
    assert None in gaps and all(g is None or g >= 0 for g in gaps)
    assert all(r["feasible"] for r in payload["records"])
    raw = tmp_path / "raw.jsonl"
    run(capsys, "evaluate", "--instances", str(insts), "--references", str(refs),
        "--mock", "--mock-perturbation", "1", "--n-samples", "1", "--out", str(raw))
    code, out, _ = run(capsys, "report", "--records", str(raw), "--instances", str(insts),
                       "--references", str(refs))
    assert code == 0 and _strict_json(out)["mean_gap"] is None


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


def test_report_on_a_shuffled_file_matches_evaluate(tmp_path, capsys):
    # report lists records in --instances order and sums them in an order
    # of their own, so the file's row order changes nothing. Wall times are
    # the stored ones on both sides; only the provenance differs.
    insts, refs = tmp_path / "insts", tmp_path / "refs"
    run(capsys, "generate", "--kind", "tsp", "--count", "8", "--size", "8", "--out", str(insts))
    run(capsys, "solve", "--instance", str(insts), "--method", "nn", "--out", str(refs))
    raw_file, first = tmp_path / "raw.jsonl", tmp_path / "m1.json"
    code, _, _ = run(
        capsys, "evaluate", "--instances", str(insts), "--references", str(refs),
        "--mock", "--n-samples", "2", "--mock-perturbation", "0.5",
        "--out", str(raw_file), "--report", str(first),
    )
    assert code == 0
    lines = raw_file.read_text().splitlines()
    raw_file.write_text("\n".join(lines[3:] + lines[2::-1]) + "\n")
    code, payload = _report(capsys, raw_file, insts, refs)
    assert code == 0
    expected = json.loads(first.read_text())
    assert len({r["gap"] for r in expected["records"]}) > 2  # the sums have work to do
    del expected["provenance"], payload["provenance"]
    assert payload == expected


def test_huge_gaps_report_an_infinite_std_as_null(bench, tmp_path, capsys):
    # Reference objectives are not re-scored, so a tiny one gives gaps near
    # 1e200, whose squared deviations overflow.
    insts, refs = bench
    ref_file = sorted(refs.glob("*.json"))[0]
    ref_file.write_text(json.dumps(dict(json.loads(ref_file.read_text()), objective=1e-200)))
    raw_file = tmp_path / "raw.jsonl"
    argv = ["--instances", str(insts), "--references", str(refs)]
    code, out, _ = run(capsys, "evaluate", *argv, "--mock", "--out", str(raw_file))
    payload = _strict_json(out)
    assert code == 0 and payload["mean_gap"] > 1e199 and payload["gap_std"] is None
    code, out, _ = run(capsys, "report", "--records", str(raw_file), *argv)
    assert code == 0 and _strict_json(out)["gap_std"] is None


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


def test_report_on_a_records_file_naming_an_unknown_instance_is_data_error(
    bench, tmp_path, capsys
):
    insts, refs = bench
    raw_file = tmp_path / "raw.jsonl"
    run(capsys, "evaluate", "--instances", str(insts), "--references", str(refs),
        "--mock", "--out", str(raw_file))
    with raw_file.open("a") as fh:
        fh.write(json.dumps({"instance_id": "tsp-elsewhere", "raw_texts": []}) + "\n")
    code, out, err = run(capsys, "report", "--records", str(raw_file), "--instances",
                         str(insts), "--references", str(refs))
    assert (code, out) == (2, "")
    assert err == "error: records mention unknown instance tsp-elsewhere\n"


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


@pytest.mark.parametrize("command", ["evaluate", "report", "dataset"])
def test_missing_reference_is_refused_in_one_line(bench, tmp_path, capsys, command):
    insts, refs = bench
    raw_file = tmp_path / "raw.jsonl"
    run(capsys, "evaluate", "--instances", str(insts), "--references", str(refs),
        "--mock", "--out", str(raw_file))
    gone = sorted(Path(refs).glob("*.json"))[1]
    gone.unlink()
    out_file = tmp_path / "out.jsonl"
    argv = {
        "evaluate": ["evaluate", "--mock", "--out", str(out_file)],
        "report": ["report", "--records", str(raw_file), "--out", str(out_file)],
        "dataset": ["dataset", "--out", str(out_file)],
    }[command]
    code, out, err = run(
        capsys, *argv, "--instances", str(insts), "--references", str(refs)
    )
    assert (code, out, err) == (2, "", f"error: missing references for: {gone.stem}\n")
    assert not out_file.exists()


@pytest.mark.parametrize(
    "option, value, message",
    [
        ("--retries", "-1", "retries must be >= 0"),
        ("--timeout", "0", "timeout must be finite and > 0"),
        ("--timeout", "-1", "timeout must be finite and > 0"),
        ("--timeout", "nan", "timeout must be finite and > 0"),
    ],
)
def test_evaluate_bad_endpoint_setting_exits_two(bench, capsys, option, value, message):
    insts, refs = bench
    code, out, err = run(
        capsys, "evaluate", "--instances", str(insts), "--references", str(refs),
        "--base-url", "http://127.0.0.1:9/v1", f"{option}={value}",
    )
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_unknown_solution_tag_is_one_line(tsp_dir, tmp_path, capsys):
    inst_file = _instance_files(tsp_dir)[0]
    ref_file = tmp_path / "ref.json"
    run(capsys, "solve", "--instance", str(inst_file), "--method", "nn", "--out", str(ref_file))
    doc = json.loads(ref_file.read_text())
    for tag in (["route"], {"route": 1}, 5, "path"):
        doc["solution"]["type"] = tag
        ref_file.write_text(json.dumps(doc))
        code, out, err = run(
            capsys, "verify", "--instance", str(inst_file), "--reference", str(ref_file)
        )
        assert (code, out) == (2, "")
        assert err == f"error: unknown solution type {tag!r}\n"


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
