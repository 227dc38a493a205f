"""Acceptance suite: nine release criteria, one pass/fail line each.

Each test prints "[criterion N] <label>: PASS|FAIL" on the real stdout so the
lines survive pytest's capture, then asserts. Criteria with a runtime budget
fold the elapsed time into the pass condition.

Run with `pytest tests/test_acceptance.py` (add -q for just the nine lines).
"""

import json
import math
import random
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import numpy as np

import oracles
from conftest import ALL_KINDS, DEFAULT_METHOD, make_instance, reference_solution

from cobench.evalharness import (
    EndpointConfig,
    MockPolicyConfig,
    build_record,
    evaluate_endpoint,
    metrics,
    mock_policy,
    solution_gap,
)
from cobench.heuristics import METHODS_BY_KIND, AcoConfig, aco_solve, brute_force, solve
from cobench.heuristics.routing import distance_matrix, two_opt
from cobench.problems.generate import nearest_neighbor_tour
from cobench.problems.io import ReferenceSolution
from cobench.problems.types import (
    GraphInstance,
    Instance,
    JobOrder,
    MachineSchedules,
    ProblemKind,
    Route,
    RouteSet,
    VertexSet,
)
from cobench.rewards import (
    REWARD_WEIGHTS,
    RewardConfig,
    feasibility_reward,
    group_advantages,
    grpo_surrogate,
    total_reward,
)
from cobench.tai import encode, parse, render_prompt
from cobench.tai.render import format_solution
from cobench.verify import check, objective


def _report(capsys, num, label, ok, detail=""):
    with capsys.disabled():
        line = f"[criterion {num}] {label}: {'PASS' if ok else 'FAIL'}"
        if detail:
            line += f"  ({detail})"
        print(line, flush=True)
    assert ok, f"criterion {num} ({label}): {detail}"


# ---------------------------------------------------------------------------
# Criterion 1: worked-example golden outputs


# The worked examples shipped with the problem descriptions: the two graph
# examples with their edge lists (small enough to prove optimality), and the
# published output line for every kind (must parse and round-trip).
_MIS_EDGES = ((0, 9), (1, 2), (1, 3), (1, 6), (2, 6), (3, 4), (4, 5), (5, 9), (6, 9), (1, 9))
_MIS_OUTPUT = "Set: [0, 2, 3, 5, 7, 8], Objective: 6"

_MVC_EDGES = (
    (0, 1), (0, 2), (0, 3), (0, 4), (0, 5), (0, 6), (0, 8), (0, 9), (0, 10),
    (1, 3), (1, 4), (2, 7), (3, 5), (3, 8), (3, 9), (4, 6), (5, 7), (5, 10),
)
_MVC_OUTPUT = "Set: [0, 3, 4, 5, 7], Objective: 5"

_GOLDEN_OUTPUTS = {
    ProblemKind.TSP: (
        "Route: [0, 27, 57, 60, 63, 26, 56, 17, 25, 40, 59, 44, 31, 67, 77, 70, "
        "52, 75, 6, 58, 35, 38, 14, 10, 15, 24, 65, 39, 61, 18, 41, 72, 54, 55, "
        "7, 2, 49, 28, 74, 29, 66, 62, 11, 42, 30, 9, 71, 48, 73, 19, 47, 46, 1, "
        "43, 37, 78, 4, 68, 12, 53, 79, 22, 80, 51, 23, 8, 32, 13, 76, 20, 64, "
        "50, 45, 33, 36, 3, 21, 5, 16, 34, 69, 0], Objective: 6833.347"
    ),
    ProblemKind.OP: (
        "Route: [0, 2, 6, 8, 11, 19, 22, 18, 16, 14, 10, 13, 12, 9, 1, 5], "
        "Objective: 98.00"
    ),
    ProblemKind.CVRP: (
        "Routes: [[0, 6, 35, 1, 15, 17, 12, 7, 10, 3, 8, 27, 45, 9, 28, 23, 2, "
        "32, 39, 41, 0], [0, 5, 37, 19, 22, 21, 40, 4, 20, 24, 25, 0], [0, 43, "
        "44, 29, 26, 42, 38, 34, 11, 16, 13, 33, 31, 30, 36, 18, 14, 0]], "
        "Objective: 6643.76"
    ),
    ProblemKind.MIS: _MIS_OUTPUT,
    ProblemKind.MVC: _MVC_OUTPUT,
    ProblemKind.PFSP: "Order: [6, 1, 2, 5, 3, 4], Objective: 471",
    ProblemKind.JSSP: (
        "Schedule: [[2, 0, 5, 1, 3, 4], [2, 4, 1, 3, 0, 5], [0, 2, 3, 1, 4, 5], "
        "[1, 2, 5, 0, 4, 3], [1, 0, 5, 3, 4, 2], [5, 2, 4, 3, 1, 0]], "
        "Objective: 466"
    ),
}


def _graph_example(kind, num_nodes, edges):
    norm = tuple(sorted((min(u, v), max(u, v)) for u, v in edges))
    return Instance(kind=kind, payload=GraphInstance(num_nodes, norm), id=f"golden-{kind.value}")


def test_criterion_1_worked_example_goldens(capsys):
    t0 = time.perf_counter()
    problems = []

    # Graph examples: parse the published set, verify it, prove it optimal.
    for kind, n, edges, text, opt in (
        (ProblemKind.MIS, 10, _MIS_EDGES, _MIS_OUTPUT, 6),
        (ProblemKind.MVC, 11, _MVC_EDGES, _MVC_OUTPUT, 5),
    ):
        inst = _graph_example(kind, n, edges)
        parsed = parse(text, kind)
        if not parsed.format_ok:
            problems.append(f"{kind.value} golden did not parse")
            continue
        report = check(inst, parsed.solution)
        if not report.feasible:
            problems.append(f"{kind.value} golden infeasible: {report.constraints}")
            continue
        val = objective(inst, parsed.solution).value
        if val != opt:
            problems.append(f"{kind.value} golden objective {val} != {opt}")
        _, best = brute_force(inst)
        if best.value != opt:
            problems.append(f"{kind.value} exact optimum {best.value} != {opt}")

    # Every golden output parses and round-trips through the formatter.
    for kind, text in _GOLDEN_OUTPUTS.items():
        parsed = parse(text, kind)
        if not parsed.format_ok or parsed.solution is None:
            problems.append(f"{kind.value} golden did not parse")
            continue
        rendered = format_solution(kind, parsed.solution, parsed.stated_objective)
        again = parse(rendered, kind)
        if again.solution != parsed.solution:
            problems.append(f"{kind.value} golden did not round-trip")
        if parsed.stated_objective is None:
            problems.append(f"{kind.value} golden lost its stated objective")

    elapsed = time.perf_counter() - t0
    ok = not problems and elapsed < 1.0
    detail = "; ".join(problems) if problems else f"{elapsed:.3f}s"
    _report(capsys, 1, "worked example goldens", ok, detail)


# ---------------------------------------------------------------------------
# Criterion 2: verifier agrees with an independent oracle


def _random_solution(rnd, inst, ref_sol):
    """A candidate that may be feasible, subtly broken, or structurally wild."""
    kind = inst.kind
    p = inst.payload
    style = rnd.randrange(4)
    if style == 0:
        return ref_sol
    if style == 1:  # mutate the reference a little
        if kind in (ProblemKind.TSP, ProblemKind.OP):
            nodes = list(ref_sol.nodes)
            op = rnd.randrange(3)
            if op == 0 and len(nodes) > 2:
                i, j = rnd.sample(range(len(nodes)), 2)
                nodes[i], nodes[j] = nodes[j], nodes[i]
            elif op == 1 and len(nodes) > 2:
                del nodes[rnd.randrange(len(nodes))]
            else:
                nodes.insert(rnd.randrange(len(nodes) + 1), rnd.randrange(p.n))
            return Route(tuple(nodes))
        if kind is ProblemKind.CVRP:
            routes = [list(r) for r in ref_sol.routes]
            r = routes[rnd.randrange(len(routes))]
            if rnd.random() < 0.5 and len(r) > 2:
                del r[rnd.randrange(1, len(r) - 1)]
            else:
                r.insert(rnd.randrange(1, max(2, len(r))), rnd.randrange(p.n))
            return RouteSet(tuple(tuple(r) for r in routes))
        if kind in (ProblemKind.MIS, ProblemKind.MVC):
            ids = set(ref_sol.vertices)
            v = rnd.randrange(p.num_nodes)
            ids.symmetric_difference_update({v})
            return VertexSet(frozenset(ids))
        if kind is ProblemKind.PFSP:
            jobs = list(ref_sol.jobs)
            if len(jobs) > 1:
                i, j = rnd.sample(range(len(jobs)), 2)
                jobs[i], jobs[j] = jobs[j], jobs[i]
            if rnd.random() < 0.3:
                jobs[0] = jobs[-1]
            return JobOrder(tuple(jobs))
        seqs = [list(s) for s in ref_sol.sequences]
        s = seqs[rnd.randrange(len(seqs))]
        if len(s) > 1:
            i, j = rnd.sample(range(len(s)), 2)
            s[i], s[j] = s[j], s[i]
        return MachineSchedules(tuple(tuple(q) for q in seqs))
    if style == 2:  # random structure of the right shape
        if kind in (ProblemKind.TSP, ProblemKind.OP):
            length = rnd.randint(1, p.n + 2)
            return Route(tuple(rnd.randrange(-1, p.n + 1) for _ in range(length)))
        if kind is ProblemKind.CVRP:
            custs = list(range(1, p.n))
            rnd.shuffle(custs)
            if custs and rnd.random() < 0.4:
                custs.pop()
            k = rnd.randint(1, max(1, min(3, len(custs))))
            chunks = [custs[i::k] for i in range(k)]
            return RouteSet(tuple(tuple([0] + c + [0]) for c in chunks if c) or ((0, 0),))
        if kind in (ProblemKind.MIS, ProblemKind.MVC):
            size = rnd.randint(0, p.num_nodes)
            return VertexSet.of(rnd.sample(range(p.num_nodes), size))
        if kind is ProblemKind.PFSP:
            length = rnd.randint(1, p.num_jobs + 1)
            return JobOrder(tuple(rnd.randrange(-1, p.num_jobs + 1) for _ in range(length)))
        rows = rnd.randint(1, p.num_machines + 1)
        return MachineSchedules(
            tuple(
                tuple(rnd.randrange(p.num_jobs) for _ in range(rnd.randint(1, p.num_jobs)))
                for _ in range(rows)
            )
        )
    # style == 3: full random permutations (valid shape, arbitrary order)
    if kind in (ProblemKind.TSP, ProblemKind.OP):
        perm = list(range(p.n))
        rnd.shuffle(perm)
        if kind is ProblemKind.TSP:
            return Route(tuple(perm + [perm[0]]))
        keep = perm[: rnd.randint(1, p.n)]
        return Route(tuple([0] + [v for v in keep if v != 0]))
    if kind is ProblemKind.CVRP:
        custs = list(range(1, p.n))
        rnd.shuffle(custs)
        half = max(1, len(custs) // 2)
        return RouteSet(tuple(tuple([0] + c + [0]) for c in (custs[:half], custs[half:]) if c))
    if kind in (ProblemKind.MIS, ProblemKind.MVC):
        return VertexSet.of([i for i in range(p.num_nodes) if rnd.random() < 0.5])
    if kind is ProblemKind.PFSP:
        jobs = list(range(p.num_jobs))
        rnd.shuffle(jobs)
        return JobOrder(tuple(jobs))
    seqs = []
    for _ in range(p.num_machines):
        s = list(range(p.num_jobs))
        rnd.shuffle(s)
        seqs.append(tuple(s))
    return MachineSchedules(tuple(seqs))


def test_criterion_2_verifier_oracle_equivalence(capsys):
    t0 = time.perf_counter()
    sizes = {
        ProblemKind.TSP: (5, 10),
        ProblemKind.OP: (5, 9),
        ProblemKind.CVRP: (5, 8),
        ProblemKind.MIS: (5, 16),
        ProblemKind.MVC: (5, 16),
        ProblemKind.PFSP: (3, 6),
        ProblemKind.JSSP: (3, 5),
    }
    mismatches = []
    pairs = 0
    for kind in ALL_KINDS:
        rnd = random.Random(f"acceptance-2-{kind.value}")
        lo, hi = sizes[kind]
        for i in range(50):
            inst = make_instance(kind, seed=3000 + i, size_range=(lo, hi))
            ref_sol, _ = reference_solution(inst)
            for _ in range(20):
                sol = _random_solution(rnd, inst, ref_sol)
                pairs += 1
                got = check(inst, sol).feasible
                want = oracles.feasible(inst, sol)
                if got != want:
                    mismatches.append((inst.id, sol, got, want))
    elapsed = time.perf_counter() - t0
    ok = not mismatches and pairs == 7000 and elapsed < 120.0
    detail = (
        f"{len(mismatches)} mismatches, first: {mismatches[0]}"
        if mismatches
        else f"{pairs} pairs, {elapsed:.1f}s"
    )
    _report(capsys, 2, "verifier-oracle equivalence", ok, detail)


# ---------------------------------------------------------------------------
# Criterion 3: every heuristic is feasible on every instance


def test_criterion_3_heuristic_feasibility(capsys):
    t0 = time.perf_counter()
    sizes = {
        ProblemKind.TSP: (10, 15),
        ProblemKind.OP: (10, 15),
        ProblemKind.CVRP: (8, 12),
        ProblemKind.MIS: (10, 30),
        ProblemKind.MVC: (10, 30),
        ProblemKind.PFSP: (5, 8),
        ProblemKind.JSSP: (3, 6),
    }
    failures = []
    runs = 0
    for kind in ALL_KINDS:
        insts = [
            make_instance(kind, seed=20_000 + i, size_range=sizes[kind])
            for i in range(500)
        ]
        for method in METHODS_BY_KIND[kind]:
            for i, inst in enumerate(insts):
                if method == "aco":  # reduced config to stay inside the budget
                    sol = aco_solve(inst, AcoConfig(ants=20, iterations=50, seed=i))
                else:
                    sol = solve(inst, method, seed=i).solution  # seed unused if unseeded
                runs += 1
                report = check(inst, sol)
                if not report.feasible:
                    failures.append((kind.value, method, inst.id, report.constraints))
    elapsed = time.perf_counter() - t0
    ok = not failures and elapsed < 300.0
    detail = (
        f"{len(failures)} infeasible, first: {failures[0]}"
        if failures
        else f"{runs} runs over {sum(len(METHODS_BY_KIND[k]) for k in ALL_KINDS)} (kind, method) pairs, {elapsed:.1f}s"
    )
    _report(capsys, 3, "heuristic feasibility", ok, detail)


# ---------------------------------------------------------------------------
# Criterion 4: quality orderings against exact/best-known references


def _tsp_reference(inst):
    """Optimal below the exact-search cap, else a multistart 2-opt envelope."""
    p = inst.payload
    if p.n <= 11:
        return brute_force(inst)[1].value
    d = distance_matrix(p.coords)
    best = solve(inst, "fi").objective.value
    for s in range(0, p.n, max(1, p.n // 8)):
        tour = two_opt(d, nearest_neighbor_tour(d, s) + [s])
        best = min(best, float(sum(d[tour[k], tour[k + 1]] for k in range(len(tour) - 1))))
    return best


def test_criterion_4_quality_orderings(capsys):
    comparisons = (
        # (kind, size band, better method, worse method, reference)
        (ProblemKind.TSP, (10, 30), "fi", "nn", _tsp_reference),
        (ProblemKind.PFSP, (5, 8), "neh", "palmer", lambda i: brute_force(i)[1].value),
        (ProblemKind.MIS, (10, 24), "greedy", "degree", lambda i: brute_force(i)[1].value),
        (ProblemKind.MVC, (10, 24), "greedy", "approx", lambda i: brute_force(i)[1].value),
    )
    lines = []
    ok = True
    for kind, band, better, worse, ref_fn in comparisons:
        gaps_better, gaps_worse = [], []
        for i in range(100):
            inst = make_instance(kind, seed=10_000 + i, size_range=band)
            ref = ref_fn(inst)
            sense = inst.sense
            gaps_better.append(solution_gap(sense, solve(inst, better).objective.value, ref))
            gaps_worse.append(solution_gap(sense, solve(inst, worse).objective.value, ref))
        mb = float(np.mean(gaps_better))
        mw = float(np.mean(gaps_worse))
        holds = mb <= 0.5 * mw and mw > 0.0
        ok = ok and holds
        lines.append(f"{kind.value} {better}={mb * 100:.2f}% {worse}={mw * 100:.2f}%")
    _report(capsys, 4, "heuristic quality orderings", ok, "; ".join(lines))


# ---------------------------------------------------------------------------
# Criterion 5: reward tables and worked reward examples


_EXPECTED_WEIGHTS = {
    ProblemKind.TSP: (0.2, 0.5, 0.3),
    ProblemKind.OP: (0.2, 0.1, 0.2, 0.5),
    ProblemKind.CVRP: (0.2, 0.1, 0.1, 0.6),
    ProblemKind.MIS: (0.2, 0.8),
    ProblemKind.MVC: (0.2, 0.8),
    ProblemKind.PFSP: (0.2, 0.8),
    ProblemKind.JSSP: (0.2, 0.2, 0.2, 0.4),
}


def test_criterion_5_reward_tables_and_examples(capsys):
    problems = []
    if dict(REWARD_WEIGHTS) != _EXPECTED_WEIGHTS:
        problems.append("weight table mismatch")

    cfg = RewardConfig()

    # Zero branches: a failed parse zeroes the whole reward; a degenerate
    # group zeroes every advantage.
    inst = make_instance(ProblemKind.TSP, size=7, seed=1)
    sol, _ = brute_force(inst)
    report = check(inst, sol)
    bad = report.__class__(zeta=False, constraints=report.constraints, margins=report.margins)
    if feasibility_reward(ProblemKind.TSP, bad) != 0.0:
        problems.append("zeta gate did not zero the feasibility reward")
    if total_reward(ProblemKind.TSP, bad, 1.0, 1.0, cfg) != 0.0:
        problems.append("zeta gate did not zero the total reward")
    if group_advantages(np.array([0.7, 0.7, 0.7, 0.7])).any():
        problems.append("degenerate group did not zero advantages")

    # Perfect answer on a TSP instance: full feasibility credit plus an
    # optimality ratio of exactly 1 sums to 2.0.
    value = objective(inst, sol).value
    total = total_reward(ProblemKind.TSP, report, value, value, cfg)
    if abs(total - 2.0) > 1e-12:
        problems.append(f"perfect total {total} != 2.0")

    adv = group_advantages(np.array([1.8, 1.0, 0.2, 1.0]))
    want = np.array([1.4142, 0.0, -1.4142, 0.0])
    if not np.allclose(adv, want, atol=1e-4):
        problems.append(f"advantages {adv} != {want}")

    _report(capsys, 5, "reward tables and worked examples", not problems, "; ".join(problems))


# ---------------------------------------------------------------------------
# Criterion 6: surrogate objective matches exact arithmetic


def test_criterion_6_surrogate_symbolic_match(capsys):
    cfg = RewardConfig()
    rnd = random.Random("acceptance-6")
    worst = 0.0
    for _ in range(50):
        size = rnd.randint(2, 8)
        ratios = [rnd.uniform(0.05, 2.5) for _ in range(size)]
        advantages = [rnd.uniform(-2.0, 2.0) for _ in range(size)]
        kl = rnd.uniform(0.0, 1.0)
        got = grpo_surrogate(np.array(ratios), np.array(advantages), kl, cfg)
        want = float(oracles.grpo_surrogate_exact(ratios, advantages, kl))
        worst = max(worst, abs(got - want))
    ok = worst < 1e-10

    # Clip boundaries: the objective is linear in r inside [1-eps, 1+eps] and
    # frozen outside, on the side the clip protects.
    eps = cfg.epsilon_clip
    one = np.ones(1)
    at_hi = grpo_surrogate(np.array([1 + eps]), one, 0.0, cfg)
    beyond_hi = grpo_surrogate(np.array([1 + eps + 0.7]), one, 0.0, cfg)
    at_lo = grpo_surrogate(np.array([1 - eps]), -one, 0.0, cfg)
    beyond_lo = grpo_surrogate(np.array([1 - eps - 0.05]), -one, 0.0, cfg)
    inside = grpo_surrogate(np.array([1.04]), one, 0.0, cfg)
    clip_ok = (
        math.isclose(at_hi, 1 + eps, rel_tol=0, abs_tol=1e-12)
        and math.isclose(beyond_hi, 1 + eps, rel_tol=0, abs_tol=1e-12)
        and math.isclose(at_lo, -(1 - eps), rel_tol=0, abs_tol=1e-12)
        and math.isclose(beyond_lo, -(1 - eps), rel_tol=0, abs_tol=1e-12)
        and math.isclose(inside, 1.04, rel_tol=0, abs_tol=1e-12)
    )
    ok = ok and clip_ok
    _report(
        capsys, 6, "policy surrogate symbolic match", ok,
        f"max |err| {worst:.2e} over 50 tuples; clip {'ok' if clip_ok else 'WRONG'}",
    )


# ---------------------------------------------------------------------------
# Criterion 7: Best-of-N monotonicity on the mock policy


_C7_SIZES = {
    ProblemKind.TSP: 10,
    ProblemKind.OP: 10,
    ProblemKind.CVRP: 8,
    ProblemKind.MIS: 14,
    ProblemKind.MVC: 14,
    ProblemKind.PFSP: 5,
    ProblemKind.JSSP: 4,
}


def _mock_records(count, cfg, seed0):
    records = []
    for i in range(count):
        kind = ALL_KINDS[i % len(ALL_KINDS)]
        inst = make_instance(kind, size=_C7_SIZES[kind], seed=seed0 + i)
        ref_sol, ref_val = reference_solution(inst)
        texts = [mock_policy(inst, ref_sol, cfg, draw=d) for d in range(8)]
        records.append(build_record(inst, texts, ref_val))
    return records


def _curves(records, ns=(1, 2, 4, 8)):
    feas, gaps = [], []
    for n in ns:
        prefs = [r.prefix(n) for r in records]
        feas.append(sum(1 for p in prefs if p.selected_index is not None) / len(prefs))
        sel = [p.gap for p in prefs if p.gap is not None]
        gaps.append(sum(sel) / len(sel) if sel else None)
    return feas, gaps


def test_criterion_7_bon_monotonicity(capsys):
    t0 = time.perf_counter()
    records = _mock_records(200, MockPolicyConfig(infeasible_prob=0.3, seed=11), 60_000)
    feas, gaps = _curves(records)
    feas_ok = all(feas[i] <= feas[i + 1] + 1e-12 for i in range(3))
    gaps_known = [g for g in gaps if g is not None]
    gap_ok = all(gaps[i] >= gaps[i + 1] - 1e-12 for i in range(3) if gaps[i] is not None and gaps[i + 1] is not None)
    improved = feas[-1] > feas[0]

    # Same trend with degraded-but-feasible samples in the mix, so the gap
    # axis is exercised with nonzero values. Pointwise, a longer prefix can
    # only improve a record, so restrict to records scored at every N.
    noisy = _mock_records(200, MockPolicyConfig(infeasible_prob=0.3, perturbation=0.6, seed=12), 61_000)
    always = [r for r in noisy if all(r.prefix(n).gap is not None for n in (1, 2, 4, 8))]
    noisy_means = []
    for n in (1, 2, 4, 8):
        vals = [r.prefix(n).gap for r in always]
        noisy_means.append(sum(vals) / len(vals))
    noisy_ok = (
        all(noisy_means[i] >= noisy_means[i + 1] - 1e-12 for i in range(3))
        and noisy_means[-1] < noisy_means[0]
        and noisy_means[0] > 0.0
    )

    elapsed = time.perf_counter() - t0
    ok = feas_ok and gap_ok and improved and noisy_ok and len(gaps_known) == 4 and elapsed < 60.0
    detail = (
        f"M_f {['%.3f' % f for f in feas]}, gap {['%.4f' % g for g in gaps_known]}, "
        f"noisy gap {['%.4f' % g for g in noisy_means]}, {elapsed:.1f}s"
    )
    _report(capsys, 7, "best-of-n monotonicity", ok, detail)


# ---------------------------------------------------------------------------
# Criterion 8: end-to-end evaluation against an echo endpoint


class _EchoHandler(BaseHTTPRequestHandler):
    answers = {}

    def do_POST(self):
        body = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
        prompt = body["messages"][-1]["content"]
        n = int(body.get("n", 1))
        text = self.answers.get(prompt, "no idea")
        payload = json.dumps(
            {"choices": [{"message": {"content": text}} for _ in range(n)]}
        ).encode()
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)

    def log_message(self, *args):  # keep pytest output clean
        pass


def test_criterion_8_mock_endpoint_end_to_end(capsys):
    counts = {kind: 15 if i < 2 else 14 for i, kind in enumerate(ALL_KINDS)}
    sizes = dict(_C7_SIZES)
    instances, refs, answers = [], {}, {}
    for kind in ALL_KINDS:
        for i in range(counts[kind]):
            inst = make_instance(kind, size=sizes[kind], seed=70_000 + len(instances))
            sol, val = reference_solution(inst)
            instances.append(inst)
            refs[inst.id] = ReferenceSolution(
                instance_id=inst.id, solution=sol, objective=val,
                source=f"heuristic:{DEFAULT_METHOD[kind]}",
            )
            answers[render_prompt(encode(inst))] = format_solution(kind, sol, val)
    assert len(instances) == 100

    handler = type("Handler", (_EchoHandler,), {"answers": answers})
    server = ThreadingHTTPServer(("127.0.0.1", 0), handler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        cfg = EndpointConfig(
            base_url=f"http://127.0.0.1:{server.server_address[1]}/v1",
            model_name="echo",
            n_samples=1,
            max_parallel=8,
            retries=1,
        )
        records = evaluate_endpoint(instances, refs, cfg)
    finally:
        server.shutdown()
        server.server_close()
        thread.join()

    summary = metrics(records)
    rendered = summary.to_dict()
    ok = (
        len(records) == 100
        and summary.feasibility_rate == 1.0
        and summary.mean_gap == 0.0
        and rendered["gap_at_k"] == {"1": 1.0, "5": 1.0, "10": 1.0}
    )
    detail = (
        f"M_f={summary.feasibility_rate:.0%}, mean gap={summary.mean_gap}, "
        f"Gap@K={rendered['gap_at_k']}"
    )
    _report(capsys, 8, "mock endpoint end-to-end", ok, detail)


# ---------------------------------------------------------------------------
# Criterion 9: the parser survives arbitrary bytes


def test_criterion_9_parser_fuzz(capsys):
    rnd = random.Random(20260815)
    crashes = 0
    accepted = 0
    for i in range(10_000):
        blob = rnd.randbytes(rnd.randint(0, 300))
        text = blob.decode("latin-1")
        kind = ALL_KINDS[i % len(ALL_KINDS)]
        try:
            parsed = parse(text, kind)
        except Exception:  # the criterion: parse must be total
            crashes += 1
            continue
        if parsed.format_ok:
            accepted += 1
    ok = crashes == 0 and accepted == 0
    _report(
        capsys, 9, "parser fuzz", ok,
        f"10000 strings, {crashes} crashes, {accepted} spurious parses",
    )
