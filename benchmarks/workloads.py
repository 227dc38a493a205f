"""The three closed-loop workloads: set-up, timed loop and output checks.

Each workload has a ``setup(seed, work_dir)`` that builds every input from
the seed (timed by the caller as ``setup_s``) and a
``measure(state, seconds, tracer)`` that runs the loop for about ``seconds``
and returns an ``Outcome``. One caller drives each loop and waits for every
reply before it sends the next, so a slower library receives less work.

Every end-to-end metric is reported on every workload; ``NAMED`` maps each
to the name it has on the workload it was chosen for.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import shutil
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Tuple

import numpy as np

from cobench import GenConfig, ProblemKind, check, gen_instance, objective, parse
from cobench import group_advantages, grpo_surrogate, render_prompt, encode, total_reward
from cobench import cli
from cobench.evalharness import EndpointConfig, MockPolicyConfig, evaluate_endpoint
from cobench.evalharness import metrics, mock_policy
from cobench.heuristics import METHODS_BY_KIND, solve
from cobench.problems import (
    GRAPH_KINDS,
    SCHEDULING_KINDS,
    GraphFamily,
    ReferenceSolution,
    Sense,
    instance_to_json,
    save_instance,
    save_reference,
)

from bounds import bound, gap_pct
from echo_server import EchoChatServer
from speed import SpeedScale, array_probe

clock = time.perf_counter

KINDS = tuple(ProblemKind)
# Completions are drawn from the stronger heuristic's solution and rewards
# measured against the weaker one's objective, so that some samples beat
# the reference, as they do in training.
STRONG = {
    ProblemKind.TSP: "fi",
    ProblemKind.OP: "greedy_insertion",
    ProblemKind.CVRP: "savings",
    ProblemKind.MIS: "greedy",
    ProblemKind.MVC: "greedy",
    ProblemKind.PFSP: "neh",
    ProblemKind.JSSP: "fifo",
}
WEAK = {
    ProblemKind.TSP: "nn",
    ProblemKind.OP: "greedy",
    ProblemKind.CVRP: "sweep",
    ProblemKind.MIS: "degree",
    ProblemKind.MVC: "approx",
    ProblemKind.PFSP: "palmer",
    ProblemKind.JSSP: "spt",
}
GROUP_SIZE = 8
KL = 0.01

# The name each end-to-end metric has on the workload it was chosen for.
NAMED = {
    "rl_scoring": {
        "throughput_per_s": "rollouts_per_s",
        "p50_ms": "group_p50_ms",
        "p99_ms": "group_p99_ms",
        "pass_s": "pool_pass_s",
    },
    "reference_build": {
        "throughput_per_s": "instances_referenced_per_s",
        "p50_ms": "instance_p50_ms",
        "p99_ms": "instance_p99_ms",
        "pass_s": "reference_build_s",
        "ref_gap_pct": "aco_shortfall_pct",
    },
    "endpoint_eval": {
        "throughput_per_s": "instances_per_s",
        "p50_ms": "request_p50_ms",
        "p99_ms": "request_p99_ms",
        "pass_s": "cycle_s",
    },
}


@dataclass
class Outcome:
    """What one timed loop measured and whether its outputs were right."""

    metrics: Dict[str, float]
    extra: Dict[str, Tuple[float, str]] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    errors: Counter = field(default_factory=Counter)  # failures per layer
    checks: List[Tuple[str, bool]] = field(default_factory=list)
    output_digest: str = ""

    @property
    def rate(self) -> float:
        return self.metrics["throughput_per_s"]


def _percentiles_ms(samples) -> Tuple[float, float]:
    arr = np.asarray(samples, dtype=float) * 1000.0
    return float(np.percentile(arr, 50)), float(np.percentile(arr, 99))


def _strata(kind: ProblemKind, count: int, top: bool) -> List[Tuple[int, int]]:
    """Size ranges that split the paper's range for ``kind`` into ``count``
    equal strata, so every seed covers small, middle and large sizes."""
    lo, hi = (5, 20) if kind in SCHEDULING_KINDS else (10, 100)
    if top:
        return [(hi, hi)] * count
    edges = np.linspace(lo, hi + 1, count + 1)
    return [(int(a), max(int(a), int(b) - 1)) for a, b in zip(edges[:-1], edges[1:])]


def _graph_params(i: int, per_kind: int) -> dict:
    """Alternate the two graph families and spread each one's density
    parameter over its range, so every seed has the same mix of sparse and
    dense graphs. The density order is shuffled against the size order."""
    per_family = max(1, (per_kind + 1) // 2)
    j = (3 * (i // 2)) % per_family
    if i % 2 == 0:
        lo, hi = GenConfig.er_prob_range
        step = (hi - lo) / per_family
        return {"graph_family": GraphFamily.ER, "er_prob_range": (lo + j * step, lo + (j + 1) * step)}
    lo, hi = GenConfig.ba_attach_range
    m = lo + j % (hi - lo + 1)
    return {"graph_family": GraphFamily.BA, "ba_attach_range": (m, m)}


def make_pool(seed: int, per_kind: int, top: bool = False) -> List[Tuple[ProblemKind, GenConfig]]:
    """Generation configs for ``per_kind`` instances of every kind. Each
    instance has its own generator seed, so instance ids never repeat."""
    return [
        (kind, GenConfig(
            size_range=size,
            seed=seed * 10_000 + k * 1_000 + i,
            **(_graph_params(i, per_kind) if kind in GRAPH_KINDS else {}),
        ))
        for k, kind in enumerate(KINDS)
        for i, size in enumerate(_strata(kind, per_kind, top))
    ]


def _digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(repr(part).encode())
    return h.hexdigest()[:16]


# ---------------------------------------------------------------------------
# rl_scoring: parse -> check -> objective -> total_reward per rollout, then
# group_advantages and grpo_surrogate per group of 8.


@dataclass(frozen=True)
class Group:
    inst: object
    texts: Tuple[str, ...]
    reference: float
    ratios: Tuple[float, ...]
    bound: float


@dataclass
class RlState:
    groups: List[Group]
    digest: str


def setup_rl(seed: int, work: Path) -> RlState:
    mock = MockPolicyConfig(
        format_fail_prob=0.1, infeasible_prob=0.3, perturbation=0.5, seed=seed
    )
    rng = np.random.default_rng(seed)
    groups = []
    for kind, cfg in make_pool(seed, per_kind=64):
        inst = gen_instance(kind, cfg)
        strong = solve(inst, STRONG[kind]).solution
        texts = tuple(mock_policy(inst, strong, mock, d) for d in range(GROUP_SIZE))
        ratios = tuple(float(r) for r in rng.uniform(0.8, 1.2, GROUP_SIZE))
        reference = solve(inst, WEAK[kind]).objective.value
        groups.append(Group(inst, texts, reference, ratios, bound(inst)))
    digest = _digest([(instance_to_json(g.inst), g.texts, g.reference, g.ratios) for g in groups])
    return RlState(groups, digest)


def measure_rl(state: RlState, seconds: float, tracer) -> Outcome:
    out = Outcome(metrics={})
    errors = out.errors
    group_s: List[float] = []  # scaled, every group of every timed pass
    pass_s: List[float] = []  # scaled
    raw_pass_s: List[float] = []
    digests: List[str] = []
    ops = 0
    deadline = math.inf
    while not pass_s or clock() < deadline:  # pass 0 warms up and is not timed
        pass_no = len(digests)
        times = []
        h = hashlib.sha256()
        t_pass = clock()
        for gi, g in enumerate(state.groups):
            tracer.set_request(f"p{pass_no}g{gi}")
            inst, kind = g.inst, g.inst.kind
            t0 = clock()
            rewards = []
            for text in g.texts:
                ops += 1
                reward = 0.0  # a sample whose scoring raises earns nothing
                try:
                    parsed = parse(text, kind)
                except Exception:
                    errors["tai"] += 1
                    rewards.append(reward)
                    continue
                ops += 1
                try:
                    report = check(inst, parsed.solution)
                except Exception:
                    errors["verify"] += 1
                    rewards.append(reward)
                    continue
                value = None
                if report.feasible:
                    ops += 1
                    try:
                        value = objective(inst, parsed.solution).value
                    except Exception:
                        errors["verify"] += 1
                ops += 1
                try:
                    reward = total_reward(kind, report, value, g.reference)
                except Exception:
                    errors["rewards"] += 1
                rewards.append(reward)
            ops += 2
            try:
                adv = group_advantages(rewards)
                surrogate = grpo_surrogate(g.ratios, adv, KL)
            except Exception:
                errors["rewards"] += 1
                adv, surrogate = None, None
            times.append(clock() - t0)
            h.update(repr((rewards, None if adv is None else adv.tolist(), surrogate)).encode())
        elapsed = clock() - t_pass
        digests.append(h.hexdigest()[:16])
        if pass_no == 0:
            speed = SpeedScale()
            deadline = clock() + seconds
        else:
            scale = speed.interval()
            group_s.extend(t * scale for t in times)
            pass_s.append(elapsed * scale)
            raw_pass_s.append(elapsed)
    tracer.set_request(None)

    p50, p99 = _percentiles_ms(group_s)
    median_pass = float(np.median(pass_s))
    out.metrics = {
        "throughput_per_s": len(state.groups) * GROUP_SIZE / median_pass,
        "p50_ms": p50,
        "p99_ms": p99,
        "pass_s": median_pass,
        "ref_gap_pct": float(np.mean([gap_pct(g.inst, g.reference, g.bound) for g in state.groups])),
    }
    out.extra = {
        "groups_timed": (len(group_s), "count"),
        "raw_pass_s": (float(np.median(raw_pass_s)), "s"),
        "probe_ms": (1000.0 * float(np.median(speed.probes)), "ms"),
    }
    out.attempted = ops
    out.failed = sum(errors.values())
    out.output_digest = digests[0]
    out.checks = [("reward digest identical on every pass", len(set(digests)) == 1)]
    return out


# ---------------------------------------------------------------------------
# reference_build: gen_instance, solve with every method, check each result.


@dataclass
class RefState:
    passes: List[List[Tuple[object, object, float]]]  # (config, instance, bound)
    digest: str


REF_DISTINCT_PASSES = 3


def setup_ref(seed: int, work: Path) -> RefState:
    passes = []
    for p in range(REF_DISTINCT_PASSES):
        pool = make_pool(seed * REF_DISTINCT_PASSES + p, per_kind=1, top=True)
        items = []
        for kind, cfg in pool:
            inst = gen_instance(kind, cfg)
            items.append(((kind, cfg), inst, bound(inst)))
        passes.append(items)
    digest = _digest([instance_to_json(i) for items in passes for _, i, _ in items])
    return RefState(passes, digest)


def _aco_shortfall(solved) -> Dict[str, float]:
    """Per kind that ACO solves, the mean ratio of ACO's objective to the
    best objective any other method reached on the same instance (above 1
    when ACO is worse). An instance whose ACO solve, or every other solve,
    failed gives NaN."""
    ratios: Dict[str, List[float]] = {}
    for inst, _, values in solved:
        if "aco" not in METHODS_BY_KIND[inst.kind]:
            continue
        others = [v for m, v in values.items() if m != "aco"]
        aco = values.get("aco", math.nan)
        if not others:
            ratio = math.nan
        elif inst.sense is Sense.MIN:
            ratio = aco / min(others)
        else:
            ratio = max(others) / aco if aco > 0 else math.nan
        ratios.setdefault(inst.kind.value, []).append(ratio)
    return {kind: float(np.mean(r)) for kind, r in ratios.items()}


def measure_ref(state: RefState, seconds: float, tracer) -> Outcome:
    """Whole passes, at least one per distinct instance set, and no pass
    started that would be expected to end past the deadline.

    Quality is scored on the first pass over each distinct set. The gated
    ``ref_gap_pct`` is 100 times the product, over the kinds ACO solves, of
    ACO's mean shortfall against the best other method (``_aco_shortfall``).
    A product moves by the full factor by which any one kind's ACO solutions
    get worse, so one kind's loss of quality is not averaged away."""
    out = Outcome(metrics={})
    errors = out.errors
    pass_s: List[float] = []  # scaled
    raw_pass_s: List[float] = []
    inst_s: List[float] = []  # scaled, every instance of every pass
    solved: List[Tuple[object, float, Dict[str, float]]] = []  # (instance, bound, values)
    ops = 0
    ok_regen = ok_feasible = True
    speed = SpeedScale(array_probe)
    start = clock()
    while len(pass_s) < REF_DISTINCT_PASSES or (
        clock() - start + float(np.median(raw_pass_s)) <= seconds
    ):
        pass_no = len(pass_s)
        scaled = raw = 0.0
        for (kind, cfg), expected, limit in state.passes[pass_no % REF_DISTINCT_PASSES]:
            tracer.set_request(f"p{pass_no}-{expected.id}")
            t0 = clock()
            ops += 1
            try:
                inst = gen_instance(kind, cfg)
            except Exception:
                errors["problems"] += 1
                inst = None
            values: Dict[str, float] = {}
            for method in METHODS_BY_KIND[kind] if inst is not None else ():
                ops += 2
                try:
                    result = solve(inst, method, seed=0)
                except Exception:
                    errors["heuristics"] += 1
                    continue
                try:
                    feasible = check(inst, result.solution).feasible
                except Exception:
                    errors["verify"] += 1
                    continue
                ok_feasible &= feasible
                values[method] = result.objective.value
            elapsed = clock() - t0
            ok_regen &= inst == expected
            if pass_no < REF_DISTINCT_PASSES:
                solved.append((expected, limit, values))
            scale = speed.interval()
            inst_s.append(elapsed * scale)
            scaled += elapsed * scale
            raw += elapsed
        pass_s.append(scaled)
        raw_pass_s.append(raw)
    tracer.set_request(None)

    gaps: Dict[str, List[float]] = {}  # per kind.method, gap to the instance bound
    for inst, limit, values in solved:
        for method, value in values.items():
            gaps.setdefault(f"{inst.kind.value}.{method}", []).append(gap_pct(inst, value, limit))
    shortfall = _aco_shortfall(solved)
    p50, p99 = _percentiles_ms(inst_s)
    median_pass = float(np.median(pass_s))
    out.metrics = {
        "throughput_per_s": len(state.passes[0]) / median_pass,
        "p50_ms": p50,
        "p99_ms": p99,
        "pass_s": median_pass,
        "ref_gap_pct": 100.0 * math.prod(shortfall.values()),
    }
    out.extra = {
        "passes": (len(pass_s), "count"),
        "raw_pass_s": (float(np.median(raw_pass_s)), "s"),
        "probe_ms": (1000.0 * float(np.median(speed.probes)), "ms"),
    }
    for kind, ratio in shortfall.items():
        out.extra[f"aco_vs_best_other.{kind}"] = (100.0 * ratio, "%")
    for name, g in gaps.items():
        out.extra[f"gap_to_bound.{name}"] = (float(np.mean(g)), "%")
    out.attempted = ops
    out.failed = sum(errors.values())
    out.output_digest = _digest([(i.id, sorted(v.items())) for i, _, v in solved])
    out.checks = [
        ("gen_instance regenerates the set-up instance", ok_regen),
        ("every reference solution passes check", ok_feasible),
    ]
    return out


# ---------------------------------------------------------------------------
# endpoint_eval: evaluate_endpoint against the echo server, fresh and then
# resumed from its JSONL file, then `cobench report` on the same file.

N_SAMPLES = 4
MAX_PARALLEL = 2
# The interpreter hands the lock between threads every 5 ms by default, so
# request latencies come in 5 ms steps and a percentile jumps a whole step
# from run to run. A shorter interval makes latency a smooth quantity.
SWITCH_INTERVAL_S = 0.0005


@dataclass
class EndpointState:
    instances: list
    references: Dict[str, ReferenceSolution]
    replies: Dict[str, List[str]]
    bounds: Dict[str, float]
    work: Path
    digest: str


def setup_endpoint(seed: int, work: Path) -> EndpointState:
    mock = MockPolicyConfig(
        format_fail_prob=0.1, infeasible_prob=0.3, perturbation=0.5, seed=seed
    )
    work = work / "endpoint"
    shutil.rmtree(work, ignore_errors=True)
    (work / "instances").mkdir(parents=True)
    (work / "references").mkdir()
    instances, references, replies, bounds = [], {}, {}, {}
    for kind, cfg in make_pool(seed, per_kind=30):
        inst = gen_instance(kind, cfg)
        result = solve(inst, STRONG[kind])
        ref = ReferenceSolution(
            instance_id=inst.id,
            solution=result.solution,
            objective=result.objective.value,
            source=f"heuristic:{STRONG[kind]}",
        )
        draws = [mock_policy(inst, result.solution, mock, d) for d in range(N_SAMPLES)]
        replies[render_prompt(encode(inst))] = draws
        save_instance(inst, work / "instances" / f"{inst.id}.json")
        save_reference(ref, work / "references" / f"{inst.id}.json")
        instances.append(inst)
        references[inst.id] = ref
        bounds[inst.id] = bound(inst)
    digest = _digest(
        [(instance_to_json(i), references[i.id].objective) for i in instances],
        sorted(replies.items()),
    )
    return EndpointState(instances, references, replies, bounds, work, digest)


def _comparable(summary: dict) -> dict:
    """A metrics summary without wall times, which differ between a fresh
    run (measured), a resumed one (none) and a report (as stored)."""
    return {
        k: _comparable(v) if isinstance(v, dict) else v
        for k, v in summary.items()
        if k not in ("mean_wall_time", "records", "provenance")
    }


def measure_endpoint(state: EndpointState, seconds: float, tracer) -> Outcome:
    out = Outcome(metrics={})
    errors = out.errors
    n = len(state.instances)
    ids = {i.id for i in state.instances}
    fresh_s: List[float] = []
    resume_s: List[float] = []
    report_s: List[float] = []
    request_s: List[float] = []
    raw_fresh_s: List[float] = []
    summaries = set()
    ok_rows = ok_no_requests = ok_summaries = True
    ops = 0
    records_path = state.work / "responses.jsonl"
    report_argv = [
        "report",
        "--records", str(records_path),
        "--instances", str(state.work / "instances"),
        "--references", str(state.work / "references"),
    ]
    switch_interval = sys.getswitchinterval()
    with contextlib.ExitStack() as stack:
        sys.setswitchinterval(SWITCH_INTERVAL_S)
        stack.callback(sys.setswitchinterval, switch_interval)
        server = stack.enter_context(EchoChatServer(state.replies))
        cfg = EndpointConfig(
            base_url=server.url,
            model_name="echo",
            n_samples=N_SAMPLES,
            max_parallel=MAX_PARALLEL,
            timeout=30.0,
        )
        # The first cycle warms up and is not timed. The loop ends on the
        # deadline whether or not any cycle succeeded.
        speed = SpeedScale()
        deadline = clock() + seconds
        cycles = 0
        while cycles < 2 or clock() < deadline:
            cycles += 1
            records_path.unlink(missing_ok=True)
            ops += 2 * n + 1
            try:
                t0 = clock()
                fresh = evaluate_endpoint(state.instances, state.references, cfg, records_path)
                t1 = clock()
                requests_before = server.requests
                resumed = evaluate_endpoint(state.instances, state.references, cfg, records_path)
                t2 = clock()
            except Exception:
                errors["evalharness"] += 2 * n
                continue
            buf = io.StringIO()
            try:
                with contextlib.redirect_stdout(buf):
                    code = cli.main(report_argv)
            except Exception:
                code = -1
            t3 = clock()
            scale = speed.interval()  # all times scaled to the reference speed
            if cycles > 1:
                fresh_s.append((t1 - t0) * scale)
                resume_s.append((t2 - t1) * scale)
                report_s.append((t3 - t2) * scale)
                request_s.extend(r.wall_time * scale for r in fresh)
                raw_fresh_s.append(t1 - t0)
            if code != 0:
                errors["cli"] += 1
            missing = sum(1 for r in fresh + resumed if not r.candidates)
            if missing:
                errors["evalharness"] += missing

            rows = [json.loads(line) for line in records_path.read_text().splitlines() if line]
            ok_rows &= {r["instance_id"] for r in rows} == ids and len(rows) == n
            ok_rows &= all(len(r["raw_texts"]) == N_SAMPLES for r in rows)
            ok_no_requests &= server.requests == requests_before
            views = [_comparable(metrics(fresh).to_dict()), _comparable(metrics(resumed).to_dict())]
            if code == 0:
                views.append(_comparable(json.loads(buf.getvalue())))
            ok_summaries &= code == 0 and all(v == views[0] for v in views)
            summaries.add(json.dumps(views[0], sort_keys=True))
        server_busy_s = server.busy_s

    timed = bool(fresh_s)
    cycles_timed, requests_timed = len(fresh_s), len(request_s)
    if not timed:  # every cycle raised: no figure, and the run fails
        fresh_s = resume_s = report_s = raw_fresh_s = request_s = [math.nan]
    p50, p99 = _percentiles_ms(request_s)
    cycle_s = [f + r + p for f, r, p in zip(fresh_s, resume_s, report_s)]
    out.metrics = {
        "throughput_per_s": n / float(np.median(fresh_s)),
        "p50_ms": p50,
        "p99_ms": p99,
        "pass_s": float(np.median(cycle_s)),
        "ref_gap_pct": float(np.mean([
            gap_pct(i, state.references[i.id].objective, state.bounds[i.id])
            for i in state.instances
        ])),
    }
    out.extra = {
        "resume_instances_per_s": (n / float(np.median(resume_s)), "1/s"),
        "report_s": (float(np.median(report_s)), "s"),
        "cycles_timed": (cycles_timed, "count"),
        "requests_timed": (requests_timed, "count"),
        "raw_instances_per_s": (n / float(np.median(raw_fresh_s)), "1/s"),
        "probe_ms": (1000.0 * float(np.median(speed.probes)), "ms"),
        "server_busy_s": (server_busy_s, "s"),
    }
    out.attempted = ops
    out.failed = sum(errors.values())
    out.output_digest = _digest(sorted(summaries))
    out.checks = [
        ("at least one timed cycle completed", timed),
        ("every instance gets one row with every sample", ok_rows),
        ("the resumed run sends no request", ok_no_requests),
        ("fresh, resumed and report summaries agree", ok_summaries and len(summaries) == 1),
    ]
    return out


WORKLOADS = {
    "rl_scoring": (setup_rl, measure_rl),
    "reference_build": (setup_ref, measure_ref),
    "endpoint_eval": (setup_endpoint, measure_endpoint),
}
