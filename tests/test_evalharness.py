"""Evaluation harness tests: candidates, Best-of-N, metrics, the mock policy,
the SFT exporter, and a live HTTP round trip against a local echo server."""

import dataclasses
import importlib
import json
import os
import signal
import socket
import subprocess
import sys
import threading
import time
import urllib.request
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cobench import verify
from cobench.evalharness import endpoint
from cobench.evalharness import (
    Candidate,
    EndpointConfig,
    EvalRecord,
    MockPolicyConfig,
    bon_select,
    build_candidate,
    build_record,
    evaluate,
    evaluate_endpoint,
    export_sft,
    metrics,
    mock_policy,
    request_samples,
    sft_records,
    size_tier,
    solution_gap,
)
from cobench.problems.io import ReferenceSolution, save_instance, save_reference
from cobench.problems.types import (
    GraphInstance,
    Instance,
    ProblemKind,
    Route,
    RouteSet,
    RoutingInstance,
    SchedulingInstance,
    Sense,
    VertexSet,
)
from cobench.tai.encode import encode
from cobench.tai.parse import parse
from cobench.tai.render import format_solution, render_prompt
from cobench.verify import check

from conftest import ALL_KINDS, feasible_pair, make_instance, reference_solution


def _mk(format_ok, feasible, value):
    """Hand-rolled candidate around a one-constraint report; an answer that
    did not parse has a failed format gate."""
    from cobench.verify import FeasibilityReport

    report = FeasibilityReport(zeta=format_ok, constraints=(("c", bool(feasible)),))
    return Candidate(report, value)


# ---------------------------------------------------------------------------
# Candidates


def test_build_candidate_parse_failure():
    inst = make_instance(ProblemKind.TSP, size=8, seed=0)
    failed_gate = check(inst, None)
    assert not failed_gate.zeta
    c = build_candidate(inst, "no solution here")
    assert c == Candidate(failed_gate, None)
    assert not c.format_ok
    assert not c.feasible


@pytest.mark.parametrize(
    "raw", [None, 5, b"Route: [0, 1, 0]", ["Route: [0, 1, 0]"]],
    ids=["none", "int", "bytes", "list"],
)
def test_build_candidate_non_string_did_not_parse(raw):
    # A null completion (a refusal or a tool call) scores as an unparsed answer.
    inst = make_instance(ProblemKind.TSP, size=8, seed=0)
    c = build_candidate(inst, raw)
    assert c == Candidate(check(inst, None), None) and not c.format_ok


def test_candidate_is_its_report_and_objective():
    # The sampled text lives in the JSONL row alone; a candidate keeps none of it.
    assert [f.name for f in dataclasses.fields(Candidate)] == ["report", "objective"]


def test_build_candidate_recomputes_objective():
    inst, sol, value = feasible_pair(ProblemKind.TSP, size=8)
    text = format_solution(inst.kind, sol, 999999.0)  # stated value is a lie
    c = build_candidate(inst, text)
    assert c.format_ok and c.feasible
    assert c.objective == pytest.approx(value)  # recomputed, not parroted


def test_build_candidate_infeasible_has_no_objective():
    inst = make_instance(ProblemKind.TSP, size=8, seed=0)
    text = "Route: [0, 1, 0]"  # parses fine, skips most cities
    c = build_candidate(inst, text)
    assert c.format_ok
    assert c.report is not None and not c.feasible
    assert c.objective is None


# Junk answer payloads in every grammar: empty, out-of-range, repeated and
# ragged ids, wrong nesting, non-integers and malformed brackets.
_JUNK_PAYLOADS = (
    "[]", "[-1, 0, 99]", "[[], [], []]", "[1000000000]", "[7, 7, 7]", "[[]]",
    "[0, 1, 0]", "[[0, 1], 5]", "[0.5, 1]", "[true]", "['a']", "{1, 2}",
    "(0, 1)", "[0, 1", "[0]]][[", "[[0, 1, 0],]", "[None]", "[[0], [0]]",
)
_JUNK_TEXTS = (
    [f"{label}: {payload}" for label in ("Route", "Routes", "Set", "Order", "Schedule")
     for payload in _JUNK_PAYLOADS]
    + ["", "Objective: 5", "[1,2,3]", "Route:", "I cannot solve this.", None]
)


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_format_gate_is_the_parse_gate(kind):
    # A candidate's format gate is its report's zeta; it must say what
    # parse says, for junk and for every kind of mock answer.
    inst, sol, _ = feasible_pair(kind, size=6)
    mocks = [
        mock_policy(inst, sol, MockPolicyConfig(
            format_fail_prob=0.2, infeasible_prob=0.4, perturbation=0.8, seed=seed), draw)
        for seed in range(3) for draw in range(8)
    ]
    parsed_any = set()
    for text in _JUNK_TEXTS + mocks:
        got = build_candidate(inst, text).format_ok
        assert got == parse(text, kind).format_ok, (kind, text)
        parsed_any.add(got)
    assert parsed_any == {False, True}


# ---------------------------------------------------------------------------
# Best-of-N selection


def test_bon_select_min_and_max():
    cands = [_mk(True, True, 5.0), _mk(True, True, 3.0), _mk(True, True, 4.0)]
    assert bon_select(cands, Sense.MIN) == 1
    assert bon_select(cands, Sense.MAX) == 0


def test_bon_select_ties_keep_lowest_index():
    cands = [_mk(True, True, 3.0), _mk(True, True, 3.0)]
    assert bon_select(cands, Sense.MIN) == 0
    assert bon_select(cands, Sense.MAX) == 0
    # A sub-tolerance improvement does not steal the slot.
    close = [_mk(True, True, 3.0), _mk(True, True, 3.0 - 1e-14)]
    assert bon_select(close, Sense.MIN) == 0


def test_bon_select_skips_infeasible():
    cands = [_mk(False, None, None), _mk(True, False, None), _mk(True, True, 9.0)]
    assert bon_select(cands, Sense.MIN) == 2
    assert bon_select([_mk(False, None, None)], Sense.MIN) is None
    assert bon_select([], Sense.MIN) is None


# ---------------------------------------------------------------------------
# Gaps and tiers


def test_solution_gap_formulas():
    assert solution_gap(Sense.MIN, 110.0, 100.0) == pytest.approx(0.1)
    assert solution_gap(Sense.MAX, 90.0, 100.0) == pytest.approx(0.1)
    assert solution_gap(Sense.MIN, 100.0, 100.0) == 0.0
    assert solution_gap(Sense.MIN, 90.0, -100.0) == pytest.approx(1.9)


def test_solution_gap_zero_reference():
    assert solution_gap(Sense.MIN, 0.0, 0.0) == 0.0
    assert solution_gap(Sense.MIN, 1.0, 0.0) == float("inf")
    # At or better than a zero reference is no regret, as optimality_reward pays it.
    assert solution_gap(Sense.MIN, -1.0, 0.0) == 0.0
    assert solution_gap(Sense.MAX, 5.0, 0.0) == 0.0
    assert solution_gap(Sense.MAX, 0.0, 0.0) == 0.0
    assert solution_gap(Sense.MAX, -5.0, 0.0) == float("inf")


def test_metrics_beating_a_zero_prize_op_reference_is_finite():
    # An OP reference can collect no prize; a feasible answer that beats it
    # must not turn the summary into inf/NaN or the report into Infinity/NaN.
    inst, sol, value = feasible_pair(ProblemKind.OP, size=12)
    assert value > 0
    rec = build_record(inst, [format_solution(inst.kind, sol, value)], 0.0)
    assert rec.gap == 0.0
    m = metrics([rec])
    assert (m.mean_gap, m.gap_std) == (0.0, 0.0)
    assert m.gap_at_k == {1: 1.0, 5: 1.0, 10: 1.0}
    json.dumps(m.to_dict(), allow_nan=False)  # must not raise


def _routing_inst(n):
    coords = tuple((float(i), 0.0) for i in range(n))
    return Instance(kind=ProblemKind.TSP, payload=RoutingInstance(coords=coords), id="x")


def _graph_inst(n):
    return Instance(
        kind=ProblemKind.MIS, payload=GraphInstance(num_nodes=n, edges=((0, 1),)), id="x"
    )


def _sched_inst(jobs, machines):
    ptimes = tuple(tuple(1 for _ in range(machines)) for _ in range(jobs))
    return Instance(kind=ProblemKind.PFSP, payload=SchedulingInstance(ptimes=ptimes), id="x")


def test_size_tier_boundaries():
    assert size_tier(_routing_inst(30)) == "small"
    assert size_tier(_routing_inst(31)) == "medium"
    assert size_tier(_graph_inst(60)) == "medium"
    assert size_tier(_graph_inst(61)) == "large"
    assert size_tier(_sched_inst(10, 9)) == "small"
    assert size_tier(_sched_inst(11, 2)) == "medium"
    assert size_tier(_sched_inst(15, 15)) == "medium"
    assert size_tier(_sched_inst(16, 3)) == "large"
    assert size_tier(_sched_inst(2, 16)) == "large"  # machines count too


# ---------------------------------------------------------------------------
# Records


def test_build_record_selects_and_gaps():
    inst, sol, value = feasible_pair(ProblemKind.TSP, size=8)
    good = format_solution(inst.kind, sol, value)
    texts = ["garbage", good]
    rec = build_record(inst, texts, reference_objective=value, wall_time=0.5)
    assert rec.selected_index == 1
    assert rec.gap == pytest.approx(0.0)
    assert rec.any_feasible
    assert rec.wall_time == 0.5
    assert len(rec.candidates) == 2


def test_build_record_none_feasible():
    inst = make_instance(ProblemKind.TSP, size=8, seed=0)
    rec = build_record(inst, ["nope", "still nope"], reference_objective=10.0)
    assert rec.selected_index is None and rec.gap is None
    assert not rec.any_feasible


def _answer_pool(kind):
    """An instance of kind, its reference value, and answers to it that
    repeat as real samples do: mock answers of every sort, one of them
    behind a thinking block, junk, and replies that are not text."""
    inst, sol, value = feasible_pair(kind, size=6)
    cfg = MockPolicyConfig(format_fail_prob=0.2, infeasible_prob=0.3, perturbation=0.8, seed=5)
    mocks = [mock_policy(inst, sol, cfg, draw) for draw in range(6)]
    pool = mocks + ["<think>Route: [0]</think>" + mocks[0], "junk", "", None, 5, ["x"]]
    return inst, value, pool


@pytest.mark.parametrize("kind", ALL_KINDS)
@settings(max_examples=40, deadline=None, derandomize=True)
@given(picks=st.lists(st.integers(0, 11), max_size=12))
def test_build_record_equals_one_candidate_per_text(kind, picks):
    inst, value, pool = _answer_pool(kind)
    texts = [pool[i] for i in picks]
    per_text = EvalRecord(
        inst.id, inst.kind, size_tier(inst),
        tuple(build_candidate(inst, t) for t in texts), value, 0.5,
    )
    rec = build_record(inst, texts, value, 0.5)
    assert rec == per_text
    assert rec.to_dict() == per_text.to_dict()


def test_build_record_parses_each_text_and_scores_each_solution_once(monkeypatch):
    # The package re-exports the function `metrics` over its module's name,
    # so the module is reached through importlib.
    module = importlib.import_module("cobench.evalharness.metrics")
    calls = {"parse": 0, "scorer": 0}
    original_parse = module.parse
    original_scorer = verify._SCORERS[ProblemKind.TSP]

    def counting_parse(*args):
        calls["parse"] += 1
        return original_parse(*args)

    def counting_scorer(*args):
        calls["scorer"] += 1
        return original_scorer(*args)

    inst, sol, value = feasible_pair(ProblemKind.TSP, size=8)
    good = format_solution(inst.kind, sol, value)
    monkeypatch.setattr(module, "parse", counting_parse)
    monkeypatch.setattr(verify, "_memo", (object(), {}, object(), None))
    monkeypatch.setitem(verify._SCORERS, ProblemKind.TSP, counting_scorer)
    thought = "<think>maybe [0, 1]</think>" + good  # another text, the same solution
    texts = [good, "junk", good, None, thought, "junk", 7, good]
    rec = build_record(inst, texts, value)
    # Texts: good, junk, thought and the non-strings, read as no text.
    # Solutions: the tour, scored once; junk and the non-strings give none,
    # which fails before any scorer runs.
    assert calls == {"parse": 4, "scorer": 1}
    feasible = [True, False, True, False, True, False, False, True]
    assert [c.feasible for c in rec.candidates] == feasible


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_stored_rows_score_as_build_record_does(kind):
    # One text path: a row read back from JSONL is scored exactly as
    # build_record scores the same texts, thinking blocks included.
    inst, sol, value = feasible_pair(kind, size=8)
    answer = format_solution(kind, sol, value)
    hidden = ["<think>" + answer + "</think>", "<think>" + answer]
    shown = ["<think>draft</think>" + answer, "<think>a</think>b<think>c</think>" + answer]
    for texts in (hidden, shown):
        rec = build_record(inst, texts, value)
        assert rec == endpoint.record_from_row(inst, {"raw_texts": texts}, value)
    assert not build_record(inst, hidden, value).any_feasible
    assert build_record(inst, shown, value).gap == pytest.approx(0.0)


def test_prefix_reselects_over_first_n():
    inst, sol, value = feasible_pair(ProblemKind.TSP, size=8)
    good = format_solution(inst.kind, sol, value)
    rec = build_record(inst, ["junk", "junk", good], reference_objective=value)
    assert rec.prefix(1).selected_index is None
    assert rec.prefix(2).gap is None
    assert rec.prefix(3).gap == pytest.approx(0.0)
    assert rec.prefix(10) == rec  # n past the end changes nothing


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_prefix_equals_a_record_built_from_the_first_n_texts(kind):
    inst, sol, value = feasible_pair(kind, size=6)
    cfg = MockPolicyConfig(format_fail_prob=0.3, infeasible_prob=0.3, perturbation=0.9, seed=2)
    texts = [mock_policy(inst, sol, cfg, draw) for draw in range(8)]
    rec = build_record(inst, texts, value, wall_time=0.25)
    for n in range(len(texts) + 2):
        fresh = build_record(inst, texts[:n], value, wall_time=0.25)
        prefix = rec.prefix(n)
        assert prefix == fresh
        assert (prefix.selected_index, prefix.gap) == (fresh.selected_index, fresh.gap)
        assert prefix.to_dict() == fresh.to_dict()


def test_record_selection_is_derived_from_its_candidates():
    # A record stores what was sampled; selection and gap follow from it.
    cands = (_mk(True, True, 120.0), _mk(False, None, None), _mk(True, True, 110.0))
    rec = EvalRecord("x", ProblemKind.TSP, "small", cands, 100.0)
    assert rec.selected_index == 2 and rec.gap == pytest.approx(0.1)
    assert rec.to_dict() == {
        "instance_id": "x",
        "kind": "tsp",
        "size_tier": "small",
        "num_candidates": 3,
        "num_parsed": 2,
        "feasible": True,
        "selected_index": 2,
        "gap": rec.gap,
        "wall_time": 0.0,
    }
    assert rec.prefix(1).gap == pytest.approx(0.2)
    assert rec.prefix(0).selected_index is None and not rec.prefix(0).any_feasible


def test_prefix_never_improves_on_longer_runs():
    # Adding candidates never worsens the selected objective.
    inst, sol, value = feasible_pair(ProblemKind.TSP, size=10)
    texts = []
    cfg = MockPolicyConfig(perturbation=0.9, infeasible_prob=0.2, seed=4)
    for draw in range(8):
        texts.append(mock_policy(inst, sol, cfg, draw=draw))
    rec = build_record(inst, texts, reference_objective=value)
    last = None
    for n in (1, 2, 4, 8):
        g = rec.prefix(n).gap
        if last is not None and g is not None:
            assert g <= last + 1e-12
        if g is not None:
            last = g


# ---------------------------------------------------------------------------
# Metrics aggregation


def test_metrics_empty():
    m = metrics([])
    assert m.num_records == 0
    assert m.feasibility_rate == 0.0
    assert m.mean_gap is None


def test_metrics_rates_and_tiers():
    records = []
    for seed in range(4):
        inst, sol, value = feasible_pair(ProblemKind.TSP, size=8, seed=seed)
        good = format_solution(inst.kind, sol, value)
        texts = [good, "junk"] if seed % 2 == 0 else ["junk", "junk"]
        records.append(build_record(inst, texts, reference_objective=value))
    m = metrics(records)
    assert m.num_records == 4
    assert m.feasibility_rate == pytest.approx(0.5)
    assert m.format_rate == pytest.approx(2 / 8)  # 2 parses out of 8 samples
    assert m.mean_gap == pytest.approx(0.0)
    assert m.gap_std == pytest.approx(0.0)
    # Gap@K counts infeasible records in the denominator.
    assert m.gap_at_k == {1: 0.5, 5: 0.5, 10: 0.5}
    assert "small" in m.by_tier and m.by_tier["small"].num_records == 4
    assert m.by_tier["small"].by_tier == {}  # tiers do not nest


def _gap_record(gap):
    """A TSP record against a reference of 100 whose one candidate has this
    gap, or is infeasible when gap is None."""
    cand = _mk(True, False, None) if gap is None else _mk(True, True, 100.0 * (1.0 + gap))
    rec = EvalRecord(
        instance_id="x",
        kind=ProblemKind.TSP,
        size_tier="small",
        candidates=(cand,),
        reference_objective=100.0,
    )
    assert rec.gap == (None if gap is None else pytest.approx(gap))
    return rec


def test_gap_at_k_counting_example():
    # Gaps 0.5%, 3%, 12%, all feasible: strictly-under-K counting.
    records = [_gap_record(0.005), _gap_record(0.03), _gap_record(0.12)]
    m = metrics(records)
    assert m.gap_at_k[1] == pytest.approx(1 / 3)
    assert m.gap_at_k[5] == pytest.approx(2 / 3)
    assert m.gap_at_k[10] == pytest.approx(2 / 3)


def test_gap_at_k_monotone_in_k():
    import random as _random

    rnd = _random.Random(9)
    records = [
        _gap_record(None if rnd.random() < 0.3 else rnd.uniform(0, 0.2))
        for _ in range(40)
    ]
    m = metrics(records)
    assert m.gap_at_k[1] <= m.gap_at_k[5] <= m.gap_at_k[10]
    assert all(0.0 <= v <= 1.0 for v in m.gap_at_k.values())


def test_report_dicts_write_non_finite_as_null():
    # A worse answer against a zero reference has an infinite gap; the
    # library keeps it, and the report writes it as null.
    inst, sol, value = feasible_pair(ProblemKind.TSP, size=8)
    text = format_solution(inst.kind, sol, value)
    recs = [build_record(inst, [text], 0.0), build_record(inst, [text], value)]
    assert recs[0].gap == float("inf")
    m = metrics(recs)
    assert m.mean_gap == float("inf") and m.gap_std != m.gap_std  # NaN
    d = m.to_dict()
    json.dumps(d, allow_nan=False)  # must not raise
    assert (d["mean_gap"], d["gap_std"]) == (None, None)
    assert d["by_tier"]["small"]["mean_gap"] is None
    assert d["gap_at_k"] == {"1": 0.5, "5": 0.5, "10": 0.5}
    rows = [r.to_dict() for r in recs]
    json.dumps(rows, allow_nan=False)
    assert [r["gap"] for r in rows] == [None, 0.0]


def test_huge_gaps_give_an_infinite_std_not_an_error():
    # A deviation past ~1.3e154 overflows when squared; the std is then
    # infinite, and the report writes it as null.
    m = metrics([_gap_record(0.0), _gap_record(2e200)])
    assert m.mean_gap == pytest.approx(1e200) and m.gap_std == float("inf")
    d = m.to_dict()
    json.dumps(d, allow_nan=False)  # must not raise
    assert d["gap_std"] is None and d["mean_gap"] == m.mean_gap


_CANDIDATE = st.builds(
    _mk,
    st.booleans(),
    st.booleans(),
    st.one_of(st.none(), st.floats(-1e300, 1e300), st.sampled_from([0.0, 1.0, 100.0])),
)
_RECORD = st.builds(
    EvalRecord,
    instance_id=st.just("x"),
    kind=st.sampled_from(ALL_KINDS),
    size_tier=st.sampled_from(["small", "medium", "large"]),
    candidates=st.lists(_CANDIDATE, max_size=3).map(tuple),
    reference_objective=st.one_of(st.floats(-1e300, 1e300), st.sampled_from([0.0, 1.0])),
    wall_time=st.floats(0, 1e6),
)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(data=st.data(), records=st.lists(_RECORD, max_size=12))
def test_metrics_do_not_depend_on_record_order(data, records):
    shuffled = data.draw(st.permutations(records))
    d = metrics(records).to_dict()
    assert metrics(shuffled).to_dict() == d
    assert set(d["by_tier"]) == {r.size_tier for r in records}
    assert set(d["gap_at_k"]) == {"1", "5", "10"}


def test_report_means_add_left_to_right_on_every_python():
    # Ten wall times of 0.1 add up to 0.9999999999999999 from left to right.
    # From Python 3.12 on, the builtin sum compensates the rounding and gives
    # 1.0, so a report summed with it would differ between Pythons.
    recs = [dataclasses.replace(_gap_record(None), wall_time=0.1) for _ in range(10)]
    assert metrics(recs).mean_wall_time == 0.9999999999999999 / 10


def test_summary_to_dict_keeps_the_field_order():
    d = metrics([]).to_dict()
    assert list(d) == [
        "num_records", "feasibility_rate", "format_rate", "mean_gap", "gap_std",
        "gap_at_k", "by_tier", "mean_wall_time",
    ]


def test_metrics_to_dict_json_safe():
    inst, sol, value = feasible_pair(ProblemKind.MIS, size=12)
    rec = build_record(inst, [format_solution(inst.kind, sol, value)], value)
    d = metrics([rec]).to_dict()
    blob = json.dumps(d)  # must not raise
    back = json.loads(blob)
    assert back["num_records"] == 1
    assert back["gap_at_k"] == {"1": 1.0, "5": 1.0, "10": 1.0}


# ---------------------------------------------------------------------------
# Mock policy


def test_mock_policy_echo_parses_back_to_reference():
    for kind in ALL_KINDS:
        inst, sol, value = feasible_pair(kind, size={
            ProblemKind.PFSP: 6, ProblemKind.JSSP: 5,
        }.get(kind, 10))
        text = mock_policy(inst, sol, MockPolicyConfig())
        parsed = parse(text, kind)
        assert parsed.format_ok
        assert parsed.solution == sol


def test_mock_policy_deterministic():
    inst, sol, _ = feasible_pair(ProblemKind.TSP, size=10)
    cfg = MockPolicyConfig(perturbation=0.8, seed=3)
    a = [mock_policy(inst, sol, cfg, draw=d) for d in range(6)]
    b = [mock_policy(inst, sol, cfg, draw=d) for d in range(6)]
    assert a == b
    assert len(set(a)) > 1  # different draws explore different outputs


def test_mock_policy_format_failures_are_unparseable():
    inst, sol, _ = feasible_pair(ProblemKind.TSP, size=10)
    cfg = MockPolicyConfig(format_fail_prob=1.0)
    text = mock_policy(inst, sol, cfg)
    assert not parse(text, inst.kind).format_ok


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_mock_policy_corruptions_are_infeasible(kind):
    size = {ProblemKind.PFSP: 6, ProblemKind.JSSP: 5}.get(kind, 10)
    for seed in range(3):
        inst, sol, _ = feasible_pair(kind, size=size, seed=seed)
        cfg = MockPolicyConfig(infeasible_prob=1.0, seed=seed)
        for draw in range(4):
            text = mock_policy(inst, sol, cfg, draw=draw)
            parsed = parse(text, kind)
            assert parsed.format_ok, (kind, seed, draw)
            assert not check(inst, parsed.solution).feasible, (kind, seed, draw)


@pytest.mark.parametrize(
    "kind, reference",
    [
        (ProblemKind.OP, Route((0,))),  # the depot alone
        (ProblemKind.CVRP, RouteSet(((0, 0),))),  # no route longer than 2
        (ProblemKind.MIS, VertexSet(frozenset(range(4)))),
        (ProblemKind.MVC, VertexSet(frozenset())),
    ],
    ids=["op-depot-alone", "cvrp-no-customer-route", "mis-edgeless", "mvc-edgeless"],
)
def test_mock_policy_corrupts_a_reference_it_cannot_edit(kind, reference):
    # Each such reference has nothing to break (no customer, no edge), so
    # the mock names a node out of range or serves a customer twice.
    if kind in (ProblemKind.MIS, ProblemKind.MVC):
        inst = Instance(kind, GraphInstance(num_nodes=4, edges=()), id=f"{kind.value}-edgeless")
    else:
        inst = make_instance(kind, size=6)
    text = mock_policy(inst, reference, MockPolicyConfig(infeasible_prob=1.0))
    parsed = parse(text, kind)
    assert parsed.format_ok
    assert not check(inst, parsed.solution).feasible


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_mock_policy_degradations_stay_feasible(kind):
    size = {ProblemKind.PFSP: 6, ProblemKind.JSSP: 5}.get(kind, 10)
    for seed in range(3):
        inst, sol, _ = feasible_pair(kind, size=size, seed=seed)
        cfg = MockPolicyConfig(perturbation=1.0, seed=seed)
        for draw in range(4):
            text = mock_policy(inst, sol, cfg, draw=draw)
            parsed = parse(text, kind)
            assert parsed.format_ok, (kind, seed, draw)
            assert check(inst, parsed.solution).feasible, (kind, seed, draw)


def test_mock_policy_config_validation():
    with pytest.raises(ValueError):
        MockPolicyConfig(format_fail_prob=1.5)
    with pytest.raises(ValueError):
        MockPolicyConfig(infeasible_prob=-0.1)
    with pytest.raises(ValueError):
        MockPolicyConfig(perturbation=2.0)


# ---------------------------------------------------------------------------
# evaluate with an in-process sampler


def _echo_sampler(refs, calls=None):
    def sample(inst):
        if calls is not None:
            calls.append(inst.id)
        ref = refs[inst.id]
        return [format_solution(inst.kind, ref.solution, ref.objective)] * 2

    return sample


def test_evaluate_writes_jsonl(tmp_path):
    insts, refs = _bench(ProblemKind.TSP, count=3, size=8)
    out = tmp_path / "raw.jsonl"
    records = evaluate(insts, refs, _echo_sampler(refs), out_path=out)
    assert len(records) == 3
    assert all(r.gap == pytest.approx(0.0) for r in records)
    rows = [json.loads(l) for l in out.read_text().splitlines()]
    assert [r["instance_id"] for r in rows] == [i.id for i in insts]
    assert all(len(r["raw_texts"]) == 2 for r in rows)


def test_evaluate_rerun_keeps_one_row_and_stored_wall_time(tmp_path):
    insts, refs = _bench(ProblemKind.TSP, count=3, size=8)
    out = tmp_path / "raw.jsonl"
    first = evaluate(insts, refs, _echo_sampler(refs), out_path=out)
    calls = []
    second = evaluate(insts, refs, _echo_sampler(refs, calls=calls), out_path=out)
    assert calls == []
    assert len(out.read_text().splitlines()) == 3
    assert [r.wall_time for r in second] == [r.wall_time for r in first]


def test_evaluate_crash_keeps_finished_rows(tmp_path):
    insts, refs = _bench(ProblemKind.TSP, count=5, size=8)
    out = tmp_path / "raw.jsonl"
    returned = []
    echo = _echo_sampler(refs, calls=returned)

    def crashing(inst):
        if inst.id == insts[2].id:
            raise KeyboardInterrupt
        return echo(inst)

    with pytest.raises(KeyboardInterrupt):
        evaluate(insts, refs, crashing, out_path=out)
    # The instance after the crash may already be in flight; its response
    # is kept as well.
    rows = [json.loads(l) for l in out.read_text().splitlines()]
    assert sorted(r["instance_id"] for r in rows) == sorted(returned)
    assert {i.id for i in insts[:2]} <= set(returned) and insts[2].id not in returned
    calls = []
    records = evaluate(insts, refs, _echo_sampler(refs, calls=calls), out_path=out)
    assert calls == [i.id for i in insts if i.id not in returned]
    assert all(r.any_feasible for r in records)


def test_evaluate_keeps_every_response_that_came_back_before_a_crash(tmp_path):
    # Four workers; instance 1 waits until the seven others have returned,
    # then raises. In instance order it would hold six of them back.
    insts, refs = _bench(ProblemKind.TSP, count=8, size=8)
    out = tmp_path / "raw.jsonl"
    echo = _echo_sampler(refs)
    lock, others_back, returned = threading.Lock(), threading.Event(), []

    def crashing(inst):
        if inst.id == insts[1].id:
            assert others_back.wait(timeout=10)
            raise KeyboardInterrupt
        texts = echo(inst)
        with lock:
            returned.append(inst.id)
            if len(returned) == 7:
                others_back.set()
        return texts

    with pytest.raises(KeyboardInterrupt):
        evaluate(insts, refs, crashing, out_path=out, max_parallel=4)
    rows = [json.loads(l) for l in out.read_text().splitlines()]
    kept = sorted(i.id for i in insts if i is not insts[1])
    assert sorted(r["instance_id"] for r in rows) == kept
    calls = []
    records = evaluate(insts, refs, _echo_sampler(refs, calls=calls), out_path=out, max_parallel=4)
    assert calls == [insts[1].id]
    assert [r.instance_id for r in records] == [i.id for i in insts]
    # The file keeps completion order; its rows, scored in that order,
    # summarize to what evaluate returned.
    rows, _ = endpoint.load_rows(out)
    by_id = {inst.id: inst for inst in insts}
    stored = [
        endpoint.record_from_row(by_id[iid], row, refs[iid].objective)
        for iid, row in rows.items()
    ]
    assert sorted(r.instance_id for r in stored) == sorted(by_id)
    assert metrics(stored).to_dict() == metrics(records).to_dict()


def test_evaluate_appends_rows_as_requests_complete(tmp_path):
    # A slow first instance does not hold back the rows behind it. The file
    # is only appended to: an earlier run's whole rows stay as they were,
    # and only its last line, cut short, is dropped.
    insts, refs = _bench(ProblemKind.TSP, count=5, size=8)
    out = tmp_path / "raw.jsonl"
    echo = _echo_sampler(refs)

    def sample(inst):
        if inst.id == insts[0].id:  # returns once the three others are in the file
            deadline = time.monotonic() + 10
            while len(out.read_text().splitlines()) < 3:
                assert time.monotonic() < deadline
                time.sleep(0.005)
        return echo(inst)

    old = tmp_path / "old.jsonl"
    evaluate(insts[2:4], refs, echo, out_path=old)
    old_rows = old.read_text().splitlines()
    kept = old_rows[1] + "\n"
    out.write_text(kept + old_rows[0][:-5])  # an earlier run's rows, the last cut short
    records = evaluate(insts[:4], refs, sample, out_path=out, max_parallel=2)
    assert out.read_text().startswith(kept)
    rows = [json.loads(l)["instance_id"] for l in out.read_text().splitlines()]
    assert rows[0] == insts[3].id and rows[-1] == insts[0].id
    assert sorted(rows) == sorted(i.id for i in insts[:4])
    assert [r.instance_id for r in records] == [i.id for i in insts[:4]]
    assert all(r.any_feasible for r in records)
    before = out.read_bytes()
    calls = []
    evaluate(insts, refs, _echo_sampler(refs, calls=calls), out_path=out, max_parallel=2)
    assert calls == [insts[4].id]
    assert out.read_bytes().startswith(before)
    assert len(out.read_text().splitlines()) == 5
    assert sorted(p.name for p in tmp_path.iterdir()) == ["old.jsonl", "raw.jsonl"]  # no .tmp


# Runs evaluate at max_parallel=4 on the instance and reference files in the
# directory argv[1], writing raw.jsonl there. The instances named after it
# never return, so their requests stay in flight until the process dies.
_RUN_UNTIL_KILLED = """
import sys, threading
from pathlib import Path
from cobench.evalharness import evaluate
from cobench.problems.io import load_instance, load_reference
from cobench.tai.render import format_solution

d = Path(sys.argv[1])
insts = [load_instance(p) for p in sorted(d.glob("inst-*.json"))]
refs = {r.instance_id: r for r in map(load_reference, sorted(d.glob("ref-*.json")))}

def sample(inst):
    if inst.id in sys.argv[2:]:
        threading.Event().wait()
    ref = refs[inst.id]
    return [format_solution(inst.kind, ref.solution, ref.objective)] * 2

evaluate(insts, refs, sample, d / "raw.jsonl", max_parallel=4)
"""


def test_evaluate_killed_mid_run_keeps_every_written_row(tmp_path):
    insts, refs = _bench(ProblemKind.TSP, count=8, size=8)
    for i, inst in enumerate(insts):
        save_instance(inst, tmp_path / f"inst-{i}.json")
        save_reference(refs[inst.id], tmp_path / f"ref-{i}.json")
    held = [insts[1].id, insts[4].id]
    out = tmp_path / "raw.jsonl"
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.Popen(
        [sys.executable, "-c", _RUN_UNTIL_KILLED, str(tmp_path), *held],
        env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
    )
    try:
        # Every instance but the held ones returns; wait for their rows.
        deadline = time.monotonic() + 60
        while not (out.exists() and out.read_bytes().count(b"\n") == len(insts) - len(held)):
            assert proc.poll() is None, proc.stderr.read().decode()
            assert time.monotonic() < deadline
            time.sleep(0.01)
        written = out.read_bytes()
        proc.send_signal(signal.SIGKILL)
        assert proc.wait(timeout=60) == -signal.SIGKILL
    finally:
        proc.kill()
        proc.wait()
        proc.stderr.close()
    assert out.read_bytes() == written
    rows, end = endpoint.load_rows(out)
    assert end == len(written)
    assert sorted(rows) == sorted(i.id for i in insts if i.id not in held)
    echo = _echo_sampler(refs)
    assert all(row["raw_texts"] == echo(inst) for inst in insts if (row := rows.get(inst.id)))
    calls = []
    records = evaluate(insts, refs, _echo_sampler(refs, calls=calls), out_path=out, max_parallel=4)
    assert sorted(calls) == sorted(held)
    assert out.read_bytes().startswith(written)
    assert all(r.any_feasible for r in records)


# Runs evaluate at max_parallel=2 on the instance and reference files in the
# directory argv[1], writing raw.jsonl there. The sampler marks each instance
# it starts; every instance after the first waits for a file named release.
# A Ctrl-C marks the directory interrupted before it raises KeyboardInterrupt.
_RUN_UNTIL_INTERRUPTED = """
import signal, sys, time
from pathlib import Path
from cobench.evalharness import evaluate
from cobench.problems.io import load_instance, load_reference
from cobench.tai.render import format_solution

d = Path(sys.argv[1])
insts = [load_instance(p) for p in sorted(d.glob("inst-*.json"))]
refs = {r.instance_id: r for r in map(load_reference, sorted(d.glob("ref-*.json")))}

def interrupted(signum, frame):
    (d / "interrupted").touch()
    signal.default_int_handler(signum, frame)

signal.signal(signal.SIGINT, interrupted)

def sample(inst):
    (d / f"started-{inst.id}").touch()
    while inst is not insts[0] and not (d / "release").exists():
        time.sleep(0.005)
    ref = refs[inst.id]
    return [format_solution(inst.kind, ref.solution, ref.objective)] * 2

evaluate(insts, refs, sample, d / "raw.jsonl", max_parallel=2)
"""


def test_evaluate_interrupted_by_ctrl_c_writes_the_rows_in_flight(tmp_path):
    insts, refs = _bench(ProblemKind.TSP, count=6, size=8)
    for i, inst in enumerate(insts):
        save_instance(inst, tmp_path / f"inst-{i}.json")
        save_reference(refs[inst.id], tmp_path / f"ref-{i}.json")
    out = tmp_path / "raw.jsonl"

    def started():
        return sorted(p.name.removeprefix("started-") for p in tmp_path.glob("started-*"))

    def wait_for(done):
        deadline = time.monotonic() + 60
        while not done():
            assert proc.poll() is None, proc.stderr.read().decode()
            assert time.monotonic() < deadline
            time.sleep(0.01)

    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.Popen(
        [sys.executable, "-c", _RUN_UNTIL_INTERRUPTED, str(tmp_path)],
        env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
    )
    try:
        # The first instance has its row, and each worker holds one more.
        wait_for(lambda: out.exists() and out.read_bytes().count(b"\n") == 1 and len(started()) == 3)
        proc.send_signal(signal.SIGINT)
        wait_for((tmp_path / "interrupted").exists)
        (tmp_path / "release").touch()
        assert proc.wait(timeout=60) == -signal.SIGINT
        assert proc.stderr.read().decode().rstrip().endswith("KeyboardInterrupt")
    finally:
        proc.kill()
        proc.wait()
        proc.stderr.close()
    first = sorted(i.id for i in insts[:3])
    assert started() == first  # no later instance was started
    rows, end = endpoint.load_rows(out)
    assert end == len(out.read_bytes())
    assert sorted(rows) == first
    echo = _echo_sampler(refs)
    assert all(rows[inst.id]["raw_texts"] == echo(inst) for inst in insts[:3])
    calls = []
    records = evaluate(insts, refs, _echo_sampler(refs, calls=calls), out_path=out)
    assert calls == [i.id for i in insts[3:]]
    assert all(r.any_feasible for r in records)


def test_evaluate_resumes_past_a_truncated_last_line(tmp_path):
    insts, refs = _bench(ProblemKind.TSP, count=3, size=8)
    out = tmp_path / "raw.jsonl"
    evaluate(insts[:2], refs, _echo_sampler(refs), out_path=out)
    whole = out.read_text()
    out.write_text(whole[: len(whole) - 20])  # the second row is cut short
    calls = []
    records = evaluate(insts, refs, _echo_sampler(refs, calls=calls), out_path=out)
    assert calls == [i.id for i in insts[1:]]
    assert all(r.any_feasible for r in records)
    rows = [json.loads(l) for l in out.read_text().splitlines()]
    assert [r["instance_id"] for r in rows] == [i.id for i in insts]
    # A row without its newline is kept, and the next row starts a new line.
    out.write_text(out.read_text().rstrip("\n"))
    evaluate(insts[2:], refs, _echo_sampler(refs), out_path=out)
    assert len(out.read_text().splitlines()) == 3


def test_evaluate_unparsable_middle_line_is_an_error(tmp_path):
    insts, refs = _bench(ProblemKind.TSP, count=2, size=8)
    out = tmp_path / "raw.jsonl"
    evaluate(insts, refs, _echo_sampler(refs), out_path=out)
    lines = out.read_text().splitlines()
    out.write_text(lines[0][:-5] + "\n" + lines[1] + "\n")
    with pytest.raises(ValueError):
        evaluate(insts, refs, _echo_sampler(refs), out_path=out)


def test_evaluate_refuses_missing_references_before_any_request(tmp_path):
    insts, refs = _bench(ProblemKind.TSP, count=3, size=8)
    gone = insts[1].id
    kept = {iid: ref for iid, ref in refs.items() if iid != gone}
    out = tmp_path / "runs" / "raw.jsonl"
    calls = []
    with pytest.raises(ValueError, match=f"^missing references for: {gone}$"):
        evaluate(insts, kept, _echo_sampler(refs, calls=calls), out_path=out)
    assert calls == [] and not out.parent.exists()
    # An existing file is left as it was, truncated last line and all.
    out.parent.mkdir()
    evaluate(insts[:1], refs, _echo_sampler(refs), out_path=out)
    out.write_bytes(out.read_bytes() + b'{"instance_id": "cut')
    before = out.read_bytes()
    with pytest.raises(ValueError, match=f"^missing references for: {gone}$"):
        evaluate(insts, kept, _echo_sampler(refs, calls=calls), out_path=out)
    assert calls == [] and out.read_bytes() == before


def test_missing_references_name_the_first_five():
    insts, _ = _bench(ProblemKind.TSP, count=7, size=5)
    ids = [inst.id for inst in insts]
    with pytest.raises(ValueError) as err:
        evaluate(insts, {}, _echo_sampler({}))
    assert str(err.value) == f"missing references for: {', '.join(ids[:5])}"


def test_evaluate_duplicate_rows_resolve_last_wins(tmp_path):
    insts, refs = _bench(ProblemKind.TSP, count=2, size=8)
    out = tmp_path / "raw.jsonl"
    evaluate(insts, refs, lambda inst: ["no answer"], out_path=out)
    evaluate(insts, refs, _echo_sampler(refs), out_path=tmp_path / "good.jsonl")
    out.write_text(out.read_text() + (tmp_path / "good.jsonl").read_text())
    calls = []
    records = evaluate(insts, refs, _echo_sampler(refs, calls=calls), out_path=out)
    assert calls == []
    assert [r.instance_id for r in records] == [i.id for i in insts]
    assert all(r.any_feasible for r in records)


def _bench(kind, count, size, start_seed=0):
    insts, refs = [], {}
    for i in range(count):
        inst = make_instance(kind, size=size, seed=start_seed + i)
        sol, value = reference_solution(inst)
        insts.append(inst)
        refs[inst.id] = ReferenceSolution(
            instance_id=inst.id, solution=sol, objective=value, source="heuristic:test"
        )
    return insts, refs


# ---------------------------------------------------------------------------
# Live HTTP round trip


class _EchoHandler(BaseHTTPRequestHandler):
    answers = {}       # prompt -> response text
    fail_first = False
    always_fail = set()  # prompts that fail on every attempt
    fail_status = 500
    retry_after = None  # Retry-After header value sent with a failure status
    fail_body = None   # a 200 reply's body sent in place of a failure status
    fail_length = None  # the Content-Length sent with fail_body, if not its own
    max_choices = None  # the most choices a reply holds, if fewer than asked
    redirect = None    # a status that sends each POST on to /v1/moved
    hits = []          # one entry per POST
    targets = []       # the request target of each request, of any method
    methods = []       # the method of each request
    headers = []       # the headers of each request
    asked = []         # the n of each POST
    failed_once = set()

    def _note(self):
        type(self).targets.append(self.path)
        type(self).methods.append(self.command)
        type(self).headers.append(self.headers)

    def do_POST(self):  # noqa: N802 (stdlib naming)
        self._note()
        assert self.path.endswith("/chat/completions")
        body = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
        prompt = body["messages"][0]["content"]
        type(self).hits.append(prompt)
        type(self).asked.append(body.get("n", 1))
        if type(self).redirect is not None:
            self.send_response(type(self).redirect)
            self.send_header("Location", "/v1/moved")
            self.end_headers()
            return
        fail = prompt in type(self).always_fail or (
            type(self).fail_first and prompt not in type(self).failed_once
        )
        if fail:
            type(self).failed_once.add(prompt)
            blob = type(self).fail_body
            if blob is None:
                self.send_response(type(self).fail_status)
                if type(self).retry_after is not None:
                    self.send_header("Retry-After", type(self).retry_after)
                self.end_headers()
            else:
                self.send_response(200)
                self.send_header("Content-Length", str(type(self).fail_length or len(blob)))
                self.end_headers()
                self.wfile.write(blob)
            return
        n = body.get("n", 1)
        if type(self).max_choices is not None:
            n = min(n, type(self).max_choices)
        text = type(self).answers[prompt]
        payload = {"choices": [{"message": {"content": text}} for _ in range(n)]}
        blob = json.dumps(payload).encode()
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(blob)))
        self.end_headers()
        self.wfile.write(blob)

    def do_GET(self):  # noqa: N802 (stdlib naming)
        # A chat endpoint takes POST alone.
        self._note()
        self.send_response(405)
        self.end_headers()

    def do_CONNECT(self):  # noqa: N802 (stdlib naming)
        # As a proxy that refuses every tunnel.
        self._note()
        self.send_response(502)
        self.end_headers()

    def log_message(self, *args):  # keep test output quiet
        pass


@pytest.fixture()
def echo_server():
    _EchoHandler.answers = {}
    _EchoHandler.redirect = None
    _EchoHandler.hits = []
    _EchoHandler.targets = []
    _EchoHandler.methods = []
    _EchoHandler.headers = []
    _EchoHandler.asked = []
    _EchoHandler.max_choices = None
    _EchoHandler.fail_first = False
    _EchoHandler.always_fail = set()
    _EchoHandler.failed_once = set()
    _EchoHandler.fail_status = 500
    _EchoHandler.retry_after = None
    _EchoHandler.fail_body = None
    _EchoHandler.fail_length = None
    server = ThreadingHTTPServer(("127.0.0.1", 0), _EchoHandler)
    thread = threading.Thread(
        target=server.serve_forever, kwargs={"poll_interval": 0.05}, daemon=True
    )
    thread.start()
    try:
        yield f"http://127.0.0.1:{server.server_port}/v1"
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)


def _arm_echo(insts, refs):
    for inst in insts:
        prompt = render_prompt(encode(inst))
        ref = refs[inst.id]
        _EchoHandler.answers[prompt] = format_solution(
            inst.kind, ref.solution, ref.objective
        )


def test_evaluate_endpoint_echo(echo_server, tmp_path):
    insts, refs = _bench(ProblemKind.TSP, count=4, size=8)
    _arm_echo(insts, refs)
    cfg = EndpointConfig(base_url=echo_server, model_name="echo", n_samples=2)
    out = tmp_path / "raw.jsonl"
    records = evaluate_endpoint(insts, refs, cfg, out_path=out)
    assert len(records) == 4
    m = metrics(records)
    assert m.feasibility_rate == 1.0
    assert m.format_rate == 1.0
    assert m.mean_gap == pytest.approx(0.0)
    rows = [json.loads(l) for l in out.read_text().splitlines()]
    assert len(rows) == 4 and all(len(r["raw_texts"]) == 2 for r in rows)


def test_evaluate_endpoint_resumes_without_requerying(echo_server, tmp_path):
    insts, refs = _bench(ProblemKind.MIS, count=3, size=12)
    _arm_echo(insts, refs)
    out = tmp_path / "raw.jsonl"
    cfg = EndpointConfig(base_url=echo_server, model_name="echo")
    first = evaluate_endpoint(insts, refs, cfg, out_path=out)
    hits_after_first = len(_EchoHandler.hits)
    assert hits_after_first == 3

    # Point at a dead server: a rerun must come entirely from the JSONL.
    dead = EndpointConfig(
        base_url="http://127.0.0.1:9", model_name="echo", retries=0, timeout=2.0
    )
    second = evaluate_endpoint(insts, refs, dead, out_path=out)
    assert len(_EchoHandler.hits) == hits_after_first
    assert [r.gap for r in second] == [r.gap for r in first]
    assert all(r.any_feasible for r in second)


def test_evaluate_endpoint_partial_resume(echo_server, tmp_path):
    insts, refs = _bench(ProblemKind.TSP, count=3, size=8)
    _arm_echo(insts, refs)
    out = tmp_path / "raw.jsonl"
    cfg = EndpointConfig(base_url=echo_server, model_name="echo")
    evaluate_endpoint(insts[:2], refs, cfg, out_path=out)
    assert len(_EchoHandler.hits) == 2
    records = evaluate_endpoint(insts, refs, cfg, out_path=out)
    assert len(_EchoHandler.hits) == 3  # only the missing instance was fetched
    assert len(records) == 3
    rows = [json.loads(l) for l in out.read_text().splitlines()]
    assert len(rows) == 3


def test_no_socket_is_left_open(echo_server, monkeypatch):
    # Every socket opened in this test, with the thread that opened it.
    opened = []
    create_connection = socket.create_connection

    def recording(*args, **kwargs):
        sock = create_connection(*args, **kwargs)
        opened.append((threading.current_thread().name, sock))
        return sock

    monkeypatch.setattr(socket, "create_connection", recording)
    insts, refs = _bench(ProblemKind.TSP, count=24, size=6)
    _arm_echo(insts, refs)
    cfg = EndpointConfig(base_url=echo_server, model_name="echo", max_parallel=4)
    records = evaluate_endpoint(insts, refs, cfg)
    assert all(r.any_feasible for r in records)
    request_samples(cfg, render_prompt(encode(insts[0])))  # a call of its own
    # One connection per request, each closed once its reply is read.
    assert len(opened) == len(_EchoHandler.hits) == 25
    assert [(name, sock) for name, sock in opened if sock.fileno() != -1] == []


@pytest.fixture()
def proxy_env(monkeypatch):
    """An environment without proxies. urllib's default opener reads the
    proxies once, when it is built, so the test's first request builds it
    afresh, and so does the first request after the test."""
    for name in ("http_proxy", "https_proxy", "no_proxy", "all_proxy"):
        monkeypatch.delenv(name, raising=False)
        monkeypatch.delenv(name.upper(), raising=False)
    urllib.request.install_opener(None)
    yield
    urllib.request.install_opener(None)


def _closed_port() -> int:
    """A port that was just free, now closed."""
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def test_requests_go_through_the_environment_proxy(echo_server, monkeypatch, proxy_env):
    monkeypatch.setenv("http_proxy", echo_server.rsplit("/", 1)[0])
    _EchoHandler.answers["p"] = "answer"
    cfg = EndpointConfig(base_url="http://model.invalid/v1", model_name="echo", retries=0)
    assert request_samples(cfg, "p") == ["answer"]
    assert _EchoHandler.targets == ["http://model.invalid/v1/chat/completions"]


def test_https_requests_tunnel_through_the_proxy_with_its_credentials(
    echo_server, monkeypatch, proxy_env
):
    proxy = echo_server.rsplit("/", 1)[0].replace("http://", "http://user:p%40ss@")
    monkeypatch.setenv("https_proxy", proxy)
    cfg = EndpointConfig(base_url="https://model.invalid/v1", model_name="echo", retries=0)
    with pytest.raises(RuntimeError, match="Tunnel connection failed: 502"):
        request_samples(cfg, "p")
    assert (_EchoHandler.methods, _EchoHandler.targets) == (["CONNECT"], ["model.invalid:443"])
    assert _EchoHandler.headers[0]["Proxy-Authorization"] == "Basic dXNlcjpwQHNz"  # user:p@ss


def test_no_proxy_hosts_are_reached_directly(echo_server, monkeypatch, proxy_env):
    monkeypatch.setenv("http_proxy", f"http://127.0.0.1:{_closed_port()}")
    monkeypatch.setenv("no_proxy", "127.0.0.1")
    _EchoHandler.answers["p"] = "answer"
    cfg = EndpointConfig(base_url=echo_server, model_name="echo", retries=0)
    assert request_samples(cfg, "p") == ["answer"]
    assert _EchoHandler.targets == ["/v1/chat/completions"]


def test_an_unknown_url_type_fails_after_its_retries(sleeps, proxy_env):
    cfg = EndpointConfig(
        base_url="gopher://model.invalid/v1", model_name="echo", retries=1, backoff=0
    )
    with pytest.raises(RuntimeError, match="after 2 attempts: .*unknown url type: gopher"):
        request_samples(cfg, "p")
    assert sleeps == [0]


def test_a_temporary_redirect_of_a_post_is_retried_then_fails(echo_server, sleeps):
    # urllib follows no 307 of a POST, and a 3xx is no client error.
    _EchoHandler.redirect = 307
    cfg = EndpointConfig(base_url=echo_server, model_name="echo", retries=1, backoff=0)
    with pytest.raises(RuntimeError, match="after 2 attempts: HTTP Error 307"):
        request_samples(cfg, "p")
    assert _EchoHandler.methods == ["POST", "POST"] and sleeps == [0]


def test_a_found_redirect_is_followed_as_a_get_without_the_body_or_the_key(
    echo_server, sleeps, monkeypatch
):
    monkeypatch.setenv("COBENCH_API_KEY", "sk-test")
    _EchoHandler.redirect = 302
    cfg = EndpointConfig(base_url=echo_server, model_name="echo", retries=3, backoff=0)
    with pytest.raises(RuntimeError, match="after 1 attempts: HTTP Error 405"):
        request_samples(cfg, "p")
    assert _EchoHandler.methods == ["POST", "GET"]
    assert _EchoHandler.targets == ["/v1/chat/completions", "/v1/moved"]
    sent, resent = _EchoHandler.headers
    assert sent["Authorization"] == "Bearer sk-test" and sent["Content-Length"]
    assert resent["Authorization"] is None and resent["Content-Length"] is None
    assert sleeps == []


def test_the_api_key_is_sent_as_a_bearer_token(echo_server, monkeypatch):
    _EchoHandler.answers["p"] = "answer"
    cfg = EndpointConfig(base_url=echo_server, model_name="echo", retries=0)
    for key in ("sk-test", "", None):
        if key is None:
            monkeypatch.delenv("COBENCH_API_KEY", raising=False)
        else:
            monkeypatch.setenv("COBENCH_API_KEY", key)
        assert request_samples(cfg, "p") == ["answer"]
    sent = [h.get("Authorization") for h in _EchoHandler.headers]
    assert sent == ["Bearer sk-test", None, None]


def test_request_retries_on_server_error(echo_server):
    insts, refs = _bench(ProblemKind.TSP, count=1, size=8)
    _arm_echo(insts, refs)
    _EchoHandler.fail_first = True
    cfg = EndpointConfig(
        base_url=echo_server, model_name="echo", retries=2, backoff=0.01
    )
    records = evaluate_endpoint(insts, refs, cfg)
    assert records[0].any_feasible
    assert len(_EchoHandler.hits) == 2  # one failure, one success


def test_client_errors_are_not_retried(echo_server, tmp_path):
    insts, refs = _bench(ProblemKind.TSP, count=1, size=8)
    _arm_echo(insts, refs)
    _EchoHandler.always_fail = {render_prompt(encode(insts[0]))}
    _EchoHandler.fail_status = 400
    out = tmp_path / "raw.jsonl"
    cfg = EndpointConfig(
        base_url=echo_server, model_name="echo", retries=3, backoff=0.01
    )
    records = evaluate_endpoint(insts, refs, cfg, out_path=out)
    assert len(_EchoHandler.hits) == 1
    assert records[0].candidates == ()
    assert out.read_text() == ""


def test_request_failures_never_abort_the_batch(echo_server, tmp_path):
    insts, refs = _bench(ProblemKind.TSP, count=3, size=8)
    _arm_echo(insts, refs)
    from cobench.tai.encode import encode as _enc
    from cobench.tai.render import render_prompt as _rp

    broken = insts[1]
    _EchoHandler.always_fail = {_rp(_enc(broken))}
    out = tmp_path / "raw.jsonl"
    cfg = EndpointConfig(
        base_url=echo_server, model_name="echo", retries=1, backoff=0.01
    )
    records = evaluate_endpoint(insts, refs, cfg, out_path=out)
    assert len(records) == 3
    assert records[0].any_feasible and records[2].any_feasible
    assert records[1].candidates == () and not records[1].any_feasible
    # The failed instance is not persisted, so a healthy rerun retries it.
    rows = [json.loads(l) for l in out.read_text().splitlines()]
    assert {r["instance_id"] for r in rows} == {insts[0].id, insts[2].id}
    _EchoHandler.always_fail = set()
    retried = evaluate_endpoint(insts, refs, cfg, out_path=out)
    assert all(r.any_feasible for r in retried)


def test_failed_records_count_against_metrics(echo_server):
    insts, refs = _bench(ProblemKind.TSP, count=2, size=8)
    _arm_echo(insts, refs)
    from cobench.tai.encode import encode as _enc
    from cobench.tai.render import render_prompt as _rp

    _EchoHandler.always_fail = {_rp(_enc(insts[0]))}
    cfg = EndpointConfig(
        base_url=echo_server, model_name="echo", retries=0, backoff=0.01
    )
    m = metrics(evaluate_endpoint(insts, refs, cfg))
    assert m.num_records == 2
    assert m.feasibility_rate == pytest.approx(0.5)
    assert m.gap_at_k[10] == pytest.approx(0.5)


def test_null_completions_count_as_unparsed(echo_server, tmp_path, capsys):
    # OpenAI-style servers send "content": null for a refusal or a tool call.
    insts, refs = _bench(ProblemKind.TSP, count=2, size=8)
    _arm_echo(insts, refs)
    _EchoHandler.answers[render_prompt(encode(insts[0]))] = None
    out = tmp_path / "raw.jsonl"
    cfg = EndpointConfig(base_url=echo_server, model_name="echo", n_samples=2)
    fresh = evaluate_endpoint(insts, refs, cfg, out_path=out)
    resumed = evaluate_endpoint(insts, refs, cfg, out_path=out)
    assert len(_EchoHandler.hits) == 2  # the rerun came from the file
    rows, _ = endpoint.load_rows(out)  # in completion order, which may vary
    assert rows[insts[0].id]["raw_texts"] == [None, None]  # stored as the server sent it
    for m in (metrics(fresh), metrics(resumed)):
        assert m.format_rate == pytest.approx(0.5)
        assert m.feasibility_rate == pytest.approx(0.5)

    from cobench.cli import main
    from cobench.problems.io import save_instance, save_reference

    (tmp_path / "insts").mkdir()
    (tmp_path / "refs").mkdir()
    for inst in insts:
        save_instance(inst, tmp_path / "insts" / f"{inst.id}.json")
        save_reference(refs[inst.id], tmp_path / "refs" / f"{inst.id}.json")
    argv = ["report", "--records", str(out), "--instances", str(tmp_path / "insts"),
            "--references", str(tmp_path / "refs")]
    assert main(argv) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["format_rate"] == pytest.approx(0.5)
    assert [r["num_parsed"] for r in report["records"]] == [0, 2]


@pytest.fixture()
def sleeps(monkeypatch):
    """The delays the retry loop asks for, recorded instead of slept."""
    delays = []
    monkeypatch.setattr(endpoint.time, "sleep", delays.append)
    return delays


def _fail_first_then_answer(echo_server, **cfg):
    """request_samples on a prompt whose first request fails and whose
    second is answered, with the number of requests the server saw."""
    _EchoHandler.answers["p"] = "answer"
    _EchoHandler.fail_first = True
    cfg = EndpointConfig(base_url=echo_server, model_name="echo", **cfg)
    return request_samples(cfg, "p"), len(_EchoHandler.hits)


def test_not_found_fails_after_one_request(echo_server, sleeps):
    _EchoHandler.answers["p"] = "answer"
    _EchoHandler.always_fail = {"p"}
    _EchoHandler.fail_status = 404
    cfg = EndpointConfig(base_url=echo_server, model_name="echo", retries=3, backoff=0)
    with pytest.raises(RuntimeError, match="after 1 attempts: HTTP Error 404"):
        request_samples(cfg, "p")
    assert len(_EchoHandler.hits) == 1 and sleeps == []


def test_refused_connection_is_retried_then_fails(sleeps):
    cfg = EndpointConfig(
        base_url=f"http://127.0.0.1:{_closed_port()}/v1", model_name="echo", retries=2, backoff=0
    )
    with pytest.raises(RuntimeError, match="after 3 attempts"):
        request_samples(cfg, "p")
    assert sleeps == [0, 0]


@pytest.mark.parametrize(
    "body, length",
    [
        (b"not json", None),
        (b"\xff\xfe", None),  # not text
        (b'{"error": "overloaded"}', None),  # no "choices"
        (b'{"choices": [', 100),  # the connection closes before the body ends
        (b"[]", None),  # JSON, but no object
        (b"null", None),
        (b'{"choices": [1]}', None),
        (b'{"choices": [{"message": null}]}', None),
    ],
    ids=[
        "not-json", "not-text", "no-choices", "cut-short",
        "list", "null", "choice-not-object", "message-null",
    ],
)
def test_bad_replies_are_retried(echo_server, sleeps, body, length):
    _EchoHandler.fail_body, _EchoHandler.fail_length = body, length
    assert _fail_first_then_answer(echo_server, retries=1, backoff=0) == (["answer"], 2)


@pytest.mark.parametrize(
    "status, header, backoff, delay",
    [
        (429, "7", 0, 7.0),
        (503, " 7 ", 0, 7.0),
        (429, "1", 5.0, 5.0),  # the longer of header and backoff
        (500, "7", 0, 0),  # honoured on 429 and 503 only
        (429, "Wed, 21 Oct 2015 07:28:00 GMT", 0.5, 0.5),  # an HTTP-date
        (429, "soon", 0.5, 0.5),
        (429, "1e3", 0.5, 0.5),
        (429, "-3", 0.5, 0.5),
        (429, "1" + "0" * 40, 0, endpoint.MAX_RETRY_AFTER),
    ],
    ids=[
        "429-seconds", "503-seconds-padded", "backoff-longer", "500-ignored",
        "http-date", "word", "float", "negative", "huge-capped",
    ],
)
def test_retry_after_sets_the_delay(echo_server, sleeps, status, header, backoff, delay):
    # A 429 is retried like a 5xx, not failed at once like other 4xx.
    _EchoHandler.fail_status, _EchoHandler.retry_after = status, header
    assert _fail_first_then_answer(echo_server, retries=1, backoff=backoff) == (["answer"], 2)
    assert sleeps == [delay]


def test_a_short_reply_is_topped_up_with_the_missing_choices(echo_server):
    # Each request asks for every choice still missing.
    _EchoHandler.answers["p"] = "answer"
    _EchoHandler.max_choices = 1
    cfg = EndpointConfig(base_url=echo_server, model_name="echo", n_samples=3)
    assert request_samples(cfg, "p") == ["answer"] * 3
    assert _EchoHandler.asked == [3, 2, 1]


def test_a_reply_without_choices_fails(echo_server, sleeps):
    # The error names what went wrong, not the failure the retry got past.
    _EchoHandler.max_choices = 0
    with pytest.raises(RuntimeError, match="^endpoint returned no choices$"):
        _fail_first_then_answer(echo_server, n_samples=2, retries=1, backoff=0)
    assert _EchoHandler.asked == [2, 2]


def test_endpoint_config_validation():
    for setting, message in (
        (dict(n_samples=0), "n_samples must be >= 1"),
        (dict(max_parallel=0), "max_parallel must be >= 1"),
        (dict(retries=-1), "retries must be >= 0"),
        (dict(backoff=-0.5), "backoff must be finite and >= 0"),
        (dict(backoff=float("nan")), "backoff must be finite and >= 0"),
        (dict(backoff=float("inf")), "backoff must be finite and >= 0"),
        (dict(timeout=0.0), "timeout must be finite and > 0"),
        (dict(timeout=-1.0), "timeout must be finite and > 0"),
        (dict(timeout=float("nan")), "timeout must be finite and > 0"),
        (dict(timeout=float("inf")), "timeout must be finite and > 0"),
    ):
        with pytest.raises(ValueError, match=f"^{message}$"):
            EndpointConfig(base_url="http://x", model_name="m", **setting)
    # The edges are legal: no retry, no backoff.
    EndpointConfig(base_url="http://x", model_name="m", retries=0, backoff=0.0)



# ---------------------------------------------------------------------------
# SFT export


def test_sft_records_round_trip():
    insts, refs = _bench(ProblemKind.CVRP, count=2, size=9)
    rows = sft_records(insts, refs)
    assert len(rows) == 2
    for inst, row in zip(insts, rows):
        assert row["instance_id"] == inst.id
        assert row["kind"] == inst.kind.value
        tai = encode(inst)
        assert row["instruction"] == tai.instruction
        assert row["input"] == tai.input
        parsed = parse(row["output"], inst.kind)
        assert parsed.format_ok
        assert parsed.solution == refs[inst.id].solution


def test_sft_rejects_infeasible_reference():
    insts, refs = _bench(ProblemKind.TSP, count=1, size=8)
    inst = insts[0]
    from cobench.problems.types import Route

    bad = ReferenceSolution(
        instance_id=inst.id,
        solution=Route((0, 1, 0)),
        objective=1.0,
        source="heuristic:test",
    )
    with pytest.raises(ValueError, match="infeasible"):
        sft_records(insts, {inst.id: bad})


def test_sft_rejects_missing_reference():
    insts, _ = _bench(ProblemKind.TSP, count=1, size=8)
    with pytest.raises(ValueError, match=f"^missing references for: {insts[0].id}$"):
        sft_records(insts, {})


def test_export_sft_writes_one_record_per_line(tmp_path):
    insts, refs = _bench(ProblemKind.PFSP, count=2, size=6)
    out = tmp_path / "sft.jsonl"
    count = export_sft(insts, refs, out)
    assert count == 2
    lines = out.read_text(encoding="utf-8").splitlines()
    assert len(lines) == 2
    for line in lines:
        row = json.loads(line)
        assert set(row) == {"instruction", "input", "output", "kind", "instance_id"}
