"""The ACO step against its per-step form in oracles.py, draw for draw.

The package's step draws each TSP iteration's uniforms in one block, reads
candidates through a table of flat offsets, tests for a zero-total row once
per step, skips the uniform fallback for rows with no feasible column and
sums no TSP length inside the walk. None of that may move a draw, a float or
the state the generator is left in. On lists that hold every other node (21
nodes or fewer) the OP and CVRP step must also draw what the whole-row
roulette drew. The weight matrices mix ordinary rows with all-zero rows
(with and without feasible columns), rows whose weights underflow the draw,
and rows of infinite or NaN weight; the colony sizes reach the candidate
lists' used-up fallback.
"""

import numpy as np
import pytest

import oracles
from cobench.heuristics import AcoConfig, aco_solve, op_greedy, op_tsili
import cobench.heuristics.aco as aco
import cobench.heuristics.routing as routing
from cobench.heuristics.aco import CANDIDATES, candidate_chooser, candidate_offsets
from cobench.heuristics.rollout import rollout, roulette, within_budget
from cobench.problems.generate import distance_matrix
from cobench.problems.types import GM2, ProblemKind

from conftest import make_instance


def _weights(rng, rows, cols):
    """Nonnegative weights and a feasible mask, row types mixed at random."""
    w = rng.random((rows, cols)) * rng.choice([1.0, 1e3, 1e-6], size=(rows, 1))
    feasible = rng.random((rows, cols)) < rng.choice([0.1, 0.5, 0.9], size=(rows, 1))
    kind = rng.integers(0, 8, rows)
    w[kind == 1] = 0.0  # all zero, some feasible columns
    w[kind == 2] = 0.0  # all zero and nothing feasible
    feasible[kind == 2] = False
    w[kind == 3] *= 1e-320 / w[kind == 3].max(initial=1.0)  # subnormal: draws near 0
    w[kind == 4] = rng.choice([0.0, 5e-324], size=(int((kind == 4).sum()), cols))  # draws of 0 when u < 0.5
    feasible[kind == 4, 0] = True
    w[kind == 5, :1] = np.inf
    w[kind == 6, -1:] = np.nan
    w[kind == 7] *= feasible[kind == 7]  # zero outside the mask, as ACO weighs
    return w, feasible


def _state(rng):
    return rng.bit_generator.state


@pytest.mark.parametrize("seed", range(12))
@pytest.mark.parametrize("shape", [(1, 1), (1, 7), (9, 1), (50, 3), (64, 20), (100, 101)])
def test_roulette_matches_reference(shape, seed):
    w, feasible = _weights(np.random.default_rng(seed), *shape)
    got_rng, want_rng = np.random.default_rng(seed + 100), np.random.default_rng(seed + 100)
    with np.errstate(invalid="ignore"):
        want = oracles.roulette_ref(w.copy(), feasible, want_rng)
        got = roulette(w.copy(), feasible, got_rng)
    assert got.tolist() == want.tolist()
    assert _state(got_rng) == _state(want_rng)


def _colony(n, ants, seed, zero_rows=0.2, underflow_rows=0.1):
    """Coordinates, candidate lists and choice info for one TSP iteration;
    some rows of choice info are all zero and some underflow the draw."""
    rng = np.random.default_rng(seed)
    d = distance_matrix(rng.random((n, 2)))
    ci = rng.random((n, n)) / np.maximum(d, 1e-12) ** 2
    ci[rng.random(n) < zero_rows] = 0.0
    ci[rng.random(n) < underflow_rows] *= 1e-321
    np.fill_diagonal(ci, 0.0)
    return d, oracles.candidate_lists(d, CANDIDATES), ci


@pytest.mark.parametrize("n", [2, 3, 12, CANDIDATES + 1, 25, 40, 60])
@pytest.mark.parametrize("seed", range(4))
def test_candidate_chooser_walk_matches_reference(n, seed):
    # a whole iteration: every step's draw, the tours and the generator's
    # state after the n - 1 steps, which the block of uniforms must reach
    d, near, ci, ants = *_colony(n, 16, seed), 16
    offsets = candidate_offsets(near, ants)
    got_rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    want = oracles.rollout_ref(d, ants, oracles.candidate_chooser_ref(ci, near, offsets, want_rng))
    got = rollout(d, ants, candidate_chooser(ci, near, offsets, got_rng, n - 1))
    assert got.paths.tolist() == want.paths.tolist()
    assert got.length is None
    assert _state(got_rng) == _state(want_rng)


@pytest.mark.parametrize("seed", range(8))
def test_candidate_chooser_step_matches_reference(seed):
    # one step from arbitrary visited sets: used-up lists, zero-weight open
    # candidates and ordinary rows side by side; the first `ants` uniforms of
    # the block are the ones a single step draws
    n, ants = 3 * CANDIDATES, 96
    _, near, ci = _colony(n, ants, seed, zero_rows=0.3, underflow_rows=0.2)
    rng = np.random.default_rng(seed + 50)
    cur = rng.integers(0, n, ants)
    unvisited = rng.random((ants, n)) < rng.choice([0.02, 0.2, 0.8], size=(ants, 1))
    unvisited[np.arange(ants), cur] = False
    unvisited[np.arange(ants), (cur + 1) % n] = True  # a move always exists
    offsets = candidate_offsets(near, ants)
    want = oracles.candidate_chooser_ref(ci, near, offsets, np.random.default_rng(seed))(cur, unvisited)
    got = candidate_chooser(ci, near, offsets, np.random.default_rng(seed), n - 1)(cur, unvisited)
    assert got.tolist() == want.tolist()


def _step_pair(ci, near, cur, mask, seed):
    """One per-step draw of the chooser and of its reference from one seed."""
    offsets = candidate_offsets(near, len(cur))
    got_rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    want = oracles.candidate_chooser_ref(ci, near, offsets, want_rng)(cur, mask)
    got = candidate_chooser(ci, near, offsets, got_rng, None)(cur, mask)
    assert _state(got_rng) == _state(want_rng)
    return got, want


@pytest.mark.parametrize("seed", range(4))
def test_candidate_chooser_feasible_only_off_list_takes_best_feasible(seed):
    # a capacity mask that rules out every candidate but leaves nodes off the
    # list open: the ant takes its feasible node of largest choice info, a tie
    # going to the lower id
    n, ants = 3 * CANDIDATES, 24
    _, near, ci = _colony(n, ants, seed, zero_rows=0.0, underflow_rows=0.0)
    rng = np.random.default_rng(seed + 30)
    cur = rng.permutation(n)[:ants]  # one ant per node, so each edits its own row of ci
    mask = np.zeros((ants, n), dtype=bool)
    expected = []
    for a in range(ants):
        off_list = np.setdiff1d(np.arange(n), np.append(near[cur[a]], cur[a]))
        left = rng.choice(off_list, size=5, replace=False)
        mask[a, left] = True
        ci[cur[a], left[:2]] = ci[cur[a], left].max() + 1.0
        expected.append(int(min(left[:2])))
    got, want = _step_pair(ci, near, cur, mask, seed)
    assert got.tolist() == want.tolist() == expected


@pytest.mark.parametrize("seed", range(4))
def test_candidate_chooser_row_with_no_feasible_node(seed):
    # an ant that cannot move still uses up its uniform and gets node 0,
    # which the rollout discards; every other ant takes a feasible node
    n, ants = 3 * CANDIDATES, 32
    _, near, ci = _colony(n, ants, seed)
    rng = np.random.default_rng(seed + 40)
    cur = rng.integers(0, n, ants)
    mask = rng.random((ants, n)) < 0.5
    mask[np.arange(ants), cur] = False
    mask[np.arange(ants), (cur + 1) % n] = True
    stuck = rng.random(ants) < 0.5
    stuck[0] = True
    mask[stuck] = False
    got, want = _step_pair(ci, near, cur, mask, seed)
    assert got.tolist() == want.tolist()
    assert (got[stuck] == 0).all() and mask[~stuck, got[~stuck]].all()


@pytest.mark.parametrize("seed", range(6))
def test_masked_chooser_matches_reference(seed):
    # under a feasibility mask, on lists that hold every other node, the
    # chooser is the whole-row roulette OP and CVRP drew before lists
    n, ants = CANDIDATES + 1, 40
    _, near, ci = _colony(n, ants, seed, zero_rows=0.3, underflow_rows=0.2)
    rng = np.random.default_rng(seed + 7)
    cur = rng.integers(0, n, ants)
    mask = rng.random((ants, n)) < rng.choice([0.0, 0.1, 0.6], size=(ants, 1))
    mask[np.arange(ants), cur] = False  # the node an ant stands on is visited
    got_rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    want = oracles.masked_chooser_ref(ci, want_rng)(cur, mask)
    got = candidate_chooser(ci, near, candidate_offsets(near, ants), got_rng, None)(cur, mask)
    assert got.tolist() == want.tolist()
    assert _state(got_rng) == _state(want_rng)


@pytest.mark.parametrize("reload", [False, True])
@pytest.mark.parametrize("seed", range(4))
def test_masked_rollout_matches_reference(reload, seed):
    # every field of the walks: a budget walk that stops ants for good, or a
    # capacity walk that reloads; on whole-row lists the chooser must draw
    # what the whole-row roulette drew
    n, ants = CANDIDATES + 1, 12
    d, near, ci = _colony(n, ants, seed, zero_rows=0.2, underflow_rows=0.1)
    gain = np.random.default_rng(seed).integers(0, 4, n).astype(float)
    if reload:
        def feasible(cur, unvisited, length, load):
            return unvisited & (gain <= 6.0 - load[:, None])
    else:
        feasible = within_budget(d, 1.5 + seed / 2)
    offsets = candidate_offsets(near, ants)
    walks = {}
    for name, walk, chooser in (
        ("want", oracles.rollout_ref, lambda rng: oracles.masked_chooser_ref(ci, rng)),
        ("got", rollout, lambda rng: candidate_chooser(ci, near, offsets, rng, None)),
    ):
        rng = np.random.default_rng(seed)
        walks[name] = walk(d, ants, chooser(rng), feasible, gain, reload), _state(rng)
    (want, want_state), (got, got_state) = walks["want"], walks["got"]
    for field in want._fields:
        assert getattr(got, field).tolist() == getattr(want, field).tolist(), field
    assert got_state == want_state


@pytest.fixture
def reference_step(monkeypatch):
    """Run aco_solve and the OP walks on the per-step form of the ACO step."""
    monkeypatch.setattr(aco, "rollout", oracles.rollout_ref)
    monkeypatch.setattr(aco, "candidate_chooser", oracles.candidate_chooser_ref)
    monkeypatch.setattr(routing, "rollout", oracles.rollout_ref)
    monkeypatch.setattr(routing, "roulette", oracles.roulette_ref)
    return monkeypatch


def _both(reference_step, solve):
    """`solve()` on the reference step, then on the package's step."""
    want = repr(solve())
    reference_step.undo()
    return want, repr(solve())


@pytest.mark.parametrize("n", range(25, 61, 5))
def test_aco_tsp_colony_matches_reference(reference_step, n):
    inst = make_instance(ProblemKind.TSP, size=n, seed=n, **({"distribution": GM2} if n % 10 else {}))
    want, got = _both(reference_step, lambda: aco_solve(inst, AcoConfig(ants=12, iterations=10, seed=n)))
    assert got == want


@pytest.mark.parametrize(
    "kind,n,gen,ants",
    [
        (ProblemKind.OP, 20, {}, 10),
        (ProblemKind.OP, 35, dict(prize_range=(0, 2)), 10),  # zero-prize nodes: all-zero rows
        (ProblemKind.CVRP, 15, {}, 10),
        (ProblemKind.CVRP, 30, dict(demand_range=(5, 9)), 10),  # many reloads
        # every ant stuck at once: a lone ant, and equal demands that fill
        # every vehicle after the same number of customers
        (ProblemKind.CVRP, 20, {}, 1),
        (ProblemKind.CVRP, 20, dict(demand_range=(5, 5)), 6),
    ],
)
def test_aco_op_cvrp_colony_matches_reference(reference_step, kind, n, gen, ants):
    inst = make_instance(kind, size=n, seed=n, **gen)
    want, got = _both(reference_step, lambda: aco_solve(inst, AcoConfig(ants=ants, iterations=8, seed=n)))
    assert got == want


@pytest.mark.parametrize("n,gen", [(12, {}), (30, dict(prize_range=(0, 2)))])
def test_op_walks_match_reference(reference_step, n, gen):
    inst = make_instance(ProblemKind.OP, size=n, seed=n, **gen)
    want, got = _both(reference_step, lambda: (op_tsili(inst, samples=48, seed=n), op_greedy(inst)))
    assert got == want
