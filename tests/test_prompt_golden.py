"""Seeded-output golden for the prompts that encode() and render_prompt() make.

The digest pins every byte of render_prompt(encode(inst, k)) and the answer
grammar for every kind at degenerate (2-3 node), small, middle and top
sizes, over uniform, Gaussian-mixture and mixed coordinates, ER and BA
graphs, rectangular scheduling shapes, and k in {1, 2, 3, 7}. A change to
the text layer that is meant to keep the prompts must keep it.
"""

import hashlib

from cobench import encode, render_prompt
from cobench.problems.types import (
    GM2,
    GRAPH_KINDS,
    MIXED,
    ROUTING_KINDS,
    UNIFORM,
    GraphFamily,
    ProblemKind,
)

from conftest import ALL_KINDS, make_instance

NODE_SIZES = (2, 3, 10, 55, 100)
SCHEDULING_SIZES = (2, 3, 5, 12, 20)
KS = (1, 2, 3, 7)

GOLDEN = "5bb940c0391aec2c"


def _instances():
    for kind in ALL_KINDS:
        if kind in ROUTING_KINDS:
            for dist in (UNIFORM, GM2, MIXED):
                for size in NODE_SIZES:
                    yield make_instance(kind, size=size, seed=size, distribution=dist)
        elif kind in GRAPH_KINDS:
            for family in GraphFamily:
                for size in NODE_SIZES:
                    yield make_instance(kind, size=size, seed=size, graph_family=family)
        else:
            for size in SCHEDULING_SIZES:
                yield make_instance(kind, size=size, seed=size)
            # Drawn J and M differ: rectangular instances.
            for seed in range(3):
                yield make_instance(kind, seed=seed, size_range=(2, 20))


def test_prompts_seeded_outputs():
    h = hashlib.sha256()
    count = 0
    kinds = set()
    for inst in _instances():
        for k in KS:
            tai = encode(inst, k)
            prompt = render_prompt(tai)
            h.update(repr((inst.id, k, prompt, tai.expected_output_grammar.value)).encode())
            count += 1
            kinds.add(tai.kind)
    assert kinds == set(ProblemKind)
    assert count == 4 * (3 * 3 * 5 + 2 * 2 * 5 + 2 * 8)
    assert h.hexdigest()[:16] == GOLDEN
