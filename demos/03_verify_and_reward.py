"""From model text to a scalar reward.

Takes one OP instance and three candidate responses (a perfect echo, a
feasible-but-worse tour, unparseable prose), then scores each one with
build_candidate (parse, check, recomputed objective) and pays its reward
exactly the way the training loop would, ending with the group advantages
and the clipped policy surrogate.
"""

import numpy as np

from cobench import GenConfig, ProblemKind, gen_instance
from cobench.evalharness import build_candidate
from cobench.heuristics import solve
from cobench.rewards import (
    RewardConfig,
    feasibility_reward,
    group_advantages,
    grpo_surrogate,
    total_reward,
)
from cobench.tai.render import format_solution

inst = gen_instance(ProblemKind.OP, GenConfig(seed=9, size_range=(10, 10)))
ref = solve(inst, "tsili", seed=0)
print(f"{inst.id}: reference prize {ref.objective.value:.0f} via {ref.method}")

perfect = format_solution(inst.kind, ref.solution, ref.objective.value)
# Drop the last visited node: still a valid prefix tour, just fewer prizes.
worse_nodes = ref.solution.nodes[:-1]
worse = format_solution(inst.kind, type(ref.solution)(worse_nodes), None)
prose = "After careful thought I believe the answer is all of them."

cfg = RewardConfig()
rewards = []
for label, text in (("perfect", perfect), ("shorter", worse), ("prose", prose)):
    # One call parses, checks and values the answer. Text that does not parse
    # fails every gate, and only a feasible answer keeps its objective.
    cand = build_candidate(inst, text)
    report, value = cand.report, cand.objective
    r_f = feasibility_reward(inst.kind, report)
    r = total_reward(inst.kind, report, value, ref.objective.value, cfg)
    rewards.append(r)
    flags = "".join("1" if ok else "0" for _, ok in report.constraints)
    print(f"  {label:8s} zeta={int(report.zeta)} constraints={flags} "
          f"value={value} R_f={r_f:.2f} total={r:.3f}")

# One extra sample so the group has spread, then the GRPO-side math.
group = np.array(rewards + [rewards[0]])
adv = group_advantages(group)
ratios = np.array([1.02, 0.97, 1.30, 1.0])  # pretend policy ratios
surr = grpo_surrogate(ratios, adv, kl=0.01, cfg=cfg)
print(f"\ngroup rewards  {np.round(group, 3)}")
print(f"advantages     {np.round(adv, 3)}")
print(f"surrogate      {surr:.4f} (ratio 1.30 clipped at {1 + cfg.epsilon_clip})")
