#!/usr/bin/env python3
"""Diversify query plans by perturbing cardinality estimates, then let a
bandit find the fastest candidate online.

The catalog underestimates the C-D join selectivity by 100x, so the base
plan chases that join far too eagerly and lands well off the true optimum.
Re-optimizing under multiplicative mutations of the estimate vector yields
a candidate set containing a near-optimal plan, measured against the same
DP run under the true cardinalities, and the selector converges onto it from
latency feedback alone.
"""

from frpkernel import rng as rnglib
from frpkernel.plan_opt import (
    Catalog,
    MutationGrid,
    Query,
    RelStats,
    SelectorState,
    feedback,
    gen_candidates,
    optimize_base,
    select_plan,
    simulate_latency,
    true_cost,
    true_vector,
)

catalog = Catalog(
    relations={
        "A": RelStats(1000, 1000),
        "B": RelStats(100, 100),
        "C": RelStats(100, 100),
        "D": RelStats(1000, 1000),
    },
    selectivities={
        ("A", "B"): (0.01, 0.01),
        ("B", "C"): (0.0001, 0.0001),
        ("C", "D"): (0.01, 0.0001),   # true vs estimated: off by 100x
    },
)
query = Query(("A", "B", "C", "D"), (("A", "B"), ("B", "C"), ("C", "D")))

plans = gen_candidates(query, catalog, n_plans=20, grid=MutationGrid(), seed=1)
costs = [true_cost(p, catalog) for p in plans]
best = min(costs)
print(f"{len(plans)} distinct candidates (base first):")
for i, (plan, cost) in enumerate(zip(plans, costs)):
    marker = "  <- base" if i == 0 else (" <- best" if cost == best else "")
    print(f"  plan {i:2d}  true cost {cost:10.1f}  {plan.key()}{marker}")
print(f"\nbase plan is {costs[0] / best:.1f}x the best candidate's true cost")
# the same DP under the true cardinalities: the plan no estimate error spoils
optimum = true_cost(optimize_base(query, catalog, true_vector(query, catalog)), catalog)
print(f"best candidate is {best / optimum:.2f}x the true optimum ({optimum:.1f})")

state = SelectorState()
gen = rnglib.derive(5, "demo-optd")
pulls = [0] * len(plans)
for episode in range(300):
    plan = select_plan(query.template_id, plans, state)
    latency = simulate_latency(plan, catalog, gen, noise_frac=0.05)
    feedback(query.template_id, plan, latency, state)
    pulls[plans.index(plan)] += 1

print("\nbandit pulls after 300 episodes:")
for i, count in enumerate(pulls):
    if count:
        print(f"  plan {i:2d}: {count:3d} pulls  (true cost {costs[i]:.1f})")
print(f"most-pulled plan is the true-cost best: "
      f"{costs[max(range(len(plans)), key=pulls.__getitem__)] == best}")
