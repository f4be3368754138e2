#!/usr/bin/env python3
"""Walk a response-time budget ladder and watch selection quality improve.

Each run plans (N, K, U) from the budget up front, scores N genomes with a
noisy proxy, then successive-halves the top K. The hidden-quality oracle is
only used afterwards to report regret.
"""

import statistics

from frpkernel.model_select import (
    ModelSpace,
    ProxyScorer,
    Trainer,
    oracle_regret,
    plan_budget,
    select,
)

SEEDS = 20
LADDER = [50.0, 100.0, 200.0, 400.0, 800.0]
DIMS = (4, 4, 4, 4)

print("plan derived from each budget (score_cost=1, epoch_cost=1, phi=0.2):")
for budget in LADDER:
    plan = plan_budget(budget, ModelSpace(DIMS).size, score_cost=1.0, epoch_cost=1.0)
    print(f"  T={budget:6.0f}  ->  score N={plan.n_to_score:3d}  "
          f"shortlist K={plan.candidate_size:2d}  "
          f"planned cost={plan.planned_filter_cost + plan.planned_refine_cost:.0f}")

print(f"\nmean regret vs brute-force optimum over {SEEDS} seeds:")
for budget in LADDER:
    regrets, elapsed = [], []
    for seed in range(SEEDS):
        space = ModelSpace(DIMS, seed=seed)
        scorer = ProxyScorer(space, rho=0.9, sigma=0.1)
        trainer = Trainer(space, noise_sigma=0.05)
        result = select(space, scorer, trainer, budget, seed=seed)
        regrets.append(oracle_regret(space, result.genome))
        elapsed.append(result.elapsed)
    print(f"  T={budget:6.0f}  regret={statistics.mean(regrets):.4f}  "
          f"max elapsed={max(elapsed):6.1f}  (always <= T)")

# one run in detail: where the budget went
space = ModelSpace(DIMS, seed=3)
result = select(space, ProxyScorer(space, rho=0.9, sigma=0.1),
                Trainer(space, noise_sigma=0.05), budget=400.0, seed=3)
print(f"\nanatomy of one T=400 run:")
print(f"  scored {result.scored_count} genomes "
      f"(filter cost {result.filter_cost:.0f})")
print(f"  halving survivors {result.survivor_history}, "
      f"{result.epochs_charged} epochs (refine cost {result.refine_cost:.0f})")
print(f"  picked genome {result.genome.params}, "
      f"regret {oracle_regret(space, result.genome):.4f}")
