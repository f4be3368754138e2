"""Budgeted two-phase model selection over a synthetic model space.

Phase one scores cheap proxies over genomes found by regularized evolution
until N models are scored; phase two trains the top K by `successive_halving`,
keeping the top 1/eta each round by (-score, tie key), then by list order. The
adapter's filter, `cc_adaptive.filter_phase`, is one round of the same loop.
A planner derives (N, K, U) from a hard response-time budget up front, so a
run can never overshoot it: simulated cost is charged per score and per epoch
and both phases stop at their planned counts.

The model space hides a ground-truth quality per genome behind the scorer and
trainer interfaces. Quality is separable across genome coordinates, which
gives mutation-based search real signal and makes the brute-force optimum
cheap to compute for oracle checks.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from . import rng as rnglib

POPULATION_SIZE = 16   # evolution queue length
SAMPLE_SIZE = 4        # population members sampled per mutation step
DEDUP_TRIES = 16       # random redraws for a duplicate before enumerating
SCORE_LABEL = "proxy"  # RNG label of the scorer's noise stream


class InfeasibleBudget(Exception):
    """The budget cannot pay for even one scored model and one training epoch."""


@dataclass(frozen=True)
class ModelGenome:
    genome_id: int
    params: tuple[int, ...]


class ModelSpace:
    """Integer-box genome space with hidden per-genome quality and curve rate.

    a_final averages per-coordinate contribution tables drawn once from the
    space seed, so it lies in [0, 1] and the global optimum is the per-
    coordinate argmax. tau sets how fast the training curve approaches
    a_final. Selection code must only reach these through a scorer/trainer.
    """

    def __init__(self, dims: tuple[int, ...], seed: int = 0,
                 tau_range: tuple[float, float] = (2.0, 8.0)):
        if not dims or any(d < 1 for d in dims):
            raise ValueError("dims must be positive")
        self.dims = tuple(int(d) for d in dims)
        self.seed = seed
        self.tau_range = tau_range
        gen = rnglib.derive(seed, "space")
        self._contrib = [gen.random(d) for d in self.dims]

    @property
    def size(self) -> int:
        return math.prod(self.dims)

    def genome(self, params: tuple[int, ...]) -> ModelGenome:
        self._check(params)
        gid = 0
        for value, dim in zip(params, self.dims):
            gid = gid * dim + value
        return ModelGenome(gid, tuple(params))

    def _check(self, params) -> None:
        if len(params) != len(self.dims):
            raise ValueError("wrong genome length")
        if any(not 0 <= v < d for v, d in zip(params, self.dims)):
            raise ValueError(f"genome {params} out of bounds")

    def random_params(self, gen) -> tuple[int, ...]:
        return tuple(int(gen.integers(0, d)) for d in self.dims)

    def mutate_params(self, params: tuple[int, ...], gen) -> tuple[int, ...]:
        """Resample one coordinate to a different value (when possible)."""
        idx = int(gen.integers(0, len(self.dims)))
        if self.dims[idx] == 1:
            return tuple(params)
        new = int(gen.integers(0, self.dims[idx] - 1))
        if new >= params[idx]:
            new += 1
        out = list(params)
        out[idx] = new
        return tuple(out)

    def enumerate_params(self):
        return itertools.product(*(range(d) for d in self.dims))

    # hidden ground truth; selection code must not call these directly
    def a_final(self, params: tuple[int, ...]) -> float:
        self._check(params)
        return float(sum(t[v] for t, v in zip(self._contrib, params)) / len(self.dims))

    def tau(self, params: tuple[int, ...]) -> float:
        lo, hi = self.tau_range
        u = rnglib.derive(self.seed, "tau", params).random()
        return lo + (hi - lo) * float(u)

    def oracle_best(self) -> ModelGenome:
        """Brute-force argmax of the hidden quality; test/report oracle only."""
        best = tuple(int(t.argmax()) for t in self._contrib)
        return self.genome(best)


@dataclass(frozen=True)
class ProxyScorer:
    """score = rho * a_final + (1 - rho) * sigma-scaled unit noise."""

    space: ModelSpace
    rho: float = 1.0
    sigma: float = 0.0
    cost: float = 1.0

    def score(self, params: tuple[int, ...]) -> float:
        value = self.rho * self.space.a_final(params)
        if self.rho < 1.0:
            noise = rnglib.derive(self.space.seed, "score", SCORE_LABEL, params)
            value += (1.0 - self.rho) * self.sigma * float(noise.standard_normal())
        return value


class Trainer:
    """Exponential-saturation training curves with optional observation noise.

    Accuracy after u cumulative epochs is a_final * (1 - exp(-u / tau)) plus
    noise, so it starts at zero and approaches the hidden quality; ranking by
    trained accuracy therefore converges to ranking by quality. Each charged
    epoch optionally pulls one batch from a data source to overlap data
    preparation with the (simulated) training cost.
    """

    def __init__(self, space: ModelSpace, cost_per_epoch: float = 1.0,
                 noise_sigma: float = 0.0, data_source=None):
        self.space = space
        self.cost_per_epoch = cost_per_epoch
        self.noise_sigma = noise_sigma
        self.data_source = data_source
        self.batches_consumed = 0
        # tau per genome, derived once per trainer; a trainer serves one
        # select run, so no draw outlives it
        self._tau: dict[tuple[int, ...], float] = {}

    def charge(self, epochs: int) -> None:
        if self.data_source is None:
            self.batches_consumed += epochs
            return
        for _ in range(epochs):
            self.data_source()
            self.batches_consumed += 1

    def accuracy(self, params: tuple[int, ...], cumulative_epochs: float) -> float:
        tau = self._tau.get(params)
        if tau is None:
            tau = self._tau[params] = self.space.tau(params)
        base = self.space.a_final(params) * (1.0 - math.exp(-cumulative_epochs / tau))
        if self.noise_sigma > 0.0:
            noise = rnglib.derive(self.space.seed, "train", params,
                                  round(cumulative_epochs, 6))
            base += self.noise_sigma * float(noise.standard_normal())
        return base


def halving_schedule(k: int, initial_epochs: int, eta: int) -> list[tuple[int, int]]:
    """(models trained, epochs each) of every successive-halving round on k.

    Each round keeps the top ceil(count / eta) and trains them eta times
    longer; the schedule ends when one model would remain, e.g. k = 125,
    eta = 5 gives [(125, 1), (25, 5), (5, 25)].
    """
    rounds = [(k, initial_epochs)]
    while (k := -(-k // eta)) > 1:
        rounds.append((k, rounds[-1][1] * eta))
    return rounds


def successive_halving(candidates: list, rounds: list, evaluate, tie_key) -> list[list]:
    """The candidates, then the survivors of each round that cuts them.

    Round r scores every survivor with `evaluate(candidate, r)` and keeps the
    next round's count, or one after the last round, ranked by
    `(-score, tie_key(candidate))`; the stable sort leaves remaining ties to
    the earlier candidate. Scores are kept by position: a candidate may repeat.
    """
    survivors = [list(candidates)]
    for r, (keep, _) in enumerate(rounds[1:] + [(1, 0)]):
        pool = survivors[-1]
        scores = [evaluate(candidate, r) for candidate in pool]
        if keep < len(pool):
            order = sorted(range(len(pool)), key=lambda i: (-scores[i], tie_key(pool[i])))
            survivors.append([pool[i] for i in order[:keep]])
    return survivors


def schedule_epochs(k: int, initial_epochs: int, eta: int) -> int:
    return sum(count * epochs for count, epochs in halving_schedule(k, initial_epochs, eta))


@dataclass(frozen=True)
class SelectionPlan:
    budget: float
    n_to_score: int
    candidate_size: int
    initial_epochs: int
    eta: int
    filter_fraction: float
    score_cost: float
    epoch_cost: float

    @property
    def planned_filter_cost(self) -> float:
        return self.n_to_score * self.score_cost

    @property
    def planned_refine_cost(self) -> float:
        return schedule_epochs(self.candidate_size, self.initial_epochs,
                               self.eta) * self.epoch_cost


def plan_budget(budget: float, space_size: int, score_cost: float, epoch_cost: float,
                eta: int = 2, filter_fraction: float = 0.2,
                initial_epochs: int = 1) -> SelectionPlan:
    """N models to score (at most the space size) and the largest eta-power
    shortlist K <= N whose halving schedule fits the rest of the budget."""
    if budget <= 0 or score_cost <= 0 or epoch_cost <= 0:
        raise ValueError("budget and costs must be positive")
    if eta < 2:
        raise ValueError("eta must be >= 2")
    if not 0.0 < filter_fraction < 1.0:
        raise ValueError("filter_fraction must be in (0, 1)")

    n = int(min(filter_fraction * budget / score_cost, space_size))  # the ratio may be inf
    if n < 1:
        raise InfeasibleBudget("filter budget cannot pay for one score")
    refine_budget = (1.0 - filter_fraction) * budget
    k, best = 1, None
    while k <= n:
        if schedule_epochs(k, initial_epochs, eta) * epoch_cost <= refine_budget:
            best = k
        k *= eta
    if best is None:
        raise InfeasibleBudget("refine budget cannot pay for one training run")
    return SelectionPlan(budget, n, best, initial_epochs, eta, filter_fraction,
                         score_cost, epoch_cost)


@dataclass(frozen=True)
class ScoredModel:
    genome: ModelGenome
    score: float


def explore_and_score(space: ModelSpace, scorer, n: int,
                      seed: int = 0) -> list[ScoredModel]:
    """Regularized evolution until n distinct genomes are scored.

    A queue-shaped population holds the most recent genomes; each step samples
    a few members, mutates the best-scoring sample, scores the child, and
    evicts the oldest. Every draw comes from one RNG stream derived from the
    seed, so a seed replays deterministically.
    Duplicate proposals fall back to fresh random genomes, then to the first
    unscored genome in enumeration order, so small spaces get fully covered.
    n is capped at the space size.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    n = min(n, space.size)
    # the trailing 0 keeps the stream that pinned outputs were drawn from
    gen = rnglib.derive(seed, "explore", 0)

    seen: dict[tuple[int, ...], float] = {}
    scored: list[ScoredModel] = []
    population: list[ScoredModel] = []

    def admit(params) -> None:
        params = _dedup(params, seen, space, gen)
        model = ScoredModel(space.genome(params), scorer.score(params))
        seen[params] = model.score
        scored.append(model)
        population.append(model)
        if len(population) > POPULATION_SIZE:
            population.pop(0)

    while len(scored) < n:
        if len(scored) < min(POPULATION_SIZE, n):
            admit(space.random_params(gen))
            continue
        picks = gen.choice(len(population), size=min(SAMPLE_SIZE, len(population)),
                           replace=False)
        parent = max((population[int(i)] for i in picks),
                     key=lambda m: (m.score, -m.genome.genome_id))
        admit(space.mutate_params(parent.genome.params, gen))
    return scored


def _dedup(params, seen, space, gen):
    if params not in seen:
        return params
    for _ in range(DEDUP_TRIES):
        cand = space.random_params(gen)
        if cand not in seen:
            return cand
    for cand in space.enumerate_params():
        if tuple(cand) not in seen:
            return tuple(cand)
    raise RuntimeError("space exhausted")  # unreachable: n is capped at size


def take_candidates(scored: list[ScoredModel], k: int) -> list[ScoredModel]:
    """Top k by score; ties break toward the lower genome id."""
    if len(scored) < k:
        raise ValueError(f"need at least {k} scored models, have {len(scored)}")
    ranked = sorted(scored, key=lambda m: (-m.score, m.genome.genome_id))
    return ranked[:k]


@dataclass
class RefineOutcome:
    winner: ModelGenome
    epochs_charged: int
    survivor_history: list[int]


def refine(candidates: list[ScoredModel], initial_epochs: int, eta: int,
           trainer: Trainer) -> RefineOutcome:
    """Successive halving on `halving_schedule` with cumulative training: round
    r ranks by accuracy after the schedule's running total of epochs, ties
    toward the lower genome id."""
    if not candidates:
        raise ValueError("empty candidate set")
    rounds = halving_schedule(len(candidates), initial_epochs, eta)
    trained = list(itertools.accumulate(epochs for _, epochs in rounds))

    def evaluate(genome: ModelGenome, r: int) -> float:
        trainer.charge(rounds[r][1])
        return trainer.accuracy(genome.params, trained[r])

    survivors = successive_halving([m.genome for m in candidates], rounds, evaluate,
                                   lambda g: g.genome_id)
    return RefineOutcome(survivors[-1][0], sum(count * epochs for count, epochs in rounds),
                         [len(s) for s in survivors])


@dataclass
class SelectionResult:
    genome: ModelGenome
    elapsed: float
    filter_cost: float
    refine_cost: float
    plan: SelectionPlan
    scored_count: int
    epochs_charged: int
    survivor_history: list[int]


def select(space: ModelSpace, scorer, trainer: Trainer, budget: float,
           eta: int = 2, filter_fraction: float = 0.2, initial_epochs: int = 1,
           seed: int = 0) -> SelectionResult:
    """Plan, score, shortlist, and halve; simulated cost never exceeds budget."""
    plan = plan_budget(budget, space.size, scorer.cost, trainer.cost_per_epoch,
                       eta, filter_fraction, initial_epochs)
    scored = explore_and_score(space, scorer, plan.n_to_score, seed)
    candidates = take_candidates(scored, plan.candidate_size)
    outcome = refine(candidates, initial_epochs, eta, trainer)

    filter_cost = len(scored) * scorer.cost
    refine_cost = outcome.epochs_charged * trainer.cost_per_epoch
    elapsed = filter_cost + refine_cost
    assert elapsed <= budget + 1e-9, "budget overshoot"
    return SelectionResult(outcome.winner, elapsed, filter_cost, refine_cost,
                           plan, len(scored), outcome.epochs_charged,
                           outcome.survivor_history)


def oracle_regret(space: ModelSpace, genome: ModelGenome) -> float:
    """Quality gap to the brute-force optimum; reporting/test oracle only."""
    return space.a_final(space.oracle_best().params) - space.a_final(genome.params)
