import itertools
import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from frpkernel import rng as rnglib
from frpkernel.model_select import (
    InfeasibleBudget,
    ModelGenome,
    ModelSpace,
    ProxyScorer,
    RefineOutcome,
    ScoredModel,
    Trainer,
    explore_and_score,
    halving_schedule,
    oracle_regret,
    plan_budget,
    refine,
    schedule_epochs,
    select,
    take_candidates,
)


# a space size large enough never to cap the planned number of scores
UNCAPPED = 10**6


def small_space(seed=0, dims=(3, 3, 3), tau_range=(2.0, 8.0)):
    return ModelSpace(dims, seed=seed, tau_range=tau_range)


def brute_force_best(space):
    """Independent oracle: enumerate every genome and take the quality argmax."""
    return max(space.enumerate_params(), key=lambda p: (space.a_final(p),))


# -- space ----------------------------------------------------------------

def test_space_quality_bounded_and_deterministic():
    space = small_space()
    for params in space.enumerate_params():
        a = space.a_final(params)
        assert 0.0 <= a <= 1.0
        assert space.a_final(params) == a
        assert space.tau(params) > 0


def test_oracle_best_matches_enumeration():
    for seed in range(5):
        space = small_space(seed=seed)
        assert space.oracle_best().params == brute_force_best(space)


def test_genome_ids_are_enumeration_ranks():
    space = small_space(dims=(2, 3))
    ids = [space.genome(p).genome_id for p in space.enumerate_params()]
    assert ids == list(range(6))


def test_mutation_changes_exactly_one_coordinate():
    space = small_space(dims=(4, 4, 4, 4))
    from frpkernel import rng as rnglib

    gen = rnglib.derive(0, "mut")
    params = (1, 2, 3, 0)
    for _ in range(50):
        child = space.mutate_params(params, gen)
        assert sum(a != b for a, b in zip(child, params)) == 1


# -- scorer / trainer ----------------------------------------------------------

def test_exact_scorer_returns_quality():
    space = small_space()
    scorer = ProxyScorer(space, rho=1.0, sigma=0.0)
    for params in space.enumerate_params():
        assert scorer.score(params) == space.a_final(params)


def test_noisy_scorer_deterministic_per_genome():
    space = small_space()
    scorer = ProxyScorer(space, rho=0.7, sigma=0.5)
    assert scorer.score((0, 1, 2)) == scorer.score((0, 1, 2))


def test_training_curve_starts_at_zero_and_saturates():
    space = small_space(tau_range=(4.0, 4.0))
    trainer = Trainer(space)
    params = (2, 0, 1)
    assert trainer.accuracy(params, 0) == 0.0
    assert trainer.accuracy(params, 1000) == pytest.approx(space.a_final(params))
    accs = [trainer.accuracy(params, u) for u in range(0, 30, 3)]
    assert accs == sorted(accs)


# -- plan_budget -------------------------------------------------------------

def test_plan_boundary_single_score_single_epoch():
    plan = plan_budget(2.0, UNCAPPED, score_cost=1.0, epoch_cost=1.0, filter_fraction=0.5)
    assert (plan.n_to_score, plan.candidate_size) == (1, 1)
    assert plan.planned_filter_cost + plan.planned_refine_cost <= 2.0


def test_plan_two_hour_budget():
    # 7200 time units, 2 per score, 30 per epoch: frozen from the planner rules
    # N = floor(0.2 * 7200 / 2) and the largest eta-power K whose halving
    # epochs fit the remaining 5760.
    plan = plan_budget(7200.0, UNCAPPED, score_cost=2.0, epoch_cost=30.0,
                       eta=2, filter_fraction=0.2)
    assert plan.n_to_score == 720
    assert plan.candidate_size == 32
    assert plan.planned_filter_cost + plan.planned_refine_cost <= 7200.0


def test_plan_doubling_budget_doubles_n():
    for budget in (50.0, 130.0, 777.0):
        n1 = plan_budget(budget, UNCAPPED, 1.0, 1.0).n_to_score
        n2 = plan_budget(2 * budget, UNCAPPED, 1.0, 1.0).n_to_score
        assert n2 >= 2 * n1


def test_plan_infeasible_budget_raises():
    with pytest.raises(InfeasibleBudget):
        plan_budget(0.5, UNCAPPED, score_cost=1.0, epoch_cost=1.0)
    with pytest.raises(InfeasibleBudget):
        # scores fit but no training run does
        plan_budget(10.0, UNCAPPED, score_cost=0.1, epoch_cost=100.0)


def test_plan_caps_an_infinite_score_count_at_the_space_size():
    # 0.2 * 1e308 / 1e-300 overflows to inf, which int() cannot convert
    plan = plan_budget(1.0e308, 256, score_cost=1.0e-300, epoch_cost=1.0)
    assert plan.n_to_score == 256
    assert plan.candidate_size == 256


def test_plan_shortlist_is_exact_at_eta_5_and_6():
    # math.log(125, 5) and math.log(216, 6) round just above 3: a price of
    # k * e * ceil(log_eta k) in floating point is one round too high here
    plan = plan_budget(500.0, UNCAPPED, 1.0, 1.0, eta=5, filter_fraction=0.25)
    assert (plan.n_to_score, plan.candidate_size) == (125, 125)
    assert plan.planned_refine_cost == 375.0   # (125, 1), (25, 5), (5, 25)
    plan = plan_budget(1000.0, UNCAPPED, 1.0, 1.0, eta=6, filter_fraction=0.3)
    assert plan.candidate_size == 216
    assert plan.planned_refine_cost == 648.0   # (216, 1), (36, 6), (6, 36)


# -- explore_and_score -----------------------------------------------------------

def test_explore_single_model():
    space = small_space()
    scorer = ProxyScorer(space)
    scored = explore_and_score(space, scorer, n=1, seed=4)
    assert len(scored) == 1
    assert scored[0].score == space.a_final(scored[0].genome.params)


def test_explore_full_coverage_finds_argmax():
    space = small_space(dims=(3, 3, 3))
    scorer = ProxyScorer(space, rho=1.0, sigma=0.0)
    scored = explore_and_score(space, scorer, n=27, seed=9)
    assert len(scored) == 27
    assert len({m.genome.genome_id for m in scored}) == 27
    best = max(scored, key=lambda m: m.score)
    assert best.genome.params == brute_force_best(space)


def test_explore_caps_n_at_space_size():
    space = small_space(dims=(2, 2))
    scored = explore_and_score(space, ProxyScorer(space), n=100, seed=0)
    assert len(scored) == 4


def test_explore_deterministic_per_seed():
    space = small_space(dims=(4, 4, 4))
    scorer = ProxyScorer(space, rho=0.8, sigma=0.2)
    assert (explore_and_score(space, scorer, n=20, seed=7)
            == explore_and_score(space, scorer, n=20, seed=7))


# -- take_candidates ---------------------------------------------------------------

def fake_scored(scores):
    space = small_space(dims=(len(scores),))
    return [ScoredModel(space.genome((i,)), s) for i, s in enumerate(scores)]


def test_take_candidates_identity_when_k_equals_size():
    scored = fake_scored([0.3, 0.9, 0.1])
    assert {m.genome.genome_id for m in take_candidates(scored, 3)} == {0, 1, 2}


def test_take_candidates_ordering():
    scored = fake_scored([0.9, 0.5, 0.7])
    top = take_candidates(scored, 2)
    assert [m.score for m in top] == [0.9, 0.7]


def test_take_candidates_tie_breaks_to_lower_id():
    scored = fake_scored([0.5, 0.7, 0.7])
    top = take_candidates(scored, 2)
    assert [m.genome.genome_id for m in top] == [1, 2]
    only = take_candidates(scored, 1)
    assert only[0].genome.genome_id == 1


def test_take_candidates_requires_enough_models():
    with pytest.raises(ValueError):
        take_candidates(fake_scored([0.5]), 2)


# -- refine --------------------------------------------------------------------

def test_refine_single_candidate_trains_initial_epochs():
    space = small_space()
    trainer = Trainer(space)
    scored = explore_and_score(space, ProxyScorer(space), n=1, seed=2)
    out = refine(scored, initial_epochs=3, eta=2, trainer=trainer)
    assert out.winner == scored[0].genome
    assert out.epochs_charged == 3
    assert out.survivor_history == [1]


def test_refine_sixteen_candidates_halving_arithmetic():
    space = small_space(dims=(4, 4, 4, 4))
    trainer = Trainer(space)
    # record which genomes each round trains: round r trains every survivor
    # up to 2 ** (r + 1) - 1 cumulative epochs
    trained, accuracy = {}, trainer.accuracy

    def recording(params, cumulative_epochs):
        trained.setdefault(cumulative_epochs, []).append(params)
        return accuracy(params, cumulative_epochs)

    trainer.accuracy = recording
    scored = explore_and_score(space, ProxyScorer(space), n=16, seed=3)
    out = refine(scored, initial_epochs=1, eta=2, trainer=trainer)
    assert out.survivor_history == [16, 8, 4, 2, 1]
    assert out.epochs_charged == 64
    # each round spends exactly K * U_init epochs
    spends = [size * (2 ** r) for r, size in enumerate(out.survivor_history[:-1])]
    assert spends == [16, 16, 16, 16]
    # every round trains its survivors once, all from the previous round
    rounds = [trained[epochs] for epochs in sorted(trained)]
    assert sorted(trained) == [1, 3, 7, 15]
    assert [len(set(r)) for r in rounds] == [len(r) for r in rounds] == [16, 8, 4, 2]
    for earlier, later in zip(rounds, rounds[1:]):
        assert set(later) <= set(earlier)


def test_refine_noiseless_equal_tau_returns_candidate_argmax():
    # full-training oracle: with one shared curve rate and no noise, the
    # training ranking equals the hidden-quality ranking at any epoch count
    space = small_space(dims=(4, 4), tau_range=(5.0, 5.0))
    trainer = Trainer(space, noise_sigma=0.0)
    scored = explore_and_score(space, ProxyScorer(space, rho=1.0), n=16, seed=5)
    out = refine(scored, initial_epochs=1, eta=2, trainer=trainer)
    oracle = max(scored, key=lambda m: space.a_final(m.genome.params))
    assert out.winner == oracle.genome


def test_refine_rejects_empty_candidates():
    with pytest.raises(ValueError):
        refine([], 1, 2, Trainer(small_space()))


def reference_refine(candidates, initial_epochs, eta, trainer):
    """The hand-rolled halving loop `refine` ran before it called
    `successive_halving`, kept verbatim as an oracle."""
    if not candidates:
        raise ValueError("empty candidate set")
    survivors = [m.genome for m in candidates]
    trained: dict[int, int] = {g.genome_id: 0 for g in survivors}
    accuracy: dict[int, float] = {}
    history = [len(survivors)]
    epochs_charged = 0

    rounds = halving_schedule(len(survivors), initial_epochs, eta)
    next_counts = [count for count, _ in rounds[1:]] + [1]
    for (_, epochs), keep in zip(rounds, next_counts):
        for genome in survivors:
            trained[genome.genome_id] += epochs
            trainer.charge(epochs)
            epochs_charged += epochs
            accuracy[genome.genome_id] = trainer.accuracy(
                genome.params, trained[genome.genome_id])
        if keep < len(survivors):
            survivors = sorted(
                survivors,
                key=lambda g: (-accuracy[g.genome_id], g.genome_id))[:keep]
            history.append(len(survivors))

    return RefineOutcome(survivors[0], epochs_charged, history)


class RecordingTrainer:
    """Noiseless saturation curves from a few shared qualities and rates, so
    accuracies tie within a round and curves cross between rounds; logs
    every charge and accuracy call in order."""

    def __init__(self, quality, tau):
        self.quality, self.tau, self.calls = quality, tau, []

    def charge(self, epochs):
        self.calls.append(("charge", epochs))

    def accuracy(self, params, cumulative_epochs):
        self.calls.append(("accuracy", params, cumulative_epochs))
        return self.quality[params] * (1.0 - math.exp(-cumulative_epochs / self.tau[params]))


@settings(max_examples=200, deadline=None)
@given(data=st.data(), k=st.integers(1, 64), eta=st.integers(2, 5),
       initial_epochs=st.integers(1, 3))
def test_refine_matches_reference_halving_loop(data, k, eta, initial_epochs):
    ids = data.draw(st.permutations(range(k)))
    genomes = [ModelGenome(gid, (gid,)) for gid in ids]
    scores = data.draw(st.lists(st.sampled_from([0.0, 0.5]), min_size=k, max_size=k))
    shortlist = [ScoredModel(g, score) for g, score in zip(genomes, scores)]
    quality = {g.params: data.draw(st.sampled_from([0.0, 0.5, 1.0])) for g in genomes}
    tau = {g.params: data.draw(st.sampled_from([2.0, 5.0])) for g in genomes}

    got_trainer, want_trainer = RecordingTrainer(quality, tau), RecordingTrainer(quality, tau)
    got = refine(shortlist, initial_epochs, eta, got_trainer)
    want = reference_refine(shortlist, initial_epochs, eta, want_trainer)
    assert got == want
    assert got_trainer.calls == want_trainer.calls


# -- select ----------------------------------------------------------------------

def test_select_infeasible_budget_trains_nothing():
    space = small_space()
    trainer = Trainer(space)
    with pytest.raises(InfeasibleBudget):
        select(space, ProxyScorer(space), trainer, budget=0.3)
    assert trainer.batches_consumed == 0


def test_select_exact_scorer_generous_budget_finds_global_argmax():
    space = ModelSpace((4, 4, 4, 4), seed=11, tau_range=(4.0, 4.0))
    scorer = ProxyScorer(space, rho=1.0, sigma=0.0)
    trainer = Trainer(space)
    result = select(space, scorer, trainer, budget=1200.0,
                    filter_fraction=0.5, seed=1)
    assert result.genome.params == brute_force_best(space)
    assert oracle_regret(space, result.genome) == 0.0
    assert result.elapsed <= 1200.0


def test_select_epoch_accounting_matches_history():
    space = ModelSpace((4, 4, 4), seed=2)
    scorer = ProxyScorer(space, rho=0.8, sigma=0.3)
    trainer = Trainer(space, noise_sigma=0.05)
    result = select(space, scorer, trainer, budget=200.0, seed=3)
    sizes = result.survivor_history
    if len(sizes) == 1:
        expected = result.plan.initial_epochs
    else:
        expected = sum(size * result.plan.initial_epochs * result.plan.eta ** r
                       for r, size in enumerate(sizes[:-1]))
    assert result.epochs_charged == expected
    assert trainer.batches_consumed == result.epochs_charged
    assert result.filter_cost == result.scored_count * scorer.cost
    assert result.elapsed == result.filter_cost + result.refine_cost


def test_select_survivors_nested_subsets():
    space = ModelSpace((4, 4, 4, 4), seed=5)
    result = select(space, ProxyScorer(space, rho=0.9, sigma=0.2),
                    Trainer(space, noise_sigma=0.02), budget=400.0, seed=6)
    sizes = result.survivor_history
    for earlier, later in zip(sizes, sizes[1:]):
        assert later == math.ceil(earlier / result.plan.eta)


@settings(max_examples=80, deadline=None)
@given(
    budget=st.floats(min_value=0.1, max_value=500.0),
    score_cost=st.floats(min_value=0.1, max_value=5.0),
    epoch_cost=st.floats(min_value=0.1, max_value=5.0),
    phi=st.floats(min_value=0.05, max_value=0.95),
    rho=st.floats(min_value=0.0, max_value=1.0),
    sigma=st.floats(min_value=0.0, max_value=1.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_select_never_exceeds_budget(budget, score_cost, epoch_cost, phi, rho, sigma, seed):
    space = ModelSpace((4, 4, 4), seed=seed % 1000)
    scorer = ProxyScorer(space, rho=rho, sigma=sigma, cost=score_cost)
    trainer = Trainer(space, cost_per_epoch=epoch_cost)
    try:
        result = select(space, scorer, trainer, budget,
                        filter_fraction=phi, seed=seed)
    except InfeasibleBudget:
        return
    assert result.elapsed <= budget
    assert result.filter_cost == result.plan.planned_filter_cost
    assert result.refine_cost == result.plan.planned_refine_cost


def test_select_plan_describes_the_run_on_a_small_space():
    # the budget pays for 80 scores and a 32-model shortlist, but the space
    # holds 4 genomes: the plan is the 4 scores and 8 epochs the run spends
    space = small_space(dims=(2, 2))
    trainer = Trainer(space)
    result = select(space, ProxyScorer(space), trainer, budget=400.0, seed=1)
    plan = result.plan
    assert plan.n_to_score == result.scored_count == 4
    assert plan.candidate_size == result.survivor_history[0] == 4
    assert plan.planned_filter_cost == result.filter_cost == 4.0
    assert plan.planned_refine_cost == result.refine_cost == 8.0
    assert trainer.batches_consumed == result.epochs_charged == 8


def test_trainer_derives_tau_once_per_genome(monkeypatch):
    space = ModelSpace((4, 4, 4), seed=2)
    scorer = ProxyScorer(space, rho=0.8, sigma=0.3)
    derived = []
    real_derive = rnglib.derive

    def counting_derive(seed, *labels):
        if labels[:1] == ("tau",):
            derived.append(labels[1])
        return real_derive(seed, *labels)

    monkeypatch.setattr(rnglib, "derive", counting_derive)
    trainer = Trainer(space, noise_sigma=0.05)
    result = select(space, scorer, trainer, budget=200.0, seed=3)
    assert len(result.survivor_history) > 2     # genomes trained in 3+ rounds
    # one derive per genome trained, however many rounds train it
    assert len(derived) == len(set(derived))
    assert len(derived) == result.plan.candidate_size
    # memoized values are the derived ones: a fresh trainer agrees
    trained = list(derived)
    for params in trained:
        fresh = Trainer(space, noise_sigma=0.05)
        assert trainer.accuracy(params, 3.5) == fresh.accuracy(params, 3.5)
    assert len(derived) == 2 * len(trained)
    # the memo lives on the trainer, not the shared space: a new run's
    # trainer derives again
    derived.clear()
    again = select(space, scorer, Trainer(space, noise_sigma=0.05), budget=200.0, seed=3)
    assert again == result
    assert len(derived) == result.plan.candidate_size


def test_refine_epoch_total_formula():
    assert schedule_epochs(1, 1, 2) == 1
    assert schedule_epochs(16, 1, 2) == 64
    assert schedule_epochs(8, 2, 2) == 48
    assert schedule_epochs(9, 1, 3) == 18
    assert halving_schedule(16, 1, 2) == [(16, 1), (8, 2), (4, 4), (2, 8)]
    assert halving_schedule(125, 1, 5) == [(125, 1), (25, 5), (5, 25)]
    assert halving_schedule(10, 2, 3) == [(10, 2), (4, 6), (2, 18)]


SCHEDULE_SPACE = ModelSpace((5, 5, 5), seed=4)


@settings(max_examples=60, deadline=None)
@example(eta=5, initial_epochs=1, k=125)
@given(eta=st.integers(2, 8), initial_epochs=st.integers(1, 3),
       k=st.integers(1, SCHEDULE_SPACE.size))
def test_schedule_epochs_equal_what_refine_charges(eta, initial_epochs, k):
    space = SCHEDULE_SPACE
    batches = []
    trainer = Trainer(space, noise_sigma=0.05,
                      data_source=lambda: batches.append(None))
    candidates = [ScoredModel(space.genome(p), 0.0)
                  for p in itertools.islice(space.enumerate_params(), k)]
    out = refine(candidates, initial_epochs, eta, trainer)
    rounds = halving_schedule(k, initial_epochs, eta)
    assert len(batches) == out.epochs_charged == schedule_epochs(k, initial_epochs, eta)
    assert out.survivor_history == [count for count, _ in rounds] + ([1] if k > 1 else [])
