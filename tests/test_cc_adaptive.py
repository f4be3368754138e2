import pytest

from frpkernel import rng as rnglib
from frpkernel.cc_adaptive import (
    Bucketizer,
    CCStrategy,
    ShiftThresholds,
    SystemState,
    all_cells,
    as_policy,
    detect_shift,
    filter_phase,
    mutate,
    observe,
    refine_phase,
    window_reward,
)
from frpkernel.engine import COLD, HOT, READ, WRITE, CCAction, Engine, ExecStats, WorkloadSpec

LOCK = CCAction.LOCK_IMMEDIATE
OPT = CCAction.OPTIMISTIC_NO_LOCK


# -- observe ---------------------------------------------------------------

def test_observe_zero_stats():
    state = observe(ExecStats(), window=5.0)
    assert state == SystemState(0.0, 0.0, 0.0, 0.0)


def test_observe_arithmetic():
    stats = ExecStats(committed_count=100, aborted_count=0, total_lock_wait=30,
                      op_count=300, locked_op_count=60, conflicted_op_count=30)
    state = observe(stats, window=1.0)
    assert state.throughput == 100.0
    assert state.abort_rate == 0.0
    assert state.avg_lock_wait == 0.5
    assert state.contention_index == 0.1


def test_observe_rejects_zero_window():
    with pytest.raises(ValueError):
        observe(ExecStats(), window=0.0)


def test_observe_zipf_window_more_contended_than_uniform():
    def contention(theta):
        eng = Engine(max_workers=4)
        spec = WorkloadSpec(key_space=16, zipf_theta=theta, write_frac=0.5,
                            txn_len=3, arrival_rate=3.0, seed=13)
        stats = eng.run_window(spec, lambda k, h: LOCK, duration=30)
        return observe(stats, 30).contention_index

    assert contention(0.99) > contention(0.0)


# -- detect_shift ------------------------------------------------------------

def test_no_shift_when_states_equal():
    state = SystemState(10.0, 1.0, 0.1, 0.2)
    assert not detect_shift(state, state)


def test_lock_wait_doubling_trips_threshold():
    prev = SystemState(10.0, 1.0, 0.1, 0.2)
    cur = SystemState(10.0, 2.0, 0.1, 0.2)
    assert detect_shift(prev, cur, ShiftThresholds(avg_lock_wait=0.5))


def test_gradual_drift_never_trips():
    state = SystemState(100.0, 1.0, 0.1, 0.2)
    for _ in range(60):
        drifted = SystemState(state.throughput * 1.01, state.avg_lock_wait * 1.01,
                              state.abort_rate * 1.01, state.contention_index * 1.01)
        assert not detect_shift(state, drifted)
        state = drifted


def test_field_appearing_from_zero_trips():
    assert detect_shift(SystemState(), SystemState(throughput=1.0))


# -- strategies and policies --------------------------------------------------

def test_constant_strategy_always_locks():
    strategy = CCStrategy.constant(LOCK)
    for state in (SystemState(), SystemState(99.0, 4.0, 0.9, 0.9)):
        for kind in (READ, WRITE):
            for heat in (HOT, COLD):
                assert as_policy(strategy, state)(kind, heat) is LOCK


def test_prescribed_policy_pins_the_named_cells():
    strategy = CCStrategy.prescribed()
    high = SystemState(contention_index=0.9, avg_lock_wait=4.0)
    low = SystemState(contention_index=0.05, avg_lock_wait=0.1)
    assert as_policy(strategy, high)(WRITE, HOT) is LOCK
    assert as_policy(strategy, low)(READ, COLD) is OPT


def test_decide_is_pure():
    strategy = CCStrategy.prescribed()
    state = SystemState(5.0, 0.5, 0.1, 0.3)
    first = as_policy(strategy, state)(WRITE, COLD)
    for _ in range(10):
        assert as_policy(strategy, state)(WRITE, COLD) is first


def test_bucketizer_clamps_to_range():
    buckets = Bucketizer(buckets=4, contention_max=1.0, wait_max=5.0)
    assert buckets.cell_of(SystemState()) == (0, 0)
    assert buckets.cell_of(SystemState(contention_index=2.0, avg_lock_wait=50.0)) == (3, 3)
    assert buckets.cell_of(SystemState(contention_index=0.5, avg_lock_wait=2.5)) == (2, 2)


def test_strategy_table_must_be_total():
    buckets = Bucketizer(buckets=2)
    table = {cell: LOCK for cell in all_cells(2)}
    del table[(0, 0, READ, COLD)]
    with pytest.raises(ValueError):
        CCStrategy(buckets, table)


def test_mutate_flips_requested_cell_count():
    strategy = CCStrategy.constant(LOCK)
    gen = rnglib.derive(0, "mutate-test")
    mutant = mutate(strategy, 2, gen)
    flipped = [c for c in strategy.cells()
               if mutant.action_at(c) is not strategy.action_at(c)]
    assert len(flipped) == 2
    assert mutate(strategy, 0, gen) == strategy


# -- filter phase ---------------------------------------------------------------

def test_filter_zero_mutation_returns_seed():
    seed_strategy = CCStrategy.constant(LOCK)
    calls = []

    def evaluator(s):
        calls.append(s)
        return 1.0

    gen = rnglib.derive(1, "filter")
    winner = filter_phase(seed_strategy, 2, evaluator, gen, cells_to_flip=0)
    assert winner == seed_strategy
    assert len(calls) == 3  # seed + 2 identical mutants


def test_filter_winner_reward_at_least_seed_reward():
    spec = WorkloadSpec(key_space=8, zipf_theta=1.2, write_frac=0.8,
                        txn_len=3, arrival_rate=4.0, seed=17)

    def evaluator(strategy):
        eng = Engine(max_workers=4, hot_key_count=3)
        stats = eng.run_window(spec, as_policy(strategy, SystemState()), 30)
        return window_reward(stats)

    seed_strategy = CCStrategy.constant(OPT)
    gen = rnglib.derive(2, "filter")
    winner = filter_phase(seed_strategy, 8, evaluator, gen)
    assert evaluator(winner) >= evaluator(seed_strategy)


def test_filter_learns_lock_free_reads_on_quiet_workload():
    # Read-mostly uniform traffic: taking read locks burns service time for
    # nothing, so the winning table must leave the dominant read cell
    # lock-free. Verified exhaustively for that cell first.
    buckets = Bucketizer(buckets=1)
    spec = WorkloadSpec(key_space=24, zipf_theta=0.0, write_frac=0.05,
                        txn_len=3, arrival_rate=3.0, seed=5)
    cell = (0, 0, READ, COLD)

    def evaluator(strategy):
        eng = Engine(max_workers=4, hot_key_count=3)
        stats = eng.run_window(spec, as_policy(strategy, SystemState()), 40)
        return window_reward(stats)

    seed_strategy = CCStrategy.constant(LOCK, buckets)
    assert (evaluator(seed_strategy.with_cell(cell, OPT))
            > evaluator(seed_strategy))  # oracle: the flip strictly helps

    gen = rnglib.derive(3, "filter")
    winner = filter_phase(seed_strategy, 8, evaluator, gen, cells_to_flip=1)
    assert winner.action_at(cell) is OPT


# -- refine phase -----------------------------------------------------------------

def target_match_evaluator(target):
    def evaluator(strategy):
        return sum(1.0 for c in strategy.cells()
                   if strategy.action_at(c) is target.action_at(c))
    return evaluator


def test_refine_zero_rounds_is_identity():
    strategy = CCStrategy.constant(LOCK)
    winner = refine_phase(strategy, lambda s: 0.0, rounds=0)
    assert winner == strategy


def test_refine_rejects_flip_of_optimal_cell():
    buckets = Bucketizer(buckets=1)
    target = CCStrategy.prescribed(buckets)
    evaluator = target_match_evaluator(target)
    cell = (0, 0, READ, COLD)
    assert target.action_at(cell) is OPT
    refined = refine_phase(target, evaluator, rounds=1, cells=[cell])
    assert refined == target  # flip evaluated, then rejected


def test_refine_full_pass_reaches_one_flip_local_optimum():
    buckets = Bucketizer(buckets=2)
    target = CCStrategy.prescribed(buckets)
    evaluator = target_match_evaluator(target)
    start = CCStrategy.constant(LOCK, buckets)
    refined = refine_phase(start, evaluator, rounds=len(start.cells()))
    best = evaluator(refined)
    for cell in refined.cells():
        assert evaluator(refined.flipped(cell)) <= best
    assert refined == target  # separable objective: full pass finds the target


def test_refine_never_regresses_on_engine_evaluator():
    spec = WorkloadSpec(key_space=8, zipf_theta=0.99, write_frac=0.7,
                        txn_len=3, arrival_rate=3.0, seed=23)

    def evaluator(strategy):
        eng = Engine(max_workers=4, hot_key_count=3)
        stats = eng.run_window(spec, as_policy(strategy, SystemState()), 30)
        return window_reward(stats)

    start = CCStrategy.prescribed()
    refined = refine_phase(start, evaluator, rounds=6)
    assert evaluator(refined) >= evaluator(start)


def test_filter_rejects_tiny_population():
    with pytest.raises(ValueError):
        filter_phase(CCStrategy.constant(LOCK), 1, lambda s: 0.0,
                     rnglib.derive(0, "x"))
