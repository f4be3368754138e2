import contextlib
from dataclasses import replace
from functools import partial
from unittest.mock import patch

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from frpkernel import cc_adaptive
from frpkernel import rng as rnglib
from frpkernel.cc_adaptive import (
    AdaptationEvent,
    Bucketizer,
    CCStrategy,
    OnlineAdapter,
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


@pytest.mark.parametrize("name", ["throughput", "avg_lock_wait", "abort_rate",
                                  "contention_index"])
def test_thresholds_reject_negative_values(name):
    # a negative limit is below every relative change, so each window would shift
    for bad in (-1.0, float("nan")):
        with pytest.raises(ValueError, match=name):
            ShiftThresholds(**{name: bad})
    assert getattr(ShiftThresholds(**{name: 0.0}), name) == 0.0
    assert getattr(ShiftThresholds(**{name: None}), name) is None


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


def _around(top):
    """Values inside the bucket range, at its top and above it."""
    return st.one_of(st.sampled_from((0.0, top / 2, top, top * 1.5)),
                     st.floats(0.0, top * 2, allow_nan=False))


@settings(max_examples=150, deadline=None)
@given(data=st.data(), buckets=st.integers(1, 5),
       contention_max=st.sampled_from((0.5, 1.0)), wait_max=st.sampled_from((2.0, 5.0)))
def test_policy_matches_per_call_cell_of(data, buckets, contention_max, wait_max):
    bucketizer = Bucketizer(buckets, contention_max, wait_max)
    cells = all_cells(buckets)
    picks = data.draw(st.lists(st.booleans(), min_size=len(cells), max_size=len(cells)))
    strategy = CCStrategy(bucketizer, {c: LOCK if p else OPT for c, p in zip(cells, picks)})
    state = SystemState(contention_index=data.draw(_around(contention_max)),
                        avg_lock_wait=data.draw(_around(wait_max)))
    pairs = [(kind, heat) for kind in (READ, WRITE) for heat in (HOT, COLD)]
    calls = pairs + data.draw(st.lists(st.sampled_from(pairs), max_size=40))
    policy = as_policy(strategy, state)
    usage = {}
    for kind, heat in calls:
        cell = (*bucketizer.cell_of(state), kind, heat)
        usage[cell] = usage.get(cell, 0) + 1
        assert policy(kind, heat) is strategy.action_at(cell)
    assert policy.usage == usage


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


def reference_filter_phase(seed_strategy, pop_size, evaluator, gen, cells_to_flip=2):
    """The strict-`>` scan `filter_phase` ran before it called
    `successive_halving`, kept verbatim as an oracle."""
    if pop_size < 2:
        raise ValueError("population size must be >= 2")
    best, best_reward = seed_strategy, evaluator(seed_strategy)
    for _ in range(pop_size):
        cand = mutate(seed_strategy, cells_to_flip, gen)
        cand_reward = evaluator(cand)
        if cand_reward > best_reward:
            best, best_reward = cand, cand_reward
    return best


@settings(max_examples=200, deadline=None)
@given(data=st.data(), pop_size=st.integers(2, 10), cells_to_flip=st.integers(0, 3),
       seed=st.integers(0, 2**16))
def test_filter_matches_reference_scan(data, pop_size, cells_to_flip, seed):
    # one bucket: four cells, so 16 tables, and a reward table with ties
    buckets = Bucketizer(buckets=1)
    cells = all_cells(1)
    rewards = data.draw(st.lists(st.sampled_from([0.0, 1.0, 2.0]), min_size=16, max_size=16))
    start = data.draw(st.integers(0, 15))
    seed_strategy = CCStrategy(buckets, {cell: LOCK if start >> i & 1 else OPT
                                         for i, cell in enumerate(cells)})

    def logged(calls):
        def evaluator(strategy):
            calls.append(strategy)
            return rewards[sum(1 << i for i, cell in enumerate(cells)
                               if strategy.action_at(cell) is LOCK)]
        return evaluator

    got_calls, want_calls = [], []
    got = filter_phase(seed_strategy, pop_size, logged(got_calls),
                       rnglib.derive(seed, "filter"), cells_to_flip)
    want = reference_filter_phase(seed_strategy, pop_size, logged(want_calls),
                                  rnglib.derive(seed, "filter"), cells_to_flip)
    assert got == want
    assert got_calls == want_calls


# -- probe windows shared by candidates that act alike ---------------------------

PROBE_FACTORY = partial(Engine, max_workers=4, hot_key_count=2)
CLASSES = [(kind, heat) for kind in (READ, WRITE) for heat in (HOT, COLD)]


def reference_adapt(adapter, state, workload, log):
    """`OnlineAdapter._adapt` scoring every distinct table on its own window."""
    probe_seed = rnglib.child_seed(adapter.seed, "probe", len(adapter.events))
    probe_spec = replace(workload, seed=probe_seed)
    memo = {}

    def evaluator(candidate):
        if candidate not in memo:
            stats = adapter.engine_factory().run_window(
                probe_spec, as_policy(candidate, state), adapter.probe_duration)
            memo[candidate] = window_reward(stats, adapter.abort_penalty)
        log.append((candidate, memo[candidate]))
        return memo[candidate]

    gen = rnglib.derive(adapter.seed, "evolve", len(adapter.events))
    winner = filter_phase(adapter.strategy, adapter.pop_size, evaluator, gen,
                          cells_to_flip=adapter.cells_to_flip)
    refined = refine_phase(winner, evaluator, adapter.refine_rounds,
                           cells=adapter._usage_order())
    event = AdaptationEvent(adapter.window_index, len(memo), adapter.strategy, refined)
    adapter.strategy = refined
    return event


@contextlib.contextmanager
def logged_rewards(log):
    """Log every (candidate, reward) the adapter's two phases score."""
    def logging(evaluator):
        def scored(candidate):
            reward = evaluator(candidate)
            log.append((candidate, reward))
            return reward
        return scored

    filt, refine = cc_adaptive.filter_phase, cc_adaptive.refine_phase
    with patch.object(cc_adaptive, "filter_phase",
                      lambda s, n, ev, gen, **kw: filt(s, n, logging(ev), gen, **kw)), \
            patch.object(cc_adaptive, "refine_phase",
                         lambda s, ev, rounds, **kw: refine(s, logging(ev), rounds, **kw)):
        yield


def _prepared_adapter(table, prev, state, live_spec, **params):
    """An adapter that ran its last live window from `prev` and then observed
    `state`, as `observe_window` leaves it before adapting; the refine order
    and the last live policy's bucket come from `prev`."""
    windows = []

    def factory():
        engine = PROBE_FACTORY()
        run_window = engine.run_window

        def counted(workload, policy, duration):
            windows.append(policy)
            return run_window(workload, policy, duration)

        engine.run_window = counted
        return engine

    adapter = OnlineAdapter(strategy=table, engine_factory=factory, **params)
    adapter.state = prev
    PROBE_FACTORY().run_window(live_spec, adapter.next_policy(), 20)
    adapter.state = state
    return adapter, windows


@settings(max_examples=80, deadline=None)
@given(data=st.data(), buckets=st.integers(1, 4),
       contention_max=st.sampled_from((0.5, 1.0)), wait_max=st.sampled_from((2.0, 5.0)),
       pop_size=st.integers(2, 10), cells_to_flip=st.integers(0, 3),
       refine_rounds=st.integers(0, 3), seed=st.integers(0, 2**16))
def test_adapt_matches_one_window_per_table(data, buckets, contention_max, wait_max,
                                            pop_size, cells_to_flip, refine_rounds, seed):
    bucketizer = Bucketizer(buckets, contention_max, wait_max)
    cells = all_cells(buckets)
    picks = data.draw(st.lists(st.booleans(), min_size=len(cells), max_size=len(cells)))
    table = CCStrategy(bucketizer, {c: LOCK if p else OPT for c, p in zip(cells, picks)})
    prev, state = (SystemState(contention_index=data.draw(_around(contention_max)),
                               avg_lock_wait=data.draw(_around(wait_max)))
                   for _ in range(2))
    workload = WorkloadSpec(key_space=data.draw(st.integers(2, 24)),
                            zipf_theta=data.draw(st.sampled_from((0.0, 0.8, 0.99))),
                            write_frac=data.draw(st.sampled_from((0.05, 0.5, 0.8, 1.0))),
                            txn_len=data.draw(st.integers(1, 4)),
                            arrival_rate=data.draw(st.sampled_from((1.0, 2.0, 3.0))),
                            seed=data.draw(st.integers(0, 2**16)))
    params = dict(pop_size=pop_size, cells_to_flip=cells_to_flip,
                  refine_rounds=refine_rounds, probe_duration=30, seed=seed)

    ref_adapter, ref_windows = _prepared_adapter(table, prev, state, workload, **params)
    ref_log = []
    want = reference_adapt(ref_adapter, state, workload, ref_log)

    adapter, windows = _prepared_adapter(table, prev, state, workload, **params)
    log = []
    with logged_rewards(log):
        got = adapter._adapt(state, workload)

    assert got == want
    assert adapter.strategy == ref_adapter.strategy
    assert log == ref_log
    assert len(ref_windows) == got.probe_windows

    def consulted(strategy):
        policy = as_policy(strategy, state)
        return tuple(policy(kind, heat) for kind, heat in CLASSES)

    run = [consulted(policy.strategy) for policy in windows]
    assert len(run) == len(set(run))
    assert set(run) == {consulted(candidate) for candidate, _ in log}
