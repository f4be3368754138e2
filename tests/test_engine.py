import hashlib
import itertools
import random
from dataclasses import astuple, fields, replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from frpkernel.engine import (
    ABORTED,
    ACTIVE,
    COLD,
    COMMITTED,
    HOT,
    READ,
    WRITE,
    CCAction,
    Engine,
    OpStatus,
    Record,
    TxnOp,
    WorkloadSpec,
    _schedule,
    compute_checksum,
)
from frpkernel.cc_adaptive import CCStrategy, OnlineAdapter, SystemState
from frpkernel.recovery import EnclaveSim, RedoLog
from helpers import (
    all_lock,
    all_optimistic,
    matches_some_serial_order,
    r,
    reference_schedule,
    run_schedule,
    w,
)

LOCK = CCAction.LOCK_IMMEDIATE
OPT = CCAction.OPTIMISTIC_NO_LOCK


def test_uncontended_locked_write_no_wait():
    eng = Engine()
    txn = eng.begin([w("k1", 5)])
    out = eng.execute_op(txn, txn.ops[0], LOCK)
    assert out.status is OpStatus.OK
    assert out.wait == 0
    assert eng.validate_and_commit(txn).status == COMMITTED
    assert eng.store.read("k1").value == 5


def test_contended_locked_write_waits_without_retry():
    eng = Engine()
    holder = eng.begin([w("hot", 1)])
    eng.execute_op(holder, holder.ops[0], LOCK)

    writer = eng.begin([w("hot", 2)])
    first = eng.execute_op(writer, writer.ops[0], LOCK)
    assert first.status is OpStatus.BLOCKED

    eng.validate_and_commit(holder)
    second = eng.execute_op(writer, writer.ops[0], LOCK)
    assert second.status is OpStatus.WAITED
    assert second.wait > 0
    assert writer.status == ACTIVE  # waited, never aborted and restarted
    assert eng.validate_and_commit(writer).status == COMMITTED
    assert eng.store.read("hot").value == 2


def test_optimistic_read_records_version():
    eng = Engine()
    setup = eng.begin([w("a", 7)])
    eng.execute_op(setup, setup.ops[0], LOCK)
    eng.validate_and_commit(setup)

    txn = eng.begin([r("a")])
    out = eng.execute_op(txn, txn.ops[0], OPT)
    assert out.status is OpStatus.OK
    assert txn.read_versions == {"a": 1}
    assert eng.validate_and_commit(txn).status == COMMITTED


def test_locked_only_txn_validation_vacuous():
    eng = Engine()
    txn = eng.begin([r("a"), w("b", 1)])
    for op in txn.ops:
        eng.execute_op(txn, op, LOCK)
    assert eng.validate_and_commit(txn).status == COMMITTED


def test_optimistic_read_invalidated_by_concurrent_write():
    eng = Engine()
    reader = eng.begin([r("a")])
    eng.execute_op(reader, reader.ops[0], OPT)

    writer = eng.begin([w("a", 9)])
    eng.execute_op(writer, writer.ops[0], LOCK)
    eng.validate_and_commit(writer)

    res = eng.validate_and_commit(reader)
    assert res.status == ABORTED
    assert res.reason == "conflict"


def test_two_optimistic_writers_exactly_one_commits():
    # Brute force over both validation orders.
    for first, second in [(0, 1), (1, 0)]:
        eng = Engine()
        txns = [eng.begin([w("k", 10)]), eng.begin([w("k", 20)])]
        for txn in txns:
            eng.execute_op(txn, txn.ops[0], OPT)
        results = {}
        results[first] = eng.validate_and_commit(txns[first]).status
        results[second] = eng.validate_and_commit(txns[second]).status
        statuses = sorted(results.values())
        assert statuses == [ABORTED, COMMITTED]
        assert results[first] == COMMITTED  # serial validation: first wins


def test_deadlock_aborts_youngest():
    eng = Engine()
    older = eng.begin([w("k1", 1), w("k2", 1)])
    younger = eng.begin([w("k2", 2), w("k1", 2)])
    eng.execute_op(older, older.ops[0], LOCK)
    eng.execute_op(younger, younger.ops[0], LOCK)
    assert eng.execute_op(older, older.ops[1], LOCK).status is OpStatus.BLOCKED
    out = eng.execute_op(younger, younger.ops[1], LOCK)
    assert out.status is OpStatus.ABORTED
    assert younger.status == ABORTED
    assert younger.abort_reason == "deadlock"
    # the older txn can now finish
    assert eng.execute_op(older, older.ops[1], LOCK).status is OpStatus.WAITED
    assert eng.validate_and_commit(older).status == COMMITTED
    assert eng.lock_table_empty()


def test_read_own_buffered_write():
    eng = Engine()
    txn = eng.begin([w("a", 42), r("a")])
    eng.execute_op(txn, txn.ops[0], LOCK)
    eng.execute_op(txn, txn.ops[1], LOCK)
    assert txn.reads == [("a", 42)]


def test_record_checksum_roundtrip():
    rec = Record.initial("x")
    assert rec.checksum_ok()
    assert rec.checksum == compute_checksum("x", rec.value, rec.version)


def test_run_window_empty_workload():
    eng = Engine()
    spec = WorkloadSpec(arrival_rate=0.0, seed=1)
    stats = eng.run_window(spec, all_lock, duration=10)
    assert stats.committed_count == 0
    assert stats.aborted_count == 0
    assert stats.op_count == 0
    assert stats.total_lock_wait == 0


def test_run_window_serial_never_aborts():
    for policy in (all_lock, all_optimistic):
        eng = Engine(max_workers=1)
        spec = WorkloadSpec(key_space=4, zipf_theta=1.2, write_frac=0.9,
                            txn_len=4, arrival_rate=2.0, seed=7)
        stats = eng.run_window(spec, policy, duration=20)
        assert stats.aborted_count == 0
        assert stats.committed_count > 0
        assert stats.committed_count + stats.carryover_count == 40


def test_run_window_deterministic():
    def run():
        eng = Engine(max_workers=4)
        spec = WorkloadSpec(key_space=8, zipf_theta=0.9, write_frac=0.5,
                            txn_len=3, arrival_rate=3.0, seed=11)
        return eng.run_window(spec, all_lock, duration=15)

    assert run() == run()


def test_skewed_writes_optimistic_aborts_exceed_locking():
    def abort_rate(policy, seed):
        eng = Engine(max_workers=4)
        spec = WorkloadSpec(key_space=8, zipf_theta=1.2, write_frac=0.8,
                            txn_len=3, arrival_rate=4.0, seed=seed)
        stats = eng.run_window(spec, policy, duration=40)
        assert eng.lock_table_empty()
        total = stats.committed_count + stats.aborted_count
        return stats.aborted_count / total

    seeds = range(5)
    optimistic = sum(abort_rate(all_optimistic, s) for s in seeds) / 5
    locking = sum(abort_rate(all_lock, s) for s in seeds) / 5
    assert optimistic > locking


def test_interleavings_of_two_txns_serializable():
    specs = [[w("a", 1), r("b")], [w("b", 2), r("a")]]
    steps = [0] * 3 + [1] * 3  # 2 ops + commit each
    for mode in (all_lock, all_optimistic):
        actions = [[mode(op.kind, "cold") for op in ops] for ops in specs]
        for order in set(itertools.permutations(steps)):
            committed, final, reads = run_schedule(specs, actions, order)
            assert matches_some_serial_order(specs, actions, committed, final, reads)


def test_pending_ops_block_commit():
    eng = Engine()
    txn = eng.begin([w("a", 1), w("b", 2)])
    eng.execute_op(txn, txn.ops[0], LOCK)
    with pytest.raises(ValueError):
        eng.validate_and_commit(txn)


def test_abort_rejects_finished_txn():
    eng = Engine()
    txn = eng.begin([w("a", 5)])
    eng.execute_op(txn, txn.ops[0], LOCK)
    assert eng.validate_and_commit(txn).status == COMMITTED
    with pytest.raises(ValueError):
        eng.abort(txn)
    assert (txn.status, txn.abort_reason) == (COMMITTED, None)
    assert eng.store.read("a").value == 5

    loser = eng.begin([w("b", 1)])
    eng.abort(loser)
    with pytest.raises(ValueError):
        eng.abort(loser)
    assert (loser.status, loser.abort_reason) == (ABORTED, "user")


def test_engine_rejects_malformed_parameters():
    with pytest.raises(ValueError):
        Engine(max_workers=0)
    with pytest.raises(ValueError):
        Engine(hot_key_count=-1)
    Engine(max_workers=1, hot_key_count=0)


def test_store_reads_of_absent_key_share_one_initial_record():
    eng = Engine()
    first = eng.store.read("never")
    assert first == Record.initial("never")
    assert eng.store.read("never") is first
    assert "never" not in eng.store.records


# -- oracles for the incrementally kept engine state ----------------------------

def reference_hot_keys(access_counts: dict[str, int], hot_key_count: int) -> set[str]:
    """The hot set by a full sort of the window's access counts."""
    ranked = sorted(access_counts.items(), key=lambda kv: (-kv[1], kv[0]))
    return {k for k, _ in ranked[:hot_key_count]}


def reference_contended(eng: Engine, txn, key: str) -> bool:
    """Another txn holds a lock on `key` or buffers a write to it."""
    if any(t != txn.txn_id for t in eng.locks.get(key, {})):
        return True
    return any(key in other.buffered
               for t, other in eng.active.items() if t != txn.txn_id)


def assert_contended_matches_scan(eng: Engine, keys) -> None:
    for txn in eng.active.values():
        for key in keys:
            assert eng._contended(txn, key) == reference_contended(eng, txn, key)


# A handful of keys, so counts tie often and hot_key_count can exceed them.
KEYS = ("a", "b", "c", "d", "e", "f")


@settings(max_examples=200, deadline=None)
@given(
    hot_key_count=st.integers(0, len(KEYS) + 2),
    windows=st.lists(st.lists(st.sampled_from(KEYS), max_size=60),
                     min_size=2, max_size=3),
)
def test_hot_set_matches_full_sort_after_every_access(hot_key_count, windows):
    eng = Engine(hot_key_count=hot_key_count)
    for accesses in windows:
        eng._reset_access_counts()
        assert eng.hot_keys() == set()
        for key in accesses:
            eng._count_access(key)
            assert eng.hot_keys() == reference_hot_keys(eng.access_counts, hot_key_count)


class CheckedEngine(Engine):
    """Checks the hot set and contention against their full scans after
    every op attempt of a window."""

    def _step_op(self, txn, policy, stats):
        super()._step_op(txn, policy, stats)
        assert self.hot_keys() == reference_hot_keys(self.access_counts,
                                                      self.hot_key_count)
        assert_contended_matches_scan(self, {op.key for t in self.active.values()
                                             for op in t.ops})


actions = st.sampled_from((CCAction.LOCK_IMMEDIATE, CCAction.OPTIMISTIC_NO_LOCK))


@settings(max_examples=60, deadline=None)
@given(
    hot_key_count=st.integers(0, 10),
    workers=st.integers(1, 6),
    table=st.fixed_dictionaries({(kind, heat): actions
                                 for kind in (READ, WRITE) for heat in (HOT, COLD)}),
    key_space=st.integers(1, 12),
    zipf_theta=st.sampled_from((0.0, 0.8, 1.2)),
    write_frac=st.sampled_from((0.0, 0.3, 0.8)),
    seed=st.integers(0, 2**16),
)
def test_windows_keep_hot_set_and_contention_exact(hot_key_count, workers, table,
                                                    key_space, zipf_theta,
                                                    write_frac, seed):
    eng = CheckedEngine(max_workers=workers, hot_key_count=hot_key_count)
    policy = lambda kind, heat: table[(kind, heat)]  # noqa: E731
    # two windows on one engine: the hot set must restart with the counts
    for window in range(2):
        spec = WorkloadSpec(key_space=key_space, zipf_theta=zipf_theta,
                            write_frac=write_frac, txn_len=3, arrival_rate=3.0,
                            seed=seed + window)
        eng.run_window(spec, policy, duration=25)


ops = st.lists(st.tuples(st.sampled_from((READ, WRITE)), st.sampled_from(KEYS[:3])),
               min_size=1, max_size=4)
steps = st.lists(st.tuples(st.sampled_from(("begin", "step", "abort")),
                           st.integers(0, 7), actions),
                 max_size=80)


@settings(max_examples=200, deadline=None)
@given(plans=st.lists(ops, min_size=1, max_size=6), script=steps)
def test_contended_matches_scan_of_active_buffers(plans, script):
    eng = Engine()
    txns = []
    for step, i, action in script:
        live = [t for t in txns if t.status == ACTIVE]
        if step == "begin" or not live:
            plan = plans[i % len(plans)]
            txns.append(eng.begin([TxnOp(kind, key, i if kind == WRITE else None)
                                   for kind, key in plan]))
        elif step == "step":
            # a locked attempt may block, or abort a deadlock victim
            txn = live[i % len(live)]
            if txn.next_op < len(txn.ops):
                eng.execute_op(txn, txn.ops[txn.next_op], action)
            else:
                eng.validate_and_commit(txn)
        else:
            eng.abort(live[i % len(live)])
        assert_contended_matches_scan(eng, KEYS[:3])
    for txn in list(eng.active.values()):
        eng.abort(txn)
    assert eng.lock_table_empty()
    assert not eng._write_intents


# -- pinned window schedules ----------------------------------------------------

TABLES = [dict(zip(((READ, HOT), (READ, COLD), (WRITE, HOT), (WRITE, COLD)), acts))
          for acts in itertools.product((LOCK, OPT), repeat=4)]


def scheduler_digest() -> str:
    """sha256 over the stats, final store and redo-log text of a fixed grid of
    seeded windows: every (abort_cost, lock_overhead, max_workers,
    arrival_rate) combination below under each of the 16 action tables."""
    shapes = random.Random(8)
    digest = hashlib.sha256()
    grid = itertools.product((0, 1, 4), (0, 1), (1, 3, 16), (0.3, 1.5, 4.0), TABLES)
    for abort_cost, lock_overhead, workers, rate, table in grid:
        log = RedoLog(EnclaveSim(seed=3), anchor_every=2)
        eng = Engine(log=log, max_workers=workers, hot_key_count=2,
                     lock_overhead=lock_overhead, abort_cost=abort_cost)
        policy = lambda kind, heat: table[(kind, heat)]  # noqa: E731
        for _ in range(2):
            spec = WorkloadSpec(key_space=shapes.randint(1, 8),
                                zipf_theta=shapes.choice((0.0, 0.8, 1.2)),
                                write_frac=shapes.choice((0.2, 0.5, 0.9)),
                                txn_len=shapes.randint(1, 4), arrival_rate=rate,
                                seed=shapes.randrange(2**16))
            stats = eng.run_window(spec, policy, duration=shapes.randint(8, 16))
            digest.update(repr(astuple(stats)).encode())
        store = sorted((k, r.value, r.version) for k, r in eng.store.records.items())
        digest.update(repr(store).encode())
        digest.update(log.to_text().encode())
    return digest.hexdigest()


def test_window_schedules_match_pinned_digest():
    assert scheduler_digest() == (
        "ebbcd94be3bee0193f178e498f8e2b186da173966884be176382680475a3869c")


# -- window schedule ------------------------------------------------------------

def schedule_of(spec: WorkloadSpec, ticks: int):
    return _schedule(spec.key_space, spec.zipf_theta, spec.write_frac, spec.txn_len,
                     spec.seed, spec.arrival_rate, ticks)


@settings(max_examples=200, deadline=None)
@given(
    key_space=st.one_of(st.integers(1, 12), st.integers(990, 2500)),
    zipf_theta=st.sampled_from((0.0, 0.8, 0.99)),
    write_frac=st.sampled_from((0.0, 0.3, 1.0)),
    txn_len=st.integers(1, 5),
    seed=st.integers(0, 2**32),
    arrival_rate=st.sampled_from((0.0, 0.3, 1.0, 2.5, 4.0)),
    ticks=st.integers(0, 25),
)
def test_schedule_matches_per_op_reference(key_space, zipf_theta, write_frac, txn_len,
                                           seed, arrival_rate, ticks):
    spec = WorkloadSpec(key_space, zipf_theta, write_frac, txn_len, arrival_rate, seed)
    got = schedule_of(spec, ticks)
    want = reference_schedule(spec, ticks)
    assert len(got) == len(want)
    for (tick, ops), (ref_tick, ref_ops) in zip(got, want):
        assert tick == ref_tick
        assert [(op.kind, op.key, op.write_value) for op in ops] == [
            (op.kind, op.key, op.write_value) for op in ref_ops]


def test_schedule_of_empty_windows_is_empty():
    for rate, ticks in ((0.0, 20), (2.5, 0), (0.3, -1)):
        spec = WorkloadSpec(key_space=4, arrival_rate=rate, seed=3)
        assert schedule_of(spec, ticks) == () == tuple(reference_schedule(spec, ticks))


def test_schedule_memo_keys_on_every_spec_field():
    base = WorkloadSpec(key_space=8, zipf_theta=0.8, write_frac=0.5, txn_len=3,
                        arrival_rate=2.0, seed=5)
    other = dict(key_space=9, zipf_theta=0.0, write_frac=0.9, txn_len=2,
                 arrival_rate=2.5, seed=6)
    assert {f.name for f in fields(WorkloadSpec)} == set(other)
    for name, value in other.items():
        specs = (base, replace(base, **{name: value}))
        want, want_stats = [], []
        for spec in specs:
            want.append(tuple((tick, tuple(ops)) for tick, ops in reference_schedule(spec, 12)))
            _schedule.cache_clear()
            want_stats.append(Engine().run_window(spec, all_lock, 12))
        assert want[0] != want[1] and want_stats[0] != want_stats[1]
        # interleaved, so every call evicts the other spec's entry or hits its own
        for i in (0, 1, 1, 0, 1):
            got = schedule_of(specs[i], 12)
            assert type(got) is tuple
            assert all(type(ops) is tuple for _, ops in got)
            assert got == want[i]
            assert Engine().run_window(specs[i], all_lock, 12) == want_stats[i]


def test_schedule_memo_holds_one_entry():
    # Size one on purpose: the probe windows of one adaptation share a spec,
    # so they hit it, while a wider memo would carry a benchmark round's
    # schedules into its next round and time the replay, not the kernel.
    assert _schedule.cache_parameters()["maxsize"] == 1


def test_adaptation_builds_its_probe_schedule_once():
    adapter = OnlineAdapter(strategy=CCStrategy.prescribed(), pop_size=8,
                            refine_rounds=2, probe_duration=30, seed=4)
    spec = WorkloadSpec(key_space=6, zipf_theta=0.99, write_frac=0.8, txn_len=3,
                        arrival_rate=3.0, seed=9)
    before = _schedule.cache_info()
    event = adapter._adapt(SystemState(contention_index=0.6), spec)
    after = _schedule.cache_info()
    assert event.probe_windows >= 8
    assert after.misses - before.misses == 1
    assert after.hits - before.hits == event.probe_windows - 1
