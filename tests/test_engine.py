import hashlib
import itertools
import math
import random
from collections import deque
from dataclasses import astuple, fields, replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
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
    CommitResult,
    Engine,
    ExecStats,
    OpOutcome,
    OpStatus,
    Record,
    TxnOp,
    WorkloadSpec,
    _schedule,
    _zipf_cdf,
    compute_checksum,
    zipf_probs,
)
from frpkernel.cc_adaptive import (
    Bucketizer,
    CCStrategy,
    OnlineAdapter,
    SystemState,
    all_cells,
    as_policy,
)
from frpkernel import rng as rnglib
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


def test_optimistic_read_records_version(monkeypatch):
    eng = Engine()
    setup = eng.begin([w("a", 7)])
    eng.execute_op(setup, setup.ops[0], LOCK)
    eng.validate_and_commit(setup)

    reads = []
    real_read = eng.store.read
    monkeypatch.setattr(eng.store, "read", lambda key: reads.append(key) or real_read(key))
    txn = eng.begin([r("a")])
    out = eng.execute_op(txn, txn.ops[0], OPT)
    assert out.status is OpStatus.OK
    assert txn.read_versions == {"a": 1}
    # one store read gives both the version and the value
    assert reads == ["a"]
    assert txn.reads == [("a", 7)]
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
    with pytest.raises(ValueError, match="lock_overhead"):
        Engine(lock_overhead=-1)
    with pytest.raises(ValueError, match="abort_cost"):
        Engine(abort_cost=-1)
    Engine(max_workers=1, hot_key_count=0, lock_overhead=0, abort_cost=0)


@pytest.mark.parametrize("field, bad", [
    ("key_space", 0), ("key_space", -3),
    ("txn_len", 0), ("txn_len", -1),
    ("arrival_rate", -0.5), ("arrival_rate", math.inf), ("arrival_rate", math.nan),
    ("write_frac", -0.1), ("write_frac", 1.5), ("write_frac", math.nan),
])
def test_workload_spec_rejects_out_of_range_fields(field, bad):
    # the bounds of the scenario configs' workload block
    with pytest.raises(ValueError, match=field):
        WorkloadSpec(**{field: bad})


def test_workload_spec_accepts_its_bounds():
    idle = WorkloadSpec(key_space=1, txn_len=1, arrival_rate=0.0, write_frac=0.0)
    assert Engine().run_window(idle, all_lock, 10) == ExecStats()
    busy = WorkloadSpec(key_space=1, txn_len=1, arrival_rate=8.0, write_frac=1.0)
    assert Engine().run_window(busy, all_lock, 10).committed_count > 0


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


def assert_contended_matches_scan(eng: Engine, txn, op: TxnOp, action: CCAction,
                                  out: OpOutcome) -> None:
    """An optimistic attempt of `txn` at `op` notes a conflict (CONFLICT_NOTED,
    else OK) iff the full scan after it finds one."""
    if action is OPT:
        assert out.status is (OpStatus.CONFLICT_NOTED if reference_contended(eng, txn, op.key)
                              else OpStatus.OK)


def assert_lock_state_matches_scan(eng: Engine, keys) -> None:
    """The kept lock holders and write-intent counts agree with their scans
    for every active txn and every key in `keys`."""
    for txn in eng.active.values():
        for key in keys:
            # the reference engine's contention test reads just that state
            assert (ReferenceEngine._contended(eng, txn, key)
                    == reference_contended(eng, txn, key))
            assert eng._conflicts(txn, key) == bool(eng._blockers(txn, key, "X"))


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
    """Checks the hot set and contention against their full scans at every
    op attempt of a window: contention right after the attempt, the hot set
    (counts bumped up to the previous attempt) with it and once more at the
    window's end, after the last attempt's bump."""

    def run_window(self, workload, policy, duration):
        self.attempts = self.checks = 0
        stats = super().run_window(workload, policy, duration)
        self.assert_hot_set_matches_sort()
        assert self.checks == self.attempts >= stats.op_count
        return stats

    def hot_keys(self):
        self.attempts += 1      # run_window reads the hot set once per attempt
        return super().hot_keys()

    def execute_op(self, txn, op, action):
        out = super().execute_op(txn, op, action)
        self.assert_hot_set_matches_sort()
        assert_contended_matches_scan(self, txn, op, action, out)
        assert_lock_state_matches_scan(self, {o.key for t in self.active.values()
                                              for o in t.ops})
        self.checks += 1
        return out

    def assert_hot_set_matches_sort(self):
        assert super().hot_keys() == reference_hot_keys(self.access_counts,
                                                        self.hot_key_count)


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


# optimistic attempts on a key whose writes other txns buffer, with and
# without a buffered write of their own: rare in random scripts
@example(plans=[[(WRITE, "a")], [(READ, "a"), (WRITE, "a"), (READ, "a")]],
         script=[("begin", 0, OPT), ("begin", 1, OPT), ("step", 0, OPT),
                 ("step", 1, OPT), ("step", 1, OPT), ("step", 1, OPT)])
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
                op = txn.ops[txn.next_op]
                out = eng.execute_op(txn, op, action)
                assert_contended_matches_scan(eng, txn, op, action, out)
            else:
                eng.validate_and_commit(txn)
        else:
            eng.abort(live[i % len(live)])
        assert_lock_state_matches_scan(eng, KEYS[:3])
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


# -- window loop oracle ---------------------------------------------------------

class ReferenceEngine(Engine):
    """The op path as it stood before it shared its outcomes: validation,
    the locked and optimistic attempts and the deadlock search, verbatim."""

    def validate_and_commit(self, txn):
        if txn.status != ACTIVE:
            raise ValueError(f"txn {txn.txn_id} is {txn.status}")
        if txn.next_op != len(txn.ops):
            raise ValueError("ops remain unexecuted")

        # An optimistic write may not slip under a key another active txn
        # still holds locked (committing anyway would break 2PL readers);
        # then backward validation of the optimistic footprint.
        footprint = {**txn.read_versions, **txn.write_versions}
        if (any(self._conflicts(txn, key) for key in txn.write_versions)
                or any(self.store.read(key).version != ver for key, ver in footprint.items())):
            self.abort(txn, "conflict")
            return CommitResult(ABORTED, "conflict")

        if self.log is not None:
            self.log.register_txn(txn.txn_id)
        # Install in first-write order (the buffer's); one version bump per key.
        for key, value in txn.buffered.items():
            rec = self.store.install(key, value)
            if self.log is not None:
                self.log.append_redo(txn.txn_id, key, rec.value)
        if self.log is not None:
            self.log.seal_txn(txn.txn_id)

        self._drop_write_intents(txn)
        self._release_all(txn)
        txn.status = COMMITTED
        self.active.pop(txn.txn_id, None)
        return CommitResult(COMMITTED)

    def _attempt_locked(self, txn, op):
        mode = "X" if op.kind == WRITE else "S"
        blockers = self._blockers(txn, op.key, mode)
        if blockers:
            txn.op_wait += 1
            self.waits_for[txn.txn_id] = blockers
            victim = self._find_deadlock_victim(txn.txn_id)
            if victim is None:
                return OpOutcome(OpStatus.BLOCKED, txn.op_wait)
            vic = self.active[victim]
            self.abort(vic, "deadlock")
            if vic is txn:
                return OpOutcome(OpStatus.ABORTED, txn.op_wait)
            if self._blockers(txn, op.key, mode):
                return OpOutcome(OpStatus.BLOCKED, txn.op_wait)

        holders = self.locks.setdefault(op.key, {})
        cur = holders.get(txn.txn_id)
        if cur != "X":  # never downgrade an exclusive lock
            holders[txn.txn_id] = mode if cur is None else "X"
        txn.locks[op.key] = holders[txn.txn_id]
        self.waits_for.pop(txn.txn_id, None)

        self._perform(txn, op)
        waited = txn.op_wait
        txn.op_wait = 0
        txn.next_op += 1
        if waited > 0:
            return OpOutcome(OpStatus.WAITED, waited)
        return OpOutcome(OpStatus.OK)

    def _find_deadlock_victim(self, start):
        """Walk the wait-for graph; on a cycle return its youngest member."""
        path = []
        on_path = set()

        def dfs(t):
            if t in on_path:
                return path[path.index(t):]
            path.append(t)
            on_path.add(t)
            for nxt in sorted(self.waits_for.get(t, ())):
                if nxt in self.active:
                    cycle = dfs(nxt)
                    if cycle is not None:
                        return cycle
            path.pop()
            on_path.discard(t)
            return None

        cycle = dfs(start)
        return None if cycle is None else max(cycle)

    def _perform_optimistic(self, txn, op):
        rec = self.store.read(op.key)
        if op.kind == READ:
            txn.read_versions.setdefault(op.key, rec.version)
        else:
            txn.write_versions.setdefault(op.key, rec.version)
        self._perform(txn, op, rec)
        txn.next_op += 1
        txn.op_wait = 0
        if self._contended(txn, op.key):
            return OpOutcome(OpStatus.CONFLICT_NOTED)
        return OpOutcome(OpStatus.OK)

    def _contended(self, txn, key):
        if self._conflicts(txn, key):
            return True
        own = 1 if key in txn.buffered else 0
        return self._write_intents.get(key, 0) > own


def reference_run_window(eng: Engine, workload: WorkloadSpec, policy,
                         duration: float) -> ExecStats:
    """`Engine.run_window` and `_step_op` as they stood before the op path
    shared its outcomes, kept verbatim but for `self` -> `eng`, with the
    arrivals of `reference_schedule`. Drives `eng`, a `ReferenceEngine`,
    through `execute_op`, `validate_and_commit` and `abort`; the oracle for
    the window loop and the op path."""
    if eng.active:
        raise RuntimeError("engine not quiescent")
    ticks = int(duration)
    arrivals = deque((tick, tuple(ops)) for tick, ops in reference_schedule(workload, ticks))
    retries = deque()
    held = deque()      # ticks at which rolled-back slots free up

    stats = ExecStats()
    eng._reset_access_counts()
    running = []
    for tick in range(ticks):
        while held and held[0] <= tick:
            held.popleft()
        while len(running) + len(held) < eng.max_workers:
            if arrivals and arrivals[0][0] <= tick:
                ops = arrivals.popleft()[1]
            elif retries:
                ops = retries.popleft()
            else:
                break
            running.append(eng.begin(ops))
        still_running = []
        for txn in running:
            # a txn may already be a deadlock victim of another's step
            if txn.status == ACTIVE:
                if txn.next_op < len(txn.ops):
                    reference_step_op(eng, txn, policy, stats)
                else:
                    eng.validate_and_commit(txn)
            if txn.status == COMMITTED:
                stats.committed_count += 1
            elif txn.status == ABORTED:
                stats.aborted_count += 1
                held.append(tick + eng.abort_cost)
                retries.append(txn.ops)
            else:
                still_running.append(txn)
        running = still_running

    for txn in running:
        if txn.status == ABORTED:
            stats.aborted_count += 1
        else:
            eng.abort(txn, "window_end")
            stats.carryover_count += 1
    stats.carryover_count += len(arrivals) + len(retries)

    assert eng.lock_table_empty(), "locks leaked past window end"
    assert not eng._write_intents, "write intents leaked past window end"
    return stats


def reference_step_op(eng: Engine, txn, policy, stats: ExecStats) -> None:
    if txn.stall > 0:
        txn.stall -= 1
        return
    op = txn.ops[txn.next_op]
    heat = HOT if op.key in eng.hot_keys() else COLD
    action = policy(op.kind, heat)
    out = eng.execute_op(txn, op, action)
    if out.status in (OpStatus.OK, OpStatus.WAITED, OpStatus.CONFLICT_NOTED):
        eng._count_access(op.key)
        stats.op_count += 1
        if action is CCAction.LOCK_IMMEDIATE:
            stats.locked_op_count += 1
            stats.total_lock_wait += out.wait
            txn.stall = eng.lock_overhead
        if out.status in (OpStatus.WAITED, OpStatus.CONFLICT_NOTED):
            stats.conflicted_op_count += 1


workload_specs = st.builds(
    WorkloadSpec,
    key_space=st.integers(1, 30),
    zipf_theta=st.sampled_from((0.0, 0.8, 1.2)),
    write_frac=st.sampled_from((0.0, 0.3, 0.8, 1.0)),
    txn_len=st.integers(1, 5),
    arrival_rate=st.sampled_from((0.3, 1.0, 3.0, 4.0)),
    seed=st.integers(0, 2**16),
)


@pytest.mark.parametrize("table", TABLES,
                         ids=["".join("L" if a is LOCK else "O" for a in t.values())
                              for t in TABLES])
@settings(max_examples=25, deadline=None)
@given(
    workers=st.integers(1, 16),
    hot_key_count=st.integers(0, 8),
    lock_overhead=st.integers(0, 4),
    abort_cost=st.integers(0, 4),
    logged=st.booleans(),
    state=st.builds(SystemState, contention_index=st.sampled_from((0.0, 0.7)),
                    avg_lock_wait=st.sampled_from((0.0, 4.0))),
    windows=st.lists(st.tuples(workload_specs, st.integers(0, 40)), min_size=1,
                     max_size=3),
)
def test_run_window_matches_reference_loop(table, workers, hot_key_count, lock_overhead,
                                           abort_cost, logged, state, windows):
    def build(engine_class) -> Engine:
        log = RedoLog(EnclaveSim(seed=11), anchor_every=2) if logged else None
        return engine_class(log=log, max_workers=workers, hot_key_count=hot_key_count,
                            lock_overhead=lock_overhead, abort_cost=abort_cost)

    buckets = Bucketizer(buckets=2)
    strategy = CCStrategy(buckets, {cell: table[cell[2:]] for cell in all_cells(2)})
    eng, ref = build(Engine), build(ReferenceEngine)
    for spec, duration in windows:
        policy, ref_policy = as_policy(strategy, state), as_policy(strategy, state)
        assert (eng.run_window(spec, policy, duration)
                == reference_run_window(ref, spec, ref_policy, duration))
        assert policy.usage == ref_policy.usage
        assert eng.store.records == ref.store.records
    if logged:
        assert eng.log.to_text() == ref.log.to_text()


# -- window schedule ------------------------------------------------------------

def schedule_of(spec: WorkloadSpec, ticks: int):
    return _schedule(spec.key_space, spec.zipf_theta, spec.write_frac, spec.txn_len,
                     spec.seed, spec.arrival_rate, ticks)


class EdgeGenerator(np.random.Generator):
    """A generator whose first `random(size)` call returns `edges`, cycled to
    `size`, instead of draws from its bit stream. Random draws almost never
    land on a bucket edge of the key cdf; these do, so a draw that searches
    the wrong side of an edge, or a cdf off by an ulp, shows."""

    def __init__(self, bit_generator, edges):
        super().__init__(bit_generator)
        self.edges = edges

    def random(self, size=None, dtype=np.float64, out=None):
        if self.edges is None:
            return super().random(size, dtype, out)
        edges, self.edges = self.edges, None
        return np.resize(edges, size)


def cdf_edges(key_space: int, theta: float) -> np.ndarray:
    """Every inner bucket edge of the cdf that `Generator.choice` builds for
    `zipf_probs(key_space, theta)`, with its neighbours an ulp either side."""
    cdf = zipf_probs(key_space, theta).cumsum()
    cdf /= cdf[-1]
    inner = cdf[:-1]
    edges = np.concatenate([inner, np.nextafter(inner, 0.0), np.nextafter(inner, 1.0)])
    return edges[edges < 1.0]


def edge_derive(key_space: int, theta: float):
    """`rnglib.derive`, but handing out an `EdgeGenerator` on the cdf's edges."""
    derive = rnglib.derive
    return lambda *args: EdgeGenerator(derive(*args).bit_generator,
                                       cdf_edges(key_space, theta))


# the three window shapes of the benchmark: txn-wide and both adapt-shift phases
@example(key_space=24, zipf_theta=0.0, write_frac=0.05, txn_len=3, seed=7,
         arrival_rate=3.0, ticks=120, edges=True)
@example(key_space=6, zipf_theta=0.99, write_frac=0.8, txn_len=3, seed=8,
         arrival_rate=3.0, ticks=40, edges=True)
@example(key_space=2000, zipf_theta=0.8, write_frac=0.3, txn_len=4, seed=9,
         arrival_rate=4.0, ticks=40, edges=True)
# rates at which i / rate rounds inexactly
@example(key_space=5, zipf_theta=0.8, write_frac=0.3, txn_len=2, seed=1,
         arrival_rate=1 / 3, ticks=130, edges=False)
@example(key_space=5, zipf_theta=0.8, write_frac=0.3, txn_len=2, seed=2,
         arrival_rate=0.7, ticks=120, edges=False)
@example(key_space=5, zipf_theta=0.8, write_frac=0.3, txn_len=2, seed=3,
         arrival_rate=2.9, ticks=130, edges=False)
# one arrival at tick 0; 1 / rate overflows to inf
@example(key_space=5, zipf_theta=0.8, write_frac=0.3, txn_len=2, seed=4,
         arrival_rate=5e-324, ticks=130, edges=False)
@settings(max_examples=200, deadline=None)
@given(
    key_space=st.one_of(st.integers(1, 12), st.integers(990, 2500)),
    zipf_theta=st.sampled_from((0.0, 0.8, 0.99)),
    write_frac=st.sampled_from((0.0, 0.3, 1.0)),
    txn_len=st.integers(1, 5),
    seed=st.integers(0, 2**32),
    arrival_rate=st.floats(0.0, 8.0, exclude_min=True),
    ticks=st.integers(0, 130),
    edges=st.booleans(),
)
def test_schedule_matches_per_op_reference(key_space, zipf_theta, write_frac, txn_len,
                                           seed, arrival_rate, ticks, edges):
    spec = WorkloadSpec(key_space, zipf_theta, write_frac, txn_len, arrival_rate, seed)
    derive = edge_derive(key_space, zipf_theta) if edges else rnglib.derive
    with mock.patch.object(rnglib, "derive", derive):
        # past the memo, which may hold this spec's schedule from other draws
        got = _schedule.__wrapped__(key_space, zipf_theta, write_frac, txn_len, seed,
                                    arrival_rate, ticks)
        want = reference_schedule(spec, ticks)
    assert len(got) == len(want)
    for (tick, ops), (ref_tick, ref_ops) in zip(got, want):
        assert tick == ref_tick
        assert [(op.kind, op.key, op.write_value) for op in ops] == [
            (op.kind, op.key, op.write_value) for op in ref_ops]


@settings(max_examples=200, deadline=None)
@given(
    n=st.one_of(st.integers(1, 30), st.integers(990, 2500)),
    theta=st.one_of(st.sampled_from((0.0, 0.8, 0.99, 1.2)), st.floats(0.0, 2.0)),
    size=st.integers(0, 300),
    seed=st.integers(0, 2**32),
    edges=st.booleans(),
)
def test_cdf_draw_matches_choice(n, theta, size, seed, edges):
    def generator():
        gen = rnglib.derive(seed, "window")
        return EdgeGenerator(gen.bit_generator, cdf_edges(n, theta) if edges else None)

    gen, twin = generator(), generator()
    got = _zipf_cdf(n, theta).searchsorted(gen.random(size), side="right")
    want = twin.choice(n, size=size, p=zipf_probs(n, theta))
    assert got.tolist() == want.tolist()
    assert gen.bit_generator.state == twin.bit_generator.state


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
    windows_run = 0

    def factory():
        engine = Engine()
        run_window = engine.run_window

        def counted(*args):
            nonlocal windows_run
            windows_run += 1
            return run_window(*args)

        engine.run_window = counted
        return engine

    adapter = OnlineAdapter(strategy=CCStrategy.prescribed(), pop_size=8,
                            refine_rounds=2, probe_duration=30, seed=4,
                            engine_factory=factory)
    spec = WorkloadSpec(key_space=6, zipf_theta=0.99, write_frac=0.8, txn_len=3,
                        arrival_rate=3.0, seed=9)
    before = _schedule.cache_info()
    event = adapter._adapt(SystemState(contention_index=0.6), spec)
    after = _schedule.cache_info()
    assert event.probe_windows >= 8
    # candidates that act alike on the probe bucket share one window
    assert 1 < windows_run < event.probe_windows
    assert after.misses - before.misses == 1
    assert after.hits - before.hits == windows_run - 1
