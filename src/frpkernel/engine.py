"""In-memory transactional key-value engine on a logical-tick clock.

The engine executes transactions cooperatively: each call to `execute_op` is
one attempt at the transaction's next operation. Lock acquisition that cannot
proceed returns BLOCKED and the caller retries on a later tick; every blocked
attempt counts one tick of lock wait. This keeps whole runs deterministic
(no OS threads, no wall clock) while still producing real contention,
deadlocks, and validation aborts.

Two per-operation concurrency actions exist: LOCK_IMMEDIATE takes a per-key
lock up front (shared for reads, exclusive for writes, held to commit) and
OPTIMISTIC_NO_LOCK just records the key and committed version for backward
validation at commit. A transaction may mix both.
"""

from __future__ import annotations

import hashlib
import math
from collections import deque
from collections.abc import Sequence
from dataclasses import dataclass, field
from enum import Enum
from functools import lru_cache

import numpy as np

from . import rng as rnglib

READ = "read"
WRITE = "write"
HOT = "hot"
COLD = "cold"

INITIAL_VALUE = 0

ACTIVE = "active"
COMMITTED = "committed"
ABORTED = "aborted"


def compute_checksum(key: str, value: int, version: int) -> str:
    return hashlib.sha256(f"{key}|{value}|{version}".encode()).hexdigest()


@dataclass
class Record:
    """One stored item; checksum binds (key, value, version)."""

    key: str
    value: int
    version: int
    checksum: str

    @classmethod
    def initial(cls, key: str) -> "Record":
        return cls(key, INITIAL_VALUE, 0, compute_checksum(key, INITIAL_VALUE, 0))

    def checksum_ok(self) -> bool:
        return self.checksum == compute_checksum(self.key, self.value, self.version)


class Store:
    """Committed records. Keys absent from the map read as initial records."""

    def __init__(self):
        self.records: dict[str, Record] = {}
        # one initial record per absent key read, so each checksum is hashed once
        self._initial: dict[str, Record] = {}

    def read(self, key: str) -> Record:
        rec = self.records.get(key)
        if rec is None:
            rec = self._initial.get(key)
            if rec is None:
                rec = self._initial[key] = Record.initial(key)
        return rec

    def install(self, key: str, value: int) -> Record:
        version = self.read(key).version + 1
        rec = Record(key, value, version, compute_checksum(key, value, version))
        self.records[key] = rec
        return rec

    def tamper(self, key: str, value=None, version=None, checksum=None) -> Record:
        """Overwrite fields out-of-band, skipping the checksum update."""
        rec = self.read(key)
        tampered = Record(
            key,
            rec.value if value is None else value,
            rec.version if version is None else version,
            rec.checksum if checksum is None else checksum,
        )
        self.records[key] = tampered
        return tampered


class CCAction(Enum):
    LOCK_IMMEDIATE = "lock_immediate"
    OPTIMISTIC_NO_LOCK = "optimistic_no_lock"


class OpStatus(Enum):
    OK = "ok"
    WAITED = "waited"
    CONFLICT_NOTED = "conflict_noted"
    BLOCKED = "blocked"      # attempt did not complete; retry next tick
    ABORTED = "aborted"      # txn was chosen as deadlock victim


@dataclass(frozen=True)
class OpOutcome:
    status: OpStatus
    wait: int = 0


# Enum attribute lookups cost about 0.1 µs each on CPython 3.11, several per
# op, so the op path reads these module names instead. Outcomes are frozen,
# and those without a wait are shared.
_LOCK = CCAction.LOCK_IMMEDIATE
_OK = OpStatus.OK
_PERFORMED = (OpStatus.OK, OpStatus.WAITED, OpStatus.CONFLICT_NOTED)
OK = OpOutcome(OpStatus.OK)
CONFLICT_NOTED = OpOutcome(OpStatus.CONFLICT_NOTED)


@dataclass
class TxnOp:
    kind: str                  # READ or WRITE
    key: str
    write_value: int | None = None


@dataclass
class Txn:
    txn_id: int                # ids rise in begin order: higher is younger
    ops: Sequence[TxnOp]
    status: str = ACTIVE
    abort_reason: str | None = None
    next_op: int = 0
    op_wait: int = 0                                   # blocked ticks on current op
    stall: int = 0                                     # service ticks still owed
    locks: dict[str, str] = field(default_factory=dict)        # key -> "S" | "X"
    read_versions: dict[str, int] = field(default_factory=dict)
    write_versions: dict[str, int] = field(default_factory=dict)
    buffered: dict[str, int] = field(default_factory=dict)     # uncommitted writes
    reads: list[tuple[str, int]] = field(default_factory=list)  # observed values


@dataclass(frozen=True)
class CommitResult:
    status: str                # COMMITTED or ABORTED
    reason: str | None = None


_COMMITTED = CommitResult(COMMITTED)
_CONFLICT = CommitResult(ABORTED, "conflict")


@dataclass
class ExecStats:
    """Counters for one execution window.

    Transactions still in flight when the window's tick budget runs out are
    rolled back and counted as carryover, not as aborts; committed + aborted
    never exceeds the number submitted.
    """

    committed_count: int = 0
    aborted_count: int = 0
    total_lock_wait: int = 0
    op_count: int = 0
    locked_op_count: int = 0
    conflicted_op_count: int = 0
    carryover_count: int = 0


@dataclass
class WorkloadSpec:
    """Parameters of a generated transaction stream (part of scenario configs)."""

    key_space: int = 16
    zipf_theta: float = 0.0
    write_frac: float = 0.2
    txn_len: int = 3
    arrival_rate: float = 2.0   # transactions per tick
    seed: int = 0

    def __post_init__(self):
        # the bounds of the workload block of the scenario configs
        for name, ok, bound in (("key_space", self.key_space >= 1, ">= 1"),
                                ("txn_len", self.txn_len >= 1, ">= 1"),
                                ("arrival_rate", 0 <= self.arrival_rate < math.inf, "in [0, inf)"),
                                ("write_frac", 0 <= self.write_frac <= 1, "in [0, 1]")):
            if not ok:
                raise ValueError(f"{name} must be {bound}, got {getattr(self, name)}")


def zipf_probs(n: int, theta: float) -> np.ndarray:
    ranks = np.arange(1, n + 1, dtype=float)
    w = ranks ** (-theta)
    return w / w.sum()


@lru_cache(maxsize=16)   # a process runs windows over a few key spaces
def _key_names(key_space: int) -> tuple[str, ...]:
    return tuple(f"k{i:03d}" for i in range(key_space))


@lru_cache(maxsize=16)
def _read_ops(key_space: int) -> tuple[TxnOp, ...]:
    """One read op per key; ops are never mutated, so windows share them."""
    return tuple(TxnOp(READ, name) for name in _key_names(key_space))


@lru_cache(maxsize=16)
def _zipf_cdf(key_space: int, theta: float) -> np.ndarray:
    """The normalised cdf that `Generator.choice(key_space, p=zipf_probs(...))`
    searches `side="right"` for its `random(n)` draws."""
    cdf = zipf_probs(key_space, theta).cumsum()
    cdf /= cdf[-1]
    cdf.flags.writeable = False
    return cdf


# The memos above key on a spec's shape, never its seed. This one holds a
# window's draws, so it has size one: the probe windows of one adaptation
# share a spec and hit it, while a wider memo would carry schedules from one
# benchmark round into the next and time the replay instead of the kernel.
@lru_cache(maxsize=1)
def _schedule(key_space: int, zipf_theta: float, write_frac: float, txn_len: int,
              seed: int, arrival_rate: float,
              ticks: int) -> tuple[tuple[int, tuple[TxnOp, ...]], ...]:
    """The window's arrivals as (arrival tick, ops) pairs in arrival order:
    transaction i arrives at tick int(i / arrival_rate), while that is below
    `ticks`. A pure function of its arguments; schedules and op tuples are
    immutable, so a memo hit can be handed to every window."""
    if not arrival_rate > 0 or ticks <= 0:
        return ()
    # int(i / rate) < ticks iff i / rate < ticks: at most int(ticks * rate) + 1 arrive
    times = (np.arange(int(ticks * arrival_rate) + 1) / arrival_rate).astype(np.int64)
    times = times[:times.searchsorted(ticks)].tolist()
    gen = rnglib.derive(seed, "window")
    n_ops = len(times) * txn_len
    # the keys of gen.choice(key_space, n_ops, p=zipf_probs(...)), same draws
    key_ids = _zipf_cdf(key_space, zipf_theta).searchsorted(gen.random(n_ops), side="right")
    is_write = gen.random(n_ops) < write_frac
    values = gen.integers(0, 1_000_000, size=n_ops)
    names, reads = _key_names(key_space), _read_ops(key_space)
    ops = [TxnOp(WRITE, names[k], v) if wr else reads[k]
           for k, wr, v in zip(key_ids.tolist(), is_write.tolist(), values.tolist())]
    return tuple(zip(times, zip(*[iter(ops)] * txn_len)))


class Engine:
    """Single-owner engine; one scenario drives it at a time.

    A key is hot when it is among the top `hot_key_count` keys by access
    count within the current window, ties broken by key. The hot set is
    updated in O(1) per op as accesses are counted (O(hot_key_count) when
    its coldest member changes), and resets with the counts at the start
    of every window.
    """

    def __init__(self, log=None, max_workers: int = 4, hot_key_count: int = 8,
                 lock_overhead: int = 1, abort_cost: int = 4):
        if max_workers < 1:
            raise ValueError(f"max_workers must be >= 1, got {max_workers}")
        if hot_key_count < 0:
            raise ValueError(f"hot_key_count must be >= 0, got {hot_key_count}")
        if lock_overhead < 0:
            raise ValueError(f"lock_overhead must be >= 0, got {lock_overhead}")
        if abort_cost < 0:
            raise ValueError(f"abort_cost must be >= 0, got {abort_cost}")
        self.store = Store()
        self.log = log
        self.max_workers = max_workers
        self.hot_key_count = hot_key_count
        # Service-time model. A locked op owes lock_overhead extra ticks for
        # acquisition bookkeeping (why lock-free reads pay off on uncontended
        # data); an aborted attempt occupies its worker for abort_cost ticks
        # of rollback and rescheduling (why optimistic writes lose on hot
        # data).
        self.lock_overhead = lock_overhead
        self.abort_cost = abort_cost
        self.locks: dict[str, dict[int, str]] = {}      # key -> {txn_id: mode}
        self.waits_for: dict[int, set[int]] = {}
        self.active: dict[int, Txn] = {}
        # key -> number of active txns holding a buffered write to it
        self._write_intents: dict[str, int] = {}
        self._last_txn_id = 0
        self._reset_access_counts()

    # -- transaction lifecycle -------------------------------------------

    def begin(self, ops: Sequence[TxnOp]) -> Txn:
        self._last_txn_id += 1
        txn = Txn(self._last_txn_id, ops)
        self.active[txn.txn_id] = txn
        return txn

    def execute_op(self, txn: Txn, op: TxnOp, action: CCAction) -> OpOutcome:
        if txn.status != ACTIVE:
            raise ValueError(f"txn {txn.txn_id} is {txn.status}")
        if action is _LOCK:
            return self._attempt_locked(txn, op)
        return self._perform_optimistic(txn, op)

    def validate_and_commit(self, txn: Txn) -> CommitResult:
        if txn.status != ACTIVE:
            raise ValueError(f"txn {txn.txn_id} is {txn.status}")
        if txn.next_op != len(txn.ops):
            raise ValueError("ops remain unexecuted")

        if not self._validates(txn):
            self.abort(txn, "conflict")
            return _CONFLICT

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
        return _COMMITTED

    def _validates(self, txn: Txn) -> bool:
        """An optimistic write may not slip under a key another active txn
        still holds locked (committing anyway would break 2PL readers); then
        backward validation of the optimistic footprint, the read versions
        overlaid by the write versions."""
        read = self.store.read
        writes = txn.write_versions
        for key, ver in writes.items():
            if self._conflicts(txn, key) or read(key).version != ver:
                return False
        for key, ver in txn.read_versions.items():
            if key not in writes and read(key).version != ver:
                return False
        return True

    def abort(self, txn: Txn, reason: str = "user") -> None:
        if txn.status != ACTIVE:
            raise ValueError(f"txn {txn.txn_id} is {txn.status}")
        self._release_all(txn)
        self._drop_write_intents(txn)
        txn.buffered.clear()
        txn.status = ABORTED
        txn.abort_reason = reason
        self.active.pop(txn.txn_id, None)

    # -- locked path ------------------------------------------------------

    def _attempt_locked(self, txn: Txn, op: TxnOp) -> OpOutcome:
        mode = "X" if op.kind == WRITE else "S"
        # with no other holder there is no blocker, so no set to build
        blockers = self._conflicts(txn, op.key) and self._blockers(txn, op.key, mode)
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
        return OK

    def _blockers(self, txn: Txn, key: str, mode: str) -> set[int]:
        """Other holders of `key` whose locks conflict with `mode`; the lock
        is acquirable iff there are none."""
        holders = self.locks.get(key, {})
        if mode == "S":
            return {t for t, m in holders.items() if t != txn.txn_id and m == "X"}
        return {t for t in holders if t != txn.txn_id}

    def _conflicts(self, txn: Txn, key: str) -> bool:
        """Whether another transaction holds a lock on `key`: `_blockers` in
        X mode is non-empty, without building the set."""
        holders = self.locks.get(key)
        return bool(holders) and (len(holders) > 1 or txn.txn_id not in holders)

    def _find_deadlock_victim(self, start: int) -> int | None:
        """Walk the wait-for graph; on a cycle return its youngest member."""
        # a cycle reachable from `start` runs through one of its blockers
        # that waits in turn (waiting txns are active)
        if not any(b in self.waits_for for b in self.waits_for[start]):
            return None
        path: list[int] = []
        on_path: set[int] = set()

        def dfs(t: int) -> list[int] | None:
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

    # -- optimistic path --------------------------------------------------

    def _perform_optimistic(self, txn: Txn, op: TxnOp) -> OpOutcome:
        rec = self.store.read(op.key)
        if op.kind == READ:
            txn.read_versions.setdefault(op.key, rec.version)
        else:
            txn.write_versions.setdefault(op.key, rec.version)
        self._perform(txn, op, rec)
        txn.next_op += 1
        txn.op_wait = 0
        # contended: another txn locks the key (`_conflicts`) or buffers a write
        key = op.key
        holders = self.locks.get(key)
        if holders and (len(holders) > 1 or txn.txn_id not in holders):
            return CONFLICT_NOTED
        if self._write_intents.get(key, 0) > (1 if key in txn.buffered else 0):
            return CONFLICT_NOTED
        return OK

    # -- shared helpers ---------------------------------------------------

    def _perform(self, txn: Txn, op: TxnOp, rec: Record | None = None) -> None:
        """Buffer a write or record a read; a read of a key the transaction
        has not written takes its value from `rec`, the key's committed
        record if the caller already read it, else from the store."""
        if op.kind == WRITE:
            if op.key not in txn.buffered:
                self._write_intents[op.key] = self._write_intents.get(op.key, 0) + 1
            txn.buffered[op.key] = op.write_value
        else:
            if op.key in txn.buffered:
                txn.reads.append((op.key, txn.buffered[op.key]))
            else:
                if rec is None:
                    rec = self.store.read(op.key)
                txn.reads.append((op.key, rec.value))

    def _release_all(self, txn: Txn) -> None:
        for key in txn.locks:
            holders = self.locks.get(key)
            if holders:
                holders.pop(txn.txn_id, None)
                if not holders:
                    del self.locks[key]
        txn.locks.clear()
        self.waits_for.pop(txn.txn_id, None)

    def _drop_write_intents(self, txn: Txn) -> None:
        for key in txn.buffered:
            left = self._write_intents[key] - 1
            if left:
                self._write_intents[key] = left
            else:
                del self._write_intents[key]

    def lock_table_empty(self) -> bool:
        return not self.locks

    # -- window simulation --------------------------------------------------

    def hot_keys(self) -> set[str]:
        """The current window's hot set (see the class docstring). The set is
        the engine's own; callers must not modify it."""
        return self._hot

    def _reset_access_counts(self) -> None:
        self.access_counts: dict[str, int] = {}
        self._hot: set[str] = set()
        self._coldest_hot: str | None = None    # lowest-ranked member of _hot

    def _coldest(self) -> str | None:
        counts = self.access_counts
        return max(self._hot, key=lambda k: (-counts[k], k), default=None)

    def _count_access(self, key: str) -> None:
        """Bump `key`'s access count and keep the hot set the top
        `hot_key_count` keys by (-count, key). Only `key` moves up the
        ranking, so it either is hot already, takes a free slot, or
        displaces the coldest member."""
        count = self.access_counts.get(key, 0) + 1
        self.access_counts[key] = count
        hot, coldest = self._hot, self._coldest_hot
        if key in hot:
            if key == coldest:
                self._coldest_hot = self._coldest()
        elif len(hot) < self.hot_key_count:
            hot.add(key)
            if coldest is None or (-count, key) > (-self.access_counts[coldest], coldest):
                self._coldest_hot = key
        elif coldest is not None and (-count, key) < (-self.access_counts[coldest], coldest):
            hot.remove(coldest)
            hot.add(key)
            self._coldest_hot = self._coldest()

    def run_window(self, workload: WorkloadSpec, policy, duration: float) -> ExecStats:
        """Run one fixed-length window; `policy(kind, heat) -> CCAction` picks actions.

        The window lasts exactly int(duration) ticks. Transaction i arrives at
        tick floor(i / arrival_rate). Each tick, free worker slots admit the
        arrived transactions in arrival order, then retries in abort order.
        Every op attempt and the commit each consume one tick per worker, and
        a locked op owes lock_overhead extra service ticks. An aborted attempt
        (deadlock victim or failed validation) holds its slot for abort_cost
        ticks of rollback and queues a retry of the same ops, so wasted
        optimistic work costs committed throughput just like lock waiting
        does. Whatever is unfinished at the cutoff is rolled back and counted
        as carryover.

        Each op attempt makes exactly one call each of `self.hot_keys()`,
        `policy` and `self.execute_op`, so wrappers on them see every
        attempt; the window's counters are kept in locals and stored once.

        Deterministic in (workload.seed, policy): the arrival schedule is a
        pure function of the spec's fields and the tick count, never of
        engine state, so identical seeds produce identical streams
        regardless of the actions chosen. The last schedule built is kept
        and reused by the next window with the same spec and length.
        """
        if self.active:
            raise RuntimeError("engine not quiescent")
        ticks = int(duration)
        arrivals = deque(_schedule(
            workload.key_space, workload.zipf_theta, workload.write_frac,
            workload.txn_len, workload.seed, workload.arrival_rate, ticks))
        retries: deque[Sequence[TxnOp]] = deque()
        held: deque[int] = deque()      # ticks at which rolled-back slots free up

        self._reset_access_counts()
        counts, hot, lock_overhead = self.access_counts, self._hot, self.lock_overhead
        max_workers, abort_cost = self.max_workers, self.abort_cost
        begin, commit = self.begin, self.validate_and_commit
        hot_keys, execute_op, count_access = self.hot_keys, self.execute_op, self._count_access
        committed = aborted = performed = locked = conflicted = lock_wait = 0
        running: list[Txn] = []
        for tick in range(ticks):
            while held and held[0] <= tick:
                held.popleft()
            while len(running) + len(held) < max_workers:
                if arrivals and arrivals[0][0] <= tick:
                    ops = arrivals.popleft()[1]
                elif retries:
                    ops = retries.popleft()
                else:
                    break
                running.append(begin(ops))
            still_running = []
            for txn in running:
                # a txn may already be a deadlock victim of another's attempt
                if txn.status == ACTIVE:
                    if txn.next_op == len(txn.ops):
                        commit(txn)
                    elif txn.stall > 0:
                        txn.stall -= 1
                    else:
                        op = txn.ops[txn.next_op]
                        key = op.key
                        action = policy(op.kind, HOT if key in hot_keys() else COLD)
                        out = execute_op(txn, op, action)
                        status = out.status
                        if status in _PERFORMED:
                            # a hot key other than the coldest keeps its rank
                            if key in hot and key != self._coldest_hot:
                                counts[key] += 1
                            else:
                                count_access(key)
                            performed += 1
                            if action is _LOCK:
                                locked += 1
                                lock_wait += out.wait
                                txn.stall = lock_overhead
                            if status is not _OK:
                                conflicted += 1
                status = txn.status
                if status == ACTIVE:
                    still_running.append(txn)
                elif status == COMMITTED:
                    committed += 1
                else:
                    aborted += 1
                    held.append(tick + abort_cost)
                    retries.append(txn.ops)
            running = still_running

        carryover = len(arrivals) + len(retries)
        for txn in running:
            if txn.status == ABORTED:
                aborted += 1
            else:
                self.abort(txn, "window_end")
                carryover += 1

        assert self.lock_table_empty(), "locks leaked past window end"
        assert not self._write_intents, "write intents leaked past window end"
        return ExecStats(committed_count=committed, aborted_count=aborted,
                         total_lock_wait=lock_wait, op_count=performed, locked_op_count=locked,
                         conflicted_op_count=conflicted, carryover_count=carryover)
