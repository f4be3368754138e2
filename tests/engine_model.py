"""A model of `Engine.run_window`, written to be read, not to be fast.

It interprets, tick by tick, what `run_window`'s docstring and the service-
time comment in `Engine.__init__` state, on its own store, lock table,
wait-for graph and queues. It calls no engine code: from `frpkernel.engine`
it takes data types and constants only. `test_engine.py` runs it beside the
engine and compares what both report, so it is the executable statement of
the window semantics. A change to those semantics edits this file in the
same change, and its diff here states the change.

A comment naming a ROADMAP item marks behaviour that the item will change.
"""

from collections import deque
from dataclasses import dataclass, field

from frpkernel.engine import (
    ABORTED,
    ACTIVE,
    COLD,
    COMMITTED,
    HOT,
    READ,
    CCAction,
    ExecStats,
    Record,
    TxnOp,
    compute_checksum,
)
from helpers import reference_schedule


def reference_hot_keys(access_counts: dict[str, int], hot_key_count: int) -> set[str]:
    """The hot set by a full sort of the window's access counts."""
    ranked = sorted(access_counts.items(), key=lambda kv: (-kv[1], kv[0]))
    return {k for k, _ in ranked[:hot_key_count]}


@dataclass
class ModelTxn:
    txn_id: int                 # ids rise in begin order: higher is younger
    ops: list[TxnOp]
    status: str = ACTIVE
    next_op: int = 0
    waited: int = 0             # blocked attempts at the current op
    stall: int = 0              # service ticks still owed
    read_versions: dict[str, int] = field(default_factory=dict)     # optimistic reads
    write_versions: dict[str, int] = field(default_factory=dict)    # optimistic writes
    buffered: dict[str, int] = field(default_factory=dict)          # in first-write order


class EngineModel:
    """Takes `Engine`'s constructor arguments; `records` is its store."""

    def __init__(self, log=None, max_workers=4, hot_key_count=8, lock_overhead=1,
                 abort_cost=4):
        self.log = log
        self.max_workers, self.hot_key_count = max_workers, hot_key_count
        self.lock_overhead, self.abort_cost = lock_overhead, abort_cost
        self.records: dict[str, Record] = {}
        self.locks: dict[tuple[str, int], str] = {}     # (key, txn id) -> "S" | "X"
        self.waits_for: dict[int, set[int]] = {}        # txn id -> its blockers
        self.active: dict[int, ModelTxn] = {}
        self.last_id = 0                                # ids run on across windows

    def version(self, key: str) -> int:
        rec = self.records.get(key)
        return 0 if rec is None else rec.version

    # -- locks and deadlocks --------------------------------------------------

    def blockers(self, txn: ModelTxn, key: str, mode: str) -> set[int]:
        """Other holders of `key` whose lock conflicts with `mode`."""
        return {t for (k, t), held in self.locks.items()
                if k == key and t != txn.txn_id and "X" in (mode, held)}

    def deadlock_victim(self, start: int) -> int | None:
        """Depth first from `start`, blockers in id order and finished ones
        skipped: the youngest member of the first cycle found."""
        path: list[int] = []

        def dfs(t: int) -> list[int] | None:
            if t in path:
                return path[path.index(t):]
            path.append(t)
            for nxt in sorted(self.waits_for.get(t, ())):
                if nxt in self.active and (cycle := dfs(nxt)):
                    return cycle
            path.pop()
            return None

        cycle = dfs(start)
        return None if cycle is None else max(cycle)

    def lock(self, txn: ModelTxn, key: str, mode: str) -> bool:
        """Take `key` in `mode` for `txn`: False if it must wait or is aborted."""
        blockers = self.blockers(txn, key, mode)
        if blockers:
            txn.waited += 1
            self.waits_for[txn.txn_id] = blockers
            # one search per blocked attempt: a second cycle the attempt closed
            # outlives it if the first one's victim is not on it (ROADMAP item 2)
            victim = self.deadlock_victim(txn.txn_id)
            if victim is None:
                return False
            self.end(self.active[victim], ABORTED)
            if victim == txn.txn_id or self.blockers(txn, key, mode):
                return False
        # a locked re-read upgrades S to X, as any second lock does (ROADMAP item 2)
        self.locks[key, txn.txn_id] = "X" if (key, txn.txn_id) in self.locks else mode
        return True

    # -- one attempt, commit and teardown ---------------------------------------

    def attempt(self, txn: ModelTxn, op: TxnOp, locked: bool) -> tuple[int, bool] | None:
        """One attempt at `op`: None if it must wait or its txn is aborted,
        else the blocked attempts it made and whether it met contention."""
        key = op.key
        if locked and not self.lock(txn, key, "S" if op.kind == READ else "X"):
            return None
        waited, txn.waited = txn.waited, 0
        if not locked:
            versions = txn.read_versions if op.kind == READ else txn.write_versions
            versions.setdefault(key, self.version(key))
        if op.kind != READ:
            txn.buffered[key] = op.write_value
        # an attempt that performs its op waits for nothing, under a lock or not
        self.waits_for.pop(txn.txn_id, None)
        txn.next_op += 1
        if locked:
            return waited, waited > 0
        # contended: another txn locks the key or buffers a write to it
        return waited, (any(k == key and t != txn.txn_id for k, t in self.locks)
                         or any(key in t.buffered for t in self.active.values() if t is not txn))

    def commit(self, txn: ModelTxn) -> None:
        """Backward validation, then install and log the writes."""
        def moved(key, version):
            return self.version(key) != version

        locked_by_other = {k for k, t in self.locks if t != txn.txn_id}
        if (any(k in locked_by_other or moved(k, v) for k, v in txn.write_versions.items())
                # a written key is validated at its write-time version only (ROADMAP item 2)
                or any(moved(k, v) for k, v in txn.read_versions.items()
                       if k not in txn.write_versions)):
            self.end(txn, ABORTED)
            return
        if self.log is not None:
            self.log.register_txn(txn.txn_id)
        for key, value in txn.buffered.items():
            version = self.version(key) + 1
            self.records[key] = Record(key, value, version, compute_checksum(key, value, version))
            if self.log is not None:
                self.log.append_redo(txn.txn_id, key, value)
        if self.log is not None:
            self.log.seal_txn(txn.txn_id)
        self.end(txn, COMMITTED)

    def end(self, txn: ModelTxn, status: str) -> None:
        """Drop the txn's locks and wait-for entry, and retire it as `status`."""
        self.locks = {kt: mode for kt, mode in self.locks.items() if kt[1] != txn.txn_id}
        self.waits_for.pop(txn.txn_id, None)
        del self.active[txn.txn_id]
        txn.status = status

    # -- the window -----------------------------------------------------------

    def turn(self, txn: ModelTxn, policy, counts: dict[str, int], stats: ExecStats) -> None:
        """A running txn's tick: its commit, an owed service tick, or one
        attempt at its next op, whose key's heat comes from `counts`."""
        # commits with the last locked op's lock_overhead still owed (ROADMAP item 11)
        if txn.next_op == len(txn.ops):
            self.commit(txn)
        elif txn.stall > 0:
            txn.stall -= 1
        else:
            op = txn.ops[txn.next_op]
            heat = HOT if op.key in reference_hot_keys(counts, self.hot_key_count) else COLD
            locked = policy(op.kind, heat) is CCAction.LOCK_IMMEDIATE
            done = self.attempt(txn, op, locked)
            if done is None:
                return
            wait, contended = done
            counts[op.key] = counts.get(op.key, 0) + 1
            stats.op_count += 1
            stats.conflicted_op_count += contended
            if locked:
                stats.locked_op_count += 1
                stats.total_lock_wait += wait
                txn.stall = self.lock_overhead

    def run_window(self, workload, policy, duration) -> ExecStats:
        """One window, as `Engine.run_window` runs it: the same arguments,
        the same stats."""
        ticks = int(duration)
        arrivals = deque(reference_schedule(workload, ticks))  # (tick, ops), arrival order
        retries: deque[list[TxnOp]] = deque()                  # abort order
        holds: list[int] = []       # ticks at which slots held by aborts free up
        counts: dict[str, int] = {}     # performed ops per key, this window
        stats = ExecStats()
        running: list[ModelTxn] = []
        for tick in range(ticks):
            holds = [t for t in holds if t > tick]
            while len(running) + len(holds) < self.max_workers:
                if arrivals and arrivals[0][0] <= tick:
                    ops = arrivals.popleft()[1]
                elif retries:
                    ops = retries.popleft()
                else:
                    break
                self.last_id += 1
                running.append(ModelTxn(self.last_id, ops))
                self.active[self.last_id] = running[-1]
            still_running = []
            for txn in running:
                if txn.status == ACTIVE:
                    self.turn(txn, policy, counts, stats)
                # a txn's end counts at its own turn: a deadlock victim of a
                # later txn's attempt counts, and holds its slot, from its next turn
                if txn.status == ACTIVE:
                    still_running.append(txn)
                elif txn.status == COMMITTED:
                    stats.committed_count += 1
                else:
                    stats.aborted_count += 1
                    holds.append(tick + self.abort_cost)
                    retries.append(txn.ops)
            running = still_running

        # the cutoff rolls back whatever is unfinished, as carryover
        stats.carryover_count = len(arrivals) + len(retries)
        for txn in running:
            if txn.status == ABORTED:
                stats.aborted_count += 1
            else:
                self.end(txn, ABORTED)
                stats.carryover_count += 1
        return stats
