"""Shared test oracles: scripted schedules, serial-order reference runs and
the per-op reference for a window's arrival schedule."""

from itertools import permutations

from frpkernel import rng as rnglib
from frpkernel.engine import (
    ACTIVE,
    COMMITTED,
    READ,
    WRITE,
    CCAction,
    Engine,
    OpStatus,
    TxnOp,
    zipf_probs,
)


def run_schedule(txn_specs, actions, order, engine=None):
    """Drive transactions through an explicit interleaving.

    `order` is a sequence of txn indices; each occurrence gives that txn one
    step (one op attempt, or the commit attempt once its ops are done). A
    blocked attempt consumes the step without advancing. After the scripted
    prefix the remaining work drains round-robin, so every schedule
    terminates (deadlock victims are aborted by the engine).

    Returns (committed_indices, final_values, reads_by_committed_txn).
    """
    eng = engine if engine is not None else Engine(max_workers=len(txn_specs))
    txns = [eng.begin(ops) for ops in txn_specs]

    def step(i):
        txn = txns[i]
        if txn.status != ACTIVE:
            return
        if txn.next_op < len(txn.ops):
            eng.execute_op(txn, txn.ops[txn.next_op], actions[i][txn.next_op])
        else:
            eng.validate_and_commit(txn)

    for i in order:
        step(i)
    guard = 0
    while any(t.status == ACTIVE for t in txns):
        for i in range(len(txns)):
            step(i)
        guard += 1
        assert guard < 10_000, "schedule failed to drain"

    assert not eng.locks
    committed = [i for i, t in enumerate(txns) if t.status == COMMITTED]
    final = {k: r.value for k, r in eng.store.records.items()}
    reads = {i: list(txns[i].reads) for i in committed}
    return committed, final, reads


def serial_outcome(txn_specs, actions, order):
    """Execute the given txns one at a time in `order`; all must commit."""
    eng = Engine(max_workers=1)
    reads = {}
    for i in order:
        txn = eng.begin(txn_specs[i])
        for j, op in enumerate(txn.ops):
            out = eng.execute_op(txn, op, actions[i][j])
            assert out.status in (OpStatus.OK, OpStatus.WAITED, OpStatus.CONFLICT_NOTED)
        res = eng.validate_and_commit(txn)
        assert res.status == COMMITTED
        reads[i] = list(txn.reads)
    final = {k: r.value for k, r in eng.store.records.items()}
    return final, reads


def matches_some_serial_order(txn_specs, actions, committed, final, reads) -> bool:
    """Committed outcome (state + committed txns' reads) vs every serial order."""
    if not committed:
        return final == {}
    for perm in permutations(committed):
        serial_final, serial_reads = serial_outcome(txn_specs, actions, perm)
        if serial_final == final and all(serial_reads[i] == reads[i] for i in committed):
            return True
    return False


def all_lock(kind, heat):
    return CCAction.LOCK_IMMEDIATE


def all_optimistic(kind, heat):
    return CCAction.OPTIMISTIC_NO_LOCK


def w(key, value):
    return TxnOp("write", key, value)


def r(key):
    return TxnOp("read", key)


def reference_schedule(workload, ticks):
    """A window's (arrival tick, ops) list, built op by op with numpy
    indexing the way the engine once built it; the oracle for the engine's
    schedule."""
    times = []
    rate = workload.arrival_rate
    if rate > 0:
        # int(i / rate) < ticks, tested on the float itself, which may
        # overflow to inf at subnormal rates where int() would raise
        while len(times) / rate < ticks:
            times.append(int(len(times) / rate))
    gen = rnglib.derive(workload.seed, "window")
    probs = zipf_probs(workload.key_space, workload.zipf_theta)
    n_ops = len(times) * workload.txn_len
    key_ids = gen.choice(workload.key_space, size=n_ops, p=probs)
    is_write = gen.random(n_ops) < workload.write_frac
    values = gen.integers(0, 1_000_000, size=n_ops)
    plans = []
    for t in range(len(times)):
        ops = []
        for j in range(t * workload.txn_len, (t + 1) * workload.txn_len):
            key = f"k{int(key_ids[j]):03d}"
            if is_write[j]:
                ops.append(TxnOp(WRITE, key, int(values[j])))
            else:
                ops.append(TxnOp(READ, key))
        plans.append(ops)
    return list(zip(times, plans))
