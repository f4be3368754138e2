"""`log-repair`: build, serialize, reload and verify a redo log of about 20k
records, then detect tampering and recover every written key.

The engine takes no part: the benchmark appends and seals transactions
itself from a generated write stream, and keeps its own shadow copy of what
each key should hold. The log stays in memory.
"""

from __future__ import annotations

from dataclasses import dataclass

from frpkernel import rng as rnglib
from frpkernel.engine import Record, compute_checksum
from frpkernel.recovery import EnclaveSim, RedoLog

from tracing import clock

KEYS = 200
TARGET_RECORDS = 20_000
MAX_TXN_WRITES = 4
ANCHOR_EVERY = 4
TAMPER_FRACTION = 0.15
TAMPER_KINDS = ("value", "rollback", "checksum")
# appends are timed in chunks of this many transactions: short timed calls
# let the per-call minimum over rounds filter out host noise
APPEND_CHUNK = 50


@dataclass
class LogInputs:
    enclave: EnclaveSim
    chunks: list[list[tuple[int, list[tuple[str, int]]]]]    # of txns
    record_count: int
    keys: list[str]
    shadow: dict[str, Record]     # what recovery must rebuild
    stored: dict[str, Record]     # what the store holds, some tampered
    tampered: frozenset[str]


def _record(key: str, value: int, version: int) -> Record:
    return Record(key, value, version, compute_checksum(key, value, version))


def _write_stream(seed: int, keys: list[str]):
    """Transactions of 1..MAX_TXN_WRITES distinct keys, drawn uniformly, until
    the log they produce (redo entries, anchors and seals) reaches
    TARGET_RECORDS. Uniform keys give every key a similar replay range, so
    recovery cost depends on log length rather than on the seed."""
    gen = rnglib.derive(seed, "log-repair", "writes")
    draws = TARGET_RECORDS      # more than enough: each write adds a record
    sizes = gen.integers(1, MAX_TXN_WRITES + 1, size=draws).tolist()
    picks = gen.integers(0, len(keys), size=draws).tolist()
    values = gen.integers(0, 1_000_000, size=draws).tolist()
    history: dict[str, list[int]] = {k: [] for k in keys}
    txns = []
    records = 0
    draw = 0
    while records < TARGET_RECORDS:
        size = sizes[len(txns)]
        writes: dict[str, int] = {}
        while len(writes) < size:       # skip keys already in this txn
            key = keys[picks[draw]]
            if key not in writes:
                writes[key] = values[draw]
            draw += 1
        for key, value in writes.items():
            history[key].append(value)
            records += 1 + (len(history[key]) % ANCHOR_EVERY == 0)
        records += 1        # the seal
        txns.append((len(txns) + 1, list(writes.items())))
    return txns, records, history


def _tamper(key: str, history: list[int], kind: str) -> Record:
    """The three tamper kinds the recover-demo scenario injects."""
    version = len(history)
    if kind == "value":
        return Record(key, history[-1] + 1, version,
                      compute_checksum(key, history[-1], version))
    if kind == "rollback":
        old = version - 1
        return _record(key, history[old - 1] if old else 0, old)
    good = compute_checksum(key, history[-1], version)
    return Record(key, history[-1], version,
                  ("0" if good[0] != "0" else "1") + good[1:])


def setup_log(seed: int) -> LogInputs:
    enclave = EnclaveSim(seed=rnglib.child_seed(seed, "log-repair", "enclave"))
    keys = [f"key{i:04d}" for i in range(KEYS)]
    txns, records, history = _write_stream(seed, keys)
    written = [k for k in keys if history[k]]
    shadow = {k: _record(k, history[k][-1], len(history[k])) for k in written}
    gen = rnglib.derive(seed, "log-repair", "tamper")
    count = int(len(written) * TAMPER_FRACTION)
    victims = sorted(written[int(i)] for i in
                     gen.choice(len(written), size=count, replace=False))
    stored = dict(shadow)
    for i, key in enumerate(victims):
        stored[key] = _tamper(key, history[key], TAMPER_KINDS[i % len(TAMPER_KINDS)])
    # warm-up on a throwaway log: every code path of a round, on a few txns
    log = RedoLog(enclave, anchor_every=ANCHOR_EVERY)
    for tid, writes in txns[:50]:
        for key, value in writes:
            log.append_redo(tid, key, value)
        log.seal_txn(tid)
    loaded = RedoLog.from_text(log.to_text(), enclave)
    loaded.verify_log()
    loaded.detect_tamper(txns[0][1][0][0], stored[txns[0][1][0][0]])
    loaded.recover(txns[0][1][0][0])
    chunks = [txns[i:i + APPEND_CHUNK] for i in range(0, len(txns), APPEND_CHUNK)]
    return LogInputs(enclave, chunks, records, written, shadow, stored,
                     frozenset(victims))


def round_log(inp: LogInputs, rec, tracer) -> tuple:
    log = RedoLog(inp.enclave, anchor_every=ANCHOR_EVERY)
    append, seal = log.append_redo, log.seal_txn
    from_text = RedoLog.from_text
    if tracer is not None:
        append = tracer.spanned(append, "recovery.append_redo")
        seal = tracer.spanned(seal, "recovery.seal_txn")
        from_text = tracer.spanned(from_text, "recovery.from_text")

    for chunk in inp.chunks:
        t0 = clock()
        for tid, writes in chunk:
            for key, value in writes:
                append(tid, key, value)
            seal(tid)
        rec.timed(clock() - t0, sum(len(writes) for _, writes in chunk))
    rec.check(len(log.records) == inp.record_count)

    t0 = clock()
    text = log.to_text()
    loaded = from_text(text, inp.enclave)
    verify = loaded.verify_log
    if tracer is not None:
        verify = tracer.spanned(verify, "recovery.verify_log")
    verified = verify()
    rec.timed(clock() - t0)
    rec.check(verified and len(loaded.records) == inp.record_count)

    detect, recover = loaded.detect_tamper, loaded.recover
    if tracer is not None:
        detect = tracer.spanned(detect, "recovery.detect_tamper")
        recover = tracer.spanned(recover, "recovery.recover")
    flags, replays = [], []
    for key in inp.keys:
        stored = inp.stored[key]
        t0 = clock()
        detected = detect(key, stored)
        restored = recover(key)
        rec.timed(clock() - t0, primary=True)
        replay = loaded.last_replay_count
        rec.check(detected == (key in inp.tampered)
                  and restored == inp.shadow[key]
                  and replay <= ANCHOR_EVERY)
        flags.append(detected)
        replays.append(replay)

    rec.count("recovery.records", len(log.records))
    rec.count("recovery.log_bytes", len(text))
    rec.count("recovery.replay_len_max", max(replays))
    rec.count("_tampered", len(inp.tampered))
    rec.count("_detected", sum(flags[i] for i, k in enumerate(inp.keys)
                               if k in inp.tampered))
    return (len(log.records), len(text), tuple(flags), tuple(replays))
