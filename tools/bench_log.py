#!/usr/bin/env python3
"""Time the redo log's phases against log length.

For each target length (1k, 4k, 16k and 64k records), the script draws a
write stream from `--seed`: transactions of 1 to 4 distinct keys out of 200,
each followed by its seal, until the log reaches the target. It times six
phases on it, `--repeats` times each, and prints one JSON object with the
fastest time of each phase in milliseconds:

- `append_seal_ms`: `append_redo` for every write and `seal_txn` for every
  transaction, into an empty log;
- `to_text_ms`: serializing the log;
- `from_text_ms`: loading the text into a new log;
- `records_ms`: reading `records` of a freshly loaded log, which decodes
  every kept line into a record object;
- `verify_log_ms`: `verify_log()` on a freshly loaded log, which knows no
  seal's verdict yet;
- `recover_ms`: `recover` of every written key on another freshly loaded
  log.

The fastest of several calls filters out a noisy host, as `timeit` does.

    PYTHONPATH=src python3 tools/bench_log.py --seed 0 --repeats 5

To compare two checkouts, run the script against each one's `src/`, taking
turns, on the same seed.
"""

from __future__ import annotations

import argparse
import json
import time

from frpkernel import rng as rnglib
from frpkernel.recovery import EnclaveSim, RedoLog

LENGTHS = (1_000, 4_000, 16_000, 64_000)
KEYS = 200
MAX_TXN_WRITES = 4
ANCHOR_EVERY = 4


def write_stream(seed: int, target: int) -> list:
    """Transactions `(txn_id, [(key, value), ...])` whose log, redo entries,
    anchors and seals together, holds at least `target` records."""
    gen = rnglib.derive(seed, "bench-log", target)
    keys = [f"key{i:04d}" for i in range(KEYS)]
    writes_of: dict[str, int] = {}
    txns, records = [], 0
    while records < target:
        size = int(gen.integers(1, MAX_TXN_WRITES + 1))
        picks = gen.choice(KEYS, size=size, replace=False).tolist()
        values = gen.integers(0, 1_000_000, size=size).tolist()
        for i in picks:
            writes_of[keys[i]] = writes_of.get(keys[i], 0) + 1
            records += 1 + (writes_of[keys[i]] % ANCHOR_EVERY == 0)
        records += 1
        txns.append((len(txns) + 1, [(keys[i], v) for i, v in zip(picks, values)]))
    return txns


def build(enclave: EnclaveSim, txns: list) -> RedoLog:
    log = RedoLog(enclave, anchor_every=ANCHOR_EVERY)
    append, seal = log.append_redo, log.seal_txn
    for tid, writes in txns:
        for key, value in writes:
            append(tid, key, value)
        seal(tid)
    return log


def fastest(repeats: int, call, make_arg=lambda: None) -> tuple[float, object]:
    """The fastest of `repeats` timed calls `call(arg)` in ms, each on a
    fresh untimed `arg = make_arg()`, and the last call's result."""
    best = float("inf")
    for _ in range(repeats):
        arg = make_arg()
        t0 = time.perf_counter()
        out = call(arg)
        best = min(best, time.perf_counter() - t0)
    return best * 1e3, out


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--repeats", type=int, default=5)
    args = parser.parse_args()

    enclave = EnclaveSim(seed=rnglib.child_seed(args.seed, "bench-log", "enclave"))
    table = {}
    for target in LENGTHS:
        txns = write_stream(args.seed, target)
        keys = sorted({key for _, writes in txns for key, _ in writes})
        append_ms, log = fastest(args.repeats, lambda _: build(enclave, txns))
        to_text_ms, text = fastest(args.repeats, lambda _: log.to_text())
        from_text_ms, _ = fastest(args.repeats, lambda _: RedoLog.from_text(text, enclave))
        # a log keeps each seal's verdict, so these time freshly loaded logs
        loaded = lambda: RedoLog.from_text(text, enclave)    # noqa: E731
        records_ms, _ = fastest(args.repeats, lambda cold: cold.records, loaded)
        verify_ms, ok = fastest(args.repeats, RedoLog.verify_log, loaded)
        if not ok:
            raise SystemExit(f"error: the {target}-record log failed verify_log")
        recover_ms, _ = fastest(args.repeats,
                                lambda cold: [cold.recover(key) for key in keys], loaded)
        table[str(target)] = {"records": len(log.records),
                              "bytes": len(text.encode()),
                              "keys": len(keys),
                              "append_seal_ms": round(append_ms, 3),
                              "to_text_ms": round(to_text_ms, 3),
                              "from_text_ms": round(from_text_ms, 3),
                              "records_ms": round(records_ms, 3),
                              "verify_log_ms": round(verify_ms, 3),
                              "recover_ms": round(recover_ms, 3)}
    print(json.dumps({"seed": args.seed, "keys": KEYS, "anchor_every": ANCHOR_EVERY,
                      "repeats": args.repeats, "lengths": table}, indent=1))


if __name__ == "__main__":
    main()
