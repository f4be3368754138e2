#!/usr/bin/env python3
"""Time engine ops per second against key space and worker count.

For each key space (6, 24 and 2000 keys) and worker count (1, 4 and 16), the
script runs `WINDOWS` windows of `TICKS` ticks on a fresh engine, each window
drawn from `--seed`: transactions of `TXN_LEN` ops over Zipf(0.8) keys, 30%
writes, arriving at `workers / (TXN_LEN + 1)` per tick, about what the
workers can serve. The policy is the prescribed table at the empty system
state, so hot writes lock and everything else runs optimistically, as on
`txn-wide`. It times the windows `--repeats` times and prints one JSON object
with, per cell, the fastest time in milliseconds, the ops performed and
`ops_per_s`, their ratio. Ops, commits and aborts are the same on every
repeat and on every checkout that keeps the engine's outputs.

The fastest of several calls filters out a noisy host, as `timeit` does.

    PYTHONPATH=src python3 tools/bench_engine.py --seed 0 --repeats 5

To compare two checkouts, run the script against each one's `src/`, taking
turns, on the same seed.
"""

from __future__ import annotations

import argparse
import json
import time

from frpkernel import rng as rnglib
from frpkernel.cc_adaptive import CCStrategy, SystemState, as_policy
from frpkernel.engine import Engine, WorkloadSpec

KEY_SPACES = (6, 24, 2000)
WORKERS = (1, 4, 16)
WINDOWS = 8
TICKS = 200
TXN_LEN = 4


def run_cell(specs: list[WorkloadSpec], workers: int) -> tuple[float, tuple[int, int, int]]:
    """Seconds to run every window in `specs` on a fresh engine, and the
    (ops, committed, aborted) totals."""
    engine = Engine(max_workers=workers)
    strategy = CCStrategy.prescribed()
    ops = committed = aborted = 0
    t0 = time.perf_counter()
    for spec in specs:
        stats = engine.run_window(spec, as_policy(strategy, SystemState()), TICKS)
        ops += stats.op_count
        committed += stats.committed_count
        aborted += stats.aborted_count
    return time.perf_counter() - t0, (ops, committed, aborted)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--repeats", type=int, default=5)
    args = parser.parse_args()

    table: dict[str, dict[str, dict]] = {}
    for key_space in KEY_SPACES:
        row = table[str(key_space)] = {}
        for workers in WORKERS:
            specs = [WorkloadSpec(key_space=key_space, zipf_theta=0.8, write_frac=0.3,
                                  txn_len=TXN_LEN, arrival_rate=workers / (TXN_LEN + 1),
                                  seed=rnglib.child_seed(args.seed, "bench-engine",
                                                         key_space, workers, w))
                     for w in range(WINDOWS)]
            best, totals = float("inf"), None
            for _ in range(args.repeats):
                secs, counts = run_cell(specs, workers)
                if totals is not None and counts != totals:
                    raise SystemExit(f"error: {key_space} keys x {workers} workers "
                                     "changed outcome between repeats")
                best, totals = min(best, secs), counts
            ops, committed, aborted = totals
            row[str(workers)] = {"ops": ops, "committed": committed, "aborted": aborted,
                                 "ms": round(best * 1e3, 3),
                                 "ops_per_s": round(ops / best)}
    print(json.dumps({"seed": args.seed, "windows": WINDOWS, "ticks": TICKS,
                      "txn_len": TXN_LEN, "repeats": args.repeats,
                      "key_spaces": table}, indent=1))


if __name__ == "__main__":
    main()
