#!/usr/bin/env python3
"""Time `gen_candidates` against relation count.

For each relation count from 2 to 8, the script draws queries of three join
shapes (chain, cycle, star) with random catalogs from `--seed`. It times
`gen_candidates` with 8 mutated views, as the `plan-select` benchmark
workload calls it, `--repeats` times on each query, and prints one JSON
object. Per relation count it gives the median over the queries of each
query's fastest call in milliseconds, and the mean number of distinct
candidates. The fastest of several calls filters out a noisy host, as
`timeit` does.

    PYTHONPATH=src python3 tools/bench_dp.py --seed 0 --repeats 20

To compare two checkouts, run the script against each one's `src/`, taking
turns, on the same seed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import time

from frpkernel import rng as rnglib
from frpkernel.plan_opt import Catalog, Query, RelStats, edge_key, gen_candidates

SHAPES = ("chain", "cycle", "star")
QUERIES_PER_SHAPE = 2
SIZES = range(2, 9)
N_PLANS = 8


def make_query(gen, size: int, shape: str) -> tuple[Query, Catalog]:
    rels = [f"r{i}" for i in range(size)]
    if shape == "chain" or size == 2:
        joins = list(zip(rels, rels[1:]))
    elif shape == "cycle":
        joins = list(zip(rels, rels[1:] + rels[:1]))
    else:
        joins = [(rels[0], r) for r in rels[1:]]
    stats = {}
    for rel in rels:
        true_rows = float(10 ** gen.uniform(2.0, 6.0))
        stats[rel] = RelStats(true_rows, true_rows * float(10 ** gen.uniform(-1.0, 1.0)))
    sels = {}
    for a, b in joins:
        true_sel = float(10 ** gen.uniform(-4.0, -1.0))
        sels[edge_key(a, b)] = (true_sel, true_sel * float(10 ** gen.uniform(-1.0, 1.0)))
    return Query(tuple(rels), tuple(joins)), Catalog(stats, sels)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--repeats", type=int, default=20)
    args = parser.parse_args()

    gen = rnglib.derive(args.seed, "bench-dp")
    table = {}
    for size in SIZES:
        best_ms, distinct = [], []
        for shape in SHAPES:
            for _ in range(QUERIES_PER_SHAPE):
                query, catalog = make_query(gen, size, shape)
                mutate_seed = int(gen.integers(0, 2**31))
                best = float("inf")
                for _ in range(args.repeats):
                    t0 = time.perf_counter()
                    plans = gen_candidates(query, catalog, N_PLANS, seed=mutate_seed)
                    best = min(best, time.perf_counter() - t0)
                best_ms.append(best * 1e3)
                distinct.append(len(plans))
        table[str(size)] = {"median_best_ms": round(statistics.median(best_ms), 4),
                            "queries": len(best_ms),
                            "mean_candidates": round(statistics.fmean(distinct), 2)}
    print(json.dumps({"seed": args.seed, "n_plans": N_PLANS,
                      "repeats": args.repeats, "relations": table}, indent=1))


if __name__ == "__main__":
    main()
