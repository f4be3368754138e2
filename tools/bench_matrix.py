#!/usr/bin/env python3
"""Sweep the kernel's costs section by section and print one JSON object.

    PYTHONPATH=src python3 tools/bench_matrix.py cli --seed 0 --repeats 5
    PYTHONPATH=src python3 tools/bench_matrix.py dp --seed 0 --repeats 20
    PYTHONPATH=src python3 tools/bench_matrix.py log --seed 0 --repeats 5
    PYTHONPATH=src python3 tools/bench_matrix.py engine --seed 0 --repeats 5
    PYTHONPATH=src python3 tools/bench_matrix.py select --seed 0 --repeats 5
    PYTHONPATH=src python3 tools/bench_matrix.py gate --seed 0 --repeats 5

With no section named, every section runs, each at its own default repeat
count (`DEFAULT_REPEATS`); `--repeats` sets one count for all. The output
maps each section run to its object, which holds `seed`, `repeats` and the
section's constants beside its table:

- `cli`: wall time of every CLI scenario (`select`, `cc-sim`,
  `recover-demo`, `optd`, `gate`, `full`), each run as its own
  `python -m frpkernel.harness.cli` process, once with no config
  (`default_s`) and once with a config that scales its work up about
  sixteenfold (`scaled_s`; `full` merges every block of it), interpreter
  start-up included, since a user waits for that too. `startup_s` is a bare
  `import frpkernel.harness.cli` process, the share of every wall time that
  no scenario's work accounts for; subtract it to compare the work itself.
- `dp`: per relation count from 2 to 8, queries of three join shapes
  (chain, cycle, star) with random catalogs; `gen_candidates` with 8
  mutated views, as the `plan-select` workload calls it. It gives the
  median over the queries of each query's time in ms and the mean number
  of distinct candidates.
- `log`: per target length (1k, 4k, 16k and 64k records), a write stream of
  transactions of 1 to 4 distinct keys out of 200, each followed by its
  seal. It times, in ms: `append_redo` and `seal_txn` into an empty log
  (`append_seal_ms`); `to_text`; `from_text`; reading `records` of a
  freshly loaded log, which decodes every kept line (`records_ms`);
  `verify_log()` on a freshly loaded log, which knows no seal's verdict yet;
  and `recover` of every written key on another freshly loaded log. The
  repeats go round-robin: each pass times every measurement of every length
  once, so each cell's fastest call is taken over the whole run.
- `engine`: per key space (6, 24 and 2000 keys) and worker count (1, 4 and
  16), `WINDOWS` windows of `TICKS` ticks on a fresh engine, each drawn
  from the seed: transactions of `TXN_LEN` ops over Zipf(0.8) keys, 30%
  writes, arriving at `workers / (TXN_LEN + 1)` per tick, about what the
  workers can serve. The policy is the prescribed table at the empty
  system state, so hot writes lock and everything else runs
  optimistically, as on `txn-wide`. Per cell: the time in ms, the ops
  performed and `ops_per_s`, their ratio. Ops, commits and aborts are the
  same on every repeat and on every checkout that keeps the engine's
  outputs.
- `select`: per budget (600 and 1000), `SELECT_RUNS` budgeted `select` runs
  on an 8^5 `ModelSpace`, with the proxy scorer and training noise of the
  `plan-select` workload and a `Trainer` with no data feed, a fresh one per
  run. Per budget: the time of one run in ms, `runs_per_s`, and each run's
  winning genome id and epochs charged, which every checkout that keeps
  the selection outputs reproduces.
- `gate`: `PREDICATES` predicates drawn from the seed over the default
  `gate` schema, each parsed and encoded (`parse_encode_per_s`), then each
  encoding through `gate` (`forward_per_s`), for the default net and for
  the `cli` section's scaled one (64 experts, hidden width 256, embedding
  width 64). `mean_active` is the mean number of experts a pass keeps.

Every time is the fastest of the repeats, which filters out a noisy host,
as `timeit` does. To compare two checkouts, run the script against each
one's `src/`, taking turns, on the same seed.

Each section's object also holds `cal_ms`, the best of `CAL_REPEATS` times
of the calibration kernel of `benchmarks/run.py` (`CAL_REPEATS` and
`REF_CAL_S` are that file's), timed right after the section: how fast the
host ran. A time `t_ms` of the section scales to the benchmark's ref units
as `t_ms * REF_CAL_S * 1e3 / cal_ms`, which makes sweeps taken under
different host speeds comparable, as far as that speed held through the
section.
"""

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

# run.py imports its sibling modules by name
sys.path.append(str(Path(__file__).resolve().parent.parent / "benchmarks"))
from run import calibrate  # noqa: E402

from frpkernel import rng as rnglib
from frpkernel.cc_adaptive import CCStrategy, SystemState, as_policy
from frpkernel.engine import Engine, WorkloadSpec
from frpkernel.gate import CATEGORICAL, GatingNet, Schema, encode_query, gate, parse_predicates
from frpkernel.harness.config import BLOCK_OF, DEFAULTS
from frpkernel.model_select import ModelSpace, ProxyScorer, Trainer, select
from frpkernel.plan_opt import Catalog, Query, RelStats, edge_key, gen_candidates
from frpkernel.recovery import EnclaveSim, RedoLog

DEFAULT_REPEATS = {"cli": 5, "dp": 20, "log": 5, "engine": 5, "select": 5, "gate": 5}


def best_of(repeats: int, call, make_arg=lambda: None) -> tuple[float, object]:
    """The fastest of `repeats` timed calls `call(arg)` in seconds, each on a
    fresh untimed `arg = make_arg()`, and the last call's result."""
    best = float("inf")
    for _ in range(repeats):
        arg = make_arg()
        t0 = time.perf_counter()
        out = call(arg)
        best = min(best, time.perf_counter() - t0)
    return best, out


# -- cli ----------------------------------------------------------------------

# per config block, the settings that scale its scenario's work; a default
# run costs a few ms beside ~0.3 s of interpreter start-up, a scaled one
# about 0.1-0.5 s on a 2-vCPU host (`gate` stays a single prediction)
SCALED = {
    "select": {"runs": 16},
    "cc_sim": {"phases": DEFAULTS["cc_sim"]["phases"] * 16},
    "recover_demo": {"windows": 48},
    "optd": {"episodes": 3200, "n_plans": 320},
    "gate": {"n_experts": 64, "hidden_dim": 256, "embed_dim": 64},
}


def cli(seed: int, repeats: int) -> dict:
    def wall_s(*args: str) -> float:
        return round(best_of(repeats, lambda _: subprocess.run(
            [sys.executable, *args], check=True, stdout=subprocess.DEVNULL))[0], 4)

    table = {}
    with tempfile.TemporaryDirectory() as tmp:
        for scenario in (*BLOCK_OF, "full"):
            block = BLOCK_OF.get(scenario)     # None for `full`, which scales every block
            scaled = SCALED if block is None else {block: SCALED[block]}
            config = Path(tmp, f"{scenario}.json")
            # YAML reads JSON, so the CLI loads this file like any config
            config.write_text(json.dumps({"scenario": scenario, **scaled}))
            run = ["-m", "frpkernel.harness.cli", scenario,
                   "--seed", str(seed), "--out", str(Path(tmp, "out"))]
            table[scenario] = {"default_s": wall_s(*run),
                               "scaled_s": wall_s(*run, "--config", str(config))}
    return {"seed": seed, "repeats": repeats,
            "startup_s": wall_s("-c", "import frpkernel.harness.cli"), "scenarios": table}


# -- dp -----------------------------------------------------------------------

SHAPES = ("chain", "cycle", "star")
QUERIES_PER_SHAPE = 2
SIZES = range(2, 9)
N_PLANS = 8


def make_query(gen, size: int, shape: str) -> tuple[Query, Catalog]:
    rels = [f"r{i}" for i in range(size)]
    joins = (list(zip(rels, rels[1:])) if shape == "chain" or size == 2
             else list(zip(rels, rels[1:] + rels[:1])) if shape == "cycle"
             else [(rels[0], r) for r in rels[1:]])

    def true_and_estimate(low: float, high: float) -> tuple[float, float]:
        """A true value log-uniform in [10^low, 10^high] and an estimate of
        it off by a log-uniform factor in [0.1, 10]."""
        true = float(10 ** gen.uniform(low, high))
        return true, true * float(10 ** gen.uniform(-1.0, 1.0))

    stats = {rel: RelStats(*true_and_estimate(2.0, 6.0)) for rel in rels}
    sels = {edge_key(a, b): true_and_estimate(-4.0, -1.0) for a, b in joins}
    return Query(tuple(rels), tuple(joins)), Catalog(stats, sels)


def dp(seed: int, repeats: int) -> dict:
    gen = rnglib.derive(seed, "bench-dp")
    table = {}
    for size in SIZES:
        best_ms, distinct = [], []
        for shape in SHAPES:
            for _ in range(QUERIES_PER_SHAPE):
                query, catalog = make_query(gen, size, shape)
                mutate_seed = int(gen.integers(0, 2**31))
                best, plans = best_of(repeats, lambda _: gen_candidates(
                    query, catalog, N_PLANS, seed=mutate_seed))
                best_ms.append(best * 1e3)
                distinct.append(len(plans))
        table[str(size)] = {"median_best_ms": round(statistics.median(best_ms), 4),
                            "queries": len(best_ms),
                            "mean_candidates": round(statistics.fmean(distinct), 2)}
    return {"seed": seed, "n_plans": N_PLANS, "repeats": repeats, "relations": table}


# -- log ----------------------------------------------------------------------

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
    redo = RedoLog(enclave, anchor_every=ANCHOR_EVERY)
    append, seal = redo.append_redo, redo.seal_txn
    for tid, writes in txns:
        for key, value in writes:
            append(tid, key, value)
        seal(tid)
    return redo


def log(seed: int, repeats: int) -> dict:
    enclave = EnclaveSim(seed=rnglib.child_seed(seed, "bench-log", "enclave"))
    streams = {target: write_stream(seed, target) for target in LENGTHS}
    keys = {target: sorted({key for _, writes in txns for key, _ in writes})
            for target, txns in streams.items()}
    best, table = {target: {} for target in LENGTHS}, {}
    for _ in range(repeats):
        for target, txns in streams.items():
            ms = best[target]

            def take(phase: str, call, make_arg=lambda: None):
                t, out = best_of(1, call, make_arg)
                ms[phase] = min(ms.get(phase, t), t)
                return out

            redo = take("append_seal_ms", lambda _: build(enclave, txns))
            text = take("to_text_ms", lambda _: redo.to_text())
            take("from_text_ms", lambda _: RedoLog.from_text(text, enclave))
            # a log keeps each seal's verdict, so these time freshly loaded logs
            loaded = lambda: RedoLog.from_text(text, enclave)    # noqa: E731
            take("records_ms", lambda cold: cold.records, loaded)
            if not take("verify_log_ms", RedoLog.verify_log, loaded):
                raise SystemExit(f"error: the {target}-record log failed verify_log")
            take("recover_ms", lambda cold: list(map(cold.recover, keys[target])), loaded)
            if str(target) not in table:
                table[str(target)] = {"records": len(redo.records), "bytes": len(text.encode()),
                                      "keys": len(keys[target])}
    for target in LENGTHS:
        table[str(target)].update((p, round(t * 1e3, 3)) for p, t in best[target].items())
    return {"seed": seed, "keys": KEYS, "anchor_every": ANCHOR_EVERY,
            "repeats": repeats, "lengths": table}


# -- engine -------------------------------------------------------------------

KEY_SPACES = (6, 24, 2000)
WORKERS = (1, 4, 16)
WINDOWS = 8
TICKS = 200
TXN_LEN = 4


def engine(seed: int, repeats: int) -> dict:
    strategy = CCStrategy.prescribed()

    def run_windows(eng: Engine, specs: list[WorkloadSpec]) -> tuple[int, int, int]:
        """The (ops, committed, aborted) totals of every window in `specs`."""
        stats = [eng.run_window(spec, as_policy(strategy, SystemState()), TICKS) for spec in specs]
        return tuple(sum(getattr(w, count) for w in stats)
                     for count in ("op_count", "committed_count", "aborted_count"))

    table: dict[str, dict[str, dict]] = {}
    for key_space in KEY_SPACES:
        row = table[str(key_space)] = {}
        for workers in WORKERS:
            specs = [WorkloadSpec(key_space=key_space, zipf_theta=0.8, write_frac=0.3,
                                  txn_len=TXN_LEN, arrival_rate=workers / (TXN_LEN + 1),
                                  seed=rnglib.child_seed(seed, "bench-engine",
                                                         key_space, workers, w))
                     for w in range(WINDOWS)]
            outcomes = set()
            best, _ = best_of(repeats, lambda eng: outcomes.add(run_windows(eng, specs)),
                              lambda: Engine(max_workers=workers))
            if len(outcomes) != 1:
                raise SystemExit(f"error: {key_space} keys x {workers} workers "
                                 "changed outcome between repeats")
            (ops, committed, aborted), = outcomes
            row[str(workers)] = {"ops": ops, "committed": committed, "aborted": aborted,
                                 "ms": round(best * 1e3, 3), "ops_per_s": round(ops / best)}
    return {"seed": seed, "windows": WINDOWS, "ticks": TICKS, "txn_len": TXN_LEN,
            "repeats": repeats, "key_spaces": table}


# -- select -------------------------------------------------------------------

SPACE_DIMS = (8, 8, 8, 8, 8)
BUDGETS = (600, 1000)
SELECT_RUNS = 4


def select_(seed: int, repeats: int) -> dict:
    space = ModelSpace(SPACE_DIMS, seed=rnglib.child_seed(seed, "bench-select", "space"))
    scorer = ProxyScorer(space, rho=0.9, sigma=0.1, cost=1.0)
    seeds = [rnglib.child_seed(seed, "bench-select", "run", i) for i in range(SELECT_RUNS)]

    def runs(budget: float) -> list:
        return [select(space, scorer, Trainer(space, cost_per_epoch=1.0, noise_sigma=0.05),
                       budget, seed=s) for s in seeds]

    table = {}
    for budget in BUDGETS:
        best, results = best_of(repeats, lambda _: runs(float(budget)))
        table[str(budget)] = {"ms_per_run": round(best * 1e3 / SELECT_RUNS, 3),
                              "runs_per_s": round(SELECT_RUNS / best, 1),
                              "genome_ids": [r.genome.genome_id for r in results],
                              "epochs": [r.epochs_charged for r in results]}
    return {"seed": seed, "dims": list(SPACE_DIMS), "runs": SELECT_RUNS,
            "repeats": repeats, "budgets": table}


# -- gate ---------------------------------------------------------------------

PREDICATES = 200
NETS = {"default": {}, "scaled": SCALED["gate"]}


def make_predicate(gen, schema: Schema) -> str:
    """A conjunction over a non-empty random subset of the attributes: an
    equality for a categorical one, an equality or a range for a numeric one,
    over values up to twice its last bucket edge."""
    count = int(gen.integers(1, schema.n_attrs + 1))
    clauses = []
    for i in sorted(gen.choice(schema.n_attrs, size=count, replace=False).tolist()):
        attr = schema.attributes[i]
        if attr.kind == CATEGORICAL:
            value = attr.vocabulary[int(gen.integers(len(attr.vocabulary)))]
            clauses.append(f"{attr.name} = {value}")
            continue
        lo, hi = sorted(round(float(x), 2) for x in gen.uniform(0.0, 2 * attr.bucket_edges[-1], 2))
        clauses.append(f"{attr.name} = {lo}" if gen.random() < 0.5
                       else f"{attr.name} between {lo} to {hi}")
    return " AND ".join(clauses)


def gate_(seed: int, repeats: int) -> dict:
    params = DEFAULTS["gate"]
    schema = Schema.from_dict(params["schema"])
    gen = rnglib.derive(seed, "bench-gate", "predicates")
    predicates = [make_predicate(gen, schema) for _ in range(PREDICATES)]

    def parse_encode(_):
        return [encode_query(parse_predicates(text), schema) for text in predicates]

    parse_s, encodings = best_of(repeats, parse_encode)
    table = {}
    for name, sizes in NETS.items():
        shape = {key: params[key] for key in ("n_experts", "embed_dim", "hidden_dim")} | sizes
        net = GatingNet.random(schema, shape["n_experts"], embed_dim=shape["embed_dim"],
                               hidden_dim=shape["hidden_dim"], k_max=params["k_max"],
                               threshold=params["threshold"],
                               seed=rnglib.child_seed(seed, "bench-gate", "net", name))
        best, weights = best_of(repeats, lambda _: [gate(e, net) for e in encodings])
        table[name] = {**shape, "forward_per_s": round(PREDICATES / best),
                       "mean_active": round(sum(int((w > 0).sum()) for w in weights)
                                            / PREDICATES, 3)}
    return {"seed": seed, "predicates": PREDICATES, "repeats": repeats,
            "parse_encode_per_s": round(PREDICATES / parse_s), "nets": table}


def cal_ms() -> float:
    """The best time in ms of the benchmark's calibration kernel."""
    cal_s: list[float] = []
    calibrate(cal_s)
    return round(min(cal_s) * 1e3, 4)


SECTIONS = {"cli": cli, "dp": dp, "log": log, "engine": engine,
            "select": select_, "gate": gate_}


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("sections", nargs="*", metavar="SECTION",
                        help=f"any of {', '.join(SECTIONS)} (default: all)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--repeats", type=int, help="timed calls per measurement "
                        f"(default: per section, {DEFAULT_REPEATS})")
    args = parser.parse_args(argv)
    if not set(args.sections) <= SECTIONS.keys():
        parser.error(f"sections are {', '.join(SECTIONS)}, not {' '.join(args.sections)}")
    if args.repeats is not None and args.repeats < 1:
        parser.error("--repeats must be at least 1")
    print(json.dumps({name: {**SECTIONS[name](args.seed, args.repeats or DEFAULT_REPEATS[name]),
                             "cal_ms": cal_ms()}
                      for name in args.sections or SECTIONS}, indent=1))


if __name__ == "__main__":
    main()
