"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. Every tolerance is pinned here; nothing is deferred to calibration.
"""

import itertools
import statistics
import time
from functools import partial

import numpy as np
import pytest

from frpkernel import rng as rnglib
from frpkernel.cc_adaptive import (
    Bucketizer,
    CCStrategy,
    OnlineAdapter,
    ShiftThresholds,
)
from frpkernel.engine import CCAction, Engine, WorkloadSpec
from frpkernel.gate import ExpertSet, GatingNet, Schema, gate, sliced_predict
from frpkernel.harness.cli import main as cli_main
from frpkernel.model_select import (
    InfeasibleBudget,
    ModelSpace,
    ProxyScorer,
    Trainer,
    explore_and_score,
    oracle_regret,
    refine,
    select,
)
from frpkernel.plan_opt import (
    HASH_JOIN,
    NESTED_LOOP,
    Catalog,
    Join,
    MutationGrid,
    Query,
    RelStats,
    Scan,
    SelectorState,
    feedback,
    gen_candidates,
    optimize_base,
    plan_cost,
    select_plan,
    true_cost,
    true_vector,
)
from frpkernel.recovery import EnclaveSim, LogCorrupt, RedoLog
from helpers import matches_some_serial_order, r, run_schedule, w


def report(criterion: int, ok: bool, detail: str) -> None:
    print(f"\nACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {criterion}: {detail}"


# -- 1. hard budget compliance over randomized runs ---------------------------------

def test_criterion_1_slo_compliance():
    gen = rnglib.derive(123, "slo-accept")
    spaces = [ModelSpace((4, 4, 4), seed=s) for s in range(10)]
    runs, compliant, executed = 1000, 0, 0
    started = time.perf_counter()
    for i in range(runs):
        space = spaces[i % len(spaces)]
        budget = float(gen.uniform(5, 300))
        scorer = ProxyScorer(space, rho=float(gen.uniform(0, 1)),
                             sigma=float(gen.uniform(0, 1)))
        trainer = Trainer(space, noise_sigma=0.05)
        try:
            result = select(space, scorer, trainer, budget,
                            filter_fraction=float(gen.uniform(0.1, 0.9)), seed=i)
        except InfeasibleBudget:
            compliant += 1     # nothing ran, so nothing exceeded the budget
            continue
        executed += 1
        compliant += result.elapsed <= budget
    elapsed = time.perf_counter() - started
    per_100 = elapsed / (runs / 100)
    ok = compliant == runs and executed >= 900 and per_100 <= 1.0
    report(1, ok, f"{compliant}/{runs} within budget, {executed} executed, "
                  f"{per_100:.2f}s per 100 runs")


# -- 2. oracle equivalence and regret ladder ------------------------------------------

def test_criterion_2_selection_oracle():
    exact_hits = 0
    for seed in range(50):
        space = ModelSpace((4, 4, 4, 4), seed=seed, tau_range=(4.0, 4.0))
        scorer = ProxyScorer(space, rho=1.0, sigma=0.0)
        trainer = Trainer(space, noise_sigma=0.0)
        result = select(space, scorer, trainer, budget=1200.0,
                        filter_fraction=0.5, seed=seed)
        brute = max(space.enumerate_params(), key=space.a_final)
        exact_hits += result.genome.params == tuple(brute)

    ladder = [50.0, 100.0, 200.0, 400.0, 800.0]
    means = []
    for budget in ladder:
        regrets = []
        for seed in range(50):
            space = ModelSpace((4, 4, 4, 4), seed=1000 + seed)
            scorer = ProxyScorer(space, rho=0.9, sigma=0.1)
            trainer = Trainer(space, noise_sigma=0.05)
            result = select(space, scorer, trainer, budget, seed=seed)
            regrets.append(oracle_regret(space, result.genome))
        means.append(statistics.mean(regrets))

    inversions = [means[i + 1] - means[i] for i in range(len(means) - 1)
                  if means[i + 1] > means[i]]
    ladder_ok = len(inversions) <= 1 and all(gap <= 0.005 for gap in inversions)
    ok = exact_hits == 50 and ladder_ok
    report(2, ok, f"argmax {exact_hits}/50, regret ladder "
                  f"{[round(m, 4) for m in means]}, inversions={inversions}")


# -- 3. successive-halving arithmetic --------------------------------------------------

def test_criterion_3_halving_arithmetic():
    space = ModelSpace((4, 4, 4, 4), seed=7)
    scored = explore_and_score(space, ProxyScorer(space), n=16, seed=7)
    outcome = refine(scored, initial_epochs=1, eta=2, trainer=Trainer(space))
    ok = outcome.survivor_history == [16, 8, 4, 2, 1] and outcome.epochs_charged == 64
    report(3, ok, f"survivors {outcome.survivor_history}, "
                  f"epochs {outcome.epochs_charged}")


# -- 4. concurrency-control adaptation ---------------------------------------------------

CC_PHASE_A = dict(key_space=24, zipf_theta=0.0, write_frac=0.0,
                  txn_len=3, arrival_rate=4.0)
CC_PHASE_B = dict(key_space=4, zipf_theta=0.99, write_frac=0.85,
                  txn_len=3, arrival_rate=4.0)
CC_A_WINDOWS, CC_B_WINDOWS, CC_TICKS = 3, 7, 80
CC_MEASURE_FROM = CC_A_WINDOWS + 2
CC_FACTORY = partial(Engine, max_workers=6, hot_key_count=2)


def cc_window_spec(seed, idx):
    phase = CC_PHASE_A if idx < CC_A_WINDOWS else CC_PHASE_B
    return WorkloadSpec(seed=rnglib.child_seed(seed, "accept-cc", "window", idx),
                        **phase)


def cc_run_adapted(seed):
    adapter = OnlineAdapter(
        strategy=CCStrategy.prescribed(Bucketizer(buckets=1, wait_max=5.0)),
        thresholds=ShiftThresholds(),
        pop_size=8, cells_to_flip=1, refine_rounds=1,
        abort_penalty=0.1, probe_duration=320,
        seed=rnglib.child_seed(seed, "accept-cc", "adapt"),
        engine_factory=CC_FACTORY, cooldown_windows=2)
    engine = CC_FACTORY()
    throughputs, first_detect, max_probes = [], None, 0
    for idx in range(CC_A_WINDOWS + CC_B_WINDOWS):
        spec = cc_window_spec(seed, idx)
        stats = engine.run_window(spec, adapter.next_policy(), CC_TICKS)
        event = adapter.observe_window(stats, CC_TICKS, spec)
        if event is not None:
            max_probes = max(max_probes, event.probe_windows)
            if first_detect is None:
                first_detect = idx
        if idx >= CC_MEASURE_FROM:
            throughputs.append(stats.committed_count / CC_TICKS)
    return statistics.mean(throughputs), first_detect, max_probes


def cc_run_baseline(seed, action):
    engine = CC_FACTORY()
    throughputs = []
    for idx in range(CC_A_WINDOWS + CC_B_WINDOWS):
        stats = engine.run_window(cc_window_spec(seed, idx),
                                  lambda kind, heat: action, CC_TICKS)
        if idx >= CC_MEASURE_FROM:
            throughputs.append(stats.committed_count / CC_TICKS)
    return statistics.mean(throughputs)


def test_criterion_4_cc_adaptation():
    seeds = range(25)
    adapted, locks, opts, detects, probes = [], [], [], [], []
    for seed in seeds:
        mean_tp, first_detect, max_probes = cc_run_adapted(seed)
        adapted.append(mean_tp)
        detects.append(first_detect)
        probes.append(max_probes)
        locks.append(cc_run_baseline(seed, CCAction.LOCK_IMMEDIATE))
        opts.append(cc_run_baseline(seed, CCAction.OPTIMISTIC_NO_LOCK))

    mean_adapted = statistics.mean(adapted)
    best_baseline = max(statistics.mean(locks), statistics.mean(opts))
    throughput_ok = mean_adapted >= best_baseline * 0.98
    detect_ok = all(d == CC_A_WINDOWS for d in detects)  # first post-shift window
    probes_ok = all(p <= 10 for p in probes)
    ok = throughput_ok and detect_ok and probes_ok
    report(4, ok, f"adapted {mean_adapted:.4f} vs best baseline {best_baseline:.4f} "
                  f"(-2% bar {best_baseline * 0.98:.4f}), shift detected in the "
                  f"first post-shift window on {sum(d == CC_A_WINDOWS for d in detects)}"
                  f"/25 seeds, max adaptation probes {max(probes)} <= 10")


# -- 5. serializability over exhaustive interleavings -------------------------------------

def test_criterion_5_serializability():
    specs = [
        [w("a", 1), r("b")],
        [w("b", 2), r("c")],
        [w("c", 3), r("a")],
    ]
    base = [0] * 3 + [1] * 3 + [2] * 3  # 2 ops + commit per txn
    orders = sorted(set(itertools.permutations(base)))
    modes = {
        "all-lock": lambda kind: CCAction.LOCK_IMMEDIATE,
        "all-optimistic": lambda kind: CCAction.OPTIMISTIC_NO_LOCK,
        "lock-writes": lambda kind: (CCAction.LOCK_IMMEDIATE if kind == "write"
                                     else CCAction.OPTIMISTIC_NO_LOCK),
    }
    checked = violations = 0
    for mode in modes.values():
        actions = [[mode(op.kind) for op in ops] for ops in specs]
        for order in orders:
            committed, final, reads = run_schedule(specs, actions, order)
            checked += 1
            if not matches_some_serial_order(specs, actions, committed, final, reads):
                violations += 1
    ok = violations == 0 and checked == 3 * len(orders)
    report(5, ok, f"{checked} schedules ({len(orders)} interleavings x 3 action "
                  f"modes), {violations} serializability violations")


# -- 6. recovery correctness, bounded replay, bit-flip detection ----------------------------

def test_criterion_6_recovery():
    mismatches = bound_breaks = undetected_tampers = 0
    histories = 0
    for n in (1, 2, 4, 8):
        for trial in range(25):
            seed = rnglib.child_seed(trial, "accept-recovery", n)
            log = RedoLog(EnclaveSim(seed=seed), anchor_every=n)
            engine = Engine(log=log, max_workers=4)
            spec = WorkloadSpec(key_space=6, zipf_theta=1.0, write_frac=0.7,
                                txn_len=3, arrival_rate=3.0, seed=seed)
            engine.run_window(spec, lambda kind, heat: CCAction.LOCK_IMMEDIATE, 20)
            histories += 1

            shadow = {}     # key -> (value, mod index) of its last redo line
            for line in log.records:
                if line.startswith("R|"):
                    _, _, _, key, value, mod_index = line.split("|")
                    shadow[key] = (int(value), int(mod_index))
            if not shadow:
                continue
            victim = sorted(shadow)[trial % len(shadow)]
            engine.store.tamper(victim, value=shadow[victim][0] + 17)
            if not log.detect_tamper(victim, engine.store.read(victim)):
                undetected_tampers += 1
            for key, expected in shadow.items():
                restored = log.recover(key)
                if (restored.value, restored.version) != expected:
                    mismatches += 1
                if log.last_replay_count > n:
                    bound_breaks += 1

    # exhaustive single-bit flips over a ~1 KB serialized log
    enclave = EnclaveSim(seed=404)
    log = RedoLog(enclave, anchor_every=4)
    for txn in range(9):
        log.register_txn(txn)
        log.append_redo(txn, f"k{txn % 3}", 1000 + txn)
        log.seal_txn(txn)
    raw = log.to_text().encode()
    assert len(raw) >= 1024, f"log only {len(raw)} bytes"
    missed_flips = 0
    for byte_idx in range(len(raw)):
        for bit in range(8):
            mutated = bytearray(raw)
            mutated[byte_idx] ^= 1 << bit
            try:
                reloaded = RedoLog.from_text(bytes(mutated).decode("utf-8"), enclave)
                if reloaded.verify_log():
                    missed_flips += 1
            except (LogCorrupt, UnicodeDecodeError):
                pass

    ok = (mismatches == 0 and bound_breaks == 0 and undetected_tampers == 0
          and missed_flips == 0)
    report(6, ok, f"{histories} histories over n in (1,2,4,8): {mismatches} oracle "
                  f"mismatches, {bound_breaks} replay-bound breaks, "
                  f"{undetected_tampers} undetected tampers; {len(raw) * 8} bit "
                  f"flips, {missed_flips} missed")


# -- 7. optimizer matches exhaustive enumeration; mutation recovers good plans ----------------

def accept_catalog(cd_est):
    return Catalog(
        relations={
            "A": RelStats(1000, 1000),
            "B": RelStats(100, 100),
            "C": RelStats(100, 100),
            "D": RelStats(1000, 1000),
            "E": RelStats(50, 50),
        },
        selectivities={
            ("A", "B"): (0.01, 0.01),
            ("B", "C"): (0.0001, 0.0001),
            ("C", "D"): (0.01, cd_est),
            ("D", "E"): (0.05, 0.05),
        },
    )


def all_plans(rels):
    items = sorted(rels)
    if len(items) == 1:
        yield Scan(items[0])
        return
    n = len(items)
    for mask in range(1, 2 ** n - 1):
        left = frozenset(items[i] for i in range(n) if mask >> i & 1)
        right = frozenset(items) - left
        for lp in all_plans(left):
            for rp in all_plans(right):
                for algo in (HASH_JOIN, NESTED_LOOP):
                    yield Join(lp, rp, algo)


def test_criterion_7_optimizer_oracle():
    catalog = accept_catalog(cd_est=0.01)
    rels = ("A", "B", "C", "D", "E")
    edges = tuple(catalog.selectivities)
    dp_mismatches = queries = 0
    for size in range(1, 6):
        for subset in itertools.combinations(rels, size):
            joins = tuple(e for e in edges if e[0] in subset and e[1] in subset)
            query = Query(subset, joins)
            view = true_vector(query, catalog)
            best = optimize_base(query, catalog, view)
            oracle = min(plan_cost(p, view) for p in all_plans(subset))
            queries += 1
            if abs(plan_cost(best, view) - oracle) > 1e-9 * max(oracle, 1.0):
                dp_mismatches += 1

    # C-D selectivity estimated 100x too low, which lures the base plan into
    # joining C-D far too eagerly; candidates must still contain a plan
    # within 10% of the true optimum in at least 95/100 seeds
    wrong = accept_catalog(cd_est=0.0001)
    query = Query(("A", "B", "C", "D"),
                  (("A", "B"), ("B", "C"), ("C", "D")))
    optimum = min(true_cost(p, wrong) for p in all_plans(query.relations))
    hits = 0
    for seed in range(100):
        plans = gen_candidates(query, wrong, n_plans=20,
                               grid=MutationGrid(), seed=seed)
        best = min(true_cost(p, wrong) for p in plans)
        hits += best <= 1.10 * optimum
    ok = dp_mismatches == 0 and hits >= 95
    report(7, ok, f"{queries} queries DP==exhaustive with {dp_mismatches} "
                  f"mismatches; near-optimal candidate in {hits}/100 seeds")


def test_criterion_8_bandit_convergence():
    fast, slow = Scan("fast"), Scan("slow")
    latencies = {"fast": 10.0, "slow": 20.0}
    per_seed = []
    for seed in range(50):
        state = SelectorState()
        gen = rnglib.derive(seed, "accept-bandit")
        tail = []
        for episode in range(200):
            plan = select_plan("t", [fast, slow], state)
            observed = latencies[plan.key()] * (1 + 0.05 * float(gen.uniform(-1, 1)))
            feedback("t", plan, observed, state)
            if episode >= 100:
                tail.append(plan.key())
        per_seed.append(tail.count("fast"))
    ok = all(count >= 90 for count in per_seed)
    report(8, ok, f"min {min(per_seed)}/100 and mean {statistics.mean(per_seed):.1f}"
                  f"/100 of the last 100 pulls on the faster plan over 50 seeds")


def test_criterion_9_gating_equivalence():
    schema = Schema.from_dict({
        "attributes": [
            {"name": "gender", "kind": "categorical", "vocabulary": ["Male", "Female"]},
            {"name": "age", "kind": "numeric", "bucket_edges": [18.0, 30.0, 45.0, 65.0]},
            {"name": "region", "kind": "categorical", "vocabulary": ["n", "s", "e", "w"]},
        ],
    })
    gen = rnglib.derive(55, "accept-gate")
    checked = equiv_failures = simplex_failures = sparsity_failures = lazy_failures = 0
    for net_idx in range(20):
        k = int(gen.integers(2, 9))
        net = GatingNet.random(schema, n_experts=k,
                               k_max=int(gen.integers(1, k + 1)),
                               threshold=float(gen.uniform(0.0, 0.3)),
                               seed=1000 + net_idx)
        experts = ExpertSet.random_linear(k, 5, seed=net_idx)
        for _ in range(500):
            encoding = np.array([int(gen.integers(0, schema.n_tokens))
                                 for _ in range(schema.n_attrs)])
            weights = gate(encoding, net)
            x = gen.normal(0, 1, 5)
            before = list(experts.eval_counts)
            sliced = sliced_predict(weights, experts, x)
            dense = sum(wt * experts.experts[i].evaluate(x)
                        for i, wt in enumerate(weights))
            checked += 1
            if abs(sliced - dense) > 1e-9:
                equiv_failures += 1
            if not ((weights >= 0).all() and abs(weights.sum() - 1.0) <= 1e-9):
                simplex_failures += 1
            if (weights > 0).sum() > net.k_max:
                sparsity_failures += 1
            grew = [experts.eval_counts[i] - before[i] for i in range(k)]
            if any((weights[i] == 0) != (grew[i] == 0) for i in range(k)):
                lazy_failures += 1
    ok = (equiv_failures == simplex_failures == sparsity_failures
          == lazy_failures == 0) and checked == 10_000
    report(9, ok, f"{checked} random (net, x) pairs: {equiv_failures} equivalence, "
                  f"{simplex_failures} simplex, {sparsity_failures} sparsity, "
                  f"{lazy_failures} laziness failures")


def test_criterion_10_cli_determinism(tmp_path):
    scenarios = ["select", "cc-sim", "recover-demo", "optd", "gate", "full"]
    mismatched = []
    for scenario in scenarios:
        out_a = tmp_path / f"{scenario}-a"
        out_b = tmp_path / f"{scenario}-b"
        for out in (out_a, out_b):
            code = cli_main([scenario, "--seed", "77", "--out", str(out)])
            assert code == 0, f"{scenario} exited {code}"
        names_a = sorted(p.name for p in out_a.iterdir())
        names_b = sorted(p.name for p in out_b.iterdir())
        if names_a != names_b:
            mismatched.append(scenario)
            continue
        for name in names_a:
            if (out_a / name).read_bytes() != (out_b / name).read_bytes():
                mismatched.append(f"{scenario}/{name}")
    ok = not mismatched
    report(10, ok, f"{len(scenarios)} scenarios re-run byte-identical"
                   + (f"; mismatches: {mismatched}" if mismatched else ""))
