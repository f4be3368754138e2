"""Scenario drivers: build each scenario's inputs, run it, and emit metrics.

Each scenario has two functions. `build_<scenario>(params, seed)` builds
the library objects its run uses from a merged parameter block and the
master seed, and those objects' own checks are the bounds of the block's
values. `run_<scenario>(params, seed, *built)` runs on what was built and
returns its metrics rows, a JSON-able summary, and any extra text files to
persist. `build_scenario` builds every block a config runs and reports what
an object refuses as a ConfigError, for `--validate-only` and the run
alike; `run_scenario` then runs on what it built. All randomness is drawn
from streams labeled under the master seed, so a full run and a standalone
run of the same module produce identical rows. File writing happens only in
run_scenario, after every run finished.
"""

from __future__ import annotations

from dataclasses import replace
from pathlib import Path

import numpy as np

from .. import rng as rnglib
from ..cc_adaptive import (
    Bucketizer,
    CCStrategy,
    OnlineAdapter,
    ShiftThresholds,
    observe,
    window_reward,
)
from ..engine import CCAction, Engine, WorkloadSpec, compute_checksum
from ..gate import (
    ExpertSet,
    GatingNet,
    Schema,
    encode_query,
    gate,
    parse_predicates,
    sliced_predict,
)
from ..model_select import (
    InfeasibleBudget,
    ModelSpace,
    ProxyScorer,
    Trainer,
    oracle_regret,
    plan_budget,
    select,
)
from ..plan_opt import (
    Catalog,
    MutationGrid,
    Query,
    RelStats,
    SelectorState,
    estimate_vector,
    feedback,
    gen_candidates,
    select_plan,
    simulate_latency,
    true_cost,
)
from ..recovery import EnclaveSim, RedoLog
from .config import BLOCK_OF, ConfigError, ScenarioConfig
from .metrics import MetricsWriter, write_combined_csv, write_summary


def build_select(params: dict, seed: int):
    space = ModelSpace(tuple(params["space_dims"]),
                       seed=rnglib.child_seed(seed, "select", "space"),
                       tau_range=(params["tau_min"], params["tau_max"]))
    scorer = ProxyScorer(space, rho=params["rho"], sigma=params["sigma"],
                         cost=params["score_cost"])
    # the plan every run's `select` makes, so a budget it cannot plan fails here
    plan_budget(params["budget"], space.size, scorer.cost, params["epoch_cost"],
                params["eta"], params["filter_fraction"], params["initial_epochs"])
    return space, scorer


def run_select(params: dict, seed: int, space: ModelSpace, scorer: ProxyScorer):
    writer = MetricsWriter("select")
    runs = []
    slo_met = True
    for i in range(params["runs"]):
        trainer = Trainer(space, cost_per_epoch=params["epoch_cost"],
                          noise_sigma=params["trainer_noise"])
        result = select(space, scorer, trainer, params["budget"],
                        eta=params["eta"],
                        filter_fraction=params["filter_fraction"],
                        initial_epochs=params["initial_epochs"],
                        seed=rnglib.child_seed(seed, "select", "run", i))

        run = {
            "genome_id": result.genome.genome_id,
            "genome": list(result.genome.params),
            "elapsed": result.elapsed,
            "filter_cost": result.filter_cost,
            "refine_cost": result.refine_cost,
            "scored": result.scored_count,
            "epochs": result.epochs_charged,
            "survivors": result.survivor_history,
            "batches_fed": trainer.batches_consumed,
        }
        if params["oracle"]:
            run["regret"] = oracle_regret(space, result.genome)
        slo_met = slo_met and result.elapsed <= params["budget"]
        runs.append(run)
        writer.add(i, "elapsed", result.elapsed)
        writer.add(i, "filter_cost", result.filter_cost)
        writer.add(i, "refine_cost", result.refine_cost)
        writer.add(i, "genome_id", result.genome.genome_id)
        if params["oracle"]:
            writer.add(i, "regret", run["regret"])

    summary = {
        "budget": params["budget"],
        "runs": runs,
        "slo_met_all": slo_met,
    }
    if params["oracle"] and runs:
        summary["mean_regret"] = sum(r["regret"] for r in runs) / len(runs)
    return writer, summary, {}


def _build(path: str, make, params: dict, *fixed, **args):
    """`make(*fixed, ...)` given, for each argument in `args`, the value of
    the config key it names in the mapping `params` at `path`; with no
    `args`, each key as the argument of its name. A refusal's message starts
    with the argument's name, so a value `make` refuses is a ConfigError
    naming its key by its full path."""
    args = args or {key: key for key in params}
    try:
        return make(*fixed, **{arg: params[key] for arg, key in args.items()})
    except ValueError as exc:
        arg, _, rest = str(exc).partition(" ")
        raise ConfigError(f"{path}.{args.get(arg, arg)} {rest}") from None


def _strategy_by_name(name: str, buckets: Bucketizer) -> CCStrategy:
    if name == "prescribed":
        return CCStrategy.prescribed(buckets)
    if name == "all_lock":
        return CCStrategy.constant(CCAction.LOCK_IMMEDIATE, buckets)
    return CCStrategy.constant(CCAction.OPTIMISTIC_NO_LOCK, buckets)


def build_cc_sim(params: dict, seed: int):
    buckets = Bucketizer(params["buckets"], params["contention_max"],
                         params["wait_max"])

    def engine_factory():
        return _build("cc_sim", Engine, params, max_workers="workers", hot_key_count="hot_keys",
                      lock_overhead="lock_overhead", abort_cost="abort_cost")

    adapter = OnlineAdapter(
        strategy=_strategy_by_name(params["initial_strategy"], buckets),
        thresholds=_build("cc_sim.thresholds", ShiftThresholds, params["thresholds"]),
        pop_size=params["pop_size"],
        cells_to_flip=params["mutate_cells"],
        refine_rounds=params["refine_rounds"],
        abort_penalty=params["abort_penalty"],
        probe_duration=params["probe_ticks"],
        seed=rnglib.child_seed(seed, "cc", "adapt"),
        engine_factory=engine_factory,
        cooldown_windows=params["cooldown_windows"],
    )
    specs, first = [], 0          # each phase's window workloads
    for number, phase in enumerate(params["phases"]):
        # checked even if no window runs it
        workload = _build(f"cc_sim.phases[{number}].workload", WorkloadSpec, phase["workload"])
        specs.append([replace(workload, seed=rnglib.child_seed(seed, "cc", "window", first + i))
                      for i in range(phase["windows"])])
        first += phase["windows"]
    return adapter, engine_factory(), specs


def run_cc_sim(params: dict, seed: int, adapter: OnlineAdapter, engine: Engine,
               specs: list[list[WorkloadSpec]]):
    """`specs` holds each phase's window workloads."""
    writer = MetricsWriter("cc-sim")
    adaptations = []
    window_index = 0
    phase_throughput = []
    for phase_no, phase_specs in enumerate(specs):
        throughputs = []
        for spec in phase_specs:
            policy = adapter.next_policy()
            stats = engine.run_window(spec, policy, params["window_ticks"])
            state = observe(stats, params["window_ticks"])
            reward = window_reward(stats, params["abort_penalty"])
            throughputs.append(state.throughput)

            writer.add(window_index, "throughput", state.throughput)
            writer.add(window_index, "avg_lock_wait", state.avg_lock_wait)
            writer.add(window_index, "abort_rate", state.abort_rate)
            writer.add(window_index, "contention_index", state.contention_index)
            writer.add(window_index, "reward", reward)

            event = adapter.observe_window(stats, params["window_ticks"], spec)
            if event is not None:
                writer.add(window_index, "adaptation_probes", event.probe_windows)
                adaptations.append({"window": window_index,
                                    "probe_windows": event.probe_windows})
            window_index += 1
        phase_throughput.append({
            "phase": phase_no,
            "windows": len(phase_specs),
            "mean_throughput": (sum(throughputs) / len(throughputs)
                                if throughputs else 0.0),
        })

    summary = {
        "windows": window_index,
        "adaptations": adaptations,
        "phases": phase_throughput,
    }
    return writer, summary, {}


def build_recover_demo(params: dict, seed: int):
    enclave = EnclaveSim(seed=rnglib.child_seed(seed, "recover", "enclave"))
    log = _build("recover_demo", RedoLog, params, enclave, anchor_every="anchor_every")
    engine = _build("recover_demo", Engine, params, log, max_workers="workers")
    workload = _build("recover_demo.workload", WorkloadSpec, params["workload"])
    specs = [replace(workload, seed=rnglib.child_seed(seed, "recover", "window", w))
             for w in range(params["windows"])]
    return log, engine, specs


def run_recover_demo(params: dict, seed: int, log: RedoLog, engine: Engine,
                     specs: list[WorkloadSpec]):
    writer = MetricsWriter("recover-demo")
    for spec in specs:
        engine.run_window(spec, lambda kind, heat: CCAction.LOCK_IMMEDIATE,
                          params["window_ticks"])

    written = sorted(engine.store.records)
    gen = rnglib.derive(seed, "recover", "tamper")
    count = min(params["tamper_keys"], len(written))
    victims = [written[int(i)] for i in
               gen.choice(len(written), size=count, replace=False)] if count else []

    repairs = []
    max_replay = 0
    for i, key in enumerate(sorted(victims)):
        kind = ("value", "rollback", "checksum")[i % 3]
        _inject_tamper(engine, log, key, kind)
        detected = log.detect_tamper(key, engine.store.read(key))
        restored = log.recover(key)
        replay = log.last_replay_count
        engine.store.records[key] = restored
        clean = not log.detect_tamper(key, engine.store.read(key))
        max_replay = max(max_replay, replay)

        writer.add(i, "tamper_detected", detected)
        writer.add(i, "replay_length", replay)
        writer.add(i, "repaired", clean)
        repairs.append({"key": key, "kind": kind, "detected": detected,
                        "replay_length": replay, "repaired": clean})

    log_text = log.to_text()
    reloaded = RedoLog.from_text(log_text, log.enclave)
    verified = reloaded.verify_log()
    writer.add(len(repairs), "log_verified", verified)

    summary = {
        "anchor_every": params["anchor_every"],
        "log_records": log_text.count("\n") - 1,     # a line per record, and the header
        "keys_tampered": len(repairs),
        "repairs": repairs,
        "all_detected": all(r["detected"] for r in repairs),
        "all_repaired": all(r["repaired"] for r in repairs),
        "max_replay_length": max_replay,
        "replay_bound_held": max_replay <= params["anchor_every"],
        "log_verified": verified,
    }
    return writer, summary, {"redo_log.txt": log_text}


def _inject_tamper(engine: Engine, log: RedoLog, key: str, kind: str) -> None:
    record = engine.store.read(key)
    if kind == "value":
        engine.store.tamper(key, value=record.value + 1)
    elif kind == "rollback":
        old_version = max(0, record.version - 1)
        old_value = log.value_at(key, old_version)
        engine.store.tamper(key, value=old_value, version=old_version,
                            checksum=compute_checksum(key, old_value, old_version))
    else:
        flipped = ("0" if record.checksum[0] != "0" else "1") + record.checksum[1:]
        engine.store.tamper(key, checksum=flipped)


def _build_catalog(cfg: dict) -> Catalog:
    relations = {name: RelStats(stats["true_rows"], stats["est_rows"])
                 for name, stats in cfg["relations"].items()}
    sels = {}
    for entry in cfg["selectivities"]:
        pair = tuple(entry["relations"])
        if pair in sels:   # Catalog sees one entry per dict key
            raise ValueError(f"selectivity {pair} repeats an edge")
        sels[pair] = (entry["true"], entry["est"])
    return Catalog(relations, sels)


def build_optd(params: dict, seed: int):
    catalog = _build_catalog(params["catalog"])
    query = Query(tuple(params["query"]["relations"]),
                  tuple(tuple(j) for j in params["query"]["joins"]))
    grid = MutationGrid(tuple(params["factors"]))
    estimate_vector(query, catalog)   # the catalog covers the query, and only its joins
    return catalog, query, grid


def run_optd(params: dict, seed: int, catalog: Catalog, query: Query, grid: MutationGrid):
    writer = MetricsWriter("optd")
    candidates = gen_candidates(query, catalog, params["n_plans"], grid,
                                seed=rnglib.child_seed(seed, "optd", "mutate"))
    plan_ids = {plan.key(): i for i, plan in enumerate(candidates)}
    costs = [true_cost(plan, catalog) for plan in candidates]
    best_cost = min(costs)
    best_id = costs.index(best_cost)

    state = SelectorState(explore_weight=params["explore_weight"])
    lat_gen = rnglib.derive(seed, "optd", "latency")
    chosen_ids = []
    for episode in range(params["episodes"]):
        plan = select_plan(query.template_id, candidates, state)
        observed = simulate_latency(plan, catalog, lat_gen,
                                    noise_frac=params["latency_noise"])
        feedback(query.template_id, plan, observed, state)
        plan_id = plan_ids[plan.key()]
        chosen_ids.append(plan_id)
        writer.add(episode, "plan_id", plan_id)
        writer.add(episode, "latency", observed)
        writer.add(episode, "regret", costs[plan_id] - best_cost)

    tail = chosen_ids[-100:]
    summary = {
        "template": query.template_id,
        "candidates": len(candidates),
        "true_costs": costs,
        "best_plan_id": best_id,
        "episodes": params["episodes"],
        "tail_best_fraction": (tail.count(best_id) / len(tail)) if tail else 0.0,
        "pulls": {str(plan_ids[k]): row.pulls
                  for k, row in state.template(query.template_id).items()},
    }
    return writer, summary, {}


def build_gate(params: dict, seed: int):
    schema = Schema.from_dict(params["schema"])
    encoding = encode_query(parse_predicates(params["predicate"]), schema)
    if params["net_file"] is None:
        return encoding, GatingNet.random(schema, params["n_experts"],
                                          embed_dim=params["embed_dim"],
                                          hidden_dim=params["hidden_dim"],
                                          k_max=params["k_max"],
                                          threshold=params["threshold"],
                                          seed=rnglib.child_seed(seed, "gate", "net"))
    try:
        net = GatingNet.load(params["net_file"])
    except Exception as exc:   # a file from outside: any failure to read it
        raise ConfigError(f"cannot load net file {params['net_file']}: {exc}") from None
    if not net.fits(schema):
        raise ConfigError("net file does not match the schema's width or token count")
    return encoding, net


def run_gate(params: dict, seed: int, encoding: np.ndarray, net: GatingNet):
    writer = MetricsWriter("gate")
    weights = gate(encoding, net)
    features = np.asarray(params["features"], dtype=float)
    experts = ExpertSet.random_linear(net.n_experts, features.size,
                                      seed=rnglib.child_seed(seed, "gate", "experts"))
    prediction = sliced_predict(weights, experts, features)
    dense = sum(w * experts.experts[i].evaluate(features)
                for i, w in enumerate(weights))

    for i, w in enumerate(weights):
        writer.add(i, "gate_weight", float(w))
    writer.add(len(weights), "prediction", float(prediction))

    summary = {
        "predicate": params["predicate"],
        "encoding": [int(t) for t in encoding],
        "weights": [float(w) for w in weights],
        "active_experts": [i for i, w in enumerate(weights) if w > 0],
        "prediction": float(prediction),
        "dense_matches": bool(abs(prediction - dense) <= 1e-9),
        "eval_counts": list(experts.eval_counts),
    }
    return writer, summary, {}


# scenario -> (build, run); also the order in which `full` runs them
DRIVERS = {
    "select": (build_select, run_select),
    "cc-sim": (build_cc_sim, run_cc_sim),
    "recover-demo": (build_recover_demo, run_recover_demo),
    "optd": (build_optd, run_optd),
    "gate": (build_gate, run_gate),
}


def _blocks(config: ScenarioConfig) -> list[tuple[str, dict]]:
    """(scenario, merged block) of each scenario the config runs, in order."""
    if config.scenario == "full":
        return [(name, config.full_params[BLOCK_OF[name]]) for name in DRIVERS]
    return [(config.scenario, config.params)]


def build_scenario(config: ScenarioConfig) -> dict:
    """scenario -> what its build function built, for each scenario the
    config runs. A value that an object refuses is a ConfigError naming
    the block, or the full path of a workload's field."""
    built = {}
    for name, params in _blocks(config):
        try:
            built[name] = DRIVERS[name][0](params, config.seed)
        except (ValueError, InfeasibleBudget) as exc:
            raise ConfigError(f"{BLOCK_OF[name]}: {exc}") from None
    return built


def run_scenario(config: ScenarioConfig, built: dict, out_dir) -> dict:
    """Run each scenario on what `build_scenario` built for it, then persist
    the metrics under out_dir."""
    results = {name: DRIVERS[name][1](params, config.seed, *built[name])
               for name, params in _blocks(config)}
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    if config.scenario == "full":
        write_combined_csv(out / "full_metrics.csv",
                           [writer for writer, _, _ in results.values()])
        summary = {"seed": config.seed,
                   "sections": {name: section for name, (_, section, _) in results.items()}}
        write_summary(out / "full_summary.json", summary)
    else:
        [(writer, summary, _)] = results.values()
        stem = BLOCK_OF[config.scenario]
        writer.write_csv(out / f"{stem}_metrics.csv")
        write_summary(out / f"{stem}_summary.json", dict(summary, seed=config.seed))
    for _, _, files in results.values():
        for name, text in files.items():
            with open(out / name, "w") as fh:
                fh.write(text)
    return summary
