"""`plan-select`: join-plan candidates and bandit episodes, budgeted model
selection fed through the circular buffer, and predicate-gated predictions.

The only workload where `plan_opt`, `model_select`, `gate` and the harness
buffer do work; the engine and recovery do none.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

import numpy as np

from frpkernel import rng as rnglib
from frpkernel.gate import (
    CATEGORICAL,
    NUMERIC,
    Attribute,
    ExpertSet,
    GatingNet,
    Schema,
    encode_query,
    gate,
    parse_predicates,
    sliced_predict,
)
from frpkernel.harness.buffer import BufferClosed, CircularBuffer
from frpkernel.model_select import ModelSpace, ProxyScorer, Trainer, oracle_regret, select
from frpkernel.plan_opt import (
    Catalog,
    Query,
    RelStats,
    SelectorState,
    edge_key,
    feedback,
    gen_candidates,
    select_plan,
    simulate_latency,
    true_cost,
)

from tracing import clock

# Relation counts per round. gen_candidates time grows steeply with the
# count, so the mix places the median in the middle of the 7-relation mode
# and the 90th percentile inside the 8-relation mode. Each query's number of
# distinct candidates, which sets the cost of its bandit episodes, varies
# with the seed; 16 queries average that out.
QUERY_SIZES = (5, 6, 7, 7, 7, 7, 8, 8) * 2
SHAPES = ("chain", "cycle", "star")
N_PLANS = 8
EPISODES = 200
TAIL = 50
LATENCY_NOISE = 0.1

SPACE_DIMS = (8, 8, 8, 8, 8)
BUDGETS = (600.0, 1000.0)
BUFFER_CAPACITY = 8

PREDICATES = 200
# episodes and predictions are timed in chunks of this size: short timed
# calls let the per-call minimum over rounds filter out host noise
CHUNK = 20
N_EXPERTS = 8
SCHEMA = Schema([
    Attribute("region", CATEGORICAL, vocabulary=("north", "south", "east", "west")),
    Attribute("tier", CATEGORICAL, vocabulary=("free", "basic", "pro", "team", "corp")),
    Attribute("device", CATEGORICAL, vocabulary=("web", "ios", "android")),
    Attribute("age", NUMERIC, bucket_edges=(18.0, 30.0, 45.0, 65.0)),
    Attribute("spend", NUMERIC, bucket_edges=(10.0, 100.0, 1000.0)),
    Attribute("tenure", NUMERIC, bucket_edges=(1.0, 3.0, 6.0, 12.0, 24.0)),
])
NUMERIC_RANGE = {"age": (10.0, 90.0), "spend": (1.0, 5000.0), "tenure": (0.0, 48.0)}


@dataclass
class PlanQuery:
    query: Query
    catalog: Catalog
    mutate_seed: int
    latency_seed: int


@dataclass
class PlanInputs:
    queries: list[PlanQuery]
    space: ModelSpace
    scorer: ProxyScorer
    select_seeds: list[int]
    net: GatingNet
    experts: ExpertSet
    predicates: list[str]
    features: list[np.ndarray]


def _make_query(gen, index: int, size: int, shape: str) -> tuple[Query, Catalog]:
    rels = [f"q{index}r{i}" for i in range(size)]
    if shape == "chain":
        joins = [(rels[i], rels[i + 1]) for i in range(size - 1)]
    elif shape == "cycle":
        joins = [(rels[i], rels[(i + 1) % size]) for i in range(size)]
    else:
        joins = [(rels[0], rels[i]) for i in range(1, size)]
    stats = {}
    for rel in rels:
        true_rows = float(10 ** gen.uniform(2.0, 6.0))
        stats[rel] = RelStats(true_rows, true_rows * float(10 ** gen.uniform(-1.0, 1.0)))
    sels = {}
    for a, b in joins:
        true_sel = float(10 ** gen.uniform(-4.0, -1.0))
        sels[edge_key(a, b)] = (true_sel, true_sel * float(10 ** gen.uniform(-1.0, 1.0)))
    return Query(tuple(rels), tuple(joins)), Catalog(stats, sels)


def _make_predicate(gen) -> str:
    count = int(gen.integers(1, SCHEMA.n_attrs + 1))
    picks = sorted(int(i) for i in gen.choice(SCHEMA.n_attrs, size=count, replace=False))
    clauses = []
    for idx in picks:
        attr = SCHEMA.attributes[idx]
        if attr.kind == CATEGORICAL:
            value = attr.vocabulary[int(gen.integers(0, len(attr.vocabulary)))]
            clauses.append(f"{attr.name} = {value}")
            continue
        lo, hi = NUMERIC_RANGE[attr.name]
        a, b = sorted(round(float(x), 2) for x in gen.uniform(lo, hi, size=2))
        if gen.random() < 0.5:
            clauses.append(f"{attr.name} = {a}")
        else:
            clauses.append(f"{attr.name} between {a} to {b}")
    return " AND ".join(clauses)


def setup_plan(seed: int) -> PlanInputs:
    gen = rnglib.derive(seed, "plan-select", "queries")
    offset = int(gen.integers(0, len(SHAPES)))
    queries = []
    for i, size in enumerate(QUERY_SIZES):
        query, catalog = _make_query(gen, i, size, SHAPES[(offset + i) % len(SHAPES)])
        queries.append(PlanQuery(query, catalog,
                                 rnglib.child_seed(seed, "plan-select", "mutate", i),
                                 rnglib.child_seed(seed, "plan-select", "latency", i)))

    space = ModelSpace(SPACE_DIMS, seed=rnglib.child_seed(seed, "plan-select", "space"))
    scorer = ProxyScorer(space, rho=0.9, sigma=0.1, cost=1.0)
    select_seeds = [rnglib.child_seed(seed, "plan-select", "select", i)
                    for i in range(len(BUDGETS))]

    net = GatingNet.random(SCHEMA, N_EXPERTS, k_max=2, threshold=0.05,
                           seed=rnglib.child_seed(seed, "plan-select", "net"))
    experts = ExpertSet.random_linear(N_EXPERTS, SCHEMA.n_attrs,
                                      seed=rnglib.child_seed(seed, "plan-select", "experts"))
    pgen = rnglib.derive(seed, "plan-select", "predicates")
    predicates = [_make_predicate(pgen) for _ in range(PREDICATES)]
    features = [pgen.normal(0.0, 1.0, SCHEMA.n_attrs) for _ in range(PREDICATES)]

    inputs = PlanInputs(queries, space, scorer, select_seeds, net, experts,
                        predicates, features)
    # warm-up: one small candidate search, a tiny select run, one prediction
    gen_candidates(queries[0].query, queries[0].catalog, 1, seed=0)
    _select_run(inputs, BUDGETS[0] / 10, select_seeds[0], None)
    weights = gate(encode_query(parse_predicates(predicates[0]), SCHEMA), net)
    sliced_predict(weights, experts, features[0])
    return inputs


def _produce_batches(feed: CircularBuffer) -> None:
    batch = 0
    while True:
        try:
            feed.produce(batch)
        except BufferClosed:
            return
        batch += 1


class _SpannedScorer:
    """The scorer handed to `select`, with each score call in a span."""

    def __init__(self, inner, tracer):
        self.cost = inner.cost
        self.score = tracer.spanned(inner.score, "model_select.score")


def _select_run(inp: PlanInputs, budget: float, seed: int, tracer):
    """One budgeted select run; returns (result, trainer, seconds, producer)."""
    feed = CircularBuffer(BUFFER_CAPACITY)
    producer = threading.Thread(target=_produce_batches, args=(feed,), daemon=True)
    producer.start()
    consume, scorer, run = feed.consume, inp.scorer, select
    if tracer is not None:
        consume = tracer.timed(consume, "harness.buffer_consume")
        scorer = _SpannedScorer(scorer, tracer)
        run = tracer.spanned(select, "model_select.select")
    trainer = Trainer(inp.space, cost_per_epoch=1.0, noise_sigma=0.05,
                      data_source=consume)
    try:
        t0 = clock()
        result = run(inp.space, scorer, trainer, budget, seed=seed)
        dt = clock() - t0
    finally:
        feed.close()
        producer.join(timeout=5.0)
    return result, trainer, dt, producer


def round_plan(inp: PlanInputs, rec, tracer) -> tuple:
    outcome = []
    _plans(inp, rec, tracer, outcome)
    _selects(inp, rec, tracer, outcome)
    _predictions(inp, rec, tracer, outcome)
    return tuple(outcome)


def _plans(inp: PlanInputs, rec, tracer, outcome: list) -> None:
    generate, simulate = gen_candidates, simulate_latency
    if tracer is not None:
        generate = tracer.spanned(generate, "plan_opt.gen_candidates")
        simulate = tracer.spanned(simulate, "plan_opt.simulate_latency")
    state = SelectorState()

    def episode(template, cands, catalog, lat_gen):
        plan = select_plan(template, cands, state)
        feedback(template, plan, simulate(plan, catalog, lat_gen, LATENCY_NOISE), state)
        return plan

    if tracer is not None:
        episode = tracer.spanned(episode, "plan_opt.episode")

    for pq in inp.queries:
        t0 = clock()
        cands = generate(pq.query, pq.catalog, N_PLANS, seed=pq.mutate_seed)
        rec.timed(clock() - t0, primary=True)
        keys = [p.key() for p in cands]
        rec.check(bool(cands) and len(set(keys)) == len(keys))

        template = pq.query.template_id
        lat_gen = rnglib.derive(pq.latency_seed)
        chosen = []
        for _ in range(EPISODES // CHUNK):
            t0 = clock()
            for _ in range(CHUNK):
                chosen.append(episode(template, cands, pq.catalog, lat_gen))
            rec.timed(clock() - t0, CHUNK)

        keyset = set(keys)
        for plan in chosen:
            rec.check(plan.key() in keyset)
        costs = [true_cost(p, pq.catalog) for p in cands]
        best = keys[costs.index(min(costs))]
        tail = [p.key() for p in chosen[-TAIL:]]
        rec.count("_unique_plans", len(cands))
        rec.count("_plans_tried", N_PLANS + 1)
        rec.count("_tail_best", tail.count(best) / len(tail))
        outcome.append((tuple(keys), tuple(p.key() for p in chosen)))


def _selects(inp: PlanInputs, rec, tracer, outcome: list) -> None:
    for budget, seed in zip(BUDGETS, inp.select_seeds):
        result, trainer, dt, producer = _select_run(inp, budget, seed, tracer)
        rec.timed(dt)
        rec.check(result.elapsed <= budget
                  and not producer.is_alive()
                  and trainer.batches_consumed == result.epochs_charged
                  and result.genome == inp.space.genome(result.genome.params))
        regret = oracle_regret(inp.space, result.genome)
        rec.count("model_select.epochs", result.epochs_charged)
        rec.count("harness.batches", trainer.batches_consumed)
        rec.count("_regret", regret)
        rec.count("_select_runs", 1)
        rec.count("_elapsed", result.elapsed)
        rec.count("_budget", budget)
        outcome.append((result.genome.genome_id, result.elapsed, result.epochs_charged))


def _predictions(inp: PlanInputs, rec, tracer, outcome: list) -> None:
    net, experts = inp.net, inp.experts

    def parse_encode(text):
        return encode_query(parse_predicates(text), SCHEMA)

    forward = gate
    if tracer is not None:
        parse_encode = tracer.spanned(parse_encode, "gate.parse_encode")
        forward = tracer.spanned(forward, "gate.forward")

    def predict(text, features):
        weights = forward(parse_encode(text), net)
        return weights, sliced_predict(weights, experts, features)

    if tracer is not None:
        predict = tracer.spanned(predict, "gate.predict")

    evals_before = sum(experts.eval_counts)
    pairs = list(zip(inp.predicates, inp.features))
    results = []
    for i in range(0, len(pairs), CHUNK):
        t0 = clock()
        for text, x in pairs[i:i + CHUNK]:
            results.append(predict(text, x))
        rec.timed(clock() - t0)
    rec.count("gate.expert_evals", sum(experts.eval_counts) - evals_before)
    rec.count("_expert_slots", len(results) * N_EXPERTS)

    for (weights, prediction), x in zip(results, inp.features):
        dense = sum(float(w) * e.evaluate(x) for w, e in zip(weights, experts.experts))
        rec.check(abs(prediction - dense) <= 1e-9)
        outcome.append(prediction)
