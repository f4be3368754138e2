import math
import os
import subprocess
import sys
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from frpkernel import plan_opt
from frpkernel import rng as rnglib
from frpkernel.plan_opt import (
    HASH_JOIN,
    NESTED_LOOP,
    Catalog,
    CardinalityVector,
    Join,
    MutationGrid,
    Query,
    RelStats,
    Scan,
    SelectorState,
    edge_key,
    estimate_vector,
    feedback,
    gen_candidates,
    mutate_views,
    optimize_base,
    plan_cost,
    select_plan,
    simulate_latency,
    true_cost,
    true_vector,
)


def all_plans(rels):
    """Independent oracle: every ordered bushy tree with every algo tagging."""
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


def chain_catalog(bc_est=1e-4, cd_est=1e-2):
    return Catalog(
        relations={
            "A": RelStats(1000, 1000),
            "B": RelStats(100, 100),
            "C": RelStats(100, 100),
            "D": RelStats(1000, 1000),
        },
        selectivities={
            ("A", "B"): (0.01, 0.01),
            ("B", "C"): (1e-4, bc_est),
            ("C", "D"): (1e-2, cd_est),
        },
    )


def chain_query(*rels):
    rels = rels or ("A", "B", "C", "D")
    edges = tuple((a, b) for a, b in [("A", "B"), ("B", "C"), ("C", "D")]
                  if a in rels and b in rels)
    return Query(tuple(rels), edges)


# -- costing ---------------------------------------------------------------

def test_scan_cost_is_row_count():
    catalog = chain_catalog()
    plan = optimize_base(Query(("B",)), catalog)
    assert plan == Scan("B")
    assert true_cost(plan, catalog) == 100.0


def test_true_cost_is_pure():
    catalog = chain_catalog()
    plan = optimize_base(chain_query(), catalog)
    assert true_cost(plan, catalog) == true_cost(plan, catalog)


def test_execution_cost_ignores_estimates():
    accurate = chain_catalog()
    wrong = chain_catalog(bc_est=1e-2)
    plan = optimize_base(chain_query(), accurate)
    assert true_cost(plan, accurate) == true_cost(plan, wrong)


def test_catalog_is_read_only():
    catalog = chain_catalog()
    with pytest.raises(TypeError):
        catalog.relations["A"] = RelStats(1, 1)
    with pytest.raises(TypeError):
        catalog.selectivities["A", "B"] = (0.5, 0.5)
    with pytest.raises(AttributeError):
        catalog.relations = {}
    assert catalog.relations["A"] == RelStats(1000, 1000)
    assert catalog.selectivities["A", "B"] == (0.01, 0.01)


@pytest.mark.parametrize("relations, sels", [
    ({"A": RelStats(0, 1)}, {}),
    ({"A": RelStats(1, -1)}, {}),
    ({"A": RelStats(1, 1), "B": RelStats(1, 1)}, {("A", "B"): (0.0, 0.1)}),
    ({"A": RelStats(1, 1)}, {("A", "Z"): (0.1, 0.1)}),
    # NaN fails every comparison, so a `<= 0` check let it through
    ({"A": RelStats(math.nan, 5.0)}, {}),
    ({"A": RelStats(5.0, math.nan)}, {}),
    ({"A": RelStats(math.inf, 5.0)}, {}),
    ({"A": RelStats(5.0, -math.inf)}, {}),
    ({"A": RelStats(1, 1), "B": RelStats(1, 1)}, {("A", "B"): (math.nan, 0.1)}),
    ({"A": RelStats(1, 1), "B": RelStats(1, 1)}, {("A", "B"): (0.1, math.nan)}),
    ({"A": RelStats(1, 1), "B": RelStats(1, 1)}, {("A", "B"): (math.inf, 0.1)}),
    ({"A": RelStats(1, 1), "B": RelStats(1, 1)}, {("A", "B"): (0.1, -math.inf)}),
])
def test_catalog_rejects_bad_stats(relations, sels):
    with pytest.raises(ValueError):
        Catalog(relations, sels)


def test_true_cost_computed_once_per_tree_and_catalog(monkeypatch):
    catalog = chain_catalog(cd_est=1e-4)
    calls = []
    real_cost = plan_opt.plan_cost

    def counting_cost(plan, view):
        calls.append(plan)
        return real_cost(plan, view)

    monkeypatch.setattr(plan_opt, "plan_cost", counting_cost)
    cands = gen_candidates(chain_query(), catalog, n_plans=20, seed=3)
    assert len(cands) > 1
    gen = rnglib.derive(0, "memo")
    for i in range(200):
        simulate_latency(cands[i % len(cands)], catalog, gen)
    assert len(calls) <= len(cands)
    # fresh trees from a second call carry no memo: the memo is per tree,
    # not a process-wide cache
    again = gen_candidates(chain_query(), catalog, n_plans=20, seed=3)
    before = len(calls)
    assert [true_cost(p, catalog) for p in again] == [true_cost(p, catalog) for p in cands]
    assert len(calls) == before + len(again)


def test_true_view_built_once_per_run_of_same_query_and_catalog():
    catalog = chain_catalog(cd_est=1e-4)
    cands = gen_candidates(chain_query(), catalog, n_plans=20, seed=3)
    assert len(cands) > 1
    plan_opt._true_view.cache_clear()
    for plan in cands:
        true_cost(plan, catalog)
    assert plan_opt._true_view.cache_info().misses == 1
    # one entry only: the memo cannot outlive the run of calls it serves
    assert plan_opt._true_view.cache_info().maxsize == 1


def test_two_relation_join_picks_cheaper_algorithm():
    catalog = Catalog(
        relations={"A": RelStats(1, 1), "B": RelStats(1000, 1000)},
        selectivities={("A", "B"): (0.001, 0.001)},
    )
    plan = optimize_base(Query(("A", "B"), (("A", "B"),)), catalog)
    # single-row outer: one scan of B beats hashing both inputs
    assert isinstance(plan, Join) and plan.algo == NESTED_LOOP
    view = estimate_vector(Query(("A", "B"), (("A", "B"),)), catalog)
    rival = Join(plan.left, plan.right, HASH_JOIN)
    assert plan_cost(plan, view) < plan_cost(rival, view)


def test_unknown_relation_rejected():
    with pytest.raises(ValueError):
        optimize_base(Query(("A", "Z")), chain_catalog())


@pytest.mark.parametrize("rels", [("A", "B"), ("A", "B", "C"), ("A", "B", "C", "D")])
def test_dp_matches_exhaustive_enumeration_on_estimates(rels):
    catalog = chain_catalog(bc_est=1e-3)
    query = chain_query(*rels)
    view = estimate_vector(query, catalog)
    best = optimize_base(query, catalog)
    oracle = min(plan_cost(p, view) for p in all_plans(rels))
    assert plan_cost(best, view) == pytest.approx(oracle)


def test_dp_under_true_cards_matches_exhaustive_true_optimum():
    catalog = chain_catalog()
    query = chain_query()
    best = optimize_base(query, catalog, true_vector(query, catalog))
    oracle = min(true_cost(p, catalog) for p in all_plans(query.relations))
    assert true_cost(best, catalog) == pytest.approx(oracle)


# -- mutation -----------------------------------------------------------------

def ref_mutate_cards(cards: CardinalityVector, grid: MutationGrid, gen) -> CardinalityVector:
    """The per-view mutation that `mutate_views` replaced, kept verbatim:
    multiply every entry by an independent uniform draw from the grid."""
    values = cards.values()
    factors = [grid.factors[int(i)] for i in
               gen.integers(0, len(grid.factors), size=len(values))]
    mutated = [v * f for v, f in zip(values, factors)]
    n = len(cards.rows)
    return CardinalityVector(cards.rels, tuple(mutated[:n]),
                             cards.edges, tuple(mutated[n:]))


def test_identity_grid_is_identity():
    query = chain_query()
    cards = estimate_vector(query, chain_catalog())
    gen = rnglib.derive(0, "m")
    assert mutate_views(cards, MutationGrid((1.0,)), 3, gen).tolist() == [list(cards.values())] * 3


def test_mutation_multiplies_by_grid_factors():
    query = chain_query()
    cards = estimate_vector(query, chain_catalog())
    grid = MutationGrid()
    gen = rnglib.derive(1, "m")
    (mutated,) = mutate_views(cards, grid, 1, gen).tolist()
    for before, after in zip(cards.values(), mutated):
        assert any(after == pytest.approx(before * f) for f in grid.factors)
    # the documented example: a 100-row entry scaled by 10 reads 1000
    assert 100.0 * 10 == 1000.0


@pytest.mark.parametrize("rels, rows, edges, sels", [
    (("A", "B"), (100.0,), (("A", "B"),), (0.01,)),               # a row short
    (("A", "B"), (100.0, 50.0), (("A", "B"),), ()),               # a sel short
    (("A", "B"), (100.0, 50.0), (), (0.01,)),                     # a sel too many
    (("A", "A"), (100.0, 50.0), (), ()),                          # repeated relation
    (("A", "B"), (100.0, 50.0), (("B", "A"),), (0.01,)),          # not edge_key form
    (("A", "B"), (100.0, 50.0), (("A", "C"),), (0.01,)),          # end outside rels
    (("A", "B"), (100.0, 50.0), (("A", "A"), ("A", "B")), (0.01, 0.01)),  # self-loop
    (("A", "B"), (100.0, 50.0), (("A", "B"), ("A", "B")), (0.5, 0.01)),   # repeated edge
])
def test_cardinality_vector_rejects_malformed_views(rels, rows, edges, sels):
    # costing reads rows and sels by position, so each of these would drop
    # a row or a selectivity without an error: (A hash B) costs 425.0 under
    # the well-formed view and 5375.0, the cost with no selectivity, under
    # the short-sel and reversed-edge views; a self-loop's sel is dropped,
    # and so is a repeated edge's second sel
    plan = Join(Scan("A"), Scan("B"), HASH_JOIN)
    assert plan_cost(plan, CardinalityVector(("A", "B"), (100.0, 50.0),
                                             (("A", "B"),), (0.01,))) == 425.0
    with pytest.raises(ValueError):
        CardinalityVector(rels, rows, edges, sels)


def test_selectivity_on_a_pair_the_query_does_not_join_rejected():
    # the DP reads only the query's joins, but `true_cost` reads every
    # catalog edge among a plan's leaves: an [A, D] selectivity of 1e-6
    # would lower every chain candidate's true cost without moving a plan
    base = chain_catalog()
    catalog = Catalog(dict(base.relations),
                      {**base.selectivities, ("A", "D"): (1e-6, 1e-6)})
    for vector in (estimate_vector, true_vector):
        with pytest.raises(ValueError, match="does not join"):
            vector(chain_query(), catalog)
    # a query without D, or one that joins A and D, reads the catalog as before
    assert estimate_vector(chain_query("A", "B", "C"), catalog) == \
        estimate_vector(chain_query("A", "B", "C"), base)
    cycle = Query(("A", "B", "C", "D"), chain_query().joins + (("D", "A"),))
    assert true_vector(cycle, catalog).sels == (0.01, 1e-6, 1e-4, 1e-2)


def test_mutation_factor_frequencies_uniform():
    grid = MutationGrid()
    vec = CardinalityVector(("R",), (100.0,), (), ())
    gen = rnglib.derive(2, "m")
    counts = {f: 0 for f in grid.factors}
    trials = 10_000
    for (row,) in mutate_views(vec, grid, trials, gen).tolist():
        factor = row / 100.0
        counts[min(grid.factors, key=lambda f: abs(f - factor))] += 1
    expected = trials / len(grid.factors)
    sigma = (trials * 0.2 * 0.8) ** 0.5
    for f, count in counts.items():
        assert abs(count - expected) <= 3 * sigma, (f, count)


def test_grid_requires_identity_factor():
    with pytest.raises(ValueError):
        MutationGrid((0.5, 2.0))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(0.01, 100.0), max_size=8), st.integers(0, 8),
       st.lists(st.floats(1e-6, 1e12), min_size=1, max_size=36),
       st.integers(0, 12), st.integers(0, 2 ** 64))
@example([], 0, [100.0] * 8, 12, 0)
@example([0.1, 0.5, 2.0, 10.0], 2, [3.0] * 19, 8, 5)
def test_one_draw_matches_per_view_draws(others, at, values, n_views, seed):
    """One `mutate_views` draw of every view yields the views, bit for bit,
    and leaves the generator where `n_views` successive per-view draws do."""
    factors = list(others)
    factors.insert(at % (len(factors) + 1), 1.0)
    grid = MutationGrid(tuple(factors))
    cards = CardinalityVector(tuple(f"r{i}" for i in range(len(values))), tuple(values), (), ())
    one, each = rnglib.derive(seed, "plan-mutate"), rnglib.derive(seed, "plan-mutate")
    views = mutate_views(cards, grid, n_views, one)
    expected = np.array([ref_mutate_cards(cards, grid, each).values()
                         for _ in range(n_views)], dtype=float).reshape(n_views, len(values))
    assert views.shape == expected.shape and views.dtype == expected.dtype
    assert views.tobytes() == expected.tobytes()
    assert one.bit_generator.state == each.bit_generator.state
    assert one.integers(0, len(factors), size=3).tolist() == \
        each.integers(0, len(factors), size=3).tolist()
    assert one.random() == each.random()


# -- candidate generation --------------------------------------------------------

def test_zero_mutations_returns_base_only():
    catalog = chain_catalog()
    plans = gen_candidates(chain_query(), catalog, n_plans=0)
    assert len(plans) == 1


def test_identity_grid_returns_base_only():
    catalog = chain_catalog(bc_est=1e-2)
    plans = gen_candidates(chain_query(), catalog, n_plans=10,
                           grid=MutationGrid((1.0,)))
    assert len(plans) == 1


def test_candidates_include_base_and_are_distinct():
    catalog = chain_catalog(bc_est=1e-2)
    query = chain_query()
    base = optimize_base(query, catalog)
    plans = gen_candidates(query, catalog, n_plans=20, seed=3)
    keys = [p.key() for p in plans]
    assert keys[0] == base.key()
    assert len(keys) == len(set(keys))
    assert len(plans) <= 21


def test_candidates_recover_near_optimal_plan_despite_selectivity_error():
    # estimate the C-D selectivity 100x too low, which sends the base plan
    # after the wrong join; mutation-diversified plans should still contain
    # something close to the true optimum
    catalog = chain_catalog(cd_est=1e-4)
    query = chain_query()
    optimum = min(true_cost(p, catalog) for p in all_plans(query.relations))
    hits = 0
    for seed in range(20):
        plans = gen_candidates(query, catalog, n_plans=20, seed=seed)
        best = min(true_cost(p, catalog) for p in plans)
        if best <= 1.10 * optimum:
            hits += 1
    assert hits >= 19


# -- online selection ---------------------------------------------------------------

def two_plan_setup():
    catalog = Catalog(
        relations={"A": RelStats(10, 10), "B": RelStats(10, 10)},
        selectivities={("A", "B"): (0.1, 0.1)},
    )
    fast = Join(Scan("A"), Scan("B"), HASH_JOIN)
    slow = Join(Scan("A"), Scan("B"), NESTED_LOOP)
    return catalog, fast, slow


def test_single_candidate_always_chosen():
    _, fast, _ = two_plan_setup()
    state = SelectorState()
    assert select_plan("t", [fast], state) is fast


def test_untried_candidate_forced_first():
    _, fast, slow = two_plan_setup()
    state = SelectorState()
    first = select_plan("t", [fast, slow], state)
    feedback("t", first, 10.0, state)
    second = select_plan("t", [fast, slow], state)
    assert {first.key(), second.key()} == {fast.key(), slow.key()}


def test_feedback_incremental_mean():
    _, fast, _ = two_plan_setup()
    state = SelectorState()
    feedback("t", fast, 10.0, state)
    row = state.template("t")[fast.key()]
    assert (row.pulls, row.mean_latency) == (1, 10.0)
    feedback("t", fast, 20.0, state)
    assert row.mean_latency == 15.0


def test_feedback_matches_batch_mean_oracle():
    _, fast, _ = two_plan_setup()
    state = SelectorState()
    gen = rnglib.derive(7, "lat")
    values = [float(gen.uniform(5.0, 50.0)) for _ in range(1000)]
    for v in values:
        feedback("t", fast, v, state)
    row = state.template("t")[fast.key()]
    assert row.pulls == 1000
    assert abs(row.mean_latency - sum(values) / 1000) < 1e-9


def test_bandit_prefers_faster_plan():
    # stationary 10 vs 20 latency with 5% noise; most pulls should go fast
    state = SelectorState()
    latencies = {"fast": 10.0, "slow": 20.0}
    fast = Scan("fast")
    slow = Scan("slow")
    gen = rnglib.derive(11, "bandit")
    pulls = {"fast": 0, "slow": 0}
    last_100 = []
    for episode in range(200):
        plan = select_plan("t", [fast, slow], state)
        observed = latencies[plan.key()] * (1 + 0.05 * float(gen.uniform(-1, 1)))
        feedback("t", plan, observed, state)
        pulls[plan.key()] += 1
        if episode >= 100:
            last_100.append(plan.key())
    assert last_100.count("fast") >= 90


def test_ucb_tie_goes_to_first_candidate():
    plans = [Scan("a"), Scan("b"), Scan("c")]
    state = SelectorState()
    for plan in plans:
        feedback("t", plan, 10.0, state)
    assert select_plan("t", plans, state) is plans[0]
    assert select_plan("t", plans[::-1], state) is plans[2]
    feedback("t", plans[1], 4.0, state)     # b: 2 pulls, mean 7.0
    assert select_plan("t", plans, state) is plans[1]


def test_fresh_template_gets_fresh_state():
    _, fast, slow = two_plan_setup()
    state = SelectorState()
    feedback("seen", fast, 5.0, state)
    assert select_plan("unseen", [slow, fast], state) is slow


def test_simulated_latency_tracks_true_cost():
    catalog, fast, slow = two_plan_setup()
    assert simulate_latency(fast, catalog) == true_cost(fast, catalog)
    gen = rnglib.derive(0, "noise")
    noisy = simulate_latency(slow, catalog, gen, noise_frac=0.05)
    assert abs(noisy - true_cost(slow, catalog)) <= 0.05 * true_cost(slow, catalog)


def ref_simulate_latency(plan, catalog, gen, noise_frac):
    """`simulate_latency` as it drew its noise before the scalar draw."""
    base = true_cost(plan, catalog)
    if gen is None or noise_frac <= 0:
        return base
    return base * (1.0 + noise_frac * float(gen.uniform(-1.0, 1.0)))


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2 ** 64),
       st.one_of(st.just(0.0), st.floats(-2.0, 0.0), st.floats(0.0, 1.0),
                 st.floats(1.0, 1e6)),
       st.lists(st.booleans(), min_size=1, max_size=50))
@example(0, 0.05, [True] * 50)
@example(7, -0.5, [False, True])
@example(3, 2.5, [True, False, True])
def test_latency_draw_matches_uniform_draw(seed, noise_frac, slow_each_call):
    """Each noisy latency equals, bit for bit, the one `gen.uniform(-1.0, 1.0)`
    gives on a twin generator, over successive calls, and both generators end
    in the same state."""
    catalog, fast, slow = two_plan_setup()
    gen, twin = rnglib.derive(seed, "noise"), rnglib.derive(seed, "noise")
    for use_slow in slow_each_call:
        plan = slow if use_slow else fast
        got = simulate_latency(plan, catalog, gen, noise_frac)
        assert got.hex() == ref_simulate_latency(plan, catalog, twin, noise_frac).hex()
    assert gen.bit_generator.state == twin.bit_generator.state
    assert gen.random() == twin.random()


def test_query_template_identity():
    q1 = Query(("A", "B"), (("A", "B"),))
    q2 = Query(("B", "A"), (("B", "A"),))
    assert q1.template_id == q2.template_id
    q3 = Query(("A", "B"))
    assert q1.template_id != q3.template_id


def test_query_rejects_self_join():
    # `_view_factors` reads only edges between two relations, so a self-join
    # would be costed as if it were absent
    with pytest.raises(ValueError):
        Query(("A", "B"), (("A", "B"), ("A", "A")))


def test_query_rejects_repeated_join():
    # a repeated edge would change the template id and the candidates of
    # what is the same join graph
    for repeat in (("A", "B"), ("B", "A")):
        with pytest.raises(ValueError, match="repeats an edge"):
            Query(("A", "B", "C"), (("A", "B"), ("B", "C"), repeat))


def test_catalog_rejects_repeated_selectivity():
    # both orders name one edge, so one of the two would be dropped silently
    with pytest.raises(ValueError, match="repeats an edge"):
        Catalog({"A": RelStats(10, 10), "B": RelStats(20, 20)},
                {("A", "B"): (0.01, 0.01), ("B", "A"): (0.02, 0.02)})


def test_catalog_rejects_self_join_selectivity():
    with pytest.raises(ValueError):
        Catalog({"A": RelStats(10, 10), "B": RelStats(20, 20)},
                {("A", "B"): (0.01, 0.01), ("A", "A"): (0.01, 0.01)})


def test_queries_beyond_eight_relations_rejected():
    rels = tuple(f"R{i}" for i in range(9))
    catalog = Catalog({r: RelStats(10, 10) for r in rels}, {})
    with pytest.raises(ValueError):
        optimize_base(Query(rels), catalog)


# -- differential oracle for the bitmask DP ----------------------------------

def ref_key(plan):
    if isinstance(plan, Scan):
        return plan.relation
    return f"({ref_key(plan.left)} {plan.algo} {ref_key(plan.right)})"


def ref_leaves(plan):
    if isinstance(plan, Scan):
        return frozenset([plan.relation])
    return ref_leaves(plan.left) | ref_leaves(plan.right)


def ref_row_of(view, rel):
    return view.rows[view.rels.index(rel)]


def ref_sel_of(view, a, b):
    key = edge_key(a, b)
    if key in view.edges:
        return view.sels[view.edges.index(key)]
    return 1.0


def ref_card(rels, view):
    """The frozenset-era card of a relation subset, with its rows multiplied
    in sorted order; the old set iteration order followed the string hash
    seed, and fixing that order is what the bitmask routine changed."""
    card = 1.0
    for rel in sorted(rels):
        card *= ref_row_of(view, rel)
    for a, b in combinations(sorted(rels), 2):
        card *= ref_sel_of(view, a, b)
    return card


def ref_plan_card(plan, view):
    if isinstance(plan, Scan):
        return ref_row_of(view, plan.relation)
    return ref_card(ref_leaves(plan), view)


def ref_plan_cost(plan, view):
    if isinstance(plan, Scan):
        return ref_row_of(view, plan.relation)
    lc = ref_plan_card(plan.left, view)
    rc = ref_plan_card(plan.right, view)
    out = ref_plan_card(plan, view)
    if plan.algo == HASH_JOIN:
        here = 1.5 * (lc + rc) + out
    else:
        here = lc + lc * rc + out
    return ref_plan_cost(plan.left, view) + ref_plan_cost(plan.right, view) + here


def ref_optimize(query, view):
    """The frozenset DP over every split of every subset, argmin of (cost, key)."""
    rels = sorted(query.relations)
    best = {}
    for rel in rels:
        best[frozenset([rel])] = (ref_row_of(view, rel), rel, ref_row_of(view, rel))
    for size in range(2, len(rels) + 1):
        for subset in combinations(rels, size):
            sset = frozenset(subset)
            out = ref_card(sset, view)
            entry = None
            for left_size in range(1, size):
                for left in combinations(subset, left_size):
                    lset = frozenset(left)
                    lcost, lkey, lcard = best[lset]
                    rcost, rkey, rcard = best[sset - lset]
                    for algo in (HASH_JOIN, NESTED_LOOP):
                        if algo == HASH_JOIN:
                            here = 1.5 * (lcard + rcard) + out
                        else:
                            here = lcard + lcard * rcard + out
                        cand = (lcost + rcost + here, f"({lkey} {algo} {rkey})", out)
                        if entry is None or cand[:2] < entry[:2]:
                            entry = cand
            best[sset] = entry
    return best[frozenset(rels)][1]


@st.composite
def dp_cases(draw):
    """A 1-8 relation query (chain, cycle, star or random edges), a catalog
    with random or all-equal rows, and its estimate, true and mutated views."""
    n = draw(st.integers(1, 8))
    # short names over a small alphabet: sorted order differs from draw
    # order, and some names are prefixes of others
    rels = draw(st.lists(st.text("abz", min_size=1, max_size=3),
                         min_size=n, max_size=n, unique=True))
    shape = draw(st.sampled_from(["chain", "cycle", "star", "random"]))
    if shape == "chain":
        joins = list(zip(rels, rels[1:]))
    elif shape == "cycle":
        joins = list(zip(rels, rels[1:] + rels[:1])) if n > 2 else list(zip(rels, rels[1:]))
    elif shape == "star":
        joins = [(rels[0], r) for r in rels[1:]]
    else:
        pairs = list(combinations(rels, 2))
        joins = [p for p, keep in zip(pairs, draw(st.lists(
            st.booleans(), min_size=len(pairs), max_size=len(pairs)))) if keep]
    rows = st.floats(1.0, 1e6)
    if draw(st.booleans()):
        row = draw(rows)
        est = [row] * n          # equal rows force exact cost ties
    else:
        est = draw(st.lists(rows, min_size=n, max_size=n))
    factors = draw(st.lists(st.floats(0.1, 10.0), min_size=n, max_size=n))
    sels = {}
    for a, b in joins:
        sels[edge_key(a, b)] = (draw(st.floats(1e-4, 1.0)), draw(st.floats(1e-4, 1.0)))
    catalog = Catalog({r: RelStats(e * f, e) for r, e, f in zip(rels, est, factors)}, sels)
    query = Query(tuple(rels), tuple(joins))
    base = estimate_vector(query, catalog)
    gen = rnglib.derive(draw(st.integers(0, 2 ** 32)), "dp-oracle")
    views = [base, true_vector(query, catalog)]
    views += [ref_mutate_cards(base, MutationGrid(), gen) for _ in range(2)]
    return query, catalog, views


TIE_RELS = ("zb", "a", "bz", "b", "az", "z", "ba", "aa")


def all_tied(sel):
    """8 relations with equal estimated rows, and no edges (`sel` None) or a
    star around "zb" whose edges share one selectivity. Under the estimates
    a subset's splits of one shape tie in cost, on and off the winning tree,
    so plan keys pick every winner. The true rows are equal too, except
    that "a", the lowest bit, is far larger: the true plan joins it late,
    as a scan beside a join, where the hash join's orientation has to be
    taken from the two keys."""
    rows = 64.0
    joins = () if sel is None else tuple((TIE_RELS[0], r) for r in TIE_RELS[1:])
    catalog = Catalog({r: RelStats(rows ** 3 if r == "a" else rows, rows) for r in TIE_RELS},
                      {edge_key(a, b): (sel, sel) for a, b in joins})
    query = Query(TIE_RELS, joins)
    return query, catalog, [estimate_vector(query, catalog), true_vector(query, catalog)]


@settings(max_examples=200, deadline=None)
@given(dp_cases())
@example(all_tied(None))
@example(all_tied(1 / 64))
def test_dp_matches_frozenset_reference(case):
    query, catalog, views = case
    for view in views:
        plan = optimize_base(query, catalog, view)
        assert plan.key() == ref_optimize(query, view)
        assert plan.key() == ref_key(plan)
        # one card routine: both orders of multiplication are the same here
        assert plan_cost(plan, view) == ref_plan_cost(plan, view)
    # the same trees under a second catalog with other true rows: each
    # catalog gets its own cost, on the first call and on a repeat
    other = Catalog({r: RelStats(2 * s.true_rows, s.est_rows)
                     for r, s in catalog.relations.items()}, catalog.selectivities)
    plans = gen_candidates(query, catalog, n_plans=3, seed=len(query.relations))
    plans += [Scan(r) for r in query.relations]
    for cat in (catalog, other, catalog, other):
        expected = [ref_plan_cost(plan, true_vector(query, cat)) for plan in plans]
        assert [true_cost(plan, cat) for plan in plans] == expected


@settings(max_examples=200, deadline=None)
@given(dp_cases(), st.integers(0, 8), st.integers(0, 2 ** 32))
@example((Query(("a",)), Catalog({"a": RelStats(5, 3)}, {}), []), 4, 0)
@example((Query(("b", "a"), (("a", "b"),)),
          Catalog({"a": RelStats(5, 3), "b": RelStats(5, 3)}, {("a", "b"): (0.5, 0.5)}),
          []), 0, 0)
@example(all_tied(None), 8, 0)
@example(all_tied(1 / 64), 8, 0)
def test_candidates_match_per_view_reference(case, n_plans, seed):
    """All views solved in one DP give, view by view, the frozenset DP's plan."""
    query, catalog, _ = case
    gen = rnglib.derive(seed, "plan-mutate")
    base = estimate_vector(query, catalog)
    views = [base] + [ref_mutate_cards(base, MutationGrid(), gen) for _ in range(n_plans)]
    expected = list(dict.fromkeys(ref_optimize(query, view) for view in views))
    plans = gen_candidates(query, catalog, n_plans, seed=seed)
    assert [plan.key() for plan in plans] == expected
    assert [plan.key() for plan in plans] == [ref_key(plan) for plan in plans]


def ref_nodes(plan):
    yield plan
    if isinstance(plan, Join):
        yield from ref_nodes(plan.left)
        yield from ref_nodes(plan.right)


@settings(max_examples=100, deadline=None)
@given(dp_cases(), st.integers(0, 8), st.integers(0, 2 ** 32))
@example(all_tied(None), 8, 0)
@example(all_tied(1 / 64), 8, 0)
def test_every_node_has_its_own_key_and_leaves(case, n_plans, seed):
    """The DP hands each `Join` the key it built; every node of every tree,
    not only the root, must carry the key and leaves its children give, and
    the fields of a `Join` built by its constructor, set in the same order
    (a node whose fields were set in another order reads them slower)."""
    query, catalog, views = case
    plans = gen_candidates(query, catalog, n_plans, seed=seed)
    plans += [optimize_base(query, catalog, view) for view in views]
    for plan in plans:
        for node in ref_nodes(plan):
            assert node.key() == ref_key(node)
            assert node.leaves() == ref_leaves(node)
            if isinstance(node, Join):
                assert list(vars(node)) == list(vars(Join(node.left, node.right, node.algo)))


def test_join_cache_ignored_by_eq_hash_repr():
    a = Join(Scan("A"), Scan("B"), HASH_JOIN)
    b = Join(Scan("A"), Scan("B"), HASH_JOIN)
    plan = Join(a, Scan("C"), NESTED_LOOP)
    assert plan.key() == ref_key(plan) == "((A hash B) nl C)"
    assert plan.leaves() == ref_leaves(plan) == {"A", "B", "C"}
    object.__setattr__(b, "_key", "stale")
    object.__setattr__(b, "_leaves", frozenset())
    catalog = Catalog({"A": RelStats(10, 10), "B": RelStats(20, 20)}, {})
    true_cost(a, catalog)
    scan = Scan("A")
    true_cost(scan, catalog)
    assert a._true_costs and not b._true_costs
    assert a == b and hash(a) == hash(b)
    assert scan == Scan("A") and hash(scan) == hash(Scan("A"))
    assert repr(scan) == repr(Scan("A")) == "Scan(relation='A')"
    assert a != Join(Scan("B"), Scan("A"), HASH_JOIN)
    assert repr(a) == repr(b) == ("Join(left=Scan(relation='A'), "
                                  "right=Scan(relation='B'), algo='hash')")


# Generated 6-8 relation queries with non-round cards; prints every
# candidate's true and estimated cost at full precision.
_COST_SCRIPT = """
from frpkernel import rng as rnglib
from frpkernel.plan_opt import (Catalog, Query, RelStats, edge_key, estimate_vector,
                                gen_candidates, plan_cost, true_cost)
gen = rnglib.derive(5, "hash-seed")
for i, (size, shape) in enumerate([(6, "chain"), (7, "cycle"), (8, "star"),
                                   (8, "chain"), (7, "star"), (6, "cycle")]):
    rels = [f"q{i}r{j}" for j in range(size)]
    if shape == "star":
        joins = [(rels[0], r) for r in rels[1:]]
    else:
        joins = list(zip(rels, rels[1:] + (rels[:1] if shape == "cycle" else [])))
    stats = {r: RelStats(float(10 ** gen.uniform(2, 6)), float(10 ** gen.uniform(2, 6)))
             for r in rels}
    sels = {edge_key(a, b): (float(10 ** gen.uniform(-4, -1)), float(10 ** gen.uniform(-4, -1)))
            for a, b in joins}
    query, catalog = Query(tuple(rels), tuple(joins)), Catalog(stats, sels)
    view = estimate_vector(query, catalog)
    for plan in gen_candidates(query, catalog, n_plans=4, seed=i):
        print(plan.key(), repr(true_cost(plan, catalog)), repr(plan_cost(plan, view)))
"""


def test_costs_do_not_depend_on_hash_seed():
    src = str(Path(__file__).resolve().parents[1] / "src")
    outputs = []
    for hash_seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed,
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        run = subprocess.run([sys.executable, "-c", _COST_SCRIPT], env=env,
                             capture_output=True, text=True, timeout=120, check=True)
        outputs.append(run.stdout)
    assert outputs[0].count("\n") >= 6
    assert outputs[0] == outputs[1]
