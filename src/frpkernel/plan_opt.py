"""Candidate plan generation by cardinality mutation, plus online selection.

A toy cost-based optimizer enumerates bushy join trees by dynamic programming
over relation subsets, each a bitmask over the sorted relation names (bit i
is the i-th name). Instead of hint sets, plan diversity comes from solving
that optimizer under multiplicatively perturbed cardinality estimates; the
unmutated base plan is always kept. A query's views are the rows of one
float array, laid out as the base estimate's values, and are solved
together in one DP batched by subset size: numpy costs every split of
every subset of a size under every view and marks the join choices that
reach each subset's minimum. Python then builds plan keys lazily, top-down
from the full relation set, only for the subsets on each view's winning
tree and the sides of exact ties, and hands each key to its `Join`. One
view is the same DP with one row. An upper-confidence bandit then picks
among the candidates per query template and learns from observed
latencies, which depend only on true cardinalities, never on the estimates.

Cost model per node (cards taken from whichever estimate view is in force):
scan costs its row count; a hash join costs 1.5 * (left + right) + output,
and a nested-loop join costs left + left * right + output. Plan cost is the
sum over all nodes, so it is C_out-like with per-algorithm input terms.
One card routine, `_cards`, serves the DP and `plan_cost`/`true_cost`: a
subset's card is the product of its rows in sorted-relation order, then of
the selectivities of the query edges inside it in sorted-edge order. That
order is fixed, so costs are bit-identical across processes whatever the
string hash seed, and the DP computes each cost with `plan_cost`'s
operations in its order, so a plan's DP cost and its `plan_cost` are one
float.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field
from functools import lru_cache
from types import MappingProxyType

import numpy as np

from . import rng as rnglib

HASH_JOIN = "hash"
NESTED_LOOP = "nl"

HASH_INPUT_FACTOR = 1.5


def edge_key(a: str, b: str) -> tuple[str, str]:
    return (a, b) if a <= b else (b, a)


@dataclass(frozen=True)
class RelStats:
    true_rows: float
    est_rows: float


def _positive_finite(*values: float) -> bool:
    """False for zero, negative, NaN or infinite values."""
    return all(v > 0 and math.isfinite(v) for v in values)


class Catalog:
    """True and estimated base cardinalities and pairwise join selectivities.

    Read-only once built, so a plan tree can memoize its true cost per
    catalog (see `true_cost`)."""

    def __init__(self, relations: dict[str, RelStats],
                 selectivities: dict[tuple[str, str], tuple[float, float]]):
        for name, stats in relations.items():
            if not _positive_finite(stats.true_rows, stats.est_rows):
                raise ValueError(f"rows for {name} must be positive and finite")
        sels = {}
        for pair, (true_sel, est_sel) in selectivities.items():
            if not _positive_finite(true_sel, est_sel):
                raise ValueError(f"selectivity for {pair} must be positive and finite")
            a, b = pair
            if a not in relations or b not in relations:
                raise ValueError(f"selectivity references unknown relation {pair}")
            if a == b:
                raise ValueError(f"selectivity {pair} joins a relation to itself")
            if edge_key(a, b) in sels:
                raise ValueError(f"selectivity {pair} repeats an edge")
            sels[edge_key(a, b)] = (float(true_sel), float(est_sel))
        object.__setattr__(self, "relations", MappingProxyType(dict(relations)))
        object.__setattr__(self, "selectivities", MappingProxyType(sels))

    def __setattr__(self, name, value):
        raise AttributeError("Catalog is read-only")


@dataclass(frozen=True)
class Query:
    relations: tuple[str, ...]
    joins: tuple[tuple[str, str], ...] = ()

    def __post_init__(self):
        if len(self.relations) > 8:   # the DP's O(3^n) split work
            raise ValueError("queries beyond 8 relations are out of scope")
        if len(self.relations) != len(set(self.relations)):
            raise ValueError("duplicate relations in query")
        edges = set()
        for a, b in self.joins:
            if a not in self.relations or b not in self.relations:
                raise ValueError(f"join ({a}, {b}) references non-query relation")
            if a == b:
                raise ValueError(f"join ({a}, {b}) joins a relation to itself")
            if edge_key(a, b) in edges:
                raise ValueError(f"join ({a}, {b}) repeats an edge")
            edges.add(edge_key(a, b))

    @property
    def template_id(self) -> str:
        text = ",".join(sorted(self.relations)) + ";" + ",".join(
            "-".join(edge) for edge in sorted(edge_key(a, b) for a, b in self.joins))
        return hashlib.sha256(text.encode()).hexdigest()[:16]


@dataclass(frozen=True)
class Scan:
    relation: str
    # true cost per catalog, filled by `true_cost`; equality, hash and repr
    # ignore it
    _true_costs: dict = field(default_factory=dict, init=False,
                              compare=False, repr=False)

    def key(self) -> str:
        return self.relation

    def leaves(self) -> frozenset:
        return frozenset([self.relation])


@dataclass(frozen=True)
class Join:
    left: "Scan | Join"
    right: "Scan | Join"
    algo: str
    # derived once at construction, or the key handed over by `_optimize`
    # through `_keyed`; equality, hash and repr ignore them
    _key: str = field(init=False, compare=False, repr=False)
    _leaves: frozenset = field(init=False, compare=False, repr=False)
    # true cost per catalog, as on `Scan`
    _true_costs: dict = field(default_factory=dict, init=False,
                              compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "_key",
                           f"({self.left.key()} {self.algo} {self.right.key()})")
        object.__setattr__(self, "_leaves", self.left.leaves() | self.right.leaves())

    @classmethod
    def _keyed(cls, left: "Scan | Join", right: "Scan | Join", algo: str,
               key: str) -> "Join":
        """`Join(left, right, algo)`, given the key `__post_init__` would
        format. The fields are set in the constructor's order, so attribute
        reads are as fast as on a constructed node (checked by
        `test_every_node_has_its_own_key_and_leaves`)."""
        node = cls.__new__(cls)
        for name, value in (("left", left), ("right", right), ("algo", algo),
                            ("_true_costs", {}), ("_key", key),
                            ("_leaves", left.leaves() | right.leaves())):
            object.__setattr__(node, name, value)
        return node

    def key(self) -> str:
        return self._key

    def leaves(self) -> frozenset:
        return self._leaves


PlanTree = Scan | Join


@dataclass(frozen=True)
class CardinalityVector:
    """One estimate view: base rows per relation plus selectivity per edge.

    Relations are distinct, and each edge is an `edge_key`-form pair of two
    of them, named once. Costing pairs rows with relations and sels with
    edges by position and takes each edge as given, so a misaligned,
    reversed, self-loop or repeated entry would be lost or misread without
    an error."""

    rels: tuple[str, ...]
    rows: tuple[float, ...]
    edges: tuple[tuple[str, str], ...]
    sels: tuple[float, ...]

    def __post_init__(self):
        if len(self.rows) != len(self.rels) or len(self.sels) != len(self.edges):
            raise ValueError("need one row count per relation and one selectivity per edge")
        rels = set(self.rels)
        if len(rels) != len(self.rels):
            raise ValueError("duplicate relations in cardinality vector")
        for a, b in self.edges:
            if a >= b or a not in rels or b not in rels:
                raise ValueError(f"edge {(a, b)} is not an edge_key pair of two relations")
        if len(set(self.edges)) != len(self.edges):
            raise ValueError("repeated edge in cardinality vector")
        if not all(v > 0 for v in self.rows + self.sels):
            raise ValueError("cardinality entries must be positive")

    def values(self) -> tuple[float, ...]:
        return self.rows + self.sels


def estimate_vector(query: Query, catalog: Catalog) -> CardinalityVector:
    return _vector(query, catalog, use_true=False)


def true_vector(query: Query, catalog: Catalog) -> CardinalityVector:
    return _vector(query, catalog, use_true=True)


def _vector(query: Query, catalog: Catalog, use_true: bool) -> CardinalityVector:
    """The query's view of the catalog. A catalog selectivity between two
    query relations that the query does not join is refused: the plans
    would ignore it, but `true_cost` reads every catalog edge among a
    plan's leaves."""
    for rel in query.relations:
        if rel not in catalog.relations:
            raise ValueError(f"unknown relation {rel}")
    rels = tuple(sorted(query.relations))
    rows = tuple(catalog.relations[r].true_rows if use_true
                 else catalog.relations[r].est_rows for r in rels)
    edges = tuple(sorted(edge_key(a, b) for a, b in query.joins))
    for a, b in sorted(catalog.selectivities.keys() - edges):
        if a in rels and b in rels:
            raise ValueError(f"catalog selectivity {(a, b)} is on two query "
                             "relations the query does not join")
    sels = tuple((catalog.selectivities.get(e, (1.0, 1.0))[0 if use_true else 1])
                 for e in edges)
    return CardinalityVector(rels, rows, edges, sels)


@dataclass(frozen=True)
class MutationGrid:
    factors: tuple[float, ...] = (0.1, 0.5, 1.0, 2.0, 10.0)

    def __post_init__(self):
        if 1.0 not in self.factors or any(f <= 0 for f in self.factors):
            raise ValueError("factor grid must be positive and contain 1")


def mutate_views(cards: CardinalityVector, grid: MutationGrid, n_views: int,
                 gen) -> np.ndarray:
    """`n_views` rows of `cards.values()`, each entry times an independent
    uniform draw from the grid. The one draw takes the generator's stream
    as one draw per view would (`test_one_draw_matches_per_view_draws`)."""
    values = np.array(cards.values(), dtype=float)
    draws = gen.integers(0, len(grid.factors), size=(n_views, len(values)))
    return values * np.array(grid.factors, dtype=float)[draws]


# -- costing ---------------------------------------------------------------

def _view_factors(rels: list[str], view: CardinalityVector):
    """The card factors of the sorted `rels` under `view` and under every
    view that shares its relations and edges. A factor is a bitmask and a
    column of `view.values()`: each relation's bit and row, in
    sorted-relation order, then each edge among `rels`, its two bits and
    sel, in sorted-edge order. Returns the bit per relation, the factor
    masks and their columns."""
    bits = {rel: 1 << i for i, rel in enumerate(rels)}
    col = {rel: i for i, rel in enumerate(view.rels)}
    if not col.keys() >= bits.keys():
        missing = [rel for rel in rels if rel not in col]
        raise ValueError(f"view has no rows for {missing}")
    edges = sorted((edge, j) for j, edge in enumerate(view.edges, start=len(view.rels))
                   if edge[0] in bits and edge[1] in bits)
    masks = list(bits.values()) + [bits[a] | bits[b] for (a, b), _ in edges]
    cols = [col[rel] for rel in rels] + [j for _, j in edges]
    return bits, np.array(masks), cols


def _cards(subsets: np.ndarray, factor_masks: np.ndarray,
           values: np.ndarray) -> np.ndarray:
    """Output card of each relation subset (a bitmask; one column each)
    under each view (one row each): the product of the factors whose mask
    the subset contains, in factor order. A factor outside the subset
    multiplies by 1.0, which is exact, so each entry is the float of the
    subset's own factors multiplied in that order: numpy's multiply
    reduction runs in index order (only its add reduction is pairwise), and
    `test_dp_matches_frozenset_reference` checks the result bit for bit."""
    inside = (subsets & factor_masks[:, None]) == factor_masks[:, None]
    return np.multiply.reduce(np.where(inside, values[:, :, None], 1.0), axis=1)


def plan_cost(plan: PlanTree, view: CardinalityVector) -> float:
    """Sum of node costs, each node's card taken by `_cards` over the plan's
    leaves."""
    bits, factor_masks, cols = _view_factors(sorted(plan.leaves()), view)
    values = np.array([view.values()], dtype=float)[:, cols]
    nodes, masks = [], []          # post-order: children before their join

    def collect(node) -> int:
        mask = (bits[node.relation] if isinstance(node, Scan)
                else collect(node.left) | collect(node.right))
        nodes.append(node)
        masks.append(mask)
        return mask

    collect(plan)
    stack = []                     # (card, cost) of each finished subtree
    for node, out in zip(nodes, _cards(np.array(masks), factor_masks, values)[0].tolist()):
        if isinstance(node, Scan):
            stack.append((out, out))
            continue
        rc, rcost = stack.pop()
        lc, lcost = stack.pop()
        if node.algo == HASH_JOIN:
            here = HASH_INPUT_FACTOR * (lc + rc) + out
        elif node.algo == NESTED_LOOP:
            here = lc + lc * rc + out
        else:
            raise ValueError(f"unknown join algorithm {node.algo!r}")
        stack.append((out, lcost + rcost + here))
    return stack[0][1]


def true_cost(plan: PlanTree, catalog: Catalog) -> float:
    """Cost under true cardinalities; the execution-side ground truth.

    Computed on the first call per (tree, catalog) and memoized on the tree,
    keyed by the catalog object; trees and catalogs never change, so a hit
    returns the same float."""
    cost = plan._true_costs.get(catalog)
    if cost is None:
        cost = plan._true_costs[catalog] = plan_cost(plan, _true_view(plan.leaves(), catalog))
    return cost


# Size one: a bandit pulls each candidate of one query in turn, and those
# trees share their leaves and catalog, so their first true costs build the
# view once; a wider memo would carry views from one benchmark round into
# the next.
@lru_cache(maxsize=1)
def _true_view(leaves: frozenset, catalog: Catalog) -> CardinalityVector:
    joins = tuple(e for e in catalog.selectivities if e[0] in leaves and e[1] in leaves)
    return true_vector(Query(tuple(sorted(leaves)), joins), catalog)


def simulate_latency(plan: PlanTree, catalog: Catalog, gen=None,
                     noise_frac: float = 0.05) -> float:
    """Observed latency: true cost plus relative noise, uniform in
    [-noise_frac, noise_frac). The noise is `2.0 * gen.random() - 1.0`, the
    value `gen.uniform(-1.0, 1.0)` computes as `-1.0 + 2.0 * u` from the same
    one draw, bit for bit (the doubling is exact), but through numpy's scalar
    path instead of its broadcasting one; the generator ends in the same
    state."""
    base = true_cost(plan, catalog)
    if gen is None or noise_frac <= 0:
        return base
    return base * (1.0 + noise_frac * (2.0 * gen.random() - 1.0))


# -- optimization -------------------------------------------------------------

@lru_cache(maxsize=8)   # one entry per relation count; structure, never results
def _levels(n: int) -> tuple:
    """The splits of every subset of n relations, numbered subset by subset
    in order of subset size 2..n. A split is (subset, left side, right
    side), where the left side holds the subset's lowest bit, and the
    splits of a subset are adjacent. Returns, as numpy arrays, per level of
    subset size: its subsets as bitmasks, where each subset's splits start
    within the level, each split's left side, right side and subset, and
    the level's slice of split numbers; then, over all levels, where each
    subset's splits start, with the split count appended. Then, as tuples
    for the Python pass: each mask's subset number (-1 below two bits) and
    each split's left and right side."""
    masks, starts, parent, left, right, bounds = [], [], [], [], [], []
    for size in range(2, n + 1):
        first = len(masks), len(parent)
        for mask in [m for m in range(1 << n) if m.bit_count() == size]:
            masks.append(mask)
            starts.append(len(parent))
            low = mask & -mask
            rest = mask ^ low
            sub = (rest - 1) & rest
            while True:
                parent.append(mask)
                left.append(sub | low)
                right.append(rest ^ sub)
                if not sub:
                    break
                sub = (sub - 1) & rest
        bounds.append((first, (len(masks), len(parent))))

    def frozen(values) -> np.ndarray:
        array = np.array(values, dtype=np.intp)
        array.flags.writeable = False
        return array

    levels = tuple(
        (frozen(masks[m0:m1]), frozen([s - s0 for s in starts[m0:m1]]),
         frozen(left[s0:s1]), frozen(right[s0:s1]), frozen(parent[s0:s1]), slice(s0, s1))
        for (m0, s0), (m1, s1) in bounds)
    pos = [-1] * (1 << n)
    for j, mask in enumerate(masks):
        pos[mask] = j
    return levels, frozen(starts + [len(parent)]), tuple(pos), tuple(left), tuple(right)


def _optimize(query: Query, view: CardinalityVector, values: np.ndarray) -> list[PlanTree]:
    """The best plan of `query` under each view, solved together: the rows
    of `values`, laid out as `view.values()`, with its relations and edges.

    One DP over relation subsets, as bitmasks over the sorted relations,
    for all views at once, level by level in subset size so that every
    proper subset is solved first. Each subset tries every split into two
    sides with both join algorithms and both input orders: O(3^n) split work
    per view, for at most 8 relations (the cap `Query` sets). Numpy costs
    every split of a level under every view, takes each subset's minimum and
    marks the join choices that reach it. The winner is the argmin of (cost,
    canonical plan string). Python finds it lazily, top-down from the full
    set with one memo per view: a subset with one tied (split, choice) pair
    takes it, comparing its sides' keys only to orient a hash join (which
    costs the same both ways round); a subset with several builds each tied
    pair's key and keeps the least. So only the subsets on a winning tree, and the
    sides of exact ties, ever get a key. The views share one `Join` per
    distinct sub-plan key, built with that key."""
    rels = sorted(query.relations)
    if not rels:
        raise ValueError("empty query")
    _, factor_masks, cols = _view_factors(rels, view)
    card = _cards(np.arange(1 << len(rels)), factor_masks, values[:, cols])
    cost = card.copy()                   # a single relation costs its scan
    n_views, size = card.shape
    levels, runs, pos, left_of, right_of = _levels(len(rels))
    n_splits = len(left_of)

    # per join choice (hash join, left-outer and right-outer nested loop),
    # view and split: whether the pair reaches its subset's minimum
    ties = np.empty((3, n_views, n_splits), dtype=bool)
    for masks, starts, left, right, parent, splits in levels:
        lc, rc, out = (card.take(side, axis=1) for side in (left, right, parent))
        base = cost.take(left, axis=1) + cost.take(right, axis=1)
        # `plan_cost`'s operations in its order, so a plan's cost is one
        # float; IEEE multiplication commutes, so lc * rc also stands for
        # the right-outer order's rc * lc
        product = lc * rc
        hash_join = base + (HASH_INPUT_FACTOR * (lc + rc) + out)
        left_outer = base + (lc + product + out)
        right_outer = base + (rc + product + out)
        # fmin skips a NaN cost, as a `<=` scan over the splits would
        cost[:, masks] = np.fmin.reduceat(
            np.fmin(np.fmin(hash_join, left_outer), right_outer), starts, axis=1)
        best = cost.take(parent, axis=1)
        for choice, split_cost in enumerate((hash_join, left_outer, right_outer)):
            np.equal(split_cost, best, out=ties[choice, :, splits])
    # the tied (view, split)s as flat indices view * n_splits + split, each
    # with its tied choices as bits, and where each (view, subset)'s tied
    # splits start and end among them; read through memoryviews, which
    # return Python ints, as the Python pass reads only a few entries
    hash_tie, left_tie, right_tie = ties.reshape(3, -1)
    flat = np.flatnonzero(hash_tie | left_tie | right_tie)
    choices = memoryview(hash_tie.take(flat) + 2 * left_tie.take(flat)
                         + 4 * right_tie.take(flat))
    bounds = memoryview(np.searchsorted(flat, np.arange(n_views)[:, None] * n_splits + runs))
    flat = memoryview(flat)
    full = size - 1
    scans = {1 << i: Scan(rel) for i, rel in enumerate(rels)}
    leaf_entries = {bit: (scan.relation, 0, None) for bit, scan in scans.items()}

    def winners(v: int) -> dict:
        """mask -> (key, left side, algorithm) of view v's winner, for the
        full set and every subset its key reads."""
        memo = dict(leaf_entries)
        offset = v * n_splits

        def key(mask: int) -> str:
            entry = memo.get(mask)
            if entry is None:
                j = pos[mask]
                lo, hi = bounds[v, j], bounds[v, j + 1]
                bits = choices[lo]
                if hi - lo == 1 and not bits & (bits - 1):     # one tied pair
                    entry = tied(flat[lo] - offset, bits >> 1)
                else:
                    entry = min(tied(flat[i] - offset, choice) for i in range(lo, hi)
                                for choice in range(3) if choices[i] >> choice & 1)
                memo[mask] = entry
            return entry[0]

        def tied(split: int, choice: int) -> tuple:
            l, r = left_of[split], right_of[split]
            kl, kr = key(l), key(r)
            if choice == 0:
                a, b = f"({kl} {HASH_JOIN} {kr})", f"({kr} {HASH_JOIN} {kl})"
                return (a, l, HASH_JOIN) if a < b else (b, r, HASH_JOIN)
            if choice == 1:
                return (f"({kl} {NESTED_LOOP} {kr})", l, NESTED_LOOP)
            return (f"({kr} {NESTED_LOOP} {kl})", r, NESTED_LOOP)

        key(full)
        return memo

    joins = {}                           # one Join per sub-plan key, for all views

    def build(memo: dict, mask: int) -> PlanTree:
        if mask in scans:
            return scans[mask]
        k, at, algo = memo[mask]
        node = joins.get(k)
        if node is None:
            node = joins[k] = Join._keyed(build(memo, at), build(memo, mask ^ at), algo, k)
        return node

    return [build(winners(v), full) for v in range(n_views)]


def optimize_base(query: Query, catalog: Catalog,
                  view: CardinalityVector | None = None) -> PlanTree:
    """Bushy dynamic-programming join enumeration under one estimate view
    (default: the catalog's estimates).

    The one-view call of `_optimize`, the DP that `gen_candidates` runs over
    all of its views at once, so a view gets the same plan either way. The
    result is the argmin of (cost, canonical plan string) over every bushy
    tree with either join algorithm at each node; O(3^n) split work, for at
    most 8 relations (the cap `Query` sets)."""
    if view is None:
        view = estimate_vector(query, catalog)
    return _optimize(query, view, np.array([view.values()], dtype=float))[0]


def gen_candidates(query: Query, catalog: Catalog, n_plans: int,
                   grid: MutationGrid = MutationGrid(),
                   seed: int = 0) -> list[PlanTree]:
    """Base plan plus up to n_plans de-duplicated mutation-derived plans.

    The views, the base estimate and then the mutated ones drawn in one
    call, are the rows of one array, solved in one DP."""
    if n_plans < 0:
        raise ValueError("n_plans must be >= 0")
    gen = rnglib.derive(seed, "plan-mutate")
    base_view = estimate_vector(query, catalog)
    values = np.vstack([base_view.values(), mutate_views(base_view, grid, n_plans, gen)])
    plans, seen = [], set()
    for plan in _optimize(query, base_view, values):
        if plan.key() not in seen:
            seen.add(plan.key())
            plans.append(plan)
    return plans


# -- online selection -----------------------------------------------------------

@dataclass
class PlanStats:
    pulls: int = 0
    mean_latency: float = 0.0


@dataclass
class SelectorState:
    """Per-(template, plan) pull counts and incrementally averaged latency."""

    explore_weight: float = 2.0
    rows: dict[str, dict[str, PlanStats]] = field(default_factory=dict)

    def template(self, template_id: str) -> dict[str, PlanStats]:
        return self.rows.setdefault(template_id, {})


def select_plan(template_id: str, candidates: list[PlanTree],
                state: SelectorState) -> PlanTree:
    """Untried candidates first (in candidate order), then lowest UCB score."""
    if not candidates:
        raise ValueError("no candidates")
    stats = state.template(template_id)
    rows = []
    for plan in candidates:
        row = stats.get(plan.key())
        if row is None or row.pulls == 0:
            return plan
        rows.append(row)
    log_total = math.log(sum(row.pulls for row in rows))
    weight = state.explore_weight
    best, best_score = None, None
    for plan, row in zip(candidates, rows):
        score = row.mean_latency - weight * math.sqrt(log_total / row.pulls)
        if best_score is None or score < best_score:
            best, best_score = plan, score
    return best


def feedback(template_id: str, plan: PlanTree, observed_latency: float,
             state: SelectorState) -> SelectorState:
    stats = state.template(template_id)
    row = stats.setdefault(plan.key(), PlanStats())
    row.pulls += 1
    row.mean_latency += (observed_latency - row.mean_latency) / row.pulls
    return state
