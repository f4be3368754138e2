"""Candidate plan generation by cardinality mutation, plus online selection.

A toy cost-based optimizer enumerates bushy join trees by dynamic programming
over relation subsets, each a bitmask over the sorted relation names (bit i
is the i-th name). Instead of hint sets, plan diversity comes from
re-running that optimizer under multiplicatively perturbed cardinality
estimates; the unmutated base plan is always kept. An upper-confidence bandit
then picks among the candidates per query template and learns from observed
latencies, which depend only on true cardinalities, never on the estimates.

Cost model per node (cards taken from whichever estimate view is in force):
scan costs its row count; a hash join costs 1.5 * (left + right) + output,
and a nested-loop join costs left + left * right + output. Plan cost is the
sum over all nodes, so it is C_out-like with per-algorithm input terms.
A subset's card is the product of its rows in sorted-relation order, then of
the selectivities of the query edges inside it in sorted-edge order. That
order is fixed, so costs are bit-identical across processes whatever the
string hash seed.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field
from types import MappingProxyType

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


class Catalog:
    """True and estimated base cardinalities and pairwise join selectivities.

    Read-only once built, so a plan tree can memoize its true cost per
    catalog (see `true_cost`)."""

    def __init__(self, relations: dict[str, RelStats],
                 selectivities: dict[tuple[str, str], tuple[float, float]]):
        for name, stats in relations.items():
            if stats.true_rows <= 0 or stats.est_rows <= 0:
                raise ValueError(f"rows for {name} must be positive")
        sels = {}
        for pair, (true_sel, est_sel) in selectivities.items():
            if true_sel <= 0 or est_sel <= 0:
                raise ValueError(f"selectivity for {pair} must be positive")
            a, b = pair
            if a not in relations or b not in relations:
                raise ValueError(f"selectivity references unknown relation {pair}")
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
        if len(self.relations) != len(set(self.relations)):
            raise ValueError("duplicate relations in query")
        for a, b in self.joins:
            if a not in self.relations or b not in self.relations:
                raise ValueError(f"join ({a}, {b}) references non-query relation")

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
    # derived once at construction; equality, hash and repr ignore them
    _key: str = field(init=False, compare=False, repr=False)
    _leaves: frozenset = field(init=False, compare=False, repr=False)
    # true cost per catalog, as on `Scan`
    _true_costs: dict = field(default_factory=dict, init=False,
                              compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "_key",
                           f"({self.left.key()} {self.algo} {self.right.key()})")
        object.__setattr__(self, "_leaves", self.left.leaves() | self.right.leaves())

    def key(self) -> str:
        return self._key

    def leaves(self) -> frozenset:
        return self._leaves


PlanTree = Scan | Join


@dataclass(frozen=True)
class CardinalityVector:
    """One estimate view: base rows per relation plus selectivity per edge."""

    rels: tuple[str, ...]
    rows: tuple[float, ...]
    edges: tuple[tuple[str, str], ...]
    sels: tuple[float, ...]

    def __post_init__(self):
        if not all(v > 0 for v in self.rows + self.sels):
            raise ValueError("cardinality entries must be positive")

    def values(self) -> tuple[float, ...]:
        return self.rows + self.sels


def estimate_vector(query: Query, catalog: Catalog) -> CardinalityVector:
    return _vector(query, catalog, use_true=False)


def true_vector(query: Query, catalog: Catalog) -> CardinalityVector:
    return _vector(query, catalog, use_true=True)


def _vector(query: Query, catalog: Catalog, use_true: bool) -> CardinalityVector:
    for rel in query.relations:
        if rel not in catalog.relations:
            raise ValueError(f"unknown relation {rel}")
    rels = tuple(sorted(query.relations))
    rows = tuple(catalog.relations[r].true_rows if use_true
                 else catalog.relations[r].est_rows for r in rels)
    edges = tuple(sorted(edge_key(a, b) for a, b in query.joins))
    sels = tuple((catalog.selectivities.get(e, (1.0, 1.0))[0 if use_true else 1])
                 for e in edges)
    return CardinalityVector(rels, rows, edges, sels)


@dataclass(frozen=True)
class MutationGrid:
    factors: tuple[float, ...] = (0.1, 0.5, 1.0, 2.0, 10.0)

    def __post_init__(self):
        if 1.0 not in self.factors or any(f <= 0 for f in self.factors):
            raise ValueError("factor grid must be positive and contain 1")


def mutate_cards(cards: CardinalityVector, grid: MutationGrid, gen) -> CardinalityVector:
    """Multiply every entry by an independent uniform draw from the grid."""
    values = cards.values()
    factors = [grid.factors[int(i)] for i in
               gen.integers(0, len(grid.factors), size=len(values))]
    mutated = [v * f for v, f in zip(values, factors)]
    n = len(cards.rows)
    return CardinalityVector(cards.rels, tuple(mutated[:n]),
                             cards.edges, tuple(mutated[n:]))


# -- costing ---------------------------------------------------------------

def _bitmask_view(rels: list[str], view: CardinalityVector):
    """A bit per relation of the sorted `rels`, their (bit, row) pairs, and
    the view's `edge_key`-form edges among them as (bit pair, sel) in
    sorted-edge order; a repeated edge keeps its first sel."""
    bits = {rel: 1 << i for i, rel in enumerate(rels)}
    rows_of = dict(zip(view.rels, view.rows))
    missing = [rel for rel in rels if rel not in rows_of]
    if missing:
        raise ValueError(f"view has no rows for {missing}")
    sels = {}
    for (a, b), sel in zip(view.edges, view.sels):
        if a < b and a in bits and b in bits:
            sels.setdefault((a, b), sel)
    return (bits, [(bits[rel], rows_of[rel]) for rel in rels],
            [(bits[a] | bits[b], sels[a, b]) for a, b in sorted(sels)])


def _card(mask: int, rows: list[tuple[int, float]],
          edges: list[tuple[int, float]]) -> float:
    """Output card of a relation subset: its rows, then the sels of the edges
    inside it, each in list order."""
    card = 1.0
    for bit, row in rows:
        if mask & bit:
            card *= row
    for pair, sel in edges:
        if mask & pair == pair:
            card *= sel
    return card


def plan_cost(plan: PlanTree, view: CardinalityVector) -> float:
    """Sum of node costs, each node's card taken by `_card` over its leaves."""
    bits, rows, edges = _bitmask_view(sorted(plan.leaves()), view)

    def walk(node) -> tuple[int, float, float]:
        """(subset mask, output card, cost) of the subtree, bottom-up."""
        if isinstance(node, Scan):
            mask = bits[node.relation]
            card = _card(mask, rows, edges)
            return mask, card, card
        lmask, lc, lcost = walk(node.left)
        rmask, rc, rcost = walk(node.right)
        mask = lmask | rmask
        out = _card(mask, rows, edges)
        if node.algo == HASH_JOIN:
            here = HASH_INPUT_FACTOR * (lc + rc) + out
        elif node.algo == NESTED_LOOP:
            here = lc + lc * rc + out
        else:
            raise ValueError(f"unknown join algorithm {node.algo!r}")
        return mask, out, lcost + rcost + here

    return walk(plan)[2]


def true_cost(plan: PlanTree, catalog: Catalog) -> float:
    """Cost under true cardinalities; the execution-side ground truth.

    Computed on the first call per (tree, catalog) and memoized on the tree,
    keyed by the catalog object; trees and catalogs never change, so a hit
    returns the same float."""
    cost = plan._true_costs.get(catalog)
    if cost is None:
        leaves = plan.leaves()
        joins = tuple(e for e in catalog.selectivities
                      if e[0] in leaves and e[1] in leaves)
        query = Query(tuple(sorted(leaves)), joins)
        cost = plan._true_costs[catalog] = plan_cost(plan, true_vector(query, catalog))
    return cost


def simulate_latency(plan: PlanTree, catalog: Catalog, gen=None,
                     noise_frac: float = 0.05) -> float:
    """Observed latency: true cost plus relative noise."""
    base = true_cost(plan, catalog)
    if gen is None or noise_frac <= 0:
        return base
    return base * (1.0 + noise_frac * float(gen.uniform(-1.0, 1.0)))


# -- optimization -------------------------------------------------------------

def optimize_base(query: Query, catalog: Catalog,
                  view: CardinalityVector | None = None) -> PlanTree:
    """Bushy dynamic-programming join enumeration under an estimate view.

    Subsets are bitmasks over the sorted relations, visited in ascending
    order so that every proper submask is solved first. Each subset tries
    every split into two sides with both join algorithms and both input
    orders: O(3^n) split work, for at most 8 relations. The result is the
    argmin of (cost, canonical plan string). Candidates get a key string
    only on an exact cost tie, each subset's winner gets one, and the tree
    is built once, from the winning splits.
    """
    if len(query.relations) > 8:
        raise ValueError("queries beyond 8 relations are out of scope")
    if view is None:
        view = estimate_vector(query, catalog)
    rels = sorted(query.relations)
    if not rels:
        raise ValueError("empty query")
    _, rows, edges = _bitmask_view(rels, view)
    full = (1 << len(rels)) - 1
    # per mask: output card, best cost, winning left side, algorithm, key
    card = [_card(mask, rows, edges) for mask in range(full + 1)]
    cost = card[:]                      # a single relation costs its scan
    split = [0] * (full + 1)
    algo = [HASH_JOIN] * (full + 1)
    keys = [""] * (full + 1)
    for i, rel in enumerate(rels):
        keys[1 << i] = rel

    for mask in range(3, full + 1):
        if not mask & (mask - 1):
            continue
        out = card[mask]
        # each split once, enumerated as the submasks `sub` of `rest`; the
        # side holding the lowest bit goes left or right, and a hash join
        # costs the same both ways round
        low = mask & -mask
        rest = mask ^ low
        best, ties = math.inf, []
        sub = (rest - 1) & rest
        while True:
            left = sub | low
            right = rest ^ sub
            lc, rc = card[left], card[right]
            base = cost[left] + cost[right]
            c = base + (HASH_INPUT_FACTOR * (lc + rc) + out)
            if c <= best:
                if c < best:
                    best, ties = c, []
                ties += ((left, HASH_JOIN), (right, HASH_JOIN))
            c = base + (lc + lc * rc + out)
            if c <= best:
                if c < best:
                    best, ties = c, []
                ties.append((left, NESTED_LOOP))
            c = base + (rc + rc * lc + out)
            if c <= best:
                if c < best:
                    best, ties = c, []
                ties.append((right, NESTED_LOOP))
            if not sub:
                break
            sub = (sub - 1) & rest
        cost[mask] = best
        keys[mask], split[mask], algo[mask] = min(
            (f"({keys[l]} {a} {keys[mask ^ l]})", l, a) for l, a in ties)

    def build(mask: int) -> PlanTree:
        if not mask & (mask - 1):
            return Scan(rels[mask.bit_length() - 1])
        return Join(build(split[mask]), build(mask ^ split[mask]), algo[mask])

    return build(full)


def gen_candidates(query: Query, catalog: Catalog, n_plans: int,
                   grid: MutationGrid = MutationGrid(),
                   seed: int = 0) -> list[PlanTree]:
    """Base plan plus up to n_plans de-duplicated mutation-derived plans."""
    if n_plans < 0:
        raise ValueError("n_plans must be >= 0")
    gen = rnglib.derive(seed, "plan-mutate")
    base_view = estimate_vector(query, catalog)
    base = optimize_base(query, catalog, base_view)
    plans = [base]
    seen = {base.key()}
    for _ in range(n_plans):
        mutated = mutate_cards(base_view, grid, gen)
        plan = optimize_base(query, catalog, mutated)
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
