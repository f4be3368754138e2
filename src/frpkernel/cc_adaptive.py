"""Online learned concurrency control.

A strategy is a total table from (system-condition bucket, operation class)
to a concurrency action. The controller watches per-window statistics, and
when a workload shift shows up in them it runs a two-phase adjustment:
an evolutionary filter generates mutated strategies and tests each on a
private probe window to pick the best, then single-cell hill climbing
refines the winner under the same reward feedback. Rewards are
commits minus a penalty per abort, so maximizing reward maximizes
throughput while discouraging wasted work.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from . import rng as rnglib
from .engine import COLD, HOT, READ, WRITE, CCAction, Engine, ExecStats, WorkloadSpec


@dataclass(frozen=True)
class SystemState:
    throughput: float = 0.0
    avg_lock_wait: float = 0.0
    abort_rate: float = 0.0
    contention_index: float = 0.0


@dataclass(frozen=True)
class ShiftThresholds:
    """Relative-change triggers; None disables a field."""

    throughput: float | None = 0.5
    avg_lock_wait: float | None = 0.5
    abort_rate: float | None = 0.5
    contention_index: float | None = 0.5


def observe(stats: ExecStats, window: float) -> SystemState:
    if window <= 0:
        raise ValueError("window must be positive")
    finished = stats.committed_count + stats.aborted_count
    return SystemState(
        throughput=stats.committed_count / window,
        avg_lock_wait=(stats.total_lock_wait / stats.locked_op_count
                       if stats.locked_op_count else 0.0),
        abort_rate=stats.aborted_count / finished if finished else 0.0,
        contention_index=(stats.conflicted_op_count / stats.op_count
                          if stats.op_count else 0.0),
    )


def detect_shift(prev: SystemState, cur: SystemState,
                 thresholds: ShiftThresholds = ShiftThresholds()) -> bool:
    for name in ("throughput", "avg_lock_wait", "abort_rate", "contention_index"):
        limit = getattr(thresholds, name)
        if limit is None:
            continue
        before = getattr(prev, name)
        after = getattr(cur, name)
        if before == 0.0:
            if after != 0.0:
                return True
            continue
        if abs(after - before) / before > limit:
            return True
    return False


def window_reward(stats: ExecStats, abort_penalty: float = 0.5) -> float:
    return stats.committed_count - abort_penalty * stats.aborted_count


@dataclass(frozen=True)
class Bucketizer:
    """Equi-width discretization of (contention_index, avg_lock_wait)."""

    buckets: int = 4
    contention_max: float = 1.0
    wait_max: float = 5.0

    def cell_of(self, state: SystemState) -> tuple[int, int]:
        return (self._bucket(state.contention_index, self.contention_max),
                self._bucket(state.avg_lock_wait, self.wait_max))

    def _bucket(self, value: float, top: float) -> int:
        if value >= top:
            return self.buckets - 1
        return max(0, min(self.buckets - 1, int(value / top * self.buckets)))


Cell = tuple[int, int, str, str]  # (contention bucket, wait bucket, op kind, heat)


class CCStrategy:
    """Immutable total table over all cells; build new tables via with_cell."""

    def __init__(self, bucketizer: Bucketizer, table: dict[Cell, CCAction]):
        for cell in all_cells(bucketizer.buckets):
            if cell not in table:
                raise ValueError(f"table missing cell {cell}")
        self.bucketizer = bucketizer
        self._table = dict(table)
        self._key = (bucketizer, tuple(sorted((c, a.value) for c, a in self._table.items())))

    @classmethod
    def constant(cls, action: CCAction, bucketizer: Bucketizer = Bucketizer()) -> "CCStrategy":
        return cls(bucketizer, {c: action for c in all_cells(bucketizer.buckets)})

    @classmethod
    def prescribed(cls, bucketizer: Bucketizer = Bucketizer()) -> "CCStrategy":
        """Lock writes on contended or hot data; run everything else lock-free."""
        table = {}
        high = (bucketizer.buckets + 1) // 2
        for cell in all_cells(bucketizer.buckets):
            cb, _wb, kind, heat = cell
            if kind == WRITE and (cb >= high or heat == HOT):
                table[cell] = CCAction.LOCK_IMMEDIATE
            else:
                table[cell] = CCAction.OPTIMISTIC_NO_LOCK
        return cls(bucketizer, table)

    def action_at(self, cell: Cell) -> CCAction:
        return self._table[cell]

    def with_cell(self, cell: Cell, action: CCAction) -> "CCStrategy":
        table = dict(self._table)
        table[cell] = action
        return CCStrategy(self.bucketizer, table)

    def flipped(self, cell: Cell) -> "CCStrategy":
        cur = self._table[cell]
        other = (CCAction.OPTIMISTIC_NO_LOCK if cur is CCAction.LOCK_IMMEDIATE
                 else CCAction.LOCK_IMMEDIATE)
        return self.with_cell(cell, other)

    def cells(self) -> list[Cell]:
        return sorted(self._table)

    def __eq__(self, other):
        return isinstance(other, CCStrategy) and self._key == other._key

    def __hash__(self):
        return hash(self._key)

    def __repr__(self):
        locked = sum(1 for a in self._table.values() if a is CCAction.LOCK_IMMEDIATE)
        return f"CCStrategy({locked}/{len(self._table)} cells locked)"


def all_cells(buckets: int) -> list[Cell]:
    return [(cb, wb, kind, heat)
            for cb in range(buckets)
            for wb in range(buckets)
            for kind in (READ, WRITE)
            for heat in (HOT, COLD)]


class CountingPolicy:
    """Engine policy closure over (strategy, state) that tallies cell usage."""

    def __init__(self, strategy: CCStrategy, state: SystemState):
        self.strategy = strategy
        self.usage: dict[Cell, int] = {}
        # the state is fixed for the policy's life, and so is its bucket
        self._cb, self._wb = strategy.bucketizer.cell_of(state)

    def __call__(self, kind: str, heat: str) -> CCAction:
        cell = (self._cb, self._wb, kind, heat)
        self.usage[cell] = self.usage.get(cell, 0) + 1
        return self.strategy.action_at(cell)


def as_policy(strategy: CCStrategy, state: SystemState) -> CountingPolicy:
    return CountingPolicy(strategy, state)


def mutate(strategy: CCStrategy, cells_to_flip: int, gen) -> CCStrategy:
    cells = strategy.cells()
    out = strategy
    if cells_to_flip <= 0:
        return out
    picks = gen.choice(len(cells), size=min(cells_to_flip, len(cells)), replace=False)
    for idx in sorted(int(i) for i in picks):
        out = out.flipped(cells[idx])
    return out


def filter_phase(seed_strategy: CCStrategy, pop_size: int, evaluator, gen,
                 cells_to_flip: int = 2) -> CCStrategy:
    """Evolutionary filter: evaluate pop_size mutants plus the seed, keep the best.

    The seed is evaluated first, by the same evaluator as the mutants, so
    every candidate is compared under the same probe conditions. Ties go to
    the seed, then to earlier-generated mutants, so a zero-mutation
    population returns the seed unchanged.
    """
    if pop_size < 2:
        raise ValueError("population size must be >= 2")
    best, best_reward = seed_strategy, evaluator(seed_strategy)
    for _ in range(pop_size):
        cand = mutate(seed_strategy, cells_to_flip, gen)
        cand_reward = evaluator(cand)
        if cand_reward > best_reward:
            best, best_reward = cand, cand_reward
    return best


def refine_phase(strategy: CCStrategy, evaluator, rounds: int,
                 cells: list[Cell] | None = None) -> CCStrategy:
    """Single-cell hill climbing; a flip is kept iff reward does not decrease.

    Cells are proposed round-robin from `cells` (callers pass usage-ranked
    orders so refinement reaches the classes the live workload actually
    exercises first); default is the table's sorted cell order.
    """
    if rounds <= 0:
        return strategy
    order = list(cells) if cells else strategy.cells()
    current, current_reward = strategy, evaluator(strategy)
    for i in range(rounds):
        cand = current.flipped(order[i % len(order)])
        cand_reward = evaluator(cand)
        if cand_reward >= current_reward:
            current, current_reward = cand, cand_reward
    return current


@dataclass
class AdaptationEvent:
    window_index: int
    probe_windows: int
    old_strategy: CCStrategy
    new_strategy: CCStrategy


@dataclass
class OnlineAdapter:
    """Drives live windows and triggers the two-phase adjustment on shifts.

    Per live window the caller asks for a policy, runs the window itself,
    and reports the stats back together with the workload it ran; probing
    uses private engine instances so candidate evaluation never touches
    the live store.
    """

    strategy: CCStrategy
    thresholds: ShiftThresholds = field(default_factory=ShiftThresholds)
    pop_size: int = 8
    cells_to_flip: int = 2
    refine_rounds: int = 2
    abort_penalty: float = 0.5
    probe_duration: float = 10.0
    seed: int = 0
    # must build engines configured like the live one (workers, hot-key
    # count, service costs), or probe rewards rank candidates on a system
    # that behaves differently from the one being tuned
    engine_factory: object = Engine
    # windows to ignore shift detection after installing a strategy, so the
    # turbulence the adaptation itself causes does not re-trigger it
    cooldown_windows: int = 0

    def __post_init__(self):
        self.state = SystemState()
        self.window_index = 0
        self.events: list[AdaptationEvent] = []
        self._last_policy: CountingPolicy | None = None
        self._cooldown = 0

    def next_policy(self) -> CountingPolicy:
        self._last_policy = as_policy(self.strategy, self.state)
        return self._last_policy

    def observe_window(self, stats: ExecStats, window: float,
                       workload: WorkloadSpec) -> AdaptationEvent | None:
        cur = observe(stats, window)
        prev = self.state
        self.state = cur
        self.window_index += 1
        if self._cooldown > 0:
            self._cooldown -= 1
            return None
        if self.window_index == 1 or not detect_shift(prev, cur, self.thresholds):
            return None
        event = self._adapt(cur, workload)
        self.events.append(event)
        self._cooldown = self.cooldown_windows
        return event

    def _adapt(self, state: SystemState, workload: WorkloadSpec) -> AdaptationEvent:
        probe_seed = rnglib.child_seed(self.seed, "probe", len(self.events))
        probe_spec = replace(workload, seed=probe_seed)
        probes = 0
        memo: dict[CCStrategy, float] = {}

        def evaluator(candidate: CCStrategy) -> float:
            nonlocal probes
            if candidate in memo:
                return memo[candidate]
            probes += 1
            eng = self.engine_factory()
            probe_stats = eng.run_window(probe_spec, as_policy(candidate, state),
                                         self.probe_duration)
            memo[candidate] = window_reward(probe_stats, self.abort_penalty)
            return memo[candidate]

        gen = rnglib.derive(self.seed, "evolve", len(self.events))
        winner = filter_phase(self.strategy, self.pop_size, evaluator, gen,
                              cells_to_flip=self.cells_to_flip)
        order = self._usage_order()
        refined = refine_phase(winner, evaluator, self.refine_rounds, cells=order)

        event = AdaptationEvent(self.window_index, probes, self.strategy, refined)
        self.strategy = refined
        return event

    def _usage_order(self) -> list[Cell] | None:
        if self._last_policy is None or not self._last_policy.usage:
            return None
        ranked = sorted(self._last_policy.usage.items(),
                        key=lambda kv: (-kv[1], kv[0]))
        return [cell for cell, _ in ranked]
