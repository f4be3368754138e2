"""Engine workloads: `txn-wide` (wide key space, fixed policy) and
`adapt-shift` (small hot key sets, online adaptation).

A round starts from a fresh engine, so every round of a run replays the same
simulated outcomes; only wall time differs between rounds.
"""

from __future__ import annotations

from dataclasses import astuple, dataclass

from frpkernel import rng as rnglib
from frpkernel.cc_adaptive import (
    Bucketizer,
    CCStrategy,
    OnlineAdapter,
    ShiftThresholds,
    SystemState,
    as_policy,
)
from frpkernel.engine import Engine, WorkloadSpec
from frpkernel.recovery import EnclaveSim, RedoLog

from tracing import clock

# txn-wide: ~2000 keys against an 8-key hot set, 16 workers kept busy
WIDE_SPEC = dict(key_space=2000, zipf_theta=0.8, write_frac=0.3, txn_len=4,
                 arrival_rate=4.0)
WIDE_WORKERS = 16
WIDE_HOT_KEYS = 8
# 16 short windows rather than fewer long ones: more latency samples per round
WIDE_WINDOWS = 16
WIDE_TICKS = 40
ANCHOR_EVERY = 4

# adapt-shift: read-mostly uniform phases alternate with write-heavy skewed
# ones. The adapter checks for a shift only on windows outside its cooldown.
# The first phase is one window and every later phase lasts cooldown + 1
# windows, so each check falls on the first window of a phase, where the
# shift is large. The adapter then adapts once per phase change for every
# seed, rather than on whichever noise inside a phase crosses a threshold,
# and every round of every seed does the same number of adaptations.
READ_PHASE = dict(key_space=24, zipf_theta=0.0, write_frac=0.05, txn_len=3,
                  arrival_rate=3.0)
WRITE_PHASE = dict(key_space=6, zipf_theta=0.99, write_frac=0.8, txn_len=3,
                   arrival_rate=3.0)
COOLDOWN = 2
PHASE_WINDOWS = COOLDOWN + 1
PHASES = (((READ_PHASE, 1),)
          + ((WRITE_PHASE, PHASE_WINDOWS), (READ_PHASE, PHASE_WINDOWS)) * 7
          + ((WRITE_PHASE, PHASE_WINDOWS),))
ADAPT_TICKS = 40
PROBE_TICKS = 120
BUCKETS = Bucketizer(2, 1.0, 5.0)
ADAPT_ENGINE = dict(max_workers=4, hot_key_count=3, lock_overhead=1, abort_cost=4)


def instrument_engine(engine: Engine, tracer, rec, span_name: str) -> None:
    """Time hot-key ranking, per-op execution, policy calls and whole windows
    on this engine instance, and tally each window's stats."""
    tracer.wrap_timer(engine, "hot_keys", "engine.hot_keys")
    tracer.wrap_timer(engine, "execute_op", "engine.execute_op")
    run_window = tracer.spanned(engine.run_window, span_name)

    def traced_run_window(workload, policy, duration):
        stats = run_window(workload, tracer.timed(policy, "cc_adaptive.policy"), duration)
        rec.count("engine.ops", stats.op_count)
        rec.count("engine.committed", stats.committed_count)
        rec.count("engine.aborted", stats.aborted_count)
        rec.count("engine.carryover", stats.carryover_count)
        rec.count("engine.lock_wait_ticks", stats.total_lock_wait)
        return stats

    engine.run_window = traced_run_window


def checksums_ok(engine: Engine) -> bool:
    return all(r.checksum_ok() for r in engine.store.records.values())


# -- txn-wide ------------------------------------------------------------------

@dataclass
class WideInputs:
    enclave: EnclaveSim
    specs: list[WorkloadSpec]


def _wide_engine(enclave: EnclaveSim) -> tuple[Engine, RedoLog]:
    log = RedoLog(enclave, anchor_every=ANCHOR_EVERY)
    return Engine(log=log, max_workers=WIDE_WORKERS, hot_key_count=WIDE_HOT_KEYS), log


def setup_wide(seed: int) -> WideInputs:
    enclave = EnclaveSim(seed=rnglib.child_seed(seed, "txn-wide", "enclave"))
    specs = [WorkloadSpec(seed=rnglib.child_seed(seed, "txn-wide", "window", w),
                          **WIDE_SPEC)
             for w in range(WIDE_WINDOWS)]
    # warm-up window on a throwaway engine, so lazy set-up is not timed
    engine, _ = _wide_engine(enclave)
    engine.run_window(specs[0], _wide_policy(), WIDE_TICKS // 4)
    return WideInputs(enclave, specs)


def _wide_policy():
    # prescribed table, fixed state: mixed locked and optimistic actions
    return as_policy(CCStrategy.prescribed(), SystemState())


def round_wide(inp: WideInputs, rec, tracer) -> tuple:
    engine, log = _wide_engine(inp.enclave)
    policy = _wide_policy()
    if tracer is not None:
        instrument_engine(engine, tracer, rec, "engine.run_window")
        tracer.wrap_span(log, "append_redo", "recovery.append_redo")
        tracer.wrap_span(log, "seal_txn", "recovery.seal_txn")

    outcome = []
    for spec in inp.specs:
        t0 = clock()
        stats = engine.run_window(spec, policy, WIDE_TICKS)
        rec.timed(clock() - t0, stats.committed_count, primary=True)
        rec.check(checksums_ok(engine))
        outcome.append(astuple(stats))

    # final audit, outside the timed region: the log vouches for every key
    store = engine.store
    rec.check(log.verify_log()
              and not any(log.detect_tamper(k, store.read(k)) for k in store.records))
    rec.count("recovery.records", len(log.records))
    outcome.append((len(store.records), len(log.records)))
    return tuple(outcome)


# -- adapt-shift ----------------------------------------------------------------

@dataclass
class AdaptInputs:
    adapt_seed: int
    phases: list[list[WorkloadSpec]]


def setup_adapt(seed: int) -> AdaptInputs:
    phases = []
    window = 0
    for shape, windows in PHASES:
        specs = []
        for _ in range(windows):
            specs.append(WorkloadSpec(
                seed=rnglib.child_seed(seed, "adapt-shift", "window", window), **shape))
            window += 1
        phases.append(specs)
    inputs = AdaptInputs(rnglib.child_seed(seed, "adapt-shift", "adapter"), phases)
    # warm-up: one live window and one probe-length window, throwaway engines
    Engine(**ADAPT_ENGINE).run_window(phases[0][0], _adapter(inputs, Engine).next_policy(),
                                      ADAPT_TICKS)
    Engine(**ADAPT_ENGINE).run_window(phases[1][0], _adapter(inputs, Engine).next_policy(),
                                      PROBE_TICKS)
    return inputs


def _adapter(inp: AdaptInputs, factory) -> OnlineAdapter:
    return OnlineAdapter(
        strategy=CCStrategy.prescribed(BUCKETS),
        thresholds=ShiftThresholds(),
        pop_size=8,
        cells_to_flip=2,
        refine_rounds=1,
        abort_penalty=0.1,
        probe_duration=PROBE_TICKS,
        seed=inp.adapt_seed,
        engine_factory=factory,
        cooldown_windows=COOLDOWN,
    )


def round_adapt(inp: AdaptInputs, rec, tracer) -> tuple:
    live = Engine(**ADAPT_ENGINE)
    if tracer is not None:
        instrument_engine(live, tracer, rec, "engine.run_window")
    probe_s: list[float] = []

    def factory():
        probe = Engine(**ADAPT_ENGINE)
        if tracer is not None:
            instrument_engine(probe, tracer, rec, "engine.probe_window")
        run_window = probe.run_window

        def timed_run_window(*args):
            t0 = clock()
            stats = run_window(*args)
            probe_s.append(clock() - t0)
            return stats

        probe.run_window = timed_run_window
        return probe

    adapter = _adapter(inp, factory)
    if tracer is not None:
        tracer.wrap_span(adapter, "observe_window", "cc_adaptive.observe_window")

    outcome = []
    for (shape, _), specs in zip(PHASES, inp.phases):
        # Latency samples come from read-phase windows only. Read and write
        # windows cost different amounts, and half the windows are of each
        # kind, so a median over both sits between the two modes and moves
        # with the seed.
        primary = shape is READ_PHASE
        for spec in specs:
            policy = adapter.next_policy()
            t0 = clock()
            stats = live.run_window(spec, policy, ADAPT_TICKS)
            rec.timed(clock() - t0, stats.committed_count, primary=primary)
            # an adaptation takes ~80 ms, mostly in ~10 probe windows; each
            # probe window is its own timed call, the rest of the adaptation
            # another, so that each short call gets its own best time
            probe_s.clear()
            t0 = clock()
            adapter.observe_window(stats, ADAPT_TICKS, spec)
            observe_s = clock() - t0
            for secs in probe_s:
                rec.timed(secs)
            rec.timed(observe_s - sum(probe_s))
            rec.check(checksums_ok(live))
            outcome.append(astuple(stats))

    events = adapter.events
    rec.count("cc_adaptive.adaptations", len(events))
    rec.count("cc_adaptive.probe_windows", sum(e.probe_windows for e in events))
    final = adapter.strategy
    outcome.append(tuple((e.window_index, e.probe_windows) for e in events))
    outcome.append(tuple(final.action_at(cell).value for cell in final.cells()))
    return tuple(outcome)
