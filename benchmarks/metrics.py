"""Round records, end-to-end metric names and per-layer metric values.

A run repeats one workload's round until its time is up. Each round records:
- every timed call into the kernel, with the work units it completed and
  whether it is the workload's primary operation (oracle checks and input
  bookkeeping stay outside the timed calls);
- one attempted operation per oracle check, failed when the check fails;
- counts of deterministic simulated outcomes, which feed the traced run's
  per-layer metrics.

Per-layer metrics are per round. Time metrics (unit "s") are the mean over
the traced rounds. Every other per-layer metric is a deterministic outcome
of the round's inputs, so every traced round must report the same value.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

# times scaled to the reference host (see run.py); ref_s and ref_ms name the
# scaled units, setup_s keeps the unit s
END_TO_END = {
    "setup_s": "s",
    "throughput_per_s": "1/ref_s",
    "latency_ms_p50": "ref_ms",
    "latency_ms_p90": "ref_ms",
    "round_ms": "ref_ms",
}

PER_LAYER = {
    "engine.busy_s": "s",
    "engine.hot_keys_s": "s",
    "engine.hot_keys_calls": "count",
    "engine.exec_op_s": "s",
    "engine.op_attempts": "count",
    "engine.ops": "count",
    "engine.op_success_ratio": "ratio",
    "engine.committed": "count",
    "engine.aborted": "count",
    "engine.commit_ratio": "ratio",
    "engine.carryover": "count",
    "engine.lock_wait_ticks": "ticks",
    "cc_adaptive.adaptations": "count",
    "cc_adaptive.probe_windows": "count",
    "cc_adaptive.probe_s": "s",
    "cc_adaptive.self_s": "s",
    "cc_adaptive.policy_calls": "count",
    "recovery.append_s": "s",
    "recovery.seal_s": "s",
    "recovery.records": "count",
    "recovery.log_bytes": "bytes",
    "recovery.load_s": "s",
    "recovery.verify_s": "s",
    "recovery.recover_s": "s",
    "recovery.recovers": "count",
    "recovery.replay_len_max": "count",
    "recovery.tamper_detected_ratio": "ratio",
    "model_select.busy_s": "s",
    "model_select.score_calls": "count",
    "model_select.score_s": "s",
    "model_select.refine_s": "s",
    "model_select.epochs": "count",
    "model_select.regret_mean": "quality",
    "model_select.budget_used_ratio": "ratio",
    "harness.batches": "count",
    "harness.buffer_wait_s": "s",
    "plan_opt.gen_s": "s",
    "plan_opt.queries": "count",
    "plan_opt.unique_ratio": "ratio",
    "plan_opt.bandit_s": "s",
    "plan_opt.latency_sim_s": "s",
    "plan_opt.episodes": "count",
    "plan_opt.tail_best_fraction": "ratio",
    "gate.busy_s": "s",
    "gate.preds": "count",
    "gate.parse_encode_s": "s",
    "gate.forward_s": "s",
    "gate.expert_evals": "count",
    "gate.active_ratio": "ratio",
    "trace.round_s": "s",
    "trace.overhead_ratio": "ratio",
    "trace.rounds": "count",
    "trace.spans": "count",
    "trace.outcome_digest": "hash",
    "host.cal_ms": "ms",
}

# computed once per run from all rounds, not per traced round
RUN_LEVEL = ("trace.round_s", "trace.overhead_ratio", "trace.rounds",
             "trace.outcome_digest", "host.cal_ms")


@dataclass
class RoundRecord:
    # one entry per timed call, in call order: (seconds, work units, primary)
    segments: list[tuple[float, int, bool]] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    counts: dict[str, float] = field(default_factory=dict)

    def timed(self, seconds: float, units: int = 0, primary: bool = False) -> None:
        """Record one timed call; `primary` calls are latency samples."""
        self.segments.append((seconds, units, primary))

    @property
    def timed_s(self) -> float:
        return sum(seg[0] for seg in self.segments)

    def check(self, ok: bool) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1

    def count(self, name: str, amount: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount


def best_segments(rounds: list[RoundRecord]) -> list[tuple[float, int, bool]]:
    """Each timed call's fastest time over the rounds.

    Rounds replay the same calls on the same inputs, so call i of every
    round does the same work; its minimum over the rounds filters out the
    slowdowns a shared host imposes on some rounds and not others.
    """
    shape = [seg[1:] for seg in rounds[0].segments]
    if any([seg[1:] for seg in rec.segments] != shape for rec in rounds):
        raise RuntimeError("rounds made different timed calls")
    columns = zip(*(rec.segments for rec in rounds))
    return [(min(seg[0] for seg in col), units, primary)
            for col, (units, primary) in zip(columns, shape)]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_values(tracer, counts: dict[str, float]) -> dict[str, float]:
    """Per-layer metrics of one traced round, before run-level metrics.

    `counts` holds outcome counts under their metric names, plus helper
    tallies under names starting with "_" that only feed ratios.
    """
    spans = tracer.summary()

    def total(*names: str) -> float:
        return sum(spans[n].total_s for n in names if n in spans)

    def self_time(name: str) -> float:
        return spans[name].self_s if name in spans else 0.0

    def calls(name: str) -> int:
        return spans[name].count if name in spans else 0

    v: dict[str, float] = {name: 0 for name in PER_LAYER if name not in RUN_LEVEL}
    v.update((k, c) for k, c in counts.items() if not k.startswith("_"))
    c = counts.get

    v["engine.busy_s"] = total("engine.run_window", "engine.probe_window")
    v["engine.hot_keys_s"] = tracer.timer_s("engine.hot_keys")
    v["engine.hot_keys_calls"] = tracer.timer_calls("engine.hot_keys")
    v["engine.exec_op_s"] = tracer.timer_s("engine.execute_op")
    v["engine.op_attempts"] = tracer.timer_calls("engine.execute_op")
    v["engine.op_success_ratio"] = _ratio(v["engine.ops"], v["engine.op_attempts"])
    v["engine.commit_ratio"] = _ratio(
        v["engine.committed"], v["engine.committed"] + v["engine.aborted"])

    v["cc_adaptive.probe_s"] = total("engine.probe_window")
    v["cc_adaptive.self_s"] = self_time("cc_adaptive.observe_window")
    v["cc_adaptive.policy_calls"] = tracer.timer_calls("cc_adaptive.policy")

    v["recovery.append_s"] = total("recovery.append_redo")
    v["recovery.seal_s"] = total("recovery.seal_txn")
    v["recovery.load_s"] = total("recovery.from_text")
    v["recovery.verify_s"] = total("recovery.verify_log")
    v["recovery.recover_s"] = total("recovery.recover")
    v["recovery.recovers"] = calls("recovery.recover")
    v["recovery.tamper_detected_ratio"] = _ratio(c("_detected", 0), c("_tampered", 0))

    v["model_select.busy_s"] = total("model_select.select")
    v["model_select.score_calls"] = calls("model_select.score")
    v["model_select.score_s"] = total("model_select.score")
    v["model_select.refine_s"] = v["model_select.busy_s"] - v["model_select.score_s"]
    v["model_select.regret_mean"] = _ratio(c("_regret", 0), c("_select_runs", 0))
    v["model_select.budget_used_ratio"] = _ratio(c("_elapsed", 0), c("_budget", 0))
    v["harness.buffer_wait_s"] = tracer.timer_s("harness.buffer_consume")

    v["plan_opt.gen_s"] = total("plan_opt.gen_candidates")
    v["plan_opt.queries"] = calls("plan_opt.gen_candidates")
    v["plan_opt.unique_ratio"] = _ratio(c("_unique_plans", 0), c("_plans_tried", 0))
    v["plan_opt.bandit_s"] = self_time("plan_opt.episode")
    v["plan_opt.latency_sim_s"] = total("plan_opt.simulate_latency")
    v["plan_opt.episodes"] = calls("plan_opt.episode")
    v["plan_opt.tail_best_fraction"] = _ratio(c("_tail_best", 0), v["plan_opt.queries"])

    v["gate.busy_s"] = total("gate.predict")
    v["gate.preds"] = calls("gate.predict")
    v["gate.parse_encode_s"] = total("gate.parse_encode")
    v["gate.forward_s"] = total("gate.forward")
    v["gate.active_ratio"] = _ratio(v["gate.expert_evals"], c("_expert_slots", 0))

    v["trace.spans"] = len(tracer.names)
    return v


def is_time(name: str) -> bool:
    return PER_LAYER[name] == "s"


def outcome_digest(values: dict[str, float]) -> int:
    """48-bit digest of the deterministic per-layer outcomes of a round."""
    text = "\n".join(f"{k}={values[k]!r}" for k in sorted(values) if not is_time(k))
    return int(hashlib.sha256(text.encode()).hexdigest()[:12], 16)


def quantile(values: list[float], q: float) -> float:
    """Linear-interpolated quantile of a non-empty sample."""
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)
