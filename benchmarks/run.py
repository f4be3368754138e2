"""Benchmark entry point for the frpkernel components.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the kernel is imported from its
`src/` directory. The command sets up the workload's inputs from the seed,
then repeats the workload's round until S seconds have passed, checking every
output against its oracle. Set-up is timed again before every round, and
the median of those times is the reported set-up time. A calibration kernel
timed after every round scales the end-to-end times to a reference host
(see REF_CAL_S).

With `--trace 0` the last line of standard output is a JSON object with the
end-to-end metrics. With `--trace 1` rounds alternate between untraced and
traced; the JSON object holds the per-layer metrics of the traced rounds and
the tracing overhead against the untraced ones, and a span summary goes to
standard error. See README.md beside this file for the metrics and what
each one should move.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import statistics
import sys
from pathlib import Path

from metrics import (
    END_TO_END,
    PER_LAYER,
    RoundRecord,
    best_segments,
    is_time,
    layer_values,
    outcome_digest,
    quantile,
)
from tracing import Tracer, clock

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

WORKLOADS = ("txn-wide", "adapt-shift", "log-repair", "plan-select")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    return parser.parse_args(argv)


def load_kernel():
    """Import the kernel from this checkout's src/, or exit with an error."""
    if not (SRC / "frpkernel" / "__init__.py").is_file():
        sys.exit(f"error: no kernel sources under {SRC}")
    # one process, at most two threads: no native thread pools
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    import frpkernel

    if Path(frpkernel.__file__).resolve().parent != SRC / "frpkernel":
        sys.exit(f"error: frpkernel imported from {frpkernel.__file__}, not {SRC}")


def workload_functions(name: str):
    # imported only once load_kernel has put the kernel on the path
    import wl_engine
    import wl_log
    import wl_plan

    return {
        "txn-wide": (wl_engine.setup_wide, wl_engine.round_wide),
        "adapt-shift": (wl_engine.setup_adapt, wl_engine.round_adapt),
        "log-repair": (wl_log.setup_log, wl_log.round_log),
        "plan-select": (wl_plan.setup_plan, wl_plan.round_plan),
    }[name]


# The host's speed drifts by 10-30% over stretches of seconds to minutes, so
# the same code times differently from one run to the next. A fixed
# pure-Python kernel (dict updates keyed by strings, a sort of tuples: the
# kind of work the kernel's layers do) is timed after every round, on the
# same CPU, and measures how fast the host was. End-to-end times are scaled
# to a reference host on which that kernel takes REF_CAL_S, about its best
# time on the 2-vCPU host the bounds were set on: best times by REF_CAL_S
# over the kernel's best time, the median set-up time by REF_CAL_S over the
# kernel's median time.
REF_CAL_S = 1.5e-3
CAL_REPEATS = 10
CAL_KEYS = [f"k{i}" for i in range(300)]


def calibration_kernel() -> tuple:
    counts: dict[str, int] = {}
    for r in range(12):
        for i, key in enumerate(CAL_KEYS):
            counts[key] = counts.get(key, 0) + (i * r) % 7
        ranked = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    return ranked[0]


def calibrate(cal_s: list) -> None:
    """Time the calibration kernel CAL_REPEATS times into `cal_s`."""
    for _ in range(CAL_REPEATS):
        t0 = clock()
        calibration_kernel()
        cal_s.append(clock() - t0)


def measure(name: str, seed: int, seconds: float, trace: bool) -> dict:
    setup, run_round = workload_functions(name)
    setup_s = []

    def timed_setup():
        gc.collect()
        t0 = clock()
        inputs = setup(seed)
        setup_s.append(clock() - t0)
        return inputs

    inputs = timed_setup()
    gc.collect()
    gc.freeze()     # keep the inputs out of every later collection

    plain: list = []
    traced: list = []
    first_outcome = None
    cal_s: list = []
    cpus = sorted(os.sched_getaffinity(0))
    deadline = clock() + seconds
    while True:
        # set-up is repeated before every round, so that its median spans
        # the same stretch of host load as the rounds do
        timed_setup()
        tracer = Tracer() if trace and len(plain) > len(traced) else None
        # Rounds of each kind take turns on the CPUs this process may use.
        # On a shared host one CPU can stay slowed by its neighbours for
        # minutes; taking turns lets each call's best time come from a CPU
        # that was quiet at some point in the run.
        turn = len(plain) if tracer is None else len(traced)
        os.sched_setaffinity(0, {cpus[turn % len(cpus)]})
        rec = RoundRecord()
        gc.collect()
        outcome = run_round(inputs, rec, tracer)
        if first_outcome is None:
            first_outcome = outcome
        rec.check(outcome == first_outcome)     # rounds replay identically
        calibrate(cal_s)
        if tracer is None:
            plain.append(rec)
        else:
            traced.append((rec, tracer))
        if clock() >= deadline and (traced or not trace):
            break
    os.sched_setaffinity(0, cpus)

    if trace:
        metrics = layer_metrics(traced, plain, min(cal_s))
    else:
        metrics = end_to_end_metrics(plain, setup_s, cal_s)
    records = plain + [rec for rec, _ in traced]
    return {
        "correct": all(rec.failed == 0 for rec in records),
        "attempted": sum(rec.attempted for rec in records),
        "failed": sum(rec.failed for rec in records),
        "metrics": metrics,
    }


def end_to_end_metrics(rounds: list, setup_s: list, cal_s: list) -> dict:
    scale = REF_CAL_S / min(cal_s)      # wall seconds to ref seconds
    best = [(secs * scale, units, primary) for secs, units, primary in best_segments(rounds)]
    latency = [secs for secs, _, primary in best if primary]
    values = {
        "setup_s": statistics.median(setup_s) * REF_CAL_S / statistics.median(cal_s),
        "throughput_per_s": (sum(units for _, units, _ in best)
                             / sum(secs for secs, units, _ in best if units)),
        "latency_ms_p50": quantile(latency, 0.5) * 1e3,
        "latency_ms_p90": quantile(latency, 0.9) * 1e3,
        "round_ms": sum(secs for secs, _, _ in best) * 1e3,
    }
    return {k: {"value": values[k], "unit": END_TO_END[k]} for k in END_TO_END}


def layer_metrics(traced: list, plain: list, cal_best_s: float) -> dict:
    per_round = [layer_values(tracer, rec.counts) for rec, tracer in traced]
    first = per_round[0]
    for (rec, _), values in zip(traced[1:], per_round[1:]):
        # deterministic outcomes must repeat exactly in every traced round
        rec.check(all(values[k] == first[k] for k in first if not is_time(k)))
    values = {k: (statistics.fmean(v[k] for v in per_round) if is_time(k) else first[k])
              for k in first}
    traced_s = sum(seg[0] for seg in best_segments([rec for rec, _ in traced]))
    plain_s = sum(seg[0] for seg in best_segments(plain))
    values["trace.round_s"] = statistics.fmean(rec.timed_s for rec, _ in traced)
    values["trace.overhead_ratio"] = traced_s / plain_s - 1.0
    values["trace.rounds"] = len(traced)
    values["trace.outcome_digest"] = outcome_digest(first)
    values["host.cal_ms"] = cal_best_s * 1e3
    print_span_summary(traced)
    return {k: {"value": values[k], "unit": PER_LAYER[k]} for k in PER_LAYER}


def print_span_summary(traced: list) -> None:
    """Write the traced rounds' spans and timers out, summed, to stderr."""
    spans: dict[str, list] = {}
    timers: dict[str, list] = {}
    for _, tracer in traced:
        for name, agg in tracer.summary().items():
            cell = spans.setdefault(name, [0, 0.0, 0.0])
            cell[0] += agg.count
            cell[1] += agg.total_s
            cell[2] += agg.self_s
        for name, (calls, secs) in tracer.timers.items():
            cell = timers.setdefault(name, [0, 0.0])
            cell[0] += calls
            cell[1] += secs
    out = sys.stderr
    operations = sum(len(set(tracer.ops)) for _, tracer in traced)
    print(f"spans over {len(traced)} traced rounds, {operations} operations:", file=out)
    print(f"  {'name':32s} {'count':>9s} {'total_s':>10s} {'self_s':>10s}", file=out)
    for name in sorted(spans):
        count, total, self_s = spans[name]
        print(f"  {name:32s} {count:9d} {total:10.4f} {self_s:10.4f}", file=out)
    for name in sorted(timers):
        calls, secs = timers[name]
        print(f"  {name + ' (timer)':32s} {calls:9d} {secs:10.4f}", file=out)


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.seconds <= 0:
        sys.exit("error: --seconds must be positive")
    load_kernel()
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
