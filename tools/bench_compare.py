#!/usr/bin/env python3
"""Compare the end-to-end medians of two `BENCH_<n>.json` files.

Each file holds, per workload, `end_to_end.<workload>.metrics.<metric>` with
the change's median (`change_median`), which way is better (`better`:
`lower` or `higher`) and the allowed relative move the worse way (`bound`).
For every metric that both files hold, the script gives the ratio of NEW's
median to OLD's, and it lists each metric whose median moved the worse way
by more than its bound: `ratio - 1 > bound` where lower is better,
`1 - ratio > bound` where higher is better. It prints one JSON object.

    python3 tools/bench_compare.py BENCH_19.json BENCH_20.json

A file's medians come from its own pairs on its own host load, so a ratio
between two files says how the change side moved from one file to the
next, not what one change did: each file's parent/change pairs say that.
"""

from __future__ import annotations

import json
import sys


def compare(old: dict, new: dict) -> dict:
    workloads, worse = {}, []
    for name, new_workload in new["end_to_end"].items():
        old_workload = old["end_to_end"].get(name)
        if old_workload is None:
            continue
        rows = workloads[name] = {}
        for metric, new_row in new_workload["metrics"].items():
            old_row = old_workload["metrics"].get(metric)
            if old_row is None:
                continue
            ratio = new_row["change_median"] / old_row["change_median"]
            bound, better = new_row["bound"], new_row["better"]
            moved_worse = ratio - 1 if better == "lower" else 1 - ratio
            rows[metric] = {"old": old_row["change_median"],
                            "new": new_row["change_median"],
                            "ratio": round(ratio, 4), "better": better, "bound": bound}
            if moved_worse > bound:
                worse.append(f"{name}.{metric}")
    return {"workloads": workloads, "worse_beyond_bound": worse}


def main() -> None:
    if len(sys.argv) != 3:
        sys.exit(f"usage: {sys.argv[0]} OLD.json NEW.json")
    old_path, new_path = sys.argv[1:]
    with open(old_path) as f:
        old = json.load(f)
    with open(new_path) as f:
        new = json.load(f)
    print(json.dumps({"old": old_path, "new": new_path, **compare(old, new)}, indent=1))


if __name__ == "__main__":
    main()
