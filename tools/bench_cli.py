#!/usr/bin/env python3
"""Time every CLI scenario end to end, at default and at scaled settings.

Each of the six scenarios (`select`, `cc-sim`, `recover-demo`, `optd`,
`gate`, `full`) runs as its own `python -m frpkernel.harness.cli` process,
once with no config and once with a config that scales its work up about
sixteenfold (`SCALED`; `full` merges every block of it). The script prints one
JSON object with the fastest of `--repeats` wall times per setting, in
seconds, interpreter start-up included, since a user waits for that too.
`startup_s` is the fastest bare `import frpkernel.harness.cli` process, the
share of every wall time that no scenario's work accounts for; subtract it
to compare the work itself. The fastest of several runs filters out a noisy
host, as `timeit` does.

    PYTHONPATH=src python3 tools/bench_cli.py --seed 0 --repeats 5

To compare two checkouts, run the script against each one's `src/`, taking
turns, on the same seed.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from frpkernel.harness.config import BLOCK_OF, DEFAULTS

# per config block, the settings that scale its scenario's work; a default
# run costs a few ms beside ~0.3 s of interpreter start-up, a scaled one
# about 0.1-0.5 s on a 2-vCPU host (`gate` stays a single prediction)
SCALED = {
    "select": {"runs": 16},
    "cc_sim": {"phases": DEFAULTS["cc_sim"]["phases"] * 16},
    "recover_demo": {"windows": 48},
    "optd": {"episodes": 3200, "n_plans": 320},
    "gate": {"n_experts": 64, "hidden_dim": 256, "embed_dim": 64},
}
SCENARIOS = (*BLOCK_OF, "full")


def scaled_config(scenario: str) -> dict:
    if scenario == "full":
        return {"scenario": "full", **SCALED}
    block = BLOCK_OF[scenario]
    return {"scenario": scenario, block: SCALED[block]}


def best_wall_s(args: list[str], repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, *args], check=True, stdout=subprocess.DEVNULL)
        best = min(best, time.perf_counter() - t0)
    return best


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--repeats", type=int, default=5)
    args = parser.parse_args()

    cli = ["-m", "frpkernel.harness.cli"]
    table = {}
    with tempfile.TemporaryDirectory() as tmp:
        for scenario in SCENARIOS:
            config = Path(tmp, f"{scenario}.json")
            # YAML reads JSON, so the CLI loads this file like any config
            config.write_text(json.dumps(scaled_config(scenario)))
            common = ["--seed", str(args.seed), "--out", str(Path(tmp, "out"))]
            table[scenario] = {
                "default_s": round(best_wall_s([*cli, scenario, *common], args.repeats), 4),
                "scaled_s": round(best_wall_s([*cli, scenario, "--config", str(config),
                                               *common], args.repeats), 4),
            }
    startup = best_wall_s(["-c", "import frpkernel.harness.cli"], args.repeats)
    print(json.dumps({"seed": args.seed, "repeats": args.repeats,
                      "startup_s": round(startup, 4), "scenarios": table}, indent=1))


if __name__ == "__main__":
    main()
