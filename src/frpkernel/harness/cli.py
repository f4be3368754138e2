"""Command-line entry point: `frp-kernel <scenario> [--config FILE] ...`.

Exit codes: 0 on success, 2 for usage and configuration errors, 3 for any
other failure, such as one inside a run. A config is checked by its rules
and then by building every object its run uses (`build_scenario`), and the
run gets those same objects, so every configuration error, a bad `--net`,
`--schema` or predicate and a budget too small to plan included, is found
before a run starts: `--validate-only` reports it with exit 2 and nothing
is written.
"""

from __future__ import annotations

import argparse
import json
import sys

from .config import ConfigError, build_scenario_config, load_config_file
from .drivers import build_scenario, run_scenario
from .metrics import summary_text


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="frp-kernel",
        description="Scenario harness for the filter-and-refine kernel components.",
    )
    sub = parser.add_subparsers(dest="scenario", required=True)

    def common(p):
        p.add_argument("--config", help="YAML scenario file")
        p.add_argument("--seed", type=int, default=None,
                       help="master seed (overrides the config)")
        p.add_argument("--out", default="out", help="output directory")
        p.add_argument("--validate-only", action="store_true",
                       help="check the config and exit without running")

    p = sub.add_parser("select", help="budgeted model selection")
    common(p)
    p.add_argument("--budget", type=float, help="response-time budget T")
    p.add_argument("--phi", type=float, dest="filter_fraction",
                   help="fraction of the budget spent scoring")
    p.add_argument("--eta", type=int, help="halving factor")
    p.add_argument("--space-dims", type=_dims, dest="space_dims",
                   help="genome space, e.g. 4,4,4,4")
    p.add_argument("--rho", type=float, help="scorer correlation with quality")
    p.add_argument("--sigma", type=float, help="scorer noise scale")
    p.add_argument("--runs", type=int, help="number of selection runs")

    p = sub.add_parser("cc-sim", help="adaptive concurrency control simulation")
    common(p)

    p = sub.add_parser("recover-demo", help="tamper injection and log repair")
    common(p)
    p.add_argument("--anchor-every", type=int, dest="anchor_every",
                   help="full-content anchor interval n")
    p.add_argument("--tamper-keys", type=int, dest="tamper_keys",
                   help="how many keys to corrupt")

    p = sub.add_parser("optd", help="plan candidates and bandit selection")
    common(p)
    p.add_argument("--n-plans", type=int, dest="n_plans",
                   help="mutation iterations")
    p.add_argument("--grid", type=_floats, dest="factors",
                   help="factor grid, e.g. 0.1,0.5,1,2,10")
    p.add_argument("--episodes", type=int, help="bandit episodes")

    p = sub.add_parser("gate", help="predicate-gated sparse expert prediction")
    common(p)
    p.add_argument("--schema", dest="schema_file", help="schema YAML file")
    p.add_argument("--net", dest="net_file", help="gating net .npz file")
    p.add_argument("--predicate", help="e.g. 'gender = Male AND age = 24'")
    p.add_argument("--features", type=_floats, help="feature vector, e.g. 1,2,3")

    p = sub.add_parser("full", help="run every scenario and concatenate metrics")
    common(p)
    return parser


def _dims(text: str) -> list[int]:
    return [int(part) for part in text.split(",") if part]


def _floats(text: str) -> list[float]:
    return [float(part) for part in text.split(",") if part]


# the arguments every subcommand takes; each other argument overrides the
# config key named by its dest
COMMON = ("scenario", "config", "seed", "out", "validate_only")


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    overrides = {key: value for key, value in vars(args).items()
                 if key not in COMMON and value is not None}
    try:
        raw = load_config_file(args.config) if args.config else {}
        config = build_scenario_config(args.scenario, raw, seed=args.seed,
                                       overrides=overrides)
        built = build_scenario(config)
        if args.validate_only:
            print("config ok")
            return 0
        summary = run_scenario(config, built, args.out)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # any other failure: structured report, exit 3
        report = {"error": type(exc).__name__, "message": str(exc),
                  "scenario": args.scenario}
        print(json.dumps(report, sort_keys=True), file=sys.stderr)
        return 3

    if args.scenario == "gate":
        print(summary_text(summary))
    else:
        print(f"{args.scenario}: ok (metrics in {args.out})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
