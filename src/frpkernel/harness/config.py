"""Scenario configuration: YAML loading, defaults, and strict validation.

Every config key has one Rule in the table below holding its default, its
type, whether null is allowed, and a range where no object the run builds
checks it; one function, _check, applies them. A user block is merged over
its defaults key by key through those rules, and a `gate` schema file
replaces the block's schema, checked by the same rules. The other bounds
(a workload's key space, an engine's worker count, a budget that cannot
pay for one score, a catalog that misses a query relation, a net file that
does not fit the schema, ...) are stated once, by the library objects the
run uses: `drivers.build_scenario` builds those objects before the run
starts and reports what they refuse as a ConfigError, so a bad config can
never leave partial side effects behind.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass
from typing import NamedTuple

import yaml

SCENARIOS = ("select", "cc-sim", "recover-demo", "optd", "gate", "full")

BLOCK_OF = {
    "select": "select",
    "cc-sim": "cc_sim",
    "recover-demo": "recover_demo",
    "optd": "optd",
    "gate": "gate",
}


class ConfigError(Exception):
    pass


REQUIRED = object()   # default of a key that has none and must be given


class Rule(NamedTuple):
    """One config key.

    `type` is bool, int, float (an int is widened, and the value must be
    finite), str, list or dict. `range` bounds a number, or a list's length,
    as ">= 1", "> 0", "[0, 1)" and the like; a tuple lists the strings
    allowed. A list checks every element against `item`. A dict with `fields`
    is merged key by key over the defaults of its fields; a dict without
    them has free keys and checks every value against `item`.
    """
    default: object
    type: type
    range: str | tuple = ""
    nullable: bool = False
    fields: dict | None = None
    item: Rule | None = None


def _defaults(fields: dict) -> dict:
    return {key: copy.deepcopy(rule.default) for key, rule in fields.items()
            if rule.default is not REQUIRED}


def _mapping(fields: dict, default=None) -> Rule:
    """A dict rule whose default is its fields' defaults unless given."""
    return Rule(_defaults(fields) if default is None else default, dict,
                fields=fields)


_NAME = Rule(REQUIRED, str)
_NUMBER = Rule(REQUIRED, float)
_PAIR = Rule(REQUIRED, list, "[2, 2]", item=_NAME)

# WorkloadSpec bounds each value
_WORKLOAD = {
    "key_space": Rule(16, int),
    "zipf_theta": Rule(0.0, float),
    "write_frac": Rule(0.2, float),
    "txn_len": Rule(3, int),
    "arrival_rate": Rule(3.0, float),
}

_GATE_SCHEMA = _mapping({"attributes": Rule(REQUIRED, list, ">= 1", item=_mapping({
    "name": _NAME,
    "kind": Rule(REQUIRED, str, ("categorical", "numeric")),
    "vocabulary": Rule([], list, item=_NAME),
    "bucket_edges": Rule([], list, item=_NUMBER),
}))}, default={
    "attributes": [
        {"name": "gender", "kind": "categorical",
         "vocabulary": ["Male", "Female"]},
        {"name": "age", "kind": "numeric",
         "bucket_edges": [18.0, 30.0, 45.0, 65.0]},
        {"name": "region", "kind": "categorical",
         "vocabulary": ["north", "south", "east", "west"]},
    ],
})

RULES = {
    # plan_budget bounds budget, filter_fraction, eta and the two costs, and
    # ModelSpace bounds space_dims
    "select": _mapping({
        "budget": Rule(200.0, float),
        "filter_fraction": Rule(0.2, float),
        "eta": Rule(2, int),
        "space_dims": Rule([4, 4, 4, 4], list, item=Rule(REQUIRED, int)),
        "rho": Rule(0.9, float, "[0, 1]"),
        "sigma": Rule(0.1, float, ">= 0"),
        "score_cost": Rule(1.0, float),
        "epoch_cost": Rule(1.0, float),
        "initial_epochs": Rule(1, int, ">= 1"),
        "tau_min": Rule(2.0, float, "> 0"),
        "tau_max": Rule(8.0, float, "> 0"),
        "trainer_noise": Rule(0.05, float, ">= 0"),
        "oracle": Rule(True, bool),
        "runs": Rule(1, int, ">= 1"),
    }),
    # Engine bounds workers, hot_keys, lock_overhead and abort_cost, and
    # ShiftThresholds the thresholds
    "cc_sim": _mapping({
        "window_ticks": Rule(40, int, ">= 1"),
        "workers": Rule(4, int),
        "hot_keys": Rule(3, int),
        "lock_overhead": Rule(1, int),
        "abort_cost": Rule(4, int),
        "buckets": Rule(2, int, ">= 1"),
        "contention_max": Rule(1.0, float, "> 0"),
        "wait_max": Rule(5.0, float, "> 0"),
        "abort_penalty": Rule(0.1, float),
        "pop_size": Rule(8, int, ">= 2"),
        "mutate_cells": Rule(1, int, ">= 0"),
        "refine_rounds": Rule(1, int, ">= 0"),
        "probe_ticks": Rule(120, int, ">= 1"),
        "cooldown_windows": Rule(2, int, ">= 0"),
        "initial_strategy": Rule("prescribed", str,
                                 ("prescribed", "all_lock", "all_optimistic")),
        "thresholds": _mapping({
            name: Rule(0.5, float, nullable=True) for name in
            ("throughput", "avg_lock_wait", "abort_rate", "contention_index")}),
        "phases": Rule([
            {"windows": 2,
             "workload": {"key_space": 24, "zipf_theta": 0.0,
                          "write_frac": 0.0, "txn_len": 3, "arrival_rate": 3.0}},
            {"windows": 3,
             "workload": {"key_space": 6, "zipf_theta": 0.99,
                          "write_frac": 0.8, "txn_len": 3, "arrival_rate": 3.0}},
        ], list, item=_mapping({"windows": Rule(REQUIRED, int, ">= 0"),
                                "workload": _mapping(_WORKLOAD)})),
    }),
    # RedoLog bounds anchor_every, and Engine workers
    "recover_demo": _mapping({
        "anchor_every": Rule(4, int),
        "windows": Rule(3, int, ">= 1"),
        "window_ticks": Rule(30, int, ">= 1"),
        "workers": Rule(4, int),
        "tamper_keys": Rule(3, int, ">= 0"),
        "workload": _mapping(dict(
            _WORKLOAD, write_frac=_WORKLOAD["write_frac"]._replace(default=0.6))),
    }),
    # MutationGrid bounds factors; Query the query, Catalog the catalog, and
    # estimate_vector whether the catalog covers the query
    "optd": _mapping({
        "episodes": Rule(200, int, ">= 0"),
        "n_plans": Rule(20, int, ">= 0"),
        "factors": Rule([0.1, 0.5, 1.0, 2.0, 10.0], list, item=_NUMBER),
        "explore_weight": Rule(2.0, float),
        "latency_noise": Rule(0.05, float, "[0, 1)"),
        "query": _mapping({
            "relations": Rule(REQUIRED, list, ">= 1", item=_NAME),
            "joins": Rule([], list, item=_PAIR),
        }, default={
            "relations": ["A", "B", "C", "D"],
            "joins": [["A", "B"], ["B", "C"], ["C", "D"]],
        }),
        "catalog": _mapping({
            "relations": Rule({}, dict, item=_mapping(
                {"true_rows": _NUMBER, "est_rows": _NUMBER})),
            "selectivities": Rule([], list, item=_mapping(
                {"relations": _PAIR, "true": _NUMBER, "est": _NUMBER})),
        }, default={
            "relations": {
                "A": {"true_rows": 1000.0, "est_rows": 1000.0},
                "B": {"true_rows": 100.0, "est_rows": 100.0},
                "C": {"true_rows": 100.0, "est_rows": 100.0},
                "D": {"true_rows": 1000.0, "est_rows": 1000.0},
            },
            "selectivities": [
                {"relations": ["A", "B"], "true": 0.01, "est": 0.01},
                {"relations": ["B", "C"], "true": 0.0001, "est": 0.0001},
                {"relations": ["C", "D"], "true": 0.01, "est": 0.0001},
            ],
        }),
    }),
    # Schema bounds the schema, the schema the predicate, and GatingNet k_max;
    # a net file must load and fit the schema
    "gate": _mapping({
        "schema": _GATE_SCHEMA,
        "schema_file": Rule(None, str, nullable=True),
        "net_file": Rule(None, str, nullable=True),
        "n_experts": Rule(6, int, ">= 1"),
        "k_max": Rule(2, int),
        "threshold": Rule(0.05, float, ">= 0"),
        "embed_dim": Rule(8, int, ">= 1"),
        "hidden_dim": Rule(16, int, ">= 1"),
        "predicate": Rule("gender = Male AND age = 24", str),
        "features": Rule([1.0, -0.5, 2.0, 0.25], list, item=_NUMBER),
    }),
}

DEFAULT_WORKLOAD = _defaults(_WORKLOAD)
DEFAULTS = {block: rule.default for block, rule in RULES.items()}

_TYPE_NAMES = {bool: "a boolean", int: "an integer", float: "a finite number",
               str: "a string", list: "a list", dict: "a mapping"}


def _check(rule: Rule, value, where: str, base: dict | None = None):
    """`value` checked against `rule`, as the run will see it: ints widened
    where a float is expected, and a mapping with fields merged over `base`,
    or over its fields' defaults when no base is given."""
    if value is None:
        _require(rule.nullable, f"{where} must not be null")
        return None
    kind = rule.type
    if kind is float and isinstance(value, int) and not isinstance(value, bool):
        value = float(value)
    _require(isinstance(value, kind) and (kind is bool or not isinstance(value, bool))
             and (kind is not float or math.isfinite(value)),
             f"{where} must be {_TYPE_NAMES[kind]}")
    if kind is dict:
        if rule.fields is None:
            return {key: _check(rule.item, item, f"{where}.{key}")
                    for key, item in value.items()}
        merged = copy.deepcopy(base) if base is not None else _defaults(rule.fields)
        for key, item in value.items():
            _require(key in rule.fields, f"unknown key {where}.{key}")
            merged[key] = _check(rule.fields[key], item, f"{where}.{key}")
        missing = [key for key in rule.fields if key not in merged]
        _require(not missing, f"{where} needs {', '.join(missing)}")
        return merged
    if isinstance(rule.range, tuple):
        _require(value in rule.range, f"{where} must be one of {'|'.join(rule.range)}")
    elif rule.range:
        measure = len(value) if kind is list else value
        _require(_in_range(measure, rule.range),
                 f"{where}{' length' if kind is list else ''} must be "
                 f"{'' if rule.range[0] == '>' else 'in '}{rule.range}")
    if kind is list:
        return [_check(rule.item, item, f"{where}[{i}]") for i, item in enumerate(value)]
    return value


def _in_range(value, spec: str) -> bool:
    if spec.startswith(">="):
        return value >= float(spec[2:])
    if spec.startswith(">"):
        return value > float(spec[1:])
    lo, hi = (float(bound) for bound in spec[1:-1].split(","))
    above = lo <= value if spec[0] == "[" else lo < value
    below = value <= hi if spec[-1] == "]" else value < hi
    return above and below


def load_config_file(path) -> dict:
    data = _load_yaml(path, "config")
    if data is None:
        data = {}
    if not isinstance(data, dict):
        raise ConfigError("config root must be a mapping")
    return data


def _load_yaml(path, what: str):
    try:
        with open(path) as fh:
            return yaml.safe_load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read {what} file {path}: {exc.strerror}") from None
    except (yaml.YAMLError, UnicodeDecodeError) as exc:
        raise ConfigError(f"{what} file {path} is not valid YAML: {exc}") from None


@dataclass
class ScenarioConfig:
    scenario: str
    seed: int
    params: dict          # merged block for this scenario
    full_params: dict     # scenario -> merged block (only for `full`)


def build_scenario_config(scenario: str, raw: dict | None,
                          seed: int | None = None,
                          overrides: dict | None = None) -> ScenarioConfig:
    """The checked config of `scenario`: `raw` (a config file's mapping)
    merged over the defaults, then `overrides` (flag values) over that."""
    if scenario not in SCENARIOS:
        raise ConfigError(f"unknown scenario {scenario!r}")
    raw = dict(raw or {})
    declared = raw.pop("scenario", scenario)
    if declared != scenario:
        raise ConfigError(
            f"config declares scenario {declared!r} but {scenario!r} was requested")
    cfg_seed = _check(Rule(0, int), raw.pop("seed", 0), "seed")
    if seed is not None:   # the flag overrides the config's seed
        cfg_seed = _check(Rule(0, int), seed, "--seed")
    raw.pop("out", None)

    known_blocks = set(BLOCK_OF.values())
    for key in raw:
        if key not in known_blocks:
            raise ConfigError(f"unknown top-level key {key!r}")

    if scenario == "full":
        full = {block: _merged_block(block, raw.get(block))
                for block in BLOCK_OF.values()}
        return ScenarioConfig(scenario, cfg_seed, {}, full)

    block = BLOCK_OF[scenario]
    return ScenarioConfig(scenario, cfg_seed,
                          _merged_block(block, raw.get(block), overrides), {})


def _merged_block(block: str, user: dict | None, overrides: dict | None = None) -> dict:
    params = _check(RULES[block], {} if user is None else user, block)
    if overrides:
        params = _check(RULES[block], overrides, block, base=params)
    if block == "gate" and params["schema_file"] is not None:
        # the file's contents replace `schema`, checked by the same rules
        params["schema"] = _check(_GATE_SCHEMA, _load_yaml(params["schema_file"], "schema"),
                                  "gate.schema_file")
    return params


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise ConfigError(message)
