"""Scenario configuration: YAML loading, defaults, and strict validation.

Every config key has one Rule in the table below holding its default, its
type, its range and whether null is allowed, and one function, _check, applies
them. A user block is merged over its defaults key by key through those rules,
then the cross-key checks run once on the merged block: catalog names and
repeated pairs for `optd`; the schema file, the schema, the predicate and
the net file for `gate`. Every configuration error is therefore a
ConfigError raised before a run starts, so a bad config can never leave
partial side effects behind.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass
from typing import NamedTuple

import yaml

from ..gate import GatingNet, Schema, encode_query, parse_predicates

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
_POSITIVE = Rule(REQUIRED, float, "> 0")
_PAIR = Rule(REQUIRED, list, "[2, 2]", item=_NAME)

_WORKLOAD = {
    "key_space": Rule(16, int, ">= 1"),
    "zipf_theta": Rule(0.0, float),
    "write_frac": Rule(0.2, float, "[0, 1]"),
    "txn_len": Rule(3, int, ">= 1"),
    "arrival_rate": Rule(3.0, float, ">= 0"),
}

_GATE_SCHEMA = _mapping({"attributes": Rule(REQUIRED, list, ">= 1", item=_mapping({
    "name": _NAME,
    "kind": Rule(REQUIRED, str, ("categorical", "numeric")),
    "vocabulary": Rule([], list, item=_NAME),
    "bucket_edges": Rule([], list, item=Rule(REQUIRED, float)),
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
    "select": _mapping({
        "budget": Rule(200.0, float, "> 0"),
        "filter_fraction": Rule(0.2, float, "(0, 1)"),
        "eta": Rule(2, int, ">= 2"),
        "space_dims": Rule([4, 4, 4, 4], list, ">= 1", item=Rule(REQUIRED, int, ">= 1")),
        "rho": Rule(0.9, float, "[0, 1]"),
        "sigma": Rule(0.1, float, ">= 0"),
        "score_cost": Rule(1.0, float, "> 0"),
        "epoch_cost": Rule(1.0, float, "> 0"),
        "initial_epochs": Rule(1, int, ">= 1"),
        "tau_min": Rule(2.0, float, "> 0"),
        "tau_max": Rule(8.0, float, "> 0"),
        "trainer_noise": Rule(0.05, float, ">= 0"),
        "oracle": Rule(True, bool),
        "runs": Rule(1, int, ">= 1"),
    }),
    "cc_sim": _mapping({
        "window_ticks": Rule(40, int, ">= 1"),
        "workers": Rule(4, int, ">= 1"),
        "hot_keys": Rule(3, int, ">= 0"),
        "lock_overhead": Rule(1, int, ">= 0"),
        "abort_cost": Rule(4, int, ">= 0"),
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
            name: Rule(0.5, float, ">= 0", nullable=True) for name in
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
    "recover_demo": _mapping({
        "anchor_every": Rule(4, int, ">= 1"),
        "windows": Rule(3, int, ">= 1"),
        "window_ticks": Rule(30, int, ">= 1"),
        "workers": Rule(4, int, ">= 1"),
        "tamper_keys": Rule(3, int, ">= 0"),
        "workload": _mapping(dict(
            _WORKLOAD, write_frac=_WORKLOAD["write_frac"]._replace(default=0.6))),
    }),
    "optd": _mapping({
        "episodes": Rule(200, int, ">= 0"),
        "n_plans": Rule(20, int, ">= 0"),
        "factors": Rule([0.1, 0.5, 1.0, 2.0, 10.0], list, ">= 1", item=_POSITIVE),
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
                {"true_rows": _POSITIVE, "est_rows": _POSITIVE})),
            "selectivities": Rule([], list, item=_mapping(
                {"relations": _PAIR, "true": _POSITIVE, "est": _POSITIVE})),
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
    "gate": _mapping({
        "schema": _GATE_SCHEMA,
        "schema_file": Rule(None, str, nullable=True),
        "net_file": Rule(None, str, nullable=True),
        "n_experts": Rule(6, int, ">= 1"),
        "k_max": Rule(2, int, ">= 1"),
        "threshold": Rule(0.05, float, ">= 0"),
        "embed_dim": Rule(8, int, ">= 1"),
        "hidden_dim": Rule(16, int, ">= 1"),
        "predicate": Rule("gender = Male AND age = 24", str),
        "features": Rule([1.0, -0.5, 2.0, 0.25], list, item=Rule(REQUIRED, float)),
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
    if block == "optd":
        _check_optd(params)
    elif block == "gate":
        _check_gate(params)
    return params


def _check_optd(params: dict) -> None:
    _require(1.0 in params["factors"], "optd.factors must include 1")
    rels = params["query"]["relations"]
    _require(len(set(rels)) == len(rels), "optd.query.relations must not repeat a name")
    seen = set()
    for join in params["query"]["joins"]:
        _require(set(join) <= set(rels), f"join {join} must name two query relations")
        _require(join[0] != join[1], f"join {join} must not join a relation to itself")
        _require(frozenset(join) not in seen,
                 f"join {join} must not repeat a join, in either order")
        seen.add(frozenset(join))
    crels = params["catalog"]["relations"]
    for rel in rels:
        _require(rel in crels, f"query relation {rel!r} missing from catalog")
    seen = set()
    for entry in params["catalog"]["selectivities"]:
        pair = entry["relations"]
        _require(set(pair) <= set(crels),
                 f"selectivity {pair} names a relation missing from catalog")
        _require(pair[0] != pair[1], f"selectivity {pair} must not join a relation to itself")
        _require(frozenset(pair) not in seen,
                 f"selectivity {pair} must not repeat a pair, in either order")
        seen.add(frozenset(pair))


def _check_gate(params: dict) -> None:
    """Build what run_gate builds, so that a bad schema file, schema,
    predicate or net file is a ConfigError. The schema file's contents
    replace `schema`, checked by the same rules."""
    if params["schema_file"] is not None:
        params["schema"] = _check(_GATE_SCHEMA, _load_yaml(params["schema_file"], "schema"),
                                  "gate.schema_file")
    try:
        schema = Schema.from_dict(params["schema"])
    except ValueError as exc:
        raise ConfigError(f"bad schema: {exc}") from None
    try:
        encode_query(parse_predicates(params["predicate"]), schema)
    except ValueError as exc:   # UnsupportedQuery
        raise ConfigError(f"bad predicate: {exc}") from None
    if params["net_file"] is not None:
        try:
            fits = GatingNet.load(params["net_file"]).fits(schema)
        except Exception as exc:   # a file from outside: any failure to read it
            raise ConfigError(f"cannot load net file {params['net_file']}: {exc}") from None
        _require(fits, "net file does not match the schema's width or token count")


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise ConfigError(message)
