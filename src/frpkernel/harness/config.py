"""Scenario configuration: YAML loading, defaults, and strict validation.

Every parameter is checked before a run starts; unknown keys and malformed
structures fail fast with ConfigError so a bad config can never leave partial
side effects behind.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass

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


DEFAULT_WORKLOAD = {
    "key_space": 16,
    "zipf_theta": 0.0,
    "write_frac": 0.2,
    "txn_len": 3,
    "arrival_rate": 3.0,
}

DEFAULTS = {
    "select": {
        "budget": 200.0,
        "filter_fraction": 0.2,
        "eta": 2,
        "workers": 1,
        "space_dims": [4, 4, 4, 4],
        "rho": 0.9,
        "sigma": 0.1,
        "score_cost": 1.0,
        "epoch_cost": 1.0,
        "initial_epochs": 1,
        "tau_min": 2.0,
        "tau_max": 8.0,
        "trainer_noise": 0.05,
        "oracle": True,
        "runs": 1,
        "buffer_capacity": 8,
    },
    "cc_sim": {
        "window_ticks": 40,
        "workers": 4,
        "hot_keys": 3,
        "lock_overhead": 1,
        "abort_cost": 4,
        "buckets": 2,
        "contention_max": 1.0,
        "wait_max": 5.0,
        "abort_penalty": 0.1,
        "pop_size": 8,
        "mutate_cells": 1,
        "refine_rounds": 1,
        "probe_ticks": 120,
        "cooldown_windows": 2,
        "initial_strategy": "prescribed",
        "thresholds": {
            "throughput": 0.5,
            "avg_lock_wait": 0.5,
            "abort_rate": 0.5,
            "contention_index": 0.5,
        },
        "phases": [
            {"windows": 2,
             "workload": {"key_space": 24, "zipf_theta": 0.0,
                          "write_frac": 0.0, "txn_len": 3, "arrival_rate": 3.0}},
            {"windows": 3,
             "workload": {"key_space": 6, "zipf_theta": 0.99,
                          "write_frac": 0.8, "txn_len": 3, "arrival_rate": 3.0}},
        ],
    },
    "recover_demo": {
        "anchor_every": 4,
        "windows": 3,
        "window_ticks": 30,
        "workers": 4,
        "tamper_keys": 3,
        "workload": dict(DEFAULT_WORKLOAD, write_frac=0.6),
    },
    "optd": {
        "episodes": 200,
        "n_plans": 20,
        "factors": [0.1, 0.5, 1.0, 2.0, 10.0],
        "explore_weight": 2.0,
        "latency_noise": 0.05,
        "query": {
            "relations": ["A", "B", "C", "D"],
            "joins": [["A", "B"], ["B", "C"], ["C", "D"]],
        },
        "catalog": {
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
        },
    },
    "gate": {
        "schema": {
            "attributes": [
                {"name": "gender", "kind": "categorical",
                 "vocabulary": ["Male", "Female"]},
                {"name": "age", "kind": "numeric",
                 "bucket_edges": [18.0, 30.0, 45.0, 65.0]},
                {"name": "region", "kind": "categorical",
                 "vocabulary": ["north", "south", "east", "west"]},
            ],
        },
        "schema_file": None,
        "net_file": None,
        "n_experts": 6,
        "k_max": 2,
        "threshold": 0.05,
        "embed_dim": 8,
        "hidden_dim": 16,
        "predicate": "gender = Male AND age = 24",
        "features": [1.0, -0.5, 2.0, 0.25],
    },
}

# mappings merged key by key into their default rather than replacing it
_NESTED_KEYS = {"workload", "thresholds"}


def load_config_file(path) -> dict:
    try:
        with open(path) as fh:
            data = yaml.safe_load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except yaml.YAMLError as exc:
        raise ConfigError(f"config is not valid YAML: {exc}") from None
    if data is None:
        data = {}
    if not isinstance(data, dict):
        raise ConfigError("config root must be a mapping")
    return data


@dataclass
class ScenarioConfig:
    scenario: str
    seed: int
    params: dict          # merged block for this scenario
    full_params: dict     # scenario -> merged block (only for `full`)


def build_scenario_config(scenario: str, raw: dict | None,
                          seed: int | None = None,
                          overrides: dict | None = None) -> ScenarioConfig:
    if scenario not in SCENARIOS:
        raise ConfigError(f"unknown scenario {scenario!r}")
    raw = dict(raw or {})
    declared = raw.pop("scenario", scenario)
    if declared != scenario:
        raise ConfigError(
            f"config declares scenario {declared!r} but {scenario!r} was requested")
    cfg_seed = raw.pop("seed", 0)
    raw.pop("out", None)
    if seed is not None:
        cfg_seed = seed
    if not isinstance(cfg_seed, int):
        raise ConfigError("seed must be an integer")

    known_blocks = set(BLOCK_OF.values())
    for key in raw:
        if key not in known_blocks:
            raise ConfigError(f"unknown top-level key {key!r}")

    if scenario == "full":
        full = {block: _merged_block(block, raw.get(block))
                for block in BLOCK_OF.values()}
        return ScenarioConfig(scenario, cfg_seed, {}, full)

    block = BLOCK_OF[scenario]
    params = _merged_block(block, raw.get(block))
    if overrides:
        for key, value in overrides.items():
            if value is None:
                continue
            if key not in params:
                raise ConfigError(f"unknown parameter {key!r} for {scenario}")
            params[key] = value
    _validate_block(block, params)
    return ScenarioConfig(scenario, cfg_seed, params, {})


def _merged_block(block: str, user: dict | None) -> dict:
    merged = _typed_merge(block, DEFAULTS[block], {} if user is None else user)
    if block == "cc_sim":
        merged["phases"] = _merged_phases(merged["phases"])
    _validate_block(block, merged)
    return merged


def _typed_merge(where: str, defaults: dict, user, nullable: bool = False) -> dict:
    """A copy of `defaults` overlaid with `user`, each value checked against
    the type of its default. Lists and other mappings replace their default
    whole and are checked by _validate_block; the _NESTED_KEYS mappings are
    merged the same way, one level down. None is accepted only where the
    default is None, or anywhere in a `nullable` mapping."""
    if not isinstance(user, dict):
        raise ConfigError(f"{where} must be a mapping")
    merged = copy.deepcopy(defaults)
    for key, value in user.items():
        name = f"{where}.{key}"
        if key not in merged:
            raise ConfigError(f"unknown key {name}")
        default = merged[key]
        if key in _NESTED_KEYS:
            merged[key] = _typed_merge(name, default, value,
                                       nullable=key == "thresholds")
        elif default is None or (value is None and nullable):
            merged[key] = value
        elif isinstance(default, bool):
            if not isinstance(value, bool):
                raise ConfigError(f"{name} must be a boolean")
            merged[key] = value
        elif isinstance(default, int):
            if not isinstance(value, int) or isinstance(value, bool):
                raise ConfigError(f"{name} must be an integer")
            merged[key] = value
        elif isinstance(default, float):
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                raise ConfigError(f"{name} must be a number")
            merged[key] = float(value)
        elif isinstance(default, str):
            if not isinstance(value, str):
                raise ConfigError(f"{name} must be a string")
            merged[key] = value
        else:
            merged[key] = value
    return merged


def _merged_phases(phases) -> list:
    """cc_sim phases with each phase's workload merged into DEFAULT_WORKLOAD."""
    _require(isinstance(phases, list), "phases must be a list")
    merged = []
    for i, phase in enumerate(phases):
        _require(isinstance(phase, dict) and set(phase) <= {"windows", "workload"},
                 f"phase {i} must map windows/workload")
        workload = _typed_merge(f"cc_sim.phases[{i}].workload", DEFAULT_WORKLOAD,
                                phase.get("workload", {}))
        merged.append(dict(phase, workload=workload))
    return merged


def _validate_block(block: str, params: dict) -> None:
    try:
        if block == "select":
            _positive(params, "budget", "score_cost", "epoch_cost",
                      "tau_min", "tau_max")
            _require(params["eta"] >= 2, "eta must be >= 2")
            _require(0.0 < params["filter_fraction"] < 1.0,
                     "filter_fraction must be in (0, 1)")
            _require(params["workers"] >= 1, "workers must be >= 1")
            _require(params["runs"] >= 1, "runs must be >= 1")
            dims = params["space_dims"]
            _require(isinstance(dims, list) and dims
                     and all(isinstance(d, int) and d >= 1 for d in dims),
                     "space_dims must be a list of positive integers")
            _require(0.0 <= params["rho"] <= 1.0, "rho must be in [0, 1]")
            _require(params["sigma"] >= 0.0, "sigma must be >= 0")
            _require(params["buffer_capacity"] >= 1, "buffer_capacity must be >= 1")
        elif block == "cc_sim":
            _positive(params, "window_ticks", "probe_ticks", "wait_max",
                      "contention_max")
            _require(params["workers"] >= 1, "workers must be >= 1")
            _require(params["hot_keys"] >= 0, "hot_keys must be >= 0")
            _require(params["lock_overhead"] >= 0, "lock_overhead must be >= 0")
            _require(params["abort_cost"] >= 0, "abort_cost must be >= 0")
            _require(params["pop_size"] >= 2, "pop_size must be >= 2")
            _require(params["refine_rounds"] >= 0, "refine_rounds must be >= 0")
            _require(params["cooldown_windows"] >= 0, "cooldown_windows must be >= 0")
            _require(params["buckets"] >= 1, "buckets must be >= 1")
            _require(params["initial_strategy"] in
                     ("prescribed", "all_lock", "all_optimistic"),
                     "initial_strategy must be prescribed|all_lock|all_optimistic")
            for i, phase in enumerate(params["phases"]):
                _require(isinstance(phase.get("windows"), int)
                         and phase["windows"] >= 0,
                         f"phase {i} windows must be an integer >= 0")
                _check_workload(phase["workload"], f"phase {i}")
        elif block == "recover_demo":
            _require(params["anchor_every"] >= 1, "anchor_every must be >= 1")
            _require(params["windows"] >= 1, "windows must be >= 1")
            _require(params["workers"] >= 1, "workers must be >= 1")
            _require(params["tamper_keys"] >= 0, "tamper_keys must be >= 0")
            _check_workload(params["workload"], "workload")
        elif block == "optd":
            _require(params["episodes"] >= 0, "episodes must be >= 0")
            _require(params["n_plans"] >= 0, "n_plans must be >= 0")
            factors = params["factors"]
            _require(isinstance(factors, list) and factors
                     and all(isinstance(f, (int, float)) and f > 0 for f in factors)
                     and any(float(f) == 1.0 for f in factors),
                     "factors must be positive numbers including 1")
            _check_optd_structures(params)
        elif block == "gate":
            _require(params["n_experts"] >= 1, "n_experts must be >= 1")
            _require(params["k_max"] >= 1, "k_max must be >= 1")
            _require(params["threshold"] >= 0.0, "threshold must be >= 0")
            features = params["features"]
            _require(isinstance(features, list)
                     and all(isinstance(f, (int, float)) for f in features),
                     "features must be a list of numbers")
    except KeyError as exc:
        raise ConfigError(f"missing key {exc} in block {block!r}") from None


def _check_workload(workload: dict, where: str) -> None:
    """Range checks on a workload that _typed_merge already completed."""
    _require(workload["key_space"] >= 1, f"{where}: key_space must be >= 1")
    _require(workload["txn_len"] >= 1, f"{where}: txn_len must be >= 1")
    _require(workload["arrival_rate"] >= 0, f"{where}: arrival_rate must be >= 0")
    _require(0.0 <= workload["write_frac"] <= 1.0,
             f"{where}: write_frac must be in [0, 1]")


def _check_optd_structures(params: dict) -> None:
    query = params["query"]
    _require(isinstance(query, dict) and set(query) <= {"relations", "joins"},
             "query must map relations/joins")
    rels = query.get("relations")
    _require(isinstance(rels, list) and rels
             and all(isinstance(r, str) for r in rels),
             "query.relations must be a list of names")
    _require(len(set(rels)) == len(rels), "query.relations must not repeat a name")
    for join in query.get("joins", []):
        _require(isinstance(join, list) and len(join) == 2
                 and all(j in rels for j in join),
                 f"join {join} must name two query relations")
    catalog = params["catalog"]
    _require(isinstance(catalog, dict)
             and set(catalog) <= {"relations", "selectivities"},
             "catalog must map relations/selectivities")
    crels = catalog.get("relations", {})
    _require(isinstance(crels, dict), "catalog.relations must be a mapping")
    for name, stats in crels.items():
        _require(isinstance(stats, dict)
                 and set(stats) == {"true_rows", "est_rows"}
                 and all(isinstance(v, (int, float)) and v > 0
                         for v in stats.values()),
                 f"catalog relation {name!r} needs positive true_rows/est_rows")
    for rel in rels:
        _require(rel in crels, f"query relation {rel!r} missing from catalog")
    for entry in catalog.get("selectivities", []):
        _require(isinstance(entry, dict)
                 and set(entry) == {"relations", "true", "est"}
                 and isinstance(entry["relations"], list)
                 and len(entry["relations"]) == 2
                 and all(r in crels for r in entry["relations"])
                 and all(isinstance(entry[k], (int, float)) and entry[k] > 0
                         for k in ("true", "est")),
                 f"bad selectivity entry {entry!r}")


def _positive(params: dict, *keys) -> None:
    for key in keys:
        _require(params[key] > 0, f"{key} must be positive")


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise ConfigError(message)
