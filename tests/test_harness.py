import hashlib
import threading
from pathlib import Path

import numpy as np
import pytest
import yaml

from frpkernel.gate import GatingNet, Schema
from frpkernel.harness.buffer import (
    BufferClosed,
    BufferTimeout,
    CircularBuffer,
    EndOfStream,
)
from frpkernel.harness.cli import main
from frpkernel.harness.config import (
    DEFAULT_WORKLOAD,
    DEFAULTS,
    ConfigError,
    build_scenario_config,
    load_config_file,
)
from frpkernel.harness.drivers import DRIVERS, build_scenario, run_scenario


# -- circular buffer ----------------------------------------------------------

def test_capacity_one_forces_strict_alternation():
    buf = CircularBuffer(1)
    buf.produce("a")
    with pytest.raises(BufferTimeout):
        buf.produce("b", timeout=0.05)
    assert buf.consume() == "a"
    buf.produce("b")
    assert buf.consume() == "b"


def test_fifo_order_preserved():
    buf = CircularBuffer(16)
    out = []
    for chunk_start in range(1, 101, 10):
        for i in range(chunk_start, chunk_start + 10):
            buf.produce(i)
        for _ in range(10):
            out.append(buf.consume())
    assert out == list(range(1, 101))


def test_consume_blocks_until_produced():
    buf = CircularBuffer(2)
    with pytest.raises(BufferTimeout):
        buf.consume(timeout=0.05)


def test_close_drains_then_signals_end_of_stream():
    buf = CircularBuffer(4)
    buf.produce(1)
    buf.produce(2)
    buf.close()
    assert buf.consume() == 1
    assert buf.consume() == 2
    with pytest.raises(EndOfStream):
        buf.consume()
    with pytest.raises(BufferClosed):
        buf.produce(3)


def test_producer_consumer_stress_no_loss_no_duplication():
    total = 10_000
    buf = CircularBuffer(7)
    received = []

    def producer():
        for i in range(total):
            buf.produce(i, timeout=10.0)
        buf.close()

    worker = threading.Thread(target=producer, daemon=True)
    worker.start()
    while True:
        try:
            item = buf.consume(timeout=10.0)
        except EndOfStream:
            break
        # this thread is the only consumer, so total_consumed is stable here
        assert 0 <= buf.total_produced - buf.total_consumed <= buf.capacity
        received.append(item)
    worker.join(timeout=10.0)
    assert not worker.is_alive()
    assert received == list(range(total))
    assert buf.total_produced == buf.total_consumed == total


# -- config validation ----------------------------------------------------------

def test_defaults_build_for_every_scenario():
    for scenario in ("select", "cc-sim", "recover-demo", "optd", "gate", "full"):
        cfg = build_scenario_config(scenario, {})
        assert cfg.scenario == scenario


def test_unknown_top_level_key_rejected():
    with pytest.raises(ConfigError):
        build_scenario_config("select", {"selec": {}})


def test_unknown_block_key_rejected():
    # workers and buffer_capacity were select keys once; they are unknown now
    for key in ("budge", "workers", "buffer_capacity"):
        with pytest.raises(ConfigError, match=f"unknown key select.{key}"):
            build_scenario_config("select", {"select": {key: 10}})


def test_type_errors_rejected(tmp_path):
    with pytest.raises(ConfigError):
        build_scenario_config("select", {"select": {"eta": "two"}})
    with pytest.raises(ConfigError):
        build_scenario_config("select", {"select": {"budget": "lots"}})
    with pytest.raises(ConfigError):
        build_scenario_config("cc-sim", {"cc_sim": {"phases": "nope"}})
    # nested workload and thresholds values get the same checks
    for scenario, block in (
            ("cc-sim", {"cc_sim": {"phases": [
                {"windows": 1, "workload": {"key_space": "many"}}]}}),
            ("cc-sim", {"cc_sim": {"phases": [
                {"windows": 1, "workload": {"txn_len": 2.5}}]}}),
            ("cc-sim", {"cc_sim": {"phases": [{"windows": 1, "workload": None}]}}),
            ("cc-sim", {"cc_sim": {"thresholds": {"throughput": "high"}}}),
            ("cc-sim", {"cc_sim": {"thresholds": 0.5}}),
            ("cc-sim", {"cc_sim": {"workers": None}}),
            ("recover-demo", {"recover_demo": {"workload": {"write_frac": "lots"}}}),
            ("recover-demo", {"recover_demo": {"workload": {"zipf": 0.5}}}),
            # a bool is not a number, in a list or as the seed
            ("select", {"seed": True}),
            ("select", {"select": {"space_dims": [True, 2]}}),
            ("optd", {"optd": {"factors": [True, 1]}})):
        with pytest.raises(ConfigError):
            build_scenario_config(scenario, block)
    cfg = build_scenario_config("cc-sim", {"cc_sim": {
        "thresholds": {"throughput": None},
        "phases": [{"windows": 1, "workload": {"zipf_theta": 1}}]}})
    assert cfg.params["thresholds"] == dict(
        DEFAULTS["cc_sim"]["thresholds"], throughput=None)
    assert cfg.params["phases"] == [
        {"windows": 1, "workload": dict(DEFAULT_WORKLOAD, zipf_theta=1.0)}]
    bad = tmp_path / "bad.yaml"
    bad.write_text("recover_demo: {workload: {write_frac: lots}}\n")
    assert main(["recover-demo", "--config", str(bad), "--validate-only"]) == 2


def test_partial_workload_merges_into_block_default(tmp_path):
    # restating the default write_frac must not reset the other fields
    path = tmp_path / "restated.yaml"
    path.write_text("recover_demo: {workload: {write_frac: 0.6}}\n")
    restated, default = tmp_path / "restated", tmp_path / "default"
    assert main(["recover-demo", "--config", str(path), "--out", str(restated)]) == 0
    assert main(["recover-demo", "--out", str(default)]) == 0
    for name in ("recover_demo_metrics.csv", "recover_demo_summary.json",
                 "redo_log.txt"):
        assert (restated / name).read_bytes() == (default / name).read_bytes()


def test_scenario_mismatch_rejected():
    with pytest.raises(ConfigError):
        build_scenario_config("select", {"scenario": "optd"})


def built(scenario, raw):
    """What a run of `scenario` under the config mapping `raw` would get."""
    return build_scenario(build_scenario_config(scenario, raw))


def test_value_range_checks():
    with pytest.raises(ConfigError):
        built("select", {"select": {"filter_fraction": 1.5}})
    with pytest.raises(ConfigError):
        built("cc-sim", {"cc_sim": {"pop_size": 1}})
    with pytest.raises(ConfigError):
        built("optd", {"optd": {"factors": [0.5, 2.0]}})
    with pytest.raises(ConfigError):
        built("cc-sim", {"cc_sim": {"thresholds": {"latency": 1.0}}})
    for key, value in (("workers", 0), ("hot_keys", -1), ("lock_overhead", -1),
                       ("abort_cost", -1), ("mutate_cells", -1)):
        with pytest.raises(ConfigError):
            built("cc-sim", {"cc_sim": {key: value}})
    built("cc-sim", {"cc_sim": {"hot_keys": 0, "lock_overhead": 0,
                                "abort_cost": 0, "mutate_cells": 0}})
    for scenario, block, key, value in (
            ("recover-demo", "recover_demo", "workers", 0),
            ("recover-demo", "recover_demo", "window_ticks", 0),
            ("select", "select", "initial_epochs", -3),
            ("optd", "optd", "latency_noise", 2.0),
            ("optd", "optd", "latency_noise", 1.0),
            ("gate", "gate", "embed_dim", 0),
            ("gate", "gate", "hidden_dim", -1),
            ("gate", "gate", "schema", {"attributes": []})):
        with pytest.raises(ConfigError):
            built(scenario, {block: {key: value}})
    built("optd", {"optd": {"latency_noise": 0.0}})


def test_flag_overrides_apply():
    cfg = build_scenario_config("select", {}, overrides={"budget": 42.0})
    assert cfg.params["budget"] == 42.0
    with pytest.raises(ConfigError):
        build_scenario_config("select", {}, overrides={"bogus": 1})


def test_optd_catalog_cross_checks():
    bad = {"optd": {"query": {"relations": ["A", "Z"], "joins": []}}}
    with pytest.raises(ConfigError):
        built("optd", bad)


# -- scenarios ---------------------------------------------------------------------

def test_empty_cc_sim_writes_header_only_csv(tmp_path):
    path = tmp_path / "empty.yaml"
    path.write_text("scenario: cc-sim\ncc_sim:\n  phases: []\n")
    code = main(["cc-sim", "--config", str(path), "--out", str(tmp_path),
                 "--seed", "1"])
    assert code == 0
    csv = (tmp_path / "cc_sim_metrics.csv").read_text()
    assert csv == "timestamp,scenario,metric,value\n"


def test_scenario_rerun_is_byte_identical(tmp_path):
    config = {
        "scenario": "cc-sim",
        "cc_sim": {
            "phases": [
                {"windows": 2, "workload": {"key_space": 8, "write_frac": 0.4}},
                {"windows": 2, "workload": {"zipf_theta": 0.9, "write_frac": 0.8}},
            ],
        },
    }
    path = tmp_path / "cc.yaml"
    path.write_text(yaml.safe_dump(config))
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["cc-sim", "--config", str(path), "--seed", "5",
                 "--out", str(out_a)]) == 0
    assert main(["cc-sim", "--config", str(path), "--seed", "5",
                 "--out", str(out_b)]) == 0
    for name in ("cc_sim_metrics.csv", "cc_sim_summary.json"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


# sha256 of each `frp-kernel full --seed 0` output file. A refactor must
# leave these bytes alone; a change that alters them on purpose updates the
# digests and says why in CHANGES.md.
FULL_SEED0_SHA256 = {
    "full_metrics.csv": "bcb1c5deaf9b7d33a0201646c0c2209962d3ba5f98f90da0f630bdb5a2b3a0cf",
    "full_summary.json": "e09af311d33a39f0bf89d23023f2ec851fc19d01fad69a540840d7610ba89d86",
    "redo_log.txt": "9cb59a6f8a9e26cb5e86dfe2f73d5cec6b8bf2a5172a9ef6afb56e544c7aacc1",
}


# the same for seeds 1 and 5, so a change confined to seed 0's draws shows too
FULL_SHA256 = {
    0: FULL_SEED0_SHA256,
    1: {
        "full_metrics.csv": "60d9d640f6ad32554da95f33ae9803329289d8f37a4ee84580c9ab756f653672",
        "full_summary.json": "b7311217e9b5fa2b3a968fd6e44ff42a1c9d7d410fee959c2bc00616982d9813",
        "redo_log.txt": "699824ec71a3b974fbd154f37ef68b76710bccec561827d889abbe5ec11d1c63",
    },
    5: {
        "full_metrics.csv": "95de3e2d22bc52a118a35da7c7013bc18a5c3bbaceb9b57e52aaa5f51ded4d20",
        "full_summary.json": "d23598d128c49be02e24261ada90c18df442a96789134fdb5056805e207bbd54",
        "redo_log.txt": "2aa1cc3906b309547c6a53ca09735af8a45ed3c6756bffb933f128a2483b3126",
    },
}


@pytest.mark.parametrize("seed", sorted(FULL_SHA256))
def test_full_outputs_match_pinned_digests(seed, tmp_path):
    assert main(["full", "--seed", str(seed), "--out", str(tmp_path)]) == 0
    digests = {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
               for path in tmp_path.iterdir()}
    assert digests == FULL_SHA256[seed]


def test_full_concatenates_individual_sections(tmp_path):
    seed = 11
    full_cfg = build_scenario_config("full", {}, seed=seed)
    run_scenario(full_cfg, build_scenario(full_cfg), tmp_path / "full")
    full_lines = (tmp_path / "full" / "full_metrics.csv").read_text().splitlines()

    concatenated = [full_lines[0]]
    for scenario in ("select", "cc-sim", "recover-demo", "optd", "gate"):
        cfg = build_scenario_config(scenario, {}, seed=seed)
        out = tmp_path / scenario
        run_scenario(cfg, build_scenario(cfg), out)
        stem = scenario.replace("-", "_")
        lines = (out / f"{stem}_metrics.csv").read_text().splitlines()
        concatenated.extend(lines[1:])
    assert full_lines == concatenated


def test_cli_exit_codes(tmp_path, monkeypatch):
    missing = tmp_path / "nope.yaml"
    assert main(["select", "--config", str(missing), "--out", str(tmp_path)]) == 2

    bad = tmp_path / "bad.yaml"
    bad.write_text("select: {budget: -3}\n")
    assert main(["select", "--config", str(bad), "--out", str(tmp_path)]) == 2

    # a budget that cannot plan is found by building the plan: config error
    assert main(["select", "--budget", "0.5", "--out", str(tmp_path / "b")]) == 2
    assert not (tmp_path / "b").exists()

    # a run that fails: runtime failure, and nothing is written
    def failing_run(params, seed, *built):
        raise RuntimeError("failed inside the run")

    monkeypatch.setitem(DRIVERS, "select", (DRIVERS["select"][0], failing_run))
    assert main(["select", "--out", str(tmp_path / "r")]) == 3
    assert not (tmp_path / "r").exists()

    # errors found by building the query or schema, or reading the schema
    # file, exit 2
    dup = tmp_path / "dup.yaml"
    dup.write_text("optd: {query: {relations: [A, A], joins: []}}\n")
    assert main(["optd", "--config", str(dup), "--out", str(tmp_path / "d")]) == 2
    weird = tmp_path / "weird.yaml"
    weird.write_text("gate: {schema: {attributes: [{name: a, kind: weird}]}}\n")
    assert main(["gate", "--config", str(weird), "--out", str(tmp_path / "w")]) == 2
    assert main(["gate", "--schema", str(tmp_path / "none.yaml"),
                 "--out", str(tmp_path / "s")]) == 2
    for name in ("d", "w", "s"):
        assert not (tmp_path / name).exists()

    for argv in (["no-such-scenario"], ["select", "--workers", "2"]):
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--out", str(tmp_path / "x")])
        assert exc.value.code == 2
    assert not (tmp_path / "x").exists()


NULL_SELECTIVITIES = """optd:
  catalog:
    relations:
      A: {true_rows: 1.0, est_rows: 1.0}
      B: {true_rows: 1.0, est_rows: 1.0}
      C: {true_rows: 1.0, est_rows: 1.0}
      D: {true_rows: 1.0, est_rows: 1.0}
    selectivities: null
"""

# The "true" keys are quoted: bare, YAML reads them as the boolean True, an
# unknown key that would fail the config before the check under test.
SELF_JOIN_SELECTIVITY = """optd:
  catalog:
    relations:
      A: {true_rows: 1.0, est_rows: 1.0}
      B: {true_rows: 1.0, est_rows: 1.0}
      C: {true_rows: 1.0, est_rows: 1.0}
      D: {true_rows: 1.0, est_rows: 1.0}
    selectivities: [{relations: [C, C], "true": 0.5, est: 0.5}]
"""

REPEATED_SELECTIVITY = """optd:
  catalog:
    relations:
      A: {true_rows: 1.0, est_rows: 1.0}
      B: {true_rows: 1.0, est_rows: 1.0}
      C: {true_rows: 1.0, est_rows: 1.0}
      D: {true_rows: 1.0, est_rows: 1.0}
    selectivities: [{relations: [A, B], "true": 0.5, est: 0.5},
                    {relations: [B, A], "true": 0.1, est: 0.1}]
"""

# the same with [A, B] given twice in one order
ORDERED_PAIR_TWICE = REPEATED_SELECTIVITY.replace("[B, A]", "[A, B]")

# the default query, with a selectivity on [A, D], which it does not join
UNJOINED_SELECTIVITY = """optd:
  catalog:
    relations:
      A: {true_rows: 1000.0, est_rows: 1000.0}
      B: {true_rows: 100.0, est_rows: 100.0}
      C: {true_rows: 100.0, est_rows: 100.0}
      D: {true_rows: 1000.0, est_rows: 1000.0}
    selectivities: [{relations: [A, B], "true": 0.01, est: 0.01},
                    {relations: [B, C], "true": 0.0001, est: 0.0001},
                    {relations: [C, D], "true": 0.01, est: 0.0001},
                    {relations: [A, D], "true": 1.0e-6, est: 1.0e-6}]
"""

NINE_RELATIONS = "optd:\n  query: {relations: [%s]}\n  catalog: {relations: {%s}}\n" % (
    ", ".join(f"R{i}" for i in range(9)),
    ", ".join(f"R{i}: {{true_rows: 10.0, est_rows: 10.0}}" for i in range(9)))

# (arguments, config file text or None, a fragment of the error message);
# {tmp} is the test's directory
CONFIG_ERRORS = {
    "missing net": (["gate", "--net", "{tmp}/none.npz"], None, "cannot load net file"),
    "net width": (["gate", "--net", "{tmp}/two_attrs.npz"], None,
                  "net file does not match the schema"),
    "empty net file": (["gate", "--net", "{tmp}/empty.npz"], None, "cannot load net file"),
    "net with k_max 0": (["gate", "--net", "{tmp}/k_max_0.npz"], None,
                         "k_max must be >= 1"),
    "bool windows": (["cc-sim"], "cc_sim: {phases: [{windows: true}]}",
                     "cc_sim.phases[0].windows must be an integer"),
    "unknown kind": (["gate"], "gate: {schema: {attributes: [{name: a, kind: weird}]}}",
                     "kind must be one of categorical|numeric"),
    "null schema": (["gate"], "gate: {schema: null}", "gate.schema must not be null"),
    "missing schema file": (["gate", "--schema", "{tmp}/none.yaml"], None,
                            "cannot read schema file"),
    "unparsable predicate": (["gate", "--predicate", "age = 24 = 30"], None,
                             "age expects a number"),
    "null joins": (["optd"], "optd: {query: {relations: [A, B], joins: null}}",
                   "optd.query.joins must not be null"),
    "null selectivities": (["optd"], NULL_SELECTIVITIES,
                           "optd.catalog.selectivities must not be null"),
    "self-join": (["optd"], "optd: {query: {relations: [A, B], joins: [[A, B], [B, B]]}}",
                  "joins a relation to itself"),
    "self-join selectivity": (["optd"], SELF_JOIN_SELECTIVITY, "joins a relation to itself"),
    "repeated join": (["optd"], "optd: {query: {relations: [A, B, C, D], "
                                "joins: [[A, B], [B, A], [B, C], [C, D]]}}",
                      "repeats an edge"),
    "repeated selectivity": (["optd"], REPEATED_SELECTIVITY, "repeats an edge"),
    "ordered selectivity pair twice": (["optd"], ORDERED_PAIR_TWICE, "repeats an edge"),
    "unjoined selectivity": (["optd"], UNJOINED_SELECTIVITY,
                             "the query does not join"),
    "nine relations": (["optd"], NINE_RELATIONS, "beyond 8 relations"),
    "negative threshold": (["cc-sim"], "cc_sim: {thresholds: {throughput: -1.0}}",
                           "throughput must be >= 0"),
    "no workers": (["cc-sim"], "cc_sim: {workers: 0}", "max_workers must be >= 1, got 0"),
    "empty key space": (["cc-sim"], "cc_sim: {phases: [{windows: 1, workload: {key_space: 0}}]}",
                        "cc_sim.phases[0].workload.key_space must be >= 1, got 0"),
    "empty key space, no windows": (["cc-sim"], "cc_sim: {phases: [{windows: 1}, {windows: 0, "
                                                "workload: {key_space: 0}}]}",
                                    "cc_sim.phases[1].workload.key_space must be >= 1, got 0"),
    "empty transactions": (["recover-demo"], "recover_demo: {workload: {txn_len: 0}}",
                           "recover_demo.workload.txn_len must be >= 1, got 0"),
    "budget too small to plan": (["select", "--budget", "0.5"], None,
                                 "filter budget cannot pay for one score"),
    "negative hidden_dim": (["gate"], "gate: {hidden_dim: -1}", "gate.hidden_dim must be >= 1"),
    "negative mutate_cells": (["cc-sim"], "cc_sim: {mutate_cells: -3}",
                              "cc_sim.mutate_cells must be >= 0"),
    "removed select.workers": (["select"], "select: {workers: 2}",
                               "unknown key select.workers"),
    "removed select.buffer_capacity": (["select"], "select: {buffer_capacity: 8}",
                                       "unknown key select.buffer_capacity"),
}


@pytest.mark.parametrize("case", sorted(CONFIG_ERRORS))
def test_config_errors_exit_2_before_running(case, tmp_path, capsys):
    args, text, fragment = CONFIG_ERRORS[case]
    args = [arg.format(tmp=tmp_path) for arg in args]
    if text is not None:
        (tmp_path / "c.yaml").write_text(text)
        args += ["--config", str(tmp_path / "c.yaml")]
    two_attrs = Schema.from_dict({"attributes": [
        {"name": "a", "kind": "numeric"}, {"name": "b", "kind": "numeric"}]})
    GatingNet.random(two_attrs, 3).save(tmp_path / "two_attrs.npz")
    (tmp_path / "empty.npz").write_bytes(b"")
    GatingNet.random(Schema.from_dict(DEFAULTS["gate"]["schema"]), 3).save(tmp_path / "net.npz")
    net = dict(np.load(tmp_path / "net.npz"), k_max=np.int64(0))
    np.savez(tmp_path / "k_max_0.npz", **net)
    out = tmp_path / "out"
    for extra in (["--validate-only"], []):
        assert main(args + extra + ["--out", str(out)]) == 2
        assert fragment in capsys.readouterr().err
    assert not out.exists()


def test_gate_net_file_loaded_once_per_run(tmp_path, monkeypatch):
    path = str(tmp_path / "net.npz")
    GatingNet.random(Schema.from_dict(DEFAULTS["gate"]["schema"]), 3).save(path)
    loads = []
    load = GatingNet.load

    def spy(file):
        loads.append(file)
        return load(file)

    monkeypatch.setattr(GatingNet, "load", spy)
    assert main(["gate", "--net", path, "--out", str(tmp_path / "out")]) == 0
    assert loads == [path]


def test_budget_whose_score_count_overflows_runs(tmp_path, capsys):
    # 0.2 * budget / score_cost is inf; the planner caps it at the space size
    path = tmp_path / "huge.yaml"
    path.write_text("select: {budget: 1.0e+308, score_cost: 1.0e-300}\n")
    assert main(["select", "--config", str(path), "--validate-only"]) == 0
    assert capsys.readouterr().out.strip() == "config ok"
    assert main(["select", "--config", str(path), "--out", str(tmp_path / "out")]) == 0
    assert (tmp_path / "out" / "select_summary.json").exists()


def test_validate_only_runs_nothing(tmp_path, capsys):
    out = tmp_path / "never"
    assert main(["optd", "--validate-only", "--out", str(out)]) == 0
    assert capsys.readouterr().out.strip() == "config ok"
    assert not out.exists()


CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


@pytest.mark.parametrize("path", sorted(CONFIG_DIR.glob("*.yaml")), ids=lambda p: p.name)
def test_shipped_config_validates(path, capsys):
    scenario = yaml.safe_load(path.read_text())["scenario"]
    assert main([scenario, "--config", str(path), "--validate-only"]) == 0
    assert capsys.readouterr().out.strip() == "config ok"
    # --seed overrides the config's own seed
    assert main([scenario, "--config", str(path), "--seed", "3", "--validate-only"]) == 0
    assert build_scenario_config(scenario, load_config_file(path), seed=3).seed == 3


# sha256 of each output file of the shipped configs, each run at its own
# seed. Same rule as FULL_SEED0_SHA256: a change that alters these bytes on
# purpose updates the digests and says why in CHANGES.md.
SHIPPED_CONFIG_SHA256 = {
    "cc_shift.yaml": {
        "cc_sim_metrics.csv": "9b6f3556fe57081de353a614b365bb068016f7fd8dcbc03589e6d9237ce83db9",
        "cc_sim_summary.json": "025af7383fb7008bf5a1158716a4910d9d23cb0033f50a42a30a4995c12761dc",
    },
    "optd_chain.yaml": {
        "optd_metrics.csv": "838045b73ac8c6519313ae5bc942641a1706d7880897b2c23538a68baadcf320",
        "optd_summary.json": "3e403f35b10c05fe58846f20db59e153f5b220c65a69efc0fbdedeedb5039a29",
    },
    "select_budgets.yaml": {
        "select_metrics.csv": "fd75636c2fa3a4114afafc37aa5e025ed39fc657f84cf55c8271b5419cac9a1b",
        "select_summary.json": "dc7169f874b4ad5a51f1c85a265aeb7fe0deea7bb515b120855297af15af9ab9",
    },
}


@pytest.mark.parametrize("name", sorted(SHIPPED_CONFIG_SHA256))
def test_shipped_config_outputs_match_pinned_digests(name, tmp_path):
    path = CONFIG_DIR / name
    scenario = yaml.safe_load(path.read_text())["scenario"]
    assert main([scenario, "--config", str(path), "--out", str(tmp_path)]) == 0
    digests = {out.name: hashlib.sha256(out.read_bytes()).hexdigest()
               for out in tmp_path.iterdir()}
    assert digests == SHIPPED_CONFIG_SHA256[name]


def test_gate_cli_prints_json(tmp_path, capsys):
    assert main(["gate", "--out", str(tmp_path), "--seed", "2",
                 "--predicate", "age = 24"]) == 0
    printed = capsys.readouterr().out
    import json

    data = json.loads(printed)
    assert data["dense_matches"] is True
    assert abs(sum(data["weights"]) - 1.0) < 1e-9


def test_gate_rejects_disjunction(tmp_path):
    assert main(["gate", "--out", str(tmp_path / "x"), "--seed", "2",
                 "--predicate", "age = 24 OR age = 30"]) == 2
    assert not (tmp_path / "x").exists()
