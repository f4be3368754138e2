"""The scripts under tools/: the sweep driver and the BENCH file comparison."""

import importlib.util
import json
from pathlib import Path

import pytest

TOOLS = Path(__file__).resolve().parents[1] / "tools"


def load_tool(name: str):
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


bench_compare = load_tool("bench_compare")
bench_matrix = load_tool("bench_matrix")


def bench(**workloads) -> dict:
    """A minimal BENCH dict from `workload={metric: (median, better, bound)}`."""
    return {"end_to_end": {
        name: {"metrics": {metric: {"change_median": median, "better": better, "bound": bound}
                           for metric, (median, better, bound) in metrics.items()}}
        for name, metrics in workloads.items()}}


def test_compare_lists_metrics_moved_worse_beyond_bound():
    # 4.0 -> 5.0 and 4.0 -> 3.0 are moves of exactly 0.25, exact in binary
    old = bench(w={"lat_up": (4.0, "lower", 0.25), "lat_at_bound": (4.0, "lower", 0.25),
                   "lat_down": (4.0, "lower", 0.25), "tput_down": (4.0, "higher", 0.25),
                   "tput_at_bound": (4.0, "higher", 0.25), "tput_up": (4.0, "higher", 0.25)})
    new = bench(w={"lat_up": (5.5, "lower", 0.25), "lat_at_bound": (5.0, "lower", 0.25),
                   "lat_down": (1.0, "lower", 0.25), "tput_down": (2.5, "higher", 0.25),
                   "tput_at_bound": (3.0, "higher", 0.25), "tput_up": (9.0, "higher", 0.25)})
    out = bench_compare.compare(old, new)
    assert out["worse_beyond_bound"] == ["w.lat_up", "w.tput_down"]
    assert out["workloads"]["w"]["lat_up"] == {"old": 4.0, "new": 5.5, "ratio": 1.375,
                                               "better": "lower", "bound": 0.25}
    assert out["workloads"]["w"]["tput_at_bound"]["ratio"] == 0.75


def test_compare_skips_metrics_and_workloads_missing_from_old():
    old = bench(w={"lat": (4.0, "lower", 0.25), "gone": (1.0, "lower", 0.25)})
    new = bench(w={"lat": (4.0, "lower", 0.25), "added": (99.0, "lower", 0.25)},
                fresh={"lat": (99.0, "lower", 0.25)})
    out = bench_compare.compare(old, new)
    assert out == {"workloads": {"w": {"lat": {"old": 4.0, "new": 4.0, "ratio": 1.0,
                                               "better": "lower", "bound": 0.25}}},
                   "worse_beyond_bound": []}


def test_sweep_driver_runs_dp_and_engine_sections(capsys):
    bench_matrix.main(["dp", "engine", "--seed", "0", "--repeats", "1"])
    out = json.loads(capsys.readouterr().out)
    assert list(out) == ["dp", "engine"]

    dp = out["dp"]
    assert (dp["seed"], dp["repeats"], dp["n_plans"]) == (0, 1, 8)
    assert list(dp["relations"]) == [str(n) for n in range(2, 9)]
    for row in dp["relations"].values():
        assert list(row) == ["median_best_ms", "queries", "mean_candidates"]
        assert row["queries"] == 6 and row["median_best_ms"] > 0
        assert 1 <= row["mean_candidates"] <= 1 + dp["n_plans"]

    grid = out["engine"]["key_spaces"]
    assert out["engine"]["repeats"] == 1
    assert dp["cal_ms"] > 0 and out["engine"]["cal_ms"] > 0
    assert list(grid) == ["6", "24", "2000"]
    for row in grid.values():
        assert list(row) == ["1", "4", "16"]
        for cell in row.values():
            assert list(cell) == ["ops", "committed", "aborted", "ms", "ops_per_s"]
            assert cell["ops"] > 0 and cell["committed"] > 0 and cell["ms"] > 0


def test_sweep_driver_times_the_benchmark_calibration_kernel():
    # imported from the benchmark, not copied, so cal_ms means the same there
    assert bench_matrix.calibrate.__module__ == "run"
    assert Path(bench_matrix.calibrate.__code__.co_filename).parent.name == "benchmarks"


def test_sweep_driver_runs_select_and_gate_sections(capsys):
    bench_matrix.main(["select", "gate", "--seed", "0", "--repeats", "1"])
    first = json.loads(capsys.readouterr().out)
    assert list(first) == ["select", "gate"]

    select = first["select"]
    assert (select["dims"], select["runs"]) == ([8] * 5, bench_matrix.SELECT_RUNS)
    assert list(select["budgets"]) == ["600", "1000"]
    for row in select["budgets"].values():
        assert list(row) == ["ms_per_run", "runs_per_s", "genome_ids", "epochs"]
        assert row["runs_per_s"] > 0 and len(row["genome_ids"]) == select["runs"]
        assert all(0 < epochs for epochs in row["epochs"])

    gate = first["gate"]
    assert gate["parse_encode_per_s"] > 0 and list(gate["nets"]) == ["default", "scaled"]
    for row in gate["nets"].values():
        assert row["forward_per_s"] > 0 and 1 <= row["mean_active"] <= 2     # k_max 2

    # what the runs select and gate is drawn from the seed, not the clock
    bench_matrix.main(["select", "gate", "--seed", "0", "--repeats", "2"])
    second = json.loads(capsys.readouterr().out)
    for out in (first, second):
        for row in out["select"]["budgets"].values():
            del row["ms_per_run"], row["runs_per_s"]
        del out["gate"]["parse_encode_per_s"], out["select"]["repeats"], out["gate"]["repeats"]
        del out["select"]["cal_ms"], out["gate"]["cal_ms"]
        for row in out["gate"]["nets"].values():
            del row["forward_per_s"]
    assert first == second


def test_log_section_takes_repeats_round_robin(monkeypatch, capsys):
    """Each pass times every length once, so a cell's fastest call is taken
    over the whole run, not over one stretch of it."""
    builds, build = [], bench_matrix.build
    monkeypatch.setattr(bench_matrix, "LENGTHS", (100, 300))
    monkeypatch.setattr(bench_matrix, "build",
                        lambda enclave, txns: builds.append(len(txns)) or build(enclave, txns))
    bench_matrix.main(["log", "--seed", "0", "--repeats", "3"])
    lengths = json.loads(capsys.readouterr().out)["log"]["lengths"]
    assert list(lengths) == ["100", "300"]
    small, large = (len(bench_matrix.write_stream(0, n)) for n in (100, 300))
    assert builds == [small, large] * 3
    for row in lengths.values():
        assert list(row) == ["records", "bytes", "keys", "append_seal_ms", "to_text_ms",
                             "from_text_ms", "records_ms", "verify_log_ms", "recover_ms"]


@pytest.mark.parametrize("argv", [["bogus"], ["dp", "--repeats", "0"]])
def test_sweep_driver_rejects_bad_arguments(argv, capsys):
    with pytest.raises(SystemExit) as exit_info:
        bench_matrix.main(argv)
    assert exit_info.value.code == 2
    assert capsys.readouterr().out == ""
