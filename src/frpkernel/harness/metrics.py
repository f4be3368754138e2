"""Append-only metrics collection with reproducible serialization.

CSV rows carry (simulated timestamp, scenario id, metric name, value); the
JSON summary is one sorted-keys document per run. Formatting is fixed so two
runs with the same seed produce byte-identical files.
"""

from __future__ import annotations

import json


def format_value(value) -> str:
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, float):
        return repr(value)
    return str(value)


class MetricsWriter:
    HEADER = "timestamp,scenario,metric,value"

    def __init__(self, scenario: str):
        self.scenario = scenario
        self.rows: list[tuple] = []

    def add(self, timestamp, metric: str, value) -> None:
        if "," in metric:
            raise ValueError("metric names must not contain commas")
        self.rows.append((timestamp, self.scenario, metric, value))

    def csv_lines(self) -> list[str]:
        return [f"{format_value(t)},{s},{m},{format_value(v)}"
                for t, s, m, v in self.rows]

    def write_csv(self, path) -> None:
        write_combined_csv(path, [self])


def write_combined_csv(path, writers: list[MetricsWriter]) -> None:
    lines = [MetricsWriter.HEADER]
    for writer in writers:
        lines.extend(writer.csv_lines())
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def write_summary(path, summary: dict) -> None:
    with open(path, "w") as fh:
        fh.write(json.dumps(summary, sort_keys=True, indent=2) + "\n")


def summary_text(summary: dict) -> str:
    return json.dumps(summary, sort_keys=True, indent=2)
