from .buffer import BufferClosed, BufferTimeout, CircularBuffer, EndOfStream
from .config import ConfigError, ScenarioConfig, build_scenario_config, load_config_file
from .drivers import run_scenario
from .metrics import MetricsWriter, write_combined_csv, write_summary

__all__ = [
    "BufferClosed",
    "BufferTimeout",
    "CircularBuffer",
    "ConfigError",
    "EndOfStream",
    "MetricsWriter",
    "ScenarioConfig",
    "build_scenario_config",
    "load_config_file",
    "run_scenario",
    "write_combined_csv",
    "write_summary",
]
