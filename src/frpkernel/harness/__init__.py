"""Scenario harness: config validation, drivers, metrics and the `frp-kernel` CLI."""
