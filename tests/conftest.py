"""Shared pytest plumbing for the suite.

The acceptance tests report one verdict line per shipped guarantee; those
lines are collected here and replayed in the terminal summary so they stay
visible even with output capture on.  ``perfbench_workloads`` loads the
benchmark's workload module for tests that check its inputs or pin its
answers.
"""

import importlib.util
from pathlib import Path

acceptance_lines = []


def perfbench_workloads():
    """``perfbench/workloads.py``, loaded as a fresh module of its own (so
    with a fresh P1 curve and empty normal-form tables)."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def pytest_terminal_summary(terminalreporter):
    if acceptance_lines:
        terminalreporter.section("acceptance criteria")
        for line in acceptance_lines:
            terminalreporter.write_line(line)
