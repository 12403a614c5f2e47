"""Shared pytest plumbing for the suite.

The acceptance tests report one verdict line per shipped guarantee; those
lines are collected here and replayed in the terminal summary so they stay
visible even with output capture on.  ``perfbench_workloads`` loads the
benchmark's workload module for tests that check its inputs or pin its
answers, and ``cyclic_garbage`` counts what a call leaves for the cycle
collector.
"""

import gc
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


def cyclic_garbage(call) -> int:
    """The number of objects that ``call()`` leaves in reference cycles.

    The collector is off during the call; one collection after it, with
    ``gc.DEBUG_SAVEALL``, keeps what it frees in ``gc.garbage`` to be counted.
    The collector's state and ``gc.garbage`` are restored either way.
    """
    enabled, debug = gc.isenabled(), gc.get_debug()
    gc.collect()
    before = len(gc.garbage)
    gc.disable()
    try:
        call()
        gc.set_debug(debug | gc.DEBUG_SAVEALL)
        gc.collect()
        return len(gc.garbage) - before
    finally:
        gc.set_debug(debug)
        del gc.garbage[before:]
        if enabled:
            gc.enable()


def pytest_terminal_summary(terminalreporter):
    if acceptance_lines:
        terminalreporter.section("acceptance criteria")
        for line in acceptance_lines:
            terminalreporter.write_line(line)
