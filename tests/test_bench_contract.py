"""The benchmark's layer replay still runs on the package as it is.

bench/layers.py calls the package's layers one by one, some of them on
paths the CLI no longer takes: Solver.solve, format_tree of a node and
the tuple enumerate_solutions returns. A change that breaks one of
those would otherwise show only in a traced benchmark run. The bench
modules are loaded from their files without writing bytecode, and one
program of each workload at seed 1 is replayed with its tree formatted.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"choo_bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up there
    dont_write = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = dont_write
    return module


workloads, layers = _load("workloads"), _load("layers")


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_the_layer_replay_finds_no_problem(workload):
    program = workloads.WORKLOADS[workload](1)[0]
    tracer = layers.Tracer()
    counts = layers.replay(tracer, 1, program, with_tree=True)
    assert counts["problems"] == []
    assert "derivation.format_tree" in {span[1] for span in tracer.spans}
