"""The reference method behind `hot._HOT_AFTER`, measured where it runs.

    PYTHONPATH=src python tests/hot_reference.py [REPEATS]

It takes the 68 innermost bounded chooses of the seed-3 `nested_choice`
and `oracle_check` pools, loading `bench/workloads.py` from its file
without writing bytecode, and times three things per choose, each the
best of REPEATS (default 7) in process time:

- a leaf run: the search to exhaustion with no settle function, divided
  by the leaves of the innermost choose;
- a compile: `hot._compile_settle` on that choose;
- a settled leaf: the search with every settle function compiled at its
  choose's first visit, less one compile, divided by the leaves.

It prints, as quartiles over the chooses, the compile cost in leaf runs
and the repay point, the leaves after which what the settled leaves save
has paid for the compile; and the lowest threshold T with
1 + q3 / T <= 1.75, q3 being the upper quartile of the compile cost: at
T, a choose that stops right after compiling costs at most 1.75 times
what it would without the tier. It needs the standard library alone, and
since it takes timings, no test suite runs it whole.
"""

from __future__ import annotations

import importlib.util
import math
import statistics
import sys
import time
from pathlib import Path

from choo import hot
from choo.interp import ProgramState, SearchBudget, Solver
from choo.parser import parse_program
from choo.syntax import BoundedChoose, Seq
from settle_check import patched

WORKLOADS = Path(__file__).resolve().parent.parent / "bench" / "workloads.py"
WORST_CASE = 1.75  # what a choose that stops right after compiling may cost, at most


def pools(seed=3):
    """The nested_choice and oracle_check programs of seed, read from
    bench/workloads.py by file path, so that nothing under bench/ is written."""
    spec = importlib.util.spec_from_file_location("choo_hot_reference_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up there
    dont_write, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = dont_write
    return [program.source for name in ("nested_choice", "oracle_check")
            for program in module.WORKLOADS[name](seed)]


def _chooses(goal):
    """The bounded chooses of goal, outermost first; each must open the
    body of the one around it, so the leaves are the product of their sets."""
    chain, stack = [], [goal]
    while stack:
        goal = stack.pop()
        if type(goal) is Seq:
            stack += [goal.second, goal.first]
        elif type(goal) is BoundedChoose:
            assert not chain or chain[-1].body is goal, "not a plain chain of chooses"
            chain.append(goal)
            stack.append(goal.body)
    return chain


def _best(repeats, run):
    best = math.inf
    for _ in range(repeats):
        start = time.process_time()
        run()
        best = min(best, time.process_time() - start)
    return best


def measure(source, repeats=7):
    """(compile cost in leaf runs, repay point in leaves, leaves) of the
    innermost bounded choose of the program source."""
    program = parse_program(source)
    chain = _chooses(program.main)
    sets = [hot.set_elements(choose.cset, {}, {}, {}) for choose in chain]
    leaves = math.prod(map(len, sets))

    def search():
        for _ in Solver(ProgramState(program.clauses), SearchBudget()).records(program.main):
            pass

    with patched(_compile_settle=lambda goal, kept: (None, 0)):
        leaf_run = _best(repeats, search) / leaves
    compile_ = _best(repeats, lambda: hot._compile_settle(chain[-1], sets[-1]))
    with patched(_HOT_AFTER=0):
        settled = (_best(repeats, search) - compile_) / leaves
    saved = leaf_run - settled
    return compile_ / leaf_run, compile_ / saved if saved > 0 else math.inf, leaves


def threshold(q3):
    """The lowest T with 1 + q3 / T <= WORST_CASE."""
    t = 1
    while 1 + q3 / t > WORST_CASE:
        t += 1
    return t


def main(argv):
    repeats = int(argv[0]) if argv else 7
    costs, repays = zip(*(measure(source, repeats)[:2] for source in pools()))
    for label, values in (("compile cost, in leaf runs", costs), ("repay point, in leaves", repays)):
        q1, median, q3 = statistics.quantiles(values, n=4)
        print(f"{label}: q1 {q1:.1f}, median {median:.1f}, q3 {q3:.1f} ({len(values)} chooses)")
    q3 = statistics.quantiles(costs, n=4)[2]
    print(f"lowest threshold T with 1 + q3 / T <= {WORST_CASE}: {threshold(q3)}"
          f" (hot._HOT_AFTER is {hot._HOT_AFTER})")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
