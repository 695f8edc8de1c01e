"""Settle functions against running every leaf.

Each check runs searches twice: once with every bounded choose's settle
function compiled at its first visit, and once with none, so that each
leaf runs in full. Outcomes, bindings, stores, choices, records, error
kinds and steps must be equal. `tests/test_hot_tier.py` runs these
checks on `gen_program` seeds 0-2,999; this script runs them on more,
with the standard library alone:

    PYTHONPATH=src python tests/settle_check.py SEEDS

checks `gen_program` seeds 0 to SEEDS - 1 and `programs/*.choo` at three
budgets, and each choice shape and edge program under its budget
sweep. It prints what the settle functions did and exits 1 at the first
difference.
"""

from __future__ import annotations

import collections
import contextlib
import operator
import random
import sys
from pathlib import Path

from choo import hot, parse_program
from choo.interp import BudgetExhausted, EvalError, ProgramState, SearchBudget, Solver
from proggen import gen_program

PROGRAMS = Path(__file__).parent.parent / "programs"

# the paper's pattern-matching examples, and a leaf that writes the store
# first
SHAPES = {
    "pyth": "main { choose(a in {1..8}) choose(b in {1..8}) choose(c in {1..10})"
            " (a * a + b * b == c * c; a <= b) }",
    "change": "main { choose(q in {0..4}) choose(d in {0..10}) choose(n in {0..20})"
              " (q * 25 + d * 10 + n * 5 == 100; coins = q + d + n) }",
    "rollback": "main { acc = 3; choose(x in {1..6}) choose(y in {2, 5, 1}) choose(z in {0..5})"
                " (acc = acc + x * y + z; acc == 20) }",
}

# programs at the edges of a settle loop, each swept like a shape
SETTLE_EDGES = {
    # z = 17 overflows, past the one z that passes, and the leaf raises
    "overflows_high": "main { s = 9223372036854775790; choose(x in {1..3}) choose(z in {0..20})"
                      " s + x + z == 9223372036854775800 }",
    "overflows_low": "main { s = 0 - 9223372036854775790; choose(x in {1..3}) choose(z in {0..20})"
                     " s - x - z == 0 - 9223372036854775800 }",
    # a ground set of Ints, written with a duplicate, is read as Ints; one
    # with an atom in it reads each element through number(), and the atom
    # raises when the loop reaches it
    "ground_set": "main { choose(x in {1..3}) choose(z in {7, 3, 7, 9, 5, 1, 2})"
                  " (x + z * 2 == 11; s = z) }",
    "atom_in_set": "main { choose(x in {1..3}) choose(z in {7, 3, 7, 5, red, 1})"
                   " (x + z * 2 == 11; s = z) }",
    # the first condition holds for no z, or for every z
    "never": "main { choose(x in {1..3}) choose(z in {0..30}) (t = z + x; t - z == 9) }",
    "always": "main { choose(x in {1..3}) choose(z in {0..30}) (t = z + x; t - z == x; z > 28) }",
}

BUDGETS = [SearchBudget(2000, 50_000), SearchBudget(2000, 10), SearchBudget(4, 50_000)]
# each shape's leaf condition nests 5 or 6 deep; max_steps lands inside
# many a point's run of rejected leaves
SWEEP = [SearchBudget(100, steps) for steps in range(1, 601)] + [
    SearchBudget(depth, 50_000) for depth in range(1, 9)]


def records_of(applied):
    """The rule applications of a record as a list, newest first."""
    out = []
    while applied is not None:
        head, applied = applied
        out.append(head)
    return out


def observe(program, budget=SearchBudget(2000, 50_000)):
    """What a search shows: per solution the bindings, store, choices and
    records (rule, id(goal), label), then the error it ends in, if any;
    and its steps."""
    state = ProgramState(program.clauses)
    solver = Solver(state, budget)
    seen = []
    try:
        for applied in solver.records(program.main):
            seen.append((dict(state.subst), dict(state.store), list(state.choices),
                         [(rule, id(goal), label) for rule, goal, label, _ in records_of(applied)]))
    except (EvalError, BudgetExhausted) as err:
        seen.append((type(err).__name__, getattr(err, "kind", None), str(err)))
    return seen, solver.steps


@contextlib.contextmanager
def patched(**values):
    """The hot tier's attributes set to values, and restored after."""
    saved = {name: getattr(hot, name) for name in values}
    try:
        for name, value in values.items():
            setattr(hot, name, value)
        yield
    finally:
        for name, value in saved.items():
            setattr(hot, name, value)


def forced_and_forbidden(observe_all):
    """What observe_all() shows with each settle function compiled at its
    choose's first visit, checked equal to what it shows with none; and
    what the settle functions did, counted: "calls"; leaves rejected,
    "fails", and handed back, "unknown". Sets too wide to keep are not
    counted."""
    verdicts = collections.Counter()
    compile_settle = hot._compile_settle

    def counting(goal, kept):
        settle, deepest = compile_settle(goal, kept)
        if settle is None:
            return None, deepest

        def counted(store, subst, env, alternatives, steps, max_steps):
            left = operator.length_hint(alternatives)
            alternative, steps = settle(store, subst, env, alternatives, steps, max_steps)
            verdicts["calls"] += 1
            verdicts["unknown"] += alternative is not None
            verdicts["fails"] += left - operator.length_hint(alternatives) - (alternative is not None)
            return alternative, steps
        return counted, deepest

    with patched(_HOT_AFTER=0, _compile_settle=counting):
        settled = observe_all()
    with patched(_compile_settle=lambda goal, kept: (None, 0)):
        if observe_all() != settled:
            raise AssertionError("a search shows other things with settle functions than without")
    return settled, verdicts


def check_programs(programs):
    return forced_and_forbidden(lambda: [observe(p, budget) for budget in BUDGETS for p in programs])


def check_sweep(source):
    program = parse_program(source)
    return forced_and_forbidden(lambda: [observe(program, budget) for budget in SWEEP])


def main(argv):
    seeds = int(argv[1])
    total = collections.Counter()
    for start in range(0, seeds, 1000):  # a thousand at a time keeps memory small
        _, verdicts = check_programs([gen_program(random.Random(seed))
                                      for seed in range(start, min(start + 1000, seeds))])
        total += verdicts
    _, verdicts = check_programs([parse_program(path.read_text())
                                  for path in sorted(PROGRAMS.glob("*.choo"))])
    total += verdicts
    print(f"gen_program seeds 0-{seeds - 1} and programs/: {dict(sorted(total.items()))}")
    for name, source in {**SHAPES, **SETTLE_EDGES}.items():
        _, verdicts = check_sweep(source)
        print(f"{name}, {len(SWEEP)} budgets: {dict(sorted(verdicts.items()))}")
    print("settle functions change nothing a search shows")


if __name__ == "__main__":
    main(sys.argv)
