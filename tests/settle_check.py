"""Settle functions against running every leaf, and clause selection
against trying every clause.

Each check runs searches on two axes: every bounded choose's settle
function compiled at its first visit, at the shipped threshold
(`hot._HOT_AFTER`), where a search runs a hot choose's first leaves in
full and settles the rest, or never, so that each leaf runs in full; and
each call selecting its clauses by their leading `param == constant`, or
trying every clause. The runs of all five settings checked must show
equal outcomes, bindings, stores, choices, records (with their _G
names), error kinds and steps. `tests/test_hot_tier.py`
runs these checks on `gen_program` seeds 0-2,999; this script runs them
on more, with the standard library alone:

    PYTHONPATH=src python tests/settle_check.py SEEDS

checks `gen_program` seeds 0 to SEEDS - 1 and `programs/*.choo` at three
budgets, and each choice shape, edge program and clause shape under its
budget sweep, and each clause list with no keyed clause the same way.
It prints what the settle functions did and how many clauses the calls
skipped, and exits 1 at the first difference.
`gen_program` makes no clause that a call can skip, so only the clause
shapes show selection at work.
"""

from __future__ import annotations

import collections
import contextlib
import operator
import random
import sys
from pathlib import Path

from choo import hot
from choo.interp import BudgetExhausted, EvalError, ProgramState, SearchBudget, Solver
from choo.parser import parse_program
from choo.terms import Var
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
    # z * z passes 64 bits at the set's last z, and only there; s * s is
    # computed only once s is known to be in 64 bits, also where + 0 or
    # / 1 follows the square, whose result may look in 64 bits by its bounds
    "squares_at_the_edge": "main { choose(x in {1..3}) choose(z in {3037000490..3037000500}) z * z < x }",
    "squared_again": "main { choose(x in {1..3}) choose(z in {0..4}) (s = z * 3037000499;"
                     + " s = s * s;" * 40 + " s == x) }",
    "squared_plus_zero": "main { choose(x in {1..3}) choose(z in {0..4}) (s = z * 3037000499;"
                         + " s = s * s + 0;" * 40 + " s == x) }",
    "squared_over_one": "main { choose(x in {1..3}) choose(z in {0..4}) (s = z * 3037000499;"
                        + " s = s * s / 1;" * 40 + " s == x) }",
    # the first condition holds for no z, or for every z
    "never": "main { choose(x in {1..3}) choose(z in {0..30}) (t = z + x; t - z == 9) }",
    "always": "main { choose(x in {1..3}) choose(z in {0..30}) (t = z + x; t - z == x; z > 28) }",
}

# clause lists that a call selects from by their leading param == constant
FACTS = "".join(f"f(k, v) {{ k == {i}; v == {2 * i} }}\n" for i in range(40))
DOWN = ["down(n) { n == 0 }", "down(n) { n > 0; choose(m) (m == n - 1; down(m)) }"]
CLAUSE_SHAPES = {
    # Int keys, a negative one, and two clauses before the first keyed one:
    # one keyed on the other position and one unkeyed; x = 0 and 5 match
    # no key
    "int_keys": "f(k, v) { v == 30; k == 3 }\nf(k, v) { k > 2; v == 40 }\nf(k, v) { k == 1; v == 10 }\n"
                "f(k, v) { k == -2; v == 20 }\nf(k, v) { 4 == k; v == 50 }\nf(k, v) { k > 3; v == 60 }\n"
                "main { choose(x in {-2..5}) choose(y) (f(x, y); s = y) }",
    # atom keys, a duplicate key, and Int and compound arguments against them
    "atom_keys": "color(c, n) { c == red; n == 1 }\ncolor(c, n) { c == green; n == 2 }\n"
                 "color(c, n) { n == 3 }\ncolor(c, n) { red == c; n == 4 }\n"
                 "main { choose(x in {green, red, blue, 7, pair(red, 1)}) choose(n) (color(x, n); s = n) }",
    # keys on the second parameter, one of them behind nested ;
    "second_param": "g(a, k) { k == 2; a == 20 }\ng(a, k) { ((k == 1; a == 10); a > 0) }\n"
                    "g(a, k) { k == 1; a == 11 }\ng(a, k) { a == 5; k == 2 }\n"
                    "main { choose(k in {0..3}) choose(a) (g(a, k); s = a) }",
    # keys at mixed positions: more clauses are keyed on the first, and
    # the first clause, keyed on the second, comes before every keyed one
    "mixed_positions": "h(a, b) { b == 1 }\nh(a, b) { a == 1; b == 2 }\nh(a, b) { a == 2; b == 3 }\n"
                       "h(a, b) { b == 4; a == 1 }\nh(a, b) { (((a == 1; t = a); t = t + b); t > 2) }\n"
                       "main { choose(x in {1..3}) choose(y in {1..4}) (h(x, y); s = x * 10 + y) }",
    # the first call's argument is unbound; the second's is bound by then
    "unbound": "p(k) { k == 1 }\np(k) { k == red }\np(k) { k == 2 }\n"
               "main { choose(x) (p(x); p(x); s = 1) }",
    # nat(succ(...)) against the atom key zero
    "compound": "nat(x) { x == zero }\nnat(x) { choose(y) (x == succ(y); nat(y)) }\n"
                "main { nat(succ(succ(succ(zero)))) }",
    "down_base_first": "\n".join(DOWN) + "\nmain { down(5) }",
    "down_base_last": "\n".join(reversed(DOWN)) + "\nmain { down(5) }",
    "peano": "mk(n, x) { n == 0; x == zero }\n"
             "mk(n, x) { n > 0; choose(p) choose(y) (p == n - 1; x == succ(y); mk(p, y)) }\n"
             "nat(x) { x == zero }\nnat(x) { choose(y) (x == succ(y); nat(y)) }\n"
             "main { choose(x) (mk(3, x); nat(x)) }",
    "fact_base": FACTS + "main { s = 0; choose(k in {38, 3, 41, 17, 0}) choose(v) (f(k, v); s = s + v) }",
    "clause_order": (Path(__file__).parent / "golden" / "clause_order.choo").read_text(),
}

# clause lists of two or more clauses, none of them keyed: a call keeps
# them as a plain list, which selection on and forbidden both try in full
UNKEYED_CLAUSES = {
    "no_equality": "p(x) { x > 1 }\np(x) { x < 0 }\np(x) { x == x }\nmain { p(5); p(-1) }",
    # a leading == between two parameters has no constant side
    "no_constant_side": "p(x, y) { x == y }\np(x, y) { x > y }\n"
                        "main { choose(a in {1..3}) (p(a, 2); s = a) }",
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
        out.append(applied[:4])
        applied = applied[4]
    return out


def observe(program, budget=SearchBudget(2000, 50_000)):
    """What a search shows: per solution the bindings, store, choices and
    records (rule, id(goal), label, the variables its env holds by name:
    their _G names), then the error it ends in, if any; and its steps."""
    state = ProgramState(program.clauses)
    solver = Solver(state, budget)
    seen = []
    try:
        for applied in solver.records(program.main):
            seen.append((dict(state.subst), dict(state.store), list(state.choices),
                         [(rule, id(goal), label, [(k, v.name) for k, v in env.items() if type(v) is Var])
                          for rule, goal, label, env in records_of(applied)]))
    except (EvalError, BudgetExhausted) as err:
        seen.append((type(err).__name__, getattr(err, "kind", None), str(err)))
    return seen, solver.steps


@contextlib.contextmanager
def patched(owner=hot, **values):
    """The attributes of owner, the hot tier by default, set to values,
    and restored after."""
    saved = {name: getattr(owner, name) for name in values}
    try:
        for name, value in values.items():
            setattr(owner, name, value)
        yield
    finally:
        for name, value in saved.items():
            setattr(owner, name, value)


class Counting:
    """An iterator over what a call selects that counts, in
    verdicts["skipped"], the clauses of each skip record it hands out. A
    skipped clause makes one fresh variable per parameter, and every
    clause of a list has the call's arity."""

    def __init__(self, entries, arity, verdicts):
        self.entries, self.arity, self.verdicts = iter(entries), arity, verdicts

    def __iter__(self):
        return self

    def __length_hint__(self):
        return operator.length_hint(self.entries)

    def __next__(self):
        entry = next(self.entries)
        if type(entry) is tuple:
            self.verdicts["skipped"] += entry[0] // self.arity
        return entry


def forced_and_forbidden(observe_all):
    """What observe_all() shows with each settle function compiled at its
    choose's first visit and clause selection on, checked equal to what it
    shows with either or both forbidden, and with settle functions compiled
    at the shipped threshold; and what the forced ones did, counted:
    settle function "calls", leaves rejected, "fails", and handed back,
    "unknown"; clauses "skipped". Sets too wide to keep are not counted."""
    verdicts = collections.Counter()
    compile_settle = hot._compile_settle
    select = hot.ClauseIndex.select

    def selecting(index, *call):
        return Counting(select(index, *call), len(index.unbound[0].params), verdicts)

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

    with patched(_HOT_AFTER=0, _compile_settle=counting), patched(hot.ClauseIndex, select=selecting):
        settled = observe_all()
    settles = {"forced": {"_HOT_AFTER": 0}, "shipped": {},
               "forbidden": {"_compile_settle": lambda goal, kept: (None, 0)}}
    selects = {"on": {}, "forbidden": {"_index_clauses": lambda clauses: None}}
    for settle, select in (("forbidden", "on"), ("shipped", "on"), ("forced", "forbidden"),
                           ("forbidden", "forbidden")):
        with patched(**settles[settle], **selects[select]):
            if observe_all() != settled:
                raise AssertionError(f"a search shows other things with settle functions {settle}"
                                     f" and clause selection {select}")
    return settled, verdicts


def check_programs(programs):
    return forced_and_forbidden(lambda: [observe(p, budget) for budget in BUDGETS for p in programs])


def check_sweep(source):
    program = parse_program(source)
    return forced_and_forbidden(lambda: [observe(program, budget) for budget in SWEEP])


def counts(verdicts):
    """verdicts as printed, with the clauses skipped shown where none were."""
    return dict(sorted({"skipped": 0, **verdicts}.items()))


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
    print(f"gen_program seeds 0-{seeds - 1} and programs/: {counts(total)}")
    for name, source in {**SHAPES, **SETTLE_EDGES, **CLAUSE_SHAPES, **UNKEYED_CLAUSES}.items():
        _, verdicts = check_sweep(source)
        print(f"{name}, {len(SWEEP)} budgets: {counts(verdicts)}")
    print("settle functions and clause selection change nothing a search shows")


if __name__ == "__main__":
    main(sys.argv)
