"""The hot tier: a bounded choose's leading conditions compiled into one
leaf filter once a search finds the choose hot, and the elements of a
set that names no binder made once per search.

A filter's verdict is checked against running its leaf without it, and
every pinned output is checked again with each filter compiled at its
choose's first leaf. Forcing filters from the first leaf, or forbidding
them, changes no outcome, error, step count or record.
"""

import collections
import dataclasses
import gc
import itertools
import random
import sys
import tracemalloc
import weakref
from pathlib import Path

import pytest

import test_corpus
import test_golden
import test_oracle
from choo import (
    BinOp,
    BoundedChoose,
    Compare,
    Int,
    IntLit,
    Range,
    TermLit,
    Var,
    VarRef,
    check_equivalence,
    eval_int,
    execute,
    parse_program,
)
from choo import interp
from choo.interp import BudgetExhausted, EvalError, ProgramState, SearchBudget, Solver
from choo.terms import INT64_MAX, INT64_MIN
from proggen import gen_program
from test_interp import records_of

PROGRAMS = Path(__file__).parent.parent / "programs"


@pytest.fixture
def compiled(monkeypatch):
    """Compile every bounded choose's filter at its first leaf; the list
    holds a weak reference to each filter compiled."""
    made = []
    compile_filter = interp._compile_filter

    def recording(goal):
        leaf_filter, deepest = compile_filter(goal)
        if leaf_filter is not None:
            made.append(weakref.ref(leaf_filter))
        return leaf_filter, deepest

    monkeypatch.setattr(interp, "_HOT_AFTER", 0)
    monkeypatch.setattr(interp, "_compile_filter", recording)
    return made


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


def forced_and_forbidden(monkeypatch, observe_all):
    """What observe_all() shows with each filter compiled at its choose's
    first leaf, checked equal to what it shows with no filter at all; and
    the verdicts the filters gave, counted."""
    verdicts = collections.Counter()
    compile_filter = interp._compile_filter

    def counting(goal):
        leaf_filter, deepest = compile_filter(goal)
        if leaf_filter is None:
            return None, deepest

        def counted(store, subst, env, value):
            k = leaf_filter(store, subst, env, value)
            verdicts["fails" if k is not None else "unknown"] += 1
            return k
        return counted, deepest

    with monkeypatch.context() as patch:
        patch.setattr(interp, "_HOT_AFTER", 0)
        patch.setattr(interp, "_compile_filter", counting)
        filtered = observe_all()
    with monkeypatch.context() as patch:
        patch.setattr(interp, "_compile_filter", lambda goal: (None, 0))
        assert observe_all() == filtered
    return filtered, verdicts


# --- filters against running the leaf --------------------------------------------------

# the leaf's environment: x a choose variable that holds 6, c one that
# holds a compound, p a clause parameter one subst step from -7, q one two
# steps from 3, r one bound to an unbound variable, w in no env, and z the
# leaf's own variable, 3; s and m hold integers, t is unset, a holds an atom
LEAF = parse_program(
    "leaf(c, p, q, r) { q == 3; choose(x in {6}) choose(z in {3}) 0 == 0 }\n"
    "main { s = 9223372036854775807; m = 0 - 9223372036854775807 - 1; a = red;"
    " choose(y) choose(w) leaf(f(1), -7, y, w) }")
EDGES = (0, 1, -1, 2, -2, 3, 7, 3037000499, -3037000500, INT64_MAX, INT64_MIN,
         INT64_MAX // 2, INT64_MIN // 2)
LEAVES = [IntLit(v) for v in EDGES] + [VarRef(n) for n in "smta"] + [
    TermLit(Var(n)) for n in "xcpqrwz"]


def with_leaf(condition):
    """LEAF with condition as the body of its innermost choose."""
    clause = LEAF.clauses[0]
    outer = clause.body.second
    inner = dataclasses.replace(outer.body, body=condition)
    body = dataclasses.replace(clause.body, second=dataclasses.replace(outer, body=inner))
    return dataclasses.replace(LEAF, clauses=(dataclasses.replace(clause, body=body),))


def leaf_verdict(monkeypatch, condition):
    """How the leaf runs without a filter, "holds", "fails" or the error
    kind, checked to be how it runs with one; and the filter's verdict."""
    program = with_leaf(condition)
    (seen, _), verdicts = forced_and_forbidden(monkeypatch, lambda: observe(program))
    assert sum(verdicts.values()) == 1, condition  # the filter saw the one leaf
    ran = "holds" if seen and type(seen[-1][0]) is dict else seen[-1][1] if seen else "fails"
    return ran, "fails" if verdicts["fails"] else "unknown"


def gen_expr(rng, depth):
    if depth == 0 or rng.random() < 0.3:
        return rng.choice(LEAVES)
    return BinOp(rng.choice("+-*/"), gen_expr(rng, depth - 1), gen_expr(rng, depth - 1))


@pytest.mark.parametrize("expr", [
    BinOp("+", IntLit(INT64_MAX), IntLit(0)),
    BinOp("+", IntLit(INT64_MAX), IntLit(1)),
    BinOp("-", IntLit(INT64_MIN), IntLit(1)),
    BinOp("*", IntLit(INT64_MIN), IntLit(-1)),
    BinOp("/", IntLit(INT64_MIN), IntLit(-1)),  # the one quotient that overflows
    BinOp("-", IntLit(INT64_MIN), IntLit(0)),
    BinOp("/", IntLit(-7), IntLit(2)),
    BinOp("/", IntLit(7), IntLit(-2)),
    BinOp("/", IntLit(-7), IntLit(-2)),
    BinOp("/", IntLit(1), IntLit(0)),
    BinOp("/", TermLit(Var("x")), BinOp("-", TermLit(Var("x")), IntLit(6))),
    # an unset store read before, and after, an operation that overflows
    BinOp("+", VarRef("t"), BinOp("*", VarRef("s"), IntLit(2))),
    BinOp("+", BinOp("*", VarRef("s"), IntLit(2)), VarRef("t")),
    BinOp("/", VarRef("t"), IntLit(0)),
    BinOp("/", IntLit(1), BinOp("*", IntLit(0), VarRef("t"))),
    BinOp("+", TermLit(Var("r")), IntLit(1)),
    BinOp("+", TermLit(Var("w")), VarRef("t")),
    BinOp("+", VarRef("t"), TermLit(Var("w"))),
    BinOp("*", TermLit(Var("c")), IntLit(2)),
    BinOp("*", VarRef("a"), IntLit(2)),
    BinOp("-", TermLit(Var("q")), TermLit(Var("p"))),
    BinOp("*", TermLit(Var("x")), TermLit(Var("z"))),
    BinOp("-", TermLit(Var("p")), VarRef("m")),
], ids=repr)
@pytest.mark.parametrize("op", ["==", "<"])
def test_a_filter_gives_what_running_its_leaf_gives(monkeypatch, expr, op):
    for rhs in (IntLit(0), IntLit(18), IntLit(-10)):
        ran, verdict = leaf_verdict(monkeypatch, Compare(op, expr, rhs))
        assert verdict == "unknown" or ran == "fails", (expr, rhs)


def test_filters_agree_with_their_leaves_on_generated_conditions(monkeypatch):
    rng = random.Random(17)
    answers = collections.Counter()
    while sum(answers.values()) < 600:
        expr = gen_expr(rng, 4)
        if type(expr) is not BinOp:
            continue
        ran, verdict = leaf_verdict(monkeypatch, Compare(rng.choice("== != < <= > >=".split()), expr,
                                                         rng.choice(LEAVES)))
        if verdict == "fails":
            assert ran == "fails", expr  # a filter answers only a leaf that fails
        answers["filtered" if verdict == "fails" else "handed back" if ran == "fails" else ran] += 1
    # the filter answers the plain case and hands back every other: an
    # unset read, a term, a parameter two steps away, an error
    assert min(answers["filtered"], answers["holds"], answers["handed back"]) >= 10, answers
    assert sum(answers[kind] for kind in interp.ERROR_KINDS) >= 20, answers


def test_parsed_conditions_filter_as_their_leaves_run(monkeypatch):
    for text, value in (("x * x + 3 * x - 1", 53), ("1 + 2 + 3 + 4 + 5", 15), ("x - (x - (x - 1))", 5),
                        ("x / 4 * 4", 4), ("(x + 1) * (x - 1) / 5", 7)):
        expr = parse_program(f"main {{ choose(x in {{6}}) s = {text} }}").main.body.expr
        assert eval_int({}, {}, expr, {"x": Int(6)}) == value
        assert leaf_verdict(monkeypatch, Compare("==", expr, IntLit(value))) == ("holds", "unknown"), text
        assert leaf_verdict(monkeypatch, Compare("!=", expr, IntLit(value))) == ("fails", "fails"), text


def filter_of(source):
    """The filter of the first bounded choose in source's main, forced."""
    return interp._compile_filter(parse_program(source).main)


def test_a_filter_ends_at_a_goal_it_cannot_compile():
    for text in ("fib(x) + 1", "1 + fact(3)", "x + f(1)", "x + red"):
        assert filter_of(f"main {{ choose(x in {{1..3}}) {text} == 5 }}") == (None, 0), text
        leaf_filter, deepest = filter_of(f"main {{ choose(x in {{1..3}}) (x > 1; {text} == 5) }}")
        # fails at x > 1 after the Seq and the condition; reaches text at x = 2
        assert [leaf_filter({}, {}, {}, Int(x)) for x in (1, 2)] == [2, None], text
        assert deepest == 1
    # a call, a choose or a unification with a term ends the run too
    for goal in ("p(x)", "choose(y in {1}) y == x", "choose(y) y == x", "x == f(1)"):
        leaf_filter, _ = filter_of(
            f"p(n) {{ n == 0 }} main {{ choose(x in {{1..3}}) (x > 1; {goal}; x > 5) }}")
        assert [leaf_filter({}, {}, {}, Int(x)) for x in (1, 2)] == [2, None], goal


def test_generated_code_holds_no_program_text():
    # names and literal values reach the filter through its namespace
    name = "zzyzx"
    condition = Compare("==", BinOp("+", VarRef(name), BinOp("*", TermLit(Var("qqq")), IntLit(987654321))),
                        IntLit(123456789))
    leaf_filter, _ = interp._compile_filter(BoundedChoose("qqq", Range(1, 2), condition))
    code = leaf_filter.__code__
    assert name not in code.co_consts and name not in code.co_names and "qqq" not in code.co_names
    assert 987654321 not in code.co_consts and 123456789 not in code.co_consts
    assert leaf_filter({name: Int(1)}, {}, {}, Int(2)) == 1
    assert leaf_filter({name: Int(123456789 - 987654321)}, {}, {}, Int(1)) is None


def test_a_long_sum_compiles_at_the_default_recursion_limit(monkeypatch):
    expr = IntLit(1)
    for _ in range(3000):
        expr = BinOp("+", expr, TermLit(Var("x")))
    expr = BinOp("-", IntLit(0), expr)
    for _ in range(450):  # as deep as the parser nests
        expr = BinOp("*", IntLit(1), expr)
    goal = BoundedChoose("x", Range(0, 2), Compare("==", expr, IntLit(-3001)))
    assert sys.getrecursionlimit() == 1000
    leaf_filter, _ = interp._compile_filter(goal)
    assert [leaf_filter({}, {}, {}, Int(x)) for x in (0, 1, 2)] == [1, None, 1]
    assert [eval_int({}, {}, expr, {"x": Int(x)}) for x in (0, 1, 2)] == [-1, -3001, -6001]
    program = dataclasses.replace(parse_program("main { 1 == 1 }"), main=goal)
    _, verdicts = forced_and_forbidden(monkeypatch, lambda: observe(program))
    assert verdicts == {"fails": 2, "unknown": 1}


# --- filters against running without them -------------------------------------------------

SHAPES = {  # the paper's pattern-matching examples, and a leaf that writes the store first
    "pyth": "main { choose(a in {1..8}) choose(b in {1..8}) choose(c in {1..10})"
            " (a * a + b * b == c * c; a <= b) }",
    "change": "main { choose(q in {0..4}) choose(d in {0..10}) choose(n in {0..20})"
              " (q * 25 + d * 10 + n * 5 == 100; coins = q + d + n) }",
    "rollback": "main { acc = 3; choose(x in {1..6}) choose(y in {2, 5, 1}) choose(z in {0..5})"
                " (acc = acc + x * y + z; acc == 20) }",
}


def test_filters_change_nothing_a_search_shows(monkeypatch):
    programs = [gen_program(random.Random(seed)) for seed in range(3000)]
    programs += [parse_program(path.read_text()) for path in sorted(PROGRAMS.glob("*.choo"))]
    programs += [parse_program(source) for source in SHAPES.values()]
    budgets = [SearchBudget(2000, 50_000), SearchBudget(2000, 10), SearchBudget(4, 50_000)]
    seen, verdicts = forced_and_forbidden(
        monkeypatch, lambda: [observe(p, budget) for budget in budgets for p in programs])
    assert verdicts["fails"] > 10_000 and verdicts["unknown"] > 1_000, verdicts
    kinds = collections.Counter(s[-1][-1] for s, _ in seen if s and type(s[-1][0]) is str)
    assert kinds["steps"] > 300 and kinds["depth"] > 300, kinds


@pytest.mark.parametrize("shape", SHAPES)
def test_filters_change_no_budget_exhaustion(monkeypatch, shape):
    program = parse_program(SHAPES[shape])
    budgets = [SearchBudget(100, steps) for steps in range(1, 601)]
    # each leaf's condition nests 5 or 6 deep
    budgets += [SearchBudget(depth, 50_000) for depth in range(1, 9)]
    seen, verdicts = forced_and_forbidden(monkeypatch, lambda: [observe(program, b) for b in budgets])
    kinds = collections.Counter(s[-1][-1] if s and type(s[-1][0]) is str else "end" for s, _ in seen)
    assert kinds["steps"] >= 450 and kinds["depth"] >= 4 and kinds["end"] >= 4, kinds
    assert verdicts["fails"] > 0


# --- fallbacks ------------------------------------------------------------------------------

# each program, what its search shows, and how many of its leaves the
# filter shows failing and hands back
@pytest.mark.parametrize("source,shows,fails,unknown", [
    ("main { choose(x in {1..3}) (x > 0; 10 / (x - 2) == 5) }", "division", 1, 1),
    ("main { s = 9223372036854775807; choose(x in {0..2}) s + x > 0 }", "overflow", 0, 2),
    ("main { choose(x in {1..3}) (x > 1; t + x == 3; t = 0) }", "no solution", 1, 2),
    ("p(n) { choose(x in {1..5}) n + x == 7 } main { p(4) }", "x = 3", 4, 1),
    ("q(m) { m == 5; choose(x in {1..3}) m + x == 7 } main { choose(y) q(y) }", "x = 2", 0, 3),
    ("main { s = f(1); choose(x in {1..3}) (x > 1; s == x) }", "no solution", 1, 2),
    ("main { s = f(1); choose(x in {1..3}) (x > 1; s < x) }", "not-integer", 1, 1),
    ("main { choose(x in {1..10}) (x > 2; fib(x) == 8) }", "x = 7", 2, 8),
    ("main { s = 100; choose(x in {1..5}) (s = s + x; s * 2 == 206) }", "x = 3", 4, 1),
    ("main { choose(x in {1..5}) (s = x; s = s * s; t = s + 1; t == 17; s > 20) }", "no solution", 5, 0),
    ("main { choose(x in {1..5}) (s = x; s = s * s; t = s + 1; t == 17; s > 9) }", "x = 4", 4, 1),
], ids=["divides by zero", "overflows", "reads an unset name", "parameter one step away",
        "parameter two steps away", "unifies a compound", "compares a compound", "calls fib",
        "assigns then reads", "assigns twice, then fails", "assigns twice, then holds"])
def test_a_leaf_the_filter_cannot_decide_runs_as_before(monkeypatch, source, shows, fails, unknown):
    program = parse_program(source)
    (seen, _), verdicts = forced_and_forbidden(monkeypatch, lambda: observe(program))
    assert (verdicts["fails"], verdicts["unknown"]) == (fails, unknown)
    if seen and type(seen[-1][0]) is str:
        assert seen[-1][1] == shows
    else:
        x = [o.witnesses[-1][1].value for o in execute(program)]
        assert ([f"x = {v}" for v in x] or ["no solution"]) == [shows]


def test_a_traced_search_never_compiles_or_calls_a_filter(monkeypatch):
    def refuse(goal):
        raise AssertionError("a filter compiled under a trace")

    monkeypatch.setattr(interp, "_HOT_AFTER", 0)
    monkeypatch.setattr(interp, "_compile_filter", refuse)
    rules = []
    outs = list(execute(parse_program(SHAPES["pyth"]), on_rule=lambda rule, at: rules.append(rule)))
    # rule 8 at each of the 1 + 8 + 64 chooses run, and at each of their leaves
    assert len(outs) == 2 and rules.count(8) == (1 + 8 + 64) + (8 * 8 * 10 + 8 * 8 + 8)


# --- when a search compiles -----------------------------------------------------

def test_a_filter_is_compiled_once_its_choose_is_hot_and_only_for_its_search(monkeypatch):
    made = []
    compile_filter = interp._compile_filter

    def recording(goal):
        leaf_filter, deepest = compile_filter(goal)
        made.append((goal.var, leaf_filter is not None))
        return leaf_filter, deepest

    monkeypatch.setattr(interp, "_compile_filter", recording)
    program = parse_program("main { choose(x in {1..200}) choose(y in {0..1})"
                            " (s = x * 2 + y; x * 3 - y == 453; u = x + y; t = fib(x - 149)) }")
    for _ in range(2):  # nothing is kept from one search to the next
        outs = list(execute(program))
        assert [o.witnesses for o in outs] == [(("x", Int(151)), ("y", Int(0)))]
        assert outs[0].store == {"s": Int(302), "u": Int(151), "t": Int(1)}
    # y's choose takes its 129th leaf in x's 65th: then it gets its filter;
    # x's takes its 129th later, and its body begins with no condition
    assert made == [("y", True), ("x", False)] * 2


@pytest.mark.parametrize("source,compiled", [
    ((PROGRAMS / "backtracking.choo").read_text(), 0),
    ("main { " + "; ".join(["choose(x in {1..2}) (x > 1; s = x)"] * 300) + " }", 0),
    ("main { choose(y in {1..200}) choose(x in {1..2}) (x > 1; s = x + y) }", 2),
], ids=["backtracking", "300_cold_chooses", "one_hot_choose"])
def test_a_search_compiles_only_the_chooses_it_finds_hot(monkeypatch, source, compiled):
    # compile() takes about 350 of the about 380 us that one filter costs:
    # with _HOT_AFTER at 0, backtracking.choo's search took 268 us, not 33
    # (Python 3.11.7, a shared 2-core host), although nested_choice ran
    # faster; a change to the threshold is measured on both
    made = []
    compile_filter = interp._compile_filter
    monkeypatch.setattr(interp, "_compile_filter", lambda goal: made.append(goal) or compile_filter(goal))
    assert list(execute(parse_program(source)))
    assert len(made) == compiled


def test_pythagorean_triples_skip_the_leaves_their_filter_rejects(monkeypatch):
    # every leaf used to make a choice; now only the leaves run before the
    # filter, the leaves it passes and the two outer levels do
    chosen = []
    choose = ProgramState.choose
    monkeypatch.setattr(ProgramState, "choose",
                        lambda st, name, term: chosen.append(name) or choose(st, name, term))
    program = parse_program((PROGRAMS / "pythagorean.choo").read_text())
    solver = Solver(ProgramState(program.clauses))
    assert len(list(solver.records(program.main))) == 6
    assert solver.steps == 24853  # as without the filter
    assert chosen.count("a") == 20 and chosen.count("b") == 400
    # the first 128 leaves have a = 1, where no triple is; each triple passes
    assert chosen.count("c") == interp._HOT_AFTER + 6


def test_no_filter_or_element_tuple_outlives_its_search(compiled):
    program = parse_program(
        "main { choose(x in {1000001..1000777}) choose(y in {1..3}) x * y == 3000003 }")

    def element_tuples():
        return [o for o in gc.get_objects() if type(o) is tuple and len(o) == 777
                and o[0] == Int(1000001)]

    assert len(list(execute(program))) == 1
    assert compiled and all(ref() is None for ref in compiled)
    assert element_tuples() == []
    outs = execute(program)  # abandoned partway
    next(outs)
    assert any(ref() is not None for ref in compiled) and len(element_tuples()) == 1
    outs.close()
    assert all(ref() is None for ref in compiled)
    assert element_tuples() == []


# --- ranges -------------------------------------------------------------------------

def count_ints(monkeypatch):
    made = []
    init = Int.__init__

    def counting_init(self, value):
        made.append(value)
        init(self, value)

    monkeypatch.setattr(Int, "__init__", counting_init)
    return made


def test_a_huge_range_builds_only_the_elements_it_tries(monkeypatch):
    program = parse_program("main { choose(x in {7..1000000000000}) x == 7 }")
    witnesses = (("x", Int(7)),)
    made = count_ints(monkeypatch)
    outs = execute(program)
    assert next(outs).witnesses == witnesses
    outs.close()
    # the element tried and the literal 7; a choice point reads no element
    # ahead of the one it takes
    assert made == [7, 7]


def test_a_ground_set_is_resolved_once_per_element_per_search(monkeypatch):
    resolved = collections.Counter()
    apply = interp.apply

    def counting(mapping, term, *memo):
        resolved[id(term)] += 1
        return apply(mapping, term, *memo)

    monkeypatch.setattr(interp, "apply", counting)

    def resolutions(entries, searches=1):
        program = parse_program(
            f"main {{ choose(x in {{1..{entries}}}) choose(y in {{4, f(5), 4}}) y == 0 }}")
        resolved.clear()
        for _ in range(searches):
            assert list(execute(program)) == []
        return [resolved[id(e)] for e in program.main.body.cset.elements]

    once = resolutions(1)
    assert all(once) and resolutions(5) == once
    assert resolutions(5, searches=2) == [2 * n for n in once]  # nothing is kept between searches


def test_a_set_that_names_a_binder_is_resolved_at_each_entry():
    for source in ("main { choose(x in {1..3}) choose(y in {x, 9}) y == x }",
                   "p(x) { choose(y in {x, 9}) y == x } main { choose(x in {1..3}) p(x) }"):
        program = parse_program(source)
        assert [o.witnesses[0] for o in execute(program)] == [("x", Int(n)) for n in (1, 2, 3)]
        assert check_equivalence(program).describe() == "match: 3 solutions"


def test_a_range_makes_its_elements_once_per_search(monkeypatch, compiled):
    program = parse_program("main { choose(x in {1..3}) choose(y in {1..50}) y == 0 }")
    made = count_ints(monkeypatch)
    assert list(execute(program)) == []
    # the filter rejects every leaf, so the literal 0 is never made
    assert sorted(made) == sorted([*range(1, 4), *range(1, 51)])


def test_a_recursive_clause_re_enters_a_range_partway_through_it(compiled):
    # walk(3) enters the same choose at each level while the outer
    # levels are partway through their elements
    program = parse_program(
        "walk(n) { n == 0 }\n"
        "walk(n) { n > 0; choose(x in {1..3}) choose(m) (m == n - 1; s = n * 10 + x; walk(m)) }\n"
        "main { walk(3) }")
    outs = list(execute(program))
    expected = []
    for xs in itertools.product(range(1, 4), repeat=3):
        witnesses = []
        for level, x in zip((3, 2, 1), xs):
            witnesses += [("x", Int(x)), ("m", Int(level - 1))]
        expected.append((tuple(witnesses), {"s": Int(10 + xs[2])}))
    assert [(o.witnesses, o.store) for o in outs] == expected
    assert check_equivalence(program).describe() == "match: 27 solutions"


def test_all_solutions_of_a_range_past_the_cap_keep_memory_bounded():
    def peak(width):
        program = parse_program(f"main {{ choose(x in {{1..{width}}}) x > {width - 3} }}")
        tracemalloc.start()
        try:
            assert len(list(execute(program))) == 3
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    width = 4 * interp._RANGE_CAP
    # kept, the elements would take over 100 bytes each
    assert peak(4 * width) < peak(width) + 50_000


# --- every pinned output, with each filter compiled at its first leaf ------------------

def test_the_corpus_holds_with_every_filter_compiled_at_once(compiled, tmp_path):
    test_corpus.test_every_output_matches_its_pinned_digest(tmp_path)
    assert len(compiled) > 200


def test_the_oracle_verdicts_hold_with_every_filter_compiled_at_once(compiled):
    test_oracle.test_oracle_verdicts_match_the_pinned_digest()
    assert len(compiled) > 200


@pytest.mark.parametrize("name,args,status", test_golden.CASES, ids=[c[0] for c in test_golden.CASES])
def test_golden_with_every_filter_compiled_at_once(name, args, status, compiled, capsys):
    test_golden.test_golden(name, args, status, capsys)


@pytest.mark.parametrize("mode", ["full", "rules"])
@pytest.mark.parametrize("name,args,status", test_golden.SOLVED, ids=[c[0] for c in test_golden.SOLVED])
def test_golden_trace_with_every_filter_compiled_at_once(name, args, status, mode, compiled, capsys):
    test_golden.test_golden_trace(name, args, status, mode, capsys)
