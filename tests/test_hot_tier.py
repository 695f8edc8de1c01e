"""The hot tier: a bounded choose's leading conditions compiled into one
settle function once a search finds the choose hot, a call's clauses
selected by their leading param == constant, and the elements of a set
that names no binder made once per search.

A settle function's verdict on each leaf is checked against running the
leaf without it, and every pinned output is checked again with each
settle function compiled at its choose's first visit. Forcing settle
functions from the first visit, or forbidding them, and forbidding
clause selection change no outcome, error, step count or record
(settle_check.py holds that comparison).
"""

import ast
import collections
import dataclasses
import gc
import itertools
import random
import re
import sys
import tracemalloc
import weakref

import pytest

import hot_reference
import test_corpus
import test_golden
import test_oracle
from choo import hot, interp
from choo.interp import ProgramState, SearchBudget, Solver, eval_int, execute
from choo.oracle import check_equivalence
from choo.parser import parse_program
from choo.syntax import BinOp, BoundedChoose, Compare, IntLit, Range, Seq, TermLit, VarRef
from choo.terms import INT64_MAX, INT64_MIN, Atom, Compound, Int, Var
from proggen import gen_program
from settle_check import (
    CLAUSE_SHAPES,
    FACTS,
    PROGRAMS,
    SETTLE_EDGES,
    SHAPES,
    check_programs,
    check_sweep,
    forced_and_forbidden,
    observe,
    records_of,
)


@pytest.fixture
def compiled(monkeypatch):
    """Compile every bounded choose's settle function at its first visit;
    the list holds a weak reference to each one compiled."""
    made = []
    compile_settle = hot._compile_settle

    def recording(goal, kept):
        settle, deepest = compile_settle(goal, kept)
        if settle is not None:
            made.append(weakref.ref(settle))
        return settle, deepest

    monkeypatch.setattr(hot, "_HOT_AFTER", 0)
    monkeypatch.setattr(hot, "_compile_settle", recording)
    return made


def one_leaf(settle, value, store=None):
    """k where settle rejects the one leaf value in k steps after its own,
    or None where it hands the leaf back."""
    alternative, steps = settle(store or {}, {}, {}, iter((value,)), 0, 10**9)
    return None if alternative is not None else steps - 1


# --- settle functions against running the leaf ------------------------------------------

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


def leaf_verdict(condition):
    """How the leaf runs without a settle function, "holds", "fails" or the
    error kind, checked to be how it runs with one; and its verdict."""
    program = with_leaf(condition)
    (seen, _), verdicts = forced_and_forbidden(lambda: observe(program))
    assert verdicts["fails"] + verdicts["unknown"] == 1, condition  # it saw the one leaf
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
def test_a_filter_gives_what_running_its_leaf_gives(expr, op):
    for rhs in (IntLit(0), IntLit(18), IntLit(-10)):
        ran, verdict = leaf_verdict(Compare(op, expr, rhs))
        assert verdict == "unknown" or ran == "fails", (expr, rhs)


def test_filters_agree_with_their_leaves_on_generated_conditions():
    rng = random.Random(17)
    answers = collections.Counter()
    while sum(answers.values()) < 600:
        expr = gen_expr(rng, 4)
        if type(expr) is not BinOp:
            continue
        ran, verdict = leaf_verdict(Compare(rng.choice("== != < <= > >=".split()), expr, rng.choice(LEAVES)))
        if verdict == "fails":
            assert ran == "fails", expr  # a settle function rejects only a leaf that fails
        answers["filtered" if verdict == "fails" else "handed back" if ran == "fails" else ran] += 1
    # the settle function answers the plain case and hands back every other: an
    # unset read, a term, a parameter two steps away, an error
    assert min(answers["filtered"], answers["holds"], answers["handed back"]) >= 10, answers
    assert sum(answers[kind] for kind in interp.ERROR_KINDS) >= 20, answers


def test_parsed_conditions_filter_as_their_leaves_run():
    for text, value in (("x * x + 3 * x - 1", 53), ("1 + 2 + 3 + 4 + 5", 15), ("x - (x - (x - 1))", 5),
                        ("x / 4 * 4", 4), ("(x + 1) * (x - 1) / 5", 7)):
        expr = parse_program(f"main {{ choose(x in {{6}}) s = {text} }}").main.body.expr
        assert eval_int({}, {}, expr, {"x": Int(6)}) == value
        assert leaf_verdict(Compare("==", expr, IntLit(value))) == ("holds", "unknown"), text
        assert leaf_verdict(Compare("!=", expr, IntLit(value))) == ("fails", "fails"), text


def settle_of(source):
    """The settle function of the first bounded choose in source's main,
    forced, with no kept set."""
    return hot._compile_settle(parse_program(source).main, None)


def test_a_filter_ends_at_a_goal_it_cannot_compile():
    for text in ("fib(x) + 1", "1 + fact(3)", "x + f(1)", "x + red"):
        assert settle_of(f"main {{ choose(x in {{1..3}}) {text} == 5 }}") == (None, 0), text
        settle, deepest = settle_of(f"main {{ choose(x in {{1..3}}) (x > 1; {text} == 5) }}")
        # fails at x > 1 after the Seq and the condition; reaches text at x = 2
        assert [one_leaf(settle, Int(x)) for x in (1, 2)] == [2, None], text
        assert deepest == 1
    # a call, a choose or a unification with a term ends the run too
    for goal in ("p(x)", "choose(y in {1}) y == x", "choose(y) y == x", "x == f(1)"):
        settle, _ = settle_of(
            f"p(n) {{ n == 0 }} main {{ choose(x in {{1..3}}) (x > 1; {goal}; x > 5) }}")
        assert [one_leaf(settle, Int(x)) for x in (1, 2)] == [2, None], goal


def test_generated_code_holds_no_program_text():
    # names and literal values reach the settle function through its namespace
    name = "zzyzx"
    condition = Compare("==", BinOp("+", VarRef(name), BinOp("*", TermLit(Var("qqq")), IntLit(987654321))),
                        IntLit(123456789))
    settle, _ = hot._compile_settle(BoundedChoose("qqq", Range(1, 2), condition), (Int(1), Int(2)))
    code = settle.__code__
    assert name not in code.co_consts and name not in code.co_names and "qqq" not in code.co_names
    assert 987654321 not in code.co_consts and 123456789 not in code.co_consts
    assert one_leaf(settle, Int(2), {name: Int(1)}) == 1
    assert one_leaf(settle, Int(1), {name: Int(123456789 - 987654321)}) is None


def innermost_choose(goal):
    """The innermost of the nested bounded chooses that goal, or the last
    goal of its ; spine, begins with."""
    while type(goal) is not BoundedChoose or type(goal.body) is BoundedChoose:
        goal = goal.second if type(goal) is Seq else goal.body
    return goal


# what compile() costs grows with the code, so each settle function's
# statements, as ast counts them with the def, are pinned at their count
@pytest.mark.parametrize("source,statements", [
    ((PROGRAMS / "pythagorean.choo").read_text(), 18),
    (SHAPES["pyth"], 18),
    (SHAPES["change"], 16),
    (SHAPES["rollback"], 16),
], ids=["pythagorean", "pyth", "change", "rollback"])
def test_a_settle_function_stays_small(source, statements):
    code, _, _ = hot._settle_source(innermost_choose(parse_program(source).main), None)
    assert sum(isinstance(node, ast.stmt) for node in ast.walk(ast.parse(code))) <= statements, code
    assert not re.search(r"\b(\w+) is None or \1 is None\b", code), code  # x * x tests x once


def test_a_value_its_set_keeps_in_64_bits_is_not_range_tested():
    def tests_range(source):
        return str(INT64_MAX) in hot._settle_source(innermost_choose(parse_program(source).main), None)[0]

    assert not tests_range("main { choose(x in {1..20}) x * x - 3 * x == 40 }")
    assert not tests_range("main { choose(x in {-3037000499..3037000499}) x * x > 0 }")
    assert tests_range("main { choose(x in {-3037000499..3037000500}) x * x > 0 }")
    assert tests_range("main { s = 1; choose(x in {1..20}) s + x == 40 }")
    # a quotient is no wider than its dividend, but -2**63 / -1 overflows
    assert not tests_range("main { choose(x in {-5..5}) (x + 1) / (x - 9) == 0 }")
    assert tests_range("main { s = 2; choose(x in {0..1}) (x - 9223372036854775807 - 1) / (1 - s) == 0 }")


def test_a_long_sum_compiles_at_the_default_recursion_limit():
    expr = IntLit(1)
    for _ in range(3000):
        expr = BinOp("+", expr, TermLit(Var("x")))
    expr = BinOp("-", IntLit(0), expr)
    for _ in range(450):  # as deep as the parser nests
        expr = BinOp("*", IntLit(1), expr)
    goal = BoundedChoose("x", Range(0, 2), Compare("==", expr, IntLit(-3001)))
    assert sys.getrecursionlimit() == 1000
    settle, _ = hot._compile_settle(goal, None)
    assert [one_leaf(settle, Int(x)) for x in (0, 1, 2)] == [1, None, 1]
    assert [eval_int({}, {}, expr, {"x": Int(x)}) for x in (0, 1, 2)] == [-1, -3001, -6001]
    program = dataclasses.replace(parse_program("main { 1 == 1 }"), main=goal)
    _, verdicts = forced_and_forbidden(lambda: observe(program))
    # the first call rejects x = 0 and hands back x = 1; the second rejects x = 2
    assert (verdicts["fails"], verdicts["unknown"], verdicts["calls"]) == (2, 1, 2)


# --- settle functions against running without them -------------------------------------------

def test_filters_change_nothing_a_search_shows():
    programs = [gen_program(random.Random(seed)) for seed in range(3000)]
    programs += [parse_program(path.read_text()) for path in sorted(PROGRAMS.glob("*.choo"))]
    programs += [parse_program(source) for source in SHAPES.values()]
    # an affine == over two wide ranges: each point's loop scans hundreds of leaves
    programs.append(parse_program(
        "main { choose(x in {1..300}) choose(y in {1..300}) (x + y == 599; s = x) }"))
    seen, verdicts = check_programs(programs)
    assert verdicts["fails"] > 10_000 and verdicts["unknown"] > 1_000, verdicts
    kinds = collections.Counter(s[-1][-1] for s, _ in seen if s and type(s[-1][0]) is str)
    assert kinds["steps"] > 300 and kinds["depth"] > 300, kinds


def ends(seen):
    """How each search ended: "steps" or "depth", the error kind, or "end"."""
    return collections.Counter((s[-1][1] or s[-1][2]) if s and type(s[-1][0]) is str else "end"
                               for s, _ in seen)


@pytest.mark.parametrize("shape", SHAPES)
def test_filters_change_no_budget_exhaustion(shape):
    # max_steps 1-600, and max_depth 1-8 around each leaf's nesting
    seen, verdicts = check_sweep(SHAPES[shape])
    kinds = ends(seen)
    assert kinds["steps"] >= 450 and kinds["depth"] >= 4 and kinds["end"] >= 4, kinds
    assert verdicts["fails"] > 0


@pytest.mark.parametrize("edge,shows", [
    ("overflows_high", "overflow"),
    ("overflows_low", "overflow"),
    ("ground_set", "end"),
    ("atom_in_set", "not-integer"),
    ("squares_at_the_edge", "overflow"),
    ("squared_again", "overflow"),
    ("squared_plus_zero", "overflow"),
    ("squared_over_one", "overflow"),
    ("never", "end"),
    ("always", "end"),
])
def test_settle_edges_change_no_budget_exhaustion(edge, shows):
    seen, _ = check_sweep(SETTLE_EDGES[edge])
    kinds = ends(seen)
    assert kinds[shows] >= 4 and kinds["steps"] >= 10, kinds


def test_a_value_squared_after_the_compile_is_tested_before_it_grows(monkeypatch):
    # s is 0 until x = 100, long after z's choose is compiled at the
    # shipped threshold; then, at z = 1, s * s + 0 leaves 64 bits at its
    # second square, where the leaf must be handed back, not squared on
    program = parse_program("main { choose(x in {0..100}) choose(z in {0..4})"
                            " (s = z * (x / 100) * 3037000499;" + " s = s * s + 0;" * 40 + " s == 1) }")
    made = []
    compile_settle = hot._compile_settle
    monkeypatch.setattr(hot, "_compile_settle",
                        lambda goal, kept: made.append(goal.var) or compile_settle(goal, kept))
    budget = SearchBudget(2000, 1_000_000)
    seen, steps = observe(program, budget)
    assert made[0] == "z" and seen == [("EvalError", "overflow", "integer overflow")], seen
    monkeypatch.setattr(hot, "_compile_settle", lambda goal, kept: (None, 0))
    assert observe(program, budget) == (seen, steps)


@pytest.mark.parametrize("source", [
    "main { choose(x in {1..12}) choose(y in {5, 2, 9, 4, 11, 7, 3, 8, 12, 1, 6, 10})"
    " choose(z in {0..11}) (x * 17 + y * 11 + z * 23 == 300; coins = x + y + z) }",
    "main { acc = 3; choose(x in {1..12}) choose(y in {5, 2, 9, 4, 11, 7, 3, 8, 12, 1, 6, 10})"
    " choose(z in {0..11}) (acc = acc + x * y + z; acc == 40) }",
], ids=["change", "rollback"])
def test_a_choice_point_is_settled_in_a_few_calls(source):
    # w = 12 values per choose: w * w innermost points, w ** 3 leaves. Each
    # point is settled in at most two calls
    w = 12
    program = parse_program(source)
    (seen, _), verdicts = forced_and_forbidden(lambda: observe(program, SearchBudget(100, 10**6)))
    assert len(seen) > 5 and type(seen[-1][0]) is dict  # solutions, and no error
    assert verdicts["fails"] + verdicts["unknown"] == w ** 3
    assert verdicts["calls"] <= 2 * w * w, verdicts


# --- fallbacks ------------------------------------------------------------------------------

# each program, what its search shows, and how many of its leaves the
# settle function rejects and hands back
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
    # a v-free value with no value, computed once, is tested only where it
    # is used: a leaf that the condition before it rejects stays rejected
    ("main { s = 7; choose(z in {0..200}) (z < 3; s / 0 == 1) }", "division", 0, 1),
    ("main { s = 7; choose(z in {0..200}) (z > 197; s / 0 == 1) }", "division", 198, 1),
    ("main { s = 9223372036854775807; choose(z in {0..200}) (z > 197; s + 1 == 1) }", "overflow", 198, 1),
    ("main { choose(z in {0..200}) (z > 197; t * 2 == 1; t = 0) }", "no solution", 198, 3),
], ids=["divides by zero", "overflows", "reads an unset name", "parameter one step away",
        "parameter two steps away", "unifies a compound", "compares a compound", "calls fib",
        "assigns then reads", "assigns twice, then fails", "assigns twice, then holds",
        "hoists a division by zero", "hoists a division by zero past rejected leaves",
        "hoists an overflow past rejected leaves", "hoists an unset read past rejected leaves"])
def test_a_leaf_the_filter_cannot_decide_runs_as_before(source, shows, fails, unknown):
    program = parse_program(source)
    (seen, _), verdicts = forced_and_forbidden(lambda: observe(program))
    assert (verdicts["fails"], verdicts["unknown"]) == (fails, unknown)
    if seen and type(seen[-1][0]) is str:
        assert seen[-1][1] == shows
    else:
        x = [o.witnesses[-1][1].value for o in execute(program)]
        assert ([f"x = {v}" for v in x] or ["no solution"]) == [shows]


def test_a_traced_search_never_compiles_or_calls_a_filter(monkeypatch):
    def refuse(goal, kept):
        raise AssertionError("a settle function compiled under a trace")

    monkeypatch.setattr(hot, "_HOT_AFTER", 0)
    monkeypatch.setattr(hot, "_compile_settle", refuse)
    rules = []
    outs = list(execute(parse_program(SHAPES["pyth"]), on_rule=lambda rule, at: rules.append(rule)))
    # rule 8 at each of the 1 + 8 + 64 chooses run, and at each of their leaves
    assert len(outs) == 2 and rules.count(8) == (1 + 8 + 64) + (8 * 8 * 10 + 8 * 8 + 8)


# --- when a search compiles -----------------------------------------------------

def test_a_filter_is_compiled_once_its_choose_is_hot_and_only_for_its_search(monkeypatch):
    made = []
    compile_settle = hot._compile_settle

    def recording(goal, kept):
        settle, deepest = compile_settle(goal, kept)
        made.append((goal.var, settle is not None))
        return settle, deepest

    monkeypatch.setattr(hot, "_compile_settle", recording)
    program = parse_program("main { choose(x in {1..200}) choose(y in {0..1})"
                            " (s = x * 2 + y; x * 3 - y == 453; u = x + y; t = fib(x - 149)) }")
    for _ in range(2):  # nothing is kept from one search to the next
        outs = list(execute(program))
        assert [o.witnesses for o in outs] == [(("x", Int(151)), ("y", Int(0)))]
        assert outs[0].store == {"s": Int(302), "u": Int(151), "t": Int(1)}
    # y's choose, two leaves for each x, is hot first and gets its settle
    # function; x's later, and its body begins with no condition
    assert made == [("y", True), ("x", False)] * 2


@pytest.mark.parametrize("hot_after", [hot._HOT_AFTER, 5])
def test_a_choose_compiles_at_the_visit_after_hot_after(monkeypatch, hot_after):
    # each visit to a point of x's choose takes one leaf, the last one too
    made = []
    compile_settle = hot._compile_settle
    monkeypatch.setattr(hot, "_HOT_AFTER", hot_after)
    monkeypatch.setattr(hot, "_compile_settle",
                        lambda goal, kept: made.append(goal.var) or compile_settle(goal, kept))
    for visits, compiled in ((hot_after, []), (hot_after + 1, ["x"])):
        made.clear()
        outs = list(execute(parse_program(f"main {{ choose(x in {{1..{visits}}}) x > {visits - 1} }}")))
        assert [o.witnesses for o in outs] == [(("x", Int(visits)),)]
        assert made == compiled, visits


def test_the_hot_after_reference_measures_one_choose():
    # tests/hot_reference.py derives _HOT_AFTER from timings over 68
    # chooses and is run by hand; its measurement runs here once, on one
    # program with one repeat, so that the script cannot rot
    compile_cost, repay, leaves = hot_reference.measure(hot_reference.pools()[0], repeats=1)
    assert leaves == 12 ** 3
    assert compile_cost > 0 and repay > 0
    assert [hot_reference.threshold(q3) for q3 in (48, 48.5, 42)] == [64, 65, 56]


@pytest.mark.parametrize("source,compiled", [
    ((PROGRAMS / "backtracking.choo").read_text(), 0),
    ("main { " + "; ".join(["choose(x in {1..2}) (x > 1; s = x)"] * 300) + " }", 0),
    ("main { choose(y in {1..200}) choose(x in {1..2}) (x > 1; s = x + y) }", 2),
], ids=["backtracking", "300_cold_chooses", "one_hot_choose"])
def test_a_search_compiles_only_the_chooses_it_finds_hot(monkeypatch, source, compiled):
    # compiling a settle function costs as much as 43-48 leaf runs: with
    # _HOT_AFTER at 0, backtracking.choo's search took 120-160 us, not 21-27
    # (Python 3.11.7, a shared 2-core host), although nested_choice ran
    # faster; a change to the threshold is measured on both
    made = []
    compile_settle = hot._compile_settle
    monkeypatch.setattr(hot, "_compile_settle",
                        lambda goal, kept: made.append(goal) or compile_settle(goal, kept))
    assert list(execute(parse_program(source)))
    assert len(made) == compiled


def test_pythagorean_triples_skip_the_leaves_their_filter_rejects(monkeypatch):
    # every leaf used to make a choice; now only the leaves run before the
    # settle function, the leaves it passes and the two outer levels do
    chosen = []
    choose = ProgramState.choose
    monkeypatch.setattr(ProgramState, "choose",
                        lambda st, name, term: chosen.append(name) or choose(st, name, term))
    program = parse_program((PROGRAMS / "pythagorean.choo").read_text())
    solver = Solver(ProgramState(program.clauses))
    assert len(list(solver.records(program.main))) == 6
    assert solver.steps == 24853  # as without the tier
    assert chosen.count("a") == 20 and chosen.count("b") == 400
    # the first _HOT_AFTER leaves (b = 1 to 4 at 64, 1 to 7 at 128) have a = 1,
    # where no triple is; each triple passes
    assert hot._HOT_AFTER <= 20 * 20
    assert chosen.count("c") == hot._HOT_AFTER + 6


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


# --- clause selection against trying every clause --------------------------------------

@pytest.mark.parametrize("shape", CLAUSE_SHAPES)
def test_clause_selection_changes_no_budget_exhaustion(shape):
    # max_steps 1-600, and max_depth 1-8 around each call's depth plus its
    # keyed clauses' spines, where a call selects nothing
    seen, verdicts = check_sweep(CLAUSE_SHAPES[shape])
    kinds = ends(seen)
    assert kinds["steps"] >= 25 and kinds["depth"] >= 2 and kinds["end"] >= 2, kinds
    assert verdicts["skipped"] > 0


# CLAUSE_SHAPES with each unbound choose the oracle cannot pin given a
# set, or pinned; the oracle reaches no clause that pins a choose to a
# parameter's value, so the compound and Peano shapes are not here
ORACLE_SHAPES = {
    "int_keys": CLAUSE_SHAPES["int_keys"].replace("choose(y)", "choose(y in {0, 10, 20, 30, 40, 50, 60})"),
    "atom_keys": CLAUSE_SHAPES["atom_keys"].replace("choose(n)", "choose(n in {1..4})"),
    "second_param": CLAUSE_SHAPES["second_param"].replace("choose(a)", "choose(a in {5, 10, 11, 20})"),
    "mixed_positions": CLAUSE_SHAPES["mixed_positions"],
    "unbound": CLAUSE_SHAPES["unbound"].replace("(p(x);", "(x == 2; p(x);"),
    "down_base_first": CLAUSE_SHAPES["down_base_first"],
    "down_base_last": CLAUSE_SHAPES["down_base_last"],
    "fact_base": FACTS + "main { s = 0; choose(k in {38, 3, 41, 17, 0})"
                         " choose(v in {76, 6, 34, 0, 1}) (f(k, v); s = s + v) }",
    "clause_order": CLAUSE_SHAPES["clause_order"],
}


@pytest.mark.parametrize("shape", ORACLE_SHAPES)
def test_clause_selection_matches_the_oracle(shape):
    report = check_equivalence(parse_program(ORACLE_SHAPES[shape]))
    assert report.matched and len(report.engine) >= 2, report.describe()


def test_a_call_selects_by_what_its_argument_walks_to():
    program = parse_program(CLAUSE_SHAPES["atom_keys"])
    clauses = list(program.clauses)
    red1, green, unkeyed, red4 = clauses
    index = hot._index_clauses(clauses)

    def selected(arg, subst=None, depth=1):
        return index.select((arg, Var("n")), {}, subst or {}, depth, 100)

    # a skip record is (fresh variables, steps past the backtrack step
    # that takes it)
    assert index.unbound == clauses
    assert selected(Atom("red")) == [red1, (2, 2), unkeyed, red4]
    assert selected(Var("x"), {"x": Var("y"), "y": Atom("green")}) == [(2, 2), green, unkeyed, (2, 2)]
    assert selected(Atom("blue")) == selected(Int(7)) == selected(Compound("pair", (Atom("red"),))) == [
        (4, 5), unkeyed, (2, 2)]
    assert selected(Var("x")) == selected(Var("x"), {"x": Var("y")}) == clauses
    # where a keyed clause's condition would pass max_depth, it selects nothing
    assert selected(Atom("red"), depth=99) == clauses


def test_a_call_selects_the_clauses_before_the_first_keyed_one_too():
    program = parse_program(CLAUSE_SHAPES["int_keys"])
    clauses = list(program.clauses)
    index = hot._index_clauses(clauses)
    # before the first keyed clause: one keyed on the other position and
    # an unkeyed one, which every call takes
    assert index.unbound == clauses
    assert index.select((Int(-2), Var("v")), {}, {}, 1, 100) == [
        clauses[0], clauses[1], (2, 2), clauses[3], (2, 2), clauses[5]]
    # a countdown whose recursive clause comes first selects at the call:
    # the recursive clause, then the base clause as one skip record
    down = parse_program(CLAUSE_SHAPES["down_base_last"])
    index = hot.clause_table(down.clauses, False)[("down", 1)]
    assert type(index) is hot.ClauseIndex
    assert index.select((Int(5),), {}, {}, 1, 100) == [down.clauses[0], (1, 1)]


def test_a_single_clause_and_a_traced_search_keep_plain_lists():
    program = parse_program("one(k) { k == 1 }\n" + CLAUSE_SHAPES["peano"])
    one, mk, nat = program.clauses[:1], program.clauses[1:3], program.clauses[3:]
    table = hot.clause_table(program.clauses, False)
    assert type(table[("mk", 2)]) is type(table[("nat", 1)]) is hot.ClauseIndex
    assert table[("one", 1)] == list(one)
    assert hot.clause_table(program.clauses, True) == {
        ("mk", 2): list(mk), ("nat", 1): list(nat), ("one", 1): list(one)}


def test_a_traced_search_tries_every_clause(monkeypatch):
    def refuse(clauses):
        raise AssertionError("a clause index built under a trace")

    monkeypatch.setattr(hot, "_index_clauses", refuse)
    rules = []
    outs = list(execute(parse_program(CLAUSE_SHAPES["clause_order"]),
                        on_rule=lambda rule, at: rules.append(rule)))
    assert len(outs) == 2 and rules.count(1) == 6 * 2  # a body entered for both clauses at each y


def test_fact_lookups_bind_linearly_many_parameters(monkeypatch):
    # n facts f(k, v) and n lookups: a call that tries every clause binds
    # both parameters of each clause up to the one that matches, n(n + 1) in
    # all; one that selects binds those of the matching clause alone
    binds = []
    bind = ProgramState.bind
    monkeypatch.setattr(ProgramState, "bind", lambda st, var, term: binds.append(var) or bind(st, var, term))

    def search(program):
        solver = Solver(ProgramState(program.clauses), SearchBudget(10_000, 10**8))
        binds.clear()
        records = [(rule, id(goal), label, env)
                   for rule, goal, label, env in records_of(next(solver.records(program.main)))]
        return records, solver.steps, len(binds)

    for n in (100, 200, 400):
        program = parse_program("".join(f"f(k, v) {{ k == {i}; v == {2 * i} }}\n" for i in range(n))
                                + "main { s = 0; " + "; ".join(
                                    f"choose(v{i}) (f({i}, v{i}); s = s + v{i})" for i in range(n)) + " }")
        selected, steps, bound = search(program)
        with monkeypatch.context() as patch:
            patch.setattr(hot, "_index_clauses", lambda clauses: None)
            tried, tried_steps, tried_bound = search(program)
        assert bound == 2 * n and tried_bound == n * (n + 1)
        assert steps == tried_steps and selected == tried


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
    apply = hot.apply

    def counting(mapping, term, *memo):
        resolved[id(term)] += 1
        return apply(mapping, term, *memo)

    monkeypatch.setattr(hot, "apply", counting)

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


def test_a_set_is_tested_for_binders_once_per_search(monkeypatch):
    tested = []
    free_vars = hot.free_vars
    monkeypatch.setattr(hot, "free_vars", lambda term, *rest: tested.append(term) or free_vars(term, *rest))
    program = parse_program("main { choose(x in {1..50}) choose(y in {x, 9}) y == 0 }")
    assert list(execute(program)) == []
    # at the first entry; the verdict, that x names a binder, is kept
    assert tested == [program.main.body.cset.elements[0]]


def test_a_range_makes_its_elements_once_per_search(monkeypatch, compiled):
    program = parse_program("main { choose(x in {1..3}) choose(y in {1..50}) y == 0 }")
    made = count_ints(monkeypatch)
    assert list(execute(program)) == []
    # the settle function rejects every leaf, so the literal 0 is never made
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

    width = 4 * hot._RANGE_CAP
    # kept, the elements would take over 100 bytes each
    assert peak(4 * width) < peak(width) + 50_000


# --- every pinned output, with each settle function compiled at its first visit ------------

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
