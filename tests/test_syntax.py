"""Free variables, free occurrences, and the canonical surface form."""

import random

from choo.parser import parse_goal, parse_program
from choo.shrink import shrink
from choo.syntax import (
    Assign,
    BinOp,
    BoundedChoose,
    Call,
    Choose,
    Compare,
    Enum,
    FunCall,
    IntLit,
    Range,
    Seq,
    TermLit,
    VarRef,
    format_goal,
    format_program,
    mentions,
)
from choo.terms import Atom, Compound, Int, Var
from proggen import gen_program

LOGIC_NAMES = ("x", "y", "z", "w", "k")


def lv(name):
    """A logic variable in expression position."""
    return TermLit(Var(name))


# --- free variables ------------------------------------------------------------
#
# free_vars_goal is the reference mentions is checked against below;
# nothing in the interpreter needs it

def _expr_vars(expr, out):
    if isinstance(expr, TermLit):
        _term_var_names(expr.term, out)
    elif isinstance(expr, BinOp):
        _expr_vars(expr.left, out)
        _expr_vars(expr.right, out)
    elif isinstance(expr, FunCall):
        _expr_vars(expr.arg, out)


def free_vars_goal(goal):
    """Names of logic variables free in goal (binders subtracted)."""
    out = set()
    if isinstance(goal, Call):
        for a in goal.args:
            _term_var_names(a, out)
        return out
    if isinstance(goal, Compare):
        _expr_vars(goal.lhs, out)
        _expr_vars(goal.rhs, out)
        return out
    if isinstance(goal, Assign):
        _expr_vars(goal.expr, out)
        return out
    if isinstance(goal, Seq):
        return free_vars_goal(goal.first) | free_vars_goal(goal.second)
    if isinstance(goal, Choose):
        return free_vars_goal(goal.body) - {goal.var}
    if isinstance(goal, BoundedChoose):
        if isinstance(goal.cset, Enum):
            for e in goal.cset.elements:
                _term_var_names(e, out)
        return out | (free_vars_goal(goal.body) - {goal.var})
    raise TypeError(f"not a goal: {goal!r}")


def _term_var_names(term, out):
    if isinstance(term, Var):
        out.add(term.name)
    elif isinstance(term, Compound):
        for a in term.args:
            _term_var_names(a, out)


def test_free_vars_subtracts_the_binder():
    g = Choose("x", Compare("==", lv("x"), lv("y")))
    assert free_vars_goal(g) == {"y"}


def test_free_vars_ignores_store_targets_and_reads():
    assert free_vars_goal(Assign("x", IntLit(3))) == set()
    assert free_vars_goal(Compare("<", VarRef("x"), IntLit(5))) == set()


def test_free_vars_of_a_record_match_condition():
    g = Compare(
        "==",
        TermLit(Compound("tuple", (Var("n"), Var("a"), Var("s")))),
        lv("emp"),
    )
    assert free_vars_goal(g) == {"n", "a", "s", "emp"}


def test_free_vars_sees_enum_elements_outside_the_binder():
    g = BoundedChoose("x", Enum((Var("y"),)), Compare("==", lv("x"), IntLit(1)))
    assert free_vars_goal(g) == {"y"}
    g2 = BoundedChoose("x", Enum((Var("x"),)), Compare("==", lv("x"), IntLit(1)))
    assert free_vars_goal(g2) == {"x"}
    assert not mentions("x", (g,)) and mentions("x", (g2,))



# --- free occurrences ----------------------------------------------------------

def test_mentions_reaches_builtin_arguments():
    g = Compare("==", IntLit(5), FunCall("fib", lv("x")))
    assert mentions("x", (g,))


def test_mentions_stops_at_a_shadowing_binder():
    g = Choose("x", Compare("==", lv("x"), IntLit(1)))
    assert not mentions("x", (g,))


def test_mentions_finds_an_occurrence_in_either_half_of_a_sequence():
    first = Compare("==", lv("x"), IntLit(1))
    other = Compare("==", lv("y"), IntLit(2))
    assert mentions("x", (Seq(first, other),))
    assert mentions("x", (Seq(other, first),))
    assert not mentions("x", (Seq(other, other),))


def test_mentions_descends_into_compound_terms():
    g = Compare("==", TermLit(Compound("f", (Var("x"), Atom("a")))), lv("y"))
    assert mentions("x", (g,))
    assert not mentions("a", (g,))  # an atom is not a variable


def test_mentions_reaches_a_shadowed_binders_choice_set():
    # the set of a bounded choose is evaluated outside its own binder
    g = BoundedChoose("x", Enum((Var("x"), Atom("a"))), Compare("==", lv("y"), lv("y")))
    assert mentions("x", (g,))
    assert not mentions("x", (BoundedChoose("x", Range(1, 3), g.body),))


def test_mentions_reaches_call_arguments_and_assignment_sources():
    assert mentions("x", (Call("p", (Atom("a"), Compound("f", (Var("x"),)))),))
    assert mentions("x", (Assign("s", lv("x")),))
    assert not mentions("s", (Assign("s", lv("x")),))  # a store target is not a logic variable


def test_mentions_is_false_when_the_name_is_not_free():
    g = parse_goal("choose(x in {1..3}) (s = x + fib(y); p(x, f(y)); x <= y)", {"y"})
    assert not mentions("z", (g,))
    assert not mentions("x", (g,))  # bound by the choose, so not free
    assert mentions("y", (g,))


def test_mentions_skips_a_shadowing_binders_body():
    body = Compare("==", lv("x"), IntLit(1))
    g = Seq(Compare("<", lv("y"), IntLit(5)), Choose("x", body))
    assert not mentions("x", (g,))
    assert not mentions("x", (BoundedChoose("x", Enum((Var("y"),)), body),))


def test_mentions_reaches_arithmetic_operands():
    g = parse_goal("x * x + y * y == z * z + 3; x <= y", {"x", "y", "z"})
    assert mentions("z", (g,))
    assert mentions("z", (g.first.rhs,))
    assert not mentions("z", (g.first.lhs, g.second))


# --- properties over generated goals ---------------------------------------------

def _goals(rng, count):
    produced = 0
    while produced < count:
        program = gen_program(rng)
        for goal in [program.main] + [c.body for c in program.clauses]:
            yield goal
            produced += 1


def _shadowing_goals(rng, count):
    """Nests of chooses over two names whose sets read those names, such as
    choose(x in {1}) choose(x in {x, 2}) x == 1: a set read by its own
    binder's name, which gen_program almost never draws."""
    names = LOGIC_NAMES[:2]
    for _ in range(count):
        goal = Compare("==", lv(rng.choice(names)), IntLit(1))
        for _ in range(rng.randint(1, 3)):
            var = rng.choice(names)
            if rng.random() < 0.2:
                goal = Choose(var, goal)
                continue
            elements = tuple(
                Var(rng.choice(names)) if rng.random() < 0.5 else Int(rng.randint(1, 2))
                for _ in range(rng.randint(1, 2))
            )
            goal = BoundedChoose(var, Enum(elements), goal)
        yield goal


def test_mentions_agrees_with_free_vars():
    goals = [*_goals(random.Random(2001), 300), *_shadowing_goals(random.Random(2004), 300)]
    for goal in goals:
        free = free_vars_goal(goal)
        for name in LOGIC_NAMES:
            assert mentions(name, (goal,)) == (name in free)



def _program_free_vars(program):
    return set().union(*(free_vars_goal(g) for g in [program.main] + [c.body for c in program.clauses]))


def test_shrink_candidates_keep_free_variables():
    # a variant that freed a name would run its goal with that name unbound
    rng = random.Random(2003)
    for _ in range(60):
        program = gen_program(rng)
        before = _program_free_vars(program)
        tried = []

        def still_bad(candidate):
            tried.append(candidate)
            return False

        shrink(program, still_bad)
        for candidate in tried:
            assert _program_free_vars(candidate) <= before


def test_format_parenthesizes_sequence_bodies_only():
    seq_body = Choose("x", Seq(Assign("s", IntLit(1)), Compare("==", lv("x"), IntLit(2))))
    flat_body = Choose("x", Compare("==", lv("x"), IntLit(2)))
    assert format_goal(seq_body) == "choose(x) (s = 1; x == 2)"
    assert format_goal(flat_body) == "choose(x) x == 2"


def test_format_keeps_left_nested_sequences_explicit():
    g = Seq(Seq(Assign("s", IntLit(1)), Assign("t", IntLit(2))), Assign("u", IntLit(3)))
    assert format_goal(g) == "(s = 1; t = 2); u = 3"
    right = Seq(Assign("s", IntLit(1)), Seq(Assign("t", IntLit(2)), Assign("u", IntLit(3))))
    assert format_goal(right) == "s = 1; t = 2; u = 3"


def test_format_respects_arithmetic_precedence():
    e = BinOp("*", BinOp("+", IntLit(2), IntLit(3)), IntLit(4))
    assert format_goal(Assign("s", e)) == "s = (2 + 3) * 4"
    e2 = BinOp("+", IntLit(2), BinOp("*", IntLit(3), IntLit(4)))
    assert format_goal(Assign("s", e2)) == "s = 2 + 3 * 4"
    e3 = BinOp("-", IntLit(2), BinOp("-", IntLit(3), IntLit(4)))
    assert format_goal(Assign("s", e3)) == "s = 2 - (3 - 4)"


def test_format_ranges_and_enums():
    g = BoundedChoose("x", Range(1, 50), Compare("==", IntLit(5), FunCall("fib", lv("x"))))
    assert format_goal(g) == "choose(x in {1..50}) 5 == fib(x)"
    g2 = BoundedChoose("x", Enum((Atom("tom"), Atom("bob"))), Compare("==", lv("x"), TermLit(Atom("bob"))))
    assert format_goal(g2) == "choose(x in {tom,bob}) x == bob"
    g3 = BoundedChoose("x", Enum(()), Compare("==", lv("x"), lv("x")))
    assert format_goal(g3) == "choose(x in {}) x == x"


def test_format_under_an_environment_prints_each_binders_value():
    # the search's environments map source names to terms over generated
    # _G variables, which are never keys; a binder hides its name in its
    # body but not in its own choice set
    value = Compound("f", (Var("_G3"),))
    g = parse_goal("choose(x) (choose(x in {x, g(x)}) (x == f(x); p(x)); x == y)", frozenset({"y"}))
    assert format_goal(g.body, {"x": value, "y": Int(2)}) == (
        "choose(x in {f(_G3),g(f(_G3))}) (x == f(x); p(x)); f(_G3) == 2")
    g = parse_goal("p(x, g(y, x), z); s = x + y; x == f(y)", frozenset({"x", "y", "z"}))
    assert format_goal(g, {"x": value, "y": Var("_G7"), "z": Int(4)}) == (
        "p(f(_G3),g(_G7,f(_G3)),4); s = f(_G3) + _G7; f(_G3) == f(_G7)")


def test_format_program_prints_the_source_names():
    program = parse_program(
        "p(x, y) { x == f(y, g(x)); choose(z in {x, 1}) q(z) } q(x) { x == a }"
        " main { choose(x) choose(x in {x, f(x)}) (s = 1 + 2 * 3; p(x, x)) }")
    assert format_program(program) == (
        "p(x,y) {\n  x == f(y,g(x)); choose(z in {x,1}) q(z)\n}\n\n"
        "q(x) {\n  x == a\n}\n\n"
        "main {\n  choose(x) choose(x in {x,f(x)}) (s = 1 + 2 * 3; p(x,x))\n}")
