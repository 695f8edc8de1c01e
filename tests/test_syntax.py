"""Goal substitution, free variables, and the canonical surface form."""

import dataclasses
import random

from choo import (
    Assign,
    Atom,
    BinOp,
    BoundedChoose,
    Call,
    Choose,
    Compare,
    Compound,
    Enum,
    FunCall,
    Int,
    IntLit,
    Range,
    Seq,
    TermLit,
    Var,
    VarRef,
    format_goal,
    parse_goal,
    subst_goal,
)
from choo.gen import gen_program

LOGIC_NAMES = ("x", "y", "z", "w", "k")


def lv(name):
    """A logic variable in expression position."""
    return TermLit(Var(name))


# --- substitution ------------------------------------------------------------

def test_subst_reaches_builtin_arguments():
    g = Compare("==", IntLit(5), FunCall("fib", lv("x")))
    expected = Compare("==", IntLit(5), FunCall("fib", TermLit(Int(6))))
    assert subst_goal(g, "x", Int(6)) == expected


def test_subst_stops_at_a_shadowing_binder():
    g = Choose("x", Compare("==", lv("x"), IntLit(1)))
    assert subst_goal(g, "x", Int(3)) == g


def test_subst_replaces_every_free_occurrence():
    g = Seq(
        Compare("==", lv("x"), IntLit(1)),
        Compare("==", lv("y"), lv("x")),
    )
    expected = Seq(
        Compare("==", TermLit(Int(1)), IntLit(1)),
        Compare("==", lv("y"), TermLit(Int(1))),
    )
    assert subst_goal(g, "x", Int(1)) == expected


def test_subst_descends_into_compound_terms():
    g = Compare("==", TermLit(Compound("f", (Var("x"), Atom("a")))), lv("y"))
    out = subst_goal(g, "x", Atom("b"))
    assert out == Compare("==", TermLit(Compound("f", (Atom("b"), Atom("a")))), lv("y"))


def test_subst_reaches_a_shadowed_binders_choice_set():
    # the set of a bounded choose is evaluated outside its own binder
    g = BoundedChoose("x", Enum((Var("x"), Atom("a"))), Compare("==", lv("x"), lv("x")))
    out = subst_goal(g, "x", Int(3))
    assert out.cset == Enum((Int(3), Atom("a")))
    assert out.body == g.body


def test_subst_reaches_call_arguments_and_assignment_sources():
    g = Seq(Assign("s", lv("x")), Compare("==", VarRef("s"), IntLit(0)))
    out = subst_goal(g, "x", Int(0))
    assert out == Seq(Assign("s", TermLit(Int(0))), Compare("==", VarRef("s"), IntLit(0)))


def test_subst_returns_the_goal_itself_when_the_name_is_not_free():
    g = parse_goal("choose(x in {1..3}) (s = x + fib(y); p(x, f(y)); x <= y)", {"y"})
    assert subst_goal(g, "z", Int(1)) is g
    assert subst_goal(g, "x", Int(1)) is g  # bound by the choose, so not free


def test_subst_keeps_a_shadowing_binders_body():
    body = Compare("==", lv("x"), IntLit(1))
    g = Seq(Compare("<", lv("x"), IntLit(5)), Choose("x", body))
    assert subst_goal(g, "x", Int(3)).second is g.second
    bounded = BoundedChoose("x", Enum((Var("x"),)), body)
    out = subst_goal(bounded, "x", Int(3))
    assert out.cset == Enum((Int(3),))
    assert out.body is body


def test_subst_rebuilds_only_the_paths_to_the_name():
    g = parse_goal("x * x + y * y == z * z + 3; x <= y", {"x", "y", "z"})
    out = subst_goal(g, "z", Int(2))
    two = TermLit(Int(2))
    assert out == Seq(Compare("==", g.first.lhs, BinOp("+", BinOp("*", two, two), IntLit(3))), g.second)
    assert out.first.lhs is g.first.lhs
    assert out.first.rhs.right is g.first.rhs.right
    assert out.second is g.second


# --- free variables ------------------------------------------------------------
#
# free_vars_goal is the reference the substitution properties below are
# checked against; nothing in the interpreter needs it

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


# --- properties over generated goals ---------------------------------------------

def _goals(rng, count):
    produced = 0
    while produced < count:
        program = gen_program(rng)
        for goal in [program.main] + [c.body for c in program.clauses]:
            yield goal
            produced += 1


def _binder_shape(goal):
    if isinstance(goal, Seq):
        return ("seq", _binder_shape(goal.first), _binder_shape(goal.second))
    if isinstance(goal, Choose):
        return ("choose", _binder_shape(goal.body))
    if isinstance(goal, BoundedChoose):
        return ("bounded", _binder_shape(goal.body))
    return ()


def test_identity_substitution_changes_nothing():
    rng = random.Random(2001)
    for goal in _goals(rng, 300):
        for name in LOGIC_NAMES:
            assert subst_goal(goal, name, Var(name)) == goal


def test_substitution_preserves_binder_structure():
    rng = random.Random(2002)
    for goal in _goals(rng, 300):
        replacement = Compound("f", (Int(rng.randint(-5, 5)), Var("q")))
        name = rng.choice(LOGIC_NAMES)
        assert _binder_shape(subst_goal(goal, name, replacement)) == _binder_shape(goal)


def test_substitution_bounds_free_variables():
    rng = random.Random(2003)
    for goal in _goals(rng, 300):
        name = rng.choice(LOGIC_NAMES)
        replacement = Compound("g", (Var("fresh"), Atom("a")))
        repl_vars = set()
        _term_var_names(replacement, repl_vars)
        before = free_vars_goal(goal)
        after = free_vars_goal(subst_goal(goal, name, replacement))
        assert after <= (before - {name}) | repl_vars


def _subst_everywhere(node, name, value):
    """Reference substitution that rebuilds every node and shares none.

    A name of None substitutes nothing and only copies.
    """
    if isinstance(node, Var):
        return value if node.name == name else Var(node.name)
    if isinstance(node, tuple):
        return tuple(_subst_everywhere(n, name, value) for n in node)
    if not dataclasses.is_dataclass(node):
        return node  # a name, an operator or an integer
    if isinstance(node, (Choose, BoundedChoose)) and node.var == name:
        body = _subst_everywhere(node.body, None, value)  # copied: the binder hides name
        if isinstance(node, Choose):
            return Choose(name, body)
        return BoundedChoose(name, _subst_everywhere(node.cset, name, value), body)
    fields = dataclasses.fields(node)
    return type(node)(*(_subst_everywhere(getattr(node, f.name), name, value) for f in fields))


def test_substitution_agrees_with_rebuilding_everything():
    rng = random.Random(2004)
    for goal in _goals(rng, 300):
        for name in LOGIC_NAMES:
            free = name in free_vars_goal(goal)
            for value in (Int(rng.randint(-5, 5)), Compound("f", (Atom("a"), Var("q")))):
                out = subst_goal(goal, name, value)
                assert repr(out) == repr(_subst_everywhere(goal, name, value))
                assert (out is goal) == (not free)


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
