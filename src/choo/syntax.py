"""Abstract syntax for programs: goals, clauses, expressions, choice sets.

Scoping is resolved before these nodes are built: a name bound by an
enclosing choose or appearing as a clause parameter is a logic variable
(a Var inside a TermLit or term position); any other name is an atom in
term position and, in expression position, either a store read (VarRef,
when the program assigns the name) or again an atom. The nodes here
therefore never need scope information of their own.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

from .terms import Compound, Term, Var, format_term


# --- expressions -----------------------------------------------------------

@dataclass(frozen=True, slots=True)
class IntLit:
    value: int


@dataclass(frozen=True, slots=True)
class VarRef:
    """Read of a store variable by name."""

    name: str


@dataclass(frozen=True, slots=True)
class BinOp:
    op: str  # one of + - * /
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True, slots=True)
class FunCall:
    """Built-in function application; name is fib or fact."""

    name: str
    arg: "Expr"


@dataclass(frozen=True, slots=True)
class TermLit:
    """A term in expression position: a logic variable, atom in a
    compound, or a whole compound term."""

    term: Term


Expr = IntLit | VarRef | BinOp | FunCall | TermLit


# --- goals -----------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class Call:
    name: str
    args: tuple  # tuple[Term, ...]


@dataclass(frozen=True, slots=True)
class Compare:
    """A condition; op is one of == != < <= > >=.

    == unifies its sides when they involve terms; the order comparisons
    require ground integers.
    """

    op: str
    lhs: Expr
    rhs: Expr


@dataclass(frozen=True, slots=True)
class Assign:
    target: str
    expr: Expr


@dataclass(frozen=True, slots=True)
class Seq:
    first: "Goal"
    second: "Goal"


@dataclass(frozen=True, slots=True)
class Choose:
    """choose(x) G: pick any term for x such that G succeeds."""

    var: str
    body: "Goal"


@dataclass(frozen=True, slots=True)
class BoundedChoose:
    """choose(x in S) G: pick an element of S such that G succeeds."""

    var: str
    cset: "ChoiceSet"
    body: "Goal"


Goal = Call | Compare | Assign | Seq | Choose | BoundedChoose


# --- choice sets -----------------------------------------------------------

@dataclass(frozen=True, slots=True)
class Range:
    """Integer range lo..hi, both ends inclusive; empty when lo > hi."""

    lo: int
    hi: int


@dataclass(frozen=True, slots=True)
class Enum:
    elements: tuple  # tuple[Term, ...] in written order, duplicates kept


ChoiceSet = Range | Enum


# --- programs --------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class Clause:
    name: str
    params: tuple  # tuple[str, ...], pairwise distinct
    body: Goal


@dataclass(frozen=True, slots=True)
class SourceProgram:
    clauses: tuple  # tuple[Clause, ...] in source order
    main: Goal


def seq_of(goals):
    """Right-fold goals into a Seq spine."""
    goal = goals[-1]
    for g in reversed(goals[:-1]):
        goal = Seq(g, goal)
    return goal


# --- substitution ------------------------------------------------------------

def _left_spine(expr) -> list:
    """BinOps down the left of a chain such as 1 + 2 + 3, outermost first."""
    spine = []
    while type(expr) is BinOp:
        spine.append(expr)
        expr = expr.left
    return spine


def _subst_term(term, name, value):
    """term with value for the variable name; a subterm without it is shared."""
    if type(term) is not Compound:
        return value if type(term) is Var and term.name == name else term
    # arguments are rebuilt before their parents from an explicit stack:
    # substituted values nest deeper than the interpreter's recursion limit
    done, stack = [], [term]
    while stack:
        t = stack.pop()
        if type(t) is Compound:
            stack.append((t,))  # built once its arguments are done
            stack.extend(reversed(t.args))
        elif type(t) is tuple:
            c, n = t[0], len(t[0].args)
            args = tuple(done[-n:])
            if not all(map(operator.is_, args, c.args)):
                c = Compound(c.functor, args)
            done[-n:] = [c]
        else:
            done.append(value if type(t) is Var and t.name == name else t)
    return done[0]


def _subst_expr(expr, name, value):
    kind = type(expr)
    if kind is TermLit:
        term = _subst_term(expr.term, name, value)
        return expr if term is expr.term else TermLit(term)
    if kind is BinOp:
        spine = _left_spine(expr)
        expr = _subst_expr(spine[-1].left, name, value)
        for node in reversed(spine):
            right = _subst_expr(node.right, name, value)
            if expr is not node.left or right is not node.right:
                node = BinOp(node.op, expr, right)
            expr = node
        return expr
    if kind is FunCall:
        arg = _subst_expr(expr.arg, name, value)
        return expr if arg is expr.arg else FunCall(expr.name, arg)
    return expr


def subst_goal(goal, name, value):
    """Replace free occurrences of the logic variable name in goal.

    Only the path from the root to each occurrence is rebuilt: a subgoal,
    expression or term the name does not occur free in is returned as the
    same object, and so is goal itself. Inner binders of the same name
    shadow: their bodies are left alone. A bounded choose's set lies
    outside its own binder's scope, so the set is substituted even when
    the binder shadows the name. The shrinker in gen.py uses this.
    """
    kind = type(goal)
    if kind is Seq:  # the right spine of a ; chain, in a loop
        spine = []
        while type(goal) is Seq:
            spine.append(goal)
            goal = goal.second
        goal = subst_goal(goal, name, value)
        for node in reversed(spine):
            first = subst_goal(node.first, name, value)
            if first is not node.first or goal is not node.second:
                node = Seq(first, goal)
            goal = node
        return goal
    if kind is Compare:
        lhs, rhs = _subst_expr(goal.lhs, name, value), _subst_expr(goal.rhs, name, value)
        return goal if lhs is goal.lhs and rhs is goal.rhs else Compare(goal.op, lhs, rhs)
    if kind is Assign:
        expr = _subst_expr(goal.expr, name, value)
        return goal if expr is goal.expr else Assign(goal.target, expr)
    if kind is Call:
        args = tuple(_subst_term(a, name, value) for a in goal.args)
        return goal if all(map(operator.is_, args, goal.args)) else Call(goal.name, args)
    if kind is Choose:
        body = goal.body if goal.var == name else subst_goal(goal.body, name, value)
        return goal if body is goal.body else Choose(goal.var, body)
    if kind is BoundedChoose:
        cset = goal.cset
        if type(cset) is Enum:
            elements = tuple(_subst_term(e, name, value) for e in cset.elements)
            if not all(map(operator.is_, elements, cset.elements)):
                cset = Enum(elements)
        body = goal.body if goal.var == name else subst_goal(goal.body, name, value)
        if cset is goal.cset and body is goal.body:
            return goal
        return BoundedChoose(goal.var, cset, body)
    raise TypeError(f"not a goal: {goal!r}")


# --- canonical surface form --------------------------------------------------
#
# Formatting inverts parsing: parse(format_goal(g)) rebuilds g exactly,
# provided g is a goal the parser itself could have produced. Parentheses
# are inserted only where precedence or sequencing demands them.

_PREC = {"+": 1, "-": 1, "*": 2, "/": 2}


def format_expr(expr: Expr, env: dict | None = None, _min_prec: int = 0) -> str:
    if isinstance(expr, IntLit):
        return str(expr.value)
    if isinstance(expr, VarRef):
        return expr.name
    if isinstance(expr, TermLit):
        return format_term(expr.term, env)
    if isinstance(expr, FunCall):
        return f"{expr.name}({format_expr(expr.arg, env)})"
    if isinstance(expr, BinOp):
        # a left-nested chain is walked in a loop, innermost first; a left
        # child may share the precedence, a right one needs parens then
        outer = None
        while isinstance(expr, BinOp):
            outer, expr = (expr, outer), expr.left
        text, p = format_expr(expr, env), 3  # no operator binds tighter than a leaf
        while outer is not None:
            expr, outer = outer
            if p < _PREC[expr.op]:
                text = f"({text})"
            p = _PREC[expr.op]
            text = f"{text} {expr.op} {format_expr(expr.right, env, p + 1)}"
        return f"({text})" if p < _min_prec else text
    raise TypeError(f"not an expression: {expr!r}")


def format_set(cset: ChoiceSet, env: dict | None = None) -> str:
    if isinstance(cset, Range):
        return f"{{{cset.lo}..{cset.hi}}}"
    return f"{{{','.join(format_term(e, env) for e in cset.elements)}}}"


def _shadow(env, name):
    """env inside a binder of name, which hides the outer value."""
    return {k: v for k, v in env.items() if k != name} if env and name in env else env


def format_goal(goal: Goal, env: dict | None = None) -> str:
    """Text of goal with the variables env names replaced by their values."""
    if isinstance(goal, Call):
        return f"{goal.name}({','.join(format_term(a, env) for a in goal.args)})"
    if isinstance(goal, Compare):
        return f"{format_expr(goal.lhs, env)} {goal.op} {format_expr(goal.rhs, env)}"
    if isinstance(goal, Assign):
        return f"{goal.target} = {format_expr(goal.expr, env)}"
    if isinstance(goal, Seq):
        # walk the right spine in a loop: flat programs are long chains
        parts = []
        while isinstance(goal, Seq):
            left = format_goal(goal.first, env)
            parts.append(f"({left})" if isinstance(goal.first, Seq) else left)
            goal = goal.second
        parts.append(format_goal(goal, env))
        return "; ".join(parts)
    if isinstance(goal, (Choose, BoundedChoose)):
        # a chain of chooses is walked in a loop, each binder hiding its name
        heads = []
        while isinstance(goal, (Choose, BoundedChoose)):
            cset = f" in {format_set(goal.cset, env)}" if isinstance(goal, BoundedChoose) else ""
            heads.append(f"choose({goal.var}{cset}) ")
            env, goal = _shadow(env, goal.var), goal.body
        text = format_goal(goal, env)
        # a sequence is not a primitive statement, so it keeps its parens
        return "".join(heads) + (f"({text})" if isinstance(goal, Seq) else text)
    raise TypeError(f"not a goal: {goal!r}")


def format_clause(clause: Clause) -> str:
    return f"{clause.name}({','.join(clause.params)}) {{\n  {format_goal(clause.body)}\n}}"


def format_program(program: SourceProgram) -> str:
    parts = [format_clause(c) for c in program.clauses]
    parts.append(f"main {{\n  {format_goal(program.main)}\n}}")
    return "\n\n".join(parts)
