"""Abstract syntax for programs: goals, clauses, expressions, choice sets.

Scoping is resolved before these nodes are built: a name bound by an
enclosing choose or appearing as a clause parameter is a logic variable
(a Var inside a TermLit or term position); any other name is an atom in
term position and, in expression position, either a store read (VarRef,
when the program assigns the name) or again an atom. The nodes here
therefore never need scope information of their own.
"""

from __future__ import annotations

from dataclasses import dataclass

from .terms import Term, format_term


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
