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

from .terms import Atom, Compound, Int, Term, Var


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


# --- substitution of a bound name by a term --------------------------------

def subst_term(term: Term, name: str, repl: Term) -> Term:
    if isinstance(term, Var):
        return repl if term.name == name else term
    if not isinstance(term, Compound):
        return term
    args = []  # the common case first: no compound among the arguments
    for a in term.args:
        if isinstance(a, Compound):
            break
        args.append(repl if isinstance(a, Var) and a.name == name else a)
    else:
        return Compound(term.functor, tuple(args))
    # rebuilt bottom-up from an explicit stack, as terms.apply does: a
    # bounded choose puts terms built at run time into goals, and those
    # nest past the interpreter's recursion limit
    done, stack = [], [term]
    while stack:
        t = stack.pop()
        if type(t) is tuple:  # a compound whose arguments are all done
            n = len(t[0].args)
            done[-n:] = [Compound(t[0].functor, tuple(done[-n:]))]
        elif isinstance(t, Compound):
            stack.append((t,))
            stack.extend(reversed(t.args))
        else:
            done.append(repl if isinstance(t, Var) and t.name == name else t)
    return done[0]


def subst_expr(expr: Expr, name: str, repl: Term) -> Expr:
    if isinstance(expr, TermLit):
        return TermLit(subst_term(expr.term, name, repl))
    if isinstance(expr, BinOp):
        # walk a left-nested chain such as 1 + 2 + 3 in a loop
        outer = None
        while isinstance(expr.left, BinOp):
            outer, expr = (expr, outer), expr.left
        expr = BinOp(expr.op, subst_expr(expr.left, name, repl), subst_expr(expr.right, name, repl))
        while outer is not None:
            node, outer = outer
            expr = BinOp(node.op, expr, subst_expr(node.right, name, repl))
        return expr
    if isinstance(expr, FunCall):
        return FunCall(expr.name, subst_expr(expr.arg, name, repl))
    # IntLit and VarRef carry no logic variables
    return expr


def subst_set(cset: ChoiceSet, name: str, repl: Term) -> ChoiceSet:
    if isinstance(cset, Enum):
        return Enum(tuple(subst_term(e, name, repl) for e in cset.elements))
    return cset


def subst_goal(goal: Goal, name: str, repl: Term) -> Goal:
    """Replace free occurrences of the logic variable name in goal.

    Inner binders of the same name shadow: their bodies are left alone.
    A bounded choose's set lies outside its own binder's scope, so the
    set is substituted even when the binder shadows the name.
    """
    if isinstance(goal, Call):
        return Call(goal.name, tuple(subst_term(a, name, repl) for a in goal.args))
    if isinstance(goal, Compare):
        return Compare(goal.op, subst_expr(goal.lhs, name, repl), subst_expr(goal.rhs, name, repl))
    if isinstance(goal, Assign):
        return Assign(goal.target, subst_expr(goal.expr, name, repl))
    if isinstance(goal, Seq):
        # walk the right spine in a loop: flat bodies are long chains
        firsts = None
        while isinstance(goal, Seq):
            firsts = (subst_goal(goal.first, name, repl), firsts)
            goal = goal.second
        goal = subst_goal(goal, name, repl)
        while firsts is not None:
            first, firsts = firsts
            goal = Seq(first, goal)
        return goal
    if isinstance(goal, Choose):
        if goal.var == name:
            return goal
        return Choose(goal.var, subst_goal(goal.body, name, repl))
    if isinstance(goal, BoundedChoose):
        cset = subst_set(goal.cset, name, repl)
        if goal.var == name:
            return BoundedChoose(goal.var, cset, goal.body)
        return BoundedChoose(goal.var, cset, subst_goal(goal.body, name, repl))
    raise TypeError(f"not a goal: {goal!r}")


# --- canonical surface form --------------------------------------------------
#
# Formatting inverts parsing: parse(format_goal(g)) rebuilds g exactly,
# provided g is a goal the parser itself could have produced. Parentheses
# are inserted only where precedence or sequencing demands them.

from .terms import format_term  # noqa: E402

_PREC = {"+": 1, "-": 1, "*": 2, "/": 2}


def format_expr(expr: Expr, _min_prec: int = 0) -> str:
    if isinstance(expr, IntLit):
        return str(expr.value)
    if isinstance(expr, VarRef):
        return expr.name
    if isinstance(expr, TermLit):
        return format_term(expr.term)
    if isinstance(expr, FunCall):
        return f"{expr.name}({format_expr(expr.arg)})"
    if isinstance(expr, BinOp):
        # a left-nested chain is walked in a loop, innermost first; a left
        # child may share the precedence, a right one needs parens then
        outer = None
        while isinstance(expr, BinOp):
            outer, expr = (expr, outer), expr.left
        text, p = format_expr(expr), 3  # no operator binds tighter than a leaf
        while outer is not None:
            expr, outer = outer
            if p < _PREC[expr.op]:
                text = f"({text})"
            p = _PREC[expr.op]
            text = f"{text} {expr.op} {format_expr(expr.right, p + 1)}"
        return f"({text})" if p < _min_prec else text
    raise TypeError(f"not an expression: {expr!r}")


def format_set(cset: ChoiceSet) -> str:
    if isinstance(cset, Range):
        return f"{{{cset.lo}..{cset.hi}}}"
    return f"{{{','.join(format_term(e) for e in cset.elements)}}}"


def _format_choose_body(body: Goal) -> str:
    text = format_goal(body)
    # a sequence is not a primitive statement, so it keeps its parens
    return f"({text})" if isinstance(body, Seq) else text


def format_goal(goal: Goal) -> str:
    if isinstance(goal, Call):
        return f"{goal.name}({','.join(format_term(a) for a in goal.args)})"
    if isinstance(goal, Compare):
        return f"{format_expr(goal.lhs)} {goal.op} {format_expr(goal.rhs)}"
    if isinstance(goal, Assign):
        return f"{goal.target} = {format_expr(goal.expr)}"
    if isinstance(goal, Seq):
        # walk the right spine in a loop: flat programs are long chains
        parts = []
        while isinstance(goal, Seq):
            left = format_goal(goal.first)
            parts.append(f"({left})" if isinstance(goal.first, Seq) else left)
            goal = goal.second
        parts.append(format_goal(goal))
        return "; ".join(parts)
    if isinstance(goal, Choose):
        return f"choose({goal.var}) {_format_choose_body(goal.body)}"
    if isinstance(goal, BoundedChoose):
        return f"choose({goal.var} in {format_set(goal.cset)}) {_format_choose_body(goal.body)}"
    raise TypeError(f"not a goal: {goal!r}")


def format_clause(clause: Clause) -> str:
    return f"{clause.name}({','.join(clause.params)}) {{\n  {format_goal(clause.body)}\n}}"


def format_program(program: SourceProgram) -> str:
    parts = [format_clause(c) for c in program.clauses]
    parts.append(f"main {{\n  {format_goal(program.main)}\n}}")
    return "\n\n".join(parts)
