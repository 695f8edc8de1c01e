"""Exhaustive ground enumeration, used to cross-check the search engine.

This module re-derives solution sets from first principles instead of
calling into the engine: it substitutes chosen values eagerly and
executes over ground terms only, so equality is structural and no
unification is involved. Where the engine narrows an unbounded choose
with a fresh variable, the oracle demands a syntactic pin: a condition
in the body, outside any rebinding of x, with one side ground and x at
some position of the other side; the ground subterm at x's position is
a candidate. Every derivation has to make every such condition hold
structurally, so the candidate set covers all successes, and re-running
the body per candidate keeps the answer sound. Programs without a pin
are rejected as out of bounds rather than guessed at.

Shared with the engine: the AST and term datatypes, seq_of, and the
derivation node type. Nothing else; substitution, arithmetic, builtins, set
enumeration, and deduplication are all rebuilt here, differently.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from functools import lru_cache

from .derivation import DerivationNode
from .syntax import (
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
    SourceProgram,
    TermLit,
    VarRef,
    seq_of,
)
from .terms import INT64_MAX, INT64_MIN, Atom, Compound, Int, Var


class OutOfBounds(Exception):
    """The program lies outside what the oracle can enumerate."""


class OracleRunError(Exception):
    """Runtime fault reached during enumeration (mirrors engine errors)."""


@dataclass(frozen=True)
class OracleBounds:
    max_height: int = 50

    def __post_init__(self):
        if self.max_height < 1:
            raise ValueError("max_height must be at least 1")


_FAIL = object()  # expression evaluation failed (unset store read)


# --- ground term utilities ---

def _ground(term) -> bool:
    pending = [term]
    while pending:
        match pending.pop():
            case Var():
                return False
            case Compound(_, args):
                pending.extend(args)
    return True


def _left_spine(expr) -> list:
    """BinOps down the left of a chain such as 1 + 2 + 3, outermost first."""
    spine = []
    while isinstance(expr, BinOp):
        spine.append(expr)
        expr = expr.left
    return spine


def _closed(expr) -> bool:
    """True when the expression reads no store name and holds no variable."""
    match expr:
        case IntLit():
            return True
        case BinOp():
            spine = _left_spine(expr)
            for node in spine:  # no generator: one frame per level of nesting
                if not _closed(node.right):
                    return False
            return _closed(spine[-1].left)
        case TermLit(t):
            return _ground(t)
        case FunCall(_, arg):
            return _closed(arg)
    return False


def _subst_term(term, name, value):
    if not isinstance(term, Compound):
        return value if isinstance(term, Var) and term.name == name else term
    # every subterm in breadth-first order, rebuilt last to first so that
    # arguments come before their parents: substituted values nest
    # deeper than source terms, past the interpreter's recursion limit
    order = [term]
    for t in order:
        if isinstance(t, Compound):
            order.extend(t.args)
    new = {}
    for t in reversed(order):
        match t:
            case Var(n) if n == name:
                new[id(t)] = value
            case Compound(functor, args):
                new[id(t)] = Compound(functor, tuple(new[id(a)] for a in args))
            case _:
                new[id(t)] = t
    return new[id(term)]


def _subst_expr(expr, name, value):
    match expr:
        case TermLit(t):
            return TermLit(_subst_term(t, name, value))
        case BinOp():
            spine = _left_spine(expr)
            expr = _subst_expr(spine[-1].left, name, value)
            for node in reversed(spine):
                expr = BinOp(node.op, expr, _subst_expr(node.right, name, value))
            return expr
        case FunCall(f, arg):
            return FunCall(f, _subst_expr(arg, name, value))
        case _:
            return expr


def _subst_goal(goal, name, value):
    if isinstance(goal, Seq):  # the right spine of a ; chain, in a loop
        goals = []
        while isinstance(goal, Seq):
            goals.append(_subst_goal(goal.first, name, value))
            goal = goal.second
        return seq_of([*goals, _subst_goal(goal, name, value)])
    match goal:
        case Call(proc, args):
            return Call(proc, tuple(_subst_term(a, name, value) for a in args))
        case Compare(op, lhs, rhs):
            return Compare(op, _subst_expr(lhs, name, value), _subst_expr(rhs, name, value))
        case Assign(target, expr):
            return Assign(target, _subst_expr(expr, name, value))
        case Choose(var, body):
            if var == name:
                return goal
            return Choose(var, _subst_goal(body, name, value))
        case BoundedChoose(var, cset, body):
            if isinstance(cset, Enum):
                cset = Enum(tuple(_subst_term(e, name, value) for e in cset.elements))
            if var == name:
                return BoundedChoose(var, cset, body)
            return BoundedChoose(var, cset, _subst_goal(body, name, value))
    raise TypeError(f"not a goal: {goal!r}")


# --- independent arithmetic ---

def _checked(value: int) -> int:
    if value < INT64_MIN or value > INT64_MAX:
        raise OracleRunError("integer overflow")
    return value


@lru_cache(maxsize=None)
def oracle_fib(n: int) -> int:
    # fib(1) = 0, fib(2) = 1
    if n <= 2:
        return n - 1
    return oracle_fib(n - 1) + oracle_fib(n - 2)


@lru_cache(maxsize=None)
def oracle_fact(n: int) -> int:
    if n == 0:
        return 1
    return n * oracle_fact(n - 1)


class _Enumerator:
    def __init__(self, clauses, bounds: OracleBounds):
        self.clauses = clauses
        self.bounds = bounds

    # expression evaluation over a ground store

    def _eval(self, store, expr):
        match expr:
            case IntLit(v):
                return v
            case VarRef(name):
                if name not in store:
                    return _FAIL
                held = store[name]
                if not isinstance(held, Int):
                    raise OracleRunError(f"'{name}' holds a non-integer")
                return held.value
            case TermLit(t):
                if isinstance(t, Int):
                    return t.value
                if isinstance(t, Var):
                    raise OracleRunError(f"unbound '{t.name}' in arithmetic")
                raise OracleRunError("non-integer term in arithmetic")
            case BinOp():
                # both sides are evaluated before a failed read short-cuts
                spine = _left_spine(expr)
                a = self._eval(store, spine[-1].left)
                for node in reversed(spine):
                    op, b = node.op, self._eval(store, node.right)
                    if a is _FAIL or b is _FAIL:
                        a = _FAIL
                    elif op == "+":
                        a = _checked(a + b)
                    elif op == "-":
                        a = _checked(a - b)
                    elif op == "*":
                        a = _checked(a * b)
                    elif b == 0:
                        raise OracleRunError("division by zero")
                    else:
                        q, r = divmod(a, b)
                        a = _checked(q + 1 if r != 0 and (a < 0) != (b < 0) else q)
                return a
            case FunCall(name, arg):
                n = self._eval(store, arg)
                if n is _FAIL:
                    return _FAIL
                if name == "fib":
                    if n < 1:
                        raise OracleRunError("fib argument below 1")
                    if n >= 94:
                        raise OracleRunError("fib overflow")
                    return _checked(oracle_fib(n))
                if n < 0:
                    raise OracleRunError("fact argument below 0")
                if n > 20:
                    raise OracleRunError("fact overflow")
                return _checked(oracle_fact(n))
        raise TypeError(f"not an expression: {expr!r}")

    def _term_value(self, store, expr):
        """Value of a == operand or assignment source, as a term.

        The ground model cannot express a variable surviving to a
        comparison (the engine would unify it); such programs are out of
        bounds, never silently misjudged.
        """
        match expr:
            case IntLit(v):
                return Int(v)
            case VarRef(name):
                return store.get(name, _FAIL)
            case TermLit(t):
                if not _ground(t):
                    raise OutOfBounds("a variable reaches a comparison unsubstituted")
                return t
            case _:
                n = self._eval(store, expr)
                return _FAIL if n is _FAIL else Int(n)

    def _holds(self, store, goal: Compare) -> bool:
        if goal.op == "==":
            a = self._term_value(store, goal.lhs)
            if a is _FAIL:
                return False
            b = self._term_value(store, goal.rhs)
            if b is _FAIL:
                return False
            return a == b
        a = self._eval(store, goal.lhs)
        if a is _FAIL:
            return False
        b = self._eval(store, goal.rhs)
        if b is _FAIL:
            return False
        match goal.op:
            case "!=":
                return a != b
            case "<":
                return a < b
            case "<=":
                return a <= b
            case ">":
                return a > b
            case ">=":
                return a >= b
        raise ValueError(f"unknown comparison {goal.op}")

    # pin discovery for unbounded choose

    def _match_pins(self, pattern, ground, name, out):
        # positions where the pattern holds the variable name directly
        # must equal the ground side's subterm at the same position;
        # left to right, from a stack, as both sides may nest deep
        pending = [(pattern, ground)]
        while pending:
            match pending.pop():
                case Var(n), g:
                    if n == name:
                        out.append(g)
                case Compound(functor, args), Compound() as g:
                    if g.functor == functor and len(g.args) == len(args):
                        pending.extend(reversed(tuple(zip(args, g.args))))

    def _pin_side(self, expr):
        """Ground term an operand denotes independently of program state."""
        if isinstance(expr, IntLit):
            return Int(expr.value)
        if isinstance(expr, TermLit):
            return expr.term if _ground(expr.term) else None
        if _closed(expr):
            try:
                n = self._eval({}, expr)
            except OracleRunError:
                return None  # let execution surface the fault, not pinning
            return None if n is _FAIL else Int(n)
        return None

    def _pins(self, goal, name, out):
        while isinstance(goal, Seq):  # the right spine of a ; chain, in a loop
            self._pins(goal.first, name, out)
            goal = goal.second
        match goal:
            case Compare("==", lhs, rhs):
                for a, b in ((lhs, rhs), (rhs, lhs)):
                    ground = self._pin_side(b)
                    if ground is None:
                        continue
                    if isinstance(a, TermLit):
                        self._match_pins(a.term, ground, name, out)
            case Choose(var, body):
                if var != name:
                    self._pins(body, name, out)
            case BoundedChoose(var, _, body):
                if var != name:
                    self._pins(body, name, out)
            case _:
                pass

    def _set_members(self, cset):
        match cset:
            case Range(lo, hi):
                return [Int(i) for i in range(lo, hi + 1)]
            case Enum(elements):
                members = []
                for e in elements:
                    if not _ground(e):
                        raise OracleRunError("choice set element is not ground")
                    if e not in members:
                        members.append(e)
                return members
        raise TypeError(f"not a choice set: {cset!r}")

    # the enumeration itself; yields (store, witnesses, derivation)

    def exec_goal(self, store, witnesses, goal, height):
        if height > self.bounds.max_height:
            raise OutOfBounds("derivation height")
        match goal:
            case Seq(first, second):
                for s1, w1, n1 in self.exec_goal(store, witnesses, first, height + 1):
                    for s2, w2, n2 in self.exec_goal(s1, w1, second, height + 1):
                        yield s2, w2, DerivationNode(6, goal, (n1, n2))
            case Compare():
                if self._holds(store, goal):
                    yield store, witnesses, DerivationNode(4, goal, ())
            case Assign(target, expr):
                value = self._term_value(store, expr)
                if value is not _FAIL:
                    if not _ground(value):
                        raise OracleRunError("assigned value is not ground")
                    updated = dict(store)
                    updated[target] = value
                    yield updated, witnesses, DerivationNode(5, goal, ())
            case Choose(var, body):
                pins = []
                self._pins(body, var, pins)
                if not pins:
                    raise OutOfBounds(f"choose({var}) has no ground pin")
                candidates = []
                for p in pins:
                    if p not in candidates:
                        candidates.append(p)
                for value in candidates:
                    grounded = _subst_goal(body, var, value)
                    staged = witnesses + ((var, value),)
                    for s, w, n in self.exec_goal(store, staged, grounded, height + 1):
                        yield s, w, DerivationNode(7, goal, (n,))
            case BoundedChoose(var, cset, body):
                for value in self._set_members(cset):
                    grounded = _subst_goal(body, var, value)
                    staged = witnesses + ((var, value),)
                    for s, w, n in self.exec_goal(store, staged, grounded, height + 1):
                        yield s, w, DerivationNode(8, goal, (n,))
            case Call(name, args):
                matching = [
                    c for c in self.clauses
                    if c.name == name and len(c.params) == len(args)
                ]
                if not matching:
                    raise OracleRunError(f"no clause for {name}/{len(args)}")
                for clause in matching:
                    body = clause.body
                    for param, arg in zip(clause.params, args):
                        body = _subst_goal(body, param, arg)
                    for s, w, n in self.exec_goal(store, witnesses, body, height + 1):
                        node = DerivationNode(1, goal, (n,), clause.name)
                        for param in reversed(clause.params):
                            node = DerivationNode(2, goal, (node,), param)
                        yield s, w, DerivationNode(3, goal, (node,))
            case _:
                raise TypeError(f"not a goal: {goal!r}")


def enumerate_solutions(program, goal=None, bounds: OracleBounds | None = None):
    """All solutions of the program as a set, plus every derivation tree.

    Returns (solutions, derivations) where each solution is
    (witnesses, frozenset of store items). Raises OutOfBounds when the
    program is outside the oracle's reach and OracleRunError on runtime
    faults.
    """
    solutions, derivations = set(), []
    for solution, node in _solutions(program, goal, bounds):
        solutions.add(solution)
        derivations.append(node)
    return solutions, derivations


def _solutions(program, goal=None, bounds=None):
    """(solution, derivation) pairs in enumeration order, repeats included."""
    if isinstance(program, SourceProgram):
        clauses = program.clauses
        goal = program.main if goal is None else goal
    else:
        clauses = tuple(program)
        if goal is None:
            raise ValueError("a goal is required when passing bare clauses")
    enum = _Enumerator(clauses, bounds or OracleBounds())
    for store, witnesses, node in enum.exec_goal({}, (), goal, 1):
        yield (witnesses, frozenset(store.items())), node


# --- differential comparison ---

@dataclass
class EquivalenceReport:
    matched: bool
    excluded: bool = False
    reason: str = ""
    # each side's solutions with how often they came up; a set counts each once
    engine_solutions: Counter = field(default_factory=Counter)
    oracle_solutions: Counter = field(default_factory=Counter)

    def describe(self) -> str:
        if self.excluded:
            return f"excluded: {self.reason}"
        engine, oracle = Counter(self.engine_solutions), Counter(self.oracle_solutions)
        if self.matched:
            return f"match: {engine.total()} solutions"
        lines = ["mismatch:"]
        if self.reason:
            lines.append(f"  {self.reason}")
        for sol in sorted((engine - oracle).elements(), key=repr):
            lines.append(f"  engine only: {sol!r}")
        for sol in sorted((oracle - engine).elements(), key=repr):
            lines.append(f"  oracle only: {sol!r}")
        return "\n".join(lines)


def check_equivalence(program, bounds: OracleBounds | None = None, budget=None) -> EquivalenceReport:
    """Compare engine solutions against oracle enumeration for one program.

    Solutions are compared as multisets: order is ignored, repeats
    count. The engine's and oracle's runtime faults both count as the
    same observable, and programs the oracle cannot handle come back
    excluded, not failed.
    """
    from .interp import BudgetExhausted, EvalError, SearchBudget, execute

    engine_tag = None
    engine_solutions = Counter()
    try:
        for outcome in execute(program, budget=budget or SearchBudget()):
            engine_solutions[(outcome.witnesses, frozenset(outcome.store.items()))] += 1
    except EvalError:
        engine_tag = "runtime-error"
    except BudgetExhausted as e:
        return EquivalenceReport(False, excluded=True, reason=f"engine budget exhausted ({e.what})")

    oracle_tag = None
    oracle_solutions = Counter()
    try:
        oracle_solutions = Counter(solution for solution, _ in _solutions(program, bounds=bounds))
    except OutOfBounds as e:
        return EquivalenceReport(False, excluded=True, reason=str(e))
    except OracleRunError:
        oracle_tag = "runtime-error"

    if engine_tag or oracle_tag:
        if engine_tag == oracle_tag:
            return EquivalenceReport(True, reason="both raised runtime errors")
        return EquivalenceReport(
            False,
            reason=f"engine={engine_tag or 'solutions'} oracle={oracle_tag or 'solutions'}",
            engine_solutions=engine_solutions,
            oracle_solutions=oracle_solutions,
        )
    return EquivalenceReport(engine_solutions == oracle_solutions,
                             engine_solutions=engine_solutions, oracle_solutions=oracle_solutions)
