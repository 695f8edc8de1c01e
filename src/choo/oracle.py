"""Exhaustive ground enumeration, used to cross-check the search engine.

This module re-derives solution sets from first principles instead of
calling into the engine: it substitutes chosen values eagerly and
executes over ground terms only, so equality is structural and no
unification is involved. Where the engine narrows an unbounded choose
with a fresh variable, the oracle demands a syntactic pin: a condition
in the body, outside any rebinding of x, with one side ground (a ground
term, or an expression with a value over an empty store) and x at some
position of the other side; the ground subterm at x's position is a
candidate. Every derivation has to make every such condition hold
structurally, so the candidate set covers all successes, and re-running
the body per candidate keeps the answer sound. Programs without a pin,
whose body reads x before the statement that pins it (where the engine
finds x unbound), or with a derivation taller than MAX_HEIGHT, are
rejected as out of bounds rather than guessed at.

Substitution rebuilds only the path from the root to each occurrence,
so a subgoal, expression or term a chosen value does not reach is
shared, not copied. Calls select their clauses from a table keyed by
(name, arity), built once per enumeration, in source order.

Shared with the engine: the AST and term datatypes and the record of
rule applications in derivation.py, from which only enumerate_solutions
builds trees. Nothing else; substitution, arithmetic, builtins, set
enumeration, and deduplication are all rebuilt here, differently.
"""

from __future__ import annotations

import operator
from collections import Counter
from dataclasses import dataclass, field
from functools import lru_cache

from .derivation import tree_of
from .interp import BudgetExhausted, EvalError, execute
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
)
from .terms import INT64_MAX, INT64_MIN, Atom, Compound, Int, Var


class OutOfBounds(Exception):
    """The program lies outside what the oracle can enumerate."""


class OracleRunError(Exception):
    """Runtime fault reached during enumeration (mirrors engine errors)."""


MAX_HEIGHT = 50  # tallest derivation enumerated; a taller one is out of bounds

_FAIL = object()  # expression evaluation failed (unset store read)

_ORDER = {"==": operator.eq, "!=": operator.ne,
          "<": operator.lt, "<=": operator.le, ">": operator.gt, ">=": operator.ge}


# --- ground term utilities ---

def _ground(term) -> bool:
    pending = [term]
    while pending:
        t = pending.pop()
        if type(t) is Var:
            return False
        if type(t) is Compound:
            pending.extend(t.args)
    return True


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
    the binder shadows the name. The shrinker in gen.py uses this too.
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
    def __init__(self, clauses):
        self.table = {}  # (name, arity) -> clauses in source order
        for clause in clauses:
            self.table.setdefault((clause.name, len(clause.params)), []).append(clause)

    # expression evaluation over a ground store

    def _eval(self, store, expr):
        kind = type(expr)
        if kind is IntLit:
            return expr.value
        if kind is VarRef:
            if expr.name not in store:
                return _FAIL
            held = store[expr.name]
            if type(held) is not Int:
                raise OracleRunError(f"'{expr.name}' holds a non-integer")
            return held.value
        if kind is TermLit:
            t = expr.term
            if type(t) is Int:
                return t.value
            if type(t) is Var:
                raise OracleRunError(f"unbound '{t.name}' in arithmetic")
            raise OracleRunError("non-integer term in arithmetic")
        if kind is BinOp:
            # left to right: a failed read ends evaluation, as in the engine
            spine = _left_spine(expr)
            a = self._eval(store, spine[-1].left)
            for node in reversed(spine):
                if a is _FAIL:
                    return _FAIL
                op, b = node.op, self._eval(store, node.right)
                if b is _FAIL:
                    return _FAIL
                if op == "+":
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
        if kind is FunCall:
            n = self._eval(store, expr.arg)
            if n is _FAIL:
                return _FAIL
            if expr.name == "fib":
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
        kind = type(expr)
        if kind is IntLit:
            return Int(expr.value)
        if kind is VarRef:
            return store.get(expr.name, _FAIL)
        if kind is TermLit:
            if not _ground(expr.term):
                raise OutOfBounds("a variable reaches a comparison unsubstituted")
            return expr.term
        n = self._eval(store, expr)
        return _FAIL if n is _FAIL else Int(n)

    def _holds(self, store, goal: Compare) -> bool:
        if goal.op not in _ORDER:
            raise ValueError(f"unknown comparison {goal.op}")
        value = self._term_value if goal.op == "==" else self._eval
        a = value(store, goal.lhs)
        if a is _FAIL:
            return False
        b = value(store, goal.rhs)
        if b is _FAIL:
            return False
        return _ORDER[goal.op](a, b)

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
        """Ground term an operand denotes independently of program state:
        over an empty store a read fails, and a variable or fault raises."""
        if isinstance(expr, TermLit):
            return expr.term if _ground(expr.term) else None
        try:
            n = self._eval({}, expr)
        except OracleRunError:
            return None  # let execution surface the fault, not pinning
        return None if n is _FAIL else Int(n)

    def _pins(self, body, name):
        """The candidates for name that the conditions of body pin it to,
        in the order body runs them, and whether name occurs outside a
        term operand of == before the first pinning condition: the engine
        would read the unbound variable there, where the oracle has
        substituted a candidate already."""
        pins, read, pending = [], False, [body]
        while pending:
            goal = pending.pop()
            kind = type(goal)
            # an occurrence of name shows as a rebuilt node, as substitution
            # shares every node name does not occur in; only the reads
            # before the first pin are looked for
            if kind is Seq:
                pending += (goal.second, goal.first)
            elif kind is Choose or kind is BoundedChoose:
                if not (pins or read) and kind is BoundedChoose and type(goal.cset) is Enum:
                    read = any(_subst_term(e, name, Int(0)) is not e for e in goal.cset.elements)
                if goal.var != name:
                    pending.append(goal.body)
            elif kind is Compare and goal.op == "==":
                for a, b in ((goal.lhs, goal.rhs), (goal.rhs, goal.lhs)):
                    if type(a) is TermLit and (ground := self._pin_side(b)) is not None:
                        self._match_pins(a.term, ground, name, pins)
                if not (pins or read):
                    read = any(type(e) is not TermLit and _subst_expr(e, name, Int(0)) is not e
                               for e in (goal.lhs, goal.rhs))
            elif not (pins or read):
                read = subst_goal(goal, name, Int(0)) is not goal
        return pins, read

    def _set_members(self, cset):
        match cset:
            case Range(lo, hi):
                return [Int(i) for i in range(lo, hi + 1)]
            case Enum(elements):
                if not all(map(_ground, elements)):
                    raise OracleRunError("choice set element is not ground")
                return list(dict.fromkeys(elements))  # first appearance wins
        raise TypeError(f"not a choice set: {cset!r}")

    # the enumeration itself

    def exec_goal(self, store, witnesses, goal, height, applied=None):
        """(store, witnesses, applied) per success of goal, where applied extends
        the given rule applications, newest first, as derivation.py records them."""
        if height > MAX_HEIGHT:
            raise OutOfBounds("derivation height")
        kind = type(goal)
        if kind is Seq:
            applied = ((6, goal, None, None), applied)
            for s, w, a in self.exec_goal(store, witnesses, goal.first, height + 1, applied):
                yield from self.exec_goal(s, w, goal.second, height + 1, a)
        elif kind is Compare:
            if self._holds(store, goal):
                yield store, witnesses, ((4, goal, None, None), applied)
        elif kind is Assign:
            value = self._term_value(store, goal.expr)
            if value is not _FAIL:
                updated = dict(store)
                updated[goal.target] = value
                yield updated, witnesses, ((5, goal, None, None), applied)
        elif kind is BoundedChoose or kind is Choose:
            var = goal.var
            if kind is BoundedChoose:
                rule, candidates = 8, self._set_members(goal.cset)
            else:
                pins, read_before_pin = self._pins(goal.body, var)
                if not pins:
                    raise OutOfBounds(f"choose({var}) has no ground pin")
                if read_before_pin:
                    raise OutOfBounds(f"choose({var}) reads {var} before its pin")
                rule, candidates = 7, list(dict.fromkeys(pins))
            applied = ((rule, goal, None, None), applied)
            for value in candidates:
                grounded = subst_goal(goal.body, var, value)
                yield from self.exec_goal(store, witnesses + ((var, value),), grounded, height + 1, applied)
        elif kind is Call:
            args = goal.args
            matching = self.table.get((goal.name, len(args)))
            if not matching:
                raise OracleRunError(f"no clause for {goal.name}/{len(args)}")
            applied = ((3, goal, None, None), applied)
            for clause in matching:
                body, entered = clause.body, applied
                for param, arg in zip(clause.params, args):
                    body = subst_goal(body, param, arg)
                    entered = ((2, goal, param, None), entered)
                yield from self.exec_goal(store, witnesses, body, height + 1,
                                          ((1, goal, clause.name, None), entered))
        else:
            raise TypeError(f"not a goal: {goal!r}")


def enumerate_solutions(program: SourceProgram):
    """All solutions of the program as a set, plus every derivation tree.

    Returns (solutions, derivations) where each solution is
    (witnesses, frozenset of store items). Raises OutOfBounds when the
    program is outside the oracle's reach and OracleRunError on runtime
    faults.
    """
    solutions, derivations = set(), []
    for solution, applied in _solutions(program):
        solutions.add(solution)
        derivations.append(tree_of(applied))
    return solutions, derivations


def _solutions(program: SourceProgram):
    """(solution, rule applications) pairs in enumeration order, repeats included."""
    enum = _Enumerator(program.clauses)
    for store, witnesses, applied in enum.exec_goal({}, (), program.main, 1):
        yield (witnesses, frozenset(store.items())), applied


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
            return f"match: {self.reason}" if self.reason else f"match: {engine.total()} solutions"
        lines = ["mismatch:"]
        if self.reason:
            lines.append(f"  {self.reason}")
        for sol in sorted((engine - oracle).elements(), key=repr):
            lines.append(f"  engine only: {sol!r}")
        for sol in sorted((oracle - engine).elements(), key=repr):
            lines.append(f"  oracle only: {sol!r}")
        return "\n".join(lines)


def check_equivalence(program) -> EquivalenceReport:
    """Compare engine solutions against oracle enumeration for one program.

    Solutions are compared as multisets: order is ignored, repeats
    count. The engine's and oracle's runtime faults both count as the
    same observable, and programs the oracle cannot handle come back
    excluded, not failed.
    """
    engine_tag = None
    engine_solutions = Counter()
    try:
        for outcome in execute(program):
            engine_solutions[(outcome.witnesses, frozenset(outcome.store.items()))] += 1
    except EvalError:
        engine_tag = "runtime-error"
    except BudgetExhausted as e:
        return EquivalenceReport(False, excluded=True, reason=f"engine budget exhausted ({e.what})")

    oracle_tag = None
    oracle_solutions = Counter()
    try:
        oracle_solutions = Counter(solution for solution, _ in _solutions(program))
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
