"""Exhaustive ground enumeration, and the differential check of the
search engine against it.

This module re-derives solution sets from first principles instead of
calling into the engine. Every binder has a ground value before its body
runs, and the parsed goals run unchanged in an environment that maps the
names of the binders around them to those values: a choose runs its body
once per candidate, in the environment extended by its name, and a call
runs a clause body in an environment of its parameters. An inner binder
hides an outer one of the same name. Equality is structural, and no
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
rejected as out of bounds rather than guessed at. Calls select their
clauses from a table keyed by (name, arity), built once per
enumeration, in source order.

Shared with the engine: the AST and term datatypes, and the form of a
derivation's record, the linked list of rule applications that
derivation.tree_of reads; the oracle builds no tree and imports nothing
from derivation.py. From syntax.py the oracle also takes two scoping
helpers the engine does not use: _shadow, the environment inside a
binder, which format_goal uses too, and mentions, whether a name occurs
free, which the shrinker uses too. Nothing else; term instantiation,
arithmetic, builtins, set enumeration, and deduplication are all
rebuilt here, differently.

check_equivalence compares what the two sides find as ordered streams:
solutions in the order found, repeats kept, then the end or the kind of
the runtime error that stopped the run.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from functools import lru_cache
from types import MappingProxyType

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
    _shadow,
    mentions,
)
from .terms import INT64_MAX, INT64_MIN, Compound, Int, Var


class OutOfBounds(Exception):
    """The program lies outside what the oracle can enumerate."""


class OracleRunError(Exception):
    """Runtime fault reached during enumeration (mirrors engine errors)."""

    def __init__(self, kind: str, message: str):
        super().__init__(message)
        self.kind = kind  # one of interp.ERROR_KINDS, as the engine's error would say


MAX_HEIGHT = 50  # tallest derivation enumerated; a taller one is out of bounds

_FAIL = object()  # expression evaluation failed (unset store read)

_NO_BINDINGS = MappingProxyType({})  # the environment outside every binder

_TERM_SIDES = (VarRef, TermLit)  # operands whose value may be a term, not an integer

_ORDER = {"==": operator.eq, "!=": operator.ne,
          "<": operator.lt, "<=": operator.le, ">": operator.gt, ">=": operator.ge}


# --- terms and names in an environment ---

def _instance(term, env):
    """term with env's value for each of its variables, or None when env
    has no value for one; a subterm without variables is shared, not copied."""
    kind = type(term)
    if kind is Var:
        return env.get(term.name)
    if kind is not Compound:
        return term
    # arguments are done before their parents, from an explicit stack:
    # terms nest deeper than the interpreter's recursion limit
    done, stack = [], [term]
    while stack:
        t = stack.pop()
        kind = type(t)
        if kind is Compound:
            stack.append((t,))  # built once its arguments are done
            stack.extend(reversed(t.args))
        elif kind is tuple:
            c, n = t[0], len(t[0].args)
            args = tuple(done[-n:])
            if not all(map(operator.is_, args, c.args)):
                c = Compound(c.functor, args)
            done[-n:] = [c]
        elif kind is Var:
            if (value := env.get(t.name)) is None:
                return None
            done.append(value)
        else:
            done.append(t)
    return done[0]


# --- independent arithmetic ---

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

    # expression evaluation over a ground store, in an environment

    def _eval(self, store, expr, env):
        kind = type(expr)
        if kind is IntLit:
            return expr.value
        if kind is VarRef:
            if expr.name not in store:
                return _FAIL
            held = store[expr.name]
            if type(held) is not Int:
                raise OracleRunError("not-integer", f"'{expr.name}' holds a non-integer")
            return held.value
        if kind is TermLit:
            t = expr.term
            if type(t) is Var:
                t = env.get(t.name, t)
            if type(t) is Int:
                return t.value
            if type(t) is Var:
                raise OracleRunError("unbound", f"unbound '{t.name}' in arithmetic")
            raise OracleRunError("not-integer", "non-integer term in arithmetic")
        if kind is BinOp:
            # left to right: a failed read ends evaluation, as in the engine;
            # the BinOps down the left of a chain such as 1 + 2 + 3 in a loop
            spine = []
            while type(expr) is BinOp:
                spine.append(expr)
                expr = expr.left
            a = self._eval(store, expr, env)
            for node in reversed(spine):
                if a is _FAIL:
                    return _FAIL
                op, b = node.op, self._eval(store, node.right, env)
                if b is _FAIL:
                    return _FAIL
                if op == "+":
                    a += b
                elif op == "-":
                    a -= b
                elif op == "*":
                    a *= b
                elif b == 0:
                    raise OracleRunError("division", "division by zero")
                else:
                    q, r = divmod(a, b)
                    a = q + 1 if r != 0 and (a < 0) != (b < 0) else q
                if a < INT64_MIN or a > INT64_MAX:
                    raise OracleRunError("overflow", "integer overflow")
            return a
        if kind is FunCall:
            n = self._eval(store, expr.arg, env)
            if n is _FAIL:
                return _FAIL
            if expr.name == "fib":
                if n < 1:
                    raise OracleRunError("domain", "fib argument below 1")
                if n >= 94:
                    raise OracleRunError("overflow", "fib overflow")
                return oracle_fib(n)
            if n < 0:
                raise OracleRunError("domain", "fact argument below 0")
            if n > 20:
                raise OracleRunError("overflow", "fact overflow")
            return oracle_fact(n)
        raise TypeError(f"not an expression: {expr!r}")

    def _term_value(self, store, expr, env):
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
            if (term := _instance(expr.term, env)) is None:
                raise OutOfBounds("a variable reaches a comparison unsubstituted")
            return term
        n = self._eval(store, expr, env)
        return _FAIL if n is _FAIL else Int(n)

    def _holds(self, store, goal: Compare, env) -> bool:
        if goal.op not in _ORDER:
            raise ValueError(f"unknown comparison {goal.op}")
        # == compares terms when a side may hold one, and integers otherwise
        terms = goal.op == "==" and (type(goal.lhs) in _TERM_SIDES or type(goal.rhs) in _TERM_SIDES)
        value = self._term_value if terms else self._eval
        a = value(store, goal.lhs, env)
        if a is _FAIL:
            return False
        b = value(store, goal.rhs, env)
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

    def _pin_side(self, expr, env):
        """Ground term an operand denotes independently of program state:
        over an empty store a read fails, and a variable or fault raises."""
        if type(expr) is TermLit:
            return _instance(expr.term, env)
        try:
            n = self._eval({}, expr, env)
        except OracleRunError:
            return None  # let execution surface the fault, not pinning
        return None if n is _FAIL else Int(n)

    def _pins(self, body, name, env):
        """The candidates for name that the conditions of body pin it to,
        in the order body runs them, and whether name occurs outside a
        term operand of == before the first pinning condition: the engine
        would read the unbound variable there, where the oracle has
        bound a candidate already. Below each binder, env loses the
        binder's name, so a name bound inside body counts as free."""
        pins, read, pending = [], False, [(body, _shadow(env, name))]
        while pending:
            goal, env = pending.pop()
            kind = type(goal)
            # only the reads before the first pin are looked for
            if kind is Seq:
                pending += ((goal.second, env), (goal.first, env))
            elif kind is Choose or kind is BoundedChoose:
                if not (pins or read) and kind is BoundedChoose and type(goal.cset) is Enum:
                    read = mentions(name, goal.cset.elements)
                if goal.var != name:
                    pending.append((goal.body, _shadow(env, goal.var)))
            elif kind is Compare and goal.op == "==":
                for a, b in ((goal.lhs, goal.rhs), (goal.rhs, goal.lhs)):
                    if type(a) is TermLit and (ground := self._pin_side(b, env)) is not None:
                        self._match_pins(a.term, ground, name, pins)
                if not (pins or read):
                    read = mentions(name, [e for e in (goal.lhs, goal.rhs) if type(e) is not TermLit])
            elif not (pins or read):
                read = mentions(name, (goal,))
        return pins, read

    def _set_members(self, cset, env):
        match cset:
            case Range(lo, hi):  # one at a time: the body may end the run at the first
                return map(Int, range(lo, hi + 1))
            case Enum(elements):
                members = [_instance(e, env) for e in elements]
                if any(m is None for m in members):
                    raise OracleRunError("ground", "choice set element is not ground")
                return list(dict.fromkeys(members))  # first appearance wins
        raise TypeError(f"not a choice set: {cset!r}")

    # the enumeration itself

    def exec_goal(self, store, witnesses, goal, height, applied=None, env=_NO_BINDINGS):
        """(store, witnesses, applied) per success of goal, where applied extends
        the given rule applications, newest first, as derivation.py records them.
        env maps the names of the binders around goal to their ground values."""
        if height > MAX_HEIGHT:
            raise OutOfBounds("derivation height")
        kind = type(goal)
        if kind is Seq:
            applied = ((6, goal, None, env), applied)
            for s, w, a in self.exec_goal(store, witnesses, goal.first, height + 1, applied, env):
                yield from self.exec_goal(s, w, goal.second, height + 1, a, env)
        elif kind is Compare:
            if self._holds(store, goal, env):
                yield store, witnesses, ((4, goal, None, env), applied)
        elif kind is Assign:
            value = self._term_value(store, goal.expr, env)
            if value is not _FAIL:
                updated = dict(store)
                updated[goal.target] = value
                yield updated, witnesses, ((5, goal, None, env), applied)
        elif kind is BoundedChoose or kind is Choose:
            var = goal.var
            if kind is BoundedChoose:
                rule, candidates = 8, self._set_members(goal.cset, env)
            else:
                pins, read_before_pin = self._pins(goal.body, var, env)
                if not pins:
                    raise OutOfBounds(f"choose({var}) has no ground pin")
                if read_before_pin:
                    raise OutOfBounds(f"choose({var}) reads {var} before its pin")
                rule, candidates = 7, list(dict.fromkeys(pins))
            applied = ((rule, goal, None, env), applied)
            for value in candidates:
                yield from self.exec_goal(store, witnesses + ((var, value),), goal.body, height + 1,
                                          applied, {**env, var: value})
        elif kind is Call:
            matching = self.table.get((goal.name, len(goal.args)))
            if not matching:
                raise OracleRunError("undefined", f"no clause for {goal.name}/{len(goal.args)}")
            args = [_instance(a, env) for a in goal.args]
            if any(a is None for a in args):
                raise OutOfBounds("a variable reaches a call unsubstituted")
            applied = ((3, goal, None, env), applied)
            for clause in matching:
                entered = applied
                for param in clause.params:
                    entered = ((2, goal, param, env), entered)
                yield from self.exec_goal(store, witnesses, clause.body, height + 1,
                                          ((1, goal, clause.name, env), entered),
                                          dict(zip(clause.params, args)))
        else:
            raise TypeError(f"not a goal: {goal!r}")


def enumerate_solutions(program: SourceProgram):
    """All solutions of the program as a set, plus every derivation's record.

    Returns (solutions, records) where each solution is (witnesses,
    frozenset of store items) and records holds each success's rule
    applications in the order found, as the engine's Solver.records
    yields them. Raises OutOfBounds when the program is outside the
    oracle's reach and OracleRunError on runtime faults.
    """
    solutions, records = set(), []
    for store, witnesses, applied in _Enumerator(program.clauses).exec_goal({}, (), program.main, 1):
        solutions.add((witnesses, frozenset(store.items())))
        records.append(applied)
    return solutions, records


# --- differential comparison ---

@dataclass
class EquivalenceReport:
    """What check_equivalence found: engine and oracle are each side's
    solutions (witnesses, store) in the order found, repeats kept, then
    "end" or the kind of the error that stopped it; or, when excluded, why."""

    matched: bool
    excluded: bool = False
    reason: str = ""
    engine: list = field(default_factory=list)
    oracle: list = field(default_factory=list)

    def describe(self) -> str:
        if self.excluded:
            return f"excluded: {self.reason}"
        if self.matched:
            if self.engine[-1] != "end":
                return "match: both raised runtime errors"
            return f"match: {len(self.engine) - 1} solutions"
        # each stream ends in its one "end" or kind, so both reach the parting
        i = next(i for i, (a, b) in enumerate(zip(self.engine, self.oracle)) if a != b)
        return (f"mismatch: the streams part at item {i + 1}\n"
                f"  engine: {_item_text(self.engine[i])}\n  oracle: {_item_text(self.oracle[i])}")


def _item_text(item) -> str:
    """end, "raised" and an error kind, or a solution's repr with its store sorted by name."""
    if type(item) is str:
        return item if item == "end" else f"raised {item}"
    witnesses, store = item
    return repr((witnesses, dict(sorted(store.items()))))


def _stream(solutions, error) -> list:
    """The solutions, then "end", or the kind of an error of class error."""
    stream = []
    try:
        stream.extend(solutions)
        stream.append("end")
    except error as e:
        stream.append(e.kind)
    return stream


def check_equivalence(program) -> EquivalenceReport:
    """Compare engine solutions against oracle enumeration for one program.

    The two sides match when their streams are equal: the same
    solutions in the same order, each as often, then both at the end or
    both stopped by a runtime error of the same kind. Programs past the
    engine's budget or outside the oracle's reach come back excluded,
    not failed.
    """
    try:
        engine = _stream(((o.witnesses, o.store) for o in execute(program)), EvalError)
    except BudgetExhausted as e:
        return EquivalenceReport(False, excluded=True, reason=f"engine budget exhausted ({e.what})")
    try:
        solutions = _Enumerator(program.clauses).exec_goal({}, (), program.main, 1)
        oracle = _stream(((w, s) for s, w, _ in solutions), OracleRunError)
    except OutOfBounds as e:
        return EquivalenceReport(False, excluded=True, reason=str(e))
    return EquivalenceReport(engine == oracle, engine=engine, oracle=oracle)
