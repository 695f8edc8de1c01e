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
candidate, and a ground side of another shape on the path to x gives
none. Every derivation has to make every such condition hold
structurally, so the candidate set covers all successes, and re-running
the body per candidate keeps the answer sound. Programs without a pin,
whose body reads x before the statement that pins it (where the engine
finds x unbound), that pin x to no candidate after the body has run a
goal (which the engine runs once, and the oracle would run never), or
with a derivation taller than MAX_HEIGHT, are rejected as out of bounds
rather than guessed at. Calls select their clauses from a table keyed
by (name, arity), built once per enumeration, in source order.

A choose whose body starts with a condition tests it at each leaf
before running the body there, and skips a leaf where it fails. That is
exact: the condition is the first thing the body does, so a leaf where
it fails succeeds nowhere and leaves no record, and where it raises,
the body would have raised the same error at the same point. Only the
height bound could stop the body sooner, so the test is made only where
the body reaches the condition within MAX_HEIGHT. Arithmetic runs from
postfix code made once per expression, and where the condition compares
integers, each visit of the choose specialises its sides' code to the
visit's environment: their largest parts that read no store name and do
not mention the chosen name, and their reads of other binders, are the
same at every leaf. Each such part whose evaluation succeeds, and each
such read of an integer, becomes a constant of the residual code each
leaf runs; it can neither fail nor raise, so reading it early changes
no outcome. A part that raises is spliced in as its own code, to raise
where it stands at the first leaf that reaches it, so no error moves
and none appears where no leaf runs. This is partial evaluation (Jones,
Gomard and Sestoft, Partial Evaluation and Automatic Program Generation, 1993).

A choice set that names no binder, a range or a set of ground terms, has
the same members at every visit of its choose, and a visit only reads
them, so an enumerator makes them at the first visit and hands the same
members to every later one: no candidate, order or error changes, as a
ground set raises none. A range wider than _RANGE_CAP stays lazy, made
one member at a time at each visit, as the body may end the run at the
first; a set that names a binder is made, and raises, at every visit.

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

_RANGE_CAP = 4096  # the widest range whose members an enumerator keeps

_FAIL = object()  # expression evaluation failed (unset store read)

_NO_BINDINGS = MappingProxyType({})  # the environment outside every binder

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
def _fib(n):
    # fib(1) = 0, fib(2) = 1
    if n < 1:
        raise OracleRunError("domain", "fib argument below 1")
    if n >= 94:
        raise OracleRunError("overflow", "fib overflow")
    return n - 1 if n <= 2 else _fib(n - 1) + _fib(n - 2)


@lru_cache(maxsize=None)
def _fact(n):
    if n < 0:
        raise OracleRunError("domain", "fact argument below 0")
    if n > 20:
        raise OracleRunError("overflow", "fact overflow")
    return 1 if n == 0 else n * _fact(n - 1)


def _quotient(a, b):
    """a / b rounded toward zero."""
    if b == 0:
        raise OracleRunError("division", "division by zero")
    q, r = divmod(a, b)
    return q + 1 if r != 0 and (a < 0) != (b < 0) else q


# what each operator and each built-in function computes
_OPERATORS = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": _quotient}
_FUNCTIONS = {"fib": _fib, "fact": _fact}


# postfix code: (opcode, operand) pairs, operands first; an operand is an integer, a term (a
# binder's Var, or a literal that is no integer), a store name, a function, or a part's code
_CONST, _BINDER, _READ, _OPERATOR, _FUNCTION, _PART = "const", "binder", "read", "op", "fn", "part"


def _postfix(expr, parts):
    """expr as postfix code, where a subtree whose id is in parts is one
    _PART instruction; from an explicit stack, as sums nest deeper than
    the interpreter's recursion limit."""
    code, todo = [], [expr]
    while todo:
        e = todo.pop()
        kind = type(e)
        if kind is tuple:  # an operation, its operands done
            code.append(e)
        elif id(e) in parts:
            code.append((_PART, _postfix(e, ())))
        elif kind is BinOp:
            todo += ((_OPERATOR, _OPERATORS[e.op]), e.right, e.left)
        elif kind is FunCall:
            todo += ((_FUNCTION, _FUNCTIONS[e.name]), e.arg)
        elif kind is IntLit:
            code.append((_CONST, e.value))
        elif kind is VarRef:
            code.append((_READ, e.name))
        elif kind is TermLit:
            code.append((_CONST, e.term.value) if type(e.term) is Int else (_BINDER, e.term))
        else:
            raise TypeError(f"not an expression: {e!r}")
    return code


def _run(code, store, env):
    """The integer value of code that holds no _PART, or _FAIL where a read
    of an unset name ends it; each operation's result is tested against 64 bits."""
    values = []
    for op, arg in code:
        if op is _CONST:
            values.append(arg)
        elif op is _OPERATOR:
            b = values.pop()
            n = values[-1] = arg(values[-1], b)
            if n < INT64_MIN or n > INT64_MAX:
                raise OracleRunError("overflow", "integer overflow")
        elif op is _BINDER:
            t = env.get(arg.name, arg) if type(arg) is Var else arg
            if type(t) is not Int:
                if type(t) is Var:
                    raise OracleRunError("unbound", f"unbound '{t.name}' in arithmetic")
                raise OracleRunError("not-integer", "non-integer term in arithmetic")
            values.append(t.value)
        elif op is _READ:
            held = store.get(arg)
            if held is None:
                return _FAIL
            if type(held) is not Int:
                raise OracleRunError("not-integer", f"'{arg}' holds a non-integer")
            values.append(held.value)
        else:  # _FUNCTION
            values[-1] = arg(values[-1])
    return values[0]


def _residual(code, env, name):
    """code as each leaf of a visit of a choose of name in env runs it: a
    part that raises nothing, and a read of another binder that holds an
    integer, are constants, and code of one constant is its integer."""
    out = []
    for op, arg in code:
        if op is _PART:
            try:
                out.append((_CONST, _run(arg, {}, env)))
            except OracleRunError:
                out += arg  # it raises where it stands, at the first leaf that reaches it
        elif op is _BINDER and type(arg) is Var and arg.name != name and type(t := env.get(arg.name)) is Int:
            out.append((_CONST, t.value))
        else:
            out.append((op, arg))
    return out[0][1] if len(out) == 1 and out[0][0] is _CONST else out


def _compares_terms(goal: Compare):
    """Whether goal compares terms, as == does where a side is a store read or a term."""
    return goal.op == "==" and (type(goal.lhs) in (VarRef, TermLit) or type(goal.rhs) in (VarRef, TermLit))


def _invariant_parts(test: Compare, name):
    """The ids of the largest BinOp and FunCall subtrees of test's sides
    that read no store name and do not mention name: their value is the
    same at every leaf of a choose of name. Leaves are never among them."""
    nodes, todo = [], [(test.rhs, test), (test.lhs, test)]  # parents before children
    while todo:
        e, parent = todo.pop()
        nodes.append((e, parent))
        if type(e) is BinOp:
            todo += ((e.right, e), (e.left, e))
        elif type(e) is FunCall:
            todo.append((e.arg, e))
    variant = {id(test)}  # the nodes whose value may differ between leaves
    for e, parent in reversed(nodes):  # children before parents
        if id(e) in variant or type(e) is VarRef or type(e) is TermLit and mentions(name, (e,)):
            variant.add(id(parent))
    return {id(e) for e, parent in nodes
            if (type(e) is BinOp or type(e) is FunCall)
            and id(e) not in variant and id(parent) in variant}


class _Enumerator:
    def __init__(self, clauses):
        self.table = {}  # (name, arity) -> clauses in source order
        for clause in clauses:
            self.table.setdefault((clause.name, len(clause.params)), []).append(clause)
        self.tests = {}  # id(choose) -> (choose, its leaf test or None, the code of an integer test's sides)
        self.codes = {}  # id(expression) -> (expression, its postfix code)
        self.ranges = {}  # (lo, hi) -> the range's members, for ranges of at most _RANGE_CAP
        self.sets = {}  # id(enumerated set that names no binder) -> (set, its members)

    # expression evaluation over a ground store, in an environment

    def _eval(self, store, expr, env):
        """The integer value of expr, or _FAIL where a read of an unset
        name ends evaluation, from expr's code, made once per enumerator."""
        if (entry := self.codes.get(id(expr))) is None:  # the entry keeps expr alive, and so its id
            entry = self.codes[id(expr)] = (expr, _postfix(expr, ()))
        return _run(entry[1], store, env)

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
        value = self._term_value if _compares_terms(goal) else self._eval
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
        in the order body runs them, or None when no condition pins it;
        whether name occurs outside a term operand of == before the
        first pinning condition, where the engine would read the unbound
        variable and the oracle has bound a candidate already; and
        whether any goal runs before that condition. A pin whose ground
        side differs in shape from the term on the path to name gives no
        candidate. Below each binder, env loses the binder's name, so a
        name bound inside body counts as free."""
        pins, pinned, read, ran = [], False, False, False
        pending = [(body, _shadow(env, name))]
        while pending:
            goal, env = pending.pop()
            kind = type(goal)
            # only the goals before the first pin are looked at
            if kind is Seq:
                pending += ((goal.second, env), (goal.first, env))
                continue
            if kind is Choose or kind is BoundedChoose:
                if not (pinned or read) and kind is BoundedChoose and type(goal.cset) is Enum:
                    read = mentions(name, goal.cset.elements)
                if goal.var != name:
                    pending.append((goal.body, _shadow(env, goal.var)))
            elif kind is Compare and goal.op == "==":
                for a, b in ((goal.lhs, goal.rhs), (goal.rhs, goal.lhs)):
                    if (type(a) is TermLit and mentions(name, (a,))
                            and (ground := self._pin_side(b, env)) is not None):
                        pinned = True
                        self._match_pins(a.term, ground, name, pins)
                if not (pinned or read):
                    read = mentions(name, [e for e in (goal.lhs, goal.rhs) if type(e) is not TermLit])
            elif not (pinned or read):
                read = mentions(name, (goal,))
            if not pinned:
                ran = True
        return pins if pinned else None, read, ran

    def _set_members(self, cset, env):
        match cset:
            case Range(lo, hi):
                if hi - lo >= _RANGE_CAP:  # one at a time: the body may end the run at the first
                    return map(Int, range(lo, hi + 1))
                if (members := self.ranges.get((lo, hi))) is None:
                    members = self.ranges[lo, hi] = tuple(map(Int, range(lo, hi + 1)))
                return members
            case Enum(elements):
                if (entry := self.sets.get(id(cset))) is not None:
                    return entry[1]
                members = [_instance(e, env) for e in elements]
                if any(m is None for m in members):
                    raise OracleRunError("ground", "choice set element is not ground")
                ground = all(map(operator.is_, members, elements))  # _instance shares a term with no Var
                members = list(dict.fromkeys(members))  # first appearance wins
                if ground:  # the entry keeps cset alive, and so its id
                    self.sets[id(cset)] = (cset, members)
                return members
        raise TypeError(f"not a choice set: {cset!r}")

    def _leaf_test(self, goal, env):
        """The condition that the body of the choose goal starts with, or
        None; and where it compares integers, its order and each side's
        residual code in env, or None."""
        entry = self.tests.get(id(goal))
        if entry is None:  # the entry keeps goal alive, so no other goal takes its id
            first = goal.body.first if type(goal.body) is Seq else goal.body
            test = first if type(first) is Compare else None
            sides = None
            if test is not None and test.op in _ORDER and not _compares_terms(test):
                parts = _invariant_parts(test, goal.var)
                sides = (_postfix(test.lhs, parts), _postfix(test.rhs, parts))
            entry = self.tests[id(goal)] = (goal, test, sides)
        _, test, sides = entry
        return test, sides and (_ORDER[test.op], *(_residual(code, env, goal.var) for code in sides))

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
                pins, read_before_pin, ran_before_pin = self._pins(goal.body, var, env)
                if pins is None:
                    raise OutOfBounds(f"choose({var}) has no ground pin")
                if read_before_pin:
                    raise OutOfBounds(f"choose({var}) reads {var} before its pin")
                if not pins and ran_before_pin:
                    # the engine runs those goals once, with var unbound,
                    # where the oracle, with no candidate, would run none
                    raise OutOfBounds(f"choose({var}) runs goals before pinning {var} to no value")
                rule, candidates = 7, list(dict.fromkeys(pins))
            applied = ((rule, goal, None, env), applied)
            # a leaf whose body starts with a condition that fails is skipped
            # before it costs a generator; the body reaches that condition
            # by height + 2, and only the height bound could stop it sooner
            test, sides = self._leaf_test(goal, env) if height + 2 <= MAX_HEIGHT else (None, None)
            if sides is not None:  # an integer test; a side worked out to one value is that integer
                order, lhs, rhs = sides
            if test is not None:
                probe = dict(env)  # each leaf's environment, for its test
            for value in candidates:
                if test is not None:
                    probe[var] = value
                    if sides is None:
                        if not self._holds(store, test, probe):
                            continue
                    elif ((a := lhs if type(lhs) is int else _run(lhs, store, probe)) is _FAIL
                          or (b := rhs if type(rhs) is int else _run(rhs, store, probe)) is _FAIL
                          or not order(a, b)):
                        continue
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
