"""Execution engine: depth-first backtracking search over program states.

A program state is a store (name to ground term), a substitution over
logic variables, and the stack of pending choices. The solver walks the
goal structure left to right, trying alternatives in source order and
undoing state changes through a trail when an alternative is exhausted.
Solutions stream out lazily; asking for the first one costs only the
search up to it.

Failure (a condition that does not hold, an empty choice set, a store
read of an unset name) is an ordinary outcome that triggers
backtracking. Runtime errors are different: arithmetic on an unbound
logic variable or a non-integer, overflow past signed 64-bit, division
by zero, bad builtin arguments, and calls to undefined procedures all
raise EvalError and abort the search.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Iterator

from .derivation import DerivationNode, tree_of
from .syntax import (
    Assign,
    BinOp,
    BoundedChoose,
    Call,
    Choose,
    Compare,
    FunCall,
    IntLit,
    Range,
    Seq,
    SourceProgram,
    TermLit,
    VarRef,
)
from .terms import (
    INT64_MAX,
    INT64_MIN,
    Int,
    Var,
    apply,
    format_term,
    free_vars,
    unify_in_place,
    walk,
)


# what a runtime error is about; the oracle's errors use the same words
ERROR_KINDS = ("division", "overflow", "domain", "unbound", "not-integer", "ground", "undefined")


class EvalError(Exception):
    """Runtime fault that aborts the search (distinct from failure)."""

    def __init__(self, kind: str, message: str):
        super().__init__(message)  # str() is the message alone
        self.kind = kind  # one of ERROR_KINDS


class BudgetExhausted(Exception):
    """Search exceeded its depth or step budget; neither success nor failure."""

    def __init__(self, what: str):
        super().__init__(what)
        self.what = what  # "depth" or "steps"


@dataclass(frozen=True)
class SearchBudget:
    max_depth: int = 10_000
    max_steps: int = 1_000_000

    def __post_init__(self):
        if self.max_depth < 1 or self.max_steps < 1:
            raise ValueError("budget limits must be at least 1")


class _Unconstrained:
    """Witness value of a chosen variable that no condition ever bound."""

    def __repr__(self):
        return "_"


UNCONSTRAINED = _Unconstrained()


@dataclass(frozen=True)
class Outcome:
    """One solution: the chosen witnesses in dynamic order, then the store.

    record is its derivation as Solver.records yields it. Outcomes
    compare and print by witnesses and store alone."""

    witnesses: tuple  # tuple[(name, Term | UNCONSTRAINED), ...]
    store: dict  # name -> ground Term
    record: tuple | None = field(default=None, compare=False, repr=False)


_MISSING = object()


class ProgramState:
    """Mutable search state with an undo trail.

    The store, the substitution and the choices are written in place.
    Every write the search makes leaves one trail entry, (container,
    key, previous value or _MISSING), so undo_to(mark) rolls all three
    back to any earlier point the same way.

    young names the choose variables made since the last binding, which
    unify_in_place may bind without an occurs check (see there).
    """

    def __init__(self, clauses=()):
        self.clauses = tuple(clauses)
        self.store = {}
        self.subst = {}
        self.trail = []
        self.choices = []  # [(source name, chosen term)], innermost last
        self.young = set()
        self._fresh = 0

    def fresh_var(self) -> Var:
        self._fresh += 1
        return Var(f"_G{self._fresh}")

    def mark(self) -> int:
        return len(self.trail)

    def set_store(self, name, value):
        self.trail.append((self.store, name, self.store.get(name, _MISSING)))
        self.store[name] = value

    def unify(self, t1, t2) -> bool:
        """Bind logic variables so that t1 and t2 are equal, if they can be."""
        bound = unify_in_place(t1, t2, self.subst, self.young)
        if bound is None:
            return False
        if bound:
            self.young.clear()  # a new binding may hold a young variable
        for name in bound:
            self.trail.append((self.subst, name, _MISSING))
        return True

    def bind(self, var, term):
        """Bind a variable that occurs nowhere yet, so that no occurs check
        is needed; binding to the walked term keeps chains short.

        It also ends every young variable's youth. unify_in_place binds
        a young variable to a term reached through a binding without a
        walk, since every binding was made before the variable was; this
        binding is newer and may hold it, as p(f(y), y) binds one
        parameter to f(y)."""
        self.young.clear()
        self.trail.append((self.subst, var.name, _MISSING))
        self.subst[var.name] = walk(self.subst, term)

    def choose(self, name, term):
        self.trail.append((self.choices, len(self.choices), _MISSING))
        self.choices.append((name, term))

    def undo_to(self, mark: int):
        # young stays as it is. Undoing only removes bindings, so each
        # young variable is still younger than every binding left; one
        # that the undo makes younger than all of them again stays out of
        # the set, which costs only a walk.
        trail = self.trail
        while len(trail) > mark:
            container, key, previous = trail.pop()
            if previous is _MISSING:
                del container[key]
            else:
                container[key] = previous


# --- expression evaluation ---------------------------------------------------
#
# Expressions are evaluated where they stand in the source, with env
# mapping the names of the binders around them to their values: a
# choose extends env by one name, a call opens a fresh one for the clause
# parameters, and an inner binder shadows an outer one of the same name.

def _divide(a: int, b: int) -> int:
    if b == 0:
        raise EvalError("division", "division by zero")
    # truncate toward zero, unlike Python's floor division
    return -(-a // b) if (a < 0) != (b < 0) else a // b


_ARITH = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": _divide}
_ORDER = {"==": operator.eq, "!=": operator.ne, "<": operator.lt, "<=": operator.le,
          ">": operator.gt, ">=": operator.ge}
_NO_ENV = MappingProxyType({})
_TERM_SIDES = frozenset({VarRef, TermLit})  # sides of == that may hold a term, not just an integer


_FIB = [0, 1]  # fib(1) to fib(93) = 7540113804746346429, the last value in 64 bits
while len(_FIB) < 93:
    _FIB.append(_FIB[-2] + _FIB[-1])


def fib(n: int) -> int:
    """fib(1) = 0, fib(2) = 1, each later value the sum of the previous two."""
    if n < 1:
        raise EvalError("domain", f"fib needs a positive argument, got {n}")
    if n > len(_FIB):
        raise EvalError("overflow", "integer overflow in fib")
    return _FIB[n - 1]


def fact(n: int) -> int:
    if n < 0:
        raise EvalError("domain", f"fact needs a non-negative argument, got {n}")
    if n > 20:  # 21! exceeds signed 64-bit
        raise EvalError("overflow", "integer overflow in fact")
    r = 1
    for i in range(2, n + 1):
        r *= i
    return r


def eval_int(store, subst, expr, env=_NO_ENV) -> int | None:
    """Ground integer value of expr, or None when a store read is unset.

    Raises EvalError when a subterm is an unbound logic variable or a
    non-integer: arithmetic has no way to proceed on those, whereas an
    unset store name is ordinary failure. env maps binder names to terms
    over the search's own variables, as the search builds it.
    """
    kind = type(expr)
    if kind is IntLit:
        return expr.value
    if kind is TermLit:
        t = expr.term
        t = env.get(t.name, t) if type(t) is Var else apply(env, t)
        if type(t) is Int:
            return t.value
        t = apply(subst, t)
        if isinstance(t, Int):
            return t.value
        if isinstance(t, Var):  # then expr.term is the variable the program wrote
            raise EvalError("unbound", f"unbound variable '{expr.term.name}' used in arithmetic")
        raise EvalError("not-integer", f"{format_term(t)} is not an integer")
    if kind is VarRef:
        value = store.get(expr.name)
        if value is None or type(value) is Int:
            return value and value.value
        raise EvalError("not-integer",
                        f"store variable '{expr.name}' holds {format_term(value)}, not an integer")
    if kind is FunCall:
        n = eval_int(store, subst, expr.arg, env)
        return None if n is None else fib(n) if expr.name == "fib" else fact(n)
    if kind is not BinOp:
        raise TypeError(f"not an expression: {expr!r}")
    # walk a left-nested chain such as 1 + 2 + 3 in a loop
    outer = None
    while type(expr.left) is BinOp:
        outer, expr = (expr, outer), expr.left
    a = eval_int(store, subst, expr.left, env)
    while True:
        if a is None or (b := eval_int(store, subst, expr.right, env)) is None:
            return None
        a = _ARITH[expr.op](a, b)
        if not INT64_MIN <= a <= INT64_MAX:
            raise EvalError("overflow", "integer overflow")
        if outer is None:
            return a
        expr, outer = outer


def eval_operand(store, subst, expr, env=_NO_ENV):
    """Term value of one side of ==, or None on failure.

    A term is left unresolved: unification walks the bindings itself.
    Arithmetic subexpressions still need ground integers. env is as for
    eval_int: binder names to terms over the search's own variables.
    """
    if type(expr) is IntLit:
        return Int(expr.value)
    if type(expr) is VarRef:
        return store.get(expr.name)
    if type(expr) is TermLit:
        t = expr.term
        return env.get(t.name, t) if type(t) is Var else apply(env, t)
    n = eval_int(store, subst, expr, env)
    return None if n is None else Int(n)


def eval_store_value(store, subst, expr, env=_NO_ENV):
    """Value for an assignment: like an operand, but ground and resolved,
    since the store outlives the bindings that backtracking undoes."""
    value = eval_operand(store, subst, expr, env)
    if type(expr) is TermLit:
        value = apply(subst, value)
        if free_vars(value):  # name the variables the program wrote
            names = sorted({v.name for v in free_vars(expr.term)
                            if free_vars(env.get(v.name, v), subst)})
            raise EvalError("ground", f"assigned value is not ground (unbound: {', '.join(names)})")
    return value


# --- the hot tier ---------------------------------------------------------------
#
# A search runs the body of a bounded choose once per element, and in
# the paper's pattern-matching examples almost every such leaf fails in
# its first condition. Once a search has taken _HOT_AFTER leaves of one
# bounded choose, it compiles the leading run of that choose's body, the
# integer conditions and assignments before any other kind of goal, into
# one function of straight-line code, filter(store, subst, env, value),
# where value stands in for the choose variable. It returns k when the
# leaf certainly fails in that run after k steps (Seq nodes entered plus
# goals run) with no error, and None otherwise: the run holds, an
# operand is not an Int, an operation overflows or divides by zero, a
# store read is unset, or the run reaches a goal it does not compile.
# On k the search counts the leaf's 1 + k steps and takes the next
# alternative at once, with no trail entry, env, frame or record, as
# compiled Prolog rejects a clause in its guard before committing to it.
#
# This is exact. A filter has no side effect: an assignment goes to a
# local that later reads of its name use, and nothing is bound, chosen or
# made fresh, so the state after a skipped leaf is the state that running
# and undoing it leaves. Where it returns k, running the leaf reads the
# same values and fails after the same k steps, and a failed leaf leaves
# nothing in any record. Three conditions keep a filter out, and the
# leaf runs as it always does: a trace hook is set, which must see every
# step; steps + k would pass max_steps; or depth + 1 + the run's Seq
# nesting would pass max_depth. So outcomes, errors, traces, steps and
# records are what they are without the tier. What a search compiles
# lives in a dict that the search makes and drops.

# leaves of one bounded choose that a search takes before it compiles the
# choose's filter. Compiling one costs as much as 46-67 leaf runs, and
# the filter repays that after 57-112 leaves (quartiles over the seed-3
# choice pools; Python 3.11.7, a shared 2-core host), so a choose that
# stops right after compiling costs at most about 1.5 times what it
# would without the tier. ROADMAP.md gives the per-search leaf counts.
_HOT_AFTER = 128
_RANGE_CAP = 4096  # the widest range whose elements a search keeps
_COUNTING = object()  # a choice point whose search is still counting its choose's leaves

# code for each operator, and for each comparison the test that it
# fails; the operator only selects it, so no program text reaches the
# generated source
_ARITH_CODE = {"+": "{r} = {a} + {b}", "-": "{r} = {a} - {b}", "*": "{r} = {a} * {b}",
               "/": "if not {b}: return None\n    {r} = divide({a}, {b})"}
_FAILS_CODE = {"==": "{} != {}", "!=": "{} == {}", "<": "{} >= {}", "<=": "{} > {}",
               ">": "{} <= {}", ">=": "{} < {}"}


def _emit_int(expr, var, lines, namespace, local_of):
    """Append to lines the code that computes expr's value as a Python
    int, and return the name that holds it; None when expr holds a call
    or a term that is not a variable.

    The code reads each leaf in eval_int's order: a literal; the choose
    variable var, as value; another binder in env, through one subst
    step for a clause parameter; a store name. It returns None at a leaf
    that is not an Int, at a division by zero and after an operation
    that leaves signed 64-bit; / goes through _divide. local_of maps
    each leaf read so far, (VarRef or TermLit, name), to its local, and
    a store name assigned earlier in the run to the assigned value's.
    Names and literal values reach the code only through namespace.
    """
    operands, stack = [], [expr]
    while stack:
        e = stack.pop()
        kind = type(e)
        if kind is BinOp:
            stack += (_ARITH_CODE[e.op], e.right, e.left)
        elif kind is str:  # an operation whose operands are done
            b, a = operands.pop(), operands.pop()
            r = f"r{len(lines)}"
            lines += (e.format(r=r, a=a, b=b), f"if not {INT64_MIN} <= {r} <= {INT64_MAX}: return None")
            operands.append(r)
        elif kind is IntLit:
            operands.append(f"k{len(namespace)}")
            namespace[operands[-1]] = e.value
        elif kind is VarRef or (kind is TermLit and type(e.term) is Var):
            key = (kind, e.name if kind is VarRef else e.term.name)
            if key not in local_of:  # a leaf read twice is read once
                v = local_of[key] = f"v{len(local_of)}"
                k = f"k{len(namespace)}"
                namespace[k] = key[1]
                if kind is VarRef:
                    lines += (f"{v} = store.get({k})", f"if type({v}) is not Int: return None")
                else:
                    lines += (f"{v} = {'value' if key[1] == var else f'env.get({k})'}",
                              f"if type({v}) is not Int:",
                              f"    {v} = subst.get({v}.name) if type({v}) is Var else None",
                              f"    if type({v}) is not Int: return None")
                lines.append(f"{v} = {v}.value")
            operands.append(local_of[key])
        else:
            return None
    return operands[0]


def _compile_filter(goal):
    """(filter, deepest) for the leaves of the bounded choose goal.

    The walk follows the body's Seq spine in execution order, from an
    explicit stack, and counts each Seq node and goal as the search's
    step would. It compiles Compare and Assign goals whose sides are
    integer expressions of literals, variables and + - * /, and ends at
    the first goal of any other kind. == compiles like the order
    comparisons: of two Ints, unification and equality are both equality.
    The filter stops after the last condition; deepest is the Seq
    nesting of the deepest node up to it. filter is None when the run
    holds no condition.
    """
    namespace = {"Int": Int, "Var": Var, "divide": _divide}
    lines, local_of = [], {}
    stack, steps, reach = [(goal.body, 0)], 0, 0
    kept = deepest = 0  # the lines up to the last condition, and its nesting
    while stack:
        node, nesting = stack.pop()
        steps, reach = steps + 1, max(reach, nesting)
        kind = type(node)
        if kind is Seq:
            stack += ((node.second, nesting + 1), (node.first, nesting + 1))
        elif kind is Compare:
            a = _emit_int(node.lhs, goal.var, lines, namespace, local_of)
            b = None if a is None else _emit_int(node.rhs, goal.var, lines, namespace, local_of)
            if b is None:
                break
            lines.append(f"if {_FAILS_CODE[node.op].format(a, b)}: return {steps}")
            kept, deepest = len(lines), reach
        elif kind is Assign and (a := _emit_int(node.expr, goal.var, lines, namespace, local_of)):
            local_of[(VarRef, node.target)] = a
        else:
            break
    if not kept:
        return None, 0
    source = "\n    ".join(["def leaf_filter(store, subst, env, value):", *lines[:kept], "return None"])
    exec(compile(source, "<choo leaf filter>", "exec"), namespace)
    # a function its own namespace held would be freed only by gc
    return namespace.pop("leaf_filter"), deepest


def _leaf_filter(hot, point, max_depth):
    """The filter for the leaf that point, a bounded choose's choice
    point, takes next, or None.

    hot maps id(goal) to the leaves of goal this search has taken, then
    to (filter, deepest) from _compile_filter. While the count is below
    _HOT_AFTER this counts the leaf; once the filter is compiled, point
    keeps it, or None when its leaves are too deep for it: one that
    passes max_depth must reach its depth check.
    """
    goal, depth = point[1], point[3]
    seen = hot.get(id(goal), 0)
    if type(seen) is int:
        if seen < _HOT_AFTER:
            hot[id(goal)] = seen + 1
            return None
        seen = hot[id(goal)] = _compile_filter(goal)
    leaf_filter, deepest = seen
    point[7] = leaf_filter if depth + 1 + deepest <= max_depth else None
    return point[7]


def _elements(cset, subst, env, hot):
    """The elements of a choice set in env, in the order they are tried.

    A set that names no binder is made once per search, and hot maps
    id(cset) to them; a range wider than _RANGE_CAP is made one at a time.
    """
    elements = hot.get(id(cset))
    if elements is None:
        if type(cset) is Range:
            elements = map(Int, range(cset.lo, cset.hi + 1))
            if cset.hi - cset.lo >= _RANGE_CAP:
                return elements
        else:
            # written order, structural duplicates dropped after resolving: first appearance wins
            elements = dict.fromkeys(apply(subst, apply(env, e)) for e in cset.elements)
            if any(map(free_vars, cset.elements)):
                return elements
        elements = hot[id(cset)] = tuple(elements)
    return elements


# --- the solver ---------------------------------------------------------------

_RULE = {Call: 3, Compare: 4, Assign: 5, Seq: 6, Choose: 7, BoundedChoose: 8}  # for on_rule


class Solver:
    """Depth-first search; records() yields each solution's rule
    applications, and solve() builds each one's tree from them.

    One loop runs the search, so depth costs memory, not interpreter
    stack. As in Warren's abstract machine, bounded chooses and calls
    push choice points that save what backtracking restores; a point
    takes its alternatives in one for-loop and goes once its last one is
    taken. A bounded choose's point also holds its leaf filter once the
    search has one (see the hot tier), and a leaf the filter rejects
    costs only its steps. After exhaustion, abandonment or an exception,
    the state is back to what the caller saw.
    """

    def __init__(self, state: ProgramState, budget: SearchBudget | None = None, on_rule=None):
        self.state = state
        self.budget = budget or SearchBudget()
        self.steps = 0
        # trace hook, called per attempt with (rule, (goal, env));
        # format_goal(goal, env) gives the goal's text
        self.on_rule = on_rule

    def solve(self, goal) -> Iterator[DerivationNode]:
        """The tree of each solution that records() finds; only the
        benchmark's layer replay (bench/layers.py) reads trees this way."""
        records = self.records(goal)
        try:
            for applied in records:
                yield tree_of(applied)
        finally:
            records.close()

    def records(self, goal) -> Iterator[tuple]:
        """The rule applications of each solution, newest first, in the
        linked list ((rule, goal, label, env), older) that tree_of reads."""
        st, on_rule, steps = self.state, self.on_rule, self.steps
        max_depth, max_steps = self.budget.max_depth, self.budget.max_steps
        table = {}  # (name, arity) -> the clauses a call tries, in source order
        for clause in st.clauses:
            table.setdefault((clause.name, len(clause.params)), []).append(clause)
        # id(node) -> what this search has learnt of it: a bounded choose's
        # leaves taken or compiled filter (_leaf_filter), a ground set's
        # elements (_elements)
        hot = {}
        base_mark = st.mark()
        # frames [goal, env, depth, next] each run goal in env; applied holds
        # the rule applications so far, newest first, as tree_of reads them
        frames, applied = [goal, {}, 1, None], None
        # [alternatives, goal, env, depth, frames, applied, trail mark, leaf filter or None or _COUNTING]
        points = []
        try:
            while True:
                if frames is None:
                    self.steps = steps
                    yield applied
                else:
                    goal, env, depth, frames = frames
                    if depth > max_depth:
                        raise BudgetExhausted("depth")
                    steps += 1
                    if steps > max_steps:
                        raise BudgetExhausted("steps")
                    kind = type(goal)
                    if on_rule is not None:
                        on_rule(_RULE.get(kind), (goal, env))
                    if kind is Seq:
                        applied = ((6, goal, None, env), applied)
                        frames = [goal.first, env, depth + 1, [goal.second, env, depth + 1, frames]]
                        continue
                    if kind is Compare:
                        lhs, rhs = goal.lhs, goal.rhs
                        if goal.op != "==" or not (type(lhs) in _TERM_SIDES or type(rhs) in _TERM_SIDES):
                            # == of two integers is equality
                            a = eval_int(st.store, st.subst, lhs, env)
                            b = None if a is None else eval_int(st.store, st.subst, rhs, env)
                            held = b is not None and _ORDER[goal.op](a, b)
                        else:  # unification; of two store values, which are ground, it is equality
                            a = eval_operand(st.store, st.subst, lhs, env)
                            b = None if a is None else eval_operand(st.store, st.subst, rhs, env)
                            held = b is not None and (
                                st.unify(a, b) if type(lhs) is TermLit or type(rhs) is TermLit else a == b)
                        if held:
                            applied = ((4, goal, None, env), applied)
                            continue
                    elif kind is Assign:
                        value = eval_store_value(st.store, st.subst, goal.expr, env)
                        if value is not None:
                            st.set_store(goal.target, value)
                            applied = ((5, goal, None, env), applied)
                            continue
                    elif kind is Choose:
                        # a fresh variable, for unification to bind, and
                        # young until the next binding; if nothing binds
                        # it, the witness is UNCONSTRAINED
                        fresh = st.fresh_var()
                        st.young.add(fresh.name)
                        st.choose(goal.var, fresh)
                        applied = ((7, goal, None, env), applied)
                        frames = [goal.body, {**env, goal.var: fresh}, depth + 1, frames]
                        continue
                    else:
                        leaf = None  # a call's alternatives are clauses, never filtered
                        if kind is BoundedChoose:
                            alternatives = _elements(goal.cset, st.subst, env, hot)
                            if on_rule is None:  # a traced search runs every leaf
                                leaf = _COUNTING
                        elif kind is Call:
                            alternatives = table.get((goal.name, len(goal.args)))
                            if alternatives is None:
                                raise EvalError("undefined", f"no clause for {goal.name}/{len(goal.args)}")
                        else:
                            raise TypeError(f"not a goal: {goal!r}")
                        points.append([iter(alternatives), goal, env, depth, frames, applied, st.mark(), leaf])
                # backtrack into the newest choice point
                while points:
                    point = points[-1]
                    alternatives, goal, env, depth, frames, applied, mark, leaf = point
                    st.undo_to(mark)
                    # a leaf its filter shows failing in k steps costs them
                    # and nothing else: it writes nothing, so the next
                    # alternative needs no undo and is taken here
                    for alternative in alternatives:
                        steps += 1
                        if steps > max_steps:
                            raise BudgetExhausted("steps")
                        if leaf is _COUNTING:
                            leaf = _leaf_filter(hot, point, max_depth)
                        if (leaf is None or (k := leaf(st.store, st.subst, env, alternative)) is None
                                or steps + k > max_steps):
                            break
                        steps += k
                    else:
                        points.pop()  # run out, or empty from the start
                        continue
                    # one whose last alternative is taken goes now, as WAM's trust does;
                    # a range too wide to keep is a map, which goes once it runs out
                    if not operator.length_hint(alternatives, 1):
                        points.pop()
                    bounded = type(goal) is BoundedChoose
                    if on_rule is not None:
                        on_rule(8 if bounded else 3, (goal, env))
                    if bounded:
                        st.choose(goal.var, alternative)
                        applied = ((8, goal, None, env), applied)
                        frames = [goal.body, {**env, goal.var: alternative}, depth + 1, frames]
                    else:
                        applied = ((3, goal, None, env), applied)
                        params = {}
                        for param, arg in zip(alternative.params, goal.args):
                            params[param] = st.fresh_var()
                            arg = env.get(arg.name, arg) if type(arg) is Var else apply(env, arg)
                            st.bind(params[param], arg)
                            applied = ((2, goal, param, env), applied)
                            if on_rule is not None:
                                on_rule(2, (goal, env))
                        if on_rule is not None:
                            on_rule(1, (goal, env))
                        applied = ((1, goal, alternative.name, env), applied)
                        frames = [alternative.body, params, depth + 1, frames]
                    break
                else:
                    return
        finally:
            self.steps = steps
            st.undo_to(base_mark)


# --- entry points --------------------------------------------------------------

def _witness_value(subst, term, memo):
    resolved = apply(subst, term, memo)
    return UNCONSTRAINED if isinstance(resolved, Var) else resolved


def execute(program: SourceProgram, budget: SearchBudget | None = None, on_rule=None) -> Iterator[Outcome]:
    """Lazy stream of the program's solutions in search order, each
    Outcome carrying its derivation's record; empty iteration means no
    derivation exists. on_rule is Solver's trace hook."""
    state = ProgramState(program.clauses)
    for applied in Solver(state, budget, on_rule).records(program.main):
        memo = {}  # one per outcome: the bindings differ between solutions
        witnesses = tuple(
            (name, _witness_value(state.subst, term, memo)) for name, term in state.choices
        )
        yield Outcome(witnesses, dict(state.store), applied)
