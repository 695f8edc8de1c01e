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
from collections.abc import Iterator
from dataclasses import dataclass, field
from types import MappingProxyType

from .hot import COUNTING, ClauseIndex, clause_table, set_elements, settle_function
from .syntax import (
    Assign,
    BinOp,
    BoundedChoose,
    Call,
    Choose,
    Compare,
    FunCall,
    IntLit,
    Seq,
    SourceProgram,
    TermLit,
    VarRef,
)
from .terms import (
    INT64_MAX,
    INT64_MIN,
    Compound,
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
    Every write the search makes leaves one trail entry, so undo_to(mark)
    rolls all three back to any earlier point: a binding's variable name
    (a str the collector does not track; WAM too trails the variable alone),
    None for a choice, and (name, previous value or _MISSING) for a store write.

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
        self.trail.append((name, self.store.get(name, _MISSING)))
        self.store[name] = value

    def unify(self, t1, t2) -> bool:
        """Bind logic variables so that t1 and t2 are equal, if they can be;
        a variable that meets a leaf is bound here, as unify_in_place would."""
        subst = self.subst
        a, b = walk(subst, t1), walk(subst, t2)
        if type(a) is not Var:
            a, b = b, a
        if type(a) is Var and type(b) is not Compound:
            if type(b) is not Var or a.name != b.name:
                self.young.clear()  # a new binding may hold a young variable
                self.trail.append(a.name)
                subst[a.name] = b
            return True
        bound = unify_in_place(t1, t2, subst, self.young)
        if bound is None:
            return False
        if bound:
            self.young.clear()
        self.trail += bound
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
        self.trail.append(var.name)
        self.subst[var.name] = walk(self.subst, term)

    def choose(self, name, term):
        self.trail.append(None)
        self.choices.append((name, term))

    def undo_to(self, mark: int):
        # young stays as it is. Undoing only removes bindings, so each
        # young variable is still younger than every binding left; one
        # that the undo makes younger than all of them again stays out of
        # the set, which costs only a walk.
        trail, subst = self.trail, self.subst
        while len(trail) > mark:
            entry = trail.pop()
            if type(entry) is str:
                del subst[entry]
            elif entry is None:
                self.choices.pop()
            elif entry[1] is _MISSING:
                del self.store[entry[0]]
            else:
                self.store[entry[0]] = entry[1]


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


# --- the solver ---------------------------------------------------------------

_RULE = {Call: 3, Compare: 4, Assign: 5, Seq: 6, Choose: 7, BoundedChoose: 8}  # for on_rule


class Solver:
    """Depth-first search; records() yields each solution's rule
    applications, and solve() builds each one's tree from them.

    One loop runs the search, so depth costs memory, not interpreter
    stack. As in Warren's abstract machine, bounded chooses and calls
    push choice points that save what backtracking restores; a point
    takes its alternatives one at a time and goes once its last one is
    taken. A bounded choose's point also holds its settle function once
    the search has one (see hot.py): each backtrack into the point
    calls it once, and it takes the point's alternatives up to the first
    leaf it does not reject, each rejected leaf costing only its steps.
    A call's point takes the clauses its clause index keeps, and a run of
    skipped ones costs only its fresh variables and steps. After
    exhaustion, abandonment or an exception, the state is back to what
    the caller saw.
    """

    def __init__(self, state: ProgramState, budget: SearchBudget | None = None, on_rule=None):
        self.state = state
        self.budget = budget or SearchBudget()
        self.steps = 0
        # trace hook, called per attempt with (rule, (goal, env));
        # format_goal(goal, env) gives the goal's text
        self.on_rule = on_rule

    def solve(self, goal) -> Iterator:
        """The derivation tree of each solution that records() finds; only
        the benchmark's layer replay (bench/layers.py) reads trees this way."""
        from .derivation import tree_of

        records = self.records(goal)
        try:
            for applied in records:
                yield tree_of(applied)
        finally:
            records.close()

    def records(self, goal) -> Iterator[tuple]:
        """The rule applications of each solution, newest first, in the linked
        list of flat tuples (rule, goal, label, env, older) that tree_of reads."""
        st, on_rule, steps = self.state, self.on_rule, self.steps
        max_depth, max_steps = self.budget.max_depth, self.budget.max_steps
        table = clause_table(st.clauses, on_rule is not None)
        # id(node) -> what the hot tier has learnt of it in this search: a
        # bounded choose's visits counted or compiled settle function
        # (settle_function), or a set's elements (set_elements)
        hot = {}
        base_mark = st.mark()
        # frames [goal, env, depth, next] each run goal in env; applied holds
        # the rule applications so far, newest first, as tree_of reads them
        frames, applied = [goal, {}, 1, None], None
        # [alternatives, goal, env, depth, frames, applied, trail mark, settle function or None or COUNTING]
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
                        applied = (6, goal, None, env, applied)
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
                            applied = (4, goal, None, env, applied)
                            continue
                    elif kind is Assign:
                        value = eval_store_value(st.store, st.subst, goal.expr, env)
                        if value is not None:
                            st.set_store(goal.target, value)
                            applied = (5, goal, None, env, applied)
                            continue
                    elif kind is Choose:
                        # a fresh variable, for unification to bind, and
                        # young until the next binding; if nothing binds
                        # it, the witness is UNCONSTRAINED
                        fresh = st.fresh_var()
                        st.young.add(fresh.name)
                        st.choose(goal.var, fresh)
                        applied = (7, goal, None, env, applied)
                        frames = [goal.body, {**env, goal.var: fresh}, depth + 1, frames]
                        continue
                    else:
                        settle = None  # a call's alternatives are clauses, never settled
                        if kind is BoundedChoose:
                            alternatives = set_elements(goal.cset, st.subst, env, hot)
                            if on_rule is None:  # a traced search runs every leaf
                                settle = COUNTING
                        elif kind is Call:
                            # its clauses, or their index (hot.py)
                            alternatives = table.get((goal.name, len(goal.args)))
                            if alternatives is None:
                                raise EvalError("undefined", f"no clause for {goal.name}/{len(goal.args)}")
                            if type(alternatives) is ClauseIndex:
                                alternatives = alternatives.select(goal.args, env, st.subst, depth, max_depth)
                        else:
                            raise TypeError(f"not a goal: {goal!r}")
                        points.append([iter(alternatives), goal, env, depth, frames, applied, st.mark(), settle])
                # backtrack into the newest choice point
                while points:
                    point = points[-1]
                    alternatives, goal, env, depth, frames, applied, mark, settle = point
                    if len(st.trail) > mark:
                        st.undo_to(mark)
                    if settle is COUNTING:
                        settle = settle_function(hot, point, max_depth)
                    if settle is None:
                        for alternative in alternatives:
                            steps += 1
                            break
                        else:
                            points.pop()  # run out, or empty from the start
                            continue
                        if type(alternative) is tuple:
                            # clauses that cannot match, skipped: their attempts' fresh
                            # variables and steps, and nothing else (hot.py says why)
                            st._fresh += alternative[0]
                            steps += alternative[1]
                            if steps > max_steps:
                                steps = max_steps + 1
                                raise BudgetExhausted("steps")
                            continue
                    else:
                        # the leaves it rejects cost their steps and nothing
                        # else: they write nothing, so none needs an undo
                        alternative, steps = settle(st.store, st.subst, env, alternatives, steps, max_steps)
                        if alternative is None:
                            points.pop()
                            continue
                    if steps > max_steps:
                        raise BudgetExhausted("steps")
                    # one whose last alternative is taken goes now, as WAM's trust does;
                    # a range too wide to keep is a map, which goes once it runs out
                    if not operator.length_hint(alternatives, 1):
                        points.pop()
                    bounded = type(goal) is BoundedChoose
                    if on_rule is not None:
                        on_rule(8 if bounded else 3, (goal, env))
                    if bounded:
                        st.choose(goal.var, alternative)
                        applied = (8, goal, None, env, applied)
                        frames = [goal.body, {**env, goal.var: alternative}, depth + 1, frames]
                    else:
                        applied = (3, goal, None, env, applied)
                        params = {}
                        for param, arg in zip(alternative.params, goal.args):
                            params[param] = st.fresh_var()
                            arg = env.get(arg.name, arg) if type(arg) is Var else apply(env, arg)
                            st.bind(params[param], arg)
                            applied = (2, goal, param, env, applied)
                            if on_rule is not None:
                                on_rule(2, (goal, env))
                        if on_rule is not None:
                            on_rule(1, (goal, env))
                        applied = (1, goal, alternative.name, env, applied)
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
