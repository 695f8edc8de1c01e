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

from dataclasses import dataclass
from typing import Iterator

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
    subst_goal,
)
from .terms import (
    INT64_MAX,
    INT64_MIN,
    Int,
    Subst,
    Var,
    apply,
    format_term,
    free_vars,
    is_ground,
    unify_in_place,
)


class EvalError(Exception):
    """Runtime fault that aborts the search (distinct from failure)."""


class UndefinedProcedure(EvalError):
    pass


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

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "_"


UNCONSTRAINED = _Unconstrained()


@dataclass(frozen=True)
class Outcome:
    """One solution: the chosen witnesses in dynamic order, then the store."""

    witnesses: tuple  # tuple[(name, Term | UNCONSTRAINED), ...]
    store: dict  # name -> ground Term


_MISSING = object()


class ProgramState:
    """Mutable search state with an undo trail.

    The store, the substitution and the choices are written in place.
    Every write the search makes leaves one trail entry, (container,
    key, previous value or _MISSING), so undo_to(mark) rolls all three
    back to any earlier point the same way.
    """

    def __init__(self, clauses=()):
        self.clauses = tuple(clauses)
        self.store = {}
        self.subst = Subst()
        self.trail = []
        self.choices = []  # [(source name, chosen term)], innermost last
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
        bound = unify_in_place(t1, t2, self.subst)
        if bound is None:
            return False
        for name in bound:
            self.trail.append((self.subst, name, _MISSING))
        return True

    def choose(self, name, term):
        self.trail.append((self.choices, len(self.choices), _MISSING))
        self.choices.append((name, term))

    def undo_to(self, mark: int):
        trail = self.trail
        while len(trail) > mark:
            container, key, previous = trail.pop()
            if previous is _MISSING:
                del container[key]
            else:
                container[key] = previous

    def snapshot(self):
        """Observable state, for checking that failed searches change nothing."""
        return (dict(self.store), dict(self.subst), len(self.trail), list(self.choices))


# --- expression evaluation ---------------------------------------------------

def _arith(op: str, a: int, b: int) -> int:
    if op == "+":
        r = a + b
    elif op == "-":
        r = a - b
    elif op == "*":
        r = a * b
    else:
        if b == 0:
            raise EvalError("division by zero")
        # truncate toward zero, unlike Python's floor division
        r = -(-a // b) if (a < 0) != (b < 0) else a // b
    if not (INT64_MIN <= r <= INT64_MAX):
        raise EvalError("integer overflow")
    return r


def fib(n: int) -> int:
    """fib(1) = 0, fib(2) = 1, each later value the sum of the previous two."""
    if n < 1:
        raise EvalError(f"fib needs a positive argument, got {n}")
    if n >= 94:  # fib(93) = 7540113804746346429 is the last value in 64 bits
        raise EvalError("integer overflow in fib")
    a, b = 0, 1
    for _ in range(n - 1):
        a, b = b, a + b
    return a


def fact(n: int) -> int:
    if n < 0:
        raise EvalError(f"fact needs a non-negative argument, got {n}")
    if n > 20:  # 21! exceeds signed 64-bit
        raise EvalError("integer overflow in fact")
    r = 1
    for i in range(2, n + 1):
        r *= i
    return r


def eval_int(store, subst, expr) -> int | None:
    """Ground integer value of expr, or None when a store read is unset.

    Raises EvalError when a subterm is an unbound logic variable or a
    non-integer: arithmetic has no way to proceed on those, whereas an
    unset store name is ordinary failure.
    """
    if isinstance(expr, IntLit):
        return expr.value
    if isinstance(expr, VarRef):
        value = store.get(expr.name)
        if value is None:
            return None
        if not isinstance(value, Int):
            raise EvalError(
                f"store variable '{expr.name}' holds {format_term(value)}, not an integer"
            )
        return value.value
    if isinstance(expr, TermLit):
        t = apply(subst, expr.term)
        if isinstance(t, Int):
            return t.value
        if isinstance(t, Var):
            raise EvalError(f"unbound variable '{t.name}' used in arithmetic")
        raise EvalError(f"{format_term(t)} is not an integer")
    if isinstance(expr, BinOp):
        # walk a left-nested chain such as 1 + 2 + 3 in a loop
        outer = None
        while isinstance(expr.left, BinOp):
            outer, expr = (expr, outer), expr.left
        a = eval_int(store, subst, expr.left)
        while True:
            b = None if a is None else eval_int(store, subst, expr.right)
            a = None if b is None else _arith(expr.op, a, b)
            if a is None or outer is None:
                return a
            expr, outer = outer
    if isinstance(expr, FunCall):
        n = eval_int(store, subst, expr.arg)
        if n is None:
            return None
        return fib(n) if expr.name == "fib" else fact(n)
    raise TypeError(f"not an expression: {expr!r}")


def eval_operand(store, subst, expr):
    """Term value of one side of ==, or None on failure.

    Logic variables may stay unbound here; unification decides what to
    do with them. Arithmetic subexpressions still need ground integers.
    """
    if isinstance(expr, IntLit):
        return Int(expr.value)
    if isinstance(expr, VarRef):
        return store.get(expr.name)
    if isinstance(expr, TermLit):
        return apply(subst, expr.term)
    n = eval_int(store, subst, expr)
    return None if n is None else Int(n)


def eval_store_value(store, subst, expr):
    """Value for an assignment: like an operand, but it must be ground."""
    value = eval_operand(store, subst, expr)
    if value is None:
        return None
    if not is_ground(value):
        names = ", ".join(sorted(v.name for v in free_vars(value)))
        raise EvalError(f"assigned value is not ground (unbound: {names})")
    return value


# --- the solver ---------------------------------------------------------------

class Solver:
    """Depth-first search; solve() yields one DerivationNode per solution.

    One loop runs the search, so depth costs memory, not interpreter
    stack. As in Warren's abstract machine, bounded chooses and calls
    push choice points that save what backtracking restores. After
    exhaustion, abandonment or an exception, the state is back to what
    the caller saw.
    """

    def __init__(self, state: ProgramState, budget: SearchBudget | None = None, on_rule=None):
        self.state = state
        self.budget = budget or SearchBudget()
        self.steps = 0
        self.on_rule = on_rule  # trace hook: called with (rule, goal) per attempt

    def _tick(self, rule: int, goal):
        self.steps += 1
        if self.steps > self.budget.max_steps:
            raise BudgetExhausted("steps")
        if self.on_rule is not None:
            self.on_rule(rule, goal)

    def solve(self, goal) -> Iterator[DerivationNode]:
        st = self.state
        tick = self._tick
        max_depth = self.budget.max_depth
        base_mark = st.mark()
        # frames (rule, goal, depth, next): rule 0 proves goal; 3, 6, 7, 8
        # build that node from the top of nodes (rule 3 holds the clause)
        frames, nodes = (0, goal, 1, None), None
        points = []  # (alternatives, goal, depth, frames, nodes, trail mark)
        try:
            while True:
                if frames is None:
                    yield nodes[0]
                else:
                    rule, goal, depth, frames = frames
                    if rule:
                        child, nodes = nodes
                        if rule == 6:
                            left, nodes = nodes
                            node = DerivationNode(6, goal, (left, child))
                        elif rule == 3:
                            node = DerivationNode(1, goal, (child,), depth.name)
                            for param in reversed(depth.params):
                                node = DerivationNode(2, goal, (node,), param)
                            node = DerivationNode(3, goal, (node,))
                        else:
                            node = DerivationNode(rule, goal, (child,))
                        nodes = (node, nodes)
                        continue
                    if depth > max_depth:
                        raise BudgetExhausted("depth")
                    if isinstance(goal, Seq):
                        tick(6, goal)
                        frames = (0, goal.first, depth + 1,
                                  (0, goal.second, depth + 1, (6, goal, None, frames)))
                        continue
                    if isinstance(goal, Compare):
                        tick(4, goal)
                        if self._condition_holds(goal):
                            nodes = (DerivationNode(4, goal, ()), nodes)
                            continue
                    elif isinstance(goal, Assign):
                        tick(5, goal)
                        value = eval_store_value(st.store, st.subst, goal.expr)
                        if value is not None:
                            st.set_store(goal.target, value)
                            nodes = (DerivationNode(5, goal, ()), nodes)
                            continue
                    elif isinstance(goal, Choose):
                        # a fresh variable, for unification to bind; if
                        # nothing does, the witness is UNCONSTRAINED
                        tick(7, goal)
                        fresh = st.fresh_var()
                        st.choose(goal.var, fresh)
                        frames = (0, subst_goal(goal.body, goal.var, fresh), depth + 1,
                                  (7, goal, None, frames))
                        continue
                    elif isinstance(goal, BoundedChoose):
                        tick(8, goal)
                        points.append((iter(self._set_elements(goal.cset)), goal, depth,
                                       frames, nodes, st.mark()))
                    elif isinstance(goal, Call):
                        tick(3, goal)
                        matching = [
                            c for c in st.clauses
                            if c.name == goal.name and len(c.params) == len(goal.args)
                        ]
                        if not matching:
                            raise UndefinedProcedure(f"no clause for {goal.name}/{len(goal.args)}")
                        points.append((iter(matching), goal, depth,
                                       frames, nodes, st.mark()))
                    else:
                        raise TypeError(f"not a goal: {goal!r}")
                # backtrack into the newest choice point with an alternative left
                while points:
                    alternatives, goal, depth, frames, nodes, mark = points[-1]
                    st.undo_to(mark)
                    alternative = next(alternatives, None)
                    if alternative is None:
                        points.pop()
                    elif isinstance(goal, BoundedChoose):
                        tick(8, goal)
                        body = subst_goal(goal.body, goal.var, alternative)
                        st.choose(goal.var, alternative)
                        frames = (0, body, depth + 1, (8, goal, None, frames))
                        break
                    else:
                        tick(3, goal)
                        body = alternative.body
                        for param, arg in zip(alternative.params, goal.args):
                            fresh = st.fresh_var()
                            st.unify(fresh, arg)  # fresh var: cannot fail
                            body = subst_goal(body, param, fresh)
                        if self.on_rule is not None:
                            for _ in alternative.params:
                                self.on_rule(2, goal)
                            self.on_rule(1, goal)
                        frames = (0, body, depth + 1, (3, goal, alternative, frames))
                        break
                else:
                    return
        finally:
            st.undo_to(base_mark)

    def _condition_holds(self, goal) -> bool:
        st = self.state
        if goal.op == "==":
            lhs = eval_operand(st.store, st.subst, goal.lhs)
            if lhs is None:
                return False
            rhs = eval_operand(st.store, st.subst, goal.rhs)
            if rhs is None:
                return False
            return st.unify(lhs, rhs)
        a = eval_int(st.store, st.subst, goal.lhs)
        if a is None:
            return False
        b = eval_int(st.store, st.subst, goal.rhs)
        if b is None:
            return False
        if goal.op == "!=":
            return a != b
        if goal.op == "<":
            return a < b
        if goal.op == "<=":
            return a <= b
        if goal.op == ">":
            return a > b
        return a >= b

    def _set_elements(self, cset):
        if isinstance(cset, Range):
            return (Int(i) for i in range(cset.lo, cset.hi + 1))
        # written order, structural duplicates dropped after resolving
        resolved = []
        for e in cset.elements:
            r = apply(self.state.subst, e)
            if r not in resolved:
                resolved.append(r)
        return resolved


# --- entry points --------------------------------------------------------------

def _witness_value(subst, term):
    resolved = apply(subst, term)
    return UNCONSTRAINED if isinstance(resolved, Var) else resolved


def run(program, goal=None, budget: SearchBudget | None = None, on_rule=None):
    """Iterate (Outcome, DerivationNode) pairs in search order.

    program may be a SourceProgram (goal defaults to its main goal) or a
    sequence of clauses with an explicit goal.
    """
    if isinstance(program, SourceProgram):
        clauses = program.clauses
        goal = program.main if goal is None else goal
    else:
        clauses = tuple(program)
        if goal is None:
            raise ValueError("a goal is required when passing bare clauses")
    state = ProgramState(clauses)
    solver = Solver(state, budget, on_rule)
    for node in solver.solve(goal):
        witnesses = tuple(
            (name, _witness_value(state.subst, term)) for name, term in state.choices
        )
        yield Outcome(witnesses, dict(state.store)), node


def execute(program, goal=None, budget: SearchBudget | None = None, on_rule=None) -> Iterator[Outcome]:
    """Lazy stream of solutions; empty iteration means no derivation exists."""
    for outcome, _ in run(program, goal, budget, on_rule):
        yield outcome
