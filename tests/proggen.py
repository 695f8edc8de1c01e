"""Seeded random programs for differential and property testing.

Everything here is a pure function of the passed-in random.Random, so a
seed pins the whole corpus. Generated programs stay inside the oracle's
reach by construction: choice sets are small, clause calls are acyclic,
every unbounded choose carries a ground pin on its body's spine, and
builtin arguments stay small. Runtime faults (overflow chains through
the store) are permitted since engine and oracle agree on them.
"""

from __future__ import annotations

import random

from choo.syntax import (
    Assign,
    BinOp,
    BoundedChoose,
    Call,
    Choose,
    Clause,
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
from choo.terms import Atom, Compound, Int, Var


_MAX_STATEMENTS = 8  # per program
_MAX_CLAUSES = 3
_MAX_SET_SIZE = 4
_MAX_NESTING = 3  # choose-in-choose depth


_ATOMS = ("a", "b", "tom", "bob", "red")
_STORE_NAMES = ("s", "t", "u")
_LOGIC_NAMES = ("x", "y", "z", "w", "k")
_FUNCTORS = ("f", "g", "pair")
_CLAUSE_NAMES = ("p", "q", "r")


class _Gen:
    def __init__(self, rng: random.Random):
        self.rng = rng
        self.stmts_left = _MAX_STATEMENTS
        self.assigned = set()  # store names assigned somewhere earlier in the walk

    # --- ground pieces ---

    def ground_term(self, depth=0):
        r = self.rng.random()
        if r < 0.45:
            return Int(self.rng.randint(-3, 9))
        if r < 0.8 or depth >= 2:
            return Atom(self.rng.choice(_ATOMS))
        functor = self.rng.choice(_FUNCTORS)
        n = self.rng.randint(1, 2)
        return Compound(functor, tuple(self.ground_term(depth + 1) for _ in range(n)))

    def operand(self, term):
        """Term as a == operand, in the shape the parser would build."""
        return IntLit(term.value) if isinstance(term, Int) else TermLit(term)

    def term(self, scope, depth=0):
        if scope and self.rng.random() < 0.3:
            return Var(self.rng.choice(sorted(scope)))
        if depth < 2 and self.rng.random() < 0.2:
            functor = self.rng.choice(_FUNCTORS)
            n = self.rng.randint(1, 2)
            return Compound(functor, tuple(self.term(scope, depth + 1) for _ in range(n)))
        return self.ground_term(depth)

    def int_expr(self, depth=0):
        r = self.rng.random()
        if depth >= 2 or r < 0.5:
            return IntLit(self.rng.randint(-3, 9))
        if r < 0.65 and self.assigned:
            return VarRef(self.rng.choice(sorted(self.assigned)))
        if r < 0.72:
            return FunCall(self.rng.choice(("fib", "fact")), IntLit(self.rng.randint(1, 8)))
        op = self.rng.choice(("+", "+", "-", "*"))
        return BinOp(op, self.int_expr(depth + 1), self.int_expr(depth + 1))

    # --- statements ---

    def stmt(self, scope, calls, nesting):
        self.stmts_left -= 1
        choices = ["assign", "assign", "eq_int", "eq_term", "order", "bounded"]
        if nesting < _MAX_NESTING:
            choices += ["bounded", "unbounded"]
        if calls:
            choices.append("call")
        kind = self.rng.choice(choices)
        if kind == "assign":
            target = self.rng.choice(_STORE_NAMES)
            expr = self.int_expr()
            self.assigned.add(target)
            return Assign(target, expr)
        if kind == "eq_int":
            e = self.int_expr()
            if self.rng.random() < 0.6:
                return Compare("==", e, e)  # holds whenever it evaluates
            return Compare("==", e, self.int_expr())
        if kind == "eq_term":
            lhs = self.operand(self.term(scope))
            rhs = self.operand(self.term(scope)) if self.rng.random() < 0.7 else lhs
            if self.rng.random() < 0.5:
                lhs, rhs = rhs, lhs
            return Compare("==", lhs, rhs)
        if kind == "order":
            op = self.rng.choice(("!=", "<", "<=", ">", ">="))
            return Compare(op, self.int_expr(), self.int_expr())
        if kind == "bounded":
            return self.bounded_choose(scope, calls, nesting)
        if kind == "unbounded":
            return self.unbounded_choose(scope, calls, nesting)
        name, arity = self.rng.choice(calls)
        args = tuple(self.term(scope) for _ in range(arity))
        return Call(name, args)

    def choice_set(self, scope):
        if self.rng.random() < 0.4:
            lo = self.rng.randint(-3, 5)
            if self.rng.random() < 0.15:
                return Range(lo, lo - self.rng.randint(1, 3))  # empty
            return Range(lo, lo + self.rng.randint(0, _MAX_SET_SIZE - 1))
        n = self.rng.randint(0, _MAX_SET_SIZE)
        elements = []
        for _ in range(n):
            e = self.term(scope) if self.rng.random() < 0.25 else self.ground_term()
            elements.append(e)
            if elements and self.rng.random() < 0.2:
                elements.append(self.rng.choice(elements))  # deliberate duplicate
        return Enum(tuple(elements[: _MAX_SET_SIZE + 1]))

    def pick_var(self, scope):
        fresh = [n for n in _LOGIC_NAMES if n not in scope]
        if fresh and self.rng.random() < 0.9:
            return self.rng.choice(fresh)
        return self.rng.choice(_LOGIC_NAMES)  # shadowing is allowed and worth testing

    def bounded_choose(self, scope, calls, nesting):
        var = self.pick_var(scope)
        cset = self.choice_set(scope)
        body = self.body(scope | {var}, calls, nesting + 1)
        return BoundedChoose(var, cset, body)

    def unbounded_choose(self, scope, calls, nesting):
        var = self.pick_var(scope)
        pin = Compare("==", TermLit(Var(var)), self.operand(self.ground_term()))
        if self.rng.random() < 0.5:
            pin = Compare("==", pin.rhs, pin.lhs)
        inner_scope = scope | {var}
        stmts = [pin]
        for _ in range(self.rng.randint(0, 2)):
            if self.stmts_left <= 0:
                break
            stmts.append(self.stmt(inner_scope, calls, nesting + 1))
        self.rng.shuffle(stmts)
        return Choose(var, seq_of(stmts))

    def body(self, scope, calls, nesting):
        n = self.rng.randint(1, 3)
        stmts = []
        for _ in range(n):
            if self.stmts_left <= 0:
                break
            stmts.append(self.stmt(scope, calls, nesting))
        if not stmts:
            value = self.rng.randint(0, 9)
            stmts.append(Compare("==", IntLit(value), IntLit(value)))
        return seq_of(stmts)


def gen_program(rng: random.Random) -> SourceProgram:
    g = _Gen(rng)
    n_clauses = rng.randint(0, _MAX_CLAUSES)
    signatures = []
    for i in range(n_clauses):
        name = f"{rng.choice(_CLAUSE_NAMES)}{i}"
        arity = rng.randint(0, 2)
        params = tuple(_LOGIC_NAMES[:arity])
        signatures.append((name, params))
    clauses = []
    for i, (name, params) in enumerate(signatures):
        # calls flow strictly forward, so recursion never appears
        callable_later = [(n, len(p)) for n, p in signatures[i + 1 :]]
        body = g.body(frozenset(params), callable_later, nesting=0)
        clauses.append(Clause(name, params, body))
    main_calls = [(n, len(p)) for n, p in signatures]
    main = g.body(frozenset(), main_calls, nesting=0)
    return SourceProgram(tuple(clauses), main)


# --- deterministic straight-line programs with a tracked model ---

def _linear_expr(rng: random.Random, model: dict, depth=0):
    """Expression over literals and already-set store names, plus its value.

    The value is computed here with plain integers, independently of the
    engine's evaluator.
    """
    r = rng.random()
    if depth >= 2 or r < 0.45 or (r < 0.7 and not model):
        v = rng.randint(-5, 9)
        return IntLit(v), v
    if r < 0.7:
        name = rng.choice(sorted(model))
        return VarRef(name), model[name]
    left, lv = _linear_expr(rng, model, depth + 1)
    right, rv = _linear_expr(rng, model, depth + 1)
    op = rng.choice(("+", "+", "-", "*"))
    if op == "*" and (abs(lv) > 10**6 or abs(rv) > 10**6):
        op = "+"
    value = lv + rv if op == "+" else lv - rv if op == "-" else lv * rv
    return BinOp(op, left, right), value


def gen_straightline(rng: random.Random):
    """A deterministic goal G, an expression E, and E's value after G.

    G is assignments and ground conditions that hold, so running G then
    evaluating E has exactly one outcome, known without the engine.
    """
    model = {}
    stmts = []
    for _ in range(rng.randint(1, 6)):
        target = rng.choice(_STORE_NAMES)
        expr, value = _linear_expr(rng, model)
        stmts.append(Assign(target, expr))
        model[target] = value
        if rng.random() < 0.3:
            probe, pv = _linear_expr(rng, model)
            stmts.append(Compare("<=", probe, IntLit(pv)))  # always holds
    expr, value = _linear_expr(rng, model)
    return seq_of(stmts), expr, value
