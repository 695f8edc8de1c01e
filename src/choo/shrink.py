"""Counterexample shrinking for `choo oracle-check`.

A shrink step drops a clause, a statement, a set element, an end of a
range or a binder its body does not use, or narrows an unbounded choose
to {1}, so a shrunk program keeps its binders as binders.
"""

from __future__ import annotations

from .syntax import BoundedChoose, Choose, Clause, Enum, Range, Seq, SourceProgram, mentions
from .terms import Int

_MAX_ROUNDS = 200


def _goal_size(goal) -> int:
    if isinstance(goal, Seq):
        return 1 + _goal_size(goal.first) + _goal_size(goal.second)
    if isinstance(goal, Choose):  # weighed as a range, so narrowing it to {1} shrinks it
        return 3 + _goal_size(goal.body)
    if isinstance(goal, BoundedChoose):
        n = len(goal.cset.elements) if isinstance(goal.cset, Enum) else 2
        return 1 + n + _goal_size(goal.body)
    return 1


def _program_size(p: SourceProgram) -> int:
    return _goal_size(p.main) + sum(3 + _goal_size(c.body) for c in p.clauses)


def _goal_variants(goal):
    if isinstance(goal, Seq):
        yield goal.first
        yield goal.second
        for v in _goal_variants(goal.first):
            yield Seq(v, goal.second)
        for v in _goal_variants(goal.second):
            yield Seq(goal.first, v)
    elif isinstance(goal, Choose):
        if not mentions(goal.var, (goal.body,)):
            yield goal.body
        yield BoundedChoose(goal.var, Enum((Int(1),)), goal.body)
        for v in _goal_variants(goal.body):
            yield Choose(goal.var, v)
    elif isinstance(goal, BoundedChoose):
        if not mentions(goal.var, (goal.body,)):
            yield goal.body
        if isinstance(goal.cset, Enum) and goal.cset.elements:
            for i in range(len(goal.cset.elements)):
                smaller = goal.cset.elements[:i] + goal.cset.elements[i + 1 :]
                yield BoundedChoose(goal.var, Enum(smaller), goal.body)
        if isinstance(goal.cset, Range) and goal.cset.lo < goal.cset.hi:
            yield BoundedChoose(goal.var, Range(goal.cset.lo, goal.cset.hi - 1), goal.body)
            yield BoundedChoose(goal.var, Range(goal.cset.lo + 1, goal.cset.hi), goal.body)
        for v in _goal_variants(goal.body):
            yield BoundedChoose(goal.var, goal.cset, v)


def _variants(p: SourceProgram):
    for i in range(len(p.clauses)):
        yield SourceProgram(p.clauses[:i] + p.clauses[i + 1 :], p.main)
    for v in _goal_variants(p.main):
        yield SourceProgram(p.clauses, v)
    for i, c in enumerate(p.clauses):
        for v in _goal_variants(c.body):
            updated = p.clauses[:i] + (Clause(c.name, c.params, v),) + p.clauses[i + 1 :]
            yield SourceProgram(updated, p.main)


def shrink(program: SourceProgram, still_bad) -> SourceProgram:
    """Greedily minimize a program while still_bad(program) stays true.

    still_bad must be safe to call on ill-scoped variants; variants that
    raise inside it are simply skipped. Each round takes the first of the
    smallest failing variants, checking only those below the best so far.
    """
    current = program
    for _ in range(_MAX_ROUNDS):
        best, bar = None, _program_size(current)
        for candidate in _variants(current):
            size = _program_size(candidate)
            if size >= bar:
                continue
            try:
                bad = still_bad(candidate)
            except Exception:
                continue
            if bad:
                best, bar = candidate, size
        if best is None:
            return current
        current = best
    return current
