"""The hot tier: settle functions, clause indexes, and the element tuples
a search keeps.

A search runs the body of a bounded choose once per element, and in
the paper's pattern-matching examples almost every such leaf fails in
its first condition. Once a search has backtracked _HOT_AFTER times
into the choice points of one bounded choose, each time for at most one
leaf, it compiles the leading run of that choose's body, the integer
conditions and assignments before any other kind of goal, into one
settle function, settle(store, subst, env, alternatives, steps,
max_steps). A choice point calls it each time the search backtracks
into the point, with the alternatives it has left. Its prologue
computes, once per call, each value of the run that does not read the
choose variable v: outer binders, store reads, and what is computed
from them alone. Its loop then runs, per alternative, only the code
that reads v. A leaf that certainly fails in the run after k steps
(Seq nodes entered plus goals run), with no error, costs its 1 + k
steps and nothing else: no trail entry, env, frame or record, as
compiled Prolog rejects a clause in its guard before committing to it.
The function returns (alternative, steps) at the first leaf it does not
reject, with that leaf's own step counted, and (None, steps) once the
alternatives run out.

It does not reject a leaf where the run holds, an operand is not an
Int, an operation overflows or divides by zero, a store read is unset,
or the run reaches a goal it does not compile. A v-free value that
meets one of these is None in the prologue, and the loop tests it where
the run first uses it, so a leaf that an earlier condition rejects is
still rejected: choose(z in {0..200}) (z < 3; s / 0 == 1) rejects z = 3
to 200 and hands back z = 0 to 2.

This is exact. A settle function has no side effect: an assignment goes
to a local that later reads of its name use, and nothing is bound,
chosen or made fresh, so the state after a rejected leaf is the state
that running and undoing it leaves. Where it rejects a leaf, running the
leaf reads the same values and fails after the same k steps, and a
failed leaf leaves nothing in any record. Three conditions keep it out,
and the leaf runs as it always does: a trace hook is set, which must see
every step; steps + 1 + k', with k' the steps through the run's last
condition, would pass max_steps, where the leaf is handed back; or
depth + 1 + the run's Seq nesting would pass max_depth. So
outcomes, errors, traces, steps and records are what they are without
the tier.

A call selects its clauses by their leading condition, as Prolog
indexes on the first argument (Warren's switch_on_constant), with the key
read from the body, since a clause head holds only variables. A clause
is keyed when the leftmost goal of its body's ; spine is == between a
parameter and an integer or an atom. Where the argument at the indexed
position walks to an Int or an Atom, a clause keyed on another constant
cannot match, and where it walks to a Compound no keyed clause can: its
attempt would make a fresh variable per parameter, bind them, fail in
unification with no error, and be undone. The call takes the clauses
that may match, in source order, and each run of others between them as
one skip record, (fresh, steps), which the search charges exactly: the
run's parameters to the fresh-variable count, so _G names do not shift,
and its attempts' steps, up to max_steps + 1 where they would pass
max_steps. It writes no trail entry, record, env or choice, and leaves
young as it is: undo removes bindings only, so each young variable is
still younger than every binding left, and the skipped bindings would
only have cleared the set. A call selects nothing when its argument
walks to an unbound variable, when a trace hook is set, or when a keyed
clause's condition would lie past max_depth, where its attempt must
reach its depth check. A search indexes its clause lists once, when it
builds its clause table.

What a search compiles, and its clause table, live in dicts that the
search makes and drops.
"""

from __future__ import annotations

import collections
import operator

from .syntax import Assign, BinOp, Compare, IntLit, Range, Seq, TermLit, VarRef
from .terms import INT64_MAX, INT64_MIN, Atom, Int, Var, apply, free_vars, walk

# times a search backtracks into the choice points of one bounded choose
# before it compiles the choose's settle function. Compiling one costs as much
# as 43-48 leaf runs, and the function repays that after 49-57 leaves
# (quartiles over the innermost chooses of the seed-3 choice pools; Python
# 3.11.7, a shared 2-core host). 64 is the lowest count at which a choose that
# stops right after compiling costs at most about 1.75 times what it would
# without the tier. Measured by tests/hot_reference.py; counts in ROADMAP.md.
_HOT_AFTER = 64
_RANGE_CAP = 4096  # the widest range whose elements a search keeps
COUNTING = object()  # a choice point whose search is still counting its choose's visits
_PER_ENTRY = object()  # what hot holds for a set that names a binder: it is made at each entry

# code for each operator, and for each comparison the test that it
# fails; the operator only selects it, so no program text reaches the
# generated source
_ARITH_CODE = {"+": "{0} + {1}", "-": "{0} - {1}", "*": "{0} * {1}", "/": "toward_zero({0}, {1})"}
_FAILS_CODE = {"==": "{} != {}", "!=": "{} == {}", "<": "{} >= {}", "<=": "{} > {}",
               ">": "{} <= {}", ">=": "{} < {}"}
_IN_RANGE = f"{INT64_MIN} <= {{}} <= {INT64_MAX}"
_INT64 = (INT64_MIN, INT64_MAX)
_CALLS = 16  # the most calls one prologue expression holds; the parser nests 200 deep


def _compile_settle(goal, kept):
    """(settle, deepest) for the leaves of the bounded choose goal, or
    (None, 0) when its leading run holds no condition; see _settle_source."""
    made = _settle_source(goal, kept)
    if made is None:
        return None, 0
    source, namespace, deepest = made
    exec(compile(source, "<choo settle function>", "exec"), namespace)
    # a function its own namespace held would be freed only by gc
    return namespace.pop("settle"), deepest


def _settle_source(goal, kept):
    """(source, namespace, deepest) of goal's settle function, or None when
    its leading run holds no condition. kept is the tuple of the set's
    elements that the search keeps, or None; it tells whether every
    element is an Int, and their least and greatest.

    The run is walked in execution order, from an explicit stack, through
    its last condition, each Seq node and goal counted as a step. It holds
    Compare and Assign goals over integer expressions of literals,
    variables and + - * /; == compiles like the order comparisons, since
    of two Ints unification is equality. deepest is the Seq nesting up to
    the last condition compiled. Each variable is read once, as eval_int
    reads it, and expressions are emitted from an explicit stack too.
    Names and literal values reach the code only through namespace.

    A v-free value is one prologue expression of _V_FREE calls, None where
    eval_int would give None or raise. The loop tests each condition once:
    the comparison fails, and each value the loop computed is in 64 bits
    unless the set's bounds show it. It hands back (break) a leaf that no
    test rejects, one that divides by 0 or uses a v-free None, and every
    leaf once the step budget no longer covers the last condition. A value
    assigned while any 64-bit test is pending is tested, with the pending
    ones, before a later expression computes with it, so none grows wider
    than one expression's arithmetic makes it: a value computed from an
    untested one may have bounds that look in 64 bits, as s * s + 0 does.
    """
    namespace = dict(_HELPERS)
    v = "value.value"  # the choose variable, where every element is an Int
    bounds = {}  # loop operands and literals -> their least and greatest values
    if type(goal.cset) is Range:
        bounds[v] = (goal.cset.lo, goal.cset.hi)
    elif kept is not None and all(type(e) is Int for e in kept):
        values = [e.value for e in kept] or [0]
        bounds[v] = (min(values), max(values))
    prologue, loop = [], []  # code run once per call, and once per leaf
    # each leaf read, (VarRef or TermLit, name), and each store name assigned -> its operand
    local_of = {}
    free = {}  # each v-free operand -> the v-free locals that are not None where it is not
    guards, checked = [], set()  # v-free values tested before the loop, and all known not None
    unchecked, carried = {}, set()  # loop values not yet tested -> their test; those assigned
    cut = None  # where the code ends, once the walk has met a condition

    def local(a):
        # a v-free value as a prologue local
        if a.isidentifier():
            return a
        x = f"p{len(prologue)}"
        prologue.append(f"{x} = {a}")
        free[x] = free[a] | {x}
        return x

    def use(a):
        # a as the loop or a condition reads it
        if a not in free:
            return a
        a = local(a)
        if free[a] and a not in checked:
            checked.update(free[a])
            if cut is None:  # nothing before the first condition can reject the leaf
                guards.append(a)
            else:
                loop.append(f"if {a} is None: break")
        return a

    def operate(op, a, b):
        if a in free and b in free:
            if a.count("(") + b.count("(") >= _CALLS:
                a, b = local(a), local(b)
            code = f"{_V_FREE[op][0]}({a}, {b})"
            free[code] = free[a] | free[b]
            return code
        a, b = use(a), use(b)
        if carried.intersection((a, b)):
            loop.append(f"if not ({' and '.join(unchecked.values())}): break")
            unchecked.clear()
            carried.clear()
        (alo, ahi), (blo, bhi) = bounds.get(a, _INT64), bounds.get(b, _INT64)
        if op == "/":
            loop.append(f"if not {b}: break")
            ends = (min(alo, -ahi), max(-alo, ahi))  # a quotient is no wider than its dividend
        else:
            ends = [_V_FREE[op][1](x, y) for x in (alo, ahi) for y in (blo, bhi)]
        r = f"r{len(loop)}"
        loop.append(f"{r} = {_ARITH_CODE[op].format(a, b)}")
        if min(ends) < INT64_MIN or max(ends) > INT64_MAX:
            unchecked[r] = _IN_RANGE.format(r)
        # a leaf is rejected only where r is in 64 bits; what is computed
        # from r before r is tested may not be
        bounds[r] = max(min(ends), INT64_MIN), min(max(ends), INT64_MAX)
        return r

    def emit(expr):
        # the operand that holds expr's value, or None when expr holds a
        # call or a term that is not a variable
        operands, stack = [], [expr]
        while stack:
            e = stack.pop()
            kind = type(e)
            if kind is BinOp:
                stack += (e.op, e.right, e.left)
            elif kind is str:  # an operation whose operands are done
                b = operands.pop()
                operands.append(operate(e, operands.pop(), b))
            elif kind is IntLit:
                operands.append(f"k{len(namespace)}")
                namespace[operands[-1]] = e.value
                free[operands[-1]], bounds[operands[-1]] = frozenset(), (e.value, e.value)
            elif kind is VarRef or (kind is TermLit and type(e.term) is Var):
                operands.append(read(kind, e.name if kind is VarRef else e.term.name))
            else:
                return None
        return operands[0]

    def read(kind, name):
        key = (kind, name)
        if key in local_of:
            return local_of[key]
        if kind is TermLit and name == goal.var:
            if v in bounds:
                local_of[key] = v
            else:
                local_of[key] = x = f"v{len(loop)}"
                loop.extend((f"{x} = number(value, subst)", f"if {x} is None: break"))
        else:
            local_of[key] = x = f"x{len(prologue)}"
            k = f"k{len(namespace)}"
            namespace[k] = name
            free[x] = {x}
            prologue.append(f"{x} = number({'store' if kind is VarRef else 'env'}.get({k}), subst)")
        return local_of[key]

    # the leading run's Seq nodes and goals, in execution order, through its last condition
    spine, stack = [], [(goal.body, 0)]
    while stack:
        node, nesting = stack.pop()
        if type(node) is Seq:
            stack += ((node.second, nesting + 1), (node.first, nesting + 1))
        elif type(node) not in (Compare, Assign):
            break
        spine.append((node, nesting))
    while spine and type(spine[-1][0]) is not Compare:
        spine.pop()
    reach = 0
    for steps, (node, nesting) in enumerate(spine, 1):
        reach = max(reach, nesting)
        kind = type(node)
        if kind is Seq:
            continue
        if kind is Compare:
            a = emit(node.lhs)
            b = None if a is None else emit(node.rhs)
            if b is None:
                break
            a, b = use(a), use(b)
            loop += [f"if {' and '.join((_FAILS_CODE[node.op].format(a, b), *unchecked.values()))}:",
                     f"    steps += {1 + steps}",
                     "    continue"]
            cut, deepest, cost = (len(prologue), len(loop)), reach, 1 + steps
        elif kind is Assign and (a := emit(node.expr)):
            a = local_of[(VarRef, node.target)] = use(a)
            if unchecked:
                carried.add(a)
        else:
            break
    if cut is None:
        return None
    del prologue[cut[0]:], loop[cut[1]:]  # past a condition whose side holds a call or a term
    budget = f"max_steps - {cost}"  # the last steps at which each leaf's run fits
    lines = ["def settle(store, subst, env, alternatives, steps, max_steps):", *prologue,
             f"m = -1 if {' or '.join(f'{g} is None' for g in guards)} else {budget}" if guards
             else f"m = {budget}",
             "for value in alternatives:", "    if steps > m: break", *("    " + line for line in loop),
             "    break", "else:", "    return None, steps", "return value, steps + 1"]
    return "\n    ".join(lines), namespace, deepest


def _number(term, subst):
    """The int that term, a binder's or a store name's value, stands for
    through at most one subst step, or None."""
    if type(term) is not Int:
        term = subst.get(term.name) if type(term) is Var else None
    return term.value if type(term) is Int else None


def _toward_zero(a, b):
    """a / b as choo divides: rounded toward zero."""
    return a // b if (a < 0) == (b < 0) else -(-a // b)


def _v_free(op):
    """op as the prologue computes a v-free value: None where an operand
    is None, the divisor is 0, or the result passes 64 bits."""
    def operate(a, b):
        if a is None or b is None or (not b and op is _toward_zero):
            return None
        n = op(a, b)
        return n if INT64_MIN <= n <= INT64_MAX else None
    return operate


# each operator's name in the prologue, and its function
_V_FREE = {"+": ("add", operator.add), "-": ("sub", operator.sub), "*": ("mul", operator.mul),
           "/": ("div", _toward_zero)}
# the functions the generated code calls, by name
_HELPERS = {"number": _number, "toward_zero": _toward_zero,
            **{name: _v_free(op) for name, op in _V_FREE.values()}}


def settle_function(hot, point, max_depth):
    """The settle function for point, a bounded choose's choice point, or
    None.

    hot maps id(goal) to the times this search has backtracked into
    goal's points, then to (settle, deepest) from _compile_settle. While
    the count is below _HOT_AFTER this counts the visit; once the function
    is compiled, point keeps it, or None when its leaves are too deep for
    it: one that passes max_depth must reach its depth check.
    """
    goal, depth = point[1], point[3]
    seen = hot.get(id(goal), 0)
    if type(seen) is int:
        if seen < _HOT_AFTER:
            hot[id(goal)] = seen + 1
            return None
        kept = hot.get(id(goal.cset))
        seen = hot[id(goal)] = _compile_settle(goal, kept if type(kept) is tuple else None)
    settle, deepest = seen
    point[7] = settle if depth + 1 + deepest <= max_depth else None
    return point[7]


def set_elements(cset, subst, env, hot):
    """The elements of a choice set in env, in the order they are tried.

    A set that names no binder is made once per search, and hot maps
    id(cset) to its elements; a range wider than _RANGE_CAP is made one
    at a time. A set that names a binder is made at each entry, and hot
    maps id(cset) to _PER_ENTRY once the first entry has found that.
    """
    elements = hot.get(id(cset))
    if type(elements) is tuple:
        return elements
    if type(cset) is Range:
        elements = map(Int, range(cset.lo, cset.hi + 1))
        if cset.hi - cset.lo >= _RANGE_CAP:
            return elements
    else:
        if elements is None and any(map(free_vars, cset.elements)):
            elements = hot[id(cset)] = _PER_ENTRY
        # written order, structural duplicates dropped after resolving: first appearance wins
        resolved = dict.fromkeys(apply(subst, apply(env, e)) for e in cset.elements)
        if elements is _PER_ENTRY:
            return resolved
        elements = resolved
    elements = hot[id(cset)] = tuple(elements)
    return elements


def _leading_key(clause):
    """(position, key, nesting) where the leftmost goal of clause's body
    is == between its parameter at position and an integer or an atom,
    key, nesting Seq nodes down; else None. key is the integer, or the
    atom's name."""
    goal, nesting = clause.body, 0
    while type(goal) is Seq:
        goal, nesting = goal.first, nesting + 1
    if type(goal) is not Compare or goal.op != "==":
        return None
    for side, other in ((goal.lhs, goal.rhs), (goal.rhs, goal.lhs)):
        if type(side) is TermLit and type(side.term) is Var and side.term.name in clause.params:
            if type(other) is IntLit:
                return clause.params.index(side.term.name), other.value, nesting
            if type(other) is TermLit and type(other.term) is Atom:
                return clause.params.index(side.term.name), other.term.name, nesting
    return None


class ClauseIndex:
    """What the calls to one clause list take, selected by the argument at
    position: lists maps each key to what a call whose argument is that
    constant takes, default is what one with any other constant or a
    compound takes, and unbound, the whole list, what one whose argument
    is unbound takes, or one whose keyed clauses' conditions, deepest Seq
    nodes down in their bodies, would lie past max_depth."""

    __slots__ = ("position", "lists", "default", "unbound", "deepest")

    def select(self, args, env, subst, depth, max_depth):
        """The clauses and skip records that a call with args in env, at
        depth, takes."""
        if depth + self.deepest > max_depth:
            return self.unbound
        arg = args[self.position]
        if type(arg) is Var:
            arg = walk(subst, env.get(arg.name, arg))
        kind = type(arg)
        if kind is Int:
            return self.lists.get(arg.value, self.default)
        if kind is Atom:
            return self.lists.get(arg.name, self.default)
        return self.unbound if kind is Var else self.default


def _index_clauses(clauses):
    """The ClauseIndex of a clause list, or None when no clause is keyed.
    It is indexed on the parameter position that most clauses are keyed
    on, the first such clause's among equals; a clause keyed elsewhere
    counts as unkeyed."""
    keys = [_leading_key(clause) for clause in clauses]
    positions = [key[0] for key in keys if key is not None]
    if not positions:
        return None
    index = ClauseIndex()
    index.position = position = collections.Counter(positions).most_common(1)[0][0]
    groups, unkeyed, index.deepest = {}, [], 0
    fresh, steps = [0], [0]  # the parameters and steps of the keyed clauses before each one
    for i, (clause, key) in enumerate(zip(clauses, keys)):
        keyed = key is not None and key[0] == position
        if keyed:
            groups.setdefault(key[1], []).append(i)
            index.deepest = max(index.deepest, 1 + key[2])
        else:
            unkeyed.append(i)
        # an attempt costs the backtrack step, a step per Seq and the condition
        fresh.append(fresh[-1] + len(clause.params) * keyed)
        steps.append(steps[-1] + (2 + key[2] if keyed else 0))

    def entries(kept):
        # the kept clauses in source order, each run of others between
        # them as one skip record: its parameters, and its attempts' steps
        # less the backtrack step that takes the record
        out, start = [], 0
        for i in (*sorted(kept), len(clauses)):
            if start < i:
                out.append((fresh[i] - fresh[start], steps[i] - steps[start] - 1))
            if i < len(clauses):
                out.append(clauses[i])
            start = i + 1
        return out
    index.lists = {key: entries(unkeyed + group) for key, group in groups.items()}
    index.default, index.unbound = entries(unkeyed), clauses
    return index


def clause_table(clauses, traced):
    """A search's clause table: (name, arity) -> the clauses a call tries,
    in source order; or, where two or more of them have a ClauseIndex and
    no trace hook is set, the index."""
    table = {}
    for clause in clauses:
        table.setdefault((clause.name, len(clause.params)), []).append(clause)
    if not traced:
        for key, listed in table.items():
            if len(listed) > 1:
                table[key] = _index_clauses(listed) or listed
    return table
