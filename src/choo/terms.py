"""First-order terms, substitutions, and unification.

Terms are the data values of the language: logic variables, atoms,
integers, and compound terms. A substitution is a dict from variable
names to terms, kept triangular (a binding may mention other bound
variables); ``apply`` resolves chains to a fixpoint, which the occurs
check keeps finite. The search engine extends one substitution in place
and undoes its bindings from a trail; ``unify`` extends a copy.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate
from types import MappingProxyType

# all integer values in the language are signed 64-bit
INT64_MAX = (1 << 63) - 1
INT64_MIN = -(1 << 63)


@dataclass(frozen=True)
class Var:
    """A logic variable, identified by name.

    Machine-generated variables are named _G1, _G2, ... The surface
    syntax only admits lowercase-initial identifiers, so generated names
    can never collide with source names.
    """

    name: str


@dataclass(frozen=True)
class Atom:
    name: str


@dataclass(frozen=True)
class Int:
    value: int


@dataclass(frozen=True, eq=False)
class Compound:
    functor: str
    args: tuple

    def __post_init__(self):
        if not self.args:
            raise ValueError("compound term needs at least one argument")

    # equality, hashing and repr by loops: terms nest as deep as a recursion
    # builds them, past the interpreter's recursion limit

    def __eq__(self, other):
        pairs = [(self, other)]
        while pairs:
            a, b = pairs.pop()
            if type(a) is not type(b):
                return False
            if type(a) is Compound:
                if a.functor != b.functor or len(a.args) != len(b.args):
                    return False
                pairs.extend(zip(a.args, b.args))
            elif a != b:
                return False
        return True

    def __hash__(self):
        return hash(format_term(self))

    def __repr__(self):  # the dataclass format
        return _render(self, repr, "Compound(functor={!r}, args=(", ", ", (",))", "))"))


Term = Var | Atom | Int | Compound


_EMPTY = MappingProxyType({})  # the default substitution, read-only


def walk(subst, term: Term) -> Term:
    """Follow variable bindings until an unbound variable or non-variable."""
    while isinstance(term, Var):
        bound = subst.get(term.name)
        if bound is None:
            return term
        term = bound
    return term


def occurs(var: Var, term: Term, subst=_EMPTY) -> bool:
    """True if var appears in term once bindings in subst are resolved."""
    stack = [term]
    while stack:
        t = walk(subst, stack.pop())
        if isinstance(t, Var):
            if t.name == var.name:
                return True
        elif isinstance(t, Compound):
            stack.extend(t.args)
    return False


def unify(t1: Term, t2: Term, subst=_EMPTY) -> dict | None:
    """Most general unifier of t1 and t2 under subst, or None.

    Failure is an ordinary outcome, not an error. subst itself is left
    as it was.
    """
    s = dict(subst)
    return None if unify_in_place(t1, t2, s) is None else s


def unify_in_place(t1: Term, t2: Term, subst: dict) -> list | None:
    """Extend subst with the most general unifier of t1 and t2.

    Returns the names bound, or None with nothing bound. The occurs
    check runs against resolved terms, so subst stays acyclic and
    ``apply`` on it terminates.
    """
    bound, stack = [], [(t1, t2)]
    while stack:
        a, b = stack.pop()
        a = walk(subst, a)
        b = walk(subst, b)
        if a is b or (not isinstance(a, Compound) and a == b):
            continue  # compounds descend: comparing them whole at every level is quadratic
        if isinstance(b, Var) and not isinstance(a, Var):
            a, b = b, a
        if isinstance(a, Var):
            if occurs(a, b, subst):
                break
            subst[a.name] = b
            bound.append(a.name)
        elif (isinstance(a, Compound) and isinstance(b, Compound)
              and a.functor == b.functor and len(a.args) == len(b.args)):
            stack.extend(zip(a.args, b.args))
        else:
            break
    else:
        return bound
    for name in bound:
        del subst[name]
    return None


def apply(subst, term: Term, memo: dict | None = None) -> Term:
    """Resolve term under subst all the way down.

    A subterm that resolves to itself is shared, not copied. memo maps
    variable names to their resolved terms; one dict passed to several
    calls resolves each variable once across them, for as long as subst
    does not change.
    """
    resolved = walk(subst, term)
    if type(resolved) is not Compound:
        return resolved
    if memo is None:
        memo = {}
    done, stack = [], [term]
    while stack:
        t = stack.pop()
        if type(t) is Var:
            if t.name in memo:
                done.append(memo[t.name])
                continue
            stack.append(t.name)  # memoised once its value is resolved
            t = walk(subst, t)
        if type(t) is Compound:
            stack.append((t,))  # built once its arguments are resolved
            stack.extend(reversed(t.args))
        elif type(t) is tuple:
            c, n = t[0], len(t[0].args)
            args = tuple(done[-n:])
            if any(a is not b for a, b in zip(args, c.args)):
                c = Compound(c.functor, args)
            done[-n:] = [c]
        elif type(t) is str:
            memo[t] = done[-1]
        else:
            done.append(t)
    return done[0]


def free_vars(term: Term, subst=_EMPTY) -> set:
    """Variables still unbound in term after resolving through subst."""
    out, stack = set(), [term]
    while stack:
        t = walk(subst, stack.pop())
        if isinstance(t, Var):
            out.add(t)
        elif isinstance(t, Compound):
            stack.extend(t.args)
    return out



def format_term(term: Term, env: dict | None = None, memo: dict | None = None) -> str:
    """Render a term the way the parser reads it back.

    Atoms print bare, integers in decimal, compounds as f(a,b) with no
    spaces. Variables print as their name, or as their value when env
    names them; the caller decides how to show unbound results. memo
    maps id(compound) to (compound, text, start, end), where
    text[start:end] is that compound's rendering; one dict passed to
    several calls with the same env renders each compound once across them.
    """
    if env and isinstance(term, Var) and term.name in env:
        term, env = env[term.name], None  # the value is printed as it is
    if not isinstance(term, Compound):
        return _leaf_text(term)
    leaf = _leaf_text
    if env:
        def leaf(t):
            return format_term(env[t.name]) if isinstance(t, Var) and t.name in env else _leaf_text(t)
    return _render(term, leaf, "{}(", ",", (")", ")"), memo)


def _leaf_text(t) -> str:
    if isinstance(t, (Var, Atom)):
        return t.name
    if isinstance(t, Int):
        return str(t.value)
    raise TypeError(f"not a term: {t!r}")


def _render(term, leaf, head, sep, tails, memo=None) -> str:
    """Join the text of term in one pass over an explicit stack.

    head is a format string for a compound's functor; tails closes a
    compound of one argument and of more. A compound that memo holds is
    copied out of the text it was first rendered in, and one rendered
    here is recorded in memo once the text is joined.
    """
    parts, stack, spans, heads = [], [term], [], {}
    while stack:
        t = stack.pop()
        if type(t) is str:  # punctuation queued between arguments
            parts.append(t)
        elif type(t) is Compound:
            if memo is not None and (hit := memo.get(id(t))) is not None:
                parts.append(hit[1][hit[2]:hit[3]])
                continue
            tail = tails[len(t.args) > 1]
            stack.append(tail if memo is None else (t, len(parts), tail))
            for a in reversed(t.args):
                stack += (a, sep)
            if (text := heads.get(t.functor)) is None:
                text = heads[t.functor] = head.format(t.functor)
            stack[-1] = text  # in place of a separator before the first
        elif type(t) is tuple:  # closes a compound memo will hold
            parts.append(t[2])
            spans.append((t[0], t[1], len(parts)))
        else:
            parts.append(leaf(t))
    text = "".join(parts)
    if spans:
        offsets = [0, *accumulate(map(len, parts))]
        for c, first, end in spans:
            memo[id(c)] = (c, text, offsets[first], offsets[end])
    return text
