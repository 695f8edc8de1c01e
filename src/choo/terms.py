"""First-order terms, substitutions, and unification.

Terms are the data values of the language: logic variables, atoms,
integers, and compound terms. A substitution is a dict from variable
names to terms, kept triangular (a binding may mention other bound
variables); ``apply`` resolves chains to a fixpoint, which the occurs
check keeps finite. The check is kept, and skipped only where it cannot
fire: see ``unify_in_place``. The search engine extends one substitution
in place and undoes its bindings from a trail.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate
from operator import is_not
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
    while type(term) is Var:
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


def unify_in_place(t1: Term, t2: Term, subst: dict, young=frozenset()) -> list | None:
    """Extend subst with the most general unifier of t1 and t2.

    Returns the names bound, or None with nothing bound. The occurs
    check runs against resolved terms, so subst stays acyclic and
    ``apply`` on it terminates.

    The check is skipped only where it cannot fire. Binding a variable
    to an Int, an Atom or another unbound variable needs none. young
    names variables made after every binding now in subst: such a
    variable cannot occur in a term reached through a binding, since
    every binding, and every term it reaches, was built before the
    variable existed. So binding a young variable to such a term, or to
    a subterm of one, needs no walk, as long as this call has bound
    nothing yet; a binding made here could hold the young variable.
    """
    bound, stack = [], [(t1, t2, False, False)]
    while stack:
        a, b, a_bound, b_bound = stack.pop()  # flags: reached through a binding
        t = walk(subst, a)
        a, a_bound = t, a_bound or t is not a
        t = walk(subst, b)
        b, b_bound = t, b_bound or t is not b
        if a is b or (not isinstance(a, Compound) and a == b):
            continue  # compounds descend: comparing them whole at every level is quadratic
        if isinstance(b, Var) and not isinstance(a, Var):
            a, b, b_bound = b, a, a_bound
        if isinstance(a, Var):
            if (type(b) is Compound and not (b_bound and not bound and a.name in young)
                    and occurs(a, b, subst)):
                break
            subst[a.name] = b
            bound.append(a.name)
        elif (isinstance(a, Compound) and isinstance(b, Compound)
              and a.functor == b.functor and len(a.args) == len(b.args)):
            stack.extend((x, y, a_bound, b_bound) for x, y in zip(a.args, b.args))
        else:
            break
    else:
        return bound
    for name in bound:
        del subst[name]
    return None


def apply(subst, term: Term, memo: dict | None = None) -> Term:
    """Resolve term fully under subst, a substitution or a binder environment.

    A subterm that resolves to itself is shared, not copied. memo maps
    variable names to their resolved terms; one dict passed to several
    calls resolves each variable once across them, for as long as subst
    does not change. subst must be acyclic: the occurs check keeps a
    substitution so, and the generated names an environment. A compound
    whose arguments resolve to leaves is built in one pass, with no memo.
    """
    resolved = walk(subst, term)
    if type(resolved) is not Compound:
        return resolved
    args = []
    for a in resolved.args:  # a compound of leaves resolves in one pass
        while type(a) is Var and (b := subst.get(a.name)) is not None:
            a = b
        if type(a) is Compound:
            break
        args.append(a)
    else:
        if any(map(is_not, args, resolved.args)):
            return Compound(resolved.functor, tuple(args))
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
            if any(map(is_not, args, c.args)):
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



def format_term(term: Term, memo: dict | None = None) -> str:
    """Render a term the way the parser reads it back.

    Atoms print bare, integers in decimal, compounds as f(a,b) with no
    spaces, and variables as their name; the caller decides how to show
    unbound results, and shows a binder's value by formatting
    apply(env, term). memo maps id(compound) to (compound, text, start,
    end), where text[start:end] is that compound's rendering; one dict
    passed to several calls renders each compound once across them.
    """
    if not isinstance(term, Compound):
        return _leaf_text(term)
    return _render(term, _leaf_text, "{}(", ",", (")", ")"), memo)


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
