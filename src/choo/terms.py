"""First-order terms, substitutions, and unification.

Terms are the data values of the language: logic variables, atoms,
integers, and compound terms. Substitutions map variable names to terms
and are kept triangular (a binding may mention other bound variables);
``apply`` resolves chains to a fixpoint, which the occurs check keeps
finite.
"""

from __future__ import annotations

from dataclasses import dataclass

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


class Subst(dict):
    """A map from variable names to terms.

    The search engine extends one substitution in place and undoes its
    bindings from a trail. ``bind`` and ``unify`` leave the substitution
    they are given unchanged and return an extended copy.
    """

    __slots__ = ()

    def bind(self, name: str, term: Term) -> "Subst":
        return Subst({**self, name: term})

    def walk(self, term: Term) -> Term:
        """Follow variable bindings until an unbound variable or non-variable."""
        while isinstance(term, Var):
            bound = self.get(term.name)
            if bound is None:
                return term
            term = bound
        return term

    def mapping(self) -> dict:
        return dict(self)

    def __repr__(self):
        inner = ", ".join(f"{k} -> {format_term(v)}" for k, v in sorted(self.items()))
        return f"Subst({{{inner}}})"


EMPTY_SUBST = Subst()


def occurs(var: Var, term: Term, subst: Subst = EMPTY_SUBST) -> bool:
    """True if var appears in term once bindings in subst are resolved."""
    stack = [term]
    while stack:
        t = subst.walk(stack.pop())
        if isinstance(t, Var):
            if t.name == var.name:
                return True
        elif isinstance(t, Compound):
            stack.extend(t.args)
    return False


def unify(t1: Term, t2: Term, subst: Subst = EMPTY_SUBST) -> Subst | None:
    """Most general unifier of t1 and t2 under subst, or None.

    Failure is an ordinary outcome, not an error. subst itself is left
    as it was.
    """
    s = Subst(subst)
    return None if unify_in_place(t1, t2, s) is None else s


def unify_in_place(t1: Term, t2: Term, subst: Subst) -> list | None:
    """Extend subst with the most general unifier of t1 and t2.

    Returns the names bound, or None with nothing bound. The occurs
    check runs against resolved terms, so subst stays acyclic and
    ``apply`` on it terminates.
    """
    bound, stack = [], [(t1, t2)]
    while stack:
        a, b = stack.pop()
        a = subst.walk(a)
        b = subst.walk(b)
        if a == b:
            continue
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


def apply(subst: Subst, term: Term) -> Term:
    """Resolve term under subst all the way down."""
    term = subst.walk(term)
    if not isinstance(term, Compound):
        return term
    done, stack = [], [term]
    while stack:
        t = stack.pop()
        if isinstance(t, Compound):
            stack.append((t,))  # rebuilt once its arguments are resolved
            stack.extend(subst.walk(a) for a in reversed(t.args))
        elif isinstance(t, tuple):
            n = len(t[0].args)
            done[-n:] = [Compound(t[0].functor, tuple(done[-n:]))]
        else:
            done.append(t)
    return done[0]


def free_vars(term: Term, subst: Subst = EMPTY_SUBST) -> set:
    """Variables still unbound in term after resolving through subst."""
    out, stack = set(), [term]
    while stack:
        t = subst.walk(stack.pop())
        if isinstance(t, Var):
            out.add(t)
        elif isinstance(t, Compound):
            stack.extend(t.args)
    return out


def is_ground(term: Term, subst: Subst = EMPTY_SUBST) -> bool:
    stack = [term]
    while stack:
        t = subst.walk(stack.pop())
        if isinstance(t, Var):
            return False
        if isinstance(t, Compound):
            stack.extend(t.args)
    return True


def format_term(term: Term) -> str:
    """Render a term the way the parser reads it back.

    Atoms print bare, integers in decimal, compounds as f(a,b) with no
    spaces. Variables print as their name; the caller decides how to
    show unbound results.
    """
    if not isinstance(term, Compound):
        return _leaf_text(term)
    return _render(term, _leaf_text, "{}(", ",", (")", ")"))


def _leaf_text(t) -> str:
    if isinstance(t, (Var, Atom)):
        return t.name
    if isinstance(t, Int):
        return str(t.value)
    raise TypeError(f"not a term: {t!r}")


def _render(term, leaf, head, sep, tails) -> str:
    """Join the text of term in one pass over an explicit stack.

    head is a format string for a compound's functor; tails closes a
    compound of one argument and of more.
    """
    parts, stack = [], [term]
    while stack:
        t = stack.pop()
        if isinstance(t, str):  # punctuation queued between arguments
            parts.append(t)
        elif isinstance(t, Compound):
            stack.append(tails[len(t.args) > 1])
            for a in reversed(t.args):
                stack += (a, sep)
            stack[-1] = head.format(t.functor)  # in place of a separator before the first
        else:
            parts.append(leaf(t))
    return "".join(parts)
