"""Random terms and term pairs shared by the test modules, and a copying unify.

Every generator takes an explicit random.Random so a fixed seed pins the
whole corpus; no module-level state.
"""

from __future__ import annotations

import random

from choo.terms import _EMPTY, Atom, Compound, Int, Var, unify_in_place

ATOM_NAMES = ("a", "b", "c", "tom", "bob", "nil")
VAR_NAMES = ("X", "Y", "Z", "W", "V")
FUNCTORS = ("f", "g", "h", "pair", "tuple")


def ground_term(rng: random.Random, depth: int = 0):
    r = rng.random()
    if r < 0.4:
        return Int(rng.randint(-50, 50))
    if r < 0.75 or depth >= 3:
        return Atom(rng.choice(ATOM_NAMES))
    n = rng.randint(1, 3)
    return Compound(
        rng.choice(FUNCTORS),
        tuple(ground_term(rng, depth + 1) for _ in range(n)),
    )


def random_term(rng: random.Random, names=VAR_NAMES, depth: int = 0):
    """Term that may contain variables drawn from names."""
    r = rng.random()
    if r < 0.25:
        return Var(rng.choice(names))
    if r < 0.45:
        return Int(rng.randint(-50, 50))
    if r < 0.6 or depth >= 3:
        return Atom(rng.choice(ATOM_NAMES))
    n = rng.randint(1, 3)
    return Compound(
        rng.choice(FUNCTORS),
        tuple(random_term(rng, names, depth + 1) for _ in range(n)),
    )


def subst_names(term, mapping):
    """Plain name-to-term replacement, independent of terms.apply."""
    if isinstance(term, Var):
        return mapping.get(term.name, term)
    if isinstance(term, Compound):
        return Compound(term.functor, tuple(subst_names(a, mapping) for a in term.args))
    return term


def unifiable_pair(rng: random.Random):
    """(pattern, instance, grounding) with instance = pattern under grounding.

    The grounding maps every variable name to a ground term, so the two
    terms are unifiable by construction and the grounding itself is a
    unifier of the pair.
    """
    pattern = random_term(rng)
    grounding = {name: ground_term(rng) for name in VAR_NAMES}
    return pattern, subst_names(pattern, grounding), grounding


def cyclic_pair(rng: random.Random):
    """(v, context) where the context contains v strictly below its root."""
    v = Var(rng.choice(VAR_NAMES))
    hole = v
    for _ in range(rng.randint(1, 4)):
        args = [ground_term(rng) for _ in range(rng.randint(0, 2))]
        args.insert(rng.randint(0, len(args)), hole)
        hole = Compound(rng.choice(FUNCTORS), tuple(args))
    return v, hole


def unify(t1, t2, subst=_EMPTY):
    """Most general unifier of t1 and t2 under subst, or None; subst is left as it was."""
    s = dict(subst)
    return None if unify_in_place(t1, t2, s) is None else s
