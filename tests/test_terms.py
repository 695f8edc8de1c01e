"""Unification, substitution application, and their algebraic properties."""

import random

import pytest

from choo import (
    Atom,
    Compound,
    EMPTY_SUBST,
    Int,
    Subst,
    Var,
    apply,
    free_vars,
    occurs,
    unify,
)
from choo.terms import unify_in_place
from termgen import cyclic_pair, ground_term, random_term, unifiable_pair

X, Y, Z = Var("X"), Var("Y"), Var("Z")


def f(*args):
    return Compound("f", args)


def g(*args):
    return Compound("g", args)


# --- fixed unification cases -------------------------------------------------

def test_unify_binds_each_record_field():
    pattern = Compound("tuple", (Var("N"), Var("A"), Var("S")))
    record = Compound("tuple", (Atom("tom"), Int(31), Atom("male")))
    s = unify(pattern, record)
    assert s is not None
    assert apply(s, Var("N")) == Atom("tom")
    assert apply(s, Var("A")) == Int(31)
    assert apply(s, Var("S")) == Atom("male")
    assert apply(s, pattern) == record


def test_unify_variable_with_itself_binds_nothing():
    s = unify(X, X)
    assert s is not None
    assert s.mapping() == {}


def test_unify_occurs_check_rejects_self_reference():
    assert unify(X, f(X)) is None


def test_unify_atoms_and_ints():
    assert unify(Atom("tom"), Atom("tom")) is not None
    assert unify(Atom("tom"), Atom("bob")) is None
    assert unify(Int(3), Int(3)) is not None
    assert unify(Int(3), Int(4)) is None
    assert unify(Atom("tom"), Int(3)) is None


def test_unify_functor_and_arity_must_agree():
    assert unify(f(Int(1)), g(Int(1))) is None
    assert unify(f(Int(1)), f(Int(1), Int(2))) is None


def test_unify_is_symmetric_in_binding_direction():
    s = unify(Int(3), X)
    assert s is not None
    assert apply(s, X) == Int(3)


def test_unify_extends_an_existing_substitution():
    s1 = unify(X, Int(4))
    assert unify(X, Int(5), s1) is None
    s2 = unify(Y, Int(4), s1)
    assert s2 is not None
    assert apply(s2, f(X, Y)) == f(Int(4), Int(4))


def test_unify_variable_aliasing_resolves_through_chains():
    s = unify(X, Y)
    s = unify(Y, g(Int(2)), s)
    assert s is not None
    assert apply(s, X) == g(Int(2))


def test_unify_occurs_check_sees_through_bindings():
    s = unify(X, Y)
    assert s is not None
    assert unify(Y, f(X), s) is None


# --- substitution application --------------------------------------------------

def test_apply_replaces_bound_variables_only():
    s = EMPTY_SUBST.bind("X", Int(3))
    assert apply(s, f(X, Y)) == f(Int(3), Y)


def test_apply_empty_substitution_is_identity():
    t = f(X, g(Atom("a"), Int(7)))
    assert apply(EMPTY_SUBST, t) == t


def test_apply_resolves_chained_bindings():
    s = EMPTY_SUBST.bind("X", g(Y)).bind("Y", Int(2))
    assert apply(s, X) == g(Int(2))


def test_substitutions_are_immutable():
    s1 = EMPTY_SUBST.bind("X", Int(1))
    s2 = s1.bind("Y", Int(2))
    assert s1.mapping() == {"X": Int(1)}
    assert s2.mapping() == {"X": Int(1), "Y": Int(2)}
    assert EMPTY_SUBST.mapping() == {}


def test_substitution_equality_is_by_content():
    assert Subst({"X": Int(1)}) == EMPTY_SUBST.bind("X", Int(1))
    assert Subst() == EMPTY_SUBST


# --- occurs and free variables ---------------------------------------------------

def test_occurs_finds_nested_variable():
    assert occurs(X, f(g(X)))


def test_occurs_respects_identity():
    assert not occurs(X, f(Y))
    assert occurs(X, X)


def test_occurs_resolves_through_the_substitution():
    s = EMPTY_SUBST.bind("Y", f(X))
    assert occurs(X, Y, s)


def test_free_vars_of_partially_ground_record():
    t = Compound("tuple", (Var("N"), Int(31), Var("S")))
    assert free_vars(t) == {Var("N"), Var("S")}


def test_free_vars_of_ground_terms_is_empty():
    assert free_vars(Atom("tom")) == set()
    assert free_vars(Int(5)) == set()


def test_free_vars_reports_each_variable_once():
    assert free_vars(f(X, g(X))) == {X}


# --- properties over random terms ---------------------------------------------------

def test_unifier_soundness_on_random_pairs():
    rng = random.Random(1001)
    succeeded = 0
    for _ in range(1000):
        if rng.random() < 0.5:
            t1, t2, _ = unifiable_pair(rng)
        else:
            t1, t2 = random_term(rng), random_term(rng)
        s = unify(t1, t2)
        if s is None:
            continue
        succeeded += 1
        assert apply(s, t1) == apply(s, t2)
    assert succeeded >= 400  # the mix guarantees plenty of positive cases


def test_most_general_unifier_factors_other_unifiers():
    # for any other unifier tau of the pair, tau after the mgu sigma
    # acts like tau alone: apply(tau, apply(sigma, t)) == apply(tau, t)
    rng = random.Random(1002)
    checked = 0
    for _ in range(500):
        pattern, instance, grounding = unifiable_pair(rng)
        sigma = unify(pattern, instance)
        assert sigma is not None, "instance is the pattern under a grounding"
        tau = Subst(grounding)
        assert apply(tau, pattern) == apply(tau, instance)
        for t in (pattern, instance, random_term(rng)):
            assert apply(tau, apply(sigma, t)) == apply(tau, t)
        checked += 1
    assert checked == 500


def test_most_generality_with_variable_variable_bindings():
    # pairs over disjoint variable pools make sigma bind var to var;
    # tau grounds whatever sigma left open and must still factor
    rng = random.Random(1003)
    left_pool = ("X", "Y", "Z")
    right_pool = ("U", "V", "W")
    checked = 0
    for _ in range(800):
        t1 = random_term(rng, left_pool)
        t2 = random_term(rng, right_pool)
        sigma = unify(t1, t2)
        if sigma is None:
            continue
        tau = sigma
        open_vars = free_vars(apply(sigma, t1)) | free_vars(apply(sigma, t2))
        for v in sorted(open_vars, key=lambda v: v.name):
            tau = tau.bind(v.name, ground_term(rng))
        assert apply(tau, t1) == apply(tau, t2)
        for t in (t1, t2):
            assert apply(tau, apply(sigma, t)) == apply(tau, t)
        checked += 1
    assert checked >= 100


def test_occurs_check_rejects_constructed_cycles():
    rng = random.Random(1004)
    for _ in range(200):
        v, context = cyclic_pair(rng)
        assert unify(v, context) is None
        # the same cycle reached through an alias must also fail
        alias = Var("Fresh")
        s = unify(alias, v)
        assert unify(alias, context, s) is None


def test_apply_is_idempotent_after_unify():
    rng = random.Random(1005)
    for _ in range(500):
        t1, t2 = random_term(rng), random_term(rng)
        s = unify(t1, t2)
        if s is None:
            continue
        for t in (t1, t2, random_term(rng)):
            once = apply(s, t)
            assert apply(s, once) == once


def test_unify_result_never_mentions_failure_partially():
    # when unification fails the input substitution is still usable
    s = unify(X, Int(1))
    assert unify(f(X, Y), f(Int(2), Int(3)), s) is None
    assert apply(s, X) == Int(1)
    assert apply(s, Y) == Y


def test_unify_never_changes_the_substitution_it_is_given():
    # the engine unifies in place; the functional form works on a copy
    given = EMPTY_SUBST.bind("X", f(Y))
    pairs = [
        (Z, Int(1)),  # success
        (X, f(Int(2))),  # success through a binding
        (f(X, Z), f(Int(3), Int(4))),  # binds Z, then fails
        (f(Y, Z), f(g(X), Int(3))),  # binds Z, then fails the occurs check
    ]
    for t1, t2 in pairs:
        for subst in (EMPTY_SUBST, given):
            before = subst.mapping()
            unify(t1, t2, subst)
            assert subst.mapping() == before
    rng = random.Random(1006)
    for _ in range(300):
        unify(random_term(rng), random_term(rng))
    assert EMPTY_SUBST.mapping() == {}


def test_unify_in_place_reports_its_bindings_or_binds_nothing():
    s = Subst({"X": f(Y)})
    assert unify_in_place(f(X, Z), f(Int(3), Int(4)), s) is None  # after binding Z
    assert s == {"X": f(Y)}
    assert sorted(unify_in_place(f(X, Z), f(f(Int(4)), Int(3)), s)) == ["Y", "Z"]
    assert s == {"X": f(Y), "Y": Int(4), "Z": Int(3)}


def test_compound_requires_arguments():
    with pytest.raises(ValueError):
        Compound("f", ())
