"""Unification, substitution application, and their algebraic properties."""

import random

import pytest

from choo import (
    Atom,
    Compound,
    Int,
    Var,
    apply,
    format_term,
    free_vars,
    occurs,
    unify,
)
from choo import terms
from choo.terms import unify_in_place
from termgen import FUNCTORS, cyclic_pair, ground_term, random_term, unifiable_pair

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
    assert dict(s) == {}


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
    s = {"X": Int(3)}
    assert apply(s, f(X, Y)) == f(Int(3), Y)


def test_apply_empty_substitution_is_identity():
    t = f(X, g(Atom("a"), Int(7)))
    assert apply({}, t) is t  # nothing changed, so nothing is copied


def test_apply_shares_subterms_that_resolve_to_themselves():
    ground = g(Atom("a"), Int(7))
    s = {"X": Int(3)}
    resolved = apply(s, f(X, ground))
    assert resolved == f(Int(3), ground)
    assert resolved.args[1] is ground


def test_apply_memo_resolves_each_variable_once_across_calls():
    s = {"X": g(Y), "Y": f(Int(2))}
    memo = {}
    x = apply(s, X, memo)
    assert x == g(f(Int(2)))
    assert memo == {"X": x, "Y": x.args[0]}
    both = apply(s, f(Y, X, Z), memo)
    assert both == f(f(Int(2)), x, Z)
    assert both.args[0] is x.args[0] and both.args[1] is x


def test_apply_resolves_chained_bindings():
    s = {"X": g(Y), "Y": Int(2)}
    assert apply(s, X) == g(Int(2))


# --- occurs and free variables ---------------------------------------------------

def test_occurs_finds_nested_variable():
    assert occurs(X, f(g(X)))


def test_occurs_respects_identity():
    assert not occurs(X, f(Y))
    assert occurs(X, X)


def test_occurs_resolves_through_the_substitution():
    s = {"Y": f(X)}
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
        tau = dict(grounding)
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
            tau = {**tau, v.name: ground_term(rng)}
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
    given = {"X": f(Y)}
    pairs = [
        (Z, Int(1)),  # success
        (X, f(Int(2))),  # success through a binding
        (f(X, Z), f(Int(3), Int(4))),  # binds Z, then fails
        (f(Y, Z), f(g(X), Int(3))),  # binds Z, then fails the occurs check
    ]
    for t1, t2 in pairs:
        for subst in ({}, given):
            before = dict(subst)
            unify(t1, t2, subst)
            assert dict(subst) == before
    rng = random.Random(1006)
    for _ in range(300):
        unify(random_term(rng), random_term(rng))
    assert dict(terms._EMPTY) == {}


def test_unify_in_place_reports_its_bindings_or_binds_nothing():
    s = {"X": f(Y)}
    assert unify_in_place(f(X, Z), f(Int(3), Int(4)), s) is None  # after binding Z
    assert s == {"X": f(Y)}
    assert sorted(unify_in_place(f(X, Z), f(f(Int(4)), Int(3)), s)) == ["Y", "Z"]
    assert s == {"X": f(Y), "Y": Int(4), "Z": Int(3)}


def test_unify_in_place_compares_nested_terms_in_linear_time(monkeypatch):
    # comparing the two sides whole before descending, at every level,
    # made unifying s^n(X) with s^n(1) quadratic in n
    n = 2000
    compared = 0
    equal = Compound.__eq__

    def counting_eq(self, other):
        nonlocal compared
        stack = [self]
        while stack:  # each node a whole comparison may visit
            t = stack.pop()
            compared += 1
            if isinstance(t, Compound):
                stack.extend(t.args)
        return equal(self, other)

    left, right = X, Int(1)
    for _ in range(n):
        left, right = Compound("s", (left,)), Compound("s", (right,))
    monkeypatch.setattr(Compound, "__eq__", counting_eq)
    s = {}
    assert unify_in_place(left, right, s) == ["X"]
    assert s == {"X": Int(1)}
    assert compared <= 4 * n


# --- formatting with a shared memo --------------------------------------------------

def test_a_shared_memo_renders_each_compound_once(monkeypatch):
    # witness k is f(a, witness k-1), as the witnesses of a recursion nest;
    # formatting each alone renders n(n+3)/2 leaves, 45,450 for n = 300
    witnesses, t = [], Atom("b")
    for _ in range(300):
        t = f(Atom("a"), t)
        witnesses.append(t)
    calls = []
    leaf = terms._leaf_text
    monkeypatch.setattr(terms, "_leaf_text", lambda t: calls.append(t) or leaf(t))
    memo = {}
    texts = [format_term(w, memo=memo) for w in witnesses]
    assert len(calls) <= 2 * len(witnesses)
    monkeypatch.undo()
    assert texts == [format_term(w) for w in witnesses]


def test_shared_formatting_matches_formatting_each_term_alone():
    rng = random.Random(4012)
    for _ in range(2000):
        pool = [random_term(rng) for _ in range(rng.randint(1, 4))]
        for _ in range(rng.randint(0, 4)):  # repeats across terms and inside one
            args = tuple(rng.choice(pool) for _ in range(rng.randint(1, 3)))
            pool.append(Compound(rng.choice(FUNCTORS), args))
        chosen = [rng.choice(pool) for _ in range(rng.randint(1, 8))]
        memo = {}
        assert [format_term(t, memo=memo) for t in chosen] == [format_term(t) for t in chosen]


def test_a_memo_grows_linearly_with_the_text():
    # one entry per compound, about 200 bytes against the 6 characters of a
    # succ( ) level; keeping each compound's own text would hold n^2/2
    # characters, 10,000 times the text at this depth
    import tracemalloc

    t = Atom("zero")
    for _ in range(20_000):
        t = Compound("succ", (t,))
    memo = {}
    tracemalloc.start()
    try:
        text = format_term(t, memo=memo)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(memo) == 20_000
    assert peak < 100 * len(text)


def test_compound_requires_arguments():
    with pytest.raises(ValueError):
        Compound("f", ())
