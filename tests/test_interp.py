"""Execution semantics: the eight statement forms, search order, budgets."""

import gc
import math
import random
import sys

import pytest

from choo import interp, terms
from choo.derivation import RULE_CHILDREN, DerivationNode, format_tree, tree_of
from choo.interp import (
    UNCONSTRAINED,
    BudgetExhausted,
    EvalError,
    Outcome,
    ProgramState,
    SearchBudget,
    Solver,
    eval_int,
    eval_operand,
    execute,
)
from choo.parser import parse_goal, parse_program
from choo.syntax import SourceProgram, VarRef
from choo.terms import INT64_MAX, INT64_MIN, Atom, Compound, Int, Var, free_vars, unify_in_place
from proggen import gen_program
from termgen import VAR_NAMES, random_term

# the first two values of the builtin sequence are 0 and 1; everything
# here is computed from that recurrence, never taken from the engine
FIBS = [0, 1]
while len(FIBS) < 94:
    FIBS.append(FIBS[-1] + FIBS[-2])


def builtin_fib(n):
    return FIBS[n - 1]


def outcomes(source, budget=None):
    return list(execute(parse_program(source), budget=budget))


def goal_outcomes(source, scope=(), budget=None):
    return list(execute(SourceProgram((), parse_goal(source, frozenset(scope))), budget=budget))


def expr_of(source):
    """The expression of `s = <source>`, for evaluator unit tests."""
    return parse_goal(f"s = {source}").expr


def snapshot(state):
    """Observable state, for checking that failed searches change nothing."""
    return (dict(state.store), dict(state.subst), len(state.trail), list(state.choices))


# --- the reference programs ----------------------------------------------------

def test_bounded_search_finds_the_single_index():
    outs = outcomes("main { choose(x in {1..50}) (5 == fib(x)) }")
    assert outs == [Outcome((("x", Int(6)),), {})]
    assert builtin_fib(6) == 5


def test_empty_enum_means_failure():
    assert goal_outcomes("choose(x in {}) x == x") == []


def test_record_destructuring_binds_all_three_fields():
    source = (
        "getrecord(emp) { choose(name) choose(age) choose(sex)"
        " (tuple(name,age,sex) == emp) }\n"
        "main { getrecord(tuple(tom,31,male)) }"
    )
    outs = outcomes(source)
    assert outs == [
        Outcome(
            (("name", Atom("tom")), ("age", Int(31)), ("sex", Atom("male"))),
            {},
        )
    ]


def test_double_choose_reports_both_builtin_values():
    outs = outcomes("main { choose(x) choose(y) (x == fib(10); y == fact(20)) }")
    assert builtin_fib(10) == 34
    assert math.factorial(20) == 2432902008176640000
    assert outs == [
        Outcome((("x", Int(34)), ("y", Int(2432902008176640000))), {})
    ]


# --- clause calls -----------------------------------------------------------------

def test_call_unifies_arguments_against_parameters():
    assert outcomes("p(x) { x == 3 } main { p(3) }") == [Outcome((), {})]
    assert outcomes("p(x) { x == 3 } main { p(4) }") == []


def test_clauses_are_tried_in_program_order():
    source = "q(x) { x == 1 } q(x) { x == 2 } main { choose(y) q(y) }"
    outs = outcomes(source)
    assert outs == [Outcome((("y", Int(1)),), {}), Outcome((("y", Int(2)),), {})]


def test_calls_pass_compound_terms_through():
    source = "p(x) { x == pair(1, b) } main { choose(y) p(pair(y, b)) }"
    assert outcomes(source) == [Outcome((("y", Int(1)),), {})]


def test_undefined_procedure_is_a_runtime_error():
    for source in ("main { nosuch(1) }", "p(x) { x == 1 } main { p(1, 2) }"):
        with pytest.raises(EvalError) as err:
            outcomes(source)
        assert err.value.kind == "undefined"


def test_recursive_clauses_search_depth_first():
    source = (
        "count(n) { n == 0 }\n"
        "count(n) { choose(m) (n == s(m); count(m)) }\n"
        "main { count(s(s(0))) }"
    )
    outs = outcomes(source)
    assert len(outs) == 1
    assert outs[0].witnesses == (("m", Compound("s", (Int(0),))), ("m", Int(0)))


# --- conditions --------------------------------------------------------------------

def test_equality_computes_ground_arithmetic():
    assert goal_outcomes("5 == fib(6)") == [Outcome((), {})]
    assert goal_outcomes("5 == fib(7)") == []


def test_equality_unifies_an_unbound_variable():
    outs = goal_outcomes("choose(x) x == tuple(1,2)")
    assert outs == [Outcome((("x", Compound("tuple", (Int(1), Int(2)))),), {})]


def test_equality_matches_structure_both_ways():
    outs = goal_outcomes("choose(x) tuple(x, 2) == tuple(1, 2)")
    assert outs == [Outcome((("x", Int(1)),), {})]
    assert goal_outcomes("choose(x) tuple(x, 2) == tuple(1, 3)") == []


def test_order_comparisons_need_ground_integers():
    assert goal_outcomes("3 < 5") == [Outcome((), {})]
    assert goal_outcomes("5 <= 4") == []
    with pytest.raises(EvalError):
        goal_outcomes("choose(x) x < 5")
    with pytest.raises(EvalError):
        goal_outcomes("choose(x) (x == a; x != 3)")


def test_condition_on_an_unset_store_name_fails_quietly():
    # t is assigned later, so it reads as a store variable everywhere;
    # the read happens before the write and the condition just fails
    assert outcomes("main { t == 1; t = 1 }") == []


# --- assignment ---------------------------------------------------------------------

def test_assignment_computes_and_stores():
    assert goal_outcomes("s = 3 + 4") == [Outcome((), {"s": Int(7)})]


def test_assignment_replaces_the_previous_value():
    assert goal_outcomes("s = 1; s = 2") == [Outcome((), {"s": Int(2)})]


def test_assignment_stores_the_largest_factorial():
    outs = goal_outcomes("s = fact(20)")
    assert outs == [Outcome((), {"s": Int(math.factorial(20))})]


def test_assignment_of_atoms_and_compounds():
    outs = goal_outcomes("s = bob; t = pair(1, a)")
    assert outs == [
        Outcome((), {"s": Atom("bob"), "t": Compound("pair", (Int(1), Atom("a")))})
    ]


def test_assignment_from_an_unset_store_name_fails():
    assert outcomes("main { s = t; t = 1 }") == []


def test_assignment_of_an_unbound_variable_is_an_error():
    with pytest.raises(EvalError):
        goal_outcomes("choose(x) s = x")


def test_assignment_reads_bound_logic_variables():
    outs = goal_outcomes("choose(x) (x == 7; s = x)")
    assert outs == [Outcome((("x", Int(7)),), {"s": Int(7)})]


# --- sequencing and backtracking ------------------------------------------------------

def test_sequence_threads_the_store():
    assert goal_outcomes("s = 1; t = 2") == [Outcome((), {"s": Int(1), "t": Int(2)})]


def test_sequence_fails_without_side_effects():
    program = parse_program("main { 1 == 2; s = 1 }")
    state = ProgramState(program.clauses)
    before = snapshot(state)
    assert list(Solver(state).records(program.main)) == []
    assert snapshot(state) == before


def test_failed_first_alternative_is_undone():
    outs = goal_outcomes("choose(x in {1,2}) (x == 2; s = x)")
    assert outs == [Outcome((("x", Int(2)),), {"s": Int(2)})]


def test_store_writes_backtrack_between_alternatives():
    # both alternatives write before failing one condition; the second
    # must not see the first one's write
    source = "main { s = 0; choose(x in {1,2}) (s = s + x; s == 2) }"
    outs = outcomes(source)
    assert outs == [Outcome((("x", Int(2)),), {"s": Int(2)})]


# --- choose -------------------------------------------------------------------------

def test_unconstrained_choice_reports_a_blank_witness():
    outs = goal_outcomes("choose(x) x == x")
    assert outs == [Outcome((("x", UNCONSTRAINED),), {})]


def test_partially_constrained_witness_keeps_fresh_variables():
    outs = goal_outcomes("choose(x) choose(y) (x == f(g(y)))")
    assert outs == [
        Outcome(
            (("x", Compound("f", (Compound("g", (Var("_G2"),)),))), ("y", UNCONSTRAINED)),
            {},
        )
    ]


def test_choice_found_through_a_later_statement():
    outs = goal_outcomes("choose(x) (s = 3; t = s + 1; x == t * 2)")
    assert outs == [Outcome((("x", Int(8)),), {"s": Int(3), "t": Int(4)})]


def test_bounded_enum_preserves_written_order_and_deduplicates():
    outs = goal_outcomes("choose(x in {2, 1, 2}) x < 3")
    assert [o.witnesses for o in outs] == [(("x", Int(2)),), (("x", Int(1)),)]


def test_bounded_enum_deduplicates_structurally():
    outs = goal_outcomes("choose(x in {f(1), f(1), a}) x == x")
    assert [o.witnesses for o in outs] == [
        (("x", Compound("f", (Int(1),))),),
        (("x", Atom("a")),),
    ]


def test_bounded_enum_resolves_elements_before_deduplicating():
    outs = goal_outcomes("choose(x) (x == 1; choose(y in {x, 1}) y == y)")
    assert len(outs) == 1
    assert outs[0].witnesses == (("x", Int(1)), ("y", Int(1)))


def test_bounded_enum_deduplicates_in_linear_time(monkeypatch):
    n = 2000
    calls = 0
    equal = Compound.__eq__

    def counting_eq(self, other):
        nonlocal calls
        calls += 1
        return equal(self, other)

    monkeypatch.setattr(Compound, "__eq__", counting_eq)
    elements = ", ".join(f"f({i})" for i in range(n))
    outs = goal_outcomes(f"choose(x in {{{elements}}}) x == f({n - 1})")
    assert [o.witnesses for o in outs] == [(("x", Compound("f", (Int(n - 1),))),)]
    assert calls <= 4 * n


def test_a_search_builds_no_goal_syntax_per_alternative(monkeypatch):
    # an alternative binds its element in an environment: no goal is
    # rebuilt with the element substituted into it
    import choo.syntax as syntax

    program = parse_program(
        "main { choose(a in {1..6}) choose(b in {1..6}) choose(c in {1..6})"
        " (a * a + b * b == c * c; a < b) }"
    )
    built = []
    for name in ("Seq", "Compare", "Assign", "Call", "Choose", "BoundedChoose",
                 "BinOp", "FunCall", "TermLit", "IntLit", "VarRef", "Enum"):
        cls = getattr(syntax, name)

        def counting_init(self, *args, init=cls.__init__, name=name):
            built.append(name)
            init(self, *args)

        monkeypatch.setattr(cls, "__init__", counting_init)
    solutions = list(execute(program))  # what an untraced `choo run --all` does
    assert [o.witnesses for o in solutions] == [
        (("a", Int(3)), ("b", Int(4)), ("c", Int(5))),
    ]
    assert built == []


def peano_program(n):
    """Build the numeral of n with mk, then check it with nat."""
    return parse_program(
        "mk(n, x) { n == 0; x == z } "
        "mk(n, x) { n > 0; choose(p) choose(y) (p == n - 1; x == s(y); mk(p, y)) } "
        "nat(x) { x == z } nat(x) { choose(y) (x == s(y); nat(y)) } "
        f"main {{ choose(x) (mk({n}, x); nat(x)) }}"
    )


def test_a_recursive_build_and_check_builds_linearly_many_compounds(monkeypatch):
    # unification walks bound terms where they stand and resolution
    # shares what it does not change; rebuilding resolved terms at every
    # level made this count grow as n^2, 29,400 compounds at n = 120
    def built(n):
        program = peano_program(n)
        count = 0
        init = Compound.__init__

        def counting_init(self, *args):
            nonlocal count
            count += 1
            init(self, *args)

        with monkeypatch.context() as patch:
            patch.setattr(Compound, "__init__", counting_init)
            outcome = next(execute(program))
        peano = Atom("z")
        for _ in range(n):
            peano = Compound("s", (peano,))
        assert outcome.witnesses[0] == ("x", peano)
        return count

    for n in (120, 240):
        assert built(n) <= 4 * n + 8


def test_witnesses_sharing_a_bound_subterm_resolve_alike():
    outs = goal_outcomes("choose(z) choose(x) choose(y) (z == g(1); x == f(z, z); y == h(x, z))")
    z = Compound("g", (Int(1),))
    x = Compound("f", (z, z))
    assert outs == [Outcome((("z", z), ("x", x), ("y", Compound("h", (x, z)))), {})]


def test_bounded_range_runs_ascending():
    outs = goal_outcomes("choose(x in {1..3}) x == x")
    assert [o.witnesses for o in outs] == [
        (("x", Int(1)),), (("x", Int(2)),), (("x", Int(3)),)
    ]
    assert goal_outcomes("choose(x in {3..1}) x == x") == []


def test_witnesses_keep_binder_entry_order():
    outs = goal_outcomes("choose(x in {1..2}) choose(y in {3..4}) (x == 1; y == 4)")
    assert outs == [Outcome((("x", Int(1)), ("y", Int(4))), {})]
    # binders opened one after another both stay visible in the answer
    outs2 = goal_outcomes("(choose(x in {1..1}) x == 1); choose(y in {2..2}) y == 2")
    assert outs2 == [Outcome((("x", Int(1)), ("y", Int(2))), {})]


def test_shadowing_inner_choose_reports_both_witnesses():
    outs = goal_outcomes("choose(x) (choose(x) x == 1; x == 2)")
    assert outs == [Outcome((("x", Int(2)), ("x", Int(1))), {})]


def test_a_recursive_build_and_check_walks_linearly_many_terms(monkeypatch):
    # nat binds each young y to a subterm of x's numeral; walking that
    # subterm for the occurs check made 141,765, 533,515 and 2,067,015
    # walk calls at n = 500, 1,000 and 2,000
    count = 0
    walk = terms.walk

    def counting_walk(subst, term):
        nonlocal count
        count += 1
        return walk(subst, term)

    monkeypatch.setattr(terms, "walk", counting_walk)
    monkeypatch.setattr(interp, "walk", counting_walk)
    counts = {}
    for n in (500, 1000, 2000):
        count = 0
        next(execute(peano_program(n), SearchBudget(max_depth=100_000)))
        counts[n] = count
    assert all(c <= 40 * n for n, c in counts.items()), counts
    assert counts[1000] <= 2.1 * counts[500] and counts[2000] <= 2.1 * counts[1000], counts


# each of these would bind a variable to a term that holds it: the occurs
# check must fire, or the substitution becomes cyclic and resolving it
# never ends. The search is run for its records alone, which resolve
# nothing, so a cycle shows as a solution, not as a hang.
CYCLES = [
    "main { choose(x) x == f(x) }",
    "main { choose(x) choose(y) (y == f(x); x == y) }",
    "p(a, b) { a == f(b) } main { choose(x) p(x, x) }",
    # a binding made by a call holds y: bind ends y's youth
    "p(a, b) { b == a } main { choose(y) p(f(y), y) }",
    # z == g(x) holds x: a unify that binds ends every variable's youth
    "main { choose(x) choose(y) choose(z) (z == g(x); y == h(z); x == y) }",
    # w = g(v) is bound first, then v meets it through that binding
    "main { choose(v) choose(w) (f(v, w) == f(w, g(v))) }",
    # x == 3 is undone before the second element; x is not young again,
    # although no binding now holds a value for it
    "main { choose(x) choose(y) (y == f(x); choose(k in {3, x}) (x == k; x == y)) }",
]


@pytest.mark.parametrize("source", CYCLES)
def test_a_binding_that_would_make_a_cycle_fails(source):
    program = parse_program(source)
    state = ProgramState(program.clauses)
    assert next(Solver(state).records(program.main), None) is None
    assert state.subst == {}


def records_of(applied):
    """The rule applications of a record as a list, newest first; == on
    the nested records would recurse once per application."""
    out = []
    while applied is not None:
        out.append(applied[:4])
        applied = applied[4]
    return out


def test_skipping_the_occurs_check_changes_nothing_a_search_shows(monkeypatch):
    # the walks skipped for young variables could never have found them:
    # with every occurs check run in full, each search reports the same
    def observe(program):
        state = ProgramState(program.clauses)
        solver = Solver(state, SearchBudget(2000, 50_000))
        seen = []
        try:
            for applied in solver.records(program.main):
                seen.append((dict(state.subst), dict(state.store), records_of(applied)))
        except (EvalError, BudgetExhausted) as err:
            seen.append(type(err).__name__)
        return seen, solver.steps

    programs = [gen_program(random.Random(seed)) for seed in range(3000)]
    programs += [peano_program(60), peano_program(120)]
    skipping = [observe(program) for program in programs]
    assert all(type(seen[0]) is tuple for seen, _ in skipping[-2:])  # each numeral checks
    monkeypatch.setattr(interp, "unify_in_place",
                        lambda t1, t2, subst, young: unify_in_place(t1, t2, subst))
    assert [observe(program) for program in programs] == skipping


def test_unify_binds_as_unify_in_place_does():
    # ProgramState.unify binds a variable that meets a leaf itself; from
    # copies of one state, it and a bare unify_in_place must agree on the
    # result, the substitution, the names trailed in order and youth
    rng = random.Random(36)
    names = VAR_NAMES + ("_G1", "_G2", "_G3")
    seen = {"leaf": 0, "same": 0, "chain": 0, "young": 0, "compound": 0, "failed": 0}

    def side():
        return Var(rng.choice(names)) if rng.random() < 0.4 else random_term(rng, names)

    for _ in range(6000):
        subst = {}
        for _ in range(rng.randint(0, 5)):  # chains come from variables meeting variables
            unify_in_place(Var(rng.choice(names)), side(), subst)
        inside = set().union(*(free_vars(t) for t in subst.values()))
        unheld = [n for n in names if n not in subst and Var(n) not in inside]
        young = set(rng.sample(unheld, rng.randint(0, len(unheld))))
        t1, t2 = side(), side()
        state = ProgramState()
        state.subst, state.young = dict(subst), set(young)
        held = state.unify(t1, t2)
        bare, bare_young = dict(subst), set(young)
        bound = unify_in_place(t1, t2, bare, bare_young)
        if bound:
            bare_young.clear()
        assert (held, state.subst, state.trail, state.young) == (
            bound is not None, bare, bound or [], bare_young), (subst, young, t1, t2)
        a, b = terms.walk(subst, t1), terms.walk(subst, t2)
        if Var in (type(a), type(b)) and Compound not in (type(a), type(b)):  # the direct binding
            seen["same" if a == b else "leaf"] += 1
            seen["chain"] += a is not t1 or b is not t2
            seen["young"] += bool(bound) and bound[0] in young
        else:
            seen["compound" if held else "failed"] += 1
    assert min(seen.values()) >= 200, seen


def test_a_search_keeps_few_tuples_per_level():
    # one flat tuple per rule application and a bare name per binding:
    # nested records, or a tuple per trail entry, would hold about twice as many
    program = parse_program("down(n) { n == 0 }\n"
                            "down(n) { n > 0; choose(m) (m == n - 1; down(m)) }\n"
                            "main { down(600) }")

    def live_tuples():
        gc.collect()
        return sum(type(o) is tuple for o in gc.get_objects())

    state = ProgramState(program.clauses)
    before = live_tuples()
    records = Solver(state).records(program.main)
    first = next(records)
    assert first is not None and len(state.choices) == 600
    assert live_tuples() - before <= 12 * 600
    records.close()
    del first
    assert (state.store, state.subst, state.trail, state.choices) == ({}, {}, [], [])
    assert live_tuples() - before <= 0


def test_a_bounded_choose_reads_its_set_outside_its_binder():
    outs = outcomes("main { choose(x in {1, 2}) choose(x in {x, 3}) x == 1 }")
    assert [o.witnesses for o in outs] == [(("x", Int(1)), ("x", Int(1)))]


# --- expression evaluation -----------------------------------------------------------

def test_builtin_fixed_points():
    assert eval_int({}, {}, expr_of("fib(6)")) == 5
    assert eval_int({}, {}, expr_of("fact(0)")) == 1
    assert eval_int({}, {}, expr_of("(2 + 3) * 4")) == 20


def test_division_truncates_toward_zero():
    assert eval_int({}, {}, expr_of("7 / 2")) == 3
    assert eval_int({}, {}, expr_of("-7 / 2")) == -3
    assert eval_int({}, {}, expr_of("7 / -2")) == -3
    assert eval_int({}, {}, expr_of("-7 / -2")) == 3


def test_division_by_zero_is_an_error():
    with pytest.raises(EvalError):
        eval_int({}, {}, expr_of("1 / 0"))


def test_builtin_domain_errors():
    for text in ("fib(0)", "fib(-3)", "fact(-1)"):
        with pytest.raises(EvalError):
            eval_int({}, {}, expr_of(text))


def test_builtin_overflow_boundaries():
    assert eval_int({}, {}, expr_of("fib(93)")) == builtin_fib(93)
    assert builtin_fib(93) == 7540113804746346429
    with pytest.raises(EvalError):
        eval_int({}, {}, expr_of("fib(94)"))
    assert eval_int({}, {}, expr_of("fact(20)")) == math.factorial(20)
    with pytest.raises(EvalError):
        eval_int({}, {}, expr_of("fact(21)"))


def test_arithmetic_overflow_is_checked():
    for text in (
        f"{INT64_MAX} + 1",
        f"{INT64_MIN} - 1",
        f"{INT64_MAX} * 2",
        f"0 - 1 * {INT64_MIN} / 1 * -1 - 1",  # exactly max plus one... via min
    ):
        with pytest.raises(EvalError):
            eval_int({}, {}, expr_of(text))
    assert eval_int({}, {}, expr_of(f"{INT64_MAX} + 0")) == INT64_MAX
    assert eval_int({}, {}, expr_of(f"{INT64_MIN} + 0")) == INT64_MIN


def test_store_reads_in_expressions():
    assert eval_int({}, {}, VarRef("s")) is None
    assert eval_int({"s": Int(3)}, {}, VarRef("s")) == 3
    with pytest.raises(EvalError):
        eval_int({"s": Atom("a")}, {}, VarRef("s"))


def test_operands_resolve_through_the_substitution():
    subst = {"x": Int(4)}
    goal = parse_goal("s = x + 1", scope={"x"})
    assert eval_int({}, subst, goal.expr) == 5
    assert eval_operand({}, {}, parse_goal("s = f(1)").expr) == Compound(
        "f", (Int(1),)
    )


# --- budgets -----------------------------------------------------------------------

def test_budget_limits_must_be_positive():
    with pytest.raises(ValueError):
        SearchBudget(max_depth=0)
    with pytest.raises(ValueError):
        SearchBudget(max_steps=0)


def test_runaway_recursion_hits_the_depth_budget():
    program = parse_program("loop() { loop() } main { loop() }")
    with pytest.raises(BudgetExhausted) as err:
        list(execute(program, budget=SearchBudget(max_depth=50)))
    assert err.value.what == "depth"


def test_wide_search_hits_the_step_budget():
    program = parse_program("main { choose(x in {1..100000}) x == 0 }")
    with pytest.raises(BudgetExhausted) as err:
        list(execute(program, budget=SearchBudget(max_steps=500)))
    assert err.value.what == "steps"


def test_solutions_stream_out_before_the_budget_dies():
    program = parse_program("main { choose(x in {1..100}) x <= 3 }")
    got = []
    with pytest.raises(BudgetExhausted):
        for outcome in execute(program, budget=SearchBudget(max_steps=50)):
            got.append(outcome)
    assert [o.witnesses for o in got] == [
        (("x", Int(1)),), (("x", Int(2)),), (("x", Int(3)),)
    ]


def test_budget_growth_preserves_the_outcome_prefix():
    rng = random.Random(4006)
    small = SearchBudget(max_depth=8, max_steps=60)
    big = SearchBudget(max_depth=16, max_steps=600)

    def collect(program, budget):
        got = []
        try:
            for outcome in execute(program, budget=budget):
                got.append(outcome)
        except BudgetExhausted:
            return got, True
        return got, False

    compared = 0
    for _ in range(150):
        program = gen_program(rng)
        try:
            first, cut = collect(program, small)
            second, _ = collect(program, big)
        except EvalError:
            continue
        if cut:
            assert second[: len(first)] == first
        else:
            assert second == first
        compared += 1
    assert compared >= 100


@pytest.mark.parametrize("clauses,held", [
    ("down(n) { n == 0 } down(n) { n > 0; choose(m) (m == n - 1; down(m)) }", 1),
    ("down(n) { n > 0; choose(m) (m == n - 1; down(m)) } down(n) { n == 0 }", 2000),
])
def test_a_choice_point_goes_once_its_last_alternative_is_taken(clauses, held):
    # as WAM's trust, a call keeps its point only while a clause is left:
    # with the base clause first, only down(0)'s; with it second, those of
    # the 2,000 calls that took the recursive clause. Points kept until
    # backtracking reaches them would number 2,001 either way
    program = parse_program(f"{clauses} main {{ down(2000) }}")
    records = Solver(ProgramState(program.clauses), SearchBudget(max_depth=100_000)).records(program.main)
    next(records)
    assert len(records.gi_frame.f_locals["points"]) == held
    records.close()


# --- determinism and state discipline --------------------------------------------------

def test_repeated_runs_are_identical():
    rng = random.Random(4009)
    def observe(program):
        try:
            return [
                (o, format_tree(tree_of(o.record)))
                for o in execute(program, budget=SearchBudget(2000, 50_000))
            ]
        except (EvalError, BudgetExhausted) as err:
            return [type(err).__name__, str(err)]

    for _ in range(60):
        program = gen_program(rng)
        assert observe(program) == observe(program)


def test_failing_searches_leave_no_trace():
    failing = [
        "main { 1 == 2 }",
        "main { s = 1; 1 == 2 }",
        "main { choose(x in {1..5}) x > 9 }",
        "p(x) { x == 1; s = 2 } main { p(2) }",
        "main { choose(x in {}) x == x }",
        "main { choose(x) f(1, x) == f(2, 3) }",  # binds x, then fails
    ]
    for source in failing:
        program = parse_program(source)
        state = ProgramState(program.clauses)
        before = snapshot(state)
        assert list(Solver(state).records(program.main)) == []
        assert snapshot(state) == before, source


def test_abandoning_the_stream_restores_state():
    program = parse_program("main { choose(x in {1..3}) (s = x; x == x) }")
    state = ProgramState(program.clauses)
    before = snapshot(state)
    stream = Solver(state).records(program.main)
    next(stream)
    assert state.store  # mid-solution the write is visible
    stream.close()
    assert snapshot(state) == before


@pytest.mark.parametrize("source, budget, error, what", [
    ("main { s = 1; choose(x in {1, 2}) (t = x; q(x)) }", None, EvalError, "undefined"),
    ("p(x) { s = x; t = 2; choose(y) y == x; u = x / 0 } main { choose(z in {1..3}) p(z) }",
     None, EvalError, "division"),
    ("main { s = 1; choose(x in {1..100}) (t = x; x > 200) }",
     SearchBudget(max_steps=40), BudgetExhausted, "steps"),
    ("down(n) { s = n; choose(m) (m == n - 1; down(m)) } main { down(5) }",
     SearchBudget(max_depth=12), BudgetExhausted, "depth"),
])
def test_a_search_that_raises_leaves_no_trace(source, budget, error, what):
    program = parse_program(source)
    state = ProgramState(program.clauses)
    # the caller's own writes and choices must survive the search
    state.set_store("before", Int(7))
    state.choices.append(("outer", Int(1)))
    before = snapshot(state)
    with pytest.raises(error) as err:
        for _ in Solver(state, budget).records(program.main):
            pass
    assert (err.value.kind if error is EvalError else err.value.what) == what
    assert snapshot(state) == before


def test_snapshot_copies_the_bindings():
    # the search binds in place, so a snapshot holding the live map
    # would compare equal to any later state of the same length
    state = ProgramState()
    assert state.unify(Var("X"), Int(1))
    before = snapshot(state)
    state.undo_to(0)
    assert state.unify(Var("Y"), Int(1))
    assert snapshot(state) != before


def test_peak_memory_grows_about_linearly_with_recursion_depth():
    # bindings are written in place and trailed; copying the whole
    # substitution at every binding made this ratio about 3.8
    import tracemalloc

    def peak(n):
        program = parse_program(
            "down(n) { n == 0 } down(n) { n > 0; choose(m) (m == n - 1; down(m)) } "
            f"main {{ down({n}) }}"
        )
        tracemalloc.start()
        try:
            next(execute(program))
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(500)  # untimed: fills CPython's free lists before either measured search
    assert peak(1000) <= 2.8 * peak(500)


def call_with_headroom(fn, headroom):
    """fn() called from a stack that stops headroom frames short of the
    recursion limit; the limit itself is left as it is."""
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back

    def down(n):
        return fn() if n <= 0 else down(n - 1)

    return down(sys.getrecursionlimit() - headroom - depth)


def test_a_search_needs_no_stack_per_level_of_nesting():
    chooses = " ".join(f"choose(x{i} in {{1}})" for i in range(450))
    program = parse_program(f"main {{ {chooses} s = 1 }}")
    [outcome] = call_with_headroom(lambda: list(execute(program)), 150)
    assert outcome.witnesses == tuple((f"x{i}", Int(1)) for i in range(450))
    assert outcome.store == {"s": Int(1)}


def test_outcome_stores_hold_only_ground_terms():
    rng = random.Random(4010)
    seen = 0
    for _ in range(120):
        program = gen_program(rng)
        try:
            for outcome in execute(program, budget=SearchBudget(2000, 50_000)):
                for value in outcome.store.values():
                    assert not free_vars(value)
                seen += 1
        except (EvalError, BudgetExhausted):
            continue
    assert seen >= 40


# --- derivations ------------------------------------------------------------------------

def validate_shape(node: DerivationNode) -> None:
    """Raise ValueError if any node carries the wrong number of children."""
    stack = [node]  # a loop: derivations are as tall as the search was deep
    while stack:
        node = stack.pop()
        expected = RULE_CHILDREN[node.rule]
        if len(node.children) != expected:
            raise ValueError(
                f"rule {node.rule} node has {len(node.children)} children, wants {expected}"
            )
        stack.extend(node.children)


def test_derivation_trees_match_the_rule_arities():
    rng = random.Random(4011)
    checked = 0
    for _ in range(80):
        program = gen_program(rng)
        try:
            for outcome in execute(program, budget=SearchBudget(2000, 50_000)):
                validate_shape(tree_of(outcome.record))
                checked += 1
        except (EvalError, BudgetExhausted):
            continue
    assert checked >= 30


def test_derivation_chain_for_a_call():
    program = parse_program("p(x) { x == 3 } main { p(3) }")
    [outcome] = list(execute(program))
    node = tree_of(outcome.record)
    assert node.rule == 3
    (passing,) = node.children
    assert passing.rule == 2
    (body,) = passing.children
    assert body.rule == 1
    (cond,) = body.children
    assert cond.rule == 4 and cond.children == ()


def test_outcomes_compare_and_print_without_their_records():
    # two clauses derive one solution twice: the records differ, the answers do not
    program = parse_program("p(x) { x == 1 } p(x) { 1 == x } main { choose(y in {1}) p(y) }")
    first, second = execute(program)
    assert format_tree(tree_of(first.record)) != format_tree(tree_of(second.record))
    assert first == second == Outcome((("y", Int(1)),), {})
    assert repr(first) == repr(second) == "Outcome(witnesses=(('y', Int(value=1)),), store={})"


def test_rule_hook_sees_the_attempt_order():
    events = []
    program = parse_program("p(x) { x == 3 } main { p(3) }")
    list(execute(program, on_rule=lambda rule, goal: events.append(rule)))
    # call entry, clause alternative, argument pass, body entry, condition
    assert events == [3, 3, 2, 1, 4]
    events.clear()
    list(execute(parse_program("main { s = 1; t = 2 }"), on_rule=lambda r, g: events.append(r)))
    assert events == [6, 5, 5]


def test_format_tree_is_indented_by_rule():
    program = parse_program("main { s = 1; t = 2 }")
    [outcome] = list(execute(program))
    lines = format_tree(tree_of(outcome.record)).splitlines()
    assert lines[0].startswith("[rule 6]")
    assert lines[1].startswith("  [rule 5]")
    assert lines[2].startswith("  [rule 5]")


def test_tree_of_builds_the_tree_its_rule_applications_spell():
    seq, cond = parse_goal("s = 1; p(3)"), parse_goal("x == 3", frozenset({"x"}))
    call, env = seq.second, {"x": Int(3)}
    applied = None
    for entry in [(6, seq, None, None), (5, seq.first, None, None), (3, call, None, None),
                  (2, call, "x", None), (1, call, "p", None), (4, cond, None, env)]:
        applied = (*entry, applied)  # newest first

    def shape(node):
        return node.rule, node.goal, node.label, node.env, tuple(map(shape, node.children))

    assert shape(tree_of(applied)) == (6, seq, None, None, (
        (5, seq.first, None, None, ()),
        (3, call, None, None, ((2, call, "x", None, ((1, call, "p", None, (
            (4, cond, None, env, ()),)),)),)),
    ))
    with pytest.raises(ValueError, match="unknown rule number 9"):
        tree_of((9, cond, None, None, None))


def test_a_search_builds_only_the_trees_it_reports(monkeypatch):
    # a derivation is recorded as its rule applications, and a tree is
    # built only when a reported solution's record is asked for one: the
    # search builds no node, and the 49 failed alternatives before x = 50
    # none later
    built = []
    init = DerivationNode.__init__

    def counting_init(self, *args):
        built.append(args[0])
        init(self, *args)

    monkeypatch.setattr(DerivationNode, "__init__", counting_init)
    program = parse_program("main { choose(x in {1..50}) (s = x; t = s + 1; x == 50) }")
    outcome = next(execute(program))
    assert outcome.witnesses == (("x", Int(50)),) and built == []
    assert format_tree(tree_of(outcome.record)).count("[rule") == len(built) == 6
