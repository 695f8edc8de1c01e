"""Reference enumerator and the differential check against the engine."""

import random
from collections import Counter

import pytest

from choo import (
    Atom,
    BoundedChoose,
    BudgetExhausted,
    Choose,
    Compound,
    EquivalenceReport,
    EvalError,
    Int,
    OracleBounds,
    OracleRunError,
    OutOfBounds,
    Seq,
    check_equivalence,
    enumerate_solutions,
    execute,
    format_program,
    parse_goal,
    parse_program,
    run,
)
from choo.derivation import validate_shape
from choo.gen import GenConfig, gen_program, shrink
from choo.oracle import _Enumerator


def goal_solutions(source, scope=(), bounds=None):
    goal = parse_goal(source, frozenset(scope))
    solutions, _ = enumerate_solutions((), goal, bounds=bounds or OracleBounds())
    return solutions


def program_solutions(source, bounds=None):
    program = parse_program(source)
    solutions, _ = enumerate_solutions(
        program.clauses, program.main, bounds=bounds or OracleBounds()
    )
    return solutions


# --- direct enumeration ------------------------------------------------------------

def test_enumerates_the_matching_elements():
    assert goal_solutions("choose(x in {1,2,3}) x == 2") == {
        ((("x", Int(2)),), frozenset())
    }


def test_empty_range_has_no_solutions():
    assert goal_solutions("choose(x in {5..4}) x == x") == set()


def test_solutions_carry_the_final_store():
    assert goal_solutions("s = 1; t = a") == {
        ((), frozenset({("s", Int(1)), ("t", Atom("a"))}))
    }


def test_both_clauses_contribute():
    source = "q(x) { x == 1 } q(x) { x == 2 } main { choose(y in {0..3}) q(y) }"
    assert program_solutions(source) == {
        ((("y", Int(1)),), frozenset()),
        ((("y", Int(2)),), frozenset()),
    }


def test_builtins_agree_with_their_definitions():
    assert program_solutions("main { choose(x in {1..50}) (5 == fib(x)) }") == {
        ((("x", Int(6)),), frozenset())
    }


def test_derivations_come_back_validated():
    source = "p(x) { x == 3 } main { p(3) }"
    program = parse_program(source)
    _, derivations = enumerate_solutions(program.clauses, program.main, OracleBounds())
    assert derivations
    for node in derivations:
        validate_shape(node)


# --- domain fencing -----------------------------------------------------------------

def test_unpinned_choice_is_out_of_bounds():
    with pytest.raises(OutOfBounds):
        goal_solutions("choose(x) x == x")


def test_choice_pinned_only_inside_a_call_is_out_of_bounds():
    source = "p(x) { x == 3 } main { choose(y) p(y) }"
    with pytest.raises(OutOfBounds):
        program_solutions(source)


def test_pin_through_structure_is_in_bounds():
    source = (
        "getrecord(emp) { choose(name) choose(age) choose(sex)"
        " (tuple(name,age,sex) == emp) }\n"
        "main { getrecord(tuple(tom,31,male)) }"
    )
    assert program_solutions(source) == {
        (
            (("name", Atom("tom")), ("age", Int(31)), ("sex", Atom("male"))),
            frozenset(),
        )
    }


def test_pin_on_a_closed_expression_is_in_bounds():
    assert goal_solutions("choose(x) x == fib(10)") == {
        ((("x", Int(34)),), frozenset())
    }


def test_engine_and_oracle_conclude_a_call_alike():
    program = parse_program("p(x) { x == 3 } main { p(3) }")
    [(_, engine)] = list(run(program))
    _, [oracle] = enumerate_solutions(program)

    def call_chain(node):
        # rules 3, 2 and 1 conclude the call itself; the body below
        # differs, since only the engine renames x to a fresh variable
        chain = []
        while node.rule in (3, 2, 1):
            chain.append((node.rule, node.conclusion))
            (node,) = node.children
        return chain

    assert call_chain(engine) == call_chain(oracle) == [
        (3, "ex(P, p(3), P')"),
        (2, "ex(forall x; P, p(3))"),
        (1, "ex((p body); P, p(3))"),
    ]


def test_deep_derivations_are_out_of_bounds():
    bounds = OracleBounds(max_height=3)
    with pytest.raises(OutOfBounds):
        goal_solutions("s = 1; s = 2; s = 3; s = 4; s = 5", bounds=bounds)
    with pytest.raises(OutOfBounds):
        program_solutions("loop() { loop() } main { loop() }")


def test_runtime_errors_surface_as_oracle_run_errors():
    with pytest.raises(OracleRunError):
        goal_solutions("s = fact(25)")
    with pytest.raises(OracleRunError):
        goal_solutions("s = 1 / 0")


# --- the differential check -----------------------------------------------------------

def test_reference_programs_match():
    for source in (
        "main { choose(x in {1..50}) (5 == fib(x)) }",
        "main { choose(x) choose(y) (x == fib(10); y == fact(20)) }",
        "getrecord(emp) { choose(name) choose(age) choose(sex)"
        " (tuple(name,age,sex) == emp) }\n"
        "main { getrecord(tuple(tom,31,male)) }",
        "main { s = 0; choose(x in {1,2}) (s = s + x; s == 2) }",
        "main { choose(x in {2,1,2}) x < 3 }",
    ):
        report = check_equivalence(parse_program(source))
        assert report.matched, report.describe()
        assert not report.excluded


def test_matching_runtime_errors_count_as_agreement():
    report = check_equivalence(parse_program("main { s = fact(25) }"))
    assert report.matched
    assert report.reason == "both raised runtime errors"


def test_unpinned_programs_are_excluded_not_failed():
    report = check_equivalence(parse_program("main { choose(x) x == x }"))
    assert report.excluded
    assert not report.matched


def test_repeated_solutions_are_counted():
    # two clauses derive the same solution: run --all prints two
    report = check_equivalence(parse_program("p(x) { x == 1 } p(x) { x == 1 } main { p(1) }"))
    assert report.matched
    assert report.describe() == "match: 2 solutions"
    once = ((), frozenset())
    report = EquivalenceReport(
        matched=False,
        engine_solutions=Counter({once: 2}),
        oracle_solutions=Counter({once: 1}),
    )
    assert report.describe() == "mismatch:\n  engine only: ((), frozenset())"


def test_report_text_names_both_sides_on_mismatch():
    shared = ((("x", Int(1)),), frozenset())
    extra = ((("x", Int(2)),), frozenset())
    report = EquivalenceReport(
        matched=False,
        excluded=False,
        reason="solution sets differ",
        engine_solutions=frozenset({shared, extra}),
        oracle_solutions=frozenset({shared}),
    )
    text = report.describe()
    assert text.startswith("mismatch")
    assert "engine only" in text
    assert "oracle only" not in text


def test_report_text_shows_witnesses_nested_past_the_recursion_limit():
    # a per-level repr gives out near 400 levels at the default limit
    deep = Atom("z")
    for _ in range(450):
        deep = Compound("s", (deep,))
    report = EquivalenceReport(
        matched=False,
        reason="solution sets differ",
        engine_solutions=frozenset({((("x", deep),), frozenset())}),
        oracle_solutions=frozenset({((("x", Atom("z")),), frozenset())}),
    )
    deep_repr = "Compound(functor='s', args=(" * 450 + "Atom(name='z')" + ",))" * 450
    assert report.describe().splitlines() == [
        "mismatch:",
        "  solution sets differ",
        f"  engine only: ((('x', {deep_repr}),), frozenset())",
        "  oracle only: ((('x', Atom(name='z')),), frozenset())",
    ]


def test_random_programs_agree_with_the_engine():
    rng = random.Random(5001)
    checked = 0
    attempts = 0
    while checked < 120 and attempts < 2000:
        attempts += 1
        report = check_equivalence(gen_program(rng))
        if report.excluded:
            continue
        assert report.matched, report.describe()
        checked += 1
    assert checked == 120


def _has_unbounded_choose(program):
    goals = [program.main, *(c.body for c in program.clauses)]
    while goals:
        goal = goals.pop()
        if isinstance(goal, Choose):
            return True
        if isinstance(goal, Seq):
            goals += (goal.first, goal.second)
        elif isinstance(goal, BoundedChoose):
            goals.append(goal.body)
    return False


def _ordered_streams(program):
    """Engine and oracle solutions in the order found, repeats kept.

    A runtime error ends a stream with a marker, so both sides must
    reach it after the same solutions.
    """
    streams = []
    for solutions in (
        lambda: ((o.witnesses, o.store) for o in execute(program)),
        lambda: ((w, s) for s, w, _ in
                 _Enumerator(program.clauses, OracleBounds()).exec_goal({}, (), program.main, 1)),
    ):
        stream = []
        try:
            stream.extend(solutions())
        except (EvalError, OracleRunError):
            stream.append("runtime error")
        streams.append(stream)
    return streams


def test_random_programs_stream_solutions_in_the_oracles_order():
    # check_equivalence compares sets; this compares the sequences, so a
    # solution found twice, or found out of order, shows up here
    rng = random.Random(5004)
    compared = 0
    for _ in range(3000):
        program = gen_program(rng)
        if _has_unbounded_choose(program):
            continue
        try:
            engine, oracle = _ordered_streams(program)
        except (OutOfBounds, BudgetExhausted):
            continue
        assert engine == oracle, format_program(program)
        compared += 1
    assert compared >= 300


@pytest.mark.parametrize("source, expected", [
    ("p(x) { x == 1 } p(x) { x == 1 } main { p(1) }", [((), {}), ((), {})]),
    ("p(x) { x == 1 } p(x) { x > 0 } p(x) { s = x } main { choose(y in {1, 2}) p(y) }",
     [((("y", Int(1)),), {}), ((("y", Int(1)),), {}), ((("y", Int(1)),), {"s": Int(1)}),
      ((("y", Int(2)),), {}), ((("y", Int(2)),), {"s": Int(2)})]),
])
def test_duplicate_solutions_stream_alike(source, expected):
    engine, oracle = _ordered_streams(parse_program(source))
    assert engine == oracle == expected


def test_straightline_programs_agree_with_the_engine():
    from choo.gen import gen_straightline
    from choo.syntax import SourceProgram

    rng = random.Random(5002)
    for _ in range(60):
        goal, _, _ = gen_straightline(rng)
        report = check_equivalence(SourceProgram((), goal))
        assert report.matched, report.describe()


# --- shrinking ------------------------------------------------------------------------

def test_shrink_reduces_a_failing_program():
    # stand-in defect: treat any program whose engine output mentions the
    # atom `red` as broken, and shrink while that stays reproducible
    def still_bad(program):
        try:
            for outcome in execute(program):
                values = [v for _, v in outcome.witnesses]
                values.extend(outcome.store.values())
                if Atom("red") in values:
                    return True
        except Exception:
            return False
        return False

    source = (
        "main { s = 1; t = 2; choose(x in {red, blue}) (x == red; u = x);"
        " choose(y in {1..3}) y == 2 }"
    )
    program = parse_program(source)
    assert still_bad(program)
    small = shrink(program, still_bad)
    assert still_bad(small)

    def weight(p):
        return len(p.clauses) * 10 + _goal_size(p.main)

    def _goal_size(goal):
        from choo.syntax import BoundedChoose, Choose, Seq

        if isinstance(goal, Seq):
            return 1 + _goal_size(goal.first) + _goal_size(goal.second)
        if isinstance(goal, (Choose, BoundedChoose)):
            return 1 + _goal_size(goal.body)
        return 1

    assert weight(small) < weight(program)


def test_shrink_keeps_programs_parseable_and_printable():
    from choo.syntax import format_program

    rng = random.Random(5003)
    shrunk = 0
    for _ in range(40):
        program = gen_program(rng)

        def still_bad(p):
            try:
                return bool(list(execute(p)))
            except Exception:
                return False

        if not still_bad(program):
            continue
        small = shrink(program, still_bad)
        assert still_bad(small)
        reparsed = parse_program(format_program(small))
        assert reparsed == small
        shrunk += 1
    assert shrunk >= 15
