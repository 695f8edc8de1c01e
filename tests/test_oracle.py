"""Reference enumerator and the differential check against the engine."""

import hashlib
import random
from collections import Counter

import pytest

from choo import (
    Atom,
    BinOp,
    BoundedChoose,
    BudgetExhausted,
    Choose,
    Compare,
    Compound,
    Enum,
    EquivalenceReport,
    EvalError,
    Int,
    OracleRunError,
    OutOfBounds,
    Seq,
    SourceProgram,
    TermLit,
    Var,
    check_equivalence,
    enumerate_solutions,
    execute,
    format_program,
    parse_goal,
    parse_program,
    run,
)
from choo.derivation import DerivationNode, format_tree, tree_of
from choo.gen import gen_program, shrink
from choo.oracle import _Enumerator
from test_interp import call_with_headroom, validate_shape


def goal_solutions(source, scope=()):
    goal = parse_goal(source, frozenset(scope))
    solutions, _ = enumerate_solutions(SourceProgram((), goal))
    return solutions


def program_solutions(source):
    program = parse_program(source)
    solutions, _ = enumerate_solutions(program)
    return solutions


# --- direct enumeration ------------------------------------------------------------

def test_enumerates_the_matching_elements():
    assert goal_solutions("choose(x in {1,2,3}) x == 2") == {
        ((("x", Int(2)),), frozenset())
    }


def test_set_elements_are_deduplicated_in_linear_time(monkeypatch):
    # a membership test on a list made this n^2/2 comparisons
    n = 2000
    calls = 0
    equal = Compound.__eq__

    def counting_eq(self, other):
        nonlocal calls
        calls += 1
        return equal(self, other)

    monkeypatch.setattr(Compound, "__eq__", counting_eq)
    elements = ", ".join(f"f({i})" for i in range(n))
    assert goal_solutions(f"choose(x in {{{elements}}}) x == f({n - 1})") == {
        ((("x", Compound("f", (Int(n - 1),))),), frozenset())
    }
    assert calls <= 4 * n


def test_enumeration_builds_no_goal_or_expression_nodes(monkeypatch):
    # the body runs in an environment of the chosen values; rebuilding the
    # whole body at every substitution made 30,144 of these nodes
    goal = parse_goal("choose(x in {1..12}) choose(y in {1..12}) choose(z in {0..11}) "
                      "(x * x + y * y == z * z + 8; x <= y)")
    built = 0
    for cls in (BinOp, Compare, Seq, TermLit):
        def counting_init(self, *args, _init=cls.__init__):
            nonlocal built
            built += 1
            _init(self, *args)
        monkeypatch.setattr(cls, "__init__", counting_init)
    solutions, _ = enumerate_solutions(SourceProgram((), goal))
    assert len(solutions) == 4
    assert built == 0


def test_a_call_examines_only_clauses_of_its_name_and_arity():
    examined = []

    class Watched:
        """A clause that records every read of its fields."""

        def __init__(self, clause):
            self.clause = clause

        def __getattr__(self, field):
            examined.append((self.clause.name, len(self.clause.params)))
            return getattr(self.clause, field)

    program = parse_program("p(x) { x == 1 } p(x, y) { x == y } q(x) { x == 2 } p(x) { x == 3 } "
                            "main { choose(x in {1..3}) p(x) }")
    enumerator = _Enumerator(tuple(map(Watched, program.clauses)))
    examined.clear()  # grouping the clauses reads each once
    found = [w for _, w, _ in enumerator.exec_goal({}, (), program.main, 1)]
    assert found == [(("x", Int(1)),), (("x", Int(3)),)]
    assert set(examined) == {("p", 1)}
    with pytest.raises(OracleRunError, match="no clause for q/2"):
        list(enumerator.exec_goal({}, (), parse_goal("q(1, 2)"), 1))


def test_set_elements_keep_their_first_appearance_and_must_be_ground():
    enumerator = _Enumerator(())
    elements = (Int(2), Atom("a"), Int(2), Compound("f", (Int(1),)), Atom("a"))
    assert enumerator._set_members(Enum(elements), {}) == [Int(2), Atom("a"), Compound("f", (Int(1),))]
    unbound_y = Enum((Int(1), Compound("f", (Var("y"),)), Int(1)))
    with pytest.raises(OracleRunError, match="not ground"):
        enumerator._set_members(unbound_y, {})
    assert enumerator._set_members(unbound_y, {"y": Int(1)}) == [Int(1), Compound("f", (Int(1),))]


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
    _, derivations = enumerate_solutions(program)
    assert derivations
    for node in derivations:
        validate_shape(node)


def test_oracle_derivations_match_the_pinned_digest():
    # one SHA-256 over every tree the oracle reports for gen_program
    # seeds 0-299, or the class of what it raised; the engine's trees are
    # pinned by the .full goldens and corpus.sha256, these by nothing else
    digest = hashlib.sha256()
    for seed in range(300):
        try:
            _, derivations = enumerate_solutions(gen_program(random.Random(seed)))
        except (OutOfBounds, OracleRunError) as e:
            digest.update(type(e).__name__.encode() + b"\n")
            continue
        for node in derivations:
            digest.update(format_tree(node).encode() + b"\n")
    assert digest.hexdigest() == "d122e6b2aaa086503f9ba523ac447aaacaa23e233ca3345e4accba32bd0c68d9"


def test_oracle_verdicts_match_the_pinned_digest():
    # one SHA-256 over the report text of the differential check for
    # gen_program seeds 0-2,999: a change to how the oracle runs must
    # leave every verdict, and every solution a mismatch would list, alone
    digest = hashlib.sha256()
    for seed in range(3000):
        digest.update(check_equivalence(gen_program(random.Random(seed))).describe().encode() + b"\n")
    assert digest.hexdigest() == "24755ceab1e81c36be911f15b57151f143720ca0fb665a6d1759e14beb350c76"


@pytest.mark.parametrize("source, verdict", [
    # the inner y is a binder of its own: f(y) is not ground, whatever the outer y holds
    ("main { choose(y in {3}) choose(x) (choose(y) (y == 5; x == f(y))) }",
     "excluded: choose(x) has no ground pin"),
    ("main { choose(x in {1}) choose(x) (x == 2) }", "match: 1 solutions"),
    ("p(a) { choose(x) (x == g(a); a == 4) } main { choose(y in {4, 5}) p(y) }",
     "match: 1 solutions"),
])
def test_an_inner_binder_hides_an_outer_one_of_its_name(source, verdict):
    assert check_equivalence(parse_program(source)).describe() == verdict


# --- domain fencing -----------------------------------------------------------------

def test_unpinned_choice_is_out_of_bounds():
    # a pin is an operand with a value before the body runs: no store
    # read, no variable, no fault
    for source in (
        "choose(x) x == x",
        "choose(x) x == s + 1; s = 2",
        "choose(x) x == 1 / 0",
        "choose(x) x == fib(0)",
        "choose(x) x == f(1) + 1",
        "choose(x) (x == s; s = 1)",
        # the body reads x before the pin: the engine finds x unbound there
        "choose(x) (s = x; x == 1)",
        "choose(x) (s = x + 1; x == 1)",
        "choose(x) (x < 3; x == 1)",
        "choose(x) (fib(x) == 0; x == 1)",
        "choose(x) (choose(y in {x, 1}) y == y; x == 1)",
    ):
        with pytest.raises(OutOfBounds):
            goal_solutions(source)
    with pytest.raises(OutOfBounds):
        program_solutions("p(y) { s = y + 1 } main { choose(x) (p(x); x == 1) }")


def test_a_call_on_a_free_variable_is_out_of_bounds():
    # parse_goal with a scope leaves z free: no binder gives it a value
    clauses = parse_program("p(a) { a == 1 } main { p(1) }").clauses
    with pytest.raises(OutOfBounds):
        enumerate_solutions(SourceProgram(clauses, parse_goal("p(z)", frozenset({"z"}))))


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
    for source, witnesses in (
        ("choose(x) x == fib(10)", [(("x", Int(34)),)]),
        ("choose(x) x == 2 * 3 - 1", [(("x", Int(5)),)]),
        # the outer choice is substituted first, so y + 1 is closed by then
        ("choose(y in {1..2}) choose(x) x == y + 1",
         [(("y", Int(1)), ("x", Int(2))), (("y", Int(2)), ("x", Int(3)))]),
    ):
        assert goal_solutions(source) == {(w, frozenset()) for w in witnesses}, source


def test_engine_and_oracle_conclude_a_call_alike():
    program = parse_program("p(x) { x == 3 } main { p(3) }")
    [(_, record)] = list(run(program))
    engine = tree_of(record)
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
    # each `;` adds a level, and derivations up to 50 tall are enumerated
    def chain(n):
        return "; ".join(f"s = {i}" for i in range(n))

    assert len(goal_solutions(chain(50))) == 1
    with pytest.raises(OutOfBounds):
        goal_solutions(chain(51))
    with pytest.raises(OutOfBounds):
        program_solutions("loop() { loop() } main { loop() }")


def test_a_nest_past_the_height_bound_needs_no_stack_per_level():
    # substituting into the body once took a frame per nested choose
    chooses = " ".join(f"choose(x{i} in {{1}})" for i in range(450))
    program = parse_program(f"main {{ {chooses} s = 1 }}")
    report = call_with_headroom(lambda: check_equivalence(program), 150)
    assert report.describe() == "excluded: derivation height"


def test_runtime_errors_surface_as_oracle_run_errors():
    with pytest.raises(OracleRunError):
        goal_solutions("s = fact(25)")
    with pytest.raises(OracleRunError):
        goal_solutions("s = 1 / 0")
    for source in (
        "s = 9223372036854775807 + 1",
        "s = 0 - 9223372036854775807 - 2",
        "s = 3037000500 * 3037000500",
        "s = fib(94)",
    ):
        with pytest.raises(OracleRunError):
            goal_solutions(source)


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
    assert report.describe() == "excluded: choose(x) has no ground pin"


def test_an_error_on_one_side_only_is_a_mismatch(monkeypatch):
    def failing_engine(program, budget=None, on_rule=None):
        raise EvalError("injected")
        yield

    monkeypatch.setattr("choo.oracle.execute", failing_engine)
    report = check_equivalence(parse_program("main { choose(x in {2, 1}) s = x }"))
    assert not report.matched
    assert not report.excluded
    assert report.reason == "engine=runtime-error oracle=solutions"
    assert report.describe().splitlines() == [
        "mismatch:",
        "  engine=runtime-error oracle=solutions",
        "  oracle only: ((('x', Int(value=1)),), frozenset({('s', Int(value=1))}))",
        "  oracle only: ((('x', Int(value=2)),), frozenset({('s', Int(value=2))}))",
    ]


def test_an_oracle_error_against_engine_solutions_is_a_mismatch(monkeypatch):
    def failing_oracle(self, store, witnesses, goal, height, applied=None, env=None):
        raise OracleRunError("injected")
        yield

    monkeypatch.setattr(_Enumerator, "exec_goal", failing_oracle)
    report = check_equivalence(parse_program("main { s = 1 }"))
    assert not report.matched
    assert report.reason == "engine=solutions oracle=runtime-error"
    assert report.describe().splitlines() == [
        "mismatch:",
        "  engine=solutions oracle=runtime-error",
        "  engine only: ((), frozenset({('s', Int(value=1))}))",
    ]


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


def test_equivalence_checking_builds_no_derivation_tree(monkeypatch):
    # both halves compare solutions: the oracle builds no tree, and the
    # engine hands out its records without building one
    built = []
    init = DerivationNode.__init__

    def counting_init(self, *args):
        built.append(args[0])
        init(self, *args)

    monkeypatch.setattr(DerivationNode, "__init__", counting_init)
    report = check_equivalence(parse_program(
        "main { choose(x in {1..12}) choose(y in {1..12}) choose(z in {0..11})"
        " (x * x + y * y == z * z + 3; x <= y) }"))
    assert report.matched and report.engine_solutions.total() == 1
    assert built == []


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


def _small_expr(rng, bound, depth=0):
    r = rng.random()
    if depth < 3 and r < 0.35:
        op = rng.choice("+-*/")
        return f"({_small_expr(rng, bound, depth + 1)} {op} {_small_expr(rng, bound, depth + 1)})"
    if depth < 3 and r < 0.42:
        return f"{rng.choice(('fib', 'fact'))}({_small_expr(rng, bound, depth + 1)})"
    if r > 0.95:
        return "f(1)"
    return rng.choice([str(rng.randint(-1, 3))] * 2 + ["s", "t", *bound])


def _small_body(rng, bound, nesting):
    stmts = []
    for _ in range(rng.randint(1, 3)):
        r = rng.random()
        v = f"v{len(bound)}"
        if nesting < 2 and r < 0.15:
            stmts.append(f"choose({v}) ({v} == {_small_expr(rng, bound)}; "
                         f"{_small_body(rng, bound + (v,), nesting + 1)})")
        elif nesting < 2 and r < 0.3:
            stmts.append(f"choose({v} in {{0..2}}) ({_small_body(rng, bound + (v,), nesting + 1)})")
        elif r < 0.6:
            stmts.append(f"{rng.choice('st')} = {_small_expr(rng, bound)}")
        else:
            op = rng.choice(("==", "!=", "<", "<=", ">", ">="))
            stmts.append(f"{_small_expr(rng, bound)} {op} {_small_expr(rng, bound)}")
    return "; ".join(stmts)


def test_small_arithmetic_programs_agree_with_the_engine():
    # gen_program writes no division and reads only set names; here an
    # unset read can sit left of a fault, which both sides must not reach
    rng = random.Random(12)
    for _ in range(2000):
        source = f"main {{ {_small_body(rng, (), 0)} }}"
        report = check_equivalence(parse_program(source))
        assert report.matched or report.excluded, f"{source}\n{report.describe()}"


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
                 _Enumerator(program.clauses).exec_goal({}, (), program.main, 1)),
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
