"""Reference enumerator and the differential check against the engine."""

import ast
import hashlib
import os
import random
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

import choo
from choo.derivation import DerivationNode, format_tree, tree_of
from choo.interp import ERROR_KINDS, UNCONSTRAINED, BudgetExhausted, EvalError, Outcome, execute
from choo.oracle import (
    EquivalenceReport,
    OracleRunError,
    OutOfBounds,
    _Enumerator,
    check_equivalence,
    enumerate_solutions,
)
from choo.parser import parse_goal, parse_program
from choo.shrink import shrink
from choo.syntax import BinOp, Compare, Enum, IntLit, Seq, SourceProgram, TermLit, format_program
from choo.terms import Atom, Compound, Int, Var
from proggen import gen_program
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


def test_a_range_is_enumerated_one_element_at_a_time():
    # both sides raise at the first element, so neither may make the
    # whole range first: that took 24 MB here
    program = parse_program("main { choose(x in {1..200000}) s = 1 / 0 }")
    tracemalloc.start()
    try:
        report = check_equivalence(program)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.describe() == "match: both raised runtime errors"
    assert peak < 1_000_000


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
    _, records = enumerate_solutions(program)
    assert records
    for record in records:
        validate_shape(tree_of(record))


def test_oracle_derivations_match_the_pinned_digest():
    # one SHA-256 over the tree of every record the oracle reports for
    # gen_program seeds 0-299, or the class of what it raised; the
    # engine's trees are pinned by the .full goldens and corpus.sha256
    digest = hashlib.sha256()
    for seed in range(300):
        try:
            _, records = enumerate_solutions(gen_program(random.Random(seed)))
        except (OutOfBounds, OracleRunError) as e:
            digest.update(type(e).__name__.encode() + b"\n")
            continue
        for record in records:
            digest.update(format_tree(tree_of(record)).encode() + b"\n")
    assert digest.hexdigest() == "d122e6b2aaa086503f9ba523ac447aaacaa23e233ca3345e4accba32bd0c68d9"


def test_oracle_verdicts_match_the_pinned_digest():
    # one SHA-256 over the report text of the differential check for
    # gen_program seeds 0-2,999: a change to how the oracle runs must
    # leave every verdict, and every solution a mismatch would list, alone
    digest = hashlib.sha256()
    for seed in range(3000):
        digest.update(check_equivalence(gen_program(random.Random(seed))).describe().encode() + b"\n")
    assert digest.hexdigest() == "24755ceab1e81c36be911f15b57151f143720ca0fb665a6d1759e14beb350c76"


def _rule_applications(records, error):
    """Each record of a stream as its (rule, goal, label) applications,
    goals by identity, then "end" or the kind of an error of class error."""
    stream = []
    try:
        for applied in records:
            steps = []
            while applied is not None:
                (rule, goal, label, _), applied = applied
                steps.append((rule, id(goal), label))
            stream.append(steps)
        stream.append("end")
    except error as e:
        stream.append(e.kind)
    return stream


def test_engine_and_oracle_derive_each_solution_by_the_same_rules():
    # both sides run the same parsed goals and differ only in their
    # environments, so each solution's derivation applies the same rules
    # to the same goals in the same order, whatever the values
    compared = solutions = 0
    for seed in range(3000):
        program = gen_program(random.Random(seed))
        try:
            engine = _rule_applications((o.record for o in execute(program)), EvalError)
            oracle = _rule_applications(
                (a for _, _, a in _Enumerator(program.clauses).exec_goal({}, (), program.main, 1)),
                OracleRunError)
        except (BudgetExhausted, OutOfBounds):
            continue
        assert engine == oracle, seed
        compared += 1
        solutions += len(engine) - 1
    assert (compared, solutions) == (2989, 2829)  # every in-bounds seed


@pytest.mark.parametrize("source, verdict", [
    # the inner y is a binder of its own: f(y) is not ground, whatever the outer y holds
    ("main { choose(y in {3}) choose(x) (choose(y) (y == 5; x == f(y))) }",
     "excluded: choose(x) has no ground pin"),
    ("main { choose(x in {1}) choose(x) (x == 2) }", "match: 1 solutions"),
    ("p(a) { choose(x) (x == g(a); a == 4) } main { choose(y in {4, 5}) p(y) }",
     "match: 1 solutions"),
    # a bounded choose reads its set outside its own binder: the inner set holds the outer x
    ("main { choose(x in {1, 2}) choose(x in {x, 3}) x == 1 }", "match: 1 solutions"),
    ("p(x) { choose(x in {x, 3}) x == 1 } main { p(1) }", "match: 1 solutions"),
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


def test_a_comparison_on_a_free_variable_is_out_of_bounds():
    # a hand-built goal with x free: no binder gives it a value
    program = SourceProgram((), Compare("==", TermLit(Var("x")), IntLit(1)))
    with pytest.raises(OutOfBounds, match="a variable reaches a comparison unsubstituted"):
        enumerate_solutions(program)
    assert check_equivalence(program).describe() == (
        "excluded: a variable reaches a comparison unsubstituted")


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
    [outcome] = list(execute(program))
    _, [record] = enumerate_solutions(program)
    engine, oracle = tree_of(outcome.record), tree_of(record)

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


@pytest.mark.parametrize("source, kind", [
    ("s = 1 / 0", "division"),
    ("s = 9223372036854775807 + 1", "overflow"),
    ("s = 0 - 9223372036854775807 - 2", "overflow"),
    ("s = 3037000500 * 3037000500", "overflow"),
    ("s = fib(94)", "overflow"),
    ("s = fact(21)", "overflow"),
    ("s = fib(0)", "domain"),
    ("s = fact(0 - 1)", "domain"),
    ("s = f(1) + 1", "not-integer"),
    ("s = f(1); t = s + 1", "not-integer"),
    ("nosuch(1)", "undefined"),
])
def test_both_sides_give_a_fault_the_same_kind(source, kind):
    program = parse_program(f"main {{ {source} }}")
    with pytest.raises(EvalError) as engine:
        list(execute(program))
    with pytest.raises(OracleRunError) as oracle:
        enumerate_solutions(program)
    assert engine.value.kind == oracle.value.kind == kind
    assert check_equivalence(program).describe() == "match: both raised runtime errors"


def test_every_runtime_error_names_a_kind_of_the_one_vocabulary():
    # each side raises at least one error of every kind, and no other
    for module, error in ((choo.interp, "EvalError"), (choo.oracle, "OracleRunError")):
        kinds = [node.exc.args[0].value for node in ast.walk(ast.parse(Path(module.__file__).read_text()))
                 if isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call)
                 and getattr(node.exc.func, "id", None) == error]
        assert set(kinds) == set(ERROR_KINDS), module.__name__


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
    assert report.engine == report.oracle == ["overflow"]
    assert report.describe() == "match: both raised runtime errors"


def test_unpinned_programs_are_excluded_not_failed():
    report = check_equivalence(parse_program("main { choose(x) x == x }"))
    assert report.excluded
    assert not report.matched
    assert report.describe() == "excluded: choose(x) has no ground pin"


def test_an_oracle_error_against_engine_solutions_is_a_mismatch(monkeypatch):
    def failing_oracle(self, store, witnesses, goal, height, applied=None, env=None):
        raise OracleRunError("overflow", "injected")
        yield

    monkeypatch.setattr(_Enumerator, "exec_goal", failing_oracle)
    report = check_equivalence(parse_program("main { s = 1 }"))
    assert not report.matched
    assert report.oracle == ["overflow"]
    assert report.describe().splitlines() == [
        "mismatch: the streams part at item 1",
        "  engine: ((), {'s': Int(value=1)})",
        "  oracle: raised overflow",
    ]


def _solution(x, s):
    return Outcome((("x", Int(x)),), {"s": Int(s)})


@pytest.mark.parametrize("source, engine, parting", [
    # an error on the engine's side only
    ("main { choose(x in {2, 1}) s = x }", [EvalError("division", "injected")],
     ["item 1", "raised division", "((('x', Int(value=2)),), {'s': Int(value=2)})"]),
    # the same solutions in another order
    ("main { choose(x in {1, 2}) s = x }", [_solution(2, 2), _solution(1, 1)],
     ["item 1", "((('x', Int(value=2)),), {'s': Int(value=2)})",
      "((('x', Int(value=1)),), {'s': Int(value=1)})"]),
    # the same solution once against twice
    ("main { choose(x in {1}) s = x }", [_solution(1, 1), _solution(1, 1)],
     ["item 2", "((('x', Int(value=1)),), {'s': Int(value=1)})", "end"]),
    # both sides raise, with different kinds
    ("main { s = 1 / 0 }", [EvalError("overflow", "injected")],
     ["item 1", "raised overflow", "raised division"]),
    # both sides raise the same kind, after different solutions
    ("main { choose(x in {1, 2}) s = 2 / (2 - x) }", [_solution(1, 3), EvalError("division", "injected")],
     ["item 1", "((('x', Int(value=1)),), {'s': Int(value=3)})",
      "((('x', Int(value=1)),), {'s': Int(value=2)})"]),
])
def test_streams_that_part_are_a_mismatch(monkeypatch, source, engine, parting):
    # order, repeats and the kind of error all count
    def scripted_engine(program, budget=None, on_rule=None):
        for item in engine:
            if isinstance(item, EvalError):
                raise item
            yield item

    monkeypatch.setattr("choo.oracle.execute", scripted_engine)
    report = check_equivalence(parse_program(source))
    assert not report.matched and not report.excluded
    assert report.describe().splitlines() == [
        f"mismatch: the streams part at {parting[0]}", f"  engine: {parting[1]}", f"  oracle: {parting[2]}"]


def test_repeated_solutions_are_counted():
    # two clauses derive the same solution: run --all prints two
    report = check_equivalence(parse_program("p(x) { x == 1 } p(x) { x == 1 } main { p(1) }"))
    assert report.matched
    assert report.engine == report.oracle == [((), {}), ((), {}), "end"]
    assert report.describe() == "match: 2 solutions"


def test_report_text_names_both_sides_on_mismatch():
    shared = ((("x", Int(1)),), {})
    extra = ((("x", Int(2)),), {})
    report = EquivalenceReport(matched=False, engine=[shared, extra, "end"], oracle=[shared, "end"])
    assert report.describe().splitlines() == [
        "mismatch: the streams part at item 2",
        "  engine: ((('x', Int(value=2)),), {})",
        "  oracle: end",
    ]


def test_report_text_shows_an_unconstrained_witness_as_a_blank():
    # the oracle excludes such programs, so only the engine's side holds one
    [outcome] = execute(parse_program("main { choose(x) x == x }"))
    assert outcome.witnesses == (("x", UNCONSTRAINED),)
    assert repr(UNCONSTRAINED) == "_"
    report = EquivalenceReport(matched=False, engine=[(outcome.witnesses, {}), "end"], oracle=["end"])
    assert report.describe() == "mismatch: the streams part at item 1\n  engine: ((('x', _),), {})\n  oracle: end"


def test_report_text_shows_witnesses_nested_past_the_recursion_limit():
    # a per-level repr gives out near 400 levels at the default limit
    deep = Atom("z")
    for _ in range(450):
        deep = Compound("s", (deep,))
    report = EquivalenceReport(
        matched=False,
        engine=[((("x", deep),), {}), "end"],
        oracle=[((("x", Atom("z")),), {}), "end"],
    )
    deep_repr = "Compound(functor='s', args=(" * 450 + "Atom(name='z')" + ",))" * 450
    assert report.describe().splitlines() == [
        "mismatch: the streams part at item 1",
        f"  engine: ((('x', {deep_repr}),), {{}})",
        "  oracle: ((('x', Atom(name='z')),), {})",
    ]


def test_report_text_is_the_same_under_every_string_hash_seed():
    # the store is built in the order a set of names iterates, which
    # follows string hashing; the report sorts it by name
    script = (
        "from choo.oracle import EquivalenceReport\n"
        "from choo.terms import Int\n"
        "store = {name: Int(len(name)) for name in {'s', 'tt', 'uuu', 'b', 'k'}}\n"
        "print(EquivalenceReport(False, engine=[((('x', Int(0)),), store), 'end'],\n"
        "                        oracle=['division']).describe())\n"
    )
    src = str(Path(choo.__file__).resolve().parent.parent)
    outputs = {
        subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, timeout=120,
            env={**os.environ, "PYTHONPATH": src, "PYTHONHASHSEED": str(seed)},
        ).stdout
        for seed in range(1, 5)
    }
    assert outputs == {"\n".join([
        "mismatch: the streams part at item 1",
        "  engine: ((('x', Int(value=0)),), {'b': Int(value=1), 'k': Int(value=1),"
        " 's': Int(value=1), 'tt': Int(value=2), 'uuu': Int(value=3)})",
        "  oracle: raised division",
    ]) + "\n"}


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
    assert report.matched and len(report.engine[:-1]) == 1
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


def test_random_programs_stream_solutions_in_the_oracles_order():
    # the check compares ordered streams, so a solution found twice, or
    # found out of order, is a mismatch; unbounded chooses included
    rng = random.Random(5004)
    compared = 0
    for _ in range(3000):
        program = gen_program(rng)
        report = check_equivalence(program)
        assert report.matched or report.excluded, f"{format_program(program)}\n{report.describe()}"
        compared += not report.excluded
    assert compared >= 2900  # 2,989 of the 3,000 are in bounds


@pytest.mark.parametrize("source, expected", [
    ("p(x) { x == 1 } p(x) { x == 1 } main { p(1) }", [((), {}), ((), {}), "end"]),
    ("p(x) { x == 1 } p(x) { x > 0 } p(x) { s = x } main { choose(y in {1, 2}) p(y) }",
     [((("y", Int(1)),), {}), ((("y", Int(1)),), {}), ((("y", Int(1)),), {"s": Int(1)}),
      ((("y", Int(2)),), {}), ((("y", Int(2)),), {"s": Int(2)}), "end"]),
])
def test_duplicate_solutions_stream_alike(source, expected):
    report = check_equivalence(parse_program(source))
    assert report.engine == report.oracle == expected


def test_straightline_programs_agree_with_the_engine():
    from choo.syntax import SourceProgram
    from proggen import gen_straightline

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


@pytest.mark.parametrize("source, expected", [
    ("main { choose(x in {5}) s = 1 }", "main { s = 1 }"),  # an unused binder goes
    ("main { choose(x) (x == 1; s = 1) }", "main { s = 1 }"),
    # y is read in the inner set, so neither header can go
    ("main { choose(y in {2}) choose(x in {y}) s = x }",
     "main { choose(y in {2}) choose(x in {y}) s = x }"),
])
def test_shrink_drops_binders_only_where_unused(source, expected):
    def still_bad(program):
        return any("s" in outcome.store for outcome in execute(program))

    assert shrink(parse_program(source), still_bad) == parse_program(expected)


def test_shrink_skips_variants_whose_check_raises():
    # dropping the clause leaves a call to nothing, and the engine raises
    def still_bad(program):
        return any("s" in outcome.store for outcome in execute(program))

    program = parse_program("p() { s = 1 } main { p() }")
    with pytest.raises(EvalError) as err:
        still_bad(SourceProgram((), program.main))
    assert err.value.kind == "undefined"
    assert shrink(program, still_bad) == program


def test_shrink_takes_the_first_smallest_variant_each_round(monkeypatch):
    # dropping any one element leaves a set of two: the first such variant
    # wins, and its equal-sized siblings are not checked; then {3} beats {2}
    # the same way, and {} is checked and passes
    calls = []

    def still_bad(program):
        calls.append(program)
        return any("s" in outcome.store for outcome in execute(program))

    program = parse_program("main { choose(x in {1, 2, 3}) s = x }")
    assert shrink(program, still_bad) == parse_program("main { choose(x in {3}) s = x }")
    assert len(calls) == 3
    monkeypatch.setattr("choo.shrink._MAX_ROUNDS", 1)
    assert shrink(program, still_bad) == parse_program("main { choose(x in {2, 3}) s = x }")


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
