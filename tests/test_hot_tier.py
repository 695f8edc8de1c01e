"""The hot tier: integer expressions compiled once a search finds them hot,
and range elements made once per search.

The compiled functions are checked against eval_int, the reference
evaluator, and every pinned output is checked again with each
expression compiled at its first evaluation.
"""

import gc
import itertools
import random
import tracemalloc
import weakref

import pytest

import test_corpus
import test_golden
import test_oracle
from choo import (
    Atom,
    BinOp,
    Compound,
    EvalError,
    Int,
    IntLit,
    TermLit,
    Var,
    VarRef,
    check_equivalence,
    eval_int,
    execute,
    parse_program,
)
from choo import interp
from choo.syntax import format_expr
from choo.terms import INT64_MAX, INT64_MIN


@pytest.fixture
def compiled(monkeypatch):
    """Compile every expression at its first evaluation; the list holds a
    weak reference to each function compiled."""
    made = []
    compile_int = interp._compile_int

    def recording(expr):
        code = compile_int(expr)
        if code is not None:
            made.append(weakref.ref(code))
        return code

    monkeypatch.setattr(interp, "_HOT_AFTER", 1)
    monkeypatch.setattr(interp, "_compile_int", recording)
    return made


# --- the compiled functions against eval_int --------------------------------------

# binders in env: an integer, a compound, a clause parameter one subst
# step from its integer, one two steps away, one unbound; "w" is in no env
ENV = {"x": Int(6), "c": Compound("f", (Int(1),)), "p": Var("_G1"), "q": Var("_G2"),
       "r": Var("_G4")}
SUBST = {"_G1": Int(-7), "_G2": Var("_G3"), "_G3": Int(3)}
# s and m hold integers, t is unset, a holds an atom
STORE = {"s": Int(INT64_MAX), "m": Int(INT64_MIN), "a": Atom("red")}
EDGES = (0, 1, -1, 2, -2, 3, 7, 3037000499, -3037000500, INT64_MAX, INT64_MIN,
         INT64_MAX // 2, INT64_MIN // 2)
LEAVES = [IntLit(v) for v in EDGES] + [VarRef(n) for n in "smta"] + [
    TermLit(Var(n)) for n in "xcpqrw"]


def outcome(evaluate):
    """("value", v) with v an int or None, or ("raised", class, message)."""
    try:
        return ("value", evaluate())
    except EvalError as e:
        return ("raised", type(e), str(e))


def compiled_outcome(expr):
    """What the hot entry gives expr once its function is compiled."""
    return outcome(lambda: interp._hot_eval_int(
        {id(expr): interp._compile_int(expr)}, STORE, SUBST, expr, ENV))


def gen_expr(rng, depth):
    if depth == 0 or rng.random() < 0.3:
        return rng.choice(LEAVES)
    return BinOp(rng.choice("+-*/"), gen_expr(rng, depth - 1), gen_expr(rng, depth - 1))


def parsed(text):
    return parse_program(f"main {{ choose(x in {{6}}) s = {text} }}").main.body.expr


@pytest.mark.parametrize("expr", [
    BinOp("+", IntLit(INT64_MAX), IntLit(0)),
    BinOp("+", IntLit(INT64_MAX), IntLit(1)),
    BinOp("-", IntLit(INT64_MIN), IntLit(1)),
    BinOp("*", IntLit(INT64_MIN), IntLit(-1)),
    BinOp("/", IntLit(INT64_MIN), IntLit(-1)),  # the one quotient that overflows
    BinOp("-", IntLit(INT64_MIN), IntLit(0)),
    BinOp("/", IntLit(-7), IntLit(2)),
    BinOp("/", IntLit(7), IntLit(-2)),
    BinOp("/", IntLit(-7), IntLit(-2)),
    BinOp("/", IntLit(1), IntLit(0)),
    BinOp("/", TermLit(Var("x")), BinOp("-", TermLit(Var("x")), IntLit(6))),
    # an unset store read before, and after, an operation that overflows
    BinOp("+", VarRef("t"), BinOp("*", VarRef("s"), IntLit(2))),
    BinOp("+", BinOp("*", VarRef("s"), IntLit(2)), VarRef("t")),
    BinOp("/", VarRef("t"), IntLit(0)),
    BinOp("/", IntLit(1), BinOp("*", IntLit(0), VarRef("t"))),
    BinOp("+", TermLit(Var("r")), IntLit(1)),
    BinOp("+", TermLit(Var("w")), VarRef("t")),
    BinOp("+", VarRef("t"), TermLit(Var("w"))),
    BinOp("*", TermLit(Var("c")), IntLit(2)),
    BinOp("*", VarRef("a"), IntLit(2)),
    BinOp("-", TermLit(Var("q")), TermLit(Var("p"))),
    BinOp("*", TermLit(Var("x")), TermLit(Var("x"))),
], ids=repr)
def test_a_compiled_expression_gives_what_eval_int_gives(expr):
    assert compiled_outcome(expr) == outcome(lambda: eval_int(STORE, SUBST, expr, ENV))


def test_compiled_functions_agree_with_eval_int_on_generated_expressions():
    rng = random.Random(17)
    answers = {"value": 0, "None": 0, "raised": 0, "handed back": 0}
    for _ in range(4000):
        expr = gen_expr(rng, 4)
        if type(expr) is not BinOp:
            continue
        expected = outcome(lambda: eval_int(STORE, SUBST, expr, ENV))
        assert compiled_outcome(expr) == expected, expr
        # the function itself answers only the plain case, and answers it right
        own = outcome(lambda: interp._compile_int(expr)(STORE, SUBST, ENV))
        if own == ("value", interp._NOT_INT):
            answers["handed back"] += 1
        else:
            assert own == expected, expr
            answers["None" if own == ("value", None) else own[0]] += 1
    assert answers["None"] == 0  # an unset read is handed back, not answered
    assert min(answers["value"], answers["raised"], answers["handed back"]) >= 20, answers


def test_parsed_expressions_compile_to_what_eval_int_gives():
    for text in ("x * x + 3 * x - 1", "1 + 2 + 3 + 4 + 5", "x - (x - (x - 1))", "x / 4 * 4",
                 "(x + 1) * (x - 1) / 5"):
        expr = parsed(text)
        assert compiled_outcome(expr) == ("value", eval_int({}, {}, expr, {"x": Int(6)})), text


def test_calls_compounds_and_atoms_are_never_compiled():
    for text in ("fib(x) + 1", "1 + fact(3)", "x + f(1)", "x + red"):
        assert interp._compile_int(parsed(text)) is None, text


def test_generated_code_holds_no_program_text():
    # names and literal values reach the function through its namespace
    name = "zzyzx"
    expr = BinOp("+", VarRef(name), BinOp("*", TermLit(Var("qqq")), IntLit(987654321)))
    code = interp._compile_int(expr)
    assert name not in code.__code__.co_consts and name not in code.__code__.co_names
    assert 987654321 not in code.__code__.co_consts
    assert code({name: Int(1)}, {}, {"qqq": Int(2)}) == 1 + 2 * 987654321


def test_a_long_sum_compiles_at_the_default_recursion_limit():
    expr = IntLit(1)
    for _ in range(3000):
        expr = BinOp("+", expr, IntLit(1))
    expr = BinOp("-", IntLit(0), expr)
    for _ in range(450):  # as deep as the parser nests
        expr = BinOp("*", IntLit(1), expr)
    assert interp._compile_int(expr)({}, {}, {}) == eval_int({}, {}, expr) == -3001


# --- when a search compiles -----------------------------------------------------

def test_an_expression_is_compiled_once_it_is_hot_and_only_for_its_search(monkeypatch):
    made = []
    compile_int = interp._compile_int
    monkeypatch.setattr(interp, "_compile_int", lambda expr: made.append(expr) or compile_int(expr))
    program = parse_program("main { choose(x in {1..200}) choose(y in {0..1})"
                            " (s = x * 2 + y; x * 3 - y == 453; u = x + y; t = fib(x - 149)) }")
    for _ in range(2):  # nothing is kept from one search to the next
        outs = list(execute(program))
        assert [o.witnesses for o in outs] == [(("x", Int(151)), ("y", Int(0)))]
        assert outs[0].store == {"s": Int(302), "u": Int(151), "t": Int(1)}
    # x * 2 + y and x * 3 - y are evaluated 400 times each, x + y once,
    # and x - 149 only inside a call
    assert [format_expr(e) for e in made] == ["x * 2 + y", "x * 3 - y"] * 2


def test_no_compiled_function_or_element_tuple_outlives_its_search(compiled):
    program = parse_program(
        "main { choose(x in {1000001..1000777}) choose(y in {1..3}) x * y == 3000003 }")

    def element_tuples():
        return [o for o in gc.get_objects() if type(o) is tuple and len(o) == 777
                and o[0] == Int(1000001)]

    assert len(list(execute(program))) == 1
    assert compiled and all(ref() is None for ref in compiled)
    assert element_tuples() == []
    outs = execute(program)  # abandoned partway
    next(outs)
    assert any(ref() is not None for ref in compiled) and len(element_tuples()) == 1
    outs.close()
    assert all(ref() is None for ref in compiled)
    assert element_tuples() == []


# --- ranges -------------------------------------------------------------------------

def count_ints(monkeypatch):
    made = []
    init = Int.__init__

    def counting_init(self, value):
        made.append(value)
        init(self, value)

    monkeypatch.setattr(Int, "__init__", counting_init)
    return made


def test_a_huge_range_builds_only_the_elements_it_tries(monkeypatch):
    program = parse_program("main { choose(x in {7..1000000000000}) x == 7 }")
    witnesses = (("x", Int(7)),)
    made = count_ints(monkeypatch)
    outs = execute(program)
    assert next(outs).witnesses == witnesses
    outs.close()
    # the element tried, the next one (a choice point takes it to know
    # whether it has another), and the literal 7
    assert made == [7, 8, 7]


def test_a_range_makes_its_elements_once_per_search(monkeypatch):
    program = parse_program("main { choose(x in {1..3}) choose(y in {1..50}) y == 0 }")
    made = count_ints(monkeypatch)
    assert list(execute(program)) == []
    assert sorted(made) == sorted([*range(1, 4), *range(1, 51), *[0] * 150])


def test_a_recursive_clause_re_enters_a_range_partway_through_it(compiled):
    # walk(3) enters the same choose at each level while the outer
    # levels are partway through their elements
    program = parse_program(
        "walk(n) { n == 0 }\n"
        "walk(n) { n > 0; choose(x in {1..3}) choose(m) (m == n - 1; s = n * 10 + x; walk(m)) }\n"
        "main { walk(3) }")
    outs = list(execute(program))
    expected = []
    for xs in itertools.product(range(1, 4), repeat=3):
        witnesses = []
        for level, x in zip((3, 2, 1), xs):
            witnesses += [("x", Int(x)), ("m", Int(level - 1))]
        expected.append((tuple(witnesses), {"s": Int(10 + xs[2])}))
    assert [(o.witnesses, o.store) for o in outs] == expected
    assert check_equivalence(program).describe() == "match: 27 solutions"


def test_all_solutions_of_a_range_past_the_cap_keep_memory_bounded():
    def peak(width):
        program = parse_program(f"main {{ choose(x in {{1..{width}}}) x > {width - 3} }}")
        tracemalloc.start()
        try:
            assert len(list(execute(program))) == 3
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    width = 4 * interp._RANGE_CAP
    # kept, the elements would take over 100 bytes each
    assert peak(4 * width) < peak(width) + 50_000


# --- every pinned output, with each expression compiled at once -----------------------

def test_the_corpus_holds_with_every_expression_compiled(compiled, tmp_path):
    test_corpus.test_every_output_matches_its_pinned_digest(tmp_path)
    assert len(compiled) > 300


def test_the_oracle_verdicts_hold_with_every_expression_compiled(compiled):
    test_oracle.test_oracle_verdicts_match_the_pinned_digest()
    assert len(compiled) > 300


@pytest.mark.parametrize("name,args,status", test_golden.CASES, ids=[c[0] for c in test_golden.CASES])
def test_golden_with_every_expression_compiled(name, args, status, compiled, capsys):
    test_golden.test_golden(name, args, status, capsys)


@pytest.mark.parametrize("mode", ["full", "rules"])
@pytest.mark.parametrize("name,args,status", test_golden.SOLVED, ids=[c[0] for c in test_golden.SOLVED])
def test_golden_trace_with_every_expression_compiled(name, args, status, mode, compiled, capsys):
    test_golden.test_golden_trace(name, args, status, mode, capsys)
